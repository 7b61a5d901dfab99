"""In-memory span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files by replacing
attributes where callers look names up (module namespaces and class
dictionaries), and every replaced attribute is restored afterwards, so
an untraced run executes the library untouched.

A span records its name, start, end, parent span, the summed duration of
its children and the level of the nearest enclosing level span.  The
program is single-threaded, so child spans never overlap and a span's
self time is its duration minus the children's summed duration.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

WRAPPED_MARK = "__perfbench_wrapped__"

# span record fields
NAME, START, END, PARENT, CHILD, OUTERMOST, LEVEL = range(7)


class Tracer:
    """Collects spans from wrapped callables and undoes every patch."""

    def __init__(self):
        self.spans = []
        self.instances = defaultdict(dict)
        self.paused = False
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, namer=None, track_instances=False):
        """Return a wrapper of ``fn`` recording one span per call.

        ``namer(args, kwargs)`` may return ``(span_name, level)`` to name
        a call by its arguments; a non-None level is inherited by every
        span opened inside it.  With ``track_instances`` the first
        argument is kept so calls per distinct instance can be counted.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_name, level = namer(args, kwargs) if namer else (name, None)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if level is None and parent >= 0:
                level = tracer.spans[parent][LEVEL]
            if track_instances:
                tracer.instances[span_name][id(args[0])] = args[0]
            outermost = tracer._active[span_name] == 0
            tracer._active[span_name] += 1
            record = [span_name, 0.0, 0.0, parent, 0.0, outermost, level]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                tracer._active[span_name] -= 1
                if parent >= 0:
                    tracer.spans[parent][CHILD] += record[END] - record[START]

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    @contextmanager
    def pause(self):
        """Record nothing inside the block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def reset(self):
        """Drop recorded spans and tracked instances (not the patches)."""
        self.spans = []
        self.instances = defaultdict(dict)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        return [(owner, attr, original) for owner, attr, original in self._patches]

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, inclusive seconds (outermost calls only,
        so recursion is not counted twice) and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            entry = out[rec[NAME]]
            duration = rec[END] - rec[START]
            entry["calls"] += 1
            entry["self_s"] += duration - rec[CHILD]
            if rec[OUTERMOST]:
                entry["s"] += duration
        return dict(out)

    def by_level(self, name):
        """Inclusive seconds of ``name`` spans keyed by enclosing level."""
        out = defaultdict(float)
        for rec in self.spans:
            if rec[NAME] == name and rec[OUTERMOST]:
                out[rec[LEVEL]] += rec[END] - rec[START]
        return dict(out)

    def group_seconds(self, names):
        """Inclusive seconds of spans in ``names`` not nested in another."""
        names = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[NAME] not in names:
                continue
            parent = rec[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += rec[END] - rec[START]
        return total

    def self_total(self):
        return sum(rec[END] - rec[START] - rec[CHILD] for rec in self.spans)


def leftover_wrappers(namespaces):
    """Names of attributes in ``namespaces`` still bound to a wrapper."""
    found = []
    for ns in namespaces:
        items = vars(ns).items()
        for attr, value in items:
            target = value.fget if isinstance(value, property) else value
            if getattr(target, WRAPPED_MARK, False):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return found


def self_check():
    """Trace a synthetic nested call tree and return a list of problems
    (empty when the tracer is sound).

    Checks that self times of a root span's subtree sum to its duration,
    that a recursive function named by level gets one span name per
    level with no double-counted inclusive time, and that restoring
    leaves neither wrappers nor changed attributes behind.
    """
    problems = []
    mod = types.ModuleType("perfbench_synthetic")

    def spin(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    def leaf():
        spin(0.0005)

    def middle():
        spin(0.0005)
        mod.leaf()
        mod.leaf()

    def descend(level, depth):
        spin(0.0005)
        if level < depth:
            mod.descend(level + 1, depth)
        mod.middle()

    def root():
        mod.middle()
        mod.descend(0, 2)
        spin(0.0005)

    mod.leaf, mod.middle, mod.descend, mod.root = leaf, middle, descend, root
    originals = dict(vars(mod))
    tracer = Tracer()
    for attr in ("leaf", "middle", "root"):
        tracer.patch(mod, attr, tracer.wrap(getattr(mod, attr), f"synthetic.{attr}"))
    tracer.patch(mod, "descend", tracer.wrap(
        descend, "synthetic.descend",
        namer=lambda args, kwargs: (f"synthetic.descend.L{args[0]}", args[0])))
    mod.root()
    tracer.restore()

    spans = tracer.spans
    roots = [rec for rec in spans if rec[PARENT] < 0]
    if len(roots) != 1:
        problems.append(f"expected one root span, got {len(roots)}")
    else:
        root_span = roots[0]
        duration = root_span[END] - root_span[START]
        self_sum = tracer.self_total()
        if abs(self_sum - duration) > 1e-9 * max(duration, 1.0):
            problems.append(f"self times sum to {self_sum!r}, root lasted {duration!r}")
    agg = tracer.aggregate()
    for level in range(3):
        if agg.get(f"synthetic.descend.L{level}", {}).get("calls") != 1:
            problems.append(f"recursive level {level} has no span of its own")
    if agg.get("synthetic.leaf", {}).get("calls") != 8:
        problems.append("leaf calls miscounted")
    nested_leaf = tracer.by_level("synthetic.leaf")
    if sorted(k for k in nested_leaf if k is not None) != [0, 1, 2]:
        problems.append(f"level attribution wrong: {sorted(map(str, nested_leaf))}")
    if agg["synthetic.root"]["s"] + 1e-12 < agg["synthetic.descend.L0"]["s"]:
        problems.append("nested inclusive time exceeds its parent")
    if vars(mod) != originals or leftover_wrappers([mod]):
        problems.append("wrappers left behind after restore")
    return problems
