import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmg import MatrixTrigPolynomial
from blockmg.cli import (CSV_HEADER, ExperimentConfig, _solve_one, main,
                         parse_config, print_table, run)
from blockmg.errors import BlockmgError, ConfigurationError
from blockmg.femgen import (build_geometric_symbol, build_linear_interp_symbol,
                            mass_symbol, stiffness_symbol)
from blockmg.multilevel import tensor_sum_symbol
from blockmg.symbol import tensor_symbol, write_symbol


def write_config(path, **overrides):
    base = {"mode": "solve", "dim": 1, "r": 1, "t_range": "3..4",
            "coefficient": "one", "projector": "linear", "cycle": "vcycle",
            "output": str(path.parent / "out")}
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def _certify_args(tmp_path, f, p):
    f_path, p_path = tmp_path / "f.sym", tmp_path / "p.sym"
    write_symbol(f_path, f)
    write_symbol(p_path, p)
    return ["certify", str(f_path), str(p_path)]


def _certify_edited(tmp_path, edit):
    """certify arguments whose problem symbol file, the r = 2 stiffness
    symbol as written, is rewritten by ``edit``."""
    args = _certify_args(tmp_path, stiffness_symbol(2), build_linear_interp_symbol(2))
    f_path = Path(args[1])
    f_path.write_text(edit(f_path.read_text()))
    return args


def _repeat_first_coeff(text):
    """The symbol file ``text`` (d = 2) with its first coefficient block,
    the header line and two rows, given again before ``end``."""
    lines = text.splitlines()
    return "\n".join(lines[:-1] + lines[3:6] + lines[-1:]) + "\n"


def _table_args(tmp_path, rows: bytes):
    path = tmp_path / "result.csv"
    path.write_bytes(",".join(CSV_HEADER).encode() + b"\n" + rows)
    return ["table", str(path)]


def _run_args(tmp_path, text: bytes):
    path = tmp_path / "e.cfg"
    path.write_bytes(text)
    return ["run", str(path)]


def _cosine_sum(m, c):
    """The scalar symbol sum_k (2 + 2c cos t_k) in m variables."""
    coeffs = {(0,) * m: 2.0 * m}
    for k in range(m):
        for sign in (1, -1):
            coeffs[tuple(sign * (i == k) for i in range(m))] = c
    return MatrixTrigPolynomial.scalar(coeffs, m=m)


def _under_regular_file(tmp_path, name):
    """A path whose parent is a regular file, so nothing can be created there."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / name)


MALFORMED = {
    "certify-block-orders-differ": lambda tmp: _certify_args(
        tmp, stiffness_symbol(2), build_linear_interp_symbol(3)),
    "certify-univariate-f-bivariate-p": lambda tmp: _certify_args(
        tmp, stiffness_symbol(4), tensor_symbol([build_linear_interp_symbol(2)] * 2)),
    "certify-bivariate-f-univariate-p": lambda tmp: _certify_args(
        tmp, tensor_sum_symbol(stiffness_symbol(2), mass_symbol(2)),
        build_linear_interp_symbol(4)),
    # every grid holds at least 8^m points and a corner sum 16^m values:
    # gigabytes at m = 5, more than numpy can allocate at m = 20
    "certify-five-variable-pair": lambda tmp: _certify_args(
        tmp, _cosine_sum(5, -1.0), tensor_symbol([_cosine_sum(1, 1.0)] * 5)),
    "certify-twenty-variable-pair": lambda tmp: _certify_args(
        tmp, _cosine_sum(20, -1.0), _cosine_sum(20, 1.0)),
    # the symbol exchange format: each coefficient index once, one value
    # per header line and nothing after 'end'
    "certify-repeated-coeff-index": lambda tmp: _certify_edited(tmp, _repeat_first_coeff),
    "certify-content-after-end": lambda tmp: _certify_edited(
        tmp, lambda text: text + "coeff 5\n1 0\n0 1\n"),
    "certify-two-values-on-the-d-line": lambda tmp: _certify_edited(
        tmp, lambda text: text.replace("d 2\n", "d 2 7\n", 1)),
    "table-non-integer-t": lambda tmp: _table_args(tmp, b"x,31,tgm,6,1e-07,\n"),
    "table-two-fields": lambda tmp: _table_args(tmp, b"4,31\n"),
    "table-non-ascii-byte": lambda tmp: _table_args(tmp, b"4,31,tgm,6,1e-07,\xe9\n"),
    "run-non-utf8-config": lambda tmp: _run_args(tmp, b"mode = solve\n# \xff\n"),
    "run-nan-omega": lambda tmp: _run_args(
        tmp, b"smoother = richardson\ncycle = tgm\nomega = nan\nt_range = 3\n"),
    "run-inf-omega": lambda tmp: _run_args(
        tmp, b"smoother = richardson\ncycle = tgm\nomega = inf\nt_range = 3\n"),
    # omega^2 lambda_max overflows a float: the bound is tested without it
    "run-huge-omega": lambda tmp: _run_args(
        tmp, b"smoother = richardson\nomega = 1e200\nt_range = 4\n"),
    "run-inf-tol": lambda tmp: _run_args(tmp, b"tol = inf\nt_range = 3\n"),
    # omega would be ignored by the default Gauss-Seidel smoother
    "run-omega-without-richardson": lambda tmp: _run_args(tmp, b"omega = 0.3\nt_range = 3\n"),
    # t = 4 would be solved twice, into two identical rows
    "run-t-range-repeats-a-value": lambda tmp: _run_args(tmp, b"t_range = 4,4\n"),
    "run-negative-seed": lambda tmp: _run_args(tmp, b"seed = -1\nt_range = 3\n"),
    "run-key-given-twice": lambda tmp: _run_args(tmp, b"t_range = 3\nr = 1\nr = 2\n"),
    # N = 8 * 2^24 - 1 unknowns: gigabytes before the first solve
    "run-oversized-1d": lambda tmp: _run_args(tmp, b"r = 8\nt_range = 24\n"),
    "run-certify-negative-sweeps": lambda tmp: _run_args(
        tmp, b"mode = certify\nsweeps_pre = -1\nt_range = 3\n"),
    "run-output-under-regular-file": lambda tmp: _run_args(
        tmp, f"r = 1\nt_range = 3\noutput = {_under_regular_file(tmp, 'out')}\n".encode()),
    "certify-output-under-regular-file": lambda tmp: _certify_args(
        tmp, stiffness_symbol(2), build_linear_interp_symbol(2))
        + ["--output", _under_regular_file(tmp, "cert.json")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3_with_one_error_line(tmp_path, capsys, case):
    assert main(MALFORMED[case](tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_certify_bivariate_pair_writes_a_certified_report(tmp_path, capsys):
    args = _certify_args(tmp_path, tensor_sum_symbol(stiffness_symbol(2), mass_symbol(2)),
                         tensor_symbol([build_linear_interp_symbol(2)] * 2))
    out = tmp_path / "cert.json"
    assert main(args + ["--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tgm_certified"] and report["zero"]["theta0"] == [0.0, 0.0]


def test_certify_without_output_prints_the_report_it_writes(tmp_path, capsys):
    args = _certify_args(tmp_path, stiffness_symbol(2), build_linear_interp_symbol(2))
    out = tmp_path / "cert.json"
    assert main(args + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text() and json.loads(printed)["tgm_certified"]


# one config per rule that the library function consuming the key owns,
# with the start of the message that the owner writes
LIBRARY_RULES = {
    "2d-t-above-cap": (b"dim = 2\nr = 2\nt_range = 6..8\n",
                       "2D problems capped at t = 7, got 8"),
    "both-2d-degree-above-cap": (b"mode = both\ndim = 2\nr = 4\nt_range = 3\n",
                                 "2D problems capped at degree 3, got 4"),
    "tol-zero": (b"tol = 0\nt_range = 3\n", "tol must be positive and finite"),
    "max-iter-zero": (b"max_iter = 0\nt_range = 3\n", "max_iter must be >= 1"),
    "unknown-cycle": (b"cycle = fcycle\nt_range = 3\n", "unknown cycle 'fcycle'"),
    "unknown-smoother": (b"smoother = jacobi\nt_range = 3\n",
                         "unknown smoother kind 'jacobi'"),
    "negative-sweeps": (b"sweeps_pre = -1\nt_range = 3\n",
                        "sweep counts must be nonnegative integers, got -1"),
    "inf-omega": (b"smoother = richardson\nomega = inf\nt_range = 3\n",
                  "omega must be a finite real number, got inf"),
    "unknown-coefficient": (b"coefficient = bogus\nt_range = 3\n",
                            "unknown coefficient 'bogus'"),
    "unknown-projector": (b"projector = bogus\nt_range = 3\n",
                          "unknown transfer kind 'bogus'"),
    "degree-zero": (b"r = 0\nt_range = 3\n", "degree must be an integer >= 1, got 0"),
    "certify-degree-above-cap": (b"mode = certify\nr = 9\nt_range = 3\n",
                                 "symbol degree must be an integer in 1..8, got 9"),
}


@pytest.mark.parametrize("settings, prefix", list(LIBRARY_RULES.values()),
                         ids=list(LIBRARY_RULES))
def test_2d_caps_refused_before_any_solve(tmp_path, capsys, settings, prefix):
    # refused with the rest of the config, before anything is built: no
    # output directory or file is made (nor, in the first case, are
    # t = 6 and 7 solved first)
    out = tmp_path / "out"
    assert main(_run_args(tmp_path, settings + f"output = {out}\n".encode())) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1
    assert not out.exists()


def test_output_onto_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    args = _certify_args(tmp_path, stiffness_symbol(2), build_linear_interp_symbol(2))
    assert main(args + ["--output", str(taken)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {taken}")
    assert not (tmp_path / "taken.tmp").exists() and taken.is_dir()


class TestParseConfig:
    def test_defaults(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("# nothing but a comment\n")
        cfg = parse_config(cfg_file)
        assert cfg == ExperimentConfig()
        assert cfg.t_range == (4, 5, 6, 7, 8, 9, 10)
        assert cfg.tol == 1e-6 and cfg.max_iter == 100

    def test_full_file(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg", t_range="4,6,8",
                                        cycle="tgm", smoother="richardson",
                                        omega="0.09"))
        assert cfg.t_range == (4, 6, 8)
        assert cfg.cycle == "tgm"
        assert cfg.omega == pytest.approx(0.09)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("colour = blue\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_bad_enum(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(write_config(tmp_path / "bad.cfg", cycle="fcycle"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(write_config(tmp_path / "bad.cfg", r="two"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "nowhere.cfg")

    def test_2d_caps_bound_solves_not_certification(self, tmp_path):
        for mode in ("solve", "both"):
            with pytest.raises(ConfigurationError, match="2D problems capped at degree 3"):
                parse_config(write_config(tmp_path / "bad.cfg", mode=mode, dim=2, r=4))
            assert parse_config(write_config(tmp_path / "ok.cfg", mode=mode, dim=2,
                                             r=3, t_range="7")).r == 3
        assert parse_config(write_config(tmp_path / "cert.cfg", mode="certify",
                                         dim=2, r=4, t_range="8")).r == 4

    def test_dim2_variable_coefficient_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(write_config(tmp_path / "bad.cfg", dim=2,
                                      coefficient="xsq_plus_one"))

    @pytest.mark.parametrize("mode", ["certify", "both"])
    def test_certify_degree_cap(self, tmp_path, mode):
        with pytest.raises(ConfigurationError, match=r"in 1\.\.8, got 9"):
            parse_config(write_config(tmp_path / "bad.cfg", mode=mode, r=9))
        assert parse_config(write_config(tmp_path / "ok.cfg", mode=mode, r=8)).r == 8

    def test_solve_degree_not_capped(self, tmp_path):
        assert parse_config(write_config(tmp_path / "e.cfg", r=9)).r == 9

    def test_t_capped_and_long_ranges_refused_unbuilt(self, tmp_path):
        # certification reads no t, so the 1D size cap leaves t = 30 to it
        assert parse_config(write_config(tmp_path / "ok.cfg", mode="certify",
                                         t_range="2..30")).t_range[-1] == 30
        with pytest.raises(ConfigurationError, match="every t must be in 2..30"):
            parse_config(write_config(tmp_path / "big.cfg", t_range="31"))
        with pytest.raises(ConfigurationError, match="spans more than 30 values"):
            parse_config(write_config(tmp_path / "long.cfg", t_range=f"2..{10 ** 15}"))

    @pytest.mark.parametrize("mode", ["solve", "both"])
    def test_1d_size_capped(self, tmp_path, mode):
        # N = r 2^t - 1 up to 2^22: r = 4 at t = 20 and r = 1 at t = 22
        for r, t in ((4, 20), (1, 22)):
            assert parse_config(write_config(tmp_path / "ok.cfg", mode=mode, r=r,
                                             t_range=f"3,{t}")).t_range[-1] == t
        with pytest.raises(ConfigurationError, match="8388607 exceeds the cap 4194304"):
            parse_config(write_config(tmp_path / "big.cfg", mode=mode, r=8,
                                      t_range="20"))
        with pytest.raises(ConfigurationError, match="exceeds the cap"):
            parse_config(write_config(tmp_path / "big.cfg", mode=mode, t_range="23"))

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(
        st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["bogus"]),
        st.one_of(st.integers().map(str), st.floats().map(repr),
                  st.tuples(st.integers(), st.integers()).map(lambda ab: f"{ab[0]}..{ab[1]}"),
                  st.text(max_size=12))), max_size=8))
    def test_any_key_value_lines_parse_or_fail_cleanly(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "e.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines), encoding="utf-8")
        try:
            config = parse_config(path)
        except BlockmgError:
            return
        assert isinstance(config, ExperimentConfig)


class TestRun:
    def test_solve_writes_schema_csv(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg"))
        assert run(cfg) == 0
        csv_path = tmp_path / "out" / "solve_dim1_r1_one_linear_vcycle.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        for line in lines[1:]:
            t, N, cycle, iters, final, flag = line.split(",")
            assert int(N) == 2 ** int(t) - 1
            assert cycle == "vcycle"
            assert float(final) <= 1e-6
            assert flag == ""

    def test_deterministic_output(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg"))
        run(cfg)
        first = (tmp_path / "out" / "solve_dim1_r1_one_linear_vcycle.csv").read_bytes()
        run(cfg)
        second = (tmp_path / "out" / "solve_dim1_r1_one_linear_vcycle.csv").read_bytes()
        assert first == second

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg", max_iter=1))
        assert run(cfg) == 2
        csv_path = tmp_path / "out" / "solve_dim1_r1_one_linear_vcycle.csv"
        assert "noconv" in csv_path.read_text()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_solve_path_builds_one_projector_symbol(self, monkeypatch, dim):
        # every level's transfer is assembled from the one projector
        # symbol that certification checks; no other symbol is built
        built = []
        init = MatrixTrigPolynomial.__init__
        monkeypatch.setattr(MatrixTrigPolynomial, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        t = 7 if dim == 1 else 4   # two coarsenings either way
        config = ExperimentConfig(dim=dim, r=2, t_range=(t,), projector="geometric")
        assert _solve_one(config, t)["flag"] == ""
        assert len(built) == 1
        want = build_geometric_symbol(2)
        assert list(built[0].coeffs) == list(want.coeffs)
        for j, c in want.coeffs.items():
            assert built[0].coeffs[j].tobytes() == c.tobytes(), j

    def test_certify_mode(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg", mode="certify", r=2))
        assert run(cfg) == 0
        doc = json.loads((tmp_path / "out" / "certify_dim1_r2_linear.json").read_text())
        assert doc["tgm_certified"] and doc["vcycle_certified"]

    def test_certify_dim2(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg", mode="certify",
                                        dim=2, r=1))
        assert run(cfg) == 0
        doc = json.loads((tmp_path / "out" / "certify_dim2_r1_linear.json").read_text())
        assert doc["tgm_certified"]
        assert doc["vcycle_heuristic"]["label"] == "heuristic"

    def test_solve_dim2(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "e.cfg", dim=2, r=1,
                                        t_range="3"))
        assert run(cfg) == 0
        csv_path = tmp_path / "out" / "solve_dim2_r1_one_linear_vcycle.csv"
        t, N = csv_path.read_text().splitlines()[1].split(",")[:2]
        assert int(N) == (2 ** 3 - 1) ** 2


class TestTable:
    def test_single_group(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("t,N,cycle,iterations,final_residual,flag\n"
                        "4,31,tgm,6,1e-07,\n5,63,tgm,6,1e-07,\n")
        assert print_table([path]) == 0
        out = capsys.readouterr().out
        assert "tgm" in out and out.count("6") >= 2

    def test_three_groups(self, tmp_path, capsys):
        paths = []
        for name in ("one", "xsq", "exp"):
            p = tmp_path / f"{name}.csv"
            p.write_text("t,N,cycle,iterations,final_residual,flag\n"
                         f"4,31,vcycle,7,1e-07,\n")
            paths.append(p)
        print_table(paths)
        out = capsys.readouterr().out
        for name in ("one", "xsq", "exp"):
            assert name in out

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("t,N,cycle,iterations,final_residual,flag\n")
        assert print_table([path]) == 0
        assert "no data" in capsys.readouterr().out

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n1,2\n")
        with pytest.raises(ConfigurationError):
            print_table([path])


class TestMain:
    def test_unreadable_config_exits_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_schema_mismatch_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n")
        assert main(["table", str(path)]) == 3

    def test_certify_subcommand(self, tmp_path, capsys):
        f_path, p_path = tmp_path / "f.sym", tmp_path / "p.sym"
        write_symbol(f_path, stiffness_symbol(1))
        write_symbol(p_path, build_linear_interp_symbol(1))
        out_path = tmp_path / "rep.json"
        assert main(["certify", str(f_path), str(p_path),
                     "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["tgm_certified"]

    def test_certify_missing_file_exits_3(self, tmp_path, capsys):
        p_path = tmp_path / "p.sym"
        write_symbol(p_path, build_linear_interp_symbol(1))
        assert main(["certify", str(tmp_path / "missing.sym"), str(p_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read symbol file") and err.count("\n") == 1

    def test_certify_nan_coefficient_exits_3(self, tmp_path, capsys):
        f_path, p_path = tmp_path / "f.sym", tmp_path / "p.sym"
        f_path.write_text("symbol v1\nd 1\nm 1\ncoeff -1\n-1.0+0.0i\n"
                          "coeff 0\nnan+0.0i\ncoeff 1\n-1.0+0.0i\nend\n")
        write_symbol(p_path, build_linear_interp_symbol(1))
        assert main(["certify", str(f_path), str(p_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient (0,) has a non-finite entry")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("header, coeff", [
        ("d x\nm 1", "coeff 0"),
        ("d 1\nm 1", "coeff a"),
        ("d 0\nm 1", "coeff 0"),
        ("d -1\nm 1", "coeff 0"),
    ])
    def test_certify_malformed_integers_exit_3(self, tmp_path, capsys, header, coeff):
        path = tmp_path / "bad.sym"
        path.write_text(f"symbol v1\n{header}\n{coeff}\n1.0+0.0i\nend\n")
        assert main(["certify", str(path), str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_run_rejects_removed_jobs_key(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path / "e.cfg", jobs=2))]) == 3
        assert "unknown key 'jobs'" in capsys.readouterr().err

    def test_run_solve_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path / "e.cfg")
        assert main(["run", str(cfg)]) == 0

    def test_run_vcycle_richardson_default_omega(self, tmp_path):
        # each level damps by 1/C of its own matrix; the finest level's
        # value used on every level made this exit 3
        cfg = write_config(tmp_path / "e.cfg", r=2, t_range="8..9",
                           smoother="richardson")
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "out" / "solve_dim1_r2_one_linear_vcycle.csv"
                ).read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == ["", ""]

    def test_import_leaves_scipy_optimize_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, blockmg.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
            capture_output=True, text=True, env=env, check=True).stdout
        assert out.strip() == "[]"
