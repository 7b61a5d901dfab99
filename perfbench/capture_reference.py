"""Write certify_reference.json: the certification reports of the
``certify`` workload, as computed by the library in this checkout.

    python3 perfbench/capture_reference.py

The committed file was captured at the commit that introduced the
benchmark; the ``certify`` gate compares every verdict against it.
"""

from __future__ import annotations

import json

from run import import_library


def main() -> None:
    import_library()
    import workloads

    reference = {}
    for case in workloads.WORKLOADS["certify"]:
        report, _ = workloads.certify_report(case)
        reference[case.key] = report.to_dict()
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                                   encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
