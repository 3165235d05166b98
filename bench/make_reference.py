#!/usr/bin/env python3
"""Regenerate bench/reference/sweep_{neumann,periodic}.csv.

The rate-sweep gate compares these fixed sweeps with the stored CSVs to a
relative 1e-13, so they pin the closed-form rate path's values at the
commit that wrote them. Regenerate only when a change of values is
intended, and say so in CHANGES.md.

    PYTHONPATH=src python3 bench/make_reference.py
"""

import shutil
import sys
import tempfile

from workloads import REFERENCE_DIR, reference_sweeps, run_cli_in_process


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for bc, argv in reference_sweeps(tmp).items():
            if run_cli_in_process(argv) != 0:
                return 1
            shutil.copyfile(argv[argv.index("--out") + 1], REFERENCE_DIR / f"sweep_{bc}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
