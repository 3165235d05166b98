#!/usr/bin/env python3
"""Sweep the corrected rate prefactor through the bifurcation.

For each boundary condition, sweeps L across the critical length at
several noise intensities using the ``kramers-gl sweep`` command and
summarizes the curves: the classical prefactor diverges at L_c while the
corrected one stays finite, with a peak that sharpens and moves toward
L_c as eps decreases. The fitted exponent is that of the corrected
prefactor at L = L_c exactly, where the paper predicts eps^{-1/4}
(Neumann) and eps^{-1/2} (periodic). The grid maximum is not fitted: it
lies on the L grid, off L_c, and follows this scaling only as eps -> 0.

Outputs (in --out-dir):
    sweep_neumann.csv, sweep_periodic.csv   full curves (CLI format)
    sweep_summary.json                      peak table, values at L_c and
                                            the fitted exponent at L_c

Example:
    python3 scripts/prefactor_sweep.py --out-dir results/
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from kramers_gl.cli import main as cli_main
from kramers_gl.instanton import BoundaryCondition
from kramers_gl.rates import prefactor_corrected


def sweep_csv(path: str, bc: BoundaryCondition, eps_values, n_points: int) -> None:
    L_c = bc.critical_length
    lo, hi = 0.7 * L_c, 1.3 * L_c
    step = (hi - lo) / (n_points - 1)
    argv = [
        "sweep",
        "--bc",
        bc.value,
        "--L-range",
        f"{lo:.17g}:{hi:.17g}:{step:.17g}",
        "--out",
        path,
    ]
    for eps in eps_values:
        argv += ["--eps", f"{eps:.17g}"]
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(code)


def summarize(path: str, bc: BoundaryCondition) -> dict:
    rows = np.genfromtxt(path, delimiter=",", names=True, encoding="utf-8")
    summary = {"bc": bc.value, "critical_length": bc.critical_length, "curves": []}
    for eps in sorted(set(rows["eps"])):
        block = rows[rows["eps"] == eps]
        i = int(np.argmax(block["gamma0_corrected"]))
        at_critical = prefactor_corrected(bc.critical_length, float(eps), bc)
        summary["curves"].append(
            {
                "eps": float(eps),
                "peak_L_over_Lc": float(block["L"][i]) / bc.critical_length,
                "peak_height": float(block["gamma0_corrected"][i]),
                "height_at_Lc": at_critical.gamma0_corrected,
            }
        )
    if len(summary["curves"]) >= 2:
        eps_arr = [curve["eps"] for curve in summary["curves"]]
        h_arr = [curve["height_at_Lc"] for curve in summary["curves"]]
        slope = float(np.polyfit(np.log(eps_arr), np.log(h_arr), 1)[0])
        summary["fitted_exponent_at_Lc"] = slope
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--eps",
        type=float,
        action="append",
        default=None,
        help="noise intensities (repeatable; default 1e-6 1e-5 1e-4)",
    )
    parser.add_argument("--points", type=int, default=121, help="L grid points")
    args = parser.parse_args(argv)
    eps_values = args.eps or [1e-6, 1e-5, 1e-4]

    os.makedirs(args.out_dir, exist_ok=True)
    summaries = []
    for bc in (BoundaryCondition.NEUMANN, BoundaryCondition.PERIODIC):
        path = os.path.join(args.out_dir, f"sweep_{bc.value}.csv")
        sweep_csv(path, bc, eps_values, args.points)
        summary = summarize(path, bc)
        summaries.append(summary)
        print(f"{bc.value}: wrote {path}")
        for curve in summary["curves"]:
            print(
                f"  eps={curve['eps']:.1e}  peak L/L_c={curve['peak_L_over_Lc']:.4f}"
                f"  height={curve['peak_height']:.4e}  at L_c={curve['height_at_Lc']:.4e}"
            )
        if "fitted_exponent_at_Lc" in summary:
            print(f"  fitted exponent at L = L_c: {summary['fitted_exponent_at_Lc']:+.4f}")

    out = os.path.join(args.out_dir, "sweep_summary.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summaries, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
