"""The benchmark's workloads: input generation, one operation, correctness.

Each workload is a closed loop with one client: the benchmark process
issues one operation, waits for it, checks it, and issues the next. The
inputs of operation i are drawn from numpy's SeedSequence([seed, i]), so
the same seed gives the same inputs; the program only sees the generated
arguments.

* rate-sweep: one operation is one in-process ``cli.main(["sweep", ...])``
  call for one boundary condition (they alternate) over L in
  [0.7, 1.3]·L_c and four eps values spread over 1e-6..1e-2; a work unit
  is one breakdown row.
* cli-cold: one operation is one fresh ``python -m kramers_gl.cli``
  process from a fixed seven-call mix; a work unit is one call.
* mc-wide: one operation is one ``estimate_mfpt`` Neumann ensemble of
  256 trajectories at L = 2 with the SimConfig default K and dt; a work
  unit is one trajectory-step.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
CHILD = BENCH / "child.py"

# The tolerance ROADMAP item 2 promises for re-implemented rate paths.
SWEEP_RTOL = 1e-13
# test_monte_carlo_rate_matches_prediction allows this factor either way.
MC_RATE_FACTOR = 2.0
CALL_TIMEOUT_S = 150


@dataclass
class OpResult:
    """One operation: its wall time, work units and failures."""

    kind: str
    wall_s: float
    units: float
    attempted: int
    failed: int
    output: object = None  # compared between traced and untraced runs
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------


def sweep_argv(bc: str, lo: float, hi: float, n_points: int, eps_values, out: str) -> list:
    """Arguments of ``kramers-gl sweep`` for an inclusive L grid, as
    scripts/prefactor_sweep.py builds them."""
    step = (hi - lo) / (n_points - 1)
    argv = ["sweep", "--bc", bc, "--L-range", f"{lo:.17g}:{hi:.17g}:{step:.17g}", "--out", out]
    for eps in eps_values:
        argv += ["--eps", f"{eps:.17g}"]
    return argv


def critical_length(bc: str) -> float:
    return math.pi if bc == "neumann" else 2.0 * math.pi


def reference_sweeps(out_dir: str) -> dict:
    """bc -> argv of the fixed sweeps whose CSVs are stored in bench/reference."""
    return {
        bc: sweep_argv(
            bc,
            0.7 * critical_length(bc),
            1.3 * critical_length(bc),
            25,
            (1e-6, 1e-4, 1e-3, 1e-2),
            os.path.join(out_dir, f"sweep_{bc}.csv"),
        )
        for bc in ("neumann", "periodic")
    }


def compare_csv(actual: str, reference: str, rtol: float) -> tuple[bool, float, str]:
    """Cell-by-cell comparison; numeric cells to rtol, text cells exactly.

    Returns (ok, largest relative deviation, first problem or "")."""
    a_lines, r_lines = actual.splitlines(), reference.splitlines()
    if len(a_lines) != len(r_lines):
        return False, math.inf, f"{len(a_lines)} lines, reference has {len(r_lines)}"
    worst = 0.0
    for n, (a_line, r_line) in enumerate(zip(a_lines, r_lines)):
        a_cells, r_cells = a_line.split(","), r_line.split(",")
        if len(a_cells) != len(r_cells):
            return False, math.inf, f"line {n + 1}: cell count differs"
        for a, r in zip(a_cells, r_cells):
            try:
                av, rv = float(a), float(r)
            except ValueError:
                if a != r:
                    return False, math.inf, f"line {n + 1}: {a!r} != {r!r}"
                continue
            dev = abs(av - rv) / abs(rv) if rv != 0.0 else abs(av)
            worst = max(worst, dev)
    ok = worst <= rtol
    return ok, worst, "" if ok else f"relative deviation {worst:.3e} > {rtol:.0e}"


def run_cli_in_process(argv: list) -> int:
    """``cli.main(argv)`` with its stdout discarded."""
    from kramers_gl import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """spec(i) gives the inputs of operation i, run(spec) performs it."""

    CYCLE = TRACE_OPS = 1  # operations per mix cycle / per traced pass

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def gate(self) -> list:
        """(name, ok, detail) checks made once per run, before the operations."""
        return []


class RateSweep(Workload):
    name = "rate-sweep"
    family = "sweep"
    CYCLE = 2  # the two boundary conditions alternate
    N_POINTS = 61
    TRACE_OPS = 4

    def spec(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        bc = ("neumann", "periodic")[i % 2]
        u = rng.random(6)
        L_c = critical_length(bc)
        lo = L_c * (0.70 + 0.01 * u[0])
        hi = L_c * (1.30 - 0.01 * u[1])
        eps = [10.0 ** min(-2.0, max(-6.0, -6.0 + 4.0 * k / 3.0 + 0.2 * (u[2 + k] - 0.5))) for k in range(4)]
        return {"i": i, "bc": bc, "lo": lo, "hi": hi, "eps": eps}

    def probe_specs(self) -> list:
        """Fixed inputs used when another workload's traced run needs sweep layers."""
        return [{"i": 0, "reference": bc} for bc in ("neumann", "periodic")]

    def argv(self, spec: dict) -> list:
        out = os.path.join(self.tmp, f"sweep_{spec['i']}.csv")
        if "reference" in spec:
            argv = reference_sweeps(self.tmp)[spec["reference"]]
            argv[argv.index("--out") + 1] = out
            return argv
        return sweep_argv(spec["bc"], spec["lo"], spec["hi"], self.N_POINTS, spec["eps"], out)

    def run(self, spec: dict) -> OpResult:
        argv = self.argv(spec)
        out = argv[argv.index("--out") + 1]
        t0 = time.perf_counter()
        code = run_cli_in_process(argv)
        wall = time.perf_counter() - t0
        problems = []
        text = Path(out).read_text(encoding="utf-8") if code == 0 else ""
        lines = text.splitlines()[1:]
        n_eps = argv.count("--eps")
        lo, hi, step = (float(x) for x in argv[argv.index("--L-range") + 1].split(":"))
        expected = n_eps * (int(math.floor((hi - lo) / step + 1e-9)) + 1)
        if code != 0:
            problems.append(f"sweep exited {code}")
        elif len(lines) != expected:
            problems.append(f"{len(lines)} rows, expected {expected}")
        if code == 0 and not os.path.isfile(out + ".manifest.json"):
            problems.append("manifest missing")
        bad = 0
        for line in lines:
            cells = line.split(",")
            g = float(cells[8]) if cells[8] else math.nan
            if not math.isfinite(g):
                bad += 1
        failed = expected if code != 0 else bad + max(0, expected - len(lines))
        if bad:
            problems.append(f"{bad} rows with non-finite gamma0_corrected")
        return OpResult(
            kind=spec.get("reference", spec.get("bc")),
            wall_s=wall,
            units=len(lines),
            attempted=expected,
            failed=failed,
            output=text,
            problems=problems,
        )

    def gate(self) -> list:
        """The fixed reference sweeps agree with bench/reference to 1e-13."""
        checks = []
        for bc, argv in reference_sweeps(self.tmp).items():
            code = run_cli_in_process(argv)
            out = argv[argv.index("--out") + 1]
            if code != 0:
                checks.append((f"reference sweep {bc}", False, f"exit {code}"))
                continue
            actual = Path(out).read_text(encoding="utf-8")
            reference = (REFERENCE_DIR / f"sweep_{bc}.csv").read_text(encoding="utf-8")
            ok, worst, why = compare_csv(actual, reference, SWEEP_RTOL)
            checks.append((f"reference sweep {bc} within {SWEEP_RTOL:.0e}", ok, why or f"max rel dev {worst:.1e}"))
        return checks


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_MIX = (
    "rate-neumann-uniform",
    "rate-neumann-instanton",
    "rate-periodic-uniform",
    "rate-periodic-instanton",
    "profile",
    "spectrum",
    "verify-quick",
)

_VERIFY_SUMMARY = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) failed", re.M)


class CliCold(Workload):
    name = "cli-cold"
    family = "cli"
    CYCLE = TRACE_OPS = len(CLI_MIX)

    def spec(self, i: int) -> dict:
        kind = CLI_MIX[i % len(CLI_MIX)]
        u = _rng(self.seed, i).random(2)
        eps = 10.0 ** (-4.0 + 2.0 * u[1])
        if kind.startswith("rate"):
            _, bc, branch = kind.split("-")
            frac = 0.80 + 0.15 * u[0] if branch == "uniform" else 1.05 + 0.25 * u[0]
            args = ["rate", "--bc", bc, "--L", f"{frac * critical_length(bc):.17g}", "--eps", f"{eps:.17g}"]
        elif kind == "profile":
            args = ["profile", "--bc", "periodic", "--L", f"{(1.05 + 0.25 * u[0]) * 2 * math.pi:.17g}"]
        elif kind == "spectrum":
            args = ["spectrum", "--bc", "neumann", "--L", f"{(1.10 + 0.30 * u[0]) * math.pi:.17g}"]
        else:
            args = ["verify", "--quick"]
        return {"i": i, "kind": kind, "args": args}

    def probe_specs(self) -> list:
        fixed = CliCold(0, self.tmp)
        return [fixed.spec(i) for i in (1, 4, 5, 6)]

    def run(self, spec: dict, span_file: str | None = None) -> OpResult:
        if span_file is None:
            cmd = [sys.executable, "-m", "kramers_gl.cli", *spec["args"]]
        else:
            cmd = [sys.executable, str(CHILD), "cli", span_file, *spec["args"]]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=child_env(), cwd=self.tmp, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
        )
        wall = time.perf_counter() - t0
        problems = self.check(spec, proc.returncode, proc.stdout)
        return OpResult(
            kind=spec["kind"],
            wall_s=wall,
            units=1,
            attempted=1,
            failed=1 if problems else 0,
            output=proc.stdout,
            problems=problems + ([proc.stderr.strip()[-300:]] if problems and proc.stderr else []),
        )

    @staticmethod
    def check(spec: dict, code: int, stdout: str) -> list:
        kind = spec["kind"]
        if code != 0:
            return [f"{kind} exited {code}"]
        if kind.startswith("rate"):
            doc = json.loads(stdout)
            g = doc.get("gamma0_corrected")
            want = "uniform_saddle" if kind.endswith("uniform") else "instanton_saddle"
            problems = []
            if not (isinstance(g, float) and math.isfinite(g) and g > 0):
                problems.append(f"{kind}: gamma0_corrected {g!r}")
            if doc.get("regime") != want:
                problems.append(f"{kind}: regime {doc.get('regime')!r}, expected {want}")
            return problems
        lines = stdout.splitlines()
        if kind == "profile":
            values = [float(line.split(",")[1]) for line in lines[1:]]
            ok = lines[:1] == ["x,phi"] and len(values) == 512 and all(map(math.isfinite, values))
            return [] if ok else ["profile: expected 512 finite samples"]
        if kind == "spectrum":
            values = [float(line.split(",")[1]) for line in lines[1:]]
            ok = lines[:1] == ["index,eigenvalue,multiplicity"] and len(values) == 33
            ok = ok and values[0] < 0 < values[1] and values == sorted(values)
            return [] if ok else ["spectrum: expected 33 ascending eigenvalues, one negative"]
        match = _VERIFY_SUMMARY.search(stdout)
        if not match or match.group(3) != "0" or match.group(1) != match.group(2):
            return ["verify --quick: " + (match.group(0) if match else "no summary line")]
        return []


# ---------------------------------------------------------------------------
# mc-wide
# ---------------------------------------------------------------------------


def trajectory_counts(per_trajectory, dt: float, t_max: float) -> list:
    """Steps integrated by each trajectory: t/dt when it crossed, t_max/dt
    when censored or blown up (None)."""
    full = int(round(t_max / dt))
    return [full if t is None else int(round(t / dt)) for t in per_trajectory]


class McWide(Workload):
    name = "mc-wide"
    family = "sim"
    L = 2.0
    EPS = 0.25
    N_TRAJ = 256

    def spec(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        eps = self.EPS * (1.0 + 0.01 * (rng.random() - 0.5))
        return {"i": i, "bc": "neumann", "L": self.L, "eps": eps, "n_traj": self.N_TRAJ,
                "mc_seed": int(rng.integers(2**63))}

    def probe_specs(self) -> list:
        return [{"i": 0, "bc": "neumann", "L": self.L, "eps": self.EPS, "n_traj": 64, "mc_seed": 1}]

    @staticmethod
    def config(spec: dict):
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams

        params = SystemParams(L=spec["L"], eps=spec["eps"], bc=BoundaryCondition.parse(spec["bc"]))
        return SimConfig(params=params, n_traj=spec["n_traj"], seed=spec["mc_seed"])

    def run(self, spec: dict) -> OpResult:
        import kramers_gl
        from kramers_gl import simulator

        config = self.config(spec)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            est = simulator.estimate_mfpt(config)
        except simulator.EstimateUnavailable as exc:
            wall = time.perf_counter() - t0
            return OpResult("ensemble", wall, 0, config.n_traj, config.n_traj, None, [str(exc)])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        steps = trajectory_counts(est.per_trajectory, config.dt, config.t_max)
        theory = kramers_gl.kramers_rate(config.params).rate
        lo, hi = est.rate_ci
        problems = []
        if not (hi >= theory / MC_RATE_FACTOR and lo <= theory * MC_RATE_FACTOR):
            problems.append(
                f"rate CI [{lo:.4g}, {hi:.4g}] misses [{theory / MC_RATE_FACTOR:.4g}, {theory * MC_RATE_FACTOR:.4g}]"
            )
        if est.n_blowup:
            problems.append(f"{est.n_blowup} trajectories blew up")
        half_width = 0.5 * (hi - lo) / est.rate
        return OpResult(
            kind="ensemble",
            wall_s=wall,
            units=sum(steps),
            attempted=config.n_traj,
            failed=est.n_censored + est.n_blowup,
            output=est.per_trajectory,
            problems=problems,
            extra={
                "steps": steps,
                "censored": est.n_censored,
                "blowups": est.n_blowup,
                "rate_rel_halfwidth": half_width,
                "ratio_to_theory": est.rate / theory,
                "cpu_s_per_rate10": cpu * (half_width / 0.10) ** 2,
            },
        )


WORKLOADS = {w.name: w for w in (RateSweep, CliCold, McWide)}
