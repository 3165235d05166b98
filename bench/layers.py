"""Per-layer metrics of the traced run, and which end-to-end metric each moves.

The traced run measures three families of layer metrics:

* sweep: calls and self time per breakdown row, from traced
  ``cli.main(["sweep", ...])`` calls;
* cli: cold-process wall time per subcommand, and spans from traced
  cold ``cli.main`` calls;
* sim: trajectory/engine step counts and costs of ``estimate_mfpt``
  ensembles, from the returned ``per_trajectory``.

The workload under test supplies the inputs of its own family; the other
families run fixed probe inputs, so every traced run reports every metric.
Microbenchmarks of single public functions (the rows of the ROADMAP
baseline table) and import timings are the same in every traced run.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time

from tracing import SpanTree
from workloads import CHILD, McWide, child_env, critical_length

# name -> (unit, better, the end-to-end metric@workload it should move)
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s@all, unit_p50_s@cli-cold"),
    "cli.import_scipy_s": ("s", "lower", "setup_s@all, unit_p50_s@cli-cold"),
    "cli.rate.cold_p50_s": ("s", "lower", "unit_p50_s@cli-cold"),
    "cli.profile.cold_p50_s": ("s", "lower", "unit_p50_s@cli-cold"),
    "cli.spectrum.cold_p50_s": ("s", "lower", "unit_p50_s@cli-cold"),
    "cli.verify_quick.cold_p50_s": ("s", "lower", "unit_p50_s@cli-cold, unit_tail_s@cli-cold"),
    "cli.sweep.self_us_per_row": ("us", "lower", "work_per_s@rate-sweep"),
    "rates.prefactor_corrected.neumann_uniform.p50_us": ("us", "lower", "work_per_s@rate-sweep"),
    "rates.prefactor_corrected.neumann_instanton.p50_us": ("us", "lower", "work_per_s@rate-sweep"),
    "rates.prefactor_corrected.periodic_uniform.p50_us": ("us", "lower", "work_per_s@rate-sweep"),
    "rates.prefactor_corrected.periodic_instanton.p50_us": ("us", "lower", "work_per_s@rate-sweep"),
    "rates.prefactor_classical.calls_per_row": ("count", "lower", "work_per_s@rate-sweep"),
    "rates.self_us_per_row": ("us", "lower", "work_per_s@rate-sweep"),
    "instanton.solve_m_from_L.calls_per_instanton_row": ("count", "lower", "work_per_s@rate-sweep"),
    "instanton.solve_m_from_L.p50_us": ("us", "lower", "work_per_s@rate-sweep"),
    "instanton.self_us_per_row": ("us", "lower", "work_per_s@rate-sweep"),
    "instanton.instanton_profile.p50_ms": ("ms", "lower", "unit_p50_s@cli-cold"),
    "specfun.calls_per_row": ("count", "lower", "work_per_s@rate-sweep"),
    "specfun.self_us_per_row": ("us", "lower", "work_per_s@rate-sweep"),
    "specfun.jacobi_sn.calls_per_profile": ("count", "lower", "unit_p50_s@cli-cold"),
    "spectrum.hessian_spectrum.p50_ms": ("ms", "lower", "unit_p50_s@cli-cold"),
    "spectrum.mu0.calls_per_row": ("count", "lower", "work_per_s@rate-sweep"),
    "simulator.traj_steps": ("count", "lower", "work_per_s@mc-wide"),
    "simulator.engine_steps": ("count", "lower", "work_per_s@mc-wide"),
    "simulator.mean_active_width": ("traj", "higher", "work_per_s@mc-wide"),
    "simulator.tail_step_share": ("ratio", "lower", "work_per_s@mc-wide"),
    "simulator.ns_per_traj_step": ("ns", "lower", "work_per_s@mc-wide, unit_p50_s@mc-wide"),
    "simulator.us_per_engine_step": ("us", "lower", "work_per_s@mc-wide"),
    "simulator.rng_share": ("ratio", "lower", "work_per_s@mc-wide"),
    "simulator.rate_rel_halfwidth": ("ratio", "lower", "mc_cpu_s_per_rate10@mc-wide"),
    "simulator.cpu_s_per_rate10": ("s", "lower", "mc_cpu_s_per_rate10@mc-wide"),
    "simulator.censored": ("count", "lower", "failed@mc-wide"),
    "simulator.blowups": ("count", "lower", "failed@mc-wide"),
    "simulator.narrow.us_per_engine_step": ("us", "lower", "small-ensemble probe (periodic, 16 trajectories)"),
    "simulator.narrow.ns_per_traj_step": ("ns", "lower", "small-ensemble probe (periodic, 16 trajectories)"),
    "simulator.narrow.mean_active_width": ("traj", "higher", "small-ensemble probe (periodic, 16 trajectories)"),
    "simulator.narrow.tail_step_share": ("ratio", "lower", "small-ensemble probe (periodic, 16 trajectories)"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced time of the workload's own operations"),
    "trace.overhead_share": ("ratio", "lower", "none: trace.overhead_s over the untraced time"),
}

# the small periodic ensemble of the narrow probe: about 4 barrier heights
# (deltaW/eps = 4), where the rate gate holds, 16 trajectories wide
NARROW_PROBE = {"i": 0, "bc": "periodic", "L": 4.0, "eps": 0.25, "n_traj": 16, "mc_seed": 7}


# ---------------------------------------------------------------------------
# sweep family
# ---------------------------------------------------------------------------


def sweep_metrics(tree: SpanTree) -> dict:
    rows = tree.rows()
    n_rows = len(rows)
    inst = [members for regime, members in rows if regime == "instanton_saddle"]

    def count(members, pred):
        return sum(1 for s in members if pred(s))

    everything = [s for _, members in rows for s in members]
    out = {
        "rates.prefactor_classical.calls_per_row":
            count(everything, lambda s: s.name == "rates.prefactor_classical") / n_rows,
        "instanton.solve_m_from_L.calls_per_instanton_row":
            sum(count(m, lambda s: s.name == "instanton.solve_m_from_L") for m in inst) / max(1, len(inst)),
        "specfun.calls_per_row": count(everything, lambda s: s.layer == "specfun") / n_rows,
        "spectrum.mu0.calls_per_row": count(everything, lambda s: s.name == "spectrum.mu0") / n_rows,
    }
    for layer in ("rates", "instanton", "specfun"):
        self_ns = sum(tree.self_ns(s) for s in everything if s.layer == layer)
        out[f"{layer}.self_us_per_row"] = self_ns / 1e3 / n_rows
    mains = tree.named("cli.main")
    out["cli.sweep.self_us_per_row"] = sum(tree.self_ns(s) for s in mains) / 1e3 / n_rows
    return out


# ---------------------------------------------------------------------------
# cli family
# ---------------------------------------------------------------------------


def cli_metrics(results, tree: SpanTree) -> dict:
    groups = {"rate": [], "profile": [], "spectrum": [], "verify_quick": []}
    for r in results:
        key = "rate" if r.kind.startswith("rate") else r.kind.replace("-", "_")
        groups[key].append(r.wall_s)
    out = {f"cli.{k}.cold_p50_s": statistics.median(v) for k, v in groups.items() if v}
    profiles = tree.named("instanton.instanton_profile")
    sn = sum(1 for p in profiles for s in tree.descendants(p) if s.name == "specfun.jacobi_sn")
    if profiles:
        out["specfun.jacobi_sn.calls_per_profile"] = sn / len(profiles)
    return out


# ---------------------------------------------------------------------------
# sim family
# ---------------------------------------------------------------------------


def ensemble_shape(steps: list) -> tuple[int, int]:
    """(engine steps, engine steps run with fewer than a tenth of the
    ensemble still active) for one ensemble's per-trajectory step counts."""
    d = sorted(steps, reverse=True)
    engine = d[0]
    j = math.ceil(len(d) / 10) - 1  # largest active count below n/10
    return engine, engine - d[j]


def sim_metrics(results, prefix: str = "simulator.") -> dict:
    done = [r for r in results if "steps" in r.extra]
    traj = sum(r.units for r in done)
    engine = tail = 0
    for r in done:
        e, t = ensemble_shape(r.extra["steps"])
        engine += e
        tail += t
    wall = sum(r.wall_s for r in done)
    out = {
        prefix + "traj_steps": traj,
        prefix + "engine_steps": engine,
        prefix + "mean_active_width": traj / engine,
        prefix + "tail_step_share": tail / engine,
        prefix + "ns_per_traj_step": wall / traj * 1e9,
        prefix + "us_per_engine_step": wall / engine * 1e6,
    }
    if prefix == "simulator.":
        out.update({
            "simulator.rate_rel_halfwidth": statistics.median(r.extra["rate_rel_halfwidth"] for r in done),
            "simulator.cpu_s_per_rate10": statistics.median(r.extra["cpu_s_per_rate10"] for r in done),
            "simulator.censored": sum(r.extra["censored"] for r in done),
            "simulator.blowups": sum(r.extra["blowups"] for r in done),
        })
    return out


class TimedRng:
    """Generator proxy that adds the time spent in standard_normal to acc[0]."""

    def __init__(self, rng, acc):
        self._rng = rng
        self._acc = acc

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return self._rng.standard_normal(*args, **kwargs)
        finally:
            self._acc[0] += time.perf_counter_ns() - t0

    def __getattr__(self, name):
        return getattr(self._rng, name)


def timed_trajectory_rng(acc):
    from kramers_gl import simulator

    original = simulator.trajectory_rng

    def trajectory_rng(seed, index):
        return TimedRng(original(seed, index), acc)

    return trajectory_rng


def narrow_probe(tmp: str) -> tuple[dict, object]:
    result = McWide(0, tmp).run(dict(NARROW_PROBE))
    return sim_metrics([result], prefix="simulator.narrow."), result


# ---------------------------------------------------------------------------
# microbenchmarks and import timing (the ROADMAP baseline rows)
# ---------------------------------------------------------------------------


def _p50(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def microbenchmarks() -> dict:
    from kramers_gl import BoundaryCondition, hessian_spectrum, instanton_profile
    from kramers_gl import prefactor_corrected, solve_m_from_L

    out = {}
    for bc in ("neumann", "periodic"):
        b = BoundaryCondition.parse(bc)
        for branch, frac in (("uniform", 0.9), ("instanton", 1.1)):
            L = frac * critical_length(bc)
            out[f"rates.prefactor_corrected.{bc}_{branch}.p50_us"] = (
                _p50(lambda: prefactor_corrected(L, 1e-3, b), 101) * 1e6
            )
    n_L, p_L = 1.1 * math.pi, 1.1 * 2 * math.pi
    out["instanton.solve_m_from_L.p50_us"] = statistics.median(
        [_p50(lambda: solve_m_from_L(n_L, BoundaryCondition.NEUMANN), 51),
         _p50(lambda: solve_m_from_L(p_L, BoundaryCondition.PERIODIC), 51)]
    ) * 1e6
    neumann = BoundaryCondition.NEUMANN
    out["instanton.instanton_profile.p50_ms"] = (
        _p50(lambda: instanton_profile(4.0, neumann, n_x=4096), 7) * 1e3
    )
    prof = instanton_profile(4.0, neumann, n_x=1024)
    out["spectrum.hessian_spectrum.p50_ms"] = (
        _p50(lambda: hessian_spectrum(prof, 4.0, neumann, n_modes=512), 7) * 1e3
    )
    return out


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative time of the outermost scipy imports in `-X importtime` output."""
    entries = []
    for line in importtime_stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total, stack = 0, []
    # post-order output: walking it backwards visits parents before children
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


def import_metrics(repeats: int = 3) -> dict:
    env = child_env()
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(CHILD), "import"], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kramers_gl"], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return {"cli.import_s": statistics.median(times), "cli.import_scipy_s": scipy_import_s(proc.stderr)}
