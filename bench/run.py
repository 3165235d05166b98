#!/usr/bin/env python3
"""kramers-gl benchmark.

    python3 bench/run.py --workload {rate-sweep,cli-cold,mc-wide} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.

--trace 0 runs the workload as a closed loop (one client, one operation at
a time) for S seconds and reports the end-to-end metrics; --trace 1
reruns the workload's first operations with and without the span
recorder around every public function (checking that the results are
identical) and reports the per-layer metrics of bench/layers.py. Both
print the correctness gates, the run's metadata and, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when a gate fails or the package is missing.

End-to-end metrics (each workload reports all of them):
  work_per_s    work units per second of operation wall time: breakdown
                rows (rate-sweep), cold calls (cli-cold), trajectory-steps
                (mc-wide)
  unit_p50_s    median over operations of wall time per work unit
  unit_tail_s   the highest percentile of the same with at least 10
                operations beyond it (the median when there are too few)
  setup_s       median of 5 fresh processes that start the interpreter,
                import kramers_gl and make the workload's warm-up call
  peak_rss_mb   peak RSS of the benchmark process (cli-cold: of its children)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import CHILD, ROOT, SRC, WORKLOADS, child_env

SETUP_REPEATS = 5


def percentile_tail(values) -> tuple[float, int]:
    """(value, p): the highest whole percentile p (nearest rank) with at
    least 10 samples above it, and never below the median."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p
    return statistics.median(xs), 50


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def metadata() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "kramers_gl").glob("*.py")))
    threads_env = os.environ.get("KRAMERS_GL_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "sweep_threads": int(threads_env) if threads_env else min(8, os.cpu_count() or 1),
        "git_revision": rev,
        "src_kramers_gl_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def setup_times(workload: str, tmp: str) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(CHILD), "setup", workload, tmp], env=child_env(),
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the machine ran."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - t0


def timed_run(wl, seconds: float) -> dict:
    """Closed loop: operations one after another until `seconds` have
    passed and the workload's mix is complete."""
    gates = wl.gate()
    setup = setup_times(wl.name, wl.tmp)
    calibration = [calibration_s()]
    results = []
    start = time.perf_counter()
    while not results or len(results) % wl.CYCLE or time.perf_counter() - start < seconds:
        results.append(wl.run(wl.spec(len(results))))
    calibration.append(calibration_s())
    per_unit = [r.wall_s / r.units for r in results if r.units]
    tail, tail_p = percentile_tail(per_unit)
    if wl.name == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "work_per_s": (sum(r.units for r in results) / sum(r.wall_s for r in results), "1/s"),
        "unit_p50_s": (statistics.median(per_unit), "s"),
        "unit_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {
        "operations": len(results),
        "unit_tail_percentile": tail_p,
        "setup_samples_s": setup,
        "calibration_s": calibration,
        "named": named_metrics(wl.name, results, metrics),
    }
    return {"gates": gates, "results": results, "metrics": metrics, "info": info}


def named_metrics(workload: str, results, metrics) -> dict:
    """The workload's metrics under their per-workload names (sweep_rows_per_s, ...)."""
    attempted = sum(r.attempted for r in results)
    named = {"failed_share": (sum(r.failed for r in results) / attempted, "ratio"),
             "setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "rate-sweep":
        named["sweep_rows_per_s"] = (metrics["work_per_s"][0], "rows/s")
    elif workload == "cli-cold":
        rate_calls = [r.wall_s for r in results if r.kind.startswith("rate")]
        if rate_calls:
            named["rate_cold_s"] = (statistics.median(rate_calls), "s")
        named["cli_cold_p50_s"] = metrics["unit_p50_s"]
        named["cli_cold_tail_s"] = metrics["unit_tail_s"]
    else:
        named["mc_traj_steps_per_s"] = (metrics["work_per_s"][0], "traj-steps/s")
        named["mc_cpu_s_per_rate10"] = (
            statistics.median(r.extra["cpu_s_per_rate10"] for r in results if "cpu_s_per_rate10" in r.extra),
            "CPU-s",
        )
    return named


def family_pass(wl, specs, tmp: str) -> dict:
    """Run specs untraced, then traced; compare outputs; return both."""
    from layers import timed_trajectory_rng
    from tracing import Span, SpanTree, Tracer, installed

    untraced = [wl.run(s) for s in specs]
    tracer = Tracer()
    rng_ns = [0]
    with installed(tracer, {"simulator.trajectory_rng": timed_trajectory_rng(rng_ns)}):
        if wl.family == "cli":
            traced = []
            for n, s in enumerate(specs):
                span_file = os.path.join(tmp, f"spans_{n}.json")
                traced.append(wl.run(s, span_file=span_file))
                offset = (n + 1) * 10**9
                with open(span_file, encoding="utf-8") as fh:
                    for item in json.load(fh):
                        span = Span.from_list(item)
                        span.id += offset
                        span.parent = None if span.parent is None else span.parent + offset
                        tracer.spans.append(span)
        else:
            traced = [wl.run(s) for s in specs]
    same = all(u.output == t.output for u, t in zip(untraced, traced))
    return {
        "untraced": untraced,
        "traced": traced,
        "tree": SpanTree(tracer.spans),
        "rng_ns": rng_ns[0],
        "identical": same,
        "overhead_s": sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced),
        "untraced_s": sum(r.wall_s for r in untraced),
    }


def traced_run(wl, tmp: str) -> dict:
    import layers

    gates = wl.gate()
    metrics, results = {}, []
    for family_cls in WORKLOADS.values():
        own = family_cls.family == wl.family
        member = wl if own else family_cls(wl.seed, tmp)
        specs = [wl.spec(i) for i in range(wl.TRACE_OPS)] if own else member.probe_specs()
        fp = family_pass(member, specs, tmp)
        gates.append((f"{member.family} results identical with tracing", fp["identical"], ""))
        results += fp["untraced"] + fp["traced"]
        if member.family == "sweep":
            metrics.update(layers.sweep_metrics(fp["tree"]))
        elif member.family == "cli":
            metrics.update(layers.cli_metrics(fp["untraced"], fp["tree"]))
        else:
            metrics.update(layers.sim_metrics(fp["untraced"]))
            mfpt_ns = sum(s.duration for s in fp["tree"].named("simulator.estimate_mfpt"))
            metrics["simulator.rng_share"] = fp["rng_ns"] / mfpt_ns
        if own:
            metrics["trace.overhead_s"] = fp["overhead_s"]
            metrics["trace.overhead_share"] = fp["overhead_s"] / fp["untraced_s"]
            spans = span_summary(fp["tree"])
    narrow, narrow_result = layers.narrow_probe(tmp)
    metrics.update(narrow)
    results.append(narrow_result)
    metrics.update(layers.microbenchmarks())
    metrics.update(layers.import_metrics())
    units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    missing = sorted(set(units) - set(metrics))
    gates.append(("every per-layer metric measured", not missing, ", ".join(missing)))
    return {
        "gates": gates,
        "results": results,
        "metrics": {k: (metrics[k], units[k]) for k in units if k in metrics},
        "info": {"moves": {k: spec[2] for k, spec in layers.LAYER_METRICS.items()}, "spans": spans},
    }


def span_summary(tree) -> dict:
    """function -> [calls, total ms, self ms] over the workload's traced operations."""
    out = {}
    for s in tree.spans:
        entry = out.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.duration / 1e6
        entry[2] += tree.self_ns(s) / 1e6
    return {k: [n, round(total, 3), round(own, 3)] for k, (n, total, own) in sorted(out.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kramers-gl benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kramers_gl" / "__init__.py").is_file():
        print(f"kramers_gl not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        out = traced_run(wl, tmp) if args.trace else timed_run(wl, args.seconds)

    problems = [p for r in out["results"] for p in r.problems]
    gates = out["gates"] + [("every operation passed its checks", not problems, "; ".join(problems[:5]))]
    correct = all(ok for _, ok, _ in gates)
    attempted = sum(r.attempted for r in out["results"])
    failed = sum(r.failed for r in out["results"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, ok, detail in gates:
        print(f"  gate {'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for name, (value, unit) in out["info"].get("named", {}).items():
        print(f"  alias {name:<46} {value:>16.6g} {unit}")
    print(json.dumps({"metadata": metadata(), **out["info"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
