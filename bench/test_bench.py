"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, McWide, RateSweep, compare_csv  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile_tail(values) == (90, 90)
    assert run.percentile_tail(list(range(1, 1001)))[1] == 99
    # too few samples for any percentile above the median
    assert run.percentile_tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in layers.LAYER_METRICS.items()
    }
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}


def test_compare_csv_tolerance():
    ref = "a,b\nx,1.0\n"
    assert compare_csv(ref, ref, 1e-13)[0]
    assert compare_csv("a,b\nx,1.000000000001\n", ref, 1e-13)[0] is False
    assert compare_csv("a,b\ny,1.0\n", ref, 1e-13)[0] is False


def test_scipy_import_time_counts_outermost_scipy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     numpy.foo",
        "import time:        40 |         45 |   scipy.integrate",
        "import time:         1 |         76 | kramers_gl.rates",
    ])
    assert layers.scipy_import_s(stderr) == pytest.approx(75e-6)


def test_ensemble_shape_tail_is_below_a_tenth_active():
    # 20 trajectories: fewer than 2 active once the second longest is done
    steps = list(range(1, 19)) + [100, 400]
    assert layers.ensemble_shape(steps) == (400, 300)


def _sweep_counts(seed, tmp):
    wl = RateSweep(seed, str(tmp))
    fp = run.family_pass(wl, [wl.spec(0), wl.spec(1)], str(tmp))
    assert fp["identical"]
    metrics = layers.sweep_metrics(fp["tree"])
    return {k: v for k, v in metrics.items() if "calls_per" in k}, fp


def test_sweep_count_metrics_repeat_and_tracing_keeps_csv_bytes(tmp_path):
    first, fp = _sweep_counts(5, tmp_path)
    second, _ = _sweep_counts(5, tmp_path)
    assert first == second
    rows = fp["tree"].rows()
    assert len(rows) == sum(r.units for r in fp["traced"])
    uniform = [m for regime, m in rows if regime == "uniform_saddle"]
    assert uniform and all(s.name != "instanton.solve_m_from_L" for m in uniform for s in m)


def test_sim_count_metrics_repeat_and_tracing_keeps_outcomes(tmp_path):
    wl = McWide(5, str(tmp_path))
    spec = dict(wl.spec(0), n_traj=24)
    counts = []
    for _ in range(2):
        fp = run.family_pass(wl, [spec], str(tmp_path))
        assert fp["identical"]
        m = layers.sim_metrics(fp["untraced"])
        counts.append({k: m[k] for k in ("simulator.traj_steps", "simulator.engine_steps",
                                          "simulator.tail_step_share")})
        assert 0 < fp["rng_ns"]
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
