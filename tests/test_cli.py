"""Tests for the command-line interface.

main(argv) is exercised in-process: usage errors exit 2 and name the
offending key, domain errors exit 1 with a readable message, result
files are byte-deterministic across reruns, every run that writes files
gets one manifest listing them with the full provenance, and the verify
table fails loudly (naming the check) when an anchor constant is
tampered with.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kramers_gl
from kramers_gl.cli import CSV_COLUMNS, main
from kramers_gl.instanton import BoundaryCondition, SystemParams, instanton_profile
from kramers_gl.simulator import SimConfig, estimate_mfpt

NEU = BoundaryCondition.NEUMANN

MFPT_ARGV = [
    "mfpt",
    "--bc",
    "neumann",
    "--L",
    "2.0",
    "--eps",
    "0.25",
    "--modes",
    "8",
    "--dt",
    "2e-3",
    "--tmax",
    "300",
    "--ntraj",
    "6",
    "--seed",
    "7",
]


def run_cli(argv):
    """Invoke the CLI in-process, normalizing SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_stdout_json(capsys):
    assert run_cli(["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "bc",
        "L",
        "eps",
        "regime",
        "m",
        "deltaW",
        "gamma0_classical",
        "correction_factor",
        "gamma0_corrected",
        "eps_exponent",
        "rate",
    ]
    assert doc["bc"] == "neumann"
    assert doc["regime"] == "uniform_saddle"
    assert doc["m"] is None
    assert doc["deltaW"] == 0.5  # L/4 below the critical length
    assert doc["gamma0_corrected"] > 0


def test_rate_matches_library(capsys):
    assert run_cli(["rate", "--bc", "periodic", "--L", "9.0", "--eps", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rb = kramers_gl.prefactor_corrected(9.0, 0.01, BoundaryCondition.PERIODIC)
    assert doc["regime"] == "instanton_saddle"
    assert doc["gamma0_corrected"] == rb.gamma0_corrected
    assert doc["rate"] == rb.rate
    assert doc["eps_exponent"] == -0.5
    assert doc["m"] == kramers_gl.solve_m_from_L(9.0, BoundaryCondition.PERIODIC)


def test_import_and_rate_leave_scipy_unloaded():
    # scipy serves only the quadrature oracles; importing it costs more
    # than a short CLI call itself
    code = (
        "import sys\n"
        "import kramers_gl\n"
        "from kramers_gl.cli import main\n"
        "main(['rate', '--bc', 'neumann', '--L', '4.0', '--eps', '0.01'])\n"
        "main(['rate', '--bc', 'periodic', '--L', '5.0', '--eps', '0.01'])\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_rate_rejects_multiple_eps(capsys):
    code = run_cli(
        ["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1", "--eps", "0.2"]
    )
    assert code == 2
    assert "eps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors name the offending key
# ---------------------------------------------------------------------------


def test_negative_eps_is_usage_error(capsys):
    assert run_cli(["rate", "--bc", "neumann", "--L", "2.0", "--eps", "-1"]) == 2
    assert "eps" in capsys.readouterr().err


def test_missing_L_is_usage_error(capsys):
    assert run_cli(["rate", "--bc", "neumann", "--eps", "0.1"]) == 2
    assert "L" in capsys.readouterr().err


def test_missing_bc_is_usage_error(capsys):
    assert run_cli(["rate", "--L", "2.0", "--eps", "0.1"]) == 2
    assert "bc" in capsys.readouterr().err


def test_unknown_bc_is_rejected_by_the_parser(capsys):
    assert run_cli(["rate", "--bc", "dirichlet", "--L", "2.0", "--eps", "0.1"]) == 2
    assert "bc" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files: flags override file values
# ---------------------------------------------------------------------------


def test_config_file_supplies_parameters(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bc": "neumann", "L": 3.0, "eps": 0.1}))
    assert run_cli(["rate", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["L"] == 3.0


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bc": "neumann", "L": 3.0, "eps": 0.1}))
    assert run_cli(["rate", "--config", str(cfg), "--L", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["L"] == 2.0


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bc": "neumann", "L": 3.0, "eps": 0.1, "banana": 1}))
    assert run_cli(["rate", "--config", str(cfg)]) == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["rate", "--bc", "neumann", "--L", "3.0", "--eps", "0.1"], "modes", 16),
        (["profile", "--bc", "neumann", "--L", "4.0"], "L_range", "3.5:4.5:0.5"),
    ],
)
def test_config_key_of_another_subcommand_is_usage_error(
    tmp_path, capsys, argv, key, value
):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key {key!r} for command {argv[0]!r}" in err


def test_config_accepts_every_option_of_its_subcommand(tmp_path, capsys):
    cfg = tmp_path / "mfpt.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert run_cli(MFPT_ARGV[:-2] + ["--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"L_range": "3.0:3.2:0.1"}))
    argv = ["sweep", "--bc", "neumann", "--eps", "1e-3", "--config", str(cfg)]
    assert run_cli(argv) == 0
    assert len(_sweep_rows(capsys.readouterr().out)) == 3


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["rate", "--bc", "neumann", "--eps", "0.1"], "L", True),
        # MFPT_ARGV without its --ntraj flag
        (MFPT_ARGV[:13] + MFPT_ARGV[15:], "ntraj", True),
        (["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1"], "out", 5),
        (["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1"], "out", ["a"]),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, argv, key, value):
    # config values go through the same checks as flag text; a child process,
    # so that an integer out taken as a file descriptor could not hit pytest's
    (tmp_path / "run.json").write_text(json.dumps({key: value}))
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "kramers_gl.cli", *argv, "--config", "run.json"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"invalid value for {key}: {value!r}" in proc.stderr
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == ["run.json"]


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert run_cli(["rate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    return [line.split(",") for line in lines[1:]]


def test_sweep_csv_header_shape_and_order(capsys):
    code = run_cli(
        [
            "sweep",
            "--bc",
            "neumann",
            "--L-range",
            "3.0:3.3:0.1",
            "--eps",
            "1e-3",
            "--eps",
            "1e-4",
        ]
    )
    assert code == 0
    rows = _sweep_rows(capsys.readouterr().out)
    assert len(rows) == 8
    assert all(len(r) == 11 for r in rows)
    eps_values = [float(r[2]) for r in rows]
    l_values = [float(r[1]) for r in rows]
    # ordered by (eps, L): the smaller eps block comes first, L ascending
    assert eps_values == [1e-4] * 4 + [1e-3] * 4
    assert l_values[:4] == sorted(l_values[:4])
    assert abs(l_values[3] - 3.3) < 1e-12


def test_sweep_classical_column_empty_at_critical_length(capsys):
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L", repr(math.pi), "--eps", "1e-3"]
    ) == 0
    (row,) = _sweep_rows(capsys.readouterr().out)
    assert float(row[1]) == math.pi
    assert row[3] == "uniform_saddle"
    assert row[4] == ""  # m: no instanton at the critical length
    assert row[6] == ""  # gamma0_classical diverges exactly there
    assert float(row[8]) > 0  # corrected prefactor stays finite


def test_sweep_empty_range_is_usage_error(capsys):
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L-range", "4.0:3.0:0.1", "--eps", "1e-3"]
    ) == 2
    assert "empty L range" in capsys.readouterr().err
    # a grid too long to count is refused before anything is allocated
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L-range", "1:1e308:1e-308", "--eps", "1e-3"]
    ) == 2
    assert "invalid value for L_range" in capsys.readouterr().err


def test_sweep_rejects_both_L_and_range(capsys):
    code = run_cli(
        [
            "sweep",
            "--bc",
            "neumann",
            "--L",
            "2.0",
            "--L-range",
            "2.0:3.0:0.5",
            "--eps",
            "1e-3",
        ]
    )
    assert code == 2
    assert "L" in capsys.readouterr().err


def test_sweep_grid_endpoints_inclusive(capsys):
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L-range", "3.0:3.2:0.1", "--eps", "1e-3"]
    ) == 0
    rows = _sweep_rows(capsys.readouterr().out)
    assert [round(float(r[1]), 10) for r in rows] == [3.0, 3.1, 3.2]


def test_sweep_deterministic_bytes_across_reruns(tmp_path, capsys):
    argv = [
        "sweep",
        "--bc",
        "neumann",
        "--L-range",
        "2.9:3.4:0.05",
        "--eps",
        "1e-3",
        "--eps",
        "1e-4",
    ]
    out1 = tmp_path / "a.csv"
    assert run_cli(argv + ["--out", str(out1)]) == 0
    out2 = tmp_path / "b.csv"
    assert run_cli(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_records_run_and_digests(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        [
            "sweep",
            "--bc",
            "neumann",
            "--L-range",
            "3.0:3.2:0.1",
            "--eps",
            "1e-3",
            "--out",
            str(out),
        ]
    ) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert list(manifest) == [
        "version",
        "command",
        "params",
        "seed",
        "started",
        "finished",
        "outputs",
    ]
    assert manifest["version"] == kramers_gl.__version__
    assert manifest["command"] == "sweep"
    assert manifest["seed"] is None
    assert manifest["params"]["bc"] == "neumann"
    (entry,) = manifest["outputs"]
    assert entry["path"] == str(out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == out.stat().st_size


# each writing command: argv without --out, the manifest's seed, and the
# files one run writes
WRITING_RUNS = {
    "rate": (
        ["rate", "--bc", "periodic", "--L", "9.0", "--eps", "0.01"],
        None,
        ["out.json"],
    ),
    "sweep": (
        ["sweep", "--bc", "neumann", "--L-range", "3.0:3.2:0.1", "--eps", "1e-3"],
        None,
        ["out.csv"],
    ),
    "profile": (
        ["profile", "--bc", "neumann", "--L", "4.0", "--modes", "32"],
        None,
        ["out.csv"],
    ),
    "spectrum": (
        ["spectrum", "--bc", "periodic", "--L", "9.0", "--modes", "4"],
        None,
        ["out.csv"],
    ),
    "mfpt": (MFPT_ARGV, 7, ["out.json", "out.trajectories.csv"]),
}


@pytest.mark.parametrize("command", list(WRITING_RUNS))
def test_manifest_records_each_writing_command(
    tmp_path, monkeypatch, capsys, command
):
    argv, seed, written = WRITING_RUNS[command]
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    stdout_text = capsys.readouterr().out
    assert os.listdir(tmp_path) == []  # stdout mode writes no file

    assert run_cli(argv + ["--out", written[0]]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {written[0]}")
    assert (tmp_path / written[0]).read_text() == stdout_text
    manifest_name = written[0] + ".manifest.json"
    assert sorted(os.listdir(tmp_path)) == sorted(written + [manifest_name])
    manifest = json.loads((tmp_path / manifest_name).read_text())
    assert list(manifest) == [
        "version",
        "command",
        "params",
        "seed",
        "started",
        "finished",
        "outputs",
    ]
    assert manifest["version"] == kramers_gl.__version__
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["params"]["bc"] == argv[2]
    assert [entry["path"] for entry in manifest["outputs"]] == written
    for entry in manifest["outputs"]:
        data = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_matches_library_samples(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert run_cli(
        ["profile", "--bc", "neumann", "--L", "4.0", "--modes", "32", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,phi"
    xs, phis = zip(*((float(a), float(b)) for a, b in (l.split(",") for l in lines[1:])))
    expected = instanton_profile(4.0, NEU, n_x=32)
    assert xs[0] == 0.0 and xs[-1] == 4.0
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(np.array(phis), expected.values)


def test_profile_below_critical_length_fails_cleanly(capsys):
    assert run_cli(["profile", "--bc", "neumann", "--L", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "critical length" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_uniform_closed_form(capsys):
    assert run_cli(["spectrum", "--bc", "neumann", "--L", "2.0", "--modes", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,eigenvalue,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert float(row[1]) == pytest.approx(-1.0 + (math.pi * k / 2.0) ** 2, rel=1e-15)
        assert int(row[2]) == 1


def test_spectrum_periodic_multiplicities(capsys):
    assert run_cli(["spectrum", "--bc", "periodic", "--L", "5.0", "--modes", "3"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [int(r[2]) for r in rows] == [1, 2, 2, 2]


def test_spectrum_instanton_has_zero_mode(capsys):
    assert run_cli(["spectrum", "--bc", "periodic", "--L", "9.0", "--modes", "4"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
    eigenvalues = [float(r[1]) for r in rows]
    assert eigenvalues[0] < 0  # single unstable direction
    assert min(abs(ev) for ev in eigenvalues) < 1e-6  # translation zero mode


# ---------------------------------------------------------------------------
# mfpt
# ---------------------------------------------------------------------------

def test_mfpt_summary_matches_library(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert run_cli(MFPT_ARGV + ["--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    config = SimConfig(
        params=SystemParams(L=2.0, eps=0.25, bc=NEU),
        K=8,
        dt=2e-3,
        t_max=300.0,
        n_traj=6,
        seed=7,
    )
    est = estimate_mfpt(config)
    assert doc["mean_passage_time"] == est.mean_passage_time
    assert doc["rate"] == est.rate
    assert doc["n_completed"] == est.n_completed
    assert doc["seed"] == 7
    assert doc["theory"]["deltaW"] == 0.5
    assert doc["ratio_sim_over_theory"] == pytest.approx(
        est.rate / kramers_gl.kramers_rate(config.params).rate
    )

    traj_lines = (tmp_path / "run.trajectories.csv").read_text().strip().split("\n")
    assert traj_lines[0] == "trajectory,passage_time"
    assert len(traj_lines) == 7
    times = [float(l.split(",")[1]) for l in traj_lines[1:]]
    assert times == list(est.per_trajectory)

    manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
    assert manifest["command"] == "mfpt"
    assert manifest["seed"] == 7
    assert len(manifest["outputs"]) == 2


def test_mfpt_reruns_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(MFPT_ARGV + ["--out", str(out1)]) == 0
    assert run_cli(MFPT_ARGV + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.trajectories.csv").read_bytes() == (
        tmp_path / "b.trajectories.csv"
    ).read_bytes()


def test_mfpt_stdout_mode(capsys):
    assert run_cli(MFPT_ARGV) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ntraj"] == 6
    assert doc["n_completed"] + doc["n_censored"] + doc["n_blowup"] == 6


def test_mfpt_single_completion_reports_null_error_estimates(capsys):
    assert run_cli(MFPT_ARGV + ["--ntraj", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_completed"] == 1
    assert doc["rate"] > 0
    assert doc["std_error"] is None
    assert doc["rate_std_error"] is None
    assert doc["rate_ci"] == [None, None]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_quick_passes_under_ten_seconds(capsys):
    t0 = time.monotonic()
    code = run_cli(["verify", "--quick"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 10.0
    assert "psi_plus asymptote" in out
    assert "FAIL" not in out
    # quick mode skips the quadrature oracles
    assert "quadrature oracle" not in out.replace("energy quadrature", "")


def test_verify_full_includes_quadrature_oracles(capsys):
    code = run_cli(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "psi_plus quadrature" in out
    assert "psi_minus quadrature" in out
    assert "psi_tilde quadrature" in out
    assert "FAIL" not in out


def test_verify_fails_when_psi_plus_anchor_is_tampered(monkeypatch, capsys):
    # self-test of the harness: a corrupted anchor constant must be caught
    # and named in the report
    import kramers_gl.rates as rates_module

    monkeypatch.setattr(
        rates_module, "PSI_LIMIT_AT_ZERO", rates_module.PSI_LIMIT_AT_ZERO * 1.01
    )
    code = run_cli(["verify", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    table_line = next(
        line
        for line in captured.out.split("\n")
        if line.startswith("psi_plus asymptote")
    )
    assert "FAIL" in table_line
    assert "psi_plus asymptote" in captured.err


def test_verify_counts_match_mode(capsys):
    assert run_cli(["verify", "--quick"]) == 0
    quick_out = capsys.readouterr().out
    assert run_cli(["verify"]) == 0
    full_out = capsys.readouterr().out
    quick_n = int(quick_out.strip().split("\n")[-1].split()[0])
    full_n = int(full_out.strip().split("\n")[-1].split()[0])
    assert full_n == quick_n + 3
