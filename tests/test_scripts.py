"""The runnable experiment in scripts/, run with its default grid."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "prefactor_sweep.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("prefactor_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prefactor_sweep_fits_the_paper_exponents_at_critical_length(tmp_path, capsys):
    assert _load_script().main(["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    summaries = {s["bc"]: s for s in json.loads((tmp_path / "sweep_summary.json").read_text())}
    assert summaries["neumann"]["fitted_exponent_at_Lc"] == pytest.approx(-0.25, abs=1e-3)
    assert summaries["periodic"]["fitted_exponent_at_Lc"] == pytest.approx(-0.5, abs=1e-3)
    for bc in ("neumann", "periodic"):
        # the peak table stays: one curve per default eps, peaking at or past L_c
        curves = summaries[bc]["curves"]
        assert [c["eps"] for c in curves] == [1e-6, 1e-5, 1e-4]
        assert all(c["peak_height"] >= c["height_at_Lc"] > 0 for c in curves)
        assert all(1.0 <= round(c["peak_L_over_Lc"], 9) < 1.05 for c in curves)
        assert (tmp_path / f"sweep_{bc}.csv").exists()
