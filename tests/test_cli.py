"""Tests for the command-line interface.

main(argv) is exercised in-process: usage errors exit 2 and name the
offending key, domain errors exit 1 with a readable message, every
result file equals its golden file in tests/golden byte for byte, every
run that writes files gets one manifest listing them with the full
provenance, and the verify
table fails loudly (naming the check) when an anchor constant or a
scaling function is tampered with, and its rows are pinned.
"""

import difflib
import hashlib
import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import kramers_gl
from kramers_gl.checks import CHECKS, worst
from kramers_gl import cli
from kramers_gl.cli import (
    _MAX_ENSEMBLE_DRAWS,
    _MAX_L_POINTS,
    _MAX_PROFILE_SAMPLES,
    _MAX_SIM_MODES,
    _MAX_SPECTRUM_MODES,
    _MAX_TRAJECTORIES,
    _l_range,
    _render,
    main,
)
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


def _strict_json(text):
    """Parse ``text``, failing on a NaN or Infinity token, which JSON lacks."""

    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_package_exports_resolve_to_their_defining_modules():
    # every name is looked up on its defining module at each access, and
    # the package keeps no copy
    for name in kramers_gl.__all__:
        obj = getattr(kramers_gl, name)
        assert obj.__module__.startswith("kramers_gl.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from kramers_gl import *", namespace)
    for name in kramers_gl.__all__:
        assert namespace[name] is getattr(kramers_gl, name)
    assert set(kramers_gl.__all__) <= set(dir(kramers_gl))
    assert not set(kramers_gl.__all__) & set(vars(kramers_gl))
    with pytest.raises(AttributeError, match="no_such_name"):
        kramers_gl.no_such_name


def test_package_follows_a_function_patched_on_its_module(monkeypatch):
    # the benchmark's span recorder swaps functions on their defining
    # modules; the package must give the patched one, and only while patched
    import kramers_gl.rates as rates

    original = rates.kramers_rate

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(rates, "kramers_rate", patched)
        assert kramers_gl.kramers_rate is patched
    assert kramers_gl.kramers_rate is original
    assert "kramers_rate" not in vars(kramers_gl)


def test_rate_rejects_multiple_eps(capsys):
    code = run_cli(
        ["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1", "--eps", "0.2"]
    )
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_sweep_refuses_a_repeated_eps(tmp_path, capsys):
    # wrote every curve twice under the same (bc, L, eps) key
    argv = ["sweep", "--bc", "neumann", "--L", "4", "--eps", "1e-3", "--eps", "0.001"]
    assert run_cli(argv) == 2
    assert "(0.001 is repeated)" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bc": "neumann", "L": 4, "eps": [0.01, 1e-3, 1e-2]}))
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    assert "(0.01 is repeated)" in capsys.readouterr().err


def test_rate_refuses_a_length_beyond_double_range(capsys):
    # ended in a ZeroDivisionError traceback
    argv = ["rate", "--bc", "neumann", "--L", "1e-200", "--eps", "0.1"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "L = 1e-200 is too short" in err[0]


def test_rate_refuses_an_eps_whose_a_underflows(capsys):
    # ended in a ZeroDivisionError traceback
    argv = ["rate", "--bc", "neumann", "--L", "4", "--eps", "5e-324"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "eps = 5e-324 is too small" in err[0]


# ---------------------------------------------------------------------------
# usage errors name the offending key
# ---------------------------------------------------------------------------


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
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["rate", "--bc", "neumann", "--eps", "0.1"], "L", True),
        # an integer beyond double range: float() overflows
        (["rate", "--bc", "neumann", "--eps", "0.1"], "L", 10**400),
        # MFPT_ARGV without its --ntraj flag
        (MFPT_ARGV[:13] + MFPT_ARGV[15:], "ntraj", True),
        (["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1"], "out", 5),
        (["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1"], "out", ["a"]),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, argv, key, value):
    # config values go through the same checks as flag text; a child process,
    # so that an integer out taken as a file descriptor could not hit pytest's
    # own descriptor 5
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("{bad", "is not valid JSON"),
        ("[1, 2]", "must contain a JSON object"),
        ('{"bc": "neumann", "L": 2, "eps": []}', "invalid value for eps: [] (no value given)"),
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert run_cli(["rate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_unwritable_out_is_a_domain_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["rate", "--bc", "neumann", "--L", "2.0", "--eps", "0.1", "--out", str(out)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# one table for every number option: the real and count options of
# cli.OPTIONS, as flag text and as config values
# ---------------------------------------------------------------------------


def _number_options():
    """(command, key, kind, lower bound, cap) of every real and count option,
    and the (command, key) of every other option."""
    numbers, others = [], []
    for command, options in cli.OPTIONS.items():
        for key, (convert, _, _) in options.items():
            if convert in (cli._positive, cli._eps_list, cli._one_eps):
                numbers.append((command, key, "real", 0.0, math.inf))
            elif getattr(convert, "func", None) is cli._whole:
                numbers.append((command, key, "count", *convert.args))
            else:
                others.append((command, key))
    return numbers, others


NUMBER_OPTIONS, OTHER_OPTIONS = _number_options()

# valid flags for each command: every refusal below comes from the one option
_BASE_FLAGS = {
    "rate": {"bc": "neumann", "L": "2.0", "eps": "0.1"},
    "sweep": {"bc": "neumann", "L": "2.0", "eps": "0.1"},
    "profile": {"bc": "neumann", "L": "4.0"},
    "spectrum": {"bc": "neumann", "L": "2.0"},
    "mfpt": {
        "bc": "neumann", "L": "2.0", "eps": "2.0", "modes": "8",
        "tmax": "50", "ntraj": "2", "seed": "1",
    },
}


def _argv_without(command, key):
    argv = [command]
    for name, text in _BASE_FLAGS[command].items():
        if name != key:
            argv += ["--" + name.replace("_", "-"), text]
    return argv


def _refused_values(kind, lo, cap):
    """NaN, inf, below the lower bound and above the cap; JSON true too."""
    if kind == "real":
        below, above = [lo, lo - 1.0], []  # the lower end is open, no cap below inf
    else:
        below, above = [lo - 1], [cap + 1]
    return [math.nan, math.inf, *below, *above]


def test_every_option_is_a_number_or_text():
    # a number option with a converter of its own would escape the table
    assert {key for _, key in OTHER_OPTIONS} == {"bc", "L_range", "out"}
    assert len(NUMBER_OPTIONS) == 15


@pytest.mark.parametrize(
    "command, key, source, value",
    [
        (command, key, source, value)
        for command, key, kind, lo, cap in NUMBER_OPTIONS
        for source in ("flag", "config")
        for value in _refused_values(kind, lo, cap) + ([True] if source == "config" else [])
    ],
)
def test_number_option_is_refused_out_of_range(tmp_path, capsys, command, key, source, value):
    argv = _argv_without(command, key) + ["--out", str(tmp_path / "result")]
    if source == "flag":
        argv += ["--" + key, repr(value)]
    else:
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        argv += ["--config", str(tmp_path / "run.json")]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert f"invalid value for {key}: " in captured.err
    if isinstance(value, bool) or math.isfinite(value):
        assert f"({key} must be " in captured.err  # the library's reason
    assert captured.out == ""
    assert os.listdir(tmp_path) == (["run.json"] if source == "config" else [])


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, k, kind, *_ in NUMBER_OPTIONS if kind == "count"]
)
def test_json_whole_float_is_taken_as_a_count(tmp_path, capsys, command, key):
    (tmp_path / "run.json").write_text(json.dumps({key: 32.0}))
    argv = _argv_without(command, key) + ["--config", str(tmp_path / "run.json")]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    if command == "mfpt":
        assert json.loads(out)[key] == 32
    else:  # 32 samples, or eigenvalues 0..32
        assert len(out.splitlines()) == 1 + 32 + (command == "spectrum")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_empty_range_is_usage_error(capsys):
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L-range", "4.0:3.0:0.1", "--eps", "1e-3"]
    ) == 2
    assert "(stop must be a number in [4, inf), got 3.0)" in capsys.readouterr().err
    # a grid too long to count is refused before anything is allocated
    assert run_cli(
        ["sweep", "--bc", "neumann", "--L-range", "1:1e308:1e-308", "--eps", "1e-3"]
    ) == 2
    assert "invalid value for L_range" in capsys.readouterr().err
    # so is a range without its step
    assert run_cli(["sweep", "--bc", "neumann", "--L-range", "1:2", "--eps", "0.1"]) == 2
    assert "(expected start:stop:step)" in capsys.readouterr().err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv,message",
    [
        # 10^12 L points
        (
            ["sweep", "--bc", "neumann", "--L-range", "1:1e9:1e-3", "--eps", "1e-3"],
            f"invalid value for L_range: '1:1e9:1e-3' (more than {_MAX_L_POINTS} points)",
        ),
        # 10^9 profile samples: 7.45 GiB for one array of them
        (
            ["profile", "--bc", "neumann", "--L", "4", "--modes", "1000000000"],
            "invalid value for modes: '1000000000' "
            f"(modes must be an integer in [16, {_MAX_PROFILE_SAMPLES}], got 1000000000)",
        ),
        # 10^8 trajectories: about 65 GB for their generators alone
        (
            ["mfpt", "--bc", "neumann", "--L", "2", "--eps", "0.25",
             "--ntraj", "100000000", "--tmax", "0.01"],
            "invalid value for ntraj: '100000000' "
            f"(ntraj must be an integer in [1, {_MAX_TRAJECTORIES}], got 100000000)",
        ),
        # K = 10^5 modes: a 298 GiB synthesis matrix
        (
            ["mfpt", "--bc", "neumann", "--L", "2", "--eps", "0.25",
             "--modes", "100000", "--ntraj", "2", "--tmax", "0.01"],
            "invalid value for modes: '100000' "
            f"(modes must be an integer in [8, {_MAX_SIM_MODES}], got 100000)",
        ),
        # 10^5 periodic trajectories at K = 64: a 1.54 GiB noise buffer
        (
            ["mfpt", "--bc", "periodic", "--L", "2", "--eps", "0.25",
             "--modes", "64", "--ntraj", "100000", "--tmax", "0.02"],
            "ntraj and modes ask for 100000 trajectories of 129 draws a step, "
            f"more than {_MAX_ENSEMBLE_DRAWS} in all",
        ),
        # 10^8 eigenvalues of the uniform saddle: 763 MiB for one array
        (
            ["spectrum", "--bc", "neumann", "--L", "2", "--modes", "100000000"],
            "invalid value for modes: '100000000' "
            f"(modes must be an integer in [1, {_MAX_SPECTRUM_MODES}], got 100000000)",
        ),
        # beyond L_c, 2 * 10^5 modes exceed hessian_spectrum's limit
        (
            ["spectrum", "--bc", "neumann", "--L", "4", "--modes", "100000"],
            "invalid value for modes: '100000' "
            f"(modes must be an integer in [1, {_MAX_SPECTRUM_MODES}], got 100000)",
        ),
    ],
    ids=[
        "sweep",
        "profile",
        "mfpt",
        "mfpt-modes",
        "mfpt-ntraj-x-modes",
        "spectrum-uniform",
        "spectrum-instanton",
    ],
)
def test_sweep_oversized_grid_is_refused_before_allocating(tmp_path, argv, message):
    # a size used before it is checked ends, under the child's 1 GB
    # address-space limit, in a MemoryError (exit 1) instead of exit 2
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "kramers_gl.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_l_range_point_limit_is_inclusive():
    assert len(_l_range("L_range", f"1:{_MAX_L_POINTS}:1")) == _MAX_L_POINTS
    with pytest.raises(ValueError, match="more than"):
        _l_range("L_range", f"1:{_MAX_L_POINTS + 1}:1")


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
    # and neither
    assert run_cli(["sweep", "--bc", "neumann", "--eps", "0.1"]) == 2
    assert "missing required parameter: L (or L_range)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rendering: every result and manifest goes through cli._render
# ---------------------------------------------------------------------------


def test_render_writes_every_nonfinite_json_number_as_null():
    bad = (math.nan, math.inf, -math.inf)
    result = {
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "list": [1, *bad, "x"],
        "tuple": (2.5, *bad),
        "nested": {"deeper": {"values": list(bad)}, "f": -math.inf, "g": None, "h": True},
        "finite": [0.1, -0.0, 1e308, 5e-324, 7, "text"],
    }
    expected = {
        "nan": None,
        "inf": None,
        "-inf": None,
        "list": [1, None, None, None, "x"],
        "tuple": [2.5, None, None, None],
        "nested": {"deeper": {"values": [None, None, None]}, "f": None, "g": None, "h": True},
        "finite": [0.1, -0.0, 1e308, 5e-324, 7, "text"],
    }
    text = _render(result)
    assert text == json.dumps(expected, indent=2) + "\n"
    assert _strict_json(text) == expected


def test_render_writes_rows_header_first_with_empty_nonfinite_cells():
    rows = [
        ("name", "x", "n"),
        ("a", 0.1, 3),
        ("b", None, 12),
        ("c", math.nan, 0),
        ("d", math.inf, -1),
        ("e", -math.inf, 1 / 3),
    ]
    assert _render(rows) == (
        "name,x,n\n"
        "a,0.10000000000000001,3\n"
        "b,,12\n"
        "c,,0\n"
        "d,,-1\n"
        "e,,0.33333333333333331\n"
    )


# ---------------------------------------------------------------------------
# golden files: the bytes of every result file, and each run's manifest
# ---------------------------------------------------------------------------

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
# name -> (argv without --out, the manifest's seed); each row's result files
# are tests/golden/<name>.json or .csv, and .trajectories.csv for mfpt.
# `PYTHONPATH=src python tests/test_cli.py` rewrites them all.
GOLDEN = {
    # the four branches; L_c, where gamma0_classical is null; L_c(1 - 1e-9)
    # and L_c(1 + 1.1e-6); and a rate that underflows beside a finite log_rate
    "rate-neumann-uniform": ("rate --bc neumann --L 2.0 --eps 0.1".split(), None),
    "rate-neumann-instanton": ("rate --bc neumann --L 4 --eps 0.01".split(), None),
    "rate-periodic-uniform": ("rate --bc periodic --L 4 --eps 1e-3".split(), None),
    "rate-periodic-instanton": ("rate --bc periodic --L 9.0 --eps 0.01".split(), None),
    "rate-neumann-critical": ("rate --bc neumann --L 3.141592653589793 --eps 1e-3".split(), None),
    "rate-neumann-below": ("rate --bc neumann --L 3.1415926504482004 --eps 1e-4".split(), None),
    "rate-neumann-above": ("rate --bc neumann --L 3.141596109341712 --eps 1e-4".split(), None),
    "rate-periodic-below": ("rate --bc periodic --L 6.283185300896401 --eps 1e-4".split(), None),
    "rate-periodic-above": ("rate --bc periodic --L 6.283192218683424 --eps 1e-4".split(), None),
    "rate-neumann-underflow": ("rate --bc neumann --L 30 --eps 1e-3".split(), None),
    # two-eps sweeps across L_c, 26 rows across L_c(1 -+ 1e-6), a sweep at
    # L_c and one whose rate underflows, with no log_rate column
    "sweep-neumann": (
        "sweep --bc neumann --L-range 3.0:3.3:0.1 --eps 1e-3 --eps 1e-4".split(), None
    ),
    "sweep-neumann-fine": (
        "sweep --bc neumann --L-range 2.9:3.4:0.05 --eps 1e-3 --eps 1e-4".split(), None
    ),
    "sweep-periodic": ("sweep --bc periodic --L-range 6:7:0.5 --eps 1e-3 --eps 1e-4".split(), None),
    "sweep-neumann-short": ("sweep --bc neumann --L-range 3.0:3.2:0.1 --eps 1e-3".split(), None),
    "sweep-neumann-near-critical": (
        "sweep --bc neumann --L-range 3.1415895:3.1415958:2.5e-7 --eps 1e-3".split(), None
    ),
    "sweep-neumann-critical": ("sweep --bc neumann --L 3.141592653589793 --eps 1e-3".split(), None),
    "sweep-neumann-underflow": ("sweep --bc neumann --L 30 --eps 1e-3".split(), None),
    "profile-neumann": ("profile --bc neumann --L 3.5 --modes 16".split(), None),
    "profile-periodic": ("profile --bc periodic --L 7.3 --modes 16".split(), None),
    # below L_c: the closed form, and periodic multiplicities
    "spectrum-neumann-uniform": ("spectrum --bc neumann --L 2.0 --modes 4".split(), None),
    "spectrum-periodic-uniform": ("spectrum --bc periodic --L 5.0 --modes 3".split(), None),
    # one completion writes null error estimates; 128 trajectories run in two shards
    "mfpt": (MFPT_ARGV, 7),
    "mfpt-one-trajectory": (MFPT_ARGV + ["--ntraj", "1"], 7),
    "mfpt-two-shards": (
        "mfpt --bc neumann --L 2 --eps 0.3 --ntraj 128 --tmax 20 --seed 1".split(), 1
    ),
}


def _result_files(name):
    """The files the GOLDEN row name writes, its --out first."""
    command = GOLDEN[name][0][0]
    if command == "mfpt":
        return [name + ".json", name + ".trajectories.csv"]
    return [name + (".json" if command == "rate" else ".csv")]


def _assert_golden(path, name):
    """Fail with a unified diff unless path holds the bytes of golden file name."""
    got, want = path.read_bytes(), (GOLDEN_DIR / name).read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(True), got.decode().splitlines(True),
            f"tests/golden/{name}", f"this run's {name}",
        )
        pytest.fail("".join(diff), pytrace=False)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_result_files_equal_their_golden_files(tmp_path, monkeypatch, capsys, name):
    argv, seed = GOLDEN[name]
    written = _result_files(name)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    stdout_text = capsys.readouterr().out
    assert os.listdir(tmp_path) == []  # stdout mode writes no file

    assert run_cli(argv + ["--out", written[0]]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {written[0]}")
    manifest_name = written[0] + ".manifest.json"
    assert sorted(os.listdir(tmp_path)) == sorted(written + [manifest_name])
    for path in written:
        _assert_golden(tmp_path / path, path)
    assert (tmp_path / written[0]).read_text() == stdout_text
    # manifests carry timestamps, so they have no golden file
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
    assert manifest["command"] == argv[0]
    for key in ("started", "finished"):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", manifest[key])
    assert manifest["started"] <= manifest["finished"]
    assert manifest["seed"] == seed
    assert manifest["params"]["bc"] == argv[2]
    assert [entry["path"] for entry in manifest["outputs"]] == written
    for entry in manifest["outputs"]:
        data = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)


def test_golden_directory_holds_the_files_of_golden_only():
    expected = [path for name in GOLDEN for path in _result_files(name)]
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(expected)


def test_golden_rate_files_hold_the_library_breakdown():
    # every key after bc, L and eps is the RateBreakdown field, a divergent
    # one as null; ELLIPTIC_DIGESTS pins the library only at eps = 0.05
    for name, (argv, _) in GOLDEN.items():
        if argv[0] == "rate":
            bc, L, eps = argv[2], float(argv[4]), float(argv[6])
            rb = kramers_gl.prefactor_corrected(L, eps, bc)
            breakdown = {key: getattr(rb, key) for key in cli._RATE_KEYS}
            expected = {"bc": bc, "L": L, "eps": eps, **cli._null_nonfinite(breakdown)}
            assert json.loads((GOLDEN_DIR / f"{name}.json").read_text()) == expected, name


def test_golden_mfpt_files_hold_the_library_estimate():
    doc = json.loads((GOLDEN_DIR / "mfpt.json").read_text())
    params = SystemParams(L=2.0, eps=0.25, bc=NEU)
    est = estimate_mfpt(SimConfig(params=params, K=8, dt=2e-3, t_max=300.0, n_traj=6, seed=7))
    assert doc["mean_passage_time"] == est.mean_passage_time
    assert doc["rate"] == est.rate
    assert doc["n_completed"] == est.n_completed
    assert doc["ratio_sim_over_theory"] == est.rate / kramers_gl.kramers_rate(params).rate
    rows = (GOLDEN_DIR / "mfpt.trajectories.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == list(est.per_trajectory)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bc, L, n_x",
    [("neumann", 4.0, 32), ("neumann", 3.5, 16), ("periodic", 9.0, 32), ("periodic", 7.3, 16)],
)
def test_profile_matches_library_samples(capsys, bc, L, n_x):
    assert run_cli(["profile", "--bc", bc, "--L", str(L), "--modes", str(n_x)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    xs, phis = (np.array([float(v) for v in column]) for column in zip(*rows))
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(phis, instanton_profile(L, bc, n_x=n_x))
    numpy_grid = np.linspace(0.0, L, n_x) if bc == "neumann" else np.arange(n_x) * (L / n_x)
    assert np.array_equal(xs, numpy_grid)


def test_profile_below_critical_length_fails_cleanly(capsys):
    assert run_cli(["profile", "--bc", "neumann", "--L", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "critical length" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_instanton_has_zero_mode(capsys):
    assert run_cli(["spectrum", "--bc", "periodic", "--L", "9.0", "--modes", "4"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
    eigenvalues = [float(r[1]) for r in rows]
    assert eigenvalues[0] < 0  # single unstable direction
    assert min(abs(ev) for ev in eigenvalues) < 1e-6  # translation zero mode


def test_spectrum_neumann_instanton(capsys):
    # beyond L_c = pi: rows 0 and 1 are mu0(m) and the exact 3m/(1+m)
    from kramers_gl.instanton import mu0, solve_m_from_L

    assert run_cli(["spectrum", "--bc", "neumann", "--L", "4", "--modes", "4"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
    eigenvalues = [float(r[1]) for r in rows]
    m = solve_m_from_L(4.0, BoundaryCondition.NEUMANN)
    assert eigenvalues[0] == pytest.approx(mu0(m), abs=1e-8)
    assert eigenvalues[1] == pytest.approx(3.0 * m / (1.0 + m), abs=1e-8)
    assert eigenvalues == sorted(eigenvalues)
    assert [int(r[2]) for r in rows] == [1] * 5


# ---------------------------------------------------------------------------
# mfpt
# ---------------------------------------------------------------------------


def test_mfpt_overflowing_step_count_is_one_error_line(capsys):
    argv = ["mfpt", "--bc", "neumann", "--L", "2", "--eps", "0.25", "--tmax", "1e308"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "kramers-gl: error: t_max / dt overflows: t_max=1e+308, dt=0.001\n"
    )


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("L", ["1e-200", "1e-320"])
def test_mfpt_refuses_a_length_beyond_double_range(capsys, bc, L):
    # 1e-200 warned of an overflow, ran the ensemble, then failed in the theory row
    argv = ["mfpt", "--bc", bc, "--L", L, "--eps", "0.25", "--ntraj", "2"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert f"L = {float(L)!r} is too short" in err[0]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_quick_passes_under_ten_seconds(capsys):
    # CPU time of this thread, not wall time: a second process sharing the
    # CPUs (or BLAS threads spinning beside it) made a wall-clock bound flake
    t0 = time.thread_time()
    code = run_cli(["verify", "--quick"])
    elapsed = time.thread_time() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 10.0
    assert "psi_plus asymptote" in out
    assert "FAIL" not in out
    # quick mode skips the quadrature oracles
    assert not any(f"{psi} quadrature" in out for psi in ("psi_plus", "psi_minus", "psi_tilde"))


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


def test_verify_fails_when_a_scaling_function_is_tampered(monkeypatch, capsys):
    # the asymptote check looks the scaling function up on rates when it
    # runs, so a patched function is what it checks; the 1 % also reaches
    # the continuity row, which stays inside its 5e-2
    import kramers_gl.rates as rates_module

    psi_minus = rates_module.psi_minus
    monkeypatch.setattr(rates_module, "psi_minus", lambda alpha: 1.01 * psi_minus(alpha))
    code = run_cli(["verify", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    assert _verify_row(captured.out, "psi_minus asymptote").endswith("FAIL")
    assert captured.err == "verify failed: psi_minus asymptote\n"


def _verify_row(out, name):
    return next(line for line in out.split("\n") if line.startswith(name))


def test_verify_fails_when_a_layer_returns_nan(monkeypatch, capsys):
    # a NaN deviation must fail its check, not drop out of the maximum
    import kramers_gl.rates as rates_module

    monkeypatch.setattr(rates_module, "phi_switch", lambda x: math.nan)
    code = run_cli(["verify", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    row = _verify_row(captured.out, "phi switch distribution")
    assert row.split()[-3:] == ["nan", "1.0e-14", "FAIL"]
    assert "phi switch distribution" in captured.err


def test_verify_reports_a_raising_check_with_its_tolerance(monkeypatch, capsys):
    import kramers_gl.specfun as specfun_module

    def broken(nu, z):
        raise RuntimeError("bessel I failed")

    monkeypatch.setattr(specfun_module, "bessel_I14", broken)
    code = run_cli(["verify", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    row = _verify_row(captured.out, "bessel K from I connection")
    assert "error: bessel I failed" in row
    assert row.split()[-2:] == ["1.0e-12", "FAIL"]
    assert "bessel K from I connection" in captured.err


def test_worst_deviation_is_nan_when_any_is_nan():
    assert math.isnan(worst([1e-20, math.nan]))
    assert math.isnan(worst([math.nan, 1e-20]))
    assert worst([1e-20, 3e-16, 0.0]) == 3e-16
    assert worst([]) == 0.0


def test_verify_counts_match_mode(capsys):
    assert run_cli(["verify", "--quick"]) == 0
    quick_out = capsys.readouterr().out
    assert run_cli(["verify"]) == 0
    full_out = capsys.readouterr().out
    quick_n = int(quick_out.strip().split("\n")[-1].split()[0])
    full_n = int(full_out.strip().split("\n")[-1].split()[0])
    assert full_n == quick_n + 3


def test_verify_table_rows_are_pinned():
    # no row may be dropped, renamed, loosened or moved out of quick mode
    assert [(name, tol, quick) for name, tol, quick, _ in CHECKS] == [
        ("elliptic legendre relation", 5e-14, True),
        ("jacobi sn quarter period", 1e-12, True),
        ("bessel K from I connection", 1e-12, True),
        ("modulus solver roundtrip", 1e-10, True),
        ("activation energy quadrature", 1e-8, True),
        ("determinant prefactor convergence", 1e-6, True),
        ("psi_plus asymptote", 1e-6, True),
        ("psi_minus asymptote", 1e-6, True),
        ("psi_tilde asymptote", 1e-6, True),
        ("phi switch distribution", 1e-14, True),
        ("continuity at critical length", 5e-2, True),
        ("anomalous neumann limit", 1e-3, True),
        ("anomalous periodic limit", 1e-3, True),
        ("instanton lowest eigenvalue", 1e-6, True),
        ("periodic zero mode", 1e-6, True),
        ("psi_plus quadrature", 1e-5, False),
        ("psi_minus quadrature", 1e-5, False),
        ("psi_tilde quadrature", 1e-5, False),
    ]


if __name__ == "__main__":
    # rewrite every golden file from GOLDEN, and remove the files of rows
    # no longer in it
    for stale in GOLDEN_DIR.glob("*"):
        stale.unlink()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, _) in GOLDEN.items():
        out = GOLDEN_DIR / _result_files(name)[0]
        assert main(argv + ["--out", str(out)]) == 0
        out.with_name(out.name + ".manifest.json").unlink()
