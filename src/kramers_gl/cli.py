"""Command-line interface: rates, sweeps, profiles, spectra, MFPT runs.

Subcommands
-----------
rate      one (L, eps, bc) point, full prefactor breakdown as JSON
sweep     prefactor curves over an L grid and several eps values, CSV
profile   instanton transition-state samples, CSV
spectrum  linearization eigenvalue table at the transition state, CSV
mfpt      Monte Carlo mean first-passage time ensemble, JSON + CSV
verify    the self-checks of ``kramers_gl.checks``, one tolerance table row each

Results are written deterministically: the same invocation with the same
seed produces byte-identical CSV/JSON files. A run that writes to disk
(``--out``) gets one manifest, ``<out>.manifest.json`` next to the
primary output, recording the tool version, the resolved parameters,
the seed, start/finish timestamps, and the SHA-256 digest of every file
the run wrote; timestamps live only in the manifest so the result files
themselves stay reproducible.

Each option of a subcommand is declared once, in ``OPTIONS``: converter,
default and help. Values may also come from a JSON file (``--config``);
a flag overrides the file's value, which overrides the default, and the
same converter checks both, so a JSON ``true`` is no number and an
integer option takes only whole numbers.

``rate`` and ``sweep`` load no numpy: this module imports ``spectrum``,
``simulator`` and ``checks`` only in the commands that use them, so
``profile``, ``spectrum``, ``mfpt`` and ``verify`` import numpy when
they run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from . import instanton as _instanton
from . import rates as _rates
from .instanton import BoundaryCondition, SystemParams

# one rate row: sweep CSV columns and rate JSON keys, in this order
_ROW_FIELDS = (
    "bc", "L", "eps", "regime", "m", "deltaW", "gamma0_classical",
    "correction_factor", "gamma0_corrected", "eps_exponent", "rate",
)
CSV_COLUMNS = ",".join(_ROW_FIELDS)


# ---------------------------------------------------------------------------
# formatting and output plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """One CSV cell: 17 significant digits (round-trip exact), empty for
    missing/divergent entries; strings pass through unchanged."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    return f"{value:.17g}"


def _jsonable(value):
    """JSON-safe scalar: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_result(path: str, text: str) -> dict:
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    return {
        "path": path,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def _emit(out, command, params, seed, started, text, note="", extra=()) -> int:
    """Deliver one run's result; returns the exit code 0.

    With ``--out``: write ``text`` there and each ``(path, text)`` of
    ``extra`` after it, then one manifest next to ``--out`` listing every
    file written, and print ``wrote <out><note>``. Without ``--out``:
    write ``text`` to stdout.
    """
    if out is None:
        sys.stdout.write(text)
        return 0
    outputs = [_write_result(path, body) for path, body in ((out, text), *extra)]
    manifest = {
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "started": started,
        "finished": _utc_now(),
        "outputs": outputs,
    }
    _write_result(out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out}{note}")
    return 0


# ---------------------------------------------------------------------------
# options: one converter per kind of value takes flag text and config values
# alike, and raises TypeError or ValueError with the reason for a bad one
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """Bad invocation: reported with the offending key, exit code 2."""


def _positive_float(value) -> float:
    if isinstance(value, bool):  # JSON true/false would pass as 1.0/0.0
        raise TypeError("must be a number")
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ValueError("must be > 0")
    return number


def _eps_list(value) -> list:
    items = value if isinstance(value, (list, tuple)) else [value]
    if not items:
        raise ValueError("no value given")
    return [_positive_float(item) for item in items]


def _one_eps(value) -> float:
    values = _eps_list(value)
    if len(values) != 1:
        raise ValueError(f"exactly one is required here, got {len(values)} values")
    return values[0]


def _integer(minimum, maximum=math.inf):
    """Converter for a whole number in [minimum, maximum], as text or JSON."""

    def convert(value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        # what is left of JSON true/false, fractions, lists, ... is no integer
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError("must be an integer")
        number = int(value)
        if number < minimum:
            raise ValueError(f"must be >= {minimum}")
        if number > maximum:
            raise ValueError(f"must be <= {maximum}")
        return number

    return convert


# Sizes refused before anything is allocated. The manifest records the whole
# L grid and its CSV text is built in memory, one row of about 150 bytes per
# point and eps value. A profile holds its samples and their CSV text: 230 MB
# peak RSS at 10^6 samples. An ensemble holds, per trajectory, a generator
# (about 650 B), a state row and two noise blocks of 16 to 128 steps, each row
# as wide as the noise (K+1 Neumann, 2K+1 periodic). So ntraj x width is capped
# at 10^5 x 17, the largest ensemble at the default K = 16 (Neumann). At that
# budget, with whole 16-step blocks (t_max = 20 dt), peak RSS was 0.71 GB for
# Neumann K = 16, 0.67 GB for Neumann K = 64 and 0.59-0.65 GB for periodic
# K = 8 and 64. Beyond L_c, spectrum diagonalises 2 modes per listed
# eigenvalue, and hessian_spectrum takes 1024.
_MAX_L_POINTS = 100_000
_MAX_PROFILE_SAMPLES = 1_000_000
_MAX_TRAJECTORIES = 100_000
_MAX_SIM_MODES = 64
_MAX_ENSEMBLE_DRAWS = 100_000 * 17  # ntraj x noise width
_MAX_SPECTRUM_MODES = 512


def _l_range(value) -> list:
    parts = str(value).split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:step")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))) or a <= 0 or step <= 0:
        raise ValueError("need start > 0 and step > 0")
    if b < a:
        raise ValueError("empty L range: stop is below start")
    intervals = (b - a) / step + 1e-9
    if not intervals < _MAX_L_POINTS:  # also catches an infinite count
        raise ValueError(f"more than {_MAX_L_POINTS} points")
    return [a + i * step for i in range(math.floor(intervals) + 1)]


def _out_path(value) -> str:
    if not (isinstance(value, str) and value):
        raise TypeError("must be a file path")
    return value


_REQUIRED = object()  # the default of an option that has none

# per subcommand: option name -> (converter, default or _REQUIRED, help).
# The flag is --name with "_" as "-", a config file may set the name, and
# a given flag overrides the config value, which overrides the default.
_BC = {"bc": (BoundaryCondition.parse, _REQUIRED, "periodic or neumann")}
_L = {"L": (_positive_float, _REQUIRED, "interval length")}
_OUT = {"out": (_out_path, None, "output file path (default: stdout)")}
_ONE_EPS = (_one_eps, _REQUIRED, "noise intensity")
OPTIONS = {
    "rate": {**_BC, **_L, "eps": _ONE_EPS, **_OUT},
    "sweep": {
        **_BC,
        "L": (_positive_float, None, "interval length (or --L-range)"),
        "L_range": (_l_range, None, "inclusive L grid A:B:STEP"),
        "eps": (_eps_list, _REQUIRED, "noise intensity; repeat for more curves"),
        **_OUT,
    },
    "profile": {
        **_BC,
        **_L,
        "modes": (_integer(16, _MAX_PROFILE_SAMPLES), 512, "number of profile samples"),
        **_OUT,
    },
    "spectrum": {
        **_BC,
        **_L,
        "modes": (_integer(1, _MAX_SPECTRUM_MODES), 32, "number of eigenvalues to list"),
        **_OUT,
    },
    "mfpt": {
        **_BC,
        **_L,
        "eps": _ONE_EPS,
        # unset, these take SimConfig's defaults (see _SIM_FIELDS)
        "modes": (_integer(8, _MAX_SIM_MODES), None, "spectral modes K"),
        "dt": (_positive_float, None, "time step"),
        "tmax": (_positive_float, None, "censoring time"),
        "ntraj": (_integer(1, _MAX_TRAJECTORIES), None, "number of trajectories"),
        "seed": (_integer(0, 2**64 - 1), None, "ensemble seed"),
        **_OUT,
    },
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must contain a JSON object")
    return doc


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of the subcommand, converted: the flag if given, else
    the config-file value if set (and not null), else the default."""
    options = OPTIONS[args.command]
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in options:
            raise UsageError(
                f"unknown config key {key!r} for command {args.command!r}"
            )
    resolved = {}
    for name, (convert, default, _) in options.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        if value is not None:
            try:
                resolved[name] = convert(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(
                    f"invalid value for {name}: {value!r} ({exc})"
                ) from None
        elif default is _REQUIRED:
            raise UsageError(f"missing required parameter: {name}")
        else:
            resolved[name] = default
    return resolved


# ---------------------------------------------------------------------------
# rate / sweep
# ---------------------------------------------------------------------------


def _breakdown_row(bc: BoundaryCondition, L: float, eps: float) -> tuple:
    """One rate row: the values of ``_ROW_FIELDS``, in order."""
    rb = _rates.prefactor_corrected(L, eps, bc)
    return (bc.value, L, eps) + tuple(getattr(rb, key) for key in _ROW_FIELDS[3:])


def cmd_rate(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    bc, L, eps = opts["bc"], opts["L"], opts["eps"]
    started = _utc_now()
    row = _breakdown_row(bc, L, eps)
    doc = {key: _jsonable(value) for key, value in zip(_ROW_FIELDS, row)}
    text = json.dumps(doc, indent=2) + "\n"
    params = {"bc": bc.value, "L": L, "eps": eps}
    return _emit(opts["out"], "rate", params, None, started, text)


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    bc = opts["bc"]
    if opts["L"] is not None and opts["L_range"] is not None:
        raise UsageError("give either L or L_range, not both")
    if opts["L"] is None and opts["L_range"] is None:
        raise UsageError("missing required parameter: L (or L_range)")
    l_grid = opts["L_range"] or [opts["L"]]
    eps_list = sorted(opts["eps"])
    started = _utc_now()
    rows = [_breakdown_row(bc, L, eps) for eps in eps_list for L in sorted(l_grid)]
    lines = [CSV_COLUMNS]
    lines += [",".join(map(_fmt, row)) for row in rows]
    params = {"bc": bc.value, "L_grid": l_grid, "eps": eps_list}
    text = "\n".join(lines) + "\n"
    return _emit(opts["out"], "sweep", params, None, started, text, f" ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# profile / spectrum
# ---------------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    bc, L, n_x = opts["bc"], opts["L"], opts["modes"]
    started = _utc_now()
    fieldcfg = _instanton.instanton_profile(L, bc, n_x=n_x)
    xs = fieldcfg.grid(L)
    lines = ["x,phi"]
    lines += [f"{_fmt(float(x))},{_fmt(float(v))}" for x, v in zip(xs, fieldcfg.values)]
    params = {"bc": bc.value, "L": L, "samples": n_x}
    text = "\n".join(lines) + "\n"
    return _emit(opts["out"], "profile", params, None, started, text, f" ({n_x} samples)")


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .spectrum import hessian_spectrum, uniform_spectrum

    opts = _resolve(args)
    bc, L, n = opts["bc"], opts["L"], opts["modes"]
    started = _utc_now()
    if L <= bc.critical_length:
        spec = uniform_spectrum(L, bc, "transition", K_max=n)
        regime = "uniform_saddle"
    else:
        fieldcfg = _instanton.instanton_profile(L, bc, n_x=1024)
        spec = hessian_spectrum(fieldcfg, L, bc, n_modes=max(256, 2 * n))
        regime = "instanton_saddle"
    lines = ["index,eigenvalue,multiplicity"]
    for i, (ev, mult) in enumerate(zip(spec.eigenvalues, spec.multiplicities)):
        if i > n:
            break
        lines.append(f"{i},{_fmt(float(ev))},{int(mult)}")
    params = {"bc": bc.value, "L": L, "modes": n, "regime": regime}
    return _emit(opts["out"], "spectrum", params, None, started, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# mfpt
# ---------------------------------------------------------------------------


# mfpt option -> SimConfig field
_SIM_FIELDS = {"modes": "K", "dt": "dt", "tmax": "t_max", "ntraj": "n_traj", "seed": "seed"}


def cmd_mfpt(args: argparse.Namespace) -> int:
    from .simulator import SimConfig, _noise_width, estimate_mfpt

    opts = _resolve(args)
    out = opts.pop("out")
    started = _utc_now()
    config = SimConfig(
        params=SystemParams(L=opts["L"], eps=opts["eps"], bc=opts["bc"]),
        **{field: opts[name] for name, field in _SIM_FIELDS.items() if opts[name] is not None},
    )
    width = _noise_width(config.params.bc, config.K)
    if config.n_traj * width > _MAX_ENSEMBLE_DRAWS:
        raise UsageError(
            f"ntraj and modes ask for {config.n_traj} trajectories of {width} draws a "
            f"step, more than {_MAX_ENSEMBLE_DRAWS} in all; lower ntraj or modes"
        )
    # the resolved options open the result document, in table order
    run = dict(opts, bc=opts["bc"].value)
    run.update((name, getattr(config, field)) for name, field in _SIM_FIELDS.items())
    est = estimate_mfpt(config)

    theory = None
    ratio = None
    if opts["eps"] <= 0.5:
        rb = _rates.kramers_rate(config.params)
        theory = {
            "gamma0_corrected": _jsonable(rb.gamma0_corrected),
            "deltaW": _jsonable(rb.deltaW),
            "rate": _jsonable(rb.rate),
        }
        if rb.rate > 0:
            ratio = est.rate / rb.rate
    doc = {
        **run,
        "crossing_threshold": config.crossing_threshold,
        "mean_passage_time": _jsonable(est.mean_passage_time),
        "std_error": _jsonable(est.std_error),
        "n_completed": est.n_completed,
        "n_censored": est.n_censored,
        "n_blowup": est.n_blowup,
        "rate": _jsonable(est.rate),
        "rate_std_error": _jsonable(est.rate_std_error),
        "rate_ci": [_jsonable(est.rate_ci[0]), _jsonable(est.rate_ci[1])],
        "theory": theory,
        "ratio_sim_over_theory": _jsonable(ratio),
    }
    text = json.dumps(doc, indent=2) + "\n"
    stem = (out or "").removesuffix(".json")
    traj_lines = ["trajectory,passage_time"]
    traj_lines += [f"{i},{_fmt(t)}" for i, t in enumerate(est.per_trajectory)]
    traj = (stem + ".trajectories.csv", "\n".join(traj_lines) + "\n")
    params = {k: doc[k] for k in ("bc", "L", "eps", "modes", "dt", "tmax", "ntraj")}
    return _emit(out, "mfpt", params, run["seed"], started, text, f" and {traj[0]}", [traj])


# ---------------------------------------------------------------------------
# verify: the checks table of kramers_gl.checks, printed with its tolerances
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import CHECKS, worst

    quick = bool(getattr(args, "quick", False))
    checks = [row for row in CHECKS if row[2] or not quick]
    name_width = max(len(row[0]) for row in checks)
    header = f"{'check':<{name_width}}  {'measured':>12}  {'tolerance':>12}  status"
    print(header)
    print("-" * len(header))
    failures = []
    for name, tol, _, check in checks:
        try:
            measured = worst(check())
            ok = measured <= tol  # False for NaN
            measured_text = f"{measured:.3e}"
        except Exception as exc:  # a crashed check is a failed check
            measured_text, ok = f"error: {exc}", False
        if not ok:
            failures.append(name)
        print(
            f"{name:<{name_width}}  {measured_text:>12}  {tol:>12.1e}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    print(
        f"{len(checks)} checks: {len(checks) - len(failures)} passed, "
        f"{len(failures)} failed (mode: {'quick' if quick else 'full'})"
    )
    if failures:
        print("verify failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# subcommand -> (handler, help); every one but verify takes its OPTIONS
_COMMANDS = {
    "rate": (cmd_rate, "one-point rate breakdown (JSON)"),
    "sweep": (cmd_sweep, "prefactor curves on an L grid (CSV)"),
    "profile": (cmd_profile, "instanton profile samples (CSV)"),
    "spectrum": (cmd_spectrum, "transition-state eigenvalues (CSV)"),
    "mfpt": (cmd_mfpt, "Monte Carlo MFPT ensemble (JSON + CSV)"),
    "verify": (cmd_verify, "deterministic self-checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kramers-gl",
        description=(
            "Noise-activated transition rates for the stochastic "
            "Ginzburg-Landau equation on an interval"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "verify":
            p.add_argument("--quick", action="store_true", help="skip the quadrature oracles")
            continue
        # flags stay text here: _resolve converts them like config values
        for name, (_, _, option_help) in OPTIONS[command].items():
            p.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                action="append" if name == "eps" else "store",  # --eps repeats
                help=option_help,
            )
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, RuntimeError) as exc:  # NoInstantonRegime is a ValueError
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
