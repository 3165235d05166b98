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
same converter checks both. A number's flag text goes through float(), a
count's through int(), and then every number through the library's one
check, ``specfun._real`` or ``specfun._count``: a JSON ``true`` is no
number, and a count takes only whole numbers (a JSON 32.0 is 32). Every
command but ``verify`` is a function of its resolved options returning
data that ``_emit`` renders; ``main`` resolves, stamps the start and emits.

``rate``, ``sweep`` and ``profile`` load neither numpy nor ``dataclasses``
(nor the ``inspect`` it imports): the rate path's value types are
``__slots__`` records, and this module imports the array modules
``spectrum``, ``simulator`` and ``checks`` only in the commands that use
them, so ``spectrum``, ``mfpt`` and ``verify`` import numpy when they
run. A run with ``--out`` loads ``hashlib`` (and with it OpenSSL), and so
does the process that runs an ``mfpt`` ensemble (this one, or each shard
worker): its first ``trajectory_rng`` imports ``numpy.random``, which
imports ``secrets`` → ``hmac`` → ``hashlib``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial

from . import __version__
from . import instanton as _instanton
from . import rates as _rates
from .instanton import BoundaryCondition, SystemParams
from .specfun import _count, _real

# one rate row: sweep CSV columns and rate JSON keys, in this order
_ROW_FIELDS = (
    "bc", "L", "eps", "regime", "m", "deltaW", "gamma0_classical",
    "correction_factor", "gamma0_corrected", "eps_exponent", "rate",
)
CSV_COLUMNS = ",".join(_ROW_FIELDS)
# the rate JSON's RateBreakdown keys end with log_rate, finite where rate
# underflows; the sweep CSV has no such column
_RATE_KEYS = _ROW_FIELDS[3:] + ("log_rate",)


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


def _null_nonfinite(value):
    """``value`` with every non-finite float, at any depth, as None (null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(item) for item in value]
    return value


def _render(result) -> str:
    """The text of one result: a dict as JSON, non-finite floats as null;
    otherwise rows, the header first, as CSV lines of ``_fmt`` cells."""
    if isinstance(result, dict):
        return json.dumps(_null_nonfinite(result), indent=2) + "\n"
    return "\n".join([",".join(map(_fmt, row)) for row in result]) + "\n"


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_result(path: str, result) -> dict:
    import hashlib

    data = _render(result).encode("utf-8")
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


def _emit(out, command, started, params, result, note="", extra=(), seed=None) -> int:
    """Deliver one run's result, what its command returned after ``out``,
    ``command`` and ``started``; returns the exit code 0.

    ``result`` and the results in ``extra`` are data that ``_render`` turns
    into text: a dict for JSON or a list of rows, header first, for CSV.
    With ``--out``: write ``result`` there and each ``(path, result)`` of
    ``extra`` after it, then one manifest next to ``--out`` listing every
    file written, and print ``wrote <out><note>``. Without ``--out``:
    write ``result`` to stdout.
    """
    if out is None:
        sys.stdout.write(_render(result))
        return 0
    outputs = [_write_result(path, body) for path, body in ((out, result), *extra)]
    manifest = {
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "started": started,
        "finished": _utc_now(),
        "outputs": outputs,
    }
    _write_result(out + ".manifest.json", manifest)
    print(f"wrote {out}{note}")
    return 0


# ---------------------------------------------------------------------------
# options: one converter per kind of value takes the option's name and its
# flag text or config value, and raises TypeError or ValueError with the
# reason for a bad one; numbers get the library's check, _real or _count
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """Bad invocation: reported with the offending key, exit code 2."""


def _positive(name, value) -> float:
    """A real option, finite and > 0: flag text through float()."""
    return _real(name, float(value) if isinstance(value, str) else value, 0.0)


def _whole(lo, hi, name, value) -> int:
    """A count in [lo, hi] (bound by partial): text through int(), 32.0 as 32."""
    if isinstance(value, str) or (isinstance(value, float) and value.is_integer()):
        value = int(value)
    return _count(name, value, lo, hi)


def _eps_list(name, value) -> list:
    items = value if isinstance(value, (list, tuple)) else [value]
    if not items:
        raise ValueError("no value given")
    values = [_positive(name, item) for item in items]
    if len(set(values)) < len(values):
        raise ValueError(f"{max(values, key=values.count)!r} is repeated")
    return values


def _one_eps(name, value) -> float:
    values = _eps_list(name, value)
    if len(values) != 1:
        raise ValueError(f"exactly one is required here, got {len(values)} values")
    return values[0]


# Sizes refused before anything is allocated. The manifest records the whole
# L grid and its CSV text is built in memory, one row of about 150 bytes per
# point and eps value. A profile holds its samples and their CSV text: 230 MB
# peak RSS at 10^6 samples. An ensemble holds, per trajectory, a generator
# (about 620 B, 700 B of RSS), a state row, its grid values and one noise block
# of 16 to 128 steps that the block's states overwrite, each row as wide as the
# noise (K+1 Neumann, 2K+1 periodic). So ntraj x width is capped at 10^5 x 17,
# the largest ensemble at the default K = 16 (Neumann). At that budget, over
# 200 steps with 24-60 % of the trajectories crossing (eps = 20, L = 2), peak
# RSS was 0.44 GiB for Neumann K = 16 and periodic K = 8, 0.40 GiB for Neumann
# K = 64 and 0.38 GiB for periodic K = 64; over 20 steps without a crossing,
# 0.43 GiB. In two shards (Neumann K = 16) each worker peaked at 0.25 GiB and
# the calling process at 33 MB. Beyond L_c, spectrum diagonalises 2 modes per
# listed eigenvalue, and hessian_spectrum takes 1024.
_MAX_L_POINTS = 100_000
_MAX_PROFILE_SAMPLES = 1_000_000
_MAX_TRAJECTORIES = 100_000
_MAX_SIM_MODES = 64
_MAX_ENSEMBLE_DRAWS = 100_000 * 17  # ntraj x noise width
_MAX_SPECTRUM_MODES = 512


def _l_range(name, value) -> list:
    parts = str(value).split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:step")
    a, step = _real("start", float(parts[0]), 0.0), _real("step", float(parts[2]), 0.0)
    b = _real("stop", float(parts[1]), a, math.inf, "[)")
    intervals = (b - a) / step + 1e-9
    if not intervals < _MAX_L_POINTS:  # also catches an infinite count
        raise ValueError(f"more than {_MAX_L_POINTS} points")
    return [a + i * step for i in range(math.floor(intervals) + 1)]


def _out_path(name, value) -> str:
    if not (isinstance(value, str) and value):
        raise TypeError("must be a file path")
    return value


_REQUIRED = object()  # the default of an option that has none

# per subcommand: option name -> (converter, default or _REQUIRED, help).
# The flag is --name with "_" as "-", a config file may set the name, and
# a given flag overrides the config value, which overrides the default.
_BC = {"bc": (lambda _, text: BoundaryCondition.parse(text), _REQUIRED, "periodic or neumann")}
_L = {"L": (_positive, _REQUIRED, "interval length")}
_OUT = {"out": (_out_path, None, "output file path (default: stdout)")}
_ONE_EPS = (_one_eps, _REQUIRED, "noise intensity")
OPTIONS = {
    "rate": {**_BC, **_L, "eps": _ONE_EPS, **_OUT},
    "sweep": {
        **_BC,
        "L": (_positive, None, "interval length (or --L-range)"),
        "L_range": (_l_range, None, "inclusive L grid A:B:STEP"),
        "eps": (_eps_list, _REQUIRED, "noise intensity; repeat for more curves"),
        **_OUT,
    },
    "profile": {
        **_BC,
        **_L,
        "modes": (partial(_whole, 16, _MAX_PROFILE_SAMPLES), 512, "number of profile samples"),
        **_OUT,
    },
    "spectrum": {
        **_BC,
        **_L,
        "modes": (
            partial(_whole, 1, _MAX_SPECTRUM_MODES), 32, "list eigenvalues 0..n (n + 1 rows)"
        ),
        **_OUT,
    },
    "mfpt": {
        **_BC,
        **_L,
        "eps": _ONE_EPS,
        # unset, these take SimConfig's defaults (see _SIM_FIELDS)
        "modes": (partial(_whole, 8, _MAX_SIM_MODES), None, "spectral modes K"),
        "dt": (_positive, None, "time step"),
        "tmax": (_positive, None, "censoring time"),
        "ntraj": (partial(_whole, 1, _MAX_TRAJECTORIES), None, "number of trajectories"),
        "seed": (partial(_whole, 0, 2**64 - 1), None, "ensemble seed"),
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
                resolved[name] = convert(name, value)
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


def cmd_rate(opts: dict) -> tuple:
    bc, L, eps = opts["bc"], opts["L"], opts["eps"]
    params = {"bc": bc.value, "L": L, "eps": eps}
    rb = _rates.prefactor_corrected(L, eps, bc)
    return params, {**params, **{key: getattr(rb, key) for key in _RATE_KEYS}}


def cmd_sweep(opts: dict) -> tuple:
    bc = opts["bc"]
    if opts["L"] is not None and opts["L_range"] is not None:
        raise UsageError("give either L or L_range, not both")
    if opts["L"] is None and opts["L_range"] is None:
        raise UsageError("missing required parameter: L (or L_range)")
    l_grid = opts["L_range"] or [opts["L"]]
    eps_list = sorted(opts["eps"])
    rows = [_breakdown_row(bc, L, eps) for eps in eps_list for L in l_grid]
    params = {"bc": bc.value, "L_grid": l_grid, "eps": eps_list}
    return params, [_ROW_FIELDS, *rows], f" ({len(rows)} rows)"


# ---------------------------------------------------------------------------
# profile / spectrum
# ---------------------------------------------------------------------------


def cmd_profile(opts: dict) -> tuple:
    bc, L, n_x = opts["bc"], opts["L"], opts["modes"]
    xs, values = _instanton._profile_samples(L, bc, n_x=n_x)
    params = {"bc": bc.value, "L": L, "samples": n_x}
    return params, [("x", "phi"), *zip(xs, values)], f" ({n_x} samples)"


def cmd_spectrum(opts: dict) -> tuple:
    from .spectrum import hessian_spectrum, uniform_spectrum

    bc, L, n = opts["bc"], opts["L"], opts["modes"]
    if L <= bc.critical_length:
        spec = uniform_spectrum(L, bc, "transition", K_max=n)
        regime = "uniform_saddle"
    else:
        profile = _instanton.instanton_profile(L, bc, n_x=1024)
        spec = hessian_spectrum(profile, L, bc, n_modes=max(256, 2 * n))
        regime = "instanton_saddle"
    rows = zip(range(n + 1), spec.eigenvalues.tolist(), spec.multiplicities.tolist())
    params = {"bc": bc.value, "L": L, "modes": n, "regime": regime}
    return params, [("index", "eigenvalue", "multiplicity"), *rows]


# ---------------------------------------------------------------------------
# mfpt
# ---------------------------------------------------------------------------


# mfpt option -> SimConfig field
_SIM_FIELDS = {"modes": "K", "dt": "dt", "tmax": "t_max", "ntraj": "n_traj", "seed": "seed"}
# the MfptEstimate fields the result document reports, in this order
_ESTIMATE_KEYS = (
    "mean_passage_time", "std_error", "n_completed", "n_censored", "n_blowup",
    "rate", "rate_std_error", "rate_ci",
)


def cmd_mfpt(opts: dict) -> tuple:
    from .simulator import SimConfig, _noise_width, estimate_mfpt

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
    # the resolved options but out open the result document, in table order
    run = dict(opts, bc=opts["bc"].value)
    del run["out"]
    run.update((name, getattr(config, field)) for name, field in _SIM_FIELDS.items())
    est = estimate_mfpt(config)

    theory = None
    ratio = None
    if opts["eps"] <= 0.5:
        rb = _rates.kramers_rate(config.params)
        theory = {key: getattr(rb, key) for key in ("gamma0_corrected", "deltaW", "rate")}
        if rb.rate > 0:
            ratio = est.rate / rb.rate
    doc = {
        **run,
        "crossing_threshold": config.crossing_threshold,
        **{key: getattr(est, key) for key in _ESTIMATE_KEYS},
        "theory": theory,
        "ratio_sim_over_theory": ratio,
    }
    traj_path = (opts["out"] or "").removesuffix(".json") + ".trajectories.csv"
    traj_rows = [("trajectory", "passage_time"), *enumerate(est.per_trajectory)]
    params = {k: doc[k] for k in ("bc", "L", "eps", "modes", "dt", "tmax", "ntraj")}
    return params, doc, f" and {traj_path}", [(traj_path, traj_rows)], run["seed"]


# ---------------------------------------------------------------------------
# verify: the checks table of kramers_gl.checks, printed with its tolerances
# ---------------------------------------------------------------------------


def cmd_verify(quick: bool = False) -> int:
    from .checks import CHECKS, worst

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


# subcommand -> (handler, help). main calls the handlers held here, not the
# module attributes, which a tracer may wrap: nothing then sits between
# main and the layers' spans.
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
    command = _COMMANDS[args.command][0]
    try:
        if args.command == "verify":
            return command(args.quick)
        opts = _resolve(args)
        started = _utc_now()
        return _emit(opts["out"], args.command, started, *command(opts))
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, RuntimeError) as exc:  # NoInstantonRegime is a ValueError
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
