"""Command-line interface: rates, sweeps, profiles, spectra, MFPT runs.

Subcommands
-----------
rate      one (L, eps, bc) point, full prefactor breakdown as JSON
sweep     prefactor curves over an L grid and several eps values, CSV
profile   instanton transition-state samples, CSV
spectrum  linearization eigenvalue table at the transition state, CSV
mfpt      Monte Carlo mean first-passage time ensemble, JSON + CSV
verify    deterministic self-checks with a per-check tolerance table

Results are written deterministically: the same invocation with the same
seed produces byte-identical CSV/JSON files. Each result file written to
disk gets exactly one sidecar manifest (``<out>.manifest.json``)
recording the tool version, the resolved parameters, the seed,
start/finish timestamps, and SHA-256 digests of every output file;
timestamps live only in the manifest so the result files themselves
stay reproducible.

Configuration may come from a JSON file (``--config``); explicit flags
override file values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from . import instanton as _instanton
from . import rates as _rates
from . import simulator as _simulator
from . import specfun as _specfun
from . import spectrum as _spectrum
from .instanton import BoundaryCondition, NoInstantonRegime, SystemParams

CSV_COLUMNS = (
    "bc,L,eps,regime,m,deltaW,gamma0_classical,correction_factor,"
    "gamma0_corrected,eps_exponent,rate"
)


# ---------------------------------------------------------------------------
# formatting and output plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """One CSV cell: 17 significant digits (round-trip exact), empty for
    missing/divergent entries."""
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


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run that produced result files."""

    version: str
    command: str
    params: dict
    seed: int | None
    started: str
    finished: str
    outputs: tuple

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "started": self.started,
            "finished": self.finished,
            "outputs": list(self.outputs),
        }
        return json.dumps(doc, indent=2) + "\n"


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


def _finish_run(command: str, params: dict, seed, started: str, outputs: list) -> None:
    """Write the sidecar manifest next to the primary output file."""
    manifest = RunManifest(
        version=__version__,
        command=command,
        params=params,
        seed=seed,
        started=started,
        finished=_utc_now(),
        outputs=tuple(outputs),
    )
    _write_result(outputs[0]["path"] + ".manifest.json", manifest.to_json())


# ---------------------------------------------------------------------------
# configuration resolution: JSON file merged under explicit flags
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """Bad invocation: reported with the offending key, exit code 2."""


_CONFIG_KEYS = {
    "rate": {"bc", "L", "eps", "out"},
    "sweep": {"bc", "L", "L_range", "eps", "out"},
    "profile": {"bc", "L", "modes", "out"},
    "spectrum": {"bc", "L", "modes", "out"},
    "mfpt": {"bc", "L", "eps", "modes", "dt", "tmax", "ntraj", "seed", "out"},
}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must contain a JSON object")
    allowed = _CONFIG_KEYS[command]
    for key in doc:
        if key not in allowed:
            raise UsageError(f"unknown config key {key!r} for command {command!r}")
    return doc


def _merge(args: argparse.Namespace, command: str) -> dict:
    """Resolved parameter dict: flag values override config-file values."""
    file_values = _load_config(args.config, command) if args.config else {}
    merged = dict(file_values)
    for key in _CONFIG_KEYS[command]:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _require(merged: dict, key: str):
    if key not in merged or merged[key] is None:
        raise UsageError(f"missing required parameter: {key}")
    return merged[key]


def _get_bc(merged: dict) -> BoundaryCondition:
    raw = _require(merged, "bc")
    try:
        return BoundaryCondition.parse(raw)
    except ValueError as exc:
        raise UsageError(f"invalid value for bc: {exc}") from exc


def _get_positive_float(merged: dict, key: str, *, required=True, default=None):
    if key not in merged or merged[key] is None:
        if required:
            raise UsageError(f"missing required parameter: {key}")
        return default
    try:
        value = float(merged[key])
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for {key}: {merged[key]!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"invalid value for {key}: {value} (must be > 0)")
    return value


def _get_eps_list(merged: dict) -> list:
    raw = _require(merged, "eps")
    if not isinstance(raw, (list, tuple)):
        raw = [raw]
    if not raw:
        raise UsageError("missing required parameter: eps")
    values = []
    for item in raw:
        try:
            value = float(item)
        except (TypeError, ValueError):
            raise UsageError(f"invalid value for eps: {item!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"invalid value for eps: {value} (must be > 0)")
        values.append(value)
    return values


def _get_single_eps(merged: dict) -> float:
    values = _get_eps_list(merged)
    if len(values) != 1:
        raise UsageError(
            f"exactly one eps is required here, got {len(values)} values"
        )
    return values[0]


def _get_int(merged: dict, key: str, *, default=None, minimum=1):
    if key not in merged or merged[key] is None:
        if default is None:
            raise UsageError(f"missing required parameter: {key}")
        return default
    raw = merged[key]
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for {key}: {raw!r}") from None
    if isinstance(raw, float) and raw != value:
        raise UsageError(f"invalid value for {key}: {raw!r} (must be an integer)")
    if value < minimum:
        raise UsageError(f"invalid value for {key}: {value} (must be >= {minimum})")
    return value


def _parse_l_range(spec) -> list:
    text = str(spec)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"invalid value for L_range: {text!r} (expected start:stop:step)"
        )
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"invalid value for L_range: {text!r}") from None
    if not all(map(math.isfinite, (a, b, step))) or a <= 0 or step <= 0:
        raise UsageError(
            f"invalid value for L_range: {text!r} (need start > 0 and step > 0)"
        )
    if b < a:
        raise UsageError(f"empty L range: {text!r} (stop is below start)")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def _get_l_grid(merged: dict) -> list:
    has_single = merged.get("L") is not None
    has_range = merged.get("L_range") is not None
    if has_single and has_range:
        raise UsageError("give either L or L_range, not both")
    if has_range:
        return _parse_l_range(merged["L_range"])
    if has_single:
        return [_get_positive_float(merged, "L")]
    raise UsageError("missing required parameter: L (or L_range)")


# ---------------------------------------------------------------------------
# rate / sweep
# ---------------------------------------------------------------------------


def _breakdown_row(bc: BoundaryCondition, L: float, eps: float) -> dict:
    rb = _rates.prefactor_corrected(L, eps, bc)
    return {
        "bc": bc.value,
        "L": L,
        "eps": eps,
        "regime": rb.regime,
        "m": rb.m,
        "deltaW": rb.deltaW,
        "gamma0_classical": rb.gamma0_classical,
        "correction_factor": rb.correction_factor,
        "gamma0_corrected": rb.gamma0_corrected,
        "eps_exponent": rb.eps_exponent,
        "rate": rb.rate,
    }


def _row_to_csv(row: dict) -> str:
    cells = [
        row["bc"],
        _fmt(row["L"]),
        _fmt(row["eps"]),
        row["regime"],
        _fmt(row["m"]),
        _fmt(row["deltaW"]),
        _fmt(row["gamma0_classical"]),
        _fmt(row["correction_factor"]),
        _fmt(row["gamma0_corrected"]),
        _fmt(row["eps_exponent"]),
        _fmt(row["rate"]),
    ]
    return ",".join(cells)


def cmd_rate(args: argparse.Namespace) -> int:
    merged = _merge(args, "rate")
    bc = _get_bc(merged)
    L = _get_positive_float(merged, "L")
    eps = _get_single_eps(merged)
    started = _utc_now()
    row = _breakdown_row(bc, L, eps)
    doc = {key: _jsonable(value) for key, value in row.items()}
    text = json.dumps(doc, indent=2) + "\n"
    out = merged.get("out")
    if out:
        info = _write_result(out, text)
        _finish_run(
            "rate", {"bc": bc.value, "L": L, "eps": eps}, None, started, [info]
        )
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge(args, "sweep")
    bc = _get_bc(merged)
    l_grid = _get_l_grid(merged)
    eps_list = sorted(_get_eps_list(merged))
    started = _utc_now()
    rows = [_breakdown_row(bc, L, eps) for eps in eps_list for L in sorted(l_grid)]
    text = CSV_COLUMNS + "\n" + "".join(_row_to_csv(r) + "\n" for r in rows)
    out = merged.get("out")
    if out:
        info = _write_result(out, text)
        params = {
            "bc": bc.value,
            "L_grid": l_grid,
            "eps": eps_list,
        }
        _finish_run("sweep", params, None, started, [info])
        print(f"wrote {out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# profile / spectrum
# ---------------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    merged = _merge(args, "profile")
    bc = _get_bc(merged)
    L = _get_positive_float(merged, "L")
    n_x = _get_int(merged, "modes", default=512, minimum=16)
    started = _utc_now()
    fieldcfg = _instanton.instanton_profile(L, bc, n_x=n_x)
    xs = fieldcfg.grid(L)
    lines = ["x,phi"]
    lines += [f"{_fmt(float(x))},{_fmt(float(v))}" for x, v in zip(xs, fieldcfg.values)]
    text = "\n".join(lines) + "\n"
    out = merged.get("out")
    if out:
        info = _write_result(out, text)
        params = {"bc": bc.value, "L": L, "samples": n_x}
        _finish_run("profile", params, None, started, [info])
        print(f"wrote {out} ({n_x} samples)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    merged = _merge(args, "spectrum")
    bc = _get_bc(merged)
    L = _get_positive_float(merged, "L")
    n = _get_int(merged, "modes", default=32, minimum=1)
    started = _utc_now()
    if L <= bc.critical_length:
        spec = _spectrum.uniform_spectrum(L, bc, "transition", K_max=n)
        regime = "uniform_saddle"
    else:
        fieldcfg = _instanton.instanton_profile(L, bc, n_x=1024)
        spec = _spectrum.hessian_spectrum(
            fieldcfg, L, bc, n_modes=max(256, 2 * n)
        )
        regime = "instanton_saddle"
    lines = ["index,eigenvalue,multiplicity"]
    for i, (ev, mult) in enumerate(zip(spec.eigenvalues, spec.multiplicities)):
        if i > n:
            break
        lines.append(f"{i},{_fmt(float(ev))},{int(mult)}")
    text = "\n".join(lines) + "\n"
    out = merged.get("out")
    if out:
        info = _write_result(out, text)
        params = {"bc": bc.value, "L": L, "modes": n, "regime": regime}
        _finish_run("spectrum", params, None, started, [info])
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# mfpt
# ---------------------------------------------------------------------------


def cmd_mfpt(args: argparse.Namespace) -> int:
    merged = _merge(args, "mfpt")
    bc = _get_bc(merged)
    L = _get_positive_float(merged, "L")
    eps = _get_single_eps(merged)
    modes = _get_int(merged, "modes", default=16, minimum=8)
    dt = _get_positive_float(merged, "dt", required=False, default=1e-3)
    tmax = _get_positive_float(merged, "tmax", required=False, default=1e4)
    ntraj = _get_int(merged, "ntraj", default=100, minimum=1)
    seed = _get_int(merged, "seed", default=12345, minimum=0)
    if seed >= 2**64:
        raise UsageError(f"invalid value for seed: {seed} (must fit in 64 bits)")
    started = _utc_now()
    config = _simulator.SimConfig(
        params=SystemParams(L=L, eps=eps, bc=bc),
        K=modes,
        dt=dt,
        t_max=tmax,
        n_traj=ntraj,
        seed=seed,
    )
    est = _simulator.estimate_mfpt(config)

    theory = None
    ratio = None
    if eps <= 0.5:
        rb = _rates.kramers_rate(config.params)
        theory = {
            "gamma0_corrected": _jsonable(rb.gamma0_corrected),
            "deltaW": _jsonable(rb.deltaW),
            "rate": _jsonable(rb.rate),
        }
        if rb.rate > 0:
            ratio = est.rate / rb.rate
    doc = {
        "bc": bc.value,
        "L": L,
        "eps": eps,
        "modes": modes,
        "dt": dt,
        "tmax": tmax,
        "ntraj": ntraj,
        "seed": seed,
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
    out = merged.get("out")
    if out:
        info = _write_result(out, text)
        stem = out[: -len(".json")] if out.endswith(".json") else out
        traj_lines = ["trajectory,passage_time"]
        traj_lines += [
            f"{i},{_fmt(t)}" for i, t in enumerate(est.per_trajectory)
        ]
        traj_info = _write_result(
            stem + ".trajectories.csv", "\n".join(traj_lines) + "\n"
        )
        params = {k: doc[k] for k in ("bc", "L", "eps", "modes", "dt", "tmax", "ntraj")}
        _finish_run("mfpt", params, seed, started, [info, traj_info])
        print(f"wrote {out} and {traj_info['path']}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify: deterministic oracle checks with a per-check tolerance table
# ---------------------------------------------------------------------------


def _psi_plus_quadrature(alpha: float, L: float, eps: float) -> float:
    a = math.sqrt(3.0 * eps / (4.0 * L))
    lam1 = alpha * a
    nf = _rates.QuarticNormalForm(lambda1=lam1, L=L)
    ratio = _rates.quartic_integral(nf, eps) / math.sqrt(
        2.0 * math.pi * eps / (L * lam1)
    )
    return ratio * math.sqrt((lam1 + a) / lam1)


def _psi_minus_quadrature(alpha: float, L: float, eps: float) -> float:
    a = math.sqrt(3.0 * eps / (4.0 * L))
    mu1 = alpha * a
    nf = _rates.QuarticNormalForm(lambda1=-0.5 * mu1, L=L)
    shifted = _rates.quartic_integral(nf, eps) * math.exp(
        -L * mu1 * mu1 / (24.0 * eps)
    )
    ratio = shifted / math.sqrt(2.0 * math.pi * eps / (L * mu1))
    return ratio * math.sqrt((mu1 + a) / mu1)


def _psi_tilde_quadrature(alpha: float, L: float, eps: float) -> float:
    from scipy.integrate import quad

    a = math.sqrt(3.0 * eps / (4.0 * L))
    lam1 = alpha * a

    def integrand(rho):
        return rho * math.exp(-L * (0.5 * lam1 * rho**2 + 0.375 * rho**4) / eps)

    upper = 10.0 * max((eps / L) ** 0.25, math.sqrt(eps / (L * lam1)))
    val, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200)
    return (L * lam1 / eps) * val * (lam1 + a) / lam1


def _check_legendre_relation():
    dev = 0.0
    for m in (0.3, 0.7):
        lhs = (
            _specfun.elliptic_E(m) * _specfun.elliptic_K(1.0 - m)
            + _specfun.elliptic_E(1.0 - m) * _specfun.elliptic_K(m)
            - _specfun.elliptic_K(m) * _specfun.elliptic_K(1.0 - m)
        )
        dev = max(dev, abs(lhs / (math.pi / 2.0) - 1.0))
    return dev, 5e-14


def _check_sn_quarter_period():
    dev = 0.0
    for m in (0.25, 0.6):
        quarter = _specfun.elliptic_K(m)
        dev = max(dev, abs(_specfun.jacobi_sn(quarter, m) - 1.0))
        half = _specfun.jacobi_sn(0.5 * quarter, m)
        exact = 1.0 / math.sqrt(1.0 + math.sqrt(1.0 - m))
        dev = max(dev, abs(half - exact))
    return dev, 1e-12


def _check_bessel_connection():
    # K_nu from the two modified Bessel functions of the first kind;
    # small z only: the I difference cancels ~e^{2z} digits at large z
    dev = 0.0
    for z in (0.2, 0.8, 2.0):
        lhs = _specfun.bessel_K14(z)
        rhs = (
            math.pi
            / (2.0 * math.sin(math.pi * 0.25))
            * (_specfun.bessel_I14(-0.25, z) - _specfun.bessel_I14(0.25, z))
        )
        dev = max(dev, abs(lhs / rhs - 1.0))
    return dev, 1e-12


def _check_erf_complement():
    dev = 0.0
    for x in (0.3, 2.0, 6.0):
        dev = max(dev, abs(_specfun.erf(x) + _specfun.erfc(x) - 1.0))
    return dev, 1e-14


def _check_modulus_roundtrip():
    dev = 0.0
    for L, bc in ((4.0, BoundaryCondition.NEUMANN), (7.0, BoundaryCondition.PERIODIC)):
        m = _instanton.solve_m_from_L(L, bc)
        c = 2.0 if bc is BoundaryCondition.NEUMANN else 4.0
        back = c * math.sqrt(m + 1.0) * _specfun.elliptic_K(m)
        dev = max(dev, abs(back / L - 1.0))
    return dev, 1e-10


def _check_activation_energy_quadrature():
    dev = 0.0
    for L, bc in ((4.0, BoundaryCondition.NEUMANN), (8.0, BoundaryCondition.PERIODIC)):
        closed = _instanton.activation_energy(L, bc)
        fieldcfg = _instanton.instanton_profile(L, bc, n_x=4096)
        quadrature = _instanton.energy_functional(fieldcfg, L) + L / 4.0
        dev = max(dev, abs(quadrature / closed - 1.0))
    return dev, 1e-8


def _check_determinant_prefactor():
    L = math.pi / 2.0
    closed = _rates.prefactor_classical(L, BoundaryCondition.NEUMANN)
    truncated = _rates.prefactor_from_determinants(
        L, BoundaryCondition.NEUMANN, 10_000
    )
    return abs(truncated / closed - 1.0), 1e-6


def _check_psi_plus_asymptote():
    # anchors of the soft-mode scaling function: the alpha -> 0 value
    # (evaluated at alpha = 1e-8 so it goes through the Bessel route,
    # independently of the stored limit constant) and the limit at infinity
    dev = abs(_rates.psi_plus(1e-8) / _rates.PSI_LIMIT_AT_ZERO - 1.0)
    dev = max(dev, abs(_rates.psi_plus(1e8) - 1.0))
    return dev, 1e-6


def _check_psi_minus_asymptote():
    dev = abs(_rates.psi_minus(1e-8) / _rates.PSI_LIMIT_AT_ZERO - 1.0)
    dev = max(dev, abs(_rates.psi_minus(1e8) / 2.0 - 1.0))
    return dev, 1e-6


def _check_psi_tilde_asymptote():
    dev = abs(_rates.psi_plus_tilde(1e-8) / _rates.PSI_TILDE_LIMIT_AT_ZERO - 1.0)
    dev = max(dev, abs(_rates.psi_plus_tilde(1e8) - 1.0))
    return dev, 1e-6


def _check_phi_switch():
    dev = abs(_rates.phi_switch(0.0) - 0.5)
    dev = max(dev, abs(_rates.phi_switch(1.3) + _rates.phi_switch(-1.3) - 1.0))
    return dev, 1e-14


def _check_continuity_at_critical_length():
    eps = 1e-6
    L_c = math.pi
    left = _rates.prefactor_corrected(L_c * (1.0 - 1e-6), eps, BoundaryCondition.NEUMANN)
    right = _rates.prefactor_corrected(L_c * (1.0 + 1e-6), eps, BoundaryCondition.NEUMANN)
    return abs(left.gamma0_corrected / right.gamma0_corrected - 1.0), 5e-2


def _check_anomalous_neumann_limit():
    eps = 1e-8
    target = (
        math.gamma(0.25)
        / (2.0 * (3.0 * math.pi**7) ** 0.25)
        * math.sqrt(math.sinh(math.sqrt(2.0) * math.pi))
    )
    value = _rates.prefactor_corrected(
        math.pi, eps, BoundaryCondition.NEUMANN
    ).gamma0_corrected * eps**0.25
    return abs(value / target - 1.0), 1e-3


def _check_anomalous_periodic_limit():
    eps = 1e-8
    target = math.sinh(math.sqrt(2.0) * math.pi) / (math.sqrt(3.0) * math.pi)
    value = _rates.prefactor_corrected(
        2.0 * math.pi, eps, BoundaryCondition.PERIODIC
    ).gamma0_corrected * math.sqrt(eps)
    return abs(value / target - 1.0), 1e-3


def _check_instanton_lowest_eigenvalue():
    L = 4.0
    bc = BoundaryCondition.NEUMANN
    m = _instanton.solve_m_from_L(L, bc)
    fieldcfg = _instanton.instanton_profile(L, bc, n_x=1024)
    spec = _spectrum.hessian_spectrum(fieldcfg, L, bc, n_modes=512)
    return abs(float(spec.eigenvalues[0]) / _spectrum.mu0(m) - 1.0), 1e-6


def _check_periodic_zero_mode():
    L = 9.0
    bc = BoundaryCondition.PERIODIC
    fieldcfg = _instanton.instanton_profile(L, bc, n_x=1024)
    spec = _spectrum.hessian_spectrum(fieldcfg, L, bc, n_modes=512)
    return float(min(abs(ev) for ev in spec.expanded())), 1e-6


def _check_psi_plus_quadrature():
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        oracle = _psi_plus_quadrature(alpha, math.pi / 2.0, 1e-3)
        dev = max(dev, abs(_rates.psi_plus(alpha) / oracle - 1.0))
    return dev, 1e-5


def _check_psi_minus_quadrature():
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        oracle = _psi_minus_quadrature(alpha, 4.0, 1e-2)
        dev = max(dev, abs(_rates.psi_minus(alpha) / oracle - 1.0))
    return dev, 1e-5


def _check_psi_tilde_quadrature():
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        oracle = _psi_tilde_quadrature(alpha, 3.0, 1e-3)
        dev = max(dev, abs(_rates.psi_plus_tilde(alpha) / oracle - 1.0))
    return dev, 1e-5


# (name, callable, included with --quick)
VERIFY_CHECKS = (
    ("elliptic legendre relation", _check_legendre_relation, True),
    ("jacobi sn quarter period", _check_sn_quarter_period, True),
    ("bessel K from I connection", _check_bessel_connection, True),
    ("erf complement", _check_erf_complement, True),
    ("modulus solver roundtrip", _check_modulus_roundtrip, True),
    ("activation energy quadrature", _check_activation_energy_quadrature, True),
    ("determinant prefactor convergence", _check_determinant_prefactor, True),
    ("psi_plus asymptote", _check_psi_plus_asymptote, True),
    ("psi_minus asymptote", _check_psi_minus_asymptote, True),
    ("psi_tilde asymptote", _check_psi_tilde_asymptote, True),
    ("phi switch distribution", _check_phi_switch, True),
    ("continuity at critical length", _check_continuity_at_critical_length, True),
    ("anomalous neumann limit", _check_anomalous_neumann_limit, True),
    ("anomalous periodic limit", _check_anomalous_periodic_limit, True),
    ("instanton lowest eigenvalue", _check_instanton_lowest_eigenvalue, True),
    ("periodic zero mode", _check_periodic_zero_mode, True),
    ("psi_plus quadrature", _check_psi_plus_quadrature, False),
    ("psi_minus quadrature", _check_psi_minus_quadrature, False),
    ("psi_tilde quadrature", _check_psi_tilde_quadrature, False),
)


def cmd_verify(args: argparse.Namespace) -> int:
    quick = bool(getattr(args, "quick", False))
    checks = [c for c in VERIFY_CHECKS if c[2] or not quick]
    name_width = max(len(name) for name, _, _ in checks)
    header = f"{'check':<{name_width}}  {'measured':>12}  {'tolerance':>12}  status"
    print(header)
    print("-" * len(header))
    failures = []
    for name, fn, _ in checks:
        try:
            measured, tol = fn()
            ok = measured <= tol
            measured_text = f"{measured:.3e}"
        except Exception as exc:  # a crashed check is a failed check
            measured_text, tol, ok = f"error: {exc}", float("nan"), False
        if not ok:
            failures.append(name)
        print(
            f"{name:<{name_width}}  {measured_text:>12}  {tol:>12.1e}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    mode = "quick" if quick else "full"
    print(
        f"{len(checks)} checks: {len(checks) - len(failures)} passed, "
        f"{len(failures)} failed (mode: {mode})"
    )
    if failures:
        print("verify failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_physics_flags(parser: argparse.ArgumentParser, *, l_range=False):
    parser.add_argument("--bc", choices=["periodic", "neumann"], default=None)
    parser.add_argument("--L", type=float, default=None, help="interval length")
    if l_range:
        parser.add_argument(
            "--L-range",
            dest="L_range",
            default=None,
            metavar="A:B:STEP",
            help="inclusive L grid",
        )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output file path")


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

    p_rate = sub.add_parser("rate", help="one-point rate breakdown (JSON)")
    _add_physics_flags(p_rate)
    p_rate.add_argument("--eps", type=float, action="append", default=None)

    p_sweep = sub.add_parser("sweep", help="prefactor curves on an L grid (CSV)")
    _add_physics_flags(p_sweep, l_range=True)
    p_sweep.add_argument("--eps", type=float, action="append", default=None)

    p_profile = sub.add_parser("profile", help="instanton profile samples (CSV)")
    _add_physics_flags(p_profile)
    p_profile.add_argument(
        "--modes", type=int, default=None, help="number of profile samples"
    )

    p_spec = sub.add_parser("spectrum", help="transition-state eigenvalues (CSV)")
    _add_physics_flags(p_spec)
    p_spec.add_argument(
        "--modes", type=int, default=None, help="number of eigenvalues to list"
    )

    p_mfpt = sub.add_parser("mfpt", help="Monte Carlo MFPT ensemble (JSON + CSV)")
    _add_physics_flags(p_mfpt)
    p_mfpt.add_argument("--eps", type=float, action="append", default=None)
    p_mfpt.add_argument("--modes", type=int, default=None, help="spectral modes K")
    p_mfpt.add_argument("--dt", type=float, default=None)
    p_mfpt.add_argument("--tmax", type=float, default=None)
    p_mfpt.add_argument("--ntraj", type=int, default=None)
    p_mfpt.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="deterministic self-checks")
    p_verify.add_argument(
        "--quick", action="store_true", help="skip the quadrature oracles"
    )
    return parser


_DISPATCH = {
    "rate": cmd_rate,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
    "spectrum": cmd_spectrum,
    "mfpt": cmd_mfpt,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, NoInstantonRegime, RuntimeError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
