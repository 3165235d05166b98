"""Noise-activated transition rates between the two stable interface states.

Classical Kramers prefactors (which diverge at the critical interval
length where the transition state bifurcates), bifurcation-corrected
prefactors built from universal scaling functions of Bessel and error
function type, and the full rate Gamma = Gamma_0 exp(-deltaW/eps). The
module imports no numpy.
"""

from __future__ import annotations

import math

from .instanton import (
    BoundaryCondition,
    SystemParams,
    _instanton_energy,
    _Record,
    _set_field,
    mu0,
    mu1_approx,
    solve_m_from_L,
)
from .specfun import _elliptic_KE, _real, bessel_I14, bessel_K14, erfcx

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)

# common alpha -> 0 limit of psi_plus and psi_minus
PSI_LIMIT_AT_ZERO = math.gamma(0.25) * 2.0**-1.25 / math.sqrt(math.pi)
PSI_TILDE_LIMIT_AT_ZERO = math.sqrt(math.pi / 8.0)

# limit of lambda_1/sin(L pi/L_c) at L = L_c, for either bc
_CRITICAL_MODE_RATIO = 2.0 / math.pi


class DivergentClassicalPrefactor(ValueError):
    """The classical prefactor has a genuine divergence at L = L_c."""


class RateBreakdown(_Record):
    """Full decomposition of a transition rate at one (L, eps, bc) point.

    eps_exponent records the explicit power of eps carried inside
    gamma0_corrected: 0 generically, -1/2 on the periodic branch beyond
    the critical length where nucleation can occur anywhere in space.
    m is the instanton modulus on the instanton branch, None on the
    uniform one. log_rate is log(gamma0_corrected) - deltaW/eps, finite
    where rate underflows to 0; None if not given.
    """

    __slots__ = (
        "regime", "deltaW", "gamma0_classical", "correction_factor",
        "gamma0_corrected", "eps_exponent", "rate", "m", "log_rate",
    )

    def __init__(
        self, regime: str, deltaW: float, gamma0_classical: float,
        correction_factor: float, gamma0_corrected: float, eps_exponent: float,
        rate: float, m: float | None = None, log_rate: float | None = None,
    ):
        if regime not in ("uniform_saddle", "instanton_saddle"):
            raise ValueError(f"unknown regime {regime!r}")
        if not (math.isfinite(gamma0_corrected) and gamma0_corrected > 0):
            raise ValueError("corrected prefactor must be finite and positive")
        if not (math.isfinite(deltaW) and deltaW > 0):
            raise ValueError("activation energy must be finite and positive")
        _set_field(self, "regime", regime)
        _set_field(self, "deltaW", deltaW)
        _set_field(self, "gamma0_classical", gamma0_classical)
        _set_field(self, "correction_factor", correction_factor)
        _set_field(self, "gamma0_corrected", gamma0_corrected)
        _set_field(self, "eps_exponent", eps_exponent)
        _set_field(self, "rate", rate)
        _set_field(self, "m", m)
        _set_field(self, "log_rate", log_rate)


# ---------------------------------------------------------------------------
# Universal scaling functions. All three interpolate between a finite
# value at alpha = 0 (soft-mode regime) and the classical limit as
# alpha -> infinity; evaluated through scaled Bessel functions so large
# arguments neither overflow nor cancel.
# ---------------------------------------------------------------------------


def psi_plus(alpha: float) -> float:
    """sqrt(alpha(1+alpha)/(8 pi)) e^{alpha^2/16} K_{1/4}(alpha^2/16).

    Limit at 0: Gamma(1/4) 2^{-5/4} / sqrt(pi); tends to 1 as alpha -> oo.
    """
    alpha = _real("alpha", alpha, 0.0, math.inf, "[)")
    if alpha < 1e-100:
        return PSI_LIMIT_AT_ZERO
    z = alpha * alpha / 16.0
    value = math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * bessel_K14(
        z, scaled=True
    )
    # from alpha ~ 1.3e154 on the product overflows; the limit 1 is exact there
    return value if math.isfinite(value) else 1.0


def psi_minus(alpha: float) -> float:
    """sqrt(pi alpha(1+alpha)/32) e^{-alpha^2/64} [I_{-1/4}+I_{1/4}](alpha^2/64).

    Same limit at 0 as psi_plus; tends to 2 as alpha -> oo.
    """
    alpha = _real("alpha", alpha, 0.0, math.inf, "[)")
    if alpha < 1e-100:
        return PSI_LIMIT_AT_ZERO
    z = alpha * alpha / 64.0
    pair = bessel_I14(-0.25, z, scaled=True) + bessel_I14(0.25, z, scaled=True)
    value = math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * pair
    # from alpha ~ 7.6e153 on the product overflows; the limit 2 is exact there
    return value if math.isfinite(value) else 2.0


def psi_plus_tilde(alpha: float) -> float:
    """sqrt(pi/8)(1+alpha) e^{alpha^2/8} erfc(alpha/(2 sqrt 2)).

    Two-mode variant of psi_plus; sqrt(pi/8) at 0, tends to 1 as
    alpha -> oo.
    """
    alpha = _real("alpha", alpha, 0.0, math.inf, "[)")
    return PSI_TILDE_LIMIT_AT_ZERO * (1.0 + alpha) * erfcx(alpha / (2.0 * _SQRT2))


def phi_switch(x: float) -> float:
    """Standard normal distribution function, 0.5 [1 + erf(x/sqrt 2)]."""
    return 0.5 * (1.0 + math.erf(_real("x", x) / _SQRT2))


# ---------------------------------------------------------------------------
# Elliptic-integral combinations entering the instanton-branch
# prefactors. Both vanish linearly in m; the Neumann combination and the
# periodic ratio m / combination are evaluated by series below a small-m
# switch to avoid the K - E cancellation.
# ---------------------------------------------------------------------------


def _neumann_det_combo(m: float, K: float, E: float) -> float:
    """|(1-m)K - (1+m)E| = (3 pi/4) m [1 - m/8 - m^2/64 + O(m^3)], K = K(m), E = E(m)."""
    if m < 1e-4:
        return 0.75 * math.pi * m * (1.0 - m / 8.0 - m * m / 64.0)
    return abs((1.0 - m) * K - (1.0 + m) * E)


def _periodic_m_over_det(m: float, K: float, E: float) -> float:
    """m / |K - ((1+m)/(1-m))E|, K = K(m), E = E(m); 4/(3 pi) [1 - 7m/8 + O(m^2)]."""
    if m < 1e-6:
        return 4.0 / (3.0 * math.pi) / (1.0 + 7.0 * m / 8.0)
    return m / abs(K - (1.0 + m) / (1.0 - m) * E)


def _log_sinh(x: float) -> float:
    """log(sinh(x)) for x > 0 without overflow."""
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _lambda1(L: float, L_c: float) -> float:
    """lambda_1 = -1 + (L_c/L)^2, cancellation-free; inf once L^2 underflows."""
    L2 = L * L
    return (L_c - L) * (L_c + L) / L2 if L2 else math.inf


def _too_short(L: float, lam1: float, alpha: float) -> ValueError:
    return ValueError(
        f"L = {L!r} is too short: lambda_1 = (L_c/L)^2 - 1 = {lam1:.3g} and alpha = "
        f"lambda_1/a = {alpha:.3g} put the corrected prefactor beyond double range"
    )


def _mode_ratio(L: float, bc: BoundaryCondition, lam1: float) -> float:
    """lambda_1 / sin(L pi/L_c): sin(L) Neumann, sin(L/2) periodic; 2/pi at L_c."""
    if lam1 == 0.0:
        return _CRITICAL_MODE_RATIO
    return lam1 / math.sin(L * (math.pi / bc.critical_length))


# ---------------------------------------------------------------------------
# Classical prefactors (divergent at L_c) and corrected prefactors
# (finite everywhere).
# ---------------------------------------------------------------------------


def prefactor_classical(
    L: float, bc: BoundaryCondition, eps: float | None = None
) -> float:
    """Classical Kramers prefactor Gamma_0; diverges at L = L_c.

    Below the critical length the saddle is uniform and the prefactor is
    a ratio of determinant products in closed form. Beyond it, the
    saddle is the instanton profile and the determinants involve
    complete elliptic integrals. The periodic instanton branch carries
    an explicit eps^{-1/2} (nucleation anywhere in space) and therefore
    requires eps; the other branches take it, checked, and ignore it.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    if eps is not None:
        eps = _real("eps", eps, 0.0)
    L_c = bc.critical_length
    if L == L_c:
        raise DivergentClassicalPrefactor(
            f"classical prefactor diverges at the critical length L = {L_c}"
        )
    if L < L_c:
        return _uniform_classical(L, bc)
    if bc is BoundaryCondition.PERIODIC and eps is None:
        raise ValueError(
            "eps is required on the periodic branch beyond the critical length"
        )
    m = solve_m_from_L(L, bc)
    return _classical_instanton(L, bc, m, *_elliptic_KE(m), eps)


def _uniform_classical(L: float, bc: BoundaryCondition) -> float:
    """Classical prefactor below L_c: the closed-form determinant ratio."""
    if bc is BoundaryCondition.NEUMANN:
        return (2.0**-0.75 / math.pi) * math.sqrt(math.sinh(_SQRT2 * L) / math.sin(L))
    return math.sinh(L / _SQRT2) / math.sin(0.5 * L) / (2.0 * math.pi)


def _classical_instanton(
    L: float, bc: BoundaryCondition, m: float, K: float, E: float, eps: float | None
) -> float:
    """Classical prefactor beyond L_c at the instanton modulus m, K = K(m), E = E(m)."""
    if bc is BoundaryCondition.NEUMANN:
        det = _neumann_det_combo(m, K, E)
        ln_val = 0.5 * (_log_sinh(_SQRT2 * L) - math.log(_SQRT2 * det))
        return abs(mu0(m)) / math.pi * math.exp(ln_val)
    ratio = _periodic_m_over_det(m, K, E)  # m / det, finite down to m = 0
    ln_val = (
        math.log(L)
        + math.log(abs(mu0(m)))
        - 1.5 * math.log(2.0 * math.pi)
        + _log_sinh(L / _SQRT2)
        + 0.5 * math.log(2.0 * ratio * (1.0 - m) / (1.0 + m) ** 2.5)
        - 0.5 * math.log(eps)
    )
    return math.exp(ln_val)


def prefactor_corrected(L: float, eps: float, bc: BoundaryCondition) -> RateBreakdown:
    """Bifurcation-corrected prefactor, finite for L > 0 down to about 1e-102.

    Uniform branches attach the scaling functions psi_plus (Neumann) or
    psi_plus_tilde (periodic, two bifurcating modes) to the soft mode;
    instanton branches multiply the classical value by the psi_minus
    factor (Neumann) or by the normal-distribution switch (periodic).
    The soft-mode combination lambda_1/sin(...) is evaluated as a single
    ratio so the formulas stay finite and smooth through L_c.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    eps = _real("eps", eps, 0.0, 0.5, "(]")
    L_c = bc.critical_length
    a = math.sqrt(3.0 * eps / (4.0 * L))
    if a == 0.0:
        raise ValueError(
            f"eps = {eps!r} is too small: a = sqrt(3 eps/(4L)) underflows to 0"
        )
    eps_exponent = 0.0
    m = None

    if L <= L_c:
        regime = "uniform_saddle"
        lam1 = _lambda1(L, L_c)
        alpha = lam1 / a
        if not alpha < math.inf:  # NaN once a overflows too
            raise _too_short(L, lam1, alpha)
        ratio = _mode_ratio(L, bc, lam1)
        if bc is BoundaryCondition.NEUMANN:
            psi = psi_plus(alpha)
            correction = math.sqrt(lam1 / (lam1 + a)) * psi
            corrected = (
                (2.0**-0.75 / math.pi)
                * math.sqrt(math.sinh(_SQRT2 * L) * ratio / (lam1 + a))
                * psi
            )
        else:
            psi = psi_plus_tilde(alpha)
            correction = lam1 / (lam1 + a) * psi
            corrected = (
                psi * ratio / (lam1 + a) * math.sinh(L / _SQRT2) / (2.0 * math.pi)
            )
        if not math.isfinite(corrected):
            raise _too_short(L, lam1, alpha)
        classical = _uniform_classical(L, bc) if L < L_c else math.inf
        deltaW = L / 4.0
    else:
        regime = "instanton_saddle"
        m = solve_m_from_L(L, bc)
        K, E = _elliptic_KE(m)
        if bc is BoundaryCondition.NEUMANN:
            mu1 = mu1_approx(m)
            correction = 0.5 * math.sqrt(mu1 / (mu1 + a)) * psi_minus(mu1 / a)
        else:
            correction = phi_switch(3.0 * m / (2.0 * math.sqrt(3.0 * eps / L)))
            eps_exponent = -0.5
        classical = _classical_instanton(L, bc, m, K, E, eps)
        corrected = classical * correction
        deltaW = _instanton_energy(m, K, E, bc)

    barrier = deltaW / eps
    rate = corrected * math.exp(-barrier)
    return RateBreakdown(
        regime=regime,
        deltaW=deltaW,
        gamma0_classical=classical,
        correction_factor=correction,
        gamma0_corrected=corrected,
        eps_exponent=eps_exponent,
        rate=rate,
        m=m,
        log_rate=math.log(corrected) - barrier,
    )


def kramers_rate(params: SystemParams) -> RateBreakdown:
    """Full transition rate Gamma = Gamma_0 exp(-deltaW/eps) at params."""
    return prefactor_corrected(params.L, params.eps, params.bc)
