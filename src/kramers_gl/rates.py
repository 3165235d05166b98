"""Noise-activated transition rates between the two stable interface states.

Classical Kramers prefactors (which diverge at the critical interval
length where the transition state bifurcates), bifurcation-corrected
prefactors built from universal scaling functions of Bessel and error
function type, determinant-product and quadrature oracles, and the full
rate Gamma = Gamma_0 exp(-deltaW/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instanton import (
    BoundaryCondition,
    InstantonDescription,
    SystemParams,
    _instanton_energy,
    activation_energy,
    solve_m_from_L,
)
from .specfun import _elliptic_KE, bessel_I14, bessel_K14, elliptic_K, erf, erfcx
from .spectrum import mu0, mu1_approx

# numpy, the numeric spectra and scipy are imported inside the oracles
# and the mu1="numeric" path, so a closed-form rate loads none of them

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)

# common alpha -> 0 limit of psi_plus and psi_minus
PSI_LIMIT_AT_ZERO = math.gamma(0.25) * 2.0**-1.25 / math.sqrt(math.pi)
PSI_TILDE_LIMIT_AT_ZERO = math.sqrt(math.pi / 8.0)

# lambda_1/sin(L) (Neumann) and lambda_1/sin(L/2) (periodic) share the
# limit 2/pi at the respective critical lengths
_CRITICAL_MODE_RATIO = 2.0 / math.pi


class DivergentClassicalPrefactor(ValueError):
    """The classical prefactor has a genuine divergence at L = L_c."""


@dataclass(frozen=True)
class RateBreakdown:
    """Full decomposition of a transition rate at one (L, eps, bc) point.

    eps_exponent records the explicit power of eps carried inside
    gamma0_corrected: 0 generically, -1/2 on the periodic branch beyond
    the critical length where nucleation can occur anywhere in space.
    m is the instanton modulus on the instanton branch, None on the
    uniform one.
    """

    regime: str
    deltaW: float
    gamma0_classical: float
    correction_factor: float
    gamma0_corrected: float
    eps_exponent: float
    rate: float
    m: float | None = None

    def __post_init__(self):
        if self.regime not in ("uniform_saddle", "instanton_saddle"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not (math.isfinite(self.gamma0_corrected) and self.gamma0_corrected > 0):
            raise ValueError("corrected prefactor must be finite and positive")
        if not (math.isfinite(self.deltaW) and self.deltaW > 0):
            raise ValueError("activation energy must be finite and positive")


@dataclass(frozen=True)
class QuarticNormalForm:
    """Reduced potential L*(lambda1 phi^2 / 2 + quartic_coeff phi^4)
    along a normalized soft mode; quartic_coeff is 3/8 for the cubic
    nonlinearity of the field equation."""

    lambda1: float
    quartic_coeff: float = 0.375
    L: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.lambda1):
            raise ValueError(f"lambda1 must be finite, got {self.lambda1}")
        if not (math.isfinite(self.quartic_coeff) and self.quartic_coeff > 0):
            raise ValueError(f"quartic_coeff must be positive, got {self.quartic_coeff}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")

    def potential(self, phi: float) -> float:
        p2 = phi * phi
        return self.L * (0.5 * self.lambda1 * p2 + self.quartic_coeff * p2 * p2)


# ---------------------------------------------------------------------------
# Universal scaling functions. All three interpolate between a finite
# value at alpha = 0 (soft-mode regime) and the classical limit as
# alpha -> infinity; evaluated through scaled Bessel functions so large
# arguments neither overflow nor cancel.
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"scaling functions require alpha >= 0, got {alpha}")
    return alpha


def psi_plus(alpha: float) -> float:
    """sqrt(alpha(1+alpha)/(8 pi)) e^{alpha^2/16} K_{1/4}(alpha^2/16).

    Limit at 0: Gamma(1/4) 2^{-5/4} / sqrt(pi); tends to 1 as alpha -> oo.
    """
    alpha = _check_alpha(alpha)
    if alpha < 1e-100:
        return PSI_LIMIT_AT_ZERO
    z = alpha * alpha / 16.0
    return math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * bessel_K14(
        z, scaled=True
    )


def psi_minus(alpha: float) -> float:
    """sqrt(pi alpha(1+alpha)/32) e^{-alpha^2/64} [I_{-1/4}+I_{1/4}](alpha^2/64).

    Same limit at 0 as psi_plus; tends to 2 as alpha -> oo.
    """
    alpha = _check_alpha(alpha)
    if alpha < 1e-100:
        return PSI_LIMIT_AT_ZERO
    z = alpha * alpha / 64.0
    pair = bessel_I14(-0.25, z, scaled=True) + bessel_I14(0.25, z, scaled=True)
    return math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * pair


def psi_plus_tilde(alpha: float) -> float:
    """sqrt(pi/8)(1+alpha) e^{alpha^2/8} erfc(alpha/(2 sqrt 2)).

    Two-mode variant of psi_plus; sqrt(pi/8) at 0, tends to 1 as
    alpha -> oo.
    """
    alpha = _check_alpha(alpha)
    return PSI_TILDE_LIMIT_AT_ZERO * (1.0 + alpha) * erfcx(alpha / (2.0 * _SQRT2))


def phi_switch(x: float) -> float:
    """Standard normal distribution function, 0.5 [1 + erf(x/sqrt 2)]."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"phi_switch requires finite x, got {x}")
    return 0.5 * (1.0 + erf(x / _SQRT2))


# ---------------------------------------------------------------------------
# Elliptic-integral combinations entering the instanton-branch
# prefactors. Both vanish linearly in m and are evaluated by series
# below a small-m switch to avoid the K - E cancellation.
# ---------------------------------------------------------------------------


def _neumann_det_combo(m: float) -> float:
    """|(1-m)K(m) - (1+m)E(m)| = (3 pi/4) m [1 - m/8 - m^2/64 + O(m^3)]."""
    if m < 1e-4:
        return 0.75 * math.pi * m * (1.0 - m / 8.0 - m * m / 64.0)
    K, E = _elliptic_KE(m)
    return abs((1.0 - m) * K - (1.0 + m) * E)


def _periodic_det_combo(m: float) -> float:
    """|K(m) - ((1+m)/(1-m)) E(m)| = (3 pi/4) m [1 + 7m/8 + O(m^2)]."""
    if m < 1e-6:
        return 0.75 * math.pi * m * (1.0 + 7.0 * m / 8.0)
    K, E = _elliptic_KE(m)
    return abs(K - (1.0 + m) / (1.0 - m) * E)


def _periodic_m_over_det(m: float) -> float:
    """m / |K - ((1+m)/(1-m))E|, finite as m -> 0 (limit 4/(3 pi))."""
    if m < 1e-6:
        return 4.0 / (3.0 * math.pi) / (1.0 + 7.0 * m / 8.0)
    return m / _periodic_det_combo(m)


def _log_sinh(x: float) -> float:
    """log(sinh(x)) for x > 0 without overflow."""
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _lambda1(L: float, L_c: float) -> float:
    """First transverse eigenvalue -1 + (L_c/L)^2, cancellation-free."""
    return (L_c - L) * (L_c + L) / (L * L)


def _mode_ratio(L: float, bc: BoundaryCondition, lam1: float) -> float:
    """lambda_1 / sin(L) resp. lambda_1 / sin(L/2); limit 2/pi at L_c."""
    if lam1 == 0.0:
        return _CRITICAL_MODE_RATIO
    if bc is BoundaryCondition.NEUMANN:
        return lam1 / math.sin(L)
    return lam1 / math.sin(0.5 * L)


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
    requires eps.
    """
    bc = BoundaryCondition.parse(bc)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    L_c = bc.critical_length
    if L == L_c:
        raise DivergentClassicalPrefactor(
            f"classical prefactor diverges at the critical length L = {L_c}"
        )
    if L < L_c:
        if bc is BoundaryCondition.NEUMANN:
            return (2.0**-0.75 / math.pi) * math.sqrt(
                math.sinh(_SQRT2 * L) / math.sin(L)
            )
        return math.sinh(L / _SQRT2) / math.sin(0.5 * L) / (2.0 * math.pi)
    if bc is BoundaryCondition.PERIODIC:
        if eps is None:
            raise ValueError(
                "eps is required on the periodic branch beyond the critical length"
            )
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be positive and finite, got {eps}")
    return _classical_instanton(L, bc, solve_m_from_L(L, bc), eps)


def _classical_instanton(
    L: float, bc: BoundaryCondition, m: float, eps: float | None
) -> float:
    """Classical prefactor beyond L_c at the instanton modulus m."""
    if bc is BoundaryCondition.NEUMANN:
        det = _neumann_det_combo(m)
        ln_val = 0.5 * (_log_sinh(_SQRT2 * L) - math.log(_SQRT2 * det))
        return abs(mu0(m)) / math.pi * math.exp(ln_val)
    ratio = _periodic_m_over_det(m)  # m / det, finite down to m = 0
    ln_val = (
        math.log(L)
        + math.log(abs(mu0(m)))
        - 1.5 * math.log(2.0 * math.pi)
        + _log_sinh(L / _SQRT2)
        + 0.5 * math.log(2.0 * ratio * (1.0 - m) / (1.0 + m) ** 2.5)
        - 0.5 * math.log(eps)
    )
    return math.exp(ln_val)


def _mu1_value(L: float, m: float, mu1: str) -> float:
    """Second transition-state eigenvalue: 3m substitution or diagonalized."""
    if mu1 == "approx":
        return mu1_approx(m)
    if mu1 == "numeric":
        from .spectrum import hessian_spectrum

        bc = BoundaryCondition.NEUMANN
        prof = InstantonDescription(m=m, phase=elliptic_K(m), sign=1, bc=bc).sample(L)
        spec = hessian_spectrum(prof, L, bc, n_modes=256)
        return float(spec.eigenvalues[1])
    raise ValueError(f"mu1 must be 'approx' or 'numeric', got {mu1!r}")


def prefactor_corrected(
    L: float, eps: float, bc: BoundaryCondition, mu1: str = "approx"
) -> RateBreakdown:
    """Bifurcation-corrected prefactor, finite for every L > 0.

    Uniform branches attach the scaling functions psi_plus (Neumann) or
    psi_plus_tilde (periodic, two bifurcating modes) to the soft mode;
    instanton branches multiply the classical value by the psi_minus
    factor (Neumann) or by the normal-distribution switch (periodic).
    The soft-mode combination lambda_1/sin(...) is evaluated as a single
    ratio so the formulas stay finite and smooth through L_c.
    """
    bc = BoundaryCondition.parse(bc)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    if not (math.isfinite(eps) and 0.0 < eps <= 0.5):
        raise ValueError(f"eps must lie in (0, 0.5], got {eps}")
    L_c = bc.critical_length
    a = math.sqrt(3.0 * eps / (4.0 * L))
    eps_exponent = 0.0
    m = None

    if L <= L_c:
        regime = "uniform_saddle"
        lam1 = max(0.0, _lambda1(L, L_c))
        alpha = lam1 / a
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
        try:
            classical = prefactor_classical(L, bc, eps)
        except DivergentClassicalPrefactor:
            classical = math.inf
        deltaW = activation_energy(L, bc)
    else:
        regime = "instanton_saddle"
        m = solve_m_from_L(L, bc)
        if bc is BoundaryCondition.NEUMANN:
            mu1_val = _mu1_value(L, m, mu1)
            correction = 0.5 * math.sqrt(mu1_val / (mu1_val + a)) * psi_minus(
                mu1_val / a
            )
        else:
            correction = phi_switch(3.0 * m / (2.0 * math.sqrt(3.0 * eps / L)))
            eps_exponent = -0.5
        classical = _classical_instanton(L, bc, m, eps)
        corrected = classical * correction
        deltaW = _instanton_energy(m, bc)

    rate = corrected * math.exp(-deltaW / eps)
    return RateBreakdown(
        regime=regime,
        deltaW=deltaW,
        gamma0_classical=classical,
        correction_factor=correction,
        gamma0_corrected=corrected,
        eps_exponent=eps_exponent,
        rate=rate,
        m=m,
    )


def kramers_rate(params: SystemParams) -> RateBreakdown:
    """Full transition rate Gamma = Gamma_0 exp(-deltaW/eps) at params."""
    return prefactor_corrected(params.L, params.eps, params.bc)


# ---------------------------------------------------------------------------
# Independent oracles: truncated determinant products and direct
# quadrature of the soft-mode partition integral.
# ---------------------------------------------------------------------------


def prefactor_from_determinants(L: float, bc: BoundaryCondition, K_max: int) -> float:
    """(1/2 pi) |lambda_0| sqrt(prod_k eta_k/|lambda_k|), truncated at K_max.

    Multiplicities follow the boundary condition (periodic modes k >= 1
    are double). The O(1/K) truncation error is removed by Richardson
    extrapolation of log-products at K_max and K_max/2; converges to
    prefactor_classical. Only defined below the critical length, where
    the transition state is uniform.
    """
    import numpy as np

    from .spectrum import uniform_spectrum

    bc = BoundaryCondition.parse(bc)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    if L >= bc.critical_length:
        raise ValueError(
            "determinant product is only defined below the critical length "
            f"L_c = {bc.critical_length}"
        )
    K_max = int(K_max)
    if K_max < 10:
        raise ValueError(f"K_max must be >= 10, got {K_max}")

    def log_product(K: int) -> float:
        trans = uniform_spectrum(L, bc, "transition", K).expanded()
        stab = uniform_spectrum(L, bc, "stable", K).expanded()
        return float(np.sum(np.log(stab) - np.log(np.abs(trans))))

    ln_prod = 2.0 * log_product(K_max) - log_product(K_max // 2)
    abs_lambda0 = 1.0
    return abs_lambda0 * math.exp(0.5 * ln_prod) / (2.0 * math.pi)


def quartic_integral(nf: QuarticNormalForm, eps: float) -> float:
    """Adaptive quadrature of int_-oo^oo exp(-V(phi)/eps) dphi.

    V is the quartic normal form nf.potential. The integrand maximum is
    factored out first so double wells (lambda1 < 0) integrate at full
    relative precision; the quadrature window covers every point within
    200 eps of the maximum.
    """
    from scipy.integrate import quad

    if not isinstance(nf, QuarticNormalForm):
        raise TypeError("nf must be a QuarticNormalForm")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    lam, c4, L = nf.lambda1, nf.quartic_coeff, nf.L

    if lam < 0:
        phi_star = math.sqrt(-lam / (4.0 * c4))
        v_min = nf.potential(phi_star)
    else:
        phi_star = 0.0
        v_min = 0.0

    def integrand(phi: float) -> float:
        return math.exp(-(nf.potential(phi) - v_min) / eps)

    width = (eps / (L * c4)) ** 0.25
    if lam > 0:
        width = min(width, math.sqrt(eps / (L * lam)))
    upper = phi_star + width
    for _ in range(200):
        if (nf.potential(upper) - v_min) / eps > 200.0:
            break
        upper *= 2.0
    points = [phi_star] if 0.0 < phi_star < upper else None
    half, _err = quad(
        integrand, 0.0, upper, points=points, limit=300, epsabs=0.0, epsrel=1e-12
    )
    ln_value = math.log(2.0 * half) - v_min / eps
    if ln_value > 709.0:
        return math.inf
    return math.exp(ln_value)


def _psi_plus_quadrature(alpha: float, L: float, eps: float) -> float:
    """psi_plus from the single-mode partition integral."""
    a = math.sqrt(3.0 * eps / (4.0 * L))
    lam1 = alpha * a
    nf = QuarticNormalForm(lambda1=lam1, L=L)
    ratio = quartic_integral(nf, eps) / math.sqrt(2.0 * math.pi * eps / (L * lam1))
    return ratio * math.sqrt((lam1 + a) / lam1)


def _psi_minus_quadrature(alpha: float, L: float, eps: float) -> float:
    """psi_minus from the double-well partition integral.

    The normal form with quadratic coefficient -mu1/2 has its two wells
    at curvature exactly L*mu1; the well-depth Boltzmann factor
    exp(L mu1^2/(24 eps)) is removed before normalizing.
    """
    a = math.sqrt(3.0 * eps / (4.0 * L))
    mu1 = alpha * a
    nf = QuarticNormalForm(lambda1=-0.5 * mu1, L=L)
    shifted = quartic_integral(nf, eps) * math.exp(-L * mu1 * mu1 / (24.0 * eps))
    ratio = shifted / math.sqrt(2.0 * math.pi * eps / (L * mu1))
    return ratio * math.sqrt((mu1 + a) / mu1)


def _psi_tilde_quadrature(alpha: float, L: float, eps: float) -> float:
    """psi_plus_tilde from the radial form of the two-mode integral."""
    from scipy.integrate import quad

    a = math.sqrt(3.0 * eps / (4.0 * L))
    lam1 = alpha * a

    def integrand(rho):
        return rho * math.exp(-L * (0.5 * lam1 * rho**2 + 0.375 * rho**4) / eps)

    upper = 10.0 * max((eps / L) ** 0.25, math.sqrt(eps / (L * lam1)))
    val, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200)
    return (L * lam1 / eps) * val * (lam1 + a) / lam1
