"""Deterministic oracle checks of the rate path: the table ``verify`` runs.

A row of ``CHECKS`` is (name, tolerance, quick, check). A check yields its
deviations from an independent oracle; ``worst`` reduces them to the
largest, or to NaN if any is NaN, so a layer that returns NaN fails its row.
Each kind of check is one function, and a row binds its case with
``functools.partial``. Checks reach the layers through their modules when
they run, a scaling function or limit constant by its name on ``rates``, so
a patched function or constant is what they check. The determinant-product
oracle for the classical prefactor and the quadrature oracles for the
scaling functions live here, their only library caller. scipy is imported
only inside the quadrature oracles, which ``verify --quick`` skips.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import instanton as _instanton
from . import rates as _rates
from . import specfun as _specfun
from . import spectrum as _spectrum
from .instanton import BoundaryCondition

NEU = BoundaryCondition.NEUMANN
PER = BoundaryCondition.PERIODIC

# The paper's anomalous prefactor at the critical length: as eps -> 0,
# gamma0_corrected * eps^(1/4) -> NEUMANN_CRITICAL_CONST at L = pi (Neumann)
# and gamma0_corrected * eps^(1/2) -> PERIODIC_CRITICAL_CONST at L = 2 pi.
NEUMANN_CRITICAL_CONST = (
    math.gamma(0.25)
    / (2.0 * (3.0 * math.pi**7) ** 0.25)
    * math.sqrt(math.sinh(math.sqrt(2.0) * math.pi))
)
PERIODIC_CRITICAL_CONST = math.sinh(math.sqrt(2.0) * math.pi) / (math.sqrt(3.0) * math.pi)


def worst(deviations) -> float:
    """The largest of ``deviations`` (0.0 for none), or NaN if any is NaN."""
    largest = 0.0
    for dev in deviations:
        if math.isnan(dev):
            return math.nan
        largest = max(largest, dev)
    return largest


def _check_legendre_relation():
    for m in (0.3, 0.7):
        lhs = (
            _specfun.elliptic_E(m) * _specfun.elliptic_K(1.0 - m)
            + _specfun.elliptic_E(1.0 - m) * _specfun.elliptic_K(m)
            - _specfun.elliptic_K(m) * _specfun.elliptic_K(1.0 - m)
        )
        yield abs(lhs / (math.pi / 2.0) - 1.0)


def _check_sn_quarter_period():
    for m in (0.25, 0.6):
        quarter = _specfun.elliptic_K(m)
        yield abs(_specfun.jacobi_sn(quarter, m) - 1.0)
        half = _specfun.jacobi_sn(0.5 * quarter, m)
        yield abs(half - 1.0 / math.sqrt(1.0 + math.sqrt(1.0 - m)))


def _check_bessel_connection():
    # K_nu from the two modified Bessel functions of the first kind;
    # small z only: the I difference cancels ~e^{2z} digits at large z
    for z in (0.2, 0.8, 2.0):
        lhs = _specfun.bessel_K14(z)
        rhs = math.pi / (2.0 * math.sin(math.pi * 0.25))
        rhs *= _specfun.bessel_I14(-0.25, z) - _specfun.bessel_I14(0.25, z)
        yield abs(lhs / rhs - 1.0)


def _check_modulus_roundtrip():
    for L, bc in ((4.0, NEU), (7.0, PER)):
        m = _instanton.solve_m_from_L(L, bc)
        c = 2.0 if bc is NEU else 4.0
        yield abs(c * math.sqrt(m + 1.0) * _specfun.elliptic_K(m) / L - 1.0)


def _check_activation_energy_quadrature():
    for L, bc in ((4.0, NEU), (8.0, PER)):
        closed = _instanton.activation_energy(L, bc)
        profile = _instanton.instanton_profile(L, bc, n_x=4096)
        quadrature = _spectrum.energy_functional(profile, L, bc) + L / 4.0
        yield abs(quadrature / closed - 1.0)


def _check_determinant_prefactor():
    L = math.pi / 2.0
    closed = _rates.prefactor_classical(L, NEU)
    truncated = prefactor_from_determinants(L, NEU, 10_000)
    yield abs(truncated / closed - 1.0)


def _check_asymptote(function: str, limit_at_zero: str, limit_at_infinity: float):
    # anchors of a soft-mode scaling function: the alpha -> 0 value
    # (evaluated at alpha = 1e-8 so it goes through the Bessel route,
    # independently of the stored limit constant) and the limit at infinity
    psi = getattr(_rates, function)
    yield abs(psi(1e-8) / getattr(_rates, limit_at_zero) - 1.0)
    yield abs(psi(1e8) / limit_at_infinity - 1.0)


def _check_phi_switch():
    yield abs(_rates.phi_switch(0.0) - 0.5)
    yield abs(_rates.phi_switch(1.3) + _rates.phi_switch(-1.3) - 1.0)


def _check_continuity_at_critical_length():
    eps = 1e-6
    left = _rates.prefactor_corrected(math.pi * (1.0 - 1e-6), eps, NEU)
    right = _rates.prefactor_corrected(math.pi * (1.0 + 1e-6), eps, NEU)
    yield abs(left.gamma0_corrected / right.gamma0_corrected - 1.0)


def _check_anomalous_limit(bc: BoundaryCondition, exponent: float, constant: float):
    eps = 1e-8
    rate = _rates.prefactor_corrected(bc.critical_length, eps, bc)
    yield abs(rate.gamma0_corrected * eps**exponent / constant - 1.0)


def _check_instanton_lowest_eigenvalue():
    L = 4.0
    m = _instanton.solve_m_from_L(L, NEU)
    profile = _instanton.instanton_profile(L, NEU, n_x=1024)
    spec = _spectrum.hessian_spectrum(profile, L, NEU, n_modes=512)
    yield abs(float(spec.eigenvalues[0]) / _instanton.mu0(m) - 1.0)


def _check_periodic_zero_mode():
    L = 9.0
    profile = _instanton.instanton_profile(L, PER, n_x=1024)
    spec = _spectrum.hessian_spectrum(profile, L, PER, n_modes=512)
    yield float(min(abs(ev) for ev in spec.expanded()))


# Determinant-product oracle for the classical prefactor below the critical
# length, where the transition state is uniform and both spectra are closed
# forms.


def prefactor_from_determinants(L: float, bc: BoundaryCondition, K_max: int) -> float:
    """(1/2 pi) |lambda_0| sqrt(prod_k eta_k/|lambda_k|), truncated at K_max.

    Multiplicities follow the boundary condition (periodic modes k >= 1
    are double). The O(1/K) truncation error is removed by Richardson
    extrapolation of log-products at K_max and K_max/2; converges to
    prefactor_classical. Only defined below the critical length, where
    the transition state is uniform.
    """
    L, bc = _specfun._real("L", L, 0.0), BoundaryCondition.parse(bc)
    if L >= bc.critical_length:
        raise ValueError(
            "determinant product is only defined below the critical length "
            f"L_c = {bc.critical_length}"
        )
    K_max = _specfun._count("K_max", K_max, 10)

    def log_product(K: int) -> float:
        trans = _spectrum.uniform_spectrum(L, bc, "transition", K).expanded()
        stab = _spectrum.uniform_spectrum(L, bc, "stable", K).expanded()
        return float(np.sum(np.log(stab) - np.log(np.abs(trans))))

    ln_prod = 2.0 * log_product(K_max) - log_product(K_max // 2)
    abs_lambda0 = 1.0
    return abs_lambda0 * math.exp(0.5 * ln_prod) / (2.0 * math.pi)


# Quadrature oracles for the scaling functions: the partition integral of
# the soft-mode normal form V(phi) = L (lambda1 phi^2/2 + 3 phi^4/8), where
# 3/8 comes from the cubic nonlinearity of the field equation.


def _quartic_integral(lambda1: float, L: float, eps: float) -> float:
    """Adaptive quadrature of int_-oo^oo exp(-V(phi)/eps) dphi.

    The integrand maximum is factored out first so double wells
    (lambda1 < 0) integrate at full relative precision; the quadrature
    window covers every point within 200 eps of the maximum.
    """
    from scipy.integrate import quad

    if not (math.isfinite(lambda1) and 0 < L < math.inf and 0 < eps < math.inf):
        raise ValueError(
            f"need finite lambda1, L > 0, eps > 0; got {lambda1}, {L}, {eps}"
        )

    def potential(phi: float) -> float:
        p2 = phi * phi
        return L * (0.5 * lambda1 * p2 + 0.375 * p2 * p2)

    if lambda1 < 0:
        phi_star = math.sqrt(-lambda1 / 1.5)  # the wells: V'(phi) = 0, 1.5 = 4 * 3/8
        v_min = potential(phi_star)
    else:
        phi_star = 0.0
        v_min = 0.0

    def integrand(phi: float) -> float:
        return math.exp(-(potential(phi) - v_min) / eps)

    width = (eps / (L * 0.375)) ** 0.25
    if lambda1 > 0:
        width = min(width, math.sqrt(eps / (L * lambda1)))
    upper = phi_star + width
    for _ in range(200):
        if (potential(upper) - v_min) / eps > 200.0:
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
    gaussian = math.sqrt(2.0 * math.pi * eps / (L * lam1))
    ratio = _quartic_integral(lam1, L, eps) / gaussian
    return ratio * math.sqrt((lam1 + a) / lam1)


def _psi_minus_quadrature(alpha: float, L: float, eps: float) -> float:
    """psi_minus from the double-well partition integral.

    The normal form with quadratic coefficient -mu1/2 has its two wells
    at curvature exactly L*mu1; the well-depth Boltzmann factor
    exp(L mu1^2/(24 eps)) is removed before normalizing.
    """
    a = math.sqrt(3.0 * eps / (4.0 * L))
    mu1 = alpha * a
    well_depth = math.exp(-L * mu1 * mu1 / (24.0 * eps))
    shifted = _quartic_integral(-0.5 * mu1, L, eps) * well_depth
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


def _check_quadrature(function: str, oracle, L: float, eps: float):
    psi = getattr(_rates, function)
    for alpha in (0.5, 1.0, 2.0, 5.0):
        yield abs(psi(alpha) / oracle(alpha, L, eps) - 1.0)


CHECKS = (
    ("elliptic legendre relation", 5e-14, True, _check_legendre_relation),
    ("jacobi sn quarter period", 1e-12, True, _check_sn_quarter_period),
    ("bessel K from I connection", 1e-12, True, _check_bessel_connection),
    ("modulus solver roundtrip", 1e-10, True, _check_modulus_roundtrip),
    ("activation energy quadrature", 1e-8, True, _check_activation_energy_quadrature),
    ("determinant prefactor convergence", 1e-6, True, _check_determinant_prefactor),
    ("psi_plus asymptote", 1e-6, True,
     partial(_check_asymptote, "psi_plus", "PSI_LIMIT_AT_ZERO", 1.0)),
    ("psi_minus asymptote", 1e-6, True,
     partial(_check_asymptote, "psi_minus", "PSI_LIMIT_AT_ZERO", 2.0)),
    ("psi_tilde asymptote", 1e-6, True,
     partial(_check_asymptote, "psi_plus_tilde", "PSI_TILDE_LIMIT_AT_ZERO", 1.0)),
    ("phi switch distribution", 1e-14, True, _check_phi_switch),
    ("continuity at critical length", 5e-2, True, _check_continuity_at_critical_length),
    ("anomalous neumann limit", 1e-3, True,
     partial(_check_anomalous_limit, NEU, 0.25, NEUMANN_CRITICAL_CONST)),
    ("anomalous periodic limit", 1e-3, True,
     partial(_check_anomalous_limit, PER, 0.5, PERIODIC_CRITICAL_CONST)),
    ("instanton lowest eigenvalue", 1e-6, True, _check_instanton_lowest_eigenvalue),
    ("periodic zero mode", 1e-6, True, _check_periodic_zero_mode),
    ("psi_plus quadrature", 1e-5, False,
     partial(_check_quadrature, "psi_plus", _psi_plus_quadrature, math.pi / 2.0, 1e-3)),
    ("psi_minus quadrature", 1e-5, False,
     partial(_check_quadrature, "psi_minus", _psi_minus_quadrature, 4.0, 1e-2)),
    ("psi_tilde quadrature", 1e-5, False,
     partial(_check_quadrature, "psi_plus_tilde", _psi_tilde_quadrature, 3.0, 1e-3)),
)
