"""Deterministic oracle checks of the rate path: the table ``verify`` runs.

A row of ``CHECKS`` is (name, tolerance, quick, check). A check yields its
deviations from an independent oracle; ``worst`` reduces them to the
largest, or to NaN if any is NaN, so a layer that returns NaN fails its row.
Each kind of check is one function, and a row binds its case with
``functools.partial``. Checks reach the layers through their modules when
they run, a scaling function or limit constant by its name on ``rates``, so
a patched function or constant is what they check. The determinant-product
oracle for the classical prefactor and one quadrature oracle for the three
scaling functions, the partition integral of the soft-mode normal form in
one or two dimensions, live here, their only library caller. scipy is
imported only inside that oracle, which ``verify --quick`` skips.
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


# Quadrature oracle for the scaling functions: the partition integral of the
# soft-mode normal form V(r) = L (q r^2/2 + 3 r^4/8) on R^dim (3/8: the cubic).


def _psi_quadrature(alpha: float, L: float, eps: float, dim=1, wells=False) -> float:
    """psi_plus (dim 1), psi_minus (dim 1, wells) or psi_plus_tilde (dim 2).

    With kappa = alpha a and a = sqrt(3 eps/4L), q is kappa (one well at
    r = 0) or -kappa/2 (two wells at r^2 = kappa/3, of curvature kappa). The
    result is 2 int_0^oo r^(dim-1) exp(-(V - V_min)/eps) dr
    (L (kappa + a)/(2 eps))^(dim/2) / Gamma(dim/2): the integral over its
    Gaussian approximation times ((kappa + a)/kappa)^(dim/2), whose kappas
    cancel, so alpha = 0 is valid. The window is centred on the well, cut at 0.
    """
    from scipy.integrate import quad

    alpha = _specfun._real("alpha", alpha, 0.0, ends="[)")
    L, eps = _specfun._real("L", L, 0.0), _specfun._real("eps", eps, 0.0)
    dim = _specfun._count("dim", dim, 1)
    a = math.sqrt(3.0 * eps / (4.0 * L))
    kappa = alpha * a
    # V - V_min = L (3 (r^2 - r_well^2)^2/8 + q_plus r^2/2), q_plus = max(q, 0)
    r_well = math.sqrt(kappa / 3.0) if wells else 0.0
    q_plus = 0.0 if wells else kappa

    def excess(r: float) -> float:  # (V(r) - V_min)/eps
        r2 = r * r
        return L * (0.375 * (r2 - r_well * r_well) ** 2 + 0.5 * q_plus * r2) / eps

    width = (eps / (L * 0.375)) ** 0.25  # the quartic scale, or the quadratic if smaller
    if q_plus > 0:
        width = min(width, math.sqrt(eps / (L * q_plus)))
    for _ in range(200):  # until V - V_min > 200 eps at both ends
        if min(excess(r_well - width), excess(r_well + width)) > 200.0:
            break
        width *= 2.0
    half, _err = quad(
        lambda r: r ** (dim - 1) * math.exp(-excess(r)), max(r_well - width, 0.0),
        r_well + width, points=[r_well] if r_well > 0 else None, limit=300,
        epsabs=0.0, epsrel=1e-12,
    )
    return 2.0 * half * (L * (kappa + a) / (2.0 * eps)) ** (0.5 * dim) / math.gamma(0.5 * dim)


def _check_quadrature(function: str, L: float, eps: float, dim: int, wells: bool):
    psi = getattr(_rates, function)
    for alpha in (0.5, 1.0, 2.0, 5.0):
        yield abs(psi(alpha) / _psi_quadrature(alpha, L, eps, dim, wells) - 1.0)


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
     partial(_check_quadrature, "psi_plus", math.pi / 2.0, 1e-3, 1, False)),
    ("psi_minus quadrature", 1e-5, False,
     partial(_check_quadrature, "psi_minus", 4.0, 1e-2, 1, True)),
    ("psi_tilde quadrature", 1e-5, False,
     partial(_check_quadrature, "psi_plus_tilde", 3.0, 1e-3, 2, False)),
)
