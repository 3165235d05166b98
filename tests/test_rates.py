"""Tests for prefactors, scaling functions, and rate assembly.

Oracles: 30-digit mpmath evaluations of the closed forms (frozen
constants below), adaptive-quadrature partition integrals reduced to
the scaling functions through exact normal-form identities, truncated
determinant products, and analytic limits at the critical lengths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kramers_gl import instanton, rates
from kramers_gl.checks import NEUMANN_CRITICAL_CONST, PERIODIC_CRITICAL_CONST
from kramers_gl.instanton import (
    BoundaryCondition,
    SystemParams,
    activation_energy,
    solve_m_from_L,
)
from kramers_gl.rates import (
    PSI_LIMIT_AT_ZERO,
    DivergentClassicalPrefactor,
    QuarticNormalForm,
    RateBreakdown,
    _psi_minus_quadrature,
    _psi_plus_quadrature,
    _psi_tilde_quadrature,
    kramers_rate,
    phi_switch,
    prefactor_classical,
    prefactor_corrected,
    prefactor_from_determinants,
    psi_minus,
    psi_plus,
    psi_plus_tilde,
    quartic_integral,
)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN

# frozen 30-digit mpmath evaluations of the closed forms
PSI_AT_ZERO = 0.86003998732451953538
CLASSICAL_NEU_HALFPI = 0.40399249539949845673
CLASSICAL_PER_PI = 0.72512264149896174796
LIMIT_CONST_NEU = 1.2113599736926229249  # Gamma(1/4)/(2 (3 pi^7)^(1/4)) sqrt(sinh(sqrt2 pi))
LIMIT_CONST_PER = 7.8112216561289836226  # sinh(sqrt2 pi)/(sqrt3 pi)
PHI_AT_ONE = 0.84134474606854294859
PSI_PLUS_AT_TWO = 1.0270233835602344814
PSI_MINUS_AT_FOUR = 2.253932099896026167
PSI_TILDE_AT_ONE = 0.87636445645369234673


# ---------------------------------------------------------------------------
# scaling functions: limits, frozen values, bounds
# ---------------------------------------------------------------------------


def test_psi_limits_at_zero_share_one_constant():
    # Gamma(1/4) 2^{-5/4}/sqrt(pi) and sqrt(pi/32) 2^{7/4}/Gamma(3/4)
    # are the same number by the reflection formula
    c1 = math.gamma(0.25) * 2.0**-1.25 / math.sqrt(math.pi)
    c2 = math.sqrt(math.pi / 32.0) * 2.0**1.75 / math.gamma(0.75)
    assert c1 == pytest.approx(c2, rel=1e-14)
    assert psi_plus(0.0) == pytest.approx(PSI_AT_ZERO, rel=1e-13)
    assert psi_minus(0.0) == pytest.approx(PSI_AT_ZERO, rel=1e-13)
    assert PSI_LIMIT_AT_ZERO == pytest.approx(PSI_AT_ZERO, rel=1e-14)


def test_psi_small_alpha_joins_the_limit():
    for alpha in (1e-120, 1e-12, 1e-6):
        assert psi_plus(alpha) == pytest.approx(PSI_AT_ZERO, rel=1e-4)
        assert psi_minus(alpha) == pytest.approx(PSI_AT_ZERO, rel=1e-4)
    assert psi_plus_tilde(0.0) == pytest.approx(math.sqrt(math.pi / 8.0), rel=1e-15)


def test_psi_frozen_interior_values():
    assert psi_plus(2.0) == pytest.approx(PSI_PLUS_AT_TWO, rel=1e-12)
    assert psi_minus(4.0) == pytest.approx(PSI_MINUS_AT_FOUR, rel=1e-12)
    assert psi_plus_tilde(1.0) == pytest.approx(PSI_TILDE_AT_ONE, rel=1e-12)


def test_psi_asymptotic_limits():
    assert psi_plus(100.0) == pytest.approx(1.0, rel=1e-2)
    assert psi_minus(100.0) == pytest.approx(2.0, rel=1e-2)
    assert psi_plus_tilde(100.0) == pytest.approx(1.0, rel=1e-2)
    # approach is O(1/alpha), so alpha=50 sits ~ 2e-2 away from 1
    assert psi_plus_tilde(50.0) == pytest.approx(1.0, rel=2e-2)
    assert abs(psi_plus_tilde(50.0) - 1.0) > 1.5e-2
    assert psi_plus(1e6) == pytest.approx(1.0, abs=1e-5)


def test_psi_minus_increasing_through_the_crossover():
    assert psi_minus(4.0) > psi_minus(2.0) > psi_minus(1.0) > psi_minus(0.0)


def test_psi_bounds_on_a_grid():
    grid = np.concatenate([np.linspace(0.0, 8.0, 200), np.geomspace(8.0, 500.0, 60)])
    for alpha in grid:
        p = psi_plus(alpha)
        m = psi_minus(alpha)
        t = psi_plus_tilde(alpha)
        assert 0.85 < p < 1.08
        assert 0.85 < m < 2.44  # psi_minus peaks ~2.43 near alpha=6.4
        assert 0.62 < t < 1.10
        # the combination entering the Neumann correction factor never
        # exceeds 1 (up to rounding)
        assert math.sqrt(alpha / (1.0 + alpha)) * p <= 1.0001


def test_psi_domain_errors():
    for f in (psi_plus, psi_minus, psi_plus_tilde):
        with pytest.raises(ValueError):
            f(-0.5)
        with pytest.raises(ValueError):
            f(float("nan"))


def test_phi_switch_values():
    assert phi_switch(0.0) == 0.5
    assert phi_switch(1.0) == pytest.approx(PHI_AT_ONE, rel=1e-12)
    assert phi_switch(40.0) == pytest.approx(1.0, abs=1e-15)
    assert phi_switch(-40.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        phi_switch(float("inf"))


@given(x=st.floats(-30.0, 30.0))
def test_phi_switch_is_a_distribution_function(x):
    v = phi_switch(x)
    assert 0.0 <= v <= 1.0
    assert v + phi_switch(-x) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature equivalences: the scaling functions against the partition
# integral of the quartic normal form (independent adaptive quadrature)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_psi_plus_matches_quadrature(alpha):
    for eps in (1e-4, 1e-3):
        assert psi_plus(alpha) == pytest.approx(
            _psi_plus_quadrature(alpha, math.pi / 2, eps), rel=1e-6
        )


# alpha = 12, 40, 100 put z = alpha^2/64 at 2.25, 25 and 156, on both
# sides of the Bessel regime boundary at z = 80
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 12.0, 40.0, 100.0])
def test_psi_minus_matches_quadrature(alpha):
    for eps in (1e-2,):
        assert psi_minus(alpha) == pytest.approx(
            _psi_minus_quadrature(alpha, 4.0, eps), rel=1e-6
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_psi_tilde_matches_two_mode_radial_quadrature(alpha):
    for eps in (1e-3,):
        assert psi_plus_tilde(alpha) == pytest.approx(
            _psi_tilde_quadrature(alpha, 3.0, eps), rel=1e-6
        )


# ---------------------------------------------------------------------------
# classical prefactors
# ---------------------------------------------------------------------------


def test_classical_neumann_frozen_value():
    assert prefactor_classical(math.pi / 2, NEU) == pytest.approx(
        CLASSICAL_NEU_HALFPI, rel=1e-13
    )


def test_classical_periodic_frozen_value():
    assert prefactor_classical(math.pi, PER) == pytest.approx(
        CLASSICAL_PER_PI, rel=1e-13
    )


def test_classical_raises_exactly_at_critical_length():
    with pytest.raises(DivergentClassicalPrefactor):
        prefactor_classical(math.pi, NEU)
    with pytest.raises(DivergentClassicalPrefactor):
        prefactor_classical(2.0 * math.pi, PER)


def test_classical_neumann_divergence_rate_below():
    # gamma0 ~ C (pi - L)^{-1/2}: the compensated product converges
    vals = [
        prefactor_classical(math.pi - d, NEU) * math.sqrt(d) for d in (1e-5, 1e-7)
    ]
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_classical_neumann_divergence_rate_above():
    vals = [
        prefactor_classical(math.pi + d, NEU) * math.sqrt(d) for d in (1e-5, 1e-7)
    ]
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_classical_periodic_divergence_rate_below():
    vals = [prefactor_classical(2 * math.pi - d, PER) * d for d in (1e-5, 1e-7)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_classical_periodic_finite_limit_above():
    # the instanton-branch value converges to twice the corrected limit
    eps = 1e-4
    lim = prefactor_classical(2 * math.pi + 1e-9, PER, eps) * math.sqrt(eps)
    assert lim == pytest.approx(2.0 * LIMIT_CONST_PER, rel=1e-6)


def test_classical_periodic_instanton_needs_eps():
    with pytest.raises(ValueError, match="eps"):
        prefactor_classical(7.0, PER)
    assert prefactor_classical(7.0, PER, 1e-3) > 0


def test_classical_neumann_ignores_eps_below_critical():
    assert prefactor_classical(2.0, NEU) == prefactor_classical(2.0, NEU, 1e-3)


def test_classical_long_domain_soft_mode_suppression():
    # near the top of the resolvable modulus range the translation mode
    # softens (mu0 ~ -3(1-m)^2/8), so the prefactor is tiny but must stay
    # finite and positive rather than cancel to zero
    v = prefactor_classical(50.0, NEU)
    w = prefactor_classical(100.0, PER, 1e-2)
    assert math.isfinite(v) and 0.0 < v < 1e-6
    assert math.isfinite(w) and 0.0 < w < 1e-6
    assert v < prefactor_classical(5.0, NEU)


def test_elliptic_combination_series_joins_direct_branch():
    from kramers_gl.rates import _neumann_det_combo, _periodic_det_combo

    m = 2e-4
    series = 0.75 * math.pi * m * (1.0 - m / 8.0 - m * m / 64.0)
    assert _neumann_det_combo(m) == pytest.approx(series, rel=1e-9)
    m = 2e-6
    series = 0.75 * math.pi * m * (1.0 + 7.0 * m / 8.0)
    assert _periodic_det_combo(m) == pytest.approx(series, rel=1e-9)


# ---------------------------------------------------------------------------
# corrected prefactors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
def test_anomalous_neumann_limit(eps):
    rb = prefactor_corrected(math.pi, eps, NEU)
    assert rb.gamma0_corrected * eps**0.25 == pytest.approx(
        LIMIT_CONST_NEU, rel=1e-3
    )
    assert rb.regime == "uniform_saddle"
    assert math.isinf(rb.gamma0_classical)
    assert rb.correction_factor == 0.0


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
def test_anomalous_periodic_limit(eps):
    rb = prefactor_corrected(2 * math.pi, eps, PER)
    assert rb.gamma0_corrected * math.sqrt(eps) == pytest.approx(
        LIMIT_CONST_PER, rel=1e-3
    )


def test_critical_constants_match_frozen_values():
    # verify and the acceptance tests read these constants from the package;
    # the frozen high-precision values pin the formulas independently
    assert NEUMANN_CRITICAL_CONST == pytest.approx(LIMIT_CONST_NEU, rel=1e-15)
    assert PERIODIC_CRITICAL_CONST == pytest.approx(LIMIT_CONST_PER, rel=1e-15)


@pytest.mark.parametrize(
    "bc,slope", [(NEU, -0.25), (PER, -0.5)]
)
def test_eps_scaling_exponent_at_critical_length(bc, slope):
    eps_grid = np.geomspace(1e-8, 1e-4, 9)
    logg = [
        math.log(prefactor_corrected(bc.critical_length, e, bc).gamma0_corrected)
        for e in eps_grid
    ]
    fit = np.polyfit(np.log(eps_grid), logg, 1)[0]
    assert fit == pytest.approx(slope, abs=1e-3)


def test_classical_recovery_uniform_branches():
    # |lambda_1| >= 20 sqrt(3 eps/4L): corrections within 5%
    eps = 1e-4
    for bc, L in ((NEU, math.pi / 2), (NEU, 2.8), (PER, 3.0), (PER, 5.8)):
        rb = prefactor_corrected(L, eps, bc)
        lam1 = (bc.critical_length / L) ** 2 - 1.0
        assert lam1 >= 20.0 * math.sqrt(3 * eps / (4 * L))
        assert 0.95 <= rb.gamma0_corrected / rb.gamma0_classical <= 1.05


def test_classical_recovery_instanton_branches():
    # far beyond the bifurcation the psi_minus factor 1/2 * 2 and the
    # switch factor Phi -> 1 both restore the classical value
    rb = prefactor_corrected(math.pi + 1.0, 1e-8, NEU)
    assert rb.gamma0_corrected / rb.gamma0_classical == pytest.approx(1.0, rel=1e-3)
    rb = prefactor_corrected(2 * math.pi + 1.0, 1e-8, PER)
    assert rb.gamma0_corrected / rb.gamma0_classical == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("eps,tol", [(1e-4, 0.15), (1e-6, 0.05)])
def test_continuity_across_neumann_bifurcation(eps, tol):
    lo = prefactor_corrected(math.pi * (1 - 1e-6), eps, NEU).gamma0_corrected
    hi = prefactor_corrected(math.pi * (1 + 1e-6), eps, NEU).gamma0_corrected
    assert hi / lo == pytest.approx(1.0, rel=tol)


def test_continuity_with_numeric_mu1_is_tighter():
    eps = 1e-4
    lo = prefactor_corrected(math.pi * (1 - 1e-6), eps, NEU).gamma0_corrected
    hi = prefactor_corrected(
        math.pi * (1 + 1e-6), eps, NEU, mu1="numeric"
    ).gamma0_corrected
    assert hi / lo == pytest.approx(1.0, rel=1e-2)


def test_numeric_mu1_agrees_with_substitution_away_from_critical():
    approx = prefactor_corrected(3.5, 1e-5, NEU).gamma0_corrected
    numeric = prefactor_corrected(3.5, 1e-5, NEU, mu1="numeric").gamma0_corrected
    assert numeric == pytest.approx(approx, rel=1e-2)


def test_mu1_option_validation():
    with pytest.raises(ValueError, match="mu1"):
        prefactor_corrected(3.5, 1e-4, NEU, mu1="exact")


def test_continuity_across_periodic_bifurcation():
    # the offset must sit deep inside the O(sqrt(eps)) crossover window;
    # the deviation is O(delta/sqrt(eps))
    eps = 1e-6
    lo = prefactor_corrected(2 * math.pi * (1 - 1e-8), eps, PER).gamma0_corrected
    hi = prefactor_corrected(2 * math.pi * (1 + 1e-8), eps, PER).gamma0_corrected
    at = prefactor_corrected(2 * math.pi, eps, PER).gamma0_corrected
    assert lo / at == pytest.approx(1.0, rel=1e-3)
    assert hi / at == pytest.approx(1.0, rel=1e-3)


def test_finiteness_grid_400_pairs():
    eps_values = np.geomspace(1e-6, 1e-1, 10)
    for bc in (PER, NEU):
        Lc = bc.critical_length
        for L in np.linspace(0.5 * Lc, 1.5 * Lc, 20):
            for eps in eps_values:
                rb = prefactor_corrected(float(L), float(eps), bc)
                assert math.isfinite(rb.gamma0_corrected)
                assert rb.gamma0_corrected > 0
                assert math.isfinite(rb.rate) and rb.rate >= 0


def test_breakdown_fields_are_consistent():
    for bc, L in ((NEU, 2.0), (NEU, 4.0), (PER, 5.0), (PER, 8.0)):
        rb = prefactor_corrected(L, 0.05, bc)
        expect_regime = (
            "uniform_saddle" if L <= bc.critical_length else "instanton_saddle"
        )
        assert rb.regime == expect_regime
        assert rb.deltaW == pytest.approx(activation_energy(L, bc), rel=1e-14)
        assert rb.rate == pytest.approx(
            rb.gamma0_corrected * math.exp(-rb.deltaW / 0.05), rel=1e-13
        )
        assert rb.gamma0_classical * rb.correction_factor == pytest.approx(
            rb.gamma0_corrected, rel=1e-12
        )
        expect_exp = -0.5 if (bc is PER and L > 2 * math.pi) else 0.0
        assert rb.eps_exponent == expect_exp


def test_modulus_is_solved_once_and_reported(monkeypatch):
    calls = []

    def counting_solve(L, bc):
        calls.append(L)
        return solve_m_from_L(L, bc)

    monkeypatch.setattr(rates, "solve_m_from_L", counting_solve)
    monkeypatch.setattr(instanton, "solve_m_from_L", counting_solve)
    cases = (
        (NEU, 2.0, "approx"),
        (NEU, math.pi, "approx"),
        (NEU, 4.0, "approx"),
        (NEU, 4.0, "numeric"),
        (PER, 5.0, "approx"),
        (PER, 8.0, "approx"),
    )
    for bc, L, mu1 in cases:
        calls.clear()
        rb = prefactor_corrected(L, 0.05, bc, mu1=mu1)
        if L > bc.critical_length:
            assert calls == [L]
            assert rb.m == solve_m_from_L(L, bc)
        else:
            assert calls == []
            assert rb.m is None


def test_neumann_uniform_correction_factor_bounds():
    for L in np.linspace(0.4, math.pi - 1e-3, 25):
        for eps in (1e-5, 1e-2):
            rb = prefactor_corrected(float(L), eps, NEU)
            assert 0.0 < rb.correction_factor <= 1.0001


def test_corrected_long_domain_stays_positive():
    for bc, L in ((NEU, 50.0), (PER, 100.0)):
        rb = prefactor_corrected(L, 1e-2, bc)
        assert math.isfinite(rb.gamma0_corrected) and rb.gamma0_corrected > 0


def test_corrected_validation():
    with pytest.raises(ValueError):
        prefactor_corrected(-1.0, 1e-3, NEU)
    with pytest.raises(ValueError):
        prefactor_corrected(2.0, 0.0, NEU)
    with pytest.raises(ValueError):
        prefactor_corrected(2.0, 0.7, NEU)  # eps beyond the small-noise regime


def _boolean_length_calls():
    from kramers_gl import spectrum

    field = instanton.FieldConfiguration(np.zeros(64), NEU)
    return {
        "prefactor_corrected": lambda: prefactor_corrected(True, 0.1, "neumann"),
        "prefactor_classical": lambda: prefactor_classical(True, "neumann"),
        "activation_energy": lambda: activation_energy(True, "neumann"),
        "solve_m_from_L": lambda: solve_m_from_L(True, "periodic"),
        "prefactor_from_determinants": lambda: prefactor_from_determinants(
            True, "neumann", 16
        ),
        "SystemParams": lambda: SystemParams(L=True, eps=0.1, bc="neumann"),
        "energy_functional": lambda: instanton.energy_functional(field, True),
        "uniform_spectrum": lambda: spectrum.uniform_spectrum(True, NEU, "stable", 8),
        "hessian_spectrum": lambda: spectrum.hessian_spectrum(field, True, NEU, 64),
    }


@pytest.mark.parametrize("name", list(_boolean_length_calls()))
def test_boolean_length_is_refused(name):
    # bool is an int, but True is no length: it used to run as L = 1
    with pytest.raises(ValueError, match="L must be positive and finite, got True"):
        _boolean_length_calls()[name]()


def test_boolean_noise_intensity_is_refused():
    with pytest.raises(ValueError, match="eps must be positive and finite, got True"):
        SystemParams(L=2.0, eps=True, bc="neumann")
    with pytest.raises(ValueError, match="eps must be positive and finite, got True"):
        prefactor_classical(7.0, "periodic", True)  # ran with eps = 1
    with pytest.raises(ValueError, match="eps must lie in"):
        prefactor_corrected(2.0, True, "neumann")


@settings(max_examples=60, deadline=None)
@given(
    L=st.floats(0.5, 12.0),
    eps=st.floats(1e-6, 0.5),
    bc=st.sampled_from([PER, NEU]),
)
def test_corrected_always_finite_positive(L, eps, bc):
    rb = prefactor_corrected(L, eps, bc)
    assert math.isfinite(rb.gamma0_corrected) and rb.gamma0_corrected > 0


# ---------------------------------------------------------------------------
# kramers_rate
# ---------------------------------------------------------------------------


def test_rate_combines_prefactor_and_barrier():
    rb = kramers_rate(SystemParams(L=2.0, eps=0.1, bc=NEU))
    assert rb.deltaW == pytest.approx(0.5, rel=1e-15)
    assert rb.rate == pytest.approx(rb.gamma0_corrected * math.exp(-5.0), rel=1e-14)


def test_rate_increasing_in_eps():
    rates = [
        kramers_rate(SystemParams(L=2.0, eps=e, bc=NEU)).rate
        for e in (0.05, 0.1, 0.2)
    ]
    assert rates[0] < rates[1] < rates[2]


def test_rate_same_barrier_different_prefactors_across_bcs():
    per = kramers_rate(SystemParams(L=2.0, eps=0.1, bc=PER))
    neu = kramers_rate(SystemParams(L=2.0, eps=0.1, bc=NEU))
    assert per.deltaW == neu.deltaW == pytest.approx(0.5, rel=1e-15)
    assert per.gamma0_corrected != neu.gamma0_corrected


# ---------------------------------------------------------------------------
# determinant-product oracle
# ---------------------------------------------------------------------------


def test_determinants_match_closed_form_neumann():
    v = prefactor_from_determinants(math.pi / 2, NEU, 10**4)
    assert v == pytest.approx(CLASSICAL_NEU_HALFPI, rel=1e-6)


def test_determinants_match_closed_form_periodic():
    v = prefactor_from_determinants(math.pi, PER, 10**4)
    assert v == pytest.approx(CLASSICAL_PER_PI, rel=1e-6)


def test_determinants_truncation_error_scales_like_one_over_K():
    from kramers_gl.spectrum import uniform_spectrum

    L = math.pi / 2
    exact = prefactor_classical(L, NEU)

    def raw(K):
        trans = uniform_spectrum(L, NEU, "transition", K).expanded()
        stab = uniform_spectrum(L, NEU, "stable", K).expanded()
        lnp = float(np.sum(np.log(stab) - np.log(np.abs(trans))))
        return math.exp(0.5 * lnp) / (2.0 * math.pi)

    errs = [abs(raw(K) / exact - 1.0) for K in (10**2, 10**3, 10**4)]
    assert errs[0] > errs[1] > errs[2]
    slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
    # Richardson extrapolation beats the raw truncation
    assert abs(prefactor_from_determinants(L, NEU, 10**4) / exact - 1.0) < errs[2]


def test_determinants_validation():
    with pytest.raises(ValueError):
        prefactor_from_determinants(4.0, NEU, 10**3)  # beyond critical length
    with pytest.raises(ValueError):
        prefactor_from_determinants(2.0, NEU, 5)


# ---------------------------------------------------------------------------
# quartic quadrature oracle
# ---------------------------------------------------------------------------


def test_quartic_gaussian_limit():
    nf = QuarticNormalForm(lambda1=50.0, L=1.0)
    eps = 1e-3
    assert quartic_integral(nf, eps) == pytest.approx(
        math.sqrt(2 * math.pi * eps / 50.0), rel=1e-4
    )


def test_quartic_pure_quartic_point():
    # closed form Gamma(1/4)/2 * (8 eps/(3 L))^{1/4} at lambda1 = 0
    L, eps = 2.0, 1e-3
    nf = QuarticNormalForm(lambda1=0.0, L=L)
    expect = math.gamma(0.25) / 2.0 * (8.0 * eps / (3.0 * L)) ** 0.25
    assert quartic_integral(nf, eps) == pytest.approx(expect, rel=1e-8)


def test_quartic_double_well_dominates_single_well():
    eps = 0.05
    lo = quartic_integral(QuarticNormalForm(lambda1=1.0, L=2.0), eps)
    hi = quartic_integral(QuarticNormalForm(lambda1=-1.0, L=2.0), eps)
    assert hi > lo


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quartic_deep_double_well_overflows_to_inf():
    # the sharply peaked integrand triggers a roundoff warning from quad;
    # only the (intentional) overflow of the Boltzmann weight matters here
    assert math.isinf(quartic_integral(QuarticNormalForm(lambda1=-60.0, L=4.0), 1e-3))


def test_quartic_validation():
    with pytest.raises(ValueError):
        QuarticNormalForm(lambda1=1.0, quartic_coeff=-0.5)
    with pytest.raises(ValueError):
        QuarticNormalForm(lambda1=1.0, L=0.0)
    with pytest.raises(ValueError):
        quartic_integral(QuarticNormalForm(lambda1=1.0), 0.0)
    with pytest.raises(TypeError):
        quartic_integral((1.0, 0.375, 1.0), 1e-3)


def test_breakdown_dataclass_validation():
    with pytest.raises(ValueError):
        RateBreakdown(
            regime="saddle",
            deltaW=0.5,
            gamma0_classical=1.0,
            correction_factor=1.0,
            gamma0_corrected=1.0,
            eps_exponent=0.0,
            rate=0.1,
        )
    with pytest.raises(ValueError):
        RateBreakdown(
            regime="uniform_saddle",
            deltaW=0.5,
            gamma0_classical=1.0,
            correction_factor=1.0,
            gamma0_corrected=float("inf"),
            eps_exponent=0.0,
            rate=0.1,
        )
