"""Tests for prefactors, scaling functions, and rate assembly.

Oracles: 30-digit mpmath evaluations of the closed forms (frozen
constants below), adaptive-quadrature partition integrals reduced to
the scaling functions through exact normal-form identities, truncated
determinant products, a Gel'fand-Yaglom initial-value solve on the Neumann
instanton, and analytic limits at the critical lengths.
"""

import collections
import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from kramers_gl import cli, instanton, rates, specfun
from kramers_gl.checks import (
    NEUMANN_CRITICAL_CONST,
    PERIODIC_CRITICAL_CONST,
    _psi_quadrature,
    prefactor_from_determinants,
)
from kramers_gl.instanton import (
    BoundaryCondition,
    SystemParams,
    activation_energy,
    mu0,
    solve_m_from_L,
)
from kramers_gl.rates import (
    PSI_LIMIT_AT_ZERO,
    DivergentClassicalPrefactor,
    RateBreakdown,
    kramers_rate,
    phi_switch,
    prefactor_classical,
    prefactor_corrected,
    psi_minus,
    psi_plus,
    psi_plus_tilde,
)
from kramers_gl.specfun import _elliptic_KE, elliptic_K, jacobi_sn

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


def test_psi_returns_its_limit_once_the_product_overflows():
    # sqrt(alpha(1+alpha)...) overflowed before the Bessel factor settled:
    # psi_minus was inf at 1.3e154 and both were nan from 1.4e154 on
    assert psi_minus(1.3e154) == 2.0
    for alpha in (1.4e154, sys.float_info.max):
        assert psi_plus(alpha) == 1.0
        assert psi_minus(alpha) == 2.0
    # alpha = 3m/a ~ 2e155 here; the rate failed as not finite
    rb = prefactor_corrected(4.0, 1e-310, NEU)
    assert math.isfinite(rb.gamma0_corrected) and math.isfinite(rb.rate)


def test_phi_switch_values():
    assert phi_switch(0.0) == 0.5
    assert phi_switch(1.0) == pytest.approx(PHI_AT_ONE, rel=1e-12)
    assert phi_switch(40.0) == pytest.approx(1.0, abs=1e-15)
    assert phi_switch(-40.0) == pytest.approx(0.0, abs=1e-15)


@given(x=st.floats(-30.0, 30.0))
def test_phi_switch_is_a_distribution_function(x):
    v = phi_switch(x)
    assert 0.0 <= v <= 1.0
    assert v + phi_switch(-x) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature equivalences: the scaling functions against the partition
# integral of the quartic normal form (independent adaptive quadrature)
# ---------------------------------------------------------------------------


# alpha = 12, 40, 100 put z = alpha^2/64 at 2.25, 25 and 156, on both
# sides of psi_minus's Bessel regime boundary at z = 80
@pytest.mark.parametrize(
    "function, L, eps, dim, wells, alpha",
    [
        (function, L, eps, dim, wells, alpha)
        for function, L, eps, dim, wells, alphas in [
            ("psi_plus", math.pi / 2, 1e-4, 1, False, (0.5, 1.0, 2.0, 5.0)),
            ("psi_plus", math.pi / 2, 1e-3, 1, False, (0.5, 1.0, 2.0, 5.0)),
            ("psi_minus", 4.0, 1e-2, 1, True, (0.5, 1.0, 2.0, 5.0, 12.0, 40.0, 100.0)),
            ("psi_plus_tilde", 3.0, 1e-3, 2, False, (0.5, 1.0, 2.0, 5.0)),
        ]
        for alpha in alphas
    ],
)
def test_scaling_function_matches_quadrature(function, L, eps, dim, wells, alpha):
    assert getattr(rates, function)(alpha) == pytest.approx(
        _psi_quadrature(alpha, L, eps, dim, wells), rel=1e-6
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


# Frozen 50-digit mpmath values (mpmath is no dependency; the tests import
# none of it). The combination |(1-m)K - (1+m)E| and its periodic form
# m/|K - (1+m)E/(1-m)| from ellipk and ellipe; gamma0_corrected from the four
# branches of prefactor_corrected transcribed term by term (besselk, besseli,
# erfc, ncdf; m by bisection of c sqrt(1+m) ellipk(m) = L, c = 2 Neumann and 4
# periodic), at L = L_c(1 + d) with L_c the float critical length the package
# branches on; erfcx as exp(x^2) erfc(x). Near L_c, at small m and for erfcx
# close to 25 these held the losses that a K - E difference, a mode ratio
# with two L_c's and the rounding of x^2 left: up to 3.9e-8. At L = 1e-6 L_c
# the mode ratio's sine must read L, since L_c - L rounds there.
COMBINATIONS = {  # m: the combination, its periodic form
    1.2e-6: (2.8274329641157419348e-6, 0.42441273594448960895),
    1.6e-4: (0.00037698357845760261623, 0.42435376271433929958),
    0.3: (0.67924937001131107312, 0.3091648064340538289),
    0.9: (1.8412627808029220375, 0.048879497776386679737),
}
GAMMA0 = {  # (bc, d, eps): gamma0_corrected at L = L_c(1 + d)
    (NEU, -0.999999, 1e-2): 0.22507907903983187337,
    (NEU, -1e-9, 1e-4): 12.113598531019922115,
    (NEU, -1e-9, 1e-2): 3.830656539159281924,
    (NEU, 1e-9, 1e-4): 12.113600904472755046,
    (NEU, 1e-9, 1e-2): 3.8306566151709778082,
    (NEU, 1.1e-6, 1e-4): 12.114883883037519782,
    (NEU, 1.1e-6, 1e-2): 3.8306917173988303176,
    (PER, -0.999999, 1e-2): 0.22507907904038722935,
    (PER, -1e-9, 1e-4): 781.12198253021536938,
    (PER, -1e-9, 1e-2): 78.112214488338161289,
    (PER, 1e-9, 1e-4): 781.12234485508967839,
    (PER, 1e-9, 1e-2): 78.112218250189719417,
    (PER, 1.1e-6, 1e-4): 781.3193317553156398,
    (PER, 1.1e-6, 1e-2): 78.114074348617961119,
}
ERFCX = {23.4: 0.024088709542152283265, 24.9: 0.022639987776049506286}


def _combination(m, periodic):
    combo = rates._det_combo(m, *_elliptic_KE(m))
    return m * (1.0 - m) / combo if periodic else combo


def _gamma0(bc, d, eps):
    return prefactor_corrected(bc.critical_length * (1.0 + d), eps, bc).gamma0_corrected


# row -> (the value the package computes, the mpmath value, relative tolerance)
MPMATH_VALUES = {
    **{
        f"{form} m={m:g}": (
            functools.partial(_combination, m, form == "periodic"), value, 1e-15,
        )
        for m, pair in COMBINATIONS.items()
        for form, value in zip(("combination", "periodic"), pair)
    },
    **{
        f"gamma0 {bc.value} L_c(1{d:+g}) eps={eps:g}": (
            functools.partial(_gamma0, bc, d, eps), value, 5e-14,
        )
        for (bc, d, eps), value in GAMMA0.items()
    },
    **{
        f"erfcx {x:g}": (functools.partial(specfun.erfcx, x), value, 1e-15)
        for x, value in ERFCX.items()
    },
}


@pytest.mark.parametrize("row", MPMATH_VALUES)
def test_matches_frozen_mpmath_value(row):
    compute, value, rel = MPMATH_VALUES[row]
    assert abs(compute() - value) <= rel * value


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


def test_continuity_with_numeric_mu1_is_tighter(corrected_with_numeric_mu1):
    eps = 1e-4
    lo = prefactor_corrected(math.pi * (1 - 1e-6), eps, NEU).gamma0_corrected
    hi = corrected_with_numeric_mu1(math.pi * (1 + 1e-6), eps)
    assert hi / lo == pytest.approx(1.0, rel=1e-2)


def test_numeric_mu1_agrees_with_substitution_away_from_critical(
    corrected_with_numeric_mu1,
):
    approx = prefactor_corrected(3.5, 1e-5, NEU).gamma0_corrected
    numeric = corrected_with_numeric_mu1(3.5, 1e-5)
    assert numeric == pytest.approx(approx, rel=1e-2)


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
    # call counts that encode the design, taken on each module's own binding
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append((f"{module.__name__.rpartition('.')[2]}.{name}", args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in (
        (rates, "solve_m_from_L"), (rates, "_elliptic_KE"), (rates, "prefactor_classical"),
        (instanton, "solve_m_from_L"), (instanton, "_elliptic_KE"),
        (instanton, "_sn_levels"), (instanton, "_sn"), (specfun, "jacobi_sn"),
    ):
        count(module, name)

    def counts():
        return collections.Counter(name for name, _ in calls)

    # an instanton row solves once, and K, E and K - E come from 4 _elliptic_KE
    # calls: 3 in the Newton polish and 1 at the solved modulus
    cases = ((NEU, 2.0), (NEU, math.pi), (NEU, 4.0), (PER, 5.0), (PER, 8.0), (PER, 9.0))
    for bc, L in cases:
        calls.clear()
        rb = prefactor_corrected(L, 0.05, bc)
        if L > bc.critical_length:
            assert counts() == {
                "rates.solve_m_from_L": 1, "instanton._elliptic_KE": 3, "rates._elliptic_KE": 1,
            }
            assert calls[0] == ("rates.solve_m_from_L", L)
            assert calls[-1] == ("rates._elliptic_KE", rb.m)
            assert rb.m == solve_m_from_L(L, bc)
        else:
            assert calls == []
            assert rb.m is None
    # a profile descends one set of AGM levels for all its samples
    for bc, L, n_x in ((NEU, 4.0, 64), (PER, 9.0, 100)):
        calls.clear()
        instanton.instanton_profile(L, bc, n_x=n_x)
        assert counts() == {
            "instanton.solve_m_from_L": 1, "instanton._elliptic_KE": 3,
            "instanton._sn_levels": 1, "instanton._sn": n_x,
        }
    # a sweep takes no classical prefactor and solves once per instanton
    # row; ROADMAP item 3 will make that once per L
    calls.clear()
    assert cli.main(
        ["sweep", "--bc", "neumann", "--L-range", "2.5:4:0.5", "--eps", "0.01", "--eps", "1e-4"]
    ) == 0
    assert [L for name, L in calls if name == "rates.solve_m_from_L"] == [3.5, 4.0, 3.5, 4.0]
    assert counts() == {
        "rates.solve_m_from_L": 4, "instanton._elliptic_KE": 12, "rates._elliptic_KE": 4,
    }


def test_neumann_uniform_correction_factor_bounds():
    for L in np.linspace(0.4, math.pi - 1e-3, 25):
        for eps in (1e-5, 1e-2):
            rb = prefactor_corrected(float(L), eps, NEU)
            assert 0.0 < rb.correction_factor <= 1.0001


def test_corrected_long_domain_stays_positive():
    for bc, L in ((NEU, 50.0), (PER, 100.0)):
        rb = prefactor_corrected(L, 1e-2, bc)
        assert math.isfinite(rb.gamma0_corrected) and rb.gamma0_corrected > 0


# L = 1e-150 overflowed the prefactor, 1e-160 alpha and 1e-170 the division
# by L^2; each failed with an error that did not name L
@pytest.mark.parametrize("L", [1e-150, 1e-160, 1e-170, 1e-200])
@pytest.mark.parametrize("bc", [NEU, PER])
def test_corrected_refuses_a_length_beyond_double_range(L, bc):
    with pytest.raises(ValueError, match=f"L = {L!r} is too short: lambda_1"):
        prefactor_corrected(L, 0.1, bc)


# a = sqrt(3 eps/(4L)) underflowed to 0 and the division by it ended in a
# ZeroDivisionError, on both branches of both bcs
@pytest.mark.parametrize("bc, L", [(NEU, 3.0), (NEU, 4.0), (PER, 3.0), (PER, 7.0)])
def test_corrected_refuses_an_eps_whose_a_underflows(bc, L):
    with pytest.raises(ValueError, match=r"eps = 5e-324 is too small: a = sqrt"):
        prefactor_corrected(L, 5e-324, bc)


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


def test_determinants_refuse_a_length_beyond_double_range():
    # the eigenvalues overflowed, and the product came out NaN after warnings
    with pytest.raises(ValueError, match="L = 1e-200 is too short"):
        prefactor_from_determinants(1e-200, NEU, 64)


# ---------------------------------------------------------------------------
# Gel'fand-Yaglom oracle for the Neumann instanton branch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gelfand_yaglom(L):
    """m and |y'(L)| for y'' = (3 phi_s^2 - 1) y on [0, L], y(0) = 1, y'(0) = 0.

    phi_s is the Neumann instanton at the modulus m of L, built from
    jacobi_sn. By Gel'fand and Yaglom, |y'(L)| / (sqrt2 sinh(sqrt2 L)) is
    |det H_s| / det H_min with Neumann conditions: y = cosh(sqrt2 x) solves
    the same problem at a stable state phi = +-1.
    """
    m = solve_m_from_L(L, NEU)
    amplitude, scale = math.sqrt(2.0 * m / (1.0 + m)), 1.0 / math.sqrt(1.0 + m)
    phase = elliptic_K(m)

    def rhs(x, state):
        phi = amplitude * jacobi_sn(scale * x + phase, m)
        return [state[1], (3.0 * phi * phi - 1.0) * state[0]]

    sol = solve_ivp(rhs, (0.0, L), [1.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    return m, abs(sol.y[1, -1])


@pytest.mark.parametrize("L", [3.3, 4.0, 6.0])
def test_det_combo_matches_gelfand_yaglom(L):
    m, slope = _gelfand_yaglom(L)
    combo = rates._det_combo(m, *_elliptic_KE(m))
    assert slope == pytest.approx(2.0 * combo / math.sqrt(1.0 + m), rel=1e-11)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the Neumann instanton prefactor is low by (1+m)^(1/4)",
)
@pytest.mark.parametrize("L", [3.3, 4.0, 6.0])
def test_neumann_instanton_prefactor_matches_gelfand_yaglom(L):
    m, slope = _gelfand_yaglom(L)
    ratio = math.sqrt(2.0) * math.sinh(math.sqrt(2.0) * L) / slope
    oracle = abs(mu0(m)) / math.pi * math.sqrt(ratio)
    assert prefactor_classical(L, NEU) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# the quadrature oracle: its limits and its domain
# ---------------------------------------------------------------------------


# the Gaussian limit: psi = limit (1 + dim/(2 alpha) + O(alpha^-2)), for one
# well or two. At alpha = 1e6 the two wells lie near r = +-100 and are 2e-4
# wide, so the window must be centred on them: one from r = 0 gives 1, not 2.
@pytest.mark.parametrize(
    "dim, wells, limit", [(1, False, 1.0), (1, True, 2.0), (2, False, 1.0)]
)
def test_quadrature_large_alpha_limit(dim, wells, limit):
    for L, eps in ((1.0, 1e-3), (4.0, 1e-2)):
        assert _psi_quadrature(1e6, L, eps, dim, wells) == pytest.approx(
            limit * (1.0 + 0.5 * dim / 1e6), rel=1e-9
        )


# at alpha = 0 the integral is the pure quartic's Gamma(dim/4) closed form;
# the limit constants are checked here without the Bessel route
@pytest.mark.parametrize(
    "dim, wells, constant",
    [
        (1, False, PSI_LIMIT_AT_ZERO),
        (1, True, PSI_LIMIT_AT_ZERO),
        (2, False, rates.PSI_TILDE_LIMIT_AT_ZERO),
    ],
)
def test_quadrature_at_alpha_zero_gives_the_limit_constant(dim, wells, constant):
    for L, eps in ((math.pi / 2, 1e-3), (2.0, 1e-3), (4.0, 1e-2)):
        assert _psi_quadrature(0.0, L, eps, dim, wells) == pytest.approx(constant, rel=1e-12)


def test_quadrature_two_wells_exceed_one():
    assert _psi_quadrature(1.0, 2.0, 0.05, wells=True) > _psi_quadrature(1.0, 2.0, 0.05)


# a = sqrt(3 eps/4L), or the window's start width, underflowed to 0, and
# the oracle returned 0.0 or NaN: quad integrated over [0, 0], or the
# normalisation was 0
@pytest.mark.parametrize(
    "L, eps, dim, wells",
    [
        (1e300, 1e-300, 1, False),
        (1e300, 1e-300, 1, True),
        (1e300, 1e-300, 2, False),
        (2.0, 5e-324, 1, False),
        (1e-300, 1e300, 1, False),
    ],
)
def test_quadrature_refuses_scales_that_underflow(L, eps, dim, wells):
    with pytest.raises(ValueError, match=re.escape(f"at L = {L!r}, eps = {eps!r}") + "$"):
        _psi_quadrature(1.0, L, eps, dim, wells)


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
    for deltaW in (0.0, math.nan):
        with pytest.raises(ValueError, match="activation energy must be finite and positive"):
            RateBreakdown("uniform_saddle", deltaW, 1.0, 1.0, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("L, bc", [(30.0, NEU), (4.0, PER)])
def test_log_rate_is_finite_where_the_rate_underflows(L, bc):
    # deltaW/eps is about 1000 at eps = 1e-3: exp(-deltaW/eps) is 0.0
    rb = prefactor_corrected(L, 1e-3, bc)
    assert rb.rate == 0.0
    assert math.isfinite(rb.log_rate)
    assert rb.log_rate == math.log(rb.gamma0_corrected) - rb.deltaW / 1e-3


@pytest.mark.parametrize("bc", [NEU, PER])
def test_log_rate_agrees_with_a_normal_rate(bc):
    L_c = bc.critical_length
    checked = 0
    for frac in (0.3, 0.8, 0.999, 1.0, 1.001, 1.2, 2.0, 4.0):
        for eps in (0.5, 0.1, 1e-2, 1e-3, 1e-5):
            rb = prefactor_corrected(frac * L_c, eps, bc)
            if rb.rate >= sys.float_info.min:
                assert abs(math.log(rb.rate) - rb.log_rate) <= 1e-9
                checked += 1
    assert checked >= 20


def test_breakdown_positional_construction_keeps_its_defaults():
    rb = RateBreakdown("instanton_saddle", 0.5, 1.0, 1.0, 1.0, 0.0, 0.1, 0.3)
    assert (rb.rate, rb.m, rb.log_rate) == (0.1, 0.3, None)
    rb = RateBreakdown("uniform_saddle", 0.5, 1.0, 1.0, 1.0, 0.0, 0.1, None, -2.3)
    assert rb.log_rate == -2.3
