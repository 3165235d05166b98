"""Package-level acceptance tests.

End-to-end checks of the full contract: the classical prefactor against
an independent truncated-determinant computation, the anomalous scaling
limits exactly at the bifurcation, continuity of the corrected
prefactor through the critical length, energy and spectrum
cross-checks between closed forms and quadrature/diagonalization, the
universal scaling functions against adaptive-quadrature integral
representations, Monte Carlo validation of predicted rates at
desk-scale noise, and the prefactor sweep produced by the CLI.

Tolerances are fixed here and should not be loosened: each one was
chosen from the accuracy the implementation actually achieves with
margin, or from the intrinsic size of the neglected corrections (the
soft-mode substitution carries a relative error O(eps^{1/4}), the
alpha -> infinity limits are approached at rate 1/alpha).
"""

import json
import math
import time

import numpy as np
import pytest

from kramers_gl.cli import CSV_COLUMNS, main as cli_main
from kramers_gl.instanton import (
    BoundaryCondition,
    SystemParams,
    activation_energy,
    energy_functional,
    instanton_profile,
    solve_m_from_L,
)
from kramers_gl.rates import (
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
)
from kramers_gl.simulator import SimConfig, estimate_mfpt
from kramers_gl.spectrum import hessian_spectrum, mu0
from kramers_gl.specfun import elliptic_K

NEU = BoundaryCondition.NEUMANN
PER = BoundaryCondition.PERIODIC

SQRT2 = math.sqrt(2.0)

# closed-form values of the eps-compensated corrected prefactor exactly
# at the critical lengths
NEUMANN_CRITICAL_CONST = (
    math.gamma(0.25)
    / (2.0 * (3.0 * math.pi**7) ** 0.25)
    * math.sqrt(math.sinh(SQRT2 * math.pi))
)
PERIODIC_CRITICAL_CONST = math.sinh(SQRT2 * math.pi) / (math.sqrt(3.0) * math.pi)


def length_of_modulus(m: float, bc: BoundaryCondition) -> float:
    c = 4.0 if bc is PER else 2.0
    return c * math.sqrt(1.0 + m) * elliptic_K(m)


# ---------------------------------------------------------------------------
# 1. classical prefactor against the truncated-determinant oracle
# ---------------------------------------------------------------------------


def test_determinant_prefactor_consistency_and_speed():
    L = math.pi / 2.0
    closed = prefactor_classical(L, NEU)
    t0 = time.monotonic()
    truncated = prefactor_from_determinants(L, NEU, 10_000)
    elapsed = time.monotonic() - t0
    assert truncated == pytest.approx(closed, rel=1e-6)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. anomalous scaling exactly at the Neumann critical length
# ---------------------------------------------------------------------------


def test_anomalous_neumann_limit_value_and_exponent():
    for eps in (1e-8, 1e-6):
        value = prefactor_corrected(math.pi, eps, NEU).gamma0_corrected
        assert value * eps**0.25 == pytest.approx(NEUMANN_CRITICAL_CONST, rel=1e-3)
    eps_grid = np.geomspace(1e-8, 1e-6, 5)
    logs = [
        math.log(prefactor_corrected(math.pi, float(e), NEU).gamma0_corrected)
        for e in eps_grid
    ]
    slope = np.polyfit(np.log(eps_grid), logs, 1)[0]
    assert slope == pytest.approx(-0.25, abs=1e-3)


# ---------------------------------------------------------------------------
# 3. anomalous scaling exactly at the periodic critical length
# ---------------------------------------------------------------------------


def test_anomalous_periodic_limit_value_and_exponent():
    L_c = 2.0 * math.pi
    for eps in (1e-8, 1e-6):
        value = prefactor_corrected(L_c, eps, PER).gamma0_corrected
        assert value * math.sqrt(eps) == pytest.approx(
            PERIODIC_CRITICAL_CONST, rel=1e-3
        )
    eps_grid = np.geomspace(1e-8, 1e-6, 5)
    logs = [
        math.log(prefactor_corrected(L_c, float(e), PER).gamma0_corrected)
        for e in eps_grid
    ]
    slope = np.polyfit(np.log(eps_grid), logs, 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-3)


# ---------------------------------------------------------------------------
# 4. factor-2 reconciliation across the periodic bifurcation
# ---------------------------------------------------------------------------


def test_periodic_instanton_limit_carries_factor_two():
    # Approaching the critical length from the instanton side, the
    # eps-compensated classical prefactor (nucleation anywhere on the
    # ring) tends to exactly twice the critical-point constant ...
    eps = 1e-8
    L = 2.0 * math.pi * (1.0 + 1e-8)
    value = prefactor_classical(L, PER, eps) * math.sqrt(eps)
    assert value == pytest.approx(2.0 * PERIODIC_CRITICAL_CONST, rel=1e-3)

    # ... and the switch factor, exactly 1/2 at the bifurcation, makes
    # the corrected prefactor continuous there.
    assert phi_switch(0.0) == 0.5
    below = prefactor_corrected(2.0 * math.pi * (1.0 - 1e-8), eps, PER)
    above = prefactor_corrected(2.0 * math.pi * (1.0 + 1e-8), eps, PER)
    assert below.gamma0_corrected == pytest.approx(
        above.gamma0_corrected, rel=1e-3
    )


# ---------------------------------------------------------------------------
# 5. continuity of the corrected prefactor at the Neumann critical length
# ---------------------------------------------------------------------------


def test_neumann_corrected_prefactor_continuous_at_critical_length():
    # The second transition-state eigenvalue enters the instanton branch
    # through a small-modulus substitution whose relative error is
    # O(eps^{1/4}); the match therefore tightens as eps decreases, and
    # tightens further when the eigenvalue is diagonalized numerically.
    L_lo = math.pi * (1.0 - 1e-6)
    L_hi = math.pi * (1.0 + 1e-6)
    for eps, tol in ((1e-4, 0.15), (1e-6, 0.05)):
        left = prefactor_corrected(L_lo, eps, NEU).gamma0_corrected
        right = prefactor_corrected(L_hi, eps, NEU).gamma0_corrected
        assert left == pytest.approx(right, rel=tol)
    left = prefactor_corrected(L_lo, 1e-6, NEU).gamma0_corrected
    right = prefactor_corrected(L_hi, 1e-6, NEU, mu1="numeric").gamma0_corrected
    assert left == pytest.approx(right, rel=0.01)


# ---------------------------------------------------------------------------
# 6. activation energy: closed form against quadrature on the profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
def test_activation_energy_matches_quadrature(m):
    for bc in (NEU, PER):
        L = length_of_modulus(m, bc)
        closed = activation_energy(L, bc)
        profile = instanton_profile(L, bc, n_x=4096)
        # energy relative to the uniform stable state, H[+-1] = -L/4
        quadrature = energy_functional(profile, L) + L / 4.0
        assert quadrature == pytest.approx(closed, rel=1e-8)
    assert activation_energy(length_of_modulus(m, NEU), NEU) == pytest.approx(
        activation_energy(length_of_modulus(m, PER), PER) / 2.0, rel=1e-12
    )


# ---------------------------------------------------------------------------
# 7. transition-state spectrum: diagonalization against closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0.1, 0.5])
def test_instanton_hessian_lowest_eigenvalue_and_zero_mode(m):
    for bc in (NEU, PER):
        L = length_of_modulus(m, bc)
        profile = instanton_profile(L, bc, n_x=1024)
        spec = hessian_spectrum(profile, L, bc, n_modes=512)
        assert abs(float(spec.eigenvalues[0]) - mu0(m)) < 1e-6
        if bc is PER:
            # translation symmetry of the instanton ring: exact zero mode
            assert min(abs(ev) for ev in spec.expanded()) < 1e-6


# ---------------------------------------------------------------------------
# 8. scaling functions against adaptive-quadrature representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_scaling_functions_match_quadrature_oracles(alpha):
    assert psi_plus(alpha) == pytest.approx(
        _psi_plus_quadrature(alpha, math.pi / 2.0, 1e-3), rel=1e-5
    )
    assert psi_minus(alpha) == pytest.approx(
        _psi_minus_quadrature(alpha, 4.0, 1e-2), rel=1e-5
    )
    assert psi_plus_tilde(alpha) == pytest.approx(
        _psi_tilde_quadrature(alpha, 3.0, 1e-3), rel=1e-5
    )


def test_scaling_function_classical_limits():
    # approached at rate 1/alpha, so alpha = 100 sits within 1e-2
    assert psi_plus(100.0) == pytest.approx(1.0, rel=1e-2)
    assert psi_minus(100.0) == pytest.approx(2.0, rel=1e-2)
    assert psi_plus_tilde(100.0) == pytest.approx(1.0, rel=1e-2)


# ---------------------------------------------------------------------------
# 9. Monte Carlo validation of the predicted rates
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_monte_carlo_rate_matches_prediction(mc_main_ensemble):
    config, est = mc_main_ensemble
    predicted = kramers_rate(config.params).rate
    assert 0.5 * predicted <= est.rate <= 2.0 * predicted


@pytest.mark.slow
def test_monte_carlo_arrhenius_slope():
    # ln(MFPT) against 1/eps measures the activation energy, L/4 = 0.5
    # at L = 2 (Neumann). Runs in about a minute; the full Monte Carlo
    # budget of this suite stays far below fifteen minutes.
    t0 = time.monotonic()
    eps_grid = (0.10, 0.125, 0.15, 0.2)
    mfpts = []
    for i, eps in enumerate(eps_grid):
        config = SimConfig(
            params=SystemParams(L=2.0, eps=eps, bc=NEU),
            K=16,
            dt=2e-3,
            t_max=8000.0,
            n_traj=200,
            seed=777000 + i,
        )
        est = estimate_mfpt(config)
        assert est.n_completed == 200
        mfpts.append(est.mean_passage_time)
    slope = np.polyfit([1.0 / e for e in eps_grid], np.log(mfpts), 1)[0]
    deltaW = activation_energy(2.0, NEU)
    assert deltaW == 0.5
    assert slope == pytest.approx(deltaW, rel=0.15)
    assert time.monotonic() - t0 < 840.0


# ---------------------------------------------------------------------------
# 10. prefactor sweep through the CLI: finite, single-peaked curves
#     whose peak sharpens toward the critical length
# ---------------------------------------------------------------------------


def test_sweep_curves_through_bifurcation(tmp_path):
    out = tmp_path / "sweep.csv"
    lo, hi, step = 0.7 * math.pi, 1.3 * math.pi, 0.01 * math.pi
    code = cli_main(
        [
            "sweep",
            "--bc",
            "neumann",
            "--L-range",
            f"{lo:.17g}:{hi:.17g}:{step:.17g}",
            "--eps",
            "1e-6",
            "--eps",
            "1e-5",
            "--eps",
            "1e-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 61 * 3

    eps_values = (1e-6, 1e-5, 1e-4)
    peak_heights = {}
    peak_distances = {}
    for eps in eps_values:
        block = [r for r in rows if float(r[2]) == eps]
        assert len(block) == 61
        L = np.array([float(r[1]) for r in block])
        corrected = np.array([float(r[8]) for r in block])
        assert np.all(np.isfinite(corrected)) and np.all(corrected > 0)
        # single-peaked: strictly rising to the maximum, strictly falling after
        i = int(np.argmax(corrected))
        assert 0 < i < 60
        assert np.all(np.diff(corrected[: i + 1]) > 0)
        assert np.all(np.diff(corrected[i:]) < 0)
        # continuous on the grid scale: adjacent values stay within e^3
        assert np.max(np.abs(np.diff(np.log(corrected)))) < 3.0
        peak_heights[eps] = corrected[i]
        peak_distances[eps] = abs(L[i] - math.pi)

    # peak location approaches the critical length as eps decreases
    assert peak_distances[1e-6] <= peak_distances[1e-4] + 1e-12
    assert peak_distances[1e-6] <= 0.005 * math.pi

    # peak height grows like eps^{-1/4}
    slope = np.polyfit(
        np.log(eps_values), [math.log(peak_heights[e]) for e in eps_values], 1
    )[0]
    assert slope == pytest.approx(-0.25, abs=0.05 * 0.25)
