"""Shared fixtures: the expensive Monte Carlo ensembles run once per session."""

import math

import pytest

from kramers_gl.instanton import BoundaryCondition, SystemParams, instanton_profile
from kramers_gl.rates import prefactor_corrected, psi_minus
from kramers_gl.simulator import SimConfig, estimate_mfpt
from kramers_gl.spectrum import hessian_spectrum

# The reference first-passage experiment: bistable Neumann interval below
# the critical length, noise strong enough to transition in reasonable
# time yet weak enough to sit in the activated regime (deltaW/eps ≈ 4.2).
MC_MAIN_CONFIG = SimConfig(
    params=SystemParams(L=2.0, eps=0.12, bc=BoundaryCondition.NEUMANN),
    K=16,
    dt=1e-3,
    t_max=4000.0,
    n_traj=500,
    seed=20260816,
)


@pytest.fixture(scope="session")
def mc_main_ensemble():
    """(config, MfptEstimate) for the reference ensemble; shared session-wide."""
    return MC_MAIN_CONFIG, estimate_mfpt(MC_MAIN_CONFIG)


@pytest.fixture
def corrected_with_numeric_mu1():
    """Neumann instanton-branch corrected prefactor with mu1 diagonalized.

    prefactor_corrected substitutes mu1 = 3m; this takes the second
    eigenvalue of the Hessian at the instanton profile instead.
    """
    NEU = BoundaryCondition.NEUMANN

    def value(L: float, eps: float) -> float:
        a = math.sqrt(3.0 * eps / (4.0 * L))
        prof = instanton_profile(L, NEU)
        mu1 = hessian_spectrum(prof, L, NEU, n_modes=256).eigenvalues[1]
        classical = prefactor_corrected(L, eps, NEU).gamma0_classical
        return classical * (0.5 * math.sqrt(mu1 / (mu1 + a)) * psi_minus(mu1 / a))

    return value
