"""Noise-activated transition rates for the stochastic Ginzburg-Landau
equation on an interval.

The library computes Kramers transition rates Gamma = Gamma_0 e^{-dW/eps}
for the overdamped field dynamics
    dphi/dt = d^2phi/dx^2 + phi - phi^3 + sqrt(2 eps) xi(t, x)
on [0, L] with periodic or Neumann boundary conditions: classical
determinant-ratio prefactors, bifurcation-corrected prefactors built on
universal Bessel/erf scaling functions (finite through the critical
length where the uniform saddle loses stability), and a spectral
Galerkin Monte Carlo simulator for validating the predictions against
mean first-passage times.
"""

from .instanton import (
    BoundaryCondition,
    FieldConfiguration,
    NoInstantonRegime,
    SystemParams,
    activation_energy,
    energy_functional,
    instanton_profile,
    solve_m_from_L,
)
from .rates import (
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
from .specfun import (
    bessel_I14,
    bessel_K14,
    elliptic_E,
    elliptic_K,
    erf,
    erfc,
    erfcx,
    jacobi_sn,
)
from .spectrum import (
    LinearizationSpectrum,
    hessian_spectrum,
    mu0,
    mu1_approx,
    uniform_spectrum,
)

__version__ = "0.1.0"

# The simulator needs numpy at import; its names are loaded on first use
# (PEP 562), so the closed-form rate path imports no numpy.
_SIMULATOR_NAMES = (
    "EstimateUnavailable",
    "MfptEstimate",
    "SimConfig",
    "SimulationBlowUp",
    "estimate_mfpt",
    "run_to_transition",
    "trajectory_rng",
)


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SIMULATOR_NAMES})

__all__ = [
    "BoundaryCondition",
    "DivergentClassicalPrefactor",
    "EstimateUnavailable",
    "FieldConfiguration",
    "LinearizationSpectrum",
    "MfptEstimate",
    "NoInstantonRegime",
    "RateBreakdown",
    "SimConfig",
    "SimulationBlowUp",
    "SystemParams",
    "activation_energy",
    "bessel_I14",
    "bessel_K14",
    "elliptic_E",
    "elliptic_K",
    "energy_functional",
    "erf",
    "erfc",
    "erfcx",
    "estimate_mfpt",
    "hessian_spectrum",
    "instanton_profile",
    "jacobi_sn",
    "kramers_rate",
    "mu0",
    "mu1_approx",
    "phi_switch",
    "prefactor_classical",
    "prefactor_corrected",
    "psi_minus",
    "psi_plus",
    "psi_plus_tilde",
    "run_to_transition",
    "solve_m_from_L",
    "trajectory_rng",
    "uniform_spectrum",
]
