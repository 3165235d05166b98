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

import importlib

__version__ = "0.1.0"

# Defining module -> the public names it exports. Each name resolves on
# first use (PEP 562), so `import kramers_gl` loads no submodule and the
# closed-form rate path never loads the simulator's numpy. Nothing is
# cached here: a function patched on its module is what the package gives.
_EXPORTS = {
    "instanton": (
        "BoundaryCondition", "NoInstantonRegime", "SystemParams",
        "activation_energy", "instanton_profile", "mu0", "mu1_approx",
        "solve_m_from_L",
    ),
    "rates": (
        "DivergentClassicalPrefactor", "RateBreakdown", "kramers_rate",
        "phi_switch", "prefactor_classical", "prefactor_corrected",
        "psi_minus", "psi_plus", "psi_plus_tilde",
    ),
    "specfun": (
        "bessel_I14", "bessel_K14", "elliptic_E", "elliptic_K", "erfcx",
        "jacobi_sn",
    ),
    "spectrum": (
        "LinearizationSpectrum", "energy_functional", "hessian_spectrum",
        "uniform_spectrum",
    ),
    "simulator": (
        "EstimateUnavailable", "MfptEstimate", "SimConfig", "SimulationBlowUp",
        "estimate_mfpt", "run_to_transition", "trajectory_rng",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
