"""One rule for every public number of the library.

A bool, a str, an array, NaN and a value outside the function's domain
raise a ValueError whose message starts with the argument's name; a numpy
scalar gives the result of the equivalent Python number, of the same type.
"""

import math

import numpy as np
import pytest

from kramers_gl import checks, instanton, rates, simulator, specfun, spectrum
from kramers_gl.instanton import BoundaryCondition, SystemParams

NEU = BoundaryCondition.NEUMANN
PER = BoundaryCondition.PERIODIC
FIELD = np.zeros(64)
PARAMS = SystemParams(L=2.0, eps=0.25, bc=NEU)


def _sim(name):
    return lambda v: simulator.SimConfig(params=PARAMS, **{name: v})


# row -> (call of the one argument, its name, an in-range numpy scalar,
# values outside the domain)
ARGUMENTS = {
    "elliptic_K": (specfun.elliptic_K, "m", np.float32(0.5), 1.0, -0.25, 10**400),
    "elliptic_E": (specfun.elliptic_E, "m", np.float32(0.5), 1.5),
    "jacobi_sn u": (lambda v: specfun.jacobi_sn(v, 0.5), "u", np.float32(0.75), math.inf),
    "jacobi_sn m": (lambda v: specfun.jacobi_sn(0.3, v), "m", np.float32(0.5), -0.5),
    "bessel_K14": (specfun.bessel_K14, "z", np.float32(1.5), 0.0, -math.inf),
    "bessel_I14 z": (lambda v: specfun.bessel_I14(0.25, v), "z", np.float32(1.5), -1.0),
    "bessel_I14 order": (
        lambda v: specfun.bessel_I14(v, 1.0), "order", np.float32(-0.25), 0.5,
    ),
    "erfcx": (specfun.erfcx, "x", np.float32(1.5), -1.0),
    "psi_plus": (rates.psi_plus, "alpha", np.float32(2.5), -1.0, math.inf),
    "psi_minus": (rates.psi_minus, "alpha", np.float32(2.5), -1.0),
    "psi_plus_tilde": (rates.psi_plus_tilde, "alpha", np.float32(2.5), -1.0),
    "phi_switch": (rates.phi_switch, "x", np.float32(0.5), math.inf, -math.inf),
    "prefactor_classical L": (
        lambda v: rates.prefactor_classical(v, NEU), "L", np.float32(2.0), 0.0,
    ),
    "prefactor_classical eps": (
        lambda v: rates.prefactor_classical(7.0, PER, v), "eps", np.float32(0.01), 0.0,
    ),
    "prefactor_classical eps unused": (
        lambda v: rates.prefactor_classical(2.0, NEU, v), "eps", np.float32(0.01), -1.0,
    ),
    "prefactor_corrected L": (
        lambda v: rates.prefactor_corrected(v, 0.01, PER), "L", np.float32(7.0), -1.0,
    ),
    "prefactor_corrected eps": (
        lambda v: rates.prefactor_corrected(4.0, v, NEU), "eps", np.float32(0.01), 0.75,
    ),
    "SystemParams L": (
        lambda v: SystemParams(L=v, eps=0.1, bc=NEU), "L", np.float32(2.0), math.inf,
    ),
    "SystemParams eps": (
        lambda v: SystemParams(L=2.0, eps=v, bc=NEU), "eps", np.float32(0.1), 0.0,
    ),
    "solve_m_from_L": (
        lambda v: instanton.solve_m_from_L(v, NEU), "L", np.float32(4.0), -4.0,
    ),
    "activation_energy": (
        lambda v: instanton.activation_energy(v, PER), "L", np.float32(9.0), 0.0,
    ),
    "energy_functional": (
        lambda v: spectrum.energy_functional(FIELD, v, NEU), "L", np.float32(3.0), 0.0,
    ),
    "instanton_profile L": (
        lambda v: instanton.instanton_profile(v, PER, n_x=64), "L", np.float32(9.5), 0.0,
    ),
    "instanton_profile phase": (
        lambda v: instanton.instanton_profile(9.0, PER, phase=v, n_x=64),
        "phase", np.float32(0.5), math.inf,
    ),
    "instanton_profile sign": (
        lambda v: instanton.instanton_profile(4.0, NEU, sign=v, n_x=64),
        "sign", np.int64(-1), 0, 2, 1.0,
    ),
    "instanton_profile n_x": (
        lambda v: instanton.instanton_profile(9.0, PER, n_x=v), "n_x", np.int16(64), 15, 64.0,
    ),
    "mu0": (instanton.mu0, "m", np.float32(0.5), 1.5, -0.5),
    "mu0 integer": (instanton.mu0, "m", np.int64(0), 2),
    "mu1_approx": (instanton.mu1_approx, "m", np.float32(0.5), 1.5),
    "uniform_spectrum L": (
        lambda v: spectrum.uniform_spectrum(v, NEU, "stable", 8), "L", np.float32(2.0), 0.0,
    ),
    "uniform_spectrum K_max": (
        lambda v: spectrum.uniform_spectrum(2.0, NEU, "stable", v), "K_max", np.uint8(4), 0, 4.0,
    ),
    "hessian_spectrum L": (
        lambda v: spectrum.hessian_spectrum(FIELD, v, PER, 64), "L", np.float32(8.0), -8.0,
    ),
    "hessian_spectrum n_modes": (
        lambda v: spectrum.hessian_spectrum(FIELD, 8.0, PER, v),
        "n_modes", np.int32(64), 32, 2048, 64.0,
    ),
    "prefactor_from_determinants L": (
        lambda v: checks.prefactor_from_determinants(v, NEU, 16), "L", np.float32(1.5), 0.0,
    ),
    "prefactor_from_determinants K_max": (
        lambda v: checks.prefactor_from_determinants(1.5, NEU, v),
        "K_max", np.int64(16), 9, 10.7,
    ),
    "SimConfig K": (_sim("K"), "K", np.int64(8), 4, 8.0),
    "SimConfig dt": (_sim("dt"), "dt", np.float32(0.5), 0.0, math.inf),
    "SimConfig t_max": (_sim("t_max"), "t_max", np.float32(10.0), 1e-4, math.inf),
    "SimConfig n_traj": (_sim("n_traj"), "n_traj", np.int32(5), 0),
    "SimConfig seed": (_sim("seed"), "seed", np.uint64(3), -1, 2**64),
    "SimConfig crossing_threshold": (
        _sim("crossing_threshold"), "crossing_threshold", np.float32(0.25), 1.0, 0.0,
    ),
    "trajectory_rng seed": (
        lambda v: simulator.trajectory_rng(v, 0), "seed", np.uint64(7), -1, 2**64,
    ),
    "trajectory_rng index": (
        lambda v: simulator.trajectory_rng(7, v), "index", np.int64(2), -1, 2.0,
    ),
}

def _bad_values():
    for row, (_, _, _, *outside) in ARGUMENTS.items():
        for value in (True, "0.5", math.nan, np.array([1]), *outside):
            yield pytest.param(row, value, id=f"{row}-{value!r}")


@pytest.mark.parametrize("row, value", list(_bad_values()))
def test_a_bad_number_is_refused_by_name(row, value):
    call, name = ARGUMENTS[row][:2]
    with pytest.raises(ValueError, match=f"^{name} "):
        call(value)


def _same(got, expect) -> bool:
    assert type(got) is type(expect)
    if isinstance(got, np.ndarray):
        return got.tobytes() == expect.tobytes()
    if isinstance(got, spectrum.LinearizationSpectrum):
        return _same(got.eigenvalues, expect.eigenvalues)
    if isinstance(got, np.random.Generator):
        return _same(got.standard_normal(8), expect.standard_normal(8))
    return got == expect


@pytest.mark.parametrize("row", list(ARGUMENTS))
def test_a_numpy_scalar_gives_the_result_of_the_python_number(row):
    call, _, value = ARGUMENTS[row][:3]
    assert _same(call(value), call(value.item()))

