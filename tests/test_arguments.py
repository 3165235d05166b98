"""One rule for every public number of the library.

A bool, a str, a complex, an array, NaN and a value outside the function's
domain raise a ValueError whose whole message is "{name} must be a number
in {interval}, got {value!r}" ("an integer in" for a count), or the
function's own wording of its rule; a numpy scalar gives the result of the
equivalent Python number, of the same type.
"""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from kramers_gl import checks, instanton, rates, simulator, specfun, spectrum
from kramers_gl.instanton import BoundaryCondition, SystemParams

NEU = BoundaryCondition.NEUMANN
PER = BoundaryCondition.PERIODIC
FIELD = np.zeros(64)
PARAMS = SystemParams(L=2.0, eps=0.25, bc=NEU)
SEED_RANGE = "[0, 18446744073709551615]"  # 2**64 - 1


class Worded(NamedTuple):
    """A value the function refuses in its own words, not the gate's."""

    value: object
    head: str


def _sim(name):
    return lambda v: simulator.SimConfig(params=PARAMS, **{name: v})


def _quadrature(name):
    args = {"alpha": 1.0, "L": 1.0, "eps": 1e-3}
    return lambda v: checks._psi_quadrature(**{**args, name: v})


# row -> (call of the one argument, the message before ", got", an in-range
# numpy scalar, values outside the domain, each alone or Worded)
ARGUMENTS = {
    "elliptic_K": (
        specfun.elliptic_K, "m must be a number in [0, 1)", np.float32(0.5),
        1.0, -0.25, 10**400, -0.1, 1.5,
    ),
    "elliptic_E": (
        specfun.elliptic_E, "m must be a number in [0, 1]", np.float32(0.5),
        1.5, -1e-9, 1.0 + 1e-9,
    ),
    "jacobi_sn u": (
        lambda v: specfun.jacobi_sn(v, 0.5), "u must be a number in (-inf, inf)",
        np.float32(0.75), math.inf,
    ),
    "jacobi_sn m": (
        lambda v: specfun.jacobi_sn(0.3, v), "m must be a number in [0, 1]",
        np.float32(0.5), -0.5,
    ),
    "bessel_K14": (
        specfun.bessel_K14, "z must be a number in (0, inf]", np.float32(1.5),
        0.0, -math.inf, -1.0,
    ),
    "bessel_I14 z": (
        lambda v: specfun.bessel_I14(0.25, v), "z must be a number in (0, inf]",
        np.float32(1.5), -1.0,
    ),
    "bessel_I14 order": (
        lambda v: specfun.bessel_I14(v, 1.0), "order must be a number in (-inf, inf)",
        np.float32(-0.25), Worded(0.5, "order must be +1/4 or -1/4"),
    ),
    "erfcx": (specfun.erfcx, "x must be a number in [0, inf]", np.float32(1.5), -1.0),
    "psi_plus": (
        rates.psi_plus, "alpha must be a number in [0, inf)", np.float32(2.5),
        -1.0, math.inf, -0.5,
    ),
    "psi_minus": (
        rates.psi_minus, "alpha must be a number in [0, inf)", np.float32(2.5), -1.0, -0.5,
    ),
    "psi_plus_tilde": (
        rates.psi_plus_tilde, "alpha must be a number in [0, inf)", np.float32(2.5),
        -1.0, -0.5,
    ),
    "phi_switch": (
        rates.phi_switch, "x must be a number in (-inf, inf)", np.float32(0.5),
        math.inf, -math.inf,
    ),
    "prefactor_classical L": (
        lambda v: rates.prefactor_classical(v, NEU), "L must be a number in (0, inf)",
        np.float32(2.0), 0.0,
    ),
    "prefactor_classical eps": (
        lambda v: rates.prefactor_classical(7.0, PER, v), "eps must be a number in (0, inf)",
        np.float32(0.01), 0.0,
    ),
    "prefactor_classical eps unused": (
        lambda v: rates.prefactor_classical(2.0, NEU, v), "eps must be a number in (0, inf)",
        np.float32(0.01), -1.0,
    ),
    "prefactor_corrected L": (
        lambda v: rates.prefactor_corrected(v, 0.01, PER), "L must be a number in (0, inf)",
        np.float32(7.0), -1.0,
    ),
    "prefactor_corrected eps": (
        lambda v: rates.prefactor_corrected(4.0, v, NEU), "eps must be a number in (0, 0.5]",
        np.float32(0.01), 0.75, 0.0, 0.7,
    ),
    "SystemParams L": (
        lambda v: SystemParams(L=v, eps=0.1, bc=NEU), "L must be a number in (0, inf)",
        np.float32(2.0), math.inf, -1.0,
    ),
    "SystemParams eps": (
        lambda v: SystemParams(L=2.0, eps=v, bc=NEU), "eps must be a number in (0, inf)",
        np.float32(0.1), 0.0,
    ),
    "solve_m_from_L": (
        lambda v: instanton.solve_m_from_L(v, NEU), "L must be a number in (0, inf)",
        np.float32(4.0), -4.0,
    ),
    "activation_energy": (
        lambda v: instanton.activation_energy(v, PER), "L must be a number in (0, inf)",
        np.float32(9.0), 0.0,
    ),
    "energy_functional": (
        lambda v: spectrum.energy_functional(FIELD, v, NEU), "L must be a number in (0, inf)",
        np.float32(3.0), 0.0,
    ),
    "instanton_profile L": (
        lambda v: instanton.instanton_profile(v, PER, n_x=64), "L must be a number in (0, inf)",
        np.float32(9.5), 0.0,
    ),
    "instanton_profile phase": (
        lambda v: instanton.instanton_profile(9.0, PER, phase=v, n_x=64),
        "phase must be a number in (-inf, inf)", np.float32(0.5), math.inf,
    ),
    "instanton_profile sign": (
        lambda v: instanton.instanton_profile(4.0, NEU, sign=v, n_x=64),
        "sign must be an integer in [-1, 1]", np.int64(-1),
        Worded(0, "sign must be +1 or -1"), 2, 1.0,
    ),
    "instanton_profile n_x": (
        lambda v: instanton.instanton_profile(9.0, PER, n_x=v), "n_x must be an integer in [16, inf)",
        np.int16(64), 15, 64.0, 0, 1, 16.5, "32", np.True_, np.float64(32.0),
    ),
    "mu0": (
        instanton.mu0, "m must be a number in [0, 1]", np.float32(0.5),
        1.5, -0.5, -0.1, 1.1, math.inf,
    ),
    "mu0 integer": (instanton.mu0, "m must be a number in [0, 1]", np.int64(0), 2),
    "mu1_approx": (
        instanton.mu1_approx, "m must be a number in [0, 1]", np.float32(0.5),
        1.5, 2.0, -0.5, math.inf,
    ),
    "uniform_spectrum L": (
        lambda v: spectrum.uniform_spectrum(v, NEU, "stable", 8), "L must be a number in (0, inf)",
        np.float32(2.0), 0.0, -1.0,
    ),
    "uniform_spectrum K_max": (
        lambda v: spectrum.uniform_spectrum(2.0, NEU, "stable", v),
        "K_max must be an integer in [1, inf)", np.uint8(4), 0, 4.0, 2.5, np.float64(3.0),
    ),
    "hessian_spectrum L": (
        lambda v: spectrum.hessian_spectrum(FIELD, v, PER, 64), "L must be a number in (0, inf)",
        np.float32(8.0), -8.0,
    ),
    "hessian_spectrum n_modes": (
        lambda v: spectrum.hessian_spectrum(FIELD, 8.0, PER, v),
        "n_modes must be an integer in [64, 1024]", np.int32(64),
        32, 2048, 64.0, 512.0, 256.5, np.float64(128.0),
    ),
    "prefactor_from_determinants L": (
        lambda v: checks.prefactor_from_determinants(v, NEU, 16),
        "L must be a number in (0, inf)", np.float32(1.5), 0.0,
    ),
    "prefactor_from_determinants K_max": (
        lambda v: checks.prefactor_from_determinants(1.5, NEU, v),
        "K_max must be an integer in [10, inf)", np.int64(16), 9, 10.7, 5,
    ),
    "_psi_quadrature alpha": (
        _quadrature("alpha"), "alpha must be a number in [0, inf)", np.float32(2.5),
        -1.0, math.inf,
    ),
    "_psi_quadrature L": (
        _quadrature("L"), "L must be a number in (0, inf)", np.float32(2.0), 0.0,
    ),
    "_psi_quadrature eps": (
        _quadrature("eps"), "eps must be a number in (0, inf)", np.float32(0.01), 0.0,
    ),
    "_psi_quadrature dim": (
        _quadrature("dim"), "dim must be an integer in [1, inf)", np.int8(2), 0,
    ),
    "SimConfig K": (_sim("K"), "K must be an integer in [8, inf)", np.int64(8), 4, 8.0),
    "SimConfig dt": (
        _sim("dt"), "dt must be a number in (0, inf)", np.float32(0.5), 0.0, math.inf,
    ),
    "SimConfig t_max": (  # at the default dt = 1e-3
        _sim("t_max"), "t_max must be a number in [0.001, inf)", np.float32(10.0),
        1e-4, math.inf,
    ),
    "SimConfig n_traj": (_sim("n_traj"), "n_traj must be an integer in [1, inf)", np.int32(5), 0),
    "SimConfig seed": (
        _sim("seed"), f"seed must be an integer in {SEED_RANGE}", np.uint64(3),
        -1, 2**64, np.int64(-1),
    ),
    "SimConfig crossing_threshold": (
        _sim("crossing_threshold"), "crossing_threshold must be a number in (0, 1)",
        np.float32(0.25), 1.0, 0.0, 1.5,
    ),
    "trajectory_rng seed": (
        lambda v: simulator.trajectory_rng(v, 0), f"seed must be an integer in {SEED_RANGE}",
        np.uint64(7), -1, 2**64,
    ),
    "trajectory_rng index": (
        lambda v: simulator.trajectory_rng(7, v), f"index must be an integer in {SEED_RANGE}",
        np.int64(2), -1, 2.0,
    ),
}


def _bad_values():
    for row, (_, head, _, *outside) in ARGUMENTS.items():
        for value in (True, False, "0.5", 0.25 + 0j, math.nan, np.array([1]), *outside):
            refusal = value if isinstance(value, Worded) else Worded(value, head)
            yield pytest.param(row, *refusal, id=f"{row}-{refusal.value!r}")


@pytest.mark.parametrize("row, value, head", list(_bad_values()))
def test_a_bad_number_is_refused_by_name(row, value, head):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{head}, got {value!r}')}$"):
        ARGUMENTS[row][0](value)


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

