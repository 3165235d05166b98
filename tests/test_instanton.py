"""Tests for transition-state profiles, energies, and the length inversion."""

import math

import numpy as np
import pytest

from kramers_gl.instanton import (
    BoundaryCondition,
    NoInstantonRegime,
    SystemParams,
    activation_energy,
    instanton_profile,
    solve_m_from_L,
)
from kramers_gl.instanton import _grid
from kramers_gl.specfun import elliptic_K, jacobi_sn
from kramers_gl.spectrum import energy_functional, uniform_spectrum

PERIODIC = BoundaryCondition.PERIODIC
NEUMANN = BoundaryCondition.NEUMANN


def length_of_m(m, bc):
    c = 4.0 if bc is PERIODIC else 2.0
    return c * math.sqrt(1.0 + m) * elliptic_K(m)


class TestSolveM:
    def test_near_critical_periodic(self):
        m = solve_m_from_L(2 * math.pi * (1 + 1e-8), PERIODIC)
        assert 0 < m < 1e-6

    def test_near_critical_neumann(self):
        m = solve_m_from_L(math.pi * (1 + 1e-8), NEUMANN)
        assert 0 < m < 1e-6

    def test_periodic_L8(self):
        m = solve_m_from_L(8.0, PERIODIC)
        assert 0.3 < m < 0.4
        residual = 4.0 * math.sqrt(1 + m) * elliptic_K(m) - 8.0
        assert abs(residual) < 1e-12

    @pytest.mark.parametrize("bc", [PERIODIC, NEUMANN])
    @pytest.mark.parametrize("m_true", [1e-6, 0.01, 0.1, 0.5, 0.9, 0.999])
    def test_roundtrip(self, bc, m_true):
        L = length_of_m(m_true, bc)
        m = solve_m_from_L(L, bc)
        residual = length_of_m(m, bc) - L
        assert abs(residual) < 1e-12
        assert m == pytest.approx(m_true, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("bc", [PERIODIC, NEUMANN])
    def test_no_instanton_regime(self, bc):
        for L in [0.5, bc.critical_length * 0.9, bc.critical_length]:
            with pytest.raises(NoInstantonRegime):
                solve_m_from_L(L, bc)

    @pytest.mark.parametrize(
        "bc, solved, refused", [(NEUMANN, 55.0, 56.0), (PERIODIC, 110.0, 112.0)]
    )
    def test_too_long_to_resolve(self, bc, solved, refused):
        # 1 - m reaches the double-precision floor 1e-16 between the two
        assert 0.0 < solve_m_from_L(solved, bc) < 1.0
        with pytest.raises(ValueError, match="too large to resolve the modulus"):
            solve_m_from_L(refused, bc)


class TestProfile:
    def test_amplitude_vanishes_at_bifurcation(self):
        prof = instanton_profile(2 * math.pi * (1 + 1e-10), PERIODIC, n_x=64)
        assert np.max(np.abs(prof)) < 1e-4

    def test_neumann_endpoint(self):
        L = 4.0
        m = solve_m_from_L(L, NEUMANN)
        amp = math.sqrt(2 * m / (m + 1))
        for sign in (1, -1):
            prof = instanton_profile(L, NEUMANN, sign=sign, n_x=257)
            assert prof[0] == pytest.approx(sign * amp, rel=1e-12)
            # spectral endpoint derivative of the even extension vanishes
            dx = L / 256
            one_sided = (
                -3 * prof[0] + 4 * prof[1] - prof[2]
            ) / (2 * dx)
            assert abs(one_sided) < 1e-3  # O(dx^2) near a flat point

    def test_periodic_stationarity_residual(self):
        # -phi'' - phi + phi^3 = 0 for a transition state
        L = 8.0
        prof = instanton_profile(L, PERIODIC, n_x=512)
        v = prof
        vhat = np.fft.rfft(v)
        k = 2 * math.pi * np.fft.rfftfreq(512, d=L / 512)
        lap = np.fft.irfft(-(k**2) * vhat, n=512)
        residual = -lap - v + v**3
        assert np.max(np.abs(residual)) < 1e-6

    def test_neumann_stationarity_residual(self):
        L = 5.0
        prof = instanton_profile(L, NEUMANN, n_x=513)
        ext = np.concatenate([prof, prof[-2:0:-1]])
        n = ext.size
        vhat = np.fft.rfft(ext)
        k = 2 * math.pi * np.fft.rfftfreq(n, d=2 * L / n)
        lap = np.fft.irfft(-(k**2) * vhat, n=n)[: prof.size]
        residual = -lap - prof + prof**3
        assert np.max(np.abs(residual)) < 1e-6

    def test_raises_below_critical(self):
        with pytest.raises(NoInstantonRegime):
            instanton_profile(3.0, NEUMANN)

    @pytest.mark.parametrize(
        "bc, L, phase, sign",
        [
            (PERIODIC, 9.0, 0.7, 1),
            (PERIODIC, 7.0, -50.0, -1),
            (NEUMANN, 4.5, 0.0, -1),
            (NEUMANN, 4.0, 0.0, 1),
        ],
    )
    def test_sample_is_jacobi_sn_point_by_point(self, bc, L, phase, sign):
        profile = instanton_profile(L, bc, phase=phase, sign=sign, n_x=257)
        m = solve_m_from_L(L, bc)
        if bc is NEUMANN:
            phase = elliptic_K(m)
        amplitude = math.sqrt(2.0 * m / (m + 1.0))
        scale = 1.0 / math.sqrt(m + 1.0)
        expect = [
            sign * (amplitude * jacobi_sn(scale * x + phase, m))
            for x in _grid(L, profile.size, bc)
        ]
        assert all(v == e for v, e in zip(profile, expect, strict=True))

    # a finite phase was ignored: phase=0.5 gave the phase=0.0 profile bit for bit
    @pytest.mark.parametrize("phase", [0.5, -1e-300, np.float32(2.0)])
    def test_neumann_refuses_a_nonzero_phase(self, phase):
        with pytest.raises(ValueError, match=r"^phase must be 0 for neumann bc"):
            instanton_profile(4.0, NEUMANN, phase=phase, n_x=64)

    def test_neumann_takes_a_zero_phase(self):
        pinned = instanton_profile(4.0, NEUMANN, n_x=64).tobytes()
        assert instanton_profile(4.0, NEUMANN, phase=-0.0, n_x=64).tobytes() == pinned
        assert instanton_profile(4.0, NEUMANN, phase=0, n_x=64).tobytes() == pinned

    @pytest.mark.parametrize("bc, L", [(PERIODIC, 9.0), (NEUMANN, 4.0)])
    def test_is_a_float_array_and_takes_a_numpy_count(self, bc, L):
        profile = instanton_profile(L, bc, n_x=np.int64(64))
        assert profile.dtype == np.float64 and profile.shape == (64,)
        assert profile.tobytes() == instanton_profile(L, bc, n_x=64).tobytes()


class TestEnergyFunctional:
    @pytest.mark.parametrize("bc", [PERIODIC, NEUMANN])
    @pytest.mark.parametrize("L", [1.0, 2 * math.pi, 9.0])
    def test_uniform_states(self, bc, L):
        n = 128
        ones = np.ones(n)
        zeros = np.zeros(n)
        assert energy_functional(ones, L, bc) == pytest.approx(-L / 4, rel=1e-13)
        minus = -np.ones(n)
        assert energy_functional(minus, L, bc) == pytest.approx(-L / 4, rel=1e-13)
        assert energy_functional(zeros, L, bc) == 0.0

    def test_periodic_instanton_L8(self):
        # barrier height is measured from H[phi_-] = -L/4
        L = 8.0
        prof = instanton_profile(L, PERIODIC, n_x=512)
        h = energy_functional(prof, L, PERIODIC)
        assert h + L / 4 == pytest.approx(activation_energy(L, PERIODIC), abs=1e-8)

    def test_phase_invariance(self):
        L = 8.0
        rng = np.random.default_rng(7)
        energies = [
            energy_functional(instanton_profile(L, PERIODIC, phase=ph), L, PERIODIC)
            for ph in rng.uniform(0, 4, size=8)
        ]
        assert max(energies) - min(energies) < 1e-10

    def test_sign_symmetry(self):
        L = 4.5
        e_plus = energy_functional(instanton_profile(L, NEUMANN, sign=1), L, NEUMANN)
        e_minus = energy_functional(instanton_profile(L, NEUMANN, sign=-1), L, NEUMANN)
        assert e_plus == pytest.approx(e_minus, abs=1e-12)

    def test_rejects_nonfinite(self):
        vals = np.ones(32)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            energy_functional(vals, 2.0, PERIODIC)


class TestActivationEnergy:
    def test_uniform_branch(self):
        assert activation_energy(2.0, NEUMANN) == 0.5
        assert activation_energy(1.0, PERIODIC) == 0.25
        # closed interval: exactly the critical length is the uniform branch
        assert activation_energy(math.pi, NEUMANN) == math.pi / 4
        assert activation_energy(2 * math.pi, PERIODIC) == math.pi / 2

    def test_instanton_branch_limit(self):
        # m -> 0: (1/3)[8 E(0) - 5 K(0)] = pi/2 matches the uniform branch
        dw = activation_energy(2 * math.pi * (1 + 1e-12), PERIODIC)
        assert dw == pytest.approx(math.pi / 2, rel=1e-9)

    @pytest.mark.parametrize("bc", [PERIODIC, NEUMANN])
    def test_continuity_at_critical(self, bc):
        Lc = bc.critical_length
        delta = 1e-7
        below = activation_energy(Lc - delta, bc)
        above = activation_energy(Lc + delta, bc)
        assert abs(below - above) < 1e-6

    def test_monotone_in_L(self):
        for bc in (PERIODIC, NEUMANN):
            grid = np.linspace(0.1, 4 * math.pi, 200)
            vals = [activation_energy(L, bc) for L in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bc", [PERIODIC, NEUMANN])
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_closed_form_vs_quadrature(self, bc, m):
        L = length_of_m(m, bc)
        prof = instanton_profile(L, bc, n_x=512 if bc is PERIODIC else 513)
        barrier = energy_functional(prof, L, bc) + L / 4
        assert activation_energy(L, bc) == pytest.approx(barrier, abs=1e-8)

    def test_neumann_is_half_periodic(self):
        # a Neumann interval of length L is the even half of the periodic
        # circle of length 2L: the same modulus, half the barrier and the
        # same uniform eigenvalues, bit for bit
        for L in np.linspace(math.pi, 16.0 * math.pi, 3999).tolist():
            assert activation_energy(L, NEUMANN) == 0.5 * activation_energy(2.0 * L, PERIODIC)
            if L > math.pi:
                assert solve_m_from_L(L, NEUMANN) == solve_m_from_L(2.0 * L, PERIODIC)
        for L in np.linspace(0.0, 30.0, 400)[1:].tolist():
            for state in ("stable", "transition"):
                neumann = uniform_spectrum(L, NEUMANN, state, 64).eigenvalues
                periodic = uniform_spectrum(2.0 * L, PERIODIC, state, 64).eigenvalues
                assert np.array_equal(neumann, periodic)


class TestParams:
    def test_valid(self):
        p = SystemParams(L=2.0, eps=0.1, bc="neumann")
        assert p.bc is NEUMANN

    def test_invalid(self):
        with pytest.raises(ValueError):
            SystemParams(L=1.0, eps=0.1, bc="dirichlet")

    def test_description_invariants(self):
        L = 8.0
        m = solve_m_from_L(L, PERIODIC)
        amplitude = math.sqrt(2 * m / (m + 1))
        peak = np.max(np.abs(instanton_profile(L, PERIODIC)))
        assert 0 < peak <= amplitude < 1
