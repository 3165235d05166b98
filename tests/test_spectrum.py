"""Tests for spectra of the linearized operators.

Oracles: closed-form mode eigenvalues at uniform states, the exact
lowest two Hessian eigenvalues on the instanton branch (known in closed
form from the solvable linearization around the elliptic-function
profile: mu0 = 1 - (2/(m+1)) sqrt(m^2-m+1) and, for Neumann, exactly
3m/(1+m)), and internal-consistency/convergence checks.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kramers_gl import spectrum
from kramers_gl.instanton import (
    BoundaryCondition,
    instanton_profile,
    mu0,
    mu1_approx,
    solve_m_from_L,
)
from kramers_gl.spectrum import (
    LinearizationSpectrum,
    _fourier_resample,
    energy_functional,
    hessian_spectrum,
    uniform_spectrum,
)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN

# 1 - 2/sqrt(3), lowest Hessian eigenvalue at modulus m = 1/2
MU0_HALF = -0.15470053837925146


def neumann_length(m: float) -> float:
    from kramers_gl.specfun import elliptic_K

    return 2.0 * math.sqrt(1.0 + m) * elliptic_K(m)


# ---------------------------------------------------------------------------
# uniform_spectrum
# ---------------------------------------------------------------------------


def test_uniform_transition_neumann_values():
    spec = uniform_spectrum(2.0, NEU, "transition", K_max=4)
    expect = [-1.0 + (math.pi * k / 2.0) ** 2 for k in range(5)]
    np.testing.assert_allclose(spec.eigenvalues, expect, rtol=1e-15)
    assert np.all(spec.multiplicities == 1)


def test_uniform_transition_periodic_multiplicity():
    spec = uniform_spectrum(10.0, PER, "transition", K_max=3)
    expect = [-1.0 + (2.0 * math.pi * k / 10.0) ** 2 for k in range(4)]
    np.testing.assert_allclose(spec.eigenvalues, expect, rtol=1e-15)
    assert list(spec.multiplicities) == [1, 2, 2, 2]
    assert spec.expanded().size == 7
    assert spec.expanded()[1] == spec.expanded()[2]


def test_uniform_stable_base_value():
    for bc in (PER, NEU):
        spec = uniform_spectrum(3.0, bc, "stable", K_max=2)
        assert spec.eigenvalues[0] == pytest.approx(2.0, abs=0)
        assert np.all(spec.eigenvalues >= 2.0)


def test_uniform_second_eigenvalue_sign_tracks_critical_length():
    # lambda_1 changes sign exactly at the critical length
    for bc in (PER, NEU):
        Lc = bc.critical_length
        below = uniform_spectrum(0.9 * Lc, bc, "transition", K_max=1)
        above = uniform_spectrum(1.1 * Lc, bc, "transition", K_max=1)
        assert below.eigenvalues[1] > 0
        assert above.eigenvalues[1] < 0


@given(
    L=st.floats(0.2, 50.0),
    K_max=st.integers(1, 40),
    bc=st.sampled_from([PER, NEU]),
)
def test_uniform_stable_is_transition_plus_three(L, K_max, bc):
    trans = uniform_spectrum(L, bc, "transition", K_max)
    stab = uniform_spectrum(L, bc, "stable", K_max)
    np.testing.assert_allclose(stab.eigenvalues, trans.eigenvalues + 3.0, rtol=1e-14)
    np.testing.assert_array_equal(stab.multiplicities, trans.multiplicities)


def test_uniform_spectrum_validation():
    with pytest.raises(ValueError):
        uniform_spectrum(2.0, PER, "metastable", 4)


@pytest.mark.parametrize("L", [1e-200, 1e-320])
@pytest.mark.parametrize("bc", [NEU, PER])
def test_uniform_spectrum_refuses_eigenvalues_beyond_double_range(L, bc):
    # (k pi/L)^2 overflowed to inf, with an overflow warning
    for state in ("transition", "stable"):
        with pytest.raises(ValueError, match=f"L = {L!r} is too short"):
            uniform_spectrum(L, bc, state, 64)


def test_uniform_spectrum_accepts_numpy_integers():
    for K_max in (np.int64(4), np.int32(4), np.uint8(4)):
        spec = uniform_spectrum(2.0, NEU, "transition", K_max)
        np.testing.assert_array_equal(
            spec.eigenvalues, uniform_spectrum(2.0, NEU, "transition", 4).eigenvalues
        )


def test_spectrum_dataclass_rejects_descending():
    with pytest.raises(ValueError):
        LinearizationSpectrum(
            eigenvalues=np.array([1.0, 0.0]),
            multiplicities=np.array([1, 1]),
        )
    with pytest.raises(ValueError, match="same shape"):
        LinearizationSpectrum(eigenvalues=np.array([0.0, 1.0]), multiplicities=np.array([1]))


# ---------------------------------------------------------------------------
# hessian_spectrum, uniform inputs (closed-form oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bc", [PER, NEU])
def test_hessian_at_saddle_matches_uniform_closed_form(bc):
    zeros = np.zeros(128)
    spec = hessian_spectrum(zeros, 5.0, bc, n_modes=128)
    expect = uniform_spectrum(5.0, bc, "transition", K_max=60).expanded()
    n = 20
    np.testing.assert_allclose(spec.eigenvalues[:n], np.sort(expect)[:n], atol=1e-10)


@pytest.mark.parametrize("bc", [PER, NEU])
def test_hessian_at_stable_state_bounded_below_by_two(bc):
    ones = np.full(128, -1.0)
    spec = hessian_spectrum(ones, 7.0, bc, n_modes=128)
    assert spec.eigenvalues[0] >= 2.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(-2.0, 2.0),
    L=st.floats(0.5, 20.0),
    bc=st.sampled_from([PER, NEU]),
)
def test_hessian_uniform_field_shifts_free_spectrum(c, L, bc):
    # potential 3c^2 - 1 just shifts every free eigenvalue by 3c^2
    field = np.full(64, c)
    spec = hessian_spectrum(field, L, bc, n_modes=64)
    expect = np.sort(uniform_spectrum(L, bc, "transition", K_max=40).expanded())[:5]
    np.testing.assert_allclose(
        spec.eigenvalues[:5], expect + 3.0 * c * c, atol=1e-9 * max(1.0, 3 * c * c)
    )


# ---------------------------------------------------------------------------
# hessian_spectrum, instanton inputs (elliptic-linearization oracle)
# ---------------------------------------------------------------------------


def test_periodic_instanton_has_translation_zero_mode():
    L = 8.0
    prof = instanton_profile(L, PER)
    spec = hessian_spectrum(prof, L, PER, n_modes=512)
    ev = spec.eigenvalues
    m = solve_m_from_L(L, PER)
    assert ev[0] == pytest.approx(mu0(m), abs=1e-8)
    assert abs(ev[1]) < 1e-6  # translation invariance of the profile family
    assert ev[2] > 1e-3


def complex_periodic_eigenvalues(values, L, n_modes):
    """The exponential-basis Hermitian Galerkin matrix, diagonalised."""
    K = n_modes // 2
    n_fine = 4 * max(K + 1, values.size)
    phi = _fourier_resample(values, n_fine)
    w = np.fft.fft(3.0 * phi * phi - 1.0) / n_fine
    p = np.arange(-K, K + 1)
    A = w[(p[:, None] - p[None, :]) % n_fine]
    A[np.diag_indices_from(A)] += (2.0 * math.pi * p / L) ** 2
    return np.linalg.eigvalsh(A)


def modulo_gather_periodic_eigenvalues(values, L, n_modes):
    """The real-basis periodic matrix with complex gathers taken % n_fine."""
    K = n_modes // 2
    n_fine = 4 * max(K + 1, values.size)
    phi = _fourier_resample(values, n_fine)
    w = np.fft.fft(3.0 * phi * phi - 1.0) / n_fine
    p = np.arange(1, K + 1)
    diff, total = w[(p[:, None] - p[None, :]) % n_fine], w[p[:, None] + p[None, :]]
    c, s = slice(1, K + 1), slice(K + 1, None)
    A = np.empty((2 * K + 1, 2 * K + 1))
    A[0, 0] = w[0].real
    A[0, c] = A[c, 0] = math.sqrt(2.0) * w[p].real
    A[0, s] = A[s, 0] = -math.sqrt(2.0) * w[p].imag
    A[c, c], A[s, s] = diff.real + total.real, diff.real - total.real
    A[c, s] = diff.imag - total.imag
    A[s, c] = A[c, s].T
    kin = (2.0 * math.pi * p / L) ** 2
    A[np.diag_indices_from(A)] += np.concatenate(([0.0], kin, kin))
    return np.linalg.eigvalsh(A)


def cosine_basis_eigenvalues(values, L, n_modes):
    """The Neumann matrix in {1, sqrt2 cos(pi j x/L)}, from cosine coefficients."""

    def coeffs(v):  # w_d of sum_d w_d cos(pi d x/L), via the even extension
        F = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / (2 * (v.size - 1))
        w = 2.0 * F
        w[0], w[-1] = F[0], F[-1]
        return w

    M = 2 * max(n_modes, values.size - 1)  # intervals of the fine grid
    w = coeffs(values)
    spec = np.zeros(M + 1)
    spec[: w.size] = w * M
    spec[0] *= 2.0
    phi = np.fft.irfft(spec, n=2 * M)[: M + 1]
    w = coeffs(3.0 * phi * phi - 1.0)
    j = np.arange(n_modes)
    A = 0.5 * (w[np.abs(j[:, None] - j)] + w[j[:, None] + j])
    A[0] /= math.sqrt(2.0)
    A[:, 0] /= math.sqrt(2.0)
    A[np.diag_indices_from(A)] += 0.5 * w[0] + (math.pi * j / L) ** 2
    return np.linalg.eigvalsh(A)


def two_harmonic_field(L, n_x=512):
    x = np.arange(n_x) * (L / n_x)
    k = 2.0 * math.pi / L
    return 0.4 * np.cos(k * x) + 0.3 * np.sin(2 * k * x + 0.2)


@pytest.mark.parametrize(
    "L, field",
    [
        (9.0, lambda: instanton_profile(9.0, PER, phase=0.0, n_x=1024)),
        (9.0, lambda: instanton_profile(9.0, PER, phase=0.3, n_x=1024)),
        (13.0, lambda: instanton_profile(13.0, PER, phase=1.1, n_x=1024)),
        (7.0, lambda: two_harmonic_field(7.0)),
    ],
)
def test_periodic_real_basis_matches_complex_basis(L, field):
    # {1, sqrt2 cos, sqrt2 sin} is a unitary change of the exponential basis
    values = field()
    expect = complex_periodic_eigenvalues(values, L, 512)
    got = hessian_spectrum(values, L, PER, n_modes=512).eigenvalues
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize(
    "L, field",
    [
        (6.6, lambda: instanton_profile(6.6, PER, n_x=1024)),
        (8.0, lambda: instanton_profile(8.0, PER, phase=0.3, n_x=1024)),
        (9.0, lambda: instanton_profile(9.0, PER, phase=0.3, n_x=1024)),
        (13.0, lambda: instanton_profile(13.0, PER, n_x=1024)),
        (7.0, lambda: two_harmonic_field(7.0)),
    ],
)
def test_periodic_assembly_is_bit_identical_to_modulo_gathers(L, field):
    # w[-d] reads w[n_fine - d], and each entry is still one IEEE add
    values = field()
    expect = modulo_gather_periodic_eigenvalues(values, L, 512)
    got = hessian_spectrum(values, L, PER, n_modes=512).eigenvalues
    assert np.array_equal(got, expect)


def index_gathers(v, K):
    """v[p - q] and v[p + q], p, q = 1..K, gathered through index arrays."""
    p = np.arange(1, K + 1)
    return v[p[:, None] - p], v[p[:, None] + p]


@pytest.mark.parametrize(
    "L, bc, field",
    [
        (4.0, NEU, lambda: instanton_profile(4.0, NEU, n_x=1024)),
        (7.0, NEU, lambda: three_harmonic_cosine_field(7.0)),
        (9.0, PER, lambda: instanton_profile(9.0, PER, phase=0.3, n_x=1024)),
        (7.0, PER, lambda: two_harmonic_field(7.0)),  # not even about any point
    ],
)
def test_strided_views_are_bit_identical_to_index_gathers(monkeypatch, L, bc, field):
    values = field()
    got = hessian_spectrum(values, L, bc, n_modes=512).eigenvalues
    monkeypatch.setattr(spectrum, "_diff_total", index_gathers)
    expect = hessian_spectrum(values, L, bc, n_modes=512).eigenvalues
    assert np.array_equal(got, expect)
    v = np.random.default_rng(5).normal(size=4 * 513)
    for K in (1, 2, 255, 512):
        for view, gather in zip(spectrum._diff_total(v, K), index_gathers(v, K)):
            assert np.array_equal(view, gather), K


def test_neumann_hessian_takes_no_index_arrays():
    # the index arrays and their gathers, five K x K temporaries, took 8.3 MiB
    prof = instanton_profile(4.0, NEU, n_x=1024)
    hessian_spectrum(prof, 4.0, NEU, n_modes=512)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        hessian_spectrum(prof, 4.0, NEU, n_modes=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, f"{peak / 2**20:.2f} MiB"


def three_harmonic_cosine_field(L, n_x=513):
    x = np.linspace(0.0, L, n_x)
    k = math.pi / L
    values = 0.4 * np.cos(k * x) + 0.3 * np.cos(2 * k * x) - 0.2 * np.cos(5 * k * x)
    return values


@pytest.mark.parametrize("n_x, n_modes", [(1024, 512), (512, 256)])
@pytest.mark.parametrize(
    "L, field",
    [
        (3.3, lambda n_x: instanton_profile(3.3, NEU, n_x=n_x)),
        (4.0, lambda n_x: instanton_profile(4.0, NEU, n_x=n_x)),
        (5.5, lambda n_x: instanton_profile(5.5, NEU, n_x=n_x)),
        (7.0, lambda n_x: instanton_profile(7.0, NEU, n_x=n_x)),
        (6.0, lambda n_x: three_harmonic_cosine_field(6.0, n_x)),
    ],
)
def test_neumann_even_half_matches_cosine_basis(L, field, n_x, n_modes):
    # the cosine block of the 2L-periodic real basis is the cosine basis on [0, L]
    values = field(n_x)
    expect = cosine_basis_eigenvalues(values, L, n_modes)
    got = hessian_spectrum(values, L, NEU, n_modes=n_modes).eigenvalues
    assert got.shape == expect.shape == (n_modes,)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("m", [0.1, 0.5])
def test_neumann_instanton_lowest_eigenvalue_is_mu0(m):
    L = neumann_length(m)
    prof = instanton_profile(L, NEU)
    spec = hessian_spectrum(prof, L, NEU, n_modes=512)
    assert spec.eigenvalues[0] == pytest.approx(mu0(m), abs=1e-6)


@pytest.mark.parametrize("m", [0.01, 0.1, 0.5])
def test_neumann_second_eigenvalue_closed_form(m):
    # exact second eigenvalue on the Neumann instanton branch: 3m/(1+m)
    L = neumann_length(m)
    prof = instanton_profile(L, NEU, n_x=1024)
    spec = hessian_spectrum(prof, L, NEU, n_modes=512)
    assert spec.eigenvalues[1] == pytest.approx(3.0 * m / (1.0 + m), abs=1e-8)
    # no zero mode under Neumann conditions
    assert spec.eigenvalues[1] > 1e-4 * m


@pytest.mark.parametrize("m", [0.01, 0.1])
def test_mu1_small_m_substitution_error_bound(m):
    L = neumann_length(m)
    prof = instanton_profile(L, NEU)
    spec = hessian_spectrum(prof, L, NEU, n_modes=512)
    assert abs(spec.eigenvalues[1] - mu1_approx(m)) <= 5.0 * m * m


@pytest.mark.parametrize(
    "bc,L_values",
    [
        (PER, [6.6, 8.0, 11.0, 14.0]),
        (NEU, [3.3, 4.0, 5.5, 7.0]),
    ],
)
def test_transition_states_have_exactly_one_unstable_direction(bc, L_values):
    for L in L_values:
        prof = instanton_profile(L, bc)
        spec = hessian_spectrum(prof, L, bc, n_modes=256)
        n_negative = int(np.sum(spec.eigenvalues < -1e-6))
        assert n_negative == 1, f"L={L}, bc={bc.name}"


def test_uniform_saddle_below_critical_one_unstable_direction():
    for bc, L in [(PER, 5.0), (NEU, 2.5)]:
        spec = uniform_spectrum(L, bc, "transition", K_max=64)
        assert int(np.sum(spec.expanded() < 0)) == 1


@pytest.mark.parametrize("bc,L", [(PER, 9.0), (NEU, 4.5)])
def test_hessian_resolution_convergence(bc, L):
    prof = instanton_profile(L, bc)
    lo = hessian_spectrum(prof, L, bc, n_modes=256).eigenvalues[:5]
    hi = hessian_spectrum(prof, L, bc, n_modes=512).eigenvalues[:5]
    np.testing.assert_allclose(lo, hi, atol=1e-8)


def test_hessian_accepts_numpy_integers():
    prof = instanton_profile(8.0, PER, n_x=256)
    expect = hessian_spectrum(prof, 8.0, PER, n_modes=128).eigenvalues
    for n_modes in (np.int64(128), np.int16(128)):
        got = hessian_spectrum(prof, 8.0, PER, n_modes=n_modes).eigenvalues
        np.testing.assert_array_equal(got, expect)


def test_hessian_validation():
    bad = np.full(64, np.nan)
    with pytest.raises(ValueError):
        hessian_spectrum(bad, 8.0, PER, n_modes=256)


_MALFORMED_SAMPLES = {
    "2-d": (np.zeros((2, 32)), "at least 16 grid values in 1-d"),
    "15 values": (np.zeros(15), "at least 16 grid values"),
    "a NaN": (np.concatenate([np.zeros(31), [np.nan]]), "finite"),
}


_TAKE_SAMPLES = {
    "hessian_spectrum": lambda values, bc: hessian_spectrum(values, 8.0, bc, n_modes=256),
    "energy_functional": lambda values, bc: energy_functional(values, 8.0, bc),
}


# both used to read .values and .bc off a FieldConfiguration record
@pytest.mark.parametrize("samples", list(_MALFORMED_SAMPLES))
@pytest.mark.parametrize("bc", [PER, NEU])
@pytest.mark.parametrize("take", list(_TAKE_SAMPLES))
def test_sampled_field_is_refused_unless_1d_16_and_finite(take, bc, samples):
    values, message = _MALFORMED_SAMPLES[samples]
    with pytest.raises(ValueError, match=message):
        _TAKE_SAMPLES[take](values, bc)


# ---------------------------------------------------------------------------
# mu0 / mu1_approx closed forms
# ---------------------------------------------------------------------------


def test_mu0_endpoint_values():
    assert mu0(0.0) == pytest.approx(-1.0, abs=0)
    assert mu0(1.0) == pytest.approx(0.0, abs=1e-15)
    assert mu0(0.5) == pytest.approx(MU0_HALF, rel=1e-15)


def test_mu0_monotone_increasing():
    ms = np.linspace(0.0, 1.0, 200)
    vals = [mu0(m) for m in ms]
    assert np.all(np.diff(vals) > 0)
    assert all(-1.0 <= v <= 0.0 for v in vals)


def test_mu0_small_m_expansion():
    # mu0 = -1 + 3m - (15/4) m^2 + O(m^3)
    m = 1e-6
    assert mu0(m) == pytest.approx(-1.0 + 3.0 * m, abs=1e-11)


def test_mu0_near_one_tail_survives_in_floating_point():
    # mu0 ~ -3(1-m)^2/8 as m -> 1; the naive 1 - (2/(1+m))sqrt(m^2-m+1)
    # cancels to exactly zero here
    for delta in (1e-10, 1e-14):
        m = 1.0 - delta
        assert mu0(m) == pytest.approx(-0.375 * delta * delta, rel=1e-9)
        assert mu0(m) < 0.0


def test_mu1_approx_is_three_m():
    assert mu1_approx(0.2) == pytest.approx(0.6, rel=1e-15)
    assert mu1_approx(0.0) == 0.0
