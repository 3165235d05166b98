"""Sampled fields: their energy and the spectra of the linearized operators.

The energy functional of a field sampled on instanton_profile's grid,
closed-form eigenvalues at the uniform states (lambda_k at the saddle,
eta_k at the stable states) and dense Galerkin diagonalization of the
Hessian -d^2/dx^2 + 3 phi(x)^2 - 1 at arbitrary field configurations in
one real Fourier basis; a Neumann field on [0, L] is the even half of
its 2L-periodic extension, and its Hessian the cosine block on [0, 2L].
The closed-form instanton eigenvalues mu0 and mu1 are in ``instanton``,
so the closed-form rate path loads neither this module nor numpy.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as windows

from .instanton import BoundaryCondition, _Record, _set_field
from .specfun import _count, _real

_MAX_DENSE_MODES = 1024


def _field_samples(values) -> np.ndarray:
    """A sampled field as a 1-d float array: at least 16 values, all finite."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 16:
        raise ValueError(
            f"field needs at least 16 grid values in 1-d, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")
    return vals


def _even_extension(values: np.ndarray, L: float) -> tuple[np.ndarray, float]:
    """Neumann samples on [0, L]'s inclusive grid, evenly extended to period 2L."""
    return np.concatenate([values, values[-2:0:-1]]), 2.0 * L


# ---------------------------------------------------------------------------
# Energy functional. Periodic integrands are integrated by the trapezoid
# rule on the periodic grid (spectrally accurate); Neumann fields are
# integrated through their even extension, which is the same rule with
# half weights at the two endpoints.
# ---------------------------------------------------------------------------


def _spectral_derivative_periodic(values: np.ndarray, L: float) -> np.ndarray:
    n = values.size
    vhat = np.fft.rfft(values)
    k = np.fft.rfftfreq(n, d=L / n)  # cycles per unit length
    dhat = vhat * (2j * math.pi * k)
    if n % 2 == 0:
        dhat[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(dhat, n=n)


def energy_functional(values: np.ndarray, L: float, bc: BoundaryCondition) -> float:
    """H[phi] = int_0^L [ (phi')^2/2 + phi^4/4 - phi^2/2 ] dx.

    values are samples on instanton_profile's grid for (L, bc). Spectral
    differentiation plus trapezoid quadrature consistent with the boundary
    condition; both are spectrally accurate for smooth fields.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    vals, period = _field_samples(values), L
    if bc is BoundaryCondition.NEUMANN:
        vals, period = _even_extension(vals, L)
    dvals = _spectral_derivative_periodic(vals, period)
    integrand = 0.5 * dvals**2 + 0.25 * vals**4 - 0.5 * vals**2
    return float(np.mean(integrand) * L)


class LinearizationSpectrum(_Record):
    """Ascending eigenvalues with multiplicity tags."""

    __slots__ = ("eigenvalues", "multiplicities")

    def __init__(self, eigenvalues: np.ndarray, multiplicities: np.ndarray):
        ev = np.asarray(eigenvalues, dtype=float)
        mult = np.asarray(multiplicities, dtype=int)
        if ev.shape != mult.shape or ev.ndim != 1:
            raise ValueError("eigenvalues and multiplicities must be 1-d, same shape")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be ascending")
        _set_field(self, "eigenvalues", ev)
        _set_field(self, "multiplicities", mult)

    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated according to their multiplicities."""
        return self.eigenvalues.repeat(self.multiplicities)


def uniform_spectrum(
    L: float, bc: BoundaryCondition, state: str, K_max: int
) -> LinearizationSpectrum:
    """Closed-form spectrum at a uniform state, modes k = 0 .. K_max.

    Transition state phi = 0: lambda_k = -1 + (k L_c/L)^2, L_c = pi (Neumann)
    or 2 pi (periodic), the simulator's mode rates. Stable states phi = +-1:
    eta_k with -1 replaced by +2. Periodic k >= 1 have multiplicity 2.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    K_max = _count("K_max", K_max, 1)
    if state not in ("stable", "transition"):
        raise ValueError(f"state must be 'stable' or 'transition', got {state!r}")
    k = np.arange(K_max + 1)
    factor = bc.critical_length / L
    base = -1.0 if state == "transition" else 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0: refused
        eigenvalues = base + (factor * k) ** 2
    if not np.isfinite(eigenvalues).all():
        raise ValueError(f"L = {L!r} is too short: mode {K_max} leaves double range")
    if bc is BoundaryCondition.PERIODIC:
        multiplicities = np.where(k == 0, 1, 2)
    else:
        multiplicities = np.ones_like(k)
    return LinearizationSpectrum(eigenvalues=eigenvalues, multiplicities=multiplicities)


def _fourier_resample(values: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples onto a finer grid."""
    n = values.size
    vhat = np.fft.rfft(values)
    if n % 2 == 0 and n_new != n:
        vhat[-1] *= 0.5  # split the Nyquist coefficient symmetrically
    return np.fft.irfft(vhat, n=n_new) * (n_new / n)


def _diff_total(v: np.ndarray, K: int) -> tuple:
    """v[p - q] and v[p + q] for p, q = 1..K as strided views, v[-d] = v[n - d]."""
    below = np.concatenate((v[v.size - K + 1 :], v[:K]))  # v[-(K - 1)] .. v[K - 1]
    return windows(below, K)[:, ::-1], windows(v[2 : 2 * K + 1], K)


def hessian_spectrum(
    values: np.ndarray,
    L: float,
    bc: BoundaryCondition,
    n_modes: int = 512,
) -> LinearizationSpectrum:
    """Eigenvalues of -d^2/dx^2 + (3 phi(x)^2 - 1), dense Galerkin.

    values are samples phi(x_i) on instanton_profile's grid for (L, bc).
    One real basis {1, sqrt2 cos(2 pi p x/P), sqrt2 sin(2 pi p x/P)}, p = 1..K:
    periodic P = L, K = n_modes // 2. A Neumann field is the even half of its
    2L-periodic extension: P = 2L, K = n_modes - 1, and only the even block
    {1, sqrt2 cos} enters. The potential's coefficients come from a fine
    collocation grid, so no aliasing reaches the retained modes. Returns
    every eigenvalue (2K + 1 periodic, n_modes Neumann), ascending.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    n_modes = _count("n_modes", n_modes, 64, _MAX_DENSE_MODES)
    vals = _field_samples(values)

    periodic = bc is BoundaryCondition.PERIODIC
    period, K = L, n_modes // 2
    if not periodic:
        (vals, period), K = _even_extension(vals, L), n_modes - 1
    n_fine = 4 * max(K + 1, vals.size)
    phi = _fourier_resample(vals, n_fine)
    # w_d multiplies exp(2 pi i d x/P): the cos and sin blocks read w_(p-q) and w_(p+q)
    w = np.fft.fft(3.0 * phi * phi - 1.0) / n_fine
    re, im = w.real, w.imag
    p = np.arange(1, K + 1)
    c, s = slice(1, K + 1), slice(K + 1, None)
    A = np.empty((2 * K + 1, 2 * K + 1) if periodic else (K + 1, K + 1))
    A[0, 0] = re[0]
    A[0, c] = A[c, 0] = math.sqrt(2.0) * re[p]
    re_diff, re_total = _diff_total(re, K)
    np.add(re_diff, re_total, out=A[c, c])
    if periodic:
        A[0, s] = A[s, 0] = -math.sqrt(2.0) * im[p]
        np.subtract(re_diff, re_total, out=A[s, s])
        np.subtract(*_diff_total(im, K), out=A[c, s])
        A[s, c] = A[c, s].T
    kin = (2.0 * math.pi * p / period) ** 2
    A[np.diag_indices_from(A)] += np.concatenate(([0.0], kin, kin))[: A.shape[0]]
    eigenvalues = np.linalg.eigvalsh(A)

    return LinearizationSpectrum(
        eigenvalues=eigenvalues, multiplicities=np.ones(eigenvalues.size, dtype=int)
    )

