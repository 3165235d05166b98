"""Spectra of the linearized evolution operators.

Closed-form eigenvalues at the uniform states (lambda_k at the saddle,
eta_k at the stable states) and dense Galerkin diagonalization of the
Hessian -d^2/dx^2 + 3 phi(x)^2 - 1 at arbitrary field configurations,
in the Fourier basis (periodic) or cosine basis (Neumann).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instanton import BoundaryCondition, FieldConfiguration, _length_and_bc

# numpy is imported inside the functions that build arrays: mu0 and
# mu1_approx serve the closed-form rate path, which loads none of it

_MAX_DENSE_MODES = 1024


@dataclass(frozen=True)
class LinearizationSpectrum:
    """Ascending eigenvalues with multiplicity tags."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    bc: BoundaryCondition
    state: str

    def __post_init__(self):
        import numpy as np

        ev = np.asarray(self.eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        if ev.shape != mult.shape or ev.ndim != 1:
            raise ValueError("eigenvalues and multiplicities must be 1-d, same shape")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "multiplicities", mult)

    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated according to their multiplicities."""
        return self.eigenvalues.repeat(self.multiplicities)


def uniform_spectrum(
    L: float, bc: BoundaryCondition, state: str, K_max: int
) -> LinearizationSpectrum:
    """Closed-form spectrum at a uniform state, modes k = 0 .. K_max.

    Transition state phi = 0: lambda_k = -1 + (pi k / L)^2 (Neumann) or
    -1 + (2 pi k / L)^2 (periodic). Stable states phi = +-1: eta_k with
    -1 replaced by +2. Periodic nonzero-k eigenvalues carry multiplicity 2.
    """
    import numpy as np

    L, bc = _length_and_bc(L, bc)
    if K_max < 1:
        raise ValueError(f"K_max must be >= 1, got {K_max}")
    if state not in ("stable", "transition"):
        raise ValueError(f"state must be 'stable' or 'transition', got {state!r}")
    k = np.arange(K_max + 1)
    factor = 2.0 * math.pi if bc is BoundaryCondition.PERIODIC else math.pi
    base = -1.0 if state == "transition" else 2.0
    eigenvalues = base + (factor * k / L) ** 2
    if bc is BoundaryCondition.PERIODIC:
        multiplicities = np.where(k == 0, 1, 2)
    else:
        multiplicities = np.ones_like(k)
    return LinearizationSpectrum(
        eigenvalues=eigenvalues, multiplicities=multiplicities, bc=bc, state=state
    )


def _fourier_resample(values: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples onto a finer grid."""
    import numpy as np

    n = values.size
    vhat = np.fft.rfft(values)
    if n % 2 == 0 and n_new != n:
        vhat[-1] *= 0.5  # split the Nyquist coefficient symmetrically
    out = np.fft.irfft(vhat, n=n_new) * (n_new / n)
    return out


def _cosine_coeffs(values_inclusive: np.ndarray) -> np.ndarray:
    """Coefficients w_d of f(x) = sum_d w_d cos(pi d x / L), d = 0..M.

    Input samples live on the endpoint-inclusive grid with M intervals;
    computed through the even extension, which is exact for fields band
    limited below the grid's alias limit.
    """
    import numpy as np

    ext = np.concatenate([values_inclusive, values_inclusive[-2:0:-1]])
    P = ext.size  # 2M
    F = np.fft.rfft(ext).real / P
    w = 2.0 * F
    w[0] = F[0]
    if P % 2 == 0:
        w[-1] = F[-1]
    return w


def _cosine_resample(values_inclusive: np.ndarray, m_new: int) -> np.ndarray:
    """Resample Neumann samples onto an inclusive grid with m_new intervals."""
    import numpy as np

    w = _cosine_coeffs(values_inclusive)
    w_pad = np.zeros(m_new + 1)
    w_pad[: w.size] = w
    spec = 0.5 * w_pad * (2 * m_new)
    spec[0] = w_pad[0] * (2 * m_new)
    spec[-1] = w_pad[-1] * (2 * m_new)
    ext = np.fft.irfft(spec, n=2 * m_new)
    return ext[: m_new + 1]


def hessian_spectrum(
    fieldcfg: FieldConfiguration,
    L: float,
    bc: BoundaryCondition,
    n_modes: int = 512,
    state: str = "transition",
) -> LinearizationSpectrum:
    """Eigenvalues of -d^2/dx^2 + (3 phi(x)^2 - 1), dense Galerkin.

    The multiplicative potential is applied through its Fourier (periodic)
    or cosine (Neumann) convolution coefficients, evaluated on a fine
    collocation grid so no aliasing reaches the retained modes. Dense
    symmetric diagonalization; returns all n_modes eigenvalues ascending.
    """
    import numpy as np

    L, bc = _length_and_bc(L, bc)
    if fieldcfg.bc is not bc:
        raise ValueError("field boundary condition does not match bc argument")
    if not 64 <= n_modes <= _MAX_DENSE_MODES:
        raise ValueError(f"n_modes must be in [64, {_MAX_DENSE_MODES}], got {n_modes}")
    vals = fieldcfg.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")

    if bc is BoundaryCondition.PERIODIC:
        # modes p = -K..K, dimension 2K+1 ~ n_modes
        K = n_modes // 2
        n_fine = 4 * max(K + 1, vals.size)
        phi = _fourier_resample(vals, n_fine)
        w_full = np.fft.fft(3.0 * phi * phi - 1.0) / n_fine
        p = np.arange(-K, K + 1)
        kin = (2.0 * math.pi * p / L) ** 2
        idx = (p[:, None] - p[None, :]) % n_fine
        A = w_full[idx]
        A[np.diag_indices_from(A)] += kin
        eigenvalues = np.linalg.eigvalsh(A)
    else:
        n_fine = 2 * max(n_modes, vals.size - 1)
        phi = _cosine_resample(vals, n_fine)
        w = _cosine_coeffs(3.0 * phi * phi - 1.0)
        N = n_modes
        A = np.empty((N, N))
        j = np.arange(1, N)
        A[1:, 1:] = 0.5 * (w[np.abs(j[:, None] - j[None, :])] + w[j[:, None] + j[None, :]])
        A[1:, 1:][np.diag_indices(N - 1)] += 0.5 * w[0]
        A[0, 0] = w[0]
        A[0, 1:] = w[j] / math.sqrt(2.0)
        A[1:, 0] = A[0, 1:]
        A[np.diag_indices_from(A)] += (math.pi * np.arange(N) / L) ** 2
        eigenvalues = np.linalg.eigvalsh(A)

    return LinearizationSpectrum(
        eigenvalues=eigenvalues,
        multiplicities=np.ones(eigenvalues.size, dtype=int),
        bc=bc,
        state=state,
    )


def mu0(m: float) -> float:
    """Single negative Hessian eigenvalue at an instanton transition state.

    mu0 = 1 - (2/(m+1)) sqrt(m^2 - m + 1), in [-1, 0] for m in [0, 1].
    Evaluated in the rationalized form -3(1-m)^2 / ((1+m)(1+m+2 sqrt(m^2-m+1)))
    so the ~ -3(1-m)^2/8 tail near m=1 (long domains) survives instead of
    cancelling to zero in floating point.
    """
    if not (isinstance(m, (int, float)) and math.isfinite(m)) or not 0.0 <= m <= 1.0:
        raise ValueError(f"mu0 requires m in [0, 1], got {m}")
    one_minus = 1.0 - m
    root = math.sqrt(m * m - m + 1.0)
    return -3.0 * one_minus * one_minus / ((1.0 + m) * (1.0 + m + 2.0 * root))


def mu1_approx(m: float) -> float:
    """Small-m approximation 3m of the second instanton Hessian eigenvalue.

    The substitution is accurate to O(m^2); the exact Neumann value is
    3m/(1+m).
    """
    return 3.0 * float(m)
