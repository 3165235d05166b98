"""Transition states of the Ginzburg-Landau energy functional on [0, L].

The energy is H[phi] = int_0^L [ (phi')^2/2 + phi^4/4 - phi^2/2 ] dx with
periodic or Neumann boundary conditions. Below the critical length
(2*pi periodic, pi Neumann) the relevant saddle between the two uniform
stable states phi = -1 and phi = +1 is phi = 0; above it, the saddles are
spatially structured instanton profiles built from Jacobi's elliptic sine.

This module provides the length-to-modulus inversion, instanton profiles
on a grid, the energy functional evaluated with spectral accuracy, and the
activation energy on both sides of the bifurcation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .specfun import _elliptic_KE, _sn, _sn_levels, elliptic_K

# numpy is imported inside the functions that build arrays, so the
# closed-form rate path (modulus, activation energy) loads none of it


class NoInstantonRegime(ValueError):
    """Raised when instanton quantities are requested at L <= L_c.

    At or below the critical length the relevant saddle is the uniform
    state phi = 0 and no non-uniform transition state exists.
    """


class BoundaryCondition(enum.Enum):
    PERIODIC = "periodic"
    NEUMANN = "neumann"

    @property
    def critical_length(self) -> float:
        """Interval length where phi = 0 stops being the relevant saddle."""
        return 2.0 * math.pi if self is BoundaryCondition.PERIODIC else math.pi

    @classmethod
    def parse(cls, value) -> "BoundaryCondition":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"bc must be 'periodic' or 'neumann', got {value!r}"
            ) from None


def _length_and_bc(L: float, bc) -> tuple[float, BoundaryCondition]:
    """Parse bc and refuse an L that is no positive finite length (or a bool)."""
    bc = BoundaryCondition.parse(bc)
    if isinstance(L, bool) or not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    return L, bc


@dataclass(frozen=True)
class SystemParams:
    """Full physical input: interval length L, noise intensity eps, bc."""

    L: float
    eps: float
    bc: BoundaryCondition

    def __post_init__(self):
        object.__setattr__(self, "bc", _length_and_bc(self.L, self.bc)[1])
        if isinstance(self.eps, bool) or not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass(frozen=True)
class FieldConfiguration:
    """Grid samples phi(x_i) on uniformly spaced points of [0, L].

    Periodic: N_x points x_i = i L / N_x (right endpoint excluded).
    Neumann: N_x points x_i = i L / (N_x - 1) (both endpoints included).
    """

    values: np.ndarray
    bc: BoundaryCondition

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "bc", BoundaryCondition.parse(self.bc))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 16:
            raise ValueError("field needs at least 16 grid values")
        object.__setattr__(self, "values", vals)

    @property
    def n_x(self) -> int:
        return self.values.size

    def grid(self, L: float) -> np.ndarray:
        import numpy as np

        if self.bc is BoundaryCondition.PERIODIC:
            return np.arange(self.n_x) * (L / self.n_x)
        return np.linspace(0.0, L, self.n_x)


@dataclass(frozen=True)
class InstantonDescription:
    """Parameters of one instanton transition state.

    amplitude = sqrt(2m/(m+1)); the profile is
    amplitude * sn(x / sqrt(m+1) + phase, m), with phase free for periodic
    bc and pinned to K(m) (up to the overall sign) for Neumann bc.
    """

    m: float
    phase: float
    sign: int
    bc: BoundaryCondition
    amplitude: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bc", BoundaryCondition.parse(self.bc))
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"modulus m must lie in (0,1), got {self.m}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "amplitude", math.sqrt(2.0 * self.m / (self.m + 1.0)))

    @classmethod
    def from_length(
        cls,
        L: float,
        bc: BoundaryCondition,
        phase: float = 0.0,
        sign: int = 1,
    ) -> "InstantonDescription":
        bc = BoundaryCondition.parse(bc)
        m = solve_m_from_L(L, bc)
        if bc is BoundaryCondition.NEUMANN:
            phase = elliptic_K(m)
        return cls(m=m, phase=phase, sign=sign, bc=bc)

    def sample(self, L: float, n_x: int = 512) -> FieldConfiguration:
        """Sample the profile on the standard grid for this bc.

        Each sample is jacobi_sn(scale * x + phase, m), bit for bit; one AGM
        run per profile gives the period 4K(m) and the Landen descent levels.
        """
        import numpy as np

        if not (math.isfinite(L) and math.isfinite(self.phase)):
            raise ValueError(f"L and phase must be finite, got {L} and {self.phase}")
        scale = 1.0 / math.sqrt(self.m + 1.0)
        if self.bc is BoundaryCondition.PERIODIC:
            x = np.arange(n_x) * (L / n_x)
        else:
            x = np.linspace(0.0, L, n_x)
        period, levels = _sn_levels(self.m)
        sn = [_sn(math.remainder(scale * xi + self.phase, period), levels) for xi in x]
        vals = self.amplitude * np.array(sn)
        return FieldConfiguration(values=self.sign * vals, bc=self.bc)


def _length_of_modulus(m: float, bc: BoundaryCondition) -> float:
    c = 4.0 if bc is BoundaryCondition.PERIODIC else 2.0
    return c * math.sqrt(m + 1.0) * elliptic_K(m)


def solve_m_from_L(L: float, bc: BoundaryCondition) -> float:
    """Invert the length relation c sqrt(m+1) K(m) = L for the modulus m.

    c = 4 for periodic bc, 2 for Neumann bc. The left side is strictly
    increasing in m, so the root is unique; bisection brackets it and a
    few Newton steps polish to |residual| < 1e-12.
    """
    L, bc = _length_and_bc(L, bc)
    if L <= bc.critical_length:
        raise NoInstantonRegime(
            f"no instanton for L={L} <= critical length {bc.critical_length} "
            f"({bc.value} bc); the uniform saddle applies"
        )
    lo, hi = 1e-16, 1.0 - 1e-16
    if _length_of_modulus(hi, bc) < L:
        raise ValueError(f"L={L} too large to resolve the modulus in double precision")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _length_of_modulus(mid, bc) < L:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    # Newton polish; d/dm [sqrt(1+m) K(m)] via dK/dm = (E - (1-m)K)/(2m(1-m))
    c = 4.0 if bc is BoundaryCondition.PERIODIC else 2.0
    for _ in range(3):
        K, E = _elliptic_KE(m)
        f = c * math.sqrt(m + 1.0) * K - L
        dKdm = (E - (1.0 - m) * K) / (2.0 * m * (1.0 - m))
        df = c * (K / (2.0 * math.sqrt(m + 1.0)) + math.sqrt(m + 1.0) * dKdm)
        step = f / df
        m_new = m - step
        if 0.0 < m_new < 1.0:
            m = m_new
    return m


def instanton_profile(
    L: float,
    bc: BoundaryCondition,
    phase: float = 0.0,
    sign: int = 1,
    n_x: int = 512,
) -> FieldConfiguration:
    """Instanton transition-state profile sampled on the grid.

    phase shifts the profile along the interval (periodic bc only; the
    family is translation degenerate). sign selects one of the two
    mirror-image Neumann instantons.
    """
    desc = InstantonDescription.from_length(L, bc, phase=phase, sign=sign)
    return desc.sample(L, n_x=n_x)


# ---------------------------------------------------------------------------
# Energy functional. Periodic integrands are integrated by the trapezoid
# rule on the periodic grid (spectrally accurate); Neumann fields are
# integrated through their even extension, which is the same rule with
# half weights at the two endpoints.
# ---------------------------------------------------------------------------


def _spectral_derivative_periodic(values: np.ndarray, L: float) -> np.ndarray:
    import numpy as np

    n = values.size
    vhat = np.fft.rfft(values)
    k = np.fft.rfftfreq(n, d=L / n)  # cycles per unit length
    dhat = vhat * (2j * math.pi * k)
    if n % 2 == 0:
        dhat[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(dhat, n=n)


def energy_functional(fieldcfg: FieldConfiguration, L: float) -> float:
    """H[phi] = int_0^L [ (phi')^2/2 + phi^4/4 - phi^2/2 ] dx.

    Spectral differentiation plus trapezoid quadrature consistent with the
    boundary condition; both are spectrally accurate for smooth fields.
    """
    import numpy as np

    _length_and_bc(L, fieldcfg.bc)
    vals = fieldcfg.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")
    period = L
    if fieldcfg.bc is BoundaryCondition.NEUMANN:
        # even extension of the inclusive grid on [0, L] to a 2L period
        vals, period = np.concatenate([vals, vals[-2:0:-1]]), 2.0 * L
    dvals = _spectral_derivative_periodic(vals, period)
    integrand = 0.5 * dvals**2 + 0.25 * vals**4 - 0.5 * vals**2
    return float(np.mean(integrand) * L)


def activation_energy(L: float, bc: BoundaryCondition) -> float:
    """Energy barrier between a uniform stable state and the saddle.

    L/4 up to the critical length (uniform saddle at phi = 0, whose energy
    is 0, against H[phi +-] = -L/4). Beyond it, the closed form in terms
    of K(m) and E(m) at the instanton modulus; Neumann instantons carry
    half the periodic value. Continuous across the critical length.
    """
    L, bc = _length_and_bc(L, bc)
    if L <= bc.critical_length:
        return L / 4.0
    return _instanton_energy(solve_m_from_L(L, bc), bc)


def _instanton_energy(m: float, bc: BoundaryCondition) -> float:
    """Activation energy of the instanton saddle with modulus m."""
    K, E = _elliptic_KE(m)
    dw = (8.0 * E - (1.0 - m) * (3.0 * m + 5.0) / (1.0 + m) * K) / (
        3.0 * math.sqrt(1.0 + m)
    )
    return dw if bc is BoundaryCondition.PERIODIC else 0.5 * dw
