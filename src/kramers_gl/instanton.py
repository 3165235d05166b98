"""Transition states of the Ginzburg-Landau energy functional on [0, L].

The energy is H[phi] = int_0^L [ (phi')^2/2 + phi^4/4 - phi^2/2 ] dx with
periodic or Neumann boundary conditions. Below the critical length
(2*pi periodic, pi Neumann) the relevant saddle between the two uniform
stable states phi = -1 and phi = +1 is phi = 0; above it, the saddles are
spatially structured instanton profiles built from Jacobi's elliptic sine.

This module provides the length-to-modulus inversion, instanton profiles
on a grid, the activation energy on both sides of the bifurcation and the
closed-form Hessian eigenvalues mu0 and mu1 at the instanton. It lies on
the closed-form rate path and imports no numpy at module level; the energy
functional of a sampled field is in ``spectrum``.
"""

from __future__ import annotations

import enum
import math

from .specfun import _count, _elliptic_KE, _real, _sn, _sn_levels, elliptic_K

# instanton_profile imports numpy itself: rate and sweep load none of it


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


# sets a field of a _Record in its __init__ (bound once: the sweep builds
# one RateBreakdown per row)
_set_field = object.__setattr__


class _Record:
    """Immutable value: ``__slots__`` fields that ``__init__`` sets once
    through ``_set_field``.

    ``repr``, ``==`` and ``hash`` read the fields in slot order, as those of
    a frozen dataclass do. Pickling and copying rebuild the value through
    its constructor, so its checks run again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class SystemParams(_Record):
    """Full physical input: interval length L, noise intensity eps, bc."""

    __slots__ = ("L", "eps", "bc")

    def __init__(self, L: float, eps: float, bc: BoundaryCondition):
        _set_field(self, "L", _real("L", L, 0.0))
        _set_field(self, "eps", _real("eps", eps, 0.0))
        _set_field(self, "bc", BoundaryCondition.parse(bc))


def _grid(L: float, n_x: int, bc: BoundaryCondition) -> list:
    """The n_x grid points, bit for bit as np.arange / np.linspace build them."""
    if bc is BoundaryCondition.PERIODIC:
        return [i * (L / n_x) for i in range(n_x)]
    return [i * (L / (n_x - 1)) for i in range(n_x - 1)] + [float(L)]


def solve_m_from_L(L: float, bc: BoundaryCondition) -> float:
    """Invert the length relation c sqrt(m+1) K(m) = L for the modulus m.

    c = 2 L_c/pi: 4 periodic, 2 Neumann (the even half of a 2L circle). The
    left side is strictly increasing in m, so the root is unique; bisection
    brackets it and a few Newton steps polish it: |c sqrt(1+m) K(m) - L|/L is
    ~1e-16 to Neumann L = 20, 1.2e-12 at 22 and 1.0e-4 at 49.4, where 1 - m is
    1e-14 (periodic bc: twice those L). ROADMAP item 3 plans a solve in 1 - m.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    if L <= bc.critical_length:
        raise NoInstantonRegime(
            f"no instanton for L={L} <= critical length {bc.critical_length} "
            f"({bc.value} bc); the uniform saddle applies"
        )
    c = 2.0 * bc.critical_length / math.pi
    lo, hi = 1e-16, 1.0 - 1e-16
    if c * math.sqrt(hi + 1.0) * elliptic_K(hi) < L:
        raise ValueError(f"L={L} too large to resolve the modulus in double precision")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if c * math.sqrt(mid + 1.0) * elliptic_K(mid) < L:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    # Newton polish; d/dm [sqrt(1+m) K(m)] via dK/dm = (E - (1-m)K)/(2m(1-m))
    for _ in range(3):
        K, E, _ = _elliptic_KE(m)
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
) -> np.ndarray:
    """Instanton transition-state profile phi(x_i) as a 1-d float array.

    Grid: periodic x_i = i L / n_x (right endpoint excluded), Neumann
    x_i = i L / (n_x - 1) (both endpoints included). The profile is
    sign * sqrt(2m/(m+1)) * sn(x / sqrt(m+1) + phase, m) at the modulus m
    of L. phase shifts it along the interval (periodic bc only; the family
    is translation degenerate); Neumann bc pin it to K(m) and refuse a
    nonzero phase. sign selects one of the two mirror-image Neumann
    instantons. Each sn value is
    jacobi_sn(scale * x + phase, m), scale = 1/sqrt(m+1), bit for bit; one
    AGM run after the modulus solve gives the period 4K(m) and the Landen
    descent levels.
    """
    import numpy as np

    return np.array(_profile_samples(L, bc, phase, sign, n_x)[1], dtype=float)


def _profile_samples(L, bc, phase=0.0, sign=1, n_x=512) -> tuple[list, list]:
    """Grid points and values of ``instanton_profile``, as lists of floats."""
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    sign, n_x = _count("sign", sign, -1, 1), _count("n_x", n_x, 16)
    phase = _real("phase", phase)
    if phase and bc is BoundaryCondition.NEUMANN:
        raise ValueError(f"phase must be 0 for neumann bc, which pin the instanton, got {phase!r}")
    if sign == 0:
        raise ValueError("sign must be +1 or -1, got 0")
    m = solve_m_from_L(L, bc)
    period, levels = _sn_levels(m)
    if bc is BoundaryCondition.NEUMANN:
        phase = 0.25 * period  # K(m): the same AGM limit, scaled exactly
    scale = 1.0 / math.sqrt(m + 1.0)
    amplitude = math.sqrt(2.0 * m / (m + 1.0))
    x = _grid(L, n_x, bc)
    return x, [
        sign * (amplitude * _sn(math.remainder(scale * xi + phase, period), levels))
        for xi in x
    ]


def activation_energy(L: float, bc: BoundaryCondition) -> float:
    """Energy barrier between a uniform stable state and the saddle.

    L/4 up to the critical length (uniform saddle at phi = 0, whose energy
    is 0, against H[phi +-] = -L/4). Beyond it, the closed form in terms
    of K(m) and E(m) at the instanton modulus; a Neumann instanton is the
    even half of the periodic one at 2L and carries half its energy.
    Continuous across the critical length.
    """
    L, bc = _real("L", L, 0.0), BoundaryCondition.parse(bc)
    if L <= bc.critical_length:
        return L / 4.0
    m = solve_m_from_L(L, bc)
    return _instanton_energy(m, *_elliptic_KE(m)[:2], bc)


def _instanton_energy(m: float, K: float, E: float, bc: BoundaryCondition) -> float:
    """Activation energy of the instanton saddle with modulus m, K = K(m), E = E(m)."""
    dw = (8.0 * E - (1.0 - m) * (3.0 * m + 5.0) / (1.0 + m) * K) / (
        3.0 * math.sqrt(1.0 + m)
    )
    return dw * (bc.critical_length / (2.0 * math.pi))


def mu0(m: float) -> float:
    """Single negative Hessian eigenvalue at an instanton transition state.

    mu0 = 1 - (2/(m+1)) sqrt(m^2 - m + 1), in [-1, 0] for m in [0, 1].
    Evaluated in the rationalized form -3(1-m)^2 / ((1+m)(1+m+2 sqrt(m^2-m+1)))
    so the ~ -3(1-m)^2/8 tail near m=1 (long domains) survives instead of
    cancelling to zero in floating point.
    """
    m = _real("m", m, 0.0, 1.0, "[]")
    one_minus = 1.0 - m
    root = math.sqrt(m * m - m + 1.0)
    return -3.0 * one_minus * one_minus / ((1.0 + m) * (1.0 + m + 2.0 * root))


def mu1_approx(m: float) -> float:
    """Small-m approximation 3m of the second instanton Hessian eigenvalue.

    The substitution is accurate to O(m^2); the exact Neumann value is
    3m/(1+m).
    """
    return 3.0 * _real("m", m, 0.0, 1.0, "[]")
