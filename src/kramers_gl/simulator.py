"""Spectral-Galerkin Monte Carlo for the stochastic Ginzburg-Landau equation.

The field is truncated onto the lowest Fourier modes of the linearization
around φ = 0:

* periodic: orthonormal complex exponentials e_k = exp(2πikx/L)/√L,
  k = -K..K, stored as the half spectrum φ_0..φ_K (reality of the field,
  i.e. φ_{-k} = conj(φ_k), is built into the storage);
* Neumann: orthonormal cosines c_0 = 1/√L, c_k = √(2/L) cos(πkx/L),
  k = 0..K, with real coefficients.

Each mode obeys  dφ_k = (-λ_k φ_k + N_k[φ]) dt + √(2ε) dW_k  with
λ_k = -1 + (2πk/L)² (periodic) or -1 + (πk/L)² (Neumann), independent
per-mode Wiener processes, and N_k the Galerkin projection of -φ³.

Time stepping is exponential-time-differencing Euler-Maruyama: the stiff
linear part and the noise are integrated exactly as an Ornstein-Uhlenbeck
update per mode, the cubic term enters with the first-order ETD weight.
The cubic is evaluated pseudospectrally on a collocation grid of
M = 4(K+1) points, wide enough that the cube's full band |k| ≤ 3K never
folds back onto the retained band (exact dealiasing for a cubic term).
At these small transform sizes cached cosine/sine matrix products (BLAS)
outperform FFTs, so synthesis and analysis are plain matmuls against
precomputed matrices; internally the engine keeps an all-real mode layout
[mode 0, Re 1..K, Im 1..K] (periodic) so one code path serves both
boundary conditions.

Trajectories draw their noise from counter-based per-trajectory
substreams keyed by (seed, trajectory index), so ensemble results are
reproducible under any execution order or batching. An ensemble advances
in blocks of at most 128 steps; one worker thread draws the next block's
noise while the calling thread integrates the current one. Each of the two
noise buffers holds at most max(2^20, 16·n·width) draws for n trajectories
of width draws per step, whatever the horizon.
"""

from __future__ import annotations

import math
import numbers
import queue
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .instanton import BoundaryCondition, SystemParams

_DEALIAS_FACTOR = 4  # grid points per retained mode bundle (exact for cubes)
# Noise blocks: two (n, B, width) buffers, B from a budget of draws per buffer
# (8 MiB of float64). The floor keeps the per-block hand-off cheap for very
# wide ensembles; the cap keeps the serial first block and the draws thrown
# away after a passage short.
_NOISE_BUDGET = 1 << 20
_MIN_BLOCK_STEPS = 16
_MAX_BLOCK_STEPS = 128


class SimulationBlowUp(RuntimeError):
    """A trajectory left the resolvable range (non-finite coefficients)."""

    def __init__(self, seed: int, trajectory_index: int, step_index: int):
        self.seed = seed
        self.trajectory_index = trajectory_index
        self.step_index = step_index
        super().__init__(
            f"trajectory {trajectory_index} (seed {seed}) became non-finite "
            f"near step {step_index}; reduce dt"
        )


class EstimateUnavailable(RuntimeError):
    """No trajectory completed a transition within the horizon."""


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a Monte Carlo first-passage experiment."""

    params: SystemParams
    K: int = 16
    dt: float = 1e-3
    t_max: float = 1e4
    n_traj: int = 100
    seed: int = 12345
    crossing_threshold: float = 0.5

    def __post_init__(self):
        for name in ("K", "n_traj", "seed"):  # numpy integers are stored as int
            value = getattr(self, name)
            if isinstance(value, bool):  # an Integral, but True is no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if isinstance(value, numbers.Integral):
                object.__setattr__(self, name, int(value))
        if not isinstance(self.params, SystemParams):
            raise TypeError("params must be a SystemParams")
        if not (isinstance(self.K, int) and self.K >= 8):
            raise ValueError(f"K must be an integer >= 8, got {self.K}")
        for name in ("dt", "t_max"):  # a bool is a number too, but True is no time
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ValueError(f"t_max must be at least dt, got {self.t_max}")
        if not math.isfinite(self.t_max / self.dt):  # the step count
            raise ValueError(f"t_max / dt overflows: t_max={self.t_max}, dt={self.dt}")
        if not (isinstance(self.n_traj, int) and self.n_traj >= 1):
            raise ValueError(f"n_traj must be a positive integer, got {self.n_traj}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not (0.0 < self.crossing_threshold < 1.0):
            raise ValueError(
                f"crossing_threshold must lie in (0, 1), got {self.crossing_threshold}"
            )


@dataclass(frozen=True)
class SpectralState:
    """Mode coefficients of the field at one instant.

    ``coeffs`` has length K+1: complex half spectrum for periodic
    (φ_{-k} = conj(φ_k) implied), real cosine coefficients for Neumann.
    """

    coeffs: np.ndarray
    t: float
    params: SystemParams
    K: int

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if self.params.bc is BoundaryCondition.PERIODIC:
            c = np.ascontiguousarray(c, dtype=np.complex128)
        else:
            c = np.ascontiguousarray(c, dtype=np.float64)
        if c.shape != (self.K + 1,):
            raise ValueError(f"coeffs must have shape ({self.K + 1},), got {c.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coeffs must be finite")
        if self.params.bc is BoundaryCondition.PERIODIC and c[0].imag != 0.0:
            raise ValueError("mode 0 of a real periodic field must be real")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def uniform(cls, params: SystemParams, K: int, value: float) -> "SpectralState":
        """State of the spatially uniform field φ ≡ value at t = 0."""
        if params.bc is BoundaryCondition.PERIODIC:
            c = np.zeros(K + 1, dtype=np.complex128)
        else:
            c = np.zeros(K + 1, dtype=np.float64)
        c[0] = value * math.sqrt(params.L)
        return cls(coeffs=c, t=0.0, params=params, K=K)

    def spatial_mean(self) -> float:
        """Mean of the field over the interval, (1/L)∫φ dx = φ_0/√L."""
        return float(np.real(self.coeffs[0])) / math.sqrt(self.params.L)

    def field_values(self, n_points: int = 257) -> tuple[np.ndarray, np.ndarray]:
        """Real-space samples (x, φ(x)) reconstructed from the modes."""
        L = self.params.L
        k = np.arange(1, self.K + 1)
        if self.params.bc is BoundaryCondition.PERIODIC:
            x = np.linspace(0.0, L, n_points, endpoint=False)
            phases = np.exp(2j * math.pi * np.outer(x, k) / L)
            vals = (
                np.real(self.coeffs[0]) + 2.0 * (phases @ self.coeffs[1:]).real
            ) / math.sqrt(L)
        else:
            x = np.linspace(0.0, L, n_points)
            cosines = np.cos(math.pi * np.outer(x, k) / L)
            vals = (
                self.coeffs[0] + math.sqrt(2.0) * (cosines @ self.coeffs[1:])
            ) / math.sqrt(L)
        return x, np.asarray(vals, dtype=np.float64)


@dataclass(frozen=True)
class MfptEstimate:
    """Mean first-passage time over an ensemble, with delta-method rate CI.

    With a single completed trajectory there is no spread to estimate:
    ``std_error`` and ``rate_std_error`` are NaN and ``rate_ci`` is
    ``(nan, nan)``.
    """

    mean_passage_time: float
    std_error: float
    n_completed: int
    n_censored: int
    n_blowup: int
    rate: float
    rate_std_error: float
    rate_ci: tuple[float, float]
    per_trajectory: tuple = field(repr=False)
    blowup_records: tuple = ()

    def __post_init__(self):
        if self.n_completed > 0 and not self.mean_passage_time > 0:
            raise ValueError("mean_passage_time must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")


# ---------------------------------------------------------------------------
# mode bookkeeping and transform plans
# ---------------------------------------------------------------------------


def mode_eigenvalues(L: float, bc: BoundaryCondition, K: int) -> np.ndarray:
    """λ_k = -1 + (2πk/L)² (periodic) or -1 + (πk/L)² (Neumann), k = 0..K."""
    factor = (2.0 * math.pi / L) if bc is BoundaryCondition.PERIODIC else (math.pi / L)
    k = np.arange(K + 1, dtype=np.float64)
    return -1.0 + (factor * k) ** 2


def _noise_width(bc: BoundaryCondition, K: int) -> int:
    """Standard normal draws consumed per step: one per real degree of freedom."""
    return 2 * K + 1 if bc is BoundaryCondition.PERIODIC else K + 1


@lru_cache(maxsize=32)
def _transform_plan(L: float, bc_value: str, K: int):
    """Synthesis/analysis matrices between real mode layout and the grid.

    Real layout: [a_0..a_K] (Neumann) or [φ_0, Re φ_1..K, Im φ_1..K]
    (periodic; φ_0 of a real field is real). ``synth`` (n_real, M) maps
    modes to the M collocation values; ``anal`` (M, n_real) maps grid
    values of a band-limited function (band ≤ 3K) to its exact mode
    coefficients via trapezoidal/midpoint quadrature, which is exact
    because M = 4(K+1) puts every alias outside the retained band.
    """
    bc = BoundaryCondition.parse(bc_value)
    M = _DEALIAS_FACTOR * (K + 1)
    sqrtL = math.sqrt(L)
    if bc is BoundaryCondition.PERIODIC:
        j = np.arange(M)
        k = np.arange(1, K + 1)
        theta = 2.0 * math.pi * np.outer(k, j) / M  # (K, M)
        synth = np.empty((2 * K + 1, M))
        synth[0] = 1.0 / sqrtL
        synth[1 : K + 1] = 2.0 * np.cos(theta) / sqrtL
        synth[K + 1 :] = -2.0 * np.sin(theta) / sqrtL
        anal = np.empty((M, 2 * K + 1))
        anal[:, 0] = sqrtL / M
        anal[:, 1 : K + 1] = (sqrtL / M) * np.cos(theta).T
        anal[:, K + 1 :] = -(sqrtL / M) * np.sin(theta).T
    else:
        j = np.arange(M)
        k = np.arange(1, K + 1)
        theta = math.pi * np.outer(k, j + 0.5) / M  # (K, M)
        synth = np.empty((K + 1, M))
        synth[0] = 1.0 / sqrtL
        synth[1:] = math.sqrt(2.0 / L) * np.cos(theta)
        anal = np.empty((M, K + 1))
        anal[:, 0] = sqrtL / M
        anal[:, 1:] = (math.sqrt(2.0 * L) / M) * np.cos(theta).T
    return synth, anal


@lru_cache(maxsize=64)
def _stepping_constants(L: float, bc_value: str, K: int, dt: float, eps: float):
    """Exact OU update weights in the real layout: decay, cubic weight, noise amp.

    Per mode, φ ← e^{-λdt} φ + w N + s ξ with w = -expm1(-λdt)/λ (→ dt as
    λ → 0) and s = √(ε·(-expm1(-2λdt))/λ) (→ √(2εdt)); both forms hold for
    negative λ too. For periodic k ≥ 1 the complex noise ξ_k with
    E|ξ_k|² = 1 splits into real and imaginary parts of amplitude s_k/√2.
    """
    bc = BoundaryCondition.parse(bc_value)
    lam = mode_eigenvalues(L, bc, K)
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -np.expm1(-lam * dt) / lam
        svar = eps * (-np.expm1(-2.0 * lam * dt)) / lam
    zero = lam == 0.0
    w[zero] = dt
    svar[zero] = 2.0 * eps * dt
    s = np.sqrt(svar)
    if bc is BoundaryCondition.PERIODIC:
        idx = np.concatenate([np.arange(K + 1), np.arange(1, K + 1)])
        decay, w, s = decay[idx], w[idx], s[idx].copy()
        s[1:] /= math.sqrt(2.0)
    return decay, w, s


def _to_real_layout(coeffs: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    if bc is BoundaryCondition.PERIODIC:
        return np.concatenate([coeffs.real, coeffs[1:].imag])
    return np.asarray(coeffs, dtype=np.float64)


def _from_real_layout(row: np.ndarray, bc: BoundaryCondition, K: int) -> np.ndarray:
    if bc is BoundaryCondition.PERIODIC:
        out = row[: K + 1].astype(np.complex128)
        out[1:] += 1j * row[K + 1 :]
        return out
    return row.copy()


def _cubic_real(rows: np.ndarray, synth: np.ndarray, anal: np.ndarray) -> np.ndarray:
    """Mode coefficients of φ³ (real layout) for a batch of real-layout rows."""
    g = rows @ synth
    return (g * g * g) @ anal


def nonlinear_term(state: SpectralState) -> np.ndarray:
    """Galerkin projection of -φ³ onto the retained modes.

    Evaluated pseudospectrally on the padded collocation grid; equals the
    direct triple-sum convolution exactly up to rounding.
    """
    bc = state.params.bc
    synth, anal = _transform_plan(state.params.L, bc.value, state.K)
    row = _to_real_layout(state.coeffs, bc)
    cubic = _cubic_real(row[np.newaxis, :], synth, anal)[0]
    return -_from_real_layout(cubic, bc, state.K)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def step(
    state: SpectralState,
    dt: float,
    noise: np.ndarray,
    *,
    include_cubic: bool = True,
) -> SpectralState:
    """One exponential-time-differencing Euler-Maruyama step.

    ``noise`` is a flat array of independent standard normal draws, one
    per real degree of freedom: [mode 0, Re modes 1..K, Im modes 1..K]
    for periodic (2K+1 draws), [a_0..a_K] for Neumann (K+1 draws).
    Passing zeros integrates the deterministic flow exactly (the ε = 0
    dynamics), since the noise enters only through these draws.
    ``include_cubic=False`` drops the nonlinear term (pure OU dynamics).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    params = state.params
    bc = params.bc
    width = _noise_width(bc, state.K)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (width,):
        raise ValueError(f"noise must have shape ({width},), got {noise.shape}")
    if not np.all(np.isfinite(noise)):
        raise ValueError("noise draws must be finite")

    decay, w, s = _stepping_constants(params.L, bc.value, state.K, dt, params.eps)
    row = _to_real_layout(state.coeffs, bc)
    # overflow along a diverging trajectory becomes SimulationBlowUp below,
    # not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        new = decay * row + s * noise
        if include_cubic:
            synth, anal = _transform_plan(params.L, bc.value, state.K)
            new = new - w * _cubic_real(row[np.newaxis, :], synth, anal)[0]
    if not np.all(np.isfinite(new)):
        raise SimulationBlowUp(seed=-1, trajectory_index=-1, step_index=-1)
    return SpectralState(
        coeffs=_from_real_layout(new, bc, state.K),
        t=state.t + dt,
        params=params,
        K=state.K,
    )


# ---------------------------------------------------------------------------
# first-passage ensemble engine
# ---------------------------------------------------------------------------


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one trajectory: Philox keyed (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_steps(n: int, width: int, n_steps: int) -> int:
    """Steps per noise block: the budget's share, clipped to the bounds and horizon."""
    fit = _NOISE_BUDGET // (n * width)
    return min(n_steps, _MAX_BLOCK_STEPS, max(_MIN_BLOCK_STEPS, fit))


def _draw_noise(rngs, block: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fill block[i] with the next draws of rngs[i], then scale by s in place."""
    for rng, out in zip(rngs, block):
        rng.standard_normal(out=out)
    np.multiply(block, s, out=block)
    return block


class _NoiseWorker(threading.Thread):
    """Thread that runs ``_draw_noise`` on each submitted block, in order.

    It sleeps on a queue between blocks, so each block wakes it afresh
    and the scheduler can place it on an idle CPU. ``result()`` returns
    the oldest outstanding block, or raises what drawing it raised.
    Leaving the ``with`` block lets the thread finish and joins it.
    """

    def __init__(self):
        super().__init__(name="kramers-gl-noise")
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def run(self):
        while (job := self._jobs.get()) is not None:
            try:
                self._done.put(_draw_noise(*job))
            except BaseException as exc:  # raised again by result()
                self._done.put(exc)

    def submit(self, rngs, block: np.ndarray, s: np.ndarray) -> None:
        self._jobs.put((rngs, block, s))

    def result(self) -> np.ndarray:
        block = self._done.get()
        if isinstance(block, BaseException):
            raise block
        return block

    def __enter__(self) -> "_NoiseWorker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._jobs.put(None)
        self.join()


def _evolve_ensemble(
    config: SimConfig,
    rngs: Sequence[np.random.Generator],
    *,
    mirror: bool = False,
) -> tuple[list, list]:
    """Integrate an ensemble until crossing, censoring, or blow-up.

    Returns (outcomes, blowups): outcomes[i] is the passage time of
    trajectory i or None (censored or blown up); blowups is a list of
    (trajectory_index, step_index).

    Time advances in blocks of B steps (``_block_steps``). While the
    calling thread integrates steps [t, t+B) of the active trajectories,
    one worker thread draws and scales the noise of steps [t+B, t+2B)
    into the second of two (n, B, width) buffers. Trajectories that stop
    in a block are compacted out of the state and of the prefetched
    block; their extra draws are discarded, so a generator ends up to
    two blocks past its trajectory's last step.

    Each trajectory consumes noise only from its own generator, in step
    order, and all inter-trajectory operations are elementwise or
    row-wise, so results depend neither on which trajectories share a
    batch (active-set compaction is transparent) nor on B.
    ``mirror=True`` negates the initial state, the detector, and the
    noise amplitudes (s·(−ξ) = (−s)·ξ exactly), which maps every
    trajectory to its exact φ → -φ image.
    """
    params = config.params
    bc = params.bc
    K = config.K
    L = params.L
    dt = config.dt
    sign = -1.0 if mirror else 1.0

    decay, w, s = _stepping_constants(L, bc.value, K, dt, params.eps)
    s = sign * s
    synth, anal = _transform_plan(L, bc.value, K)
    width = _noise_width(bc, K)
    inv_sqrt_L = 1.0 / math.sqrt(L)

    n = len(rngs)
    # one row per trajectory: same products as broadcasting, in one pass
    decay, w = np.tile(decay, (n, 1)), np.tile(w, (n, 1))
    n_steps_total = int(math.ceil(config.t_max / dt - 1e-12))
    B = _block_steps(n, width, n_steps_total)
    rows = np.zeros((n, width), dtype=np.float64)
    rows[:, 0] = sign * (-1.0) * math.sqrt(L)
    g = np.empty((n, synth.shape[1]), dtype=np.float64)
    g3 = np.empty_like(g)
    cubic = np.empty_like(rows)
    means = np.empty((n, B), dtype=np.float64)
    buffers = [np.empty((n, B, width), dtype=np.float64) for _ in range(2)]

    outcomes: list = [None] * n
    blowups: list = []
    active = list(range(n))
    active_rngs = list(rngs)
    steps_done = 0
    noise = _draw_noise(active_rngs, buffers[0][:, :B], s)
    with _NoiseWorker() as worker:
        while True:
            m, bs = noise.shape[:2]
            bs_next = min(B, n_steps_total - steps_done - bs)
            if bs_next:
                buffers.reverse()
                worker.submit(active_rngs, buffers[0][:m, :bs_next], s)
            r, gv, g3v, cv, mv = rows[:m], g[:m], g3[:m], cubic[:m], means[:m, :bs]
            dv, wv = decay[:m], w[:m]
            # overflow in a diverging trajectory is handled via the
            # finiteness scan below, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(bs):
                    np.matmul(r, synth, out=gv)
                    np.multiply(gv, gv, out=g3v)
                    np.multiply(g3v, gv, out=g3v)
                    np.matmul(g3v, anal, out=cv)
                    np.multiply(dv, r, out=r)
                    np.multiply(wv, cv, out=cv)
                    np.subtract(r, cv, out=r)
                    np.add(r, noise[:, j], out=r)
                    mv[:, j] = r[:, 0]
                mv *= sign * inv_sqrt_L

            crossed = mv >= config.crossing_threshold  # NaN compares False
            any_crossed = crossed.any(axis=1)
            first = crossed.argmax(axis=1)
            finite = np.isfinite(r).all(axis=1)

            keep = []
            for row_i, traj in enumerate(active):
                if any_crossed[row_i]:
                    outcomes[traj] = (steps_done + int(first[row_i]) + 1) * dt
                elif not finite[row_i]:
                    bad = np.flatnonzero(~np.isfinite(mv[row_i]))
                    step_index = steps_done + (int(bad[0]) if bad.size else bs)
                    blowups.append((traj, step_index))
                else:
                    keep.append(row_i)
            steps_done += bs
            if not bs_next:
                break
            noise = worker.result()
            if not keep:
                break
            if len(keep) < m:
                k = len(keep)
                rows[:k] = r[keep]
                noise[:k] = noise[keep]
                noise = noise[:k]
                active = [active[i] for i in keep]
                active_rngs = [active_rngs[i] for i in keep]

    return outcomes, blowups


def run_to_transition(
    config: SimConfig, rng_stream: np.random.Generator
) -> Optional[float]:
    """First time the spatial mean, started from φ ≡ -1, reaches the threshold.

    Returns the passage time, or None if censored at t_max. A non-finite
    state raises SimulationBlowUp carrying the seed and step index.
    Noise is drawn a block ahead (see ``_evolve_ensemble``), so on return
    ``rng_stream`` stands up to two blocks past the passage step; the
    passage time itself is the same as with one draw per step.
    """
    outcomes, blowups = _evolve_ensemble(config, [rng_stream])
    if blowups:
        raise SimulationBlowUp(
            seed=config.seed, trajectory_index=0, step_index=blowups[0][1]
        )
    return outcomes[0]


def estimate_mfpt(config: SimConfig, *, _mirror: bool = False) -> MfptEstimate:
    """Mean first-passage time over n_traj independent trajectories.

    Deterministic for a fixed config (per-trajectory Philox substreams).
    Blown-up trajectories are discarded and reported in blowup_records;
    censored trajectories do not enter the mean. Raises
    EstimateUnavailable when no trajectory completes.
    """
    rngs = [trajectory_rng(config.seed, i) for i in range(config.n_traj)]
    outcomes, blowups = _evolve_ensemble(config, rngs, mirror=_mirror)
    # a trajectory has a passage time (crossed) or a blow-up record, not both
    times = np.array([t for t in outcomes if t is not None])
    n_completed = times.size
    n_blowup = len(blowups)
    n_censored = config.n_traj - n_completed - n_blowup
    if n_completed == 0:
        raise EstimateUnavailable(
            "no trajectory crossed within t_max; raise t_max or eps "
            f"({n_censored} censored, {n_blowup} blown up)"
        )
    mean = float(times.mean())
    rate = 1.0 / mean
    if n_completed > 1:
        std_error = float(times.std(ddof=1) / math.sqrt(n_completed))
        rate_se = std_error / mean**2
        ci = (max(0.0, rate - 1.96 * rate_se), rate + 1.96 * rate_se)
    else:  # one passage time has no spread to estimate
        std_error = rate_se = math.nan
        ci = (math.nan, math.nan)
    return MfptEstimate(
        mean_passage_time=mean,
        std_error=std_error,
        n_completed=int(n_completed),
        n_censored=int(n_censored),
        n_blowup=int(n_blowup),
        rate=rate,
        rate_std_error=rate_se,
        rate_ci=ci,
        per_trajectory=tuple(outcomes),
        blowup_records=tuple(sorted(blowups)),
    )
