"""Spectral-Galerkin Monte Carlo for the stochastic Ginzburg-Landau equation.

The field is truncated onto the lowest Fourier modes of the linearization
around φ = 0:

* periodic: orthonormal complex exponentials e_k = exp(2πikx/L)/√L,
  k = -K..K, stored as the real layout [φ_0, Re φ_1..K, Im φ_1..K]
  (reality of the field, i.e. φ_{-k} = conj(φ_k), is built into the
  storage);
* Neumann: orthonormal cosines c_0 = 1/√L, c_k = √(2/L) cos(πkx/L),
  k = 0..K, with real coefficients.

Each mode obeys  dφ_k = (-λ_k φ_k + N_k[φ]) dt + √(2ε) dW_k  with
λ_k = -1 + (2πk/L)² (periodic) or -1 + (πk/L)² (Neumann), independent
per-mode Wiener processes, and N_k the Galerkin projection of -φ³. The
λ_k come from ``spectrum.uniform_spectrum``, which refuses too short an L.

Time stepping is exponential-time-differencing Euler-Maruyama: the stiff
linear part and the noise are integrated exactly as an Ornstein-Uhlenbeck
update per mode, the cubic term enters with the first-order ETD weight.
The cubic is evaluated pseudospectrally on a collocation grid wide
enough that no product of the cube (band ≤ 3K) with a retained mode
aliases (exact dealiasing for a cubic term): M = 4(K+1) points on the
periodic circle, and M = 2(K+1) midpoints on [0, L] for Neumann, the half
of the 4(K+1)-point grid of the field's 2L-periodic even extension.
At these small transform sizes cosine/sine matrix products (BLAS)
outperform FFTs, so synthesis and analysis are plain matmuls against
matrices built once per ensemble, and the all-real layout lets one code
path serve both boundary conditions.

Trajectories draw their noise from counter-based per-trajectory
substreams keyed by (seed, trajectory index), so ensemble results are
reproducible under any execution order, batching or split among
processes. ``estimate_mfpt`` splits trajectories 0..n-1 into w
contiguous shards, w = min(usable CPUs, ⌊n/64⌋), and runs each in a
worker process (in this one when w = 1); the concatenated result has
the bits of a one-process run. A shard advances in blocks of at most
128 steps in the process that runs it: draw a block's noise, integrate
it, writing each step's state over the noise it used, then detect
passages and blow-ups in the states the block left. One noise buffer is
sized once for a shard's n trajectories, whatever the horizon:
⌊2^18/width⌋ rows of width draws, clipped to 16–128 rows a trajectory.
Each block takes as many steps as it holds for the m still running.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .instanton import BoundaryCondition, SystemParams
from .specfun import _count, _real
from .spectrum import uniform_spectrum

# The noise buffer: a budget of draws (2 MiB of float64), clipped to 16-128
# steps a trajectory. The floor keeps the per-block overhead small for very
# wide ensembles; the cap keeps the draws thrown away after a passage few.
_NOISE_BUDGET = 1 << 18
_MIN_BLOCK_STEPS = 16
_MAX_BLOCK_STEPS = 128
# Trajectories per worker process at the least, set when a worker took
# 0.2-0.3 s to start (a two-worker call takes 0.05 s now, after the
# forkserver's 0.2 s once a process; 2 vCPUs, Python 3.11): 64 trajectories
# of the cheapest ensemble measured, Neumann L = 2, eps = 0.25, K = 16, run
# about 1.1 s. Two shards against one process, median wall-time ratio over
# four seeds: 1.06 at n = 64, 1.03 at 128 and 1.53 at 192 there; 1.19, 1.50
# and 1.57 for periodic L = 7, eps = 0.5.
_SHARD_FLOOR = 64
# the forkserver's environment, whichever of these BLAS libraries numpy links
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_ENVIRON_LOCK = threading.Lock()


class SimulationBlowUp(RuntimeError):
    """A trajectory left the resolvable range (non-finite coefficients)."""

    def __init__(self, seed: int, trajectory_index: int, step_index: int):
        self.seed = seed
        self.trajectory_index = trajectory_index
        self.step_index = step_index
        super().__init__(
            f"trajectory {trajectory_index} (seed {seed}) became non-finite "
            f"at step {step_index}; reduce dt"
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
        if not isinstance(self.params, SystemParams):
            raise TypeError("params must be a SystemParams")
        dt = _real("dt", self.dt, 0.0)
        checked = {  # numpy numbers are stored as int and float
            "K": _count("K", self.K, 8),
            "dt": dt,
            "t_max": _real("t_max", self.t_max, dt, math.inf, "[)"),
            "n_traj": _count("n_traj", self.n_traj, 1),
            "seed": _count("seed", self.seed, 0, 2**64 - 1),
            "crossing_threshold": _real(
                "crossing_threshold", self.crossing_threshold, 0.0, 1.0
            ),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not math.isfinite(self.t_max / dt):  # the step count
            raise ValueError(f"t_max / dt overflows: t_max={self.t_max}, dt={dt}")


@dataclass(frozen=True)
class MfptEstimate:
    """Mean first-passage time over an ensemble, with delta-method rate CI.

    Built from the ensemble's outcomes alone: ``per_trajectory[i]`` is the
    passage time of trajectory i, or None (censored or blown up), and
    ``blowup_records`` holds a (trajectory_index, step_index) per blow-up.
    Only completed trajectories enter the mean; with one there is no spread
    to estimate, and ``std_error``, ``rate_std_error`` and ``rate_ci`` are
    NaN. Raises ValueError for a passage time that is not positive and
    finite, and EstimateUnavailable when none completed.
    """

    mean_passage_time: float = field(init=False)
    std_error: float = field(init=False)
    n_completed: int = field(init=False)
    n_censored: int = field(init=False)
    n_blowup: int = field(init=False)
    rate: float = field(init=False)
    rate_std_error: float = field(init=False)
    rate_ci: tuple[float, float] = field(init=False)
    per_trajectory: tuple = field(repr=False)
    blowup_records: tuple = ()

    def __post_init__(self):
        # a trajectory has a passage time (crossed) or a blow-up record, not both
        times = np.array([t for t in self.per_trajectory if t is not None])
        if not ((times > 0) & np.isfinite(times)).all():
            raise ValueError("passage times must be positive and finite")
        n_blowup = len(self.blowup_records)
        n_censored = len(self.per_trajectory) - times.size - n_blowup
        if times.size == 0:
            raise EstimateUnavailable(
                "no trajectory crossed within t_max; raise t_max or eps "
                f"({n_censored} censored, {n_blowup} blown up)"
            )
        mean = float(times.mean())
        rate = 1.0 / mean
        if times.size > 1:
            std_error = float(times.std(ddof=1) / math.sqrt(times.size))
            rate_se = std_error / mean**2
            ci = (max(0.0, rate - 1.96 * rate_se), rate + 1.96 * rate_se)
        else:  # one passage time has no spread to estimate
            std_error = rate_se = math.nan
            ci = (math.nan, math.nan)
        vars(self).update(  # past the frozen __setattr__
            mean_passage_time=mean, std_error=std_error, n_completed=times.size,
            n_censored=n_censored, n_blowup=n_blowup, rate=rate, rate_std_error=rate_se,
            rate_ci=ci, per_trajectory=tuple(self.per_trajectory),
            blowup_records=tuple(sorted(self.blowup_records)),
        )


# ---------------------------------------------------------------------------
# mode bookkeeping and transform plans
# ---------------------------------------------------------------------------


def _noise_width(bc: BoundaryCondition, K: int) -> int:
    """Standard normal draws consumed per step: one per real degree of freedom."""
    return 2 * K + 1 if bc is BoundaryCondition.PERIODIC else K + 1


def _transform_plan(L: float, bc: BoundaryCondition, K: int):
    """Synthesis/analysis matrices between real mode layout and the grid.

    Real layout: [a_0..a_K] (Neumann) or [φ_0, Re φ_1..K, Im φ_1..K]
    (periodic; φ_0 of a real field is real). ``synth`` (n_real, M) maps
    modes to the M collocation values; ``anal`` (M, n_real) maps grid
    values of a band-limited function (band ≤ 3K) to its exact mode
    coefficients via trapezoidal/midpoint quadrature. The periodic rule
    on M = 4(K+1) points is exact for e^{2πipx/L} with |p| < M, the
    Neumann midpoint rule on M = 2(K+1) points for cos(πpx/L) with
    p < 2M; the cube times a retained mode reaches |p| ≤ 4K, inside both.
    """
    sqrtL = math.sqrt(L)
    if bc is BoundaryCondition.PERIODIC:
        M = 4 * (K + 1)
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
        M = 2 * (K + 1)
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


def _stepping_constants(L: float, bc: BoundaryCondition, K: int, dt: float, eps: float):
    """Exact OU update weights in the real layout: decay, cubic weight, noise amp.

    Per mode, φ ← e^{-λdt} φ + w N + s ξ with w = -expm1(-λdt)/λ (→ dt as
    λ → 0) and s = √(ε·(-expm1(-2λdt))/λ) (→ √(2εdt)); both forms hold for
    negative λ too. For periodic k ≥ 1 the complex noise ξ_k with
    E|ξ_k|² = 1 splits into real and imaginary parts of amplitude s_k/√2.
    """
    lam = uniform_spectrum(L, bc, "transition", K).eigenvalues
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


def _cubic_real(rows: np.ndarray, synth: np.ndarray, anal: np.ndarray) -> np.ndarray:
    """Mode coefficients of φ³ (real layout) for a batch of real-layout rows."""
    g = rows @ synth
    return (g * g * g) @ anal


# ---------------------------------------------------------------------------
# first-passage ensemble engine
# ---------------------------------------------------------------------------


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one trajectory: Philox keyed (seed, index)."""
    key = [_count("seed", seed, 0, 2**64 - 1), _count("index", index, 0, 2**64 - 1)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _block_steps(m: int, capacity: int, n_steps: int) -> int:
    """Steps of m trajectories that capacity rows hold, at most 128 and n_steps."""
    return min(n_steps, _MAX_BLOCK_STEPS, capacity // m)


def _draw_noise(rngs, block: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fill block[i] with the next draws of rngs[i], then scale by s in place."""
    for rng, out in zip(rngs, block):
        rng.standard_normal(out=out)
    np.multiply(block, s, out=block)
    return block


def _evolve_ensemble(
    config: SimConfig,
    rngs: Sequence[np.random.Generator],
    *,
    mirror: bool = False,
) -> tuple[list, list]:
    """Integrate an ensemble until crossing, censoring, or blow-up.

    Returns (outcomes, blowups): outcomes[i] is the passage time of
    trajectory i or None (censored or blown up); blowups is a list of
    (trajectory_index, step_index), step_index counting from 0 the first
    step after which some mode of the trajectory is non-finite.

    One flat buffer of ``capacity`` rows of width draws is sized once for
    all n trajectories. A block of the m active ones takes the B =
    ``_block_steps(m, capacity, ...)`` steps it holds, at most 128, and its
    noise is drawn and scaled into it on the calling thread, viewed as
    (m, B, width); ``estimate_mfpt`` calls this once per shard, each in
    its own process. Step j writes its new state over the noise it has just
    used, so after the block the buffer holds the block's state history:
    passages are read from its mode-0 column, and a blown-up row's step
    is its first slot with a non-finite mode. Trajectories that stop in
    a block are compacted out of the state in place; the draws past
    their last step are discarded, so a generator ends at most one block
    past its trajectory's last step.

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

    decay, w, s = _stepping_constants(L, bc, K, dt, params.eps)
    s = sign * s
    synth, anal = _transform_plan(L, bc, K)
    anal_w = anal * w  # the cubic's ETD weight, folded into the analysis
    width = _noise_width(bc, K)
    inv_sqrt_L = 1.0 / math.sqrt(L)

    n = len(rngs)
    # one row per trajectory: same products as broadcasting, in one pass
    decay = np.tile(decay, (n, 1))
    n_steps_total = int(math.ceil(config.t_max / dt - 1e-12))
    rows = np.zeros((n, width), dtype=np.float64)
    rows[:, 0] = sign * (-1.0) * math.sqrt(L)
    g = np.empty((n, synth.shape[1]), dtype=np.float64)
    g3 = np.empty_like(g)
    cubic = np.empty_like(rows)
    capacity = min(_MAX_BLOCK_STEPS * n, max(_NOISE_BUDGET // width, _MIN_BLOCK_STEPS * n))
    buffer = np.empty((capacity, width), dtype=np.float64)

    outcomes: list = [None] * n
    blowups: list = []
    active = list(range(n))
    active_rngs = list(rngs)
    steps_done = 0
    while True:
        m = len(active)
        bs = _block_steps(m, capacity, n_steps_total - steps_done)
        states = _draw_noise(active_rngs, buffer[: m * bs].reshape(m, bs, width), s)
        r, gv, g3v, cv, dv = rows[:m], g[:m], g3[:m], cubic[:m], decay[:m]
        # overflow in a diverging trajectory shows in the finiteness scan,
        # not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(bs):
                np.dot(r, synth, out=gv)
                np.multiply(gv, gv, out=g3v)
                np.multiply(g3v, gv, out=g3v)
                np.dot(g3v, anal_w, out=cv)
                np.multiply(dv, r, out=r)
                np.subtract(r, cv, out=r)
                np.add(r, states[:, j], out=r)
                states[:, j] = r  # the state after step j replaces its noise
            mv = states[:, :, 0] * (sign * inv_sqrt_L)
        finite = np.isfinite(r).all(axis=1)

        crossed = mv >= config.crossing_threshold  # NaN compares False
        any_crossed = crossed.any(axis=1)
        first = crossed.argmax(axis=1)

        keep = []
        for row_i, traj in enumerate(active):
            if any_crossed[row_i]:
                outcomes[traj] = (steps_done + int(first[row_i]) + 1) * dt
            elif not finite[row_i]:
                # the first step after which any mode of the row is non-finite
                j = int(np.isfinite(states[row_i]).all(axis=1).argmin())
                blowups.append((traj, steps_done + j))
            else:
                keep.append(row_i)
        steps_done += bs
        if steps_done == n_steps_total or not keep:
            break
        if len(keep) < m:
            rows[: len(keep)] = rows[keep]
            active = [active[i] for i in keep]
            active_rngs = [active_rngs[i] for i in keep]

    return outcomes, blowups


def run_to_transition(
    config: SimConfig, rng_stream: np.random.Generator
) -> Optional[float]:
    """First time the spatial mean, started from φ ≡ -1, reaches the threshold.

    Returns the passage time, or None if censored at t_max. A non-finite
    state raises SimulationBlowUp carrying the seed and step index.
    Noise is drawn a block at a time (see ``_evolve_ensemble``), so on
    return ``rng_stream`` stands at the end of the block that holds the
    passage step; the passage time itself is the same as with one draw
    per step.
    """
    outcomes, blowups = _evolve_ensemble(config, [rng_stream])
    if blowups:
        raise SimulationBlowUp(
            seed=config.seed, trajectory_index=0, step_index=blowups[0][1]
        )
    return outcomes[0]


def _shard_count(n: int) -> int:
    """Worker processes for n trajectories: one per CPU this process may run
    on, at least ``_SHARD_FLOOR`` trajectories each."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n // _SHARD_FLOOR))


def _run_shard(config: SimConfig, start: int, stop: int) -> tuple[list, list]:
    """``_evolve_ensemble`` over trajectories start..stop-1, with blow-ups
    by their index in the whole ensemble.

    The generators are built here, in the process that runs the shard. A
    worker finds this function by name; being private, it stays the
    module's own while wrappers replace public functions (a tracer's).
    """
    rngs = [trajectory_rng(config.seed, i) for i in range(start, stop)]
    outcomes, blowups = _evolve_ensemble(config, rngs)
    return outcomes, [(start + i, step) for i, step in blowups]


def _start_forkserver() -> None:
    """Start the forkserver, unless it runs, with numpy preloaded and one
    BLAS thread in its environment for the workers that share the CPUs;
    ``os.environ`` is left as it was. Nothing of this package is preloaded:
    the forkserver does not read the caller's ``sys.path`` (Python 3.11),
    so it would import whichever copy its own path finds. A forkserver that
    other code started keeps its own settings.
    """
    from multiprocessing import forkserver

    forkserver.set_forkserver_preload(["numpy"])
    with _ENVIRON_LOCK:
        saved = {name: os.environ.get(name) for name in _ONE_BLAS_THREAD}
        os.environ.update(_ONE_BLAS_THREAD)
        try:
            forkserver.ensure_running()
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value


def _evolve_sharded(config: SimConfig, shards: int) -> tuple[list, list]:
    """(outcomes, blowups) of all n_traj trajectories, split into contiguous
    shards that run in worker processes, one each.

    A single shard, a daemonic caller (which may not start processes) and
    a platform without the forkserver start method run the whole range in
    this process.
    """
    n = config.n_traj
    if shards > 1:
        import multiprocessing

        if (
            not multiprocessing.current_process().daemon
            and "forkserver" in multiprocessing.get_all_start_methods()
        ):
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

            _start_forkserver()
            context = multiprocessing.get_context("forkserver")
            bounds = [n * k // shards for k in range(shards + 1)]
            with ProcessPoolExecutor(shards, mp_context=context) as pool:
                try:
                    parts = list(pool.map(_run_shard, [config] * shards, bounds[:-1], bounds[1:]))
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        "a shard worker ended abruptly: it was killed (out of memory, for "
                        "example), or the script that started it lacks an "
                        '`if __name__ == "__main__":` guard around its entry point'
                    ) from exc
            return [t for part in parts for t in part[0]], [b for part in parts for b in part[1]]
    return _run_shard(config, 0, n)


def estimate_mfpt(config: SimConfig) -> MfptEstimate:
    """Mean first-passage time over n_traj independent trajectories.

    Deterministic for a fixed config (per-trajectory Philox substreams);
    raises EstimateUnavailable when no trajectory completes. The
    trajectories run as ``_shard_count(n)`` contiguous shards, one worker
    process each, with the same outcomes whatever the count. Every worker
    imports the main module, so a script that calls this on 128 or more
    trajectories guards its entry point with ``if __name__ == "__main__":``;
    a worker that ends abruptly, for that or another reason, raises
    RuntimeError.
    """
    return MfptEstimate(*_evolve_sharded(config, _shard_count(config.n_traj)))
