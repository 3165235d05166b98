"""Tests for the spectral Monte Carlo simulator.

Oracles: direct triple-sum convolutions for the cubic term, exact
Ornstein-Uhlenbeck statistics for the linear dynamics, closed-form fixed
points, pathwise mirror symmetry, and distributional checks on the
first-passage ensemble (Kolmogorov-Smirnov exponentiality, resolution and
time-step robustness at combined 2σ).
"""

import functools
import hashlib
import math
import os
import resource
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import kramers_gl
import kramers_gl.simulator as simulator
from kramers_gl.instanton import BoundaryCondition, SystemParams
from kramers_gl.simulator import (
    EstimateUnavailable,
    MfptEstimate,
    SimConfig,
    SimulationBlowUp,
    estimate_mfpt,
    run_to_transition,
    trajectory_rng,
)
from kramers_gl.spectrum import uniform_spectrum

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN


def noise_width(bc, K):
    return 2 * K + 1 if bc is PER else K + 1


def zero_noise(bc, K):
    return np.zeros(noise_width(bc, K))


# ---------------------------------------------------------------------------
# reference stepper: the engine's kernel, one (1, width) row at a time
# ---------------------------------------------------------------------------


def uniform_row(params, K, value):
    """Real-layout row of the uniform field φ ≡ value (mode 0 = value·√L)."""
    row = np.zeros((1, noise_width(params.bc, K)))
    row[0, 0] = value * math.sqrt(params.L)
    return row


def to_row(half, bc):
    """Half spectrum φ_0..φ_K as a real-layout row [φ_0, Re φ_1..K, Im φ_1..K]."""
    if bc is PER:
        return np.concatenate([half.real, half[1:].imag])[np.newaxis, :]
    return np.asarray(half, dtype=np.float64)[np.newaxis, :]


def to_half(row, bc):
    """Inverse of to_row."""
    if bc is PER:
        K = row.shape[1] // 2
        return row[0, : K + 1] + 1j * np.concatenate([[0.0], row[0, K + 1 :]])
    return row[0]


# the engine builds its tables once per ensemble; the stepper below takes
# thousands of single steps, so it builds each table once per argument set
transform_plan = functools.cache(simulator._transform_plan)
stepping_constants = functools.cache(simulator._stepping_constants)


def nonlinear_term(half, params, K):
    """Galerkin projection of -φ³ through the engine's transform plan."""
    synth, anal = transform_plan(params.L, params.bc, K)
    cubic = simulator._cubic_real(to_row(half, params.bc), synth, anal)
    return -to_half(cubic, params.bc)


def step(row, params, K, dt, noise, *, include_cubic=True):
    """One exponential Euler-Maruyama step; zero noise gives the ε = 0 flow."""
    L, bc = params.L, params.bc
    decay, w, s = stepping_constants(L, bc, K, dt, params.eps)
    new = decay * row + s * noise
    if include_cubic:
        synth, anal = transform_plan(L, bc, K)
        new = new - w * simulator._cubic_real(row, synth, anal)
    return new


def field_values(row, params, K):
    """The field on the engine's collocation grid."""
    return (row @ transform_plan(params.L, params.bc, K)[0])[0]


# the engine starts every trajectory from uniform_row(params, K, -1.0) and
# reads the spatial mean as mode 0 / √L
@given(c=st.floats(-2.0, 2.0), L=st.floats(0.5, 20.0))
def test_uniform_state_mean(c, L):
    for bc in (PER, NEU):
        params = SystemParams(L=L, eps=0.1, bc=bc)
        mean = field_values(uniform_row(params, 8, c), params, 8).mean()
        assert mean == pytest.approx(c, abs=1e-12)


def test_uniform_state_field_values():
    params = SystemParams(L=3.0, eps=0.1, bc=PER)
    vals = field_values(uniform_row(params, 8, -0.75), params, 8)
    np.testing.assert_allclose(vals, -0.75, atol=1e-14)


def test_config_validation():
    p = SystemParams(L=2.0, eps=0.1, bc=NEU)
    with pytest.raises(ValueError, match="K"):
        SimConfig(params=p, K=4)
    with pytest.raises(ValueError, match="dt"):
        SimConfig(params=p, dt=0.0)
    with pytest.raises(ValueError, match="n_traj"):
        SimConfig(params=p, n_traj=0)
    with pytest.raises(ValueError, match="crossing_threshold"):
        SimConfig(params=p, crossing_threshold=1.5)
    with pytest.raises(ValueError, match="t_max"):
        SimConfig(params=p, dt=1e-2, t_max=1e-3)
    # the step count t_max / dt is no float, let alone an integer
    with pytest.raises(ValueError, match="t_max / dt overflows"):
        SimConfig(params=p, t_max=1e308, dt=1e-3)
    with pytest.raises(TypeError):
        SimConfig(params=(2.0, 0.1, "neumann"))


def test_config_accepts_numpy_integers_and_stores_int():
    p = SystemParams(L=2.0, eps=0.1, bc=NEU)
    cfg = SimConfig(params=p, K=np.int64(8), n_traj=np.int32(5), seed=np.uint64(3))
    assert (cfg.K, cfg.n_traj, cfg.seed) == (8, 5, 3)
    assert all(type(v) is int for v in (cfg.K, cfg.n_traj, cfg.seed))
    assert cfg == SimConfig(params=p, K=8, n_traj=5, seed=3)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(params=p, seed=np.int64(-1))
    with pytest.raises(ValueError, match="K"):
        SimConfig(params=p, K=8.0)


@pytest.mark.parametrize("name", ["K", "n_traj", "seed", "dt", "t_max"])
def test_config_rejects_booleans(name):
    # bool is an Integral, but True is no mode count, ensemble size, seed,
    # time step or horizon (it ran as dt = 1)
    p = SystemParams(L=2.0, eps=0.1, bc=NEU)
    kind = "a number" if name in ("dt", "t_max") else "an integer"
    with pytest.raises(ValueError, match=f"^{name} must be {kind} in .*, got True"):
        SimConfig(params=p, **{name: True})


# ---------------------------------------------------------------------------
# cubic term against the direct triple-sum convolution
# ---------------------------------------------------------------------------


def direct_cubic_periodic(half, L, K):
    full = {k: half[k] for k in range(K + 1)}
    for k in range(1, K + 1):
        full[-k] = np.conj(half[k])
    out = np.zeros(K + 1, complex)
    for k in range(K + 1):
        acc = 0.0
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                k3 = k - k1 - k2
                if -K <= k3 <= K:
                    acc += full[k1] * full[k2] * full[k3]
        out[k] = -acc / L
    return out


def direct_cubic_neumann(a, L, K):
    # even extension: cosine amplitudes become symmetric exponential pairs
    A = np.empty(K + 1)
    A[0] = a[0] / math.sqrt(L)
    A[1:] = a[1:] * math.sqrt(2.0 / L)
    psi = {0: A[0]}
    for k in range(1, K + 1):
        psi[k] = psi[-k] = A[k] / 2.0
    chi = np.zeros(3 * K + 1)
    for k in range(3 * K + 1):
        acc = 0.0
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                k3 = k - k1 - k2
                if -K <= k3 <= K:
                    acc += psi[k1] * psi[k2] * psi[k3]
        chi[k] = acc
    out = np.empty(K + 1)
    out[0] = -chi[0] * math.sqrt(L)
    out[1:] = -2.0 * chi[1 : K + 1] * math.sqrt(L / 2.0)
    return out


@pytest.mark.parametrize("K", [6, 8])
def test_cubic_matches_direct_convolution_periodic(K):
    rng = np.random.default_rng(7 + K)
    half = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    half[0] = half[0].real
    params = SystemParams(L=3.0, eps=0.1, bc=PER)
    np.testing.assert_allclose(
        nonlinear_term(half, params, K), direct_cubic_periodic(half, 3.0, K), atol=1e-10
    )


@pytest.mark.parametrize("K", [6, 8, 16])
def test_cubic_matches_direct_convolution_neumann(K):
    rng = np.random.default_rng(11 + K)
    a = rng.normal(size=K + 1)
    params = SystemParams(L=1.7, eps=0.1, bc=NEU)
    np.testing.assert_allclose(
        nonlinear_term(a, params, K), direct_cubic_neumann(a, 1.7, K), atol=1e-10
    )


def test_cubic_uniform_field():
    # phi ≡ c: the only nonzero output is mode 0 with -c^3 sqrt(L)
    for bc in (PER, NEU):
        params = SystemParams(L=2.0, eps=0.1, bc=bc)
        N = nonlinear_term(to_half(uniform_row(params, 8, 0.7), bc), params, 8)
        assert np.real(N[0]) == pytest.approx(-(0.7**3) * math.sqrt(2.0), rel=1e-13)
        assert np.max(np.abs(N[1:])) < 1e-13


def test_cubic_single_mode_harmonics():
    # phi_1 only: cube populates exactly k=1 (3|p|^2 p) and k=3 (p^3)
    K, L = 8, 5.0
    p = 0.3 - 0.4j
    half = np.zeros(K + 1, complex)
    half[1] = p
    N = nonlinear_term(half, SystemParams(L=L, eps=0.1, bc=PER), K)
    assert N[1] == pytest.approx(-3.0 * abs(p) ** 2 * p / L, rel=1e-12)
    assert N[3] == pytest.approx(-(p**3) / L, rel=1e-12)
    others = [k for k in range(K + 1) if k not in (1, 3)]
    assert np.max(np.abs(N[others])) < 1e-13


def test_cubic_zero_state():
    params = SystemParams(L=2.0, eps=0.1, bc=NEU)
    assert np.max(np.abs(nonlinear_term(np.zeros(9), params, 8))) == 0.0


# ---------------------------------------------------------------------------
# stepping: exact linear propagation, fixed point, OU statistics
# ---------------------------------------------------------------------------


def test_exact_linear_propagation_single_mode():
    # zero noise draws realize the deterministic flow; cubic disabled
    params = SystemParams(L=2.0, eps=0.1, bc=PER)
    c0 = np.zeros(9, complex)
    c0[3] = 0.4 - 0.2j
    row = to_row(c0, PER)
    z = zero_noise(PER, 8)
    for _ in range(1000):
        row = step(row, params, 8, 1e-3, z, include_cubic=False)
    coeffs = to_half(row, PER)
    lam3 = uniform_spectrum(2.0, PER, "transition", 8).eigenvalues[3]
    expect = (0.4 - 0.2j) * math.exp(-lam3 * 1.0)
    assert abs(coeffs[3] - expect) < 1e-12 * abs(expect)
    assert np.max(np.abs(np.delete(coeffs, 3))) == 0.0


def test_unstable_mode_grows_without_cubic():
    # lambda_0 = -1: the uniform mode grows as e^{t} under the linear flow
    params = SystemParams(L=2.0, eps=0.1, bc=NEU)
    row = uniform_row(params, 8, 0.01)
    z = zero_noise(NEU, 8)
    for _ in range(200):
        row = step(row, params, 8, 1e-2, z, include_cubic=False)
    mean = row[0, 0] / math.sqrt(params.L)
    assert mean == pytest.approx(0.01 * math.exp(2.0), rel=1e-12)


def test_fixed_point_phi_minus_one():
    # full dynamics, zero noise draws: phi ≡ -1 is stationary
    for bc in (PER, NEU):
        params = SystemParams(L=2.0, eps=0.1, bc=bc)
        row = uniform_row(params, 8, -1.0)
        z = zero_noise(bc, 8)
        for _ in range(2000):
            row = step(row, params, 8, 1e-2, z)
        vals = field_values(row, params, 8)
        assert np.max(np.abs(vals + 1.0)) < 1e-12


def test_ou_stationary_variance():
    # cubic disabled: each stable mode is an exact OU process with
    # stationary variance eps/lambda_k regardless of dt
    params = SystemParams(L=2.0, eps=0.08, bc=NEU)
    K, dt = 8, 0.25
    lam = uniform_spectrum(2.0, NEU, "transition", K).eigenvalues
    rng = np.random.default_rng(42)
    n_traj, burn, keep = 64, 80, 720
    rows = [uniform_row(params, K, 0.0) for _ in range(n_traj)]
    samples = []
    for i in range(burn + keep):
        rows = [
            step(r, params, K, dt, rng.standard_normal(K + 1), include_cubic=False)
            for r in rows
        ]
        if i >= burn:
            samples.append(np.concatenate(rows))
    var = np.concatenate(samples).var(axis=0)
    for k in (1, 2, 3, 4):
        assert var[k] == pytest.approx(params.eps / lam[k], rel=0.05)


def test_mirror_symmetry_of_one_step():
    # phi -> -phi with negated noise gives the exact mirror state
    params = SystemParams(L=2.0, eps=0.15, bc=PER)
    rng = np.random.default_rng(3)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    c[0] = c[0].real
    row = to_row(c, PER)
    noise = rng.standard_normal(noise_width(PER, 8))
    out = step(row, params, 8, 1e-2, noise)
    out_m = step(-row, params, 8, 1e-2, -noise)
    np.testing.assert_array_equal(out, -out_m)


# ---------------------------------------------------------------------------
# first-passage runs
# ---------------------------------------------------------------------------


def quick_params(eps=0.25):
    return SystemParams(L=2.0, eps=eps, bc=NEU)


@pytest.mark.parametrize("bc", [NEU, PER])
def test_run_to_transition_matches_manual_stepping(bc):
    # the batched engine and the reference stepper must tell the same story
    params = SystemParams(L=2.0, eps=0.25, bc=bc)
    cfg = SimConfig(params=params, K=8, dt=2e-3, t_max=500.0, seed=4242)
    engine_time = run_to_transition(cfg, trajectory_rng(cfg.seed, 0))

    rng = trajectory_rng(cfg.seed, 0)
    row = uniform_row(params, cfg.K, -1.0)
    width = noise_width(bc, cfg.K)
    manual_time = None
    # the engine draws noise in (block, width) chunks; the stream yields
    # the same values drawn one step at a time
    for n in range(int(cfg.t_max / cfg.dt)):
        row = step(row, params, cfg.K, cfg.dt, rng.standard_normal(width))
        if row[0, 0] / math.sqrt(params.L) >= cfg.crossing_threshold:
            manual_time = (n + 1) * cfg.dt
            break
    assert manual_time is not None
    assert engine_time == pytest.approx(manual_time, abs=1e-12)


def test_run_to_transition_censored():
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=0.5, seed=1)
    assert run_to_transition(cfg, trajectory_rng(1, 0)) is None


def test_estimate_all_censored_raises():
    cfg = SimConfig(
        params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=0.5, n_traj=20, seed=1
    )
    with pytest.raises(EstimateUnavailable, match="censored"):
        estimate_mfpt(cfg)


def test_estimate_deterministic_and_sane():
    cfg = SimConfig(
        params=quick_params(), K=8, dt=2e-3, t_max=500.0, n_traj=40, seed=31337
    )
    a = estimate_mfpt(cfg)
    b = estimate_mfpt(cfg)
    assert a == b  # bit-identical, including per-trajectory times
    assert a.n_completed == 40
    assert a.mean_passage_time > 1.0
    assert a.std_error > 0
    assert a.rate == pytest.approx(1.0 / a.mean_passage_time, rel=1e-15)
    assert a.rate_ci[0] < a.rate < a.rate_ci[1]
    assert a.rate_std_error == pytest.approx(
        a.std_error / a.mean_passage_time**2, rel=1e-15
    )


def test_estimate_from_one_completion_has_no_error_estimate():
    cfg = SimConfig(
        params=quick_params(), K=8, dt=2e-3, t_max=500.0, n_traj=1, seed=31337
    )
    est = estimate_mfpt(cfg)
    assert est.n_completed == 1
    assert est.rate == pytest.approx(1.0 / est.mean_passage_time, rel=1e-15)
    assert math.isnan(est.std_error)
    assert math.isnan(est.rate_std_error)
    assert all(math.isnan(bound) for bound in est.rate_ci)


def test_estimate_partial_censoring():
    cfg = SimConfig(
        params=quick_params(), K=8, dt=2e-3, t_max=8.0, n_traj=40, seed=2718
    )
    est = estimate_mfpt(cfg)
    assert est.n_censored > 0
    assert est.n_completed + est.n_censored + est.n_blowup == 40
    assert sum(1 for t in est.per_trajectory if t is None) == est.n_censored
    assert all(t <= 8.0 + 1e-12 for t in est.per_trajectory if t is not None)


def test_coarse_dt_divergence_is_detected_as_crossing():
    # With the exponential integrator, a time step far beyond the explicit
    # cubic stability limit makes trajectories diverge with alternating
    # sign, so the spatial mean throws a huge positive sample (or +inf,
    # which compares >= threshold) before any mode becomes non-finite.
    # The detector therefore records a crossing, never a silent loss: from
    # the uniform start, blow-up without a prior crossing is unreachable,
    # and the ensemble accounting stays consistent.
    cfg = SimConfig(
        params=SystemParams(L=2.0, eps=0.3, bc=NEU),
        K=8,
        dt=2.0,
        t_max=60.0,
        n_traj=40,
        seed=99,
    )
    est = estimate_mfpt(cfg)
    assert est.n_completed == 40
    assert est.n_blowup == 0
    assert est.blowup_records == ()


def mirrored_estimate(cfg):
    """The estimate of cfg's ensemble run as its phi -> -phi image, in this process."""
    rngs = [trajectory_rng(cfg.seed, i) for i in range(cfg.n_traj)]
    return MfptEstimate(*simulator._evolve_ensemble(cfg, rngs, mirror=True))


def test_mirrored_ensemble_is_bit_identical():
    # phi -> -phi symmetry of the full experiment, exact by construction
    cfg = SimConfig(
        params=quick_params(), K=8, dt=2e-3, t_max=300.0, n_traj=25, seed=808
    )
    assert estimate_mfpt(cfg) == mirrored_estimate(cfg)


def test_threshold_sensitivity_is_within_relaxation_scale():
    # Same seeds, two detector thresholds. Pathwise the 0.8-crossing follows
    # the 0.5-crossing by the deterministic slide through the saddle region
    # (order-one relaxation time) for the typical trajectory; a small
    # minority cross 0.5 transiently, retreat, and wait an extra exponential
    # time, so the MEAN lag is tail-dominated while the MEDIAN measures the
    # relaxation scale. Measured at this seed: median 0.53, retreat
    # fraction (lag > 5) 5.3%.
    base = dict(
        params=SystemParams(L=2.0, eps=0.2, bc=NEU),
        K=16,
        dt=1e-3,
        t_max=2000.0,
        n_traj=150,
        seed=555,
    )
    lo = estimate_mfpt(SimConfig(**base, crossing_threshold=0.5))
    hi = estimate_mfpt(SimConfig(**base, crossing_threshold=0.8))
    pairs = [
        (a, b)
        for a, b in zip(lo.per_trajectory, hi.per_trajectory)
        if a is not None and b is not None
    ]
    assert len(pairs) >= 140
    diffs = np.array([b - a for a, b in pairs])
    assert diffs.min() >= 0.0  # first passage is monotone in the threshold
    assert np.median(diffs) < 2.0  # typical lag is the slide, not the wait
    assert (diffs > 5.0).mean() < 0.2  # retreat-and-retry events are rare


# ---------------------------------------------------------------------------
# engine bytes, batching invariance, the bounded noise buffer, noise drawing
# ---------------------------------------------------------------------------

# SHA-256 of repr(per_trajectory) for small seeded ensembles; any changed
# passage time changes the digest. The cases cover both boundary conditions,
# censoring, horizons that are no multiple of the block length (4001 steps,
# a prime, and 10001), the mirrored engine, and a lone trajectory.
ENGINE_DIGESTS = {
    "neumann": (
        dict(L=2.0, eps=0.25, bc=NEU, K=8, dt=2e-3, t_max=500.0, n_traj=24, seed=4242),
        False,
        "193cb832ae42dc95febfd29766ee54565e107067039250353927b8dcd6f636ce",
    ),
    "neumann_mirror": (
        dict(L=2.0, eps=0.25, bc=NEU, K=8, dt=2e-3, t_max=500.0, n_traj=24, seed=4242),
        True,
        "193cb832ae42dc95febfd29766ee54565e107067039250353927b8dcd6f636ce",
    ),
    "neumann_censored_odd_horizon": (
        dict(L=2.0, eps=0.25, bc=NEU, K=8, dt=2e-3, t_max=8.002, n_traj=40, seed=2718),
        False,
        "b7d56891963595475eda82aff26b95661dba89b8a2659b328fde55d4aadfd9ec",
    ),
    "periodic": (
        dict(L=7.0, eps=0.5, bc=PER, K=8, dt=2e-3, t_max=300.0, n_traj=24, seed=99),
        False,
        "b0952bba40d3db5758510d1e95fe6c2957567d89ad947a5513a48fe36bb26661",
    ),
    "periodic_censored_mirror": (
        dict(L=7.0, eps=0.5, bc=PER, K=16, dt=1e-3, t_max=10.001, n_traj=30, seed=7),
        True,
        "4df2760ddbcdfd9bd429b39f3c309d8a5e265c99c3f3b56527e7f832b48faa2c",
    ),
    "neumann_single": (
        dict(L=2.0, eps=0.25, bc=NEU, K=16, dt=1e-3, t_max=50.0, n_traj=1, seed=5),
        False,
        "700ee69607629f71c0d54084f3c01348d9e229669a8304575e3a14efb33adf7b",
    ),
}


def sim_config(L, eps, bc, **kwargs):
    return SimConfig(params=SystemParams(L=L, eps=eps, bc=bc), **kwargs)


def case_estimate(name):
    """The estimate of an ENGINE_DIGESTS case, mirrored where it says so."""
    spec, mirror, _ = ENGINE_DIGESTS[name]
    cfg = sim_config(**spec)
    return mirrored_estimate(cfg) if mirror else estimate_mfpt(cfg)


@pytest.mark.parametrize("name", sorted(ENGINE_DIGESTS))
def test_engine_bytes_are_pinned(name):
    est = case_estimate(name)
    digest = hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest()
    assert digest == ENGINE_DIGESTS[name][2]


@pytest.mark.parametrize("name", ["neumann_censored_odd_horizon", "periodic"])
def test_ensemble_equals_trajectories_run_one_at_a_time(name):
    # batching invariance: a trajectory's passage time does not depend on
    # which others share its batch
    cfg = sim_config(**ENGINE_DIGESTS[name][0])
    est = estimate_mfpt(cfg)
    for i, t in enumerate(est.per_trajectory):
        assert t == run_to_transition(cfg, trajectory_rng(cfg.seed, i)), i


def test_engine_bytes_hold_with_concurrent_ensembles_and_fast_switching():
    # four ensembles at a time, one thread each, on a host of few cores,
    # with the interpreter switching threads every microsecond
    names = ["neumann_censored_odd_horizon", "periodic", "periodic_censored_mirror"] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(case_estimate, name) for name in names]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for name, est in zip(names, results):
        digest = hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest()
        assert digest == ENGINE_DIGESTS[name][2], name


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GB


def test_wide_ensemble_noise_buffers_stay_bounded():
    # 20000 periodic K = 16 trajectories over 200 steps: one noise block
    # of 512 steps, or two that span the horizon, would take 2.1-2.5 GiB,
    # past the child's address-space limit. The ensemble runs in the child
    # itself, as one shard: estimate_mfpt would split it among workers
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    script = textwrap.dedent(
        """
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams
        from kramers_gl.simulator import _run_shard

        params = SystemParams(L=7.0, eps=0.25, bc=BoundaryCondition.PERIODIC)
        cfg = SimConfig(params=params, K=16, t_max=0.2, n_traj=20000, seed=3)
        outcomes, blowups = _run_shard(cfg, 0, cfg.n_traj)
        print(outcomes.count(None) - len(blowups), "censored")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert "20000 censored" in proc.stdout


def test_ensemble_working_memory_stays_near_its_noise_budget():
    # one flat 2 MiB noise buffer and the small state and grid arrays take
    # about 2.66 MiB; a second noise buffer would pass 4.5
    params = SystemParams(L=2.0, eps=0.25, bc=NEU)
    # warm-up: numpy's and BLAS's first allocations happen outside tracemalloc
    run_to_transition(SimConfig(params=params, t_max=0.1), trajectory_rng(3, 0))
    cfg = SimConfig(params=params, K=16, t_max=20.0, n_traj=256, seed=3)
    tracemalloc.start()
    try:
        # in this process: estimate_mfpt would hand 256 trajectories to workers
        outcomes, _ = simulator._run_shard(cfg, 0, cfg.n_traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t is not None for t in outcomes) > 100  # compaction ran
    assert peak <= 3.5 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("budget", [1 << 9, 1 << 12])
def test_engine_bytes_hold_as_the_block_length_follows_the_active_count(
    monkeypatch, budget
):
    # small budgets make the block length change as trajectories stop
    monkeypatch.setattr(simulator, "_NOISE_BUDGET", budget)
    real = simulator._block_steps
    lengths = []  # per run, the block lengths not cut short by the horizon

    def spy(m, capacity, n_steps):
        bs = real(m, capacity, n_steps)
        if bs < n_steps:
            lengths[-1].add(bs)
        return bs

    monkeypatch.setattr(simulator, "_block_steps", spy)
    for name, (_, _, digest) in ENGINE_DIGESTS.items():
        lengths.append(set())
        est = case_estimate(name)
        assert hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest() == digest, name
    assert max(map(len, lengths)) >= 2, lengths


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    width=st.sampled_from([9, 17, 33, 65, 129]),
    n_steps=st.integers(1, 10**6),
    budget=st.sampled_from([1 << 9, 1 << 12, simulator._NOISE_BUDGET]),
)
def test_every_block_fits_the_buffers(n, width, n_steps, budget):
    # the buffer is sized once, for n trajectories: the budget's rows, but
    # 16 to 128 of each; every later block of m <= n rows takes the steps
    # it holds, and leaves less than a step's rows unused unless capped
    capacity = min(128 * n, max(budget // width, 16 * n))
    for m in range(1, n + 1):
        bs = simulator._block_steps(m, capacity, n_steps)
        assert 1 <= bs <= min(128, n_steps), m
        assert m * bs <= capacity, m
        assert m * bs > capacity - m or bs in (128, n_steps), m


def test_wide_ensemble_blocks_fill_their_buffer(monkeypatch):
    # 2000 trajectories outgrow the budget's 16-step share, so the buffer
    # is sized by the floor; as they stop, each block must take every step
    # the buffer holds for the rest, up to the cap or the horizon
    params = SystemParams(L=2.0, eps=0.5, bc=NEU)
    cfg = SimConfig(params=params, K=8, t_max=3.0, n_traj=2000, seed=1)
    n_steps = round(cfg.t_max / cfg.dt)
    blocks = []  # (m, steps, steps left, buffer rows)
    real = simulator._draw_noise

    def draw_noise(rngs, block, s):
        m, bs, _ = block.shape
        left = n_steps - sum(b[1] for b in blocks)
        blocks.append((m, bs, left, block.base.shape[0]))  # base: the flat buffer
        return real(rngs, block, s)

    monkeypatch.setattr(simulator, "_draw_noise", draw_noise)
    # in this process, where the spy is: estimate_mfpt would shard 2000
    outcomes, _ = simulator._run_shard(cfg, 0, cfg.n_traj)
    assert sum(t is not None for t in outcomes) > 400
    assert len({m for m, *_ in blocks}) > 10
    for m, bs, left, capacity in blocks:
        assert m * bs <= capacity
        assert m * bs > capacity - m or bs in (128, left), (m, bs, capacity)


class FailingRng:
    """Generator proxy whose third standard_normal call raises."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third draw failed")
        return self._rng.standard_normal(*args, **kwargs)


def test_noise_is_drawn_on_the_calling_thread(monkeypatch):
    threads = []
    real = simulator._draw_noise

    def draw_noise(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(simulator, "_draw_noise", draw_noise)
    cfg = SimConfig(params=quick_params(), K=8, dt=2e-3, t_max=8.0, n_traj=40, seed=2718)
    estimate_mfpt(cfg)
    assert len(threads) > 1
    assert set(threads) == {threading.get_ident()}


def test_noise_failure_reaches_caller_and_leaves_no_thread():
    baseline = threading.active_count()
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=2.0, seed=1)
    rng = FailingRng(trajectory_rng(1, 0))
    with pytest.raises(RuntimeError, match="third draw failed"):
        run_to_transition(cfg, rng)
    assert rng.calls == 3
    assert threading.active_count() == baseline


class NanRng:
    """Generator proxy that writes NaN into one mode of the draws of one step."""

    def __init__(self, rng, step_index, mode=0):
        self._rng = rng
        self._step_index = step_index
        self._mode = mode
        self._steps_drawn = 0

    def standard_normal(self, *, out):
        self._rng.standard_normal(out=out)  # out holds one block, (steps, width)
        j = self._step_index - self._steps_drawn
        if 0 <= j < len(out):
            out[j, self._mode] = math.nan
        self._steps_drawn += len(out)
        return out


def poison_trajectories(monkeypatch, poisoned, mode=0):
    """Make estimate_mfpt draw NaN into mode for trajectory i at step poisoned[i]."""
    real = simulator.trajectory_rng

    def rng_for(seed, index):
        rng = real(seed, index)
        return NanRng(rng, poisoned[index], mode) if index in poisoned else rng

    monkeypatch.setattr(simulator, "trajectory_rng", rng_for)


def test_blowup_reports_its_step():
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=2.0, seed=1)
    with pytest.raises(SimulationBlowUp) as info:
        run_to_transition(cfg, NanRng(trajectory_rng(1, 0), 300))
    assert (info.value.seed, info.value.trajectory_index) == (1, 0)
    assert info.value.step_index == 300


# a lone trajectory takes blocks of 128 steps: 127 ends the first, 128 starts
# the second, and 300 lies inside the third
@pytest.mark.parametrize("step", [0, 127, 128, 300])
def test_blowup_step_is_read_from_every_mode(step):
    # a NaN in mode 3 reached the spatial mean one step later, and one in
    # the last step of a block was reported at the next block's first step
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=2.0, seed=1)
    with pytest.raises(SimulationBlowUp) as info:
        run_to_transition(cfg, NanRng(trajectory_rng(1, 0), step, mode=3))
    assert info.value.step_index == step


@pytest.mark.parametrize(
    "mode, poisoned",
    [
        pytest.param(0, {2: 2300}, id="0"),
        pytest.param(3, {2: 2300}, id="3"),
        # two rows of the shared block buffer: each step is read from its own row
        pytest.param(0, {2: 2300, 4: 1001}, id="0-two"),
        pytest.param(3, {2: 2300, 4: 1001}, id="3-two"),
    ],
)
def test_blown_up_trajectory_is_dropped_from_the_ensemble(monkeypatch, mode, poisoned):
    cfg = SimConfig(params=quick_params(), K=8, n_traj=6, seed=5)
    clean = estimate_mfpt(cfg)
    assert clean.n_blowup == 0
    for i, step in poisoned.items():
        assert clean.per_trajectory[i] > step * cfg.dt
    poison_trajectories(monkeypatch, poisoned, mode)
    est = estimate_mfpt(cfg)
    assert est.n_blowup == len(poisoned)
    assert est.blowup_records == tuple(sorted(poisoned.items()))
    assert est.n_completed + est.n_censored == 6 - len(poisoned)
    for i, t in enumerate(est.per_trajectory):
        assert t == (None if i in poisoned else clean.per_trajectory[i])


def test_ensemble_of_blown_up_trajectories_is_unavailable(monkeypatch):
    cfg = SimConfig(params=quick_params(), K=8, n_traj=6, seed=5)
    poison_trajectories(monkeypatch, dict.fromkeys(range(6), 100))
    with pytest.raises(EstimateUnavailable, match="6 blown up"):
        estimate_mfpt(cfg)


@pytest.mark.parametrize("bc", [NEU, PER])
@pytest.mark.parametrize("L", [1e-200, 1e-320])
def test_length_beyond_double_range_is_refused_before_any_step(monkeypatch, bc, L):
    # 1e-200 overflowed and passed in 1-2 steps; 1e-320 blew up every trajectory
    def draw_noise(*args):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(simulator, "_draw_noise", draw_noise)
    cfg = SimConfig(params=SystemParams(L=L, eps=0.1, bc=bc), K=8, n_traj=4, t_max=1.0)
    with pytest.raises(ValueError, match=f"L = {L!r} is too short"):
        estimate_mfpt(cfg)
    with pytest.raises(ValueError, match=f"L = {L!r} is too short"):
        run_to_transition(cfg, trajectory_rng(1, 0))


# ---------------------------------------------------------------------------
# worker processes: contiguous trajectory shards, concatenated in index order
# ---------------------------------------------------------------------------


def test_shard_count_follows_the_usable_cpus_and_the_floor(monkeypatch):
    floor = simulator._SHARD_FLOOR
    # the affinity set, not the host's CPU count, where the OS has one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert [simulator._shard_count(n) for n in (1, 2 * floor - 1, 2 * floor)] == [1, 1, 2]
    assert simulator._shard_count(3 * floor + floor // 2) == 3
    assert simulator._shard_count(100 * floor) == 4
    # elsewhere the CPU count, and one CPU where that is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert simulator._shard_count(100 * floor) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulator._shard_count(100 * floor) == 1


def test_shard_reports_blowups_by_their_index_in_the_ensemble(monkeypatch):
    # shards are concatenated as they come, so each gives its trajectories'
    # indices in the whole ensemble
    cfg = SimConfig(params=quick_params(), K=8, n_traj=6, seed=5)
    clean = estimate_mfpt(cfg)
    poison_trajectories(monkeypatch, {2: 2300, 4: 1001})
    outcomes, blowups = simulator._run_shard(cfg, 2, 5)
    assert outcomes == [None, clean.per_trajectory[3], None]
    assert sorted(blowups) == [(2, 2300), (4, 1001)]


# 25 trajectories: no shard count of 2 or 3 divides them
SHARD_CASES = {
    "neumann": dict(L=2.0, eps=0.25, bc=NEU, K=8, dt=2e-3, t_max=500.0, n_traj=25, seed=4242),
    "periodic": dict(L=7.0, eps=0.5, bc=PER, K=8, dt=2e-3, t_max=300.0, n_traj=25, seed=99),
    "neumann_censored": dict(L=2.0, eps=0.25, bc=NEU, K=8, dt=2e-3, t_max=3.001, n_traj=25, seed=2718),
}


@pytest.mark.parametrize("name", sorted(SHARD_CASES))
def test_sharded_ensemble_equals_the_one_shard_run(monkeypatch, name):
    cfg = sim_config(**SHARD_CASES[name])
    one = estimate_mfpt(cfg)
    if name == "neumann_censored":
        assert one.n_censored > 15
    for shards in (2, 3):
        monkeypatch.setattr(simulator, "_shard_count", lambda n: shards)
        est = estimate_mfpt(cfg)
        assert est.per_trajectory == one.per_trajectory, shards
        assert est.blowup_records == one.blowup_records, shards
        assert est == one


def session_members(sid):
    """Pids of the processes in session sid, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
            except OSError:  # the process exited meanwhile
                continue
            if int(fields[3]) == sid:  # state, ppid, pgrp, session
                pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads sessions from /proc")
def test_workers_end_with_their_caller_and_their_errors_reach_it():
    # a sharded ensemble, then a shard whose worker raises, then exit; the
    # child leads its own session, so every process it started stays in it
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    script = textwrap.dedent(
        """
        import hashlib
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams, simulator

        simulator._shard_count = lambda n: 2
        neumann = BoundaryCondition.NEUMANN
        cfg = SimConfig(params=SystemParams(L=2.0, eps=0.25, bc=neumann), K=8, dt=2e-3,
                        t_max=500.0, n_traj=24, seed=4242)
        est = simulator.estimate_mfpt(cfg)
        print(hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest())
        short = SimConfig(params=SystemParams(L=1e-200, eps=0.1, bc=neumann), K=8,
                          t_max=1.0, n_traj=4)
        try:
            simulator.estimate_mfpt(short)
        except ValueError as exc:
            print(type(exc).__name__, exc)
        """
    )
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    digest, error = stdout.splitlines()
    assert digest == ENGINE_DIGESTS["neumann"][2]
    assert error.startswith("ValueError L = 1e-200 is too short")
    # the forkserver leaves once it reads its caller's exit
    deadline = time.monotonic() + 30.0
    while session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert session_members(proc.pid) == []


def _shards_in_a_daemonic_process(spec):
    import multiprocessing

    with multiprocessing.get_context("forkserver").Pool(1) as pool:  # daemonic workers
        task = pool.apply_async(simulator._evolve_sharded, (sim_config(**spec), 2))
        return task.get(timeout=300)


def _shards_in_a_thread(spec):
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(simulator._evolve_sharded, sim_config(**spec), 2).result(timeout=300)


@pytest.mark.parametrize("caller", [_shards_in_a_daemonic_process, _shards_in_a_thread])
def test_sharded_ensemble_bytes_hold_from_any_caller(caller):
    # a daemonic process may start no worker, so it runs the shards itself
    spec, _, digest = ENGINE_DIGESTS["neumann"]
    outcomes, blowups = caller(spec)
    assert hashlib.sha256(repr(tuple(outcomes)).encode()).hexdigest() == digest
    assert blowups == []


def run_child(script):
    """Run script in a fresh interpreter, without any BLAS thread setting."""
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    env = {k: v for k, v in os.environ.items() if k not in simulator._ONE_BLAS_THREAD}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(env, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_shard_workers_run_one_blas_thread():
    # w workers share the CPUs, so none starts a BLAS thread pool of its own.
    # The probe runs in a worker of the engine's forkserver: eval and
    # os.getenv are builtins, which a worker unpickles without importing
    # anything of the caller's
    threads, setting = run_child(
        """
        import multiprocessing, os
        from concurrent.futures import ProcessPoolExecutor
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams, simulator

        simulator._shard_count = lambda n: 2
        cfg = SimConfig(params=SystemParams(L=2.0, eps=0.25, bc=BoundaryCondition.NEUMANN),
                        K=8, dt=2e-3, t_max=50.0, n_traj=24, seed=1)
        simulator.estimate_mfpt(cfg)  # starts the forkserver
        probe = "__import__('numpy') and len(__import__('os').listdir('/proc/self/task'))"
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            print(pool.submit(eval, probe).result())
            print(pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result())
        """
    )
    assert (threads, setting) == ("1", "1")


def test_a_forkserver_started_by_other_code_gives_the_same_bytes():
    # it keeps its own preload and environment: only the speed may differ
    setting, digest = run_child(
        """
        import hashlib, multiprocessing, os
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import forkserver

        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["numpy"])
        forkserver.ensure_running()

        from kramers_gl import BoundaryCondition, SimConfig, SystemParams, simulator

        simulator._shard_count = lambda n: 2
        cfg = SimConfig(params=SystemParams(L=2.0, eps=0.25, bc=BoundaryCondition.NEUMANN),
                        K=8, dt=2e-3, t_max=500.0, n_traj=24, seed=4242)
        est = simulator.estimate_mfpt(cfg)
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            print(pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result())
        print(hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest())
        """
    )
    assert setting == "None"
    assert digest == ENGINE_DIGESTS["neumann"][2]


def test_sharded_call_leaves_the_environment_as_it_was(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    monkeypatch.setattr(simulator, "_shard_count", lambda n: 2)
    est = estimate_mfpt(sim_config(**ENGINE_DIGESTS["neumann"][0]))
    assert dict(os.environ) == before
    assert hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest() == ENGINE_DIGESTS["neumann"][2]


def test_one_shard_ensembles_load_no_process_pool():
    # the pool machinery stays out of the import and of ensembles under 128
    loaded = run_child(
        """
        import sys
        import kramers_gl.simulator as simulator
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams

        def pool_modules():
            return ",".join(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules)

        print("import:" + pool_modules())
        cfg = SimConfig(params=SystemParams(L=2.0, eps=0.5, bc=BoundaryCondition.NEUMANN),
                        K=8, dt=2e-3, t_max=3.0, n_traj=127, seed=1)
        assert simulator._shard_count(cfg.n_traj) == 1
        simulator.estimate_mfpt(cfg)
        print("ensemble:" + pool_modules())
        """
    )
    assert loaded == ["import:", "ensemble:"]


# ---------------------------------------------------------------------------
# ensemble statistics on the shared reference run (500 trajectories, about a
# minute; the robustness runs add 300 trajectories each): marked slow
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_passage_times_exponentially_distributed(mc_main_ensemble):
    _, est = mc_main_ensemble
    times = np.array([t for t in est.per_trajectory if t is not None])
    assert times.size >= 490
    ks = stats.kstest(times, "expon", args=(0.0, times.mean()))
    assert ks.pvalue > 0.01


@pytest.mark.slow
def test_resolution_robustness(mc_main_ensemble):
    _, base = mc_main_ensemble
    cfg = SimConfig(
        params=SystemParams(L=2.0, eps=0.12, bc=NEU),
        K=32,
        dt=1e-3,
        t_max=4000.0,
        n_traj=300,
        seed=31416,
    )
    other = estimate_mfpt(cfg)
    diff = abs(other.mean_passage_time - base.mean_passage_time)
    assert diff <= 2.0 * math.hypot(other.std_error, base.std_error)


@pytest.mark.slow
def test_time_step_robustness(mc_main_ensemble):
    _, base = mc_main_ensemble
    cfg = SimConfig(
        params=SystemParams(L=2.0, eps=0.12, bc=NEU),
        K=16,
        dt=5e-4,
        t_max=4000.0,
        n_traj=300,
        seed=27183,
    )
    other = estimate_mfpt(cfg)
    diff = abs(other.mean_passage_time - base.mean_passage_time)
    assert diff <= 2.0 * math.hypot(other.std_error, base.std_error)


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------


def test_trajectory_rngs_are_independent_substreams():
    a = trajectory_rng(123, 0).standard_normal(8)
    b = trajectory_rng(123, 1).standard_normal(8)
    a2 = trajectory_rng(123, 0).standard_normal(8)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, a2)


@pytest.mark.parametrize(
    "key",
    [(0, 0), (2**64 - 1, 2**64 - 1), (12345, 0), (1, 2**63), (2**40 + 3, 987654321987654321)],
)
def test_trajectory_rng_is_philox_keyed_by_seed_and_index(key):
    # the same state and draws as numpy's own keyed construction
    ours = trajectory_rng(*key)
    theirs = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    a, b = ours.bit_generator.state, theirs.bit_generator.state
    assert a["bit_generator"] == b["bit_generator"] == "Philox"
    for name in ("counter", "key"):
        np.testing.assert_array_equal(a["state"][name], b["state"][name])
    np.testing.assert_array_equal(a["buffer"], b["buffer"])
    assert (a["buffer_pos"], a["has_uint32"], a["uinteger"]) == (
        b["buffer_pos"], b["has_uint32"], b["uinteger"]
    )
    np.testing.assert_array_equal(ours.standard_normal(10**4), theirs.standard_normal(10**4))


def test_mfpt_estimate_validation():
    # every field follows from the outcomes and the blow-up records alone
    est = MfptEstimate((2.0, None, 4.0, None), blowup_records=((3, 7),))
    assert (est.n_completed, est.n_censored, est.n_blowup) == (2, 1, 1)
    assert (est.mean_passage_time, est.rate) == (3.0, 1.0 / 3.0)
    assert est.std_error == pytest.approx(1.0)
    assert est.rate_std_error == pytest.approx(1.0 / 9.0)
    assert est.rate_ci == pytest.approx((1.0 / 3.0 - 1.96 / 9.0, 1.0 / 3.0 + 1.96 / 9.0))
    assert est.per_trajectory == (2.0, None, 4.0, None)
    assert MfptEstimate([None, None, 1.0], [(1, 5), (0, 3)]).blowup_records == ((0, 3), (1, 5))
    one = MfptEstimate((2.0,))
    assert math.isnan(one.std_error) and math.isnan(one.rate_std_error)
    assert one == MfptEstimate((2.0,))
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            MfptEstimate((1.0, bad, None))
    with pytest.raises(EstimateUnavailable, match=r"\(1 censored, 1 blown up\)"):
        MfptEstimate((None, None), blowup_records=((1, 0),))
    with pytest.raises(TypeError):
        MfptEstimate((1.0,), mean_passage_time=1.0)
