"""Tests for the spectral Monte Carlo simulator.

Oracles: direct triple-sum convolutions for the cubic term, exact
Ornstein-Uhlenbeck statistics for the linear dynamics, closed-form fixed
points, pathwise mirror symmetry, and distributional checks on the
first-passage ensemble (Kolmogorov-Smirnov exponentiality, resolution and
time-step robustness at combined 2σ).
"""

import hashlib
import math
import os
import resource
import subprocess
import sys
import textwrap
import threading
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
    SpectralState,
    estimate_mfpt,
    mode_eigenvalues,
    nonlinear_term,
    run_to_transition,
    step,
    trajectory_rng,
)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN


def noise_width(bc, K):
    return 2 * K + 1 if bc is PER else K + 1


def zero_noise(bc, K):
    return np.zeros(noise_width(bc, K))


# ---------------------------------------------------------------------------
# state construction and validation
# ---------------------------------------------------------------------------


@given(c=st.floats(-2.0, 2.0), L=st.floats(0.5, 20.0))
def test_uniform_state_mean(c, L):
    for bc in (PER, NEU):
        state = SpectralState.uniform(SystemParams(L=L, eps=0.1, bc=bc), 8, c)
        assert state.spatial_mean() == pytest.approx(c, abs=1e-12)


def test_uniform_state_field_values():
    state = SpectralState.uniform(SystemParams(L=3.0, eps=0.1, bc=PER), 8, -0.75)
    _, vals = state.field_values(64)
    np.testing.assert_allclose(vals, -0.75, atol=1e-14)


def test_state_validation():
    p = SystemParams(L=2.0, eps=0.1, bc=PER)
    with pytest.raises(ValueError, match="shape"):
        SpectralState(np.zeros(5, complex), 0.0, p, 8)
    bad = np.zeros(9, complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SpectralState(bad, 0.0, p, 8)
    imag0 = np.zeros(9, complex)
    imag0[0] = 1.0j
    with pytest.raises(ValueError, match="mode 0"):
        SpectralState(imag0, 0.0, p, 8)


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
    with pytest.raises(ValueError, match=f"{name} must be {kind}, got True"):
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
    state = SpectralState(half, 0.0, SystemParams(L=3.0, eps=0.1, bc=PER), K)
    np.testing.assert_allclose(
        nonlinear_term(state), direct_cubic_periodic(half, 3.0, K), atol=1e-10
    )


@pytest.mark.parametrize("K", [6, 8])
def test_cubic_matches_direct_convolution_neumann(K):
    rng = np.random.default_rng(11 + K)
    a = rng.normal(size=K + 1)
    state = SpectralState(a, 0.0, SystemParams(L=1.7, eps=0.1, bc=NEU), K)
    np.testing.assert_allclose(
        nonlinear_term(state), direct_cubic_neumann(a, 1.7, K), atol=1e-10
    )


def test_cubic_uniform_field():
    # phi ≡ c: the only nonzero output is mode 0 with -c^3 sqrt(L)
    for bc in (PER, NEU):
        state = SpectralState.uniform(SystemParams(L=2.0, eps=0.1, bc=bc), 8, 0.7)
        N = nonlinear_term(state)
        assert np.real(N[0]) == pytest.approx(-(0.7**3) * math.sqrt(2.0), rel=1e-13)
        assert np.max(np.abs(N[1:])) < 1e-13


def test_cubic_single_mode_harmonics():
    # phi_1 only: cube populates exactly k=1 (3|p|^2 p) and k=3 (p^3)
    K, L = 8, 5.0
    p = 0.3 - 0.4j
    half = np.zeros(K + 1, complex)
    half[1] = p
    state = SpectralState(half, 0.0, SystemParams(L=L, eps=0.1, bc=PER), K)
    N = nonlinear_term(state)
    assert N[1] == pytest.approx(-3.0 * abs(p) ** 2 * p / L, rel=1e-12)
    assert N[3] == pytest.approx(-(p**3) / L, rel=1e-12)
    others = [k for k in range(K + 1) if k not in (1, 3)]
    assert np.max(np.abs(N[others])) < 1e-13


def test_cubic_zero_state():
    state = SpectralState.uniform(SystemParams(L=2.0, eps=0.1, bc=NEU), 8, 0.0)
    assert np.max(np.abs(nonlinear_term(state))) == 0.0


# ---------------------------------------------------------------------------
# stepping: exact linear propagation, fixed point, OU statistics
# ---------------------------------------------------------------------------


def test_exact_linear_propagation_single_mode():
    # zero noise draws realize the deterministic flow; cubic disabled
    params = SystemParams(L=2.0, eps=0.1, bc=PER)
    c0 = np.zeros(9, complex)
    c0[3] = 0.4 - 0.2j
    state = SpectralState(c0, 0.0, params, 8)
    z = zero_noise(PER, 8)
    for _ in range(1000):
        state = step(state, 1e-3, z, include_cubic=False)
    lam3 = mode_eigenvalues(2.0, PER, 8)[3]
    expect = (0.4 - 0.2j) * math.exp(-lam3 * 1.0)
    assert abs(state.coeffs[3] - expect) < 1e-12 * abs(expect)
    assert np.max(np.abs(np.delete(state.coeffs, 3))) == 0.0


def test_unstable_mode_grows_without_cubic():
    # lambda_0 = -1: the uniform mode grows as e^{t} under the linear flow
    params = SystemParams(L=2.0, eps=0.1, bc=NEU)
    state = SpectralState.uniform(params, 8, 0.01)
    z = zero_noise(NEU, 8)
    for _ in range(200):
        state = step(state, 1e-2, z, include_cubic=False)
    assert state.spatial_mean() == pytest.approx(0.01 * math.exp(2.0), rel=1e-12)


def test_fixed_point_phi_minus_one():
    # full dynamics, zero noise draws: phi ≡ -1 is stationary
    for bc in (PER, NEU):
        params = SystemParams(L=2.0, eps=0.1, bc=bc)
        state = SpectralState.uniform(params, 8, -1.0)
        z = zero_noise(bc, 8)
        for _ in range(2000):
            state = step(state, 1e-2, z)
        _, vals = state.field_values(65)
        assert np.max(np.abs(vals + 1.0)) < 1e-12


def test_ou_stationary_variance():
    # cubic disabled: each stable mode is an exact OU process with
    # stationary variance eps/lambda_k regardless of dt
    params = SystemParams(L=2.0, eps=0.08, bc=NEU)
    K, dt = 8, 0.25
    lam = mode_eigenvalues(2.0, NEU, K)
    rng = np.random.default_rng(42)
    n_traj, burn, keep = 64, 80, 720
    states = [SpectralState.uniform(params, K, 0.0) for _ in range(n_traj)]
    samples = []
    for i in range(burn + keep):
        states = [
            step(s, dt, rng.standard_normal(K + 1), include_cubic=False)
            for s in states
        ]
        if i >= burn:
            samples.append(np.stack([s.coeffs for s in states]))
    var = np.concatenate(samples).var(axis=0)
    for k in (1, 2, 3, 4):
        assert var[k] == pytest.approx(params.eps / lam[k], rel=0.05)


def test_step_noise_validation():
    params = SystemParams(L=2.0, eps=0.1, bc=NEU)
    state = SpectralState.uniform(params, 8, -1.0)
    with pytest.raises(ValueError, match="shape"):
        step(state, 1e-3, np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        step(state, 1e-3, np.full(9, np.nan))
    with pytest.raises(ValueError, match="dt"):
        step(state, -1e-3, np.zeros(9))


def test_step_blowup_raises():
    # explicit cubic with a huge amplitude and large dt overflows fast
    params = SystemParams(L=2.0, eps=0.1, bc=NEU)
    state = SpectralState.uniform(params, 8, 50.0)
    z = zero_noise(NEU, 8)
    with pytest.raises(SimulationBlowUp):
        for _ in range(50):
            state = step(state, 0.5, z)


def test_mirror_symmetry_of_one_step():
    # phi -> -phi with negated noise gives the exact mirror state
    params = SystemParams(L=2.0, eps=0.15, bc=PER)
    rng = np.random.default_rng(3)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    c[0] = c[0].real
    state = SpectralState(c, 0.0, params, 8)
    mirrored = SpectralState(-c, 0.0, params, 8)
    noise = rng.standard_normal(noise_width(PER, 8))
    out = step(state, 1e-2, noise)
    out_m = step(mirrored, 1e-2, -noise)
    np.testing.assert_array_equal(out.coeffs, -out_m.coeffs)


def test_reality_of_reconstructed_field():
    # periodic: rebuild the full spectrum from the half storage and check
    # the inverse transform is real at every step of a noisy run
    params = SystemParams(L=4.0, eps=0.2, bc=PER)
    K = 8
    state = SpectralState.uniform(params, K, -1.0)
    rng = trajectory_rng(77, 0)
    for _ in range(50):
        state = step(state, 5e-3, rng.standard_normal(noise_width(PER, K)))
        full = np.concatenate([state.coeffs, np.conj(state.coeffs[K:0:-1])])
        grid = np.fft.ifft(full) * (full.size / math.sqrt(params.L))
        assert np.max(np.abs(grid.imag)) < 1e-12


# ---------------------------------------------------------------------------
# first-passage runs
# ---------------------------------------------------------------------------


def quick_params(eps=0.25):
    return SystemParams(L=2.0, eps=eps, bc=NEU)


def test_run_to_transition_matches_manual_stepping():
    # the batched engine and the public step() must tell the same story
    cfg = SimConfig(params=quick_params(), K=8, dt=2e-3, t_max=500.0, seed=4242)
    engine_time = run_to_transition(cfg, trajectory_rng(cfg.seed, 0))

    rng = trajectory_rng(cfg.seed, 0)
    state = SpectralState.uniform(cfg.params, cfg.K, -1.0)
    width = noise_width(NEU, cfg.K)
    manual_time = None
    # the engine draws noise in (block, width) chunks; the stream yields
    # the same values drawn one step at a time
    for n in range(int(cfg.t_max / cfg.dt)):
        state = step(state, cfg.dt, rng.standard_normal(width))
        if state.spatial_mean() >= cfg.crossing_threshold:
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


def test_mirrored_ensemble_is_bit_identical():
    # phi -> -phi symmetry of the full experiment, exact by construction
    cfg = SimConfig(
        params=quick_params(), K=8, dt=2e-3, t_max=300.0, n_traj=25, seed=808
    )
    assert estimate_mfpt(cfg) == estimate_mfpt(cfg, _mirror=True)


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
# engine bytes, batching invariance, bounded noise buffers, the noise worker
# ---------------------------------------------------------------------------

# SHA-256 of repr(per_trajectory) for small seeded ensembles, recorded before
# the engine drew noise on a worker thread; any changed passage time changes
# the digest. The cases cover both boundary conditions, censoring, horizons
# that are no multiple of the block length (4001 steps, a prime, and 10001),
# the mirrored engine, and a lone trajectory.
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


@pytest.mark.parametrize("name", sorted(ENGINE_DIGESTS))
def test_engine_bytes_are_pinned(name):
    spec, mirror, digest = ENGINE_DIGESTS[name]
    est = estimate_mfpt(sim_config(**spec), _mirror=mirror)
    assert hashlib.sha256(repr(est.per_trajectory).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["neumann_censored_odd_horizon", "periodic"])
def test_ensemble_equals_trajectories_run_one_at_a_time(name):
    # batching invariance: a trajectory's passage time does not depend on
    # which others share its batch
    cfg = sim_config(**ENGINE_DIGESTS[name][0])
    est = estimate_mfpt(cfg)
    for i, t in enumerate(est.per_trajectory):
        assert t == run_to_transition(cfg, trajectory_rng(cfg.seed, i)), i


def test_engine_bytes_hold_with_concurrent_ensembles_and_fast_switching():
    # four ensembles at a time (eight threads with their noise workers) on a
    # host of few cores, with the interpreter switching threads every
    # microsecond
    names = ["neumann_censored_odd_horizon", "periodic", "periodic_censored_mirror"] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [
                pool.submit(
                    estimate_mfpt,
                    sim_config(**ENGINE_DIGESTS[name][0]),
                    _mirror=ENGINE_DIGESTS[name][1],
                )
                for name in names
            ]
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
    # past the child's address-space limit
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    script = textwrap.dedent(
        """
        from kramers_gl import BoundaryCondition, SimConfig, SystemParams, estimate_mfpt
        from kramers_gl.simulator import EstimateUnavailable

        params = SystemParams(L=7.0, eps=0.25, bc=BoundaryCondition.PERIODIC)
        cfg = SimConfig(params=params, K=16, t_max=0.2, n_traj=20000, seed=3)
        try:
            estimate_mfpt(cfg)
        except EstimateUnavailable as exc:
            print(exc)
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


def test_noise_failure_reaches_caller_and_leaves_no_thread():
    baseline = threading.active_count()
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=2.0, seed=1)
    rng = FailingRng(trajectory_rng(1, 0))
    with pytest.raises(RuntimeError, match="third draw failed"):
        run_to_transition(cfg, rng)
    assert rng.calls == 3
    assert threading.active_count() == baseline


class NanRng:
    """Generator proxy that writes NaN into mode 0 of the draws of one step."""

    def __init__(self, rng, step_index):
        self._rng = rng
        self._step_index = step_index
        self._steps_drawn = 0

    def standard_normal(self, *, out):
        self._rng.standard_normal(out=out)  # out holds one block, (steps, width)
        j = self._step_index - self._steps_drawn
        if 0 <= j < len(out):
            out[j, 0] = math.nan
        self._steps_drawn += len(out)
        return out


def poison_trajectories(monkeypatch, poisoned):
    """Make estimate_mfpt draw NaN for trajectory i at step poisoned[i]."""
    real = simulator.trajectory_rng

    def rng_for(seed, index):
        rng = real(seed, index)
        return NanRng(rng, poisoned[index]) if index in poisoned else rng

    monkeypatch.setattr(simulator, "trajectory_rng", rng_for)


def test_blowup_reports_its_step():
    cfg = SimConfig(params=quick_params(eps=1e-4), K=8, dt=1e-3, t_max=2.0, seed=1)
    with pytest.raises(SimulationBlowUp) as info:
        run_to_transition(cfg, NanRng(trajectory_rng(1, 0), 300))
    assert (info.value.seed, info.value.trajectory_index) == (1, 0)
    assert info.value.step_index == 300


def test_blown_up_trajectory_is_dropped_from_the_ensemble(monkeypatch):
    cfg = SimConfig(params=quick_params(), K=8, n_traj=6, seed=5)
    clean = estimate_mfpt(cfg)
    assert clean.n_blowup == 0 and clean.per_trajectory[2] > 2300 * cfg.dt
    poison_trajectories(monkeypatch, {2: 2300})
    est = estimate_mfpt(cfg)
    assert est.n_blowup == 1
    assert est.blowup_records == ((2, 2300),)
    assert est.per_trajectory[2] is None
    assert est.n_completed + est.n_censored == 5
    for i, t in enumerate(est.per_trajectory):
        if i != 2:
            assert t == clean.per_trajectory[i]


def test_ensemble_of_blown_up_trajectories_is_unavailable(monkeypatch):
    cfg = SimConfig(params=quick_params(), K=8, n_traj=6, seed=5)
    poison_trajectories(monkeypatch, dict.fromkeys(range(6), 100))
    with pytest.raises(EstimateUnavailable, match="6 blown up"):
        estimate_mfpt(cfg)


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


def test_mfpt_estimate_validation():
    with pytest.raises(ValueError):
        MfptEstimate(
            mean_passage_time=-1.0,
            std_error=0.1,
            n_completed=5,
            n_censored=0,
            n_blowup=0,
            rate=1.0,
            rate_std_error=0.1,
            rate_ci=(0.8, 1.2),
            per_trajectory=(1.0,) * 5,
        )
    with pytest.raises(ValueError):
        MfptEstimate(
            mean_passage_time=1.0,
            std_error=-0.1,
            n_completed=5,
            n_censored=0,
            n_blowup=0,
            rate=1.0,
            rate_std_error=0.1,
            rate_ci=(0.8, 1.2),
            per_trajectory=(1.0,) * 5,
        )
