"""Tests for the special-function layer.

Expected values are frozen from independent oracles (30-digit mpmath
evaluations, adaptive quadrature of integral representations, direct ODE
integration), never from the implementation itself.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from kramers_gl import specfun as sf

# mpmath oracle values, 30 digits, frozen
K_HALF = 1.8540746773013719184338503472
E_HALF = 1.35064388104767550252017473534
SN_1_HALF = 0.803001824895643887639397342819
K14_QUARTER = 1.63700880749519223628041146272
GAMMA_QUARTER = 3.62560990822190831193068515587


class TestEllipticK:
    def test_zero(self):
        assert sf.elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_half(self):
        assert sf.elliptic_K(0.5) == pytest.approx(K_HALF, rel=1e-12)

    def test_near_singular(self):
        k = sf.elliptic_K(0.99)
        assert k > 3.3
        assert math.isfinite(k)
        assert k == pytest.approx(3.69563736298987467780995419526, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 0.999, 200)
        vals = [sf.elliptic_K(m) for m in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            sf.elliptic_K(bad)


class TestEllipticE:
    def test_endpoints(self):
        assert sf.elliptic_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert sf.elliptic_E(1.0) == 1.0

    def test_half(self):
        assert sf.elliptic_E(0.5) == pytest.approx(E_HALF, rel=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 200)
        vals = [sf.elliptic_E(m) for m in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            sf.elliptic_E(bad)


def test_legendre_relation():
    # E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2
    for m in [0.1, 0.3, 0.5, 0.7, 0.9]:
        lhs = (
            sf.elliptic_E(m) * sf.elliptic_K(1 - m)
            + sf.elliptic_E(1 - m) * sf.elliptic_K(m)
            - sf.elliptic_K(m) * sf.elliptic_K(1 - m)
        )
        assert lhs == pytest.approx(math.pi / 2, abs=1e-10)


class TestJacobiSn:
    def test_zero_argument(self):
        for m in [0.0, 0.3, 0.7, 1.0]:
            assert sf.jacobi_sn(0.0, m) == 0.0

    def test_degenerate_modulus(self):
        for u in [-2.0, 0.4, 1.3, 7.7]:
            assert sf.jacobi_sn(u, 0.0) == pytest.approx(math.sin(u), abs=1e-14)
        for u in [-2.0, 0.4, 1.3]:
            assert sf.jacobi_sn(u, 1.0) == pytest.approx(math.tanh(u), abs=1e-14)
        # sn(u, 1) = tanh(u) saturates; cosh(u) overflows from |u| ~ 710 on
        for u in [711.0, -711.0, 1e6, -1e6]:
            assert sf.jacobi_sn(u, 1.0) == math.copysign(1.0, u)

    def test_against_pendulum_ode(self):
        # sn(u, m) = sin(phi(u)) where phi' = sqrt(1 - m sin^2 phi), phi(0)=0
        m = 0.5

        def rhs(_, phi):
            return math.sqrt(1.0 - m * math.sin(phi[0]) ** 2)

        sol = solve_ivp(rhs, (0.0, 1.0), [0.0], rtol=1e-12, atol=1e-14, dense_output=True)
        oracle = math.sin(sol.y[0, -1])
        assert sf.jacobi_sn(1.0, m) == pytest.approx(oracle, abs=1e-10)
        assert sf.jacobi_sn(1.0, m) == pytest.approx(SN_1_HALF, rel=1e-12)

    def test_quarter_period(self):
        for m in [0.1, 0.5, 0.9, 0.999]:
            assert sf.jacobi_sn(sf.elliptic_K(m), m) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_bulk_random(self):
        rng = np.random.default_rng(1234)
        u = rng.uniform(-40.0, 40.0, size=10_000)
        m = rng.uniform(0.0, 1.0, size=10_000)
        vals = np.array([sf.jacobi_sn(ui, mi) for ui, mi in zip(u, m)])
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    @given(
        u=st.floats(-30.0, 30.0, allow_nan=False),
        m=st.floats(0.0, 0.995, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_periodicity_property(self, u, m):
        period = 4.0 * sf.elliptic_K(m)
        a = sf.jacobi_sn(u, m)
        b = sf.jacobi_sn(u + period, m)
        assert abs(a) <= 1.0 + 1e-12
        assert b == pytest.approx(a, abs=2e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.jacobi_sn(1.0, -0.5)
        with pytest.raises(ValueError):
            sf.jacobi_sn(math.nan, 0.5)

    def test_infinite_argument_only_where_sn_has_a_limit(self):
        # at m = 1, sn = tanh has the limits +-1; below it, math.remainder
        # ended in "math domain error", and at m = 0 math.sin did
        assert sf.jacobi_sn(math.inf, 1.0) == 1.0
        assert sf.jacobi_sn(-math.inf, 1.0) == -1.0
        for m in (0.0, 0.5, 1.0 - 1e-12):
            for u in (math.inf, -math.inf):
                with pytest.raises(ValueError, match=r"^u must be a number in \(-inf, inf\)"):
                    sf.jacobi_sn(u, m)


# The elliptic layer and what is built from it, pinned bit for bit: the
# SHA-256 of repr() of each list below; a rate is pinned by its field
# values in slot order, not by its repr text. Any change to the AGM, the sn
# descent or their callers that moves one ulp shows here.
PIN_M = [0.0, 5e-324, 1e-300, 1e-20, 1e-16, 1e-9, 0.5, 1.0 - 1e-12]
PIN_U = [0.0, 1e-101, -1e-101, 0.3, -2.0, 7.5, 1e3, 1e6]
ELLIPTIC_DIGESTS = {
    "K": "ee68c8a2d8c513d6dd003a3d5918c918324c97c5e3ab6ec076f25f7c68bf14d7",
    "E": "16e36dc125154b4037103247906597aa2aa94ad44b477df57fd6ceae1ea8246c",
    "sn": "ce741747032e3f034faabb68e66ce61150f3f84e9b088055c7412bb845ab4a13",
    "profiles": "27f82ec5abeed7030781088015737684ed45dd508c79ba45981c73ede4ff317e",
    "rates": "b6816bd0916d6fd3d60949c903fae99c88c739a1ec892bf391e5d48a3d684655",
}


def _pinned_values(name):
    from kramers_gl.instanton import instanton_profile
    from kramers_gl.rates import RateBreakdown, prefactor_corrected

    if name == "K":
        return [sf.elliptic_K(m) for m in PIN_M]
    if name == "E":
        return [sf.elliptic_E(m) for m in PIN_M + [1.0]]
    if name == "sn":
        return [
            sf.jacobi_sn(u, m)
            for m in PIN_M + [1.0]
            for u in PIN_U
            if not (m == 1.0 and abs(u) > 710.0)
        ]
    if name == "profiles":
        return [
            instanton_profile(4.0, "neumann", n_x=257).tolist(),
            instanton_profile(9.0, "periodic", n_x=256).tolist(),
        ]
    points = [(2.0, "neumann"), (4.0, "neumann"), (5.0, "periodic"), (9.0, "periodic")]
    return [
        tuple(getattr(rb, f) for f in RateBreakdown.__slots__)
        for rb in (prefactor_corrected(L, 0.05, bc) for L, bc in points)
    ]


@pytest.mark.parametrize("name", sorted(ELLIPTIC_DIGESTS))
def test_elliptic_layer_is_pinned(name):
    import hashlib

    digest = hashlib.sha256(repr(_pinned_values(name)).encode()).hexdigest()
    assert digest == ELLIPTIC_DIGESTS[name]


def test_each_modulus_runs_one_agm(monkeypatch):
    from kramers_gl.instanton import instanton_profile, solve_m_from_L
    from kramers_gl.rates import prefactor_corrected

    runs = []
    agm = sf._agm

    def counted(*args):
        runs.append(args[0])
        return agm(*args)

    def count(call):
        runs.clear()
        call()
        return len(runs)

    monkeypatch.setattr(sf, "_agm", counted)
    assert count(lambda: sf.jacobi_sn(0.3, 0.5)) == 1
    for L, bc in [(4.0, "neumann"), (9.0, "periodic")]:
        # the modulus solve, then one (K, E) pair that deltaW and the
        # determinant combination share
        solve = count(lambda: solve_m_from_L(L, bc))
        row = count(lambda: prefactor_corrected(L, 0.05, bc))
        assert row == solve + 1
        assert row <= 61
        # one AGM per profile after the solve, not one per sample
        short = count(lambda: instanton_profile(L, bc, n_x=16))
        assert short == solve + 1
        assert count(lambda: instanton_profile(L, bc, n_x=512)) == short


class TestBesselK14:
    def test_small_argument_limit(self):
        # z^(1/4) K14(z) -> (Gamma(1/4)/2) 2^(1/4); correction is O(sqrt(z))
        limit = 2.15580054954092794493875546588
        assert 1e-8 ** 0.25 * sf.bessel_K14(1e-8) == pytest.approx(limit, rel=5e-4)
        assert 1e-12 ** 0.25 * sf.bessel_K14(1e-12) == pytest.approx(limit, rel=5e-6)

    def test_leading_asymptotics(self):
        val = sf.bessel_K14(10.0) * math.exp(10.0) * math.sqrt(20.0 / math.pi)
        assert val == pytest.approx(1.0, rel=1e-2)

    def test_integral_representation(self):
        # K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt
        for z in [0.25, 1.0, 2.0, 3.5]:
            oracle, err = quad(
                lambda t: math.exp(-z * math.cosh(t)) * math.cosh(0.25 * t),
                0.0,
                60.0,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )
            assert sf.bessel_K14(z) == pytest.approx(oracle, rel=1e-9)
        assert sf.bessel_K14(0.25) == pytest.approx(K14_QUARTER, rel=1e-12)

    def test_positive_decreasing(self):
        zs = np.geomspace(1e-6, 50.0, 80)
        vals = [sf.bessel_K14(z) for z in zs]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scaled_consistency(self):
        for z in [0.5, 2.0, 30.0]:
            assert sf.bessel_K14(z, scaled=True) == pytest.approx(
                sf.bessel_K14(z) * math.exp(z), rel=1e-13
            )

    def test_domain(self):
        for bad in [0.0, -1.0, math.nan]:
            with pytest.raises(ValueError):
                sf.bessel_K14(bad)

    # CF2's b = 2(1 + z) overflowed from z = 2^1023 on, and both forms
    # returned NaN there and at z = inf; just below, CF2 already gives
    # exactly its leading term sqrt(pi/(2z))
    @pytest.mark.parametrize("z", [8.9e307, 9e307, sys.float_info.max, math.inf])
    def test_largest_arguments_reach_their_limits(self, z):
        assert sf.bessel_K14(z, scaled=True) == math.sqrt(0.5 * math.pi / z)
        assert sf.bessel_K14(z) == 0.0

    # CF2 gave one ulp more than the leading term at these two arguments,
    # where its d = 1/b is subnormal; the mpmath values are the leading term
    @pytest.mark.parametrize(
        "z, oracle",
        [
            (6.304983172568007e307, 1.578403272279465e-154),
            (5.997505368630224e307, 1.6183580626728504e-154),
        ],
    )
    def test_scaled_value_near_the_overflow(self, z, oracle):
        assert sf.bessel_K14(z, scaled=True) == oracle

    def test_leading_term_from_1e17_on(self):
        # the first correction, -3/(32z), is below 1e-18 relative there;
        # CF2 agrees to an ulp wherever it runs
        rng = np.random.default_rng(17)
        for z in np.exp(rng.uniform(math.log(1e17), 1023 * math.log(2), 2000)).tolist():
            leading = math.sqrt(0.5 * math.pi / z)
            assert sf.bessel_K14(z, scaled=True) == leading, z
            assert sf._cf2_k_scaled(z) == pytest.approx(leading, rel=2.3e-16, abs=0.0), z


class TestBesselI14:
    def test_small_argument_limit(self):
        # I_(-1/4)(z) (z/2)^(1/4) -> 1/Gamma(3/4)
        z = 1e-8
        val = sf.bessel_I14(-0.25, z) * (z / 2.0) ** 0.25
        assert val == pytest.approx(0.816048939098262981077085947351, rel=1e-12)

    def test_wronskian(self):
        # I_nu(z) K'_nu(z) - I'_nu(z) K_nu(z) = -1/z at z=1
        z, h = 1.0, 1e-5

        def deriv(f):
            # fourth-order central difference
            return (
                f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)
            ) / (12 * h)

        kp = deriv(sf.bessel_K14)
        ip = deriv(lambda x: sf.bessel_I14(0.25, x))
        w = sf.bessel_I14(0.25, z) * kp - ip * sf.bessel_K14(z)
        assert w == pytest.approx(-1.0, abs=1e-9)

    def test_large_argument_sum(self):
        # leading asymptotics; the true 1/(8z) correction is 2.15% at z=5
        z = 5.0
        s = sf.bessel_I14(-0.25, z) + sf.bessel_I14(0.25, z)
        val = math.exp(-z) * s * math.sqrt(2 * math.pi * z) / 2.0
        assert val == pytest.approx(1.0, rel=2.5e-2)
        z = 20.0
        s = sf.bessel_I14(-0.25, z, scaled=True) + sf.bessel_I14(0.25, z, scaled=True)
        assert s * math.sqrt(2 * math.pi * z) / 2.0 == pytest.approx(1.0, rel=6e-3)

    def test_positive_increasing(self):
        # I_(1/4) increases everywhere; I_(-1/4) diverges like z^(-1/4)
        # at 0+ (its own small-z limit), so monotonicity starts past its dip
        zs = np.geomspace(1e-6, 50.0, 80)
        for order in (0.25, -0.25):
            vals = [sf.bessel_I14(order, z) for z in zs]
            assert all(v > 0 for v in vals)
        plus = [sf.bessel_I14(0.25, z) for z in zs]
        assert all(b > a for a, b in zip(plus, plus[1:]))
        zs_right = np.linspace(1.0, 50.0, 80)
        minus = [sf.bessel_I14(-0.25, z) for z in zs_right]
        assert all(b > a for a, b in zip(minus, minus[1:]))
        small = [sf.bessel_I14(-0.25, z) for z in np.geomspace(1e-8, 1e-3, 20)]
        assert all(b < a for a, b in zip(small, small[1:]))

    @pytest.mark.parametrize("order", [0.25, -0.25])
    def test_matches_scipy_ive_across_regimes(self, order):
        # the grid crosses both regime boundaries, z = 2 and z = 80; scipy's
        # ive is within 3.7e-14 of 40-digit mpmath on it
        from scipy.special import ive

        for z in np.geomspace(1e-3, 700.0, 301):
            assert sf.bessel_I14(order, z, scaled=True) == pytest.approx(
                ive(order, z), rel=1e-13
            )

    def test_scaled_consistency(self):
        for z in [0.5, 2.0, 30.0, 200.0]:
            for order in (0.25, -0.25):
                assert sf.bessel_I14(order, z, scaled=True) == pytest.approx(
                    sf.bessel_I14(order, z) * math.exp(-z), rel=1e-12
                )

    # math.exp(z) raised OverflowError from z = 709.78 on, where I(z) is
    # still a finite double, and z = inf gave NaN
    @pytest.mark.parametrize("order", [0.25, -0.25])
    def test_unscaled_value_is_finite_until_it_overflows_to_inf(self, order):
        from scipy.special import iv

        for z in (709.0, 711.0, 713.5):
            assert sf.bessel_I14(order, z) == pytest.approx(iv(order, z), rel=1e-12)
        for z in (714.0, 800.0, math.inf):
            assert sf.bessel_I14(order, z) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.bessel_I14(0.5, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_I14(0.25, -1.0)


class TestErf:
    def test_erfcx_matches_product(self):
        for x in [0.0, 0.3, 2.0, 10.0, 24.0]:
            assert sf.erfcx(x) == pytest.approx(
                math.exp(x * x) * math.erfc(x), rel=1e-12
            )

    def test_erfcx_large(self):
        # asymptotic branch against the leading 1/(x sqrt(pi)) behavior
        for x in [30.0, 100.0, 1e4]:
            lead = 1.0 / (x * math.sqrt(math.pi))
            assert sf.erfcx(x) == pytest.approx(lead * (1 - 1 / (2 * x * x)), rel=1e-5)


def test_quartic_integral_identity():
    # int_0^inf exp(-q x^2 - p x^4) dx
    #   = (1/4) sqrt(q/p) exp(q^2/8p) K14(q^2/8p)
    for q in [0.5, 1.0, 2.0]:
        for p in [0.25, 1.0, 4.0]:
            oracle, _ = quad(
                lambda x: math.exp(-q * x * x - p * x**4),
                0.0,
                math.inf,
                epsabs=1e-14,
                epsrel=1e-12,
            )
            z = q * q / (8.0 * p)
            closed = 0.25 * math.sqrt(q / p) * math.exp(z) * sf.bessel_K14(z)
            assert closed == pytest.approx(oracle, rel=1e-8)


def test_double_well_integral_identity():
    # int_0^inf exp(2 nu x^2 - mu x^4) dx
    #   = (pi/4) sqrt(nu/mu) exp(nu^2/2mu) [I_(-1/4) + I_(1/4)](nu^2/2mu)
    for nu in [0.5, 1.0, 2.0]:
        for mu in [0.25, 1.0, 4.0]:
            oracle, _ = quad(
                lambda x: math.exp(2 * nu * x * x - mu * x**4),
                0.0,
                math.inf,
                epsabs=1e-14,
                epsrel=1e-12,
            )
            z = nu * nu / (2.0 * mu)
            closed = (
                0.25
                * math.pi
                * math.sqrt(nu / mu)
                * math.exp(z)
                * (sf.bessel_I14(-0.25, z) + sf.bessel_I14(0.25, z))
            )
            assert closed == pytest.approx(oracle, rel=1e-8)
