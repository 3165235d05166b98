"""Self-contained double-precision special functions.

Complete elliptic integrals K(m), E(m) and Jacobi sn from one AGM
(arithmetic-geometric mean) sequence, which sn descends by Landen
transformations; modified Bessel functions of orders +-1/4 (K by Temme's
series for small argument and Steed's continued fraction CF2 for large; I by
its power series up to z = 80 and its asymptotic series beyond), and the
scaled complementary error function. A value beyond double range is inf,
never an OverflowError: the unscaled I(z) is inf from z = 714 on.

All functions are pure and reentrant. Every public argument goes through
_real or _count, which refuse a bool, a str, NaN and a value outside the
function's domain with ValueError; Python and numpy numbers pass alike.
"""

from __future__ import annotations

import math

_EPS = 2.2e-16
_MAXIT = 400
_NU = 0.25  # Bessel order used throughout
_BOOLS = ("bool", "bool_")  # type names of Python's bool and numpy's (bool_ in 1.x)


def _scalar(x) -> bool:
    """x is no bool and no array of one or more dimensions."""
    return type(x).__name__ not in _BOOLS and not getattr(x, "ndim", 0)


def _real(name: str, x, lo=-math.inf, hi=math.inf, ends="()") -> float:
    """x as a float in the interval from lo to hi, each end open or closed
    as ends reads: "[)" is lo <= x < hi. By default the finite numbers.

    Python and numpy numbers pass. A bool, a str, an array, NaN or a value
    outside raises ValueError naming the argument, the interval and the value.
    """
    value = x
    if type(x) is not float:
        try:
            value = float(x) if _scalar(x) and hasattr(x, "__float__") else math.nan
        except OverflowError:  # an integer beyond double range
            value = math.nan
    if lo < value < hi or (value == lo and ends[0] == "[") or (
        value == hi and ends[1] == "]"
    ):
        return value
    interval = f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValueError(f"{name} must be a number in {interval}, got {x!r}")


def _count(name: str, n, lo: int, hi: float = math.inf) -> int:
    """n as an int in [lo, hi]: Python and numpy integers pass; a bool, a
    float, a str or an array raises ValueError naming the argument, range
    and value."""
    if _scalar(n) and hasattr(n, "__index__"):
        value = n.__index__()
        if lo <= value <= hi:
            return value
    high = f"{hi}]" if hi < math.inf else "inf)"
    raise ValueError(f"{name} must be an integer in [{lo}, {high}, got {n!r}")


def _agm(m: float, means: list | None = None):
    """The AGM of a_0 = 1 and b_0 = sqrt(1 - m): the one loop K, E and sn read.

    Returns a_N and sum 2^(n-1) c_n^2, where c_0 = sqrt(m) and c_(n+1) =
    (a_n - b_n)/2, and appends every (a_n, b_n) to means if given. It stops
    once c_n <= 2.2e-16 a_n: at most 9 steps for any double m < 1.
    """
    a, b = 1.0, math.sqrt(1.0 - m)
    c = math.sqrt(m)
    csum = 0.5 * c * c
    pow2 = 0.5
    while abs(c) > _EPS * a:
        if means is not None:
            means.append((a, b))
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    if means is not None:
        means.append((a, b))
    return a, csum


def _elliptic_KE(m: float):
    """(K(m), E(m)) from one AGM, for 0 < m < 1 already checked."""
    a, csum = _agm(m)
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - csum)


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = int_0^(pi/2) dt / sqrt(1 - m sin^2 t), for 0 <= m < 1.
    """
    m = _real("m", m, 0.0, 1.0, "[)")
    return math.pi / (2.0 * _agm(m)[0])


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter convention.

    E(m) = int_0^(pi/2) sqrt(1 - m sin^2 t) dt, for 0 <= m <= 1.
    """
    m = _real("m", m, 0.0, 1.0, "[]")
    if m == 1.0:
        return 1.0
    return _elliptic_KE(m)[1]


def _sn_levels(m: float):
    """The period 4K(m) and the AGM levels sn descends over, for 0 < m < 1.

    The levels are the pairs (a_n, b_n) up to the first with
    |a_n - b_n| <= 1e-8 a_n, last first. The stopping error enters sn
    squared, so 1e-8 yields full double precision.
    """
    means = []
    a, _ = _agm(m, means)
    for n, (a_n, b_n) in enumerate(means):
        if abs(a_n - b_n) <= 1e-8 * a_n:
            break
    return 4.0 * (math.pi / (2.0 * a)), means[n::-1]


def _sn(u: float, levels) -> float:
    """sn(u, m) by descending Landen transformations over _sn_levels(m)[1]."""
    if abs(u) < 1e-100:
        # sn = u + O(u^3): the cubic term is below double precision here,
        # and the descent would overflow in the cn/sn ratio
        return u
    a_n, b_n = levels[0]
    c = 0.5 * (a_n + b_n)
    u = c * u
    sn = math.sin(u)  # nonzero: 0 < |u| here and u is no multiple of pi
    a = math.cos(u) / sn
    c = a * c
    dn = 1.0
    for a_n, b_n in levels:
        a = c * a
        c = dn * c
        dn = (b_n + a) / (a_n + a)
        a = c / a_n
    return math.copysign(1.0 / math.sqrt(c * c + 1.0), sn)


def jacobi_sn(u: float, m: float) -> float:
    """Jacobi elliptic sine sn(u, m), parameter convention, 0 <= m <= 1.

    u = +-inf is taken at m = 1 only, where sn = tanh has the limits +-1.
    """
    m = _real("m", m, 0.0, 1.0, "[]")
    if m == 1.0:
        return math.tanh(_real("u", u, -math.inf, math.inf, "[]"))
    u = _real("u", u)
    if m == 0.0:
        return math.sin(u)
    # reduce modulo the period 4K so sn(u + 4K) == sn(u) holds exactly
    period, levels = _sn_levels(m)
    return _sn(math.remainder(u, period), levels)


# ---------------------------------------------------------------------------
# Modified Bessel functions of orders +-1/4.
#
# K_nu: Temme's series for z <= 2 and Steed's continued fraction CF2
# (exponentially scaled) above. I_(+-nu): the power series for z <= 80 and
# the large-argument asymptotic series above. For nu = +-1/4 every term of
# the power series is positive, so it sums without cancellation at any z.
# The tests check both crossovers against quadrature and scipy oracles.
# ---------------------------------------------------------------------------

_BESSEL_CROSSOVER = 2.0
# The power series takes more terms as z grows (82 at z = 80); from z = 80
# on, the asymptotic series' smallest term is far below 1e-16.
_I_SERIES_LIMIT = 80.0
# From z = 1e17 on, e^z K_(1/4)(z) is its leading term sqrt(pi/(2z)) to
# rounding: the first correction, -3/(32z), is below 1e-18 relative. CF2
# would run there too, but near 2^1023 its d = 1/b is subnormal and costs
# an ulp, and from 2^1023 on b = 2(1 + z) overflows.
_K_LEADING_TERM_FROM = 1e17
# math.exp(z) overflows from z = 709.78 on; I_(+-1/4)(z) only from z = 713.95.
_EXP_LIMIT = 709.0


def _temme_k(x: float) -> float:
    """K_nu(x) for nu=1/4, 0 < x <= 2, via Temme's series."""
    nu = _NU
    gampl = 1.0 / math.gamma(1.0 + nu)
    gammi = 1.0 / math.gamma(1.0 - nu)
    gam1 = (gammi - gampl) / (2.0 * nu)
    gam2 = 0.5 * (gammi + gampl)
    x2 = 0.5 * x
    pimu = math.pi * nu
    fact = pimu / math.sin(pimu)
    d = -math.log(x2)
    e = nu * d
    fact2 = math.sinh(e) / e if abs(e) > 1e-10 else 1.0 + e * e / 6.0
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    ksum = ff
    e = math.exp(e)
    p = 0.5 * e / gampl
    q = 0.5 / (e * gammi)
    c = 1.0
    d = x2 * x2
    for i in range(1, _MAXIT):
        ff = (i * ff + p + q) / (i * i - nu * nu)
        c *= d / i
        p /= i - nu
        q /= i + nu
        delta = c * ff
        ksum += delta
        if abs(delta) < abs(ksum) * _EPS:
            break
    return ksum


def _cf2_k_scaled(x: float) -> float:
    """e^x K_nu(x) for nu=1/4, x > 2, via Steed's CF2."""
    nu = _NU
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - nu * nu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAXIT):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    return math.sqrt(math.pi / (2.0 * x)) / s


def _i_asymptotic_scaled(x: float) -> float:
    """e^(-x) I_nu(x) for nu = +-1/4 via the large-x asymptotic series.

    The series depends on nu only through mu = 4 nu^2, identical for the
    two orders. They differ by (sqrt 2/pi) K_nu(x), a share of about
    sqrt(2) e^(-2x) that double precision does not hold for x > 80. The
    smallest term is far below 1e-16 for x >= 80.
    """
    mu = 4.0 * _NU * _NU
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        total += term
        if abs(term) < 1e-17 * total:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def _i_series(nu: float, x: float) -> float:
    """Power series for I_nu(x), nu > -1: about 12 terms at x = 2, 82 at 80.

    Every term is positive, so the sum has no cancellation at any x.
    """
    term = (0.5 * x) ** nu / math.gamma(1.0 + nu)
    total = term
    x24 = 0.25 * x * x
    for j in range(1, _MAXIT):
        term *= x24 / (j * (nu + j))
        total += term
        if term < total * _EPS:
            break
    return total


def bessel_K14(z: float, scaled: bool = False) -> float:
    """Modified Bessel function K_(1/4)(z) for z > 0.

    With scaled=True returns e^z K_(1/4)(z), which stays representable
    for arbitrarily large z; at z = inf both forms return their limit 0.
    """
    z = _real("z", z, 0.0, math.inf, "(]")
    if z <= _BESSEL_CROSSOVER:
        k = _temme_k(z)
        return k * math.exp(z) if scaled else k
    if z < _K_LEADING_TERM_FROM:
        k_scaled = _cf2_k_scaled(z)
    else:
        k_scaled = math.sqrt(0.5 * math.pi / z)
    return k_scaled if scaled else k_scaled * math.exp(-z)


def bessel_I14(order: float, z: float, scaled: bool = False) -> float:
    """Modified Bessel function I_order(z) for order in {-1/4, +1/4}, z > 0.

    With scaled=True returns e^(-z) I_order(z), representable for
    arbitrarily large z. Unscaled, it is inf where I_order(z) exceeds the
    largest double (from z = 714 on) and at z = inf.
    """
    nu = _real("order", order)
    if nu not in (0.25, -0.25):
        raise ValueError(f"order must be +1/4 or -1/4, got {order!r}")
    z = _real("z", z, 0.0, math.inf, "(]")
    if z <= _I_SERIES_LIMIT:
        i = _i_series(nu, z)
        return i * math.exp(-z) if scaled else i
    i_scaled = _i_asymptotic_scaled(z)
    if z > _EXP_LIMIT and not scaled:  # e^z overflows: a product beyond range is inf
        half = math.exp(0.5 * min(z, 2.0 * _EXP_LIMIT))
        return i_scaled * half * half if z < math.inf else math.inf
    return i_scaled if scaled else i_scaled * math.exp(z)


def erfcx(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x) for x >= 0.

    Direct product below x=25 (both factors representable there), continued
    via the asymptotic series 1/(x sqrt(pi)) sum (-1)^n (2n-1)!!/(2x^2)^n
    beyond, where the series truncates below 1e-16.
    """
    x = _real("x", x, 0.0, math.inf, "[]")
    if x < 25.0:
        return math.exp(x * x) * math.erfc(x)
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0
    total = 1.0
    for n in range(1, 40):  # terms shrink by (2n-1)/(2x^2) < 1/15 here
        term = -term * (2 * n - 1) * inv2x2
        total += term
        if abs(term) < 1e-17 * total:
            break
    return total / (x * math.sqrt(math.pi))
