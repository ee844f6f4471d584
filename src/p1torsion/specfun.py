"""Special-function values consumed by the torsion formulas.

Provides exact Bernoulli numbers and zeta values at non-positive integers,
high-precision zeta derivatives there, Hurwitz zeta values (many integer s
in one pass) and the Stieltjes constant gamma_1(a), the Lerch zeta function
and its s-derivative at negative integers, the sine and cosine integrals,
the value of the rotation-equivariant R^rot(t), and the (non-equivariant)
R-class series.

The Lerch continuation runs through Hurwitz's formula

    zeta_L(s, phi) = (2pi)^s Gamma(1-s)/(2 pi i)
                     * [e^{i pi s/2} zeta(1-s, 1-a) - e^{-i pi s/2} zeta(1-s, a)]

with a = phi/(2 pi), and the Hurwitz zeta function (plus its analytic
s-derivative) is computed by Euler-Maclaurin summation in-house so the
continuation path is independent of the closed-form path.

The numeric series sum in fixed point: Python integers with scale 2^bits,
bits = numerics.fixed_bits() at the working precision.  Tables, bounds and
stops:

  * hurwitz_zeta_values and stieltjes_gamma1, one Euler-Maclaurin pass
    (_em_terms): the weights (-1)^{i+1} 2 zeta(2i) (_em_weights) live in
    the numerics.fixed_table registry under "euler_maclaurin", one table
    per working precision, built at bits + 10 as entries are first needed.
    With X = a + M, the remainder after J corrections is below
    4 X (s)_{2J-1}/(2 pi X)^{2J} for zeta(s, a), and below
    4 (2J-1)! (log X + H_{2J} + 1/(2J))/(2 pi X)^{2J} for gamma_1(a), the
    s = 1 column with the weight log X - H_{2i-1}.  Each stops at the first J
    whose bound meets 10^-wdps, wdps the working digits (relative to
    X^{1-s}/(s-1) for zeta, absolute for gamma_1).  The shift M is the
    least one at which every s can get there (_em_shift, by bisection, J
    about pi X); gamma_1 takes the shift of zeta(2, a), whose bound is the
    larger.
  * r_rot_value: states its weights w_m = (-1)^{(m+1)/2} zeta'(-m)
    (2 pi)^m/m!, built from the cached zeta_prime_neg values;
    numerics.odd_series keeps them in its table registry and sums them, to
    the count numerics.odd_series_terms fixes before the sum from
    |w_m| <= 2 zeta(m+1)(log(m+1) + 2.5)/(2 pi), where the dropped terms
    fall below 10^-wdps u.  t is first reduced into (0, pi] by
    R^rot(-t) = R^rot(2 pi - t) = -R^rot(t), so u <= 1/2.
  * si, ci: below _sici_crossover(dps) = 2.4 dps + 10, the Taylor series
    at wdps + 0.45 x digits (_sici_taylor), stopped after both terms fall
    below 10^-(wdps + 0.45 x); above it the asymptotic expansions, cut at
    their least term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .numerics import (ConstExpr, fixed_bits, fixed_table, guarded, harmonic,
                       least_index, odd_series, odd_series_terms)
from .series import DEFAULT_ORDER, LaurentSeries


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta at non-positive integers (exact)
# ---------------------------------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """B_n (with B_1 = -1/2), exact, by the defining recurrence."""
    if n < 0:
        raise ValueError("bernoulli needs n >= 0")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * _bernoulli_cache[j]
            binom = binom * (m + 1 - j) // (j + 1)
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def zeta_neg(m: int) -> Fraction:
    """zeta(-m) = -B_{m+1}/(m+1) for integer m >= 0."""
    if m < 0:
        raise ValueError("zeta_neg needs m >= 0")
    return -bernoulli(m + 1) / (m + 1)


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin, with analytic s-derivative
# ---------------------------------------------------------------------------

def _pochhammer_and_derivative(s, n: int):
    """(s)_n = s(s+1)...(s+n-1) and its derivative in s."""
    p = mp.mpf(1) if not isinstance(s, mp.mpc) else mp.mpc(1)
    dp = 0 * p
    for i in range(n):
        dp = dp * (s + i) + p
        p = p * (s + i)
    return p, dp


@guarded
def hurwitz_zeta(s, a, dps: int = 50, derivative: bool = False):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued by Euler-Maclaurin.

    With derivative=True, returns d/ds zeta(s, a) instead (term-by-term
    analytic derivative of the same Euler-Maclaurin formula).  Valid for
    real or complex s != 1 and a > 0.
    """
    s = mp.mpmathify(s)
    a = mp.mpf(a)
    if s == 1:
        raise ValueError("Hurwitz zeta has a pole at s = 1")
    # Choose the shift N and correction depth J for the working precision.
    wdps = mp.mp.dps
    N = max(int(mp.ceil(abs(s))) + 10, int(1.4 * wdps))
    J = wdps
    X = N + a
    logX = mp.log(X)
    head = mp.mpf(0)
    for n in range(N):
        base = (n + a) ** (-s)
        head += -mp.log(n + a) * base if derivative else base
    pole = X ** (1 - s) / (s - 1)
    if derivative:
        pole = X ** (1 - s) * (-logX / (s - 1) - 1 / (s - 1) ** 2)
    mid = X ** (-s) / 2
    if derivative:
        mid = -logX * X ** (-s) / 2
    tail = mp.mpf(0)
    prev = mp.inf
    for j in range(1, J + 1):
        b = bernoulli(2 * j)
        coeff = mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
        p, dp = _pochhammer_and_derivative(s, 2 * j - 1)
        power = X ** (-s - 2 * j + 1)
        if derivative:
            term = coeff * (dp - p * logX) * power
        else:
            term = coeff * p * power
        if abs(term) > prev:
            break  # asymptotic series started diverging
        tail += term
        prev = abs(term)
        if prev < mp.mpf(10) ** (-wdps - 5):
            break
    return head + pole + mid + tail


def _em_weights(start: int, stop: int) -> list:
    """B_{2i} (2 pi)^{2i}/(2i)! = (-1)^{i+1} 2 zeta(2i) for start < i <= stop,
    the Euler-Maclaurin weights, at 10 bits above the fixed-point scale.
    They come from zeta(2i) itself: no Bernoulli number is built, and
    zeta(2i) - 1 < 2^{1-2i} comes from a few powers once i is moderate."""
    with mp.workprec(fixed_bits() + 10):
        return [(-1) ** (i + 1) * 2 * mp.zeta(2 * i)
                for i in range(start + 1, stop + 1)]


def _em_terms(s: int, X, inv_y2: int):
    """(w_i, X (s)_{2i-1}/(2 pi X)^{2i}) for i = 1, 2, ..., in fixed point,
    given inv_y2 = 1/(2 pi X)^2 in fixed point, which a pass computes once;
    w_i are the _em_weights, kept in the numerics.fixed_table registry.

    Their product is the i-th Euler-Maclaurin correction of X^s zeta(s, X),
    and four times the second bounds the remainder after i corrections.
    Each step floors once, and multiplies the earlier error by less than 1
    while s + 2i <= 2 pi X.  Past that the terms grow, and this raises
    ArithmeticError; _em_shift rules that out."""
    bits = fixed_bits()
    scaled = s * int(mp.ldexp(X, bits)) * inv_y2 >> bits
    weights = []
    # s + 2i - 1 <= 2 pi X, from (2 pi X)^2 = 1/inv_y2 in integers, as X
    # may lie past the float range
    for i in range(1, (math.isqrt((1 << bits) // (inv_y2 or 1)) - s + 3) // 2):
        if i > len(weights):  # a registry lookup per growth, not per term
            weights = fixed_table("euler_maclaurin", _em_weights, i)
        yield weights[i - 1], scaled
        scaled = scaled * ((s + 2 * i - 1) * (s + 2 * i)) * inv_y2 >> bits
    raise ArithmeticError(f"Euler-Maclaurin at s = {s} stopped converging")


def _em_shift(a, ss, wdps: int) -> int:
    """The least M >= 0 at which the Euler-Maclaurin remainder bound of
    hurwitz_zeta_values reaches 10^-wdps relative for every s in ss.

    After J corrections the bound over X^{1-s}/(s-1) is
    4 (s-1) (s)_{2J-1} / (2 pi X)^{2J}, least near s + 2J - 1 = 2 pi X.
    One unit of margin in the log absorbs rounding.  No shift below
    M0 = -log(eps)/(2 pi) - a can meet it, and the bound falls with M, so
    numerics.least_index finds M by doubling and bisection from M0.  The
    search runs in floats with a taken at most 10^15, where M is 0 already
    for any wdps below 10^15, so an a past the float range is served too.
    """
    a = min(float(a), 1e15)
    log_eps = -wdps * math.log(10) - 1

    def least_log_bound(s, y):
        J = max(1, math.floor((y - s + 1) / 2))
        return (math.log(4 * (s - 1)) + math.lgamma(s + 2 * J - 1)
                - math.lgamma(s) - 2 * J * math.log(y))

    def reached(M):
        y = 2 * math.pi * (a + M)
        return all(least_log_bound(s, y) <= log_eps for s in ss)

    start = max(0, math.ceil(-log_eps / (2 * math.pi) - a))
    return least_index(reached, start)


@guarded
def hurwitz_zeta_values(ss, a, dps: int = 50) -> dict:
    """{s: zeta(s, a)} for the integers s >= 2 in ss, a > 0, in one
    Euler-Maclaurin pass shared by all s.

    With X = a + M,
        zeta(s, a) = a^{-s} sum_{j<M} (a/(a+j))^s + X^{-s} E_s,
        E_s = X/(s-1) + 1/2 + sum_{i<=J} B_{2i}/(2i)! (s)_{2i-1} X^{1-2i},
    so the M direct powers and the Bernoulli correction at X are shared by
    all s.  Both sums are O(1) and run in fixed point.  Since
    |B~_{2J}(x)| <= |B_{2J}| <= 4 (2J)!/(2 pi)^{2J}, the remainder of E_s
    after J corrections is at most 4 X (s)_{2J-1}/(2 pi X)^{2J} (Johansson,
    Numer. Algorithms 2015).  Each s takes corrections (_em_terms) until
    that is below 10^-wdps X/(s-1) for the working digits wdps; M is the
    least shift at which every s can get there.  Every value is good to
    10^-dps relative.
    """
    ss = sorted(set(ss))
    if not ss or ss[0] < 2 or any(int(s) != s for s in ss):
        raise ValueError("hurwitz_zeta_values needs integers s >= 2")
    wdps = mp.mp.dps
    a = mp.mpf(a)
    if a <= 0:
        raise ValueError("hurwitz_zeta_values needs a > 0")
    M = _em_shift(a, ss, wdps)
    X = a + M
    bits = fixed_bits()

    def fixed(x):
        return int(mp.ldexp(x, bits))

    # s runs through ss in order; each power steps up from the last
    gaps = [ss[0]] + [q - p for p, q in zip(ss, ss[1:])]
    direct = dict.fromkeys(ss, 0)
    for j in range(M):
        ratio = fixed(a / (a + j))
        steps = {g: ratio ** g >> bits * (g - 1) for g in set(gaps)}
        power = 1 << bits
        for s, g in zip(ss, gaps):
            power = power * steps[g] >> bits
            direct[s] += power

    x_fixed = fixed(X)
    inv_y2 = fixed(1 / (2 * mp.pi * X) ** 2)
    eps = mp.mpf(10) ** -wdps
    correction = {}
    for s in ss:
        lead = x_fixed // (s - 1)
        total = lead + (1 << (bits - 1))
        target = int(eps * lead)
        for weight, scaled in _em_terms(s, X, inv_y2):
            total += weight * scaled >> bits
            if 4 * scaled <= target:
                break
        correction[s] = total

    values = {}
    a_steps = {g: a ** -g for g in set(gaps)}
    x_steps = {g: X ** -g for g in set(gaps)}
    a_pow, x_pow = mp.ldexp(1, -bits), mp.ldexp(1, -bits)
    for s, g in zip(ss, gaps):
        a_pow *= a_steps[g]
        x_pow *= x_steps[g]
        values[s] = a_pow * direct[s] + x_pow * correction[s]
    return values


@guarded
def stieltjes_gamma1(a, dps: int = 50):
    """The generalized Stieltjes constant gamma_1(a), a > 0: the s = 1
    column of hurwitz_zeta_values' pass, for f(x) = log(x)/x.

    With X = a + M >= 1 and f^{(n)}(x) = (-1)^n n! (log x - H_n)/x^{n+1},
        gamma_1(a) = sum_{j<M} log(a+j)/(a+j) - log^2 X/2 + log X/(2X)
                     + sum_{i<=J} B_{2i}/(2i) (log X - H_{2i-1})/X^{2i},
    and the i-th correction is w_i X (2i-1)!/(2 pi X)^{2i} (log X - H_{2i-1})
    over X, from _em_terms at s = 1.  Since |B~_{2J}(x)| <=
    4 (2J)!/(2 pi)^{2J} and log x >= 0, the remainder after J corrections
    is at most

        4 (2J-1)! (log X + H_{2J} + 1/(2J))/(2 pi X)^{2J},

    below 4 (2J-1)! (log X + H_{2J} + 1)/(2 pi X)^{2J} (Blagouchine,
    J. Number Theory 2015).  The corrections run in fixed point until the
    first is below 10^-wdps, wdps the working digits.  M is the shift
    _em_shift finds for zeta(2, a), which gets there: at every X >= 1 and
    the J that search takes, 2J >= log X + H_{2J} + 1, so the bound
    4 (2J)!/(2 pi X)^{2J} of zeta(2, a) is the larger one.  The M direct
    terms are summed in mpf.  The value is good to 10^-dps
    max(1, |gamma_1(a)|).
    """
    a = mp.mpf(a)
    if not a > 0:
        raise ValueError("stieltjes_gamma1 needs a > 0")
    wdps = mp.mp.dps
    M = _em_shift(a, [2], wdps)
    X = a + M
    log_x = mp.log(X)
    bits = fixed_bits()
    log_fixed = int(mp.ldexp(log_x, bits))
    # the bound is taken times X, as the corrections are
    target = int(mp.ldexp(mp.mpf(10) ** -wdps * X, 2 * bits))
    inv_y2 = int(mp.ldexp(1 / (2 * mp.pi * X) ** 2, bits))
    total = 0
    for i, (weight, scaled) in enumerate(_em_terms(1, X, inv_y2), 1):
        h = harmonic(2 * i - 1)
        h = (h.numerator << bits) // h.denominator  # H_{2i-1} in fixed point
        total += weight * scaled * (log_fixed - h) >> 2 * bits
        # the stated bound: H_{2i} + 1/(2i) = H_{2i-1} + 1/i
        if 4 * scaled * (log_fixed + h + (1 << bits) // i) <= target:
            break
    return (mp.fsum(mp.log(a + j) / (a + j) for j in range(M))
            - log_x ** 2 / 2 + log_x / (2 * X) + mp.ldexp(total, -bits) / X)


# ---------------------------------------------------------------------------
# zeta'(-m)
# ---------------------------------------------------------------------------

@guarded
def zeta_prime_neg(m: int, dps: int = 50):
    """zeta'(-m) for odd m >= 1 via the functional equation.

    Logarithmic differentiation of zeta(s) = 2^s pi^{s-1} sin(pi s/2)
    Gamma(1-s) zeta(1-s) at s = -m (where the cotangent term vanishes) gives

        zeta'(-m) = zeta(-m) [log(2 pi) - psi(m+1) - zeta'(m+1)/zeta(m+1)].

    The values are cached per (m, working precision), as numerics.fixed_table
    keeps its tables, so a cached value does not depend on which call filled
    it; zeta_prime_neg.cache_info() counts the hits and misses.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("zeta_prime_neg is defined here only for odd m >= 1")
    return _zeta_prime_neg_at(m, mp.mp.prec)


@lru_cache(maxsize=None)
def _zeta_prime_neg_at(m: int, prec: int):
    """zeta'(-m) at the working precision prec, the current one."""
    zneg = zeta_neg(m)
    zneg_v = mp.mpf(zneg.numerator) / zneg.denominator
    ratio = mp.zeta(m + 1, derivative=1) / mp.zeta(m + 1)
    return zneg_v * (mp.log(2 * mp.pi) - mp.digamma(m + 1) - ratio)


zeta_prime_neg.cache_info = _zeta_prime_neg_at.cache_info


# ---------------------------------------------------------------------------
# Lerch zeta at negative integers: closed form and continuation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _negapolylog_poly(k: int) -> tuple[int, ...]:
    """Coefficients of P_k with Li_{-k}(z) = P_k(z)/(1-z)^{k+1}, P_0 = z.

    The recurrence P_{k+1}(z) = z (P_k'(z)(1-z) + (k+1) P_k(z)) follows from
    applying z d/dz to P_k/(1-z)^{k+1}.
    """
    if k == 0:
        return (0, 1)
    p = _negapolylog_poly(k - 1)
    dp = tuple(i * c for i, c in enumerate(p))[1:]  # P'
    # P'(z)(1-z):
    a = list(dp) + [0]
    for i in range(len(dp)):
        a[i + 1] -= dp[i]
    # + k*P
    for i, c in enumerate(p):
        if i < len(a):
            a[i] += k * c
        else:
            a.append(k * c)
    # times z
    return tuple([0] + a)


def _check_phi(phi):
    if mp.almosteq(mp.exp(1j * mp.mpf(phi)), 1, rel_eps=mp.mpf(10) ** -30,
                   abs_eps=mp.mpf(10) ** -30):
        raise ValueError("phi must not be congruent to 0 mod 2*pi")


@guarded
def lerch_neg(k: int, phi, dps: int = 50):
    """zeta_L(-k, phi) = Li_{-k}(e^{i phi}) as an exact rational function of
    z = e^{i phi}, evaluated numerically."""
    if k < 0:
        raise ValueError("lerch_neg needs k >= 0")
    _check_phi(phi)
    z = mp.exp(1j * mp.mpf(phi))
    num = mp.polyval(list(reversed(_negapolylog_poly(k))), z)
    return num / (1 - z) ** (k + 1)


@guarded
def lerch_prime_neg(k: int, phi, dps: int = 50):
    """d/ds zeta_L(s, phi) at s = -k, by the analytic derivative of the
    Hurwitz-formula continuation.

    For k >= 1 the two Hurwitz zeta values sit at 1+k, away from the pole;
    for k = 0 the 1/s poles of the bracket cancel and the limit is expressed
    through psi and the generalized Stieltjes constant gamma_1.
    """
    if k < 0:
        raise ValueError("lerch_prime_neg needs k >= 0")
    phi = mp.mpf(phi)
    _check_phi(phi)
    a = mp.fmod(phi / (2 * mp.pi), 1)
    if a < 0:
        a += 1
    if k == 0:
        # F(s) = C(s) B(s) with C(0) = 1/(2 pi i), C'(0)/C(0) = log 2pi + gamma,
        # B(s) = B0 + B1 s + O(s^2):
        #   B0 = psi(a) - psi(1-a) - i pi
        #   B1 = gamma_1(1-a) - gamma_1(a) - (i pi/2)(psi(1-a) + psi(a))
        B0 = mp.digamma(a) - mp.digamma(1 - a) - 1j * mp.pi
        B1 = (stieltjes_gamma1(1 - a, dps) - stieltjes_gamma1(a, dps)
              - 0.5j * mp.pi * (mp.digamma(1 - a) + mp.digamma(a)))
        return ((mp.log(2 * mp.pi) + mp.euler) * B0 + B1) / (2j * mp.pi)
    else:
        s = mp.mpf(-k)
        w = 1 - s
        C = (2 * mp.pi) ** s * mp.gamma(w) / (2j * mp.pi)
        dC = C * (mp.log(2 * mp.pi) - mp.digamma(w))
        e_plus = mp.exp(1j * mp.pi * s / 2)
        e_minus = mp.exp(-1j * mp.pi * s / 2)
        z1 = hurwitz_zeta(w, 1 - a, dps)
        z2 = hurwitz_zeta(w, a, dps)
        dz1 = hurwitz_zeta(w, 1 - a, dps, derivative=True)
        dz2 = hurwitz_zeta(w, a, dps, derivative=True)
        B = e_plus * z1 - e_minus * z2
        # d/ds zeta(1-s, x) = -zeta_w(1-s, x)
        dB = (0.5j * mp.pi * e_plus * z1 - e_plus * dz1
              + 0.5j * mp.pi * e_minus * z2 + e_minus * dz2)
        return dC * B + C * dB


# ---------------------------------------------------------------------------
# Sine and cosine integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _sici_taylor(x, wdps: int):
    """(Si(x), Ci(x) - gamma - log x) for x >= 0 by their Taylor series

        Si(x) = x sum_{j>=0} s_j/(2j+1),        s_j = (-1)^j x^{2j}/(2j+1)!,
        Ci(x) - gamma - log x = x^2 sum_{k>=1} c_k/(2k),
                                                c_k = (-1)^k x^{2k-2}/(2k)!,

    summed in fixed point.  The terms grow to about e^x/x before they fall,
    so the sums run at wdps + boost digits, wdps the caller's working
    digits and boost = 0.45 x, which absorbs the 0.434 x digits of
    cancellation.  s_j and c_k are Python integers with scale 2^bits,
    bits = numerics.fixed_bits() at that precision, and each step of a
    recurrence floors twice: over K steps the error is below K units of
    2^-prec times the largest term, as for the same recurrence in mpf.  The
    factors x and x^2 are applied in mpf, so small x keeps its relative
    precision.  The sum stops after the first k at which both terms x s_k
    and x^2 c_k are below 10^-(wdps + boost); past that they fall faster
    than geometrically.  The last few results are kept, so si and ci at one
    x share a single pass.
    """
    if x == 0:
        return x, x
    boost = int(0.45 * abs(x))
    with mp.workdps(wdps + boost):
        x = mp.mpf(x)
        bits = fixed_bits()
        x2 = int(mp.ldexp(x * x, bits))
        eps = mp.mpf(10) ** -(wdps + boost)
        si_stop = int(mp.ldexp(eps / x, bits))
        cin_stop = int(mp.ldexp(eps / (x * x), bits))
        si_term = si = 1 << bits  # s_0
        cin_term = -(1 << (bits - 1))  # c_1
        cin = cin_term // 2
        k = 1
        while True:
            si_term = -(si_term * x2 >> bits) // ((2 * k) * (2 * k + 1))
            si += si_term // (2 * k + 1)
            if k > 1:
                cin_term = (-(cin_term * x2 >> bits)
                            // ((2 * k - 1) * (2 * k)))
                cin += cin_term // (2 * k)
            if abs(si_term) < si_stop and abs(cin_term) < cin_stop:
                break
            k += 1
        return x * mp.ldexp(si, -bits), x * x * mp.ldexp(cin, -bits)


def _sici_asymptotic(x):
    """(Si(x), Ci(x)) from the auxiliary expansions
    f(x) ~ sum (-1)^k (2k)!/x^{2k+1}, g(x) ~ sum (-1)^k (2k+1)!/x^{2k+2},
    truncated at the smallest term."""
    f = mp.mpf(0)
    g = mp.mpf(0)
    term_f = 1 / x
    term_g = 1 / (x * x)
    k = 0
    prev_f = mp.inf
    while abs(term_f) < prev_f:
        f += term_f
        g += term_g
        prev_f = abs(term_f)
        k += 1
        term_f *= -(2 * k - 1) * (2 * k) / (x * x)
        term_g *= -(2 * k) * (2 * k + 1) / (x * x)
    sx, cx = mp.sin(x), mp.cos(x)
    return mp.pi / 2 - f * cx - g * sx, f * sx - g * cx


def _sici_crossover(dps: int) -> float:
    # Asymptotic remainder is bounded below by ~e^{-x}; x must exceed
    # dps*ln(10) before the expansion can reach dps digits.
    return 2.4 * dps + 10


@guarded
def si(x, dps: int = 50):
    """Si(x) = int_0^x sin(t)/t dt."""
    xv = mp.mpf(x)
    if xv < 0:
        return -si(-xv, dps)
    if xv <= _sici_crossover(dps):
        return _sici_taylor(xv, mp.mp.dps)[0]
    return _sici_asymptotic(xv)[0]


@guarded
def ci(x, dps: int = 50):
    """Ci(x) = -int_x^inf cos(t)/t dt, for x > 0."""
    xv = mp.mpf(x)
    if xv <= 0:
        raise ValueError("ci needs x > 0")
    if xv <= _sici_crossover(dps):
        return mp.euler + mp.log(xv) + _sici_taylor(xv, mp.mp.dps)[1]
    return _sici_asymptotic(xv)[1]


# ---------------------------------------------------------------------------
# R-series
# ---------------------------------------------------------------------------

@guarded
def r_rot_value(t, dps: int = 50):
    """R^rot(t) numerically, for real t not in 2 pi Z.

    R^rot(t) = Im zeta_L'(0, t) is odd and 2 pi-periodic,
    R^rot(-t) = R^rot(2 pi - t) = -R^rot(t).  So |t| >= 2 is first reduced
    to r = t - 2 pi k in [-pi, pi], k the nearest integer, at twice the
    working precision plus the bits of t: r keeps the working precision
    relative to itself down to |r| ~ 2^-prec, also next to a multiple of
    2 pi.  Then R^rot(t) = sign(r) R^rot(|r|), and for 0 < t <= pi

        R^rot(t) = (gamma + log t)/t - sum_{m odd} w_m u^m,   u = t/(2 pi),
        w_m = (-1)^{(m+1)/2} zeta'(-m) (2 pi)^m/m!,

    with zeta'(-m) the cached zeta_prime_neg values.  The w_m are O(log m)
    and t-independent: numerics.odd_series keeps them and sums the odd
    series, to the term count numerics.odd_series_terms fixes before the
    sum from |w_m| <= 2 zeta(m+1)(log(m+1) + 2.5)/(2 pi), so the dropped
    terms sum to at most 10^-wdps u for the working digits wdps.  Since
    u <= 1/2 the count is at most 101 at dps 50 and 849 at dps 500.
    """
    r = mp.mpf(t)
    if mp.mag(r) > 1:  # |t| >= 2 may lie past pi
        with mp.extraprec(mp.mp.prec + mp.mag(r)):
            r -= 2 * mp.pi * mp.nint(r / (2 * mp.pi))
    if not r:
        raise ValueError("r_rot_value needs t not congruent to 0 mod 2*pi")
    tv = abs(r)
    u = tv / (2 * mp.pi)
    count = odd_series_terms(float(u), mp.mp.dps)

    def weights(start, stop):
        for m in range(2 * start + 1, 2 * stop, 2):
            yield ((-1) ** ((m + 1) // 2) * zeta_prime_neg(m, dps)
                   * (2 * mp.pi) ** m / mp.factorial(m))

    series = odd_series("r_rot", weights, count, u)
    value = (mp.euler + mp.log(tv)) / tv - series
    return value if r > 0 else -value


def gs_r_series(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """The R-class generating series
    sum_{m odd} (2 zeta'(-m) + H_m zeta(-m)) x^m / m!  (odd, symbolic)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = {}
    fact = Fraction(1)
    for m in range(1, order + 1):
        fact *= m
        if m % 2 == 1:
            expr = (ConstExpr.zeta_prime(m, 2)
                    + ConstExpr.rational(harmonic(m) * zeta_neg(m)))
            coeffs[m] = expr.scale(Fraction(1, 1) / fact)
    return LaurentSeries(coeffs, 0, order)


def gs_r_alt_series(order: int) -> LaurentSeries:
    """-(1/i) R(i t) for the R-class series R:
    sum_{m odd} (2 zeta'(-m) + H_m zeta(-m)) (-1)^{(m+1)/2} t^m / m!."""
    series = gs_r_series(order)
    return LaurentSeries({m: series.coeff(m).scale((-1) ** ((m + 1) // 2))
                          for m in series.degrees()}, 0, order)
