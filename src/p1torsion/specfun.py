"""Special-function values consumed by the torsion formulas.

Provides exact Bernoulli numbers and zeta values at non-positive integers,
high-precision zeta derivatives there, Hurwitz zeta values (many integer s
in one pass), the Lerch zeta function and its s-derivative at negative
integers, the sine and cosine integrals, the value of the
rotation-equivariant R^rot(t), and the (non-equivariant) R-class series.

The Lerch continuation runs through Hurwitz's formula

    zeta_L(s, phi) = (2pi)^s Gamma(1-s)/(2 pi i)
                     * [e^{i pi s/2} zeta(1-s, 1-a) - e^{-i pi s/2} zeta(1-s, a)]

with a = phi/(2 pi), and the Hurwitz zeta function (plus its analytic
s-derivative) is computed by Euler-Maclaurin summation in-house so the
continuation path is independent of the closed-form path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .numerics import GUARD_DPS, ConstExpr, guarded, harmonic
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
    # Choose the shift N and correction depth J for the target precision.
    N = max(int(mp.ceil(abs(s))) + 10, int(1.4 * (dps + GUARD_DPS)))
    J = dps + GUARD_DPS
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
        if prev < mp.mpf(10) ** (-(dps + GUARD_DPS) - 5):
            break
    return head + pole + mid + tail


@lru_cache(maxsize=None)
def _em_coeff_fixed(i: int, bits: int) -> int:
    """B_{2i} (2 pi)^{2i}/(2i)! = (-1)^{i+1} 2 zeta(2i), as a fixed-point
    integer with scale 2^bits, taken from zeta(2i) itself: no Bernoulli
    number is built, and zeta(2i) - 1 < 2^{1-2i} comes from a few powers
    once i is moderate."""
    with mp.workprec(bits + 10):
        return (-1) ** (i + 1) * int(mp.ldexp(2 * mp.zeta(2 * i), bits))


def _em_shift(a: float, ss, wdps: int) -> int:
    """The least M >= 0 at which the Euler-Maclaurin remainder bound of
    hurwitz_zeta_values reaches 10^-wdps relative for every s in ss.

    After J corrections the bound over X^{1-s}/(s-1) is
    4 (s-1) (s)_{2J-1} / (2 pi X)^{2J}, least near s + 2J - 1 = 2 pi X.
    One unit of margin in the log absorbs rounding.
    """
    log_eps = -wdps * math.log(10) - 1

    def least_log_bound(s, y):
        J = max(1, math.floor((y - s + 1) / 2))
        return (math.log(4 * (s - 1)) + math.lgamma(s + 2 * J - 1)
                - math.lgamma(s) - 2 * J * math.log(y))

    M = max(0, math.ceil(-log_eps / (2 * math.pi) - a))
    while any(least_log_bound(s, 2 * math.pi * (a + M)) > log_eps
              for s in ss):
        M += 1
    return M


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
    Numer. Algorithms 2015).  Each s takes corrections until that is below
    10^-(dps + GUARD_DPS) X/(s-1); M is the least shift at which every s
    can get there.  Every value is good to 10^-dps relative.
    """
    ss = sorted(set(ss))
    if not ss or ss[0] < 2 or any(int(s) != s for s in ss):
        raise ValueError("hurwitz_zeta_values needs integers s >= 2")
    wdps = dps + GUARD_DPS
    a = mp.mpf(a)
    if a <= 0:
        raise ValueError("hurwitz_zeta_values needs a > 0")
    M = _em_shift(float(a), ss, wdps)
    X = a + M
    bits = mp.mp.prec + 20

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
    turn = float(2 * mp.pi * X)  # the bound grows past s + 2i - 1 = turn
    eps = mp.mpf(10) ** -wdps
    correction = {}
    for s in ss:
        lead = x_fixed // (s - 1)
        total = lead + (1 << (bits - 1))
        target = int(eps * lead)
        # X (s)_{2i-1}/(2 pi X)^{2i}; times B_{2i}(2 pi)^{2i}/(2i)! it is
        # the i-th correction, and four times it bounds the remainder
        scaled = s * x_fixed * inv_y2 >> bits
        i = 1
        while True:
            total += _em_coeff_fixed(i, bits) * scaled >> bits
            if 4 * scaled <= target:
                break
            scaled = (scaled * ((s + 2 * i - 1) * (s + 2 * i)) * inv_y2
                      >> bits)
            i += 1
            if s + 2 * i - 1 > turn:
                raise ArithmeticError(  # _em_shift rules this out
                    f"Euler-Maclaurin for zeta({s}, a) stopped converging")
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
    """Generalized Stieltjes constant gamma_1(a).

    gamma_1(a) = lim_N [sum_{n=0}^{N} log(n+a)/(n+a) - log^2(N+a)/2],
    accelerated by Euler-Maclaurin corrections for f(x) = log(x)/x, whose
    derivatives are f^{(n)}(x) = (-1)^n n! (log x - H_n)/x^{n+1}.
    """
    a = mp.mpf(a)
    N = int(1.4 * (dps + GUARD_DPS)) + 10
    X = N + a
    logX = mp.log(X)
    total = mp.fsum(mp.log(n + a) / (n + a) for n in range(N))
    total -= logX ** 2 / 2
    total += logX / (2 * X)  # the f(X)/2 endpoint term
    prev = mp.inf
    for j in range(1, dps + GUARD_DPS):
        b = bernoulli(2 * j)
        coeff = mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
        h = harmonic(2 * j - 1)
        deriv = -mp.factorial(2 * j - 1) * (logX - mp.mpf(h.numerator) / h.denominator) / X ** (2 * j)
        term = -coeff * deriv
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
        if prev < mp.mpf(10) ** (-(dps + GUARD_DPS) - 5):
            break
    return total


# ---------------------------------------------------------------------------
# zeta'(-m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
@guarded
def zeta_prime_neg(m: int, dps: int = 50):
    """zeta'(-m) for odd m >= 1 via the functional equation.

    Logarithmic differentiation of zeta(s) = 2^s pi^{s-1} sin(pi s/2)
    Gamma(1-s) zeta(1-s) at s = -m (where the cotangent term vanishes) gives

        zeta'(-m) = zeta(-m) [log(2 pi) - psi(m+1) - zeta'(m+1)/zeta(m+1)].
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("zeta_prime_neg is defined here only for odd m >= 1")
    zneg = zeta_neg(m)
    zneg_v = mp.mpf(zneg.numerator) / zneg.denominator
    ratio = mp.zeta(m + 1, derivative=1) / mp.zeta(m + 1)
    return zneg_v * (mp.log(2 * mp.pi) - mp.digamma(m + 1) - ratio)


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
    wdps = dps + GUARD_DPS
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
        B1 = (stieltjes_gamma1(1 - a, wdps) - stieltjes_gamma1(a, wdps)
              - 0.5j * mp.pi * (mp.digamma(1 - a) + mp.digamma(a)))
        return ((mp.log(2 * mp.pi) + mp.euler) * B0 + B1) / (2j * mp.pi)
    else:
        s = mp.mpf(-k)
        w = 1 - s
        C = (2 * mp.pi) ** s * mp.gamma(w) / (2j * mp.pi)
        dC = C * (mp.log(2 * mp.pi) - mp.digamma(w))
        e_plus = mp.exp(1j * mp.pi * s / 2)
        e_minus = mp.exp(-1j * mp.pi * s / 2)
        z1 = hurwitz_zeta(w, 1 - a, wdps)
        z2 = hurwitz_zeta(w, a, wdps)
        dz1 = hurwitz_zeta(w, 1 - a, wdps, derivative=True)
        dz2 = hurwitz_zeta(w, a, wdps, derivative=True)
        B = e_plus * z1 - e_minus * z2
        # d/ds zeta(1-s, x) = -zeta_w(1-s, x)
        dB = (0.5j * mp.pi * e_plus * z1 - e_plus * dz1
              + 0.5j * mp.pi * e_minus * z2 + e_minus * dz2)
        return dC * B + C * dB


# ---------------------------------------------------------------------------
# Sine and cosine integrals
# ---------------------------------------------------------------------------

def _sici_taylor(x, dps: int):
    """(Si(x), Cin(x)) by Taylor series with enough guard digits to absorb
    the ~0.434*x digits of cancellation."""
    boost = int(0.45 * abs(x)) + GUARD_DPS
    with mp.workdps(dps + boost):
        x = mp.mpf(x)
        x2 = x * x
        si_term = mp.mpf(x)      # (-1)^j x^{2j+1}/(2j+1)!
        si = mp.mpf(x)
        cin_term = mp.mpf(1)     # (-1)^j x^{2j}/(2j)!
        cin = mp.mpf(0)
        eps = mp.mpf(10) ** (-(dps + boost))
        k = 1
        while True:
            si_term *= -x2 / ((2 * k) * (2 * k + 1))
            si += si_term / (2 * k + 1)
            cin_term *= -x2 / ((2 * k - 1) * (2 * k))
            cin += cin_term / (2 * k)
            if abs(si_term) < eps and abs(cin_term) < eps:
                break
            k += 1
        return si, cin


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
        return _sici_taylor(xv, dps)[0]
    return _sici_asymptotic(xv)[0]


@guarded
def ci(x, dps: int = 50):
    """Ci(x) = -int_x^inf cos(t)/t dt, for x > 0."""
    xv = mp.mpf(x)
    if xv <= 0:
        raise ValueError("ci needs x > 0")
    if xv <= _sici_crossover(dps):
        return mp.euler + mp.log(xv) + _sici_taylor(xv, dps)[1]
    return _sici_asymptotic(xv)[1]


# ---------------------------------------------------------------------------
# R-series
# ---------------------------------------------------------------------------

@guarded
def r_rot_value(t, dps: int = 50):
    """R^rot(t) numerically, for 0 < t < 2 pi.

    The zeta'(-m) terms decay geometrically like (t/2pi)^m, so the sum is
    truncated adaptively rather than at a fixed order.
    """
    tv = mp.mpf(t)
    if not 0 < tv < 2 * mp.pi:
        raise ValueError("r_rot_value needs 0 < t < 2*pi")
    total = (mp.euler + mp.log(tv)) / tv
    eps = mp.mpf(10) ** (-(dps + GUARD_DPS))
    m = 1
    tpow = tv
    fact = mp.mpf(1)
    while True:
        sign = (-1) ** ((m + 1) // 2)
        term = zeta_prime_neg(m, dps + GUARD_DPS) * sign * tpow / fact
        total -= term
        if abs(term) < eps and m > 5:
            break
        tpow *= tv * tv
        fact *= (m + 1) * (m + 2)
        m += 2
    return total


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
