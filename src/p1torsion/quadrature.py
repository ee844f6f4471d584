"""High-precision integration and error-bounded bi-infinite summation.

These routines are the numeric oracle for the series-form results: every
closed-form value produced elsewhere in the package has an evaluation path
through integrate() or bilateral_sum() that must agree with it.

bilateral_sum() sums a head of 2K + 1 terms directly.  Its tail is exact:
the caller gives the expansion of its term in powers of 1/(k + shift), the
tail becomes a sum of Hurwitz zeta values, and that sum is cut where an
explicit geometric bound falls below the working precision.  For the
torsion sums the expansion is
log(1 + t/d)/(d + t) = sum_{n>=1} (-1)^{n+1} H_n t^n d^{-n-1}, |d| > |t|.
At shift 0 the head shrinks to K = 1 where the rate allows, and the tail is
an odd power series whose weights are kept in a table; even_series_fixed()
sums it, divided by its variable, by Horner in Python integers, the
fixed-point idiom of specfun.hurwitz_zeta_values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .numerics import GUARD_DPS, guarded
from .specfun import hurwitz_zeta_values

HEAD_K = 20   # a shifted head |k| <= K, K >= 20, keeps q <= 1/20
HEAD_Q = 0.5  # at shift 0 the head |k| <= K, K >= 1, keeps q <= 1/2
MAX_HEAD_K = 2000

# weights(N, wdps) -> the expansion weights a_1, ..., a_N of a bilateral_sum
Weights = Callable[[int, int], Sequence]


class AccuracyError(ArithmeticError):
    """Requested tolerance not reached; carries the partial result."""

    def __init__(self, message, partial=None, estimate=None):
        super().__init__(message)
        self.partial = partial
        self.estimate = estimate


@dataclass
class IntegrandSpec:
    """An integrand together with its interval."""

    f: Callable
    a: float
    b: float


@dataclass
class QuadResult:
    value: mp.mpf
    error_estimate: mp.mpf


@guarded
def integrate(spec: IntegrandSpec, tol=None, dps: int = 50,
              breakpoints=None) -> QuadResult:
    """Integrate with tanh-sinh quadrature, which absorbs endpoint
    singularities of removable or logarithmic type.

    ``breakpoints`` splits the interval (useful for oscillatory integrands).
    Raises AccuracyError when the error estimate exceeds ``tol``, by default
    10^(2 - dps) for the requested dps.
    """
    if tol is None:
        tol = mp.mpf(10) ** (2 - dps)
    points = [mp.mpf(spec.a)]
    if breakpoints:
        points.extend(mp.mpf(p) for p in breakpoints)
    points.append(mp.mpf(spec.b))
    value, err = mp.quad(spec.f, points, error=True)
    err = mp.mpf(abs(err))
    if err > tol:
        raise AccuracyError(
            f"quadrature error estimate {mp.nstr(err, 5)} exceeds tol",
            partial=value, estimate=err)
    return QuadResult(value=value, error_estimate=err)


@guarded
def bilateral_sum(term: Callable[[int], mp.mpf], weights: Weights, x, rate,
                  shift=0, dps: int = 50) -> mp.mpf:
    """Sum term(k) over all integers k, with an exact tail.

    The caller states the expansion of its term away from the origin:

        term(k) = sum_{n>=1} a_n x^n (k + shift)^{-n-1}   for |k + shift| > rate,

    with weights(N, wdps) returning a_1, ..., a_N at wdps digits.  The a_n
    must not depend on x, and |a_n x^n| <= n rate^n.  The head |k| <= K is
    a direct sum of 2K + 1 terms, with K at most MAX_HEAD_K.  The tail over
    |k| > K is exact in Hurwitz zeta values:

        sum_n a_n x^n [zeta(n+1, K+1+shift) + (-1)^{n+1} zeta(n+1, K+1-shift)].

    With D = K + 1 - |shift| and q = rate/D, both half-lines give
    sum_{|k|>K} |k + shift|^{-n-1} <= 2 D^{-n-1} (1 + D/n), so dropping
    n > N costs at most (2/D) sum_{n>N} (n + D) q^n, a geometric series.
    N is the least count that brings this below 10^-(dps + GUARD_DPS) q.
    Every tail term carries a factor x, so the factor q keeps the tail's
    relative precision as x goes to 0, where N falls to 1.
    Raises AccuracyError when q >= 1, where the expansion cannot be summed.

    At any shift other than 0, K = 20 unless a large rate or shift needs
    more (q <= 1/HEAD_K), and the call runs the Hurwitz pass itself.

    At shift 0, K is the least K >= 1 with q <= HEAD_Q = 1/2; the I-class
    sum, whose rate |t|/(2 pi) is below 1, has K = 1.  Only odd n survive,
    and with A = K + 1 the tail is

        sum_{n odd} w_n u^n,  w_n = 2 a_n zeta(n+1, A) (s A)^n,  u = x/(s A),

    where s is the power of two with s <= |x|/rate < 2s.  Then |u| < 2q <= 1
    and, since zeta(n+1, A) <= A^{-n-1} (1 + A/n), |w_n| <= n + 2: every
    operand of the Horner scheme is O(1).  The w_n do not depend on x.  They
    are built in one Euler-Maclaurin pass (specfun.hurwitz_zeta_values) per
    (weights, A, s, working precision), long enough for q = HEAD_Q, and kept
    as integers with scale 2^(prec + 20); ``weights`` is part of the key, so
    one expansion should always pass the same function.  A call sums its
    head and evaluates the tail as u times even_series_fixed at u, whose
    rounding stays below 2^-prec: the tail keeps its relative precision as
    x goes to 0.  A complex x, or a head capped at MAX_HEAD_K with
    q > HEAD_Q, takes the per-call Hurwitz pass instead.
    """
    wdps = dps + GUARD_DPS
    rate, shift, x = mp.mpf(rate), mp.mpf(shift), mp.mpmathify(x)
    if shift == 0:
        K = max(1, int(mp.ceil(rate / HEAD_Q)) - 1)
    else:
        K = max(HEAD_K, int(mp.ceil(HEAD_K * rate + abs(shift))) - 1)
    K = min(K, MAX_HEAD_K)
    D = K + 1 - abs(shift)
    q = rate / D if D > 0 else mp.inf
    if q >= 1:
        raise AccuracyError(
            f"bilateral tail ratio q = {mp.nstr(q, 5)} is not below 1 "
            f"with a head of {2 * K + 1} terms", estimate=q)
    n_terms = _tail_terms(float(D), float(q), wdps)
    head = mp.fsum(term(k) for k in range(-K, K + 1))
    if not n_terms:
        return head
    if shift == 0 and q <= HEAD_Q and isinstance(x, mp.mpf):
        e = math.frexp(float(abs(x) / rate))[1] - 1  # s = 2^e
        bits = mp.mp.prec + 20
        table = _odd_tail(weights, K + 1, e, wdps)[:(n_terms + 1) // 2]
        u = x / mp.ldexp(K + 1, e)
        even = even_series_fixed(table, int(mp.ldexp(u, bits)), bits)
        return head + u * mp.ldexp(even, -bits)
    a = weights(n_terms, wdps)
    ss = range(2, n_terms + 2)
    right = hurwitz_zeta_values(ss, K + 1 + shift, wdps)
    left = hurwitz_zeta_values(ss, K + 1 - shift, wdps)
    tail = 0
    for n in range(n_terms, 0, -1):
        zeta = right[n + 1] - (-1) ** n * left[n + 1]
        tail = (tail + a[n - 1] * zeta) * x
    return head + tail


def even_series_fixed(weights: Sequence[int], u: int, bits: int) -> int:
    """sum_j weights[j] u^{2j} by Horner in u^2, in fixed point: every
    number, the result too, is an integer with scale 2^bits.  An odd series
    sum_j weights[j] v^{2j+1} is v times this sum at u = v; the caller
    multiplies by v in mpf, so the result keeps its relative precision
    however small v is.

    The square of u is kept exact, so each of the N - 1 steps after the
    first floors once and errs by less than one unit of 2^-bits.  For
    |u| <= 1 no step enlarges an earlier error, and the result is within
    N units of the sum of the given weights.  With bits = prec + 20 that is
    below 2^-prec for any N < 2^20; the sums here take at most about 2000
    steps.  Python's >> floors, also below zero; the bound does not need
    the sign of u."""
    y = u * u
    two_bits = 2 * bits
    acc = 0
    for w in reversed(weights):
        acc = (acc * y >> two_bits) + w
    return acc


# (weights, K + 1, log2 s, working dps) -> [w_1, w_3, w_5, ...] with scale
# 2^(prec + 20), w_n as in bilateral_sum
_ODD_TAILS: dict[tuple, list] = {}


def _odd_tail(weights: Weights, a: int, e: int, wdps: int) -> list:
    """The odd-n tail weights w_n of bilateral_sum at shift 0, for every n
    that q = HEAD_Q needs at A = a, s = 2^e: a table built once per key, so
    its values do not depend on the call that built it."""
    key = (weights, a, e, wdps)
    table = _ODD_TAILS.get(key)
    if table is None:
        n_max = _tail_terms(float(a), HEAD_Q, wdps)
        with mp.workdps(wdps):
            bits = mp.mp.prec + 20
            zeta = hurwitz_zeta_values(range(2, n_max + 2, 2), a, wdps)
            coeffs = weights(n_max, wdps)
            scale = mp.ldexp(a, e)
            table = [int(mp.ldexp(2 * coeffs[n - 1] * zeta[n + 1]
                                  * scale ** n, bits))
                     for n in range(1, n_max + 1, 2)]
        _ODD_TAILS[key] = table
    return table


def _tail_terms(D: float, q: float, wdps: int) -> int:
    """The least N with (2/D) sum_{n>N} (n + D) q^n <= 10^-wdps q,
    0 <= q < 1.

    sum_{n>N} q^n = q^{N+1}/(1-q) and
    sum_{n>N} n q^n = q^{N+1} ((N+1) - N q)/(1-q)^2; compared in logs.
    Each step from N to N + 1 multiplies the bound by at most
    q (2 - q) < 1, so N is found by doubling and bisection."""
    if q == 0:
        return 0
    log_eps = -wdps * math.log(10)

    def above(N):
        return (math.log(2 / D) + N * math.log(q)
                + math.log(((N + 1) - N * q) / (1 - q) ** 2 + D / (1 - q))
                > log_eps)

    if not above(0):
        return 0
    lo, hi = 0, 1  # above(lo) holds throughout, above(hi) fails at the end
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi
