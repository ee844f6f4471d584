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
an odd power series in fixed point, numerics.odd_series, the kernel of
R^rot and of the I-class series too; only its weights are stated here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .numerics import guarded, least_index, odd_series
from .specfun import hurwitz_zeta_values

HEAD_K = 20   # a shifted head |k| <= K, K >= 20, keeps q <= 1/20
HEAD_Q = 0.5  # at shift 0 the head |k| <= K, K >= 1, keeps q <= 1/2
MAX_HEAD_K = 2000

# weights(N) -> the expansion weights a_1, ..., a_N of a bilateral_sum, at
# the working precision
Weights = Callable[[int], Sequence]


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

    with weights(N) returning a_1, ..., a_N at the working precision.  The
    a_n must not depend on x, and |a_n x^n| <= n rate^n.  The head
    |k| <= K is a direct sum of 2K + 1 terms, with K at most MAX_HEAD_K.
    The tail over |k| > K is exact in Hurwitz zeta values:

        sum_n a_n x^n [zeta(n+1, K+1+shift) + (-1)^{n+1} zeta(n+1, K+1-shift)].

    With D = K + 1 - |shift| and q = rate/D, both half-lines give
    sum_{|k|>K} |k + shift|^{-n-1} <= 2 D^{-n-1} (1 + D/n), so dropping
    n > N costs at most (2/D) sum_{n>N} (n + D) q^n, a geometric series.
    N is the least count that brings this below 10^-wdps q, for the working
    digits wdps.  Every tail term carries a factor x, so the factor q keeps
    the tail's relative precision as x goes to 0, where N falls to 1.
    Raises AccuracyError when q >= 1, where the expansion cannot be summed.

    At any shift other than 0, K = 20 unless a large rate or shift needs
    more (q <= 1/HEAD_K), and the call runs the Hurwitz pass itself.

    At shift 0, K is the least K >= 1 with q <= HEAD_Q = 1/2; the I-class
    sum, whose rate |t|/(2 pi) is below 1, has K = 1.  Only odd n survive,
    and with A = K + 1 the tail is

        sum_{n odd} w_n u^n,  w_n = 2 a_n zeta(n+1, A) (s A)^n,  u = x/(s A),

    where s is the power of two with s <= |x|/rate < 2s.  Then |u| < 2q <= 1
    and, since zeta(n+1, A) <= A^{-n-1} (1 + A/n), |w_n| <= n + 2: every
    operand of the Horner scheme is O(1).  The w_n do not depend on x:
    numerics.odd_series keeps them under the key (weights, A, s A) and sums
    the tail, in fixed point with rounding below 2^-prec times |u|, so the
    tail keeps its relative precision as x goes to 0.  The table is built
    whole at its first call, in one Euler-Maclaurin pass
    (specfun.hurwitz_zeta_values) long enough for q = HEAD_Q, since that
    pass depends on the full set of s; ``weights`` is part of the key, so
    one expansion should always pass the same function.  A complex x, or a
    head capped at MAX_HEAD_K with q > HEAD_Q, takes the per-call Hurwitz
    pass instead.
    """
    wdps = mp.mp.dps
    rate, shift, x = mp.mpf(rate), mp.mpf(shift), mp.mpmathify(x)
    # K, D and q only choose the head and the tail's length: floats will do.
    # A rate below the float range counts as the least normal float, so q
    # stays positive; a larger q only lengthens the tail.
    rate_f = max(float(rate), sys.float_info.min) if rate else 0.0
    shift_f = abs(float(shift))
    if shift == 0:
        K = max(1, math.ceil(rate_f / HEAD_Q) - 1)
    else:
        K = max(HEAD_K, math.ceil(HEAD_K * rate_f + shift_f) - 1)
    K = min(K, MAX_HEAD_K)
    D = K + 1 - shift_f
    q = rate_f / D if D > 0 else math.inf
    if q >= 1:
        raise AccuracyError(
            f"bilateral tail ratio q = {q:.5g} is not below 1 "
            f"with a head of {2 * K + 1} terms", estimate=q)
    n_terms = _tail_terms(D, q, wdps)
    head = mp.fsum(term(k) for k in range(-K, K + 1))
    if not n_terms:
        return head
    if shift == 0 and q <= HEAD_Q and isinstance(x, mp.mpf):
        A = K + 1
        sA = mp.ldexp(A, math.frexp(float(abs(x) / rate))[1] - 1)

        def tail_weights(start, stop):
            # the whole table at once: the Hurwitz pass serves every n
            n_max = _tail_terms(float(A), HEAD_Q, wdps)
            zeta = hurwitz_zeta_values(range(2, n_max + 2, 2), A, dps)
            coeffs = weights(n_max)
            return [2 * coeffs[n - 1] * zeta[n + 1] * sA ** n
                    for n in range(1, n_max + 1, 2)]

        return head + odd_series((weights, A, sA), tail_weights,
                                 (n_terms + 1) // 2, x / sA)
    a = weights(n_terms)
    ss = range(2, n_terms + 2)
    right = hurwitz_zeta_values(ss, K + 1 + shift, dps)
    left = hurwitz_zeta_values(ss, K + 1 - shift, dps)
    tail = 0
    for n in range(n_terms, 0, -1):
        zeta = right[n + 1] - (-1) ** n * left[n + 1]
        tail = (tail + a[n - 1] * zeta) * x
    return head + tail


def _tail_terms(D: float, q: float, wdps: int) -> int:
    """The least N with (2/D) sum_{n>N} (n + D) q^n <= 10^-wdps q,
    0 <= q < 1.

    sum_{n>N} q^n = q^{N+1}/(1-q) and
    sum_{n>N} n q^n = q^{N+1} ((N+1) - N q)/(1-q)^2, so the test is
    N log q + log B(N) <= log(10^-wdps D/2) with
    B(N) = ((N+1) - N q)/(1-q)^2 + D/(1-q).  Each step from N to N + 1
    multiplies the bound by at most q (2 - q) < 1.  B grows with N, so
    solving for N with B taken at a lower bound of the answer gives a
    higher lower bound; two such steps from 0, less one for rounding, leave
    numerics.least_index a step or two to make."""
    if q == 0:
        return 0
    log_q = math.log(q)
    log_eps = -wdps * math.log(10) - math.log(2 / D)

    def log_bracket(N):
        return math.log(((N + 1) - N * q) / (1 - q) ** 2 + D / (1 - q))

    lo = 0
    for _ in range(2):
        lo = max(lo, math.ceil((log_eps - log_bracket(lo)) / log_q))
    return least_index(lambda N: N * log_q + log_bracket(N) <= log_eps,
                       max(0, lo - 1))
