"""High-precision integration and error-bounded bi-infinite summation.

These routines are the numeric oracle for the series-form results: every
closed-form value produced elsewhere in the package has an evaluation path
through integrate() or bilateral_sum() that must agree with it.

bilateral_sum() stays a direct summation over a head of 2K + 1 terms.  Its
tail is exact: the caller gives the expansion of its term in powers of
1/(k + shift), the tail becomes a sum of Hurwitz zeta values, and that sum
is cut where an explicit geometric bound falls below the working
precision.  For the torsion sums the expansion is
log(1 + t/d)/(d + t) = sum_{n>=1} (-1)^{n+1} H_n t^n d^{-n-1}, |d| > |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .numerics import GUARD_DPS
from .specfun import hurwitz_zeta_values

HEAD_K = 20         # the head |k| <= K keeps q = rate/(K + 1 - |shift|) <= 1/20
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


def integrate(spec: IntegrandSpec, tol=None, dps: int = 50,
              breakpoints=None) -> QuadResult:
    """Integrate with tanh-sinh quadrature, which absorbs endpoint
    singularities of removable or logarithmic type.

    ``breakpoints`` splits the interval (useful for oscillatory integrands).
    Raises AccuracyError when the error estimate exceeds ``tol``.
    """
    with mp.workdps(dps):
        if tol is None:
            tol = mp.mpf(10) ** (2 - dps)
        points = [mp.mpf(spec.a)]
        if breakpoints:
            points.extend(mp.mpf(p) for p in breakpoints)
        points.append(mp.mpf(spec.b))
        value, err = mp.quad(spec.f, points, error=True)
        value, err = +value, +mp.mpf(abs(err))
        if err > tol:
            raise AccuracyError(
                f"quadrature error estimate {mp.nstr(err, 5)} exceeds tol",
                partial=value, estimate=err)
        return QuadResult(value=value, error_estimate=err)


def bilateral_sum(term: Callable[[int], mp.mpf], weights: Weights, x, rate,
                  shift=0, dps: int = 50) -> mp.mpf:
    """Sum term(k) over all integers k, with an exact tail.

    The caller states the expansion of its term away from the origin:

        term(k) = sum_{n>=1} a_n x^n (k + shift)^{-n-1}   for |k + shift| > rate,

    with weights(N, wdps) returning a_1, ..., a_N at wdps digits.  The a_n
    must not depend on x, and |a_n x^n| <= n rate^n.  The head |k| <= K
    stays a direct sum of 2K + 1 terms, with K = 20 unless a large rate or
    shift needs more (at most MAX_HEAD_K).  The tail over |k| > K is exact
    in Hurwitz zeta values:

        sum_n a_n x^n [zeta(n+1, K+1+shift) + (-1)^{n+1} zeta(n+1, K+1-shift)].

    With D = K + 1 - |shift| and q = rate/D, both half-lines give
    sum_{|k|>K} |k + shift|^{-n-1} <= 2 D^{-n-1} (1 + D/n), so dropping
    n > N costs at most (2/D) sum_{n>N} (n + D) q^n, a geometric series.
    N is the least count that brings this below 10^-(dps + GUARD_DPS).
    Raises AccuracyError when q >= 1, where the expansion cannot be summed.

    At shift = 0 only odd n survive and the tail is x P(x^2), with
    P(y) = sum_{n odd} 2 a_n zeta(n+1, K+1) y^{(n-1)/2}.  The weights of P
    do not depend on x: they are built in one Euler-Maclaurin pass
    (specfun.hurwitz_zeta_values) per (weights, K + 1, working precision),
    long enough for any q <= 1/HEAD_K, and kept in a table that grows only
    when a call needs more terms (a head capped at MAX_HEAD_K).  A call then
    sums its head and evaluates P by Horner.  At any other shift the
    Hurwitz pass runs per call.  ``weights`` is part of the table key, so
    one expansion should always pass the same function.
    """
    wdps = dps + GUARD_DPS
    with mp.workdps(wdps):
        rate, shift, x = mp.mpf(rate), mp.mpf(shift), mp.mpmathify(x)
        K = min(max(HEAD_K, int(mp.ceil(HEAD_K * rate + abs(shift))) - 1),
                MAX_HEAD_K)
        D = K + 1 - abs(shift)
        q = rate / D if D > 0 else mp.inf
        if q >= 1:
            raise AccuracyError(
                f"bilateral tail ratio q = {mp.nstr(q, 5)} is not below 1 "
                f"with a head of {2 * K + 1} terms", estimate=q)
        n_terms = _tail_terms(float(D), float(q), wdps)
        head = mp.fsum(term(k) for k in range(-K, K + 1))
        if not n_terms:
            tail = 0
        elif shift == 0:
            tail = 0
            x2 = x * x
            for w in reversed(_odd_tail(weights, K + 1, n_terms, wdps)
                              [:(n_terms + 1) // 2]):
                tail = tail * x2 + w
            tail *= x
        else:
            a = weights(n_terms, wdps)
            ss = range(2, n_terms + 2)
            right = hurwitz_zeta_values(ss, K + 1 + shift, wdps)
            left = hurwitz_zeta_values(ss, K + 1 - shift, wdps)
            tail = 0
            for n in range(n_terms, 0, -1):
                zeta = right[n + 1] - (-1) ** n * left[n + 1]
                tail = (tail + a[n - 1] * zeta) * x
        result = head + tail
    with mp.workdps(dps):
        return +result


# (weights, K + 1, working dps) -> [2 a_n zeta(n+1, K+1) for n = 1, 3, ...]
_ODD_TAILS: dict[tuple, list] = {}


def _odd_tail(weights: Weights, a: int, n_terms: int, wdps: int) -> list:
    """The weights of P in bilateral_sum at shift 0, enough for n <= n_terms.

    A new table holds every odd n that q = 1/HEAD_K needs, so its length
    and its values depend only on the key, not on the call that built it.
    Only a call with q > 1/HEAD_K (a head capped at MAX_HEAD_K) rebuilds it
    longer."""
    key = (weights, a, wdps)
    table = _ODD_TAILS.get(key, [])
    if 2 * len(table) < n_terms:
        n_max = max(n_terms, _tail_terms(float(a), 1 / HEAD_K, wdps))
        with mp.workdps(wdps):
            zeta = hurwitz_zeta_values(range(2, n_max + 2, 2), a, wdps)
            coeffs = weights(n_max, wdps)
            table = [2 * coeffs[n - 1] * zeta[n + 1]
                     for n in range(1, n_max + 1, 2)]
        _ODD_TAILS[key] = table
    return table


def _tail_terms(D: float, q: float, wdps: int) -> int:
    """The least N with (2/D) sum_{n>N} (n + D) q^n <= 10^-wdps, 0 <= q < 1.

    sum_{n>N} q^n = q^{N+1}/(1-q) and
    sum_{n>N} n q^n = q^{N+1} ((N+1) - N q)/(1-q)^2; compared in logs."""
    if q == 0:
        return 0
    log_eps = -wdps * math.log(10)
    N = 0
    while (math.log(2 / D) + (N + 1) * math.log(q)
           + math.log(((N + 1) - N * q) / (1 - q) ** 2 + D / (1 - q))
           > log_eps):
        N += 1
    return N
