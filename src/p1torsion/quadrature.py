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
from itertools import islice
from typing import Callable, Iterable

import mpmath as mp

from .numerics import GUARD_DPS
from .specfun import hurwitz_zeta_values

HEAD_K = 20         # the head |k| <= K keeps q = rate/(K + 1 - |shift|) <= 1/20
MAX_HEAD_K = 2000


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


def bilateral_sum(term: Callable[[int], mp.mpf], coeffs: Iterable, rate,
                  shift=0, dps: int = 50) -> mp.mpf:
    """Sum term(k) over all integers k, with an exact tail.

    The caller states the expansion of its term away from the origin:

        term(k) = sum_{n>=1} c_n (k + shift)^{-n-1}   for |k + shift| > rate,

    with ``coeffs`` yielding c_1, c_2, ... and |c_n| <= n rate^n.  The head
    |k| <= K stays a direct sum of 2K + 1 terms, with K = 20 unless a large
    rate or shift needs more (at most MAX_HEAD_K).  The tail over |k| > K is
    exact in Hurwitz zeta values:

        sum_n c_n [zeta(n+1, K+1+shift) + (-1)^{n+1} zeta(n+1, K+1-shift)],

    which keeps only odd n when shift = 0, and all the zeta(n+1, .) come
    from one Euler-Maclaurin pass (specfun.hurwitz_zeta_values).  With
    D = K + 1 - |shift| and q = rate/D, both half-lines give
    sum_{|k|>K} |k + shift|^{-n-1} <= 2 D^{-n-1} (1 + D/n), so dropping
    n > N costs at most (2/D) sum_{n>N} (n + D) q^n, a geometric series.
    N is the least count that brings this below 10^-(dps + GUARD_DPS).
    Raises AccuracyError when q >= 1, where the expansion cannot be summed.
    """
    wdps = dps + GUARD_DPS
    with mp.workdps(wdps):
        rate, shift = mp.mpf(rate), mp.mpf(shift)
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
        c = list(islice(coeffs, n_terms))
        if not n_terms:
            tail = 0
        elif shift == 0:
            zeta = hurwitz_zeta_values(range(2, n_terms + 2, 2), K + 1, wdps)
            tail = mp.fsum(2 * c[n - 1] * zeta[n + 1]
                           for n in range(1, n_terms + 1, 2))
        else:
            ss = range(2, n_terms + 2)
            right = hurwitz_zeta_values(ss, K + 1 + shift, wdps)
            left = hurwitz_zeta_values(ss, K + 1 - shift, wdps)
            tail = mp.fsum(c[n - 1] * (right[n + 1] - (-1) ** n * left[n + 1])
                           for n in range(1, n_terms + 1))
        result = head + tail
    with mp.workdps(dps):
        return +result


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
