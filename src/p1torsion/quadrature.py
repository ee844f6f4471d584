"""High-precision integration and tail-corrected bi-infinite summation.

These routines are the numeric oracle for the series-form results: every
closed-form value produced elsewhere in the package has an evaluation path
through integrate() or bilateral_sum() that must agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import mpmath as mp


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


def bilateral_sum(term: Callable[[int], mp.mpf], K: int = 2000,
                  tol=None, dps: int = 50) -> mp.mpf:
    """Sum term(k) over all integers k, for terms with O(1/k^2) tails.

    The +k and -k terms are paired before summation so O(1/k) parts cancel
    analytically; the paired term f(k) = term(k) + term(-k) is then a
    convergent series c_0/k^2 + c_1/k^3 + ... for large k.  After summing
    |k| <= K directly, the coefficients c_i are recovered by interpolating
    f(k) k^2 in 1/k at nodes beyond K, and the tail becomes the exact
    combination sum_i c_i zeta(2+i, K+1) of Hurwitz zeta values.  The error
    estimate is the shift observed when two tail-model depths are compared.
    """
    m = 10  # tail-model depth
    with mp.workdps(dps + 20):
        if tol is None:
            tol = mp.mpf(10) ** -10

        head = mp.mpf(term(0))
        for k in range(1, K + 1):
            head += mp.mpf(term(k)) + mp.mpf(term(-k))

        def tail(depth: int):
            nodes = [(K + 1) * (j + 1) for j in range(depth)]
            A = mp.matrix(depth, depth)
            rhs = mp.matrix(depth, 1)
            for r, k in enumerate(nodes):
                x = mp.mpf(1) / k
                f = mp.mpf(term(k)) + mp.mpf(term(-k))
                rhs[r] = f * k * k
                for c in range(depth):
                    A[r, c] = x ** c
            coeffs = mp.lu_solve(A, rhs)
            return mp.fsum(coeffs[i] * mp.zeta(2 + i, K + 1)
                           for i in range(depth))

        t_full = tail(m)
        estimate = abs(t_full - tail(m - 2))
        if estimate > tol:
            raise AccuracyError(
                f"bilateral tail estimate {mp.nstr(estimate, 5)} exceeds tol",
                partial=head + t_full, estimate=estimate)
        result = head + t_full
    with mp.workdps(dps):
        return +result
