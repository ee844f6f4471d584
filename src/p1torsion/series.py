"""Truncated Laurent series in one variable t with ConstExpr coefficients.

Series are immutable. Every series records the degree window [min_degree,
order] it is valid on; arithmetic tracks the tightest valid truncation
(a product of series valid to N1, N2 with minimal degrees m1, m2 is valid to
min(N1 + m2, N2 + m1)). Poles are capped at t^-2, the worst case occurring in
any of the assembled torsion quantities (cos(.)/(t sin(t/2)) ~ 2/t^2).

A series is stored per symbol, ConstExpr (x) Q[[t]] = (+)_symbol symbol *
Q[[t]] (the "parts" of numerics): each symbol owns its integer numerators by
degree over one common denominator.  A product is one integer convolution
per pair of symbols of which one is ONE; two other symbols that meet inside
the window raise SymbolProductError, as their ConstExpr product does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

import mpmath as mp

from .numerics import (GUARD_DPS, ONE, ConstExpr, SymbolProductError, guarded,
                       harmonic, parts_coeff, parts_from, parts_keys,
                       parts_product, parts_scale, parts_select, parts_sum,
                       reduced)

MIN_DEGREE_CAP = -2
DEFAULT_ORDER = 40


class ParityError(ValueError):
    """A series had nonzero coefficients of the forbidden parity."""


class SingularityError(ZeroDivisionError):
    """Division by a series whose leading coefficient vanishes."""


class LaurentSeries:
    """Finite coefficient window of sum_{m>=m0} a_m t^m, a_m ConstExpr."""

    __slots__ = ("min_degree", "order", "_parts")

    def __init__(self, coeffs: Mapping[int, ConstExpr], min_degree: int, order: int):
        self._set(parts_from((d, c) for d, c in coeffs.items()
                             if min_degree <= d <= order), min_degree, order)

    def _set(self, parts: dict, min_degree: int, order: int):
        if min_degree < MIN_DEGREE_CAP:
            raise ValueError(f"min_degree {min_degree} below cap {MIN_DEGREE_CAP}")
        if order < min_degree:
            raise ValueError("order below min_degree")
        self.min_degree = min_degree
        self.order = order
        self._parts = parts

    @staticmethod
    def _make(parts: dict, min_degree: int, order: int) -> "LaurentSeries":
        out = object.__new__(LaurentSeries)
        out._set(parts, min_degree, order)
        return out

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return LaurentSeries({}, 0, order)

    @staticmethod
    def constant(c, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        expr = c if isinstance(c, ConstExpr) else ConstExpr.rational(c)
        return LaurentSeries({0: expr}, 0, order)

    @staticmethod
    def monomial(degree: int, c=1, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        expr = c if isinstance(c, ConstExpr) else ConstExpr.rational(c)
        return LaurentSeries({degree: expr}, min(degree, 0), max(order, degree))

    # -- queries ---------------------------------------------------------------

    def coeff(self, degree: int) -> ConstExpr:
        if degree > self.order:
            raise IndexError(f"degree {degree} beyond valid order {self.order}")
        return parts_coeff(self._parts, degree)

    def degrees(self) -> list[int]:
        return parts_keys(self._parts)

    def is_zero(self) -> bool:
        return not self._parts

    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.degrees())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        window = range(max(self.min_degree, other.min_degree),
                       min(self.order, other.order) + 1)
        return all(self.coeff(d) == other.coeff(d) for d in window)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"O(t^{self.order + 1})"
        parts = [f"({self.coeff(d)})*t^{d}" for d in self.degrees()]
        return " + ".join(parts) + f" + O(t^{self.order + 1})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return LaurentSeries._make(
            parts_sum(_upto(self._parts, order), _upto(other._parts, order)),
            min(self.min_degree, other.min_degree), order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return self.scale(-1)

    def scale(self, factor) -> "LaurentSeries":
        if not isinstance(factor, ConstExpr):
            factor = ConstExpr.rational(factor)
        return LaurentSeries._make(parts_scale(self._parts, factor),
                                   self.min_degree, self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return LaurentSeries._make(parts_select(self._parts, lambda d: d + k),
                                   self.min_degree + k, self.order + k)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction, ConstExpr)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order + other.min_degree, other.order + self.min_degree)
        lo = self.min_degree + other.min_degree

        def convolve(a: dict, b: dict) -> dict:
            out = [0] * (order - lo + 1)
            right = sorted(b.items())
            for d1, x in a.items():
                for d2, y in right:
                    if d1 + d2 > order:
                        break
                    out[d1 + d2 - lo] += x * y
            return {lo + i: x for i, x in enumerate(out) if x}

        parts = parts_product(self._parts, other._parts, convolve, int, order)
        if lo < MIN_DEGREE_CAP:
            # allowed only when the overly-deep coefficients actually vanish
            deep = parts_keys(parts)[:1]
            if deep and deep[0] < MIN_DEGREE_CAP:
                raise SingularityError(f"product has a pole of order {-deep[0]} > 2")
            lo = MIN_DEGREE_CAP
        return LaurentSeries._make(parts, lo, order)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return LaurentSeries._make(_upto(self._parts, order), self.min_degree, order)

    def tighten(self) -> "LaurentSeries":
        """Raise min_degree to the actual valuation (coefficients inside the
        old window are known, so vanishing ones sharpen order tracking)."""
        lo = min(self.degrees(), default=0)
        return LaurentSeries._make(self._parts, max(self.min_degree, min(lo, self.order)),
                                   self.order)

    def invert(self) -> "LaurentSeries":
        """1/self. The leading coefficient must be a nonzero rational.

        The rational part r is inverted by the O(n^2) recurrence for the
        reciprocal of a power series; the other symbols enter to first
        order, 1/(r + N) = 1/r - N/r^2, as N^2 would multiply two of them."""
        if self.is_zero():
            raise SingularityError("division by the zero series")
        lead_deg = self.degrees()[0]
        if not self.coeff(lead_deg).is_rational():
            raise SingularityError("leading coefficient is not rational")
        den, nums = self._parts[ONE]
        # self = (A(t)/den) t^lead_deg; 1/A = sum_k c_k t^k / e with
        # a_0 c_k = -sum_{j=1}^{k} a_j c_{k-j}, reduced after every step
        a = [nums.get(d, 0) for d in range(lead_deg, self.order + 1)]
        nonzero = [(j, x) for j, x in enumerate(a) if j and x]
        c, e = [1], a[0]
        for k in range(1, len(a)):
            acc = sum(x * c[k - j] for j, x in nonzero if j <= k)
            c = [x * a[0] for x in c] + [-acc]
            e *= a[0]
            g = gcd(e, *c)
            if g != 1:
                c, e = [x // g for x in c], e // g
        if e < 0:
            c, e = [-x for x in c], -e
        order = self.order - 2 * lead_deg
        inverse = LaurentSeries._make(
            {ONE: reduced(e, {k - lead_deg: den * x for k, x in enumerate(c)})},
            -lead_deg, order)
        rest = LaurentSeries._make({s: p for s, p in self._parts.items() if s != ONE},
                                   self.min_degree, self.order)
        if rest.is_zero():
            return inverse
        if 2 * rest.degrees()[0] - 3 * lead_deg <= order:  # where N^2/r^3 starts
            raise SymbolProductError(
                "inverse needs a product of two non-rational constants")
        return inverse - rest.tighten() * inverse * inverse

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self * other.invert()

    # -- evaluation ----------------------------------------------------------------

    @guarded
    def evaluate(self, t, logt=None, dps: int = 50):
        """Numeric value sum a_m t^m; needs t != 0 when poles are present."""
        degrees = self.degrees()
        tv = mp.mpf(t)
        if tv == 0 and self.min_degree < 0 and any(d < 0 for d in degrees):
            raise ZeroDivisionError("evaluating a pole at t = 0")
        if logt is None and tv > 0:
            logt = mp.log(tv)
        total = mp.mpf(0)
        for d in degrees:
            total += self.coeff(d).eval(dps=dps + GUARD_DPS, logt_value=logt) * tv ** d
        return total

    def to_json(self, dps: Optional[int] = None) -> dict:
        from .numerics import const_to_json
        entries = []
        for d in self.degrees():
            c = self.coeff(d)
            entry = {"deg": d, "expr": const_to_json(c)}
            if dps is not None and not c.has_logt():
                entry["numeric"] = mp.nstr(c.eval(dps=dps), dps)
            entries.append(entry)
        return {"var": "t", "min_degree": self.min_degree, "order": self.order,
                "coeffs": entries}


def _upto(parts: dict, order: int) -> dict:
    if all(max(nums) <= order for _den, nums in parts.values()):
        return parts
    return parts_select(parts, lambda d: d if d <= order else None)


# ---------------------------------------------------------------------------
# Elementary builders (exact rational Taylor/Laurent coefficients)
# ---------------------------------------------------------------------------

def build_cos_scaled(a, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """cos(a t / 2)."""
    a = Fraction(a)
    coeffs = {}
    fact = Fraction(1)
    for j in range(0, order // 2 + 1):
        if j > 0:
            fact *= (2 * j - 1) * (2 * j)
        coeffs[2 * j] = ConstExpr.rational((-1) ** j * (a / 2) ** (2 * j) / fact)
    return LaurentSeries(coeffs, 0, order)


def build_sin_scaled(a, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """sin(a t / 2)."""
    a = Fraction(a)
    coeffs = {}
    fact = Fraction(1)
    for j in range(0, (order + 1) // 2):
        if j > 0:
            fact *= (2 * j) * (2 * j + 1)
        coeffs[2 * j + 1] = ConstExpr.rational((-1) ** j * (a / 2) ** (2 * j + 1) / fact)
    return LaurentSeries(coeffs, 0, order)


def build_inv_sin_half(order: int = DEFAULT_ORDER) -> LaurentSeries:
    """1/sin(t/2) = 2/t + t/12 + 7 t^3/2880 + ...; min_degree -1.

    Closed form: x/sin x = sum_k (-1)^(k+1) (2^(2k) - 2) B_2k x^(2k)/(2k)!,
    so the coefficient of t^(2k-1) is
    (-1)^(k+1) (2^(2k) - 2) B_2k / (2^(2k-1) (2k)!)."""
    from .specfun import bernoulli  # deferred: specfun builds on this module
    coeffs = {}
    fact = 1
    for k in range(0, (order + 1) // 2 + 1):
        if k > 0:
            fact *= (2 * k - 1) * (2 * k)
        sign = 1 if k % 2 else -1
        coeffs[2 * k - 1] = ConstExpr.rational(
            Fraction(sign * (4 ** k - 2) * 2, 4 ** k * fact) * bernoulli(2 * k))
    return LaurentSeries(coeffs, -1, order)


# ---------------------------------------------------------------------------
# Harmonic-weight operators
# ---------------------------------------------------------------------------

def star(phi: LaurentSeries) -> LaurentSeries:
    """t^{2m} -> t^{2m} (2 H_{2m+1} - H_m) for m >= 0; the t^{-2} term maps to 0.

    The input must be even with min_degree >= -2.
    """
    if not phi.is_even():
        raise ParityError("star operator needs an even series")
    coeffs: dict[int, ConstExpr] = {}
    for d in phi.degrees():
        m = d // 2
        if m == -1:
            continue
        weight = 2 * harmonic(2 * m + 1) - harmonic(m)
        coeffs[d] = phi.coeff(d) * ConstExpr.rational(weight)
    return LaurentSeries(coeffs, max(phi.min_degree, 0), phi.order)


def hash_weight(phi: LaurentSeries) -> ConstExpr:
    """sum_{m>=1} a_{2m} (2 H_{2m-1} - H_{m-1}); the constant term drops out.

    The input must be an even power series (min_degree >= 0).
    """
    if phi.min_degree < 0:
        raise ParityError("# operator needs a power series (no poles)")
    if not phi.is_even():
        raise ParityError("# operator needs an even series")
    total = ConstExpr()
    for d in phi.degrees():
        m = d // 2
        if m == 0:
            continue
        weight = 2 * harmonic(2 * m - 1) - harmonic(m - 1)
        total = total + phi.coeff(d) * ConstExpr.rational(weight)
    return total
