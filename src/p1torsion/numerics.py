"""Exact coefficient arithmetic: rationals, symbolic constants, precision reals.

Every series coefficient and cohomology-class coefficient in this package is a
ConstExpr: a finite Q-linear combination of a small, totally ordered basis of
transcendental symbols

    ONE            the rational unit
    GAMMA          the Euler-Mascheroni constant (= -Gamma'(1))
    ZETA_PRIME(-m) zeta'(-m) for odd m >= 1
    LOG(p)         log p for prime p (log n is factored into primes)
    LOG_T          the formal symbol log t

Keeping log n in prime-factored form and zeta(-m) folded into the rational
part makes cancellations exact set-differences rather than numeric near-zeros.

Working precision is set in one place, the ``guarded`` decorator: every
numeric entry point of the package takes the number of digits ``dps`` it
returns, works at dps + GUARD_DPS and rounds its result to dps.  Only the
tables keyed on a working precision and the Si/Ci Taylor series (which needs
more digits as its argument grows) set a precision of their own.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Optional

import mpmath as mp

Rational = Fraction

# Guard digits: every numeric entry point works at its dps + GUARD_DPS digits
# and rounds its result to dps (see guarded).
GUARD_DPS = 10


def guarded(fn):
    """Run a numeric entry point at its ``dps`` argument + GUARD_DPS digits
    and round its result to dps, so that the result does not depend on the
    caller's global mp.dps.

    Inside the call ``dps`` still names the requested precision: an inner
    guarded call given dps works at the same dps + GUARD_DPS, not under a
    second guard.  Rounding reaches every mpf and mpc in the result, also
    inside tuples, dicts and dataclass fields.
    """
    params = inspect.signature(fn).parameters
    index, default = list(params).index("dps"), params["dps"].default

    @functools.wraps(fn)
    def run(*args, **kwargs):
        dps = args[index] if index < len(args) else kwargs.get("dps", default)
        with mp.workdps(dps + GUARD_DPS):
            result = fn(*args, **kwargs)
        with mp.workdps(dps):
            return _rounded(result)

    return run


def _rounded(value):
    """value with every mpf and mpc in it rounded to the current precision."""
    if isinstance(value, (mp.mpf, mp.mpc)):
        return +value
    if isinstance(value, tuple):
        return tuple(map(_rounded, value))
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: _rounded(getattr(value, f.name))
            for f in dataclasses.fields(value)})
    return value


class SymbolProductError(TypeError):
    """Raised when multiplying two non-rational ConstExpr values."""


class EvaluationError(ValueError):
    """Raised when a symbolic value cannot be evaluated numerically."""


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

# kind ranks fix the canonical total order used for deterministic summation.
_KIND_RANK = {"ONE": 0, "GAMMA": 1, "ZETA_PRIME": 2, "LOG": 3, "LOG_T": 4}


@dataclass(frozen=True, order=False)
class ConstSymbol:
    """One basis symbol. ``arg`` is m for ZETA_PRIME(-m), p for LOG(p), else 0."""

    kind: str
    arg: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "ZETA_PRIME":
            if self.arg < 1 or self.arg % 2 == 0:
                raise ValueError("ZETA_PRIME symbols exist only for odd m >= 1")
        elif self.kind == "LOG":
            if self.arg < 2:
                raise ValueError("LOG symbols need an integer argument >= 2")
        elif self.arg != 0:
            raise ValueError(f"{self.kind} takes no argument")

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.arg)

    def __lt__(self, other: "ConstSymbol") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.kind == "ZETA_PRIME":
            return f"ZETA_PRIME(-{self.arg})"
        if self.kind == "LOG":
            return f"LOG({self.arg})"
        return self.kind


ONE = ConstSymbol("ONE")
GAMMA = ConstSymbol("GAMMA")
LOG_T = ConstSymbol("LOG_T")

def _prime_factors(n: int) -> Iterator[tuple[int, int]]:
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            yield d, e
        d += 1
    if n > 1:
        yield n, 1


# ---------------------------------------------------------------------------
# ConstExpr
# ---------------------------------------------------------------------------

class ConstExpr:
    """Finite map ConstSymbol -> Fraction, with no zero coefficients stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[ConstSymbol, Fraction]] = None):
        clean: dict[ConstSymbol, Fraction] = {}
        if terms:
            for sym, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[sym] = c
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rational(value) -> "ConstExpr":
        return ConstExpr({ONE: Fraction(value)})

    @staticmethod
    def gamma(coeff=1) -> "ConstExpr":
        return ConstExpr({GAMMA: Fraction(coeff)})

    @staticmethod
    def zeta_prime(m: int, coeff=1) -> "ConstExpr":
        return ConstExpr({ConstSymbol("ZETA_PRIME", m): Fraction(coeff)})

    @staticmethod
    def log_t(coeff=1) -> "ConstExpr":
        return ConstExpr({LOG_T: Fraction(coeff)})

    @staticmethod
    def log_int(n: int, coeff=1) -> "ConstExpr":
        """log n, stored prime-factored so that e.g. log 4 == 2 log 2 exactly."""
        if n < 1:
            raise ValueError("log_int needs n >= 1")
        terms = {ConstSymbol("LOG", p): Fraction(coeff) * e for p, e in _prime_factors(n)}
        return ConstExpr(terms)

    @staticmethod
    def log_rational(q) -> "ConstExpr":
        """log q for a positive rational q."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("log_rational needs q > 0")
        return ConstExpr.log_int(q.numerator) - ConstExpr.log_int(q.denominator)

    # -- queries -------------------------------------------------------------

    def terms(self) -> list[tuple[ConstSymbol, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, sym: ConstSymbol) -> Fraction:
        return self._terms.get(sym, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(sym == ONE for sym in self._terms)

    def has_logt(self) -> bool:
        return LOG_T in self._terms

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return self.coeff(ONE)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ConstExpr") -> "ConstExpr":
        if not isinstance(other, ConstExpr):
            return NotImplemented
        terms = dict(self._terms)
        for sym, c in other._terms.items():
            terms[sym] = terms.get(sym, Fraction(0)) + c
        return ConstExpr(terms)

    def __sub__(self, other: "ConstExpr") -> "ConstExpr":
        return self + (-other)

    def __neg__(self) -> "ConstExpr":
        return ConstExpr({s: -c for s, c in self._terms.items()})

    def scale(self, factor) -> "ConstExpr":
        f = Fraction(factor)
        return ConstExpr({s: c * f for s, c in self._terms.items()})

    def __mul__(self, other) -> "ConstExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, ConstExpr):
            if other.is_rational():
                return self.scale(other.coeff(ONE))
            if self.is_rational():
                return other.scale(self.coeff(ONE))
            raise SymbolProductError(
                f"product of two non-rational constants: ({self}) * ({other})"
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ConstExpr.rational(other)
        if not isinstance(other, ConstExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for sym, c in self.terms():
            if sym == ONE:
                parts.append(str(c))
            elif c == 1:
                parts.append(str(sym))
            elif c == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{c}*{sym}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- numeric evaluation ----------------------------------------------------

    @guarded
    def eval(self, dps: int = 50, logt_value=None) -> mp.mpf:
        """Substitute numeric values for all symbols and return the sum.

        ``logt_value`` must be supplied when a LOG_T term is present.
        Summation runs in canonical symbol order, so the result is
        independent of construction order.
        """
        from . import specfun  # deferred: specfun builds on this module

        total = mp.mpf(0)
        for sym, c in self.terms():
            coeff = mp.mpf(c.numerator) / c.denominator
            if sym == ONE:
                val = mp.mpf(1)
            elif sym == GAMMA:
                val = +mp.euler
            elif sym == LOG_T:
                if logt_value is None:
                    raise EvaluationError("LOG_T present but no logt_value given")
                val = mp.mpf(logt_value)
            elif sym.kind == "LOG":
                val = mp.log(sym.arg)
            else:  # ZETA_PRIME
                val = specfun.zeta_prime_neg(sym.arg, dps=dps + GUARD_DPS)
            total += coeff * val
        return total


ZERO_EXPR = ConstExpr()
ONE_EXPR = ConstExpr.rational(1)


# ---------------------------------------------------------------------------
# Polynomials over ConstExpr, stored per symbol
# ---------------------------------------------------------------------------
# ConstExpr (x) R = (+)_symbol symbol * R for R = Q[[t]] (LaurentSeries) or
# Q[c1, c2] (BaseClass).  "Parts" map each symbol that occurs to
# (den, {key: numerator}): a positive common denominator and the nonzero
# integer numerators of its monomials, with no factor common to den and all
# numerators, so equal values have equal parts.  A key labels a monomial:
# the degree in t, or (a, b) for c1^a c2^b.

def reduced(den: int, nums: Mapping):
    """(den, nums) without zero entries or common factor; None if empty."""
    if not all(nums.values()):
        nums = {k: x for k, x in nums.items() if x}
    if not nums:
        return None
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: x // g for k, x in nums.items()}
    return den, nums


def parts_from(items) -> dict:
    """The parts of sum_key coeff * key over (key, ConstExpr) pairs."""
    columns: dict = {}
    for key, c in items:
        for sym, q in c._terms.items():
            columns.setdefault(sym, {})[key] = q
    parts = {}
    for sym, col in columns.items():
        den = lcm(*(q.denominator for q in col.values()))
        parts[sym] = (den, {k: q.numerator * (den // q.denominator)
                            for k, q in col.items()})
    return parts


def parts_sum(*summands: dict) -> dict:
    """The sum; a symbol found in one summand only keeps its part as is."""
    acc: dict = {}
    combined = set()
    for parts in summands:
        for sym, (den, nums) in parts.items():
            if sym not in acc:
                acc[sym] = (den, nums)
                continue
            old_den, old_nums = acc[sym]
            g = gcd(old_den, den)
            a, b = den // g, old_den // g
            out = {k: x * a for k, x in old_nums.items()}
            for k, y in nums.items():
                out[k] = out.get(k, 0) + y * b
            acc[sym] = (old_den * a, out)
            combined.add(sym)
    for sym in combined:
        acc[sym] = reduced(*acc[sym])
    return {sym: p for sym, p in acc.items() if p}


def parts_select(parts: dict, rekey) -> dict:
    """Every key k moved to rekey(k), or dropped where that is None."""
    out = {}
    for sym, (den, nums) in parts.items():
        moved = {new: x for k, x in nums.items() if (new := rekey(k)) is not None}
        if (p := reduced(den, moved)):
            out[sym] = p
    return out


def parts_scale(parts: dict, factor: ConstExpr) -> dict:
    """The parts times factor; a non-rational factor meets ONE only."""
    if factor.is_rational():
        pairs = [(sym, p, factor.coeff(ONE)) for sym, p in parts.items()]
    else:
        symbolic = [sym for sym in parts if sym != ONE]
        if symbolic:
            raise SymbolProductError(
                f"product of two non-rational constants: {symbolic[0]} * ({factor})")
        pairs = [(sym, parts[ONE], q) for sym, q in factor._terms.items()
                 if ONE in parts]
    out = {}
    for sym, (den, nums), q in pairs:
        if (p := reduced(den * q.denominator,
                         {k: x * q.numerator for k, x in nums.items()})):
            out[sym] = p
    return out


def parts_product(left: dict, right: dict, multiply, weight, limit: int) -> dict:
    """One multiply(nums, nums) per pair of symbols of which one is ONE.  Two
    other symbols may meet only beyond the window: their lowest weights
    (weight of a key: its degree) must add up to more than limit."""
    products = []
    for sym1, (den1, nums1) in left.items():
        for sym2, (den2, nums2) in right.items():
            if sym1 != ONE and sym2 != ONE:
                if min(map(weight, nums1)) + min(map(weight, nums2)) <= limit:
                    raise SymbolProductError(
                        f"product of two non-rational constants: {sym1} * {sym2}")
                continue
            product = reduced(den1 * den2, multiply(nums1, nums2))
            if product:
                products.append({sym2 if sym1 == ONE else sym1: product})
    return parts_sum(*products)


def parts_coeff(parts: dict, key) -> ConstExpr:
    return ConstExpr({sym: Fraction(nums[key], den)
                      for sym, (den, nums) in parts.items() if key in nums})


def parts_keys(parts: dict) -> list:
    return sorted(set().union(*(nums for _den, nums in parts.values())))


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

_harmonic_cache: list[Fraction] = [Fraction(0)]


def harmonic(m: int) -> Fraction:
    """H_m = sum_{j=1..m} 1/j as an exact rational; harmonic(0) = 0."""
    if m < 0:
        raise ValueError("harmonic needs m >= 0")
    while len(_harmonic_cache) <= m:
        j = len(_harmonic_cache)
        _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, j))
    return _harmonic_cache[m]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def const_to_json(e: ConstExpr) -> dict:
    return {
        "terms": [
            {"symbol": str(sym), "num": str(c.numerator), "den": str(c.denominator)}
            for sym, c in e.terms()
        ]
    }
