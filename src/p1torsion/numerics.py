"""Exact coefficient arithmetic: rationals, symbolic constants, precision reals.

Every series coefficient and cohomology-class coefficient in this package is a
ConstExpr: a finite Q-linear combination of a small, totally ordered basis of
transcendental symbols

    ONE            the rational unit
    GAMMA          the Euler-Mascheroni constant (= -Gamma'(1))
    ZETA_PRIME(-m) zeta'(-m) for odd m >= 1
    LOG(p)         log p for prime p (log n is factored into primes)
    LOG_T          the formal symbol log|t|, which every series holds as
                   log t^2 = 2 LOG_T

Keeping log n in prime-factored form and zeta(-m) folded into the rational
part makes cancellations exact set-differences rather than numeric near-zeros.

Working precision is set in one place, the ``guarded`` decorator: every
numeric entry point of the package takes the number of digits ``dps`` it
returns and works at dps + GUARD_DPS.  One rule: the outermost guarded call
adds the guard digits and rounds its result to dps; a guarded call made
inside it inherits the working precision (at its own dps + GUARD_DPS, the
same when it passes the caller's dps) and returns its result unrounded.
So every caller passes its own dps, and function bodies read the working
digits from the current precision (mp.dps, or fixed_bits below).  Only the
Euler-Maclaurin weights of specfun (_em_weights) and the Si/Ci Taylor
series (which needs more digits as its argument grows) set a precision of
their own.

The kernels of the numeric routes of specfun, quadrature and torsion:

  * fixed_bits: the one fixed-point format, integers with scale
    2^(prec + 20) at the working precision;
  * fixed_table: the one registry of weight tables in that format, per
    (key, working precision), grown on demand: the odd series below and
    the Euler-Maclaurin weights of specfun;
  * odd_series: u sum_j w_j u^{2j} for t-independent weights w_j, kept in
    fixed_table and summed by Horner in Python integers
    (even_series_fixed, within one unit of 2^-(prec + 20) a step; Brent
    and Zimmermann, Modern Computer Arithmetic, 2010); R^rot, the I-class
    series and the shift-0 tail of quadrature.bilateral_sum state only
    their weights;
  * odd_series_terms: the term count of R^rot and of the I-class series,
    from one bound on their weights, cut at 10^-wdps |u| for the working
    digits wdps;
  * least_index: the doubling-and-bisection search for the least index at
    which a monotone stopping bound holds.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, Optional, Sequence

import mpmath as mp
from mpmath.libmp import dps_to_prec

Rational = Fraction

# Guard digits: the outermost numeric entry point works at its dps +
# GUARD_DPS digits and rounds its result to dps (see guarded).
GUARD_DPS = 10

# True while a guarded call runs, so the calls it makes are nested; one
# flag for the process, as mpmath's working precision is one
_inside_guard = False


def guarded(fn):
    """Run a numeric entry point at its ``dps`` argument + GUARD_DPS digits,
    so that the result does not depend on the caller's global mp.dps.

    Only the outermost guarded call adds the guard and rounds its result to
    dps.  A guarded call made inside it works at its own dps + GUARD_DPS,
    which changes nothing when it passes the caller's dps, and returns its
    result unrounded: guard digits are added once, at the outermost
    operation (Brent and Zimmermann, Modern Computer Arithmetic, 2010).
    The nesting state is restored on every exit, also on a BaseException.
    Rounding reaches every mpf and mpc in the result, also inside tuples,
    dicts and dataclass fields.
    """
    params = inspect.signature(fn).parameters
    index, default = list(params).index("dps"), params["dps"].default

    @functools.wraps(fn)
    def run(*args, **kwargs):
        global _inside_guard
        dps = args[index] if index < len(args) else kwargs.get("dps", default)
        if _inside_guard:
            if mp.mp.prec == dps_to_prec(dps + GUARD_DPS):  # the common case
                return fn(*args, **kwargs)
            with mp.workdps(dps + GUARD_DPS):
                return fn(*args, **kwargs)
        try:
            _inside_guard = True
            with mp.workdps(dps + GUARD_DPS):
                result = fn(*args, **kwargs)
        finally:
            _inside_guard = False
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


# ---------------------------------------------------------------------------
# Kernels shared by the numeric routes
# ---------------------------------------------------------------------------

def fixed_bits() -> int:
    """The scale 2^bits of the fixed-point numbers at the current working
    precision: bits = prec + 20, so that N < 2^20 steps of a fixed-point
    recurrence, each erring by one unit of 2^-bits, stay below 2^-prec."""
    return mp.mp.prec + 20


# (key, working precision in bits) -> [w_0, w_1, ...]: weights of the
# numeric series that do not depend on their argument, as integers with
# scale 2^fixed_bits()
_TABLES: dict[tuple, list] = {}


def fixed_table(key, weights: Callable, count: int) -> list:
    """The table under (key, current working precision), holding at least
    count fixed-point entries with scale 2^fixed_bits().

    weights(start, stop) gives the mpf w_j for start <= j < stop (or more)
    when the table is too short; a key names one table, so every call under
    it must pass the same weights.  The conversion to fixed point only
    truncates toward zero, so weights built above the working precision
    keep every bit the scale holds."""
    table = _TABLES.setdefault((key, mp.mp.prec), [])
    if len(table) < count:
        bits = fixed_bits()
        table.extend(int(mp.ldexp(w, bits))
                     for w in weights(len(table), count))
    return table


def odd_series(key, weights: Callable, count: int, u):
    """u sum_{j<count} w_j u^{2j} in mpf, |u| <= 1, at the current working
    precision, for weights w_j that do not depend on u.

    The w_j are kept in fixed_table under key.  The even sum is
    even_series_fixed at u, within count units of 2^-bits, an absolute
    error: the callers scale their weights to at most O(j), with a sum that
    is not small.  The factor u stays in mpf, so the result keeps its
    relative precision however small u is."""
    bits = fixed_bits()
    table = fixed_table(key, weights, count)
    even = even_series_fixed(table[:count], int(mp.ldexp(u, bits)), bits)
    return u * mp.ldexp(even, -bits)


def odd_series_terms(u: float, wdps: int) -> Optional[int]:
    """How many weights odd_series needs at u >= 0 for 10^-wdps relative to
    u: the least j + 1 such that the terms past m = 2j + 1 of
    sum_{m odd} |w_m| u^m sum to at most 10^-wdps u, for weights with

        |w_m| <= 2 zeta(m+1) (log(m+1) + 2.5)/(2 pi).

    The weights of R^rot meet it by the functional equation of zeta,
    |w_m| = (2 zeta(m+1)/(2 pi)) |log 2 pi - psi(m+1) - zeta'(m+1)/zeta(m+1)|,
    and those of the I-class series, 2 H_m zeta(m+1)/(2 pi), since
    H_m <= log(m+1) + 2.5.  None when u >= 1 as a float, where the series
    would need more than 10^16 terms or does not converge.

    With zeta(m+1) <= 1 + 2^-M for m > M and log(m+1) below its tangent at
    M + 3, the terms past M sum to at most
    2 (1 + 2^-M)/(2 pi) u^{M+2} [A/(1 - v) + 2v/((M+3)(1 - v)^2)],
    A = log(M+3) + 2.5, v = u^2.  Once this is at most 10^-wdps u it
    stays so for every larger M.  The same bound with A = log 4 + 2.5 and
    no second term gives the M below which it cannot be, where least_index
    starts.  u = 0, a u below the float range, needs one weight."""
    if u >= 1:
        return None
    log_u = math.log(u) if u > 0 else -math.inf
    v = u * u
    log_eps = -wdps * math.log(10)

    def reached(j):
        M = 2 * j + 1
        A = math.log(M + 3) + 2.5
        return (math.log(2 * (1 + 2.0 ** -M) / (2 * math.pi)) + (M + 1) * log_u
                + math.log(A / (1 - v) + 2 * v / ((M + 3) * (1 - v) ** 2))
                <= log_eps)

    least_m = ((log_eps - math.log((math.log(4) + 2.5) / (math.pi * (1 - v))))
               / log_u - 1)
    return least_index(reached, max(0, math.ceil((least_m - 1) / 2))) + 1


def even_series_fixed(weights: Sequence[int], u: int, bits: int) -> int:
    """sum_j weights[j] u^{2j} by Horner in u^2, in fixed point: every
    number, the result too, is an integer with scale 2^bits.  An odd series
    sum_j weights[j] v^{2j+1} is v times this sum at u = v; the caller
    multiplies by v in mpf, so the result keeps its relative precision
    however small v is.

    The square of u is kept exact, so each of the N - 1 steps after the
    first floors once and errs by less than one unit of 2^-bits.  For
    |u| <= 1 no step enlarges an earlier error, and the result is within
    N units of the sum of the given weights.  With bits = fixed_bits()
    that is below 2^-prec for any N < 2^20.  The I-class sums take at most
    about 2000 steps; R^rot takes more only near 2 pi, about 4.6e5 at
    t = 2 pi - 10^-3 and dps 50.  Python's >> floors, also below zero; the
    bound does not need the sign of u."""
    y = u * u
    two_bits = 2 * bits
    acc = 0
    for w in reversed(weights):
        acc = (acc * y >> two_bits) + w
    return acc


def least_index(holds: Callable[[int], bool], lo: int = 0,
                hi: Optional[int] = None) -> Optional[int]:
    """The least n >= lo with holds(n), for a predicate that stays true
    once it holds; with hi given, None when holds(hi) fails.

    Steps 1, 2, 4, ... up from lo until the predicate holds, then bisects
    the last step, so it makes about 2 log2(n - lo) calls where a scan
    makes n - lo."""
    if holds(lo):
        return lo
    step = 1
    while True:
        probe = lo + step
        if hi is not None and probe >= hi:
            if not holds(hi):
                return None
            probe = hi
            break
        if holds(probe):
            break
        lo, step = probe, 2 * step
    while probe - lo > 1:  # holds(probe) and not holds(lo)
        mid = (lo + probe) // 2
        if holds(mid):
            probe = mid
        else:
            lo = mid
    return probe


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
                val = specfun.zeta_prime_neg(sym.arg, dps)
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
