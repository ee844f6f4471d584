"""Truncated cohomology rings for P^1-bundles.

The base ring is the free graded-commutative ring on c1 (degree 2) and c2
(degree 4) over exact symbolic constants, truncated at a total degree cap.
The bundle ring adds the relative hyperplane class x with the Grothendieck
relation x^2 = -c1 x - c2, so every class has a normal form a + b x with
base classes a, b.  Fiber integration is pi_*(a + b x) = b.

All arithmetic in this module is exact; there is no floating point anywhere.
A base class is stored per symbol, ConstExpr[c1, c2] = (+)_symbol
symbol * Q[c1, c2] (the "parts" of numerics): each symbol owns integer
numerators of monomials c1^a c2^b over one common denominator, so a product
is one integer polynomial product per pair of symbols of which one is ONE.
"""

from __future__ import annotations

from fractions import Fraction

from .numerics import (ConstExpr, ONE_EXPR, const_to_json, parts_coeff,
                       parts_from, parts_keys, parts_product, parts_scale,
                       parts_sum)
from .series import LaurentSeries, build_cos_scaled, build_inv_sin_half
from .specfun import bernoulli, gs_r_alt_series, gs_r_series

DEFAULT_DEGREE_CAP = 12


def _as_expr(c) -> ConstExpr:
    return c if isinstance(c, ConstExpr) else ConstExpr.rational(c)


def _degree(key) -> int:
    return 2 * key[0] + 4 * key[1]


class BaseClass:
    """Polynomial in c1 (degree 2) and c2 (degree 4) over ConstExpr,
    truncated at total degree `cap` (an even integer)."""

    __slots__ = ("_parts", "cap")

    def __init__(self, terms=None, cap: int = DEFAULT_DEGREE_CAP):
        if cap < 0 or cap % 2:
            raise ValueError("degree cap must be a nonnegative even integer")
        self.cap = cap
        self._parts = parts_from((key, _as_expr(coeff))
                                 for key, coeff in (terms or {}).items()
                                 if _degree(key) <= cap)

    @staticmethod
    def _make(parts: dict, cap: int) -> "BaseClass":
        out = object.__new__(BaseClass)
        out._parts = parts
        out.cap = cap
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cap: int = DEFAULT_DEGREE_CAP) -> "BaseClass":
        return BaseClass({}, cap)

    @staticmethod
    def one(cap: int = DEFAULT_DEGREE_CAP) -> "BaseClass":
        return BaseClass({(0, 0): ONE_EXPR}, cap)

    @staticmethod
    def monomial(a: int, b: int, coeff=1,
                 cap: int = DEFAULT_DEGREE_CAP) -> "BaseClass":
        return BaseClass({(a, b): coeff}, cap)

    @staticmethod
    def c1(cap: int = DEFAULT_DEGREE_CAP) -> "BaseClass":
        return BaseClass.monomial(1, 0, 1, cap)

    @staticmethod
    def c2(cap: int = DEFAULT_DEGREE_CAP) -> "BaseClass":
        return BaseClass.monomial(0, 1, 1, cap)

    # -- queries -----------------------------------------------------------

    def terms(self):
        return [(key, self.coeff(*key)) for key in parts_keys(self._parts)]

    def coeff(self, a: int, b: int) -> ConstExpr:
        return parts_coeff(self._parts, (a, b))

    def is_zero(self) -> bool:
        return not self._parts

    def __eq__(self, other) -> bool:
        if not isinstance(other, BaseClass):
            return NotImplemented
        return self.cap == other.cap and self._parts == other._parts

    def __hash__(self):
        return hash((self.cap, tuple(self.terms())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "BaseClass(0)"
        body = " + ".join(f"({coeff})*c1^{a}*c2^{b}"
                          for (a, b), coeff in self.terms())
        return f"BaseClass({body})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_cap(self, other: "BaseClass"):
        if self.cap != other.cap:
            raise ValueError("degree caps differ")

    def __add__(self, other: "BaseClass") -> "BaseClass":
        self._require_same_cap(other)
        return BaseClass._make(parts_sum(self._parts, other._parts), self.cap)

    def __sub__(self, other: "BaseClass") -> "BaseClass":
        return self + (-other)

    def __neg__(self) -> "BaseClass":
        return self.scale(-1)

    def scale(self, c) -> "BaseClass":
        return BaseClass._make(parts_scale(self._parts, _as_expr(c)), self.cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ConstExpr)):
            return self.scale(other)
        self._require_same_cap(other)
        cap = self.cap

        def multiply(left: dict, right: dict) -> dict:
            by_degree = sorted((_degree(k), k, y) for k, y in right.items())
            out: dict = {}
            for (a1, b1), x in left.items():
                room = cap - 2 * a1 - 4 * b1
                for degree, (a2, b2), y in by_degree:
                    if degree > room:
                        break
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + x * y
            return out

        return BaseClass._make(
            parts_product(self._parts, other._parts, multiply, _degree, cap), cap)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {f"c1^{a} c2^{b} x^0": const_to_json(coeff)
                for (a, b), coeff in self.terms()}


class BundleClass:
    """Class a + b x on the projectivization, with x^2 = -c1 x - c2.

    `relation_sign` controls the sign of the c1 x term in the relation:
    -1 (the default) is the Grothendieck relation; +1 is kept only as a
    negative control for tests.
    """

    __slots__ = ("a", "b", "relation_sign")

    def __init__(self, a: BaseClass, b: BaseClass, relation_sign: int = -1):
        if a.cap != b.cap:
            raise ValueError("degree caps differ")
        if relation_sign not in (-1, 1):
            raise ValueError("relation_sign must be -1 or +1")
        self.a = a
        self.b = b
        self.relation_sign = relation_sign

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cap: int = DEFAULT_DEGREE_CAP,
             relation_sign: int = -1) -> "BundleClass":
        return BundleClass(BaseClass.zero(cap), BaseClass.zero(cap),
                           relation_sign)

    @staticmethod
    def one(cap: int = DEFAULT_DEGREE_CAP,
            relation_sign: int = -1) -> "BundleClass":
        return BundleClass(BaseClass.one(cap), BaseClass.zero(cap),
                           relation_sign)

    @staticmethod
    def from_base(base: BaseClass, relation_sign: int = -1) -> "BundleClass":
        return BundleClass(base, BaseClass.zero(base.cap), relation_sign)

    @staticmethod
    def x(cap: int = DEFAULT_DEGREE_CAP,
          relation_sign: int = -1) -> "BundleClass":
        return BundleClass(BaseClass.zero(cap), BaseClass.one(cap),
                           relation_sign)

    # -- queries -----------------------------------------------------------

    @property
    def cap(self) -> int:
        return self.a.cap

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.relation_sign == other.relation_sign)

    def __repr__(self) -> str:
        return f"BundleClass({self.a!r} + ({self.b!r})*x)"

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "BundleClass"):
        if self.cap != other.cap:
            raise ValueError("degree caps differ")
        if self.relation_sign != other.relation_sign:
            raise ValueError("relation signs differ")

    def __add__(self, other: "BundleClass") -> "BundleClass":
        self._require_compatible(other)
        return BundleClass(self.a + other.a, self.b + other.b,
                           self.relation_sign)

    def __sub__(self, other: "BundleClass") -> "BundleClass":
        return self + (-other)

    def __neg__(self) -> "BundleClass":
        return BundleClass(-self.a, -self.b, self.relation_sign)

    def scale(self, c) -> "BundleClass":
        return BundleClass(self.a.scale(c), self.b.scale(c),
                           self.relation_sign)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ConstExpr)):
            return self.scale(other)
        if isinstance(other, BaseClass):
            other = BundleClass.from_base(other, self.relation_sign)
        self._require_compatible(other)
        # (a1 + b1 x)(a2 + b2 x) with x^2 = s c1 x - c2, s = relation_sign
        cap = self.cap
        cross = self.b * other.b
        a = self.a * other.a - cross * BaseClass.c2(cap)
        b = (self.a * other.b + self.b * other.a
             + cross * BaseClass.c1(cap) * self.relation_sign)
        return BundleClass(a, b, self.relation_sign)

    __rmul__ = __mul__

    def power(self, n: int) -> "BundleClass":
        if n < 0:
            raise ValueError("negative power")
        result = BundleClass.one(self.cap, self.relation_sign)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self) -> dict:
        out = {f"c1^{a} c2^{b} x^0": const_to_json(coeff)
               for (a, b), coeff in self.a.terms()}
        out.update({f"c1^{a} c2^{b} x^1": const_to_json(coeff)
                    for (a, b), coeff in self.b.terms()})
        return out


def fiber_integrate(q: BundleClass) -> BaseClass:
    """pi_*(a + b x) = b."""
    return q.b


# ---------------------------------------------------------------------------
# Characteristic-class series in a nilpotent class
# ---------------------------------------------------------------------------

def compose_nilpotent(coeffs, cls: BundleClass) -> BundleClass:
    """sum_n coeffs[n] cls^n for a dict {n: coefficient}; finite because cls
    is nilpotent in the truncated ring (cls must have no degree-0 part)."""
    if not cls.a.coeff(0, 0).is_zero():
        raise ValueError("class must have zero degree-0 part")
    result = BundleClass.zero(cls.cap, cls.relation_sign)
    power = BundleClass.one(cls.cap, cls.relation_sign)
    top = max(coeffs) if coeffs else 0
    # cls^n has x-part of degree 2n - 2, so powers survive up to cap//2 + 1
    for n in range(0, min(top, cls.cap // 2 + 1) + 1):
        c = coeffs.get(n)
        if c is not None:
            result = result + power.scale(c)
        power = power * cls
    return result


def ch_line(ell: int, cap: int = DEFAULT_DEGREE_CAP,
            relation_sign: int = -1) -> BundleClass:
    """Chern character exp(ell x) of O(ell)."""
    coeffs = {n: Fraction(ell ** n, _factorial(n))
              for n in range(cap // 2 + 2)}
    return compose_nilpotent(coeffs, BundleClass.x(cap, relation_sign))


def todd_line(c: BundleClass) -> BundleClass:
    """Todd class c/(1 - e^{-c}) of a line bundle with first Chern class c."""
    coeffs = todd_coefficients(c.cap // 2 + 1)
    return compose_nilpotent(coeffs, c)


def todd_coefficients(order: int) -> dict:
    """Taylor coefficients of z/(1 - e^{-z}): 1 + z/2 + sum B_{2k} z^{2k}/(2k)!."""
    coeffs = {0: Fraction(1), 1: Fraction(1, 2)}
    for k in range(1, order // 2 + 1):
        coeffs[2 * k] = Fraction(bernoulli(2 * k), _factorial(2 * k))
    return coeffs


def gs_r_line(c: BundleClass) -> BundleClass:
    """The Gillet-Soule R-class of a line bundle with first Chern class c:
    the odd additive series with coefficients 2 zeta'(-m) + H_m zeta(-m)."""
    series = gs_r_series(max(c.cap // 2 + 1, 1))
    coeffs = {n: series.coeff(n) for n in series.degrees()
              if not series.coeff(n).is_zero()}
    return compose_nilpotent(coeffs, c)


def exp_base(base: BaseClass) -> BaseClass:
    """exp of a base class with zero degree-0 part (nilpotent)."""
    if not base.coeff(0, 0).is_zero():
        raise ValueError("class must have zero degree-0 part")
    result = BaseClass.one(base.cap)
    power = BaseClass.one(base.cap)
    for n in range(1, base.cap // 2 + 1):
        power = power * base
        if power.is_zero():
            break
        result = result + power.scale(Fraction(1, _factorial(n)))
    return result


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# The arithmetic-GRR R-term and its closed form
# ---------------------------------------------------------------------------

def grr_r_term(ell: int, cap: int = DEFAULT_DEGREE_CAP,
               relation_sign: int = -1) -> BaseClass:
    """pi_*( ch(O(ell)) Td(Tpi) R(Tpi) ) with c1(Tpi) = 2x + c1, computed by
    exact ring arithmetic with symbolic zeta'(-m) coefficients.

    Fiber integration lowers total degree by 2, so the integrand is built
    with the cap raised by 2 and the result re-truncated."""
    inner = cap + 2
    c_tpi = (BundleClass.x(inner, relation_sign).scale(2)
             + BundleClass.from_base(BaseClass.c1(inner), relation_sign))
    integrand = (ch_line(ell, inner, relation_sign)
                 * todd_line(c_tpi) * gs_r_line(c_tpi))
    pushed = fiber_integrate(integrand)
    return BaseClass(dict(pushed.terms()), cap)


def substitute_even_series(series: LaurentSeries, cap: int) -> BaseClass:
    """For an even power series S(t), the base class S with
    t^{2m} -> (-1)^m (c1^2 - 4 c2)^m, i.e. the substitution -t^2 -> c1^2 - 4c2."""
    if series.min_degree < 0:
        raise ValueError("series must be a power series")
    disc = (BaseClass.monomial(2, 0, 1, cap)
            + BaseClass.monomial(0, 1, -4, cap))
    result = BaseClass.zero(cap)
    power = BaseClass.one(cap)
    for m in range(0, cap // 4 + 1):
        if 2 * m <= series.order:
            coeff = series.coeff(2 * m)
            if not coeff.is_zero():
                sign = 1 if m % 2 == 0 else -1
                result = result + power.scale(coeff * ConstExpr.rational(sign))
        power = power * disc
    # odd coefficients must vanish for the substitution to be defined
    for n in series.degrees():
        if n % 2 and not series.coeff(n).is_zero():
            raise ValueError(f"odd coefficient at t^{n} is nonzero")
    return result


def t_tilde_series(ell: int, order: int) -> LaurentSeries:
    """The R-class summand of the infinitesimally equivariant torsion:
    -cos((ell+1)t/2)/sin(t/2) * sum_{m odd}(2 zeta'(-m) + H_m zeta(-m))
    (-1)^{(m+1)/2} t^m/m!; an even power series in t."""
    prefactor = build_cos_scaled(ell + 1, order + 2) * \
        build_inv_sin_half(order + 2)  # valid to t^(order+1)
    return ((-prefactor) * gs_r_alt_series(order + 1)).tighten()


def check_grr_cancellation(ell: int, cap: int = DEFAULT_DEGREE_CAP,
                           relation_sign: int = -1) -> BaseClass:
    """grr_r_term(ell) minus e^{-ell c1/2} T~_ell(c1^2 - 4 c2); must be the
    zero class in every degree <= cap.  Returns the exact residual."""
    lhs = grr_r_term(ell, cap, relation_sign)
    series = t_tilde_series(ell, cap // 2 + 2)
    closed = exp_base(BaseClass.c1(cap).scale(Fraction(-ell, 2))) \
        * substitute_even_series(series, cap)
    return lhs - closed


def grr_failure_degrees(residual: BaseClass):
    """Degrees at which a residual class is nonzero (empty when exact)."""
    return sorted({2 * a + 4 * b for (a, b) in dict(residual.terms())})
