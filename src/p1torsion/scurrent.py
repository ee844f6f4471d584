"""The equivariant Bott-Chern current pairing on the projective line.

A test profile enters the pairing only through its even symmetrization
g~(sin u); the module therefore works with scalar profiles g~ of r = sin u,
either exact even polynomials (which license the series/# path) or smooth
callables (integral path only).

The three faces of the pairing implemented here:
  * integral form  : int_{-1}^{1} (2g~(r) - 2g~(1)) dr/((1-r^2) t^2)
                     + (log t^2 + 2 gamma) 2g~(1)/t^2
  * series form    : -(2g~(r)/t^2)^# + (log t^2 + 2 gamma) 2g~(1)/t^2
  * star variant   : -(2g~(t)/t^2)^* + (log t^2 + 2 gamma) 2g~(t)/t^2
linked by the bridge identity (g~(t)/t^2)^* = (g~(t r)/t^2)^#.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

import mpmath as mp

from .numerics import LOG_T, ConstExpr, guarded
from .quadrature import IntegrandSpec, integrate
from .series import LaurentSeries, hash_weight, star


class LicensingError(ValueError):
    """Series path requested for a profile without an analytic expansion."""


@dataclass
class TestProfile:
    """An even profile g~, exact polynomial (in r) or smooth callable.

    ``poly`` maps even degrees to rational coefficients.  Polynomial profiles
    are analytic with infinite radius of convergence, so they license the
    #-series path.
    """

    poly: Optional[Mapping[int, Fraction]] = None
    func: Optional[Callable] = None

    def __post_init__(self):
        if (self.poly is None) == (self.func is None):
            raise ValueError("give exactly one of poly, func")
        if self.poly is not None:
            self.poly = {int(d): Fraction(c) for d, c in self.poly.items() if c}
            if any(d < 0 or d % 2 for d in self.poly):
                raise ValueError("profile polynomial must be even in r")

    @staticmethod
    def from_string(text: str) -> "TestProfile":
        """Parse profiles like "r^2", "1", "r^2 + 3*r^4", "-1/4*r^2"."""
        poly: dict[int, Fraction] = {}
        for piece in text.replace("-", "+-").split("+"):
            piece = piece.strip().replace(" ", "")
            if not piece:
                continue
            coeff, deg = Fraction(1), 0
            if "r" in piece:
                head, _, tail = piece.partition("r")
                head = head.rstrip("*")
                if head in ("", "-"):
                    coeff = Fraction(head + "1")
                else:
                    coeff = Fraction(head)
                deg = int(tail.lstrip("^")) if tail else 1
            else:
                coeff = Fraction(piece)
            poly[deg] = poly.get(deg, Fraction(0)) + coeff
        return TestProfile(poly=poly)

    @property
    def analytic(self) -> bool:
        return self.poly is not None

    def degree(self) -> int:
        return max(self.poly, default=0) if self.analytic else -1

    def value(self, r):
        if self.analytic:
            return mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.mpf(r) ** d
                           for d, c in self.poly.items())
        return self.func(r)

    def at_one(self) -> Fraction:
        if self.analytic:
            return sum(self.poly.values(), Fraction(0))
        raise LicensingError("exact value at 1 needs a polynomial profile")

    def as_series(self, order: Optional[int] = None) -> LaurentSeries:
        if not self.analytic:
            raise LicensingError("series path needs an analytic profile")
        order = max(self.degree(), 2) if order is None else order
        return LaurentSeries({d: ConstExpr.rational(c) for d, c in self.poly.items()},
                             0, order)


def _log_weight_symbolic() -> ConstExpr:
    """log t^2 - 2 Gamma'(1) as a symbol expression: 2 LOG_T + 2 GAMMA."""
    return ConstExpr.log_t(2) + ConstExpr.gamma(2)


@guarded
def s_pairing_integral(profile: TestProfile, t, dps: int = 50):
    """Integral form of the S-current pairing at parameter t != 0."""
    tv = mp.mpf(t)
    if tv == 0:
        raise ValueError("s_pairing_integral needs t != 0")
    g1 = mp.mpf(profile.value(1))

    def integrand(r):
        if abs(r) == 1:
            return mp.mpf(0)  # removable after combining the terms
        return (2 * profile.value(r) - 2 * g1) / (1 - r * r)

    quad = integrate(IntegrandSpec(integrand, -1, 1), dps=dps)
    weight = mp.log(tv * tv) + 2 * mp.euler
    return quad.value / tv ** 2 + weight * 2 * g1 / tv ** 2


def s_pairing_series(profile: TestProfile, t=None, dps: int = 50):
    """#-form of the pairing; symbolic LaurentSeries when t is None."""
    if not profile.analytic:
        raise LicensingError("s_pairing_series needs an analytic profile")
    hashed = hash_weight(profile.as_series() * 2)
    coeff = -hashed + _log_weight_symbolic() * ConstExpr.rational(2 * profile.at_one())
    series = LaurentSeries({-2: coeff}, -2, 2)
    if t is None:
        return series
    return series.evaluate(t, dps=dps)


def s_pairing_star_variant(profile: TestProfile, t=None, order: int = 12,
                           dps: int = 50):
    """The eta_t-substituted pairing -(2g~(t)/t^2)^* + (log t^2 + 2 gamma) 2g~(t)/t^2.

    The profile is read as g~ applied to t itself; by the bridge identity the
    result equals s_pairing_series for the rescaled profile g~(t r).
    """
    if not profile.analytic:
        raise LicensingError("star variant needs an analytic profile")
    order = max(order, profile.degree())
    base = (profile.as_series(order + 2) * 2).shift(-2)  # 2 g~(t)/t^2
    series = -star(base) + base.scale(_log_weight_symbolic())
    if t is None:
        return series
    return series.evaluate(t, dps=dps)


def _symmetrize(f: Callable) -> Callable:
    return lambda u: (f(u) + f(-u)) / 2


@guarded
def check_defining_property(f0: Callable, f1: Callable, dps: int = 50):
    """Residuals of the two critical-relation identities of the current.

    First identity: pairing the current against the profile
    g1~(sin u) = (pi/2) f1(u) cos^2(u) (which vanishes at the poles, so the
    log terms drop) must reproduce the plain integral of f1 against the
    volume form, i.e. pi * int f1(u) cos(u) du.

    Second identity: pairing against the derivative profile coming from
    -X^{1,0}.f0, whose imaginary part is (1/2) cos(u) f0'(u), must produce
    the fixed-point evaluation i f0(N) - i f0(S); with the factor i stripped
    this is f0(pi/2) - f0(-pi/2).
    """
    f1s = _symmetrize(f1)

    def g1_profile(r):
        u = mp.asin(mp.mpf(r))
        return mp.pi / 2 * f1s(u) * mp.cos(u) ** 2

    lhs1 = s_pairing_integral(TestProfile(func=g1_profile), 1, dps=dps)
    rhs1 = integrate(IntegrandSpec(
        lambda u: mp.pi * f1s(u) * mp.cos(u), -mp.pi / 2, mp.pi / 2),
        dps=dps).value
    residual1 = abs(lhs1 - rhs1)

    h = mp.mpf(10) ** (-dps // 3)

    def f0_prime(u):
        return (f0(u + h) - f0(u - h)) / (2 * h)

    def g0_profile(r):
        u = mp.asin(mp.mpf(r))
        return mp.cos(u) * f0_prime(u) / 2

    lhs2 = s_pairing_integral(TestProfile(func=g0_profile), 1, dps=dps)
    rhs2 = f0(mp.pi / 2) - f0(-mp.pi / 2)
    residual2 = abs(lhs2 - rhs2)
    return residual1, residual2


@guarded
def check_scaling(profile: TestProfile, t, c, dps: int = 50):
    """Residual of c^2 P(c t) - P(t) = log(c^2) 2g~(1)/t^2 (numeric)."""
    tv, cv = mp.mpf(t), mp.mpf(c)
    if tv == 0 or cv <= 0:
        raise ValueError("check_scaling needs t != 0 and c > 0")
    g1 = mp.mpf(profile.value(1))
    lhs = cv ** 2 * s_pairing_integral(profile, cv * tv, dps=dps)
    rhs = s_pairing_integral(profile, tv, dps=dps) + mp.log(cv ** 2) * 2 * g1 / tv ** 2
    return abs(lhs - rhs)


def check_scaling_symbolic(profile: TestProfile, c) -> ConstExpr:
    """Exact symbolic scaling residual for polynomial profiles and rational
    c > 0; must come out identically zero.

    Replacing t by c t sends LOG_T to LOG_T + log(c), everything else fixed.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    base = s_pairing_series(profile).coeff(-2)  # P(t) * t^2
    shift = ConstExpr.log_rational(c).scale(base.coeff(LOG_T))
    scaled = base + shift  # c^2 P(ct) * t^2
    expected = ConstExpr.log_rational(c * c) * ConstExpr.rational(2 * profile.at_one())
    return scaled - base - expected
