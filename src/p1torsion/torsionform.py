"""Analytic torsion forms on P^1-bundles and the height of P^1 over Z.

The torsion form for O(ell) on the projectivization of a rank-2 bundle E is
e^{-(ell/2) c1(E)} T_ell(c1(E)^2 - 4 c2(E)), where T_ell is the even power
series of the infinitesimal equivariant torsion
(torsion.torsion_infinitesimal).  That series is checked independently by
the GRR cancellation (chowring.check_grr_cancellation), by the closed-form
degree-0 and t^2 coefficients, and against the numeric chain
torsion_group - tdchs + I-class.  The height computation assembles the
r-class fixed-point term and the Bott-Chern S-term; all log t and
Euler-gamma contributions must cancel exactly, leaving the rational value
1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import ConstExpr, ZERO_EXPR, harmonic
from .series import DEFAULT_ORDER, LaurentSeries
from .chowring import (BaseClass, DEFAULT_DEGREE_CAP, exp_base,
                       substitute_even_series)
from .scurrent import TestProfile, s_pairing_star_variant
from .torsion import torsion_infinitesimal


class AssemblyError(Exception):
    """Internal consistency failure while assembling a closed formula."""


@dataclass(frozen=True)
class TorsionFormClass:
    """A torsion form as an exact base-ring class with provenance."""
    base: BaseClass
    ell: int
    order: int

    def to_json(self) -> dict:
        return self.base.to_json()


# ---------------------------------------------------------------------------
# The even power series T_ell
# ---------------------------------------------------------------------------

def t_ell_series(ell: int, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """T_ell(-t^2) as an exact even power series: the infinitesimal
    equivariant torsion of O(ell), assembled once in the torsion module."""
    return torsion_infinitesimal(ell, order).payload


def torsion_form(ell: int, cap: int = DEFAULT_DEGREE_CAP,
                 order: int = None) -> TorsionFormClass:
    """The torsion form e^{-(ell/2) c1} T_ell(c1^2 - 4 c2) as an exact class
    truncated at total degree `cap` (even)."""
    if cap % 2:
        raise ValueError("degree cap must be even")
    if order is None:
        order = max(cap // 2 + 2, 4)
    if cap > 2 * order:
        raise ValueError("cap must be <= 2*order")
    base = exp_base(BaseClass.c1(cap).scale(Fraction(-ell, 2))) \
        * substitute_even_series(t_ell_series(ell, order), cap)
    return TorsionFormClass(base=base, ell=ell, order=order)


# ---------------------------------------------------------------------------
# The r-class and the height of P^1 over Z
# ---------------------------------------------------------------------------

def r_class_fixed_point(q: Fraction, j: int = 0) -> ConstExpr:
    """The bracket -2 Gamma'(1) + 2 log|phi| - H_j of the additive r-class
    at an isolated fixed point where the field acts with angle phi = q t,
    q a nonzero rational.  At isolated fixed points c1 = 0, so only the
    j = 0 term of the class survives; higher j are supported for the
    contract's sake."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("r-class needs a nonzero angle")
    return (ConstExpr.gamma(2) + ConstExpr.log_rational(abs(q)).scale(2)
            + ConstExpr.log_t(2) - ConstExpr.rational(harmonic(j)))


def height_r_term() -> ConstExpr:
    """-1/2 int c1(O(1))^2 r(N)/c_top(N) over the fixed points of the torus
    action: angles phi = +-t/2 on O(1) and theta = +-t on the normal bundle,
    giving sum_p phi_p^2/theta^2 (gamma + log|theta|) = gamma/2 + (1/4)log t^2."""
    total = ZERO_EXPR
    for phi_q, theta_q in ((Fraction(1, 2), Fraction(1)),
                           (Fraction(-1, 2), Fraction(-1))):
        bracket = r_class_fixed_point(theta_q, 0).scale(Fraction(1, 2))
        total = total + bracket.scale(phi_q ** 2 / theta_q ** 2)
    return total


def height_s_term() -> ConstExpr:
    """(1/2) int eta_t S_tX with eta_t = (m^L(tX))^2, i.e. the star-variant
    pairing for the profile -t^2/4, halved: (1 - log t - gamma)/2."""
    profile = TestProfile(poly={2: Fraction(-1, 4)})
    series = s_pairing_star_variant(profile)
    for n in series.degrees():
        if n != 0 and not series.coeff(n).is_zero():
            raise AssemblyError(f"height S-term has stray degree {n}")
    return series.coeff(0).scale(Fraction(1, 2))


def height_components():
    """(r-term, S-term, total) of the height of P^1 over Z, all exact."""
    r_term = height_r_term()
    s_term = height_s_term()
    return r_term, s_term, r_term + s_term


def height_p1z() -> ConstExpr:
    """The height of P^1 over Z with respect to O(1): exactly 1/2.

    The log t and gamma contributions of the r-term and the S-term must
    cancel symbolically; any residue raises AssemblyError."""
    _, _, total = height_components()
    if not total.is_rational():
        raise AssemblyError(
            f"height symbols failed to cancel: {total!r}")
    if total.rational_value() != Fraction(1, 2):
        raise AssemblyError(
            f"height value is {total.rational_value()}, expected 1/2")
    return total
