"""Tests for the truncated Chow-ring model of a P^1-bundle.

Base classes are polynomials in c1, c2 truncated at a total-degree cap;
bundle classes add the tautological generator x with the quadratic relation
x^2 = -c1 x - c2 (or the sign-flipped control relation).  The oracle for
the push-forward identity is manual reduction with the quadratic relation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from p1torsion import chowring, torsion
from p1torsion.chowring import (BaseClass, BundleClass, ch_line,
                                check_grr_cancellation, compose_nilpotent,
                                exp_base, fiber_integrate,
                                grr_failure_degrees, grr_r_term,
                                substitute_even_series, todd_coefficients)
from p1torsion.numerics import ConstExpr
from p1torsion.series import LaurentSeries

CAP = 8


def rationals():
    return st.fractions(min_value=-100, max_value=100, max_denominator=100)


@st.composite
def base_classes(draw):
    cls = BaseClass.zero(CAP)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(0, 2))
        if 2 * a + 4 * b > CAP:
            continue
        cls = cls + BaseClass.monomial(a, b, draw(rationals()), CAP)
    return cls


@st.composite
def bundle_classes(draw):
    return (BundleClass.from_base(draw(base_classes()))
            + BundleClass.x(CAP).scale(draw(rationals())))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(base_classes(), base_classes())
    def test_base_commutative(self, p, q):
        assert p * q == q * p

    @settings(max_examples=40, deadline=None)
    @given(base_classes(), base_classes(), base_classes())
    def test_base_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=40, deadline=None)
    @given(bundle_classes(), bundle_classes(), bundle_classes())
    def test_bundle_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, deadline=None)
    @given(bundle_classes(), bundle_classes())
    def test_bundle_commutative(self, p, q):
        assert p * q == q * p

    @settings(max_examples=40, deadline=None)
    @given(base_classes())
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()

    def test_cap_truncation(self):
        # c2^2 has degree 8; multiplying by c1 exceeds the cap and dies
        q = BaseClass.monomial(0, 2, 1, CAP) * BaseClass.c1(CAP)
        assert q.is_zero()


class TestRelation:
    def test_x_squared(self):
        x = BundleClass.x(CAP)
        sq = x * x
        assert sq.a == BaseClass.c2(CAP).scale(-1)
        assert sq.b == BaseClass.c1(CAP).scale(-1)

    def test_x_cubed(self):
        # x^3 = x(-c1 x - c2) = (c1^2 - c2) x + c1 c2
        x = BundleClass.x(CAP)
        cub = x.power(3)
        c1, c2 = BaseClass.c1(CAP), BaseClass.c2(CAP)
        assert cub.a == c1 * c2
        assert cub.b == c1 * c1 - c2

    def test_control_relation_sign(self):
        x = BundleClass.x(CAP, relation_sign=1)
        sq = x * x
        assert sq.b == BaseClass.c1(CAP)

    def test_incompatible_relations_rejected(self):
        with pytest.raises(ValueError):
            BundleClass.x(CAP, -1) * BundleClass.x(CAP, 1)


class TestFiberIntegration:
    def test_unit_and_x(self):
        assert fiber_integrate(BundleClass.one(CAP)).is_zero()
        assert fiber_integrate(BundleClass.x(CAP)) == BaseClass.one(CAP)

    @settings(max_examples=30, deadline=None)
    @given(base_classes(), bundle_classes())
    def test_projection_formula(self, alpha, q):
        # pi_*(pi^* alpha . q) = alpha . pi_* q
        lhs = fiber_integrate(BundleClass.from_base(alpha) * q)
        rhs = alpha * fiber_integrate(q)
        assert lhs == rhs


class TestCharacteristicClasses:
    def test_todd_coefficients(self):
        c = todd_coefficients(6)
        assert c[0] == 1
        assert c[1] == Fraction(1, 2)
        assert c[2] == Fraction(1, 12)
        assert c[4] == Fraction(-1, 720)
        assert c[6] == Fraction(1, 30240)

    def test_ch_line_terms(self):
        ch = ch_line(2, CAP)
        # exp(2x) = 1 + 2x + 2x^2 + (4/3)x^3 + ..., reduced by the relation
        assert ch.a.coeff(0, 0) == ConstExpr.rational(1)
        two_x = BundleClass.x(CAP).scale(2)
        manual = (BundleClass.one(CAP) + two_x
                  + two_x.power(2).scale(Fraction(1, 2))
                  + two_x.power(3).scale(Fraction(1, 6))
                  + two_x.power(4).scale(Fraction(1, 24))
                  + two_x.power(5).scale(Fraction(1, 120)))
        assert ch == manual

    def test_multiplicativity_of_chern_character(self):
        # ch(O(a)) ch(O(b)) = ch(O(a+b))
        assert ch_line(2, CAP) * ch_line(3, CAP) == ch_line(5, CAP)

    def test_exp_base_needs_nilpotent(self):
        with pytest.raises(ValueError):
            exp_base(BaseClass.one(CAP))

    def test_compose_nilpotent_needs_nilpotent(self):
        with pytest.raises(ValueError):
            compose_nilpotent({0: Fraction(1)}, BundleClass.one(CAP))


class TestSubstitution:
    def test_even_substitution(self):
        # t^2 -> -(c1^2 - 4 c2): check 1 + t^2 explicitly
        series = LaurentSeries({0: ConstExpr.rational(1),
                                2: ConstExpr.rational(1)}, 0, 4)
        got = substitute_even_series(series, CAP)
        want = (BaseClass.one(CAP) - BaseClass.monomial(2, 0, 1, CAP)
                + BaseClass.monomial(0, 1, 4, CAP))
        assert got == want

    def test_odd_coefficient_rejected(self):
        series = LaurentSeries({1: ConstExpr.rational(1)}, 0, 4)
        with pytest.raises(ValueError):
            substitute_even_series(series, CAP)

    def test_pole_rejected(self):
        series = LaurentSeries({-2: ConstExpr.rational(1)}, -2, 4)
        with pytest.raises(ValueError):
            substitute_even_series(series, CAP)


class TestGrr:
    @pytest.mark.parametrize("ell,cap", [(0, 8), (-2, 8), (3, 12)])
    def test_cancellation_exact(self, ell, cap):
        residual = check_grr_cancellation(ell, cap)
        assert residual.is_zero()
        assert grr_failure_degrees(residual) == []

    def test_negative_control_fails(self):
        # with the wrong sign in the quadratic relation the closed form
        # cannot match the push-forward
        residual = check_grr_cancellation(0, 8, relation_sign=1)
        assert not residual.is_zero()
        assert grr_failure_degrees(residual)

    @pytest.mark.parametrize("ell", [0, 3])
    def test_perturbed_r_class_is_caught(self, ell, monkeypatch):
        # the GRR side builds the R-class from gs_r_series, the closed side
        # (t_tilde_series, shared with the torsion series) from
        # gs_r_alt_series; a wrong alternating coefficient must show up
        before = torsion.torsion_infinitesimal(ell, 8).payload
        exact = chowring.gs_r_alt_series

        def perturbed(order):
            series = exact(order)
            return series + LaurentSeries(
                {3: ConstExpr.rational(Fraction(1, 7))}, 0, series.order)

        monkeypatch.setattr(chowring, "gs_r_alt_series", perturbed)
        residual = check_grr_cancellation(ell, 12)
        assert grr_failure_degrees(residual)
        assert torsion.torsion_infinitesimal(ell, 8).payload != before

    def test_r_term_degrees_are_even(self):
        term = grr_r_term(1, 8)
        assert all((2 * a + 4 * b) % 2 == 0 for (a, b) in dict(term.terms()))


class TestJson:
    def test_base_keys(self):
        cls = BaseClass.c1(CAP) + BaseClass.monomial(0, 1, Fraction(1, 3), CAP)
        out = cls.to_json()
        assert set(out) == {"c1^1 c2^0 x^0", "c1^0 c2^1 x^0"}

    def test_bundle_keys(self):
        out = BundleClass.x(CAP).to_json()
        assert set(out) == {"c1^0 c2^0 x^1"}
