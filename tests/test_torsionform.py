"""Tests for torsion forms on P^1-bundles and the height computation.

The torsion form is e^{-(ell/2) c1} T_ell(c1^2 - 4 c2), where T_ell is the
infinitesimal torsion series; the series is checked for evenness, its
constant term and its reflection symmetry, and the discriminant
substitution is checked to be invariant under twisting by a line bundle.  The height must
come out exactly 1/2 with all transcendental symbols cancelling.
"""

from fractions import Fraction

from mpmath import mp
import pytest

from p1torsion.chowring import BaseClass, substitute_even_series
from p1torsion.numerics import GAMMA, LOG_T, ConstExpr
from p1torsion.torsionform import (height_components, height_p1z,
                                   r_class_fixed_point, t_ell_series,
                                   torsion_form)


class TestTEllSeries:
    @pytest.mark.parametrize("ell", [-5, -2, -1, 0, 1, 4])
    def test_assembly_cross_check_passes(self, ell):
        # the poles of the three summands cancel, so the series starts at t^0
        series = t_ell_series(ell, order=12)
        assert series.min_degree >= 0

    @pytest.mark.parametrize("ell", [-3, 0, 2])
    def test_series_is_even(self, ell):
        series = t_ell_series(ell, order=14)
        assert all(d % 2 == 0 for d in series.degrees())

    def test_untwisted_constant_term(self):
        # at ell = -1 the log-sum is empty and the constant term is the pure
        # zeta contribution 4 zeta'(-1)
        series = t_ell_series(-1, order=6)
        assert series.coeff(0) == ConstExpr.zeta_prime(1, 4)

    def test_reflection_symmetry(self):
        a = t_ell_series(1, order=10)
        b = t_ell_series(-3, order=10)
        for d in range(0, 11):
            assert a.coeff(d) == b.coeff(d)

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            t_ell_series(0, order=2)


class TestTorsionForm:
    @pytest.mark.parametrize("ell", [-3, -1, 0, 2, 5])
    def test_degree0_slice_is_series_constant(self, ell):
        form = torsion_form(ell, cap=8)
        series = t_ell_series(ell, order=8)
        assert form.base.coeff(0, 0) == series.coeff(0)

    def test_degree_part_grading(self):
        form = torsion_form(2, cap=8)
        total = BaseClass.zero(8)
        for d in range(0, 9, 2):
            total = total + form.degree_part(d)
        assert total == form.base

    def test_twist_invariance_of_discriminant_substitution(self):
        # twisting E by the line bundle with c1 = u sends c1 -> c1 + 2u and
        # c2 -> c2 + c1 u + u^2, fixing c1^2 - 4 c2.  With u = c1 this is
        # c1 -> 3 c1, c2 -> c2 + 2 c1^2, computable inside the base ring.
        cap = 8
        series = t_ell_series(0, order=cap // 2 + 2)
        sub = substitute_even_series(series, cap)

        c1 = BaseClass.c1(cap)
        new_c1 = c1.scale(3)
        new_c2 = BaseClass.c2(cap) + (c1 * c1).scale(2)
        twisted = BaseClass.zero(cap)
        for (a, b), coeff in sub.terms():
            mono = BaseClass.one(cap)
            for _ in range(a):
                mono = mono * new_c1
            for _ in range(b):
                mono = mono * new_c2
            twisted = twisted + mono.scale(coeff)
        assert twisted == sub

    def test_odd_cap_rejected(self):
        with pytest.raises(ValueError):
            torsion_form(0, cap=7)

    def test_cap_must_fit_order(self):
        with pytest.raises(ValueError):
            torsion_form(0, cap=12, order=4)

    def test_json_keys(self):
        form = torsion_form(-1, cap=4)
        assert all(key.startswith("c1^") for key in form.to_json())


class TestRClass:
    def test_angle_sign_invariance(self):
        assert r_class_fixed_point(Fraction(1, 2)) == \
            r_class_fixed_point(Fraction(-1, 2))

    def test_unit_angle_bracket(self):
        got = r_class_fixed_point(Fraction(1))
        want = ConstExpr.gamma(2) + ConstExpr.log_t(2)
        assert got == want

    def test_higher_j_subtracts_harmonic(self):
        base = r_class_fixed_point(Fraction(2), j=0)
        shifted = r_class_fixed_point(Fraction(2), j=2)
        assert base - shifted == ConstExpr.rational(Fraction(3, 2))

    def test_zero_angle_rejected(self):
        with pytest.raises(ValueError):
            r_class_fixed_point(Fraction(0))


class TestHeight:
    def test_value_exact_one_half(self):
        total = height_p1z()
        assert total.is_rational()
        assert total.rational_value() == Fraction(1, 2)

    def test_component_residues(self):
        r_term, s_term, total = height_components()
        # the r-term carries +gamma/2 + (1/2) log t, the S-term the opposite
        assert r_term.coeff(GAMMA) == Fraction(1, 2)
        assert r_term.coeff(LOG_T) == Fraction(1, 2)
        assert s_term.coeff(GAMMA) == Fraction(-1, 2)
        assert s_term.coeff(LOG_T) == Fraction(-1, 2)
        assert total.coeff(GAMMA) == 0
        assert total.coeff(LOG_T) == 0

    def test_component_values_numeric(self):
        # r-term = gamma/2 + (1/2) log t and S-term = 1/2 - gamma/2
        # - (1/2) log t at any positive t
        mp.dps = 30
        r_term, s_term, _ = height_components()
        t = mp.mpf("0.37")
        rv = r_term.eval(dps=30, logt_value=mp.log(t))
        sv = s_term.eval(dps=30, logt_value=mp.log(t))
        assert abs(rv - (mp.euler / 2 + mp.log(t) / 2)) < mp.mpf(10) ** -25
        assert abs(rv + sv - mp.mpf(1) / 2) < mp.mpf(10) ** -25
