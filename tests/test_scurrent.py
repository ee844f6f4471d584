"""Tests for the Bott-Chern current pairing on the projective line.

The integral path (quadrature against the raw defining integral) is the
oracle for the exact series/star paths, and the defining identities of the
current are checked against plain volume-form integrals and fixed-point
evaluations computed independently.
"""

from fractions import Fraction

from mpmath import mp
import pytest

from p1torsion import scurrent
from p1torsion.numerics import GAMMA, LOG_T, ConstExpr
from p1torsion.scurrent import LicensingError
from p1torsion.scurrent import TestProfile as Profile


class TestProfileParsing:
    def test_simple_monomials(self):
        p = Profile.from_string("r^2 + 3*r^4")
        assert p.poly == {2: Fraction(1), 4: Fraction(3)}

    def test_signs_and_fractions(self):
        p = Profile.from_string("-1/4*r^2 + 1")
        assert p.poly == {2: Fraction(-1, 4), 0: Fraction(1)}

    def test_constant(self):
        p = Profile.from_string("1")
        assert p.poly == {0: Fraction(1)}
        assert p.at_one() == 1

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            Profile(poly={3: Fraction(1)})

    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            Profile(poly={2: Fraction(1)}, func=lambda r: r * r)
        with pytest.raises(ValueError):
            Profile()

    def test_value_evaluates_polynomial(self):
        p = Profile(poly={0: Fraction(1, 2), 2: Fraction(3)})
        r = mp.mpf("0.4")
        assert abs(p.value(r) - (mp.mpf(1) / 2 + 3 * r ** 2)) < mp.mpf(10) ** -25


class TestPathAgreement:
    @pytest.mark.parametrize("text", ["1", "r^2", "r^2 + 2*r^4", "-1/3*r^6"])
    @pytest.mark.parametrize("t", ["0.5", "1.0", "2.7", "-1.0"])
    def test_integral_equals_series(self, text, t):
        # at t < 0 the series takes LOG_T = log|t|, as log t^2 = 2 LOG_T
        mp.dps = 40
        profile = Profile.from_string(text)
        tv = mp.mpf(t)
        integral = scurrent.s_pairing_integral(profile, tv, dps=40)
        series = scurrent.s_pairing_series(profile, tv, dps=40)
        assert abs(integral - series) < mp.mpf(10) ** -30

    def test_constant_profile_closed_form(self):
        # for g~ = 1 the subtracted integral vanishes and the pairing is
        # exactly (log t^2 + 2 gamma) * 2/t^2
        mp.dps = 40
        profile = Profile.from_string("1")
        t = mp.mpf("1.4")
        got = scurrent.s_pairing_integral(profile, t, dps=40)
        want = (mp.log(t * t) + 2 * mp.euler) * 2 / t ** 2
        assert abs(got - want) < mp.mpf(10) ** -35

    def test_series_symbolic_structure(self):
        # symbolic result lives in degree -2 with the right LOG_T residue
        profile = Profile.from_string("r^2")
        series = scurrent.s_pairing_series(profile)
        assert series.degrees() == [-2]
        coeff = series.coeff(-2)
        assert coeff.coeff(LOG_T) == Fraction(4)   # 2 * 2 g~(1)
        assert coeff.coeff(GAMMA) == Fraction(4)

    def test_star_variant_matches_series_for_constant(self):
        # a constant profile is insensitive to the t-substitution, so the
        # star path and the #-path agree symbolically
        profile = Profile.from_string("1")
        a = scurrent.s_pairing_star_variant(profile)
        b = scurrent.s_pairing_series(profile)
        assert a.coeff(-2) == b.coeff(-2)
        for d in a.degrees():
            if d != -2:
                assert a.coeff(d).is_zero()


class TestDefiningProperty:
    @pytest.mark.parametrize("f0,f1", [
        (lambda u: mp.sin(u), lambda u: mp.cos(u)),
        (lambda u: mp.sin(u) ** 3, lambda u: mp.cos(2 * u)),
    ])
    def test_residuals_small(self, f0, f1):
        mp.dps = 30
        r1, r2 = scurrent.check_defining_property(f0, f1, dps=30)
        assert r1 < mp.mpf(10) ** -15
        assert r2 < mp.mpf(10) ** -15


class TestScaling:
    @pytest.mark.parametrize("text", ["1", "r^2", "r^2 + r^4"])
    def test_numeric_residual_small(self, text):
        mp.dps = 40
        profile = Profile.from_string(text)
        res = scurrent.check_scaling(profile, mp.mpf("0.9"), mp.mpf("1.7"),
                                     dps=40)
        assert res < mp.mpf(10) ** -30

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 5), Fraction(7)])
    def test_symbolic_residual_exactly_zero(self, c):
        profile = Profile.from_string("r^2 + 2*r^4")
        res = scurrent.check_scaling_symbolic(profile, c)
        assert res.is_zero()

    def test_invalid_arguments(self):
        profile = Profile.from_string("1")
        with pytest.raises(ValueError):
            scurrent.check_scaling(profile, 0, 2, dps=30)
        with pytest.raises(ValueError):
            scurrent.check_scaling_symbolic(profile, Fraction(-1))


class TestLicensing:
    def test_series_path_needs_polynomial(self):
        smooth = Profile(func=lambda r: mp.exp(-mp.mpf(r) ** 2))
        with pytest.raises(LicensingError):
            scurrent.s_pairing_series(smooth, 1.0)
        with pytest.raises(LicensingError):
            scurrent.s_pairing_star_variant(smooth, 1.0)
        with pytest.raises(LicensingError):
            smooth.at_one()

    def test_integral_path_accepts_smooth_profiles(self):
        mp.dps = 30
        smooth = Profile(func=lambda r: mp.cos(r) ** 2)
        val = scurrent.s_pairing_integral(smooth, mp.mpf("1.0"), dps=30)
        assert mp.isfinite(val)

    def test_integral_needs_nonzero_t(self):
        with pytest.raises(ValueError):
            scurrent.s_pairing_integral(Profile.from_string("1"), 0)
