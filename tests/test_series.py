"""Laurent series arithmetic, trigonometric builders, star and hash weights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from p1torsion.numerics import ConstExpr, SymbolProductError, harmonic
from p1torsion.series import (LaurentSeries, ParityError, build_cos_scaled,
                              build_sin_scaled, build_exp_scaled,
                              build_inv_sin_half, star, hash_weight)
from p1torsion.quadrature import IntegrandSpec, integrate


def small_series(min_deg: int = -2):
    coeff = st.fractions(min_value=-100, max_value=100, max_denominator=20)
    return st.builds(
        lambda pairs: LaurentSeries(
            {d: ConstExpr.rational(c) for d, c in pairs}, min_deg, 10),
        st.lists(st.tuples(st.integers(min_value=min_deg, max_value=10),
                           coeff), max_size=6))


class TestArithmetic:
    @given(small_series(), small_series())
    @settings(max_examples=50)
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(small_series(), small_series(0), small_series(0))
    @settings(max_examples=30)
    def test_mul_distributes(self, f, g, h):
        lhs = f * (g + h)
        rhs = f * g + f * h
        # both sides agree on their common window
        for d in range(max(lhs.min_degree, rhs.min_degree),
                       min(lhs.order, rhs.order) + 1):
            assert lhs.coeff(d) == rhs.coeff(d)

    def test_min_degree_cap(self):
        with pytest.raises(ValueError):
            LaurentSeries({-3: ConstExpr.rational(1)}, -3, 5)

    def test_order_tracking(self):
        f = LaurentSeries({-1: ConstExpr.rational(1)}, -1, 6)
        g = LaurentSeries({2: ConstExpr.rational(1)}, 0, 4)
        assert (f * g).order == min(6 + 0, 4 + (-1))

    def test_invert_round_trip(self):
        f = build_cos_scaled(3, 16)
        g = f.invert()
        prod = f * g
        assert prod.coeff(0) == ConstExpr.rational(1)
        for d in range(1, prod.order + 1):
            assert prod.coeff(d).is_zero()


    @pytest.mark.parametrize("f", [
        build_exp_scaled(1, 100) + build_sin_scaled(3, 100),
        build_sin_scaled(1, 102),
    ], ids=["power-series", "simple-zero"])
    def test_invert_round_trip_order_100(self, f):
        prod = f * f.invert()
        assert prod.order >= 100
        assert prod.degrees() == [0]
        assert prod.coeff(0) == ConstExpr.rational(1)

    def test_invert_symbolic_to_first_order(self):
        # 1/(2 + gamma t^3 + t^5) = 1/2 - gamma t^3/4 - t^5/4 + O(t^6)
        f = LaurentSeries({0: ConstExpr.rational(2), 3: ConstExpr.gamma(),
                           5: ConstExpr.rational(1)}, 0, 5)
        g = f.invert()
        assert g.coeff(3) == ConstExpr.gamma(Fraction(-1, 4))
        assert g.coeff(5) == ConstExpr.rational(Fraction(-1, 4))
        assert (f * g).degrees() == [0]

    def test_invert_rejects_square_of_a_symbol(self):
        # gamma^2 t^4 would enter at t^4 <= order
        f = LaurentSeries({0: ConstExpr.rational(2), 2: ConstExpr.gamma()}, 0, 5)
        with pytest.raises(SymbolProductError):
            f.invert()

    def test_product_rejects_two_symbols_inside_window(self):
        f = LaurentSeries({1: ConstExpr.gamma()}, 0, 4)
        g = LaurentSeries({4: ConstExpr.gamma()}, 0, 4)
        assert (f * g).is_zero()  # gamma^2 would sit at t^5 > 4
        with pytest.raises(SymbolProductError):
            f * f


class TestBuilders:
    @pytest.mark.parametrize("a", [1, 2, -3])
    def test_cos_sin_exp_match_mpmath(self, a):
        mp.dps = 40
        t = mp.mpf(1) / 7
        cos_s = build_cos_scaled(a, 30).evaluate(t, dps=40)
        sin_s = build_sin_scaled(a, 30).evaluate(t, dps=40)
        exp_s = build_exp_scaled(a, 30).evaluate(t, dps=40)
        assert abs(cos_s - mp.cos(a * t / 2)) < mp.mpf(10) ** -35
        assert abs(sin_s - mp.sin(a * t / 2)) < mp.mpf(10) ** -35
        assert abs(exp_s - mp.exp(a * t / 2)) < mp.mpf(10) ** -35

    def test_inv_sin_half_leading_coeffs(self):
        # 1/sin(t/2) = 2/t + t/12 + 7 t^3/2880 + ...
        f = build_inv_sin_half(8)
        assert f.coeff(-1) == ConstExpr.rational(2)
        assert f.coeff(1) == ConstExpr.rational(Fraction(1, 12))
        assert f.coeff(3) == ConstExpr.rational(Fraction(7, 2880))

    @pytest.mark.parametrize("order", range(1, 61))
    def test_inv_sin_half_closed_form_matches_inversion(self, order):
        closed = build_inv_sin_half(order)
        inverted = build_sin_scaled(1, order + 2).invert().truncate(order)
        assert (closed.min_degree, closed.order) == (-1, order)
        assert (inverted.min_degree, inverted.order) == (-1, order)
        assert closed.degrees() == inverted.degrees()
        assert closed == inverted

    def test_inv_sin_half_numeric(self):
        mp.dps = 40
        t = mp.mpf(1) / 5
        val = build_inv_sin_half(36).evaluate(t, dps=40)
        assert abs(val - 1 / mp.sin(t / 2)) < mp.mpf(10) ** -35


class TestStar:
    def test_star_weights(self):
        # (t^{2m})* = t^{2m} (2 H_{2m+1} - H_m); the t^{-2} slot maps to 0
        f = LaurentSeries({-2: ConstExpr.rational(1),
                           0: ConstExpr.rational(1),
                           4: ConstExpr.rational(3)}, -2, 6)
        g = star(f)
        assert g.coeff(-2).is_zero()
        assert g.coeff(0) == ConstExpr.rational(2 * harmonic(1) - harmonic(0))
        assert g.coeff(4) == ConstExpr.rational(
            3 * (2 * harmonic(5) - harmonic(2)))

    def test_star_rejects_odd(self):
        f = LaurentSeries({1: ConstExpr.rational(1)}, 0, 4)
        with pytest.raises(ParityError):
            star(f)


class TestHashWeight:
    def test_hash_weights_match_integral_oracle(self):
        """# weight identity: int_{-1}^{1} (1 - r^{2m})/(1 - r^2) dr
        = 2 H_{2m-1} - H_{m-1}, checked by quadrature for m <= 6."""
        mp.dps = 30
        for m in range(1, 7):
            f = LaurentSeries({2 * m: ConstExpr.rational(1)}, 0, 2 * m)
            weight = hash_weight(f).eval(dps=30)
            oracle = integrate(IntegrandSpec(
                lambda r, m=m: (1 - r ** (2 * m)) / (1 - r ** 2),
                -1, 1), dps=30).value
            # hash gives sum a_{2m}(2H_{2m-1} - H_{m-1}); here a = 1
            assert abs(weight - oracle) < mp.mpf(10) ** -25

    def test_hash_rejects_poles(self):
        f = LaurentSeries({-2: ConstExpr.rational(1)}, -2, 4)
        with pytest.raises(ParityError):
            hash_weight(f)


class TestBridge:
    def test_bridge_identity_exact(self):
        """(g~(t)/t^2)^* evaluated as a # weight: for monomials g~ = t^{2m},
        the # of the r-rescaled series equals the star-series coefficient sum
        degree by degree through t^12."""
        for m in range(1, 7):
            g = LaurentSeries({2 * m: ConstExpr.rational(1)}, 0, 12)
            lhs = star(g.shift(-2))          # (g~(t)/t^2)^*
            # (g~(t r)/t^2)# in r: coefficient of r^{2m} is t^{2m-2}, and
            # the weight applies at r-degree 2m
            weight = 2 * harmonic(2 * m - 1) - harmonic(m - 1)
            rhs = LaurentSeries(
                {2 * m - 2: ConstExpr.rational(weight)}, -2, 12)
            for d in range(-2, 11):
                assert lhs.coeff(d) == rhs.coeff(d)


class TestEvaluateAndJson:
    def test_evaluate_laurent_part(self):
        mp.dps = 30
        f = LaurentSeries({-2: ConstExpr.rational(3),
                           1: ConstExpr.gamma(1)}, -2, 4)
        t = mp.mpf("0.5")
        expected = 3 / t ** 2 + mp.euler * t
        assert abs(f.evaluate(t, dps=30) - expected) < mp.mpf(10) ** -25

    def test_json_schema(self):
        f = LaurentSeries({0: ConstExpr.rational(1)}, 0, 4)
        data = f.to_json()
        assert data["var"] == "t"
        assert data["min_degree"] == 0
        assert data["order"] == 4
        assert data["coeffs"][0]["deg"] == 0
