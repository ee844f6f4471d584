"""Exact symbolic-constant arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from p1torsion.numerics import (ConstExpr, SymbolProductError, ZERO_EXPR,
                                ONE_EXPR, GAMMA, LOG_T, harmonic,
                                const_to_json)


def rationals():
    return st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 4)


def exprs():
    return st.builds(
        lambda a, b, c, d, e: (ConstExpr.rational(a) + ConstExpr.gamma(b)
                               + ConstExpr.zeta_prime(1, c)
                               + ConstExpr.log_int(2, d)
                               + ConstExpr.log_t(e)),
        rationals(), rationals(), rationals(), rationals(), rationals())


class TestConstruction:
    def test_rational(self):
        assert ConstExpr.rational(Fraction(3, 4)).rational_value() == \
            Fraction(3, 4)

    def test_zeta_prime_even_is_rational_multiple(self):
        # zeta(-2m) = 0 for m >= 1 never enters: only odd m is allowed
        with pytest.raises(ValueError):
            ConstExpr.zeta_prime(2)

    def test_log_int_prime_factorization(self):
        # log 12 = 2 log 2 + log 3
        expr = ConstExpr.log_int(12)
        assert expr == ConstExpr.log_int(2, 2) + ConstExpr.log_int(3)

    def test_log_one_is_zero(self):
        assert ConstExpr.log_int(1).is_zero()

    def test_log_rational(self):
        assert ConstExpr.log_rational(Fraction(1, 2)) == \
            ConstExpr.log_int(2, -1)


class TestAlgebra:
    @given(exprs(), exprs())
    def test_addition_commutes(self, x, y):
        assert x + y == y + x

    @given(exprs(), exprs(), exprs())
    def test_addition_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(exprs())
    def test_additive_inverse(self, x):
        assert (x - x).is_zero()

    @given(exprs(), rationals(), rationals())
    def test_scaling_distributes(self, x, a, b):
        assert x.scale(a) + x.scale(b) == x.scale(a + b)

    def test_rational_times_symbolic(self):
        x = ConstExpr.rational(Fraction(2, 3))
        y = ConstExpr.gamma(3)
        assert x * y == ConstExpr.gamma(2)

    def test_symbol_product_rejected(self):
        with pytest.raises(SymbolProductError):
            ConstExpr.gamma(1) * ConstExpr.log_t(1)

    def test_zero_one(self):
        assert ZERO_EXPR.is_zero()
        assert ONE_EXPR.rational_value() == 1


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(4) == Fraction(25, 12)

    @given(st.integers(min_value=1, max_value=60))
    def test_recurrence(self, m):
        assert harmonic(m) == harmonic(m - 1) + Fraction(1, m)


class TestEval:
    def test_gamma_eval(self):
        mp.dps = 30
        expr = ConstExpr.gamma(2)
        assert abs(expr.eval(dps=30) - 2 * mp.euler) < mp.mpf(10) ** -28

    def test_log_t_requires_value(self):
        expr = ConstExpr.log_t(1)
        with pytest.raises(ValueError):
            expr.eval(dps=30)
        val = expr.eval(dps=30, logt_value=mp.log(2))
        assert abs(val - mp.log(2)) < mp.mpf(10) ** -28

    def test_eval_const_helper(self):
        mp.dps = 30
        val = ConstExpr.rational(Fraction(1, 3)).eval(dps=30)
        assert abs(val - mp.mpf(1) / 3) < mp.mpf(10) ** -28


class TestSerialization:
    @given(exprs())
    def test_json_roundtrip(self, x):
        # every term survives, under the symbol name str() prints
        got = {item["symbol"]: Fraction(int(item["num"]), int(item["den"]))
               for item in const_to_json(x)["terms"]}
        assert got == {str(sym): c for sym, c in x.terms()}
