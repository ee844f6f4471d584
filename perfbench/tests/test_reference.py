"""The mpmath-only reference helpers against known constants and against
each other.  Run with: python3 -m pytest perfbench/tests
"""

import os
import sys
from fractions import Fraction

import mpmath as mp
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402


def near(a, b, digits):
    with mp.workdps(digits + 20):
        return abs(a - b) <= mp.mpf(10) ** -digits * max(1, abs(b))


def test_zeta_prime_minus_one_is_one_twelfth_minus_log_glaisher():
    with mp.workdps(60):
        want = mp.mpf(1) / 12 - mp.log(mp.glaisher)
    assert near(ref.zeta_prime_neg(1, 60), want, 55)


def test_zeta_prime_minus_three_from_the_functional_equation():
    # zeta'(-m) = zeta(-m) (log 2 pi - psi(m+1) - zeta'(m+1)/zeta(m+1)) for
    # odd m, with zeta(-3) = 1/120
    with mp.workdps(60):
        want = (mp.log(2 * mp.pi) - mp.digamma(4)
                - mp.zeta(4, 1, 1) / mp.zeta(4)) / 120
    assert near(ref.zeta_prime_neg(3, 60), want, 55)


@pytest.mark.parametrize("ell,t", [(0, 0.7), (2, 2.5), (5, 4.0)])
def test_oscillatory_quadrature_matches_mpmath_si_ci(ell, t):
    with mp.workdps(60):
        tv = mp.mpf(t)
        x = (ell + 1) * tv
        want = ((mp.sin(x / 2) * mp.si(x)
                 - mp.cos(x / 2) * (mp.euler - mp.ci(x) + mp.log(x)))
                / (tv * mp.sin(tv / 2)))
    assert near(ref.oscillatory_integral(ell, t, 60), want, 50)


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_r_rot_by_polylog_matches_its_power_series(t):
    assert near(ref.r_rot(t, 60), ref.r_rot_power_series(t, 60), 52)


def test_r_rot_table_holds_polylog_values():
    table = ref.rrot_table()
    assert sorted(table) == list(ref.RROT_RANGE)
    for t in (0.5, 3.0):
        assert near(ref.r_rot_tabulated(t), ref.r_rot(t, 60), 55)
    with pytest.raises(KeyError):
        ref.r_rot_tabulated(0.1)


def test_closed_forms_are_the_small_t_limit_of_the_chain():
    # chain(t) = c0 + c2 t^2 + O(t^4): the closed forms written here and the
    # numeric chain are independent of each other.
    t = mp.mpf(1) / 64
    for ell in (-3, 0, 2, 5):
        rrot = ref.r_rot_power_series(t, 40)
        chain = ref.torsion_chain(ell, t, rrot, 40)
        c0 = ref.eval_terms(ref.constant_term(ell), 40)
        c2 = ref.eval_terms(ref.t2_coefficient(ell), 40)
        assert abs(chain - c0 - c2 * t ** 2) < 1e-6


def test_closed_forms_keep_log_prime_factored():
    # L = 4: 4 zeta'(-1) - 8 + 2 log 3 + 4 log 4, with log 4 = 2 log 2
    assert ref.constant_term(3) == {"ZETA_PRIME(-1)": 4, "ONE": -8,
                                    "LOG(2)": 8, "LOG(3)": 2}


def test_s_pairing_closed_form_matches_quadrature():
    poly = {0: Fraction(1, 2), 2: Fraction(-3), 6: Fraction(2)}
    t = mp.mpf("1.25")
    with mp.workdps(50):
        g = lambda r: sum(mp.mpf(c.numerator) / c.denominator * r ** d
                          for d, c in poly.items())
        g1 = g(mp.mpf(1))
        integral = mp.quad(lambda r: 2 * (g(r) - g1) / (1 - r * r), [-1, 1])
        want = (integral + (mp.log(t * t) + 2 * mp.euler) * 2 * g1) / t ** 2
    assert near(ref.s_pairing(poly, t, 50), want, 40)
