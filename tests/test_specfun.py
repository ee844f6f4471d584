"""Special functions: independent oracles for every evaluation path."""

import math

import pytest
from mpmath import mp

from p1torsion import specfun
from p1torsion.quadrature import IntegrandSpec, integrate


class TestBernoulliZeta:
    def test_bernoulli_against_mpmath(self):
        mp.dps = 30
        for n in range(0, 20):
            b = specfun.bernoulli(n)
            assert abs(mp.mpf(b.numerator) / b.denominator - mp.bernoulli(n)) \
                < mp.mpf(10) ** -25

    def test_zeta_neg_against_mpmath(self):
        mp.dps = 30
        for m in range(1, 12):
            z = specfun.zeta_neg(m)
            assert abs(mp.mpf(z.numerator) / z.denominator - mp.zeta(-m)) \
                < mp.mpf(10) ** -25


class TestZetaPrimeNeg:
    def test_against_mpmath_derivative(self):
        mp.dps = 40
        for m in (1, 3, 5, 7):
            want = mp.zeta(mp.mpf(-m), derivative=1)
            got = specfun.zeta_prime_neg(m, dps=40)
            assert abs(got - want) < mp.mpf(10) ** -35

    def test_glaisher_cross_check(self):
        """zeta'(-1) = 1/12 - log A with the Glaisher constant recovered by
        the log-Gamma integral: log A = (2/3)(int_0^{1/2} log Gamma
        - (5/24) log 2 - (1/4) log pi)."""
        mp.dps = 40
        integral = integrate(IntegrandSpec(
            lambda x: mp.log(mp.gamma(x)), 0, mp.mpf(1) / 2), dps=40).value
        log_a = mp.mpf(2) / 3 * (integral - mp.mpf(5) / 24 * mp.log(2)
                                 - mp.log(mp.pi) / 4)
        want = mp.mpf(1) / 12 - log_a
        got = specfun.zeta_prime_neg(1, dps=40)
        assert abs(got - want) < mp.mpf(10) ** -30


class TestHurwitz:
    @pytest.mark.parametrize("s,a", [(-3.5, 0.3), (2.5, 0.7), (-1, 0.25),
                                     (5, 0.9), (-7.25, 0.6)])
    def test_values_against_mpmath(self, s, a):
        mp.dps = 40
        got = specfun.hurwitz_zeta(mp.mpf(s), mp.mpf(a), dps=40)
        want = mp.zeta(mp.mpf(s), mp.mpf(a))
        assert abs(got - want) < mp.mpf(10) ** -33

    @pytest.mark.parametrize("s,a", [(-2, 0.3), (-4.5, 0.8)])
    def test_derivative_against_mpmath(self, s, a):
        mp.dps = 40
        got = specfun.hurwitz_zeta(mp.mpf(s), mp.mpf(a), dps=40,
                                   derivative=True)
        want = mp.zeta(mp.mpf(s), mp.mpf(a), 1)
        assert abs(got - want) < mp.mpf(10) ** -30

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("a,ss", [("21.3", range(2, 60)),
                                      ("21", range(2, 50, 2)),
                                      ("0.3", (2, 3, 9)), ("1e-3", (2, 7)),
                                      ("500", (2, 3))])
    def test_values_in_one_pass(self, a, ss, dps):
        mp.dps = 15
        got = specfun.hurwitz_zeta_values(ss, a, dps=dps)
        assert sorted(got) == sorted(ss)
        # mpmath's own zeta(s, a) loses digits at large s unless it works
        # well above the precision it is asked for
        with mp.workdps(dps + 100):
            for s in ss:
                want = mp.zeta(s, mp.mpf(a))
                assert abs(got[s] - want) <= mp.mpf(10) ** -dps * want

    def test_values_need_integer_s_above_one(self):
        for ss in ([], [1, 2], [2.5]):
            with pytest.raises(ValueError):
                specfun.hurwitz_zeta_values(ss, 0.5, dps=30)
        with pytest.raises(ValueError):
            specfun.hurwitz_zeta_values([2], 0, dps=30)

    def test_stieltjes_gamma1(self):
        mp.dps = 40
        got = specfun.stieltjes_gamma1(mp.mpf(1), dps=40)
        assert abs(got - mp.stieltjes(1)) < mp.mpf(10) ** -35


def _eulerian_polylog(k, z):
    """Independent oracle: Li_{-k}(z) by the Eulerian-number closed form."""
    if k == 0:
        # geometric series; the Eulerian formula below degenerates (0^0)
        return z / (1 - z)
    total = mp.mpf(0) * z
    for j in range(0, k + 1):
        eul = sum((-1) ** i * math.comb(k + 1, i) * (j + 1 - i) ** k
                  for i in range(0, j + 2))
        total += eul * z ** (j + 1)
    return total / (1 - z) ** (k + 1)


class TestLerch:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_negative_values_against_eulerian_oracle(self, k):
        mp.dps = 40
        phi = mp.mpf(2)
        z = mp.exp(1j * phi)
        want = _eulerian_polylog(k, z)
        got = specfun.lerch_neg(k, phi, dps=40)
        assert abs(got - want) < mp.mpf(10) ** -33

    def test_abel_summation_oracle_k0(self):
        """zeta_L(0, phi) is the Abel sum of sum e^{i n phi}; a literal
        Abel partial summation at r -> 1 must converge to the value."""
        mp.dps = 20
        phi = 2.0
        got = complex(specfun.lerch_neg(0, phi, dps=20))
        z = complex(math.cos(phi), math.sin(phi))
        prev = None
        for r in (0.999, 0.9999):
            term, total = 1.0, 0.0
            n = 0
            while abs(term) > 1e-12 and n < 400000:
                n += 1
                term = (r ** n) * z ** n
                total += term
            # Abel error is O(1-r): one Richardson step in (1-r)
            if prev is None:
                prev = total
            else:
                extrapolated = 10 * total / 9 - prev / 9
        assert abs(extrapolated - got) < 1e-6

    def test_continuation_matches_negative_integers(self):
        mp.dps = 30
        phi = mp.mpf("1.1")
        for k in (1, 2, 3):
            via_continuation = specfun.lerch_value(mp.mpf(-k), phi, dps=30)
            direct = specfun.lerch_neg(k, phi, dps=30)
            assert abs(via_continuation - direct) < mp.mpf(10) ** -24

    def test_positive_integer_limit_branch(self):
        mp.dps = 30
        phi = mp.mpf("0.8")
        got = specfun.lerch_value(mp.mpf(3), phi, dps=30)
        want = mp.nsum(lambda k: mp.exp(1j * k * phi) / k ** 3, [1, mp.inf])
        assert abs(got - want) < mp.mpf(10) ** -20

    def test_pole_at_one(self):
        with pytest.raises(ValueError):
            specfun.lerch_value(mp.mpf(1), mp.mpf("0.5"), dps=30)

    def test_conjugation_symmetry(self):
        mp.dps = 30
        phi = mp.mpf("0.7")
        s = mp.mpf("-2.3")
        a = specfun.lerch_value(s, phi, dps=30)
        b = specfun.lerch_value(s, 2 * mp.pi - phi, dps=30)
        assert abs(b - mp.conj(a)) < mp.mpf(10) ** -24

    def test_derivative_against_central_difference(self):
        mp.dps = 40
        phi = mp.mpf("1.3")
        h = mp.mpf(10) ** -12
        for k in (0, 1, 2):
            got = specfun.lerch_prime_neg(k, phi, dps=40)
            want = (specfun.lerch_value(mp.mpf(-k) + h, phi, dps=40)
                    - specfun.lerch_value(mp.mpf(-k) - h, phi, dps=40)) / (2 * h)
            assert abs(got - want) < mp.mpf(10) ** -20


class TestSiCiEi:
    @pytest.mark.parametrize("x", [0.5, 5, 50, 130, 500])
    def test_si_ci_against_mpmath(self, x):
        mp.dps = 50
        xv = mp.mpf(x)
        assert abs(specfun.si(xv, dps=50) - mp.si(xv)) < mp.mpf(10) ** -45
        assert abs(specfun.ci(xv, dps=50) - mp.ci(xv)) < mp.mpf(10) ** -45

    def test_crossover_overlap(self):
        # both branches agree where they meet
        mp.dps = 50
        x = mp.mpf(specfun._sici_crossover(50)) * mp.mpf("0.999")
        lo = specfun._sici_taylor(x, 50)
        hi = specfun._sici_asymptotic(x, 50)
        # the Taylor branch yields (Si, -Cin); convert to Ci to compare
        lo_ci = mp.euler + mp.log(x) + lo[1]
        assert abs(lo[0] - hi[0]) < mp.mpf(10) ** -25
        assert abs(lo_ci - hi[1]) < mp.mpf(10) ** -25

    def test_si_is_odd_at_low_global_precision(self):
        # the negation for x < 0 must run at the requested precision, not
        # at the caller's global one
        mp.dps = 15
        assert specfun.si(-1, 50) + specfun.si(1, 50) == 0

    def test_si_large_argument_bound(self):
        mp.dps = 30
        assert abs(specfun.si(mp.mpf(10) ** 4, dps=30) - mp.pi / 2) < 1e-4

    def test_ei_negative_against_quadrature(self):
        # Ei(-1) = -int_1^inf e^{-t}/t dt, over an infinite interval
        mp.dps = 40
        got = -integrate(IntegrandSpec(lambda t: mp.exp(-t) / t, 1, mp.inf),
                         dps=40).value
        assert abs(got - mp.ei(-1)) < mp.mpf(10) ** -35

    def test_exponential_integral_identity(self):
        # int_0^1 (e^{-u} - 1)/(2u) du = (-EulerGamma + Ei(-1))/2
        mp.dps = 40
        lhs = integrate(IntegrandSpec(
            lambda u: (mp.exp(-u) - 1) / (2 * u), 0, 1), dps=40).value
        rhs = (-mp.euler + mp.ei(-1)) / 2
        assert abs(lhs - rhs) < mp.mpf(10) ** -33


class TestRRot:
    def test_series_matches_value(self):
        # R^rot(t) = Im d/ds Li_s(e^{it}) at s = 0, by mpmath's polylog
        mp.dps = 40
        for t in (0.3, 1.0, 2.5):
            tv = mp.mpf(t)
            with mp.workdps(50):
                want = mp.im(mp.diff(lambda s: mp.polylog(s, mp.expj(tv)), 0))
            value = specfun.r_rot_value(tv, dps=40)
            assert abs(value - want) < mp.mpf(10) ** -35

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.r_rot_value(mp.mpf(7), dps=30)
