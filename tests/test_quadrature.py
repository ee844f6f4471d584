"""Quadrature and error-bounded bilateral summation."""

import math
import random

import pytest
from mpmath import mp

from p1torsion import quadrature
from p1torsion.quadrature import (AccuracyError, IntegrandSpec, integrate,
                                  bilateral_sum)


class TestIntegrate:
    def test_plain_interval(self):
        mp.dps = 40
        res = integrate(IntegrandSpec(lambda x: mp.exp(-x), 0, 1), dps=40)
        assert abs(res.value - (1 - mp.exp(-1))) < mp.mpf(10) ** -35

    def test_log_endpoint_singularity(self):
        mp.dps = 40
        # int_0^1 log(x) dx = -1; tanh-sinh absorbs the endpoint blow-up
        res = integrate(IntegrandSpec(lambda x: mp.log(x), 0, 1), dps=40)
        assert abs(res.value + 1) < mp.mpf(10) ** -35

    def test_removable_singularity(self):
        mp.dps = 40
        # int_{-1}^{1} (1 - r^4)/(1 - r^2) dr = int (1 + r^2) = 8/3
        res = integrate(IntegrandSpec(
            lambda r: (1 - r ** 4) / (1 - r ** 2), -1, 1), dps=40)
        assert abs(res.value - mp.mpf(8) / 3) < mp.mpf(10) ** -30

    def test_breakpoints_oscillatory(self):
        mp.dps = 30
        pts = [k * mp.pi / 10 for k in range(1, 10)]
        res = integrate(IntegrandSpec(lambda x: mp.sin(10 * x), 0, mp.pi),
                        dps=30, breakpoints=pts)
        assert abs(res.value - mp.mpf(0)) < mp.mpf(10) ** -25

    def test_accuracy_error_carries_partial(self):
        mp.dps = 15
        with pytest.raises(AccuracyError) as exc:
            integrate(IntegrandSpec(lambda x: mp.sqrt(abs(x - mp.pi / 7)),
                                    0, 1), tol=mp.mpf(10) ** -40, dps=15)
        assert exc.value.partial is not None
        assert exc.value.estimate > mp.mpf(10) ** -40


def lorentz_weights(count):
    # 1/(k^2 + a^2) = sum_{m>=0} (-1)^m a^{2m} k^{-2m-2}, so a/(k^2 + a^2)
    # has a_n = (-1)^{(n-1)/2} at odd n, 0 at even n, and x = a
    return [(-1) ** (n // 2) if n % 2 else 0 for n in range(1, count + 1)]


def unit_weights(count):
    return [1] * count


class TestBilateralSum:
    """Each sum states the expansion of its term in 1/(k + shift): weights
    a_n with term(k) = sum_n a_n x^n (k + shift)^{-n-1}, a rate with
    |a_n x^n| <= n rate^n, and the shift."""

    def test_against_coth_closed_form(self):
        # sum_{k in Z} a/(k^2 + a^2) = pi coth(pi a)
        mp.dps = 40
        a = mp.mpf("0.75")
        got = bilateral_sum(lambda k: a / (k ** 2 + a ** 2), lorentz_weights,
                            a, 1, dps=40)
        want = mp.pi * mp.coth(mp.pi * a)
        # divided by a, the error of sum 1/(k^2 + a^2) itself
        assert abs(got - want) / a < mp.mpf(10) ** -38

    def test_head_grows_with_rate(self):
        # at a = 30 the expansion needs |k| > 30: at shift 0 the head grows
        # to |k| <= 59 to keep q = 1/2, and its tail starts at zeta(., 60)
        mp.dps = 40
        a = mp.mpf(30)
        calls = []

        def term(k):
            calls.append(k)
            return a / (k ** 2 + a ** 2)

        got = bilateral_sum(term, lorentz_weights, a, a, dps=40)
        assert sorted(calls) == list(range(-59, 60))
        want = mp.pi * mp.coth(mp.pi * a)
        assert abs(got - want) / a < mp.mpf(10) ** -38

    def test_capped_head_at_shift_zero(self):
        # at a = 1200 the head stops at MAX_HEAD_K = 2000 with q = 0.6 > 1/2,
        # past the fixed-point table: the call runs the Hurwitz pass itself
        mp.dps = 40
        a = mp.mpf(1200)
        got = bilateral_sum(lambda k: a / (k ** 2 + a ** 2), lorentz_weights,
                            a, a, dps=30)
        assert abs(got - mp.pi * mp.coth(mp.pi * a)) / a < mp.mpf(10) ** -29

    def test_odd_part_cancels(self):
        # a term with a 1/k piece: the two half-line tails cancel it
        mp.dps = 40
        a = mp.mpf("0.3")

        def term(k):
            if k == 0:
                return mp.mpf(0)
            return a / (k + a) / k

        # a/(k (k + a)) = a (k + a)^-2 / (1 - a/(k + a)): a_n = 1, x = a at
        # shift a, so both Hurwitz tails are needed
        got = bilateral_sum(term, unit_weights, a, 1, shift=a, dps=40)
        # partial fractions: a/(k(k+a)) = 1/k - 1/(k+a); the two half-line
        # sums telescope to digamma values
        want = mp.digamma(1 + a) - mp.digamma(1 - a)
        assert abs(got - want) / a < mp.mpf(10) ** -38

    def test_tight_tolerance_achieved(self):
        # the tail bound follows dps, here far below any fixed tolerance
        mp.dps = 15
        with mp.workdps(110):
            got = bilateral_sum(lambda k: 1 / (mp.mpf(k) ** 2 + 1),
                                lorentz_weights, 1, 1, dps=100)
            want = mp.pi * mp.coth(mp.pi)
            assert abs(got - want) < mp.mpf(10) ** -98

    def test_head_is_a_direct_sum_of_41_terms(self):
        # a shifted sum keeps the head |k| <= 20, q <= 1/20; at shift 0 the
        # same rate 1 takes |k| <= 1, q = 1/2, and the tail does the rest
        for shift, head in ((mp.mpf("0.25"), range(-20, 21)),
                            (0, range(-1, 2))):
            calls = []

            def term(k):
                calls.append(k)
                return 1 / ((k + shift) ** 2 + 1)

            got = bilateral_sum(term, lorentz_weights, 1, 1, shift=shift,
                                dps=50)
            assert sorted(calls) == list(head)
            if shift == 0:
                with mp.workdps(60):
                    want = mp.pi * mp.coth(mp.pi)
                    assert abs(got - want) < mp.mpf(10) ** -49

    def test_refuses_when_tail_ratio_reaches_one(self):
        # 1/(k^2 + b^2) expands in 1/k only for |k| > b, beyond the
        # longest head: q = b/(K + 1) >= 1, refused before any term is summed
        b = 5000
        calls = []

        def term(k):
            calls.append(k)
            return mp.mpf(b) / (k ** 2 + b ** 2)

        with pytest.raises(AccuracyError) as exc:
            bilateral_sum(term, lorentz_weights, b, b, dps=30)
        assert exc.value.estimate >= 1
        assert calls == []


def test_tail_terms_equal_the_linear_scan():
    # the scan over N that _tail_terms replaced, on random (D, q, wdps)
    def scan(D, q, wdps):
        if q == 0:
            return 0
        log_eps = -wdps * math.log(10)
        N = 0
        while (math.log(2 / D) + N * math.log(q)
               + math.log(((N + 1) - N * q) / (1 - q) ** 2 + D / (1 - q))
               > log_eps):
            N += 1
        return N

    rng = random.Random(7)
    for _ in range(1000):
        D = rng.choice([2.0, rng.uniform(1e-3, 50),
                        float(rng.randint(1, 3000))])
        q = min(0.95, rng.choice([rng.random(), rng.random() ** 8,
                                  1 - rng.random() ** 4, 0.5, 0.0]))
        wdps = rng.randint(5, 300)
        assert quadrature._tail_terms(D, q, wdps) == scan(D, q, wdps), (
            D, q, wdps)
