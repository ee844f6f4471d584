"""Quadrature and tail-corrected bilateral summation."""

import pytest
from mpmath import mp

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


class TestBilateralSum:
    def test_against_coth_closed_form(self):
        # sum_{k in Z} 1/(k^2 + a^2) = (pi/a) coth(pi a)
        mp.dps = 40
        a = mp.mpf("0.75")

        def term(k):
            return 1 / (k ** 2 + a ** 2)

        got = bilateral_sum(term, dps=40)
        want = mp.pi / a * mp.coth(mp.pi * a)
        assert abs(got - want) < mp.mpf(10) ** -12

    def test_odd_part_cancels(self):
        # term with a 1/k piece: pairing kills it, leaving the even tail
        mp.dps = 40
        a = mp.mpf("0.3")

        def term(k):
            if k == 0:
                return mp.mpf(0)
            return 1 / (k + a) / k  # ~ 1/k^2 after pairing

        got = bilateral_sum(term, dps=40)
        # partial fractions: 1/(k(k+a)) = (1/a)(1/k - 1/(k+a)); the two
        # half-line sums telescope to digamma values
        want = (mp.digamma(1 + a) - mp.digamma(1 - a)) / a
        assert abs(got - want) < mp.mpf(10) ** -20

    def test_tight_tolerance_achieved(self):
        # the analytic tail model reaches far below the K-truncation level
        mp.dps = 40

        def term(k):
            return 1 / (mp.mpf(k) ** 2 + 1)

        got = bilateral_sum(term, tol=mp.mpf(10) ** -25, dps=40)
        want = mp.pi * mp.coth(mp.pi)
        assert abs(got - want) < mp.mpf(10) ** -20

    def test_accuracy_error_on_rough_term(self):
        # a slowly, non-smoothly decaying term defeats the tail model
        mp.dps = 30

        def term(k):
            if k == 0:
                return mp.mpf(0)
            return mp.mpf(1) / (abs(k) ** 2 + (abs(k) % 7))

        with pytest.raises(AccuracyError):
            bilateral_sum(term, tol=mp.mpf(10) ** -25, dps=30)
