"""Tests for the closed-form torsion quantities.

The central oracle is the consistency chain: the group torsion minus the
current-pairing integral plus the I-class fixed-point term must equal the
assembled infinitesimal torsion series, each side computed by an
independent route (special-function values and quadrature on one side,
exact series coefficients on the other).
"""

import functools
import os
import subprocess
import sys
import time

from mpmath import mp
import pytest

from p1torsion import numerics, quadrature, specfun, torsion
from p1torsion.numerics import GUARD_DPS
from p1torsion.torsion import CancellationError, ConvergenceError


class TestConsistencyChain:
    @pytest.mark.parametrize("ell", [-4, -1, 0, 2, 5])
    @pytest.mark.parametrize("t", ["0.4", "1.3"])
    def test_group_minus_tdchs_plus_iclass(self, ell, t):
        mp.dps = 40
        tv = mp.mpf(t)
        lhs = (torsion.torsion_group(ell, tv, dps=40)
               - torsion.tdchs_value(ell, tv, dps=40).payload
               + torsion.i_class_value(ell, tv, dps=40))
        rhs = torsion.torsion_infinitesimal(ell, order=40).payload.evaluate(
            tv, dps=40)
        # truncating the even series at order 40 leaves (t/2pi)^42 behind
        assert abs(lhs - rhs) < mp.mpf(10) ** -25

    def test_infinitesimal_is_even_power_series(self):
        res = torsion.torsion_infinitesimal(3, order=14)
        series = res.payload
        assert series.min_degree == 0
        assert all(d % 2 == 0 for d in series.degrees())

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            torsion.torsion_infinitesimal(0, order=2)


class TestGroupTorsion:
    def test_twist_reflection_symmetry(self):
        # only |ell + 1| enters: ell and -2 - ell give the same torsion
        mp.dps = 30
        t = mp.mpf("0.9")
        for ell in (0, 1, 4, -7):
            a = torsion.torsion_group(ell, t, dps=30)
            b = torsion.torsion_group(-2 - ell, t, dps=30)
            assert abs(a - b) < mp.mpf(10) ** -28

    def test_domain_errors(self):
        for bad_t in (0, -0.5, 6.5, 7.0):
            with pytest.raises(ValueError):
                torsion.torsion_group(0, bad_t, dps=30)

    def test_cold_near_two_pi(self, monkeypatch):
        # R^rot sums at 2 pi - t there: 2 weights, not a table without end
        monkeypatch.setattr(numerics, "_TABLES", {})
        monkeypatch.setattr(specfun, "_zeta_prime_neg_at", functools.lru_cache(
            specfun._zeta_prime_neg_at.__wrapped__))
        with mp.workdps(50):
            t = 2 * mp.pi - mp.mpf("1e-6")
        start = time.perf_counter()
        value = torsion.torsion_group(0, t, 50)
        assert time.perf_counter() - start < 0.1
        with mp.workdps(70):
            want = (2 * specfun.r_rot_value(t, 50) * mp.cos(t / 2)
                    / mp.sin(t / 2))
            assert abs(value - want) <= mp.mpf(10) ** -49 * abs(want)

    def test_untwisted_log_sum_vanishes(self):
        # |ell + 1| <= 1 has no log-sum: pure 2 R^rot cos/sin
        mp.dps = 30
        t = mp.mpf("1.1")
        got = torsion.torsion_group(0, t, dps=30)
        want = (2 * specfun.r_rot_value(t, dps=30) * mp.cos(t / 2)
                / mp.sin(t / 2))
        assert abs(got - want) < mp.mpf(10) ** -28


class TestIClass:
    def test_one_bound_serves_both_series(self):
        # numerics.odd_series_terms counts the terms of R^rot and of the
        # I-class series from |w_m| <= 2 zeta(m+1)(log(m+1) + 2.5)/(2 pi);
        # every table entry through m = 201 at dps 50 meets it, and the
        # I-class weights share one sign, so their sum is at least |w_1|
        # and a cut at 10^-wdps |u| is relative
        # (R^rot sums at t <= pi only, and needs 101 weights at t = pi)
        dps = 50
        specfun.r_rot_value(mp.pi, dps)
        torsion.i_class_value(0, "3.5", dps)
        with mp.workdps(dps + GUARD_DPS):
            prec = mp.prec
            scale = mp.ldexp(1, -numerics.fixed_bits())
            tables = {key: numerics._TABLES[key, prec][:101]
                      for key in ("r_rot", "i_class")}
            for key, table in tables.items():
                assert len(table) == 101, key
                for j, w in enumerate(table):
                    m = 2 * j + 1
                    bound = (2 * mp.zeta(m + 1) * (mp.log(m + 1) + 2.5)
                             / (2 * mp.pi))
                    assert abs(w) * scale <= bound, (key, m)
        assert all(w < 0 for w in tables["i_class"])

    @pytest.mark.parametrize("t", ["0.6", "1.7"])
    def test_value_matches_direct_bilateral_sum(self, t):
        mp.dps = 40
        tv = mp.mpf(t)
        for ell in (0, 3):
            a = torsion.i_class_value(ell, tv, dps=40)
            b = torsion.i_class_direct(ell, tv, dps=40)
            assert abs(a - b) < mp.mpf(10) ** -30

    def test_prefactor_parity(self):
        # cos((ell+1)t/2) is even in ell + 1
        for f in (torsion.i_class_value, torsion.i_class_direct):
            assert f(2, "0.9", dps=30) == f(-4, "0.9", dps=30)

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("t", ["0.2", "3.1", "4.9"])
    def test_even_in_t(self, t, dps):
        # at -t the fixed-point Horner argument is negative, where >> floors
        mp.dps = 15
        for f in (torsion.i_class_value, torsion.i_class_direct):
            a, b = f(3, t, dps=dps), f(3, "-" + t, dps=dps)
            with mp.workdps(dps + 20):
                assert abs(a - b) <= mp.mpf(10) ** -dps * max(1, abs(a))

    @pytest.mark.parametrize("route", ["i_class_value", "i_class_direct"])
    @pytest.mark.parametrize("t", ["1e-20", "-1e-20", "1e-80", "1e-400",
                                   "-1e-400"])
    def test_small_t_keeps_relative_precision(self, route, t):
        # the inner sum is O(t) and the prefactor O(1/t): an error bounded
        # only in absolute terms would show here.  Reference: the power
        # series in mpf, whose terms past t^9 are below 10^-200 relative
        mp.dps = 15
        ell = 2
        got = getattr(torsion, route)(ell, t, dps=50)
        with mp.workdps(70):
            tv = mp.mpf(t)
            inner = mp.fsum(mp.mpf(c.numerator) / c.denominator * tv ** m
                            for m in range(1, 10, 2)
                            for c in [torsion._i_class_inner_coeff(m)])
            want = mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2) * inner
            assert abs(got - want) <= mp.mpf(10) ** -50 * abs(want)

    def test_direct_domain_error(self):
        with pytest.raises(ValueError):
            torsion.i_class_direct(0, 7.0, dps=30)

    def test_value_refuses_near_two_pi_fast(self):
        # at t = 6.2 the series needs terms up to about t^10000 for 50
        # digits; the count is known before any coefficient is built
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="i_class_direct"):
            torsion.i_class_value(1, "6.2", dps=50)
        assert time.perf_counter() - start < 0.1

    def test_value_near_the_cap_matches_direct(self):
        # t = 5.5 needs terms up to t^1045, still below the cap
        mp.dps = 15
        got = torsion.i_class_value(2, "5.5", dps=50)
        want = torsion.i_class_direct(2, "5.5", dps=50)
        assert abs(got - want) <= mp.mpf(10) ** -50 * max(1, abs(want))


def _nsum_log_sum(s, t, dps):
    """sum_k log(1 + t/d_k)/(d_k + t), d_k = 2 pi k + s, d_k = 0 left out,
    by mpmath's nsum over the paired terms."""
    with mp.workdps(dps):
        sv, tv = mp.mpf(s), mp.mpf(t)

        def term(k):
            d = 2 * mp.pi * k + sv
            return mp.mpf(0) if d == 0 else mp.log1p(tv / d) / (d + tv)

        return term(0) + mp.nsum(lambda k: term(k) + term(-k), [1, mp.inf])


class TestBilateralLogSum:
    """The direct routes hold every digit they return: against an nsum
    reference at 20 more digits, under the default global precision."""

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("t", ["0.2", "1.45", "3.0", "4.5", "2pi-0.01"])
    def test_i_class_direct_against_nsum(self, t, dps):
        mp.dps = 15
        with mp.workdps(dps + 20):
            tv = (2 * mp.pi - mp.mpf("0.01") if t == "2pi-0.01"
                  else mp.mpf(t))
        ell = 3
        got = torsion.i_class_direct(ell, tv, dps=dps)
        with mp.workdps(dps + 20):
            want = (-(mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2))
                    * _nsum_log_sum(0, tv, dps + 20))
            assert abs(got - want) <= mp.mpf(10) ** -dps * max(1, abs(want))

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("s,t", [("2.1", "0.63"), ("6.2", "0.05"),
                                     ("0.05", "0.04"), ("4.9", "-0.4")])
    def test_two_param_k_sum_against_nsum(self, s, t, dps):
        mp.dps = 15
        got = torsion.bilateral_log_sum(s, t, dps=dps)
        with mp.workdps(dps + 20):
            want = _nsum_log_sum(s, t, dps + 20)
            assert abs(got - want) <= mp.mpf(10) ** -dps * max(1, abs(want))

    @pytest.mark.parametrize("s", ["0", "2.1"])
    def test_small_x_keeps_relative_precision(self, s):
        # the sum is O(x): its tail cut and its head logarithms must hold
        # 50 digits relative to it, not 10^-50 absolute
        mp.dps = 15
        got = torsion.bilateral_log_sum(s, "1e-30", dps=50)
        with mp.workdps(70):
            want = _nsum_log_sum(s, "1e-30", 70)
            assert abs(got - want) <= mp.mpf(10) ** -50 * abs(want)

    def test_shift_is_reduced_mod_two_pi(self):
        mp.dps = 15
        a = torsion.bilateral_log_sum("2.1", "0.63", dps=50)
        with mp.workdps(60):
            b = torsion.bilateral_log_sum(mp.mpf("2.1") + 4 * mp.pi, "0.63",
                                          dps=50)
            assert abs(a - b) <= mp.mpf(10) ** -49


class TestPrecisionTables:
    """The t-independent tables of the I-class routes are built once per
    working precision, and no result depends on the order of the calls."""

    def test_one_hurwitz_pass_per_precision(self, monkeypatch):
        passes = []
        hurwitz = quadrature.hurwitz_zeta_values

        def counted(*args, **kwargs):
            passes.append(args)
            return hurwitz(*args, **kwargs)

        monkeypatch.setattr(quadrature, "hurwitz_zeta_values", counted)
        monkeypatch.setattr(numerics, "_TABLES", {})
        for j in range(10):
            torsion.i_class_direct(j - 3, mp.mpf("0.3") + j * mp.mpf("0.6"),
                                   dps=50)
        assert len(passes) == 1
        torsion.i_class_direct(1, "2.5", dps=70)
        assert len(passes) == 2

    def test_values_do_not_depend_on_call_order(self, monkeypatch):
        # a fresh process builds dps 50 first; this one builds dps 100
        # first, from empty tables, under a global precision of 15.  The
        # fresh process fills zeta'(-7) by a top-level call before R^rot
        # reads it as a weight; this one fills it through R^rot, a nested
        # call that does not round, and then asks for it
        script = (
            "from mpmath import mp\n"
            "from p1torsion import specfun, torsion\n"
            "for dps in (50, 100):\n"
            "    for f in (torsion.i_class_direct, torsion.i_class_value):\n"
            "        v = f(3, '4.3', dps=dps)\n"
            "        print(v.man, v.exp)\n"
            "    for v in (specfun.zeta_prime_neg(7, dps),\n"
            "              specfun.r_rot_value('2.0', dps)):\n"
            "        print(v.man, v.exp)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        fresh = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True,
                               check=True).stdout.split("\n")

        monkeypatch.setattr(numerics, "_TABLES", {})
        monkeypatch.setattr(specfun, "_zeta_prime_neg_at", functools.lru_cache(
            specfun._zeta_prime_neg_at.__wrapped__))
        mp.dps = 15
        got = {}

        def record(name, dps, v):
            got.setdefault((name, dps), set()).add(f"{v.man} {v.exp}")

        for dps in (100, 50, 100):
            for f in (torsion.i_class_direct, torsion.i_class_value):
                record(f.__name__, dps, f(3, "4.3", dps=dps))
            record("r_rot_value", dps, specfun.r_rot_value("2.0", dps))
            record("zeta_prime_neg", dps, specfun.zeta_prime_neg(7, dps))
        assert mp.dps == 15
        assert got == {("i_class_direct", 50): {fresh[0]},
                       ("i_class_value", 50): {fresh[1]},
                       ("zeta_prime_neg", 50): {fresh[2]},
                       ("r_rot_value", 50): {fresh[3]},
                       ("i_class_direct", 100): {fresh[4]},
                       ("i_class_value", 100): {fresh[5]},
                       ("zeta_prime_neg", 100): {fresh[6]},
                       ("r_rot_value", 100): {fresh[7]}}


class TestTdchs:
    @pytest.mark.parametrize("ell", [-2, 0, 3])
    def test_series_matches_quadrature(self, ell):
        mp.dps = 40
        t = mp.mpf("0.8")
        series = torsion.tdchs_series(ell, order=36).payload
        got = series.evaluate(t, dps=40)
        want = torsion.tdchs_value(ell, t, dps=40).payload
        assert abs(got - want) < mp.mpf(10) ** -25

    @pytest.mark.parametrize("t", ["-0.7", "-1.3"])
    def test_series_matches_quadrature_at_negative_t(self, t):
        # the series takes LOG_T = log|t|; the integral takes log t^2
        got = torsion.tdchs_series(1, order=40).payload.evaluate(t, dps=40)
        want = torsion.tdchs_value(1, t, dps=40).payload
        assert abs(got - want) < mp.mpf(10) ** -25 * max(1, abs(want))

    def test_twist_reflection_symmetry(self):
        a = torsion.tdchs_series(1, order=12).payload
        b = torsion.tdchs_series(-3, order=12).payload
        for d in range(-2, 13):
            assert a.coeff(d) == b.coeff(d)


class TestOscillatoryIntegral:
    @pytest.mark.parametrize("ell,t", [(10, "1.0"), (25, "0.4"), (4, "2.0")])
    def test_sici_closed_form_matches_quadrature(self, ell, t):
        mp.dps = 30
        tv = mp.mpf(t)
        quad = torsion.oscillatory_integral_quad(ell, tv, dps=30)
        closed = torsion.oscillatory_integral_sici(ell, tv, dps=30)
        assert abs(quad - closed) < mp.mpf(10) ** -20

    def test_closed_form_needs_positive_twist(self):
        with pytest.raises(ValueError):
            torsion.oscillatory_integral_sici(-2, 1.0, dps=30)


class TestAsymptotic:
    def test_matches_integral_at_large_ell(self):
        mp.dps = 20
        t = mp.mpf("1.0")
        ell = 400
        exact = torsion.tdchs_value(ell, t, dps=20).payload
        approx = torsion.torsion_asymptotic(ell, t, dps=20)
        assert abs(exact - approx) < mp.mpf("0.05")


class TestTwoParameter:
    def test_r_two_variable_reduces_to_rotation_term(self):
        # R(theta, 0) = 2i R^rot(theta)
        mp.dps = 40
        for th in (mp.mpf("0.7"), mp.mpf("2.0")):
            got = torsion.r_two_variable(th, 0, dps=40)
            want = 2j * specfun.r_rot_value(th, dps=40)
            assert abs(got - want) < mp.mpf(10) ** -30

    def test_r_two_variable_ignores_global_precision(self):
        mp.dps = 15
        got = torsion.r_two_variable(1.0, 0.4j, dps=50)
        # the 70-digit value through R~0(-theta, -x) = conj R~0(theta, x)
        # for real theta and imaginary x, at half the cost
        with mp.workdps(80):
            want = 2j * mp.im(torsion.r_tilde0(1.0, 0.4j, dps=70))
        with mp.workdps(80):
            assert abs(got - want) < mp.mpf(10) ** -50

    def test_two_routes_agree_internally(self):
        # torsion_two_param raises if its Lerch route and its direct
        # bilateral-sum route disagree; a successful value is the test
        mp.dps = 30
        val = torsion.torsion_two_param(2, mp.mpf("0.9"), mp.mpf("0.3"),
                                        dps=30, tol=mp.mpf(10) ** -20)
        assert mp.isfinite(val)

    def test_reduces_to_group_torsion_as_t_vanishes(self):
        mp.dps = 30
        s = mp.mpf("1.2")
        group = torsion.torsion_group(1, s, dps=30)
        prev = None
        for t in (mp.mpf("1e-2"), mp.mpf("1e-3")):
            val = torsion.torsion_two_param(1, s, t, dps=30)
            err = abs(val - group)
            if prev is not None:
                assert err < prev / 5  # linear vanishing in t
            prev = err
        assert prev < mp.mpf("5e-3")

    def test_negative_angle_sum(self):
        # s + t = -0.6: the bilateral-sum route takes R^rot at a negative
        # angle.  The torsion is even under (s, t) -> (-s, -t), and at
        # (1, -0.4) both routes stay at positive angles
        got = torsion.torsion_two_param(0, "-1.0", "0.4", dps=30)
        want = torsion.torsion_two_param(0, "1.0", "-0.4", dps=30)
        assert abs(got - want) <= mp.mpf(10) ** -30 * max(1, abs(want))

    def test_routes_agree_at_fifty_digits(self):
        # the bounded k-sum brings the route gap to about 1e-52 here; a
        # fixed-depth tail model left 1.2e-44
        mp.dps = 15
        val = torsion.torsion_two_param(1, "2.1", "0.63", dps=50,
                                        tol=mp.mpf(10) ** -47)
        assert mp.isfinite(val)

    def test_default_tol_follows_precision(self, monkeypatch):
        # a k-sum off by 1e-25 passes a fixed 1e-8 tolerance, but not the
        # default 10^(3 - dps) max(1, |value|) at dps 30
        exact = torsion.bilateral_log_sum
        monkeypatch.setattr(torsion, "bilateral_log_sum",
                            lambda s, t, dps: exact(s, t, dps) + mp.mpf("1e-25"))
        with pytest.raises(CancellationError, match="disagree"):
            torsion.torsion_two_param(1, 2.1, 0.63, dps=30)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            torsion.torsion_two_param(0, 0.0, 0.5, dps=30)
        with pytest.raises(ValueError):
            torsion.torsion_two_param(0, 4.0, 3.0, dps=30)


class TestRTilde0:
    def test_conjugation_symmetry(self):
        # coefficients are conjugated under phi -> 2 pi - phi, x -> conj(x)
        mp.dps = 30
        phi = mp.mpf("1.3")
        x = mp.mpc("0.2", "0.1")
        a = torsion.r_tilde0(phi, x, dps=30)
        b = torsion.r_tilde0(2 * mp.pi - phi, mp.conj(x), dps=30)
        assert abs(a - mp.conj(b)) < mp.mpf(10) ** -25

    def test_divergence_guard(self):
        # |x| >= phi is outside the radius of convergence
        with pytest.raises(ConvergenceError):
            torsion.r_tilde0(mp.mpf("0.1"), mp.mpf("2.0"), dps=20,
                             max_terms=60)

    def test_angle_zero_is_a_domain_error(self):
        with pytest.raises(ValueError):
            torsion.r_tilde0(0, mp.mpf("0.1"), dps=20)

    def test_term_cap_inside_radius(self):
        # |x|/phi = 0.8 converges, but not to 20 digits in 5 terms
        with pytest.raises(ConvergenceError, match="0.8"):
            torsion.r_tilde0(mp.mpf("0.05"), mp.mpf("0.04"), dps=20,
                             max_terms=5)
