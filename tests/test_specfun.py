"""Special functions: independent oracles for every evaluation path."""

import functools
import inspect
import math
import random
import types

import pytest
from mpmath import mp

from p1torsion import numerics, specfun, torsion
from p1torsion.numerics import GUARD_DPS
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

    @pytest.mark.parametrize("bits", [200, 720])
    def test_em_weights_match_the_bernoulli_form(self, bits):
        # (-1)^{i+1} 2 zeta(2i) against B_{2i} (2 pi)^{2i}/(2i)!, the form
        # the weights took from exact Bernoulli numbers; the registry keeps
        # them at scale 2^bits for the working precision bits - 20
        with mp.workprec(bits - 20):
            table = numerics.fixed_table("euler_maclaurin",
                                         specfun._em_weights, 60)
        for i in range(1, 61):
            b = specfun.bernoulli(2 * i)
            with mp.workprec(bits + 10):
                value = (mp.mpf(b.numerator) * (2 * mp.pi) ** (2 * i)
                         / (b.denominator * math.factorial(2 * i)))
                want = int(mp.ldexp(value, bits))
            assert abs(table[i - 1] - want) <= 2

    def test_values_need_integer_s_above_one(self):
        for ss in ([], [1, 2], [2.5]):
            with pytest.raises(ValueError):
                specfun.hurwitz_zeta_values(ss, 0.5, dps=30)
        with pytest.raises(ValueError):
            specfun.hurwitz_zeta_values([2], 0, dps=30)

    def test_em_shift_equals_the_linear_scan(self):
        # the scan _em_shift replaced: raise M one step at a time from the
        # same start until every s meets the bound
        def scan(a, ss, wdps):
            log_eps = -wdps * math.log(10) - 1

            def log_bound(s, y):
                J = max(1, math.floor((y - s + 1) / 2))
                return (math.log(4 * (s - 1)) + math.lgamma(s + 2 * J - 1)
                        - math.lgamma(s) - 2 * J * math.log(y))

            M = max(0, math.ceil(-log_eps / (2 * math.pi) - a))
            while any(log_bound(s, 2 * math.pi * (a + M)) > log_eps
                      for s in ss):
                M += 1
            return M

        rng = random.Random(12)
        for _ in range(300):
            a = rng.choice([rng.uniform(1e-4, 1), rng.uniform(1, 60),
                            float(rng.randint(1, 40))])
            top = rng.randint(2, 900)
            ss = sorted(set(rng.randint(2, top) for _ in range(8))) + [top]
            wdps = rng.randint(15, 520)
            assert specfun._em_shift(a, ss, wdps) == scan(a, ss, wdps), (
                a, ss, wdps)

    def test_stieltjes_gamma1(self):
        mp.dps = 40
        got = specfun.stieltjes_gamma1(mp.mpf(1), dps=40)
        assert abs(got - mp.stieltjes(1)) < mp.mpf(10) ** -35


GAMMA1_POINTS = ["1e-6", "0.01", "0.3", "0.5", "0.97", "1-1e-6"]


def _gamma1_input(a, dps):
    """The point a, built at the oracle's precision, dps + 40 digits."""
    with mp.workdps(dps + 40):
        return 1 - mp.mpf("1e-6") if a == "1-1e-6" else mp.mpf(a)


@functools.cache
def _gamma1_oracle(a, dps):
    with mp.workdps(dps + 40):
        return mp.stieltjes(1, _gamma1_input(a, dps))


def _gamma1_em(x, dps):
    """gamma_1(x) by Euler-Maclaurin at the shift stieltjes_gamma1 takes,
    from mpmath's Bernoulli numbers at dps + 40 digits: the value with no
    correction, and for J = 1, 2, ... the J-th correction and the stated
    bound on the remainder after J corrections, up to the first J at which
    that bound is below 10^-(dps + GUARD_DPS)."""
    wdps = dps + GUARD_DPS
    M = specfun._em_shift(float(x), [2], wdps)
    with mp.workdps(dps + 40):
        X = x + M
        log_x = mp.log(X)
        base = (mp.fsum(mp.log(x + j) / (x + j) for j in range(M))
                - log_x ** 2 / 2 + log_x / (2 * X))
        terms, bounds = [], []
        while not bounds or bounds[-1] > mp.mpf(10) ** -wdps:
            J = len(terms) + 1
            terms.append(mp.bernoulli(2 * J) / (2 * J)
                         * (log_x - mp.harmonic(2 * J - 1)) / X ** (2 * J))
            bounds.append(4 * mp.factorial(2 * J - 1)
                          * (log_x + mp.harmonic(2 * J) + mp.mpf(1) / (2 * J))
                          / (2 * mp.pi * X) ** (2 * J))
    return base, terms, bounds


class TestStieltjesGamma1:
    @pytest.mark.parametrize("dps", [50, 100, 200])
    @pytest.mark.parametrize("a", GAMMA1_POINTS)
    def test_against_mpmath(self, a, dps):
        mp.dps = 15
        got = specfun.stieltjes_gamma1(_gamma1_input(a, dps), dps)
        want = _gamma1_oracle(a, dps)
        with mp.workdps(dps + 40):
            assert abs(got - want) <= mp.mpf(10) ** -dps * max(1, abs(want))

    @pytest.mark.parametrize("dps", [50, 100, 200])
    @pytest.mark.parametrize("a", GAMMA1_POINTS)
    def test_stated_remainder_covers_the_error(self, a, dps):
        want = _gamma1_oracle(a, dps)
        partial, terms, bounds = _gamma1_em(_gamma1_input(a, dps), dps)
        with mp.workdps(dps + 40):
            for J, (term, bound) in enumerate(zip(terms, bounds), 1):
                partial += term
                assert abs(partial - want) <= bound, J

    @pytest.mark.parametrize("a", ["0.01", "0.97"])
    def test_dropped_correction_is_seen(self, a, monkeypatch):
        # zero one weight of the registry at a time: every correction
        # larger than twice the tolerance is missed
        dps = 50
        x, want = _gamma1_input(a, dps), _gamma1_oracle(a, dps)
        tol = mp.mpf(10) ** -dps * max(1, abs(want))
        specfun.stieltjes_gamma1(x, dps)
        with mp.workdps(dps + GUARD_DPS):
            entry = ("euler_maclaurin", mp.prec)
        weights = numerics._TABLES[entry]
        _, terms, _ = _gamma1_em(x, dps)
        dropped = [i for i, term in enumerate(terms) if abs(term) > 2 * tol]
        assert dropped
        for i in dropped:
            table = list(weights)
            table[i] = 0
            monkeypatch.setitem(numerics._TABLES, entry, table)
            with mp.workdps(dps + 40):
                assert abs(specfun.stieltjes_gamma1(x, dps) - want) > tol, i

    @pytest.mark.parametrize("a", ["-0.5", "0"])
    def test_needs_positive_a(self, a):
        with pytest.raises(ValueError):
            specfun.stieltjes_gamma1(mp.mpf(a), 30)

    @pytest.mark.parametrize("a", ["1e20", "1e400"])
    def test_large_a_against_mpmath(self, a):
        # _em_shift takes a at most 1e15, for gamma_1 and zeta(s, a) alike
        dps = 30
        x = mp.mpf(a)
        got = specfun.stieltjes_gamma1(x, dps)
        values = specfun.hurwitz_zeta_values([2, 5], x, dps)
        with mp.workdps(dps + 20):
            want = mp.stieltjes(1, x)
            assert abs(got - want) <= mp.mpf(10) ** -dps * abs(want)
            for s, value in values.items():
                want = mp.zeta(s, x)
                assert abs(value - want) <= mp.mpf(10) ** -dps * want

    def test_beyond_the_float_range(self):
        # at a = 1e400 every correction is below 1e-800: gamma_1(a) is
        # -log^2 a/2 + log a/(2a) to all digits
        a = mp.mpf("1e400")
        with mp.workdps(70):
            want = -mp.log(a) ** 2 / 2 + mp.log(a) / (2 * a)
            assert abs(specfun.stieltjes_gamma1(a, 50) - want) <= (
                mp.mpf(10) ** -50 * abs(want))


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
        # zeta_L(-k, phi) = Li_{-k}(e^{i phi}), by mpmath's polylog
        mp.dps = 30
        phi = mp.mpf("1.1")
        for k in (1, 2, 3):
            want = mp.polylog(-k, mp.expj(phi))
            direct = specfun.lerch_neg(k, phi, dps=30)
            assert abs(want - direct) < mp.mpf(10) ** -24

    def test_conjugation_symmetry(self):
        # zeta_L(s, 2 pi - phi) = conj zeta_L(s, phi) for real s, so the
        # s-derivative at -k obeys it too
        mp.dps = 30
        phi = mp.mpf("0.7")
        for k in (0, 1, 3):
            a = specfun.lerch_prime_neg(k, phi, dps=30)
            b = specfun.lerch_prime_neg(k, 2 * mp.pi - phi, dps=30)
            assert abs(b - mp.conj(a)) < mp.mpf(10) ** -24

    def test_derivative_against_central_difference(self):
        # d/ds Li_s(e^{i phi}) at s = -k, by mpmath's polylog and diff
        mp.dps = 40
        phi = mp.mpf("1.3")
        z = mp.expj(phi)
        for k in (0, 1, 2):
            got = specfun.lerch_prime_neg(k, phi, dps=40)
            want = mp.diff(lambda s: mp.polylog(s, z), -k)
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
        hi = specfun._sici_asymptotic(x)
        # the Taylor branch yields (Si, -Cin); convert to Ci to compare
        lo_ci = mp.euler + mp.log(x) + lo[1]
        assert abs(lo[0] - hi[0]) < mp.mpf(10) ** -25
        assert abs(lo_ci - hi[1]) < mp.mpf(10) ** -25

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("where", ["0.1", "5", "30", "12 pi",
                                       "below the crossover"])
    def test_taylor_branch_against_mpmath(self, where, dps):
        # at 20 more digits, to 10^-dps max(1, |value|)
        with mp.workdps(dps + 20):
            x = {"12 pi": 12 * mp.pi,
                 "below the crossover":
                     mp.mpf(specfun._sici_crossover(dps)) - mp.mpf("1e-3"),
                 }.get(where) or mp.mpf(where)
            want = (mp.si(x), mp.ci(x))
        got = (specfun.si(x, dps), specfun.ci(x, dps))
        with mp.workdps(dps + 20):
            for g, w in zip(got, want):
                assert abs(g - w) <= mp.mpf(10) ** -dps * max(1, abs(w))

    @pytest.mark.parametrize("old,new", [
        ("si += si_term // (2 * k + 1)",
         "si += si_term // (2 * k + 1) if k != 4 else 0"),
        ("cin += cin_term // (2 * k)",
         "cin += cin_term // (2 * k) if k != 4 else 0")])
    def test_dropping_one_term_is_seen(self, old, new):
        # specfun built again from its own source, once as it is and once
        # without the term k = 4 of the Si or the Ci sum: only the copy
        # that keeps every term matches mpmath
        source = inspect.getsource(specfun)
        assert source.count(old) == 1
        x = mp.mpf(5)
        with mp.workdps(70):
            want = (mp.si(x), mp.ci(x))
        bound = mp.mpf(10) ** -50
        errors = []
        for text in (source, source.replace(old, new)):
            copy = types.ModuleType("p1torsion.specfun_copy")
            copy.__package__ = "p1torsion"
            exec(compile(text, specfun.__file__, "exec"), copy.__dict__)
            got = (copy.si(x, 50), copy.ci(x, 50))
            errors.append(max(abs(g - w) for g, w in zip(got, want)))
        assert errors[0] <= bound < errors[1]

    def test_si_is_odd_at_low_global_precision(self):
        # the negation for x < 0 must run at the requested precision, not
        # at the caller's global one
        mp.dps = 15
        assert specfun.si(-1, 50) + specfun.si(1, 50) == 0
        assert specfun.si(0, 50) == 0

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


@functools.lru_cache(maxsize=None)
def _r_rot_oracle(t: str, dps: int):
    """(t, R^rot(t)) with R^rot(t) = Im d/ds Li_s(e^{it}) at s = 0 from
    mpmath alone, both at dps + 20 digits, in Lerch's closed form: with
    a = t/(2 pi), d/ds Li_s(e^{it}) at 0 is
    ((log 2 pi + gamma) B0 + B1)/(2 pi i),
    B0 = psi(a) - psi(1-a) - i pi and
    B1 = gamma_1(1-a) - gamma_1(a) - (i pi/2)(psi(1-a) + psi(a)).
    It takes 0.2-0.8 s a point where mp.diff of mp.polylog takes 1-13 s;
    TestRRot.test_series_matches_value keeps that form at dps 40."""
    with mp.workdps(dps + 20):
        tv = mp.mpf(t)
        a = tv / (2 * mp.pi)
        b0 = mp.digamma(a) - mp.digamma(1 - a) - 1j * mp.pi
        b1 = (mp.stieltjes(1, 1 - a) - mp.stieltjes(1, a)
              - 0.5j * mp.pi * (mp.digamma(1 - a) + mp.digamma(a)))
        return tv, mp.im(((mp.log(2 * mp.pi) + mp.euler) * b0 + b1)
                         / (2j * mp.pi))


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

    @pytest.mark.parametrize("dps,t", [(50, "0.2"), (50, "2.9"), (50, "5.0"),
                                       (100, "0.2"), (100, "2.9"),
                                       (100, "4.1")])
    def test_against_mpmath(self, dps, t):
        tv, want = _r_rot_oracle(t, dps)
        got = specfun.r_rot_value(tv, dps)
        with mp.workdps(dps + 20):
            assert abs(got - want) <= mp.mpf(10) ** -dps * max(1, abs(want))

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("t", ["3.0", "3.1"])
    def test_reflection(self, t, dps):
        # R^rot(2 pi - t) = -R^rot(t); 2 pi - t is formed at 20 more digits
        with mp.workdps(dps + 20):
            tv = mp.mpf(t)
            other = 2 * mp.pi - tv
        a = specfun.r_rot_value(tv, dps)
        b = specfun.r_rot_value(other, dps)
        with mp.workdps(dps + 20):
            assert abs(a + b) <= mp.mpf(10) ** -dps * max(1, abs(a))

    @pytest.mark.parametrize("route", ["r_rot_value", "i_class_value"])
    def test_perturbed_weight_is_seen(self, route, monkeypatch):
        # one weight of the odd-series registry moved by 2^-130 of itself,
        # about 10^-39: the value leaves the bound of a reference that does
        # not read that table (for the I-class series, the bilateral sum at
        # 20 more digits)
        dps = 50
        if route == "r_rot_value":
            key = "r_rot"
            tv, want = _r_rot_oracle("2.9", dps)

            def value():
                return specfun.r_rot_value(tv, dps)
        else:
            key = "i_class"
            tv = mp.mpf("2.9")
            want = torsion.i_class_direct(2, tv, dps + 20)

            def value():
                return torsion.i_class_value(2, tv, dps)
        bound = mp.mpf(10) ** -dps * max(1, abs(want))
        assert abs(value() - want) <= bound
        with mp.workdps(dps + GUARD_DPS):
            entry = (key, mp.prec)
        table = list(numerics._TABLES[entry])
        table[5] += table[5] >> 130
        monkeypatch.setitem(numerics._TABLES, entry, table)
        assert abs(value() - want) > bound

    def test_domain(self):
        # every real t outside 2 pi Z: R^rot is 2 pi-periodic, also within
        # 10^-20 of 2 pi, where R^rot(t) = -R^rot(2 pi - t) is
        # -(gamma + log e)/e to 40 digits at e = 2 pi - t; near is exact at
        # 30 digits, and e is formed from it at 60
        for t in (0, mp.mpf(0), -0.0):
            with pytest.raises(ValueError):
                specfun.r_rot_value(t, dps=30)
        with mp.workdps(30):
            near = 2 * mp.pi - mp.mpf("1e-20")
        with mp.workdps(60):
            seven = mp.mpf(7) - 2 * mp.pi
            e = 2 * mp.pi - near
            want = -(mp.euler + mp.log(e)) / e
        for got, want in ((specfun.r_rot_value(7, 30),
                           specfun.r_rot_value(seven, 30)),
                          (specfun.r_rot_value(near, 30), want)):
            with mp.workdps(60):
                assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want)

    @pytest.mark.parametrize("t", ["0.2", "3.0", "4.0", "6.2", "9.5"])
    def test_odd_at_negative_t(self, t):
        dps = 50
        a, b = specfun.r_rot_value(t, dps), specfun.r_rot_value("-" + t, dps)
        with mp.workdps(dps + 20):
            assert abs(a + b) <= mp.mpf(10) ** -dps * max(1, abs(a))

    @pytest.mark.parametrize("e", ["1e-6", "1e-30"])
    def test_near_two_pi(self, e):
        # t = 2 pi - e, exact at 50 digits, against Lerch's closed form with
        # 1 - a = e/(2 pi) formed directly: no reflection, no power series
        dps = 50
        with mp.workdps(dps):
            t = 2 * mp.pi - mp.mpf(e)
        with mp.workdps(dps + 40):
            b = (2 * mp.pi - t) / (2 * mp.pi)
            a = 1 - b
            want = -((mp.log(2 * mp.pi) + mp.euler)
                     * (mp.digamma(a) - mp.digamma(b))
                     + mp.stieltjes(1, b) - mp.stieltjes(1, a)) / (2 * mp.pi)
            got = specfun.r_rot_value(t, dps)
            assert abs(got - want) <= mp.mpf(10) ** -dps * abs(want)

    def test_below_the_float_range(self):
        # t/(2 pi) is 0 as a float; the power series is about 10^-800 of
        # (gamma + log t)/t
        t = mp.mpf("1e-400")
        with mp.workdps(70):
            want = (mp.euler + mp.log(t)) / t
            assert abs(specfun.r_rot_value(t, 50) - want) <= (
                mp.mpf(10) ** -50 * abs(want))
