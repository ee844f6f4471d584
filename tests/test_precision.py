"""Results do not depend on the caller's global precision.

Every public numeric function is called under the global mp.dps = 15 with
arguments built at 60 digits (t = 4/3 and numbers made from it).  Its
result at dps must match its own result at dps + 20, computed under a
global precision of dps + 20, to 10^-dps max(1, |v|): the guard digits of
numerics.guarded must absorb both the rounding of its arguments and that of
its own arithmetic, and no argument may be read at the caller's 15 digits.
Each case runs at dps 50, and at dps 100 where that call takes under a
second; the I-class routes and bilateral_sum also run at dps 200.
check_defining_property is left out: its residuals depend on dps through
its finite-difference step.
"""

import pytest
from mpmath import mp

from p1torsion import quadrature, scurrent, specfun, torsion
from p1torsion.numerics import ConstExpr
from p1torsion.quadrature import IntegrandSpec
from test_quadrature import lorentz_weights

with mp.workdps(60):
    T = mp.mpf(4) / 3
    T_LARGE = 100 * T        # past the Si/Ci crossover at dps 50
    T_SMALL = T / 1000       # a two-parameter t far inside its envelope
    X_SMALL = T_SMALL * 1j

PROFILE = scurrent.TestProfile.from_string("r^2 + r^4")
EXPR = (ConstExpr.zeta_prime(3, 2) + ConstExpr.gamma(-1)
        + ConstExpr.log_int(6, 3) + ConstExpr.log_t(5))


def _lorentz_sum(dps):
    return quadrature.bilateral_sum(lambda k: T / (k * k + T * T),
                                    lorentz_weights, T, T, dps=dps)


# name -> (call at dps, the precisions it runs at)
CASES = {
    "ConstExpr.eval": (lambda dps: EXPR.eval(dps, logt_value=T), (50, 100)),
    "LaurentSeries.evaluate": (
        lambda dps: torsion.tdchs_series(0, 20).payload.evaluate(T, dps=dps),
        (50, 100)),
    "hurwitz_zeta": (lambda dps: specfun.hurwitz_zeta(3, T, dps), (50, 100)),
    "hurwitz_zeta'": (lambda dps: specfun.hurwitz_zeta(
        3, T, dps, derivative=True), (50, 100)),
    "hurwitz_zeta_values": (lambda dps: tuple(
        specfun.hurwitz_zeta_values([2, 5], T, dps).values()), (50, 100)),
    "stieltjes_gamma1": (lambda dps: specfun.stieltjes_gamma1(T, dps),
                         (50, 100)),
    "zeta_prime_neg": (lambda dps: specfun.zeta_prime_neg(3, dps), (50, 100)),
    "lerch_neg": (lambda dps: specfun.lerch_neg(2, T, dps), (50, 100)),
    "lerch_prime_neg(0)": (lambda dps: specfun.lerch_prime_neg(0, T, dps),
                           (50, 100)),
    "lerch_prime_neg(2)": (lambda dps: specfun.lerch_prime_neg(2, T, dps),
                           (50, 100)),
    "si": (lambda dps: specfun.si(T, dps), (50, 100)),
    "ci": (lambda dps: specfun.ci(T, dps), (50, 100)),
    "si large": (lambda dps: specfun.si(T_LARGE, dps), (50, 100)),
    "ci large": (lambda dps: specfun.ci(T_LARGE, dps), (50, 100)),
    "r_rot_value": (lambda dps: specfun.r_rot_value(T, dps), (50, 100)),
    "integrate": (lambda dps: quadrature.integrate(IntegrandSpec(
        lambda r: mp.exp(T * r) / (1 + r * r), 0, T), dps=dps).value,
        (50, 100)),
    "bilateral_sum": (_lorentz_sum, (50, 100, 200)),
    "torsion_group": (lambda dps: torsion.torsion_group(2, T, dps), (50, 100)),
    "i_class_value": (lambda dps: torsion.i_class_value(1, T, dps),
                      (50, 100, 200)),
    "i_class_direct": (lambda dps: torsion.i_class_direct(1, T, dps),
                       (50, 100, 200)),
    "bilateral_log_sum": (lambda dps: torsion.bilateral_log_sum(T, T, dps),
                          (50, 100)),
    "tdchs_value": (lambda dps: torsion.tdchs_value(2, T, dps).payload,
                    (50, 100)),
    "oscillatory_integral_quad": (
        lambda dps: torsion.oscillatory_integral_quad(2, T, dps), (50, 100)),
    "oscillatory_integral_sici": (
        lambda dps: torsion.oscillatory_integral_sici(2, T, dps), (50, 100)),
    "torsion_asymptotic": (lambda dps: torsion.torsion_asymptotic(100, T, dps),
                           (50, 100)),
    "r_tilde0": (lambda dps: torsion.r_tilde0(T, X_SMALL, dps), (50,)),
    "r_two_variable": (lambda dps: torsion.r_two_variable(T, X_SMALL, dps),
                       (50,)),
    "torsion_two_param": (
        lambda dps: torsion.torsion_two_param(1, T, T_SMALL, dps), (50,)),
    "s_pairing_integral": (
        lambda dps: scurrent.s_pairing_integral(PROFILE, T, dps), (50, 100)),
    "s_pairing_series": (
        lambda dps: scurrent.s_pairing_series(PROFILE, T, dps), (50, 100)),
    "s_pairing_star_variant": (
        lambda dps: scurrent.s_pairing_star_variant(PROFILE, T, dps=dps),
        (50, 100)),
    "check_scaling": (
        lambda dps: scurrent.check_scaling(PROFILE, T, T, dps), (50, 100)),
}


def _numbers(value):
    if isinstance(value, tuple):
        return [x for v in value for x in _numbers(v)]
    return [value]


@pytest.mark.parametrize("name,dps", [(name, dps) for name, (_, precisions)
                                      in CASES.items() for dps in precisions])
def test_result_ignores_global_precision(name, dps):
    call = CASES[name][0]
    mp.dps = 15
    got = _numbers(call(dps))
    assert mp.dps == 15
    with mp.workdps(dps + 20):  # nothing but dps limits the reference
        want = _numbers(call(dps + 20))
    with mp.workdps(dps + 40):
        for g, w in zip(got, want, strict=True):
            bound = mp.mpf(10) ** -dps * max(1, abs(w))
            assert abs(g - w) <= bound, (
                f"{name} at dps {dps}: off by {mp.nstr(abs(g - w), 3)}, "
                f"allowed {mp.nstr(bound, 3)}")
