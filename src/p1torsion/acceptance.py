"""Self-test suite: the checks behind `p1torsion selftest`.

Each check_* function returns (ok, detail).  The test suite calls them
individually; the CLI runs them all and reports a table.
"""

from __future__ import annotations

import time
from fractions import Fraction

from mpmath import mp

from .numerics import ConstExpr
from . import torsion as _torsion
from . import scurrent as _scurrent
from . import chowring as _chowring
from . import torsionform as _torsionform


def expected_constant_term(ell: int) -> ConstExpr:
    """Closed form of the degree-0 torsion: 4 zeta'(-1) - (ell+1)^2/2
    - sum_{k=1}^{|ell+1|} (|ell+1| - 2k) log k."""
    big_l = abs(ell + 1)
    out = ConstExpr.zeta_prime(1, 4) \
        + ConstExpr.rational(Fraction(-(ell + 1) ** 2, 2))
    for k in range(2, big_l + 1):
        out = out + ConstExpr.log_int(k, -(big_l - 2 * k))
    return out


def expected_t2_coefficient(ell: int) -> ConstExpr:
    """Closed form of the t^2 coefficient:
    (10 L^4 - 5 L^2 - 4)/720 + (-4 zeta'(-3) - (3 L^2 - 1) zeta'(-1))/6
    + sum_{m=1}^{L} ((L-2m)^3 - (L-2m))/24 log m with L = |ell+1|.

    The bracket multiplying zeta'(-1) is 3 L^2 - 1 (verified against the
    quadrature route; a commonly printed form drops the factor 3)."""
    big_l = abs(ell + 1)
    out = ConstExpr.rational(
        Fraction(10 * big_l ** 4 - 5 * big_l ** 2 - 4, 720)) \
        + ConstExpr.zeta_prime(3, Fraction(-4, 6)) \
        + ConstExpr.zeta_prime(1, Fraction(-(3 * big_l ** 2 - 1), 6))
    for m in range(2, big_l + 1):
        out = out + ConstExpr.log_int(
            m, Fraction((big_l - 2 * m) ** 3 - (big_l - 2 * m), 24))
    return out


def check_height():
    start = time.time()
    r_term, s_term, total = _torsionform.height_components()
    value = _torsionform.height_p1z()
    elapsed = time.time() - start
    ok = (value == Fraction(1, 2) and total.is_rational()
          and elapsed < 1.0)
    return ok, (f"value={value!r}, r-term={r_term!r}, s-term={s_term!r}, "
                f"{elapsed:.3f}s")


def check_degree0_torsion():
    bad = []
    for ell in range(-3, 6):
        got = _torsion.torsion_infinitesimal(ell, 8).payload.coeff(0)
        if got != expected_constant_term(ell):
            bad.append(ell)
    return not bad, f"exact match for ell in -3..5; mismatches: {bad}"


def check_t2_coefficient():
    bad = []
    for ell in (0, 1, 2, 3):
        got = _torsion.torsion_infinitesimal(ell, 8).payload.coeff(2)
        if got != expected_t2_coefficient(ell):
            bad.append(ell)
    return not bad, f"exact match for ell in 0..3; mismatches: {bad}"


def check_structural_cancellation():
    bad = []
    for ell in range(-3, 6):
        try:
            series = _torsion.torsion_infinitesimal(ell, 12).payload
        except _torsion.CancellationError as exc:
            bad.append((ell, str(exc)))
            continue
        for n in series.degrees():
            c = series.coeff(n)
            if (n < 0 or n % 2) and not c.is_zero():
                bad.append((ell, n))
            if c.has_logt():
                bad.append((ell, n, "LOG_T"))
    return not bad, f"poles/odd/LOG_T all vanish for ell in -3..5; bad: {bad}"


def check_scurrent_paths(dps: int = 50):
    start = time.time()
    tol = mp.mpf(10) ** -10
    worst = mp.mpf(0)
    profiles = ("1", "r^2", "r^4", "r^2 + r^4")
    for text in profiles:
        profile = _scurrent.TestProfile.from_string(text)
        for t in (0.5, 1, 3):
            a = _scurrent.s_pairing_integral(profile, t, dps=dps)
            b = _scurrent.s_pairing_series(profile, t, dps=dps)
            worst = max(worst, abs(a - b))
    elapsed = time.time() - start
    ok = worst <= tol and elapsed < 30
    return ok, f"worst |integral - series| = {mp.nstr(worst, 3)}, {elapsed:.1f}s"


def check_tdchs_displays(dps: int = 50):
    tol = mp.mpf(10) ** -9
    worst = mp.mpf(0)
    for ell, t in ((0, 1), (3, 2.5), (-1, 0.7)):
        series_val = _torsion.tdchs_series(ell, 40).payload.evaluate(t, dps=dps)
        quad_val = _torsion.tdchs_value(ell, t, dps=dps).payload
        worst = max(worst, abs(series_val - quad_val))
    return worst <= tol, f"worst |series - quadrature| = {mp.nstr(worst, 3)}"


def check_asymptotics(dps: int = 20):
    start = time.time()
    errors = {}
    for ell in (100, 200, 400, 800):
        quad = _torsion.tdchs_value(ell, 1.0, dps=dps).payload
        asym = _torsion.torsion_asymptotic(ell, 1.0, dps=dps)
        errors[ell] = abs(quad - asym)
    ratios = {ell: errors[2 * ell] / errors[ell] for ell in (100, 200, 400)}
    elapsed = time.time() - start
    ok = all(r <= 0.7 for r in ratios.values()) and elapsed < 120
    detail = ", ".join(f"err({k})->err({2*k}) ratio {mp.nstr(v, 3)}"
                       for k, v in ratios.items())
    return ok, detail + f", {elapsed:.1f}s"


def check_defining_property(dps: int = 50):
    tol = mp.mpf(10) ** -8
    worst = mp.mpf(0)
    cases = [(lambda u: mp.sin(u), lambda u: 1),
             (lambda u: mp.sin(u) ** 3, lambda u: mp.cos(u) ** 2)]
    for f0, f1 in cases:
        r1, r2 = _scurrent.check_defining_property(f0, f1, dps=dps)
        worst = max(worst, abs(r1), abs(r2))
    return worst <= tol, f"worst residual = {mp.nstr(worst, 3)}"


def check_scaling(dps: int = 50):
    tol = mp.mpf(10) ** -10
    profile = _scurrent.TestProfile.from_string("r^2 + r^4")
    worst = mp.mpf(0)
    for t in (0.5, 1, 2):
        for c in (Fraction(1, 2), 2, 3):
            worst = max(worst, abs(_scurrent.check_scaling(
                profile, t, float(c), dps=dps)))
    symbolic = _scurrent.check_scaling_symbolic(profile, Fraction(3, 2))
    ok = worst <= tol and symbolic.is_zero()
    return ok, (f"worst numeric residual = {mp.nstr(worst, 3)}, "
                f"symbolic residual = {symbolic!r}")


def check_grr():
    bad = []
    for ell in range(-2, 5):
        residual = _chowring.check_grr_cancellation(ell, 12)
        if not residual.is_zero():
            bad.append((ell, _chowring.grr_failure_degrees(residual)))
    return not bad, f"exact zero through degree 12 for ell in -2..4; bad: {bad}"


def check_two_param(dps: int = 30):
    tol_pair = mp.mpf(10) ** -8
    tol_red = mp.mpf(10) ** -10
    try:
        for ell in (0, 1, 2):
            for s in (0.3, 0.7):
                for t in (0.1, 0.2):
                    _torsion.torsion_two_param(ell, s, t, dps=dps,
                                               tol=tol_pair)
    except _torsion.CancellationError as exc:
        return False, f"path disagreement: {exc}"
    worst = mp.mpf(0)
    for ell in (0, 1, 2):
        for s in (0.3, 0.7):
            a = _torsion.torsion_two_param(ell, s, 0.0, dps=dps)
            b = _torsion.torsion_group(ell, s, dps=dps)
            worst = max(worst, abs(a - b))
    ok = worst <= tol_red
    return ok, (f"paths agree within 1e-8 on the grid; worst t->0 reduction "
                f"residual = {mp.nstr(worst, 3)}")


def check_fiber_integration():
    cap = 16
    x = _chowring.BundleClass.x(cap)
    c1 = _chowring.BaseClass.c1(cap)
    c_tpi = x.scale(2) + _chowring.BundleClass.from_base(c1)
    disc = (_chowring.BaseClass.monomial(2, 0, 1, cap)
            + _chowring.BaseClass.monomial(0, 1, -4, cap))
    ok = True
    power = _chowring.BaseClass.one(cap)
    for m in range(0, 4):
        even = _chowring.fiber_integrate(c_tpi.power(2 * m))
        odd = _chowring.fiber_integrate(c_tpi.power(2 * m + 1))
        if not even.is_zero() or odd != power.scale(2):
            ok = False
        power = power * disc
    # negative control: the flipped relation must break at least one identity
    x_bad = _chowring.BundleClass.x(cap, relation_sign=1)
    c_tpi_bad = x_bad.scale(2) + _chowring.BundleClass.from_base(
        c1, relation_sign=1)
    control = any(
        not _chowring.fiber_integrate(c_tpi_bad.power(2 * m)).is_zero()
        for m in range(1, 4))
    return ok and control, (f"identities exact for m <= 3: {ok}; "
                            f"negative control fails as expected: {control}")


ALL_CHECKS = [
    ("height", check_height),
    ("degree0-torsion", check_degree0_torsion),
    ("t2-coefficient", check_t2_coefficient),
    ("structural-cancellation", check_structural_cancellation),
    ("scurrent-paths", check_scurrent_paths),
    ("tdchs-displays", check_tdchs_displays),
    ("asymptotics", check_asymptotics),
    ("defining-property", check_defining_property),
    ("scaling", check_scaling),
    ("grr-cancellation", check_grr),
    ("two-param", check_two_param),
    ("fiber-integration", check_fiber_integration),
]


def run_all():
    """Run every check; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
