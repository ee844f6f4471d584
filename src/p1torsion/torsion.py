"""Closed-form equivariant torsion quantities on the projective line.

Everything revolves around five pieces, all functions of ell (the twist of
O(ell)) and the rotation parameter t:

  * torsion_group        : torsion for the group element e^{tX}
  * i_class_*            : the I-class fixed-point term
  * tdchs_*              : the Todd-Chern-S-current integral, in both its
                           quadrature and its star-operator form
  * torsion_infinitesimal: the assembled infinitesimal torsion, an even
                           power series in t with no poles and no log t
  * torsion_two_param    : the (e^{sX}, tX)-torsion, computed over two
                           independent routes that must agree

Throughout, L = |ell + 1| drives the finite log-sums and a = ell + 1 the
cosine prefactor (which only depends on |a|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .chowring import t_tilde_series
from .numerics import GUARD_DPS, LOG_T, ConstExpr, guarded, harmonic
from .quadrature import (IntegrandSpec, bilateral_sum, integrate,
                         even_series_fixed)
from .series import (DEFAULT_ORDER, LaurentSeries, build_cos_scaled,
                     build_inv_sin_half, build_sin_scaled, star)
from .specfun import (ci, lerch_neg, lerch_prime_neg, r_rot_value, si,
                      zeta_neg)


class CancellationError(ArithmeticError):
    """The assembled series failed a structural cancellation it must satisfy."""


class ConvergenceError(ArithmeticError):
    """A series did not reach the requested precision within its term cap."""


@dataclass
class TorsionResult:
    payload: object  # LaurentSeries or mp.mpf
    ell: int
    path: str  # series | quadrature | bilateral-sum | lerch
    precision: int = 50
    order: Optional[int] = None


def _check_t_range(t):
    tv = mp.mpf(t)
    if not 0 < tv < 2 * mp.pi:
        raise ValueError("t must lie in (0, 2*pi)")
    return tv


def _log_sum_value(ell: int, tv):
    """sum_{m=1}^{|ell+1|} sin((2m-|ell+1|) t/2)/sin(t/2) * log m."""
    L = abs(ell + 1)
    return mp.fsum(mp.sin((2 * m - L) * tv / 2) / mp.sin(tv / 2) * mp.log(m)
                   for m in range(2, L + 1))


@guarded
def torsion_group(ell: int, t, dps: int = 50):
    """Equivariant torsion for the group element e^{tX}, 0 < t < 2 pi:
    2 R^rot(t) cos((ell+1)t/2)/sin(t/2) + the finite log-sum."""
    tv = _check_t_range(t)
    main = (2 * r_rot_value(tv, dps) * mp.cos((ell + 1) * tv / 2)
            / mp.sin(tv / 2))
    return main + _log_sum_value(ell, tv)


# ---------------------------------------------------------------------------
# I-class term
# ---------------------------------------------------------------------------

# The highest power of t the series route sums.  Its coefficients need the
# exact Bernoulli numbers up to that index, which take about 6 s to build at
# 1200 (CPython 3.11, one core) and grow faster than the square of the
# index; i_class_direct costs the same at every t.
I_CLASS_MAX_INDEX = 1200


def _i_class_inner_coeff(m: int) -> Fraction:
    """Real coefficient of t^m in (1/i) sum_{m odd} H_m zeta(-m) (it)^m/m!."""
    sign = (-1) ** ((m - 1) // 2)
    return harmonic(m) * zeta_neg(m) * sign / math.factorial(m)


# working dps -> [w_1, w_3, w_5, ...], w_m = c_m (2 pi)^m with
# c_m = _i_class_inner_coeff(m), as integers with scale 2^(prec + 20)
_I_CLASS_COEFFS: dict[int, list] = {}


def _i_class_coeffs(count: int, wdps: int) -> list:
    """The first ``count`` odd-index weights of i_class_value at wdps
    digits, from a table that grows on demand.  |w_m| = 2 H_m zeta(m+1)/(2 pi)
    is O(1), the scale the fixed-point Horner sum needs."""
    table = _I_CLASS_COEFFS.setdefault(wdps, [])
    with mp.workdps(wdps):
        bits = mp.mp.prec + 20
        two_pi = 2 * mp.pi
        for j in range(len(table), count):
            m = 2 * j + 1
            c = _i_class_inner_coeff(m)
            table.append(int(mp.ldexp(mp.mpf(c.numerator) / c.denominator
                                      * two_pi ** m, bits)))
    return table


def _i_class_last_index(tv, wdps: int) -> Optional[int]:
    """The index m at which the terms of i_class_value fall below
    10^-wdps, or None past I_CLASS_MAX_INDEX.

    |H_m zeta(-m)/m!| = 2 H_m zeta(m+1)/(2 pi)^{m+1} with
    zeta(m+1) <= 1 + 2^-m for m >= 7, so up to rounding the term at the m
    found here, where the summation stops, is below 10^-wdps."""
    log_ratio = math.log(float(abs(tv)) / (2 * math.pi))
    log_eps = -wdps * math.log(10)
    h = 1.0
    for m in range(1, I_CLASS_MAX_INDEX + 1, 2):
        if m > 1:
            h += 1 / (m - 1) + 1 / m
        if (m > 5 and math.log(2 * h * (1 + 2.0 ** -m) / (2 * math.pi))
                + m * log_ratio < log_eps):
            return m
    return None


@guarded
def i_class_value(ell: int, t, dps: int = 50):
    """Numeric I-class term for |t| < 2 pi, by its power series (the
    coefficients decay like (t/2pi)^m).

    The coefficients c_m = H_m zeta(-m) (-1)^{(m-1)/2}/m! come from exact
    Bernoulli numbers.  They are kept as c_m (2 pi)^m in fixed point, in a
    table per working precision dps + GUARD_DPS grown on demand.  The odd
    series in u = t/(2 pi), |u| < 1, is u times an even one, which
    quadrature.even_series_fixed sums up to the index _i_class_last_index
    finds, where the terms fall below 10^-(dps + GUARD_DPS); the factor u
    stays in mpf, so small t keeps its relative precision.  Past index
    I_CLASS_MAX_INDEX (t near 2 pi) the call raises ConvergenceError at once
    and points to i_class_direct.
    """
    wdps = dps + GUARD_DPS
    tv = mp.mpf(t)
    if not 0 < abs(tv) < 2 * mp.pi:
        raise ValueError("i_class_value needs 0 < |t| < 2*pi")
    last = _i_class_last_index(tv, wdps)
    if last is None:
        raise ConvergenceError(
            f"the I-class series at t = {mp.nstr(tv, 8)} needs terms "
            f"past t^{I_CLASS_MAX_INDEX} for {dps} digits; use "
            f"i_class_direct, whose cost does not grow near 2*pi")
    count = (last + 1) // 2
    bits = mp.mp.prec + 20
    u = tv / (2 * mp.pi)
    even = even_series_fixed(_i_class_coeffs(count, wdps)[:count],
                             int(mp.ldexp(u, bits)), bits)
    total = u * mp.ldexp(even, -bits)
    return (mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2)) * total


# working dps -> [(-1)^{n+1} H_n/(2 pi)^{n+1} for n = 1, 2, ...]
_LOG_SUM_WEIGHTS: dict[int, list] = {}


def _log_sum_weights(count: int, wdps: int) -> list:
    """(-1)^{n+1} H_n/(2 pi)^{n+1} for n = 1, ..., count at wdps digits:
    the expansion weights of bilateral_log_sum, from a table per working
    precision that grows on demand."""
    table = _LOG_SUM_WEIGHTS.setdefault(wdps, [])
    with mp.workdps(wdps):
        inv_two_pi = 1 / (2 * mp.pi)
        for n in range(len(table) + 1, count + 1):
            h = harmonic(n)
            table.append((-1) ** (n + 1) * inv_two_pi ** (n + 1)
                         * h.numerator / h.denominator)
    return table


@guarded
def bilateral_log_sum(s, x, dps: int = 50):
    """sum_k log(1 + x/d_k)/(d_k + x) over all integers k, d_k = 2 pi k + s,
    leaving out a term with d_k = 0.

    The sum is invariant under s -> s + 2 pi, so s is reduced to [0, 2 pi)
    first.  For |d| > |x| the term is
    sum_{n>=1} (-1)^{n+1} H_n x^n d^{-n-1}; quadrature.bilateral_sum sums
    |k| <= K directly and takes the rest from this expansion, in Hurwitz
    zeta values at shift s/(2 pi), to a bound below 10^-(dps + GUARD_DPS).
    The weights H_n/(2 pi)^{n+1} do not depend on s or x and are kept per
    precision (_log_sum_weights); at s = 0 bilateral_sum also keeps their
    products with the Hurwitz values, in fixed point.
    """
    two_pi = 2 * mp.pi
    sv = mp.fmod(mp.mpf(s), two_pi)
    if sv < 0:
        sv += two_pi
    xv = mp.mpmathify(x)
    x_far = mp.ldexp(abs(xv), 20)

    def term(k):
        d = two_pi * k + sv
        if d == 0:
            return mp.mpf(0)
        e = d + xv
        if abs(d) > x_far:  # e/d - 1 would keep too few digits of x/d
            return mp.log1p(xv / d) / e
        return mp.log(e / d) / e

    return bilateral_sum(term, _log_sum_weights, xv, abs(xv) / two_pi,
                         sv / two_pi, dps=dps)


@guarded
def i_class_direct(ell: int, t, dps: int = 50):
    """The same quantity through the defining bi-infinite sum
    sum_{k != 0} log(1 + t/(2 pi k))/(i t + 2 k pi i),
    evaluated with an exact, error-bounded tail (bilateral_log_sum at
    s = 0, where only odd powers of the expansion survive).

    The terms k = +-1 stay direct logarithms; the tail over |k| >= 2 is
    sum_{n odd} 2 H_n zeta(n+1, 2) t^n/(2 pi)^{n+1}.  The two routes share
    the harmonic numbers H_n and the fixed-point Horner sum
    (quadrature.even_series_fixed), but not their zeta values: this one
    takes zeta(n+1, 2) from Euler-Maclaurin with weights 2 zeta(2i) from
    mpmath, i_class_value takes zeta(-m) from exact Bernoulli numbers."""
    tv = mp.mpf(t)
    if not 0 < abs(tv) < 2 * mp.pi:
        raise ValueError("i_class_direct needs 0 < |t| < 2*pi")
    # The complex sum with denominator i(t + 2 k pi) is -i times the real
    # sum above; combined with the 1/i in the fixed-point prefactor
    # cos(.)/(i sin(.)) this contributes an overall -1.
    inner = bilateral_log_sum(0, tv, dps)
    return -(mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2)) * inner


# ---------------------------------------------------------------------------
# The Todd-Chern-S-current term
# ---------------------------------------------------------------------------

def _cos_over_t_sin(ell: int, order: int) -> LaurentSeries:
    """cos((ell+1)t/2)/(t sin(t/2)); even, min_degree -2."""
    return (build_cos_scaled(ell + 1, order + 4)
            * build_inv_sin_half(order + 4)).shift(-1).truncate(order)


def tdchs_series(ell: int, order: int = DEFAULT_ORDER) -> TorsionResult:
    """Star form: -(cos((ell+1)t/2)/(t sin(t/2)))^* plus
    (log t^2 + 2 gamma) cos((ell+1)t/2)/(t sin(t/2)); symbolic in LOG_T."""
    base = _cos_over_t_sin(ell, order)
    payload = -star(base) + base.scale(ConstExpr.log_t(2) + ConstExpr.gamma(2))
    return TorsionResult(payload=payload, ell=ell, path="series", order=order)


def _oscillation_breakpoints(a: int, tv):
    """Split points of [-1, 1] at the oscillation scale of cos(a t r / 2),
    or None when it oscillates too slowly to need them."""
    freq = abs(a * tv) / 2
    if freq <= 10:
        return None
    n = int(freq / mp.pi) + 1
    return [mp.mpf(-1) + 2 * mp.mpf(j) / n for j in range(1, n)]


@guarded
def tdchs_value(ell: int, t, dps: int = 50) -> TorsionResult:
    """Integral form of the same quantity, by quadrature."""
    tv = mp.mpf(t)
    if tv == 0 or abs(tv) >= 2 * mp.pi:
        raise ValueError("tdchs_value needs 0 < |t| < 2*pi")
    a = ell + 1
    boundary = mp.cos(a * tv / 2) / mp.sin(tv / 2)

    def integrand(r):
        if abs(r) == 1:
            return mp.mpf(0)  # removable
        if r == 0:
            num = 2 / tv - boundary
        else:
            num = r * mp.cos(a * tv * r / 2) / mp.sin(tv * r / 2) - boundary
        return num / (tv * (1 - r * r))

    quad = integrate(IntegrandSpec(integrand, -1, 1), dps=dps,
                     breakpoints=_oscillation_breakpoints(a, tv))
    value = quad.value + (mp.log(tv ** 2) + 2 * mp.euler) * boundary / tv
    return TorsionResult(payload=value, ell=ell, path="quadrature",
                         precision=dps)


@guarded
def oscillatory_integral_quad(ell: int, t, dps: int = 50):
    """int_{-1}^{1} (cos((ell+1)tr/2) - cos((ell+1)t/2)) / ((1-r^2) t sin(t/2)) dr
    by quadrature (the oscillatory half of the tdchs integral)."""
    tv = _check_t_range(t)
    a = ell + 1
    c_end = mp.cos(a * tv / 2)

    def integrand(r):
        if abs(r) == 1:
            return mp.mpf(0)
        return ((mp.cos(a * tv * r / 2) - c_end)
                / ((1 - r * r) * tv * mp.sin(tv / 2)))

    return integrate(IntegrandSpec(integrand, -1, 1), dps=dps,
                     breakpoints=_oscillation_breakpoints(a, tv)).value


@guarded
def oscillatory_integral_sici(ell: int, t, dps: int = 50):
    """The same integral in closed form through Si and Ci:
    [sin((ell+1)t/2) Si((ell+1)t)
     - cos((ell+1)t/2)(gamma - Ci((ell+1)t) + log((ell+1)t))] / (t sin(t/2))."""
    tv = _check_t_range(t)
    a = ell + 1
    if a <= 0:
        raise ValueError("closed form stated for ell + 1 > 0")
    x = a * tv
    num = (mp.sin(x / 2) * si(x, dps)
           - mp.cos(x / 2) * (mp.euler - ci(x, dps) + mp.log(x)))
    return num / (tv * mp.sin(tv / 2))


@guarded
def torsion_asymptotic(ell: int, t, dps: int = 50):
    """Large-ell asymptotic of the tdchs integral at fixed t:
    -cos((ell+1)t/2) log(ell)/(t sin(t/2))
    + [sin((ell+1)t/2) pi/2 - cos((ell+1)t/2)(-gamma - log t)]/(t sin(t/2));
    the error is O(1/ell).  Using log(ell) rather than log(ell+1) (the two
    differ by O(1/ell)) makes the leading error term monotone enough in the
    envelope that doubling ell visibly shrinks the observed error."""
    tv = _check_t_range(t)
    a = ell + 1
    denom = tv * mp.sin(tv / 2)
    return ((-mp.cos(a * tv / 2) * mp.log(ell)
             + mp.sin(a * tv / 2) * mp.pi / 2
             - mp.cos(a * tv / 2) * (-mp.euler - mp.log(tv))) / denom)


# ---------------------------------------------------------------------------
# The assembled infinitesimal torsion
# ---------------------------------------------------------------------------

def torsion_infinitesimal(ell: int, order: int = DEFAULT_ORDER) -> TorsionResult:
    """The X-equivariant torsion as an exact even power series in t.

    Assembled from three summands: the R-class summand
    (chowring.t_tilde_series, the series the GRR cancellation checks), the
    finite log-sum, and the star term.  The poles, the odd part, and any
    log t must cancel exactly; failure raises CancellationError.  This is
    the series T_ell of the torsion forms (torsionform.t_ell_series).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    L = abs(ell + 1)
    pad = order + 4
    inv_sin = build_inv_sin_half(pad)
    cos_pref = build_cos_scaled(ell + 1, pad) * inv_sin  # min_degree -1

    term1 = t_tilde_series(ell, order)
    term2 = LaurentSeries.zero(pad - 1)
    for m in range(2, L + 1):
        term2 = term2 + (build_sin_scaled(2 * m - L, pad) * inv_sin).scale(
            ConstExpr.log_int(m))
    term3 = star(cos_pref.shift(-1))
    total = (term1 + term2 + term3).truncate(order)

    for d in (-2, -1):
        if not total.coeff(d).is_zero():
            raise CancellationError(f"nonzero t^{d} coefficient: {total.coeff(d)}")
    for d in total.degrees():
        if d % 2 == 1:
            raise CancellationError(f"nonzero odd coefficient at t^{d}")
        if total.coeff(d).coeff(LOG_T) != 0:
            raise CancellationError(f"log t survives at t^{d}")
    # the poles are gone and t^0 holds 4 zeta'(-1), so the window starts at 0
    payload = total.tighten()
    return TorsionResult(payload=payload, ell=ell, path="series", order=order)


# ---------------------------------------------------------------------------
# Two-parameter torsion
# ---------------------------------------------------------------------------

@guarded
def r_tilde0(phi, x, dps: int = 50, max_terms: int = 400):
    """R~0(phi, x) = sum_k (zeta_L'(-k, phi) + zeta_L(-k, phi) H_k/2) x^k/k!.

    Converges like (|x|/min(phi, 2 pi - phi))^k; phi is an angle in
    (0, 2 pi) mod 2 pi.  An input whose envelope ratio^max_terms is above
    the target 10^-(dps+5) cannot converge in max_terms terms and is
    refused before any term is summed."""
    phi = mp.fmod(mp.mpf(phi), 2 * mp.pi)
    if phi < 0:
        phi += 2 * mp.pi
    x = mp.mpmathify(x)
    eps = mp.mpf(10) ** (-(dps + 5))
    # the Lerch coefficients grow like k!/dist(phi, 2 pi Z)^k
    dist = min(phi, 2 * mp.pi - phi)
    if dist == 0:
        raise ValueError("phi must not be congruent to 0 mod 2*pi")
    ratio = abs(x) / dist

    def refusal(verb):
        return ConvergenceError(
            f"R~0 series {verb} reach {dps} digits in {max_terms} terms; "
            f"|x|/min(phi, 2*pi - phi) = {mp.nstr(ratio, 3)}; the terms "
            f"go like its k-th power, so it must be below "
            f"{mp.nstr(eps ** (mp.mpf(1) / max_terms), 3)}")

    if ratio ** max_terms > eps:
        raise refusal("cannot")
    total = mp.mpc(0)
    xpow = mp.mpc(1)
    fact = mp.mpf(1)
    small = 0
    for k in range(max_terms):
        if k > 0:
            xpow *= x
            fact *= k
        h = harmonic(k)
        coeff = (lerch_prime_neg(k, phi, dps + GUARD_DPS)
                 + lerch_neg(k, phi, dps + GUARD_DPS)
                 * mp.mpf(h.numerator) / h.denominator / 2)
        term = coeff * xpow / fact
        total += term
        small = small + 1 if abs(term) < eps else 0
        if small >= 3 and k > 5:
            break
    else:
        raise refusal("did not")
    return total


@guarded
def r_two_variable(theta, x, dps: int = 50):
    """R(theta, x) = R~0(theta, x) - R~0(-theta, -x)."""
    theta, x = mp.mpf(theta), mp.mpmathify(x)
    return r_tilde0(theta, x, dps) - r_tilde0(-theta, -x, dps)


@guarded
def torsion_two_param(ell: int, s, t, dps: int = 50, tol=None):
    """The (e^{sX}, tX)-equivariant torsion, for s != 0 mod 2 pi and
    0 < |s + t| < 2 pi.

    Primary route: finite log-sum at angle s + t plus
    cos((ell+1)(s+t)/2)/(i sin((s+t)/2)) * R(s, i t) with R built from Lerch
    values.  Cross-checked against the independent route
    2 R^rot(s+t) cos/sin + log-sum - cos/sin * sum_k log(1+t/(2pi k+s))/(2pi k+t+s),
    whose k-sum has an error bound (bilateral_log_sum).  A gap between the
    routes above tol raises CancellationError; the default tol is
    10^(3 - dps) max(1, |value|), so the routes agree at the requested
    precision.
    """
    sv, tv = mp.mpf(s), mp.mpf(t)
    u = sv + tv
    if not 0 < abs(u) < 2 * mp.pi:
        raise ValueError("need 0 < |s + t| < 2*pi")
    if mp.fmod(sv, 2 * mp.pi) == 0:
        raise ValueError("need s != 0 mod 2*pi")
    a = ell + 1
    prefactor = mp.cos(a * u / 2) / mp.sin(u / 2)
    logsum = _log_sum_value(ell, u)

    if tv == 0:
        lerch_val = torsion_group(ell, sv, dps + GUARD_DPS)
    else:
        R = r_two_variable(sv, 1j * tv, dps)
        lerch_val = logsum + (prefactor / 1j) * R
        lerch_val = mp.re(lerch_val) if abs(mp.im(lerch_val)) < mp.mpf(10) ** (-dps // 2) else lerch_val

    ksum = bilateral_log_sum(sv, tv, dps)
    direct_val = (2 * r_rot_value(u, dps + GUARD_DPS) * prefactor + logsum
                  - prefactor * ksum)
    if tol is None:
        tol = mp.mpf(10) ** (3 - dps) * max(1, abs(lerch_val))
    if abs(lerch_val - direct_val) > tol:
        raise CancellationError(
            "two-parameter torsion paths disagree: "
            f"{mp.nstr(abs(lerch_val - direct_val), 5)}")
    return lerch_val
