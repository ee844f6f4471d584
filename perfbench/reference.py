"""Reference values computed with mpmath alone.

Nothing here imports p1torsion: these are the independent computations the
benchmark checks the program's outputs against.  Every function takes the
working precision explicitly and never relies on the global ``mp.dps``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

RROT_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "rrot_table.json")

# R^rot is tabulated at t = j / RROT_DENOM for j in RROT_RANGE: exact binary
# fractions, so a grid point passes through float and the CLI unchanged.
RROT_DENOM = 128
RROT_RANGE = range(26, 641)  # t from 0.203 to 5.0
RROT_DPS = 60


# ---------------------------------------------------------------------------
# Closed forms of the series coefficients, as {symbol: Fraction}
# ---------------------------------------------------------------------------

def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _add(terms: dict, symbol: str, coeff: Fraction):
    value = terms.get(symbol, Fraction(0)) + coeff
    if value:
        terms[symbol] = value
    else:
        terms.pop(symbol, None)


def _add_log(terms: dict, k: int, coeff: Fraction):
    for p, e in _factor(k).items():
        _add(terms, f"LOG({p})", coeff * e)


def constant_term(ell: int) -> dict[str, Fraction]:
    """Degree-0 torsion: 4 zeta'(-1) - (ell+1)^2/2 - sum_{k<=L} (L-2k) log k,
    with L = |ell + 1|."""
    big_l = abs(ell + 1)
    terms: dict[str, Fraction] = {}
    _add(terms, "ZETA_PRIME(-1)", Fraction(4))
    _add(terms, "ONE", Fraction(-(ell + 1) ** 2, 2))
    for k in range(2, big_l + 1):
        _add_log(terms, k, Fraction(-(big_l - 2 * k)))
    return terms


def t2_coefficient(ell: int) -> dict[str, Fraction]:
    """t^2 coefficient: (10L^4 - 5L^2 - 4)/720 - (2/3) zeta'(-3)
    - (3L^2 - 1)/6 zeta'(-1) + sum_{m<=L} ((L-2m)^3 - (L-2m))/24 log m."""
    big_l = abs(ell + 1)
    terms: dict[str, Fraction] = {}
    _add(terms, "ONE", Fraction(10 * big_l ** 4 - 5 * big_l ** 2 - 4, 720))
    _add(terms, "ZETA_PRIME(-3)", Fraction(-2, 3))
    _add(terms, "ZETA_PRIME(-1)", Fraction(-(3 * big_l ** 2 - 1), 6))
    for m in range(2, big_l + 1):
        d = big_l - 2 * m
        _add_log(terms, m, Fraction(d ** 3 - d, 24))
    return terms


def scale_terms(terms: dict, factor: Fraction) -> dict[str, Fraction]:
    return {s: c * factor for s, c in terms.items() if c * factor}


# ---------------------------------------------------------------------------
# Numeric values of the symbols
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_prime_neg(m: int, dps: int):
    """zeta'(-m) from mpmath's own zeta derivative."""
    with mp.workdps(dps):
        return mp.zeta(-m, 1, 1)


def symbol_value(symbol: str, dps: int):
    with mp.workdps(dps):
        if symbol == "ONE":
            return mp.mpf(1)
        if symbol == "GAMMA":
            return +mp.euler
        if symbol.startswith("ZETA_PRIME(-"):
            return zeta_prime_neg(int(symbol[12:-1]), dps)
        if symbol.startswith("LOG("):
            return mp.log(int(symbol[4:-1]))
    raise ValueError(f"no numeric value for symbol {symbol}")


def eval_terms(terms: dict, dps: int):
    with mp.workdps(dps):
        return mp.fsum(mp.mpf(c.numerator) / c.denominator
                       * symbol_value(s, dps) for s, c in terms.items())


def eval_series(coeffs: dict[int, dict], t, dps: int, eps=None):
    """sum_n c_n t^n for {degree: {symbol: Fraction}}, skipping degrees whose
    contribution is below eps (they decay like (t / 2 pi)^n)."""
    with mp.workdps(dps):
        tv = mp.mpf(t)
        total = mp.mpf(0)
        for n in sorted(coeffs):
            if eps is not None and n > 4 and abs(tv / (2 * mp.pi)) ** n < eps:
                break
            total += eval_terms(coeffs[n], dps) * tv ** n
        return total


# ---------------------------------------------------------------------------
# R^rot and the torsion chain
# ---------------------------------------------------------------------------

def r_rot(t, dps: int = RROT_DPS):
    """R^rot(t) = Im d/ds Li_s(e^{it}) at s = 0, by mpmath's polylog and diff."""
    with mp.workdps(dps):
        z = mp.expj(mp.mpf(t))
        return mp.im(mp.diff(lambda s: mp.polylog(s, z), 0))


def r_rot_power_series(t, dps: int):
    """The defining power series (gamma + log t)/t
    - sum_{m odd} zeta'(-m) (-1)^{(m+1)/2} t^m / m!, for small t."""
    with mp.workdps(dps + 10):
        tv = mp.mpf(t)
        total = (mp.euler + mp.log(tv)) / tv
        eps = mp.mpf(10) ** -(dps + 10)
        m = 1
        while True:
            term = (zeta_prime_neg(m, dps + 10) * (-1) ** ((m + 1) // 2)
                    * tv ** m / mp.factorial(m))
            total -= term
            if abs(term) < eps and m > 5:
                return total
            m += 2


_table: dict[int, str] | None = None


def rrot_table() -> dict[int, str]:
    global _table
    if _table is None:
        with open(RROT_TABLE) as fh:
            data = json.load(fh)
        if data["denominator"] != RROT_DENOM:
            raise ValueError("R^rot table has another grid")
        _table = {int(j): v for j, v in data["values"].items()}
    return _table


def r_rot_tabulated(t):
    """R^rot at a grid point, from the stored table."""
    j = Fraction(t) * RROT_DENOM
    if j.denominator != 1 or int(j) not in rrot_table():
        raise KeyError(f"t = {t} is not on the tabulated grid")
    with mp.workdps(RROT_DPS):
        return mp.mpf(rrot_table()[int(j)])


def log_sum(ell: int, t, dps: int):
    """sum_{m=2}^{L} sin((2m - L) t/2) / sin(t/2) log m, L = |ell + 1|."""
    big_l = abs(ell + 1)
    with mp.workdps(dps):
        tv = mp.mpf(t)
        return mp.fsum(mp.sin((2 * m - big_l) * tv / 2) / mp.sin(tv / 2)
                       * mp.log(m) for m in range(2, big_l + 1))


def torsion_group(ell: int, t, rrot, dps: int):
    """2 R^rot(t) cos((ell+1)t/2) / sin(t/2) + the finite log-sum."""
    with mp.workdps(dps):
        tv = mp.mpf(t)
        return (2 * rrot * mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2)
                + log_sum(ell, tv, dps))


def tdchs(ell: int, t, dps: int):
    """The Todd-Chern-S-current integral by mpmath's quad."""
    with mp.workdps(dps):
        tv = mp.mpf(t)
        a = ell + 1
        boundary = mp.cos(a * tv / 2) / mp.sin(tv / 2)

        def f(r):
            if r == 0:
                return (2 / tv - boundary) / tv
            return ((r * mp.cos(a * tv * r / 2) / mp.sin(tv * r / 2)
                     - boundary) / (tv * (1 - r * r)))

        n = max(1, int(abs(a * tv) / (2 * mp.pi)) + 1)
        points = [mp.mpf(-1) + mp.mpf(2 * j) / (2 * n) for j in range(2 * n + 1)]
        value = mp.quad(f, points)
        return value + (mp.log(tv ** 2) + 2 * mp.euler) * boundary / tv


def i_class(ell: int, t, dps: int):
    """The I-class term -cos((ell+1)t/2)/sin(t/2)
    * sum_{k != 0} log(1 + t/(2 pi k)) / (t + 2 pi k), by mpmath's nsum."""
    with mp.workdps(dps):
        tv = mp.mpf(t)

        def pair(k):
            x = 2 * mp.pi * k
            return mp.log(1 + tv / x) / (tv + x) + mp.log(1 - tv / x) / (tv - x)

        inner = mp.nsum(pair, [1, mp.inf])
        return -(mp.cos((ell + 1) * tv / 2) / mp.sin(tv / 2)) * inner


def torsion_chain(ell: int, t, rrot, dps: int):
    """The infinitesimal torsion at t: torsion_group - tdchs + I-class."""
    with mp.workdps(dps):
        return (torsion_group(ell, t, rrot, dps) - tdchs(ell, t, dps)
                + i_class(ell, t, dps))


def oscillatory_integral(ell: int, t, dps: int):
    """int_{-1}^{1} (cos(a t r/2) - cos(a t/2)) / ((1 - r^2) t sin(t/2)) dr,
    a = ell + 1, by mpmath's quad."""
    with mp.workdps(dps):
        tv = mp.mpf(t)
        a = ell + 1
        c_end = mp.cos(a * tv / 2)

        def f(r):
            if abs(r) == 1:
                return mp.mpf(0)
            return (mp.cos(a * tv * r / 2) - c_end) / (1 - r * r)

        n = max(1, int(abs(a * tv) / (2 * mp.pi)) + 1)
        points = [mp.mpf(-1) + mp.mpf(2 * j) / n for j in range(n + 1)]
        return mp.quad(f, points) / (tv * mp.sin(tv / 2))


def s_pairing(poly: dict[int, Fraction], t, dps: int):
    """S-current pairing of an even polynomial profile g = sum c_d r^d:
    [int_{-1}^{1} 2(g(r) - g(1))/(1 - r^2) dr + (log t^2 + 2 gamma) 2 g(1)] / t^2,
    where (r^{2k} - 1)/(1 - r^2) = -(1 + r^2 + ... + r^{2k-2}) integrates
    exactly to -2 sum_{j<k} 1/(2j+1)."""
    integral = Fraction(0)
    for d, c in poly.items():
        integral += 2 * c * -2 * sum(Fraction(1, 2 * j + 1) for j in range(d // 2))
    g1 = sum(poly.values(), Fraction(0))
    with mp.workdps(dps):
        tv = mp.mpf(t)
        weight = mp.log(tv * tv) + 2 * mp.euler
        return ((mp.mpf(integral.numerator) / integral.denominator
                 + weight * 2 * (mp.mpf(g1.numerator) / g1.denominator))
                / tv ** 2)


def two_param(ell: int, s, t, dps: int):
    """The (e^{sX}, tX)-torsion by its direct formula, with u = s + t:
    2 R^rot(u) cos((ell+1)u/2)/sin(u/2) + log-sum(u)
    - cos((ell+1)u/2)/sin(u/2) * sum_k log(1 + t/(2 pi k + s)) / (2 pi k + s + t).
    """
    with mp.workdps(dps):
        sv, tv = mp.mpf(s), mp.mpf(t)
        u = sv + tv
        prefactor = mp.cos((ell + 1) * u / 2) / mp.sin(u / 2)

        def term(k):
            x = 2 * mp.pi * k + sv
            return mp.log(1 + tv / x) / (x + tv)

        ksum = term(0) + mp.nsum(lambda k: term(k) + term(-k), [1, mp.inf])
        return (2 * r_rot(u, dps) * prefactor + log_sum(ell, u, dps)
                - prefactor * ksum)


def close(value, ref, digits: int) -> bool:
    """|value - ref| <= 10^-digits * max(1, |ref|)."""
    with mp.workdps(digits + 20):
        return abs(mp.mpf(value) - ref) <= mp.mpf(10) ** -digits * max(1, abs(ref))
