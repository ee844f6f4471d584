"""The four workloads: operation lists drawn from a seed, and their checks.

A round is the workload's operation list.  ``build_round(name, rng, r, pkg)``
returns the operations of round r; every run attempts whole rounds, and
later rounds draw inputs that earlier rounds of the run did not use.  Each
operation carries a check that compares its output with a computation from
``reference`` (mpmath alone) or with a property the method must have.  A
check returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp

import reference as ref

WORKLOADS = ("exact-series", "numeric-values", "two-param", "selftest")

DPS = 50           # numeric-values precision
TWO_PARAM_DPS = 30
NUMERIC_DIGITS = DPS - 3          # 3 digits of slack on a 50-digit result
# i_class_direct goes through bilateral_sum, which accepts a tail estimate up
# to 1e-10; its error grows with t, from 1e-52 at t = 0.2 to 5e-42 at t = 4.5.
DIRECT_SUM_DIGITS = 35
TWO_PARAM_DIGITS = TWO_PARAM_DPS - 3
CHAIN_DPS = 60
CHAIN_MAX_DIGITS = 45


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # The operation hits a known fault of the program: a wrong output counts
    # as a failed operation instead of making the run incorrect.
    known_fault: bool = False
    result: object = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def grid_t(rng, lo: float, hi: float) -> float:
    """A point t = j/128 of the R^rot table with lo <= t <= hi."""
    j_lo = max(ref.RROT_RANGE.start, int(lo * ref.RROT_DENOM + 0.999))
    j_hi = min(ref.RROT_RANGE.stop - 1, int(hi * ref.RROT_DENOM))
    return rng.randint(j_lo, j_hi) / ref.RROT_DENOM


def cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expr_terms(expr) -> dict[str, Fraction]:
    """A program ConstExpr as {symbol: Fraction}."""
    return {str(sym): Fraction(c) for sym, c in expr.terms()}


def json_terms(expr_json) -> dict[str, Fraction]:
    return {item["symbol"]: Fraction(int(item["num"]), int(item["den"]))
            for item in expr_json["terms"]}


def compare_terms(what, got, want) -> Optional[str]:
    if got != want:
        return f"{what}: got {got}, expected {want}"
    return None


def chain_digits(order: int, t: float, ell: int) -> int:
    """Digits the truncation order allows at t, less 3 of slack.  The series
    has radius 2 pi, so its terms fall like (t / 2 pi)^n; at low orders the
    entire factors cos((ell+1)t/2) and sin((2m-L)t/2) dominate instead, whose
    terms fall like (|ell+1| t/2)^n / n!."""
    n = order + 2
    geometric = n * math.log10(t / (2 * math.pi))
    entire = (n * math.log10(max(abs(ell + 1), 1) * t / 2)
              - math.lgamma(n + 1) / math.log(10))
    digits = int(-max(geometric, entire)) - 3
    return max(0, min(CHAIN_MAX_DIGITS, digits))


def check_series_coeffs(coeffs: dict[int, dict], ell: int, order: int,
                        t: float) -> Optional[str]:
    """Structure, closed forms and the numeric chain for an infinitesimal
    torsion series given as {degree: {symbol: Fraction}}."""
    for d, terms in coeffs.items():
        if not terms:
            continue
        if d < 0:
            return f"pole at t^{d}"
        if d % 2:
            return f"odd coefficient at t^{d}"
        if "LOG_T" in terms:
            return f"LOG_T at t^{d}"
        if d > order:
            return f"coefficient beyond the order at t^{d}"
    message = (compare_terms("t^0", coeffs.get(0, {}), ref.constant_term(ell))
               or compare_terms("t^2", coeffs.get(2, {}), ref.t2_coefficient(ell)))
    if message:
        return message
    digits = chain_digits(order, t, ell)
    eps = mp.mpf(10) ** -(digits + 8)
    value = ref.eval_series(coeffs, t, CHAIN_DPS, eps)
    chain = ref.torsion_chain(ell, t, ref.r_rot_tabulated(t), CHAIN_DPS)
    if not ref.close(value, chain, digits):
        return (f"series at t={t} is {mp.nstr(value, 20)}, chain gives "
                f"{mp.nstr(chain, 20)}; {digits} digits required")
    return None


def numeric_check(value, want, digits: int) -> Optional[str]:
    try:
        if ref.close(value, want, digits):
            return None
    except (TypeError, ValueError) as exc:
        return f"value {value!r} is not a real number: {exc}"
    return (f"got {mp.nstr(value, 25)}, reference "
            f"{mp.nstr(want, 25)}, {digits} digits required")


def parse_num(text: str):
    """A printed number at full precision (the global mp.dps is 15)."""
    with mp.workdps(CHAIN_DPS + 10):
        return mp.mpf(text)


def cli_json(result, command) -> tuple[Optional[dict], Optional[str]]:
    code, out, err = result
    if code != 0:
        return None, f"exit {code}: {err.strip()}"
    data = json.loads(out)
    if data.get("schema") != 1 or data.get("command") != command:
        return None, f"unexpected header: {out[:80]}"
    return data, None


# ---------------------------------------------------------------------------
# exact-series
# ---------------------------------------------------------------------------

INF_ORDERS = (40, 60, 80, 100, 120, 160)
GRR_CAPS = (12, 36, 48)
# Nine calls at cap 24 fill the middle of the sorted operation times with
# one group of near-equal cost, so op_iqm_s averages that group rather than
# the edges of several.  In round r they take the twists -3 + 9r .. 5 + 9r:
# the same set for every seed, and no input repeats.
GRR_GROUP_CAP = 24
FORM_SIZES = ((16, 70),)   # (degree cap, series order)
CLI_SERIES_ORDER = 30
CLI_FORM_DEGREES = (10, 20)
CLI_GRR_DEGREES = (16, 26)
# The acceptance checks with exact results; the numeric ones run in
# numeric-values.  acceptance.two-param (about 30 s) runs only in selftest.
EXACT_CHECKS = ("height", "degree0-torsion", "t2-coefficient",
                "structural-cancellation", "grr-cancellation",
                "fiber-integration")
# --tiny (the benchmark's own smoke tests): the same operations, small sizes
TINY_EXACT = {"INF_ORDERS": (8, 12), "GRR_CAPS": (8,), "GRR_GROUP_CAP": None,
              "FORM_SIZES": ((8, 10),),
              "CLI_SERIES_ORDER": 8, "CLI_FORM_DEGREES": (8,),
              "CLI_GRR_DEGREES": (8,), "EXACT_CHECKS": ("height",)}
# Twists of the costly calls in round 0.  Their cost depends on the twist as
# much as on the size (check_grr_cancellation(ell, 36) takes 0.16 s at
# ell = 0 and 0.48 s at ell = 3; torsion_infinitesimal(ell, 100) takes 0.55
# to 0.91 s), so a seeded deal made the cost of a run depend on its seed.
FIXED_TWISTS = (2, -3, 5, 0, -1, 3)
# Size offsets, in steps: sizes stay fixed for the first nine rounds of a run
# (the twists rotate instead), so every round costs the same.
SIZE_OFFSETS = (0, 1, -1, 2, -2)


def twist_and_offset(base_ell: int, r: int) -> tuple[int, int]:
    """Round r of a slot whose twist in round 0 is base_ell: the twist moves
    one step through -3..5 per round, and after each nine rounds the size
    moves by one offset, so no slot repeats its inputs within 45 rounds."""
    ell = (base_ell + 3 + r) % 9 - 3
    return ell, SIZE_OFFSETS[(r // 9) % len(SIZE_OFFSETS)]


def acceptance_op(acceptance, name: str) -> Op:
    """One entry of acceptance.ALL_CHECKS, looked up when it runs (so the
    tracer's wrapper is used); its (ok, detail) must report ok."""
    def run():
        return dict(acceptance.ALL_CHECKS)[name]()

    def check(res):
        ok, detail = res
        return None if ok is True else f"not ok: {detail}"

    return Op(f"acceptance {name}", run, check)


def exact_series_round(rng, r: int, pkg) -> list[Op]:
    """The seed deals the twists ell of the CLI commands and of the nine
    GRR calls at cap 24 out to the operations of round 0, picks where each
    round compares the series with the numeric chain, and orders the round;
    later rounds rotate the twists (twist_and_offset).  The costly calls
    start from FIXED_TWISTS instead, so every seed costs the same."""
    torsion, chowring, torsionform, cli = (
        pkg.torsion, pkg.chowring, pkg.torsionform, pkg.cli)
    size = dict(INF_ORDERS=INF_ORDERS, GRR_CAPS=GRR_CAPS,
                GRR_GROUP_CAP=GRR_GROUP_CAP, FORM_SIZES=FORM_SIZES,
                CLI_SERIES_ORDER=CLI_SERIES_ORDER,
                CLI_FORM_DEGREES=CLI_FORM_DEGREES,
                CLI_GRR_DEGREES=CLI_GRR_DEGREES, EXACT_CHECKS=EXACT_CHECKS)
    if pkg.tiny:
        size.update(TINY_EXACT)
    ops = []

    def ells(n):
        """n twists, each of -3..5 once before any repeats."""
        out = []
        while len(out) < n:
            pool = list(range(-3, 6))
            rng.shuffle(pool)
            out += pool
        return out[:n]

    base_ells = pkg.state.get("exact-series-ells")
    if base_ells is None:
        base_ells = pkg.state["exact-series-ells"] = {
            key: FIXED_TWISTS[:len(size[key])] for key in (
                "INF_ORDERS", "GRR_CAPS", "FORM_SIZES")}
        for key in ("CLI_FORM_DEGREES", "CLI_GRR_DEGREES"):
            base_ells[key] = ells(len(size[key]))
        base_ells["CLI_SERIES_ORDER"] = ells(1)
        base_ells["GRR_GROUP"] = ells(9)

    def slots(key):
        """(ell, base size, size offset in steps) for each slot of key."""
        bases = size[key] if isinstance(size[key], tuple) else (size[key],)
        for base_ell, base in zip(base_ells[key], bases):
            ell, k = twist_and_offset(base_ell, r)
            yield ell, base, k

    for ell, base, k in slots("INF_ORDERS"):
        order = base + k
        t = grid_t(rng, 0.2, 1.0)

        def check(res, ell=ell, order=order, t=t):
            series = res.payload
            coeffs = {d: expr_terms(series.coeff(d)) for d in series.degrees()}
            return check_series_coeffs(coeffs, ell, order, t)

        ops.append(Op(f"torsion_infinitesimal({ell}, {order})",
                      lambda ell=ell, order=order:
                      torsion.torsion_infinitesimal(ell, order), check))

    grr = [(ell, base + 2 * k) for ell, base, k in slots("GRR_CAPS")]
    if size["GRR_GROUP_CAP"]:
        grr += [(ell + 9 * r, size["GRR_GROUP_CAP"])
                for ell in base_ells["GRR_GROUP"]]
    for ell, cap in grr:

        def check(res):
            terms = dict(res.terms())
            return f"nonzero residual in {len(terms)} monomials" if terms else None

        ops.append(Op(f"check_grr_cancellation({ell}, {cap})",
                      lambda ell=ell, cap=cap:
                      chowring.check_grr_cancellation(ell, cap), check))

    for ell, (cap, base), k in slots("FORM_SIZES"):
        order = base + k

        def check(res, ell=ell):
            c0 = ref.constant_term(ell)
            return (compare_terms("c1^0 c2^0", expr_terms(res.base.coeff(0, 0)), c0)
                    or compare_terms("c1^1 c2^0", expr_terms(res.base.coeff(1, 0)),
                                     ref.scale_terms(c0, Fraction(-ell, 2)))
                    or compare_terms("c1^0 c2^1", expr_terms(res.base.coeff(0, 1)),
                                     ref.scale_terms(ref.t2_coefficient(ell), 4)))

        ops.append(Op(f"torsion_form({ell}, {cap}, order={order})",
                      lambda ell=ell, cap=cap, order=order:
                      torsionform.torsion_form(ell, cap, order), check))

    def check_height(res):
        return compare_terms("height", expr_terms(res), {"ONE": Fraction(1, 2)})

    ops.append(Op("height_p1z()", torsionform.height_p1z, check_height))
    ops += [acceptance_op(pkg.acceptance, name)
            for name in size["EXACT_CHECKS"]]

    # CLI commands, run in-process through cli.main(argv)
    (ell, base, k), = slots("CLI_SERIES_ORDER")
    order = base + k
    argv = ["torsion", "--ell", str(ell), "--series", "--order", str(order)]

    def check_cli_series(res, ell=ell, order=order):
        data, message = cli_json(res, "torsion")
        if message:
            return message
        entries = data["series"]["coeffs"]
        coeffs = {e["deg"]: json_terms(e["expr"]) for e in entries}
        for d, terms in coeffs.items():
            if d < 0 or d % 2 or "LOG_T" in terms:
                return f"t^{d} should have cancelled"
        numeric0 = next(e["numeric"] for e in entries if e["deg"] == 0)
        return (compare_terms("t^0", coeffs.get(0), ref.constant_term(ell))
                or compare_terms("t^2", coeffs.get(2), ref.t2_coefficient(ell))
                or numeric_check(parse_num(numeric0),
                                 ref.eval_terms(ref.constant_term(ell), CHAIN_DPS),
                                 NUMERIC_DIGITS))

    ops.append(Op("cli " + " ".join(argv),
                  lambda argv=argv: cli_call(cli, argv), check_cli_series))

    for ell, base, k in slots("CLI_FORM_DEGREES"):
        degree = base + 2 * k
        argv = ["torsion-form", "--ell", str(ell), "--degree", str(degree)]

        def check_cli_form(res, ell=ell):
            data, message = cli_json(res, "torsion-form")
            if message:
                return message
            cls = data["class"]
            c0 = ref.constant_term(ell)
            return (compare_terms("c1^0 c2^0", json_terms(cls["c1^0 c2^0 x^0"]), c0)
                    or compare_terms("c1^0 c2^1", json_terms(cls["c1^0 c2^1 x^0"]),
                                     ref.scale_terms(ref.t2_coefficient(ell), 4)))

        ops.append(Op("cli " + " ".join(argv),
                      lambda argv=argv: cli_call(cli, argv), check_cli_form))

    for ell, base, k in slots("CLI_GRR_DEGREES"):
        degree = base + 2 * k
        argv = ["grr-check", "--ell", str(ell), "--degree", str(degree)]

        def check_cli_grr(res):
            data, message = cli_json(res, "grr-check")
            if message:
                return message
            return None if data["residual"] == "0" else f"residual {data}"

        ops.append(Op("cli " + " ".join(argv),
                      lambda argv=argv: cli_call(cli, argv), check_cli_grr))

    def check_cli_height(res):
        data, message = cli_json(res, "height")
        if message:
            return message
        got = (data["value"], data["log_t_residue"], data["gamma_residue"])
        return None if got == ("1/2", "0", "0") else f"height output {got}"

    ops.append(Op("cli height", lambda: cli_call(cli, ["height"]),
                  check_cli_height))
    return ops


# ---------------------------------------------------------------------------
# numeric-values
# ---------------------------------------------------------------------------

# Centres of the t bands; the seed picks a table point within BAND of a
# GROUP_T centre and within SIDE_BAND of a SIDE_T centre.
GROUP_T = (0.45, 1.05, 1.65, 2.25, 2.85, 3.45, 4.05, 4.65)
SIDE_T = (0.5, 1.5, 2.5, 3.5, 4.5)
BAND = 0.06
SIDE_BAND = 0.2       # about 50 table points, so a band is not used up
TOP_T = (4.94, 5.0)   # R^rot costs most at the largest t; keep it narrow
# Operations of each kind per round, spread over the bands of SIDE_T; a
# round takes the next bands, so a run covers all of them.  i_class_direct
# costs about the same for every input (2000 terms on each side plus the
# tail model) and is the largest group; 11 operations of a round cost less
# and 5 cost more, so the middle half of the sorted times (op_iqm_s) lies
# in this group rather than between two groups of unequal cost.
COUNTS = {"torsion_group": 3, "tdchs_value": 1, "i_class_value": 1,
          "i_class_direct": 30, "oscillatory_integral_sici": 1,
          "s_pairing_integral": 1}
# The acceptance checks with numeric results; the exact ones run in
# exact-series.
NUMERIC_CHECKS = ("scurrent-paths", "tdchs-displays", "asymptotics",
                  "defining-property", "scaling")
PROFILES = ("r^2", "1 + r^2", "r^4 - 2*r^2", "3*r^2 + r^4", "r^6",
            "1/2 + r^4", "-1/4*r^2", "r^2 + r^4 + r^6")
FAULT_ARGV = ["torsion", "--ell", "0", "--t", "3.0"]


def _parse_profile(text: str) -> dict[int, Fraction]:
    poly: dict[int, Fraction] = {}
    for piece in text.replace("-", "+-").split("+"):
        piece = piece.replace(" ", "")
        if not piece:
            continue
        if "r^" in piece:
            head, _, deg = piece.partition("r^")
            head = head.rstrip("*")
            coeff = Fraction(head + "1") if head in ("", "-") else Fraction(head)
            poly[int(deg)] = poly.get(int(deg), Fraction(0)) + coeff
        else:
            poly[0] = poly.get(0, Fraction(0)) + Fraction(piece)
    return poly


def numeric_values_round(rng, r: int, pkg) -> list[Op]:
    torsion, scurrent, cli = pkg.torsion, pkg.scurrent, pkg.cli
    ops = []
    used = pkg.state.setdefault("numeric-values-t", set())

    def pick_t(lo, hi, key):
        """A table point in [lo, hi] not yet used by this kind of operation
        in the run; once a band is used up, repeats are allowed."""
        for _ in range(64):
            t = grid_t(rng, lo, hi)
            if (key, t) not in used:
                break
        used.add((key, t))
        return t

    def pick_ell(lo=-3, hi=5):
        return rng.randint(lo, hi)

    def cycle(items, n):
        """The n items of round r from a cycle through items."""
        n = 1 if pkg.tiny else n
        return [items[(n * r + i) % len(items)] for i in range(n)]

    def spread(n):
        """n band centres of SIDE_T."""
        return cycle(SIDE_T, n)

    # torsion_group over (0, 5]: specfun.r_rot_value and the log-sum
    bands = [(c - BAND, c + BAND) for c in GROUP_T] + [TOP_T]
    for lo, hi in cycle(bands, COUNTS["torsion_group"]):
        t = pick_t(lo, hi, "group")
        ell = pick_ell()

        def check(res, ell=ell, t=t):
            want = ref.torsion_group(ell, t, ref.r_rot_tabulated(t), ref.RROT_DPS)
            return numeric_check(res, want, NUMERIC_DIGITS)

        ops.append(Op(f"torsion_group({ell}, {t})",
                      lambda ell=ell, t=t: torsion.torsion_group(ell, t, DPS),
                      check))

    for c in spread(COUNTS["tdchs_value"]):
        t = pick_t(c - SIDE_BAND, c + SIDE_BAND, "tdchs")
        ell = pick_ell()

        def check(res, ell=ell, t=t):
            return numeric_check(res.payload, ref.tdchs(ell, t, CHAIN_DPS),
                                 NUMERIC_DIGITS)

        ops.append(Op(f"tdchs_value({ell}, {t})",
                      lambda ell=ell, t=t: torsion.tdchs_value(ell, t, DPS),
                      check))

    for fn_name, digits in (("i_class_value", NUMERIC_DIGITS),
                            ("i_class_direct", DIRECT_SUM_DIGITS)):
        fn = getattr(torsion, fn_name)
        for c in spread(COUNTS[fn_name]):
            t = pick_t(c - SIDE_BAND, c + SIDE_BAND, fn_name)
            ell = pick_ell()

            def check(res, ell=ell, t=t, digits=digits):
                return numeric_check(res, ref.i_class(ell, t, digits + 13), digits)

            ops.append(Op(f"{fn_name}({ell}, {t})",
                          lambda fn=fn, ell=ell, t=t: fn(ell, t, DPS), check))

    for c in spread(COUNTS["oscillatory_integral_sici"]):
        t = pick_t(c - SIDE_BAND, c + SIDE_BAND, "sici")
        ell = pick_ell(0, 5)   # the closed form is stated for ell + 1 > 0

        def check(res, ell=ell, t=t):
            return numeric_check(res, ref.oscillatory_integral(ell, t, CHAIN_DPS),
                                 NUMERIC_DIGITS)

        ops.append(Op(f"oscillatory_integral_sici({ell}, {t})",
                      lambda ell=ell, t=t:
                      torsion.oscillatory_integral_sici(ell, t, DPS), check))

    profiles = list(PROFILES)
    rng.shuffle(profiles)
    for c, text in zip(spread(COUNTS["s_pairing_integral"]), profiles):
        t = pick_t(c - SIDE_BAND, c + SIDE_BAND, "spair")
        poly = _parse_profile(text)

        def check(res, poly=poly, t=t):
            return numeric_check(res, ref.s_pairing(poly, t, CHAIN_DPS),
                                 NUMERIC_DIGITS)

        ops.append(Op(f"s_pairing_integral({text!r}, {t})",
                      lambda text=text, t=t: scurrent.s_pairing_integral(
                          scurrent.TestProfile.from_string(text), t, DPS),
                      check))

    # CLI torsion --t at |t| <= 1 with an order whose tail is below 1e-50
    for lo, hi in cycle(((0.2, 0.6), (0.6, 1.0)), 1):
        t = pick_t(lo, hi, "cli-torsion")
        ell = pick_ell()
        argv = ["torsion", "--ell", str(ell), "--t", repr(t), "--order", "80"]

        def check(res, ell=ell, t=t):
            data, message = cli_json(res, "torsion")
            if message:
                return message
            want = ref.torsion_chain(ell, t, ref.r_rot_tabulated(t), CHAIN_DPS)
            return numeric_check(parse_num(data["value"]), want, NUMERIC_DIGITS)

        ops.append(Op("cli " + " ".join(argv),
                      lambda argv=argv: cli_call(cli, argv), check))

    for c, text in zip(cycle((1.0, 3.0), 1), profiles[4:]):
        t = pick_t(c - BAND, c + BAND, "cli-scurrent")
        poly = _parse_profile(text)
        argv = ["scurrent", f"--profile={text}", "--t", repr(t)]

        def check(res, poly=poly, t=t):
            data, message = cli_json(res, "scurrent")
            if message:
                return message
            want = ref.s_pairing(poly, t, CHAIN_DPS)
            return (numeric_check(parse_num(data["value"]), want, NUMERIC_DIGITS)
                    or numeric_check(parse_num(data["series_value"]), want,
                                     NUMERIC_DIGITS))

        ops.append(Op("cli " + " ".join(argv),
                      lambda argv=argv: cli_call(cli, argv), check))

    # Kept-failing operation: `torsion --t` evaluates the order-40 series
    # whatever t is, so at t = 3 only about 12 of the 50 printed digits hold.
    def check_fault(res):
        data, message = cli_json(res, "torsion")
        if message:
            return message
        want = ref.torsion_chain(0, 3.0, ref.r_rot_tabulated(3.0), CHAIN_DPS)
        return numeric_check(parse_num(data["value"]), want, NUMERIC_DIGITS)

    ops.append(Op("cli " + " ".join(FAULT_ARGV),
                  lambda: cli_call(cli, FAULT_ARGV), check_fault,
                  known_fault=True))

    # One two-param call, through the function and the CLI in turn: the
    # Lerch and Hurwitz layers, at a ratio whose cost is steady
    used_s = pkg.state.setdefault("two-param-s", set())
    slot = TINY_SLOT if pkg.tiny else NUMERIC_TWO_PARAM_SLOT
    make = two_param_cli_op if r % 2 else two_param_op
    ops.append(make(pkg, *two_param_draw(rng, used_s, *slot)))

    checks = NUMERIC_CHECKS[:1] if pkg.tiny else NUMERIC_CHECKS
    ops += [acceptance_op(pkg.acceptance, name) for name in checks]
    return ops


# ---------------------------------------------------------------------------
# two-param
# ---------------------------------------------------------------------------

# One slot per call: (|t| / min(s, 2 pi - s), centre of s, sign of t).  The
# cost grows steeply with the ratio, with s near 0 or 2 pi, and with
# u = s + t, because the direct route sums R^rot(u); so each slot keeps a
# narrow band of all three, and the seed draws s, t and ell inside it.
# The three slots at ratio 0.45 hold the middle of the sorted call times.
TWO_PARAM_SLOTS = ((0.15, 1.3, 1), (0.30, 4.9, -1), (0.45, 2.1, 1),
                   (0.45, 1.5, 1), (0.45, 4.5, -1), (0.55, 4.1, -1),
                   (0.65, 3.1, -1))
CLI_TWO_PARAM_SLOT = (0.35, 2.6, 1)
NUMERIC_TWO_PARAM_SLOT = (0.30, 2.1, 1)
TINY_SLOT = (0.05, 2.0, 1)
S_BAND = 0.05
RATIO_BAND = 0.01


def two_param_draw(rng, used_s, ratio, s_centre, sign):
    """(ell, s, t) inside a slot, with an s that the run has not used."""
    while True:
        s = round(rng.uniform(s_centre - S_BAND, s_centre + S_BAND), 6)
        if s not in used_s:
            used_s.add(s)
            break
    ratio = rng.uniform(ratio - RATIO_BAND, ratio + RATIO_BAND)
    t = round(sign * ratio * min(s, 2 * math.pi - s), 6)
    return rng.randint(-3, 5), s, t


def two_param_check(ell, s, t):
    def check(value):
        want = ref.two_param(ell, s, t, TWO_PARAM_DPS + 10)
        return numeric_check(value, want, TWO_PARAM_DIGITS)
    return check


def two_param_op(pkg, ell, s, t) -> Op:
    return Op(f"torsion_two_param({ell}, {s}, {t}, dps=30)",
              lambda: pkg.torsion.torsion_two_param(ell, s, t,
                                                    dps=TWO_PARAM_DPS),
              two_param_check(ell, s, t))


def two_param_cli_op(pkg, ell, s, t) -> Op:
    argv = ["two-param", "--ell", str(ell), "--s", repr(s), "--t", repr(t),
            "--precision", str(TWO_PARAM_DPS)]
    inner = two_param_check(ell, s, t)

    def check(res):
        data, message = cli_json(res, "two-param")
        return message or inner(parse_num(data["value"]))

    return Op("cli " + " ".join(argv), lambda: cli_call(pkg.cli, argv), check)


def two_param_round(rng, r: int, pkg) -> list[Op]:
    used_s = pkg.state.setdefault("two-param-s", set())
    slots, cli_slot = ((TINY_SLOT,), TINY_SLOT) if pkg.tiny else (
        TWO_PARAM_SLOTS, CLI_TWO_PARAM_SLOT)
    ops = [two_param_op(pkg, *two_param_draw(rng, used_s, *slot))
           for slot in slots]
    ops.append(two_param_cli_op(pkg, *two_param_draw(rng, used_s, *cli_slot)))
    return ops


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def selftest_round(rng, r: int, pkg) -> list[Op]:
    """acceptance.run_all() has fixed inputs, so the seed is not used."""
    acceptance = pkg.acceptance
    expected = TINY_CHECKS if pkg.tiny else [n for n, _ in acceptance.ALL_CHECKS]

    def run():
        if not pkg.tiny:
            return acceptance.run_all()
        saved = list(acceptance.ALL_CHECKS)
        acceptance.ALL_CHECKS[:] = [c for c in saved if c[0] in TINY_CHECKS]
        try:
            return acceptance.run_all()
        finally:
            acceptance.ALL_CHECKS[:] = saved

    def check(results):
        bad = [f"{name}: {detail}" for name, ok, detail in results if not ok]
        if [name for name, _, _ in results] != expected:
            bad.append(f"checks reported: {[r[0] for r in results]}")
        return "; ".join(bad) or None

    return [Op("acceptance.run_all()", run, check)]


TINY_CHECKS = ["height", "fiber-integration"]


ROUNDS = {
    "exact-series": exact_series_round,
    "numeric-values": numeric_values_round,
    "two-param": two_param_round,
    "selftest": selftest_round,
}


def build_round(workload: str, rng, r: int, pkg) -> list[Op]:
    """The operations of round r in a seeded random order.  Spreading each
    group of equal-cost calls over the whole round makes op_iqm_s sample
    the machine across the round, not in one burst."""
    ops = ROUNDS[workload](rng, r, pkg)
    rng.shuffle(ops)
    return ops
