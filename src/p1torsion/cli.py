"""Command line front end.

Commands:
  torsion --ell L [--t T | --series]   equivariant torsion series / value
  torsion-form --ell L --degree D      torsion form as an exact ring class
  height                               the height of P^1 over Z (exact 1/2)
  grr-check --ell L --degree D         exact R-term cancellation residual
  scurrent --profile "r^2" --t T [--symbolic]   S-current pairing
  two-param --ell L --s S --t T        two-parameter equivariant torsion
  selftest                             run the full acceptance suite

Output is deterministic JSON on stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 numeric/consistency failure, 2 usage error.  The
default precision of the results (decimal digits; each is computed with 10
more and rounded) can be set with the P1TORSION_PRECISION environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from .numerics import GAMMA, LOG_T
from .quadrature import AccuracyError
from . import torsion as _torsion
from . import scurrent as _scurrent
from . import chowring as _chowring
from . import torsionform as _torsionform

SCHEMA_VERSION = 1


def _default_precision() -> int:
    raw = os.environ.get("P1TORSION_PRECISION")
    if raw is None:
        return 50
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit("P1TORSION_PRECISION must be an integer")
    if value < 20:
        raise SystemExit("P1TORSION_PRECISION must be >= 20")
    return value


def _emit(payload: dict):
    payload = {"schema": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _rat(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def _num(x, dps: int) -> str:
    return mp.nstr(x, dps, strip_zeros=False)


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser's default from clobbering a value parsed
    # by the main parser when the flag is given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="precision of the results in decimal digits "
                             "(>= 20)")
    common.add_argument("--order", type=int, default=argparse.SUPPRESS,
                        help="series truncation order")
    parser = argparse.ArgumentParser(
        prog="p1torsion",
        description="Equivariant analytic torsion and torsion forms on "
                    "P^1-bundles.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torsion", help="equivariant torsion for O(ell)",
                       parents=[common])
    p.add_argument("--ell", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--t", type=float, default=None)
    group.add_argument("--series", action="store_true")

    p = sub.add_parser("torsion-form", help="torsion form as a ring class",
                       parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--degree", type=int, default=12)

    sub.add_parser("height", help="height of P^1 over Z",
                   parents=[common])

    p = sub.add_parser("grr-check", help="R-term cancellation residual",
                       parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--degree", type=int, default=12)

    p = sub.add_parser("scurrent", help="S-current pairing for a profile",
                       parents=[common])
    p.add_argument("--profile", type=str, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--symbolic", action="store_true")

    p = sub.add_parser("two-param", help="two-parameter equivariant torsion",
                       parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    sub.add_parser("selftest", help="run the acceptance suite",
                   parents=[common])
    return parser


def _cmd_torsion(args) -> int:
    dps = args.precision
    result = _torsion.torsion_infinitesimal(args.ell, args.order)
    if args.t is not None:
        if not 0 < abs(args.t) < 2 * 3.141592653589793:
            raise ValueError("t must satisfy 0 < |t| < 2*pi")
        value = result.payload.evaluate(args.t, dps=dps)
        _emit({"command": "torsion", "ell": args.ell, "t": args.t,
               "precision": dps, "value": _num(value, dps)})
    else:
        _emit({"command": "torsion", "ell": args.ell, "precision": dps,
               "series": result.payload.to_json(dps=dps)})
    return 0


def _cmd_torsion_form(args) -> int:
    if args.degree % 2 or args.degree < 0:
        raise SystemExit2("--degree must be a nonnegative even integer")
    form = _torsionform.torsion_form(args.ell, args.degree)
    _emit({"command": "torsion-form", "ell": args.ell,
           "degree": args.degree, "class": form.to_json()})
    return 0


def _cmd_height(_args) -> int:
    r_term, _s_term, total = _torsionform.height_components()
    value = _torsionform.height_p1z()
    _emit({"command": "height",
           "value": _rat(value.rational_value()),
           "log_t_residue": _rat(total.coeff(LOG_T)),
           "gamma_residue": _rat(total.coeff(GAMMA)),
           "r_term": repr(r_term)})
    return 0


def _cmd_grr_check(args) -> int:
    if args.degree % 2 or args.degree < 0:
        raise SystemExit2("--degree must be a nonnegative even integer")
    residual = _chowring.check_grr_cancellation(args.ell, args.degree)
    payload = {"command": "grr-check", "ell": args.ell,
               "degree": args.degree,
               "residual": "0" if residual.is_zero() else "nonzero"}
    if not residual.is_zero():
        payload["failing_degrees"] = _chowring.grr_failure_degrees(residual)
        payload["class"] = residual.to_json()
        _emit(payload)
        return 1
    _emit(payload)
    return 0


def _cmd_scurrent(args) -> int:
    dps = args.precision
    try:
        profile = _scurrent.TestProfile.from_string(args.profile)
    except ValueError as exc:
        raise SystemExit2(f"cannot parse --profile {args.profile!r}: {exc}")
    if args.symbolic:
        series = _scurrent.s_pairing_series(profile)
        _emit({"command": "scurrent", "profile": args.profile,
               "series": series.to_json()})
        return 0
    if args.t is None:
        raise SystemExit2("scurrent needs --t unless --symbolic is given")
    value = _scurrent.s_pairing_integral(profile, args.t, dps=dps)
    cross = _scurrent.s_pairing_series(profile, args.t, dps=dps)
    _emit({"command": "scurrent", "profile": args.profile, "t": args.t,
           "precision": dps, "value": _num(value, dps),
           "series_value": _num(cross, dps)})
    return 0


def _cmd_two_param(args) -> int:
    dps = args.precision
    value = _torsion.torsion_two_param(args.ell, args.s, args.t, dps=dps)
    _emit({"command": "two-param", "ell": args.ell, "s": args.s,
           "t": args.t, "precision": dps, "value": _num(value, dps)})
    return 0


def _cmd_selftest(_args) -> int:
    from .acceptance import run_all
    results = run_all()
    _emit({"command": "selftest",
           "checks": [{"name": name, "ok": ok, "detail": detail}
                      for name, ok, detail in results]})
    failed = [name for name, ok, _ in results if not ok]
    if failed:
        print(f"selftest failures: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


class SystemExit2(Exception):
    """Usage error discovered after argparse (exit code 2)."""


_COMMANDS = {
    "torsion": _cmd_torsion,
    "torsion-form": _cmd_torsion_form,
    "height": _cmd_height,
    "grr-check": _cmd_grr_check,
    "scurrent": _cmd_scurrent,
    "two-param": _cmd_two_param,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "precision"):
        args.precision = _default_precision()
    if not hasattr(args, "order"):
        args.order = 40
    if args.precision < 20:
        parser.error("--precision must be >= 20")
    if args.order < 4:
        parser.error("--order must be >= 4")
    try:
        return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, _torsion.CancellationError,
            _torsion.ConvergenceError, _torsionform.AssemblyError,
            _scurrent.LicensingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
