"""One run of one workload in a fresh interpreter (started by run.py).

The worker imports p1torsion from the checkout's src/, times that import,
and runs whole rounds of the workload's operations as a single closed-loop
caller that checks each output before it starts the next operation.  Only
the operations are timed.  It prints one JSON object on stdout.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace-out F]
    python3 perfbench/worker.py --probe     # time the import and exit
"""

import os
import sys
import time


def _load_program(spawned_at: float):
    """Import p1torsion and p1torsion.cli from <checkout>/src; returns the
    set-up time counted from when the parent spawned this process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    if not os.path.isfile(os.path.join(src, "p1torsion", "cli.py")):
        raise SystemExit(f"error: no p1torsion sources under {src}")
    sys.path.insert(0, src)
    import p1torsion  # noqa: F401
    import p1torsion.cli  # noqa: F401
    setup_s = time.monotonic() - spawned_at
    here = os.path.dirname(os.path.abspath(p1torsion.cli.__file__))
    if os.path.realpath(here) != os.path.realpath(os.path.join(src, "p1torsion")):
        raise SystemExit(f"error: p1torsion was imported from {here}")
    return setup_s


def _args(argv):
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead")
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="operations not started by then fail at once")
    parser.add_argument("--op-limit", type=float, default=60.0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit.  A
    BaseException, so that the program's own `except Exception` handlers
    (run_all catches every check's exception) cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, limit: float, mp):
    """Run one operation; returns (seconds, failure message or None)."""
    import signal
    from time import perf_counter
    failure = None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
        try:
            op.result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure = f"stopped at the {limit:.0f} s limit"
    except SystemExit as exc:  # argparse inside cli.main
        failure = f"SystemExit({exc.code})"
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if mp.dps != 15 or mp.prec != 53:
        failure = failure or f"left the global mp.dps at {mp.dps}"
        mp.dps = 15
    return seconds, failure


def check_op(op, failure):
    """The failure of one operation after its output is checked: None, or
    a message.  Returns (failure, wrong), where wrong marks an output that
    is wrong without being a known fault of the program."""
    if failure is None:
        try:
            failure = op.check(op.result)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
        if failure is not None and not op.known_fault:
            return failure, True
    return failure, False


def interquartile_mean(values) -> float:
    """The mean of the middle half of the sorted values.  Unlike the median
    it moves smoothly when the machine's speed changes during a run, instead
    of jumping between the times of its fast and its slow spells."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def layer_metrics(tracer, rounds: int, wall_total: float, zeta_info) -> dict:
    """Per-round values of every span, counter and derived share."""
    import spans
    out = {}
    names = {span for _, _, span in spans.SPANS}
    for name in sorted(names):
        calls, total, self_s = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.self_s"] = self_s / rounds
    for name in ("quadrature.integrate.integrand_evals",
                 "quadrature.bilateral_sum.term_evals"):
        out[name] = tracer.counts.get(name, 0) / rounds
    out["specfun.zeta_prime_neg.hits"] = zeta_info[0] / rounds
    out["specfun.zeta_prime_neg.misses"] = zeta_info[1] / rounds
    for command in spans.CLI_COMMANDS:
        out[f"cli.{command}.s"] = tracer.stats.get(f"cli.{command}",
                                                   (0, 0.0, 0.0))[1] / rounds
    for check in spans.ACCEPTANCE_CHECKS:
        out[f"acceptance.{check}.s"] = tracer.stats.get(f"acceptance.{check}",
                                                        (0, 0.0, 0.0))[1] / rounds
    out["trace.uncovered_share"] = max(0.0, wall_total - tracer.root_s) / wall_total
    return out


def main(argv=None) -> int:
    args = _args(argv)
    setup_s = _load_program(args.spawned_at if args.spawned_at is not None
                            else time.monotonic())
    if args.probe:
        print('{"setup_s": %r}' % setup_s)
        return 0

    import json
    import random
    import resource
    import signal
    import statistics
    import types
    from time import perf_counter

    import mpmath
    from p1torsion import (acceptance, chowring, cli, scurrent, specfun,
                           torsion, torsionform)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    mp = mpmath.mp
    mp.dps = 15  # the default a caller has
    signal.signal(signal.SIGALRM, _on_alarm)
    pkg = types.SimpleNamespace(torsion=torsion, chowring=chowring,
                                torsionform=torsionform, scurrent=scurrent,
                                cli=cli, acceptance=acceptance, state={},
                                tiny=args.tiny)
    rng = random.Random(f"{args.workload}:{args.seed}")

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install()
    zeta_before = specfun.zeta_prime_neg.cache_info()

    done = []  # (op name, seconds)
    correct = True
    failed = 0
    round_times = []  # the operations' time in each round
    start = perf_counter()
    deadline = start + args.deadline
    r = 0
    while True:
        ops = workloads.build_round(args.workload, rng, r, pkg)
        round_s = 0.0
        for op in ops:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                seconds, failure = 0.0, "not started before the run deadline"
            else:
                seconds, failure = run_op(op, min(args.op_limit, remaining), mp)
            round_s += seconds
            done.append((op.name, seconds))
            if tracer is not None:
                tracer.enabled = False
            failure, wrong = check_op(op, failure)
            if tracer is not None:
                tracer.enabled = True
            op.result = None
            if wrong:
                correct = False
                print(f"WRONG {op.name}: {failure}", file=sys.stderr)
            elif failure is not None:
                failed += 1
                print(f"FAILED {op.name}: {failure}", file=sys.stderr)
        round_times.append(round_s)
        r += 1
        if args.rounds:
            if r >= args.rounds:
                break
        elif sum(round_times) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        zeta_after = specfun.zeta_prime_neg.cache_info()
        layers = layer_metrics(tracer, r, sum(round_times),
                               (zeta_after.hits - zeta_before.hits,
                                zeta_after.misses - zeta_before.misses))
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
        tracer.dump(args.trace_out)

    print(json.dumps({
        "correct": correct,
        "attempted": len(done),
        "failed": failed,
        "rounds": r,
        "round_s": round_times,
        "setup_s": setup_s,
        "wall_s": statistics.median(round_times),
        "op_iqm_s": interquartile_mean(s for _, s in done),
        "peak_rss_mb": peak_rss_mb,
        "ops": [[name, round(s, 6)] for name, s in done],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
