"""Time the rows of the ROADMAP Baseline table, each in a fresh interpreter.

    python3 perfbench/baseline.py            # all rows, as a markdown table
    python3 perfbench/baseline.py --row 3    # one row, as a JSON line

Each row imports p1torsion from the checkout's src/ and times one call with
time.perf_counter, so no cache is shared between rows.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cli(*argv):
    from p1torsion import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"p1torsion {' '.join(argv)} exited {code}")


def _rows():
    from p1torsion import acceptance, chowring, series, torsion, torsionform
    rows = []
    for order in (40, 80, 120):
        rows.append((f"build_inv_sin_half({order})",
                     lambda o=order: series.build_inv_sin_half(o)))
    for order in (40, 80, 120):
        rows.append((f"torsion_infinitesimal(3, {order})",
                     lambda o=order: torsion.torsion_infinitesimal(3, o)))
    for order in (40, 80, 120):
        rows.append((f"t_ell_series(3, {order})",
                     lambda o=order: torsionform.t_ell_series(3, o)))
    for cap in (12, 24, 36):
        rows.append((f"check_grr_cancellation(3, {cap})",
                     lambda c=cap: chowring.check_grr_cancellation(3, c)))
    rows.append(("two-param --ell 1 --s 1.0 --t 0.4",
                 lambda: _cli("two-param", "--ell", "1", "--s", "1.0",
                              "--t", "0.4")))
    rows.append(("two-param --ell 1 --s 0.3 --t 0.2",
                 lambda: _cli("two-param", "--ell", "1", "--s", "0.3",
                              "--t", "0.2")))
    rows.append(("acceptance.run_all() (selftest)", acceptance.run_all))
    return rows


def _run_row(index: int) -> dict:
    sys.path.insert(0, SRC)
    name, fn = _rows()[index]
    start = time.perf_counter()
    fn()
    return {"row": name, "seconds": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", type=int, default=None)
    args = parser.parse_args(argv)
    if args.row is not None:
        print(json.dumps(_run_row(args.row)))
        return 0
    sys.path.insert(0, SRC)
    print("| What | Time |\n| --- | --- |")
    for index in range(len(_rows())):
        out = subprocess.run([sys.executable, __file__, "--row", str(index)],
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=600).stdout
        row = json.loads(out.strip().splitlines()[-1])
        print(f"| `{row['row']}` | {row['seconds']:.2f} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
