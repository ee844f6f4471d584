"""Regenerate the stored reference table rrot_table.json from mpmath alone.

    python3 perfbench/make_refs.py

R^rot(t) = Im d/ds Li_s(e^{it}) at s = 0 costs one to three seconds per
point at 60 digits, more than the program call it checks, so the benchmark
reads it from this table.  Every other reference is computed during the run.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mpmath as mp  # noqa: E402

import reference  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    values = {}
    for j in reference.RROT_RANGE:
        t = mp.mpf(j) / reference.RROT_DENOM
        values[str(j)] = mp.nstr(reference.r_rot(t), reference.RROT_DPS - 2,
                                 strip_zeros=False)
    data = {"what": "R^rot(t) = Im d/ds Li_s(e^{it}) at s = 0, "
                    "t = j / denominator, mpmath polylog and diff",
            "mpmath": mp.__version__, "dps": reference.RROT_DPS,
            "denominator": reference.RROT_DENOM, "values": values}
    with open(reference.RROT_TABLE, "w") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    print(f"{len(values)} values in {time.perf_counter() - start:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
