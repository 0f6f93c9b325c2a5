"""A fixed reference computation that tracks the speed of a shared CPU.

On a shared host the same Python work can take 25% more or less time from one
ten-second stretch to the next.  The benchmark runs this kernel between
requests and scales each measured time by REFERENCE_NS / (kernel time at that
moment), so a reported time is the time the work would take at the speed
where the kernel takes REFERENCE_NS.  Both reference constants are the usual
figures on the 2-vCPU Xeon VM (Python 3.11) the benchmark was tuned on.  The
kernel uses only the standard library, never moriconic, so a change to the
program leaves it unchanged.
Its instruction mix follows the requests: argparse and json as in the CLI
front end, Fraction elimination and big-integer polynomial products as in the
kernels.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 2_000_000

# Wall time of a fresh `python3 bench/calibrate.py` at the reference speed.
# Times of fresh processes are scaled by this over the wall time of such a
# reference process run just before and after them, which follows process
# start-up as well as interpreter speed.
REFERENCE_PROCESS_NS = 80_000_000

_DOC = json.dumps({"n": 5, "matrix": [[[str(i - j) for i in range(6)] for j in range(2)]] * 2})


def _argparse_json():
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("alpha", "beta", "gamma"):
        p = sub.add_parser(name)
        p.add_argument("--json", required=True)
        p.add_argument("--out")
    args = parser.parse_args(["beta", "--json", _DOC])
    doc = json.loads(args.json)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _fraction_elimination(n=6):
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def _int_poly_product(size=40):
    a = [(-1) ** i * (i + 3) ** 5 for i in range(size)]
    out = [0] * (2 * size - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def kernel_ns() -> int:
    """Wall time of one pass of the reference computation."""
    start = perf_counter_ns()
    _argparse_json()
    _fraction_elimination()
    _int_poly_product()
    return perf_counter_ns() - start


def settled_kernel_ns() -> float:
    """Median kernel time after enough passes that a fresh interpreter runs it warm."""
    for _ in range(8):
        kernel_ns()
    return statistics.median(kernel_ns() for _ in range(3))


if __name__ == "__main__":
    # The reference process: interpreter start-up plus the kernel run warm.
    # It prints the settled kernel time, to compare a machine with REFERENCE_NS.
    print(settled_kernel_ns())
