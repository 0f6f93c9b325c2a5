#!/usr/bin/env python3
"""Self-test of the benchmark on a small seed.

    python3 bench/selftest.py

Checks that
  * the closed formula the T4 checks use for n > 6 gives the acceptance
    suite's values for n = 3..6;
  * the strata the builders expect agree with the independent sympy route of
    the test suite (``sympy_stratum`` in tests/conftest.py) on n = 3 and n = 4;
  * the shortest traced run of each workload (run.RSS_ROUNDS rounds) answers
    correctly, gives the same output digests as the untraced rounds, reports spans for all seven modules, and the
    self times of all spans sum to no more than the wall time of the requests.

Needs sympy and pytest (for tests/conftest.py); exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import sys

import run
import spans
from workloads import (
    STRATUM_BUILDERS,
    T4_FACTORS,
    WORKLOADS,
    module_json,
    move,
    random_sl2,
    t4_poly,
    t4_reference,
)

MODULES = sorted({mod for mod, _, _ in spans.TARGETS})
SEED = 7


def check_strata(samples=6) -> list[str]:
    run.load_package()
    sys.path.insert(0, os.path.join(run.ROOT, "tests"))
    from conftest import sympy_stratum
    from moriconic.kronecker import KroneckerModule

    rng = run.stream(SEED, "selftest", "strata")
    problems = []
    for n in (3, 4):
        for stratum, build, *_ in STRATUM_BUILDERS:
            for _ in range(samples):
                doc = module_json(n, move(build(rng, n), random_sl2(rng), random_sl2(rng)))
                got = sympy_stratum(KroneckerModule.from_json(json.loads(doc))).value
                if got != stratum:
                    problems.append(f"{build.__name__} n={n}: sympy says {got}, builder {stratum}: {doc}")
    return problems


def check_traced_rounds() -> list[str]:
    problems = []
    touched = set()
    for workload in sorted(WORKLOADS):
        # seconds=0: the fewest untraced rounds, then the same rounds traced
        report, metrics, attempted, failed, consistent = run.per_layer(workload, SEED, 0)
        if failed:
            problems.append(f"{workload}: {failed} of {attempted} answers wrong")
        if not report["digests_match_untraced"]:
            problems.append(f"{workload}: traced output differs from untraced output")
        if report["span_self_wall_us_per_req"] > report["request_wall_us_per_req"]:
            problems.append(f"{workload}: span self time {report['span_self_wall_us_per_req']:.1f} "
                            f"us/req exceeds wall time {report['request_wall_us_per_req']:.1f} us/req")
        if not consistent:
            problems.append(f"{workload}: run reported itself inconsistent")
        touched |= {name.split(".")[0] for name, (value, _) in metrics.items()
                    if name.endswith(".calls") and value > 0}
    missing = set(MODULES) - touched
    if missing:
        problems.append(f"no spans recorded for modules {sorted(missing)}")
    from moriconic import cli

    if hasattr(cli.main, "__wrapped__"):
        problems.append("span wrappers were not removed after the traced run")
    return problems


def check_t4_formula() -> list[str]:
    """The closed formula behind the T4 checks for n > 6 gives the reference values."""
    problems = []
    for n in T4_FACTORS:
        if list(t4_poly(n)) != t4_reference(n):
            problems.append(f"t4_poly({n}) differs from the reference value")
    return problems


def main() -> int:
    problems = check_t4_formula() + check_strata() + check_traced_rounds()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
