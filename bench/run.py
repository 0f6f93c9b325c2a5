#!/usr/bin/env python3
"""moriconic benchmark: CLI requests end to end, and per-module spans.

    python3 bench/run.py --workload stability-n5 --seed 1 --seconds 30 --trace 0

One client drives ``moriconic.cli.main(argv)`` in-process as a closed loop:
the next request is sent when the previous one has returned.  Requests come
in rounds built from the seed (see workloads.py); rounds run until
``--seconds`` have passed, and every response is checked against the answer
known from how its input was built.  Warm-up requests come from a separate
random stream, so no timed request hits a cache filled during warm-up.

Every reported time is scaled to a reference CPU speed (see calibrate.py and
README.md): a short fixed kernel runs between requests, and each request's
wall time is multiplied by REFERENCE_NS over the kernel's time around it;
fresh processes are scaled by fresh reference processes run around them.
The report line also gives the unscaled wall-time figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the rounds
for half the time untraced, then the same rounds again with a span around
every function in spans.TARGETS, and reports per-request calls, self time
and counters for each span.  The last line of stdout is the result object;
the line before it is a report with the output digests and sample counts.
The benchmark imports the package from ``src/`` next to this directory and
exits nonzero without a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
from calibrate import REFERENCE_NS, REFERENCE_PROCESS_NS, kernel_ns
from workloads import LIB_COKERNEL, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "moriconic"

CALIBRATE_EVERY_NS = 50_000_000  # of request time between two kernel runs
SETUP_REPEATS = 11  # fresh processes timed for setup_s
COLD_REQUESTS = 15  # fresh `python -m moriconic.cli` processes for cold_request_ms
CHILD_TIMEOUT_S = 60
RSS_ROUNDS = 3  # peak_rss_mb is read after this many timed rounds, a fixed amount of work


def load_package():
    """Import moriconic from the source tree; exit without a result if absent."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "cli.py")):
        raise SystemExit(f"bench: no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, SRC)
    from moriconic import cli, kronecker

    return cli, kronecker


def stream(seed, workload, purpose) -> random.Random:
    return random.Random(f"{seed}:{workload}:{purpose}")


class Server:
    """Serves one request in-process and returns (exit code, stdout text)."""

    def __init__(self, cli, kronecker):
        self.cli = cli
        self.kronecker = kronecker

    def _cokernel(self, doc_text):
        # Looked up through the modules on every call, so spans installed later apply.
        module = self.kronecker.KroneckerModule.from_json(json.loads(doc_text))
        kind = self.kronecker.cokernel_kind(module)
        sys.stdout.write(json.dumps({"det_rank": kind.det_rank, "kind": kind.kind}) + "\n")
        return 0

    def __call__(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self._cokernel(argv[2]) if argv[0] == LIB_COKERNEL else self.cli.main(list(argv))
            except Exception:  # an escaped exception is a failed request, not a crash
                traceback.print_exc(file=sys.stderr)
                rc = None
        return rc, buf.getvalue()


class Tally:
    """Checked requests: wall and scaled latencies, failures, output digests."""

    def __init__(self):
        self.wall_ns = []
        self.scaled_ns = []
        self.kernels_ns = [min(kernel_ns() for _ in range(3))]  # the first pass runs cold
        self.attempted = 0
        self.failed = 0
        self.repeated = 0
        self.round_digests = []
        self.digest = hashlib.sha256()
        self._seen = set()
        self._since_kernel_ns = 0
        self.peak_rss_mb = None

    @property
    def correct_requests(self) -> int:
        return self.attempted - self.failed

    def calibrate(self):
        """Scale the requests since the last kernel run by the kernel times around them."""
        self.kernels_ns.append(kernel_ns())
        scale = 2 * REFERENCE_NS / (self.kernels_ns[-2] + self.kernels_ns[-1])
        self.scaled_ns += [ns * scale for ns in self.wall_ns[len(self.scaled_ns):]]
        self._since_kernel_ns = 0

    def run_round(self, serve, requests):
        outputs = []
        for req in requests:
            t0 = time.perf_counter_ns()
            rc, out = serve(req.argv)
            elapsed = time.perf_counter_ns() - t0
            self.wall_ns.append(elapsed)
            outputs.append((rc, out))
            self._since_kernel_ns += elapsed
            if self._since_kernel_ns >= CALIBRATE_EVERY_NS:
                self.calibrate()
        round_digest = hashlib.sha256()
        for req, (rc, out) in zip(requests, outputs):
            self.attempted += 1
            self.failed += not check(req, rc, out)
            key = hash(req.argv[1:])  # the input document, whatever the operation
            self.repeated += key in self._seen
            self._seen.add(key)
            data = out.encode()
            round_digest.update(data)
            self.digest.update(data)
        self.round_digests.append(round_digest.hexdigest()[:12])


def check(req, rc, out) -> bool:
    if req.check(rc, out):
        return True
    print(f"bench: wrong answer (exit {rc}) for {' '.join(req.argv)[:200]}: {out[:200]!r}",
          file=sys.stderr)
    return False


def check_all(serve, requests) -> tuple[int, int]:
    """Serve and check untimed requests: (attempted, failed)."""
    return len(requests), sum(not check(req, *serve(req.argv)) for req in requests)


def run_timed(serve, build_round, rng, seconds=None, rounds=None) -> Tally:
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds.

    A timed run makes at least RSS_ROUNDS rounds, and the peak resident set
    is read after the RSS_ROUNDS-th, so it measures the same work whatever the
    speed of the run; read later, it would grow with the per-request records.
    """
    tally = Tally()
    deadline = time.perf_counter() + (seconds or 0)
    while True:
        tally.run_round(serve, build_round(rng))
        done = len(tally.round_digests)
        if done == RSS_ROUNDS:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if (done >= rounds) if rounds else (done >= RSS_ROUNDS and time.perf_counter() >= deadline):
            tally.calibrate()
            return tally


def clear_caches():
    """Empty every functools cache in the package, where any remain."""
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_child(argv):
    """Run a fresh interpreter: (wall seconds, finished process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def scaled_children(argvs):
    """Run fresh interpreters one at a time: (scale, wall seconds, process) each.

    The scale is REFERENCE_PROCESS_NS over the wall time of reference
    processes run just before and after the child on the same CPU.
    """
    def reference_process_ns():
        return run_child([os.path.join(HERE, "calibrate.py")])[0] * 1e9

    before = reference_process_ns()
    for argv in argvs:
        wall, proc = run_child(argv)
        after = reference_process_ns()
        yield 2 * REFERENCE_PROCESS_NS / (before + after), wall, proc
        before = after


def setup_probe(workload, seed):
    """Time importing the package and serving the warm-up requests (child process)."""
    warmup = WORKLOADS[workload][1](stream(seed, workload, "warmup"))
    start = time.perf_counter()
    serve = Server(*load_package())
    attempted, failed = check_all(serve, warmup)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "attempted": attempted, "failed": failed}))


def measure_setup(workload, seed):
    """Median scaled set-up time over fresh processes."""
    argv = [os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples, attempted, failed = [], 0, 0
    for scale, _, proc in scaled_children([argv] * SETUP_REPEATS):
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup probe failed: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(doc["setup_s"] * scale)
        attempted += doc["attempted"]
        failed += doc["failed"]
    return statistics.median(samples), attempted, failed


def measure_cold(build_round, rng):
    """Median scaled wall time of fresh `python -m moriconic.cli` processes, each
    serving one request of the workload's first CLI operation."""
    requests = [r for r in build_round(rng) if r.is_cli]
    op = requests[0].argv[0]
    picks = [r for r in requests if r.argv[0] == op]
    while len(picks) < COLD_REQUESTS:
        picks += [r for r in build_round(rng) if r.argv[0] == op]
    picks = picks[:COLD_REQUESTS]
    samples, failed = [], 0
    argvs = [["-m", f"{PACKAGE}.cli", *req.argv] for req in picks]
    for req, (scale, wall, proc) in zip(picks, scaled_children(argvs)):
        samples.append(wall * scale)
        failed += not check(req, proc.returncode, proc.stdout)
    return statistics.median(samples), len(picks), failed


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so a reference process
    runs at the speed the process it scales ran at."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, seed, seconds):
    build_round, build_warmup = WORKLOADS[workload]
    serve = Server(*load_package())
    w_attempted, w_failed = check_all(serve, build_warmup(stream(seed, workload, "warmup")))
    tally = run_timed(serve, build_round, stream(seed, workload, "timed"), seconds=seconds)
    setup_s, s_attempted, s_failed = measure_setup(workload, seed)
    cold_s, c_attempted, c_failed = measure_cold(build_round, stream(seed, workload, "cold"))
    scaled_us = [ns / 1000 for ns in tally.scaled_ns]
    wall_us = [ns / 1000 for ns in tally.wall_ns]
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(tally.round_digests),
        "samples": len(scaled_us),
        "error_rate": tally.failed / tally.attempted,
        "repeated_input_share": tally.repeated / tally.attempted,
        "kernel_us_median": statistics.median(tally.kernels_ns) / 1000,
        "wall_throughput_rps": tally.correct_requests / (sum(wall_us) / 1e6),
        "wall_latency_p50_us": statistics.median(wall_us),
        "wall_latency_p90_us": p90(wall_us),
        "digest": tally.digest.hexdigest(),
        "round_digests": tally.round_digests,
    }
    metrics = {
        "throughput_rps": (tally.correct_requests / (sum(scaled_us) / 1e6), "1/s"),
        "latency_p50_us": (statistics.median(scaled_us), "us"),
        "latency_p90_us": (p90(scaled_us), "us"),
        "cold_request_ms": (cold_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    attempted = tally.attempted + w_attempted + s_attempted + c_attempted
    failed = tally.failed + w_failed + s_failed + c_failed
    return report, metrics, attempted, failed, True


def per_layer(workload, seed, seconds):
    build_round, build_warmup = WORKLOADS[workload]
    serve = Server(*load_package())
    w_attempted, w_failed = check_all(serve, build_warmup(stream(seed, workload, "warmup")))
    plain = run_timed(serve, build_round, stream(seed, workload, "timed"), seconds=seconds / 2)

    # Same rounds again from empty caches and the same warm-up, under spans.
    clear_caches()
    check_all(serve, build_warmup(stream(seed, workload, "warmup")))
    tracer = spans.Tracer()
    hits_before = spans.minor_gcd_cache_hits(PACKAGE)
    tracer.install(PACKAGE)
    try:
        traced = run_timed(serve, build_round, stream(seed, workload, "timed"),
                           rounds=len(plain.round_digests))
    finally:
        tracer.uninstall()
    hits = spans.minor_gcd_cache_hits(PACKAGE) - hits_before

    n = traced.attempted
    scale = REFERENCE_NS / statistics.median(traced.kernels_ns)
    metrics = {}
    for name in spans.span_names():
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "1/req")
        metrics[f"{name}.self_us"] = (tracer.self_ns[name] * scale / 1000 / n, "us/req")
    for name, total in tracer.counts.items():
        metrics[name] = (total / n, "1/req")
    metrics["kronecker.minor_gcd.cache_hits"] = (hits / n, "1/req")
    plain_rps = plain.correct_requests / sum(plain.scaled_ns)
    traced_rps = traced.correct_requests / sum(traced.scaled_ns)
    metrics["trace.throughput_ratio"] = (traced_rps / plain_rps, "ratio")

    digests_match = plain.round_digests == traced.round_digests
    self_total_ns = sum(tracer.self_ns.values())
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(traced.round_digests),
        "samples": n,
        "error_rate": (plain.failed + traced.failed) / (plain.attempted + n),
        "digest": traced.digest.hexdigest(),
        "digests_match_untraced": digests_match,
        "span_self_wall_us_per_req": self_total_ns / 1000 / n,
        "request_wall_us_per_req": sum(traced.wall_ns) / 1000 / n,
    }
    consistent = digests_match and self_total_ns <= sum(traced.wall_ns)
    attempted = plain.attempted + traced.attempted + w_attempted
    failed = plain.failed + traced.failed + w_failed
    return report, metrics, attempted, failed, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    pin_to_one_cpu()
    run = per_layer if args.trace else end_to_end
    report, metrics, attempted, failed, consistent = run(args.workload, args.seed, args.seconds)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
