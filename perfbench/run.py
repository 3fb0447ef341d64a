"""Benchmark of logfirm: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {tower,query,decide} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root with plain ``python3``.  Under ``-O`` the
``assert verify_witness(...)`` checks in ``firm.py`` vanish and a different
program would be timed.

``--trace 0`` draws the workload's inputs and oracle answers from the seed,
then times its set-up several times: a fresh import of logfirm plus the
library work of building the round.  It then replays the round, each
operation checked by an oracle, until ``--seconds`` have passed and the
round in progress is done, and prints the end-to-end metrics.  Every timing
is scaled to reference speed by ``SpeedProbe``.

``--trace 1`` runs one round untraced and one round traced, requires the
same answers from both, and prints the per-layer metrics.  Spans go to
``.perfbench/trace-<workload>.tsv`` under the repository root.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up is timed at least SETUP_MIN times, and more (up to SETUP_MAX) until
# SETUP_SECONDS of set-up have been timed
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 100, 4.0
# the speed probe times reference_slice every PROBE_INTERVAL seconds; a
# timing is scaled by REFERENCE_S over the median slice time within
# PROBE_WINDOW seconds of it
PROBE_INTERVAL, PROBE_WINDOW, REFERENCE_S = 0.05, 0.5, 8e-4
# candidate tail percentiles; the highest with at least TAIL_BEYOND
# operations above it is reported
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _answer_key(answer) -> str:
    """A comparable form of an answer: CLI results by status and payload."""
    if hasattr(answer, "payload"):
        return f"{answer.status} {json.dumps(answer.payload, sort_keys=True)}"
    return repr(answer)


def schedule(ops) -> list[int]:
    """The order of one round, as indices into ``ops``: pass p runs every
    operation with more than p repeats, so repeats are spread over the round."""
    passes = max(op.repeats for op in ops)
    return [i for p in range(passes) for i, op in enumerate(ops) if op.repeats > p]


def run_round(ops, order, tracer=None, probe=None):
    """Run the operations in ``order``.  Returns (samples, kinds of the
    failed operations, answer keys).  A sample is (operation index, start,
    end, seconds), where seconds leaves out the time the speed probe took.
    An operation fails when it raises (including ResourceLimit) or its
    oracle rejects the answer."""
    samples, answers, failed = [], [], []
    for i in order:
        op = ops[i]
        if tracer is not None:
            tracer.op = i
        paused = probe.paused if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            answer = op.call()
            error = None
        except Exception as exc:  # counted as a failed operation
            error = exc
        t1 = time.perf_counter()
        if probe is not None:
            paused = probe.paused - paused
        samples.append((i, t0, t1, t1 - t0 - paused))
        if error is not None:
            answers.append(f"raised {type(error).__name__}: {error}")
            failed.append(op.kind)
            continue
        answers.append(_answer_key(answer))
        try:
            ok = op.check(answer)
        except (KeyError, TypeError, ValueError):  # malformed payload
            ok = False
        if not ok:
            failed.append(op.kind)
    if tracer is not None:
        tracer.op = -1
    return samples, failed, answers


# 14 fixed integer vectors in Z^3, the input of reference_slice
_VECTORS = tuple(((7 * i) % 11 - 5, (5 * i) % 7 - 3, (3 * i) % 13 - 6) for i in range(14))


def reference_slice() -> int:
    """A fixed piece of exact pure-Python geometry, the yardstick of speed.
    Like logfirm's own hot loops it builds small tuples, frozensets, dicts
    and Fractions: for each pair of vectors, the primitive cross product and
    the set of vectors orthogonal to it, then a Fraction sum.  Garbage
    collection is off inside it, so its time does not depend on the size of
    the heap that the workload keeps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rays = {}
        for i, a in enumerate(_VECTORS):
            for b in _VECTORS[i + 1:]:
                c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0])
                g = math.gcd(*c)
                if g:
                    rays[tuple(x // g for x in c)] = None
        total = Fraction(0)
        for r in rays:
            tight = frozenset(j for j, v in enumerate(_VECTORS)
                              if r[0] * v[0] + r[1] * v[1] + r[2] * v[2] == 0)
            total += Fraction(len(tight), 1 + abs(r[0]) + abs(r[1]))
        return total.numerator
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed while the ``with`` block runs.

    Every PROBE_INTERVAL seconds a SIGALRM handler, which Python runs
    between two bytecodes of whatever is running, times one
    ``reference_slice``.  ``paused`` is the total time spent in the handler;
    callers take it out of their own timings.  ``scale(a, b)`` is the factor
    that turns a timing of the interval [a, b] into reference seconds:
    REFERENCE_S over the median slice time within PROBE_WINDOW of the
    interval.  A timing at reference speed is what it would be on a machine
    that runs the slice in REFERENCE_S, so it does not move when the
    neighbours of a shared machine slow every program down, but it moves
    when logfirm does more or less work."""

    def __init__(self):
        self.starts: list[float] = []
        self.slices: list[float] = []
        self.paused = 0.0

    def __enter__(self):
        self._on_alarm(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # ignore rather than restore the default, which would end the
        # process if an alarm raised before the timer stopped arrived late
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.slices.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW)
        return REFERENCE_S / statistics.median(self.slices[lo:hi] or self.slices)


class GcClock:
    """Counts the garbage collector's passes, and the time they take, while
    the ``with`` block runs."""

    def __init__(self):
        self.collections = 0
        self.ns = 0
        self._start = 0

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.collections += 1
            self.ns += time.perf_counter_ns() - self._start


def _report_failures(kinds) -> None:
    for kind, n in sorted(Counter(kinds).items()):
        print(f"perfbench: {n} failed {kind} operations", file=sys.stderr)


def _tail(samples):
    """(percentile, value) for the highest candidate percentile that leaves
    at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * p / 100))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def _import_logfirm() -> None:
    """Import logfirm afresh, as a new process would, then put back the
    modules that the workloads and the running round already hold."""
    def loaded():
        return [n for n in sys.modules if n == "logfirm" or n.startswith("logfirm.")]
    held = {name: sys.modules.pop(name) for name in loaded()}
    try:
        for name in held:
            importlib.import_module(name)
    finally:
        for name in loaded():
            del sys.modules[name]
        sys.modules.update(held)


def set_up(build, plan, probe):
    """Times a fresh import of logfirm plus ``build(plan)``, several times.
    Returns the round and the set-up samples (start, end, seconds)."""
    samples = []
    while (len(samples) < SETUP_MIN
           or (len(samples) < SETUP_MAX and sum(s[3] for s in samples) < SETUP_SECONDS)):
        gc.collect()
        paused = probe.paused
        t0 = time.perf_counter()
        _import_logfirm()
        ops = build(plan)
        t1 = time.perf_counter()
        samples.append((-1, t0, t1, t1 - t0 - (probe.paused - paused)))
    return ops, samples


def timed(workload: str, seed: int, seconds: float):
    from perfbench.workloads import WORKLOADS

    plan_of, build = WORKLOADS[workload]
    plan = plan_of(random.Random(seed))
    with SpeedProbe() as probe:
        ops, setups = set_up(build, plan, probe)
        order = schedule(ops)
        samples, failed_kinds = [], []
        rounds = 0
        start = time.perf_counter()
        while True:
            done, bad, _ = run_round(ops, order, probe=probe)
            samples += done
            failed_kinds += bad
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
    attempted = len(samples)
    failed = len(failed_kinds)
    _report_failures(failed_kinds)
    # Each timing is scaled to reference speed, and an operation's latency
    # is the median of its scaled runs.
    per_op = [[] for _ in ops]
    total = 0.0
    for i, t0, t1, t in samples:
        scaled = t * probe.scale(t0, t1)
        per_op[i].append(scaled)
        total += scaled
    op_latency = [statistics.median(runs) for runs in per_op]
    pct, tail = _tail(op_latency)
    setup_s = statistics.median(t * probe.scale(t0, t1) for _, t0, t1, t in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / total, "1/s"),
        "op_p50_ms": (statistics.median(op_latency) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = (attempted - failed) / sum(s[3] for s in samples)
    summary = (f"setup_s is the median of {len(setups)} set-ups; "
               f"{rounds} rounds of {len(order)} runs of {len(ops)} operations; "
               f"op_tail_ms is p{pct:g}; "
               f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}; "
               f"reference slice median {statistics.median(probe.slices) * 1e3:.3f} ms "
               f"over {len(probe.slices)} slices, so ops_per_s unscaled is {unscaled:.6g}")
    return attempted, failed, True, metrics, summary


def traced(workload: str, seed: int):
    from perfbench.tracing import Tracer, metric_names, metric_unit
    from perfbench.workloads import WORKLOADS

    plan_of, build = WORKLOADS[workload]
    plan = plan_of(random.Random(seed))
    ops = build(plan)
    order = schedule(ops)
    # the untraced round shows the collector's cost: the tracer's own spans
    # would add to it
    start = time.perf_counter()
    with GcClock() as collector:
        _, _, plain = run_round(ops, order)
    wall_plain = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        ops = build(plan)
        start = time.perf_counter()
        _, failed_kinds, answers = run_round(ops, order, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    failed = len(failed_kinds)
    _report_failures(failed_kinds)
    same = answers == plain
    values = tracer.metrics(in_setup=False)
    values.update(tracer.metrics(in_setup=True))
    values["trace.overhead_s"] = wall - wall_plain
    values["gc.collections"] = collector.collections
    values["gc.time_s"] = collector.ns / 1e9
    tracer.write(ROOT / ".perfbench" / f"trace-{workload}.tsv")
    metrics = {name: (values[name], metric_unit(name)) for name in metric_names()}
    summary = (f"{len(tracer.spans)} spans; traced and untraced answers "
               f"{'agree' if same else 'DIFFER'}")
    return len(order), failed, same, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tower", "query", "decide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logfirm" / "cli.py").is_file():
        print(f"perfbench: no logfirm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.trace:
        attempted, failed, agree, metrics, summary = traced(args.workload, args.seed)
    else:
        attempted, failed, agree, metrics, summary = timed(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed}: {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": agree and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
