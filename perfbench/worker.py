"""One workload process of the padicdyn benchmark.

Started by ``perfbench/run.py``; prints one JSON line. The process is a
closed loop with one caller: each op starts after the previous one has
returned and been checked. Set-up (``import padicdyn``, input generation
and one warm-up op) is timed from the first statement of this file;
``--setup-only`` stops there, so that ``run.py`` can repeat set-up in
fresh processes.

An untraced run executes its op list in ``PASSES`` passes, each in its
own seeded order, and keeps each op's best wall time (the convention of
``timeit``): on a shared machine the slower repeats measure interference
from other tenants, not the program. A traced run executes one untraced
and one traced pass over a shorter list and reports per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports padicdyn)
from padicdyn import padic  # noqa: E402
from tracer import Tracer  # noqa: E402

PASSES = 6

# Seconds one round of each workload's template takes on a 2-vCPU Xeon
# (Sapphire Rapids, 2.0 GHz, Python 3.11.7). Op counts follow from
# --seconds through these constants only, never from elapsed time.
ROUND_SECONDS = {"oracle_deep": 0.8, "orbit_long": 0.55, "request_mix": 0.15}
TRACE_SHARE = 1 / 6  # a traced run's list, relative to an untraced run's work

SPANS_DIR = ROOT / ".perfbench"


def rounds_for(workload: str, seconds: float, trace: bool) -> int:
    work = seconds * TRACE_SHARE if trace else seconds / PASSES
    return max(1, round(work / ROUND_SECONDS[workload]))


def run_op(op):
    """(result, seconds, failure reason or None); the check runs untimed."""
    result = None
    t0 = time.perf_counter_ns()
    try:
        result = op.run()
        failure = None
    except Exception as exc:  # noqa: BLE001 - any exception fails the op
        failure = f"raised {type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    if failure is None:
        failure = op.check(result)
    return result, elapsed, failure


def tail(latencies):
    """(q, value): the highest whole percentile with >= 10 samples beyond it."""
    n = len(latencies)
    q = max(50, min(99, 100 * (n - 10) // n))
    rank = -(-q * n // 100)  # nearest rank, 1-based
    return q, sorted(latencies)[rank - 1]


class Tally:
    """Attempts and failures, with the first reason seen for each op kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.reasons = {}

    def add(self, op, failure):
        self.attempted += 1
        if failure is not None:
            self.failed[op.kind] += 1
            self.reasons.setdefault(op.kind, failure[:300])

    def as_dict(self):
        return {"attempted": self.attempted, "failed": sum(self.failed.values()),
                "failed_by_kind": dict(self.failed), "reasons": self.reasons}


def timed_passes(ops, passes, seed, tally, pass_seconds, tracer=None):
    """Best wall time of each op that never failed, over ``passes`` passes.

    Appends each pass's summed op time to ``pass_seconds``. With a tracer,
    tags its spans with the op's index and counts CLI report bytes.
    """
    rng = random.Random(f"order:{seed}")
    best = [float("inf")] * len(ops)
    failed = set()
    for _ in range(passes):
        order = list(range(len(ops)))
        rng.shuffle(order)
        total = 0.0
        for i in order:
            if tracer is not None:
                tracer.op_id = i
            result, elapsed, failure = run_op(ops[i])
            if tracer is not None and ops[i].report_bytes is not None and result is not None:
                tracer.counters["cli.report_bytes"] += ops[i].report_bytes(result)
            total += elapsed
            tally.add(ops[i], failure)
            if failure is None:
                best[i] = min(best[i], elapsed)
            else:
                failed.add(i)
        pass_seconds.append(total)
    return [t for i, t in enumerate(best) if i not in failed]


def end_to_end(latencies):
    q, tail_value = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, q


def traced_run(args, ops, warmup, tally):
    """One untraced and one traced pass; returns the per-layer metrics."""
    untraced = timed_passes(ops, 1, args.seed, tally, [])
    cache = padic._truncate_fraction  # read unwrapped: the tracer never patches it
    cache.cache_clear()
    run_op(warmup)
    before = cache.cache_info()
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_passes(ops, 1, args.seed, tally, [], tracer)
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    metrics = tracer.layer_metrics()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    metrics["padic.truncate_cache.hits"] = hits
    metrics["padic.truncate_cache.misses"] = misses
    metrics["padic.truncate_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    untraced_rate = len(untraced) / sum(untraced) if untraced else 0.0
    traced_rate = len(traced) / sum(traced) if traced else 0.0
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{args.workload}.jsonl.gz"
    tracer.write_spans(spans_file)
    return metrics, str(spans_file.relative_to(ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rounds = rounds_for(args.workload, args.seconds, bool(args.trace))
    ops = workloads.BUILDERS[args.workload](args.seed, rounds)
    warmup = workloads.WARMUPS[args.workload]()
    _, _, warm_failure = run_op(warmup)
    out = {"setup_s": time.perf_counter() - T_START, "rounds": rounds, "ops": len(ops)}
    tally = Tally()
    tally.add(warmup, warm_failure)
    if args.setup_only:
        out.update(tally.as_dict())
        print(json.dumps(out))
        return 0

    if args.trace:
        out["passes"] = 1
        out["layers"], out["spans_file"] = traced_run(args, ops, warmup, tally)
    else:
        out["passes"] = PASSES
        out["pass_seconds"] = []
        latencies = timed_passes(ops, PASSES, args.seed, tally, out["pass_seconds"])
        out["metrics"], out["tail_percentile"] = end_to_end(latencies)
        out["latency_samples"] = len(latencies)
        out["unscored_seconds"] = {}
        for op in workloads.UNSCORED.get(args.workload, list)():
            _, elapsed, failure = run_op(op)
            tally.add(op, failure)
            out["unscored_seconds"][op.kind] = elapsed
    out.update(tally.as_dict())
    out["known_defects"] = probe_defects()
    print(json.dumps(out))
    return 0


def probe_defects():
    """Per known CLI defect: how many probes failed the known way, or passed."""
    counts = {}
    for defect, argv in workloads.DEFECT_PROBES:
        status = workloads.run_defect_probe(defect, argv)
        counts.setdefault(defect, Counter())[status] += 1
    return {defect: dict(c) for defect, c in counts.items()}


if __name__ == "__main__":
    sys.exit(main())
