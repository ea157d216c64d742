"""padicdyn benchmark: three seeded closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_deep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

Each workload runs in its own fresh single-threaded worker process
(``perfbench/worker.py``). With ``--trace 0`` the run prints the end-to-end
metrics; set-up is repeated in ``SETUP_PROBES`` further fresh processes, half
before and half after the timed run, and ``setup_s`` is the median. With
``--trace 1`` it prints the per-layer metrics of a traced pass and the
tracing overhead. The last line of standard output is one JSON object;
the full result, with its context, is also written to ``.perfbench/``.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS_DIR = ROOT / ".perfbench"
WORKLOADS = ("oracle_deep", "orbit_long", "request_mix")
SETUP_PROBES = 6

WHY = {
    "oracle_deep": (
        "decide_ergodicity with up to 2^8, 2*3^5, 4*5^3 and 6*7^2 balls at the "
        "deepest level: the Fraction oracle in ergodicity, dynamics.eval and padic "
        "valuations do all of the work; no truncated arithmetic and no CLI code runs"
    ),
    "orbit_long": (
        "truncated orbits of 150 steps at precision 24/64/256: TruncatedPadic "
        "arithmetic, Fraction re-coercion and eval_truncated do all of the work; "
        "the oracle and the CLI never run"
    ),
    "request_mix": (
        "many short in-process CLI requests plus q_sweep: argparse, classification, "
        "conjugation gcds, sampled verification, short exact orbits and JSON "
        "serialization; the oracle runs only shallow"
    ),
}
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}

CLI_NOTE = (
    "CLI requests run in-process through padicdyn.cli.main with stdout captured; a "
    "subprocess per request would mostly time interpreter start-up (about 0.22 s). "
    "The import cost a CLI user pays on every invocation is in setup_s."
)


class BenchError(Exception):
    pass


def checkout_ok() -> bool:
    return (ROOT / "src" / "padicdyn" / "__init__.py").is_file() and (
        ROOT / "tests" / "golden").is_dir()


def worker(workload, seed, seconds, trace, setup_only=False, timeout=WORKER_TIMEOUT_S):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args, workload, result) -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload,
        "why": WHY[workload],
        "ops_in_list": result["ops"],
        "rounds": result["rounds"],
        "passes": result["passes"],
        "latency_samples": result.get("latency_samples"),
        "tail_percentile": result.get("tail_percentile"),
        "cli_note": CLI_NOTE,
        "exact_orbit_note": (
            "request_mix asks for at most 11 exact orbit steps; 13-16 steps hit the "
            "int-to-string limit and are probed as a known defect after the timed "
            "section; 17-24 exact steps are left out because one request runs for "
            "minutes"
        ),
    }


def run_workload(args, workload):
    if args.trace:
        result = worker(workload, args.seed, args.seconds, 1)
        metrics = result["layers"]
        units = None
    else:
        half = SETUP_PROBES // 2
        setups = [worker(workload, args.seed, args.seconds, 0, True, PROBE_TIMEOUT_S)
                  for _ in range(half)]
        result = worker(workload, args.seed, args.seconds, 0)
        setups += [worker(workload, args.seed, args.seconds, 0, True, PROBE_TIMEOUT_S)
                   for _ in range(SETUP_PROBES - half)]
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median([s["setup_s"] for s in setups]
                                               + [result["setup_s"]])
        units = END_TO_END_UNITS
        result["attempted"] += sum(s["attempted"] for s in setups)
        result["failed"] += sum(s["failed"] for s in setups)
    result["context"] = context(args, workload, result)
    result["reported"] = metrics
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_report(workload, result, metrics, units)
    return result, metrics, units


def print_report(workload, result, metrics, units):
    ctx = result["context"]
    print(f"== {workload}  seed {ctx['seed']}  {ctx['ops_in_list']} ops x "
          f"{ctx['passes']} pass(es)  ({ctx['why']})")
    for name, value in metrics.items():
        unit = units[name] if units else layer_unit(name)
        label = name
        if name == "latency_tail_ms":
            label = f"{name} (p{ctx['tail_percentile']}, n={ctx['latency_samples']})"
        print(f"  {label:48s} {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':48s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for kind, reason in result["reasons"].items():
        print(f"  failed {kind}: {result['failed_by_kind'][kind]} x {reason}")
    for kind, seconds in result.get("unscored_seconds", {}).items():
        print(f"  unscored {kind}: {seconds:.4g} s")
    for defect, counts in result["known_defects"].items():
        print(f"  known defect {defect}: {counts}")
    print("context: " + json.dumps(ctx, sort_keys=True))


def layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "evals_per_ball")):
        return "ratio"
    if name.endswith("report_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout_ok():
        print(f"error: {ROOT} has no src/padicdyn and tests/golden to benchmark",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [(w, *run_workload(args, w)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {"correct": all(r["failed"] == 0 for _, r, _, _ in runs),
               "attempted": sum(r["attempted"] for _, r, _, _ in runs),
               "failed": sum(r["failed"] for _, r, _, _ in runs), "metrics": {}}
    for workload, _, metrics, units in runs:
        prefix = "" if len(runs) == 1 else f"{workload}."
        for name, value in metrics.items():
            unit = units[name] if units else layer_unit(name)
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
