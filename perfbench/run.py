"""Benchmark for hyperslice: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload pointwise|boundary|volume \
        --seed N --seconds S --trace 0|1

With --trace 0 the workload runs in CHILDREN child processes, one after
another.  Each starts, imports hyperslice, builds the inputs from the seed,
warms up and then runs whole rounds of the workload's operations, one
operation at a time (a closed loop with one client), for its share of the S
seconds.  The end-to-end metrics are setup_s (median over the children of
spawn to first timed operation), wall_s (sum over the round's operations of
each one's time), op_p50_us (median of those times) and peak_rss_mb (the
largest of the children's).  An operation's time is op_time of its repeats
in the run; README.md says why.

With --trace 1 one child runs the traced profile (see child.py) and the
per-layer metrics are printed instead.

A run record (machine, versions, thread settings, seed, counts, src/ line
count) is printed before the result and saved, with the result, under
perfbench/out/.  The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pointwise", "boundary", "volume")
# the timed phase is split over this many child processes, run one after
# another; each one's set-up is a setup_s sample
CHILDREN = 7
DEADLINE_S = 170.0
# OpenBLAS's default two threads made the boundary workload's run-to-run
# spread wider (README.md, "Threads"); the other workloads, which were as
# steady either way, and HYPERSLICE_THREADS keep their defaults
CHILD_ENV = {"boundary": {"OPENBLAS_NUM_THREADS": "1"}}


class ChildFailed(RuntimeError):
    pass


class Child:
    """A child process whose stdout lines are read with a deadline."""

    def __init__(self, workload: str, args: list, deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload] + args,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, **CHILD_ENV.get(workload, {})),
        )
        self.timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.proc.kill)
        self.timer.start()

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise ChildFailed(f"child exited with {self.proc.returncode} before it reported")
        return line.strip()

    def close(self) -> None:
        try:
            self.proc.stdout.close()
            self.proc.wait()
        finally:
            self.timer.cancel()


def src_line_count(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_timed(args, deadline: float) -> tuple[dict, list]:
    """CHILDREN children, one after another, each timed from spawn to `ready`
    and then running whole rounds for its share of the seconds."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds / CHILDREN), "--mode", "timed"]
    setups, parts = [], []
    for _ in range(CHILDREN):
        child = Child(args.workload, common, deadline)
        if child.readline() != "ready":
            child.close()
            raise ChildFailed("child did not report ready")
        setups.append(time.perf_counter() - child.started)
        parts.append(json.loads(child.readline()))
        child.close()
        if child.proc.returncode != 0:
            raise ChildFailed(f"timed child exited with {child.proc.returncode}")
    result = dict(parts[-1])
    for key in ("attempted", "failed"):
        result[key] = sum(p[key] for p in parts)
    result["per_workload"] = {args.workload: {k: result[k] for k in ("attempted", "failed")}}
    result["messages"] = [m for p in parts for m in p["messages"]][:10]
    result["op_ns"] = [sum(samples, []) for samples in zip(*(p["op_ns"] for p in parts))]
    result["round_ns"] = [t for p in parts for t in p["round_ns"]]
    result["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    return result, setups


def run_traced(args, deadline: float) -> dict:
    child = Child(args.workload, ["--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", "trace"], deadline)
    result = json.loads(child.readline())
    child.close()
    if child.proc.returncode != 0:
        raise ChildFailed(f"traced child exited with {child.proc.returncode}")
    return result


def op_time(samples: list) -> float:
    """One operation's time: the upper quartile of its repeats in the run (README.md, "Noise")."""
    if len(samples) < 2:
        return float(samples[0])
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def tail_percentile(samples_ns: list) -> dict | None:
    """Highest percentile with at least ten samples beyond it (none below forty samples)."""
    n = len(samples_ns)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            k = min(n - 1, math.ceil(n * p / 100.0) - 1)
            return {"percentile": p, "us": sorted(samples_ns)[k] / 1e3, "samples": n}
    return None


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    # an op that raised or missed its check makes the run incorrect
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/hyperslice/__init__.py", "configs/example.yaml"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.stderr.write(f"perfbench: {needed} not found; run from the root of a hyperslice checkout\n")
            return 2
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)

    deadline = start + DEADLINE_S
    try:
        if args.trace:
            result = run_traced(args, deadline)
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["layer_metrics"].items()}
            setups = []
        else:
            result, setups = run_timed(args, deadline)
            op_s = [op_time(samples) / 1e9 for samples in result["op_ns"]]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": sum(op_s), "unit": "s"},
                "op_p50_us": {"value": statistics.median(op_s) * 1e6, "unit": "us"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
    except (ChildFailed, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    for msg in result["messages"]:
        sys.stderr.write(f"perfbench: failed op: {msg}\n")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "threads_inherited": {v: os.environ.get(v, "unset") for v in result["threads"]},
        "threads_seen": result["threads"],
        "per_workload": result["per_workload"],
        "src_lines": src_line_count(root),
        "setup_s_samples": setups,
        "import_s": result["import_s"],
    }
    if not args.trace:
        samples = [t for op in result["op_ns"] for t in op]
        record["rounds"] = len(result["round_ns"])
        record["round_wall_median_s"] = statistics.median(result["round_ns"]) / 1e9
        record["op_sample_median_us"] = statistics.median(samples) / 1e3
        record["op_tail"] = tail_percentile(samples)
    else:
        record["trace_file"] = result["trace_file"]
        record["layer_counts"] = {k: v["count"] for k, v in result["layer_metrics"].items()}
    final = result_line(result["attempted"], result["failed"], metrics)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": final, "op_ns": result.get("op_ns"), "round_ns": result.get("round_ns")}, fh)
    print(json.dumps({"run_record": record}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
