"""One workload in its own process; started by run.py, not meant to be run by hand.

    python3 perfbench/child.py --workload W --seed N --seconds S --mode timed|trace

In timed mode the process imports hyperslice from the checkout's src/,
builds the workload's inputs from the seed, warms up, prints `ready`, and
then runs whole rounds of the workload's operations, one at a time, for
about S seconds.  In trace mode it runs OVERHEAD_PAIRS pairs of an untraced
and a traced round of W and one traced round of every other workload, and
writes the spans to perfbench/out.  The last stdout line is a JSON summary
for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import hyperslice.cli  # noqa: E402  (timed: cli.import_s)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BOUNDARY_CLASSES = ("n2_M16_R8", "n2_M32_R16", "n2_M64_R32", "n3_M16_R8")
VOLUME_CLASSES = ("n2_M32_R16_V1", "n2_M32_R16_V2")
THREAD_VARS = ("HYPERSLICE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# paired untraced and traced rounds of the named workload; the tracing
# overhead is the median of their differences
OVERHEAD_PAIRS = 3
SUITE_SPANS = ("suites.algebra",) + tuple(
    f"suites.{s}.{a}" for a in ("octonion", "quaternion") for s in workloads.VERIFY_SUITES[1:]
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed(wl, seconds: float) -> dict:
    """Whole rounds for about `seconds`; every op's time in every round."""
    start = time.perf_counter()
    per_op: list = [[] for _ in wl.ops]
    rounds = []
    failed = attempted = 0
    messages: list = []
    while True:
        outs, times, wall = workloads.run_round(wl.ops)
        f, msgs = workloads.judge(wl.ops, outs)
        failed, attempted = failed + f, attempted + len(wl.ops)
        messages += msgs
        rounds.append(wall)
        for samples, t in zip(per_op, times):
            samples.append(t)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:10],
        "per_workload": {wl.name: {"attempted": attempted, "failed": failed}},
        "op_ns": per_op,
        "round_ns": rounds,
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# trace mode


def _median(values):
    return float(statistics.median(values))


def layer_metrics(tr: Tracer, mem: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the spans: {name: (value, unit, samples)}."""
    out: dict = {}

    def dur(name):
        return [s["end"] - s["start"] for s in tr.named(name)]

    def timing(metric, span, unit, scale):
        d = dur(span)
        if not d:
            raise RuntimeError(f"no spans named {span!r}")
        out[metric] = (_median(d) / scale, unit, len(d))

    def per_item(metric, span, key):
        spans = [s for s in tr.named(span) if key in s]
        if not spans:
            raise RuntimeError(f"no spans named {span!r} with {key!r}")
        out[metric] = (_median([(s["end"] - s["start"]) / s[key] for s in spans]), "ns", len(spans))

    def attr(metric, span, key, unit, reduce):
        vals = [s[key] for s in tr.named(span) if key in s]
        if not vals:
            raise RuntimeError(f"no spans named {span!r} with {key!r}")
        out[metric] = (float(reduce(vals)), unit, len(vals))

    timing("algebra.multiply_us", "algebra.multiply", "us", 1e3)
    per_item("algebra.multiply_batch_ns_per_row", "algebra.multiply_batch", "rows")
    timing("algebra.left_mult_matrix_us", "algebra.left_mult_matrix", "us", 1e3)
    timing("complexified.c_multiply_us", "complexified.c_multiply", "us", 1e3)
    timing("stem.evaluate_stem_us", "stem.evaluate_stem", "us", 1e3)
    per_item("stem.evaluate_stem_batch_ns_per_node", "stem.evaluate_stem_batch", "nodes")
    per_item("stem.wirtinger_batch_exact_ns_per_node", "stem.wirtinger_batch.exact", "nodes")
    per_item("stem.wirtinger_batch_fd_ns_per_node", "stem.wirtinger_batch.fd", "nodes")
    for fn in ("lift_evaluate", "spherical", "representation", "sphere_values", "classify_sphere_zeros", "slice_product"):
        timing(f"slicefun.{fn}_us", f"slicefun.{fn}", "us", 1e3)
    for cls in BOUNDARY_CLASSES:
        span = f"integral.boundary.{cls}"
        timing(f"integral.boundary_ms.{cls}", span, "ms", 1e6)
        attr(f"integral.boundary_nodes.{cls}", span, "nodes", "count", max)
        per_item(f"integral.boundary_ns_per_node.{cls}", span, "nodes")
        attr(f"integral.boundary_abs_error.{cls}", span, "abs_error", "norm", max)
        out[f"integral.node_mb.{cls}"] = (mem[f"integral.node_mb.{cls}"], "MB", 1)
    timing("integral.off_slice_ms.n2_M32_R16", "integral.off_slice.n2_M32_R16", "ms", 1e6)
    timing("integral.hartogs_ms.n2_M32_R16", "integral.hartogs.n2_M32_R16", "ms", 1e6)
    for cls in VOLUME_CLASSES:
        span = f"integral.volume.{cls}"
        timing(f"integral.volume_ms.{cls}", span, "ms", 1e6)
        attr(f"integral.volume_nodes.{cls}", span, "nodes", "count", max)
        per_item(f"integral.volume_ns_per_node.{cls}", span, "nodes")
        attr(f"integral.volume_abs_error.{cls}", span, "abs_error", "norm", max)
        out[f"integral.volume_node_mb.{cls}"] = (mem[f"integral.volume_node_mb.{cls}"], "MB", 1)
        boundary = {s["op"]: s["end"] - s["start"] for s in tr.named(f"integral.volume_op_boundary.{cls}")}
        shares = [boundary[s["op"]] / (boundary[s["op"]] + s["end"] - s["start"]) for s in tr.named(span)]
        out[f"integral.volume_boundary_share.{cls}"] = (_median(shares), "ratio", len(shares))
    for span in SUITE_SPANS:
        timing(f"{span}_s", span, "s", 1e9)
    records = sum(s["records"] for name in SUITE_SPANS for s in tr.named(name))
    out["suites.records"] = (float(records), "count", len(SUITE_SPANS))
    out["cli.import_s"] = (IMPORT_S, "s", 1)
    timing("cli.load_config_ms", "cli.load_config", "ms", 1e6)
    timing("cli.emit_report_ms", "cli.emit_report", "ms", 1e6)
    out["trace.overhead_s"] = (overhead_s, "s", 1)
    return out


def peak_alloc_mb(fn) -> float:
    """Peak bytes allocated through Python and numpy while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def traced(name: str, seed: int) -> dict:
    tr = Tracer()
    failed = attempted = 0
    per_workload: dict = {}
    messages: list = []
    mem: dict = {}
    extra_ns = []
    order = [name] + [w for w in workloads.WORKLOADS if w != name]
    for wname in order:
        wl = workloads.build(wname, seed, ROOT)
        wl.warm_up()
        batches = []
        for _ in range(OVERHEAD_PAIRS if wname == name else 1):
            if wname == name:
                outs, _, wall_plain = workloads.run_round(wl.ops)
                batches.append(outs)
            outs, _, wall_traced = workloads.run_round(wl.ops, tr)
            batches.append(outs)
            if wname == name:
                extra_ns.append(wall_traced - wall_plain)
        for outs in batches:
            f, msgs = workloads.judge(wl.ops, outs)
            failed, attempted = failed + f, attempted + len(wl.ops)
            messages += msgs
            done = per_workload.setdefault(wname, {"attempted": 0, "failed": 0})
            done["attempted"] += len(wl.ops)
            done["failed"] += f
        for op in wl.ops:
            if op.probe is not None and op.probe[0] not in mem:
                mem[op.probe[0]] = peak_alloc_mb(op.probe[1])
    overhead_s = _median(extra_ns) / 1e9
    metrics = layer_metrics(tr, mem, overhead_s)
    self_ns = tr.self_ns()
    ops = [
        {"op": s["op"], "name": s["op_name"], "wall_ns": s["end"] - s["start"], "self_ns": self_ns[k]}
        for k, s in enumerate(tr.spans)
        if s["name"] == "op"
    ]
    trace_path = os.path.join(ROOT, "perfbench", "out", f"trace-{name}-seed{seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "metrics": {k: {"value": v, "unit": u, "count": c} for k, (v, u, c) in metrics.items()},
                "ops": ops,
                "spans": tr.spans,
            },
            fh,
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:10],
        "per_workload": per_workload,
        "layer_metrics": {k: {"value": v, "unit": u, "count": c} for k, (v, u, c) in metrics.items()},
        "trace_file": os.path.relpath(trace_path, ROOT),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------


def blas_info() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info = {"name": deps["blas"].get("name"), "version": deps["blas"].get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = openblas_threads()
    return info


def openblas_threads():
    """Thread count OpenBLAS reports, from the copy bundled with numpy; None if not found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.TIMED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "trace"))
    args = ap.parse_args()

    if args.mode == "trace":
        result = traced(args.workload, args.seed)
    else:
        wl = workloads.build(args.workload, args.seed, ROOT)
        wl.warm_up()
        print("ready", flush=True)
        result = timed(wl, args.seconds)
    result["import_s"] = IMPORT_S
    result["threads"] = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
    result["blas"] = blas_info()
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
