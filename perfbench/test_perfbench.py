"""Tests of the benchmark's own arithmetic and of its failure counting.

    python3 -m pytest perfbench -q        # from the repo root
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hyperslice as hs  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def e(dim: int, k: int) -> np.ndarray:
    return np.eye(dim)[k]


def test_doubling_signs():
    assert np.array_equal(ref.mul(e(8, 1), e(8, 2)), e(8, 3))
    assert np.array_equal(ref.mul(ref.mul(e(8, 1), e(8, 2)), e(8, 4)), e(8, 7))
    assert np.array_equal(ref.mul(e(8, 1), ref.mul(e(8, 2), e(8, 4))), -e(8, 7))
    assert np.array_equal(ref.mul(e(4, 1), e(4, 2)), e(4, 3))


@pytest.mark.parametrize("dim", [4, 8])
def test_norm_is_multiplicative(dim):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 500, dim))
    np.testing.assert_allclose(ref.norm(ref.mul(a, b)), ref.norm(a) * ref.norm(b), rtol=1e-13)


def test_complexified_product_is_the_componentwise_definition():
    rng = np.random.default_rng(1)
    x, y, u, v = rng.standard_normal((4, 8))
    w = ref.cx_mul(x + 1j * y, u + 1j * v)
    np.testing.assert_allclose(np.real(w), ref.mul(x, u) - ref.mul(y, v), atol=1e-15)
    np.testing.assert_allclose(np.imag(w), ref.mul(x, v) + ref.mul(y, u), atol=1e-15)


def _nudged(name: str, op, out):
    """The op's output moved by twice the tolerance of its first check."""
    tol = op.check(out)[0].tol
    if name == "pointwise":
        fx = out[0]
        return (fx + hs.element(fx.tag, e(fx.tag.dim, 0) * 2.0 * tol),) + tuple(out[1:])
    if name == "boundary":
        d = hs.element(out.reproduced.tag, e(out.reproduced.tag.dim, 0) * 2.0 * tol)
        return dataclasses.replace(out, reproduced=out.reproduced + d)
    if name == "volume":
        return out + hs.element(out.tag, e(out.tag.dim, 0) * 2.0 * tol)
    rc, text = out
    report = json.loads(text)
    rec = next(r for r in report["records"] if r["name"].rsplit("/", 1)[-1] not in workloads.INVERTED_RECORDS)
    rec["metric"] = "%.15e" % (2.0 * float(rec["tolerance"]))
    return rc, json.dumps(report)


CHEAP_OP = {"pointwise": 0, "boundary": 0, "volume": 0, "verify": 2}  # verify 2: products suite


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_result_nudged_past_tolerance_counts_as_failed(name):
    wl = workloads.build(name, 7, ROOT)
    op = wl.ops[CHEAP_OP[name]]
    out = op.body(None)
    assert workloads.judge([op], [out])[0] == 0
    failed, messages = workloads.judge([op], [_nudged(name, op, out)])
    assert failed == 1, messages


def test_verify_op_makes_the_same_calls_traced_and_untraced():
    wl = workloads.build("verify", 7, ROOT)
    op = wl.ops[CHEAP_OP["verify"]]
    tr = Tracer()
    with tr.op(op.name):
        traced = op.body(tr)
    assert traced == op.body(None)
    assert [s["name"] for s in tr.spans] == ["op", "cli.load_config", "suites.products.octonion", "cli.emit_report"]


def test_raising_op_is_failed_and_makes_the_run_incorrect():
    def boom(tr):
        raise ZeroDivisionError("boom")

    op = workloads.Op("boom", boom, lambda out: [])
    outs, _, _ = workloads.run_round([op])
    failed, messages = workloads.judge([op], outs)
    assert failed == 1 and "ZeroDivisionError" in messages[0]
    assert run.result_line(1, failed, {})["correct"] is False


def test_op_ids_do_not_repeat_across_workloads():
    tr = Tracer()
    op = workloads.Op("noop", lambda tr: None, lambda out: [])
    workloads.run_round([op, op], tr)
    workloads.run_round([op], tr)
    assert [s["op"] for s in tr.spans] == [0, 1, 2]


def test_benchmark_json_names_the_timed_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.TIMED) == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "op_p50_us", "peak_rss_mb"}
