#!/usr/bin/env python3
"""Convergence of the boundary integral and of the volume term on the unit bidisc or tridisc.

The boundary table reproduces a fixed degree-3 polynomial at an interior
point for doubling M.  The volume table reproduces the non-regular stem
conj(z_1) c as boundary - volume at (M, R) = (32, R) for V = 0..5, with the
volume rule's node count, once with the stem's exact dbar hook (rows
"volume") and once with it dropped (rows "volume_fd"), where the volume rule
differences the stem along each node's direction.  With --n 3 the domain is the unit tridisc and
only the boundary table is made, for a fixed cubic at M = 16, 24, 32 and 64
with R = M/2; its node count is the rule's, 3 M (R M)^2, up to 805,306,368.
One row per run is printed, and the tables go to the standard convergence
CSV (M,R,V,abs_error,wall_ms) with two more columns: table (boundary,
volume or volume_fd) and nodes.

Usage:
    python scripts/convergence_study.py --out convergence.csv
    python scripts/convergence_study.py --algebra quaternion --radial 16
    python scripts/convergence_study.py --n 3
"""

import argparse
import csv
import sys
import time

import numpy as np

import hyperslice as hs
from hyperslice.suites import _conj_z1_stem


def write_convergence_csv(path, rows, extra=()) -> None:
    """Rows of dicts with keys M, R, V, abs_error, wall_ms, then the keys in extra; fixed header order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "R", "V", "abs_error", "wall_ms", *extra])
        for row in rows:
            writer.writerow(
                [
                    int(row["M"]),
                    int(row["R"]),
                    int(row["V"]),
                    "%.15e" % float(row["abs_error"]),
                    "%.3f" % float(row["wall_ms"]),
                    *(row[key] for key in extra),
                ]
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algebra", default="octonion")
    ap.add_argument("--radial", type=int, default=32)
    ap.add_argument("--volume", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, choices=(2, 3), default=2, help="number of variables")
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args(argv)

    tag = hs.parse_algebra(args.algebra)
    rng = np.random.default_rng(args.seed)
    J = hs.sample_unit_imaginary(tag, rng)
    n = args.n
    dom = hs.PolydiscDomain(np.zeros(n), np.ones(n), J)
    x = hs.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j, 0.2 - 0.3j][:n]), J)
    if n == 3:
        f = hs.lift(hs.stem_polynomial(tag, 3, {(1, 1, 1): hs.one(tag), (1, 0, 0): hs.basis(tag, 3)}))
        runs = [("boundary", hs.reproduce_check, f, hs.QuadratureSpec(M, M // 2, args.volume))
                for M in (16, 24, 32, 64)]
    else:
        f = hs.lift(
            hs.stem_polynomial(tag, 2, {(1, 2): hs.one(tag), (1, 0): hs.basis(tag, 3)})
        )
        g = _conj_z1_stem(tag, 2, hs.element(tag, rng.standard_normal(tag.dim)))
        g_fd = hs.StemFunction(arity=2, tag=tag, smoothness=hs.Smoothness.C1, batch_evaluator=g.batch_evaluator,
                               domain=g.domain)
        runs = [("boundary", hs.reproduce_check, f, hs.QuadratureSpec(M, args.radial, args.volume))
                for M in (8, 16, 32, 64, 128)]
        for table, stem in (("volume", g), ("volume_fd", g_fd)):
            runs += [(table, hs.correction_check, hs.lift(stem), hs.QuadratureSpec(32, args.radial, V)) for V in range(6)]
    rows = []
    print(f"{'table':>9} {'M':>4} {'R':>4} {'V':>2} {'abs_error':>14} {'nodes':>9} {'wall_ms':>9}")
    for table, check, fn, spec in runs:
        t0 = time.perf_counter()
        rep = check(fn, dom, x, spec)
        wall_ms = (time.perf_counter() - t0) * 1e3
        M, R, V = spec.angular_nodes, spec.radial_nodes, spec.volume_refinement
        rows.append({"M": M, "R": R, "V": V, "abs_error": rep.abs_error, "wall_ms": wall_ms,
                     "table": table, "nodes": rep.nodes_used})
        print(f"{table:>9} {M:>4} {R:>4} {V:>2} {rep.abs_error:>14.3e} {rep.nodes_used:>9} {wall_ms:>9.1f}")

    write_convergence_csv(args.out, rows, extra=("table", "nodes"))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
