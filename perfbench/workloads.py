"""The benchmark's four workloads: inputs made from the seed, operations, checks.

An operation is one call sequence a user of hyperslice makes; it receives
only inputs generated here.  Its output is checked against `reference`
(an independent Cayley-Dickson product and closed-form stem values) or
against a property the method must have, never against a stored copy of
earlier output.  Tolerances for quadrature follow from the convergence rate
of each rule (see README.md, "Accuracy") and are fixed before the call.

Each operation body takes an optional tracer.  Untraced, it makes only the
calls a user makes.  Traced, it opens a span around each call into a layer's
public function and also calls, as spans of their own, the functions of
layers that the operation reaches only through another layer, on the same
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import yaml

import hyperslice as hs
from hyperslice import algebra, cli, complexified, integral, slicefun, stem, suites

import reference as ref

# timed workloads; verify only runs inside the traced profile (see README.md)
TIMED = ("pointwise", "boundary", "volume")
WORKLOADS = TIMED + ("verify",)
TAGS = (hs.OCTONION, hs.QUATERNION)
_NULL = contextlib.nullcontext()

# relative float tolerance for pointwise values: products and sums of a few
# dozen terms lose at most a few hundred ulps
POINT_RTOL = 1e-12
# representation divides by J - K, |J - K| >= UNIT_SEPARATION
REPRESENTATION_RTOL = 1e-10
UNIT_SEPARATION = 0.3
SPHERE_UNITS = 1000
# zero verdicts: the same thresholds as the package's own scan check
ZERO_ATOL = 1e-9
SCAN_HIT = 1e-7


def _span(tr, name: str, **attrs):
    return tr.span(name, **attrs) if tr is not None else _NULL


@dataclass
class Check:
    label: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        # NaN compares false, so it fails
        return bool(self.error <= self.tol)


@dataclass
class Op:
    name: str
    body: Callable[[Any], Any]  # body(tracer or None) -> output
    check: Callable[[Any], list]  # check(output) -> [Check]
    # (metric, fn): the traced run measures fn's peak allocation once
    probe: tuple | None = None


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: Callable[[], None]


def run_round(ops, tr=None):
    """Run every op once, in order; return (outputs, per-op ns, round wall ns)."""
    outs, times = [], []
    start = time.perf_counter_ns()
    for op in ops:
        t = time.perf_counter_ns()
        try:
            if tr is None:
                out = op.body(None)
            else:
                with tr.op(op.name):
                    out = op.body(tr)
        except Exception as exc:  # an op that raises is counted as failed, the run goes on
            out = exc
        times.append(time.perf_counter_ns() - t)
        outs.append(out)
    return outs, times, time.perf_counter_ns() - start


def judge(ops, outs) -> tuple[int, list]:
    """(failed, messages): failed counts ops that raised or missed a check."""
    failed = 0
    messages = []
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            failed += 1
            messages.append(f"{op.name}: raised {out!r}")
            continue
        try:
            bad = [c for c in op.check(out) if not c.ok]
        except Exception as exc:  # malformed output
            bad = [Check(f"check raised {exc!r}", float("nan"), 0.0)]
        if bad:
            failed += 1
            messages.append(f"{op.name}: " + "; ".join(f"{c.label} {c.error:.3e} > {c.tol:.3e}" for c in bad))
    return failed, messages


# ---------------------------------------------------------------------------
# input generation (benchmark-owned; the package's samplers are not used)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random imaginary unit whose first imaginary coefficient is positive.

    That is the package's canonical orientation, so a slice point built from
    it keeps the beta it was given.
    """
    v = rng.standard_normal(dim - 1)
    v /= np.linalg.norm(v)
    if v[0] < 0.0:
        v = -v
    return np.concatenate([[0.0], v])


def _separated_units(rng, dim: int, count: int) -> list:
    units: list = []
    while len(units) < count:
        u = _unit(rng, dim)
        if all(np.linalg.norm(u - w) >= UNIT_SEPARATION for w in units):
            units.append(u)
    return units


def _hs_unit(tag, u: np.ndarray) -> algebra.ImaginaryUnit:
    return algebra.ImaginaryUnit(hs.element(tag, u))


def _random_terms(rng, dim: int, n: int, degree: int, count: int) -> dict:
    terms: dict = {}
    while len(terms) < count:
        mu = tuple(int(v) for v in rng.integers(0, degree + 1, size=n))
        if sum(mu) <= degree and mu not in terms:
            terms[mu] = rng.standard_normal(dim)
    return terms


def _hs_poly(tag, n: int, terms: dict) -> stem.StemPolynomial:
    return hs.stem_polynomial(tag, n, {mu: hs.element(tag, c) for mu, c in terms.items()})


def _poly_value(terms: dict, z: np.ndarray) -> np.ndarray:
    """Closed-form stem value sum_mu z^mu a_mu as complex coefficients F1 + i F2."""
    return sum(complex(np.prod(z ** np.asarray(mu))) * c for mu, c in terms.items())


def _poly_scale(terms: dict, z: np.ndarray) -> float:
    return 1.0 + sum(float(np.prod(np.abs(z) ** np.asarray(mu))) * np.linalg.norm(c) for mu, c in terms.items())


def _poly_bound(terms: dict, reach: np.ndarray) -> float:
    """sup of |F| over the polydisc |z_t| <= reach_t."""
    return sum(float(np.prod(reach ** np.asarray(mu))) * np.linalg.norm(c) for mu, c in terms.items())


# ---------------------------------------------------------------------------
# pointwise: slice calculus on single points


def _point_zero_terms(rng, dim: int, n: int):
    """F = (z_1 - p) h(z'), h = 1 + sum_k h_k z_k real: f vanishes at x_1 = p only."""
    a = rng.uniform(-0.5, 0.5)
    b = rng.uniform(0.3, 0.8)
    u = _unit(rng, dim)
    p = a * np.eye(dim)[0] + b * u
    h = rng.uniform(-0.3, 0.3, n)  # h[0] unused
    e0 = np.eye(dim)[0]
    terms: dict = {}
    for k in range(n):
        base = [0] * n
        if k == 0:
            terms[tuple([1] + [0] * (n - 1))] = e0.copy()
            terms[tuple(base)] = -p
        else:
            mu = [1] + [0] * (n - 1)
            mu[k] += 1
            terms[tuple(mu)] = h[k] * e0
            base[k] = 1
            terms[tuple(base)] = -h[k] * p

    def value(z):
        hz = 1.0 + sum(h[k] * z[k] for k in range(1, n))
        return (z[0] * e0 - p) * hz

    return terms, value, (a, b), p


def _sphere_zero_terms(rng, dim: int, n: int):
    """F = (z_1 - w)(z_1 - conj w) h(z') c: both components vanish at z_1 = w."""
    a = rng.uniform(-0.5, 0.5)
    b = rng.uniform(0.3, 0.8)
    c = rng.standard_normal(dim)
    h = rng.uniform(-0.3, 0.3, n)
    q = {2: 1.0, 1: -2.0 * a, 0: a * a + b * b}
    terms: dict = {}
    for e, qc in q.items():
        terms[tuple([e] + [0] * (n - 1))] = qc * c
        for k in range(1, n):
            mu = [e] + [0] * (n - 1)
            mu[k] = 1
            terms[tuple(mu)] = qc * h[k] * c

    def value(z):
        hz = 1.0 + sum(h[k] * z[k] for k in range(1, n))
        return (z[0] - complex(a, b)) * (z[0] - complex(a, -b)) * hz * c

    return terms, value, (a, b)


def _exp_stem(tag, n: int, cg: np.ndarray) -> stem.StemFunction:
    """G(z) = exp(z_1) c: intrinsic, analytic, not a polynomial."""
    c_el = hs.element(tag, cg)

    def ev(z):
        w = complex(np.exp(z[0]))
        return complexified.ComplexifiedElement(c_el * w.real, c_el * w.imag)

    def batch(Z):
        w = np.exp(Z[:, 0])
        return np.real(w)[:, None] * cg[None, :], np.imag(w)[:, None] * cg[None, :]

    return stem.StemFunction(
        arity=n, tag=tag, evaluator=ev, smoothness=stem.Smoothness.ANALYTIC, batch_evaluator=batch
    )


class _Query:
    """One slice-calculus query: a stem, a point, two other slices, a product factor."""

    def __init__(self, rng, tag, n: int, zero: str):
        dim = tag.dim
        self.tag, self.n, self.zero = tag, n, zero
        alpha = rng.uniform(-0.8, 0.8, n)
        beta = rng.uniform(-0.8, 0.8, n)
        while np.linalg.norm(beta) < 0.1:
            beta = rng.uniform(-0.8, 0.8, n)
        self.p = None
        if zero == "point":
            terms, value, (a, b), self.p = _point_zero_terms(rng, dim, n)
            alpha[0], beta[0] = a, b
        elif zero == "spherical":
            terms, value, (a, b) = _sphere_zero_terms(rng, dim, n)
            alpha[0], beta[0] = a, b
        else:
            terms = _random_terms(rng, dim, n, 4, 4)
            value = lambda z, _t=terms: _poly_value(_t, z)
        self.value = value
        I, J, K = _separated_units(rng, dim, 3)
        self.cg = rng.standard_normal(dim)
        self.alpha, self.beta, self.I = alpha, beta, I
        self.z = alpha + 1j * beta
        self.scale = _poly_scale(terms, self.z)
        self.g_scale = 1.0 + abs(np.exp(self.z[0])) * np.linalg.norm(self.cg)

        self.f = hs.lift(_hs_poly(tag, n, terms))
        self.g = hs.lift(_exp_stem(tag, n, self.cg), validate=False)
        self.x = hs.slice_point(alpha, beta, _hs_unit(tag, I))
        self.J, self.K = _hs_unit(tag, J), _hs_unit(tag, K)
        self.xJ = hs.slice_point(alpha, beta, self.J)
        self.xK = hs.slice_point(alpha, beta, self.K)
        self._expected = None

    def body(self, U: np.ndarray, tr=None):
        f, x = self.f, self.x
        with _span(tr, "slicefun.lift_evaluate"):
            fx = slicefun.lift_evaluate(f, x)
        if tr is not None:
            with tr.span("stem.evaluate_stem"):
                w = stem.evaluate_stem(f.stem, x.z)
            with tr.span("algebra.multiply"):
                algebra.multiply(x.j.value, w.im)
        with _span(tr, "slicefun.spherical"):
            sph = slicefun.spherical(f, x)
        with _span(tr, "slicefun.lift_evaluate"):
            fJ = slicefun.lift_evaluate(f, self.xJ)
        with _span(tr, "slicefun.lift_evaluate"):
            fK = slicefun.lift_evaluate(f, self.xK)
        with _span(tr, "slicefun.representation"):
            rep = slicefun.representation(fJ, fK, x.j, self.J, self.K)
        with _span(tr, "slicefun.classify_sphere_zeros"):
            zr = slicefun.classify_sphere_zeros(f, x)
        with _span(tr, "slicefun.sphere_values"):
            sv = slicefun.sphere_values(f, x, U)
        if tr is not None:
            with tr.span("algebra.multiply_batch", rows=U.shape[0]):
                algebra.multiply_batch(f.tag, U, w.im.coeffs[None, :])
        with _span(tr, "slicefun.slice_product"):
            hx = slicefun.lift_evaluate(slicefun.slice_product(f, self.g), x)
        if tr is not None:
            gw = stem.evaluate_stem(self.g.stem, x.z)
            with tr.span("complexified.c_multiply"):
                complexified.c_multiply(w, gw)
        return fx, sph, rep, zr, sv, hx

    def expected(self, U: np.ndarray) -> dict:
        if self._expected is None:
            F = self.value(self.z)
            G = np.exp(self.z[0]) * self.cg
            self._expected = {
                "F": F,
                "fx": ref.lift(F, self.I),
                "scan": np.real(F)[None, :] + ref.mul(U, np.imag(F)),
                "hx": ref.lift(ref.cx_mul(F, G), self.I),
            }
        return self._expected

    def check(self, U: np.ndarray, out) -> list:
        fx, sph, rep, zr, sv, hx = out
        e = self.expected(U)
        tol = POINT_RTOL * self.scale
        nbeta = float(np.linalg.norm(self.beta))
        recon = sph.value.coeffs + nbeta * ref.mul(self.I, sph.derivative.coeffs)
        scan_norms = ref.norm(e["scan"])
        return [
            Check("lift", float(ref.norm(fx.coeffs - e["fx"])), tol),
            Check("spherical_value", float(ref.norm(sph.value.coeffs - np.real(e["F"]))), tol),
            Check("reconstruction", float(ref.norm(recon - e["fx"])), tol),
            Check("representation", float(ref.norm(rep.coeffs - e["fx"])), REPRESENTATION_RTOL * self.scale),
            Check("sphere_values", float(np.max(ref.norm(sv - e["scan"]))), tol),
            Check("slice_product", float(ref.norm(hx.coeffs - e["hx"])), tol * self.g_scale),
            Check("zero_verdict", 0.0 if self._zero_ok(zr, U, scan_norms) else 1.0, 0.0),
        ]

    def _zero_ok(self, zr, U: np.ndarray, scan_norms: np.ndarray) -> bool:
        kind = zr.kind.value
        if self.zero == "spherical":
            return kind == "spherical" and float(scan_norms.max()) <= ZERO_ATOL * self.scale
        if self.zero == "none":
            return kind == "empty" and float(scan_norms.min()) > SCAN_HIT * self.scale
        if kind != "point":
            return False
        pt = zr.point
        at_claim = ref.lift(self.value(pt.alpha + 1j * pt.beta), pt.j.coeffs)
        x1 = pt.alpha[0] * np.eye(self.tag.dim)[0] + pt.beta[0] * pt.j.coeffs
        hits = scan_norms < SCAN_HIT * self.scale
        near = ref.norm(U - zr.unit.coeffs[None, :]) < 1e-2
        return (
            float(ref.norm(at_claim)) <= ZERO_ATOL * self.scale
            and float(ref.norm(x1 - self.p)) <= ZERO_ATOL * (1.0 + float(ref.norm(self.p)))
            and bool(np.all(~hits | near))
        )


# for each variable count: three generic stems, a placed point zero and a
# placed spherical zero in octonions, one of each in quaternions
POINTWISE_MIX = (
    ("octonion", "none"), ("octonion", "none"), ("octonion", "none"),
    ("octonion", "point"), ("octonion", "spherical"),
    ("quaternion", "none"), ("quaternion", "point"), ("quaternion", "spherical"),
)


def build_pointwise(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    tags = {t.name: t for t in TAGS}
    units = {}
    for t in TAGS:
        v = rng.standard_normal((SPHERE_UNITS, t.dim - 1))
        v /= np.linalg.norm(v, axis=1)[:, None]
        units[t.name] = np.concatenate([np.zeros((SPHERE_UNITS, 1)), v], axis=1)
    ops = []
    for n in (1, 2, 3):
        for tname, zero in POINTWISE_MIX:
            q = _Query(rng, tags[tname], n, zero)
            U = units[tname]
            ops.append(
                Op(
                    f"pointwise.{tname}.n{n}.{zero}",
                    lambda tr, q=q, U=U: q.body(U, tr),
                    lambda out, q=q, U=U: q.check(U, out),
                )
            )
    return Workload("pointwise", ops, lambda: ops[0].body(None))


# ---------------------------------------------------------------------------
# boundary: BM reproduction, off-slice evaluation, Hartogs extension


def _cls(n: int, M: int, R: int, V: int | None = None) -> str:
    return f"n{n}_M{M}_R{R}" + ("" if V is None else f"_V{V}")


# every point is drawn with |x_k - c_k| <= 0.45 r_k (0.3 / 0.95 for Hartogs)
BOUNDARY_RATE = 0.5


def boundary_tol(bound: float, M: int, degree: int) -> float:
    """Accuracy the boundary rule is held to at M angular and M/2 radial nodes.

    Each factor of the product rule converges geometrically.  The trapezoidal
    rule on the face circle aliases Fourier modes of order M, which decay
    like rho^M with rho = max |x_k - c_k| / r_k <= 0.45; f shifts modes by at
    most its degree.  The trapezoid and Gauss-Legendre rules over the other
    discs see the kernel's singularity at a distance that keeps their rates
    below 0.5 per angular node and 0.5^2 per radial node.  So the error is
    below bound * 0.5^(M - degree) up to a modest constant, taken as 10;
    1e-12 * bound covers rounding.
    """
    return 10.0 * bound * BOUNDARY_RATE ** (M - degree) + 1e-12 * (1.0 + bound)


class _BMCase:
    """A polydisc in the slice plane of J, a point in it, and a polynomial stem."""

    def __init__(self, rng, tag, n: int, J: np.ndarray, degree: int = 3, terms: int = 4):
        self.tag, self.n = tag, n
        self.centers = rng.uniform(-0.3, 0.3, n)
        self.radii = rng.uniform(0.8, 1.2, n)
        rho = rng.uniform(0.2, 0.45, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        self.z = self.centers + self.radii * rho * np.exp(1j * phi)
        self.J = J
        self.dom = integral.PolydiscDomain(self.centers, self.radii, _hs_unit(tag, J))
        self.x = hs.slice_point(self.z.real, self.z.imag, self.dom.j)
        self.degree = degree
        self.terms = _random_terms(rng, tag.dim, n, degree, terms)
        self.f = hs.lift(_hs_poly(tag, n, self.terms))
        self.bound = _poly_bound(self.terms, np.abs(self.centers) + self.radii)

    def f_at(self, unit: np.ndarray) -> np.ndarray:
        return ref.lift(_poly_value(self.terms, self.z), unit)

    def tol(self, M: int) -> float:
        return boundary_tol(self.bound, M, self.degree)


def _face0_nodes(case: _BMCase, M: int, R: int) -> np.ndarray:
    """Nodes of boundary face 0 of a two-variable polydisc, as the boundary rule lays them out."""
    ring = np.exp(2j * math.pi * np.arange(M) / M)
    t = 0.5 * (np.polynomial.legendre.leggauss(R)[0] + 1.0)
    z0 = case.centers[0] + case.radii[0] * ring
    z1 = (case.centers[1] + case.radii[1] * t[:, None] * ring[None, :]).ravel()
    g0, g1 = np.meshgrid(z0, z1, indexing="ij")
    return np.stack([g0.ravel(), g1.ravel()], axis=1)


def _reproduce_op(case: _BMCase, M: int, R: int) -> Op:
    spec = integral.QuadratureSpec(M, R, 1)
    cls = _cls(case.n, M, R)
    expected = case.f_at(case.J)
    tol = case.tol(M)
    face = {}

    def body(tr):
        with _span(tr, f"integral.boundary.{cls}") as s:
            rep = integral.reproduce_check(case.f, case.dom, case.x, spec)
        if tr is not None:
            s["nodes"] = rep.nodes_used
            s["abs_error"] = float(ref.norm(rep.reproduced.coeffs - expected))
            with tr.span("algebra.left_mult_matrix"):
                algebra.left_mult_matrix(case.dom.j.value)
            if case.n == 2 and (M, R) == (64, 32):
                if "Z" not in face:
                    face["Z"] = _face0_nodes(case, M, R)
                with tr.span("stem.evaluate_stem_batch", nodes=face["Z"].shape[0]):
                    stem.evaluate_stem_batch(case.f.stem, face["Z"])
        return rep

    def check(rep):
        return [Check("reproduction", float(ref.norm(rep.reproduced.coeffs - expected)), tol)]

    probe = (f"integral.node_mb.{cls}", lambda: integral.reproduce_check(case.f, case.dom, case.x, spec))
    return Op(f"boundary.reproduce.{case.tag.name}.{cls}", body, check, probe)


def _calibration_op(case: _BMCase, M: int, R: int) -> Op:
    """The boundary integral of f = 1 is 1."""
    spec = integral.QuadratureSpec(M, R, 1)
    cls = _cls(case.n, M, R)
    one = hs.lift(stem.constant_poly(case.tag, case.n, hs.one(case.tag)))
    e0 = np.eye(case.tag.dim)[0]
    tol = boundary_tol(1.0, M, 0)

    def body(tr):
        with _span(tr, f"integral.boundary.{cls}") as s:
            val = integral.bm_boundary_integral(one, case.dom, case.x, spec)
        if tr is not None:
            s["abs_error"] = float(ref.norm(val.coeffs - e0))
        return val

    def check(val):
        return [Check("calibration", float(ref.norm(val.coeffs - e0)), tol)]

    return Op(f"boundary.calibration.{case.tag.name}.{cls}", body, check)


def _off_slice_op(case: _BMCase, I: np.ndarray, M: int, R: int) -> Op:
    spec = integral.QuadratureSpec(M, R, 1)
    cls = _cls(case.n, M, R)
    q = hs.slice_point(case.z.real, case.z.imag, _hs_unit(case.tag, I))
    expected = case.f_at(I)
    # two boundary integrals combined with unit-norm factors
    tol = 2.0 * case.tol(M)

    def body(tr):
        with _span(tr, f"integral.off_slice.{cls}"):
            return integral.off_slice_evaluate(case.f, case.dom, q, spec)

    def check(val):
        return [Check("off_slice", float(ref.norm(val.coeffs - expected)), tol)]

    return Op(f"boundary.off_slice.{case.tag.name}.{cls}", body, check)


def _rational_stem(tag, c: np.ndarray) -> stem.StemFunction:
    """F(z) = (z_1 - 2)^{-1} c: holomorphic on the unit bidisc, pole at 2."""
    c_el = hs.element(tag, c)

    def ev(z):
        w = 1.0 / (complex(z[0]) - 2.0)
        return complexified.ComplexifiedElement(c_el * w.real, c_el * w.imag)

    def batch(Z):
        w = 1.0 / (Z[:, 0] - 2.0)
        return np.real(w)[:, None] * c[None, :], np.imag(w)[:, None] * c[None, :]

    return stem.StemFunction(
        arity=2, tag=tag, evaluator=ev, smoothness=stem.Smoothness.ANALYTIC, batch_evaluator=batch
    )


HOLE_FRACTION = 0.5
HARTOGS_CONTOUR = 0.95  # hartogs_extend integrates over the domain scaled by this


def _hartogs_op(rng, tag, J: np.ndarray, I: np.ndarray, M: int, R: int) -> Op:
    spec = integral.QuadratureSpec(M, R, 1)
    cls = _cls(2, M, R)
    c = rng.standard_normal(tag.dim)
    dom = integral.PolydiscDomain(np.zeros(2), np.ones(2), _hs_unit(tag, J))
    f = hs.lift(_rational_stem(tag, c), validate=False)
    ext = integral.hartogs_extend(f, dom, HOLE_FRACTION, spec)
    z = rng.uniform(0.05, 0.3, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
    q = hs.slice_point(z.real, z.imag, _hs_unit(tag, I))
    expected = ref.lift(c / (z[0] - 2.0), I)
    # the pole of f at 2 adds a rate of 0.95 / 2, still below BOUNDARY_RATE
    bound = float(np.linalg.norm(c)) / (2.0 - HARTOGS_CONTOUR)
    tol = 2.0 * boundary_tol(bound, M, 0)

    def body(tr):
        with _span(tr, f"integral.hartogs.{cls}"):
            return ext(q)

    def check(val):
        return [Check("hartogs", float(ref.norm(val.coeffs - expected)), tol)]

    return Op(f"boundary.hartogs.{tag.name}.{cls}", body, check)


def build_boundary(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops: list = []
    warm: list = []
    for tag in TAGS:
        octonion = tag == hs.OCTONION
        J, I = _separated_units(rng, tag.dim, 2)
        small = _BMCase(rng, tag, 2, J)
        warm.append(_reproduce_op(small, 16, 8))
        ops.append(warm[-1])
        ops.append(_calibration_op(small, 16, 8))
        # (32,16) is the class that reaches the 1e-8 reproduction tolerance
        # with the fewest nodes; it gets the most calls
        for _ in range(4 if octonion else 2):
            ops.append(_reproduce_op(_BMCase(rng, tag, 2, J), 32, 16))
        ops.append(_off_slice_op(_BMCase(rng, tag, 2, J), I, 32, 16))
        ops.append(_hartogs_op(rng, tag, J, I, 32, 16))
        ops.append(_reproduce_op(_BMCase(rng, tag, 2, J), 64, 32))
        if octonion:
            # one n = 3 call (786,432 nodes) keeps a round short enough for
            # many rounds per run
            ops.append(_reproduce_op(_BMCase(rng, tag, 3, J), 16, 8))
    return Workload("boundary", ops, lambda: [op.body(None) for op in warm])


# ---------------------------------------------------------------------------
# volume: the non-regular correction boundary - volume = f(x)


def volume_levels(V: int) -> int:
    """Dyadic radial panels per disc in the volume rule at refinement V."""
    return max(6, 4 * V)


def volume_tol(dbar_bound: float, V: int) -> float:
    """Accuracy the volume rule is held to at refinement V.

    The panels resolve every polar radius down to 2^-L of the ray length;
    the integrand g_j dbar f is O(|xi - x|^{1-2n}) against a Jacobian of
    order |xi - x|^{2n-1}, so the part left near x is at most
    sup|dbar f| * 2^-L over the unit-scale polydisc.
    """
    return dbar_bound * 2.0 ** (-volume_levels(V))


def _conj_stem(tag, c: np.ndarray, rows: list) -> stem.StemFunction:
    """F(z) = conj(z_1) c with its exact dbar hook; rows[0] counts hook rows on axis 0."""
    c_el = hs.element(tag, c)
    zero = hs.zero(tag)
    zc = complexified.ComplexifiedElement(zero, zero)

    def ev(z):
        return complexified.ComplexifiedElement(c_el * float(np.real(z[0])), c_el * (-float(np.imag(z[0]))))

    def batch(Z):
        return np.real(Z[:, 0])[:, None] * c[None, :], -np.imag(Z[:, 0])[:, None] * c[None, :]

    def wirt(z, t):
        return (zc, complexified.ComplexifiedElement(c_el, zero)) if t == 0 else (zc, zc)

    def batch_wirt(Z, t):
        N = Z.shape[0]
        zeros = np.zeros((N, tag.dim))
        if t == 0:
            rows[0] += N
            return (zeros, zeros), (np.broadcast_to(c, (N, tag.dim)), zeros)
        return (zeros, zeros), (zeros, zeros)

    return stem.StemFunction(
        arity=2, tag=tag, evaluator=ev, smoothness=stem.Smoothness.C1,
        wirtinger_evaluator=wirt, batch_evaluator=batch, batch_wirtinger=batch_wirt,
    )


def _fd_stem(tag, c: np.ndarray) -> stem.StemFunction:
    """F(z) = conj(z_1) z_2 c, C1 with no derivative hook: dbar comes from finite differences."""
    c_el = hs.element(tag, c)

    def ev(z):
        w = complex(np.conj(z[0]) * z[1])
        return complexified.ComplexifiedElement(c_el * w.real, c_el * w.imag)

    def batch(Z):
        w = np.conj(Z[:, 0]) * Z[:, 1]
        return np.real(w)[:, None] * c[None, :], np.imag(w)[:, None] * c[None, :]

    return stem.StemFunction(arity=2, tag=tag, evaluator=ev, smoothness=stem.Smoothness.C1, batch_evaluator=batch)


WIRTINGER_PROBE_NODES = 65536


class _VolumeCase:
    def __init__(self, rng, tag, J: np.ndarray, kind: str):
        self.tag, self.kind, self.J = tag, kind, J
        self.dom = integral.PolydiscDomain(np.zeros(2), np.ones(2), _hs_unit(tag, J))
        rho = rng.uniform(0.2, 0.45, 2)
        self.z = rho * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        self.x = hs.slice_point(self.z.real, self.z.imag, self.dom.j)
        self.c = rng.standard_normal(tag.dim)
        self.rows = [0]
        cn = float(np.linalg.norm(self.c))
        if kind == "exact":
            self.f = hs.lift(_conj_stem(tag, self.c, self.rows), validate=False)
            self.value = lambda z: np.conj(z[0]) * self.c
            self.dbar_bound = cn
        else:
            self.f = hs.lift(_fd_stem(tag, self.c), validate=False)
            self.value = lambda z: np.conj(z[0]) * z[1] * self.c
            self.dbar_bound = cn  # |dbar_1 F| = |z_2| |c| <= |c| on the unit bidisc
        self.boundary_tol = boundary_tol(cn, 32, 1)
        self._probe_nodes = None

    def probe_nodes(self) -> np.ndarray:
        if self._probe_nodes is None:
            g = np.random.default_rng(0)
            r = np.sqrt(g.uniform(0.0, 1.0, (WIRTINGER_PROBE_NODES, 2)))
            self._probe_nodes = r * np.exp(2j * math.pi * g.uniform(0.0, 1.0, (WIRTINGER_PROBE_NODES, 2)))
        return self._probe_nodes


def _volume_op(case: _VolumeCase, M: int, R: int, V: int) -> Op:
    spec = integral.QuadratureSpec(M, R, V)
    cls = _cls(2, M, R, V)
    expected = ref.lift(case.value(case.z), case.J)
    tol = volume_tol(case.dbar_bound, V) + case.boundary_tol

    def body(tr):
        with _span(tr, f"integral.volume_op_boundary.{cls}"):
            b = integral.bm_boundary_integral(case.f, case.dom, case.x, spec)
        before = case.rows[0]
        with _span(tr, f"integral.volume.{cls}") as s:
            v = integral.bm_volume_integral(case.f, case.dom, case.x, spec)
        if tr is not None:
            if case.kind == "exact":
                s["nodes"] = case.rows[0] - before
            s["abs_error"] = float(ref.norm(b.coeffs - v.coeffs - expected))
            Z = case.probe_nodes()
            with tr.span(f"stem.wirtinger_batch.{case.kind}", nodes=Z.shape[0]):
                stem.wirtinger_batch(case.f.stem, Z, 0)
        return b - v

    def check(val):
        return [Check("boundary_minus_volume", float(ref.norm(val.coeffs - expected)), tol)]

    probe = None
    if case.kind == "exact":
        probe = (
            f"integral.volume_node_mb.{cls}",
            lambda: integral.bm_volume_integral(case.f, case.dom, case.x, spec),
        )
    return Op(f"volume.{case.kind}.{case.tag.name}.{cls}", body, check, probe)


def _volume_off_slice_op(case: _VolumeCase, I: np.ndarray, M: int, R: int, V: int) -> Op:
    spec = integral.QuadratureSpec(M, R, V)
    cls = _cls(2, M, R, V)
    q = hs.slice_point(case.z.real, case.z.imag, _hs_unit(case.tag, I))
    expected = ref.lift(case.value(case.z), I)
    tol = 2.0 * (volume_tol(case.dbar_bound, V) + case.boundary_tol)

    def body(tr):
        with _span(tr, f"integral.off_slice_nonregular.{cls}"):
            return integral.off_slice_evaluate(case.f, case.dom, q, spec)

    def check(val):
        return [Check("off_slice_nonregular", float(ref.norm(val.coeffs - expected)), tol)]

    return Op(f"volume.off_slice.{case.tag.name}.{cls}", body, check)


def build_volume(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops: list = []
    warm: list = []
    for tag in TAGS:
        J, I = _separated_units(rng, tag.dim, 2)
        # V = 2 at octonion only, which keeps a round near one second
        for V in (1, 2) if tag == hs.OCTONION else (1,):
            for kind in ("exact", "fd"):
                ops.append(_volume_op(_VolumeCase(rng, tag, J, kind), 32, 16, V))
        case = _VolumeCase(rng, tag, J, "exact")
        ops.append(_volume_off_slice_op(case, I, 32, 16, 1))
        warm.append(case)

    def warm_up():
        for case in warm:
            integral.bm_volume_integral(case.f, case.dom, case.x, integral.QuadratureSpec(8, 4, 0))

    return Workload("volume", ops, warm_up)


# ---------------------------------------------------------------------------
# verify: the verification CLI on the shipped config


# the hartogs suite is left out: its hartogs_annulus record fails for some
# seeds (seed 2 with the shipped config), so its failure share would depend
# on the seed; the boundary workload measures hartogs_extend instead
VERIFY_SUITES = ("algebra", "representation", "products", "spherical", "zeros", "bm", "off-slice", "regularity")
# records that pass when the metric exceeds the tolerance (witnesses of failure)
INVERTED_RECORDS = {
    "octonion_nonassociative_witness",
    "pointwise_product_witness",
    "hartogs_n1_detects_failure",
    "hartogs_n1_raises",
}


def _verify_configs(root: str) -> list:
    """The shipped config, and a copy at algebra: quaternion written under perfbench/out."""
    shipped = os.path.join(root, "configs", "example.yaml")
    with open(shipped, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["algebra"] = "quaternion"
    base = os.path.dirname(shipped)
    data["functions"] = [os.path.join(base, p) for p in data.get("functions") or []]
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    mirror = os.path.join(out_dir, "example-quaternion.yaml")
    with open(mirror, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return [("octonion", shipped), ("quaternion", mirror)]


def _verify_check(out) -> list:
    rc, text = out
    report = json.loads(text)
    checks = [
        Check("exit_code", float(rc != 0), 0.0),
        Check("overall_pass", 0.0 if report["overall_pass"] else 1.0, 0.0),
    ]
    for rec in report["records"]:
        metric, tol = float(rec["metric"]), float(rec["tolerance"])
        inside = metric > tol if rec["name"].rsplit("/", 1)[-1] in INVERTED_RECORDS else metric <= tol
        checks.append(Check(rec["name"], 0.0 if (inside and rec["pass"]) else 1.0, 0.0))
    return checks


def _verify_op(suite: str, algebra_name: str, path: str, seed: int) -> Op:
    span_name = "suites.algebra" if suite == "algebra" else f"suites.{suite}.{algebra_name}"

    def body(tr):
        # the calls cli.main makes for these arguments, one span per layer call
        with _span(tr, "cli.load_config"):
            cfg = suites.load_config(path, {"suite": suite, "seed": seed})
        with _span(tr, span_name) as s:
            report = suites.run_suite(cfg)
        with _span(tr, "cli.emit_report"):
            text = suites.emit_report(report, "json")
        if s is not None:
            s["records"] = len(report.records)
        return (0 if report.overall_pass else 1), text

    return Op(f"verify.{suite}.{algebra_name}", body, _verify_check)


def build_verify(seed: int, root: str) -> Workload:
    ops = []
    for algebra_name, path in _verify_configs(root):
        for suite in VERIFY_SUITES:
            if suite == "algebra" and algebra_name == "quaternion":
                continue  # the algebra suite covers both algebras already
            ops.append(_verify_op(suite, algebra_name, path, seed))

    def warm_up():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["table", "--algebra", "octonion"])

    return Workload("verify", ops, warm_up)


def build(name: str, seed: int, root: str) -> Workload:
    if name == "pointwise":
        return build_pointwise(seed)
    if name == "boundary":
        return build_boundary(seed)
    if name == "volume":
        return build_volume(seed)
    if name == "verify":
        return build_verify(seed, root)
    raise ValueError(f"unknown workload {name!r}")
