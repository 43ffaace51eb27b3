"""Named verification suites and their config plumbing.

Each suite bundles the checks for one verified property family (algebra
identities, representation formulas, products, spherical operators, zero
classification, boundary quadrature, off-slice evaluation, Hartogs extension,
slice regularity).  Suites are deterministic under a fixed seed, and `all`
runs every suite once for the configured algebra and mirrors the non-algebra
suites in the other algebra.

A suite body maps each record name to a check yielding the errors it
measured, and `_run_checks` runs the checks in that order (they share the
suite's rng).  A record's metric is its check's largest error, NaN if any error
is NaN, so a NaN fails the record, witnesses included.  A record's tolerance is
its `FIXED_TOLERANCES` entry, else the override or `DEFAULT_TOLERANCES` entry
of its name less any `octonion_`/`quaternion_` prefix.  Records in `WITNESSES`
pass above their tolerance, all others at or below it.

Config defaults live in `ExperimentConfig` and `QuadratureSpec` only; every
integer field must be a YAML integer, and a malformed value, a negative seed or
a quadrature grid over NODE_BUDGET in the configured suite raises ValueError.

Report serialization is byte stable: keys are sorted, floats are rendered with
%.15e, and wall-clock times are excluded from JSON.  Report equality compares
the JSON, so it ignores them too.
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from . import algebra as alg
from . import integral as quad
from . import slicefun as sf
from . import stem as st
from .algebra import OCTONION, QUATERNION, AlgebraTag, parse_algebra
from .stem import StemPolynomial

__all__ = [
    "SUITE_NAMES",
    "CheckRecord",
    "SuiteReport",
    "ExperimentConfig",
    "load_config",
    "run_suite",
    "emit_report",
    "random_polynomial",
    "random_nonreal_point",
    "separated_units",
]

SUITE_NAMES = (
    "algebra",
    "representation",
    "products",
    "spherical",
    "zeros",
    "bm",
    "off-slice",
    "hartogs",
    "regularity",
    "all",
)

DEFAULT_TOLERANCES = {
    "alternativity": 1e-10,
    "artin_words": 1e-10,
    "norm_composition": 1e-10,
    "inverse_law": 1e-10,
    "representation_direct": 1e-12,
    "formula_agreement": 1e-13,
    "star_vs_slice": 1e-12,
    "leibniz": 1e-10,
    "real_factor_pointwise": 1e-12,
    "value_constant_on_sphere": 1e-10,
    "derivative_constant_on_sphere": 1e-10,
    "d_s_of_v_s_zero": 1e-10,
    "reconstruction_identity": 1e-10,
    "zero_scan_agreement": 0.0,
    "zero_fixed_cases": 0.0,
    "calibration_constant": 1e-10,
    "poly_reproduction": 1e-8,
    "monotone_angular": 1.0,
    "volume_vanishes_regular": 2e-3,
    "volume_correction": 5e-3,
    "offslice_match": 1e-8,
    "offslice_nonregular": 5e-3,
    "hartogs_inside_hole": 1e-6,
    "hartogs_annulus": 1e-6,
    "hartogs_n1_detects_failure": 0.1,
    "polynomials_regular": 1e-8,
    "antiholomorphic_residual": 1e-6,
    "osgood_restrictions": 1e-8,
}
# tolerances no config can override
FIXED_TOLERANCES = {
    "octonion_nonassociative_witness": 1.0,
    "quaternion_basis_associativity": 0.0,
    "pointwise_product_witness": 1e-3,
    "hartogs_n1_raises": 0.5,
}
# records that pass when the metric exceeds the tolerance (witnesses of failure)
WITNESSES = frozenset(
    {"octonion_nonassociative_witness", "pointwise_product_witness", "hartogs_n1_detects_failure", "hartogs_n1_raises"}
)


@dataclass(frozen=True, eq=False)
class CheckRecord:
    name: str
    passed: bool
    metric: float
    tolerance: float
    wall_ms: float = 0.0
    m: int | None = None
    r: int | None = None
    v: int | None = None
    abs_error: float | None = None


@dataclass(frozen=True, eq=False)
class SuiteReport:
    suite: str
    records: list

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuiteReport):
            return NotImplemented
        return report_to_json(self) == report_to_json(other)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    suite: str = "all"
    algebra: AlgebraTag = OCTONION
    n: int = 2
    seed: int = 0
    samples: int = 1000
    tolerances: dict = field(default_factory=dict)
    quadrature: quad.QuadratureSpec = field(default_factory=quad.QuadratureSpec)
    functions: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; expected one of {SUITE_NAMES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for name, tol in self.tolerances.items():
            if not (np.isfinite(tol) and tol > 0.0):
                raise ValueError(f"tolerance override {name!r} must be positive and finite, got {tol!r}")
        # every grid the configured suite integrates, before any suite runs: all on two discs (or one, a smaller
        # grid), monotone_angular also runs M = 32 (its largest grid) and volume_vanishes_regular V = 1, and
        # offslice_nonregular the volume rule
        spec = self.quadrature
        counts = [quad._boundary_count(2, spec)] if self.suite in ("bm", "off-slice", "hartogs", "all") else []
        if self.suite in ("bm", "off-slice", "all"):
            counts.append(quad._volume_count(2, spec))
        if self.suite in ("bm", "all"):
            counts += [quad._boundary_count(2, replace(spec, angular_nodes=32)),
                       quad._volume_count(2, replace(spec, volume_refinement=1))]
        for count in counts:
            quad._check_budget(count)

    def tol(self, name: str) -> float:
        """A record's fixed tolerance, else the override or default for its name less the algebra prefix."""
        if name in FIXED_TOLERANCES:
            return FIXED_TOLERANCES[name]
        key = name.removeprefix("octonion_").removeprefix("quaternion_")
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


def _check_fields(mapping: dict, known, what: str) -> None:
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown {what} {key!r}")


def _integer(name: str, value) -> int:
    """A config integer: floats, booleans, strings and null are errors, never truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _tolerance(name: str, value) -> float:
    # YAML reads 1e-9 (no dot) as a string, so numeric strings are accepted
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"tolerance {name!r} must be a number, got {value!r}")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a YAML config; overrides (suite/seed/...) win over file values."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"config root must be a mapping, got {type(data).__name__}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    _check_fields(data, {f.name for f in fields(ExperimentConfig)}, "config field")
    q = data.pop("quadrature", {})
    if not isinstance(q, dict):
        raise ValueError("quadrature must be a mapping")
    _check_fields(q, {f.name for f in fields(quad.QuadratureSpec)}, "quadrature field")
    tolerances = data.pop("tolerances", None) or {}
    if not isinstance(tolerances, dict):
        raise ValueError("tolerances must be a mapping")
    _check_fields(tolerances, DEFAULT_TOLERANCES, "tolerance")
    entries = data.pop("functions", None) or []
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise ValueError(f"functions must be a list of file paths, got {entries!r}")
    # what is left are the scalar fields: suite, algebra and the integers
    parse = {"suite": str, "algebra": lambda v: parse_algebra(str(v))}
    scalars = {k: parse[k](v) if k in parse else _integer(k, v) for k, v in data.items()}
    base = os.path.dirname(os.path.abspath(path))
    return ExperimentConfig(
        **scalars,
        tolerances={str(k): _tolerance(k, v) for k, v in tolerances.items()},
        quadrature=quad.QuadratureSpec(**{k: _integer(f"quadrature.{k}", v) for k, v in q.items()}),
        # join keeps an absolute entry as it is
        functions=[p for e in entries for p in st.load_polynomials(os.path.join(base, e))],
    )


# ---------------------------------------------------------------------------
# samplers


def random_polynomial(
    tag: AlgebraTag, arity: int, degree: int, rng: np.random.Generator, terms: int = 4
) -> StemPolynomial:
    out = {}
    for _ in range(terms):
        mu = tuple(int(v) for v in rng.integers(0, degree + 1, size=arity))
        while sum(mu) > degree:
            mu = tuple(int(v) for v in rng.integers(0, degree + 1, size=arity))
        out[mu] = alg.random_element(tag, rng)
    return st.stem_polynomial(tag, arity, out)


def random_nonreal_point(tag: AlgebraTag, arity: int, rng: np.random.Generator) -> sf.SlicePoint:
    """alpha + beta J with alpha, beta uniform in [-0.8, 0.8]^n, |beta| >= 0.1, and a uniform unit J."""
    alpha = rng.uniform(-0.8, 0.8, arity)
    beta = rng.uniform(-0.8, 0.8, arity)
    while np.linalg.norm(beta) < 0.1:
        beta = rng.uniform(-0.8, 0.8, arity)
    return sf.slice_point(alpha, beta, alg.sample_unit_imaginary(tag, rng))


def separated_units(
    tag: AlgebraTag, rng: np.random.Generator, count: int, min_sep: float = 0.2
) -> list[alg.ImaginaryUnit]:
    """Random units pairwise at least min_sep apart, so unit differences invert stably."""
    units: list[alg.ImaginaryUnit] = []
    while len(units) < count:
        cand = alg.sample_unit_imaginary(tag, rng)
        if all((cand.value - u.value).norm() >= min_sep for u in units):
            units.append(cand)
    return units


def _real_polynomial(tag: AlgebraTag, arity: int, rng: np.random.Generator, bound: float) -> StemPolynomial:
    """Three terms of degree < 3 per variable with real coefficients in [-bound, bound]."""
    terms = {}
    for _ in range(3):
        mu = tuple(int(v) for v in rng.integers(0, 3, size=arity))
        terms[mu] = alg.scalar(tag, float(rng.uniform(-bound, bound)))
    return st.stem_polynomial(tag, arity, terms)


def _run_checks(cfg: ExperimentConfig, checks: dict, **columns) -> list:
    """Time each check in mapping order and judge its metric against the record's tolerance.

    A check is a callable yielding the errors it measured, or a (callable,
    columns) pair whose M/R/V columns replace the suite's.  The metric is the
    largest error; np.max propagates NaN, which fails any record because
    `nan > tol` and `nan <= tol` are both false, and a check yielding nothing
    raises.  Each check is drained before the next starts.
    """
    records = []
    for name, check in checks.items():
        fn, cols = check if isinstance(check, tuple) else (check, columns)
        t0 = time.perf_counter()
        metric = float(np.max(np.fromiter(fn(), dtype=float)))
        wall = (time.perf_counter() - t0) * 1e3
        tol = cfg.tol(name)
        ok = metric > tol if name in WITNESSES else metric <= tol
        records.append(CheckRecord(name, bool(ok), metric, tol, wall, **cols))
    return records


def _basis_associators(tag: AlgebraTag) -> np.ndarray:
    """Associator norms of all basis triples; a nonzero one certifies non-associativity."""
    basis = np.array([alg.basis(tag, k).coeffs for k in range(tag.dim)])
    a, b, c = basis[np.indices((tag.dim,) * 3).reshape(3, -1)]
    m = functools.partial(alg.multiply_batch, tag)
    return _row_norms(m(m(a, b), c) - m(a, m(b, c)))


def _row_norms(*arrays: np.ndarray) -> np.ndarray:
    """Norms of the (..., dim) rows of each array, concatenated."""
    return np.concatenate([np.linalg.norm(x, axis=-1).ravel() for x in arrays])


# ---------------------------------------------------------------------------
# suite bodies (each returns a list of CheckRecords)


def _algebra_suite(cfg: ExperimentConfig) -> list:
    records: list[CheckRecord] = []
    for tag in (OCTONION, QUATERNION):
        rng = np.random.default_rng(cfg.seed + 1)
        # drawn in pair order a_0, b_0, a_1, b_1, ...; a and b are (samples, dim) rows
        draws = [alg.random_element(tag, rng).coeffs for _ in range(2 * cfg.samples)]
        a, b = np.reshape(draws, (cfg.samples, 2, tag.dim)).transpose(1, 0, 2)
        m = functools.partial(alg.multiply_batch, tag)

        def alternativity():
            ab = m(a, b)
            return _row_norms(m(a, ab) - m(m(a, a), b), m(ab, b) - m(a, m(b, b)))

        def artin():
            # any two generators span an associative subalgebra: compare
            # reassociations of the word a b a b
            ab, ba = m(a, b), m(b, a)
            w4 = m(ab, ab)
            return _row_norms(*(w - w4 for w in (m(m(ab, a), b), m(m(a, ba), b), m(a, m(b, ab)), m(a, m(ba, b)))))

        def norm_comp():
            lhs = np.sum(m(a, b) ** 2, axis=1)
            rhs = np.sum(a * a, axis=1) * np.sum(b * b, axis=1)
            return np.abs(lhs - rhs) / np.maximum(1.0, rhs)

        def inverse_law():
            # a^{-1} = conj(a) / |a|^2
            ia = a / np.sum(a * a, axis=1, keepdims=True)
            ia[:, 1:] *= -1.0
            e0 = alg.one(tag).coeffs
            return _row_norms(m(a, ia) - e0, m(ia, a) - e0)

        checks = {"alternativity": alternativity, "artin_words": artin, "norm_composition": norm_comp,
                  "inverse_law": inverse_law}
        records += _run_checks(cfg, {f"{tag.name}_{key}": check for key, check in checks.items()})
    return records + _run_checks(cfg, {"octonion_nonassociative_witness": lambda: _basis_associators(OCTONION),
                                       "quaternion_basis_associativity": lambda: _basis_associators(QUATERNION)})


def _representation_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 2)
    per_n = max(1, cfg.samples // 3)

    # one batch per polynomial: its cases' points z (G, n) and units I, J, K (G, dim), in draw order
    batches = []
    for n in (1, 2, 3):
        polys = [random_polynomial(tag, n, 4, rng, terms=5)]
        polys += [p for p in cfg.functions if p.arity == n and p.tag == tag]
        picks, units, zs = [], [], []
        for _ in range(per_n):
            picks.append(int(rng.integers(0, len(polys))))
            units.append([u.coeffs for u in separated_units(tag, rng, 3)])
            zs.append(rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n))  # alpha, then beta
        picks, units, zs = np.array(picks), np.array(units), np.array(zs)
        for k, p in enumerate(polys):
            sel = picks == k
            batches.append((sf.lift(p), zs[sel], *units[sel].transpose(1, 0, 2)))
    # rows on the J and -J slices and the symmetric formula, kept for the formula comparison
    mirrored_rows = []

    def direct():
        for f, Z, I, J, K in batches:
            fJ, fK, fmJ, fI = (sf.lift_evaluate_batch(f, Z, u) for u in (J, K, -J, I))
            symmetric = sf.representation_symmetric_batch(tag, fJ, fmJ, I, J)
            mirrored_rows.append((fJ, fmJ, I, J, symmetric))
            yield from _row_norms(sf.representation_batch(tag, fJ, fK, I, J, K) - fI, symmetric - fI)

    def agreement():
        for fJ, fmJ, I, J, symmetric in mirrored_rows:
            yield from _row_norms(sf.representation_batch(tag, fJ, fmJ, I, J, -J) - symmetric)

    return _run_checks(cfg, {"representation_direct": direct, "formula_agreement": agreement})


def _products_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 3)
    n = cfg.n

    p = random_polynomial(tag, n, 3, rng, terms=4)
    q = random_polynomial(tag, n, 3, rng, terms=4)
    f, g = sf.lift(p), sf.lift(q)

    def star_vs_slice():
        # the coefficient convolution against the slice product, which multiplies stem values in A (x) C
        star = sf.lift(st.poly_product(p, q))
        prod = sf.slice_product(f, g)
        for _ in range(100):
            x = random_nonreal_point(tag, n, rng)
            yield (star(x) - prod(x)).norm()

    def leibniz():
        prod = sf.slice_product(f, g)
        for _ in range(50):
            x = random_nonreal_point(tag, n, rng)
            vf, df = sf.spherical(f, x)
            vg, dg = sf.spherical(g, x)
            lhs = sf.spherical_derivative(prod, x)
            rhs = alg.multiply(df, vg) + alg.multiply(vf, dg)
            yield (lhs - rhs).norm()

    def real_factor():
        rf = sf.lift(_real_polynomial(tag, n, rng, 2.0))
        prod = sf.slice_product(rf, g)
        for _ in range(50):
            x = random_nonreal_point(tag, n, rng)
            yield (prod(x) - alg.multiply(rf(x), g(x))).norm()

    def witness():
        # constant e_1 times z_1 e_2 does not multiply pointwise off the e_3 slice
        fw = sf.lift(st.constant_poly(tag, n, alg.basis(tag, 1)))
        gw = sf.lift(st.monomial(tag, n, (1,) + (0,) * (n - 1), alg.basis(tag, 2)))
        prod = sf.slice_product(fw, gw)
        x = sf.slice_point(
            np.full(n, 0.3), np.full(n, 0.7), alg.unit_from_vector(tag, np.eye(tag.dim - 1)[2])
        )
        yield (prod(x) - alg.multiply(fw(x), gw(x))).norm()

    return _run_checks(cfg, {"star_vs_slice": star_vs_slice, "leibniz": leibniz, "real_factor_pointwise": real_factor,
                             "pointwise_product_witness": witness})


def _spherical_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 4)
    n = cfg.n
    f = sf.lift(random_polynomial(tag, n, 4, rng, terms=5))

    def _definitional(x: sf.SlicePoint, unit: alg.ImaginaryUnit):
        # even/odd combination of f at alpha + beta I and alpha - beta I, with
        # the sampled unit kept aligned to the base point's beta vector
        y = sf.slice_point(x.alpha, x.beta, unit)
        yb = sf.slice_point(x.alpha, -x.beta, unit)
        fy, fyb = f(y), f(yb)
        value = (fy + fyb) * 0.5
        nbeta = float(np.linalg.norm(x.beta))
        deriv = alg.multiply(unit.value * (-0.5 / nbeta), fy - fyb)
        return value, deriv

    def constant_on_sphere(part: int, operator):
        # part 0 is the spherical value, part 1 the spherical derivative
        for _ in range(50):
            x = random_nonreal_point(tag, n, rng)
            a = _definitional(x, alg.sample_unit_imaginary(tag, rng))[part]
            b = _definitional(x, alg.sample_unit_imaginary(tag, rng))[part]
            yield (a - b).norm()
            yield (a - operator(f, x)).norm()

    def ds_of_vs():
        # definitional spherical derivative -J/(2|beta|) (v(x) - v(conj x)) of v = spherical_value(f, .)
        for _ in range(25):
            x = random_nonreal_point(tag, n, rng)
            odd = sf.spherical_value(f, x) - sf.spherical_value(f, x.conjugated())
            yield alg.multiply(x.j.value * (-0.5 / float(np.linalg.norm(x.beta))), odd).norm()

    def reconstruction():
        for _ in range(50):
            x = random_nonreal_point(tag, n, rng)
            value, deriv = sf.spherical(f, x)
            recon = value + alg.multiply(sf.imaginary_element(x), deriv)
            yield (recon - f(x)).norm()

    return _run_checks(cfg, {"value_constant_on_sphere": lambda: constant_on_sphere(0, sf.spherical_value),
                             "derivative_constant_on_sphere": lambda: constant_on_sphere(1, sf.spherical_derivative),
                             "d_s_of_v_s_zero": ds_of_vs, "reconstruction_identity": reconstruction})


def _scan_consistent(f: sf.SliceFunction, x: sf.SlicePoint, result, units: np.ndarray) -> bool:
    """Compare a classification against a brute-force sphere scan (zero iff |f| < 1e-7)."""
    vals = sf.sphere_values(f, x, units)
    norms = np.linalg.norm(vals, axis=1)
    hits = norms < 1e-7
    if result.kind == sf.ZeroKind.SPHERICAL:
        return bool(hits.all())
    if result.kind == sf.ZeroKind.EMPTY:
        return not bool(hits.any())
    if result.kind == sf.ZeroKind.POINT:
        at_claim = sf.lift_evaluate(f, result.point).norm()
        if at_claim >= 1e-7:
            return False
        # any scan hit must sit next to the claimed unit
        close = np.linalg.norm(units - result.unit.coeffs[None, :], axis=1) < 1e-2
        return bool(np.all(~hits | close))
    if result.kind == sf.ZeroKind.REAL_ZERO:
        return sf.lift_evaluate(f, x).norm() < 1e-7
    return False


def _zeros_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 5)
    e0 = alg.one(tag)
    e1 = alg.basis(tag, 1)

    def fixed_cases():
        mismatches = 0
        J = alg.sample_unit_imaginary(tag, rng)
        # z^2 + 1 vanishes on the whole unit sphere at alpha=0, beta=1
        f1 = sf.lift(st.stem_polynomial(tag, 1, {(2,): e0, (0,): e0}))
        r1 = sf.classify_sphere_zeros(f1, sf.slice_point([0.0], [1.0], J))
        mismatches += r1.kind != sf.ZeroKind.SPHERICAL
        # z - 2 e_1 vanishes at the single point 2 e_1 of the sphere |x| = 2
        f2 = sf.lift(st.stem_polynomial(tag, 1, {(1,): e0, (0,): -2.0 * e1}))
        r2 = sf.classify_sphere_zeros(f2, sf.slice_point([0.0], [2.0], J))
        mismatches += r2.kind != sf.ZeroKind.POINT
        if r2.kind == sf.ZeroKind.POINT:
            # the zero sits at 2 e_1 whichever way the sphere was parameterized
            mismatches += (r2.point.components()[0] - 2.0 * e1).norm() > 1e-12
        # nonzero constants never vanish
        f3 = sf.lift(st.constant_poly(tag, 1, 3.0 * e0 + e1))
        r3 = sf.classify_sphere_zeros(f3, sf.slice_point([0.2], [0.7], J))
        mismatches += r3.kind != sf.ZeroKind.EMPTY
        # z vanishes at the real point 0
        f4 = sf.lift(st.coordinate(tag, 1, 0))
        r4 = sf.classify_sphere_zeros(f4, sf.slice_point([0.0], [0.0], J))
        mismatches += r4.kind != sf.ZeroKind.REAL_ZERO
        yield float(mismatches)

    def scan_agreement():
        units = alg.sample_unit_imaginaries(tag, 10_000, np.random.default_rng(cfg.seed + 50))
        disagreements = 0
        for _ in range(50):
            f = sf.lift(random_polynomial(tag, 1, 3, rng, terms=3))
            alpha = rng.uniform(-1.0, 1.0, 1)
            beta = np.array([rng.uniform(0.1, 1.5)])
            x = sf.slice_point(alpha, beta, alg.sample_unit_imaginary(tag, rng))
            res = sf.classify_sphere_zeros(f, x)
            if not _scan_consistent(f, x, res, units):
                disagreements += 1
        yield float(disagreements)

    return _run_checks(cfg, {"zero_fixed_cases": fixed_cases, "zero_scan_agreement": scan_agreement})


def _bm_domain(cfg: ExperimentConfig, tag: AlgebraTag) -> tuple:
    rng = np.random.default_rng(cfg.seed + 6)
    J = alg.sample_unit_imaginary(tag, rng)
    dom = quad.PolydiscDomain(np.zeros(2), np.ones(2), J)
    x = sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j]), dom.j)
    return rng, dom, x


def _bm_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng, dom, x = _bm_domain(cfg, tag)
    spec = cfg.quadrature
    M, R, V = spec.angular_nodes, spec.radial_nodes, spec.volume_refinement

    f_fixed = sf.lift(
        st.stem_polynomial(tag, 2, {(1, 2): alg.one(tag), (1, 0): alg.basis(tag, 3)})
    )
    f_rand = sf.lift(random_polynomial(tag, 2, 3, rng, terms=4))
    polys = [f_fixed, f_rand] + [sf.lift(p) for p in cfg.functions if p.arity == 2 and p.tag == tag]

    def calibration():
        f1 = sf.lift(st.constant_poly(tag, 2, alg.one(tag)))
        val = quad.bm_boundary_integral(f1, dom, x, spec)
        yield (val - alg.one(tag)).norm()

    def reproduction():
        for f in polys:
            yield quad.reproduce_check(f, dom, x, spec).abs_error

    def monotone():
        # M = 64 already reaches rounding level, where a ratio measures the summation order, not convergence
        errs = []
        for m in (8, 16, 32):
            rep = quad.reproduce_check(f_fixed, dom, x, quad.QuadratureSpec(m, R, V))
            errs.append(rep.abs_error)
        # metric < 1 certifies strict decrease at every doubling
        yield errs[1] / errs[0]
        yield errs[2] / errs[1]

    def volume_regular():
        # the polynomial without its exact hooks: dbar comes from finite
        # differences, so the rule integrates a nonzero (rounding-level) field
        f = sf.SliceFunction(st.StemFunction(arity=2, tag=tag, batch_evaluator=f_fixed.stem.batch_evaluator))
        vt = quad.bm_volume_integral(f, dom, x, quad.QuadratureSpec(M, R, 1))
        yield vt.norm()

    def volume_correction():
        c = alg.random_element(tag, np.random.default_rng(cfg.seed + 60))
        yield quad.correction_check(sf.lift(_conj_z1_stem(tag, 2, c)), dom, x, spec).abs_error

    checks = {"calibration_constant": calibration, "poly_reproduction": reproduction, "monotone_angular": monotone,
              "volume_vanishes_regular": (volume_regular, dict(m=M, r=R, v=1)),
              "volume_correction": volume_correction}
    return [replace(rec, abs_error=rec.metric) for rec in _run_checks(cfg, checks, m=M, r=R, v=V)]


def _times(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component pair (Re(w) c, Im(w) c) of the stem values w c, for complex w (N,) and c (dim,)."""
    return np.real(w)[:, None] * c[None, :], np.imag(w)[:, None] * c[None, :]


def _conj_z1_stem(tag: AlgebraTag, arity: int, c: alg.AlgebraElement) -> st.StemFunction:
    """F(z) = conj(z_1) c: the standard non-regular C1 test stem with exact dbar."""

    def _batch_wirt(Z, t):
        zeros = np.zeros((Z.shape[0], tag.dim))
        dzbar = np.tile(c.coeffs, (Z.shape[0], 1)) if t == 0 else zeros
        return (zeros, zeros), (dzbar, zeros)

    return st.StemFunction(
        arity=arity,
        tag=tag,
        smoothness=st.Smoothness.C1,
        batch_evaluator=lambda Z: _times(np.conj(Z[:, 0]), c.coeffs),
        batch_wirtinger=_batch_wirt,
        domain=st.Domain.polydisc(np.full(arity, 1.2)),
    )


def _offslice_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng, dom, x = _bm_domain(cfg, tag)
    spec = cfg.quadrature
    f = sf.lift(random_polynomial(tag, 2, 3, rng, terms=4))
    units = [alg.sample_unit_imaginary(tag, rng) for _ in range(64)]
    U = np.array([I.coeffs for I in units])
    # each unit's canonical point, at conj(x) with -I whenever the canonical sign flips I
    points = [sf.slice_point(x.alpha, x.beta, I) for I in units]
    Z, canonical = np.array([q.z for q in points]), np.array([q.j.coeffs for q in points])

    def errors(g):
        # one stem value at x fixes g on the sphere: lift_value at every unit as drawn, in one product
        w = quad.bm_stem_value(g, dom, x.z, spec)
        return _row_norms(w.re.coeffs + alg.multiply_batch(tag, U, w.im.coeffs[None]) - sf.lift_evaluate_batch(g, Z, canonical))

    # conj(z_1) c is not slice regular, so its stem value at x needs the volume term
    c = alg.random_element(tag, np.random.default_rng(cfg.seed + 70))
    checks = {"offslice_match": lambda: errors(f),
              "offslice_nonregular": lambda: errors(sf.lift(_conj_z1_stem(tag, 2, c)))}
    return _run_checks(cfg, checks, m=spec.angular_nodes, r=spec.radial_nodes)


def _rational_stem(tag: AlgebraTag, c: alg.AlgebraElement) -> st.StemFunction:
    """F(z) = (z_1 - 2)^{-1} c: holomorphic on the unit bidisc, pole at real 2."""

    def _batch_wirt(Z, t):
        zeros = np.zeros((Z.shape[0], tag.dim))
        dz = _times(-1.0 / (Z[:, 0] - 2.0) ** 2, c.coeffs) if t == 0 else (zeros, zeros)
        return dz, (zeros, zeros)

    return st.StemFunction(
        arity=2,
        tag=tag,
        smoothness=st.Smoothness.ANALYTIC,
        batch_evaluator=lambda Z: _times(1.0 / (Z[:, 0] - 2.0), c.coeffs),
        batch_wirtinger=_batch_wirt,
        domain=st.Domain.polydisc(np.ones(2)),
    )


def _inverse_z_stem(tag: AlgebraTag) -> st.StemFunction:
    """F(z) = z^{-1} e_0 on an annulus around the puncture at 0."""
    return st.StemFunction(
        arity=1,
        tag=tag,
        smoothness=st.Smoothness.ANALYTIC,
        batch_evaluator=lambda Z: _times(1.0 / Z[:, 0], alg.one(tag).coeffs),
        domain=st.Domain.annulus(0.3, 1.0),
    )


def _hartogs_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 8)
    J = alg.sample_unit_imaginary(tag, rng)
    dom = quad.PolydiscDomain(np.zeros(2), np.ones(2), J)
    spec = cfg.quadrature
    c = alg.random_element(tag, rng)
    f = sf.lift(_rational_stem(tag, c))
    ext = quad.hartogs_extend(f, dom, 0.5, spec)

    def extension_error(sample_alpha, beta_bound: float):
        for _ in range(4):
            alpha = sample_alpha()
            beta = rng.uniform(-beta_bound, beta_bound, 2)
            q_point = sf.slice_point(alpha, beta, alg.sample_unit_imaginary(tag, rng))
            yield (ext(q_point) - sf.lift_evaluate(f, q_point)).norm()

    def annulus_alpha() -> np.ndarray:
        return np.array([rng.uniform(0.55, 0.75) * (1 if rng.uniform() < 0.5 else -1), rng.uniform(-0.4, 0.4)])

    def n1_detects_failure():
        f1 = sf.lift(_inverse_z_stem(tag))
        contour = quad.PolydiscDomain(np.zeros(1), np.array([0.95]), J)
        x = sf.slice_point([0.0], [0.7], J)
        g = quad.bm_boundary_integral(f1, contour, x, spec)
        yield (g - sf.lift_evaluate(f1, x)).norm()

    def n1_raises():
        try:
            quad.hartogs_extend(
                sf.lift(_inverse_z_stem(tag)), quad.PolydiscDomain(np.zeros(1), np.ones(1), J), 0.5, spec
            )
        except quad.HartogsRequiresSeveralVariablesError:
            yield 1.0
        else:
            yield 0.0

    checks = {"hartogs_inside_hole": lambda: extension_error(lambda: rng.uniform(-0.3, 0.3, 2), 0.3),
              "hartogs_annulus": lambda: extension_error(annulus_alpha, 0.4),
              "hartogs_n1_detects_failure": n1_detects_failure,
              # raises before any quadrature, so it has no M/R columns
              "hartogs_n1_raises": (n1_raises, {})}
    return _run_checks(cfg, checks, m=spec.angular_nodes, r=spec.radial_nodes)


def _regularity_suite(cfg: ExperimentConfig, tag: AlgebraTag) -> list:
    rng = np.random.default_rng(cfg.seed + 9)
    n = max(2, cfg.n)

    def polys_regular():
        for _ in range(3):
            f = sf.lift(random_polynomial(tag, n, 4, rng, terms=4))
            rep = sf.check_slice_regular(f, rng=rng)
            yield rep.max_residual
            yield rep.stem_residual

    def antiholomorphic():
        a = alg.random_element(tag, rng)
        f = sf.SliceFunction(stem=_conj_z1_stem(tag, n, a))
        rep = sf.check_slice_regular(f, rng=rng)
        # the per-slice residual of conj(z_1) a is exactly 2|a|
        yield abs(rep.max_residual - 2.0 * a.norm())

    def osgood():
        # hypothesis side (restrictions) and conclusion side (joint) both bounded
        f = sf.lift(random_polynomial(tag, n, 3, rng, terms=4))
        for axis in range(n):
            for _ in range(3):
                anchors = rng.uniform(-0.9, 0.9, n).astype(complex)
                r = sf.restrict_slice(f, axis, anchors)
                rep = sf.check_slice_regular(r, rng=rng)
                yield rep.max_residual
                yield rep.stem_residual
        joint = sf.check_slice_regular(f, rng=rng)
        yield joint.max_residual
        yield joint.stem_residual

    return _run_checks(cfg, {"polynomials_regular": polys_regular, "antiholomorphic_residual": antiholomorphic,
                             "osgood_restrictions": osgood})


# ---------------------------------------------------------------------------
# dispatch


_MIRRORABLE = {
    "representation": _representation_suite,
    "products": _products_suite,
    "spherical": _spherical_suite,
    "zeros": _zeros_suite,
    "bm": _bm_suite,
    "off-slice": _offslice_suite,
    "hartogs": _hartogs_suite,
    "regularity": _regularity_suite,
}


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Execute the configured suite; `all` adds the other-algebra mirror of suites 2-9."""
    if cfg.suite == "algebra":
        return SuiteReport("algebra", _algebra_suite(cfg))
    if cfg.suite in _MIRRORABLE:
        return SuiteReport(cfg.suite, _MIRRORABLE[cfg.suite](cfg, cfg.algebra))
    records = [replace(rec, name=f"algebra/{rec.name}") for rec in _algebra_suite(cfg)]
    mirror = QUATERNION if cfg.algebra != QUATERNION else OCTONION
    for tag, label in ((cfg.algebra, ""), (mirror, f"[{mirror.name}]")):
        for name, fn in _MIRRORABLE.items():
            records += [replace(rec, name=f"{name}{label}/{rec.name}") for rec in fn(cfg, tag)]
    return SuiteReport("all", records)


# ---------------------------------------------------------------------------
# emission


def _record_dict(rec: CheckRecord) -> dict:
    return {
        "name": rec.name,
        "pass": bool(rec.passed),
        "metric": "%.15e" % rec.metric,
        "tolerance": "%.15e" % rec.tolerance,
        "M": rec.m,
        "R": rec.r,
        "V": rec.v,
        "abs_error": None if rec.abs_error is None else "%.15e" % rec.abs_error,
    }


def report_to_json(r: SuiteReport) -> str:
    data = {
        "suite": r.suite,
        "overall_pass": r.overall_pass,
        "records": [_record_dict(rec) for rec in r.records],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def report_to_csv(r: SuiteReport) -> str:
    out = io.StringIO()
    out.write("name,pass,metric,tolerance,M,R,V,abs_error,wall_ms\n")
    for rec in r.records:
        row = _record_dict(rec)
        row["pass"] = int(row["pass"])
        out.write(",".join(["" if v is None else str(v) for v in row.values()] + ["%.3f" % rec.wall_ms]) + "\n")
    return out.getvalue()


def report_to_text(r: SuiteReport) -> str:
    width = max([len(rec.name) for rec in r.records] + [10])
    lines = [f"suite: {r.suite}"]
    for rec in r.records:
        status = "PASS" if rec.passed else "FAIL"
        lines.append(
            f"  {rec.name:<{width}}  {status}  metric={rec.metric:.3e}  tol={rec.tolerance:.3e}  ({rec.wall_ms:.1f} ms)"
        )
    lines.append(f"overall: {'PASS' if r.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def emit_report(r: SuiteReport, fmt: str = "text", path=None) -> str:
    if fmt == "json":
        text = report_to_json(r)
    elif fmt == "csv":
        text = report_to_csv(r)
    elif fmt == "text":
        text = report_to_text(r)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
