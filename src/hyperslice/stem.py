"""Stem functions: maps from a conjugation-symmetric set D in C^n into A (x) C.

A stem function F is *intrinsic* when F(conj z) = complex_conjugate(F(z)); only
intrinsic stems induce well-defined slice functions.  The even-odd splitting
F = F1 + i F2 gives the two algebra-valued components used everywhere else.

Every stem speaks one protocol, read through attributes: `batch_evaluator`
(Z (N, n) -> (F1, F2) arrays (N, dim)) or a scalar `evaluator`, optional exact
derivative hooks `batch_wirtinger` / `wirtinger_evaluator`, plus `smoothness`,
`domain` and `intrinsic`.  Two containers implement it:

  * StemPolynomial: monomials z^mu with algebra coefficients on the right,
    held as an exponent array and a coefficient array.  They are intrinsic,
    have exact Wirtinger derivatives and evaluate as one matrix product;
    products and restrictions treat them like any other stem.
  * StemFunction: user-supplied hooks, a smoothness grade, and a sampling domain.

The batch hook wins when both evaluators are given, and a scalar evaluation
is row 0 of a batch of one.  Without an exact hook, Wirtinger derivatives come
from central differences with step DEFAULT_FD_STEP, one stencil pair at a time,
each point a copy of Z with one column moved; dbar_batch forms dF/dzbar alone.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraMismatchError,
    AlgebraTag,
    element,
    multiply_batch,
    parse_algebra,
)
from .complexified import ComplexifiedElement, c_multiply_batch

__all__ = [
    "DEFAULT_FD_STEP",
    "Smoothness",
    "Domain",
    "StemFunction",
    "StemPolynomial",
    "stem_polynomial",
    "monomial",
    "coordinate",
    "constant_poly",
    "poly_product",
    "evaluate_stem",
    "evaluate_stem_batch",
    "check_intrinsic",
    "IntrinsicReport",
    "wirtinger",
    "WirtingerPair",
    "wirtinger_batch",
    "dbar_batch",
    "central_differences",
    "is_holomorphic",
    "HolomorphyReport",
    "stem_product",
    "restrict_stem",
    "stem_polynomial_to_json",
    "stem_polynomial_from_json",
    "load_polynomials",
]

DEFAULT_FD_STEP = 1e-5


class Smoothness(enum.IntEnum):
    CONTINUOUS = 0
    C1 = 1
    ANALYTIC = 2


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Domain:
    """A conjugation-symmetric sampling region: membership predicate plus a polydisc box.

    The box drives sampling; the predicate rejects (e.g. annulus holes).  Both
    must be invariant under z -> conj(z) for stems to make sense on it.
    """

    centers: np.ndarray
    radii: np.ndarray
    predicate: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.centers, dtype=np.float64)
        r = np.asarray(self.radii, dtype=np.float64)
        if c.shape != r.shape or c.ndim != 1:
            raise ValueError("centers and radii must be 1-d arrays of equal length")
        if not np.isfinite(c).all():
            raise ValueError("centers must be finite")
        if not (np.isfinite(r) & (r > 0.0)).all():
            raise ValueError("radii must be positive and finite")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @property
    def arity(self) -> int:
        return self.centers.shape[0]

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=np.complex128)
        if np.any(np.abs(z - self.centers) > self.radii):
            return False
        if self.predicate is not None and not self.predicate(z):
            return False
        return True

    def sample_symmetric(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Points z with both z and conj(z) inside the domain, shape (count, n)."""
        out = np.empty((count, self.arity), dtype=np.complex128)
        got = 0
        while got < count:
            re = rng.uniform(-1.0, 1.0, self.arity) * self.radii + self.centers
            im = rng.uniform(-1.0, 1.0, self.arity) * self.radii
            z = re + 1j * im
            if self.contains(z) and self.contains(np.conj(z)):
                out[got] = z
                got += 1
        return out

    @classmethod
    def polydisc(cls, radii, centers=None) -> "Domain":
        r = np.asarray(radii, dtype=np.float64)
        c = np.zeros_like(r) if centers is None else np.asarray(centers, dtype=np.float64)
        return cls(c, r)

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "Domain":
        # one-variable ring; conjugation symmetric by construction
        if not 0.0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        return cls(
            np.zeros(1),
            np.array([outer]),
            predicate=lambda z: bool(np.abs(z[0]) >= inner),
        )


def _default_domain(arity: int) -> Domain:
    return Domain.polydisc(np.full(arity, 1.2))


# ---------------------------------------------------------------------------
# stem containers


@dataclass(frozen=True, eq=False)
class StemFunction:
    """A stem function given by hooks; at least one of the two evaluators is required.

    Hooks:
      evaluator(z) -> ComplexifiedElement for z of shape (n,)
      batch_evaluator(Z) -> (F1, F2) arrays of shape (N, dim) for Z of shape (N, n)
      wirtinger_evaluator(z, t) -> (dF/dz_t, dF/dzbar_t) as ComplexifiedElements
      batch_wirtinger(Z, t) -> ((dz_F1, dz_F2), (dzbar_F1, dzbar_F2)) arrays
    """

    arity: int
    tag: AlgebraTag
    evaluator: Callable[[np.ndarray], ComplexifiedElement] | None = None
    smoothness: Smoothness = Smoothness.C1
    wirtinger_evaluator: Callable | None = None
    batch_evaluator: Callable | None = None
    batch_wirtinger: Callable | None = None
    domain: Domain | None = None
    intrinsic: bool = True

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.evaluator is None and self.batch_evaluator is None:
            raise ValueError("a stem needs an evaluator or a batch_evaluator")

    def __call__(self, z) -> ComplexifiedElement:
        return evaluate_stem(self, z)


@dataclass(frozen=True, eq=False)
class StemPolynomial:
    """sum_mu z^mu a_mu with multi-indices mu and algebra coefficients a_mu on the right.

    Such stems are intrinsic for free: z^mu conjugates to conj(z^mu) and the
    coefficients are untouched by complex conjugation on A (x) C.  Row k of
    the exponent matrix (T, n) and of the coefficient matrix (T, dim) is one
    term.  Built through stem_polynomial or the arithmetic below, the
    exponent rows are distinct and ascending and no coefficient row is zero.
    """

    tag: AlgebraTag
    arity: int
    exponents: np.ndarray
    coefficients: np.ndarray
    # dF/dz_t per axis t, built by wirtinger_poly on first use
    _derivatives: dict = field(init=False, repr=False, default_factory=dict)

    evaluator = None
    wirtinger_evaluator = None
    smoothness = Smoothness.ANALYTIC
    intrinsic = True

    @property
    def degree(self) -> int:
        return int(self.exponents.sum(axis=1).max(initial=0))

    # the polynomial is immutable, so what derives from it alone is built once
    @cached_property
    def domain(self) -> Domain:
        return _default_domain(self.arity)

    @cached_property
    def _axis_exponents(self) -> list[tuple[int, np.ndarray]]:
        """Per axis: the top exponent and the contiguous exponent column."""
        return [(int(e.max(initial=0)), np.ascontiguousarray(e)) for e in self.exponents.T]

    def power_columns(self, t: int, z: np.ndarray) -> np.ndarray:
        """z ** exponents[:, t] as a (T, N) table: powers of z by repeated multiplication, gathered per term."""
        top, e = self._axis_exponents[t]
        P = np.empty((top + 1, z.shape[0]), dtype=np.complex128)
        P[0] = 1.0
        for m in range(1, top + 1):
            np.multiply(P[m - 1], z, out=P[m])
        return P[e]

    def contract(self, WT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F1, F2) arrays of shape (N, dim) from the monomial table WT (T, N): its parts times the coefficients."""
        return WT.real.T @ self.coefficients, WT.imag.T @ self.coefficients

    def batch_evaluator(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F1, F2) arrays of shape (N, dim): the axes' power columns multiplied in axis order, then contracted."""
        Z = np.asarray(Z, dtype=np.complex128)
        WT = self.power_columns(0, Z[:, 0])
        for t in range(1, self.arity):
            np.multiply(WT, self.power_columns(t, Z[:, t]), out=WT)
        return self.contract(WT)

    def batch_wirtinger(self, Z: np.ndarray, t: int):
        """Exact derivatives: dF/dz_t from wirtinger_poly, dF/dzbar_t identically zero."""
        d = self.wirtinger_poly(t).batch_evaluator(Z)
        return d, (np.zeros_like(d[0]), np.zeros_like(d[1]))

    def wirtinger_poly(self, t: int) -> "StemPolynomial":
        """Exact dF/dz_t as a polynomial, built once per axis; dF/dzbar_t is identically zero."""
        if not 0 <= t < self.arity:
            raise ValueError(f"axis {t} out of range for arity {self.arity}")
        if t not in self._derivatives:
            k = self.exponents[:, t] > 0
            E = self.exponents[k]
            lowered = E - np.eye(self.arity, dtype=np.intp)[t]
            self._derivatives[t] = _merged(self.tag, self.arity, lowered, self.coefficients[k] * E[:, t : t + 1])
        return self._derivatives[t]

    def __add__(self, other: "StemPolynomial") -> "StemPolynomial":
        _same_space(self, other)
        E = np.vstack([self.exponents, other.exponents])
        return _merged(self.tag, self.arity, E, np.vstack([self.coefficients, other.coefficients]))

    def __neg__(self) -> "StemPolynomial":
        return _merged(self.tag, self.arity, self.exponents, -self.coefficients)

    def __sub__(self, other: "StemPolynomial") -> "StemPolynomial":
        return self + (-other)


def _same_space(p: StemPolynomial, q: StemPolynomial) -> None:
    if p.tag != q.tag or p.arity != q.arity:
        raise AlgebraMismatchError("polynomial stems with different tag or arity")


def _merged(tag: AlgebraTag, arity: int, exponents: np.ndarray, coefficients: np.ndarray) -> StemPolynomial:
    """The polynomial of these term rows: rows sharing an exponent are summed in row order, zero sums dropped."""
    rows = exponents.tolist()
    order = sorted(range(len(rows)), key=rows.__getitem__)  # stable, so equal rows keep their order
    starts = [j for j in range(len(order)) if j == 0 or rows[order[j]] != rows[order[j - 1]]]
    cs = coefficients[order]
    if len(starts) < len(order):
        cs = np.add.reduceat(cs, starts, axis=0)
    keep = cs.any(axis=1)
    return StemPolynomial(tag, arity, exponents[[order[j] for j in starts]][keep], cs[keep])


def stem_polynomial(tag: AlgebraTag, arity: int, terms: dict) -> StemPolynomial:
    """The polynomial of a term map {mu: coefficient}, each coefficient an AlgebraElement or a vector."""
    try:
        # operator.index refuses 1.7 or "2", which int() would truncate or parse
        mus = [tuple(operator.index(m) for m in mu) for mu in terms]
    except TypeError as exc:
        raise ValueError(f"multi-index entries must be integers: {exc}") from None
    for mu in mus:
        if len(mu) != arity or min(mu, default=0) < 0:
            raise ValueError(f"bad multi-index {mu} for arity {arity}")
    coeffs = [c if isinstance(c, AlgebraElement) else element(tag, c) for c in terms.values()]
    if any(c.tag != tag for c in coeffs):
        raise AlgebraMismatchError("coefficient from a different algebra")
    E = np.array(mus, dtype=np.intp).reshape(-1, arity)
    return _merged(tag, arity, E, np.array([c.coeffs for c in coeffs]).reshape(-1, tag.dim))


def monomial(tag: AlgebraTag, arity: int, mu, coeff) -> StemPolynomial:
    return stem_polynomial(tag, arity, {tuple(mu): coeff})


def coordinate(tag: AlgebraTag, arity: int, t: int) -> StemPolynomial:
    mu = [0] * arity
    mu[t] = 1
    c = np.zeros(tag.dim)
    c[0] = 1.0
    return monomial(tag, arity, mu, c)


def constant_poly(tag: AlgebraTag, arity: int, coeff) -> StemPolynomial:
    return monomial(tag, arity, (0,) * arity, coeff)


def poly_product(p: StemPolynomial, q: StemPolynomial) -> StemPolynomial:
    """Coefficient convolution: the gamma coefficient is sum over mu+nu=gamma of a_mu b_nu.

    This is the pointwise product in A (x) C, since z^mu is central there.
    Factor order a_mu * b_nu is preserved; the base algebra is noncommutative.
    """
    _same_space(p, q)
    mus = p.exponents[:, None, :] + q.exponents[None, :, :]
    coeffs = multiply_batch(p.tag, p.coefficients[:, None, :], q.coefficients[None, :, :])
    return _merged(p.tag, p.arity, mus.reshape(-1, p.arity), coeffs.reshape(-1, p.tag.dim))


# ---------------------------------------------------------------------------
# evaluation and component extraction


def _row0(tag: AlgebraTag, pair) -> ComplexifiedElement:
    """Row 0 of a component pair (F1, F2) as one element of A (x) C."""
    return ComplexifiedElement(AlgebraElement(tag, pair[0][0]), AlgebraElement(tag, pair[1][0]))


def evaluate_stem(F, z) -> ComplexifiedElement:
    """F(z) for one point z of shape (n,): row 0 of a batch of one."""
    return _row0(F.tag, evaluate_stem_batch(F, np.asarray(z, dtype=np.complex128).reshape(1, F.arity)))


def evaluate_stem_batch(F, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at all rows of Z, returning (F1, F2) component arrays of shape (N, dim)."""
    Z = np.asarray(Z, dtype=np.complex128)
    if F.batch_evaluator is not None:
        F1, F2 = F.batch_evaluator(Z)
        return np.asarray(F1, dtype=np.float64), np.asarray(F2, dtype=np.float64)
    dim = F.tag.dim
    F1 = np.empty((Z.shape[0], dim))
    F2 = np.empty((Z.shape[0], dim))
    for k in range(Z.shape[0]):
        w = F.evaluator(Z[k])
        F1[k] = w.re.coeffs
        F2[k] = w.im.coeffs
    return F1, F2


class IntrinsicReport(NamedTuple):
    max_violation: float
    passed: bool
    samples_checked: int


def _stem_samples(F, rng: np.random.Generator, count: int) -> np.ndarray:
    return (F.domain or _default_domain(F.arity)).sample_symmetric(rng, count)


def _nonempty(samples, arity: int) -> np.ndarray:
    """Sample points as a complex (S, arity) array; no samples is no evidence, so it raises."""
    Z = np.asarray(samples, dtype=np.complex128).reshape(-1, arity)
    if Z.shape[0] == 0:
        raise ValueError("a check needs at least one sample point")
    return Z


def _row_norms(F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """|F1 + i F2| per row, the norm of A (x) C."""
    return np.hypot(np.linalg.norm(F1, axis=1), np.linalg.norm(F2, axis=1))


def check_intrinsic(F, samples=None, tol: float = 1e-10, rng=None) -> IntrinsicReport:
    """Max of |F(conj z) - complex_conjugate(F(z))| over the sample set."""
    if samples is None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0)
        samples = _stem_samples(F, gen, 32)
    Z = _nonempty(samples, F.arity)
    lhs1, lhs2 = evaluate_stem_batch(F, np.conj(Z))
    rhs1, rhs2 = evaluate_stem_batch(F, Z)
    worst = float(np.max(_row_norms(lhs1 - rhs1, lhs2 + rhs2)))
    return IntrinsicReport(worst, worst <= tol, Z.shape[0])


# ---------------------------------------------------------------------------
# derivatives


class WirtingerPair(NamedTuple):
    dz: ComplexifiedElement
    dzbar: ComplexifiedElement


def _stencil_input(F, Z, t: int, h: float) -> np.ndarray:
    """Z as a complex array, after refusing an axis outside [0, arity) or a step that is not positive and finite."""
    if not (0 <= t < F.arity and np.isfinite(h) and h > 0.0):
        raise ValueError(f"need an axis in [0, {F.arity}) and a positive finite step, got axis {t} and step {h}")
    return np.asarray(Z, dtype=np.complex128)


def _difference(F, Z: np.ndarray, t: int, step: complex, s: float):
    """(F(Z + step e_t) - F(Z - step e_t)) * s per component, each point a C-ordered copy of Z with column t moved."""
    Zp, Zm = np.array(Z, order="C"), np.array(Z, order="C")
    Zp[:, t] += step
    Zm[:, t] -= step
    (p1, p2), (m1, m2) = evaluate_stem_batch(F, Zp), evaluate_stem_batch(F, Zm)
    # the differences are fresh, so scaling them in place never writes a stem's own arrays
    return tuple(np.multiply(d, s, out=d) for d in (p1 - m1, p2 - m2))


def central_differences(F, Z: np.ndarray, t: int, h: float = DEFAULT_FD_STEP):
    """((dF1/dalpha_t, dF2/dalpha_t), (dF1/dbeta_t, dF2/dbeta_t)) at every row of Z = alpha + i beta."""
    Z = _stencil_input(F, Z, t, h)
    return _difference(F, Z, t, h, 0.5 / h), _difference(F, Z, t, 1j * h, 0.5 / h)


def _dbar(da1: np.ndarray, da2: np.ndarray, db1: np.ndarray, db2: np.ndarray):
    """dF/dzbar = (d/dalpha + i d/dbeta)/2 in place over da: the IEEE steps of 0.5 * (da1 - db2), 0.5 * (da2 + db1)."""
    da1 -= db2
    da1 *= 0.5
    da2 += db1
    da2 *= 0.5
    return da1, da2


def wirtinger(F, z, t: int, h: float = DEFAULT_FD_STEP) -> WirtingerPair:
    """(dF/dz_t, dF/dzbar_t) at one point: the scalar hook if given, else a batch of one."""
    z = _stencil_input(F, z, t, h)
    if F.wirtinger_evaluator is not None:
        return WirtingerPair(*F.wirtinger_evaluator(z, t))
    dz, dzbar = wirtinger_batch(F, z.reshape(1, F.arity), t, h)
    return WirtingerPair(_row0(F.tag, dz), _row0(F.tag, dzbar))


def wirtinger_batch(F, Z: np.ndarray, t: int, h: float = DEFAULT_FD_STEP):
    """Batched derivatives: ((dz_F1, dz_F2), (dzbar_F1, dzbar_F2)) of shape (N, dim) each."""
    Z = _stencil_input(F, Z, t, h)
    if F.batch_wirtinger is not None:
        return F.batch_wirtinger(Z, t)
    (da1, da2), (db1, db2) = central_differences(F, Z, t, h)
    # d/dz = (d/dalpha - i d/dbeta)/2, formed (left to right) before _dbar overwrites da1, da2
    return (0.5 * (da1 + db2), 0.5 * (da2 - db1)), _dbar(da1, da2, db1, db2)


def dbar_batch(F, Z: np.ndarray, t: int, h: float = DEFAULT_FD_STEP):
    """dF/dzbar_t alone as (F1, F2) arrays (N, dim): the exact hook if given, else central differences, no dz half."""
    Z = _stencil_input(F, Z, t, h)
    if F.batch_wirtinger is not None:
        return F.batch_wirtinger(Z, t)[1]
    (da1, da2), (db1, db2) = central_differences(F, Z, t, h)
    return _dbar(da1, da2, db1, db2)


class HolomorphyReport(NamedTuple):
    max_residual: float
    passed: bool
    samples_checked: int


def is_holomorphic(F, samples=None, tol: float = 1e-6, rng=None, h: float = DEFAULT_FD_STEP) -> HolomorphyReport:
    """Max |dF/dzbar_t| over all axes and samples by dbar_batch: per axis one exact hook call or four stem calls."""
    if samples is None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0)
        samples = _stem_samples(F, gen, 16)
    Z = _nonempty(samples, F.arity)
    residuals = [_row_norms(*dbar_batch(F, Z, t, h)) for t in range(F.arity)]
    # np.max propagates NaN, so a NaN residual fails the report
    worst = float(np.max(residuals))
    return HolomorphyReport(worst, worst <= tol, Z.shape[0])


# ---------------------------------------------------------------------------
# products and restrictions


def _add_pairs(a, b):
    return a[0] + b[0], a[1] + b[1]


def stem_product(F, G) -> StemFunction:
    """Pointwise product in A (x) C, with Leibniz derivatives when both factors have exact ones."""
    if F.tag != G.tag or F.arity != G.arity:
        raise AlgebraMismatchError("stems with different tag or arity")
    tag = F.tag

    def batch(Z):
        return c_multiply_batch(tag, evaluate_stem_batch(F, Z), evaluate_stem_batch(G, Z))

    leibniz = None
    if F.batch_wirtinger is not None and G.batch_wirtinger is not None:
        def leibniz(Z, t):
            # Leibniz in the commutative-scalar variable: both conjugate types
            f, g = evaluate_stem_batch(F, Z), evaluate_stem_batch(G, Z)
            df, dg = F.batch_wirtinger(Z, t), G.batch_wirtinger(Z, t)
            return tuple(
                _add_pairs(c_multiply_batch(tag, df[k], g), c_multiply_batch(tag, f, dg[k]))
                for k in (0, 1)
            )

    return StemFunction(
        arity=F.arity,
        tag=tag,
        smoothness=Smoothness(min(F.smoothness, G.smoothness)),
        batch_evaluator=batch,
        batch_wirtinger=leibniz,
        domain=F.domain or G.domain,
        intrinsic=F.intrinsic and G.intrinsic,
    )


def restrict_stem(F, axis: int, anchors) -> StemFunction:
    """Freeze every variable except `axis` at the anchor values.

    Off-axis anchors with nonzero imaginary part destroy intrinsicity (the
    anchored set is no longer conjugation symmetric); the restriction is still
    returned but flagged intrinsic=False.
    """
    arity = F.arity
    if not 0 <= axis < arity:
        raise ValueError(f"axis {axis} out of range for arity {arity}")
    a = np.asarray(anchors, dtype=np.complex128).reshape(arity)
    off_axis_real = all(abs(a[k].imag) <= 1e-12 for k in range(arity) if k != axis)

    def _inflate(Z1: np.ndarray) -> np.ndarray:
        Z = np.tile(a, (Z1.shape[0], 1))
        Z[:, axis] = np.asarray(Z1, dtype=np.complex128).reshape(-1)
        return Z

    dom = None
    if F.domain is not None:
        dom = Domain.polydisc(F.domain.radii[axis : axis + 1], F.domain.centers[axis : axis + 1])

    return StemFunction(
        arity=1,
        tag=F.tag,
        smoothness=F.smoothness,
        batch_evaluator=lambda Z1: evaluate_stem_batch(F, _inflate(Z1)),
        batch_wirtinger=lambda Z1, _t: wirtinger_batch(F, _inflate(Z1), axis),
        domain=dom,
        intrinsic=F.intrinsic and off_axis_real,
    )


# ---------------------------------------------------------------------------
# serialization


def stem_polynomial_to_json(p: StemPolynomial) -> dict:
    return {
        "arity": p.arity,
        "algebra": p.tag.name,
        "terms": [{"mu": mu, "coeff": coeff} for mu, coeff in zip(p.exponents.tolist(), p.coefficients.tolist())],
    }


def _numbers(value, kinds: tuple) -> bool:
    """Whether value is a JSON list of finite numbers whose types are among kinds."""
    return isinstance(value, list) and all(type(v) in kinds and np.isfinite(v) for v in value)


def stem_polynomial_from_json(data) -> StemPolynomial:
    """Parse one polynomial object; a malformed one raises ValueError."""
    terms = data.get("terms") if isinstance(data, dict) else None
    arity = data.get("arity") if isinstance(data, dict) else None
    if not (isinstance(terms, list) and isinstance(data.get("algebra"), str) and type(arity) is int and arity >= 1):
        raise ValueError(f"a polynomial needs an algebra name, a positive integer arity and a terms list, got {data!r}")
    for t in terms:
        if not (isinstance(t, dict) and _numbers(t.get("mu"), (int,)) and _numbers(t.get("coeff"), (int, float))):
            raise ValueError(f"a polynomial term needs an integer list mu and a finite number list coeff, got {t!r}")
    return stem_polynomial(parse_algebra(data["algebra"]), arity, {tuple(t["mu"]): t["coeff"] for t in terms})


def load_polynomials(path) -> list[StemPolynomial]:
    """Read one StemPolynomial or a list of them from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [stem_polynomial_from_json(d) for d in (data if isinstance(data, list) else [data])]
