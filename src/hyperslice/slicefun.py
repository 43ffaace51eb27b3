"""Slice functions induced by stem functions on the slice cone.

A point of the slice cone is an n-tuple x = alpha + beta J whose components
share one imaginary unit J.  The lift of an intrinsic stem F = F1 + i F2 is

    f(alpha + beta J) = F1(z) + J F2(z),        z = alpha + i beta,

well defined because (beta, J) and (-beta, -J) describe the same point and the
even-odd symmetry of F compensates the flip.  This module holds the point
decomposition, the lift, representation formulas, spherical value and
derivative, the slice product (for polynomial stems the star product, which
stem.poly_product computes as a coefficient convolution), regularity checks,
per-sphere zero classification, and one-variable restrictions.

The lift and the representation formulas are written once over coefficient
rows; each single-point call is row 0 of a batch of one, and every product by
a unit goes through algebra.multiply_batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraMismatchError,
    AlgebraTag,
    ImaginaryUnit,
    basis,
    canonicalize_unit,
    element,
    inverse,
    multiply,
    multiply_batch,
    sample_unit_imaginary,
    unit_from_vector,
)
from .complexified import ComplexifiedElement
from .stem import (
    StemFunction,
    StemPolynomial,
    _dbar,
    _nonempty,
    _row_norms,
    _stem_samples,
    central_differences,
    check_intrinsic,
    evaluate_stem,
    evaluate_stem_batch,
    restrict_stem,
    stem_product,
)

__all__ = [
    "NotInSliceConeError",
    "DegenerateUnitsError",
    "RealPointError",
    "NonIntrinsicRestrictionError",
    "IntrinsicityError",
    "SlicePoint",
    "slice_point",
    "point_from_z",
    "decompose_point",
    "SliceFunction",
    "lift",
    "lift_evaluate",
    "lift_evaluate_batch",
    "lift_value",
    "sphere_values",
    "representation",
    "representation_batch",
    "representation_symmetric",
    "representation_symmetric_batch",
    "SphericalData",
    "spherical",
    "spherical_value",
    "spherical_derivative",
    "imaginary_element",
    "slice_product",
    "RegularityReport",
    "check_slice_regular",
    "ZeroKind",
    "SphereZeroResult",
    "classify_sphere_zeros",
    "restrict_slice",
]


class NotInSliceConeError(ValueError):
    """Imaginary parts of the tuple are not parallel to a common unit."""


class DegenerateUnitsError(ValueError):
    """J - K is numerically non-invertible in a representation formula."""


class RealPointError(ValueError):
    """Spherical derivative requested at a real point."""


class NonIntrinsicRestrictionError(ValueError):
    """Restriction anchors break conjugation symmetry."""


class IntrinsicityError(ValueError):
    """Stem fails the intrinsicity requirement of the lift."""


PARALLEL_RTOL = 1e-10
# stem-value norms at or below this count as zero in classify_sphere_zeros
ZERO_TOL = 1e-9


def _shared_tag(*xs) -> AlgebraTag:
    tag = xs[0].tag
    if any(x.tag != tag for x in xs):
        raise AlgebraMismatchError("mixed algebras")
    return tag


# ---------------------------------------------------------------------------
# slice points


@dataclass(frozen=True, eq=False)
class SlicePoint:
    """Canonicalized point alpha + beta J of the slice cone.

    Invariants: alpha, beta real vectors of equal length; if is_real then
    beta = 0; otherwise j is sign-canonical (first coefficient above the
    noise threshold is positive).
    """

    alpha: np.ndarray
    beta: np.ndarray
    j: ImaginaryUnit
    is_real: bool
    # z = alpha + i beta, built once and read-only like alpha and beta
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=np.float64)
        b = np.asarray(self.beta, dtype=np.float64)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("alpha and beta must be 1-d arrays of equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("alpha and beta must be finite")
        a = a.copy()
        b = b.copy()
        z = a + 1j * b
        for name, arr in (("alpha", a), ("beta", b), ("z", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def arity(self) -> int:
        return self.alpha.shape[0]

    @property
    def tag(self) -> AlgebraTag:
        return self.j.tag

    def components(self) -> list[AlgebraElement]:
        jc = self.j.coeffs
        out = []
        for k in range(self.arity):
            c = jc * self.beta[k]
            c = c.copy()
            c[0] += self.alpha[k]
            out.append(element(self.tag, c))
        return out

    def conjugated(self) -> "SlicePoint":
        return SlicePoint(self.alpha, -self.beta, self.j, self.is_real)

    def __repr__(self) -> str:
        return f"<SlicePoint alpha={self.alpha} beta={self.beta} j={self.j.coeffs[1:]}>"


def slice_point(alpha, beta, j: ImaginaryUnit) -> SlicePoint:
    """Canonicalizing constructor; (beta, J) and (-beta, -J) map to the same point."""
    a = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    b = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    jc, sign = canonicalize_unit(j)
    real = bool(np.all(b == 0.0))
    return SlicePoint(a, b * sign if not real else np.zeros_like(b), jc, real)


def point_from_z(z, j: ImaginaryUnit) -> SlicePoint:
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return slice_point(z.real, z.imag, j)


def decompose_point(xs: Sequence[AlgebraElement]) -> SlicePoint:
    """Split a tuple into (alpha, beta, J) or raise NotInSliceConeError.

    The parallelism test is relative to the largest imaginary magnitude, so
    float-level noise in computed tuples still decomposes.
    """
    if not xs:
        raise ValueError("empty tuple")
    tag = _shared_tag(*xs)
    alpha = np.array([x.real for x in xs])
    V = np.stack([x.coeffs[1:] for x in xs])
    mags = np.linalg.norm(V, axis=1)
    big = float(mags.max())
    scale = max(1.0, float(np.max(np.abs(alpha))))
    if big <= 1e-12 * scale:
        return SlicePoint(alpha, np.zeros_like(alpha), ImaginaryUnit(basis(tag, 1)), True)
    k = int(np.argmax(mags))
    u = V[k] / mags[k]
    beta = V @ u
    residual = np.linalg.norm(V - beta[:, None] * u[None, :], axis=1)
    if np.any(residual > PARALLEL_RTOL * big):
        raise NotInSliceConeError(
            f"imaginary parts deviate from a common direction by {residual.max():.3e}"
        )
    return slice_point(alpha, beta, unit_from_vector(tag, u))


# ---------------------------------------------------------------------------
# the lift


@dataclass(frozen=True, eq=False)
class SliceFunction:
    """Lift of an intrinsic stem; evaluation happens through the stem components."""

    stem: "StemFunction | StemPolynomial"

    @property
    def tag(self) -> AlgebraTag:
        return self.stem.tag

    @property
    def arity(self) -> int:
        return self.stem.arity

    def __call__(self, x: SlicePoint) -> AlgebraElement:
        return lift_evaluate(self, x)


def lift(F, validate: bool = True) -> SliceFunction:
    """Wrap a stem as a slice function, verifying intrinsicity on check_intrinsic's default samples and tolerance."""
    if isinstance(F, StemPolynomial):
        # algebra-coefficient polynomials are intrinsic identically
        return SliceFunction(F)
    if not F.intrinsic:
        raise IntrinsicityError("stem is flagged non-intrinsic")
    if validate:
        report = check_intrinsic(F)
        if not report.passed:
            raise IntrinsicityError(f"stem violates intrinsicity by {report.max_violation:.3e}")
    return SliceFunction(F)


def lift_value(w: ComplexifiedElement, j: ImaginaryUnit) -> AlgebraElement:
    """F1 + J F2 for a stem value w = F1 + i F2: the value on the J-slice."""
    return w.re + multiply(j.value, w.im)


def lift_evaluate_batch(f: SliceFunction, Z: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Rows F1(z) + I F2(z), (N, dim), of f at alpha + beta I for Z = alpha + i beta (N, n) and unit rows (N, dim).

    One row of either broadcasts against the other.  No canonical sign is
    needed: F2 is odd in beta, so (beta, I) and (-beta, -I) agree.
    """
    F1, F2 = evaluate_stem_batch(f.stem, Z)
    return F1 + multiply_batch(f.tag, units, F2)


def lift_evaluate(f: SliceFunction, x: SlicePoint) -> AlgebraElement:
    """f(alpha + beta J) = F1(z) + J F2(z), row 0 of a batch of one; at real points the odd part must vanish."""
    if x.is_real:
        w = evaluate_stem(f.stem, x.z)
        if w.im.norm() > 1e-10:
            raise IntrinsicityError(f"odd component {w.im.norm():.3e} does not vanish at a real point")
        return w.re
    return AlgebraElement(f.tag, lift_evaluate_batch(f, x.z[None], x.j.coeffs[None])[0])


def sphere_values(f: SliceFunction, x: SlicePoint, units: np.ndarray) -> np.ndarray:
    """f over the sphere through x at (N, dim) unit rows: the lift batch of the one point x.z.

    One stem evaluation, then I F2 for all units is one gemm through F2's right-multiplication matrix.
    """
    return lift_evaluate_batch(f, x.z[None], units)


# ---------------------------------------------------------------------------
# representation formulas


def representation_batch(tag: AlgebraTag, fJ, fK, I, J, K) -> np.ndarray:
    """Recover rows of f(alpha + beta I) from rows on two other slices; (..., dim) rows broadcast.

    Parenthesization matters in a non-associative algebra and is kept exactly:
    (I - K)((J - K)^{-1} f_J) - (I - J)((J - K)^{-1} f_K).  Any row whose
    J - K is numerically non-invertible raises DegenerateUnitsError.
    """
    dJK = J - K
    if np.any(np.linalg.norm(dJK, axis=-1) <= 1e-8):
        raise DegenerateUnitsError("J - K is numerically non-invertible")
    # (J - K)^{-1} = conj(J - K) / |J - K|^2
    u = dJK / np.sum(dJK * dJK, axis=-1, keepdims=True)
    u[..., 1:] *= -1.0
    t1 = multiply_batch(tag, I - K, multiply_batch(tag, u, fJ))
    t2 = multiply_batch(tag, I - J, multiply_batch(tag, u, fK))
    return t1 - t2


def representation_symmetric_batch(tag: AlgebraTag, fJ, fmJ, I, J) -> np.ndarray:
    """K = -J special case on (..., dim) rows: (f_J + f_{-J})/2 - (I/2)(J (f_J - f_{-J}))."""
    return (fJ + fmJ) * 0.5 - multiply_batch(tag, I * 0.5, multiply_batch(tag, J, fJ - fmJ))


def representation(f_at_J: AlgebraElement, f_at_K: AlgebraElement, I: ImaginaryUnit, J: ImaginaryUnit,
                   K: ImaginaryUnit) -> AlgebraElement:
    """Recover f(alpha + beta I) from values on two other slices: representation_batch at one point."""
    tag = _shared_tag(f_at_J, f_at_K, I, J, K)
    return AlgebraElement(tag, representation_batch(tag, *(v.coeffs for v in (f_at_J, f_at_K, I, J, K))))


def representation_symmetric(f_at_J: AlgebraElement, f_at_mJ: AlgebraElement, I: ImaginaryUnit,
                             J: ImaginaryUnit) -> AlgebraElement:
    """K = -J special case: representation_symmetric_batch at one point."""
    tag = _shared_tag(f_at_J, f_at_mJ, I, J)
    return AlgebraElement(tag, representation_symmetric_batch(tag, *(v.coeffs for v in (f_at_J, f_at_mJ, I, J))))


# ---------------------------------------------------------------------------
# spherical value and derivative


class SphericalData(NamedTuple):
    value: AlgebraElement
    derivative: AlgebraElement


def spherical_value(f: SliceFunction, x: SlicePoint) -> AlgebraElement:
    """(f(x) + f(conj x))/2, which is the even component F1(z)."""
    return evaluate_stem(f.stem, x.z).re


def spherical_derivative(f: SliceFunction, x: SlicePoint) -> AlgebraElement:
    """Im(x)^{-1}(f(x) - f(conj x))/2 under the convention Im(x)^{-1} := -J/|beta|.

    With that scaling the derivative equals F2(z)/|beta| and the pointwise
    identity f(x) = value + Im(x) * derivative holds with Im(x) = |beta| J.
    """
    return spherical(f, x).derivative


def spherical(f: SliceFunction, x: SlicePoint) -> SphericalData:
    if x.is_real:
        raise RealPointError("spherical derivative undefined at real points")
    w = evaluate_stem(f.stem, x.z)
    nbeta = float(np.linalg.norm(x.beta))
    return SphericalData(w.re, w.im / nbeta)


def imaginary_element(x: SlicePoint) -> AlgebraElement:
    """Im(x) = |beta| J, the scalar imaginary magnitude against the point's unit."""
    return x.j.value * float(np.linalg.norm(x.beta))


# ---------------------------------------------------------------------------
# products


def slice_product(f: SliceFunction, g: SliceFunction) -> SliceFunction:
    """The lift of the stem product; pointwise f(x)g(x) only for real-stem factors.

    For polynomial stems this is the star product: the lift of poly_product.
    """
    return SliceFunction(stem_product(f.stem, g.stem))


# ---------------------------------------------------------------------------
# slice regularity


class RegularityReport(NamedTuple):
    max_residual: float
    stem_residual: float
    passed: bool


def check_slice_regular(f: SliceFunction, samples=None, tol: float = 1e-6, rng=None) -> RegularityReport:
    """Per-slice Cauchy-Riemann residual |df_J/dalpha_t + J df_J/dbeta_t| by central differences.

    The stem residual |dF/dzbar_t| comes from the same differences, so each
    axis costs four stem calls; both residuals must clear the tolerance to pass.
    """
    gen = np.random.default_rng(17 if rng is None else rng)
    units = [sample_unit_imaginary(f.tag, gen) for _ in range(2)]
    if samples is None:
        samples = _stem_samples(f.stem, gen, 8)
    samples = _nonempty(samples, f.arity)

    residuals, stem_residuals = [], []
    for t in range(f.arity):
        (da1, da2), (db1, db2) = central_differences(f.stem, samples, t)
        for J in units:
            # the J-slice's derivatives are da1 + J da2 and db1 + J db2, one gemm per product
            dbeta = db1 + multiply_batch(f.tag, J.coeffs, db2)
            res = da1 + multiply_batch(f.tag, J.coeffs, da2) + multiply_batch(f.tag, J.coeffs, dbeta)
            residuals.append(np.linalg.norm(res, axis=1))
        # _dbar overwrites da1, da2, so it runs after the slices have read them
        stem_residuals.append(_row_norms(*_dbar(da1, da2, db1, db2)))
    # np.max propagates NaN, so a NaN residual fails the report
    worst, stem_worst = float(np.max(residuals)), float(np.max(stem_residuals))
    return RegularityReport(worst, stem_worst, worst <= tol and stem_worst <= tol)


# ---------------------------------------------------------------------------
# zero classification on spheres


class ZeroKind(str, enum.Enum):
    EMPTY = "empty"
    REAL_ZERO = "real_zero"
    SPHERICAL = "spherical"
    POINT = "point"


@dataclass(frozen=True)
class SphereZeroResult:
    kind: ZeroKind
    unit: ImaginaryUnit | None
    point: SlicePoint | None
    f1_norm: float
    f2_norm: float
    re_residual: float | None = None
    unit_residual: float | None = None


def classify_sphere_zeros(f: SliceFunction, x: SlicePoint) -> SphereZeroResult:
    """Classify the zero set of f on the sphere through x.

    Mutually exclusive outcomes: no zero on the sphere, a real zero (degenerate
    sphere), the whole sphere, or exactly one point alpha + beta I.  The point
    case solves I = (-F1) F2^{-1} by right division, which two-generator
    associativity makes valid, and accepts the candidate only when it is a
    genuine imaginary unit within ZERO_TOL.
    """
    w = evaluate_stem(f.stem, x.z)
    n1, n2 = w.re.norm(), w.im.norm()
    if x.is_real:
        if n1 <= ZERO_TOL:
            return SphereZeroResult(ZeroKind.REAL_ZERO, None, x, n1, n2)
        return SphereZeroResult(ZeroKind.EMPTY, None, None, n1, n2)
    if n1 <= ZERO_TOL and n2 <= ZERO_TOL:
        return SphereZeroResult(ZeroKind.SPHERICAL, None, None, n1, n2)
    if n2 <= ZERO_TOL:
        return SphereZeroResult(ZeroKind.EMPTY, None, None, n1, n2)
    cand = multiply(-w.re, inverse(w.im))
    re_res = abs(cand.real)
    unit_res = abs(cand.norm() - 1.0)
    if re_res <= ZERO_TOL and unit_res <= ZERO_TOL:
        unit = unit_from_vector(f.tag, cand.coeffs[1:])
        pt = slice_point(x.alpha, x.beta, unit)
        return SphereZeroResult(ZeroKind.POINT, unit, pt, n1, n2, re_res, unit_res)
    return SphereZeroResult(ZeroKind.EMPTY, None, None, n1, n2, re_res, unit_res)


# ---------------------------------------------------------------------------
# restrictions


def restrict_slice(f: SliceFunction, axis: int, anchors) -> SliceFunction:
    """One-variable restriction with the other coordinates frozen at real anchors."""
    a = np.asarray(anchors, dtype=np.complex128).reshape(f.arity)
    for k in range(f.arity):
        if k != axis and abs(a[k].imag) > 1e-12:
            raise NonIntrinsicRestrictionError(
                f"anchor {k} has imaginary part {a[k].imag:.3e}; restriction would not be intrinsic"
            )
    return SliceFunction(restrict_stem(f.stem, axis, a))
