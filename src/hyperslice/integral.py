"""Bochner-Martinelli quadrature on polydiscs inside one slice plane.

The integration domain is a polydisc D with real centers (so D is conjugation
symmetric) sitting in the plane C_J^n picked out by a unit J.  The kernel is

    omega_x(xi) = c_n sum_j (-1)^{j-1} g_j(xi) dxi-bar[j] ^ dxi,
    g_j(xi) = conj(xi_j - x_j) / |xi - x|^{2n},    c_n = (n-1)!/(2 pi J)^n,

a C_J-valued form that left-multiplies boundary values of f.  On the k-th
boundary face only the j = k term survives (dxi-bar_k is parallel to dxi_k on
the circle), which reduces each face to an explicit Jacobian times a product
grid: trapezoidal nodes in every angle, Gauss-Legendre radially.  Three signs
meet on face k (0-based) and cancel: (-1)^{n(n-1)/2} from the written order of
the differentials to the standard orientation of C^n = R^{2n}, (-1)^k from the
j = k term, and the parity n-1+k+(n-1)(n-2)/2 of moving dxi_k to the front and
pairing the other conj/holo differentials.  The total parity n(n-1)+2k is
even, so the face coefficient carries no sign; the f = 1 calibration test pins
this.

The correction for non-regular f is the volume term

    VT = (n-1)!/pi^n * integral_D sum_j g_j(xi) dbar_j f(xi) dV(xi),

with the sign convention that boundary - VT = f(x) (for n = 1 this is exactly
the Cauchy-Pompeiu correction).  Its quadrature is a Duffy-pyramid rule
(Duffy, SIAM J. Numer. Anal. 1982) in per-disc polar coordinates centered at
x: each disc is swept by rays of relative length u_l in [0,1], the cube of
(u_1..u_n) is split into n pyramids with apex at u = 0, and the pyramid
Jacobian cancels the |xi - x|^{1-2n} singularity of the kernel, so
Gauss-Legendre in the pyramid coordinates and the trapezoid rule in the
angles converge fast, and no node lands on x.

Every integral is computed twice, componentwise over the complex component
functions F_J^k and directly in the algebra, and the two routes must agree to
1e-12.  Both rules take their nodes from one product-grid helper and share
one chunk-ordered reduction into the two algebra values.  Before any node
is built, a call is held to NODE_BUDGET nodes, all boundary faces together.

Nodes are streamed along the grid's tensor structure.  A grid is only its
per-factor tables (one per disc, or the volume rule's pyramid table and
per-disc angles).  Its trailing factors form an inner block of at most CHUNK
rows, tabulated once per call, and a chunk is a whole number of inner blocks
(or a slice of a last factor that alone exceeds CHUNK), built by
broadcasting a few outer rows against that table.  A StemPolynomial's
monomials are one more such product, of per-disc power tables, so its nodes
are never formed.  Each chunk is evaluated and reduced by a few matrix
products before the next one starts, so memory is O(CHUNK) whatever the grid
size.  At CHUNK = 2048 the largest per-chunk arrays are the stem values
(2048 x dim doubles, 128 KiB for octonions) and the monomial table (32 KiB
per term).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraTag,
    ImaginaryUnit,
    canonicalize_unit,
    element,
    left_mult_matrix,
    units_close,
)
from .slicefun import SliceFunction, SlicePoint, lift_evaluate, representation_symmetric, slice_point
from .stem import Smoothness, StemPolynomial, dbar_batch, evaluate_stem_batch

__all__ = [
    "SliceMismatchError",
    "PointTooCloseToBoundaryError",
    "HartogsRequiresSeveralVariablesError",
    "PolydiscDomain",
    "QuadratureSpec",
    "BMReport",
    "bm_boundary_integral",
    "bm_boundary_dual",
    "bm_volume_integral",
    "bm_volume_dual",
    "off_slice_evaluate",
    "HartogsExtension",
    "hartogs_extend",
    "reproduce_check",
    "correction_check",
    "write_convergence_csv",
]

INTERIOR_MARGIN = 0.05
ROUTE_AGREEMENT_TOL = 1e-12
CHUNK = 2048
# most nodes one call may integrate (all boundary faces together): 64x a
# (64,32) boundary call and 128x the V=3 volume rule at n=2; nodes are
# streamed, so this bounds time, not memory
NODE_BUDGET = 1 << 24


class SliceMismatchError(ValueError):
    """Evaluation point does not lie on the domain's slice plane."""


class PointTooCloseToBoundaryError(ValueError):
    """Kernel too singular: point within the safety margin of a face."""


class HartogsRequiresSeveralVariablesError(ValueError):
    """Hartogs extension has no one-variable analogue."""


@dataclass(frozen=True, eq=False)
class PolydiscDomain:
    """Product of n discs with real centers inside the slice plane C_J^n."""

    centers: np.ndarray
    radii: np.ndarray
    j: ImaginaryUnit

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.centers, dtype=np.float64)).copy()
        r = np.atleast_1d(np.asarray(self.radii, dtype=np.float64)).copy()
        if c.shape != r.shape or c.ndim != 1:
            raise ValueError("centers and radii must be 1-d arrays of equal length")
        if not np.isfinite(c).all():
            raise ValueError("centers must be finite")
        if not (np.isfinite(r) & (r > 0.0)).all():
            raise ValueError("radii must be positive and finite")
        # real centers keep the disc set conjugation invariant
        jc, _ = canonicalize_unit(self.j)
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "j", jc)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def scaled(self, fraction: float) -> "PolydiscDomain":
        if fraction <= 0.0:
            raise ValueError("scale fraction must be positive")
        return PolydiscDomain(self.centers, self.radii * fraction, self.j)

    def contains_z(self, z: np.ndarray, margin: float = 0.0) -> bool:
        z = np.asarray(z, dtype=np.complex128)
        return bool(np.all(np.abs(z - self.centers) <= (1.0 - margin) * self.radii))


@dataclass(frozen=True)
class QuadratureSpec:
    """M angular nodes per circle, R radial Gauss-Legendre nodes per disc, V volume refinement."""

    angular_nodes: int = 64
    radial_nodes: int = 32
    volume_refinement: int = 3

    def __post_init__(self) -> None:
        if self.angular_nodes < 8:
            raise ValueError("angular_nodes must be >= 8")
        if self.radial_nodes < 4:
            raise ValueError("radial_nodes must be >= 4")
        if self.volume_refinement < 0:
            raise ValueError("volume_refinement must be >= 0")


@dataclass(frozen=True, eq=False)
class BMReport:
    reproduced: AlgebraElement
    reference: AlgebraElement
    abs_error: float
    nodes_used: int


# ---------------------------------------------------------------------------
# shared plumbing


def _reduce(tag: AlgebraTag, LJ: np.ndarray, parts, scale: float = 1.0):
    """Sum the (direct, componentwise) parts in the order given; the componentwise s becomes Re(s) + J Im(s).

    So a result depends on the chunk layout (and so on CHUNK) and nothing else.
    """
    direct = np.zeros(tag.dim)
    comp = np.zeros(tag.dim, dtype=np.complex128)
    for d_part, c_part in parts:
        direct = direct + d_part
        comp = comp + c_part
    comp_el = element(tag, scale * np.real(comp)) + element(tag, LJ @ (scale * np.imag(comp)))
    return element(tag, scale * direct), comp_el


def _node_sums(c: np.ndarray, F: tuple[np.ndarray, np.ndarray], LJT: np.ndarray):
    """Sum over nodes of c (F1 + i F2), directly in the algebra and componentwise.

    The direct route lifts F to F1 + J F2 at every node and applies c as
    Re(c) + J Im(c), both by left multiplication with J (LJT is its matrix,
    transposed); every node sum is one product with [Re c; Im c] (2, N).
    """
    F1, F2 = F
    # [Re c; Im c] as a strided view of c, which BLAS reads without a copy
    C = np.ascontiguousarray(c).view(np.float64).reshape(-1, 2).T
    fvals = F2 @ LJT
    fvals += F1
    S = C @ fvals
    A, B = C @ F1, C @ F2
    return S[0] + S[1] @ LJT, (A[0] - B[1]) + 1j * (A[1] + B[0])


def _agreed(direct: AlgebraElement, comp: AlgebraElement) -> AlgebraElement:
    """The direct value, once the componentwise route agrees with it to ROUTE_AGREEMENT_TOL."""
    gap = (direct - comp).norm()
    if gap > ROUTE_AGREEMENT_TOL * max(1.0, direct.norm()):
        raise RuntimeError(f"componentwise and direct routes disagree by {gap:.3e}")
    return direct


def _check_point(dom: PolydiscDomain, x: SlicePoint) -> None:
    if x.tag != dom.j.tag:
        raise SliceMismatchError(f"point algebra {x.tag} does not match domain {dom.j.tag}")
    if not x.is_real and not units_close(x.j, dom.j, 1e-12):
        raise SliceMismatchError("point lies on a different slice than the domain")
    if x.arity != dom.n:
        raise ValueError(f"point arity {x.arity} != domain arity {dom.n}")
    if not dom.contains_z(x.z, margin=INTERIOR_MARGIN):
        raise PointTooCloseToBoundaryError(
            f"each coordinate must stay {INTERIOR_MARGIN:.2f}*radius away from its circle"
        )


@functools.lru_cache(maxsize=None)
def _gauss_legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]; cached, so the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _check_budget(count: int) -> int:
    if count > NODE_BUDGET:
        raise ValueError(f"quadrature grid of {count} nodes exceeds the budget of {NODE_BUDGET}")
    return count


def _fold(op, tables: list, idx) -> np.ndarray | None:
    """Rows idx[f] of the factors' tables, combined by op (side by side for op None); None for no factors."""
    rows = [np.take(t, i, axis=0) for t, i in zip(tables, idx)]
    return (functools.reduce(op, rows) if op else np.concatenate(rows, axis=1)) if rows else None


def _spread(op, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Values (width, k b) of k outer rows (width, k) against b inner rows (width, b), in C order."""
    k, b = outer.shape[1], inner.shape[1]
    if op is not None:
        return op(outer[:, :, None], inner[:, None, :]).reshape(len(inner), k * b)
    vals = np.empty((len(outer) + len(inner), k, b), np.result_type(outer, inner))
    vals[: len(outer)] = outer[:, :, None]
    vals[len(outer) :] = inner[:, None, :]
    return vals.reshape(len(vals), k * b)


def _product_grid(shape: tuple, groups: list):
    """Tensor-product rule streamed in chunks of at most CHUNK rows, in C order of the factor indices.

    A group (op, tables, ordered) has one table (shape[f], width) per factor
    f; a node's value is op (np.add or np.multiply) folded over the rows its
    indices pick, or for op None those rows side by side.  The inner block,
    the longest run of trailing factors whose product fits in CHUNK (or the
    last factor alone), is tabulated once; a chunk is a few outer rows
    broadcast against it, so a node's value is (outer fold) op (inner fold).
    An ordered group folds in factor order, ((row_0 op row_1) op row_2) ...,
    spreading the outer rows against the inner factors one at a time.  Yields
    per chunk one array (width, rows) per group, which no other chunk shares.
    """
    s, block = len(shape) - 1, shape[-1]
    while s > 0 and block * shape[s - 1] <= CHUNK:
        s -= 1
        block *= shape[s]
    # inner values (width, block), spread factor by factor; ordered groups keep the factors apart
    inner = [[t.T for t in tables[s:]] if ordered and s else
             [functools.reduce(lambda v, t: _spread(op, v, t.T), tables[s + 1 :], tables[s].T.copy())]
             for op, tables, ordered in groups]
    outer_count, per = math.prod(shape[:s]), max(1, CHUNK // block)
    # outer rows are gathered for whole chunks at a time, at most CHUNK of them
    span = per * max(1, CHUNK // per)
    for o in range(0, outer_count, span):
        rows = np.arange(o, min(o + span, outer_count))
        outer = [_fold(op, tables[:s], np.unravel_index(rows, shape[:s]) if s else ()) for op, tables, _ in groups]
        for r in range(0, len(rows), per):
            # a is nonzero only for a single inner factor longer than CHUNK
            for a in range(0, block, CHUNK):
                yield [inn[0][:, a : a + CHUNK] if out is None else
                       functools.reduce(lambda v, t: _spread(op, v, t[:, a : a + CHUNK]), inn, out[r : r + per].T)
                       for (op, _, _), out, inn in zip(groups, outer, inner)]


def _face_nodes(dom: PolydiscDomain, spec: QuadratureSpec, x_z: np.ndarray, k: int, stem=None):
    """Quadrature nodes, or a polynomial stem's monomials, and complete complex coefficients for boundary face k.

    Yields (Z, c) per chunk: Z complex (n, rows) and c = coeff g_k(xi), coeff
    being the kernel constant, Jacobians and product weights.  Disc l has
    tables xi_l, d_l = |xi_l - x_l|^2 and w_l, with conj(xi_k - x_k) and the
    constant folded into w_k, so c = prod_l w_l / (sum_l d_l)^n and xi - x is
    never formed.  For a StemPolynomial stem Z is its monomial table (T, rows),
    the discs' power columns multiplied in axis order, as batch_evaluator does.
    """
    n = dom.n
    M, R = spec.angular_nodes, spec.radial_nodes
    cn = math.factorial(n - 1) / (2j * math.pi) ** n

    vals: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    ring = np.exp(1j * (2.0 * math.pi * np.arange(M) / M))
    w_ang = 2.0 * math.pi / M
    t01, w01 = _gauss_legendre_01(R)
    for l in range(n):
        if l == k:
            v = dom.centers[l] + dom.radii[l] * ring
            w = (cn * w_ang) * (1j * dom.radii[l] * ring) * np.conj(v - x_z[l])
        else:
            rho = dom.radii[l] * t01
            wr = dom.radii[l] * w01
            v = (dom.centers[l] + rho[:, None] * ring[None, :]).ravel()
            # dxi-bar_l ^ dxi_l pulls back to 2i rho drho dphi
            w = (wr[:, None] * np.full(M, w_ang)[None, :]).ravel() * (2j * np.repeat(rho, M))
        vals.append(v)
        weights.append(w)
    dists = [((v - x).real ** 2 + (v - x).imag ** 2)[:, None] for v, x in zip(vals, x_z)]
    poly = isinstance(stem, StemPolynomial)
    nodes = [stem.power_columns(l, v).T if poly else v[:, None] for l, v in enumerate(vals)]
    groups = [(np.multiply if poly else None, nodes, poly), (np.multiply, [w[:, None] for w in weights], False),
              (np.add, dists, False)]
    for Z, W, D in _product_grid(tuple(len(v) for v in vals), groups):
        W *= 1.0 / D**n
        yield Z, W[0]


# ---------------------------------------------------------------------------
# boundary integral


def _bm_boundary_both(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
    _check_point(dom, x)
    n, M = dom.n, spec.angular_nodes
    count = _check_budget(n * M * (spec.radial_nodes * M) ** (n - 1))
    LJ = left_mult_matrix(dom.j.value)
    LJT = np.ascontiguousarray(LJ.T)
    values = f.stem.contract if isinstance(f.stem, StemPolynomial) else (lambda Z: evaluate_stem_batch(f.stem, Z.T))
    chunks = (chunk for k in range(n) for chunk in _face_nodes(dom, spec, x.z, k, f.stem))
    parts = (_node_sums(c, values(V), LJT) for V, c in chunks)
    return (*_reduce(f.tag, LJ, parts), count)


def bm_boundary_dual(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> tuple[AlgebraElement, AlgebraElement]:
    """Both evaluation routes (direct algebra, componentwise complex) for testing."""
    return _bm_boundary_both(f, dom, x, spec)[:2]


def bm_boundary_integral(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> AlgebraElement:
    return _agreed(*bm_boundary_dual(f, dom, x, spec))


# ---------------------------------------------------------------------------
# volume term


def _pyramid_table(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy pyramids of the unit cube [0,1]^n with Gauss-Legendre order q.

    Pyramid l is {u_l = max_m u_m}; on it u_l = tau and u_m = tau v_m for
    m != l, with tau and every v_m on [0,1].  Returns U (n q^n, n), the
    points u in pyramid-major C order of (tau, v...), and their weights
    w_tau prod w_v tau^{n-1} prod_m u_m: the pyramid Jacobian times the
    polar factors u_m of the volume element.
    """
    t, w = _gauss_legendre_01(q)
    idx = np.indices((q,) * n).reshape(n, -1)
    tau, v = t[idx[0]], t[idx[1:]]
    wt = np.prod(w[idx], axis=0) * tau ** (n - 1)
    U = np.empty((n, q**n, n))
    for l in range(n):
        U[l][:, l] = tau
        U[l][:, [m for m in range(n) if m != l]] = (tau * v).T
    U = U.reshape(n * q**n, n)
    return U, np.tile(wt, n) * np.prod(U, axis=1)


def _volume_sizes(spec: QuadratureSpec) -> tuple[int, int]:
    """(q, M_v) of the volume rule: its Gauss-Legendre order and its angles per disc (see _volume_nodes)."""
    return 2 * spec.volume_refinement + 2, max(8, spec.angular_nodes // 2)


def _volume_nodes(dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec, seed: int):
    """Duffy-pyramid rule in per-disc polar coordinates centered at x.

    Disc l is written xi_l = x_l + u_l S_l(phi_l) e^{i phi_l} with u_l in
    [0,1], where S_l(phi) (smax below) is the ray length from x_l to the
    circle in direction phi, closed form since the disc is star-shaped around
    any interior point; so dV = prod_l S_l^2 u_l du_l dphi_l.  The cube of u
    is split into the n pyramids of _pyramid_table, whose tau^{n-1} Jacobian
    together with prod_l u_l cancels the O(|xi - x|^{1-2n}) kernel exactly:
    the integrand is smooth in (tau, v) and periodic-analytic in phi.

    Gauss-Legendre of order q = 2V+2 runs in tau and in each v, and
    M_v = max(8, M//2) trapezoid angles per disc, so the rule has
    n q^n M_v^n nodes: the pyramid table is the grid's first factor, the
    angles of discs 1..n the others.  Angular offsets are jittered from
    the seed, deterministically; every u_l is positive, so no node lands on x.
    Yields (Z, C) per chunk, both (n, rows): row j of C is the weights times
    g_j(xi).
    """
    n = dom.n
    q, M = _volume_sizes(spec)
    rng = np.random.default_rng(seed)
    x_z = x.z
    U, w_pyr = _pyramid_table(n, q)

    # xi - x = U[i_0] * (S_1 e^{i phi_1}, ..., S_n e^{i phi_n})
    rays: list[np.ndarray] = [np.empty((len(U), 0))]
    weights: list[np.ndarray] = [w_pyr[:, None]]
    for l in range(n):
        e = complex(x_z[l] - dom.centers[l])
        offset = rng.uniform(0.05, 0.45)
        phi = 2.0 * math.pi * (np.arange(M) + offset) / M
        ray = np.exp(1j * phi)
        edotr = np.real(np.conj(e) * ray)
        smax = -edotr + np.sqrt(edotr**2 + dom.radii[l] ** 2 - abs(e) ** 2)
        rays.append((smax * ray)[:, None])
        weights.append((smax**2 * (2.0 * math.pi / M))[:, None])
    groups = [(None, [U] + [np.empty((M, 0))] * n, False), (None, rays, False), (np.multiply, weights, False)]
    for Ui, S, W in _product_grid((len(w_pyr),) + (M,) * n, groups):
        diff = Ui * S
        W *= 1.0 / np.sum(diff.real**2 + diff.imag**2, axis=0) ** n
        yield x_z[:, None] + diff, np.conj(diff) * W


def _bm_volume_both(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec, seed: int
):
    _check_point(dom, x)
    if f.stem.smoothness < Smoothness.C1:
        raise ValueError("volume term needs a C1 stem with Wirtinger derivatives")
    n = dom.n
    count = _check_budget(n * math.prod(_volume_sizes(spec)) ** n)
    LJ = left_mult_matrix(dom.j.value)
    LJT = np.ascontiguousarray(LJ.T)
    chunks = _volume_nodes(dom, x, spec, seed)
    parts = (_node_sums(c, dbar_batch(f.stem, Z.T, jx), LJT) for Z, C in chunks for jx, c in enumerate(C))
    return (*_reduce(f.tag, LJ, parts, math.factorial(n - 1) / math.pi**n), count)


def bm_volume_dual(
    f: SliceFunction,
    dom: PolydiscDomain,
    x: SlicePoint,
    spec: QuadratureSpec,
    seed: int = 0,
) -> tuple[AlgebraElement, AlgebraElement]:
    return _bm_volume_both(f, dom, x, spec, seed)[:2]


def bm_volume_integral(
    f: SliceFunction,
    dom: PolydiscDomain,
    x: SlicePoint,
    spec: QuadratureSpec,
    seed: int = 0,
) -> AlgebraElement:
    """The dbar correction, signed so that boundary - volume = f(x)."""
    return _agreed(*bm_volume_dual(f, dom, x, spec, seed))


# ---------------------------------------------------------------------------
# off-slice evaluation and Hartogs extension


def off_slice_evaluate(
    f: SliceFunction,
    dom: PolydiscDomain,
    q_point: SlicePoint,
    spec: QuadratureSpec,
    include_volume: bool | None = None,
) -> AlgebraElement:
    """Evaluate f at alpha + beta I from boundary data on the J-slice alone.

    The J-slice mirrors x = alpha + beta J and conj(x) are integrated and the
    two results are combined by the symmetric representation formula; the unit
    combination is applied after each integral is reduced to an algebra
    element.  For I = J the combination collapses to the plain boundary value.
    """
    if q_point.tag != dom.j.tag:
        raise SliceMismatchError("point algebra does not match domain")
    x = slice_point(q_point.alpha, q_point.beta, dom.j)
    xb = x.conjugated()
    if include_volume is None:
        include_volume = f.stem.smoothness < Smoothness.ANALYTIC
    Rx = bm_boundary_integral(f, dom, x, spec)
    Rxb = bm_boundary_integral(f, dom, xb, spec)
    if include_volume:
        Rx = Rx - bm_volume_integral(f, dom, x, spec)
        Rxb = Rxb - bm_volume_integral(f, dom, xb, spec)
    if q_point.is_real:
        return (Rx + Rxb) * 0.5
    return representation_symmetric(Rx, Rxb, q_point.j, dom.j)


@dataclass(frozen=True, eq=False)
class HartogsExtension:
    """Evaluator returned by hartogs_extend; callable on slice points inside the contour."""

    source: SliceFunction
    contour: PolydiscDomain
    spec: QuadratureSpec
    hole_fraction: float

    def __call__(self, q_point: SlicePoint) -> AlgebraElement:
        return off_slice_evaluate(
            self.source, self.contour, q_point, self.spec, include_volume=False
        )


def hartogs_extend(
    f: SliceFunction,
    dom: PolydiscDomain,
    hole_radius_fraction: float,
    spec: QuadratureSpec,
) -> HartogsExtension:
    """Extension across a concentric polydisc hole via the scaled-boundary integral.

    Needs n >= 2: the one-variable Cauchy integral over the outer circle does
    not reproduce functions with singularities inside the hole.
    """
    if dom.n < 2:
        raise HartogsRequiresSeveralVariablesError("extension requires at least two variables")
    if not 0.0 < hole_radius_fraction < 0.8:
        raise ValueError("hole_radius_fraction must lie in (0, 0.8)")
    return HartogsExtension(f, dom.scaled(0.95), spec, hole_radius_fraction)


# ---------------------------------------------------------------------------
# reports


def reproduce_check(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> BMReport:
    """Boundary integral against the direct lift, packaged with its node count."""
    direct, comp, nodes = _bm_boundary_both(f, dom, x, spec)
    reproduced, reference = _agreed(direct, comp), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)


def correction_check(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec, seed: int = 0
) -> BMReport:
    """Boundary integral minus the volume term against the direct lift.

    nodes_used counts the volume rule's nodes.
    """
    boundary = bm_boundary_integral(f, dom, x, spec)
    direct, comp, nodes = _bm_volume_both(f, dom, x, spec, seed)
    reproduced, reference = boundary - _agreed(direct, comp), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)


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
