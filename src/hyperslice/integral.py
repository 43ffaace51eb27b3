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

One pass sums every integral directly in the algebra and componentwise over
the F_J^k, a stem value F1 + i F2 that must agree with the direct route to
1e-12 once lifted to F1 + J F2; off-slice evaluation lifts it to F1 + I F2.
Both routes are linear in the stem's values, so a chunk contributes only its
four real moments [Re c; Im c] @ [B1 | B2], a (2, 2 width) array, where
F1 = B1 A and F2 = B2 A for a (width, dim) matrix A: a generic stem's values
and the volume rule's dbar F are B = F with A the identity, a StemPolynomial's
are the real and imaginary parts of its monomials w^mu with A its
coefficients.  Both rules sum the moments in chunk order and finish them once
per call, contracting A once; a call is held to NODE_BUDGET nodes (all faces).

Nodes are streamed along the grid's tensor structure.  A grid is only its
per-factor tables (one per disc, or the volume rule's pyramid table and
per-disc angles); each node value is np.add or np.multiply folded left over
its factors' columns in factor order: coordinates as a sum of one-hot rows,
the volume rule's xi - x as a product of pyramid points and ray rows.  A
chunk is a few outer nodes, folded once per chunk, and the last factor's
table or a slice of its columns; a rule spreads the two into node values
where it needs them.  A StemPolynomial's face needs no node values: its
monomial sums factor over the discs (sum factorisation; Orszag, J. Comput.
Phys. 37, 1980), so a chunk spreads only the kernel factor (sum_l d_l)^-n and
is reduced by one gemm against the last disc's weighted power table.  Each
chunk is reduced before the next one starts, so memory is O(CHUNK_DOUBLES)
whatever the grid size: no per-node array of a chunk holds more than
CHUNK_DOUBLES doubles (128 KiB), and each rule takes as many rows as its
widest per-node array allows.  Stem-valued chunks (generic faces and the
volume rule) hold F1 and F2 at up to 8 doubles a row, so they take 2048 rows
in either algebra.  A polynomial chunk holds its kernel factor, formed in
place from the distances at 1 double a node, and its outer nodes' fold at 4T
doubles an outer node for T terms, so it takes 16384 nodes, or fewer outer
nodes once 4T exceeds the last factor's columns.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    ImaginaryUnit,
    canonicalize_unit,
    element,
    left_mult_matrix,
    units_close,
)
from .complexified import ComplexifiedElement
from .slicefun import SliceFunction, SlicePoint, lift_evaluate, lift_value, slice_point
from .stem import Smoothness, StemPolynomial, _box, dbar_batch, evaluate_stem_batch

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
    "off_slice_evaluate",
    "HartogsExtension",
    "hartogs_extend",
    "reproduce_check",
    "correction_check",
]

INTERIOR_MARGIN = 0.05
ROUTE_AGREEMENT_TOL = 1e-12
# doubles one per-node array of a chunk may hold (128 KiB); a rule divides it
# by the doubles its widest per-node array holds per row
CHUNK_DOUBLES = 1 << 14
# a stem-valued chunk's widest arrays are F1 and F2, (rows, dim): 8 doubles a
# row for octonions (its nodes take 2n, no more up to n = 4); quaternion
# chunks keep the same rows: twice as many did not make the volume rule faster
STEM_ROW_DOUBLES = 8
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
        c, r = _box(self.centers, self.radii)
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
        for name, low in (("angular_nodes", 8), ("radial_nodes", 4), ("volume_refinement", 0)):
            value = getattr(self, name)
            try:
                # operator.index refuses 8.5, nan and inf, which numpy would reject only mid-call
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class BMReport:
    reproduced: AlgebraElement
    reference: AlgebraElement
    abs_error: float
    nodes_used: int


# ---------------------------------------------------------------------------
# shared plumbing


def _reduce(j: ImaginaryUnit, parts, A: np.ndarray | None = None, scale: float = 1.0):
    """Sum the chunks' moments in order, then finish: direct, s lifted to Re(s) + J Im(s), s as Re(s) + i Im(s).

    A (width, dim) defaults to the identity.  So a result depends on the chunk
    layout (and so on CHUNK_DOUBLES) and nothing else.
    """
    A = np.eye(j.tag.dim) if A is None else A
    moments = np.zeros((2, 2 * A.shape[0]))
    for part in parts:
        moments += part
    direct, comp = _finish(moments, A, np.ascontiguousarray(left_mult_matrix(j.value).T))
    w = ComplexifiedElement(element(j.tag, scale * np.real(comp)), element(j.tag, scale * np.imag(comp)))
    return element(j.tag, scale * direct), lift_value(w, j), w


def _finish(moments: np.ndarray, A: np.ndarray, LJT: np.ndarray):
    """Direct and componentwise sums (dim,) of c (F1 + i F2) from the summed moments (2, 2 width); A is read once.

    Rows RR, RI, IR, II of the moments times A are the sums of Re(c) F1,
    Re(c) F2, Im(c) F1 and Im(c) F2.  The direct route lifts F to F1 + J F2
    and applies c as Re(c) + J Im(c), both by left multiplication with J (LJT
    is its matrix, transposed): S0 = RR A + RI A LJT, S1 = IR A + II A LJT and
    direct = S0 + S1 LJT.  The componentwise route is (RR - II) A + i (IR + RI) A.
    """
    RR, RI, IR, II = moments.reshape(4, -1) @ A
    return RR + RI @ LJT + (IR + II @ LJT) @ LJT, (RR - II) + 1j * (IR + RI)


def _node_sums(c: np.ndarray, F: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Moments (2, 2 dim) of one chunk of nodes: [Re c; Im c] @ [F1 | F2], for c (rows,) and F1, F2 (rows, dim)."""
    F1, F2 = F
    # [Re c; Im c] as a strided view of c, which BLAS reads without a copy
    C = np.ascontiguousarray(c).view(np.float64).reshape(-1, 2).T
    return np.hstack((C @ F1, C @ F2))


# rows Re(c) Re(m), Re(c) Im(m), Im(c) Re(m), Im(c) Im(m) from rows Re X, Im X, Re Y, Im Y of
# X = c m and Y = c conj(m): c m + c conj(m) = 2 Re(m) c and c m - c conj(m) = 2i Im(m) c
_CONJUGATE_PAIR = 0.5 * np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0, 1.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.0]]
)


def _monomial_sums(Q_outer: np.ndarray, Q_last: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Moments (2, 2T) of one polynomial chunk: B1 and B2 are the real and imaginary parts of the monomials m = w^mu.

    Disc l's table is Q_l = w_l [P_l; conj P_l] (2T, len), so a node's
    coefficient times [m; conj m] is the product of its discs' columns times
    the kernel factor K.  Q_outer (2T, k) is the chunk's outer nodes' fold,
    Q_last (2T, b) the last disc's columns, which transpose to C order, and K
    (k, b): G = K Q_last^T sums each outer node's nodes of the chunk, one
    real gemm through a float view, and summing Q_outer[:, i] G[i] over the
    outer nodes gives X = sum c m and Y = sum c conj(m).
    """
    T = Q_last.shape[0] // 2
    G = (K @ Q_last.T.view(np.float64)).view(np.complex128)
    S = np.einsum("ti,it->t", Q_outer, G)
    return (_CONJUGATE_PAIR @ S.view(np.float64).reshape(2, T, 2).transpose(0, 2, 1).reshape(4, T)).reshape(2, 2 * T)


def _agreed(direct: AlgebraElement, comp: AlgebraElement) -> AlgebraElement:
    """The direct value, once the componentwise route agrees with it to ROUTE_AGREEMENT_TOL.

    Both routes are finished from the same summed moments, so the gate checks
    how J is applied to them, not the sums themselves: a fault in a chunk's
    moments moves both routes alike and passes it.  Checks against
    lift_evaluate, such as reproduce_check's abs_error, are what see it.
    """
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


def _axis_rows(op, n: int, l: int, v: np.ndarray) -> np.ndarray:
    """Table (n, len(v)) of v in row l and op's identity elsewhere: an op fold over discs keeps disc l in row l."""
    return np.where(np.arange(n)[:, None] == l, v, op.identity)


def _spread(op, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Values (width, k b) of k outer nodes (width, k) op b last-factor columns (width, b), in C order."""
    return op(outer[:, :, None], inner[:, None, :]).reshape(len(inner), outer.shape[1] * inner.shape[1])


def _product_grid(shape: tuple, groups: list, rows: int):
    """Tensor-product rule streamed in chunks of at most rows nodes, in C order of the factor indices.

    A group (op, tables) has one table (width, shape[f]) per factor f, and
    op is np.add or np.multiply; a node's value is op folded left over the
    columns its indices pick, ((t_0 op t_1) op t_2) ..., in factor order.
    The last factor is the inner block: a chunk is a few outer nodes against
    the last factor's table (or a rows-column slice of it, when it alone
    exceeds rows).  The caller picks rows to fit its widest per-node array
    in CHUNK_DOUBLES.  Yields per chunk one (op, outer, last) per group: the
    outer nodes' fold (width, k), made once per chunk, and the last factor's
    columns (width, b), a view of its table; _spread(op, outer, last) is the
    chunk's node values (width, k b).
    """
    *head, last = shape
    count, per = math.prod(head), max(1, rows // last)
    for o in range(0, count, per):
        idx = np.unravel_index(np.arange(o, min(o + per, count)), head) if head else ()
        # zip stops at the outer factors; a one-factor grid's one outer node is op's identity
        outer = [functools.reduce(op, [t[:, i] for t, i in zip(tables, idx)]) if head else
                 np.full((1, 1), op.identity) for op, tables in groups]
        for a in range(0, last, rows):
            yield [(op, out, tables[-1][:, a : a + rows]) for (op, tables), out in zip(groups, outer)]


def _kernel_factor(d_outer: np.ndarray, d_last: np.ndarray, n: int) -> np.ndarray:
    """K (k, b) = (d_outer[i] + d_last[j])^-n from a chunk's distance folds (1, k) and (1, b), in place.

    Both face kinds form their kernel factor here; it is a polynomial chunk's
    only per-node array.  The sum is spread by a rank-2 gemm, [d_outer; 1]^T [1; d_last], which rounds each entry once, as
    a broadcast np.add does, and writes K directly, where the np.add would
    also allocate iterator buffers as large as K.
    """
    A, B = np.ones((2, d_outer.shape[1])), np.ones((2, d_last.shape[1]))
    A[0], B[1] = d_outer, d_last
    K = A.T @ B
    K **= n
    return np.divide(1.0, K, out=K)


def _face_nodes(dom: PolydiscDomain, spec: QuadratureSpec, x_z: np.ndarray, k: int, stem=None):
    """Boundary face k per chunk: its nodes and complete complex coefficients, or a polynomial stem's monomial factors.

    A node's coefficient is c = coeff g_k(xi), coeff being the kernel
    constant, Jacobians and product weights.  Disc l has tables xi_l,
    d_l = |xi_l - x_l|^2 and w_l, with conj(xi_k - x_k) and the constant
    folded into w_k, so c = prod_l w_l K with K = (sum_l d_l)^-n, and xi - x
    is never formed.  Yields (Z, c) per chunk: Z complex (n, rows), the sum
    of the discs' one-hot rows, xi_l in row l.  For a StemPolynomial stem a
    disc's weights and power table (from power_columns) are one table
    Q_l = w_l [P_l; conj P_l] (2T, len), and it yields (Q_outer, Q_last, K)
    per chunk, the pieces _monomial_sums reduces: no node, monomial or
    coefficient is formed.
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
    shape = tuple(len(v) for v in vals)
    dists = (np.add, [((v - x).real ** 2 + (v - x).imag ** 2)[None] for v, x in zip(vals, x_z)])
    if isinstance(stem, StemPolynomial):
        Q = []
        for l, (v, w) in enumerate(zip(vals, weights)):
            P = stem.power_columns(l, v)
            # the last disc's in Fortran order, so a chunk's columns of it transpose to C order
            Q.append(np.empty((2 * len(P), len(v)), dtype=np.complex128, order="F" if l == n - 1 else "C"))
            np.multiply(w, P, out=Q[l][: len(P)])
            np.multiply(w, np.conj(P, out=Q[l][len(P) :]), out=Q[l][len(P) :])
        groups = [(np.multiply, Q), dists]
        # K holds 1 double a node and Q_outer 4T an outer node of b nodes, so
        # CHUNK_DOUBLES // max(b, 4T) outer nodes keep both within CHUNK_DOUBLES
        b = min(shape[-1], CHUNK_DOUBLES)
        rows = CHUNK_DOUBLES * b // max(b, 4 * len(stem.exponents))
        for (_, Q_outer, Q_last), (_, d_outer, d_last) in _product_grid(shape, groups, rows):
            yield Q_outer, Q_last, _kernel_factor(d_outer, d_last, n)
        return
    nodes = (np.add, [_axis_rows(np.add, n, l, v) for l, v in enumerate(vals)])
    groups = [nodes, (np.multiply, [w[None] for w in weights]), dists]
    for Z, W, D in _product_grid(shape, groups, CHUNK_DOUBLES // STEM_ROW_DOUBLES):
        c = _spread(*W)[0]
        c *= _kernel_factor(D[1], D[2], n).ravel()
        yield _spread(*Z), c


# ---------------------------------------------------------------------------
# boundary integral


def _bm_boundary_both(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
    _check_point(dom, x)
    n = dom.n
    count = _check_budget(_boundary_count(n, spec))
    # chain and starmap keep no reference to a reduced chunk, so a polynomial chunk's K is freed before the next
    chunks = itertools.chain.from_iterable(_face_nodes(dom, spec, x.z, k, f.stem) for k in range(n))
    if isinstance(f.stem, StemPolynomial):
        return (*_reduce(dom.j, itertools.starmap(_monomial_sums, chunks), f.stem.coefficients), count)
    return (*_reduce(dom.j, (_node_sums(c, evaluate_stem_batch(f.stem, Z.T)) for Z, c in chunks)), count)


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


def _boundary_count(n: int, spec: QuadratureSpec) -> int:
    """Nodes of the boundary rule over all n faces: each is M angles times n - 1 discs of R M nodes."""
    return n * spec.angular_nodes * (spec.radial_nodes * spec.angular_nodes) ** (n - 1)


def _volume_count(n: int, spec: QuadratureSpec) -> int:
    """Nodes of the volume rule: n pyramids of q^n points, times M_v angles per disc."""
    return n * math.prod(_volume_sizes(spec)) ** n


def _volume_nodes(dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
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
    angles of discs 1..n the others; xi - x is u times a ray row per disc,
    S_l e^{i phi_l} in row l and ones elsewhere.  Each disc's angles are offset
    by a fixed jitter, the draws of default_rng(0); every u_l is positive, so
    no node lands on x.
    Yields (Z, C) per chunk, both (n, rows): row j of C is the weights times
    g_j(xi).
    """
    n = dom.n
    q, M = _volume_sizes(spec)
    rng = np.random.default_rng(0)
    x_z = x.z
    U, w_pyr = _pyramid_table(n, q)

    rays: list[np.ndarray] = [U.T]
    weights: list[np.ndarray] = [w_pyr[None]]
    for l in range(n):
        e = complex(x_z[l] - dom.centers[l])
        offset = rng.uniform(0.05, 0.45)
        phi = 2.0 * math.pi * (np.arange(M) + offset) / M
        ray = np.exp(1j * phi)
        edotr = np.real(np.conj(e) * ray)
        smax = -edotr + np.sqrt(edotr**2 + dom.radii[l] ** 2 - abs(e) ** 2)
        rays.append(_axis_rows(np.multiply, n, l, smax * ray))
        weights.append((smax**2 * (2.0 * math.pi / M))[None])
    groups = [(np.multiply, rays), (np.multiply, weights)]
    for R, W in _product_grid((len(w_pyr),) + (M,) * n, groups, CHUNK_DOUBLES // STEM_ROW_DOUBLES):
        diff, W = _spread(*R), _spread(*W)
        W *= 1.0 / np.sum(diff.real**2 + diff.imag**2, axis=0) ** n
        yield x_z[:, None] + diff, np.conj(diff) * W


def _bm_volume_both(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
    _check_point(dom, x)
    if f.stem.smoothness < Smoothness.C1:
        raise ValueError("volume term needs a C1 stem with Wirtinger derivatives")
    n = dom.n
    count = _check_budget(_volume_count(n, spec))
    chunks = _volume_nodes(dom, x, spec)
    parts = (_node_sums(c, dbar_batch(f.stem, Z.T, jx)) for Z, C in chunks for jx, c in enumerate(C))
    return (*_reduce(dom.j, parts, scale=math.factorial(n - 1) / math.pi**n), count)


def bm_volume_integral(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> AlgebraElement:
    """The dbar correction, signed so that boundary - volume = f(x)."""
    return _agreed(*_bm_volume_both(f, dom, x, spec)[:2])


# ---------------------------------------------------------------------------
# off-slice evaluation and Hartogs extension


def off_slice_evaluate(
    f: SliceFunction,
    dom: PolydiscDomain,
    q_point: SlicePoint,
    spec: QuadratureSpec,
    include_volume: bool | None = None,
) -> AlgebraElement:
    """Evaluate f at alpha + beta I from one integral at x = alpha + beta J on the domain's slice.

    The rule's componentwise route gives the stem value F1(z) + i F2(z) (minus
    the volume term's, for non-regular f); once both routes agree it is lifted
    to F1 + I F2 as lift_evaluate does, F1 at a real point.  The rule at
    conj(x) would only give F1 - J F2 again, so it is not integrated.
    """
    if q_point.tag != dom.j.tag:
        raise SliceMismatchError("point algebra does not match domain")
    x = slice_point(q_point.alpha, q_point.beta, dom.j)
    if include_volume is None:
        include_volume = f.stem.smoothness < Smoothness.ANALYTIC
    direct, comp, w, _ = _bm_boundary_both(f, dom, x, spec)
    _agreed(direct, comp)
    if include_volume:
        direct, comp, v, _ = _bm_volume_both(f, dom, x, spec)
        _agreed(direct, comp)
        w = w - v
    return w.re if q_point.is_real else lift_value(w, q_point.j)


@dataclass(frozen=True, eq=False)
class HartogsExtension:
    """Evaluator from hartogs_extend: off_slice_evaluate on the contour's faces alone, no volume term."""

    source: SliceFunction
    contour: PolydiscDomain
    spec: QuadratureSpec

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
    return HartogsExtension(f, dom.scaled(0.95), spec)


# ---------------------------------------------------------------------------
# reports


def reproduce_check(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> BMReport:
    """Boundary integral against the direct lift, packaged with its node count."""
    direct, comp, _, nodes = _bm_boundary_both(f, dom, x, spec)
    reproduced, reference = _agreed(direct, comp), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)


def correction_check(
    f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec
) -> BMReport:
    """Boundary integral minus the volume term against the direct lift.

    nodes_used counts the volume rule's nodes.
    """
    boundary = bm_boundary_integral(f, dom, x, spec)
    direct, comp, _, nodes = _bm_volume_both(f, dom, x, spec)
    reproduced, reference = boundary - _agreed(direct, comp), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)

