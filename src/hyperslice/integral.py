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

There is one stem value per point z = alpha + i beta, w = F1 + i F2, the
rules' return and bm_stem_value's; it fixes f on the sphere alpha + beta S,
and the caller lifts it, to F1 + I F2 at any unit I (lift_value).  A rule is
linear in the stem's values, so a chunk contributes only its complex sum X =
sum c (B1 + i B2) (width,), where F1 = B1 A and F2 = B2 A for a (width, dim)
matrix A: a generic stem's values and the volume rule's dbar F are B = F
with A the identity, a StemPolynomial's B1 + i B2 are its monomials w^mu
with A its coefficients.  Both rules sum X in chunk order and contract A once
per call (_reduce); a call is held to NODE_BUDGET nodes.  The algebra-valued
formula, (Re c + J Im c)(F1 + J F2) summed node by node, is the same number
by alternativity and is left to the tests.

The volume term's integrand is sum_j c_j dbar_j F at a node with
coefficients c_j.  A stem with an exact dbar hook is read per axis.  Any
other stem is differenced once, along the node's own direction: by the
Wirtinger chain rule (Krantz, Function Theory of Several Complex Variables,
1.1), sum_j c_j dbar_j F(xi) = |c| d/d(tbar) F(xi + t v) at t = 0 for the
unit v = conj(c)/|c|, so one 4-point stencil (xi +- h v, xi +- i h v) at
DEFAULT_FD_STEP, weighted by |c|/(4h), gives the whole sum: 4 stem calls a
chunk, not 4 per axis.  The stencil yields only the complex products
c_j dbar_j F, never the four real sums of Re c_j and Im c_j against F1 and
F2 apart that lifting c to Re c + J Im c before multiplying would read, so
it needs the rules to finish on the stem value alone.

Nodes are streamed along the grid's tensor structure.  A grid is only its
per-factor tables, and a chunk is a few outer nodes, folded once per chunk,
against the last factor's table or a slice of its columns (_blocks).  Each
chunk is reduced before the next one starts, so memory is O(CHUNK_DOUBLES)
plus per-call tables whatever the grid size: no per-node array of a chunk
holds more than CHUNK_DOUBLES doubles (128 KiB), and each rule takes as many
rows as its widest per-node array allows.

A boundary call builds every disc's columns once, for both face kinds: the
circle and interior nodes of all n discs, with their weights and distances,
as (n, M + R M) arrays (_boundary_columns); the tables that depend on the
spec alone are cached.  A StemPolynomial's face needs no node values: its
monomial sums factor over the discs (sum factorisation; Orszag, J. Comput.
Phys. 37, 1980) but for the kernel factor K = (sum_l d_l)^-n.  Up to n = 2 a
chunk forms only K and is reduced by one gemm against the last disc's
weighted power table; it takes 16384 nodes, or fewer outer nodes once its
fold's 2T doubles an outer node for T terms exceed the last factor's
columns.  From n = 3 K is an exponential sum (Beylkin & Monzon, ACHA 28,
2010), so the faces factor too: one exponential table a disc and no node
(_separable_faces).  Any other stem's faces are folded over conjugation: the
grid is closed under it and an intrinsic stem has F(conj xi) = conj F(xi),
so each face evaluates the stem at half of its circle angles and reduces
F1 against the sum s = c + c' of each node's and its mirror's coefficient,
and F2 against their difference t = c - c' (_stem_sums).
Stem-valued chunks (generic faces and the volume rule) hold F1 and F2 at up
to 8 doubles a row, so they take 2048 rows in either algebra, and write
their nodes, kernel factors and coefficients into buffers allocated once
per call, long axes innermost.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraMismatchError, AlgebraTag, ImaginaryUnit, canonicalize_unit, element, units_close
from .complexified import ComplexifiedElement
from .slicefun import IntrinsicityError, SliceFunction, SlicePoint, lift_evaluate, lift_value
from .stem import Smoothness, StemPolynomial, _box, dbar_batch, evaluate_stem_batch

__all__ = [
    "SliceMismatchError",
    "PointTooCloseToBoundaryError",
    "HartogsRequiresSeveralVariablesError",
    "PolydiscDomain",
    "QuadratureSpec",
    "BMReport",
    "bm_boundary_integral",
    "bm_volume_integral",
    "bm_stem_value",
    "off_slice_evaluate",
    "HartogsExtension",
    "hartogs_extend",
    "reproduce_check",
    "correction_check",
]

INTERIOR_MARGIN = 0.05
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
    nodes_used: int  #: the rule's node count, not the values a call forms (n >= 3 polynomial faces form fewer)


# ---------------------------------------------------------------------------
# shared plumbing


def _reduce(tag: AlgebraTag, parts, A: np.ndarray | None = None, scale: float = 1.0) -> ComplexifiedElement:
    """The stem value scale * (sum X) A: the chunks' complex sums X (width,) added in chunk order, A (width, dim) read once.

    A defaults to the identity.  So a result depends on the chunk layout (and
    so on CHUNK_DOUBLES) and nothing else.
    """
    A = np.eye(tag.dim) if A is None else A
    X = np.zeros(A.shape[0], dtype=np.complex128)
    for part in parts:
        X += part
    F1, F2 = scale * (np.stack((X.real, X.imag)) @ A)
    return ComplexifiedElement(element(tag, F1), element(tag, F2))


def _stem_sums(s: np.ndarray, t: np.ndarray, F: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum s F1 + i sum t F2 (dim,) over one chunk, for coefficients s, t as [Re; Im] rows (2, rows) and F1, F2 (rows, dim).

    With s = t = c it is sum c (F1 + i F2).  A folded face passes s = c + c'
    and t = c - c' for each evaluated node's and its mirror's coefficient: an
    intrinsic stem has F(conj xi) = F1(xi) - i F2(xi), so the pair
    contributes (c + c') F1 + i (c - c') F2.
    """
    G1, G2 = s @ F[0], t @ F[1]
    return (G1[0] - G2[1]) + 1j * (G1[1] + G2[0])


def _monomial_sums(Q_outer: np.ndarray, Q_last: np.ndarray, K: np.ndarray) -> np.ndarray:
    """X = sum c w^mu (T,) of one polynomial chunk, from the weighted power tables of _power_tables and the kernel factor.

    A node's coefficient times w^mu is its discs' columns of the tables times
    K.  Q_outer (T, k) is the chunk's outer nodes' fold, Q_last (T, b) the
    last disc's columns, which transpose to C order, and K (k, b): G =
    K Q_last^T sums each outer node's nodes of the chunk, one real gemm
    through a float view, and summing Q_outer[:, i] G[i] over the outer
    nodes gives X.
    """
    G = (K @ Q_last.T.view(np.float64)).view(np.complex128)
    return np.einsum("ti,it->t", Q_outer, G)


def _check_z(f: SliceFunction, dom: PolydiscDomain, z) -> np.ndarray:
    """z as a complex (n,) array, once f is an intrinsic stem of the domain's algebra and z a finite point inside the margin."""
    _check_intrinsic(f)
    if f.tag != dom.j.tag:
        raise AlgebraMismatchError(f"stem algebra {f.tag} does not match domain {dom.j.tag}")
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (dom.n,):
        raise ValueError(f"point of shape {z.shape} for a domain of arity {dom.n}")
    if not np.isfinite(z).all():
        raise ValueError("point must be finite")
    if np.any(np.abs(z - dom.centers) > (1.0 - INTERIOR_MARGIN) * dom.radii):
        raise PointTooCloseToBoundaryError(f"each coordinate must stay {INTERIOR_MARGIN:.2f}*radius away from its circle")
    return z


def _check_slice(dom: PolydiscDomain, x: SlicePoint) -> None:
    """Refuse a point off the domain's slice, for the entry points that lift to dom.j."""
    if x.tag != dom.j.tag:
        raise SliceMismatchError(f"point algebra {x.tag} does not match domain {dom.j.tag}")
    if not x.is_real and not units_close(x.j, dom.j, 1e-12):
        raise SliceMismatchError("point lies on a different slice than the domain")


def _check_intrinsic(f: SliceFunction) -> None:
    """Refuse a stem flagged non-intrinsic: the rules read F(conj xi) as conj F(xi), which only an intrinsic stem gives."""
    if not f.stem.intrinsic:
        raise IntrinsicityError("BM quadrature needs an intrinsic stem; this one is flagged intrinsic=False")


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


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of a flat per-call buffer, as a C-ordered view of that shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _blocks(shape: tuple, rows: int):
    """Chunks of at most rows nodes of a product grid, in C order of its factor indices.

    A chunk is whole blocks of the last factor, as many outer nodes as rows
    allows, or one outer node against a rows-wide slice of a last factor that
    alone exceeds rows.  Yields per chunk the outer nodes' factor indices (a
    tuple of index arrays, empty for a one-factor grid) and the last factor's
    slice.
    """
    *head, last = shape
    count, per = math.prod(head), max(1, rows // last)
    for o in range(0, count, per):
        idx = np.unravel_index(np.arange(o, min(o + per, count)), head) if head else ()
        for a in range(0, last, rows):
            yield idx, slice(a, min(a + rows, last))


def _fold(op, tables: list, idx: tuple) -> np.ndarray:
    """Outer nodes' values (width, k): op folded left over the columns idx picks from the outer factors' tables (width, len).

    With one table (width, shape[f]) per factor f of a grid, and op np.add or
    np.multiply, a node's value is ((t_0 op t_1) op t_2) ... over the columns
    its indices pick, so op(outer[:, :, None], t_last[:, None, sl]) would be a
    chunk's node values.  A one-factor grid's one outer node is op's identity,
    (1, 1).
    """
    return functools.reduce(op, [t[:, i] for t, i in zip(tables, idx)]) if idx else np.full((1, 1), op.identity)


def _kernel_buffers(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat buffers (S, K) of size doubles for _kernel_factor: one array serves both unless n >= 3."""
    K = np.empty(size)
    return (K if n < 3 else np.empty(size)), K


def _kernel_factor(A: np.ndarray, B: np.ndarray, n: int, S: np.ndarray, K: np.ndarray) -> np.ndarray:
    """K = (A^T B)^-n for rank-r factors A (..., r, k) and B (..., r, b), written into the caller's S and K (..., k, b).

    A^T B is a chunk's squared distance |xi - x|^2 spread over its k outer
    nodes and b last-factor columns by one gemm.  On a boundary face it is
    [d_outer; 1]^T [1; d_last] (_with_ones, B once a face), which rounds each
    entry once in any gemm layout, as a broadcast np.add does, without the
    add's iterator buffers; in
    the volume rule it is rank n, the pyramid points' u_l^2 against the angle
    tuples' S_l^2 (_volume_nodes).
    The power is n - 1 multiplies in place (np.power has a fast path for
    squares only), then one reciprocal; below n = 3 S may be K itself.
    """
    np.matmul(np.swapaxes(A, -1, -2), B, out=S)
    if n == 1:
        return np.divide(1.0, S, out=K)
    np.multiply(S, S, out=K)
    for _ in range(n - 2):
        K *= S
    return np.divide(1.0, K, out=K)


def _with_ones(d: np.ndarray, row: int) -> np.ndarray:
    """d (..., k) and a row of ones as (..., 2, k), d in the given row: [d_outer; 1] (row 0) times [1; d_last] (row 1) is d_outer[i] + d_last[j]."""
    F = np.ones(d.shape[:-1] + (2, d.shape[-1]))
    F[..., row, :] = d
    return F


@functools.lru_cache(maxsize=None)
def _boundary_units(M: int, R: int):
    """Spec-only tables of the boundary rule; cached, so read-only.

    A call's columns are disc l's M circle nodes c_l + r_l e^{i phi_m}, then
    its R M interior nodes c_l + (r_l t_r) e^{i phi_m} at column M + r M + m
    (t_r the Gauss-Legendre nodes on [0, 1]).  Returns the ring
    e^{i phi_m} (M,); each column's mirror, the column of its conjugate node
    (angle -phi_m, same t_r); and the folded circle's weights (M // 2 + 1,),
    1/2 at the self-conjugate angles 0 and pi.
    """
    ring = np.exp(1j * (2.0 * math.pi * np.arange(M) / M))
    back = -np.arange(M) % M
    mirror = np.concatenate([back, (M + M * np.arange(R)[:, None] + back).ravel()])
    m = np.arange(M // 2 + 1)
    half = np.where((m == 0) | (2 * m == M), 0.5, 1.0)
    for a in (ring, mirror, half):
        a.setflags(write=False)
    return ring, mirror, half


def _boundary_columns(dom: PolydiscDomain, x_z: np.ndarray, spec: QuadratureSpec):
    """One call's columns of every disc at once, (n, M + R M) each: nodes V, weights W and distances D = |xi - x|^2.

    A circle column's weight holds the kernel constant, the trapezoid weight,
    the Jacobian i r e^{i phi} and conj(xi - x); an interior column's is
    r w_r dphi 2i rho for rho = r t_r, since dxi-bar ^ dxi pulls back to
    2i rho drho dphi.  So face k's node coefficient c = coeff g_k(xi) is the
    product of its discs' weights times K = (sum_l D_l)^-n, and xi - x is
    never formed.
    """
    M, R, n = spec.angular_nodes, spec.radial_nodes, dom.n
    ring = _boundary_units(M, R)[0]
    t, w = _gauss_legendre_01(R)
    c, r = dom.centers[:, None], dom.radii[:, None]
    rho, w_ang = r * t, 2.0 * math.pi / M
    V = np.empty((n, M + R * M), dtype=np.complex128)
    V[:, :M] = c + r * ring
    V[:, M:] = (c[:, :, None] + rho[:, :, None] * ring).reshape(n, -1)
    diff = V - x_z[:, None]
    D = diff.real**2 + diff.imag**2
    W = np.empty_like(V)
    cn = math.factorial(n - 1) / (2j * math.pi) ** n
    W[:, :M] = (cn * w_ang) * (1j * r * ring) * np.conj(diff[:, :M])
    W[:, M:] = np.repeat((r * w) * w_ang * (2j * rho), M, axis=1)
    return V, W, D


def _power_tables(stem: StemPolynomial, V: np.ndarray, W: np.ndarray, fortran_from: int) -> list:
    """Each disc's weights times its power table, Q_l = w_l P_l (T, M + R M); from disc fortran_from on Fortran-ordered, so column slices transpose to C order."""
    T, Q = len(stem.exponents), []
    for l in range(V.shape[0]):
        Q.append(np.empty((T, V.shape[1]), dtype=np.complex128, order="F" if l >= fortran_from else "C"))
        # row by row: numpy 2.4 buffers a broadcast product, slowly on a Fortran-ordered table
        for t, p in enumerate(stem.power_columns(l, V[l])):
            np.multiply(W[l], p, out=Q[l][t])
    return Q


def _exponential_sum(n: int, s_min: float, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights a and rates b (Q,): sum_q a_q exp(-b_q s) is s^-n to about 1e-15 relative on [s_min, s_max].

    The trapezoid rule in u on s^-n = 1/(n-1)! integral exp(n u - s e^u) du (Trefethen & Weideman, SIAM Rev. 56,
    2014), cut where either tail is below 1e-17; step 0.2 up to n = 4 (0.25 errs 5.7e-14 at n = 3), 0.8/n beyond.
    """
    h = 0.8 / max(n, 4)
    lo = math.log(1e-17 * math.factorial(n)) / n - math.log(s_max)
    b = np.exp(lo + h * np.arange(math.ceil((math.log(n) + 4.0 - math.log(s_min) - lo) / h) + 1))
    return h / math.factorial(n - 1) * b**n, b


def _separable_faces(dom: PolydiscDomain, spec: QuadratureSpec, x_z: np.ndarray, stem: StemPolynomial) -> list:
    """X = sum c w^mu (T,) of each of a StemPolynomial's faces, face 0 first, forming n Q (M + R M) exponentials within NODE_BUDGET.

    A node's s = sum_l D_l lies in [min_k (r_k - e_k)^2, sum_l (r_l + e_l)^2] for e = |x - c|, positive
    by INTERIOR_MARGIN, where K = s^-n = sum_q a_q prod_l exp(-b_q D_l) (_exponential_sum).  So disc l's
    E_l = exp(-b D_l) (Q, M + R M) serves every face: one real gemm each gives its circle and interior sums
    P_l = Q_l E_l^T (T, Q), and face k's X is (P_k^circle prod_{l!=k} P_l^interior) a.
    """
    n, M, circle, interior = dom.n, spec.angular_nodes, [], []
    e = np.abs(x_z - dom.centers)
    a, b = _exponential_sum(n, np.min((dom.radii - e) ** 2), np.sum((dom.radii + e) ** 2))
    _check_budget(n * len(b) * M * (1 + spec.radial_nodes))
    V, W, D = _boundary_columns(dom, x_z, spec)
    E = np.empty((len(b), V.shape[1]))
    for Q, D_l in zip(_power_tables(stem, V, W, 0), D):
        np.exp(np.multiply.outer(-b, D_l, out=E), out=E)
        QT = Q.T.view(np.float64)
        circle.append((E[:, :M] @ QT[:M]).view(np.complex128))
        interior.append((E[:, M:] @ QT[M:]).view(np.complex128))
    return [a @ functools.reduce(np.multiply, [circle[k]] + interior[:k] + interior[k + 1 :]) for k in range(n)]


def _face_nodes(dom: PolydiscDomain, spec: QuadratureSpec, x_z: np.ndarray, stem=None):
    """Every boundary face's chunks, face 0 first, from one build of the discs' columns (_boundary_columns).

    Face k is the circle of disc k times the other discs' interiors.  A
    StemPolynomial's faces (up to n = 2) are laid out in disc order, each
    slicing the discs' _power_tables, and it yields (Q_outer, Q_last, K) per
    chunk, the pieces _monomial_sums reduces: no node or monomial is formed.

    Any other stem's faces are folded over conjugation.  The grid is closed
    under it (real centers), so face k takes only the circle angles
    m = 0 .. M // 2, as its first factor, against the other discs' interiors
    in disc order, and at each node xi forms the coefficient c' of its mirror
    conj(xi) from the mirrored columns too; both are halved at the
    self-conjugate angles 0 and pi.  It yields (Z, P) per chunk: the nodes,
    complex (n, rows), and P (2, 2, rows), s = c + c' and t = c - c' as
    [Re; Im] rows, which _stem_sums reduces against the stem values at Z alone.

    A chunk's arrays are views of buffers made once per call, so each chunk
    must be reduced before the next is drawn.
    """
    n, M = dom.n, spec.angular_nodes
    V, W, D = _boundary_columns(dom, x_z, spec)
    if isinstance(stem, StemPolynomial):
        T, Q = len(stem.exponents), _power_tables(stem, V, W, n - 1)
        S, K = _kernel_buffers(n, CHUNK_DOUBLES)
        for k in range(n):
            cols = [slice(None, M) if l == k else slice(M, None) for l in range(n)]
            shape = tuple(len(V[l, c]) for l, c in enumerate(cols))
            tables, dists = [q[:, c] for q, c in zip(Q, cols)], [D[l : l + 1, c] for l, c in enumerate(cols)]
            # K holds 1 double a node and Q_outer 2T an outer node of b nodes, so
            # CHUNK_DOUBLES // max(b, 2T) outer nodes keep both within CHUNK_DOUBLES
            b = min(shape[-1], CHUNK_DOUBLES)
            rows = CHUNK_DOUBLES * b // max(b, 2 * T)
            last = _with_ones(dists[-1], 1)
            for idx, sl in _blocks(shape, rows):
                d_outer = _fold(np.add, dists, idx)
                size = (d_outer.shape[1], sl.stop - sl.start)
                K_chunk = _kernel_factor(_with_ones(d_outer, 0), last[..., sl], n, _view(S, size), _view(K, size))
                yield _fold(np.multiply, tables, idx), tables[-1][:, sl], K_chunk
        return
    _, mirror, half = _boundary_units(M, spec.radial_nodes)
    H, RM = len(half), V.shape[1] - M
    # each column's distance and its mirror's, (2, n, M + R M); an interior
    # column's weight does not depend on its angle, so only the circle's is mirrored
    DD = np.stack((D, D[:, mirror]))
    rows = CHUNK_DOUBLES // STEM_ROW_DOUBLES
    Zb = np.empty(n * rows, dtype=np.complex128)
    Sb, Kb = _kernel_buffers(n, 2 * rows)
    Cb, Pb = np.empty(4 * rows), np.empty(4 * rows)
    for k in range(n):
        discs = [k] + [l for l in range(n) if l != k]
        cols = [slice(None, H)] + [slice(M, None)] * (n - 1)
        nodes = [V[l, c] for l, c in zip(discs, cols)]
        weights = [np.stack((W[k, :H], W[k, mirror[:H]])) * half] + [np.broadcast_to(W[l, M:], (2, RM)) for l in discs[1:]]
        dists = [DD[:, l, c] for l, c in zip(discs, cols)]
        # the last factor's weight pair as [Re; Im] rows (2, 2, len), the right factor of the coefficient gemm
        last_w = np.stack((weights[-1].real, weights[-1].imag), axis=1)
        last_d = _with_ones(dists[-1], 1)
        for idx, sl in _blocks(tuple(len(v) for v in nodes), rows):
            a, d = _fold(np.multiply, weights, idx), _fold(np.add, dists, idx)
            size = (a.shape[1], sl.stop - sl.start)
            Z = _view(Zb, (n,) + size)
            for l, v, i in zip(discs, nodes, idx):
                Z[l] = v[i][:, None]
            Z[discs[-1]] = nodes[-1][sl]
            K = _kernel_factor(_with_ones(d, 0), last_d[..., sl], n, _view(Sb, (2,) + size), _view(Kb, (2,) + size))
            # [Re; Im] of a_i w_j for each pair row as one real gemm: [[Re a, -Im a]; [Im a, Re a]] [Re w; Im w]
            L = np.empty((2, 2, size[0], 2))
            L[:, 0, :, 0] = L[:, 1, :, 1] = a.real
            L[:, 0, :, 1] = -a.imag
            L[:, 1, :, 0] = a.imag
            C = _view(Cb, (2, 2) + size)
            np.matmul(L.reshape(2, 2 * size[0], 2), last_w[:, :, sl], out=C.reshape(2, 2 * size[0], size[1]))
            C *= K[:, None]
            P = _view(Pb, (2, 2) + size)
            np.add(C[0], C[1], out=P[0])
            np.subtract(C[0], C[1], out=P[1])
            yield Z.reshape(n, -1), P.reshape(2, 2, -1)


# ---------------------------------------------------------------------------
# boundary integral


def _bm_boundary(f: SliceFunction, dom: PolydiscDomain, z, spec: QuadratureSpec):
    """The boundary rule's stem value at z (n,) and its node count."""
    z = _check_z(f, dom, z)
    tag, count = dom.j.tag, _boundary_count(dom.n, spec)
    if isinstance(f.stem, StemPolynomial) and dom.n >= 3:
        return _reduce(tag, _separable_faces(dom, spec, z, f.stem), f.stem.coefficients), count
    _check_budget(count)
    # a chunk is reduced before the generator refills the call's buffers with the next
    chunks = _face_nodes(dom, spec, z, f.stem)
    if isinstance(f.stem, StemPolynomial):
        return _reduce(tag, itertools.starmap(_monomial_sums, chunks), f.stem.coefficients), count
    return _reduce(tag, (_stem_sums(*P, evaluate_stem_batch(f.stem, Z.T)) for Z, P in chunks)), count


def bm_boundary_integral(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec) -> AlgebraElement:
    _check_slice(dom, x)
    return lift_value(_bm_boundary(f, dom, x.z, spec)[0], dom.j)


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


@functools.lru_cache(maxsize=None)
def _volume_units(n: int, q: int, M: int):
    """Spec-only tables of the volume rule; cached, so read-only.

    The pyramid table of _pyramid_table(n, q), and the unit rays e^{i phi}
    (n, M) of each disc's M angles, offset by a fixed jitter, the draws of
    default_rng(0).
    """
    U, w = _pyramid_table(n, q)
    offset = np.random.default_rng(0).uniform(0.05, 0.45, n)
    rays = np.exp(1j * (2.0 * math.pi * (np.arange(M) + offset[:, None]) / M))
    for a in (U, w, rays):
        a.setflags(write=False)
    return U, w, rays


def _volume_sizes(spec: QuadratureSpec) -> tuple[int, int]:
    """(q, M_v) of the volume rule: its Gauss-Legendre order and its angles per disc (see _volume_nodes)."""
    return 2 * spec.volume_refinement + 2, max(8, spec.angular_nodes // 2)


def _boundary_count(n: int, spec: QuadratureSpec) -> int:
    """Nodes of the boundary rule over all n faces: each is M angles times n - 1 discs of R M nodes."""
    return n * spec.angular_nodes * (spec.radial_nodes * spec.angular_nodes) ** (n - 1)


def _volume_count(n: int, spec: QuadratureSpec) -> int:
    """Nodes of the volume rule: n pyramids of q^n points, times M_v angles per disc."""
    return n * math.prod(_volume_sizes(spec)) ** n


def _volume_nodes(dom: PolydiscDomain, x_z: np.ndarray, spec: QuadratureSpec):
    """Duffy-pyramid rule in per-disc polar coordinates centered at x_z (n,).

    Disc l is written xi_l = x_l + u_l S_l(phi_l) e^{i phi_l} with u_l in
    [0,1], where S_l(phi) (smax below) is the ray length from x_l to the
    circle in direction phi, closed form since the disc is star-shaped around
    any interior point; so dV = prod_l S_l^2 u_l du_l dphi_l.  The cube of u
    is split into the n pyramids of _pyramid_table, whose tau^{n-1} Jacobian
    together with prod_l u_l cancels the O(|xi - x|^{1-2n}) kernel exactly:
    the integrand is smooth in (tau, v) and periodic-analytic in phi.

    Gauss-Legendre of order q = 2V+2 runs in tau and in each v, and
    M_v = max(8, M//2) trapezoid angles per disc, so the rule has
    n q^n M_v^n nodes in C order of (pyramid point, angle of disc 0, ...,
    angle of disc n-1): a grid of pyramid points times angle tuples,
    streamed in the chunks of _blocks.  The spec-only tables are cached
    (_volume_units); x and the domain enter only through the rays
    S_l e^{i phi_l}, tabulated per chunk over its angle tuples with their
    S_l^2 and their weights' product, so xi_l - x_l is a pyramid coordinate
    times a ray and |xi - x|^2 = sum_l u_l^2 S_l^2 is one rank-n gemm a
    chunk.  Every u_l is positive, so no node lands on x.  Yields (Z, C) per
    chunk: the nodes, complex (n, rows), and C (n, 2, rows), row j the
    weights times g_j(xi) as [Re; Im], views of buffers made once per call.
    """
    n = dom.n
    q, M = _volume_sizes(spec)
    U, w_pyr, rays = _volume_units(n, q, M)
    e = x_z - dom.centers
    edotr = (np.conj(e)[:, None] * rays).real
    smax = -edotr + np.sqrt(edotr**2 + dom.radii[:, None] ** 2 - np.abs(e)[:, None] ** 2)
    ray_l, s2_l, disc = smax * rays, smax**2, np.arange(n)[:, None]

    def tuple_tables(sl):
        # per angle tuple of the slice: each disc's ray and its squared length
        # (n, b), and the weights' product times conj(ray) as [Re; Im] rows (n, 2, b)
        angles = np.array(np.unravel_index(np.arange(sl.start, sl.stop), (M,) * n)).reshape(n, -1)
        ray, s2 = ray_l[disc, angles], s2_l[disc, angles]
        w = np.prod(s2 * (2.0 * math.pi / M), axis=0)
        return ray, s2, np.stack((w * ray.real, -w * ray.imag), axis=1)

    rows = CHUNK_DOUBLES // STEM_ROW_DOUBLES
    Zb = np.empty(n * rows, dtype=np.complex128)
    Sb, Kb = _kernel_buffers(n, rows)
    Cb = np.empty(2 * n * rows)
    held = None
    for (p,), sl in _blocks((len(w_pyr), M**n), rows):
        # every chunk takes all M^n tuples unless they exceed its rows, so the
        # tables are made once a call then, and once a chunk of at most rows otherwise
        if sl != held:
            held, (ray, s2, beta) = sl, tuple_tables(sl)
        k, b = len(p), sl.stop - sl.start
        u = U[p].T
        Z = _view(Zb, (n, k, b))
        np.multiply(u[:, :, None], ray[:, None, :], out=Z)
        Z += x_z[:, None, None]
        K = _kernel_factor(u * u, s2, n, _view(Sb, (k, b)), _view(Kb, (k, b)))
        # row j of C is conj(xi_j - x_j) times the weights: a pyramid factor times a tuple factor, times K
        C = _view(Cb, (n, 2, k, b))
        np.multiply((w_pyr[p] * u)[:, None, :, None], beta[:, :, None, :], out=C)
        C *= K
        yield Z.reshape(n, -1), C.reshape(n, 2, -1)


def _directional_sums(F, Z: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_j c_j dbar_j F (dim,) over one chunk of nodes Z (n, rows) with coefficients C (n, 2, rows), by one stencil.

    Per row, |c| = (sum_j |c_j|^2)^(1/2) and the unit v = conj(c)/|c| (every
    c_j of a Duffy node has u_j > 0, so |c| > 0): the sum is |c| times the
    dbar of F along v, which dbar_batch differences with the stencil
    evaluations reduced against |c|.
    """
    norm = np.sqrt(np.einsum("jkr,jkr->r", C, C))
    v = np.empty(C[:, 0].shape, dtype=np.complex128)
    np.divide(C[:, 0], norm, out=v.real)
    np.divide(C[:, 1], -norm, out=v.imag)
    d1, d2 = dbar_batch(F, Z.T, v.T, reduce=lambda G: (norm @ G[0], norm @ G[1]))
    return d1 + 1j * d2


def _bm_volume(f: SliceFunction, dom: PolydiscDomain, z, spec: QuadratureSpec):
    """The volume term's stem value at z (n,) and node count: per chunk, sum_j c_j dbar_j F by the hook per axis, else one directional stencil."""
    z = _check_z(f, dom, z)
    if f.stem.smoothness < Smoothness.C1:
        raise ValueError("volume term needs a C1 stem with Wirtinger derivatives")
    n = dom.n
    count = _check_budget(_volume_count(n, spec))
    chunks = _volume_nodes(dom, z, spec)
    if f.stem.batch_wirtinger is None:
        parts = (_directional_sums(f.stem, Z, C) for Z, C in chunks)
    else:
        parts = (_stem_sums(c, c, dbar_batch(f.stem, Z.T, j)) for Z, C in chunks for j, c in enumerate(C))
    return _reduce(dom.j.tag, parts, scale=math.factorial(n - 1) / math.pi**n), count


def bm_volume_integral(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec) -> AlgebraElement:
    """The dbar correction, signed so that boundary - volume = f(x)."""
    _check_slice(dom, x)
    return lift_value(_bm_volume(f, dom, x.z, spec)[0], dom.j)


# ---------------------------------------------------------------------------
# off-slice evaluation and Hartogs extension


def bm_stem_value(f: SliceFunction, dom: PolydiscDomain, z, spec: QuadratureSpec) -> ComplexifiedElement:
    """The stem value F1(z) + i F2(z) at z = alpha + i beta (n,): the boundary rule's, less the volume term's below Smoothness.ANALYTIC.

    The domain's J plays no part.  lift_value(w, I) is f at alpha + beta I for any unit I as given;
    a SlicePoint's canonical j goes with its own z, conjugated whenever the canonical sign flipped the unit.
    """
    w = _bm_boundary(f, dom, z, spec)[0]
    if f.stem.smoothness < Smoothness.ANALYTIC:
        w = w - _bm_volume(f, dom, z, spec)[0]
    return w


def _lift_at(q_point: SlicePoint, dom: PolydiscDomain, stem_value) -> AlgebraElement:
    """stem_value(q_point.z) lifted to q_point's unit, F1 alone at a real point."""
    if q_point.tag != dom.j.tag:
        raise SliceMismatchError("point algebra does not match domain")
    w = stem_value(q_point.z)
    return w.re if q_point.is_real else lift_value(w, q_point.j)


def off_slice_evaluate(f: SliceFunction, dom: PolydiscDomain, q_point: SlicePoint, spec: QuadratureSpec) -> AlgebraElement:
    """Evaluate f at alpha + beta I from one integral at x = alpha + beta J on the domain's slice: bm_stem_value lifted to I.

    The rule at conj(x) would only give F1 - J F2 again, so it is not integrated.
    """
    return _lift_at(q_point, dom, lambda z: bm_stem_value(f, dom, z, spec))


@dataclass(frozen=True, eq=False)
class HartogsExtension:
    """Evaluator from hartogs_extend: the boundary rule on the contour's faces alone, no volume term, lifted to the point's unit."""

    source: SliceFunction
    contour: PolydiscDomain
    spec: QuadratureSpec

    def __call__(self, q_point: SlicePoint) -> AlgebraElement:
        return _lift_at(q_point, self.contour, lambda z: _bm_boundary(self.source, self.contour, z, self.spec)[0])


def hartogs_extend(f: SliceFunction, dom: PolydiscDomain, hole_radius_fraction: float, spec: QuadratureSpec) -> HartogsExtension:
    """Extension across a concentric polydisc hole via the scaled-boundary integral.

    Needs n >= 2: the one-variable Cauchy integral over the outer circle does
    not reproduce functions with singularities inside the hole.
    hole_radius_fraction is validated to lie in (0, 0.8) and otherwise
    unused: the extension integrates over the scaled outer boundary alone.
    """
    _check_intrinsic(f)
    if dom.n < 2:
        raise HartogsRequiresSeveralVariablesError("extension requires at least two variables")
    if not 0.0 < hole_radius_fraction < 0.8:
        raise ValueError("hole_radius_fraction must lie in (0, 0.8)")
    return HartogsExtension(f, dom.scaled(0.95), spec)


# ---------------------------------------------------------------------------
# reports


def reproduce_check(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec) -> BMReport:
    """Boundary integral against the direct lift, packaged with its node count."""
    _check_slice(dom, x)
    w, nodes = _bm_boundary(f, dom, x.z, spec)
    reproduced, reference = lift_value(w, dom.j), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)


def correction_check(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec) -> BMReport:
    """Boundary integral minus the volume term against the direct lift.

    nodes_used counts the volume rule's nodes.
    """
    _check_slice(dom, x)
    w = _bm_boundary(f, dom, x.z, spec)[0]
    v, nodes = _bm_volume(f, dom, x.z, spec)
    reproduced, reference = lift_value(w - v, dom.j), lift_evaluate(f, x)
    return BMReport(reproduced, reference, (reproduced - reference).norm(), nodes)
