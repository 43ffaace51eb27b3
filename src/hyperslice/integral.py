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
and the volume rule's dbar F are B = F with A the identity (with no dbar
hook, the moments of F's stencil evaluations are differenced), a
StemPolynomial's are the real and imaginary parts of its monomials w^mu with
A its coefficients.  Both rules sum the moments in chunk order and finish
them once per call, contracting A once; a call is held to NODE_BUDGET nodes.

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
fold's 4T doubles an outer node for T terms exceed the last factor's
columns.  From n = 3 K is an exponential sum (Beylkin & Monzon, ACHA 28,
2010), so the faces factor too: one exponential table a disc and no node
(_separable_faces).  Any other stem's faces are folded over conjugation: the
grid is closed under it and an intrinsic stem has F(conj xi) = conj F(xi),
so each face evaluates the stem at half of its circle angles and reduces
each node against its own and its mirror's coefficient (_pair_sums).
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

from .algebra import (
    AlgebraElement,
    ImaginaryUnit,
    canonicalize_unit,
    element,
    left_mult_matrix,
    units_close,
)
from .complexified import ComplexifiedElement
from .slicefun import IntrinsicityError, SliceFunction, SlicePoint, lift_evaluate, lift_value, slice_point
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
    nodes_used: int  #: the rule's node count, not the values a call forms (n >= 3 polynomial faces form fewer)


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


def _node_sums(c: np.ndarray, F: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Moments of one chunk of nodes, the halves (2, dim) of [Re c; Im c] @ [F1 | F2], for c (rows, 2), each node's Re c and Im c, and F1, F2 (rows, dim)."""
    F1, F2 = F
    return c.T @ F1, c.T @ F2


def _pair_sums(C: np.ndarray, F: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Moments (2, 2 dim) of one folded chunk: C (2, 2, rows) is [Re c; Im c] of each evaluated node xi and of its mirror conj(xi).

    An intrinsic stem has F(conj xi) = F1(xi) - i F2(xi), so the pair
    contributes (c + c') F1 + i (c - c') F2: F1 is reduced against c + c'
    and F2 against c - c', both from one gemm per component over the four rows.
    """
    # (dim, 4) products: numpy's gemm for F^T C^T is faster than for C F at these shapes
    G1, G2 = (part.T @ C.reshape(4, -1).T for part in F)
    return np.vstack((G1[:, :2] + G1[:, 2:], G2[:, :2] - G2[:, 2:])).T


# rows Re(c) Re(m), Re(c) Im(m), Im(c) Re(m), Im(c) Im(m) from rows Re X, Im X, Re Y, Im Y of
# X = c m and Y = c conj(m): c m + c conj(m) = 2 Re(m) c and c m - c conj(m) = 2i Im(m) c
_CONJUGATE_PAIR = 0.5 * np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0, 1.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.0]]
)


def _monomial_sums(Q_outer: np.ndarray, Q_last: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Moments (2, 2T) of one polynomial chunk: B1 and B2 are the real and imaginary parts of the monomials m = w^mu.

    A node's coefficient times [m; conj m] is its discs' columns of
    _power_tables times the kernel factor K.  Q_outer (2T, k) is the chunk's
    outer nodes' fold, Q_last (2T, b) the last disc's columns, which transpose
    to C order, and K (k, b): G = K Q_last^T sums each outer node's nodes of
    the chunk, one real gemm through a float view, and summing Q_outer[:, i]
    G[i] over the outer nodes gives X = sum c m and Y = sum c conj(m).
    """
    G = (K @ Q_last.T.view(np.float64)).view(np.complex128)
    return _conjugate_pair(np.einsum("ti,it->t", Q_outer, G))


def _conjugate_pair(S: np.ndarray) -> np.ndarray:
    """Moments (2, 2T), rows Re(c) [Re m | Im m] and Im(c) [Re m | Im m], from S = [X; Y] (2T,) complex, X = sum c m and Y = sum c conj(m)."""
    T = S.shape[0] // 2
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


def _check_point(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint) -> None:
    _check_intrinsic(f)
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
    """K = (A^T B)^-n for rank-2 factors A (..., 2, k) and B (..., 2, b), written into the caller's S and K (..., k, b).

    A^T B is a chunk's squared distance |xi - x|^2 spread over its k outer
    nodes and b last-factor columns by one gemm.  On a boundary face it is
    [d_outer; 1]^T [1; d_last] (_distance_factors), which rounds each entry
    once, as a broadcast np.add does, without the add's iterator buffers.
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


def _distance_factors(d_outer: np.ndarray, d_last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2 factors [d_outer; 1] (..., 2, k) and [1; d_last] (..., 2, b), whose product is d_outer[i] + d_last[j]."""
    A = np.ones(d_outer.shape[:-1] + (2, d_outer.shape[-1]))
    B = np.ones(d_last.shape[:-1] + (2, d_last.shape[-1]))
    A[..., 0, :], B[..., 1, :] = d_outer, d_last
    return A, B


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
    """Each disc's weights times its power table, Q_l = w_l [P_l; conj P_l] (2T, M + R M); from disc fortran_from on Fortran-ordered, so column slices transpose to C order."""
    T, Q = len(stem.exponents), []
    for l in range(V.shape[0]):
        Q.append(np.empty((2 * T, V.shape[1]), dtype=np.complex128, order="F" if l >= fortran_from else "C"))
        # row by row: numpy 2.4 buffers a broadcast product, slowly on a Fortran-ordered table
        for t, p in enumerate(stem.power_columns(l, V[l])):
            np.multiply(W[l], p, out=Q[l][t])
            np.multiply(W[l], np.conj(p), out=Q[l][T + t])
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
    """Moments (2, 2T) of a StemPolynomial's faces, face 0 first, forming n Q (M + R M) exponentials within NODE_BUDGET.

    A node's s = sum_l D_l lies in [min_k (r_k - e_k)^2, sum_l (r_l + e_l)^2] for e = |x - c|, positive
    by INTERIOR_MARGIN, where K = s^-n = sum_q a_q prod_l exp(-b_q D_l) (_exponential_sum).  So disc l's
    E_l = exp(-b D_l) (Q, M + R M) serves every face: one real gemm each gives its circle and interior sums
    P_l = Q_l E_l^T (2T, Q), and face k's X = sum c m, Y = sum c conj(m) are (P_k^circle prod_{l!=k} P_l^interior) a.
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
    return [_conjugate_pair(a @ functools.reduce(np.multiply, [circle[k]] + interior[:k] + interior[k + 1 :])) for k in range(n)]


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
    self-conjugate angles 0 and pi.  It yields (Z, C) per chunk: the nodes,
    complex (n, rows), and C (2, 2, rows), [Re c; Im c] and [Re c'; Im c'],
    which _pair_sums reduces against the stem values at Z alone.

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
            # K holds 1 double a node and Q_outer 4T an outer node of b nodes, so
            # CHUNK_DOUBLES // max(b, 4T) outer nodes keep both within CHUNK_DOUBLES
            b = min(shape[-1], CHUNK_DOUBLES)
            rows = CHUNK_DOUBLES * b // max(b, 4 * T)
            for idx, sl in _blocks(shape, rows):
                d_outer, d_last = _fold(np.add, dists, idx), dists[-1][:, sl]
                size = (d_outer.shape[1], d_last.shape[1])
                K_chunk = _kernel_factor(*_distance_factors(d_outer, d_last), n, _view(S, size), _view(K, size))
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
    Cb = np.empty(4 * rows)
    for k in range(n):
        discs = [k] + [l for l in range(n) if l != k]
        cols = [slice(None, H)] + [slice(M, None)] * (n - 1)
        nodes = [V[l, c] for l, c in zip(discs, cols)]
        weights = [np.stack((W[k, :H], W[k, mirror[:H]])) * half] + [np.broadcast_to(W[l, M:], (2, RM)) for l in discs[1:]]
        dists = [DD[:, l, c] for l, c in zip(discs, cols)]
        # the last factor's weight pair as [Re; Im] rows (2, 2, len), the right factor of the coefficient gemm
        last_w = np.stack((weights[-1].real, weights[-1].imag), axis=1)
        for idx, sl in _blocks(tuple(len(v) for v in nodes), rows):
            a, d = _fold(np.multiply, weights, idx), _fold(np.add, dists, idx)
            size = (a.shape[1], sl.stop - sl.start)
            Z = _view(Zb, (n,) + size)
            for l, v, i in zip(discs, nodes, idx):
                Z[l] = v[i][:, None]
            Z[discs[-1]] = nodes[-1][sl]
            K = _kernel_factor(*_distance_factors(d, dists[-1][:, sl]), n, _view(Sb, (2,) + size), _view(Kb, (2,) + size))
            # [Re; Im] of a_i w_j for each pair row as one real gemm: [[Re a, -Im a]; [Im a, Re a]] [Re w; Im w]
            L = np.empty((2, 2, size[0], 2))
            L[:, 0, :, 0] = L[:, 1, :, 1] = a.real
            L[:, 0, :, 1] = -a.imag
            L[:, 1, :, 0] = a.imag
            C = _view(Cb, (2, 2) + size)
            np.matmul(L.reshape(2, 2 * size[0], 2), last_w[:, :, sl], out=C.reshape(2, 2 * size[0], size[1]))
            C *= K[:, None]
            yield Z.reshape(n, -1), C.reshape(2, 2, -1)


# ---------------------------------------------------------------------------
# boundary integral


def _bm_boundary_both(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
    _check_point(f, dom, x)
    count = _boundary_count(dom.n, spec)
    if isinstance(f.stem, StemPolynomial) and dom.n >= 3:
        return (*_reduce(dom.j, _separable_faces(dom, spec, x.z, f.stem), f.stem.coefficients), count)
    _check_budget(count)
    # a chunk is reduced before the generator refills the call's buffers with the next
    chunks = _face_nodes(dom, spec, x.z, f.stem)
    if isinstance(f.stem, StemPolynomial):
        return (*_reduce(dom.j, itertools.starmap(_monomial_sums, chunks), f.stem.coefficients), count)
    return (*_reduce(dom.j, (_pair_sums(C, evaluate_stem_batch(f.stem, Z.T)) for Z, C in chunks)), count)


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


@functools.lru_cache(maxsize=None)
def _volume_units(n: int, q: int, M: int):
    """Spec-only tables of the volume rule; cached, so read-only.

    The pyramid table of _pyramid_table(n, q), and the unit rays
    e^{i phi} (n, M) of each disc's M angles, offset by a fixed jitter, the
    draws of default_rng(0).
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
    n q^n M_v^n nodes in C order of (pyramid point, angle of disc 0, ...,
    angle of disc n-1), streamed in the chunks of _blocks.  The spec-only
    tables are cached (_volume_units); x and the domain enter only through
    the rays S_l e^{i phi_l}, so xi_l - x_l is a pyramid coordinate times a
    ray, and |xi - x|^2 = sum_l u_l^2 S_l^2.  Every u_l is positive, so no
    node lands on x.  Yields (Z, C) per chunk: the nodes, complex (n, rows),
    and C (n, 2, rows), row j the weights times g_j(xi) as [Re; Im], views of
    buffers made once per call.
    """
    n = dom.n
    q, M = _volume_sizes(spec)
    U, w_pyr, rays = _volume_units(n, q, M)
    x_z = x.z
    e = x_z - dom.centers
    edotr = (np.conj(e)[:, None] * rays).real
    smax = -edotr + np.sqrt(edotr**2 + dom.radii[:, None] ** 2 - np.abs(e)[:, None] ** 2)
    ray = smax * rays
    s2 = smax**2
    w_ang = s2 * (2.0 * math.pi / M)
    # the last disc's factors of |xi - x|^2 and of each row of C, over its angles
    B = np.stack((np.ones(M), s2[-1]))
    beta = np.empty((n, 2, M))
    beta[:-1] = w_ang[-1]
    beta[-1] = w_ang[-1] * ray[-1].real, -w_ang[-1] * ray[-1].imag
    rows = CHUNK_DOUBLES // STEM_ROW_DOUBLES
    Zb = np.empty(n * rows, dtype=np.complex128)
    Sb, Kb = _kernel_buffers(n, rows)
    Cb = np.empty(2 * n * rows)
    for idx, sl in _blocks((len(w_pyr),) + (M,) * n, rows):
        p, k, b = idx[0], len(idx[0]), sl.stop - sl.start
        # the outer nodes' angles of discs 0..n-2, and their rays and weights
        ang = (np.arange(n - 1)[:, None], np.array(idx[1:], dtype=np.intp).reshape(n - 1, k))
        u = U[p].T
        d_outer = u[:-1] * ray[ang]
        w_outer = w_pyr[p] * np.prod(w_ang[ang], axis=0)
        Z = _view(Zb, (n, k, b))
        Z[:-1] = (x_z[:-1, None] + d_outer)[:, :, None]
        np.multiply(u[-1, :, None], ray[-1, sl], out=Z[-1])
        Z[-1] += x_z[-1]
        A = np.stack((np.sum(u[:-1] ** 2 * s2[ang], axis=0), u[-1] ** 2))
        K = _kernel_factor(A, B[:, sl], n, _view(Sb, (k, b)), _view(Kb, (k, b)))
        # row j of C is conj(xi_j - x_j) times the weights: an outer factor times a last-disc factor, times K
        alpha = np.empty((n, 2, k))
        alpha[:-1, 0], alpha[:-1, 1] = w_outer * d_outer.real, -w_outer * d_outer.imag
        alpha[-1] = w_outer * u[-1]
        C = _view(Cb, (n, 2, k, b))
        np.multiply(alpha[..., None], beta[:, :, None, sl], out=C)
        C *= K
        yield Z.reshape(n, -1), C.reshape(n, 2, -1)


def _bm_volume_both(f: SliceFunction, dom: PolydiscDomain, x: SlicePoint, spec: QuadratureSpec):
    """Routes, stem value and node count of the volume term: moments of c_j against dbar_j F, per stencil evaluation if no hook."""
    _check_point(f, dom, x)
    if f.stem.smoothness < Smoothness.C1:
        raise ValueError("volume term needs a C1 stem with Wirtinger derivatives")
    n = dom.n
    count = _check_budget(_volume_count(n, spec))
    chunks = _volume_nodes(dom, x, spec)
    parts = (np.hstack(dbar_batch(f.stem, Z.T, jx, reduce=functools.partial(_node_sums, c.T)))
             for Z, C in chunks for jx, c in enumerate(C))
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

