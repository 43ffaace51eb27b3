"""Quaternion and octonion arithmetic from the Cayley-Dickson construction.

Both algebras are obtained by doubling from the reals with the convention

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

which fixes every basis product sign.  The basis multiplication tables are
generated once at import time and frozen; products are table driven, so the
coefficients of a product are exact signed sums of coefficient products
(no rounding beyond the float operations themselves).

The table is stored once, as a dense structure tensor T with
(ab)_k = sum_ij a_i b_j T[i,j,k], which feeds the matmul product kernel; the
index and sign matrices of e_i e_j = S[i,j] e_K[i,j] are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraTag",
    "QUATERNION",
    "OCTONION",
    "parse_algebra",
    "AlgebraMismatchError",
    "AlgebraElement",
    "element",
    "basis",
    "zero",
    "one",
    "scalar",
    "multiply",
    "conjugate",
    "norm",
    "norm_squared",
    "inverse",
    "multiply_batch",
    "left_mult_matrix",
    "right_mult_matrix",
    "multiplication_table",
    "structure_tensor",
    "ImaginaryUnit",
    "unit_from_vector",
    "canonicalize_unit",
    "units_close",
    "sample_unit_imaginary",
    "sample_unit_imaginaries",
    "random_element",
]

TOL_UNIT = 1e-12
# norms below this have no trustworthy inverse in float64
TOL_ZERO_NORM = 1e-300

CANONICAL_COEFF_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AlgebraTag:
    """Identifies one of the two supported algebras."""

    name: str
    dim: int

    def __post_init__(self) -> None:
        if (self.name, self.dim) not in (("quaternion", 4), ("octonion", 8)):
            raise ValueError(f"unsupported algebra {self.name!r} of dim {self.dim}")

    def __str__(self) -> str:
        return self.name


QUATERNION = AlgebraTag("quaternion", 4)
OCTONION = AlgebraTag("octonion", 8)


def parse_algebra(name: str) -> AlgebraTag:
    key = name.strip().lower()
    if key in ("quaternion", "h", "quaternions"):
        return QUATERNION
    if key in ("octonion", "o", "octonions"):
        return OCTONION
    raise ValueError(f"unknown algebra name {name!r}")


class AlgebraMismatchError(ValueError):
    """Two operands belong to different algebras."""


def _check_same_tag(a: "AlgebraElement", b: "AlgebraElement") -> None:
    # tags are nearly always the shared OCTONION or QUATERNION: identity first
    if a.tag is not b.tag and a.tag != b.tag:
        raise AlgebraMismatchError(f"cannot combine {a.tag} with {b.tag}")


# ---------------------------------------------------------------------------
# table construction


def _conj_vec(v: np.ndarray) -> np.ndarray:
    w = v.copy()
    w[1:] = -w[1:]
    return w


def _cd_multiply_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Recursive doubling product on coefficient vectors (dim a power of two)."""
    m = x.shape[0]
    if m == 1:
        return x * y
    h = m // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate(
        [
            _cd_multiply_vec(a, c) - _cd_multiply_vec(_conj_vec(d), b),
            _cd_multiply_vec(d, a) + _cd_multiply_vec(b, _conj_vec(c)),
        ]
    )


def _build_tensor(dim: int) -> np.ndarray:
    tensor = np.zeros((dim, dim, dim), dtype=np.float64)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = 1.0
        for j in range(dim):
            ej = np.zeros(dim)
            ej[j] = 1.0
            prod = _cd_multiply_vec(ei, ej)
            nz = np.nonzero(prod)[0]
            assert nz.size == 1 and abs(prod[nz[0]]) == 1.0
            tensor[i, j] = prod
    tensor.setflags(write=False)
    return tensor


_TENSORS = {4: _build_tensor(4), 8: _build_tensor(8)}
# T reshaped to (dim, dim*dim): row i holds the matrix T[i] of b -> e_i b
_FLAT_TENSORS = {dim: tensor.reshape(dim, dim * dim) for dim, tensor in _TENSORS.items()}


def multiplication_table(tag: AlgebraTag) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) matrices read off the structure tensor: e_i e_j = sign[i,j] * e_{index[i,j]}."""
    T = structure_tensor(tag)
    return np.abs(T).argmax(axis=2), T.sum(axis=2)


def structure_tensor(tag: AlgebraTag) -> np.ndarray:
    """Dense tensor T with (ab)_k = sum_{i,j} a_i b_j T[i,j,k]."""
    return _TENSORS[tag.dim]


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of H or O as a read-only coefficient vector over the basis e_0..e_{dim-1}."""

    tag: AlgebraTag
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.float64)
        if c.shape != (self.tag.dim,):
            raise ValueError(f"expected {self.tag.dim} coefficients, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_tag(self, other)
        return AlgebraElement(self.tag, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_tag(self, other)
        return AlgebraElement(self.tag, self.coeffs - other.coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return AlgebraElement(self.tag, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return AlgebraElement(self.tag, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return AlgebraElement(self.tag, self.coeffs / float(other))
        return NotImplemented

    # -- involution and norms -------------------------------------------------

    def conjugate(self) -> "AlgebraElement":
        c = self.coeffs.copy()
        c[1:] = -c[1:]
        return AlgebraElement(self.tag, c)

    def norm_squared(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def imaginary(self) -> np.ndarray:
        """Coefficients on e_1..e_{dim-1}."""
        return self.coeffs[1:].copy()

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                parts.append(f"{c:+g}" if k == 0 else f"{c:+g}*e{k}")
        body = " ".join(parts) if parts else "0"
        return f"<{self.tag.name} {body}>"


def element(tag: AlgebraTag, coeffs) -> AlgebraElement:
    return AlgebraElement(tag, np.asarray(coeffs, dtype=np.float64))


def basis(tag: AlgebraTag, k: int) -> AlgebraElement:
    c = np.zeros(tag.dim)
    c[k] = 1.0
    return AlgebraElement(tag, c)


def zero(tag: AlgebraTag) -> AlgebraElement:
    return AlgebraElement(tag, np.zeros(tag.dim))


def one(tag: AlgebraTag) -> AlgebraElement:
    return basis(tag, 0)


def scalar(tag: AlgebraTag, t: float) -> AlgebraElement:
    c = np.zeros(tag.dim)
    c[0] = float(t)
    return AlgebraElement(tag, c)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_same_tag(a, b)
    return AlgebraElement(a.tag, multiply_batch(a.tag, a.coeffs, b.coeffs))


def conjugate(a: AlgebraElement) -> AlgebraElement:
    return a.conjugate()


def norm(a: AlgebraElement) -> float:
    return a.norm()


def norm_squared(a: AlgebraElement) -> float:
    return a.norm_squared()


def inverse(a: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse conj(a)/n(a); exact in any alternative composition algebra."""
    n2 = a.norm_squared()
    if n2 < TOL_ZERO_NORM:
        raise ZeroDivisionError("element with vanishing norm has no inverse")
    return AlgebraElement(a.tag, a.conjugate().coeffs / n2)


# ---------------------------------------------------------------------------
# batched operations on (N, dim) coefficient arrays


def multiply_batch(tag: AlgebraTag, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise algebra product of coefficient arrays, broadcasting (dim,) or (1, dim) against (N, dim).

    A single-row factor is one (dim, dim) matrix applied to every row of the
    other in one gemm: B @ (a T) for a left factor a, A @ (b @ T) for a right
    factor b.  Otherwise each row a of A becomes the matrix a T with
    (ab) = b (a T), applied to its row of B by one batched matmul.  The result
    has the broadcast shape of A and B; two (dim,) vectors give a (dim,).
    """
    d = tag.dim
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.size == d:
        out, single = B @ (A.reshape(d) @ _FLAT_TENSORS[d]).reshape(d, d), A
    elif B.size == d:
        out, single = A @ (B.reshape(d) @ _TENSORS[d]), B
    else:
        AT = (A @ _FLAT_TENSORS[d]).reshape(*A.shape[:-1], d, d)
        return (B[..., None, :] @ AT)[..., 0, :]
    # a single row with more axes than the other factor adds leading ones, as broadcasting does
    return out.reshape((1,) * (single.ndim - out.ndim) + out.shape)


def left_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix L with (a*b).coeffs == L @ b.coeffs; each entry is one signed coefficient of a."""
    d = a.tag.dim
    return (a.coeffs @ _FLAT_TENSORS[d]).reshape(d, d).T


def right_mult_matrix(b: AlgebraElement) -> np.ndarray:
    """Matrix R with (a*b).coeffs == R @ a.coeffs; each entry is one signed coefficient of b."""
    # b @ T contracts the middle index: row i is the product e_i b
    return (b.coeffs @ structure_tensor(b.tag)).T


# ---------------------------------------------------------------------------
# imaginary units


@dataclass(frozen=True, eq=False)
class ImaginaryUnit:
    """A square root of -1: zero real part, unit norm."""

    value: AlgebraElement

    def __post_init__(self) -> None:
        c = self.value.coeffs
        if not np.isfinite(c).all():
            raise ValueError("imaginary unit coefficients must be finite")
        if abs(c[0]) > TOL_UNIT:
            raise ValueError(f"imaginary unit has real part {c[0]:.3e}")
        if abs(float(np.dot(c, c)) - 1.0) > TOL_UNIT:
            raise ValueError("imaginary unit must have squared norm 1")

    @property
    def tag(self) -> AlgebraTag:
        return self.value.tag

    @property
    def coeffs(self) -> np.ndarray:
        return self.value.coeffs

    def __neg__(self) -> "ImaginaryUnit":
        return ImaginaryUnit(-self.value)

    def __repr__(self) -> str:
        return f"<unit {self.value!r}>"


def unit_from_vector(tag: AlgebraTag, vec) -> ImaginaryUnit:
    """Normalize an imaginary direction (real slot dropped) into a unit."""
    v = np.asarray(vec, dtype=np.float64)
    if v.shape == (tag.dim,):
        v = v[1:]
    if v.shape != (tag.dim - 1,):
        raise ValueError(f"expected {tag.dim - 1} or {tag.dim} entries, got shape {v.shape}")
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-14:
        raise ValueError("cannot normalize a near-zero imaginary direction")
    c = np.zeros(tag.dim)
    c[1:] = v / nrm
    return ImaginaryUnit(AlgebraElement(tag, c))


def canonicalize_unit(j: ImaginaryUnit) -> tuple[ImaginaryUnit, float]:
    """Flip sign so the first coefficient beyond the threshold is positive.

    Returns (canonical unit, applied sign).  The threshold guards against
    sign decisions driven by float noise in computed directions.
    """
    c = j.coeffs[1:]
    for v in c:
        if abs(v) > CANONICAL_COEFF_THRESHOLD:
            if v < 0.0:
                return -j, -1.0
            return j, 1.0
    return j, 1.0


def units_close(a: ImaginaryUnit, b: ImaginaryUnit, tol: float = TOL_UNIT) -> bool:
    return a.tag == b.tag and bool(np.max(np.abs(a.coeffs - b.coeffs)) <= tol)


def sample_unit_imaginaries(tag: AlgebraTag, count: int, seed_or_rng=0) -> np.ndarray:
    """Uniform sample on the (dim-2)-sphere of imaginary units, as (count, dim) coefficients."""
    rng = np.random.default_rng(seed_or_rng)
    out = np.zeros((count, tag.dim))
    v = rng.standard_normal((count, tag.dim - 1))
    nrm = np.linalg.norm(v, axis=1)
    # resample the (measure-zero) degenerate draws instead of dividing by ~0
    bad = nrm < 1e-12
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), tag.dim - 1))
        nrm = np.linalg.norm(v, axis=1)
        bad = nrm < 1e-12
    out[:, 1:] = v / nrm[:, None]
    return out


def sample_unit_imaginary(tag: AlgebraTag, seed_or_rng=0) -> ImaginaryUnit:
    row = sample_unit_imaginaries(tag, 1, seed_or_rng)[0]
    return ImaginaryUnit(AlgebraElement(tag, row))


def random_element(tag: AlgebraTag, seed_or_rng=0) -> AlgebraElement:
    """Gaussian element with norm clamped to [1e-3, 1e3] so inverses stay well conditioned."""
    rng = np.random.default_rng(seed_or_rng)
    while True:
        c = rng.standard_normal(tag.dim)
        nrm = float(np.linalg.norm(c))
        if 1e-3 <= nrm <= 1e3:
            return AlgebraElement(tag, c)
