"""Doubling-construction arithmetic against an independent nested-pair oracle.

The oracle below builds products by literal recursion on pairs, with no shared
code or representation with the library (which works on flat coefficient
vectors).  The expected tables are frozen literals; both the oracle and the
library must reproduce them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperslice.algebra as alg
from hyperslice.algebra import (
    OCTONION,
    QUATERNION,
    AlgebraElement,
    AlgebraMismatchError,
    ImaginaryUnit,
    basis,
    canonicalize_unit,
    conjugate,
    element,
    inverse,
    left_mult_matrix,
    multiplication_table,
    multiply,
    multiply_batch,
    one,
    parse_algebra,
    right_mult_matrix,
    sample_unit_imaginaries,
    sample_unit_imaginary,
    structure_tensor,
    unit_from_vector,
    zero,
)

# frozen expected tables: entry (i, j) is (index, sign) of e_i e_j
FROZEN_H = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1)],
    [(2, 1), (3, -1), (0, -1), (1, 1)],
    [(3, 1), (2, 1), (1, -1), (0, -1)],
]

FROZEN_O = [
    [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1), (5, 1), (4, -1), (7, -1), (6, 1)],
    [(2, 1), (3, -1), (0, -1), (1, 1), (6, 1), (7, 1), (4, -1), (5, -1)],
    [(3, 1), (2, 1), (1, -1), (0, -1), (7, 1), (6, -1), (5, 1), (4, -1)],
    [(4, 1), (5, -1), (6, -1), (7, -1), (0, -1), (1, 1), (2, 1), (3, 1)],
    [(5, 1), (4, 1), (7, -1), (6, 1), (1, -1), (0, -1), (3, -1), (2, 1)],
    [(6, 1), (7, 1), (4, 1), (5, -1), (2, -1), (3, 1), (0, -1), (1, -1)],
    [(7, 1), (6, -1), (5, 1), (4, 1), (3, -1), (2, -1), (1, 1), (0, -1)],
]


# --- oracle: nested-pair doubling, scalars at the leaves ---------------------


def _o_conj(a):
    if isinstance(a, float):
        return a
    return (_o_conj(a[0]), _o_neg(a[1]))


def _o_neg(a):
    if isinstance(a, float):
        return -a
    return (_o_neg(a[0]), _o_neg(a[1]))


def _o_add(a, b):
    if isinstance(a, float):
        return a + b
    return (_o_add(a[0], b[0]), _o_add(a[1], b[1]))


def _o_mul(a, b):
    if isinstance(a, float):
        return a * b
    p, q = a
    r, s = b
    return (
        _o_add(_o_mul(p, r), _o_neg(_o_mul(_o_conj(s), q))),
        _o_add(_o_mul(s, p), _o_mul(q, _o_conj(r))),
    )


def _o_basis(dim, i):
    if dim == 1:
        return 1.0 if i == 0 else 0.0
    half = dim // 2
    if i < half:
        return (_o_basis(half, i), _o_basis(half, -1))
    return (_o_basis(half, -1), _o_basis(half, i - half))


def _o_flatten(a, out):
    if isinstance(a, float):
        out.append(a)
    else:
        _o_flatten(a[0], out)
        _o_flatten(a[1], out)
    return out


def _oracle_table(dim):
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            flat = _o_flatten(_o_mul(_o_basis(dim, i), _o_basis(dim, j)), [])
            (k,) = [t for t, v in enumerate(flat) if v != 0.0]
            row.append((k, int(flat[k])))
        table.append(row)
    return table


def test_oracle_reproduces_frozen_tables():
    assert _oracle_table(4) == FROZEN_H
    assert _oracle_table(8) == FROZEN_O


@pytest.mark.parametrize("tag,frozen", [(QUATERNION, FROZEN_H), (OCTONION, FROZEN_O)])
def test_library_table_matches_frozen(tag, frozen):
    index, sign = multiplication_table(tag)
    for i in range(tag.dim):
        for j in range(tag.dim):
            assert (int(index[i, j]), int(sign[i, j])) == frozen[i][j]


def test_structure_tensor_consistent_with_table():
    for tag in (QUATERNION, OCTONION):
        T = structure_tensor(tag)
        index, sign = multiplication_table(tag)
        for i in range(tag.dim):
            for j in range(tag.dim):
                k, s = index[i, j], sign[i, j]
                expected = np.zeros(tag.dim)
                expected[k] = s
                np.testing.assert_array_equal(T[i, j], expected)


def test_low_index_products():
    for tag, i, j, expected in ((OCTONION, 1, 2, (3, 1)), (OCTONION, 2, 1, (3, -1)), (QUATERNION, 1, 2, (3, 1))):
        index, sign = multiplication_table(tag)
        assert (int(index[i, j]), int(sign[i, j])) == expected


def test_nonassociating_witness_triple():
    e1, e2, e4 = basis(OCTONION, 1), basis(OCTONION, 2), basis(OCTONION, 4)
    left = multiply(multiply(e1, e2), e4)
    right = multiply(e1, multiply(e2, e4))
    np.testing.assert_allclose(left.coeffs, basis(OCTONION, 7).coeffs)
    np.testing.assert_allclose(right.coeffs, -basis(OCTONION, 7).coeffs)


def test_octonion_nonassociating_triple_count():
    bad = 0
    for i in range(8):
        for j in range(8):
            for k in range(8):
                a, b, c = basis(OCTONION, i), basis(OCTONION, j), basis(OCTONION, k)
                d = multiply(multiply(a, b), c) - multiply(a, multiply(b, c))
                bad += d.norm() > 0
    assert bad == 168


def test_quaternion_basis_fully_associative():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a, b, c = basis(QUATERNION, i), basis(QUATERNION, j), basis(QUATERNION, k)
                d = multiply(multiply(a, b), c) - multiply(a, multiply(b, c))
                assert d.norm() == 0.0


# --- element-level properties ------------------------------------------------

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def _elements(tag):
    return st.lists(finite, min_size=tag.dim, max_size=tag.dim).map(lambda c: element(tag, c))


@given(_elements(OCTONION), _elements(OCTONION))
def test_random_product_matches_oracle(a, b):
    nested_a = _nest(list(a.coeffs))
    nested_b = _nest(list(b.coeffs))
    expected = _o_flatten(_o_mul(nested_a, nested_b), [])
    np.testing.assert_allclose(multiply(a, b).coeffs, expected, atol=1e-9)


def _nest(flat):
    if len(flat) == 1:
        return float(flat[0])
    half = len(flat) // 2
    return (_nest(flat[:half]), _nest(flat[half:]))


@given(_elements(OCTONION), _elements(OCTONION))
def test_norm_composition(a, b):
    lhs = multiply(a, b).norm_squared()
    rhs = a.norm_squared() * b.norm_squared()
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


@given(_elements(OCTONION), _elements(OCTONION))
def test_conjugate_antiautomorphism(a, b):
    lhs = conjugate(multiply(a, b))
    rhs = multiply(conjugate(b), conjugate(a))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


@given(_elements(OCTONION), _elements(OCTONION))
def test_alternativity(a, b):
    ab = multiply(a, b)
    left = multiply(a, ab) - multiply(multiply(a, a), b)
    right = multiply(ab, b) - multiply(a, multiply(b, b))
    assert left.norm() <= 1e-9
    assert right.norm() <= 1e-9


@given(_elements(QUATERNION), _elements(QUATERNION), _elements(QUATERNION))
def test_quaternions_associative(a, b, c):
    d = multiply(multiply(a, b), c) - multiply(a, multiply(b, c))
    assert d.norm() <= 1e-8


def test_inverse_two_sided():
    rng = np.random.default_rng(11)
    for tag in (QUATERNION, OCTONION):
        for _ in range(200):
            a = alg.random_element(tag, rng)
            ia = inverse(a)
            assert (multiply(a, ia) - one(tag)).norm() <= 1e-10
            assert (multiply(ia, a) - one(tag)).norm() <= 1e-10


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(zero(OCTONION))


def test_trace_and_real():
    a = element(OCTONION, [2.5, 1, 0, 0, -1, 0, 0, 3])
    assert a.real == 2.5
    np.testing.assert_array_equal(a.imaginary(), [1, 0, 0, -1, 0, 0, 3])


def test_multiply_batch_matches_scalar():
    rng = np.random.default_rng(4)
    for tag in (QUATERNION, OCTONION):
        A = rng.standard_normal((40, tag.dim))
        B = rng.standard_normal((40, tag.dim))
        batch = multiply_batch(tag, A, B)
        for row in range(40):
            single = multiply(element(tag, A[row]), element(tag, B[row]))
            np.testing.assert_allclose(batch[row], single.coeffs, atol=1e-12)
    # (dim,) against (N, dim) broadcasting
    b = rng.standard_normal(8)
    batch = multiply_batch(OCTONION, A, b)
    np.testing.assert_allclose(batch[3], multiply(element(OCTONION, A[3]), element(OCTONION, b)).coeffs)
    # a batch of one, and one row broadcast against N rows on either side
    a = rng.standard_normal(8)
    single = multiply(element(OCTONION, a), element(OCTONION, b)).coeffs
    np.testing.assert_array_equal(multiply_batch(OCTONION, a[None, :], b[None, :]), single[None, :])
    np.testing.assert_array_equal(multiply_batch(OCTONION, a, b), single)
    for lhs, rhs in ((a[None, :], A), (A, b[None, :])):
        batch = multiply_batch(OCTONION, lhs, rhs)
        assert batch.shape == (40, 8)
        for row in range(40):
            expected = multiply(element(OCTONION, np.broadcast_to(lhs, (40, 8))[row]), element(OCTONION, np.broadcast_to(rhs, (40, 8))[row]))
            np.testing.assert_allclose(batch[row], expected.coeffs, atol=1e-12)


@pytest.mark.parametrize("tag", [QUATERNION, OCTONION], ids=lambda t: t.name)
def test_multiply_batch_against_structure_tensor(tag):
    d = tag.dim
    rng = np.random.default_rng(5)
    shapes = [
        ((7, d), (d,), (7, d)),
        ((7, d), (1, d), (7, d)),
        ((d,), (7, d), (7, d)),
        ((1, d), (7, d), (7, d)),
        ((d,), (d,), (d,)),
        ((5, 1, d), (1, 3, d), (5, 3, d)),
        ((5, 1, d), (1, 1, d), (5, 1, d)),
        ((1, 1, d), (1, 3, d), (1, 3, d)),
    ]
    for a_shape, b_shape, out_shape in shapes:
        A, B = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        got = multiply_batch(tag, A, B)
        assert got.shape == out_shape, (a_shape, b_shape)
        want = np.einsum("...i,...j,ijk->...k", A, B, structure_tensor(tag))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # a single-row factor is its (dim, dim) multiplication matrix, applied to every row in one gemm
    A = rng.standard_normal((1000, d))
    a, b = alg.random_element(tag, rng), alg.random_element(tag, rng)
    for row in (b.coeffs, b.coeffs[None, :]):
        np.testing.assert_array_equal(multiply_batch(tag, A, row), A @ right_mult_matrix(b).T)
    for row in (a.coeffs, a.coeffs[None, :]):
        np.testing.assert_array_equal(multiply_batch(tag, row, A), A @ left_mult_matrix(a).T)


def test_mult_matrices():
    rng = np.random.default_rng(9)
    for tag in (QUATERNION, OCTONION):
        a = alg.random_element(tag, rng)
        b = alg.random_element(tag, rng)
        ab = multiply(a, b).coeffs
        L, R = left_mult_matrix(a), right_mult_matrix(b)
        np.testing.assert_allclose(L @ b.coeffs, ab, atol=1e-12)
        np.testing.assert_allclose(R @ a.coeffs, ab, atol=1e-12)
        # each entry is one signed coefficient of the fixed factor
        assert set(np.abs(L).ravel()) <= set(np.abs(a.coeffs))
        assert set(np.abs(R).ravel()) <= set(np.abs(b.coeffs))


def test_mixed_tags_rejected():
    with pytest.raises(AlgebraMismatchError):
        multiply(one(OCTONION), one(QUATERNION))


def test_tag_checks_compare_values_not_identity():
    from hyperslice.complexified import ComplexifiedElement

    # a tag built anew is equal to OCTONION but not the same object
    fresh = alg.AlgebraTag("octonion", 8)
    assert fresh is not OCTONION and fresh == OCTONION
    a, b = element(fresh, np.arange(8.0)), basis(OCTONION, 3)
    np.testing.assert_array_equal((a + b).coeffs, np.arange(8.0) + np.eye(8)[3])
    np.testing.assert_array_equal((b - a).coeffs, np.eye(8)[3] - np.arange(8.0))
    assert ComplexifiedElement(a, b).tag == OCTONION
    q = one(QUATERNION)
    for combine in (lambda: a + q, lambda: q - a, lambda: ComplexifiedElement(a, q), lambda: ComplexifiedElement(q, b)):
        with pytest.raises(AlgebraMismatchError):
            combine()


def test_parse_algebra_aliases():
    assert parse_algebra("octonion") == OCTONION
    assert parse_algebra("O") == OCTONION
    assert parse_algebra("Quaternion") == QUATERNION
    assert parse_algebra("h") == QUATERNION
    with pytest.raises(ValueError):
        parse_algebra("sedenion")


def test_unit_sampling_deterministic_and_unit_norm():
    rows1 = sample_unit_imaginaries(OCTONION, 64, 123)
    rows2 = sample_unit_imaginaries(OCTONION, 64, 123)
    np.testing.assert_array_equal(rows1, rows2)
    assert rows1.shape == (64, 8)
    np.testing.assert_allclose(np.linalg.norm(rows1, axis=1), 1.0, atol=1e-12)
    assert np.all(rows1[:, 0] == 0.0)


def test_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(element(OCTONION, [0.5, 1, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        ImaginaryUnit(element(OCTONION, [0, 2, 0, 0, 0, 0, 0, 0]))
    u = unit_from_vector(OCTONION, [3.0, 4.0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(u.coeffs[1:3], [0.6, 0.8])


def test_canonicalize_unit_sign():
    u = unit_from_vector(OCTONION, [-1.0, 0, 0, 0, 0, 0, 0])
    cu, sign = canonicalize_unit(u)
    assert sign == -1.0
    assert cu.coeffs[1] == 1.0
    cu2, sign2 = canonicalize_unit(cu)
    assert sign2 == 1.0 and (cu2.value - cu.value).norm() == 0.0


def test_element_arithmetic_dunders():
    a = element(QUATERNION, [1, 2, 3, 4])
    b = element(QUATERNION, [0, 1, 0, -1])
    np.testing.assert_array_equal((a + b).coeffs, [1, 3, 3, 3])
    np.testing.assert_array_equal((a - b).coeffs, [1, 1, 3, 5])
    np.testing.assert_array_equal((-a).coeffs, [-1, -2, -3, -4])
    np.testing.assert_array_equal((2.0 * a).coeffs, (a * 2.0).coeffs)
    np.testing.assert_array_equal((a / 2).coeffs, [0.5, 1, 1.5, 2])
    assert (a * b - multiply(a, b)).norm() == 0.0


def test_coeffs_are_locked():
    a = element(QUATERNION, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        a.coeffs[0] = 99.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_imaginary_unit_rejects_non_finite(bad):
    c = np.zeros(8)
    c[1] = bad
    with pytest.raises(ValueError, match="finite"):
        ImaginaryUnit(element(OCTONION, c))
    with pytest.raises(ValueError, match="finite"):
        ImaginaryUnit(element(OCTONION, np.full(8, bad)))
