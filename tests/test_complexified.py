"""Product and involutions of the complexified algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperslice.algebra import OCTONION, QUATERNION, element, multiply, one, zero
from hyperslice.complexified import (
    ComplexifiedElement,
    c_multiply,
    c_multiply_batch,
    complex_conjugate,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def c_involution(w: ComplexifiedElement) -> ComplexifiedElement:
    """w^c: algebra conjugation applied to both components."""
    return ComplexifiedElement(w.re.conjugate(), w.im.conjugate())


def _celements(tag):
    lst = st.lists(finite, min_size=tag.dim, max_size=tag.dim)
    return st.tuples(lst, lst).map(
        lambda p: ComplexifiedElement(element(tag, p[0]), element(tag, p[1]))
    )


def test_product_definition_by_hand():
    # (x + iy)(u + iv) = (xu - yv) + i(xv + yu), checked against plain algebra
    x = element(QUATERNION, [1, 2, 0, 0])
    y = element(QUATERNION, [0, 0, 3, 0])
    u = element(QUATERNION, [2, 0, 0, -1])
    v = element(QUATERNION, [1, 1, 0, 0])
    w = c_multiply(ComplexifiedElement(x, y), ComplexifiedElement(u, v))
    np.testing.assert_allclose(w.re.coeffs, (multiply(x, u) - multiply(y, v)).coeffs)
    np.testing.assert_allclose(w.im.coeffs, (multiply(x, v) + multiply(y, u)).coeffs)


def test_complex_scalar_sanity():
    # with the algebra collapsed to its real axis the product is complex arithmetic:
    # (1 + i)(2 - i) = 3 + i
    one_r = element(QUATERNION, [1, 0, 0, 0])
    a = ComplexifiedElement(one_r, one_r)
    b = ComplexifiedElement(2.0 * one_r, -1.0 * one_r)
    w = a * b
    assert w.re.coeffs[0] == 3.0 and w.im.coeffs[0] == 1.0


@given(_celements(OCTONION), _celements(OCTONION))
def test_c_involution_antiautomorphism(a, b):
    lhs = c_involution(c_multiply(a, b))
    rhs = c_multiply(c_involution(b), c_involution(a))
    assert (lhs.re - rhs.re).norm() <= 1e-9
    assert (lhs.im - rhs.im).norm() <= 1e-9


@given(_celements(OCTONION), _celements(OCTONION))
def test_complex_conjugation_multiplicative(a, b):
    lhs = complex_conjugate(c_multiply(a, b))
    rhs = c_multiply(complex_conjugate(a), complex_conjugate(b))
    assert (lhs.re - rhs.re).norm() <= 1e-9
    assert (lhs.im - rhs.im).norm() <= 1e-9


def test_involutions_commute_and_square_to_identity():
    a = ComplexifiedElement(element(QUATERNION, [1, -2, 3, 0]), element(QUATERNION, [0, 1, 1, -4]))
    for op in (c_involution, complex_conjugate):
        twice = op(op(a))
        assert (twice.re - a.re).norm() == 0.0 and (twice.im - a.im).norm() == 0.0
    ab = c_involution(complex_conjugate(a))
    ba = complex_conjugate(c_involution(a))
    assert (ab.re - ba.re).norm() == 0.0 and (ab.im - ba.im).norm() == 0.0


def test_times_i_and_scalar_action():
    a = ComplexifiedElement(element(QUATERNION, [1, 2, 0, 0]), element(QUATERNION, [0, 0, 1, 0]))
    # i (x + iy) = -y + ix
    ia = a * 1j
    np.testing.assert_array_equal(ia.re.coeffs, -a.im.coeffs)
    np.testing.assert_array_equal(ia.im.coeffs, a.re.coeffs)
    # (p + iq) w = (p re - q im) + i (q re + p im)
    w = a * (2.0 + 3.0j)
    expected = ComplexifiedElement(2.0 * a.re, 2.0 * a.im) + ComplexifiedElement(-3.0 * a.im, 3.0 * a.re)
    assert (w.re - expected.re).norm() <= 1e-12 and (w.im - expected.im).norm() <= 1e-12
    w2 = (2.0 + 3.0j) * a
    assert (w2.re - w.re).norm() == 0.0 and (w2.im - w.im).norm() == 0.0


def test_batch_matches_scalar():
    rng = np.random.default_rng(12)
    A = (rng.standard_normal((20, 8)), rng.standard_normal((20, 8)))
    B = (rng.standard_normal((20, 8)), rng.standard_normal((20, 8)))
    re, im = c_multiply_batch(OCTONION, A, B)
    for k in range(20):
        w = c_multiply(
            ComplexifiedElement(element(OCTONION, A[0][k]), element(OCTONION, A[1][k])),
            ComplexifiedElement(element(OCTONION, B[0][k]), element(OCTONION, B[1][k])),
        )
        np.testing.assert_allclose(re[k], w.re.coeffs, atol=1e-12)
        np.testing.assert_allclose(im[k], w.im.coeffs, atol=1e-12)


@pytest.mark.parametrize("tag", [QUATERNION, OCTONION], ids=lambda t: t.name)
def test_scalar_product_is_row_zero_of_a_batch_of_one(tag):
    # one product path in A (x) C: c_multiply is c_multiply_batch on one row, bit for bit
    rng = np.random.default_rng(tag.dim)
    for _ in range(10):
        a, b = (ComplexifiedElement(*(element(tag, rng.standard_normal(tag.dim)) for _ in "ri")) for _ in "ab")
        w = c_multiply(a, b)
        re, im = c_multiply_batch(tag, (a.re.coeffs[None], a.im.coeffs[None]), (b.re.coeffs[None], b.im.coeffs[None]))
        np.testing.assert_array_equal(w.re.coeffs, re[0])
        np.testing.assert_array_equal(w.im.coeffs, im[0])


def test_constants_and_norm():
    z = ComplexifiedElement(zero(OCTONION), zero(OCTONION))
    o = ComplexifiedElement(one(OCTONION), zero(OCTONION))
    assert z.norm() == 0.0
    assert o.norm() == 1.0
    a = ComplexifiedElement(element(OCTONION, [3, 0, 0, 0, 4, 0, 0, 0]), zero(OCTONION))
    assert a.norm() == 5.0
    b = ComplexifiedElement(element(OCTONION, [3, 0, 0, 0, 0, 0, 0, 0]), element(OCTONION, [0, 0, 4, 0, 0, 0, 0, 0]))
    assert b.norm() == 5.0


def test_mismatched_tags_rejected():
    a = ComplexifiedElement(one(OCTONION), zero(OCTONION))
    b = ComplexifiedElement(one(QUATERNION), zero(QUATERNION))
    with pytest.raises(Exception):
        c_multiply(a, b)
