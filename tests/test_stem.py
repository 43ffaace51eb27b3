"""Stem functions: evaluation, intrinsicity, Wirtinger calculus, products, restriction, JSON."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hyperslice.algebra import OCTONION, QUATERNION, basis, element, one, zero
from hyperslice.complexified import ComplexifiedElement, c_multiply
from hyperslice.stem import (
    DEFAULT_FD_STEP,
    Domain,
    Smoothness,
    StemFunction,
    central_differences,
    check_intrinsic,
    constant_poly,
    coordinate,
    dbar_batch,
    evaluate_stem,
    evaluate_stem_batch,
    is_holomorphic,
    load_polynomials,
    monomial,
    poly_product,
    restrict_stem,
    stem_polynomial,
    stem_polynomial_from_json,
    stem_polynomial_to_json,
    stem_product,
    wirtinger,
    wirtinger_batch,
)

TAG = OCTONION
E0 = one(TAG)
E1 = basis(TAG, 1)
E3 = basis(TAG, 3)


def test_polynomial_evaluation_by_hand():
    # F(z1, z2) = z1^2 e0 + z2 e3 at (1+2i, -i):
    # (1+2i)^2 = -3+4i, so F = (-3 e0 + 0 e3) + i(4 e0) + (0 - i) e3
    p = stem_polynomial(TAG, 2, {(2, 0): E0, (0, 1): E3})
    w = evaluate_stem(p, np.array([1 + 2j, -1j]))
    expected_re = -3.0 * E0
    expected_im = 4.0 * E0 - E3
    assert (w.re - expected_re).norm() <= 1e-14
    assert (w.im - expected_im).norm() <= 1e-14


def test_degree_and_term_cleanup():
    p = stem_polynomial(TAG, 2, {(2, 1): E0, (0, 0): zero(TAG)})
    assert p.degree == 3
    assert p.exponents.tolist() == [[2, 1]] and p.coefficients.shape == (1, TAG.dim)
    with pytest.raises(ValueError):
        stem_polynomial(TAG, 2, {(1,): E0})  # wrong multi-index length
    with pytest.raises(ValueError):
        stem_polynomial(TAG, 2, {(-1, 0): E0})
    # 1.7 and "2" are refused, not read as exponents 1 and 2; numpy integers are accepted
    for mu in [(1.7, 0), ("2", 0)]:
        with pytest.raises(ValueError, match="integers"):
            stem_polynomial(TAG, 2, {mu: E0})
    assert stem_polynomial(TAG, 2, {(np.int64(2), np.int32(1)): E0}).exponents.tolist() == [[2, 1]]


def _term_sum(p, z):
    """Reference: the term-by-term sum of z^mu a_mu at one point."""
    return sum((complex(np.prod(z ** mu)) * c for mu, c in zip(p.exponents, p.coefficients)), np.zeros(TAG.dim))


def test_batch_evaluation_matches_pointwise():
    rng = np.random.default_rng(3)
    p = stem_polynomial(
        TAG, 3, {(2, 0, 1): E0, (0, 1, 0): E1, (1, 1, 2): element(TAG, rng.standard_normal(8))}
    )
    Z = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    F1, F2 = evaluate_stem_batch(p, Z)
    for k in range(32):
        w = evaluate_stem(p, Z[k])
        np.testing.assert_allclose(F1[k], w.re.coeffs, atol=1e-12)
        np.testing.assert_allclose(F2[k], w.im.coeffs, atol=1e-12)
        ref = _term_sum(p, Z[k])
        np.testing.assert_allclose(F1[k], ref.real, atol=1e-12)
        np.testing.assert_allclose(F2[k], ref.imag, atol=1e-12)
    # edge cases: no terms, a constant, an axis whose exponents are all 0, and N = 0 rows
    edge = [
        stem_polynomial(TAG, 2, {}),
        constant_poly(TAG, 2, element(TAG, rng.standard_normal(8))),
        stem_polynomial(TAG, 3, {(2, 0, 1): E1, (0, 0, 3): element(TAG, rng.standard_normal(8)), (1, 0, 0): E3}),
    ]
    for q in edge:
        Zq = Z[:5, : q.arity]
        F1, F2 = evaluate_stem_batch(q, Zq)
        assert F1.shape == F2.shape == (5, TAG.dim)
        for k in range(5):
            ref = _term_sum(q, Zq[k])
            np.testing.assert_allclose(F1[k], ref.real, atol=1e-12)
            np.testing.assert_allclose(F2[k], ref.imag, atol=1e-12)
        F1, F2 = evaluate_stem_batch(q, Zq[:0])
        assert F1.shape == F2.shape == (0, TAG.dim)
    assert not np.any(evaluate_stem_batch(edge[0], Z[:5, :2])[0])
    assert np.ptp(evaluate_stem_batch(edge[1], Z[:5, :2])[0], axis=0).max() == 0.0


def test_poly_product_is_coefficient_convolution():
    # (z e1)(z e3) must use the e1 e3 product once, in order
    p = monomial(TAG, 1, (1,), E1)
    q = monomial(TAG, 1, (1,), E3)
    pq = poly_product(p, q)
    assert pq.exponents.tolist() == [[2]]
    np.testing.assert_allclose(pq.coefficients[0], (E1 * E3).coeffs)
    # order matters: q*p carries e3 e1 = -e1 e3
    qp = poly_product(q, p)
    np.testing.assert_allclose(qp.coefficients[0], (E3 * E1).coeffs)


def test_poly_product_matches_pointwise_c_multiply():
    rng = np.random.default_rng(8)
    p = stem_polynomial(TAG, 2, {(1, 0): element(TAG, rng.standard_normal(8)), (0, 2): E1})
    q = stem_polynomial(TAG, 2, {(0, 1): element(TAG, rng.standard_normal(8)), (1, 1): E3})
    pq = poly_product(p, q)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = evaluate_stem(pq, z)
        rhs = c_multiply(evaluate_stem(p, z), evaluate_stem(q, z))
        assert (lhs.re - rhs.re).norm() <= 1e-12
        assert (lhs.im - rhs.im).norm() <= 1e-12


def _conj_times(c):
    """The batch hook of conj(z_1) c: the component pair (Re(z_1) c, -Im(z_1) c)."""

    def batch(Z):
        return np.real(Z[:, :1]) * c.coeffs, -np.imag(Z[:, :1]) * c.coeffs

    return batch


def test_intrinsicity_of_polynomials_and_violation():
    p = stem_polynomial(TAG, 2, {(1, 2): element(TAG, np.arange(8.0)), (0, 0): E1})
    report = check_intrinsic(p)
    assert report.passed and report.max_violation <= 1e-14

    # multiplying one component by i breaks F(conj z) = conj(F(z))
    broken = StemFunction(
        arity=1,
        tag=TAG,
        batch_evaluator=lambda Z: (np.zeros((len(Z), TAG.dim)), np.real(Z[:, :1]) * E0.coeffs),
        smoothness=Smoothness.ANALYTIC,
    )
    report = check_intrinsic(broken)
    assert not report.passed


def test_wirtinger_exact_for_polynomials():
    p = stem_polynomial(TAG, 2, {(3, 1): E1, (1, 0): E0})
    z = np.array([0.4 - 0.3j, -0.2 + 0.7j])
    dz, dzbar = wirtinger(p, z, 0)
    z1, z2 = complex(z[0]), complex(z[1])
    expected = 3.0 * z1**2 * z2
    got = complex(dz.re.coeffs[1], dz.im.coeffs[1])
    assert abs(got - expected) <= 1e-12
    assert abs(complex(dz.re.coeffs[0], dz.im.coeffs[0]) - 1.0) <= 1e-12
    assert dzbar.re.norm() + dzbar.im.norm() <= 1e-14


def test_wirtinger_fd_matches_exact():
    p = stem_polynomial(TAG, 2, {(2, 2): E3, (0, 1): E1})
    # route the same function through finite differences only
    fd = StemFunction(arity=2, tag=TAG, batch_evaluator=p.batch_evaluator)
    z = np.array([0.3 + 0.1j, -0.5 - 0.4j])
    for t in (0, 1):
        dz_p, dzbar_p = wirtinger(p, z, t)
        dz_f, dzbar_f = wirtinger(fd, z, t)
        assert (dz_p.re - dz_f.re).norm() <= 1e-8
        assert (dz_p.im - dz_f.im).norm() <= 1e-8
        assert dzbar_f.re.norm() + dzbar_f.im.norm() <= 1e-8


def test_wirtinger_batch_antiholomorphic():
    # F(z) = conj(z) e0 has dz = 0, dzbar = e0
    F = StemFunction(arity=1, tag=TAG, batch_evaluator=_conj_times(E0))
    Z = np.array([[0.2 + 0.3j], [-0.4 + 0.1j], [0.0 - 0.6j]])
    (dz1, dz2), (db1, db2) = wirtinger_batch(F, Z, 0)
    assert np.abs(dz1).max() <= 1e-9 and np.abs(dz2).max() <= 1e-9
    np.testing.assert_allclose(db1, np.tile(E0.coeffs, (3, 1)), atol=1e-9)
    assert np.abs(db2).max() <= 1e-9


def explicit_fd(F, Z, t, h=DEFAULT_FD_STEP):
    """(dz, dzbar) from the four stencil points Z +- h e_t, Z +- i h e_t, each written out as one formula."""
    step = np.zeros(F.arity, dtype=complex)
    step[t] = h
    (ap1, ap2), (am1, am2) = evaluate_stem_batch(F, Z + step), evaluate_stem_batch(F, Z - step)
    (bp1, bp2), (bm1, bm2) = evaluate_stem_batch(F, Z + 1j * step), evaluate_stem_batch(F, Z - 1j * step)
    s = 0.5 / h
    dz = (0.5 * ((ap1 - am1) * s + (bp2 - bm2) * s), 0.5 * ((ap2 - am2) * s - (bp1 - bm1) * s))
    dzbar = (0.5 * ((ap1 - am1) * s - (bp2 - bm2) * s), 0.5 * ((ap2 - am2) * s + (bp1 - bm1) * s))
    return dz, dzbar


def _mixed_stem(tag, n, rng):
    """conj(z_1) z_n^2 c + sin(z_1 + ... + z_n) d: no hooks, dbar nonzero on axis 0 only."""
    c, d = rng.standard_normal(tag.dim), rng.standard_normal(tag.dim)

    def _batch(Z):
        w = np.conj(Z[:, 0]) * Z[:, -1] ** 2
        v = np.sin(Z.sum(axis=1))
        return np.real(w)[:, None] * c + np.real(v)[:, None] * d, np.imag(w)[:, None] * c + np.imag(v)[:, None] * d

    return StemFunction(arity=n, tag=tag, batch_evaluator=_batch, smoothness=Smoothness.C1)


@pytest.mark.parametrize("tag", [OCTONION, QUATERNION])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_fd_derivatives_are_bitwise_the_explicit_formula(tag, n, layout):
    rng = np.random.default_rng(10 * n + tag.dim)
    F = _mixed_stem(tag, n, rng)
    W = rng.uniform(-0.7, 0.7, (n, 37, 2)) @ np.array([1.0, 1j])
    # the volume rule passes Z.T of a C-ordered (n, rows) chunk
    Z = W.T if layout == "transposed" else np.ascontiguousarray(W.T)
    for t in range(n):
        dz, dzbar = explicit_fd(F, Z, t)
        got_dz, got_dzbar = wirtinger_batch(F, Z, t)
        for got, want in zip((*got_dz, *got_dzbar, *dbar_batch(F, Z, t)), (*dz, *dzbar, *dzbar)):
            np.testing.assert_array_equal(got, want)
    # a sanity anchor on the values themselves: dbar_1 of conj(z_1) z_n^2 c is z_n^2 c
    assert np.abs(dbar_batch(F, Z, 0)[0]).max() > 0.01


@pytest.mark.parametrize("tag", [OCTONION, QUATERNION])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dbar_along_directions_is_the_wirtinger_chain_rule(tag, n):
    # along per-row directions d, dbar_batch differences F(Z + s d) in s once,
    # which is sum_j conj(d_j) dbar_j F: along e_t it is the axis stencil to
    # the bit, and along a unit d it matches the per-axis sum at the
    # rounding of one stencil
    rng = np.random.default_rng(20 * n + tag.dim)
    F = _mixed_stem(tag, n, rng)
    Z = rng.uniform(-0.7, 0.7, (37, n, 2)) @ np.array([1.0, 1j])
    for t in range(n):
        e_t = np.zeros((37, n), dtype=complex)
        e_t[:, t] = 1.0
        for got, want in zip(dbar_batch(F, Z, e_t), dbar_batch(F, Z, t)):
            np.testing.assert_array_equal(got, want)
    d = rng.standard_normal((37, n, 2)) @ np.array([1.0, 1j])
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    want1 = want2 = 0.0
    for t in range(n):
        # conj(d_t) (D1 + i D2) in components
        a, (D1, D2) = np.conj(d[:, t])[:, None], dbar_batch(F, Z, t)
        want1, want2 = want1 + a.real * D1 - a.imag * D2, want2 + a.imag * D1 + a.real * D2
    for got, want in zip(dbar_batch(F, Z, d), (want1, want2)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    with pytest.raises(ValueError, match="directions"):
        dbar_batch(F, Z, d[:, :1] if n > 1 else np.ones((36, 1)))


def _fd_outputs_checked(make_batch, expected_dbar):
    """Derivatives of a stem whose arrays must survive them: correct, and the stem's arrays unchanged."""
    returned = []

    def _batch(Z):
        out = make_batch(Z)
        returned.append((out, [a.copy() for a in out]))
        return out

    F = StemFunction(arity=2, tag=QUATERNION, batch_evaluator=_batch, smoothness=Smoothness.C1)
    Z = np.random.default_rng(8).uniform(-0.6, 0.6, (2, 11, 2)) @ np.array([1.0, 1j])
    for _ in range(2):
        for t in (0, 1):
            want = expected_dbar(Z.T, t)
            for got in (dbar_batch(F, Z.T, t), wirtinger_batch(F, Z.T, t)[1]):
                np.testing.assert_allclose(got[0], want[0], atol=1e-9)
                np.testing.assert_allclose(got[1], want[1], atol=1e-9)
            central_differences(F, Z.T, t)
    assert returned
    for out, snapshot in returned:
        for a, b in zip(out, snapshot):
            np.testing.assert_array_equal(a, b)


def test_fd_derivatives_never_write_read_only_stem_outputs():
    # conj(z_1) (1, 1, 1, 1): both components are read-only broadcasts
    def _batch(Z):
        w = np.conj(Z[:, 0])
        return np.broadcast_to(np.real(w)[:, None], (len(Z), 4)), np.broadcast_to(np.imag(w)[:, None], (len(Z), 4))

    def _dbar(Z, t):
        return np.full((len(Z), 4), float(t == 0)), np.zeros((len(Z), 4))

    _fd_outputs_checked(_batch, _dbar)


def test_fd_derivatives_never_write_cached_stem_outputs():
    # conj(z_1) z_2 c, memoized: a repeated point set gets the same writable arrays back
    c = np.array([0.5, -1.0, 2.0, 0.25])
    cache = {}

    def _batch(Z):
        key = Z.tobytes()
        if key not in cache:
            w = np.conj(Z[:, 0]) * Z[:, 1]
            cache[key] = (np.real(w)[:, None] * c, np.imag(w)[:, None] * c)
        return cache[key]

    def _dbar(Z, t):
        v = Z[:, 1] if t == 0 else np.zeros(len(Z))
        return np.real(v)[:, None] * c, np.imag(v)[:, None] * c

    _fd_outputs_checked(_batch, _dbar)
    assert len(cache) == 8  # four stencil points per axis, each met twice


def test_fd_cached_constant_stem_has_zero_derivatives():
    # the same array object on every call: every difference is exactly zero
    F1, F2 = np.full((5, 4), 0.75), np.full((5, 4), -2.0)
    F = StemFunction(arity=2, tag=QUATERNION, batch_evaluator=lambda Z: (F1, F2))
    Z = np.full((5, 2), 0.1 + 0.2j)
    for t in (0, 1):
        for got in (*wirtinger_batch(F, Z, t), dbar_batch(F, Z, t)):
            assert not np.any(got[0]) and not np.any(got[1])
    assert np.all(F1 == 0.75) and np.all(F2 == -2.0)


def _counting_stem(hook: bool):
    """conj(z_1) z_2 e_0 that counts its evaluations and hook calls."""
    calls = []

    def _batch(Z):
        calls.append("eval")
        w = np.conj(Z[:, 0]) * Z[:, 1]
        return np.real(w)[:, None] * E0.coeffs, np.imag(w)[:, None] * E0.coeffs

    def _bw(Z, t):
        calls.append("hook")
        zeros = np.zeros((len(Z), TAG.dim))
        return (zeros, zeros), (zeros, zeros)

    F = StemFunction(arity=2, tag=TAG, batch_evaluator=_batch, batch_wirtinger=_bw if hook else None)
    return F, calls


@pytest.mark.parametrize("fn", [central_differences, wirtinger_batch, dbar_batch])
@pytest.mark.parametrize("hook", [False, True])
@pytest.mark.parametrize("t, h", [(-1, 1e-5), (2, 1e-5), (0, 0.0), (0, -1e-5), (1, float("nan")), (1, float("inf"))])
def test_derivatives_reject_bad_axis_or_step_before_any_stem_call(fn, hook, t, h):
    # an axis outside [0, 2) raises ValueError; the step is fixed at DEFAULT_FD_STEP, so no step
    # argument is accepted, whatever its value
    F, calls = _counting_stem(hook)
    Z = np.array([[0.2 + 0.1j, -0.3 + 0.4j]])
    if 0 <= t < F.arity:
        with pytest.raises(TypeError):
            fn(F, Z, t, h)
    else:
        with pytest.raises(ValueError, match="axis"):
            fn(F, Z, t)
    assert calls == []
    fn(F, Z, 1)
    assert calls == (["hook"] if hook and fn is not central_differences else ["eval"] * 4)


@pytest.mark.parametrize("fn", [central_differences, wirtinger_batch])
@pytest.mark.parametrize("hook", [False, True])
def test_axis_derivatives_refuse_directions_before_any_stem_call(fn, hook):
    # only dbar_batch differences along per-row directions; the others take an axis
    F, calls = _counting_stem(hook)
    Z = np.array([[0.2 + 0.1j, -0.3 + 0.4j]])
    with pytest.raises(ValueError, match="need an axis"):
        fn(F, Z, np.array([[1.0, 0.0]], dtype=complex))
    assert calls == []


def test_is_holomorphic_makes_four_stem_calls_per_axis():
    F, calls = _counting_stem(hook=False)
    assert not is_holomorphic(F).passed
    assert calls == ["eval"] * 8
    F, calls = _counting_stem(hook=True)
    assert is_holomorphic(F).passed and calls == ["hook"] * 2


def test_is_holomorphic_flags():
    p = stem_polynomial(TAG, 2, {(1, 1): E0})
    assert is_holomorphic(p).passed
    F = StemFunction(arity=1, tag=TAG, batch_evaluator=_conj_times(E0))
    rep = is_holomorphic(F)
    assert not rep.passed and abs(rep.max_residual - 1.0) <= 1e-6


def _conj_z_e1():
    """conj(z) e_1: intrinsic, and its dzbar is e_1 everywhere."""
    return StemFunction(arity=1, tag=TAG, batch_evaluator=_conj_times(E1))


def test_is_holomorphic_rejects_empty_samples():
    F = _conj_z_e1()
    assert abs(is_holomorphic(F).max_residual - 1.0) <= 1e-6
    with pytest.raises(ValueError, match="at least one sample"):
        is_holomorphic(F, samples=np.zeros((0, 1)))


def test_check_intrinsic_rejects_empty_samples():
    F = _conj_z_e1()
    assert check_intrinsic(F).samples_checked == 32
    with pytest.raises(ValueError, match="at least one sample"):
        check_intrinsic(F, samples=np.zeros((0, 1)))


def test_is_holomorphic_matches_pointwise_loop():
    # z1 conj(z2) e1 + conj(z1)^2 e3: dzbar is nonzero on both axes and varies over the samples
    def _batch(Z):
        w = Z[:, 0] * np.conj(Z[:, 1])
        v = np.conj(Z[:, 0]) ** 2
        F = w[:, None] * E1.coeffs + v[:, None] * E3.coeffs
        return F.real, F.imag

    F = StemFunction(arity=2, tag=TAG, batch_evaluator=_batch)
    samples = np.random.default_rng(4).uniform(-0.8, 0.8, (9, 2, 2)) @ np.array([1.0, 1j])
    rep = is_holomorphic(F, samples=samples)
    loop = max(wirtinger(F, z, t).dzbar.norm() for z in samples for t in (0, 1))
    assert rep.samples_checked == 9 and not rep.passed
    assert abs(rep.max_residual - loop) <= 1e-12 * loop


def test_wirtinger_poly_built_once_per_axis():
    p = stem_polynomial(TAG, 2, {(2, 1): E1, (0, 3): E3})
    d0, d1 = p.wirtinger_poly(0), p.wirtinger_poly(1)
    assert p.wirtinger_poly(0) is d0 and p.wirtinger_poly(1) is d1
    assert d0.exponents.tolist() == [[1, 1]] and np.array_equal(d0.coefficients, [2.0 * E1.coeffs])
    Z = np.array([[0.3 + 0.1j, -0.2 + 0.5j], [0.6 - 0.4j, 0.1j]])
    (dz1, dz2), _ = p.batch_wirtinger(Z, 1)
    ref1, ref2 = d1.batch_evaluator(Z)
    np.testing.assert_array_equal(dz1, ref1)
    np.testing.assert_array_equal(dz2, ref2)
    with pytest.raises(ValueError):
        p.wirtinger_poly(2)


def test_stem_product_general():
    p = stem_polynomial(TAG, 1, {(1,): E1})
    F = StemFunction(arity=1, tag=TAG, batch_evaluator=p.batch_evaluator)
    G = stem_polynomial(TAG, 1, {(2,): E3})
    H = stem_product(F, G)
    z = np.array([0.7 - 0.2j])
    lhs = evaluate_stem(H, z)
    rhs = c_multiply(evaluate_stem(F, z), evaluate_stem(G, z))
    assert (lhs.re - rhs.re).norm() <= 1e-13
    assert (lhs.im - rhs.im).norm() <= 1e-13


def test_restrict_polynomial_stem():
    p = stem_polynomial(TAG, 3, {(2, 1, 0): E0, (0, 0, 3): E1, (1, 0, 1): E3})
    r = restrict_stem(p, 0, [0.0, 0.5, -2.0])
    assert r.arity == 1
    for z1 in (0.3 + 0.4j, -1.0 - 0.2j):
        full = evaluate_stem(p, np.array([z1, 0.5, -2.0]))
        restricted = evaluate_stem(r, np.array([z1]))
        assert (full.re - restricted.re).norm() <= 1e-12
        assert (full.im - restricted.im).norm() <= 1e-12


def test_restrict_nonreal_anchor_flagged():
    p = stem_polynomial(TAG, 2, {(1, 1): E0})
    r = restrict_stem(p, 0, [0.0, 0.5 + 0.5j])
    assert getattr(r, "intrinsic", True) is False


def test_domain_membership_and_sampling():
    d = Domain.polydisc([1.0, 2.0])
    assert d.contains(np.array([0.5 + 0.5j, -1.0 + 1.0j]))
    assert not d.contains(np.array([1.5, 0.0]))
    ann = Domain.annulus(0.5, 1.0)
    assert ann.contains(np.array([0.75]))
    assert not ann.contains(np.array([0.25]))
    rng = np.random.default_rng(0)
    Z = d.sample_symmetric(rng, 64)
    assert Z.shape == (64, 2)
    for z in Z:
        assert d.contains(z) and d.contains(np.conj(z))


def test_polynomial_json_round_trip(tmp_path):
    p = stem_polynomial(QUATERNION, 2, {(1, 2): element(QUATERNION, [1, 0, -2, 0.5]), (0, 0): one(QUATERNION)})
    blob = stem_polynomial_to_json(p)
    q = stem_polynomial_from_json(blob)
    assert q.tag == p.tag and q.arity == p.arity
    np.testing.assert_array_equal(q.exponents, p.exponents)
    z = np.array([0.2 + 0.1j, -0.4 + 0.9j])
    w1, w2 = evaluate_stem(p, z), evaluate_stem(q, z)
    assert (w1.re - w2.re).norm() == 0.0 and (w1.im - w2.im).norm() == 0.0

    path = tmp_path / "polys.json"
    path.write_text(json.dumps([blob, stem_polynomial_to_json(coordinate(QUATERNION, 1, 0))]))
    loaded = load_polynomials(path)
    assert len(loaded) == 2 and loaded[1].arity == 1


def test_polynomial_algebraic_ops():
    p = stem_polynomial(TAG, 1, {(1,): E0})
    q = constant_poly(TAG, 1, E1)
    s = p + q
    w = evaluate_stem(s, np.array([2.0 + 0j]))
    assert (w.re - (2.0 * E0 + E1)).norm() <= 1e-15
    d = p - p
    assert d.exponents.shape == (0, 1) and d.coefficients.shape == (0, TAG.dim)


def test_polynomial_terms_merged_sorted_and_nonzero():
    # rows come out ascending; equal exponents add, and a sum that cancels is dropped
    p = stem_polynomial(TAG, 2, {(1, 0): E3, (0, 2): E1, (0, 0): E0})
    assert p.exponents.tolist() == [[0, 0], [0, 2], [1, 0]]
    q = stem_polynomial(TAG, 2, {(1, 0): -1.0 * E3, (0, 2): E1})
    s = p + q
    assert s.exponents.tolist() == [[0, 0], [0, 2]]
    np.testing.assert_array_equal(s.coefficients, [E0.coeffs, 2.0 * E1.coeffs])
    # (z1 + z2 e1)(z1 - z2 e1) = z1^2 + z1 z2 (e1 - e1) - z2^2 e1 e1: the z1 z2 term cancels
    a = stem_polynomial(TAG, 2, {(1, 0): E0, (0, 1): E1})
    b = stem_polynomial(TAG, 2, {(1, 0): E0, (0, 1): -1.0 * E1})
    ab = poly_product(a, b)
    assert ab.exponents.tolist() == [[0, 2], [2, 0]]
    np.testing.assert_array_equal(ab.coefficients, [E0.coeffs, E0.coeffs])


def _batch_of_one_stems():
    p = stem_polynomial(TAG, 2, {(2, 1): E1, (0, 3): element(TAG, np.linspace(-1.0, 1.0, 8)), (1, 0): E0})

    def batch(Z):
        w = np.exp(Z[:, 0]) * Z[:, 1]
        return np.real(w)[:, None] * E3.coeffs[None, :], np.imag(w)[:, None] * E3.coeffs[None, :]

    return {
        "polynomial": p,
        "batch_only": StemFunction(arity=2, tag=TAG, batch_evaluator=batch),
        # a scalar hook beside the batch hook, as the benchmark's stems pass one; it is never called
        "scalar_beside_batch": StemFunction(arity=2, tag=TAG, evaluator=_raise, batch_evaluator=batch),
    }


@pytest.mark.parametrize("kind", ["polynomial", "batch_only", "scalar_beside_batch"])
def test_scalar_evaluation_is_batch_of_one(kind):
    F = _batch_of_one_stems()[kind]
    z = np.array([0.3 - 0.7j, -1.1 + 0.2j])
    w = evaluate_stem(F, z)
    F1, F2 = evaluate_stem_batch(F, z[None])
    np.testing.assert_array_equal(w.re.coeffs, F1[0])
    np.testing.assert_array_equal(w.im.coeffs, F2[0])


@pytest.mark.parametrize("tag", [QUATERNION, OCTONION], ids=lambda t: t.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_evaluation_matches_batch_rows(n, tag):
    rng = np.random.default_rng(n)
    terms = {tuple(int(m) for m in rng.integers(0, 4, n)): rng.standard_normal(tag.dim) for _ in range(5)}
    p = stem_polynomial(tag, n, terms)
    Z = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
    # sum over terms of |z^mu| max|a_mu|: the scale of each row's rounding
    scale = np.prod(np.abs(Z)[:, None, :] ** p.exponents[None], axis=2) @ np.abs(p.coefficients).max(axis=1)
    for q in (p, p - p):
        F1, F2 = evaluate_stem_batch(q, Z)
        for k in range(Z.shape[0]):
            w = evaluate_stem(q, Z[k])
            # the scalar call is the batch of one, bit for bit
            B1, B2 = evaluate_stem_batch(q, Z[k : k + 1])
            np.testing.assert_array_equal(w.re.coeffs, B1[0])
            np.testing.assert_array_equal(w.im.coeffs, B2[0])
            # a row of a larger batch differs from it at most by rounding: the
            # coefficient product is a matmul whose rounding depends on N
            tol = 8 * np.finfo(float).eps * scale[k]
            np.testing.assert_allclose(w.re.coeffs, F1[k], rtol=0, atol=tol)
            np.testing.assert_allclose(w.im.coeffs, F2[k], rtol=0, atol=tol)
    assert (p - p).exponents.shape == (0, n)
    assert not np.any(F1) and not np.any(F2)
    F1, F2 = evaluate_stem_batch(p, Z[:0])
    assert F1.shape == F2.shape == (0, tag.dim)


def test_stem_function_needs_an_evaluator():
    with pytest.raises(ValueError, match="batch_evaluator"):
        StemFunction(arity=1, tag=TAG)


@pytest.mark.parametrize(
    "centers, radii",
    [([0.0, np.nan], [1.0, 1.0]), ([np.inf, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [np.nan, 1.0])],
)
def test_domain_rejects_non_finite(centers, radii):
    with pytest.raises(ValueError, match="finite"):
        Domain(np.array(centers), np.array(radii))


def _recording_stem(seen: list) -> StemFunction:
    """F(z) = z_1 conj(z_2) e1, recording every batch of rows it is evaluated at."""

    def batch(Z):
        seen.append(np.array(Z))
        w = Z[:, 0] * np.conj(Z[:, 1])
        return np.real(w)[:, None] * E1.coeffs[None, :], np.imag(w)[:, None] * E1.coeffs[None, :]

    return StemFunction(arity=2, tag=TAG, batch_evaluator=batch)


def test_checks_honour_an_integer_rng():
    # an integer rng seeds the sample draw, as numpy's default_rng does
    from hyperslice.slicefun import check_slice_regular, lift

    seen = []
    f = lift(_recording_stem(seen))
    checks = [check_intrinsic, is_holomorphic, lambda F, rng: check_slice_regular(f, rng=rng)]
    for check in checks:
        runs = []
        for rng in (5, np.random.default_rng(5), None):
            seen.clear()
            check(f.stem, rng=rng)
            runs.append(np.concatenate(seen))
        np.testing.assert_array_equal(runs[0], runs[1])
        assert runs[0].shape == runs[2].shape and not np.array_equal(runs[0], runs[2])


def _raise(*_):
    raise AssertionError("a scalar hook was called after construction")


def test_stems_are_read_through_the_batch_hooks_only():
    # F(z) = conj(z_1) e1 with exact hooks; the scalar hooks beside them raise
    import hyperslice.integral as itg
    from hyperslice.algebra import unit_from_vector
    from hyperslice.slicefun import lift, lift_evaluate, point_from_z

    def batch(Z):
        return np.real(Z[:, 0])[:, None] * E1.coeffs[None, :], -np.imag(Z[:, 0])[:, None] * E1.coeffs[None, :]

    def batch_wirtinger(Z, t):
        zeros = np.zeros((Z.shape[0], TAG.dim))
        return (zeros, zeros), (zeros + (E1.coeffs if t == 0 else 0.0), zeros)

    F = StemFunction(arity=2, tag=TAG, evaluator=_raise, wirtinger_evaluator=_raise, batch_evaluator=batch,
                     batch_wirtinger=batch_wirtinger)
    z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    np.testing.assert_array_equal(evaluate_stem(F, z).im.coeffs, -0.2 * E1.coeffs)
    np.testing.assert_array_equal(wirtinger(F, z, 0).dzbar.re.coeffs, E1.coeffs)
    np.testing.assert_array_equal(wirtinger_batch(F, z[None], 0)[1][0], E1.coeffs[None])
    np.testing.assert_array_equal(dbar_batch(F, z[None], 1)[0], 0.0)
    assert is_holomorphic(F).max_residual == 1.0
    assert check_intrinsic(F).passed
    J = unit_from_vector(TAG, [0.0, 0.6, 0.0, 0.8, 0, 0, 0])
    dom, x, spec, f = itg.PolydiscDomain(np.zeros(2), np.ones(2), J), point_from_z(z, J), itg.QuadratureSpec(16, 8, 1), lift(F)
    value = itg.bm_boundary_integral(f, dom, x, spec) - itg.bm_volume_integral(f, dom, x, spec)
    assert (value - lift_evaluate(f, x)).norm() <= 5e-3


def test_scalar_hook_without_its_batch_hook_is_refused():
    def scalar(z):
        return ComplexifiedElement(E1 * float(np.real(z[0])), zero(TAG))

    def scalar_wirtinger(z, t):
        return ComplexifiedElement(zero(TAG), zero(TAG)), ComplexifiedElement(E1 * float(t == 0), zero(TAG))

    with pytest.raises(ValueError, match="batch_evaluator"):
        StemFunction(arity=2, tag=TAG, evaluator=scalar)
    with pytest.raises(ValueError, match="batch_evaluator"):
        StemFunction(arity=2, tag=TAG, evaluator=scalar, wirtinger_evaluator=scalar_wirtinger)
    with pytest.raises(ValueError, match="batch_wirtinger"):
        StemFunction(arity=2, tag=TAG, batch_evaluator=_conj_times(E1), wirtinger_evaluator=scalar_wirtinger)


def test_scalar_evaluator_beside_batch_evaluator_is_never_called():
    # conj(z_1) z_2 e1 built like the benchmark's finite-difference stem: a scalar evaluator beside
    # the batch one and no derivative hook, so every derivative comes from central differences
    import hyperslice.integral as itg
    from hyperslice.algebra import unit_from_vector
    from hyperslice.slicefun import check_slice_regular, lift, lift_evaluate, point_from_z

    def batch(Z):
        w = np.conj(Z[:, 0]) * Z[:, 1]
        return np.real(w)[:, None] * E1.coeffs[None, :], np.imag(w)[:, None] * E1.coeffs[None, :]

    F = StemFunction(arity=2, tag=TAG, evaluator=_raise, smoothness=Smoothness.C1, batch_evaluator=batch)
    z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    np.testing.assert_array_equal(evaluate_stem(F, z).re.coeffs, batch(z[None])[0][0])
    # dbar_1 of conj(z_1) z_2 e1 is z_2 e1, and dbar_2 is 0
    np.testing.assert_allclose(wirtinger(F, z, 0).dzbar.re.coeffs, -0.1 * E1.coeffs, atol=1e-9)
    np.testing.assert_allclose(dbar_batch(F, z[None], 1)[0], 0.0, atol=1e-9)
    assert not is_holomorphic(F).passed and check_intrinsic(F).passed
    assert not check_slice_regular(lift(F)).passed
    J = unit_from_vector(TAG, [0.0, 0.6, 0.0, 0.8, 0, 0, 0])
    dom, x, spec, f = itg.PolydiscDomain(np.zeros(2), np.ones(2), J), point_from_z(z, J), itg.QuadratureSpec(16, 8, 1), lift(F)
    value = itg.bm_boundary_integral(f, dom, x, spec) - itg.bm_volume_integral(f, dom, x, spec)
    assert (value - lift_evaluate(f, x)).norm() <= 5e-3


EMPTY_DOMAIN_CHECKS = """
import numpy as np
import hyperslice.slicefun as sf
import hyperslice.stem as st
from hyperslice.algebra import OCTONION

def zeros(Z):
    return np.zeros((len(Z), 8)), np.zeros((len(Z), 8))

F = st.StemFunction(arity=1, tag=OCTONION, batch_evaluator=zeros,
                    domain=st.Domain(np.zeros(1), np.ones(1), predicate=lambda z: False))
for check in (st.check_intrinsic, st.is_holomorphic, sf.lift, lambda F: sf.check_slice_regular(sf.SliceFunction(F))):
    try:
        check(F)
    except ValueError as exc:
        assert "symmetric sample points" in str(exc), exc
    else:
        raise AssertionError(f"{check} passed on an empty domain")
print("raised")
"""


def test_empty_domain_sampling_raises():
    # in a child process with a timeout, so a sampler that never stops fails the test instead of hanging it
    out = subprocess.run([sys.executable, "-c", EMPTY_DOMAIN_CHECKS], capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"]
