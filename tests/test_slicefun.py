"""Slice points, lifts, representation formulas, spherical operators, products, zeros."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperslice.algebra as alg
import hyperslice.slicefun as sf
import hyperslice.stem as stm
from hyperslice.algebra import OCTONION, basis, element, one

TAG = OCTONION
E0, E1, E2, E3 = one(TAG), basis(TAG, 1), basis(TAG, 2), basis(TAG, 3)


def _unit(vec):
    return alg.unit_from_vector(TAG, vec)


def _conj_times(c):
    """The batch hook of conj(z_1) c: the component pair (Re(z_1) c, -Im(z_1) c)."""

    def batch(Z):
        return np.real(Z[:, :1]) * c.coeffs, -np.imag(Z[:, :1]) * c.coeffs

    return batch


# --- points -------------------------------------------------------------------


def test_slice_point_canonicalization_same_point():
    J = _unit([1.0, 1.0, 0, 0, 0, 0, 0])
    a = sf.slice_point([0.5], [2.0], J)
    b = sf.slice_point([0.5], [-2.0], -J)
    assert np.allclose(a.alpha, b.alpha) and np.allclose(a.beta, b.beta)
    assert (a.j.value - b.j.value).norm() == 0.0
    np.testing.assert_allclose(a.components()[0].coeffs, b.components()[0].coeffs)


def test_slice_point_arrays_are_read_only():
    x = sf.slice_point([0.5, -0.2], [2.0, 0.3], _unit([1.0, 1.0, 0, 0, 0, 0, 0]))
    np.testing.assert_array_equal(x.z, x.alpha + 1j * x.beta)
    for arr in (x.alpha, x.beta, x.z):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_decompose_point_two_variables():
    J = _unit([0.0, 3.0, 4.0, 0, 0, 0, 0])
    x1 = 0.5 * E0 + alg.multiply(alg.scalar(TAG, 2.0), J.value)
    x2 = -1.0 * E0 + alg.multiply(alg.scalar(TAG, -0.25), J.value)
    p = sf.decompose_point([x1, x2])
    assert not p.is_real
    np.testing.assert_allclose(p.alpha, [0.5, -1.0])
    # beta J must reassemble the imaginary parts exactly
    for l, x in enumerate((x1, x2)):
        im = x - alg.scalar(TAG, x.real)
        np.testing.assert_allclose((p.j.value * p.beta[l]).coeffs, im.coeffs, atol=1e-14)


def test_decompose_point_real_tuple():
    p = sf.decompose_point([alg.scalar(TAG, 1.5), alg.scalar(TAG, -2.0)])
    assert p.is_real
    np.testing.assert_allclose(p.alpha, [1.5, -2.0])


def test_decompose_point_rejects_non_coplanar():
    x1 = 0.5 * E0 + E1
    x2 = -1.0 * E0 + E2
    with pytest.raises(sf.NotInSliceConeError):
        sf.decompose_point([x1, x2])


# --- lift and representation ----------------------------------------------


def test_lift_evaluate_one_variable_by_hand():
    # f(x) = x^2 at x = 1 + 2 e1: (1 + 2e1)^2 = 1 + 4 e1 - 4
    p = stm.stem_polynomial(TAG, 1, {(2,): E0})
    f = sf.lift(p)
    x = sf.slice_point([1.0], [2.0], _unit([1, 0, 0, 0, 0, 0, 0]))
    expected = alg.multiply(E0 + 2.0 * E1, E0 + 2.0 * E1)
    assert (f(x) - expected).norm() <= 1e-14
    np.testing.assert_allclose(expected.coeffs, (-3.0 * E0 + 4.0 * E1).coeffs)


def test_lift_well_defined_under_flip():
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E3, (2, 0): E1})
    f = sf.lift(p)
    J = _unit([0.2, -0.4, 0.7, 0, 0, 0.5, 0])
    a = sf.slice_point([0.3, -0.1], [0.8, 0.5], J)
    b = sf.slice_point([0.3, -0.1], [-0.8, -0.5], -J)
    assert (f(a) - f(b)).norm() <= 1e-15


def test_lift_rejects_non_intrinsic_stem():
    broken = stm.StemFunction(
        arity=1,
        tag=TAG,
        batch_evaluator=lambda Z: (np.imag(Z[:, :1]) * E0.coeffs, np.zeros((len(Z), TAG.dim))),
    )
    with pytest.raises(sf.IntrinsicityError):
        sf.lift(broken)


def test_real_point_evaluation_uses_even_part():
    p = stm.stem_polynomial(TAG, 1, {(1,): E1, (0,): E0})
    f = sf.lift(p)
    x = sf.slice_point([0.75], [0.0], _unit([1, 0, 0, 0, 0, 0, 0]))
    assert x.is_real
    assert (f(x) - (E0 + 0.75 * E1)).norm() <= 1e-15


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_representation_recovers_values(seed):
    rng = np.random.default_rng(seed)
    p = stm.stem_polynomial(
        TAG,
        2,
        {
            (1, 0): element(TAG, rng.standard_normal(8)),
            (0, 2): element(TAG, rng.standard_normal(8)),
            (2, 1): element(TAG, rng.standard_normal(8)),
        },
    )
    f = sf.lift(p)
    I, J, K = (alg.sample_unit_imaginary(TAG, rng) for _ in range(3))
    if (J.value - K.value).norm() < 0.15:
        return
    alpha = rng.uniform(-1, 1, 2)
    beta = rng.uniform(-1, 1, 2)
    fJ = f(sf.slice_point(alpha, beta, J))
    fK = f(sf.slice_point(alpha, beta, K))
    rep = sf.representation(fJ, fK, I, J, K)
    direct = f(sf.slice_point(alpha, beta, I))
    assert (rep - direct).norm() <= 1e-11


def test_representation_degenerate_units_raise():
    J = _unit([1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(sf.DegenerateUnitsError):
        sf.representation(E0, E0, J, J, J)


def test_symmetric_formula_agrees_with_general():
    rng = np.random.default_rng(21)
    p = stm.stem_polynomial(TAG, 1, {(3,): E1, (1,): E0})
    f = sf.lift(p)
    for _ in range(25):
        I, J = (alg.sample_unit_imaginary(TAG, rng) for _ in range(2))
        alpha, beta = rng.uniform(-1, 1, 1), rng.uniform(0.2, 1, 1)
        fJ = f(sf.slice_point(alpha, beta, J))
        fmJ = f(sf.slice_point(alpha, beta, -J))
        g = sf.representation(fJ, fmJ, I, J, -J)
        s = sf.representation_symmetric(fJ, fmJ, I, J)
        assert (g - s).norm() <= 1e-13


def _random_lift(tag, n, rng):
    terms = {tuple(int(m) for m in rng.integers(0, 4, n)): rng.standard_normal(tag.dim) for _ in range(5)}
    return sf.lift(stm.stem_polynomial(tag, n, terms))


@pytest.mark.parametrize("tag", [alg.QUATERNION, alg.OCTONION], ids=lambda t: t.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_evaluate_batch_rows_match_lift_evaluate(n, tag):
    rng = np.random.default_rng(30 + n)
    f = _random_lift(tag, n, rng)
    alpha, beta = rng.uniform(-0.8, 0.8, (40, n)), rng.uniform(-0.8, 0.8, (40, n))
    units = alg.sample_unit_imaginaries(tag, 40, rng)
    rows = sf.lift_evaluate_batch(f, alpha + 1j * beta, units)
    assert rows.shape == (40, tag.dim)
    for k in range(40):
        value = sf.lift_evaluate(f, sf.slice_point(alpha[k], beta[k], alg.ImaginaryUnit(element(tag, units[k]))))
        assert np.linalg.norm(rows[k] - value.coeffs) <= 1e-15 * (1.0 + value.norm())
    # (beta, I) and (-beta, -I) are the same point, bit for bit, with no canonical sign
    np.testing.assert_array_equal(sf.lift_evaluate_batch(f, alpha - 1j * beta, -units), rows)


@pytest.mark.parametrize("tag", [alg.QUATERNION, alg.OCTONION], ids=lambda t: t.name)
def test_lift_evaluate_batch_broadcasts_one_row(tag):
    rng = np.random.default_rng(33)
    f = _random_lift(tag, 2, rng)
    Z = rng.uniform(-0.8, 0.8, (25, 2)) + 1j * rng.uniform(-0.8, 0.8, (25, 2))
    units = alg.sample_unit_imaginaries(tag, 25, rng)
    # one z against many units, and many z against one unit
    for Zb, Ub in ((Z[:1], units), (Z, units[:1])):
        rows = sf.lift_evaluate_batch(f, Zb, Ub)
        assert rows.shape == (25, tag.dim)
        full = sf.lift_evaluate_batch(f, np.broadcast_to(Zb, Z.shape), np.broadcast_to(Ub, units.shape))
        np.testing.assert_allclose(rows, full, rtol=0, atol=1e-14)


@pytest.mark.parametrize("tag", [alg.QUATERNION, alg.OCTONION], ids=lambda t: t.name)
def test_sphere_values_is_one_product_batch(tag):
    # the right-factor gemm of multiply_batch, the call perfbench times as algebra.multiply_batch
    rng = np.random.default_rng(34)
    f = _random_lift(tag, 2, rng)
    x = sf.slice_point(rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.8, 0.8, 2), alg.sample_unit_imaginary(tag, rng))
    U = alg.sample_unit_imaginaries(tag, 1000, rng)
    w = stm.evaluate_stem(f.stem, x.z)
    F1, F2 = w.re.coeffs, w.im.coeffs
    np.testing.assert_array_equal(sf.sphere_values(f, x, U), F1 + alg.multiply_batch(tag, U, F2[None]))


@pytest.mark.parametrize("tag", [alg.QUATERNION, alg.OCTONION], ids=lambda t: t.name)
def test_representation_batch_rows_match_element_calls(tag):
    rng = np.random.default_rng(35)
    f = _random_lift(tag, 2, rng)
    N = 30
    Z = rng.uniform(-0.8, 0.8, (N, 2)) + 1j * rng.uniform(-0.8, 0.8, (N, 2))
    I, J, K = (alg.sample_unit_imaginaries(tag, N, rng) for _ in range(3))
    keep = np.linalg.norm(J - K, axis=1) >= 0.2
    Z, I, J, K = Z[keep], I[keep], J[keep], K[keep]
    fJ, fK, fmJ = (sf.lift_evaluate_batch(f, Z, u) for u in (J, K, -J))
    general = sf.representation_batch(tag, fJ, fK, I, J, K)
    symmetric = sf.representation_symmetric_batch(tag, fJ, fmJ, I, J)
    assert general.shape == symmetric.shape == (int(keep.sum()), tag.dim)
    for k in range(general.shape[0]):
        el = [element(tag, v[k]) for v in (fJ, fK, fmJ)]
        Ik, Jk, Kk = (alg.ImaginaryUnit(element(tag, u[k])) for u in (I, J, K))
        want = sf.representation(el[0], el[1], Ik, Jk, Kk)
        assert np.linalg.norm(general[k] - want.coeffs) <= 1e-14 * (1.0 + want.norm())
        want = sf.representation_symmetric(el[0], el[2], Ik, Jk)
        assert np.linalg.norm(symmetric[k] - want.coeffs) <= 1e-14 * (1.0 + want.norm())
    # one degenerate row fails the whole batch
    K[3] = J[3]
    with pytest.raises(sf.DegenerateUnitsError):
        sf.representation_batch(tag, fJ, fK, I, J, K)


def test_representation_rejects_mixed_algebras():
    Jq = alg.unit_from_vector(alg.QUATERNION, [1.0, 0.0, 0.0])
    J, K = _unit([1, 0, 0, 0, 0, 0, 0]), _unit([0, 1, 0, 0, 0, 0, 0])
    with pytest.raises(alg.AlgebraMismatchError):
        sf.representation(E0, E0, Jq, J, K)
    with pytest.raises(alg.AlgebraMismatchError):
        sf.representation_symmetric(one(alg.QUATERNION), E0, J, J)


# --- spherical operators -------------------------------------------------


def test_spherical_identity_and_constancy():
    rng = np.random.default_rng(17)
    p = stm.stem_polynomial(TAG, 2, {(2, 1): E3, (0, 1): E0})
    f = sf.lift(p)
    x = sf.slice_point([0.4, -0.2], [0.5, 0.9], alg.sample_unit_imaginary(TAG, rng))
    value, deriv = sf.spherical(f, x)
    recon = value + alg.multiply(sf.imaginary_element(x), deriv)
    assert (recon - f(x)).norm() <= 1e-14
    # definitional check at another unit of the same sphere
    I = alg.sample_unit_imaginary(TAG, rng)
    y = sf.slice_point(x.alpha, x.beta, I)
    yb = sf.slice_point(x.alpha, -x.beta, I)
    v2 = (f(y) + f(yb)) * 0.5
    d2 = alg.multiply(I.value * (-0.5 / float(np.linalg.norm(x.beta))), f(y) - f(yb))
    assert (v2 - value).norm() <= 1e-14
    assert (d2 - deriv).norm() <= 1e-14


def test_spherical_derivative_real_point_raises():
    f = sf.lift(stm.coordinate(TAG, 1, 0))
    x = sf.slice_point([0.3], [0.0], _unit([1, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(sf.RealPointError):
        sf.spherical_derivative(f, x)
    assert (sf.spherical_value(f, x) - 0.3 * E0).norm() <= 1e-15


# --- products ---------------------------------------------------------------


def test_star_product_matches_slice_product_on_slices():
    rng = np.random.default_rng(33)
    p = stm.stem_polynomial(TAG, 1, {(1,): E1, (0,): E0})
    q = stm.stem_polynomial(TAG, 1, {(2,): E2, (1,): E3})
    # slice_product multiplies stem values; poly_product convolves coefficients
    star = sf.lift(stm.poly_product(p, q))
    prod = sf.slice_product(sf.lift(p), sf.lift(q))
    for _ in range(50):
        x = sf.slice_point(rng.uniform(-1, 1, 1), rng.uniform(0.1, 1, 1), alg.sample_unit_imaginary(TAG, rng))
        assert (star(x) - prod(x)).norm() <= 1e-13


def test_product_with_real_stem_is_pointwise():
    rng = np.random.default_rng(34)
    realp = stm.stem_polynomial(TAG, 1, {(2,): alg.scalar(TAG, 1.5), (0,): alg.scalar(TAG, -0.5)})
    q = stm.stem_polynomial(TAG, 1, {(1,): E2})
    f, g = sf.lift(realp), sf.lift(q)
    prod = sf.slice_product(f, g)
    for _ in range(20):
        x = sf.slice_point(rng.uniform(-1, 1, 1), rng.uniform(0.1, 1, 1), alg.sample_unit_imaginary(TAG, rng))
        assert (prod(x) - alg.multiply(f(x), g(x))).norm() <= 1e-13


def test_product_not_pointwise_in_general():
    f = sf.lift(stm.constant_poly(TAG, 1, E1))
    g = sf.lift(stm.monomial(TAG, 1, (1,), E2))
    prod = sf.slice_product(f, g)
    x = sf.slice_point([0.3], [0.7], _unit([0, 0, 1.0, 0, 0, 0, 0]))
    gap = (prod(x) - alg.multiply(f(x), g(x))).norm()
    assert gap > 1.0  # 2 * beta exactly, here 1.4


def test_leibniz_for_spherical_derivative():
    rng = np.random.default_rng(35)
    p = stm.stem_polynomial(TAG, 1, {(2,): E1, (1,): E0})
    q = stm.stem_polynomial(TAG, 1, {(1,): E3, (0,): E2})
    f, g = sf.lift(p), sf.lift(q)
    prod = sf.slice_product(f, g)
    for _ in range(20):
        x = sf.slice_point(rng.uniform(-1, 1, 1), rng.uniform(0.2, 1, 1), alg.sample_unit_imaginary(TAG, rng))
        vf, df = sf.spherical(f, x)
        vg, dg = sf.spherical(g, x)
        lhs = sf.spherical_derivative(prod, x)
        rhs = alg.multiply(df, vg) + alg.multiply(vf, dg)
        assert (lhs - rhs).norm() <= 1e-12


# --- regularity --------------------------------------------------------------


def test_polynomials_are_slice_regular():
    rng = np.random.default_rng(40)
    p = stm.stem_polynomial(TAG, 2, {(2, 1): element(TAG, rng.standard_normal(8)), (1, 0): E1})
    rep = sf.check_slice_regular(sf.lift(p), tol=1e-8)
    assert rep.passed


def test_antiholomorphic_residual_is_two_norms():
    a = element(TAG, [0.5, -1.0, 0, 0.25, 0, 0, 2.0, 0])
    F = stm.StemFunction(arity=1, tag=TAG, batch_evaluator=_conj_times(a))
    rep = sf.check_slice_regular(sf.SliceFunction(stem=F))
    assert not rep.passed
    assert abs(rep.max_residual - 2.0 * a.norm()) <= 1e-6


def test_check_slice_regular_rejects_empty_samples():
    # conj(z) e_1 fails at residual 1.0 on the default samples; no samples is no evidence
    F = stm.StemFunction(arity=1, tag=TAG, batch_evaluator=_conj_times(E1))
    rep = sf.check_slice_regular(sf.SliceFunction(stem=F))
    assert not rep.passed and abs(rep.stem_residual - 1.0) <= 1e-6
    with pytest.raises(ValueError, match="at least one sample"):
        sf.check_slice_regular(sf.SliceFunction(stem=F), samples=np.zeros((0, 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_slice_regular_makes_four_stem_calls_per_axis(n):
    # z_1 ... z_n e1 with no derivative hook: both residuals come from one stencil per axis,
    # and the stem residual is the one is_holomorphic measures on the same samples
    calls = []

    def _batch(Z):
        calls.append(len(Z))
        w = np.prod(Z, axis=1)
        return np.real(w)[:, None] * E1.coeffs, np.imag(w)[:, None] * E1.coeffs

    F = stm.StemFunction(arity=n, tag=TAG, batch_evaluator=_batch)
    samples = np.random.default_rng(n).uniform(-0.8, 0.8, (8, n, 2)) @ np.array([1.0, 1j])
    rep = sf.check_slice_regular(sf.SliceFunction(F), samples=samples)
    assert calls == [8] * (4 * n)
    assert rep.passed and rep.stem_residual == stm.is_holomorphic(F, samples=samples).max_residual


def test_check_slice_regular_measures_the_stem_residual():
    # conj(z_1) c whose derivative hook claims dbar = 0: the measured residual is |dbar_1| = |c|
    c = element(TAG, [0.5, -1.0, 0, 0.25, 0, 0, 2.0, 0])

    def _wrong_hook(Z, t):
        zeros = np.zeros((len(Z), TAG.dim))
        return (zeros, zeros), (zeros, zeros)

    F = stm.StemFunction(arity=2, tag=TAG, batch_evaluator=_conj_times(c), batch_wirtinger=_wrong_hook)
    assert stm.is_holomorphic(F).max_residual == 0.0
    rep = sf.check_slice_regular(sf.SliceFunction(F))
    assert not rep.passed and abs(rep.stem_residual - c.norm()) <= 1e-6


def test_nan_residual_fails_holomorphy_and_regularity():
    # z_1 e_1 with a NaN value in row 0 of every batch; max(0.0, nan) is 0.0, so a
    # Python max fold would report this stem as holomorphic and slice regular
    def _batch(Z):
        F = Z[:, :1] * E1.coeffs
        F[0] = np.nan
        return F.real, F.imag

    F = stm.StemFunction(arity=2, tag=TAG, batch_evaluator=_batch)
    hol = stm.is_holomorphic(F)
    assert np.isnan(hol.max_residual) and not hol.passed
    reg = sf.check_slice_regular(sf.SliceFunction(stem=F))
    assert np.isnan(reg.max_residual) and np.isnan(reg.stem_residual) and not reg.passed


def test_restrict_slice_polynomial():
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E1, (0, 1): E0})
    f = sf.lift(p)
    r = sf.restrict_slice(f, 0, [0.0, 0.5])
    assert r.arity == 1 and r.stem.intrinsic
    J = _unit([0, 1.0, 0, 0, 0, 0, 0])
    x1 = sf.slice_point([0.3], [0.4], J)
    full = f(sf.slice_point([0.3, 0.5], [0.4, 0.0], J))
    assert (r(x1) - full).norm() <= 1e-13
    with pytest.raises(sf.NonIntrinsicRestrictionError):
        sf.restrict_slice(f, 0, [0.0, 0.5 + 1.0j])


# --- zero sets on spheres ------------------------------------------------


@pytest.mark.parametrize("tag", [alg.QUATERNION, alg.OCTONION], ids=lambda t: t.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_values_match_lift(n, tag):
    rng = np.random.default_rng(10 + n)
    terms = {tuple(int(m) for m in rng.integers(0, 4, n)): rng.standard_normal(tag.dim) for _ in range(5)}
    f = sf.lift(stm.stem_polynomial(tag, n, terms))
    units = alg.sample_unit_imaginaries(tag, 1000, rng)
    I0 = alg.ImaginaryUnit(element(tag, units[0]))
    alpha, beta = rng.uniform(-0.8, 0.8, n), rng.uniform(-0.8, 0.8, n)
    for x in (sf.slice_point(alpha, beta, I0), sf.slice_point(alpha, np.zeros(n), I0)):
        vals = sf.sphere_values(f, x, units)
        assert vals.shape == (1000, tag.dim)
        for row, u in zip(vals, units):
            I = alg.ImaginaryUnit(element(tag, u))
            expected = sf.lift_evaluate(f, sf.slice_point(x.alpha, x.beta, I)).coeffs
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)


def test_zero_classification_fixed_cases():
    J = _unit([0.0, 0.6, 0.8, 0, 0, 0, 0])
    f_sphere = sf.lift(stm.stem_polynomial(TAG, 1, {(2,): E0, (0,): E0}))
    r = sf.classify_sphere_zeros(f_sphere, sf.slice_point([0.0], [1.0], J))
    assert r.kind == sf.ZeroKind.SPHERICAL

    f_point = sf.lift(stm.stem_polynomial(TAG, 1, {(1,): E0, (0,): -2.0 * E1}))
    r = sf.classify_sphere_zeros(f_point, sf.slice_point([0.0], [2.0], J))
    assert r.kind == sf.ZeroKind.POINT
    np.testing.assert_allclose(r.point.components()[0].coeffs, (2.0 * E1).coeffs, atol=1e-12)
    assert (sf.lift_evaluate(f_point, r.point)).norm() <= 1e-12

    f_empty = sf.lift(stm.constant_poly(TAG, 1, 3.0 * E0 + E1))
    r = sf.classify_sphere_zeros(f_empty, sf.slice_point([0.2], [0.7], J))
    assert r.kind == sf.ZeroKind.EMPTY

    f_real = sf.lift(stm.coordinate(TAG, 1, 0))
    r = sf.classify_sphere_zeros(f_real, sf.slice_point([0.0], [0.0], J))
    assert r.kind == sf.ZeroKind.REAL_ZERO


def test_zero_empty_odd_only():
    # F1 = 0 but F2 nonzero forces the empty verdict through the candidate path
    f = sf.lift(stm.coordinate(TAG, 1, 0))
    J = _unit([1.0, 0, 0, 0, 0, 0, 0])
    r = sf.classify_sphere_zeros(f, sf.slice_point([0.0], [1.0], J))
    assert r.kind == sf.ZeroKind.EMPTY


def test_zero_classification_against_minimizer():
    # scipy searches the sphere for min |f|; classification must agree
    from scipy.optimize import minimize

    rng = np.random.default_rng(77)
    units0 = alg.sample_unit_imaginaries(TAG, 256, rng)

    def sphere_min(f, x):
        # the stem value at x is the same for every unit, so evaluate it and its
        # right-multiplication matrix once; the objective then does the arithmetic
        # of sf.sphere_values on one row, one 8x8 product per step
        w = stm.evaluate_stem(f.stem, x.z)
        RT, w_re = alg.right_mult_matrix(w.im).T, w.re.coeffs

        def objective(v):
            nrm = np.linalg.norm(v)
            row = np.zeros(8)
            row[1:] = v / nrm
            return np.linalg.norm(row @ RT + w_re)

        best = np.inf
        vals = np.linalg.norm(sf.sphere_values(f, x, units0), axis=1)
        for idx in np.argsort(vals)[:4]:
            res = minimize(objective, units0[idx][1:], method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
            best = min(best, res.fun)
        return best

    for trial in range(12):
        terms = {
            (d,): element(TAG, rng.standard_normal(8))
            for d in range(int(rng.integers(1, 4)) + 1)
        }
        f = sf.lift(stm.stem_polynomial(TAG, 1, terms))
        x = sf.slice_point(rng.uniform(-1, 1, 1), [float(rng.uniform(0.2, 1.2))],
                           alg.sample_unit_imaginary(TAG, rng))
        res = sf.classify_sphere_zeros(f, x)
        lo = sphere_min(f, x)
        if res.kind == sf.ZeroKind.EMPTY:
            assert lo > 1e-8, f"trial {trial}: classifier says empty, minimizer found {lo:.2e}"
        elif res.kind == sf.ZeroKind.POINT:
            assert lo <= 1e-7
            assert sf.lift_evaluate(f, res.point).norm() <= 1e-7
        elif res.kind == sf.ZeroKind.SPHERICAL:
            assert lo <= 1e-7

    # engineered point zero: (z - p) with p = 1.3 e2 on the matching sphere
    p_el = 1.3 * E2
    f = sf.lift(stm.stem_polynomial(TAG, 1, {(1,): E0, (0,): -p_el}))
    x = sf.slice_point([0.0], [1.3], alg.sample_unit_imaginary(TAG, rng))
    res = sf.classify_sphere_zeros(f, x)
    assert res.kind == sf.ZeroKind.POINT
    assert sphere_min(f, x) <= 1e-8
    np.testing.assert_allclose(res.point.components()[0].coeffs, p_el.coeffs, atol=1e-12)


def test_zero_classification_scan_agreement_bulk():
    rng = np.random.default_rng(55)
    units = alg.sample_unit_imaginaries(TAG, 10_000, rng)
    from hyperslice.suites import _scan_consistent

    for _ in range(50):
        terms = {
            (d,): element(TAG, rng.standard_normal(8)) for d in range(int(rng.integers(1, 4)) + 1)
        }
        f = sf.lift(stm.stem_polynomial(TAG, 1, terms))
        x = sf.slice_point(rng.uniform(-1, 1, 1), [float(rng.uniform(0.1, 1.5))],
                           alg.sample_unit_imaginary(TAG, rng))
        res = sf.classify_sphere_zeros(f, x)
        assert _scan_consistent(f, x, res, units)


@pytest.mark.parametrize(
    "alpha, beta",
    [([np.nan, 0.1], [0.2, 0.3]), ([0.1, 0.2], [np.inf, 0.3]), ([0.1, -np.inf], [0.0, 0.0]), ([0.1, 0.2], [0.3, np.nan])],
)
def test_slice_point_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        sf.slice_point(alpha, beta, _unit([0, 1.0, 0, 0, 0, 0, 0]))
