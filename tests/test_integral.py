"""Boundary and volume quadrature on polydiscs in a slice plane."""

import functools
import itertools
import math

import numpy as np
import pytest

import hyperslice.algebra as alg
import hyperslice.integral as itg
import hyperslice.slicefun as sf
import hyperslice.stem as stm
from hyperslice.algebra import OCTONION, QUATERNION, basis, element, one
from hyperslice.complexified import ComplexifiedElement

TAG = OCTONION
E0, E1, E3 = one(TAG), basis(TAG, 1), basis(TAG, 3)
J = alg.unit_from_vector(TAG, [0.0, 0.6, 0.0, 0.8, 0, 0, 0])
SPEC = itg.QuadratureSpec(64, 32, 3)


def _bidisc():
    return itg.PolydiscDomain(np.zeros(2), np.ones(2), J)


def _x2():
    return sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j]), J)


def test_constant_calibration_n1_n2_n3():
    for n in (1, 2, 3):
        dom = itg.PolydiscDomain(np.zeros(n), np.ones(n), J)
        x = sf.point_from_z(np.full(n, 0.25 + 0.15j), J)
        f = sf.lift(stm.constant_poly(TAG, n, E0))
        spec = itg.QuadratureSpec(32, 16, 3) if n < 3 else itg.QuadratureSpec(24, 12, 3)
        val = itg.bm_boundary_integral(f, dom, x, spec)
        assert (val - E0).norm() <= 1e-10, f"n={n}"


def test_n1_reduces_to_cauchy_integral():
    # independent plain-complex Cauchy quadrature for z^2 + 2z at the same x
    dom = itg.PolydiscDomain(np.zeros(1), np.ones(1), J)
    x = sf.point_from_z(np.array([0.35 + 0.1j]), J)
    p = stm.stem_polynomial(TAG, 1, {(2,): E0, (1,): 2.0 * E0})
    val = itg.bm_boundary_integral(sf.lift(p), dom, x, itg.QuadratureSpec(64, 8, 1))

    M = 64
    theta = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    xi = np.exp(1j * theta)
    xz = complex(x.z[0])
    g = (xi**2 + 2 * xi) / (xi - xz)
    cauchy = np.sum(g * 1j * xi) * (2.0 * np.pi / M) / (2.0j * np.pi)
    expected = xz**2 + 2 * xz
    assert abs(cauchy - expected) <= 1e-12
    lifted = float(np.real(cauchy)) * E0 + alg.multiply(J.value, float(np.imag(cauchy)) * E0)
    assert (val - lifted).norm() <= 1e-12


def test_n1_volume_is_cauchy_pompeiu():
    # f(z) = conj(z) c: boundary - volume must reproduce f (Cauchy-Pompeiu)
    c = element(TAG, [1.0, 0, -0.5, 0, 0, 0, 0, 2.0])

    def _eval(z):
        return ComplexifiedElement(c * float(np.real(z[0])), c * (-float(np.imag(z[0]))))

    def _batch(Z):
        return np.real(Z[:, 0])[:, None] * c.coeffs, -np.imag(Z[:, 0])[:, None] * c.coeffs

    def _bw(Z, t):
        N = Z.shape[0]
        zeros = np.zeros((N, TAG.dim))
        return (zeros, zeros.copy()), (np.tile(c.coeffs, (N, 1)), np.zeros((N, TAG.dim)))

    F = stm.StemFunction(arity=1, tag=TAG, evaluator=_eval, batch_evaluator=_batch,
                         batch_wirtinger=_bw, smoothness=stm.Smoothness.C1)
    f = sf.SliceFunction(stem=F)
    dom = itg.PolydiscDomain(np.zeros(1), np.ones(1), J)
    x = sf.point_from_z(np.array([0.3 - 0.25j]), J)
    b = itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(32, 8, 3))
    v = itg.bm_volume_integral(f, dom, x, itg.QuadratureSpec(32, 8, 3))
    assert (b - v - sf.lift_evaluate(f, x)).norm() <= 1e-6


def test_polynomial_reproduction_and_monotone_convergence():
    dom, x = _bidisc(), _x2()
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E0, (1, 0): E3})
    f = sf.lift(p)
    errs = []
    for m in (16, 32, 64):
        rep = itg.reproduce_check(f, dom, x, itg.QuadratureSpec(m, 32, 3))
        errs.append(rep.abs_error)
    assert errs[2] <= 1e-8
    assert errs[0] > errs[1] > errs[2]
    rep = itg.reproduce_check(f, dom, x, SPEC)
    assert rep.nodes_used == 2 * 64 * 32 * 64
    assert rep.abs_error <= 1e-10


def test_reproduction_random_cubics_both_algebras():
    rng = np.random.default_rng(99)
    for tag in (OCTONION, QUATERNION):
        Jt = alg.sample_unit_imaginary(tag, rng)
        dom = itg.PolydiscDomain(np.zeros(2), np.ones(2), Jt)
        x = sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j]), Jt)
        terms = {}
        for _ in range(4):
            mu = tuple(int(v) for v in rng.integers(0, 2, size=2))
            terms[mu] = element(tag, rng.standard_normal(tag.dim))
        terms[(1, 2)] = element(tag, rng.standard_normal(tag.dim))
        f = sf.lift(stm.stem_polynomial(tag, 2, terms))
        rep = itg.reproduce_check(f, dom, x, SPEC)
        assert rep.abs_error <= 1e-8


def test_boundary_integral_is_linear():
    dom, x = _bidisc(), _x2()
    spec = itg.QuadratureSpec(32, 16, 3)
    p = stm.stem_polynomial(TAG, 2, {(1, 1): E1})
    q = stm.stem_polynomial(TAG, 2, {(2, 0): E3, (0, 0): E0})
    vp = itg.bm_boundary_integral(sf.lift(p), dom, x, spec)
    vq = itg.bm_boundary_integral(sf.lift(q), dom, x, spec)
    vsum = itg.bm_boundary_integral(sf.lift(p + q), dom, x, spec)
    assert (vsum - (vp + vq)).norm() <= 1e-13


def test_volume_term_vanishes_for_polynomials():
    dom, x = _bidisc(), _x2()
    f = sf.lift(stm.stem_polynomial(TAG, 2, {(1, 2): E0, (1, 0): E3}))
    vt = itg.bm_volume_integral(f, dom, x, itg.QuadratureSpec(16, 8, 1))
    assert vt.norm() <= 2e-3
    assert vt.norm() == 0.0  # exact: the dbar integrand is identically zero


def test_volume_correction_reconstructs_antiholomorphic():
    from hyperslice.suites import _conj_z1_stem

    dom, x = _bidisc(), _x2()
    c = element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])
    f = sf.lift(_conj_z1_stem(TAG, 2, c))
    b = itg.bm_boundary_integral(f, dom, x, SPEC)
    v = itg.bm_volume_integral(f, dom, x, SPEC)
    err = (b - v - sf.lift_evaluate(f, x)).norm()
    assert err <= 5e-3
    # the uncorrected boundary value alone is far off
    assert (b - sf.lift_evaluate(f, x)).norm() > 0.05


def _conj_z1_zn_stem(c, n=2):
    """F(z) = conj(z_1) z_n c with no derivative hook, so dbar comes from finite differences."""

    def _batch(Z):
        w = np.conj(Z[:, 0]) * Z[:, n - 1]
        return np.real(w)[:, None] * c.coeffs, np.imag(w)[:, None] * c.coeffs

    return stm.StemFunction(arity=n, tag=c.tag, batch_evaluator=_batch, smoothness=stm.Smoothness.C1)


UNITS = {OCTONION: J, QUATERNION: alg.unit_from_vector(QUATERNION, [0.6, 0.0, 0.8])}


def _fd_case(tag, n):
    """conj(z_1) z_n c without a hook, on the unit polydisc of the algebra's unit, and a point inside it."""
    c = element(tag, np.linspace(0.5, -0.75, tag.dim))
    dom = itg.PolydiscDomain(np.zeros(n), np.ones(n), UNITS[tag])
    return _conj_z1_zn_stem(c, n), dom, sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j, 0.15 - 0.2j])[:n], dom.j)


def test_volume_fd_path_is_bitwise_the_explicit_formula():
    # without a hook, each chunk makes one stencil along each node's unit
    # direction v = conj(c)/|c|, reduces each of its four evaluations to the
    # |c|-weighted sums of F1 and F2 first, and takes the central differences
    # and the dbar step on those: here that formula is written out over the
    # rule's chunks
    c = element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])
    F = _conj_z1_zn_stem(c)
    dom, x, spec = _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1)
    h = stm.DEFAULT_FD_STEP
    s = 0.5 / h

    def sums(Z, d, norm):
        (p1, p2), (m1, m2) = (stm.evaluate_stem_batch(F, np.array(Z.T + e, order="C")) for e in (d, -d))
        return (norm @ p1 - norm @ m1) * s, (norm @ p2 - norm @ m2) * s

    parts = []
    for Z, C in itg._volume_nodes(dom, x.z, spec):
        norm = np.sqrt(np.einsum("jkr,jkr->r", C, C))
        v = (C[:, 0] / norm - 1j * (C[:, 1] / norm)).T
        (da1, da2), (db1, db2) = sums(Z, h * v, norm), sums(Z, (1j * h) * v, norm)
        parts.append(0.5 * (da1 - db2) + 1j * (0.5 * (da2 + db1)))
    want = sf.lift_value(itg._reduce(TAG, parts, scale=1.0 / math.pi**2), dom.j)
    got = itg.bm_volume_integral(sf.SliceFunction(stem=F), dom, x, spec)
    np.testing.assert_array_equal(got.coeffs, want.coeffs)
    assert got.norm() > 0.01


def _conj_z1_zn_hooked(c, n):
    """conj(z_1) z_n c with its exact derivatives: dF/dz_n = conj(z_1) c and dF/dzbar_1 = z_n c, the others zero."""
    from hyperslice.suites import _times

    def wirtinger(Z, t):
        zeros = np.zeros((Z.shape[0], c.tag.dim))
        dz = _times(np.conj(Z[:, 0]), c.coeffs) if t == n - 1 else (zeros, zeros)
        return dz, (_times(Z[:, n - 1], c.coeffs) if t == 0 else (zeros, zeros))

    return stm.StemFunction(arity=n, tag=c.tag, batch_evaluator=_conj_z1_zn_stem(c, n).batch_evaluator,
                            batch_wirtinger=wirtinger, smoothness=stm.Smoothness.C1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tag", [OCTONION, QUATERNION], ids=["octonion", "quaternion"])
def test_directional_volume_matches_the_exact_hook(tag, n):
    # one stencil along each node's direction conj(c)/|c| gives sum_j c_j
    # dbar_j F by the Wirtinger chain rule; the same stem with its exact
    # hook is read per axis.  They agree to finite-difference level at the
    # bm point and at a point on the interior margin
    F, dom, bm = _fd_case(tag, n)
    hooked = sf.SliceFunction(_conj_z1_zn_hooked(element(tag, np.linspace(0.5, -0.75, tag.dim)), n))
    margin = sf.point_from_z(np.array([1.0 - itg.INTERIOR_MARGIN, 0.3j, -0.2 + 0.1j])[:n], dom.j)
    spec = itg.QuadratureSpec(16, 8, 1)
    for x in (bm, margin):
        got = itg.bm_volume_integral(sf.SliceFunction(stem=F), dom, x, spec)
        want = itg.bm_volume_integral(hooked, dom, x, spec)
        assert (got - want).norm() <= 1e-10 * (1.0 + want.norm()), (x.z, (got - want).norm())
        assert want.norm() > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volume_chunk_makes_four_stem_calls_without_a_hook(monkeypatch, n):
    # a stem without a dbar hook is differenced once per chunk, along each
    # node's own direction: 4 stem calls a chunk at any n; a stem with an
    # exact hook makes n hook calls a chunk, one per axis
    chunks = []
    volume_nodes = itg._volume_nodes

    def counted(*args):
        for chunk in volume_nodes(*args):
            chunks.append(1)
            yield chunk

    monkeypatch.setattr(itg, "_volume_nodes", counted)
    F, dom, x = _fd_case(TAG, n)
    calls = []

    def evaluator(Z):
        calls.append("stem")
        return F.batch_evaluator(Z)

    hooked = _conj_z1_zn_hooked(element(TAG, np.linspace(0.5, -0.75, TAG.dim)), n)

    def wirtinger(Z, t):
        calls.append("hook")
        return hooked.batch_wirtinger(Z, t)

    # 4096, 8192 and 98,304 nodes: 2, 4 and 48 chunks
    spec = itg.QuadratureSpec({1: 2048, 2: 32, 3: 16}[n], 4, 1)
    counted_fd = stm.StemFunction(arity=n, tag=TAG, batch_evaluator=evaluator, smoothness=stm.Smoothness.C1)
    itg.bm_volume_integral(sf.SliceFunction(counted_fd), dom, x, spec)
    assert len(chunks) > 1 and calls == ["stem"] * (4 * len(chunks))
    chunks.clear()
    calls.clear()
    counted_hook = stm.StemFunction(arity=n, tag=TAG, batch_evaluator=evaluator, batch_wirtinger=wirtinger,
                                    smoothness=stm.Smoothness.C1)
    itg.bm_volume_integral(sf.SliceFunction(counted_hook), dom, x, spec)
    assert len(chunks) > 1 and calls == ["hook"] * (n * len(chunks))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tag", [OCTONION, QUATERNION], ids=["octonion", "quaternion"])
def test_volume_fd_moments_agree_with_per_node_differences(tag, n):
    # the same stem with the per-node central differences along each axis as
    # its hook: the two differ by the rounding of differencing weighted sums
    # rather than values, and of one stencil along each node's direction
    # rather than one per axis
    F, dom, x = _fd_case(tag, n)
    per_node = stm.StemFunction(arity=n, tag=tag, batch_evaluator=F.batch_evaluator,
                                batch_wirtinger=lambda Z, t: stm.wirtinger_batch(F, Z, t), smoothness=stm.Smoothness.C1)
    spec = itg.QuadratureSpec(16, 8, 1)
    got = itg.bm_volume_integral(sf.SliceFunction(stem=F), dom, x, spec)
    want = itg.bm_volume_integral(sf.SliceFunction(stem=per_node), dom, x, spec)
    assert (got - want).norm() <= 1e-9 * (1.0 + want.norm())
    assert want.norm() > 1e-3


@pytest.mark.parametrize("tag, bound_kib", [(OCTONION, 800), (QUATERNION, 640)], ids=["octonion", "quaternion"])
def test_fd_volume_call_holds_one_stencil_evaluation(tag, bound_kib):
    # an n = 2, (32,16,1) call without a hook reduces each stencil evaluation
    # to its chunk sums before it makes the next: traced peaks 736 KiB
    # (octonion) and 607 KiB (quaternion), each chunk's unit directions
    # (64 KiB) and their norms included; differencing per node, with a
    # direction's two evaluations and their (rows, dim) differences alive,
    # took 1,322 and 842 KiB
    F, dom, x = _fd_case(tag, 2)
    f, spec = sf.SliceFunction(stem=F), itg.QuadratureSpec(32, 16, 1)
    itg.bm_volume_integral(f, dom, x, spec)  # the rule's cached tables are built once, outside the trace
    peak = _traced_peak_mb(lambda: itg.bm_volume_integral(f, dom, x, spec)) * 1024
    assert peak <= bound_kib, f"{peak:.0f} KiB"


def test_volume_error_falls_with_refinement():
    from hyperslice.suites import _conj_z1_stem

    dom, x = _bidisc(), _x2()
    c = element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])
    for stem in (_conj_z1_stem(TAG, 2, c), _conj_z1_zn_stem(c)):
        f = sf.SliceFunction(stem=stem)
        b = itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(64, 32, 1))
        errs = []
        for V in (1, 2, 3):
            v = itg.bm_volume_integral(f, dom, x, itg.QuadratureSpec(64, 32, V))
            errs.append((b - v - sf.lift_evaluate(f, x)).norm())
        assert errs[0] > errs[1] > errs[2], errs
        assert errs[2] <= 1e-6, errs


def test_volume_rule_reaches_1e10_within_1e5_nodes():
    from hyperslice.suites import _conj_z1_stem

    dom, x = _bidisc(), _x2()
    f = sf.lift(_conj_z1_stem(TAG, 2, element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])))
    spec = itg.QuadratureSpec(32, 16, 5)
    b = itg.bm_boundary_integral(f, dom, x, spec)
    w, nodes = itg._bm_volume(f, dom, x.z, spec)
    assert nodes <= 100_000
    assert (b - sf.lift_value(w, dom.j) - sf.lift_evaluate(f, x)).norm() <= 1e-10


def test_volume_correction_n3():
    from hyperslice.suites import _conj_z1_stem

    dom = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x = sf.point_from_z(np.array([0.2 + 0.1j, -0.3j, 0.15]), J)
    f = sf.lift(_conj_z1_stem(TAG, 3, element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])))
    spec = itg.QuadratureSpec(16, 8, 2)
    b = itg.bm_boundary_integral(f, dom, x, spec)
    v = itg.bm_volume_integral(f, dom, x, spec)
    expected = sf.lift_evaluate(f, x)
    assert (b - v - expected).norm() <= 1e-4
    assert (b - expected).norm() > 0.05


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pyramid_table_integrates_the_cube(n):
    # sum of w h(u) is the integral of h(u) prod_m u_m over [0,1]^n, exact
    # while h(u) prod_m u_m tau^{n-1} has degree <= 7 in tau
    U, w = itg._pyramid_table(n, 4)
    assert U.shape == (n * 4**n, n)
    assert (U > 0.0).all() and (U < 1.0).all()
    assert abs(w.sum() - 0.5**n) <= 1e-15
    assert abs(w @ U[:, 0] - 0.5 ** (n - 1) / 3.0) <= 1e-15


def test_point_near_boundary_rejected():
    dom = _bidisc()
    x = sf.point_from_z(np.array([0.97 + 0.0j, 0.0 + 0.0j]), J)
    with pytest.raises(itg.PointTooCloseToBoundaryError):
        itg.bm_boundary_integral(sf.lift(stm.constant_poly(TAG, 2, E0)), dom, x, SPEC)


def test_slice_mismatch_rejected():
    dom = _bidisc()
    K = alg.unit_from_vector(TAG, [1.0, 0, 0, 0, 0, 0, 0])
    x = sf.point_from_z(np.array([0.2 + 0.1j, 0.0 + 0.3j]), K)
    with pytest.raises(itg.SliceMismatchError):
        itg.bm_boundary_integral(sf.lift(stm.constant_poly(TAG, 2, E0)), dom, x, SPEC)
    qdom = itg.PolydiscDomain(np.zeros(2), np.ones(2), alg.sample_unit_imaginary(QUATERNION, 1))
    with pytest.raises(itg.SliceMismatchError):
        itg.bm_boundary_integral(sf.lift(stm.constant_poly(TAG, 2, E0)), qdom, x, SPEC)


def test_off_slice_evaluation_matches_lift():
    dom, x = _bidisc(), _x2()
    rng = np.random.default_rng(6)
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E0, (2, 0): E1, (0, 1): element(TAG, rng.standard_normal(8))})
    f = sf.lift(p)
    for _ in range(3):
        I = alg.sample_unit_imaginary(TAG, rng)
        q = sf.slice_point(x.alpha, x.beta, I)
        val = itg.off_slice_evaluate(f, dom, q, SPEC)
        assert (val - f(q)).norm() <= 1e-8
    # real target point: the even component F1 of the stem value
    qr = sf.slice_point(x.alpha, np.zeros(2), J)
    val = itg.off_slice_evaluate(f, dom, qr, SPEC)
    assert (val - f(qr)).norm() <= 1e-10


def test_off_slice_collapses_on_domain_slice():
    dom, x = _bidisc(), _x2()
    f = sf.lift(stm.stem_polynomial(TAG, 2, {(1, 1): E1, (1, 0): E0}))
    q = sf.slice_point(x.alpha, x.beta, dom.j)
    off = itg.off_slice_evaluate(f, dom, q, SPEC)
    direct = itg.bm_boundary_integral(f, dom, q, SPEC)
    assert (off - direct).norm() <= 1e-12


def _recip_sum_stem(tag, n, c):
    """F(z) = (z_1 + ... + z_n - 4)^{-1} c: a generic stem, holomorphic on every _ragged polydisc."""
    from hyperslice.suites import _times

    return stm.StemFunction(arity=n, tag=tag, smoothness=stm.Smoothness.ANALYTIC,
                            batch_evaluator=lambda Z: _times(1.0 / (Z.sum(axis=1) - 4.0), c.coeffs))


@pytest.mark.parametrize("n, M", [(1, 16), (1, 15), (2, 16), (2, 9), (3, 8), (3, 9)])
def test_conjugate_point_integral_is_the_j_conjugate_stem_value(n, M):
    # the node set of a polydisc with real centers is conjugation symmetric
    # for even and odd M alike, and an intrinsic stem satisfies F(conj z) =
    # conj F(z), so the rule at conj(x) is the rule at x with i -> -i: the
    # stem value A + iB at x lifts to A - J B there, within rounding
    from hyperslice.complexified import complex_conjugate

    rng = np.random.default_rng(40 + 10 * n + M)
    spec = itg.QuadratureSpec(M, 5, 1)
    for tag in (OCTONION, QUATERNION):
        Jt = alg.sample_unit_imaginary(tag, rng)
        dom, x = _ragged(n, Jt)
        c = element(tag, rng.standard_normal(tag.dim))
        for f in (sf.lift(_random_cubic(rng, tag, n)), sf.SliceFunction(_recip_sum_stem(tag, n, c))):
            w = itg._bm_boundary(f, dom, x.z, spec)[0]
            mirrored = sf.lift_value(complex_conjugate(w), dom.j)
            value = itg.bm_boundary_integral(f, dom, x.conjugated(), spec)
            assert (value - mirrored).norm() <= 1e-13 * (1.0 + value.norm()), (tag.name, type(f.stem).__name__)
            # B is not zero, so the mirrored value is not the value at x
            assert w.im.norm() > 1e-4


def test_off_slice_and_hartogs_integrate_once_at_the_point(monkeypatch):
    from hyperslice.suites import _conj_z1_stem, _rational_stem

    # both rules record the point of every boundary and volume pass
    passes = []
    for kind, rule in (("boundary", itg._bm_boundary), ("volume", itg._bm_volume)):
        def counted(f, dom, z, *args, kind=kind, rule=rule):
            passes.append((kind, np.array(z)))
            return rule(f, dom, z, *args)

        monkeypatch.setattr(itg, f"_bm_{kind}", counted)
    dom, x = _bidisc(), _x2()
    I = alg.sample_unit_imaginary(TAG, np.random.default_rng(3))
    q = sf.slice_point(x.alpha, x.beta, I)
    spec = itg.QuadratureSpec(16, 8, 1)
    regular = sf.lift(stm.stem_polynomial(TAG, 2, {(1, 2): E0, (2, 0): E3}))
    nonregular = sf.lift(_conj_z1_stem(TAG, 2, E1 + 0.5 * E3))
    ext = itg.hartogs_extend(sf.lift(_rational_stem(TAG, E1)), dom, 0.5, spec)
    qh = sf.slice_point([0.1, -0.2], [0.2, 0.1], I)
    for call, point, kinds in [(lambda: itg.off_slice_evaluate(regular, dom, q, spec), q, ["boundary"]),
                               (lambda: itg.off_slice_evaluate(nonregular, dom, q, spec), q, ["boundary", "volume"]),
                               (lambda: ext(qh), qh, ["boundary"])]:
        passes.clear()
        call()
        assert [kind for kind, _ in passes] == kinds
        # each pass is at alpha + beta J itself, never at its conjugate
        for _, z in passes:
            np.testing.assert_array_equal(z, point.z)


@pytest.mark.parametrize("tag", [OCTONION, QUATERNION], ids=lambda t: t.name)
def test_off_slice_with_volume_term_matches_lift(tag):
    # conj(z_1) c is not slice regular, so off_slice_evaluate subtracts the
    # volume term at x; the bound is test_volume_correction_reconstructs_antiholomorphic's
    from hyperslice.suites import _conj_z1_stem

    rng = np.random.default_rng(31)
    Jt = alg.sample_unit_imaginary(tag, rng)
    dom = itg.PolydiscDomain(np.zeros(2), np.ones(2), Jt)
    x = sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j]), Jt)
    f = sf.lift(_conj_z1_stem(tag, 2, element(tag, rng.standard_normal(tag.dim))))
    for _ in range(2):
        q = sf.slice_point(x.alpha, x.beta, alg.sample_unit_imaginary(tag, rng))
        assert (itg.off_slice_evaluate(f, dom, q, SPEC) - sf.lift_evaluate(f, q)).norm() <= 5e-3
        # without the volume term the boundary rule's stem value alone, lifted, is far off
        assert (sf.lift_value(itg._bm_boundary(f, dom, q.z, SPEC)[0], q.j) - sf.lift_evaluate(f, q)).norm() > 0.05


@pytest.mark.parametrize("tag", [OCTONION, QUATERNION], ids=lambda t: t.name)
def test_stem_value_lifted_to_a_unit_is_the_off_slice_value(tag):
    # one stem value at x serves every unit as drawn; off_slice_evaluate
    # integrates at the canonical point's own z, which is x when the
    # canonical sign keeps the unit (the same bits) and conj(x) when it
    # flips it (the same value, to rounding at the default spec: the volume
    # rule's jittered angles are not mirror symmetric, so at (32,16,1) its
    # values at x and conj(x) differ by its own error, about 6e-12)
    from hyperslice.suites import _conj_z1_stem

    rng = np.random.default_rng(32)
    dom = itg.PolydiscDomain(np.zeros(2), np.ones(2), alg.sample_unit_imaginary(tag, rng))
    x = sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j]), dom.j)
    units = {}
    while len(units) < 2:
        I = alg.sample_unit_imaginary(tag, rng)
        units.setdefault(alg.canonicalize_unit(I)[1], I)
    for f in (sf.lift(_random_cubic(rng, tag, 2)), sf.lift(_conj_z1_stem(tag, 2, element(tag, rng.standard_normal(tag.dim))))):
        w = itg.bm_stem_value(f, dom, x.z, SPEC)
        assert w.im.norm() > 1e-3
        for sign, I in units.items():
            q = sf.slice_point(x.alpha, x.beta, I)
            value, lifted = itg.off_slice_evaluate(f, dom, q, SPEC), sf.lift_value(w, I)
            if sign > 0:
                np.testing.assert_array_equal(lifted.coeffs, value.coeffs)
            else:
                np.testing.assert_array_equal(q.z, np.conj(x.z))
                assert (lifted - value).norm() <= 1e-13 * (1.0 + value.norm())


def test_stem_value_refuses_bad_points_before_any_stem_call():
    # a non-finite z, a z of the wrong length, a z inside the margin and a
    # stem of another algebra are refused before either rule evaluates the
    # stem, for a regular stem and for one that needs the volume term
    def unreachable(*args):
        raise AssertionError("the stem was evaluated")

    dom = _bidisc()
    for smoothness in (stm.Smoothness.ANALYTIC, stm.Smoothness.C1):
        f = sf.SliceFunction(stm.StemFunction(arity=2, tag=TAG, smoothness=smoothness, batch_evaluator=unreachable,
                                              batch_wirtinger=unreachable))
        for z, error, match in [([np.nan, 0.1j], ValueError, "finite"), ([0.1, np.inf], ValueError, "finite"),
                                ([0.1 + 0.1j], ValueError, "shape"), ([0.1, 0.2, 0.3], ValueError, "shape"),
                                ([0.97, 0.0], itg.PointTooCloseToBoundaryError, "away from its circle")]:
            with pytest.raises(error, match=match):
                itg.bm_stem_value(f, dom, np.array(z, dtype=complex), SPEC)
    # a stem of another algebra than the domain's
    q = sf.SliceFunction(stm.StemFunction(arity=2, tag=QUATERNION, batch_evaluator=unreachable))
    with pytest.raises(alg.AlgebraMismatchError):
        itg.bm_stem_value(q, dom, _x2().z, SPEC)


def test_hartogs_extension_reads_only_the_contour():
    # a stem that raises on any row inside the hole polydisc: the extension
    # still reproduces the unguarded stem's lift inside the hole and in the
    # annulus, so it never evaluates f there
    from hyperslice.suites import _rational_stem

    c = element(TAG, [1.0, 0, 0.5, 0, -0.25, 0, 0, 0])
    plain = _rational_stem(TAG, c)
    dom, hole = _bidisc(), 0.5

    def guarded(Z):
        if np.any(np.all(np.abs(Z) < hole, axis=1)):
            raise AssertionError("the stem was evaluated inside the hole")
        return plain.batch_evaluator(Z)

    f = sf.SliceFunction(stm.StemFunction(arity=2, tag=TAG, smoothness=stm.Smoothness.ANALYTIC,
                                          batch_evaluator=guarded))
    ext = itg.hartogs_extend(f, dom, hole, SPEC)
    rng = np.random.default_rng(14)
    inside, annulus = [sf.slice_point(alpha, rng.uniform(-0.2, 0.2, 2), alg.sample_unit_imaginary(TAG, rng))
                       for alpha in (rng.uniform(-0.3, 0.3, 2), np.array([0.65, -0.2]))]
    for q in (inside, annulus):
        assert (ext(q) - sf.lift_evaluate(sf.lift(plain), q)).norm() <= 1e-6
    with pytest.raises(AssertionError, match="inside the hole"):
        sf.lift_evaluate(f, inside)


def test_hartogs_extension_reproduces_across_hole():
    from hyperslice.suites import _rational_stem

    c = element(TAG, [1.0, 0, 0.5, 0, -0.25, 0, 0, 0])
    f = sf.lift(_rational_stem(TAG, c))
    dom = _bidisc()
    ext = itg.hartogs_extend(f, dom, 0.5, SPEC)
    rng = np.random.default_rng(13)
    for _ in range(3):
        q = sf.slice_point(rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.3, 0.3, 2),
                           alg.sample_unit_imaginary(TAG, rng))
        assert (ext(q) - sf.lift_evaluate(f, q)).norm() <= 1e-6


def test_hartogs_n1_rejected_and_counterexample():
    from hyperslice.suites import _inverse_z_stem

    f1 = sf.lift(_inverse_z_stem(TAG))
    dom1 = itg.PolydiscDomain(np.zeros(1), np.ones(1), J)
    with pytest.raises(itg.HartogsRequiresSeveralVariablesError):
        itg.hartogs_extend(f1, dom1, 0.5, SPEC)
    # the n=1 outer-circle integral misses the pole: large discrepancy
    contour = itg.PolydiscDomain(np.zeros(1), np.array([0.95]), J)
    x = sf.slice_point([0.0], [0.7], J)
    g = itg.bm_boundary_integral(f1, contour, x, SPEC)
    assert (g - sf.lift_evaluate(f1, x)).norm() > 0.1


def test_hole_fraction_validation():
    f = sf.lift(stm.constant_poly(TAG, 2, E0))
    with pytest.raises(ValueError):
        itg.hartogs_extend(f, _bidisc(), 0.9, SPEC)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        itg.QuadratureSpec(4, 32, 3)
    with pytest.raises(ValueError):
        itg.QuadratureSpec(16, 2, 3)
    with pytest.raises(ValueError):
        itg.PolydiscDomain(np.zeros(2), np.array([1.0, -1.0]), J)


@pytest.mark.parametrize("fields", [(8.5, 4, 1), (np.nan, 4, 1), (16, 4.5, 1), (16, 4, 1.5), (16, np.inf, 1)])
def test_quadrature_spec_rejects_non_integers(fields):
    with pytest.raises(ValueError, match="must be an integer"):
        itg.QuadratureSpec(*fields)


@pytest.mark.parametrize(
    "centers, radii",
    [([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [np.nan, 1.0]), ([np.nan, 0.0], [1.0, 1.0]), ([0.0, -np.inf], [1.0, 1.0])],
)
def test_polydisc_rejects_non_finite(centers, radii):
    with pytest.raises(ValueError, match="finite"):
        itg.PolydiscDomain(np.array(centers), np.array(radii), J)


def test_node_budget_rejects_n3_volume_before_allocating():
    from hyperslice.suites import _conj_z1_stem

    dom = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x = sf.point_from_z(np.full(3, 0.2 + 0.1j), J)
    f = sf.lift(_conj_z1_stem(TAG, 3, E1))
    # 3 pyramids x 8^3 Gauss-Legendre points x 32^3 angles: about 5.0e7 nodes
    with pytest.raises(ValueError, match=str(3 * 8**3 * 32**3)):
        itg.bm_volume_integral(f, dom, x, SPEC)


def _unreachable(*args):
    raise AssertionError("a face's nodes or tables were built")


def test_node_budget_counts_every_boundary_face(monkeypatch):
    # each face of an n = 3, (32,16) call has 32 x 512^2 = 8,388,608 nodes,
    # under the budget alone; the call's three faces together are over it.
    # A generic stem's faces are streamed node by node, so the guard is on
    # building a face's chunks at all
    monkeypatch.setattr(itg, "_face_nodes", _unreachable)
    dom = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x = sf.point_from_z(np.full(3, 0.2 + 0.1j), J)
    p = stm.constant_poly(TAG, 3, E0)
    generic = sf.SliceFunction(stm.StemFunction(arity=3, tag=TAG, batch_evaluator=p.batch_evaluator))
    with pytest.raises(ValueError, match=str(3 * 32 * 512**2)):
        itg.bm_boundary_integral(generic, dom, x, itg.QuadratureSpec(32, 16, 1))


def test_node_budget_counts_separable_exponentials(monkeypatch):
    # a polynomial's n >= 3 faces form n Q (M + R M) exponentials, Q the
    # exponential sum's terms; at (512,256) they are over the budget, and the
    # call raises before any disc's tables are built
    monkeypatch.setattr(itg, "_boundary_columns", _unreachable)
    rates = []
    exponential_sum = itg._exponential_sum

    def recorded(*args):
        a, b = exponential_sum(*args)
        rates.append(len(b))
        return a, b

    monkeypatch.setattr(itg, "_exponential_sum", recorded)
    dom, x = _tridisc_bm()
    with pytest.raises(ValueError, match="exceeds the budget") as raised:
        itg.bm_boundary_integral(sf.lift(stm.constant_poly(TAG, 3, E0)), dom, x, itg.QuadratureSpec(512, 256, 1))
    assert len(rates) == 1 and 50 < rates[0] < 200
    assert str(3 * rates[0] * 512 * 257) in str(raised.value)


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    from hyperslice.suites import _conj_z1_stem

    # the rules read CHUNK_DOUBLES when called, so patching it changes the
    # spans; a chunk's rows are its coefficients' columns, or a polynomial
    # chunk's kernel factor, which takes STEM_ROW_DOUBLES times a stem chunk's rows
    spans = []
    stem_sums, monomial_sums = itg._stem_sums, itg._monomial_sums

    def recorded(s, t, F):
        spans.append(s.shape[1])
        return stem_sums(s, t, F)

    def recorded_monomials(Q_outer, Q_last, K):
        spans.append(K.size)
        return monomial_sums(Q_outer, Q_last, K)

    monkeypatch.setattr(itg, "_stem_sums", recorded)
    monkeypatch.setattr(itg, "_monomial_sums", recorded_monomials)
    monkeypatch.setattr(itg, "CHUNK_DOUBLES", 1000)
    itg.bm_boundary_integral(sf.lift(stm.constant_poly(TAG, 2, E0)), _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1))
    # two faces of 16 x (8 x 16) = 2048 nodes, at most 1000 to a polynomial
    # chunk: a chunk is whole blocks of the last factor, 7 of 128 rows on
    # face 0 and 62 of 16 rows on face 1
    assert spans == [896, 896, 256, 992, 992, 64]
    spans.clear()
    # at most 1000 rows to a stem-valued chunk
    monkeypatch.setattr(itg, "CHUNK_DOUBLES", 1000 * itg.STEM_ROW_DOUBLES)
    itg.bm_volume_integral(sf.lift(_conj_z1_stem(TAG, 2, E1)), _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1))
    # 32 pyramid points x 64 angle tuples: 15 pyramid points to a chunk, and
    # each chunk is reduced once per axis of the stem's hook
    assert spans == [960, 960, 960, 960, 128, 128]
    # a polynomial's n = 3 faces are separable and form no chunks, so the
    # n = 3 case takes its stem as a generic one, whose faces are chunked
    p3 = stm.stem_polynomial(TAG, 3, {(1, 0, 2): E1, (0, 1, 0): E0, (2, 1, 1): E3})
    generic3 = sf.SliceFunction(stm.StemFunction(arity=3, tag=TAG, batch_evaluator=p3.batch_evaluator))
    cases = [
        (itg.bm_boundary_integral, sf.lift(stm.stem_polynomial(TAG, 2, {(1, 2): E0, (2, 0): E3})),
         _bidisc(), _x2(), itg.QuadratureSpec(32, 16, 1)),
        (itg.bm_boundary_integral, generic3, itg.PolydiscDomain(np.zeros(3), np.ones(3), J),
         sf.point_from_z(np.array([0.2 + 0.1j, -0.3j, 0.15]), J), itg.QuadratureSpec(8, 4, 1)),
        (itg.bm_volume_integral, sf.lift(_conj_z1_stem(TAG, 2, E1 + 0.5 * E3)),
         _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1)),
        (itg.bm_volume_integral, sf.SliceFunction(_conj_z1_zn_stem(4.0 * E1 + 2.0 * E3)),
         _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1)),
    ]
    # the default bound, 64x it and about 1/16 of it
    bounds = (itg.CHUNK_DOUBLES, 64 * itg.CHUNK_DOUBLES, 1000)
    for rule, f, dom, x, spec in cases:
        values = {}
        for chunk in bounds:
            monkeypatch.setattr(itg, "CHUNK_DOUBLES", chunk)
            values[chunk] = rule(f, dom, x, spec)
        ref = values[bounds[0]]
        assert ref.norm() > 0.1
        # the finite-difference volume term differences weighted sums over a
        # step of 1e-5, so its chunk layout shows about 1e5 times larger
        tol = 1e-9 if f.stem.batch_wirtinger is None else 1e-13
        for chunk in bounds[1:]:
            assert (values[chunk] - ref).norm() <= tol * (1.0 + ref.norm()), (rule.__name__, chunk)


def _lifted_rows(j, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + J B row by row for coefficient rows A, B (N, dim), J B by multiply_batch."""
    return A + alg.multiply_batch(j.tag, np.broadcast_to(j.value.coeffs, B.shape), B)


def _algebra_valued_sum(j, c: np.ndarray, F) -> np.ndarray:
    """sum over nodes of (Re c + J Im c)(F1 + J F2), each product by multiply_batch, for complex c (N,) and F1, F2 (N, dim)."""
    e0 = np.eye(j.tag.dim)[0]
    left = _lifted_rows(j, np.outer(c.real, e0), np.outer(c.imag, e0))
    return alg.multiply_batch(j.tag, left, _lifted_rows(j, *F)).sum(axis=0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tag", [OCTONION, QUATERNION], ids=["octonion", "quaternion"])
def test_rules_match_the_algebra_valued_formula(tag, n):
    # the rules sum c (F1 + i F2) over their nodes and lift the stem value to
    # F1 + J F2 once; the paper's formula multiplies every node's value
    # F1 + J F2 by its coefficient Re c + J Im c in the algebra.  By
    # alternativity both are the same number.  Here the formula is summed
    # node by node over every node of (8,4) grids, from the meshgrid
    # references: polynomial (chunked) and generic (folded) boundary faces,
    # and the volume rule with an exact hook, scaled by (n-1)!/pi^n
    rng = np.random.default_rng(50 + n)
    spec = itg.QuadratureSpec(8, 4, 1)
    dom, x = _ragged(n, alg.sample_unit_imaginary(tag, rng))
    cubic = _random_cubic(rng, tag, n)
    hooked = _conj_z1_zn_hooked(element(tag, rng.standard_normal(tag.dim)), n)
    faces = [_face_reference(dom, x, spec, k) for k in range(n)]
    for F in (cubic, stm.StemFunction(arity=n, tag=tag, batch_evaluator=cubic.batch_evaluator), hooked):
        want = sum(_algebra_valued_sum(dom.j, c, stm.evaluate_stem_batch(F, Z)) for Z, c in faces)
        got = itg.bm_boundary_integral(sf.SliceFunction(F), dom, x, spec).coeffs
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.linalg.norm(want)), type(F).__name__
    Z, C = _volume_reference(dom, x, spec, 0)
    want = sum(_algebra_valued_sum(dom.j, c, hooked.batch_wirtinger(Z, j)[1]) for j, c in enumerate(C))
    want *= math.factorial(n - 1) / math.pi**n
    got = itg.bm_volume_integral(sf.SliceFunction(hooked), dom, x, spec).coeffs
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(want) > 1e-3


@pytest.mark.parametrize("chunk, arities", [(2048, (1, 2, 3)), (30, (1, 2)), (4, (1, 2))])
def test_polynomial_boundary_matches_generic_stem(monkeypatch, chunk, arities):
    # a polynomial's boundary rule sums its monomials from per-disc
    # power tables and applies its coefficients once; wrapped as a generic
    # stem, the same polynomial is evaluated at every chunk's nodes.  The two
    # agree to rounding whatever the chunk layouts.  chunk is a stem-valued
    # chunk's rows, and a polynomial chunk takes 8x as many nodes: at 2048
    # every n <= 2 face here is one polynomial chunk and one generic chunk,
    # and an n = 3 generic chunk 51 outer nodes against the last disc (n = 3
    # polynomial faces are separable and not chunked); at 30 the generic rule
    # slices the n = 1 circle and every last disc; at 4 the polynomial rule
    # does too
    monkeypatch.setattr(itg, "CHUNK_DOUBLES", chunk * itg.STEM_ROW_DOUBLES)
    rng = np.random.default_rng(17)
    specs = {1: itg.QuadratureSpec(64, 8, 1), 2: itg.QuadratureSpec(16, 8, 1), 3: itg.QuadratureSpec(8, 5, 1)}
    for tag in (OCTONION, QUATERNION):
        Jt = alg.sample_unit_imaginary(tag, rng)
        for n in arities:
            spec = specs[n]
            dom, x = _ragged(n, Jt)
            cubic = _random_cubic(rng, tag, n)
            for p in (cubic, cubic - cubic, stm.constant_poly(tag, n, element(tag, rng.standard_normal(tag.dim)))):
                generic = sf.SliceFunction(stm.StemFunction(arity=n, tag=tag, batch_evaluator=p.batch_evaluator))
                got, want = itg.bm_boundary_integral(sf.lift(p), dom, x, spec), itg.bm_boundary_integral(generic, dom, x, spec)
                msg = f"{tag} n={n} T={len(p.exponents)}"
                if len(p.exponents) == 0:
                    # the zero polynomial reads exactly 0 on both paths
                    np.testing.assert_array_equal(got.coeffs, 0.0, err_msg=msg)
                    np.testing.assert_array_equal(want.coeffs, 0.0, err_msg=msg)
                assert (got - want).norm() <= 1e-14 * (1.0 + want.norm()), msg


class _CountedCoefficients(np.ndarray):
    """A coefficient matrix that counts every numpy call reading it."""

    reads = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedCoefficients.reads += 1
        inputs = tuple(a.view(np.ndarray) if isinstance(a, _CountedCoefficients) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _CountedCoefficients.reads += 1
        return super().__array_function__(func, types, args, kwargs)


@pytest.mark.parametrize("n, spec", [(2, (32, 16, 1)), (3, (8, 5, 1))])
def test_polynomial_boundary_reads_its_coefficients_once(n, spec):
    # the chunks reduce the monomials alone; the coefficients are contracted
    # once, in the finishing step, however many chunks the call has
    dom, x = _ragged(n)
    p = _random_cubic(np.random.default_rng(4), TAG, n)
    counted = stm.StemPolynomial(TAG, n, p.exponents, p.coefficients.view(_CountedCoefficients))
    spec = itg.QuadratureSpec(*spec)
    want = itg.bm_boundary_integral(sf.lift(p), dom, x, spec)
    _CountedCoefficients.reads = 0
    got = itg.bm_boundary_integral(sf.lift(counted), dom, x, spec)
    assert _CountedCoefficients.reads == 1
    np.testing.assert_array_equal(got.coeffs, want.coeffs)


def test_polynomial_boundary_evaluates_no_nodes(monkeypatch):
    calls = []
    evaluate = itg.evaluate_stem_batch

    def counted(F, Z):
        calls.append(Z.shape[0])
        return evaluate(F, Z)

    monkeypatch.setattr(itg, "evaluate_stem_batch", counted)
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E0, (2, 0): E3})
    spec = itg.QuadratureSpec(16, 8, 1)
    itg.bm_boundary_integral(sf.lift(p), _bidisc(), _x2(), spec)
    assert calls == []
    generic = sf.SliceFunction(stm.StemFunction(arity=2, tag=TAG, batch_evaluator=p.batch_evaluator))
    itg.bm_boundary_integral(generic, _bidisc(), _x2(), spec)
    # each face folded over conjugation: its circle angles 0..8 of 16 against
    # the other disc's 128 nodes, each evaluated once
    assert calls and sum(calls) == 2 * 9 * 128


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("M", [8, 9, 16, 33])
def test_folded_faces_match_unfolded_reference(n, M):
    # a generic face evaluates its stem on half the circle angles and reduces
    # each node against its own coefficient and its mirror's; an intrinsic
    # stem makes that the plain sum of c F over every node of every face
    rng = np.random.default_rng(70 + 10 * n + M)
    spec = itg.QuadratureSpec(M, 4, 1)
    for tag in (OCTONION, QUATERNION):
        Jt = alg.sample_unit_imaginary(tag, rng)
        dom, x = _ragged(n, Jt)
        F = _recip_sum_stem(tag, n, element(tag, rng.standard_normal(tag.dim)))
        w = itg._bm_boundary(sf.SliceFunction(F), dom, x.z, spec)[0]
        got = w.re.coeffs + 1j * w.im.coeffs
        want = np.zeros(tag.dim, dtype=complex)
        for k in range(n):
            rules = _disc_rules(dom, spec, k)
            others = [np.arange(len(rules[l][0])) for l in range(n) if l != k]
            # one circle angle at a time, so the n = 3 reference stays small
            for m in range(M):
                mesh = iter(g.ravel() for g in np.meshgrid(*others, indexing="ij"))
                grids = [np.array([m]) if l == k else next(mesh) for l in range(n)]
                size = max(len(g) for g in grids)
                Z, c = _face_coefficients(dom, x, k, rules, [np.broadcast_to(g, size) for g in grids])
                F1, F2 = stm.evaluate_stem_batch(F, Z)
                want += c @ (F1 + 1j * F2)
        assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.linalg.norm(want)), (tag.name, n, M)


@pytest.mark.parametrize("n, M", [(1, 8), (1, 9), (2, 16), (2, 9), (3, 8), (3, 9)])
def test_generic_call_evaluates_half_the_circle_angles(monkeypatch, n, M):
    # face k reads its stem at the circle angles 0..M//2 only, against every
    # node of the other discs: n (M//2 + 1) (R M)^(n-1) rows in all
    calls = []
    evaluate = itg.evaluate_stem_batch

    def counted(F, Z):
        calls.append(Z.shape[0])
        return evaluate(F, Z)

    monkeypatch.setattr(itg, "evaluate_stem_batch", counted)
    R = 5
    dom, x = _ragged(n)
    F = _recip_sum_stem(TAG, n, E1 + 0.5 * E3)
    itg.bm_boundary_integral(sf.SliceFunction(F), dom, x, itg.QuadratureSpec(M, R, 1))
    assert sum(calls) == n * (M // 2 + 1) * (R * M) ** (n - 1)
    assert max(calls) <= itg.CHUNK_DOUBLES // itg.STEM_ROW_DOUBLES


def test_bm_quadrature_refuses_non_intrinsic_stems(monkeypatch):
    # every rule reads F(conj xi) as conj F(xi), so a stem flagged
    # non-intrinsic is refused before any node is built or evaluated
    def unreachable(*args):
        raise AssertionError("quadrature work started")

    monkeypatch.setattr(itg, "_face_nodes", unreachable)
    monkeypatch.setattr(itg, "_volume_nodes", unreachable)
    dom, x = _bidisc(), _x2()
    spec = itg.QuadratureSpec(16, 8, 1)
    q = sf.slice_point(x.alpha, x.beta, alg.sample_unit_imaginary(TAG, 5))
    p = stm.stem_polynomial(TAG, 2, {(1, 2): E0, (1, 0): E3})
    flagged = stm.StemFunction(arity=2, tag=TAG, batch_evaluator=unreachable, smoothness=stm.Smoothness.C1,
                               intrinsic=False)
    # restrict_stem flags a restriction at an anchor off the real axis
    restricted = stm.restrict_stem(p, 0, [0.0, 0.5 + 0.5j])
    assert not restricted.intrinsic
    dom1 = itg.PolydiscDomain(np.zeros(1), np.ones(1), J)
    x1 = sf.point_from_z(np.array([0.3 + 0.2j]), J)
    for F, d, point in ((flagged, dom, x), (restricted, dom1, x1)):
        f = sf.SliceFunction(F)
        qf = sf.slice_point(point.alpha, point.beta, q.j)
        for call in (lambda: itg.bm_boundary_integral(f, d, point, spec),
                     lambda: itg.bm_volume_integral(f, d, point, spec),
                     lambda: itg.off_slice_evaluate(f, d, qf, spec),
                     lambda: itg.hartogs_extend(f, d, 0.5, spec),
                     lambda: itg.reproduce_check(f, d, point, spec),
                     lambda: itg.correction_check(f, d, point, spec)):
            with pytest.raises(sf.IntrinsicityError):
                call()


def test_kernel_factor_powers_match_np_power():
    # K = (d_outer + d_last)^-n by n - 1 products in place, within rounding of np.power
    rng = np.random.default_rng(11)
    d_outer, d_last = rng.random((1, 64)), rng.random((1, 256))
    S, K = np.empty((2, 1, 64, 256))
    for n in (1, 2, 3, 4):
        want = 1.0 / np.power(d_outer.T + d_last, n)
        itg._kernel_factor(itg._with_ones(d_outer, 0), itg._with_ones(d_last, 1), n, S, K)
        np.testing.assert_allclose(K[0], want, rtol=2e-15, atol=0)


def _counting(monkeypatch, name):
    """Patch integral's name to count its calls; returns the list of calls."""
    calls = []
    fn = getattr(itg, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(itg, name, counted)
    return calls


def test_polynomial_chunks_fill_the_bound(monkeypatch):
    # a polynomial chunk holds one double a node, so it takes CHUNK_DOUBLES
    # nodes; a stem-valued chunk holds F1 and F2, and takes 2048 rows
    assert (itg.CHUNK_DOUBLES, itg.CHUNK_DOUBLES // itg.STEM_ROW_DOUBLES) == (16384, 2048)
    monomial = _counting(monkeypatch, "_monomial_sums")
    pair = _counting(monkeypatch, "_stem_sums")
    cases = [
        # n = 2, (32,16): two faces of 16,384 nodes, one chunk each
        (OCTONION, 2, (32, 16, 1), 2),
        (QUATERNION, 2, (32, 16, 1), 2),
        # (64,32): two faces of 131,072 nodes, 8 chunks of 8 outer nodes each
        (OCTONION, 2, (64, 32, 1), 16),
    ]
    for tag, n, spec, chunks in cases:
        dom, x = _ragged(n, alg.sample_unit_imaginary(tag, np.random.default_rng(3)))
        monomial.clear()
        f = sf.lift(_random_cubic(np.random.default_rng(5), tag, n))
        itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(*spec))
        assert (len(monomial), len(pair)) == (chunks, 0), (tag, n, spec)
    # a generic stem's folded (32,16) faces are 17 circle angles against a
    # 512-node disc: 5 stem-valued chunks each, four of 2048 rows and one of 512
    dom, x = _ragged(2)
    p = _random_cubic(np.random.default_rng(5), TAG, 2)
    generic = sf.SliceFunction(stm.StemFunction(arity=2, tag=TAG, batch_evaluator=p.batch_evaluator))
    monomial.clear()
    itg.bm_boundary_integral(generic, dom, x, itg.QuadratureSpec(32, 16, 1))
    assert (len(monomial), len(pair)) == (0, 10)


@pytest.mark.parametrize("terms", [4, 20])
def test_polynomial_chunks_bound_the_outer_fold(monkeypatch, terms):
    # Q_outer holds 2T doubles an outer node and K one a node, so a chunk's
    # outer nodes are cut until both fit CHUNK_DOUBLES; uncut, a 20-term
    # stem's Q_outer would hold 20,480 doubles at n = 2 (32,16).  The result
    # still matches the generic path.  n >= 3 faces are separable and form no chunks
    seen = []
    sums = itg._monomial_sums

    def recorded(Q_outer, Q_last, K):
        seen.append((Q_outer.shape, K.size))
        return sums(Q_outer, Q_last, K)

    monkeypatch.setattr(itg, "_monomial_sums", recorded)
    rng = np.random.default_rng(terms)
    dom, x = _ragged(2)
    p = _many_terms(rng, TAG, 2, terms)
    got = itg.bm_boundary_integral(sf.lift(p), dom, x, itg.QuadratureSpec(32, 16, 1))
    assert seen and all(shape[0] == terms for shape, _ in seen)
    assert max(2 * terms * shape[1] for shape, _ in seen) <= itg.CHUNK_DOUBLES
    assert max(size for _, size in seen) <= itg.CHUNK_DOUBLES
    generic = sf.SliceFunction(stm.StemFunction(arity=2, tag=TAG, batch_evaluator=p.batch_evaluator))
    want = itg.bm_boundary_integral(generic, dom, x, itg.QuadratureSpec(32, 16, 1))
    assert (got - want).norm() <= 1e-14 * (1.0 + want.norm()), terms


@pytest.mark.parametrize("path", ["polynomial", "generic"])
def test_chunk_sum_fault_fails_reproduction(monkeypatch, path):
    # a fault in the chunk sums, here each chunk's complex sum X conjugated,
    # moves the stem value the rules return, and the comparison with the
    # lift sees it.  A generic face's chunks are reduced by _stem_sums
    name = "_monomial_sums" if path == "polynomial" else "_stem_sums"
    sums = getattr(itg, name)

    def faulty(*args):
        return np.conj(sums(*args))

    p = _random_cubic(np.random.default_rng(8), TAG, 2)
    f = sf.lift(p) if path == "polynomial" else sf.SliceFunction(
        stm.StemFunction(arity=2, tag=TAG, batch_evaluator=p.batch_evaluator))
    dom, x = _ragged(2)
    spec = itg.QuadratureSpec(32, 16, 1)
    assert itg.reproduce_check(f, dom, x, spec).abs_error <= 1e-8
    monkeypatch.setattr(itg, name, faulty)
    assert itg.reproduce_check(f, dom, x, spec).abs_error > 1e-3


def _spread(op, outer, inner):
    """Values (width, k b) of k outer nodes (width, k) op b last-factor columns (width, b), in C order."""
    return op(outer[:, :, None], inner[:, None, :]).reshape(len(inner), outer.shape[1] * inner.shape[1])


def test_streamed_grid_matches_meshgrid():
    rng = np.random.default_rng(21)
    sizes = (5, 3, 7)
    vals = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes]
    weights = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes]
    # per-factor tables of width T = 0, 1 and 4, like a polynomial's power columns
    widths = (0, 1, 4)
    powers = [[rng.standard_normal((T, m)) + 1j * rng.standard_normal((T, m)) for m in sizes] for T in widths]
    # the nodes as an add group: factor f's values in row f, exact zeros elsewhere
    one_hot = [np.where(np.arange(len(sizes))[:, None] == f, v, 0) for f, v in enumerate(vals)]
    groups = [(np.add, one_hot), (np.multiply, [w[None] for w in weights])]
    groups += [(np.multiply, tables) for tables in powers]
    # reference: the whole grid in meshgrid order, every group folded left to right
    grids = np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")
    Z_ref = np.stack([v[g.ravel()] for v, g in zip(vals, grids)], axis=1)
    W_ref = functools.reduce(np.multiply, [w[g.ravel()] for w, g in zip(weights, grids)])
    P_refs = [functools.reduce(np.multiply, [t[:, g.ravel()] for t, g in zip(tables, grids)]) for tables in powers]
    # the last factor (7 columns) is the inner block.  2048 rows: one chunk
    # of all 15 outer nodes; 64: nine outer nodes to a chunk; 20: two to a
    # chunk; 5: the last factor alone exceeds the rows and is sliced
    for chunk in (2048, 64, 20, 5):
        # per chunk and group: (op, the outer nodes' fold, the last factor's columns)
        chunks = [[(op, itg._fold(op, tables, idx), tables[-1][:, sl]) for op, tables in groups]
                  for idx, sl in itg._blocks(sizes, chunk)]
        # each chunk's outer fold holds its own outer nodes only
        assert all(outer.shape[1] * last.shape[1] <= chunk for part in chunks for _, outer, last in part), chunk
        parts = [[_spread(*group) for group in part] for part in chunks]
        assert all(Z.shape[1] == W.shape[1] <= chunk for Z, W, *_ in parts), chunk
        np.testing.assert_array_equal(np.concatenate([Z for Z, *_ in parts], axis=1).T, Z_ref)
        np.testing.assert_array_equal(np.concatenate([W[0] for _, W, *_ in parts]), W_ref)
        for g, (T, P_ref) in enumerate(zip(widths, P_refs), start=2):
            P = np.concatenate([part[g] for part in parts], axis=1)
            assert P.shape == (T, Z_ref.shape[0]), (chunk, T)
            np.testing.assert_array_equal(P, P_ref)


def _face_permutation_sign(n, k):
    """Sign of the permutation from the written differential order to face k's block order.

    Written: conj differentials for l != k ascending, then all holomorphic ones.
    Block:   the circle differential dxi_k first, then (conj_l, holo_l) pairs.
    """
    original = [("c", l) for l in range(n) if l != k] + [("h", l) for l in range(n)]
    target = [("h", k)] + [p for l in range(n) if l != k for p in (("c", l), ("h", l))]
    perm = [original.index(row) for row in target]
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1.0 if inversions % 2 else 1.0


def test_face_signs_cancel():
    # the orientation of C^n, the j = k term's sign and the block permutation;
    # _face_nodes leaves all three out because their product is +1
    for n in range(1, 9):
        for k in range(n):
            assert (-1.0) ** (n * (n - 1) // 2) * (-1.0) ** k * _face_permutation_sign(n, k) == 1.0, (n, k)


def _disc_rules(dom, spec, k):
    """Face k's per-disc rules: nodes, product weights and each node's mirror, the index of the node at the conjugate angle."""
    M, R = spec.angular_nodes, spec.radial_nodes
    ring = np.exp(2j * np.pi * np.arange(M) / M)
    t, w = np.polynomial.legendre.leggauss(R)
    rho, w_rho = 0.5 * (t + 1.0), 0.5 * w
    back = -np.arange(M) % M
    rules = []
    for l, (c, r) in enumerate(zip(dom.centers, dom.radii)):
        if l == k:
            rules.append((c + r * ring, (2 * np.pi / M) * 1j * r * ring, back))
        else:
            xi = c + r * np.outer(rho, ring).ravel()
            rules.append((xi, np.repeat(r * w_rho * 2j * r * rho, M) * (2 * np.pi / M), (M * np.arange(R)[:, None] + back).ravel()))
    return rules


def _face_coefficients(dom, x, k, rules, grids):
    """Nodes (N, n) and coeff * g_k(xi) at the nodes whose per-disc indices are grids."""
    n = dom.n
    Z = np.stack([d[0][g] for d, g in zip(rules, grids)], axis=1)
    coeff = np.prod([d[1][g] for d, g in zip(rules, grids)], axis=0)
    coeff *= math.factorial(n - 1) / (2j * np.pi) ** n * (-1.0) ** (n * (n - 1) // 2)
    coeff *= (-1.0) ** k * _face_permutation_sign(n, k)
    diff = Z - x.z
    return Z, coeff * np.conj(diff[:, k]) / np.sum(np.abs(diff) ** 2, axis=1) ** n


def _face_reference(dom, x, spec, k):
    """Face k's nodes and coeff * g_k(xi) over the whole grid, from per-disc rules and a meshgrid in disc order."""
    rules = _disc_rules(dom, spec, k)
    grids = [g.ravel() for g in np.meshgrid(*[np.arange(len(d[0])) for d in rules], indexing="ij")]
    return _face_coefficients(dom, x, k, rules, grids)


def _folded_face_reference(dom, x, spec, k):
    """Face k folded over conjugation, from per-disc rules and a meshgrid.

    The nodes (N, n) are the circle angles 0..M//2 of disc k against the
    other discs' nodes, in C order of (angle, other discs in disc order);
    the coefficients (2, N) are coeff * g_k at each node and at its mirror,
    both halved at the self-conjugate angles 0 and pi.
    """
    M = spec.angular_nodes
    rules = _disc_rules(dom, spec, k)
    order = [k] + [l for l in range(dom.n) if l != k]
    sizes = [M // 2 + 1 if l == k else len(rules[l][0]) for l in order]
    mesh = [g.ravel() for g in np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")]
    grids = [mesh[order.index(l)] for l in range(dom.n)]
    Z, c = _face_coefficients(dom, x, k, rules, grids)
    Z_mirror, c_mirror = _face_coefficients(dom, x, k, rules, [d[2][g] for d, g in zip(rules, grids)])
    # the mirror node is the conjugate node, up to the rounding of e^{i phi}
    np.testing.assert_allclose(Z_mirror, np.conj(Z), rtol=0, atol=1e-14)
    half = np.where((grids[k] == 0) | (2 * grids[k] == M), 0.5, 1.0)
    return Z, half * np.stack((c, c_mirror))


def _volume_reference(dom, x, spec, seed):
    """The volume rule's nodes and per-axis weights W g_j(xi), from its per-factor rules and a meshgrid."""
    n, q, M = dom.n, 2 * spec.volume_refinement + 2, max(8, spec.angular_nodes // 2)
    U, w_pyr = itg._pyramid_table(n, q)
    rng = np.random.default_rng(seed)
    rays, w_ang = [], []
    for c, r, xl in zip(dom.centers, dom.radii, x.z):
        ray = np.exp(2j * np.pi * (np.arange(M) + rng.uniform(0.05, 0.45)) / M)
        # S solves |x_l + S ray - c_l| = r_l with S > 0
        b = np.real(np.conj(xl - c) * ray)
        S = -b + np.sqrt(b**2 + r**2 - abs(xl - c) ** 2)
        np.testing.assert_allclose(np.abs(xl + S * ray - c), r, rtol=1e-14)
        rays.append(S * ray)
        w_ang.append(S**2 * 2 * np.pi / M)
    grids = [g.ravel() for g in np.meshgrid(np.arange(len(w_pyr)), *[np.arange(M)] * n, indexing="ij")]
    diff = U[grids[0]] * np.stack([s[g] for s, g in zip(rays, grids[1:])], axis=1)
    W = w_pyr[grids[0]] * np.prod([w[g] for w, g in zip(w_ang, grids[1:])], axis=0)
    return x.z + diff, (W / np.sum(np.abs(diff) ** 2, axis=1) ** n) * np.conj(diff).T


def _streamed(chunks):
    """A stem-valued rule's chunks joined: Z (count, n), the coefficients (..., 2, count) and each chunk's row count.

    Each chunk is copied as it is drawn: its arrays are views of buffers the
    rule refills for the next chunk.
    """
    parts = [(Z.copy(), C.copy()) for Z, C in chunks]
    Z = np.concatenate([Z for Z, _ in parts], axis=1).T
    return Z, np.concatenate([C for _, C in parts], axis=-1), [C.shape[-1] for _, C in parts]


def _many_terms(rng, tag, n, terms):
    """terms distinct monomials, each exponent below 5 at n = 2 and below 3 otherwise, with random coefficients."""
    mus = set()
    while len(mus) < terms:
        mus.add(tuple(int(m) for m in rng.integers(0, 5 if n == 2 else 3, n)))
    return stm.stem_polynomial(tag, n, {mu: rng.standard_normal(tag.dim) for mu in sorted(mus)})


def _random_cubic(rng, tag, n):
    """Four terms of degree at most 3, one of them with every exponent 1."""
    terms = {(1,) * n: element(tag, rng.standard_normal(tag.dim))}
    while len(terms) < 4:
        mu = tuple(int(v) for v in rng.multinomial(3, np.full(n + 1, 1.0 / (n + 1)))[:n])
        terms[mu] = element(tag, rng.standard_normal(tag.dim))
    return stm.stem_polynomial(tag, n, terms)


def _check_rules_against_meshgrid(dom, x, spec):
    """Every rule visits each node of its grid once, in C order, each chunk within its rule's cap.

    A stem-valued chunk has at most CHUNK_DOUBLES / STEM_ROW_DOUBLES rows.
    Generic faces are folded over conjugation: face k's chunks are its
    circle angles 0..M//2 against the other discs in disc order, with the
    sum and the difference of the coefficients of each node and of its
    mirror (_folded_face_reference).  A polynomial's faces are checked for
    T = 0, 1 and 4 terms, in disc order, against c w^mu at every node.  Up
    to n = 2 they are chunked: spread, Q_outer Q_last K is that table, and a
    face's chunks are whole blocks of its last factor, as many outer nodes
    as cap = CHUNK_DOUBLES * b // max(b, 2T) nodes allow for
    b = min(last, CHUNK_DOUBLES), or, when the last factor alone exceeds
    cap, one outer node against cap-wide slices of it: neither K (1 double
    a node) nor Q_outer (2T an outer node) exceeds CHUNK_DOUBLES.  From
    n = 3 they are separable, and face k's sums are the table's sum over
    the face, to 1e-14 of the sum of its magnitudes.
    """
    stem_rows = itg.CHUNK_DOUBLES // itg.STEM_ROW_DOUBLES
    n, M, R = dom.n, spec.angular_nodes, spec.radial_nodes
    Z, P, sizes = _streamed(itg._face_nodes(dom, spec, x.z))
    refs = [_folded_face_reference(dom, x, spec, k) for k in range(n)]
    Z_ref, C_ref = np.concatenate([Z for Z, _ in refs]), np.concatenate([C for _, C in refs], axis=1)
    assert Z.shape == Z_ref.shape and max(sizes) <= stem_rows
    np.testing.assert_allclose(Z, Z_ref, rtol=0, atol=1e-15)
    P_ref = np.stack((C_ref[0] + C_ref[1], C_ref[0] - C_ref[1]))
    assert np.max(np.abs(P[:, 0] + 1j * P[:, 1] - P_ref) / np.abs(C_ref).sum(axis=0)) <= 1e-14
    cubic = _random_cubic(np.random.default_rng(n), TAG, n)
    faces = [_face_reference(dom, x, spec, k) for k in range(n)]
    for p in [cubic - cubic, stm.coordinate(TAG, n, n - 1), cubic]:
        V_ref = []
        for Z_face, c_face in faces:
            m_ref = np.prod(Z_face[:, None, :] ** p.exponents[None], axis=2).T
            V_ref.append(c_face * m_ref)
        if n >= 3:
            parts = itg._separable_faces(dom, spec, x.z, p)
            assert len(parts) == n
            for got, V_face in zip(parts, V_ref):
                assert got.shape == (len(p.exponents),)
                scale = np.abs(V_face).sum(axis=1).max(initial=0.0)
                np.testing.assert_allclose(got, V_face.sum(axis=1), rtol=0, atol=1e-14 * scale)
            continue
        two_t = 2 * len(p.exponents)
        V, shapes = [], []
        for Q_outer, Q_last, K in itg._face_nodes(dom, spec, x.z, p):
            assert two_t * Q_outer.shape[1] <= itg.CHUNK_DOUBLES and K.size <= itg.CHUNK_DOUBLES
            # formed before the next chunk is drawn, which overwrites K
            V.append(_spread(np.multiply, Q_outer, Q_last) * K.ravel())
            shapes.append(K.shape)
        for k in range(n):
            grid = [M if l == k else R * M for l in range(n)]
            b = min(grid[-1], itg.CHUNK_DOUBLES)
            cap = itg.CHUNK_DOUBLES * b // max(b, two_t)
            outer = math.prod(grid[:-1])
            if grid[-1] <= cap:
                per = cap // grid[-1]
                want = [(min(per, outer - o), grid[-1]) for o in range(0, outer, per)]
            else:
                want = [(1, min(cap, grid[-1] - a)) for _ in range(outer) for a in range(0, grid[-1], cap)]
            assert shapes[: len(want)] == want, (k, two_t)
            shapes = shapes[len(want) :]
        assert shapes == []
        V = np.concatenate(V, axis=1)
        V_ref = np.concatenate(V_ref, axis=1)
        assert V.shape == V_ref.shape == (len(p.exponents), sum(len(Z_face) for Z_face, _ in faces))
        np.testing.assert_allclose(V, V_ref, rtol=1e-14, atol=0)
    Z, C, sizes = _streamed(itg._volume_nodes(dom, x.z, spec))
    Z_ref, C_ref = _volume_reference(dom, x, spec, 0)
    assert Z.shape == Z_ref.shape and max(sizes) <= stem_rows
    np.testing.assert_allclose(Z, Z_ref, rtol=0, atol=1e-15)
    assert np.max(np.abs(C[:, 0] + 1j * C[:, 1] - C_ref) / np.abs(C_ref)) <= 1e-14


def _ragged(n, j=J):
    """Discs of different centers and radii, and a point off every center."""
    dom = itg.PolydiscDomain(np.array([0.2, -0.1, 0.0][:n]), np.array([1.0, 0.7, 1.3][:n]), j)
    return dom, sf.point_from_z(np.array([0.35 + 0.2j, -0.25 + 0.3j, 0.1 - 0.5j][:n]), j)


@pytest.mark.parametrize("n", [2, 3])
def test_chunk_kernel_weights_match_meshgrid(n):
    # ragged: discs of different centers and radii, and R != M
    _check_rules_against_meshgrid(*_ragged(n), itg.QuadratureSpec(8, 5, 1))


@pytest.mark.parametrize(
    "n, spec, chunk",
    [
        # chunk is a stem-valued chunk's rows; a polynomial chunk takes
        # STEM_ROW_DOUBLES = 8 times as many nodes (the 4-term cubic's Q_outer,
        # 8 doubles an outer node, ties with the 8-angle circle and does not
        # cut them).  A folded generic face is its 5 circle angles (of 8)
        # against the other disc's 40 nodes: one angle to a 64-row chunk; the
        # volume rule's last factor, 64 angle tuples, is one chunk
        (2, (8, 5, 1), 64),
        # M = 24, R = 12: a folded generic face is 13 angles against a
        # 288-node disc, seven to a stem-valued chunk; a polynomial face 0 is
        # all 24 angles (the whole face) in one chunk, face 1's last factor
        # is 24 angles and the volume rule's 144 angle tuples, 14 pyramid
        # points to a chunk
        (2, (24, 12, 1), 2048),
        # a last factor larger than the rows is sliced: the 40-node disc and
        # the volume rule's 64 tuples at n = 2, and every last factor at n = 3
        (2, (8, 5, 1), 32),
        (3, (8, 5, 1), 7),
        # n = 1: the circle (its 5 folded angles for a generic stem) is the
        # face's only factor, one chunk or sliced
        (1, (8, 5, 1), 2048),
        (1, (8, 5, 1), 3),
        # 32 nodes to a polynomial chunk: it slices face 0's 40-node disc too
        (2, (8, 5, 1), 4),
    ],
)
def test_chunk_layouts_visit_every_node_once(monkeypatch, n, spec, chunk):
    monkeypatch.setattr(itg, "CHUNK_DOUBLES", chunk * itg.STEM_ROW_DOUBLES)
    _check_rules_against_meshgrid(*_ragged(n), itg.QuadratureSpec(*spec))


def _traced_peak_mb(fn) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_quadrature_memory_stays_chunk_sized():
    from hyperslice.suites import _conj_z1_stem

    # 786,432 boundary nodes at n = 3 and 131,072 volume nodes at n = 2;
    # building either grid whole takes 52 MB and 18 MB.  A polynomial's
    # n = 3 faces are separable (test_separable_call_reaches_the_default_spec),
    # so the boundary grid is streamed for its stem taken as a generic one
    dom3 = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x3 = sf.point_from_z(np.array([0.2 + 0.1j, -0.3j, 0.15]), J)
    p3 = stm.stem_polynomial(TAG, 3, {(1, 0, 2): E1, (0, 1, 0): E0, (2, 1, 1): E3})
    f3 = sf.SliceFunction(stm.StemFunction(arity=3, tag=TAG, batch_evaluator=p3.batch_evaluator))
    peak = _traced_peak_mb(lambda: itg.bm_boundary_integral(f3, dom3, x3, itg.QuadratureSpec(16, 8, 1)))
    assert peak <= 8.0, f"n=3 boundary peak {peak:.1f} MB"
    g = sf.lift(_conj_z1_stem(TAG, 2, E1))
    peak = _traced_peak_mb(lambda: itg.bm_volume_integral(g, _bidisc(), _x2(), SPEC))
    assert peak <= 8.0, f"V=3 volume peak {peak:.1f} MB"
    # M_v = 256 angles a disc: 65,536 angle tuples, more than a chunk's rows,
    # whose rays, S^2 and weights tabulated whole would take 8 MB
    peak = _traced_peak_mb(lambda: itg.bm_volume_integral(g, _bidisc(), _x2(), itg.QuadratureSpec(512, 4, 0)))
    assert peak <= 2.0, f"M_v=256 volume peak {peak:.1f} MB"


def test_polynomial_chunks_hold_one_kernel_factor():
    # a chunk's K is written into the call's buffers, the distance sum S and
    # K, and raised to -n in place by repeated products: no broadcast buffers
    # or copies besides them, and the sum has the same bits as np.add
    rng = np.random.default_rng(6)
    d_outer, d_last = rng.random((1, 128)), rng.random((1, 128))
    S, K = np.empty((2, 1, 128, 128))
    for n in (1, 2, 3):
        want = 1.0 / functools.reduce(np.multiply, [d_outer.T + d_last] * n)
        got = []
        B = itg._with_ones(d_last, 1)
        peak = _traced_peak_mb(lambda: got.append(itg._kernel_factor(itg._with_ones(d_outer, 0), B, n, S, K)))
        assert got[0] is K
        np.testing.assert_array_equal(K[0], want)
        assert peak * 2**20 <= 8192, n
    # whole polynomial calls of 2 and 16 chunks stay within 1.5 MB
    for n, spec in [(2, (32, 16, 1)), (2, (64, 32, 1))]:
        dom, x = _ragged(n)
        f = sf.lift(_random_cubic(np.random.default_rng(5), TAG, n))
        peak = _traced_peak_mb(lambda: itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(*spec)))
        assert peak <= 1.5, f"n={n} {spec} peak {peak:.2f} MB"


@pytest.mark.parametrize("chunk", [2048, 4])
def test_face_kernel_factor_matches_a_per_chunk_last_factor(monkeypatch, chunk):
    # each face builds [1; d_last] once and passes each chunk a column slice
    # of it; every entry d_outer 1 + 1 d_last rounds once in any gemm layout,
    # so K has the bits of a freshly allocated, contiguous per-chunk factor,
    # on chunked polynomial faces and on folded generic faces alike
    monkeypatch.setattr(itg, "CHUNK_DOUBLES", chunk * itg.STEM_ROW_DOUBLES)
    kernel, sliced = itg._kernel_factor, []

    def checked(A, B, n, S, K):
        fresh = np.ones(B.shape)
        fresh[..., 1, :] = B[..., 1, :]
        S2 = np.empty(S.shape)
        want = kernel(A, fresh, n, S2, S2 if S is K else np.empty(K.shape))
        got = kernel(A, B, n, S, K)
        np.testing.assert_array_equal(got, want)
        sliced.append(not B.flags.c_contiguous)
        return got

    monkeypatch.setattr(itg, "_kernel_factor", checked)
    spec, kinds = itg.QuadratureSpec(8, 5, 1), {}
    for n in (1, 2, 3):
        dom, x = _ragged(n)
        p = _random_cubic(np.random.default_rng(5), TAG, n)
        generic = sf.SliceFunction(stm.StemFunction(arity=n, tag=TAG, batch_evaluator=p.batch_evaluator))
        # n = 3 polynomial faces are separable and form no kernel factor
        for f in ([sf.lift(p)] if n < 3 else []) + [generic]:
            sliced.clear()
            itg.bm_boundary_integral(f, dom, x, spec)
            assert sliced, (n, type(f.stem).__name__)
            kinds[type(f.stem).__name__] = kinds.get(type(f.stem).__name__, False) or any(sliced)
    # below a whole face a chunk, both face kinds pass column slices
    assert kinds == {"StemPolynomial": chunk < 2048, "StemFunction": chunk < 2048}


def _tridisc_bm(j=J):
    """The unit tridisc and the bm suite's point with a third coordinate, 0.2 - 0.3i."""
    dom = itg.PolydiscDomain(np.zeros(3), np.ones(3), j)
    return dom, sf.point_from_z(np.array([0.3 + 0.2j, -0.1 + 0.4j, 0.2 - 0.3j]), j)


def _tridisc_cubic():
    """The octonion 4-term cubic of the convergence baseline, lifted."""
    from hyperslice.suites import random_polynomial

    return sf.lift(random_polynomial(TAG, 3, 3, np.random.default_rng(0), terms=4))


def _chunked_boundary(p, dom, x, spec):
    """A polynomial's boundary rule from its chunked faces, at any n, lifted to the domain's slice."""
    chunks = itertools.starmap(itg._monomial_sums, itg._face_nodes(dom, spec, x.z, p))
    return sf.lift_value(itg._reduce(dom.j.tag, chunks, p.coefficients), dom.j)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("s_range", [(0.0025, 20.0), (0.01, 3.0), (0.3, 5.0)])
def test_exponential_sum_is_accurate(n, s_range):
    # sum_q a_q exp(-b_q s) against s^-n in extended precision over the
    # range; a step of 0.25 reaches only 5.7e-14 at n = 3 and 4.8e-13 at n = 4
    a, b = itg._exponential_sum(n, *s_range)
    s = np.geomspace(*s_range, 2001)
    want = 1.0 / np.power(s.astype(np.longdouble), n)
    err = float(np.max(np.abs((np.exp(-np.outer(s, b)) @ a - want) / want)))
    assert err <= (1e-15 if n <= 4 else 2e-15), err


@pytest.mark.parametrize("spec", [(16, 8, 1), (24, 12, 1)])
def test_separable_faces_match_chunked_faces(spec):
    # from n = 3 a polynomial's faces are per-disc sums against the
    # exponential sum of K; the chunked faces spread K itself.  They agree
    # to 1e-14 (1 + |v|) for T = 1, 4 and 20 terms and a constant, at the
    # bm point and at a point on the interior margin
    spec = itg.QuadratureSpec(*spec)
    rng = np.random.default_rng(28)
    for tag in (OCTONION, QUATERNION):
        Jt = alg.sample_unit_imaginary(tag, rng)
        dom, bm = _tridisc_bm(Jt)
        margin = sf.point_from_z(np.array([1.0 - itg.INTERIOR_MARGIN, 0.3j, -0.2 + 0.1j]), Jt)
        constant = stm.constant_poly(tag, 3, one(tag))
        polys = [constant, _many_terms(rng, tag, 3, 1), _random_cubic(rng, tag, 3), _many_terms(rng, tag, 3, 20)]
        for x, p in itertools.product((bm, margin), polys):
            got, want = itg.bm_boundary_integral(sf.lift(p), dom, x, spec), _chunked_boundary(p, dom, x, spec)
            assert (got - want).norm() <= 1e-14 * (1.0 + want.norm()), (tag, x.z, len(p.exponents))
        # f = 1 calibrates to 1
        assert (itg.bm_boundary_integral(sf.lift(constant), dom, bm, spec) - one(tag)).norm() <= 1e-5


def test_separable_faces_build_each_table_once(monkeypatch):
    # an n = 3 polynomial call reduces no chunk: one build of the discs'
    # columns, power tables and exponential sum, and one sum vector a face
    counts = {name: _counting(monkeypatch, name) for name in (
        "_boundary_columns", "_power_tables", "_exponential_sum", "_monomial_sums", "_stem_sums", "_kernel_factor")}
    dom, x = _tridisc_bm()
    itg.bm_boundary_integral(_tridisc_cubic(), dom, x, itg.QuadratureSpec(16, 8, 1))
    assert {name: len(calls) for name, calls in counts.items()} == {
        "_boundary_columns": 1, "_power_tables": 1, "_exponential_sum": 1, "_monomial_sums": 0, "_stem_sums": 0,
        "_kernel_factor": 0}


def test_separable_faces_reproduce_the_lift(monkeypatch):
    # n = 3 at (32,16), 25,165,824 rule nodes: the chunked faces could not
    # reach it within the budget.  One weight of the exponential sum scaled
    # by 1 + 1e-8, the one that weighs most at s = 1, fails the bound
    dom, x = _tridisc_bm()
    f = _tridisc_cubic()
    spec = itg.QuadratureSpec(32, 16, 1)
    assert itg.reproduce_check(f, dom, x, spec).abs_error <= 1e-11
    exponential_sum = itg._exponential_sum

    def perturbed(*args):
        a, b = exponential_sum(*args)
        a[np.argmax(a * np.exp(-b))] *= 1.0 + 1e-8
        return a, b

    monkeypatch.setattr(itg, "_exponential_sum", perturbed)
    assert itg.reproduce_check(f, dom, x, spec).abs_error > 1e-11


def test_separable_call_reaches_the_default_spec(monkeypatch):
    # n = 3 at the default (64,32) has 805,306,368 rule nodes, which
    # nodes_used still reports; the call builds no chunk and one (Q, 2,112)
    # exponential table, refilled for each disc, and stays within the 8 MB
    # bound of test_quadrature_memory_stays_chunk_sized.  At (16,8) it stays
    # within 1.5 MB
    monkeypatch.setattr(itg, "_face_nodes", _unreachable)
    dom, x = _tridisc_bm()
    f = _tridisc_cubic()
    reports = []
    peak = _traced_peak_mb(lambda: reports.append(itg.reproduce_check(f, dom, x, SPEC)))
    assert reports[0].nodes_used == 3 * 64 * 2048**2
    assert reports[0].abs_error <= 1e-12
    assert peak <= 8.0, f"(64,32) peak {peak:.2f} MB"
    peak = _traced_peak_mb(lambda: itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(16, 8, 1)))
    assert peak <= 1.5, f"(16,8) peak {peak:.2f} MB"


def test_gauss_legendre_rule_is_cached_and_read_only():
    t, w = itg._gauss_legendre_01(6)
    assert itg._gauss_legendre_01(6)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    assert abs(w.sum() - 1.0) <= 1e-15 and abs(w @ t**5 - 1.0 / 6.0) <= 1e-15
