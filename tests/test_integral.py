"""Boundary and volume quadrature on polydiscs in a slice plane."""

import functools
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


def test_dual_routes_agree():
    dom, x = _bidisc(), _x2()
    f = sf.lift(stm.stem_polynomial(TAG, 2, {(2, 1): E1, (0, 1): E0}))
    direct, comp = itg.bm_boundary_dual(f, dom, x, itg.QuadratureSpec(32, 16, 3))
    assert (direct - comp).norm() <= 1e-12
    # componentwise route rebuilt by hand from the two stem components
    p1 = stm.stem_polynomial(TAG, 2, {(2, 1): E1, (0, 1): E0})
    even = sf.lift(p1)
    assert (itg.bm_boundary_integral(even, dom, x, itg.QuadratureSpec(32, 16, 3)) - direct).norm() <= 1e-12


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


def _conj_z1_z2_stem(c):
    """F(z) = conj(z_1) z_2 c with no derivative hook, so dbar comes from finite differences."""

    def _batch(Z):
        w = np.conj(Z[:, 0]) * Z[:, 1]
        return np.real(w)[:, None] * c.coeffs, np.imag(w)[:, None] * c.coeffs

    return stm.StemFunction(arity=2, tag=TAG, batch_evaluator=_batch, smoothness=stm.Smoothness.C1)


def test_volume_fd_path_is_bitwise_the_explicit_formula():
    # the same stem given a hook that writes the central-difference formula out from its four stencil points
    c = element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])
    F = _conj_z1_z2_stem(c)

    def _explicit(Z, t, h=stm.DEFAULT_FD_STEP):
        step = np.zeros(2, dtype=complex)
        step[t] = h
        (ap1, ap2), (am1, am2) = stm.evaluate_stem_batch(F, Z + step), stm.evaluate_stem_batch(F, Z - step)
        (bp1, bp2), (bm1, bm2) = stm.evaluate_stem_batch(F, Z + 1j * step), stm.evaluate_stem_batch(F, Z - 1j * step)
        s = 0.5 / h
        dz = (0.5 * ((ap1 - am1) * s + (bp2 - bm2) * s), 0.5 * ((ap2 - am2) * s - (bp1 - bm1) * s))
        return dz, (0.5 * ((ap1 - am1) * s - (bp2 - bm2) * s), 0.5 * ((ap2 - am2) * s + (bp1 - bm1) * s))

    hooked = stm.StemFunction(arity=2, tag=TAG, batch_evaluator=F.batch_evaluator, batch_wirtinger=_explicit,
                              smoothness=stm.Smoothness.C1)
    dom, x, spec = _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1)
    got = itg.bm_volume_dual(sf.SliceFunction(stem=F), dom, x, spec)
    want = itg.bm_volume_dual(sf.SliceFunction(stem=hooked), dom, x, spec)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert got[0].norm() > 0.01


def test_volume_error_falls_with_refinement():
    from hyperslice.suites import _conj_z1_stem

    dom, x = _bidisc(), _x2()
    c = element(TAG, [0.5, -1.0, 0.25, 0, 0, 2.0, 0, -0.75])
    for stem in (_conj_z1_stem(TAG, 2, c), _conj_z1_z2_stem(c)):
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
    direct, comp, nodes = itg._bm_volume_both(f, dom, x, spec, 0)
    assert nodes <= 100_000
    assert (b - itg._agreed(direct, comp) - sf.lift_evaluate(f, x)).norm() <= 1e-10


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
    # real target point: average of the two mirrored integrals
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


def test_convergence_csv_schema(tmp_path):
    rows = [
        {"M": 16, "R": 32, "V": 3, "abs_error": 1e-7, "wall_ms": 12.5},
        {"M": 32, "R": 32, "V": 3, "abs_error": 1e-13, "wall_ms": 30.0},
    ]
    path = tmp_path / "conv.csv"
    itg.write_convergence_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "M,R,V,abs_error,wall_ms"
    assert lines[1].startswith("16,32,3,1.000000000000000e-07,")


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


def test_node_budget_counts_every_boundary_face(monkeypatch):
    # each face of an n = 3, (32,16) call has 32 x 512^2 = 8,388,608 nodes,
    # under the budget alone; the call's three faces together are over it
    # a polynomial's boundary rule evaluates no nodes one by one, so the
    # guard is on building a face's chunks at all
    def unreachable(*args):
        raise AssertionError("a face's nodes were built")

    monkeypatch.setattr(itg, "_face_nodes", unreachable)
    dom = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x = sf.point_from_z(np.full(3, 0.2 + 0.1j), J)
    f = sf.lift(stm.constant_poly(TAG, 3, E0))
    with pytest.raises(ValueError, match=str(3 * 32 * 512**2)):
        itg.bm_boundary_integral(f, dom, x, itg.QuadratureSpec(32, 16, 1))


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    from hyperslice.suites import _conj_z1_stem

    # the rules read CHUNK when called, so patching it changes the spans
    spans = []
    node_sums = itg._node_sums

    def recorded(c, F, LJ):
        spans.append(c.shape[0])
        return node_sums(c, F, LJ)

    monkeypatch.setattr(itg, "_node_sums", recorded)
    monkeypatch.setattr(itg, "CHUNK", 1000)
    itg.bm_boundary_dual(sf.lift(stm.constant_poly(TAG, 2, E0)), _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1))
    # two faces of 16 x (8 x 16) = 2048 nodes: chunks are whole inner blocks,
    # 7 of 128 rows on face 0 and 62 of 16 rows on face 1
    assert spans == [896, 896, 256, 992, 992, 64]
    p3 = stm.stem_polynomial(TAG, 3, {(1, 0, 2): E1, (0, 1, 0): E0, (2, 1, 1): E3})
    cases = [
        (itg.bm_boundary_dual, sf.lift(stm.stem_polynomial(TAG, 2, {(1, 2): E0, (2, 0): E3})),
         _bidisc(), _x2(), itg.QuadratureSpec(32, 16, 1)),
        (itg.bm_boundary_dual, sf.lift(p3), itg.PolydiscDomain(np.zeros(3), np.ones(3), J),
         sf.point_from_z(np.array([0.2 + 0.1j, -0.3j, 0.15]), J), itg.QuadratureSpec(8, 4, 1)),
        (itg.bm_volume_dual, sf.lift(_conj_z1_stem(TAG, 2, E1 + 0.5 * E3)),
         _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1)),
    ]
    for rule, f, dom, x, spec in cases:
        values = {}
        for chunk in (2048, 65536, 1000):
            monkeypatch.setattr(itg, "CHUNK", chunk)
            direct, comp = rule(f, dom, x, spec)
            assert (direct - comp).norm() <= itg.ROUTE_AGREEMENT_TOL * max(1.0, direct.norm())
            values[chunk] = direct
        ref = values[2048]
        assert ref.norm() > 0.1
        for chunk in (65536, 1000):
            assert (values[chunk] - ref).norm() <= 1e-13 * (1.0 + ref.norm()), (rule.__name__, chunk)


def test_reproduce_check_applies_route_gate(monkeypatch):
    node_sums = itg._node_sums

    def shifted(c, F, LJ):
        direct, comp = node_sums(c, F, LJ)
        return direct, comp + 1e-6

    monkeypatch.setattr(itg, "_node_sums", shifted)
    f = sf.lift(stm.stem_polynomial(TAG, 2, {(1, 0): E0}))
    with pytest.raises(RuntimeError, match="routes disagree"):
        itg.reproduce_check(f, _bidisc(), _x2(), itg.QuadratureSpec(16, 8, 1))


@pytest.mark.parametrize("chunk, arities", [(2048, (1, 2, 3)), (30, (1, 2))])
def test_polynomial_boundary_matches_generic_stem_bitwise(monkeypatch, chunk, arities):
    # a polynomial's boundary rule builds its monomials from per-disc power
    # tables; wrapped as a generic stem, the same polynomial is evaluated at
    # every chunk's nodes.  Both give the same bits, whatever the chunk
    # layout: at 2048 an n <= 2 face is one block and an n = 3 inner block
    # spans two discs; at 30 the n = 1 circle and every last disc are sliced
    monkeypatch.setattr(itg, "CHUNK", chunk)
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
                for got, want in zip(itg.bm_boundary_dual(sf.lift(p), dom, x, spec),
                                     itg.bm_boundary_dual(generic, dom, x, spec)):
                    np.testing.assert_array_equal(got.coeffs, want.coeffs, err_msg=f"{tag} n={n} T={len(p.exponents)}")


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
    # every node of both 16 x 128 faces, evaluated once
    assert calls and sum(calls) == 2 * 16 * 128


def test_streamed_grid_matches_meshgrid(monkeypatch):
    rng = np.random.default_rng(21)
    sizes = (5, 3, 7)
    vals = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes]
    weights = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes]
    # per-factor tables of width T = 0, 1 and 4, like a polynomial's power columns
    widths = (0, 1, 4)
    powers = [[rng.standard_normal((m, T)) + 1j * rng.standard_normal((m, T)) for m in sizes] for T in widths]
    groups = [(None, [v[:, None] for v in vals], False), (np.multiply, [w[:, None] for w in weights], False)]
    groups += [(np.multiply, tables, True) for tables in powers]
    # reference: the whole grid in meshgrid order, weights multiplied disc by disc
    grids = np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")
    Z_ref = np.stack([v[g.ravel()] for v, g in zip(vals, grids)], axis=1)
    W_ref = weights[0][grids[0].ravel()]
    for w, g in zip(weights[1:], grids[1:]):
        W_ref = W_ref * w[g.ravel()]
    # an ordered group folds each node's rows in factor order, as a left-to-right product does
    P_refs = [functools.reduce(np.multiply, [t[g.ravel()] for t, g in zip(tables, grids)]) for tables in powers]
    # 2048: the whole grid is one inner block; 64: an inner block of 3 x 7
    # rows, three to a chunk; 20: inner block 7, two to a chunk; 5: the last
    # factor alone exceeds CHUNK and is sliced
    for chunk in (2048, 64, 20, 5):
        monkeypatch.setattr(itg, "CHUNK", chunk)
        parts = list(itg._product_grid(sizes, groups))
        assert all(Z.shape[1] == W.shape[1] <= chunk for Z, W, *_ in parts), chunk
        np.testing.assert_array_equal(np.concatenate([Z for Z, *_ in parts], axis=1).T, Z_ref)
        np.testing.assert_allclose(np.concatenate([W[0] for _, W, *_ in parts]), W_ref, rtol=1e-15, atol=0)
        for g, (T, P_ref) in enumerate(zip(widths, P_refs), start=2):
            P = np.concatenate([part[g] for part in parts], axis=1)
            assert P.shape == (T, Z_ref.shape[0]), (chunk, T)
            np.testing.assert_array_equal(P.T, P_ref)


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


def _face_reference(dom, x, spec, k):
    """Face k's nodes and coeff * g_k(xi) over the whole grid, from per-disc rules and a meshgrid."""
    n, M, R = dom.n, spec.angular_nodes, spec.radial_nodes
    ring = np.exp(2j * np.pi * np.arange(M) / M)
    t, w = np.polynomial.legendre.leggauss(R)
    rho, w_rho = 0.5 * (t + 1.0), 0.5 * w
    discs = []
    for l, (c, r) in enumerate(zip(dom.centers, dom.radii)):
        if l == k:
            discs.append((c + r * ring, (2 * np.pi / M) * 1j * r * ring))
        else:
            xi = c + r * np.outer(rho, ring).ravel()
            discs.append((xi, np.repeat(r * w_rho * 2j * r * rho, M) * (2 * np.pi / M)))
    grids = [g.ravel() for g in np.meshgrid(*[np.arange(len(d[0])) for d in discs], indexing="ij")]
    Z = np.stack([d[0][g] for d, g in zip(discs, grids)], axis=1)
    coeff = np.prod([d[1][g] for d, g in zip(discs, grids)], axis=0)
    coeff *= math.factorial(n - 1) / (2j * np.pi) ** n * (-1.0) ** (n * (n - 1) // 2)
    coeff *= (-1.0) ** k * _face_permutation_sign(n, k)
    diff = Z - x.z
    return Z, coeff * np.conj(diff[:, k]) / np.sum(np.abs(diff) ** 2, axis=1) ** n


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
    """A rule's chunks joined: Z (count, n), the coefficients (..., count) and each chunk's row count."""
    parts = list(chunks)
    Z = np.concatenate([Z for Z, _ in parts], axis=1).T
    return Z, np.concatenate([c for _, c in parts], axis=-1), [c.shape[-1] for _, c in parts]


def _random_cubic(rng, tag, n):
    """Four terms of degree at most 3, one of them with every exponent 1."""
    terms = {(1,) * n: element(tag, rng.standard_normal(tag.dim))}
    while len(terms) < 4:
        mu = tuple(int(v) for v in rng.multinomial(3, np.full(n + 1, 1.0 / (n + 1)))[:n])
        terms[mu] = element(tag, rng.standard_normal(tag.dim))
    return stm.stem_polynomial(tag, n, terms)


def _check_rules_against_meshgrid(dom, x, spec):
    """Both rules visit every node of their grids once, in C order, in chunks of at most CHUNK rows.

    A polynomial's monomial table on a face is checked too, for T = 0, 1 and 4 terms.
    """
    cubic = _random_cubic(np.random.default_rng(dom.n), TAG, dom.n)
    polys = [cubic - cubic, stm.coordinate(TAG, dom.n, dom.n - 1), cubic]
    for k in range(dom.n):
        Z, c, sizes = _streamed(itg._face_nodes(dom, spec, x.z, k))
        Z_ref, c_ref = _face_reference(dom, x, spec, k)
        assert Z.shape == Z_ref.shape and max(sizes) <= itg.CHUNK
        np.testing.assert_allclose(Z, Z_ref, rtol=0, atol=1e-15)
        assert np.max(np.abs(c - c_ref) / np.abs(c_ref)) <= 1e-14, k
        for p in polys:
            WT, c_p, sizes_p = _streamed(itg._face_nodes(dom, spec, x.z, k, p))
            assert WT.shape == Z.shape[:1] + p.exponents.shape[:1] and sizes_p == sizes
            np.testing.assert_array_equal(c_p, c)
            # bit for bit the table batch_evaluator builds at the grid's own
            # nodes; to rounding, the monomials of the meshgrid nodes.  The
            # fold calls np.multiply: with FMA a complex product's bits depend
            # on operand order, which `a * b` may swap for a large temporary b
            WT_nodes = functools.reduce(np.multiply, [p.power_columns(l, Z[:, l]) for l in range(dom.n)])
            np.testing.assert_array_equal(WT, WT_nodes.T)
            WT_ref = np.prod(Z_ref[:, None, :] ** p.exponents[None], axis=2)
            np.testing.assert_allclose(WT, WT_ref, rtol=1e-14, atol=0)
    Z, C, sizes = _streamed(itg._volume_nodes(dom, x, spec, 5))
    Z_ref, C_ref = _volume_reference(dom, x, spec, 5)
    assert Z.shape == Z_ref.shape and max(sizes) <= itg.CHUNK
    np.testing.assert_allclose(Z, Z_ref, rtol=0, atol=1e-15)
    assert np.max(np.abs(C - C_ref) / np.abs(C_ref)) <= 1e-14


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
        # inner blocks that divide CHUNK: 8 and 64 rows (face 1, volume);
        # face 0's 40-row block does not
        (2, (8, 5, 1), 64),
        # M = 24, R = 12: face 0's block is one 288-row disc, seven to a
        # chunk; face 1's is 24 rows and the volume rule's 144
        (2, (24, 12, 1), 2048),
        # a single factor larger than CHUNK: the 40-row disc of face 0, and
        # every last factor at n = 3, is sliced
        (2, (8, 5, 1), 32),
        (3, (8, 5, 1), 7),
        # n = 1: the whole grid is one inner block, or its circle is sliced
        (1, (8, 5, 1), 2048),
        (1, (8, 5, 1), 3),
    ],
)
def test_chunk_layouts_visit_every_node_once(monkeypatch, n, spec, chunk):
    monkeypatch.setattr(itg, "CHUNK", chunk)
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
    # building either grid whole takes 52 MB and 18 MB
    dom3 = itg.PolydiscDomain(np.zeros(3), np.ones(3), J)
    x3 = sf.point_from_z(np.array([0.2 + 0.1j, -0.3j, 0.15]), J)
    f3 = sf.lift(stm.stem_polynomial(TAG, 3, {(1, 0, 2): E1, (0, 1, 0): E0, (2, 1, 1): E3}))
    peak = _traced_peak_mb(lambda: itg.bm_boundary_integral(f3, dom3, x3, itg.QuadratureSpec(16, 8, 1)))
    assert peak <= 8.0, f"n=3 boundary peak {peak:.1f} MB"
    g = sf.lift(_conj_z1_stem(TAG, 2, E1))
    peak = _traced_peak_mb(lambda: itg.bm_volume_integral(g, _bidisc(), _x2(), SPEC))
    assert peak <= 8.0, f"V=3 volume peak {peak:.1f} MB"


def test_gauss_legendre_rule_is_cached_and_read_only():
    t, w = itg._gauss_legendre_01(6)
    assert itg._gauss_legendre_01(6)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    assert abs(w.sum() - 1.0) <= 1e-15 and abs(w @ t**5 - 1.0 / 6.0) <= 1e-15
