"""Acceptance gate: one test per shipped verification criterion.

Each test drives the corresponding named suite at the advertised sample sizes
and tolerances, asserts every record in it passes, and prints one summary
line (visible with pytest -s; pytest -v shows one PASSED/FAILED line per
criterion either way).  Criterion 10 reruns the non-algebra suites with the
quaternion algebra at identical tolerances.
"""

import time

import pytest

import hyperslice.suites as su
from hyperslice.algebra import OCTONION, QUATERNION
from hyperslice.integral import QuadratureSpec

SUITE_BUDGET_S = 60.0

_RESULTS: dict[str, su.SuiteReport] = {}


def _run(suite: str, algebra=OCTONION, samples: int = 1000, n: int = 2) -> su.SuiteReport:
    key = f"{suite}:{algebra.name}:{samples}"
    if key not in _RESULTS:
        cfg = su.ExperimentConfig(
            suite=suite,
            algebra=algebra,
            n=n,
            seed=0,
            samples=samples,
            quadrature=QuadratureSpec(64, 32, 3),
        )
        t0 = time.perf_counter()
        report = su.run_suite(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < SUITE_BUDGET_S, f"{suite} took {elapsed:.1f}s"
        _RESULTS[key] = report
    return _RESULTS[key]


def _assert_all(report: su.SuiteReport, criterion: str, expected_tols: dict) -> None:
    by_name = {rec.name: rec for rec in report.records}
    for name, tol in expected_tols.items():
        rec = by_name[name]
        assert rec.tolerance == tol, f"{name}: tolerance {rec.tolerance} != stated {tol}"
    failures = [rec.name for rec in report.records if not rec.passed]
    status = "PASS" if not failures else f"FAIL ({', '.join(failures)})"
    worst = max((rec.metric for rec in report.records if rec.tolerance > 0), default=0.0)
    print(f"[{status}] {criterion} (worst metric {worst:.3e})")
    assert not failures, f"{criterion}: failed checks {failures}"


def test_criterion_01_algebra_identities():
    report = _run("algebra", samples=1000)
    _assert_all(
        report,
        "criterion 1: algebra identities, witness triple, exhaustive H",
        {
            "octonion_alternativity": 1e-10,
            "octonion_artin_words": 1e-10,
            "octonion_norm_composition": 1e-10,
            "quaternion_alternativity": 1e-10,
            "quaternion_artin_words": 1e-10,
            "quaternion_norm_composition": 1e-10,
        },
    )


def test_criterion_02_representation_formulas():
    # >= 10^3 tuples per arity n in {1, 2, 3}
    report = _run("representation", samples=3000)
    _assert_all(
        report,
        "criterion 2: representation formulas on random polynomials",
        {"representation_direct": 1e-12, "formula_agreement": 1e-13},
    )


def test_criterion_03_products():
    report = _run("products")
    _assert_all(
        report,
        "criterion 3: star/slice products, Leibniz, pointwise witness",
        {"star_vs_slice": 1e-12, "leibniz": 1e-10, "real_factor_pointwise": 1e-12},
    )


def test_criterion_04_spherical_operators():
    report = _run("spherical")
    _assert_all(
        report,
        "criterion 4: spherical value/derivative identities",
        {
            "value_constant_on_sphere": 1e-10,
            "derivative_constant_on_sphere": 1e-10,
            "d_s_of_v_s_zero": 1e-10,
            "reconstruction_identity": 1e-10,
        },
    )


def test_criterion_05_zero_classification():
    report = _run("zeros")
    _assert_all(
        report,
        "criterion 5: sphere zero classification vs brute force",
        {"zero_scan_agreement": 0.0, "zero_fixed_cases": 0.0},
    )


def test_criterion_06_boundary_quadrature():
    report = _run("bm")
    _assert_all(
        report,
        "criterion 6: boundary quadrature on the unit bidisc",
        {
            "calibration_constant": 1e-10,
            "poly_reproduction": 1e-8,
            "volume_correction": 5e-3,
        },
    )
    by_name = {rec.name: rec for rec in report.records}
    assert by_name["poly_reproduction"].m == 64 and by_name["poly_reproduction"].r == 32
    assert by_name["monotone_angular"].metric < 1.0  # strict decrease at each doubling


def test_criterion_07_off_slice_evaluation():
    report = _run("off-slice")
    _assert_all(
        report,
        "criterion 7: off-slice evaluation from one slice boundary",
        {"offslice_match": 1e-8, "offslice_nonregular": 5e-3},
    )


def test_criterion_08_hartogs_extension():
    report = _run("hartogs")
    _assert_all(
        report,
        "criterion 8: extension across a hole, one-variable failure",
        {"hartogs_inside_hole": 1e-6, "hartogs_n1_detects_failure": 0.1},
    )


def test_criterion_09_regularity_checks():
    report = _run("regularity")
    _assert_all(
        report,
        "criterion 9: regularity residuals and restriction consistency",
        {"polynomials_regular": 1e-8, "osgood_restrictions": 1e-8},
    )


@pytest.mark.parametrize(
    "suite", ["representation", "products", "spherical", "zeros", "bm", "off-slice", "hartogs", "regularity"]
)
def test_criterion_10_quaternion_mirror(suite):
    samples = 3000 if suite == "representation" else 1000
    oct_report = _run(suite, OCTONION, samples=samples)
    q_report = _run(suite, QUATERNION, samples=samples)
    oct_tols = {rec.name: rec.tolerance for rec in oct_report.records}
    q_tols = {rec.name: rec.tolerance for rec in q_report.records}
    assert oct_tols == q_tols, "mirror must use identical tolerances"
    _assert_all(q_report, f"criterion 10: quaternion mirror of {suite}", q_tols)
