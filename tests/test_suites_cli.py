"""Suite runner configs, report serialization, and the command line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

import hyperslice.suites as su
from hyperslice.algebra import OCTONION, QUATERNION
from hyperslice.cli import main
from hyperslice.integral import QuadratureSpec

FAST_YAML = """
suite: spherical
algebra: octonion
n: 2
seed: 3
samples: 50
quadrature:
  angular_nodes: 16
  radial_nodes: 8
  volume_refinement: 1
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(FAST_YAML)
    return path


def test_load_config_fields(fast_config):
    cfg = su.load_config(fast_config)
    assert cfg.suite == "spherical"
    assert cfg.algebra == OCTONION
    assert cfg.seed == 3 and cfg.samples == 50
    assert cfg.quadrature == QuadratureSpec(16, 8, 1)


def test_load_config_overrides(fast_config):
    cfg = su.load_config(fast_config, {"suite": "products", "seed": 9})
    assert cfg.suite == "products" and cfg.seed == 9


def test_load_config_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("suite: algebra\nbogus: 1\n")
    with pytest.raises(ValueError, match="bogus"):
        su.load_config(path)
    path.write_text("suite: nosuchsuite\n")
    with pytest.raises(ValueError, match="nosuchsuite"):
        su.load_config(path)


def test_config_functions_loading(tmp_path):
    import hyperslice as hs
    from hyperslice.stem import stem_polynomial_to_json

    poly = hs.stem_polynomial(OCTONION, 2, {(1, 1): hs.one(OCTONION)})
    fpath = tmp_path / "fns.json"
    fpath.write_text(json.dumps([stem_polynomial_to_json(poly)]))
    cpath = tmp_path / "cfg.yaml"
    cpath.write_text("suite: products\nfunctions:\n  - fns.json\n")
    cfg = su.load_config(cpath)
    assert len(cfg.functions) == 1 and cfg.functions[0].arity == 2


def test_run_suite_deterministic_reports(fast_config):
    cfg = su.load_config(fast_config)
    r1 = su.run_suite(cfg)
    r2 = su.run_suite(cfg)
    assert r1 == r2  # equality ignores wall clock
    assert su.report_to_json(r1) == su.report_to_json(r2)
    r3 = su.run_suite(su.load_config(fast_config, {"seed": 4}))
    assert r1 != r3


def test_report_json_round_trip_and_stability(fast_config):
    cfg = su.load_config(fast_config)
    r = su.run_suite(cfg)
    text = su.report_to_json(r)
    data = json.loads(text)
    # the JSON holds every field a report is compared on: rebuilt from it,
    # the report is equal and formats to the same text
    back = su.SuiteReport(data["suite"], [
        su.CheckRecord(name=rec["name"], passed=rec["pass"], metric=float(rec["metric"]),
                       tolerance=float(rec["tolerance"]), m=rec["M"], r=rec["R"], v=rec["V"],
                       abs_error=None if rec["abs_error"] is None else float(rec["abs_error"]))
        for rec in data["records"]
    ])
    assert back == r
    assert su.report_to_json(back) == text  # idempotent after first formatting
    assert data["overall_pass"] is True
    assert list(data) == sorted(data)


def test_report_csv_header_and_rows(fast_config):
    cfg = su.load_config(fast_config)
    r = su.run_suite(cfg)
    csv_text = su.report_to_csv(r)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,pass,metric,tolerance,M,R,V,abs_error,wall_ms"
    assert len(lines) == 1 + len(r.records)


def test_tolerance_overrides_apply(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "suite: spherical\nsamples: 20\ntolerances:\n  reconstruction_identity: 1.0e-30\n"
    )
    r = su.run_suite(su.load_config(path))
    rec = {x.name: x for x in r.records}["reconstruction_identity"]
    assert rec.tolerance == 1e-30
    assert not rec.passed
    assert not r.overall_pass


def test_all_suite_contains_mirror(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("suite: all\nsamples: 10\nquadrature: {angular_nodes: 16, radial_nodes: 8, volume_refinement: 1}\n")
    cfg = su.load_config(path)
    r = su.run_suite(cfg)
    names = [rec.name for rec in r.records]
    assert any(n.startswith("algebra/") for n in names)
    assert any(n.startswith("zeros/") for n in names)
    assert any("[quaternion]/" in n for n in names)


def test_random_polynomial_and_units_determinism():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    p1 = su.random_polynomial(OCTONION, 2, 3, rng1)
    p2 = su.random_polynomial(OCTONION, 2, 3, rng2)
    np.testing.assert_array_equal(p1.exponents, p2.exponents)
    units = su.separated_units(QUATERNION, rng1, 3, min_sep=0.3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert (units[i].value - units[j].value).norm() >= 0.3


def test_cli_text_and_exit_codes(fast_config, capsys):
    code = main(["run", "--config", str(fast_config)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_cli_json_out_file(fast_config, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["run", "--config", str(fast_config), "--format", "json", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["suite"] == "spherical"


def test_cli_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "suite: spherical\nsamples: 10\ntolerances:\n  reconstruction_identity: 1.0e-30\n"
    )
    assert main(["run", "--config", str(path)]) == 1
    capsys.readouterr()


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("tolerances: {leibnitz: 1.0e-9}\n", "leibnitz"),
        ("quadrature: {angular_node: 16}\n", "angular_node"),
        ("tolerances: [1, 2]\n", "tolerances must be a mapping"),
        ("samples: 10.9\n", "samples must be an integer"),
        ("n: 2.7\n", "n must be an integer"),
        ("quadrature: {angular_nodes: 16.7}\n", "angular_nodes must be an integer"),
        ("samples: true\n", "samples must be an integer"),
        ("seed: null\n", "seed must be an integer"),
        ("n: [2]\n", "n must be an integer"),
        ("tolerances: {leibniz: null}\n", "leibniz"),
        ("functions: [1]\n", "functions must be a list"),
        ("seed: -5\n", "seed must be >= 0"),
        # YAML reads .inf as a float, and 1e999 (no dot) as a string that float() turns into inf
        ("tolerances: {alternativity: .inf}\n", "'alternativity' must be positive and finite"),
        ("tolerances: {alternativity: \"inf\"}\n", "'alternativity' must be positive and finite"),
        ("tolerances: {alternativity: 1e999}\n", "'alternativity' must be positive and finite"),
    ],
    ids=[
        "tolerance_name", "quadrature_key", "tolerances_list", "samples_float", "n_float", "quadrature_float",
        "samples_bool", "seed_null", "n_list", "tolerance_null", "functions_int", "seed_negative",
        "tolerance_inf", "tolerance_inf_string", "tolerance_overflow",
    ],
)
def test_cli_rejects_misspelled_config(tmp_path, capsys, body, message):
    path = tmp_path / "cfg.yaml"
    base = "suite: algebra\n" + ("" if body.startswith("samples:") else "samples: 5\n")
    path.write_text(base + body)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("key", ["route_agreement", "offslice_collapse", "offslice_real_in_plane"])
def test_cli_rejects_removed_tolerance_keys(tmp_path, capsys, key):
    # the records of these keys are gone, so an override of one is a config error, not silently unused
    path = tmp_path / "cfg.yaml"
    path.write_text(f"suite: algebra\nsamples: 5\ntolerances: {{{key}: 1.0e-9}}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("algebra", ["octonion", "quaternion"])
def test_offslice_nonregular_fails_without_the_volume_term(tmp_path, monkeypatch, algebra):
    # conj(z_1) c off the slice is the boundary value minus the volume term at
    # x; a volume rule that returns a zero stem value fails the record
    import hyperslice.integral as itg
    from hyperslice.algebra import zero
    from hyperslice.complexified import ComplexifiedElement

    path = tmp_path / "cfg.yaml"
    path.write_text(f"suite: off-slice\nalgebra: {algebra}\nquadrature: {{angular_nodes: 32, radial_nodes: 16}}\n")

    def record():
        return next(r for r in su.run_suite(su.load_config(path)).records if r.name == "offslice_nonregular")

    assert record().passed
    monkeypatch.setattr(itg, "_bm_volume", lambda f, dom, z, spec: (ComplexifiedElement(zero(f.tag), zero(f.tag)), 0))
    rec = record()
    assert not rec.passed and rec.metric > 0.05, rec.metric


@pytest.mark.parametrize("algebra", ["octonion", "quaternion"])
def test_offslice_suite_integrates_once_per_record(tmp_path, monkeypatch, algebra):
    # one stem value per record serves all of its units: offslice_match makes
    # one boundary integral, offslice_nonregular one boundary and one volume
    # integral, at x itself
    import hyperslice.integral as itg

    path = tmp_path / "cfg.yaml"
    path.write_text(f"suite: off-slice\nalgebra: {algebra}\nquadrature: {{angular_nodes: 32, radial_nodes: 16}}\n")
    calls = []
    for kind in ("boundary", "volume"):
        rule = getattr(itg, f"_bm_{kind}")

        def counted(f, dom, z, spec, kind=kind, rule=rule):
            calls.append((kind, tuple(np.asarray(z))))
            return rule(f, dom, z, spec)

        monkeypatch.setattr(itg, f"_bm_{kind}", counted)
    report = su.run_suite(su.load_config(path))
    assert all(r.passed for r in report.records)
    assert [kind for kind, _ in calls] == ["boundary", "boundary", "volume"]
    assert {z for _, z in calls} == {(0.3 + 0.2j, -0.1 + 0.4j)}


def test_cli_rejects_negative_seed_override(fast_config, capsys):
    # np.random.default_rng would raise on it mid-run, an exit 1 that no record earned
    assert main(["run", "--config", str(fast_config), "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed must be >= 0" in err


@pytest.mark.parametrize(
    "suite, quadrature, nodes",
    [
        # each of the two faces of the configured grid: 4096 x (32 x 4096) nodes
        ("all", "{angular_nodes: 4096}", 2 * 4096 * 32 * 4096),
        # the configured grid fits; monotone_angular's M = 32 run does not
        ("bm", "{angular_nodes: 8, radial_nodes: 10000}", 2 * 32 * 10000 * 32),
        # the volume rule at V = 200: 2 pyramids of 402^2 points x 8^2 angles
        ("bm", "{angular_nodes: 16, volume_refinement: 200}", 2 * (402 * 8) ** 2),
    ],
    ids=["all_angular", "bm_monotone_angular", "bm_volume"],
)
def test_cli_rejects_over_budget_quadrature_before_any_suite(tmp_path, capsys, monkeypatch, suite, quadrature, nodes):
    def unreachable(*args):
        raise AssertionError("a suite body ran")

    monkeypatch.setattr(su, "_algebra_suite", unreachable)
    for name in su._MIRRORABLE:
        monkeypatch.setitem(su._MIRRORABLE, name, unreachable)
    path = tmp_path / "cfg.yaml"
    path.write_text(f"suite: {suite}\nquadrature: {quadrature}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{nodes} nodes exceeds the budget of {2**24}" in err


def test_budget_check_counts_only_the_configured_suite(tmp_path):
    # off-slice integrates only the configured grid, so monotone_angular's M = 32 does not count
    path = tmp_path / "cfg.yaml"
    path.write_text("suite: off-slice\nquadrature: {angular_nodes: 8, radial_nodes: 10000}\n")
    assert su.load_config(path).quadrature == QuadratureSpec(8, 10000, 3)
    path.write_text("suite: algebra\nquadrature: {angular_nodes: 4096}\n")
    assert su.load_config(path).quadrature.angular_nodes == 4096


@pytest.mark.parametrize("algebra", ["octonion", "quaternion"])
def test_star_vs_slice_detects_swapped_convolution(tmp_path, monkeypatch, algebra):
    # poly_product convolving b_nu a_mu instead of a_mu b_nu is wrong in a
    # noncommutative algebra; the slice side multiplies stem values, so the
    # record must see the difference
    import hyperslice.stem as stm

    correct = stm.poly_product
    monkeypatch.setattr(stm, "poly_product", lambda p, q: correct(q, p))
    path = tmp_path / "cfg.yaml"
    path.write_text(f"suite: products\nalgebra: {algebra}\n")
    rec = next(r for r in su.run_suite(su.load_config(path)).records if r.name == "star_vs_slice")
    assert not rec.passed and rec.metric > 1e-3, rec.metric


@pytest.mark.parametrize(
    "body",
    [
        "[1]",
        "5",
        '{"arity": 1, "algebra": "quaternion", "terms": [{"mu": [1]}]}',
        '{"arity": 1, "algebra": "quaternion"}',
        '{"arity": 1, "algebra": 5, "terms": []}',
        '{"arity": 1, "algebra": "quaternion", "terms": 5}',
        '{"arity": 1, "algebra": "quaternion", "terms": [{"mu": 1, "coeff": [1, 0, 0, 0]}]}',
        '{"arity": 1.5, "algebra": "quaternion", "terms": [{"mu": [1], "coeff": [1, 0, 0, 0]}]}',
        '{"arity": 1, "algebra": "quaternion", "terms": [{"mu": [1.7], "coeff": [1, 0, 0, 0]}]}',
        '{"arity": 1, "algebra": "quaternion", "terms": [{"mu": [1], "coeff": [NaN, 0, 0, 0]}]}',
    ],
    ids=["list_of_int", "number", "term_without_coeff", "no_terms", "algebra_int", "terms_int", "mu_int",
         "arity_float", "mu_float", "coeff_nan"],
)
def test_cli_rejects_malformed_functions_file(tmp_path, capsys, body):
    (tmp_path / "fns.json").write_text(body)
    path = tmp_path / "cfg.yaml"
    path.write_text("suite: algebra\nsamples: 5\nfunctions: [fns.json]\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_d_s_of_v_s_zero_reads_spherical_value(tmp_path, monkeypatch):
    # a spherical value that is really f itself has a nonzero spherical derivative
    import hyperslice.slicefun as sf

    monkeypatch.setattr(sf, "spherical_value", sf.lift_evaluate)
    path = tmp_path / "cfg.yaml"
    path.write_text("suite: spherical\nsamples: 5\n")
    rec = next(r for r in su.run_suite(su.load_config(path)).records if r.name == "d_s_of_v_s_zero")
    assert not rec.passed and rec.metric > 1e-3, rec.metric


def test_nan_error_fails_its_record(monkeypatch):
    # the first sample of reconstruction_identity gets a NaN Im(x); max(0.0, nan)
    # is 0.0, so a Python max fold would pass the record on the other samples
    import hyperslice.slicefun as sf

    correct = sf.imaginary_element
    calls = []

    def first_nan(x):
        calls.append(x)
        im = correct(x)
        return im * np.nan if len(calls) == 1 else im

    monkeypatch.setattr(sf, "imaginary_element", first_nan)
    records = su.run_suite(su.ExperimentConfig(suite="spherical", samples=10)).records
    rec = next(r for r in records if r.name == "reconstruction_identity")
    assert not rec.passed and np.isnan(rec.metric), rec.metric


def test_nan_error_fails_witness_record(monkeypatch):
    # a NaN e_7 makes every associator with it NaN; the other triples alone would pass the witness
    import hyperslice.algebra as alg

    correct = alg.basis
    monkeypatch.setattr(alg, "basis", lambda tag, k: correct(tag, k) * (np.nan if k == tag.dim - 1 else 1.0))
    records = {r.name: r for r in su.run_suite(su.ExperimentConfig(suite="algebra", samples=5)).records}
    rec = records["octonion_nonassociative_witness"]
    assert not rec.passed and np.isnan(rec.metric), rec.metric


def test_check_yielding_no_error_raises():
    with pytest.raises(ValueError):
        su._run_checks(su.ExperimentConfig(), {"leibniz": lambda: iter(())})


def test_cli_suite_override(fast_config, capsys):
    code = main(["run", "--config", str(fast_config), "--suite", "algebra"])
    out = capsys.readouterr().out
    assert code == 0
    assert "octonion_nonassociative_witness" in out


def test_cli_table_output(capsys):
    assert main(["table", "--algebra", "octonion"]) == 0
    out = capsys.readouterr().out
    assert "octonion basis products" in out
    rows = [line for line in out.splitlines() if line.startswith("e")]
    assert len(rows) == 8
    # e1 row: e1*e1 = -e0, e1*e2 = +e3
    assert "-e0" in rows[1] and "+e3" in rows[1]

    assert main(["table", "--algebra", "quaternion"]) == 0
    out = capsys.readouterr().out
    assert "quaternion basis products" in out


def test_cli_byte_identical_output_subprocess(fast_config, tmp_path):
    outs = []
    for k in range(2):
        path = tmp_path / f"r{k}.json"
        subprocess.run(
            [sys.executable, "-m", "hyperslice.cli", "run", "--config", str(fast_config),
             "--format", "json", "--out", str(path)],
            check=True, capture_output=True,
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_every_record_is_timed(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(FAST_YAML.replace("suite: spherical", "suite: all").replace("samples: 50", "samples: 6"))
    report = su.run_suite(su.load_config(path))
    assert report.records
    assert all(rec.wall_ms > 0.0 for rec in report.records), [r.name for r in report.records if r.wall_ms <= 0.0]


def test_public_names_resolve():
    import ast
    import importlib
    import pkgutil

    import hyperslice

    checked = []
    for info in pkgutil.iter_modules(hyperslice.__path__):
        module = importlib.import_module(f"hyperslice.{info.name}")
        if hasattr(module, "__all__"):
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert not missing, (info.name, missing)
            checked.append(info.name)
    assert {"algebra", "complexified", "stem", "slicefun", "integral", "suites"} <= set(checked)
    with open(hyperslice.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported
    assert [n for n in imported if not hasattr(hyperslice, n)] == []
