"""Smoke tests for the scripts under scripts/."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_volume_table(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert _load("convergence_study").main(["--out", str(out), "--radial", "8"]) == 0
    assert "volume" in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["M", "R", "V", "abs_error", "wall_ms", "table", "nodes"]
    # the same stem with its exact dbar hook and without it, differenced along each node's direction
    tables = {name: [r for r in rows if r["table"] == name] for name in ("volume", "volume_fd")}
    for volume in tables.values():
        assert [int(r["V"]) for r in volume] == list(range(6))
        errs = [float(r["abs_error"]) for r in volume]
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        nodes = [int(r["nodes"]) for r in volume]
        assert all(a < b for a, b in zip(nodes, nodes[1:])), nodes
    for exact, fd in zip(tables["volume"], tables["volume_fd"]):
        assert abs(float(exact["abs_error"]) - float(fd["abs_error"])) <= 1e-9, (exact, fd)


def test_convergence_study_tridisc_table(tmp_path, capsys):
    # n = 3 reaches the default (64,32) spec, 805,306,368 rule nodes
    out = tmp_path / "conv3.csv"
    assert _load("convergence_study").main(["--n", "3", "--out", str(out)]) == 0
    assert "volume" not in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["M"]), int(r["R"])) for r in rows] == [(16, 8), (24, 12), (32, 16), (64, 32)]
    assert {r["table"] for r in rows} == {"boundary"}
    assert [int(r["nodes"]) for r in rows] == [3 * M * (M * M // 2) ** 2 for M in (16, 24, 32, 64)]
    errs = [float(r["abs_error"]) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] <= 1e-12, errs


def test_convergence_csv_schema(tmp_path):
    rows = [
        {"M": 16, "R": 32, "V": 3, "abs_error": 1e-7, "wall_ms": 12.5},
        {"M": 32, "R": 32, "V": 3, "abs_error": 1e-13, "wall_ms": 30.0},
    ]
    path = tmp_path / "conv.csv"
    _load("convergence_study").write_convergence_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "M,R,V,abs_error,wall_ms"
    assert lines[1].startswith("16,32,3,1.000000000000000e-07,")


def test_zero_structure_demo_confirms_verdicts(capsys):
    assert _load("zero_structure_demo").main(["--random", "2", "--units", "300"]) == 0
    assert "all verdicts confirmed by scan" in capsys.readouterr().out
