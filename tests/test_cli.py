"""End-to-end runs of the command line surface through run(argv)."""

from __future__ import annotations

import json

import pytest

from heisvir.cli import _sweep_workers, run


def run_json(capsys, argv, expect_code=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return json.loads(captured.out)


def test_bracket_pinned_output(capsys):
    data = run_json(capsys, ["bracket", "x[2]", "x[-2]"])
    assert data == {"result": [["x[0]", "-4/1"], ["CD", "1/2"]]}


def test_bracket_compound_elements(capsys):
    data = run_json(capsys, ["bracket", "3/2*x[2] - I[-1] + CD", "x[-2]+2*I[2]"])
    assert data == {
        "result": [
            ["x[0]", "-6/1"],
            ["I[-3]", "-1/1"],
            ["I[4]", "6/1"],
            ["CD", "3/4"],
        ]
    }


def test_bracket_rejects_malformed(capsys):
    assert run(["bracket", "x[oops]", "x[1]"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_check_axioms(capsys):
    data = run_json(capsys, ["check-axioms", "--window", "2"])
    assert data["antisymmetryDefects"] == 0
    assert data["jacobiDefects"] == 0
    assert data["moduleDefects"] == 0
    assert data["generators"] == 13


def test_module_table_json(tmp_path, capsys):
    spec = tmp_path / "mod.json"
    spec.write_text(
        json.dumps({"family": "V", "alpha": "1/2", "beta": "0/1", "F": "0/1"})
    )
    data = run_json(capsys, ["module-table", str(spec), "--window", "2"])
    assert data["offset"] == "1/2"
    assert data["dims"] == [[k, 1] for k in range(-2, 3)]
    assert len(data["actions"]) == 25
    assert all(name.startswith("x") for name, *_ in data["actions"])
    assert ["x[2]", 0, 2, [["1/2"]]] in data["actions"]


def test_module_table_csv(tmp_path, capsys):
    spec = tmp_path / "mod.json"
    spec.write_text(
        json.dumps({"family": "V", "alpha": "1/2", "beta": "0/1", "F": "0/1"})
    )
    assert run(["module-table", str(spec), "--window", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "generator,source,target,row,col,value"
    assert len(lines) == 26
    assert "x[2],0,2,0,0,1/2" in lines


def test_module_table_missing_file(capsys):
    assert run(["module-table", "/nonexistent/mod.json"]) == 2
    capsys.readouterr()


def test_classify_family_report(capsys):
    data = run_json(capsys, ["classify", "--alpha", "1/4", "--beta", "0"])
    assert data == {
        "alpha": "1/4",
        "beta": "0/1",
        "window": 6,
        "families": [
            {"kind": "Constant", "cI": "0/1", "cDI": "0/1"},
            {"kind": "RescaledBeta0", "cI": "0/1", "cDI": "0/1"},
        ],
    }


def test_classify_window_too_small(capsys):
    assert run(["classify", "--alpha", "9", "--beta", "0"]) == 2
    assert "window" in capsys.readouterr().err


def test_reducible_exact_payloads(capsys):
    assert run_json(capsys, ["reducible", "--alpha", "0", "--beta", "1", "--F", "0"]) == {
        "reducible": True
    }
    assert run_json(
        capsys, ["reducible", "--alpha", "1/2", "--beta", "1", "--F", "0"]
    ) == {"reducible": False}


def test_verma_dims(capsys):
    assert run_json(capsys, ["verma-dims", "--max", "6"]) == {
        "dims": [1, 2, 5, 10, 20, 36, 65]
    }


def test_verma_dims_csv(capsys):
    assert run(["verma-dims", "--max", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["depth,dim", "0,1", "1,2", "2,5", "3,10"]


def test_verma_singular(capsys):
    data = run_json(capsys, ["verma-singular", "--hw", "0,0,0,0,0", "--depth", "1"])
    assert data == {
        "hw": ["0/1", "0/1", "0/1", "0/1", "0/1"],
        "depth": 1,
        "dim": 2,
        "vectors": [[["x[-1]", "1/1"]], [["I[-1]", "1/1"]]],
    }


def test_verma_singular_bad_hw(capsys):
    assert run(["verma-singular", "--hw", "1,2,3", "--depth", "1"]) == 2
    capsys.readouterr()


def test_torsion_report(tmp_path, capsys):
    spec = tmp_path / "mod.json"
    spec.write_text(
        json.dumps({"family": "V", "alpha": "1/2", "beta": "1/3", "F": "2/5"})
    )
    data = run_json(capsys, ["torsion", str(spec), "--window", "4"])
    assert data["j"] == 1
    assert data["torsion"] == [[k, 0] for k in range(-4, 5)]


def test_sweep_mixed_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HV_THREADS", "1")
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            [
                {"alpha": "1/3", "beta": "2"},
                {"alpha": "9", "beta": "0"},
                {"alpha": "junk", "beta": "0"},
            ]
        )
    )
    assert run(["sweep", str(grid)]) == 1
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["families"] == [{"kind": "Constant", "cI": "0/1", "cDI": "0/1"}]
    assert "window too small" in lines[1]["error"]
    assert "junk" in lines[2]["error"]
    for line in lines:
        assert line["alpha"] and line["beta"]


def test_sweep_clean_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HV_THREADS", "2")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"alpha": "1/3", "beta": "2"}, {"alpha": "1/4", "beta": "1"}]))
    assert run(["sweep", str(grid)]) == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert [ln["alpha"] for ln in lines] == ["1/3", "1/4"]


def test_sweep_workers_capped_by_cpu_count(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setenv("HV_THREADS", "5000")
    assert _sweep_workers(5000) == 4
    assert _sweep_workers(3) == 3
    assert _sweep_workers(0) == 1
    monkeypatch.setenv("HV_THREADS", "2")
    assert _sweep_workers(5000) == 2
    monkeypatch.delenv("HV_THREADS")
    assert _sweep_workers(5000) == 4
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _sweep_workers(5000) == 1


def test_sweep_rejects_non_array(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": "1/3"}))
    assert run(["sweep", str(grid)]) == 2
    capsys.readouterr()
