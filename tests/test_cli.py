import json
import math

import pytest

import softrgg.cli as cli
from softrgg.model import ModelParams, sample_graph
from softrgg.specfun import ConvergenceError
from softrgg.stats import signed_triangle_stat
from softrgg.verify import CheckResult


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_phase_label_frozen_output(capsys):
    rc, out, err = run_cli(
        capsys, "theory", "--quantity", "phase", "--alpha", "4", "--beta", "0.1"
    )
    assert rc == 0 and err == ""
    assert out == '{"label":"Impossible"}\n'


def test_sample_zero_density_gives_empty_graph(capsys):
    rc, out, err = run_cli(
        capsys, "sample", "--n", "5", "--p", "0", "--mode", "er", "--seed", "1"
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["edges"] == [] and doc["n"] == 5


def test_sample_then_stat_matches_in_process(tmp_path, capsys):
    graph_path = str(tmp_path / "g.json")
    rc, _, _ = run_cli(
        capsys, "sample", "--n", "9", "--p", "0.4", "--d", "6", "--q", "0.8",
        "--mode", "soft-sphere", "--seed", "77", "--out", graph_path,
    )
    assert rc == 0
    rc, out, _ = run_cli(capsys, "stat", "--graph", graph_path)
    assert rc == 0
    doc = json.loads(out)

    params = ModelParams(n=9, p=0.4, d=6, q=0.8)
    expected = signed_triangle_stat(sample_graph(params, "soft-sphere", 77), 0.4)
    assert doc["value"] == expected.value
    assert doc["p"] == 0.4

    # centering density can be overridden without touching the file
    rc, out, _ = run_cli(capsys, "stat", "--graph", graph_path, "--p", "0.25")
    assert json.loads(out)["p"] == 0.25


def test_stored_four_cycle_statistic(tmp_path, capsys):
    graph_path = tmp_path / "c4.json"
    graph_path.write_text(json.dumps({
        "n": 4, "p": 0.5, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
    }))
    rc, out, _ = run_cli(
        capsys, "stat", "--graph", str(graph_path), "--kind", "cycle", "--k", "4"
    )
    assert rc == 0
    assert json.loads(out)["value"] == 0.1875


def test_repeated_invocations_are_byte_identical(capsys):
    argv = (
        "detect", "--n", "20", "--p", "0.5", "--d", "8", "--q", "1",
        "--seed", "12", "--reps", "100", "--test", "calibrated-quantile",
    )
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert "wallclock_ms" not in doc
    assert 0.0 <= doc["power"] <= 1.0


def test_worker_env_does_not_change_output(capsys, monkeypatch):
    argv = (
        "detect", "--n", "12", "--p", "0.5", "--d", "4", "--q", "0.7",
        "--seed", "8", "--reps", "100",
    )
    monkeypatch.setenv("RGG_WORKERS", "1")
    _, out1, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("RGG_WORKERS", "2")
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2

    monkeypatch.setenv("RGG_WORKERS", "zero")
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


def test_latent_output_lies_on_sphere(tmp_path, capsys):
    latent_path = str(tmp_path / "latent.json")
    rc, _, _ = run_cli(
        capsys, "sample", "--n", "6", "--p", "0.5", "--d", "5", "--q", "1",
        "--mode", "soft-sphere", "--seed", "4", "--latent-out", latent_path,
    )
    assert rc == 0
    doc = json.loads(open(latent_path).read())
    assert doc["n"] == 6 and doc["d"] == 5
    for row in doc["rows"]:
        assert abs(sum(v * v for v in row) - 1.0) <= 1e-9


def test_validation_errors_exit_one(tmp_path, capsys):
    big_graph = tmp_path / "n100.json"
    big_graph.write_text(json.dumps({"n": 100, "p": 0.5, "edges": []}))
    tiny_graph = tmp_path / "n3.json"
    tiny_graph.write_text(json.dumps({"n": 3, "p": 0.5, "edges": [[0, 1]]}))
    negative_graph = tmp_path / "neg.json"
    negative_graph.write_text(json.dumps({"n": -1, "p": 0.3, "edges": []}))
    fractional = {"n": 3.9, "p": 0.5, "seed": 2.7, "edges": [[0, 2.9], [True, 2]]}
    fractional_graphs = []
    for i, doc in enumerate((
        fractional,
        {**fractional, "n": 3},
        {**fractional, "n": 3, "seed": 2, "edges": [[0, 2.9]]},
        {**fractional, "n": 3, "seed": 2, "edges": [[True, 2]]},
    )):
        fractional_graphs.append(tmp_path / f"fractional{i}.json")
        fractional_graphs[-1].write_text(json.dumps(doc))
    cases = (
        ("stat", "--graph", str(tmp_path / "missing.json")),
        ("theory", "--quantity", "gamma"),
        ("theory", "--quantity", "logdet", "--n", "5", "--d", "4"),
        ("sample", "--n", "5", "--p", "0.5", "--mode", "cube", "--seed", "1"),
        ("detect", "--n", "10", "--p", "0.5", "--d", "4", "--q", "0.5",
         "--seed", "1", "--reps", "50"),
        ("stat", "--graph", str(tmp_path / "missing.json"), "--k", "9"),
        ("detect", "--n", "3", "--p", "0.5", "--seed", "1", "--reps", "100",
         "--stat", "cycle", "--k", "5"),
        ("stat", "--graph", str(big_graph), "--kind", "cycle", "--k", "6"),
        ("stat", "--graph", str(big_graph), "--kind", "clique", "--k", "5"),
        ("stat", "--graph", str(tiny_graph), "--kind", "cycle", "--k", "5"),
        ("stat", "--graph", str(tiny_graph), "--kind", "triangle", "--k", "7"),
        ("stat", "--graph", str(tiny_graph), "--p", "nan"),
        ("stat", "--graph", str(tiny_graph), "--p", "2"),
        ("stat", "--graph", str(negative_graph)),
        ("stat", "--graph", str(negative_graph), "--kind", "clique"),
        *(("stat", "--graph", str(path)) for path in fractional_graphs),
        ("nonsense",),
    )
    for argv in cases:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == "", argv
        assert err.startswith("error:") and err.strip().count("\n") == 0, argv


def test_five_cycle_on_hundred_vertices(tmp_path, capsys):
    # 5-cycles are counted in closed form, so no index table limits n here.
    graph_path = tmp_path / "n100.json"
    graph_path.write_text(json.dumps({"n": 100, "p": 0.5, "edges": []}))
    rc, out, err = run_cli(
        capsys, "stat", "--graph", str(graph_path), "--kind", "cycle", "--k", "5"
    )
    assert rc == 0 and err == ""
    assert json.loads(out)["value"] == 12 * math.comb(100, 5) * (-0.5) ** 5


def test_runtime_errors_exit_two(capsys, monkeypatch):
    def boom(*a, **k):
        raise ConvergenceError("quadrature stalled", estimate=0.0, residual=1.0)

    monkeypatch.setattr(cli, "detection_experiment", boom)
    rc, _, err = run_cli(
        capsys, "detect", "--n", "10", "--p", "0.5", "--d", "4", "--q", "0.5",
        "--seed", "1", "--reps", "100",
    )
    assert rc == 2 and err.startswith("convergence error:")
    assert "estimate=0.0" in err and "residual=1.0" in err
    assert err.strip().count("\n") == 0

    def crash(*a, **k):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "detection_experiment", crash)
    rc, _, err = run_cli(
        capsys, "detect", "--n", "10", "--p", "0.5", "--d", "4", "--q", "0.5",
        "--seed", "1", "--reps", "100",
    )
    assert rc == 2 and err.startswith("runtime error:")


def test_sweep_writes_csv_resume_appends(tmp_path, capsys):
    grid = [
        {"n": 10, "p": 0.5, "d": 8, "q": 0.5, "mode": "soft-sphere"},
        {"n": 10, "p": 0.5, "d": 8, "q": 1.0, "mode": "soft-sphere"},
    ]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    full_csv = str(tmp_path / "full.csv")
    rc, out, _ = run_cli(
        capsys, "sweep", "--grid", str(grid_path), "--reps", "100",
        "--seed", "5", "--out", full_csv, "--test", "calibrated-quantile",
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["points"] == 2 and summary["failed"] == 0

    head_path = tmp_path / "head.json"
    head_path.write_text(json.dumps(grid[:1]))
    tail_path = tmp_path / "tail.json"
    tail_path.write_text(json.dumps(grid[1:]))
    split_csv = str(tmp_path / "split.csv")
    run_cli(capsys, "sweep", "--grid", str(head_path), "--reps", "100",
            "--seed", "5", "--out", split_csv, "--test", "calibrated-quantile")
    run_cli(capsys, "sweep", "--grid", str(tail_path), "--reps", "100",
            "--seed", "5", "--out", split_csv, "--test", "calibrated-quantile",
            "--start-index", "1")

    def rows(path):
        return [
            line.rsplit(",", 1)[0]
            for line in open(path).read().strip().splitlines()
        ]

    assert rows(full_csv) == rows(split_csv)


def test_verify_suite_passes(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "specfun")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS specfun.") for line in lines[:-1])
    assert lines[-1] == "5/5 checks passed"


def test_verify_failure_exits_three(capsys, monkeypatch):
    def fake_run(suite, seed):
        return (
            CheckResult("model", "good", True, ""),
            CheckResult("model", "bad", False, "off by one"),
        )

    monkeypatch.setattr(cli.verify_mod, "run", fake_run)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "model")
    assert rc == 3
    assert "FAIL model.bad: off by one" in out
    assert out.strip().splitlines()[-1] == "1/2 checks passed"
