import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricgm.cli import main

from fixtures import FOUR_CYCLE_COUNTS, FOUR_CYCLE_MATRIX, MOUSSOURIS_SUPPORT


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def four_cycle_graph_file(tmp_path):
    return write_json(tmp_path / "g4.json", {
        "variables": [{"name": f"X{i}", "levels": 2} for i in range(1, 5)],
        "edges": [["X1", "X2"], ["X2", "X3"], ["X3", "X4"], ["X1", "X4"]],
    })


@pytest.fixture
def three_chain_graph_file(tmp_path):
    return write_json(tmp_path / "g3.json", {
        "variables": [{"name": f"X{i}", "levels": 2} for i in range(1, 4)],
        "edges": [["X1", "X2"], ["X2", "X3"]],
    })


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_model_from_graph_matches_print(tmp_path, capsys, four_cycle_graph_file):
    out = str(tmp_path / "model.json")
    code, report = run(capsys, "model", "--graph", four_cycle_graph_file,
                       "--out", out)
    assert code == 0
    data = json.loads(Path(out).read_text())
    assert [row["entries"] for row in data["rows"]] == FOUR_CYCLE_MATRIX
    assert data["columns"][0] == "0000"
    assert report["results"]["column_degree"] == 4


def test_model_from_generators(tmp_path, capsys):
    gen_file = write_json(tmp_path / "gen.json", {
        "variables": [{"name": f"X{i}", "levels": 2} for i in range(1, 4)],
        "generators": [["X1", "X2"], ["X2", "X3"], ["X1", "X3"]],
    })
    out = str(tmp_path / "model.json")
    code, _ = run(capsys, "model", "--generators", gen_file, "--out", out)
    assert code == 0
    from fixtures import NO_THREE_WAY_MATRIX
    data = json.loads(Path(out).read_text())
    assert [row["entries"] for row in data["rows"]] == NO_THREE_WAY_MATRIX


def test_model_rejects_unequal_column_sums(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "rows": [{"label": "r0", "entries": [1, 0]},
                 {"label": "r1", "entries": [0, 0]}],
        "columns": ["0", "1"],
    })
    code = main(["model", "--matrix", bad, "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "column sums differ" in err


def test_model_and_basis_reject_column_degree_zero(tmp_path, capsys):
    bad = write_json(tmp_path / "zero.json", {
        "rows": [{"label": "r0", "entries": [0, 0, 0]}],
        "columns": ["0", "1", "2"],
    })
    code = main(["model", "--matrix", bad, "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "column degree 0" in capsys.readouterr().err
    code = main(["basis", "--model", bad, "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert "column degree 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "b.json").exists()


def test_basis_three_chain(tmp_path, capsys, three_chain_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", three_chain_graph_file, "--out", model)
    out = str(tmp_path / "basis.json")
    code, report = run(capsys, "basis", "--model", model, "--out", out)
    assert code == 0
    data = json.loads(Path(out).read_text())
    texts = {b["text"] for b in data["binomials"]}
    assert texts == {"p001*p100 - p000*p101", "p011*p110 - p010*p111"}
    assert report["results"]["size"] == 2


def test_basis_saturated_model_empty(tmp_path, capsys):
    graph = write_json(tmp_path / "k3.json", {
        "variables": [{"name": f"X{i}", "levels": 2} for i in range(1, 4)],
        "edges": [["X1", "X2"], ["X2", "X3"], ["X1", "X3"]],
    })
    out = str(tmp_path / "basis.json")
    code, report = run(capsys, "basis", "--graph", graph, "--out", out)
    assert code == 0
    assert report["results"]["size"] == 0
    assert report["results"]["saturated"] == []
    assert json.loads(Path(out).read_text())["binomials"] == []


def test_basis_reports_saturated_columns(tmp_path, capsys,
                                         four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    for source in (("--graph", four_cycle_graph_file), ("--model", model)):
        code, report = run(capsys, "basis", *source,
                           "--out", str(tmp_path / "b.json"))
        assert code == 0
        assert report["results"]["size"] == 28
        assert report["results"]["saturated"] == [
            "0011", "0110", "1001", "1100", "1111"]


def test_basis_budget_exit_code(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    code = main(["basis", "--model", model, "--out", str(tmp_path / "b.json"),
                 "--budget", "1"])
    assert code == 3


def test_check_verdicts(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    basis = str(tmp_path / "basis.json")
    run(capsys, "basis", "--graph", four_cycle_graph_file, "--seed-pairwise",
        "--out", basis)

    states = [format(i, "04b") for i in range(16)]
    moussouris = ["1/8" if s in MOUSSOURIS_SUPPORT else "0" for s in states]
    dist = write_json(tmp_path / "m.json",
                      {"order": "lex-last-fastest", "values": moussouris})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0
    assert report["results"]["verdict"] == "limit_only"
    assert len(report["results"]["evidence"]["covered_rows"]) == 16

    swap = ["1/4" if s in ("0100", "0111", "1001", "1010") else "0"
            for s in states]
    dist = write_json(tmp_path / "s.json",
                      {"order": "lex-last-fastest", "values": swap})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert report["results"]["verdict"] == "outside"
    assert "failed_binomial" in report["results"]["evidence"]

    image = [str(Fraction(1, 16))] * 16
    dist = write_json(tmp_path / "u.json",
                      {"order": "lex-last-fastest", "values": image})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert report["results"]["verdict"] == "factors"


def test_ips_and_mle_reports(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest",
        "values": [str(x) for x in FOUR_CYCLE_COUNTS]})
    code, report = run(capsys, "ips", "--model", model, "--counts", counts)
    assert code == 0
    fitted = [float(x) for x in report["results"]["fitted"]]
    assert abs(fitted[11] - 1.76) <= 0.01

    code, report = run(capsys, "mle-exact", "--model", model,
                       "--counts", counts)
    assert code == 0
    res = report["results"]
    assert res["psi"] == ["1", "-362/39", "6713/351", "110/9", "-2368/39",
                          "480/13"]
    assert res["psi_variable"] == "1011"
    assert res["rational_mle"] is False
    assert res["rational_roots_of_psi"] == []
    assert abs(float(res["profile"]["1011"]) - 1.76) <= 0.01


def test_mle_exact_rational_root_of_a_quadratic(tmp_path, capsys,
                                                four_cycle_graph_file):
    # psi = (x - 1)(x + 4) on the nine active cells; the MLE is 1 everywhere
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest",
        "values": [str(x) for x in (1, 1, 1, 0, 0, 0, 0, 0,
                                    1, 1, 1, 0, 1, 1, 1, 0)]})
    code, report = run(capsys, "mle-exact", "--model", model,
                       "--counts", counts)
    assert code == 0
    res = report["results"]
    assert res["psi"] == ["1", "3", "-4"]
    assert res["rational_mle"] is True
    assert res["root"] == "1"
    assert set(res["profile"].values()) == {"1"}
    assert res["rational_roots_of_psi"] == ["-4", "1"]


def test_mle_rational_for_decomposable(tmp_path, capsys, three_chain_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", three_chain_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest",
        "values": ["3", "1", "4", "1", "5", "9", "2", "6"]})
    code, report = run(capsys, "mle-exact", "--model", model,
                       "--counts", counts)
    assert code == 0
    res = report["results"]
    assert res["rational_mle"] is True
    assert all("/" in v or v.isdigit() for v in res["profile"].values())


def test_graph_report(tmp_path, capsys, four_cycle_graph_file):
    code, report = run(capsys, "graph", "--graph", four_cycle_graph_file)
    assert code == 0
    res = report["results"]
    assert res["chordal"] is False
    assert res["chordless_cycle"] == ["X1", "X2", "X3", "X4"]
    assert res["partition"] == {"A": ["X1"], "B": ["X2"], "C": ["X3"],
                                "D": ["X4"], "E": []}
    assert len(res["saturated_separations"]) == 2


def test_graph_report_octahedron_cliques(tmp_path, capsys):
    graph = write_json(tmp_path / "oct.json", {
        "variables": [{"name": f"X{i}", "levels": 2} for i in range(1, 7)],
        "edges": [[f"X{i}", f"X{j}"] for i in range(1, 7)
                  for j in range(i + 1, 7) if j - i != 3],
    })
    code, report = run(capsys, "graph", "--graph", graph)
    assert code == 0
    assert report["results"]["cliques"] == [
        ["X1", "X2", "X3"], ["X1", "X2", "X6"], ["X1", "X3", "X5"],
        ["X1", "X5", "X6"], ["X2", "X3", "X4"], ["X2", "X4", "X6"],
        ["X3", "X4", "X5"], ["X4", "X5", "X6"]]
    assert report["results"]["chordal"] is False


def test_graph_report_chordal(tmp_path, capsys, three_chain_graph_file):
    code, report = run(capsys, "graph", "--graph", three_chain_graph_file)
    assert report["results"]["chordal"] is True
    assert "elimination_order" in report["results"]


def test_roundtrip_and_determinism(tmp_path, capsys, three_chain_graph_file):
    model1 = str(tmp_path / "m1.json")
    model2 = str(tmp_path / "m2.json")
    run(capsys, "model", "--graph", three_chain_graph_file, "--out", model1)
    run(capsys, "model", "--graph", three_chain_graph_file, "--out", model2)
    assert Path(model1).read_text() == Path(model2).read_text()
    from toricgm.jsonio import read_matrix, write_matrix
    A = read_matrix(model1)
    write_matrix(A, str(tmp_path / "m3.json"))
    assert Path(model1).read_text() == (tmp_path / "m3.json").read_text()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["graph", "--graph", str(bad)])
    assert code == 2
    assert "line" in capsys.readouterr().err


# --- malformed files: exit 2 with an error naming the file, no traceback -----

VARS3 = [{"name": f"X{i}", "levels": 2} for i in range(1, 4)]


def assert_format_error(capsys, argv, bad):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(bad) in err


@pytest.fixture
def three_chain_files(tmp_path, capsys, three_chain_graph_file):
    model = str(tmp_path / "model.json")
    basis = str(tmp_path / "basis.json")
    run(capsys, "model", "--graph", three_chain_graph_file, "--out", model)
    run(capsys, "basis", "--model", model, "--out", basis)
    dist = write_json(tmp_path / "d.json", {"order": "lex-last-fastest",
                                            "values": ["1/8"] * 8})
    return model, basis, dist


@pytest.mark.parametrize("payload", [
    {"variables": VARS3, "edges": [["X1", "X2"], 5]},
    {"variables": 7, "edges": []},
])
def test_read_graph_malformed(tmp_path, capsys, payload):
    bad = write_json(tmp_path / "bad.json", payload)
    assert_format_error(capsys, ["graph", "--graph", bad], bad)


def test_read_generators_malformed(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"variables": VARS3, "generators": [["X1", "X2"], 3]})
    assert_format_error(capsys, ["model", "--generators", bad,
                                 "--out", str(tmp_path / "m.json")], bad)


@pytest.mark.parametrize("entry", [{"v": [0] * 8}, [[1] + [0] * 7, [0] * 8]])
def test_read_basis_malformed(tmp_path, capsys, three_chain_files, entry):
    model, _, dist = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"binomials": [entry]})
    assert_format_error(capsys, ["check", "--model", model, "--basis", bad,
                                 "--dist", dist], bad)


def test_read_distribution_null_value(tmp_path, capsys, three_chain_files):
    model, basis, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": ["1/8"] * 7 + [None]})
    assert_format_error(capsys, ["check", "--model", model, "--basis", basis,
                                 "--dist", bad], bad)


def test_read_counts_null_value(tmp_path, capsys, three_chain_files):
    model, _, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": [1] * 7 + [None]})
    assert_format_error(capsys, ["ips", "--model", model, "--counts", bad], bad)
