import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricgm import cli
from toricgm.cli import main
from toricgm.jsonio import EXCERPT, read_counts, read_matrix

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
            "0011", "0110", "1001", "1100"]


def test_basis_budget_exit_code(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    code = main(["basis", "--model", model, "--out", str(tmp_path / "b.json"),
                 "--budget", "1"])
    assert code == 3


def test_basis_refuses_a_negative_budget(tmp_path, capsys,
                                        three_chain_files):
    model, _, _ = three_chain_files
    argv = ["basis", "--model", model, "--out", str(tmp_path / "b.json"),
            "--budget", "-1"]
    assert_format_error(capsys, argv, "--budget must be a nonnegative "
                                      "integer, not -1")


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_budget_variable_must_be_a_nonnegative_integer(
        tmp_path, capsys, monkeypatch, three_chain_files, value):
    model, _, _ = three_chain_files
    monkeypatch.setenv("TORICGM_BUDGET", value)
    argv = ["basis", "--model", model, "--out", str(tmp_path / "b.json")]
    assert_format_error(capsys, argv, "TORICGM_BUDGET must be a nonnegative "
                                      f"integer, not {value!r}")


def test_budget_of_zero_stays_valid(tmp_path, capsys, monkeypatch,
                                    three_chain_files):
    model, _, _ = three_chain_files
    monkeypatch.setenv("TORICGM_BUDGET", "0")
    code, report = run(capsys, "basis", "--model", model,
                       "--out", str(tmp_path / "b.json"))
    assert code == 0 and report["results"]["size"] == 2


STATES4 = [format(i, "04b") for i in range(16)]
MOUSSOURIS = ["1/8" if s in MOUSSOURIS_SUPPORT else "0" for s in STATES4]


@pytest.fixture
def four_cycle_files(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    basis = str(tmp_path / "basis.json")
    run(capsys, "basis", "--graph", four_cycle_graph_file, "--seed-pairwise",
        "--out", basis)
    return model, basis


def test_check_verdicts(tmp_path, capsys, four_cycle_files):
    # the kernel oracle agrees with each verdict
    model, basis = four_cycle_files
    # the README tour's limit-only point
    dist = write_json(tmp_path / "m.json",
                      {"order": "lex-last-fastest", "values": MOUSSOURIS})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0
    assert report["results"]["verdict"] == "limit_only"
    assert len(report["results"]["evidence"]["covered_rows"]) == 16
    assert report["results"]["kernel_oracle"] is True

    swap = ["1/4" if s in ("0100", "0111", "1001", "1010") else "0"
            for s in STATES4]
    dist = write_json(tmp_path / "s.json",
                      {"order": "lex-last-fastest", "values": swap})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert report["results"]["verdict"] == "outside"
    assert "failed_binomial" in report["results"]["evidence"]
    assert report["results"]["kernel_oracle"] is False

    image = [str(Fraction(1, 16))] * 16
    dist = write_json(tmp_path / "u.json",
                      {"order": "lex-last-fastest", "values": image})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert report["results"]["verdict"] == "factors"
    assert report["results"]["kernel_oracle"] is True

    # the uniform point with one value perturbed: the support is full, so
    # facial, and the kernel products fail on it
    dist = write_json(tmp_path / "p.json", {"order": "lex-last-fastest",
                                            "values": ["1001/16000"] + image[1:]})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0
    assert report["results"]["verdict"] == "outside"
    assert report["results"]["kernel_oracle"] is False


def test_check_exits_4_when_the_kernel_oracle_disagrees(
        tmp_path, capsys, monkeypatch, four_cycle_files):
    model, basis = four_cycle_files
    monkeypatch.setattr(cli, "in_variety_kernel_oracle", lambda A, P: False)
    dist = write_json(tmp_path / "d.json",
                      {"order": "lex-last-fastest", "values": MOUSSOURIS})
    assert main(["check", "--model", model, "--basis", basis,
                 "--dist", dist]) == 4
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["kernel_oracle"] is False
    assert err == ("error: the kernel oracle says member=False, but the "
                   "basis verdict is limit_only\n")


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


def test_mle_exact_without_an_exact_mle_exits_4(tmp_path, capsys):
    # no-three-way model on 2x2x2 with both corner cells empty: psi has no
    # positive root that gives a nonnegative profile
    gens = write_json(tmp_path / "gen.json", {
        "variables": VARS3, "generators": [["X1", "X2"], ["X1", "X3"],
                                           ["X2", "X3"]]})
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--generators", gens, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest", "values": [0, 1, 1, 1, 1, 1, 1, 0]})
    code = main(["mle-exact", "--model", model, "--counts", counts])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: 0 of 0 positive roots of psi")


def test_mle_exact_without_a_triangular_basis_exits_4(tmp_path, capsys,
                                                     four_cycle_graph_file):
    # the all-ones table on the binary four-cycle: its MLE is the uniform
    # table, but the core's ideal is not zero-dimensional.  That is no
    # fault of the input, so it exits as no exact MLE, not as one
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest", "values": [1] * 16})
    code = main(["mle-exact", "--model", model, "--counts", counts])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith(
        "error: not triangular: the ideal is not zero-dimensional")


def test_ips_nonconvergence_exits_4(tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest",
        "values": [str(x) for x in FOUR_CYCLE_COUNTS]})
    code = main(["ips", "--model", model, "--counts", counts,
                 "--max-cycles", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: IPS did not converge in 1 cycles\n"


def test_ips_with_an_unusable_tolerance_or_cycle_budget_exits_2(
        tmp_path, capsys, four_cycle_graph_file):
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", four_cycle_graph_file, "--out", model)
    counts = write_json(tmp_path / "n.json", {
        "order": "lex-last-fastest",
        "values": [str(x) for x in FOUR_CYCLE_COUNTS]})
    for option, value, message in (
            ("--tol", "nan", "error: tol must be positive, not nan\n"),
            ("--tol", "0", "error: tol must be positive, not 0.0\n"),
            ("--max-cycles", "0",
             "error: max_cycles must be at least 1, not 0\n")):
        code = main(["ips", "--model", model, "--counts", counts,
                     option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == message


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


def test_graph_report_above_the_separation_cap(tmp_path, capsys,
                                              four_cycle_graph_file):
    code, report = run(capsys, "graph", "--graph", four_cycle_graph_file,
                       "--separation-cap", "3")
    assert code == 0
    assert report["results"]["saturated_separations"] is None
    assert report["results"]["separation_cap_exceeded"] is True
    assert report["results"]["chordless_cycle"] == ["X1", "X2", "X3", "X4"]


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
    return err


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


def test_read_graph_refuses_a_loop(tmp_path, capsys):
    # the graph's own constructor refuses it; the error names the file
    bad = write_json(tmp_path / "bad.json",
                     {"variables": VARS3, "edges": [["X1", "X1"]]})
    assert_format_error(capsys, ["graph", "--graph", bad],
                        f"{bad}: loop at 'X1'")


def test_read_generators_refuses_a_duplicate_variable(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"variables": VARS3 + VARS3[:1], "generators": [["X1"]]})
    out = tmp_path / "m.json"
    assert_format_error(capsys, ["model", "--generators", bad,
                                 "--out", str(out)],
                        f"{bad}: duplicate variable names")
    assert not out.exists()


def test_read_generators_refuses_an_unknown_variable(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"variables": VARS3, "generators": [["X1", "C"]]})
    out = tmp_path / "m.json"
    assert_format_error(capsys, ["model", "--generators", bad,
                                 "--out", str(out)],
                        f"{bad}: unknown variable 'C'")
    assert not out.exists()


def test_read_matrix_refuses_a_row_without_entries(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"rows": [{"label": "r0"}], "columns": ["0", "1"]})
    assert_format_error(capsys, ["model", "--matrix", bad,
                                 "--out", str(tmp_path / "m.json")],
                        f"{bad}: bad matrix entry: 'entries'")


@pytest.mark.parametrize("entry", [{"v": [0] * 8}, [[1] + [0] * 7, [0] * 8]])
def test_read_basis_malformed(tmp_path, capsys, three_chain_files, entry):
    model, _, dist = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"binomials": [entry]})
    assert_format_error(capsys, ["check", "--model", model, "--basis", bad,
                                 "--dist", dist], bad)


def test_read_basis_refuses_a_binomial_of_another_arity(tmp_path, capsys,
                                                       three_chain_files):
    model, _, dist = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"binomials": [
        {"u": [1, 0, 0, 1], "v": [0, 1, 1, 0]}]})
    assert_format_error(capsys, ["check", "--model", model, "--basis", bad,
                                 "--dist", dist],
                        f"{bad}: binomial arity 4 does not match the model "
                        "(8 cells)")


def test_read_distribution_null_value(tmp_path, capsys, three_chain_files):
    model, basis, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": ["1/8"] * 7 + [None]})
    assert_format_error(capsys, ["check", "--model", model, "--basis", basis,
                                 "--dist", bad], bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_distribution_rejects_a_value_that_is_not_finite(
        tmp_path, capsys, three_chain_files, value):
    model, basis, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": ["1/8"] * 7 + [value]})
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", basis, "--dist", bad],
        f"{bad}: probability {float(value)} at index 7 is not finite")


def test_check_rejects_a_basis_binomial_outside_the_model(
        tmp_path, capsys, three_chain_files):
    model, basis, _ = three_chain_files
    dist = write_json(tmp_path / "f.json", {"order": "lex-last-fastest",
                                            "values": ["1/16", "3/16"] * 4})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0 and report["results"]["verdict"] == "factors"
    # p000 - p001 changes the X3 margin: A u != A v
    bad = write_json(tmp_path / "bad.json", {"binomials": [
        {"u": [1] + [0] * 7, "v": [0, 1] + [0] * 6}]})
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", bad, "--dist", dist],
        f"{bad}: binomial p000 - p001 is not in the model's toric ideal")


def test_check_rejects_a_basis_that_does_not_generate_the_ideal(
        tmp_path, capsys, three_chain_files):
    model, basis, _ = three_chain_files
    point = ["1/4", "1/16", "1/16"] + ["1/8"] * 5
    dist = write_json(tmp_path / "p.json", {"order": "lex-last-fastest",
                                            "values": point})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0 and report["results"]["verdict"] == "outside"
    # no binomials: every positive point would read as factoring
    empty = write_json(tmp_path / "empty.json", {"binomials": []})
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", empty, "--dist", dist],
        f"{empty}: the binomials do not generate the model's toric ideal "
        "(p011*p110 - p010*p111 is not in their ideal)")
    # a redundant kernel binomial beside the basis changes nothing, and a
    # lex basis is checked under lex
    data = json.loads(Path(basis).read_text())
    first = data["binomials"][0]
    data["binomials"].append({"u": [2 * e for e in first["u"]],
                              "v": [2 * e for e in first["v"]]})
    padded = write_json(tmp_path / "padded.json", data)
    lex = str(tmp_path / "lex.json")
    run(capsys, "basis", "--model", model, "--order", "lex", "--out", lex)
    for path in (padded, lex):
        code, report = run(capsys, "check", "--model", model, "--basis", path,
                           "--dist", dist)
        assert code == 0 and report["results"]["verdict"] == "outside"
    unknown = write_json(tmp_path / "unknown.json",
                         dict(data, order="deglex"))
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", unknown, "--dist", dist],
        f"{unknown}: unknown term order 'deglex'")



@pytest.mark.parametrize("order, quoted", [
    (["lex"], "['lex']"),
    ({"a": 1}, "{'a': 1}"),
    ("lex" * 40, f"'{'lex' * 26}l... (122 characters)"),
], ids=["list", "object", "long"])
def test_check_refuses_a_basis_order_outside_the_term_orders(
        tmp_path, capsys, three_chain_files, order, quoted):
    # the order is read with the file, so a value that is not a name
    # exits 2 naming the file (a list or object was a TypeError)
    model, basis, dist = three_chain_files
    data = dict(json.loads(Path(basis).read_text()), order=order)
    bad = write_json(tmp_path / "bad.json", data)
    err = assert_format_error(
        capsys, ["check", "--model", model, "--basis", bad, "--dist", dist],
        f"{bad}: unknown term order {quoted}")
    assert "Traceback" not in err

def test_read_counts_null_value(tmp_path, capsys, three_chain_files):
    model, _, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": [1] * 7 + [None]})
    assert_format_error(capsys, ["ips", "--model", model, "--counts", bad], bad)


@pytest.mark.parametrize("value", ["7/2", 2.5])
def test_read_counts_rejects_a_count_that_is_not_an_integer(
        tmp_path, capsys, three_chain_files, value):
    model, _, _ = three_chain_files
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": [1] * 6 + [value, 1]})
    for command in ("ips", "mle-exact"):
        assert_format_error(capsys, [command, "--model", model, "--counts", bad],
                            f"{bad}: count {value} at index 6 is not an integer")


@pytest.fixture
def independence_files(tmp_path, capsys):
    """Model and basis files of the 2x2 independence model, whose basis is
    p00*p11 - p01*p10, and the uniform distribution."""
    graph = write_json(tmp_path / "g2.json", {
        "variables": [{"name": "X", "levels": 2}, {"name": "Y", "levels": 2}],
        "edges": []})
    model = str(tmp_path / "model.json")
    basis = str(tmp_path / "basis.json")
    run(capsys, "model", "--graph", graph, "--out", model)
    run(capsys, "basis", "--model", model, "--out", basis)
    dist = write_json(tmp_path / "d.json", {"order": "lex-last-fastest",
                                            "values": ["1/4"] * 4})
    return model, basis, dist


def test_check_reads_number_literals_as_exact_decimals(tmp_path, capsys,
                                                      independence_files):
    # as floats, 0.03 * 0.63 != 0.07 * 0.27, though p00 p11 = p01 p10
    model, basis, _ = independence_files
    assert 0.03 * 0.63 != 0.07 * 0.27
    dist = tmp_path / "p.json"
    for values in ('0.03, 0.07, 0.27, 0.63', '"0.03", "0.07", "0.27", "0.63"',
                   '3e-2, 7E-2, 0.27, 63e-2'):
        dist.write_text('{"order": "lex-last-fastest", "values": [%s]}'
                        % values)
        code, report = run(capsys, "check", "--model", model, "--basis", basis,
                           "--dist", str(dist))
        assert code == 0
        assert report["results"] == {"verdict": "factors", "evidence": {},
                                     "kernel_oracle": True}


@pytest.mark.parametrize("literal", ["1e1001", "1E-1001", "-2.5e+1001"])
def test_read_distribution_refuses_a_literal_exponent_beyond_the_bound(
        tmp_path, capsys, three_chain_files, literal):
    model, basis, _ = three_chain_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": "lex-last-fastest", "values": [%s]}'
                   % ", ".join(['"1/8"'] * 7 + [literal]))
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", basis, "--dist",
                 str(bad)],
        f"{bad}: number {literal} has a decimal exponent beyond 1000")


@pytest.mark.parametrize("value", ["1e1001", "-2.5E+1001", "1e-1_001",
                                   "1e300000"])
def test_string_values_refuse_an_exponent_beyond_the_bound(
        tmp_path, capsys, three_chain_files, value):
    # a string value is read exactly, as a literal is, so it is bounded too
    model, basis, _ = three_chain_files
    message = f"number {value} has a decimal exponent beyond 1000"
    dist = write_json(tmp_path / "dist.json", {"order": "lex-last-fastest",
                                               "values": ["1/8"] * 7 + [value]})
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", basis, "--dist", dist],
        f"{dist}: bad 'values' entry {value!r}: {message}")
    counts = write_json(tmp_path / "counts.json", {
        "order": "lex-last-fastest", "values": [1] * 7 + [value]})
    assert_format_error(capsys, ["ips", "--model", model, "--counts", counts],
                        f"{counts}: bad 'values' entry {value!r}: {message}")


@pytest.mark.parametrize("value, digits", [("0." + "3" * 5000, 5001),
                                           ("3" * 5000, 5000)])
def test_string_values_refuse_more_digits_than_are_read_exactly(
        tmp_path, capsys, three_chain_files, value, digits):
    # Fraction refuses them; a float would round the first to 0.333... and
    # read the second as inf.  The message quotes the first 80 characters
    # of the entry and its length, not all of it
    model, basis, _ = three_chain_files
    message = f"numeric value of {digits} digits cannot be read exactly"
    shown = f"{value!r}"[:80] + f"... ({len(value) + 2} characters)"
    dist = write_json(tmp_path / "dist.json", {"order": "lex-last-fastest",
                                               "values": ["1/8"] * 7 + [value]})
    err = assert_format_error(
        capsys, ["check", "--model", model, "--basis", basis, "--dist", dist],
        f"{dist}: bad 'values' entry {shown}: {message}")
    assert value[:200] not in err
    counts = write_json(tmp_path / "counts.json", {
        "order": "lex-last-fastest", "values": [1] * 7 + [value]})
    err = assert_format_error(
        capsys, ["ips", "--model", model, "--counts", counts],
        f"{counts}: bad 'values' entry {shown}: {message}")
    assert value[:200] not in err


@pytest.mark.parametrize("value, message", [
    ("x" * 5000, "unreadable numeric value 'xxxx"),
    ("1" * 5000 + "e2000", "number 1111"),
], ids=["unreadable", "exponent"])
def test_long_refused_values_are_quoted_in_part(
        tmp_path, capsys, three_chain_files, value, message):
    # the entry and the reason each quote at most 80 characters of the
    # value, then its length
    model, basis, _ = three_chain_files
    dist = write_json(tmp_path / "dist.json", {"order": "lex-last-fastest",
                                               "values": ["1/8"] * 7 + [value]})
    err = assert_format_error(
        capsys, ["check", "--model", model, "--basis", basis, "--dist", dist],
        f"{dist}: bad 'values' entry {value!r:.80}... ({len(value) + 2} "
        f"characters): {message}")
    assert value[:200] not in err
    assert len(err) < len(str(dist)) + 400


def test_a_long_refused_state_order_is_quoted_in_part(
        tmp_path, capsys, three_chain_files):
    # the order quotes at most EXCERPT characters of its repr, then its
    # length, as every other refused value does
    model, _, _ = three_chain_files
    order = "x" * 3000
    counts = write_json(tmp_path / "counts.json",
                        {"order": order, "values": [1] * 8})
    err = assert_format_error(
        capsys, ["ips", "--model", model, "--counts", counts],
        f"{counts}: unsupported state order '{'x' * 79}... (3002 characters)")
    assert order[:200] not in err
    assert len(err) < len(counts) + EXCERPT + 100


@pytest.mark.parametrize("u, v, message", [
    ([1.9, 0, 0, 1], [0, 1, 1, 0], "exponent 1.9 is not an integer"),
    # A u = A v holds, so only the sign check rejects it
    ([1, -1, 0, 0], [0, 0, 1, -1], "negative exponent in [1, -1, 0, 0]"),
    # JSON true is not the number 1
    ([True, 0, 0, 1], [0, 1, 1, 0], "exponent True is not an integer"),
], ids=["fractional", "negative", "boolean"])
def test_read_basis_rejects_an_exponent_that_is_not_a_natural_number(
        tmp_path, capsys, independence_files, u, v, message):
    model, basis, dist = independence_files
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", dist)
    assert code == 0 and report["results"]["verdict"] == "factors"
    bad = write_json(tmp_path / "bad.json", {"binomials": [{"u": u, "v": v}]})
    assert_format_error(
        capsys, ["check", "--model", model, "--basis", bad, "--dist", dist],
        f"{bad}: bad 'binomials' entry {{'u': {u}, 'v': {v}}}: {message}")


def test_read_graph_rejects_levels_that_are_not_an_integer(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "variables": [{"name": "X1", "levels": 2.7},
                      {"name": "X2", "levels": 2}],
        "edges": [["X1", "X2"]]})
    for argv in (["graph", "--graph", bad],
                 ["model", "--graph", bad, "--out", str(tmp_path / "m.json")]):
        assert_format_error(
            capsys, argv, f"{bad}: bad 'variables' entry {{'name': 'X1', "
            "'levels': 2.7}: levels 2.7 is not an integer")
    assert not (tmp_path / "m.json").exists()


def test_read_matrix_rejects_an_entry_that_is_not_an_integer(tmp_path,
                                                             capsys):
    bad = write_json(tmp_path / "bad.json", {
        "rows": [{"label": "r0", "entries": [1.5, 1.9]}],
        "columns": ["0", "1"]})
    out = tmp_path / "m.json"
    assert_format_error(capsys, ["model", "--matrix", bad, "--out", str(out)],
                        f"{bad}: entry 1.5 at row 0, column 0 is not an "
                        "integer")
    assert not out.exists()


# The float nearest each literal is an integer (1.0, 2.0), so a reader
# that parses a float first takes it for one
NEAR_ONE = "1.0000000000000001"


@pytest.mark.parametrize("kind", ["counts", "matrix", "basis", "graph",
                                  "generators"])
def test_a_literal_beside_an_integer_is_not_rounded_to_it(
        tmp_path, capsys, independence_files, kind):
    model, basis, dist = independence_files
    bad = tmp_path / "bad.json"
    levels = '[{"name": "X", "levels": 2.0000000000000001}]'
    text, argv, message = {
        "counts": ('{"order": "lex-last-fastest", "values": [1, 1, 1, %s]}'
                   % NEAR_ONE, ["ips", "--model", model, "--counts"],
                   f"count {NEAR_ONE} at index 3 is not an integer"),
        "matrix": ('{"rows": [{"label": "r0", "entries": [1, %s]}], '
                   '"columns": ["0", "1"]}' % NEAR_ONE,
                   ["model", "--out", str(tmp_path / "m.json"), "--matrix"],
                   f"entry {NEAR_ONE} at row 0, column 1 is not an integer"),
        "basis": ('{"binomials": [{"u": [%s, 0, 0, 1], "v": [0, 1, 1, 0]}]}'
                  % NEAR_ONE,
                  ["check", "--model", model, "--dist", dist, "--basis"],
                  f"bad 'binomials' entry {{'u': [{NEAR_ONE}, 0, 0, 1], "
                  f"'v': [0, 1, 1, 0]}}: exponent {NEAR_ONE} is not an "
                  "integer"),
        "graph": ('{"variables": %s, "edges": []}' % levels,
                  ["graph", "--graph"],
                  "levels 2.0000000000000001 is not an integer"),
        "generators": ('{"variables": %s, "generators": [["X"]]}' % levels,
                       ["model", "--out", str(tmp_path / "m.json"),
                        "--generators"],
                       "levels 2.0000000000000001 is not an integer"),
    }[kind]
    bad.write_text(text)
    err = assert_format_error(capsys, argv + [str(bad)], message)
    assert err.startswith(f"error: {bad}: ")


def test_an_integral_literal_is_read_exactly(tmp_path):
    # the float nearest 12345678901234567891.0 is 12345678901234567168
    big = 12345678901234567891
    counts = tmp_path / "n.json"
    counts.write_text('{"order": "lex-last-fastest", "values": [1, %d.0]}'
                      % big)
    assert read_counts(str(counts)).values == (1, big)
    matrix = tmp_path / "m.json"
    matrix.write_text('{"rows": [{"label": "r0", "entries": [%d.0, %d]}], '
                      '"columns": ["0", "1"]}' % (big, big))
    assert read_matrix(str(matrix)).rows == ((big, big),)


@pytest.mark.parametrize("entries", [[True, False], [False, True]])
def test_read_matrix_rejects_a_boolean_entry(tmp_path, capsys, entries):
    bad = write_json(tmp_path / "bad.json", {
        "rows": [{"label": "r0", "entries": entries}], "columns": ["0", "1"]})
    out = tmp_path / "m.json"
    assert_format_error(capsys, ["model", "--matrix", bad, "--out", str(out)],
                        f"{bad}: entry {entries[0]!r} at row 0, column 0 is "
                        "not an integer")
    assert not out.exists()


def test_read_counts_rejects_a_boolean_count(tmp_path, capsys):
    graph = write_json(tmp_path / "g1.json", {
        "variables": [{"name": "X", "levels": 2}], "edges": []})
    model = str(tmp_path / "model.json")
    run(capsys, "model", "--graph", graph, "--out", model)
    bad = write_json(tmp_path / "bad.json", {"order": "lex-last-fastest",
                                             "values": [True, False]})
    for command in ("ips", "mle-exact"):
        assert_format_error(capsys, [command, "--model", model, "--counts", bad],
                            f"{bad}: bad 'values' entry True: boolean True is "
                            "not a number")


def test_check_normalize(tmp_path, capsys, three_chain_files):
    # eight units give the report of the uniform distribution that the
    # fixture's 1/8 values spell
    model, basis, dist = three_chain_files
    _, uniform = run(capsys, "check", "--model", model, "--basis", basis,
                     "--dist", dist)
    units = write_json(tmp_path / "units.json", {"order": "lex-last-fastest",
                                                 "values": ["1"] * 8})
    code, report = run(capsys, "check", "--model", model, "--basis", basis,
                       "--dist", units, "--normalize")
    assert code == 0
    assert report["results"] == uniform["results"] \
        == {"verdict": "factors", "evidence": {}, "kernel_oracle": True}
    zeros = write_json(tmp_path / "zeros.json", {"order": "lex-last-fastest",
                                                 "values": ["0"] * 8})
    assert main(["check", "--model", model, "--basis", basis, "--dist", zeros,
                 "--normalize"]) == 2
    assert "cannot normalize" in capsys.readouterr().err


def test_model_out_in_a_missing_directory(tmp_path, capsys,
                                          three_chain_graph_file):
    out = tmp_path / "missing" / "model.json"
    argv = ["model", "--graph", three_chain_graph_file, "--out", str(out)]
    err = assert_format_error(capsys, argv, out)
    assert "No such file or directory" in err


def test_basis_out_in_a_missing_directory(tmp_path, capsys, three_chain_files):
    model, _, _ = three_chain_files
    out = tmp_path / "missing" / "basis.json"
    argv = ["basis", "--model", model, "--out", str(out)]
    err = assert_format_error(capsys, argv, out)
    assert "No such file or directory" in err


def test_basis_refuses_a_missing_out_directory_before_the_basis(
        tmp_path, capsys, monkeypatch, three_chain_files):
    model, _, _ = three_chain_files

    def unreachable(*args, **kwargs):
        raise AssertionError("the basis was computed")

    monkeypatch.setattr(cli, "compute_toric_basis", unreachable)
    out = tmp_path / "missing" / "basis.json"
    argv = ["basis", "--model", model, "--out", str(out)]
    err = assert_format_error(capsys, argv, out)
    assert "No such file or directory" in err


@pytest.mark.parametrize("sources", [[], ["--graph", "--matrix"]])
def test_model_needs_exactly_one_source(tmp_path, capsys,
                                        three_chain_graph_file, sources):
    argv = ["model", "--out", str(tmp_path / "m.json")]
    for flag in sources:
        argv += [flag, three_chain_graph_file]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: exactly one of --graph/--generators/--matrix\n"


def test_basis_needs_exactly_one_source(tmp_path, capsys, three_chain_files,
                                        three_chain_graph_file):
    model, _, _ = three_chain_files
    assert main(["basis", "--model", model, "--graph", three_chain_graph_file,
                 "--out", str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err == "error: exactly one of --model/--graph\n"


def test_basis_refuses_seed_pairwise_with_a_model(tmp_path, capsys,
                                                  three_chain_files):
    model, _, _ = three_chain_files
    assert main(["basis", "--model", model, "--seed-pairwise",
                 "--out", str(tmp_path / "b.json")]) == 2
    assert "--seed-pairwise needs --graph" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    (None, "No such file or directory"),
    (["1/7"] * 7, "distribution length does not match the model")])
def test_check_reads_the_distribution_before_the_basis(
        tmp_path, capsys, monkeypatch, three_chain_files, values, message):
    # a missing or wrong-length distribution fails before the model's
    # whole basis is computed
    model, basis, _ = three_chain_files

    def unreachable(*args, **kwargs):
        raise AssertionError("the basis was computed")

    monkeypatch.setattr(cli, "compute_toric_basis", unreachable)
    dist = tmp_path / "d7.json"
    if values is not None:
        write_json(dist, {"order": "lex-last-fastest", "values": values})
    assert_format_error(capsys, ["check", "--model", model, "--basis", basis,
                                 "--dist", str(dist)], message)


def test_check_refuses_a_distribution_of_the_wrong_length(tmp_path, capsys,
                                                         three_chain_files):
    model, basis, _ = three_chain_files
    dist = write_json(tmp_path / "d7.json", {"order": "lex-last-fastest",
                                             "values": ["1/7"] * 7})
    assert main(["check", "--model", model, "--basis", basis,
                 "--dist", dist]) == 2
    assert capsys.readouterr().err == \
        "error: distribution length does not match the model\n"
