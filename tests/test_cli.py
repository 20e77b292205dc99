import json

import pytest

from qschur import cli
from qschur.cli import main
from qschur.pieri import pieri_col
from qschur.qsym import qschur_polynomial


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_expand_fundamental(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--basis", "F", "(1,3)")
    assert rc == 0
    assert out.strip() == "F(1,3) + F(2,2)"


def test_expand_empty(capsys):
    for basis in ("M", "F"):
        rc, out, _ = run_cli(capsys, "expand", "--basis", basis, "()")
        assert rc == 0
        assert out.strip() == "1"


def test_expand_json(capsys):
    rc, out, _ = run_cli(capsys, "--json", "expand", "--basis", "M", "(1,2)")
    assert rc == 0
    data = json.loads(out)
    assert data["basis"] == "M"
    assert {tuple(t["composition"]) for t in data["terms"]} == {(1, 2), (1, 1, 1)}


def test_pieri_row(capsys):
    rc, out, _ = run_cli(capsys, "pieri-row", "(1,3)", "1")
    assert rc == 0
    assert out.strip() == "S(1,4) + S(2,3) + S(1,3,1) + S(1,1,3)"


def test_matrix(capsys):
    rc, out, _ = run_cli(capsys, "--json", "matrix", "--basis", "F", "--n", "3")
    data = json.loads(out)
    assert data["matrix"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rc, out, _ = run_cli(capsys, "--json", "matrix", "--basis", "F", "--n", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == [[]]
    assert data["matrix"] == [[1]]


def test_matrix_text_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "matrix", "--basis", "F", "--n", "4")
    rc2, out2, _ = run_cli(capsys, "matrix", "--basis", "F", "--n", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_pieri_col(capsys):
    rc, out, _ = run_cli(capsys, "pieri-col", "(1,3)", "2")
    assert rc == 0
    assert out.strip() == str(pieri_col((1, 3), 2))
    rc, out, err = run_cli(capsys, "pieri-col", "(1,3)", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_product(capsys):
    rc, out, _ = run_cli(capsys, "product", "(1,)", "(1,3)")
    assert rc == 0
    assert out.strip() == "S(1,4) + S(2,3) + S(1,3,1) + S(1,1,3)"


def test_product_guards_cells_only(capsys):
    rc, out, err = run_cli(capsys, "product", "(1,1,1,1)", "(1,1,1)")
    assert rc == 0, err
    assert out.strip().startswith("S(")
    rc, out, err = run_cli(capsys, "product", "(1,1,1,1,1)", "(2,2)")
    assert rc == 1
    assert out == ""
    assert "guard" in err


def test_guard_names_only_the_quantity_over_its_limit(capsys):
    rc, _, err = run_cli(capsys, "product", "(1,1,1,1,1)", "(2,2)")
    assert rc == 1
    assert "9 cells exceeds the limit of 8" in err
    assert "variables" not in err
    rc, _, err = run_cli(capsys, "atom", "--shape", "(1,0,2)", "--vars", "7")
    assert rc == 1
    assert "7 variables exceeds the limit of 6" in err
    assert "cells" not in err and "QSCHUR_MAX_CELLS" not in err
    rc, _, err = run_cli(capsys, "atom", "--shape", "(9,9,9)", "--vars", "7")
    assert "27 cells exceeds the limit of 8 and 7 variables exceeds the limit of 6" in err


@pytest.mark.parametrize(
    "verb",
    [
        ("expand", "--basis", "M", "(5,4)"),
        ("matrix", "--basis", "F", "--n", "9"),
        ("pieri-row", "(4,3)", "2"),
        ("pieri-col", "(4,3)", "2"),
        ("in-s", "EXPR"),
    ],
)
def test_guarded_verbs_refuse_nine_cells_unless_forced(tmp_path, capsys, verb):
    # in-s counts the largest degree of its input: (1,3) and (5,4)
    path = tmp_path / "expr.json"
    terms = [{"composition": c, "coeff": [[0, 0, 1]]} for c in ([1, 3], [5, 4])]
    path.write_text(json.dumps({"basis": "F", "terms": terms}))
    verb = tuple(str(path) if arg == "EXPR" else arg for arg in verb)
    rc, out, err = run_cli(capsys, *verb)
    assert rc == 1 and out == ""
    assert "enumeration guard: 9 cells exceeds the limit of 8" in err
    assert "variables" not in err
    rc, out, err = run_cli(capsys, *verb, "--force")
    assert rc == 0, err
    assert out.strip()


def test_atom(capsys):
    rc, out, _ = run_cli(capsys, "atom", "--shape", "(1,0,2)")
    assert rc == 0
    assert out.strip() == "x1*x2*x3 + x1*x3^2"


def test_e_poly_specialized(capsys):
    rc, out, _ = run_cli(
        capsys, "e-poly", "--shape", "(1,0,2)", "--basement", "id", "--spec", "q=0,t=0"
    )
    assert rc == 0
    assert out.strip() == "x1*x2*x3 + x1*x3^2"


def test_in_s(tmp_path, capsys):
    path = tmp_path / "expr.json"
    path.write_text(
        json.dumps(
            {"basis": "F", "terms": [{"composition": [1, 3], "coeff": [[0, 0, 1]]}]}
        )
    )
    rc, out, _ = run_cli(capsys, "in-s", str(path))
    assert rc == 0
    assert out.strip() == "S(1,3) - S(2,2) + S(1,2,1)"
    terms = [
        {"composition": [], "coeff": [[0, 0, 2]]},
        {"composition": [1, 3], "coeff": [[0, 0, 1]]},
    ]
    path.write_text(json.dumps({"basis": "M", "terms": terms}))
    rc, out, _ = run_cli(capsys, "in-s", str(path))
    assert rc == 0
    assert out.strip() == "2 + S(1,3) - S(2,2) - S(1,1,2) + S(1,1,1,1)"
    path.write_text(
        json.dumps({"basis": "F", "terms": [{"composition": [2, 1], "coeff": [[-1, 0, 1]]}]})
    )
    rc, out, err = run_cli(capsys, "in-s", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: negative exponent")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"basis": "F"}, "expression has no 'terms' field"),
        ([{"composition": [1], "coeff": [[0, 0, 1]]}], "expression must be a JSON object"),
        ({"basis": "F", "terms": [{"composition": [1]}]}, "terms[0] has no 'coeff' field"),
        ({"terms": []}, "expression has no 'basis' field"),
        ({"basis": "F", "terms": {}}, "expression: 'terms' must be a list"),
        ({"basis": "F", "terms": [{"composition": 1, "coeff": []}]}, "'composition' must be a list"),
        ({"basis": "F", "terms": [{"composition": [1], "coeff": [[0, 1]]}]}, "'coeff' must be"),
    ],
)
def test_in_s_malformed(tmp_path, capsys, data, message):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "in-s", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_in_s_unreadable_file(tmp_path, capsys):
    path = tmp_path / "expr.json"
    rc, out, err = run_cli(capsys, "in-s", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "No such file" in err
    path.write_text("S(1,3) + S(2,2)")
    rc, out, err = run_cli(capsys, "in-s", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: Expecting value")


def test_guard(capsys, monkeypatch):
    rc, _, err = run_cli(capsys, "e-poly", "--shape", "(9,9,9)", "--vars", "3")
    assert rc == 1
    assert "guard" in err
    monkeypatch.setenv("QSCHUR_MAX_CELLS", "30")
    rc, out, _ = run_cli(capsys, "e-poly", "--shape", "(2,1)", "--vars", "2")
    assert rc == 0
    monkeypatch.setenv("QSCHUR_MAX_CELLS", "abc")
    rc, _, err = run_cli(capsys, "atom", "--shape", "(1,0,2)")
    assert rc == 1
    assert "QSCHUR_MAX_CELLS must be an integer, got 'abc'" in err


def test_domain_error(capsys):
    rc, _, err = run_cli(capsys, "expand", "--basis", "F", "(1,x)")
    assert rc == 1
    assert "error" in err
    rc, _, err = run_cli(capsys, "hl-p", "--shape", "(1,1)", "--vars", "2", "--spec", "q=x")
    assert rc == 1
    assert "--spec q must be an integer, got 'x'" in err
    rc, out, err = run_cli(capsys, "e-poly", "--shape", "(1)", "--spec", "r=1")
    assert rc == 1 and out == ""
    assert "unknown parameter 'r'" in err
    for verb in (("e-poly", "--shape", "(1)", "--basement", "const"), ("hl-p", "--shape", "()")):
        rc, out, err = run_cli(capsys, *verb, "--vars", "-1")
        assert rc == 1 and out == ""
        assert "negative variable count -1" in err


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--basis", "Q", "(1)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["atoms", "--shape", "(1,0,2)"])
    assert exc.value.code == 2


def test_verify_suite(capsys):
    rc, out, _ = run_cli(capsys, "verify", "core", "--max-size", "4")
    assert rc == 0
    assert out.strip() == "suite core: all checks passed (16 cases)"
    for suite, size in (("hall-littlewood", "0"), ("core", "-1")):
        rc, out, err = run_cli(capsys, "verify", suite, "--max-size", size)
        assert rc == 1
        assert out == ""
        assert f"suite {suite}: checked 0 cases" in err
    # the bound means a different thing in each suite, so it is refused for all
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-size", "3"])
    assert exc.value.code == 2
    assert "--max-size bounds one suite" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    rc, _, err = run_cli(capsys, "verify", "nonsense")
    assert rc == 1


def test_verify_guards_max_size(capsys, monkeypatch):
    # the first bound counts cells; hl-chain also runs that many variables
    rc, out, err = run_cli(capsys, "verify", "product", "--max-size", "9")
    assert rc == 1 and out == ""
    assert "enumeration guard: 9 cells exceeds the limit of 8" in err
    rc, out, err = run_cli(capsys, "verify", "hl-chain", "--max-size", "7")
    assert rc == 1 and out == ""
    assert "enumeration guard: 7 variables exceeds the limit of 6" in err
    calls = []

    def fake_run_suite(name, max_size=None):
        calls.append((name, max_size))
        return [(name, 1, [])]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    for suite, size in (("product", "9"), ("hl-chain", "7")):
        rc, out, _ = run_cli(capsys, "verify", suite, "--max-size", size, "--force")
        assert rc == 0
        assert out.strip() == f"suite {suite}: all checks passed (1 cases)"
    assert calls == [("product", 9), ("hl-chain", 7)]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    rc, out, _ = run_cli(capsys, "--out", str(path), "expand", "--basis", "F", "(1,3)")
    assert rc == 0
    assert path.read_text().strip() == "F(1,3) + F(2,2)"


def test_j_fund(capsys):
    rc, out, _ = run_cli(capsys, "--json", "j-fund", "--shape", "(1,1)")
    assert rc == 0
    data = json.loads(out)
    assert data["basis"] == "F"
    terms = {tuple(t["composition"]): t["coeff"] for t in data["terms"]}
    # (1-t)(1-t^2) on the single fundamental term
    assert set(terms) == {(1, 1)}
    # the empty shape gives the unit
    rc, out, _ = run_cli(capsys, "j-fund", "--shape", "()")
    assert rc == 0
    assert out.strip() == "1"


def test_l_alpha(capsys):
    rc, out, _ = run_cli(capsys, "l-alpha", "--shape", "1,3", "--vars", "5", "--spec", "t=0")
    assert rc == 0
    assert out.strip() == str(qschur_polynomial((1, 3), 5))


def test_hl_p(capsys):
    rc, out, _ = run_cli(capsys, "hl-p", "--shape", "(1,1)", "--vars", "2", "--spec", "t=0")
    assert rc == 0
    assert out.strip() == "x1*x2"
