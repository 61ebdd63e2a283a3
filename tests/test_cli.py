"""The dpz command line interface."""
import json

import pytest

from delpezzo import classify_involutions
from delpezzo import exactlinalg as xl
from delpezzo import irreducibility as irr
from delpezzo.cli import EXIT_INPUT, EXIT_OK, EXIT_UNDECIDED, build_parser, main
from delpezzo.models import quadric_basis_change


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "4")
    assert code == EXIT_OK and out.strip() == "20"


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "6", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 6, "roots": 72}


def test_order_csv(capsys):
    code, out, _ = run(capsys, "order", "4", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,order" and lines[1] == "4,120"


def test_classify_json_contents(capsys):
    code, out, _ = run(capsys, "classify", "5", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 5 and len(data["classes"]) == 5
    by_label = {c["label"]: c for c in data["classes"]}
    assert by_label["m4"]["verdict"] == "Irreducible"
    assert by_label["m4"]["name"] == "DeJonquieres(3)"
    assert by_label["m1"]["verdict"] == "Reducible"
    assert by_label["m1"]["certificate"]["kind"] == "FixedNormPlus1"


def test_classify_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "9")
    assert code == EXIT_INPUT and "error" in err


@pytest.mark.parametrize("cmd", ("roots", "order"))
@pytest.mark.parametrize("n", ("1", "9"))
def test_roots_and_order_need_n_from_2_to_8(capsys, cmd, n):
    # classify accepts n = 1; roots and order need 2..8
    code, out, err = run(capsys, cmd, n)
    assert code == EXIT_INPUT and "2 <= n <= 8" in err and not out


def test_check_needs_n_from_2_to_8(tmp_path, capsys):
    path = tmp_path / "n1.json"
    path.write_text(json.dumps({"n": 1, "matrix": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT and "2 <= n <= 8" in err


def test_classify_accepts_n_1(capsys):
    code, out, _ = run(capsys, "classify", "1", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["classes"] == []


def test_model_geiser_matrix(capsys):
    code, out, _ = run(capsys, "model", "--name", "geiser", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 7 and len(data["matrix"]) == 8


def test_model_dejonquieres_needs_n(capsys):
    code, _, err = run(capsys, "model", "--name", "dejonquieres")
    assert code == EXIT_INPUT and "--n" in err


def test_check_named_model_file(tmp_path, capsys):
    code, out, _ = run(capsys, "model", "--name", "dejonquieres", "--n", "5",
                       "--format", "json")
    matrix = json.loads(out)["matrix"]
    path = tmp_path / "dj5.json"
    path.write_text(json.dumps({"matrix": matrix, "basis": "HE"}))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["status"] == "Irreducible"
    assert data["certificate"]["kind"] == "EvenFixedLatticeObstruction"


def test_check_quadric_basis_maps_witness_back(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "basis": "quadric",
    }))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["status"] == "Reducible"
    assert data["basis"] == "quadric"
    # S1 + S2 - e1 has square +1 in the hyperbolic-plus-blowup form
    assert data["certificate"]["witnesses"] == [[1, 1, -1]]


def test_decompose_file(tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({
        "matrix": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        "basis": "HE",
    }))
    code, out, _ = run(capsys, "decompose", str(path), "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["steps"]) >= 1
    assert data["leaf"]["verdict"] == "Irreducible"


@pytest.mark.parametrize("n, label", [pytest.param(5, label, id=label) for label in
                                      ("m1", "m2a", "m2b", "m3", "m4")]
                         + [pytest.param(8, label, id=f"n8-{label}") for label in
                            ("m1", "m4b", "m8")])
def test_decompose_quadric_basis_maps_back(tmp_path, capsys, n, label):
    # the quadric file holds m^-1 g m, and its output vectors are m^-1 times
    # those of the HE file of g
    g = next(c for c in classify_involutions(n) if c.label == label).representative
    m = [list(r) for r in quadric_basis_change(n).matrix]
    g_q = xl.mat_mul(xl.mat_mul(xl.inverse(m), [list(r) for r in g.matrix]), m)
    out = {}
    for basis, matrix in (("HE", g.matrix), ("quadric", g_q)):
        path = tmp_path / f"{basis}.json"
        path.write_text(json.dumps({"matrix": [[int(x) for x in r] for r in matrix],
                                    "basis": basis}))
        code, text, _ = run(capsys, "decompose", str(path), "--format", "json")
        assert code == EXIT_OK
        out[basis] = json.loads(text)
    he, quad = out["HE"], out["quadric"]
    assert quad["basis"] == "quadric"
    assert [s["action"] for s in quad["steps"]] == [s["action"] for s in he["steps"]]
    assert quad["leaf"]["matrix"] == he["leaf"]["matrix"]
    pairs = [(s["basis"], t["basis"]) for s, t in zip(quad["steps"], he["steps"])]
    pairs.append((quad["leaf"]["basis"], he["leaf"]["basis"]))
    for vq, vh in pairs:
        assert [xl.mat_vec(m, v) for v in vq] == vh


def test_defect_twist(capsys):
    code, out, _ = run(capsys, "defect", "--name", "bertini", "--twist")
    assert code == EXIT_OK and out.strip() == "-9"


def test_defect_requires_input(capsys):
    code, _, err = run(capsys, "defect")
    assert code == EXIT_INPUT


def test_bad_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("payload", [
    {"matrix": [[1.9, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"matrix": [["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"matrix": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"n": 4, "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
], ids=["float", "string", "bool", "n-mismatch"])
def test_matrix_file_entries_and_n_are_validated(tmp_path, capsys, payload):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT and not out and "dpz: error:" in err


def test_non_involution_matrix_rejected(tmp_path, capsys):
    path = tmp_path / "rot.json"
    # order-3 rotation of E1,E2,E3
    path.write_text(json.dumps({
        "matrix": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
        "basis": "HE",
    }))
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT and "involution" in err


@pytest.mark.parametrize("cmd", ["check", "decompose"])
@pytest.mark.parametrize("matrix", [
    # order-3 rotation of E1, E2, E3: fixes K
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
    # reflections in E1 and E1 - E2: order 4, moves K
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]],
], ids=["fixes-K", "moves-K"])
def test_check_and_decompose_reject_a_non_involution(tmp_path, capsys, cmd, matrix):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, cmd, str(path))
    assert code == EXIT_INPUT and not out
    assert err.endswith("not an involution\n")


@pytest.mark.parametrize("basis", ["HE", "quadric"])
def test_check_rejects_a_matrix_that_breaks_the_form(tmp_path, capsys, basis):
    # square, integral, of the right size and unimodular, but no isometry:
    # the HE basis checks it on the diagonal form, the quadric basis on U + <-1>
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "basis": basis}))
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT and not out
    assert "does not preserve the intersection form" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == EXIT_INPUT


def test_height_bound_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DPZ_HEIGHT_BOUND", "3")
    path = tmp_path / "dj5.json"
    code, out, _ = run(capsys, "model", "--name", "dejonquieres", "--n", "5",
                       "--format", "json")
    matrix = json.loads(out)["matrix"]
    path.write_text(json.dumps({"matrix": matrix, "basis": "HE"}))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["height_bound"] == 3


def _swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}))
    return str(path)


@pytest.mark.parametrize("value, message", [("0", "must be positive"),
                                            ("x", "must be an integer")])
def test_height_bound_env_must_be_a_positive_integer(monkeypatch, tmp_path, capsys,
                                                     value, message):
    # the documented contract: any other value exits 2, whichever command
    # decides verdicts, and prints nothing on stdout
    monkeypatch.setenv("DPZ_HEIGHT_BOUND", value)
    path = _swap_file(tmp_path)
    for argv in (("classify", "3"), ("check", path), ("decompose", path)):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_INPUT == 2 and not out
        assert f"DPZ_HEIGHT_BOUND {message}" in err


def test_check_unknown_verdict_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(irr, "check_reducible",
                        lambda g, n: irr.Verdict(irr.UNKNOWN, None, 10))
    code, out, _ = run(capsys, "check", _swap_file(tmp_path), "--format", "json")
    assert code == EXIT_UNDECIDED == 3
    assert json.loads(out)["status"] == "Unknown"


def test_decompose_unknown_leaf_exits_3(monkeypatch, tmp_path, capsys):
    leaf = irr.DecompositionLeaf("blowup", ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                 ((1, 0, 0), (0, 0, 1), (0, 1, 0)), irr.UNKNOWN)
    monkeypatch.setattr(irr, "decompose", lambda g, n: irr.Decomposition((), leaf))
    code, out, _ = run(capsys, "decompose", _swap_file(tmp_path), "--format", "json")
    assert code == EXIT_UNDECIDED == 3
    assert json.loads(out)["leaf"]["verdict"] == "Unknown"


def test_classify_in_one_process_matches_fresh_verdicts(monkeypatch, capsys):
    # the classes are cached with their eigen data, on which dpz classify
    # reuses route results: at the default bound, then bounds 1 and 2, then
    # the default again, every row's verdict and certificate are those of
    # check_reducible on fresh eigen data at that bound
    seen = set()
    for bound in (None, 1, 2, None):
        if bound is None:
            monkeypatch.delenv("DPZ_HEIGHT_BOUND", raising=False)
        else:
            monkeypatch.setenv("DPZ_HEIGHT_BOUND", str(bound))
        for n in range(2, 9):
            code, out, _ = run(capsys, "classify", str(n), "--format", "json")
            assert code == EXIT_OK
            rows = {r["label"]: r for r in json.loads(out)["classes"]}
            classes = classify_involutions(n)
            assert sorted(rows) == sorted(c.label for c in classes)
            for cls in classes:
                verdict = irr.check_reducible(cls.representative, n, bound).to_json()
                row = rows[cls.label]
                assert (row["verdict"], row["certificate"]) == (
                    verdict["status"], verdict["certificate"]), (bound, n, cls.label)
                seen.add((bound, row["verdict"]))
    # bound 1 leaves classes Unknown that the default bound decides
    assert {(1, irr.UNKNOWN), (None, irr.REDUCIBLE), (None, irr.IRREDUCIBLE)} <= seen
