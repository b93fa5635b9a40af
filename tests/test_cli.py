"""Command-line surface: rendered outputs, exit codes, JSON shapes,
flag placement and the verification subcommands."""

import json
from pathlib import Path

import pytest

from scdr.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# -- bracket ----------------------------------------------------------

@pytest.mark.parametrize("query,want", [
    ("[B1 _ Psi1]", "1"),
    ("[B1 _ B1]", "0"),
    ("[S(B1) _ Psi1]", "chi"),
])
def test_bracket_query_examples(capsys, query, want):
    rc, out, _ = run(capsys, "bracket", query)
    assert rc == 0
    assert out == want + "\n"


def test_bracket_two_expression_form(capsys):
    rc, out, _ = run(capsys, "bracket", "S(B1)", "Psi1")
    assert rc == 0
    assert out == "chi\n"


def test_bracket_rejects_malformed_input(capsys):
    rc, _, err = run(capsys, "bracket", "[B1 _")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "bracket", "B1")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "bracket", "B1", "B1", "B1")
    assert rc == 2 and "error:" in err


def test_bracket_requires_homogeneous_arguments(capsys):
    rc, _, err = run(capsys, "bracket", "B1 + Psi1", "B1")
    assert rc == 2
    assert "not homogeneous" in err


# -- normalize --------------------------------------------------------

@pytest.mark.parametrize("text,want", [
    (":vac B1:", "B1"),
    (":Psi1 S(B1): + :S(B1) Psi1:", "0"),
    ("S(S(B1))", "T B1"),
])
def test_normalize_examples(capsys, text, want):
    rc, out, _ = run(capsys, "normalize", text)
    assert rc == 0
    assert out == want + "\n"


def test_normalize_rejects_out_of_range_index(capsys):
    rc, _, err = run(capsys, "normalize", "B2")
    assert rc == 2 and "error:" in err


def test_rational_ring_rejects_imaginary_scalars(capsys):
    rc, _, err = run(capsys, "--scalar-ring", "rational",
                     "normalize", "i * B1")
    assert rc == 2
    assert "imaginary" in err
    rc, out, _ = run(capsys, "--scalar-ring", "rational",
                     "normalize", "2 * Psi1")
    assert rc == 0
    assert out == "2 * Psi1\n"


# -- configuration ----------------------------------------------------

def test_flags_accepted_before_or_after_subcommand(capsys):
    rc1, out1, _ = run(capsys, "--dim", "2", "bracket", "[B2 _ Psi2]")
    rc2, out2, _ = run(capsys, "bracket", "[B2 _ Psi2]", "--dim", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2 == "1\n"


def test_cutoff_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SCDR_CUTOFF", "4")
    rc, _, err = run(capsys, "normalize", 'f{"6": "1"}')
    assert rc == 2 and "cutoff" in err
    monkeypatch.delenv("SCDR_CUTOFF")
    rc, out, _ = run(capsys, "normalize", 'f{"6": "1"}')
    assert rc == 0
    assert out == 'f{"6": "1"}\n'


def test_dim_must_be_positive():
    with pytest.raises(SystemExit):
        main(["--dim", "0", "normalize", "vac"])


# -- JSON output ------------------------------------------------------

def test_bracket_json_shape_and_determinism(capsys):
    argv = ("--format", "json", "--dim", "2", "bracket",
            "[:B1 Psi2: _ S(B2)]")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"terms", "guaranteed_degree"}
    assert isinstance(doc["terms"], dict)


def test_normalize_json_shape(capsys):
    rc, out, _ = run(capsys, "--format", "json", "normalize", "S(S(B1))")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"normal_form": "T B1", "guaranteed_degree": None}


def test_verify_json_report_shape(capsys):
    rc, out, _ = run(capsys, "--format", "json", "--dim", "1",
                     "--cutoff", "4", "verify", "ns")
    assert rc == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and docs
    for doc in docs:
        assert set(doc) == {"verdict", "central_charge",
                            "guaranteed_degree", "residual_rendering"}
        assert doc["verdict"] == "pass"


# -- verify suites ----------------------------------------------------

def test_verify_ns_flat_dim2(capsys):
    rc, out, _ = run(capsys, "--dim", "2", "--cutoff", "4", "verify", "ns")
    assert rc == 0
    assert "ns: pass, c = 6 (exact)" in out
    assert "ns/central-charge: pass" in out


def test_verify_ns_curved_metric_file(capsys):
    rc, out, _ = run(capsys, "verify", "ns", "--metric",
                     str(DATA / "metric_1d_curved.json"))
    assert rc == 0
    assert "c = 3" in out
    assert "degree" in out


def test_drop_potential_control_fails(capsys):
    rc, out, _ = run(capsys, "verify", "ns", "--metric",
                     str(DATA / "metric_1d_curved.json"),
                     "--drop-potential")
    assert rc == 1
    assert "FAIL" in out


def test_verify_n2_needs_even_dimension(capsys):
    rc, _, err = run(capsys, "--dim", "3", "--cutoff", "4",
                     "verify", "n2")
    assert rc == 2
    assert "even dimension" in err


def test_verify_n2_rejects_rational_ring(capsys):
    rc, _, err = run(capsys, "--dim", "2", "--scalar-ring", "rational",
                     "verify", "n2")
    assert rc == 2
    assert "gaussian-rational" in err


def test_verify_n4_flat(capsys):
    rc, out, _ = run(capsys, "--dim", "4", "--cutoff", "4",
                     "verify", "n4", "--flat-quaternionic")
    assert rc == 0
    assert "c = 12" in out
    assert "n4/raising-current: pass" in out


def test_verify_n4_needs_dim_multiple_of_four(capsys):
    rc, _, err = run(capsys, "--dim", "2", "verify", "n4")
    assert rc == 2
    assert "divisible by 4" in err


def test_verify_components_dim1(capsys):
    rc, out, _ = run(capsys, "--dim", "1", "--cutoff", "4",
                     "verify", "components")
    assert rc == 0
    assert "components-n1: pass, c = 3" in out


def test_verify_coordchange_file(capsys):
    rc, out, _ = run(capsys, "verify", "coordchange", "--change",
                     str(DATA / "change_quad_1d.json"))
    assert rc == 0
    assert "coordchange/quadratic: pass" in out


def test_verify_coordchange_requires_input(capsys):
    rc, _, err = run(capsys, "verify", "coordchange")
    assert rc == 2
    assert "--change" in err


def test_verify_jacobi_small(capsys):
    rc, out, _ = run(capsys, "--dim", "1", "--cutoff", "3", "--seed", "5",
                     "verify", "jacobi")
    assert rc == 0
    assert "jacobi/skew-symmetry: pass" in out
    assert "jacobi/jacobi-identity: pass" in out
    assert "jacobi/normalize-idempotent: pass" in out


def test_verify_missing_metric_file(capsys):
    rc, _, err = run(capsys, "verify", "ns", "--metric", "no-such.json")
    assert rc == 2
    assert "error:" in err


# -- verdicts and input errors ----------------------------------------

def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _vacuous_metric(tmp_path):
    # g_ii = 1 + x1^2 + x2 x3 at cutoff 2: nothing survives the
    # derivatives, so the certificate reaches degree -1 only
    entry = {"0,0,0": "1", "2,0,0": "1", "0,1,1": "1"}
    g = [[entry if i == j else {} for j in range(3)] for i in range(3)]
    return _write_json(tmp_path / "vacuous.json",
                       {"dim": 3, "cutoff": 2, "g": g})


def test_vacuous_certificate_is_inconclusive(capsys, tmp_path):
    path = _vacuous_metric(tmp_path)
    rc, out, _ = run(capsys, "verify", "ns", "--metric", path,
                     "--drop-potential")
    assert rc == 3
    assert out.splitlines()[0] == "ns: inconclusive, c = 9 (degree -1)"
    rc, out, _ = run(capsys, "--format", "json", "verify", "ns",
                     "--metric", path, "--drop-potential")
    assert rc == 3
    assert json.loads(out)[0]["verdict"] == "inconclusive"


def _assert_input_error(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_exponent_is_an_input_error(capsys):
    _assert_input_error(capsys, "normalize", 'f{"-1": "1"}')


def test_zero_denominator_is_an_input_error(capsys):
    _assert_input_error(capsys, "normalize", 'f{"1": "1/0"}')


def test_geometry_document_must_be_an_object(capsys, tmp_path):
    path = _write_json(tmp_path / "list.json", [1, 2])
    _assert_input_error(capsys, "verify", "ns", "--metric", path)


def test_deep_nesting_is_an_input_error(capsys):
    _assert_input_error(capsys, "normalize",
                        "S(" * 1200 + "B1" + ")" * 1200)


def test_cutoff_flag_must_match_the_file(capsys):
    path = str(DATA / "change_quad_1d.json")
    rc, _, err = run(capsys, "--cutoff", "4", "verify", "coordchange",
                     "--change", path)
    assert rc == 2
    assert "--cutoff 4" in err and "cutoff 8" in err
    rc, out, _ = run(capsys, "--cutoff", "8", "verify", "coordchange",
                     "--change", path)
    assert rc == 0
    assert "coordchange/quadratic: pass (degree 5)" in out


def test_non_integer_cutoff_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("SCDR_CUTOFF", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "vac"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "SCDR_CUTOFF" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("doc,suite", [
    ({"dim": [1], "cutoff": 2}, "ns"),
    ({"dim": 0, "cutoff": 2}, "ns"),
    ({"dim": 1, "cutoff": 2, "g": 5}, "ns"),
    ({"dim": 1, "cutoff": 2, "g": [5]}, "ns"),
    ({"dim": 2, "cutoff": 2, "g": [[{"0,0": "1"}, {}]]}, "ns"),
    ({"dim": 1, "cutoff": 2, "g": [[{"0": 1}]]}, "ns"),
    ({"dim": 2, "cutoff": 2, "tensors": {"omega": 3}}, "n2"),
    ({"dim": 2, "cutoff": 2, "tensors": {"omega": [[{}, {}], [{}, 3]]}},
     "n2"),
    ({"dim": 2, "cutoff": 2, "tensors": [1]}, "n2"),
])
def test_malformed_geometry_field_is_an_input_error(capsys, tmp_path, doc,
                                                     suite):
    path = _write_json(tmp_path / "bad.json", doc)
    _assert_input_error(capsys, "verify", suite, "--metric", path)


@pytest.mark.parametrize("change", [
    {"forward": 5},
    {"forward": [{"1": "1"}, {"1": "1"}]},
    {"forward": [{"1": "1"}], "inverse": [[]]},
    [1],
])
def test_malformed_change_is_an_input_error(capsys, tmp_path, change):
    path = _write_json(tmp_path / "bad.json",
                       {"dim": 1, "cutoff": 2, "changes": {"c": change}})
    _assert_input_error(capsys, "verify", "coordchange", "--change", path)
