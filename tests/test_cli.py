"""Command-line surface: rendered outputs, exit codes, JSON shapes,
flag placement and the verification subcommands."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import scdr.cli
from scdr.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_json_skips_a_key_of_kept_zeros(capsys):
    # x1 * x1 leaves the cutoff in the lambda key: a kept zero, which
    # prints nothing, marks it
    argv = ("--dim", "1", "--cutoff", "1", "bracket",
            '[:f{"1": "1"} Psi1: _ :f{"1": "3"} T B1:]')
    rc, out, _ = run(capsys, "--format", "json", *argv)
    assert rc == 0
    assert json.loads(out) == {"guaranteed_degree": 1,
                               "terms": {"1": ':f{"1": "6"} T B1:'}}


def test_text_skips_a_key_of_kept_zeros(capsys):
    argv = ("--dim", "1", "--cutoff", "1", "bracket",
            '[:f{"1": "1"} Psi1: _ :f{"1": "3"} T B1:]')
    rc, out, _ = run(capsys, *argv)
    assert (rc, out) == (0, ':f{"1": "6"} T B1:\n')
    # a value of kept zeros only prints as zero
    rc, out, _ = run(capsys, "--dim", "2", "--cutoff", "1", "bracket",
                     TRUNCATED_CONSTANT, "Psi2")
    assert (rc, out) == (0, "0\n")


TRUNCATED_CONSTANT = (':f{"0,0": "1", "0,1": "1"} '
                      'f{"0,0": "1", "0,1": "-1"} Psi1:')


def test_a_truncated_constant_counts_as_a_function_of_every_variable(capsys):
    # c = (1 + x2)(1 - x2) is 1 through degree 1 at cutoff 1; Psi2 takes
    # d_2 c of it, known through degree 0 only, and the cutoff-2 value
    # has a term of degree 1
    docs = []
    for cutoff in ("1", "2"):
        rc, out, _ = run(capsys, "--format", "json", "--dim", "2",
                         "--cutoff", cutoff, "bracket", TRUNCATED_CONSTANT,
                         "Psi2")
        assert rc == 0
        docs.append(json.loads(out))
    assert docs[0] == {"guaranteed_degree": 0, "terms": {}}
    assert docs[1]["terms"] == {"1": ':f{"0,1": "2"} Psi1:'}


def test_a_coefficient_that_cancels_keeps_the_input_homogeneous(capsys):
    # c - c leaves a kept zero at the odd key Psi1 beside the even T B1;
    # it holds no term for a sign to act on, so the input is even
    expr = "%s - %s + T B1" % (TRUNCATED_CONSTANT, TRUNCATED_CONSTANT)
    rc, out, _ = run(capsys, "--format", "json", "--dim", "2", "--cutoff",
                     "1", "bracket", expr, "Psi2")
    assert rc == 0
    assert json.loads(out) == {"guaranteed_degree": 0, "terms": {}}


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


def test_cutoff_must_be_nonnegative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cutoff", "-1", "normalize", "vac"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == \
        "scdr: error: --cutoff must be nonnegative"


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


def _strict_json(text):
    """json.loads that rejects the non-JSON constants Infinity and NaN."""
    def reject(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,degrees", [
    (("verify", "ns"), [None, None]),
    (("verify", "ns", "--metric", str(DATA / "metric_1d_curved.json")),
     [5, None]),
    (("--dim", "1", "--cutoff", "1", "bracket",
      '[:f{"1": "1"} Psi1: _ :f{"1": "3"} T B1:]'), [1]),
    (("--dim", "1", "--cutoff", "1", "normalize",
      ':f{"1": "1"} f{"1": "1"}:'), [1]),
])
def test_json_prints_an_exact_degree_as_null(capsys, argv, degrees):
    rc, out, _ = run(capsys, "--format", "json", *argv)
    assert rc == 0
    doc = _strict_json(out)
    got = [d["guaranteed_degree"] for d in
           (doc if isinstance(doc, list) else [doc])]
    assert got == degrees
    assert all(d is None or type(d) is int for d in got)


def test_json_writer_rejects_a_degree_it_cannot_print(capsys, monkeypatch):
    # without the mapping to null an exact degree is not JSON at all
    monkeypatch.setattr(scdr.cli, "_json_degree", lambda degree: degree)
    with pytest.raises(ValueError):
        main(["--format", "json", "normalize", "S(S(B1))"])


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


@pytest.mark.parametrize("argv", [
    ("--dim", "2", "verify", "n2"),
    ("--dim", "4", "verify", "n4"),
    ("--dim", "4", "verify", "n4", "--flat-quaternionic")])
def test_default_flat_structures_fit_their_metric(capsys, monkeypatch, argv):
    seen = []
    monkeypatch.setattr(scdr.cli, "run_n2_suite",
                        lambda metric, omega, **kw:
                        seen.append((metric, [omega])) or [])
    monkeypatch.setattr(scdr.cli, "run_n4_suite",
                        lambda metric, triple:
                        seen.append((metric, list(triple))) or [])
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    (metric, tensors), = seen
    for t in tensors:
        assert t.squares_to_minus_id()
        assert t.is_metric_compatible(metric)


def test_verify_n4_needs_dim_multiple_of_four(capsys):
    rc, _, err = run(capsys, "--dim", "2", "verify", "n4")
    assert rc == 2
    assert "divisible by 4" in err


@pytest.mark.parametrize("via_env", [False, True])
def test_verify_jacobi_needs_positive_cutoff(capsys, monkeypatch, via_env):
    # random states hold the coordinate x_i, which cutoff 0 cannot store
    if via_env:
        monkeypatch.setenv("SCDR_CUTOFF", "0")
        argv = ["verify", "jacobi"]
    else:
        monkeypatch.delenv("SCDR_CUTOFF", raising=False)
        argv = ["--cutoff", "0", "verify", "jacobi"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: the jacobi suite needs --cutoff >= 1\n"


def test_verify_components_dim1(capsys):
    rc, out, _ = run(capsys, "--dim", "1", "--cutoff", "4",
                     "verify", "components")
    assert rc == 0
    assert "components-n1: pass, c = 3" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_components_refuses_a_curved_metric(capsys, tmp_path, fmt):
    # the tables are built on the flat H: a curved g would go unread
    curved = str(DATA / "metric_1d_curved.json")
    err = _assert_input_error(capsys, "--format", fmt, "verify",
                              "components", "--metric", curved)
    assert err == ("error: the components suite needs a constant metric; "
                   "%s is curved\n" % curved)
    # a constant g has the flat H
    g = [[{"0,0": "2"}, {"0,0": "1"}], [{"0,0": "1"}, {"0,0": "3"}]]
    constant = _write_json(tmp_path / "constant.json",
                           {"dim": 2, "cutoff": 4, "g": g})
    argv = ("--format", fmt, "verify", "components")
    got = run(capsys, *argv, "--metric", constant)
    assert got[0] == 0
    assert got == run(capsys, "--dim", "2", "--cutoff", "4", *argv)


def test_verify_coordchange_file(capsys):
    rc, out, _ = run(capsys, "verify", "coordchange", "--change",
                     str(DATA / "change_quad_1d.json"))
    assert rc == 0
    assert "coordchange/quadratic: pass" in out


def test_verify_coordchange_requires_input(capsys):
    rc, _, err = run(capsys, "verify", "coordchange")
    assert rc == 2
    assert "--change" in err


# a suite refuses a flag it does not read, before it loads any file

@pytest.mark.parametrize("suite", ["n2", "n4", "components", "coordchange",
                                   "jacobi"])
def test_only_ns_takes_drop_potential(capsys, suite):
    err = _assert_input_error(capsys, "--dim", "4", "verify", suite,
                              "--drop-potential")
    assert err == "error: the %s suite does not take --drop-potential\n" \
        % suite


@pytest.mark.parametrize("suite", ["ns", "n2", "n4", "components", "jacobi"])
def test_only_coordchange_takes_change(capsys, suite, tmp_path):
    for path in (DATA / "change_quad_1d.json", tmp_path / "missing.json"):
        err = _assert_input_error(capsys, "verify", suite, "--change",
                                  str(path))
        assert err == "error: the %s suite does not take --change\n" % suite


@pytest.mark.parametrize("suite", ["ns", "components", "coordchange",
                                   "jacobi"])
def test_only_n2_and_n4_take_tensor(capsys, suite):
    err = _assert_input_error(capsys, "--dim", "2", "verify", suite,
                              "--tensor", "omega=missing.json")
    assert err == "error: the %s suite does not take --tensor\n" % suite


@pytest.mark.parametrize("suite", ["ns", "n2", "components", "jacobi"])
def test_only_n4_takes_flat_quaternionic(capsys, suite):
    err = _assert_input_error(capsys, "--dim", "4", "verify", suite,
                              "--flat-quaternionic")
    assert err == "error: the %s suite does not take --flat-quaternionic\n" \
        % suite


def test_verify_jacobi_small(capsys):
    rc, out, _ = run(capsys, "--dim", "1", "--cutoff", "3", "--seed", "5",
                     "verify", "jacobi")
    assert rc == 0
    assert "jacobi/skew-symmetry: pass" in out
    assert "jacobi/jacobi-identity: pass" in out
    assert "jacobi/normalize-idempotent: pass" in out


@pytest.mark.parametrize("argv,want", [
    # one skew pair holds only through degree 0
    (["--dim", "1", "--cutoff", "3", "--seed", "5"],
     ["jacobi/skew-symmetry: pass (degree 0)",
      "jacobi/jacobi-identity: pass (exact)",
      "jacobi/normalize-idempotent: pass (exact)"]),
    # a certificate through a negative degree covers no coefficient
    (["--dim", "1", "--cutoff", "1"],
     ["jacobi/skew-symmetry: inconclusive (degree -4)",
      "jacobi/jacobi-identity: inconclusive (degree -5)",
      "jacobi/normalize-idempotent: FAIL (exact)"]),
])
def test_verify_jacobi_states_the_degree_it_certifies(capsys, argv, want):
    _, out, _ = run(capsys, *argv, "verify", "jacobi")
    assert [line for line in out.splitlines()
            if line.startswith("jacobi/")] == want


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
    return err


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


@pytest.mark.parametrize("doc,message", [
    ({"dim": 1.9, "cutoff": 8}, "dim must be a JSON integer"),
    ({"dim": "1", "cutoff": 8}, "dim must be a JSON integer"),
    ({"dim": True, "cutoff": 8}, "dim must be a JSON integer"),
    ({"dim": 1, "cutoff": 8.7}, "cutoff must be a JSON integer"),
    ({"dim": 1, "cutoff": False}, "cutoff must be a JSON integer"),
    ({"dim": 1, "cutoff": -1}, "cutoff must be at least 0"),
    ({"cutoff": 8}, "no field 'dim'"),
    ({"dim": 1}, "no field 'cutoff'"),
    ({"dim": 1, "cutoff": 2, "changes": {"c": {}}}, "no field 'forward'"),
    ({"dim": 1, "cutoff": 2, "changes": {"c": {"inverse": [{"1": "1"}]}}},
     "no field 'forward'"),
    ({"dim": 1, "cutoff": 2}, "no coordinate changes in"),
])
def test_geometry_field_error_names_the_field(capsys, tmp_path, doc,
                                              message):
    path = _write_json(tmp_path / "bad.json", doc)
    err = _assert_input_error(capsys, "verify", "coordchange", "--change",
                              path)
    assert message in err


def _omega(dim, cutoff):
    """A geometry document holding one constant dim x dim tensor."""
    zero = ",".join("0" * dim)
    rows = [[{zero: "i"} if r == c else {} for c in range(dim)]
            for r in range(dim)]
    return {"dim": dim, "cutoff": cutoff, "tensors": {"omega": rows}}


@pytest.mark.parametrize("tensor,metric,flags", [
    (_omega(1, 8), None, ["--dim", "2"]),
    (_omega(2, 6), None, ["--dim", "2"]),
    (_omega(2, 6), {"dim": 2, "cutoff": 8}, []),
    (_omega(2, 8), {"dim": 2, "cutoff": 6}, []),
])
def test_tensor_file_must_fit_the_metric(capsys, tmp_path, tensor, metric,
                                         flags):
    argv = flags + ["verify", "n2", "--tensor",
                    "omega=" + _write_json(tmp_path / "t.json", tensor)]
    if metric:
        argv += ["--metric", _write_json(tmp_path / "m.json", metric)]
    err = _assert_input_error(capsys, *argv)
    assert "dim %d, cutoff %d" % (tensor["dim"], tensor["cutoff"]) in err


def test_n4_partial_triple_is_an_input_error(capsys, tmp_path):
    path = _write_json(tmp_path / "i.json", {
        "dim": 4, "cutoff": 8, "tensors": {"I": _omega(4, 8)["tensors"][
            "omega"]}})
    err = _assert_input_error(capsys, "--dim", "4", "verify", "n4",
                              "--tensor", "I=" + path)
    assert "missing J, K" in err


@pytest.mark.parametrize("binding,message", [
    ("omega", "--tensor expects name=path"),
    ("omega=", "--tensor expects name=path"),
    ("J={path}", "no tensor 'J' in "),
])
def test_tensor_binding_error_names_the_cause(capsys, tmp_path, binding,
                                              message):
    path = _write_json(tmp_path / "t.json", _omega(2, 8))
    err = _assert_input_error(capsys, "--dim", "2", "verify", "n2",
                              "--tensor", binding.format(path=path))
    assert message in err


def _constant_tensor(entries):
    """A 4 x 4 constant tensor as JSON, from {(row, column): scalar}."""
    return [[{"0,0,0,0": entries[r, c]} if (r, c) in entries else {}
             for c in range(4)] for r in range(4)]


# quaternionic_triple_flat at dim 4: I = diag(i, i, -i, -i), J pairs
# z1 with the conjugate of z2, and K = IJ
_FLAT_TRIPLE = {
    "I": _constant_tensor({(0, 0): "i", (1, 1): "i", (2, 2): "-i",
                           (3, 3): "-i"}),
    "J": _constant_tensor({(0, 3): "1", (1, 2): "-1", (2, 1): "1",
                           (3, 0): "-1"}),
    "K": _constant_tensor({(0, 3): "-i", (1, 2): "i", (2, 1): "i",
                           (3, 0): "-i"}),
}


def test_n4_reads_the_triple_from_geometry_files(capsys, tmp_path):
    want = run(capsys, "--dim", "4", "--cutoff", "4", "verify", "n4",
               "--flat-quaternionic")
    assert want[0] == 0
    path = _write_json(tmp_path / "triple.json",
                       {"dim": 4, "cutoff": 4, "tensors": _FLAT_TRIPLE})
    bindings = []
    for name in "IJK":
        bindings += ["--tensor", "%s=%s" % (name, path)]
    assert run(capsys, "--dim", "4", "--cutoff", "4", "verify", "n4",
               *bindings) == want
    assert run(capsys, "verify", "n4", "--metric", path) == want


def test_n4_fails_on_a_misordered_triple(capsys, tmp_path):
    swapped = dict(_FLAT_TRIPLE, J=_FLAT_TRIPLE["K"], K=_FLAT_TRIPLE["J"])
    path = _write_json(tmp_path / "swapped.json",
                       {"dim": 4, "cutoff": 4, "tensors": swapped})
    rc, out, _ = run(capsys, "verify", "n4", "--metric", path)
    assert rc == 1
    assert out.startswith("n4: FAIL")


def test_n2_reads_omega_from_a_tensor_file(capsys, tmp_path):
    # without a holomorphic split the suite skips its quadratic reports
    quadratic = ("n2/holomorphic-quadratic", "n2/antiholomorphic-quadratic")
    rc, out, err = run(capsys, "--dim", "2", "--cutoff", "4", "verify", "n2")
    lines = out.splitlines(True)
    want = "".join(line for line in lines if not line.startswith(quadratic))
    assert len(want.splitlines()) == len(lines) - 2
    omega = [[{"0,0": "i"}, {}], [{}, {"0,0": "-i"}]]
    path = _write_json(tmp_path / "omega.json", {
        "dim": 2, "cutoff": 4, "tensors": {"omega": omega}})
    assert run(capsys, "--dim", "2", "--cutoff", "4", "verify", "n2",
               "--tensor", "omega=" + path) == (rc, want, err)


@pytest.mark.parametrize("text,key", [
    ('f{"1": "1", "01": "2"}', "'01'"),
    ('f{"a": "1"}', "'a'"),
    ('f{"1": "1", "1,": "2"}', "'1,'"),
    ('f{"1_0": "1"}', "'1_0'"),
])
def test_bad_literal_key_is_an_input_error(capsys, text, key):
    err = _assert_input_error(capsys, "normalize", text)
    assert key in err
    # the position reported is that of the key
    assert "(at position %d:" % text.index(key.replace("'", '"')) in err


@pytest.mark.parametrize("entry,key", [
    ({"0": "1", "00": "5", "2": "1"}, "'00'"),
    ({"a": "1"}, "'a'"),
])
def test_bad_geometry_key_is_an_input_error(capsys, tmp_path, entry, key):
    path = _write_json(tmp_path / "g.json",
                       {"dim": 1, "cutoff": 8, "g": [[entry]]})
    err = _assert_input_error(capsys, "verify", "ns", "--metric", path)
    assert key in err


@pytest.mark.parametrize("value,bad", [
    ("1.5", "1.5"),
    ("1e3", "1e3"),
    ("1_000", "1_000"),
    ("1e-5000", "1e-5000"),
    ("1e3 + i", "1e3"),
    ("2 + 1.5 i", "1.5"),
])
def test_scalar_must_be_an_integer_or_fraction(capsys, tmp_path, value,
                                               bad):
    err = _assert_input_error(capsys, "normalize", 'f{"1": "%s"}' % value)
    assert repr(bad) in err
    path = _write_json(tmp_path / "g.json",
                       {"dim": 1, "cutoff": 2, "g": [[{"0": value}]]})
    err = _assert_input_error(capsys, "verify", "ns", "--metric", path)
    assert repr(bad) in err


@pytest.mark.parametrize("value,want", [
    (" -3 ", "-3"), ("+2/4", "1/2"), ("1/2 * i", "1/2 i"),
])
def test_scalar_keeps_signed_rationals(capsys, value, want):
    rc, out, _ = run(capsys, "normalize", 'f{"1": "%s"}' % value)
    assert rc == 0
    assert out == 'f{"1": "%s"}\n' % want


@pytest.mark.parametrize("text,key", [
    ('{"dim": 1, "cutoff": 8, "g": [[{"0": "1", "0": "5"}]]}', "'0'"),
    ('{"dim": 1, "cutoff": 8, "cutoff": 2}', "'cutoff'"),
    ('{"dim": 1, "cutoff": 8, "changes": {"c": {"forward": [{"1": "1"}],'
     ' "forward": [{"1": "2"}]}}}', "'forward'"),
])
def test_repeated_json_key_is_an_input_error(capsys, tmp_path, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    for argv in (["verify", "ns", "--metric", str(path)],
                 ["verify", "coordchange", "--change", str(path)],
                 ["verify", "n2", "--tensor", "omega=%s" % path]):
        err = _assert_input_error(capsys, *argv)
        assert "repeated key %s" % key in err


# each flag's document, with %s for a nested value, and its run
_NESTED = {
    "--metric": ('"g": %s', ["verify", "ns", "--metric", "{}"]),
    "--tensor": ('"tensors": {"omega": %s}',
                 ["verify", "n2", "--tensor", "omega={}"]),
    "--change": ('"changes": {"c": {"forward": %s}}',
                 ["verify", "coordchange", "--change", "{}"]),
}


def _nested_text(field, depth):
    return '{"dim": 1, "cutoff": 1, %s}' % (
        field % ("[" * depth + "]" * depth))


@pytest.mark.parametrize("depth", [2000, 100000])
@pytest.mark.parametrize("flag", sorted(_NESTED))
def test_deeply_nested_geometry_is_an_input_error(capsys, tmp_path, flag,
                                                  depth):
    field, argv = _NESTED[flag]
    path = tmp_path / "deep.json"
    path.write_text(_nested_text(field, depth))
    err = _assert_input_error(capsys, *[a.format(path) for a in argv])
    assert "%s nests too deeply" % path in err


# -- the exit-code contract -------------------------------------------

def _splice(text, junk, at):
    at %= len(text) + 1
    return text[:at] + junk + text[at:]


def dsl_strings(dim):
    """DSL expressions at the given --dim, mostly well formed; a few
    atoms are bad input (a generator above --dim, a zero denominator,
    a bare x), and some strings are spoilt by one junk token."""
    key = ",".join("1" * dim)
    atoms = ("B1", "Psi1", "B%d" % dim, "Psi%d" % dim, "vac", "i", "3/2",
             'f{"%s": "1/2"}' % key, 'f{"%s": "-2 + i"}' % key,
             "B3", 'f{"%s": "1/0"}' % key, "x")
    expr = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.builds("S({})".format, inner),
            st.builds("T {}".format, inner),
            st.builds(":{} {}:".format, inner, inner),
            st.builds("{} + {}".format, inner, inner),
            st.builds("2 * {}".format, inner)),
        max_leaves=4)
    spoilt = st.builds(_splice, expr,
                       st.sampled_from(("[", "_", "(", ")", ":", "*")),
                       st.integers(0, 60))
    return st.one_of(expr, expr, spoilt)


@st.composite
def cli_argvs(draw):
    """An argv that argparse accepts: a verify suite at a small size,
    the NS suite optionally on the curved line (the --metric value
    'curved', which the test replaces by the file at --cutoff), or an
    expression query."""
    argv = ["--format", draw(st.sampled_from(("text", "json"))),
            "--scalar-ring",
            draw(st.sampled_from(("rational", "gaussian-rational")))]
    cutoff = draw(st.integers(0, 4))
    argv += ["--cutoff", str(cutoff)]
    # verify and ns are drawn twice as often: the reports, and the
    # curved line that ns alone takes, are where exits 1 and 3 come from
    command = draw(st.sampled_from(("verify", "verify", "normalize",
                                    "bracket")))
    if command == "verify":
        suite = draw(st.sampled_from(("ns", "ns", "n2", "n4", "components",
                                      "jacobi")))
        dim = draw(st.integers(1, 2 if suite == "jacobi" else 4))
        argv += ["--dim", str(dim), "verify", suite]
        if suite == "jacobi":
            argv += ["--seed", str(draw(st.integers(0, 3)))]
        if suite == "ns" and draw(st.booleans()):
            argv += ["--metric", "curved"]
        if suite == "ns" and draw(st.booleans()):
            argv.append("--drop-potential")
        return argv
    dim = draw(st.integers(1, 2))
    exprs = [draw(dsl_strings(dim))
             for _ in range(1 if command == "normalize" else 2)]
    if command == "bracket" and draw(st.booleans()):
        exprs = ["[%s _ %s]" % tuple(exprs)]
    return argv + ["--dim", str(dim), command] + exprs


@pytest.fixture(scope="module")
def curved_metrics(tmp_path_factory):
    """The shipped curved line g = 1 + x^2, rewritten at cutoffs 0-4."""
    doc = json.loads((DATA / "metric_1d_curved.json").read_text())
    tmp = tmp_path_factory.mktemp("curved")
    paths = {}
    for cutoff in range(5):
        doc["cutoff"] = cutoff
        paths[cutoff] = _write_json(tmp / ("c%d.json" % cutoff), doc)
    return paths


def _report_words(fmt, out):
    """The lower-cased status word of every report an invocation
    printed."""
    if fmt == "json":
        return [doc["verdict"] for doc in json.loads(out)]
    words = []
    for line in out.splitlines():
        if not line.startswith(" "):
            m = re.match(r"\S+: (pass|FAIL|inconclusive)\b", line)
            assert m, line
            words.append(m.group(1).lower())
    return words


# the curved line at cutoff 2 is certified through degree -1 only, so
# every run sees exit 3 at least once
_CURVED_NS = ["--cutoff", "2", "verify", "ns", "--metric", "curved"]


@settings(max_examples=60, deadline=None)
@given(argv=cli_argvs())
@example(argv=["--format", "text"] + _CURVED_NS)
@example(argv=["--format", "json"] + _CURVED_NS)
def test_exit_code_matches_the_reports(curved_metrics, argv):
    cutoff = int(argv[argv.index("--cutoff") + 1])
    _assert_exit_contract(
        [curved_metrics[cutoff] if a == "curved" else a for a in argv])


def _assert_exit_contract(argv):
    """Exit 2 is one error line; otherwise 1 means a FAIL report, 3 an
    inconclusive one and no FAIL, 0 all pass; nothing raises.  Returns
    the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2, 3)
    if rc == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return rc
    assert err == ""
    if "verify" not in argv:
        assert rc == 0
        return rc
    words = _report_words(argv[argv.index("--format") + 1], out)
    assert words
    if "fail" in words:
        assert rc == 1
    elif "inconclusive" in words:
        assert rc == 3
    else:
        assert rc == 0 and set(words) == {"pass"}
    return rc


def _scdr_process(argv, stdout):
    """Run scdr in a fresh interpreter with the given stdout; returns
    the exit code and stderr."""
    env = dict(os.environ)
    env.pop("SCDR_CUTOFF", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "scdr.cli"] + argv,
                          env=env, stdout=stdout, stderr=subprocess.PIPE)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv,code", [
    (["--dim", "2", "--cutoff", "4", "verify", "ns"], 0),
    (["verify", "ns", "--metric", str(DATA / "metric_1d_curved.json"),
      "--drop-potential"], 1),
    (["verify", "ns", "--metric", "curved-c2"], 3),
    (["bracket", "[B1 _ Psi1]"], 0),
    (["--format", "json", "normalize", "T B1"], 0),
])
def test_a_closed_stdout_changes_only_the_output(tmp_path, argv, code):
    doc = json.loads((DATA / "metric_1d_curved.json").read_text())
    doc["cutoff"] = 2
    curved = _write_json(tmp_path / "curved_c2.json", doc)
    argv = [curved if a == "curved-c2" else a for a in argv]
    assert _scdr_process(argv, subprocess.DEVNULL) == (code, b"")
    # the reader has gone before the start, so the first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert _scdr_process(argv, write_end) == (code, b"")
    finally:
        os.close(write_end)


# -- drawn geometry documents -----------------------------------------

_SCALARS = ("1", "-1", "2", "1/2", "-3/2", "i", "1 - i")


def _key(exps):
    return ",".join(map(str, exps))


def _unit(dim, i, power=1):
    return _key([power if j == i else 0 for j in range(dim)])


@st.composite
def _series(draw, dim, cutoff, least=1):
    """An exponent map of up to two terms of degrees least..cutoff."""
    out = {}
    for _ in range(draw(st.integers(0, 2 if least <= cutoff else 0))):
        exps = [0] * dim
        for _ in range(draw(st.integers(least, cutoff))):
            exps[draw(st.integers(0, dim - 1))] += 1
        out[_key(exps)] = draw(st.sampled_from(_SCALARS))
    return out


# the faults that spoil a drawn document, each of them bad input
_METRIC_FAULTS = ("shape", "scalar", "key", "above-cutoff", "singular",
                  "asymmetric")
_CHANGE_FAULTS = ("constant-term", "singular-linear", "inverse")
_FAULTS = _METRIC_FAULTS + _CHANGE_FAULTS + ("repeated-key", "nesting",
                                             "field")


@st.composite
def geometry_cases(draw):
    """(suite, document text, fault or None): a drawn geometry document
    at dims 1-4 and cutoffs 0-4, valid or spoilt by one fault, and the
    suite that reads it, ns, n2 and n4 through --metric and coordchange
    through --change."""
    dim, cutoff = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    suite = draw(st.sampled_from(("ns", "n2", "n4", "coordchange")))
    fault = draw(st.sampled_from((None,) * 4 + tuple(
        f for f in _FAULTS if dim > 1 or f != "asymmetric")))
    zero = _key([0] * dim)
    doc = {"dim": dim, "cutoff": cutoff}
    g = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            g[i][j] = g[j][i] = draw(_series(dim, cutoff))
        g[i][i][zero] = draw(st.sampled_from(("1", "2", "-1", "i")))
    forward = [dict(draw(_series(dim, cutoff, least=2)),
                    **{_unit(dim, i): "1"}) for i in range(dim)]
    change = {"forward": forward}
    if suite != "coordchange" or fault in _METRIC_FAULTS or draw(
            st.booleans()):
        doc["g"] = g
    if suite == "coordchange" or fault in _CHANGE_FAULTS or draw(
            st.booleans()):
        doc["changes"] = {"c": change}
    if suite == "n2" and draw(st.booleans()):
        doc["tensors"] = {"omega": [
            [{zero: draw(st.sampled_from(_SCALARS + ("0",)))}
             for _ in range(dim)] for _ in range(dim)]}
    if suite == "n4" and dim == 4 and draw(st.booleans()):
        doc["tensors"] = dict(_FLAT_TRIPLE) if cutoff == 4 else {}

    if fault == "shape":
        g.pop()
    elif fault == "scalar":
        g[0][0][zero] = draw(st.sampled_from((1, 1.5, None, ["1"])))
    elif fault == "key":
        g[0][0][draw(st.sampled_from(("a", "-1", _key([0] * (dim + 1)),
                                      zero + ",")))] = "1"
    elif fault == "above-cutoff":
        g[0][0][_unit(dim, 0, cutoff + 1)] = "1"
    elif fault == "singular":
        for i in range(dim):
            g[i][i][zero] = "0"
    elif fault == "asymmetric":
        g[0][1] = dict(g[1][0], **{zero: "1/7"})
    elif fault == "constant-term":
        forward[0][zero] = "1"
    elif fault == "singular-linear":
        del forward[0][_unit(dim, 0)]
    elif fault == "inverse":
        change["inverse"] = [{_unit(dim, i): "2"} for i in range(dim)]
    elif fault == "field":
        doc[draw(st.sampled_from(("dim", "cutoff")))] = draw(
            st.sampled_from(("1", -1, 2.5, True, None)))
    text = json.dumps(doc)
    if fault == "repeated-key":
        text = text[:-1] + ', "cutoff": %d}' % cutoff
    elif fault == "nesting":
        text = _nested_text('"g": %s', 2000)
    return suite, text, fault


@pytest.fixture(scope="module")
def geometry_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(case=geometry_cases(), fmt=st.sampled_from(("text", "json")))
@example(case=("ns", _nested_text('"g": %s', 2000), "nesting"), fmt="text")
def test_drawn_geometry_keeps_the_exit_contract(geometry_path, case, fmt):
    """Every drawn document either runs its suite to reports whose
    statuses match the exit code, or is bad input (exit 2 and one error
    line), as it must be when a fault spoils it; nothing raises."""
    suite, text, fault = case
    geometry_path.write_text(text)
    flag = "--change" if suite == "coordchange" else "--metric"
    rc = _assert_exit_contract(["--format", fmt, "verify", suite, flag,
                                str(geometry_path)])
    if fault is not None:
        assert rc == 2
