"""The benchmark's checkers, at tiny sizes: each accepts a right answer
from the engine and rejects a deliberately wrong one.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import os

import pytest

import scdr
import scdr.cli
from scdr import CoeffFunction, QI

import checks
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
METRIC_1D = os.path.join(ROOT, "data", "metric_1d_curved.json")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = scdr.cli.main(argv)
    return out.getvalue(), code


def test_parse_reports_reads_heads_details_and_degrees():
    text = ("ns: pass, c = 3 (degree 4)\n"
            "  expected 3 x dim = 3\n"
            "n2: FAIL, c = 1/2 - i (exact)\n"
            "  [J_L J] = -(H + (c/3) lambda chi): FAIL\n"
            "  residual: T B1\n")
    r = checks.parse_reports(text)
    assert [x["name"] for x in r] == ["ns", "n2"]
    assert (r[0]["c"], r[0]["degree"]) == ("3", 4)
    assert (r[1]["verdict"], r[1]["c"], r[1]["degree"]) == ("FAIL", "1/2 - i",
                                                          None)
    assert r[0]["details"] == [("expected 3 x dim = 3", None)]
    assert r[1]["details"][0][1] == "FAIL"
    with pytest.raises(ValueError):
        checks.parse_reports("ns passes\n")


def test_flat_accepts_engine_and_rejects_charge_off_by_one():
    text, code = run(["--dim", "2", "--cutoff", "2", "verify", "n2"])
    assert checks.check_flat(text, code, 2) == []
    wrong = text.replace("c = 6", "c = 7", 1)
    assert any("c = 7" in p for p in checks.check_flat(wrong, code, 2))
    # the dimension the charge is checked against matters too
    assert checks.check_flat(text, code, 3)


def test_flat_rejects_a_certified_degree_and_a_failed_detail():
    text, code = run(["--dim", "1", "--cutoff", "2", "verify", "ns"])
    assert checks.check_flat(text, code, 1) == []
    assert checks.check_flat(text.replace("(exact)", "(degree 5)", 1),
                             code, 1)
    assert checks.check_flat("n4: pass, c = 12 (exact)\n  pair: FAIL\n",
                             0, 4)


def test_curved_ns_floor():
    text, code = run(["verify", "ns", "--metric",
                      METRIC_1D])
    assert checks.check_curved_ns(text, code, 1, 8) == []
    # certified through 4 at cutoff 8; a floor of cutoff - 4 = 5 fails
    assert any("below the floor" in p
               for p in checks.check_curved_ns(text, code, 1, 9))
    assert checks.check_curved_ns(text.replace("c = 3", "c = 4", 1), code,
                                  1, 8)


def test_coordchange_floor_and_details():
    good = ("coordchange/q: pass (degree 9)\n"
            "  [B~1_L B~1] = 0: pass\n  S B~1 chain rule: pass\n")
    assert checks.check_coordchange(good, 0, 12) == []
    assert checks.check_coordchange(good.replace("degree 9", "degree 8"),
                                    0, 12)
    assert checks.check_coordchange(
        good.replace("chain rule: pass", "chain rule: FAIL"), 0, 12)
    assert checks.check_coordchange("coordchange/q: pass (degree 9)\n",
                                    0, 12)


def test_control_that_passes_is_rejected():
    argv = ["verify", "ns", "--metric", METRIC_1D,
            "--drop-potential"]
    text, code = run(argv)
    assert code == 1
    assert checks.check_control(text, code, "ns") == []
    passing = text.replace("ns: FAIL", "ns: pass", 1)
    assert checks.check_control(passing, 0, "ns")
    assert checks.check_control(passing, 1, "ns")


def test_vacuous_control_counts_until_it_stops_passing():
    assert checks.vacuous_passes("ns: pass, c = 9 (degree -1)\n", 0)
    assert checks.vacuous_passes("ns: pass, c = 9 (degree -1)\n", 1)
    assert not checks.vacuous_passes("ns: FAIL, c = 9 (degree -1)\n", 1)
    assert not checks.vacuous_passes(
        "ns: inconclusive, c = 9 (degree -1)\n", 3)
    assert not checks.vacuous_passes("", 2)


def test_nonzero_jacobi_defect_is_rejected():
    alg = scdr.Algebra(1, 2)
    b, psi = alg.B(1), alg.Psi(1)
    assert checks.check_bracket_zero(scdr.jacobi_defect(b, psi, b)) == []
    # [B1_L Psi1] = 1 is no defect of anything
    assert checks.check_bracket_zero(scdr.lambda_bracket(b, psi))


def test_skew_comparison_rejects_a_wrong_image():
    alg = scdr.Algebra(1, 2)
    a = alg.normalize(scdr.parse_expression("S(B1)", 1, 2))
    b = alg.Psi(1)
    left = scdr.lambda_bracket(b, a)
    right = scdr.skew(scdr.lambda_bracket(a, b), 1, 1)
    assert checks.check_equal_through(left, right) == []
    # [B1_L Psi1] = 1, not chi
    assert checks.check_equal_through(left, scdr.lambda_bracket(alg.B(1), b))


def test_round_trip_that_changes_the_state_is_rejected():
    alg = scdr.Algebra(2, 4)
    s = alg.normalize(scdr.parse_expression(':f{"1,0": "2"} Psi1 S(B2):',
                                            2, 4))
    back = alg.normalize(scdr.parse_expression(scdr.render_nf(s), 2, 4))
    assert checks.check_round_trip(s, back) == []
    assert checks.check_round_trip(s, alg.Psi(1))


def test_drawn_states_are_homogeneous_nonzero_and_seeded():
    alg = scdr.Algebra(inputs.AXIOM_DIM, inputs.AXIOM_CUTOFF)
    pairs, triples = inputs.axiom_inputs(3, pairs=6, triples=4)
    assert (pairs, triples) == inputs.axiom_inputs(3, pairs=6, triples=4)
    other = inputs.axiom_inputs(4, pairs=6, triples=4)
    assert other != (pairs, triples)
    for group in pairs + triples:
        for text, parity in group:
            s = alg.normalize(scdr.parse_expression(
                text, inputs.AXIOM_DIM, inputs.AXIOM_CUTOFF))
            assert checks.check_state(s, parity) == []
    s = alg.Psi(1)
    assert checks.check_state(s, 0)
    assert checks.check_state(alg.zero(), 0)


def test_jets_inputs_are_seeded_and_loadable(tmp_path):
    paths = inputs.write_jets(1, ROOT, str(tmp_path))
    again = inputs.jets_geometry(1, ROOT)
    assert again == inputs.jets_geometry(1, ROOT)
    jets = inputs.jets_checks(paths)
    assert len(jets) == 9
    for stem, path in paths.items():
        geo = scdr.load_geometry(path)
        assert geo.metric.dim == again[stem]["dim"]
    # the command line states the cutoff of the file it names
    by_path = {path: again[stem]["cutoff"] for stem, path in paths.items()}
    for c in jets:
        given = int(c["argv"][c["argv"].index("--cutoff") + 1])
        named = [by_path[a] for a in c["argv"] if a in by_path]
        assert named == [given] == [c["cutoff"]]


class _Change:
    def __init__(self, forward, inverse):
        self.dim, self.cutoff = forward[0].dim, forward[0].cutoff
        self.forward, self.inverse = forward, inverse


def test_sympy_inverse_check_accepts_newton_and_rejects_a_wrong_inverse():
    pytest.importorskip("sympy")
    import oracle

    geo = scdr.load_geometry({"dim": 1, "cutoff": 5, "changes": {
        "q": {"forward": [{"1": "1", "2": "1"}]}}})
    ch = geo.changes["q"]
    comps, degree = oracle.inverse_compositions(ch)
    assert degree == 5
    assert checks.check_inverse_identity(comps, degree, 5) == []
    inv = ch.inverse[0]
    terms = dict(inv.terms)
    terms[(3,)] = terms[(3,)] + QI(1)
    off = CoeffFunction(1, 5, terms, inv.exact_to)
    comps, degree = oracle.inverse_compositions(_Change(ch.forward, [off]))
    assert checks.check_inverse_identity(comps, degree, 5)
    # a certificate below cutoff - 3 is rejected whatever it says
    assert checks.check_inverse_identity([{(1,): 1}], 1, 5)


def test_tracer_counts_repeat_and_uninstall_restores():
    import tracer

    original = scdr.lambda_bracket
    layers = tracer.Tracer()
    alg = scdr.Algebra(1, 2)
    layers.install()
    try:
        counts = []
        for _ in range(2):
            scdr.terms.clear_caches()
            layers.reset()
            scdr.lambda_bracket(alg.SB(1), alg.Psi(1))
            m = layers.metrics()
            counts.append({k: v for k, (v, u) in m.items() if u == "count"})
    finally:
        layers.uninstall()
    assert scdr.lambda_bracket is original
    assert counts[0] == counts[1]
    assert counts[0]["bracket.lambda_bracket.calls"] == 1
    assert counts[0]["bracket.bracket_mono.calls"] >= 1
    assert layers.missing() == []


def test_speed_scale_turns_probe_times_into_reference_seconds():
    import run

    assert run.speed_probe() > 0
    ref = run.SPEED_REF_S
    assert run.speed_scale([ref, 3 * ref, ref]) == 1.0
    # a machine at half speed doubles both the probe and the check
    assert 2.0 * run.speed_scale([2 * ref]) == 1.0
