"""Structure checkers for the three superconformal shapes.

Flat inputs must come out exact (guaranteed_degree inf); curved
inputs carry the jet cutoff through to the report.
"""

from math import inf

import pytest

from scdr.geometry import (MetricData, build_H, build_H0, build_J,
                           flat_complex_structure, quaternionic_triple_flat)
from scdr.scalars import QI, CoeffFunction
from scdr.superconf import check_n2, check_n4, check_ns, check_ns_against
from scdr.suites import run_ns_suite
from scdr.terms import Algebra, nf_add, nf_zero


def curved_metric(cutoff=8):
    g11 = CoeffFunction(1, cutoff, {(0,): QI(1), (2,): QI(1)})
    return MetricData([[g11]])


# -- N=1 --------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flat_ns_charge_is_three_per_field(dim):
    rep = check_ns(build_H0(dim, 6))
    assert rep.status == "pass"
    assert rep.central_charge == QI(3 * dim)
    assert rep.guaranteed_degree == inf
    assert rep.residual is None
    assert rep.residual_rendering() is None


def test_curved_ns_certified_through_degree_four():
    rep = check_ns(build_H(curved_metric()))
    assert rep.status == "pass"
    assert rep.central_charge == QI(3)
    assert rep.guaranteed_degree >= 4


def test_dropping_the_potential_breaks_closure():
    metric = curved_metric()
    rep = check_ns_against(build_H0(1, metric.cutoff), build_H(metric))
    assert rep.status == "FAIL"
    assert rep.residual is not None
    assert isinstance(rep.residual_rendering(), str)


def det_one_metric(cutoff, extra=None):
    """The 2-D metric diag(1 + x, 1 - x + x^2 - x^3 + x^4 ...), whose
    determinant is 1 through degree 4, with the terms extra added to
    g_22."""
    g22 = {(0, 0): QI(1), (1, 0): QI(-1), (2, 0): QI(1), (3, 0): QI(-1),
           (4, 0): QI(1), **(extra or {})}
    zero = CoeffFunction(2, cutoff, {})
    return MetricData([
        [CoeffFunction(2, cutoff, {(0, 0): QI(1), (1, 0): QI(1)}), zero],
        [zero, CoeffFunction(2, cutoff, g22)]])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_a_certified_control_survives_every_extension_of_the_jet():
    # the potential log sqrt(det g) is an empty state with marker 4;
    # T S of it keeps that marker, so the control overclaims
    rep, _ = run_ns_suite(det_one_metric(4), drop_potential=True)
    assert rep.status == "pass" and rep.guaranteed_degree == 4
    degree = rep.guaranteed_degree
    # same 4-jet, one more term: a certificate through degree 4 must
    # leave nothing in the residual through degree 4
    rerun, _ = run_ns_suite(det_one_metric(8, {(5, 0): QI(7)}),
                            drop_potential=True)
    assert rerun.residual is None or rerun.residual.is_zero_through(degree)


def test_ns_candidate_must_be_odd():
    alg = Algebra(1, 6)
    with pytest.raises(ValueError):
        check_ns(alg.B(1))
    with pytest.raises(TypeError):
        check_ns("H")


# -- N=2 --------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_flat_kaehler_n2(n):
    metric = MetricData.flat_complexified(n, 6)
    h = build_H(metric)
    j = build_J(flat_complex_structure(n, 6), metric)
    rep = check_n2(h, j)
    assert rep.status == "pass"
    assert rep.central_charge == QI(6 * n)
    assert rep.guaranteed_degree == inf
    assert len(rep.details) == 3
    assert all("pass" in d for d in rep.details)


def test_n2_rejects_zero_current():
    metric = MetricData.flat_complexified(1, 6)
    h = build_H(metric)
    rep = check_n2(h, nf_zero())
    assert rep.status == "FAIL"


def test_n2_parity_preconditions():
    metric = MetricData.flat_complexified(1, 6)
    h = build_H(metric)
    j = build_J(flat_complex_structure(1, 6), metric)
    with pytest.raises(ValueError):
        check_n2(j, j)
    with pytest.raises(ValueError):
        check_n2(h, h)


def test_scaled_current_fails_n2():
    metric = MetricData.flat_complexified(1, 6)
    h = build_H(metric)
    j = build_J(flat_complex_structure(1, 6).scale(QI(2)), metric)
    rep = check_n2(h, j)
    assert rep.status == "FAIL"


# -- N=4 --------------------------------------------------------------

def quaternionic_currents(n, cutoff=6):
    metric = MetricData.flat_complexified(2 * n, cutoff)
    I, J, K = quaternionic_triple_flat(n, cutoff)
    h = build_H(metric)
    return (h, build_J(I, metric), build_J(J, metric),
            build_J(K.scale(QI(-1)), metric))


def test_flat_quaternionic_n4():
    h, j0, j1, j2 = quaternionic_currents(1)
    rep = check_n4(h, j0, j1, j2)
    assert rep.status == "pass"
    assert rep.central_charge == QI(12)
    assert rep.guaranteed_degree == inf
    assert sum("FAIL" in d for d in rep.details) == 0


def test_swapped_orientation_fails_n4():
    h, j0, j1, j2 = quaternionic_currents(1)
    rep = check_n4(h, j0, j2, j1)
    assert rep.status == "FAIL"
    assert any("FAIL" in d for d in rep.details)


# -- report surface ---------------------------------------------------

def test_report_json_shape():
    rep = check_ns(build_H0(2, 6))
    js = rep.to_json()
    assert set(js) == {"verdict", "central_charge", "guaranteed_degree",
                       "residual_rendering"}
    assert js["verdict"] == "pass"
    assert js["central_charge"] == "6"
    assert js["guaranteed_degree"] is None
    assert js["residual_rendering"] is None


def test_report_text_lines():
    rep = check_ns(build_H0(2, 6), name="ns")
    head = rep.text_lines()[0]
    assert head.startswith("ns: pass")
    assert "c = 6" in head
    assert "exact" in head

    bad = check_ns_against(build_H0(1, 8), build_H(curved_metric()))
    lines = bad.text_lines()
    assert "FAIL" in lines[0]
    assert any(l.strip().startswith("residual:") for l in lines)
