"""Classical component families extracted from the superfield
currents: Virasoro, N=2 and N=4 operator tables on flat space."""

from math import inf

import pytest

from scdr.bracket import lambda_bracket
from scdr.components import (check_n1_components, check_n2_components,
                             check_n4_components, classical_bracket,
                             n1_components, n2_components, sres_action)
from scdr.geometry import (MetricData, build_H, build_H0, build_J,
                           flat_complex_structure, quaternionic_triple_flat)
from scdr.scalars import QI, CoeffFunction
from scdr.terms import Algebra, apply_S, apply_T, nf_scale, nf_sub


def test_classical_bracket_is_chi_linear_part():
    alg = Algebra(1, 6)
    table = classical_bracket(alg.SB(1), alg.Psi(1))
    # [SB_L Psi] = chi, so the classical bracket is the constant 1
    assert lambda_bracket(alg.SB(1), alg.Psi(1)).exact_to() == inf
    assert set(table) == {0}
    assert table[0] == alg.one()


def test_virasoro_family_flat_line():
    rep = check_n1_components(build_H0(1, 6))
    assert rep.status == "pass"
    assert rep.central_charge == QI(3)
    assert rep.guaranteed_degree == inf
    assert [d for d in rep.details if "FAIL" in d] == []
    assert len(rep.details) == 3


def test_virasoro_closure_values_flat_line():
    h = build_H0(1, 6)
    l_state, g = n1_components(h)
    assert l_state == nf_scale(apply_S(h), QI(1) / QI(2))
    table = classical_bracket(l_state, l_state)
    assert lambda_bracket(l_state, l_state).exact_to() == inf
    assert table[0] == apply_T(l_state)
    assert table[1] == nf_scale(l_state, QI(2))
    # central entry c/12 with c = 3
    assert table[3] == nf_scale(Algebra(1, 6).one(), QI(1) / QI(4))
    assert set(table) == {0, 1, 3}

    gg = classical_bracket(g, g)
    assert lambda_bracket(g, g).exact_to() == inf
    assert gg[0] == nf_scale(l_state, QI(2))
    assert gg[2] == Algebra(1, 6).one()
    assert set(gg) == {0, 2}


def test_n2_family_flat_complex_line():
    mc = MetricData.flat_complexified(1, 6)
    h = build_H(mc)
    j = build_J(flat_complex_structure(1, 6), mc)
    rep = check_n2_components(h, j)
    assert rep.status == "pass"
    assert rep.central_charge == QI(6)
    assert rep.guaranteed_degree == inf
    assert [d for d in rep.details if "FAIL" in d] == []


def test_n2_charge_eigenvalues():
    mc = MetricData.flat_complexified(1, 6)
    h = build_H(mc)
    js = build_J(flat_complex_structure(1, 6), mc)
    f = n2_components(h, js)
    plus = classical_bracket(f["J"], f["G+"])
    minus = classical_bracket(f["J"], f["G-"])
    assert plus == {0: f["G+"]}
    assert minus == {0: nf_scale(f["G-"], QI(-1))}


def test_current_super_residue_is_twice_translation():
    alg = Algebra(2, 6)
    h0 = build_H0(2, 6)
    x1 = alg.coordinate(1)
    for x in (alg.B(1), alg.Psi(2), alg.SB(1),
              alg.coeff_nf(x1 * x1), h0):
        assert sres_action(h0, x) == nf_scale(apply_T(x), QI(2))


def test_n4_family_flat_quaternions():
    mc = MetricData.flat_complexified(2, 6)
    I, J, K = quaternionic_triple_flat(1, 6)
    rep = check_n4_components(build_H(mc), build_J(I, mc), build_J(J, mc),
                              build_J(K.scale(QI(-1)), mc))
    assert rep.status == "pass"
    assert rep.central_charge == QI(12)
    assert rep.guaranteed_degree == inf
    assert [d for d in rep.details if "FAIL" in d] == []
    assert len(rep.details) == 32


def test_wrong_current_is_reported():
    alg = Algebra(1, 6)
    rep = check_n1_components(alg.Psi(1))
    assert rep.status == "FAIL"
    assert "superfield NS check: FAIL" in rep.details


def test_inconclusive_superfield_check_leaves_table_inconclusive():
    # at cutoff 2 the curved line is certified through degree -1 only:
    # the superfield check is inconclusive, which is not a failure; the
    # lambda^j chi part that [G_l G] compares holds through degree 0
    g11 = CoeffFunction(1, 2, {(0,): QI(1), (2,): QI(1)})
    rep = check_n1_components(build_H(MetricData([[g11]])))
    assert rep.text_lines() == [
        "components-n1: inconclusive, c = 3 (degree -1)",
        "  [L_l L]: inconclusive",
        "  [L_l G]: inconclusive",
        "  [G_l G]: pass"]
    assert rep.status == "inconclusive"
