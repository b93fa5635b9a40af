"""Metric data, connection symbols, complex structures, coordinate
changes and the JSON geometry loader.

Oracles here stay independent of the engine: long division over
Fraction for the connection series, complex matrix products for the
quaternionic relations.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from scdr.geometry import (CoordinateChange, EndoTensor, MetricData,
                           build_J, build_J_in_new_coordinates,
                           cf_from_json, check_coordinate_change,
                           christoffel, flat_complex_structure, load_geometry,
                           pushforward_endotensor, pushforward_metric,
                           quaternionic_triple_flat)
from scdr.scalars import QI, CoeffFunction
from scdr.superconf import holds
from scdr.terms import nf_sub

DATA = Path(__file__).resolve().parents[1] / "data"


def cf(dim, cutoff, terms):
    return CoeffFunction(dim, cutoff, {k: QI(v) for k, v in terms.items()})


def curved_1d(cutoff=8):
    return MetricData([[cf(1, cutoff, {(0,): 1, (2,): 1})]])


# -- connection -------------------------------------------------------

def _longdiv(num, den, order):
    """One-variable series division over Fraction, coefficients listed
    by degree."""
    num = list(num) + [Fraction(0)] * (order + 1 - len(num))
    den = list(den) + [Fraction(0)] * (order + 1 - len(den))
    out = []
    for k in range(order + 1):
        c = num[k] - sum(out[j] * den[k - j] for j in range(k))
        out.append(c / den[0])
    return out


def test_connection_series_against_long_division():
    # Gamma^1_11 = (1/2) g^11 d g_11 = x / (1 + x^2)
    cutoff = 8
    gamma = christoffel(curved_1d(cutoff))[0][0][0]
    oracle = _longdiv([Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(0), Fraction(1)], cutoff)
    for d in range(cutoff + 1):
        got = gamma.terms.get((d,), QI(0))
        assert got == QI(Fraction(oracle[d])), d
    assert gamma.exact_to == cutoff


def test_flat_connection_vanishes():
    gm = christoffel(MetricData.flat(2, 6))
    assert all(gm[i][j][k].is_zero()
               for i in range(2) for j in range(2) for k in range(2))


def test_pushforward_of_flat_metric_is_the_jacobian_gram_matrix():
    """g~ = Jf^T Jf for the flat metric, with Jf the Jacobian of the
    inverse change; sympy builds the inverse by its own fixed-point
    iteration and differentiates it."""
    sp = pytest.importorskip("sympy")
    cutoff = 8
    fwd = [cf(2, cutoff, {(1, 0): 1, (2, 0): 1, (1, 1): 1}),
           cf(2, cutoff, {(0, 1): 1, (0, 2): -1, (1, 1): 2})]
    pushed = pushforward_metric(CoordinateChange(fwd),
                                MetricData.flat(2, cutoff))
    ys = sp.symbols("y1:3")

    def cut(expr):
        poly = sp.Poly(sp.expand(expr), *ys)
        return sum((c * ys[0] ** e[0] * ys[1] ** e[1]
                    for e, c in poly.terms() if sum(e) <= cutoff),
                   sp.Integer(0))

    # x = f(y) solves y = g(x) = x + h(x): iterate f = y - h(f), one
    # degree per pass
    f = list(ys)
    for _ in range(cutoff):
        f = [cut(ys[0] - f[0] ** 2 - f[0] * f[1]),
             cut(ys[1] + f[1] ** 2 - 2 * f[0] * f[1])]
    jac = sp.Matrix(2, 2, lambda i, k: sp.diff(f[i], ys[k]))
    want = (jac.T * jac).applyfunc(cut)
    for k in range(2):
        for l in range(2):
            got = pushed.g[k][l]
            assert got.exact_to == cutoff - 1
            poly = sp.Poly(want[k, l], *ys)
            oracle = {e: QI(Fraction(int(c.p), int(c.q)))
                      for e, c in poly.terms()
                      if c and sum(e) <= got.exact_to}
            assert {e: c for e, c in got.terms.items()
                    if sum(e) <= got.exact_to} == oracle, (k, l)


# -- metric validation ------------------------------------------------

def test_metric_must_be_square():
    with pytest.raises(ValueError):
        MetricData([[cf(2, 6, {(0, 0): 1})]])


def test_metric_must_be_symmetric():
    z = cf(2, 6, {})
    one = cf(2, 6, {(0, 0): 1})
    x = cf(2, 6, {(1, 0): 1})
    with pytest.raises(ValueError):
        MetricData([[one, x], [z, one]])


def test_metric_must_be_invertible_at_base_point():
    x = cf(1, 6, {(1,): 1})
    with pytest.raises(ValueError):
        MetricData([[x]])


def test_metric_must_not_be_empty():
    with pytest.raises(ValueError):
        MetricData([])


# -- entries carry (dim, cutoff) ---------------------------------------

def _grid(cutoffs, dim=2):
    """A dim x dim matrix of series, the identity at cutoffs[i][j]."""
    return [[cf(dim, c, {(0,) * dim: int(i == j)})
             for j, c in enumerate(row)] for i, row in enumerate(cutoffs)]


def test_geometry_objects_read_dim_and_cutoff_off_their_entries():
    m = MetricData(_grid([[5, 5], [5, 5]]))
    t = EndoTensor(_grid([[5, 5], [5, 5]]))
    ch = CoordinateChange([cf(2, 5, {(1, 0): 1}), cf(2, 5, {(0, 1): 1})])
    assert [(o.dim, o.cutoff) for o in (m, t, ch)] == [(2, 5)] * 3


def test_geometry_objects_reject_mixed_cutoffs():
    mixed = _grid([[6, 6], [6, 5]])
    with pytest.raises(ValueError):
        MetricData(mixed)
    with pytest.raises(ValueError):
        EndoTensor(mixed)
    with pytest.raises(ValueError):
        CoordinateChange([cf(2, 6, {(1, 0): 1}), cf(2, 5, {(0, 1): 1})])
    fwd = [cf(1, 6, {(1,): 1})]
    with pytest.raises(ValueError):
        CoordinateChange(fwd, [cf(1, 5, {(1,): 1})])


def test_geometry_objects_reject_entries_of_another_dim():
    with pytest.raises(ValueError):
        MetricData(_grid([[6]], dim=2))
    with pytest.raises(ValueError):
        EndoTensor(_grid([[6]], dim=2))
    with pytest.raises(ValueError):
        CoordinateChange([cf(2, 6, {(1, 0): 1})])
    with pytest.raises(ValueError):
        CoordinateChange([cf(1, 6, {(1,): 1})], [cf(2, 6, {(1, 0): 1})])


def test_build_j_needs_the_metric_cutoff():
    metric = MetricData.flat(1, 4)
    # a zero tensor reaches no product that could catch the mismatch
    for value in (0, 1):
        with pytest.raises(ValueError, match="the metric has"):
            build_J(EndoTensor([[cf(1, 6, {(0,): value})]]), metric)


def test_determinant_and_potential():
    m = curved_1d(8)
    assert m.det.terms == {(0,): QI(1), (2,): QI(1)}
    # (1/2) log(1 + x^2) = x^2/2 - x^4/4 + x^6/6 - x^8/8
    pot = m.logdet_half
    want = {(2,): QI(Fraction(1, 2)), (4,): QI(Fraction(-1, 4)),
            (6,): QI(Fraction(1, 6)), (8,): QI(Fraction(-1, 8))}
    assert pot.terms == want
    assert pot.exact_to == 8


# -- complex structures ----------------------------------------------

def _const_matrix(t):
    return [[e.constant_term() for e in row] for row in t.omega]


def _cmat(t):
    return [[complex(q.re, q.im) for q in row] for row in _const_matrix(t)]


def _cmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _ceq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _cscale(A, s):
    return [[s * e for e in row] for row in A]


def test_quaternionic_triple_relations():
    n = 1
    I, J, K = quaternionic_triple_flat(n, 6)
    iA, jA, kA = _cmat(I), _cmat(J), _cmat(K)
    minus_id = [[complex(-(i == j)) for j in range(4 * n)]
                for i in range(4 * n)]
    assert _ceq(_cmul(iA, iA), minus_id)
    assert _ceq(_cmul(jA, jA), minus_id)
    assert _ceq(_cmul(kA, kA), minus_id)
    # K = IJ as endomorphism composition is the matrix product J.I in
    # the row convention used here
    assert _ceq(_cmul(jA, iA), kA)
    assert _ceq(_cmul(iA, jA), _cscale(kA, -1))


def test_quaternionic_triple_dim8():
    I, J, K = quaternionic_triple_flat(2, 6)
    assert I.squares_to_minus_id()
    assert J.squares_to_minus_id()
    assert K.squares_to_minus_id()


def test_structures_compatible_with_pairing_metric():
    for n in (1, 2):
        m = MetricData.flat_complexified(n, 6)
        assert flat_complex_structure(n, 6).is_metric_compatible(m)
    m4 = MetricData.flat_complexified(2, 6)
    for t in quaternionic_triple_flat(1, 6):
        assert t.is_metric_compatible(m4)


@pytest.mark.parametrize("metric", [
    MetricData.flat(1, 6), MetricData.flat(4, 6),
    MetricData.flat_complexified(1, 4)])
def test_metric_compatibility_needs_the_metric_dim_and_cutoff(metric):
    # the complex structure has dim 2, cutoff 6
    with pytest.raises(ValueError,
                       match="the tensor has dim 2, cutoff 6; the metric "
                             "has dim %d, cutoff %d" % (metric.dim,
                                                        metric.cutoff)):
        flat_complex_structure(1, 6).is_metric_compatible(metric)


def test_incompatible_tensor_detected():
    m = MetricData.flat_complexified(1, 6)
    doubled = flat_complex_structure(1, 6).scale(QI(2))
    assert not doubled.is_metric_compatible(m)
    assert not doubled.squares_to_minus_id()


# -- coordinate changes -----------------------------------------------

def test_identity_change_fixes_data():
    cutoff = 6
    ident = [cf(2, cutoff, {(1, 0): 1}), cf(2, cutoff, {(0, 1): 1})]
    ch = CoordinateChange(ident)
    m = MetricData.flat(2, cutoff)
    pushed = pushforward_metric(ch, m)
    for i in range(2):
        for j in range(2):
            d = pushed.g[i][j] - m.g[i][j]
            assert d.is_zero_through(d.exact_to)
    w = flat_complex_structure(1, cutoff)
    wp = pushforward_endotensor(ch, w)
    for i in range(2):
        for j in range(2):
            d = wp.omega[i][j] - w.omega[i][j]
            assert d.is_zero_through(d.exact_to)


def test_newton_inverse_agrees_with_supplied_inverse():
    cutoff = 8
    fwd = [cf(1, cutoff, {(1,): 1, (2,): 1})]
    auto = CoordinateChange(fwd)
    comp = auto.inverse[0].compose(fwd)
    d = comp - CoeffFunction.coordinate(1, cutoff, 1)
    assert d.is_zero_through(d.exact_to)
    bad = [cf(1, cutoff, {(1,): 1, (2,): 1})]
    with pytest.raises(ValueError):
        CoordinateChange(fwd, bad)


def test_quadratic_change_keeps_base_brackets():
    cutoff = 8
    fwd = [cf(1, cutoff, {(1,): 1, (2,): 1})]
    rep = check_coordinate_change(CoordinateChange(fwd))
    assert rep.status == "pass"
    assert rep.guaranteed_degree >= cutoff - 3
    assert all(d.endswith("pass") for d in rep.details)


def test_current_is_coordinate_independent():
    curved = load_geometry(DATA / "metric_1d_curved.json").metric
    quad_1d = load_geometry(DATA / "change_quad_1d.json").changes["quadratic"]
    quad_2d = load_geometry(DATA / "change_quad_2d.json").changes["quadratic"]
    one = EndoTensor.constant(1, 8, [[1]])

    def agree(omega, metric, ch, other):
        return holds(nf_sub(build_J_in_new_coordinates(omega, metric, ch),
                            build_J(omega, other)))

    assert agree(one, curved, quad_1d, curved) == (True, 6)
    kaehler = MetricData.flat_complexified(1, 8)
    assert agree(flat_complex_structure(1, 8), kaehler, quad_2d,
                 kaehler) == (True, 6)
    # control: the flat current in new coordinates is not the current
    # of the curved metric
    assert agree(one, MetricData.flat(1, 8), quad_1d, curved) == (False, 6)


def test_change_must_fix_origin():
    cutoff = 6
    fwd = [cf(1, cutoff, {(0,): 1, (1,): 1})]
    with pytest.raises(ValueError):
        CoordinateChange(fwd)


# -- JSON loading -----------------------------------------------------

def test_cf_json_round_trip():
    f = CoeffFunction(2, 6, {(1, 0): QI(2), (0, 3): QI(0, -1),
                             (2, 2): QI(Fraction(1, 2))})
    again = cf_from_json(2, 6, {"1,0": "2", "0,3": "-i", "2,2": "1/2"})
    assert again.terms == f.terms


def test_load_geometry_from_dict():
    data = {
        "dim": 1,
        "cutoff": 8,
        "g": [[{"0": "1", "2": "1"}]],
        "tensors": {"w": [[{"0": "i"}]]},
        "changes": {"quad": {"forward": [{"1": "1", "2": "1"}]}},
    }
    geo = load_geometry(data)
    assert geo.metric.g[0][0].terms == curved_1d().g[0][0].terms
    assert geo.tensors["w"].omega[0][0].constant_term() == QI(0, 1)
    assert "quad" in geo.changes


def test_load_geometry_checks_exponent_arity():
    with pytest.raises(ValueError):
        load_geometry({"dim": 2, "cutoff": 6, "g": [
            [{"0": "1"}, {}], [{}, {"0,0": "1"}]]})


def test_load_geometry_requires_dim_and_cutoff():
    with pytest.raises(KeyError):
        load_geometry({"dim": 1})


def test_load_geometry_shipped_files():
    root = Path(__file__).resolve().parents[1] / "data"
    geo = load_geometry(root / "metric_1d_curved.json")
    assert geo.metric.dim == 1
    assert not geo.metric.is_constant()
    geo2 = load_geometry(root / "change_quad_2d.json")
    assert sorted(geo2.changes) == ["quadratic"]
