"""Certificates that survive every extension of the jet.

A check certified through degree d >= 0 at cutoff c claims that each
identity's difference is known through degree d for every metric with
the given c-jet.  So the same jet, extended by terms of degrees c+1 and
c+2 and checked again at cutoff c+2, must give a difference with the
same terms through degree d.  An exact certificate is skipped: an exact
polynomial input is its own metric, and an extension is another one.

The differences are read part by part, as the checks hand them to
superconf.fold, so a part that fails at one cutoff and another that
fails at the other are never compared with each other.  The same holds
for the random states of the axiom suite: drawn again at cutoff c+2,
they extend the states drawn at cutoff c, and each skew difference and
Jacobi defect is read as the suite hands it to holds.
"""

from math import inf
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import pytest

from scdr import suites, superconf
from scdr.geometry import EndoTensor, MetricData, load_geometry
from scdr.scalars import QI, CoeffFunction, as_qi
from scdr.suites import run_jacobi_suite, run_n2_suite, run_ns_suite
from scdr.terms import HPoly


def fold_parts(run):
    """(reports, [(check name, label, difference)]) of run(), with every
    HPoly difference that a check folds, in the order folded."""
    parts = []
    real = superconf.fold

    def spy(name, items, central_charge=None):
        items = list(items)
        parts.extend((name, label, item) for label, item in items
                     if isinstance(item, HPoly))
        return real(name, items, central_charge=central_charge)

    with mock.patch.object(superconf, "fold", spy):
        reports = run()
    return reports, parts


def low_terms(p, degree):
    """{(key, monomial, exponent): scalar} of the terms of p of total
    degree <= degree."""
    return {(m, gens, e): q for m, nf in p.terms.items()
            for gens, cf in nf.terms.items()
            for e, q in cf.terms.items() if sum(e) <= degree}


def assert_same_through_certified(short, long, exact_too=False):
    """short and long list the same (name, label, difference) parts;
    each difference of short certified through a degree d >= 0 has the
    terms of long's through d.  With exact_too, an exact difference of
    short has the terms of long's through long's own degree."""
    assert [p[:2] for p in short] == [p[:2] for p in long]
    for (name, label, diff), (_, _, ext) in zip(short, long):
        degree = diff.exact_to()
        if degree < 0 or degree == inf and not exact_too:
            continue
        degree = min(degree, ext.exact_to())
        assert low_terms(diff, degree) == low_terms(ext, degree), \
            "%s %s: certified through degree %s" % (name, label, degree)


def assert_survives(check, jet, extension):
    """check(jet) and check(extension) fold the same parts, and each
    keeps its certified terms."""
    assert_same_through_certified(fold_parts(lambda: check(jet))[1],
                                  fold_parts(lambda: check(extension))[1])


def series(dim, cutoff, terms):
    return CoeffFunction(dim, cutoff,
                         {e: as_qi(q) for e, q in terms.items()})


def metric(dim, cutoff, entries):
    """The symmetric metric with the given {(i, j): terms} on and above
    the diagonal, exact at the given cutoff."""
    g = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            g[i][j] = g[j][i] = series(dim, cutoff, entries.get((i, j), {}))
    return MetricData(g)


def monomials(dim, low, high):
    """Exponent tuples of total degree low..high."""
    out = [()]
    for _ in range(dim):
        out = [e + (p,) for e in out for p in range(high + 1)]
    return [e for e in out if low <= sum(e) <= high]


def draw_terms(draw, dim, low, high, size):
    keys = draw(st.lists(st.sampled_from(monomials(dim, low, high)),
                         max_size=size, unique=True))
    return {e: draw(st.integers(-3, 3).filter(bool)) for e in keys}


def det_one_partner(dim, cutoff, u, v):
    """w with u w - v^2 = 1 through the cutoff, as exact terms."""
    one = series(dim, cutoff, {(0,) * dim: 1})
    p = series(dim, cutoff, u) + one.scale(-1)
    inverse, power = one, one
    for _ in range(cutoff):
        power = power * p.scale(-1)
        inverse = inverse + power
    v = series(dim, cutoff, v)
    return (inverse * (one + v * v)).terms


@st.composite
def jets(draw):
    """(kind, dim, cutoff, entries, extension entries): a generic
    metric jet at dim 1 or 2, a determinant-one jet at dim 2, or the
    Kaehler jet g = [[0, h], [h, 0]] at dim 2, keyed (0, 1); cutoffs
    3-5, extension terms of degrees cutoff+1 and cutoff+2."""
    kind = draw(st.sampled_from(["generic", "det-one", "kaehler"]))
    dim = 1 if kind == "generic" and draw(st.booleans()) else 2
    cutoff = draw(st.integers(3, 5))
    one = {(0,) * dim: 1}
    if kind == "kaehler":
        entries = {(0, 1): {**one, **draw_terms(draw, dim, 1, cutoff, 3)}}
    elif kind == "det-one":
        u = {**one, **draw_terms(draw, dim, 1, cutoff, 2)}
        v = draw_terms(draw, dim, 1, cutoff, 1)
        entries = {(0, 0): u, (0, 1): v,
                   (1, 1): det_one_partner(dim, cutoff, u, v)}
    else:
        entries = {(i, j): {**(one if i == j else {}),
                            **draw_terms(draw, dim, 1, cutoff, 2)}
                   for i in range(dim) for j in range(i, dim)}
    extension = {key: draw_terms(draw, dim, cutoff + 1, cutoff + 2, 2)
                 for key in entries}
    return kind, dim, cutoff, entries, extension


def checks(kind, dim):
    """The checks run on a jet of the given kind."""
    if kind == "kaehler":
        def n2(m):
            omega = EndoTensor.constant(dim, m.cutoff, [[QI(0, 1), 0],
                                                        [0, QI(0, -1)]])
            return run_n2_suite(m, omega)
        return [n2]
    return [run_ns_suite, lambda m: run_ns_suite(m, drop_potential=True)]


@settings(max_examples=25, deadline=None)
@given(jets())
@example(("det-one", 2, 4,
          {(0, 0): {(0, 0): 1, (1, 0): 1},
           (1, 1): {(0, 0): 1, (1, 0): -1, (2, 0): 1, (3, 0): -1,
                    (4, 0): 1}},
          {(1, 1): {(5, 0): 7}}))
# data/metric_1d_curved.json: ns certifies degree 5 at cutoff 8, one
# above the floor of cutoff - 4 that perfbench checks
@example(("generic", 1, 8, {(0, 0): {(0,): 1, (2,): 1}},
          {(0, 0): {(9,): -2, (10,): 3}}))
def test_certified_degrees_survive_an_extension_of_the_jet(case):
    kind, dim, cutoff, entries, extension = case
    jet = metric(dim, cutoff, entries)
    longer = metric(dim, cutoff + 2, {
        key: {**terms, **extension.get(key, {})}
        for key, terms in entries.items()})
    for check in checks(kind, dim):
        assert_survives(check, jet, longer)


PINNED = {"dim": 2, "cutoff": 3,
          "g": [[{"0,0": "1"}, {"0,2": "-1"}], [{"0,2": "-1"}, {"0,0": "1"}]]}


def test_a_determinant_one_control_certifies_what_its_extensions_keep():
    # det g = 1 - y^4 is 1 through degree 3, so the potential is a kept
    # zero with marker 3; two derivatives of it leave degree 1, and
    # the control's difference holds only through degree 0
    jet = load_geometry(PINNED).metric
    rep, _ = run_ns_suite(jet, drop_potential=True)
    assert rep.status == "pass" and rep.guaranteed_degree == 0
    for extension in ({}, {"0,4": "5", "1,3": "-2"}):
        doc = {**PINNED, "cutoff": 5,
               "g": [[{"0,0": "1"}, {"0,2": "-1", **extension}],
                     [{"0,2": "-1", **extension}, {"0,0": "1"}]]}
        assert_survives(lambda m: run_ns_suite(m, drop_potential=True),
                        jet, load_geometry(doc).metric)


def held_differences(dim, cutoff, seed):
    """[("jacobi", n, difference)] of every skew difference and Jacobi
    defect that run_jacobi_suite hands to holds, in order."""
    out = []
    real = suites.holds

    def spy(diff):
        out.append(("jacobi", len(out), diff))
        return real(diff)

    with mock.patch.object(suites, "holds", spy):
        run_jacobi_suite(dim, cutoff, seed, triples=4)
    return out


@pytest.mark.parametrize("dim,cutoff,seed", [
    (1, 1, 0), (1, 2, 1), (2, 2, 0), (3, 2, 2)])
def test_axiom_certificates_survive_an_extension_of_the_states(dim, cutoff,
                                                              seed):
    # the suite's low-cutoff invocations of tools/same_output.py.  An
    # exact difference touched no truncated coefficient, and the states
    # drawn at cutoff + 2 extend only truncated ones, so it is checked
    # too
    assert_same_through_certified(held_differences(dim, cutoff, seed),
                                  held_differences(dim, cutoff + 2, seed),
                                  exact_too=True)
