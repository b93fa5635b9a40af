"""The axioms on a basis: the Lambda-bracket is bilinear over Q(i), so
skew symmetry holds on the span of a basis once it holds on every pair,
and Jacobi once it holds on every triple.  Every state here is exact,
so a FAIL inside a certified degree is a fault of the marker rule."""

import itertools

import pytest

from scdr.bracket import jacobi_defect, lambda_bracket, skew
from scdr.scalars import QI, CoeffFunction
from scdr.superconf import holds
from scdr.terms import Algebra, hp_sub, nf_mono, nf_mul

CUTOFF = 4


def dim1_basis(cutoff):
    """The 18 exact states :x^e m: at dim 1, e <= 2, with m the vacuum,
    SB1, Psi1, TB1, SPsi1 or :SB1 Psi1:."""
    alg = Algebra(1, cutoff)
    monos = [alg.one(), alg.SB(1), alg.Psi(1), alg.TB(1), alg.SPsi(1),
             nf_mul(alg.SB(1), alg.Psi(1))]
    out = []
    for e in range(3):
        x_e = nf_mono(CoeffFunction(1, cutoff, {(e,): QI(1)}), ())
        out += [nf_mul(x_e, m) for m in monos]
    return out


@pytest.fixture(scope="module")
def basis():
    states = dim1_basis(CUTOFF)
    assert len(states) == 18
    assert all(s.exact_to == float("inf") and s.parity() is not None
               for s in states)
    return states


def test_skew_symmetry_holds_on_every_pair_of_the_basis(basis):
    bad = [(a, b) for a, b in itertools.product(basis, repeat=2)
           if not holds(hp_sub(lambda_bracket(b, a), skew(
               lambda_bracket(a, b), a.parity(), b.parity())))[0]]
    assert bad == []


def test_jacobi_holds_on_every_triple_of_the_basis(basis):
    bad = [t for t in itertools.product(basis, repeat=3)
           if not holds(jacobi_defect(*t))[0]]
    assert len(bad) == 0, "%d of 5832 triples FAIL" % len(bad)
