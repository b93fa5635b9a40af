"""Lifting polynomial vector fields f(x) d/dx to currents f(B) Psi.

Three independent layers: the engine's super-residue action is a Lie
homomorphism; the brute-force Fock oracle satisfies the same
commutator identity with no engine involvement; a dictionary between
engine states and Fock states intertwines the two actions.
"""

from fractions import Fraction
from math import factorial, inf

import pytest

from fock_oracle import (commutator, fp_add, fp_equal, fp_scale, fp_term,
                         fp_zero, mul_even, mul_odd, vector_field_zero_mode)
from scdr.components import sres_action
from scdr.scalars import QI, CoeffFunction
from scdr.terms import (Algebra, B_KIND, nf_add, nf_mul, nf_neg, nf_scale,
                        nf_sub)

ALG = Algebra(1, 8)

# coefficient lists by degree; all sixteen monomial pairs through x^3
MONOMIALS = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]
FIELDS = MONOMIALS + [[1, 2, 0, 3]]


def poly_cf(coeffs):
    return CoeffFunction(1, 8, {(d,): QI(Fraction(c))
                                for d, c in enumerate(coeffs) if c})


def current(coeffs):
    return nf_mul(ALG.coeff_nf(poly_cf(coeffs)), ALG.Psi(1))


def pmul(f, h):
    out = [Fraction(0)] * (len(f) + len(h) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(h):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def pdiff(f):
    return [Fraction(d) * Fraction(c) for d, c in enumerate(f)][1:]


def lie(f, h):
    a, b = pmul(f, pdiff(h)), pmul(h, pdiff(f))
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- engine side ------------------------------------------------------

@pytest.mark.parametrize("f", MONOMIALS)
@pytest.mark.parametrize("h", MONOMIALS)
def test_super_residue_is_lie_homomorphism(f, h):
    got = sres_action(current(f), current(h))
    want = current(lie(f, h))
    d = nf_sub(got, want)
    assert d.is_zero() and d.exact_to == inf


def test_action_on_component_fields():
    # the action of f d/dx on each generator, written out
    f = [1, 2, 0, 3]
    xf = current(f)
    fc, dfc, ddfc = poly_cf(f), poly_cf(pdiff(f)), poly_cf(pdiff(pdiff(f)))
    x1 = ALG.coordinate(1)

    g = x1 * x1
    assert sres_action(xf, ALG.coeff_nf(g)) == \
        ALG.coeff_nf(fc * g.partial(1))
    assert sres_action(xf, ALG.B(1)) == ALG.coeff_nf(fc)
    assert sres_action(xf, ALG.Psi(1)) == \
        nf_neg(nf_mul(ALG.coeff_nf(dfc), ALG.Psi(1)))
    assert sres_action(xf, ALG.SB(1)) == \
        nf_mul(ALG.coeff_nf(dfc), ALG.SB(1))
    assert sres_action(xf, ALG.TB(1)) == \
        nf_mul(ALG.coeff_nf(dfc), ALG.TB(1))
    # left-nested build: cf times a product reassociates with a T-term,
    # the PBW monomial itself is (cf * SB) * Psi
    quad = nf_mul(nf_mul(ALG.coeff_nf(ddfc), ALG.SB(1)), ALG.Psi(1))
    assert sres_action(xf, ALG.SPsi(1)) == nf_add(
        nf_neg(nf_mul(ALG.coeff_nf(dfc), ALG.SPsi(1))), nf_neg(quad))


# -- Fock oracle side -------------------------------------------------

def _st(*ops):
    # mul_odd multiplies on the left, so fold in reverse to read the
    # argument list as a product
    p = fp_term()
    for slot, var in reversed(ops):
        p = mul_even(p, var) if slot == "e" else mul_odd(p, var)
    return p


ORACLE_STATES = [
    _st(),
    _st(("e", ("B", 1))),
    _st(("e", ("B", 1)), ("e", ("B", 1))),
    _st(("e", ("B", 2))),
    _st(("e", ("A", 1))),
    _st(("o", ("f", 1))),
    _st(("o", ("p", 1))),
    _st(("o", ("f", 1)), ("o", ("p", 1))),
    _st(("e", ("B", 1)), ("e", ("A", 1))),
    _st(("o", ("f", 2)), ("o", ("p", 1))),
    _st(("e", ("A", 2))),
    _st(("e", ("B", 2)), ("e", ("B", 2))),
]


@pytest.mark.parametrize("f", MONOMIALS)
@pytest.mark.parametrize("h", MONOMIALS)
def test_oracle_mode_commutators(f, h):
    rf = vector_field_zero_mode([Fraction(c) for c in f])
    rh = vector_field_zero_mode([Fraction(c) for c in h])
    rc = vector_field_zero_mode(lie(f, h))
    for state in ORACLE_STATES:
        assert fp_equal(commutator(rf, rh, state), rc(state))


def test_oracle_euler_field_fixed_values():
    # x d/dx grades by polynomial degree and charges the fermions
    r = vector_field_zero_mode([Fraction(0), Fraction(1)])
    assert fp_equal(r(_st()), fp_zero())
    b1 = _st(("e", ("B", 1)))
    assert fp_equal(r(b1), b1)
    b2 = _st(("e", ("B", 1)), ("e", ("B", 1)))
    assert fp_equal(r(b2), fp_scale(b2, Fraction(2)))
    phi = _st(("o", ("f", 1)))
    assert fp_equal(r(phi), phi)
    psi = _st(("o", ("p", 1)))
    assert fp_equal(r(psi), fp_scale(psi, Fraction(-1)))


# -- dictionary between the two ---------------------------------------

def _create(p, g):
    """Left-multiply by the creation variable of one derived generator;
    the t-fold T derivative contributes t!."""
    if g.kind == B_KIND and g.s == 0:
        p = mul_even(p, ("B", g.t + 1))
    elif g.kind == B_KIND:
        p = mul_odd(p, ("f", g.t + 1))
    elif g.s == 0:
        p = mul_odd(p, ("p", g.t + 1))
    else:
        p = mul_even(p, ("A", g.t + 1))
    return fp_scale(p, Fraction(factorial(g.t)))


def dict_state(nf):
    """Engine normal form to Fock polynomial.  mul_odd multiplies on
    the left, so a product monomial folds its generators in reverse."""
    out = fp_zero()
    for gens, cf in nf.terms.items():
        for exps, q in cf.terms.items():
            assert not q.im
            p = fp_term(coeff=Fraction(q.re))
            for _ in range(exps[0]):
                p = mul_even(p, ("B", 1))
            for g in reversed(gens):
                p = _create(p, g)
            out = fp_add(out, p)
    return out


def _dict_targets():
    x1 = ALG.coordinate(1)
    return [ALG.coeff_nf(x1 * x1), ALG.B(1), ALG.TB(1), ALG.SB(1),
            ALG.Psi(1), ALG.SPsi(1), nf_mul(ALG.SB(1), ALG.Psi(1))]


@pytest.mark.parametrize("f", FIELDS)
def test_dictionary_intertwines_the_actions(f):
    r = vector_field_zero_mode([Fraction(c) for c in f])
    xf = current(f)
    for target in _dict_targets():
        got = dict_state(sres_action(xf, target))
        want = r(dict_state(target))
        assert fp_equal(got, want)


def test_dictionary_basic_entries():
    assert fp_equal(dict_state(ALG.B(1)), _st(("e", ("B", 1))))
    assert fp_equal(dict_state(ALG.TB(1)), _st(("e", ("B", 2))))
    assert fp_equal(dict_state(ALG.SB(1)), _st(("o", ("f", 1))))
    assert fp_equal(dict_state(ALG.Psi(1)), _st(("o", ("p", 1))))
    assert fp_equal(dict_state(ALG.SPsi(1)), _st(("e", ("A", 1))))
    assert fp_equal(dict_state(ALG.TPsi(1)), _st(("o", ("p", 2))))
    assert fp_equal(dict_state(nf_mul(ALG.SB(1), ALG.Psi(1))),
                    _st(("o", ("f", 1)), ("o", ("p", 1))))
