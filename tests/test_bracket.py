"""Bracket laws: the base pairing, derivative shifts, skew symmetry,
the Wick expansion, Jacobi, and closure of the superconformal current.

Sign conventions exercised here: chi^2 = -lambda, [Ta_b] = -lambda[a_b],
[Sa_b] = chi[a_b], [a_Tb] = (lambda+T)[a_b], [a_Sb] = -(-1)^p(a)
(S+chi)[a_b].
"""

import random
from math import comb, inf

import pytest
from hypothesis import example, given, settings, strategies as st

import scdr.bracket
from scdr import terms
from scdr.bracket import jacobi_defect, lambda_bracket, skew
from scdr.suites import random_state
from scdr.geometry import MetricData, build_H, build_H0
from scdr.scalars import QI, CoeffFunction, hmono_mul, hmono_parity
from scdr.terms import (B_KIND, PSI_KIND, Algebra, Generator, HPoly,
                        NormalForm, apply_S, apply_T, gens_parity,
                        hp_combine, hp_sub, hp_zero,
                        mono_from_factors, nf_add, nf_mono, nf_mul, nf_scale)
from test_terms import (SCALARS, factor_pool, normal_order, scaled,
                        scaled_pairs, times)

ONE = (0, 0, 0, 0)
LAM = (1, 0, 0, 0)
CHI = (0, 1, 0, 0)
LAM2 = (2, 0, 0, 0)
LAMCHI = (1, 1, 0, 0)
LAM2CHI = (2, 1, 0, 0)


def hp(alg, items):
    return hp_combine([(m, 1, nf) for m, nf in items])


def assert_hp_zero(p):
    # every key's state is zero, kept-zero keys included
    assert all(nf.is_zero() for nf in p.terms.values()), "nonzero: %r" % (p,)


# -- step-by-step references ------------------------------------------
#
# The sesquilinearity rules and skew-symmetry as Lambda-polynomial
# operators, applied one derivation at a time.  The engine computes the
# atomic bracket and skew in closed form; these references share none
# of that code.

def hp_mul_mono(p, mono, extraction_parity=True):
    """Left-multiply every key by mono.  When extraction_parity is set
    the odd-slot rule applies: pulling an odd monomial out of a bracket
    slot costs a sign per odd variable."""
    flip = -1 if extraction_parity and hmono_parity(mono) else 1
    triples = []
    for m, nf in p.terms.items():
        sign, prod = hmono_mul(mono, m)
        triples.append((prod, QI(1) if sign == flip else QI(-1), nf))
    return hp_combine(triples)


def hp_add(a, b):
    return hp_combine(a.triples() + b.triples())


def hp_neg(p):
    return hp_scale(p, QI(-1))


def hp_scale(p, q):
    return hp_combine(p.triples(q))


def hp_mul_lambda(p):
    return hp_mul_mono(p, LAM, extraction_parity=False)


def hp_op_T(p):
    return HPoly({m: apply_T(nf) for m, nf in p.terms.items()})


def hp_op_S(p):
    """S passes the even variables, satisfies S chi = 2 lambda - chi S,
    anticommutes with eta, and acts on the coefficient state."""
    triples = []
    for (j, J, k, K), nf in p.terms.items():
        triples.append(((j, J, k, K), QI(-1) if (J + K) & 1 else QI(1),
                        apply_S(nf)))
        if J:
            triples.append(((j + 1, 0, k, K), QI(2), nf))
    return hp_combine(triples)


def hp_op_lambda_plus_T(p, repeat=1):
    for _ in range(repeat):
        p = hp_add(hp_mul_lambda(p), hp_op_T(p))
    return p


def hp_op_chi_plus_S(p):
    return hp_add(hp_mul_mono(p, CHI, extraction_parity=False), hp_op_S(p))


def stepwise_atomic(alg, m1, m2):
    """[m1_Lambda m2] for a left monomial (c, (T^t S^s X,)) or (c, ())
    with c constant, and a right one that is a pure coefficient or
    (c', (T^u S^v Y,)) with c' constant: [T a_L b] = -lambda [a_L b],
    [S a_L b] = chi [a_L b], [a_L T b] = (lambda + T) [a_L b] and
    [a_L S b] = -(-1)^{p(a)} (S + chi) [a_L b], one at a time."""
    (f1, g1), (f2, g2) = m1, m2
    if not g1:
        return hp_zero()
    x = g1[0]
    if not g2:
        p = hp_zero()
        if x.kind == PSI_KIND:
            p = HPoly({ONE: nf_mono(f2.partial(x.index), ())})
    else:
        y = g2[0]
        p = hp_zero()
        if x.kind != y.kind and x.index == y.index:
            p = HPoly({ONE: alg.one()})
        if y.s:
            p = hp_op_chi_plus_S(p)
            if x.kind == B_KIND:
                p = hp_neg(p)
        p = hp_scale(hp_op_lambda_plus_T(p, repeat=y.t), f2.constant_term())
    if x.s:
        p = hp_mul_mono(p, CHI, extraction_parity=False)
    for _ in range(x.t):
        p = hp_neg(hp_mul_lambda(p))
    return hp_scale(p, f1.constant_term())


def stepwise_skew(p, parity_a, parity_b):
    """[b_Lambda a] from p = [a_Lambda b]: lambda^k chi^K (x) c goes to
    (-1)^{k+K+p(a)p(b)} (lambda+T)^k (chi+S)^K c."""
    triples = []
    for (k, K, _, _), nf in p.terms.items():
        q = HPoly({ONE: nf})
        if K:
            q = hp_op_chi_plus_S(q)
        q = hp_op_lambda_plus_T(q, repeat=k)
        triples += q.triples(QI(-1) if (k + K + parity_a * parity_b) & 1
                             else QI(1))
    return hp_combine(triples)


def split_truncated(nf):
    """[state] for a one-term state whose coefficient is exact; for a
    truncated constant c, its exact part and c's marker on a kept zero,
    which is a function of every variable."""
    (gens, cf), = nf.terms.items()
    if cf.exact_to == inf or not cf.is_constant():
        return [nf]
    exact = CoeffFunction(cf.dim, cf.cutoff, cf.terms)
    kept = CoeffFunction(cf.dim, cf.cutoff, {}, cf.exact_to)
    return [nf_mono(exact, gens), nf_mono(kept, gens)]


def stepwise_bracket(alg, a, b):
    """lambda_bracket of two one-term states, each a constant times at
    most one derived generator or a pure coefficient; a non-constant
    coefficient on the left flips by skew-symmetry.  A truncated
    constant splits by bilinearity into an exact constant and a kept
    zero; a monomial :z x: with z a kept zero brackets by the Wick step
    on the right, and by skew-symmetry on the left."""
    parts = []
    for a_part in split_truncated(a):
        for b_part in split_truncated(b):
            (g1, f1), = a_part.terms.items()
            (g2, f2), = b_part.terms.items()
            one = CoeffFunction.constant(f1.dim, f1.cutoff, 1)
            if g2 and not f2.terms:
                p = stepwise_wick(a_part, nf_mono(f2, ()), nf_mono(one, g2))
            elif g1 and not f1.terms:
                p = stepwise_skew(stepwise_wick(b_part, nf_mono(f1, ()),
                                                nf_mono(one, g1)),
                                  gens_parity(g1), gens_parity(g2))
            elif g1 or f1.is_constant():
                p = stepwise_atomic(alg, (f1, g1), (f2, g2))
            else:
                p = stepwise_skew(stepwise_atomic(alg, (f2, g2), (f1, g1)),
                                  gens_parity(g2), 0)
            parts += p.triples()
    return hp_combine(parts)


# The Gamma-pair stages of the Wick integral and of the Jacobi defect:
# rename a bracket value into the Gamma pair, multiply by the outer key,
# substitute Gamma + Lambda and integrate, each stage a full sum.  The
# engine computes both in closed form; these references share none of
# that code.

def hp_reindex_to_gamma(p):
    """Rename the Lambda pair into the Gamma pair; the poly must not
    use the Gamma pair yet."""
    out = {}
    for (j, J, k, K), nf in p.terms.items():
        assert not (k or K)
        out[(0, 0, j, J)] = nf
    return HPoly(out)


def hp_subst_gamma_plus_lambda(p):
    """Substitute gamma -> gamma + lambda, eta -> eta + chi."""
    triples = []
    for (j, J, k, K), nf in p.terms.items():
        # (eta + chi) expands into two words
        odd = ((0, 0, 0, 1), (0, 1, 0, 0)) if K else (ONE,)
        for i in range(k + 1):
            for w in odd:
                sign, mono = hmono_mul((j + i, J, k - i, 0), w)
                triples.append((mono, QI(sign * comb(k, i)), nf))
    return hp_combine(triples)


def hp_integrate_wick(p):
    """Integrate the Gamma pair over the segment from 0 to Lambda.

    Keys with no eta die; for the others eta is removed (a sign for
    passing chi) and gamma^k becomes lambda^{k+1}/(k+1)."""
    return hp_combine([
        ((j + k + 1, J, 0, 0), QI(-1 if J else 1) / QI(k + 1), nf)
        for (j, J, k, K), nf in p.terms.items() if K])


def bracket_into(x, px, p, to_gamma):
    """The bracket of x with a bracket value p = sum m (x) d: each
    [x_ d] times m, with a sign when m is odd and x even.  The brackets
    [x_ d] stay in the Lambda pair, or move to Gamma when to_gamma is
    set."""
    triples = []
    for m, d_nf in p.terms.items():
        q = lambda_bracket(x, d_nf)
        if to_gamma:
            q = hp_reindex_to_gamma(q)
        q = hp_mul_mono(q, m, extraction_parity=False)
        triples += q.triples(QI(-1) if hmono_parity(m) and not px & 1
                             else QI(1))
    return hp_combine(triples)


def hp_nf_mul_left(p, b, b_parity):
    """Multiply every coefficient state on the left by the homogeneous
    state b; b passes the odd chi variables with the Koszul sign."""
    return hp_combine([
        (m, QI(-1) if b_parity and hmono_parity(m) else QI(1), nf_mul(b, nf))
        for m, nf in p.terms.items()])


def stepwise_wick_tail(ab, ac, pa, b, pb, c):
    """The Wick terms of [a_L :b c:] after [a_L b] c, from ab = [a_L b]
    and ac = [a_L c]: (-1)^{(p(a)+1) p(b)} b [a_L c] plus the integral
    of [[a_L b]_Gamma c] from 0 to Lambda."""
    t2 = hp_nf_mul_left(ac, b, pb)
    t3 = []
    for m, d_nf in ab.terms.items():
        inner = lambda_bracket(d_nf, c)
        if inner.terms:
            t3 += hp_mul_mono(hp_reindex_to_gamma(inner), m,
                              extraction_parity=True).triples()
    t3 = hp_integrate_wick(hp_combine(t3))
    return hp_combine(t2.triples(QI(-1) if ((pa + 1) * pb) & 1 else QI(1))
                      + t3.triples())


def stepwise_wick(a, b, c):
    """[a_L :b c:] assembled from the three Wick terms: [a_L b] c, then
    the stepwise tail."""
    ab = lambda_bracket(a, b)
    head = HPoly({m: nf_mul(nf, c) for m, nf in ab.terms.items()})
    return hp_add(head, stepwise_wick_tail(ab, lambda_bracket(a, c),
                                           a.parity(), b, b.parity(), c))


def reference_wick(a, b, c_gen):
    """[a_L b c] for monomials a, b and a generator c as the Wick step
    once built it: [a_L b] c as an HPoly, added to the engine's tail."""
    one = terms.unit_cf(a[0].dim, a[0].cutoff)
    ab = scdr.bracket.bracket_mono(a, b)
    ac = scdr.bracket.bracket_mono(a, (one, (c_gen,)))
    t1 = HPoly({m: terms.nf_apply_gen(nf, c_gen)
                for m, nf in ab.terms.items()})
    return hp_add(t1, scdr.bracket._wick_tail(
        ab, ac, gens_parity(a[1]), nf_mono(*b), gens_parity(b[1]),
        nf_mono(one, (c_gen,))))


def stepwise_jacobi_defect(a, b, c):
    """[a_L [b_G c]] + (-1)^{p(a)} [[a_L b]_{G+L} c]
    - (-1)^{(p(a)+1)(p(b)+1)} [b_G [a_L c]], one stage at a time."""
    pa, pb = a.parity(), b.parity()
    x1 = bracket_into(a, pa, hp_reindex_to_gamma(lambda_bracket(b, c)),
                      False)
    x2 = []
    for m, d_nf in lambda_bracket(a, b).terms.items():
        q = hp_subst_gamma_plus_lambda(
            hp_reindex_to_gamma(lambda_bracket(d_nf, c)))
        x2 += hp_mul_mono(q, m, extraction_parity=True).triples()
    x2 = hp_combine(x2)
    x3 = bracket_into(b, pb, lambda_bracket(a, c), True)
    return hp_combine(x1.triples()
                      + x2.triples(QI(-1) if pa & 1 else QI(1))
                      + x3.triples(QI(1) if (pa + 1) * (pb + 1) & 1
                                   else QI(-1)))


# -- base pairing -----------------------------------------------------

def test_base_pairing_dim2():
    alg = Algebra(2, 6)
    one = hp(alg, [(ONE, alg.one())])
    assert lambda_bracket(alg.B(1), alg.Psi(1)) == one
    assert lambda_bracket(alg.Psi(1), alg.B(1)) == one
    assert lambda_bracket(alg.B(2), alg.Psi(2)) == one


def test_base_pairing_cross_terms_vanish():
    alg = Algebra(2, 6)
    assert_hp_zero(lambda_bracket(alg.B(1), alg.Psi(2)))
    assert_hp_zero(lambda_bracket(alg.Psi(2), alg.B(1)))
    assert_hp_zero(lambda_bracket(alg.B(1), alg.B(1)))
    assert_hp_zero(lambda_bracket(alg.B(1), alg.B(2)))
    assert_hp_zero(lambda_bracket(alg.Psi(1), alg.Psi(1)))
    assert_hp_zero(lambda_bracket(alg.Psi(1), alg.Psi(2)))


def test_momentum_field_differentiates_functions():
    alg = Algebra(2, 6)
    x1, x2 = alg.coordinate(1), alg.coordinate(2)
    f = alg.coeff_nf(x1 * x1 * x2)
    d1 = hp(alg, [(ONE, alg.coeff_nf((x1 * x2).scale(QI(2))))])
    d2 = hp(alg, [(ONE, alg.coeff_nf(x1 * x1))])
    assert lambda_bracket(alg.Psi(1), f) == d1
    assert lambda_bracket(f, alg.Psi(1)) == d1
    assert lambda_bracket(alg.Psi(2), f) == d2
    assert_hp_zero(lambda_bracket(alg.B(1), f))
    assert_hp_zero(lambda_bracket(f, alg.B(1)))


def test_functions_commute():
    alg = Algebra(2, 6)
    x1, x2 = alg.coordinate(1), alg.coordinate(2)
    f = alg.coeff_nf(x1 * x2 + x1)
    g = alg.coeff_nf(x2 * x2)
    assert_hp_zero(lambda_bracket(f, g))
    assert_hp_zero(lambda_bracket(f, f))


# -- derivative shifts on the base pairing ----------------------------

def test_derived_generator_values():
    alg = Algebra(1, 6)
    B, Psi = alg.B(1), alg.Psi(1)
    SB, SPsi, TB = alg.SB(1), alg.SPsi(1), alg.TB(1)
    one = alg.one()
    assert lambda_bracket(SB, Psi) == hp(alg, [(CHI, one)])
    assert lambda_bracket(TB, Psi) == hp(alg, [(LAM, nf_scale(one, -1))])
    assert lambda_bracket(B, SPsi) == hp(alg, [(CHI, nf_scale(one, -1))])
    assert lambda_bracket(SPsi, B) == hp(alg, [(CHI, one)])
    assert lambda_bracket(Psi, TB) == hp(alg, [(LAM, one)])
    assert lambda_bracket(Psi, SB) == hp(alg, [(CHI, one)])
    # chi.chi = -lambda collapses the double shift
    assert lambda_bracket(SB, SPsi) == hp(alg, [(LAM, one)])
    assert lambda_bracket(TB, SPsi) == hp(alg, [(LAMCHI, one)])


def test_odd_translation_squares_to_even():
    alg = Algebra(1, 6)
    ssb = apply_S(apply_S(alg.B(1)))
    assert lambda_bracket(ssb, alg.Psi(1)) == \
        lambda_bracket(alg.TB(1), alg.Psi(1))


# -- the atomic table against the step-by-step references ------------

TABLE_CUTOFF = 4
TABLE_SCALARS = [QI(1), QI(-1), QI(2), QI(0, 1),
                 QI(1, 0) / QI(2) - QI(0, 1) / QI(3), None]


def _table_coeff(dim, c):
    """The constant c, or for None the constant 1 known only through
    degree 3."""
    if c is None:
        return CoeffFunction(dim, TABLE_CUTOFF, {(0,) * dim: 1}, exact_to=3)
    return CoeffFunction.constant(dim, TABLE_CUTOFF, c)


def _table_states(dim, kind, index):
    """c T^t S^s X for X = B^index or Psi^index, t in 0..2, s in {0, 1}
    and every table scalar c; an underived B is c x_index."""
    out = []
    for t in range(3):
        for s in range(2):
            g = Generator(kind, index, t, s)
            for c in TABLE_SCALARS:
                cf = _table_coeff(dim, c)
                if g.is_coordinate():
                    out.append(nf_mono(cf * CoeffFunction.coordinate(
                        dim, TABLE_CUTOFF, index), ()))
                else:
                    out.append(nf_mono(cf, (g,)))
    return out


@pytest.mark.parametrize("dim,i,j", [(1, 1, 1), (2, 2, 2), (2, 1, 2)])
@pytest.mark.parametrize("x_kind", [B_KIND, PSI_KIND])
@pytest.mark.parametrize("y_kind", [B_KIND, PSI_KIND])
def test_atomic_table_matches_stepwise(dim, i, j, x_kind, y_kind):
    alg = Algebra(dim, TABLE_CUTOFF)
    rights = _table_states(dim, y_kind, j)
    for a in _table_states(dim, x_kind, i):
        for b in rights:
            assert lambda_bracket(a, b) == stepwise_bracket(alg, a, b), \
                (a, b)


def _table_functions(dim):
    x = [CoeffFunction.coordinate(dim, TABLE_CUTOFF, k)
         for k in range(1, dim + 1)]
    f = (x[0] * x[-1]).scale(QI(3)) + x[-1].scale(QI(0, -1)) \
        + x[0] * x[0] * x[0]
    truncated = CoeffFunction(dim, TABLE_CUTOFF, f.terms, exact_to=3)
    return [f, truncated, x[-1] * x[-1]]


@pytest.mark.parametrize("dim,i", [(1, 1), (2, 1), (2, 2)])
def test_atomic_table_against_coefficients(dim, i):
    alg = Algebra(dim, TABLE_CUTOFF)
    for a in _table_states(dim, PSI_KIND, i):
        for f in _table_functions(dim):
            b = alg.coeff_nf(f)
            assert lambda_bracket(a, b) == stepwise_bracket(alg, a, b)
            assert lambda_bracket(b, a) == stepwise_bracket(alg, b, a)


def _skew_cases():
    """Bracket values with their argument parities: random states at
    dims 1 and 2, the same times a truncated coefficient, and the
    curved current against itself and its potential."""
    rng = random.Random(11)
    cases = []
    for dim, cutoff in ((1, 3), (2, 4)):
        alg = Algebra(dim, cutoff)
        trunc = alg.coeff_nf(CoeffFunction(
            dim, cutoff, {(0,) * dim: 1, (1,) + (0,) * (dim - 1): 2},
            exact_to=cutoff - 1))
        for n in range(12):
            a = random_state(rng, alg, rng.randrange(2))
            b = random_state(rng, alg, rng.randrange(2))
            if n % 2:
                b = nf_mul(trunc, b)
            cases.append((lambda_bracket(a, b), a.parity(), b.parity()))
    alg, metric = _curved_setup()
    h = build_H(metric)
    pot = alg.coeff_nf(metric.logdet_half)
    tsp = apply_T(apply_S(pot))
    cases += [(lambda_bracket(h, h), 1, 1), (lambda_bracket(h, tsp), 1, 1),
              (lambda_bracket(tsp, h), 1, 1), (lambda_bracket(h, pot), 1, 0)]
    # T kills the constant at lambda before lambda^2 opens the key 1
    cases.append((HPoly({LAM: alg.one(), LAM2: alg.TB(1)}), 0, 0))
    return cases


def test_skew_matches_stepwise():
    for p, pa, pb in _skew_cases():
        got, want = skew(p, pa, pb), stepwise_skew(p, pa, pb)
        assert got == want
        # and the keys open in the same order
        assert list(got.terms) == list(want.terms)


# -- sesquilinearity on random states ---------------------------------

def _random_pairs(count, dim, cutoff, seed):
    rng = random.Random(seed)
    alg = Algebra(dim, cutoff)
    out = []
    while len(out) < count:
        a = random_state(rng, alg, rng.randrange(2))
        b = random_state(rng, alg, rng.randrange(2))
        if a.is_zero() or b.is_zero():
            continue
        out.append((alg, a, b))
    return out


SESQ_PAIRS = _random_pairs(12, 2, 6, seed=20260823)


@pytest.mark.parametrize("idx", range(len(SESQ_PAIRS)))
def test_translation_in_left_slot(idx):
    alg, a, b = SESQ_PAIRS[idx]
    p = lambda_bracket(a, b)
    got = lambda_bracket(apply_T(a), b)
    assert_hp_zero(hp_sub(got, hp_neg(hp_mul_lambda(p))))


@pytest.mark.parametrize("idx", range(len(SESQ_PAIRS)))
def test_odd_translation_in_left_slot(idx):
    alg, a, b = SESQ_PAIRS[idx]
    p = lambda_bracket(a, b)
    got = lambda_bracket(apply_S(a), b)
    want = hp_mul_mono(p, CHI, extraction_parity=False)
    assert_hp_zero(hp_sub(got, want))


@pytest.mark.parametrize("idx", range(len(SESQ_PAIRS)))
def test_translation_in_right_slot(idx):
    alg, a, b = SESQ_PAIRS[idx]
    p = lambda_bracket(a, b)
    got = lambda_bracket(a, apply_T(b))
    assert_hp_zero(hp_sub(got, hp_op_lambda_plus_T(p)))


@pytest.mark.parametrize("idx", range(len(SESQ_PAIRS)))
def test_odd_translation_in_right_slot(idx):
    alg, a, b = SESQ_PAIRS[idx]
    p = lambda_bracket(a, b)
    got = lambda_bracket(a, apply_S(b))
    sign = QI(-1) if a.parity() == 0 else QI(1)
    assert_hp_zero(hp_sub(got, hp_scale(hp_op_chi_plus_S(p), sign)))


def test_bilinearity():
    alg = Algebra(2, 6)
    a, b = alg.SB(1), alg.Psi(2)
    c = nf_mul(alg.SB(2), alg.Psi(1))
    mix = nf_add(a, nf_scale(b, QI(2, 1)))
    got = lambda_bracket(mix, c)
    want = hp_add(lambda_bracket(a, c),
                  hp_scale(lambda_bracket(b, c), QI(2, 1)))
    assert_hp_zero(hp_sub(got, want))


# -- skew symmetry ----------------------------------------------------

SKEW_PAIRS = _random_pairs(16, 2, 6, seed=7)


@pytest.mark.parametrize("idx", range(len(SKEW_PAIRS)))
def test_skew_symmetry(idx):
    alg, a, b = SKEW_PAIRS[idx]
    flipped = skew(lambda_bracket(a, b), a.parity(), b.parity())
    assert_hp_zero(hp_sub(lambda_bracket(b, a), flipped))


@pytest.mark.parametrize("idx", range(4))
def test_skew_is_an_involution(idx):
    alg, a, b = SKEW_PAIRS[idx]
    pa, pb = a.parity(), b.parity()
    p = lambda_bracket(a, b)
    assert_hp_zero(hp_sub(skew(skew(p, pa, pb), pb, pa), p))


# -- Wick expansion ---------------------------------------------------

def _random_triples(count, dim, cutoff, seed):
    rng = random.Random(seed)
    alg = Algebra(dim, cutoff)
    out = []
    while len(out) < count:
        a = random_state(rng, alg, rng.randrange(2))
        b = random_state(rng, alg, rng.randrange(2))
        c = random_state(rng, alg, rng.randrange(2))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        out.append((alg, a, b, c))
    return out


WICK_TRIPLES = _random_triples(10, 2, 6, seed=404)


@pytest.mark.parametrize("idx", range(len(WICK_TRIPLES)))
def test_wick_matches_bracket_of_product(idx):
    alg, a, b, c = WICK_TRIPLES[idx]
    assert_hp_zero(hp_sub(stepwise_wick(a, b, c),
                          lambda_bracket(a, nf_mul(b, c))))


# -- the Gamma-pair stages against the step-by-step references -------

GAMMA_SIZES = [(1, 1), (1, 2), (2, 2), (2, 4)]


def _gamma_triples(dim, cutoff, count=6):
    """Homogeneous triples of states with more terms and higher
    coefficient degrees than random_state draws by default, each pair
    bracketing to a nonzero value, with a truncated coefficient
    multiplied into every other b; or, for dim None, the curved current
    three times."""
    if dim is None:
        alg, metric = _curved_setup()
        h = build_H(metric)
        return [(h, h, h)]
    rng = random.Random(1000 * dim + cutoff)
    alg = Algebra(dim, cutoff)
    trunc = alg.coeff_nf(CoeffFunction(
        dim, cutoff, {(0,) * dim: 1, (1,) + (0,) * (dim - 1): 2},
        exact_to=cutoff - 1))
    out = []
    while len(out) < count:
        a, b, c = (random_state(rng, alg, rng.randrange(2), max_monos=3,
                                coeff_degree=min(2, cutoff))
                   for _ in range(3))
        if len(out) % 2:
            b = nf_mul(trunc, b)
        if all(lambda_bracket(x, y).terms
               for x, y in ((a, b), (b, c), (a, c))):
            out.append((a, b, c))
    return out


def _assert_same_hp(got, want):
    assert got == want
    # and the keys open in the same order
    assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("dim,cutoff", GAMMA_SIZES + [(None, None)])
def test_jacobi_defect_matches_stepwise(dim, cutoff):
    for a, b, c in _gamma_triples(dim, cutoff):
        _assert_same_hp(jacobi_defect(a, b, c),
                        stepwise_jacobi_defect(a, b, c))


def _assert_same_with(monkeypatch, name, reference, cases):
    """[a_L :b c:] over the (a, b, c) cases is equal, key order included,
    with the engine's function name swapped for reference."""
    def bracket_of_product(a, b, c):
        terms.clear_caches()
        return lambda_bracket(a, nf_mul(b, c))

    engine = [bracket_of_product(*t) for t in cases]
    monkeypatch.setattr(scdr.bracket, name, reference)
    for t, got in zip(cases, engine):
        _assert_same_hp(got, bracket_of_product(*t))
    terms.clear_caches()


@pytest.mark.parametrize("dim,cutoff", GAMMA_SIZES + [(None, None)])
def test_wick_tail_matches_stepwise(dim, cutoff, monkeypatch):
    _assert_same_with(monkeypatch, "_wick_tail", stepwise_wick_tail,
                      _gamma_triples(dim, cutoff))


@pytest.mark.parametrize("dim,cutoff", GAMMA_SIZES + [(None, None)])
def test_wick_step_matches_reference(dim, cutoff, monkeypatch):
    # [a_L b] c reaches the final sum as triples: it must open the same
    # keys, in the same order, as the HPoly it replaced
    _assert_same_with(monkeypatch, "_wick", reference_wick,
                      _gamma_triples(dim, cutoff))


@settings(max_examples=150, deadline=None)
@given(scaled_pairs())
def test_a_monomial_bracket_is_bilinear_in_exact_constants(case):
    # exact, truncated and kept-zero coefficients, each times a constant
    c1, m1, c2, m2 = case
    terms.clear_caches()
    got = scdr.bracket.bracket_mono(times(c1, m1), times(c2, m2))
    assert got == scaled(scdr.bracket.bracket_mono(m1, m2), c1 * c2)


# -- relabelling indices in order ---------------------------------------

def relabelled(value, to):
    """value with every generator index i renamed to[i]: a monomial
    (cf, gens), or a bracket value whose coefficients hold no variable."""
    def rename(gens):
        return tuple(Generator(g.kind, to[g.index], g.t, g.s) for g in gens)

    if isinstance(value, HPoly):
        return HPoly({m: NormalForm({rename(g): cf
                                     for g, cf in nf.terms.items()})
                      for m, nf in value.terms.items()})
    cf, gens = value
    return cf, rename(gens)


@st.composite
def relabelled_pairs(draw):
    """(m1, m2, to) for dims 1-6 and cutoffs 1-4: monomials in normal
    order with one to three and one or two factors at up to three indices,
    whose coefficients are exact constants, and an order-preserving map
    `to` of the indices they use into 1..dim."""
    dim = draw(st.integers(1, 6))
    cutoff = draw(st.integers(1, 4))
    span = sorted(draw(st.sets(st.integers(1, dim), min_size=1,
                               max_size=3)))
    pool = [g for g in factor_pool(dim) if g.index in span]

    def mono(size):
        gens = normal_order(draw(st.lists(st.sampled_from(pool),
                                          min_size=1, max_size=size)))
        c = draw(st.sampled_from(SCALARS))
        return CoeffFunction.constant(dim, cutoff, c), gens

    m1, m2 = mono(3), mono(2)
    used = sorted({g.index for g in m1[1] + m2[1]})
    image = sorted(draw(st.sets(st.integers(1, dim), min_size=len(used),
                                max_size=len(used))))
    return m1, m2, dict(zip(used, image))


@settings(max_examples=150, deadline=None)
@given(relabelled_pairs())
def test_a_constant_monomial_bracket_commutes_with_relabelling(case):
    # with exact constant coefficients every step reads an index only
    # through < and ==, so a map that keeps their order commutes with
    # the bracket, and the value's coefficients stay constants
    m1, m2, to = case
    terms.clear_caches()
    value = scdr.bracket.bracket_mono(m1, m2)
    assert not any(cf._variables() for nf in value.terms.values()
                   for cf in nf.terms.values())
    terms.clear_caches()
    got = scdr.bracket.bracket_mono(relabelled(m1, to), relabelled(m2, to))
    _assert_same_hp(got, relabelled(value, to))


@st.composite
def packable_pairs(draw):
    """(m1, m2) for dims 3-4 and cutoffs 1-2: monomials in normal order
    with one or two factors at up to three indices from 2..dim, so never
    at 1..k, whose coefficients are exact constants, or on one side a
    truncated constant or a kept zero."""
    dim = draw(st.integers(3, 4))
    cutoff = draw(st.integers(1, 2))
    span = draw(st.sets(st.integers(2, dim), min_size=1, max_size=3))
    pool = [g for g in factor_pool(dim) if g.index in span]
    inexact = draw(st.sampled_from([None, 0, 1]))

    def mono(side):
        gens = normal_order(draw(st.lists(st.sampled_from(pool),
                                          min_size=1, max_size=2)))
        cf = CoeffFunction.constant(dim, cutoff,
                                    draw(st.sampled_from(SCALARS)))
        if side == inexact:
            marker = draw(st.integers(0, cutoff))
            kept = cf.terms if draw(st.booleans()) else {}
            cf = CoeffFunction(dim, cutoff, kept, marker)
        return cf, gens

    return mono(0), mono(1)


SB2, SB3 = Generator(B_KIND, 2, 0, 1), Generator(B_KIND, 3, 0, 1)
PSI2, PSI3 = Generator(PSI_KIND, 2, 0, 0), Generator(PSI_KIND, 3, 0, 0)
TPSI2 = Generator(PSI_KIND, 2, 1, 0)
UNIT_3_1 = CoeffFunction.constant(3, 1, 1)
TRUNCATED_3_1 = CoeffFunction(3, 1, UNIT_3_1.terms, 0)
KEPT_ZERO_3_1 = CoeffFunction(3, 1, {}, 0)


@settings(max_examples=100, deadline=None)
@given(packable_pairs())
@example(((UNIT_3_1, (SB2, SB3)), (UNIT_3_1, (SB2, PSI2))))
@example(((TRUNCATED_3_1, (SB2, PSI3)), (UNIT_3_1, (SB3, PSI2))))
@example(((KEPT_ZERO_3_1, (SB2, TPSI2)), (UNIT_3_1, (PSI2, PSI3))))
@example(((UNIT_3_1, (PSI2, PSI3)), (KEPT_ZERO_3_1, (SB2, TPSI2))))
def test_the_packed_route_matches_the_unpacked_one(case):
    # the packing map of None keeps every pair at its own indices.  The
    # examples: an exact pair whose packed image under a map that
    # reverses 2 and 3 is out of order; a truncated constant and a kept
    # zero, whose T opens keys at every index, on either side
    m1, m2 = case
    terms.clear_caches()
    packed = scdr.bracket.bracket_mono(m1, m2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scdr.bracket, "_packing", lambda m1, m2: None)
        terms.clear_caches()
        _assert_same_hp(packed, scdr.bracket.bracket_mono(m1, m2))
    terms.clear_caches()


def _zero_state_cases():
    """(function name, reference, (a, b, c)) where a Wick list meets a
    state that is zero with no marker at a key that a later term fills:
    [:x1 S Psi1: _L x1] S B1 (x1 = B1) in the head, and
    :S B1 S Psi1: [:S B1 T B1: _L T Psi1] in the tail."""
    alg = Algebra(2, 2)
    x1 = alg.B(1)
    return [("_wick", reference_wick,
             (nf_mul(x1, alg.SPsi(1)), x1, alg.SB(1))),
            ("_wick_tail", stepwise_wick_tail,
             (nf_mul(alg.SB(1), alg.TB(1)), nf_mul(alg.SB(1), alg.SPsi(1)),
              apply_T(alg.Psi(1))))]


@pytest.mark.parametrize("name,reference,case", _zero_state_cases(),
                         ids=["head", "tail"])
def test_wick_lists_open_no_key_for_a_zero_state(name, reference, case,
                                                 monkeypatch):
    _assert_same_with(monkeypatch, name, reference, [case])


# -- Jacobi -----------------------------------------------------------

def test_jacobi_fixed_small_cases():
    alg = Algebra(2, 6)
    x1 = alg.coordinate(1)
    f = alg.coeff_nf(x1 * x1)
    cases = [
        (alg.B(1), alg.Psi(1), alg.Psi(1)),
        (alg.SB(1), alg.Psi(1), alg.B(1)),
        (alg.Psi(1), f, alg.Psi(1)),
        (alg.Psi(1), alg.SPsi(2), nf_mul(alg.SB(1), alg.B(2))),
    ]
    for a, b, c in cases:
        assert_hp_zero(jacobi_defect(a, b, c))


JACOBI_TRIPLES = _random_triples(8, 2, 5, seed=99)


@pytest.mark.parametrize("idx", range(len(JACOBI_TRIPLES)))
def test_jacobi_random(idx):
    alg, a, b, c = JACOBI_TRIPLES[idx]
    assert_hp_zero(jacobi_defect(a, b, c))


# -- superconformal closure -------------------------------------------

def _ns_rhs_hp(alg, h, central):
    return hp(alg, [
        (ONE, nf_scale(apply_T(h), QI(2))),
        (LAM, nf_scale(h, QI(3))),
        (CHI, apply_S(h)),
        (LAM2CHI, nf_scale(alg.one(), central / QI(3))),
    ])


def test_flat_current_closes_exactly():
    alg = Algebra(1, 8)
    h = build_H0(1, 8)
    d = hp_sub(lambda_bracket(h, h), _ns_rhs_hp(alg, h, QI(3)))
    assert d.exact_to() == inf
    assert_hp_zero(d)


def _curved_setup():
    dim, cutoff = 1, 8
    alg = Algebra(dim, cutoff)
    g11 = CoeffFunction(dim, cutoff, {(0,): QI(1), (2,): QI(1)})
    metric = MetricData([[g11]])
    return alg, metric


def test_current_acts_on_potential():
    # [H0_L pot] = 2 T pot + chi S pot for the flat part of the current
    alg, metric = _curved_setup()
    pot = alg.coeff_nf(metric.logdet_half)
    h0 = build_H0(alg.dim, alg.cutoff)
    want = hp(alg, [(ONE, nf_scale(apply_T(pot), QI(2))),
                    (CHI, apply_S(pot))])
    d = hp_sub(lambda_bracket(h0, pot), want)
    assert d.exact_to() >= 6
    assert d.is_zero_through(d.exact_to())


def test_current_acts_on_potential_correction():
    # The TS pot correction is weight one but not primary: quadratic
    # terms in Lambda survive on both sides of the bracket.
    alg, metric = _curved_setup()
    pot = alg.coeff_nf(metric.logdet_half)
    h0 = build_H0(alg.dim, alg.cutoff)
    tsp = apply_T(apply_S(pot))
    want = hp(alg, [
        (ONE, nf_scale(apply_T(tsp), QI(2))),
        (LAM, nf_scale(tsp, QI(3))),
        (CHI, apply_S(tsp)),
        (LAM2, apply_S(pot)),
        (LAMCHI, apply_T(pot)),
    ])
    d = hp_sub(lambda_bracket(h0, tsp), want)
    assert d.exact_to() >= 4
    assert d.is_zero_through(d.exact_to())

    want_rev = hp(alg, [(LAMCHI, nf_scale(apply_T(pot), -1)),
                        (LAM2, nf_scale(apply_S(pot), -1))])
    d_rev = hp_sub(lambda_bracket(tsp, h0), want_rev)
    assert d_rev.exact_to() >= 4
    assert d_rev.is_zero_through(d_rev.exact_to())


def test_curved_current_closes_with_central_charge_three():
    alg, metric = _curved_setup()
    h = build_H(metric)
    d = hp_sub(lambda_bracket(h, h), _ns_rhs_hp(alg, h, QI(3)))
    assert d.exact_to() >= 4
    assert d.is_zero_through(d.exact_to())


# -- contraction support ----------------------------------------------
#
# Only B^i against Psi^i, and Psi^i against a function of x_i, pair in
# the base brackets, so the Wick expansion of two states vanishes when
# no B^i (or coefficient variable x_i) on one side meets a Psi^i on the
# other.

SUPPORT_CUTOFF = 4


def _support(nf):
    """(B indices, Psi indices) over every term of a state; the
    variables of a coefficient count as B's."""
    bs, psis = set(), set()
    for gens, cf in nf.terms.items():
        for e in cf.terms:
            bs.update(i + 1 for i, p in enumerate(e) if p)
        for g in gens:
            (bs if g.kind == B_KIND else psis).add(g.index)
    return bs, psis


def _draw_monomial(draw, dim, b_indices, psi_indices):
    """:f g_1 ... g_k: with up to 3 derived generators (t, s <= 1) and an
    exact coefficient of degree <= 2, using only the given indices."""
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kinds = [k for k, allowed in ((B_KIND, b_indices),
                                      (PSI_KIND, psi_indices)) if allowed]
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        index = draw(st.sampled_from(b_indices if kind == B_KIND
                                     else psi_indices))
        t, s = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        if kind == B_KIND and not t + s:
            s = 1  # an underived B is the coefficient variable x_i
        gens.append(Generator(kind, index, t, s))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * dim
        for _ in range(draw(st.integers(0, 2)) if b_indices else 0):
            e[draw(st.sampled_from(b_indices)) - 1] += 1
        terms[tuple(e)] = QI(draw(st.integers(-3, 3)),
                             draw(st.integers(-1, 1)))
    cf = CoeffFunction(dim, SUPPORT_CUTOFF, terms)
    return mono_from_factors(cf, gens)


@st.composite
def non_contracting_pairs(draw):
    dim = draw(st.integers(1, 4))
    every = list(range(1, dim + 1))
    a = _draw_monomial(draw, dim, every, every)
    a_b, a_psi = _support(a)
    b = _draw_monomial(draw, dim, [i for i in every if i not in a_psi],
                       [i for i in every if i not in a_b])
    return a, b


@settings(max_examples=150, deadline=None)
@given(non_contracting_pairs())
def test_bracket_without_contraction_vanishes_exactly(pair):
    a, b = pair
    a_b, a_psi = _support(a)
    b_b, b_psi = _support(b)
    assert not (a_b & b_psi) and not (a_psi & b_b)
    for x, y in ((a, b), (b, a)):
        p = lambda_bracket(x, y)
        assert not p.terms, "nonzero: %r" % (p,)
        assert p.exact_to() == inf


def test_truncated_coefficient_keeps_its_marker():
    # f = x2 + x2^2 and the constant 1, each known only through degree 3.
    # Psi1 contracts with neither, yet the bracket and the derivations
    # certify only through degree 2: the derivative of a truncated
    # series in any variable loses a degree, and stays as a kept zero.
    alg = Algebra(2, 4)
    f = CoeffFunction(2, 4, {(0, 1): 1, (0, 2): 1}, exact_to=3)
    const = CoeffFunction(2, 4, {(0, 0): 1}, exact_to=3)
    zero = CoeffFunction(2, 4, {}, exact_to=2)
    marker = HPoly({ONE: NormalForm({(): zero})})
    f_nf, const_nf = alg.coeff_nf(f), alg.coeff_nf(const)
    assert lambda_bracket(alg.Psi(1), f_nf) == marker
    assert lambda_bracket(f_nf, alg.Psi(1)) == marker
    assert lambda_bracket(alg.Psi(1), const_nf) == marker
    assert lambda_bracket(const_nf, alg.Psi(1)) == marker
    df = CoeffFunction(2, 4, {(0, 0): 1, (0, 1): 2}, exact_to=2)
    for op, t, s in ((apply_T, 1, 0), (apply_S, 0, 1)):
        b1, b2 = (Generator(B_KIND, i, t, s) for i in (1, 2))
        assert op(f_nf) == NormalForm({(b1,): zero, (b2,): df})
        assert op(const_nf) == NormalForm({(b1,): zero, (b2,): zero})


# -- degree markers -----------------------------------------------------

def _assert_markers(value):
    """Every degree marker of a state or a bracket value is an int or
    inf: the value's own, each Lambda key's state's and each
    coefficient's."""
    states = [value]
    if isinstance(value, HPoly):
        states = list(value.terms.values())
        markers = [value.exact_to()]
    else:
        markers = []
    for nf in states:
        markers.append(nf.exact_to)
        markers += [cf.exact_to for cf in nf.terms.values()]
    bad = [e for e in markers if not (type(e) is int or e == inf)]
    assert bad == [], "markers %r in %r" % (bad, value)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_every_marker_is_an_int_or_inf(dim, cutoff, seed):
    rng = random.Random(seed)
    alg = Algebra(dim, cutoff)
    a, b, c = (random_state(rng, alg, rng.randrange(2)) for _ in range(3))
    p = lambda_bracket(a, b)
    for value in (a, b, c, nf_mul(a, b), nf_mul(b, c), p,
                  skew(p, a.parity(), b.parity()), jacobi_defect(a, b, c)):
        _assert_markers(value)
