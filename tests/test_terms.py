"""Normal forms, derivations, and the normally ordered product."""

import importlib
import pkgutil
import random
from fractions import Fraction
from functools import reduce
from math import factorial, inf

import pytest
from hypothesis import example, given, settings, strategies as st

import scdr
from scdr import terms
from scdr.bracket import bracket_mono, lambda_bracket
from scdr.scalars import QI, ONE, CoeffFunction
from scdr.terms import (Algebra, Generator, B_KIND, PSI_KIND, NormalForm,
                        HPoly, nf_mul, nf_add, nf_sub, nf_scale, nf_sum,
                        nf_combine, nf_mono, nf_apply_gen, hp_zero, hp_add,
                        hp_sub, hp_combine, apply_S, apply_T, render_nf,
                        gens_parity, mono_from_factors, qa_terms,
                        qc_integral, unit_cf)
from scdr.parser import parse_expression
from scdr.superconf import holds
from scdr.suites import random_state


@pytest.fixture
def alg():
    return Algebra(2, 6)


def is_exact_zero(nf):
    return nf.is_zero_through(nf.exact_to)


def parse(text, alg):
    return parse_expression(text, alg.dim, alg.cutoff)


def test_vacuum_is_nop_unit(alg):
    e = alg.TB(1)
    assert nf_mul(alg.one(), e) == e
    assert nf_mul(e, alg.one()) == e
    assert parse(":vac T B1:", alg) == e
    assert parse(":T B1 vac:", alg) == e


def test_odd_anticommutator_cancels(alg):
    # :Psi1 SB1: + :SB1 Psi1: = 0 because [Psi1_L SB1] has no constant
    nf = nf_add(nf_mul(alg.Psi(1), alg.SB(1)), nf_mul(alg.SB(1), alg.Psi(1)))
    assert nf.is_zero()
    assert nf.exact_to == inf
    assert parse(":Psi1 S B1: + :S B1 Psi1:", alg) == nf


def test_odd_generator_squares_vanish(alg):
    for g in (alg.Psi(1), alg.SB(1)):
        assert nf_mul(g, g).is_zero()
    # distinct derivatives of the same odd generator do not cancel
    assert not nf_mul(alg.Psi(1), apply_T(alg.Psi(1))).is_zero()


def test_s_squared_is_t(alg):
    rng = random.Random(11)
    for _ in range(15):
        a = random_state(rng, alg, rng.randint(0, 1))
        d = nf_sub(apply_S(apply_S(a)), apply_T(a))
        assert is_exact_zero(d)


def test_s_t_commute(alg):
    rng = random.Random(12)
    for _ in range(15):
        a = random_state(rng, alg, rng.randint(0, 1))
        d = nf_sub(apply_S(apply_T(a)), apply_T(apply_S(a)))
        assert is_exact_zero(d)


def test_t_is_a_derivation_of_nop(alg):
    rng = random.Random(13)
    for _ in range(20):
        a = random_state(rng, alg, rng.randint(0, 1))
        b = random_state(rng, alg, rng.randint(0, 1))
        lhs = apply_T(nf_mul(a, b))
        rhs = nf_add(nf_mul(apply_T(a), b), nf_mul(a, apply_T(b)))
        assert is_exact_zero(nf_sub(lhs, rhs))


def test_s_is_an_odd_derivation_of_nop(alg):
    rng = random.Random(14)
    for _ in range(20):
        pa = rng.randint(0, 1)
        a = random_state(rng, alg, pa)
        b = random_state(rng, alg, rng.randint(0, 1))
        lhs = apply_S(nf_mul(a, b))
        rhs = nf_add(nf_mul(apply_S(a), b),
                     nf_scale(nf_mul(a, apply_S(b)), -1 if pa else 1))
        assert is_exact_zero(nf_sub(lhs, rhs))


def test_s_on_coefficient_gives_gradient_pairing(alg):
    # S f(B) = sum_i (d_i f) SB^i
    f = CoeffFunction(2, 6, {(2, 1): QI(1)})
    got = apply_S(alg.coeff_nf(f))
    want = nf_add(
        nf_mul(alg.coeff_nf(f.partial(1)), alg.SB(1)),
        nf_mul(alg.coeff_nf(f.partial(2)), alg.SB(2)))
    assert is_exact_zero(nf_sub(got, want))


def test_normal_form_parses_back_to_itself(alg):
    nf = nf_mul(nf_scale(alg.SB(1), QI(2)), alg.TPsi(2))
    assert parse("2 * :S B1 T Psi2:", alg) == nf
    assert parse(render_nf(nf), alg) == nf
    assert alg.normalize(nf) is nf


def test_parity_bookkeeping(alg):
    assert alg.B(1).parity() == 0
    assert alg.SB(1).parity() == 1
    assert alg.Psi(2).parity() == 1
    assert alg.SPsi(2).parity() == 0
    assert nf_mul(alg.SB(1), alg.Psi(1)).parity() == 0
    mixed = nf_add(alg.B(1), alg.Psi(1))
    assert mixed.parity() is None


def test_normal_form_is_immutable(alg):
    nf = alg.B(1)
    with pytest.raises(AttributeError):
        nf.terms = {}


def test_holds_reports_exactness(alg):
    a, b = alg.B(1), alg.B(2)
    assert holds(nf_sub(a, a)) == (True, inf)
    assert holds(nf_sub(a, b)) == (False, inf)
    # two series that agree through degree 3 and are known only that far
    f = CoeffFunction(2, 6, {(1, 0): QI(1), (5, 0): QI(1)}, exact_to=3)
    g = CoeffFunction(2, 6, {(1, 0): QI(1)}, exact_to=4)
    assert holds(nf_sub(alg.coeff_nf(f), alg.coeff_nf(g))) == (True, 3)
    h = CoeffFunction(2, 6, {(2, 0): QI(1)})
    assert holds(nf_sub(alg.coeff_nf(f), alg.coeff_nf(h))) == (False, 3)


def test_generator_rendering_space_form():
    assert Generator(B_KIND, 1, 1, 1).render() == "T S B1"
    assert Generator(PSI_KIND, 2, 0, 1).render() == "S Psi2"
    assert Generator(B_KIND, 3, 2, 0).render() == "T T B3"


def test_render_deterministic(alg):
    rng = random.Random(15)
    for _ in range(10):
        a = random_state(rng, alg, rng.randint(0, 1))
        assert render_nf(a) == render_nf(a)


def test_nop_with_coefficient_orders_canonically(alg):
    # f(B) commutes into the coefficient slot of the monomial
    f = alg.coeff_nf(CoeffFunction(2, 6, {(1, 0): QI(1)}))
    left = nf_mul(f, alg.Psi(1))
    right = nf_mul(alg.Psi(1), f)
    assert is_exact_zero(nf_sub(left, right))


# -- sums of states against the pairwise fold ---------------------------


def reference_fold(pairs, exact_to=inf):
    """(terms, exact_to) of the sum of q * state over (q, state) pairs by
    the pairwise fold: scale each state (a zero scalar keeps only its
    marker), add it to the running sum key by key, then drop the
    coefficients that cancelled, folding every coefficient's exact_to
    into the state's."""
    terms, marker = {}, exact_to
    for q, nf in pairs:
        scaled = {g: cf.scale(q) for g, cf in nf.terms.items()} if q else {}
        merged = dict(terms)
        for g, cf in scaled.items():
            merged[g] = merged[g] + cf if g in merged else cf
        marker = min(marker, nf.exact_to)
        terms = {}
        for g, cf in merged.items():
            marker = min(marker, cf.exact_to)
            if not cf.is_zero():
                terms[g] = cf
    return terms, marker


def assert_matches_fold(nf, pairs, exact_to=inf):
    terms, marker = reference_fold(pairs, exact_to)
    assert nf.terms == terms
    assert list(nf.terms) == list(terms)
    assert {g: cf.exact_to for g, cf in nf.terms.items()} == \
        {g: cf.exact_to for g, cf in terms.items()}
    assert nf.exact_to == marker


fold_scalars = st.sampled_from([QI(1), QI(-1), QI(2), QI(Fraction(1, 2)),
                                QI(0, 1), QI(-3, 1)])


def draw_coeff(draw, dim, cutoff, exact_to):
    """A nonzero series with one or two terms and the given exact_to."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        e = [0] * dim
        for _ in range(draw(st.integers(0, cutoff))):
            e[draw(st.integers(0, dim - 1))] += 1
        terms[tuple(e)] = QI(draw(st.integers(-2, 2)) or 1)
    return CoeffFunction(dim, cutoff, terms, exact_to)


def fold_gens(dim):
    return [(), (Generator(PSI_KIND, 1, 0, 0),),
            (Generator(B_KIND, dim, 1, 0),),
            (Generator(B_KIND, 1, 0, 1), Generator(PSI_KIND, dim, 0, 0))]


def fold_markers(cutoff):
    return st.one_of(st.just(inf), st.integers(0, cutoff))


def draw_state(draw, dim, cutoff):
    """Up to three monomials of fold_gens, each coefficient and the
    state with a marker or none."""
    markers = fold_markers(cutoff)
    keys = draw(st.lists(st.sampled_from(fold_gens(dim)), max_size=3,
                         unique=True))
    return NormalForm({g: draw_coeff(draw, dim, cutoff, draw(markers))
                       for g in keys}, draw(markers))


@st.composite
def fold_cases(draw):
    """(dim, cutoff, pairs, start marker) for dims 1-2 and cutoffs 1-3.
    The pairs hold a zero scalar, a monomial that cancels and later
    reappears exactly, and coefficients with exact_to set."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 3))
    gens = fold_gens(dim)
    markers = fold_markers(cutoff)

    def coeff(exact_to):
        return draw_coeff(draw, dim, cutoff, exact_to)

    def state():
        return draw_state(draw, dim, cutoff)

    pairs = [(draw(fold_scalars), state())
             for _ in range(draw(st.integers(0, 3)))]
    truncated = NormalForm({}, draw(st.integers(0, cutoff)))
    pairs.insert(draw(st.integers(0, len(pairs))),
                 (QI(0), draw(st.sampled_from([truncated, state()]))))
    # cancel the running coefficient of one monomial under a marker
    g = draw(st.sampled_from(gens))
    running = reference_fold(pairs)[0].get(g)
    if running is None:
        running = coeff(inf)
        pairs.append((QI(1), NormalForm({g: running})))
    cut = CoeffFunction(dim, cutoff, running.terms,
                        draw(st.integers(0, cutoff)))
    pairs.append((QI(-1), NormalForm({g: cut})))
    pairs += [(draw(fold_scalars), state())
              for _ in range(draw(st.integers(0, 2)))]
    # the same monomial again, exact
    pairs.append((draw(fold_scalars), NormalForm({g: coeff(inf)})))
    return dim, cutoff, pairs, draw(markers)


@settings(max_examples=150, deadline=None)
@given(fold_cases())
def test_sums_of_states_match_the_pairwise_fold(case):
    _, _, pairs, start = case
    assert_matches_fold(nf_combine(pairs, start), pairs, start)
    marker = NormalForm({}, start)
    scaled = [nf_scale(nf, q) for q, nf in pairs]
    assert_matches_fold(nf_sum([marker] + scaled), pairs, start)
    assert_matches_fold(reduce(nf_add, scaled, marker), pairs, start)
    assert_matches_fold(reduce(nf_sub, [nf_scale(nf, -q) for q, nf in pairs],
                               marker), pairs, start)
    for (q, nf), s in zip(pairs, scaled):
        assert_matches_fold(s, [(q, nf)])


def reference_hp_fold(triples):
    """{key: (terms, exact_to)} of a sum of (key, q, state) triples: the
    pairwise fold of each key's pairs, without the states that vanish
    exactly."""
    out = {}
    for key in dict.fromkeys(k for k, _, _ in triples):
        terms, marker = reference_fold([(q, nf) for k, q, nf in triples
                                        if k == key])
        if terms or marker != inf:
            out[key] = (terms, marker)
    return out


@settings(max_examples=100, deadline=None)
@given(fold_cases(), st.data())
def test_sums_of_bracket_values_match_the_per_key_fold(case, data):
    _, _, pairs, _ = case
    keys = data.draw(st.lists(st.sampled_from([(0, 0, 0, 0), (1, 1, 0, 0)]),
                              min_size=len(pairs), max_size=len(pairs)))
    triples = [(k, q, nf) for k, (q, nf) in zip(keys, pairs)]
    want = reference_hp_fold(triples)
    sums = [hp_combine(triples)]
    for op, sign in ((hp_add, 1), (hp_sub, -1)):
        sums.append(reduce(op, [HPoly({k: nf_scale(nf, sign * q)})
                                for k, q, nf in triples],
                           hp_zero()))
    for got in sums:
        assert {k: (nf.terms, nf.exact_to)
                for k, nf in got.terms.items()} == want


@pytest.mark.parametrize("relation", ["none", "equal", "above", "below"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_sum_of_one_unit_state_matches_the_fold(relation, data):
    # one (ONE, state) pair, the start marker absent, equal to the
    # state's, above it or below it; given as list, tuple and generator
    dim = data.draw(st.integers(1, 2))
    cutoff = data.draw(st.integers(1, 3))
    nf = draw_state(data.draw, dim, cutoff)
    if relation in ("equal", "above") and nf.exact_to == inf:
        nf = NormalForm(nf.terms, data.draw(st.integers(0, cutoff)))
    top = cutoff if nf.exact_to == inf else nf.exact_to
    step = data.draw(st.integers(1, 2))
    start = {"none": inf, "equal": nf.exact_to, "above": top + step,
             "below": top - step}[relation]
    pairs = [(ONE, nf)]
    for given_pairs in (pairs, tuple(pairs), iter(pairs)):
        assert_matches_fold(nf_combine(given_pairs, start), pairs, start)
    if start == inf:
        assert_matches_fold(nf_sum([nf]), pairs)


def test_a_lone_unit_state_whose_marker_holds_is_the_sum(alg):
    nf = parse(":S B1 Psi2: + T Psi1", alg)
    marked = NormalForm(nf.terms, 3)
    assert nf_combine([(ONE, nf)]) is nf
    assert nf_sum([nf]) is nf
    assert nf_combine(((ONE, marked),), 3) is marked
    assert nf_combine([(ONE, marked)], 4) is marked
    lowered = nf_combine([(ONE, marked)], 2)
    assert lowered is not marked and lowered.exact_to == 2
    # the unit scalar by value, and states without terms beside it
    assert nf_combine([(QI(Fraction(2, 2)), nf)]) is nf
    exact, held, low = (NormalForm({}, e) for e in (inf, 3, 1))
    assert nf_sub(nf, exact) is nf and nf_add(exact, nf) is nf
    assert nf_combine([(QI(0), held), (ONE, marked),
                       (-ONE, exact)]) is marked
    for pairs in ([(ONE, marked), (ONE, low)], [(ONE, nf), (QI(0), low)]):
        got = nf_combine(pairs)
        assert got.terms == nf.terms and got.exact_to == 1
    # two states with terms, or one at another scalar, are summed
    assert nf_combine([(ONE, nf), (QI(0), nf)]) is not nf
    assert nf_combine([(-ONE, nf), (ONE, exact)]) is not nf


# -- products and quasi-associativity against one step at a time --------


def reference_mono_from_factors(cf, factors):
    """The product of cf and the factors, each factor applied to the
    running product by nf_apply_gen."""
    nf = nf_mono(cf, ())
    for h in factors:
        nf = nf_apply_gen(nf, h)
    return nf


def reference_qa_terms(a_mono, b_mono, c_gen):
    """qa_terms with both T-chains advanced to the top lambda degree of
    either bracket."""
    one = unit_cf(a_mono[0].dim, a_mono[0].cutoff)
    c_nf_mono = (one, (c_gen,))
    pb = bracket_mono(b_mono, c_nf_mono)
    pa = bracket_mono(a_mono, c_nf_mono)
    sign = QI((-1) ** (gens_parity(a_mono[1]) * gens_parity(b_mono[1])))
    exact = min(pa.exact_to(), pb.exact_to())
    jmax = max((m[0] for m in list(pa.terms) + list(pb.terms) if m[1]),
               default=-1)
    if jmax < 0:
        return nf_combine((), exact)
    ta = nf_mono(a_mono[0], a_mono[1])
    tb = nf_mono(b_mono[0], b_mono[1])
    pairs = []
    for j in range(jmax + 1):
        ta = nf_scale(apply_T(ta), QI(Fraction(1, j + 1)))
        tb = nf_scale(apply_T(tb), QI(Fraction(1, j + 1)))
        jfact = QI(factorial(j))
        cb = pb.coeff((j, 1, 0, 0))
        if cb is not None and not cb.is_zero():
            pairs.append((ONE, nf_mul(ta, nf_scale(cb, jfact))))
        ca = pa.coeff((j, 1, 0, 0))
        if ca is not None and not ca.is_zero():
            pairs.append((sign, nf_mul(tb, nf_scale(ca, jfact))))
    return nf_combine(pairs, exact)


def assert_same_state(got, want):
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)
    assert {g: cf.exact_to for g, cf in got.terms.items()} == \
        {g: cf.exact_to for g, cf in want.terms.items()}
    assert got.exact_to == want.exact_to


def factor_pool(dim):
    """Every generator with t + s <= 1, the underived B's included."""
    return [Generator(kind, i, t, s) for kind in (B_KIND, PSI_KIND)
            for i in range(1, dim + 1) for t, s in ((0, 0), (0, 1), (1, 0))]


def is_underived_b(g):
    return g.kind == B_KIND and not g.t and not g.s


def draw_factor_coeff(draw, dim, cutoff):
    """An exact or a truncated series, or the zero d_1 c of a truncated
    constant c, which keeps c's marker lowered by one."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero"]))
    if kind == "zero":
        c = CoeffFunction(dim, cutoff, {(0,) * dim: QI(draw(
            st.integers(1, 3)))}, draw(st.integers(0, cutoff)))
        return c.partial(1)
    markers = st.just(inf) if kind == "exact" else st.integers(0, cutoff)
    return draw_coeff(draw, dim, cutoff, draw(markers))


@st.composite
def factor_cases(draw):
    """(dim, cutoff, cf, factors) for dims 1-2 and cutoffs 1-3: up to four
    factors, sorted or not, with an underived B inserted anywhere."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 3))
    pool = factor_pool(dim)
    factors = draw(st.lists(st.sampled_from(pool), max_size=4))
    if draw(st.booleans()):
        factors.sort()
    if draw(st.booleans()):
        factors.insert(draw(st.integers(0, len(factors))),
                       Generator(B_KIND, draw(st.integers(1, dim)), 0, 0))
    return dim, cutoff, draw_factor_coeff(draw, dim, cutoff), tuple(factors)


SB1, TB1 = Generator(B_KIND, 1, 0, 1), Generator(B_KIND, 1, 1, 0)
B2, SB2 = Generator(B_KIND, 2, 0, 0), Generator(B_KIND, 2, 0, 1)
PSI1, PSI2 = Generator(PSI_KIND, 1, 0, 0), Generator(PSI_KIND, 2, 0, 0)
X1 = CoeffFunction(2, 2, {(1, 0): QI(1), (0, 1): QI(2)})
TRUNCATED_X1 = CoeffFunction(2, 2, X1.terms, 1)
ZERO_MARKED = CoeffFunction(2, 2, {(0, 0): QI(3)}, 2).partial(1)


@settings(max_examples=100, deadline=None)
@given(factor_cases())
@example((2, 2, X1, (SB1, B2, PSI1)))              # underived B inside
@example((2, 2, X1, (B2, TB1, PSI2)))              # underived B first
@example((2, 2, X1, (TB1, TB1, PSI2)))             # equal even factors
@example((2, 2, X1, (SB1, PSI1, PSI1)))            # a repeated odd one
@example((2, 2, X1, (PSI2, SB1, TB1)))             # out of order
@example((2, 2, TRUNCATED_X1, (SB1, TB1, PSI2, SB2)))
@example((2, 2, ZERO_MARKED, (TB1, PSI2, PSI1)))
def test_products_of_factors_match_one_factor_at_a_time(case):
    _, _, cf, factors = case
    assert_same_state(mono_from_factors(cf, factors),
                      reference_mono_from_factors(cf, factors))


def normal_order(gens):
    """The generators sorted, with repeated odd ones dropped."""
    out = []
    for g in sorted(gens):
        if not (out and out[-1] == g and g.parity()):
            out.append(g)
    return tuple(out)


@st.composite
def qa_cases(draw):
    """(dim, cutoff, a, b, c) for dims 1-2 and cutoffs 1-3: monomials a
    and b in normal order with up to two factors, and a derived
    generator c."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 3))
    pool = [g for g in factor_pool(dim) if not is_underived_b(g)]

    def mono():
        gens = draw(st.lists(st.sampled_from(pool), max_size=2))
        return draw_factor_coeff(draw, dim, cutoff), normal_order(gens)

    return dim, cutoff, mono(), mono(), draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None)
@given(qa_cases())
@example((2, 2, (X1, (SB1,)), (unit_cf(2, 2), (PSI1,)), PSI1))
@example((2, 2, (TRUNCATED_X1, (PSI2,)), (X1, (TB1,)), SB1))
def test_quasi_associativity_matches_both_chains_in_full(case):
    _, _, a, b, c = case
    assert_same_state(qa_terms(a, b, c), reference_qa_terms(a, b, c))


# -- one generator at a time against the integrals it can drop -----------


def stepwise_nf_mul_gen(mono, h):
    """mono times h with the quasi-commutativity integrals of the two
    generators it reorders: (1/2) of [g_L g] for an odd square and
    [g_L h] for a swap, each multiplied onto the rest of the monomial."""
    f, gens = mono
    if h.is_coordinate():
        xi = CoeffFunction.coordinate(f.dim, f.cutoff, h.index)
        return terms.mono_mul(mono, (xi, ()))
    if not gens:
        return nf_mono(f, (h,))
    g = gens[-1]
    if terms._in_order(g, h):
        return nf_mono(f, gens + (h,))
    rest = (f, gens[:-1])
    rest_nf = nf_mono(f, gens[:-1])
    one = unit_cf(f.dim, f.cutoff)
    if g == h:
        gg = nf_scale(qc_integral((one, (g,)), (one, (g,))),
                      QI(Fraction(1, 2)))
        return nf_add(nf_mul(rest_nf, gg),
                      qa_terms(rest, (one, (g,)), g))
    sign = QI((-1) ** (g.parity() * h.parity()))
    swapped = nf_apply_gen(terms.nf_mul_gen(rest, h), g)
    return nf_combine([
        (sign, swapped),
        (-sign, qa_terms(rest, (one, (h,)), g)),
        (ONE, nf_mul(rest_nf, qc_integral((one, (g,)), (one, (h,))))),
        (ONE, qa_terms(rest, (one, (g,)), h))])


def derived_generators(dim, top_t):
    """Every generator T^t S^s X with t <= top_t but the underived B's."""
    return [Generator(kind, i, t, s) for kind in (B_KIND, PSI_KIND)
            for i in range(1, dim + 1) for t in range(top_t + 1)
            for s in (0, 1) if kind == PSI_KIND or t or s]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3])
def test_integrals_of_two_generators_vanish(dim, cutoff):
    # [g_L h] is a scalar times the vacuum, and T kills the vacuum
    one = unit_cf(dim, cutoff)
    gens = derived_generators(dim, 2)
    for g in gens:
        for h in gens:
            got = qc_integral((one, (g,)), (one, (h,)))
            assert got.terms == {} and got.exact_to == inf


def reference_qc_integral(m1, m2):
    """qc_integral one T at a time: every lambda^j chi state of
    [m1_L m2], marker-only ones too, T'd j + 1 times and paired with
    (-1)^j / (j + 1)."""
    p = bracket_mono(m1, m2)
    pairs = []
    for (j, J, _, _), nf in p.terms.items():
        if not J:
            continue
        for _ in range(j + 1):
            nf = apply_T(nf)
        pairs.append((QI(Fraction((-1) ** j, j + 1)), nf))
    return nf_combine(pairs, p.exact_to())


@st.composite
def qc_cases(draw):
    """(dim, cutoff, m1, m2) for dims 1-2 and cutoffs 1-3: a monomial m1
    in normal order with up to three derived factors, against a pure
    coefficient m2, as mono_mul passes it, or a monomial in normal order
    with up to two."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 3))
    pool = [g for g in factor_pool(dim) if not is_underived_b(g)]

    def mono(size):
        gens = draw(st.lists(st.sampled_from(pool), max_size=size))
        return draw_factor_coeff(draw, dim, cutoff), normal_order(gens)

    m1 = mono(3)
    m2 = (draw_factor_coeff(draw, dim, cutoff), ()) if draw(st.booleans()) \
        else mono(2)
    return dim, cutoff, m1, m2


SPSI1 = Generator(PSI_KIND, 1, 0, 1)


@settings(max_examples=150, deadline=None)
@given(qc_cases())
@example((2, 2, (X1, (SB1, TB1)), (TRUNCATED_X1, ())))   # coefficient
@example((2, 2, (X1, (SB1, TB1)), (X1, (SPSI1,))))       # lambda chi
@example((2, 2, (TRUNCATED_X1, (SB1,)), (ZERO_MARKED, (SPSI1,))))
def test_quasi_commutativity_matches_one_T_at_a_time(case):
    # the last example's bracket has a chi state with a marker only
    _, _, m1, m2 = case
    assert_same_state(qc_integral(m1, m2), reference_qc_integral(m1, m2))


def test_an_odd_square_keeps_the_marker_of_its_coefficient():
    f = CoeffFunction(2, 3, {(1, 0): QI(1)}, 2)
    terms.clear_caches()
    got = terms.nf_mul_gen((f, (SB1,)), SB1)
    assert got.terms == {} and got.exact_to == 2


@st.composite
def gen_cases(draw):
    """(dim, cutoff, mono, h) for dims 1-2 and cutoffs 1-3: a monomial in
    normal order with up to three derived factors, and a derived h."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 3))
    pool = [g for g in factor_pool(dim) if not is_underived_b(g)]
    gens = normal_order(draw(st.lists(st.sampled_from(pool), max_size=3)))
    return (dim, cutoff, (draw_factor_coeff(draw, dim, cutoff), gens),
            draw(st.sampled_from(pool)))


@settings(max_examples=150, deadline=None)
@given(gen_cases())
@example((2, 2, (X1, (PSI1,)), SB1))                # a swap, both qa terms
@example((2, 2, (TRUNCATED_X1, (SB1, PSI2)), PSI1))
@example((2, 2, (ZERO_MARKED, (SB1,)), SB1))         # an odd square
@example((2, 2, (X1, (TB1, PSI1)), PSI1))
def test_one_generator_matches_the_product_with_its_integrals(case):
    _, _, mono, h = case
    assert_same_state(terms._nf_mul_gen(mono, h), stepwise_nf_mul_gen(mono, h))


# -- memo caches ----------------------------------------------------------


def module_memos():
    """{module.name: dict} of every module-level dict named _*_CACHE in
    the scdr package."""
    memos = {}
    for info in pkgutil.iter_modules(scdr.__path__):
        module = importlib.import_module("scdr." + info.name)
        for name, value in vars(module).items():
            if (name.startswith("_") and name.endswith("_CACHE")
                    and isinstance(value, dict)):
                memos["%s.%s" % (info.name, name)] = value
    return memos


def test_clear_caches_empties_every_memo(alg):
    a = parse(":f{\"1,0\": \"1\"} S B1 Psi2: + T Psi1", alg)
    b = parse(":Psi1 T B2 S Psi2:", alg)
    lambda_bracket(a, b)
    memos = module_memos()
    filled = {"terms._MUL_CACHE", "terms._GEN_CACHE", "bracket._BR_CACHE"}
    assert {name for name, memo in memos.items() if memo} >= filled
    terms.clear_caches()
    assert {name: len(memo) for name, memo in memos.items() if memo} == {}


CROSS_ALGEBRA = ('f{"2": "1"}', ':f{"1": "1"} T B1:',
                 ':f{"1": "1"} Psi1:', ':f{"2": "1"} T B1:')


def cross_algebra_values(cutoff):
    """x1^2 times :x1 T B1: and [:x1 Psi1: _ :x1^2 T B1:] at dim 1."""
    f, a, b, c = (parse_expression(text, 1, cutoff) for text in CROSS_ALGEBRA)
    return nf_mul(f, a), lambda_bracket(b, c)


@pytest.mark.parametrize("order", [(2, 3), (3, 2)])
def test_memo_keys_separate_algebras(order):
    # one process computes both cutoffs on the caches the other left:
    # each value must still be the one a fresh cache gives
    fresh = {}
    for cutoff in order:
        terms.clear_caches()
        fresh[cutoff] = cross_algebra_values(cutoff)
    terms.clear_caches()
    for cutoff in order:
        product, bracket = cross_algebra_values(cutoff)
        want_product, want_bracket = fresh[cutoff]
        assert_same_state(product, want_product)
        assert list(bracket.terms) == list(want_bracket.terms)
        for key, nf in bracket.terms.items():
            assert_same_state(nf, want_bracket.terms[key])
    assert fresh[2][0].terms == {} and fresh[2][0].exact_to == 2
    assert fresh[3][0] == parse_expression(':f{"3": "1"} T B1:', 1, 3)


def test_the_zero_state_of_every_algebra_is_one_value():
    # a state does not record its algebra; only its coefficients do
    assert Algebra(1, 2).zero() == Algebra(3, 5).zero()
