"""Scalar ring and truncated power series.

Oracle values are computed inside the tests with plain Fractions and
textbook algorithms (long division, Lagrange inversion, the schoolbook
product) or with sympy, independent of the series code under test.
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from scdr.scalars import (QI, ZERO, ONE, CoeffFunction, parse_qi, render_qi,
                          series_inverse, log_series_normalized,
                          functional_inverse)


def qi(re, im=0):
    return QI(Fraction(re), Fraction(im))


def cf1(cutoff, *coeffs):
    """One-variable polynomial from degree-indexed coefficients."""
    terms = {}
    for d, c in enumerate(coeffs):
        if c:
            terms[(d,)] = qi(c)
    return CoeffFunction(1, cutoff, terms)


# -- QI ---------------------------------------------------------------


def test_qi_basic_arithmetic():
    a = qi(Fraction(1, 2), 1)
    b = qi(3, Fraction(-1, 3))
    assert a + b == qi(Fraction(7, 2), Fraction(2, 3))
    assert a * b == qi(Fraction(11, 6), Fraction(17, 6))
    assert -a == qi(Fraction(-1, 2), -1)
    assert a - a == ZERO
    assert a / a == ONE
    assert (a * b) / b == a
    assert a.conj() == qi(Fraction(1, 2), -1)
    assert not a.is_rational() and qi(5).is_rational()


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


qi_strategy = st.builds(
    qi,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@settings(max_examples=120, deadline=None)
@given(qi_strategy, qi_strategy, qi_strategy)
def test_qi_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(qi_strategy)
def test_qi_text_round_trip(a):
    assert parse_qi(render_qi(a)) == a


def test_parse_qi_forms():
    assert parse_qi("i") == QI(0, 1)
    assert parse_qi("-i") == QI(0, -1)
    assert parse_qi("1/2 i") == qi(0, Fraction(1, 2))
    assert parse_qi("1/2 + 1/3 i") == qi(Fraction(1, 2), Fraction(1, 3))
    assert parse_qi("-1 + i") == qi(-1, 1)
    assert parse_qi("2 - 3 i") == qi(2, -3)
    with pytest.raises(ValueError):
        parse_qi("")


# -- QI against (Fraction, Fraction) pairs -----------------------------


def ref_render(re, im):
    """The canonical text of re + im*i, written out from the pair."""
    if not im:
        return str(re)
    mag = "" if abs(im) == 1 else "%s " % abs(im)
    if not re:
        return "%s%si" % ("-" if im < 0 else "", mag)
    return "%s %s %si" % (re, "-" if im < 0 else "+", mag)


small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def qi_with_pair(draw):
    """A QI and the (re, im) pair of Fractions it stands for.  The QI is
    built from ints, from two Fractions, or from two Fractions written
    as a*k/(d*k) and b*k/(d*k), whose common factors must cancel."""
    how = draw(st.sampled_from(("fractions", "ints", "scaled")))
    if how == "ints":
        re, im = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        return QI(re, im), (Fraction(re), Fraction(im))
    if how == "fractions":
        re, im = draw(small_fraction), draw(small_fraction)
        return QI(re, im), (re, im)
    a, b = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    d, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    re, im = Fraction(a * k, d * k), Fraction(b * k, d * k)
    return QI(re, im), (re, im)


def assert_reduced(q):
    """q holds the one triple of its value."""
    assert type(q.a) is int and type(q.b) is int and type(q.d) is int
    assert q.d > 0 and math.gcd(q.a, q.b, q.d) == 1
    if not q:
        assert (q.a, q.b, q.d) == (0, 0, 1)


def assert_is_pair(q, pair):
    """q equals the pair, as QI, in both parts and in its text."""
    re, im = pair
    assert isinstance(q, QI)
    assert_reduced(q)
    assert (q.re, q.im) == (re, im)
    assert type(q.re) is Fraction and type(q.im) is Fraction
    ref = QI(re, im)
    assert q == ref and hash(q) == hash(ref)
    assert render_qi(q) == ref_render(re, im)
    assert parse_qi(render_qi(q)) == q


def test_qi_lowest_terms_and_mixed_equality():
    q = QI(Fraction(2, 4), Fraction(6, 4))
    assert q == QI(Fraction(1, 2), Fraction(3, 2))
    assert hash(q) == hash(QI(Fraction(1, 2), Fraction(3, 2)))
    assert render_qi(q) == "1/2 + 3/2 i"
    assert QI(Fraction(4, 2)) == 2 == QI(2) and 2 == QI(Fraction(4, 2))
    assert hash(QI(Fraction(4, 2))) == hash(QI(2, 0))
    assert QI(Fraction(3, 6)) == Fraction(1, 2) == QI(1) / QI(2)
    assert QI(1, 1) * QI(Fraction(1, 2), Fraction(1, 2)) == QI(0, 1)
    assert QI(0, 2) / QI(0, 2) == ONE and hash(QI(0, 2) / QI(0, 2)) == \
        hash(ONE)
    assert QI(1, 1) != 1 and QI(0, 1) != Fraction(0)
    assert (QI(0, 0) == 0) and not QI(Fraction(0, 5), 0)
    assert (q.a, q.b, q.d) == (1, 3, 2)
    assert 3 in {QI(3)} and Fraction(1, 2) in {QI(1) / QI(2)}
    for r in (-1, Fraction(-1, 2), Fraction(1, sys.hash_info.modulus),
              Fraction(-2, 3 * sys.hash_info.modulus)):
        assert hash(QI(r)) == hash(r)
    for z in (QI(Fraction(0, 5), 0), QI(3, 1) - QI(3, 1), ZERO * q,
              QI(Fraction(1, 6)) - QI(Fraction(2, 12))):
        assert (z.a, z.b, z.d) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(qi_with_pair(), qi_with_pair())
def test_qi_matches_fraction_pairs(x, y):
    p, (pr, pi) = x
    q, (qr, qi_) = y
    assert_is_pair(p, (pr, pi))
    assert_is_pair(p + q, (pr + qr, pi + qi_))
    assert_is_pair(p - q, (pr - qr, pi - qi_))
    assert_is_pair(p * q, (pr * qr - pi * qi_, pr * qi_ + pi * qr))
    assert_is_pair(-p, (-pr, -pi))
    assert_is_pair(p.conj(), (pr, -pi))
    assert p.is_rational() == (pi == 0)
    assert bool(p) == bool(pr or pi)
    n = qr * qr + qi_ * qi_
    if n:
        assert_is_pair(p / q, ((pr * qr + pi * qi_) / n,
                               (pi * qr - pr * qi_) / n))
    else:
        with pytest.raises(ZeroDivisionError):
            p / q
    # mixed operands: ints and Fractions on either side
    k = qr.numerator
    assert_is_pair(p + k, (pr + k, pi))
    assert_is_pair(k - p, (k - pr, -pi))
    assert_is_pair(qr * p, (qr * pr, qr * pi))
    assert_is_pair(p - qr, (pr - qr, pi))
    if pr or pi:
        assert_is_pair(qr / p, ((qr * pr) / (pr * pr + pi * pi),
                                (-qr * pi) / (pr * pr + pi * pi)))
    # equality and hash against QI, int and Fraction
    assert (p == q) == ((pr, pi) == (qr, qi_))
    if p == q:
        assert hash(p) == hash(q)
    assert (p == pr) == (pi == 0) and (pr == p) == (pi == 0)
    assert (p == k) == ((pr, pi) == (k, 0)) and (k == p) == (p == k)
    assert p != "1" and p != 0.5
    # a real value hashes as the int or Fraction it equals
    assert hash(QI(pr)) == hash(pr) and hash(QI(k)) == hash(k)
    if not pi:
        assert hash(p) == hash(pr) and pr in {p} and p in {pr}


# -- CoeffFunction ----------------------------------------------------


def test_cf_partial_example():
    # d/dx1 of x1^2 x2 = 2 x1 x2
    f = CoeffFunction(2, 6, {(2, 1): ONE})
    assert f.partial(1) == CoeffFunction(2, 6, {(1, 1): qi(2)})
    assert f.partial(2) == CoeffFunction(2, 6, {(2, 0): ONE})


def test_cf_mul_truncation_marks_exactness():
    f = cf1(3, 0, 1)          # x, cutoff 3
    g = cf1(3, 0, 0, 0, 1)    # x^3
    h = f * g                 # x^4 truncates away entirely
    assert h.is_zero()
    assert h.exact_to == 3
    assert h.is_zero_through(3)


def test_cf_exact_to_min_combines():
    f = CoeffFunction(1, 5, {(1,): ONE}, exact_to=4)
    g = CoeffFunction(1, 5, {(2,): ONE}, exact_to=2)
    assert (f + g).exact_to == 2
    assert (f * g).exact_to == 2


def test_cf_compose_example():
    # f(x) = x^2 composed with x + x^2: (x + x^2)^2 = x^2 + 2x^3 + x^4
    f = cf1(6, 0, 0, 1)
    sub = cf1(6, 0, 1, 1)
    assert f.compose([sub]) == cf1(6, 0, 0, 1, 2, 1)


def _longdiv_inverse(coeffs, n):
    """1 / (sum coeffs[d] u^d) through degree n by long division."""
    out = [Fraction(0)] * (n + 1)
    lead = Fraction(coeffs[0])
    out[0] = 1 / lead
    for d in range(1, n + 1):
        s = Fraction(0)
        for k in range(1, d + 1):
            ck = Fraction(coeffs[k]) if k < len(coeffs) else Fraction(0)
            s += ck * out[d - k]
        out[d] = -s / lead
    return out


def test_series_inverse_against_long_division():
    for coeffs in ((1, 1), (1, 0, 1), (2, -1, Fraction(1, 3), 5)):
        n = 7
        inv = series_inverse(cf1(n, *coeffs))
        want = _longdiv_inverse(coeffs, n)
        for d in range(n + 1):
            got = inv.terms.get((d,), ZERO)
            assert got == qi(want[d]), (coeffs, d)


def test_series_inverse_needs_unit():
    with pytest.raises(ValueError):
        series_inverse(cf1(4, 0, 1))


def test_log_series_against_termwise_integration():
    # log f computed independently as the integral of f'/f
    for coeffs in ((1, 0, 1), (1, 1, Fraction(1, 2)), (1, -2, 0, 3)):
        n = 8
        d_coeffs = [Fraction(d) * Fraction(c)
                    for d, c in enumerate(coeffs)][1:]
        inv = _longdiv_inverse(coeffs, n)
        ratio = [Fraction(0)] * (n + 1)
        for i, a in enumerate(d_coeffs):
            for j, b in enumerate(inv):
                if i + j <= n:
                    ratio[i + j] += a * b
        want = [Fraction(0)] * (n + 1)
        for d in range(1, n + 1):
            want[d] = ratio[d - 1] / d
        got = log_series_normalized(cf1(n, *coeffs))
        for d in range(n + 1):
            assert got.terms.get((d,), ZERO) == qi(want[d]), (coeffs, d)


def test_log_series_frozen_example():
    # log(1 + x^2) = x^2 - x^4/2 + x^6/3 - x^8/4, certified to the cutoff
    got = log_series_normalized(cf1(8, 1, 0, 1))
    want = cf1(8, 0, 0, 1, 0, Fraction(-1, 2), 0, Fraction(1, 3), 0,
               Fraction(-1, 4))
    assert got.terms == want.terms
    assert got.exact_to == 8


def test_functional_inverse_catalan():
    # inverse of x + x^2 has coefficients (-1)^(k+1) C_(k-1)
    inv, = functional_inverse([cf1(8, 0, 1, 1)])
    for k in range(1, 9):
        cat = Fraction(math.comb(2 * (k - 1), k - 1), k)
        want = qi(cat if k % 2 else -cat)
        assert inv.terms.get((k,), ZERO) == want, k


def test_functional_inverse_round_trip_2d():
    cutoff = 6
    fwd = [
        CoeffFunction(2, cutoff, {(1, 0): ONE, (2, 0): qi(1),
                                  (1, 1): qi(-1)}),
        CoeffFunction(2, cutoff, {(0, 1): ONE, (0, 2): qi(2)}),
    ]
    inv = functional_inverse(fwd)
    for i in range(2):
        comp = fwd[i].compose(inv)
        want = CoeffFunction.coordinate(2, cutoff, i + 1)
        diff = comp - want
        assert diff.is_zero_through(diff.exact_to)


small_poly = st.builds(
    lambda d: CoeffFunction(2, 6, {k: v for k, v in d.items() if v}),
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.builds(qi, st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4)),
        max_size=3))


@settings(max_examples=80, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_cf_ring_axioms(f, g, h):
    assert (f * g).terms == (g * f).terms
    assert ((f * g) * h).terms == (f * (g * h)).terms
    assert (f * (g + h)).terms == (f * g + f * h).terms


@settings(max_examples=60, deadline=None)
@given(small_poly, small_poly)
def test_cf_leibniz(f, g):
    lhs = (f * g).partial(1)
    rhs = f.partial(1) * g + f * g.partial(1)
    assert lhs.terms == rhs.terms


# -- multiplication against a schoolbook reference ---------------------


def schoolbook_mul(f, g):
    """(terms, exact_to) of f * g by the textbook double loop, with each
    Gaussian rational kept as a pair of Fractions."""
    acc = {}
    dropped = False
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > f.cutoff:
                dropped = True
                continue
            re, im = acc.get(e, (Fraction(0), Fraction(0)))
            acc[e] = (re + c1.re * c2.re - c1.im * c2.im,
                      im + c1.re * c2.im + c1.im * c2.re)
    terms = {e: QI(re, im) for e, (re, im) in acc.items() if re or im}
    bounds = [f.exact_to, g.exact_to]
    if dropped:
        bounds.append(f.cutoff)
    return terms, min(bounds)


def assert_matches_schoolbook(f, g):
    h = f * g
    terms, exact = schoolbook_mul(f, g)
    assert h.terms == terms
    assert h.exact_to == exact
    for c in h.terms.values():
        assert type(c.re) is Fraction and type(c.im) is Fraction and c
    assert h == CoeffFunction(f.dim, f.cutoff, terms, exact)
    assert hash(h) == hash(CoeffFunction(f.dim, f.cutoff, terms, exact))


mixed_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def series_pairs(draw):
    """Two series of one random dim (1-3) and cutoff (0-12) with mixed
    denominators, nonzero imaginary parts and arbitrary exact_to."""
    dim = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, 12))

    def exponent():
        left, e = cutoff, []
        for _ in range(dim):
            e.append(draw(st.integers(0, left)))
            left -= e[-1]
        return tuple(e)

    def series():
        terms = {}
        for _ in range(draw(st.integers(0, 12))):
            terms[exponent()] = QI(draw(mixed_fraction),
                                   draw(mixed_fraction))
        exact = draw(st.one_of(st.just(inf), st.integers(0, cutoff)))
        return CoeffFunction(dim, cutoff, terms, exact)

    return series(), series()


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_cf_mul_matches_schoolbook(pair):
    f, g = pair
    assert_matches_schoolbook(f, g)
    assert_matches_schoolbook(g, f)
    assert_matches_schoolbook(f, f)


@pytest.mark.parametrize("dim,cutoff", [(1, 0), (1, 12), (2, 12), (3, 6)])
def test_cf_mul_dense_matches_schoolbook(dim, cutoff):
    rng = random.Random(dim * 100 + cutoff)

    def dense():
        terms = {}
        for e in itertools.product(range(cutoff + 1), repeat=dim):
            if sum(e) <= cutoff:
                terms[e] = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        return CoeffFunction(dim, cutoff, terms)

    assert_matches_schoolbook(dense(), dense())


def test_cf_mul_empty_and_constant_operands():
    zero = CoeffFunction.zero(2, 5)
    one = CoeffFunction.constant(2, 5, ONE)
    c = CoeffFunction.constant(2, 5, qi(Fraction(2, 3), Fraction(-1, 5)))
    f = CoeffFunction(2, 5, {(1, 0): qi(1, 1), (2, 3): qi(Fraction(1, 2))},
                      exact_to=4)
    for a, b in ((zero, f), (f, zero), (zero, zero), (one, f), (f, one),
                 (c, f), (c, c), (c, zero)):
        assert_matches_schoolbook(a, b)
    assert (one * f) == f and (f * one) == f
    assert (zero * f).terms == {} and (zero * f).exact_to == 4
    # x1^3 * x2^3 leaves cutoff 5: nothing is kept and exactness drops
    h = (CoeffFunction.monomial(2, 5, (3, 0))
         * CoeffFunction.monomial(2, 5, (0, 3)))
    assert h.terms == {} and h.exact_to == 5
    # terms that cancel are not stored
    p = CoeffFunction(1, 4, {(0,): ONE, (1,): ONE})
    m = CoeffFunction(1, 4, {(0,): ONE, (1,): qi(-1)})
    assert (p * m).terms == {(0,): ONE, (2,): qi(-1)}


def test_cf_products_of_results_and_public_checks():
    f = CoeffFunction(2, 6, {(1, 0): qi(1, Fraction(1, 3)),
                             (0, 2): qi(Fraction(-2, 5))})
    g = f * f
    assert f.scale(1) == f
    assert (g * f).terms == schoolbook_mul(g, f)[0]
    assert (f.partial(1) * g.partial(2)).terms == schoolbook_mul(
        f.partial(1), g.partial(2))[0]
    with pytest.raises(ValueError):
        CoeffFunction(1, 3, {(-1,): ONE})


def assert_series_reduced(f):
    for c in f.terms.values():
        assert_reduced(c)


def test_cf_products_come_out_reduced():
    # (x/2 + 1/2)(2x + 2) = x^2 + 2x + 1: the common denominator cancels
    f = CoeffFunction(1, 3, {(1,): qi(Fraction(1, 2)),
                             (0,): qi(Fraction(1, 2))})
    g = CoeffFunction(1, 3, {(1,): qi(2), (0,): qi(2)})
    want = CoeffFunction(1, 3, {(2,): QI(1), (1,): QI(2), (0,): QI(1)})
    for h in (f * g, g * f):
        assert h == want and hash(h) == hash(want)
        assert_series_reduced(h)
        assert all(c.d == 1 for c in h.terms.values())
    # Gaussian: (1 + i)/2 x times (1 - i) = x, with d == 1
    u = CoeffFunction(1, 3, {(1,): QI(Fraction(1, 2), Fraction(1, 2))})
    v = CoeffFunction.constant(1, 3, QI(1, -1))
    assert u * v == CoeffFunction.coordinate(1, 3, 1)
    assert ((u * v).terms[(1,)].a, (u * v).terms[(1,)].d) == (1, 1)


def test_cf_partial_and_scale_come_out_reduced():
    f = CoeffFunction(1, 4, {(2,): qi(Fraction(1, 2))})
    x = CoeffFunction.coordinate(1, 4, 1)
    assert f.partial(1) == x and hash(f.partial(1)) == hash(x)
    assert f.partial(1).terms[(1,)].d == 1
    g = CoeffFunction(2, 5, {(3, 1): QI(Fraction(1, 6), Fraction(1, 3)),
                             (0, 2): QI(Fraction(5, 4))}, exact_to=4)
    assert_series_reduced(g.partial(1))
    assert g.partial(1).terms == {(2, 1): QI(Fraction(1, 2), 1)}
    assert g.partial(2).terms == {(3, 0): QI(Fraction(1, 6), Fraction(1, 3)),
                                  (0, 1): QI(Fraction(5, 2))}
    for f in (f, g):
        assert f.scale(QI(2) / QI(2)) is f
        assert f.scale(QI(-2) / QI(2)) == -f
        half = f.scale(QI(1) / QI(2)).scale(QI(2))
        assert half == f and hash(half) == hash(f)
        assert_series_reduced(half)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_cf_results_are_reduced(pair):
    f, g = pair
    for h in (f * g, f + g, f - g, -f, f.scale(QI(Fraction(2, 3), 1))):
        assert_series_reduced(h)
    for i in range(1, f.dim + 1):
        assert_series_reduced(f.partial(i))


# -- sympy oracle for compose, inverses and log ------------------------


@pytest.fixture
def sp():
    return pytest.importorskip("sympy")


def _rand_series(rng, dim, cutoff, n_terms, constant=None, linear=None):
    """A random series with small Gaussian-rational coefficients; the
    constant term is `constant` when given, and no term has degree 1
    unless `linear` supplies the linear part."""
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, 2) for _ in range(dim))
        if 2 <= sum(e) <= cutoff:
            terms[e] = QI(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                          Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    if constant is not None:
        terms[(0,) * dim] = constant
    for j, c in enumerate(linear or ()):
        e = [0] * dim
        e[j] = 1
        terms[tuple(e)] = c
    return CoeffFunction(dim, cutoff, terms)


def _to_sympy(sp, cf, xs):
    return sp.Add(*[(sp.Rational(c.re.numerator, c.re.denominator)
                     + sp.I * sp.Rational(c.im.numerator, c.im.denominator))
                    * sp.Mul(*[x ** p for x, p in zip(xs, e)])
                    for e, c in cf.terms.items()])


def _from_sympy(sp, expr, xs, cutoff):
    """Terms of a sympy polynomial through total degree cutoff, as QI."""
    out = {}
    poly = sp.Poly(sp.expand(expr), *xs)
    for e, c in poly.terms():
        if sum(e) <= cutoff and c != 0:
            re, im = c.as_real_imag()
            out[tuple(e)] = QI(Fraction(int(re.p), int(re.q)),
                               Fraction(int(im.p), int(im.q)))
    return out


def _series_in_t(sp, expr, xs, cutoff):
    """Taylor expansion through total degree cutoff, taken as a series in
    t after scaling every variable by t."""
    t = sp.Symbol("t")
    scaled = expr.subs({x: t * x for x in xs}, simultaneous=True)
    return sp.series(scaled, t, 0, cutoff + 1).removeO().subs(t, 1)


@pytest.mark.parametrize("seed", range(4))
def test_compose_against_sympy(sp, seed):
    rng = random.Random(seed)
    dim, tdim, cutoff = 1 + seed % 2, 2 - seed % 2, 5
    xs = sp.symbols("x1:%d" % (dim + 1))
    ys = sp.symbols("y1:%d" % (tdim + 1))
    f = _rand_series(rng, dim, cutoff, 5, constant=qi(1, -1),
                     linear=[qi(2)] * dim)
    subs = [_rand_series(rng, tdim, cutoff, 4,
                         linear=[qi(k + 1, 1) for k in range(tdim)])
            for _ in range(dim)]
    got = f.compose(subs)
    want = _to_sympy(sp, f, xs).subs(
        {x: _to_sympy(sp, s, ys) for x, s in zip(xs, subs)},
        simultaneous=True)
    assert got.terms == _from_sympy(sp, want, ys, cutoff)


@pytest.mark.parametrize("seed", range(4))
def test_series_inverse_and_log_against_sympy(sp, seed):
    rng = random.Random(10 + seed)
    dim, cutoff = 1 + seed % 2, 4
    xs = sp.symbols("x1:%d" % (dim + 1))
    c0 = qi(Fraction(rng.randint(1, 3), rng.randint(1, 3)), rng.randint(-1, 1))
    f = _rand_series(rng, dim, cutoff, 5, constant=c0,
                     linear=[qi(Fraction(1, 2), 1)] * dim)
    fx = _to_sympy(sp, f, xs)
    inv = series_inverse(f)
    assert inv.terms == _from_sympy(sp, _series_in_t(sp, 1 / fx, xs, cutoff),
                                    xs, cutoff)
    c = _to_sympy(sp, CoeffFunction.constant(dim, cutoff, c0), xs)
    log = log_series_normalized(f)
    assert log.terms == _from_sympy(
        sp, _series_in_t(sp, sp.log(fx / c), xs, cutoff), xs, cutoff)


@pytest.mark.parametrize("seed", range(4))
def test_functional_inverse_against_sympy(sp, seed):
    """sympy composes the forward map with the inverse both ways; a
    series with zero constant term is determined through the cutoff by
    g(f(y)) = y, so agreement there pins every stored coefficient."""
    rng = random.Random(20 + seed)
    dim, cutoff = 1 + seed % 2, 5
    xs = sp.symbols("x1:%d" % (dim + 1))
    lin = [qi(1, seed), qi(2)] if dim == 2 else [qi(3, -1)]
    fwd = [_rand_series(rng, dim, cutoff, 5,
                        linear=[lin[j] if i == j else (qi(1) if j > i else 0)
                                for j in range(dim)])
           for i in range(dim)]
    inv = functional_inverse(fwd)
    assert all(f.exact_to == cutoff for f in inv)
    assert all(not f.constant_term() for f in inv)
    g = [sp.Poly(_to_sympy(sp, cf, xs), *xs) for cf in fwd]
    f = [sp.Poly(_to_sympy(sp, cf, xs), *xs) for cf in inv]

    def compose(outer, inner):
        """outer(inner) in sympy's polynomial arithmetic, truncated after
        each product."""
        def cut(p):
            return sp.Poly.from_dict(
                {e: c for e, c in p.as_dict().items() if sum(e) <= cutoff}
                or {(0,) * dim: 0}, *xs)

        acc = sp.Poly(0, *xs)
        for e, c in outer.as_dict().items():
            term = sp.Poly(c, *xs)
            for q, p in zip(inner, e):
                for _ in range(p):
                    term = cut(term * q)
            acc = acc + term
        return _from_sympy(sp, acc.as_expr(), xs, cutoff)

    for outer, inner in ((g, f), (f, g)):
        for i in range(dim):
            assert compose(outer[i], inner) == {
                tuple(int(k == i) for k in range(dim)): ONE}
