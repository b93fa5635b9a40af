"""The Lambda-bracket of the free superfield algebra.

Base brackets: [B^i_Lambda Psi^j] = delta_ij = [Psi^j_Lambda B^i], all
other generator pairs vanish, and [Psi^i_Lambda f(B)] = d_i f.  The
bracket extends by sesquilinearity in both slots, by the non-commutative
Wick formula on normally ordered products, and by skew-symmetry when
only the left argument is composite.  The atomic bracket and the skew
map are closed forms of the sesquilinearity rules; the Wick integral
and the Jacobi defect are closed forms in the keys of the two brackets
they nest.

Renaming indices in order changes no base bracket.  So a pair of
monomials whose coefficients are exact constants brackets as its image
at indices 1..k, renamed back, and bracket_mono memoizes both: every
in-order relabelling of a pair shares one computation.  A truncated
coefficient or a kept zero counts as a function of every variable, so
its T and S open keys outside the pair's indices; such a pair is
bracketed at its own indices.

Values are HPoly in the Lambda pair (lambda, chi).  Only the Jacobi
defect also uses the Gamma pair (gamma, eta) of its second bracket.
"""

from __future__ import annotations

from math import comb

from .scalars import QI, ONE, HMONO_ONE, hmono_mul, hmono_parity, _qi
from .terms import (B_KIND, PSI_KIND, Generator, HPoly, NormalForm,
                    gens_parity, nf_one, nf_mono, nf_mul, nf_apply_gen,
                    unit_cf, unit_part, apply_S, hp_zero, hp_chi_part,
                    hp_combine, _is_scalar, _lambda_only, _t_chain)

_BR_CACHE = {}


def clear_caches():
    _BR_CACHE.clear()


def lambda_bracket(a, b):
    """[a_Lambda b] for states a, b; bilinear over Q(i).  An exact
    constant coefficient rides as the scalar of the triples, so the
    memo holds the bracket of the unit-coefficient monomials."""
    triples = []
    right = []
    for g2, c2 in b.terms.items():
        q2, u2 = unit_part(c2)
        right.append((q2, (u2, g2), _support(c2, g2)))
    for g1, c1 in a.terms.items():
        q1, u1 = unit_part(c1)
        bs1, psis1 = _support(c1, g1)
        for q2, m2, (bs2, psis2) in right:
            if bs1 & psis2 or psis1 & bs2:
                triples += bracket_mono((u1, g1), m2).triples(
                    q1 if q2 is ONE else q1 * q2)
    return hp_combine(triples)


def _support(f, gens):
    """The contraction support of the monomial :f gens:, as masks
    (B, Psi) with bit i for a factor of index i.  The variables of f
    count as B's, since [Psi^i_Lambda f] = d_i f; a truncated f, a kept
    zero too, counts as a function of every variable."""
    bs, psis = f._variables(), 0
    for g in gens:
        if g.kind == PSI_KIND:
            psis |= 1 << g.index
        else:
            bs |= 1 << g.index
    return bs, psis


def bracket_mono(m1, m2):
    # the base brackets pair B^i with Psi^i (or a function of x_i) only,
    # so by the Wick formula monomials that share no such pair bracket
    # to zero (two functions of the B fields commute, for one); those
    # zeros are neither computed nor cached
    bs1, psis1 = _support(*m1)
    bs2, psis2 = _support(*m2)
    if not (bs1 & psis2 or psis1 & bs2):
        return hp_zero()
    key = (m1, m2)
    hit = _BR_CACHE.get(key)
    if hit is not None:
        return hit
    to = _packing(m1, m2)
    if to is None:
        out = _bracket_mono(m1, m2)
    else:
        back = dict(zip(to.values(), to))
        out = _relabel_value(bracket_mono(_relabel(m1, to), _relabel(m2, to)),
                             back)
    _BR_CACHE[key] = out
    return out


def _packing(m1, m2):
    """The map of the pair's indices, in order, onto 1..k, or None when
    a coefficient is not an exact constant or the indices are 1..k
    already.  With exact constants every step reads an index only
    through < and ==, opens no key outside the pair's indices and
    leaves constant coefficients, so renaming the value's generators
    back is the whole inverse."""
    if not (_is_scalar(m1[0]) and _is_scalar(m2[0])):
        return None
    indices = sorted({g.index for g in m1[1] + m2[1]})
    if indices[-1] == len(indices):
        return None
    return {i: k for k, i in enumerate(indices, 1)}


def _relabel(m, to):
    f, gens = m
    return f, _relabel_gens(gens, to)


def _relabel_gens(gens, to):
    return tuple(Generator(g.kind, to[g.index], g.t, g.s) for g in gens)


def _relabel_value(p, to):
    return HPoly({m: NormalForm({_relabel_gens(g, to): cf
                                 for g, cf in nf.terms.items()})
                  for m, nf in p.terms.items()})


def _bracket_mono(m1, m2):
    # a truncated constant is a function of every variable: it takes
    # the Wick and skew routes, which lower its marker
    (f1, g1), (f2, g2) = m1, m2
    if g2 and (len(g2) >= 2 or f2._variables()):
        return _wick(m1, (f2, g2[:-1]), g2[-1])
    if len(g1) <= 1 and not f1._variables():
        return _atomic_bracket(m1, m2)
    # left argument composite, right atomic: flip by skew-symmetry
    flipped = bracket_mono(m2, m1)
    return skew(flipped, gens_parity(g1), gens_parity(g2))


def _atomic_bracket(m1, m2):
    """[c T^t S^s x_Lambda m2] for an exact constant c and an underived
    generator x, in closed form; a lone constant has no support, so
    bracket_mono never sends one here.  The left derivations give
    (-lambda)^t chi^s.  Against a pure coefficient f the base value is
    d_i f for x = Psi^i and 0 for x = B^i.  Against c' T^u S^v y it is
    the vacuum for a B/Psi pair of one index and 0 otherwise; T and S
    kill the vacuum, so (lambda + T)^u and -(-1)^{p(x)} (S + chi) leave
    lambda^u (-(-1)^{p(x)} chi)^v."""
    (f1, g1), (f2, g2) = m1, m2
    x = g1[0]
    q = f1.constant_term()
    if g2:
        y = g2[0]
        if x.kind == y.kind or x.index != y.index:
            return hp_zero()
        right, state = (y.t, y.s, 0, 0), nf_one(f1.dim, f1.cutoff)
        q *= f2.constant_term()
        flips = x.t + (y.s and x.kind == B_KIND)
    else:
        # x = Psi^i: bracket_mono's support prune stops B^i against a
        # pure coefficient, since neither side holds a Psi
        right, flips = HMONO_ONE, x.t
        state = nf_mono(f2.partial(x.index), ())
    sign, key = hmono_mul((x.t, x.s, 0, 0), right)
    return hp_combine([(key, -q if (flips + (sign < 0)) & 1 else q, state)])


def _wick(a, b, c_gen):
    """[a_L b c] by the non-commutative Wick formula, c a generator."""
    one = unit_cf(a[0].dim, a[0].cutoff)
    ab = bracket_mono(a, b)
    ac = bracket_mono(a, (one, (c_gen,)))
    # [a_L b] c, then the tail
    t1 = [(m, ONE, nf_apply_gen(nf, c_gen)) for m, nf in ab.terms.items()]
    return hp_combine(t1 + _wick_tail(
        ab, ac, gens_parity(a[1]), nf_mono(*b), gens_parity(b[1]),
        nf_mono(one, (c_gen,))).triples())


def _wick_tail(ab, ac, pa, b, pb, c):
    """The Wick terms of [a_L :b c:] after [a_L b] c, from ab = [a_L b]
    and ac = [a_L c]: b [a_L c], signed (-1)^{(p(a)+1) p(b) + p(b) p(m)}
    at a key m, plus the integral of [[a_L b]_Gamma c] from 0 to Lambda.
    In closed form, lambda^j chi^J (x) d in ab and lambda^k chi^K (x) e
    in [d_L c] give lambda^{j+k+1} chi^J (x) e / (k+1) when K = 1; the
    odd-slot sign of chi^J cancels the sign of removing eta past it."""
    t2 = [(m, -ONE if ((pa + 1) * pb + pb * hmono_parity(m)) & 1 else ONE,
           nf_mul(b, nf)) for m, nf in ac.terms.items()]
    t3 = [((j + k + 1, J, 0, 0), _qi(1, 0, k + 1), e)
          for (j, J, _, _), d_nf in ab.terms.items()
          for k, e in hp_chi_part(lambda_bracket(d_nf, c)).items()]
    return hp_combine(t2 + t3)


def skew(p, parity_a, parity_b):
    """Given [a_Gamma b] computed in the Lambda pair, return
    (-1)^{p(a) p(b)} [a_{-Lambda-grad} b], the skew image [b_Lambda a].

    Each key lambda^k chi^K (x) c maps to (-1)^{k+K+p(a)p(b)} times
    sum_i C(k, i) lambda^i T^{k-i} of chi c, plus of S c when K = 1:
    the closed form of (lambda+T)^k (chi+S)^K applied to c as left
    operators.
    """
    triples = []
    for m, nf in p.terms.items():
        k, K = _lambda_only(m)
        sign = -1 if (k + K + parity_a * parity_b) & 1 else 1
        chains = [(J, _t_chain(head, k)) for J, head in
                  (((1, nf), (0, apply_S(nf))) if K else ((0, nf),))]
        for i in range(k, -1, -1):
            q = QI(sign * comb(k, i))
            triples += [((i, J, 0, 0), q, c[k - i]) for J, c in chains]
    return hp_combine(triples)


def jacobi_defect(a, b, c):
    """[a_L [b_G c]] + (-1)^{p(a)} [[a_L b]_{G+L} c]
    - (-1)^{(p(a)+1)(p(b)+1)} [b_G [a_L c]]; zero when Jacobi holds.

    Each term is built from the key (j, J, k, K), for lambda^j chi^J
    gamma^k eta^K, of the state d in an outer bracket and the state e in
    the bracket with d."""
    pa = a.parity()
    pb = b.parity()
    if pa is None or pb is None:
        raise ValueError("jacobi_defect needs homogeneous arguments")

    # X1 = [a_L [b_G c]]: gamma^k eta^K (x) d in [b_L c]
    x1 = hp_combine([
        ((j, J, k, K), -ONE if K * (J + pa + 1) & 1 else ONE, e)
        for (k, K, _, _), d_nf in lambda_bracket(b, c).terms.items()
        for (j, J, _, _), e in lambda_bracket(a, d_nf).terms.items()])

    # X2 = [[a_L b]_{G+L} c]: lambda^j chi^J (x) d in [a_L b]; gamma +
    # lambda and eta + chi expand lambda^k chi^K (x) e in [d_L c] into
    # C(k, i) lambda^i gamma^{k-i} and the words chi^A eta^B
    x2 = hp_combine([
        ((j + i + J * A, J ^ A, k - i, B),
         QI((-1 if J * (A + 1) & 1 else 1) * comb(k, i)), e)
        for (j, J, _, _), d_nf in lambda_bracket(a, b).terms.items()
        for (k, K, _, _), e in lambda_bracket(d_nf, c).terms.items()
        for i in range(k + 1)
        for A, B in (((0, 1), (1, 0)) if K else ((0, 0),))])

    # X3 = [b_G [a_L c]]: lambda^j chi^J (x) d in [a_L c]
    x3 = hp_combine([
        ((j, J, k, K), -ONE if J * (pb + 1) & 1 else ONE, e)
        for (j, J, _, _), d_nf in lambda_bracket(a, c).terms.items()
        for (k, K, _, _), e in lambda_bracket(b, d_nf).terms.items()])

    return hp_combine(x1.triples()
                      + x2.triples(-ONE if pa & 1 else ONE)
                      + x3.triples(ONE if (pa + 1) * (pb + 1) & 1 else -ONE))
