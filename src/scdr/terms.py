"""States of the free superfield algebra and their PBW normal form.

A state is a Q(i)-linear combination of monomials

    :f(B) g_1 g_2 ... g_k:

where f is a CoeffFunction of the even superfields B^1..B^n, each g_m is
a derived generator T^t S^s B^i or T^t S^s Psi^i, the product is the
left-nested normally ordered product, factors are sorted in a fixed
canonical order, and odd factors never repeat (even factors may).  An
underived B^i is absorbed into the coefficient as the coordinate
function x_i, so it never appears as a factor.

A state does not record its algebra: each coefficient holds the pair
(dim, cutoff), so the functions below take none, and the few that build
a coefficient from nothing (a unit, a coordinate, the vacuum) read the
pair from a coefficient they already hold.

Every sum is one nf_combine over (q, state) pairs, which merges a scaled
coefficient as old + q * cf in one pass (CoeffFunction.add_scaled).  So
an exact constant coefficient rides as a pair's scalar: unit_part splits
it off before a monomial reaches a memo, and a constant times the
vacuum, the unit of the product, multiplies as the constant alone.

Reordering uses quasi-commutativity and quasi-associativity of the
normally ordered product, whose correction terms involve Lambda-brackets;
the bracket module and this one are mutually recursive, so bracket
imports are deferred to call time.

Lambda-bracket values are HPoly: polynomials in the Lambda pair
(lambda, chi), and for the Jacobi defect also in the Gamma pair
(gamma, eta), with NormalForm coefficients.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .scalars import (CoeffFunction, QI, ONE, as_qi, render_qi, _qi, _ratio,
                      hmono_parity, hmono_render)

B_KIND = 0
PSI_KIND = 1


class Generator(NamedTuple):
    """A derived generator T^t S^s B^index or T^t S^s Psi^index."""
    kind: int
    index: int
    t: int
    s: int

    def parity(self):
        # B is even, Psi is odd, S flips parity, T preserves it
        return (self.kind + self.s) & 1

    def is_coordinate(self):
        """An underived B^i, which is the coordinate function x_i."""
        return self.kind == B_KIND and self.t == 0 and self.s == 0

    def d_S(self):
        # S^2 = T on generators
        if self.s == 0:
            return Generator(self.kind, self.index, self.t, 1)
        return Generator(self.kind, self.index, self.t + 1, 0)

    def d_T(self):
        return Generator(self.kind, self.index, self.t + 1, self.s)

    def render(self):
        """Prefix form, e.g. "T S B1"; the derivation operators bind
        tightly to the generator so the form needs no parentheses even
        inside a normally ordered product."""
        base = ("B%d" if self.kind == B_KIND else "Psi%d") % self.index
        out = base
        if self.s:
            out = "S " + out
        for _ in range(self.t):
            out = "T " + out
        return out


def gens_parity(gens):
    return sum(g.parity() for g in gens) & 1


class NormalForm:
    """A state in PBW normal form.

    terms maps sorted generator tuples to CoeffFunctions that are
    nonzero or kept zeros: no terms, but a finite exact_to.  Every
    degree marker of a state sits on a coefficient, and exact_to reads
    the least of them, inf for an exact state.  A state does not record
    its algebra, (dim, cutoff): its coefficients do, so the zero state
    of every algebra is one value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", {
            gens: cf for gens, cf in terms.items()
            if cf.terms or cf.exact_to < inf})

    def __setattr__(self, name, value):
        raise AttributeError("NormalForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "NormalForm(%s)" % render_nf(self)

    @property
    def exact_to(self):
        return min((cf.exact_to for cf in self.terms.values()), default=inf)

    def is_zero(self):
        """Whether every coefficient is zero, kept zeros included."""
        return not any(cf.terms for cf in self.terms.values())

    def is_zero_through(self, degree):
        return all(cf.is_zero_through(degree) for cf in self.terms.values())

    def parity(self):
        """0 or 1 for homogeneous states, None for mixed ones.  A kept
        zero holds no term for a sign to act on, so it has no parity."""
        ps = {gens_parity(g) for g, cf in self.terms.items() if cf.terms}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def sorted_terms(self):
        return sorted(self.terms.items())


def nf_zero():
    return NormalForm({})


def nf_one(dim, cutoff):
    return NormalForm({(): unit_cf(dim, cutoff)})


def nf_mono(cf, gens):
    return NormalForm({tuple(gens): cf})


def nf_combine(pairs):
    """The state sum of q * state over (q, state) pairs, in one pass.

    Coefficients of one monomial add as CoeffFunctions, whose + keeps
    the least marker; one that cancels with a finite marker stays as a
    kept zero, and one that cancels exactly drops out.  So no marker is
    lost, also for q = 0, and the order of the pairs cannot move one:
    the sum's exact_to is the least of the states' markers.

    A coefficient that meets one already in the sum is merged as
    old + q * cf by CoeffFunction.add_scaled, in one pass, so a scaled
    pair allocates one coefficient, not two.  The terms come out
    clean, so the sum skips the constructor.  States are immutable, so
    when only one state has terms and its scalar is 1, that state is
    the sum itself.  States with terms from two algebras, by (dim,
    cutoff), raise.
    """
    pairs = tuple(pairs)  # nf_sum passes a generator
    live = [p for p in pairs if p[1].terms]
    if len(live) == 1 and live[0][0] == ONE:
        return live[0][1]
    terms = {}
    first = None
    for q, nf in live:
        head = next(iter(nf.terms.values()))
        if first is None:
            first = head
        elif head.dim != first.dim or head.cutoff != first.cutoff:
            raise ValueError("dimension or cutoff mismatch")
        if q is not ONE:
            q = as_qi(q)
        for gens, cf in nf.terms.items():
            old = terms.get(gens)
            if old is not None:
                cf = old.add_scaled(cf, q)
            elif q is not ONE:
                cf = cf.scale(q)
            if cf.terms or cf.exact_to < inf:
                terms[gens] = cf
            elif old is not None:
                del terms[gens]
    out = object.__new__(NormalForm)
    object.__setattr__(out, "terms", terms)
    return out


def nf_add(a, b):
    return nf_combine(((ONE, a), (ONE, b)))


def nf_sub(a, b):
    return nf_combine(((ONE, a), (-ONE, b)))


def nf_scale(a, q):
    return nf_combine(((q, a),))


def nf_sum(items):
    return nf_combine((ONE, it) for it in items)


# -- the normally ordered product -------------------------------------
#
# mono arguments below are pairs (cf, gens) with gens a tuple of
# Generators; they denote the left-nested product (((cf g_1) g_2) ...).
# Caches are keyed on these pairs alone: they keep the states of two
# algebras apart because CoeffFunction equality covers dim and cutoff.
# An exact constant coefficient c never reaches a key: unit_part splits
# it off as the scalar of the caller's (q, state) pair, and the key
# holds the shared unit, so :c m: and :m: share one entry.

_MUL_CACHE = {}
_GEN_CACHE = {}
_UNIT_CACHE = {}


def clear_caches():
    _MUL_CACHE.clear()
    _GEN_CACHE.clear()
    _UNIT_CACHE.clear()
    from . import bracket
    bracket.clear_caches()


def unit_cf(dim, cutoff):
    """The exact constant 1, one shared value per (dim, cutoff)."""
    unit = _UNIT_CACHE.get((dim, cutoff))
    if unit is None:
        unit = CoeffFunction.constant(dim, cutoff, ONE)
        _UNIT_CACHE[dim, cutoff] = unit
    return unit


def _is_scalar(cf):
    """Whether cf is an exact constant: one term, no variable, exact."""
    return len(cf.terms) == 1 and cf.exact_to == inf and not cf._variables()


def unit_part(cf):
    """(c, unit) for an exact constant cf = c, else (ONE, cf): a memo
    keyed on the unit serves every multiple of it."""
    if not _is_scalar(cf):
        return ONE, cf
    c, = cf.terms.values()
    return (ONE if c == ONE else c), unit_cf(cf.dim, cf.cutoff)


def _is_vacuum_multiple(mono):
    return not mono[1] and _is_scalar(mono[0])


def mono_mul(m1, m2):
    """Normally ordered product of two monomials, as a NormalForm."""
    f1, g1 = m1
    f2, g2 = m2
    if _is_vacuum_multiple(m1) or _is_vacuum_multiple(m2):
        # the vacuum is the unit of the product, and a constant brackets
        # to zero with everything, so c vac commutes past any monomial
        return nf_mono(f1 * f2, g1 + g2)
    key = (m1, m2)
    hit = _MUL_CACHE.get(key)
    if hit is not None:
        return hit
    if g2:
        # m2 = rest . h: use a(bc) = (ab)c - quasi-associativity terms
        rest = (f2, g2[:-1])
        h = g2[-1]
        out = nf_sub(nf_apply_gen(mono_mul(m1, rest), h),
                     qa_terms(m1, rest, h))
    elif g1:
        # m2 is a pure coefficient (even): commute it to the left,
        # m1 f2 = f2 m1 + integral of [m1_Lambda f2]
        out = nf_add(mono_mul((f2, ()), m1), qc_integral(m1, m2))
    else:
        out = nf_mono(f1 * f2, ())
    _MUL_CACHE[key] = out
    return out


def nf_apply_gen(nf, h):
    pairs = []
    for gens, cf in nf.terms.items():
        q, unit = unit_part(cf)
        pairs.append((q, nf_mul_gen((unit, gens), h)))
    return nf_combine(pairs)


def nf_mul_gen(mono, h):
    """Right-multiply a monomial by a single derived generator."""
    key = (mono, h)
    hit = _GEN_CACHE.get(key)
    if hit is not None:
        return hit
    out = _nf_mul_gen(mono, h)
    _GEN_CACHE[key] = out
    return out


def _nf_mul_gen(mono, h):
    f, gens = mono
    if not gens or _in_order(gens[-1], h):
        return nf_mono(f, gens + (h,))
    # [g_Lambda h] of two derived generators is a scalar times the
    # vacuum, which T kills: the quasi-commutativity integral vanishes
    g = gens[-1]
    rest = (f, gens[:-1])
    one = unit_cf(f.dim, f.cutoff)
    if g == h:
        # odd square: (rest g) g = qa(rest, g, g)
        return qa_terms(rest, (one, (g,)), g)
    # h < g: (rest g) h = +-(rest h) g -+ qa(rest, h, g) + qa(rest, g, h)
    sign = QI((-1) ** (g.parity() * h.parity()))
    return nf_combine([
        (sign, nf_apply_gen(nf_mul_gen(rest, h), g)),
        (-sign, qa_terms(rest, (one, (h,)), g)),
        (ONE, qa_terms(rest, (one, (g,)), h))])


def _in_order(g, h):
    """Whether the factor h may follow g in a normal-form monomial."""
    return g < h or (g == h and g.parity() == 0)


def nf_mul(a, b):
    """Normally ordered product of two states (bilinear over Q(i))."""
    right = [(unit_part(c2), g2) for g2, c2 in b.terms.items()]
    pairs = []
    for g1, c1 in a.terms.items():
        q1, u1 = unit_part(c1)
        for (q2, u2), g2 in right:
            pairs.append((q1 if q2 is ONE else q1 * q2,
                          mono_mul((u1, g1), (u2, g2))))
    return nf_combine(pairs)


def qa_terms(a_mono, b_mono, c_gen):
    """Quasi-associativity correction (ab)c - a(bc) for monomials a, b
    and a single generator c."""
    if _is_vacuum_multiple(a_mono) or _is_vacuum_multiple(b_mono):
        # a constant has no support and T kills it: every term is zero
        return nf_zero()
    from .bracket import bracket_mono
    f = a_mono[0]
    c_nf_mono = (unit_cf(f.dim, f.cutoff), (c_gen,))
    pb = bracket_mono(b_mono, c_nf_mono)
    pa = bracket_mono(a_mono, c_nf_mono)
    pa_par = gens_parity(a_mono[1])
    pb_par = gens_parity(b_mono[1])
    sign = QI((-1) ** (pa_par * pb_par))
    # T^(j+1) a / (j+1) pairs with the lambda^j chi coefficient of pb,
    # T^(j+1) b / (j+1) with that of pa: each chain stops at its last use
    chi_b, chi_a = hp_chi_part(pb), hp_chi_part(pa)
    ta = _t_chain(nf_mono(*a_mono), max(chi_b, default=-1) + 1)
    tb = _t_chain(nf_mono(*b_mono), max(chi_a, default=-1) + 1)
    pairs = []
    for j in sorted(chi_b.keys() | chi_a.keys()):
        q = _qi(1, 0, j + 1)
        if j in chi_b:
            pairs.append((q, nf_mul(ta[j + 1], chi_b[j])))
        if j in chi_a:
            pairs.append((sign * q, nf_mul(tb[j + 1], chi_a[j])))
    return nf_combine(pairs)


def qc_integral(m1, m2):
    """The quasi-commutativity correction: the bracket [m1_Lambda m2]
    integrated over Lambda from -grad to 0.  Only keys with chi count,
    and lambda^j chi (x) d gives (-1)^j T^{j+1} d / (j+1)."""
    from .bracket import bracket_mono
    p = bracket_mono(m1, m2)
    return nf_combine([(_qi((-1) ** j, 0, j + 1), _t_chain(nf, j + 1)[-1])
                       for j, nf in hp_chi_part(p).items()])


# -- derivations ------------------------------------------------------


def apply_T(nf):
    """The even translation operator T, a derivation of the product."""
    return _leibniz(nf, 1, 0)


def apply_S(nf):
    """The odd derivation S with S^2 = T."""
    return _leibniz(nf, 0, 1)


def _t_chain(nf, n):
    """[nf, T nf, ..., T^n nf]."""
    chain = [nf]
    for _ in range(n):
        chain.append(apply_T(chain[-1]))
    return chain


def _leibniz(nf, t, s):
    """T (t = 1) or S (s = 1) of nf by the Leibniz rule: a coefficient f
    gives d_j f T^t S^s B^j, each factor its own derivative, and S takes
    a sign past every odd factor.  A truncated f, a kept zero too,
    counts as a function of every variable."""
    pairs = []
    for gens, cf in nf.terms.items():
        mask = cf._variables()
        for j in range(1, cf.dim + 1):
            if not mask >> j & 1:
                continue
            lead = Generator(B_KIND, j, t, s)
            pairs.append((ONE, mono_from_factors(cf.partial(j),
                                                 (lead,) + gens)))
        sign = ONE
        for i, g in enumerate(gens):
            repl = gens[:i] + (g.d_S() if s else g.d_T(),) + gens[i + 1:]
            pairs.append((sign, mono_from_factors(cf, repl)))
            if s and g.parity():
                sign = -sign
    return nf_combine(pairs)


def mono_from_factors(cf, factors):
    """Left-nested normally ordered product of cf and the given derived
    generator factors, in the given order.  The leading run of factors
    already in normal order is one monomial as it stands."""
    n = 0
    for h in factors:
        if n and not _in_order(factors[n - 1], h):
            break
        n += 1
    nf = nf_mono(cf, factors[:n])
    for h in factors[n:]:
        nf = nf_apply_gen(nf, h)
    return nf


# -- lambda/chi polynomials with NormalForm coefficients --------------


class HPoly:
    """Polynomial in the Lambda pair (lambda, chi) and the Gamma pair
    (gamma, eta) with state coefficients; only the Jacobi defect uses
    Gamma, for its second bracket.  Monomial keys are the (j, J, k, K)
    tuples of scalars.hmono_*.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        # a state with no coefficient is no term
        object.__setattr__(self, "terms", {
            m: nf for m, nf in terms.items() if nf.terms})

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "HPoly(%s)" % render_hpoly(self)

    def triples(self, q=ONE):
        """The (key, scalar, state) triples of q times this poly."""
        return [(m, q, nf) for m, nf in self.terms.items()]

    def coeff_or_zero(self, mono):
        nf = self.terms.get(mono)
        return nf if nf is not None else nf_zero()

    def is_zero_through(self, degree):
        return all(nf.is_zero_through(degree) for nf in self.terms.values())

    def exact_to(self):
        return min((nf.exact_to for nf in self.terms.values()), default=inf)


def hp_zero():
    return HPoly({})


def hp_combine(triples):
    """The bracket value sum of q * key * state over (key, q, state)
    triples: the pairs of each key summed by nf_combine.  A state with
    no coefficient opens no key, so keys open in the same order
    whichever zeros a sum meets."""
    groups = {}
    for m, q, nf in triples:
        if nf.terms:
            groups.setdefault(m, []).append((q, nf))
    return HPoly({m: nf_combine(pairs) for m, pairs in groups.items()})


def hp_sub(a, b):
    return hp_combine(a.triples() + b.triples(-ONE))


def _lambda_only(m):
    if m[2] or m[3]:
        raise ValueError("expected a pure-Lambda polynomial")
    return m[0], m[1]


def hp_chi_part(p):
    """The classical lambda-bracket: the chi-linear part as a map
    j -> state coefficient of lambda^j chi."""
    out = {}
    for m, nf in p.terms.items():
        j, J = _lambda_only(m)
        if J:
            out[j] = nf
    return out


# -- the ambient algebra ----------------------------------------------


class Algebra:
    """Ambient configuration: number of superfields and series cutoff."""

    def __init__(self, dim, cutoff):
        self.dim = dim
        self.cutoff = cutoff

    def zero(self):
        return nf_zero()

    def one(self):
        return nf_one(self.dim, self.cutoff)

    def coordinate(self, i):
        return CoeffFunction.coordinate(self.dim, self.cutoff, i)

    def nf_gen(self, kind, index, t=0, s=0):
        g = Generator(kind, index, t, s)
        if g.is_coordinate():
            return nf_mono(self.coordinate(index), ())
        return nf_mono(unit_cf(self.dim, self.cutoff), (g,))

    def B(self, i):
        return self.nf_gen(B_KIND, i)

    def Psi(self, i):
        return self.nf_gen(PSI_KIND, i)

    def SB(self, i):
        return self.nf_gen(B_KIND, i, 0, 1)

    def SPsi(self, i):
        return self.nf_gen(PSI_KIND, i, 0, 1)

    def TB(self, i):
        return self.nf_gen(B_KIND, i, 1, 0)

    def coeff_nf(self, cf):
        return nf_mono(cf, ())

    def normalize(self, nf):
        """Return nf: the parser builds states in normal form already.
        Kept because perfbench/run.py calls it on parsed states."""
        return nf


# -- rendering --------------------------------------------------------


def render_cf_literal(cf):
    parts = []
    for e in sorted(cf.terms):
        parts.append('"%s": "%s"' % (",".join(str(x) for x in e),
                                     render_qi(cf.terms[e])))
    return "f{%s}" % ", ".join(parts)


def _scalar_addends(q):
    a, b, d = q.a, q.b, q.d
    out = []
    if a:
        out.append(_ratio(a, d))
    if b:
        out.append("i" if b == d else "-i" if b == -d
                   else _ratio(b, d) + " * i")
    return out or ["0"]


def _render_mono_addends(cf, gens):
    """Render one normal-form monomial as a list of DSL addend strings."""
    if not gens:
        if cf.is_constant():
            return _scalar_addends(cf.constant_term())
        if len(cf.terms) == 1:
            (e, q), = cf.terms.items()
            if sum(e) == 1 and q == ONE:
                return ["B%d" % (e.index(1) + 1)]
        return [render_cf_literal(cf)]
    gen_parts = [g.render() for g in gens]
    if not cf.is_constant():
        core = ":%s:" % " ".join([render_cf_literal(cf)] + gen_parts)
        return [core]
    core = gen_parts[0] if len(gen_parts) == 1 else \
        ":%s:" % " ".join(gen_parts)
    return [core if s == "1" else "-" + core if s == "-1"
            else "%s * %s" % (s, core)
            for s in _scalar_addends(cf.constant_term())]


def _join_addends(addends):
    """Join with explicit '-' so every rendered sum stays parseable."""
    out = [addends[0]]
    for a in addends[1:]:
        if a.startswith("-"):
            out.append(" - " + a[1:].lstrip())
        else:
            out.append(" + " + a)
    return "".join(out)


def render_nf(nf):
    """The DSL form of nf; a kept zero prints nothing."""
    addends = []
    for gens, cf in nf.sorted_terms():
        if cf.terms:
            addends.extend(_render_mono_addends(cf, gens))
    return _join_addends(addends) if addends else "0"


def render_hpoly(p):
    """The DSL form of p; a key whose state holds only kept zeros prints
    nothing, as render_nf prints no kept zero."""
    parts = []
    for m in sorted(p.terms, key=lambda m: (hmono_parity(m), m)):
        nf = p.terms[m]
        if nf.is_zero():
            continue
        head = hmono_render(m)
        body = render_nf(nf)
        if head == "1":
            parts.append(body)
        elif body == "1":
            parts.append(head)
        else:
            parts.append("%s * (%s)" % (head, body))
    return _join_addends(parts) if parts else "0"
