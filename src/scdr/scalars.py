"""Exact scalar arithmetic for the superfield engine.

Three layers live here:

  * QI           -- Gaussian rationals (a + b*i) / d on reduced int triples.
  * CoeffFunction -- truncated multivariate power series over QI, the
                     coefficient functions f(B^1, ..., B^n) of the algebra.
  * super-monomials -- exponent bookkeeping for polynomials in the
                     Lambda pair (lambda, chi) and the Gamma pair
                     (gamma, eta), subject to chi^2 = -lambda,
                     eta^2 = -gamma and chi eta = -eta chi.

Everything is immutable and hashable so results can be memoized.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, inf, lcm


class QI:
    """A Gaussian rational (a + b*i) / d.

    a, b and d are ints with d > 0 and gcd(a, b, d) == 1, so every value
    has one triple (zero is (0, 0, 1)), and equality and hashing read
    it.  re and im give the two parts as Fractions."""

    __slots__ = ("a", "b", "d", "_hash")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _init(self, re, im, 1)
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is reduced
        d = lcm(re.denominator, im.denominator)
        _init(self, re.numerator * (d // re.denominator),
              im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __repr__(self):
        return "QI(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return render_qi(self)

    def __eq__(self, other):
        if type(other) is not QI:
            other = as_qi(other)
            if other is None:
                return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.d == other.d)

    def __hash__(self):
        h = self._hash
        if h is None:
            a, d = self.a, self.d
            if self.b:
                h = hash((a, self.b, d))
            elif d == 1:
                h = hash(a)
            elif d % _HASH_MODULUS:
                # as Fraction(a, d) hashes: |a| times the inverse of d
                h = hash(abs(a)) * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
                h = h if a > 0 else -2 if h == 1 else -h
            else:
                h = hash(Fraction(a, d))
            _set_hash(self, h)
        return h

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        if type(other) is not QI:
            other = as_qi(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _qi(self.a + other.a, self.b + other.b, d1)
        return _qi(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                   d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _init(_new(QI), -self.a, -self.b, self.d)

    def __sub__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not QI:
            other = as_qi(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _qi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QI:
            other = as_qi(other)
            if other is None:
                return NotImplemented
        # times d2 (a2 - b2 i) / (a2^2 + b2^2), the inverse of other
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        d2 = other.d
        return _qi((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                   self.d * n)

    def __rtruediv__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return other / self

    def conj(self):
        return _init(_new(QI), self.a, -self.b, self.d)

    def is_rational(self):
        return self.b == 0


_new = object.__new__
_HASH_MODULUS = sys.hash_info.modulus
# the slots' own setters, which pass by QI.__setattr__
_set_a, _set_b, _set_d, _set_hash = (
    QI.a.__set__, QI.b.__set__, QI.d.__set__, QI._hash.__set__)


def _init(q, a, b, d):
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    _set_hash(q, None)
    return q


def _qi(a, b, d):
    """The QI (a + b*i) / d from ints with d > 0, reduced by one gcd,
    without the coercion of the public constructor: the results of QI
    and series arithmetic."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _init(_new(QI), a, b, d)


ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)


def as_qi(x):
    """Coerce ints, Fractions and QI to QI; return None when impossible."""
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return _qi(x.numerator, 0, x.denominator)
    return None


def parse_qi(text):
    """Parse scalars like '2', '-1/3', 'i', '-i', '1/2 i', '1/2 + 1/3 i'.
    Each rational part is an optionally signed integer or p/q."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar literal")
    # split a trailing additive imaginary part if present; the sign must
    # follow a completed term, not an operator (skip spaces to see it)
    depth_split = None
    for k in range(len(s) - 1, 0, -1):
        if s[k] in "+-":
            j = k - 1
            while j > 0 and s[j] == " ":
                j -= 1
            if s[j] not in "+-/*( ":
                depth_split = k
                break
    if depth_split is not None and "i" in s[depth_split:]:
        head = parse_qi(s[:depth_split])
        sign = 1 if s[depth_split] == "+" else -1
        tail = parse_qi(s[depth_split + 1:])
        return head + QI(sign) * tail
    if s.endswith("i"):
        body = s[:-1].strip()
        if body in ("", "+"):
            return I
        if body == "-":
            return -I
        if body.endswith("*"):
            body = body[:-1].strip()
        return QI(0, _rational(body))
    return QI(_rational(s))


# the DSL's NUMBER with an optional sign; Fraction alone would also
# read decimals, underscores and exponents such as '1e-2000000'
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rational(text):
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError("scalar %r is not an integer or p/q" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


_EXPONENT = re.compile(r"-?[0-9]+")


def parse_exponents(key, dim, seen=()):
    """The exponent tuple of a coefficient key such as '2,0,1', one
    decimal integer per variable.  A tuple already in seen is an error,
    so that '1' and '01' cannot both name a term."""
    parts = [p.strip() for p in key.split(",")]
    if not all(_EXPONENT.fullmatch(p) for p in parts):
        raise ValueError("exponent key %r is not a list of integers" % key)
    exps = tuple(int(p) for p in parts)
    if len(exps) != dim:
        raise ValueError("exponent key %r must list one exponent per "
                         "variable (dim %d)" % (key, dim))
    if exps in seen:
        raise ValueError("exponent key %r repeats an earlier key" % key)
    return exps


def _ratio(n, d):
    """The text of n / d for ints with d > 0, as str(Fraction(n, d))."""
    g = gcd(n, d)
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


def render_qi(q):
    """Canonical text for a QI scalar, e.g. '1/2', '-i', '1/2 - 1/3 i'."""
    a, b, d = q.a, q.b, q.d
    if not b:
        return _ratio(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = _ratio(b, d) + " i"
    if not a:
        return im
    if b > 0:
        return "%s + %s" % (_ratio(a, d), im)
    return "%s - %s" % (_ratio(a, d), im[1:])


class CoeffFunction:
    """Truncated power series in n variables with QI coefficients.

    terms maps exponent tuples (length dim, total degree <= cutoff) to
    nonzero QI values.  exact_to is inf when the series is known exactly
    as stored, or an integer d when the stored coefficients are only
    guaranteed complete through total degree d.  Markers fold by min and
    lower by plain arithmetic, inf - 1 being inf.  Arithmetic that drops
    a nonzero term of degree > cutoff lowers exact_to to cutoff; the
    marker never improves under further operations.

    Multiplication runs on integers, over a packed form cached on first
    use and left out of equality and hashing (see _pack); so is the mask
    of the variables the series depends on (see _variables).
    """

    __slots__ = ("dim", "cutoff", "terms", "exact_to", "_hash", "_packed",
                 "_vars")

    def __init__(self, dim, cutoff, terms, exact_to=inf):
        clean = {}
        for e, c in terms.items():
            if not isinstance(c, QI):
                c = QI(c)
            if not c:
                continue
            if len(e) != dim:
                raise ValueError("exponent length %d != dim %d" % (len(e), dim))
            if sum(e) > cutoff:
                raise ValueError("stored exponent exceeds cutoff")
            if e and min(e) < 0:
                raise ValueError("negative exponent in %r" % (e,))
            clean[e] = c
        _fill(self, dim, cutoff, clean, exact_to)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffFunction is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(dim, cutoff, value):
        return CoeffFunction(dim, cutoff, {(0,) * dim: as_qi(value)})

    @staticmethod
    def zero(dim, cutoff):
        return CoeffFunction(dim, cutoff, {})

    @staticmethod
    def coordinate(dim, cutoff, i):
        """The coordinate function x_i, 1-based index."""
        if not 1 <= i <= dim:
            raise ValueError("coordinate index out of range")
        e = [0] * dim
        e[i - 1] = 1
        return CoeffFunction(dim, cutoff, {tuple(e): ONE})

    @staticmethod
    def monomial(dim, cutoff, exponents, value=ONE):
        return CoeffFunction(dim, cutoff, {tuple(exponents): as_qi(value)})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        if not self.terms:
            return True
        return len(self.terms) == 1 and (0,) * self.dim in self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.dim, ZERO)

    def is_zero_through(self, degree):
        """True when every stored term of total degree <= degree vanishes."""
        return all(sum(e) > degree for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CoeffFunction):
            return NotImplemented
        return (self.dim == other.dim and self.cutoff == other.cutoff
                and self.terms == other.terms and self.exact_to == other.exact_to)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.dim, self.cutoff, self.exact_to,
                      tuple(sorted(self.terms.items(), key=lambda t: t[0]))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "CoeffFunction(%d, %d, %r, exact_to=%r)" % (
            self.dim, self.cutoff, self.terms, self.exact_to)

    def _check_compat(self, other):
        if self.dim != other.dim or self.cutoff != other.cutoff:
            raise ValueError("dimension or cutoff mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            s = c if old is None else old + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        x, y = self.exact_to, other.exact_to  # min, by hand: see nf_combine
        return _cf(self.dim, self.cutoff, terms, x if x < y else y)

    def __neg__(self):
        return _cf(self.dim, self.cutoff,
                   {e: -c for e, c in self.terms.items()}, self.exact_to)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = as_qi(q)
        if not q:
            return _cf(self.dim, self.cutoff, {}, self.exact_to)
        if not q.b and q.d == 1 and q.a in (1, -1):
            return self if q.a == 1 else -self
        return _cf(self.dim, self.cutoff,
                   {e: c * q for e, c in self.terms.items()}, self.exact_to)

    def _pack(self):
        """(D, rows): a common denominator D and rows (degree, key, a, b)
        with a + b*i = D*c, sorted by degree.  key holds the exponents as
        digits in base cutoff + 1, so keys add as exponent tuples do."""
        packed = self._packed
        if packed is None:
            den = lcm(*[c.d for c in self.terms.values()])
            base = self.cutoff + 1
            rows = sorted((sum(e), reduce(lambda k, p: k * base + p, e, 0),
                           c.a * (den // c.d), c.b * (den // c.d))
                          for e, c in self.terms.items())
            packed = (den, rows)
            object.__setattr__(self, "_packed", packed)
        return packed

    def _variables(self):
        """Bit i set when some stored exponent of x_i (1-based) is
        positive.  A truncated series gets -1, every variable: each of
        its partial derivatives carries the lowered degree marker."""
        mask = self._vars
        if mask is None:
            mask = -1
            if self.exact_to == inf:
                mask = 0
                for e in self.terms:
                    for i, p in enumerate(e, 1):
                        if p:
                            mask |= 1 << i
            object.__setattr__(self, "_vars", mask)
        return mask

    def __mul__(self, other):
        self._check_compat(other)
        cutoff = self.cutoff
        den1, rows1 = self._pack()
        den2, rows2 = other._pack()
        re, im = {}, {}
        # rows are sorted by degree, so the first row of other that
        # leaves the cutoff ends the inner loop
        for d1, k1, a1, b1 in rows1:
            room = cutoff - d1
            for d2, k2, a2, b2 in rows2:
                if d2 > room:
                    break
                k = k1 + k2
                re[k] = re.get(k, 0) + a1 * a2 - b1 * b2
                im[k] = im.get(k, 0) + a1 * b2 + b1 * a2
        den, dim = den1 * den2, self.dim
        terms = {}
        for k, a in re.items():
            b = im[k]
            if not (a or b):
                continue
            e = [0] * dim
            for j in range(dim - 1, -1, -1):
                k, e[j] = divmod(k, cutoff + 1)
            terms[tuple(e)] = _qi(a, b, den)
        x, y = self.exact_to, other.exact_to
        exact = x if x < y else y
        if rows1 and rows2 and rows1[-1][0] + rows2[-1][0] > cutoff:
            exact = min(exact, cutoff)  # some pair left the cutoff
        return _cf(dim, cutoff, terms, exact)

    def partial(self, i):
        """Formal partial derivative in x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError("coordinate index out of range")
        k = i - 1
        terms = {}
        for e, c in self.terms.items():
            p = e[k]
            if not p:
                continue
            ne = list(e)
            ne[k] = p - 1
            terms[tuple(ne)] = _qi(c.a * p, c.b * p, c.d)
        return _cf(self.dim, self.cutoff, terms, self.exact_to - 1)

    def compose(self, subs):
        """Substitute subs[k] for x_{k+1}; subs are series in some other
        coordinate system sharing one cutoff, with zero constant term."""
        if len(subs) != self.dim:
            raise ValueError("need %d substituted series" % self.dim)
        if not subs:
            raise ValueError("zero-dimensional composition")
        tdim = subs[0].dim
        cutoff = subs[0].cutoff
        if any(s.constant_term() for s in subs):
            raise ValueError("substituted series has a constant term")
        exact = min(self.exact_to, *[s.exact_to for s in subs])
        one = CoeffFunction.constant(tdim, cutoff, ONE)
        # sum the stored terms; each power of a sub is computed once
        result = CoeffFunction.zero(tdim, cutoff)
        powers = [{0: one} for _ in range(self.dim)]

        def power(k, p):
            cache = powers[k]
            if p not in cache:
                cache[p] = power(k, p - 1) * subs[k]
            return cache[p]

        for e, c in self.terms.items():
            term = one.scale(c)
            for k, p in enumerate(e):
                if p:
                    term = term * power(k, p)
            result = result + term
        return _cf(result.dim, result.cutoff, result.terms,
                   min(result.exact_to, exact))


def _cf(dim, cutoff, terms, exact_to):
    """A CoeffFunction from terms that are already clean (nonzero QI
    values at nonnegative exponents within the cutoff), without the
    checks of the public constructor: the results of series arithmetic."""
    return _fill(object.__new__(CoeffFunction), dim, cutoff, terms, exact_to)


def _fill(f, dim, cutoff, terms, exact_to):
    object.__setattr__(f, "dim", dim)
    object.__setattr__(f, "cutoff", cutoff)
    object.__setattr__(f, "terms", terms)
    object.__setattr__(f, "exact_to", exact_to)
    object.__setattr__(f, "_hash", None)
    object.__setattr__(f, "_packed", None)
    object.__setattr__(f, "_vars", None)
    return f


# -- series helpers ---------------------------------------------------


def series_inverse(f):
    """Multiplicative inverse 1/f for f with invertible constant term:
    the 1 x 1 case of _mat_inverse."""
    if not f.constant_term():
        raise ValueError("series has no invertible constant term")
    return _mat_inverse([[f]])[0][0]


def log_series_normalized(f):
    """log(f / f(0)) as a series with zero constant term.

    Only derivatives of the result are ever used by the engine, so the
    additive constant log f(0), which is not rational in general, is
    dropped.
    """
    c = f.constant_term()
    if not c:
        raise ValueError("log of a series with zero constant term")
    u = f.scale(ONE / c) - CoeffFunction.constant(f.dim, f.cutoff, ONE)
    acc = CoeffFunction.zero(f.dim, f.cutoff)
    if u.is_zero():
        return CoeffFunction(f.dim, f.cutoff, {}, f.exact_to)
    term = CoeffFunction.constant(f.dim, f.cutoff, ONE)
    for k in range(1, f.cutoff + 1):
        term = term * u
        acc = acc + term.scale(_qi((-1) ** (k + 1), 0, k))
    return CoeffFunction(f.dim, f.cutoff, acc.terms,
                         min(acc.exact_to, f.exact_to, f.cutoff))


def functional_inverse(forward):
    """Compositional inverse of a coordinate change x~ = g(x).

    forward is a list of n series in n variables with zero constant term
    and invertible linear part; the result f satisfies f(g(x)) = x and
    g(f(y)) = y through the cutoff.
    """
    n = len(forward)
    if n == 0:
        raise ValueError("empty coordinate change")
    dim = forward[0].dim
    if dim != n:
        raise ValueError("coordinate change must be square")
    D = forward[0].cutoff
    for g in forward:
        if g.constant_term():
            raise ValueError("coordinate change must fix the origin")
    # linear part and its inverse over QI
    A = [[g.terms.get(_unit(dim, j), ZERO) for j in range(dim)]
         for g in forward]
    Ainv = _matrix_inverse_qi(A)
    # iterate f <- f - Ainv (g(f) - id); each pass gains one degree
    coords = [CoeffFunction.coordinate(dim, D, j + 1) for j in range(dim)]
    f = [sum_cf([coords[j].scale(Ainv[i][j]) for j in range(dim)])
         for i in range(dim)]
    for _ in range(D + 1):
        err = [forward[i].compose(f) - coords[i] for i in range(dim)]
        if all(e.is_zero() for e in err):
            break
        f = [f[i] - sum_cf([err[j].scale(Ainv[i][j]) for j in range(dim)])
             for i in range(dim)]
    exact = min(g.exact_to for g in forward)
    # a generic inverse is an infinite series even for polynomial input
    linear_only = all(all(sum(e) <= 1 for e in g.terms) for g in forward)
    if not linear_only:
        exact = min(exact, D)
    return [CoeffFunction(dim, D, fi.terms, min(fi.exact_to, exact))
            for fi in f]


def sum_cf(items):
    """The sum of a nonempty list of series."""
    return reduce(CoeffFunction.__add__, items)


def _unit(dim, j):
    e = [0] * dim
    e[j] = 1
    return tuple(e)


def _matrix_inverse_qi(A):
    """Exact inverse of a square QI matrix by Gauss-Jordan elimination."""
    n = len(A)
    M = [[A[i][j] for j in range(n)] + [ONE if i == j else ZERO
                                        for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        M[col], M[pivot] = M[pivot], M[col]
        inv = ONE / M[col][col]
        M[col] = [x * inv if x else x for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                fac = M[r][col]
                M[r] = [a - fac * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _identity_matrix(dim, cutoff):
    return [[CoeffFunction.constant(dim, cutoff, ONE if i == j else ZERO)
             for j in range(dim)] for i in range(dim)]


def _mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum_cf([A[i][k] * B[k][j] for k in range(m)])
             for j in range(p)] for i in range(n)]


def _mat_inverse(M):
    """Inverse of a matrix of series with invertible constant part.

    Nonconstant input yields a truncated result even when the exact
    inverse happens to be polynomial.
    """
    n, dim, cutoff = len(M), M[0][0].dim, M[0][0].cutoff
    C0 = [[M[i][j].constant_term() for j in range(n)] for i in range(n)]
    C0inv = _matrix_inverse_qi(C0)
    N = [[M[i][j] - CoeffFunction.constant(dim, cutoff, C0[i][j])
          for j in range(n)] for i in range(n)]
    constant = all(e.is_zero() for row in N for e in row)
    C0inv_cf = [[CoeffFunction.constant(dim, cutoff, C0inv[i][j])
                 for j in range(n)] for i in range(n)]
    if constant:
        exact = min(e.exact_to for row in M for e in row)
        return [[CoeffFunction(dim, cutoff, e.terms, min(e.exact_to, exact))
                 for e in row] for row in C0inv_cf]
    X = _mat_mul(C0inv_cf, N)
    acc = _identity_matrix(dim, cutoff)
    term = _identity_matrix(dim, cutoff)
    for _ in range(cutoff):
        term = [[-e for e in row] for row in _mat_mul(term, X)]
        acc = [[acc[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    out = _mat_mul(acc, C0inv_cf)
    # the Neumann tail is nonzero beyond the cutoff
    return [[CoeffFunction(dim, cutoff, e.terms, min(e.exact_to, cutoff))
             for e in row] for row in out]


# -- super-monomials --------------------------------------------------
#
# A monomial in the Lambda pair (lambda, chi) and the Gamma pair
# (gamma, eta) is the key (j, J, k, K) with J, K in {0, 1}, meaning the
# canonically ordered word
#
#     lambda^j gamma^k chi^J eta^K
#
# The even variables are central; the odd ones satisfy chi^2 = -lambda,
# eta^2 = -gamma and chi eta = -eta chi.


HMONO_ONE = (0, 0, 0, 0)


def hmono_parity(m):
    return (m[1] + m[3]) & 1


def hmono_mul(m1, m2):
    """Product of two monomials; returns (sign, monomial).  Moving chi^J2
    past eta^K1 and collapsing chi chi and eta eta each cost a sign."""
    j1, J1, k1, K1 = m1
    j2, J2, k2, K2 = m2
    sign = -1 if (K1 * J2 + J1 * J2 + K1 * K2) & 1 else 1
    return sign, (j1 + j2 + J1 * J2, J1 ^ J2, k1 + k2 + K1 * K2, K1 ^ K2)


def hmono_render(m):
    """Text like 'lambda^2 chi' or 'gamma eta'; '1' for the empty word."""
    j, J, k, K = m
    parts = [name if e == 1 else "%s^%d" % (name, e)
             for name, e in (("lambda", j), ("gamma", k)) if e]
    parts += [name for name, e in (("chi", J), ("eta", K)) if e]
    return " ".join(parts) if parts else "1"
