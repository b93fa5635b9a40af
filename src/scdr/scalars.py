"""Exact scalar arithmetic for the superfield engine.

Three layers live here:

  * QI           -- Gaussian rationals a + b*i with Fraction components.
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

from fractions import Fraction
from functools import reduce
from math import lcm


class QI:
    """A Gaussian rational re + im*i."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    def __repr__(self):
        return "QI(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return render_qi(self)

    def __eq__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return _qi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _qi(-self.re, -self.im)

    def __sub__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return _qi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return _qi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        return _qi((self.re * other.re + self.im * other.im) / n,
                   (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        other = as_qi(other)
        if other is None:
            return NotImplemented
        return other / self

    def conj(self):
        return _qi(self.re, -self.im)

    def is_rational(self):
        return self.im == 0


def _qi(re, im):
    """A QI from two Fractions without the coercion of the public
    constructor: the results of QI and series arithmetic."""
    q = object.__new__(QI)
    object.__setattr__(q, "re", re)
    object.__setattr__(q, "im", im)
    object.__setattr__(q, "_hash", None)
    return q


ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)
_F0 = Fraction(0)


def as_qi(x):
    """Coerce ints, Fractions and QI to QI; return None when impossible."""
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI(x)
    return None


def parse_qi(text):
    """Parse scalars like '2', '-1/3', 'i', '-i', '1/2 i', '1/2 + 1/3 i'."""
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


def _rational(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def render_qi(q):
    """Canonical text for a QI scalar, e.g. '1/2', '-i', '1/2 - 1/3 i'."""
    if q.im == 0:
        return str(q.re)
    if q.im == 1:
        im = "i"
    elif q.im == -1:
        im = "-i"
    else:
        im = "%s i" % q.im
    if q.re == 0:
        return im
    if q.im > 0:
        return "%s + %s" % (q.re, im if q.im != 1 else "i")
    return "%s - %s" % (q.re, im[1:] if im.startswith("-") else im)


def _min_exact(a, b):
    """Combine guaranteed-exact degrees; None means exact at all degrees."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class CoeffFunction:
    """Truncated power series in n variables with QI coefficients.

    terms maps exponent tuples (length dim, total degree <= cutoff) to
    nonzero QI values.  exact_to is None when the series is known exactly
    as stored, or an integer d when the stored coefficients are only
    guaranteed complete through total degree d.  Arithmetic that drops a
    nonzero term of degree > cutoff lowers exact_to to cutoff; the flag
    never improves under further operations.

    Multiplication runs on integers, over a packed form cached on first
    use and left out of equality and hashing (see _pack).
    """

    __slots__ = ("dim", "cutoff", "terms", "exact_to", "_hash", "_packed")

    def __init__(self, dim, cutoff, terms, exact_to=None):
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
        if degree is None:
            return not self.terms
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
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _cf(self.dim, self.cutoff, terms,
                   _min_exact(self.exact_to, other.exact_to))

    def __neg__(self):
        return _cf(self.dim, self.cutoff,
                   {e: -c for e, c in self.terms.items()}, self.exact_to)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = as_qi(q)
        if not q:
            return _cf(self.dim, self.cutoff, {}, self.exact_to)
        if not q.im and q.re in (1, -1):
            return self if q.re == 1 else -self
        return _cf(self.dim, self.cutoff,
                   {e: c * q for e, c in self.terms.items()}, self.exact_to)

    def _pack(self):
        """(D, rows): a common denominator D and rows (degree, key, a, b)
        with a + b*i = D*c, sorted by degree.  key holds the exponents as
        digits in base cutoff + 1, so keys add as exponent tuples do."""
        packed = self._packed
        if packed is None:
            den = lcm(*[q.denominator for c in self.terms.values()
                        for q in (c.re, c.im)])
            base = self.cutoff + 1
            rows = sorted((sum(e), reduce(lambda k, p: k * base + p, e, 0),
                           c.re.numerator * (den // c.re.denominator),
                           c.im.numerator * (den // c.im.denominator))
                          for e, c in self.terms.items())
            packed = (den, rows)
            object.__setattr__(self, "_packed", packed)
        return packed

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
            terms[tuple(e)] = _qi(Fraction(a, den),
                                  Fraction(b, den) if b else _F0)
        exact = _min_exact(self.exact_to, other.exact_to)
        if rows1 and rows2 and rows1[-1][0] + rows2[-1][0] > cutoff:
            exact = _min_exact(exact, cutoff)  # some pair left the cutoff
        return _cf(dim, cutoff, terms, exact)

    def partial(self, i):
        """Formal partial derivative in x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError("coordinate index out of range")
        k = i - 1
        terms = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = list(e)
            ne[k] -= 1
            terms[tuple(ne)] = c * e[k]
        exact = self.exact_to if self.exact_to is None else self.exact_to - 1
        return _cf(self.dim, self.cutoff, terms, exact)

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
        exact = self.exact_to
        for s in subs:
            exact = _min_exact(exact, s.exact_to)
        one = CoeffFunction.constant(tdim, cutoff, ONE)
        # Horner-style evaluation over the (finitely many) stored terms.
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
                   _min_exact(result.exact_to, exact))


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
    return f


# -- series helpers ---------------------------------------------------


def series_inverse(f):
    """Multiplicative inverse 1/f for f with invertible constant term."""
    c = f.constant_term()
    if not c:
        raise ValueError("series has no invertible constant term")
    u = f.scale(ONE / c) - CoeffFunction.constant(f.dim, f.cutoff, ONE)
    # 1/f = (1/c) * sum (-u)^k
    acc = CoeffFunction.constant(f.dim, f.cutoff, ONE / c)
    if u.is_zero():
        return CoeffFunction(f.dim, f.cutoff, acc.terms,
                             _min_exact(acc.exact_to, f.exact_to))
    term = CoeffFunction.constant(f.dim, f.cutoff, ONE / c)
    for _ in range(f.cutoff):
        term = term * (-u)
        acc = acc + term
    # the geometric tail is nonzero beyond the cutoff
    return CoeffFunction(f.dim, f.cutoff, acc.terms,
                         _min_exact(_min_exact(acc.exact_to, f.exact_to),
                                    f.cutoff))


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
        return CoeffFunction(f.dim, f.cutoff, {},
                             _min_exact(acc.exact_to, f.exact_to))
    term = CoeffFunction.constant(f.dim, f.cutoff, ONE)
    for k in range(1, f.cutoff + 1):
        term = term * u
        acc = acc + term.scale(QI(Fraction((-1) ** (k + 1), k)))
    return CoeffFunction(f.dim, f.cutoff, acc.terms,
                         _min_exact(_min_exact(acc.exact_to, f.exact_to),
                                    f.cutoff))


def functional_inverse(forward, cutoff=None):
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
    D = forward[0].cutoff if cutoff is None else cutoff
    for g in forward:
        if g.constant_term():
            raise ValueError("coordinate change must fix the origin")
    # linear part and its inverse over QI
    A = [[g.terms.get(_unit(dim, j), ZERO) for j in range(dim)]
         for g in forward]
    Ainv = _matrix_inverse_qi(A)
    # iterate f <- f - Ainv (g(f) - id); each pass gains one degree
    coords = [CoeffFunction.coordinate(dim, D, j + 1) for j in range(dim)]
    f = [sum_cf([coords[j].scale(Ainv[i][j]) for j in range(dim)],
                dim, D) for i in range(dim)]
    for _ in range(D + 1):
        err = [forward[i].compose(f) - coords[i] for i in range(dim)]
        if all(e.is_zero() for e in err):
            break
        f = [f[i] - sum_cf([err[j].scale(Ainv[i][j]) for j in range(dim)],
                           dim, D) for i in range(dim)]
    exact = None
    for g in forward:
        exact = _min_exact(exact, g.exact_to)
    # a generic inverse is an infinite series even for polynomial input
    linear_only = all(all(sum(e) <= 1 for e in g.terms) for g in forward)
    if not linear_only:
        exact = _min_exact(exact, D)
    return [CoeffFunction(dim, D, fi.terms, _min_exact(fi.exact_to, exact))
            for fi in f]


def sum_cf(items, dim, cutoff):
    acc = CoeffFunction.zero(dim, cutoff)
    for it in items:
        acc = acc + it
    return acc


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
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                fac = M[r][col]
                M[r] = [a - fac * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


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
