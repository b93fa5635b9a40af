"""Geometric input data and the currents built from it.

Metrics, (1,1)-tensors and coordinate changes are truncated power
series around a point.  Anything that goes through series inversion,
logarithms or compositional inverses is certified only through the
guaranteed degree tracked by the scalar layer; constant data stays
exact.

As with states, the series own (dim, cutoff): MetricData, EndoTensor
and CoordinateChange read the pair off their entries, which must share
it.  Only the builders from nothing (the flat metrics, the constant
tensors, build_H0 and the JSON readers) take it as arguments.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import inf

from .scalars import (QI, ONE, HMONO_ONE, as_qi, parse_qi, parse_exponents,
                      render_qi, CoeffFunction, log_series_normalized,
                      functional_inverse, sum_cf, _matrix_inverse_qi,
                      _identity_matrix, _mat_mul, _mat_inverse)
from .terms import (Algebra, nf_mul, nf_sum, nf_sub, apply_S, apply_T,
                    HPoly, hp_sub)
from .bracket import lambda_bracket
from .superconf import fold


def _dim_cutoff(rows, what, square=True):
    """The (dim, cutoff) that every series in rows shares: rows is a
    dim x dim matrix or, unless square, a list of rows of dim series.
    An empty or misshapen grid, or entries that mix dims or cutoffs,
    raise ValueError."""
    pairs = {(e.dim, e.cutoff) for row in rows for e in row}
    if len(pairs) != 1:
        raise ValueError("%s needs series of one dim and one cutoff" % what)
    (dim, cutoff), = pairs
    if any(len(row) != dim for row in rows) or (square and len(rows) != dim):
        raise ValueError("%s must be %s" % (
            what, "%d x %d" % (dim, dim) if square else "%d series" % dim))
    return dim, cutoff


def _mat_det(M):
    """Determinant by minor expansion, memoized over column subsets."""
    n, dim, cutoff = len(M), M[0][0].dim, M[0][0].cutoff
    one = CoeffFunction.constant(dim, cutoff, ONE)
    memo = {}

    def minor(r, cols):
        if r == n:
            return one
        key = (r, cols)
        if key not in memo:
            acc = CoeffFunction.zero(dim, cutoff)
            for idx, c in enumerate(cols):
                entry = M[r][c]
                if entry.is_zero() and entry.exact_to == inf:
                    continue
                rest = cols[:idx] + cols[idx + 1:]
                term = entry * minor(r + 1, rest)
                acc = acc + (term if idx % 2 == 0 else -term)
            memo[key] = acc
        return memo[key]

    return minor(0, tuple(range(n)))


class MetricData:
    """Symmetric metric tensor as an n x n matrix of series.

    The inverse metric, the determinant and the potential
    log sqrt(det g) are derived lazily.  The potential drops its
    additive constant; only its derivatives ever enter a current.
    """

    def __init__(self, g):
        dim, cutoff = _dim_cutoff(g, "metric matrix")
        for i in range(dim):
            for j in range(i):
                if g[i][j].terms != g[j][i].terms:
                    raise ValueError("metric must be symmetric")
        C0 = [[g[i][j].constant_term() for j in range(dim)]
              for i in range(dim)]
        try:
            _matrix_inverse_qi(C0)
        except ValueError:
            raise ValueError("metric is singular at the base point")
        self.dim, self.cutoff = dim, cutoff
        self.g = [list(row) for row in g]

    @staticmethod
    def flat(dim, cutoff):
        return MetricData(_identity_matrix(dim, cutoff))

    @staticmethod
    def flat_complexified(n, cutoff):
        """Flat Kaehler metric in complexified coordinates: the first n
        coordinates are holomorphic, the last n antiholomorphic, and
        the only nonzero entries pair them."""
        dim = 2 * n
        g = [[CoeffFunction.constant(dim, cutoff, 0) for _ in range(dim)]
             for _ in range(dim)]
        for a in range(n):
            g[a][n + a] = CoeffFunction.constant(dim, cutoff, 1)
            g[n + a][a] = CoeffFunction.constant(dim, cutoff, 1)
        return MetricData(g)

    def is_constant(self):
        return all(e.is_constant() for row in self.g for e in row)

    @cached_property
    def g_inverse(self):
        return _mat_inverse(self.g)

    @cached_property
    def det(self):
        return _mat_det(self.g)

    @cached_property
    def logdet_half(self):
        return log_series_normalized(self.det).scale(QI(1, 0) / QI(2, 0))


class EndoTensor:
    """A (1,1)-tensor: omega[i][j] is the coefficient of d_j in the
    image of d_i."""

    def __init__(self, omega):
        self.dim, self.cutoff = _dim_cutoff(omega, "tensor matrix")
        self.omega = [list(row) for row in omega]

    @staticmethod
    def constant(dim, cutoff, rows):
        return EndoTensor([[CoeffFunction.constant(dim, cutoff, v)
                            for v in row] for row in rows])

    def compose(self, other):
        """self applied after other, as endomorphisms."""
        return EndoTensor(_mat_mul(other.omega, self.omega))

    def scale(self, q):
        q = as_qi(q)
        return EndoTensor([[e.scale(q) for e in row] for row in self.omega])

    def squares_to_minus_id(self):
        sq = self.compose(self).omega
        for i in range(self.dim):
            for j in range(self.dim):
                want = -1 if i == j else 0
                d = sq[i][j] - CoeffFunction.constant(self.dim, self.cutoff,
                                                      want)
                if not d.is_zero_through(d.exact_to):
                    return False
        return True

    def is_metric_compatible(self, metric):
        """g(Ju, Jv) = g(u, v), entrywise through the guaranteed degree."""
        _check_fits(self, metric)
        M, G = self.omega, metric.g
        n = self.dim
        for i in range(n):
            for j in range(n):
                acc = sum_cf([M[i][k] * G[k][l] * M[j][l]
                              for k in range(n) for l in range(n)])
                d = acc - G[i][j]
                if not d.is_zero_through(d.exact_to):
                    return False
        return True


def _check_fits(omega, metric):
    """ValueError unless the tensor and the metric share (dim, cutoff)."""
    if (omega.dim, omega.cutoff) != (metric.dim, metric.cutoff):
        raise ValueError("the tensor has dim %d, cutoff %d; the metric has "
                         "dim %d, cutoff %d" % (omega.dim, omega.cutoff,
                                                metric.dim, metric.cutoff))


def christoffel(metric):
    """Levi-Civita symbols as nested lists: gamma[i][j][k] carries the
    upper index i and the symmetric lower indices j, k."""
    n = metric.dim
    g, ginv = metric.g, metric.g_inverse
    half = QI(1, 0) / QI(2, 0)
    dg = [[[g[a][b].partial(c + 1) for c in range(n)] for b in range(n)]
          for a in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = sum_cf(
                    [ginv[i][l] * (dg[l][k][j] + dg[j][l][k] - dg[j][k][l])
                     for l in range(n)]).scale(half)
                gamma[i][j][k] = acc
                gamma[i][k][j] = acc
    return gamma


def ricci_tensor(metric):
    """Ricci curvature, provided as a diagnostic for test data that is
    supposed to be flat."""
    n = metric.dim
    gm = christoffel(metric)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = sum_cf([gm[k][i][j].partial(k + 1) for k in range(n)])
            acc = acc - sum_cf([gm[k][i][k].partial(j + 1)
                                for k in range(n)])
            acc = acc + sum_cf([gm[k][k][l] * gm[l][i][j]
                                for k in range(n) for l in range(n)])
            acc = acc - sum_cf([gm[k][j][l] * gm[l][i][k]
                                for k in range(n) for l in range(n)])
            out[i][j] = acc
    return out


def build_H(metric):
    """The odd current SB^i SPsi_i + TB^i Psi_i - TS(log sqrt det g).

    The metric enters only through the potential; the quadratic part
    uses the native conjugate generators."""
    alg = Algebra(metric.dim, metric.cutoff)
    terms = []
    for i in range(1, metric.dim + 1):
        terms.append(nf_mul(alg.SB(i), alg.SPsi(i)))
        terms.append(nf_mul(alg.TB(i), alg.Psi(i)))
    return nf_sub(nf_sum(terms),
                  apply_T(apply_S(alg.coeff_nf(metric.logdet_half))))


def build_H0(dim, cutoff):
    """The flat current: build_H with the potential dropped."""
    return build_H(MetricData.flat(dim, cutoff))


def build_J(omega, metric):
    """The even current (omega_i^j SB^i) Psi_j + Gamma^i_{jk} omega_i^j
    TB^k attached to a (1,1)-tensor."""
    _check_fits(omega, metric)
    alg = Algebra(metric.dim, metric.cutoff)
    gens = range(1, metric.dim + 1)
    return _j_current(omega, [alg.SB(i) for i in gens],
                      [alg.Psi(i) for i in gens], [alg.TB(i) for i in gens],
                      alg.coeff_nf,
                      None if metric.is_constant() else christoffel(metric))


def _j_current(omega, sb, psi, tb, coeff, gamma):
    """The sum of build_J over the generator states sb, psi and tb, with
    coeff turning a coefficient series into a state; gamma None drops
    the connection term."""
    n, w = omega.dim, omega.omega
    terms = []
    for i in range(n):
        for j in range(n):
            if w[i][j].is_zero() and w[i][j].exact_to == inf:
                continue
            terms.append(nf_mul(nf_mul(coeff(w[i][j]), sb[i]), psi[j]))
    if gamma is not None:
        for k in range(n):
            ck = sum_cf([gamma[i][j][k] * w[i][j]
                         for i in range(n) for j in range(n)])
            if ck.is_zero() and ck.exact_to == inf:
                continue
            terms.append(nf_mul(coeff(ck), tb[k]))
    return nf_sum(terms)


def flat_complex_structure(n, cutoff):
    """diag(i, ..., i, -i, ..., -i) on complexified flat space."""
    dim = 2 * n
    rows = [[0] * dim for _ in range(dim)]
    for a in range(n):
        rows[a][a] = QI(0, 1)
        rows[n + a][n + a] = QI(0, -1)
    return EndoTensor.constant(dim, cutoff, rows)


def quaternionic_triple_flat(n, cutoff):
    """Constant complex structures I, J, K = IJ on flat space of
    dimension 4n, in complexified coordinates (z^1..z^{2n} holomorphic,
    then their conjugates).  J couples z^{2r+1} with the conjugate of
    z^{2r+2} blockwise."""
    dim = 4 * n
    half = 2 * n
    J_rows = [[0] * dim for _ in range(dim)]
    for r in range(n):
        a, b = 2 * r, 2 * r + 1
        J_rows[a][half + b] = QI(1)
        J_rows[b][half + a] = QI(-1)
        J_rows[half + a][b] = QI(1)
        J_rows[half + b][a] = QI(-1)
    I = flat_complex_structure(half, cutoff)
    J = EndoTensor.constant(dim, cutoff, J_rows)
    K = EndoTensor(_mat_mul(J.omega, I.omega))
    return I, J, K


class CoordinateChange:
    """A change x~ = g(x) fixing the origin, with the inverse x = f(x~)
    computed when not supplied by a fixed-point iteration with the
    Jacobian frozen at the origin, which gains one degree per pass."""

    def __init__(self, forward, inverse=None):
        self.dim, self.cutoff = dim, cutoff = _dim_cutoff(
            [forward] if inverse is None else [forward, inverse],
            "coordinate change", square=False)
        if inverse is None:
            inverse = functional_inverse(forward)
        self.forward = list(forward)
        self.inverse = list(inverse)
        for i in range(dim):
            comp = self.inverse[i].compose(self.forward)
            d = comp - CoeffFunction.coordinate(dim, cutoff, i + 1)
            if not d.is_zero_through(d.exact_to):
                raise ValueError("inverse does not invert the forward map")

    @cached_property
    def pullback_jacobian(self):
        """F[i][j] = (d f^j / d x~^i)(g(x)), as series in x."""
        n = self.dim
        return [[self.inverse[j].partial(i + 1).compose(self.forward)
                 for j in range(n)] for i in range(n)]


def transform_generators(ch):
    """New-coordinate superfields inside the old algebra:
    B~^i = g^i(B) and Psi~^i = F^i_j Psi_j with F the pulled-back
    inverse Jacobian."""
    alg = Algebra(ch.dim, ch.cutoff)
    F = ch.pullback_jacobian
    b_new = [alg.coeff_nf(ch.forward[i]) for i in range(ch.dim)]
    psi_new = [nf_sum([nf_mul(alg.coeff_nf(F[i][j]), alg.Psi(j + 1))
                       for j in range(ch.dim)])
               for i in range(ch.dim)]
    return b_new, psi_new


def pushforward_metric(ch, metric):
    """The metric in the new coordinates x~:
    g~_kl(x~) = (df^i/dx~^k)(df^j/dx~^l) g_ij(f(x~))."""
    n = ch.dim
    Jf = [[ch.inverse[i].partial(k + 1) for i in range(n)]
          for k in range(n)]
    gf = [[metric.g[i][j].compose(ch.inverse) for j in range(n)]
          for i in range(n)]
    g_new = [[sum_cf([Jf[k][i] * Jf[l][j] * gf[i][j]
                      for i in range(n) for j in range(n)])
              for l in range(n)] for k in range(n)]
    return MetricData(g_new)


def pushforward_endotensor(ch, omega):
    """The (1,1)-tensor in the new coordinates:
    w~_k^l(x~) = (df^i/dx~^k) w_i^j(f(x~)) (dg^l/dx^j)(f(x~))."""
    n = ch.dim
    Jf = [[ch.inverse[i].partial(k + 1) for i in range(n)]
          for k in range(n)]
    Jg = [[ch.forward[l].partial(j + 1).compose(ch.inverse)
           for l in range(n)] for j in range(n)]
    wf = [[omega.omega[i][j].compose(ch.inverse) for j in range(n)]
          for i in range(n)]
    w_new = [[sum_cf([Jf[k][i] * wf[i][j] * Jg[j][l]
                      for i in range(n) for j in range(n)])
              for l in range(n)] for k in range(n)]
    return EndoTensor(w_new)


def build_J_in_new_coordinates(omega, metric, ch):
    """The current of the pushed-forward data, written back in the old
    frame via the transformed generators.  Agreement with
    build_J(omega, metric) through the guaranteed degree is the
    coordinate-independence of the current."""
    alg = Algebra(ch.dim, ch.cutoff)
    b_new, psi_new = transform_generators(ch)
    return _j_current(pushforward_endotensor(ch, omega),
                      [apply_S(b) for b in b_new], psi_new,
                      [apply_T(b) for b in b_new],
                      lambda c: alg.coeff_nf(c.compose(ch.forward)),
                      christoffel(pushforward_metric(ch, metric)))


def _delta_poly(alg, equal):
    return HPoly({HMONO_ONE: alg.one()} if equal else {})


def check_coordinate_change(ch):
    """Verifies that transformed generators keep the base brackets and
    that their odd partners expand by the chain rule.

    Checks, through the guaranteed degree of each difference:
    [B~_L B~] = 0, [B~^i_L Psi~^j] = delta_ij, [Psi~_L Psi~] = 0,
    S B~^i = (d_j g^i) SB^j, and
    S Psi~^i = SPsi_j F^i_j + M^i_{rk} (SB^r Psi_k)
    with F the pulled-back inverse Jacobian and
    M^i_{rk} = (d^2 f^k / dx~^i dx~^l)(g) d_r g^l.  The last product is
    right-nested; the left-nested reading differs by a T-term whose
    cancellation is exactly the quasi-associativity correction."""
    n = ch.dim
    alg = Algebra(n, ch.cutoff)
    b_new, psi_new = transform_generators(ch)
    F = ch.pullback_jacobian
    parts = []
    for i in range(n):
        for j in range(n):
            parts.append(("[B~%d_L B~%d] = 0" % (i + 1, j + 1),
                          lambda_bracket(b_new[i], b_new[j])))
            parts.append(("[B~%d_L Psi~%d] = %d" % (i + 1, j + 1, i == j),
                          hp_sub(lambda_bracket(b_new[i], psi_new[j]),
                                 _delta_poly(alg, i == j))))
            parts.append(("[Psi~%d_L Psi~%d] = 0" % (i + 1, j + 1),
                          lambda_bracket(psi_new[i], psi_new[j])))

    for i in range(n):
        rhs = nf_sum([nf_mul(alg.coeff_nf(ch.forward[i].partial(j + 1)),
                             alg.SB(j + 1)) for j in range(n)])
        parts.append(("S B~%d chain rule" % (i + 1),
                      nf_sub(apply_S(b_new[i]), rhs)))

    for i in range(n):
        terms = [nf_mul(alg.SPsi(j + 1), alg.coeff_nf(F[i][j]))
                 for j in range(n)]
        # (d^2 f^k / dx~^i dx~^l)(g), which does not depend on r
        hess = [[ch.inverse[k].partial(i + 1).partial(l + 1)
                 .compose(ch.forward) for l in range(n)] for k in range(n)]
        for r in range(n):
            for k in range(n):
                m = sum_cf([hess[k][l] * ch.forward[l].partial(r + 1)
                            for l in range(n)])
                terms.append(nf_mul(alg.coeff_nf(m),
                                    nf_mul(alg.SB(r + 1), alg.Psi(k + 1))))
        parts.append(("S Psi~%d chain rule" % (i + 1),
                      nf_sub(apply_S(psi_new[i]), nf_sum(terms))))
    return fold("coordchange", parts)


# -- JSON input ------------------------------------------------------


def cf_from_json(dim, cutoff, obj):
    terms = {}
    for key, val in obj.items():
        exps = parse_exponents(key, dim, terms)
        if not isinstance(val, str):
            raise ValueError("scalar %r must be a string" % (val,))
        terms[exps] = parse_qi(val)
    return CoeffFunction(dim, cutoff, terms)


def _series_grid(dim, cutoff, value, what, square=False):
    """The series of a JSON list of dim exponent maps or, when square,
    of a dim x dim list of such lists."""
    rows = value if square else [value]
    if not (isinstance(value, list) and len(value) == dim and all(
            isinstance(r, list) and len(r) == dim
            and all(isinstance(e, dict) for e in r) for r in rows)):
        raise ValueError("%s must be a %s list of objects" % (
            what, "%d x %d" % (dim, dim) if square else dim))
    out = [[cf_from_json(dim, cutoff, e) for e in r] for r in rows]
    return out if square else out[0]


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValueError("%s must be a JSON object" % what)
    return value


class _MissingField(KeyError, ValueError):
    """A required JSON field is absent: a failed lookup, and bad input
    whose message prints without KeyError's quotes."""

    __str__ = ValueError.__str__


def _field(obj, name, what):
    if name not in obj:
        raise _MissingField("%s has no field %r" % (what, name))
    return obj[name]


def _json_int(data, name, least):
    # bool is an int subclass in Python, but not a JSON integer
    value = _field(data, name, "the geometry document")
    if type(value) is not int:
        raise ValueError("%s must be a JSON integer" % name)
    if value < least:
        raise ValueError("%s must be at least %d" % (name, least))
    return value


def cf_to_json(cf):
    out = {}
    for e, c in sorted(cf.terms.items()):
        out[",".join(str(p) for p in e)] = render_qi(c)
    return out


class GeometryInput:
    def __init__(self, metric, tensors, changes):
        self.metric = metric
        self.tensors = tensors
        self.changes = changes


def _unique_keys(pairs):
    # json.load alone keeps the last of two equal keys
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r in a JSON object" % key)
        obj[key] = value
    return obj


def load_geometry(source):
    """Reads {dim, cutoff, g?, tensors?, changes?} from a JSON file
    path or an already-parsed dict.  A key repeated in one JSON object
    is an error."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    _json_object(data, "a geometry document")
    dim = _json_int(data, "dim", 1)
    cutoff = _json_int(data, "cutoff", 0)
    if "g" in data:
        metric = MetricData(_series_grid(dim, cutoff, data["g"], "g",
                                         square=True))
    else:
        metric = MetricData.flat(dim, cutoff)
    tensors = {}
    for name, rows in _json_object(data.get("tensors", {}),
                                   "tensors").items():
        tensors[name] = EndoTensor(_series_grid(
            dim, cutoff, rows, "tensor %r" % name, square=True))
    changes = {}
    for name, pair in _json_object(data.get("changes", {}),
                                   "changes").items():
        what = "change %r" % name
        _json_object(pair, what)
        forward = _series_grid(dim, cutoff, _field(pair, "forward", what),
                               what)
        inverse = (_series_grid(dim, cutoff, pair["inverse"], what)
                   if "inverse" in pair else None)
        changes[name] = CoordinateChange(forward, inverse)
    return GeometryInput(metric, tensors, changes)
