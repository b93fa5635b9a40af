"""The verification suites behind ``scdr verify``.

Each suite builds the currents of its structure and returns a list of
StructureReport: the superconformal checks of superconf, the operator
tables of components, the coordinate changes of geometry, and the
randomized axiom checks.
"""

from __future__ import annotations

import random
from math import inf

from .scalars import QI, CoeffFunction, render_qi
from .terms import (Algebra, Generator, B_KIND, PSI_KIND, nf_sum, nf_mul,
                    hp_combine, hp_sub, render_nf)
from .bracket import lambda_bracket, skew, jacobi_defect
from .parser import parse_expression
from .superconf import (StructureReport, holds, fold, primary_rhs,
                        charged_rhs, check_ns_against, check_n2, check_n4)
from .geometry import (MetricData, EndoTensor, build_H, build_H0, build_J,
                       flat_complex_structure, quaternionic_triple_flat,
                       check_coordinate_change)
from .components import (check_n1_components, check_n2_components,
                         check_n4_components)


def _charge_report(name, c, dim):
    want = QI(3 * dim)
    return StructureReport(name, c == want, central_charge=c,
                           details=("expected 3 x dim = %s"
                                    % render_qi(want),))


def run_ns_suite(metric, drop_potential=False):
    """Closure of the candidate current on the metric's own
    superconformal vector; dropping the potential on a curved metric
    is the control that must fail."""
    target = build_H(metric)
    if drop_potential:
        candidate = build_H0(metric.dim, metric.cutoff)
    else:
        candidate = target
    rep = check_ns_against(candidate, target, name="ns")
    return [rep, _charge_report("ns/central-charge", rep.central_charge,
                                metric.dim)]


def run_n2_suite(metric, omega, holo_split=None):
    """N=2 structure of a complex-structure current.  With a known
    holomorphic/antiholomorphic coordinate split the suite also checks
    the quadratic intermediate brackets entering the closure proof."""
    h = build_H(metric)
    j = build_J(omega, metric)
    rep = check_n2(h, j, name="n2")
    out = [rep, _charge_report("n2/central-charge", rep.central_charge,
                               metric.dim)]
    if holo_split is None:
        return out
    n = holo_split
    alg = Algebra(metric.dim, metric.cutoff)
    pot = metric.logdet_half

    def quad_report(name, indices):
        # [H_L sum :SB^a Psi_a:] closes on the weight-one shape up to
        # a lambda chi correction by the potential gradient
        x = nf_sum([nf_mul(alg.SB(a), alg.Psi(a)) for a in indices])
        grad = nf_sum([nf_mul(alg.coeff_nf(pot.partial(a)), alg.SB(a))
                       for a in indices])
        diff = hp_combine(lambda_bracket(h, x).triples()
                          + primary_rhs(x, 2).triples(-1)
                          + [((1, 1, 0, 0), 1, grad)])
        return fold(name, [(None, diff)])

    out.append(quad_report("n2/holomorphic-quadratic", range(1, n + 1)))
    out.append(quad_report("n2/antiholomorphic-quadratic",
                           range(n + 1, metric.dim + 1)))
    return out


def raising_current(eta, half):
    """The charge-raising current of a complex structure that maps
    holomorphic into antiholomorphic directions: the flat current of its
    upper-right block, a sum of :SB Psi: pairs."""
    dim, cutoff = eta.dim, eta.cutoff
    zero = CoeffFunction.zero(dim, cutoff)
    block = [[eta.omega[a][b] if a < half <= b else zero
              for b in range(dim)] for a in range(dim)]
    return build_J(EndoTensor(block),
                   MetricData.flat(dim, cutoff))


def run_n4_suite(metric, triple):
    """N=4 structure of a quaternionic triple (I, J, K = IJ); the
    three currents use the oriented frame (I, J, JI)."""
    I, J, K = triple
    h = build_H(metric)
    j0 = build_J(I, metric)
    j1 = build_J(J, metric)
    j2 = build_J(K.scale(QI(-1)), metric)
    rep = check_n4(h, j0, j1, j2, name="n4")
    out = [rep, _charge_report("n4/central-charge", rep.central_charge,
                               metric.dim)]
    # [J0_L J+] = i (S + 2 chi) J+ for the raising current of J
    jp = raising_current(J, metric.dim // 2)
    out.append(fold("n4/raising-current", [
        (None, hp_sub(lambda_bracket(j0, jp), charged_rhs(jp, QI(0, 1))))]))
    return out


def run_components_suite(dim, cutoff):
    """Component dictionaries on flat space: N=1 always, N=2 when the
    dimension is even, N=4 when it is a multiple of four."""
    out = [check_n1_components(build_H(MetricData.flat(dim, cutoff)))]
    if dim % 2 == 0:
        n = dim // 2
        mc = MetricData.flat_complexified(n, cutoff)
        out.append(check_n2_components(
            build_H(mc), build_J(flat_complex_structure(n, cutoff), mc)))
    if dim % 4 == 0:
        n = dim // 4
        mc = MetricData.flat_complexified(2 * n, cutoff)
        I, J, K = quaternionic_triple_flat(n, cutoff)
        out.append(check_n4_components(
            build_H(mc), build_J(I, mc), build_J(J, mc),
            build_J(K.scale(QI(-1)), mc)))
    return out


def run_coordchange_suite(changes):
    out = []
    for name in sorted(changes):
        rep = check_coordinate_change(changes[name])
        rep.name = "coordchange/%s" % name
        out.append(rep)
    return out


def _random_coeff(rng, dim, cutoff, degree):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = [0] * dim
        for _ in range(rng.randint(0, degree)):
            e[rng.randint(0, dim - 1)] += 1
        q = QI(rng.randint(-3, 3), rng.choice((0, 0, 0, 1)))
        if q:
            terms[tuple(e)] = q
    if not terms:
        terms[(0,) * dim] = QI(1)
    return CoeffFunction(dim, cutoff, terms)


def random_state(rng, alg, parity, max_monos=2, max_factors=2,
                 coeff_degree=1):
    """A random homogeneous normal-form state of the given parity."""
    dim, cutoff = alg.dim, alg.cutoff
    for _ in range(200):
        monos = []
        for _ in range(rng.randint(1, max_monos)):
            nf = alg.coeff_nf(_random_coeff(rng, dim, cutoff, coeff_degree))
            for _ in range(rng.randint(0, max_factors)):
                g = Generator(rng.choice((B_KIND, PSI_KIND)),
                              rng.randint(1, dim),
                              rng.choice((0, 0, 1)),
                              rng.choice((0, 0, 1)))
                nf = nf_mul(nf, alg.nf_gen(g.kind, g.index, g.t, g.s))
            monos.append(nf)
        state = nf_sum(monos)
        if state.parity() == parity:
            return state
    raise RuntimeError("could not draw a homogeneous state")


def run_jacobi_suite(dim, cutoff, seed, pairs=40, triples=20):
    """Randomized axiom checks: skew-symmetry on pairs, the Jacobi
    defect on triples, and stability of normalization under a render
    and parse round trip for every state drawn.  The first two reports
    are certified through the least degree of their checks."""
    rng = random.Random(seed)
    alg = Algebra(dim, cutoff)
    states = []

    skew_bad, skew_degree = 0, inf
    for _ in range(pairs):
        a = random_state(rng, alg, rng.randint(0, 1))
        b = random_state(rng, alg, rng.randint(0, 1))
        states.extend((a, b))
        ok, degree = holds(hp_sub(lambda_bracket(b, a), skew(
            lambda_bracket(a, b), a.parity(), b.parity())))
        skew_bad += not ok
        skew_degree = min(skew_degree, degree)

    jac_bad, jac_degree = 0, inf
    for _ in range(triples):
        a = random_state(rng, alg, rng.randint(0, 1))
        b = random_state(rng, alg, rng.randint(0, 1))
        c = random_state(rng, alg, rng.randint(0, 1))
        states.extend((a, b, c))
        ok, degree = holds(jacobi_defect(a, b, c))
        jac_bad += not ok
        jac_degree = min(jac_degree, degree)

    idem_bad = 0
    for s in states:
        t = parse_expression(render_nf(s), dim, cutoff)
        u = parse_expression(render_nf(t), dim, cutoff)
        if t != s or u != t:
            idem_bad += 1

    return [
        StructureReport("jacobi/skew-symmetry", skew_bad == 0,
                        guaranteed_degree=skew_degree,
                        details=("%d of %d pairs exact"
                                 % (pairs - skew_bad, pairs),)),
        StructureReport("jacobi/jacobi-identity", jac_bad == 0,
                        guaranteed_degree=jac_degree,
                        details=("%d of %d triples normalize to 0"
                                 % (triples - jac_bad, triples),)),
        StructureReport("jacobi/normalize-idempotent", idem_bad == 0,
                        details=("%d of %d states stable"
                                 % (len(states) - idem_bad, len(states)),)),
    ]


