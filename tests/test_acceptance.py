"""Acceptance gate.

One test per shipped claim; each prints a single pass/fail line (run
with -s to see them).  All arithmetic is exact: flat checks must
certify with no degree bound, jet-level checks state the degree they
are certified through.  Every suite must finish within a minute.
"""

import time
from math import inf
from fractions import Fraction
from pathlib import Path

from fock_oracle import commutator, fp_equal, vector_field_zero_mode
from scdr.suites import (run_coordchange_suite, run_jacobi_suite,
                         run_n2_suite, run_n4_suite, run_ns_suite)
from scdr.components import (check_n1_components, check_n2_components,
                             check_n4_components, sres_action)
from scdr.geometry import (MetricData, build_H, build_J,
                           flat_complex_structure, load_geometry,
                           quaternionic_triple_flat)
from scdr.scalars import QI
from scdr.terms import nf_sub
from test_vector_fields import (FIELDS, MONOMIALS, ORACLE_STATES,
                                _dict_targets, current, dict_state, lie)

DATA = Path(__file__).resolve().parents[1] / "data"


def _line(num, checks, text):
    ok = all(checks)
    print("criterion %d: %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d: %s" % (num, text)


def test_criterion_1_flat_neveu_schwarz():
    t0 = time.time()
    checks = []
    for n in (1, 2, 3):
        reps = run_ns_suite(MetricData.flat(n, 4))
        checks.append(all(r.status == "pass" for r in reps))
        checks.append(reps[0].central_charge == QI(3 * n))
        checks.append(reps[0].guaranteed_degree == inf)
    checks.append(time.time() - t0 < 60)
    _line(1, checks, "flat NS closure with c = 3n exactly, n = 1, 2, 3")


def test_criterion_2_flat_kaehler_n2():
    t0 = time.time()
    checks = []
    for n in (1, 2):
        metric = MetricData.flat_complexified(n, 4)
        omega = flat_complex_structure(n, 4)
        reps = {r.name: r for r in run_n2_suite(metric, omega,
                                                holo_split=n)}
        checks.append(all(r.status == "pass" for r in reps.values()))
        checks.append(reps["n2"].central_charge == QI(6 * n))
        checks.append(reps["n2"].guaranteed_degree == inf)
        # the intermediate equations of the closure proof, term by term
        checks.append("[H_L J] weight-1 primary: pass"
                      in reps["n2"].details)
        checks.append("n2/holomorphic-quadratic" in reps)
        checks.append("n2/antiholomorphic-quadratic" in reps)
    checks.append(time.time() - t0 < 60)
    _line(2, checks, "flat Kaehler N=2 with c = 6n exactly plus the "
          "intermediate quadratic expansions, n = 1, 2")


def test_criterion_3_flat_quaternionic_n4():
    t0 = time.time()
    checks = []
    for n in (1, 2):
        metric = MetricData.flat_complexified(2 * n, 4)
        triple = quaternionic_triple_flat(n, 4)
        reps = {r.name: r for r in run_n4_suite(metric, triple)}
        checks.append(all(r.status == "pass" for r in reps.values()))
        checks.append(reps["n4"].central_charge == QI(12 * n))
        checks.append(reps["n4"].guaranteed_degree == inf)
        checks.append(reps["n4/raising-current"].status == "pass")
    checks.append(time.time() - t0 < 60)
    _line(3, checks, "flat quaternionic N=4 with c = 12n exactly "
          "including the raising current, n = 1, 2")


def test_criterion_4_curved_metric_with_control():
    t0 = time.time()
    geo = load_geometry(DATA / "metric_1d_curved.json")
    reps = run_ns_suite(geo.metric)
    checks = [all(r.status == "pass" for r in reps),
              reps[0].central_charge == QI(3),
              reps[0].guaranteed_degree != inf,
              reps[0].guaranteed_degree >= 4]
    control = run_ns_suite(geo.metric, drop_potential=True)
    checks.append(control[0].status == "FAIL")
    checks.append(time.time() - t0 < 60)
    _line(4, checks, "curved 1-d NS certified through degree >= 4 with "
          "c = 3; dropping the potential fails")


def test_criterion_5_coordinate_invariance():
    t0 = time.time()
    checks = []
    for name in ("change_quad_1d.json", "change_quad_2d.json"):
        geo = load_geometry(DATA / name)
        cutoff = geo.changes["quadratic"].cutoff
        for rep in run_coordchange_suite(geo.changes):
            checks.append(rep.status == "pass")
            checks.append(rep.guaranteed_degree >= cutoff - 3)
            # base brackets and both chain-rule expansions all present
            checks.append(any(d.startswith("[B~1_L Psi~1]")
                              for d in rep.details))
            checks.append(any(d.startswith("S B~1 chain rule")
                              for d in rep.details))
            checks.append(any(d.startswith("S Psi~1 chain rule")
                              for d in rep.details))
            checks.append(all(d.endswith("pass") for d in rep.details))
    checks.append(time.time() - t0 < 60)
    _line(5, checks, "transformed generators keep the base brackets and "
          "expand by the chain rule through degree >= cutoff - 3")


def test_criterion_6_axiom_properties():
    t0 = time.time()
    reps = run_jacobi_suite(dim=2, cutoff=4, seed=0, pairs=300,
                            triples=200)
    checks = [r.status == "pass" for r in reps]
    checks.append(time.time() - t0 < 60)
    _line(6, checks, "skew symmetry on 300 pairs, Jacobi on 200 triples, "
          "normalization idempotent on every state drawn (seed 0)")


def test_criterion_7_component_dictionaries():
    t0 = time.time()
    checks = []
    r1 = check_n1_components(build_H(MetricData.flat(1, 6)))
    mc1 = MetricData.flat_complexified(1, 6)
    r2 = check_n2_components(build_H(mc1),
                             build_J(flat_complex_structure(1, 6), mc1))
    mc2 = MetricData.flat_complexified(2, 6)
    I, J, K = quaternionic_triple_flat(1, 6)
    r4 = check_n4_components(build_H(mc2), build_J(I, mc2),
                             build_J(J, mc2),
                             build_J(K.scale(QI(-1)), mc2))
    for rep, c in ((r1, 3), (r2, 6), (r4, 12)):
        checks.append(rep.status == "pass")
        checks.append(rep.central_charge == QI(c))
        checks.append(rep.guaranteed_degree == inf)
        checks.append(all("FAIL" not in d for d in rep.details))
    checks.append(time.time() - t0 < 60)
    _line(7, checks, "component tables close exactly: Virasoro c = 3, "
          "N=2 c = 6, N=4 c = 12, every entry checked")


def test_criterion_8_vector_field_homomorphism():
    t0 = time.time()
    checks = []
    for f in MONOMIALS:
        for h in MONOMIALS:
            d = nf_sub(sres_action(current(f), current(h)),
                       current(lie(f, h)))
            checks.append(d.is_zero() and d.exact_to == inf)
            rf = vector_field_zero_mode([Fraction(c) for c in f])
            rh = vector_field_zero_mode([Fraction(c) for c in h])
            rc = vector_field_zero_mode(lie(f, h))
            checks.append(all(fp_equal(commutator(rf, rh, s), rc(s))
                              for s in ORACLE_STATES))
    for f in FIELDS:
        r = vector_field_zero_mode([Fraction(c) for c in f])
        for target in _dict_targets():
            checks.append(fp_equal(dict_state(sres_action(current(f),
                                                          target)),
                                   r(dict_state(target))))
    checks.append(time.time() - t0 < 60)
    _line(8, checks, "super-residue lift of polynomial vector fields is "
          "a Lie homomorphism, against the brute-force mode oracle")
