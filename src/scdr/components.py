"""Classical-component view of the superfield algebra.

Every state decomposes into a bottom and a top component (the top is
the image under the odd derivation).  The classical lambda-bracket of
components is the chi-linear part of the full bracket, and the usual
N=1, N=2 and N=4 operator families arise by splitting the
superconformal currents with Gaussian-rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QI, HMONO_ONE
from .terms import (nf_combine, nf_scale, nf_one, apply_S, apply_T,
                    hp_chi_part, hp_combine)
from .bracket import lambda_bracket
from .superconf import fold, check_ns, check_n2, check_n4

HALF = QI(Fraction(1, 2))
IMAG = QI(0, 1)


def expand(a):
    """(bottom, top) component pair of a state."""
    return a, apply_S(a)


def classical_bracket(a, b):
    """The lambda-bracket of the underlying classical vertex algebra:
    {j: coefficient of lambda^j}, together with the degree through
    which it is certified."""
    p = lambda_bracket(a, b)
    return hp_chi_part(p), p.exact_to()


def sres_action(f, a):
    """Zero-mode (super-residue) action of the current f on a state."""
    return lambda_bracket(f, a).coeff_or_zero(HMONO_ONE)


def _row_diff(a, b, want):
    """The classical bracket of a and b minus the wanted one {j: state},
    on the lambda^j chi keys, certified no further than the whole
    bracket."""
    got, degree = classical_bracket(a, b)
    return hp_combine([((j, 1, 0, 0), 1, nf) for j, nf in got.items()]
                      + [((j, 1, 0, 0), -1, nf) for j, nf in want.items()],
                      degree)


def _table_report(name, c, rows, susy, susy_label):
    """One identity per operator-table row; the superfield check whose
    central charge the table uses adds a line only when it fails."""
    parts = [(label, _row_diff(a, b, want)) for label, a, b, want in rows]
    held = susy.status != "FAIL"
    parts.append((None if held else susy_label, held))
    return fold(name, parts, central_charge=c)


def _primary_row(label, l_state, x, weight):
    return (label, l_state, x,
            {0: apply_T(x), 1: nf_scale(x, weight)})


def _ns_rows(l_state, c, vac):
    return [("[L_l L]", l_state, l_state,
             {0: apply_T(l_state), 1: nf_scale(l_state, 2),
              3: nf_scale(vac, c / QI(12))})]


def _vacuum(h):
    """The vacuum of the algebra of h, which has a term: a superfield
    check rejects a zero H as not odd."""
    cf = next(iter(h.terms.values()))
    return nf_one(cf.dim, cf.cutoff)


def n1_components(h):
    """Virasoro pair (L, G) carried by an odd NS current: G is the
    current itself, L half its image under S."""
    return nf_scale(apply_S(h), HALF), h


def check_n1_components(h, name="components-n1"):
    """The (L, G) pair closes the standard N=1 relations with the
    central charge read off the superfield check."""
    ns = check_ns(h)
    c, vac = ns.central_charge, _vacuum(h)
    l_state, g = n1_components(h)
    rows = _ns_rows(l_state, c, vac)
    rows.append(_primary_row("[L_l G]", l_state, g, HALF * QI(3)))
    rows.append(("[G_l G]", g, g,
                 {0: nf_scale(l_state, 2),
                  2: nf_scale(vac, c / QI(3))}))
    return _table_report(name, c, rows, ns, "superfield NS check")


def n2_components(h, j_s):
    """N=2 quadruple (L, J, G+, G-) from the superconformal pair:
    J = i J_s, G+- = (H -+ i S J_s)/2, L = S H / 2."""
    sj = apply_S(j_s)
    return {
        "L": nf_scale(apply_S(h), HALF),
        "J": nf_scale(j_s, IMAG),
        "G+": nf_combine([(HALF, h), (-HALF * IMAG, sj)]),
        "G-": nf_combine([(HALF, h), (HALF * IMAG, sj)]),
    }


def check_n2_components(h, j_s, name="components-n2"):
    susy = check_n2(h, j_s)
    c, vac = susy.central_charge, _vacuum(h)
    f = n2_components(h, j_s)
    L, J, Gp, Gm = f["L"], f["J"], f["G+"], f["G-"]
    rows = _ns_rows(L, c, vac)
    rows.append(_primary_row("[L_l J]", L, J, QI(1)))
    rows.append(_primary_row("[L_l G+]", L, Gp, HALF * QI(3)))
    rows.append(_primary_row("[L_l G-]", L, Gm, HALF * QI(3)))
    rows.append(("[J_l J]", J, J, {1: nf_scale(vac, c / QI(3))}))
    rows.append(("[J_l G+]", J, Gp, {0: Gp}))
    rows.append(("[J_l G-]", J, Gm, {0: nf_scale(Gm, -1)}))
    rows.append(("[G+_l G-]", Gp, Gm,
                 {0: nf_combine([(1, L), (HALF, apply_T(J))]),
                  1: J,
                  2: nf_scale(vac, c / QI(6))}))
    rows.append(("[G+_l G+]", Gp, Gp, {}))
    rows.append(("[G-_l G-]", Gm, Gm, {}))
    return _table_report(name, c, rows, susy, "superfield N=2 check")


def n4_components(h, j0_s, j1_s, j2_s):
    """N=4 family from the superconformal quadruple: the neutral pieces
    come from J0_s as in the N=2 case, the charged ones mix J1_s and
    J2_s with Gaussian-rational coefficients."""
    sj0 = apply_S(j0_s)
    sj1 = apply_S(j1_s)
    sj2 = apply_S(j2_s)
    hi = HALF * IMAG
    return {
        "L": nf_scale(apply_S(h), HALF),
        "J0": nf_scale(j0_s, IMAG),
        "J+": nf_combine([(HALF, j2_s), (-hi, j1_s)]),
        "J-": nf_combine([(-hi, j1_s), (-HALF, j2_s)]),
        "G+": nf_combine([(HALF, h), (-hi, sj0)]),
        "G-": nf_combine([(HALF, sj2), (hi, sj1)]),
        "Gb+": nf_combine([(HALF, sj2), (-hi, sj1)]),
        "Gb-": nf_combine([(HALF, h), (hi, sj0)]),
    }


def check_n4_components(h, j0_s, j1_s, j2_s, name="components-n4"):
    susy = check_n4(h, j0_s, j1_s, j2_s)
    c, vac = susy.central_charge, _vacuum(h)
    f = n4_components(h, j0_s, j1_s, j2_s)
    L = f["L"]
    J0, Jp, Jm = f["J0"], f["J+"], f["J-"]
    Gp, Gm, Gbp, Gbm = f["G+"], f["G-"], f["Gb+"], f["Gb-"]
    rows = _ns_rows(L, c, vac)
    for label, x, w in (("J0", J0, QI(1)), ("J+", Jp, QI(1)),
                        ("J-", Jm, QI(1)), ("G+", Gp, HALF * QI(3)),
                        ("G-", Gm, HALF * QI(3)), ("Gb+", Gbp, HALF * QI(3)),
                        ("Gb-", Gbm, HALF * QI(3))):
        rows.append(_primary_row("[L_l %s]" % label, L, x, w))
    rows.append(("[J0_l J+]", J0, Jp, {0: nf_scale(Jp, 2)}))
    rows.append(("[J0_l J-]", J0, Jm, {0: nf_scale(Jm, -2)}))
    rows.append(("[J0_l J0]", J0, J0, {1: nf_scale(vac, c / QI(3))}))
    rows.append(("[J+_l J-]", Jp, Jm,
                 {0: J0, 1: nf_scale(vac, c / QI(6))}))
    rows.append(("[J0_l G+]", J0, Gp, {0: Gp}))
    rows.append(("[J0_l G-]", J0, Gm, {0: nf_scale(Gm, -1)}))
    rows.append(("[J0_l Gb+]", J0, Gbp, {0: Gbp}))
    rows.append(("[J0_l Gb-]", J0, Gbm, {0: nf_scale(Gbm, -1)}))
    rows.append(("[J+_l G-]", Jp, Gm, {0: Gp}))
    rows.append(("[J-_l G+]", Jm, Gp, {0: Gm}))
    rows.append(("[J+_l Gb-]", Jp, Gbm, {0: nf_scale(Gbp, -1)}))
    rows.append(("[J-_l Gb+]", Jm, Gbp, {0: nf_scale(Gbm, -1)}))
    rows.append(("[G+_l Gb+]", Gp, Gbp, {0: apply_T(Jp),
                                         1: nf_scale(Jp, 2)}))
    rows.append(("[G-_l Gb-]", Gm, Gbm, {0: apply_T(Jm),
                                         1: nf_scale(Jm, 2)}))
    rows.append(("[G+_l Gb-]", Gp, Gbm,
                 {0: nf_combine([(1, L), (HALF, apply_T(J0))]),
                  1: J0,
                  2: nf_scale(vac, c / QI(6))}))
    rows.append(("[G-_l Gb+]", Gm, Gbp,
                 {0: nf_combine([(1, L), (-HALF, apply_T(J0))]),
                  1: nf_scale(J0, -1),
                  2: nf_scale(vac, c / QI(6))}))
    for label, a, b in (("[G+_l G-]", Gp, Gm), ("[Gb+_l Gb-]", Gbp, Gbm),
                        ("[G+_l G+]", Gp, Gp), ("[G-_l G-]", Gm, Gm),
                        ("[Gb+_l Gb+]", Gbp, Gbp),
                        ("[Gb-_l Gb-]", Gbm, Gbm),
                        ("[J+_l J+]", Jp, Jp), ("[J-_l J-]", Jm, Jm)):
        rows.append((label + " = 0", a, b, {}))
    return _table_report(name, c, rows, susy, "superfield N=4 check")
