"""Checkers for the N=1, N=2 and N=4 superconformal relations.

Each checker computes the relevant Lambda-brackets, subtracts the
required right-hand side, extracts the central charge from the vacuum
coefficient of the central monomial (lambda^2 chi for N=1, lambda chi
for N=2), and reports the residual together with the degree through
which the verdict is certified exact.  Every check, here and in the
other modules, judges its identities by holds and folds them into a
StructureReport with fold.
"""

from __future__ import annotations

from math import inf

from .scalars import QI, ZERO, render_qi
from .terms import (NormalForm, HPoly, nf_one, apply_S, apply_T, hp_combine,
                    hp_sub, render_hpoly, render_nf)
from .bracket import lambda_bracket


def _word(ok, degree):
    """The verdict word of a part or a report.  A certificate through a
    negative degree covers no coefficient, so it is never a pass."""
    if not ok:
        return "FAIL"
    return "inconclusive" if degree < 0 else "pass"


def _json_degree(degree):
    """A degree as JSON prints it: an exact one, inf, is null."""
    return None if degree == inf else degree


class StructureReport:
    """Outcome of one superconformal verification.  status is 'pass',
    'FAIL' or 'inconclusive': a report that holds through a negative
    degree only is inconclusive, never a pass."""

    def __init__(self, name, held, central_charge=None,
                 guaranteed_degree=inf, residual=None, details=()):
        self.name = name
        self.status = _word(held, guaranteed_degree)
        self.central_charge = central_charge
        self.guaranteed_degree = guaranteed_degree
        self.residual = residual
        self.details = tuple(details)

    def residual_rendering(self):
        if self.residual is None:
            return None
        if isinstance(self.residual, HPoly):
            return render_hpoly(self.residual)
        return render_nf(self.residual)

    def to_json(self):
        return {
            "verdict": self.status.lower(),
            "central_charge": (None if self.central_charge is None
                               else render_qi(self.central_charge)),
            "guaranteed_degree": _json_degree(self.guaranteed_degree),
            "residual_rendering": self.residual_rendering(),
        }

    def text_lines(self):
        gd = ("exact" if self.guaranteed_degree == inf
              else "degree %d" % self.guaranteed_degree)
        cc = ("" if self.central_charge is None
              else ", c = %s" % render_qi(self.central_charge))
        lines = ["%s: %s%s (%s)" % (self.name, self.status, cc, gd)]
        for d in self.details:
            lines.append("  " + d)
        if self.residual is not None:
            lines.append("  residual: %s" % self.residual_rendering())
        return lines


def holds(diff):
    """(verdict, degree) of an identity given as the difference of its
    two sides, an HPoly or a NormalForm: it holds when the difference
    vanishes through its own certified degree."""
    degree = diff.exact_to() if isinstance(diff, HPoly) else diff.exact_to
    return diff.is_zero_through(degree), degree


def fold(name, parts, central_charge=None):
    """The report of a structure made of parts, each a (label, item)
    pair.  An item is the difference of an identity, judged by holds;
    a sub-report, which holds unless its status is FAIL and whose
    degree and residual carry over; or a bool for a side condition.

    Every labelled part adds the detail line 'label: pass|FAIL', where
    a sub-report also names its central charge; a part labelled None
    adds no line.  The report passes when every part holds, is certified
    through the least of their degrees and keeps the first failing
    residual."""
    ok, degree, residual, details = True, inf, None, []
    for label, item in parts:
        diff = None
        if isinstance(item, StructureReport):
            ok_part = item.status != "FAIL"
            deg, diff = item.guaranteed_degree, item.residual
        elif isinstance(item, bool):
            ok_part, deg = item, inf
        else:
            (ok_part, deg), diff = holds(item), item
        if label is not None:
            line = "%s: %s" % (label, _word(ok_part, deg))
            if isinstance(item, StructureReport) and \
                    item.central_charge is not None:
                line += ", c = %s" % render_qi(item.central_charge)
            details.append(line)
        degree = min(degree, deg)
        if not ok_part:
            ok = False
            if residual is None:
                residual = diff
    return StructureReport(name, ok, central_charge=central_charge,
                           guaranteed_degree=degree, residual=residual,
                           details=details)


def _split_central(p, mono):
    """Remove the constant-vacuum part of the given monomial coefficient
    from the poly; returns (constant, remainder poly)."""
    nf = p.coeff(mono)
    if nf is None:
        return ZERO, p
    cf = nf.terms.get(())
    if cf is None:
        return ZERO, p
    const = cf.constant_term()
    if not const:
        return ZERO, p
    return const, hp_combine(p.triples()
                             + [(mono, -const, nf_one(cf.dim, cf.cutoff))])


def primary_rhs(x, lam):
    """(2T + lam lambda + chi S) x as a Lambda-polynomial: the bracket
    of the NS current with a primary state x of conformal weight lam/2,
    and with the current itself for lam = 3."""
    return hp_combine([
        ((0, 0, 0, 0), 2, apply_T(x)),
        ((1, 0, 0, 0), lam, x),
        ((0, 1, 0, 0), 1, apply_S(x)),
    ])


def check_ns(h, name="ns"):
    """Neveu-Schwarz shape: [H_L H] = (2T + chi S + 3 lambda) H plus a
    central lambda^2 chi term; central charge is 3x that constant."""
    return check_ns_against(h, h, name)


def check_ns_against(h, target, name="ns-closure"):
    """Like check_ns but requires the bracket to close on the given
    target state: [H_L H] = (2T + chi S + 3 lambda) target + central."""
    if not isinstance(h, NormalForm):
        raise TypeError("check_ns expects a NormalForm state")
    if h.parity() != 1:
        raise ValueError("the NS candidate must be odd")
    r = hp_sub(lambda_bracket(h, h), primary_rhs(target, 3))
    c3, r = _split_central(r, (2, 1, 0, 0))
    return fold(name, [(None, r)], central_charge=c3 * QI(3))


def check_n2(h, j, name="n2"):
    """N=2 relations: J is primary of conformal weight one and
    [J_L J] = -(H + (c/3) lambda chi); c is cross-checked against the
    NS charge of H."""
    if h.parity() != 1:
        raise ValueError("H must be odd")
    if j.parity() != 0:
        raise ValueError("J must be even")
    ns = check_ns(h, name="%s/ns" % name)
    r1 = hp_sub(lambda_bracket(h, j), primary_rhs(j, 2))
    r2 = hp_combine(lambda_bracket(j, j).triples() + [((0, 0, 0, 0), 1, h)])
    cneg3, r2 = _split_central(r2, (1, 1, 0, 0))
    c = -(cneg3 * QI(3))
    return fold(name, [
        ("[H_L J] weight-1 primary", r1),
        ("[J_L J] = -(H + (c/3) lambda chi)", r2),
        ("central charge agreement with NS", c == ns.central_charge),
        (None, ns),
    ], central_charge=c)


def charged_rhs(x, eps):
    """eps (S + 2 chi) x as a Lambda-polynomial, eps a scalar."""
    return hp_combine([
        ((0, 0, 0, 0), eps, apply_S(x)),
        ((0, 1, 0, 0), 2 * eps, x),
    ])


_EPS = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1),
        (1, 0): (2, -1), (2, 1): (0, -1), (0, 2): (1, -1)}


def check_n4(h, j0, j1, j2, name="n4"):
    """N=4 relations: (H, J^i) is an N=2 for each i and
    [J^i_L J^j] = eps^{ijk} (S + 2 chi) J^k for i != j, both orderings."""
    js = [j0, j1, j2]
    pairs = [check_n2(h, j, name="%s/pair%d" % (name, i))
             for i, j in enumerate(js)]
    parts = [("pair (H, J%d)" % i, sub) for i, sub in enumerate(pairs)]
    agree = len({render_qi(sub.central_charge) for sub in pairs}) == 1
    parts.append((None if agree else "central charges disagree across pairs",
                  agree))
    for (i, jj), (k, sign) in sorted(_EPS.items()):
        parts.append(("[J%d_L J%d] = %s(S+2chi) J%d"
                      % (i, jj, "" if sign > 0 else "-", k),
                      hp_sub(lambda_bracket(js[i], js[jj]),
                             charged_rhs(js[k], sign))))
    return fold(name, parts, central_charge=pairs[0].central_charge)
