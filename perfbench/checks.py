"""Checks of the engine's outputs against properties the method must have.

Each checker returns a list of problems; an empty list means the output
is correct.  The checkers read the default text reports of
``scdr verify``:

    <name>: pass|FAIL[, c = <charge>] (exact|degree <d>)
      <detail>[: pass|FAIL]
      residual: <state>

They compare against properties (verdicts, c = 3 dim, degree floors),
never against a stored copy of an earlier output.
"""

from __future__ import annotations

import re

_HEAD = re.compile(r"^(?P<name>\S+): (?P<verdict>\S+?)"
                   r"(?:, c = (?P<c>[^()]+?))? "
                   r"\((?:exact|degree (?P<degree>-?\d+))\)$")
_DETAIL_VERDICT = re.compile(r": (pass|FAIL)(?:,|$)")


def parse_reports(text):
    """Reports of a text-mode verify run, as dicts with keys name,
    verdict, c (str or None), degree (None when exact) and details, a
    list of (line, verdict or None)."""
    reports = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("  "):
            if not reports:
                raise ValueError("detail line before any report: %r" % line)
            body = line.strip()
            if body.startswith("residual:"):
                continue
            m = _DETAIL_VERDICT.search(body)
            reports[-1]["details"].append((body, m.group(1) if m else None))
            continue
        m = _HEAD.match(line)
        if not m:
            raise ValueError("unreadable report line: %r" % line)
        deg = m.group("degree")
        reports.append({"name": m.group("name"),
                        "verdict": m.group("verdict"),
                        "c": m.group("c"),
                        "degree": None if deg is None else int(deg),
                        "details": []})
    return reports


def _parse_or_problem(text):
    try:
        reports = parse_reports(text)
    except ValueError as err:
        return None, [str(err)]
    if not reports:
        return None, ["no report in the output"]
    return reports, []


def check_flat(text, code, dim):
    """Every report and detail passes and is exact; every central
    charge is 3 dim."""
    reports, problems = _parse_or_problem(text)
    if reports is None:
        return problems
    if code != 0:
        problems.append("exit code %d, want 0" % code)
    want = str(3 * dim)
    charged = 0
    for r in reports:
        if r["verdict"] != "pass":
            problems.append("%s: %s" % (r["name"], r["verdict"]))
        if r["degree"] is not None:
            problems.append("%s: certified through degree %d, want exact"
                            % (r["name"], r["degree"]))
        if r["c"] is not None:
            charged += 1
            if r["c"] != want:
                problems.append("%s: c = %s, want %s"
                                % (r["name"], r["c"], want))
        for line, verdict in r["details"]:
            if verdict == "FAIL":
                problems.append("%s: %s" % (r["name"], line))
    if not charged:
        problems.append("no central charge reported")
    return problems


def check_curved_ns(text, code, dim, cutoff):
    """Curved NS closes with c = 3 dim, certified through at least
    cutoff - 4."""
    reports, problems = _parse_or_problem(text)
    if reports is None:
        return problems
    if code != 0:
        problems.append("exit code %d, want 0" % code)
    ns = [r for r in reports if r["name"] == "ns"]
    if len(ns) != 1:
        return problems + ["want one ns report, got %d" % len(ns)]
    r = ns[0]
    if r["verdict"] != "pass":
        problems.append("ns: %s" % r["verdict"])
    if r["c"] != str(3 * dim):
        problems.append("ns: c = %s, want %d" % (r["c"], 3 * dim))
    if r["degree"] is not None and r["degree"] < cutoff - 4:
        problems.append("ns: degree %d below the floor %d"
                        % (r["degree"], cutoff - 4))
    for other in reports:
        if other["verdict"] != "pass":
            problems.append("%s: %s" % (other["name"], other["verdict"]))
    return problems


def check_coordchange(text, code, cutoff):
    """Every coordinate-change report and each of its detail lines
    passes, certified through at least cutoff - 3."""
    reports, problems = _parse_or_problem(text)
    if reports is None:
        return problems
    if code != 0:
        problems.append("exit code %d, want 0" % code)
    for r in reports:
        if r["verdict"] != "pass":
            problems.append("%s: %s" % (r["name"], r["verdict"]))
        if r["degree"] is not None and r["degree"] < cutoff - 3:
            problems.append("%s: degree %d below the floor %d"
                            % (r["name"], r["degree"], cutoff - 3))
        if not r["details"]:
            problems.append("%s: no detail lines" % r["name"])
        for line, verdict in r["details"]:
            if verdict != "pass":
                problems.append("%s: %s" % (r["name"], line))
    return problems


def check_control(text, code, name):
    """A negative control: the named report fails and the run exits 1."""
    reports, problems = _parse_or_problem(text)
    if reports is None:
        return problems
    if code != 1:
        problems.append("exit code %d, want 1" % code)
    hits = [r for r in reports if r["name"] == name]
    if len(hits) != 1:
        return problems + ["want one %s report, got %d" % (name, len(hits))]
    if hits[0]["verdict"] != "FAIL":
        problems.append("control %s: %s, want FAIL"
                        % (name, hits[0]["verdict"]))
    return problems


def vacuous_passes(text, code):
    """True while a control whose certificate covers no degree still
    reports pass or exits 0; any other verdict (FAIL, inconclusive, an
    input error) ends the fault."""
    if code == 0:
        return True
    try:
        reports = parse_reports(text)
    except ValueError:
        return False
    return any(r["name"] == "ns" and r["verdict"] == "pass"
               for r in reports)


def check_bracket_zero(defect):
    """A Jacobi defect (an HPoly) must vanish through the degree it is
    certified to."""
    if defect.is_zero_through(defect.exact_to()):
        return []
    return ["nonzero defect"]


def _coefficients(p):
    """{(lambda monomial, generators, exponent): scalar} of an HPoly,
    and the least degree any part of it is certified to."""
    out, degree = {}, None
    for m, nf in p.terms.items():
        for e in [nf.exact_to] + [cf.exact_to for cf in nf.terms.values()]:
            if e is not None:
                degree = e if degree is None else min(degree, e)
        for gens, cf in nf.terms.items():
            for exps, q in cf.terms.items():
                out[(m, gens, exps)] = q
    return out, degree


def check_equal_through(left, right):
    """Two Lambda-polynomials agree coefficient by coefficient through
    the least degree either is certified to (everywhere when exact).
    Compared term by term here, not by the engine's subtraction."""
    a, da = _coefficients(left)
    b, db = _coefficients(right)
    degs = [d for d in (da, db) if d is not None]
    if degs:
        cut = min(degs)
        a = {k: v for k, v in a.items() if sum(k[2]) <= cut}
        b = {k: v for k, v in b.items() if sum(k[2]) <= cut}
    return [] if a == b else ["skew defect is not zero"]


def check_round_trip(before, after):
    """render -> parse -> normalize returns the same normal form."""
    return [] if before == after else ["round trip changed the state"]


def check_state(state, parity):
    """A drawn state normalizes to a nonzero state of its parity."""
    problems = []
    if state.is_zero():
        problems.append("state normalized to zero")
    if state.parity() != parity:
        problems.append("parity %r, want %d" % (state.parity(), parity))
    return problems


def check_inverse_identity(compositions, degree, cutoff):
    """compositions[i] holds the terms {exponent tuple: value} of the
    i-th inverse component composed with the forward map, truncated
    through ``degree``; it must be the coordinate x_{i+1}.  The degree
    itself must reach cutoff - 3."""
    problems = []
    if degree is None or degree < cutoff - 3:
        problems.append("inverse certified through %r, below %d"
                        % (degree, cutoff - 3))
    for i, terms in enumerate(compositions):
        want = {tuple(int(k == i) for k in range(len(compositions))): 1}
        if terms != want:
            problems.append("inverse component %d composed with the "
                            "forward map is not x%d" % (i + 1, i + 1))
    return problems
