"""Inputs of the benchmark workloads, made from the workload seed.

Nothing here imports the engine: the inputs are argument vectors for
``scdr.cli.main``, geometry JSON files and DSL strings, so the engine
receives only generated text.

Run as a script to regenerate the ``jets`` geometry files:

    python3 perfbench/inputs.py --seed 0 --out perfbench/out/jets-0
"""

from __future__ import annotations

import argparse
import json
import os
import random

FLAT_DIM = 16
FLAT_CUTOFF = 8

AXIOM_DIM = 2
AXIOM_CUTOFF = 4
AXIOM_PAIRS = 300
AXIOM_TRIPLES = 200

# Shipped geometry, relative to the repository root.
SHIPPED_METRIC_1D = os.path.join("data", "metric_1d_curved.json")
SHIPPED_CHANGE_2D = os.path.join("data", "change_quad_2d.json")
CHANGE_CUTOFF = 12


def flat_argvs():
    """The four flat suites at --dim 16; every coefficient is constant."""
    common = ["--dim", str(FLAT_DIM), "--cutoff", str(FLAT_CUTOFF)]
    return [common + ["verify", "ns"],
            common + ["verify", "n2"],
            common + ["verify", "n4", "--flat-quaternionic"],
            common + ["verify", "components"]]


# -- jets --------------------------------------------------------------


def _exp(dim, **powers):
    """Exponent key such as "0,2" from powers given as x1=.., x2=.."""
    e = [0] * dim
    for name, p in powers.items():
        e[int(name[1:]) - 1] = p
    return ",".join(str(p) for p in e)


def _symmetric_metric(dim, cutoff, entries):
    """A metric document from its entries on and above the diagonal."""
    g = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), series in entries.items():
        g[i][j] = series
        g[j][i] = series
    return {"dim": dim, "cutoff": cutoff, "g": g}


def jets_geometry(seed, root):
    """Geometry documents of the jets workload, keyed by file stem.

    The seed picks the signs of the curvature terms of the 2-D and 3-D
    metrics; their shape, and so the cost of a check, does not depend
    on it.  Every metric is invertible at the origin.
    """
    rng = random.Random(seed)

    def sign():
        return rng.choice(("1", "-1"))

    def half():
        return rng.choice(("1/2", "-1/2"))

    docs = {}

    with open(os.path.join(root, SHIPPED_CHANGE_2D), encoding="utf-8") as fh:
        change = json.load(fh)
    change["cutoff"] = CHANGE_CUTOFF
    docs["change_quad_2d_c12"] = change

    with open(os.path.join(root, SHIPPED_METRIC_1D), encoding="utf-8") as fh:
        docs["metric_1d"] = json.load(fh)

    # g11 = 1 + s x2^2, g12 = h x1 x2, g22 = 1 + s' x1^2
    docs["metric_2d"] = _symmetric_metric(2, 8, {
        (0, 0): {_exp(2): "1", _exp(2, x2=2): sign()},
        (0, 1): {_exp(2, x1=1, x2=1): half()},
        (1, 1): {_exp(2): "1", _exp(2, x1=2): sign()},
    })
    # g11 = 1 + s x2 x3, g12 = h x3, g22 = 1 + s' x1^2, g33 = 1 + s'' x1 x2
    docs["metric_3d"] = _symmetric_metric(3, 6, {
        (0, 0): {_exp(3): "1", _exp(3, x2=1, x3=1): sign()},
        (0, 1): {_exp(3, x3=1): half()},
        (1, 1): {_exp(3): "1", _exp(3, x1=2): sign()},
        (2, 2): {_exp(3): "1", _exp(3, x1=1, x2=1): sign()},
    })
    # Kaehler, not Ricci-flat: g_{z zbar} = 1 + z zbar in the coordinates
    # (z, zbar), with omega = diag(i, -i)
    kahler = _symmetric_metric(2, 6, {
        (0, 1): {_exp(2): "1", _exp(2, x1=1, x2=1): "1"}})
    kahler["tensors"] = {"omega": [[{_exp(2): "i"}, {}],
                                   [{}, {_exp(2): "-i"}]]}
    docs["kahler_not_ricci_flat"] = kahler
    # g_ii = 1 + x1^2 + x2 x3 at cutoff 2: the potential control
    # certifies through degree -1, which covers nothing
    diag = {_exp(3): "1", _exp(3, x1=2): "1", _exp(3, x2=1, x3=1): "1"}
    docs["vacuous_3d"] = _symmetric_metric(3, 2, {(i, i): dict(diag)
                                                 for i in range(3)})
    return docs


def write_jets(seed, root, out_dir):
    """Writes the jets geometry files; returns their paths by stem."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for stem, doc in jets_geometry(seed, root).items():
        path = os.path.join(out_dir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[stem] = path
    return paths


def jets_checks(paths):
    """The jets checks, as dicts: label, argv, kind, report (the report
    a control must fail), dim and cutoff.  Kinds:

    ns-pass       NS closes with c = 3 dim through degree >= cutoff - 4
    coord-pass    every detail line passes, degree >= cutoff - 3
    control-fail  the named report fails and the run exits 1
    vacuous       must not report pass; counted failed until it does not

    Every check passes its file's cutoff as --cutoff too, so that the
    command line and the file agree.
    """
    def check(label, args, kind, dim, cutoff, report=None):
        return {"label": label, "argv": ["--cutoff", str(cutoff)] + args,
                "kind": kind, "report": report, "dim": dim,
                "cutoff": cutoff}

    out = [check("coordchange-2d-c12",
                 ["verify", "coordchange", "--change",
                  paths["change_quad_2d_c12"]],
                 "coord-pass", 2, CHANGE_CUTOFF)]
    for stem, dim, cutoff in (("metric_1d", 1, 8), ("metric_2d", 2, 8),
                              ("metric_3d", 3, 6)):
        args = ["verify", "ns", "--metric", paths[stem]]
        out.append(check("ns-" + stem, args, "ns-pass", dim, cutoff))
        out.append(check("ns-%s-drop-potential" % stem,
                         args + ["--drop-potential"], "control-fail", dim,
                         cutoff, "ns"))
    out.append(check("n2-kahler-not-ricci-flat",
                     ["verify", "n2", "--metric",
                      paths["kahler_not_ricci_flat"]],
                     "control-fail", 2, 6, "n2"))
    out.append(check("ns-vacuous-3d-drop-potential",
                     ["verify", "ns", "--metric", paths["vacuous_3d"],
                      "--drop-potential"], "vacuous", 3, 2))
    return out


# -- axioms -------------------------------------------------------------
#
# A state is a sum of 1-2 monomials.  A monomial is a coefficient literal
# followed by 0-2 generator factors, written as the left-nested product
# ":f{...} g1 g2:".  A factor is B<k> or Psi<k> under at most one S and
# at most one T.  Coefficients have 1-2 terms of total degree <= 1 with
# nonzero Gaussian-integer values re + im i, re in -3..3, im in {0, 1}.
#
# The shapes (parities, monomials, factors, exponents) come from a fixed
# stream and the workload seed draws every scalar.  The cost of a Jacobi
# triple grows steeply with the derivatives of its factors, from
# milliseconds to seconds, so shapes drawn from the seed made the cold
# pass take 9 s on one seed and 21 s on another.  Of the streams 0-5,
# stream 2 spreads the cost most evenly: about 9 s cold for every value
# seed tried, with no triple above 1.1 s.

SHAPE_SEED = 2


def _factor_text(kind, index, t, s):
    text = "%s%d" % (kind, index)
    if s:
        text = "S(%s)" % text
    if t:
        text = "T(%s)" % text
    return text


def _factor_parity(kind, t, s):
    return ((kind == "Psi") + s) & 1


def _scalar_text(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return "i"
    return "%d + i" % re


def _coeff_text(shape, values):
    terms = {}
    for _ in range(shape.randint(1, 2)):
        e = [0] * AXIOM_DIM
        for _ in range(shape.randint(0, 1)):
            e[shape.randint(0, AXIOM_DIM - 1)] += 1
        re, im = 0, 0
        while not (re or im):
            re, im = values.randint(-3, 3), values.choice((0, 0, 0, 1))
        terms[",".join(map(str, e))] = _scalar_text(re, im)
    return "f{%s}" % ", ".join('"%s": "%s"' % kv
                               for kv in sorted(terms.items()))


def random_state(shape, values, parity):
    """A homogeneous nonzero state of the given parity, as a DSL string.

    Drawn as ``verify jacobi`` draws its states: a whole state is drawn
    again until it is homogeneous of the wanted parity.  A monomial with
    an odd square is zero and is left out.  A state whose monomials
    share their derived factors, and so could cancel, is drawn again,
    so the normal form is never zero.
    """
    while True:
        monos, keys, parities = [], set(), set()
        for _ in range(shape.randint(1, 2)):
            coeff = _coeff_text(shape, values)
            factors = []
            for _ in range(shape.randint(0, 2)):
                factors.append((shape.choice(("B", "Psi")),
                                shape.randint(1, AXIOM_DIM),
                                shape.choice((0, 0, 1)),
                                shape.choice((0, 0, 1))))
            if (len(factors) == 2 and factors[0] == factors[1]
                    and _factor_parity(factors[0][0], *factors[0][2:])):
                continue
            parities.add(sum(_factor_parity(k, t, s)
                             for k, _, t, s in factors) & 1)
            # an underived B is a coordinate, part of the coefficient
            keys.add(tuple(sorted(f for f in factors
                                  if f[0] != "B" or f[2] or f[3])))
            monos.append(":%s %s:" % (coeff, " ".join(
                _factor_text(*f) for f in factors)) if factors else coeff)
        if monos and parities == {parity} and len(keys) == len(monos):
            return " + ".join(monos)


def axiom_inputs(seed, pairs=AXIOM_PAIRS, triples=AXIOM_TRIPLES):
    """Skew pairs and Jacobi triples of (DSL text, parity) states."""
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)

    def draw():
        p = shape.randint(0, 1)
        return (random_state(shape, values, p), p)

    return ([(draw(), draw()) for _ in range(pairs)],
            [(draw(), draw(), draw()) for _ in range(triples)])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="directory to write")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for stem, path in sorted(write_jets(args.seed, root, args.out).items()):
        print(path)


if __name__ == "__main__":
    main()
