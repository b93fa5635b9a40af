"""Command-line interface: expression queries and the verification
suites of scdr.suites.

Exit code 0 means every check in the invocation passed, 1 means a
verification failed, 2 means bad input, and 3 means no check failed but
one was inconclusive: certified through a negative degree only.  Output
is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import hmono_render
from .terms import Algebra, render_nf, render_hpoly
from .bracket import lambda_bracket
from .parser import (parse_expression, parse_bracket_query, looks_like_query,
                     ParseError)
from .geometry import (MetricData, flat_complex_structure,
                       quaternionic_triple_flat, load_geometry)
from .suites import (run_ns_suite, run_n2_suite, run_n4_suite,
                     run_components_suite, run_coordchange_suite,
                     run_jacobi_suite)


# -- command implementations -----------------------------------------


def _hpoly_json(p):
    terms = {}
    for m, nf in p.terms.items():
        if nf.is_zero():
            continue
        terms[hmono_render(m)] = render_nf(nf)
    return {"terms": terms, "guaranteed_degree": p.exact_to()}


def _check_state(nf, config):
    """ValueError unless nf is homogeneous and, under the rational
    ring, free of imaginary scalars."""
    if nf.parity() is None:
        raise ValueError("expression is not homogeneous")
    if config["scalar_ring"] == "rational" and any(
            q.im for cf in nf.terms.values() for q in cf.terms.values()):
        raise ValueError("imaginary scalar under --scalar-ring rational")


def cmd_bracket(args, config):
    alg = Algebra(config["dim"], config["cutoff"])
    try:
        if len(args.expr) == 1:
            if not looks_like_query(args.expr[0]):
                print("error: bracket expects '[e1 _ e2]' or two "
                      "expressions", file=sys.stderr)
                return 2
            left, right = parse_bracket_query(args.expr[0], alg.dim,
                                              alg.cutoff)
        elif len(args.expr) == 2:
            left = parse_expression(args.expr[0], alg.dim, alg.cutoff)
            right = parse_expression(args.expr[1], alg.dim, alg.cutoff)
        else:
            print("error: bracket expects one query or two expressions",
                  file=sys.stderr)
            return 2
        a = alg.normalize(left)
        b = alg.normalize(right)
        _check_state(a, config)
        _check_state(b, config)
    except (ParseError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    p = lambda_bracket(a, b)
    if config["format"] == "json":
        print(json.dumps(_hpoly_json(p), sort_keys=True, indent=2))
    else:
        print(render_hpoly(p))
    return 0


def cmd_normalize(args, config):
    alg = Algebra(config["dim"], config["cutoff"])
    try:
        nf = alg.normalize(parse_expression(args.expr, alg.dim, alg.cutoff))
        _check_state(nf, config)
    except (ParseError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    if config["format"] == "json":
        print(json.dumps({"normal_form": render_nf(nf),
                          "guaranteed_degree": nf.exact_to},
                         sort_keys=True, indent=2))
    else:
        print(render_nf(nf))
    return 0


def _suite_inputs(args, config):
    dim, cutoff = config["dim"], config["cutoff"]

    def load(path):
        # a typed --cutoff must agree with the file's own
        doc = load_geometry(path)
        if args.cutoff is not None and doc.metric.cutoff != args.cutoff:
            raise ValueError("--cutoff %d conflicts with cutoff %d in %s"
                             % (args.cutoff, doc.metric.cutoff, path))
        return doc

    geo = None
    if args.metric and args.metric != "flat":
        geo = load(args.metric)
        dim, cutoff = geo.metric.dim, geo.metric.cutoff
    metric = geo.metric if geo else MetricData.flat(dim, cutoff)
    tensors = dict(geo.tensors) if geo else {}
    changes = dict(geo.changes) if geo else {}
    for binding in args.tensor or ():
        name, _, path = binding.partition("=")
        if not path:
            raise ValueError("--tensor expects name=path")
        sub = load(path)
        if name not in sub.tensors:
            raise ValueError("no tensor %r in %s" % (name, path))
        tensors[name] = sub.tensors[name]
    if args.change:
        sub = load(args.change)
        if not sub.changes:
            raise ValueError("no coordinate changes in %s" % args.change)
        changes.update(sub.changes)
    return metric, tensors, changes


def cmd_verify(args, config):
    try:
        metric, tensors, changes = _suite_inputs(args, config)
    except (ValueError, OSError, KeyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    dim, cutoff = metric.dim, metric.cutoff
    suite = args.suite
    if suite in ("n2", "n4") and config["scalar_ring"] == "rational":
        print("error: the %s suite needs the gaussian-rational ring"
              % suite, file=sys.stderr)
        return 2
    if suite == "ns":
        reports = run_ns_suite(metric, drop_potential=args.drop_potential)
    elif suite == "n2":
        if "omega" in tensors:
            reports = run_n2_suite(metric, tensors["omega"])
        elif dim % 2 == 0:
            reports = run_n2_suite(metric,
                                   flat_complex_structure(dim // 2, cutoff),
                                   holo_split=dim // 2)
        else:
            print("error: the n2 suite needs an even dimension or an "
                  "omega tensor", file=sys.stderr)
            return 2
    elif suite == "n4":
        if dim % 4:
            print("error: the n4 suite needs dim divisible by 4",
                  file=sys.stderr)
            return 2
        names = ("I", "J", "K")
        if not args.flat_quaternionic and all(n in tensors for n in names):
            triple = tuple(tensors[n] for n in names)
        else:
            triple = quaternionic_triple_flat(dim // 4, cutoff)
        reports = run_n4_suite(metric, triple)
    elif suite == "components":
        reports = run_components_suite(dim, cutoff)
    elif suite == "coordchange":
        if not changes:
            print("error: the coordchange suite needs --change",
                  file=sys.stderr)
            return 2
        reports = run_coordchange_suite(changes)
    else:
        reports = run_jacobi_suite(dim, cutoff, args.seed)
    if config["format"] == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2,
                         sort_keys=True))
    else:
        for r in reports:
            for line in r.text_lines():
                print(line)
    if not all(r.verdict or r.inconclusive for r in reports):
        return 1
    return 3 if any(r.inconclusive for r in reports) else 0


def _common_flags(p, top):
    """Shared flags, accepted both before and after the subcommand.
    Subparser copies default to SUPPRESS so they never clobber a value
    parsed at the top level."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--dim", type=int, default=d(1),
                   help="number of superfield pairs (default 1)")
    # None marks an untyped --cutoff; main resolves it
    p.add_argument("--cutoff", type=int, default=d(None),
                   help="series truncation degree (default 8, or "
                        "SCDR_CUTOFF)")
    p.add_argument("--scalar-ring", default=d("gaussian-rational"),
                   choices=("rational", "gaussian-rational"))
    p.add_argument("--format", default=d("text"),
                   choices=("text", "json"))
    p.add_argument("--seed", type=int, default=d(0),
                   help="seed for randomized suites")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="scdr",
        description="Symbolic engine for the free superfield algebra: "
                    "Lambda-brackets, normal forms, and superconformal "
                    "structure verification.")
    _common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="compute a Lambda-bracket")
    p.add_argument("expr", nargs="+",
                   help="either '[e1 _ e2]' or two expressions")
    _common_flags(p, top=False)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("normalize", help="rewrite into PBW normal form")
    p.add_argument("expr")
    _common_flags(p, top=False)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite",
                   choices=("ns", "n2", "n4", "components", "coordchange",
                            "jacobi"))
    p.add_argument("--metric", default="flat",
                   help="'flat' or a geometry JSON file")
    p.add_argument("--tensor", action="append", metavar="NAME=PATH",
                   help="load a named tensor from a geometry JSON file")
    p.add_argument("--change", metavar="PATH",
                   help="geometry JSON file with coordinate changes")
    p.add_argument("--flat-quaternionic", action="store_true",
                   help="use the standard quaternionic triple (n4)")
    p.add_argument("--drop-potential", action="store_true",
                   help="negative control: drop the metric potential "
                        "from the candidate current (ns)")
    _common_flags(p, top=False)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    cutoff = args.cutoff
    if cutoff is None:
        env = os.environ.get("SCDR_CUTOFF", "8")
        try:
            cutoff = int(env)
        except ValueError:
            parser.error("SCDR_CUTOFF must be an integer, not %r" % env)
    if args.dim < 1:
        parser.error("--dim must be at least 1")
    if cutoff < 0:
        parser.error("--cutoff must be nonnegative")
    config = {"dim": args.dim, "cutoff": cutoff,
              "scalar_ring": args.scalar_ring, "format": args.format}
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
