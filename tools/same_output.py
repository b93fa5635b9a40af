"""Check that two engine trees print the same CLI output.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.
Every invocation of the suite matrix below runs once per tree, each in
a fresh Python process with that tree first on PYTHONPATH, in
`--format text` and in `--format json`:

  * flat `ns`, `n2` and `n4 --flat-quaternionic` at `--dim` 4, 8, 16,
    and `components` at `--dim` 8, 16;
  * curved NS on `data/metric_1d_curved.json`, with and without
    `--drop-potential`, and on the same metric rewritten at cutoff 2,
    which is certified through degree -1 only and exits 3;
  * curved `n2` on three 2-D Kaehler metrics g = [[0, h], [h, 0]]
    written at cutoff 6: h = (1 + x)(1 + y), flat in disguise; h =
    1 + xy, which fails; and 1 + xy again with omega = diag(i, -i);
  * curved NS on a 2-D metric with Gaussian entries whose denominators
    are not 1, written at cutoff 5, so that inverting its constant
    part divides by scalars with imaginary parts;
  * `coordchange` on both shipped changes, on the 2-D change
    rewritten to cutoffs 10 and 12, and on the 1-D change x~ = 2x
    written with its exact inverse x = x~/2;
  * `verify jacobi` at `--dim 2 --cutoff 4 --seed 0`, `--dim 1
    --cutoff 2 --seed 1` and `--dim 3 --cutoff 2 --seed 2`, and at
    `--dim 1 --cutoff 1` and `--dim 2 --cutoff 2`; all but the first
    fail with counts that move with any change to the degree markers
    of sums;
  * the `bracket` and `normalize` examples of README.md, two bracket
    queries at `--dim 3`, and one bracket query and one `normalize` at
    `--dim 1 --cutoff 1` whose values are certified through degree 1
    only;
  * two `normalize` products that move coefficients past odd factors
    through the quasi-commutativity integral and truncate their
    coefficient products: `:S Psi1 f f:` with f = x at `--dim 1
    --cutoff 1`, certified through degree 1, and `:S Psi1 T S Psi2
    f{"1,1"} f{"1,0"}:` at `--dim 2 --cutoff 2`, through degree 2;
  * bracket queries over the table of derived generators c T^t S^s X:
    two at `--dim 1`, one against a coefficient at `--dim 2`, and a
    coefficient times T B1 against T S Psi1 at `--dim 1 --cutoff 1`;
  * `normalize` and `bracket` invocations that together use every
    production of the expression grammar (see `scdr.parser`);
  * `--scalar-ring rational` on a real sum, which prints, and on an
    imaginary scalar, which exits 2;
  * five more bad inputs that exit 2 with a one-line error: the Jacobi
    suite at `--cutoff 0`, a zero denominator, a generator index above
    `--dim`, an exponent key of the wrong length, and `n2` at `--dim 2`
    (default cutoff 8) with `--tensor` naming a cutoff-3 tensor file.

The stdout, stderr and exit code of each pair are compared.  Every pair that
differs is named, with a count at the end, and the script exits 1; when
all agree it prints one summary line and exits 0.  Standard library only; the engine does
not import this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"

RUN = "import sys; from scdr.cli import main; sys.exit(main())"


def matrix(workdir):
    """The argv of every invocation, without the --format flag."""
    suites = []
    for dim in (4, 8, 16):
        suites += [["--dim", str(dim), "verify", "ns"],
                   ["--dim", str(dim), "verify", "n2"],
                   ["--dim", str(dim), "verify", "n4",
                    "--flat-quaternionic"]]
    for dim in (8, 16):
        suites.append(["--dim", str(dim), "verify", "components"])
    metric = str(DATA / "metric_1d_curved.json")
    suites += [["verify", "ns", "--metric", metric],
               ["verify", "ns", "--metric", metric, "--drop-potential"]]
    doc = {"dim": 1, "cutoff": 2, "g": [[{"0": "1", "2": "1"}]]}
    path = Path(workdir) / "metric_1d_curved_c2.json"
    path.write_text(json.dumps(doc))
    suites.append(["verify", "ns", "--metric", str(path)])
    h_flat = {"0,0": "1", "1,0": "1", "0,1": "1", "1,1": "1"}
    h_curved = {"0,0": "1", "1,1": "1"}
    omega = [[{"0,0": "i"}, {}], [{}, {"0,0": "-i"}]]
    for name, h, tensors in (("flat", h_flat, None),
                             ("curved", h_curved, None),
                             ("omega", h_curved, {"omega": omega})):
        doc = {"dim": 2, "cutoff": 6, "g": [[{}, h], [h, {}]]}
        if tensors:
            doc["tensors"] = tensors
        path = Path(workdir) / ("kaehler_%s.json" % name)
        path.write_text(json.dumps(doc))
        suites.append(["verify", "n2", "--metric", str(path)])
    g12 = {"0,0": "i", "0,1": "1/2 i"}
    doc = {"dim": 2, "cutoff": 5,
           "g": [[{"0,0": "2", "1,0": "1/3"}, g12],
                 [g12, {"0,0": "3/2", "1,1": "-2/5"}]]}
    path = Path(workdir) / "metric_gaussian.json"
    path.write_text(json.dumps(doc))
    suites.append(["verify", "ns", "--metric", str(path)])
    changes = [DATA / "change_quad_1d.json", DATA / "change_quad_2d.json"]
    doc = json.loads((DATA / "change_quad_2d.json").read_text())
    for cutoff in (10, 12):
        doc["cutoff"] = cutoff
        path = Path(workdir) / ("change_quad_2d_c%d.json" % cutoff)
        path.write_text(json.dumps(doc))
        changes.append(path)
    doc = {"dim": 1, "cutoff": 6, "changes": {"double": {
        "forward": [{"1": "2"}], "inverse": [{"1": "1/2"}]}}}
    path = Path(workdir) / "change_double_1d.json"
    path.write_text(json.dumps(doc))
    changes.append(path)
    suites += [["verify", "coordchange", "--change", str(p)]
               for p in changes]
    for dim, cutoff, seed in ((2, 4, 0), (1, 2, 1), (3, 2, 2)):
        suites.append(["--dim", str(dim), "--cutoff", str(cutoff),
                       "--seed", str(seed), "verify", "jacobi"])
    for dim, cutoff in ((1, 1), (2, 2)):
        suites.append(["--dim", str(dim), "--cutoff", str(cutoff),
                       "verify", "jacobi"])
    queries = [["bracket", "[B1 _ Psi1]"],
               ["bracket", "[S(B1) _ Psi1]"],
               ["normalize", ":Psi1 S(B1): + :S(B1) Psi1:"],
               ["normalize", "S(S(B1))"],
               ["--dim", "3", "bracket",
                "[:S(B1) Psi1 T(B2): _ :Psi2 S(Psi3): + :T(Psi1) B3:]"],
               ["--dim", "3", "bracket", "[:S(B1) Psi1: _ :B2 S(Psi3):]"],
               ["--dim", "1", "--cutoff", "1", "bracket",
                '[:f{"1": "1"} Psi1: _ :f{"1": "3"} T B1:]'],
               ["--dim", "1", "--cutoff", "1", "normalize",
                ':f{"1": "1"} f{"1": "1"}:'],
               ["--dim", "1", "--cutoff", "1", "normalize",
                ':S Psi1 f{"1": "1"} f{"1": "1"}:'],
               ["--dim", "2", "--cutoff", "2", "normalize",
                ':S Psi1 T S Psi2 f{"1,1": "1"} f{"1,0": "1"}:'],
               ["bracket", "[2 * T T S B1 _ i * T S Psi1]"],
               ["bracket", "[T S Psi1 _ T T B1]"],
               ["--dim", "2", "bracket", '[T T Psi2 _ f{"0,3": "1/2"}]'],
               ["--dim", "1", "--cutoff", "1", "bracket",
                '[:f{"1": "2"} T B1: _ T S Psi1]']]
    # one production of the grammar or more per line: bare number, i,
    # vac; S(...) and prefix T S; a three-factor chain with a Gaussian
    # literal; leading minus and scalar prefixes; nested parentheses;
    # queries and the two-expression bracket form
    grammar = [["normalize", "3/2"],
               ["normalize", "i"],
               ["normalize", "vac"],
               ["--dim", "2", "normalize", "S(:B1 Psi2:)"],
               ["normalize", "T S B1"],
               ["--dim", "2", "normalize", ":S(B1) Psi1 T(B2):"],
               ["--dim", "2", "normalize",
                ':f{"1,0": "1/2 + i", "0,2": "-3 i"} Psi1 S(B2):'],
               ["--dim", "2", "normalize",
                "- S(B1) + 2 * i * Psi2 - 1/3 * T(Psi1)"],
               ["--dim", "2", "normalize", "S(T(S(:B1 Psi1:) - T(B2)))"],
               ["--dim", "2", "bracket",
                '[f{"1,1": "2 - i"} _ - S(Psi1) + 3 * T(B2)]'],
               ["--dim", "2", "bracket",
                "[:B1 Psi2: _ 2 * i * :B2 S(Psi1):]"],
               ["bracket", "T S B1", "Psi1"],
               ["--scalar-ring", "rational", "normalize",
                "1/2 * T B1 + 2/4 * S Psi1"],
               ["--scalar-ring", "rational", "normalize", "1/2 * i * B1"]]
    doc = {"dim": 2, "cutoff": 3, "tensors": {"omega": omega}}
    tensor = Path(workdir) / "omega_c3.json"
    tensor.write_text(json.dumps(doc))
    errors = [["--cutoff", "0", "verify", "jacobi"],
              ["normalize", 'f{"1": "1/0"}'],
              ["--dim", "1", "bracket", "B2", "Psi1"],
              ["normalize", 'f{"1,0": "1"}'],
              ["--dim", "2", "verify", "n2", "--tensor",
               "omega=%s" % tensor]]
    return [["--format", fmt] + argv
            for argv in suites + queries + grammar + errors
            for fmt in ("text", "json")]


def run(src, argv):
    env = dict(os.environ)
    env.pop("SCDR_CUTOFF", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", RUN] + argv, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (Path(src) / "scdr" / "cli.py").is_file():
            ap.error("%s holds no scdr package" % src)
    with tempfile.TemporaryDirectory() as tmp:
        cases = matrix(tmp)
        differ = 0
        for n, case in enumerate(cases, 1):
            parent = run(args.parent_src, case)
            change = run(args.change_src, case)
            if parent != change:
                differ += 1
                print("differs at %d of %d: scdr %s" % (
                    n, len(cases), " ".join(case)))
                print("  exit codes: %d, %d" % (parent[0], change[0]))
    if differ:
        print("%d of %d invocations differ" % (differ, len(cases)))
        return 1
    print("%d invocations: stdout, stderr and exit codes identical"
          % len(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
