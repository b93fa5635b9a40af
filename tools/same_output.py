"""Check that two engine trees print the same CLI output.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.
Every invocation of the suite matrix below runs once per tree, each in
a fresh Python process with that tree first on PYTHONPATH, in
`--format text` and in `--format json`:

  * flat `ns`, `n2` and `n4 --flat-quaternionic` at `--dim` 4, 8, 16,
    and `components` at `--dim` 4, 8, 16; `components` at `--dim 6
    --cutoff 4` and `n4 --flat-quaternionic` at `--dim 12`;
  * curved NS on `data/metric_1d_curved.json`, with and without
    `--drop-potential`, and on the same metric rewritten at cutoff 2,
    which is certified through degree -1 only and exits 3;
  * `components` on `data/metric_1d_curved.json`, whose tables would
    not read the curved g, so it exits 2;
  * the `--drop-potential` control on the 2-D metric diag(1 + x,
    1 - x + x^2 - x^3 + x^4) at cutoff 4, whose determinant is 1
    through the cutoff, so that its potential is zero with a marker;
  * curved `n2` on three 2-D Kaehler metrics g = [[0, h], [h, 0]]
    written at cutoff 6: h = (1 + x)(1 + y), flat in disguise; h =
    1 + xy, which fails; and 1 + xy again with omega = diag(i, -i);
  * curved NS on a 2-D metric with Gaussian entries whose denominators
    are not 1, written at cutoff 5, so that inverting its constant
    part divides by scalars with imaginary parts;
  * `coordchange` on both shipped changes, on the 2-D change
    rewritten to cutoffs 10 and 12, on the 1-D change x~ = 2x
    written with its exact inverse x = x~/2, and on a 2-D change at
    cutoff 6 whose coefficients have denominators other than 1 and
    imaginary parts;
  * `n4` at `--dim 4 --cutoff 4` on the flat quaternionic triple
    written to a geometry file and read through three `--tensor`
    bindings;
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
  * three `normalize` products and three bracket queries whose constant
    coefficients are scalars other than 1 (`2`, `i`, `1/3`), also as
    vacuum multiples inside a product, next to a kept zero at `--cutoff
    1` or a truncated coefficient at `--cutoff 1` and 2;
  * two bracket queries at `--dim 6 --cutoff 2` between monomials with
    constant coefficients at indices 3 and 5, which bracket through
    their images at indices 1 and 2; the second also holds the
    coefficient x5;
  * bracket queries over the table of derived generators c T^t S^s X:
    two at `--dim 1`, one against a coefficient at `--dim 2`, and a
    coefficient times T B1 against T S Psi1 at `--dim 1 --cutoff 1`;
  * `:c Psi1:` against Psi2 at `--dim 2 --cutoff 1`, with c = (1 + x1)
    (1 - x1) truncated to a constant known through degree 1: the two
    Psi's bracket to the zero of a mismatched pair, certified through
    degree 1; and with c = (1 + x2)(1 - x2), which Psi2 differentiates,
    so the zero holds only through degree 0;
  * `normalize` and `bracket` invocations that together use every
    production of the expression grammar (see `scdr.parser`);
  * `--scalar-ring rational` on a real sum, which prints, and on an
    imaginary scalar, which exits 2;
  * six more bad inputs that exit 2 with a one-line error: the Jacobi
    suite at `--cutoff 0`, a zero denominator, a generator index above
    `--dim`, an exponent key of the wrong length, `n2` at `--dim 2`
    (default cutoff 8) with `--tensor` naming a cutoff-3 tensor file,
    and `coordchange` on x~ = 2x written with the inverse x = x~/3,
    which does not invert it.

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
    for dim in (4, 8, 16):
        suites.append(["--dim", str(dim), "verify", "components"])
    suites += [["--dim", "6", "--cutoff", "4", "verify", "components"],
               ["--dim", "12", "verify", "n4", "--flat-quaternionic"]]
    metric = str(DATA / "metric_1d_curved.json")
    suites += [["verify", "ns", "--metric", metric],
               ["verify", "ns", "--metric", metric, "--drop-potential"],
               ["verify", "components", "--metric", metric]]
    doc = {"dim": 1, "cutoff": 2, "g": [[{"0": "1", "2": "1"}]]}
    path = Path(workdir) / "metric_1d_curved_c2.json"
    path.write_text(json.dumps(doc))
    suites.append(["verify", "ns", "--metric", str(path)])
    g22 = {"0,0": "1", "1,0": "-1", "2,0": "1", "3,0": "-1", "4,0": "1"}
    doc = {"dim": 2, "cutoff": 4,
           "g": [[{"0,0": "1", "1,0": "1"}, {}], [{}, g22]]}
    path = Path(workdir) / "metric_det_one_2d.json"
    path.write_text(json.dumps(doc))
    suites.append(["verify", "ns", "--metric", str(path),
                   "--drop-potential"])
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
    doc = {"dim": 2, "cutoff": 6, "changes": {"gauss": {"forward": [
        {"1,0": "1/2", "2,0": "1/3", "1,1": "i"},
        {"0,1": "2", "1,0": "1/5", "0,2": "-1/2 + 1/3 i"}]}}}
    path = Path(workdir) / "change_gaussian_2d.json"
    path.write_text(json.dumps(doc))
    changes.append(path)
    suites += [["verify", "coordchange", "--change", str(p)]
               for p in changes]
    suites.append(["--dim", "4", "--cutoff", "4", "verify", "n4"]
                  + quaternionic_bindings(workdir))
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
                '[:f{"1": "2"} T B1: _ T S Psi1]'],
               ["--dim", "2", "--cutoff", "1", "bracket",
                ':f{"0,0": "1", "1,0": "1"} f{"0,0": "1", "1,0": "-1"} '
                'Psi1:', "Psi2"],
               ["--dim", "2", "--cutoff", "1", "bracket",
                ':f{"0,0": "1", "0,1": "1"} f{"0,0": "1", "0,1": "-1"} '
                'Psi1:', "Psi2"]]
    # constant coefficients other than 1, as scalars and as vacuum
    # multiples inside a product, next to a kept zero (x x at cutoff 1)
    # or a truncated coefficient ((1 + x)(1 + x y) at cutoff 2)
    queries += [["--dim", "1", "--cutoff", "1", "normalize",
                 ':2 S Psi1 f{"1": "1"} i f{"1": "1"} 1/3 T B1:'],
                ["--dim", "2", "--cutoff", "1", "normalize",
                 ':i f{"0,0": "1", "0,1": "1"} f{"0,0": "1", "0,1": "-1"} '
                 'S B2 Psi1 2:'],
                ["--dim", "2", "--cutoff", "2", "normalize",
                 ':S Psi1 i T S Psi2 f{"0,0": "1", "1,1": "1"} 2 '
                 'f{"1,0": "1"} 1/3:'],
                ["--dim", "1", "--cutoff", "1", "bracket",
                 '[2 * :S B1 Psi1: + :f{"1": "1"} f{"1": "1"} T B1: _ '
                 'i * T S Psi1 + 1/3 * :S B1 T Psi1:]'],
                ["--dim", "1", "--cutoff", "2", "bracket",
                 '[1/3 * :f{"0": "1", "1": "1"} f{"0": "1", "1": "-1"} '
                 'f{"0": "1", "1": "1"} Psi1: _ 2 * :T B1 i:]'],
                ["--dim", "2", "--cutoff", "2", "bracket",
                 '[1/3 * :S B1 Psi2: + :f{"0,0": "1", "1,0": "1"} '
                 'f{"0,0": "1", "1,1": "1"} S Psi1: _ '
                 'i * :T B2 S Psi1: - 2 * S Psi2]']]
    # constant-coefficient pairs at indices other than 1..k, which
    # bracket as their images at 1..k; the second also holds a
    # coefficient that is not constant (B5)
    queries += [["--dim", "6", "--cutoff", "2", "bracket",
                 "[2 * :S(B3) Psi5: _ 1/3 * i * :T(Psi3) S(B5):]"],
                ["--dim", "6", "--cutoff", "2", "bracket",
                 "[i * :S(B3) S(Psi5) Psi3: _ 3 * :B5 T(B3):]"]]
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
    doc = {"dim": 1, "cutoff": 6, "changes": {"bad": {
        "forward": [{"1": "2"}], "inverse": [{"1": "1/3"}]}}}
    bad_change = Path(workdir) / "change_not_inverse_1d.json"
    bad_change.write_text(json.dumps(doc))
    errors = [["--cutoff", "0", "verify", "jacobi"],
              ["normalize", 'f{"1": "1/0"}'],
              ["--dim", "1", "bracket", "B2", "Psi1"],
              ["normalize", 'f{"1,0": "1"}'],
              ["--dim", "2", "verify", "n2", "--tensor",
               "omega=%s" % tensor],
              ["verify", "coordchange", "--change", str(bad_change)]]
    return [["--format", fmt] + argv
            for argv in suites + queries + grammar + errors
            for fmt in ("text", "json")]


def quaternionic_bindings(workdir):
    """The --tensor flags of the flat quaternionic triple (I, J, K = IJ)
    at dim 4, cutoff 4, written to workdir as one geometry file."""
    zero = "0,0,0,0"
    entries = {"I": {(0, 0): "i", (1, 1): "i", (2, 2): "-i", (3, 3): "-i"},
               "J": {(0, 3): "1", (1, 2): "-1", (2, 1): "1", (3, 0): "-1"},
               "K": {(0, 3): "-i", (1, 2): "i", (2, 1): "i", (3, 0): "-i"}}
    tensors = {name: [[{zero: e[r, c]} if (r, c) in e else {}
                       for c in range(4)] for r in range(4)]
               for name, e in entries.items()}
    path = Path(workdir) / "quaternionic_flat_4.json"
    path.write_text(json.dumps({"dim": 4, "cutoff": 4, "tensors": tensors}))
    out = []
    for name in tensors:
        out += ["--tensor", "%s=%s" % (name, path)]
    return out


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
