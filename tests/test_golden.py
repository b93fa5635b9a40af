"""Pinned CLI output: stdout and exit code of fixed invocations.

A speed change must leave these byte-identical.  The expected files
under tests/golden/ are written by running this file as a script,

    PYTHONPATH=src python tests/test_golden.py

which overwrites them with the output of whatever scdr is importable;
review the diff before committing it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from scdr.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "coordchange_1d": ["verify", "coordchange",
                       "--change", str(DATA / "change_quad_1d.json")],
    "coordchange_2d": ["verify", "coordchange",
                       "--change", str(DATA / "change_quad_2d.json")],
    "ns_curved": ["verify", "ns",
                  "--metric", str(DATA / "metric_1d_curved.json")],
    "ns_curved_drop_potential": ["verify", "ns", "--metric",
                                 str(DATA / "metric_1d_curved.json"),
                                 "--drop-potential"],
    "n4_flat_dim4": ["--dim", "4", "verify", "n4", "--flat-quaternionic"],
    "components_dim4": ["--dim", "4", "verify", "components"],
    "coordchange_2d_json": ["--format", "json", "verify", "coordchange",
                            "--change", str(DATA / "change_quad_2d.json")],
}


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def expected_exit_codes():
    with open(GOLDEN / "exit_codes.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name):
    rc, out = invoke(CASES[name])
    want = (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
    assert out == want
    assert rc == expected_exit_codes()[name]


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = invoke(argv)
        (GOLDEN / (name + ".out")).write_text(out, encoding="utf-8")
    with open(GOLDEN / "exit_codes.json", "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
