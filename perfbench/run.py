"""Benchmark of the scdr engine: one workload per run, timed end to end or
traced layer by layer.

    python3 perfbench/run.py --workload flat|jets|axioms --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src``.  The workload runs in this one process, with no
threads.  A run repeats whole rounds until the next one would pass
``--seconds``.  A round is one cold pass, where every suite starts from
cleared memo caches as a fresh ``scdr`` process does, and warm passes,
where each suite runs again on the caches its cold run left.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).

Every time metric is given in seconds at a fixed reference speed.  On a
shared host the speed can drift by up to a factor of two over minutes,
and pure Python code of every kind slows and speeds up together.  So
before each timed check the run times a fixed piece of pure Python
work, the speed probe, outside the timing, and scales its times by
SPEED_REF_S over the probe's median time in the run.  The raw medians
are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 21
# The speed probe's time at the reference speed: about its time on a
# 2-CPU x86-64 host under Python 3.11.7 in a fast phase.
SPEED_REF_S = 0.02

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


def fail(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def speed_probe():
    """Seconds of a fixed piece of pure Python work of the engine's kind:
    Fraction arithmetic into a dict keyed by tuples."""
    t0 = time.perf_counter()
    acc, zero = {}, Fraction(0)
    for i in range(3000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, zero) + (Fraction(i % 7 + 1, i % 5 + 1)
                                         * Fraction(3, i % 4 + 2))
    return time.perf_counter() - t0


def speed_scale(probes):
    """Factor that turns seconds measured next to ``probes`` into
    seconds at the reference speed."""
    return SPEED_REF_S / statistics.median(probes)


def setup_seconds():
    """(scaled, raw) median over fresh interpreters of the time from
    process start until ``import scdr`` returns.  The first interpreter,
    which may compile the bytecode cache, is not counted.  A speed probe
    runs before each."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SCDR_CUTOFF")}
    env["PYTHONPATH"] = SRC
    code = "import scdr, time; print(repr(time.perf_counter()))"
    times, probes = [], []
    for _ in range(SETUP_PROBES + 1):
        probes.append(speed_probe())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode:
            fail("import scdr failed:\n%s" % proc.stderr)
        times.append(float(proc.stdout.split()[-1]) - t0)
    raw = statistics.median(times[1:])
    return raw * speed_scale(probes[1:]), raw


class Engine:
    """The engine under test: its CLI, its memo caches and a record of
    how large they grew."""

    def __init__(self):
        import scdr
        import scdr.cli

        if not os.path.abspath(scdr.__file__).startswith(SRC + os.sep):
            fail("imported scdr from %s, not from %s" % (scdr.__file__, SRC))
        self.scdr = scdr
        self.peak_cache_entries = 0
        self.cache_added = {}
        self.probes = []

    def _cache_sizes(self):
        return {name: len(getattr(sys.modules.get("scdr." + mod), attr, ()))
                for name, mod, attr in tracer.CACHES}

    def note_caches(self):
        """Adds the caches' current sizes to the running tally."""
        sizes = self._cache_sizes()
        self.peak_cache_entries = max(self.peak_cache_entries,
                                      sum(sizes.values()))
        for name, n in sizes.items():
            self.cache_added[name] = self.cache_added.get(name, 0) + n

    def probe(self):
        self.probes.append(speed_probe())

    def prepare(self, cold):
        """Readies the engine for a timed check.  Cold: clears every
        memo cache, as a new process has them.  Either way runs a speed
        probe, then collects the garbage, so that every timed check
        starts from the same collector state and a full collection does
        not fall into some passes and not others."""
        if cold:
            self.note_caches()
            for name, mod in list(sys.modules.items()):
                if name.startswith("scdr") and mod is not None:
                    clear = getattr(mod, "clear_caches", None)
                    if callable(clear):
                        clear()
        self.probe()
        gc.collect()

    def cli(self, argv):
        """(seconds, exit code, stdout) of one ``scdr`` invocation.  The
        exit code goes to the check's judge, which decides whether an
        input error (exit 2) is wrong; its message is shown on stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.scdr.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            dt = time.perf_counter() - t0
        if code == 2:
            print("scdr %s: exit 2: %s" % (" ".join(argv),
                                           err.getvalue().strip()),
                  file=sys.stderr)
        return dt, code, out.getvalue()


class Pass:
    """Totals of one pass over a workload's checks."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, dt, problems, failed=False):
        self.seconds += dt
        self.attempted += 1
        self.failed += int(failed)
        self.problems.extend("%s: %s" % (label, p) for p in problems)


class CliChecks:
    """A workload of ``scdr`` invocations.  In a round each one runs
    cold, on cleared caches, then at once again warm, on the caches its
    cold run left, so every warm check sees one well-defined state."""

    def checks(self):
        """(label, argv, judge); judge(text, code) -> (problems, failed)."""
        raise NotImplementedError

    def run_round(self, warm=True):
        cold, hot = Pass(), Pass()
        for label, argv, judge in self.checks():
            for p in (cold, hot) if warm else (cold,):
                self.engine.prepare(cold=p is cold)
                dt, code, text = self.engine.cli(argv)
                problems, failed = judge(text, code)
                p.record(label, dt, problems, failed)
        return cold, [hot] if warm else []

    def verify_outputs(self):
        return []


class Flat(CliChecks):
    """ns, n2, n4 and the component tables at --dim 16."""

    def __init__(self, engine, seed):
        self.engine = engine

    def checks(self):
        def judge(text, code):
            return checks.check_flat(text, code, inputs.FLAT_DIM), False

        return [(" ".join(argv[4:]), argv, judge)
                for argv in inputs.flat_argvs()]


class Jets(CliChecks):
    """Curved metrics and a coordinate change, with their controls."""

    def __init__(self, engine, seed):
        self.engine = engine
        self.paths = inputs.write_jets(seed, ROOT,
                                       os.path.join(OUT, "jets-%d" % seed))

    def checks(self):
        return [(c["label"], c["argv"], functools.partial(self._judge, c))
                for c in inputs.jets_checks(self.paths)]

    @staticmethod
    def _judge(c, text, code):
        if c["kind"] == "ns-pass":
            return checks.check_curved_ns(text, code, c["dim"],
                                          c["cutoff"]), False
        if c["kind"] == "coord-pass":
            return checks.check_coordchange(text, code, c["cutoff"]), False
        if c["kind"] == "control-fail":
            return checks.check_control(text, code, c["report"]), False
        return [], checks.vacuous_passes(text, code)

    def verify_outputs(self):
        """The sympy check of the Newton inverse, outside the timing."""
        import oracle

        path = self.paths["change_quad_2d_c12"]
        problems = []
        for name, change in sorted(
                self.engine.scdr.load_geometry(path).changes.items()):
            comps, degree = oracle.inverse_compositions(change)
            problems += ["sympy %s: %s" % (name, p) for p in
                         checks.check_inverse_identity(comps, degree,
                                                       change.cutoff)]
        return problems


class Axioms:
    """Random states through skew symmetry, Jacobi and a round trip.
    The suite is one unit: a round runs it cold, then once warm on the
    caches the cold run filled."""

    # A speed probe every PROBE_EVERY operations, outside their timing,
    # samples the speed through the suite as the other workloads do
    # between their checks.  The probe triggers at most a young
    # collection, at the same places in every run.
    PROBE_EVERY = 170

    def __init__(self, engine, seed):
        self.engine = engine
        self.pairs, self.triples = inputs.axiom_inputs(seed)

    def run_round(self, warm=True):
        cold = self._suite(cold=True)
        return cold, [self._suite(cold=False)] if warm else []

    def _suite(self, cold):
        scdr, clock = self.engine.scdr, time.perf_counter
        dim, cutoff = inputs.AXIOM_DIM, inputs.AXIOM_CUTOFF
        self.engine.prepare(cold)
        p = Pass()
        alg = scdr.Algebra(dim, cutoff)
        states = []

        def state(text):
            return alg.normalize(scdr.parse_expression(text, dim, cutoff))

        def probe():
            if p.attempted % self.PROBE_EVERY == self.PROBE_EVERY - 1:
                self.engine.probe()

        for i, ((ta, pa), (tb, pb)) in enumerate(self.pairs):
            probe()
            t0 = clock()
            a, b = state(ta), state(tb)
            left = scdr.lambda_bracket(b, a)
            right = scdr.skew(scdr.lambda_bracket(a, b), pa, pb)
            dt = clock() - t0
            states += [(a, pa), (b, pb)]
            p.record("skew pair %d" % i, dt,
                     checks.check_state(a, pa) + checks.check_state(b, pb)
                     + checks.check_equal_through(left, right))
        for i, ((ta, pa), (tb, pb), (tc, pc)) in enumerate(self.triples):
            probe()
            t0 = clock()
            a, b, c = state(ta), state(tb), state(tc)
            defect = scdr.jacobi_defect(a, b, c)
            dt = clock() - t0
            states += [(a, pa), (b, pb), (c, pc)]
            p.record("jacobi triple %d" % i, dt,
                     checks.check_state(a, pa) + checks.check_state(b, pb)
                     + checks.check_state(c, pc)
                     + checks.check_bracket_zero(defect))
        for i, (s, _) in enumerate(states):
            probe()
            t0 = clock()
            back = state(scdr.render_nf(s))
            dt = clock() - t0
            p.record("round trip %d" % i, dt,
                     checks.check_round_trip(s, back))
        return p

    def verify_outputs(self):
        return []


WORKLOADS = {"flat": Flat, "jets": Jets, "axioms": Axioms}


def repeat(body, deadline):
    """Calls ``body`` at least once, and again while one more call as
    long as the mean so far would end by ``deadline``."""
    n, first = 0, time.perf_counter()
    while True:
        body()
        n += 1
        now = time.perf_counter()
        if now + (now - first) / n > deadline:
            return n


def timed_run(workload, seconds):
    """Whole rounds until one more would end after ``seconds``."""
    cold, warm, passes = [], [], []

    def round_():
        c, hots = workload.run_round()
        cold.append(c.seconds)
        warm.extend(h.seconds for h in hots)
        passes.extend([c] + hots)

    repeat(round_, time.perf_counter() + seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for label, times in (("cold", cold), ("warm", warm)):
        print("%s passes (s): %s" % (label, " ".join("%.3f" % t
                                                     for t in times)))
    metrics = {"verify_s": (statistics.median(cold), "s"),
               "warm_verify_s": (statistics.median(warm), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    return passes, metrics


def traced_run(workload, engine, seconds, trace_path):
    deadline = time.perf_counter() + seconds
    untraced = workload.run_round(warm=False)[0]
    passes, samples, counts = [untraced], [], None
    layers = tracer.Tracer()
    missing = layers.missing()
    if missing:
        print("warning: not in this engine: %s" % ", ".join(missing),
              file=sys.stderr)
    layers.install()

    def body():
        nonlocal counts
        engine.prepare(cold=True)
        engine.peak_cache_entries, engine.cache_added = 0, {}
        layers.reset()
        p = workload.run_round(warm=False)[0]
        engine.note_caches()
        passes.append(p)
        m = layers.metrics()
        for name, added in engine.cache_added.items():
            m[name] = (added, "count")
        m["cache.entries"] = (engine.peak_cache_entries, "count")
        m["trace.overhead_pct"] = (100.0 * (p.seconds / untraced.seconds
                                            - 1.0), "%")
        exact = {k: v for k, (v, u) in m.items() if u == "count"}
        if counts is None:
            counts = exact
        elif exact != counts:
            print("warning: counts differ between traced passes",
                  file=sys.stderr)
        samples.append(m)

    try:
        repeat(body, deadline)
    finally:
        layers.uninstall()
    layers.dump(trace_path, {"untraced_s": untraced.seconds,
                             "traced_s": passes[-1].seconds})
    metrics = {}
    for name, (_, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        metrics[name] = (values[0] if unit == "count"
                         else statistics.median(values), unit)
    return passes, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="scdr benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scdr", "__init__.py")):
        fail("no engine source at %s" % SRC)
    os.environ.pop("SCDR_CUTOFF", None)
    os.makedirs(OUT, exist_ok=True)

    setup = None if args.trace else setup_seconds()
    sys.path.insert(0, SRC)
    engine = Engine()
    workload = WORKLOADS[args.workload](engine, args.seed)
    if args.trace:
        passes, metrics = traced_run(
            workload, engine, args.seconds,
            os.path.join(OUT, "trace-%s-%d.json" % (args.workload,
                                                     args.seed)))
    else:
        passes, metrics = timed_run(workload, args.seconds)
    scale = speed_scale(engine.probes)
    print("speed probe: median %.2f ms of %d, reference %.2f ms"
          % (1e3 * SPEED_REF_S / scale, len(engine.probes),
             1e3 * SPEED_REF_S))
    raw = {k: v for k, (v, u) in metrics.items()}
    metrics = {k: (v * scale if u == "s" else v, u)
               for k, (v, u) in metrics.items()}
    if setup:
        metrics["setup_s"], raw["setup_s"] = (setup[0], "s"), setup[1]
    problems = [p for ps in passes for p in ps.problems]
    problems += workload.verify_outputs()
    for p in problems[:20]:
        print("wrong: %s" % p, file=sys.stderr)
    print("%-32s %14s %14s" % ("metric", "value", "raw"))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-32s %14.6f %14.6f %s" % (name, value, raw[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
