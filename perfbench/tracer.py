"""Per-layer tracing of the engine, installed from the benchmark's side.

The tracer wraps the public functions of each engine module (and a few
methods named below) and patches every module that imported them, so
calls between modules go through the wrappers too.  Each call is a span;
spans are folded as they close into per-function totals (calls, self
time) and into inclusive times of function groups, so memory stays
flat however many calls a pass makes.  A span's self time is its
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "scdr"
LAYERS = ("scalars", "terms", "bracket", "geometry", "superconf",
          "components", "parser", "cli")

# Functions cheaper than the wrapper itself (a few dict or tuple
# operations each, called up to 700k times in one pass).  Their time
# counts as self time of the function that called them.
SKIP = {
    "scalars": {"as_qi", "binomial", "hmono_trim", "hmono_pad",
                "hmono_parity", "hmono_get", "hmono_lambda", "hmono_chi",
                "hmono_render", "hmono_mul"},
    "terms": {"gens_parity", "hp_zero", "nf_zero", "unit_cf", "nf_mono",
              "nf_one", "nf_from_terms"},
}

# Methods traced besides module-level functions: (class, method).
METHODS = {
    "scalars": (("CoeffFunction", "__mul__"), ("CoeffFunction", "compose")),
    "terms": (("Algebra", "normalize"),),
}

# Inclusive-time groups.  A group's time sums its outermost spans only,
# so recursion and calls between members are not counted twice.
GROUPS = {
    "scalars.compose": ("scalars.CoeffFunction.compose",),
    "scalars.functional_inverse": ("scalars.functional_inverse",),
    "scalars.series_inverse": ("scalars.series_inverse",),
    "scalars.log_series": ("scalars.log_series_normalized",),
    "terms.apply_ST": ("terms.apply_S", "terms.apply_T"),
    "terms.render_nf": ("terms.render_nf",),
    "bracket.jacobi_defect": ("bracket.jacobi_defect",),
    "geometry.load": ("geometry.load_geometry",),
    "geometry.currents": ("geometry.build_H", "geometry.build_H0",
                          "geometry.build_J"),
    "geometry.christoffel": ("geometry.christoffel",),
    "geometry.coordchange": ("geometry.check_coordinate_change",),
    "parser.parse": ("parser.parse_expression",
                     "parser.parse_bracket_query"),
}

# Call counts reported, by metric name: the functions they add up.
CALLS = {
    "scalars.cf_mul.calls": ("scalars.CoeffFunction.__mul__",),
    "scalars.compose.calls": ("scalars.CoeffFunction.compose",),
    "terms.mono_mul.calls": ("terms.mono_mul",),
    "terms.nf_mul_gen.calls": ("terms.nf_mul_gen",),
    "bracket.lambda_bracket.calls": ("bracket.lambda_bracket",),
    "bracket.bracket_mono.calls": ("bracket.bracket_mono",),
    "parser.parse.calls": GROUPS["parser.parse"],
}

# Memo caches: (metric name, module, attribute).
CACHES = (("terms.mul_cache.misses", "terms", "_MUL_CACHE"),
          ("terms.gen_cache.misses", "terms", "_GEN_CACHE"),
          ("bracket.br_cache.misses", "bracket", "_BR_CACHE"))

SELF_LAYERS = ("scalars", "terms", "bracket", "geometry", "superconf",
               "components", "cli")


def _targets():
    """(qualified name, layer index, owner, attribute, function) for
    everything the tracer wraps."""
    out = []
    for lid, layer in enumerate(LAYERS):
        mod = sys.modules.get("%s.%s" % (PACKAGE, layer))
        if mod is None:
            continue
        for name, obj in sorted(vars(mod).items()):
            if (name.startswith("_") or name in SKIP.get(layer, ())
                    or not callable(obj) or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            out.append(("%s.%s" % (layer, name), lid, mod, name, obj))
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is not None:
                out.append(("%s.%s.%s" % (layer, cls_name, meth), lid, cls,
                            meth, fn))
    return out


class Tracer:
    """Wraps the engine's layers while installed; ``metrics`` reads the
    totals of every pass run since ``reset``."""

    def __init__(self):
        self.targets = _targets()
        self.names = [t[0] for t in self.targets]
        group_of = {q: g for g, qs in GROUPS.items() for q in qs}
        self.group_names = sorted(set(GROUPS) | {
            q for q in self.names if q not in group_of})
        gindex = {g: i for i, g in enumerate(self.group_names)}
        self._gid = [gindex[group_of.get(q, q)] for q in self.names]
        n, ng = len(self.targets), len(self.group_names)
        self.calls, self.self_s = [0] * n, [0.0] * n
        self.incl, self._depth = [0.0] * ng, [0] * ng
        self._child = [0.0]
        self._patched = []

    def reset(self):
        """Zeroes the totals in place, where installed wrappers see them."""
        for totals in (self.calls, self._depth):
            totals[:] = [0] * len(totals)
        for totals in (self.self_s, self.incl):
            totals[:] = [0.0] * len(totals)
        self._child[:] = [0.0]

    def _wrap(self, fn, fid, gid):
        clock = time.perf_counter
        child = self._child
        calls, self_s, depth, incl = (self.calls, self.self_s, self._depth,
                                      self.incl)

        def traced(*args, **kwargs):
            depth[gid] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                calls[fid] += 1
                self_s[fid] += dt - inner
                d = depth[gid] - 1
                depth[gid] = d
                if not d:
                    incl[gid] += dt

        return functools.wraps(fn)(traced)

    def install(self):
        originals = {}
        for fid, (qual, lid, owner, attr, fn) in enumerate(self.targets):
            wrapper = self._wrap(fn, fid, self._gid[fid])
            originals[id(fn)] = wrapper
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # every module of the package that holds a wrapped function
        prefix = PACKAGE + "."
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == PACKAGE
                                   or mname.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and callable(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- reading ---------------------------------------------------------

    def _sum(self, values, quals):
        index = {q: i for i, q in enumerate(self.names)}
        return sum(values[index[q]] for q in quals if q in index)

    def layer_self(self, layer):
        lid = LAYERS.index(layer)
        return sum(s for (q, l, *_), s in zip(self.targets, self.self_s)
                   if l == lid)

    def metrics(self):
        """Per-layer metrics of the passes since reset: name -> (value,
        unit).  Cache misses are added by the caller, who knows when the
        caches were cleared."""
        out = {}
        for name, quals in CALLS.items():
            out[name] = (self._sum(self.calls, quals), "count")
        out["scalars.cf_mul.self_s"] = (
            self._sum(self.self_s, ("scalars.CoeffFunction.__mul__",)), "s")
        for group in GROUPS:
            out[group + ".s"] = (self.incl[self.group_names.index(group)],
                                 "s")
        for layer in SELF_LAYERS:
            out[layer + ".self_s"] = (self.layer_self(layer), "s")
        return out

    def missing(self):
        """Names the metrics refer to that this engine does not have."""
        known = set(self.names)
        wanted = {q for qs in list(GROUPS.values()) + list(CALLS.values())
                  for q in qs}
        return sorted(wanted - known)

    def dump(self, path, extra=None):
        """Writes the folded spans: per function and per group."""
        doc = {
            "functions": {q: {"calls": c, "self_s": s}
                          for q, c, s in zip(self.names, self.calls,
                                             self.self_s) if c},
            "groups_s": {g: t for g, t in zip(self.group_names, self.incl)
                         if t},
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
