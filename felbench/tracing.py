"""Per-layer tracing for the benchmark, done from outside the program.

The tracer wraps public functions of the ``fel`` modules (the layers) and
records, for every call, its duration and the time covered by the wrapped
calls it made (its children).  Self time is the duration minus that child
time.  Coarse calls are also kept as spans (name, start, end, parent) in
memory and written out when the run ends; hot calls (tens of thousands per
round) only feed the per-name totals.

Wrapping is done by replacing every reference to the original function in
the loaded ``fel.*`` modules, because modules import each other's functions
by name (``from .precision import integrate_finite``).  A function that no
longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (layer name, module, attribute, kind)
#   call:  an ordinary function, kept as spans
#   hot:   an ordinary function called too often for spans
#   gen:   a generator function; each next() is one (hot) activation
#   cache: an lru_cache'd function; only misses are timed and kept
#   group: every public function of the module, summed under one name
TARGETS = (
    ("cli", "fel.cli", "main", "call"),
    ("precision.integrate_finite", "fel.precision", "integrate_finite", "call"),
    ("precision.isolate_sign_changes", "fel.precision", "isolate_sign_changes", "call"),
    ("precision.gauss_legendre", "fel.precision", "gauss_legendre", "cache"),
    ("precision.maximize_scalar", "fel.precision", "maximize_scalar", "call"),
    ("lower.l1_norm", "fel.lower", "l1_norm", "call"),
    ("lower.reward", "fel.lower", "reward", "call"),
    ("upper.sup_norm", "fel.upper", "sup_norm", "call"),
    ("upper.residual", "fel.upper", "residual", "call"),
    ("search.optimize_upper", "fel.search", "optimize_upper", "call"),
    ("search.optimize_lower", "fel.search", "optimize_lower", "call"),
    ("search.praxis_minimize", "fel.search", "praxis_minimize", "call"),
    ("nt.least_qnr", "fel.nt", "least_qnr", "hot"),
    ("nt.scan", "fel.nt", "scan", "gen"),
    ("nt.segmented_primes", "fel.nt", "segmented_primes", "gen"),
    ("nt.primes_upto", "fel.nt", "primes_upto", "call"),
    ("nt.prime_sum_check", "fel.nt", "prime_sum_check", "call"),
    ("closed_form", "fel.closed_form", None, "group"),
    ("tables", "fel.tables", None, "group"),
)


class Tracer:
    """Span recorder and per-name totals for the wrapped layer functions."""

    def __init__(self):
        self.spans = []                     # [id, name, start, end, parent id]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # outermost activations only
        self.self_time = defaultdict(float)
        self.items = defaultdict(int)       # values yielded by generators
        self.misses = defaultdict(int)      # cache misses
        self.absent = []
        self._stack = []                    # [name, child time, span id]
        self._depth = defaultdict(int)
        self._undo = []

    # -- activations -------------------------------------------------------

    def _enter(self, name, keep):
        sid = None
        if keep:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            sid = len(self.spans)
            self.spans.append([sid, name, 0.0, 0.0, parent])
        self._stack.append([name, 0.0, sid])
        self._depth[name] += 1
        return time.perf_counter()

    def _exit(self, name, t0):
        t1 = time.perf_counter()
        d = t1 - t0
        frame = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += d
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total[name] += d
        self.calls[name] += 1
        self.self_time[name] += d - frame[1]
        if frame[2] is not None:
            span = self.spans[frame[2]]
            span[2], span[3] = t0, t1

    def _call_wrapper(self, name, fn, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
        return wrapper

    def _gen_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = self._enter(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, t0)
                    self.items[name] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _cache_wrapper(self, name, fn):
        # every call is a hit or a miss; only misses count as work
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if fn.cache_info().misses != before:
                t1 = time.perf_counter()
                self.misses[name] += 1
                self.total[name] += t1 - t0
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
                self.spans.append([len(self.spans), name, t0, t1, parent])
            return out
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target; remember how to undo it."""
        for name, modname, attr, kind in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                self.absent.append(name)
                continue
            if kind == "group":
                fns = [getattr(module, a) for a in getattr(module, "__all__", ())
                       if inspect.isfunction(getattr(module, a, None))]
                if not fns:
                    self.absent.append(name)
                for fn in fns:
                    self._replace(fn, self._call_wrapper(name, fn, True))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            if kind == "gen":
                wrapped = self._gen_wrapper(name, fn)
            elif kind == "cache":
                wrapped = self._cache_wrapper(name, fn)
            else:
                wrapped = self._call_wrapper(name, fn, kind == "call")
            self._replace(fn, wrapped)

    def _replace(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if modname != "fel" and not modname.startswith("fel."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def dump(self, path, extra):
        """Write the spans and totals as one JSON document."""
        doc = {
            **extra,
            "absent": self.absent,
            "totals": {
                name: {"calls": self.calls.get(name, 0), "s": self.total.get(name, 0.0),
                       "self_s": self.self_time.get(name, 0.0),
                       "items": self.items.get(name, 0), "misses": self.misses.get(name, 0)}
                for name, *_ in TARGETS
            },
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                      for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# per-layer metric -> (layer, field, unit); fields are totals per
# traced round, except the Gauss-Legendre cache, whose misses happen once
# per process and are reported per process
PER_LAYER = {
    "precision.integrate_finite.calls": ("precision.integrate_finite", "calls", "count"),
    "precision.integrate_finite.s": ("precision.integrate_finite", "s", "s"),
    "precision.isolate_sign_changes.calls": ("precision.isolate_sign_changes", "calls", "count"),
    "precision.isolate_sign_changes.s": ("precision.isolate_sign_changes", "s", "s"),
    "precision.gauss_legendre.misses": ("precision.gauss_legendre", "misses", "count"),
    "precision.gauss_legendre.s": ("precision.gauss_legendre", "s", "s"),
    "precision.maximize_scalar.calls": ("precision.maximize_scalar", "calls", "count"),
    "precision.maximize_scalar.s": ("precision.maximize_scalar", "s", "s"),
    "lower.l1_norm.calls": ("lower.l1_norm", "calls", "count"),
    "lower.l1_norm.s": ("lower.l1_norm", "s", "s"),
    "lower.reward.calls": ("lower.reward", "calls", "count"),
    "lower.reward.self_s": ("lower.reward", "self_s", "s"),
    "upper.sup_norm.calls": ("upper.sup_norm", "calls", "count"),
    "upper.sup_norm.s": ("upper.sup_norm", "s", "s"),
    "upper.sup_norm.self_s": ("upper.sup_norm", "self_s", "s"),
    "upper.residual.calls": ("upper.residual", "calls", "count"),
    "upper.residual.s": ("upper.residual", "s", "s"),
    "search.optimize_upper.self_s": ("search.optimize_upper", "self_s", "s"),
    "search.optimize_lower.self_s": ("search.optimize_lower", "self_s", "s"),
    "search.praxis_minimize.calls": ("search.praxis_minimize", "calls", "count"),
    "search.praxis_minimize.s": ("search.praxis_minimize", "s", "s"),
    "nt.least_qnr.calls": ("nt.least_qnr", "calls", "count"),
    "nt.least_qnr.s": ("nt.least_qnr", "s", "s"),
    "nt.scan.records": ("nt.scan", "items", "count"),
    "nt.scan.self_s": ("nt.scan", "self_s", "s"),
    "nt.segmented_primes.s": ("nt.segmented_primes", "s", "s"),
    "nt.primes_upto.calls": ("nt.primes_upto", "calls", "count"),
    "nt.primes_upto.s": ("nt.primes_upto", "s", "s"),
    "nt.prime_sum_check.s": ("nt.prime_sum_check", "s", "s"),
    "closed_form.s": ("closed_form", "s", "s"),
    "tables.s": ("tables", "s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}
# The runner adds two metrics that no single layer gives:
# lower.l1_norm_per_lower_eval and trace.overhead_s.
_PER_PROCESS = ("precision.gauss_legendre",)


def layer_metrics(tracer, rounds):
    """Every PER_LAYER metric as {name: (value, unit)}; absent layers read 0."""
    fields = {"calls": tracer.calls, "s": tracer.total, "self_s": tracer.self_time,
              "items": tracer.items, "misses": tracer.misses}
    out = {}
    for metric, (layer, field, unit) in PER_LAYER.items():
        value = fields[field].get(layer, 0)
        if layer not in _PER_PROCESS:
            value = value / rounds
        out[metric] = (value, unit)
    return out
