"""Spans around calls into cmforge's public functions, recorded from outside.

Modules import with ``from .x import y``, so one function can be bound in
several modules; install() replaces it at every binding.  Spans stay in
memory as parallel arrays (name, start, end, parent, op id, raised) and are
written out once the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

#: The span wrapped around each whole CLI call.
OP_SPAN = "cli"

#: (module, function) pairs traced as spans, named "<module>.<function>".
SPANS = (
    ("hcp", "class_polynomial"),
    ("hcp", "feasible"),
    ("hcp", "build_pairs"),
    ("hcp", "resolve_signs"),
    ("hcp", "interpolate"),
    ("crosscheck", "run_crosscheck"),
    ("gzrhs", "gz_log_norm"),
    ("gzrhs", "enumerate_terms"),
    ("gzrhs", "term_contribution"),
    ("cmvalue", "diff_set"),
    ("quadforms", "class_number"),
    ("quadforms", "heegner_reps"),
    ("hauptmodul", "lhs_log_norm"),
    ("hauptmodul", "eta_with_bound"),
    ("hauptmodul", "reduce_point"),
    ("arith", "factorize"),
    ("arith", "hilbert_symbol"),
)

#: Functions called too often for a span; only their calls are counted.
COUNTED = (("arith", "is_prime"),)


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [f"{mod}.{fn}" for mod, fn in SPANS]
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self._op_id = -1
        self.counts = {f"{mod}.{fn}": 0 for mod, fn in COUNTED}
        self.sign_candidates = 0
        self.terms = 0
        self.contributing = 0
        self._gz_keys: set = set()
        self._gz_signature = None

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.raised.append(0)
        self.end.append(0)
        self.start.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call_op(self, fn, *args):
        """Run one CLI operation inside its own op span; op ids count from 0."""
        self._op_id += 1
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span(self, name: str, fn, observe):
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read from arguments and results ----------------------------

    def _observe_pairs(self, args, kwargs, pairs):
        # The search tries 2^(nonzero X - 1) X patterns times 2^len Y patterns.
        nonzero = sum(1 for pr in pairs if pr.x_mag != 0)
        self.sign_candidates += 2 ** max(nonzero - 1, 0) * 2 ** len(pairs)

    def _observe_gz(self, args, kwargs, result):
        bound = self._gz_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self._gz_keys.add(tuple(bound.arguments.values()))

    def _observe_terms(self, args, kwargs, terms):
        self.terms += len(terms)

    def _observe_contribution(self, args, kwargs, contribution):
        if not contribution.is_zero():
            self.contributing += 1

    # -- installation ------------------------------------------------------

    def install(self, package: str = "cmforge") -> None:
        """Replace every traced function at each module binding of it."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        observers = {
            "hcp.build_pairs": self._observe_pairs,
            "gzrhs.gz_log_norm": self._observe_gz,
            "gzrhs.enumerate_terms": self._observe_terms,
            "gzrhs.term_contribution": self._observe_contribution,
        }
        wrapped = ([(mod, fn, True) for mod, fn in SPANS]
                   + [(mod, fn, False) for mod, fn in COUNTED])
        for mod, fn, as_span in wrapped:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"{package}.{mod}"], fn)
            if name == "gzrhs.gz_log_norm":
                self._gz_signature = inspect.signature(original)
            if as_span:
                wrapper = self._span(name, original, observers.get(name))
            else:
                wrapper = self._counter(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive and self nanoseconds, raised count."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0, "raised": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["ns"] += duration
            row["self_ns"] += duration - child_ns[i]
            row["raised"] += self.raised[i]
        return out

    @property
    def gz_distinct(self) -> int:
        return len(self._gz_keys)

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        n = len(self.start)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=6) as fh:
            fh.write("span,op,parent,name,start_ns,end_ns,raised\n")
            for i in range(n):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.raised[i]}\n")
        return n
