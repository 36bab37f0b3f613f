"""Span tracing of wsrbeam from outside the package.

A traced run swaps the module attributes that wsrbeam's drivers look up for
wrappers that record spans or counts, and puts every original back when the
traced block ends.  The pool patch records no time of its own: it only reads
the worker solve times that ``wsrbeam run`` already measures.  No source file of the package changes.  Spans are kept in
memory; the benchmark reduces them to per-layer metrics when the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, kind).  Each attribute is patched in the namespace the
# caller looks it up in: solvers.py imported these names at import time, so
# patching the defining module alone would miss those calls.
#   span       a timed span named after the attribute
#   bisect     a span that also records BisectionResult.iterations/converged
#   count      a call count only (no timing), for cheap and frequent calls
#   container  a subclass whose __post_init__ (the validation) is a span
#   pool       a ProcessPoolExecutor subclass whose map notes the worker solve
#              seconds that run_experiment gets back per realization (no timing)
SOLVER_PATCHES = (
    ("wsrbeam.solvers", "update_receivers", "span"),
    ("wsrbeam.solvers", "update_weight_matrices", "span"),
    ("wsrbeam.solvers", "update_precoders_exact", "span"),
    ("wsrbeam.solvers", "bisect_dual", "bisect"),
    ("wsrbeam.solvers", "pgd_precoder_step", "span"),
    ("wsrbeam.solvers", "extrapolate", "span"),
    ("wsrbeam.solvers", "wmmse_objective", "span"),
    ("wsrbeam.solvers", "weighted_sum_rate", "span"),
    ("wsrbeam.solvers", "compute_bounds", "span"),
    ("wsrbeam.solvers", "weighted_gram", "span"),
    # pgd_precoder_step reaches the Gram matrix through
    # objective.gradient_common_factor, which looks it up here.
    ("wsrbeam.objective", "weighted_gram", "span"),
    ("wsrbeam.solvers", "solve_hpd", "count"),
    ("wsrbeam.objective", "lndet_hpd", "count"),
    ("wsrbeam.solvers", "PrecoderSet", "container"),
    ("wsrbeam.solvers", "ReceiverSet", "container"),
    ("wsrbeam.solvers", "WeightMatrixSet", "container"),
)

# The worker solve times of `wsrbeam run`, as its pool returns them.  The
# untimed side of every invocation, traced or not, uses this patch alone.
POOL_PATCHES = (("wsrbeam.harness", "ProcessPoolExecutor", "pool"),)

# Parent-process layers of `wsrbeam run`.  Pool workers are forked, so spans
# recorded inside them never reach this process.
CLI_PATCHES = POOL_PATCHES + (
    ("wsrbeam.cli", "run_experiment", "span"),
    ("wsrbeam.harness", "emit_trace", "span"),
    ("wsrbeam.harness", "check_lemma_bounds", "span"),
    ("wsrbeam.harness", "finite_diff_gradient", "span"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    solve: int  # id shared by every span of one root (a solve or a CLI call)


class Tracer:
    """In-memory span and count recorder plus the patches that feed it."""

    def __init__(self, patches) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.bisections: list[tuple[int, int, bool]] = []  # (solve, steps, converged)
        self.worker_seconds: list[float] = []
        self._stack: list[int] = []
        self._solve = -1
        self._patches = []
        for module_name, attr, kind in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(attr, original, kind)))

    def _timed(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), math.nan, stack[-1] if stack else -1, self._solve))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = (self._solve, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, name, fn, kind):
        if kind == "span":
            return self._timed(name, fn)
        if kind == "bisect":
            return self._timed(name, fn, lambda r: self.bisections.append(
                (self._solve, r.iterations, bool(r.converged))))
        if kind == "count":
            return self._counted(name, fn)
        if kind == "container":
            # A subclass keeps isinstance checks and classmethods working.
            return type(fn.__name__, (fn,), {
                "__post_init__": self._timed("container", fn.__post_init__),
                "__module__": __name__,
            })
        if kind == "pool":
            worker_seconds = self.worker_seconds

            def map(pool, *args, **kwargs):
                # run_experiment maps _solve_one, which returns
                # (index, result, wall seconds, error message or None).
                for item in fn.map(pool, *args, **kwargs):
                    if item[3] is None:
                        worker_seconds.append(item[2])
                    yield item

            return type(fn.__name__, (fn,), {"map": map, "__module__": __name__})
        raise ValueError(f"unknown patch kind {kind!r}")

    @contextmanager
    def installed(self):
        """Patch every attribute for the duration of the block, then restore."""
        done = []
        try:
            for module, attr, original, wrapper in self._patches:
                setattr(module, attr, wrapper)
                done.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(done):
                setattr(module, attr, original)

    def originals(self):
        """(module, attribute, original object) for every patch."""
        return [(module, attr, original) for module, attr, original, _ in self._patches]

    def root(self, solve_id: int, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a root span; returns (result, seconds)."""
        self._solve = solve_id
        try:
            index = len(self.spans)
            result = self._timed(name, fn)(*args, **kwargs)
            span = self.spans[index]
            return result, span.end - span.start
        finally:
            self._solve = -1
