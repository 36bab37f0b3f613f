"""Metric names, summary statistics and span arithmetic for the benchmark.

Everything here is plain Python so the launcher and the tests can use it
without importing numpy.
"""

from __future__ import annotations

import math
import statistics

ALGOS = ("wmmse", "mmmse", "ammmse")
EXACT = ("wmmse", "mmmse")  # precoders by dual bisection
WARM = ("mmmse", "ammmse")  # two-stage drivers with a switch iteration

# Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def _per_algo(stem, unit, better, algos=ALGOS):
    return [(f"{stem}.{a}", unit, better) for a in algos]


END_TO_END = (
    [("setup_s", "s", "lower")]
    + [(f"{a}_solve_ms_p50", "ms", "lower") for a in ALGOS]
    + [(f"{a}_solve_ms_tail", "ms", "lower") for a in ALGOS]
    + [(f"{a}_wsr_bpcu", "bpcu", "higher") for a in ALGOS]
    + [("realizations_per_s", "1/s", "higher")]
)

PER_LAYER = (
    _per_algo("solvers.bisect_dual.share", "ratio", "lower", EXACT)
    + _per_algo("solvers.bisect_dual.steps_per_call", "count", "lower", EXACT)
    + _per_algo("solvers.bisect_dual.converged_ratio", "ratio", "higher", EXACT)
    + _per_algo("solvers.update_receivers.share", "ratio", "lower")
    + _per_algo("solvers.update_weight_matrices.share", "ratio", "lower")
    + _per_algo("solvers.update_precoders_exact.share", "ratio", "lower", EXACT)
    + [("solvers.pgd_precoder_step.share.ammmse", "ratio", "lower"),
       ("solvers.extrapolate.share.ammmse", "ratio", "lower")]
    + _per_algo("solvers.exit_check.share", "ratio", "lower")
    + _per_algo("solvers.driver_self.share", "ratio", "lower")
    + _per_algo("solvers.iterations", "count", "lower")
    + _per_algo("solvers.switch_iteration", "count", "lower", WARM)
    + _per_algo("solvers.converged_share", "ratio", "higher")
    + _per_algo("solvers.ms_per_iter", "ms", "lower")
    + _per_algo("objective.diag.share", "ratio", "lower")
    + _per_algo("objective.wmmse_objective.calls_per_iter", "count", "lower")
    + _per_algo("objective.wmmse_objective.ms_per_call", "ms", "lower")
    + _per_algo("objective.weighted_sum_rate.ms_per_call", "ms", "lower")
    + _per_algo("objective.weighted_gram.share", "ratio", "lower")
    + _per_algo("objective.compute_bounds.ms", "ms", "lower")
    + _per_algo("linalg.cholesky_per_iter", "count", "lower")
    + _per_algo("model.containers_per_iter", "count", "lower")
    + _per_algo("model.containers.share", "ratio", "lower")
    + [("model.generate_channels.ms", "ms", "lower")]
    + _per_algo("harness.run_s", "s", "lower")
    + [("harness.emit_trace.ms_per_file", "ms", "lower"),
       ("harness.pool_busy_share", "ratio", "higher"),
       ("verify.check_lemma_bounds.share", "ratio", "lower"),
       ("verify.finite_diff_gradient.share", "ratio", "lower"),
       ("trace.overhead_share", "ratio", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Self time of each traced span name goes to one category.  Categories that
# are not span names: exit_check (spans after the solve's last
# weighted_sum_rate) and driver_self (solve time no child span covers).
CATEGORY = {
    "update_receivers": "update_receivers",
    "update_weight_matrices": "update_weight_matrices",
    "update_precoders_exact": "update_precoders_exact",
    "bisect_dual": "bisect_dual",
    "pgd_precoder_step": "pgd_precoder_step",
    "extrapolate": "extrapolate",
    "weighted_gram": "weighted_gram",
    "wmmse_objective": "diag",
    "weighted_sum_rate": "diag",
    "compute_bounds": "compute_bounds",
    "container": "containers",
}

# Categories reported as per-layer shares, and the metric each feeds.
SHARE_METRICS = {
    "bisect_dual": "solvers.bisect_dual.share",
    "update_receivers": "solvers.update_receivers.share",
    "update_weight_matrices": "solvers.update_weight_matrices.share",
    "update_precoders_exact": "solvers.update_precoders_exact.share",
    "pgd_precoder_step": "solvers.pgd_precoder_step.share",
    "extrapolate": "solvers.extrapolate.share",
    "exit_check": "solvers.exit_check.share",
    "driver_self": "solvers.driver_self.share",
    "diag": "objective.diag.share",
    "weighted_gram": "objective.weighted_gram.share",
    "containers": "model.containers.share",
}


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the tail value among ``n`` samples.

    The percentile is the highest whole percentile whose nearest-rank sample
    leaves at least TAIL_BEYOND samples above it.  With fewer than
    TAIL_BEYOND + 1 samples no percentile qualifies and the maximum
    (percentile 100) is reported instead.
    """
    if n < 1:
        raise ValueError("no samples")
    for q in range(100, 0, -1):
        rank = max(1, math.ceil(q * n / 100))
        if n - rank >= TAIL_BEYOND:
            return q, rank
    return 100, n


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, sample count) by :func:`tail_rank`."""
    ordered = sorted(values)
    q, rank = tail_rank(len(ordered))
    return ordered[rank - 1], q, len(ordered)


def median(values) -> float:
    return statistics.median(values)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap each
    other and together cover exactly the part of the parent they span.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def attribute(spans) -> dict[int, dict[str, float]]:
    """Seconds per category for each root span, keyed by its solve id.

    ``total`` holds the root's duration; every other entry is self time, so
    the categories other than ``total`` sum to it.  A span that starts after
    the end of the solve's last weighted_sum_rate span belongs to the exit
    check, whatever its name.
    """
    selfs = self_times(spans)
    groups: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(span.solve, []).append(i)
    out = {}
    for solve_id, members in groups.items():
        roots = [i for i in members if spans[i].parent < 0]
        if len(roots) != 1:
            raise ValueError(f"solve {solve_id} has {len(roots)} root spans")
        root = spans[roots[0]]
        last_wsr = max((spans[i].end for i in members
                        if spans[i].name == "weighted_sum_rate"), default=math.inf)
        acc = {"total": root.end - root.start, "driver_self": selfs[roots[0]]}
        for i in members:
            if i == roots[0]:
                continue
            category = "exit_check" if spans[i].start >= last_wsr else CATEGORY[spans[i].name]
            acc[category] = acc.get(category, 0.0) + selfs[i]
        out[solve_id] = acc
    return out
