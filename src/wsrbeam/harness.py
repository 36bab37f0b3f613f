"""Experiment specs, the multi-seed runner, and trace/summary emission.

A single flat JSON document configures one experiment.  Every output byte is
determined by (spec, seeds, software versions): wall-clock statistics are
therefore written to a separate, explicitly non-normative ``timing.json``
while ``summary.json`` and the per-realization trace CSVs are reproducible
bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, WsrbeamError
from .model import (
    RNG_ALGORITHM,
    Stage,
    SystemConfig,
    generate_channels,
    init_precoders,
    integer_value,
    real_value,
)
from .objective import compute_bounds, gradient_v, update_weight_matrices, wmmse_objective
from .solvers import (
    IterationRecord,
    SolveResult,
    SolverOptions,
    project_sum_power,
    solve,
    update_receivers,
)
from .verify import OracleReport, check_lemma_bounds, finite_diff_gradient

TRACE_HEADER = "iter,wsr_bpcu,f_nats,power,stage,f_after_u,f_after_w,f_after_v,rel_change"

_SWEEPABLE = ("K", "M", "snr_db")

# Coordinate budget above which the finite-difference oracle is skipped in
# --verify runs: it evaluates the objective at 4 * K * M * d points, up to
# verify._FD_CHUNK of them per stacked call.
_FD_COORD_BUDGET = 1024


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: base system, solver options, sweep grid, and I/O.

    ``sweep`` maps any of K, M and snr_db to a list of values, as a dict or
    as a sequence of ``[name, values]`` pairs, and is kept as a tuple of
    ``(name, values)`` pairs; None means no sweep.  The integer fields take
    what :func:`~.model.integer_value` takes, ``output_dir`` a string or a
    path, and any other value raises a ConfigError naming the field.
    """

    base: SystemConfig
    solver: SolverOptions
    n_realizations: int = 20  # desk-scale default; the reference protocol uses 100
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    parallel_workers: int = 0  # 0 = auto
    output_dir: Path = Path("out")

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_realizations",
                           integer_value("n_realizations", self.n_realizations, 1))
        object.__setattr__(self, "parallel_workers",
                           integer_value("parallel_workers", self.parallel_workers, 0))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        sweep = () if self.sweep is None else self.sweep
        if isinstance(sweep, dict):
            sweep = tuple(sweep.items())
        if not (isinstance(sweep, (list, tuple)) and all(
                isinstance(item, (list, tuple)) and len(item) == 2
                and isinstance(item[1], (list, tuple)) for item in sweep)):
            raise ConfigError("sweep must map parameter names to value lists")
        object.__setattr__(self, "sweep", tuple(
            (name, tuple(real_value(f"sweep value for {name}", v) for v in values))
            for name, values in sweep))
        for name, values in self.sweep:
            if name not in _SWEEPABLE:
                raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}, got {name!r}")
            if [other for other, _ in self.sweep].count(name) > 1:
                raise ConfigError(f"sweep parameter {name!r} is named more than once")
            if len(values) == 0:
                raise ConfigError(f"sweep over {name} has no values")
            for v in values:
                if not math.isfinite(v):
                    raise ConfigError(f"sweep value for {name} must be finite, got {v!r}")
                if name in ("K", "M"):
                    integer_value(f"sweep value for {name}", v, 1)


def _reject_repeated_keys(pairs: list) -> dict:
    """A JSON object as a dict; a ConfigError naming a key it repeats."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} is repeated")
        obj[key] = value
    return obj


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate a flat-key JSON experiment document.

    The recognized keys are the fields of :class:`~.model.SystemConfig`,
    :class:`~.solvers.SolverOptions` and :class:`ExperimentSpec` (bar its
    ``base`` and ``solver``); each goes to its dataclass, which validates it
    and supplies the defaults of the keys left out.  ``M``, ``N``, ``K``,
    ``d`` and ``snr_db`` are required.  A key repeated in any object, an
    unknown key, a value of the wrong type and an invalid range are rejected
    with the offending key named.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_reject_repeated_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object with flat keys")

    keys = {cls: {f.name for f in dataclasses.fields(cls)} - {"base", "solver"}
            for cls in (SystemConfig, SolverOptions, ExperimentSpec)}
    unknown = set(raw).difference(*keys.values())
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    missing = [key for key in ("M", "N", "K", "d", "snr_db") if key not in raw]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")
    base, solver, rest = ({key: value for key, value in raw.items() if key in names}
                          for names in keys.values())
    return ExperimentSpec(SystemConfig(**base), SolverOptions(**solver), **rest)


def _fmt(x: float) -> str:
    # repr of a Python float round-trips exactly and carries >= 12 significant
    # digits whenever they matter.
    return repr(float(x))


def emit_trace(result: SolveResult, path: Path | str) -> None:
    """Write one CSV row per iteration; decimal text round-trips exactly."""
    lines = [TRACE_HEADER]
    for rec in result.trace:
        lines.append(",".join([
            str(rec.t),
            _fmt(rec.wsr_bits),
            _fmt(rec.f_after_v),  # the f_nats column
            _fmt(rec.total_power),
            str(rec.stage.value),
            _fmt(rec.f_after_u),
            _fmt(rec.f_after_w),
            _fmt(rec.f_after_v),
            _fmt(rec.rel_change),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: Path | str) -> tuple[IterationRecord, ...]:
    """Parse a trace CSV back into iteration records (exact round trip).

    The ``f_nats`` column repeats ``f_after_v``; a row where they differ is
    rejected."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"{path}: not a trace file (bad header)")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 9:
            raise ConfigError(f"{path}: malformed trace row {ln!r}")
        if float(parts[2]) != float(parts[7]):
            raise ConfigError(f"{path}: f_nats differs from f_after_v in trace row {ln!r}")
        records.append(IterationRecord(
            t=int(parts[0]),
            wsr_bits=float(parts[1]),
            total_power=float(parts[3]),
            stage=Stage(int(parts[4])),
            f_after_u=float(parts[5]),
            f_after_w=float(parts[6]),
            f_after_v=float(parts[7]),
            rel_change=float(parts[8]),
        ))
    return tuple(records)


def _sweep_points(spec: ExperimentSpec) -> list[tuple[str, SystemConfig]]:
    """Cross product of the sweep grid; label "base" when there is no sweep."""
    points: list[tuple[str, SystemConfig]] = [("base", spec.base)]
    for name, values in spec.sweep:
        expanded = []
        for label, cfg in points:
            for v in values:
                overrides: dict = {}
                if name in ("K", "M"):
                    value: float | int = int(v)
                    tag = f"{name}{value}"
                    # Changing K invalidates the weight vector length.
                    if name == "K" and len(cfg.weights) != value:
                        overrides["weights"] = None
                else:
                    value = float(v)
                    tag = f"snr{value:g}"
                overrides[name] = value
                new_cfg = dataclasses.replace(cfg, **overrides)
                new_label = tag if label == "base" else f"{label}_{tag}"
                expanded.append((new_label, new_cfg))
        points = expanded
    return points


def _solve_one(args):
    """One realization: generate the channels (with their noise power), solve,
    and with ``verify`` scan the solve's iterates against the bounds.

    Module-level so it can cross a process pool; returns (index, result,
    wall seconds of the solve alone, error message or None, bound-scan
    report or None).  The result never keeps its iterates: the scan runs
    here, where they are, so they need not cross the process boundary.
    """
    index, config, options, verify = args
    try:
        channels = generate_channels(config)
        start = time.perf_counter()
        result = solve(channels, config, options)
        wall = time.perf_counter() - start
    except (WsrbeamError, np.linalg.LinAlgError) as exc:  # recorded, not fatal
        return index, None, 0.0, f"{type(exc).__name__}: {exc}", None
    # Outside the try: an oracle error fails the run, not the realization.
    report = None
    if verify:
        bounds = compute_bounds(channels, config.weight_vector, config.p_max,
                                channels.noise_power)
        report = check_lemma_bounds(channels, result, bounds, config.weight_vector)
    return index, dataclasses.replace(result, iterates=()), wall, None, report


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass(frozen=True)
class PointSummary:
    label: str
    config: SystemConfig
    n_realizations: int
    n_completed: int
    n_converged: int
    wsr_bits_mean: float | None
    wsr_bits_std: float | None
    iterations_mean: float | None
    iterations_std: float | None
    switch_iteration_mean: float | None
    stationarity_residual_max: float | None
    failures: tuple[str, ...]
    wall_time_mean: float | None
    wall_time_std: float | None

    def __post_init__(self) -> None:
        if self.n_completed + len(self.failures) != self.n_realizations:
            raise ConfigError("completed and failed realizations must account for "
                              f"all {self.n_realizations} runs")


@dataclass(frozen=True)
class RunSummary:
    spec: ExperimentSpec
    points: tuple[PointSummary, ...]
    oracle_reports: tuple[OracleReport, ...]

    def to_json_dict(self) -> dict:
        """The ``summary.json`` document: the spec and every point field by
        field, less the wall times (they go to ``timing.json``)."""
        points = [
            {**{key: value for key, value in dataclasses.asdict(p).items()
                if not key.startswith("wall_time_")},
             "convergence_rate": p.n_converged / p.n_realizations}
            for p in self.points
        ]
        return {
            "spec": {**dataclasses.asdict(self.spec),
                     "solver": {**dataclasses.asdict(self.spec.solver),
                                "algorithm": self.spec.solver.algorithm.value},
                     "output_dir": str(self.spec.output_dir)},
            "points": points,
            "oracles": [dataclasses.asdict(r) for r in self.oracle_reports],
            "stamps": {
                "package": "wsrbeam",
                "version": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "rng": RNG_ALGORITHM,
            },
        }


def _gradient_fd_report(config: SystemConfig) -> OracleReport | None:
    """Spot check of the closed-form gradient on this experiment's base
    system (first realization); skipped above the coordinate budget."""
    if config.K * config.M * config.d > _FD_COORD_BUDGET:
        return None
    channels = generate_channels(config)
    weights = config.weight_vector
    precoders = project_sum_power(init_precoders(config), config.p_max)
    receivers = update_receivers(channels, precoders, channels.noise_power)
    wmats = update_weight_matrices(channels, precoders, channels.noise_power)

    def objective(v):
        return wmmse_objective(receivers, wmats, v, channels, weights, channels.noise_power)

    fd = finite_diff_gradient(objective, precoders)
    analytic = gradient_v(receivers, wmats, precoders, channels, weights)
    scale = np.maximum(np.linalg.norm(analytic, axis=(1, 2)), 1e-12)
    worst = float(np.max(np.linalg.norm(analytic - fd, axis=(1, 2)) / scale))
    tol = 1e-6
    return OracleReport(
        name="gradient_finite_difference",
        max_abs_error=worst,
        max_rel_error=worst,
        instances=config.K,
        passed=worst <= tol,
        tolerance=tol,
    )


def _merge_lemma_reports(label: str, reports: list[OracleReport]) -> OracleReport:
    max_abs = max(r.max_abs_error for r in reports)
    max_rel = max(r.max_rel_error for r in reports)
    details = sorted({r.detail for r in reports if r.detail})
    return OracleReport(
        name=f"lemma_bounds[{label}]",
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        instances=sum(r.instances for r in reports),
        passed=all(r.passed for r in reports),
        tolerance=0.0,
        detail="; ".join(details),
    )


def run_experiment(spec: ExperimentSpec, verify: bool = False) -> RunSummary:
    """Run every (sweep point x realization), write traces and summaries.

    Channel generation uses seed = base channel seed + realization index, so
    all algorithms run on identical channel sets per realization.  One
    process pool solves every (point, realization) job of the run; results
    are reduced point by point, in realization order, once all are in, so
    identical specs produce byte-identical CSV and summary JSON whatever the
    worker count.  ``verify`` attaches the bound scan of every trace, run by
    the job that made the trace, and the finite-difference gradient check, a
    job of its own submitted to the pool before the solves so that it runs
    beside them.  An oracle that raises fails the run.
    """
    outdir = spec.output_dir
    outdir.mkdir(parents=True, exist_ok=True)

    points = _sweep_points(spec)
    jobs = [(r, dataclasses.replace(cfg, channel_seed=cfg.channel_seed + r,
                                    init_seed=cfg.init_seed + r), spec.solver, verify)
            for _, cfg in points for r in range(spec.n_realizations)]
    workers = spec.parallel_workers
    if workers == 0:
        workers = min(len(jobs), os.cpu_count() or 1)
    # Every job, oracles included, finishes before any point is reduced, so
    # the reduction below sees the same results whatever the worker count.
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Queued first, the gradient check (the longest job) starts at
            # once and runs beside the solves.
            gradient = pool.submit(_gradient_fd_report, spec.base) if verify else None
            raw_results = list(pool.map(_solve_one, jobs))
            fd_report = gradient.result() if verify else None
    else:
        raw_results = [_solve_one(job) for job in jobs]
        fd_report = _gradient_fd_report(spec.base) if verify else None

    point_summaries: list[PointSummary] = []
    oracle_reports: list[OracleReport] = []
    n = spec.n_realizations
    for p, (label, point_cfg) in enumerate(points):
        point = slice(p * n, (p + 1) * n)
        wsr, iters, switches, walls, residuals = [], [], [], [], []
        failures: list[str] = []
        n_converged = 0
        lemma_reports: list[OracleReport] = []
        for (r, _, _, _), (_, result, wall, error, lemma) in zip(jobs[point], raw_results[point]):
            if error is not None:
                failures.append(f"seed {r}: {error}")
                continue
            emit_trace(result, outdir / f"{spec.solver.algorithm.value}_{label}_seed{r}.csv")
            wsr.append(result.trace[-1].wsr_bits)
            iters.append(float(result.iterations))
            if result.switch_iteration is not None:
                switches.append(float(result.switch_iteration))
            residuals.append(result.stationarity_residual)
            walls.append(wall)
            if result.converged:
                n_converged += 1
            if lemma is not None:
                lemma_reports.append(lemma)

        wsr_mean, wsr_std = _mean_std(wsr)
        it_mean, it_std = _mean_std(iters)
        sw_mean, _ = _mean_std(switches)
        wall_mean, wall_std = _mean_std(walls)
        point_summaries.append(PointSummary(
            label=label,
            config=point_cfg,
            n_realizations=n,
            n_completed=len(wsr),
            n_converged=n_converged,
            wsr_bits_mean=wsr_mean,
            wsr_bits_std=wsr_std,
            iterations_mean=it_mean,
            iterations_std=it_std,
            switch_iteration_mean=sw_mean,
            stationarity_residual_max=max(residuals) if residuals else None,
            failures=tuple(failures),
            wall_time_mean=wall_mean,
            wall_time_std=wall_std,
        ))
        if lemma_reports:
            oracle_reports.append(_merge_lemma_reports(label, lemma_reports))

    if fd_report is not None:
        oracle_reports.append(fd_report)

    summary = RunSummary(spec=spec, points=tuple(point_summaries),
                         oracle_reports=tuple(oracle_reports))
    (outdir / "summary.json").write_text(
        json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n")
    timing = {
        "note": "wall-clock statistics are non-normative and excluded from the "
                "reproducibility contract",
        "points": [
            {"label": p.label, "wall_time_mean_s": p.wall_time_mean,
             "wall_time_std_s": p.wall_time_std}
            for p in summary.points
        ],
    }
    (outdir / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
    return summary
