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
    compute_noise_power,
    generate_channels,
    init_precoders,
    real_value,
)
from .objective import compute_bounds, gradient_v, wmmse_objective
from .solvers import (
    IterationRecord,
    SolveResult,
    SolverOptions,
    project_sum_power,
    solve,
    update_receivers,
    update_weight_matrices,
)
from .verify import OracleReport, check_lemma_bounds, finite_diff_gradient

TRACE_HEADER = "iter,wsr_bpcu,f_nats,power,stage,f_after_u,f_after_w,f_after_v,rel_change"

_SWEEPABLE = ("K", "M", "snr_db")

_CONFIG_KEYS = {"M", "N", "K", "d", "p_max", "snr_db", "weights", "channel_seed", "init_seed"}
_SOLVER_KEYS = {"algorithm", "gamma", "omega", "eps1", "eps2", "max_iters"}
_SPEC_KEYS = {"n_realizations", "sweep", "parallel_workers", "output_dir"}

# Coordinate budget above which the finite-difference oracle is skipped in
# --verify runs (cost grows as 4 * K * M * d objective evaluations).
_FD_COORD_BUDGET = 1024


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: base system, solver options, sweep grid, and I/O."""

    base: SystemConfig
    solver: SolverOptions
    n_realizations: int = 20  # desk-scale default; the reference protocol uses 100
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    parallel_workers: int = 0  # 0 = auto
    output_dir: Path = Path("out")

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if self.parallel_workers < 0:
            raise ConfigError("parallel_workers must be nonnegative")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "sweep", tuple(
            (name, tuple(real_value(f"sweep value for {name}", v) for v in values))
            for name, values in self.sweep))
        for name, values in self.sweep:
            if name not in _SWEEPABLE:
                raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}, got {name!r}")
            if len(values) == 0:
                raise ConfigError(f"sweep over {name} has no values")
            for v in values:
                if not math.isfinite(v):
                    raise ConfigError(f"sweep value for {name} must be finite, got {v!r}")
                if name in ("K", "M") and (v <= 0 or int(v) != v):
                    raise ConfigError(f"sweep values for {name} must be positive integers, got {v!r}")


def _integer(value) -> int:
    """An integral JSON number as an int: 16 and 16.0 pass; 16.5, true and "16" do not."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _parse_field(raw: dict, key: str, kind=None, default=None, required=False):
    """The value of ``key``, read by ``kind`` if given; without ``kind`` the
    raw JSON value goes to the dataclass, which validates it."""
    if key not in raw:
        if required:
            raise ConfigError(f"missing required field {key!r}")
        return default
    value = raw.pop(key)
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {value!r}") from exc


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate a flat-key JSON experiment document.

    Defaults: eps1=0.1, eps2=0.001, p_max=10; for A-MMMSE, unset omega and
    gamma come from :meth:`SolverOptions.at_snr` (left unset when snr_db is
    swept: the runner applies it per sweep point).  Unknown keys, values of
    the wrong type and invalid ranges are rejected with the offending field
    named.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object with flat keys")
    raw = dict(raw)

    unknown = set(raw) - _CONFIG_KEYS - _SOLVER_KEYS - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    weights = raw.pop("weights", None)
    if weights is not None and not isinstance(weights, list):
        raise ConfigError("weights must be a list of positive reals")
    config = SystemConfig(
        M=_parse_field(raw, "M", _integer, required=True),
        N=_parse_field(raw, "N", _integer, required=True),
        K=_parse_field(raw, "K", _integer, required=True),
        d=_parse_field(raw, "d", _integer, required=True),
        p_max=_parse_field(raw, "p_max", default=10.0),
        snr_db=_parse_field(raw, "snr_db", required=True),
        weights=weights,
        channel_seed=_parse_field(raw, "channel_seed", _integer, default=0),
        init_seed=_parse_field(raw, "init_seed", _integer, default=0),
    )

    solver = SolverOptions(
        algorithm=raw.pop("algorithm", "wmmse"),
        gamma=raw.pop("gamma", None),
        omega=raw.pop("omega", None),
        eps1=_parse_field(raw, "eps1", default=0.1),
        eps2=_parse_field(raw, "eps2", default=0.001),
        max_iters=_parse_field(raw, "max_iters", _integer, default=1000),
    )

    sweep_raw = raw.pop("sweep", None)
    items = list(sweep_raw.items()) if isinstance(sweep_raw, dict) else sweep_raw
    if items is not None and not (isinstance(items, list) and all(
            isinstance(item, (list, tuple)) and len(item) == 2 and isinstance(item[1], list)
            for item in items)):
        raise ConfigError("sweep must map parameter names to value lists")
    sweep = tuple((str(name), tuple(values)) for name, values in items or ())
    if "snr_db" not in dict(sweep):
        solver = solver.at_snr(config.snr_db)

    return ExperimentSpec(
        base=config,
        solver=solver,
        n_realizations=_parse_field(raw, "n_realizations", _integer, default=20),
        sweep=sweep,
        parallel_workers=_parse_field(raw, "parallel_workers", _integer, default=0),
        output_dir=Path(_parse_field(raw, "output_dir", str, default="out")),
    )


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
            _fmt(rec.f_value),
            _fmt(rec.total_power),
            str(rec.stage.value),
            _fmt(rec.f_after_u),
            _fmt(rec.f_after_w),
            _fmt(rec.f_after_v),
            _fmt(rec.rel_change),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: Path | str) -> tuple[IterationRecord, ...]:
    """Parse a trace CSV back into iteration records (exact round trip)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"{path}: not a trace file (bad header)")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 9:
            raise ConfigError(f"{path}: malformed trace row {ln!r}")
        records.append(IterationRecord(
            t=int(parts[0]),
            wsr_bits=float(parts[1]),
            f_value=float(parts[2]),
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
    """One realization: generate channels, derive noise power, solve.

    Module-level so it can cross a process pool; returns (index, result,
    wall seconds, error message or None).
    """
    index, config, options = args
    try:
        channels = generate_channels(config)
        sigma2 = compute_noise_power(channels, config.snr_db, config)
        channels = channels.with_noise_power(sigma2)
        start = time.perf_counter()
        result = solve(channels, config, options)
        wall = time.perf_counter() - start
        return index, result, wall, None
    except (WsrbeamError, np.linalg.LinAlgError) as exc:  # recorded, not fatal
        return index, None, 0.0, f"{type(exc).__name__}: {exc}"


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _solver_dict(options: SolverOptions) -> dict:
    return {**dataclasses.asdict(options), "algorithm": options.algorithm.value}


@dataclass(frozen=True)
class PointSummary:
    label: str
    config: SystemConfig
    solver: SolverOptions
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
        points = [
            {
                "label": p.label,
                "config": dataclasses.asdict(p.config),
                "solver": _solver_dict(p.solver),
                "n_realizations": p.n_realizations,
                "n_completed": p.n_completed,
                "n_converged": p.n_converged,
                "convergence_rate": p.n_converged / p.n_realizations,
                "wsr_bits_mean": p.wsr_bits_mean,
                "wsr_bits_std": p.wsr_bits_std,
                "iterations_mean": p.iterations_mean,
                "iterations_std": p.iterations_std,
                "switch_iteration_mean": p.switch_iteration_mean,
                "stationarity_residual_max": p.stationarity_residual_max,
                "failures": list(p.failures),
            }
            for p in self.points
        ]
        return {
            "spec": {
                "base": dataclasses.asdict(self.spec.base),
                "solver": _solver_dict(self.spec.solver),
                "n_realizations": self.spec.n_realizations,
                "sweep": [[name, list(values)] for name, values in self.spec.sweep],
                "parallel_workers": self.spec.parallel_workers,
                "output_dir": str(self.spec.output_dir),
            },
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
    sigma2 = compute_noise_power(channels, config.snr_db, config)
    channels = channels.with_noise_power(sigma2)
    weights = config.weight_vector
    precoders = project_sum_power(init_precoders(config), config.p_max)
    receivers = update_receivers(channels, precoders, sigma2)
    wmats = update_weight_matrices(channels, receivers, precoders)

    def objective(v):
        return wmmse_objective(receivers, wmats, v, channels, weights, sigma2)

    fd = finite_diff_gradient(objective, precoders)
    worst = 0.0
    for k in range(config.K):
        analytic = gradient_v(receivers, wmats, precoders[k], channels, weights, k)
        scale = max(float(np.linalg.norm(analytic)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - fd[k])) / scale)
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
    all algorithms run on identical channel sets per realization.  Results
    are reduced in realization order regardless of worker count; identical
    specs therefore produce byte-identical CSV and summary JSON.
    """
    outdir = spec.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    options = spec.solver

    point_summaries: list[PointSummary] = []
    oracle_reports: list[OracleReport] = []
    for label, point_cfg in _sweep_points(spec):
        point_options = options.at_snr(point_cfg.snr_db)
        jobs = []
        for r in range(spec.n_realizations):
            cfg_r = dataclasses.replace(
                point_cfg,
                channel_seed=point_cfg.channel_seed + r,
                init_seed=point_cfg.init_seed + r,
            )
            jobs.append((r, cfg_r, point_options))

        workers = spec.parallel_workers
        if workers == 0:
            workers = min(len(jobs), os.cpu_count() or 1)
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw_results = list(pool.map(_solve_one, jobs))
        else:
            raw_results = [_solve_one(job) for job in jobs]
        raw_results.sort(key=lambda item: item[0])

        wsr, iters, switches, walls, residuals = [], [], [], [], []
        failures: list[str] = []
        n_converged = 0
        lemma_reports: list[OracleReport] = []
        for r, result, wall, error in raw_results:
            if error is not None:
                failures.append(f"seed {r}: {error}")
                continue
            emit_trace(result, outdir / f"{point_options.algorithm.value}_{label}_seed{r}.csv")
            wsr.append(result.trace[-1].wsr_bits)
            iters.append(float(result.iterations))
            if result.switch_iteration is not None:
                switches.append(float(result.switch_iteration))
            residuals.append(result.stationarity_residual)
            walls.append(wall)
            if result.converged:
                n_converged += 1
            if verify:
                cfg_r = jobs[r][1]
                channels = generate_channels(cfg_r)
                channels = channels.with_noise_power(
                    compute_noise_power(channels, cfg_r.snr_db, cfg_r))
                bounds = compute_bounds(channels, cfg_r.weight_vector, cfg_r.p_max,
                                        channels.noise_power)
                lemma_reports.append(
                    check_lemma_bounds(channels, result, bounds, cfg_r.weight_vector))

        wsr_mean, wsr_std = _mean_std(wsr)
        it_mean, it_std = _mean_std(iters)
        sw_mean, _ = _mean_std(switches)
        wall_mean, wall_std = _mean_std(walls)
        point_summaries.append(PointSummary(
            label=label,
            config=point_cfg,
            solver=point_options,
            n_realizations=spec.n_realizations,
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
        if verify and lemma_reports:
            oracle_reports.append(_merge_lemma_reports(label, lemma_reports))

    if verify:
        fd_report = _gradient_fd_report(spec.base)
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
