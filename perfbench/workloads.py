"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with BLAS pinned to one thread and reads the
JSON payload it prints as its last line.  The package is driven only through
``wsrbeam.solve`` and ``wsrbeam.cli.main``; it receives generated configs and
spec files and never sees the benchmark seed itself.

Solver workloads run all three algorithms on the same realizations, in a
closed loop (one solve at a time).  Realization ``r`` uses
``channel_seed = init_seed = seed + r``.  The loop cycles over a fixed set of
realizations until the run's seconds are spent, and always finishes the first
pass, so WSR and iteration counts depend on the seed alone.

Every solve and every CLI invocation is checked as soon as it returns,
outside its timed and traced span, and only scalars are kept, so the memory a
run holds does not grow with the number of solves that fit in it.

With ``--pauses N`` the timed phase stops N times, evenly spread over its
seconds, between two solves: the script prints ``pause`` and waits for a
``go`` line on standard input while the launcher times set-up probes.  Paused
time is left out of every timed figure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import wsrbeam  # noqa: E402
from wsrbeam import cli  # noqa: E402

import metrics as M  # noqa: E402
from tracing import CLI_PATCHES, POOL_PATCHES, SOLVER_PATCHES, Tracer  # noqa: E402

P_MAX = 10.0
SNR_DB = 10.0

# Why each workload: see BENCHMARK.json.  ``realizations`` is sized so one
# pass over them takes most of a 50 s run on a 2-core machine; the traced
# run uses the first half.  dense-overload (K*d > M, diagnostics-bound) can
# be run by name but is not in BENCHMARK.json: on a shared 2-core machine its
# run-to-run spread exceeded the largest allowed bound.
SOLVER_WORKLOADS = {
    "wide-array": {"M": 128, "N": 2, "K": 4, "d": 2, "realizations": 120},
    "dense-overload": {"M": 24, "N": 2, "K": 16, "d": 2, "realizations": 40},
}
# The traced run of a solver workload also makes one `wsrbeam run --verify`
# per algorithm on its shape, so the harness and verify layers are measured
# there too; two realizations, so the pool is used.
CLI_REALIZATIONS = 2

# sweep-pool: `wsrbeam run --verify` over an SNR sweep.  Invocation k of an
# algorithm uses spec k mod SWEEP_SPECS, whose realizations start at
# seed + k * SWEEP_REALIZATIONS, so a run's WSR averages over
# SWEEP_SPECS * SWEEP_REALIZATIONS realizations per sweep point.
SWEEP_WORKLOAD = "sweep-pool"
SWEEP_SHAPE = {"M": 32, "N": 2, "K": 8, "d": 2}
SWEEP_SNRS = (0.0, 10.0, 20.0)
SWEEP_REALIZATIONS = 4
SWEEP_SPECS = 3
WORKERS = 2
WORKLOADS = tuple(SOLVER_WORKLOADS) + (SWEEP_WORKLOAD,)

POWER_SLACK = 1e-9
WSR_RTOL = 1e-12


# --------------------------------------------------------------------------
# Inputs


def solver_inputs(shape: dict, seeds, snrs=(SNR_DB,)):
    """(config, channels with noise power, seconds spent in generate_channels)
    for every (SNR, seed) pair, SNR-major."""
    out = []
    for snr in snrs:
        for s in seeds:
            config = wsrbeam.SystemConfig(M=shape["M"], N=shape["N"], K=shape["K"],
                                          d=shape["d"], p_max=P_MAX, snr_db=snr,
                                          channel_seed=s, init_seed=s)
            t0 = time.perf_counter()
            channels = wsrbeam.generate_channels(config)
            gen = time.perf_counter() - t0
            sigma2 = wsrbeam.compute_noise_power(channels, config.snr_db, config)
            out.append((config, channels.with_noise_power(sigma2), gen))
    return out


def write_spec(path: Path, shape: dict, seed: int, realizations: int, snrs=None) -> Path:
    """A `wsrbeam run` spec; the algorithm is chosen per invocation by --algo."""
    spec = {"M": shape["M"], "N": shape["N"], "K": shape["K"], "d": shape["d"],
            "p_max": P_MAX, "snr_db": SNR_DB, "n_realizations": realizations,
            "channel_seed": seed, "init_seed": seed}
    if snrs is not None:
        spec["sweep"] = {"snr_db": list(snrs)}
    path.write_text(json.dumps(spec, sort_keys=True))
    return path


def write_sweep_specs(workdir: Path, seed: int) -> list[Path]:
    return [write_spec(workdir / f"spec_{k}.json", SWEEP_SHAPE, seed + k * SWEEP_REALIZATIONS,
                       SWEEP_REALIZATIONS, SWEEP_SNRS) for k in range(SWEEP_SPECS)]


# --------------------------------------------------------------------------
# Correctness gate


def check_solve(result, channels, config) -> list[str]:
    """Problems with one solve's output; empty when it passes."""
    problems = []
    power = result.final_precoders.total_power()
    if not power <= config.p_max * (1.0 + POWER_SLACK):
        problems.append(f"infeasible precoders: power {power!r} > p_max {config.p_max!r}")
    if not all(math.isfinite(rec.wsr_bits) for rec in result.trace):
        problems.append("non-finite WSR in trace")
    recomputed = wsrbeam.weighted_sum_rate(channels, result.final_precoders,
                                           config.weight_vector).wsr_bits
    reported = result.trace[-1].wsr_bits
    if not abs(recomputed - reported) <= WSR_RTOL * abs(reported):
        problems.append(f"final WSR {reported!r} does not match recomputed {recomputed!r}")
    return problems


def check_summary(summary: dict) -> list[str]:
    """Problems with one `wsrbeam run --verify` summary; empty when it passes."""
    problems = []
    if not summary["oracles"]:
        problems.append("no oracle reports in a --verify run")
    for oracle in summary["oracles"]:
        if not oracle["passed"]:
            problems.append(f"oracle {oracle['name']} failed: {oracle['detail']}")
    for point in summary["points"]:
        if point["n_completed"] + len(point["failures"]) != point["n_realizations"]:
            problems.append(f"point {point['label']}: completed and failed do not add up "
                            f"to {point['n_realizations']}")
    return problems


def check_restored(tracer: Tracer) -> list[str]:
    return [f"{module.__name__}.{attr} still patched"
            for module, attr, original in tracer.originals()
            if getattr(module, attr) is not original]


@dataclass(slots=True)
class Solve:
    """Scalars of one checked solve of realization ``r``."""

    r: int
    algo: str
    traced: bool
    seconds: float
    iterations: int
    wsr: float
    switch_iteration: int | None
    converged: bool
    solve_id: int


@dataclass(slots=True)
class Call:
    """Scalars of one checked `wsrbeam run --verify` invocation.

    ``solve_ms`` holds the worker solve time of each completed realization,
    in the order the pool returned them (sweep point major).
    """

    algo: str
    traced: bool
    seconds: float
    solve_ms: tuple[float, ...]
    solve_id: int


class Gate:
    """Runs solves and CLI invocations, checks each one as it returns, and
    keeps the scalars the metrics need."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self._results: dict[tuple[int, str], tuple[float, int]] = {}
        self._summaries: dict[tuple[str, int], bytes] = {}
        self.points: dict[tuple[str, int], list[dict]] = {}  # summary points per (algo, spec)

    def solve(self, r, algo, config, channels, options, tracer=None, solve_id=-1):
        """One solve, or None when it raised."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = wsrbeam.solve(channels, config, options)
                seconds = time.perf_counter() - t0
            else:
                with tracer.installed():
                    result, seconds = tracer.root(solve_id, "solve", wsrbeam.solve,
                                                  channels, config, options)
        except Exception as exc:  # a failed solve is counted, not fatal
            self.failed += 1
            self.problems.append(f"realization {r} {algo}: {type(exc).__name__}: {exc}")
            return None
        where = f"realization {r} {algo}"
        self.problems += [f"{where}: {p}" for p in check_solve(result, channels, config)]
        outcome = (result.trace[-1].wsr_bits, result.iterations)
        if self._results.setdefault((r, algo), outcome) != outcome:
            self.problems.append(f"{where}: result differs between repeats")
        self.completed += 1
        return Solve(r, algo, tracer is not None, seconds, result.iterations, outcome[0],
                     result.switch_iteration, bool(result.converged), solve_id)

    def invoke(self, algo, k, spec: Path, outdir: Path, tracer: Tracer, traced: bool,
               solve_id=-1):
        """One `wsrbeam run --verify` of spec ``k``, or None when it failed.

        ``tracer`` holds at least the pool patch; only a ``traced`` call
        records spans under a root span."""
        argv = ["run", str(spec), "--out", str(outdir), "--workers", str(WORKERS),
                "--algo", algo, "--verify"]
        del tracer.worker_seconds[:]
        with contextlib.redirect_stdout(io.StringIO()), tracer.installed():
            if traced:
                code, seconds = tracer.root(solve_id, "cli", cli.main, argv)
            else:
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
        requested = json.loads(spec.read_text())
        per_call = requested["n_realizations"] * len(requested.get("sweep", {}).get("snr_db", [0]))
        self.attempted += per_call
        if code != 0:
            self.failed += per_call
            self.problems.append(f"{algo} spec {k}: wsrbeam run exited with {code}")
            return None
        raw = (outdir / "summary.json").read_bytes()
        summary = json.loads(raw)
        self.problems += [f"{algo} spec {k}: {p}" for p in check_summary(summary)]
        if self._summaries.setdefault((algo, k), raw) != raw:
            self.problems.append(f"{algo} spec {k}: summary.json differs between invocations")
        self.points.setdefault((algo, k), summary["points"])
        for point in summary["points"]:
            self.completed += point["n_completed"]
            self.failed += len(point["failures"])
        return Call(algo, traced, seconds,
                    tuple(1000.0 * s for s in tracer.worker_seconds), solve_id)


# --------------------------------------------------------------------------
# Timed-phase clock


class Clock:
    """Seconds of the timed phase, leaving out pauses for set-up probes."""

    def __init__(self, seconds: float, pauses: int) -> None:
        self._marks = [seconds * (i + 1) / (pauses + 1) for i in range(pauses)]
        self._start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self.paused

    def checkpoint(self) -> None:
        """Between two solves: pause once if the next mark has passed."""
        if not self._marks or self.elapsed() < self._marks[0]:
            return
        self._marks.pop(0)
        t0 = time.perf_counter()
        print("pause", flush=True)
        if sys.stdin.readline().strip() != "go":
            raise RuntimeError("the launcher did not resume the run")
        self.paused += time.perf_counter() - t0


# --------------------------------------------------------------------------
# Closed loops


def solve_loop(inputs, options, seconds, gate: Gate, tracer=None, clock=None):
    """All algorithms on each realization in turn, cycling over ``inputs``
    until ``seconds`` have passed; always finishes the first pass.  With a
    tracer every solve is followed by a traced solve of the same pair.
    Returns (solves, traced-over-untraced overheads, passes)."""
    clock = clock or Clock(seconds, 0)
    solves: list[Solve] = []
    overhead: list[float] = []
    step = ids = 0
    while True:
        r = step % len(inputs)
        config, channels, _ = inputs[r]
        for algo in M.ALGOS:
            plain = gate.solve(r, algo, config, channels, options[algo])
            solves += [plain] if plain else []
            if tracer is not None:
                ids += 1
                traced = gate.solve(r, algo, config, channels, options[algo], tracer, ids)
                solves += [traced] if traced else []
                if plain and traced:
                    overhead.append((traced.seconds - plain.seconds) / plain.seconds)
        step += 1
        if step >= len(inputs) and clock.elapsed() >= seconds:
            break
        clock.checkpoint()
    return solves, overhead, step / len(inputs)


def cli_loop(specs, seconds, gate: Gate, workdir: Path, tracer=None, clock=None,
             pairs=True):
    """`wsrbeam run --verify` round-robin over the algorithms, invocation k of
    an algorithm on spec k mod len(specs), until ``seconds`` have passed.
    Untraced, each algorithm runs every spec and then spec 0 again (the
    summary.json byte-identity check); traced, every spec once, each call
    followed by a traced call (or, without ``pairs``, only the traced call).
    Returns (calls, overheads)."""
    clock = clock or Clock(seconds, 0)
    minimum = len(M.ALGOS) * (len(specs) + (0 if tracer else 1))
    pool = Tracer(POOL_PATCHES)
    calls: list[Call] = []
    overhead: list[float] = []
    step = ids = 0
    while True:
        algo = M.ALGOS[step % len(M.ALGOS)]
        k = (step // len(M.ALGOS)) % len(specs)
        outdir = workdir / f"out_{algo}_{k}"
        plain = (gate.invoke(algo, k, specs[k], outdir, pool, traced=False)
                 if tracer is None or pairs else None)
        calls += [plain] if plain else []
        if tracer is not None:
            ids += 1
            traced = gate.invoke(algo, k, specs[k], outdir, tracer, traced=True, solve_id=ids)
            calls += [traced] if traced else []
            if plain and traced:
                overhead.append((traced.seconds - plain.seconds) / plain.seconds)
        step += 1
        if step >= minimum and clock.elapsed() >= seconds:
            break
        clock.checkpoint()
    gate.problems += check_restored(pool)
    return calls, overhead


# --------------------------------------------------------------------------
# Environment


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wsrbeam": wsrbeam.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy_config": np.show_config(mode="dicts"),
    }


def _options():
    return {a: wsrbeam.SolverOptions(algorithm=a) for a in M.ALGOS}


def _warm_up(inputs, options) -> None:
    config, channels, _ = inputs[0]
    for algo in M.ALGOS:
        wsrbeam.solve(channels, config, options[algo])


def _payload(gate: Gate, info: dict, metrics=None, notes=None, tracers=()) -> dict:
    problems = gate.problems + [p for t in tracers for p in check_restored(t)]
    info["error_share"] = gate.failed / max(gate.attempted, 1)
    return {"attempted": gate.attempted, "failed": gate.failed, "problems": problems,
            "metrics": {} if gate.failed else metrics or {}, "notes": notes or {}, "info": info}


# --------------------------------------------------------------------------
# Solver workloads


def run_solver(name: str, seed: int, seconds: float, trace: bool, pauses: int,
               workdir: Path) -> dict:
    shape = SOLVER_WORKLOADS[name]
    inputs = solver_inputs(shape, range(seed, seed + shape["realizations"]))
    options = _options()
    _warm_up(inputs, options)
    gate = Gate()
    if trace:
        return solver_traced(shape, seed, inputs[: len(inputs) // 2], options, seconds, gate,
                             workdir)
    clock = Clock(seconds, pauses)
    solves, _, passes = solve_loop(inputs, options, seconds, gate, clock=clock)
    wall = clock.elapsed()
    info = {"realizations": len(inputs), "passes": passes, "timed_wall_s": wall,
            "paused_s": clock.paused}
    if gate.failed:
        return _payload(gate, info)
    metrics, notes = {}, {}
    p50 = {}
    for algo in M.ALGOS:
        by_r: dict[int, list[float]] = {}
        for s in solves:
            if s.algo == algo:
                by_r.setdefault(s.r, []).append(s.seconds * 1000.0)
        samples = [M.median(v) for _, v in sorted(by_r.items())]
        p50[algo] = M.median(samples)
        value, q, n = M.tail(samples)
        metrics[f"{algo}_solve_ms_p50"] = p50[algo]
        notes[f"{algo}_solve_ms_p50"] = f"median of {n} per-realization median solve times"
        metrics[f"{algo}_solve_ms_tail"] = value
        notes[f"{algo}_solve_ms_tail"] = f"p{q} of {n} per-realization median solve times"
        firsts = {s.r: s.wsr for s in solves if s.algo == algo}
        metrics[f"{algo}_wsr_bpcu"] = sum(firsts.values()) / len(firsts)
        notes[f"{algo}_wsr_bpcu"] = f"mean final WSR over {len(firsts)} realizations"
    metrics["realizations_per_s"] = len(solves) / wall
    notes["realizations_per_s"] = f"{len(solves)} solves in {wall:.2f} s"
    info["peak_rss_mb"] = peak_rss_mb(include_children=False)
    info["ammmse_over_wmmse"] = p50["ammmse"] / p50["wmmse"]
    info["ammmse_over_mmmse"] = p50["ammmse"] / p50["mmmse"]
    return _payload(gate, info, metrics, notes)


def solver_traced(shape, seed, inputs, options, seconds, gate: Gate, workdir: Path) -> dict:
    """Traced run of a solver workload: one traced `wsrbeam run --verify` per
    algorithm on the workload's shape, then traced solve pairs for the rest
    of the seconds (at least one pass)."""
    start = time.perf_counter()
    cli_tracer = Tracer(CLI_PATCHES)
    spec = write_spec(workdir / "spec.json", shape, seed, CLI_REALIZATIONS)
    calls, _ = cli_loop([spec], 0.0, gate, workdir, cli_tracer, pairs=False)
    tracer = Tracer(SOLVER_PATCHES)
    remaining = seconds - (time.perf_counter() - start)
    solves, overhead, passes = solve_loop(inputs, options, remaining, gate, tracer)
    info = {"realizations": len(inputs), "passes": passes}
    if gate.failed:
        return _payload(gate, info, tracers=(tracer, cli_tracer))
    metrics, notes, problems = solver_layers(solves, tracer, info)
    metrics.update(cli_layers(calls, cli_tracer))
    notes.update({f"harness.run_s.{a}": f"one {CLI_REALIZATIONS}-realization `wsrbeam run "
                  "--verify` on this workload's shape" for a in M.ALGOS})
    metrics["model.generate_channels.ms"] = 1000.0 * M.median([g for _, _, g in inputs])
    metrics["trace.overhead_share"] = M.median(overhead)
    notes["trace.overhead_share"] = f"median over {len(overhead)} solve pairs"
    gate.problems += problems
    return _payload(gate, info, metrics, notes, tracers=(tracer, cli_tracer))


def solver_layers(solves: list[Solve], tracer: Tracer, info: dict):
    """Per-layer metrics of the solvers, objective, linalg and model layers
    from traced solves; returns (metrics, notes, problems)."""
    metrics, notes = {}, {}
    by_solve = M.attribute(tracer.spans)
    for algo in M.ALGOS:
        traced = [s for s in solves if s.traced and s.algo == algo]
        ids = {s.solve_id for s in traced}
        # Counts come from the first traced solve of each realization, so
        # they do not depend on how much of a second pass the time allowed.
        once: dict[int, Solve] = {}
        for s in traced:
            once.setdefault(s.r, s)
        once_ids = {s.solve_id for s in once.values()}
        iters = sum(s.iterations for s in once.values())
        totals: dict[str, float] = {}
        for sid in ids:
            for category, secs in by_solve[sid].items():
                totals[category] = totals.get(category, 0.0) + secs
        share_sum = 0.0
        for category, stem in M.SHARE_METRICS.items():
            name = f"{stem}.{algo}"
            if name in M.UNITS:
                metrics[name] = totals.get(category, 0.0) / totals["total"]
                share_sum += metrics[name]
        info[f"share_sum.{algo}"] = share_sum

        if algo in M.EXACT:
            calls = [(steps, ok) for sid, steps, ok in tracer.bisections if sid in once_ids]
            metrics[f"solvers.bisect_dual.steps_per_call.{algo}"] = (
                sum(s for s, _ in calls) / len(calls))
            metrics[f"solvers.bisect_dual.converged_ratio.{algo}"] = (
                sum(ok for _, ok in calls) / len(calls))
        distinct = list(once.values())
        metrics[f"solvers.iterations.{algo}"] = iters / len(distinct)
        if algo in M.WARM:
            switches = [s.switch_iteration for s in distinct if s.switch_iteration is not None]
            metrics[f"solvers.switch_iteration.{algo}"] = sum(switches) / len(switches)
        metrics[f"solvers.converged_share.{algo}"] = (
            sum(s.converged for s in distinct) / len(distinct))
        untraced = [s for s in solves if not s.traced and s.algo == algo]
        metrics[f"solvers.ms_per_iter.{algo}"] = (
            1000.0 * sum(s.seconds for s in untraced) / sum(s.iterations for s in untraced))

        def durations(name, solve_ids=ids):
            return [s.end - s.start for s in tracer.spans
                    if s.name == name and s.solve in solve_ids]

        metrics[f"objective.wmmse_objective.calls_per_iter.{algo}"] = (
            len(durations("wmmse_objective", once_ids)) / iters)
        for stem, name in (("objective.wmmse_objective.ms_per_call", "wmmse_objective"),
                           ("objective.weighted_sum_rate.ms_per_call", "weighted_sum_rate"),
                           ("objective.compute_bounds.ms", "compute_bounds")):
            spans = durations(name)
            metrics[f"{stem}.{algo}"] = 1000.0 * sum(spans) / len(spans)
        cholesky = sum(n for (sid, _), n in tracer.counts.items() if sid in once_ids)
        metrics[f"linalg.cholesky_per_iter.{algo}"] = cholesky / iters
        metrics[f"model.containers_per_iter.{algo}"] = (
            len(durations("container", once_ids)) / iters)
    problems = [f"block shares of {a} sum to {info[f'share_sum.{a}']:.4f}, not 1 +- 0.01"
                for a in M.ALGOS if abs(info[f"share_sum.{a}"] - 1.0) > 0.01]
    return metrics, notes, problems


# --------------------------------------------------------------------------
# sweep-pool


def run_sweep(seed: int, seconds: float, trace: bool, pauses: int, workdir: Path) -> dict:
    specs = write_sweep_specs(workdir, seed)
    with contextlib.redirect_stdout(io.StringIO()):  # warm-up, untimed
        cli.main(["run", str(specs[0]), "--out", str(workdir / "warmup"),
                  "--workers", str(WORKERS), "--seeds", "1"])
    gate = Gate()
    if trace:
        return sweep_traced(seed, specs, seconds, gate, workdir)
    clock = Clock(seconds, pauses)
    calls, _ = cli_loop(specs, seconds, gate, workdir, clock=clock)
    wall = clock.elapsed()
    info = {"invocations": len(calls), "timed_wall_s": wall, "paused_s": clock.paused}
    if gate.failed:
        return _payload(gate, info)
    metrics, notes = {}, {}
    for algo in M.ALGOS:
        # Every worker solve of every invocation is a sample: with a few
        # dozen heterogeneous realizations per run, per-realization medians
        # would put the tail rank on the edge of the slow 20 dB group.
        mine = [c for c in calls if c.algo == algo]
        samples = [ms for c in mine for ms in c.solve_ms]
        value, q, n = M.tail(samples)
        source = f"{n} worker solve times in {len(mine)} `wsrbeam run --verify` invocations"
        info[f"{algo}_solve_ms_samples"] = [list(c.solve_ms) for c in mine]
        metrics[f"{algo}_solve_ms_p50"] = M.median(samples)
        notes[f"{algo}_solve_ms_p50"] = f"median of {source}"
        metrics[f"{algo}_solve_ms_tail"] = value
        notes[f"{algo}_solve_ms_tail"] = f"p{q} of {source}"
        info[f"{algo}_invocation_ms_p50"] = 1000.0 * M.median([c.seconds for c in mine])
        points = [p for k in range(len(specs)) for p in gate.points[(algo, k)]]
        done = sum(p["n_completed"] for p in points)
        metrics[f"{algo}_wsr_bpcu"] = sum(p["wsr_bits_mean"] * p["n_completed"]
                                          for p in points) / done
        notes[f"{algo}_wsr_bpcu"] = f"mean final WSR over {done} realizations, from summary.json"
    metrics["realizations_per_s"] = gate.completed / wall
    notes["realizations_per_s"] = f"{gate.completed} realizations in {wall:.2f} s"
    info["peak_rss_mb"] = peak_rss_mb(include_children=True)
    return _payload(gate, info, metrics, notes)


def sweep_traced(seed, specs, seconds, gate: Gate, workdir: Path) -> dict:
    """Traced run of sweep-pool.  Spans of forked pool workers never reach
    this process, so the solver layers are measured on spec 0's realizations
    solved here first; the rest of the seconds go to traced invocation pairs
    (each spec at least once)."""
    start = time.perf_counter()
    inputs = solver_inputs(SWEEP_SHAPE, range(seed, seed + SWEEP_REALIZATIONS), SWEEP_SNRS)
    options = _options()
    _warm_up(inputs, options)
    tracer = Tracer(SOLVER_PATCHES)
    solves, _, _ = solve_loop(inputs, options, 0.0, gate, tracer)
    cli_tracer = Tracer(CLI_PATCHES)
    remaining = seconds - (time.perf_counter() - start)
    calls, overhead = cli_loop(specs, remaining, gate, workdir, cli_tracer)
    info = {"invocations": len(calls), "realizations": len(inputs)}
    if gate.failed:
        return _payload(gate, info, tracers=(tracer, cli_tracer))
    metrics, notes, problems = solver_layers(solves, tracer, info)
    notes.update({name: "spec 0's realizations solved in this process" for name in metrics})
    metrics.update(cli_layers(calls, cli_tracer))
    metrics["model.generate_channels.ms"] = 1000.0 * M.median([g for _, _, g in inputs])
    metrics["trace.overhead_share"] = M.median(overhead)
    notes["trace.overhead_share"] = f"median over {len(overhead)} invocation pairs"
    gate.problems += problems
    return _payload(gate, info, metrics, notes, tracers=(tracer, cli_tracer))


def cli_layers(calls: list[Call], tracer: Tracer) -> dict:
    """Per-layer metrics of the cli, harness and verify layers (parent
    process of `wsrbeam run`)."""
    metrics = {}
    spans = tracer.spans

    def durations(name, ids=None):
        return [s.end - s.start for s in spans
                if s.name == name and (ids is None or s.solve in ids)]

    for algo in M.ALGOS:
        ids = {c.solve_id for c in calls if c.algo == algo and c.traced}
        runs = durations("run_experiment", ids)
        metrics[f"harness.run_s.{algo}"] = sum(runs) / len(runs)
    traced = [c for c in calls if c.traced]
    metrics["harness.pool_busy_share"] = (sum(sum(c.solve_ms) for c in traced) / 1000.0
                                          / (WORKERS * sum(c.seconds for c in traced)))
    emits = durations("emit_trace")
    metrics["harness.emit_trace.ms_per_file"] = 1000.0 * sum(emits) / len(emits)
    traced_wall = sum(durations("cli"))
    metrics["verify.check_lemma_bounds.share"] = sum(durations("check_lemma_bounds")) / traced_wall
    metrics["verify.finite_diff_gradient.share"] = (
        sum(durations("finite_diff_gradient")) / traced_wall)
    return metrics


# --------------------------------------------------------------------------


def setup_only(name: str, seed: int, workdir: Path) -> None:
    """What a run does before its first timed solve, apart from the warm-up."""
    if name == SWEEP_WORKLOAD:
        write_sweep_specs(workdir, seed)
    else:
        shape = SOLVER_WORKLOADS[name]
        solver_inputs(shape, range(seed, seed + shape["realizations"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = Path(wsrbeam.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: imported wsrbeam from {package}, not from this checkout", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed, workdir)
            return 0
        if args.workload == SWEEP_WORKLOAD:
            payload = run_sweep(args.seed, args.seconds, bool(args.trace), args.pauses, workdir)
        else:
            payload = run_solver(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.pauses, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload["info"]["env"] = environment()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
