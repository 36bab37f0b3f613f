"""Tests of the benchmark's own arithmetic, tracing and correctness gate.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402
from tracing import CLI_PATCHES, POOL_PATCHES, SOLVER_PATCHES, Span, Tracer  # noqa: E402

import wsrbeam  # noqa: E402  (workloads put the checkout's src/ on sys.path)


# -- tail percentile -------------------------------------------------------


def test_tail_rank_leaves_ten_beyond():
    for n in range(1, 2000):
        q, rank = M.tail_rank(n)
        assert 1 <= rank <= n
        if n <= M.TAIL_BEYOND:
            assert (q, rank) == (100, n)
            continue
        assert n - rank >= M.TAIL_BEYOND
        if q < 100:  # the next percentile up would leave fewer than ten
            assert n - max(1, math.ceil((q + 1) * n / 100)) < M.TAIL_BEYOND


def test_tail_value_and_examples():
    assert M.tail_rank(100) == (90, 90)
    assert M.tail_rank(24) == (58, 14)
    value, q, n = M.tail([float(x) for x in range(100, 0, -1)])
    assert (value, q, n) == (90.0, 90, 100)


# -- span arithmetic -------------------------------------------------------


def _spans():
    # solve 0: [0, 20]
    #   compute_bounds [0, 1]
    #   update_precoders_exact [2, 10]: weighted_gram [2, 3], bisect_dual [4, 9]
    #     bisect_dual contains a container [5, 6]
    #   wmmse_objective [10, 11], weighted_sum_rate [11, 12]
    #   exit: update_receivers [13, 16] containing a container [14, 15],
    #         pgd_precoder_step [16, 18] containing weighted_gram [16, 17]
    s = [
        Span("solve", 0, 20, -1, 0),
        Span("compute_bounds", 0, 1, 0, 0),
        Span("update_precoders_exact", 2, 10, 0, 0),
        Span("weighted_gram", 2, 3, 2, 0),
        Span("bisect_dual", 4, 9, 2, 0),
        Span("container", 5, 6, 4, 0),
        Span("wmmse_objective", 10, 11, 0, 0),
        Span("weighted_sum_rate", 11, 12, 0, 0),
        Span("update_receivers", 13, 16, 0, 0),
        Span("container", 14, 15, 8, 0),
        Span("pgd_precoder_step", 16, 18, 0, 0),
        Span("weighted_gram", 16, 17, 10, 0),
    ]
    return s


def test_self_times_of_nested_spans():
    selfs = M.self_times(_spans())
    assert selfs == [20 - 1 - 8 - 1 - 1 - 3 - 2, 1, 8 - 1 - 5, 1, 5 - 1, 1, 1, 1, 3 - 1, 1, 2 - 1, 1]


def test_attribution_and_exit_check():
    out = M.attribute(_spans())[0]
    assert out["total"] == 20
    assert out["update_precoders_exact"] == 2
    assert out["bisect_dual"] == 4
    assert out["weighted_gram"] == 1  # the one inside the exit check is not counted here
    assert out["containers"] == 1  # likewise
    assert out["diag"] == 2
    assert out["compute_bounds"] == 1
    # Everything that starts after the last weighted_sum_rate, children included.
    assert out["exit_check"] == 3 + 2
    assert "update_receivers" not in out and "pgd_precoder_step" not in out
    assert out["driver_self"] == 4
    assert sum(v for k, v in out.items() if k != "total") == out["total"]


def test_attribution_needs_one_root_per_solve():
    spans = _spans() + [Span("solve", 30, 40, -1, 0)]
    with pytest.raises(ValueError):
        M.attribute(spans)


# -- tracing ---------------------------------------------------------------


def _small_problem(seed=3):
    config = wsrbeam.SystemConfig(M=8, N=2, K=3, d=2, p_max=10.0, snr_db=10.0,
                                  channel_seed=seed, init_seed=seed)
    channels = wsrbeam.generate_channels(config)
    sigma2 = wsrbeam.compute_noise_power(channels, config.snr_db, config)
    return config, channels.with_noise_power(sigma2)


def _attributes(patches):
    import importlib
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in patches}


@pytest.mark.parametrize("algo", M.ALGOS)
def test_traced_solve_restores_patches_and_matches_untraced(algo):
    before = _attributes(SOLVER_PATCHES + CLI_PATCHES)
    config, channels = _small_problem()
    options = wsrbeam.SolverOptions(algorithm=algo)
    plain = wsrbeam.solve(channels, config, options)
    tracer = Tracer(SOLVER_PATCHES)
    with tracer.installed():
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in tracer.originals())
        traced, seconds = tracer.root(7, "solve", wsrbeam.solve, channels, config, options)
    assert _attributes(SOLVER_PATCHES + CLI_PATCHES) == before
    assert W.check_restored(tracer) == []
    assert seconds > 0
    assert traced.trace[-1].wsr_bits == plain.trace[-1].wsr_bits
    assert traced.iterations == plain.iterations

    names = {s.name for s in tracer.spans}
    assert {"solve", "update_receivers", "wmmse_objective", "weighted_sum_rate",
            "compute_bounds", "container"} <= names
    assert all(s.solve == 7 for s in tracer.spans)
    assert tracer.counts[(7, "lndet_hpd")] > 0
    shares = M.attribute(tracer.spans)[7]
    assert math.isclose(sum(v for k, v in shares.items() if k != "total"), shares["total"],
                        rel_tol=1e-9)
    assert shares["exit_check"] > 0
    if algo in M.EXACT:
        assert len(tracer.bisections) >= plain.iterations
    else:
        assert not tracer.bisections and "pgd_precoder_step" in names


def test_patches_restored_when_the_block_raises():
    before = _attributes(SOLVER_PATCHES)
    tracer = Tracer(SOLVER_PATCHES)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert _attributes(SOLVER_PATCHES) == before


def test_traced_containers_keep_classmethods_and_isinstance():
    tracer = Tracer(SOLVER_PATCHES)
    with tracer.installed():
        eye = wsrbeam.solvers.WeightMatrixSet.identity(2, 2)
    assert isinstance(eye, wsrbeam.WeightMatrixSet)
    assert [s.name for s in tracer.spans] == ["container"]


def test_pool_patch_reads_the_worker_solve_times(tmp_path):
    spec = W.write_spec(tmp_path / "spec.json", {"M": 6, "N": 2, "K": 2, "d": 1}, 5, 3)
    before = _attributes(POOL_PATCHES)
    gate = W.Gate()
    call = gate.invoke("wmmse", 0, spec, tmp_path / "out", Tracer(POOL_PATCHES), traced=False)
    assert _attributes(POOL_PATCHES) == before
    assert gate.problems == [] and gate.completed == 3
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())["points"][0]
    assert len(call.solve_ms) == 3
    assert math.isclose(sum(call.solve_ms) / 3, 1000.0 * timing["wall_time_mean_s"],
                        rel_tol=1e-9)


# -- correctness gate ------------------------------------------------------


def test_gate_accepts_a_real_solve():
    config, channels = _small_problem()
    result = wsrbeam.solve(channels, config, wsrbeam.SolverOptions(algorithm="ammmse"))
    assert W.check_solve(result, channels, config) == []


def test_gate_rejects_infeasible_precoders():
    config, channels = _small_problem()
    result = wsrbeam.solve(channels, config, wsrbeam.SolverOptions(algorithm="wmmse"))
    scaled = wsrbeam.PrecoderSet(result.final_precoders.precoders * 1.01)
    bad = dataclasses.replace(result, final_precoders=scaled)
    problems = W.check_solve(bad, channels, config)
    assert any("infeasible" in p for p in problems)
    assert any("does not match" in p for p in problems)


def test_gate_rejects_mismatched_or_non_finite_wsr():
    config, channels = _small_problem()
    result = wsrbeam.solve(channels, config, wsrbeam.SolverOptions(algorithm="mmmse"))
    last = result.trace[-1]
    off = dataclasses.replace(last, wsr_bits=last.wsr_bits * (1 + 1e-9))
    bad = dataclasses.replace(result, trace=result.trace[:-1] + (off,))
    assert [p for p in W.check_solve(bad, channels, config) if "does not match" in p]
    nan = dataclasses.replace(result.trace[0], wsr_bits=math.nan)
    bad = dataclasses.replace(result, trace=(nan,) + result.trace[1:])
    assert "non-finite WSR in trace" in W.check_solve(bad, channels, config)


def test_gate_keeps_scalars_and_flags_repeats_that_differ():
    config, channels = _small_problem()
    other_config, other_channels = _small_problem(seed=4)
    options = wsrbeam.SolverOptions(algorithm="wmmse")
    gate = W.Gate()
    first = gate.solve(0, "wmmse", config, channels, options)
    assert not hasattr(first, "__dict__") and not hasattr(first, "result")
    assert first.iterations > 0 and first.seconds > 0 and math.isfinite(first.wsr)
    gate.solve(0, "wmmse", config, channels, options)
    assert gate.problems == []
    gate.solve(0, "wmmse", other_config, other_channels, options)
    assert gate.problems == ["realization 0 wmmse: result differs between repeats"]
    assert (gate.attempted, gate.completed, gate.failed) == (3, 3, 0)


def test_gate_counts_a_solve_that_raises():
    config, channels = _small_problem()
    gate = W.Gate()
    bad = wsrbeam.SystemConfig(M=9, N=2, K=3, d=2, p_max=10.0, snr_db=10.0)
    assert gate.solve(0, "mmmse", bad, channels, wsrbeam.SolverOptions(algorithm="mmmse")) is None
    assert (gate.attempted, gate.failed) == (1, 1) and len(gate.problems) == 1


def test_clock_pauses_once_per_mark_and_leaves_pauses_out(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("go\n"))
    clock = W.Clock(0.0, pauses=1)
    clock.checkpoint()
    clock.checkpoint()  # no mark left
    assert capsys.readouterr().out == "pause\n"
    assert clock.paused > 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    with pytest.raises(RuntimeError):
        W.Clock(0.0, pauses=1).checkpoint()


def test_summary_gate():
    good = {"oracles": [{"name": "lemma_bounds[snr0]", "passed": True, "detail": ""}],
            "points": [{"label": "snr0", "n_realizations": 3, "n_completed": 2,
                        "failures": ["seed 2: boom"]}]}
    assert W.check_summary(good) == []
    failing = json.loads(json.dumps(good))
    failing["oracles"][0]["passed"] = False
    assert W.check_summary(failing)
    short = json.loads(json.dumps(good))
    short["points"][0]["failures"] = []
    assert W.check_summary(short)
    assert W.check_summary(dict(good, oracles=[]))


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(M.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(M.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)
