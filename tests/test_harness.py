import dataclasses
import json

import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.cli import main as cli_main
from wsrbeam.errors import ConfigError

MINIMAL = {"M": 8, "N": 2, "K": 3, "d": 2, "snr_db": 10.0}


def spec_text(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseExperiment:
    def test_minimal_config_defaults(self):
        spec = wb.parse_experiment(spec_text())
        assert spec.solver.eps1 == 0.1
        assert spec.solver.eps2 == 0.001
        assert spec.base.p_max == 10.0
        assert spec.n_realizations == 20
        assert spec.solver.algorithm is wb.Algorithm.WMMSE

    def test_explicit_gamma_kept(self):
        spec = wb.parse_experiment(spec_text(algorithm="ammmse", gamma=0.2, omega=0.1))
        assert spec.solver.gamma == 0.2 and spec.solver.omega == 0.1

    def test_snr_sweep_defers_step_resolution(self):
        # One set of options for every sweep point: the step is computed from
        # each iterate in the solve.
        spec = wb.parse_experiment(spec_text(algorithm="ammmse",
                                             sweep={"snr_db": [0, 10]}))
        assert spec.solver.gamma is None and spec.solver.omega == 0.5

    def test_eps_ordering_rejected(self):
        with pytest.raises(ConfigError, match="eps2"):
            wb.parse_experiment(spec_text(eps1=1e-4, eps2=1e-2))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="snr_dbb"):
            wb.parse_experiment(spec_text(snr_dbb=3))

    def test_removed_bisect_tol_key_named(self):
        with pytest.raises(ConfigError, match="bisect_tol"):
            wb.parse_experiment(spec_text(bisect_tol=1e-4))

    def test_removed_bisect_max_key_named(self):
        with pytest.raises(ConfigError, match="bisect_max"):
            wb.parse_experiment(spec_text(bisect_max=100))

    def test_missing_required_named(self):
        doc = dict(MINIMAL)
        del doc["M"]
        with pytest.raises(ConfigError, match="M"):
            wb.parse_experiment(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            wb.parse_experiment("{not json")

    def test_bad_sweep_parameter(self):
        with pytest.raises(ConfigError, match="sweep"):
            wb.parse_experiment(spec_text(sweep={"d": [1, 2]}))

    @pytest.mark.parametrize("name, first, second", [("K", [2, 4], [5]),
                                                     ("snr_db", [0, 10], [20])])
    def test_sweep_parameter_named_twice_rejected(self, name, first, second):
        # Without the check, the second list overrides the first in every point:
        # [["K", [2, 4]], ["K", [5]]] would label K2_K5 and K4_K5, both solving K = 5.
        with pytest.raises(ConfigError, match=f"{name!r} is named more than once"):
            wb.parse_experiment(spec_text(sweep=[[name, first], [name, second]]))

    @pytest.mark.parametrize("field, value", [
        ("M", 16.7), ("n_realizations", 2.9), ("max_iters", 50.5), ("n_realizations", True),
        ("channel_seed", 1.5), ("parallel_workers", "2"), ("d", False),
    ])
    def test_non_integral_integer_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            wb.parse_experiment(spec_text(**{field: value}))

    def test_integral_floats_accepted_as_int(self):
        spec = wb.parse_experiment(spec_text(M=16.0, n_realizations=2.0, max_iters=50.0))
        assert (spec.base.M, spec.n_realizations, spec.solver.max_iters) == (16, 2, 50)
        assert all(type(x) is int for x in (spec.base.M, spec.n_realizations,
                                            spec.solver.max_iters))

    def test_gamma_safe_sentinel(self):
        spec = wb.parse_experiment(spec_text(algorithm="ammmse", gamma="safe"))
        assert spec.solver.gamma == wb.GAMMA_SAFE


# Spec values of the wrong type: each is a ConfigError naming the field, which
# `wsrbeam run` reports with exit 2, instead of a traceback or a silent
# reading as something else (true as 1.0, "0.5" as 0.5).
@pytest.mark.parametrize("field, value", [
    ("omega", "abc"), ("gamma", [1]), ("gamma", True), ("gamma", "fast"),
    ("weights", ["a", 1, 1]), ("snr_db", True), ("p_max", True), ("eps1", "0.5"),
    ("sweep", {"K": 4}), ("sweep", {"snr_db": ["x"]}), ("sweep", [["K"]]),
    ("output_dir", None), ("output_dir", 5),
])
def test_wrongly_typed_value_named(field, value):
    with pytest.raises(ConfigError, match=field):
        wb.parse_experiment(spec_text(algorithm="ammmse", **{field: value}))


def test_cli_exits_2_on_repeated_sweep_parameter(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(spec_text(sweep=[["K", [2, 4]], ["K", [5]]]))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'K'" in err
    assert not (tmp_path / "out").exists()


def test_cli_exits_2_on_wrongly_typed_value(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(spec_text(algorithm="ammmse", omega="abc"))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "omega" in err


class TestEmitAndReadTrace:
    def _result(self):
        cfg = wb.SystemConfig(**{k: v for k, v in MINIMAL.items()})
        ch = wb.generate_channels(cfg)
        ch = ch.with_noise_power(wb.compute_noise_power(ch, cfg.snr_db, cfg))
        return wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE, eps2=1e-4))

    def test_row_count_and_header(self, tmp_path):
        res = self._result()
        path = tmp_path / "trace.csv"
        wb.emit_trace(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("iter,wsr_bpcu,f_nats,power,stage,f_after_u,"
                            "f_after_w,f_after_v,rel_change")
        assert len(lines) == res.iterations + 1

    def test_stage_column_nondecreasing(self, tmp_path):
        res = self._result()
        path = tmp_path / "trace.csv"
        wb.emit_trace(res, path)
        stages = [int(line.split(",")[4]) for line in path.read_text().strip().splitlines()[1:]]
        assert all(s in (0, 1) for s in stages)
        assert stages == sorted(stages)

    def test_round_trip_exact(self, tmp_path):
        res = self._result()
        path = tmp_path / "trace.csv"
        wb.emit_trace(res, path)
        back = wb.read_trace(path)
        assert back == res.trace  # exact float equality, +inf included

    def test_f_nats_column_is_f_after_v(self, tmp_path):
        res = self._result()
        path = tmp_path / "trace.csv"
        wb.emit_trace(res, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        assert [row[2] for row in rows] == [repr(rec.f_after_v) for rec in res.trace]
        # A row whose f_nats differs from its f_after_v is rejected by name.
        rows[1][2] = repr(float(rows[1][2]) + 1.0)
        path.write_text("\n".join([wb.harness.TRACE_HEADER] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(ConfigError, match="f_nats") as info:
            wb.read_trace(path)
        assert ",".join(rows[1]) in str(info.value)

    @pytest.mark.parametrize("column, value", [(4, "7"), (4, "x"), (1, "abc"), (0, "1.5")])
    def test_malformed_field_names_file_and_row(self, tmp_path, column, value):
        # An unknown stage, a non-numeric stage or rate and a fractional
        # iteration each raise a ConfigError, not a bare ValueError.
        path = tmp_path / "trace.csv"
        wb.emit_trace(self._result(), path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        rows[1][column] = value
        path.write_text("\n".join([wb.harness.TRACE_HEADER] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(ConfigError, match="malformed trace row") as info:
            wb.read_trace(path)
        assert str(path) in str(info.value) and ",".join(rows[1]) in str(info.value)


def _run_summary(tmp_path, argv=(), **overrides):
    """summary.json after `wsrbeam run`, and the names of its trace files."""
    tmp_path.mkdir(exist_ok=True)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(spec_text(n_realizations=1, max_iters=3, **overrides))
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--out", str(out), "--workers", "1", *argv]) == 0
    return json.loads((out / "summary.json").read_text()), sorted(p.name for p in out.glob("*.csv"))


class TestRunExperiment:
    # Every point runs the spec's own options, so summary.json records them
    # once, in the spec's solver dict, and no point carries one.
    @pytest.mark.parametrize("snr_db", [10, 20])
    def test_spec_records_the_step(self, tmp_path, snr_db):
        doc, _ = _run_summary(tmp_path, snr_db=snr_db, algorithm="ammmse")
        solver = doc["spec"]["solver"]
        assert (solver["algorithm"], solver["omega"], solver["gamma"]) == ("ammmse", 0.5, None)
        assert [p["label"] for p in doc["points"]] == ["base"]
        assert "solver" not in doc["points"][0]

    def test_algo_override_is_recorded_in_the_spec(self, tmp_path):
        # An A-MMMSE spec run as WMMSE records and runs WMMSE at every point.
        spec = dict(snr_db=20, algorithm="ammmse", sweep={"K": [2, 3]})
        doc, traces = _run_summary(tmp_path, ["--algo", "wmmse"], **spec)
        assert doc["spec"]["solver"]["algorithm"] == "wmmse"
        assert [p["label"] for p in doc["points"]] == ["K2", "K3"]
        assert all("solver" not in p for p in doc["points"])
        assert traces == ["wmmse_K2_seed0.csv", "wmmse_K3_seed0.csv"]

    def test_byte_identical_reruns(self, tmp_path):
        text = spec_text(n_realizations=1, max_iters=50)
        import dataclasses
        spec = dataclasses.replace(wb.parse_experiment(text), output_dir=tmp_path / "out")
        wb.run_experiment(spec)
        first = {name: (tmp_path / "out" / name).read_bytes()
                 for name in ("wmmse_base_seed0.csv", "summary.json")}
        wb.run_experiment(spec)
        for name, payload in first.items():
            assert (tmp_path / "out" / name).read_bytes() == payload

    def test_sweep_cardinality(self, tmp_path):
        spec = wb.parse_experiment(spec_text(n_realizations=2, max_iters=50,
                                             sweep={"K": [2, 3, 4]}))
        import dataclasses
        summary = wb.run_experiment(dataclasses.replace(spec, output_dir=tmp_path))
        assert len(summary.points) == 3
        traces = sorted(p.name for p in tmp_path.glob("wmmse_*_seed*.csv"))
        assert len(traces) == 6
        assert {p.label for p in summary.points} == {"K2", "K3", "K4"}

    def test_algorithms_share_channels_and_agree(self, tmp_path):
        # Same realization indices see identical channel sets; final WSR
        # spread across the three algorithms stays within 2% per seed.
        finals = {}
        import dataclasses
        for algo in ("wmmse", "mmmse", "ammmse"):
            spec = wb.parse_experiment(spec_text(
                M=32, K=8, algorithm=algo, n_realizations=4, eps2=1e-4, max_iters=4000))
            out = tmp_path / algo
            wb.run_experiment(dataclasses.replace(spec, output_dir=out))
            finals[algo] = [wb.read_trace(out / f"{algo}_base_seed{r}.csv")[-1].wsr_bits
                            for r in range(4)]
        for r in range(4):
            vals = [finals[a][r] for a in finals]
            assert (max(vals) - min(vals)) / min(vals) <= 0.02

    @pytest.mark.parametrize("overrides, verify", [
        ({}, False),
        ({"algorithm": "mmmse", "sweep": {"snr_db": [0, 20]}}, True),
    ], ids=["base", "snr_sweep_verify"])
    def test_parallel_matches_serial(self, tmp_path, overrides, verify):
        import dataclasses
        spec = wb.parse_experiment(spec_text(n_realizations=3, max_iters=60, **overrides))
        for workers in (1, 2):
            wb.run_experiment(dataclasses.replace(
                spec, output_dir=tmp_path / f"w{workers}", parallel_workers=workers),
                verify=verify)
        serial, parallel = tmp_path / "w1", tmp_path / "w2"
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert len(names) == 3 * len(overrides.get("sweep", {}).get("snr_db", [0]))
        assert names == sorted(p.name for p in parallel.glob("*.csv"))
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        docs = [json.loads((out / "summary.json").read_text()) for out in (serial, parallel)]
        for doc in docs:  # the two fields the runs set apart
            del doc["spec"]["output_dir"], doc["spec"]["parallel_workers"]
        assert docs[0] == docs[1]
        assert bool(docs[0]["oracles"]) == verify

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    def test_one_pool_per_run(self, tmp_path, monkeypatch, verify):
        # One pool maps every (sweep point, realization) job, point-major;
        # with verify, the gradient check is submitted to it first.
        import dataclasses
        from concurrent.futures import Future
        import wsrbeam.harness as harness
        made = []

        class CountingPool:
            def __init__(self, max_workers):
                self.calls = []
                made.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.calls.append(("submit", fn, args))
                future = Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, jobs):
                jobs = list(jobs)
                self.calls.append(("map", fn, jobs))
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        spec = wb.parse_experiment(spec_text(n_realizations=2, max_iters=30,
                                             sweep={"snr_db": [0, 10, 20]}))
        summary = wb.run_experiment(
            dataclasses.replace(spec, output_dir=tmp_path, parallel_workers=2), verify=verify)
        assert len(made) == 1
        calls = made[0].calls
        assert [kind for kind, _, _ in calls] == (["submit", "map"] if verify else ["map"])
        if verify:
            assert calls[0][1:] == (harness._gradient_fd_report, (spec.base,))
            assert summary.oracle_reports[-1].name == "gradient_finite_difference"
        _, fn, jobs = calls[-1]
        assert fn is harness._solve_one
        assert [(job[0], job[1].snr_db, job[1].channel_seed) for job in jobs] == [
            (r, snr, r) for snr in (0.0, 10.0, 20.0) for r in range(2)]

    def test_gradient_oracle_skipped_above_coordinate_budget(self):
        # K M d = 1040 is above the budget of 1024 coordinates: no report.
        import wsrbeam.harness as harness
        cfg = wb.SystemConfig(M=130, N=2, K=4, d=2, snr_db=10.0)
        assert cfg.K * cfg.M * cfg.d > harness._FD_COORD_BUDGET
        assert harness._gradient_fd_report(cfg) is None

    def test_solve_one_returns_no_iterates_and_scans_only_when_verifying(self):
        # The bound scan runs where the iterates are; they never leave it.
        import wsrbeam.harness as harness
        cfg = wb.SystemConfig(**MINIMAL)
        options = wb.SolverOptions(max_iters=20)
        for verify in (False, True):
            index, result, wall, error, report = harness._solve_one((5, cfg, options, verify))
            assert (index, error) == (5, None) and wall > 0.0
            assert result.iterates == ()
            if verify:
                assert report.name == "lemma_bounds" and report.passed
                assert report.instances == result.iterations
            else:
                assert report is None

    def test_summary_contents(self, tmp_path):
        import dataclasses
        spec = wb.parse_experiment(spec_text(algorithm="mmmse", n_realizations=2, max_iters=200))
        summary = wb.run_experiment(dataclasses.replace(spec, output_dir=tmp_path))
        doc = json.loads((tmp_path / "summary.json").read_text())
        point = doc["points"][0]
        assert point["n_realizations"] == 2
        assert point["n_completed"] == 2
        assert point["convergence_rate"] == 1.0
        assert point["switch_iteration_mean"] is not None
        assert doc["stamps"]["rng"] == wb.RNG_ALGORITHM
        assert doc["stamps"].keys() == {"package", "version", "python", "numpy", "rng"}
        assert "wall_time_mean_s" not in point  # timing lives in timing.json
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["points"][0]["label"] == point["label"]

    def test_realization_failures_recorded_nonfatal(self, tmp_path, monkeypatch):
        import dataclasses
        import wsrbeam.harness as harness
        real_solve = harness.solve

        def flaky(channels, config, options):
            if config.channel_seed == 1:
                raise wb.UnstableParametersError("synthetic failure")
            return real_solve(channels, config, options)

        monkeypatch.setattr(harness, "solve", flaky)
        spec = wb.parse_experiment(spec_text(n_realizations=3, max_iters=100))
        spec = dataclasses.replace(spec, output_dir=tmp_path, parallel_workers=1)
        summary = wb.run_experiment(spec)
        point = summary.points[0]
        assert point.n_completed == 2
        assert point.n_converged == 2
        assert len(point.failures) == 1 and "seed 1" in point.failures[0]
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["points"][0]["convergence_rate"] == pytest.approx(2 / 3)
        assert not (tmp_path / "wmmse_base_seed1.csv").exists()

    def test_bound_scan_error_fails_the_run(self, tmp_path, monkeypatch):
        # The scan runs in the realization's job but outside its failure
        # rule: an oracle error propagates, it is no failed realization.
        import wsrbeam.harness as harness

        def broken_scan(*args, **kwargs):
            raise wb.WsrbeamError("synthetic oracle error")

        monkeypatch.setattr(harness, "check_lemma_bounds", broken_scan)
        spec = wb.parse_experiment(spec_text(n_realizations=2, max_iters=20))
        spec = dataclasses.replace(spec, output_dir=tmp_path, parallel_workers=1)
        with pytest.raises(wb.WsrbeamError, match="synthetic oracle error"):
            wb.run_experiment(spec, verify=True)
        assert not (tmp_path / "summary.json").exists()

    def test_failed_realization_leaves_the_scan_of_the_others(self, tmp_path, monkeypatch):
        import wsrbeam.harness as harness
        real_solve = harness.solve
        solved = {}

        def flaky(channels, config, options):
            if config.channel_seed == 1:
                raise wb.NumericalError("iteration 3: synthetic overflow")
            solved[config.channel_seed] = real_solve(channels, config, options)
            return solved[config.channel_seed]

        monkeypatch.setattr(harness, "solve", flaky)
        spec = wb.parse_experiment(spec_text(n_realizations=3, max_iters=40))
        spec = dataclasses.replace(spec, output_dir=tmp_path, parallel_workers=1)
        summary = wb.run_experiment(spec, verify=True)
        point = summary.points[0]
        assert point.failures == ("seed 1: NumericalError: iteration 3: synthetic overflow",)
        assert sorted(solved) == [0, 2] and point.n_completed == 2
        lemma = [r for r in summary.oracle_reports if r.name.startswith("lemma_bounds")]
        assert [r.name for r in lemma] == ["lemma_bounds[base]"]
        assert lemma[0].instances == sum(len(r.iterates) for r in solved.values())
        assert lemma[0].passed

    def test_verify_attaches_oracles(self, tmp_path):
        import dataclasses
        spec = wb.parse_experiment(spec_text(n_realizations=2, max_iters=200))
        summary = wb.run_experiment(dataclasses.replace(spec, output_dir=tmp_path),
                                    verify=True)
        names = {r.name for r in summary.oracle_reports}
        assert any(n.startswith("lemma_bounds") for n in names)
        assert "gradient_finite_difference" in names
        assert all(r.passed for r in summary.oracle_reports)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert len(doc["oracles"]) == len(summary.oracle_reports)


class TestCli:
    def test_run_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(spec_text(n_realizations=5, max_iters=100))
        out = tmp_path / "results"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--algo", "mmmse",
                       "--seeds", "2", "--workers", "1"])
        assert rc == 0
        assert (out / "summary.json").exists()
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "mmmse_base_seed0.csv", "mmmse_base_seed1.csv"]
        captured = capsys.readouterr()
        assert "mean WSR" in captured.out

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(spec_text(eps1=1e-5, eps2=1e-3))
        rc = cli_main(["run", str(cfg_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_failed_oracle_exits_1(self, tmp_path, capsys, monkeypatch):
        # The same run and the same output, with one bound scan made to fail:
        # exit status 0 becomes 1.
        import wsrbeam.harness as harness
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(spec_text(n_realizations=1, max_iters=20))
        argv = ["run", str(cfg_path), "--workers", "1", "--verify", "--out"]
        assert cli_main(argv + [str(tmp_path / "pass")]) == 0
        passed = capsys.readouterr().out
        real_scan = harness.check_lemma_bounds

        def failing_scan(*args, **kwargs):
            report = real_scan(*args, **kwargs)
            return dataclasses.replace(report, max_rel_error=1.0, max_abs_error=1.0,
                                       passed=False, detail="violated: receiver_norm")

        monkeypatch.setattr(harness, "check_lemma_bounds", failing_scan)
        assert cli_main(argv + [str(tmp_path / "fail")]) == 1
        failed = capsys.readouterr().out
        assert "oracle lemma_bounds[base]: FAIL" in failed
        assert "oracle gradient_finite_difference: pass" in failed
        assert (tmp_path / "fail" / "summary.json").exists()
        assert failed.splitlines()[0] == passed.splitlines()[0]


def test_programming_error_in_solve_propagates(tmp_path, monkeypatch):
    # Only the package's errors and LinAlgError become failure rows; any
    # other exception is a bug and fails the run.
    import dataclasses
    import wsrbeam.harness as harness

    def broken(channels, config, options):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(harness, "solve", broken)
    spec = wb.parse_experiment(spec_text(n_realizations=2, max_iters=100))
    spec = dataclasses.replace(spec, output_dir=tmp_path, parallel_workers=1)
    with pytest.raises(TypeError, match="synthetic bug"):
        wb.run_experiment(spec)


class TestSpecFields:
    """The Python API and the JSON route share one rule per field."""

    def _spec(self, **fields):
        return wb.ExperimentSpec(base=wb.SystemConfig(**MINIMAL), solver=wb.SolverOptions(),
                                 **fields)

    @pytest.mark.parametrize("field, value", [
        ("n_realizations", 2.5), ("n_realizations", True), ("n_realizations", "3"),
        ("n_realizations", 0), ("parallel_workers", 1.5), ("parallel_workers", True),
        ("parallel_workers", -1), ("output_dir", 5), ("output_dir", None),
    ])
    def test_bad_field_named_on_construction_and_replace(self, field, value):
        with pytest.raises(ConfigError, match=field):
            self._spec(**{field: value})
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(self._spec(), **{field: value})

    def test_integral_floats_accepted_as_int(self):
        spec = self._spec(n_realizations=3.0, parallel_workers=np.int64(2))
        assert (spec.n_realizations, spec.parallel_workers) == (3, 2)
        assert type(spec.n_realizations) is int and type(spec.parallel_workers) is int

    @pytest.mark.parametrize("sweep", [
        {"K": [2, 4]}, [["K", [2, 4]]], (("K", (2.0, 4.0)),),
    ])
    def test_sweep_forms_agree(self, sweep):
        assert self._spec(sweep=sweep).sweep == (("K", (2.0, 4.0)),)

    def test_no_sweep(self):
        assert self._spec(sweep=None).sweep == () == self._spec().sweep

    @pytest.mark.parametrize("text", [
        '{"M": 8, "N": 2, "K": 3, "K": 5, "d": 2, "snr_db": 10}',
        '{"M": 8, "N": 2, "K": 3, "d": 2, "snr_db": 10, "sweep": {"K": [2, 4], "K": [5]}}',
    ], ids=["top_level", "sweep_object"])
    def test_repeated_key_rejected(self, text):
        with pytest.raises(ConfigError, match="'K' is repeated"):
            wb.parse_experiment(text)

    def test_json_keys_are_the_dataclass_fields(self):
        # "base" and "solver" are the two nested fields, not keys.
        for key in ("base", "solver"):
            with pytest.raises(ConfigError, match=key):
                wb.parse_experiment(spec_text(**{key: {}}))

    def test_summary_spec_is_the_spec_field_by_field(self, tmp_path):
        spec = wb.parse_experiment(spec_text(n_realizations=1, max_iters=5,
                                             sweep={"snr_db": [0, 10]}))
        summary = wb.run_experiment(dataclasses.replace(spec, output_dir=tmp_path,
                                                        parallel_workers=1))
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert set(doc["spec"]) == {f.name for f in dataclasses.fields(wb.ExperimentSpec)}
        assert doc["spec"]["sweep"] == [["snr_db", [0.0, 10.0]]]
        assert doc["spec"]["output_dir"] == str(tmp_path)
        point_fields = {f.name for f in dataclasses.fields(type(summary.points[0]))}
        assert set(doc["points"][0]) == (
            point_fields - {"wall_time_mean", "wall_time_std"} | {"convergence_rate"})
