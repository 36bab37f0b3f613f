import json

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

    def test_table_defaults_at_snr20(self):
        spec = wb.parse_experiment(spec_text(snr_db=20, algorithm="ammmse"))
        assert spec.solver.gamma == 0.003
        assert spec.solver.omega == 0.8

    def test_table_defaults_at_snr10(self):
        spec = wb.parse_experiment(spec_text(algorithm="ammmse"))
        assert (spec.solver.omega, spec.solver.gamma) == (0.8, 0.05)

    def test_explicit_gamma_kept(self):
        spec = wb.parse_experiment(spec_text(algorithm="ammmse", gamma=0.2, omega=0.1))
        assert spec.solver.gamma == 0.2 and spec.solver.omega == 0.1

    def test_snr_sweep_defers_step_resolution(self):
        spec = wb.parse_experiment(spec_text(algorithm="ammmse",
                                             sweep={"snr_db": [0, 10]}))
        assert spec.solver.gamma is None and spec.solver.omega is None

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
])
def test_wrongly_typed_value_named(field, value):
    with pytest.raises(ConfigError, match=field):
        wb.parse_experiment(spec_text(algorithm="ammmse", **{field: value}))


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


class TestRunExperiment:
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

    def test_parallel_matches_serial(self, tmp_path):
        import dataclasses
        spec = wb.parse_experiment(spec_text(n_realizations=3, max_iters=60))
        serial = dataclasses.replace(spec, output_dir=tmp_path / "serial", parallel_workers=1)
        parallel = dataclasses.replace(spec, output_dir=tmp_path / "par", parallel_workers=3)
        wb.run_experiment(serial)
        wb.run_experiment(parallel)
        for r in range(3):
            name = f"wmmse_base_seed{r}.csv"
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "par" / name).read_bytes())

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
