import dataclasses
import math

import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.errors import ConfigError

from conftest import make_system, mmse_blocks


class TestFiniteDiffGradient:
    def test_quadratic_is_exact(self):
        # Central differences are exact (up to roundoff) on a quadratic.
        rng = np.random.default_rng(31)
        c = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))

        def quadratic(v):
            x = v.precoders
            return float(np.real(np.vdot(x, x)) + 2.0 * np.real(np.vdot(c, x)))

        v0 = wb.PrecoderSet(rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2)))
        fd = wb.finite_diff_gradient(quadratic, v0, h=1e-5)
        expected = 2.0 * v0.precoders + 2.0 * c
        rel = np.linalg.norm(fd - expected) / np.linalg.norm(expected)
        assert rel < 1e-8

    def test_constant_objective_gives_zero(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(32)
        v = wb.PrecoderSet(rng.standard_normal((cfg.K, cfg.M, cfg.d))
                           + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d)))
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)

        def objective(vv):
            return wb.wmmse_objective(u, eye, vv, ch, cfg.weight_vector, ch.noise_power)

        fd = wb.finite_diff_gradient(objective, v)
        assert np.max(np.abs(fd)) < 1e-10

    def test_positive_step_required(self, small_system):
        cfg, _ = small_system
        v = wb.PrecoderSet(np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex))
        with pytest.raises(ConfigError):
            wb.finite_diff_gradient(lambda x: 0.0, v, h=0.0)


class TestReferenceSubproblemSolver:
    def test_interior_matches_direct_solve(self):
        rng = np.random.default_rng(33)
        m = 5
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = x @ x.conj().T + m * np.eye(m)
        b = 0.05 * (rng.standard_normal((2, m, 1)) + 1j * rng.standard_normal((2, m, 1)))
        direct = np.linalg.solve(gram, b.transpose(1, 0, 2).reshape(m, 2))
        p_max = 4.0 * float(np.real(np.vdot(direct, direct)))
        sol = wb.reference_subproblem_solver(gram, b, p_max, tol=1e-10)
        assert sol.converged
        got = sol.precoders.precoders.transpose(1, 0, 2).reshape(m, 2)
        np.testing.assert_allclose(got, direct, atol=1e-8)

    def test_scalar_closed_form(self):
        a, b, p_max = 2.0, 3.0, 0.25
        sol = wb.reference_subproblem_solver(np.array([[a + 0j]]), np.array([[[b + 0j]]]),
                                             p_max, tol=1e-12)
        # active ball: v = sqrt(p_max) in the direction of b
        assert sol.precoders.precoders[0, 0, 0] == pytest.approx(math.sqrt(p_max), abs=1e-6)

    def test_agrees_with_exact_update_objective(self):
        from wsrbeam.objective import weighted_gram
        for seed in range(4):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=4, d=2, p_max=2.0)
            rng = np.random.default_rng(seed)
            v = wb.project_sum_power(
                wb.PrecoderSet(rng.standard_normal((cfg.K, cfg.M, cfg.d))
                               + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d))), cfg.p_max)
            u, w = mmse_blocks(ch, v)
            gram = weighted_gram(ch, u, w, cfg.weight_vector)
            alpha = cfg.weight_vector
            targets = np.stack([alpha[k] * (ch.channels[k].conj().T @ u[k]
                                            @ w[k]) for k in range(cfg.K)])
            exact = wb.update_precoders_exact(ch, u, w, alpha, cfg.p_max)
            ref = wb.reference_subproblem_solver(gram, targets, cfg.p_max, tol=1e-10)

            def quad(vset):
                total = 0.0
                for k in range(cfg.K):
                    vk = np.asarray(vset)[k]
                    total += float(np.real(np.trace(vk.conj().T @ gram @ vk)))
                    total -= 2.0 * float(np.real(np.trace(targets[k].conj().T @ vk)))
                return total

            assert abs(quad(exact) - quad(ref.precoders)) < 1e-8


class TestSingleUserWaterfilling:
    def test_identity_channel_equal_power(self):
        d, p_max, sigma2 = 4, 8.0, 1.0
        rate, precoder = wb.single_user_waterfilling(np.eye(d, dtype=complex), p_max, sigma2)
        assert rate == pytest.approx(d * math.log(1 + p_max / d), rel=1e-12)
        powers = np.sum(np.abs(precoder) ** 2, axis=0)
        np.testing.assert_allclose(powers, p_max / d, rtol=1e-12)

    def test_tiny_budget_uses_top_mode_only(self):
        h = np.diag([10.0, 0.1]).astype(complex)
        rate, precoder = wb.single_user_waterfilling(h, p_max=1e-3, noise_power=1.0)
        powers = np.sum(np.abs(precoder) ** 2, axis=0)
        assert powers[0] == pytest.approx(1e-3, rel=1e-12)
        assert powers[1] == 0.0
        assert rate == pytest.approx(math.log(1 + 100.0 * 1e-3), rel=1e-12)

    def test_beats_random_feasible_precoders(self):
        rng = np.random.default_rng(34)
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=4, N=4, K=1, d=4)
            h = ch.channels[0]
            rate, _ = wb.single_user_waterfilling(h, cfg.p_max, ch.noise_power, d=cfg.d)
            for _ in range(100):
                v = wb.project_sum_power(
                    wb.PrecoderSet(rng.standard_normal((1, cfg.M, cfg.d))
                                   + 1j * rng.standard_normal((1, cfg.M, cfg.d))), cfg.p_max)
                assert rate >= wb.user_rate(h, v, ch.noise_power, 0) - 1e-9

    def test_budget_fully_used(self):
        rng = np.random.default_rng(35)
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        rate, precoder = wb.single_user_waterfilling(h, 2.0, 0.5, d=3)
        assert float(np.sum(np.abs(precoder) ** 2)) == pytest.approx(2.0, rel=1e-10)


class TestCheckLemmaBounds:
    def _solved(self, seed=0, algo=wb.Algorithm.WMMSE, **kwargs):
        cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2, **kwargs)
        opts = wb.SolverOptions(algorithm=algo, eps2=1e-3, max_iters=4000)
        res = wb.solve(ch, cfg, opts)
        bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        return cfg, ch, res, bounds

    def test_trivial_floor_with_zero_receivers(self, small_system):
        cfg, ch = small_system
        bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        v = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
        u0 = np.zeros((cfg.N, cfg.d), dtype=complex)
        e = wb.mse_matrix(ch.channels[0], u0, v, ch.noise_power, 0)
        assert np.linalg.eigvalsh(e)[0] == pytest.approx(1.0, abs=1e-12)
        assert 1.0 >= bounds.ek_floor

    def test_wmmse_trace_passes(self):
        cfg, ch, res, bounds = self._solved(seed=2)
        report = wb.check_lemma_bounds(ch, res, bounds, cfg.weight_vector)
        assert report.passed and report.max_rel_error == 0.0
        assert report.instances == res.iterations

    def test_corrupted_weights_fail_with_family_named(self):
        cfg, ch, res, bounds = self._solved(seed=3)
        bad_iterates = [it._replace(weight_matrices=it.weight_matrices * 1e6)
                        for it in res.iterates]
        corrupted = dataclasses.replace(res, iterates=tuple(bad_iterates))
        report = wb.check_lemma_bounds(ch, corrupted, bounds, cfg.weight_vector)
        assert not report.passed
        assert "weight_norm" in report.detail

    def test_requires_recorded_iterates(self, small_system):
        cfg, ch = small_system
        res = dataclasses.replace(wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-3)), iterates=())
        bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        with pytest.raises(ConfigError):
            wb.check_lemma_bounds(ch, res, bounds)


class TestOracleReport:
    def test_consistency_enforced(self):
        with pytest.raises(ConfigError):
            wb.OracleReport(name="x", max_abs_error=1.0, max_rel_error=1.0,
                            instances=1, passed=True, tolerance=1e-6)
