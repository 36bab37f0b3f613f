import dataclasses
import math

import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.errors import ConfigError
from wsrbeam.linalg import hermitianize
from wsrbeam.verify import _FD_CHUNK

from conftest import make_system, mmse_blocks, naive_mse_matrix


def reference_lemma_scan(channels, trace, bounds, weights=None):
    """The bound scan that :func:`wsrbeam.check_lemma_bounds` stacks, one
    iterate and one user at a time: a per-user MSE matrix and an M x M
    gradient factor per iterate, whose spectral norm comes from an SVD."""
    sigma2 = channels.noise_power
    h = channels.channels
    K = h.shape[0]
    d = np.asarray(trace.iterates[0].weight_matrices).shape[-1]
    limits = {
        "mse_eigenvalue_floor": bounds.ek_floor - 1e-9,
        "receiver_norm": d / sigma2 + 1e-9,
        "weight_norm": d / bounds.ek_floor ** 2 + 1e-6,
        "gradient_factor_norm": bounds.l_v + 1e-6,
    }
    worst = {name: -math.inf for name in limits}
    alpha = np.ones(K) if weights is None else np.asarray(weights, dtype=np.float64)
    for it in trace.iterates:
        u = np.asarray(it.receivers)
        w = np.asarray(it.weight_matrices)
        v = np.asarray(it.precoders)
        factor = np.zeros((h.shape[2], h.shape[2]), dtype=np.complex128)
        for k in range(K):
            e = naive_mse_matrix(h[k], u[k], v, sigma2, k)
            lam_min = float(np.linalg.eigvalsh(e)[0])
            worst["mse_eigenvalue_floor"] = max(worst["mse_eigenvalue_floor"],
                                                limits["mse_eigenvalue_floor"] - lam_min)
            u_norm2 = float(np.real(np.vdot(u[k], u[k])))
            worst["receiver_norm"] = max(worst["receiver_norm"], u_norm2 - limits["receiver_norm"])
            w_norm2 = float(np.real(np.vdot(w[k], w[k])))
            worst["weight_norm"] = max(worst["weight_norm"], w_norm2 - limits["weight_norm"])
            hu = h[k].conj().T @ u[k]
            factor += 2.0 * float(alpha[k]) * (hu @ w[k] @ hu.conj().T)
        f_norm = float(np.linalg.norm(hermitianize(factor), 2))
        worst["gradient_factor_norm"] = max(worst["gradient_factor_norm"],
                                            f_norm - limits["gradient_factor_norm"])
    violated = [name for name, excess in worst.items() if excess > 0.0]
    return wb.OracleReport(
        name="lemma_bounds",
        max_abs_error=max(0.0, max(worst.values())),
        max_rel_error=max([0.0] + [worst[name] / abs(limits[name]) for name in violated]),
        instances=len(trace.iterates),
        passed=not violated,
        tolerance=0.0,
        detail="" if not violated else "violated: " + ", ".join(sorted(violated)),
    )


class TestFiniteDiffGradient:
    def test_quadratic_is_exact(self):
        # Central differences are exact (up to roundoff) on a quadratic.
        rng = np.random.default_rng(31)
        c = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))

        def quadratic(x):
            # (B, K, M, d) stack -> B values
            return np.sum(np.abs(x) ** 2 + 2.0 * np.real(np.conj(c) * x), axis=(1, 2, 3))

        v0 = wb.PrecoderSet(rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2)))
        fd = wb.finite_diff_gradient(quadratic, v0, h=1e-5)
        expected = 2.0 * v0.precoders + 2.0 * c
        rel = np.linalg.norm(fd - expected) / np.linalg.norm(expected)
        assert rel < 1e-8

    def test_objective_receives_chunked_stacks(self):
        rng = np.random.default_rng(36)
        shape = (3, 5, 2)
        n = math.prod(shape)
        v0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        seen = []

        def objective(x):
            seen.append(x.shape)
            return np.sum(np.abs(x) ** 2, axis=(1, 2, 3))

        fd = wb.finite_diff_gradient(objective, v0)
        assert len(seen) <= math.ceil(4 * n / _FD_CHUNK)
        assert all(s[1:] == shape and s[0] <= _FD_CHUNK for s in seen)
        assert sum(s[0] for s in seen) == 4 * n
        np.testing.assert_allclose(fd, 2.0 * v0, rtol=1e-8)

    def test_constant_objective_gives_zero(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(32)
        v = wb.PrecoderSet(rng.standard_normal((cfg.K, cfg.M, cfg.d))
                           + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d)))
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)

        def objective(vv):
            return wb.wmmse_objective(u, eye, wb.received(ch, vv), cfg.weight_vector,
                                      ch.noise_power)

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
                assert rate >= wb.user_rates(ch, v, ch.noise_power)[0] - 1e-9

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
        u0 = np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex)
        e = wb.mse_matrix(wb.received(ch, v), u0, ch.noise_power)[0]
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


# (M, K, d): K*d below, at and above M, for d = 2 and d = 1.
_SCAN_SHAPES = [(16, 4, 2), (8, 4, 2), (6, 4, 2), (8, 4, 1), (4, 4, 1), (3, 4, 1)]

_CORRUPTIONS = {
    "clean": lambda it: it,
    "weights_scaled": lambda it: it._replace(weight_matrices=it.weight_matrices * 1e6),
    "weights_indefinite": lambda it: it._replace(weight_matrices=-it.weight_matrices),
    "receivers_scaled": lambda it: it._replace(receivers=it.receivers * 1e3),
    "precoders_scaled": lambda it: it._replace(precoders=it.precoders * 1e2),
    "precoders_up_receivers_down": lambda it: it._replace(precoders=it.precoders * 10.0,
                                                          receivers=it.receivers / 10.0),
}


@pytest.fixture(scope="module", params=_SCAN_SHAPES, ids=lambda s: "M{}_K{}_d{}".format(*s))
def two_stage_solve(request):
    M, K, d = request.param
    cfg, ch = make_system(seed=M + K + d, M=M, N=2, K=K, d=d,
                          weights=[1.0 + 0.25 * k for k in range(K)])
    res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE, eps2=1e-4))
    bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
    return cfg, ch, res, bounds


class TestStackedLemmaScan:
    @pytest.mark.parametrize("corrupted", ["all", "last"])
    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_matches_per_iterate_reference(self, two_stage_solve, corruption, corrupted):
        # "last" corrupts the final iterate only, which sits in the scan's
        # last chunk of iterates.
        cfg, ch, res, bounds = two_stage_solve
        assert {it.stage for it in res.iterates} == set(wb.Stage)
        first = 0 if corrupted == "all" else len(res.iterates) - 1
        trace = dataclasses.replace(res, iterates=res.iterates[:first] + tuple(
            _CORRUPTIONS[corruption](it) for it in res.iterates[first:]))
        got = wb.check_lemma_bounds(ch, trace, bounds, cfg.weight_vector)
        ref = reference_lemma_scan(ch, trace, bounds, cfg.weight_vector)
        assert (got.passed, got.detail, got.instances) == (ref.passed, ref.detail, ref.instances)
        assert got.max_abs_error == pytest.approx(ref.max_abs_error, rel=1e-12, abs=1e-12)
        assert got.max_rel_error == pytest.approx(ref.max_rel_error, rel=1e-12, abs=1e-12)
        if corruption in ("weights_scaled", "receivers_scaled", "precoders_up_receivers_down"):
            assert not got.passed


class TestOracleReport:
    def test_consistency_enforced(self):
        with pytest.raises(ConfigError):
            wb.OracleReport(name="x", max_abs_error=1.0, max_rel_error=1.0,
                            instances=1, passed=True, tolerance=1e-6)
