import dataclasses
import math

import mpmath
import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam import objective, solvers
from wsrbeam.errors import ConfigError, UnstableParametersError
from wsrbeam.model import total_power
from wsrbeam.objective import (flatten_users, mmse_gain, mmse_pass, precoder_factor, received,
                               split_users, weighted_gram)

from conftest import make_system, mmse_blocks


def random_feasible(rng, cfg):
    v = (rng.standard_normal((cfg.K, cfg.M, cfg.d))
         + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d)))
    return wb.project_sum_power(wb.PrecoderSet(v), cfg.p_max)


def subproblem_targets(cfg, ch, receivers, wmats):
    alpha = cfg.weight_vector
    return np.stack([
        alpha[k] * (ch.channels[k].conj().T @ receivers[k] @ wmats[k])
        for k in range(cfg.K)
    ])


class TestSolverOptions:
    def test_eps_ordering_enforced(self):
        with pytest.raises(ConfigError):
            wb.SolverOptions(eps1=1e-4, eps2=1e-3)

    def test_omega_range(self):
        with pytest.raises(ConfigError):
            wb.SolverOptions(omega=1.0)
        with pytest.raises(ConfigError):
            wb.SolverOptions(omega=-0.1)

    def test_gamma_safe_sentinel(self):
        opts = wb.SolverOptions(gamma=wb.GAMMA_SAFE)
        assert opts.gamma == wb.GAMMA_SAFE
        with pytest.raises(ConfigError):
            wb.SolverOptions(gamma="fast")
        with pytest.raises(ConfigError):
            wb.SolverOptions(gamma=-0.1)

    @pytest.mark.parametrize("value", [2.5, 0, True, "50"])
    def test_max_iters_must_be_a_positive_integer(self, value):
        with pytest.raises(ConfigError, match="max_iters"):
            wb.SolverOptions(max_iters=value)

    @pytest.mark.parametrize("field, value", [
        ("gamma", True), ("gamma", [1]), ("omega", "abc"), ("omega", False), ("omega", None),
        ("eps1", "0.5"), ("eps2", True),
    ])
    def test_real_fields_reject_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            wb.SolverOptions(**{field: value})

    def test_max_iters_accepts_numpy_integers(self):
        opts = wb.SolverOptions(max_iters=np.int64(50))
        assert opts.max_iters == 50 and type(opts.max_iters) is int


class TestUpdateReceivers:
    def test_zero_precoders_zero_receivers(self, small_system):
        cfg, ch = small_system
        v = wb.PrecoderSet(np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex))
        u = wb.update_receivers(ch, v, ch.noise_power)
        np.testing.assert_array_equal(u, 0.0)

    def test_scalar_diagonal_case(self):
        # K=1, H=I, V=v I, sigma^2=1 -> U = v/(v^2+1) I
        d, v_scale = 3, 1.7
        h = np.eye(d, dtype=complex)[None]
        ch = wb.ChannelSet(h, noise_power=1.0)
        v = wb.PrecoderSet(v_scale * np.eye(d, dtype=complex)[None])
        u = wb.update_receivers(ch, v, 1.0)
        expected = (v_scale / (v_scale ** 2 + 1.0)) * np.eye(d)
        np.testing.assert_allclose(u[0], expected, atol=1e-12)

    def test_stationarity_by_finite_differences(self, small_system):
        # Gradient of f in U vanishes at the returned receivers.
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(20), cfg)
        u = wb.update_receivers(ch, v, ch.noise_power)
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        h = 1e-6
        base = u
        worst = 0.0
        for idx in [(0, 0, 0), (1, 1, 1), (2, 0, 1)]:
            for unit in (1.0, 1.0j):
                up = base.copy()
                dn = base.copy()
                up[idx] += h * unit
                dn[idx] -= h * unit
                hv = wb.received(ch, v)
                fp = wb.wmmse_objective(up, eye, hv, cfg.weight_vector, ch.noise_power)
                fm = wb.wmmse_objective(dn, eye, hv, cfg.weight_vector, ch.noise_power)
                worst = max(worst, abs(fp - fm) / (2 * h))
        assert worst < 1e-8

    def test_receiver_norm_bound(self):
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=4, d=2)
            v = random_feasible(np.random.default_rng(seed), cfg)
            u = wb.update_receivers(ch, v, ch.noise_power)
            for k in range(cfg.K):
                norm2 = float(np.real(np.vdot(u[k], u[k])))
                assert norm2 <= cfg.d / ch.noise_power + 1e-9


class TestUpdateWeightMatrices:
    def test_zero_precoders_identity(self, small_system):
        # No own signal: the gain is exactly zero, so W is exactly I and every
        # rate exactly 0.
        cfg, ch = small_system
        v = wb.PrecoderSet(np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex))
        w = wb.update_weight_matrices(ch, v, ch.noise_power)
        assert np.array_equal(w, np.tile(np.eye(cfg.d), (cfg.K, 1, 1)))
        assert np.array_equal(wb.user_rates(ch, v, ch.noise_power), np.zeros(cfg.K))

    def test_inverse_identity_at_mmse_point(self):
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=3, d=2)
            v = random_feasible(np.random.default_rng(seed), cfg)
            u, w = mmse_blocks(ch, v)
            mse = wb.mse_matrix(wb.received(ch, v), u, ch.noise_power)
            for k in range(cfg.K):
                e = mse[k]
                assert np.linalg.norm(w[k] @ e - np.eye(cfg.d)) < 1e-8

    def test_scalar_case(self):
        d, v_scale = 2, 1.3
        h = np.eye(d, dtype=complex)[None]
        ch = wb.ChannelSet(h, noise_power=1.0)
        v = wb.PrecoderSet(v_scale * np.eye(d, dtype=complex)[None])
        w = wb.update_weight_matrices(ch, v, 1.0)
        np.testing.assert_allclose(w[0],
                                   (1 + v_scale ** 2) * np.eye(d), rtol=1e-12)


class TestProjectSumPower:
    def test_feasible_input_unchanged(self):
        v = 0.1 * np.ones((2, 3, 1), dtype=complex)
        assert wb.project_sum_power(v, 10.0) is v

    def test_four_x_power_halved(self):
        v = np.zeros((1, 2, 1), dtype=complex)
        v[0, 0, 0] = 2.0
        out = wb.project_sum_power(wb.PrecoderSet(v), 1.0)
        np.testing.assert_array_equal(out, v / 2.0)

    def test_scaled_branch_hits_budget(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            v = wb.PrecoderSet(5.0 * (rng.standard_normal((3, 4, 2))
                                      + 1j * rng.standard_normal((3, 4, 2))))
            p_max = float(rng.uniform(0.5, 5.0))
            out = wb.project_sum_power(v, p_max)
            assert total_power(out) == pytest.approx(p_max, rel=1e-12)

    def test_scaled_branch_never_overshoots(self):
        # Scaling by sqrt(p_max / power) alone rounds above p_max on about
        # three in ten of these draws.
        rng = np.random.default_rng(27)
        over = 0
        for _ in range(20000):
            v = wb.PrecoderSet(rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2)))
            p_max = float(rng.uniform(0.1, 10.0))
            over += total_power(wb.project_sum_power(v, p_max)) > p_max
        assert over == 0


class TestBisectDual:
    def test_interior_optimum_returns_lambda_zero(self):
        rng = np.random.default_rng(23)
        m = 5
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = x @ x.conj().T + m * np.eye(m)
        b = 0.1 * (rng.standard_normal((2, m, 1)) + 1j * rng.standard_normal((2, m, 1)))
        direct = np.linalg.solve(gram, b.transpose(1, 0, 2).reshape(m, 2))
        p_max = 2.0 * float(np.real(np.vdot(direct, direct)))
        res = wb.bisect_dual(gram, b, p_max)
        assert res.lam == 0.0 and res.converged
        assert total_power(res.precoders) <= p_max

    def test_scalar_closed_form(self):
        # A = a, B = b, p_max < (b/a)^2:  lam = |b|/sqrt(p_max) - a
        a, b, p_max = 2.0, 3.0, 0.25
        res = wb.bisect_dual(np.array([[a + 0j]]), np.array([[[b + 0j]]]), p_max)
        expected = abs(b) / math.sqrt(p_max) - a
        assert res.lam == pytest.approx(expected, abs=1e-9)
        assert total_power(res.precoders) == pytest.approx(p_max, rel=1e-6)

    def test_active_constraint_power(self):
        rng = np.random.default_rng(24)
        for seed in range(8):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2, p_max=1.0)
            v = random_feasible(rng, cfg)
            u, w = mmse_blocks(ch, v)
            gram = weighted_gram(ch, u, w, cfg.weight_vector)
            targets = subproblem_targets(cfg, ch, u, w)
            res = wb.bisect_dual(gram, targets, cfg.p_max)
            if res.lam > 0:
                assert cfg.p_max * (1 - 1e-3) <= total_power(res.precoders) <= cfg.p_max
            else:
                assert total_power(res.precoders) <= cfg.p_max

    def test_zero_targets(self):
        gram = np.zeros((3, 3), dtype=complex)
        b = np.zeros((2, 3, 1), dtype=complex)
        res = wb.bisect_dual(gram, b, 1.0)
        assert res.lam == 0.0 and total_power(res.precoders) == 0.0

    def test_singular_gram_interior_falls_back_to_least_squares(self):
        # rank-1 PSD gram with consistent targets and a generous budget:
        # bisection cannot reach the power band, the min-norm solution wins.
        u = np.array([1.0, 1.0j, 0.0])[:, None]
        gram = u @ u.conj().T
        b = (0.2 * u @ np.ones((1, 1)))[None]  # in range(gram)
        res = wb.bisect_dual(gram, b, p_max=100.0)
        assert res.lam == 0.0 and res.converged
        expected = 0.1 * u  # gram^+ b
        np.testing.assert_allclose(res.precoders[0], expected, atol=1e-8)

    @staticmethod
    def _subproblem(M, K, seed):
        """The M x M gram and the targets of the precoder subproblem at a
        random feasible point of an N = d = 2 system."""
        cfg, ch = make_system(seed=seed, M=M, N=2, K=K, d=2)
        u, w = mmse_blocks(ch, random_feasible(np.random.default_rng(seed), cfg))
        return weighted_gram(ch, u, w, cfg.weight_vector), subproblem_targets(cfg, ch, u, w)

    @staticmethod
    def _reference_lambda(gram, targets, p_max):
        """The root of sum_i c_i / (s_i + lam)^2 = p_max (1 - 1e-13) in 50
        digits, from mpmath's own eigendecomposition of the gram."""
        with mpmath.workdps(50):
            s, e = mpmath.eighe(mpmath.matrix(gram.tolist()))
            c = e.transpose_conj() * mpmath.matrix(flatten_users(targets).tolist())
            weight = [sum(abs(c[i, j]) ** 2 for j in range(c.cols)) for i in range(c.rows)]
            target = mpmath.mpf(p_max) * (1 - mpmath.mpf("1e-13"))
            lo, hi = mpmath.mpf(0), mpmath.sqrt(sum(weight) / target)
            for _ in range(200):  # P(lam) decreases in lam
                mid = (lo + hi) / 2
                if sum(wi / (si + mid) ** 2 for si, wi in zip(s, weight)) > target:
                    lo = mid
                else:
                    hi = mid
            return float((lo + hi) / 2)

    # K*d < M: the M x M gram has rank K*d, so the solve drops its null space;
    # K*d > M: the gram has full rank.
    @pytest.mark.parametrize("M, K", [(12, 3), (6, 4)])
    def test_active_lambda_matches_high_precision_root(self, M, K):
        for seed in range(2):
            gram, targets = self._subproblem(M, K, seed)
            for p_max in (0.1, 1.0, 10.0):
                res = wb.bisect_dual(gram, targets, p_max)
                assert res.converged and res.lam > 0, (seed, p_max)
                ref = self._reference_lambda(gram, targets, p_max)
                assert res.lam == pytest.approx(ref, rel=1e-12, abs=0.0), (seed, p_max)
                assert p_max * (1 - 1e-12) <= total_power(res.precoders) <= p_max, (seed, p_max)

    @pytest.mark.parametrize("M, K", [(12, 3), (6, 4)])
    def test_inactive_constraint_returns_minimum_norm_answer(self, M, K):
        gram, targets = self._subproblem(M, K, 0)
        res = wb.bisect_dual(gram, targets, 1e6)
        assert res.lam == 0.0 and res.converged and res.iterations == 0
        expected = np.linalg.pinv(gram, hermitian=True) @ flatten_users(targets)
        got = flatten_users(res.precoders)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestUpdatePrecodersExact:
    def test_zero_receivers_zero_precoders(self, small_system):
        cfg, ch = small_system
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        out = wb.update_precoders_exact(ch, u, eye, cfg.weight_vector, cfg.p_max)
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_weights_equal_explicit_identity(self, small_system):
        # The unweighted (warm-start) precoder update is literally the same
        # code path as the weighted one called with identity weights.
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(25), cfg)
        u = wb.update_receivers(ch, v, ch.noise_power)
        eye_a = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        eye_b = wb.WeightMatrixSet(np.tile(np.eye(cfg.d, dtype=complex), (cfg.K, 1, 1)))
        out_a = wb.update_precoders_exact(ch, u, eye_a, cfg.weight_vector, cfg.p_max)
        out_b = wb.update_precoders_exact(ch, u, eye_b, cfg.weight_vector, cfg.p_max)
        assert out_a.tobytes() == out_b.tobytes()

    def test_matches_reference_solver(self):
        for seed in range(6):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=4, d=2, p_max=2.0)
            v = random_feasible(np.random.default_rng(seed), cfg)
            u, w = mmse_blocks(ch, v)
            out = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, cfg.p_max)
            gram = weighted_gram(ch, u, w, cfg.weight_vector)
            targets = subproblem_targets(cfg, ch, u, w)
            ref = wb.reference_subproblem_solver(gram, targets, cfg.p_max, tol=1e-10)
            assert ref.converged
            rel = (np.linalg.norm(out - ref.precoders.precoders)
                   / np.linalg.norm(ref.precoders.precoders))
            assert rel < 1e-4

    def test_exact_beats_long_pgd_on_subproblem(self, small_system):
        # Exact minimization dominates 1000 inexact steps with U, W frozen.
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(26), cfg)
        u, w = mmse_blocks(ch, v)
        bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        exact = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, cfg.p_max)
        iterate = v
        for _ in range(1000):
            iterate = wb.pgd_precoder_step(iterate, u, w, ch, cfg.weight_vector,
                                           bounds.gamma_safe, cfg.p_max)
        f_exact, f_pgd = (wb.wmmse_objective(u, w, wb.received(ch, x), cfg.weight_vector,
                                             ch.noise_power) for x in (exact, iterate))
        assert f_exact <= f_pgd + 1e-6


def qr_route_update(channels, receivers, weight_matrices, weights, p_max):
    """The exact update through a thin QR of F = [H_1^H U_1 ... H_K^H U_K]:
    with F = Q R, V = Q X, where X solves the subproblem with gram R D R^H
    and targets R D, D = blockdiag(alpha_k W_k).  A reference route that
    shares only ``bisect_dual`` with ``update_precoders_exact``."""
    f, dmat = precoder_factor(channels, receivers, weight_matrices, weights)
    q, r = np.linalg.qr(f)
    rd = r @ dmat
    K, d = np.asarray(weight_matrices).shape[:2]
    return q @ wb.bisect_dual(rd @ r.conj().T, split_users(rd, K, d), p_max).precoders


# (M, K) at N = d = 2: K d < M, K d = M and K d > M; at K d > M the factor
# F L of the subproblem has rank M < K d.
@pytest.mark.parametrize("M, K", [(128, 4), (12, 2), (6, 3), (4, 3), (12, 8), (24, 16)])
@pytest.mark.parametrize("snr_db", [-40.0, 10.0, 60.0])
@pytest.mark.parametrize("p_max", [0.1, 10.0, 1000.0])
def test_exact_update_matches_qr_route(M, K, snr_db, p_max):
    # Against the QR route within 1e-12 relative, a tolerance fixed in
    # advance, and never above the power budget.
    for seed in range(4):
        cfg, ch = make_system(seed=seed, M=M, N=2, K=K, d=2, snr_db=snr_db, p_max=p_max)
        u, w = mmse_blocks(ch, random_feasible(np.random.default_rng(seed + 40), cfg))
        out = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, p_max)
        ref = qr_route_update(ch, u, w, cfg.weight_vector, p_max)
        assert total_power(out) <= p_max, (seed, total_power(out) / p_max - 1.0)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref), seed


def high_precision_update(cfg, ch, u, w):
    """The exact update in 40 digits: mpmath's eigendecomposition of
    A = F D F^H, eigenvalues at or below n eps s_max dropped, lam by bisection
    on P(lam) = p_max (1 - 1e-13) when P(0) > p_max, and
    V = E diag(1 / (s + lam)) E^H F D."""
    f, dmat = precoder_factor(ch, u, w, cfg.weight_vector)
    with mpmath.workdps(40):
        fm = mpmath.matrix(f.tolist())
        a = fm * mpmath.matrix(dmat.tolist()) * fm.transpose_conj()
        s, e = mpmath.eighe((a + a.transpose_conj()) / 2)
        keep = [i for i in range(a.rows) if s[i] > a.rows * 2.0 ** -52 * max(s)]
        e = mpmath.matrix([[e[r, i] for i in keep] for r in range(a.rows)])
        s = [s[i] for i in keep]
        c = e.transpose_conj() * fm * mpmath.matrix(dmat.tolist())
        weight = [sum(abs(c[i, j]) ** 2 for j in range(c.cols)) for i in range(c.rows)]

        def power(lam):
            return sum(wi / (si + lam) ** 2 for si, wi in zip(s, weight))

        lam = mpmath.mpf(0)
        if power(lam) > cfg.p_max:
            target = mpmath.mpf(cfg.p_max) * (1 - mpmath.mpf("1e-13"))
            lo, hi = mpmath.mpf(0), mpmath.sqrt(sum(weight) / target)
            for _ in range(200):
                lam = (lo + hi) / 2
                lo, hi = (lam, hi) if power(lam) > target else (lo, lam)
        for i, si in enumerate(s):
            for j in range(c.cols):
                c[i, j] /= si + lam
        v = np.array((e * c).tolist(), dtype=complex)
    return split_users(v, cfg.K, cfg.d)


@pytest.mark.parametrize("M, K", [(12, 2), (6, 3), (4, 3)])
@pytest.mark.parametrize("snr_db", [-40.0, 10.0, 60.0])
def test_rank_deficient_exact_update_matches_high_precision(M, K, snr_db):
    # One user's receivers zeroed, so F has two zero columns.  Against a
    # 40-digit solve within 1e-12 relative; that user's precoders vanish.
    # (The QR route misses this bound here: 2.4e-12 on M6/K3 at 60 dB.)
    for p_max in (0.1, 10.0, 1000.0):
        cfg, ch = make_system(seed=0, M=M, N=2, K=K, d=2, snr_db=snr_db, p_max=p_max)
        u, w = mmse_blocks(ch, random_feasible(np.random.default_rng(40), cfg))
        u[1] = 0.0
        out = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, p_max)
        ref = high_precision_update(cfg, ch, u, w)
        assert total_power(out) <= p_max, p_max
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref), p_max
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("M, K", [(8, 3), (32, 8)])
def test_mmse_pass_equals_separate_routes_bit_for_bit(M, K):
    # One Cholesky of the stacked covariances and one stacked solve give the
    # receivers and the gain byte for byte as mmse_receivers and mmse_gain,
    # for one (K, N, Kd) stack and for a (2, 3, K, N, Kd) batch of them.
    for snr_db in (-20.0, 10.0, 60.0):
        cfg, ch = make_system(seed=5, M=M, N=2, K=K, d=2, snr_db=snr_db)
        rng = np.random.default_rng(int(snr_db) + 100)
        vs = np.stack([random_feasible(rng, cfg) for _ in range(6)])
        for hv in (received(ch, vs[0]), received(ch, vs.reshape(2, 3, *vs.shape[1:]))):
            u, g = mmse_pass(hv, ch.noise_power)
            assert u.tobytes() == solvers.mmse_receivers(hv, ch.noise_power).tobytes()
            assert g.tobytes() == mmse_gain(hv, ch.noise_power).tobytes()


class TestPgdStep:
    def test_zero_gradient_fixed_point(self, small_system):
        cfg, ch = small_system
        # strictly inside the ball so the projection is the identity
        v = wb.PrecoderSet(0.9 * random_feasible(np.random.default_rng(27), cfg))
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        out = wb.pgd_precoder_step(v, u, eye, ch, cfg.weight_vector, 0.01, cfg.p_max)
        np.testing.assert_array_equal(out, v.precoders)

    def test_gamma_zero_is_projection(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(28)
        raw = wb.PrecoderSet(3.0 * (rng.standard_normal((cfg.K, cfg.M, cfg.d))
                                    + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d))))
        u, w = mmse_blocks(ch, wb.project_sum_power(raw, cfg.p_max))
        out = wb.pgd_precoder_step(raw, u, w, ch, cfg.weight_vector, 0.0, cfg.p_max)
        expected = wb.project_sum_power(raw, cfg.p_max)
        np.testing.assert_array_equal(out, expected)

    def test_line_search_step(self, small_system):
        # gamma=None steps to the minimizer of the subproblem's quadratic along
        # -G: ||G||^2 / (2 Re Tr(G^H A G)), A = F D F^H; no step when G = 0.
        cfg, ch = small_system
        alpha, big = cfg.weight_vector, 1e6 * cfg.p_max  # the projection stays inactive
        v = random_feasible(np.random.default_rng(41), cfg)
        u, w = mmse_blocks(ch, v)
        grad = wb.gradient_v(u, w, v, ch, alpha)
        a, g = weighted_gram(ch, u, w, alpha), flatten_users(grad)
        gamma = total_power(grad) / (2.0 * np.real(np.trace(g.conj().T @ a @ g)))
        out = wb.pgd_precoder_step(v, u, w, ch, alpha, None, big)
        np.testing.assert_allclose(out, v - gamma * grad, rtol=0, atol=1e-12 * np.abs(v).max())
        f = [wb.wmmse_objective(u, w, wb.received(ch, wb.pgd_precoder_step(v, u, w, ch, alpha,
                                                                            c * gamma, big)),
                                alpha, ch.noise_power) for c in (0.9, 1.0, 1.1)]
        assert f[1] < min(f[0], f[2])
        zero_u = np.zeros_like(u)
        out = wb.pgd_precoder_step(0.9 * v, zero_u, w, ch, alpha, None, cfg.p_max)
        np.testing.assert_array_equal(out, 0.9 * v)

    def test_safe_step_never_increases_f(self):
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2)
            bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            v = random_feasible(np.random.default_rng(seed + 40), cfg)
            u, w = mmse_blocks(ch, v)
            f0 = wb.wmmse_objective(u, w, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
            out = wb.pgd_precoder_step(v, u, w, ch, cfg.weight_vector,
                                       bounds.gamma_safe, cfg.p_max)
            f1 = wb.wmmse_objective(u, w, wb.received(ch, out), cfg.weight_vector, ch.noise_power)
            assert f1 <= f0 + 1e-9


class TestExtrapolate:
    def test_omega_zero(self, small_system):
        cfg, _ = small_system
        rng = np.random.default_rng(29)
        a = random_feasible(rng, cfg)
        b = random_feasible(rng, cfg)
        out = wb.extrapolate(a, b, 0.0)
        np.testing.assert_array_equal(out, a)

    def test_equal_iterates(self, small_system):
        cfg, _ = small_system
        a = random_feasible(np.random.default_rng(30), cfg)
        out = wb.extrapolate(a, a, 0.7)
        np.testing.assert_allclose(out, a, atol=0)

    def test_arithmetic(self):
        x = np.ones((1, 2, 1), dtype=complex)
        out = wb.extrapolate(wb.PrecoderSet(2 * x), wb.PrecoderSet(x), 0.5)
        np.testing.assert_allclose(out, 2.5 * x, atol=0)


class TestRunWmmse:
    def test_wsr_nondecreasing(self):
        for seed in range(4):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=4, d=2)
            res = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-4, max_iters=200))
            wsr = [r.wsr_bits for r in res.trace]
            for a, b in zip(wsr, wsr[1:]):
                assert b >= a - 1e-8

    def test_deterministic_traces(self, small_system):
        cfg, ch = small_system
        opts = wb.SolverOptions(eps2=1e-4)
        r1 = wb.solve(ch, cfg, opts)
        r2 = wb.solve(ch, cfg, opts)
        assert r1.trace == r2.trace
        assert r1.final_precoders.precoders.tobytes() == r2.final_precoders.precoders.tobytes()

    def test_descent_chain_per_iteration(self):
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=3, d=2)
            res = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-4))
            for rec in res.trace:
                assert rec.f_after_u >= rec.f_after_w - 1e-9
                assert rec.f_after_w >= rec.f_after_v - 1e-9

    def test_feasible_along_trace(self, small_system):
        cfg, ch = small_system
        res = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-4))
        for rec in res.trace:
            assert rec.total_power <= cfg.p_max * (1 + 1e-12)
        assert res.final_precoders.total_power() <= cfg.p_max * (1 + 1e-12)


class TestRunMmmse:
    def test_infinite_eps1_equals_wmmse(self, small_system):
        cfg, ch = small_system
        res_m = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE,
                                                   eps1=math.inf, eps2=1e-4))
        res_w = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-4))
        assert res_m.trace == res_w.trace
        np.testing.assert_array_equal(res_m.final_precoders.precoders,
                                      res_w.final_precoders.precoders)
        assert all(rec.stage is wb.Stage.WEIGHTED for rec in res_m.trace)

    def test_switch_then_stop_when_thresholds_equal(self):
        for seed in range(4):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=4, d=2)
            eps = 1e-3
            res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE,
                                                     eps1=eps, eps2=eps, max_iters=500))
            stages = [rec.stage for rec in res.trace]
            assert res.switch_iteration is not None
            # the stage flips exactly once the eps1 test first passes...
            rels = [rec.rel_change for rec in res.trace]
            first_pass = next(t for t in range(2, len(rels) + 1) if rels[t - 1] <= eps) + 1
            assert res.switch_iteration == first_pass
            # ...and at least one weighted iteration runs before termination
            assert stages[-1] is wb.Stage.WEIGHTED
            assert sum(s is wb.Stage.WEIGHTED for s in stages) >= 1

    def test_stage_latched_and_recorded(self, small_system):
        cfg, ch = small_system
        res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE, eps2=1e-4))
        values = [rec.stage.value for rec in res.trace]
        assert values == sorted(values)  # never flips back under the latch


class TestRunAmmmse:
    def test_safe_step_regime_monotone(self):
        # omega=0, gamma=gamma_safe, eps1=inf: f never increases and the
        # per-iteration block chain is ordered.
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2)
            opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=wb.GAMMA_SAFE,
                                    omega=0.0, eps1=math.inf, eps2=1e-3, max_iters=2000)
            res = wb.solve(ch, cfg, opts)
            f_prev = math.inf
            for rec in res.trace:
                assert rec.f_after_u >= rec.f_after_w - 1e-9
                assert rec.f_after_w >= rec.f_after_v - 1e-9
                assert rec.f_after_v <= f_prev + 1e-9
                f_prev = rec.f_after_v

    def test_matches_exact_solvers_final_wsr(self):
        devs = []
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=32, N=2, K=8, d=2)
            w = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-3, max_iters=2000))
            a = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE,
                                                   eps2=1e-3, max_iters=4000))
            devs.append(abs(a.trace[-1].wsr_bits - w.trace[-1].wsr_bits) / w.trace[-1].wsr_bits)
        assert np.mean(devs) < 0.02

    def test_safe_step_resolved(self, small_system):
        # the solver swaps "safe" for the bounds report's gamma_safe
        safe = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=wb.GAMMA_SAFE,
                                omega=0.2, max_iters=20)
        cfg, ch = small_system
        bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        numeric = dataclasses.replace(safe, gamma=bounds.gamma_safe)
        assert wb.solve(ch, cfg, safe).trace == wb.solve(ch, cfg, numeric).trace

    def test_divergence_flagged(self):
        # Two users on the same channel at high SNR with an absurd step:
        # the WSR collapses from its early peak and stays down.
        rng = np.random.default_rng(3)
        h1 = (rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))) * np.sqrt(0.5)
        cfg = wb.SystemConfig(M=6, N=1, K=2, d=1, snr_db=30.0, channel_seed=0, init_seed=0)
        h = np.stack([h1, h1])
        ch = wb.ChannelSet(h, wb.compute_noise_power(h, cfg.snr_db, cfg))
        opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=1000.0, omega=0.9,
                                eps1=1e-8, eps2=1e-10, max_iters=300)
        with pytest.raises(UnstableParametersError, match=r"iteration \d+: .*gamma"):
            wb.solve(ch, cfg, opts)

    def test_divergence_names_the_line_search_step(self, monkeypatch):
        # A precoder update that collapses after its first step trips the same
        # guard under the default gamma=None; the message names that step.
        step, calls = solvers.pgd_precoder_step, []

        def collapsing(*args):
            calls.append(step(*args))
            return calls[-1] if len(calls) == 1 else 1e-3 * calls[-1]

        monkeypatch.setattr(solvers, "pgd_precoder_step", collapsing)
        cfg, ch = make_system(seed=0)
        with pytest.raises(UnstableParametersError,
                           match=r"iteration 6: .* under the line-search step, omega=0.5"):
            wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE))

    def test_no_false_exit_at_low_snr(self):
        # At -40 dB a step of fixed size is about 2000 times shorter than
        # gamma_safe: each iteration moved the WSR by 2e-4 relative, the stop
        # test fired after 3 iterations, at 8-12% of WMMSE's WSR.  The
        # line-search step scales with the problem.
        for seed in range(4):
            cfg = wb.SystemConfig(M=16, N=2, K=4, d=2, snr_db=-40.0,
                                  channel_seed=seed, init_seed=seed)
            ch = wb.generate_channels(cfg)
            w = wb.solve(ch, cfg, wb.SolverOptions())
            a = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE))
            assert a.trace[-1].wsr_bits >= 0.98 * w.trace[-1].wsr_bits, seed

    def test_no_two_cycle_at_tight_tolerance(self):
        # M32/K8 at 10 dB, seed 1, eps2 1e-4: a fixed step (omega 0.8, gamma
        # 0.05) alternated between two WSR values 1.75e-4 apart and ran to the
        # iteration cap.  With the restart the solve stops.
        cfg = wb.SystemConfig(M=32, N=2, K=8, d=2, snr_db=10.0, channel_seed=1, init_seed=1)
        ch = wb.generate_channels(cfg)
        opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, eps2=1e-4, max_iters=99)
        assert wb.solve(ch, cfg, opts).converged

    def test_iterate_norm_bounds_hold_along_trace(self):
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2)
            opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, eps2=1e-3, max_iters=4000)
            res = wb.solve(ch, cfg, opts)
            bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            report = wb.check_lemma_bounds(ch, res, bounds, cfg.weight_vector)
            assert report.passed, report.detail

    def test_every_stored_iterate_feasible(self):
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2)
            opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, eps2=1e-3, max_iters=4000)
            res = wb.solve(ch, cfg, opts)
            cap = cfg.p_max * (1 + 1e-12)
            assert all(rec.total_power <= cap for rec in res.trace)
            assert all(total_power(it.precoders) <= cap for it in res.iterates)

    def test_stationarity_at_tight_tolerance(self):
        cfg, ch = make_system(seed=1, M=16, N=2, K=4, d=2)
        opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=wb.GAMMA_SAFE,
                                omega=0.0, eps2=1e-6, max_iters=5000)
        res = wb.solve(ch, cfg, opts)
        assert res.converged
        assert res.stationarity_residual <= 1e-3


def test_non_finite_iterate_raises_numerical_error():
    # An absurd step overflows the first gradient step: the error names the
    # iteration and the block instead of blaming the input.
    cfg, ch = make_system(seed=0)
    opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=1e300)
    with pytest.raises(wb.NumericalError, match=r"iteration \d+: the precoder update"):
        wb.solve(ch, cfg, opts)


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
@pytest.mark.parametrize("field", ["N", "K", "M"])
def test_channels_must_match_config(algorithm, field):
    # Channels drawn for one system, solved under a config that differs in
    # one dimension: a ConfigError naming both shapes, not a silent solve or
    # a bare numpy error.
    dims = dict(M=8, N=2, K=3, d=2)
    _, ch = make_system(seed=0, **dims)
    dims[field] += 1
    cfg = wb.SystemConfig(**dims)
    with pytest.raises(ConfigError) as info:
        wb.solve(ch, cfg, wb.SolverOptions(algorithm=algorithm))
    assert str(ch.channels.shape) in str(info.value)
    assert str((cfg.K, cfg.N, cfg.M)) in str(info.value)


def test_block_functions_accept_containers_and_arrays(small_system):
    # np.asarray of a matrix set is its stack, so every block function gives
    # the same bytes on the sets and on their plain arrays.
    cfg, ch = small_system
    v = random_feasible(np.random.default_rng(31), cfg)
    vset = wb.PrecoderSet(v)
    assert np.asarray(vset) is vset.precoders
    assert np.asarray(ch) is ch.channels
    u = wb.update_receivers(ch.channels, v, ch.noise_power)
    assert u.tobytes() == wb.update_receivers(ch, vset, ch.noise_power).tobytes()
    w = wb.update_weight_matrices(ch.channels, v, ch.noise_power)
    uset, wset = wb.ReceiverSet(u), wb.WeightMatrixSet(w)
    assert w.tobytes() == wb.update_weight_matrices(ch, vset, ch.noise_power).tobytes()
    alpha = cfg.weight_vector
    exact = wb.update_precoders_exact(ch.channels, u, w, alpha, cfg.p_max)
    assert exact.tobytes() == wb.update_precoders_exact(ch, uset, wset, alpha, cfg.p_max).tobytes()
    step = wb.pgd_precoder_step(v, u, w, ch.channels, alpha, 0.01, cfg.p_max)
    assert step.tobytes() == wb.pgd_precoder_step(vset, uset, wset, ch, alpha, 0.01,
                                                  cfg.p_max).tobytes()
    for out in (u, w, exact, step):
        assert type(out) is np.ndarray


def test_recorded_iterates_carry_the_stage_flags():
    cfg, ch = make_system(seed=0, M=8, N=2, K=3, d=2)
    res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE))
    assert res.switch_iteration is not None and len(res.iterates) == res.iterations
    eye = np.broadcast_to(np.eye(cfg.d), (cfg.K, cfg.d, cfg.d))
    for rec, it in zip(res.trace, res.iterates):
        assert it.stage is rec.stage
        assert total_power(it.precoders) == rec.total_power
        if it.stage is wb.Stage.UNWEIGHTED:
            assert np.array_equal(it.weight_matrices, eye)
    assert res.iterates[-1].precoders.tobytes() == res.final_precoders.precoders.tobytes()


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
@pytest.mark.parametrize("seed, M, K", [(0, 8, 3), (2, 32, 8)])
def test_checkpoints_pair_with_the_returned_iterates(algorithm, seed, M, K):
    # Every row's objective checkpoints, rebuilt one iterate at a time from
    # the returned blocks: f_after_u at (U_t, W_{t-1}, Vhat_t), f_after_w at
    # (U_t, W_t, Vhat_t) and f_after_v at (U_t, W_t, V_t), with W_0 = I,
    # V_0 the projected initial draw and Vhat_t = V_{t-1} except for the
    # first-order driver's extrapolated point, which a fall in the WSR
    # restarts at V_{t-1} (three times on the M32/K8 system).  An off-by-one
    # in W_{t-1} or Vhat_t moves a checkpoint by far more than rounding.
    cfg, ch = make_system(seed=seed, M=M, N=2, K=K, d=2)
    options = wb.SolverOptions(algorithm=algorithm)
    res = wb.solve(ch, cfg, options)
    alpha, sigma2 = cfg.weight_vector, ch.noise_power
    v_old = v_prev = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
    w_prev = np.tile(np.eye(cfg.d, dtype=complex), (cfg.K, 1, 1))
    wsr_prev = -math.inf  # row 1 has no row before it to fall from
    assert len(res.iterates) == res.iterations == len(res.trace)
    for rec, it in zip(res.trace, res.iterates):
        v_hat = v_prev
        if algorithm == "ammmse" and v_old is not v_prev:
            v_hat = wb.extrapolate(v_prev, v_old, options.omega)
        u, w, v = it.receivers, it.weight_matrices, it.precoders
        expected = (wb.wmmse_objective(u, w_prev, wb.received(ch, v_hat), alpha, sigma2),
                    wb.wmmse_objective(u, w, wb.received(ch, v_hat), alpha, sigma2),
                    wb.wmmse_objective(u, w, wb.received(ch, v), alpha, sigma2))
        got = (rec.f_after_u, rec.f_after_w, rec.f_after_v)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), rec.t
        if rec.stage is wb.Stage.UNWEIGHTED:  # W_t = W_{t-1} = I
            assert rec.f_after_w == rec.f_after_u
        v_old, v_prev, w_prev = v if rec.wsr_bits < wsr_prev else v_prev, v, w
        wsr_prev = rec.wsr_bits


def _solve_outcome(channels, config, algorithm):
    """(iterations, final WSR in bits) of a default solve, or the error type."""
    try:
        res = wb.solve(channels, config, wb.SolverOptions(algorithm=algorithm))
    except wb.WsrbeamError as exc:
        return type(exc), None
    return res.iterations, res.trace[-1].wsr_bits


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
def test_unit_scaling_leaves_solve_unchanged(algorithm):
    # H -> cH with sigma^2 -> c^2 sigma^2 scales the receivers by 1/c and
    # leaves every precoder iterate, rate and step unchanged.
    for snr in (-40.0, 10.0, 60.0):
        for seed in range(8):
            cfg = wb.SystemConfig(M=16, N=2, K=4, d=2, snr_db=snr,
                                  channel_seed=seed, init_seed=seed)
            ch = wb.generate_channels(cfg)
            ch = ch.with_noise_power(wb.compute_noise_power(ch, snr, cfg))
            base = _solve_outcome(ch, cfg, algorithm)
            for c in (2.0, 1e-3, 1e3):
                scaled = wb.ChannelSet(c * ch.channels, noise_power=c * c * ch.noise_power)
                iterations, wsr = _solve_outcome(scaled, cfg, algorithm)
                assert iterations == base[0], (snr, seed, c)
                if wsr is not None:
                    assert wsr == pytest.approx(base[1], rel=1e-9), (snr, seed, c)


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
def test_receive_rotation_leaves_solve_unchanged(algorithm):
    # H_k -> Q_k H_k with Q_k unitary, one per user, and sigma^2 kept: a change
    # of each user's receive basis, which rotates the receivers and leaves the
    # weights, rates, precoders and A-MMMSE's step unchanged.
    options = wb.SolverOptions(algorithm=algorithm)
    worst = 0.0
    for M, K in ((8, 3), (16, 4), (32, 8)):
        for snr in (0.0, 10.0, 20.0):
            for seed in range(3):
                cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=snr,
                                      channel_seed=seed, init_seed=seed)
                ch = wb.generate_channels(cfg)
                rng = np.random.default_rng(seed + 80)
                x = rng.standard_normal((K, 2, 2)) + 1j * rng.standard_normal((K, 2, 2))
                rotated = wb.ChannelSet(np.linalg.qr(x)[0] @ ch.channels,
                                        noise_power=ch.noise_power)
                base = wb.solve(ch, cfg, options)
                moved = wb.solve(rotated, cfg, options)
                case = (M, K, snr, seed)
                assert moved.iterations == base.iterations, case
                assert moved.switch_iteration == base.switch_iteration, case
                assert moved.converged == base.converged, case
                assert moved.trace[-1].wsr_bits == pytest.approx(
                    base.trace[-1].wsr_bits, rel=1e-10, abs=0.0), case
                v, v_moved = base.final_precoders.precoders, moved.final_precoders.precoders
                worst = max(worst, float(np.linalg.norm(v_moved - v) / np.linalg.norm(v)))
    assert worst <= 1e-10


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
@pytest.mark.parametrize("M, K", [(8, 3), (32, 8), (4, 4), (64, 4)])
def test_loop_and_public_functions_share_one_route(algorithm, M, K, monkeypatch):
    # The loop takes the receivers, the weights and the stop test's rate from
    # one received stack per iterate, through the helpers the public functions
    # use, so each recorded block is the public function's value, byte for
    # byte.  Row t's blocks are taken at Vhat_t: V_{t-1}, with V_0 the
    # projected initial draw, or A-MMMSE's extrapolated point, unless row t-1's
    # WSR fell below row t-2's (the restart).  At M64/K4,
    # KN + Kd = 16 < M, so the loop runs on H Q and X = Q^H V_0 with Q the
    # subspace basis: its blocks are the public functions' there, each stored
    # iterate is Q X_t (to rounding: the map-back is one product over all
    # iterates), and the last row's rate is taken on the full channels.
    cfg, ch = make_system(seed=2, M=M, N=2, K=K, d=2)
    options = wb.SolverOptions(algorithm=algorithm)
    updates = []  # the loop's precoder updates X_t, in its own coordinates
    name = "pgd_precoder_step" if algorithm == "ammmse" else "update_precoders_exact"
    update = getattr(solvers, name)

    def recording(*args):
        updates.append(update(*args))
        return updates[-1]

    monkeypatch.setattr(solvers, name, recording)
    res = wb.solve(ch, cfg, options)
    sigma2 = ch.noise_power
    v0 = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
    q = solvers._subspace_basis(ch.channels, v0)
    assert (q is not None) == (2 * K + 2 * K < M)
    loop_ch = ch if q is None else wb.ChannelSet(ch.channels @ q, noise_power=sigma2)
    v_old = v_prev = v0 if q is None else q.conj().T @ v0
    wsr_prev = -math.inf  # row 1 has no row before it to fall from
    assert any(it.stage is wb.Stage.WEIGHTED for it in res.iterates)
    # The stationarity residual takes one more gradient step, after the loop.
    assert len(updates) == res.iterations + (algorithm == "ammmse")
    for rec, it, x in zip(res.trace, res.iterates, updates):
        v_hat = v_prev
        if algorithm == "ammmse" and v_old is not v_prev:
            v_hat = wb.extrapolate(v_prev, v_old, options.omega)
        u = wb.update_receivers(loop_ch, v_hat, sigma2)
        assert it.receivers.tobytes() == u.tobytes(), rec.t
        if it.stage is wb.Stage.WEIGHTED:
            w = wb.update_weight_matrices(loop_ch, v_hat, sigma2)
            assert it.weight_matrices.tobytes() == w.tobytes(), rec.t
        if q is None:
            assert it.precoders.tobytes() == x.tobytes(), rec.t
        else:
            assert np.linalg.norm(it.precoders - q @ x) <= 1e-14 * np.linalg.norm(x), rec.t
        if rec.t == res.iterations:
            snap = wb.weighted_sum_rate(ch, it.precoders, cfg.weight_vector)
        else:
            snap = wb.weighted_sum_rate(loop_ch, x, cfg.weight_vector)
        assert rec.wsr_bits == snap.wsr_bits, rec.t
        v_old, v_prev, wsr_prev = x if rec.wsr_bits < wsr_prev else v_prev, x, rec.wsr_bits


def test_one_received_stack_per_iterate(monkeypatch):
    # WMMSE and MMMSE form H_k [V_1 ... V_K] once at V_0 and once per new
    # iterate; A-MMMSE once at each Vhat_t (Vhat_1 = V_0) and once per new
    # iterate, less one for each of the R iterations that a fall in the WSR
    # restarts at V_{t-1}, whose pass they reuse.  Two more follow the loop:
    # the last row's rate and the stationarity residual's receivers; the
    # checkpoint pass reads the loop's stacks.  M32/K8 runs the loop in M
    # dimensions, M64/K4 in the KN + Kd = 16 of its subspace basis; the
    # counts are the same.  Of these A-MMMSE solves, M32/K8 at seed 2
    # restarts once.
    calls = []
    original = objective.received

    def counting(h, v):
        calls.append(np.shape(v))
        return original(h, v)

    monkeypatch.setattr(objective, "received", counting)
    monkeypatch.setattr(solvers, "received", counting)
    for M, K, seed in ((32, 8, 1), (64, 4, 1), (32, 8, 2)):
        cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=10.0, channel_seed=seed, init_seed=seed)
        ch = wb.generate_channels(cfg)
        for algorithm, per_iterate, fixed in (("wmmse", 1, 3), ("mmmse", 1, 3), ("ammmse", 2, 2)):
            calls.clear()
            res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=algorithm))
            assert res.iterations >= 5
            wsr = [rec.wsr_bits for rec in res.trace[:-1]]
            restarts = sum(b < a for a, b in zip(wsr, wsr[1:])) if algorithm == "ammmse" else 0
            assert len(calls) == per_iterate * res.iterations + fixed - restarts, (M, K, seed, algorithm)


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse"])
def test_factorizations_per_exact_solve(algorithm, monkeypatch):
    # No QR inside the loop: the one QR of a solve is the subspace basis,
    # taken when KN + Kd < M (M64/K4 here, not M32/K8 or M12/K8).  Two
    # Cholesky calls per iteration: the stacked MMSE pass at V_t and the
    # factor of alpha_k W_k in the precoder update.  Four more: the first
    # iteration's pass at V_0, and after the loop the last row's rate, the
    # stationarity residual's receivers and the checkpoints' ln det W.
    counts = {"qr": 0, "cholesky": 0}
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for M, K, seed in ((32, 8, 1), (64, 4, 1), (12, 8, 0)):
        cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=10.0, channel_seed=seed, init_seed=seed)
        ch = wb.generate_channels(cfg)
        counts.update(qr=0, cholesky=0)
        res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=algorithm))
        assert res.iterations >= 5
        assert counts == {"qr": int(K * 4 < M), "cholesky": 2 * res.iterations + 4}, (M, K)


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
def test_subspace_route_matches_full_route(algorithm, monkeypatch):
    # With KN + Kd < M (r = 8, 16 and 16 here) every iterate lies in
    # span([H^H, V_0]) and the loop runs in its basis.  Forcing the loop into
    # all M dimensions gives the same solve: the same counts and flags, and the
    # rate and the final precoders to rounding.  A-MMMSE also runs at 30 and
    # 40 dB, where its step is most sensitive to rounding.
    options = wb.SolverOptions(algorithm=algorithm)
    worst = 0.0
    snrs = (0.0, 10.0, 20.0) + ((30.0, 40.0) if algorithm == "ammmse" else ())
    for M, K in ((64, 2), (128, 4), (1024, 4)):
        for snr in snrs:
            for seed in range(3):
                cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=snr,
                                      channel_seed=seed, init_seed=seed)
                ch = wb.generate_channels(cfg)
                reduced = wb.solve(ch, cfg, options)
                with monkeypatch.context() as m:
                    m.setattr(solvers, "_subspace_basis", lambda h, v0: None)
                    full = wb.solve(ch, cfg, options)
                case = (M, K, snr, seed)
                assert reduced.iterations == full.iterations, case
                assert reduced.switch_iteration == full.switch_iteration, case
                assert reduced.converged == full.converged, case
                assert reduced.trace[-1].wsr_bits == pytest.approx(
                    full.trace[-1].wsr_bits, rel=1e-10, abs=0.0), case
                v, v_full = reduced.final_precoders.precoders, full.final_precoders.precoders
                worst = max(worst, float(np.linalg.norm(v - v_full) / np.linalg.norm(v_full)))
    assert worst <= 1e-10
