import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.errors import ConfigError, ObjectiveDomainError

from conftest import make_system, mmse_blocks, naive_mse_matrix, naive_user_rate


def random_feasible(rng, cfg):
    v = (rng.standard_normal((cfg.K, cfg.M, cfg.d))
         + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d)))
    return wb.project_sum_power(wb.PrecoderSet(v), cfg.p_max)


class TestMseMatrix:
    def test_zero_receiver_gives_identity(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(0), cfg)
        u0 = np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex)
        e = wb.mse_matrix(wb.received(ch, v), u0, ch.noise_power)[0]
        np.testing.assert_allclose(e, np.eye(cfg.d), atol=1e-14)

    def test_zero_precoders_leave_noise_term(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(1)
        u = rng.standard_normal((cfg.N, cfg.d)) + 1j * rng.standard_normal((cfg.N, cfg.d))
        v = wb.PrecoderSet(np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex))
        e = wb.mse_matrix(wb.received(ch, v), np.tile(u, (cfg.K, 1, 1)), ch.noise_power)[1]
        expected = np.eye(cfg.d) + ch.noise_power * (u.conj().T @ u)
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_matches_naive_expansion(self):
        rng = np.random.default_rng(2)
        for seed in range(8):
            cfg, ch = make_system(seed=seed, M=6, N=3, K=3, d=2)
            v = random_feasible(rng, cfg)
            u = rng.standard_normal((cfg.N, cfg.d)) + 1j * rng.standard_normal((cfg.N, cfg.d))
            k = seed % cfg.K
            e = wb.mse_matrix(wb.received(ch, v), np.tile(u, (cfg.K, 1, 1)), ch.noise_power)[k]
            expected = naive_mse_matrix(ch.channels[k], u, v, ch.noise_power, k)
            np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=4, d=2)
            v = random_feasible(rng, cfg)
            u = rng.standard_normal((cfg.N, cfg.d)) + 1j * rng.standard_normal((cfg.N, cfg.d))
            e = wb.mse_matrix(wb.received(ch, v), np.tile(u, (cfg.K, 1, 1)), ch.noise_power)[0]
            assert np.max(np.abs(e - e.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(e)[0] >= -1e-12


class TestUserRate:
    def test_zero_precoder_zero_rate(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(4)
        v = random_feasible(rng, cfg).copy()
        v[0] = 0.0
        assert wb.user_rates(ch, wb.PrecoderSet(v), ch.noise_power)[0] == 0.0

    def test_diagonal_single_user(self):
        # K=1, H = I, V = sqrt(p/d) I, sigma^2 = 1 -> R = d ln(1 + p/d)
        d, p = 3, 6.0
        h = np.eye(d, dtype=complex)
        v = np.sqrt(p / d) * np.eye(d, dtype=complex)
        rate = wb.user_rates(h[None], wb.PrecoderSet(v[None]), 1.0)[0]
        assert rate == pytest.approx(d * math.log(1 + p / d), rel=1e-12)

    def test_scalar_sinr_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.standard_normal((2, 1, 4)) + 1j * rng.standard_normal((2, 1, 4))
            v = rng.standard_normal((2, 4, 1)) + 1j * rng.standard_normal((2, 4, 1))
            sigma2 = float(rng.uniform(0.1, 2.0))
            for k in range(2):
                j = 1 - k
                sig = abs(h[k, 0] @ v[k, :, 0]) ** 2
                interf = abs(h[k, 0] @ v[j, :, 0]) ** 2
                expected = math.log(1 + sig / (interf + sigma2))
                got = wb.user_rates(h, wb.PrecoderSet(v), sigma2)[k]
                assert got == pytest.approx(expected, rel=1e-12)


class TestWeightedSumRate:
    def test_all_zero(self, small_system):
        cfg, ch = small_system
        v = wb.PrecoderSet(np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex))
        snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
        assert snap.wsr_nats == 0.0 and snap.wsr_bits == 0.0

    def test_single_user_degenerate_sum(self):
        cfg, ch = make_system(seed=6, M=4, N=2, K=1, d=2, weights=(2.5,))
        v = random_feasible(np.random.default_rng(6), cfg)
        snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
        rate = wb.user_rates(ch, v, ch.noise_power)[0]
        assert snap.wsr_nats == pytest.approx(2.5 * rate, rel=1e-14)

    def test_decomposes_user_by_user(self):
        cfg, ch = make_system(seed=7, M=6, N=2, K=3, d=2, weights=(0.5, 1.0, 2.0))
        v = random_feasible(np.random.default_rng(7), cfg)
        snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
        expected = sum(cfg.weights[k] * naive_user_rate(ch.channels[k], v, ch.noise_power, k)
                       for k in range(cfg.K))
        assert snap.wsr_nats == pytest.approx(expected, rel=1e-12)

    def test_bits_nats_ratio(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(8), cfg)
        snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
        assert snap.wsr_bits == pytest.approx(snap.wsr_nats / math.log(2), rel=1e-12)


@pytest.mark.parametrize("K", [1, 3, 16])
@pytest.mark.parametrize("d", [1, 2])
def test_stacked_route_matches_per_user_references(K, d):
    # The stacked rates and MSE matrices against the explicit per-user loops,
    # at MMSE receivers and at arbitrary receivers with non-identity weights.
    rng = np.random.default_rng(100 * K + d)
    weights = tuple(float(a) for a in rng.uniform(0.5, 2.0, K))
    for seed in range(3):
        cfg, ch = make_system(seed=seed, M=8, N=2, K=K, d=d, weights=weights)
        v = random_feasible(rng, cfg)
        h = ch.channels
        snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
        expected = sum(weights[k] * naive_user_rate(h[k], v, ch.noise_power, k)
                       for k in range(K))
        assert snap.wsr_nats == pytest.approx(expected, rel=1e-12)

        mmse_u, mmse_w = mmse_blocks(ch, v)
        x = rng.standard_normal((K, d, d)) + 1j * rng.standard_normal((K, d, d))
        random_u = rng.standard_normal((K, cfg.N, d)) + 1j * rng.standard_normal((K, cfg.N, d))
        random_w = x @ x.conj().transpose(0, 2, 1) + np.eye(d)
        for u, w in ((mmse_u, mmse_w), (random_u, random_w)):
            f = wb.wmmse_objective(u, w, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
            expected = sum(
                weights[k] * (np.trace(w[k] @ naive_mse_matrix(h[k], u[k], v,
                                                                ch.noise_power, k)).real
                              - np.linalg.slogdet(w[k])[1])
                for k in range(K))
            assert f == pytest.approx(expected, rel=1e-12)

        # A (T, K, ., .) stack of blocks gives one objective per slice.
        us, ws = np.stack([mmse_u, random_u]), np.stack([mmse_w, random_w])
        vs = np.stack([v, 0.5 * v])
        batched = wb.wmmse_objective(us, ws, wb.received(ch, vs), cfg.weight_vector, ch.noise_power)
        assert batched.shape == (2,)
        for t in range(2):
            single = wb.wmmse_objective(us[t], ws[t], wb.received(ch, vs[t]), cfg.weight_vector,
                                        ch.noise_power)
            assert batched[t] == pytest.approx(single, rel=1e-14, abs=0.0)

        # A (T, K, M, d) stack of precoders gives one set of weights per slice.
        batched = wb.update_weight_matrices(ch, vs, ch.noise_power)
        assert batched.shape == (2, K, d, d)
        for t in range(2):
            single = wb.update_weight_matrices(ch, vs[t], ch.noise_power)
            assert np.linalg.norm(batched[t] - single) <= 1e-14 * np.linalg.norm(single)


def _mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a])


def _mp_weights_and_rates(h, v, sigma2):
    """W_k = I + S_k^H Q_k^{-1} S_k and R_k = ln det W_k in 60-digit
    arithmetic, with S_k = H_k V_k and Q_k the interference-plus-noise
    covariance; the double inputs are taken exactly."""
    K, N, _ = h.shape
    d = v.shape[2]
    with mpmath.workdps(60):
        weights, rates = [], []
        for k in range(K):
            hk = _mp_matrix(h[k])
            q = mpmath.mpf(sigma2) * mpmath.eye(N)
            for j in range(K):
                hv = hk * _mp_matrix(v[j])
                if j == k:
                    s = hv
                else:
                    q += hv * hv.transpose_conj()
            w = mpmath.eye(d) + s.transpose_conj() * mpmath.inverse(q) * s
            weights.append(w)
            rates.append(mpmath.re(mpmath.log(mpmath.det(w))))
        return weights, rates


@pytest.mark.parametrize("snr_db, quantity, bound", [
    (-40.0, "rates", 1e-12),  # the ln det difference read 7e-5 here
    (60.0, "weights", 2e-10),  # inverting I - U^H H V read 7e-10 here
    (60.0, "rates", 1e-10),
])
def test_weights_and_rates_match_high_precision_at_wmmse_solutions(snr_db, quantity, bound):
    # At -40 dB every rate is about 1e-4 nats, and at 60 dB the MSE matrix
    # is about 1e-6 I: W and R come from the whitened own streams, so
    # neither is a difference of nearly equal quantities.
    worst = 0.0
    for seed in range(4):
        cfg, ch = make_system(seed=seed, M=8, N=2, K=3, d=2, snr_db=snr_db)
        v = wb.solve(ch, cfg, wb.SolverOptions(algorithm="wmmse")).final_precoders.precoders
        ref_w, ref_r = _mp_weights_and_rates(ch.channels, v, ch.noise_power)
        if quantity == "weights":
            w = wb.update_weight_matrices(ch, v, ch.noise_power)
            for k in range(cfg.K):
                err = mpmath.mnorm(_mp_matrix(w[k]) - ref_w[k], "f") / mpmath.mnorm(ref_w[k], "f")
                worst = max(worst, float(err))
        else:
            r = wb.user_rates(ch, v, ch.noise_power)
            for k in range(cfg.K):
                worst = max(worst, float(abs(mpmath.mpf(float(r[k])) - ref_r[k]) / ref_r[k]))
    assert worst <= bound


def test_precoder_factor_block_diagonal():
    # L^H = blockdiag(L_k^H), L_k L_k^H = alpha_k W_k, byte for byte what
    # scipy.linalg.block_diag gives, and Y = F blockdiag(L_k) to rounding.
    import scipy.linalg
    rng = np.random.default_rng(12)
    for K, d in ((1, 1), (3, 2), (5, 3)):
        cfg, ch = make_system(seed=K, M=8, N=3, K=K, d=d, weights=tuple(rng.uniform(0.5, 2, K)))
        u = rng.standard_normal((K, 3, d)) + 1j * rng.standard_normal((K, 3, d))
        a = rng.standard_normal((K, d, d)) + 1j * rng.standard_normal((K, d, d))
        w = a @ np.conj(np.swapaxes(a, 1, 2)) + np.eye(d)  # Hermitian positive definite
        y, lh = wb.objective.precoder_factor(ch, u, w, cfg.weight_vector)
        chol = [np.linalg.cholesky(alpha * w_k) for alpha, w_k in zip(cfg.weight_vector, w)]
        expected = scipy.linalg.block_diag(*(c.conj().T for c in chol))
        assert lh.dtype == expected.dtype and lh.tobytes() == expected.tobytes()
        f = wb.objective.flatten_users(np.conj(np.swapaxes(ch.channels, 1, 2)) @ u)
        fl = f @ scipy.linalg.block_diag(*chol)
        assert np.linalg.norm(y - fl) <= 1e-14 * np.linalg.norm(fl)


def test_indefinite_weight_rejected_by_the_precoder_factor(small_system):
    # Both precoder steps build the factor, so both name the user whose
    # alpha_k W_k has no Cholesky factor.
    cfg, ch = small_system
    v = random_feasible(np.random.default_rng(11), cfg)
    u = wb.update_receivers(ch, v, ch.noise_power)
    for k in range(cfg.K):
        w = np.tile(np.eye(cfg.d, dtype=complex), (cfg.K, 1, 1))
        w[k] = np.diag([1.0, -1.0])
        with pytest.raises(ObjectiveDomainError, match=f"user {k} "):
            wb.gradient_v(u, w, v, ch, cfg.weight_vector)
        with pytest.raises(ObjectiveDomainError, match=f"user {k} "):
            wb.update_precoders_exact(ch, u, w, cfg.weight_vector, cfg.p_max)


@pytest.mark.parametrize("noise_power", [0.0, -1e-3])
def test_nonpositive_noise_power_rejected(small_system, noise_power):
    cfg, ch = small_system
    hv = wb.received(ch, random_feasible(np.random.default_rng(15), cfg))
    with pytest.raises(ConfigError, match="noise power"):
        wb.objective.mmse_gain(hv, noise_power)
    with pytest.raises(ConfigError, match="noise power"):
        wb.objective.mmse_pass(hv, noise_power)
    with pytest.raises(ConfigError, match="noise power"):
        wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, noise_power)


def test_import_leaves_scipy_linalg_unloaded():
    # numpy is the only runtime dependency: a fresh import of the package and
    # its command line loads no scipy module at all.
    src = str(Path(wb.__file__).resolve().parents[1])
    code = ("import sys, wsrbeam, wsrbeam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestWmmseObjective:
    def test_identity_weights_give_sum_mse(self, small_system):
        cfg, ch = small_system
        rng = np.random.default_rng(9)
        v = random_feasible(rng, cfg)
        u = wb.update_receivers(ch, v, ch.noise_power)
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        f = wb.wmmse_objective(u, eye, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
        expected = sum(np.trace(naive_mse_matrix(ch.channels[k], u[k],
                                                 v, ch.noise_power, k)).real
                       for k in range(cfg.K))
        assert f == pytest.approx(expected, rel=1e-12)

    def test_zero_receivers_identity_weights(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(10), cfg)
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        f = wb.wmmse_objective(u, eye, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
        assert f == pytest.approx(cfg.K * cfg.d, rel=1e-14)

    def test_mmse_point_relates_to_sum_rate(self):
        # At fresh MMSE receivers with W = E^{-1}: f = sum alpha d - WSR (nats)
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=3, d=2, weights=(0.5, 1.5, 1.0))
            v = random_feasible(np.random.default_rng(seed), cfg)
            u, w = mmse_blocks(ch, v)
            f = wb.wmmse_objective(u, w, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
            snap = wb.weighted_sum_rate(ch, v, cfg.weight_vector)
            expected = sum(cfg.weights) * cfg.d - snap.wsr_nats
            assert f == pytest.approx(expected, rel=1e-10)

    def test_accurate_when_own_signal_dominates(self):
        # One user at 60 dB: E is about 1e-6 I at MMSE receivers, and forming
        # it from the full covariance minus the own signal loses five digits.
        for seed in range(3):
            cfg, ch = make_system(seed=seed, M=8, N=2, K=1, d=2, snr_db=60.0)
            v = random_feasible(np.random.default_rng(seed), cfg)
            u = wb.update_receivers(ch, v, ch.noise_power)
            eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
            f = wb.wmmse_objective(u, eye, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
            expected = np.trace(naive_mse_matrix(ch.channels[0], u[0], v,
                                                 ch.noise_power, 0)).real
            assert f == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_indefinite_weight_rejected(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(11), cfg)
        u = wb.update_receivers(ch, v, ch.noise_power)
        bad = np.tile(np.diag([1.0, -1.0]).astype(complex), (cfg.K, 1, 1))
        with pytest.raises(ObjectiveDomainError):
            wb.wmmse_objective(u, bad, wb.received(ch, v), cfg.weight_vector, ch.noise_power)
        # In a (T, K, d, d) stack the message names the user, not the flat index.
        stack = np.tile(np.eye(cfg.d, dtype=complex), (2, cfg.K, 1, 1))
        stack[1, 2] = np.diag([1.0, -1.0])
        with pytest.raises(ObjectiveDomainError, match="user 2 "):
            wb.wmmse_objective(np.stack([u, u]), stack, wb.received(ch, np.stack([v, v])),
                               cfg.weight_vector, ch.noise_power)


class TestGradient:
    def test_zero_receivers_zero_gradient(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(12), cfg)
        u = wb.ReceiverSet(np.zeros((cfg.K, cfg.N, cfg.d), dtype=complex))
        eye = wb.WeightMatrixSet.identity(cfg.K, cfg.d)
        g = wb.gradient_v(u, eye, v, ch, cfg.weight_vector)[0]
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_zero_precoder_linear_term(self, small_system):
        cfg, ch = small_system
        v = random_feasible(np.random.default_rng(13), cfg)
        u, w = mmse_blocks(ch, v)
        zero = np.zeros((cfg.K, cfg.M, cfg.d), dtype=complex)
        g = wb.gradient_v(u, w, zero, ch, cfg.weight_vector)[1]
        expected = -2.0 * cfg.weights[1] * (ch.channels[1].conj().T @ u[1]
                                            @ w[1])
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for seed in range(4):
            cfg, ch = make_system(seed=seed, M=5, N=2, K=2, d=2)
            v = random_feasible(rng, cfg)
            u, w = mmse_blocks(ch, v)

            def objective(vv):
                return wb.wmmse_objective(u, w, wb.received(ch, vv), cfg.weight_vector,
                                          ch.noise_power)

            fd = wb.finite_diff_gradient(objective, v)
            grad = wb.gradient_v(u, w, v, ch, cfg.weight_vector)
            for k in range(cfg.K):
                g = grad[k]
                rel = np.linalg.norm(g - fd[k]) / np.linalg.norm(g)
                assert rel < 1e-6


class TestComputeBounds:
    def test_identity_channels(self):
        h = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
        ch = wb.ChannelSet(h, noise_power=0.5)
        b = wb.compute_bounds(ch, np.ones(2), p_max=10.0, noise_power=0.5)
        assert b.kappa == pytest.approx(1.0, rel=1e-12)
        assert b.l_v == pytest.approx(2 * 2 * 1.0 / 0.5, rel=1e-12)
        assert b.ek_floor == pytest.approx(0.5 / 10.5, rel=1e-12)

    def test_scaling_homogeneity(self):
        cfg, ch = make_system(seed=15, M=6, N=2, K=3, d=2)
        c = 3.0
        scaled = wb.ChannelSet(c * ch.channels, noise_power=ch.noise_power)
        b1 = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        b2 = wb.compute_bounds(scaled, cfg.weight_vector, cfg.p_max, ch.noise_power)
        assert b2.kappa == pytest.approx(c ** 2 * b1.kappa, rel=1e-12)
        assert b2.gamma_safe == pytest.approx(b1.gamma_safe / c ** 2, rel=1e-12)

    def test_kappa_matches_power_iteration(self):
        cfg, ch = make_system(seed=16, M=8, N=3, K=4, d=2)
        b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        # Independent oracle: power iteration on each H_k^H H_k.
        rng = np.random.default_rng(99)
        kappa = 0.0
        for k in range(cfg.K):
            gram = ch.channels[k].conj().T @ ch.channels[k]
            x = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
            lam = 0.0
            for _ in range(20000):
                y = gram @ x
                lam_new = float(np.linalg.norm(y))
                x = y / lam_new
                if abs(lam_new - lam) <= 1e-12 * lam_new:
                    lam = lam_new
                    break
                lam = lam_new
            kappa = max(kappa, lam)
        assert abs(b.kappa - kappa) <= 1e-8 * kappa

    def test_gamma_safe_is_inverse_smoothness(self, small_system):
        cfg, ch = small_system
        b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
        assert abs(b.gamma_safe * b.l_v - 1.0) <= 1e-12
        assert 0.0 < b.ek_floor <= 1.0


class TestAnalysisProperties:
    def test_mse_eigenvalue_floor_any_receivers(self):
        # Floor holds for feasible precoders under arbitrary and adversarial
        # (MMSE at a different operating point) receivers.
        rng = np.random.default_rng(17)
        for seed in range(6):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2)
            b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            v = random_feasible(rng, cfg)
            other = random_feasible(rng, cfg)
            candidates = [
                rng.standard_normal((cfg.K, cfg.N, cfg.d))
                + 1j * rng.standard_normal((cfg.K, cfg.N, cfg.d)),
                wb.update_receivers(ch, other, ch.noise_power),
                wb.update_receivers(ch, v, ch.noise_power),
            ]
            for u in candidates:
                mse = wb.mse_matrix(wb.received(ch, v), u, ch.noise_power)
                for k in range(cfg.K):
                    e = mse[k]
                    assert np.linalg.eigvalsh(e)[0] >= b.ek_floor - 1e-9

    def test_gradient_factor_spectral_bound(self):
        for seed in range(6):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2)
            b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            v = random_feasible(np.random.default_rng(seed), cfg)
            u, w = mmse_blocks(ch, v)
            common = 2 * wb.weighted_gram(ch, u, w, cfg.weight_vector)
            assert np.linalg.norm(common, 2) <= b.l_v + 1e-6

    def test_gradient_lipschitz_on_random_pairs(self):
        rng = np.random.default_rng(18)
        for seed in range(5):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2)
            b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            base = random_feasible(rng, cfg)
            u, w = mmse_blocks(ch, base)
            va = random_feasible(rng, cfg)
            vb = random_feasible(rng, cfg)
            diff = 0.0
            grad_a = wb.gradient_v(u, w, va, ch, cfg.weight_vector)
            grad_b = wb.gradient_v(u, w, vb, ch, cfg.weight_vector)
            for k in range(cfg.K):
                ga, gb = grad_a[k], grad_b[k]
                diff += np.linalg.norm(ga - gb) ** 2
            dv = np.linalg.norm(va - vb)
            assert math.sqrt(diff) <= (b.l_v + 1e-6) * dv

    def test_single_pgd_step_descends(self):
        rng = np.random.default_rng(19)
        for seed in range(6):
            cfg, ch = make_system(seed=seed, M=6, N=2, K=3, d=2)
            b = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
            v = random_feasible(rng, cfg)
            u, w = mmse_blocks(ch, v)
            f_before = wb.wmmse_objective(u, w, wb.received(ch, v), cfg.weight_vector,
                                          ch.noise_power)
            for gamma in (b.gamma_safe, 0.3 * b.gamma_safe):
                stepped = wb.pgd_precoder_step(v, u, w, ch, cfg.weight_vector, gamma, cfg.p_max)
                f_after = wb.wmmse_objective(u, w, wb.received(ch, stepped), cfg.weight_vector,
                                             ch.noise_power)
                assert f_after <= f_before + 1e-9


class TestObjectiveSnapshot:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            wb.ObjectiveSnapshot(wsr_nats=-0.1, total_power=1.0)
