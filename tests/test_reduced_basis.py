"""The precoder updates in the column space of F = [H_1^H U_1 ... H_K^H U_K]
against dense M x M references, and the exact dual solve."""

import math

import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.model import total_power

from conftest import make_system, mmse_blocks


def dense_gram(cfg, ch, u, w):
    """sum_m alpha_m H_m^H U_m W_m U_m^H H_m, accumulated user by user."""
    u, w = np.asarray(u), np.asarray(w)
    total = np.zeros((cfg.M, cfg.M), dtype=complex)
    for m in range(cfg.K):
        hu = ch.channels[m].conj().T @ u[m]
        total += cfg.weight_vector[m] * (hu @ w[m] @ hu.conj().T)
    return 0.5 * (total + total.conj().T)


def dense_targets(cfg, ch, u, w):
    u, w = np.asarray(u), np.asarray(w)
    return np.stack([cfg.weight_vector[k] * (ch.channels[k].conj().T @ u[k]
                                             @ w[k]) for k in range(cfg.K)])


def random_blocks(cfg, ch, seed):
    rng = np.random.default_rng(seed)
    v = wb.project_sum_power(wb.PrecoderSet(
        rng.standard_normal((cfg.K, cfg.M, cfg.d))
        + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d))), cfg.p_max)
    u, w = mmse_blocks(ch, v)
    return v, u, w


# (M, K, d): K d < M, K d = M, K d > M
SHAPES = [(12, 2, 2), (6, 3, 2), (4, 3, 2)]


@pytest.mark.parametrize("M,K,d", SHAPES)
@pytest.mark.parametrize("p_max", [0.5, 10.0, 1000.0])
@pytest.mark.parametrize("zero_user", [False, True])
def test_exact_update_matches_reference(M, K, d, p_max, zero_user):
    # zero_user: one user's receivers are zero, so F is rank deficient.
    for seed in range(3):
        cfg, ch = make_system(seed=seed, M=M, N=2, K=K, d=d, p_max=p_max)
        _, u, w = random_blocks(cfg, ch, seed + 50)
        if zero_user:
            r = u.copy()
            r[1] = 0.0
            u = wb.ReceiverSet(r)
        out = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, cfg.p_max)
        gram, targets = dense_gram(cfg, ch, u, w), dense_targets(cfg, ch, u, w)
        ref = wb.reference_subproblem_solver(gram, targets, cfg.p_max, tol=1e-12)
        assert ref.converged
        assert total_power(out) <= cfg.p_max
        rel = (np.linalg.norm(out - ref.precoders.precoders)
               / np.linalg.norm(ref.precoders.precoders))
        assert rel < 1e-6
        if zero_user:
            np.testing.assert_allclose(out[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("M,K,d", SHAPES)
def test_factored_gradient_matches_dense_formula(M, K, d):
    for seed in range(4):
        cfg, ch = make_system(seed=seed, M=M, N=2, K=K, d=d)
        v, u, w = random_blocks(cfg, ch, seed + 60)
        gram, targets = dense_gram(cfg, ch, u, w), dense_targets(cfg, ch, u, w)
        gamma = 0.3 / np.linalg.norm(gram, 2)
        dense = np.stack([2.0 * gram @ v[k] - 2.0 * targets[k] for k in range(K)])
        for k in range(K):
            g = wb.gradient_v(u, w, v[k], ch, cfg.weight_vector, k)
            assert np.linalg.norm(g - dense[k]) <= 1e-12 * np.linalg.norm(dense[k])
        stepped = wb.pgd_precoder_step(v, u, w, ch, cfg.weight_vector, gamma, cfg.p_max)
        expected = wb.project_sum_power(wb.PrecoderSet(v - gamma * dense), cfg.p_max)
        assert (np.linalg.norm(stepped - expected)
                <= 1e-12 * np.linalg.norm(expected))


def test_dual_solve_active_power_within_one_part_in_1e12():
    rng = np.random.default_rng(80)
    n_active = 0
    for trial in range(40):
        M = int(rng.integers(3, 12))
        K = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        p_max = float(rng.choice([0.1, 1.0, 10.0, 100.0]))
        cfg, ch = make_system(seed=trial, M=M, N=2, K=K, d=d, p_max=p_max)
        _, u, w = random_blocks(cfg, ch, trial + 90)
        res = wb.bisect_dual(dense_gram(cfg, ch, u, w), dense_targets(cfg, ch, u, w), p_max)
        power = total_power(res.precoders)
        assert power <= p_max
        if res.lam > 0:
            n_active += 1
            assert res.converged
            assert p_max * (1 - 1e-12) <= power
    assert n_active >= 10


def test_dual_solve_steps_are_few():
    # Newton on 1/sqrt(P) converges in a handful of steps, far below the cap.
    cfg, ch = make_system(seed=3, M=64, N=2, K=4, d=2, p_max=1.0)
    _, u, w = random_blocks(cfg, ch, 100)
    res = wb.bisect_dual(dense_gram(cfg, ch, u, w), dense_targets(cfg, ch, u, w), cfg.p_max)
    assert res.lam > 0 and res.converged and res.iterations <= 10


def test_single_user_wmmse_converges_at_tight_tolerance():
    # Criterion 7's runs: with the dual variable exact, every one stops on
    # eps2 instead of running to max_iters.
    for seed in range(10):
        cfg, ch = make_system(seed=seed, M=4, N=4, K=1, d=4)
        res = wb.solve(ch, cfg, wb.SolverOptions(eps2=1e-8, max_iters=4000))
        assert res.converged, f"seed {seed} ran {res.iterations} iterations"
        wf_rate, _ = wb.single_user_waterfilling(ch.channels[0], cfg.p_max, ch.noise_power,
                                                 d=cfg.d)
        assert wf_rate - res.trace[-1].wsr_bits * math.log(2) <= 1e-3
