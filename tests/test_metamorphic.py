"""Metamorphic tests of the block functions: changes of the input that the
model maps to known changes of every output.

* Permuting the users together with their priorities permutes every
  per-user output and leaves the objective unchanged.  A block that mixes one
  user's channel with another user's receiver or precoder fails it.
* H_k -> Q_k H_k with Q_k unitary, a different Q_k per user (a change of
  receive basis), maps the MMSE receivers to Q_k U_k and leaves every other
  output unchanged when the receivers are rotated along.
* H -> H Theta with V -> Theta^H V, Theta unitary (a change of transmit basis),
  leaves the receivers, weights, MSE matrices, rates and objective unchanged
  and maps the gradient and both precoder updates to Theta^H times them.
  At solve level, with the initial draw V_0 -> Theta^H V_0 as well, the whole
  solve is the same with precoders Theta^H V, whether the loop runs in all M
  dimensions or in a subspace basis.

Every comparison holds to TOL relative to the Frobenius norm of the expected
output: the transformed inputs round differently, nothing more.
"""

import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam import solvers

from conftest import make_system, mmse_blocks

TOL = 1e-10

# K*d below, at and above M; d = 1 and d = 2.
SHAPES = [(8, 2, 3, 2), (6, 2, 3, 2), (4, 3, 3, 1), (5, 2, 4, 2)]

BLOCKS = {
    "update_receivers": lambda h, u, w, v, a, s2: wb.update_receivers(h, v, s2),
    "update_weight_matrices": lambda h, u, w, v, a, s2: wb.update_weight_matrices(h, v, s2),
    "mse_matrix": lambda h, u, w, v, a, s2: wb.mse_matrix(wb.received(h, v), u, s2),
    "user_rates": lambda h, u, w, v, a, s2: wb.user_rates(h, v, s2),
    "gradient_v": lambda h, u, w, v, a, s2: wb.gradient_v(u, w, v, h, a),
    "wmmse_objective": lambda h, u, w, v, a, s2: wb.wmmse_objective(u, w, wb.received(h, v), a, s2),
    # A small p_max keeps the power constraint active in the exact update.
    "update_precoders_exact": lambda h, u, w, v, a, s2: wb.update_precoders_exact(h, u, w, a, 0.5),
    "pgd_precoder_step": lambda h, u, w, v, a, s2: wb.pgd_precoder_step(v, u, w, h, a, 0.05, 10.0),
}


def unitary(rng, n, batch=()):
    """A random n x n unitary matrix, or a stack of them."""
    x = rng.standard_normal((*batch, n, n)) + 1j * rng.standard_normal((*batch, n, n))
    return np.linalg.qr(x)[0]


def instance(shape, seed):
    """(h, u, w, v, alpha, sigma2): random feasible precoders, unequal
    priorities, and the MMSE receivers and weights at those precoders."""
    M, N, K, d = shape
    rng = np.random.default_rng(seed)
    weights = tuple(float(a) for a in rng.uniform(0.5, 2.0, K))
    cfg, ch = make_system(seed=seed, M=M, N=N, K=K, d=d, weights=weights)
    v = rng.standard_normal((K, M, d)) + 1j * rng.standard_normal((K, M, d))
    v = wb.project_sum_power(v, cfg.p_max)
    u, w = mmse_blocks(ch, v)
    return ch.channels, u, w, v, cfg.weight_vector, ch.noise_power


def assert_close(got, expected, name):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape, name
    assert np.linalg.norm(got - expected) <= TOL * np.linalg.norm(expected), name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_user_permutation_permutes_outputs(shape, seed):
    h, u, w, v, alpha, sigma2 = instance(shape, seed)
    perm = np.random.default_rng(seed + 50).permutation(h.shape[0])
    while np.array_equal(perm, np.arange(perm.size)):
        perm = np.roll(perm, 1)
    for name, block in BLOCKS.items():
        base = block(h, u, w, v, alpha, sigma2)
        moved = block(h[perm], u[perm], w[perm], v[perm], alpha[perm], sigma2)
        assert_close(moved, base if name == "wmmse_objective" else base[perm], name)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_receive_rotation_per_user(shape, seed):
    h, u, w, v, alpha, sigma2 = instance(shape, seed)
    q = unitary(np.random.default_rng(seed + 60), h.shape[1], (h.shape[0],))  # (K, N, N)
    for name, block in BLOCKS.items():
        base = block(h, u, w, v, alpha, sigma2)
        moved = block(q @ h, q @ u, w, v, alpha, sigma2)
        assert_close(moved, q @ base if name == "update_receivers" else base, name)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_transmit_rotation(shape, seed):
    h, u, w, v, alpha, sigma2 = instance(shape, seed)
    theta = unitary(np.random.default_rng(seed + 70), h.shape[2])  # (M, M)
    rotated = ("gradient_v", "update_precoders_exact", "pgd_precoder_step")
    for name, block in BLOCKS.items():
        base = block(h, u, w, v, alpha, sigma2)
        moved = block(h @ theta, u, w, theta.conj().T @ v, alpha, sigma2)
        assert_close(moved, theta.conj().T @ base if name in rotated else base, name)


@pytest.mark.parametrize("algorithm", ["wmmse", "mmmse", "ammmse"])
def test_transmit_rotation_of_the_solve(algorithm, monkeypatch):
    # Every solver runs every shape here in the basis of range(H^H) (KN < M).
    options = wb.SolverOptions(algorithm=algorithm)
    draw = solvers.init_precoders
    for M, K in ((8, 3), (16, 4), (64, 4), (128, 4)):
        for snr in (0.0, 10.0, 20.0):
            for seed in range(3):
                cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=snr,
                                      channel_seed=seed, init_seed=seed)
                ch = wb.generate_channels(cfg)
                theta = unitary(np.random.default_rng(seed + 90), M)
                base = wb.solve(ch, cfg, options)
                with monkeypatch.context() as m:
                    m.setattr(solvers, "init_precoders", lambda c: theta.conj().T @ draw(c))
                    moved = wb.solve(wb.ChannelSet(ch.channels @ theta, noise_power=ch.noise_power),
                                     cfg, options)
                case = (M, K, snr, seed)
                assert moved.iterations == base.iterations, case
                assert moved.switch_iteration == base.switch_iteration, case
                assert moved.converged == base.converged, case
                assert moved.trace[-1].wsr_bits == pytest.approx(
                    base.trace[-1].wsr_bits, rel=TOL, abs=0.0), case
                assert_close(moved.final_precoders.precoders,
                             theta.conj().T @ base.final_precoders.precoders, case)
