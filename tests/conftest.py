import numpy as np
import pytest

import wsrbeam as wb


def make_system(seed=0, M=8, N=2, K=3, d=2, snr_db=10.0, p_max=10.0, weights=None):
    """One ready-to-solve (config, channels-with-noise) pair."""
    cfg = wb.SystemConfig(M=M, N=N, K=K, d=d, snr_db=snr_db, p_max=p_max,
                          weights=weights, channel_seed=seed, init_seed=seed + 1000)
    return cfg, wb.generate_channels(cfg)


def mmse_blocks(ch, precoders):
    """Algorithm-produced (receivers, weights) at the given precoders."""
    u = wb.update_receivers(ch, precoders, ch.noise_power)
    w = wb.update_weight_matrices(ch, precoders, ch.noise_power)
    return u, w


def naive_mse_matrix(h_k, u_k, v_stack, sigma2, k):
    """Literal two-term expansion of the MSE matrix, kept independent of the
    library implementation (explicit loops, no shared helpers)."""
    d = v_stack.shape[2]
    eye = np.eye(d, dtype=complex)
    t = eye - u_k.conj().T @ (h_k @ v_stack[k])
    cov = sigma2 * np.eye(h_k.shape[0], dtype=complex)
    for j in range(v_stack.shape[0]):
        if j != k:
            hv = h_k @ v_stack[j]
            cov = cov + hv @ hv.conj().T
    return t @ t.conj().T + u_k.conj().T @ cov @ u_k


def naive_user_rate(h_k, v_stack, sigma2, k):
    """Rate of user k from its own interference-plus-noise covariance, built
    by an explicit loop over the other users (independent of the library)."""
    cov = sigma2 * np.eye(h_k.shape[0], dtype=complex)
    for j in range(v_stack.shape[0]):
        if j != k:
            hv = h_k @ v_stack[j]
            cov = cov + hv @ hv.conj().T
    own = h_k @ v_stack[k]
    return max(np.linalg.slogdet(cov + own @ own.conj().T)[1] - np.linalg.slogdet(cov)[1], 0.0)


@pytest.fixture
def small_system():
    return make_system(seed=0)
