"""Rates, MSE matrices, the weighted sum-MSE objective, the factored form of
the precoder subproblem and its gradient, and the spectral bounds that
control safe step sizes.

Conventions: every optimization-internal quantity (the objective ``f``, the
rates used in stopping tests) is in natural log; reported sum rates are in
bits per channel use (nats / ln 2).  Weight matrices must be Hermitian
positive definite wherever the objective or gradient is evaluated.  Block
arguments are (K, ., .) stacks: plain ndarrays or the matrix sets of
:mod:`.model`, read through ``np.asarray``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigError, ObjectiveDomainError
from .linalg import hermitianize, lndet_hpd
from .model import ChannelSet, total_power

LN2 = math.log(2.0)


def flatten_users(stack: np.ndarray) -> np.ndarray:
    """(K, m, d) stack of per-user blocks -> (m, K*d), user k in columns k*d..k*d+d-1."""
    k, m, d = stack.shape
    return np.ascontiguousarray(stack.transpose(1, 0, 2).reshape(m, k * d))


def split_users(flat: np.ndarray, k: int, d: int) -> np.ndarray:
    """Inverse of :func:`flatten_users`."""
    m = flat.shape[0]
    return np.ascontiguousarray(flat.reshape(m, k, d).transpose(1, 0, 2))


@dataclass(frozen=True)
class BoundsReport:
    """Spectral quantities controlling smoothness and safe step sizes.

    kappa       max over users of the largest singular value of H_k^H H_k
    l_v         smoothness upper bound 2 * alpha_bar * K * kappa / sigma^2
    gamma_safe  provably-descending PGD step, sigma^2 / (2 alpha_bar K kappa)
    ek_floor    lower bound on every MSE-matrix eigenvalue for feasible
                precoders, sigma^2 / (p_max kappa + sigma^2)
    alpha_bar   max user priority
    """

    kappa: float
    l_v: float
    gamma_safe: float
    ek_floor: float
    alpha_bar: float

    def __post_init__(self) -> None:
        for name in ("kappa", "l_v", "gamma_safe", "ek_floor", "alpha_bar"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"BoundsReport.{name} must be a positive real, got {v!r}")
        if abs(self.gamma_safe * self.l_v - 1.0) > 1e-12:
            raise ConfigError("gamma_safe must equal 1 / l_v")
        if not (0.0 < self.ek_floor <= 1.0):
            raise ConfigError(f"ek_floor must lie in (0, 1], got {self.ek_floor!r}")


@dataclass(frozen=True)
class ObjectiveSnapshot:
    """Weighted sum rate (both units) and transmit power."""

    wsr_nats: float
    total_power: float
    wsr_bits: float = field(init=False)

    def __post_init__(self) -> None:
        if self.wsr_nats < 0:
            raise ConfigError(f"weighted sum rate must be nonnegative, got {self.wsr_nats!r}")
        object.__setattr__(self, "wsr_bits", self.wsr_nats / LN2)


def received(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H_k [V_1 ... V_K]: (K, N, Kd) for a channel stack, (N, Kd) for one H_k."""
    return h @ flatten_users(v)


def covariance(hv: np.ndarray, noise_power: float) -> np.ndarray:
    """sum_j H_k V_j V_j^H H_k^H + sigma^2 I over the column blocks of ``hv``
    (a :func:`received` stack, or one of its rows)."""
    return hermitianize(hv @ np.conj(np.swapaxes(hv, -1, -2))) + noise_power * np.eye(hv.shape[-2])


def own_streams(hv: np.ndarray) -> np.ndarray:
    """The (K, N, d) own-stream blocks H_k V_k of a :func:`received` stack."""
    K, n, kd = hv.shape
    return hv.reshape(K, n, K, kd // K)[np.arange(K), :, np.arange(K)]


def interfering(hv: np.ndarray) -> np.ndarray:
    """``hv`` with its own-stream blocks zeroed.  Its :func:`covariance` is the
    interference-plus-noise covariance, formed directly rather than as
    C_k - H_k V_k V_k^H H_k^H so it stays accurate at high SNR."""
    K, _, kd = hv.shape
    return hv * (1.0 - np.repeat(np.eye(K), kd // K, axis=1))[:, None, :]


def mse_matrices(interference: np.ndarray, own: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """E_k = (I - U_k^H H_k V_k)(I - U_k^H H_k V_k)^H + U_k^H Q_k U_k from the
    interference-plus-noise covariances Q_k, own-stream blocks and receivers
    of every user (or of one): a symmetrized sum of PSD terms."""
    uh = np.conj(np.swapaxes(receivers, -1, -2))
    t = np.eye(own.shape[-1]) - uh @ own
    return hermitianize(t @ np.conj(np.swapaxes(t, -1, -2)) + uh @ interference @ receivers)


def rates(interference: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Rates in nats, ln det(Q_k + H_k V_k V_k^H H_k^H) - ln det Q_k, of every
    user (or of one), from the same arguments as :func:`mse_matrices`."""
    signal = hermitianize(interference + own @ np.conj(np.swapaxes(own, -1, -2)))
    return np.maximum(lndet_hpd(signal) - lndet_hpd(interference), 0.0)


def _one_user(channel: np.ndarray, precoders, noise_power: float, k: int):
    """(Q_k, H_k V_k) of user ``k`` from its channel alone."""
    v = np.asarray(precoders)
    hv, d = received(channel, v), v.shape[2]
    own = hv[:, k * d:(k + 1) * d].copy()
    hv[:, k * d:(k + 1) * d] = 0.0
    return covariance(hv, noise_power), own


def mse_matrix(channel: np.ndarray, receiver: np.ndarray, precoders, noise_power: float, k: int) -> np.ndarray:
    """MSE matrix of user ``k``'s stream estimates, one user's :func:`mse_matrices`.

    E_k = (I - U_k^H H_k V_k)(I - U_k^H H_k V_k)^H
          + U_k^H (sum_{j != k} H_k V_j V_j^H H_k^H + sigma^2 I) U_k
    """
    if channel.shape[1] != np.asarray(precoders).shape[1] or receiver.shape[0] != channel.shape[0]:
        raise ConfigError("inconsistent shapes for MSE matrix evaluation")
    return mse_matrices(*_one_user(channel, precoders, noise_power, k), receiver)


def user_rate(channel: np.ndarray, precoders, noise_power: float, k: int) -> float:
    """Rate of user ``k`` in nats per channel use, one user's :func:`rates`:
    log det(I + H_k V_k V_k^H H_k^H (sum_{j != k} H_k V_j V_j^H H_k^H
    + sigma^2 I)^{-1})."""
    if not (noise_power > 0):
        raise ConfigError("noise power must be positive")
    return float(rates(*_one_user(channel, precoders, noise_power, k)))


def weighted_sum_rate(channels: ChannelSet, precoders, weights) -> ObjectiveSnapshot:
    """Sum of per-user rates scaled by the user priorities, in one stacked pass."""
    if channels.noise_power is None:
        raise ConfigError("channels carry no noise power; call compute_noise_power first")
    v = np.asarray(precoders)
    hv = received(np.asarray(channels), v)
    alpha = np.asarray(weights, dtype=np.float64)
    total = float(alpha @ rates(covariance(interfering(hv), channels.noise_power), own_streams(hv)))
    return ObjectiveSnapshot(wsr_nats=total, total_power=total_power(v))


def wmmse_objective(receivers, weight_matrices, precoders, channels, weights, noise_power: float) -> float:
    """Matrix-weighted sum-MSE objective, in one stacked pass.

    f = sum_k alpha_k (Tr(W_k E_k) - ln det W_k).  With all W_k = I this is
    the plain sum-MSE objective.
    """
    u = np.asarray(receivers)
    w = np.asarray(weight_matrices)
    alpha = np.asarray(weights, dtype=np.float64)
    try:
        lndet_w = lndet_hpd(w)
    except np.linalg.LinAlgError as exc:
        k = int(np.argmin(np.linalg.eigvalsh(w)[:, 0]))
        raise ObjectiveDomainError(f"weight matrix of user {k} is singular or indefinite") from exc
    hv = received(np.asarray(channels), np.asarray(precoders))
    e = mse_matrices(covariance(interfering(hv), noise_power), own_streams(hv), u)
    trace_we = np.real(np.einsum("kij,kji->k", w, e))
    return float(alpha @ (trace_we - lndet_w))


class PrecoderFactor(NamedTuple):
    """The precoder subproblem in factored form.

    f     F = [H_1^H U_1 ... H_K^H U_K]   (M x Kd)
    dmat  D = blockdiag(alpha_k W_k)      (Kd x Kd, Hermitian positive definite)

    The subproblem's system matrix is A = F D F^H and its targets are
    [B_1 ... B_K] = F D, so neither needs an M x M matrix.
    """

    f: np.ndarray
    dmat: np.ndarray

    def gradient(self, v: np.ndarray, select: np.ndarray) -> np.ndarray:
        """2 F D (F^H V - S) = 2 A V - 2 B S, in O(M Kd c) for c columns.

        ``v`` (M x c) holds precoder columns and ``select`` (Kd x c) the
        matching columns of the Kd x Kd identity: the flattened precoders of
        all users with the identity give every user's gradient at once.
        """
        f, dmat = self
        return 2.0 * (f @ (dmat @ (f.conj().T @ v - select)))


def precoder_factor(channels, receivers, weight_matrices, weights) -> PrecoderFactor:
    """F and D of the precoder subproblem at the given receivers and weights."""
    h = np.asarray(channels)
    u = np.asarray(receivers)
    w = np.asarray(weight_matrices)
    alpha = np.asarray(weights, dtype=np.float64)
    hu = np.conj(np.swapaxes(h, 1, 2)) @ u  # (K, M, d): H_k^H U_k
    return PrecoderFactor(flatten_users(hu), scipy.linalg.block_diag(*(alpha[:, None, None] * w)))


def weighted_gram(channels, receivers, weight_matrices, weights) -> np.ndarray:
    """System matrix A = F D F^H = sum_m alpha_m H_m^H U_m W_m U_m^H H_m
    (M x M, PSD).

    The solvers never form it: they work with :func:`precoder_factor`.
    """
    f, dmat = precoder_factor(channels, receivers, weight_matrices, weights)
    return hermitianize(f @ dmat @ f.conj().T)


def gradient_v(receivers, weight_matrices, precoder_k: np.ndarray, channels, weights, k: int) -> np.ndarray:
    """Gradient of the weighted sum-MSE objective in user ``k``'s precoder.

    grad = (2 sum_m alpha_m H_m^H U_m W_m U_m^H H_m) V_k
           - 2 alpha_k H_k^H U_k W_k

    where the complex gradient is the real gradient over the stacked real and
    imaginary coordinates.  It is evaluated in the factored form of
    :meth:`PrecoderFactor.gradient`, which is cheaper than any M x M product.
    """
    factor = precoder_factor(channels, receivers, weight_matrices, weights)
    d = np.asarray(receivers).shape[2]
    select = np.eye(factor.dmat.shape[0], dtype=np.complex128)[:, k * d:(k + 1) * d]
    return factor.gradient(precoder_k, select)


def compute_bounds(channels, weights, p_max: float, noise_power: float) -> BoundsReport:
    """Spectral bounds for one channel realization (cache per solve).

    kappa is found by a Hermitian eigensolve on the smaller of H H^H and
    H^H H; no singular value decomposition of the full stack is needed.
    """
    if not (noise_power > 0):
        raise ConfigError("noise power must be positive")
    h = np.asarray(channels)
    alpha = np.asarray(weights, dtype=np.float64)
    K = h.shape[0]
    hh = np.conj(np.swapaxes(h, 1, 2))
    gram = h @ hh if h.shape[1] <= h.shape[2] else hh @ h
    kappa = float(np.max(np.linalg.eigvalsh(hermitianize(gram))[:, -1]))
    alpha_bar = float(alpha.max())
    l_v = 2.0 * alpha_bar * K * kappa / noise_power
    return BoundsReport(
        kappa=kappa,
        l_v=l_v,
        gamma_safe=1.0 / l_v,
        ek_floor=noise_power / (p_max * kappa + noise_power),
        alpha_bar=alpha_bar,
    )
