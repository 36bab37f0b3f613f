"""Rates and MMSE weights, MSE matrices, the weighted sum-MSE objective, the
factored form of the precoder subproblem and its gradient, and the spectral
bounds that control safe step sizes.

Conventions: every optimization-internal quantity (the objective ``f``, the
rates used in stopping tests) is in natural log; reported sum rates are in
bits per channel use (nats / ln 2).  Weight matrices must be Hermitian
positive definite wherever the objective or gradient is evaluated.  Block
arguments are (K, ., .) stacks: plain ndarrays or the matrix sets of
:mod:`.model`, read through ``np.asarray``.

Each per-user quantity has one route, stacked over the users; there is no
one-user form.  The weights, rates and weighted sum rate go through
:func:`mmse_gain` of a :func:`received` stack and :func:`gain_weights` or
:func:`gain_rates`, as in the solver loop.  The stacked helpers
(:func:`flatten_users`, :func:`received`, :func:`own_streams`,
:func:`interfering`), :func:`mse_matrix`, :func:`mmse_gain`, :func:`mmse_pass`,
:func:`update_weight_matrices`, :func:`user_rates` and :func:`wmmse_objective`
also take leading batch axes in front of the user axis, e.g. (T, K, ., .)
stacks of T iterates against one (K, N, M) channel stack.  Each slice of a
batched result agrees with the unbatched call on that slice to rounding.

The precoder subproblem has one form, :class:`PrecoderFactor` (Y = F L and
L^H, L L^H = blockdiag(alpha_k W_k)), built only by :func:`precoder_factor`
and read by both precoder steps, :func:`gradient_v` and :func:`weighted_gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ObjectiveDomainError
from .linalg import hermitianize, lndet_hpd
from .model import ChannelSet, total_power

LN2 = math.log(2.0)


def flatten_users(stack: np.ndarray) -> np.ndarray:
    """(..., K, m, d) stack of per-user blocks -> (..., m, K*d), user k in
    columns k*d..k*d+d-1."""
    *lead, k, m, d = stack.shape
    return np.ascontiguousarray(np.swapaxes(stack, -3, -2).reshape(*lead, m, k * d))


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=None)
def _interference_mask(k: int, d: int) -> np.ndarray:
    """The (k, 1, k*d) 0/1 mask that zeroes user k's own column block of a
    :func:`received` stack, built once per shape and read-only."""
    mask = (1.0 - np.repeat(np.eye(k), d, axis=1))[:, None, :]
    mask.flags.writeable = False
    return mask


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


def received(channels, precoders) -> np.ndarray:
    """H_k [V_1 ... V_K]: (..., K, N, Kd) for a (K, N, M) channel stack and
    (..., K, M, d) precoders."""
    return np.asarray(channels) @ flatten_users(np.asarray(precoders))[..., None, :, :]


def covariance(hv: np.ndarray, noise_power: float) -> np.ndarray:
    """sum_j H_k V_j V_j^H H_k^H + sigma^2 I over the column blocks of a
    :func:`received` stack."""
    gram = hermitianize(hv @ np.conj(np.swapaxes(hv, -1, -2)))
    return gram + noise_power * _identity(hv.shape[-2])


def own_streams(hv: np.ndarray) -> np.ndarray:
    """The (..., K, N, d) own-stream blocks H_k V_k of a :func:`received` stack."""
    *lead, K, n, kd = hv.shape
    k = np.arange(K)
    return np.swapaxes(hv.reshape(*lead, K, n, K, kd // K), -3, -2)[..., k, k, :, :]


def interfering(hv: np.ndarray) -> np.ndarray:
    """``hv`` with its own-stream blocks zeroed.  Its :func:`covariance` is the
    interference-plus-noise covariance, formed directly rather than as
    C_k - H_k V_k V_k^H H_k^H so it stays accurate at high SNR."""
    K, _, kd = hv.shape[-3:]
    return hv * _interference_mask(K, kd // K)


def mse_matrix(hv: np.ndarray, receivers, noise_power: float) -> np.ndarray:
    """The (..., K, d, d) MSE matrices of every user's stream estimates, from
    a :func:`received` stack hv = H_k [V_1 ... V_K] and the receivers,

    E_k = (I - U_k^H H_k V_k)(I - U_k^H H_k V_k)^H
          + U_k^H (sum_{j != k} H_k V_j V_j^H H_k^H + sigma^2 I) U_k,

    a symmetrized sum of PSD terms built from the interference-plus-noise
    covariance."""
    u = np.asarray(receivers)
    uh = np.conj(np.swapaxes(u, -1, -2))
    t = _identity(u.shape[-1]) - uh @ own_streams(hv)
    return hermitianize(t @ np.conj(np.swapaxes(t, -1, -2))
                        + uh @ covariance(interfering(hv), noise_power) @ u)


def _check_noise_power(noise_power: float) -> None:
    if not (noise_power > 0):
        raise ConfigError("noise power must be positive")


def _gain(z: np.ndarray) -> np.ndarray:
    """Z^H Z, made exactly Hermitian."""
    return hermitianize(np.conj(np.swapaxes(z, -1, -2)) @ z)


def mmse_gain(hv: np.ndarray, noise_power: float) -> np.ndarray:
    """The (..., K, d, d) MMSE gains G_k = Z_k^H Z_k, Hermitian PSD by
    construction, of a :func:`received` stack: Z_k = L_k^{-1} H_k V_k with
    L_k L_k^H = Q_k, user k's interference-plus-noise covariance."""
    _check_noise_power(noise_power)
    z = np.linalg.solve(np.linalg.cholesky(covariance(interfering(hv), noise_power)),
                        own_streams(hv))
    return _gain(z)


def mmse_pass(hv: np.ndarray, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """The MMSE receivers U_k = C_k^{-1} H_k V_k and the :func:`mmse_gain`
    of a :func:`received` stack, C_k its :func:`covariance`, in one pass.

    The covariances C_k and Q_k (of :func:`interfering`) are factored in one
    batched Cholesky and H_k V_k is whitened by both factors in one batched
    solve; the receivers take one more triangular solve.  Each slice goes
    through the same LAPACK calls as :func:`~.solvers.update_receivers` and
    :func:`mmse_gain`, so both outputs equal theirs bit for bit.
    """
    _check_noise_power(noise_power)
    own = own_streams(hv)
    chol = np.linalg.cholesky(covariance(np.stack([hv, interfering(hv)]), noise_power))
    # own[None] has the factors' ndim: numpy < 2 reads a right-hand side of
    # one dimension less as a stack of vectors.
    z = np.linalg.solve(chol, own[None])
    return np.linalg.solve(np.conj(np.swapaxes(chol[0], -1, -2)), z[0]), _gain(z[1])


def gain_weights(g: np.ndarray) -> np.ndarray:
    """The MMSE weights W_k = I + G_k of a :func:`mmse_gain` stack.  By the
    matrix inversion lemma this is (I - U_k^H H_k V_k)^{-1} at the MMSE
    receivers, the inverse MSE matrix, formed without an inversion: Hermitian
    positive definite by construction and accurate at high SNR."""
    return _identity(g.shape[-1]) + g


def gain_rates(g: np.ndarray) -> np.ndarray:
    """The rates ln det(I + G_k) = sum log1p(eig G_k) of a :func:`mmse_gain`
    stack, in nats: the ln det of the MMSE weight, accurate at low SNR too,
    and never negative."""
    return np.sum(np.log1p(np.maximum(np.linalg.eigvalsh(g), 0.0)), axis=-1)


def update_weight_matrices(channels, precoders, noise_power: float) -> np.ndarray:
    """Weight update at ``precoders``: :func:`gain_weights`."""
    return gain_weights(mmse_gain(received(channels, precoders), noise_power))


def user_rates(channels, precoders, noise_power: float) -> np.ndarray:
    """The (K,) rates in nats per channel use (:func:`gain_rates`)."""
    return gain_rates(mmse_gain(received(channels, precoders), noise_power))


def weighted_sum_rate(channels: ChannelSet, precoders, weights) -> ObjectiveSnapshot:
    """alpha @ :func:`user_rates`, with the transmit power."""
    g = mmse_gain(received(channels, precoders), channels.noise_power)
    total = float(np.asarray(weights, dtype=np.float64) @ gain_rates(g))
    return ObjectiveSnapshot(wsr_nats=total, total_power=total_power(np.asarray(precoders)))


def _of_hpd_weights(fn, w: np.ndarray):
    """``fn(w)``, or an ObjectiveDomainError naming a user whose W_k is not HPD."""
    try:
        return fn(w)
    except np.linalg.LinAlgError as exc:
        k = int(np.argmin(np.linalg.eigvalsh(w)[..., 0])) % w.shape[-3]
        raise ObjectiveDomainError(f"weight matrix of user {k} is singular or indefinite") from exc


def wmmse_objective(receivers, weight_matrices, hv: np.ndarray, weights, noise_power: float):
    """Matrix-weighted sum-MSE objective at a :func:`received` stack
    hv = H_k [V_1 ... V_K], in one stacked pass.

    f = sum_k alpha_k (Tr(W_k E_k) - ln det W_k), E_k the :func:`mse_matrix`.
    With all W_k = I this is the plain sum-MSE objective.  A float for one
    (K, ., .) set of blocks; an array over the leading axes for (..., K, ., .)
    stacks of them.
    """
    w = np.asarray(weight_matrices)
    alpha = np.asarray(weights, dtype=np.float64)
    lndet_w = _of_hpd_weights(lndet_hpd, w)
    e = mse_matrix(hv, receivers, noise_power)
    trace_we = np.real(np.einsum("...kij,...kji->...k", w, e))
    f = (trace_we - lndet_w) @ alpha
    return float(f) if f.ndim == 0 else f


class PrecoderFactor(NamedTuple):
    """The precoder subproblem in factored form, L_k L_k^H = alpha_k W_k:

    y   Y = [H_1^H U_1 L_1 ... H_K^H U_K L_K]   (m x Kd)
    lh  L^H = blockdiag(L_k^H)                  (Kd x Kd, upper triangular)

    Its system matrix is A = Y Y^H and its targets are [B_1 ... B_K] = Y L^H,
    so it needs neither an m x m matrix nor D = blockdiag(alpha_k W_k).
    """

    y: np.ndarray
    lh: np.ndarray

    def gradient(self, precoders) -> np.ndarray:
        """The (K, M, d) gradient 2 Y (Y^H V - L^H) at ``precoders``
        (:func:`gradient_v`), in O(M (Kd)^2) and with no M x M product."""
        v = np.asarray(precoders)
        K, _, d = v.shape
        return split_users(2.0 * (self.y @ (self.y.conj().T @ flatten_users(v) - self.lh)), K, d)


def precoder_factor(channels, receivers, weight_matrices, weights) -> PrecoderFactor:
    """Y and L^H of the precoder subproblem, from one batched Cholesky of the
    alpha_k W_k; an :class:`ObjectiveDomainError` if one is not HPD."""
    h = np.asarray(channels)
    alpha = np.asarray(weights, dtype=np.float64)
    chol = _of_hpd_weights(np.linalg.cholesky, alpha[:, None, None] * np.asarray(weight_matrices))
    y = flatten_users(np.conj(np.swapaxes(h, 1, 2)) @ np.asarray(receivers) @ chol)
    K, d = chol.shape[:2]
    lh = np.zeros((K, d, K, d), dtype=chol.dtype)
    lh[np.arange(K), :, np.arange(K)] = np.conj(np.swapaxes(chol, 1, 2))
    return PrecoderFactor(y, lh.reshape(K * d, K * d))


def weighted_gram(channels, receivers, weight_matrices, weights) -> np.ndarray:
    """System matrix A = Y Y^H = sum_m alpha_m H_m^H U_m W_m U_m^H H_m (M x M,
    PSD) of :func:`precoder_factor`.  The solvers never form it."""
    y = precoder_factor(channels, receivers, weight_matrices, weights).y
    return hermitianize(y @ y.conj().T)


def gradient_v(receivers, weight_matrices, precoders, channels, weights) -> np.ndarray:
    """Gradient of the weighted sum-MSE objective in every user's precoder,
    a (K, M, d) stack:

    grad_k = (2 sum_m alpha_m H_m^H U_m W_m U_m^H H_m) V_k
             - 2 alpha_k H_k^H U_k W_k

    where the complex gradient is the real gradient over the stacked real and
    imaginary coordinates.  It is evaluated in the factored form
    2 Y (Y^H V - L^H) with V = [V_1 ... V_K] (:meth:`PrecoderFactor.gradient`).
    """
    return precoder_factor(channels, receivers, weight_matrices, weights).gradient(precoders)


def compute_bounds(channels, weights, p_max: float, noise_power: float) -> BoundsReport:
    """Spectral bounds for one channel realization (cache per solve).

    kappa is found by a Hermitian eigensolve on the smaller of H H^H and
    H^H H; no singular value decomposition of the full stack is needed.
    """
    _check_noise_power(noise_power)
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
