"""Independent oracles used by tests and acceptance runs.

Each oracle re-expresses its target quantity through a different route than
the primary implementation (finite differences instead of the closed-form
gradient, a plain projected-gradient loop instead of the exact dual solve,
water-filling instead of the iterative solver), so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .linalg import hermitianize
from .model import ChannelSet, PrecoderSet
from .objective import mse_matrix
from .solvers import SolveResult


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle sweep.

    ``passed`` holds exactly when ``max_rel_error <= tolerance``; for bound
    scans the relative error is the worst normalized excess beyond the stated
    slack (zero when every bound holds) with tolerance 0.
    """

    name: str
    max_abs_error: float
    max_rel_error: float
    instances: int
    passed: bool
    tolerance: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.passed != (self.max_rel_error <= self.tolerance):
            raise ConfigError("OracleReport.passed inconsistent with its errors")


class ReferenceSolution(NamedTuple):
    precoders: PrecoderSet
    converged: bool
    iterations: int
    residual: float


def finite_diff_gradient(objective: Callable[[PrecoderSet], float], precoders: PrecoderSet,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient over every real and imaginary coordinate.

    Complex matrices are identified with stacked real vectors, so the
    returned complex gradient is (d/dRe) + 1j (d/dIm) of the objective.
    """
    if not (h > 0):
        raise ConfigError("step h must be positive")
    base = np.array(precoders, copy=True)
    grad = np.zeros_like(base)
    it = np.ndindex(base.shape)
    for idx in it:
        for unit in (1.0, 1.0j):
            step = np.zeros_like(base)
            step[idx] = h * unit
            f_plus = objective(PrecoderSet(base + step))
            f_minus = objective(PrecoderSet(base - step))
            grad[idx] += unit * (f_plus - f_minus) / (2.0 * h)
    return grad


def _project_stack(x: np.ndarray, p_max: float) -> np.ndarray:
    power = float(np.real(np.vdot(x, x)))
    if power <= p_max:
        return x
    return x * math.sqrt(p_max / power)


def reference_subproblem_solver(gram: np.ndarray, targets, p_max: float, tol: float = 1e-8,
                                max_iter: int = 1_000_000) -> ReferenceSolution:
    """Ground truth for the exact precoder update, by a plain projected
    gradient loop on the convex subproblem

        min_V  sum_k [ <V_k, A V_k> - 2 Re <B_k, V_k> ]   s.t.  sum ||V_k||_F^2 <= p_max

    with step 1 / lambda_max(A + eps I), run until the projected-gradient
    residual drops below ``tol``.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    b = np.asarray(targets, dtype=np.complex128)
    K, m, d = b.shape
    bstack = np.ascontiguousarray(b.transpose(1, 0, 2).reshape(m, K * d))
    lam_max = float(np.linalg.eigvalsh(hermitianize(gram))[-1])
    step = 1.0 / (max(lam_max, 0.0) + 1e-12)
    x = np.zeros_like(bstack)
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_next = _project_stack(x - step * (gram @ x - bstack), p_max)
        residual = float(np.linalg.norm(x - x_next))
        x = x_next
        if residual < tol:
            converged = True
            break
    v = np.ascontiguousarray(x.reshape(m, K, d).transpose(1, 0, 2))
    return ReferenceSolution(PrecoderSet(v), converged, iterations, residual)


def single_user_waterfilling(channel: np.ndarray, p_max: float, noise_power: float,
                             d: int | None = None) -> tuple[float, np.ndarray]:
    """Capacity-achieving rate and precoder for one user over its own channel.

    Water-fills the transmit power over the top min(M, N, d) singular modes
    of the channel; returns (rate in nats, M x d precoder).
    """
    h = np.asarray(channel, dtype=np.complex128)
    n, m = h.shape
    if d is None:
        d = min(m, n)
    _, s, vh = np.linalg.svd(h)
    gains = (s ** 2)[: min(m, n, d)]
    gains = gains[gains > 0.0]
    r = gains.size
    if r == 0:
        return 0.0, np.zeros((m, d), dtype=np.complex128)
    # Highest water level using the most modes with all allocations positive.
    inv = noise_power / gains  # ascending since gains sorted descending
    powers = np.zeros(r)
    for active in range(r, 0, -1):
        level = (p_max + float(np.sum(inv[:active]))) / active
        alloc = level - inv[:active]
        if alloc[-1] >= 0.0:
            powers[:active] = alloc
            break
    rate = float(np.sum(np.log1p(gains * powers / noise_power)))
    precoder = np.zeros((m, d), dtype=np.complex128)
    cols = vh.conj().T[:, :r] * np.sqrt(powers)
    precoder[:, :r] = cols
    return rate, precoder


def check_lemma_bounds(channels: ChannelSet, trace: SolveResult, bounds,
                       weights=None) -> OracleReport:
    """Scan every recorded block iterate against the convergence bounds.

    Four families, each with its stated slack:
      * minimum MSE-matrix eigenvalue >= ek_floor - 1e-9 (any receivers,
        feasible precoders),
      * ||U_k||_F^2 <= d / sigma^2 + 1e-9,
      * ||W_k||_F^2 <= d / ek_floor^2 + 1e-6,
      * spectral norm of the shared gradient factor <= l_v + 1e-6.

    Failures are reported, not raised; ``detail`` names violated families.
    """
    if not trace.iterates:
        raise ConfigError("solve result carries no recorded iterates")
    if channels.noise_power is None:
        raise ConfigError("channels carry no noise power")
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
            e = mse_matrix(h[k], u[k], v, sigma2, k)
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
    max_abs = max(0.0, max(worst.values()))
    max_rel = max([0.0] + [worst[name] / abs(limits[name]) for name in violated])
    return OracleReport(
        name="lemma_bounds",
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        instances=len(trace.iterates),
        passed=not violated,
        tolerance=0.0,
        detail="" if not violated else "violated: " + ", ".join(sorted(violated)),
    )
