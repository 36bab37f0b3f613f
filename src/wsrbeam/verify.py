"""Independent oracles used by tests and acceptance runs.

Each oracle re-expresses its target quantity through a different route than
the primary implementation (finite differences instead of the closed-form
gradient, a plain projected-gradient loop instead of the exact dual solve,
water-filling instead of the iterative solver), so agreement is evidence
rather than tautology.

The two oracles of ``wsrbeam run --verify`` work on stacks, not loops:
:func:`finite_diff_gradient` hands its objective the perturbed points in
(B, K, M, d) stacks of at most ``_FD_CHUNK``, and :func:`check_lemma_bounds`
scans the (T, K, ., .) stacks of a solve's iterates, ``_SCAN_CHUNK`` iterates
per pass, taking the gradient factor's norm from a min(M, Kd)-square matrix
per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .linalg import hermitianize
from .model import ChannelSet, PrecoderSet
from .objective import flatten_users, mse_matrix
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


# Perturbed points per objective call of :func:`finite_diff_gradient`: each
# call's stack takes O(_FD_CHUNK * K * M * d) memory.
_FD_CHUNK = 64

# Iterates per stacked pass of :func:`check_lemma_bounds`, so its arrays take
# O(_SCAN_CHUNK * K * M * Kd) memory however long the trace is.
_SCAN_CHUNK = 16


class ReferenceSolution(NamedTuple):
    precoders: PrecoderSet
    converged: bool
    iterations: int
    residual: float


def finite_diff_gradient(objective: Callable[[np.ndarray], np.ndarray], precoders,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient over every real and imaginary coordinate.

    Complex matrices are identified with stacked real vectors, so the
    returned complex gradient is (d/dRe) + 1j (d/dIm) of the objective.
    ``objective`` maps a (B, K, M, d) stack of precoder sets to its B values
    (as :func:`~.objective.wmmse_objective` does); the 4 K M d perturbed
    points go to it in stacks of at most ``_FD_CHUNK``, each built when it
    is evaluated.
    """
    if not (h > 0):
        raise ConfigError("step h must be positive")
    base = np.array(precoders, dtype=np.complex128, copy=True)
    flat = base.reshape(-1)
    # Point p perturbs coordinate p // 4 by +h, -h, +ih, -ih for p % 4 = 0..3.
    deltas = np.array([h, -h, 1j * h, -1j * h])
    values = np.empty(4 * flat.size)
    for start in range(0, values.size, _FD_CHUNK):
        points = np.arange(start, min(start + _FD_CHUNK, values.size))
        batch = np.tile(flat, (points.size, 1))
        batch[np.arange(points.size), points // 4] += deltas[points % 4]
        values[points] = objective(batch.reshape(points.size, *base.shape))
    plus_minus = values.reshape(-1, 2, 2)
    diff = (plus_minus[..., 0] - plus_minus[..., 1]) / (2.0 * h)
    return (diff[:, 0] + 1j * diff[:, 1]).reshape(base.shape)


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


def _bound_excess(h: np.ndarray, sigma2: float, alpha: np.ndarray, limits: dict,
                  iterates) -> dict:
    """The largest excess of each bound family over its limit across
    ``iterates``, in one pass over their (T, K, ., .) stacks."""
    K, d = h.shape[0], np.asarray(iterates[0].weight_matrices).shape[-1]
    u = np.stack([it.receivers for it in iterates])  # (T, K, N, d)
    w = np.stack([it.weight_matrices for it in iterates])  # (T, K, d, d)
    v = np.stack([it.precoders for it in iterates])  # (T, K, M, d)
    e = mse_matrix(h, u, v, sigma2)
    # The shared gradient factor 2 F D F^H, with F = [H_1^H U_1 ... H_K^H U_K]
    # and D = blockdiag(alpha_k W_k), has the nonzero spectrum of 2 R D R^H
    # for the thin QR F = QR: a min(M, Kd)-square matrix per iterate, and no
    # assumption that W is positive definite.
    r = np.linalg.qr(flatten_users(np.conj(np.swapaxes(h, 1, 2)) @ u), mode="r")
    rk = np.swapaxes(r.reshape(*r.shape[:2], K, d), 1, 2)  # (T, K, rows, d): user k's columns
    factor = np.einsum("k,tkij->tij", 2.0 * alpha,
                       rk @ hermitianize(w) @ np.conj(np.swapaxes(rk, -1, -2)))
    excess = {
        "mse_eigenvalue_floor": limits["mse_eigenvalue_floor"] - np.linalg.eigvalsh(e)[..., 0],
        "receiver_norm": np.sum(np.abs(u) ** 2, axis=(-2, -1)) - limits["receiver_norm"],
        "weight_norm": np.sum(np.abs(w) ** 2, axis=(-2, -1)) - limits["weight_norm"],
        "gradient_factor_norm": (np.max(np.abs(np.linalg.eigvalsh(factor)), axis=-1)
                                 - limits["gradient_factor_norm"]),
    }
    return {name: float(np.max(x)) for name, x in excess.items()}


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
    sigma2 = channels.noise_power
    h = channels.channels
    d = np.asarray(trace.iterates[0].weight_matrices).shape[-1]
    limits = {
        "mse_eigenvalue_floor": bounds.ek_floor - 1e-9,
        "receiver_norm": d / sigma2 + 1e-9,
        "weight_norm": d / bounds.ek_floor ** 2 + 1e-6,
        "gradient_factor_norm": bounds.l_v + 1e-6,
    }
    alpha = np.ones(h.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    chunks = [_bound_excess(h, sigma2, alpha, limits, trace.iterates[start:start + _SCAN_CHUNK])
              for start in range(0, len(trace.iterates), _SCAN_CHUNK)]
    worst = {name: max(chunk[name] for chunk in chunks) for name in limits}
    violated = [name for name, value in worst.items() if value > 0.0]
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
