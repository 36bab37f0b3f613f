"""Block updates, sum-power projection, the exact dual solve, and the three
iterative precoder-design drivers.

All three drivers share one loop skeleton per iteration:

  1. extrapolate the precoders (first-order driver only),
  2. MMSE receive-filter update,
  3. weight-matrix update -- pinned to identity during the unweighted
     warm-start stage, standard update once the stage latch has fired,
  4. precoder update -- either the exact minimizer of the precoder
     subproblem (one eigendecomposition and a Newton solve for the dual
     variable of the sum-power constraint) or a single projected gradient
     step,
  5. record the weighted sum rate of the new feasible iterate.

No M x M matrix is formed in the iteration loop.  Both precoder updates work
with F = [H_1^H U_1 ... H_K^H U_K] (M x Kd) and D = blockdiag(alpha_k W_k):
the exact update solves its subproblem in the column space of F, of
dimension n = min(M, Kd), and the gradient step applies 2 F D (F^H V - I).
Per iteration the precoder update costs O(M (Kd)^2 + n^3) for the exact
update and O(M (Kd)^2) for the gradient step.  The receiver update and the
objective and rate diagnostics cost O(K^2 N M d): all users at once, from the
stacked product H_k [V_1 ... V_K] of :mod:`.objective` and batched Cholesky
solves, with no per-user loop.  For Kd <= M an iteration is linear in M.

The loop works on plain (K, ., .) ndarrays: every block function reads its
block arguments (arrays or matrix sets) through ``np.asarray``, returns an
array, and the loop checks that array is finite.  Matrix sets are built only
for the :class:`SolveResult`.

Stage switching and termination are driven by relative changes of the
weighted sum rate over *completed* iterates: the switch test inside
iteration t compares iterations t-1 and t-2, the stop test compares t and
t-1, and at t=1 the relative change is +inf (no stop, no switch).  The stop
test only fires in the weighted stage, so the warm start always hands over
to at least one weighted iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IllConditionedWeightError, NumericalError, UnstableParametersError
from .linalg import hermitianize, solve_hpd
from .model import (
    ChannelSet,
    PrecoderSet,
    ReceiverSet,
    Stage,
    SystemConfig,
    WeightMatrixSet,
    init_precoders,
    total_power,
)
from .objective import (  # noqa: F401 -- weighted_gram: perfbench/tracing.py patches it here
    BoundsReport,
    compute_bounds,
    covariance,
    flatten_users,
    own_streams,
    precoder_factor,
    received,
    split_users,
    weighted_gram,
    weighted_sum_rate,
    wmmse_objective,
)

#: Sentinel for SolverOptions.gamma selecting the provably-descending step.
GAMMA_SAFE = "safe"

#: (omega, gamma) operating points for the first-order driver, keyed by SNR
#: in dB.  Used whenever the options leave omega/gamma unset.
STEP_DEFAULTS_BY_SNR: dict[float, tuple[float, float]] = {
    -10.0: (0.6, 0.4),
    -5.0: (0.6, 0.4),
    0.0: (0.6, 0.4),
    5.0: (0.6, 0.4),
    10.0: (0.8, 0.05),
    15.0: (0.8, 0.005),
    20.0: (0.8, 0.003),
}

_COND_LIMIT = 1e12

#: Relative margin below p_max that the exact dual solve aims the power at,
#: and that a sum-power projection falls back to when rounding overshoots.
_POWER_MARGIN = 1e-13

#: Cap on the Newton steps of one exact dual solve (it needs at most ~10).
_NEWTON_MAX = 100


class Algorithm(Enum):
    WMMSE = "wmmse"
    MMMSE = "mmmse"
    AMMMSE = "ammmse"

    @classmethod
    def from_name(cls, name: str) -> "Algorithm":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown algorithm {name!r}; expected one of "
                              f"{[a.value for a in cls]}") from None


@dataclass(frozen=True)
class SolverOptions:
    """Algorithm selection, step parameters, and stopping controls.

    ``gamma`` may be a positive number, the string ``"safe"`` (use the
    provably-descending step from the bounds report), or None (use the
    SNR-keyed default table).  ``omega`` may be a number in [0, 1) or None
    (default table).  Both are only consulted by the first-order driver.
    """

    algorithm: Algorithm = Algorithm.WMMSE
    gamma: float | str | None = None
    omega: float | None = None
    eps1: float = 0.1  # stage-switch threshold on relative WSR change
    eps2: float = 0.001  # termination threshold on relative WSR change
    max_iters: int = 1000
    record_iterates: bool = False  # keep (U, W, V) per iteration for bound scans

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, Algorithm):
            object.__setattr__(self, "algorithm", Algorithm.from_name(str(self.algorithm)))
        if isinstance(self.gamma, str):
            if self.gamma != GAMMA_SAFE:
                raise ConfigError(f"gamma must be positive, {GAMMA_SAFE!r}, or None; got {self.gamma!r}")
        elif self.gamma is not None:
            g = float(self.gamma)
            if not (math.isfinite(g) and g > 0):
                raise ConfigError(f"gamma must be positive, got {self.gamma!r}")
            object.__setattr__(self, "gamma", g)
        if self.omega is not None:
            om = float(self.omega)
            if not (0.0 <= om < 1.0):
                raise ConfigError(f"omega must lie in [0, 1), got {self.omega!r}")
            object.__setattr__(self, "omega", om)
        if not (self.eps1 > 0):
            raise ConfigError(f"eps1 must be positive, got {self.eps1!r}")
        if not (self.eps2 > 0 and math.isfinite(self.eps2)):
            raise ConfigError(f"eps2 must be positive and finite, got {self.eps2!r}")
        if self.eps2 > self.eps1:
            raise ConfigError(f"eps2 ({self.eps2}) must not exceed eps1 ({self.eps1})")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One completed iteration: objective diagnostics at the feasible iterate.

    ``f_after_u`` / ``f_after_w`` / ``f_after_v`` checkpoint the objective
    after each block update inside the iteration; with no extrapolation and a
    step no larger than gamma_safe they form a non-increasing chain.
    """

    t: int
    wsr_bits: float
    f_value: float
    total_power: float
    stage: Stage
    f_after_u: float
    f_after_w: float
    f_after_v: float
    rel_change: float  # +inf at t=1


class BlockIterate(NamedTuple):
    """Full block variables recorded for bound scans."""

    receivers: ReceiverSet
    weight_matrices: WeightMatrixSet
    precoders: PrecoderSet


class BisectionResult(NamedTuple):
    lam: float
    precoders: np.ndarray  # (K, m, d)
    converged: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class SolveResult:
    final_precoders: PrecoderSet
    trace: tuple[IterationRecord, ...]
    iterations: int
    converged: bool
    stationarity_residual: float
    switch_iteration: int | None = None  # first weighted iteration of a two-stage run
    iterates: tuple[BlockIterate, ...] | None = None


def default_step_parameters(snr_db: float) -> tuple[float, float]:
    """(omega, gamma) for the first-order driver at the given SNR.

    Exact table match when available, otherwise the nearest tabulated SNR
    (ties resolve toward the higher SNR).
    """
    snr = float(snr_db)
    key = min(STEP_DEFAULTS_BY_SNR, key=lambda s: (abs(s - snr), -s))
    return STEP_DEFAULTS_BY_SNR[key]


def resolve_step_parameters(options: SolverOptions, snr_db: float,
                            bounds: BoundsReport) -> tuple[float, float]:
    """Concrete (gamma, omega) for one solve."""
    omega_default, gamma_default = default_step_parameters(snr_db)
    omega = omega_default if options.omega is None else options.omega
    if options.gamma is None:
        gamma = gamma_default
    elif options.gamma == GAMMA_SAFE:
        gamma = bounds.gamma_safe
    else:
        gamma = float(options.gamma)
    return gamma, omega


def update_receivers(channels, precoders, noise_power: float) -> np.ndarray:
    """MMSE receive filters: U_k = (sum_j H_k V_j V_j^H H_k^H + sigma^2 I)^{-1} H_k V_k.

    The system matrices are the received covariances of the N x Kd products
    H_k [V_1 ... V_K], never the M x M sum_j V_j V_j^H, and all K are solved
    in one batched Cholesky solve.  They are strictly positive definite for
    sigma^2 > 0, so the solve is always well posed.
    """
    hv = received(np.asarray(channels), np.asarray(precoders))
    return solve_hpd(covariance(hv, noise_power), own_streams(hv))


def update_weight_matrices(channels, receivers, precoders) -> np.ndarray:
    """Weight update W_k = (I - U_k^H H_k V_k)^{-1}, symmetrized after the solve.

    With fresh MMSE receivers the argument equals the (Hermitian positive
    definite) MSE matrix, so the update is well posed; for other receivers a
    near-singular argument raises with a condition estimate naming the user.
    All K updates are one batched condition estimate, solve and eigensolve.
    """
    h = np.asarray(channels)
    u = np.asarray(receivers)
    v = np.asarray(precoders)
    t = np.eye(v.shape[2]) - np.conj(np.swapaxes(u, 1, 2)) @ h @ v
    cond = np.linalg.cond(t)
    bad = np.flatnonzero(~np.isfinite(cond) | (cond > _COND_LIMIT))
    if bad.size:
        k = int(bad[0])
        raise IllConditionedWeightError(
            f"weight update for user {k} is ill conditioned (cond ~ {cond[k]:.3e}); "
            "receivers are not MMSE-consistent with the precoders")
    out = hermitianize(np.linalg.solve(t, np.broadcast_to(np.eye(v.shape[2]), t.shape)))
    bad = np.flatnonzero(np.linalg.eigvalsh(out)[:, 0] <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise IllConditionedWeightError(
            f"weight update for user {k} produced a non positive definite matrix; "
            f"argument condition ~ {cond[k]:.3e}")
    return out


def project_sum_power(precoders, p_max: float) -> np.ndarray:
    """Projection onto the sum-power ball: identity when feasible, otherwise
    a uniform scaling by sqrt(p_max / power).

    Rounding can leave the scaled power a few ulps above p_max; only then is
    the scaling redone with the budget p_max (1 - 1e-13), so every returned
    precoder set is feasible.
    """
    v = np.asarray(precoders)
    power = total_power(v)
    if power <= p_max:
        return v
    scaled = v * math.sqrt(p_max / power)
    if total_power(scaled) > p_max:
        scaled = v * math.sqrt(p_max * (1.0 - _POWER_MARGIN) / power)
    return scaled


def bisect_dual(gram: np.ndarray, targets, p_max: float) -> BisectionResult:
    """Solve V_k = (A + lam I)^{-1} B_k exactly, with lam >= 0 the dual
    variable of the sum-power constraint.

    One eigendecomposition A = E diag(s) E^H gives the power as
    P(lam) = sum_i c_i / (s_i + lam)^2, with c_i the squared norm of row i of
    E^H [B_1 ... B_K].  Eigenvalues at or below m * eps * s_max count as zero
    and the target components along them are dropped, as ``lstsq``'s rcond
    does, so the lam = 0 answer is the minimum-norm one.  (For the precoder
    subproblem B = F D lies in the range of A = F D F^H, so the dropped
    components are roundoff.)  If that answer is feasible it is returned.
    Otherwise lam solves P(lam) = p_max (1 - 1e-13) by Newton's method on
    1 / sqrt(P), which is concave in lam: from the infeasible side the steps
    increase lam monotonically to the root, and a step that leaves the bracket
    [lo, hi], first [0, ||B||_F / sqrt(p_max)], is replaced by its midpoint.
    The 1e-13 margin keeps rounding in the final products from pushing the
    power past p_max, so an active constraint ends with the power in
    [p_max (1 - 1e-12), p_max].

    The solve stops once the power is within 16 eps of its target or a step
    no longer moves lam, that is at machine precision.  ``_NEWTON_MAX`` caps
    the Newton steps; a solve that reaches it returns the feasible end of the
    bracket with ``converged=False``.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    b = np.asarray(targets, dtype=np.complex128)
    K, m, d = b.shape
    eps = np.finfo(np.float64).eps
    s, e = np.linalg.eigh(gram)
    keep = s > m * eps * max(float(s[-1]), 0.0)
    s, e = s[keep], e[:, keep]
    c = e.conj().T @ flatten_users(b)  # (r, Kd)
    weight = np.sum(c.real ** 2 + c.imag ** 2, axis=1)

    def solution(lam: float) -> np.ndarray:
        return split_users(e @ (c / (s + lam)[:, None]), K, d)

    x0 = solution(0.0)
    if total_power(x0) <= p_max:
        return BisectionResult(0.0, x0, True, 0)

    target = p_max * (1.0 - _POWER_MARGIN)
    norm_b2 = float(np.sum(weight))
    lo, hi = 0.0, math.sqrt(norm_b2 / p_max)
    # P(lam) >= ||B||^2 / (s_max + lam)^2, so this start is on the infeasible side.
    lam = min(max(math.sqrt(norm_b2 / target) - float(s[-1]), lo), hi)
    its, converged = 0, False
    while its < _NEWTON_MAX:
        its += 1
        inv = 1.0 / (s + lam)
        terms = weight * inv * inv
        power = float(np.sum(terms))
        if abs(power - target) <= 16.0 * eps * target:
            converged = True
            break
        if power > target:
            lo = lam
        else:
            hi = lam
        step = power * (math.sqrt(power / target) - 1.0) / float(np.sum(terms * inv))
        nxt = lam + step
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - lam) <= 2.0 * eps * nxt:
            lam, converged = nxt, True
            break
        lam = nxt
    if not converged:
        lam = hi
    return BisectionResult(lam, solution(lam), converged, its)


def update_precoders_exact(channels, receivers, weight_matrices, weights, p_max: float) -> np.ndarray:
    """Exact minimizer of the precoder subproblem over the sum-power ball:
    V_k = alpha_k (sum_m alpha_m H_m^H U_m W_m U_m^H H_m + lam I)^{-1} H_k^H U_k W_k.

    Solved in the column space of F (see :class:`PrecoderFactor`): with the
    thin QR F = Q R, A = Q (R D R^H) Q^H and B = Q (R D), so V = Q X, where X
    solves the same subproblem with gram R D R^H and targets R D, both with
    min(M, Kd) rows.  Q is M x M when Kd >= M; it is one code path for every
    shape.  With identity weight matrices this is exactly the unweighted
    sum-MSE precoder update (the warm-start stage shares this code path).
    """
    f, dmat = precoder_factor(channels, receivers, weight_matrices, weights)
    q, r = np.linalg.qr(f)
    rd = r @ dmat
    K, d = np.asarray(weight_matrices).shape[:2]
    return q @ bisect_dual(rd @ r.conj().T, split_users(rd, K, d), p_max).precoders


def pgd_precoder_step(extrapolated, receivers, weight_matrices, channels, weights,
                      gamma: float, p_max: float) -> np.ndarray:
    """Single projected gradient step on the precoder block:
    V_k = Pi(Vhat_k - gamma * grad_k(Vhat)).

    Matrix multiplications only: every user's gradient comes from one
    factored product (:meth:`PrecoderFactor.gradient`).
    """
    if not (gamma >= 0):
        raise ConfigError("gamma must be nonnegative")
    vhat = np.asarray(extrapolated)
    K, _, d = vhat.shape
    factor = precoder_factor(channels, receivers, weight_matrices, weights)
    grad = factor.gradient(flatten_users(vhat), np.eye(K * d, dtype=np.complex128))
    return project_sum_power(vhat - gamma * split_users(grad, K, d), p_max)


def extrapolate(current, previous, omega: float) -> np.ndarray:
    """Momentum point Vhat = V_cur + omega (V_cur - V_prev).

    No projection is applied: the point feeds the receiver update and the
    gradient step directly and may sit outside the power ball.
    """
    if not (0.0 <= omega < 1.0):
        raise ConfigError(f"omega must lie in [0, 1), got {omega!r}")
    cur = np.asarray(current)
    prev = np.asarray(previous)
    return cur + omega * (cur - prev)


def _rel_change(new: float, old: float) -> float:
    denom = abs(old)
    if denom == 0.0:
        return math.inf
    return abs(new - old) / denom


def _stationarity_residual(h: np.ndarray, v: np.ndarray, weights, noise_power: float,
                           p_max: float, bounds: BoundsReport, eye_w: np.ndarray,
                           weighted: bool) -> float:
    """Norm of the projected-gradient fixed-point map at the exit iterate,
    ||V - Pi(V - gamma_safe grad f)||_F / max(1, ||V||_F), evaluated with
    fresh MMSE receivers and the exit stage's weight matrices (``eye_w`` in
    the unweighted stage)."""
    u = update_receivers(h, v, noise_power)
    w = update_weight_matrices(h, u, v) if weighted else eye_w
    stepped = pgd_precoder_step(v, u, w, h, weights, bounds.gamma_safe, p_max)
    norm_v = math.sqrt(max(total_power(v), 0.0))
    return float(np.linalg.norm(v - stepped)) / max(1.0, norm_v)


def _finite(t: int, block: str, out: np.ndarray) -> np.ndarray:
    """``out``, the output of a block update of iteration ``t``, if finite."""
    if not np.isfinite(out).all():
        raise NumericalError(f"iteration {t}: the {block} update produced non-finite values")
    return out


def _run_bcd(channels: ChannelSet, config: SystemConfig, options: SolverOptions, *,
             exact: bool, use_extrapolation: bool, start_weighted: bool) -> SolveResult:
    if channels.noise_power is None:
        raise ConfigError("channels carry no noise power; call compute_noise_power first")
    h = np.asarray(channels)
    if h.shape != (config.K, config.N, config.M):
        raise ConfigError(f"channels have shape (K, N, M) = {h.shape}, but the config "
                          f"has (K, N, M) = {(config.K, config.N, config.M)}")
    sigma2 = channels.noise_power
    weights = config.weight_vector
    bounds = compute_bounds(h, weights, config.p_max, sigma2)
    if options.algorithm is Algorithm.AMMMSE:
        gamma, omega = resolve_step_parameters(options, config.snr_db, bounds)
    else:
        gamma, omega = 0.0, 0.0

    v_curr = project_sum_power(init_precoders(config), config.p_max)
    v_old = v_curr
    eye_w = np.tile(np.eye(config.d, dtype=np.complex128), (config.K, 1, 1))
    w_prev = eye_w
    weighted = start_weighted  # the stage latch: once weighted, weighted to the end
    switch_iteration: int | None = None
    wsr_hist: list[float] = []
    records: list[IterationRecord] = []
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, Stage]] = []
    running_max = -math.inf
    drop_streak = 0
    converged = False

    for t in range(1, options.max_iters + 1):
        if use_extrapolation and t >= 2 and omega > 0.0:
            v_hat = _finite(t, "extrapolation", extrapolate(v_curr, v_old, omega))
        else:
            v_hat = v_curr

        u = _finite(t, "receiver", update_receivers(h, v_hat, sigma2))
        f_after_u = wmmse_objective(u, w_prev, v_hat, h, weights, sigma2)

        if not weighted:
            # Switch test: relative WSR change between iterations t-1 and t-2.
            rel_switch = math.inf if len(wsr_hist) < 2 else _rel_change(wsr_hist[-1], wsr_hist[-2])
            if rel_switch <= options.eps1:
                weighted, switch_iteration = True, t
        stage = Stage.WEIGHTED if weighted else Stage.UNWEIGHTED

        if weighted:
            w = _finite(t, "weight", update_weight_matrices(h, u, v_hat))
        else:
            w = eye_w
        f_after_w = wmmse_objective(u, w, v_hat, h, weights, sigma2)

        if exact:
            v_new = update_precoders_exact(h, u, w, weights, config.p_max)
        else:
            v_new = pgd_precoder_step(v_hat, u, w, h, weights, gamma, config.p_max)
        v_new = _finite(t, "precoder", v_new)
        f_after_v = wmmse_objective(u, w, v_new, h, weights, sigma2)

        snap = weighted_sum_rate(channels, v_new, weights)
        rel = math.inf if t == 1 else _rel_change(snap.wsr_nats, wsr_hist[-1])
        wsr_hist.append(snap.wsr_nats)
        records.append(IterationRecord(
            t=t,
            wsr_bits=snap.wsr_bits,
            f_value=f_after_v,
            total_power=snap.total_power,
            stage=stage,
            f_after_u=f_after_u,
            f_after_w=f_after_w,
            f_after_v=f_after_v,
            rel_change=rel,
        ))
        if options.record_iterates:
            blocks.append((u, w, v_new, stage))

        if options.algorithm is Algorithm.AMMMSE:
            running_max = max(running_max, snap.wsr_nats)
            if snap.wsr_nats < 0.5 * running_max:
                drop_streak += 1
            else:
                drop_streak = 0
            if drop_streak >= 5:
                raise UnstableParametersError(
                    f"weighted sum rate fell below half its running maximum for 5 "
                    f"consecutive iterations: gamma={gamma!r}, omega={omega!r} are "
                    "too aggressive for this instance")

        v_old, v_curr, w_prev = v_curr, v_new, w
        if weighted and rel <= options.eps2:
            converged = True
            break

    residual = _stationarity_residual(
        h, v_curr, weights, sigma2, config.p_max, bounds, eye_w, weighted=weighted)
    iterates = None
    if options.record_iterates:
        iterates = tuple(BlockIterate(ReceiverSet(u), WeightMatrixSet(w, stage), PrecoderSet(v))
                         for u, w, v, stage in blocks)
    return SolveResult(
        final_precoders=PrecoderSet(v_curr),
        trace=tuple(records),
        iterations=len(records),
        converged=converged,
        stationarity_residual=residual,
        switch_iteration=switch_iteration,
        iterates=iterates,
    )


def run_wmmse(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Exact block-coordinate solver: MMSE receivers, standard weight update,
    precoders by the exact dual solve; stops on the relative WSR change."""
    if options.algorithm is not Algorithm.WMMSE:
        raise ConfigError("options.algorithm must be WMMSE")
    return _run_bcd(channels, config, options, exact=True, use_extrapolation=False,
                    start_weighted=True)


def run_mmmse(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Two-stage warm-started solver: identity weights (plain sum-MSE
    minimization) until the relative WSR change first drops below eps1, then
    the standard weighted updates until eps2."""
    if options.algorithm is not Algorithm.MMMSE:
        raise ConfigError("options.algorithm must be MMMSE")
    return _run_bcd(channels, config, options, exact=True, use_extrapolation=False,
                    start_weighted=False)


def run_ammmse(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Two-stage warm-started solver with the exact precoder update replaced
    by one projected gradient step from an extrapolated point.

    Flags divergence (an unstable gamma/omega pair) when the WSR stays below
    half its running maximum for five consecutive iterations.
    """
    if options.algorithm is not Algorithm.AMMMSE:
        raise ConfigError("options.algorithm must be AMMMSE")
    return _run_bcd(channels, config, options, exact=False, use_extrapolation=True,
                    start_weighted=False)


_DRIVERS = {
    Algorithm.WMMSE: run_wmmse,
    Algorithm.MMMSE: run_mmmse,
    Algorithm.AMMMSE: run_ammmse,
}


def solve(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Dispatch to the driver selected by ``options.algorithm``."""
    return _DRIVERS[options.algorithm](channels, config, options)
