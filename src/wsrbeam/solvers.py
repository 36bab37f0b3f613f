"""Block updates, sum-power projection, the exact dual solve, and
:func:`solve`, the one block-coordinate loop of all three algorithms.

WMMSE, MMMSE and A-MMMSE differ only in where the weights start and in the
precoder step, and ``options.algorithm`` decides both: WMMSE updates the
weights from the first iteration, the other two start in the unweighted
stage; A-MMMSE takes one gradient step from an extrapolated point, the other
two the exact update.  Each iteration of the loop runs:

  1. extrapolate the precoders (A-MMMSE, from the second iteration on),
  2. the MMSE receive filters at Vhat and, once the stage latch has fired,
     the weights there (the identity in the unweighted warm-start stage),
  3. precoder update: the exact minimizer of the precoder subproblem (one
     eigendecomposition and a Newton solve for the dual variable of the
     sum-power constraint) or a single projected gradient step,
  4. the weighted sum rate of the new feasible iterate, which the stop test,
     the switch test and A-MMMSE's divergence guard read.

Steps 2 and 4 are one MMSE pass over a received stack H_k [V_1 ... V_K]: a
Cholesky of its covariance gives the receivers, one of the
interference-plus-noise covariance the gain G_k (:func:`~.objective.mmse_gain`),
I + G_k the weights and sum log1p eig G_k the rates.  For WMMSE and MMMSE the
pass at V_t serves step 4 of iteration t and step 2 of t+1; A-MMMSE forms
one more stack, at each Vhat.  Through the public functions' helpers, the
loop's values are theirs bit for bit.  One ``weighted_sum_rate`` call stays
after the loop, for the last row: perfbench/metrics.py starts a solve's exit
check where it ends.

The loop keeps each iteration's blocks (U, W, Vhat, V).  The records come
after it, in two stacked :func:`~.objective.wmmse_objective` passes over the
(T, K, ., .) stacks of those blocks: ``f_after_u`` and ``f_after_w`` share
one MSE stack at (U, Vhat), weighted by W_prev (row t-1's W, the identity
before row 1) and by W, and ``f_after_v`` is the other pass.  The blocks
become the result's :class:`BlockIterate` records.

No M x M matrix is formed in the iteration loop.  Both precoder updates work
with F = [H_1^H U_1 ... H_K^H U_K] (M x Kd) and D = blockdiag(alpha_k W_k):
the exact update solves its subproblem in the column space of F, of
dimension n = min(M, Kd), and the gradient step applies 2 F D (F^H V - I).
Per iteration the precoder update costs O(M (Kd)^2 + n^3) for the exact
update and O(M (Kd)^2) for the gradient step, and the MMSE pass
O(K^2 N M d), all users at once, with no per-user loop.  For Kd <= M an
iteration is linear in M.

The loop works on plain (K, ., .) ndarrays: every block function reads its
block arguments (arrays or matrix sets) through ``np.asarray``, returns an
array, and the loop checks that array is finite.  The only matrix set the
solvers build is the result's ``final_precoders``.

Stage switching and termination are driven by relative changes of the
weighted sum rate over *completed* iterates: the switch test inside
iteration t compares iterations t-1 and t-2, the stop test compares t and
t-1, and at t=1 the relative change is +inf (no stop, no switch).  The stop
test only fires in the weighted stage, so the warm start always hands over
to at least one weighted iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, UnstableParametersError
from .linalg import solve_hpd
from .model import (  # noqa: F401 -- ReceiverSet, WeightMatrixSet: perfbench/tracing.py patches them here
    ChannelSet,
    PrecoderSet,
    ReceiverSet,
    Stage,
    SystemConfig,
    WeightMatrixSet,
    check_channel_shape,
    init_precoders,
    integer_value,
    real_value,
    total_power,
)
from .objective import (  # noqa: F401 -- perfbench/tracing.py patches update_weight_matrices and weighted_gram here
    BoundsReport,
    ObjectiveSnapshot,
    compute_bounds,
    covariance,
    flatten_users,
    gain_snapshot,
    gain_weights,
    gradient_v,
    mmse_gain,
    own_streams,
    precoder_factor,
    received,
    split_users,
    update_weight_matrices,
    weighted_gram,
    weighted_sum_rate,
    wmmse_objective,
)

#: Sentinel for SolverOptions.gamma selecting the provably-descending step.
GAMMA_SAFE = "safe"

#: (omega, gamma) operating points for A-MMMSE, keyed by SNR in dB.  Used,
#: through SolverOptions.at_snr, whenever the options leave omega/gamma unset.
STEP_DEFAULTS_BY_SNR: dict[float, tuple[float, float]] = {
    -10.0: (0.6, 0.4),
    -5.0: (0.6, 0.4),
    0.0: (0.6, 0.4),
    5.0: (0.6, 0.4),
    10.0: (0.8, 0.05),
    15.0: (0.8, 0.005),
    20.0: (0.8, 0.003),
}

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
    (default table).  Both are only consulted by A-MMMSE.  Real fields reject
    booleans and non-numbers with a ConfigError naming the field.
    """

    algorithm: Algorithm = Algorithm.WMMSE
    gamma: float | str | None = None
    omega: float | None = None
    eps1: float = 0.1  # stage-switch threshold on relative WSR change
    eps2: float = 0.001  # termination threshold on relative WSR change
    max_iters: int = 1000

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, Algorithm):
            object.__setattr__(self, "algorithm", Algorithm.from_name(str(self.algorithm)))
        if isinstance(self.gamma, str):
            if self.gamma != GAMMA_SAFE:
                raise ConfigError(f"gamma must be positive, {GAMMA_SAFE!r}, or None; got {self.gamma!r}")
        elif self.gamma is not None:
            g = real_value("gamma", self.gamma)
            if not (math.isfinite(g) and g > 0):
                raise ConfigError(f"gamma must be positive, got {self.gamma!r}")
            object.__setattr__(self, "gamma", g)
        if self.omega is not None:
            om = real_value("omega", self.omega)
            if not (0.0 <= om < 1.0):
                raise ConfigError(f"omega must lie in [0, 1), got {self.omega!r}")
            object.__setattr__(self, "omega", om)
        for name in ("eps1", "eps2"):
            object.__setattr__(self, name, real_value(name, getattr(self, name)))
        if not (self.eps1 > 0):
            raise ConfigError(f"eps1 must be positive, got {self.eps1!r}")
        if not (self.eps2 > 0 and math.isfinite(self.eps2)):
            raise ConfigError(f"eps2 must be positive and finite, got {self.eps2!r}")
        if self.eps2 > self.eps1:
            raise ConfigError(f"eps2 ({self.eps2}) must not exceed eps1 ({self.eps1})")
        object.__setattr__(self, "max_iters", integer_value("max_iters", self.max_iters, 1))

    def at_snr(self, snr_db: float) -> "SolverOptions":
        """These options with A-MMMSE's unset gamma and omega taken from the
        SNR-keyed table; every other options object is returned unchanged."""
        if self.algorithm is not Algorithm.AMMMSE or None not in (self.gamma, self.omega):
            return self
        omega, gamma = default_step_parameters(snr_db)
        return replace(self, gamma=gamma if self.gamma is None else self.gamma,
                       omega=omega if self.omega is None else self.omega)


@dataclass(frozen=True)
class IterationRecord:
    """One completed iteration: objective diagnostics at the feasible iterate.

    ``f_after_u`` / ``f_after_w`` / ``f_after_v`` checkpoint the objective
    after each block update inside the iteration; with no extrapolation and a
    step no larger than gamma_safe they form a non-increasing chain.
    """

    t: int
    wsr_bits: float
    total_power: float
    stage: Stage
    f_after_u: float
    f_after_w: float
    f_after_v: float
    rel_change: float  # +inf at t=1


class BlockIterate(NamedTuple):
    """The blocks of one completed iteration, as plain (K, ., .) arrays."""

    receivers: np.ndarray  # (K, N, d)
    weight_matrices: np.ndarray  # (K, d, d), the identity in the unweighted stage
    precoders: np.ndarray  # (K, M, d)
    stage: Stage


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
    iterates: tuple[BlockIterate, ...] = ()  # one per trace row


def default_step_parameters(snr_db: float) -> tuple[float, float]:
    """(omega, gamma) for A-MMMSE at the given SNR.

    Exact table match when available, otherwise the nearest tabulated SNR
    (ties resolve toward the higher SNR).
    """
    snr = float(snr_db)
    key = min(STEP_DEFAULTS_BY_SNR, key=lambda s: (abs(s - snr), -s))
    return STEP_DEFAULTS_BY_SNR[key]


def update_receivers(channels, precoders, noise_power: float) -> np.ndarray:
    """MMSE receive filters at ``precoders`` (:func:`mmse_receivers`)."""
    return mmse_receivers(received(np.asarray(channels), np.asarray(precoders)), noise_power)


def mmse_receivers(hv: np.ndarray, noise_power: float) -> np.ndarray:
    """U_k = (sum_j H_k V_j V_j^H H_k^H + sigma^2 I)^{-1} H_k V_k from a
    :func:`~.objective.received` stack: the K received N x N covariances,
    never the M x M sum_j V_j V_j^H, in one batched Cholesky solve."""
    return solve_hpd(covariance(hv, noise_power), own_streams(hv))


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
    components are roundoff.)  It is returned when P(0) <= p_max.  Otherwise
    lam solves P(lam) = p_max (1 - 1e-13) by Newton's method on 1 / sqrt(P),
    which is concave in lam: from the infeasible side the steps increase lam
    monotonically to the root, and a step that leaves the bracket [lo, hi],
    first [0, ||B||_F / sqrt(p_max)], is replaced by its midpoint.
    The 1e-13 margin keeps rounding in the final products from pushing the
    power past p_max, so an active constraint ends with the power in
    [p_max (1 - 1e-12), p_max].

    The Newton loop sums P and its derivative in one pass of Python floats
    over the kept (s_i, c_i), cheaper than numpy calls on so few terms.  It
    stops once the power is within 16 eps of its target or a step no longer
    moves lam, that is at machine precision.  ``_NEWTON_MAX`` caps the
    Newton steps; a solve that reaches it returns the feasible end of the
    bracket with ``converged=False``.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    b = np.asarray(targets, dtype=np.complex128)
    K, m, d = b.shape
    eps = float(np.finfo(np.float64).eps)
    s, e = np.linalg.eigh(gram)
    keep = s > m * eps * max(float(s[-1]), 0.0)
    s, e = s[keep], e[:, keep]
    c = e.conj().T @ flatten_users(b)  # (r, Kd)
    weight = np.sum(c.real ** 2 + c.imag ** 2, axis=1)
    pairs = list(zip(s.tolist(), weight.tolist()))  # (s_i, c_i) as Python floats

    def solution(lam: float) -> np.ndarray:
        return split_users(e @ (c / (s + lam)[:, None]), K, d)

    if sum(ci / (si * si) for si, ci in pairs) <= p_max:
        return BisectionResult(0.0, solution(0.0), True, 0)

    target = p_max * (1.0 - _POWER_MARGIN)
    norm_b2 = float(np.sum(weight))
    lo, hi = 0.0, math.sqrt(norm_b2 / p_max)
    # P(lam) >= ||B||^2 / (s_max + lam)^2, so this start is on the infeasible side.
    lam = min(max(math.sqrt(norm_b2 / target) - float(s[-1]), lo), hi)
    its, converged = 0, False
    while its < _NEWTON_MAX:
        its += 1
        power = slope = 0.0  # P(lam) and -P'(lam) / 2
        for si, ci in pairs:
            inv = 1.0 / (si + lam)
            term = ci * inv * inv
            power += term
            slope += term * inv
        if abs(power - target) <= 16.0 * eps * target:
            converged = True
            break
        if power > target:
            lo = lam
        else:
            hi = lam
        step = power * (math.sqrt(power / target) - 1.0) / slope
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
    factored product (:func:`~.objective.gradient_v`).
    """
    if not (gamma >= 0):
        raise ConfigError("gamma must be nonnegative")
    vhat = np.asarray(extrapolated)
    grad = gradient_v(receivers, weight_matrices, vhat, channels, weights)
    return project_sum_power(vhat - gamma * grad, p_max)


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


def _stationarity_residual(h: np.ndarray, v: np.ndarray, w: np.ndarray, weights,
                           noise_power: float, p_max: float, bounds: BoundsReport) -> float:
    """Norm of the projected-gradient fixed-point map at the exit iterate,
    ||V - Pi(V - gamma_safe grad f)||_F / max(1, ||V||_F), evaluated with
    fresh MMSE receivers and the exit stage's weight matrices ``w``."""
    u = update_receivers(h, v, noise_power)
    stepped = pgd_precoder_step(v, u, w, h, weights, bounds.gamma_safe, p_max)
    norm_v = math.sqrt(max(total_power(v), 0.0))
    return float(np.linalg.norm(v - stepped)) / max(1.0, norm_v)


def _finite(t: int, block: str, out: np.ndarray) -> np.ndarray:
    """``out``, the output of a block update of iteration ``t``, if finite."""
    if not np.isfinite(out).all():
        raise NumericalError(f"iteration {t}: the {block} update produced non-finite values")
    return out


def solve(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Solve with ``options.algorithm``; A-MMMSE's unset step parameters come
    from :meth:`SolverOptions.at_snr` at the config's SNR.

    A-MMMSE raises :class:`UnstableParametersError` when the WSR stays below
    half its running maximum for five consecutive iterations.
    """
    h = np.asarray(channels)
    check_channel_shape(h, config)
    sigma2 = channels.noise_power
    weights = config.weight_vector
    first_order = options.algorithm is Algorithm.AMMMSE
    options = options.at_snr(config.snr_db)
    gamma, omega = (options.gamma, options.omega) if first_order else (0.0, 0.0)
    bounds = None  # the loop reads them only for the "safe" step
    if gamma == GAMMA_SAFE:
        bounds = compute_bounds(h, weights, config.p_max, sigma2)
        gamma = bounds.gamma_safe

    v_curr = project_sum_power(init_precoders(config), config.p_max)
    v_old = v_curr
    hv, g = received(h, v_curr), None  # the stack at Vhat, and its gain once formed
    eye_w = np.tile(np.eye(config.d, dtype=np.complex128), (config.K, 1, 1))
    eye_w.flags.writeable = False  # every unweighted-stage iterate shares it
    weighted = options.algorithm is Algorithm.WMMSE  # the stage latch: once set, to the end
    switch_iteration: int | None = None
    rel = math.inf  # relative WSR change of the last completed iteration
    # Per iteration: the blocks (U, W, Vhat, V) and (WSR, rel change, stage).
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    steps: list[tuple[ObjectiveSnapshot, float, Stage]] = []
    running_max = -math.inf
    drop_streak = 0
    converged = False

    for t in range(1, options.max_iters + 1):
        if t >= 2 and omega > 0.0:
            v_hat = _finite(t, "extrapolation", extrapolate(v_curr, v_old, omega))
            hv, g = received(h, v_hat), None
        else:
            v_hat = v_curr

        u = _finite(t, "receiver", mmse_receivers(hv, sigma2))

        # Switch test: ``rel`` is still the change between iterations t-1 and t-2.
        if not weighted and rel <= options.eps1:
            weighted, switch_iteration = True, t
        stage = Stage.WEIGHTED if weighted else Stage.UNWEIGHTED

        if weighted:
            g = mmse_gain(hv, sigma2) if g is None else g
            w = _finite(t, "weight", gain_weights(g))
        else:
            w = eye_w

        if first_order:
            v_new = pgd_precoder_step(v_hat, u, w, h, weights, gamma, config.p_max)
        else:
            v_new = update_precoders_exact(h, u, w, weights, config.p_max)
        v_new = _finite(t, "precoder", v_new)

        hv = received(h, v_new)
        g = mmse_gain(hv, sigma2)
        snap = gain_snapshot(g, v_new, weights)
        rel = math.inf if t == 1 else _rel_change(snap.wsr_nats, steps[-1][0].wsr_nats)
        blocks.append((u, w, v_hat, v_new))
        steps.append((snap, rel, stage))

        if first_order:
            running_max = max(running_max, snap.wsr_nats)
            if snap.wsr_nats < 0.5 * running_max:
                drop_streak += 1
            else:
                drop_streak = 0
            if drop_streak >= 5:
                raise UnstableParametersError(
                    f"iteration {t}: weighted sum rate fell below half its running maximum "
                    f"for 5 consecutive iterations: gamma={gamma!r}, omega={omega!r} are "
                    "too aggressive for this instance")

        v_old, v_curr = v_curr, v_new
        if weighted and rel <= options.eps2:
            converged = True
            break

    # The last row's rate by the public route; the exit check starts after it.
    steps[-1] = (weighted_sum_rate(channels, v_curr, weights), *steps[-1][1:])
    if bounds is None:
        bounds = compute_bounds(h, weights, config.p_max, sigma2)
    w_exit = gain_weights(g) if weighted else eye_w  # g is the pass at v_curr
    residual = _stationarity_residual(h, v_curr, w_exit, weights, sigma2, config.p_max, bounds)
    # The objective checkpoints of every iteration.  Row t's W_prev is row t-1's
    # W, so f_after_u and f_after_w are one pass over a (2, T, K, d, d) weight stack.
    us, ws, v_hats, vs = (np.stack(x) for x in zip(*blocks))
    w_prevs = np.concatenate([eye_w[None], ws[:-1]])
    f_after_u, f_after_w = wmmse_objective(
        us, np.stack([w_prevs, ws]), v_hats, h, weights, sigma2).tolist()
    f_after_v = wmmse_objective(us, ws, vs, h, weights, sigma2).tolist()
    records = tuple(
        IterationRecord(t=t, wsr_bits=snap.wsr_bits, total_power=snap.total_power,
                        stage=stage, f_after_u=fu, f_after_w=fw, f_after_v=fv, rel_change=rel)
        for t, ((snap, rel, stage), fu, fw, fv)
        in enumerate(zip(steps, f_after_u, f_after_w, f_after_v), start=1))
    return SolveResult(
        final_precoders=PrecoderSet(v_curr),
        trace=records,
        iterations=len(records),
        converged=converged,
        stationarity_residual=residual,
        switch_iteration=switch_iteration,
        iterates=tuple(BlockIterate(u, w, v, stage)
                       for (u, w, _, v), (_, _, stage) in zip(blocks, steps)),
    )

