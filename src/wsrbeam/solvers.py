"""Block updates, sum-power projection, the exact dual solve, and
:func:`solve`, the one block-coordinate loop of all three algorithms.

WMMSE, MMMSE and A-MMMSE differ only in where the weights start and in the
precoder step, and ``options.algorithm`` decides both: WMMSE updates the
weights from the first iteration, the other two start in the unweighted
stage; A-MMMSE takes one gradient step from an extrapolated point, the other
two the exact update.  Each iteration of the loop runs:

  1. extrapolate the precoders (A-MMMSE, from the second iteration on, unless
     the last iteration lowered the weighted sum rate: see below),
  2. the MMSE receive filters at Vhat and, once the stage latch has fired,
     the weights there (the identity in the unweighted warm-start stage),
  3. precoder update: the exact minimizer of the precoder subproblem (one
     thin SVD and a Newton solve for the dual variable of the sum-power
     constraint) or a single projected gradient step,
  4. the weighted sum rate of the new feasible iterate, which the stop test,
     the switch test and A-MMMSE's divergence guard read.

Steps 2 and 4 are MMSE passes over a received stack H_k [V_1 ... V_K]: a
Cholesky of its covariance gives the receivers, one of the
interference-plus-noise covariance the gain G_k (:func:`~.objective.mmse_gain`),
I + G_k the weights and sum log1p eig G_k the rates.  Where a pass needs both
the receivers and the gain, :func:`~.objective.mmse_pass` takes both
factors in one batched Cholesky.  For WMMSE and MMMSE the pass at V_t serves
step 4 of iteration t and step 2 of t+1.  A-MMMSE forms one more stack, at
each extrapolated Vhat, takes only the gain at V_t, and the stacked pass at
Vhat only in the weighted stage.  Through the public functions' helpers and
LAPACK calls, the loop's values are theirs bit for bit.  One
``weighted_sum_rate`` call stays after the loop, for the last row, on the
full channels: perfbench/metrics.py starts a solve's exit check where it
ends.

The loop keeps each iteration's blocks (U, W, V) and its received stacks at
Vhat and at V.  The records come after it, in one stacked
:func:`~.objective.wmmse_objective` pass over the (T, K, ., .) stacks: the
MSE at (U, Vhat) and (U, V), each weighted by W_prev (row t-1's W, the
identity before row 1) and by W, with no product with H.  ``f_after_u`` and
``f_after_w`` are (U, Vhat) under W_prev and W, ``f_after_v`` is (U, V)
under W.  The blocks become the result's :class:`BlockIterate` records.

No M x M matrix is formed in the iteration loop.  Both precoder updates work
with F = [H_1^H U_1 ... H_K^H U_K] (M x Kd) and D = blockdiag(alpha_k W_k):
the exact update takes the thin SVD of F L, L L^H = D, with n = min(M, Kd)
singular values (:func:`update_precoders_exact`), and the gradient step
applies 2 F D (F^H V - I).  Per iteration the precoder update costs
O(M (Kd) n) for the exact update and O(M (Kd)^2) for the gradient step, and
the MMSE pass O(K^2 N M d), all users at once, with no per-user loop.  The
loop takes no QR.

Every iterate lies in S = span([H_1^H ... H_K^H, V_0]), of dimension at most
r = KN + Kd: the exact update and the gradient lie in the range of F, inside
that of H^H, and extrapolation and projection combine earlier iterates.  So
when r < M, :func:`solve` takes one thin QR Q (M x r) of [H^H, V_0] per
solve (O(M r^2)), runs the loop unchanged on H_k Q and X = Q^H V_0, and maps
every stored iterate back as V = Q X.  An iteration then costs what it costs
at M = r, and the M-sized work is the QR, H Q and the map-back.  Receivers,
weights, rates, the objective checkpoints and the stationarity residual do
not change under V = Q X, so they are taken in the loop's coordinates; the
bounds and the last row's rate are taken on the full channels.  Without V_0
in the basis A-MMMSE would start from its projection onto range(H^H), a
different solve.  When r >= M the loop runs in all M dimensions.

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

A-MMMSE's step needs no setting: by default it is the exact line search on
the precoder subproblem (:func:`pgd_precoder_step`).  Its momentum, omega =
0.5 by default, comes with a function restart (O'Donoghue and Candes, Found.
Comput. Math. 15, 2015): after an iteration whose weighted sum rate fell
below the previous one, V_old <- V_t, so the next iteration takes no
extrapolation and reuses the MMSE pass at V_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    mmse_gain,
    mmse_pass,
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

#: Relative margin below p_max that the exact dual solve aims the power at,
#: and that a sum-power projection falls back to when rounding overshoots.
_POWER_MARGIN = 1e-13

#: Cap on the Newton steps of one exact dual solve (it needs at most ~10).
_NEWTON_MAX = 100

_EPS = float(np.finfo(np.float64).eps)


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
    provably-descending step from the bounds report), or None (the exact
    line-search step, computed from each iterate: see
    :func:`pgd_precoder_step`).  ``omega`` is a number in [0, 1).  Both are
    only consulted by A-MMMSE.  Real fields reject booleans and non-numbers
    with a ConfigError naming the field.
    """

    algorithm: Algorithm = Algorithm.WMMSE
    gamma: float | str | None = None
    omega: float = 0.5
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


def update_receivers(channels, precoders, noise_power: float) -> np.ndarray:
    """MMSE receive filters at ``precoders`` (:func:`mmse_receivers`)."""
    return mmse_receivers(received(channels, precoders), noise_power)


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


def bisect_dual(system: np.ndarray, targets, p_max: float, *,
                factored: bool = False) -> BisectionResult:
    """Solve V_k = (A + lam I)^{-1} B_k exactly, with lam >= 0 the dual
    variable of the sum-power constraint.

    ``system`` is the Hermitian PSD A (m x m), or with ``factored`` a factor
    Y (m x n) of A = Y Y^H, whose targets are B_k = Y T_k, given as the
    (K, n, d) stack of the T_k.  Either way one decomposition gives an
    orthonormal basis Q of the range of A, its eigenvalues s_i and the
    coefficients C = Q^H [B_1 ... B_K], so that V = Q diag(1 / (s + lam)) C
    and the power is P(lam) = sum_i c_i / (s_i + lam)^2, with c_i the squared
    norm of row i of C:

      * A: its eigendecomposition, A = Q diag(s) Q^H;
      * Y: its thin SVD Y = Q diag(sigma) W^H, s = sigma^2 and
        C = diag(sigma) W^H [T_1 ... T_K].  A is never formed, so the
        conditioning of Y is not squared.

    Eigenvalues at or below n * eps * s_max (n of them) count as zero and the
    target components along them are dropped, as ``lstsq``'s rcond does, so
    the lam = 0 answer is the minimum-norm one.  (For the precoder subproblem
    B lies in the range of A, so the dropped components are roundoff.)  It is
    returned when P(0) <= p_max.  Otherwise lam solves
    P(lam) = p_max (1 - 1e-13) by Newton's method on 1 / sqrt(P), which is
    concave in lam: from the infeasible side the steps increase lam
    monotonically to the root, and a step that leaves the bracket [lo, hi],
    first [0, sqrt(sum_i c_i / p_max)], is replaced by its midpoint.
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
    system = np.asarray(system, dtype=np.complex128)
    t = np.asarray(targets, dtype=np.complex128)
    K, _, d = t.shape
    b = flatten_users(t)
    if factored:
        q, sigma, wh = np.linalg.svd(system, full_matrices=False)
        s, c = sigma * sigma, sigma[:, None] * (wh @ b)
    else:
        s, q = np.linalg.eigh(system)
        c = q.conj().T @ b
    s_max = max(float(s.max()), 0.0)
    keep = s > len(s) * _EPS * s_max
    if not keep.all():
        s, q, c = s[keep], q[:, keep], c[keep]
    parts = c.view(np.float64)  # the real and imaginary parts of each row of C
    weight = np.sum(parts * parts, axis=1)
    pairs = list(zip(s.tolist(), weight.tolist()))  # (s_i, c_i) as Python floats

    def solution(lam: float) -> np.ndarray:
        return split_users(q @ (c / (s + lam)[:, None]), K, d)

    if sum(ci / (si * si) for si, ci in pairs) <= p_max:
        return BisectionResult(0.0, solution(0.0), True, 0)

    target = p_max * (1.0 - _POWER_MARGIN)
    norm_b2 = sum(ci for _, ci in pairs)
    lo, hi = 0.0, math.sqrt(norm_b2 / p_max)
    # P(lam) >= sum_i c_i / (s_max + lam)^2, so this start is on the infeasible side.
    lam = min(max(math.sqrt(norm_b2 / target) - s_max, lo), hi)
    its, converged = 0, False
    while its < _NEWTON_MAX:
        its += 1
        power = slope = 0.0  # P(lam) and -P'(lam) / 2
        for si, ci in pairs:
            inv = 1.0 / (si + lam)
            term = ci * inv * inv
            power += term
            slope += term * inv
        if abs(power - target) <= 16.0 * _EPS * target:
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
        if abs(nxt - lam) <= 2.0 * _EPS * nxt:
            lam, converged = nxt, True
            break
        lam = nxt
    if not converged:
        lam = hi
    return BisectionResult(lam, solution(lam), converged, its)


def update_precoders_exact(channels, receivers, weight_matrices, weights, p_max: float) -> np.ndarray:
    """Exact minimizer of the precoder subproblem over the sum-power ball:
    V_k = alpha_k (sum_m alpha_m H_m^H U_m W_m U_m^H H_m + lam I)^{-1} H_k^H U_k W_k.

    With L_k the Cholesky factor of alpha_k W_k and L = blockdiag(L_k), the
    system matrix is FL FL^H and the targets are FL L^H, where
    FL = [H_1^H U_1 L_1 ... H_K^H U_K L_K] (m x Kd, m the channels' column
    count).  One :func:`bisect_dual` call on the factor FL and the targets
    L^H solves it: the thin SVD of FL gives V = Q diag(sigma / (sigma^2 +
    lam)) W^H L^H, the push-through form of (FL FL^H + lam I)^{-1} FL L^H.
    No QR, no D = L L^H and no M x M matrix is formed, and the one code path
    serves K d < m and K d >= m alike.  With identity weight matrices this
    is exactly the unweighted sum-MSE precoder update (the warm-start stage
    shares this code path).
    """
    h = np.asarray(channels)
    alpha = np.asarray(weights, dtype=np.float64)
    chol = np.linalg.cholesky(alpha[:, None, None] * np.asarray(weight_matrices))
    fl = flatten_users(np.conj(np.swapaxes(h, 1, 2)) @ np.asarray(receivers) @ chol)
    K, d = chol.shape[:2]
    lh = np.zeros((K, K, d, d), dtype=chol.dtype)  # user k's T_k: L_k^H in row block k
    lh[np.arange(K), np.arange(K)] = np.conj(np.swapaxes(chol, 1, 2))
    return bisect_dual(fl, lh.reshape(K, K * d, d), p_max, factored=True).precoders


def pgd_precoder_step(extrapolated, receivers, weight_matrices, channels, weights,
                      gamma: float | None, p_max: float) -> np.ndarray:
    """Single projected gradient step on the precoder block:
    V_k = Pi(Vhat_k - gamma * grad_k(Vhat)).

    ``gamma`` None takes the exact line search along -G, G the gradient at
    Vhat, on the subproblem's quadratic Tr(V^H A V) - 2 Re Tr(B^H V) + const
    with A = F D F^H (Nocedal and Wright, Numerical Optimization, 2nd ed.,
    section 3.3): gamma = ||G||^2 / (2 <F^H G, D F^H G>), and 0 when G = 0.
    It has no setting and does not change under H -> c H, sigma^2 -> c^2
    sigma^2.  Matrix multiplications only: the gradient and the step come
    from one factored form (:class:`~.objective.PrecoderFactor`).
    """
    vhat = np.asarray(extrapolated)
    factor = precoder_factor(channels, receivers, weight_matrices, weights)
    grad = factor.gradient(vhat)
    if gamma is None:
        fg = factor.f.conj().T @ flatten_users(grad)
        curvature = float(np.vdot(fg, factor.dmat @ fg).real)
        gamma = total_power(grad) / (2.0 * curvature) if curvature > 0.0 else 0.0
    elif not (gamma >= 0):
        raise ConfigError("gamma must be nonnegative")
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


def _subspace_basis(h: np.ndarray, v0: np.ndarray) -> np.ndarray | None:
    """An orthonormal basis Q (M x r) of a space that holds every iterate:
    the thin QR of [H_1^H ... H_K^H, V_0], r = KN + Kd; None when r >= M."""
    K, N, M = h.shape
    if K * (N + v0.shape[2]) >= M:
        return None
    a = np.concatenate([flatten_users(np.conj(np.swapaxes(h, 1, 2))), flatten_users(v0)], axis=1)
    return np.linalg.qr(a)[0]


def _finite(t: int, block: str, out: np.ndarray) -> np.ndarray:
    """``out``, the output of a block update of iteration ``t``, if finite."""
    if not np.isfinite(out).all():
        raise NumericalError(f"iteration {t}: the {block} update produced non-finite values")
    return out


def solve(channels: ChannelSet, config: SystemConfig, options: SolverOptions) -> SolveResult:
    """Solve with ``options.algorithm``.

    A-MMMSE raises :class:`UnstableParametersError` when the WSR stays below
    half its running maximum for five consecutive iterations.
    """
    h = np.asarray(channels)
    check_channel_shape(h, config)
    sigma2 = channels.noise_power
    weights = config.weight_vector
    first_order = options.algorithm is Algorithm.AMMMSE
    gamma, omega = (options.gamma, options.omega) if first_order else (0.0, 0.0)
    bounds = None  # the loop reads them only for the "safe" step
    if gamma == GAMMA_SAFE:
        bounds = compute_bounds(h, weights, config.p_max, sigma2)
        gamma = bounds.gamma_safe

    v_curr = project_sum_power(init_precoders(config), config.p_max)
    # When r = KN + Kd < M, the loop runs in the coordinates of the basis Q
    # of span([H^H, V_0]): channels H_k Q and precoders X with V = Q X.
    q = _subspace_basis(h, v_curr)
    if q is not None:
        h, v_curr = h @ q, q.conj().T @ v_curr
    v_old = v_curr
    # The received stack at Vhat, and its receivers and gain once formed.
    hv, u, g = received(h, v_curr), None, None
    eye_w = np.tile(np.eye(config.d, dtype=np.complex128), (config.K, 1, 1))
    eye_w.flags.writeable = False  # every unweighted-stage iterate shares it
    weighted = options.algorithm is Algorithm.WMMSE  # the stage latch: once set, to the end
    switch_iteration: int | None = None
    rel = math.inf  # relative WSR change of the last completed iteration
    # Per iteration: the blocks (U, W, V), the received stacks at Vhat and at
    # V, and (WSR, rel change, stage).
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    steps: list[tuple[ObjectiveSnapshot, float, Stage]] = []
    running_max = -math.inf
    drop_streak = 0
    converged = False

    for t in range(1, options.max_iters + 1):
        if omega > 0.0 and v_old is not v_curr:
            v_hat = _finite(t, "extrapolation", extrapolate(v_curr, v_old, omega))
            hv, u, g = received(h, v_hat), None, None
        else:
            v_hat = v_curr
        hv_hat = hv

        # Switch test: ``rel`` is still the change between iterations t-1 and t-2.
        if not weighted and rel <= options.eps1:
            weighted, switch_iteration = True, t
        stage = Stage.WEIGHTED if weighted else Stage.UNWEIGHTED

        if u is None:
            if weighted and g is None:
                u, g = mmse_pass(hv, sigma2)
            else:
                u = mmse_receivers(hv, sigma2)
        u = _finite(t, "receiver", u)
        w = _finite(t, "weight", gain_weights(g)) if weighted else eye_w

        if first_order:
            v_new = pgd_precoder_step(v_hat, u, w, h, weights, gamma, config.p_max)
        else:
            v_new = update_precoders_exact(h, u, w, weights, config.p_max)
        v_new = _finite(t, "precoder", v_new)

        hv = received(h, v_new)
        blocks.append((u, w, v_new, hv_hat, hv))
        # The pass at V_t gives this row's rate and, to the exact solvers,
        # the receivers of iteration t+1, whose Vhat is V_t.
        if first_order:
            u, g = None, mmse_gain(hv, sigma2)
        else:
            u, g = mmse_pass(hv, sigma2)
        snap = gain_snapshot(g, v_new, weights)
        rel = math.inf if t == 1 else _rel_change(snap.wsr_nats, steps[-1][0].wsr_nats)
        steps.append((snap, rel, stage))

        if first_order:
            running_max = max(running_max, snap.wsr_nats)
            if snap.wsr_nats < 0.5 * running_max:
                drop_streak += 1
            else:
                drop_streak = 0
            if drop_streak >= 5:
                step = "the line-search step" if gamma is None else f"gamma={gamma!r}"
                raise UnstableParametersError(
                    f"iteration {t}: weighted sum rate fell below half its running maximum "
                    f"for 5 consecutive iterations under {step}, omega={omega!r}")

        # The restart: after a fall in the WSR the next iteration starts at V_t.
        fell = t >= 2 and snap.wsr_nats < steps[-2][0].wsr_nats
        v_old, v_curr = v_new if fell else v_curr, v_new
        if weighted and rel <= options.eps2:
            converged = True
            break

    us, ws, vs, hv_hats, hvs = (np.stack(x) for x in zip(*blocks))
    vs_full = vs  # every iterate in M dimensions, mapped back in one product
    if q is not None:
        vs_full = np.swapaxes((q @ flatten_users(vs)).reshape(len(vs), -1, config.K, config.d), 1, 2)
    # The last row's rate by the public route, on the full channels; the exit
    # check starts after it.
    steps[-1] = (weighted_sum_rate(channels, vs_full[-1], weights), *steps[-1][1:])
    if bounds is None:
        bounds = compute_bounds(channels, weights, config.p_max, sigma2)
    w_exit = gain_weights(g) if weighted else eye_w  # g is the pass at v_curr
    residual = _stationarity_residual(h, v_curr, w_exit, weights, sigma2, config.p_max, bounds)
    # The objective checkpoints of every iteration, in one pass over the
    # loop's received stacks: the MSE at (U, Vhat) and (U, V), each weighted
    # by W_prev (row t-1's W, the identity before row 1) and by W; three of
    # the four (2, 2, T) values are read.
    w_prevs = np.concatenate([eye_w[None], ws[:-1]])
    f = wmmse_objective(us, np.stack([w_prevs, ws])[None], np.stack([hv_hats, hvs])[:, None],
                        weights, sigma2)
    f_after_u, f_after_w, f_after_v = f[0, 0].tolist(), f[0, 1].tolist(), f[1, 1].tolist()
    records = tuple(
        IterationRecord(t=t, wsr_bits=snap.wsr_bits, total_power=snap.total_power,
                        stage=stage, f_after_u=fu, f_after_w=fw, f_after_v=fv, rel_change=rel)
        for t, ((snap, rel, stage), fu, fw, fv)
        in enumerate(zip(steps, f_after_u, f_after_w, f_after_v), start=1))
    return SolveResult(
        final_precoders=PrecoderSet(vs_full[-1]),
        trace=records,
        iterations=len(records),
        converged=converged,
        stationarity_residual=residual,
        switch_iteration=switch_iteration,
        iterates=tuple(BlockIterate(u, w, v, stage)
                       for (u, w, *_), v, (_, _, stage) in zip(blocks, vs_full, steps)),
    )
