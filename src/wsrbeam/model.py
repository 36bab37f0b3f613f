"""System configuration, matrix-set data types, and random generation.

The matrix sets validate their (K, ., .) stacks at the public API; the
solvers work on plain arrays, and ``np.asarray`` of a set is its stack.

All generation is a pure function of (config, seed); a channel draw carries
the noise power of the config's SNR.  Channel matrices and initial precoders
are drawn from two independent counter-based Philox streams, so the precoder
initialization can be varied while the channel realization is held fixed
across algorithm comparisons.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateChannelError

#: Generator identity pinned into summary outputs so traces are reproducible
#: across machines running the same numpy version.
RNG_ALGORITHM = "numpy.random.Philox (SeedSequence-keyed)"

# Distinct stream tags keep the channel and initialization draws independent
# even when the two seed integers coincide.
_CHANNEL_STREAM = 0xC4A77E1
_INIT_STREAM = 0x1417C0DE

HERMITIAN_TOL = 1e-10


def real_value(name: str, value) -> float:
    """``value`` as a float if it is a real number; a ConfigError naming
    ``name`` for a boolean or a non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def integer_value(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (an int, a numpy integer or an
    integral float) of at least ``minimum``; a ConfigError naming ``name``
    otherwise.  16 and 16.0 pass; 16.5, True and "16" do not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _rng(seed: int, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=[int(seed), int(stream)])
    return np.random.Generator(np.random.Philox(seq))


class Stage(Enum):
    """Whether the weight matrices are pinned to identity (warm-start stage)
    or actively updated."""

    UNWEIGHTED = 0
    WEIGHTED = 1


@dataclass(frozen=True)
class SystemConfig:
    """Downlink dimensions, power budget, SNR, user priorities, and seeds."""

    M: int  # BS transmit antennas
    N: int  # receive antennas per user
    K: int  # users
    d: int  # data streams per user
    p_max: float = 10.0  # total transmit budget [W]
    snr_db: float = 10.0  # average per-user receive SNR [dB]
    weights: tuple[float, ...] | None = None  # user priorities, default all ones
    channel_seed: int = 0
    init_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("M", "N", "K", "d"):
            object.__setattr__(self, name, integer_value(name, getattr(self, name), 1))
        p_max = real_value("p_max", self.p_max)
        if not (math.isfinite(p_max) and p_max > 0):
            raise ConfigError(f"p_max must be a positive real, got {self.p_max!r}")
        object.__setattr__(self, "p_max", p_max)
        snr_db = real_value("snr_db", self.snr_db)
        if not math.isfinite(snr_db):
            raise ConfigError(f"snr_db must be a finite real, got {self.snr_db!r}")
        object.__setattr__(self, "snr_db", snr_db)
        w = self.weights
        if w is None:
            w = (1.0,) * self.K
        if not isinstance(w, (Sequence, np.ndarray)):
            raise ConfigError(f"weights must be a sequence of positive reals, got {w!r}")
        w = tuple(real_value("weights", x) for x in w)
        if len(w) != self.K:
            raise ConfigError(f"weights must have length K={self.K}, got {len(w)}")
        if any(not (math.isfinite(x) and x > 0) for x in w):
            raise ConfigError("weights must all be strictly positive")
        object.__setattr__(self, "weights", w)
        for name in ("channel_seed", "init_seed"):
            object.__setattr__(self, name, integer_value(name, getattr(self, name), 0))

    @property
    def weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


def total_power(precoders: np.ndarray) -> float:
    """Sum over users of Tr(V_k V_k^H) of a (K, M, d) precoder stack."""
    return float(np.real(np.vdot(precoders, precoders)))


def _matrix_stack(arrays, name: str) -> np.ndarray:
    a = np.array(arrays, dtype=np.complex128, copy=True)
    if a.ndim != 3:
        raise ConfigError(f"{name} must be a stack of matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} contains non-finite entries")
    a.flags.writeable = False
    return a


def _as_array(stack: np.ndarray, dtype, copy) -> np.ndarray:
    """A set's ``__array__``; NumPy 1.x passes no ``copy`` and rejects ``copy=None``."""
    return np.array(stack, dtype=dtype) if copy else np.asarray(stack, dtype=dtype)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Per-user channel matrices H_k (N x M) and their common noise power."""

    channels: np.ndarray  # (K, N, M)
    noise_power: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", _matrix_stack(self.channels, "channels"))
        s2 = real_value("noise_power", self.noise_power)
        if not (math.isfinite(s2) and s2 > 0):
            raise ConfigError(f"noise_power must be positive, got {self.noise_power!r}")
        object.__setattr__(self, "noise_power", s2)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _as_array(self.channels, dtype, copy)

    def with_noise_power(self, noise_power: float) -> "ChannelSet":
        return ChannelSet(self.channels, noise_power)


@dataclass(frozen=True, eq=False)
class PrecoderSet:
    """Per-user transmit precoders V_k (M x d)."""

    precoders: np.ndarray  # (K, M, d)

    def __post_init__(self) -> None:
        object.__setattr__(self, "precoders", _matrix_stack(self.precoders, "precoders"))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _as_array(self.precoders, dtype, copy)

    def total_power(self) -> float:
        """Sum over users of Tr(V_k V_k^H)."""
        return total_power(self.precoders)


@dataclass(frozen=True, eq=False)
class ReceiverSet:
    """Per-user receive combiners U_k (N x d)."""

    receivers: np.ndarray  # (K, N, d)

    def __post_init__(self) -> None:
        object.__setattr__(self, "receivers", _matrix_stack(self.receivers, "receivers"))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _as_array(self.receivers, dtype, copy)


@dataclass(frozen=True, eq=False)
class WeightMatrixSet:
    """Per-user MSE weight matrices W_k (d x d), Hermitian positive definite.

    In the UNWEIGHTED stage the matrices are pinned to the exact identity.
    """

    weight_matrices: np.ndarray  # (K, d, d)
    stage_flag: Stage = Stage.WEIGHTED

    def __post_init__(self) -> None:
        w = _matrix_stack(self.weight_matrices, "weight_matrices")
        if w.shape[1] != w.shape[2]:
            raise ConfigError(f"weight matrices must be square, got {w.shape[1:]}")
        asym = np.max(np.abs(w - np.conj(np.swapaxes(w, -1, -2))))
        if asym > HERMITIAN_TOL:
            raise ConfigError(f"weight matrices not Hermitian (max asymmetry {asym:.3e})")
        eigs = np.linalg.eigvalsh(w)
        if not np.all(eigs > 0):
            raise ConfigError(f"weight matrices must be positive definite (min eig {eigs.min():.3e})")
        if self.stage_flag is Stage.UNWEIGHTED:
            eye = np.broadcast_to(np.eye(w.shape[1], dtype=np.complex128), w.shape)
            if not np.array_equal(w, eye):
                raise ConfigError("UNWEIGHTED stage requires exact identity weight matrices")
        object.__setattr__(self, "weight_matrices", w)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _as_array(self.weight_matrices, dtype, copy)

    @classmethod
    def identity(cls, K: int, d: int) -> "WeightMatrixSet":
        eye = np.tile(np.eye(d, dtype=np.complex128), (K, 1, 1))
        return cls(eye, Stage.UNWEIGHTED)


def generate_channels(config: SystemConfig) -> ChannelSet:
    """Draw i.i.d. circularly symmetric complex Gaussian channels.

    Entries have zero mean and unit total variance (real and imaginary parts
    each carry variance 1/2), so E ||H_k||_F^2 = N * M.  The noise power is
    :func:`compute_noise_power` of the draw at ``config.snr_db``.
    """
    rng = _rng(config.channel_seed, _CHANNEL_STREAM)
    shape = (config.K, config.N, config.M)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
    return ChannelSet(h, compute_noise_power(h, config.snr_db, config))


def check_channel_shape(channels: np.ndarray, config: SystemConfig) -> None:
    """A ConfigError naming both shapes unless the stack ``channels`` has the
    config's (K, N, M) shape."""
    if channels.shape != (config.K, config.N, config.M):
        raise ConfigError(f"channels have shape (K, N, M) = {channels.shape}, but the config "
                          f"has (K, N, M) = {(config.K, config.N, config.M)}")


def compute_noise_power(channels, snr_db: float, config: SystemConfig) -> float:
    """Common noise power giving the requested average per-user receive SNR.

    sigma^2 = 10^{(1/K) sum_k log10(||H_k||_F^2 / N)} * 10^{-SNR/10},
    i.e. the geometric mean of the per-antenna channel gains of the (K, N, M)
    stack ``channels`` (an array or a :class:`ChannelSet`) scaled by the SNR
    in linear units.  The stack's shape must be the config's (K, N, M).
    """
    snr_db = real_value("snr_db", snr_db)
    h = np.asarray(channels)
    check_channel_shape(h, config)
    fro2 = np.sum(np.abs(h) ** 2, axis=(1, 2))
    if np.any(fro2 <= 0.0):
        raise DegenerateChannelError("channel matrix with zero Frobenius norm")
    exponent = float(np.mean(np.log10(fro2 / h.shape[1]))) - snr_db / 10.0
    return float(10.0 ** exponent)


def init_precoders(config: SystemConfig) -> np.ndarray:
    """Raw (K, M, d) Gaussian draw for the initial precoders.

    It may exceed the power budget; the solvers project it onto the
    sum-power ball (:func:`wsrbeam.solvers.project_sum_power`) before the
    first iteration.
    """
    rng = _rng(config.init_seed, _INIT_STREAM)
    shape = (config.K, config.M, config.d)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
