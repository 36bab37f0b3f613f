import math

import mpmath
import numpy as np
import pytest

import wsrbeam as wb
from wsrbeam.errors import ConfigError, DegenerateChannelError
from wsrbeam.model import integer_value, total_power

from conftest import make_system


class TestSystemConfig:
    def test_defaults_and_weights(self):
        cfg = wb.SystemConfig(M=4, N=2, K=3, d=2)
        assert cfg.weights == (1.0, 1.0, 1.0)
        assert cfg.p_max == 10.0

    @pytest.mark.parametrize("kwargs", [
        dict(M=0, N=2, K=2, d=1),
        dict(M=4, N=2, K=2, d=0),
        dict(M=4, N=2, K=2, d=1, p_max=0.0),
        dict(M=4, N=2, K=2, d=1, p_max=-1.0),
        dict(M=4, N=2, K=2, d=1, weights=(1.0,)),
        dict(M=4, N=2, K=2, d=1, weights=(1.0, -1.0)),
        dict(M=4, N=2, K=2, d=1, weights=(1.0, 0.0)),
        dict(M=4, N=2, K=2, d=1, channel_seed=-1),
        dict(M=4, N=2, K=2, d=1, snr_db=math.inf),
        dict(M=4, N=2, K=2, d=1, p_max=True),
        dict(M=4, N=2, K=2, d=1, snr_db="10"),
        dict(M=4, N=2, K=2, d=1, weights=("a", 1.0)),
        dict(M=4, N=2, K=2, d=1, weights=(1.0, False)),
        dict(M=4, N=2, K=1, d=1, weights=5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            wb.SystemConfig(**kwargs)

    def test_integral_floats_accepted_as_int(self):
        # The same values a JSON spec may give.
        cfg = wb.SystemConfig(M=16.0, N=2.0, K=np.int64(3), d=2, channel_seed=4.0)
        assert (cfg.M, cfg.N, cfg.K, cfg.d, cfg.channel_seed) == (16, 2, 3, 2, 4)
        assert all(type(getattr(cfg, name)) is int
                   for name in ("M", "N", "K", "d", "channel_seed", "init_seed"))


class TestIntegerValue:
    @pytest.mark.parametrize("value", [16, np.int32(16), 16.0, np.float64(16.0)])
    def test_integers_pass_as_int(self, value):
        got = integer_value("M", value, 1)
        assert got == 16 and type(got) is int

    @pytest.mark.parametrize("value", [True, 16.5, "16", None, math.inf, math.nan, [16]])
    def test_non_integers_named(self, value):
        with pytest.raises(ConfigError, match="M must be an integer"):
            integer_value("M", value, 1)

    def test_minimum_named(self):
        assert integer_value("seed", 0, 0) == 0
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            integer_value("seed", -1, 0)


class TestGenerateChannels:
    def test_deterministic_bitwise(self):
        cfg = wb.SystemConfig(M=8, N=2, K=4, d=2, channel_seed=7)
        a = wb.generate_channels(cfg).channels
        b = wb.generate_channels(cfg).channels
        assert a.tobytes() == b.tobytes()

    def test_shapes(self):
        cfg = wb.SystemConfig(M=4, N=2, K=3, d=2)
        ch = wb.generate_channels(cfg)
        assert ch.channels.shape == (3, 2, 4)
        assert ch.noise_power == wb.compute_noise_power(ch, cfg.snr_db, cfg)

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
    def test_noise_power_of_its_own_draw(self, snr_db):
        cfg = wb.SystemConfig(M=8, N=2, K=4, d=2, snr_db=snr_db, channel_seed=5)
        ch = wb.generate_channels(cfg)
        expected = wb.compute_noise_power(ch.channels, snr_db, cfg)
        assert np.float64(ch.noise_power).tobytes() == np.float64(expected).tobytes()

    def test_different_seeds_differ(self):
        a = wb.generate_channels(wb.SystemConfig(M=4, N=2, K=2, d=1, channel_seed=0))
        b = wb.generate_channels(wb.SystemConfig(M=4, N=2, K=2, d=1, channel_seed=1))
        assert not np.array_equal(a.channels, b.channels)

    def test_unit_variance_monte_carlo(self):
        # Sample mean of ||H_k||_F^2 / (N M) over 200 realizations.
        norms = []
        for seed in range(200):
            cfg = wb.SystemConfig(M=64, N=4, K=8, d=2, channel_seed=seed)
            h = wb.generate_channels(cfg).channels
            norms.extend(np.sum(np.abs(h) ** 2, axis=(1, 2)) / (cfg.N * cfg.M))
        assert abs(np.mean(norms) - 1.0) < 0.05

    def test_entry_variance_five_percent(self):
        # >= 1e5 complex samples; total variance of each entry should be 1.
        samples = []
        for seed in range(50):
            cfg = wb.SystemConfig(M=64, N=4, K=8, d=2, channel_seed=seed)
            samples.append(wb.generate_channels(cfg).channels.ravel())
        h = np.concatenate(samples)
        assert h.size >= 100_000
        var = np.mean(np.abs(h) ** 2)
        assert abs(var - 1.0) < 0.05
        # circular symmetry: real/imag parts each close to variance 1/2
        assert abs(np.var(h.real) - 0.5) < 0.025
        assert abs(np.var(h.imag) - 0.5) < 0.025


class TestNoisePower:
    def _unit_norm_channels(self, K, N, M):
        # ||H_k||_F^2 = N exactly: identity block, zero elsewhere
        h = np.zeros((K, N, M), dtype=np.complex128)
        for k in range(K):
            h[k, :, :N] = np.eye(N)
        return h

    def test_snr_zero_db(self):
        cfg = wb.SystemConfig(M=6, N=2, K=3, d=1)
        ch = self._unit_norm_channels(3, 2, 6)
        assert wb.compute_noise_power(ch, 0.0, cfg) == pytest.approx(1.0, abs=1e-15)

    def test_snr_ten_db(self):
        cfg = wb.SystemConfig(M=6, N=2, K=3, d=1)
        ch = self._unit_norm_channels(3, 2, 6)
        assert wb.compute_noise_power(ch, 10.0, cfg) == pytest.approx(0.1, rel=1e-14)

    def test_matches_arbitrary_precision_evaluation(self):
        cfg, ch = make_system(seed=3, M=8, N=2, K=4, d=1)
        got = wb.compute_noise_power(ch, cfg.snr_db, cfg)
        mpmath.mp.dps = 50
        acc = mpmath.mpf(0)
        for k in range(cfg.K):
            fro2 = mpmath.mpf(0)
            for x in ch.channels[k].ravel():
                fro2 += mpmath.mpf(x.real) ** 2 + mpmath.mpf(x.imag) ** 2
            acc += mpmath.log10(fro2 / cfg.N)
        expected = mpmath.mpf(10) ** (acc / cfg.K - mpmath.mpf(cfg.snr_db) / 10)
        assert abs(got - float(expected)) <= 1e-12 * float(expected)

    def test_zero_channel_rejected(self):
        h = np.zeros((2, 2, 4), dtype=np.complex128)
        h[0, 0, 0] = 1.0
        cfg = wb.SystemConfig(M=4, N=2, K=2, d=1)
        with pytest.raises(DegenerateChannelError):
            wb.compute_noise_power(h, 10.0, cfg)

    def test_array_and_channel_set_agree(self):
        cfg, ch = make_system(seed=2)
        assert (wb.compute_noise_power(ch, 3.0, cfg)
                == wb.compute_noise_power(np.asarray(ch), 3.0, cfg))

    @pytest.mark.parametrize("snr_db", [True, "10", None, [10.0]])
    def test_non_real_snr_rejected(self, snr_db):
        cfg, ch = make_system()
        with pytest.raises(ConfigError, match="snr_db"):
            wb.compute_noise_power(ch, snr_db, cfg)

    def test_config_of_another_shape_rejected(self):
        # An N = 2 draw with an N = 4 config would read log10(||H_k||^2 / 4).
        cfg, ch = make_system(N=2)
        other = wb.SystemConfig(M=cfg.M, N=4, K=cfg.K, d=cfg.d)
        with pytest.raises(ConfigError, match=r"\(3, 2, 8\).*\(3, 4, 8\)"):
            wb.compute_noise_power(ch, 10.0, other)

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
    def test_matching_config_bit_identical(self, snr_db):
        cfg, ch = make_system(seed=4, M=6, N=3, K=2, d=1)
        fro2 = np.sum(np.abs(ch.channels) ** 2, axis=(1, 2))
        expected = 10.0 ** (float(np.mean(np.log10(fro2 / cfg.N))) - snr_db / 10.0)
        got = wb.compute_noise_power(ch, snr_db, cfg)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestInitPrecoders:
    def test_feasible_any_seed(self):
        for seed in range(5):
            cfg = wb.SystemConfig(M=8, N=2, K=3, d=2, init_seed=seed)
            v = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
            assert v.shape == (3, 8, 2)
            assert total_power(v) <= cfg.p_max * (1 + 1e-12)

    def test_deterministic(self):
        cfg = wb.SystemConfig(M=8, N=2, K=3, d=2, init_seed=11)
        a = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
        b = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
        assert a.tobytes() == b.tobytes()

    def test_infeasible_draw_is_scaled(self):
        # The projection of the raw draw is exactly the scaled draw.
        cfg = wb.SystemConfig(M=8, N=2, K=3, d=2, init_seed=5, p_max=1.0)
        raw = wb.init_precoders(cfg)
        out = wb.project_sum_power(raw, cfg.p_max)
        power = total_power(raw)
        assert power > cfg.p_max  # Gaussian draw at this size is infeasible
        expected = raw * math.sqrt(cfg.p_max / power)
        np.testing.assert_array_equal(out, expected)

    def test_independent_of_channel_stream(self):
        a = wb.init_precoders(wb.SystemConfig(M=4, N=2, K=2, d=1, channel_seed=0, init_seed=9))
        b = wb.init_precoders(wb.SystemConfig(M=4, N=2, K=2, d=1, channel_seed=99, init_seed=9))
        np.testing.assert_array_equal(a, b)


class TestMatrixSets:
    def test_channelset_rejects_nonfinite(self):
        h = np.ones((1, 2, 2), dtype=np.complex128)
        h[0, 0, 0] = np.nan
        with pytest.raises(ConfigError):
            wb.ChannelSet(h, noise_power=1.0)

    def test_channelset_noise_power_positive(self):
        h = np.ones((1, 2, 2), dtype=np.complex128)
        with pytest.raises(ConfigError):
            wb.ChannelSet(h, noise_power=0.0)

    def test_channelset_requires_noise_power(self):
        with pytest.raises(TypeError, match="noise_power"):
            wb.ChannelSet(np.ones((1, 2, 2), dtype=np.complex128))

    @pytest.mark.parametrize("noise_power", [True, "0.5", None, math.inf, math.nan])
    def test_channelset_noise_power_must_be_a_positive_real(self, noise_power):
        h = np.ones((1, 2, 2), dtype=np.complex128)
        with pytest.raises(ConfigError, match="noise_power"):
            wb.ChannelSet(h, noise_power=noise_power)

    def test_arrays_locked(self):
        cfg = wb.SystemConfig(M=4, N=2, K=2, d=1)
        ch = wb.generate_channels(cfg)
        with pytest.raises(ValueError):
            ch.channels[0, 0, 0] = 0.0

    def test_weight_set_requires_hermitian(self):
        w = np.tile(np.eye(2, dtype=np.complex128), (2, 1, 1))
        w[0, 0, 1] = 1e-6
        with pytest.raises(ConfigError):
            wb.WeightMatrixSet(w)

    def test_weight_set_requires_positive_definite(self):
        w = np.tile(np.diag([1.0, -1.0]).astype(np.complex128), (2, 1, 1))
        with pytest.raises(ConfigError):
            wb.WeightMatrixSet(w)

    def test_unweighted_stage_requires_identity(self):
        w = np.tile(2.0 * np.eye(2, dtype=np.complex128), (2, 1, 1))
        with pytest.raises(ConfigError):
            wb.WeightMatrixSet(w, wb.Stage.UNWEIGHTED)
        assert wb.WeightMatrixSet.identity(2, 2).stage_flag is wb.Stage.UNWEIGHTED

    def test_array_protocol(self):
        # NumPy 1.x calls __array__() or __array__(dtype); NumPy 2.x adds copy.
        ch = wb.generate_channels(wb.SystemConfig(M=4, N=2, K=2, d=1))
        v = np.ones((2, 4, 1), dtype=np.complex128)
        w = np.tile(np.eye(1, dtype=np.complex128), (2, 1, 1))
        sets = [ch, wb.PrecoderSet(v), wb.ReceiverSet(np.ones((2, 2, 1), dtype=np.complex128)),
                wb.WeightMatrixSet(w)]
        for obj in sets:
            stack = obj.__array__()
            assert obj.__array__(np.complex128) is stack
            assert obj.__array__(copy=False) is stack
            assert np.asarray(obj) is stack
            copied = obj.__array__(copy=True)
            assert copied is not stack and copied.tobytes() == stack.tobytes()
            assert np.array(obj) is not stack
            assert obj.__array__(np.complex64).dtype == np.complex64

    def test_precoder_power(self):
        v = np.zeros((2, 4, 1), dtype=np.complex128)
        v[0, 0, 0] = 3.0
        v[1, 1, 0] = 4.0j
        assert wb.PrecoderSet(v).total_power() == pytest.approx(25.0, abs=0)
