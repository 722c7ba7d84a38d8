import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmdtd import channel
from nvmdtd.channel import (
    BETA_MEAN,
    BETA_SHAPE_RATIO,
    BETA_VARIANCE_SUP,
    ChannelParams,
    NoiseModel,
    QuantizerSpec,
    beta_alpha_for_sigma,
    derive_sigmas,
    quantize,
    sample_block_matrix,
    save_dataset,
    superblock_stream,
)
from nvmdtd.errors import ParameterError


class TestDeriveSigmas:
    def test_reference_ratio(self):
        assert derive_sigmas(1.0, 2.0, 0.05) == (0.05, 0.10)

    def test_linearity(self):
        s0, s1 = derive_sigmas(1.0, 2.0, 0.12)
        np.testing.assert_allclose([s0, s1], [0.12, 0.24])

    def test_zero_ratio_rejected(self):
        with pytest.raises(ParameterError):
            derive_sigmas(1.0, 2.0, 0.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ParameterError):
            derive_sigmas(-1.0, 2.0, 0.05)


class TestBetaAlpha:
    def test_reference_value_and_residual(self):
        alpha = beta_alpha_for_sigma(0.05)
        assert alpha == pytest.approx(44.6243425995, abs=1e-6)
        beta = BETA_SHAPE_RATIO * alpha
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1))
        assert abs(var - 0.05 ** 2) < 1e-12

    def test_alpha_one_inversion(self):
        sigma = math.sqrt(BETA_VARIANCE_SUP / (1 + 2.2))
        assert beta_alpha_for_sigma(sigma) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_sigma(self):
        with pytest.raises(ParameterError, match="below"):
            beta_alpha_for_sigma(0.6)


class TestChannelParams:
    def test_ratio_constructor_keeps_convention(self):
        p = ChannelParams.from_ratio(0.08)
        assert p.sigma0 / p.mu0 == pytest.approx(p.sigma1 / p.mu1)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            ChannelParams(2.0, 1.0, 0.05, 0.1)

    def test_beta_params_validated_at_construction(self):
        with pytest.raises(ParameterError):
            ChannelParams(1.0, 2.0, 0.05, 0.55, noise_model=NoiseModel.CENTERED_BETA)

    def test_accepted_range_edges(self):
        big, small = channel.CHANNEL_MAX_KOHM, channel.SIGMA_MIN_KOHM
        ChannelParams(-big, big, small, big, offset_mu_b=-big, offset_sigma_b=big)
        beyond = [dict(mu1=2.0 * big), dict(mu0=-2.0 * big), dict(sigma0=0.5 * small),
                  dict(sigma1=2.0 * big), dict(offset_mu_b=2.0 * big),
                  dict(offset_sigma_b=2.0 * big), dict(sigma0=0.0), dict(sigma1=math.nan)]
        for change in beyond:
            values = dict(mu0=1.0, mu1=2.0, sigma0=0.05, sigma1=0.1) | change
            with pytest.raises(ParameterError, match=r"a channel needs .*\(kOhm\), got the channel"):
                ChannelParams(**values)

    def test_range_is_checked_before_the_beta_shape(self):
        with pytest.raises(ParameterError, match=r"sigmas in \[1e-50, 1e\+50\]"):
            ChannelParams.from_ratio(1e-200, noise_model=NoiseModel.CENTERED_BETA)

    def test_hash_distinguishes_params(self):
        a = ChannelParams.from_ratio(0.05)
        b = ChannelParams.from_ratio(0.05, mu_b=-0.2)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == ChannelParams.from_ratio(0.05).content_hash()


def state0_noise(noise_model: NoiseModel, seed: int) -> np.ndarray:
    """Variation of the sampler's state-0 reads: over 1M draws from 29k blocks."""
    p = ChannelParams.from_ratio(0.05, noise_model=noise_model)
    x, y = sample_block_matrix(p, 71, 29_000, seed)
    draws = y[x == 0] - p.mu0
    assert draws.size >= 1_000_000
    return draws


@pytest.fixture(scope="module")
def beta_state0_noise() -> np.ndarray:
    return state0_noise(NoiseModel.CENTERED_BETA, seed=2)


class TestSampleNoise:
    def test_gaussian_mean_near_zero(self):
        draws = state0_noise(NoiseModel.GAUSSIAN, seed=1)
        assert abs(draws.mean()) < 4 * 0.05 / math.sqrt(draws.size)

    def test_beta_variance_matches(self, beta_state0_noise):
        draws = beta_state0_noise
        assert draws.var() == pytest.approx(0.05 ** 2, rel=0.02)
        assert abs(draws.mean()) < 5 * 0.05 / math.sqrt(draws.size)

    def test_beta_is_skewed(self, beta_state0_noise):
        draws = beta_state0_noise
        skew = np.mean(((draws - draws.mean()) / draws.std()) ** 3)
        assert abs(skew) > 0.01


class TestSampleBlock:
    def test_noise_free_limit(self):
        p = ChannelParams(1.0, 2.0, 1e-9, 2e-9)
        x, y = sample_block_matrix(p, 500, 1, seed=7)
        np.testing.assert_allclose(y, np.where(x == 1, 2.0, 1.0), atol=1e-7)

    def test_pure_mean_offset(self):
        p = ChannelParams(1.0, 2.0, 0.05, 0.10, offset_mu_b=-0.2, offset_sigma_b=0.0)
        x, y = sample_block_matrix(p, 71, 15_000, seed=11)
        ones = y[x == 1]
        se = 0.10 / math.sqrt(ones.size)
        assert abs(ones.mean() - 1.8) < 5 * se

    def test_state_conditional_moments(self, offset_channel):
        x, y = sample_block_matrix(offset_channel, 71, 15_000, seed=13)
        zeros = y[x == 0]
        ones = y[x == 1]
        p = offset_channel
        assert abs(zeros.mean() - p.mu0) < 5 * p.sigma0 / math.sqrt(zeros.size)
        assert abs(zeros.var() - p.sigma0 ** 2) < 5 * p.sigma0 ** 2 * math.sqrt(2 / zeros.size)
        var1 = p.sigma1 ** 2 + p.offset_sigma_b ** 2
        assert abs(ones.mean() - (p.mu1 + p.offset_mu_b)) < 5 * math.sqrt(var1 / ones.size)
        assert abs(ones.var() - var1) < 5 * var1 * math.sqrt(2 / ones.size)

    def test_determinism(self, offset_channel):
        xa, ya = sample_block_matrix(offset_channel, 71, 1, seed=99, start=5)
        xb, yb = sample_block_matrix(offset_channel, 71, 1, seed=99, start=5)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_matrix_rows_match_single_blocks(self, offset_channel):
        x, y = sample_block_matrix(offset_channel, 31, 6, seed=42, start=3)
        for i in range(6):
            xi, yi = sample_block_matrix(offset_channel, 31, 1, seed=42, start=3 + i)
            np.testing.assert_array_equal(x[i], xi[0])
            np.testing.assert_array_equal(y[i], yi[0])

    def test_split_generation_equals_sequential(self, offset_channel):
        """Generation in slices reproduces the one-pass dataset."""
        x_all, y_all = sample_block_matrix(offset_channel, 16, 10, seed=5)
        x_a, y_a = sample_block_matrix(offset_channel, 16, 4, seed=5, start=0)
        x_b, y_b = sample_block_matrix(offset_channel, 16, 6, seed=5, start=4)
        np.testing.assert_array_equal(np.vstack([x_a, x_b]), x_all)
        np.testing.assert_array_equal(np.vstack([y_a, y_b]), y_all)

    def test_beta_block_smoke(self):
        p = ChannelParams.from_ratio(0.08, mu_b=-0.2, sigma_b_over_mu1=0.07,
                                     noise_model=NoiseModel.CENTERED_BETA)
        _, y = sample_block_matrix(p, 71, 1, seed=0)
        assert np.all(np.isfinite(y))


K = 64  # blocks per super-block, a constant of the stream scheme


def _reference_superblock(params: ChannelParams, n: int, seed: int, k: int):
    """Super-block ``k`` by its definition: the documented draws from one stream."""
    rng = superblock_stream(seed, k)
    shape = (K, n)
    x = rng.integers(0, 2, size=shape, dtype=np.uint8)
    one = x == 1
    if params.noise_model is NoiseModel.GAUSSIAN:
        noise = np.where(one, params.sigma1, params.sigma0) * rng.standard_normal(shape)
    else:
        a = np.where(one, beta_alpha_for_sigma(params.sigma1), beta_alpha_for_sigma(params.sigma0))
        noise = rng.beta(a, BETA_SHAPE_RATIO * a) - BETA_MEAN
    offset = params.offset_mu_b + params.offset_sigma_b * rng.standard_normal(shape)
    y = np.where(one, params.mu1, params.mu0) + noise + np.where(one, offset, 0.0)
    return x, y


def _reference_blocks(params, n, nblocks, seed, start=0):
    """Block ``i`` is row ``i % 64`` of reference super-block ``i // 64``."""
    supers = {}
    rows = []
    for i in range(start, start + nblocks):
        k, row = divmod(i, K)
        if k not in supers:
            supers[k] = _reference_superblock(params, n, seed, k)
        rows.append((supers[k][0][row], supers[k][1][row]))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


_SEEDS = [0, 2**64 - 1, 10**41]
_STARTS = [0, 63, 64, 65, 64 * 2**32]
_MODELS = [ChannelParams.from_ratio(0.1, mu_b=-0.2, sigma_b_over_mu1=0.04),
           ChannelParams.from_ratio(0.08, mu_b=-0.2, sigma_b_over_mu1=0.04,
                                    noise_model=NoiseModel.CENTERED_BETA)]
# Channels without offset spread draw no offset, while the reference still draws it last.
_NO_SPREAD = [ChannelParams.from_ratio(ratio, mu_b=mu_b, noise_model=model)
              for ratio, model in ((0.1, NoiseModel.GAUSSIAN), (0.08, NoiseModel.CENTERED_BETA))
              for mu_b in (0.0, -0.0, -0.2, 0.3)]
_NO_SPREAD_IDS = [f"{p.noise_model.value}-mu_b={p.offset_mu_b}" for p in _NO_SPREAD]


@pytest.fixture
def built_streams(monkeypatch):
    """Records the ``(seed, k)`` of every super-block stream the sampler builds."""
    built = []

    def recording(seed, k):
        built.append((seed, k))
        return superblock_stream(seed, k)

    monkeypatch.setattr(channel, "superblock_stream", recording)
    return built


class TestBulkSeeding:
    """The sampler equals the super-block definition, 64 blocks per stream, byte for byte."""

    @pytest.mark.parametrize("params", _MODELS + _NO_SPREAD,
                             ids=["gaussian", "centered-beta", *_NO_SPREAD_IDS])
    @pytest.mark.parametrize("n", [*range(1, 10), 16, 71, 100])
    def test_matrix_equals_per_block_reference(self, params, n):
        for seed in _SEEDS:
            for start in _STARTS:
                x, y = sample_block_matrix(params, n, 66, seed, start=start)
                x_ref, y_ref = _reference_blocks(params, n, 66, seed, start)
                assert x.dtype == np.uint8 and y.dtype == np.float64
                assert x.flags.c_contiguous and y.flags.c_contiguous
                assert x.tobytes() == x_ref.tobytes(), (seed, start)
                assert y.tobytes() == y_ref.tobytes(), (seed, start)

    @pytest.mark.parametrize("params", _MODELS, ids=["gaussian", "centered-beta"])
    def test_sliced_and_chunked_calls_equal_the_reference(self, params):
        x_ref, y_ref = _reference_blocks(params, 71, 200, seed=2024, start=100)
        x_one, y_one = sample_block_matrix(params, 71, 200, 2024, start=100)
        assert x_one.tobytes() == x_ref.tobytes()
        assert y_one.tobytes() == y_ref.tobytes()
        for chunk in (1, 3, 63, 64, 65, 100):
            parts = [sample_block_matrix(params, 71, min(chunk, 200 - lo), 2024, start=100 + lo)
                     for lo in range(0, 200, chunk)]
            assert np.vstack([p[0] for p in parts]).tobytes() == x_ref.tobytes(), chunk
            assert np.vstack([p[1] for p in parts]).tobytes() == y_ref.tobytes(), chunk

    @pytest.mark.parametrize("start, nblocks, supers", [
        (0, 0, []), (65, 0, []), (0, 1, [0]), (63, 1, [0]), (63, 2, [0, 1]),
        (64, 64, [1]), (65, 64, [1, 2]), (0, 129, [0, 1, 2]), (64 * 2**32 + 5, 3, [2**32]),
    ])
    def test_call_builds_the_streams_it_covers(self, built_streams, offset_channel,
                                               start, nblocks, supers):
        sample_block_matrix(offset_channel, 8, nblocks, 7, start=start)
        assert built_streams == [(7, k) for k in supers]

    def test_request_beyond_memory_fails_before_drawing(self, built_streams, offset_channel):
        """The outputs are allocated first, so an absurd size draws nothing."""
        with pytest.raises(MemoryError, match="Unable to allocate"):
            sample_block_matrix(offset_channel, 71, 10**15, 1)
        assert built_streams == []

    def test_empty_and_invalid_requests(self, offset_channel):
        x, y = sample_block_matrix(offset_channel, 5, 0, seed=1)
        assert x.shape == y.shape == (0, 5)
        for kwargs in ({"seed": -1}, {"seed": 1, "start": -1}):
            with pytest.raises(ParameterError, match="non-negative"):
                sample_block_matrix(offset_channel, 5, 2, **kwargs)
        with pytest.raises(ParameterError):
            sample_block_matrix(offset_channel, 0, 2, seed=1)
        with pytest.raises(ParameterError):
            sample_block_matrix(offset_channel, 5, -1, seed=1)


class _RecordingStream:
    """A super-block stream that records each draw call by name and arguments."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self._calls.append((name, args, kwargs))
            return draw(*args, **kwargs)
        return recorded


class TestDrawOrder:
    """Each super-block's draws, by name and shape: the v3 scheme."""

    @pytest.mark.parametrize("n", [1, 71])
    @pytest.mark.parametrize("params", _MODELS + _NO_SPREAD[:1] + _NO_SPREAD[4:5],
                             ids=["gaussian", "centered-beta", "gaussian-no-offset-spread",
                                  "centered-beta-no-offset-spread"])
    def test_draws_per_superblock(self, monkeypatch, params, n):
        calls = []
        monkeypatch.setattr(channel, "superblock_stream",
                            lambda seed, k: _RecordingStream(superblock_stream(seed, k), calls))
        sample_block_matrix(params, n, 3, seed=5, start=62)  # two super-blocks
        names = [name for name, _, _ in calls]
        # The offset is drawn last, and only when it has a spread.
        offset = ["standard_normal"] if params.offset_sigma_b > 0 else []
        if params.noise_model is NoiseModel.GAUSSIAN:
            assert names == (["integers", "standard_normal"] + offset) * 2
            return
        assert names == (["integers", "beta"] + offset) * 2
        for name, args, kwargs in calls:
            if name == "beta":
                assert kwargs == {} and len(args) == 2
                assert [np.shape(arg) for arg in args] == [(K, n), (K, n)]

    def test_beta_variates_follow_each_state_law(self):
        """A fixed-seed KS test of the raw Beta(a_s, 1.2 a_s) variates of each state."""
        from scipy.stats import kstest

        p = ChannelParams.from_ratio(0.12, noise_model=NoiseModel.CENTERED_BETA)
        x, y = sample_block_matrix(p, 71, 1000, seed=19)
        states = ((0, p.mu0, p.sigma0, p.sigma1), (1, p.mu1, p.sigma1, p.sigma0))
        for state, mu, sigma, other in states:
            draws = y[x == state] - mu + BETA_MEAN
            assert draws.size > 30_000
            a = beta_alpha_for_sigma(sigma)
            assert kstest(draws, "beta", args=(a, BETA_SHAPE_RATIO * a)).pvalue > 0.01, state
            # The test has the power to tell the two states' laws apart.
            a = beta_alpha_for_sigma(other)
            assert kstest(draws, "beta", args=(a, BETA_SHAPE_RATIO * a)).pvalue < 1e-6, state


class TestQuantizer:
    def test_clamp_to_first_midpoint(self):
        assert quantize(0.0, QuantizerSpec(3, 0.5, 2.5)) == pytest.approx(0.625)

    def test_boundary_goes_up(self):
        assert quantize(1.5, QuantizerSpec(3, 0.5, 2.5)) == pytest.approx(1.625)

    def test_half_step_bound(self):
        spec = QuantizerSpec(4, 0.5, 2.5)
        rng = np.random.default_rng(0)
        y = rng.uniform(0.5, 2.5, size=100_000)
        err = np.abs(y - quantize(y, spec))
        assert err.max() <= (2.5 - 0.5) / 2 ** 5 + 1e-12

    @settings(deadline=None)
    @given(
        a=st.floats(-1, 4, allow_nan=False),
        b=st.floats(-1, 4, allow_nan=False),
        bits=st.integers(1, 6),
    )
    def test_monotone_and_idempotent(self, a, b, bits):
        spec = QuantizerSpec(bits, 0.5, 2.5)
        qa, qb = quantize(a, spec), quantize(b, spec)
        if a <= b:
            assert qa <= qb
        assert quantize(qa, spec) == qa

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            QuantizerSpec(0, 0.5, 2.5)
        with pytest.raises(ParameterError):
            QuantizerSpec(53, 0.5, 2.5)
        assert QuantizerSpec(52, 0.5, 2.5).levels == 2 ** 52
        with pytest.raises(ParameterError):
            QuantizerSpec(3, 2.5, 0.5)

    def test_range_beyond_the_channel_range_rejected(self):
        # [-1e308, 1e308] would give infinite cells and map every read to inf.
        with pytest.raises(ParameterError, match=r"-1e\+50 <= lo < hi <= 1e\+50"):
            QuantizerSpec(3, -1e308, 1e308)
        big = channel.CHANNEL_MAX_KOHM
        assert np.isfinite(quantize(np.array([-2.0 * big, 0.0, 2.0 * big]),
                                    QuantizerSpec(3, -big, big))).all()


class TestDatasetIO:
    def test_round_trip(self, tmp_path, offset_channel):
        """The file holds each block's bits exactly and its reads to 9 significant digits."""
        x, y = sample_block_matrix(offset_channel, 16, 5, seed=1)
        path = tmp_path / "data.txt"
        save_dataset(path, x, y, offset_channel)
        lines = path.read_text().splitlines()[1:]
        assert lines[0::2] == ["".join(str(b) for b in bits) for bits in x]
        reads = np.array([[float(v) for v in line.split()] for line in lines[1::2]])
        np.testing.assert_allclose(reads, y, rtol=1e-8)

    def test_header_format(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        save_dataset(path, *sample_block_matrix(offset_channel, 8, 1, seed=1), offset_channel)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "nvmdtd-v1"
        assert header[1] == "8"
        assert header[2] == "1"
        assert header[3] == offset_channel.content_hash()

    def test_save_rejects_shape_mismatch(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        with pytest.raises(ParameterError, match="one shape"):
            save_dataset(path, np.zeros((1, 3)), np.ones((1, 4)), offset_channel)
        with pytest.raises(ParameterError, match="one shape"):
            save_dataset(path, np.zeros(3), np.ones(3), offset_channel)
        with pytest.raises(ParameterError, match="empty"):
            save_dataset(path, np.zeros((0, 3)), np.ones((0, 3)), offset_channel)
        assert not path.exists()

    def test_save_rejects_non_finite(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        with pytest.raises(ParameterError, match="non-finite"):
            save_dataset(path, np.zeros((1, 2)), np.array([[1.0, np.inf]]), offset_channel)
        assert not path.exists()
