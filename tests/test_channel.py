import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmdtd.channel import (
    BETA_SHAPE_RATIO,
    BETA_VARIANCE_SUP,
    Block,
    ChannelParams,
    NoiseModel,
    QuantizerSpec,
    beta_alpha_for_sigma,
    block_stream,
    derive_sigmas,
    load_dataset,
    quantize,
    sample_block,
    sample_block_matrix,
    sample_noise,
    save_dataset,
)
from nvmdtd.errors import FormatError, ParameterError


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

    def test_hash_distinguishes_params(self):
        a = ChannelParams.from_ratio(0.05)
        b = ChannelParams.from_ratio(0.05, mu_b=-0.2)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == ChannelParams.from_ratio(0.05).content_hash()


class TestSampleNoise:
    def test_gaussian_mean_near_zero(self):
        rng = np.random.default_rng(1)
        p = ChannelParams.from_ratio(0.05)
        draws = sample_noise(p, 0, rng, size=1_000_000)
        assert abs(draws.mean()) < 4 * 0.05 / 1000

    def test_beta_variance_matches(self):
        rng = np.random.default_rng(2)
        p = ChannelParams.from_ratio(0.05, noise_model=NoiseModel.CENTERED_BETA)
        draws = sample_noise(p, 0, rng, size=1_000_000)
        assert draws.var() == pytest.approx(0.05 ** 2, rel=0.02)
        assert abs(draws.mean()) < 5 * 0.05 / 1000

    def test_beta_is_skewed(self):
        rng = np.random.default_rng(3)
        p = ChannelParams.from_ratio(0.05, noise_model=NoiseModel.CENTERED_BETA)
        draws = sample_noise(p, 0, rng, size=1_000_000)
        skew = np.mean(((draws - draws.mean()) / draws.std()) ** 3)
        assert abs(skew) > 0.01

    def test_bad_state(self):
        with pytest.raises(ParameterError):
            sample_noise(ChannelParams.from_ratio(0.05), 2, np.random.default_rng(0))


class TestSampleBlock:
    def test_noise_free_limit(self):
        p = ChannelParams(1.0, 2.0, 1e-9, 2e-9)
        blk = sample_block(p, 500, np.random.default_rng(7))
        expect = np.where(blk.x == 1, 2.0, 1.0)
        np.testing.assert_allclose(blk.y, expect, atol=1e-7)

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
        a = sample_block(offset_channel, 71, block_stream(99, 5))
        b = sample_block(offset_channel, 71, block_stream(99, 5))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_matrix_rows_match_single_blocks(self, offset_channel):
        x, y = sample_block_matrix(offset_channel, 31, 6, seed=42, start=3)
        for i in range(6):
            blk = sample_block(offset_channel, 31, block_stream(42, 3 + i))
            np.testing.assert_array_equal(x[i], blk.x)
            np.testing.assert_array_equal(y[i], blk.y)

    def test_split_generation_equals_sequential(self, offset_channel):
        """Chunked generation across workers reproduces the sequential dataset."""
        x_all, y_all = sample_block_matrix(offset_channel, 16, 10, seed=5)
        x_a, y_a = sample_block_matrix(offset_channel, 16, 4, seed=5, start=0)
        x_b, y_b = sample_block_matrix(offset_channel, 16, 6, seed=5, start=4)
        np.testing.assert_array_equal(np.vstack([x_a, x_b]), x_all)
        np.testing.assert_array_equal(np.vstack([y_a, y_b]), y_all)

    def test_beta_block_smoke(self):
        p = ChannelParams.from_ratio(0.08, mu_b=-0.2, sigma_b_over_mu1=0.07,
                                     noise_model=NoiseModel.CENTERED_BETA)
        blk = sample_block(p, 71, block_stream(0, 0))
        assert np.all(np.isfinite(blk.y))


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
            QuantizerSpec(3, 2.5, 0.5)


class TestDatasetIO:
    def test_round_trip(self, tmp_path, offset_channel):
        blocks = [sample_block(offset_channel, 16, block_stream(1, i)) for i in range(5)]
        path = tmp_path / "data.txt"
        save_dataset(path, blocks, offset_channel)
        loaded = load_dataset(path, offset_channel)
        assert len(loaded) == 5
        for orig, back in zip(blocks, loaded):
            np.testing.assert_array_equal(orig.x, back.x)
            np.testing.assert_allclose(orig.y, back.y, rtol=1e-8)

    def test_header_format(self, tmp_path, offset_channel):
        blocks = [sample_block(offset_channel, 8, block_stream(1, 0))]
        path = tmp_path / "data.txt"
        save_dataset(path, blocks, offset_channel)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "nvmdtd-v1"
        assert header[1] == "8"
        assert header[2] == "1"
        assert header[3] == offset_channel.content_hash()

    def test_params_mismatch_detected(self, tmp_path, offset_channel):
        blocks = [sample_block(offset_channel, 8, block_stream(1, 0))]
        path = tmp_path / "data.txt"
        save_dataset(path, blocks, offset_channel)
        other = ChannelParams.from_ratio(0.10)
        with pytest.raises(FormatError, match="different channel"):
            load_dataset(path, other)

    def test_truncated_file(self, tmp_path, offset_channel):
        blocks = [sample_block(offset_channel, 8, block_stream(1, i)) for i in range(3)]
        path = tmp_path / "data.txt"
        save_dataset(path, blocks, offset_channel)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    @pytest.mark.parametrize("header", ["nvmdtd-v1 x 1 0", "nvmdtd-v1 8 1.5 0"])
    def test_non_integer_header_count(self, tmp_path, header):
        path = tmp_path / "data.txt"
        path.write_text(header + "\n01010101\n" + " ".join(["1.0"] * 8) + "\n")
        with pytest.raises(FormatError, match="non-integer"):
            load_dataset(path)


class TestBlock:
    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            Block(x=np.zeros(3, dtype=np.uint8), y=np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            Block(x=np.zeros(2, dtype=np.uint8), y=np.array([1.0, np.inf]))
