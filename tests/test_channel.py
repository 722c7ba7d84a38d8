import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmdtd.channel import (
    BETA_SHAPE_RATIO,
    BETA_VARIANCE_SUP,
    ChannelParams,
    NoiseModel,
    QuantizerSpec,
    beta_alpha_for_sigma,
    derive_sigmas,
    load_dataset,
    quantize,
    sample_block_matrix,
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


class TestDatasetIO:
    def test_round_trip(self, tmp_path, offset_channel):
        x, y = sample_block_matrix(offset_channel, 16, 5, seed=1)
        path = tmp_path / "data.txt"
        save_dataset(path, x, y, offset_channel)
        x_back, y_back = load_dataset(path, offset_channel)
        assert x_back.dtype == np.uint8 and x_back.shape == (5, 16)
        np.testing.assert_array_equal(x, x_back)
        np.testing.assert_allclose(y, y_back, rtol=1e-8)

    def test_header_format(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        save_dataset(path, *sample_block_matrix(offset_channel, 8, 1, seed=1), offset_channel)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "nvmdtd-v1"
        assert header[1] == "8"
        assert header[2] == "1"
        assert header[3] == offset_channel.content_hash()

    def test_params_mismatch_detected(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        save_dataset(path, *sample_block_matrix(offset_channel, 8, 1, seed=1), offset_channel)
        other = ChannelParams.from_ratio(0.10)
        with pytest.raises(FormatError, match="different channel"):
            load_dataset(path, other)

    def test_truncated_file(self, tmp_path, offset_channel):
        path = tmp_path / "data.txt"
        save_dataset(path, *sample_block_matrix(offset_channel, 8, 3, seed=1), offset_channel)
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

    @pytest.mark.parametrize("read", ["inf", "nan", "1.0x"])
    def test_load_rejects_bad_read(self, tmp_path, read):
        path = tmp_path / "data.txt"
        path.write_text(f"nvmdtd-v1 2 1 0\n01\n1.0 {read}\n")
        with pytest.raises(FormatError, match="read in block 0"):
            load_dataset(path)

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
