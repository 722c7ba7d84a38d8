import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmdtd.analytic import optimal_threshold_bisection
from nvmdtd.channel import QuantizerSpec, sample_block_matrix
from nvmdtd.detectors import (
    GenieDetector,
    NnDetector,
    ThresholdDetector,
    dtd_search,
    hard_decision,
    threshold_detect,
)
from nvmdtd.errors import ParameterError


def brute_force_objective(reads, labels, r_grid):
    """Grid evaluation of the DTD objective, the oracle for the exact sweep."""
    y = np.asarray(reads, dtype=float).ravel()
    l = np.asarray(labels).ravel()
    return np.array([np.count_nonzero((y >= r).astype(int) != l) for r in r_grid])


class TestHardDecision:
    def test_boundary_rule(self):
        np.testing.assert_array_equal(hard_decision([0.1, 0.9, 0.5]), [0, 1, 0])

    def test_all_zero(self):
        np.testing.assert_array_equal(hard_decision(np.zeros(5)), np.zeros(5))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
    def test_idempotent_on_bits(self, bits):
        once = hard_decision(np.array(bits, dtype=float))
        np.testing.assert_array_equal(hard_decision(once.astype(float)), once)


class TestThresholdDetect:
    def test_basic(self):
        np.testing.assert_array_equal(threshold_detect([1.0, 2.0], 1.5), [0, 1])

    def test_extremes(self):
        y = np.array([1.1, 1.5, 1.9])
        np.testing.assert_array_equal(threshold_detect(y, 0.0), [1, 1, 1])
        np.testing.assert_array_equal(threshold_detect(y, 5.0), [0, 0, 0])

    def test_boundary_decides_one(self):
        np.testing.assert_array_equal(threshold_detect([1.5], 1.5), [1])

    @settings(deadline=None)
    @given(
        ys=st.lists(st.floats(0, 3, allow_nan=False), min_size=1, max_size=16),
        r1=st.floats(0, 3, allow_nan=False),
        r2=st.floats(0, 3, allow_nan=False),
    )
    def test_monotone_in_threshold(self, ys, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        a = threshold_detect(np.array(ys), lo)
        b = threshold_detect(np.array(ys), hi)
        # raising the threshold can only flip decisions one -> zero
        assert np.all(b <= a)


class TestDtdSearch:
    def test_single_block_hand_case(self):
        res = dtd_search([[1.0, 2.0]], [[0, 1]])
        assert res.objective == 0
        assert res.interval == (1.0, 2.0)
        assert res.r_adj == 1.5

    def test_zero_achievable_contains_generating_threshold(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.5, 2.5, size=(20, 16))
        labels = threshold_detect(y, 1.5)
        res = dtd_search(y, labels)
        assert res.objective == 0
        assert res.interval[0] < 1.5 <= res.interval[1]

    def test_all_ones_pins_left_edge(self):
        res = dtd_search([[1.0, 1.5, 2.0]], [[1, 1, 1]])
        assert res.objective == 0
        assert res.r_adj == 1.0
        assert res.interval == (-np.inf, 1.0)

    def test_all_zeros_pins_right_edge(self):
        res = dtd_search([[1.0, 1.5, 2.0]], [[0, 0, 0]])
        assert res.objective == 0
        assert res.r_adj > 2.0
        assert res.interval == (2.0, np.inf)

    def test_widest_interval_tie_break(self):
        # objective 0 on both (1.0, 1.1) and (1.4, 2.0); the widest wins
        res = dtd_search([[1.0, 1.1, 1.4, 2.0]], [[0, 1, 0, 1]])
        assert res.objective == 1
        assert res.interval == (1.4, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            dtd_search(np.empty((0, 0)), np.empty((0, 0)))

    def test_mismatched_sizes(self):
        with pytest.raises(ParameterError):
            dtd_search([[1.0, 2.0]], [[1]])

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        m = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 8))
        # reads on a coarse grid force ties and repeated values
        reads = data.draw(
            st.lists(
                st.lists(st.sampled_from([0.8, 1.0, 1.2, 1.5, 1.8, 2.0]), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        labels = data.draw(
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
        )
        res = dtd_search(reads, labels)
        grid = np.linspace(0.5, 2.3, 1000)
        oracle = brute_force_objective(reads, labels, grid)
        assert res.objective == oracle.min()
        # the returned threshold itself achieves the optimum
        y = np.asarray(reads, dtype=float).ravel()
        l = np.asarray(labels).ravel()
        achieved = np.count_nonzero(threshold_detect(y, res.r_adj) != l)
        assert achieved == res.objective

    def test_genie_labels_approach_optimum(self, active_offset_channel):
        opt = optimal_threshold_bisection(active_offset_channel)
        x, y = sample_block_matrix(active_offset_channel, 71, 1000, seed=2024)
        res = dtd_search(y, x)
        assert abs(res.r_adj - opt.r_th) < 0.02

    def test_objective_dominates_fixed_threshold(self, active_offset_channel):
        opt = optimal_threshold_bisection(active_offset_channel)
        x, y = sample_block_matrix(active_offset_channel, 71, 300, seed=55)
        res = dtd_search(y, x)
        at_opt = int(np.count_nonzero(threshold_detect(y, opt.r_th) != x))
        assert res.objective <= at_opt


class TestDetectWithNn:
    def test_trained_model_recovers_bits(self, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        x, y = sample_block_matrix(params, 8, 50, seed=777)
        assert np.count_nonzero(NnDetector(model)(y) != x) == 0

    def test_soft_values_in_unit_interval(self, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        _, y = sample_block_matrix(params, 8, 10, seed=3)
        soft = model.forward(y)
        assert np.all(soft > 0) and np.all(soft < 1)

    def test_deterministic(self, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        _, y = sample_block_matrix(params, 8, 4, seed=9)
        soft = model.forward(y)
        np.testing.assert_array_equal(soft, model.forward(y))
        np.testing.assert_array_equal(NnDetector(model)(y), hard_decision(soft))

    def test_quantized_path(self, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        x, y = sample_block_matrix(params, 8, 50, seed=11)
        out = NnDetector(model, QuantizerSpec(4, 0.5, 2.5))(y)
        # four-bit reads keep the easy channel fully separable
        assert np.count_nonzero(out != x) == 0


class TestBatchDetectors:
    def test_threshold_detector_ignores_truth(self):
        det = ThresholdDetector(1.5)
        y = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(det(y), [[0, 1]])

    def test_genie_returns_truth(self):
        det = GenieDetector()
        x = np.array([[0, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(det(np.zeros((1, 3)), x), x)

    def test_genie_requires_truth(self):
        with pytest.raises(ParameterError):
            GenieDetector()(np.zeros((1, 3)))
