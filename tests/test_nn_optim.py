import numpy as np
import pytest

from nvmdtd.errors import ParameterError
from nvmdtd.nn.optim import AdamState, adam_step


def test_zero_gradient_leaves_params_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState.for_params(params)
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
    np.testing.assert_array_equal(params["w"], before)


def test_first_step_is_signed_learning_rate():
    params = {"w": np.zeros(4)}
    state = AdamState.for_params(params)
    g = np.array([1.0, -1.0, 2.0, -0.5])
    adam_step(params, {"w": g}, state, lr=1e-3)
    np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-6)


def test_minimizes_scalar_quadratic():
    params = {"w": np.array([1.0])}
    state = AdamState.for_params(params)
    for _ in range(5000):
        grad = {"w": 2.0 * params["w"]}
        adam_step(params, grad, state, lr=1e-2)
        if abs(params["w"][0]) < 1e-3:
            break
    assert abs(params["w"][0]) < 1e-3


def test_state_counts_steps():
    params = {"w": np.zeros(2)}
    state = AdamState.for_params(params)
    for k in range(3):
        adam_step(params, {"w": np.ones(2)}, state)
    assert state.step == 3


def test_rejects_mismatched_blocks():
    params = {"w": np.zeros(2)}
    state = AdamState.for_params(params)
    with pytest.raises(ParameterError):
        adam_step(params, {"v": np.zeros(2)}, state)


def test_rejects_gradient_of_another_shape():
    params = {"w": np.zeros(2)}
    state = AdamState.for_params(params)
    with pytest.raises(ParameterError, match=r"gradient shape \(3,\) != param shape \(2,\) for w"):
        adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"], np.zeros(2))
