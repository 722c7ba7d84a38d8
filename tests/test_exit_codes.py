"""Property tests of the exit-code contract: any input ends in 0, 2, 3 or 4, never in a traceback."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from nvmdtd.cli import main

# Every finite float: negatives, zeros and subnormals included.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)

_CHANNEL_SECTIONS = st.fixed_dictionaries({}, optional={
    "mu0": _FINITE,
    "mu1": _FINITE,
    "ratio": _FINITE,
    "mu_b": _FINITE,
    "sigma_b_over_mu1": _FINITE,
    "noise_model": st.sampled_from(["gaussian", "centered-beta", "laplace"]),
})


# `analytic` takes no --out and draws no blocks, so no case allocates by size
# or starts a thread.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(channel=_CHANNEL_SECTIONS)
def test_analytic_channel_ends_in_a_documented_exit_code(tmp_path_factory, channel):
    cfg = tmp_path_factory.getbasetemp() / "analytic-channel.json"
    cfg.write_text(json.dumps({"channel": channel}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["analytic", "--config", str(cfg)])
    if rc == 0:
        assert "opt-full" in out.getvalue()
    else:
        assert rc in (2, 3, 4)
        assert err.getvalue().startswith("error: "), err.getvalue()
