"""Property tests of the exit-code contract: any input ends in 0, 2, 3 or 4, never in a traceback."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from nvmdtd.cli import main

RANGE_MESSAGE = ("a channel needs -1e+50 <= mu0 < mu1 <= 1e+50, sigmas in [1e-50, 1e+50], "
                 "|mu_b| <= 1e+50 and sigma_b in [0, 1e+50] (kOhm)")

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


_COUNT = st.integers(-2, 200)
# Each channel key is any finite value or one near the default channel, so that
# many cases run to the end.
_RUN_CHANNELS = st.fixed_dictionaries({}, optional={
    key: st.one_of(st.floats(lo, hi), _FINITE) for key, lo, hi in [
        ("mu0", 0.5, 1.5), ("mu1", 1.5, 3.0), ("ratio", 0.01, 0.3), ("mu_b", -0.5, 0.5),
        ("sigma_b_over_mu1", 0.0, 0.1)]
} | {"noise_model": st.sampled_from(["gaussian", "centered-beta"])})
# Detector rows that need no weight file, so no case starts the network's tile pool.
_PLAIN_DETECTORS = st.lists(st.sampled_from(
    ["midpoint", "opt-no-offset", "opt-mean-offset", "opt-full", "optimum-bound", "genie"]),
    max_size=3)
_TRIGGERS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("periodic"), "period": _COUNT}),
    st.fixed_dictionaries({"kind": st.just("on_failure"), "threshold": st.floats(-0.5, 1.5)}))


@st.composite
def _runs(draw):
    """A command that draws blocks, with any finite channel and counts from -2 to 200."""
    command = draw(st.sampled_from(["gen", "eval", "dtd", "session"]))
    doc = {"n": draw(_COUNT)}
    channel = draw(_RUN_CHANNELS)
    if command == "session":
        doc["session"] = {"segments": [{"start_block": draw(st.one_of(st.just(0), _COUNT)),
                                        "channel": channel}],
                          "total_blocks": draw(_COUNT), "m_blocks": draw(_COUNT),
                          "trigger": draw(_TRIGGERS)}
    else:
        doc["channel"] = channel
        doc[command] = {"blocks": draw(_COUNT)}
        if command == "eval":
            doc["eval"]["detectors"] = draw(_PLAIN_DETECTORS)
    return command, doc


# Each case draws at most 200 x 200 reads and starts no thread or process.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(run=_runs())
def test_block_drawing_commands_end_in_a_documented_exit_code(tmp_path_factory, run):
    command, doc = run
    base = tmp_path_factory.getbasetemp()
    cfg, out = base / "run.json", base / "run-out"
    cfg.write_text(json.dumps(doc))
    genie = ["--genie"] if command in ("dtd", "session") else []
    printed, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg), "--out", str(out)] + genie)
    if rc == 0:
        assert (out / "config-resolved.json").is_file()
        shutil.rmtree(out)
    else:
        assert rc in (2, 3, 4)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert not out.exists()


# Finite channel values whose float arithmetic would overflow or divide by an
# underflowed 0 are outside the accepted range: the error line names the range
# and the channel, and the run exits 2.
@pytest.mark.parametrize("noise_model, key, value, shown", [
    ("gaussian", "mu_b", 1e300, "mu_b=1e+300"),
    ("centered-beta", "mu_b", 1e300, "mu_b=1e+300"),
    ("gaussian", "ratio", 1e-300, "sigma0=1e-300, sigma1=2e-300"),
    ("centered-beta", "ratio", 1e-300, "sigma0=1e-300, sigma1=2e-300"),
], ids=["gaussian-mu_b", "beta-mu_b", "gaussian-ratio", "beta-ratio"])
def test_float_range_failure_names_computation_and_channel(tmp_path, capsys, noise_model,
                                                            key, value, shown):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"channel": {key: value, "noise_model": noise_model}}))
    assert main(["analytic", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {RANGE_MESSAGE}, got the channel mu0=1, mu1=2, "), err
    assert shown in err and err.count("\n") == 1, err
