"""Property tests of the exit-code contract: any input ends in 0, 2, 3 or 4, never in a traceback."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nvmdtd import harness
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


def _check_run(base, command: str, doc: dict, flags=()) -> int:
    """Run ``command`` on ``doc`` with ``--out`` under ``base``; a refusal prints one
    ``error:`` line and leaves no ``--out``.  Returns the exit code."""
    cfg, out = base / "run.json", base / "run-out"
    cfg.write_text(json.dumps(doc))
    printed, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg), "--out", str(out), *flags])
    if rc == 0:
        assert (out / "config-resolved.json").is_file()
        shutil.rmtree(out)
    else:
        assert rc in (2, 3, 4)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert not out.exists()
    return rc


# Each case draws at most 200 x 200 reads and starts no thread or process.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(run=_runs())
def test_block_drawing_commands_end_in_a_documented_exit_code(tmp_path_factory, run):
    command, doc = run
    genie = ["--genie"] if command in ("dtd", "session") else []
    _check_run(tmp_path_factory.getbasetemp(), command, doc, genie)


STORED = Path(__file__).resolve().parents[1] / "perfbench" / "weights"
_NETWORK_FLAGS = st.sampled_from([[], ["--weights-rnn", str(STORED / "weights-rnn.nvmw")],
                                  ["--weights-mlp", str(STORED / "weights-mlp.nvmw")],
                                  ["--weights-mlp", str(STORED / "weights-rnn.nvmw")]])


@st.composite
def _train_and_sweep_runs(draw):
    """A ``train`` or ``sweep`` run with counts from -2 to 8 and tiny sizes.

    Half the cases draw only counts and sizes from 1 to 8 and keep the default
    channel, so that many of them run: to the end, or to a divergence.
    """
    live = draw(st.booleans())
    count = st.integers(1 if live else -2, 8)
    size = count if live else st.one_of(st.none(), count)  # null: the default width
    doc = {"n": draw(count), "channel": {} if live else draw(_RUN_CHANNELS)}
    if draw(st.booleans()):
        # Learning rates inside the accepted range (any positive finite number) and beyond.
        rates = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        doc["train"] = {"kind": draw(st.sampled_from(["mlp", "rnn"] + ["lstm"] * (not live))),
                        "hidden": draw(size), "minibatch_blocks": draw(size),
                        "learning_rate": draw(st.one_of(st.floats(1e-4, 1.0), rates,
                                                        st.sampled_from([1e200, 1e300]))
                                              if live else st.floats()),
                        **{k: draw(count) for k in ("epochs", "train_blocks", "validation_blocks")}}
        return "train", doc, []
    values = st.lists(st.floats(0.01, 0.3) if live else st.one_of(st.floats(0.01, 0.3), _FINITE),
                      min_size=live, max_size=2)
    doc["sweep"] = {"ratios": draw(values), "mu_b_values": draw(values),
                    "detectors": draw(st.lists(st.sampled_from(
                        ["midpoint", "opt-full", "optimum-bound", "genie", "mlp", "rnn",
                         "dtd-mlp", "dtd-rnn"] + ["lstm"] * (not live)), min_size=live, max_size=3)),
                    "blocks": draw(count), "calib_blocks": draw(count)}
    return "sweep", doc, draw(_NETWORK_FLAGS)


# A case trains at most 8 epochs of 8 blocks, or sweeps 4 points of 8 blocks; its
# recurrent forwards have fewer rows than a tile, so no thread is started.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(run=_train_and_sweep_runs())
def test_train_and_sweep_end_in_a_documented_exit_code(tmp_path_factory, run):
    _check_run(tmp_path_factory.getbasetemp(), *run)


_RNN_BYTES = (STORED / "weights-rnn.nvmw").read_bytes()
_MANIFEST_BITS = 8 * (_RNN_BYTES.index(b"\ndata\n") + len(b"\ndata\n"))


@st.composite
def _damaged_weight_runs(draw):
    """The stored RNN's weight file, truncated or with one bit flipped, used by an
    ``eval`` or ``sweep`` network row or by ``dtd`` or ``session --weights``."""
    if draw(st.booleans()):
        damaged = _RNN_BYTES[:draw(st.integers(0, len(_RNN_BYTES) - 1))]
    else:
        bit = draw(st.one_of(st.integers(0, _MANIFEST_BITS - 1),
                             st.integers(0, 8 * len(_RNN_BYTES) - 1)))
        damaged = bytearray(_RNN_BYTES)
        damaged[bit // 8] ^= 1 << bit % 8
    command = draw(st.sampled_from(["eval", "sweep", "dtd", "session"]))
    doc = {"n": draw(st.integers(1, 8))}
    section = {"blocks": draw(st.integers(1, 8))}
    if command == "session":
        section = {"total_blocks": draw(st.integers(1, 16)), "m_blocks": draw(st.integers(1, 8)),
                   "trigger": {"kind": "periodic", "period": draw(st.integers(1, 8))}}
    elif command != "dtd":
        section |= {"calib_blocks": draw(st.integers(1, 8)),
                    "detectors": draw(st.lists(st.sampled_from(["midpoint", "rnn", "dtd-rnn"]),
                                               min_size=1, max_size=3))}
    doc[command] = section
    return command, doc, bytes(damaged)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(run=_damaged_weight_runs())
def test_damaged_weight_file_ends_in_a_documented_exit_code(tmp_path_factory, run):
    command, doc, damaged = run
    base = tmp_path_factory.getbasetemp()
    weights = base / "damaged.nvmw"
    weights.write_bytes(damaged)
    flags = {"eval": [], "sweep": ["--weights-rnn", str(weights)],
             "dtd": ["--weights", str(weights)], "session": ["--weights", str(weights)]}[command]
    if command == "eval":
        doc["eval"]["weights"] = {"rnn": str(weights)}
    assert _check_run(base, command, doc, flags) in (0, 4)


_MLP = str(STORED / "weights-mlp.nvmw")  # an MLP that reads blocks of 71 bits


@st.composite
def _mlp_runs_of_another_width(draw):
    """The stored MLP in an ``eval`` or ``sweep`` row, or as ``dtd``'s or ``session``'s
    labeler, at a block length other than 71."""
    command = draw(st.sampled_from(["eval", "sweep", "dtd", "session"]))
    doc = {"n": draw(st.integers(1, 300).filter(lambda n: n != 71))}
    flags = [] if command == "eval" else [
        "--weights-mlp" if command == "sweep" else "--weights", _MLP]
    if command == "session":
        doc["session"] = {"total_blocks": draw(st.integers(1, 200))}
        return command, doc, flags
    doc[command] = {"blocks": draw(st.integers(1, 200))}
    if command != "dtd":
        rows = draw(st.lists(st.sampled_from(["midpoint", "opt-full", "genie"]), max_size=2))
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["mlp", "dtd-mlp"])))
        doc[command] |= {"detectors": rows}
    if command == "eval":
        doc["eval"]["weights"] = {"mlp": _MLP}
    return command, doc, flags


# Every case is refused while its networks are loaded, before any block is drawn.
@settings(derandomize=True, deadline=None, max_examples=50)
@given(run=_mlp_runs_of_another_width())
def test_network_of_another_width_exits_4(tmp_path_factory, run):
    def never(*args, **kwargs):
        raise AssertionError("a block was drawn before the networks were loaded")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "sample_block_matrix", never)
        assert _check_run(tmp_path_factory.getbasetemp(), *run) == 4


# Sizes beyond the 128 TiB address space (2**47 bytes), up to beyond numpy's index range.
_BEYOND = st.integers(2**48, 2**70)


@st.composite
def _runs_beyond_the_address_space(draw):
    """A ``gen``, ``train`` or ``sweep`` run whose sizes are drawn from beyond the
    address space for a nonempty set of the keys that size an array the run
    allocates whole, and from 1 to 8 for the other keys.

    ``sweep.blocks`` is not drawn: a sweep scores its blocks in chunks of 2048, so a
    large count takes time, not memory.
    """
    command = draw(st.sampled_from(["gen", "train", "sweep"]))
    keys = {"gen": ["n", "blocks"], "train": ["n", "train_blocks", "validation_blocks", "hidden"],
            "sweep": ["n", "calib_blocks"]}[command]
    huge = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    sizes = {key: draw(_BEYOND if key in huge else st.integers(1, 8)) for key in keys}
    doc = {"n": sizes.pop("n"), command: sizes}
    flags = []
    if command == "train":
        doc["train"] |= {"kind": draw(st.sampled_from(["mlp", "rnn"])), "epochs": 1}
    elif command == "sweep":
        # The dtd-rnn row samples its calibration blocks whole, before any block is scored.
        doc["sweep"] |= {"ratios": [0.1], "blocks": 8, "detectors": ["midpoint", "dtd-rnn"]}
        flags = ["--weights-rnn", str(STORED / "weights-rnn.nvmw")]
    return command, doc, flags


# Each case fails at its first allocation, which the kernel refuses without touching a
# page, or before it, where a size is beyond numpy's index range.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(run=_runs_beyond_the_address_space())
def test_sizes_beyond_the_address_space_exit_2(tmp_path_factory, run):
    assert _check_run(tmp_path_factory.getbasetemp(), *run) == 2


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
