import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nvmdtd.cli import main
from nvmdtd.errors import FormatError, ParameterError
from nvmdtd.nn.models import create_model
from nvmdtd.nn.weights_io import load_weights, read_weight_manifest, save_weights

STORED = Path(__file__).resolve().parents[1] / "perfbench" / "weights"


@pytest.fixture(params=["mlp", "rnn"])
def small_model(request):
    rng = np.random.default_rng(31)
    if request.param == "mlp":
        return create_model("mlp", 6, rng)
    return create_model("rnn", 6, rng, hidden=5)


def test_save_load_save_bytes_identical(tmp_path, small_model):
    p1 = tmp_path / "a.nvmw"
    p2 = tmp_path / "b.nvmw"
    save_weights(small_model, p1, seed=9, n=6)
    loaded = load_weights(p1)
    save_weights(loaded, p2, seed=9, n=6)
    assert p1.read_bytes() == p2.read_bytes()


def test_forward_identical_after_round_trip(tmp_path, small_model):
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    loaded = load_weights(path)
    y = np.random.default_rng(0).uniform(0.5, 2.5, size=6)
    np.testing.assert_array_equal(small_model.forward(y), loaded.forward(y))


def test_manifest_fields(tmp_path):
    model = create_model("mlp", 4, np.random.default_rng(0))
    path = tmp_path / "m.nvmw"
    save_weights(model, path, seed=123)
    meta = read_weight_manifest(path)
    assert meta["kind"] == "mlp"
    assert meta["n"] == 4
    assert meta["hidden"] == 16
    assert meta["seed"] == "123"
    assert [name for name, _ in meta["blocks"]] == [
        "layer1.weights", "layer1.bias", "layer2.weights", "layer2.bias",
    ]


def test_truncated_file_rejected(tmp_path, small_model):
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(FormatError, match="truncated"):
        load_weights(path)


def test_trailing_bytes_rejected(tmp_path, small_model):
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError, match="trailing"):
        load_weights(path)


def test_bad_magic_rejected(tmp_path, small_model):
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    raw = path.read_bytes()
    path.write_bytes(b"not-a-weight-file" + raw)
    with pytest.raises(FormatError):
        load_weights(path)


def test_shape_mismatch_rejected(tmp_path):
    model = create_model("mlp", 4, np.random.default_rng(0))
    path = tmp_path / "m.nvmw"
    save_weights(model, path)
    text = path.read_bytes()
    # claim a different input width than the payload provides
    corrupted = text.replace(b"n 4", b"n 5", 1)
    path.write_bytes(corrupted)
    with pytest.raises(FormatError):
        load_weights(path)


def test_missing_data_marker(tmp_path):
    path = tmp_path / "m.nvmw"
    path.write_bytes(b"nvmdtd-weights-v1\nkind mlp\n")
    with pytest.raises(FormatError, match="data section"):
        load_weights(path)


def test_loaded_arrays_are_writable(tmp_path, small_model):
    # training resumes on loaded models, so parameters must be mutable
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    loaded = load_weights(path)
    for _, arr in loaded.param_blocks():
        arr += 1.0


def test_mlp_n_must_be_its_input_width(tmp_path):
    path = tmp_path / "m.nvmw"
    with pytest.raises(ParameterError, match="contradicts"):
        save_weights(create_model("mlp", 4, np.random.default_rng(0)), path, n=5)
    assert not path.exists()


def test_rnn_n_is_required(tmp_path):
    model = create_model("rnn", 16, np.random.default_rng(0), hidden=5)
    path = tmp_path / "m.nvmw"
    with pytest.raises(ParameterError, match="block length"):
        save_weights(model, path)
    assert not path.exists()
    save_weights(model, path, n=16)
    assert read_weight_manifest(path)["n"] == 16


def _nan_first_entry(raw: bytes) -> bytes:
    """Poison the first entry of the first block (a GRU block or a dense block)."""
    start = raw.index(b"\ndata\n") + 6
    return raw[:start] + np.array([np.nan], dtype="<f8").tobytes() + raw[start + 8:]


def _declare_hidden_1e10(raw: bytes) -> bytes:
    """Make a hidden-5 RNN's manifest declare hidden 1e10 throughout, keeping the short payload."""
    cut = raw.index(b"\ndata\n")
    lines = [b" ".join(b"10000000000" if tok == b"5" else tok for tok in line.split(b" "))
             if line.startswith((b"block ", b"hidden ")) else line
             for line in raw[:cut].split(b"\n")]
    return b"\n".join(lines) + raw[cut:]


@pytest.mark.parametrize("small_model, corrupt", [
    ("mlp", lambda raw: raw.replace(b"\nseed", b"\n\nseed", 1)),
    ("mlp", lambda raw: raw.replace(b"\nn 6\n", b"\nn x\n", 1)),
    ("mlp", lambda raw: raw.replace(b"\nhidden 24\n", b"\nhidden\n", 1)),
    ("mlp", lambda raw: raw.replace(b"\nkind mlp\n", b"\nkind lstm\n", 1)),
    ("rnn", lambda raw: raw.replace(b"block gru1.w_z 5 1", b"block gru1.w_z 5 one", 1)),
    ("rnn", lambda raw: raw.replace(b"block gru1.w_z 5 1", b"block", 1)),
    ("rnn", lambda raw: raw.replace(b"\nhidden 5\n", b"\nhidden 100000000\n", 1)),
    ("rnn", _nan_first_entry),
    ("mlp", _nan_first_entry),
    ("rnn", lambda raw: raw.replace(b"\nhidden 5\n", b"\nhidden 0\n", 1)),
    ("mlp", lambda raw: raw.replace(b"\nn 6\n", b"\nn 0\n", 1)),
    ("rnn", lambda raw: raw.replace(b"block gru1.u_z 5 5", b"block gru1.u_z 3 3", 1)),
    ("rnn", _declare_hidden_1e10),
    ("mlp", lambda raw: raw.replace(b"\nseed none\n", b"\n", 1)),
], indirect=["small_model"], ids=["blank-line", "n-not-int", "hidden-no-value", "unknown-kind",
                                  "dim-not-int", "block-no-name", "absurd-hidden", "nan-gru",
                                  "nan-dense", "hidden-zero", "mlp-n-zero", "gru-block-shape",
                                  "declared-hidden-1e10", "no-seed-line"])
def test_malformed_weight_file_exits_4(tmp_path, small_model, corrupt):
    path = tmp_path / "m.nvmw"
    save_weights(small_model, path, n=6)
    path.write_bytes(corrupt(path.read_bytes()))
    assert main(["dtd", "--weights", str(path), "--out", str(tmp_path / "out")]) == 4


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_stored_weights_resave_identically(tmp_path, kind):
    entry = json.loads((STORED / "manifest.json").read_text())[kind]
    path = STORED / entry["file"]
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == entry["sha256"]
    meta = read_weight_manifest(path)
    copy = tmp_path / entry["file"]
    save_weights(load_weights(path), copy, seed=int(meta["seed"]), n=meta["n"])
    assert copy.read_bytes() == raw
