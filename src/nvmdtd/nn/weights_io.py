"""Weight files: a text manifest followed by raw little-endian float64 data.

Layout::

    nvmdtd-weights-v1
    kind mlp
    n 71
    hidden 284
    seed 12345
    block layer1.weights 284 71
    block layer1.bias 284
    ...
    data
    <concatenated row-major float64 blocks, little-endian, manifest order>

Loading requires the declared blocks to equal ``param_shapes`` of the
manifest's ``kind``, ``n`` and ``hidden`` in names, shapes and order, and
the payload to hold exactly their bytes, before it builds any array; a
malformed manifest, a truncated or padded payload, or a non-finite
parameter raises :class:`FormatError` without producing a partial model.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import FormatError, ParameterError
from .models import MODELS, param_shapes

WEIGHTS_MAGIC = "nvmdtd-weights-v1"


def save_weights(model, path, seed: int | None = None, n: int | None = None) -> None:
    """Write the model to ``path``; ``seed`` and ``n`` are recorded as metadata.

    ``n`` defaults to the MLP's input width.  It is required for the RNN,
    whose weights do not fix a block length.
    """
    if n is None:
        n = model.n
    if n is None:
        raise ParameterError(f"saving an {model.kind} model needs the block length n")
    if model.n not in (None, n):
        raise ParameterError(f"n={n} contradicts the model's input width {model.n}")
    lines = [
        WEIGHTS_MAGIC,
        f"kind {model.kind}",
        f"n {n}",
        f"hidden {model.hidden_size}",
        f"seed {'none' if seed is None else int(seed)}",
    ]
    blocks = model.param_blocks()
    for name, arr in blocks:
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"block {name} {dims}")
    lines.append("data")
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in blocks)
    Path(path).write_bytes("\n".join(lines).encode() + b"\n" + payload)


def read_weight_manifest(path) -> dict:
    """Parse the text manifest of a weight file; ``payload`` holds the bytes after it."""
    raw = Path(path).read_bytes()
    marker = b"\ndata\n"
    cut = raw.find(marker)
    if cut < 0:
        raise FormatError(f"{path}: no data section marker")
    header = raw[:cut].decode(errors="replace").splitlines()
    if not header or header[0] != WEIGHTS_MAGIC:
        raise FormatError(f"{path}: bad or missing magic line")
    meta: dict = {"blocks": []}
    for line in header[1:]:
        try:
            key, *values = line.split()
            if key == "block":
                name, *dims = values
                meta["blocks"].append((name, tuple(int(d) for d in dims)))
            elif key in ("kind", "seed"):
                (meta[key],) = values
            elif key in ("n", "hidden"):
                (value,) = values
                meta[key] = int(value)
            else:
                raise FormatError(f"{path}: unrecognized manifest line {line!r}")
        except ValueError:
            raise FormatError(f"{path}: malformed manifest line {line!r}")
    for key in ("kind", "n", "hidden", "seed"):
        if key not in meta:
            raise FormatError(f"{path}: manifest is missing {key!r}")
    meta["payload"] = raw[cut + len(marker):]
    return meta


def load_weights(path):
    """Reconstruct a model from a weight file; round-trips are bit-exact."""
    meta = read_weight_manifest(path)
    kind, n, hidden = meta["kind"], meta["n"], meta["hidden"]
    try:
        shapes = param_shapes(kind, n, hidden)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}")
    if meta["blocks"] != shapes:
        raise FormatError(f"{path}: blocks do not match a {kind} model with n {n}, hidden {hidden}")
    raw = meta["payload"]
    # Python integers: a declared size can exceed int64, and must fail here, unallocated.
    sizes = [math.prod(shape) for _, shape in shapes]
    nbytes = 8 * sum(sizes)
    if len(raw) < nbytes:
        raise FormatError(f"{path}: truncated payload, {len(raw)} of {nbytes} bytes")
    if len(raw) > nbytes:
        raise FormatError(f"{path}: {len(raw) - nbytes} trailing bytes after last block")
    params = {}
    offset = 0
    for (name, shape), size in zip(shapes, sizes):
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += 8 * size
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: block {name} has non-finite entries")
        params[name] = arr.astype(np.float64)  # a writable copy: training resumes on it
    return MODELS[kind](params)
