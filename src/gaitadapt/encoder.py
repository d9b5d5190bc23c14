"""Set encoder for silhouette sequences.

A sequence is encoded as embed(pyramid(set_pool({frame_encode(x_k)}))):
each frame is split into horizontal bands and passed through two shared
affine+ReLU layers, frames are aggregated by an element-wise max (order
invariant), and the pooled map is read out by a multi-scale strip pyramid
whose concatenated output is L2-normalized.

One batched forward pass (encode_batch) serves training, bank building and
evaluation; it returns a trace that the hand-written reverse-mode pass
(encode_backward) reuses. Gradients are validated against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .files import write_text_atomic
from .numerics import NORM_EPS, DegenerateInputError

CHECKPOINT_VERSION = 1

# frames per forward-only chunk in encode_sequences: about 2 MB of float64
# activations at 24x24, so encoding a large bank keeps peak memory flat
CHUNK_FRAMES = 256


@dataclass(frozen=True)
class EncoderShape:
    """Hyper-shape of the encoder; parameter layout is a pure function of it."""

    height: int = 16
    width: int = 16
    bands: int = 4
    channels: int = 8
    scales: int = 2
    embed_dim: int = 24

    def __post_init__(self):
        for name in ("height", "width", "bands", "channels", "scales", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.height % self.bands != 0:
            raise ValueError(f"height {self.height} not divisible by bands {self.bands}")
        if self.bands % (2 ** (self.scales - 1)) != 0:
            raise ValueError(
                f"bands {self.bands} not divisible by 2^(scales-1) = {2 ** (self.scales - 1)}"
            )
        if self.embed_dim % self.n_strips != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by strip count {self.n_strips}"
            )

    @property
    def band_rows(self) -> int:
        return self.height // self.bands

    @property
    def band_pixels(self) -> int:
        return self.band_rows * self.width

    @property
    def n_strips(self) -> int:
        # scale s contributes 2^(s-1) strips, s = 1..scales
        return 2 ** self.scales - 1

    @property
    def strip_dim(self) -> int:
        return self.embed_dim // self.n_strips

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "width": self.width,
            "bands": self.bands,
            "channels": self.channels,
            "scales": self.scales,
            "embed_dim": self.embed_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderShape":
        return cls(**d)


@dataclass
class SilhouetteSequence:
    """One walk: (K, H, W) binary frames plus its identity/condition/view tags."""

    frames: np.ndarray
    sample_id: str
    identity: str | None = None
    condition: str = "NM"
    view: str = "000"
    domain: str = ""

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 3 or f.shape[0] < 1:
            raise ValueError(f"frames must be (K>=1, H, W), got shape {f.shape}")
        vals = np.unique(f)
        if not np.all(np.isin(vals, (0, 1))):
            raise ValueError(f"sample {self.sample_id}: frames must be binary 0/1")
        self.frames = f.astype(np.uint8)

    @property
    def length(self) -> int:
        return self.frames.shape[0]


def _param_layout(shape: EncoderShape) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, dims) layout; fixes init draw order and accumulation order."""
    layout = [
        ("frame.weight", (shape.channels, shape.band_pixels)),
        ("frame.bias", (shape.channels,)),
        ("mix.weight", (shape.channels, shape.channels)),
        ("mix.bias", (shape.channels,)),
    ]
    for t in range(shape.n_strips):
        layout.append((f"strip{t}.weight", (shape.strip_dim, shape.channels)))
        layout.append((f"strip{t}.bias", (shape.strip_dim,)))
    return layout


@dataclass
class EncoderParams:
    """All learnable tensors, addressable by name."""

    shape: EncoderShape
    tensors: dict[str, np.ndarray]

    def names(self) -> list[str]:
        return [name for name, _ in _param_layout(self.shape)]

    def count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.shape, {k: v.copy() for k, v in self.tensors.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def init_params(shape: EncoderShape, rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    tensors: dict[str, np.ndarray] = {}
    for name, dims in _param_layout(shape):
        if name.endswith(".bias"):
            tensors[name] = np.zeros(dims, dtype=np.float64)
        else:
            fan_out, fan_in = dims
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-bound, bound, size=dims)
    return EncoderParams(shape, tensors)


def _strip_slices(shape: EncoderShape) -> list[tuple[int, int, int]]:
    """(band_start, band_stop, strip_index) for every strip, scale-major order."""
    out = []
    t = 0
    for s in range(1, shape.scales + 1):
        groups = 2 ** (s - 1)
        size = shape.bands // groups
        for g in range(groups):
            out.append((g * size, (g + 1) * size, t))
            t += 1
    return out


def _affine_relu(a: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """relu(a @ weight.T + bias), stacked over a's leading axis, in place."""
    z = a @ weight.T
    z += bias
    return np.maximum(z, 0.0, out=z)


@dataclass
class EncoderTrace:
    """One batched forward pass: the embeddings and the activations that the
    backward pass reuses. Frames of all sequences are stacked in input order."""

    starts: np.ndarray          # (n,) index of each sequence's first frame
    x: np.ndarray               # (F, B, P) band inputs
    u: np.ndarray               # (F, B, C) frame layer output
    v: np.ndarray               # (F, B, C) mixing layer output
    pooled: np.ndarray          # (n, B, C) max over each sequence's frames
    strip_means: list[np.ndarray]  # per strip, (n, C)
    norms: np.ndarray           # (n,) pre-normalization norms
    embeddings: np.ndarray      # (n, d) unit-norm rows


def encode_batch(seqs: list[SilhouetteSequence], params: EncoderParams) -> EncoderTrace:
    """Encode a batch in one pass over the stacked frames, max-pool each
    sequence over its own frames, and read all pooled maps out together.

    Every matmul is stacked per frame or per sequence, so an embedding is
    bitwise independent of frame order and of the rest of the batch: the
    BLAS kernel, and with it the rounding, can change with the row count of
    a single large product.
    """
    shape = params.shape
    if len(seqs) == 0:
        raise ValueError("encode_batch needs at least one sequence")
    for seq in seqs:
        if seq.frames.shape[1:] != (shape.height, shape.width):
            raise ValueError(
                f"sample {seq.sample_id}: frame shape {seq.frames.shape[1:]} does not"
                f" match encoder ({shape.height}, {shape.width})"
            )
    lengths = np.array([seq.length for seq in seqs])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # consecutive image rows form a band, so each frame reshapes to (B, P)
    x = np.concatenate([seq.frames for seq in seqs]).reshape(-1, shape.bands, shape.band_pixels)
    x = x.astype(np.float64)
    u = _affine_relu(x, params["frame.weight"], params["frame.bias"])
    v = _affine_relu(u, params["mix.weight"], params["mix.bias"])
    pooled = np.maximum.reduceat(v, starts, axis=0)

    strip_means, pieces = [], []
    for b0, b1, t in _strip_slices(shape):
        m = pooled[:, b0:b1].mean(axis=1)
        strip_means.append(m)
        pieces.append((params[f"strip{t}.weight"] @ m[:, :, None])[:, :, 0]
                      + params[f"strip{t}.bias"])
    pre_norm = np.concatenate(pieces, axis=1)
    norms = np.sqrt((pre_norm[:, None, :] @ pre_norm[:, :, None])[:, 0, 0])
    dead = np.flatnonzero(norms <= NORM_EPS)
    if dead.size:
        i = int(dead[0])
        raise DegenerateInputError(
            f"sample {seqs[i].sample_id}: cannot normalize embedding with norm {norms[i]!r}"
        )
    return EncoderTrace(starts=starts, x=x, u=u, v=v, pooled=pooled,
                        strip_means=strip_means, norms=norms,
                        embeddings=pre_norm / norms[:, None])


def encode_sequence(seq: SilhouetteSequence, params: EncoderParams) -> np.ndarray:
    """Unit-norm embedding of one sequence; invariant to frame order."""
    return encode_batch([seq], params).embeddings[0]


def encode_sequences(seqs: list[SilhouetteSequence], params: EncoderParams) -> np.ndarray:
    """(n, d) embeddings in input order, encoded in chunks of at most
    CHUNK_FRAMES frames (a longer sequence is a chunk of its own)."""
    rows, chunk, frames = [], [], 0
    for seq in seqs:
        if chunk and frames + seq.length > CHUNK_FRAMES:
            rows.append(encode_batch(chunk, params).embeddings)
            chunk, frames = [], 0
        chunk.append(seq)
        frames += seq.length
    rows.append(encode_batch(chunk, params).embeddings)
    return np.concatenate(rows)


def encode_backward(
    seqs: list[SilhouetteSequence],
    params: EncoderParams,
    grad_embeddings: list[np.ndarray] | np.ndarray,
    trace: EncoderTrace | None = None,
) -> dict[str, np.ndarray]:
    """Gradient of sum_i <grad_i, encode(seq_i)> with respect to every parameter.

    trace is encode_batch(seqs, params) from the same parameters; without
    it the forward pass runs here. Max pooling routes each cell's gradient
    to the lowest-index winning frame; ReLU uses subgradient 0 at 0. Sums
    over sequences and frames are fixed by the input order, so results are
    deterministic.
    """
    grad_embeddings = list(grad_embeddings)
    if len(seqs) != len(grad_embeddings):
        raise ValueError(
            f"{len(seqs)} sequences but {len(grad_embeddings)} embedding gradients"
        )
    shape = params.shape
    for seq, demb in zip(seqs, grad_embeddings):
        if np.shape(demb) != (shape.embed_dim,):
            raise ValueError(
                f"sample {seq.sample_id}: gradient shape {np.shape(demb)} != ({shape.embed_dim},)"
            )
    if trace is None:
        trace = encode_batch(seqs, params)
    elif len(trace.starts) != len(seqs):
        raise ValueError(f"trace holds {len(trace.starts)} sequences, not {len(seqs)}")
    grads = {}
    demb = np.asarray(grad_embeddings, dtype=np.float64)

    # through y = p / ||p||:  dp = (dy - y (y . dy)) / ||p||
    y = trace.embeddings
    dpre = (demb - y * (y * demb).sum(axis=1, keepdims=True)) / trace.norms[:, None]

    dpooled = np.zeros_like(trace.pooled)
    sd = shape.strip_dim
    for (b0, b1, t), m in zip(_strip_slices(shape), trace.strip_means):
        dv_t = dpre[:, t * sd:(t + 1) * sd]
        grads[f"strip{t}.weight"] = dv_t.T @ m
        grads[f"strip{t}.bias"] = dv_t.sum(axis=0)
        dm = dv_t @ params[f"strip{t}.weight"]
        dpooled[:, b0:b1] += dm[:, None, :] / (b1 - b0)

    # unpool: each cell's winner is the first frame of its sequence that
    # equals the pooled max
    frames = len(trace.v)
    seq_of_frame = np.repeat(np.arange(len(trace.starts)), np.diff(trace.starts, append=frames))
    candidates = np.where(trace.v == trace.pooled[seq_of_frame],
                          np.arange(frames)[:, None, None], frames)
    winner = np.minimum.reduceat(candidates, trace.starts, axis=0)
    dv = np.zeros_like(trace.v)
    np.put_along_axis(dv, winner, dpooled, axis=0)

    # rows of the flattened stacks are (frame, band) pairs in input order
    dz2 = (dv * (trace.v > 0.0)).reshape(-1, shape.channels)
    u = trace.u.reshape(-1, shape.channels)
    grads["mix.weight"] = dz2.T @ u
    grads["mix.bias"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["mix.weight"]) * (u > 0.0)
    grads["frame.weight"] = dz1.T @ trace.x.reshape(-1, shape.band_pixels)
    grads["frame.bias"] = dz1.sum(axis=0)
    return {name: grads[name] for name, _ in _param_layout(shape)}


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    """Write parameters as a single JSON document; values round-trip exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "shape": params.shape.to_dict(),
        "params": {
            name: {"dims": list(t.shape), "values": t.ravel().tolist()}
            for name, t in params.tensors.items()
        },
    }
    write_text_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_checkpoint(path: str | Path) -> EncoderParams:
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    shape = EncoderShape.from_dict(doc["shape"])
    tensors = {}
    for name, dims in _param_layout(shape):
        entry = doc["params"].get(name)
        if entry is None:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        if tuple(entry["dims"]) != dims:
            raise ValueError(
                f"checkpoint parameter {name!r} has dims {entry['dims']}, expected {list(dims)}"
            )
        tensors[name] = np.asarray(entry["values"], dtype=np.float64).reshape(dims)
    return EncoderParams(shape, tensors)
