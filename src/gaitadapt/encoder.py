"""Set encoder for silhouette sequences.

A sequence is encoded as embed(pyramid(set_pool({frame_encode(x_k)}))):
each frame is split into horizontal bands and passed through two shared
affine+ReLU layers, frames are aggregated by an element-wise max (order
invariant), and the pooled map is read out by a multi-scale strip pyramid
whose concatenated output is L2-normalized. All strips, scale-major, share
one stacked strip.weight (n_strips, strip_dim, channels) and strip.bias
(n_strips, strip_dim); checkpoints carry format_version 2, and version 1
(one tensor per strip) is refused.

A SilhouetteSequence holds its frames one bit per pixel, packed along the
width. One batched forward pass (encode_batch) unpacks a batch in one call
and serves training, bank building and evaluation; it returns a trace that
the hand-written reverse-mode pass (encode_backward) reuses. Max pooling
sends each pooled cell's gradient to one frame, so the backward pass runs
its layer products over the (frame, band) rows that carry a nonzero
gradient only. Gradients are validated against central finite differences
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field
from pathlib import Path

import numpy as np

from .files import read_json, write_json
from .numerics import NORM_EPS, WORK_BYTES, DegenerateInputError

CHECKPOINT_VERSION = 2


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

    @property
    def frame_bytes(self) -> int:
        """Bytes of float64 that one frame takes in encode_batch: its band
        inputs and the outputs of both layers."""
        return 8 * (self.height * self.width + 2 * self.bands * self.channels)


def pack_frames(frames: np.ndarray) -> np.ndarray:
    """(K, H, W) 0/1 frames as a SilhouetteSequence stores them: one bit per
    pixel, packed along the width into (K, H, ceil(W/8)) bytes."""
    return np.packbits(frames, axis=-1)


def unpack_frames(packed: np.ndarray, width: int) -> np.ndarray:
    """(K, H, width) uint8 0/1 frames from their pack_frames bytes."""
    return np.unpackbits(packed, axis=-1, count=width)


@dataclass
class SilhouetteSequence:
    """One walk: K binary H x W frames plus its identity/condition/view tags.

    The frames are stored by pack_frames, one bit per pixel; `frames` reads
    them back as a (K, H, W) uint8 0/1 array.
    """

    frames: InitVar[np.ndarray]
    sample_id: str
    identity: str | None = None
    condition: str = "NM"
    view: str = "000"
    domain: str = ""
    packed: np.ndarray = field(init=False, repr=False)
    height: int = field(init=False)
    width: int = field(init=False)

    def __post_init__(self, frames):
        f = np.asarray(frames)
        if f.ndim != 3 or f.shape[0] < 1:
            raise ValueError(
                f"sample {self.sample_id}: frames must be (K>=1, H, W), got shape {f.shape}")
        if f.shape[1] < 1 or f.shape[2] < 1:
            raise ValueError(
                f"sample {self.sample_id}: frames must be at least 1x1, got shape {f.shape}")
        if f.dtype == np.uint8:  # never negative: one pass
            binary = f.max() <= 1
        else:
            binary = ((f == 0) | (f == 1)).all()
        if not binary:
            raise ValueError(f"sample {self.sample_id}: frames must be binary 0/1")
        self.packed = pack_frames(f.astype(np.uint8, copy=False))
        self.height, self.width = f.shape[1:]

    @classmethod
    def from_packed(cls, packed: np.ndarray, width: int, sample_id: str,
                    identity: str | None = None, condition: str = "NM",
                    view: str = "000", domain: str = "") -> "SilhouetteSequence":
        """A sequence over bits that are already packed and checked, kept as
        given (a view of a loaded split, say): packed must be pack_frames of
        binary (K>=1, H>=1, width) frames."""
        seq = cls.__new__(cls)
        seq.sample_id, seq.identity = sample_id, identity
        seq.condition, seq.view, seq.domain = condition, view, domain
        seq.packed, seq.height, seq.width = packed, packed.shape[1], width
        return seq

    @property
    def length(self) -> int:
        return self.packed.shape[0]


# Read-only, and set after the class body: there it would be taken for the
# default value of the init-only `frames` argument.
SilhouetteSequence.frames = property(
    lambda seq: unpack_frames(seq.packed, seq.width),
    doc="(K, H, W) uint8 0/1 frames, unpacked afresh from the stored bits.")


def _param_layout(shape: EncoderShape) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, dims) layout; fixes init draw order and accumulation order."""
    return [
        ("frame.weight", (shape.channels, shape.band_pixels)),
        ("frame.bias", (shape.channels,)),
        ("mix.weight", (shape.channels, shape.channels)),
        ("mix.bias", (shape.channels,)),
        ("strip.weight", (shape.n_strips, shape.strip_dim, shape.channels)),
        ("strip.bias", (shape.n_strips, shape.strip_dim)),
    ]


@dataclass
class EncoderParams:
    """All learnable tensors, addressable by name."""

    shape: EncoderShape
    tensors: dict[str, np.ndarray]

    def names(self) -> list[str]:
        return [name for name, _ in _param_layout(self.shape)]

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
            fan_out, fan_in = dims[-2:]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-bound, bound, size=dims)
    return EncoderParams(shape, tensors)


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
    stacked: np.ndarray         # (n, Kmax, B, C) mixing layer output by sequence
    pooled: np.ndarray          # (n, B, C) max over each sequence's frames
    strip_means: np.ndarray     # (n, S, C) band means of every strip
    norms: np.ndarray           # (n,) pre-normalization norms
    embeddings: np.ndarray      # (n, d) unit-norm rows


def _stack_frames(v: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, Kmax, ...) frames of each sequence from the frame rows of v.

    A view when all lengths are equal. Otherwise a copy in which a shorter
    sequence repeats its last frame, which changes neither its max nor the
    first frame that reaches it.
    """
    kmax = int(lengths.max())
    if (lengths == kmax).all():
        return v.reshape(len(lengths), kmax, *v.shape[1:])
    return v[starts[:, None] + np.minimum(np.arange(kmax), lengths[:, None] - 1)]


def encode_batch(seqs: list[SilhouetteSequence], params: EncoderParams) -> EncoderTrace:
    """Encode a batch in one pass over the stacked frames, max-pool each
    sequence over its own frames, and read all pooled maps out together.

    The batch's packed frames are unpacked in one call. Every matmul is
    stacked per frame or per sequence, so an embedding is bitwise
    independent of frame order and of the rest of the batch: the BLAS
    kernel, and with it the rounding, can change with the row count of a
    single large product.
    """
    shape = params.shape
    if len(seqs) == 0:
        raise ValueError("encode_batch needs at least one sequence")
    for seq in seqs:
        if (seq.height, seq.width) != (shape.height, shape.width):
            raise ValueError(
                f"sample {seq.sample_id}: frame shape {(seq.height, seq.width)} does not"
                f" match encoder ({shape.height}, {shape.width})"
            )
    lengths = np.array([seq.length for seq in seqs])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    x = unpack_frames(np.concatenate([seq.packed for seq in seqs]), shape.width)
    # consecutive image rows form a band, so each frame reshapes to (B, P)
    x = x.reshape(-1, shape.bands, shape.band_pixels).astype(np.float64)
    u = _affine_relu(x, params["frame.weight"], params["frame.bias"])
    v = _affine_relu(u, params["mix.weight"], params["mix.bias"])
    stacked = _stack_frames(v, starts, lengths)
    pooled = stacked.max(axis=1)

    # scale s averages the bands of each of its 2^s strips, s = 0..scales-1
    n = len(pooled)
    means = np.concatenate([pooled.reshape(n, 2 ** s, -1, shape.channels).mean(axis=2)
                            for s in range(shape.scales)], axis=1)
    pre_norm = (params["strip.weight"] @ means[..., None])[..., 0] + params["strip.bias"]
    pre_norm = pre_norm.reshape(n, shape.embed_dim)
    norms = np.sqrt((pre_norm[:, None, :] @ pre_norm[:, :, None])[:, 0, 0])
    dead = np.flatnonzero(norms <= NORM_EPS)
    if dead.size:
        i = int(dead[0])
        raise DegenerateInputError(
            f"sample {seqs[i].sample_id}: cannot normalize embedding with norm {norms[i]!r}"
        )
    return EncoderTrace(starts=starts, x=x, u=u, stacked=stacked, pooled=pooled,
                        strip_means=means, norms=norms,
                        embeddings=pre_norm / norms[:, None])


def encode_sequence(seq: SilhouetteSequence, params: EncoderParams) -> np.ndarray:
    """Unit-norm embedding of one sequence; invariant to frame order."""
    return encode_batch([seq], params).embeddings[0]


def encode_sequences(seqs: list[SilhouetteSequence], params: EncoderParams) -> np.ndarray:
    """(n, d) embeddings in input order, encoded in chunks whose frames
    take at most WORK_BYTES (shape.frame_bytes each; a longer sequence is a
    chunk of its own) and written into one preallocated array."""
    out = np.empty((len(seqs), params.shape.embed_dim))
    max_frames = WORK_BYTES // params.shape.frame_bytes
    chunk, frames, done = [], 0, 0
    for seq in seqs:
        if chunk and frames + seq.length > max_frames:
            out[done:done + len(chunk)] = encode_batch(chunk, params).embeddings
            done += len(chunk)
            chunk, frames = [], 0
        chunk.append(seq)
        frames += seq.length
    out[done:] = encode_batch(chunk, params).embeddings
    return out


def _unpool(trace: EncoderTrace, dpooled: np.ndarray, shape: EncoderShape
            ) -> tuple[np.ndarray, np.ndarray]:
    """The (frame, band) rows that take a nonzero gradient from the pooled
    map, as flat indices in input order, and their (rows, C) gradients.

    Each cell's gradient goes to the first frame of its sequence that
    equals the pooled max, and through the ReLU where that max is above 0.
    Row slot[r] of the result is row r; cells that carry no gradient land
    in one spare last row, which is dropped. The working arrays are freed
    on return, before the caller gathers the rows' activations.
    """
    pooled = trace.pooled
    # frame k of K weighs K - k, so the largest weight among the frames that
    # reach the max names the first of them: a max over frames, which numpy
    # runs far faster than an argmax over that axis
    kmax = trace.stacked.shape[1]
    weights = np.arange(kmax, 0, -1, dtype=np.min_scalar_type(kmax))[:, None, None]
    first = kmax - ((trace.stacked == pooled[:, None]) * weights).max(axis=1)   # (n, B, C)
    row = (trace.starts[:, None, None] + first) * shape.bands + np.arange(shape.bands)[:, None]
    dv = np.where(pooled > 0.0, dpooled, 0.0)
    won = np.zeros(len(trace.x) * shape.bands, dtype=bool)
    won[row[dv != 0.0]] = True
    rows = np.flatnonzero(won)
    slot = np.full(len(won), len(rows))
    slot[rows] = np.arange(len(rows))
    dz2 = np.zeros((len(rows) + 1) * shape.channels)
    dz2[slot[row] * shape.channels + np.arange(shape.channels)] = dv
    return rows, dz2.reshape(-1, shape.channels)[:-1]


def encode_backward(
    seqs: list[SilhouetteSequence],
    params: EncoderParams,
    grad_embeddings: list[np.ndarray] | np.ndarray,
    trace: EncoderTrace | None = None,
) -> dict[str, np.ndarray]:
    """Gradient of sum_i <grad_i, encode(seq_i)> with respect to every parameter.

    trace is encode_batch(seqs, params) from the same parameters; without
    it the forward pass runs here. Max pooling routes each cell's gradient
    to the lowest-index winning frame; ReLU uses subgradient 0 at 0. The
    mixing- and frame-layer products run over the (frame, band) rows that
    take a nonzero gradient only, gathered from the trace in input order;
    the other rows would add exact zeros. Sums over sequences and frames
    are fixed by the input order, so results are deterministic.
    """
    shape = params.shape
    demb = np.asarray(grad_embeddings, dtype=np.float64)
    if demb.shape != (len(seqs), shape.embed_dim):
        raise ValueError(
            f"{len(seqs)} sequences need ({len(seqs)}, {shape.embed_dim}) embedding"
            f" gradients, got gradient shape {demb.shape}")
    if trace is None:
        trace = encode_batch(seqs, params)
    elif len(trace.starts) != len(seqs):
        raise ValueError(f"trace holds {len(trace.starts)} sequences, not {len(seqs)}")
    grads = {}

    # through y = p / ||p||:  dp = (dy - y (y . dy)) / ||p||
    y = trace.embeddings
    dpre = (demb - y * (y * demb).sum(axis=1, keepdims=True)) / trace.norms[:, None]

    n = len(dpre)
    dstrip = dpre.reshape(n, shape.n_strips, shape.strip_dim).transpose(1, 0, 2)
    grads["strip.weight"] = dstrip.transpose(0, 2, 1) @ trace.strip_means.transpose(1, 0, 2)
    grads["strip.bias"] = dstrip.sum(axis=1)
    dm = dstrip @ params["strip.weight"]       # (S, n, C)

    # each strip's mean spreads its gradient evenly over its bands; the 2^s
    # strips of scale s are strips 2^s - 1 .. 2^(s+1) - 2
    dpooled = np.zeros_like(trace.pooled)
    for s in range(shape.scales):
        g = 2 ** s
        bands = dpooled.reshape(n, g, -1, shape.channels)
        bands += (dm[g - 1:2 * g - 1] / bands.shape[2]).transpose(1, 0, 2)[:, :, None, :]

    rows, dz2 = _unpool(trace, dpooled, shape)
    u = trace.u.reshape(-1, shape.channels).take(rows, axis=0)
    grads["mix.weight"] = dz2.T @ u
    grads["mix.bias"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["mix.weight"]) * (u > 0.0)
    grads["frame.weight"] = dz1.T @ trace.x.reshape(-1, shape.band_pixels).take(rows, axis=0)
    grads["frame.bias"] = dz1.sum(axis=0)
    return {name: grads[name] for name, _ in _param_layout(shape)}


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    """Write parameters as a single JSON document; values round-trip exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "shape": asdict(params.shape),
        "params": {
            name: {"dims": list(t.shape), "values": t.ravel().tolist()}
            for name, t in params.tensors.items()
        },
    }
    write_json(path, doc)


def load_checkpoint(path: str | Path) -> EncoderParams:
    doc = read_json(path, ValueError)
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    try:
        shape = EncoderShape(**doc["shape"])
        tensors = {}
        for name, dims in _param_layout(shape):
            entry = doc["params"][name]
            if tuple(entry["dims"]) != dims:
                raise ValueError(
                    f"checkpoint parameter {name!r} has dims {entry['dims']}, expected {list(dims)}"
                )
            values = entry["values"]
            if not (isinstance(values, list) and len(values) == math.prod(dims) and all(
                    type(v) in (int, float) and math.isfinite(v) for v in values)):
                raise ValueError(
                    f"checkpoint parameter {name!r} must hold {math.prod(dims)} finite numbers")
            tensors[name] = np.array(values, dtype=np.float64).reshape(dims)
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed checkpoint ({type(e).__name__}: {e})") from e
    return EncoderParams(shape, tensors)
