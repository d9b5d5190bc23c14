"""Synthetic cross-domain gait benchmark: generation, loading, batch sampling.

Each identity's body is one array of shape parameters; each frame renders
a parametric walker (torso ellipse plus two swinging leg segments) at a
gait phase, projected for the camera view, with per-domain style
transforms (scale, shear, dilation or erosion, speckle noise) applied
afterwards; dilation and erosion are shifted ORs or ANDs of each frame
padded with off pixels, in NumPy alone. Each walk draws its body wobble,
start phase and speckle from its own random stream, in manifest order.
The geometry then runs on chunks of consecutive walks, one (n, K, H, W)
array per chunk whose float64 frames take at most numerics.WORK_BYTES (or
one longer walk); every pixel is computed from its own walk's draws
alone, so a walk renders the same bytes in any chunk. Each split of a
domain is stored as one binary P5 PGM file, root/<split>.pgm, holding the
split's sequences in manifest order with every frame of H x W stacked top
to bottom. A JSON manifest at the root (format_version 3) lists every
sequence with its split and frame count; a sequence's frames start at the
sum of the frame counts of the records before it in its split. A split is
written in one stream and read in one: its header, size and shape are
checked first, and its pixels then pass through one buffer of at most
numerics.WORK_BYTES, each chunk checked and packed as it comes. Once
loaded, a split is held one bit per pixel: its frames are packed along the
width in one buffer, and each sequence is a SilhouetteSequence over a
view of it.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .encoder import SilhouetteSequence, pack_frames
from .files import read_json, replacing, write_json
from .numerics import WORK_BYTES, seed_stream

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 3  # version 1 stored one file per frame, version 2 one per sequence
CONDITIONS = ("NM", "BG", "CL")
SPLITS = ("train", "test")

# role constants for deterministic rng streams
_ROLE_LATENT = 1
_ROLE_SEQUENCE = 2


class DatasetError(ValueError):
    """A dataset on disk is missing, inconsistent, or fails validation."""


@dataclass(frozen=True)
class DomainSpec:
    """Everything that defines one domain's look, rhythm, and composition."""

    identities: int = 20
    test_identities: int = 10
    walks: dict[str, int] = field(
        default_factory=lambda: {"NM": 3, "BG": 1, "CL": 1}
    )  # sequences per (identity, condition, view)
    views: tuple[str, ...] = ("000", "090")
    frames: int = 12
    height: int = 16
    width: int = 16
    # temporal style
    period: float = 8.0        # frames per gait cycle
    phase_jitter: float = 1.0  # random initial phase, in cycles
    resample: float = 1.0      # time step per frame, in frame units
    # spatial style
    dilate: int = 0            # > 0 dilation rounds, < 0 erosion rounds
    noise: float = 0.0         # probability a background pixel turns on
    scale: tuple[float, float] = (1.0, 1.0)  # (x, y)
    shear: float = 0.0
    # each identity draws a walk-to-walk wobble sigma from this range;
    # consistent walkers form dense embedding clumps, erratic ones scatter
    body_jitter: tuple[float, float] = (0.0, 0.12)
    id_prefix: str = "P"

    def __post_init__(self):
        # JSON reads sequences back as lists
        for name in ("views", "scale", "body_jitter"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {self.noise!r}")
        if self.period < 4:
            raise ValueError(f"gait period must be >= 4 frames, got {self.period!r}")
        if self.identities < 1 or self.frames < 1:
            raise ValueError("identities and frames must be >= 1")
        if self.test_identities < 0:
            raise ValueError(f"test_identities must be >= 0, got {self.test_identities!r}")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"height and width must be >= 1, got {self.height}x{self.width}")
        if not self.views or len(set(self.views)) != len(self.views):
            raise ValueError(f"views must be distinct and at least one, got {list(self.views)}")
        for view in self.views:
            try:
                angle = float(view)
            except (TypeError, ValueError):
                angle = math.nan
            if not math.isfinite(angle):
                raise ValueError(f"views must be finite angles in degrees, got {view!r}")
        if len(self.scale) != 2 or not all(0 < s < math.inf for s in self.scale):
            raise ValueError(f"scale must be two positive finite factors, got {self.scale!r}")
        lo, hi = self.body_jitter
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError(
                f"body_jitter must be finite bounds with 0 <= lo <= hi, got {self.body_jitter!r}")
        if not isinstance(self.walks, dict):
            raise ValueError(f"walks must map conditions to counts, got {self.walks!r}")
        for c, n in self.walks.items():
            if c not in CONDITIONS:
                raise ValueError(f"unknown condition {c!r}, expected one of {CONDITIONS}")
            if type(n) is not int or n < 0:
                raise ValueError(f"walks[{c!r}] must be an integer >= 0, got {n!r}")
        if not sum(self.walks.values()):
            raise ValueError(f"walks must give each identity a walk, got {self.walks!r}")

    @property
    def sequences_per_identity(self) -> int:
        return sum(self.walks.values()) * len(self.views)


@dataclass(frozen=True)
class SequenceRecord:
    sample_id: str
    identity: str
    condition: str
    view: str
    split: str
    frame_count: int


@dataclass
class DatasetManifest:
    root: Path
    domain: str
    height: int
    width: int
    records: list[SequenceRecord]

    def split(self, name: str) -> list[SequenceRecord]:
        return [r for r in self.records if r.split == name]


@dataclass
class Dataset:
    manifest: DatasetManifest
    sequences: list[SilhouetteSequence]

    def split(self, name: str) -> list[SilhouetteSequence]:
        wanted = {r.sample_id for r in self.manifest.split(name)}
        return [s for s in self.sequences if s.sample_id in wanted]


# ---------------------------------------------------------------------------
# rendering

# An identity's body is one array of these fields, in this order, each drawn
# uniformly from its range; the ranges double as the scale of per-walk wobble
_LATENT_RANGES = {
    "torso_rx": (0.06, 0.14),
    "torso_ry": (0.16, 0.26),
    "torso_cy": (0.28, 0.42),
    "hip_y": (0.50, 0.60),
    "leg_len": (0.25, 0.42),
    "leg_thick": (0.03, 0.065),
    "swing_amp": (0.30, 0.70),
    "stance": (0.03, 0.10),
}


def _segment_mask(xs, ys, x0, y0, x1, y1, thick):
    """Pixels within `thick` of the segment (x0,y0)-(x1,y1). The endpoints
    may be arrays that broadcast against xs and ys, one segment per frame."""
    dx, dy = x1 - x0, y1 - y0
    L2 = np.maximum(dx * dx + dy * dy, 1e-12)  # a point segment stays finite
    # in place over the full-size arrays, each step rounding as the plain
    # expression (xs - (x0 + t dx))^2 + (ys - (y0 + t dy))^2 would
    t = (xs - x0) * dx
    t += (ys - y0) * dy
    t /= L2
    np.clip(t, 0.0, 1.0, out=t)
    d2 = t * dx
    d2 += x0
    np.subtract(xs, d2, out=d2)
    np.square(d2, out=d2)
    t *= dy
    t += y0
    np.subtract(ys, t, out=t)
    np.square(t, out=t)
    d2 += t
    return d2 <= thick * thick


def _cross_step(mask: np.ndarray, combine) -> None:
    """Dilate (combine=np.logical_or) or erode (np.logical_and) each frame
    of an (n, K, H, W) boolean mask in place by the 4-connected cross.
    Pixels outside a frame count as off, so frames never reach into each
    other."""
    padded = np.pad(mask, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for shifted in (padded[..., :-2, 1:-1], padded[..., 2:, 1:-1],
                    padded[..., 1:-1, :-2], padded[..., 1:-1, 2:]):
        combine(mask, shifted, out=mask)


def _render_chunk(spec: DomainSpec, walks: list[tuple]) -> np.ndarray:
    """(n, K, H, W) binary silhouettes of n walks, one gait phase per frame.

    Each walk is its draws (body, condition, sv, phase0, noise): one value
    per _LATENT_RANGES field, the swing's lateral visibility from the view,
    the first frame's gait phase in cycles, and (K, H, W) speckle or None.
    Every value is computed elementwise from its own walk's draws, so a
    walk's frames do not depend on the walks that share its chunk.
    """
    k, h, w = spec.frames, spec.height, spec.width
    cols = (np.arange(w) + 0.5) / w
    rows = (np.arange(h) + 0.5) / h
    xs, ys = np.meshgrid(cols, rows)

    # inverse style transform: evaluate canonical shapes at pre-image coords
    sx, sy = spec.scale
    v = (ys - 0.5) / sy + 0.5
    u = ((xs - 0.5) - spec.shear * (v - 0.5)) / sx + 0.5

    def per_walk(values):  # shaped to broadcast over (n, K, H, W)
        return np.array(values)[:, None, None, None]

    bodies, conditions, svs, phase0s, noises = zip(*walks)
    lat = {name: per_walk(row) for name, row in zip(_LATENT_RANGES, np.array(bodies).T)}
    sv = per_walk(svs)
    coat = per_walk([c == "CL" for c in conditions])
    bag = per_walk([c == "BG" for c in conditions])

    rx = lat["torso_rx"] * (0.65 + 0.35 * sv)
    ry = lat["torso_ry"]
    rx = np.where(coat, rx * 1.12, rx)
    ry = np.where(coat, ry * 1.05, ry)
    mask = ((u - 0.5) / rx) ** 2 + ((v - lat["torso_cy"]) / ry) ** 2 <= 1.0
    mask |= bag & (((u - 0.66) / 0.09) ** 2 + ((v - 0.47) / 0.075) ** 2 <= 1.0)

    steps = (np.arange(k) * spec.resample) / spec.period
    phase = per_walk(phase0s) + steps[:, None, None]
    angle = lat["swing_amp"] * np.sin(2.0 * np.pi * phase)
    hip_y, leg_len = lat["hip_y"], lat["leg_len"]
    for side, theta in ((-1.0, angle), (1.0, -angle)):
        hip_x = 0.5 + side * lat["stance"] * (1.0 - sv)
        foot_x = hip_x + leg_len * np.sin(theta) * sv
        foot_y = hip_y + leg_len * np.cos(theta)
        mask = mask | _segment_mask(u, v, hip_x, hip_y, foot_x, foot_y, lat["leg_thick"])

    combine = np.logical_or if spec.dilate > 0 else np.logical_and
    for _ in range(abs(spec.dilate)):
        _cross_step(mask, combine)

    if spec.noise > 0.0:
        mask |= np.stack(noises)

    frames = mask.astype(np.uint8)
    # erosion can wipe tiny bodies; keep the invariant of >= 1 pixel per frame
    walk, frame = np.nonzero(~frames.any(axis=(2, 3)))
    cy = (lat["torso_cy"] * h).astype(np.intp).ravel()
    frames[walk, frame, cy[walk], w // 2] = 1
    return frames


# ---------------------------------------------------------------------------
# PGM files

def _pgm_header(width: int, height: int) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii")


# magic, width, height and maxval, separated by whitespace or '#' comment
# lines, and one whitespace byte before the pixels, all in the file's first
# _HEADER_BYTES
_HEADER_BYTES = 4096
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def _pgm_pixels(fh: BinaryIO, where: str | Path) -> tuple[int, int]:
    """(H, W) of the binary P5 PGM open as fh, which is left at its first
    pixel byte. Exactly H x W pixel bytes must follow the header, by the
    file's size; each error message begins with `where`."""
    header = _PGM_HEADER.match(fh.read(_HEADER_BYTES))
    if header is None or header[3] != b"255":
        raise DatasetError(f"{where}: not a maxval-255 P5 PGM")
    w, h = int(header[1]), int(header[2])
    pixels = os.fstat(fh.fileno()).st_size - header.end()
    if pixels < w * h:
        raise DatasetError(f"{where}: truncated pixel data")
    if pixels > w * h:
        raise DatasetError(f"{where}: {pixels - w * h} bytes of trailing data after the pixels")
    fh.seek(header.end())
    return h, w


def _read_into(fh: BinaryIO, out: np.ndarray, where: str | Path) -> None:
    """Fill the contiguous array out from fh; a short read is an error."""
    if fh.readinto(out.reshape(-1)) != out.size:
        raise DatasetError(f"{where}: truncated pixel data")


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 PGM; returns raw byte values as (H, W) uint8.

    Exactly H x W pixel bytes must follow the header. The result is a
    fresh writable array.
    """
    with open(path, "rb") as fh:
        pixels = np.empty(_pgm_pixels(fh, path), dtype=np.uint8)
        _read_into(fh, pixels, path)
    return pixels


# ---------------------------------------------------------------------------
# generation / loading

def _render_walks(spec: DomainSpec, seed: int, split: str, gids: range
                  ) -> Iterator[tuple[list[SequenceRecord], np.ndarray]]:
    """The walks of the given identities in manifest order, in chunks whose
    float64 frames take at most WORK_BYTES (one walk at least): each chunk's
    records and its (n, K, H, W) frames."""
    per_chunk = max(1, WORK_BYTES // (8 * spec.frames * spec.height * spec.width))
    lo, hi = np.array(list(_LATENT_RANGES.values())).T
    visibility = {view: abs(np.sin(np.deg2rad(float(view)))) for view in spec.views}
    records: list[SequenceRecord] = []
    walks: list[tuple] = []
    for gid in gids:
        identity = f"{spec.id_prefix}{gid + 1:03d}"
        latent_rng = seed_stream(seed, _ROLE_LATENT, gid)
        base = latent_rng.uniform(lo, hi)
        wobble = latent_rng.uniform(*spec.body_jitter) * (hi - lo)
        seq_counter = 0
        for condition in CONDITIONS:
            for run in range(1, spec.walks.get(condition, 0) + 1):
                walk = f"{condition.lower()}-{run:02d}"
                for view in spec.views:
                    rng = seed_stream(seed, _ROLE_SEQUENCE, gid, seq_counter)
                    seq_counter += 1
                    # the walk's draws, in stream order: wobble, phase, speckle
                    body = np.clip(base + wobble * rng.standard_normal(len(base)), lo, hi)
                    phase0 = rng.uniform(0.0, max(spec.phase_jitter, 1e-9))
                    noise = None
                    if spec.noise > 0.0:  # as K per-frame (H, W) draws would consume it
                        noise = rng.random((spec.frames, spec.height, spec.width)) < spec.noise
                    walks.append((body, condition, visibility[view], phase0, noise))
                    records.append(SequenceRecord(
                        sample_id=f"{identity}-{walk}-{view}",
                        identity=identity,
                        condition=condition,
                        view=view,
                        split=split,
                        frame_count=spec.frames,
                    ))
                    if len(walks) == per_chunk:
                        yield records, _render_chunk(spec, walks)
                        records, walks = [], []
    if walks:
        yield records, _render_chunk(spec, walks)


def generate_domain(
    spec: DomainSpec,
    root: str | Path,
    domain: str,
    seed: int,
) -> DatasetManifest:
    """Write a full domain (train and test splits) under root; returns the manifest.

    Identical (spec, seed) produce byte-identical trees. An existing
    manifest is deleted first, each split file is streamed chunk by chunk into
    a temporary file and renamed into place, and the manifest is written
    last, so a generation that fails partway leaves no loadable dataset.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / MANIFEST_NAME).unlink(missing_ok=True)
    records: list[SequenceRecord] = []
    n_train, n_all = spec.identities, spec.identities + spec.test_identities
    for split, gids in (("train", range(n_train)), ("test", range(n_train, n_all))):
        path = root / f"{split}.pgm"
        rows = len(gids) * spec.sequences_per_identity * spec.frames * spec.height
        if not rows:
            path.unlink(missing_ok=True)
            continue
        with replacing(path) as tmp, open(tmp, "wb") as fh:
            fh.write(_pgm_header(spec.width, rows))
            for chunk, frames in _render_walks(spec, seed, split, gids):
                fh.write(frames * np.uint8(255))
                records.extend(chunk)

    manifest = DatasetManifest(root, domain, spec.height, spec.width, records)
    write_json(root / MANIFEST_NAME, {
        "format_version": MANIFEST_VERSION, "domain": domain,
        "height": spec.height, "width": spec.width,
        "records": [vars(r) for r in records],
    })
    return manifest


def load_manifest(root: str | Path) -> DatasetManifest:
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} under {root}")
    doc = read_json(path, DatasetError)
    if doc.get("format_version") != MANIFEST_VERSION:
        raise DatasetError(
            f"unsupported manifest format_version {doc.get('format_version')!r},"
            f" expected {MANIFEST_VERSION}; regenerate the data with gen-data")
    try:
        records = [SequenceRecord(**r) for r in doc["records"]]
        manifest = DatasetManifest(root, doc["domain"], doc["height"], doc["width"], records)
    except (KeyError, TypeError) as e:
        raise DatasetError(f"{path}: malformed manifest ({type(e).__name__}: {e})") from e
    for name in ("height", "width"):
        value = getattr(manifest, name)
        if type(value) is not int or value < 1:
            raise DatasetError(f"{path}: {name} must be a positive integer, got {value!r}")
    ids = [r.sample_id for r in records]
    if len(set(ids)) != len(ids):
        raise DatasetError("duplicate sample ids in manifest")
    for r in records:
        if r.split not in SPLITS or type(r.frame_count) is not int or r.frame_count < 1:
            raise DatasetError(
                f"{path}: sample {r.sample_id} has split {r.split!r} and frame_count"
                f" {r.frame_count!r}; expected a split in {SPLITS} and at least one frame")
    return manifest


def _read_split(manifest: DatasetManifest, split: str) -> list[SilhouetteSequence]:
    """The split's sequences from its one file, in manifest order.

    The header, the file size and the shape are checked before any pixel
    is read. The pixels then stream through one buffer of whole frames, at
    most WORK_BYTES (one frame at least): each chunk is checked, made 0/1
    in place and packed into the split's one packed buffer, which each
    sequence views. A failure of the whole file names a sample it affects:
    a missing or unreadable file, a wrong width, and lost or extra rows
    name the split's last sample. A non-binary pixel names its own sample
    and frame.
    """
    records = manifest.split(split)
    h, w = manifest.height, manifest.width
    path = manifest.root / f"{split}.pgm"
    where = f"sample {records[-1].sample_id}"
    ends = list(accumulate(r.frame_count for r in records))
    n = ends[-1]
    try:
        fh = open(path, "rb")
    except FileNotFoundError as e:
        raise DatasetError(f"{where}: missing split file {path}") from e
    with fh:
        shape = _pgm_pixels(fh, f"{where}: {path}")
        if shape != (n * h, w):
            raise DatasetError(
                f"{where}: split file {path} has shape {shape}, expected {n} frames of {h}x{w}")
        packed = np.empty((n, h, (w + 7) // 8), dtype=np.uint8)
        step = max(1, WORK_BYTES // (h * w))
        buffer = np.empty((min(step, n), h, w), dtype=np.uint8)
        for lo in range(0, n, step):
            chunk = buffer[:min(step, n - lo)]
            _read_into(fh, chunk, f"{where}: {path}")
            # in place, with uint8 wrap-around: 0 -> 1, 255 -> 0, any other value > 1
            chunk += 1
            if chunk.max() > 1:
                at = np.unravel_index(np.argmax(chunk > 1), chunk.shape)
                i = bisect_right(ends, lo + at[0])
                frame = lo + at[0] - (ends[i] - records[i].frame_count)
                raise DatasetError(
                    f"sample {records[i].sample_id}: frame {frame} has non-binary pixel"
                    f" value {int(chunk[at]) - 1}")
            np.subtract(1, chunk, out=chunk)  # 0/1
            packed[lo:lo + len(chunk)] = pack_frames(chunk)
    return [
        SilhouetteSequence(packed[end - rec.frame_count:end], w, rec.sample_id,
                           rec.identity, rec.condition, rec.view)
        for rec, end in zip(records, ends)
    ]


def load_dataset(root: str | Path, split: str | None = None) -> Dataset:
    """Load the sequences listed in the manifest, validating binary pixels.

    Each split is one file, streamed and checked in one pass. With a split
    name only that split's file is read, and a split without records is
    refused; the manifest still lists every record.
    """
    manifest = load_manifest(root)
    records = manifest.records if split is None else manifest.split(split)
    if split is not None and not records:
        raise DatasetError(f"{root} has no {split} split")
    by_id: dict[str, SilhouetteSequence] = {}
    for name in dict.fromkeys(r.split for r in records):
        by_id.update((s.sample_id, s) for s in _read_split(manifest, name))
    return Dataset(manifest, [by_id[r.sample_id] for r in records])


def sample_pk_batch(
    seqs: list[SilhouetteSequence],
    p: int,
    k_s: int,
    rng: np.random.Generator,
) -> list[SilhouetteSequence]:
    """p distinct identities with k_s sequences each, without replacement."""
    if p < 1 or k_s < 1:
        raise ValueError("p and k_s must be >= 1")
    by_id: dict[str, list[SilhouetteSequence]] = {}
    for s in seqs:
        if s.identity is None:
            raise ValueError(f"sample {s.sample_id} has no identity label")
        by_id.setdefault(s.identity, []).append(s)
    eligible = [i for i, group in by_id.items() if len(group) >= k_s]
    if len(eligible) < p:
        counts = {i: len(g) for i, g in by_id.items()}
        raise ValueError(
            f"cannot sample a {p}x{k_s} batch: only {len(eligible)} identities have"
            f" >= {k_s} sequences (available counts: {counts})"
        )
    chosen = rng.choice(len(eligible), size=p, replace=False)
    batch = []
    for ci in chosen:
        group = by_id[eligible[int(ci)]]
        picks = rng.choice(len(group), size=k_s, replace=False)
        batch.extend(group[int(j)] for j in picks)
    return batch
