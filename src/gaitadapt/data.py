"""Synthetic cross-domain gait benchmark: generation, loading, batch sampling.

Each identity is a latent body shape; each frame renders a parametric
walker (torso ellipse plus two swinging leg segments) at a gait phase,
projected for the camera view, with per-domain style transforms (scale,
shear, dilation or erosion, speckle noise) applied afterwards. Frames are
stored as binary P5 PGM files under root/split/identity/cond-run/view/,
described by a JSON manifest at the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .encoder import SilhouetteSequence
from .files import write_text_atomic
from .numerics import seed_stream

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
CONDITIONS = ("NM", "BG", "CL")

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
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {self.noise!r}")
        if self.period < 4:
            raise ValueError(f"gait period must be >= 4 frames, got {self.period!r}")
        if self.identities < 1 or self.frames < 1:
            raise ValueError("identities and frames must be >= 1")
        lo, hi = self.body_jitter
        if not 0.0 <= lo <= hi:
            raise ValueError(f"body_jitter range must satisfy 0 <= lo <= hi, got {self.body_jitter!r}")
        for c in self.walks:
            if c not in CONDITIONS:
                raise ValueError(f"unknown condition {c!r}, expected one of {CONDITIONS}")

    @property
    def sequences_per_identity(self) -> int:
        return sum(self.walks.values()) * len(self.views)

    def to_dict(self) -> dict:
        d = {
            "identities": self.identities,
            "test_identities": self.test_identities,
            "walks": dict(self.walks),
            "views": list(self.views),
            "frames": self.frames,
            "height": self.height,
            "width": self.width,
            "period": self.period,
            "phase_jitter": self.phase_jitter,
            "resample": self.resample,
            "dilate": self.dilate,
            "noise": self.noise,
            "scale": list(self.scale),
            "shear": self.shear,
            "body_jitter": list(self.body_jitter),
            "id_prefix": self.id_prefix,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        d = dict(d)
        if "views" in d:
            d["views"] = tuple(d["views"])
        if "scale" in d:
            d["scale"] = tuple(d["scale"])
        if "body_jitter" in d:
            d["body_jitter"] = tuple(d["body_jitter"])
        return cls(**d)


@dataclass(frozen=True)
class SequenceRecord:
    sample_id: str
    identity: str
    condition: str
    view: str
    split: str
    frame_count: int
    path: str  # directory of frame files, relative to the dataset root


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

@dataclass(frozen=True)
class _BodyLatent:
    torso_rx: float
    torso_ry: float
    torso_cy: float
    hip_y: float
    leg_len: float
    leg_thick: float
    swing_amp: float
    stance: float


# draw ranges double as the scale of per-walk wobble
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


def _draw_latent(rng: np.random.Generator) -> _BodyLatent:
    return _BodyLatent(**{
        name: rng.uniform(lo, hi) for name, (lo, hi) in _LATENT_RANGES.items()
    })


def _perturb_latent(base: _BodyLatent, sigma: float, rng: np.random.Generator) -> _BodyLatent:
    """One walk's body state: base plus wobble scaled to each field's range."""
    fields = {}
    for name, (lo, hi) in _LATENT_RANGES.items():
        value = getattr(base, name) + sigma * (hi - lo) * rng.standard_normal()
        fields[name] = float(np.clip(value, lo, hi))
    return _BodyLatent(**fields)


def _segment_mask(xs, ys, x0, y0, x1, y1, thick):
    """Pixels within `thick` of the segment (x0,y0)-(x1,y1)."""
    dx, dy = x1 - x0, y1 - y0
    L2 = dx * dx + dy * dy
    if L2 < 1e-12:
        return (xs - x0) ** 2 + (ys - y0) ** 2 <= thick * thick
    t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / L2, 0.0, 1.0)
    px = x0 + t * dx
    py = y0 + t * dy
    return (xs - px) ** 2 + (ys - py) ** 2 <= thick * thick


def render_frame(
    latent: _BodyLatent,
    phase: float,
    view_deg: float,
    condition: str,
    spec: DomainSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """One (H, W) binary silhouette of the walker at the given gait phase."""
    h, w = spec.height, spec.width
    cols = (np.arange(w) + 0.5) / w
    rows = (np.arange(h) + 0.5) / h
    xs, ys = np.meshgrid(cols, rows)

    # inverse style transform: evaluate canonical shapes at pre-image coords
    sx, sy = spec.scale
    v = (ys - 0.5) / sy + 0.5
    u = ((xs - 0.5) - spec.shear * (v - 0.5)) / sx + 0.5

    sv = abs(np.sin(np.deg2rad(view_deg)))  # lateral visibility of the swing

    rx = latent.torso_rx * (0.65 + 0.35 * sv)
    ry = latent.torso_ry
    if condition == "CL":
        rx, ry = rx * 1.12, ry * 1.05
    torso = ((u - 0.5) / rx) ** 2 + ((v - latent.torso_cy) / ry) ** 2 <= 1.0
    mask = torso

    angle = latent.swing_amp * np.sin(2.0 * np.pi * phase)
    for side, theta in ((-1.0, angle), (1.0, -angle)):
        hip_x = 0.5 + side * latent.stance * (1.0 - sv)
        foot_x = hip_x + latent.leg_len * np.sin(theta) * sv
        foot_y = latent.hip_y + latent.leg_len * np.cos(theta)
        mask = mask | _segment_mask(
            u, v, hip_x, latent.hip_y, foot_x, foot_y, latent.leg_thick
        )

    if condition == "BG":
        bag = ((u - 0.66) / 0.09) ** 2 + ((v - 0.47) / 0.075) ** 2 <= 1.0
        mask = mask | bag

    if spec.dilate > 0:
        mask = ndimage.binary_dilation(mask, iterations=spec.dilate)
    elif spec.dilate < 0:
        mask = ndimage.binary_erosion(mask, iterations=-spec.dilate)

    if spec.noise > 0.0:
        mask = mask | (rng.random((h, w)) < spec.noise)

    frame = mask.astype(np.uint8)
    if frame.sum() == 0:
        # erosion can wipe tiny bodies; keep the invariant of >= 1 pixel
        frame[int(latent.torso_cy * h), w // 2] = 1
    return frame


def _render_sequence(
    latent: _BodyLatent,
    condition: str,
    view: str,
    spec: DomainSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    phase0 = rng.uniform(0.0, max(spec.phase_jitter, 1e-9))
    frames = np.empty((spec.frames, spec.height, spec.width), dtype=np.uint8)
    for t in range(spec.frames):
        phase = phase0 + (t * spec.resample) / spec.period
        frames[t] = render_frame(latent, phase, float(view), condition, spec, rng)
    return frames


# ---------------------------------------------------------------------------
# PGM files

def write_pgm(path: str | Path, frame01: np.ndarray) -> None:
    """Binary P5 PGM with values in {0, 255}."""
    frame01 = np.asarray(frame01, dtype=np.uint8)
    h, w = frame01.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + (frame01 * 255).tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 PGM; returns raw byte values as (H, W) uint8."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":  # comment line
            pos = raw.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise DatasetError(f"{path}: not a maxval-255 P5 PGM")
    w, h = int(fields[1]), int(fields[2])
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise DatasetError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w)


# ---------------------------------------------------------------------------
# generation / loading

def _manifest_to_doc(m: DatasetManifest) -> dict:
    return {
        "format_version": MANIFEST_VERSION,
        "domain": m.domain,
        "height": m.height,
        "width": m.width,
        "records": [
            {
                "sample_id": r.sample_id,
                "identity": r.identity,
                "condition": r.condition,
                "view": r.view,
                "split": r.split,
                "frame_count": r.frame_count,
                "path": r.path,
            }
            for r in m.records
        ],
    }


def generate_domain(
    spec: DomainSpec,
    root: str | Path,
    domain: str,
    seed: int,
) -> DatasetManifest:
    """Write a full domain (train and test splits) under root; returns the manifest.

    Identical (spec, seed) produce byte-identical trees. The manifest is
    written only after every frame file has been written.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    records: list[SequenceRecord] = []

    total_ids = spec.identities + spec.test_identities
    for gid in range(total_ids):
        split = "train" if gid < spec.identities else "test"
        identity = f"{spec.id_prefix}{gid + 1:03d}"
        latent_rng = seed_stream(seed, _ROLE_LATENT, gid)
        latent = _draw_latent(latent_rng)
        jitter = latent_rng.uniform(*spec.body_jitter)
        seq_counter = 0
        for condition in CONDITIONS:
            for run in range(1, spec.walks.get(condition, 0) + 1):
                for view in spec.views:
                    rng = seed_stream(seed, _ROLE_SEQUENCE, gid, seq_counter)
                    seq_counter += 1
                    walk_latent = _perturb_latent(latent, jitter, rng)
                    frames = _render_sequence(walk_latent, condition, view, spec, rng)
                    rel = Path(split) / identity / f"{condition.lower()}-{run:02d}" / view
                    out_dir = root / rel
                    out_dir.mkdir(parents=True, exist_ok=True)
                    for t in range(frames.shape[0]):
                        write_pgm(out_dir / f"frame{t:04d}.pgm", frames[t])
                    sample_id = f"{identity}-{condition.lower()}-{run:02d}-{view}"
                    records.append(SequenceRecord(
                        sample_id=sample_id,
                        identity=identity,
                        condition=condition,
                        view=view,
                        split=split,
                        frame_count=frames.shape[0],
                        path=str(rel),
                    ))

    manifest = DatasetManifest(root, domain, spec.height, spec.width, records)
    write_text_atomic(root / MANIFEST_NAME,
                      json.dumps(_manifest_to_doc(manifest), sort_keys=True, indent=1) + "\n")
    return manifest


def load_manifest(root: str | Path) -> DatasetManifest:
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} under {root}")
    doc = json.loads(path.read_text())
    if doc.get("format_version") != MANIFEST_VERSION:
        raise DatasetError(f"unsupported manifest format_version {doc.get('format_version')!r}")
    records = [SequenceRecord(**r) for r in doc["records"]]
    ids = [r.sample_id for r in records]
    if len(set(ids)) != len(ids):
        raise DatasetError("duplicate sample ids in manifest")
    return DatasetManifest(root, doc["domain"], doc["height"], doc["width"], records)


def load_dataset(root: str | Path, split: str | None = None) -> Dataset:
    """Load the sequences listed in the manifest, validating binary pixels.

    With a split name only that split's frames are read; the manifest
    still lists every record.
    """
    manifest = load_manifest(root)
    sequences = []
    for rec in manifest.records if split is None else manifest.split(split):
        seq_dir = manifest.root / rec.path
        frames = np.empty((rec.frame_count, manifest.height, manifest.width), dtype=np.uint8)
        for t in range(rec.frame_count):
            fpath = seq_dir / f"frame{t:04d}.pgm"
            if not fpath.exists():
                raise DatasetError(f"sample {rec.sample_id}: missing frame file {fpath}")
            raw = read_pgm(fpath)
            if raw.shape != (manifest.height, manifest.width):
                raise DatasetError(
                    f"sample {rec.sample_id}: frame {t} has shape {raw.shape}"
                )
            bad = ~np.isin(raw, (0, 255))
            if bad.any():
                raise DatasetError(
                    f"sample {rec.sample_id}: frame {t} has non-binary pixel value"
                    f" {int(raw[bad][0])}"
                )
            frames[t] = raw // 255
        sequences.append(SilhouetteSequence(
            frames=frames,
            sample_id=rec.sample_id,
            identity=rec.identity,
            condition=rec.condition,
            view=rec.view,
            domain=manifest.domain,
        ))
    return Dataset(manifest, sequences)


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
