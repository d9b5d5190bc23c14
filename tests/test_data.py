import dataclasses
import json
import shutil

import numpy as np
import pytest

from gaitadapt.data import (
    DatasetError,
    DomainSpec,
    generate_domain,
    load_dataset,
    load_manifest,
    read_pgm,
    sample_pk_batch,
    write_pgm,
)
from gaitadapt.encoder import SilhouetteSequence
from gaitadapt.numerics import make_rng, seed_stream

from conftest import tiny_domain_spec


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestDomainSpec:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="noise"):
            tiny_domain_spec(noise=0.5)

    def test_rejects_short_period(self):
        with pytest.raises(ValueError, match="period"):
            tiny_domain_spec(period=3.0)

    def test_rejects_no_identities(self):
        with pytest.raises(ValueError):
            tiny_domain_spec(identities=0)

    def test_rejects_bad_body_jitter(self):
        with pytest.raises(ValueError, match="body_jitter"):
            tiny_domain_spec(body_jitter=(0.2, 0.1))
        with pytest.raises(ValueError, match="body_jitter"):
            tiny_domain_spec(body_jitter=(-0.1, 0.0))

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown condition"):
            tiny_domain_spec(walks={"XX": 1})

    def test_dict_roundtrip(self):
        spec = tiny_domain_spec(period=9.5, scale=(0.9, 1.1), body_jitter=(0.01, 0.2))
        assert DomainSpec.from_dict(spec.to_dict()) == spec


class TestGeneration:
    def test_record_counts_and_layout(self, tiny_source_dir):
        m = load_manifest(tiny_source_dir)
        # (3 train + 2 test ids) x (2 NM + 1 BG walks) x 2 views
        assert len(m.records) == 30
        assert len(m.split("train")) == 18
        assert len(m.split("test")) == 12
        for r in m.records:
            ident, cond, run, view = r.sample_id.rsplit("-", 3)
            assert (ident, cond, view) == (r.identity, r.condition.lower(), r.view)
            assert run.isdigit() and len(run) == 2
            frame_dir = tiny_source_dir / r.path
            files = sorted(frame_dir.glob("frame*.pgm"))
            assert len(files) == r.frame_count == 4

    def test_sample_id_format(self, tiny_source_dir):
        m = load_manifest(tiny_source_dir)
        ids = {r.sample_id for r in m.records}
        assert "S001-nm-01-054" in ids
        assert "S001-bg-01-090" in ids
        assert "S004-nm-02-090" in ids  # first test-split identity

    def test_byte_identical_regeneration(self, tmp_path):
        spec = tiny_domain_spec("D", noise=0.05)
        generate_domain(spec, tmp_path / "a", domain="source", seed=5)
        generate_domain(spec, tmp_path / "b", domain="source", seed=5)
        a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
        assert list(a) == list(b)
        assert all(a[k] == b[k] for k in a)

    def test_seed_changes_the_data(self, tmp_path):
        spec = tiny_domain_spec("D")
        generate_domain(spec, tmp_path / "a", domain="source", seed=5)
        generate_domain(spec, tmp_path / "b", domain="source", seed=6)
        a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
        assert any(a[k] != b[k] for k in a if k.suffix == ".pgm")

    def test_loaded_frames_are_binary(self, tiny_source_dir):
        ds = load_dataset(tiny_source_dir)
        assert len(ds.sequences) == 30
        for s in ds.sequences:
            assert s.domain == "source"
            vals = np.unique(s.frames)
            assert np.all(np.isin(vals, (0, 1)))
            assert s.frames.sum() > 0

    def test_every_frame_has_foreground(self, tmp_path):
        # erosion-heavy style must still leave at least one pixel per frame
        spec = tiny_domain_spec("E", identities=2, test_identities=0, dilate=-2,
                                height=12, width=12)
        generate_domain(spec, tmp_path / "e", domain="t", seed=3)
        ds = load_dataset(tmp_path / "e")
        for s in ds.sequences:
            assert np.all(s.frames.sum(axis=(1, 2)) >= 1)


class TestRenderStyle:
    def _frames_for(self, tmp_path, name, **overrides):
        spec = tiny_domain_spec("R", identities=1, test_identities=0,
                                walks={"NM": 1, "BG": 1, "CL": 1}, views=("090",),
                                height=16, width=16, frames=6,
                                body_jitter=(0.0, 0.0), phase_jitter=0.0,
                                **overrides)
        root = tmp_path / name
        generate_domain(spec, root, domain="t", seed=7)
        ds = load_dataset(root)
        return {s.condition: s.frames.astype(int) for s in ds.sequences}

    def test_bag_and_coat_add_pixels(self, tmp_path):
        by_cond = self._frames_for(tmp_path, "cond")
        nm, bg, cl = by_cond["NM"], by_cond["BG"], by_cond["CL"]
        assert np.all(bg >= nm) and bg.sum() > nm.sum()
        assert np.all(cl >= nm) and cl.sum() > nm.sum()

    def test_dilation_and_erosion_are_monotone(self, tmp_path):
        base = self._frames_for(tmp_path, "d0")["NM"]
        fat = self._frames_for(tmp_path, "d1", dilate=1)["NM"]
        thin = self._frames_for(tmp_path, "dm1", dilate=-1)["NM"]
        assert np.all(fat >= base) and fat.sum() > base.sum()
        assert np.all(thin <= base) and thin.sum() < base.sum()

    def test_noise_only_adds_pixels(self, tmp_path):
        clean = self._frames_for(tmp_path, "n0")["NM"]
        noisy = self._frames_for(tmp_path, "n1", noise=0.2)["NM"]
        assert np.all(noisy >= clean) and noisy.sum() > clean.sum()

    def test_views_differ(self, tmp_path):
        spec = tiny_domain_spec("V", identities=1, test_identities=0,
                                walks={"NM": 1}, views=("000", "090"), height=16,
                                width=16, body_jitter=(0.0, 0.0), phase_jitter=0.0)
        generate_domain(spec, tmp_path / "v", domain="t", seed=9)
        ds = load_dataset(tmp_path / "v")
        frames = {s.view: s.frames for s in ds.sequences}
        assert not np.array_equal(frames["000"], frames["090"])

    def test_period_changes_the_walk(self, tmp_path):
        a = self._frames_for(tmp_path, "p8")["NM"]
        b = self._frames_for(tmp_path, "p11", period=11.0)["NM"]
        assert not np.array_equal(a, b)

    def test_locked_walks_repeat_exactly(self, tmp_path):
        # no body wobble, no phase jitter, no noise: repeated walks identical
        spec = tiny_domain_spec("L", identities=1, test_identities=0,
                                walks={"NM": 2}, views=("090",),
                                body_jitter=(0.0, 0.0), phase_jitter=0.0)
        generate_domain(spec, tmp_path / "l", domain="t", seed=4)
        ds = load_dataset(tmp_path / "l")
        a, b = ds.sequences
        assert np.array_equal(a.frames, b.frames)

    def test_default_jitter_varies_walks(self, tmp_path):
        spec = tiny_domain_spec("J", identities=1, test_identities=0,
                                walks={"NM": 2}, views=("090",),
                                body_jitter=(0.1, 0.1), phase_jitter=0.0)
        generate_domain(spec, tmp_path / "j", domain="t", seed=4)
        ds = load_dataset(tmp_path / "j")
        a, b = ds.sequences
        assert not np.array_equal(a.frames, b.frames)


class TestPgm:
    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(1)
        frame = (rng.random((6, 9)) < 0.5).astype(np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        back = read_pgm(path)
        assert back.shape == (6, 9)
        assert np.array_equal(back, frame * 255)

    def test_header_format(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.ones((2, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_comment_lines_tolerated(self, tmp_path):
        path = tmp_path / "f.pgm"
        frame = np.eye(4, dtype=np.uint8)
        write_pgm(path, frame)
        raw = path.read_bytes()
        path.write_bytes(b"P5\n# a comment\n" + raw[3:])
        assert np.array_equal(read_pgm(path), frame * 255)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DatasetError, match="P5"):
            read_pgm(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.ones((4, 4), dtype=np.uint8))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(DatasetError, match="truncated"):
            read_pgm(path)


class TestLoadErrors:
    def _micro(self, tmp_path):
        spec = tiny_domain_spec("M", identities=1, test_identities=0,
                                walks={"NM": 1}, views=("090",), frames=2)
        root = tmp_path / "m"
        generate_domain(spec, root, domain="t", seed=2)
        return root

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            load_manifest(tmp_path)

    def test_bad_manifest_version(self, tmp_path):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["format_version"] = 99
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="format_version"):
            load_manifest(root)

    def test_duplicate_sample_ids(self, tmp_path):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["records"].append(dict(doc["records"][0]))
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="duplicate"):
            load_manifest(root)

    def test_corrupt_pixel_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        target = next(root.rglob("frame0001.pgm"))
        raw = bytearray(target.read_bytes())
        raw[-1] = 128  # neither 0 nor 255
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="M001-nm-01-090.*non-binary"):
            load_dataset(root)

    def test_missing_frame_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        next(root.rglob("frame0001.pgm")).unlink()
        with pytest.raises(DatasetError, match="M001-nm-01-090.*missing frame"):
            load_dataset(root)

    def test_split_load_reads_only_that_split(self, tiny_source_dir, tmp_path):
        root = tmp_path / "src"
        shutil.copytree(tiny_source_dir, root)
        full = load_dataset(root)
        next((root / "test").rglob("frame0000.pgm")).unlink()
        train = load_dataset(root, split="train")
        assert [s.sample_id for s in train.sequences] == [
            s.sample_id for s in full.split("train")]
        assert all(np.array_equal(a.frames, b.frames)
                   for a, b in zip(train.sequences, full.split("train")))
        assert train.split("test") == []
        assert len(train.manifest.records) == len(full.manifest.records)
        with pytest.raises(DatasetError, match="missing frame"):
            load_dataset(root, split="test")

    def test_wrong_frame_shape_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        target = next(root.rglob("frame0000.pgm"))
        write_pgm(target, np.ones((3, 3), dtype=np.uint8))
        with pytest.raises(DatasetError, match="M001-nm-01-090.*shape"):
            load_dataset(root)


class TestPkSampler:
    def _seqs(self, n_ids=4, per_id=3):
        rng = make_rng(3)
        out = []
        for i in range(n_ids):
            for j in range(per_id):
                frames = (rng.random((2, 8, 8)) < 0.5).astype(np.uint8)
                out.append(SilhouetteSequence(
                    frames=frames, sample_id=f"p{i}-nm-{j:02d}-090",
                    identity=f"p{i}"))
        return out

    def test_batch_composition(self):
        seqs = self._seqs()
        batch = sample_pk_batch(seqs, p=3, k_s=2, rng=make_rng(0))
        assert len(batch) == 6
        by_id: dict = {}
        for s in batch:
            by_id.setdefault(s.identity, set()).add(s.sample_id)
        assert len(by_id) == 3
        assert all(len(v) == 2 for v in by_id.values())

    def test_deterministic_under_seeded_rng(self):
        seqs = self._seqs()
        a = sample_pk_batch(seqs, 3, 2, seed_stream(1, 2))
        b = sample_pk_batch(seqs, 3, 2, seed_stream(1, 2))
        assert [s.sample_id for s in a] == [s.sample_id for s in b]

    def test_too_few_identities_reports_counts(self):
        seqs = self._seqs(n_ids=2)
        with pytest.raises(ValueError, match="available counts"):
            sample_pk_batch(seqs, p=3, k_s=2, rng=make_rng(0))

    def test_too_few_sequences_per_identity(self):
        seqs = self._seqs(per_id=1)
        with pytest.raises(ValueError, match="only 0 identities"):
            sample_pk_batch(seqs, p=2, k_s=2, rng=make_rng(0))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            sample_pk_batch(self._seqs(), 0, 1, make_rng(0))

    def test_rejects_unlabeled_sequences(self):
        frames = np.ones((1, 4, 4), dtype=np.uint8)
        seqs = [SilhouetteSequence(frames=frames, sample_id="u-nm-01-000")]
        with pytest.raises(ValueError, match="no identity"):
            sample_pk_batch(seqs, 1, 1, make_rng(0))


class TestSignal:
    def test_identity_signal_in_raw_pixels(self, tmp_path):
        # the benchmark must carry identity information even before encoding
        spec = tiny_domain_spec("G", identities=4, test_identities=0,
                                walks={"NM": 2}, views=("090",), height=16,
                                width=16, frames=6)
        generate_domain(spec, tmp_path / "g", domain="t", seed=21)
        ds = load_dataset(tmp_path / "g")
        feats = {s.sample_id: s.frames.mean(axis=0).ravel() for s in ds.sequences}
        ids = {s.sample_id: s.identity for s in ds.sequences}
        within, across = [], []
        keys = sorted(feats)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                fa, fb = feats[a], feats[b]
                cos = fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb))
                (within if ids[a] == ids[b] else across).append(cos)
        assert np.mean(within) > np.mean(across)
