import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from gaitadapt import data
from gaitadapt.config import ExperimentConfig, load_config, preset_config, save_config
from gaitadapt.data import (
    DatasetError,
    DomainSpec,
    generate_domain,
    load_dataset,
    load_manifest,
    read_pgm,
    sample_pk_batch,
)
from gaitadapt.encoder import EncoderShape, SilhouetteSequence, encode_batch, init_params
from gaitadapt.numerics import WORK_BYTES, make_rng, seed_stream

from conftest import tiny_domain_spec, traced_peak


DESK_SEED1_PIXELS = "b11c0d64cf339a6ed207015d7cbe3efe84152f4eee20b93be804fec692609032"


def write_pgm(path, frame01):
    """Binary P5 PGM of a 0/1 frame, with the header gen-data writes."""
    frame01 = np.asarray(frame01, dtype=np.uint8)
    path.write_bytes(data._pgm_header(frame01.shape[1], frame01.shape[0])
                     + (frame01 * 255).tobytes())


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

    def test_dict_roundtrip(self, tmp_path):
        spec = tiny_domain_spec(period=9.5, scale=(0.9, 1.1), body_jitter=(0.01, 0.2))
        for cfg in (preset_config("desk"), ExperimentConfig(source=spec, target=spec)):
            save_config(cfg, tmp_path / "cfg.json")
            back = load_config(tmp_path / "cfg.json")
            assert (back.source, back.target) == (cfg.source, cfg.target)
        assert back.source.scale == (0.9, 1.1) and back.source.body_jitter == (0.01, 0.2)
        assert DomainSpec(views=["000"]) == DomainSpec(views=("000",))


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
            assert r.frame_count == 4
        # one file per split, its sequences' frames stacked top to bottom
        assert read_pgm(tiny_source_dir / "train.pgm").shape == (18 * 4 * 8, 8)
        assert read_pgm(tiny_source_dir / "test.pgm").shape == (12 * 4 * 8, 8)
        assert len(list(tiny_source_dir.rglob("*.pgm"))) == 2

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

    def test_regeneration_drops_a_split_that_became_empty(self, tmp_path):
        root = tmp_path / "d"
        generate_domain(tiny_domain_spec("D"), root, domain="source", seed=5)
        generate_domain(tiny_domain_spec("D", test_identities=0), root, domain="source",
                        seed=5)
        assert sorted(p.name for p in root.iterdir()) == ["manifest.json", "train.pgm"]
        assert len(load_dataset(root).sequences) == 18

    @pytest.mark.parametrize("fail_at", [5, 20])
    def test_interrupted_regeneration_leaves_no_loadable_mix(self, tmp_path, monkeypatch,
                                                              fail_at):
        # the tiny target renders 18 train walks, then 12 test walks; a
        # regeneration at another seed fails at the chunk holding walk fail_at,
        # in either split
        spec = tiny_domain_spec("T")
        root = tmp_path / "t"
        generate_domain(spec, root, domain="target", seed=1)
        real, rendered = data._render_chunk, []

        def render(spec, walks):
            rendered.extend(walks)
            if len(rendered) >= fail_at:
                raise OSError("disk full")
            return real(spec, walks)
        monkeypatch.setattr(data, "_render_chunk", render)
        with pytest.raises(OSError, match="disk full"):
            generate_domain(spec, root, domain="target", seed=2)
        with pytest.raises(DatasetError, match="no manifest.json"):
            load_dataset(root)
        assert [p.name for p in root.iterdir() if p.suffix == ".tmp"] == []

    @pytest.mark.parametrize("dilate", [1, -2])
    def test_walk_frames_do_not_depend_on_chunk_neighbours(self, tmp_path, monkeypatch,
                                                           dilate):
        # 5-frame walks do not fill a chunk evenly: with six identities of
        # 8 walks the first identity shares its chunk with the second, and
        # alone it fills only part of one; heavy erosion empties frames
        spec = tiny_domain_spec("C", identities=1, test_identities=0, frames=5,
                                walks={"NM": 2, "BG": 1, "CL": 1}, dilate=dilate,
                                noise=0.05)
        many = dataclasses.replace(spec, identities=6)
        chunk_frames = 64
        monkeypatch.setattr(data, "WORK_BYTES", chunk_frames * 8 * spec.height * spec.width)
        assert chunk_frames % spec.frames
        assert many.identities * many.sequences_per_identity * many.frames > 2 * chunk_frames
        generate_domain(spec, tmp_path / "one", domain="t", seed=3)
        generate_domain(many, tmp_path / "many", domain="t", seed=3)
        alone = load_dataset(tmp_path / "one").sequences
        shared = [s for s in load_dataset(tmp_path / "many").sequences
                  if s.identity == "C001"]
        assert [s.sample_id for s in alone] == [s.sample_id for s in shared]
        for a, b in zip(alone, shared):
            assert a.frames.tobytes() == b.frames.tobytes(), a.sample_id
        # and every walk renders as it does in a chunk of its own
        monkeypatch.setattr(data, "WORK_BYTES", 1)
        generate_domain(many, tmp_path / "single", domain="t", seed=3)
        assert ((tmp_path / "single" / "train.pgm").read_bytes()
                == (tmp_path / "many" / "train.pgm").read_bytes())

    def test_seed_changes_the_data(self, tmp_path):
        spec = tiny_domain_spec("D")
        generate_domain(spec, tmp_path / "a", domain="source", seed=5)
        generate_domain(spec, tmp_path / "b", domain="source", seed=6)
        a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
        assert any(a[k] != b[k] for k in a if k.suffix == ".pgm")

    def test_desk_pixels_are_pinned(self, tmp_path):
        # SHA-256 over every loaded frames array of the desk preset's source
        # and target at seed 1, both splits, in manifest order; recorded when
        # sequences were still rendered and stored one frame at a time
        cfg = preset_config("desk")
        digest = hashlib.sha256()
        for domain, spec in (("source", cfg.source), ("target", cfg.target)):
            generate_domain(spec, tmp_path / domain, domain=domain, seed=1)
            for s in load_dataset(tmp_path / domain).sequences:
                assert s.frames.dtype == np.uint8
                digest.update(s.frames.tobytes())
        assert digest.hexdigest() == DESK_SEED1_PIXELS

    @pytest.mark.parametrize("dilate,scale,pixels", [
        (-3, (5.0, 3.0), "3b3359fe6ccddf4db94c8729193fd6afa0a524c7d33224ac008857503748dad5"),
        (-1, (5.0, 3.0), "af0ee7111d08dc36f1a2618ea4a849ca770fec8550c8dbc04994162e16fcfaec"),
        (2, (1.0, 1.0), "b3292adb44fd5bf2d6996cde33b7f15df281d2f8cfb2318988c753f5052d6964"),
        (3, (1.0, 1.0), "befc9020f52ae3d0c256502e7660b8c090759bc66a37801f2b5f63374e511e90"),
    ])
    def test_styled_pixels_are_pinned(self, tmp_path, dilate, scale, pixels):
        # SHA-256 over every loaded frames array of an odd-sized 13 x 7,
        # 5-frame domain at seed 4, recorded when scipy.ndimage did the
        # morphology; the erosion cases scale bodies up so that some reach
        # the frame edge and some survive three rounds
        spec = tiny_domain_spec("M", height=13, width=7, frames=5, dilate=dilate,
                                scale=scale)
        generate_domain(spec, tmp_path, domain="m", seed=4)
        digest = hashlib.sha256()
        for s in load_dataset(tmp_path).sequences:
            digest.update(s.frames.tobytes())
        assert digest.hexdigest() == pixels

    def test_loaded_frames_are_binary(self, tiny_source_dir):
        ds = load_dataset(tiny_source_dir)
        assert len(ds.sequences) == 30
        for s in ds.sequences:
            vals = np.unique(s.frames)
            assert np.all(np.isin(vals, (0, 1)))
            assert s.frames.sum() > 0

    def test_split_load_holds_one_copy_of_the_pixels(self, tmp_path):
        # the split file streams through one buffer and is never held whole:
        # the traced peak of a load stays below one file's size
        spec = tiny_domain_spec("L", identities=8, test_identities=1, frames=8,
                                height=64, width=64)
        generate_domain(spec, tmp_path, domain="t", seed=3)
        size = (tmp_path / "train.pgm").stat().st_size
        ds, peak, _ = traced_peak(lambda: load_dataset(tmp_path, split="train"))
        assert sum(s.frames.size for s in ds.sequences) > 0.99 * size
        assert peak < 1.25 * size

    def test_loaded_split_holds_one_bit_per_pixel(self, tmp_path):
        # a loaded split keeps its frames packed, an eighth of the file's
        # pixel bytes, in one buffer that its sequences view
        spec = tiny_domain_spec("L", identities=8, test_identities=1, frames=8,
                                height=64, width=64)
        generate_domain(spec, tmp_path, domain="t", seed=3)
        size = (tmp_path / "train.pgm").stat().st_size
        ds, _, held = traced_peak(lambda: load_dataset(tmp_path, split="train"))
        assert held <= 0.2 * size
        pixels = sum(s.length for s in ds.sequences) * 64 * 64
        buffer = ds.sequences[0].packed.base
        assert buffer.nbytes == sum(s.packed.nbytes for s in ds.sequences) == pixels // 8

    def test_sequences_of_a_split_share_one_packed_buffer(self, tiny_source_dir):
        ds = load_dataset(tiny_source_dir)
        for split in ("train", "test"):
            seqs = ds.split(split)
            buffer = seqs[0].packed.base
            assert buffer is not None and buffer.base is None
            assert all(s.packed.base is buffer for s in seqs)
        assert ds.split("train")[0].packed.base is not ds.split("test")[0].packed.base

    def test_loaded_and_constructed_sequences_encode_alike(self, tmp_path):
        # 13 pixels wide: each packed image row ends in 3 pad bits
        spec = tiny_domain_spec("W", width=13)
        generate_domain(spec, tmp_path, domain="t", seed=5)
        loaded = load_dataset(tmp_path).sequences
        built = [SilhouetteSequence.from_frames(s.frames, s.sample_id, identity=s.identity)
                 for s in loaded]
        assert all(a.packed.tobytes() == b.packed.tobytes() for a, b in zip(loaded, built))
        shape = EncoderShape(height=8, width=13, bands=2, channels=8, scales=2, embed_dim=12)
        params = init_params(shape, seed_stream(5, 0))
        params.tensors["strip.bias"] += 0.1  # no zero embedding
        assert (encode_batch(loaded, params).embeddings.tobytes()
                == encode_batch(built, params).embeddings.tobytes())

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

    def _sequence_file(self, root):
        (path,) = root.rglob("*.pgm")
        return path

    def _pair(self, tmp_path):
        # two 2-frame sequences of 8x8 in one train split file
        spec = tiny_domain_spec("M", identities=1, test_identities=0,
                                walks={"NM": 2}, views=("090",), frames=2)
        root = tmp_path / "p"
        generate_domain(spec, root, domain="t", seed=2)
        return root

    def test_bad_manifest_version(self, tmp_path):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["format_version"] = 99
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="format_version"):
            load_manifest(root)

    def test_version_1_manifest_is_refused(self, tmp_path):
        # version 1 named a directory of frame files per sequence
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["format_version"] = 1
        for r in doc["records"]:
            r["path"] = f"train/M001/nm-01/{r['view']}"
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="format_version 1, expected 3"):
            load_dataset(root)

    def test_version_2_manifest_is_refused(self, tmp_path):
        # version 2 named one file per sequence
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["format_version"] = 2
        for r in doc["records"]:
            r["path"] = f"train/M001/nm-01/{r['view']}.pgm"
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="format_version 2, expected 3; regenerate"
                                               " the data with gen-data"):
            load_dataset(root)

    @pytest.mark.parametrize("field, value", [("height", 8.0), ("height", True),
                                              ("width", -8), ("width", 0), ("height", "8")])
    def test_frame_size_must_be_a_positive_integer(self, tmp_path, field, value):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc[field] = value
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=f"{field} must be a positive integer, got "
                                               f"{re.escape(repr(value))}"):
            load_manifest(root)

    @pytest.mark.parametrize("field, value", [("split", "valid"), ("frame_count", 0),
                                              ("frame_count", 1.0)])
    def test_record_split_and_frame_count_are_checked(self, tmp_path, field, value):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        doc["records"][0][field] = value
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="M001-nm-01-090 has split"):
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
        target = self._sequence_file(root)
        raw = bytearray(target.read_bytes())
        raw[-64 + 5] = 128  # neither 0 nor 255, in the second of two 8x8 frames
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError,
                           match="M001-nm-01-090: frame 1 has non-binary pixel value 128"):
            load_dataset(root)

    def test_corrupt_pixel_maps_to_its_sample_and_frame(self, tmp_path):
        root = self._pair(tmp_path)
        target = root / "train.pgm"
        raw = bytearray(target.read_bytes())
        # the last frame of the second sequence is the last 64 bytes
        raw[-64 + 9] = 3
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError,
                           match="M001-nm-02-090: frame 1 has non-binary pixel value 3"):
            load_dataset(root)
        raw[-64 + 9], raw[-4 * 64] = 255, 9  # the first frame of the first sequence
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError,
                           match="M001-nm-01-090: frame 0 has non-binary pixel value 9"):
            load_dataset(root)

    def test_split_file_one_frame_short_names_last_sample(self, tmp_path):
        root = self._pair(tmp_path)
        target = root / "train.pgm"
        write_pgm(target, read_pgm(target)[:3 * 8] // 255)  # three frames of four
        with pytest.raises(DatasetError,
                           match=r"M001-nm-02-090: split file .*train.pgm has shape"
                                 r" \(24, 8\), expected 4 frames of 8x8"):
            load_dataset(root)

    def test_missing_frame_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        self._sequence_file(root).unlink()
        with pytest.raises(DatasetError, match="M001-nm-01-090.*missing split file"):
            load_dataset(root)

    def test_truncated_sequence_file_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        target = self._sequence_file(root)
        target.write_bytes(target.read_bytes()[:-10])
        with pytest.raises(DatasetError, match="M001-nm-01-090.*truncated"):
            load_dataset(root)

    def test_trailing_frame_names_sample(self, tmp_path):
        # a whole extra 8x8 frame of valid pixels after the declared data
        root = self._micro(tmp_path)
        target = self._sequence_file(root)
        target.write_bytes(target.read_bytes() + bytes([255]) * 64)
        with pytest.raises(DatasetError,
                           match="M001-nm-01-090.*64 bytes of trailing data"):
            load_dataset(root)

    def test_row_count_must_match_frame_count(self, tmp_path):
        root = self._micro(tmp_path)
        target = self._sequence_file(root)
        write_pgm(target, read_pgm(target)[:8] // 255)  # one frame of two
        with pytest.raises(DatasetError,
                           match=r"M001-nm-01-090.*shape \(8, 8\), expected 2 frames of 8x8"):
            load_dataset(root)

    def test_split_load_reads_only_that_split(self, tiny_source_dir, tmp_path):
        root = tmp_path / "src"
        shutil.copytree(tiny_source_dir, root)
        full = load_dataset(root)
        (root / "test.pgm").unlink()
        train = load_dataset(root, split="train")
        assert [s.sample_id for s in train.sequences] == [
            s.sample_id for s in full.split("train")]
        assert all(np.array_equal(a.frames, b.frames)
                   for a, b in zip(train.sequences, full.split("train")))
        assert train.split("test") == []
        assert len(train.manifest.records) == len(full.manifest.records)
        with pytest.raises(DatasetError, match="missing split file"):
            load_dataset(root, split="test")

    def test_split_without_records_is_refused(self, tmp_path):
        root = self._micro(tmp_path)
        doc = json.loads((root / "manifest.json").read_text())
        for r in doc["records"]:
            r["split"] = "test"
        (root / "manifest.json").write_text(json.dumps(doc))
        (root / "train.pgm").rename(root / "test.pgm")
        assert len(load_dataset(root, split="test").sequences) == 1
        with pytest.raises(DatasetError, match="has no train split"):
            load_dataset(root, split="train")

    def test_wrong_frame_shape_names_sample(self, tmp_path):
        root = self._micro(tmp_path)
        target = self._sequence_file(root)
        write_pgm(target, np.ones((3, 3), dtype=np.uint8))
        with pytest.raises(DatasetError, match="M001-nm-01-090.*shape"):
            load_dataset(root)


class TestStreamedLoad:
    """A split streams through one read buffer of at most WORK_BYTES."""

    def test_load_peak_is_the_packed_split_and_one_buffer(self, tmp_path):
        # 64 x 64 frames, 48 per identity, and at least 8 buffers of pixels
        per_identity = 48 * 64 * 64
        spec = tiny_domain_spec("B", identities=-(-8 * WORK_BYTES // per_identity),
                                test_identities=0, frames=8, height=64, width=64)
        generate_domain(spec, tmp_path, domain="t", seed=3)
        pixels = spec.identities * per_identity
        assert (tmp_path / "train.pgm").stat().st_size > pixels >= 8 * WORK_BYTES
        ds, peak, held = traced_peak(lambda: load_dataset(tmp_path, split="train"))
        packed = ds.sequences[0].packed.base.nbytes
        assert packed == pixels // 8
        # held is the packed split and the sequence objects
        assert peak < held + 2 * WORK_BYTES

    def _chunked(self, tiny_source_dir, tmp_path, monkeypatch):
        # 18 train sequences of four 8 x 8 frames, read 5 frames at a time:
        # 15 chunks, the last holding frames 70 and 71
        root = tmp_path / "src"
        shutil.copytree(tiny_source_dir, root)
        monkeypatch.setattr(data, "WORK_BYTES", 5 * 64)
        return root, load_manifest(root).split("train")

    def test_chunked_load_equals_one_chunk(self, tiny_source_dir, tmp_path, monkeypatch):
        whole = load_dataset(tiny_source_dir, split="train").sequences
        root, _ = self._chunked(tiny_source_dir, tmp_path, monkeypatch)
        chunked = load_dataset(root, split="train").sequences
        assert ([s.packed.tobytes() for s in chunked]
                == [s.packed.tobytes() for s in whole])

    @pytest.mark.parametrize("frame", [33, 71])
    def test_corrupt_pixel_in_a_later_chunk_names_its_sample_and_frame(
            self, tiny_source_dir, tmp_path, monkeypatch, frame):
        root, records = self._chunked(tiny_source_dir, tmp_path, monkeypatch)
        target = root / "train.pgm"
        raw = bytearray(target.read_bytes())
        raw[len(raw) - 72 * 64 + frame * 64 + 10] = 7
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError,
                           match=f"{records[frame // 4].sample_id}: frame {frame % 4}"
                                 " has non-binary pixel value 7"):
            load_dataset(root, split="train")

    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw[:-10], r"S003-bg-01-090: .*train.pgm: truncated pixel data"),
        (lambda raw: raw + bytes([255]) * 64, r"S003-bg-01-090: .*train.pgm: 64 bytes of"
                                              " trailing data after the pixels"),
        (lambda raw: raw.replace(b"\n8 576\n", b"\n16 288\n", 1),
         r"S003-bg-01-090: split file .*train.pgm has shape \(288, 16\), expected 72 frames"
         " of 8x8"),
    ], ids=["truncated", "trailing", "wrong-shape"])
    def test_file_errors_name_the_last_sample(self, tiny_source_dir, tmp_path, monkeypatch,
                                              cut, message):
        root, _ = self._chunked(tiny_source_dir, tmp_path, monkeypatch)
        target = root / "train.pgm"
        target.write_bytes(cut(target.read_bytes()))
        with pytest.raises(DatasetError, match=message):
            load_dataset(root, split="train")

    def test_file_cut_while_read_is_an_error(self, tiny_source_dir, tmp_path, monkeypatch):
        # the file loses its last frame after its size was checked
        root, _ = self._chunked(tiny_source_dir, tmp_path, monkeypatch)
        target = root / "train.pgm"
        real = data._pgm_pixels

        def shrinking(fh, where):
            shape = real(fh, where)
            os.truncate(target, target.stat().st_size - 64)
            return shape
        monkeypatch.setattr(data, "_pgm_pixels", shrinking)
        with pytest.raises(DatasetError, match="S003-bg-01-090: .*train.pgm: truncated"):
            load_dataset(root, split="train")


class TestPkSampler:
    def _seqs(self, n_ids=4, per_id=3):
        rng = make_rng(3)
        out = []
        for i in range(n_ids):
            for j in range(per_id):
                frames = (rng.random((2, 8, 8)) < 0.5).astype(np.uint8)
                out.append(SilhouetteSequence.from_frames(
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
        seqs = [SilhouetteSequence.from_frames(frames=frames, sample_id="u-nm-01-000")]
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
