import numpy as np
import pytest

import gaitadapt.encoder as encoder_module
from gaitadapt.encoder import (
    EncoderParams,
    EncoderShape,
    SilhouetteSequence,
    encode_backward,
    encode_batch,
    encode_sequence,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from gaitadapt.numerics import DegenerateInputError, make_rng, seed_stream

from conftest import SMALL_SHAPE, random_sequences


def _seq(rng, shape=SMALL_SHAPE, frames=3, sid="s-nm-01-090"):
    mats = (rng.random((frames, shape.height, shape.width)) < 0.45).astype(np.uint8)
    return SilhouetteSequence(frames=mats, sample_id=sid, identity="s")


class TestShape:
    def test_rejects_height_not_divisible_by_bands(self):
        with pytest.raises(ValueError, match="not divisible by bands"):
            EncoderShape(height=10, width=8, bands=4, channels=3, scales=2, embed_dim=6)

    def test_rejects_bands_incompatible_with_scales(self):
        with pytest.raises(ValueError, match="2\\^"):
            EncoderShape(height=12, width=8, bands=3, channels=3, scales=2, embed_dim=6)

    def test_rejects_embed_dim_not_divisible_by_strips(self):
        with pytest.raises(ValueError, match="strip count"):
            EncoderShape(height=8, width=8, bands=2, channels=3, scales=2, embed_dim=7)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            EncoderShape(height=8, width=0, bands=2, channels=3, scales=2, embed_dim=6)

    def test_strip_count(self):
        assert SMALL_SHAPE.n_strips == 3
        assert EncoderShape(24, 24, 8, 16, 3, 112).n_strips == 7

    def test_roundtrip(self):
        assert EncoderShape.from_dict(SMALL_SHAPE.to_dict()) == SMALL_SHAPE


class TestParams:
    # hand counts: channels*band_pixels + channels + channels^2 + channels
    #              + n_strips * (strip_dim*channels + strip_dim)
    @pytest.mark.parametrize("shape,expected", [
        (SMALL_SHAPE, 3 * 32 + 3 + 9 + 3 + 3 * (2 * 3 + 2)),            # 135
        (EncoderShape(16, 16, 4, 8, 2, 24), 8 * 64 + 8 + 64 + 8 + 3 * 72),   # 808
        (EncoderShape(24, 24, 8, 16, 3, 112), 16 * 72 + 16 + 256 + 16 + 7 * 272),
    ])
    def test_param_count(self, shape, expected):
        params = init_params(shape, make_rng(0))
        assert params.count() == expected

    def test_layout_order(self, small_params):
        names = small_params.names()
        assert names[:4] == ["frame.weight", "frame.bias", "mix.weight", "mix.bias"]
        assert names[4:] == ["strip0.weight", "strip0.bias", "strip1.weight",
                             "strip1.bias", "strip2.weight", "strip2.bias"]

    def test_init_biases_zero_weights_bounded(self, small_params):
        for name in small_params.names():
            t = small_params[name]
            if name.endswith(".bias"):
                assert np.array_equal(t, np.zeros_like(t))
            else:
                fan_out, fan_in = t.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.all(np.abs(t) <= bound)

    def test_init_deterministic(self):
        a = init_params(SMALL_SHAPE, seed_stream(3, 1))
        b = init_params(SMALL_SHAPE, seed_stream(3, 1))
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_copy_is_deep(self, small_params):
        c = small_params.copy()
        c.tensors["frame.bias"][0] = 99.0
        assert small_params["frame.bias"][0] == 0.0


class TestForward:
    def test_embedding_is_unit_norm(self, small_params):
        rng = make_rng(10)
        for _ in range(10):
            emb = encode_sequence(_seq(rng), small_params)
            assert emb.shape == (SMALL_SHAPE.embed_dim,)
            assert abs(np.linalg.norm(emb) - 1.0) < 1e-12

    def test_frame_order_invariance_bitwise(self, small_params):
        rng = make_rng(11)
        for trial in range(25):
            seq = _seq(rng, frames=int(rng.integers(2, 9)))
            perm = rng.permutation(seq.length)
            shuffled = SilhouetteSequence(
                frames=seq.frames[perm], sample_id=seq.sample_id, identity=seq.identity)
            assert np.array_equal(encode_sequence(seq, small_params),
                                  encode_sequence(shuffled, small_params))

    def test_matches_loop_oracle(self, small_params):
        # independent scalar-loop reimplementation of the whole forward pass
        sh = SMALL_SHAPE
        rng = make_rng(13)
        seq = _seq(rng, frames=4)

        pooled = np.full((sh.bands, sh.channels), -np.inf)
        for fr in seq.frames:
            bands = fr.astype(np.float64).reshape(sh.bands, sh.band_pixels)
            for b in range(sh.bands):
                for c in range(sh.channels):
                    h1 = [max(float(np.dot(small_params["frame.weight"][cc], bands[b]))
                              + small_params["frame.bias"][cc], 0.0)
                          for cc in range(sh.channels)]
                    z2 = float(np.dot(small_params["mix.weight"][c], h1))
                    z2 += small_params["mix.bias"][c]
                    pooled[b, c] = max(pooled[b, c], max(z2, 0.0))

        pieces = []
        t = 0
        for s in range(1, sh.scales + 1):
            size = sh.bands // (2 ** (s - 1))
            for g in range(2 ** (s - 1)):
                m = pooled[g * size:(g + 1) * size].mean(axis=0)
                pieces.append(small_params[f"strip{t}.weight"] @ m
                              + small_params[f"strip{t}.bias"])
                t += 1
        flat = np.concatenate(pieces)
        expected = flat / np.linalg.norm(flat)
        got = encode_sequence(seq, small_params)
        assert np.allclose(got, expected, atol=1e-12)

    def test_all_zero_frames_raise_degenerate(self):
        # zero biases at init make the whole pipeline output exactly zero
        params = init_params(SMALL_SHAPE, make_rng(14))
        frames = np.zeros((2, SMALL_SHAPE.height, SMALL_SHAPE.width), dtype=np.uint8)
        seq = SilhouetteSequence(frames=frames, sample_id="z-nm-01-000")
        with pytest.raises(DegenerateInputError):
            encode_sequence(seq, params)

    def test_wrong_frame_shape_names_sample(self, small_params):
        frames = np.zeros((1, 4, 4), dtype=np.uint8)
        frames[0, 0, 0] = 1
        seq = SilhouetteSequence(frames=frames, sample_id="bad-nm-01-000")
        with pytest.raises(ValueError, match="bad-nm-01-000"):
            encode_sequence(seq, small_params)

    @pytest.mark.parametrize("shape", [SMALL_SHAPE, EncoderShape(24, 24, 8, 16, 3, 112)])
    def test_batch_rows_match_single_encodings_bitwise(self, shape, monkeypatch):
        rng = make_rng(15)
        params = init_params(shape, seed_stream(15, 0))
        seqs = [_seq(rng, shape, frames=int(k), sid=f"b{i}-nm-01-000")
                for i, k in enumerate([1, 3, 12, 2, 7, 1, 30, 5])]
        single = np.stack([encode_sequence(s, params) for s in seqs])
        assert np.array_equal(encode_batch(seqs, params).embeddings, single)
        monkeypatch.setattr(encoder_module, "CHUNK_FRAMES", 8)
        assert np.array_equal(encoder_module.encode_sequences(seqs, params), single)

    def test_empty_batch_rejected(self, small_params):
        with pytest.raises(ValueError, match="at least one sequence"):
            encode_batch([], small_params)

    def test_degenerate_batch_member_names_sample(self):
        params = init_params(SMALL_SHAPE, make_rng(14))
        live = _seq(make_rng(16), sid="live-nm-01-000")
        dead = SilhouetteSequence(
            frames=np.zeros((2, SMALL_SHAPE.height, SMALL_SHAPE.width), dtype=np.uint8),
            sample_id="dead-nm-01-000")
        with pytest.raises(DegenerateInputError, match="dead-nm-01-000"):
            encode_batch([live, dead], params)

    def test_sequence_rejects_nonbinary_frames(self):
        frames = np.full((1, 8, 8), 3, dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            SilhouetteSequence(frames=frames, sample_id="x-nm-01-000")


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        # scalar objective J = sum_i <g_i, encode(seq_i)>
        for seed in range(1, 6):
            rng = make_rng(seed)
            params = init_params(SMALL_SHAPE, seed_stream(seed, 2))
            for name in params.names():
                # evaluate away from ReLU kinks: zero biases park z2 exactly
                # at 0 wherever a whole band dies, where FD and the
                # subgradient legitimately disagree
                if name.endswith(".bias"):
                    params.tensors[name] += 0.05 * rng.standard_normal(
                        params[name].shape)
            seqs = random_sequences(rng, 2, 1, frames=3, prefix=f"fd{seed}")
            gs = [rng.standard_normal(SMALL_SHAPE.embed_dim) for _ in seqs]

            analytic = encode_backward(seqs, params, gs)

            def objective(p):
                return sum(float(g @ encode_sequence(s, p)) for s, g in zip(seqs, gs))

            h = 1e-6
            for name in params.names():
                t = params[name]
                fd = np.zeros_like(t)
                it = np.nditer(t, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = t[idx]
                    t[idx] = orig + h
                    up = objective(params)
                    t[idx] = orig - h
                    down = objective(params)
                    t[idx] = orig
                    fd[idx] = (up - down) / (2.0 * h)
                a = analytic[name]
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(a - fd) / denom <= 1e-5, f"seed {seed} {name}"
                assert np.allclose(a, fd, rtol=1e-5, atol=1e-8), f"seed {seed} {name}"

    def test_reused_trace_matches_recomputed_forward(self, small_params):
        rng = make_rng(24)
        seqs = [_seq(rng, frames=k, sid=f"r{k}-nm-01-000") for k in (1, 4, 2)]
        gs = rng.standard_normal((3, SMALL_SHAPE.embed_dim))
        fresh = encode_backward(seqs, small_params, gs)
        reused = encode_backward(seqs, small_params, gs,
                                 trace=encode_batch(seqs, small_params))
        for name in small_params.names():
            assert np.array_equal(fresh[name], reused[name]), name
        with pytest.raises(ValueError, match="trace"):
            encode_backward(seqs[:2], small_params, gs[:2],
                            trace=encode_batch(seqs, small_params))

    def test_tied_cells_route_to_lowest_index_frame(self):
        # pixel 0 has zero weight, so two frames that differ only there tie
        # in every pooled cell; only the winner's pixel reaches the gradient
        params = init_params(SMALL_SHAPE, seed_stream(25, 0))
        params.tensors["frame.weight"][:, 0] = 0.0
        for name in ("frame.bias", "mix.bias"):
            params.tensors[name] += 0.5
        base = (make_rng(25).random((SMALL_SHAPE.height, SMALL_SHAPE.width)) < 0.5)
        base = base.astype(np.uint8)
        base[0, 0] = 0
        marked = base.copy()
        marked[0, 0] = 1
        g = [make_rng(26).standard_normal(SMALL_SHAPE.embed_dim)]

        def pixel0_grad(frames):
            seq = SilhouetteSequence(frames=np.stack(frames), sample_id="tie-nm-01-000")
            return encode_backward([seq], params, g)["frame.weight"][:, 0]

        assert np.array_equal(pixel0_grad([base, marked]), np.zeros(SMALL_SHAPE.channels))
        assert np.any(pixel0_grad([marked, base]) != 0.0)

    def test_accumulates_over_sequences(self, small_params):
        rng = make_rng(20)
        seqs = random_sequences(rng, 2, 1, frames=2, prefix="acc")
        gs = [rng.standard_normal(SMALL_SHAPE.embed_dim) for _ in seqs]
        both = encode_backward(seqs, small_params, gs)
        solo = [encode_backward([s], small_params, [g]) for s, g in zip(seqs, gs)]
        for name in small_params.names():
            assert np.allclose(both[name], solo[0][name] + solo[1][name], atol=1e-12)

    def test_zero_gradient_in_gives_zero_out(self, small_params):
        rng = make_rng(21)
        seq = _seq(rng)
        grads = encode_backward([seq], small_params, [np.zeros(SMALL_SHAPE.embed_dim)])
        for name, dims in [(n, small_params[n].shape) for n in small_params.names()]:
            assert np.array_equal(grads[name], np.zeros(dims))

    def test_rejects_mismatched_lengths(self, small_params):
        rng = make_rng(22)
        with pytest.raises(ValueError, match="gradients"):
            encode_backward([_seq(rng)], small_params, [])

    def test_rejects_wrong_gradient_shape(self, small_params):
        rng = make_rng(23)
        with pytest.raises(ValueError, match="gradient shape"):
            encode_backward([_seq(rng)], small_params, [np.zeros(3)])


class TestCheckpoint:
    def test_roundtrip_exact(self, small_params, tmp_path):
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        loaded = load_checkpoint(path)
        assert loaded.shape == small_params.shape
        for name in small_params.names():
            assert np.array_equal(loaded[name], small_params[name])

    def test_save_is_deterministic(self, small_params, tmp_path):
        save_checkpoint(small_params, tmp_path / "a.json")
        save_checkpoint(small_params, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_bad_version(self, small_params, tmp_path):
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(path)

    def test_rejects_missing_parameter(self, small_params, tmp_path):
        import json
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        doc = json.loads(path.read_text())
        del doc["params"]["mix.bias"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="mix.bias"):
            load_checkpoint(path)

    def test_rejects_wrong_dims(self, small_params, tmp_path):
        import json
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        doc = json.loads(path.read_text())
        doc["params"]["frame.bias"]["dims"] = [5]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dims"):
            load_checkpoint(path)
