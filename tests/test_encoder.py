import dataclasses

import numpy as np
import pytest

import gaitadapt.encoder as encoder_module
from gaitadapt.config import (
    ExperimentConfig,
    default_encoder_shape,
    default_source_spec,
    load_config,
    preset_config,
    save_config,
)
from gaitadapt.data import generate_domain, load_dataset
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
from gaitadapt.numerics import WORK_BYTES, DegenerateInputError, make_rng, seed_stream

from conftest import SMALL_SHAPE, random_sequences, traced_peak


def _seq(rng, shape=SMALL_SHAPE, frames=3, sid="s-nm-01-090"):
    mats = (rng.random((frames, shape.height, shape.width)) < 0.45).astype(np.uint8)
    return SilhouetteSequence.from_frames(frames=mats, sample_id=sid, identity="s")


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

    def test_roundtrip(self, tmp_path):
        for cfg in (preset_config("desk"), ExperimentConfig(encoder=SMALL_SHAPE)):
            save_config(cfg, tmp_path / "cfg.json")
            assert load_config(tmp_path / "cfg.json").encoder == cfg.encoder
        save_checkpoint(init_params(SMALL_SHAPE, make_rng(0)), tmp_path / "ck.json")
        assert load_checkpoint(tmp_path / "ck.json").shape == SMALL_SHAPE


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
        assert sum(t.size for t in params.tensors.values()) == expected

    def test_layout_order(self, small_params):
        names = small_params.names()
        assert names[:4] == ["frame.weight", "frame.bias", "mix.weight", "mix.bias"]
        assert names[4:] == ["strip.weight", "strip.bias"]
        assert small_params["strip.weight"].shape == (3, 2, 3)
        assert small_params["strip.bias"].shape == (3, 2)

    def test_init_biases_zero_weights_bounded(self, small_params):
        for name in small_params.names():
            t = small_params[name]
            if name.endswith(".bias"):
                assert np.array_equal(t, np.zeros_like(t))
            else:
                fan_out, fan_in = t.shape[-2:]
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
            shuffled = SilhouetteSequence.from_frames(
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
                pieces.append(small_params["strip.weight"][t] @ m
                              + small_params["strip.bias"][t])
                t += 1
        flat = np.concatenate(pieces)
        expected = flat / np.linalg.norm(flat)
        got = encode_sequence(seq, small_params)
        assert np.allclose(got, expected, atol=1e-12)

    def test_all_zero_frames_raise_degenerate(self):
        # zero biases at init make the whole pipeline output exactly zero
        params = init_params(SMALL_SHAPE, make_rng(14))
        frames = np.zeros((2, SMALL_SHAPE.height, SMALL_SHAPE.width), dtype=np.uint8)
        seq = SilhouetteSequence.from_frames(frames=frames, sample_id="z-nm-01-000")
        with pytest.raises(DegenerateInputError):
            encode_sequence(seq, params)

    def test_wrong_frame_shape_names_sample(self, small_params):
        frames = np.zeros((1, 4, 4), dtype=np.uint8)
        frames[0, 0, 0] = 1
        seq = SilhouetteSequence.from_frames(frames=frames, sample_id="bad-nm-01-000")
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
        monkeypatch.setattr(encoder_module, "WORK_BYTES", 8 * shape.frame_bytes)
        assert np.array_equal(encoder_module.encode_sequences(seqs, params), single)

    def test_encode_sequences_holds_one_output(self, monkeypatch):
        # chunks are written into the result as they come: the traced peak is
        # one (n, d) array and a chunk's transients, not a list and its concat
        shape = EncoderShape(height=8, width=8, bands=2, channels=3, scales=2, embed_dim=48)
        params = init_params(shape, seed_stream(17, 0))
        params.tensors["strip.bias"] += 0.1  # no zero embedding
        seqs = random_sequences(make_rng(17), 500, 2, shape=shape, frames=1, prefix="big")
        monkeypatch.setattr(encoder_module, "WORK_BYTES", 8 * shape.frame_bytes)
        out_bytes = len(seqs) * shape.embed_dim * 8
        out, peak, _ = traced_peak(lambda: encoder_module.encode_sequences(seqs, params))
        assert out.nbytes == out_bytes
        assert peak < 1.3 * out_bytes

    def test_encode_chunk_is_bounded_by_the_budget(self):
        # at the desk encoder's shape a chunk's float64 band inputs and
        # activations take at most WORK_BYTES, so 400 sequences of 4 frames
        # peak at the output plus about one budget
        shape = EncoderShape(24, 24, 8, 16, 3, 112)
        params = init_params(shape, seed_stream(18, 0))
        params.tensors["strip.bias"] += 0.1  # no zero embedding
        seqs = random_sequences(make_rng(18), 100, 4, shape=shape, frames=4)
        out, peak, _ = traced_peak(lambda: encoder_module.encode_sequences(seqs, params))
        assert sum(s.length for s in seqs) * shape.frame_bytes > 3 * WORK_BYTES
        assert peak < out.nbytes + 1.5 * WORK_BYTES

    def test_empty_batch_rejected(self, small_params):
        with pytest.raises(ValueError, match="at least one sequence"):
            encode_batch([], small_params)

    def test_degenerate_batch_member_names_sample(self):
        params = init_params(SMALL_SHAPE, make_rng(14))
        live = _seq(make_rng(16), sid="live-nm-01-000")
        dead = SilhouetteSequence.from_frames(
            frames=np.zeros((2, SMALL_SHAPE.height, SMALL_SHAPE.width), dtype=np.uint8),
            sample_id="dead-nm-01-000")
        with pytest.raises(DegenerateInputError, match="dead-nm-01-000"):
            encode_batch([live, dead], params)

    def test_sequence_rejects_nonbinary_frames(self):
        frames = np.full((1, 8, 8), 3, dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            SilhouetteSequence.from_frames(frames=frames, sample_id="x-nm-01-000")

    @pytest.mark.parametrize("bad,dtype", [(2, np.uint8), (255, np.uint8), (-1, np.int64),
                                           (0.5, np.float64), (2, np.int8)])
    def test_any_dtype_with_a_nonbinary_pixel_is_refused(self, bad, dtype):
        frames = np.zeros((2, 4, 4), dtype=dtype)
        frames[1, 3, 2] = bad
        with pytest.raises(ValueError, match="sample x-nm-01-000: frames must be binary 0/1"):
            SilhouetteSequence.from_frames(frames=frames, sample_id="x-nm-01-000")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_binary_frames_of_any_dtype_become_uint8(self, dtype):
        frames = np.eye(4, dtype=dtype)[None].repeat(2, axis=0)
        seq = SilhouetteSequence.from_frames(frames=frames, sample_id="x-nm-01-000")
        assert seq.frames.dtype == np.uint8
        assert np.array_equal(seq.frames, np.eye(4)[None].repeat(2, axis=0))

    @pytest.mark.parametrize("shape", [(1, 0, 3), (2, 4, 0), (1, 0, 0)])
    def test_empty_frames_are_refused_naming_the_sample(self, shape):
        with pytest.raises(ValueError, match="sample x-nm-01-000: frames must be at least 1x1"):
            SilhouetteSequence.from_frames(np.zeros(shape, np.uint8), "x-nm-01-000")

    @pytest.mark.parametrize("shape", [(4, 4), (0, 4, 4), (1, 2, 4, 4)])
    def test_wrong_rank_or_no_frames_names_the_sample(self, shape):
        with pytest.raises(ValueError, match="sample x-nm-01-000: frames must be"):
            SilhouetteSequence.from_frames(np.zeros(shape, np.uint8), "x-nm-01-000")


class TestPackedFrames:
    @pytest.mark.parametrize("width", [1, 7, 8, 13, 24])
    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
    def test_frames_read_back_the_exact_input(self, width, dtype):
        bits = make_rng(width).random((3, 5, width)) < 0.5
        seq = SilhouetteSequence.from_frames(bits.astype(dtype), "p-nm-01-000")
        assert seq.frames.dtype == np.uint8
        assert seq.frames.tobytes() == bits.astype(np.uint8).tobytes()
        assert (seq.length, seq.height, seq.width) == (3, 5, width)
        # one bit per pixel, each image row padded to whole bytes
        assert seq.packed.dtype == np.uint8
        assert seq.packed.nbytes == 3 * 5 * -(-width // 8)

    def test_frames_are_read_only(self):
        seq = _seq(make_rng(30))
        with pytest.raises(AttributeError):
            seq.frames = np.zeros((1, 8, 8), np.uint8)

    def test_replace_repacks_new_frames(self):
        import dataclasses
        seq = _seq(make_rng(31), frames=4)
        flipped = dataclasses.replace(seq, packed=seq.packed[::-1])
        assert flipped.sample_id == seq.sample_id and flipped.identity == seq.identity
        assert np.array_equal(flipped.frames, seq.frames[::-1])

    def test_constructor_keeps_the_given_bits(self):
        seq = _seq(make_rng(32), frames=2)
        again = SilhouetteSequence(seq.packed, seq.width, seq.sample_id, identity=seq.identity)
        assert again.packed is seq.packed
        assert np.array_equal(again.frames, seq.frames)
        assert (again.condition, again.view) == ("NM", "000")


@pytest.fixture(scope="module")
def desk_batch(tmp_path_factory):
    """64 walker silhouettes of 12 frames at the desk encoder's 24 x 24:
    6 144 (frame, band) rows, of which about one in nine wins a live cell."""
    root = tmp_path_factory.mktemp("desk_batch")
    spec = dataclasses.replace(default_source_spec(), identities=7, test_identities=0)
    generate_domain(spec, root, domain="source", seed=5)
    return load_dataset(root, "train").sequences[:64]


def _reduceat_backward(seqs, params, grad_embeddings):
    """encode_backward as a segment max and a per-segment min over winner
    candidates: pooled by maximum.reduceat, unpooled by minimum.reduceat
    and put_along_axis, and passed through the ReLU after the unpool. Its
    gradients, and its pooled maps under "pooled"."""
    shape = params.shape
    lengths = np.array([seq.length for seq in seqs])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    x = np.concatenate([seq.frames for seq in seqs])
    x = x.reshape(-1, shape.bands, shape.band_pixels).astype(np.float64)
    u = encoder_module._affine_relu(x, params["frame.weight"], params["frame.bias"])
    v = encoder_module._affine_relu(u, params["mix.weight"], params["mix.bias"])
    pooled = np.maximum.reduceat(v, starts, axis=0)
    trace = encode_batch(seqs, params)
    y, n = trace.embeddings, len(seqs)
    demb = np.asarray(grad_embeddings, dtype=np.float64)
    dpre = (demb - y * (y * demb).sum(axis=1, keepdims=True)) / trace.norms[:, None]
    dstrip = dpre.reshape(n, shape.n_strips, shape.strip_dim).transpose(1, 0, 2)
    grads = {"pooled": pooled}
    grads["strip.weight"] = dstrip.transpose(0, 2, 1) @ trace.strip_means.transpose(1, 0, 2)
    grads["strip.bias"] = dstrip.sum(axis=1)
    dm = dstrip @ params["strip.weight"]
    dpooled = np.zeros_like(pooled)
    for s in range(shape.scales):
        g = 2 ** s
        bands = dpooled.reshape(n, g, -1, shape.channels)
        bands += (dm[g - 1:2 * g - 1] / bands.shape[2]).transpose(1, 0, 2)[:, :, None, :]
    frames = len(v)
    seq_of_frame = np.repeat(np.arange(n), lengths)
    candidates = np.where(v == pooled[seq_of_frame], np.arange(frames)[:, None, None], frames)
    winner = np.minimum.reduceat(candidates, starts, axis=0)
    dv = np.zeros_like(v)
    np.put_along_axis(dv, winner, dpooled, axis=0)
    dz2 = (dv * (v > 0.0)).reshape(-1, shape.channels)
    u = u.reshape(-1, shape.channels)
    grads["mix.weight"] = dz2.T @ u
    grads["mix.bias"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["mix.weight"]) * (u > 0.0)
    grads["frame.weight"] = dz1.T @ x.reshape(-1, shape.band_pixels)
    grads["frame.bias"] = dz1.sum(axis=0)
    return grads


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
            seq = SilhouetteSequence.from_frames(np.stack(frames), "tie-nm-01-000")
            return encode_backward([seq], params, g)["frame.weight"][:, 0]

        assert np.array_equal(pixel0_grad([base, marked]), np.zeros(SMALL_SHAPE.channels))
        assert np.any(pixel0_grad([marked, base]) != 0.0)

    def test_matches_reduceat_unpool_bitwise(self):
        # mixed lengths pad the pooling stack; equal cells inside and across
        # frames (a repeated frame, pixels with zero weight) are ties that
        # only the first winning frame may take
        params = init_params(SMALL_SHAPE, seed_stream(27, 0))
        params.tensors["frame.weight"][:, :3] = 0.0
        for name in ("frame.bias", "mix.bias"):
            params.tensors[name] += make_rng(27).normal(0.0, 0.3, params[name].shape)
        rng = make_rng(28)
        seqs = []
        for i, k in enumerate((1, 3, 12, 2, 7)):
            mats = (rng.random((k, SMALL_SHAPE.height, SMALL_SHAPE.width)) < 0.45)
            mats = mats.astype(np.uint8)
            if k > 1:
                mats[-1] = mats[0]
                mats[k // 2, 0, :3] ^= 1
            seqs.append(SilhouetteSequence.from_frames(mats, f"m{i}-nm-01-000"))
        gs = rng.standard_normal((len(seqs), SMALL_SHAPE.embed_dim))
        want = _reduceat_backward(seqs, params, gs)
        got = encode_backward(seqs, params, gs)
        for name in params.names():
            assert got[name].tobytes() == want[name].tobytes(), name
        assert np.array_equal(encode_batch(seqs, params).pooled, want["pooled"])

    def test_matches_reduceat_unpool_on_a_desk_batch(self, desk_batch):
        # thousands of rows, few of them winners; every third sequence has a
        # zero embedding gradient and so sends no row to the layer products
        shape = default_encoder_shape()
        params = init_params(shape, seed_stream(29, 0))
        gs = make_rng(29).standard_normal((len(desk_batch), shape.embed_dim))
        gs[::3] = 0.0
        assert sum(s.length for s in desk_batch) * shape.bands >= 1536
        want = _reduceat_backward(desk_batch, params, gs)
        got = encode_backward(desk_batch, params, gs)
        for name in params.names():
            assert np.linalg.norm(want[name]) > 0.0, name
            err = np.linalg.norm(got[name] - want[name])
            assert err <= 1e-12 * np.linalg.norm(want[name]), name

    def test_winner_past_frame_255_is_routed(self):
        # frame weights outgrow one byte past 255 frames
        params = init_params(SMALL_SHAPE, seed_stream(31, 0))
        rng = make_rng(31)
        seqs = [_seq(rng, frames=300, sid="long-nm-01-000"), _seq(rng, sid="short-nm-01-000")]
        trace = encode_batch(seqs, params)
        assert np.argmax(trace.stacked == trace.pooled[:, None], axis=1).max() >= 256
        gs = rng.standard_normal((2, SMALL_SHAPE.embed_dim))
        want = _reduceat_backward(seqs, params, gs)
        got = encode_backward(seqs, params, gs, trace=trace)
        for name in params.names():
            err = np.linalg.norm(got[name] - want[name])
            assert err <= 1e-12 * np.linalg.norm(want[name]), name

    def test_no_live_cell_leaves_only_strip_gradients(self):
        # a far negative mix.bias kills every pooled cell; strip.bias keeps
        # the embeddings nonzero
        params = init_params(SMALL_SHAPE, seed_stream(30, 0))
        params.tensors["mix.bias"] -= 100.0
        params.tensors["strip.bias"] += 0.1
        rng = make_rng(30)
        seqs = random_sequences(rng, 3, 1, frames=4, prefix="dead")
        gs = rng.standard_normal((len(seqs), SMALL_SHAPE.embed_dim))
        assert not encode_batch(seqs, params).pooled.any()
        want = _reduceat_backward(seqs, params, gs)
        got = encode_backward(seqs, params, gs)
        for name in ("frame.weight", "frame.bias", "mix.weight", "mix.bias"):
            assert got[name].shape == params[name].shape, name
            assert not got[name].any(), name
        for name in ("strip.weight", "strip.bias"):
            assert np.array_equal(got[name], want[name]), name

    def test_layer_products_skip_rows_without_gradient(self, desk_batch):
        # the products gather only the rows that won a live cell. Products
        # over all 6 144 rows peak at 2.07 MB on this batch, 2.6 times one
        # (frame, band, channel) float64 array, and gathering every row's
        # band inputs alone would take 4.5 times it
        shape = default_encoder_shape()
        params = init_params(shape, seed_stream(0, 0))
        trace = encode_batch(desk_batch, params)
        gs = make_rng(0).standard_normal((len(desk_batch), shape.embed_dim))
        dense = len(trace.x) * shape.bands * shape.channels * 8
        _, peak, _ = traced_peak(lambda: encode_backward(desk_batch, params, gs, trace=trace))
        assert peak <= 1.3 * dense

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
        # 1 is the retired layout with one tensor per strip
        import json
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        doc = json.loads(path.read_text())
        for version in (1, 99):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"format_version {version}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("name,index,value,count", [
        ("mix.weight", 4, float("nan"), 9),
        ("frame.bias", 0, float("inf"), 3),
        ("frame.bias", 1, "0.5", 3),
        ("frame.bias", 2, True, 3),
        ("strip.weight", -1, None, 18),     # None: drop the value
    ])
    def test_rejects_bad_values_naming_parameter(self, small_params, tmp_path,
                                                 name, index, value, count):
        import json
        path = tmp_path / "enc.json"
        save_checkpoint(small_params, path)
        doc = json.loads(path.read_text())
        values = doc["params"][name]["values"]
        if value is None:
            del values[index]
        else:
            values[index] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{name}' must hold {count} finite numbers"):
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
