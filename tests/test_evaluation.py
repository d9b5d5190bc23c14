import numpy as np
import pytest

from gaitadapt.encoder import SilhouetteSequence
from gaitadapt.evaluation import ProtocolError, make_protocol, rank1
from gaitadapt.numerics import make_rng

_ONES = np.ones((1, 2, 2), dtype=np.uint8)


def _seq(ident, cond, run, view):
    return SilhouetteSequence(
        frames=_ONES, sample_id=f"{ident}-{cond.lower()}-{run:02d}-{view}",
        identity=ident, condition=cond, view=view)


def _group(ident, n_nm, n_bg=0, views=("000", "090")):
    seqs = []
    run = {"NM": 0, "BG": 0}
    for cond, count in (("NM", n_nm), ("BG", n_bg)):
        for i in range(count):
            run[cond] += 1
            seqs.append(_seq(ident, cond, run[cond], views[i % len(views)]))
    return seqs


class TestMakeProtocol:
    def test_first_n_gallery_assignment(self):
        seqs = _group("A", 5, n_bg=2) + _group("B", 3)
        proto = make_protocol(seqs, "first-n-gallery", gallery_size=4)
        # A's first four normal walks (by id) form the gallery
        assert proto.gallery_ids == (
            "A-nm-01-000", "A-nm-02-090", "A-nm-03-000", "A-nm-04-090")
        assert set(proto.probe_ids) == {
            "A-nm-05-000", "A-bg-01-000", "A-bg-02-090"}
        assert proto.skipped_identities == ("B",)  # only 3 normal walks

    def test_first_sequence_gallery_assignment(self):
        seqs = _group("A", 3) + _group("B", 2) + _group("C", 1)
        proto = make_protocol(seqs, "first-sequence-gallery")
        assert proto.gallery_ids == ("A-nm-01-000", "B-nm-01-000")
        assert set(proto.probe_ids) == {
            "A-nm-02-090", "A-nm-03-000", "B-nm-02-090"}
        assert proto.skipped_identities == ("C",)  # nothing left to probe

    def test_unknown_convention_rejected(self):
        with pytest.raises(ProtocolError, match="convention"):
            make_protocol(_group("A", 4), "best-n-gallery")

    @pytest.mark.parametrize("size", [0, -1])
    def test_gallery_size_below_one_rejected(self, size):
        # -1 would slice off the last normal walk and use the rest as gallery
        with pytest.raises(ProtocolError, match=f"gallery size must be >= 1, got {size}"):
            make_protocol(_group("A", 5), "first-n-gallery", gallery_size=size)

    def test_unlabeled_sample_rejected(self):
        bad = SilhouetteSequence(frames=_ONES, sample_id="x-nm-01-000")
        with pytest.raises(ProtocolError, match="identity"):
            make_protocol([bad], "first-n-gallery")

    def test_exclusion_toggle(self):
        proto = make_protocol(_group("A", 5), "first-n-gallery")
        assert not proto.exclude_identical_view
        assert proto.with_exclusion(True).exclude_identical_view


def _manual_protocol(entries, exclude=False):
    """entries: list of (sample_id, identity, view, condition, is_gallery)."""
    return type(make_protocol(_group("A", 5), "first-n-gallery"))(
        gallery_ids=tuple(e[0] for e in entries if e[4]),
        probe_ids=tuple(e[0] for e in entries if not e[4]),
        exclude_identical_view=exclude,
        identity={e[0]: e[1] for e in entries},
        view={e[0]: e[2] for e in entries},
        condition={e[0]: e[3] for e in entries},
    )


class TestRank1:
    def test_hand_case(self):
        proto = _manual_protocol([
            ("gA", "A", "000", "NM", True),
            ("gB", "B", "000", "NM", True),
            ("p1", "A", "090", "NM", False),
            ("p2", "B", "090", "NM", False),
            ("p3", "B", "090", "BG", False),
        ])
        emb = {"gA": [0.0, 0.0], "gB": [1.0, 0.0],
               "p1": [0.1, 0.0], "p2": [0.9, 0.0], "p3": [0.45, 0.0]}
        res = rank1(emb, proto)
        assert (res.correct, res.evaluated) == (2, 3)  # p3 lands nearer gA
        assert res.accuracy == pytest.approx(2 / 3)
        assert res.per_condition == {"BG": (0, 1, 0.0), "NM": (2, 2, 1.0)}
        assert res.skipped_probes == ()

    def test_ties_break_toward_lower_gallery_id(self):
        entries = [
            ("g1", "A", "000", "NM", True),
            ("g2", "B", "000", "NM", True),
            ("p1", "A", "090", "NM", False),
        ]
        emb = {"g1": [1.0, 0.0], "g2": [1.0, 0.0], "p1": [0.0, 1.0]}
        res = rank1(emb, _manual_protocol(entries))
        assert res.correct == 1  # g1 wins the exact tie, and g1 is identity A

        relabeled = [("g1", "B", "000", "NM", True),
                     ("g2", "A", "000", "NM", True),
                     ("p1", "A", "090", "NM", False)]
        res2 = rank1(emb, _manual_protocol(relabeled))
        assert res2.correct == 0

    def test_view_exclusion_drops_same_view_entries(self):
        proto = _manual_protocol([
            ("gA0", "A", "000", "NM", True),
            ("gA9", "A", "090", "NM", True),
            ("gB0", "B", "000", "NM", True),
            ("p1", "A", "000", "NM", False),   # gA0 excluded; gA9 must win
            ("p2", "B", "045", "NM", False),   # nothing excluded
        ], exclude=True)
        emb = {"gA0": [0.0, 0.0], "gA9": [0.4, 0.0], "gB0": [1.0, 0.0],
               "p1": [0.1, 0.0], "p2": [0.95, 0.0]}
        res = rank1(emb, proto)
        assert (res.correct, res.evaluated) == (2, 2)
        without = rank1(emb, proto.with_exclusion(False))
        assert (without.correct, without.evaluated) == (2, 2)

    def test_probe_with_empty_effective_gallery_is_skipped(self):
        proto = _manual_protocol([
            ("gA", "A", "000", "NM", True),
            ("p1", "A", "000", "NM", False),
            ("p2", "A", "090", "NM", False),
        ], exclude=True)
        emb = {k: [0.0, float(i)] for i, k in enumerate(["gA", "p1", "p2"])}
        res = rank1(emb, proto)
        assert res.skipped_probes == ("p1",)
        assert res.evaluated == 1

    def test_all_probes_skipped_rejected(self):
        proto = _manual_protocol([
            ("gA", "A", "000", "NM", True),
            ("p1", "A", "000", "NM", False),
        ], exclude=True)
        emb = {"gA": [0.0], "p1": [1.0]}
        with pytest.raises(ProtocolError, match="every probe"):
            rank1(emb, proto)

    def test_empty_gallery_rejected(self):
        proto = _manual_protocol([("p1", "A", "000", "NM", False)])
        with pytest.raises(ProtocolError, match="empty gallery"):
            rank1({"p1": [0.0]}, proto)

    def test_missing_embedding_names_sample(self):
        proto = _manual_protocol([
            ("gA", "A", "000", "NM", True),
            ("p1", "A", "090", "NM", False),
        ])
        with pytest.raises(ProtocolError, match="p1"):
            rank1({"gA": [0.0]}, proto)

    def test_matches_exhaustive_oracle(self):
        for trial in range(20):
            rng = make_rng(1000 + trial)
            seqs = []
            for i in range(int(rng.integers(3, 7))):
                seqs += _group(f"I{i:02d}", int(rng.integers(2, 7)),
                               n_bg=int(rng.integers(0, 3)),
                               views=("000", "045", "090"))
            convention = ("first-n-gallery", "first-sequence-gallery")[trial % 2]
            proto = make_protocol(seqs, convention, gallery_size=2).with_exclusion(
                bool(trial % 4 // 2))
            emb = {s.sample_id: rng.standard_normal(5) for s in seqs}

            correct = evaluated = 0
            skipped = []
            cond_hits: dict = {}
            for pid in sorted(proto.probe_ids):
                cands = [g for g in sorted(proto.gallery_ids)
                         if not (proto.exclude_identical_view
                                 and proto.view[g] == proto.view[pid])]
                if not cands:
                    skipped.append(pid)
                    continue
                best = min(cands, key=lambda g: float(
                    np.linalg.norm(np.asarray(emb[g]) - emb[pid])))
                hit = int(proto.identity[best] == proto.identity[pid])
                correct += hit
                evaluated += 1
                cond_hits.setdefault(proto.condition[pid], []).append(hit)

            res = rank1(emb, proto)
            assert (res.correct, res.evaluated) == (correct, evaluated), trial
            assert res.skipped_probes == tuple(skipped)
            assert res.per_condition == {
                c: (sum(h), len(h), sum(h) / len(h))
                for c, h in sorted(cond_hits.items())}

    def test_orthogonal_map_preserves_the_result(self):
        rng = make_rng(77)
        seqs = sum((_group(f"I{i}", 4, n_bg=1) for i in range(4)), [])
        proto = make_protocol(seqs, "first-n-gallery", gallery_size=2)
        emb = {s.sample_id: rng.standard_normal(6) for s in seqs}
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = {k: v @ q.T for k, v in emb.items()}
        a, b = rank1(emb, proto), rank1(rotated, proto)
        assert (a.correct, a.evaluated, a.skipped_probes) == (
            b.correct, b.evaluated, b.skipped_probes)
        assert a.per_condition == b.per_condition
