import csv
import math

import numpy as np
import pytest

from gaitadapt.discovery import (
    BLOCK_ROWS,
    CurriculumSchedule,
    MemoryBank,
    Neighborhood,
    bank_entropies,
    build_bank,
    discover_neighborhoods,
    dump_round_diagnostics,
    rank_and_select,
    update_bank,
)
from gaitadapt.encoder import SilhouetteSequence, encode_sequence, init_params
from gaitadapt.losses import entropy, softmax_row
from gaitadapt.numerics import DegenerateInputError, make_rng, seed_stream

from conftest import SMALL_SHAPE, random_sequences, random_unit_rows


def _unit_bank(rng, n, d=4, momentum=0.5, prefix="s"):
    ids = tuple(f"{prefix}{i:03d}" for i in range(n))
    return MemoryBank(ids, random_unit_rows(rng, n, d), momentum)


class TestMemoryBank:
    def test_index_maps_ids_to_rows(self):
        bank = MemoryBank(("b", "a"), np.eye(2))
        assert bank.index == {"b": 0, "a": 1}
        assert bank.size == 2

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            MemoryBank(("a", "a"), np.eye(2))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="one entry per sample"):
            MemoryBank(("a", "b", "c"), np.eye(2))

    def test_rejects_bad_momentum(self):
        for mu in (-0.1, 1.0):
            with pytest.raises(ValueError, match="momentum"):
                MemoryBank(("a", "b"), np.eye(2), momentum=mu)

    def test_entries_cast_to_float64(self):
        bank = MemoryBank(("a", "b"), np.eye(2, dtype=np.float32))
        assert bank.entries.dtype == np.float64


class TestBuildBank:
    def test_rows_match_encoder_output(self, small_params):
        rng = make_rng(1)
        seqs = random_sequences(rng, 3, 2)
        bank = build_bank(seqs, small_params, momentum=0.4)
        assert bank.ids == tuple(s.sample_id for s in seqs)
        assert bank.momentum == 0.4
        for i, s in enumerate(seqs):
            assert np.array_equal(bank.entries[i], encode_sequence(s, small_params))

    def test_empty_input_rejected(self, small_params):
        with pytest.raises(ValueError, match="empty"):
            build_bank([], small_params)

    def test_encoding_failure_names_the_sample(self, small_params):
        frames = np.zeros((1, 4, 4), dtype=np.uint8)
        frames[0, 0, 0] = 1
        bad = SilhouetteSequence(frames=frames, sample_id="odd-nm-01-000")
        with pytest.raises(ValueError, match="sample odd-nm-01-000:"):
            build_bank([bad], small_params)


class TestUpdateBank:
    def test_halfway_update_hand_value(self):
        bank = MemoryBank(("a", "b"), np.eye(2), momentum=0.5)
        out = update_bank(bank, ["a"], np.array([[0.0, 1.0]]))
        assert out is bank  # in-place by design
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(bank.entries[0], expected, atol=1e-15)
        assert np.array_equal(bank.entries[1], [0.0, 1.0])

    def test_zero_momentum_replaces_entry(self):
        rng = make_rng(2)
        bank = _unit_bank(rng, 3, momentum=0.0)
        fresh = random_unit_rows(rng, 1, 4)
        update_bank(bank, [bank.ids[1]], fresh)
        assert np.allclose(bank.entries[1], fresh[0], atol=1e-15)

    def test_entries_stay_unit_norm(self):
        rng = make_rng(3)
        bank = _unit_bank(rng, 5, momentum=0.7)
        fresh = random_unit_rows(rng, 5, 4)
        update_bank(bank, list(bank.ids), fresh)
        assert np.allclose(np.linalg.norm(bank.entries, axis=1), 1.0, atol=1e-12)

    def test_unknown_id_rejected(self):
        bank = MemoryBank(("a", "b"), np.eye(2))
        with pytest.raises(ValueError, match="unknown sample id"):
            update_bank(bank, ["zzz"], np.eye(2)[:1])

    def test_shape_mismatch_rejected(self):
        bank = MemoryBank(("a", "b"), np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            update_bank(bank, ["a"], np.ones((1, 3)))

    def test_duplicate_ids_rejected(self):
        # one vectorised step cannot compound a repeated id; refuse it
        bank = MemoryBank(("a", "b"), np.eye(2))
        with pytest.raises(ValueError, match="'a' appears more than once"):
            update_bank(bank, ["a", "b", "a"], np.eye(2)[[1, 0, 1]])
        assert np.array_equal(bank.entries, np.eye(2))

    def test_zero_norm_update_is_degenerate(self):
        bank = MemoryBank(("a", "b"), np.eye(2), momentum=0.5)
        with pytest.raises(DegenerateInputError, match="'b'"):
            update_bank(bank, ["a", "b"], np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert np.array_equal(bank.entries, np.eye(2))

    def test_matches_one_row_at_a_time(self):
        rng = make_rng(14)
        bank = _unit_bank(rng, 6, momentum=0.3)
        ids = [bank.ids[4], bank.ids[1], bank.ids[2]]
        fresh = random_unit_rows(rng, 3, 4)
        want = bank.entries.copy()
        for sid, vec in zip(ids, fresh):
            i = bank.index[sid]
            mixed = 0.3 * want[i] + 0.7 * vec
            want[i] = mixed / np.linalg.norm(mixed)
        update_bank(bank, ids, fresh)
        assert np.allclose(bank.entries, want, rtol=0, atol=1e-15)


class TestDiscoverNeighborhoods:
    @pytest.mark.parametrize("n,k", [(10, 1), (10, 3), (50, 3), (200, 5)])
    def test_matches_brute_force(self, n, k):
        rng = make_rng(100 + n + k)
        ids = [f"t{i:04d}" for i in range(n)]
        rng.shuffle(ids)
        bank = MemoryBank(tuple(ids), random_unit_rows(rng, n, 6))
        got = discover_neighborhoods(bank, k)
        for i, sid in enumerate(bank.ids):
            sims = bank.entries @ bank.entries[i]
            cand = sorted(
                (-sims[j], bank.ids[j]) for j in range(n) if j != i)
            expected = tuple(c[1] for c in cand[:k])
            assert got[sid].neighbor_ids == expected
            assert set(got[sid].neighbor_ids) == set(expected)

    def test_ties_break_toward_lower_id(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        bank = MemoryBank(("d", "c", "b", "a"), e)
        got = discover_neighborhoods(bank, 2)
        # b, c and a are identical; everyone prefers the lowest id among ties
        assert got["a"].neighbor_ids == ("b", "c")
        assert got["b"].neighbor_ids == ("a", "c")
        assert got["d"].neighbor_ids == ("a", "b")

    def test_independent_of_sample_order(self):
        rng = make_rng(4)
        ids = tuple(f"s{i}" for i in range(8))
        entries = random_unit_rows(rng, 8, 5)
        bank = MemoryBank(ids, entries)
        perm = rng.permutation(8)
        bank_perm = MemoryBank(tuple(ids[i] for i in perm), entries[perm])
        assert discover_neighborhoods(bank, 3) == discover_neighborhoods(bank_perm, 3)

    def test_member_count_includes_anchor(self):
        hood = Neighborhood("a", ("b", "c"))
        assert hood.member_count == 3

    def test_k_bounds(self):
        rng = make_rng(5)
        bank = _unit_bank(rng, 4)
        with pytest.raises(ValueError, match=">= 1"):
            discover_neighborhoods(bank, 0)
        with pytest.raises(ValueError, match="smaller than the bank"):
            discover_neighborhoods(bank, 4)


def _tied_bank(n=600, d=4, seed=17):
    """A bank over several row blocks with many exact ties.

    Coordinates are multiples of 1/16 with |x| <= 1/2, so every dot product
    is a multiple of 1/256 that doubles represent exactly whatever the
    summation order: the oracle's similarities equal the blocked pass's bit
    for bit, and its ties are the same ties. A third of the rows copy
    another row, so equal similarities also come from equal entries.
    """
    rng = make_rng(seed)
    entries = rng.integers(-8, 9, size=(n, d)) / 16.0
    entries[np.all(entries == 0.0, axis=1), 0] = 0.5
    copies = rng.choice(n, size=n // 3, replace=False)
    entries[copies] = entries[rng.choice(n, size=n // 3)]
    ids = [f"t{i:04d}" for i in range(n)]
    rng.shuffle(ids)
    return MemoryBank(tuple(ids), entries)


class TestBlockedPass:
    """Banks larger than one row block, with ties across block edges."""

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_neighbors_match_brute_force_in_order(self, k):
        bank = _tied_bank()
        n = bank.size
        assert n > 2 * BLOCK_ROWS
        got = discover_neighborhoods(bank, k)
        boundary_ties = split_ties = 0
        for i, sid in enumerate(bank.ids):
            sims = bank.entries @ bank.entries[i]
            cand = sorted((-sims[j], bank.ids[j], j) for j in range(n) if j != i)
            assert got[sid].neighbor_ids == tuple(c[1] for c in cand[:k]), sid
            tied = [c[2] for c in cand if c[0] == cand[k - 1][0]]
            if cand[k][0] == cand[k - 1][0]:
                boundary_ties += 1
                split_ties += len({j // BLOCK_ROWS for j in tied}) > 1
        # the data exercises the tie-break at the k-th place, across blocks
        assert boundary_ties > n // 5 and split_ties > n // 10

    @pytest.mark.parametrize("include_self", [True, False])
    def test_entropies_match_single_rows(self, include_self):
        bank = _tied_bank()
        for tau in (0.05, 1e-3):
            h = bank_entropies(bank, tau, include_self=include_self)
            for i in range(bank.size):
                row = softmax_row(bank.entries[i], bank, tau, anchor_index=i,
                                  include_self=include_self)
                assert h[i] == pytest.approx(entropy(row), abs=1e-12), (tau, i)


class TestCurriculumSchedule:
    def test_selection_sizes_seven_samples(self):
        sizes = [CurriculumSchedule(4, r).selection_size(7) for r in (1, 2, 3, 4)]
        assert sizes == [2, 4, 6, 7]

    def test_selection_sizes_hundred_samples(self):
        sizes = [CurriculumSchedule(4, r).selection_size(100) for r in (1, 2, 3, 4)]
        assert sizes == [25, 50, 75, 100]

    def test_first_round_selects_at_least_one(self):
        assert CurriculumSchedule(10, 1).selection_size(3) == 1

    def test_final_round_selects_everything(self):
        for n in (1, 5, 33, 100):
            assert CurriculumSchedule(4, 4).selection_size(n) == n

    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            CurriculumSchedule(0, 1)
        with pytest.raises(ValueError, match="round_index"):
            CurriculumSchedule(4, 0)
        with pytest.raises(ValueError, match="round_index"):
            CurriculumSchedule(4, 5)
        with pytest.raises(ValueError, match="strategy"):
            CurriculumSchedule(4, 1, strategy="middling")


class TestRankAndSelect:
    def test_entropies_match_direct_computation(self):
        rng = make_rng(6)
        bank = _unit_bank(rng, 9)
        h = bank_entropies(bank, tau=0.1)
        for i in range(bank.size):
            row = softmax_row(bank.entries[i], bank, 0.1, anchor_index=i)
            assert h[i] == pytest.approx(entropy(row), abs=1e-12)

    def test_self_exclusion_changes_entropies(self):
        rng = make_rng(7)
        bank = _unit_bank(rng, 6)
        with_self = bank_entropies(bank, tau=0.1, include_self=True)
        without = bank_entropies(bank, tau=0.1, include_self=False)
        assert not np.allclose(with_self, without)

    def test_high_strategy_takes_descending_entropy(self):
        rng = make_rng(8)
        bank = _unit_bank(rng, 10)
        sched = rank_and_select(bank, CurriculumSchedule(4, 2, "high"), 0.1, rng)
        h = bank_entropies(bank, 0.1)
        expected = sorted(range(10), key=lambda i: (-h[i], bank.ids[i]))[:5]
        assert sched.selected == tuple(bank.ids[i] for i in expected)
        assert set(sched.entropies) == set(bank.ids)

    def test_low_strategy_takes_ascending_entropy(self):
        rng = make_rng(9)
        bank = _unit_bank(rng, 10)
        sched = rank_and_select(bank, CurriculumSchedule(4, 2, "low"), 0.1, rng)
        h = bank_entropies(bank, 0.1)
        expected = sorted(range(10), key=lambda i: (h[i], bank.ids[i]))[:5]
        assert sched.selected == tuple(bank.ids[i] for i in expected)

    def test_high_and_low_are_reversed_at_full_selection(self):
        rng = make_rng(10)
        bank = _unit_bank(rng, 7)
        hi = rank_and_select(bank, CurriculumSchedule(1, 1, "high"), 0.1, rng)
        lo = rank_and_select(bank, CurriculumSchedule(1, 1, "low"), 0.1, rng)
        assert hi.selected == tuple(reversed(lo.selected))

    def test_random_strategy_is_seeded(self):
        rng = make_rng(11)
        bank = _unit_bank(rng, 12)
        a = rank_and_select(bank, CurriculumSchedule(3, 1, "random"), 0.1,
                            seed_stream(5, 1))
        b = rank_and_select(bank, CurriculumSchedule(3, 1, "random"), 0.1,
                            seed_stream(5, 1))
        c = rank_and_select(bank, CurriculumSchedule(3, 1, "random"), 0.1,
                            seed_stream(5, 2))
        assert a.selected == b.selected
        assert a.selected != c.selected  # 12! orderings; collision would be a bug

    def test_entropy_ties_break_toward_lower_id(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        bank = MemoryBank(("d", "b", "c", "a"), e)
        sched = rank_and_select(bank, CurriculumSchedule(2, 1, "high"), 0.1,
                                make_rng(0))
        assert sched.selected == ("a", "b")

    def test_high_rounds_nest(self):
        rng = make_rng(12)
        bank = _unit_bank(rng, 11)
        prev: set = set()
        for r in (1, 2, 3, 4):
            sched = rank_and_select(bank, CurriculumSchedule(4, r, "high"), 0.1, rng)
            current = set(sched.selected)
            assert prev <= current
            prev = current
        assert prev == set(bank.ids)


class TestRoundDiagnostics:
    def test_csv_content(self, tmp_path):
        e = np.eye(3)
        bank = MemoryBank(("b", "a", "c"), e)
        sched = rank_and_select(bank, CurriculumSchedule(3, 2, "high"), 1.0,
                                make_rng(0))
        hoods = discover_neighborhoods(bank, 1)
        path = tmp_path / "round1.csv"
        dump_round_diagnostics(path, sched, hoods)

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "entropy", "selected", "neighbor_ids"]
        assert [r[0] for r in rows[1:]] == ["a", "b", "c"]  # sorted ids
        for r in rows[1:]:
            assert float(r[1]) == sched.entropies[r[0]]  # repr round-trips
            assert r[2] == ("1" if r[0] in sched.selected else "0")
            assert r[3] == ";".join(hoods[r[0]].neighbor_ids)
        # symmetric entries tie everywhere: selection and neighbors go to low ids
        assert rows[1][2] == "1" and rows[2][2] == "1" and rows[3][2] == "0"
        assert rows[1][3] == "b" and rows[2][3] == "a" and rows[3][3] == "a"

    def test_write_is_deterministic(self, tmp_path):
        rng = make_rng(13)
        bank = _unit_bank(rng, 6)
        sched = rank_and_select(bank, CurriculumSchedule(2, 1, "low"), 0.1, rng)
        hoods = discover_neighborhoods(bank, 2)
        dump_round_diagnostics(tmp_path / "a.csv", sched, hoods)
        dump_round_diagnostics(tmp_path / "b.csv", sched, hoods)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unranked_schedule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ranked"):
            dump_round_diagnostics(tmp_path / "x.csv", CurriculumSchedule(2, 1), {})
