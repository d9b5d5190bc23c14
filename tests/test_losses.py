import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitadapt.discovery import MemoryBank
from gaitadapt.losses import (
    EmptyTripletError,
    SoftmaxRow,
    anchor_neighborhood_loss,
    entropy,
    log_softmax_rows,
    neighborhood_loss,
    row_entropies,
    softmax_row,
    triplet_loss,
)
from gaitadapt.numerics import make_rng

from conftest import random_unit_rows


class TestTripletExactArithmetic:
    # single-coordinate distances keep every operation exact in doubles

    def test_satisfied_triple_is_exactly_zero(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.9]])
        loss, grads = triplet_loss(emb, ["x", "x", "y"], margin=0.2)
        assert loss == 0.0
        assert np.array_equal(grads, np.zeros_like(emb))

    def test_violating_triple_contribution_is_exact(self):
        # d(a,p)=0.5, d(a,n)=0.4, margin 0.2 -> hinge exactly 0.3; the
        # second ordered triple (p,a,n) has d(p,n)=0.9 and stays inactive,
        # so loss = 0.3 / 2 with both steps exact
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [-0.4, 0.0]])
        loss, _ = triplet_loss(emb, ["x", "x", "y"], margin=0.2)
        assert 0.5 - 0.4 + 0.2 == 0.3  # the arithmetic the above relies on
        assert loss == 0.15
        assert 2.0 * loss == 0.3

    def test_inactive_triples_stay_in_denominator(self):
        # two identities x 2 samples: 8 ordered triples, only some active
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [10.0, 0.9]])
        labels = ["x", "x", "y", "y"]
        loss, _ = triplet_loss(emb, labels, margin=0.2)
        brute = 0.0
        n = 4
        for a in range(n):
            for p in range(n):
                for q in range(n):
                    if a == p or labels[a] != labels[p] or labels[a] == labels[q]:
                        continue
                    h = (np.linalg.norm(emb[a] - emb[p])
                         - np.linalg.norm(emb[a] - emb[q]) + 0.2)
                    brute += max(h, 0.0)
        assert loss == pytest.approx(brute / 8.0, abs=1e-15)


class TestTripletStructure:
    def test_single_identity_rejected(self):
        with pytest.raises(EmptyTripletError, match="repeated identity"):
            triplet_loss(np.eye(3), ["x", "x", "x"], margin=0.2)

    def test_all_distinct_identities_rejected(self):
        with pytest.raises(EmptyTripletError):
            triplet_loss(np.eye(3), ["x", "y", "z"], margin=0.2)

    def test_rejects_bad_margin_and_shapes(self):
        with pytest.raises(ValueError, match="margin"):
            triplet_loss(np.eye(2), ["x", "y"], margin=0.0)
        with pytest.raises(ValueError, match="\\(n, d\\)"):
            triplet_loss(np.ones(4), ["x"], margin=0.2)
        with pytest.raises(ValueError, match="labels"):
            triplet_loss(np.eye(3), ["x", "y"], margin=0.2)

    def test_matches_brute_force_oracle(self):
        labels = ["a", "a", "a", "b", "b", "c", "c", "c"]
        for seed in range(20):
            rng = make_rng(seed)
            emb = rng.standard_normal((8, 5))
            loss, _ = triplet_loss(emb, labels, margin=0.5)
            total, acc = 0, 0.0
            for a in range(8):
                for p in range(8):
                    for q in range(8):
                        if a == p or labels[a] != labels[p] or labels[a] == labels[q]:
                            continue
                        total += 1
                        h = (np.linalg.norm(emb[a] - emb[p])
                             - np.linalg.norm(emb[a] - emb[q]) + 0.5)
                        if h > 0:
                            acc += h
            assert loss == pytest.approx(acc / total, abs=1e-12)

    def test_loss_nonnegative_and_zero_for_separated_clusters(self):
        rng = make_rng(1)
        a = random_unit_rows(rng, 3, 4) * 0.01
        b = random_unit_rows(rng, 3, 4) * 0.01 + 100.0
        emb = np.vstack([a, b])
        loss, grads = triplet_loss(emb, ["x"] * 3 + ["y"] * 3, margin=0.2)
        assert loss == 0.0
        assert np.array_equal(grads, np.zeros_like(emb))


class TestTripletGradient:
    def test_matches_finite_differences(self):
        labels = ["a", "a", "b", "b", "c", "c"]
        for seed in (3, 4, 5):
            rng = make_rng(seed)
            emb = rng.standard_normal((6, 4))
            _, grads = triplet_loss(emb, labels, margin=0.3)
            h = 1e-6
            fd = np.zeros_like(emb)
            for i in range(6):
                for j in range(4):
                    orig = emb[i, j]
                    emb[i, j] = orig + h
                    up, _ = triplet_loss(emb, labels, margin=0.3)
                    emb[i, j] = orig - h
                    down, _ = triplet_loss(emb, labels, margin=0.3)
                    emb[i, j] = orig
                    fd[i, j] = (up - down) / (2 * h)
            assert np.allclose(grads, fd, rtol=1e-5, atol=1e-8), f"seed {seed}"

    def test_rigid_motion_invariance(self):
        rng = make_rng(6)
        emb = rng.standard_normal((6, 5))
        labels = ["a", "a", "a", "b", "b", "b"]
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        shift = rng.standard_normal(5)
        base, gbase = triplet_loss(emb, labels, margin=0.4)
        moved, gmoved = triplet_loss(emb @ q.T + shift, labels, margin=0.4)
        assert moved == pytest.approx(base, abs=1e-10)
        assert np.allclose(gmoved, gbase @ q.T, atol=1e-10)


def _two_entry_bank():
    return MemoryBank(("a", "b"), np.eye(2))


class TestSoftmaxRow:
    def test_row_probs_sum_to_one(self):
        rng = make_rng(7)
        bank = MemoryBank(tuple("abcdefgh"), random_unit_rows(rng, 8, 4))
        for i in range(8):
            row = softmax_row(bank.entries[i], bank, tau=0.05, anchor_index=i)
            assert abs(row.probs.sum() - 1.0) < 1e-12
            assert np.all(row.probs > 0.0)

    def test_hand_two_entry_values(self):
        row = softmax_row(np.array([1.0, 0.0]), _two_entry_bank(), tau=0.1,
                          anchor_index=0)
        e = math.exp(-10.0)
        assert row.probs[0] == pytest.approx(1.0 / (1.0 + e), abs=1e-15)
        assert row.probs[1] == pytest.approx(e / (1.0 + e), abs=1e-15)

    def test_self_exclusion_zeroes_own_entry(self):
        rng = make_rng(8)
        bank = MemoryBank(tuple("abcde"), random_unit_rows(rng, 5, 3))
        row = softmax_row(bank.entries[2], bank, tau=0.1, anchor_index=2,
                          include_self=False)
        assert row.probs[2] == 0.0
        assert abs(row.probs.sum() - 1.0) < 1e-12
        mask = np.arange(5) != 2
        assert np.all(row.probs[mask] > 0.0)

    def test_self_exclusion_needs_valid_index(self):
        with pytest.raises(ValueError, match="anchor_index"):
            softmax_row(np.array([1.0, 0.0]), _two_entry_bank(), tau=0.1,
                        include_self=False)

    def test_row_validates_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            SoftmaxRow(np.array([0.5, 0.4]), anchor_index=0, tau=0.1)


class TestEntropy:
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_uniform_row_hits_log_n(self, n):
        row = SoftmaxRow(np.full(n, 1.0 / n), anchor_index=0, tau=1.0)
        assert entropy(row) == pytest.approx(math.log(n), abs=1e-12)

    def test_known_two_point_value(self):
        row = SoftmaxRow(np.array([0.4, 0.6]), anchor_index=0, tau=1.0)
        assert entropy(row) == pytest.approx(0.6730116670092564, abs=1e-12)

    def test_point_mass_has_zero_entropy(self):
        row = SoftmaxRow(np.array([1.0, 0.0, 0.0]), anchor_index=0, tau=1.0)
        assert entropy(row) == 0.0

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_uniform_is_the_maximum(self, weights):
        p = np.asarray(weights) / np.sum(weights)
        n = p.size
        h = entropy(SoftmaxRow(p / p.sum(), anchor_index=0, tau=1.0))
        assert -1e-12 <= h <= math.log(n) + 1e-12
        if np.max(np.abs(p - 1.0 / n)) > 1e-6:
            assert h < math.log(n)


class TestAnchorNeighborhoodLoss:
    def test_full_coverage_gives_zero(self):
        rng = make_rng(9)
        bank = MemoryBank(tuple("abcdef"), random_unit_rows(rng, 6, 4))
        row = softmax_row(bank.entries[1], bank, tau=0.1, anchor_index=1)
        loss, grads = anchor_neighborhood_loss(
            [(1, row)], {1: range(6)}, bank)
        assert abs(loss) < 1e-12
        assert np.allclose(grads, 0.0, atol=1e-12)

    def test_hand_value_self_only_neighborhood(self):
        bank = _two_entry_bank()
        row = SoftmaxRow(np.array([0.4, 0.6]), anchor_index=0, tau=1.0)
        loss, grads = anchor_neighborhood_loss([(0, row)], {0: [0]}, bank)
        assert loss == pytest.approx(0.9162907318741551, abs=1e-12)  # -log(0.4)
        # coeff = p * (1 - indicator/mass) / tau = [-0.6, 0.6] against eye(2)
        assert np.allclose(grads[0], [-0.6, 0.6], atol=1e-15)

    def test_additive_over_anchors(self):
        rng = make_rng(10)
        bank = MemoryBank(tuple("abcde"), random_unit_rows(rng, 5, 3))
        rows = [softmax_row(bank.entries[i], bank, tau=0.2, anchor_index=i)
                for i in range(5)]
        hoods = {0: {0, 2}, 3: {3, 1, 4}}
        both, gboth = anchor_neighborhood_loss(
            [(0, rows[0]), (3, rows[3])], hoods, bank)
        l0, g0 = anchor_neighborhood_loss([(0, rows[0])], hoods, bank)
        l3, g3 = anchor_neighborhood_loss([(3, rows[3])], hoods, bank)
        assert both == pytest.approx(l0 + l3, abs=1e-12)
        assert np.allclose(gboth, np.vstack([g0, g3]), atol=1e-15)

    def test_growing_the_neighborhood_lowers_the_loss(self):
        rng = make_rng(11)
        bank = MemoryBank(tuple("abcd"), random_unit_rows(rng, 4, 3))
        row = softmax_row(bank.entries[0], bank, tau=0.2, anchor_index=0)
        small, _ = anchor_neighborhood_loss([(0, row)], {0: [0]}, bank)
        large, _ = anchor_neighborhood_loss([(0, row)], {0: [0, 1, 2]}, bank)
        assert large < small

    def test_duplicate_members_collapse(self):
        rng = make_rng(12)
        bank = MemoryBank(tuple("abcd"), random_unit_rows(rng, 4, 3))
        row = softmax_row(bank.entries[0], bank, tau=0.2, anchor_index=0)
        a, ga = anchor_neighborhood_loss([(0, row)], {0: [0, 2]}, bank)
        b, gb = anchor_neighborhood_loss([(0, row)], {0: [0, 2, 2, 0]}, bank)
        assert a == b
        assert np.array_equal(ga, gb)

    def test_neighborhood_must_contain_anchor(self):
        bank = _two_entry_bank()
        row = SoftmaxRow(np.array([0.4, 0.6]), anchor_index=0, tau=1.0)
        with pytest.raises(ValueError, match="include itself"):
            anchor_neighborhood_loss([(0, row)], {0: [1]}, bank)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            anchor_neighborhood_loss([], {}, _two_entry_bank())

    def test_gradient_matches_finite_differences(self):
        tau = 0.2
        for seed in (13, 14, 15):
            rng = make_rng(seed)
            bank = MemoryBank(tuple("abcdef"), random_unit_rows(rng, 6, 4))
            hoods = {2: {2, 0, 5}}
            x = rng.standard_normal(4)

            def objective(vec):
                row = softmax_row(vec, bank, tau, anchor_index=2)
                loss, _ = anchor_neighborhood_loss([(2, row)], hoods, bank)
                return loss

            row = softmax_row(x, bank, tau, anchor_index=2)
            _, grads = anchor_neighborhood_loss([(2, row)], hoods, bank)
            h = 1e-6
            fd = np.zeros(4)
            for j in range(4):
                orig = x[j]
                x[j] = orig + h
                up = objective(x)
                x[j] = orig - h
                down = objective(x)
                x[j] = orig
                fd[j] = (up - down) / (2 * h)
            assert np.allclose(grads[0], fd, rtol=1e-5, atol=1e-8), f"seed {seed}"

    def test_finite_when_the_neighborhood_mass_underflows(self):
        # at tau = 1e-3 the anchor's own entry has probability e^-1000, which
        # is 0 in doubles; the log-space mass keeps the loss at 1000
        bank = MemoryBank(("a", "b", "c"), np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        tau = 1e-3
        x = np.array([0.0, 1.0])

        def objective(vec):
            row = softmax_row(vec, bank, tau, anchor_index=0)
            return anchor_neighborhood_loss([(0, row)], {0: {0}}, bank)

        assert softmax_row(x, bank, tau, anchor_index=0).probs[0] == 0.0
        loss, grads = objective(x)
        assert loss == pytest.approx(1000.0, rel=1e-12)
        assert np.all(np.isfinite(grads))
        h = 1e-6
        fd = np.zeros(2)
        for j in range(2):
            orig = x[j]
            x[j] = orig + h
            up = objective(x)[0]
            x[j] = orig - h
            down = objective(x)[0]
            x[j] = orig
            fd[j] = (up - down) / (2 * h)
        assert np.allclose(grads[0], fd, rtol=1e-5, atol=1e-8)


class TestBatchedPath:
    """The batched kernels against the one-anchor API built on them."""

    def _bank(self, seed=16, n=12, d=5):
        rng = make_rng(seed)
        return MemoryBank(tuple(f"s{i:02d}" for i in range(n)),
                          random_unit_rows(rng, n, d)), rng

    @pytest.mark.parametrize("include_self", [True, False])
    def test_rows_match_single_anchor_rows(self, include_self):
        bank, rng = self._bank()
        anchors = rng.standard_normal((4, 5))
        idx = np.array([3, 0, 11, 7])
        log_probs = log_softmax_rows(anchors, bank, 0.1, idx, include_self)
        h = row_entropies(log_probs)
        for b in range(4):
            row = softmax_row(anchors[b], bank, 0.1, anchor_index=idx[b],
                              include_self=include_self)
            assert np.allclose(np.exp(log_probs[b]), row.probs, rtol=0, atol=1e-15)
            assert h[b] == pytest.approx(entropy(row), abs=1e-12)
            assert (log_probs[b, idx[b]] == -np.inf) == (not include_self)

    def test_loss_matches_per_anchor_api(self):
        bank, rng = self._bank()
        anchors = rng.standard_normal((3, 5))
        idx = np.array([2, 9, 5])
        members = np.array([[2, 4, 4], [9, 0, 1], [5, 5, 5]])  # repeats count once
        log_probs = log_softmax_rows(anchors, bank, 0.2, idx)
        loss, grads = neighborhood_loss(log_probs, idx, members, bank, 0.2)
        rows = [(int(i), softmax_row(a, bank, 0.2, anchor_index=int(i)))
                for a, i in zip(anchors, idx)]
        hoods = {2: {2, 4}, 9: {9, 0, 1}, 5: {5}}
        want, gwant = anchor_neighborhood_loss(rows, hoods, bank)
        assert loss == pytest.approx(want, abs=1e-12)
        assert np.allclose(grads, gwant, rtol=0, atol=1e-12)

    def test_members_must_include_the_anchor(self):
        bank, rng = self._bank()
        log_probs = log_softmax_rows(rng.standard_normal((2, 5)), bank, 0.2)
        with pytest.raises(ValueError, match="bank index 6 must include itself"):
            neighborhood_loss(log_probs, [1, 6], np.array([[1, 2], [5, 7]]), bank, 0.2)

    def test_neighborhood_without_mass_is_refused(self):
        # the anchor alone, with its own entry excluded: probability zero
        bank, rng = self._bank()
        log_probs = log_softmax_rows(rng.standard_normal((1, 5)), bank, 0.2, [4],
                                     include_self=False)
        with pytest.raises(ValueError, match="no probability mass"):
            neighborhood_loss(log_probs, [4], np.array([[4]]), bank, 0.2)

    def test_self_exclusion_needs_indices_in_range(self):
        bank, rng = self._bank()
        with pytest.raises(ValueError, match="anchor_index"):
            log_softmax_rows(rng.standard_normal((2, 5)), bank, 0.2, [1, 12],
                             include_self=False)
