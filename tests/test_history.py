import numpy as np
import pytest

from copygen.history import (
    HistVocab,
    SequencingError,
    absorb_quads,
    copy_mask,
    masks_for,
    recurrence_stats,
    vocab_from_quads,
)

from oracles import vocab_oracle


def random_quads(rng, n_entities=8, n_relations=3, horizon=10, count=60):
    return np.column_stack([
        rng.integers(0, n_entities, count),
        rng.integers(0, n_relations, count),
        rng.integers(0, n_entities, count),
        rng.integers(0, horizon, count),
    ]).astype(np.int64)


class TestAbsorb:
    def test_single_fact(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        assert vocab.lookup(1, 0).tolist() == [2]
        assert vocab.frontier == 1

    def test_binary_clamp(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        vocab.absorb_snapshot([(1, 0, 2)])
        assert vocab.lookup(1, 0).tolist() == [2]

    def test_out_of_order_rejected(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)], index=0)
        with pytest.raises(SequencingError):
            vocab.absorb_snapshot([(1, 0, 3)], index=2)

    def test_frozen_rejects_absorb(self):
        vocab = HistVocab().freeze()
        with pytest.raises(SequencingError):
            vocab.absorb_snapshot([(1, 0, 2)])

    def test_matches_brute_force_rebuild(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            quads = random_quads(rng)
            vocab = HistVocab()
            for k in range(10):
                expected = vocab_oracle(quads, frontier=k)
                for (s, p), objs in expected.items():
                    assert set(vocab.lookup(s, p).tolist()) == objs
                assert len(vocab) == len(expected)
                vocab.absorb_snapshot(quads[quads[:, 3] == k][:, :3], index=k)

    def test_monotone_lookup(self):
        rng = np.random.default_rng(1)
        quads = random_quads(rng)
        vocab = HistVocab()
        previous = {}
        for k in range(10):
            vocab.absorb_snapshot(quads[quads[:, 3] == k][:, :3], index=k)
            for (s, p), objs in previous.items():
                assert objs <= set(vocab.lookup(s, p).tolist())
            previous = {key: set(vocab.lookup(*key).tolist())
                        for key in vocab._entries}


class TestLookup:
    def test_unseen_pair_is_empty(self):
        assert HistVocab().lookup(4, 2).tolist() == []

    def test_accumulates_across_snapshots(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        vocab.absorb_snapshot([(1, 0, 3)])
        assert vocab.lookup(1, 0).tolist() == [2, 3]

    def test_many_seasons(self):
        # one (subject, relation) pair accumulating a champion per snapshot
        vocab = HistVocab()
        for season in range(18):
            vocab.absorb_snapshot([(0, 0, season + 1)], index=season)
        assert vocab.lookup(0, 0).tolist() == list(range(1, 19))


class TestCopyMask:
    def test_definition(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2), (1, 0, 5)])
        mask = copy_mask(vocab, 1, 0, num_entities=6, magnitude=100.0)
        assert mask.tolist() == [-100, -100, 0, -100, -100, 0]

    def test_empty_lookup_all_suppressed(self):
        mask = copy_mask(HistVocab(), 0, 0, num_entities=3)
        assert mask.tolist() == [-100, -100, -100]

    def test_full_lookup_all_zero(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(0, 0, o) for o in range(4)])
        assert copy_mask(vocab, 0, 0, num_entities=4).tolist() == [0, 0, 0, 0]

    def test_zero_positions_equal_lookup(self):
        rng = np.random.default_rng(2)
        vocab = vocab_from_quads(random_quads(rng))
        for s in range(8):
            for p in range(3):
                mask = copy_mask(vocab, s, p, num_entities=8)
                assert np.flatnonzero(mask == 0).tolist() == vocab.lookup(s, p).tolist()

    def test_invert_suppresses_candidates(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        mask = copy_mask(vocab, 1, 0, num_entities=4, invert=True)
        assert mask.tolist() == [0, 0, -100, 0]

    def test_bad_magnitude(self):
        with pytest.raises(ValueError):
            copy_mask(HistVocab(), 0, 0, num_entities=3, magnitude=0.0)

    def test_batch_stack(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2), (3, 1, 0)])
        stack = masks_for(vocab, [1, 3], [0, 1], num_entities=4)
        assert stack.shape == (2, 4)
        assert stack[0].tolist() == copy_mask(vocab, 1, 0, 4).tolist()
        assert stack[1].tolist() == copy_mask(vocab, 3, 1, 4).tolist()


class TestAbsorbQuads:
    def test_gaps_advance_frontier(self):
        vocab = absorb_quads(HistVocab(), [(0, 0, 1, 0), (0, 0, 2, 3)])
        assert vocab.frontier == 4
        assert vocab.lookup(0, 0).tolist() == [1, 2]

    def test_continuation_across_splits(self):
        vocab = absorb_quads(HistVocab(), [(0, 0, 1, 0)])
        absorb_quads(vocab, [(0, 0, 2, 2)])
        assert vocab.frontier == 3

    def test_rejects_already_absorbed_times(self):
        vocab = absorb_quads(HistVocab(), [(0, 0, 1, 1)])
        with pytest.raises(SequencingError):
            absorb_quads(vocab, [(0, 0, 2, 0)])


class TestRecurrenceStats:
    def test_full_repeat(self):
        stats = recurrence_stats([(1, 0, 2, 0)], [(1, 0, 2, 5)])
        assert stats["fact_repeat_rate"] == 1.0
        assert stats["group_repeat_rate"] == 1.0

    def test_disjoint_probe(self):
        stats = recurrence_stats([(1, 0, 2, 0)], [(3, 1, 4, 5)])
        assert stats["fact_repeat_rate"] == 0.0
        assert stats["group_repeat_rate"] == 0.0

    def test_group_rate_counts_pairs_not_facts(self):
        history = [(1, 0, 2, 0), (5, 2, 6, 0)]
        probe = [(1, 0, 2, 3), (1, 0, 7, 3), (5, 2, 0, 4), (0, 1, 1, 4)]
        stats = recurrence_stats(history, probe)
        # pairs: (1,0) intersects, (5,2) does not ({0} vs {6}), (0,1) unseen
        assert stats["fact_repeat_rate"] == pytest.approx(0.25)
        assert stats["group_repeat_rate"] == pytest.approx(1 / 3)

    def test_empty_history(self):
        stats = recurrence_stats(np.empty((0, 4), np.int64), [(1, 0, 2, 5)])
        assert stats["fact_repeat_rate"] == 0.0

    def test_precedence_enforced(self):
        with pytest.raises(ValueError, match="precede"):
            recurrence_stats([(1, 0, 2, 5)], [(1, 0, 2, 5)])

    def test_empty_probe_rejected(self):
        with pytest.raises(ValueError, match="probe"):
            recurrence_stats([(1, 0, 2, 0)], np.empty((0, 4), np.int64))
