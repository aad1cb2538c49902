import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copygen.evaluation import build_filter
from copygen.history import (
    FactIndex,
    HistVocab,
    SequencingError,
    masks_for,
    recurrence_stats,
    vocab_from_quads,
)

from oracles import filter_oracle, lookup, recurrence_oracle, vocab_oracle


# every (subject, relation) pair random_quads can draw
PAIRS = [(s, p) for s in range(8) for p in range(3)]


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
        assert lookup(vocab, 1, 0).tolist() == [2]
        assert vocab.frontier == 1

    def test_binary_clamp(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        vocab.absorb_snapshot([(1, 0, 2)])
        assert lookup(vocab, 1, 0).tolist() == [2]

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
                for s, p in PAIRS:
                    assert set(lookup(vocab, s, p).tolist()) == expected.get((s, p), set())
                vocab.absorb_snapshot(quads[quads[:, 3] == k][:, :3], index=k)

    def test_monotone_lookup(self):
        rng = np.random.default_rng(1)
        quads = random_quads(rng)
        vocab = HistVocab()
        previous = {}
        for k in range(10):
            vocab.absorb_snapshot(quads[quads[:, 3] == k][:, :3], index=k)
            for (s, p), objs in previous.items():
                assert objs <= set(lookup(vocab, s, p).tolist())
            previous = {key: set(lookup(vocab, *key).tolist()) for key in PAIRS}


class TestLookup:
    def test_unseen_pair_is_empty(self):
        assert lookup(HistVocab(), 4, 2).tolist() == []

    def test_accumulates_across_snapshots(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        vocab.absorb_snapshot([(1, 0, 3)])
        assert lookup(vocab, 1, 0).tolist() == [2, 3]

    def test_many_seasons(self):
        # one (subject, relation) pair accumulating a champion per snapshot
        vocab = HistVocab()
        for season in range(18):
            vocab.absorb_snapshot([(0, 0, season + 1)], index=season)
        assert lookup(vocab, 0, 0).tolist() == list(range(1, 19))


def dense_masks(vocab, subjects, relations, num_entities, magnitude=100.0, invert=False):
    """The additive masks ``masks_for`` applies, written onto zeros."""
    masks = np.zeros((len(subjects), num_entities))
    masks_for(vocab, subjects, relations, masks, magnitude, invert=invert)
    return masks


class TestCopyMask:
    def test_definition(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2), (1, 0, 5)])
        mask = dense_masks(vocab, [1], [0], num_entities=6, magnitude=100.0)[0]
        assert mask.tolist() == [-100, -100, 0, -100, -100, 0]

    def test_empty_lookup_all_suppressed(self):
        mask = dense_masks(HistVocab(), [0], [0], num_entities=3)[0]
        assert mask.tolist() == [-100, -100, -100]

    def test_full_lookup_all_zero(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(0, 0, o) for o in range(4)])
        assert dense_masks(vocab, [0], [0], num_entities=4)[0].tolist() == [0, 0, 0, 0]

    def test_zero_positions_equal_lookup(self):
        rng = np.random.default_rng(2)
        vocab = vocab_from_quads(random_quads(rng))
        subjects, relations = np.array(PAIRS).T
        masks = dense_masks(vocab, subjects, relations, num_entities=8)
        for (s, p), mask in zip(PAIRS, masks):
            assert np.flatnonzero(mask == 0).tolist() == lookup(vocab, s, p).tolist()

    def test_invert_suppresses_candidates(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2)])
        mask = dense_masks(vocab, [1], [0], num_entities=4, invert=True)[0]
        assert mask.tolist() == [0, 0, -100, 0]

    def test_bad_magnitude(self):
        for magnitude in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                dense_masks(HistVocab(), [0], [0], num_entities=3, magnitude=magnitude)

    def test_batch_stack(self):
        vocab = HistVocab()
        vocab.absorb_snapshot([(1, 0, 2), (3, 1, 0)])
        stack = dense_masks(vocab, [1, 3], [0, 1], num_entities=4)
        assert stack.shape == (2, 4)
        assert stack[0].tolist() == dense_masks(vocab, [1], [0], 4)[0].tolist()
        assert stack[1].tolist() == dense_masks(vocab, [3], [1], 4)[0].tolist()

    def test_repeated_fact_masked_once(self):
        """A fact seen at several times selects its (row, object) pair once
        per time; the mask still moves that entry by one magnitude."""
        vocab = vocab_from_quads([(1, 0, 2, 0), (1, 0, 2, 1), (1, 0, 2, 3), (1, 0, 3, 2)])
        assert len(vocab.facts.select([1], [0], before=vocab.frontier)[0]) == 4
        logits = np.array([[0.5, -0.25, 2.0, -1.0, 0.0]])
        masks_for(vocab, [1], [0], logits, 10.0)
        assert logits.tolist() == [[0.5 - 10, -0.25 - 10, 2.0, -1.0, -10.0]]
        logits = np.array([[0.5, -0.25, 2.0, -1.0, 0.0]])
        masks_for(vocab, [1], [0], logits, 10.0, invert=True)
        assert logits.tolist() == [[0.5, -0.25, 2.0 - 10, -1.0 - 10, 0.0]]


class TestVocabFromQuads:
    def test_gaps_advance_frontier(self):
        vocab = vocab_from_quads([(0, 0, 1, 0), (0, 0, 2, 3)])
        assert vocab.frontier == 4
        assert lookup(vocab, 0, 0).tolist() == [1, 2]
        assert vocab_from_quads(np.empty((0, 4), np.int64)).frontier == 0


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


# Small id ranges so that pairs, objects and times collide often.
N_IDS, N_RELS, HORIZON = 5, 3, 6
GRID = [(s, p) for s in range(N_IDS) for p in range(N_RELS)]
facts = st.lists(st.tuples(st.integers(0, N_IDS - 1), st.integers(0, N_RELS - 1),
                           st.integers(0, N_IDS - 1), st.integers(0, HORIZON - 1)),
                 max_size=40).map(lambda rows: np.asarray(rows, np.int64).reshape(-1, 4))


def row_sets(rows, objects, count):
    """Per query row, the set of selected objects."""
    sets = [set() for _ in range(count)]
    for row, obj in zip(rows.tolist(), objects.tolist()):
        sets[row].add(obj)
    return sets


class TestIndexAgainstOracles:
    """The one sorted index against dict-of-sets oracles on random facts."""

    @settings(max_examples=60, deadline=None)
    @given(facts)
    def test_history_and_masks(self, quads):
        index = FactIndex(quads)
        subjects, relations = np.array(GRID).T
        incremental = HistVocab()
        for frontier in range(HORIZON + 1):
            expected = [vocab_oracle(quads, frontier).get(pair, set()) for pair in GRID]
            for vocab in (HistVocab(index, frontier), incremental):
                assert [set(lookup(vocab, s, p).tolist()) for s, p in GRID] == expected
                masks = dense_masks(vocab, subjects, relations, N_IDS, 7.0)
                inverted = dense_masks(vocab, subjects, relations, N_IDS, 7.0, invert=True)
                for objs, mask, inv in zip(expected, masks, inverted):
                    assert mask.tolist() == [0.0 if e in objs else -7.0 for e in range(N_IDS)]
                    assert inv.tolist() == [-7.0 if e in objs else 0.0 for e in range(N_IDS)]
            if frontier < HORIZON:
                incremental.absorb_snapshot(quads[quads[:, 3] == frontier][:, :3],
                                            index=frontier)
        assert [set(lookup(vocab_from_quads(quads), s, p).tolist()) for s, p in GRID] \
            == [vocab_oracle(quads, HORIZON).get(pair, set()) for pair in GRID]

    @settings(max_examples=60, deadline=None)
    @given(facts, st.lists(st.integers(0, HORIZON), min_size=len(GRID), max_size=len(GRID)))
    def test_per_row_frontiers(self, quads, frontiers):
        """``before`` with one frontier per query row keeps each row's facts
        before its own frontier."""
        subjects, relations = np.array(GRID).T
        got = row_sets(*FactIndex(quads).select(subjects, relations, before=frontiers),
                       len(GRID))
        assert got == [vocab_oracle(quads, frontier).get(pair, set())
                       for pair, frontier in zip(GRID, frontiers)]

    def test_per_row_frontiers_as_many_as_the_matches(self):
        """Two rows and two matches, both of the first row's pair: each
        match is held to its row's frontier, not to the frontier at its own
        position (which kept row 0 from seeing object 2)."""
        index = FactIndex([(0, 0, 1, 0), (0, 0, 2, 4)])
        rows, objects = index.select([0, 1], [0, 0], before=[5, 1])
        assert rows.tolist() == [0, 0] and objects.tolist() == [1, 2]

    @settings(max_examples=60, deadline=None)
    @given(facts, facts)
    def test_filters(self, first, second):
        index = build_filter(first, second)
        static, timed = filter_oracle(first, second)
        assert index.num_triples == sum(len(objs) for objs in static.values())
        subjects, relations = np.array(GRID).T
        got = row_sets(*index.select(subjects, relations), len(GRID))
        assert got == [static.get(pair, set()) for pair in GRID]
        queries = np.array([(s, p, t) for s, p in GRID for t in range(HORIZON)])
        got = row_sets(*index.select(queries[:, 0], queries[:, 1], at=queries[:, 2]),
                       len(queries))
        assert got == [timed.get(tuple(query), set()) for query in queries.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(facts, facts.filter(len))
    def test_recurrence_stats(self, history, probe):
        probe = probe + np.array([0, 0, 0, HORIZON])  # strictly after the history
        assert recurrence_stats(history, probe) == recurrence_oracle(history, probe)
