import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copygen import evaluation, model
from copygen.evaluation import (
    build_filter,
    evaluate,
    ablate,
    rank_of_truth,
    report_from_ranks,
    sweep_alpha,
)
from copygen.history import HistVocab, vocab_from_quads
from copygen.model import ModelParams

from oracles import filter_oracle, random_params, rank_oracle


def quads(*rows):
    return np.asarray(rows, dtype=np.int64).reshape(-1, 4)


def in_chunks(rows, run):
    """``run()`` with the evaluators' chunks of ``rows`` queries."""
    with mock.patch.object(evaluation, "CHUNK_ROWS", rows):
        return run()


def filtered(index, s, p, t=None):
    """Objects the filter knows for (s, p), at time t when given."""
    _, objects = index.select([s], [p], at=None if t is None else [t])
    return set(objects.tolist())


class TestBuildFilter:
    def test_time_collapsed_union(self):
        index = build_filter(quads((1, 0, 2, 0)), quads((1, 0, 3, 5)))
        assert filtered(index, 1, 0) == {2, 3}
        assert index.num_triples == 2

    def test_empty(self):
        index = build_filter(np.empty((0, 4), np.int64))
        assert index.num_triples == 0
        assert filtered(index, 0, 0) == set()

    def test_duplicates_collapse(self):
        index = build_filter(quads((1, 0, 2, 0), (1, 0, 2, 7)))
        assert index.num_triples == 1
        assert filtered(index, 1, 0, 0) == {2}
        assert filtered(index, 1, 0, 7) == {2}
        assert filtered(index, 1, 0, 3) == set()


class TestRankOfTruth:
    def test_top_score_ranks_first(self):
        assert rank_of_truth([0.1, 0.7, 0.2], 1, regime="raw") == 1

    def test_filter_removes_competitor(self):
        index = build_filter(quads((5, 3, 1, 0)))
        raw = rank_of_truth([0.1, 0.7, 0.2], 2, (5, 3, 0), index, regime="raw")
        filtered = rank_of_truth([0.1, 0.7, 0.2], 2, (5, 3, 0), index, regime="static")
        assert raw == 2 and filtered == 1

    def test_truth_never_removed(self):
        index = build_filter(quads((5, 3, 2, 0)))
        assert rank_of_truth([0.9, 0.1, 0.5], 2, (5, 3, 0), index) == 2

    def test_tie_counts_smaller_ids(self):
        assert rank_of_truth([0.5, 0.5, 0.1], 1, regime="raw") == 2
        assert rank_of_truth([0.5, 0.5, 0.1], 0, regime="raw") == 1

    def test_time_aware_only_removes_same_timestamp(self):
        index = build_filter(quads((5, 3, 1, 0), (5, 3, 0, 4)))
        scores = [0.9, 0.7, 0.2]
        at_zero = rank_of_truth(scores, 2, (5, 3, 0), index, regime="time-aware")
        at_four = rank_of_truth(scores, 2, (5, 3, 4), index, regime="time-aware")
        static = rank_of_truth(scores, 2, (5, 3, 0), index, regime="static")
        assert at_zero == 2  # only entity 1 removed
        assert at_four == 2  # only entity 0 removed
        assert static == 1  # both removed

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            scores = rng.random(n)
            scores[rng.integers(n)] = scores[rng.integers(n)]  # plant a tie
            truth = int(rng.integers(n))
            removed = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False)
                          .tolist())
            fact_rows = [(9, 9, e, 0) for e in removed]
            index = build_filter(quads(*fact_rows)) if fact_rows else build_filter(
                np.empty((0, 4), np.int64))
            got = rank_of_truth(scores, truth, (9, 9, 0), index, regime="static")
            assert got == rank_oracle(scores, truth, removed)
            raw = rank_of_truth(scores, truth, (9, 9, 0), index, regime="raw")
            assert raw == rank_oracle(scores, truth, set())
            assert got <= raw

    def test_non_finite_scores_rejected(self):
        for scores in (np.full(5, np.nan), [0.1, np.nan, 0.2, 0.3, 0.4],
                       [0.1, np.inf, 0.2, 0.3, 0.4], [-np.inf, 0.1, 0.2, 0.3, 0.4]):
            with pytest.raises(ValueError, match="non-finite"):
                rank_of_truth(scores, 3, regime="raw")

    @pytest.mark.parametrize("regime", ["static", "time-aware"])
    def test_filtered_regime_needs_filter_index(self, regime):
        """Without a filter index a filtered regime raises the message
        ``evaluate`` raises; it used to fall back to the raw rank."""
        with pytest.raises(ValueError, match=rf"^regime '{regime}' needs a filter index$"):
            rank_of_truth([0.1, 0.7, 0.2], 2, (0, 0, 0), regime=regime)

    def test_needs_query_for_filtering(self):
        with pytest.raises(ValueError):
            rank_of_truth([0.1, 0.2], 0, None, build_filter(quads((0, 0, 1, 0))))

    @pytest.mark.parametrize("truth", [-1, 3, 1.9, "1", True, np.int64(-2)])
    def test_bad_truth_rejected(self, truth):
        """A truth of -1 used to rank entity N-1 (ties broken as if no id came
        first), 1.9 was truncated to 1, and 3 died in a bare IndexError."""
        message = rf"^truth must be an integer entity id in \[0, 3\), got {re.escape(repr(truth))}$"
        with pytest.raises(ValueError, match=message):
            rank_of_truth([0.1, 0.5, 0.2], truth, regime="raw")

    def test_integer_truth_types_accepted(self):
        for truth in (2, np.int64(2), np.int32(2)):
            assert rank_of_truth([0.1, 0.5, 0.2], truth, regime="raw") == 2

    @pytest.mark.parametrize("scores", [[[0.1, 0.5, 0.2]], 0.5, np.zeros((2, 3))])
    def test_scores_not_one_vector_rejected(self, scores):
        shape = np.shape(scores)
        with pytest.raises(ValueError, match=rf"^scores must be a 1-D vector, got shape "
                                             rf"{re.escape(str(shape))}$"):
            rank_of_truth(scores, 0, regime="raw")


class TestReports:
    def test_all_rank_one(self):
        report = report_from_ranks([1, 1, 1], "both", "full", "static")
        assert report.mrr == 1.0 and report.hits1 == 1.0 and report.hits10 == 1.0

    def test_single_rank_four(self):
        report = report_from_ranks([4], "both", "full", "static")
        assert report.mrr == 0.25
        assert report.hits1 == 0.0 and report.hits3 == 0.0 and report.hits10 == 1.0

    def test_empty_population_flagged(self):
        report = report_from_ranks([], "both", "full", "static")
        assert report.count == 0 and not report.defined
        assert math.isnan(report.mrr)

    def test_hits_monotone_random(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 30, 200)
        report = report_from_ranks(ranks, "both", "full", "static")
        assert report.hits1 <= report.hits3 <= report.hits10 <= 1.0
        assert report.mrr >= report.hits1
        assert 1 / 30 <= report.mrr <= 1.0


def eval_setup(seed=0, n=12, r=3, horizon=6, count=80):
    rng = np.random.default_rng(seed)
    facts = np.column_stack([
        rng.integers(0, n, count), rng.integers(0, 2 * r, count),
        rng.integers(0, n, count), rng.integers(0, horizon, count)])
    split_at = horizon - 2
    train = facts[facts[:, 3] < split_at]
    test = facts[facts[:, 3] >= split_at]
    params = random_params(rng, n, 2 * r, 4, dtype=np.float32, alpha=0.6)
    vocab = vocab_from_quads(train).freeze()
    index = build_filter(train, test)
    return params, train, test, vocab, index, r


class TestEvaluate:
    def test_report_shape_and_directions(self):
        params, _, test, vocab, index, r = eval_setup()
        result = evaluate(params, test, vocab, num_relations=r,
                          filter_index=index, per_snapshot=True)
        assert result.overall.count == len(test)
        assert result.objects.count + result.subjects.count == len(test)
        assert result.objects.direction == "object"
        assert result.subjects.direction == "subject"
        assert list(result.per_snapshot) == np.unique(test[:, 3]).tolist()
        assert sum(row.count for row in result.per_snapshot.values()) == len(test)
        assert result.objects.count == int((test[:, 1] < r).sum())

    def test_empty_split(self):
        params, _, _, vocab, index, r = eval_setup()
        result = evaluate(params, np.empty((0, 4), np.int64), vocab,
                          num_relations=r, filter_index=index)
        assert result.overall.count == 0 and not result.overall.defined

    def test_filtered_never_worse_than_raw(self):
        params, _, test, vocab, index, r = eval_setup(seed=3)
        filtered = evaluate(params, test, vocab, num_relations=r,
                            filter_index=index, regime="static")
        raw = evaluate(params, test, vocab, num_relations=r, regime="raw")
        assert filtered.overall.mrr >= raw.overall.mrr

    def test_chunking_invariant(self):
        params, _, test, vocab, index, r = eval_setup(seed=4)

        def run():
            return evaluate(params, test, vocab, num_relations=r, filter_index=index)

        assert in_chunks(3, run).overall == in_chunks(1000, run).overall
        # Multi-mix calls, at chunk sizes that are not multiples of the
        # ranking block, including chunks smaller than one block.
        mixes = [(mode, None) for mode in model.MODES] + [("full", 0.3), ("gen-new", 0.9)]
        results = [in_chunks(size, lambda: evaluation._evaluate_mixes(
                       params, test, vocab, mixes, num_relations=r, filter_index=index,
                       regime="static", per_snapshot=True))
                   for size in (1, 5, 9, 256)]
        assert len(test) > 9
        assert all(result == results[0] for result in results)

    def test_nan_parameters_raise(self):
        params, _, test, vocab, index, r = eval_setup()
        params.w_gen[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(params, test, vocab, num_relations=r, filter_index=index)

    @pytest.mark.parametrize("function", ["rank_of_truth", "evaluate"])
    def test_unknown_regime_rejected(self, function):
        params, _, test, vocab, index, r = eval_setup()
        run = {"rank_of_truth": lambda: rank_of_truth([0.1, 0.5, 0.2], 0, regime="fuzzy"),
               "evaluate": lambda: evaluate(params, test, vocab, num_relations=r,
                                            filter_index=index, regime="fuzzy")}[function]
        with pytest.raises(ValueError, match=r"^unknown regime 'fuzzy'; expected one of "):
            run()

    def test_regime_needs_filter(self):
        params, _, test, vocab, _, r = eval_setup()
        with pytest.raises(ValueError, match="filter"):
            evaluate(params, test, vocab, num_relations=r, regime="static")

    @pytest.mark.parametrize("column, value", [(0, -1), (2, -1), (2, 12), (1, 6), (3, -1)])
    def test_out_of_range_ids(self, column, value):
        """A negative id used to be answered as one counted from the end,
        and an id past the end failed with a bare IndexError."""
        params, _, test, vocab, index, r = eval_setup()
        test = test.copy()
        test[2, column] = value
        message = rf"^fact row 2 \({', '.join(map(str, test[2]))}\) is out of range"
        for run in (lambda: evaluate(params, test, vocab, num_relations=r, filter_index=index),
                    lambda: ablate(params, test, vocab, num_relations=r, filter_index=index)):
            with pytest.raises(ValueError, match=message):
                run()


class TestAblationIdentities:
    def test_copy_only_equals_full_alpha_one(self):
        params, _, test, vocab, index, r = eval_setup(seed=5)
        copy_only = evaluate(params, test, vocab, num_relations=r, mode="copy-only",
                             filter_index=index)
        full_one = evaluate(params, test, vocab, num_relations=r, mode="full",
                            alpha=1.0, filter_index=index)
        assert copy_only.overall.metrics() == full_one.overall.metrics()

    def test_gen_only_equals_full_alpha_zero(self):
        params, _, test, vocab, index, r = eval_setup(seed=6)
        gen_only = evaluate(params, test, vocab, num_relations=r, mode="gen-only",
                            filter_index=index)
        full_zero = evaluate(params, test, vocab, num_relations=r, mode="full",
                             alpha=0.0, filter_index=index)
        assert gen_only.overall.metrics() == full_zero.overall.metrics()

    def test_ablate_rows(self):
        params, _, test, vocab, index, r = eval_setup(seed=7)
        rows = ablate(params, test, vocab, num_relations=r, filter_index=index)
        assert [mode for mode, _ in rows] == ["copy-only", "gen-only", "gen-new", "full"]
        assert all(report.count == len(test) for _, report in rows)

    def test_sweep_endpoints_match_single_modes(self):
        params, _, test, vocab, index, r = eval_setup(seed=8)
        rows = dict(sweep_alpha(params, test, vocab, num_relations=r,
                                filter_index=index))
        assert len(rows) == 11
        gen_only = evaluate(params, test, vocab, num_relations=r, mode="gen-only",
                            filter_index=index)
        copy_only = evaluate(params, test, vocab, num_relations=r, mode="copy-only",
                             filter_index=index)
        assert rows[0.0].metrics() == gen_only.overall.metrics()
        assert rows[1.0].metrics() == copy_only.overall.metrics()


class TestScoreOnce:
    """ablate and sweep_alpha score each chunk's heads once and re-mix them;
    every re-mixed row equals the single-mix evaluate exactly."""

    @staticmethod
    def count_head_calls(monkeypatch):
        calls = {"copy_index_batch": 0, "generation_logits_batch": 0}
        for name in calls:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        return calls

    def test_heads_scored_once_per_chunk(self, monkeypatch):
        params, _, test, vocab, index, r = eval_setup(seed=9, count=2000)
        chunks = -(-len(test) // 256)
        assert chunks > 1
        calls = self.count_head_calls(monkeypatch)
        ablate(params, test, vocab, num_relations=r, filter_index=index)
        assert calls == {"copy_index_batch": chunks, "generation_logits_batch": chunks}
        calls.update(dict.fromkeys(calls, 0))
        sweep_alpha(params, test, vocab, num_relations=r, filter_index=index)
        assert calls == {"copy_index_batch": chunks, "generation_logits_batch": chunks}

    def test_rows_equal_single_mix_evaluate(self):
        params, _, test, vocab, index, r = eval_setup(seed=10, count=2000)
        kwargs = dict(num_relations=r, filter_index=index)
        for alpha in (None, 0.3):
            for mode, report in ablate(params, test, vocab, alpha=alpha, **kwargs):
                single = evaluate(params, test, vocab, mode=mode, alpha=alpha, **kwargs)
                assert report == single.overall, (mode, alpha)
        rows = sweep_alpha(params, test, vocab, **kwargs)
        assert len(rows) == 11
        for alpha, report in rows:
            assert report == evaluate(params, test, vocab, alpha=alpha, **kwargs).overall


class TestMixValidation:
    """Every (mode, alpha) is checked before any head is scored."""

    @pytest.mark.parametrize("count", [0, 2000])
    def test_bad_mix_rejected_before_scoring(self, count, monkeypatch):
        params, _, test, vocab, index, r = eval_setup(seed=11, count=count)
        calls = TestScoreOnce.count_head_calls(monkeypatch)
        kwargs = dict(num_relations=r, filter_index=index)
        monkeypatch.setattr(evaluation, "SWEEP_ALPHAS", (0.5, 1.5))
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
            sweep_alpha(params, test, vocab, **kwargs)
        with pytest.raises(ValueError, match=r"^unknown mode 'bogus'; expected one of "):
            evaluate(params, test, vocab, mode="bogus", **kwargs)
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got -0.5$"):
            ablate(params, test, vocab, alpha=-0.5, **kwargs)
        assert calls == {"copy_index_batch": 0, "generation_logits_batch": 0}

    def test_single_head_modes_ignore_alpha(self):
        params, _, test, vocab, index, r = eval_setup(seed=12)
        kwargs = dict(num_relations=r, filter_index=index)
        for mode in ("copy-only", "gen-only"):
            assert (evaluate(params, test, vocab, mode=mode, alpha=7.0, **kwargs).overall
                    == evaluate(params, test, vocab, mode=mode, **kwargs).overall)


class TestNonFiniteQuery:
    def test_message_names_first_failing_query(self):
        """A NaN embedding for a subject that first asks a query mid-split
        stops every driver at that query, with the full message."""
        params, _, test, vocab, index, r = eval_setup(seed=13)
        # a subject whose first query lies past the first 5-row chunk of the
        # in_chunks(5) run and before the last query, so queries are ranked
        # before it and left after it (at N=12 a block holds a whole chunk,
        # so no block edge bounds the position)
        firsts = {}
        for i, s in enumerate(test[:, 0].tolist()):
            firsts.setdefault(s, i)
        position = max(i for i in firsts.values() if 4 < i < len(test) - 1)
        subject, relation, truth, time = test[position].tolist()
        params.entity_emb[subject] = np.nan
        message = (f"non-finite score vector for query ({subject}, {relation}, {time}) "
                   f"(truth {truth})")
        kwargs = dict(num_relations=r, filter_index=index)
        for run in (lambda: evaluate(params, test, vocab, **kwargs),
                    lambda: in_chunks(5, lambda: evaluate(params, test, vocab, **kwargs)),
                    lambda: ablate(params, test, vocab, **kwargs),
                    lambda: sweep_alpha(params, test, vocab, **kwargs)):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == message


# A coarse grid of parameter values: every head GEMM sums exactly, so a score
# row does not depend on the chunk it is scored in, and entities whose weight
# rows and biases coincide tie exactly.
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


def grid_params(rng, n, r_aug, d, alpha):
    """Parameters on GRID whose affine rows repeat two prototypes, so each
    score row takes only a few levels."""
    def draw(*shape):
        return rng.choice(GRID, size=shape)

    return ModelParams(
        entity_emb=draw(n, d), relation_emb=draw(r_aug, d), time_unit=draw(d),
        w_copy=draw(2, 3 * d)[rng.integers(0, 2, n)], b_copy=rng.choice([0.0, 0.5], n),
        w_gen=draw(2, 3 * d)[rng.integers(0, 2, n)], b_gen=rng.choice([0.0, 0.5], n),
        num_snapshots=6, alpha=alpha)


class TestRanksAgainstOracle:
    """Every rank the drivers compute equals the brute-force sort of the
    same score row, on rows with many exact ties."""

    @staticmethod
    def recorded_ranks(run):
        """The rank vectors ``run`` hands to ``report_from_ranks`` for the
        whole population, one per mix in order."""
        with mock.patch.object(evaluation, "report_from_ranks",
                               wraps=evaluation.report_from_ranks) as spy:
            run()
        return [list(call.args[0]) for call in spy.call_args_list if call.args[1] == "both"]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(evaluation.REGIMES),
           chunk_rows=st.sampled_from([1, 5, 9, 256]),
           alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_ranks_equal_sort_oracle(self, seed, regime, chunk_rows, alpha):
        rng = np.random.default_rng(seed)
        n, r = 9, 2
        facts = np.column_stack([rng.integers(0, n, 60), rng.integers(0, 2 * r, 60),
                                 rng.integers(0, n, 60), rng.integers(0, 6, 60)])
        train, test = facts[facts[:, 3] < 3], facts[facts[:, 3] >= 3]
        params = grid_params(rng, n, 2 * r, 2, alpha)
        vocab = vocab_from_quads(train).freeze()
        index = build_filter(train, test)
        static, timed = filter_oracle(train, test)
        heads = model.score_heads(params, test[:, 0], test[:, 1], test[:, 3], vocab,
                                  model.MODES)

        removed = [{"raw": set(), "static": static.get((s, p), set()),
                    "time-aware": timed.get((s, p, t), set())}[regime]
                   for s, p, _, t in test.tolist()]

        def oracle(mixes):
            ranks = []
            for mode, mix_alpha in mixes:
                rows = model.mix(heads, mode, alpha if mix_alpha is None else mix_alpha)
                ranks.append([rank_oracle(row, o, known)
                              for row, o, known in zip(rows, test[:, 2], removed)])
            return ranks

        kwargs = dict(num_relations=r, filter_index=index, regime=regime)
        checks = [
            (lambda: ablate(params, test, vocab, **kwargs),
             [(mode, None) for mode in evaluation.ABLATION_ORDER]),
            (lambda: sweep_alpha(params, test, vocab, **kwargs),
             [("full", a) for a in evaluation.SWEEP_ALPHAS]),
            *[(lambda mode=mode: evaluate(params, test, vocab, mode=mode, **kwargs),
               [(mode, None)]) for mode in model.MODES],
        ]
        for run, mixes in checks:
            assert in_chunks(chunk_rows, lambda: self.recorded_ranks(run)) == oracle(mixes)


class TestBlockedEvaluation:
    """The evaluator runs each chunk's head GEMMs whole, then builds, checks,
    mixes and ranks its heads in blocks of ``block_rows(N)`` rows."""

    MIXES = [*[(mode, None) for mode in model.MODES], ("full", 0.0), ("full", 1.0),
             ("gen-new", 0.3)]

    @staticmethod
    def setup(n, seed=31):
        """Queries whose pairs repeat, so their history pairs sit on both
        sides of block edges: rows 3 and 4 (the first 4-row block edge) and
        rows 7 and 8 ask the same pair with history; about a third of the
        truths are drawn outside the pair's history."""
        rng = np.random.default_rng(seed)
        r = 2
        facts = np.column_stack([rng.integers(0, 5, 400), rng.integers(0, 2 * r, 400),
                                 rng.integers(0, n, 400), rng.integers(0, 4, 400)])
        test = facts[:140] + [0, 0, 0, 4]
        test[::3, 2] = rng.integers(0, n, len(test[::3]))
        test[[3, 4, 7, 8], :2] = facts[0, :2]
        params = random_params(rng, n, 2 * r, 4, dtype=np.float32, alpha=0.6)
        vocab = vocab_from_quads(facts).freeze()
        return params, test, vocab, build_filter(facts, test), r

    @staticmethod
    def whole_chunk_ranks(params, test, vocab, index, regime, chunk_rows, mixes):
        """Ranks by the one-query ranker over whole-chunk ``score_heads``
        rows, one list per mix."""
        ranks = [[] for _ in mixes]
        for start in range(0, len(test), chunk_rows):
            chunk = test[start:start + chunk_rows]
            heads = model.score_heads(params, chunk[:, 0], chunk[:, 1], chunk[:, 3], vocab,
                                      model.MODES)
            for out, (mode, alpha) in zip(ranks, mixes):
                rows = model.mix(heads, mode, params.alpha if alpha is None else alpha)
                out += [rank_of_truth(row, o, (s, p, t), index, regime)
                        for row, (s, p, o, t) in zip(rows, chunk.tolist())]
        return ranks

    @pytest.mark.parametrize("n", [12, 8192])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    def test_ranks_equal_whole_chunk_heads(self, n, chunk_rows):
        """At N=12 a block is the whole chunk; at N=8192 blocks of 4 rows
        split chunks of 7 and 256 (the last block of each 7-row chunk has
        3 rows)."""
        assert (model.block_rows(n) >= 256) == (n == 12)
        assert n == 12 or model.block_rows(n) == 4
        params, test, vocab, index, r = self.setup(n)
        rows, _ = vocab.facts.select(test[:9, 0], test[:9, 1], before=vocab.frontier)
        assert {3, 4, 7, 8} <= set(rows.tolist())
        for regime in evaluation.REGIMES:
            got = in_chunks(chunk_rows, lambda: TestRanksAgainstOracle.recorded_ranks(
                lambda: evaluation._evaluate_mixes(params, test, vocab, self.MIXES,
                                                   num_relations=r, filter_index=index,
                                                   regime=regime)))
            expected = self.whole_chunk_ranks(params, test, vocab, index, regime, chunk_rows,
                                              self.MIXES)
            assert got == expected, regime

    @pytest.mark.parametrize("n", [12, 8200])
    def test_first_non_finite_row_in_a_later_block(self, n):
        """Rows 9 and 13 ask about a subject with a NaN embedding; at N=8200
        row 9 starts the fourth 3-row block of the first 256-row chunk, and
        sits in the first block of the second 7-row chunk. Every evaluator
        names row 9's query."""
        assert n == 12 or model.block_rows(n) == 3
        params, test, vocab, index, r = self.setup(n)
        test[[9, 13], 0] = 5
        params.entity_emb[5] = np.nan
        s, p, o, t = test[9].tolist()
        message = f"non-finite score vector for query ({s}, {p}, {t}) (truth {o})"
        kwargs = dict(num_relations=r, filter_index=index)
        for run in (lambda: evaluate(params, test, vocab, **kwargs),
                    lambda: in_chunks(7, lambda: evaluate(params, test, vocab, **kwargs)),
                    lambda: ablate(params, test, vocab, **kwargs),
                    lambda: sweep_alpha(params, test, vocab, **kwargs)):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == message

    def test_peak_allocation(self):
        """The traced peak of evaluate, ablate and sweep_alpha over 600
        queries at N=3000 in 256-row chunks with float32 parameters, in units
        of one (chunk, N) float64 array: one chunk's two float32 GEMM outputs
        (1.0) and keep-rows (0.125), which are freed before the next chunk's
        are made, plus the (block, N) buffers. No timing test catches a
        reintroduced (chunk, N) temporary, which costs a few percent of a
        round, so this counts the bytes (whole-chunk float64 heads read 2.66
        and 3.66; a chunk's arrays kept alive over the next chunk's GEMMs
        read 1.77, its keep-rows alone 1.40)."""
        rng = np.random.default_rng(4)
        n, r, chunk = 3000, 4, 256
        params = random_params(rng, n, 2 * r, 8, dtype=np.float32)
        facts = np.column_stack([rng.integers(0, n, 3000), rng.integers(0, 2 * r, 3000),
                                 rng.integers(0, n, 3000), rng.integers(0, 5, 3000)])
        test = np.column_stack([rng.integers(0, n, 600), rng.integers(0, 2 * r, 600),
                                rng.integers(0, n, 600), rng.integers(5, 7, 600)])
        test[:300, :2] = facts[:300, :2]
        vocab = vocab_from_quads(facts).freeze()
        index = build_filter(facts, test)
        for run in (evaluate, ablate, sweep_alpha):
            tracemalloc.start()
            try:
                run(params, test, vocab, num_relations=r, filter_index=index)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / (chunk * n * 8) <= 1.5, run.__name__
