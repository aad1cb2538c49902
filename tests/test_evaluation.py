import math

import numpy as np
import pytest

from copygen import model
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

from oracles import random_params, rank_oracle


def quads(*rows):
    return np.asarray(rows, dtype=np.int64).reshape(-1, 4)


class TestBuildFilter:
    def test_time_collapsed_union(self):
        index = build_filter(quads((1, 0, 2, 0)), quads((1, 0, 3, 5)))
        assert index.contains(1, 0, 2) and index.contains(1, 0, 3)
        assert index.num_triples == 2

    def test_empty(self):
        index = build_filter(np.empty((0, 4), np.int64))
        assert index.num_triples == 0
        assert not index.contains(0, 0, 0)

    def test_duplicates_collapse(self):
        index = build_filter(quads((1, 0, 2, 0), (1, 0, 2, 7)))
        assert index.num_triples == 1
        assert index.objects_at(1, 0, 0) == {2}
        assert index.objects_at(1, 0, 7) == {2}
        assert index.objects_at(1, 0, 3) == set()


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

    def test_needs_query_for_filtering(self):
        with pytest.raises(ValueError):
            rank_of_truth([0.1, 0.2], 0, None, build_filter(quads((0, 0, 1, 0))))


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
        assert sum(row.count for row in result.per_snapshot) == len(test)
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
        small = evaluate(params, test, vocab, num_relations=r,
                         filter_index=index, chunk_size=3)
        large = evaluate(params, test, vocab, num_relations=r,
                         filter_index=index, chunk_size=1000)
        assert small.overall == large.overall

    def test_nan_parameters_raise(self):
        params, _, test, vocab, index, r = eval_setup()
        params.w_gen[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(params, test, vocab, num_relations=r, filter_index=index)

    def test_regime_needs_filter(self):
        params, _, test, vocab, _, r = eval_setup()
        with pytest.raises(ValueError, match="filter"):
            evaluate(params, test, vocab, num_relations=r, regime="static")


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

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

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
