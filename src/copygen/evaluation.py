"""Ranking evaluation: MRR and Hits@1/3/10 under raw, filtered, or
time-aware-filtered regimes, with per-direction and per-snapshot breakdowns
plus the ablation and alpha-sweep drivers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .data import as_quads, checked_quads
from .history import FactIndex, HistVocab
# The forward stages run inside head_blocks, in copygen.model's namespace,
# where the benchmark's tracer (bench/spans.py) wraps them.
from .model import ModelParams, block_rows, check_mix, head_blocks, mix
from .options import REGIMES, heads_of
# score_batch is unused here. It stays bound because the benchmark's tracer
# wraps evaluation.score_batch, like rank_of_truth and evaluate, by looking
# the name up in this module's namespace.
from .model import score_batch  # noqa: F401

HITS_AT = (1, 3, 10)

# Queries per evaluation chunk. A chunk's two head GEMM outputs and its
# keep-rows, (chunk, N) each, are the largest arrays evaluation allocates.
CHUNK_ROWS = 256

# The mixture weights ``sweep_alpha`` (and ``sweep-alpha --retrain``) visit.
SWEEP_ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))


def build_filter(*splits) -> FactIndex:
    """Index of the known-true facts of the given splits (usually all three)."""
    return FactIndex(np.concatenate([as_quads(()), *map(as_quads, splits)]))


def _check_regime(regime: str | None, filter_index: FactIndex | None) -> str:
    """The regime to rank under: ``regime``, or for None ``static`` with a
    filter index and ``raw`` without. Reject an unknown regime, or a filtered
    one without a filter index."""
    if regime is None:
        return "raw" if filter_index is None else "static"
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime != "raw" and filter_index is None:
        raise ValueError(f"regime {regime!r} needs a filter index")
    return regime


def _candidates(filter_index: FactIndex | None, regime: str, queries: np.ndarray,
                num_entities: int) -> np.ndarray:
    """(B, N) keep-rows: the entities each (s, p, o, t) query ranks its truth
    o against, in a new array. Filtered regimes drop every known-true object
    but the truth."""
    keep = np.ones((len(queries), num_entities), dtype=bool)
    if regime != "raw":
        at = queries[:, 3] if regime == "time-aware" else None
        rows, objects = filter_index.select(queries[:, 0], queries[:, 1], at=at)
        keep[rows, objects] = False
        keep[np.arange(len(queries)), queries[:, 2]] = True
    return keep


def _rank_block(scores: np.ndarray, truths: np.ndarray, keep: np.ndarray,
                before: np.ndarray, beats: np.ndarray | None = None,
                ties: np.ndarray | None = None) -> list[int]:
    """1-based rank of each row's truth among the row's kept entities, for a
    (b, N) block of finite score rows: one plus the kept entities that score
    higher, plus those that tie with a smaller id. ``before`` marks the ids
    below each row's truth; ``beats`` and ``ties`` are optional (b, N)
    boolean scratch."""
    truth_scores = scores[np.arange(len(truths)), truths][:, None]
    beats = np.greater(scores, truth_scores, out=beats)
    ties = np.equal(scores, truth_scores, out=ties)
    ties &= before
    beats |= ties
    beats &= keep
    return [1 + np.count_nonzero(row) for row in beats]


def _non_finite(query, truth) -> ValueError:
    return ValueError(f"non-finite score vector for query {query} (truth {truth})")


def rank_of_truth(scores, truth: int, query=None, filter_index: FactIndex | None = None,
                  regime: str | None = None) -> int:
    """1-based rank of the truth among surviving entities.

    The filtered regimes remove every known-true entity other than the truth
    before ranking; ties are broken by ascending entity id, matching the
    model's prediction rule. ``query`` is the (subject, relation, time)
    triple the scores answer; the filtered regimes need it and the filter
    index, as ``evaluate`` does. The regime defaults to ``static`` with a
    filter index and to ``raw`` without one. Scores must be one vector over
    the N entities and the truth an integer id in [0, N). A score vector with
    a NaN or infinite entry is rejected: it would rank the truth arbitrarily
    (an all-NaN vector ranks it first).
    """
    regime = _check_regime(regime, filter_index)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a 1-D vector, got shape {scores.shape}")
    n = len(scores)
    if (isinstance(truth, bool) or not isinstance(truth, (int, np.integer))
            or not 0 <= truth < n):
        raise ValueError(f"truth must be an integer entity id in [0, {n}), got {truth!r}")
    truth = int(truth)
    scores = scores[None]
    if regime == "raw":
        keep = np.ones((1, n), dtype=bool)
    elif query is None:
        raise ValueError("filtered ranking needs the query (s, p, t)")
    else:
        s, p, t = (int(v) for v in query)
        keep = _candidates(filter_index, regime, np.array([[s, p, truth, t]]), n)
    if not np.isfinite(scores).all():
        raise _non_finite(query, truth)
    return _rank_block(scores, np.array([truth]), keep, np.arange(n) < truth)[0]


@dataclasses.dataclass
class EvalReport:
    """MRR and Hits@k for one query population. Metrics are fractions in
    [0, 1]; they are NaN when ``count`` is zero (flagged undefined)."""

    mrr: float
    hits1: float
    hits3: float
    hits10: float
    count: int
    direction: str
    mode: str
    filter_mode: str

    @property
    def defined(self) -> bool:
        return self.count > 0

    def metrics(self) -> dict[str, float]:
        return {"mrr": self.mrr, "hits1": self.hits1,
                "hits3": self.hits3, "hits10": self.hits10}


def report_from_ranks(ranks, direction: str, mode: str, filter_mode: str) -> EvalReport:
    ranks = np.asarray(ranks, dtype=np.int64)
    count = len(ranks)
    if count == 0:
        nan = float("nan")
        return EvalReport(nan, nan, nan, nan, 0, direction, mode, filter_mode)
    # fsum rounds the exact sum once, so the order of the terms cannot matter
    mrr = math.fsum((1.0 / ranks).tolist()) / count
    hits = [int(np.count_nonzero(ranks <= k)) / count for k in HITS_AT]
    return EvalReport(mrr, hits[0], hits[1], hits[2], count, direction, mode, filter_mode)


@dataclasses.dataclass
class EvalResult:
    """Overall report plus the object/subject breakdown (reciprocal relations
    mark subject-direction queries) and, optionally, one report per
    snapshot, keyed by snapshot index in ascending order."""

    overall: EvalReport
    objects: EvalReport
    subjects: EvalReport
    per_snapshot: dict[int, EvalReport] | None = None


def evaluate(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
             alpha: float | None = None, mode: str = "full",
             filter_index: FactIndex | None = None, regime: str | None = None,
             per_snapshot: bool = False) -> EvalResult:
    """Rank the truth of every query quadruple and aggregate the metrics.

    ``num_relations`` is the raw relation count: queries with relation ids
    below it predict objects, the rest are reciprocal (subject) queries. The
    regime defaults as in ``rank_of_truth``. The vocabulary is only read; it
    usually sits at the training horizon.
    """
    return _evaluate_mixes(params, quads, vocab, [(mode, alpha)],
                           num_relations=num_relations, filter_index=filter_index,
                           regime=regime, per_snapshot=per_snapshot)[0]


def _evaluate_mixes(params: ModelParams, quads, vocab: HistVocab, mixes, *,
                    num_relations: int, filter_index: FactIndex | None,
                    regime: str | None, per_snapshot: bool = False) -> list[EvalResult]:
    """One ``EvalResult`` per ``(mode, alpha)`` mix (alpha None means the
    checkpoint's). Neither head nor the filter depends on alpha, so each
    query's heads and keep-row are built once and every mix is ranked
    against them.

    Per chunk of ``CHUNK_ROWS`` queries, the keep-rows are built into one
    new array, and ``head_blocks`` runs the chunk's head GEMMs and walks it
    in blocks of ``block_rows(N)`` rows, building each block's float64
    heads in reused block buffers; the chunk's arrays are freed before the
    next chunk's are made. Each block's heads have their finiteness checked
    (a convex mix of finite heads is finite), and each mix is written from
    them into one more buffer and ranked, all while the block is in cache.
    Every step is row-wise, so the ranks are bitwise those of whole-chunk
    heads. A non-finite head row raises, naming the first such query; ranks
    already computed for earlier blocks of its chunk are discarded with the
    rest.
    """
    regime = _check_regime(regime, filter_index)
    mixes = [(mode, params.alpha if alpha is None else alpha) for mode, alpha in mixes]
    for mode, alpha in mixes:
        check_mix(mode, alpha)
    q = checked_quads(quads, params.num_entities, params.num_relations)
    modes = [mode for mode, _ in mixes]
    need = heads_of(modes)
    n = params.num_entities
    ranks = np.empty((len(mixes), len(q)), dtype=np.int64)
    ids = np.arange(n)
    height = min(block_rows(n), CHUNK_ROWS)
    blocks = {name: np.empty((height, n)) for name in need}
    mixed = np.empty((height, n))
    beats = np.empty((height, n), dtype=bool)
    ties = np.empty_like(beats)
    for start in range(0, len(q), CHUNK_ROWS):
        chunk = q[start:start + CHUNK_ROWS]
        keep = _candidates(filter_index, regime, chunk, n)
        for block, heads in head_blocks(
                params, chunk[:, [0, 1, 3]], vocab, need,
                lambda rows: {name: buffer[:rows.stop - rows.start]
                              for name, buffer in blocks.items()}):
            truths = chunk[block, 2]
            b = len(truths)
            # a head row is finite or all NaN, so its first entry tells which
            finite = np.ones(b, dtype=bool)
            for head in heads.values():
                finite &= np.isfinite(head[:, 0])
            if not finite.all():
                s, p, o, t = chunk[block][np.argmin(finite)].tolist()
                raise _non_finite((s, p, t), o)
            masks = (keep[block], ids < truths[:, None], beats[:b], ties[:b])
            done = start + block.start
            for j, (mode, alpha) in enumerate(mixes):
                scores = mix(heads, mode, alpha, out=mixed[:b])
                ranks[j, done:done + b] = _rank_block(scores, truths, *masks)
        # free the chunk's keep-rows (masks holds a view of them) before the next one's
        del keep, masks
    return [_result(q, mode_ranks, mode, regime, num_relations, per_snapshot)
            for mode_ranks, mode in zip(ranks, modes)]


def _result(q: np.ndarray, ranks: np.ndarray, mode: str, regime: str,
            num_relations: int, per_snapshot: bool) -> EvalResult:
    is_object = q[:, 1] < num_relations if len(q) else np.empty(0, dtype=bool)
    result = EvalResult(
        overall=report_from_ranks(ranks, "both", mode, regime),
        objects=report_from_ranks(ranks[is_object], "object", mode, regime),
        subjects=report_from_ranks(ranks[~is_object], "subject", mode, regime),
    )
    if per_snapshot:
        result.per_snapshot = {int(t): report_from_ranks(ranks[q[:, 3] == t], "both",
                                                         mode, regime)
                               for t in np.unique(q[:, 3])}
    return result


ABLATION_ORDER = ("copy-only", "gen-only", "gen-new", "full")


def ablate(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
           alpha: float | None = None, filter_index: FactIndex | None = None,
           regime: str | None = None) -> list[tuple[str, EvalReport]]:
    """Evaluate all four inference modes on one checkpoint, scoring each
    chunk's heads once."""
    results = _evaluate_mixes(params, quads, vocab,
                              [(mode, alpha) for mode in ABLATION_ORDER],
                              num_relations=num_relations,
                              filter_index=filter_index, regime=regime)
    return [(mode, result.overall) for mode, result in zip(ABLATION_ORDER, results)]


def sweep_alpha(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
                filter_index: FactIndex | None = None, regime: str | None = None
                ) -> list[tuple[float, EvalReport]]:
    """Re-mix one checkpoint at each of ``SWEEP_ALPHAS`` and evaluate the
    full mode, scoring each chunk's heads once."""
    results = _evaluate_mixes(params, quads, vocab,
                              [("full", alpha) for alpha in SWEEP_ALPHAS],
                              num_relations=num_relations,
                              filter_index=filter_index, regime=regime)
    return [(alpha, result.overall) for alpha, result in zip(SWEEP_ALPHAS, results)]
