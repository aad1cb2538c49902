"""Ranking evaluation: MRR and Hits@1/3/10 under raw, filtered, or
time-aware-filtered regimes, with per-direction and per-snapshot breakdowns
plus the ablation and alpha-sweep drivers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .data import as_quads, checked_quads
from .history import FactIndex, HistVocab
# score_batch is unused here. It stays bound because the benchmark's tracer
# (bench/spans.py) wraps evaluation.score_batch, like rank_of_truth and
# evaluate, by looking the name up in this module's namespace.
from .model import BLOCK_ROWS, ModelParams, check_mix, mix, score_batch, score_heads  # noqa: F401

REGIMES = ("raw", "static", "time-aware")

HITS_AT = (1, 3, 10)


def build_filter(*splits) -> FactIndex:
    """Index of the known-true facts of the given splits (usually all three)."""
    return FactIndex(np.concatenate([as_quads(()), *map(as_quads, splits)]))


def _candidates(filter_index: FactIndex | None, regime: str, queries: np.ndarray,
                num_entities: int) -> np.ndarray:
    """(B, N) keep-rows: the entities each (s, p, o, t) query ranks its truth
    o against. Filtered regimes drop every known-true object but the truth."""
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
                  regime: str = "static") -> int:
    """1-based rank of the truth among surviving entities.

    The filtered regimes remove every known-true entity other than the truth
    before ranking; ties are broken by ascending entity id, matching the
    model's prediction rule. ``query`` is the (subject, relation, time)
    triple the scores answer (required for filtering). A score vector with a
    NaN or infinite entry is rejected: it would rank the truth arbitrarily
    (an all-NaN vector ranks it first).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    scores = np.asarray(scores, dtype=np.float64)[None]
    truth = int(truth)
    n = scores.shape[1]
    if regime == "raw" or filter_index is None:
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
class SnapshotRow:
    snapshot: int
    count: int
    mrr: float
    hits1: float
    hits3: float
    hits10: float


@dataclasses.dataclass
class EvalResult:
    """Overall report plus the object/subject breakdown (reciprocal relations
    mark subject-direction queries) and optional per-snapshot rows."""

    overall: EvalReport
    objects: EvalReport
    subjects: EvalReport
    per_snapshot: list[SnapshotRow] | None = None


def evaluate(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
             alpha: float | None = None, mode: str = "full",
             filter_index: FactIndex | None = None, regime: str = "static",
             chunk_size: int = 256, per_snapshot: bool = False) -> EvalResult:
    """Rank the truth of every query quadruple and aggregate the metrics.

    ``num_relations`` is the raw relation count: queries with relation ids
    below it predict objects, the rest are reciprocal (subject) queries. The
    vocabulary is used read-only and should be frozen at the training
    horizon.
    """
    return _evaluate_mixes(params, quads, vocab, [(mode, alpha)],
                           num_relations=num_relations, filter_index=filter_index,
                           regime=regime, chunk_size=chunk_size,
                           per_snapshot=per_snapshot)[0]


def _evaluate_mixes(params: ModelParams, quads, vocab: HistVocab, mixes, *,
                    num_relations: int, filter_index: FactIndex | None,
                    regime: str, chunk_size: int = 256,
                    per_snapshot: bool = False) -> list[EvalResult]:
    """One ``EvalResult`` per ``(mode, alpha)`` mix (alpha None means the
    checkpoint's). Neither head nor the filter depends on alpha, so each
    chunk's heads and keep-rows are built once and every mix is ranked
    against them; only one chunk's heads are held at a time.

    Each chunk's heads overwrite the previous chunk's arrays. A convex mix
    of finite heads is finite, so finiteness is checked once per head row.
    The chunk is then ranked in blocks of ``BLOCK_ROWS`` rows, each mix
    written into one reused buffer; the mix is elementwise, so its rows are
    bitwise those of mixing the whole chunk.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime != "raw" and filter_index is None:
        raise ValueError(f"regime {regime!r} needs a filter index")
    if (isinstance(chunk_size, bool) or not isinstance(chunk_size, (int, np.integer))
            or chunk_size <= 0):
        raise ValueError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    mixes = [(mode, params.alpha if alpha is None else alpha) for mode, alpha in mixes]
    for mode, alpha in mixes:
        check_mix(mode, alpha)
    q = checked_quads(quads, params.num_entities, params.num_relations)
    modes = [mode for mode, _ in mixes]
    n = params.num_entities
    ranks = np.empty((len(mixes), len(q)), dtype=np.int64)
    ids = np.arange(n)
    mixed = np.empty((BLOCK_ROWS, n))
    beats = np.empty((BLOCK_ROWS, n), dtype=bool)
    ties = np.empty_like(beats)
    heads = None
    for start in range(0, len(q), chunk_size):
        chunk = q[start:start + chunk_size]
        heads = score_heads(params, chunk[:, 0], chunk[:, 1], chunk[:, 3], vocab, modes,
                            out=heads)
        finite = np.ones(len(chunk), dtype=bool)
        for head in heads.values():
            finite &= np.isfinite(head).all(axis=1)
        if not finite.all():
            s, p, o, t = chunk[np.argmin(finite)].tolist()
            raise _non_finite((s, p, t), o)
        keep = _candidates(filter_index, regime, chunk, n)
        for lo in range(0, len(chunk), BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            truths = chunk[block, 2]
            b = len(truths)
            block_heads = {name: head[block] for name, head in heads.items()}
            masks = (keep[block], ids < truths[:, None], beats[:b], ties[:b])
            for j, (mode, alpha) in enumerate(mixes):
                scores = mix(block_heads, mode, alpha, out=mixed[:b])
                ranks[j, start + lo:start + lo + b] = _rank_block(scores, truths, *masks)
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
        rows = []
        for t in np.unique(q[:, 3]) if len(q) else []:
            rep = report_from_ranks(ranks[q[:, 3] == t], "both", mode, regime)
            rows.append(SnapshotRow(int(t), rep.count, rep.mrr,
                                    rep.hits1, rep.hits3, rep.hits10))
        result.per_snapshot = rows
    return result


ABLATION_ORDER = ("copy-only", "gen-only", "gen-new", "full")


def ablate(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
           alpha: float | None = None, filter_index: FactIndex | None = None,
           regime: str = "static") -> list[tuple[str, EvalReport]]:
    """Evaluate all four inference modes on one checkpoint, scoring each
    chunk's heads once."""
    results = _evaluate_mixes(params, quads, vocab,
                              [(mode, alpha) for mode in ABLATION_ORDER],
                              num_relations=num_relations,
                              filter_index=filter_index, regime=regime)
    return [(mode, result.overall) for mode, result in zip(ABLATION_ORDER, results)]


def sweep_alpha(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
                filter_index: FactIndex | None = None, regime: str = "static",
                alphas=None) -> list[tuple[float, EvalReport]]:
    """Re-mix one checkpoint at each alpha and evaluate the full mode,
    scoring each chunk's heads once."""
    if alphas is None:
        alphas = [round(0.1 * i, 1) for i in range(11)]
    alphas = [float(alpha) for alpha in alphas]
    results = _evaluate_mixes(params, quads, vocab, [("full", alpha) for alpha in alphas],
                              num_relations=num_relations,
                              filter_index=filter_index, regime=regime)
    return [(alpha, result.overall) for alpha, result in zip(alphas, results)]
