"""Ranking evaluation: MRR and Hits@1/3/10 under raw, filtered, or
time-aware-filtered regimes, with per-direction and per-snapshot breakdowns
plus the ablation and alpha-sweep drivers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .data import as_quads
from .history import HistVocab
# score_batch is unused here. It stays bound because the benchmark's tracer
# (bench/spans.py) wraps evaluation.score_batch, like rank_of_truth and
# evaluate, by looking the name up in this module's namespace.
from .model import ModelParams, mix, score_batch, score_heads  # noqa: F401

REGIMES = ("raw", "static", "time-aware")

HITS_AT = (1, 3, 10)


class FilterIndex:
    """Known-true triples aggregated across splits.

    Stores both the time-collapsed view (the convention of prior ranking
    work) and a per-timestamp view for the time-aware regime.
    """

    def __init__(self):
        self._static: dict[tuple[int, int], set[int]] = {}
        self._timed: dict[tuple[int, int, int], set[int]] = {}
        self.num_triples = 0

    def add_quads(self, quads) -> "FilterIndex":
        for s, p, o, t in as_quads(quads).tolist():
            bucket = self._static.setdefault((s, p), set())
            if o not in bucket:
                bucket.add(o)
                self.num_triples += 1
            self._timed.setdefault((s, p, t), set()).add(o)
        return self

    def contains(self, s: int, p: int, o: int) -> bool:
        return o in self._static.get((s, p), ())

    def objects_for(self, s: int, p: int) -> set[int]:
        return self._static.get((s, p), set())

    def objects_at(self, s: int, p: int, t: int) -> set[int]:
        return self._timed.get((s, p, t), set())


def build_filter(*splits) -> FilterIndex:
    """Union of known-true triples over the given splits (usually all three)."""
    index = FilterIndex()
    for quads in splits:
        index.add_quads(quads)
    return index


def rank_of_truth(scores, truth: int, query=None, filter_index: FilterIndex | None = None,
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
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError(f"non-finite score vector for query {query} (truth {truth})")
    truth = int(truth)
    keep = np.ones(len(scores), dtype=bool)
    if regime != "raw" and filter_index is not None:
        if query is None:
            raise ValueError("filtered ranking needs the query (s, p, t)")
        s, p, t = (int(v) for v in query)
        known = (filter_index.objects_for(s, p) if regime == "static"
                 else filter_index.objects_at(s, p, t))
        if known:
            keep[list(known)] = False
        keep[truth] = True
    truth_score = scores[truth]
    greater = int(np.count_nonzero(keep & (scores > truth_score)))
    equal_before = int(np.count_nonzero(keep[:truth] & (scores[:truth] == truth_score)))
    return 1 + greater + equal_before


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
    ranks = list(int(r) for r in ranks)
    count = len(ranks)
    if count == 0:
        nan = float("nan")
        return EvalReport(nan, nan, nan, nan, 0, direction, mode, filter_mode)
    mrr = math.fsum(1.0 / r for r in ranks) / count
    hits = [sum(r <= k for r in ranks) / count for k in HITS_AT]
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
             filter_index: FilterIndex | None = None, regime: str = "static",
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
                    num_relations: int, filter_index: FilterIndex | None,
                    regime: str, chunk_size: int = 256,
                    per_snapshot: bool = False) -> list[EvalResult]:
    """One ``EvalResult`` per ``(mode, alpha)`` mix (alpha None means the
    checkpoint's). Neither head depends on alpha, so each chunk's heads are
    scored once and every mix is ranked against them; only one chunk's
    heads are held at a time."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime != "raw" and filter_index is None:
        raise ValueError(f"regime {regime!r} needs a filter index")
    q = as_quads(quads)
    mixes = [(mode, params.alpha if alpha is None else alpha) for mode, alpha in mixes]
    modes = [mode for mode, _ in mixes]
    ranks = np.empty((len(mixes), len(q)), dtype=np.int64)
    for start in range(0, len(q), chunk_size):
        chunk = q[start:start + chunk_size]
        heads = score_heads(params, chunk[:, 0], chunk[:, 1], chunk[:, 3], vocab, modes)
        # Mixing one query's rows at a time keeps the mix in cache and
        # allocates no (B, N) temporaries; the mix is elementwise, so the
        # rows are bitwise those of mixing the whole chunk.
        for i, (s, p, o, t) in enumerate(chunk.tolist()):
            row = {name: head[i] for name, head in heads.items()}
            for j, (mode, alpha) in enumerate(mixes):
                ranks[j, start + i] = rank_of_truth(mix(row, mode, alpha), o, (s, p, t),
                                                    filter_index, regime)
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
           alpha: float | None = None, filter_index: FilterIndex | None = None,
           regime: str = "static") -> list[tuple[str, EvalReport]]:
    """Evaluate all four inference modes on one checkpoint, scoring each
    chunk's heads once."""
    results = _evaluate_mixes(params, quads, vocab,
                              [(mode, alpha) for mode in ABLATION_ORDER],
                              num_relations=num_relations,
                              filter_index=filter_index, regime=regime)
    return [(mode, result.overall) for mode, result in zip(ABLATION_ORDER, results)]


def sweep_alpha(params: ModelParams, quads, vocab: HistVocab, *, num_relations: int,
                filter_index: FilterIndex | None = None, regime: str = "static",
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
