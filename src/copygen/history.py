"""One sorted index of (s, p, o, t) facts behind the history vocabulary and
its copy masks, the known-fact filter of ranking and recurrence statistics.
Dense (B, N) views over all entities exist only per batch of queries.
"""

from __future__ import annotations

import numpy as np

from .data import as_quads
from .options import magnitude_problem, require


class SequencingError(ValueError):
    """Snapshot absorbed out of order, or a frozen vocabulary mutated."""


def _pair_keys(subjects, relations) -> np.ndarray:
    """One int64 key per (subject, relation) pair of non-negative ids."""
    return (np.asarray(subjects, dtype=np.int64) << 32) | np.asarray(relations, dtype=np.int64)


class FactIndex:
    """(s, p, o, t) facts sorted by (subject, relation) key, then object."""

    def __init__(self, quads=()):
        q = as_quads(quads)
        keys = _pair_keys(q[:, 0], q[:, 1])
        order = np.lexsort((q[:, 2], keys))
        self.quads = q[order]
        self.keys = keys[order]

    @property
    def num_triples(self) -> int:
        """Distinct (s, p, o) triples, whatever their times."""
        objects = self.quads[:, 2]
        starts = (self.keys[1:] != self.keys[:-1]) | (objects[1:] != objects[:-1])
        return int(np.count_nonzero(starts)) + (len(objects) > 0)

    def select(self, subjects, relations, *, before=None, at=None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(query row, object) of every fact of the queried pairs, for one
        fancy-index assignment into a (B, N) array. ``before`` keeps facts
        with t < before (the history at that frontier), ``at`` those of row
        i with t == at[i] (the time-aware filter), neither all of them.
        ``before`` is one frontier or one per row."""
        keys = _pair_keys(subjects, relations)
        lo = np.searchsorted(self.keys, keys, side="left")
        counts = np.searchsorted(self.keys, keys, side="right") - lo
        rows = np.repeat(np.arange(len(keys)), counts)
        # a match's position: its row's lo plus its offset among the row's matches
        matched = self.quads[np.arange(len(rows))
                             + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
        if before is None:
            keep = np.ones(len(rows), dtype=bool)
        else:
            before = np.asarray(before, dtype=np.int64)
            keep = matched[:, 3] < (before[rows] if before.ndim else before)
        if at is not None:
            keep &= matched[:, 3] == np.asarray(at, dtype=np.int64)[rows]
        return rows[keep], matched[keep, 2]


class HistVocab:
    """Objects seen for each (subject, relation) pair strictly before the frontier.

    Absorbing snapshots [0, k) makes the candidates of (s, p) exactly the
    objects o with an observed fact (s, p, o, t), t < k. Membership is
    binary: re-absorbing a fact changes nothing. A vocabulary over a given
    index sees that index's facts before ``frontier``, so one index serves
    every frontier of a training pass.
    """

    def __init__(self, facts: FactIndex | None = None, frontier: int = 0):
        self.facts = FactIndex() if facts is None else facts
        self.frontier = frontier
        self.frozen = False

    def absorb_snapshot(self, facts, index: int | None = None) -> "HistVocab":
        """Insert one snapshot's (m, 3) array of (s, p, o) facts and advance
        the frontier by 1; any other shape is rejected.

        ``index``, when given, must equal the current frontier: snapshots are
        absorbed strictly in order.
        """
        if index is not None and index != self.frontier:
            raise SequencingError(f"expected snapshot {self.frontier}, got {index}")
        if self.frozen:
            raise SequencingError("vocabulary is frozen")
        arr = np.asarray(facts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (m, 3) array of (s, p, o) facts, got shape {arr.shape}")
        stamped = np.hstack([arr, np.full((len(arr), 1), self.frontier)])
        self.facts = FactIndex(np.concatenate([self.facts.quads, stamped]))
        self.frontier += 1
        return self

    def freeze(self) -> "HistVocab":
        """Make the vocabulary read-only (test-time state)."""
        self.frozen = True
        return self


def vocab_from_quads(quads) -> HistVocab:
    """The history of a fact array at the frontier just past its latest
    snapshot (0 when there are no facts), so it tracks absolute snapshot
    indices across gaps."""
    facts = FactIndex(quads)
    return HistVocab(facts, int(facts.quads[:, 3].max()) + 1 if len(facts.quads) else 0)


def apply_mask(logits: np.ndarray, rows, objects, magnitude: float, *,
               invert: bool = False) -> None:
    """Apply copy masks in place to float64 ``logits`` (B, N), given the
    batch's history pairs, (row, object) as ``FactIndex.select`` returns
    them: subtract ``magnitude`` from every entry but each row's candidates
    (with ``invert``, from the candidates only), so the masks only suppress.
    On zeros this writes the dense additive masks; a bad magnitude raises
    first."""
    require(magnitude_problem(magnitude))
    # A (row, object) pair repeats once per time its fact was seen; the
    # buffered fancy-index read and write below touch it once however often.
    if invert:
        logits[rows, objects] -= magnitude
    else:
        candidates = logits[rows, objects]
        logits -= magnitude
        logits[rows, objects] = candidates


def masks_for(vocab: HistVocab, subjects, relations, logits: np.ndarray,
              magnitude: float = 100.0, *, invert: bool = False) -> None:
    """``apply_mask`` with the history pairs of a batch of (subject,
    relation) queries at the vocabulary's frontier."""
    rows, objects = vocab.facts.select(subjects, relations, before=vocab.frontier)
    apply_mask(logits, rows, objects, magnitude, invert=invert)


def block_pairs(vocab: HistVocab, subjects, relations, height: int):
    """Yield each block of ``height`` queries of a batch (the last may hold
    fewer) as its row slice and its history pairs, (row within the block,
    object) arrays as ``apply_mask`` takes them. The batch's pairs are
    selected once; they come in row order, so each block's are one slice of
    them."""
    rows, objects = vocab.facts.select(subjects, relations, before=vocab.frontier)
    edges = [*range(0, len(subjects), height), len(subjects)]
    cuts = np.searchsorted(rows, edges)
    for lo, hi, i, j in zip(edges, edges[1:], cuts, cuts[1:]):
        yield slice(lo, hi), rows[i:j] - lo, objects[i:j]


def recurrence_stats(history, probe) -> dict[str, float]:
    """How much of ``probe`` repeats content already present in ``history``.

    ``fact_repeat_rate``: fraction of probe facts whose (s, p, o) triple
    occurs anywhere in history. ``group_repeat_rate``: fraction of probe
    (s, p) groups whose object set intersects the pair's historical objects.
    History must strictly precede the probe in time.
    """
    h = as_quads(history)
    q = as_quads(probe)
    if len(q) == 0:
        raise ValueError("probe is empty")
    if len(h) and int(h[:, 3].max()) >= int(q[:, 3].min()):
        raise ValueError("history timestamps must all precede probe timestamps")

    rows, objects = FactIndex(h).select(q[:, 0], q[:, 1])
    repeated = np.zeros(len(q), dtype=bool)
    repeated[rows[objects == q[rows, 2]]] = True
    pairs = _pair_keys(q[:, 0], q[:, 1])
    return {
        "fact_repeat_rate": int(np.count_nonzero(repeated)) / len(q),
        "group_repeat_rate": len(np.unique(pairs[repeated])) / len(np.unique(pairs)),
    }
