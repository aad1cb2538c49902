"""One sorted index of (s, p, o, t) facts behind the history vocabulary and
its copy masks, the known-fact filter of ranking and recurrence statistics.
Dense (B, N) views over all entities exist only per batch of queries.
"""

from __future__ import annotations

import numpy as np

from .data import as_quads


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
        i with t == at[i] (the time-aware filter), neither all of them."""
        keys = _pair_keys(subjects, relations)
        lo = np.searchsorted(self.keys, keys, side="left")
        counts = np.searchsorted(self.keys, keys, side="right") - lo
        rows = np.repeat(np.arange(len(keys)), counts)
        # a match's position: its row's lo plus its offset among the row's matches
        matched = self.quads[np.arange(len(rows))
                             + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
        keep = np.ones(len(rows), dtype=bool) if before is None else matched[:, 3] < before
        if at is not None:
            keep &= matched[:, 3] == np.asarray(at, dtype=np.int64)[rows]
        return rows[keep], matched[keep, 2]


class HistVocab:
    """Objects seen for each (subject, relation) pair strictly before the frontier.

    Absorbing snapshots [0, k) makes ``lookup(s, p)`` exactly the set of
    objects o with an observed fact (s, p, o, t), t < k. Membership is
    binary: re-absorbing a fact changes nothing. A vocabulary over a given
    index sees that index's facts before ``frontier``, so one index serves
    every frontier of a training pass.
    """

    def __init__(self, facts: FactIndex | None = None, frontier: int = 0):
        self.facts = FactIndex() if facts is None else facts
        self.frontier = frontier
        self.frozen = False

    def _absorb(self, quads: np.ndarray, frontier: int) -> None:
        if self.frozen:
            raise SequencingError("vocabulary is frozen")
        self.facts = FactIndex(np.concatenate([self.facts.quads, quads]))
        self.frontier = frontier

    def absorb_snapshot(self, facts, index: int | None = None) -> "HistVocab":
        """Insert one snapshot's (s, p, o) facts and advance the frontier by 1.

        ``index``, when given, must equal the current frontier: snapshots are
        absorbed strictly in order.
        """
        if index is not None and index != self.frontier:
            raise SequencingError(f"expected snapshot {self.frontier}, got {index}")
        arr = np.asarray(facts, dtype=np.int64).reshape(-1, 3)
        self._absorb(np.hstack([arr, np.full((len(arr), 1), self.frontier)]), self.frontier + 1)
        return self

    def lookup(self, subject: int, relation: int) -> np.ndarray:
        """Sorted object ids historically seen for (subject, relation)."""
        return np.unique(self.facts.select([subject], [relation], before=self.frontier)[1])

    def freeze(self) -> "HistVocab":
        """Make the vocabulary read-only (test-time state)."""
        self.frozen = True
        return self


def absorb_quads(vocab: HistVocab, quads) -> HistVocab:
    """Absorb all snapshots of a fact array, starting at the current frontier.

    The frontier moves past the latest fact, so it keeps tracking absolute
    snapshot indices across gaps. Facts at already-absorbed indices are a
    sequencing error.
    """
    q = as_quads(quads)
    if len(q) == 0:
        return vocab
    if int(q[:, 3].min()) < vocab.frontier:
        raise SequencingError("facts precede the vocabulary frontier")
    vocab._absorb(q, int(q[:, 3].max()) + 1)
    return vocab


def vocab_from_quads(quads) -> HistVocab:
    return absorb_quads(HistVocab(), quads)


def masks_for(vocab: HistVocab, subjects, relations, logits: np.ndarray,
              magnitude: float = 100.0, *, invert: bool = False) -> None:
    """Apply the copy masks of a batch of (subject, relation) pairs in place
    to float64 ``logits`` of shape (B, N): subtract ``magnitude`` from every
    entry outside each pair's historical candidates, so the masks only
    suppress. On zeros this writes the dense additive masks.

    ``invert=True`` suppresses the candidates instead (used by the
    generation-new ablation).
    """
    if not 0 < magnitude < np.inf:
        raise ValueError(f"mask magnitude must be finite and positive, got {magnitude}")
    # A (row, object) pair repeats once per time its fact was seen; the
    # buffered fancy-index read and write below touch it once however often.
    rows, objects = vocab.facts.select(subjects, relations, before=vocab.frontier)
    if invert:
        logits[rows, objects] -= magnitude
    else:
        candidates = logits[rows, objects]
        logits -= magnitude
        logits[rows, objects] = candidates


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
