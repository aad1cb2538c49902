"""Cumulative per-(subject, relation) object history and the copy mask.

The vocabulary is a sparse map built snapshot by snapshot; the dense masked
view over all entities exists only transiently per query.
"""

from __future__ import annotations

import numpy as np

from .data import as_quads


class SequencingError(ValueError):
    """Snapshot absorbed out of order, or a frozen vocabulary mutated."""


class HistVocab:
    """Objects seen for each (subject, relation) pair strictly before the frontier.

    Absorbing snapshots [0, k) makes ``lookup(s, p)`` exactly the set of
    objects o with an observed fact (s, p, o, t), t < k. Membership is
    binary: re-absorbing a fact changes nothing.
    """

    def __init__(self):
        self._entries: dict[tuple[int, int], set[int]] = {}
        self.frontier = 0
        self.frozen = False

    def __len__(self) -> int:
        return len(self._entries)

    def absorb_snapshot(self, facts, index: int | None = None) -> "HistVocab":
        """Insert one snapshot's (s, p, o) facts and advance the frontier by 1.

        ``index``, when given, must equal the current frontier: snapshots are
        absorbed strictly in order.
        """
        if self.frozen:
            raise SequencingError("vocabulary is frozen")
        if index is not None and index != self.frontier:
            raise SequencingError(f"expected snapshot {self.frontier}, got {index}")
        arr = np.asarray(facts, dtype=np.int64).reshape(-1, 3)
        for s, p, o in arr.tolist():
            key = (s, p)
            bucket = self._entries.get(key)
            if bucket is None:
                self._entries[key] = {o}
            else:
                bucket.add(o)
        self.frontier += 1
        return self

    def lookup(self, subject: int, relation: int) -> np.ndarray:
        """Sorted object ids historically seen for (subject, relation)."""
        objs = self._entries.get((int(subject), int(relation)))
        if not objs:
            return np.empty(0, dtype=np.int64)
        return np.fromiter(sorted(objs), dtype=np.int64, count=len(objs))

    def freeze(self) -> "HistVocab":
        """Make the vocabulary read-only (test-time state)."""
        self.frozen = True
        return self


def absorb_quads(vocab: HistVocab, quads) -> HistVocab:
    """Absorb all snapshots of a fact array, starting at the current frontier.

    Gap snapshots between the frontier and the latest fact are absorbed as
    empty so the frontier keeps tracking absolute snapshot indices. Facts at
    already-absorbed indices are a sequencing error.
    """
    q = as_quads(quads)
    if len(q) == 0:
        return vocab
    if int(q[:, 3].min()) < vocab.frontier:
        raise SequencingError("facts precede the vocabulary frontier")
    horizon = int(q[:, 3].max()) + 1
    for k in range(vocab.frontier, horizon):
        vocab.absorb_snapshot(q[q[:, 3] == k][:, :3], index=k)
    return vocab


def vocab_from_quads(quads) -> HistVocab:
    return absorb_quads(HistVocab(), quads)


def copy_mask(vocab: HistVocab, subject: int, relation: int, num_entities: int,
              magnitude: float = 100.0, *, invert: bool = False) -> np.ndarray:
    """Dense additive mask: 0 at historical candidates, ``-magnitude``
    everywhere else, so it only suppresses.

    ``invert=True`` suppresses the candidates instead (used by the
    generation-new ablation).
    """
    if magnitude <= 0:
        raise ValueError("mask magnitude must be positive")
    objs = vocab.lookup(subject, relation)
    if invert:
        mask = np.zeros(num_entities, dtype=np.float64)
        mask[objs] = -magnitude
    else:
        mask = np.full(num_entities, -magnitude, dtype=np.float64)
        mask[objs] = 0.0
    return mask


def masks_for(vocab: HistVocab, subjects, relations, num_entities: int,
              magnitude: float = 100.0, *, invert: bool = False) -> np.ndarray:
    """Stack of copy masks for a batch of (subject, relation) pairs."""
    subjects = np.asarray(subjects, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    out = np.empty((len(subjects), num_entities), dtype=np.float64)
    for i in range(len(subjects)):
        out[i] = copy_mask(vocab, subjects[i], relations[i], num_entities,
                           magnitude, invert=invert)
    return out


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

    seen_triples: set[tuple[int, int, int]] = set(map(tuple, h[:, :3].tolist()))
    pair_objects: dict[tuple[int, int], set[int]] = {}
    for s, p, o in h[:, :3].tolist():
        pair_objects.setdefault((s, p), set()).add(o)

    repeats = sum((s, p, o) in seen_triples for s, p, o in q[:, :3].tolist())

    groups: dict[tuple[int, int], set[int]] = {}
    for s, p, o in q[:, :3].tolist():
        groups.setdefault((s, p), set()).add(o)
    hits = sum(bool(objs & pair_objects.get(pair, set())) for pair, objs in groups.items())

    return {
        "fact_repeat_rate": repeats / len(q),
        "group_repeat_rate": hits / len(groups),
    }
