"""Deterministic synthetic temporal-KG generator with a controllable
recurrence rate, used as the desk-scale testbed for the copy mechanism.

Its configuration, ``SynthConfig``, lives in :mod:`copygen.options`, which
loads no numpy, so the CLI builds it before ``--threads`` applies."""

from __future__ import annotations

import numpy as np

from .options import SynthConfig


def generate(config: SynthConfig) -> tuple[np.ndarray, float]:
    """Generate (s, p, o, t) facts and report their realized fact repeat rate.

    The first snapshot is fully fresh. Afterwards each drawn fact copies,
    with probability ``recurrence``, a uniformly chosen historical (s, p)
    pair together with one of that pair's historical objects (uniformly;
    membership is binary, mirroring the vocabulary semantics); otherwise a
    fresh uniform (s, p, o) is drawn. ``fixed_objects`` pins every pair to
    the object of its first occurrence, making recurrence deterministic per
    pair. Snapshots are deduplicated, and the (n, 4) int64 rows come sorted
    by time, then by triple. The repeat rate is the fraction of kept facts
    (after the first snapshot) whose triple already occurred.
    """
    rng = np.random.default_rng(config.seed)
    n, r = config.num_entities, config.num_relations

    pair_objects: dict[tuple[int, int], list[int]] = {}  # history before this snapshot
    pair_list: list[tuple[int, int]] = []
    pinned: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int, int]] = set()

    rows: list[tuple[int, int, int, int]] = []
    repeats = 0
    probed = 0
    for k in range(config.num_snapshots):
        drawn: set[tuple[int, int, int]] = set()
        for _ in range(config.facts_per_snapshot):
            if k > 0 and rng.random() < config.recurrence:
                pair = pair_list[rng.integers(len(pair_list))]
                objs = pair_objects[pair]
                fact = (*pair, objs[rng.integers(len(objs))])
            else:
                pair = (int(rng.integers(n)), int(rng.integers(r)))
                if config.fixed_objects:
                    obj = pinned.setdefault(pair, int(rng.integers(n)))
                else:
                    obj = int(rng.integers(n))
                fact = (*pair, obj)
            drawn.add(fact)
        facts = sorted(drawn)
        if k > 0:
            probed += len(facts)
            repeats += sum(fact in seen for fact in facts)
        for s, p, o in facts:
            rows.append((s, p, o, k))
            seen.add((s, p, o))
            bucket = pair_objects.get((s, p))
            if bucket is None:
                pair_objects[(s, p)] = [o]
                pair_list.append((s, p))
            elif o not in bucket:
                bucket.append(o)
    rate = repeats / probed if probed else 0.0
    return np.array(rows, dtype=np.int64).reshape(-1, 4), rate
