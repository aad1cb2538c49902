"""README's Findings table, recomputed: on the desk synth, the copy ceiling
and the count scorer's MRR under each ranking regime. No training is
needed; the numbers are deterministic, and each must lie within
``TOLERANCE`` of the README."""

import numpy as np
import pytest

from copygen.data import DatasetMeta, augment_reciprocal, chronological_split
from copygen.options import SynthConfig
from copygen.synth import generate

from oracles import count_scores, filter_oracle, rank_oracle, vocab_oracle

# Fixed before the numbers were computed.
TOLERANCE = 0.005

# README "Findings": (recurrence, fixed objects) -> copy ceiling and the
# count scorer's MRR under the static, time-aware and raw regimes.
README_TABLE = {
    (0.5, False): {"ceiling": 0.478, "static": 0.505, "time-aware": 0.307, "raw": 0.300},
    (0.5, True): {"ceiling": 0.969, "static": 0.972, "time-aware": 0.911, "raw": 0.880},
    (0.9, False): {"ceiling": 0.787, "static": 0.797, "time-aware": 0.724, "raw": 0.698},
    (0.9, True): {"ceiling": 0.927, "static": 0.929, "time-aware": 0.902, "raw": 0.877},
}


def desk_splits(recurrence, fixed_objects):
    """The desk synth's train, valid and test facts with their reciprocal
    rows: 100 entities, 5 relations, 20 snapshots of 200 draws, seed 13,
    split 80/10/10."""
    meta = DatasetMeta(num_entities=100, num_relations=5)
    quads, _ = generate(SynthConfig(num_entities=100, num_relations=5, num_snapshots=20,
                                    facts_per_snapshot=200, recurrence=recurrence,
                                    seed=13, fixed_objects=fixed_objects))
    parts, _ = chronological_split(quads)
    return [augment_reciprocal(parts[name], meta)[0] for name in ("train", "valid", "test")]


@pytest.mark.parametrize("setting", README_TABLE, ids=lambda v: str(v))
def test_count_scorer_table(setting):
    """The count scorer's MRR under each regime, the train facts as the
    history. Under the static filter every other history object of the
    pair is a known fact and filtered out, so a query whose truth is in its
    pair's history ranks first: the static MRR cannot fall below the
    ceiling, whatever the scorer's skill."""
    train, valid, test = desk_splits(*setting)
    history = vocab_oracle(train, frontier=int(train[:, 3].max()) + 1)
    static, timed = filter_oracle(train, valid, test)
    scores = count_scores(train, test, 100)
    in_history = [o in history.get((s, p), ()) for s, p, o, _ in test.tolist()]
    ranks = {regime: [rank_oracle(row, o, removed)
                      for row, (s, p, o, t) in zip(scores, test.tolist())
                      for removed in [{"raw": (), "static": static[(s, p)],
                                       "time-aware": timed[(s, p, t)]}[regime]]]
             for regime in ("raw", "static", "time-aware")}
    found = {"ceiling": float(np.mean(in_history)),
             **{regime: float(np.mean(1.0 / np.array(r))) for regime, r in ranks.items()}}
    assert all(rank == 1 for rank, hit in zip(ranks["static"], in_history) if hit)
    for name, expected in README_TABLE[setting].items():
        assert abs(found[name] - expected) <= TOLERANCE, (name, found)
