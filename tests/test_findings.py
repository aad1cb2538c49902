"""README's Findings tables, recomputed on the desk synth: the copy ceiling
and the count scorer's MRR under each ranking regime, and the trained
modes' time-aware MRR next to the count scorer's, over all test queries and
over repeat queries. The numbers are deterministic, and each must lie
within ``TOLERANCE`` of the README."""

import functools

import numpy as np
import pytest

from conftest import desk_splits
from copygen.evaluation import ablate, build_filter
from copygen.history import vocab_from_quads

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

# README "Findings": (recurrence, fixed objects) -> time-aware MRR of the
# count scorer and of the trained modes, each over all test queries and
# over repeat queries (truth in the pair's history), in MODES_COLUMNS order.
MODES_COLUMNS = [(scorer, population) for scorer in ("count", "copy-only", "full", "gen-only")
                 for population in ("all", "repeat")]
MODES_TABLE = {
    (0.5, False): (0.307, 0.604, 0.291, 0.570, 0.291, 0.571, 0.099, 0.161),
    (0.5, True): (0.911, 0.937, 0.897, 0.925, 0.889, 0.916, 0.253, 0.260),
    (0.9, False): (0.724, 0.909, 0.714, 0.896, 0.714, 0.894, 0.224, 0.272),
    (0.9, True): (0.902, 0.970, 0.904, 0.972, 0.898, 0.966, 0.382, 0.410),
}


@functools.cache
def count_ranks(setting):
    """Per test query of a setting: whether its truth is in its pair's
    history, and the count scorer's rank under each regime, the train facts
    as the history."""
    train, valid, test = desk_splits(*setting)
    history = vocab_oracle(train, frontier=int(train[:, 3].max()) + 1)
    static, timed = filter_oracle(train, valid, test)
    scores = count_scores(train, test, 100)
    in_history = np.array([o in history.get((s, p), ()) for s, p, o, _ in test.tolist()])
    ranks = {regime: np.array([rank_oracle(row, o, removed)
                               for row, (s, p, o, t) in zip(scores, test.tolist())
                               for removed in [{"raw": (), "static": static[(s, p)],
                                                "time-aware": timed[(s, p, t)]}[regime]]])
             for regime in ("raw", "static", "time-aware")}
    return in_history, ranks


@pytest.mark.parametrize("setting", README_TABLE, ids=lambda v: str(v))
def test_count_scorer_table(setting):
    """The count scorer's MRR under each regime. Under the static filter
    every other history object of the pair is a known fact and filtered
    out, so a query whose truth is in its pair's history ranks first: the
    static MRR cannot fall below the ceiling, whatever the scorer's skill."""
    in_history, ranks = count_ranks(setting)
    found = {"ceiling": float(np.mean(in_history)),
             **{regime: float(np.mean(1.0 / r)) for regime, r in ranks.items()}}
    assert (ranks["static"][in_history] == 1).all()
    for name, expected in README_TABLE[setting].items():
        assert abs(found[name] - expected) <= TOLERANCE, (name, found)


@pytest.mark.parametrize("setting", MODES_TABLE, ids=lambda v: str(v))
def test_trained_modes_table(setting, desk_fit):
    """The time-aware MRR of the trained copy-only, full (alpha 0.8) and
    gen-only modes, and of the count scorer, over all test queries and over
    the repeat queries, those whose truth is in the pair's train history."""
    params, train, valid, test, _ = desk_fit(*setting)
    in_history, ranks = count_ranks(setting)
    vocab = vocab_from_quads(train).freeze()
    filter_index = build_filter(train, valid, test)
    found = {}
    for population, queries in (("all", test), ("repeat", test[in_history])):
        for mode, report in ablate(params, queries, vocab, num_relations=5,
                                   filter_index=filter_index, regime="time-aware"):
            found[mode, population] = report.mrr
    found["count", "all"] = float(np.mean(1.0 / ranks["time-aware"]))
    found["count", "repeat"] = float(np.mean(1.0 / ranks["time-aware"][in_history]))
    for name, expected in zip(MODES_COLUMNS, MODES_TABLE[setting]):
        assert abs(found[name] - expected) <= TOLERANCE, (name, found)
    # README's reading: the count scorer ranks at least as well as full in
    # every setting, and as copy-only in all but (0.9, fixed objects)
    for population in ("all", "repeat"):
        assert found["count", population] >= found["full", population]
        assert ((found["count", population] >= found["copy-only", population])
                == (setting != (0.9, True))), population
