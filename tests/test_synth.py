import re

import numpy as np
import pytest

from copygen.data import DatasetMeta, parse_quadruple_file, serialize_quadruples
from copygen.history import recurrence_stats
from copygen.options import CapacityError, SynthConfig
from copygen.synth import generate


def split_quads(quads, at):
    return quads[quads[:, 3] < at], quads[quads[:, 3] >= at]


class TestGenerate:
    def test_full_recurrence_two_snapshots(self):
        config = SynthConfig(num_entities=20, num_relations=2, num_snapshots=2,
                             facts_per_snapshot=30, recurrence=1.0, seed=0)
        quads, rate = generate(config)
        first = set(map(tuple, quads[quads[:, 3] == 0, :3].tolist()))
        assert all(tuple(row) in first for row in quads[quads[:, 3] == 1, :3].tolist())
        assert rate == 1.0

    @pytest.mark.parametrize("recurrence", [0.0, 0.9])
    def test_rows_distinct_and_sorted_by_time_then_triple(self, recurrence):
        """Repeated draws within a snapshot are kept once, every snapshot
        holds facts, and the rows come sorted by (t, s, p, o)."""
        config = SynthConfig(num_entities=6, num_relations=2, num_snapshots=7,
                             facts_per_snapshot=30, recurrence=recurrence, seed=8)
        quads, _ = generate(config)
        assert quads.dtype == np.int64 and quads.shape[1] == 4
        assert len(quads) < config.num_snapshots * config.facts_per_snapshot
        by_time = np.unique(quads[:, [3, 0, 1, 2]], axis=0)
        assert np.array_equal(quads, by_time[:, [1, 2, 3, 0]])
        assert np.array_equal(np.unique(quads[:, 3]), np.arange(config.num_snapshots))

    def test_deterministic_bytes(self):
        config = SynthConfig(num_entities=15, num_relations=3, num_snapshots=5,
                             facts_per_snapshot=25, recurrence=0.6, seed=9)
        a = serialize_quadruples(generate(config)[0])
        b = serialize_quadruples(generate(config)[0])
        assert a == b

    def test_zero_recurrence_near_collision_baseline(self):
        config = SynthConfig(num_entities=50, num_relations=5, num_snapshots=6,
                             facts_per_snapshot=40, recurrence=0.0, seed=2)
        _, rate = generate(config)
        # uniform fresh draws only collide by chance: ~facts/(N*N*R)
        assert rate < 0.05

    def test_repeat_rate_monotone_in_recurrence(self):
        rates = []
        for r in (0.0, 0.5, 0.9, 1.0):
            config = SynthConfig(num_entities=30, num_relations=3, num_snapshots=10,
                                 facts_per_snapshot=60, recurrence=r, seed=5)
            quads = generate(config)[0]
            history, probe = split_quads(quads, at=8)
            rates.append(recurrence_stats(history, probe)["fact_repeat_rate"])
        assert all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))
        assert rates[-1] == 1.0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            SynthConfig(num_entities=3, num_relations=2, num_snapshots=2,
                        facts_per_snapshot=19)

    def test_ids_respect_bounds_and_round_trip(self):
        config = SynthConfig(num_entities=12, num_relations=4, num_snapshots=6,
                             facts_per_snapshot=30, recurrence=0.5, seed=1)
        quads = generate(config)[0]
        assert quads[:, [0, 2]].max() < 12
        assert quads[:, 1].max() < 4
        assert quads[:, 3].max() < 6
        meta = DatasetMeta(12, 4)
        reparsed = parse_quadruple_file(serialize_quadruples(quads).splitlines(), meta)
        assert np.array_equal(reparsed, quads)

    def test_fixed_objects_pins_pairs(self):
        config = SynthConfig(num_entities=25, num_relations=3, num_snapshots=8,
                             facts_per_snapshot=50, recurrence=0.7, seed=4,
                             fixed_objects=True)
        quads = generate(config)[0]
        seen = {}
        for s, p, o, _ in quads.tolist():
            assert seen.setdefault((s, p), o) == o

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(recurrence=1.5)
        with pytest.raises(ValueError):
            SynthConfig(num_entities=0)

    @pytest.mark.parametrize("kwargs", [
        {"num_entities": 2.5}, {"facts_per_snapshot": 3.0}, {"num_entities": True},
        {"num_relations": "5"}, {"num_snapshots": None},
    ])
    def test_counts_must_be_integers(self, kwargs):
        """A float count used to fail later in ``generate`` (a ``CapacityError``
        about 31.25 combinations, or a bare ``TypeError``), and True ran as 1."""
        ((name, value),) = kwargs.items()
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer, got 2.5"), (True, "seed must be an integer, got True"),
        (-1, "seed must be at least 0, got -1")])
    def test_seed_checked_when_built(self, seed, message):
        """-1 used to fail inside ``generate`` with numpy's message."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthConfig(seed=seed)
