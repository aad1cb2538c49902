"""Shared test plumbing: the environment of a fresh interpreter that
imports copygen from ``src``, the desk synth and the models trained on it,
and the acceptance suite's verdicts, one line per criterion, printed after
the run regardless of capture settings."""

import functools
import os
from pathlib import Path

import pytest

from copygen.data import DatasetMeta, augment_reciprocal, chronological_split
from copygen.options import SynthConfig, TrainConfig
from copygen.synth import generate
from copygen.training import fit

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The environment with ``src`` on the path, for a fresh interpreter."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")]))}


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


@pytest.fixture(scope="session")
def desk_fit():
    """``(recurrence, fixed_objects) -> (params, train, valid, test, log)``:
    the desk model fitted on a setting's train facts (alpha 0.8, d=32, lr
    0.001, batch 1024, 30 epochs, seed 0), once per session, so the
    acceptance criteria and the Findings tables share a setting's fit."""

    @functools.cache
    def fit_setting(recurrence, fixed_objects):
        train, valid, test = desk_splits(recurrence, fixed_objects)
        config = TrainConfig(alpha=0.8, dim=32, learning_rate=0.001, batch_size=1024,
                             epochs=30, seed=0)
        params, log = fit(train, 100, 10, 20, config)
        return params, train, valid, test, log

    return fit_setting


ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(label: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if passed else "FAIL"
        suffix = f" — {detail}" if detail else ""
        terminalreporter.write_line(f"{label}: {verdict}{suffix}")
