"""Set-up, measured rounds and output checks of the three workloads.

Every call into the program goes through a module attribute
(``data.load_dataset``, ``evaluation.evaluate``, ...), so the span wrappers
that ``spans.py`` installs on those attributes see it.

A round is one unit of repeated work: one ``training.fit``, one
``evaluation.evaluate`` over the test split, or one ``ablate`` plus
``sweep_alpha`` over the remix slice. A failed check counts the operations
it covers (a round, or one re-ranked query) as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time
from typing import Callable

import numpy as np
from copygen import data, evaluation, history, model, training

DIM = 200
ALPHA = 0.8
BATCH = 1024
TRAIN_EPOCHS = 2
# Relative tolerance of the final training loss against the recorded
# reference. At seed 0 an all-float64 fit ends 1e-8 (relative) from the
# float32 one, so a precision change stays inside it; the loss falls ~15%
# between the two epochs, so a step that learns differently does not.
TRAIN_LOSS_RTOL = 1e-3
REMIX_RUNS = len(evaluation.ABLATION_ORDER) + 11  # 4 modes + 11 alphas


@dataclasses.dataclass
class State:
    """What set-up hands to the measured rounds."""

    meta: data.DatasetMeta
    train: np.ndarray  # reciprocal-augmented splits
    valid: np.ndarray
    test: np.ndarray
    r_aug: int
    vocab: history.HistVocab | None = None
    filter_index: evaluation.FilterIndex | None = None
    params: model.ModelParams | None = None


@dataclasses.dataclass
class Plan:
    """One workload's round, its size and its output check."""

    round: Callable[[], object]
    ops_per_round: int  # train rows, eval queries, or remix query scorings
    queries_per_round: int  # distinct queries a round answers (0 for train)
    # (round results, reference) -> (failed ops, check name -> verdict)
    check: Callable[[list, dict], tuple[int, dict[str, str]]]


def setup(data_dir, seed: int, for_eval: bool) -> State:
    """Load and augment as the CLI handlers do; eval and remix also build the
    frozen vocabulary, the static filter and the Xavier parameters."""
    ds = data.load_dataset(data_dir)
    train, r_aug = data.augment_reciprocal(ds.train, ds.meta)
    valid, _ = data.augment_reciprocal(ds.valid, ds.meta)
    test, _ = data.augment_reciprocal(ds.test, ds.meta)
    state = State(ds.meta, train, valid, test, r_aug)
    if for_eval:
        state.vocab = history.vocab_from_quads(train).freeze()
        state.filter_index = evaluation.build_filter(train, valid, test)
        config = training.TrainConfig(alpha=ALPHA, dim=DIM, seed=seed)
        state.params = training.init_params(ds.meta.num_entities, r_aug,
                                            ds.meta.num_snapshots, config,
                                            np.random.default_rng(seed))
    return state


def measure_with_setup(data_dir, seed: int, shape, workload: str, seconds: float):
    """Rounds of ``workload``, each on fresh state, until the next would
    overrun ``seconds``; at least one.

    Before each round set-up runs the workload's set-ups-per-round times,
    each timed; the round uses the last state. A first round and its
    set-ups, untimed, warm the process up. Set-up and round timings thus
    sample the same stretch of wall time, which evens out slow drifts in
    machine speed, and both count toward ``seconds``. The previous state is
    dropped and garbage collected before each set-up, so each builds into
    the same heap and the peak RSS holds one state. Returns the last plan,
    the round results (warm-up included), and the timed round and set-up
    wall times.
    """
    for_eval, plan_fn, setups_per_round = WORKLOADS[workload]
    results, times, setup_times = [], [], []
    while True:
        plan, state, spent = None, None, []
        for _ in range(setups_per_round):
            state = None
            gc.collect()
            started = time.perf_counter()
            state = setup(data_dir, seed, for_eval)
            spent.append(time.perf_counter() - started)
        plan = plan_fn(state, shape, seed)
        state = None
        started = time.perf_counter()
        results.append(plan.round())
        if len(results) > 1:
            times.append(time.perf_counter() - started)
            setup_times += spent
            used = sum(times) + sum(setup_times)
            if used + used / len(times) > seconds:
                return plan, results, times, setup_times


# --- icews14-train ---------------------------------------------------------


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(alpha=ALPHA, dim=DIM, batch_size=BATCH,
                                epochs=TRAIN_EPOCHS, seed=seed)


def plan_train(state: State, shape, seed: int) -> Plan:
    """``training.fit`` for TRAIN_EPOCHS epochs over the first
    ``shape.train_window`` training snapshots."""
    window = state.train[state.train[:, 3] < shape.train_window]

    def fit_round():
        try:
            _, log = training.fit(window, state.meta.num_entities, state.r_aug,
                                  state.meta.num_snapshots, train_config(seed))
        except training.GradientError as exc:  # a diverged step
            return exc
        return log.epochs

    def check(results, reference) -> tuple[int, dict[str, str]]:
        """Every step finite, the loss falls, fits agree, and the final loss
        is within TRAIN_LOSS_RTOL of the recorded reference for this seed."""
        expected = reference["train_final_loss"].get(shape.name, {}).get(str(seed))
        checks, failed_rounds = {}, 0
        first = results[0]
        for epochs in results:
            if isinstance(epochs, Exception):
                checks["train.steps_finite"] = f"FAIL: {epochs}"
                failed_rounds += 1
                continue
            losses = [loss for e in epochs for loss in e.snapshot_losses]
            final = epochs[-1].loss
            problems = {}
            if not all(math.isfinite(x) for x in losses):
                problems["train.steps_finite"] = "non-finite step loss"
            if not final < epochs[0].loss:
                problems["train.loss_falls"] = f"{epochs[0].loss} -> {final}"
            if isinstance(first, Exception) or losses != [
                    loss for e in first for loss in e.snapshot_losses]:
                problems["train.fits_agree"] = "fit differs from the first fit"
            if expected is not None and not math.isclose(final, expected,
                                                         rel_tol=TRAIN_LOSS_RTOL):
                problems["train.reference_loss"] = f"{final!r} vs {expected!r}"
            checks.update((name, f"FAIL: {why}") for name, why in problems.items())
            failed_rounds += bool(problems)
        for name in ("train.steps_finite", "train.loss_falls", "train.fits_agree"):
            checks.setdefault(name, "ok")
        checks.setdefault("train.reference_loss", "ok" if expected is not None
                          else "skipped: no reference loss for this seed")
        return failed_rounds * TRAIN_EPOCHS * len(window), checks

    return Plan(fit_round, TRAIN_EPOCHS * len(window), 0, check)


# --- icews14-eval ----------------------------------------------------------


def eval_round(state: State, quads: np.ndarray) -> evaluation.EvalResult:
    return evaluation.evaluate(state.params, quads, state.vocab,
                               num_relations=state.meta.num_relations,
                               mode="full", filter_index=state.filter_index,
                               regime="static")


def plan_eval(state: State, shape, seed: int) -> Plan:
    """``evaluation.evaluate``, full mode, static filter, whole test split."""

    def check(results, reference) -> tuple[int, dict[str, str]]:
        bad_rounds = sum(result != results[0] for result in results)
        failed, oracle = check_oracle(state, shape, seed)
        return bad_rounds * len(state.test) + failed, {
            "eval.rounds_agree": "ok" if not bad_rounds else
                                 f"FAIL: {bad_rounds} rounds differ from the first",
            "eval.oracle_rank": oracle,
        }

    return Plan(lambda: eval_round(state, state.test), len(state.test),
                len(state.test), check)


def oracle_rank(scores: np.ndarray, truth: int, known: np.ndarray) -> int:
    """Brute-force filtered rank: drop known objects other than the truth,
    sort by descending score then ascending id, find the truth."""
    keep = np.setdiff1d(np.arange(len(scores)), np.setdiff1d(known, [truth]))
    order = keep[np.lexsort((keep, -scores[keep]))]
    return int(np.flatnonzero(order == truth)[0]) + 1


def check_oracle(state: State, shape, seed: int) -> tuple[int, str]:
    """Rank a fixed sample of test queries with one ``evaluate`` call, so
    they share a multi-row chunk, and compare its reports exactly with
    reports built from brute-force oracle ranks of the same score rows. A
    non-finite score row fails its query; differing reports fail them all."""
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(len(state.test), replace=False,
                               size=min(shape.oracle_queries, len(state.test))))
    quads = state.test[picks]
    scores = model.score_batch(state.params, quads[:, 0], quads[:, 1], quads[:, 3],
                               state.vocab)
    known_all = np.concatenate([state.train, state.valid, state.test])
    ranks = []
    for (s, p, o, _), row in zip(quads.tolist(), scores):
        known = known_all[(known_all[:, 0] == s) & (known_all[:, 1] == p), 2]
        ranks.append(oracle_rank(row, o, known))
    ranks = np.array(ranks)
    is_object = quads[:, 1] < state.meta.num_relations
    expected = [evaluation.report_from_ranks(r, direction, "full", "static")
                for r, direction in ((ranks, "both"), (ranks[is_object], "object"),
                                     (ranks[~is_object], "subject"))]
    result = eval_round(state, quads)
    got = [result.overall, result.objects, result.subjects]
    same = all(a == b or a.count == b.count == 0 for a, b in zip(got, expected))
    non_finite = int(np.count_nonzero(~np.isfinite(scores).all(axis=1)))
    if not same:
        return len(picks), (f"FAIL: reports of {len(picks)} queries differ from "
                            f"the oracle's ({non_finite} non-finite score rows)")
    if non_finite:
        return non_finite, f"FAIL: {non_finite}/{len(picks)} non-finite score rows"
    return 0, f"ok ({len(picks)} queries)"


# --- icews14-remix ---------------------------------------------------------


def plan_remix(state: State, shape, seed: int) -> Plan:
    """``evaluation.ablate`` then ``evaluation.sweep_alpha`` on a fixed slice
    of ``shape.remix_queries`` test queries."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(state.test), replace=False,
                       size=min(shape.remix_queries, len(state.test)))
    quads = state.test[np.sort(picks)]
    kwargs = dict(num_relations=state.meta.num_relations,
                  filter_index=state.filter_index, regime="static")

    def remix_round():
        modes = dict(evaluation.ablate(state.params, quads, state.vocab, **kwargs))
        alphas = dict(evaluation.sweep_alpha(state.params, quads, state.vocab, **kwargs))
        return modes, alphas

    identities = {"remix.full@1==copy-only": (1.0, "copy-only"),
                  "remix.full@0==gen-only": (0.0, "gen-only"),
                  f"remix.full@{ALPHA}==full": (ALPHA, "full")}

    def check(results, reference) -> tuple[int, dict[str, str]]:
        """Criterion 7 on every round's reports and once on probability
        rows; rounds agree."""
        checks = dict.fromkeys([*identities, "remix.rounds_agree"], "ok")
        failed = 0
        for modes, alphas in results:
            broken = [name for name, (alpha, mode) in identities.items()
                      if alphas[alpha].metrics() != modes[mode].metrics()]
            if (modes, alphas) != results[0]:
                broken.append("remix.rounds_agree")
            checks.update(dict.fromkeys(broken, "FAIL: reports differ"))
            failed += REMIX_RUNS * len(quads) if broken else 0
        rows = quads[:32]
        args = (state.params, rows[:, 0], rows[:, 1], rows[:, 3], state.vocab)
        for alpha, mode in ((1.0, "copy-only"), (0.0, "gen-only")):
            same = np.array_equal(model.score_batch(*args, mode=mode),
                                  model.score_batch(*args, alpha=alpha, mode="full"))
            checks[f"remix.rows_full@{alpha:g}=={mode}"] = "ok" if same else "FAIL"
            failed += 0 if same else len(rows)
        return failed, checks

    return Plan(remix_round, REMIX_RUNS * len(quads), len(quads), check)


# name -> (set-up builds the eval state, plan, set-ups timed per round).
# Train's set-up takes ~0.35 s against ~1.4 s for eval and remix, so it is
# sampled three times per round.
WORKLOADS = {
    "icews14-train": (False, plan_train, 3),
    "icews14-eval": (True, plan_eval, 1),
    "icews14-remix": (True, plan_remix, 1),
}
