import argparse
import contextlib
import dataclasses
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copygen import cli
from copygen.data import augment_reciprocal, load_dataset, write_quadruple_file
from copygen.evaluation import ablate, build_filter, evaluate, rank_of_truth, sweep_alpha
from copygen.history import vocab_from_quads
from copygen.model import ModelParams, load_checkpoint, save_checkpoint, score_batch
from copygen.options import REGIMES, SynthConfig, TrainConfig

from oracles import checkpoint_config_text, lookup


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = cli.main(["synth", "--out", str(out), "--entities", "25",
                     "--relations", "3", "--snapshots", "8",
                     "--facts-per-snapshot", "40", "--recurrence", "0.9",
                     "--fixed-objects", "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.cyg"
    code = cli.main(["train", "--data", str(synth_dir), "--out", str(path),
                     "--alpha", "0.8", "--dim", "8", "--epochs", "3",
                     "--batch-size", "128", "--seed", "0"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def plain_checkpoint(synth_dir, tmp_path_factory):
    """A checkpoint trained without inverse facts: R relations, not 2R."""
    path = tmp_path_factory.mktemp("plain") / "m.cyg"
    code = cli.main(["train", "--data", str(synth_dir), "--out", str(path),
                     "--alpha", "0.7", "--dim", "8", "--epochs", "3",
                     "--batch-size", "128", "--seed", "1", "--reciprocal", "false"])
    assert code == 0
    return path


def declared(rule):
    """``(command, option)`` of every option whose ``Opt`` in ``cli.COMMANDS``
    satisfies ``rule``, so that an option declared later is tested too."""
    return [(command, opt.option) for command, opts in cli.COMMANDS.items()
            for opt in opts if rule(opt)]


def command_args(command, data, checkpoint):
    """The arguments that run ``command`` on ``data``: its options among
    ``--data``, ``--checkpoint``, a ``predict`` query and an output
    directory (``prepare``'s ``--out``; output files are left to the caller)."""
    values = {"data": data, "checkpoint": checkpoint, "subject": 0, "relation": 0, "time": 7,
              "out": "prepared"}
    return [str(arg) for opt in cli.COMMANDS[command] if opt.key in values and not opt.writes
            for arg in (opt.option, values[opt.key])]


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def predict_rows(capsys, checkpoint, data, s, p, t, *flags):
    """``copygen predict`` lines as (position, entity, probability, share),
    the last two as printed."""
    assert cli.main(["predict", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--subject", str(s), "--relation", str(p), "--time", str(t),
                     *flags]) == 0
    rows = [line.split(",") for line in lines_of(capsys)]
    return [(int(position), int(entity), prob, share) for position, entity, prob, share in rows]


def train_vocab(data, reciprocal=True):
    """The history vocabulary ``predict`` builds: the training facts, with
    their inverses for a checkpoint trained on them."""
    ds = load_dataset(data)
    return vocab_from_quads(augment_reciprocal(ds.train, ds.meta)[0] if reciprocal else ds.train)


def eval_lines(alpha, result):
    """The lines ``copygen eval`` prints for ``result`` under the default
    split, mode and filter."""
    lines = ["split=test", "mode=full", "filter=static", f"alpha={alpha:g}"]
    for prefix, report in (("", result.overall), ("object_", result.objects),
                           ("subject_", result.subjects)):
        lines += cli._report_lines(prefix, report)
    return lines


class TestSynthAndStats:
    def test_synth_writes_dataset(self, synth_dir):
        for name in ("train.txt", "valid.txt", "test.txt", "stat.txt", "synth.cfg"):
            assert (synth_dir / name).exists(), name
        assert (synth_dir / "stat.txt").read_text().split() == ["25", "3"]
        assert "realized_fact_repeat_rate" in (synth_dir / "synth.cfg").read_text()

    def test_stats_key_value_output(self, synth_dir, capsys, tmp_path):
        csv = tmp_path / "stats.csv"
        assert cli.main(["stats", "--data", str(synth_dir), "--csv", str(csv)]) == 0
        out = {line.split("=")[0]: float(line.split("=")[1])
               for line in lines_of(capsys)}
        assert set(out) == {"fact_repeat_rate", "group_repeat_rate",
                            "subject_group_repeat_rate"}
        assert out["fact_repeat_rate"] > 0.5  # recurrence 0.9 dataset
        body = csv.read_text().splitlines()
        assert "metric,value" in body
        assert any(row.startswith("fact_repeat_rate,") for row in body)

    def test_stats_empty_probe_is_error(self, tmp_path, capsys):
        data = tmp_path / "twoway"
        assert cli.main(["synth", "--out", str(data), "--entities", "15", "--relations", "2",
                         "--snapshots", "6", "--facts-per-snapshot", "20", "--seed", "1",
                         "--split", "80/20"]) == 0
        capsys.readouterr()
        assert cli.main(["stats", "--data", str(data), "--probe", "valid"]) == 1
        assert capsys.readouterr().err == "error: probe split 'valid' is empty\n"


    def test_synth_leaves_no_stale_split(self, tmp_path, capsys):
        """A two-way synth over a three-way one deletes the old validation
        split, which would otherwise load as the new dataset's."""
        data = tmp_path / "synth"
        for seed, split in (("1", "80/10/10"), ("2", "80/20")):
            assert cli.main(["synth", "--out", str(data), "--entities", "15",
                             "--relations", "2", "--snapshots", "10",
                             "--facts-per-snapshot", "20", "--seed", seed,
                             "--split", split]) == 0
        assert sorted(path.name for path in data.glob("*.txt")) == [
            "stat.txt", "test.txt", "train.txt"]
        assert len(load_dataset(data).valid) == 0


class TestTrainAndEval:
    def test_checkpoint_embeds_config(self, checkpoint):
        text = checkpoint_config_text(checkpoint)
        assert "alpha = 0.8" in text
        assert "version = " in text

    def test_train_is_deterministic(self, synth_dir, tmp_path):
        path = tmp_path / "same.cyg"
        blobs = []
        for _ in range(2):
            assert cli.main(["train", "--data", str(synth_dir), "--out", str(path),
                             "--alpha", "0.5", "--dim", "4", "--epochs", "2",
                             "--seed", "11"]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_train_log_csv(self, synth_dir, tmp_path, capsys):
        log = tmp_path / "log.csv"
        assert cli.main(["train", "--data", str(synth_dir), "--out",
                         str(tmp_path / "t.cyg"), "--dim", "4", "--epochs", "2",
                         "--log-csv", str(log)]) == 0
        capsys.readouterr()
        body = [l for l in log.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "epoch,loss,seconds"
        assert len(body) == 3

    def test_eval_reports_metrics(self, synth_dir, checkpoint, capsys):
        assert cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir)]) == 0
        out = dict(line.split("=", 1) for line in lines_of(capsys))
        assert out["split"] == "test" and out["filter"] == "static"
        assert 0.0 <= float(out["mrr"]) <= 100.0
        assert float(out["hits1"]) <= float(out["hits3"]) <= float(out["hits10"])
        assert int(out["object_count"]) + int(out["subject_count"]) == int(out["count"])

    def test_eval_per_snapshot_csv(self, synth_dir, checkpoint, tmp_path, capsys):
        csv = tmp_path / "snap.csv"
        assert cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir),
                         "--per-snapshot-csv", str(csv)]) == 0
        capsys.readouterr()
        body = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "snapshot,count,mrr,hits1,hits3,hits10"
        assert len(body) >= 2

    def test_eval_alpha_override_and_raw_filter(self, synth_dir, checkpoint, capsys):
        assert cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir), "--filter", "raw",
                         "--alpha", "0.3"]) == 0
        out = dict(line.split("=", 1) for line in lines_of(capsys))
        assert out["alpha"] == "0.3" and out["filter"] == "raw"

    def test_eval_filter_from_train(self, synth_dir, checkpoint, capsys):
        """``--filter-from train`` filters with the training facts only."""
        ds = load_dataset(synth_dir)
        train, _ = augment_reciprocal(ds.train, ds.meta)
        test, _ = augment_reciprocal(ds.test, ds.meta)
        params = load_checkpoint(checkpoint)
        result = evaluate(params, test, train_vocab(synth_dir),
                          num_relations=ds.meta.num_relations,
                          filter_index=build_filter(train))
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                         "--filter-from", "train"]) == 0
        assert lines_of(capsys) == eval_lines(params.alpha, result)


class TestAblateSweepPredict:
    def test_ablate_csv_shape(self, synth_dir, checkpoint, capsys):
        assert cli.main(["ablate", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir)]) == 0
        rows = [l for l in lines_of(capsys) if not l.startswith("#")]
        assert rows[0] == "mode,mrr,hits1,hits3,hits10"
        assert [r.split(",")[0] for r in rows[1:]] == [
            "copy-only", "gen-only", "gen-new", "full"]
        assert len(rows) == 5

    @pytest.mark.parametrize("case", ["with-checkpoint", "without-checkpoint",
                                      "missing-checkpoint-file", "reciprocal-false"])
    def test_sweep_alpha_retrain_rows_equal_train_then_eval(self, synth_dir, checkpoint,
                                                           case, tmp_path, capsys):
        """Each ``--retrain`` row scores the model that ``train --alpha a``
        writes with the same training options (``--reciprocal`` among them),
        as ``eval`` reports it. A ``--checkpoint``, when given, is not read:
        this one has dimension 8 and 2R relations, and the file may not exist.
        So the CSV header does not echo it either."""
        flags = ["--dim", "4", "--epochs", "2", "--batch-size", "64", "--seed", "5"]
        if case == "reciprocal-false":
            flags += ["--reciprocal", "false"]
        given = {"with-checkpoint": ["--checkpoint", str(checkpoint)],
                 "missing-checkpoint-file": ["--checkpoint", str(tmp_path / "none.cyg")]
                 }.get(case, [])
        assert cli.main(["sweep-alpha", *given, "--data", str(synth_dir), "--retrain",
                         *flags]) == 0
        printed = lines_of(capsys)
        assert not any(line.startswith("# checkpoint=") for line in printed)
        rows = dict(line.split(",", 1) for line in printed if not line.startswith("#"))
        for alpha in ("0.0", "0.5", "1.0"):
            path = tmp_path / f"alpha{alpha}.cyg"
            assert cli.main(["train", "--data", str(synth_dir), "--out", str(path),
                             "--alpha", alpha, *flags]) == 0
            capsys.readouterr()
            assert cli.main(["eval", "--checkpoint", str(path), "--data", str(synth_dir)]) == 0
            out = dict(line.split("=", 1) for line in lines_of(capsys))
            assert float(out["alpha"]) == float(alpha)  # read from the checkpoint
            assert rows[alpha] == ",".join(out[k] for k in ("mrr", "hits1", "hits3", "hits10"))

    def test_sweep_alpha_csv(self, synth_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep-alpha", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "alpha,mrr,hits1,hits3,hits10"
        assert len(body) == 12
        assert body[1].startswith("0.0,") and body[-1].startswith("1.0,")

    def test_predict_line_format(self, synth_dir, checkpoint, capsys):
        assert cli.main(["predict", "--checkpoint", str(checkpoint),
                         "--data", str(synth_dir), "--subject", "3",
                         "--relation", "1", "--time", "7", "--topk", "5"]) == 0
        rows = lines_of(capsys)
        assert len(rows) == 5
        pattern = re.compile(r"^\d+,\d+,[0-9.eE+-]+,[0-9.eE+-]+$")
        for rank, row in enumerate(rows, start=1):
            assert pattern.match(row), row
            fields = row.split(",")
            assert int(fields[0]) == rank
            assert 0.0 <= float(fields[3]) <= 1.0 + 1e-9

    @pytest.mark.parametrize("mode", ["full", "copy-only", "gen-only", "gen-new"])
    def test_predict_matches_score_rows(self, synth_dir, checkpoint, mode, capsys):
        s, p, t, alpha = 3, 1, 7, 0.6
        rows = predict_rows(capsys, checkpoint, synth_dir, s, p, t, "--mode", mode,
                            "--alpha", str(alpha), "--topk", "25")
        params = load_checkpoint(checkpoint)
        vocab = train_vocab(synth_dir)
        probs = score_batch(params, [s], [p], [t], vocab, alpha=alpha, mode=mode)[0]
        pc = score_batch(params, [s], [p], [t], vocab, mode="copy-only")[0]
        assert [position for position, *_ in rows] == list(range(1, 26))
        for position, entity, prob, share in rows:
            assert prob == f"{probs[entity]:.6g}"
            expected = {"copy-only": 1.0, "gen-only": 0.0}.get(
                mode, alpha * pc[entity] / probs[entity])
            assert share == f"{expected:.6g}"
            assert position == rank_of_truth(probs, entity, regime="raw")

    @pytest.mark.parametrize("mode", ["full", "gen-only"])
    def test_predict_ties_print_ascending_ids(self, synth_dir, tmp_path, mode, capsys):
        ds = load_dataset(synth_dir)
        n, r_aug, d = ds.meta.num_entities, 2 * ds.meta.num_relations, 2
        path = tmp_path / "zero.cyg"
        save_checkpoint(ModelParams(
            entity_emb=np.zeros((n, d)), relation_emb=np.zeros((r_aug, d)),
            time_unit=np.zeros(d), w_copy=np.zeros((n, 3 * d)), b_copy=np.zeros(n),
            w_gen=np.zeros((n, 3 * d)), b_gen=np.zeros(n),
            num_snapshots=ds.meta.num_snapshots), path)
        vocab = train_vocab(synth_dir)
        # the pair with the most historical objects, so several of them tie
        s, p = max(((s, p) for s in range(n) for p in range(r_aug)),
                   key=lambda pair: len(lookup(vocab, *pair)))
        history = lookup(vocab, s, p).tolist()
        assert len(history) >= 2
        rows = predict_rows(capsys, path, synth_dir, s, p, 7, "--mode", mode,
                            "--topk", str(n))
        entities = [entity for _, entity, *_ in rows]
        if mode == "gen-only":  # every row ties
            assert entities == list(range(n))
        else:  # the history ties above the rest, each block in ascending ids
            assert entities == history + sorted(set(range(n)) - set(history))
        probs = score_batch(load_checkpoint(path), [s], [p], [7], vocab, mode=mode)[0]
        for position, entity, _, _ in rows:
            assert position == rank_of_truth(probs, entity, regime="raw")

    @pytest.mark.parametrize("mode", ["full", "copy-only", "gen-only", "gen-new"])
    def test_predict_share_is_zero_where_probability_is(self, synth_dir, tmp_path, mode,
                                                         capsys):
        """At mask magnitude 1000 a masked probability underflows to 0, and
        a generation bias of -1000 does the same to the odd entities; where
        the printed probability is 0 the copy share is 0 too, in every mode
        (``copy-only`` used to print 1 there)."""
        ds = load_dataset(synth_dir)
        n, r_aug, d = ds.meta.num_entities, 2 * ds.meta.num_relations, 2
        path = tmp_path / "underflow.cyg"
        save_checkpoint(ModelParams(
            entity_emb=np.zeros((n, d)), relation_emb=np.zeros((r_aug, d)),
            time_unit=np.zeros(d), w_copy=np.zeros((n, 3 * d)), b_copy=np.zeros(n),
            w_gen=np.zeros((n, 3 * d)), b_gen=-1000.0 * (np.arange(n) % 2),
            num_snapshots=ds.meta.num_snapshots, mask_magnitude=1000.0), path)
        vocab = train_vocab(synth_dir)
        s, p = max(((s, p) for s in range(n) for p in range(r_aug)),
                   key=lambda pair: len(lookup(vocab, *pair)))
        rows = predict_rows(capsys, path, synth_dir, s, p, 7, "--mode", mode,
                            "--topk", str(n))
        assert {share for _, _, prob, share in rows if prob == "0"} == {"0"}
        assert all(0.0 <= float(share) <= 1.0 for *_, share in rows)

    def test_predict_rejects_bad_ids(self, synth_dir, checkpoint, capsys):
        for s, p, t in ((999, 0, 0), (0, 6, 0), (0, 0, -1)):
            code = cli.main(["predict", "--checkpoint", str(checkpoint),
                             "--data", str(synth_dir), "--subject", str(s),
                             "--relation", str(p), "--time", str(t)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: query row 0 ({s}, {p}, {t}) is out of range: ")

    @pytest.mark.parametrize("absorb_valid", [False, True])
    def test_predict_copies_only_from_before_its_time(self, synth_dir, checkpoint,
                                                      absorb_valid, capsys):
        """At every ``--time``, from 0 to past the last known snapshot, the
        copy head's unmasked objects are exactly the objects of the pair's
        known facts (train, and valid under ``--absorb-valid``) before that
        time, by brute force; a pair with none keeps every entity."""
        ds = load_dataset(synth_dir)
        n = ds.meta.num_entities
        known, r_aug = augment_reciprocal(ds.train, ds.meta)
        known = known.tolist()
        if absorb_valid:
            known += augment_reciprocal(ds.valid, ds.meta)[0].tolist()
        times = {}
        for s, p, _, t in known:
            times.setdefault((s, p), set()).add(t)
        # the pairs seen at the most times, the pair seen first the latest, and
        # a pair never seen
        pairs = sorted(times, key=lambda pair: (-len(times[pair]), pair))[:3]
        pairs.append(max(times, key=lambda pair: (min(times[pair]), pair)))
        pairs.append(min(set(itertools.product(range(n), range(r_aug))) - set(times)))
        last = max(t for *_, t in known)
        for s, p in pairs:
            for t in range(last + 3):
                rows = predict_rows(capsys, checkpoint, synth_dir, s, p, t, "--mode",
                                    "copy-only", "--topk", str(n),
                                    *(["--absorb-valid"] if absorb_valid else []))
                unmasked = {entity for _, entity, prob, _ in rows if float(prob) > 1e-20}
                expected = {o for s2, p2, o, t2 in known if (s2, p2) == (s, p) and t2 < t}
                assert unmasked == (expected or set(range(n))), (s, p, t)


class TestUnaugmentedCheckpoint:
    """A checkpoint with the dataset's R relations is scored on the splits
    without inverse facts; no option says so."""

    @pytest.fixture
    def library(self, synth_dir, plain_checkpoint):
        ds = load_dataset(synth_dir)
        params = load_checkpoint(plain_checkpoint)
        assert params.num_relations == ds.meta.num_relations
        kwargs = {"num_relations": ds.meta.num_relations, "regime": "static",
                  "filter_index": build_filter(ds.train, ds.valid, ds.test)}
        return params, ds.test, train_vocab(synth_dir, reciprocal=False), kwargs

    def test_eval(self, synth_dir, plain_checkpoint, library, tmp_path, capsys):
        params, test, vocab, kwargs = library
        csv = tmp_path / "snap.csv"
        assert cli.main(["eval", "--checkpoint", str(plain_checkpoint), "--data",
                         str(synth_dir), "--per-snapshot-csv", str(csv)]) == 0
        result = evaluate(params, test, vocab, per_snapshot=True, **kwargs)
        out = lines_of(capsys)
        assert out == eval_lines(params.alpha, result) and "subject_count=0" in out
        rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert rows[1:] == [f"{t},{r.count},{cli._metric_cells(r)}"
                            for t, r in result.per_snapshot.items()]

    @pytest.mark.parametrize("command", ["ablate", "sweep-alpha"])
    def test_ablate_and_sweep_alpha(self, synth_dir, plain_checkpoint, library, command,
                                    capsys):
        params, test, vocab, kwargs = library
        assert cli.main([command, "--checkpoint", str(plain_checkpoint),
                         "--data", str(synth_dir)]) == 0
        if command == "ablate":
            rows = ablate(params, test, vocab, **kwargs)
        else:
            rows = [(f"{alpha:.1f}", report)
                    for alpha, report in sweep_alpha(params, test, vocab, **kwargs)]
        assert [l for l in lines_of(capsys) if not l.startswith("#")][1:] == [
            f"{key},{cli._metric_cells(r)}" for key, r in rows]

    def test_predict(self, synth_dir, plain_checkpoint, library, capsys):
        params, _, vocab, _ = library
        s, p, t = 3, 1, 7
        rows = predict_rows(capsys, plain_checkpoint, synth_dir, s, p, t, "--topk", "25")
        probs = score_batch(params, [s], [p], [t], vocab, alpha=params.alpha)[0]
        assert [entity for _, entity, *_ in rows] == np.argsort(-probs, kind="stable").tolist()
        assert [prob for *_, prob, _ in rows] == [f"{probs[e]:.6g}" for _, e, *_ in rows]
        r = params.num_relations  # no inverse relations to query
        assert cli.main(["predict", "--checkpoint", str(plain_checkpoint), "--data",
                         str(synth_dir), "--subject", "0", "--relation", str(r),
                         "--time", "0"]) == 1
        assert (f"error: query row 0 (0, {r}, 0) is out of range: entity ids must lie in "
                f"[0, {params.num_entities}), relation ids in [0, {r}) "
                in capsys.readouterr().err)


class TestUsageAndErrors:
    def test_eval_without_checkpoint_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--data", "somewhere"])
        assert exc.value.code == 2

    def test_sweep_alpha_without_checkpoint_needs_retrain(self, tmp_path, capsys):
        """Raised before the (missing) dataset is read."""
        assert cli.main(["sweep-alpha", "--data", str(tmp_path / "missing")]) == 1
        assert capsys.readouterr().err == (
            "error: sweep-alpha: --checkpoint is required without --retrain\n")

    @pytest.mark.parametrize("command", ["eval", "ablate", "sweep-alpha"])
    def test_absorb_valid_with_split_valid_is_error(self, synth_dir, checkpoint, command,
                                                   capsys):
        """Validation facts cannot be both the history and the queries."""
        assert cli.main([command, "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                         "--split", "valid", "--absorb-valid"]) == 1
        assert capsys.readouterr().err == (
            f"error: {command}: --absorb-valid cannot be used with --split valid\n")

    @pytest.mark.parametrize("shift", [0, 2], ids=["at-last-train", "before-last-train"])
    def test_absorb_valid_overlapping_splits_is_error(self, synth_dir, checkpoint, shift,
                                                     tmp_path, capsys):
        """Validation facts that start at or before the last training
        snapshot cannot extend the history; the dataset is read, not trusted."""
        data = tmp_path / "overlap"
        data.mkdir()
        for name in ("stat.txt", "train.txt", "test.txt"):
            (data / name).write_bytes((synth_dir / name).read_bytes())
        ds = load_dataset(synth_dir)
        valid = ds.valid.copy()
        valid[:, 3] += ds.train[:, 3].max() - shift - valid[:, 3].min()
        write_quadruple_file(data / "valid.txt", valid)
        for argv in (["eval"], ["predict", "--subject", "0", "--relation", "0", "--time", "7"]):
            assert cli.main([*argv, "--checkpoint", str(checkpoint), "--data", str(data),
                             "--absorb-valid"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert cli.main([*argv, "--checkpoint", str(checkpoint), "--data", str(data)]) == 0
            capsys.readouterr()

    def test_checkpoint_relation_count_is_r_or_2r(self, synth_dir, tmp_path, capsys):
        ds = load_dataset(synth_dir)
        n, r, d = ds.meta.num_entities, ds.meta.num_relations, 2
        path = tmp_path / "odd.cyg"
        save_checkpoint(ModelParams(
            entity_emb=np.zeros((n, d)), relation_emb=np.zeros((r + 1, d)),
            time_unit=np.zeros(d), w_copy=np.zeros((n, 3 * d)), b_copy=np.zeros(n),
            w_gen=np.zeros((n, 3 * d)), b_gen=np.zeros(n),
            num_snapshots=ds.meta.num_snapshots), path)
        assert cli.main(["eval", "--checkpoint", str(path), "--data", str(synth_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint shape ({n} entities, {r + 1} relations) does not match the "
            f"dataset ({n} entities, {r} relations or {2 * r} with inverses); check --data\n")

    @pytest.mark.parametrize("command, option", [
        ("prepare", "--reciprocal"), ("eval", "--reciprocal"), ("ablate", "--reciprocal"),
        ("predict", "--reciprocal"), ("sweep-alpha", "--alpha"),
    ], ids=["prepare-reciprocal", "eval-reciprocal", "ablate-reciprocal",
            "predict-reciprocal", "sweep-alpha-alpha"])
    def test_unread_option_is_usage_error(self, synth_dir, checkpoint, tmp_path, command,
                                          option, capsys):
        """Options a command would never read: ``prepare`` never adds inverse
        facts, the checkpoint fixes whether the others do, and a sweep sets
        its own alphas."""
        argv = {"prepare": ["--data", str(synth_dir), "--out", str(tmp_path / "o")],
                "predict": ["--checkpoint", str(checkpoint), "--data", str(synth_dir),
                            "--subject", "0", "--relation", "0", "--time", "0"]}.get(
            command, ["--checkpoint", str(checkpoint), "--data", str(synth_dir)])
        value = "0.5" if option == "--alpha" else "false"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argv, option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_prints_usage(self, capsys):
        assert cli.main([]) == 2

    def test_train_rejects_non_finite_mask_magnitude(self, synth_dir, tmp_path, capsys):
        """One error line, and no overflow warning for a value past float32."""
        for value in ("inf", "nan", "1e39"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["train", "--data", str(synth_dir), "--out",
                                 str(tmp_path / "m.cyg"), "--mask-magnitude", value])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: mask_magnitude is {float(value)}, expected a finite float32 > 0\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--dim", "0"], "dim must be positive, got 0"),
        ("sweep-alpha", ["--retrain", "--epochs", "0"], "epochs must be positive, got 0")])
    def test_training_options_checked_before_data_is_read(self, tmp_path, monkeypatch, command,
                                                           flags, message, capsys):
        """A bad training count is reported, not the missing dataset: the
        training config used to be built only after the data was read."""
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--data", str(tmp_path / "nonexistent"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", declared(lambda opt: opt.least is not None))
    def test_value_below_least_is_usage_error(self, synth_dir, checkpoint, tmp_path,
                                              monkeypatch, command, option, capsys):
        """A value below an option's ``least`` is refused before any thread
        variable is exported or any file is written, whether it comes from
        a flag or from a config file, and before an output file in a
        missing directory (``train --out nodir/out --threads 0``) is
        reported."""
        for var in cli._THREAD_ENV:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        opts = cli.COMMANDS[command]
        least = next(opt.least for opt in opts if opt.option == option)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option[2:]} = {least - 2}\n")
        for extra, value in (([option, str(least - 1)], least - 1),
                             ([option, str(least - 2)], least - 2),
                             (["--config", str(cfg)], least - 2)):
            for folder in ("out", "nodir"):
                outputs = [arg for opt in opts if opt.writes
                           for arg in (opt.option, f"{folder}/{opt.key}")]
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, *command_args(command, synth_dir, checkpoint),
                              *outputs, *extra])
                assert exc.value.code == 2
                captured = capsys.readouterr()
                assert captured.err.endswith(f"copygen: error: {command}: {option} must be "
                                             f"at least {least}, got {value}\n")
                assert captured.out == ""
                assert not any(var in os.environ for var in cli._THREAD_ENV)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "run.cfg"]
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command, option", declared(lambda opt: opt.writes))
    def test_output_directory_checked_before_any_work(self, synth_dir, checkpoint, tmp_path,
                                                      monkeypatch, command, option, capsys):
        """An output file in a missing directory fails at once, naming the
        option and the path as given, before any data is read (training
        used to run every epoch, then fail on the checkpoint's temp file)."""
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, *command_args(command, synth_dir, checkpoint),
                         option, "nodir/m.cyg"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command}: {option} nodir/m.cyg: no directory nodir\n"

    def test_unreadable_echo_value_is_usage_error(self, synth_dir, tmp_path, capsys):
        """A value the ``key = value`` echo would cut or change is refused
        before anything runs."""
        for out in (tmp_path / "run #3.cyg", tmp_path / "two\nlines.cyg",
                    f"{tmp_path / 'm.cyg'} "):
            with pytest.raises(SystemExit) as exc:
                cli.main(["train", "--data", str(synth_dir), "--out", str(out)])
            assert exc.value.code == 2
            assert "train: --out " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_options_feed_distinct_config_fields(self):
        """Each command's options feed distinct fields of their configs;
        ``train``'s feed every ``TrainConfig`` field but ``alpha``, which
        ``train`` resolves per dataset, and ``synth``'s every ``SynthConfig``
        field, so a config cannot gain a field the CLI cannot set."""
        fields = {cls: {(cls, field.name) for field in dataclasses.fields(cls)}
                  for cls in (TrainConfig, SynthConfig)}
        fed = {}
        for command, opts in cli.COMMANDS.items():
            feeds = [opt.feeds for opt in opts if opt.feeds]
            assert len(feeds) == len(set(feeds)), command
            assert set(feeds) <= fields[TrainConfig] | fields[SynthConfig], command
            fed[command] = set(feeds)
        assert fed["train"] == fields[TrainConfig] - {(TrainConfig, "alpha")}
        assert fed["synth"] == fields[SynthConfig]

    # (command, key) of each option that holds its own declaration, though
    # other commands take an option of that key, and why
    OWN_DECLARATIONS = {
        ("train", "alpha"): "its default is per dataset; the others override a checkpoint's",
        ("sweep-alpha", "checkpoint"): "optional: under --retrain none is read",
        ("prepare", "split"): "omitted, it keeps the existing split files",
        ("synth", "split"): "split ratios, where the evaluators name a split",
        ("synth", "seed"): "it feeds SynthConfig, not TrainConfig",
        ("prepare", "out"): "an output directory, not a file",
        ("synth", "out"): "an output directory, not a file",
        ("train", "out"): "the checkpoint path, which has a default",
    }

    def test_shared_options_are_declared_once(self):
        """When several commands take an option, they share one ``Opt``, so
        its type, default, bounds and help cannot drift apart (``--granularity``
        was declared five times). Each exception differs from the shared one."""
        uses = {}
        for command, opts in cli.COMMANDS.items():
            for opt in opts:
                uses.setdefault(opt.key, {})[command] = opt
        shared = {key: [opt for command, opt in opts.items()
                        if (command, key) not in self.OWN_DECLARATIONS]
                  for key, opts in uses.items()}
        for key, opts in shared.items():
            assert all(opt is opts[0] for opt in opts), key
        for command, key in self.OWN_DECLARATIONS:
            assert shared[key] and shared[key][0] != uses[key][command], (command, key)

    @pytest.mark.parametrize("name, alpha", [
        ("ICEWS14", 0.8), ("icews05-15", 0.8), ("GDELT", 0.7), ("WIKI", 0.5),
        ("yago11k", 0.5), ("synth", 0.8)])
    def test_default_alpha_for(self, name, alpha):
        assert cli.default_alpha_for(name) == alpha

    def test_resolving_leaves_numpy_unloaded(self):
        """``--threads`` caps the BLAS pools before numpy loads, so importing
        the CLI and resolving any command must not import numpy."""
        script = textwrap.dedent("""
            import sys
            from copygen import cli
            parser = cli.build_parser()
            for command, opts in cli.COMMANDS.items():
                argv = [command]
                for opt in opts:
                    if opt.required:
                        argv += [opt.option, "1"]
                cli.resolve(command, parser.parse_args(argv), parser)
                assert "numpy" not in sys.modules, command
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_missing_checkpoint_file_is_runtime_error(self, synth_dir, capsys):
        code = cli.main(["eval", "--checkpoint", "/nonexistent.cyg",
                         "--data", str(synth_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


# Strings a ``key = value`` line carries unchanged; such strings with one
# character the line cannot carry where it stands; and any text at all (lone
# surrogates included: an undecodable command-line byte arrives as one).
LINE_TEXT = st.text(st.characters(blacklist_characters="#",
                                  blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).map(str.strip)
PLANTED_TEXT = st.builds(lambda head, char, tail: head + char + tail, LINE_TEXT,
                         st.sampled_from("#\n\r\x0b\x1c\x85\u2028 \t\udcff"), LINE_TEXT)
ANY_TEXT = st.text(st.characters(exclude_categories=()))


def reads_back(value: str) -> bool:
    """Whether a one-entry echo written by ``RunConfig.text()`` reads back
    as ``value``."""
    run = cli.RunConfig("probe")
    run.set("key", value, "flag")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.cfg"
        try:
            path.write_text(run.text(), encoding="utf-8")
            return cli.parse_config_file(path).get("key") == value
        except ValueError:  # unencodable, or a line split off without '='
            return False


class TestConfigFile:
    def test_precedence_flag_over_file_over_default(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\ndim = 4\nseed = 2  # comment\n")
        out = tmp_path / "m.cyg"
        assert cli.main(["train", "--data", str(synth_dir), "--out", str(out),
                         "--config", str(cfg), "--epochs", "1"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("epoch=") == 1  # flag beat the config file
        text = checkpoint_config_text(out)
        assert "dim = 4" in text and "epochs = 1" in text
        assert load_checkpoint(out).dim == 4

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_echo_reads_back(self, example):
        """Resolving flag values either fails with a usage error naming a
        string option whose ``key = value`` line would not read back (a '#'
        starts a comment, line breaks split, edge whitespace is stripped,
        the file is UTF-8), or ``parse_config_file`` reads the
        ``RunConfig.text()`` echo back to the same values."""
        command = example.draw(st.sampled_from(sorted(cli.COMMANDS)))
        args = argparse.Namespace(config=None)
        for opt in cli.COMMANDS[command]:
            if opt.choices:
                values = st.sampled_from(opt.choices)
            else:
                values = {int: st.integers(), float: st.floats(),
                          str: LINE_TEXT | PLANTED_TEXT | ANY_TEXT,
                          cli._parse_bool: st.booleans(), None: st.just(True)}[opt.type]
            setattr(args, opt.key, example.draw(values if opt.required else st.none() | values))
        unreadable = [opt.option for opt in cli.COMMANDS[command]
                      if opt.type is str and isinstance(getattr(args, opt.key), str)
                      and not opt.choices and not reads_back(getattr(args, opt.key))]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                run = cli.resolve(command, args, cli.build_parser())
        except SystemExit as exc:
            assert exc.code == 2 and unreadable
            assert f"{command}: {unreadable[0]} " in err.getvalue()
            return
        assert not unreadable
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text(run.text(), encoding="utf-8")
            entries = cli.parse_config_file(path)
        assert entries.pop("command") == command
        assert entries.pop("version") == cli.__version__
        assert entries == {key: str(value) for key, value in run.values.items()
                           if value is not None}
        for opt in cli.COMMANDS[command]:
            if opt.key in entries:
                caster = cli._parse_bool if opt.flag else opt.type
                assert str(caster(entries[opt.key])) == str(run.values[opt.key])

    def test_malformed_config_file(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code = cli.main(["train", "--data", str(synth_dir), "--config", str(cfg)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, synth_dir, tmp_path, capsys):
        """A misspelt key is refused; a key another command reads is not, so
        one file can serve several commands."""
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("dim = 4\nepochs = 1\nmask-magnitud = 5\n")
        out = tmp_path / "m.cyg"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(synth_dir), "--out", str(out), "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"config file {cfg}: unknown key 'mask_magnitud'" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text("dim = 4\nepochs = 1\nprobe = valid\ntopk = 3\n")
        assert cli.main(["train", "--data", str(synth_dir), "--out", str(out),
                         "--config", str(cfg)]) == 0

    def test_echoes_configure_the_command_that_wrote_them(self, tmp_path, capsys):
        """``synth.cfg``, ``prepared.cfg`` and a checkpoint's config block,
        read back as ``--config`` of their command, reproduce the run: the
        re-run's echo differs only in its ``out`` line."""
        def same_echo(command, cfg, echo):
            out = tmp_path / f"{command}-again"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            lines = [[line for line in text.splitlines() if not line.startswith("out = ")]
                     for text in (cfg.read_text(), echo(out))]
            assert lines[0] == lines[1]

        data = tmp_path / "synth"
        assert cli.main(["synth", "--out", str(data), "--entities", "15", "--relations", "2",
                         "--snapshots", "6", "--facts-per-snapshot", "20", "--seed", "1"]) == 0
        same_echo("synth", data / "synth.cfg", lambda out: (out / "synth.cfg").read_text())
        prepared = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(data), "--out", str(prepared),
                         "--split", "80/20"]) == 0
        same_echo("prepare", prepared / "prepared.cfg",
                  lambda out: (out / "prepared.cfg").read_text())
        ckpt = tmp_path / "m.cyg"
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), "--dim", "4",
                         "--epochs", "1"]) == 0
        (tmp_path / "train.cfg").write_text(checkpoint_config_text(ckpt))
        same_echo("train", tmp_path / "train.cfg", checkpoint_config_text)

    def test_bad_config_value_is_usage_error(self, synth_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(synth_dir), "--config", str(cfg)])
        assert exc.value.code == 2

    def test_config_value_outside_choices_is_usage_error(self, synth_dir, checkpoint,
                                                         tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("filter = fuzzy\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                      "--config", str(cfg)])
        assert exc.value.code == 2
        assert (f"config file: filter must be one of {REGIMES}"
                in capsys.readouterr().err)


class TestMoreEvalSurfaces:
    def test_absorb_valid_changes_vocabulary(self, synth_dir, checkpoint, capsys):
        results = []
        for extra in ([], ["--absorb-valid"]):
            assert cli.main(["eval", "--checkpoint", str(checkpoint),
                             "--data", str(synth_dir), "--mode", "copy-only",
                             *extra]) == 0
            out = dict(line.split("=", 1) for line in lines_of(capsys))
            results.append(float(out["mrr"]))
        assert results[0] != results[1]  # validation facts extended the history

    def test_eval_empty_valid_split_flagged(self, tmp_path, capsys):
        src = tmp_path / "twoway"
        assert cli.main(["synth", "--out", str(src), "--entities", "15",
                         "--relations", "2", "--snapshots", "6",
                         "--facts-per-snapshot", "20", "--seed", "1",
                         "--split", "80/20"]) == 0
        ckpt = tmp_path / "m.cyg"
        assert cli.main(["train", "--data", str(src), "--out", str(ckpt),
                         "--dim", "4", "--epochs", "1"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(src),
                         "--split", "valid"]) == 0
        out = lines_of(capsys)
        assert "count=0" in out and "metrics=undefined" in out

    def test_sweep_alpha_retrain(self, synth_dir, tmp_path, capsys):
        ckpt = tmp_path / "m.cyg"
        assert cli.main(["train", "--data", str(synth_dir), "--out", str(ckpt),
                         "--dim", "4", "--epochs", "1"]) == 0
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep-alpha", "--checkpoint", str(ckpt),
                         "--data", str(synth_dir), "--out", str(out),
                         "--retrain", "--dim", "4", "--epochs", "1"]) == 0
        capsys.readouterr()
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 12


class TestInstalledEntryPoint:
    def test_version_and_threads(self, synth_dir, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "copygen.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("copygen ")
        proc = subprocess.run(
            [sys.executable, "-m", "copygen.cli", "train", "--data", str(synth_dir),
             "--out", str(tmp_path / "t.cyg"), "--dim", "4", "--epochs", "1",
             "--threads", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestPrepare:
    def test_passthrough_normalizes(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        write_quadruple_file(src / "train.txt",
                             np.asarray([(0, 0, 1, 24), (1, 1, 2, 48)], np.int64))
        write_quadruple_file(src / "test.txt",
                             np.asarray([(2, 0, 3, 72)], np.int64))
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(src), "--out", str(out),
                         "--granularity", "24"]) == 0
        assert (out / "train.txt").read_text() == "0\t0\t1\t0\n1\t1\t2\t1\n"
        assert (out / "test.txt").read_text() == "2\t0\t3\t2\n"
        assert (out / "stat.txt").read_text().split() == ["10", "2"]
        assert (out / "prepared.cfg").exists()

    def test_resplit_mode(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        rows = [(i % 5, i % 2, (i + 1) % 5, t) for t in range(10) for i in range(4)]
        write_quadruple_file(src / "all.txt", np.asarray(rows, np.int64))
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(src), "--out", str(out),
                         "--split", "80/10/10"]) == 0
        stdout = capsys.readouterr().out
        assert "boundaries=8,9" in stdout
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (out / name).exists()

    def test_empty_train_names_the_directory(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        (src / "train.txt").write_text("")
        write_quadruple_file(src / "test.txt", np.asarray([(2, 0, 3, 72)], np.int64))
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: train.txt missing or empty\n"
        assert not out.exists()

    def test_no_fact_files_names_the_directory(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: no fact files found\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", [None, "80/20"])
    def test_leaves_no_stale_split(self, tmp_path, split, capsys):
        """A stale ``valid.txt`` in the output directory is deleted when the
        command writes no validation split: without ``--split`` when the
        source has none, and under a two-way ``--split``."""
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        rows = np.asarray([(i % 5, i % 2, (i + 1) % 5, t) for t in range(10)
                           for i in range(4)], np.int64)
        write_quadruple_file(src / "train.txt", rows[rows[:, 3] < 8])
        write_quadruple_file(src / "test.txt", rows[rows[:, 3] >= 8])
        out = tmp_path / "prepared"
        out.mkdir()
        write_quadruple_file(out / "valid.txt", np.asarray([(9, 1, 9, 8)], np.int64))
        assert cli.main(["prepare", "--data", str(src), "--out", str(out),
                         *(["--split", split] if split else [])]) == 0
        assert sorted(path.name for path in out.glob("*.txt")) == [
            "stat.txt", "test.txt", "train.txt"]
        assert len(load_dataset(out).valid) == 0

    def test_two_way_resplit(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "stat.txt").write_text("10 2\n")
        rows = [(i % 5, i % 2, (i + 1) % 5, t) for t in range(10) for i in range(4)]
        write_quadruple_file(src / "all.txt", np.asarray(rows, np.int64))
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--data", str(src), "--out", str(out),
                         "--split", "80/20"]) == 0
        assert not (out / "valid.txt").exists()
        assert (out / "train.txt").exists() and (out / "test.txt").exists()
