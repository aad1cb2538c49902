"""Command-line entry point tying together preparation, statistics,
synthesis, training, evaluation, ablations, alpha sweeps, and single-query
prediction.

Option precedence is flag > config file > built-in default; the resolved
configuration (with per-key provenance) is echoed into every artifact. An
option several commands take is one ``Opt`` they share. The commands that
read a dataset with inverse facts load it through ``_dataset`` and copy
from the history ``_history`` builds. Heavy imports happen inside the
handlers so ``--threads`` can cap the BLAS thread pools before numpy loads;
the option defaults and choices are read from ``copygen.options``, which
loads no numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__
from .options import MODES, REGIMES, SynthConfig, TrainConfig, count_problem

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

SPLIT_RATIOS = {"80/10/10": (0.8, 0.1, 0.1), "80/20": (0.8, 0.2)}

# per-dataset mixture weights from the benchmark tuning
DATASET_ALPHA = (("icews", 0.8), ("gdelt", 0.7), ("wiki", 0.5), ("yago", 0.5))


def default_alpha_for(name: str) -> float:
    return next((alpha for token, alpha in DATASET_ALPHA if token in name.lower()),
                TrainConfig.alpha)


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


@dataclasses.dataclass
class Opt:
    key: str
    type: object = str
    default: object = None
    help: str = ""
    required: bool = False
    flag: bool = False  # valueless switch; config files set it with key = true
    choices: tuple | None = None
    # names a file the command writes; its directory must exist before any
    # data is read, so a bad path fails at once, not after training
    writes: bool = False
    least: int | None = None  # smallest value accepted
    # (config class, field) the option sets; it then defaults to the field's default
    feeds: tuple | None = None

    def __post_init__(self):
        if self.feeds:
            cls, name = self.feeds
            self.default = {f.name: f.default for f in dataclasses.fields(cls)}[name]

    @property
    def option(self) -> str:
        return "--" + self.key.replace("_", "-")


_COMMON = [Opt("config", str, None, "line-based key = value config file")]
# options several commands share, each declared once
_THREADS = Opt("threads", int, None, "cap BLAS thread pools", least=1)
_GRANULARITY = Opt("granularity", int, 1, "raw time units per snapshot", least=1)
_DATA = Opt("data", str, required=True, help="dataset directory")
_DATASET_OUT = Opt("out", str, required=True, help="output dataset directory")
_CSV_OUT = Opt("out", str, None, "CSV path (stdout when omitted)", writes=True)
_CHECKPOINT = Opt("checkpoint", str, required=True, help="trained checkpoint")
_ALPHA = Opt("alpha", float, None, "override the checkpoint's mixture weight")
_ABSORB_VALID = Opt("absorb_valid", None, False, "extend the vocabulary with validation facts",
                    flag=True)
_MODE = Opt("mode", str, "full", "inference mode", choices=MODES)
_RATIOS = Opt("split", str, "80/10/10", "chronological split ratios",
              choices=tuple(SPLIT_RATIOS))

_TRAIN_OPTS = [
    _DATA,
    Opt("out", str, "checkpoint.cyg", "checkpoint output path", writes=True),
    Opt("alpha", float, None, "copy/generation mixture weight (default: per-dataset)"),
    Opt("dim", int, help="embedding dimension", feeds=(TrainConfig, "dim")),
    Opt("lr", float, help="learning rate", feeds=(TrainConfig, "learning_rate")),
    Opt("batch_size", int, help="facts per optimizer step", feeds=(TrainConfig, "batch_size")),
    Opt("epochs", int, help="training epochs", feeds=(TrainConfig, "epochs")),
    Opt("seed", int, help="random seed", feeds=(TrainConfig, "seed")),
    Opt("mask_magnitude", float, help="copy-mask suppression magnitude",
        feeds=(TrainConfig, "mask_magnitude")),
    _GRANULARITY,
    Opt("reciprocal", _parse_bool, True, "add inverse facts for subject prediction"),
    Opt("mean_loss", None, help="average instead of sum the batch loss", flag=True,
        feeds=(TrainConfig, "mean_loss")),
    Opt("patience", int, help="stop after this many epochs without improvement",
        feeds=(TrainConfig, "patience")),
    Opt("log_csv", str, None, "write the per-epoch training log here", writes=True),
    _THREADS,
]

_EVAL_COMMON = [
    _CHECKPOINT,
    _DATA,
    Opt("split", str, "test", "evaluation split", choices=("test", "valid")),
    Opt("filter", str, "static", "ranking regime", choices=REGIMES),
    Opt("filter_from", str, "all", "splits feeding the filter", choices=("all", "train")),
    _ALPHA,
    _GRANULARITY,
    _ABSORB_VALID,
    _THREADS,
]

COMMANDS: dict[str, list[Opt]] = {
    "prepare": [
        _DATA,
        _DATASET_OUT,
        _GRANULARITY,
        dataclasses.replace(_RATIOS, default=None,
                            help="re-split ratios (omit to keep existing files)"),
    ],
    "stats": [
        _DATA,
        _GRANULARITY,
        Opt("probe", str, "test", "split whose recurrence is measured",
            choices=("test", "valid")),
        Opt("csv", str, None, "also write metric,value rows here", writes=True),
    ],
    "synth": [
        _DATASET_OUT,
        Opt("entities", int, help="entity count", feeds=(SynthConfig, "num_entities")),
        Opt("relations", int, help="relation count", feeds=(SynthConfig, "num_relations")),
        Opt("snapshots", int, help="snapshot count", feeds=(SynthConfig, "num_snapshots")),
        Opt("facts_per_snapshot", int, help="fact draws per snapshot",
            feeds=(SynthConfig, "facts_per_snapshot")),
        Opt("recurrence", float, help="per-fact copy-from-history probability",
            feeds=(SynthConfig, "recurrence")),
        Opt("seed", int, help="random seed", feeds=(SynthConfig, "seed")),
        Opt("fixed_objects", None, help="pin each (s, p) pair to one object", flag=True,
            feeds=(SynthConfig, "fixed_objects")),
        _RATIOS,
    ],
    "train": _TRAIN_OPTS,
    "eval": _EVAL_COMMON + [
        _MODE,
        Opt("per_snapshot_csv", str, None, "write a per-snapshot breakdown here",
            writes=True),
    ],
    "ablate": _EVAL_COMMON + [_CSV_OUT],
    "sweep-alpha": [Opt("checkpoint", str, None, "trained checkpoint (unless --retrain)")]
    + [opt for opt in _EVAL_COMMON if opt not in (_CHECKPOINT, _ALPHA)] + [
        _CSV_OUT,
        Opt("retrain", None, False, "retrain per alpha instead of re-mixing (the "
            "training options below apply only then)", flag=True),
    ] + [opt for opt in _TRAIN_OPTS if opt.key in (
        "dim", "lr", "batch_size", "epochs", "seed", "mask_magnitude", "reciprocal")],
    "predict": [
        _CHECKPOINT,
        _DATA,
        Opt("subject", int, required=True, help="subject entity id"),
        Opt("relation", int, required=True, help="relation id (>= R queries subjects)"),
        Opt("time", int, required=True, help="snapshot index of the query"),
        Opt("topk", int, 5, "entities to print", least=1),
        _MODE,
        _ALPHA,
        _GRANULARITY,
        _ABSORB_VALID,
        _THREADS,
    ],
}


class RunConfig:
    """Resolved option values with per-key provenance
    (default | config-file | flag)."""

    def __init__(self, command: str):
        self.command = command
        self.values: dict[str, object] = {}
        self.sources: dict[str, str] = {}

    def set(self, key: str, value, source: str) -> None:
        self.values[key] = value
        self.sources[key] = source

    def __getattr__(self, key: str):
        try:
            return self.__dict__["values"][key]
        except KeyError:
            raise AttributeError(key) from None

    def _echoed(self):
        """(key, value, source) of each echoed entry: the version and the
        command, which have no source, then every set option but config."""
        yield "version", __version__, None
        yield "command", self.command, None
        for key, value in self.values.items():
            if key != "config" and value is not None:
                yield key, value, self.sources[key]

    def echo_lines(self) -> list[str]:
        return [f"{key}={value}" + (f"  ({source})" if source else "")
                for key, value, source in self._echoed()]

    def text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value, _ in self._echoed())


def _echoable(text: str) -> bool:
    """Whether :func:`parse_config_file` reads ``text`` back unchanged from
    a ``key = text`` line: no '#', no line break, no edge whitespace, and no
    lone surrogate (which UTF-8 cannot encode)."""
    return ("#" not in text and text == text.strip() and len(text.splitlines()) <= 1
            and not any("\ud800" <= c <= "\udfff" for c in text))


def parse_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copygen",
        description="Temporal knowledge-graph completion with a copy-generation mixture.",
    )
    parser.add_argument("--version", action="version", version=f"copygen {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name, opts in COMMANDS.items():
        sub = subparsers.add_parser(name, help=_COMMAND_HELP.get(name, ""))
        for opt in _COMMON + opts:
            if opt.flag:
                sub.add_argument(opt.option, dest=opt.key, action="store_const",
                                 const=True, default=None, help=opt.help)
            else:
                sub.add_argument(opt.option, dest=opt.key, type=opt.type, default=None,
                                 choices=opt.choices, help=opt.help)
    return parser


_COMMAND_HELP = {
    "prepare": "normalize timestamps and (optionally) re-split a dataset",
    "stats": "recurrence statistics of a probe split against its history",
    "synth": "generate a synthetic dataset with controllable recurrence",
    "train": "train a model and write a checkpoint",
    "eval": "ranking metrics of a checkpoint on one split",
    "ablate": "evaluate all four inference modes (Table-5-shaped CSV)",
    "sweep-alpha": "evaluate mixture weights 0.0..1.0 against one checkpoint",
    "predict": "rank entities for a single query",
}


def resolve(command: str, args: argparse.Namespace,
            parser: argparse.ArgumentParser) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = parse_config_file(args.config)
        # any command's options, and the other keys the CLI's own echoes hold
        known = {"version", "command", "boundaries", "realized_fact_repeat_rate"}.union(
            opt.key for opts in COMMANDS.values() for opt in opts)
        for key in file_values:
            if key not in known:
                parser.error(f"config file {args.config}: unknown key {key!r}")
    run = RunConfig(command)
    run.set("config", args.config, "flag" if args.config else "default")
    for opt in COMMANDS[command]:
        flag_value = getattr(args, opt.key, None)
        if flag_value is not None:
            run.set(opt.key, flag_value, "flag")
        elif opt.key in file_values:
            raw = file_values[opt.key]
            caster = _parse_bool if opt.flag else opt.type
            try:
                value = caster(raw)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                parser.error(f"config file: bad value {raw!r} for {opt.key}")
            if opt.choices and value not in opt.choices:
                parser.error(f"config file: {opt.key} must be one of {opt.choices}")
            run.set(opt.key, value, "config-file")
        else:
            run.set(opt.key, opt.default, "default")
        value = run.values[opt.key]
        if opt.required and value is None:
            parser.error(f"{command}: missing required option {opt.option}")
        if opt.type is str and not opt.choices and value is not None and not _echoable(value):
            parser.error(f"{command}: {opt.option} {value!r} cannot be echoed as a "
                         "'key = value' line (no '#', line breaks, edge whitespace "
                         "or non-UTF-8 text)")
    return run


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else list(argv))
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # runtime failure contract: one line, exit 1
        message = str(exc).replace("\n", " ") or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    run = resolve(args.command, args, parser)
    opts = COMMANDS[args.command]
    # every usage error (exit 2) comes before any missing directory (exit 1)
    for opt in opts:
        value = run.values[opt.key]
        if opt.least is not None and value is not None:
            if problem := count_problem(opt.option, value, opt.least):
                parser.error(f"{args.command}: {problem}")
    for opt in opts:
        out = run.values[opt.key]
        if opt.writes and out is not None and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"{args.command}: {opt.option} {out}: "
                                    f"no directory {Path(out).parent}")
    threads = run.values.get("threads")
    if threads:
        for var in _THREAD_ENV:  # must precede the numpy import
            os.environ[var] = str(threads)
    return _HANDLERS[args.command](run)


# ---------------------------------------------------------------------------
# shared helpers (import numpy lazily)


def _dataset(run, params=None):
    """The dataset, whose splits carry their inverse facts exactly when the
    checkpoint ``params`` has twice the dataset's relations or, with no
    checkpoint, when ``--reciprocal`` is set; ``meta`` keeps its R relations."""
    from . import data

    ds = data.load_dataset(run.data, granularity=run.granularity)
    n, r = ds.meta.num_entities, ds.meta.num_relations
    if params is None:
        reciprocal = run.reciprocal
    elif params.num_entities != n or params.num_relations not in (r, 2 * r):
        raise ValueError(
            f"checkpoint shape ({params.num_entities} entities, "
            f"{params.num_relations} relations) does not match the dataset "
            f"({n} entities, {r} relations or {2 * r} with inverses); check --data")
    elif params.num_snapshots != ds.meta.num_snapshots:
        raise ValueError(
            f"checkpoint has {params.num_snapshots} snapshots, the dataset "
            f"{ds.meta.num_snapshots} at --granularity {run.granularity}; check --granularity")
    else:
        reciprocal = params.num_relations == 2 * r
    if not reciprocal:
        return ds
    return dataclasses.replace(ds, **{name: data.augment_reciprocal(ds.split(name), ds.meta)[0]
                                      for name in ("train", "valid", "test")})


def _history(run, ds):
    """The facts a query may copy from: the training facts and, under
    ``--absorb-valid``, the validation facts, which must all come later."""
    import numpy as np

    if not run.absorb_valid:
        return ds.train
    if len(ds.valid) and ds.valid[:, 3].min() <= ds.train[:, 3].max():
        raise ValueError(f"{run.command}: --absorb-valid needs validation facts after the last "
                         f"training snapshot, {ds.train[:, 3].max()}, not from "
                         f"{ds.valid[:, 3].min()}")
    return np.concatenate([ds.train, ds.valid])


def _percent(x: float) -> str:
    return "nan" if x != x else f"{100.0 * x:.2f}"


def _metric_cells(report) -> str:
    """A report's metrics as the CSV cells ``mrr,hits1,hits3,hits10``."""
    return ",".join(_percent(x) for x in report.metrics().values())


def _emit_csv(out, header: str, rows: list[str], run: RunConfig) -> None:
    lines = [f"# {line}" for line in run.echo_lines()] + [header, *rows]
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_lines(prefix: str, report) -> list[str]:
    if not report.defined:
        return [f"{prefix}count=0", f"{prefix}metrics=undefined"]
    return [f"{prefix}count={report.count}"] + [
        f"{prefix}{name}={_percent(x)}" for name, x in report.metrics().items()]


# ---------------------------------------------------------------------------
# handlers


def _cmd_prepare(run: RunConfig) -> int:
    import numpy as np

    from . import data

    src = Path(run.data)
    present = [name for name in ("all", "facts", "train", "valid", "test")
               if (src / f"{name}.txt").exists()]
    if run.split is None and "train" in present:
        ds = data.load_dataset(src, granularity=run.granularity)
        meta = ds.meta
        named = {name: ds.split(name) for name in ("train", "valid", "test")
                 if name in present}
        boundaries = ()
    else:
        meta = data.load_stat(src / "stat.txt")
        if not present:
            raise FileNotFoundError(f"{src}: no fact files found")
        chunks = [data.read_quadruple_file(src / f"{name}.txt", meta) for name in present]
        merged = data.dedupe(data.normalize_timestamps(np.concatenate(chunks),
                                                       run.granularity))
        named, boundaries = data.chronological_split(merged,
                                                     SPLIT_RATIOS[run.split or "80/10/10"])

    data.write_dataset(run.out, meta, named)
    extra = f"boundaries = {','.join(map(str, boundaries))}\n" if boundaries else ""
    (Path(run.out) / "prepared.cfg").write_text(run.text() + extra, encoding="utf-8")
    for name, quads in sorted(named.items()):
        print(f"{name}_facts={len(quads)}")
    if boundaries:
        print(f"boundaries={','.join(map(str, boundaries))}")
    return 0


def _cmd_stats(run: RunConfig) -> int:
    import numpy as np

    from . import data, history

    ds = data.load_dataset(run.data, granularity=run.granularity)
    probe = ds.split(run.probe)
    if len(probe) == 0:
        raise ValueError(f"probe split {run.probe!r} is empty")
    hist = np.concatenate([ds.train] + ([ds.valid] if run.probe == "test" else []))

    forward = history.recurrence_stats(hist, probe)
    swapped = history.recurrence_stats(hist[:, [2, 1, 0, 3]], probe[:, [2, 1, 0, 3]])
    metrics = {
        "fact_repeat_rate": forward["fact_repeat_rate"],
        "group_repeat_rate": forward["group_repeat_rate"],
        "subject_group_repeat_rate": swapped["group_repeat_rate"],
    }
    for key, value in metrics.items():
        print(f"{key}={value:.4f}")
    if run.csv:
        _emit_csv(run.csv, "metric,value",
                  [f"{k},{v:.6f}" for k, v in metrics.items()], run)
    return 0


def _config(run: RunConfig, cls, **fields):
    """A ``cls`` of ``fields`` and of the values of the command's options that
    feed it; a field that neither sets keeps its class default."""
    fed = {opt.feeds[1]: run.values[opt.key] for opt in COMMANDS[run.command]
           if opt.feeds and opt.feeds[0] is cls}
    return cls(**fed, **fields)


def _cmd_synth(run: RunConfig) -> int:
    from . import data, synth

    quads, rate = synth.generate(_config(run, SynthConfig))
    parts, boundaries = data.chronological_split(quads, SPLIT_RATIOS[run.split])
    data.write_dataset(run.out, data.DatasetMeta(run.entities, run.relations), parts)
    listed = ",".join(map(str, boundaries))
    (Path(run.out) / "synth.cfg").write_text(
        run.text() + f"realized_fact_repeat_rate = {rate:.6f}\nboundaries = {listed}\n",
        encoding="utf-8")
    print(f"facts={len(quads)}")
    print(f"realized_fact_repeat_rate={rate:.4f}")
    print(f"boundaries={listed}")
    return 0


def _fit(run: RunConfig, ds, config: TrainConfig, progress=None):
    """``training.fit`` on ``ds``'s training facts under ``config``: R
    relations, or 2R under ``--reciprocal``."""
    from . import training

    m = ds.meta
    return training.fit(ds.train, m.num_entities, m.num_relations * (1 + run.reciprocal),
                        m.num_snapshots, config, progress=progress)


def _cmd_train(run: RunConfig) -> int:
    from . import model

    alpha = run.alpha if run.alpha is not None else default_alpha_for(Path(run.data).name)
    run.set("alpha", alpha, run.sources.get("alpha", "default"))

    def progress(stats):
        print(f"epoch={stats.epoch} loss={stats.loss:.6f} "
              f"seconds={stats.seconds:.2f}", flush=True)

    config = _config(run, TrainConfig, alpha=alpha)  # a bad value fails before any data is read
    params, log = _fit(run, _dataset(run), config, progress)
    model.save_checkpoint(params, run.out, config_text=run.text())
    if run.log_csv:
        rows = [f"{e.epoch},{e.loss:.6f},{e.seconds:.3f}" for e in log.epochs]
        _emit_csv(run.log_csv, "epoch,loss,seconds", rows, run)
    print(f"checkpoint={run.out}")
    return 0


def _evaluator_args(run: RunConfig, ds=None) -> dict:
    """The arguments every evaluator takes: the ``--checkpoint``'s parameters,
    the queried split of its dataset, the history, the relation count, the
    filter and the regime. Given ``ds``, no checkpoint is read and the
    parameters are None (``sweep-alpha --retrain`` trains its own)."""
    from . import evaluation, history, model

    if run.absorb_valid and run.split == "valid":
        raise ValueError(f"{run.command}: --absorb-valid cannot be used with --split valid")
    params = None if ds else model.load_checkpoint(run.checkpoint)
    ds = ds or _dataset(run, params)
    vocab = history.vocab_from_quads(_history(run, ds))
    splits = [ds.train] if run.filter_from == "train" else [ds.train, ds.valid, ds.test]
    filter_index = None if run.filter == "raw" else evaluation.build_filter(*splits)
    return {"params": params, "quads": ds.split(run.split), "vocab": vocab,
            "num_relations": ds.meta.num_relations, "filter_index": filter_index,
            "regime": run.filter}


def _cmd_eval(run: RunConfig) -> int:
    from . import evaluation

    args = _evaluator_args(run)
    result = evaluation.evaluate(**args, alpha=run.alpha, mode=run.mode,
                                 per_snapshot=bool(run.per_snapshot_csv))
    alpha = run.alpha if run.alpha is not None else args["params"].alpha
    print(f"split={run.split}")
    print(f"mode={run.mode}")
    print(f"filter={run.filter}")
    print(f"alpha={alpha:g}")
    for prefix, report in (("", result.overall), ("object_", result.objects),
                           ("subject_", result.subjects)):
        print(*_report_lines(prefix, report), sep="\n")
    if run.per_snapshot_csv:
        rows = [f"{t},{r.count},{_metric_cells(r)}" for t, r in result.per_snapshot.items()]
        _emit_csv(run.per_snapshot_csv, "snapshot,count,mrr,hits1,hits3,hits10",
                  rows, run)
    return 0


def _cmd_ablate(run: RunConfig) -> int:
    from . import evaluation

    rows = evaluation.ablate(**_evaluator_args(run), alpha=run.alpha)
    csv_rows = [f"{mode},{_metric_cells(r)}" for mode, r in rows]
    _emit_csv(run.values.get("out"), "mode,mrr,hits1,hits3,hits10", csv_rows, run)
    return 0


def _cmd_sweep_alpha(run: RunConfig) -> int:
    from . import evaluation

    if not run.retrain:
        if run.checkpoint is None:
            raise ValueError("sweep-alpha: --checkpoint is required without --retrain")
        rows = evaluation.sweep_alpha(**_evaluator_args(run))
    else:
        run.values["checkpoint"] = None  # never read, so not echoed as the rows' source
        config = _config(run, TrainConfig)  # a bad value fails before any data is read
        ds = _dataset(run)
        args = _evaluator_args(run, ds)
        rows = []
        for alpha in evaluation.SWEEP_ALPHAS:
            params, _ = _fit(run, ds, dataclasses.replace(config, alpha=alpha))
            rows.append((alpha, evaluation.evaluate(**{**args, "params": params}, alpha=alpha,
                                                    mode="full").overall))
    csv_rows = [f"{alpha:.1f},{_metric_cells(r)}" for alpha, r in rows]
    _emit_csv(run.values.get("out"), "alpha,mrr,hits1,hits3,hits10", csv_rows, run)
    return 0


def _cmd_predict(run: RunConfig) -> int:
    import numpy as np

    from . import history, model

    params = model.load_checkpoint(run.checkpoint)
    # the history the query at --time sees: facts before it, none after
    vocab = history.HistVocab(history.FactIndex(_history(run, _dataset(run, params))), run.time)
    alpha = run.alpha if run.alpha is not None else params.alpha
    heads = model.score_heads(params, [run.subject], [run.relation], [run.time], vocab,
                              (run.mode,))
    probs = model.mix(heads, run.mode, alpha)[0]
    # the probability the copy head alone contributes: the mix with every other head zeroed
    copied = model.mix({name: head if name == "pc" else np.zeros_like(head)
                        for name, head in heads.items()}, run.mode, alpha)[0]
    order = np.argsort(-probs, kind="stable")[:run.topk]
    for rank, entity in enumerate(order.tolist(), start=1):
        p = probs[entity]
        share = copied[entity] / p if p > 0 else 0.0
        print(f"{rank},{entity},{p:.6g},{share:.6g}")
    return 0


_HANDLERS = {
    "prepare": _cmd_prepare,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "sweep-alpha": _cmd_sweep_alpha,
    "predict": _cmd_predict,
}


if __name__ == "__main__":
    sys.exit(main())
