"""Reading and writing, normalization, augmentation, and splitting of
temporal facts.

A fact is one row (subject, relation, object, time). Bulk operations work on
int64 arrays of shape (n, 4). Files follow the common benchmark layout: one
tab-separated fact per line in ``train.txt`` / ``valid.txt`` / ``test.txt``
plus a sidecar ``stat.txt`` holding the entity and relation counts, so
public event-graph dumps load unmodified. :func:`load_dataset` reads that
layout, normalizing the timestamps of all its splits as one timeline, and
:func:`write_dataset` writes it. :func:`chronological_split` cuts one
timeline into parts keyed by those split file names, which is what
:func:`write_dataset` takes.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

from .options import count_problem


class DataError(ValueError):
    """Malformed input file or out-of-contract dataset."""


@dataclasses.dataclass
class DatasetMeta:
    """Declared dataset bounds; every id in any split must stay below them."""

    num_entities: int
    num_relations: int  # before reciprocal augmentation
    num_snapshots: int = 0

    def __post_init__(self):
        for name in ("num_entities", "num_relations"):
            if problem := count_problem(name, getattr(self, name)):
                raise DataError(problem)


def as_quads(facts) -> np.ndarray:
    """Coerce a fact container to an (n, 4) int64 array."""
    arr = np.asarray(facts, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise DataError(f"expected an (n, 4) fact array, got shape {arr.shape}")
    return arr


def _check_ids(rows: np.ndarray, fields: str, num_entities: int, num_relations: int,
               what: str) -> np.ndarray:
    """``rows``, whose columns hold the ids ``fields`` names (``s``, ``p``,
    ``o``, ``t``), once every id is checked: entities in [0, num_entities),
    relations in [0, num_relations), times >= 0. Numpy indexing would answer
    a negative id as one counted from the end, so the first row out of range
    is an error that names it."""
    upper = {"s": num_entities, "p": num_relations, "o": num_entities, "t": np.inf}
    bad = ((rows < 0) | (rows >= [upper[field] for field in fields])).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"{what} row {i} {tuple(rows[i].tolist())} is out of range: entity "
                        f"ids must lie in [0, {num_entities}), relation ids in "
                        f"[0, {num_relations}) and times must be >= 0")
    return rows


def checked_quads(facts, num_entities: int, num_relations: int) -> np.ndarray:
    """``as_quads(facts)`` with every id checked: subjects and objects in
    [0, num_entities), relations in [0, num_relations), times >= 0; the
    first fact row out of range is an error that names it."""
    return _check_ids(as_quads(facts), "spot", num_entities, num_relations, "fact")


def checked_queries(subjects, relations, times, num_entities: int,
                    num_relations: int) -> np.ndarray:
    """The (B, 3) int64 (subject, relation, time) rows of a batch of
    queries, their ids checked as ``checked_quads`` checks facts'."""
    rows = np.column_stack([np.asarray(ids, dtype=np.int64)
                            for ids in (subjects, relations, times)])
    return _check_ids(rows, "spt", num_entities, num_relations, "query")


def parse_quadruple_file(lines: Iterable[str], meta: DatasetMeta) -> np.ndarray:
    """Parse fact lines into an (n, 4) array with raw (unnormalized) times.

    Each non-empty line needs at least four integer fields: subject,
    relation, object, raw time. Extra trailing columns are ignored and input
    order is preserved.
    """
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split("\t")
        if len(fields) < 4:
            # some dumps pad with spaces instead of tabs
            fields = stripped.split()
        if len(fields) < 4:
            raise DataError(f"line {lineno}: expected >=4 fields, got {len(fields)}")
        try:
            s, p, o, t = (int(fields[i]) for i in range(4))
        except ValueError:
            raise DataError(f"line {lineno}: non-integer field in {fields[:4]}") from None
        if not (0 <= s < meta.num_entities) or not (0 <= o < meta.num_entities):
            raise DataError(
                f"line {lineno}: entity id outside [0, {meta.num_entities})"
            )
        if not (0 <= p < meta.num_relations):
            raise DataError(
                f"line {lineno}: relation id outside [0, {meta.num_relations})"
            )
        if t < 0:
            raise DataError(f"line {lineno}: negative timestamp {t}")
        if max(s, p, o, t) >= 2**63:
            raise DataError(f"line {lineno}: field {max(s, p, o, t)} is too large for int64")
        rows.append((s, p, o, t))
    if not rows:
        return np.empty((0, 4), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def serialize_quadruples(quads) -> str:
    """Inverse of :func:`parse_quadruple_file` (tab-separated, one per line)."""
    q = as_quads(quads)
    return "".join(f"{s}\t{p}\t{o}\t{t}\n" for s, p, o, t in q.tolist())


def read_quadruple_file(path, meta: DatasetMeta) -> np.ndarray:
    """The (n, 4) int64 facts of a UTF-8 file, as :func:`parse_quadruple_file`
    parses its lines; an error names the file and the line.

    A file in the benchmark layout, every non-empty line holding four or more
    tab-separated integers whose first four are in range, is read at array
    speed by numpy's C reader. Any other file (space-separated or mixed
    lines, ``#`` lines, a byte-order mark, ``1_000``-style integers, an id
    out of range, a line that is not UTF-8) goes through the per-line
    parser, which alone accepts the other layouts and words every error, so
    both paths give the same array or the same error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                # an empty or blank file reads as (0, 4), with a warning that it has no data
                warnings.simplefilter("ignore", UserWarning)
                quads = np.loadtxt(fh, dtype=np.int64, delimiter="\t", usecols=range(4),
                                   ndmin=2, comments=None)
            return checked_quads(quads, meta.num_entities, meta.num_relations)
        except ValueError:  # another layout or out of range: the loop below words it
            fh.seek(0)
        try:
            return parse_quadruple_file(fh, meta)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def write_quadruple_file(path, quads) -> None:
    Path(path).write_text(serialize_quadruples(quads), encoding="utf-8")


def load_stat(path) -> DatasetMeta:
    """Read ``stat.txt``: the entity and relation counts (extra tokens
    ignored), judged by the count rule; an error names the file."""
    tokens = Path(path).read_text(encoding="utf-8").split()
    if len(tokens) < 2:
        raise DataError(f"{path}: expected 'N R', got {tokens!r}")
    try:
        return DatasetMeta(*map(int, tokens[:2]))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except ValueError:
        raise DataError(f"{path}: non-integer counts {tokens[:2]!r}") from None


def normalize_timestamps(quads, granularity: int) -> np.ndarray:
    """Floor raw times to snapshot indices and rebase the smallest to zero.

    The splits of one dataset are normalized as one array, their
    concatenation, so that their snapshot indices line up.
    """
    if problem := count_problem("granularity", granularity):
        raise DataError(problem)
    q = as_quads(quads).copy()
    if len(q) == 0:
        return q
    if (q[:, 3] < 0).any():
        raise DataError("raw timestamps must be non-negative")
    idx = q[:, 3] // granularity
    q[:, 3] = idx - idx.min()
    return q


def dedupe(quads) -> np.ndarray:
    """The distinct rows of an (n, 4) int64 array in ascending lexicographic
    order, first column first: the rows and order ``np.unique(axis=0)``
    gives, from a sort of the rows' indices and a comparison of neighbours."""
    q = as_quads(quads)
    q = q[np.lexsort(q.T[::-1])]  # lexsort's last key is its primary one
    fresh = np.ones(len(q), dtype=bool)
    fresh[1:] = (q[1:] != q[:-1]).any(axis=1)
    return q[fresh]


def augment_reciprocal(quads, meta: DatasetMeta) -> tuple[np.ndarray, int]:
    """Add an inverse fact (o, p + R, s, t) for every (s, p, o, t).

    Object prediction on relation p + R answers subject prediction on p, so
    one model and one historical vocabulary serve both query directions.
    Returns the augmented facts (originals first) and the doubled relation
    count. Re-augmenting already augmented facts is rejected.
    """
    q = as_quads(quads)
    r_aug = 2 * meta.num_relations
    if len(q) == 0:
        return q, r_aug
    if int(q[:, 1].max()) >= meta.num_relations:
        raise DataError("facts already carry reciprocal relation ids")
    inv = q[:, [2, 1, 0, 3]].copy()
    inv[:, 1] += meta.num_relations
    return np.concatenate([q, inv], axis=0), r_aug


def chronological_split(quads, ratios: tuple[float, ...] = (0.8, 0.1, 0.1)
                        ) -> tuple[dict[str, np.ndarray], tuple[int, ...]]:
    """Split on snapshot boundaries, matching fact-count ratios as closely as
    an exhaustive boundary search permits.

    Returns the parts by split file name (``train``, ``valid`` and ``test``
    for three ratios, ``train`` and ``test`` for two), each holding its facts
    in input order, and the boundaries: the first snapshot index of each part
    after the first, so the realized cut can be audited. Deviation is the L1
    distance between realized and target fact fractions; ties go to the
    earliest boundaries. A snapshot is never divided, so every snapshot
    index of a part precedes every index of the next.
    """
    q = as_quads(quads)
    if len(ratios) not in (2, 3):
        raise DataError("ratios must have two or three entries")
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must be positive and sum to 1, got {ratios}")
    times, sizes = np.unique(q[:, 3], return_counts=True)
    if len(times) < len(ratios):
        raise DataError(f"need at least {len(ratios)} non-empty snapshots, got {len(times)}")
    prefix = np.cumsum(sizes)
    total = float(prefix[-1])
    fr = prefix[:-1] / total  # fr[b - 1]: the share of the facts in the first b snapshots
    # the deviation of the first part ending, and of the last part starting, at each boundary
    head = np.abs(fr - ratios[0])
    tail = np.abs(1.0 - fr - ratios[-1])
    if len(ratios) == 2:
        cuts = (int(np.argmin(head + tail)) + 1,)  # number of train snapshots
    else:
        best = (np.inf, ())
        for i in range(1, len(times) - 1):  # i = number of train snapshots
            j = np.arange(i + 1, len(times))  # j = number of train + valid snapshots
            dev = (head[i - 1] + np.abs((prefix[j - 1] - prefix[i - 1]) / total - ratios[1])
                   + tail[j - 1])
            k = int(np.argmin(dev))
            if dev[k] < best[0]:
                best = (float(dev[k]), (i, int(j[k])))
        cuts = best[1]
    boundaries = tuple(int(times[b]) for b in cuts)
    part = np.searchsorted(boundaries, q[:, 3], side="right")
    names = ("train", "valid", "test") if len(ratios) == 3 else ("train", "test")
    return {name: q[part == k] for k, name in enumerate(names)}, boundaries


@dataclasses.dataclass
class Dataset:
    """Normalized splits of one benchmark plus its declared bounds."""

    meta: DatasetMeta
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def split(self, name: str) -> np.ndarray:
        if name not in ("train", "valid", "test"):
            raise DataError(f"unknown split {name!r}")
        return getattr(self, name)


def load_dataset(root, granularity: int = 1) -> Dataset:
    """Load train/valid/test plus stat.txt from a directory.

    The splits' timestamps are normalized as one array, their concatenation,
    so snapshot indices line up; each split is then deduplicated.
    ``valid.txt`` and ``test.txt`` may be absent (some benchmarks ship
    without a validation set), yielding empty arrays.
    """
    if problem := count_problem("granularity", granularity):
        raise DataError(problem)
    root = Path(root)
    meta = load_stat(root / "stat.txt")
    raw = []
    for name in ("train", "valid", "test"):
        path = root / f"{name}.txt"
        raw.append(read_quadruple_file(path, meta) if path.exists() else np.empty((0, 4), np.int64))
    if len(raw[0]) == 0:
        raise DataError(f"{root}: train.txt missing or empty")
    joint = normalize_timestamps(np.concatenate(raw), granularity)
    meta.num_snapshots = 1 + int(joint[:, 3].max())
    ends = np.cumsum([len(q) for q in raw[:-1]])
    return Dataset(meta, *map(dedupe, np.split(joint, ends)))


def write_dataset(root, meta: DatasetMeta, splits: dict[str, np.ndarray]) -> None:
    """Write the facts ``splits`` maps split names to as their split files,
    and ``meta``'s counts as ``stat.txt``, into the directory ``root``, made
    if missing. Any other split file there is deleted, so that no split of an
    earlier dataset is read as part of this one."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test"):
        path = root / f"{name}.txt"
        if name in splits:
            write_quadruple_file(path, splits[name])
        else:
            path.unlink(missing_ok=True)
    (root / "stat.txt").write_text(f"{meta.num_entities} {meta.num_relations}\n",
                                   encoding="utf-8")
