"""The benchmark's own ICEWS14-shaped input generator.

It does not use ``copygen.synth``, so a change to the program cannot change
the workload. The same shape and seed always give the same bytes; the
SHA-256 of those bytes (the fingerprint) is recorded per seed in
``reference.json`` and checked on every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
FILES = ("stat.txt", "train.txt", "valid.txt", "test.txt")


@dataclasses.dataclass(frozen=True)
class Shape:
    name: str
    entities: int
    relations: int
    snapshots: int
    facts_per_snapshot: int
    recurrence: float  # share of each snapshot's draws copied from history
    popularity: float  # Zipf exponent of entity and relation popularity
    train_window: int  # training snapshots in each icews14-train fit
    remix_queries: int  # size of the fixed icews14-remix test slice
    oracle_queries: int  # eval queries re-ranked by the brute-force oracle


ICEWS14 = Shape("icews14", entities=7128, relations=230, snapshots=365,
                facts_per_snapshot=200, recurrence=0.5, popularity=1.0,
                train_window=6, remix_queries=1024, oracle_queries=64)
TINY = Shape("tiny", entities=60, relations=6, snapshots=20,
             facts_per_snapshot=30, recurrence=0.5, popularity=1.0,
             train_window=6, remix_queries=64, oracle_queries=16)
SHAPES = {s.name: s for s in (ICEWS14, TINY)}


def _zipf_probs(count: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed popularity over ``count`` ids, hubs at random ids."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    probs = np.empty(count)
    probs[rng.permutation(count)] = weights / weights.sum()
    return probs


def generate(shape: Shape, seed: int) -> dict[str, np.ndarray]:
    """Snapshot-ordered (s, p, o, t) facts split 80/10/10 by snapshot.

    Each snapshot draws ``facts_per_snapshot`` facts. From the second
    snapshot on, a ``recurrence`` share of the draws copies a uniformly
    chosen earlier fact, so pairs with long histories recur more; the rest
    draw a fresh subject, relation and object from heavy-tailed popularity.
    Duplicates within a snapshot are dropped.
    """
    rng = np.random.default_rng(seed)
    n, r, f = shape.entities, shape.relations, shape.facts_per_snapshot
    ent_p = _zipf_probs(n, shape.popularity, rng)
    rel_p = _zipf_probs(r, shape.popularity, rng)
    history = np.empty((shape.snapshots * f, 3), dtype=np.int64)
    seen = 0
    chunks = []
    for k in range(shape.snapshots):
        copies = int(rng.binomial(f, shape.recurrence)) if k else 0
        fresh = f - copies
        s = rng.choice(n, size=fresh, p=ent_p)
        o = rng.choice(n, size=fresh, p=ent_p)
        o = np.where(o == s, (o + 1) % n, o)  # no self-loops
        p = rng.choice(r, size=fresh, p=rel_p)
        drawn = np.concatenate([history[rng.integers(seen, size=copies)],
                                np.column_stack([s, p, o])])
        facts = np.unique(drawn, axis=0)
        history[seen:seen + len(facts)] = facts
        seen += len(facts)
        chunks.append(np.column_stack([facts, np.full(len(facts), k, np.int64)]))
    quads = np.concatenate(chunks)
    train_end = int(0.8 * shape.snapshots + 0.5)
    valid_end = train_end + int(0.1 * shape.snapshots + 0.5)
    t = quads[:, 3]
    return {"train": quads[t < train_end],
            "valid": quads[(t >= train_end) & (t < valid_end)],
            "test": quads[t >= valid_end]}


def serialize(shape: Shape, splits: dict[str, np.ndarray]) -> dict[str, bytes]:
    """Dataset files in the layout ``copygen.data.load_dataset`` reads."""
    blobs = {"stat.txt": f"{shape.entities} {shape.relations}\n".encode()}
    for name in ("train", "valid", "test"):
        lines = ["\t".join(map(str, row)) for row in splits[name].tolist()]
        blobs[f"{name}.txt"] = ("\n".join(lines) + "\n").encode()
    return blobs


def fingerprint(blobs: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in FILES:
        digest.update(name.encode() + b"\0" + blobs[name] + b"\0")
    return digest.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class InputError(RuntimeError):
    """The generated input does not match its recorded fingerprint."""


def _expected_fingerprint(shape: Shape, seed: int, reference: dict) -> str | None:
    return reference["fingerprints"].get(shape.name, {}).get(str(seed))


def verify_generator(shape: Shape, reference: dict) -> None:
    """Regenerate the lowest recorded seed and compare its fingerprint, so an
    unrecorded seed still runs on the recorded generator."""
    recorded = reference["fingerprints"].get(shape.name)
    if not recorded:
        raise InputError(f"no recorded fingerprint for shape {shape.name!r}")
    seed = min(recorded, key=int)
    got = fingerprint(serialize(shape, generate(shape, int(seed))))
    if got != recorded[seed]:
        raise InputError(f"{shape.name} seed {seed}: generator fingerprint {got} "
                         f"!= recorded {recorded[seed]}")


def materialize(shape: Shape, seed: int, cache_root: Path, reference: dict) -> Path:
    """Write (or reuse) the dataset directory for ``seed`` and check it.

    The cache key includes a hash of this file, so an edited generator never
    reuses old files. Files are re-hashed on every use.
    """
    source = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    root = cache_root / f"{shape.name}-seed{seed}-{source}"
    marker = root / "fingerprint"
    if not marker.exists():
        blobs = serialize(shape, generate(shape, seed))
        root.mkdir(parents=True, exist_ok=True)
        for name, blob in blobs.items():
            (root / name).write_bytes(blob)
        marker.write_text(fingerprint(blobs))
    got = fingerprint({name: (root / name).read_bytes() for name in FILES})
    expected = _expected_fingerprint(shape, seed, reference)
    if expected is None:
        verify_generator(shape, reference)
        expected = marker.read_text()
    if got != expected:
        raise InputError(f"{root}: input fingerprint {got} != expected {expected}")
    return root
