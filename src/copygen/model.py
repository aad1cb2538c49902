"""Forward model: two affine scoring heads over (subject, relation, time)
inputs — a copy head masked down to historically seen objects and an
open-vocabulary generation head — mixed into one distribution over entities.

Probabilities are always computed in float64 (parameters are typically
float32); the softmax is max-shifted, which the -100 mask magnitude makes
mandatory.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path

import numpy as np

# score_heads calls masks_for and this module's stage functions through the
# module namespace, where the benchmark's tracer (bench/spans.py) wraps them.
from .history import HistVocab, masks_for

MODES = ("full", "copy-only", "gen-only", "gen-new")

CHECKPOINT_MAGIC = b"CYG1"
_CONFIG_MAGIC = b"CFG1"


@dataclasses.dataclass
class Query:
    subject: int
    relation: int
    time: int  # 0-based snapshot index


@dataclasses.dataclass
class ModelParams:
    """All learnable tensors plus the fixed hyperparameters they were trained
    with.

    The affine maps are stored as (N, 3d) acting on the concatenated
    [subject; relation; time] input. ``num_snapshots`` records the dataset
    horizon; time embeddings extrapolate naturally beyond it.
    """

    entity_emb: np.ndarray  # (N, d)
    relation_emb: np.ndarray  # (R_aug, d)
    time_unit: np.ndarray  # (d,)
    w_copy: np.ndarray  # (N, 3d)
    b_copy: np.ndarray  # (N,)
    w_gen: np.ndarray  # (N, 3d)
    b_gen: np.ndarray  # (N,)
    num_snapshots: int
    mask_magnitude: float = 100.0
    alpha: float = 0.5

    @property
    def num_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def num_relations(self) -> int:
        """Relation count including reciprocal relations."""
        return self.relation_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.entity_emb.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        """Learnable tensors in checkpoint order."""
        return {
            "entity_emb": self.entity_emb,
            "relation_emb": self.relation_emb,
            "time_unit": self.time_unit,
            "w_copy": self.w_copy,
            "b_copy": self.b_copy,
            "w_gen": self.w_gen,
            "b_gen": self.b_gen,
        }

    def validate(self) -> None:
        n, d = self.entity_emb.shape
        expected = {
            "entity_emb": (n, d),
            "relation_emb": (self.relation_emb.shape[0], d),
            "time_unit": (d,),
            "w_copy": (n, 3 * d),
            "b_copy": (n,),
            "w_gen": (n, 3 * d),
            "b_gen": (n,),
        }
        for name, arr in self.tensors().items():
            if arr.shape != expected[name]:
                raise ValueError(f"{name}: shape {arr.shape}, expected {expected[name]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name}: non-finite entries")

    def astype(self, dtype) -> "ModelParams":
        return dataclasses.replace(
            self, **{k: v.astype(dtype) for k, v in self.tensors().items()}
        )


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, computed in float64.

    The shifted copy is the only temporary: exp and the division run in
    place on it, which keeps the same IEEE operations as out-of-place ones.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def time_embedding(params: ModelParams, k: int) -> np.ndarray:
    """Embedding of snapshot k: (k + 1) steps of the unit time vector.

    Defined for any k >= 0, including indices beyond the training horizon.
    """
    if k < 0:
        raise ValueError("snapshot index must be non-negative")
    return (k + 1) * params.time_unit


def query_inputs(params: ModelParams, subjects, relations, times) -> np.ndarray:
    """Concatenated [subject; relation; time] rows, shape (B, 3d)."""
    subjects = np.asarray(subjects, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    steps = np.asarray(times, dtype=np.int64) + 1
    s_emb = params.entity_emb[subjects]
    p_emb = params.relation_emb[relations]
    t_emb = steps[:, None].astype(params.time_unit.dtype) * params.time_unit
    return np.concatenate([s_emb, p_emb, t_emb], axis=1)


def copy_index_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """tanh-bounded copy index vectors, shape (B, N)."""
    return np.tanh(inputs @ params.w_copy.T + params.b_copy)


def generation_logits_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    return inputs @ params.w_gen.T + params.b_gen


def copy_probs_batch(params: ModelParams, subjects, relations, times,
                     masks: np.ndarray) -> np.ndarray:
    inputs = query_inputs(params, subjects, relations, times)
    index = copy_index_batch(params, inputs)
    return stable_softmax(index.astype(np.float64) + masks)


def generation_probs_batch(params: ModelParams, subjects, relations, times) -> np.ndarray:
    inputs = query_inputs(params, subjects, relations, times)
    return stable_softmax(generation_logits_batch(params, inputs))


def copy_probs(params: ModelParams, query: Query, mask: np.ndarray) -> np.ndarray:
    """Copy-mode distribution: softmax(tanh(W_c [s; p; t_k] + b_c) + mask)."""
    return copy_probs_batch(params, [query.subject], [query.relation], [query.time],
                            np.asarray(mask, dtype=np.float64)[None, :])[0]


def generation_probs(params: ModelParams, query: Query) -> np.ndarray:
    """Generation-mode distribution over the whole entity vocabulary (no mask,
    no tanh)."""
    return generation_probs_batch(params, [query.subject], [query.relation],
                                  [query.time])[0]


def combine(pc: np.ndarray, pg: np.ndarray, alpha: float) -> np.ndarray:
    """Convex mixture alpha * p(copy) + (1 - alpha) * p(generation)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * np.asarray(pc) + (1.0 - alpha) * np.asarray(pg)


# The softmax heads each mode mixes: pc is the copy head, pg the generation
# head, pg_new the generation head restricted to entities outside the history.
MODE_HEADS = {"full": ("pc", "pg"), "copy-only": ("pc",), "gen-only": ("pg",),
              "gen-new": ("pc", "pg_new")}


def score_heads(params: ModelParams, subjects, relations, times, vocab: HistVocab,
                modes) -> dict[str, np.ndarray]:
    """The float64 softmax heads that ``modes`` mix, keyed as in
    ``MODE_HEADS``, each of shape (B, N).

    The query inputs are built once and each head is computed once, however
    many modes (or alphas) are later mixed from them with ``mix``.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    need = {head for mode in modes for head in MODE_HEADS[mode]}
    n = params.num_entities
    mag = params.mask_magnitude
    inputs = query_inputs(params, subjects, relations, times)

    # Each mask is added in place and dropped at once, so at most one
    # (B, N) mask is alive next to the logits.
    heads = {}
    if "pc" in need:
        logits = copy_index_batch(params, inputs).astype(np.float64)
        logits += masks_for(vocab, subjects, relations, n, mag)
        heads["pc"] = stable_softmax(logits)
        del logits
    if "pg" in need or "pg_new" in need:
        logits = generation_logits_batch(params, inputs).astype(np.float64)
        if "pg" in need:
            heads["pg"] = stable_softmax(logits)
        if "pg_new" in need:
            logits += masks_for(vocab, subjects, relations, n, mag, invert=True)
            heads["pg_new"] = stable_softmax(logits)
    return heads


def mix(heads: dict[str, np.ndarray], mode: str, alpha: float) -> np.ndarray:
    """Probability rows of one mode from ``score_heads`` output.

    ``copy-only`` / ``gen-only`` return one head unchanged (identical to
    ``full`` at alpha 1 / 0); ``full`` and ``gen-new`` combine the copy head
    with ``pg`` / ``pg_new``.
    """
    if mode == "copy-only":
        return heads["pc"]
    if mode == "gen-only":
        return heads["pg"]
    return combine(heads["pc"], heads["pg_new" if mode == "gen-new" else "pg"], alpha)


def score_batch(params: ModelParams, subjects, relations, times, vocab: HistVocab,
                *, alpha: float | None = None, mode: str = "full",
                return_copy: bool = False):
    """Per-mode probability rows for a batch of queries, shape (B, N).

    Modes: ``full`` mixes both heads; ``copy-only`` / ``gen-only`` use one
    head (identical to full at alpha 1 / 0); ``gen-new`` mixes the copy head
    with a generation head restricted to entities *outside* the historical
    vocabulary. With ``return_copy`` the copy-mode rows are returned too
    (None when the mode has no copy share).
    """
    heads = score_heads(params, subjects, relations, times, vocab, (mode,))
    probs = mix(heads, mode, params.alpha if alpha is None else alpha)
    return (probs, heads.get("pc")) if return_copy else probs


def score_query(params: ModelParams, query: Query, vocab: HistVocab, *,
                alpha: float | None = None, mode: str = "full") -> np.ndarray:
    return score_batch(params, [query.subject], [query.relation], [query.time],
                       vocab, alpha=alpha, mode=mode)[0]


def predict(params: ModelParams, query: Query, vocab: HistVocab, *,
            alpha: float | None = None, mode: str = "full") -> np.ndarray:
    """Entity ids ranked by descending probability, ties broken by ascending id."""
    probs = score_query(params, query, vocab, alpha=alpha, mode=mode)
    return np.argsort(-probs, kind="stable")


def save_checkpoint(params: ModelParams, path, config_text: str | None = None) -> None:
    """Write the binary checkpoint.

    Layout: magic ``CYG1``; little-endian int32 N, R_aug, T, d; float32 mask
    magnitude and alpha; then the float32 tensors row-major in the order
    entity_emb, relation_emb, time_unit, w_copy, b_copy, w_gen, b_gen. An
    optional ``CFG1`` text block (UTF-8 key=value lines) may follow; readers
    of the fixed prefix can ignore it.
    """
    params.validate()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<iiii", params.num_entities, params.num_relations,
                             params.num_snapshots, params.dim))
        fh.write(struct.pack("<ff", params.mask_magnitude, params.alpha))
        for arr in params.tensors().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        if config_text:
            fh.write(_CONFIG_MAGIC)
            fh.write(config_text.encode("utf-8"))


def load_checkpoint(path) -> ModelParams:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    n, r_aug, horizon, d = struct.unpack_from("<iiii", blob, 4)
    mag, alpha = struct.unpack_from("<ff", blob, 20)
    offset = 28
    shapes = [(n, d), (r_aug, d), (d,), (n, 3 * d), (n,), (n, 3 * d), (n,)]
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        arrays.append(arr.reshape(shape).copy())
        offset += 4 * count
    params = ModelParams(*arrays, num_snapshots=horizon,
                         mask_magnitude=float(mag), alpha=float(alpha))
    params.validate()
    return params


def checkpoint_config_text(path) -> str | None:
    """The trailing config block of a checkpoint, if one was embedded."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    n, r_aug, _, d = struct.unpack_from("<iiii", blob, 4)
    floats = n * d + r_aug * d + d + 2 * (n * 3 * d) + 2 * n
    pos = 28 + 4 * floats
    if len(blob) <= pos or blob[pos:pos + 4] != _CONFIG_MAGIC:
        return None
    return blob[pos + 4:].decode("utf-8")
