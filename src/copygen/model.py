"""Forward model: two affine scoring heads over (subject, relation, time)
inputs — a copy head masked down to historically seen objects and an
open-vocabulary generation head — mixed into one distribution over entities.

Snapshot k embeds as t_k = (k + 1)·τ, so the time third of a head's affine
map, W_t t_k, is (k + 1) times one (N,) vector W_t τ. Each head therefore
multiplies only the [subject; relation] inputs, a K=2d GEMM against the
first 2d columns of its weights, and adds (k + 1)·(W_t τ) and the bias to
each block of GEMM rows afterwards (``build_heads``).

Probabilities are always computed in float64 (parameters are typically
float32); the softmax is max-shifted, which the -100 mask magnitude makes
mandatory.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from pathlib import Path

import numpy as np

from .data import checked_queries
from .options import (MODE_HEADS, MODES, alpha_problem, count_problem, heads_of,
                      hyperparameter_problem, magnitude_problem, require)
# The forward stages are called through this module's namespace, where the
# benchmark's tracer (bench/spans.py) wraps them; it also wraps masks_for
# here, which this module does not call.
from .history import HistVocab, apply_mask, block_pairs, masks_for  # noqa: F401

CHECKPOINT_MAGIC = b"CYG1"
_CONFIG_MAGIC = b"CFG1"
# magic, N, R_aug, T, d, mask magnitude, alpha
_HEADER = struct.Struct("<4siiiiff")
# The learnable tensors, in checkpoint order.
TENSOR_NAMES = ("entity_emb", "relation_emb", "time_unit", "w_copy", "b_copy", "w_gen", "b_gen")
# Elements worked on together by a block of (B, N) float64 head rows, by a
# block of Xavier draws and by the AMSGrad update (rows of each tensor): 32k
# float64 elements are 256 KB, so a block's buffers and temporaries stay in
# L2 cache, where whole-array ones (4.3M elements for w_copy at the ICEWS14
# shape) do not. At ~7k entities a head block is 4 rows (on a 2-core VM with
# 2 MB of L2 per core, 8-row blocks ran the remix 6% slower than 4-row ones;
# the train step ran 4- and 9-row blocks within noise); at a few hundred
# entities, 4-row blocks spent more time in their numpy calls than in
# arithmetic (a 100-entity fit ran 4.4x slower, and ablate at 100 entities
# 1.6-2.2x slower).
CACHE_ELEMENTS = 1 << 15


def block_rows(row_elements: int) -> int:
    """Rows of a cache-sized block of an array whose rows hold
    ``row_elements`` entries: about ``CACHE_ELEMENTS`` entries, and at least
    one row."""
    return max(1, CACHE_ELEMENTS // row_elements)


def tensor_shapes(n: int, r_aug: int, d: int) -> dict[str, tuple]:
    """Each learnable tensor's shape for N entities, R_aug relations and dim d."""
    return dict(zip(TENSOR_NAMES, [(n, d), (r_aug, d), (d,), (n, 3 * d), (n,), (n, 3 * d), (n,)]))


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite: a NaN reaches its min and
    max, an infinity is one of them, and neither reduction makes an
    array-sized temporary."""
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


@dataclasses.dataclass
class ModelParams:
    """All learnable tensors plus the fixed hyperparameters they were trained
    with.

    The affine maps are stored as (N, 3d) acting on the concatenated
    [subject; relation; time] input; the scoring code applies the time
    columns as the rank-one term (k + 1)·(W_t τ) (see the module docstring).
    ``num_snapshots`` records the dataset horizon; time embeddings
    extrapolate naturally beyond it.
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
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    def validate(self) -> None:
        n, d = self.entity_emb.shape
        expected = tensor_shapes(n, self.relation_emb.shape[0], d)
        for name, arr in self.tensors().items():
            if arr.shape != expected[name]:
                raise ValueError(f"{name}: shape {arr.shape}, expected {expected[name]}")
            if not all_finite(arr):
                raise ValueError(f"{name}: non-finite entries")
        require(hyperparameter_problem(self.mask_magnitude, self.alpha))


def stable_softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax over the last axis, computed in float64.

    The logits are cast once into the result, a new array or the float64
    ``out`` (which may be ``logits`` itself), and the max-shift, exp and
    division run in place on it; the IEEE operations are those of the
    out-of-place formula. (A cast inside the subtraction, through its
    ``dtype``, took twice as long as the cast and the subtraction apart.)
    Each result row is finite or entirely NaN: a NaN or +inf logit, or a
    row of -inf logits, makes a shifted entry NaN and so the row's sum;
    otherwise every entry lies in [0, 1].
    """
    logits = np.asarray(logits)
    shift = logits.max(axis=-1, keepdims=True)
    z = np.empty(logits.shape) if out is None else out
    np.copyto(z, logits)
    z -= shift
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def query_inputs(params: ModelParams, subjects, relations) -> np.ndarray:
    """Concatenated [subject; relation] rows, shape (B, 2d): the inputs of
    both head GEMMs. The time input enters as ``time_directions``."""
    subjects = np.asarray(subjects, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    return np.concatenate([params.entity_emb[subjects], params.relation_emb[relations]],
                          axis=1)


def time_directions(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """W_t τ of the copy and of the generation head, (N,) each at parameter
    dtype: a query at snapshot k, for any k >= 0 (beyond the training
    horizon too), adds (k + 1) times it to its head's GEMM row."""
    time_cols = slice(2 * params.dim, None)
    return (params.w_copy[:, time_cols] @ params.time_unit,
            params.w_gen[:, time_cols] @ params.time_unit)


def copy_index_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """The copy head's GEMM rows, (B, N): ``query_inputs`` rows times the
    first 2d columns of ``w_copy`` (a view), in a new array.
    ``build_heads`` adds the time term and the bias and takes the tanh."""
    return inputs @ params.w_copy[:, :2 * params.dim].T


def generation_logits_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """The generation head's GEMM rows, (B, N), as ``copy_index_batch``
    computes the copy head's; ``build_heads`` adds the time term and the
    bias."""
    return inputs @ params.w_gen[:, :2 * params.dim].T


def time_multipliers(times, dtype) -> np.ndarray:
    """The multipliers k + 1 of W_t τ of queries at snapshots ``times``."""
    return (np.asarray(times) + 1).astype(dtype)


def _add_time_and_bias(rows: np.ndarray, times, direction: np.ndarray, bias: np.ndarray,
                       term: np.ndarray) -> None:
    """Add the term (k + 1)·``direction`` + ``bias``, rounded at the rows'
    dtype, to each (N,) GEMM row of a query at snapshot k, in place;
    ``term``, of the rows' shape and dtype, is overwritten with it."""
    np.multiply.outer(time_multipliers(times, rows.dtype), direction, out=term)
    term += bias
    rows += term


def check_mix(mode: str, alpha: float = 0.0) -> None:
    """Reject an unknown mode, or an alpha outside [0, 1] in a mode that
    mixes two heads (``copy-only`` and ``gen-only`` ignore alpha)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if len(MODE_HEADS[mode]) == 2:
        require(alpha_problem(alpha))


def build_heads(heads: dict[str, np.ndarray], params: ModelParams,
                directions: tuple[np.ndarray, np.ndarray], times,
                index: np.ndarray | None, logits: np.ndarray | None,
                rows: np.ndarray, objects: np.ndarray) -> dict[str, np.ndarray]:
    """Turn a block of queries' head GEMM rows into their float64 softmax
    heads, written in place into ``heads`` (any of ``pc``, ``pg`` and
    ``pg_new``, at least one, each a (b, N) float64 array with contiguous
    rows that shares no memory with ``index`` or ``logits``), and return
    ``heads``.

    ``index`` (for ``pc``) and ``logits`` (for ``pg`` / ``pg_new``) are the
    block's (b, N) rows of ``copy_index_batch`` and
    ``generation_logits_batch`` at parameter dtype, for queries at snapshots
    ``times``; either is None when no head needs it. They are finished in
    place first: each row gains the term (k + 1)·direction + bias of its
    head (``directions`` from ``time_directions``), rounded before it is
    added; the copy rows then take their tanh, so that afterwards ``index``
    holds the tanh copy index and ``logits`` the generation logits. The
    term is built in the first head's rows, viewed at parameter dtype: their
    contents are free until a head is written, and no head is written before
    both terms have been added. ``rows`` and ``objects`` are the block's history
    pairs, (row within the block, object), in which a pair may repeat.
    ``pg`` is softmaxed straight from the logits, which the softmax casts;
    ``pc`` is the index and ``pg_new`` the logits cast, masked by
    ``apply_mask`` (``pg_new`` at the candidates, with ``invert``) and
    softmaxed. The mask magnitude is checked before anything is written,
    whichever heads are built. Each head row is finite or entirely NaN (see
    ``stable_softmax``).
    """
    magnitude = params.mask_magnitude
    require(magnitude_problem(magnitude))
    term = next(iter(heads.values())).view(params.time_unit.dtype)[:, :params.num_entities]
    if index is not None:
        _add_time_and_bias(index, times, directions[0], params.b_copy, term)
        np.tanh(index, out=index)
    if logits is not None:
        _add_time_and_bias(logits, times, directions[1], params.b_gen, term)
    if "pg" in heads:
        stable_softmax(logits, out=heads["pg"])
    for name, source, invert in (("pc", index, False), ("pg_new", logits, True)):
        if name in heads:
            np.copyto(heads[name], source)
            apply_mask(heads[name], rows, objects, magnitude, invert=invert)
            stable_softmax(heads[name], out=heads[name])
    return heads


def walk_blocks(params: ModelParams, queries: np.ndarray, vocab: HistVocab, index, logits, out):
    """The one block walk of the head pass: yield ``(rows, heads)`` for each
    block of ``block_rows(N)`` rows of the (B, 3) checked (s, p, t)
    ``queries``, whose (B, N) head GEMM rows are ``index`` (from
    ``copy_index_batch``, for ``pc``) and ``logits`` (from
    ``generation_logits_batch``, for ``pg`` / ``pg_new``), either None when
    no head needs it.

    The time directions are computed and the batch's history pairs selected
    once. Each block's heads are the dict ``out(rows)`` returns for its row
    slice; ``build_heads`` writes them in place, finishing the block's GEMM
    rows in place too (into the tanh copy index and the generation logits),
    before the block is yielded. The walk keeps no reference to a block's
    heads, so a caller that drops its own frees them before the next
    block's are made.
    """
    subjects, relations, times = queries.T
    directions = time_directions(params)
    for rows, *pairs in block_pairs(vocab, subjects, relations, block_rows(params.num_entities)):
        yield rows, build_heads(out(rows), params, directions, times[rows],
                                None if index is None else index[rows],
                                None if logits is None else logits[rows], *pairs)


def head_blocks(params: ModelParams, queries: np.ndarray, vocab: HistVocab, need, out):
    """The forward head pass of scoring and evaluation: run the K=2d head
    GEMMs that the head names ``need`` require (the copy GEMM for ``pc``,
    the generation GEMM for ``pg`` / ``pg_new``) on the whole batch of (B, 3)
    checked (s, p, t) ``queries``, then yield its blocks' ``(rows, heads)``
    from ``walk_blocks``. The GEMM outputs are freed once the blocks are
    exhausted.
    """
    subjects, relations, _ = queries.T
    inputs = query_inputs(params, subjects, relations)
    index = copy_index_batch(params, inputs) if "pc" in need else None
    logits = generation_logits_batch(params, inputs) if set(need) - {"pc"} else None
    del inputs
    yield from walk_blocks(params, queries, vocab, index, logits, out)


def score_heads(params: ModelParams, subjects, relations, times, vocab: HistVocab,
                modes) -> dict[str, np.ndarray]:
    """The float64 softmax heads that ``modes`` mix, keyed as in
    ``MODE_HEADS`` and ordered as ``heads_of(modes)``, each of shape (B, N).

    Each head is computed once, however many modes (or alphas) are later
    mixed from them with ``mix``. ``head_blocks`` runs on the whole batch
    once per GEMM, the copy head's and then the generation heads', writing
    row slices of the results, so next to the heads only one GEMM output is
    alive. Ids out of range are rejected, naming the first such query row.
    """
    for mode in modes:
        check_mix(mode)
    queries = checked_queries(subjects, relations, times, params.num_entities,
                              params.num_relations)
    need = heads_of(modes)
    heads = {name: np.empty((len(queries), params.num_entities)) for name in need}
    for copy in (True, False):  # the copy head, then the generation heads
        part = [name for name in need if (name == "pc") == copy]
        if part:
            for _ in head_blocks(params, queries, vocab, part,
                                 lambda rows: {name: heads[name][rows] for name in part}):
                pass
    return heads


def mix(heads: dict[str, np.ndarray], mode: str, alpha: float) -> np.ndarray:
    """Probability rows of one mode from the heads ``MODE_HEADS[mode]``
    names in ``score_heads`` output (or in row slices of it): one head
    unchanged (``copy-only`` / ``gen-only`` are ``full`` at alpha 1 / 0), or
    the convex mixture ``alpha * pc + (1 - alpha) * pg`` (``pg_new`` for
    ``gen-new``) in a new array."""
    check_mix(mode, alpha)
    first, *second = (heads[name] for name in MODE_HEADS[mode])
    if not second:
        return first
    mixed = first * alpha
    mixed += (1.0 - alpha) * second[0]
    return mixed


def score_batch(params: ModelParams, subjects, relations, times, vocab: HistVocab,
                *, alpha: float | None = None, mode: str = "full") -> np.ndarray:
    """Probability rows of one mode for a batch of queries, shape (B, N):
    ``score_heads`` and one ``mix`` (alpha None means the checkpoint's)."""
    heads = score_heads(params, subjects, relations, times, vocab, (mode,))
    return mix(heads, mode, params.alpha if alpha is None else alpha)


def save_checkpoint(params: ModelParams, path, config_text: str | None = None) -> None:
    """Write the binary checkpoint.

    Layout: magic ``CYG1``; little-endian int32 N, R_aug, T, d; float32 mask
    magnitude and alpha; then the float32 tensors row-major in the order
    entity_emb, relation_emb, time_unit, w_copy, b_copy, w_gen, b_gen. An
    optional ``CFG1`` text block (UTF-8 key=value lines) may follow; readers
    of the fixed prefix can ignore it. The file is written beside ``path``
    and renamed into place, so a failed write leaves any old one intact.
    """
    params.validate()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(CHECKPOINT_MAGIC, params.num_entities, params.num_relations,
                                  params.num_snapshots, params.dim,
                                  params.mask_magnitude, params.alpha))
            for arr in params.tensors().values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            if config_text:
                fh.write(_CONFIG_MAGIC)
                fh.write(config_text.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _checkpoint_layout(path, blob: bytes | bytearray) -> tuple[tuple, dict[str, tuple], int]:
    """Header values (T, mask magnitude, alpha), each tensor's (offset,
    shape) and the tensors' end, checked against the file before any read:
    the tensors must end at EOF or at a ``CFG1`` marker."""
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {bytes(blob[:4])!r})")
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header ({len(blob)} of {_HEADER.size} bytes)")
    _, n, r_aug, horizon, d, mag, alpha = _HEADER.unpack_from(blob)
    for problem in (count_problem("N", n), count_problem("R_aug", r_aug),
                    count_problem("T", horizon, least=0), count_problem("d", d),
                    hyperparameter_problem(mag, alpha)):
        if problem:
            raise ValueError(f"{path}: header field {problem}")
    tensors, end = {}, _HEADER.size
    for name, shape in tensor_shapes(n, r_aug, d).items():
        tensors[name] = (end, shape)
        end += 4 * math.prod(shape)
        if end > len(blob):
            raise ValueError(f"{path}: truncated in tensor {name} "
                             f"(it ends at byte {end}, the file has {len(blob)})")
    if len(blob) > end and blob[end:end + 4] != _CONFIG_MAGIC:
        raise ValueError(f"{path}: {len(blob) - end} unexpected bytes after the tensors "
                         f"(no {_CONFIG_MAGIC.decode()} marker)")
    return (horizon, mag, alpha), tensors, end


def load_checkpoint(path) -> ModelParams:
    """The checkpoint at ``path``, read once into one writeable buffer whose
    views are the tensors (float32, little-endian), so loading holds no
    second copy of them."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    (horizon, mag, alpha), tensors, _ = _checkpoint_layout(path, blob)
    arrays = [np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=offset)
              .reshape(shape) for offset, shape in tensors.values()]
    params = ModelParams(*arrays, num_snapshots=horizon,
                         mask_magnitude=float(mag), alpha=float(alpha))
    params.validate()
    return params

