"""Cross-entropy training of the copy/generation mixture.

Backpropagation is closed-form (the model is two affine maps, a tanh, two
softmaxes and a convex mixture), so there is no autodiff dependency; the
analytic gradients are checked against central finite differences in the
test suite. Parameters are float32 by default. The softmax heads, the loss,
the truth probabilities and the gradient deltas are computed in float64, a
cache-sized block of rows at a time; each delta is then cast once to the
parameters' dtype, its entries below that dtype's smallest normal flushed to
exactly zero first, and the backward GEMMs run at parameter precision.
Float64 parameters thus take an all-float64 path.

Like the forward heads (see ``copygen.model``), the backward treats the
time third of each head's weights as the rank-one term (k + 1)·(W_t τ): the
GEMMs multiply only the [subject; relation] inputs (K=2d), and the time
columns' gradient is the outer product of each delta's (k + 1)-weighted
column sums with τ.

A train step holds no gradient set: the backward hands each gradient block
(the (N, 3d) head weights' a block of entity rows at a time) to AMSGrad as
it is made, bitwise as if whole gradient sets were applied after it. A
non-finite block raises ``GradientError`` before it is applied, so a failed
step may leave the tensors before it updated.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np

from .data import checked_quads, dedupe
from .history import FactIndex, HistVocab, block_pairs
from .model import (
    CACHE_ELEMENTS,
    ModelParams,
    all_finite,
    block_rows,
    build_heads,
    check_mix,
    copy_index_batch,
    generation_logits_batch,
    hyperparameter_problem,
    query_inputs,
    tensor_shapes,
    time_directions,
)
# Unused here. They stay bound because the benchmark's tracer
# (bench/spans.py) wraps them in this module's namespace.
from .history import masks_for  # noqa: F401
from .model import stable_softmax  # noqa: F401

LOSS_FLOOR = 1e-30  # guards log() against truth-probability underflow
# Entity rows of a head-weight gradient block: 2.4 MB at d=200 in float32.
GRAD_BLOCK_ROWS = 1024


class GradientError(RuntimeError):
    """A gradient buffer picked up non-finite entries."""


@dataclasses.dataclass
class TrainConfig:
    alpha: float = 0.8
    dim: int = 200
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs: int = 30
    seed: int = 0
    mask_magnitude: float = 100.0
    mean_loss: bool = False  # reduction over a batch; sum is the definition
    patience: int | None = None  # stop after this many epochs without improvement
    dtype: type = np.float32

    def __post_init__(self):
        # the values the trained checkpoint's header will store
        problem = hyperparameter_problem(self.mask_magnitude, self.alpha)
        if problem:
            raise ValueError(problem)
        for name in ("dim", "batch_size", "epochs", "patience"):
            value = getattr(self, name)
            if name == "patience" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("dim", "learning_rate", "batch_size", "epochs"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.patience is not None and self.patience <= 0:
            raise ValueError("patience must be positive when set")


def xavier_init(shape, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Uniform on [-b, b] with b = sqrt(6 / (fan_in + fan_out)).

    For a 2-D shape the fans are the two axes; a 1-D shape (n,) is treated
    as a single row (fans 1 and n). The float64 draws are made and cast into
    the ``dtype`` tensor a row block of about ``CACHE_ELEMENTS`` at a time,
    so no whole-tensor float64 array exists; the generator yields its
    values in order, so the tensor is bitwise the whole-tensor draw's.
    """
    if len(shape) == 1:
        fan_in, fan_out = 1, shape[0]
    elif len(shape) == 2:
        fan_in, fan_out = shape
    else:
        raise ValueError(f"expected a 1-D or 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    rows = max(1, CACHE_ELEMENTS // math.prod(shape[1:]))
    for lo in range(0, len(out), rows):
        part = out[lo:lo + rows]
        part[...] = rng.uniform(-bound, bound, size=part.shape)
    return out


def init_params(num_entities: int, num_relations_aug: int, num_snapshots: int,
                config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Xavier-initialized weights and embeddings, drawn from ``rng`` in
    checkpoint order; affine biases start at zero."""
    dt = config.dtype
    shapes = tensor_shapes(num_entities, num_relations_aug, config.dim)
    return ModelParams(
        **{name: np.zeros(shape, dtype=dt) if name.startswith("b_")
           else xavier_init(shape, rng, dt) for name, shape in shapes.items()},
        num_snapshots=num_snapshots,
        mask_magnitude=config.mask_magnitude,
        alpha=config.alpha,
    )


def check_finite(name: str, grad: np.ndarray) -> None:
    """Raise ``GradientError`` naming tensor ``name`` if its gradient block
    ``grad`` has a NaN or infinite entry (``all_finite``)."""
    if not all_finite(grad):
        raise GradientError(f"non-finite gradient in {name}")


def _flush_cast(delta: np.ndarray, dtype, out: np.ndarray) -> np.ndarray:
    """``delta`` (float64) at ``dtype`` for the backward GEMMs, written into
    ``out``, with every entry below the dtype's smallest normal set to
    exactly +0.0; float64 is copied unchanged.

    Masked copy probabilities sit near e^-magnitude (4e-44 at the default
    100), below float32's smallest normal (1.2e-38), so without the flush
    most of the copy delta reaches the GEMMs as float32 subnormals, which
    slow them several-fold. The gradients would differ only below float32's
    normal range, so the time alone shows a missing flush.
    """
    np.copyto(out, delta, casting="same_kind")
    if delta.dtype != dtype:
        tiny = np.finfo(dtype).tiny
        small = delta < tiny
        small &= delta > -tiny
        np.copyto(out, 0.0, where=small)
    return out


def _loss_and_grads(params: ModelParams, batch, vocab: HistVocab, alpha: float,
                    *, apply: Callable[[str, int, np.ndarray], None],
                    reduction: str = "sum") -> float:
    """Summed (or mean) cross-entropy of the mixture, -sum(ln p(truth)), over
    a batch of (s, p, truth, k) rows. Its analytic gradients go, each block
    checked finite first, to the sink ``apply(name, first_row, block)``:
    the generation and then the copy head's weights in blocks of
    ``GRAD_BLOCK_ROWS`` entity rows (one reused buffer, valid during the
    call), then the embeddings, the biases and τ whole. The sink may update
    the parameters: the backward reads each tensor before its first block
    is passed.

    The two K=2d head GEMMs and the backward GEMMs run on the whole batch;
    the float64 work between them runs on blocks of rows, whose heads and
    deltas stay in cache. ``build_heads`` adds each block's time terms and
    biases to its GEMM rows, takes the copy tanh, and turns the rows into
    both heads in reused float64 buffers, which then become the losses and
    both deltas, flush-cast back over the block's rows of the GEMM outputs.
    Every operation is row-wise, so losses and gradients are bitwise those
    of the whole-batch formulas.
    """
    check_mix("full", alpha)
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    q = checked_quads(batch, params.num_entities, params.num_relations)
    if len(q) == 0:
        raise ValueError("batch is empty")
    subjects, relations, truths, steps = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    n = params.num_entities
    d = params.dim
    m = len(q)

    losses = np.empty(m)
    height = block_rows(n)
    # Row 0 of each head buffer carries the running bias gradient (below).
    pc, pg = np.empty((height + 1, n)), np.empty((height + 1, n))
    tanh_grad = np.empty((height, n))
    term = np.empty((height, n), dtype=params.time_unit.dtype)
    inputs = query_inputs(params, subjects, relations)  # (m, 2d)
    directions = time_directions(params)
    # (m, N) at parameter dtype; build_heads turns each block's rows into the
    # tanh copy index and the generation logits, then they become its deltas
    index = copy_index_batch(params, inputs)
    logits = generation_logits_batch(params, inputs)
    dt = index.dtype
    for block, *pairs in block_pairs(vocab, subjects, relations, height):
        lo = block.start
        t = truths[block]
        b = len(t)
        rows = np.arange(b)
        c, g = pc[1:b + 1], pg[1:b + 1]
        build_heads({"pc": c, "pg": g}, params, directions, steps[block], index[block],
                    logits[block], *pairs, term[:b])
        floored = np.maximum(alpha * c[rows, t] + (1.0 - alpha) * g[rows, t], LOSS_FLOOR)
        losses[block] = -np.log(floored)

        # d(loss)/d(copy logits): -(alpha / P) * a_y * (onehot - a); same shape
        # for the generation logits with the (1 - alpha) weight. The mask is
        # constant. Neither head is read again, so each delta is built over it.
        coef_c = -(alpha * c[rows, t] / floored)
        coef_g = -((1.0 - alpha) * g[rows, t] / floored)
        np.multiply(c, -coef_c[:, None], out=c)
        c[rows, t] += coef_c
        np.multiply(g, -coef_g[:, None], out=g)
        g[rows, t] += coef_g
        # through the tanh of the copy index
        grad = np.square(index[block], out=tanh_grad[:b], dtype=np.float64)
        np.subtract(1.0, grad, out=grad)
        c *= grad
        if reduction == "mean":
            c /= m
            g /= m
        # The bias gradients sum the float64 deltas. numpy's axis-0 sum adds
        # the rows one by one in order, so summing the running total with
        # the block's rows continues the whole-batch sum exactly (a sum of
        # per-block sums would round differently).
        first = 0 if lo else 1
        pc[0] = pc[first:b + 1].sum(axis=0)
        pg[0] = pg[first:b + 1].sum(axis=0)
        _flush_cast(c, dt, out=index[block])
        _flush_cast(g, dt, out=logits[block])
    loss = float(losses.mean() if reduction == "mean" else losses.sum())
    b_copy, b_gen = pc[0].astype(dt), pg[0].astype(dt)
    d_copy, d_gen = index, logits
    del index, logits, pc, pg, tanh_grad, term

    def emit(name, first_row, grad):
        check_finite(name, grad)
        apply(name, first_row, grad)

    # Each head's weights get d.T @ inputs in their first 2d columns and
    # outer((k + 1) @ d, τ) in the time columns; τ gets the time columns of
    # d @ W weighted by k + 1, which is ((k + 1) @ d) @ W_t. Everything that
    # reads the head weights runs before their first block is passed on.
    input_cols = slice(0, 2 * d)
    time_cols = slice(2 * d, None)
    weighted = (steps + 1).astype(dt)
    d_inputs = d_copy @ params.w_copy[:, input_cols] + d_gen @ params.w_gen[:, input_cols]
    time_sums = {"w_copy": weighted @ d_copy, "w_gen": weighted @ d_gen}  # (N,) each
    time_unit = np.zeros(d, dtype=dt)
    for name, sums in time_sums.items():
        time_unit += sums @ getattr(params, name)[:, time_cols]
    buffer = np.empty((min(GRAD_BLOCK_ROWS, n), 3 * d), dtype=dt)
    # The generation head goes first: its logits are unbounded, unlike the
    # copy head's tanh, so a NaN that the mixture spreads to both deltas is
    # named after the head that most likely made it.
    for name, delta in (("w_gen", d_gen), ("w_copy", d_copy)):
        for lo in range(0, n, GRAD_BLOCK_ROWS):
            grad = buffer[:min(GRAD_BLOCK_ROWS, n - lo)]
            np.matmul(delta[:, lo:lo + len(grad)].T, inputs, out=grad[:, input_cols])
            np.multiply.outer(time_sums[name][lo:lo + len(grad)], params.time_unit,
                              out=grad[:, time_cols])
            emit(name, lo, grad)
    # the deltas are read for the last time, so the (N, d) embedding
    # gradients never sit next to them
    del d_copy, d_gen, delta, buffer, grad
    for name, ids, cols in (("entity_emb", subjects, slice(0, d)),
                            ("relation_emb", relations, slice(d, None))):
        grad = np.zeros((len(getattr(params, name)), d), dtype=dt)
        np.add.at(grad, ids, d_inputs[:, cols])
        emit(name, 0, grad)
    emit("b_copy", 0, b_copy)
    emit("b_gen", 0, b_gen)
    emit("time_unit", 0, time_unit)
    return loss


class AmsGrad:
    """AMSGrad as published: keeps the running max of the second moment and
    applies no bias correction. The moment decays and the epsilon are the
    published values."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ModelParams, lr: float):
        self.lr = lr
        self._theta = params.tensors()
        self._m = {k: np.zeros_like(v) for k, v in self._theta.items()}
        self._v = {k: np.zeros_like(v) for k, v in self._theta.items()}
        self._vhat = {k: np.zeros_like(v) for k, v in self._theta.items()}

    def step(self, name: str, first_row: int, grad: np.ndarray) -> None:
        """Update rows ``first_row`` onward of tensor ``name`` from their
        gradient ``grad``, elementwise on slices of about ``CACHE_ELEMENTS``
        elements so that its temporaries stay in cache. The slices are row
        blocks, views even of a non-contiguous tensor (where ``reshape(-1)``
        would copy and lose the update)."""
        rows = max(1, CACHE_ELEMENTS // math.prod(grad.shape[1:]))
        for lo in range(0, len(grad), rows):
            g = grad[lo:lo + rows]
            part = slice(first_row + lo, first_row + lo + len(g))
            th = self._theta[name][part]
            m, v, vhat = self._m[name][part], self._v[name][part], self._vhat[name][part]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            np.maximum(vhat, v, out=vhat)
            th -= self.lr * m / (np.sqrt(vhat) + self.eps)


@dataclasses.dataclass
class EpochStats:
    epoch: int
    loss: float
    seconds: float
    steps: int
    snapshot_losses: list[float]


@dataclasses.dataclass
class TrainLog:
    epochs: list[EpochStats] = dataclasses.field(default_factory=list)


def fit(train_quads, num_entities: int, num_relations_aug: int, num_snapshots: int,
        config: TrainConfig,
        progress: Callable[[EpochStats], None] | None = None
        ) -> tuple[ModelParams, TrainLog]:
    """Train on the snapshot sequence of ``train_quads``.

    Each epoch walks snapshots 0 .. max time in ascending order (a gap is an
    empty snapshot): a snapshot's distinct facts are batched (shuffled by
    the seeded generator) and stepped against the vocabulary of strictly
    earlier snapshots, so no fact ever sees itself or its contemporaries as
    candidates. The facts are indexed once, and each snapshot k reads that
    index at frontier k. Loss per epoch is the summed cross-entropy over all
    training facts.
    """
    train_quads = checked_quads(train_quads, num_entities, num_relations_aug)
    rng = np.random.default_rng(config.seed)
    params = init_params(num_entities, num_relations_aug, num_snapshots, config, rng)
    optimizer = AmsGrad(params, lr=config.learning_rate)
    # distinct facts sorted by (t, s, p, o); snapshot k is facts[bounds[k]:bounds[k + 1]]
    by_time = dedupe(train_quads[:, [3, 0, 1, 2]])
    horizon = int(by_time[-1, 0]) + 1 if len(by_time) else 0
    bounds = np.searchsorted(by_time[:, 0], np.arange(horizon + 1))
    facts = by_time[:, [1, 2, 3, 0]]
    facts_index = FactIndex(train_quads)
    reduction = "mean" if config.mean_loss else "sum"
    log = TrainLog()
    best = np.inf
    stale = 0

    for epoch in range(config.epochs):
        started = time.perf_counter()
        epoch_loss = 0.0
        steps = 0
        snapshot_losses = []
        for k in range(horizon):
            vocab = HistVocab(facts_index, frontier=k).freeze()
            snapshot = facts[bounds[k]:bounds[k + 1]]
            snap_loss = 0.0
            if len(snapshot):
                shuffled = snapshot[rng.permutation(len(snapshot))]
                for start in range(0, len(shuffled), config.batch_size):
                    batch = shuffled[start:start + config.batch_size]
                    snap_loss += _loss_and_grads(params, batch, vocab, config.alpha,
                                                 apply=optimizer.step, reduction=reduction)
                    steps += 1
            snapshot_losses.append(snap_loss)
            epoch_loss += snap_loss
        stats = EpochStats(epoch, epoch_loss, time.perf_counter() - started,
                           steps, snapshot_losses)
        log.epochs.append(stats)
        if progress is not None:
            progress(stats)
        if config.patience is not None:
            if epoch_loss < best - 1e-12:
                best = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    return params, log
