"""Cross-entropy training of the copy/generation mixture.

Backpropagation is closed-form (the model is two affine maps, a tanh, two
softmaxes and a convex mixture), so there is no autodiff dependency; the
analytic gradients are checked against central finite differences in the
test suite. Parameters are float32 by default. The softmax heads, the loss,
the truth probabilities and the gradient deltas are computed in float64;
each delta is then cast once to the parameters' dtype, its entries below
that dtype's smallest normal flushed to exactly zero first, and the four
backward GEMMs run at parameter precision. Float64 parameters thus take an
all-float64 path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from .data import as_quads
from .history import FactIndex, HistVocab, masks_for
from .model import (
    TENSOR_NAMES,
    ModelParams,
    copy_index_batch,
    generation_logits_batch,
    hyperparameter_problem,
    query_inputs,
    stable_softmax,
)

LOSS_FLOOR = 1e-30  # guards log() against truth-probability underflow


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
    as a single row (fans 1 and n).
    """
    if len(shape) == 1:
        fan_in, fan_out = 1, shape[0]
    elif len(shape) == 2:
        fan_in, fan_out = shape
    else:
        raise ValueError(f"expected a 1-D or 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(num_entities: int, num_relations_aug: int, num_snapshots: int,
                config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Xavier-initialized weights and embeddings; affine biases start at zero."""
    d = config.dim
    dt = config.dtype
    return ModelParams(
        entity_emb=xavier_init((num_entities, d), rng, dt),
        relation_emb=xavier_init((num_relations_aug, d), rng, dt),
        time_unit=xavier_init((d,), rng, dt),
        w_copy=xavier_init((num_entities, 3 * d), rng, dt),
        b_copy=np.zeros(num_entities, dtype=dt),
        w_gen=xavier_init((num_entities, 3 * d), rng, dt),
        b_gen=np.zeros(num_entities, dtype=dt),
        num_snapshots=num_snapshots,
        mask_magnitude=config.mask_magnitude,
        alpha=config.alpha,
    )


@dataclasses.dataclass
class Gradients:
    """One buffer per learnable tensor; rows untouched by the batch stay zero."""

    entity_emb: np.ndarray
    relation_emb: np.ndarray
    time_unit: np.ndarray
    w_copy: np.ndarray
    b_copy: np.ndarray
    w_gen: np.ndarray
    b_gen: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}


def _flush_cast(delta: np.ndarray, dtype) -> np.ndarray:
    """``delta`` (float64) at ``dtype`` for the backward GEMMs, with every
    entry below the dtype's smallest normal set to exactly +0.0; float64
    comes back as it is.

    Masked copy probabilities sit near e^-magnitude (4e-44 at the default
    100), below float32's smallest normal (1.2e-38), so without the flush
    most of the copy delta reaches the GEMMs as float32 subnormals, which
    slow them several-fold. The gradients would differ only below float32's
    normal range, so the time alone shows a missing flush.
    """
    if delta.dtype == dtype:
        return delta
    tiny = np.finfo(dtype).tiny
    small = delta < tiny
    small &= delta > -tiny
    out = delta.astype(dtype)
    np.copyto(out, 0.0, where=small)
    return out


def _loss_and_grads(params: ModelParams, batch, vocab: HistVocab, alpha: float,
                    *, reduction: str = "sum", need_grads: bool = True):
    """Shared forward/backward pass over a batch of (s, p, truth, k) rows."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    q = as_quads(batch)
    if len(q) == 0:
        raise ValueError("batch is empty")
    subjects, relations, truths, steps = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    n = params.num_entities
    d = params.dim
    m = len(q)
    rows = np.arange(m)

    inputs = query_inputs(params, subjects, relations, steps)  # (m, 3d)
    index = copy_index_batch(params, inputs)  # tanh output, (m, N)
    # Each head is softmaxed in place on float64 logits; the copy head's are
    # a copy, masked in place, since the tanh derivative reads index below.
    pc = index.astype(np.float64)
    masks_for(vocab, subjects, relations, pc, params.mask_magnitude)
    pg = generation_logits_batch(params, inputs).astype(np.float64, copy=False)
    for head in (pc, pg):
        stable_softmax(head, out=head)

    truth_prob = alpha * pc[rows, truths] + (1.0 - alpha) * pg[rows, truths]
    floored = np.maximum(truth_prob, LOSS_FLOOR)
    losses = -np.log(floored)
    loss = float(losses.mean() if reduction == "mean" else losses.sum())
    if not need_grads:
        return loss, None

    # d(loss)/d(copy logits): -(alpha / P) * a_y * (onehot - a); same shape for
    # the generation logits with the (1 - alpha) weight. The mask is constant.
    # Neither head is read again, so each delta is built in place over it.
    coef_c = -(alpha * pc[rows, truths] / floored)
    coef_g = -((1.0 - alpha) * pg[rows, truths] / floored)
    d_copy = np.multiply(pc, -coef_c[:, None], out=pc)
    d_copy[rows, truths] += coef_c
    d_gen = np.multiply(pg, -coef_g[:, None], out=pg)
    d_gen[rows, truths] += coef_g
    # through the tanh of the copy index
    tanh_grad = np.square(index, dtype=np.float64)
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    d_copy *= tanh_grad
    del tanh_grad
    if reduction == "mean":
        d_copy /= m
        d_gen /= m

    # The bias gradients sum the float64 deltas; only the GEMMs run at dt.
    dt = params.entity_emb.dtype
    b_copy = d_copy.sum(axis=0).astype(dt)
    b_gen = d_gen.sum(axis=0).astype(dt)
    d_copy = _flush_cast(d_copy, dt)
    d_gen = _flush_cast(d_gen, dt)
    grads = Gradients(
        entity_emb=np.zeros((n, d), dtype=dt),
        relation_emb=np.zeros((params.num_relations, d), dtype=dt),
        time_unit=np.zeros(d, dtype=dt),
        w_copy=d_copy.T @ inputs,
        b_copy=b_copy,
        w_gen=d_gen.T @ inputs,
        b_gen=b_gen,
    )
    d_inputs = d_copy @ params.w_copy + d_gen @ params.w_gen  # (m, 3d)
    np.add.at(grads.entity_emb, subjects, d_inputs[:, :d])
    np.add.at(grads.relation_emb, relations, d_inputs[:, d:2 * d])
    grads.time_unit += ((steps + 1)[:, None] * d_inputs[:, 2 * d:]).sum(axis=0).astype(dt)

    for name, g in grads.tensors().items():
        if not np.isfinite(g).all():
            raise GradientError(f"non-finite gradient in {name}")
    return loss, grads


def batch_loss(params: ModelParams, batch, vocab: HistVocab, alpha: float,
               *, reduction: str = "sum") -> float:
    """Cross-entropy of the mixture: -sum(ln p(truth)) over the batch."""
    loss, _ = _loss_and_grads(params, batch, vocab, alpha,
                              reduction=reduction, need_grads=False)
    return loss


def batch_gradients(params: ModelParams, batch, vocab: HistVocab, alpha: float,
                    *, reduction: str = "sum") -> Gradients:
    """Analytic gradients of :func:`batch_loss` for every learnable tensor."""
    _, grads = _loss_and_grads(params, batch, vocab, alpha, reduction=reduction)
    return grads


class AmsGrad:
    """AMSGrad as published: keeps the running max of the second moment and
    applies no bias correction."""

    def __init__(self, params: ModelParams, lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self._v = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self._vhat = {k: np.zeros_like(v) for k, v in params.tensors().items()}

    def step(self, params: ModelParams, grads: Gradients) -> None:
        self.step_count += 1
        tensors = params.tensors()
        for name, g in grads.tensors().items():
            theta = tensors[name]
            m, v, vhat = self._m[name], self._v[name], self._vhat[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            np.maximum(vhat, v, out=vhat)
            theta -= self.lr * m / (np.sqrt(vhat) + self.eps)


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

    @property
    def losses(self) -> list[float]:
        return [e.loss for e in self.epochs]


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
    rng = np.random.default_rng(config.seed)
    params = init_params(num_entities, num_relations_aug, num_snapshots, config, rng)
    optimizer = AmsGrad(params, lr=config.learning_rate)
    # distinct facts sorted by (t, s, p, o); snapshot k is facts[bounds[k]:bounds[k + 1]]
    by_time = np.unique(as_quads(train_quads)[:, [3, 0, 1, 2]], axis=0)
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
                    loss, grads = _loss_and_grads(params, batch, vocab, config.alpha,
                                                  reduction=reduction)
                    optimizer.step(params, grads)
                    snap_loss += loss
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
