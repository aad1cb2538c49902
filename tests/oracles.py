"""Independent reference implementations used as test oracles, and the
test-side accessors of the program's internals.

The oracles are deliberately naive (scalar loops, exhaustive search,
brute-force sorting) and stay independent of the vectorized paths they
check. The accessors (``batch_loss``, ``loss_and_gradients``,
``batch_gradients``, ``amsgrad_step``, ``lookup``, ``params_astype``,
``checkpoint_config_text``) are thin wrappers over the program's own code,
which no command needs in these shapes.
"""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np

from copygen import model, training
from copygen.model import ModelParams


def batch_loss(params, batch, vocab, alpha, *, reduction="sum"):
    """The cross-entropy of the mixture that a train step computes."""
    return training._loss_and_grads(params, batch, vocab, alpha, apply=lambda *_: None,
                                    reduction=reduction)


def loss_and_gradients(params, batch, vocab, alpha, *, reduction="sum"):
    """:func:`batch_loss` and its analytic gradients, one array per
    learnable tensor, keyed by name in checkpoint order: the blocks a train
    step passes to its sink, collected. Each tensor must come in row blocks
    at its own dtype that cover it once, in order."""
    grads = {name: np.full_like(t, np.nan) for name, t in params.tensors().items()}
    filled = dict.fromkeys(grads, 0)

    def collect(name, first_row, block):
        assert first_row == filled[name] and block.dtype == grads[name].dtype, name
        grads[name][first_row:first_row + len(block)] = block
        filled[name] += len(block)

    loss = training._loss_and_grads(params, batch, vocab, alpha, apply=collect,
                                    reduction=reduction)
    assert all(filled[name] == len(g) for name, g in grads.items()), filled
    return loss, grads


def batch_gradients(params, batch, vocab, alpha, *, reduction="sum"):
    """The gradients of :func:`loss_and_gradients`."""
    return loss_and_gradients(params, batch, vocab, alpha, reduction=reduction)[1]


def amsgrad_step(optimizer, grads):
    """One ``AmsGrad`` update of every tensor from a whole gradient set."""
    for name, grad in grads.items():
        optimizer.step(name, 0, grad)


def lookup(vocab, subject, relation):
    """Sorted object ids ``vocab`` has seen for (subject, relation)."""
    return np.unique(vocab.facts.select([subject], [relation], before=vocab.frontier)[1])


def params_astype(params, dtype):
    """``params`` with every learnable tensor cast to ``dtype``."""
    return dataclasses.replace(
        params, **{k: v.astype(dtype) for k, v in params.tensors().items()})


def checkpoint_config_text(path):
    """The trailing config block of a checkpoint, if one was embedded."""
    blob = Path(path).read_bytes()
    _, _, end = model._checkpoint_layout(path, blob)
    return blob[end + 4:].decode("utf-8") if len(blob) > end else None


def random_params(rng, num_entities, num_relations, dim, *, scale=0.6,
                  num_snapshots=10, mask_magnitude=100.0, alpha=0.5,
                  dtype=np.float64) -> ModelParams:
    def draw(*shape):
        return rng.normal(0.0, scale, shape).astype(dtype)

    return ModelParams(
        entity_emb=draw(num_entities, dim),
        relation_emb=draw(num_relations, dim),
        time_unit=draw(dim),
        w_copy=draw(num_entities, 3 * dim),
        b_copy=draw(num_entities),
        w_gen=draw(num_entities, 3 * dim),
        b_gen=draw(num_entities),
        num_snapshots=num_snapshots,
        mask_magnitude=mask_magnitude,
        alpha=alpha,
    )


def scalar_query_input(params, s, p, k):
    d = params.dim
    x = []
    for j in range(d):
        x.append(float(params.entity_emb[s, j]))
    for j in range(d):
        x.append(float(params.relation_emb[p, j]))
    for j in range(d):
        x.append(float(params.time_unit[j]) * (k + 1))
    return x


def head_rows(params, subjects, relations, times, *, factored=True):
    """Both heads' affine rows over a batch, (copy before its tanh,
    generation), each (B, N) at parameter dtype. ``factored`` computes them
    as the model does: the K=2d GEMM over [e_s; r_p], plus the term
    (k + 1)·(W_t τ) + bias, rounded first. Otherwise they are the paper's
    formula: one GEMM over the concatenated (B, 3d) rows
    [e_s; r_p; (k + 1)·τ], plus the bias."""
    d2 = 2 * params.dim
    steps = (np.asarray(times) + 1).astype(params.time_unit.dtype)
    pair = np.concatenate([params.entity_emb[subjects], params.relation_emb[relations]],
                          axis=1)
    heads = ((params.w_copy, params.b_copy), (params.w_gen, params.b_gen))
    if factored:
        return tuple(pair @ w[:, :d2].T + (np.outer(steps, w[:, d2:] @ params.time_unit) + b)
                     for w, b in heads)
    inputs = np.concatenate([pair, steps[:, None] * params.time_unit], axis=1)
    return tuple(inputs @ w.T + b for w, b in heads)


def _scalar_softmax(logits):
    top = max(logits)
    exps = [math.exp(z - top) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_copy_probs(params, s, p, k, mask):
    x = scalar_query_input(params, s, p, k)
    logits = []
    for e in range(params.num_entities):
        acc = float(params.b_copy[e])
        for j in range(3 * params.dim):
            acc += float(params.w_copy[e, j]) * x[j]
        logits.append(math.tanh(acc) + float(mask[e]))
    return _scalar_softmax(logits)


def scalar_generation_probs(params, s, p, k):
    x = scalar_query_input(params, s, p, k)
    logits = []
    for e in range(params.num_entities):
        acc = float(params.b_gen[e])
        for j in range(3 * params.dim):
            acc += float(params.w_gen[e, j]) * x[j]
        logits.append(acc)
    return _scalar_softmax(logits)


def scalar_mask(history, s, p, num_entities, magnitude=100.0):
    """Copy mask of one (s, p) pair from a ``vocab_oracle`` table."""
    seen = history.get((s, p), set())
    return [0.0 if e in seen else -magnitude for e in range(num_entities)]


def scalar_batch_loss(params, batch, vocab, alpha, floor=1e-30):
    """Summed cross-entropy of the mixture, fact by fact."""
    total = 0.0
    for s, p, o, k in np.asarray(batch).tolist():
        mask = [0.0 if e in set(lookup(vocab, s, p).tolist()) else -params.mask_magnitude
                for e in range(params.num_entities)]
        pc = scalar_copy_probs(params, s, p, k, mask)
        pg = scalar_generation_probs(params, s, p, k)
        total += -math.log(max(alpha * pc[o] + (1 - alpha) * pg[o], floor))
    return total


def xavier_oracle(shape, rng, dtype):
    """Xavier-uniform draws as one whole-tensor float64 array, then cast."""
    fan_in, fan_out = (1, shape[0]) if len(shape) == 1 else shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def vocab_oracle(quads, frontier):
    """One-shot rebuild of the historical vocabulary from a flat fact list."""
    table = {}
    for s, p, o, t in np.asarray(quads).tolist():
        if t < frontier:
            table.setdefault((s, p), set()).add(o)
    return table


def filter_oracle(*splits):
    """Known-true objects per (s, p) over all times, and per (s, p, t)."""
    static, timed = {}, {}
    for quads in splits:
        for s, p, o, t in np.asarray(quads).reshape(-1, 4).tolist():
            static.setdefault((s, p), set()).add(o)
            timed.setdefault((s, p, t), set()).add(o)
    return static, timed


def recurrence_oracle(history, probe):
    """Fact and (s, p)-group repeat rates of a probe against its history."""
    h = np.asarray(history).reshape(-1, 4)
    q = np.asarray(probe).reshape(-1, 4)
    seen_triples = set(map(tuple, h[:, :3].tolist()))
    pair_objects = {}
    for s, p, o in h[:, :3].tolist():
        pair_objects.setdefault((s, p), set()).add(o)
    repeats = sum((s, p, o) in seen_triples for s, p, o in q[:, :3].tolist())
    groups = {}
    for s, p, o in q[:, :3].tolist():
        groups.setdefault((s, p), set()).add(o)
    hits = sum(bool(objs & pair_objects.get(pair, set())) for pair, objs in groups.items())
    return {"fact_repeat_rate": repeats / len(q), "group_repeat_rate": hits / len(groups)}


def split_oracle(quads, ratios):
    """Exhaustive search over every increasing tuple of snapshot boundaries,
    one per part after the first, for two or three ratios: the least L1
    deviation of the parts' fact fractions from ``ratios``, the first
    boundaries (earliest first) that reach it, and the parts as lists of the
    facts between consecutive boundaries, in input order."""
    q = np.asarray(quads)
    rows = q.tolist()
    times = sorted(set(q[:, 3].tolist()))
    total = len(q)
    best = None
    for cut in itertools.combinations(times[1:], len(ratios) - 1):
        edges = [-math.inf, *cut, math.inf]
        parts = [[row for row in rows if lo <= row[3] < hi]
                 for lo, hi in zip(edges, edges[1:])]
        dev = sum(abs(len(part) / total - ratio) for part, ratio in zip(parts, ratios))
        if best is None or dev < best[0]:
            best = (dev, cut, parts)
    return best


def rank_oracle(scores, truth, removed=()):
    """Sort the full surviving candidate list and locate the truth."""
    removed = set(removed) - {truth}
    entries = sorted((-float(scores[e]), e) for e in range(len(scores))
                     if e not in removed)
    for position, (_, entity) in enumerate(entries, start=1):
        if entity == truth:
            return position
    raise AssertionError("truth missing from candidates")


def rel_err(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


def finite_difference_grads(params, batch, vocab, alpha, h=1e-4):
    """Central finite differences of the batch loss, coordinate by coordinate."""
    out = {}
    for name, arr in params.tensors().items():
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = batch_loss(params, batch, vocab, alpha)
            flat[i] = orig - h
            down = batch_loss(params, batch, vocab, alpha)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * h)
        out[name] = fd
    return out


def dedupe_oracle(quads):
    """Distinct (n, 4) int64 rows in ascending lexicographic order, by numpy's
    own row sort."""
    return np.unique(np.asarray(quads, dtype=np.int64).reshape(-1, 4), axis=0)
