"""Outside-in tracing: span wrappers installed on the program's public
functions, as bound in the namespace of the code that calls them.

Each call records a span ``[name, start, end, parent index, count]``; the
count is what the call processed (rows, facts, ...) where the target says
how to count it, else None. Spans stay in memory until the run writes them
out. A span's self time is its duration minus its children's, so the self
times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

import numpy as np
from copygen import data, evaluation, history, model, training


def _rows(arg) -> int:
    return int(np.shape(arg)[0]) if np.ndim(arg) > 1 else 1


def _one(args, result) -> int:
    return 1


# (owner, attribute, span name, count from (args, result) or None)
TARGETS = [
    (data, "load_dataset", "data.load_dataset", None),
    (data, "augment_reciprocal", "data.augment_reciprocal", None),
    (history, "vocab_from_quads", "history.vocab_build", lambda a, r: len(a[0])),
    (history.HistVocab, "absorb_snapshot", "history.absorb", _one),
    (training, "fit", "training.fit", None),
    (training, "_loss_and_grads", "training.loss_and_grads", None),
    (training.AmsGrad, "step", "training.amsgrad_step", _one),
    (evaluation, "build_filter", "evaluation.build_filter", lambda a, r: r.num_triples),
    (evaluation, "evaluate", "evaluation.evaluate", _one),
    (evaluation, "rank_of_truth", "evaluation.rank", _one),
    (evaluation, "score_batch", "model.score_batch", lambda a, r: len(a[1])),
]
# The forward stages are bound in both consumers: the training step and
# model.score_batch.
for _consumer in (training, model):
    TARGETS += [
        (_consumer, "masks_for", "history.masks_for", lambda a, r: len(a[1])),
        (_consumer, "query_inputs", "model.query_inputs", None),
        (_consumer, "copy_index_batch", "model.copy_index", None),
        (_consumer, "generation_logits_batch", "model.gen_logits", None),
        (_consumer, "stable_softmax", "model.softmax", lambda a, r: _rows(a[0])),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, count]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; its parent is the innermost open
        span."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if count:
                self.spans[index][4] = count(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in TARGETS]
        try:
            for (owner, attr, fn), (*_, name, count) in zip(saved, TARGETS):
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self) -> dict[str, tuple[collections.Counter, ...]]:
        """Per root span name: the summed self time, summed count and
        number of spans per span name in that root's trees, roots included."""
        roots = []
        out = collections.defaultdict(lambda: (collections.Counter(),
                                               collections.Counter(),
                                               collections.Counter()))
        for name, start, end, parent, count in self.spans:
            root = roots[parent] if parent >= 0 else name
            roots.append(root)
            selfs, counts, calls = out[root]
            selfs[name] += end - start
            if parent >= 0:
                selfs[self.spans[parent][0]] -= end - start
            counts[name] += count or 0
            calls[name] += 1
        return dict(out)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop", _one)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - started - bare, 0.0) / calls
