import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from copygen import model, training
from copygen.data import dedupe
from copygen.history import FactIndex, HistVocab, masks_for, vocab_from_quads
from copygen.model import stable_softmax
from copygen.options import SynthConfig
from copygen.synth import generate
from copygen.training import (
    AmsGrad,
    GradientError,
    TrainConfig,
    fit,
    init_params,
    xavier_init,
)

from oracles import (amsgrad_step, batch_gradients, batch_loss, finite_difference_grads,
                     head_rows, loss_and_gradients, params_astype, random_params, rel_err,
                     scalar_batch_loss, xavier_oracle)


def traced_peak(run):
    """``run()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A float32 step's traced peak, its gradient blocks kept by no one, in (B, N)
# float32 arrays, at B=64 and N=3000 (see test_peak_allocation).
STEP_PEAK_ARRAYS = 4.0


class TestXavierInit:
    """The draws are float32, and a float64 draw in [-b, b] rounds into
    [-float32(b), float32(b)], so the bound tests compare with the bound
    rounded to float32."""

    def test_two_by_two_bound(self):
        rng = np.random.default_rng(0)
        bound = math.sqrt(6 / 4)
        assert bound == pytest.approx(1.2247, abs=1e-4)
        samples = np.concatenate([xavier_init((2, 2), rng).ravel() for _ in range(201)])
        assert samples.dtype == np.float32
        assert np.abs(samples).max() <= np.float32(bound)

    def test_deterministic_under_seed(self):
        a = xavier_init((5, 7), np.random.default_rng(42))
        b = xavier_init((5, 7), np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_one_by_one_bound(self):
        rng = np.random.default_rng(1)
        draws = np.array([xavier_init((1, 1), rng)[0, 0] for _ in range(500)])
        assert np.abs(draws).max() <= np.float32(math.sqrt(3))
        assert np.abs(draws).max() > math.sqrt(3) * 0.9  # bound is attained

    def test_vector_shape_uses_row_fans(self):
        rng = np.random.default_rng(2)
        draws = xavier_init((100,), rng)
        assert draws.shape == (100,)
        assert np.abs(draws).max() <= np.float32(math.sqrt(6 / 101))

    def test_init_params_layout(self):
        config = TrainConfig(dim=4, seed=0)
        params = init_params(7, 6, 9, config, np.random.default_rng(0))
        assert params.entity_emb.shape == (7, 4)
        assert params.relation_emb.shape == (6, 4)
        assert params.w_copy.shape == (7, 12)
        assert params.entity_emb.dtype == np.float32
        assert not params.b_copy.any() and not params.b_gen.any()
        assert params.num_snapshots == 9

    @pytest.mark.parametrize("dtype", [np.float32])  # the dtype xavier_init draws at
    @pytest.mark.parametrize("shape", [(5, 7), (1000, 96), (3, 40000), (50000,), (7,)])
    def test_blocked_draw_is_the_whole_tensor_draw(self, shape, dtype):
        """Row blocks of about ``CACHE_ELEMENTS`` draws, cast one by one,
        give the bytes of one whole-tensor draw cast once, and leave the
        generator where that draw does: a partial last block (341-row blocks
        over 1000 rows), one-row blocks wider than ``CACHE_ELEMENTS``, and
        1-D τ-like shapes split or whole."""
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = xavier_init(shape, rng)
        assert got.dtype == dtype and got.shape == shape
        assert got.tobytes() == xavier_oracle(shape, ref, dtype).tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("dtype", [np.float32])  # the dtype fit trains at
    def test_init_params_draw_order(self, dtype):
        """The tensors are successive whole-tensor Xavier draws from the one
        generator, in the order entity, relation, τ, w_copy, w_gen, and the
        biases are zeros, so a fixed seed keeps giving the same checkpoint."""
        n, r_aug, d = 7, 6, 4
        config = TrainConfig(dim=d, seed=0)
        params = init_params(n, r_aug, 9, config, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = {name: xavier_oracle(shape, rng, dtype) for name, shape in (
            ("entity_emb", (n, d)), ("relation_emb", (r_aug, d)), ("time_unit", (d,)),
            ("w_copy", (n, 3 * d)), ("w_gen", (n, 3 * d)))}
        expected["b_copy"] = expected["b_gen"] = np.zeros(n, dtype)
        for name, tensor in params.tensors().items():
            assert tensor.dtype == dtype, name
            assert tensor.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32])  # the dtype fit trains at
    def test_init_params_peak_is_the_parameters_and_one_block(self, dtype):
        """Initialization holds the parameters and one block of float64
        draws, never a whole tensor's float64 draws next to its cast."""
        config = TrainConfig(dim=64)
        rng = np.random.default_rng(0)
        params, peak = traced_peak(lambda: init_params(2000, 6, 5, config, rng))
        parameter_bytes = sum(t.nbytes for t in params.tensors().values())
        assert peak <= parameter_bytes + 8 * model.CACHE_ELEMENTS


def small_vocab():
    vocab = HistVocab()
    vocab.absorb_snapshot([(0, 0, 1), (0, 0, 2), (3, 2, 4), (5, 1, 6)], index=0)
    vocab.absorb_snapshot([(0, 0, 3), (2, 3, 5)], index=1)
    return vocab


BATCH = np.array([[0, 0, 1, 2], [3, 2, 4, 2], [2, 3, 0, 3]])
# Adds a second truth from the (0, 0) history, so two rows share a pair and
# both copy candidates.
COPY_BATCH = np.vstack([BATCH, [0, 0, 3, 2]])


def block_batch(rng, n):
    """Rows for 2 * block_rows(n) + 3 queries, so the last of three blocks
    is partial; the (0, 0) pair, which has history, asks in every block
    (with truths 3 and 1 among its copy candidates, 6 outside them)."""
    height = model.block_rows(n)
    m = 2 * height + 3
    batch = np.column_stack([rng.integers(0, 7, m), rng.integers(0, 4, m),
                             rng.integers(0, n, m), rng.integers(2, 5, m)])
    batch[::height + 1, :3] = [[0, 0, 3], [0, 0, 1], [0, 0, 6]]
    return batch


def whole_batch_reference(params, batch, vocab, alpha, reduction="sum", *, factored=True):
    """Loss and gradients by the whole-batch backward pass, written out of
    place: the float64 heads and deltas of the whole (m, N) batch, each
    delta flush-cast once to the parameters' dtype for the GEMMs (float64
    is not flushed). ``factored`` follows ``_loss_and_grads``: ``head_rows``
    in its order, K=2d backward GEMMs and the rank-one time term (each
    head's time columns get outer((k + 1) @ d, τ), and τ gets
    ((k + 1) @ d) @ W_t). Otherwise every GEMM runs over the paper's
    concatenated (m, 3d) inputs [e_s; r_p; (k + 1)·τ]."""
    q = np.asarray(batch, dtype=np.int64)
    subjects, relations, truths, steps = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    n, d, m = params.num_entities, params.dim, len(q)
    dt = params.entity_emb.dtype
    rows = np.arange(m)
    masks = np.zeros((m, n))
    masks_for(vocab, subjects, relations, masks, params.mask_magnitude)
    copy, gen = head_rows(params, subjects, relations, steps, factored=factored)
    index = np.tanh(copy)
    pc = stable_softmax(index + masks)
    pg = stable_softmax(gen)
    floored = np.maximum(alpha * pc[rows, truths] + (1.0 - alpha) * pg[rows, truths],
                         training.LOSS_FLOOR)
    losses = -np.log(floored)
    loss = float(losses.mean() if reduction == "mean" else losses.sum())
    coef_c = -(alpha * pc[rows, truths] / floored)
    coef_g = -((1.0 - alpha) * pg[rows, truths] / floored)
    d_copy = coef_c[:, None] * -pc
    d_copy[rows, truths] += coef_c
    d_gen = coef_g[:, None] * -pg
    d_gen[rows, truths] += coef_g
    d_copy *= 1.0 - index.astype(np.float64) ** 2
    if reduction == "mean":
        d_copy /= m
        d_gen /= m
    b_copy, b_gen = d_copy.sum(axis=0).astype(dt), d_gen.sum(axis=0).astype(dt)
    if dt != np.float64:
        tiny = np.finfo(dt).tiny
        d_copy, d_gen = (np.where(np.abs(x) < tiny, 0.0, x).astype(dt) for x in (d_copy, d_gen))
    pair = np.concatenate([params.entity_emb[subjects], params.relation_emb[relations]], axis=1)
    if factored:
        weighted = (steps + 1).astype(dt)
        sums_c, sums_g = weighted @ d_copy, weighted @ d_gen
        w_copy = np.hstack([d_copy.T @ pair, np.outer(sums_c, params.time_unit)])
        w_gen = np.hstack([d_gen.T @ pair, np.outer(sums_g, params.time_unit)])
        time_unit = sums_c @ params.w_copy[:, 2 * d:] + sums_g @ params.w_gen[:, 2 * d:]
        d_inputs = d_copy @ params.w_copy[:, :2 * d] + d_gen @ params.w_gen[:, :2 * d]
    else:
        inputs = np.hstack([pair, (steps + 1).astype(dt)[:, None] * params.time_unit])
        w_copy, w_gen = d_copy.T @ inputs, d_gen.T @ inputs
        d_inputs = d_copy @ params.w_copy + d_gen @ params.w_gen
        time_unit = ((steps + 1)[:, None] * d_inputs[:, 2 * d:]).sum(axis=0).astype(dt)
    entity_emb = np.zeros((n, d), dtype=dt)
    relation_emb = np.zeros((params.num_relations, d), dtype=dt)
    np.add.at(entity_emb, subjects, d_inputs[:, :d])
    np.add.at(relation_emb, relations, d_inputs[:, d:2 * d])
    return loss, {
        "entity_emb": entity_emb, "relation_emb": relation_emb, "time_unit": time_unit,
        "w_copy": w_copy, "b_copy": b_copy, "w_gen": w_gen, "b_gen": b_gen,
    }


class TestBatchLoss:
    def test_certain_truth_gives_zero(self):
        # single unmasked candidate pushes the copy probability to ~1
        params = random_params(np.random.default_rng(0), 6, 3, 3, scale=0.0)
        vocab = HistVocab()
        vocab.absorb_snapshot([(0, 0, 2)])
        loss = batch_loss(params, [[0, 0, 2, 1]], vocab, alpha=1.0)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_model_gives_log_n(self):
        params = random_params(np.random.default_rng(0), 4, 2, 3, scale=0.0)
        loss = batch_loss(params, [[0, 0, 2, 0]], HistVocab(), alpha=0.0)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        for alpha in (0.0, 0.4, 1.0):
            params = random_params(rng, 7, 4, 3)
            vocab = small_vocab()
            got = batch_loss(params, BATCH, vocab, alpha)
            ref = scalar_batch_loss(params, BATCH, vocab, alpha)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_mean_reduction(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 7, 4, 3)
        vocab = small_vocab()
        total = batch_loss(params, BATCH, vocab, 0.5)
        mean = batch_loss(params, BATCH, vocab, 0.5, reduction="mean")
        assert mean == pytest.approx(total / len(BATCH), rel=1e-12)

    def test_loss_floor_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = random_params(rng, 6, 4, 3, scale=2.5)
            assert batch_loss(params, BATCH[:2], small_vocab(), 0.5) >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_loss(random_params(np.random.default_rng(0), 4, 2, 2),
                       np.empty((0, 4), np.int64), HistVocab(), 0.5)

    @pytest.mark.parametrize("column, value", [(0, -1), (2, -1), (2, 7), (1, 4), (1, -2),
                                               (3, -1)])
    def test_out_of_range_ids(self, column, value):
        """A negative id used to be answered as one counted from the end,
        and an id past the end failed with a bare IndexError."""
        params = random_params(np.random.default_rng(0), 7, 4, 3)
        batch = BATCH.copy()
        batch[1, column] = value
        message = rf"^fact row 1 \({', '.join(map(str, batch[1]))}\) is out of range"
        for run in (batch_loss, batch_gradients):
            with pytest.raises(ValueError, match=message):
                run(params, batch, small_vocab(), 0.5)


class TestBatchGradients:
    def test_alpha_zero_kills_copy_path(self):
        params = random_params(np.random.default_rng(6), 7, 4, 3)
        grads = batch_gradients(params, BATCH, small_vocab(), alpha=0.0)
        assert not grads["w_copy"].any()
        assert not grads["b_copy"].any()
        assert grads["w_gen"].any()

    def test_alpha_one_empty_vocab_reduces_to_softmax_ce(self):
        # zero weights + all-masked copy head: gradient of b_copy is the
        # classic (probs - onehot) with uniform probs
        params = random_params(np.random.default_rng(7), 5, 2, 3, scale=0.0)
        grads = batch_gradients(params, [[0, 0, 3, 0]], HistVocab(), alpha=1.0)
        expected = np.full(5, 0.2)
        expected[3] -= 1.0
        assert np.allclose(grads["b_copy"], expected, atol=1e-12)

    def test_untouched_rows_stay_zero(self):
        params = random_params(np.random.default_rng(8), 9, 6, 3)
        grads = batch_gradients(params, BATCH, small_vocab(), alpha=0.5)
        touched_entities = set(BATCH[:, 0].tolist())
        for e in range(9):
            if e not in touched_entities:
                assert not grads["entity_emb"][e].any()
        touched_relations = set(BATCH[:, 1].tolist())
        for r in range(6):
            if r not in touched_relations:
                assert not grads["relation_emb"][r].any()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(9)
        params = random_params(rng, 7, 4, 3)
        vocab = small_vocab()
        grads = batch_gradients(params, BATCH, vocab, alpha)
        fd = finite_difference_grads(params, BATCH, vocab, alpha)
        for name, g in grads.items():
            assert rel_err(g, fd[name]) < 1e-5, name

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_float32_matches_float64(self, alpha):
        """Float32 parameters run the forward GEMMs and the backward GEMMs in
        float32, so each gradient carries absolute errors of a few float32
        ulps (6e-8) of its tensor's largest terms; entries that cancel down
        to far below that scale have no relative accuracy. Hence the error is
        relative to each tensor's largest magnitude: 1e-4 leaves a wide
        margin over the ~4e-6 seen across 200 seeds."""
        for seed in range(10):
            params = random_params(np.random.default_rng(seed), 7, 4, 3, dtype=np.float32)
            got = batch_gradients(params, COPY_BATCH, small_vocab(), alpha)
            want = batch_gradients(params_astype(params, np.float64), COPY_BATCH, small_vocab(), alpha)
            for name, g in got.items():
                assert g.dtype == np.float32, name
                w = want[name]
                assert rel_err(g, w, floor=max(np.abs(w).max(), 1e-3)) < 1e-4, (seed, name)

    @pytest.mark.parametrize("dtype, tolerance", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_factored_matches_concatenated_formula(self, alpha, dtype, tolerance):
        """The K=2d GEMMs and the rank-one time term give the loss and the
        gradients of the paper's (m, 3d) affine maps, to rounding, relative
        to each tensor's largest entry (float32: the bound of
        ``test_float32_matches_float64``). The rows ask at snapshot 0, at
        the last train snapshot (9) and beyond the horizon (60)."""
        batch = COPY_BATCH.copy()
        batch[:, 3] = [0, 9, 60, 9]
        for seed in range(10):
            params = random_params(np.random.default_rng(seed), 7, 4, 3, dtype=dtype)
            loss, grads = loss_and_gradients(params, batch, small_vocab(), alpha)
            ref_loss, ref = whole_batch_reference(params, batch, small_vocab(), alpha,
                                                  factored=False)
            assert loss == pytest.approx(ref_loss, rel=tolerance)
            for name, g in grads.items():
                want = ref[name]
                floor = np.abs(want).max() or 1.0
                assert rel_err(g, want, floor=floor) < tolerance, (seed, name)

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_float64_is_the_all_float64_backward(self, alpha, reduction):
        """Bitwise, so the finite-difference check above tests this path;
        over three blocks of rows (one block at 7 entities)."""
        for n, seed in itertools.product((7, 7001), range(5)):
            rng = np.random.default_rng(seed)
            params = random_params(rng, n, 4, 3)
            batch = block_batch(rng, n)
            loss, grads = loss_and_gradients(params, batch, small_vocab(), alpha,
                                             reduction=reduction)
            ref_loss, ref = whole_batch_reference(params, batch, small_vocab(), alpha,
                                                  reduction)
            assert loss == ref_loss
            for name, g in grads.items():
                assert g.dtype == np.float64 and g.tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_float32_is_the_whole_batch_flushed_backward(self, alpha, reduction):
        """The float32 step in blocks of rows is bitwise the whole-batch
        float64 deltas, flushed and cast once, through float32 GEMMs. In the
        second batch every row asks the (0, 0) pair, so the entities that
        are neither in its history nor a truth get only flushed copy deltas:
        their w_copy rows are exactly zero, where unflushed subnormal deltas
        would leave subnormals."""
        for n, seed in itertools.product((7, 7001), range(5)):
            rng = np.random.default_rng(seed)
            params = random_params(rng, n, 4, 3, dtype=np.float32)
            one_pair = block_batch(rng, n)
            one_pair[:, :2] = 0
            one_pair[:, 2] %= 5
            for batch in (block_batch(rng, n), one_pair):
                loss, grads = loss_and_gradients(params, batch, small_vocab(), alpha,
                                                 reduction=reduction)
                ref_loss, ref = whole_batch_reference(params, batch, small_vocab(), alpha,
                                                      reduction)
                assert loss == ref_loss
                for name, g in grads.items():
                    assert g.dtype == np.float32 and g.tobytes() == ref[name].tobytes(), name
            assert not grads["w_copy"][5:].any()  # truths are 0..4, the history 1..3

    def test_peak_allocation(self):
        """The traced peak of a float32 step at B=64, N=3000, d=32 whose
        gradient blocks go to a sink that keeps none, in units of one (B, N)
        float32 array: the two head GEMM outputs, which end up holding the
        deltas, plus the block buffers and smaller temporaries. No timing
        test can catch a reintroduced (B, N) float64 temporary, which costs
        a few percent of a step, so this counts the bytes (the whole-batch
        step read 7.45, less its gradients)."""
        rng = np.random.default_rng(3)
        b, n = 64, 3000
        params = random_params(rng, n, 4, 32, dtype=np.float32)
        facts = np.column_stack([rng.integers(0, n, 3000), rng.integers(0, 4, 3000),
                                 rng.integers(0, n, 3000), rng.integers(0, 5, 3000)])
        vocab = vocab_from_quads(facts).freeze()
        batch = facts[:b] + [0, 0, 0, 5]
        _, peak = traced_peak(lambda: batch_loss(params, batch, vocab, 0.8))
        assert peak / (b * n * 4) <= STEP_PEAK_ARRAYS

    def test_non_finite_raises(self):
        params = random_params(np.random.default_rng(10), 5, 2, 3)
        params.w_gen[:] = 1e308
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(GradientError, match="w_gen|entity_emb"):
                batch_gradients(params, [[0, 0, 1, 0]], HistVocab(), alpha=0.0)

    @pytest.mark.parametrize("head, alpha", [("w_gen", 0.0), ("w_copy", 1.0)])
    def test_non_finite_head_block_raises_before_it_is_applied(self, head, alpha):
        """A non-finite head-weight block raises, naming its tensor, before
        the sink gets it; the blocks before it are applied, none after.
        Here τ is so large that the time columns of a head's weights
        overflow in the row of the truth alone, in their second block. The
        mixture weight gives the other head zero deltas, and with zero time
        columns of W the forward and every other block stay finite."""
        n, height = training.GRAD_BLOCK_ROWS + 300, training.GRAD_BLOCK_ROWS
        params = random_params(np.random.default_rng(16), n, 2, 3, scale=0.1,
                               dtype=np.float32)
        params.time_unit[:] = np.finfo(np.float32).max
        params.w_copy[:, 6:] = params.w_gen[:, 6:] = 0.0
        truth = height + 5
        batch = [[0, 0, truth, 0], [1, 1, truth, 0], [2, 0, truth, 0]]
        before = {k: v.copy() for k, v in params.tensors().items()}
        optimizer = AmsGrad(params, lr=0.01)
        applied = []

        def apply(name, first_row, block):
            applied.append((name, first_row))
            optimizer.step(name, first_row, block)

        with np.errstate(over="ignore"):
            with pytest.raises(GradientError, match=f"^non-finite gradient in {head}$"):
                training._loss_and_grads(params, batch, HistVocab(), alpha, apply=apply)
        # the generation head's blocks come first
        expected = [("w_gen", 0)] if head == "w_gen" else [
            ("w_gen", 0), ("w_gen", height), ("w_copy", 0)]
        assert applied == expected
        # zero blocks leave the other head as it was
        changed = {k for k, v in params.tensors().items() if v.tobytes() != before[k].tobytes()}
        assert changed == {head}
        tensor = getattr(params, head)
        assert tensor[height:].tobytes() == before[head][height:].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_names_the_first_bad_tensor(self, bad):
        """A NaN or an infinity anywhere in a gradient fails it, whatever the
        finite extremes around it, and the error names its tensor, so a walk
        over the tensors stops at the first bad one; finite gradients, up to
        the dtype's largest values, pass."""
        params = random_params(np.random.default_rng(15), 6, 2, 3, dtype=np.float32)
        grads = batch_gradients(params, [[0, 0, 1, 0], [2, 1, 3, 1]], HistVocab(), alpha=0.5)
        grads["w_copy"][0, 0] = np.finfo(np.float32).max
        grads["w_copy"][-1, -1] = np.finfo(np.float32).min

        def check_all():
            for name, grad in grads.items():
                training.check_finite(name, grad)

        check_all()
        grads["b_gen"][-1] = bad
        grads["w_copy"][3, 1] = bad
        with pytest.raises(GradientError, match="^non-finite gradient in w_copy$"):
            check_all()
        grads["w_copy"][3, 1] = 0.0
        with pytest.raises(GradientError, match="^non-finite gradient in b_gen$"):
            check_all()


def flush_edges() -> np.ndarray:
    """float64 values at and around float32's normal range, as one column."""
    tiny = float(np.finfo(np.float32).tiny)
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, tiny, -tiny, tiny * (1 - 2.0 ** -30), -tiny * (1 - 2.0 ** -30),
             tiny / 2, -tiny / 2, 4e-44, -4e-44, 5e-324, -5e-324, 1e-40, 1.0, -3.5,
             1e-30, 3e38]
    x = np.concatenate([edges, rng.standard_normal(2000) * 10.0 ** rng.integers(-50, 10, 2000)])
    return x.reshape(-1, 1)


class TestFlushCast:
    def test_float32_flushes_subnormals_to_positive_zero(self):
        """No tier-1 test can time the float32-subnormal slowdown of the
        backward GEMMs, so this test is what stops a refactor from dropping
        the flush."""
        tiny = float(np.finfo(np.float32).tiny)
        x = flush_edges()
        before = x.copy()
        out = np.empty(x.shape, np.float32)
        assert training._flush_cast(x, np.float32, out=out) is out
        assert x.tobytes() == before.tobytes()
        small = np.abs(x) < tiny
        assert small.sum() > 10 and (~small).sum() > 10
        assert not out.view(np.uint32)[small].any()  # exactly +0.0
        assert out[~small].tobytes() == x[~small].astype(np.float32).tobytes()

    def test_float64_comes_back_unchanged(self):
        x = np.array([[0.0, -0.0, 5e-324, -4e-44, 1e-300, 1.0, -2.5]])
        out = training._flush_cast(x, np.float64, out=np.empty(x.shape))
        assert out.tobytes() == x.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_rows_of_a_larger_array(self, dtype):
        """With ``out=`` (here the middle rows of a larger array, as the
        train step passes a block's rows) the result is written there, bit
        for bit that of a new array, and nothing else is touched."""
        x = flush_edges()
        buffer = np.full((len(x) + 2, 1), np.nan, dtype=dtype)
        out = training._flush_cast(x, dtype, out=buffer[1:-1])
        assert np.shares_memory(out, buffer) and out.shape == x.shape
        assert out.tobytes() == training._flush_cast(x, dtype, out=np.empty(x.shape, dtype)).tobytes()
        assert np.isnan(buffer[[0, -1]]).all()


class TestAmsGrad:
    def test_slices_equal_the_whole_tensor_update(self):
        """Tensors of several slices, whose lengths are not multiples of a
        slice, one of them Fortran-ordered: three steps equal the
        whole-tensor formula bit for bit, in the caller's own arrays."""
        rng = np.random.default_rng(14)
        n = 40000
        params = random_params(rng, n, 3, 1, dtype=np.float32)
        params.w_gen = np.asfortranarray(params.w_gen)
        for name in ("entity_emb", "w_copy", "b_copy", "w_gen"):
            shape = getattr(params, name).shape
            per_slice = model.CACHE_ELEMENTS // math.prod(shape[1:])
            assert shape[0] > per_slice and shape[0] % per_slice, name
        arrays = params.tensors()
        expected = {k: v.copy() for k, v in arrays.items()}
        m, v, vhat = ({k: np.zeros_like(a) for k, a in arrays.items()} for _ in range(3))
        opt = AmsGrad(params, lr=0.01)
        for _ in range(3):
            grads = {k: rng.standard_normal(a.shape).astype(np.float32)
                     for k, a in arrays.items()}
            amsgrad_step(opt, grads)
            for name, g in grads.items():
                m[name] *= opt.beta1
                m[name] += (1.0 - opt.beta1) * g
                v[name] *= opt.beta2
                v[name] += (1.0 - opt.beta2) * g * g
                np.maximum(vhat[name], v[name], out=vhat[name])
                expected[name] -= opt.lr * m[name] / (np.sqrt(vhat[name]) + opt.eps)
        assert params.w_gen.flags.f_contiguous and not params.w_gen.flags.c_contiguous
        for name, arr in params.tensors().items():
            assert arr is arrays[name], name
            assert arr.tobytes() == expected[name].tobytes(), name

    def test_zero_gradient_is_fixed_point(self):
        params = random_params(np.random.default_rng(11), 5, 3, 3, dtype=np.float32)
        before = {k: v.copy() for k, v in params.tensors().items()}
        opt = AmsGrad(params, lr=0.1)
        grads = batch_gradients(params, [[0, 0, 1, 0]], HistVocab(), alpha=0.0)
        for arr in grads.values():
            arr[:] = 0.0
        amsgrad_step(opt, grads)
        for name, arr in params.tensors().items():
            assert np.array_equal(arr, before[name]), name

    def test_single_step_hand_computed(self):
        params = random_params(np.random.default_rng(12), 2, 1, 1, scale=0.0,
                               dtype=np.float64)
        lr = 0.001
        opt = AmsGrad(params, lr=lr)
        grads = batch_gradients(params, [[0, 0, 1, 0]], HistVocab(), alpha=0.0)
        for arr in grads.values():
            arr[:] = 0.0
        grads["b_gen"][0] = 1.0
        amsgrad_step(opt, grads)
        expected = -lr * 0.1 / (math.sqrt(0.001) + 1e-8)
        assert params.b_gen[0] == pytest.approx(expected, rel=1e-12)

    def test_vhat_never_decreases(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, 4, 2, 2, dtype=np.float64)
        opt = AmsGrad(params, lr=0.001)
        previous = None
        for _ in range(100):
            grads = batch_gradients(
                params, [[int(rng.integers(4)), int(rng.integers(2)),
                          int(rng.integers(4)), int(rng.integers(3))]],
                HistVocab(), alpha=0.0)
            amsgrad_step(opt, grads)
            snapshot = {k: v.copy() for k, v in opt._vhat.items()}
            if previous is not None:
                for name in snapshot:
                    assert (snapshot[name] >= previous[name]).all()
            previous = snapshot


def two_snapshot_quads():
    rows = [(i % 4, 0, (i + 1) % 4, 0) for i in range(5)]
    rows += [(i % 4, 0, (i + 2) % 4, 1) for i in range(3)]
    return np.asarray(rows, dtype=np.int64)


def whole_set_fit(quads, num_entities, num_relations_aug, num_snapshots, config):
    """``fit`` with whole gradient sets: each step collects the batch's
    gradient dict, then applies the published AMSGrad formula to each whole
    tensor. Returns the parameters and every epoch's snapshot losses."""
    rng = np.random.default_rng(config.seed)
    params = init_params(num_entities, num_relations_aug, num_snapshots, config, rng)
    tensors = params.tensors()
    m, v, vhat = ({k: np.zeros_like(t) for k, t in tensors.items()} for _ in range(3))
    facts = dedupe(quads[:, [3, 0, 1, 2]])[:, [1, 2, 3, 0]]  # by (t, s, p, o)
    index = FactIndex(quads)
    reduction = "mean" if config.mean_loss else "sum"
    losses = []
    for _ in range(config.epochs):
        for k in range(int(facts[:, 3].max()) + 1):
            snapshot = facts[facts[:, 3] == k]
            snapshot = snapshot[rng.permutation(len(snapshot))] if len(snapshot) else snapshot
            snap_loss = 0.0
            for start in range(0, len(snapshot), config.batch_size):
                loss, grads = loss_and_gradients(params, snapshot[start:start + config.batch_size],
                                                 HistVocab(index, k), config.alpha,
                                                 reduction=reduction)
                for name, g in grads.items():
                    m[name] *= AmsGrad.beta1
                    m[name] += (1.0 - AmsGrad.beta1) * g
                    v[name] *= AmsGrad.beta2
                    v[name] += (1.0 - AmsGrad.beta2) * g * g
                    np.maximum(vhat[name], v[name], out=vhat[name])
                    tensors[name] -= config.learning_rate * m[name] / (np.sqrt(vhat[name])
                                                                       + AmsGrad.eps)
                snap_loss += loss
            losses.append(snap_loss)
    return params, losses


class TestFit:
    @pytest.mark.parametrize("n", [7, 2 * training.GRAD_BLOCK_ROWS + 37])
    @pytest.mark.parametrize("mean_loss", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32])  # the dtype fit trains at
    def test_fused_update_is_the_whole_set_update(self, dtype, mean_loss, n):
        """Applying each gradient block as the backward makes it gives
        bitwise the losses and parameters of whole gradient sets applied
        after the backward, over 2 epochs of 4 snapshots (one of them
        empty) in several steps each: nothing is updated before the
        backward has read it. N lies below one block, or is not a multiple
        of the block height."""
        rng = np.random.default_rng(17)
        r_aug, per_snapshot = 3, 20
        quads = np.column_stack([rng.integers(0, n, 4 * per_snapshot),
                                 rng.integers(0, r_aug, 4 * per_snapshot),
                                 rng.integers(0, n, 4 * per_snapshot),
                                 np.repeat([0, 1, 3, 4], per_snapshot)])
        quads[::3, :3] = quads[0, :3]  # one pair with history in every snapshot
        config = TrainConfig(alpha=0.6, dim=4, batch_size=6, epochs=2, seed=5,
                             learning_rate=0.01, mean_loss=mean_loss)
        params, log = fit(quads, n, r_aug, 5, config)
        want, losses = whole_set_fit(quads, n, r_aug, 5, config)
        assert log.epochs[0].steps >= 9
        assert [x for e in log.epochs for x in e.snapshot_losses] == losses
        expected = want.tensors()
        for name, tensor in params.tensors().items():
            assert tensor.dtype == dtype and tensor.tobytes() == expected[name].tobytes(), name

    def test_history_built_once(self, monkeypatch):
        """One fact index per call, read at each snapshot's frontier: no
        per-epoch rebuild and no snapshot absorbed."""
        calls = {"index": 0, "absorb": 0}
        real_index, real_absorb = training.FactIndex, HistVocab.absorb_snapshot

        def counting_index(*args):
            calls["index"] += 1
            return real_index(*args)

        def counting_absorb(self, *args, **kwargs):
            calls["absorb"] += 1
            return real_absorb(self, *args, **kwargs)

        monkeypatch.setattr(training, "FactIndex", counting_index)
        monkeypatch.setattr(HistVocab, "absorb_snapshot", counting_absorb)
        config = TrainConfig(alpha=0.5, dim=3, batch_size=2, epochs=3, seed=0)
        _, log = fit(two_snapshot_quads(), 4, 1, 2, config)
        assert len(log.epochs) == 3
        assert calls == {"index": 1, "absorb": 0}

    def test_step_count(self):
        quads = two_snapshot_quads()
        sizes = np.bincount(dedupe(quads)[:, 3])  # distinct facts per snapshot
        config = TrainConfig(alpha=0.5, dim=3, batch_size=2, epochs=1, seed=0)
        _, log = fit(quads, 4, 1, 2, config)
        assert log.epochs[0].steps == sum(math.ceil(m / 2) for m in sizes)

    @pytest.mark.parametrize("dtype", [np.float32])  # the dtype fit trains at
    def test_peak_holds_no_gradient_set(self, dtype):
        """Over several steps and snapshots, ``fit`` holds the parameters,
        AMSGrad's three moments and one step's temporaries: at most
        ``STEP_PEAK_ARRAYS`` (B, N) arrays at parameter dtype and one
        head-weight gradient block. No gradient set is ever alive, as each
        block is applied as the backward makes it; one set alone would not
        fit in that budget."""
        rng = np.random.default_rng(3)
        n, r_aug, b, d = 3000, 4, 64, 64
        facts = np.column_stack([rng.integers(0, n, 400), rng.integers(0, r_aug, 400),
                                 rng.integers(0, n, 400), rng.integers(0, 3, 400)])
        config = TrainConfig(dim=d, batch_size=b, epochs=1, seed=0)
        (params, log), peak = traced_peak(lambda: fit(facts, n, r_aug, 3, config))
        assert log.epochs[0].steps >= 6 and len(log.epochs[0].snapshot_losses) == 3
        parameter_bytes = sum(t.nbytes for t in params.tensors().values())
        itemsize = np.dtype(dtype).itemsize
        budget = (STEP_PEAK_ARRAYS * b * n * itemsize
                  + min(training.GRAD_BLOCK_ROWS, n) * 3 * d * itemsize)
        assert parameter_bytes > budget
        # less the parameters and three moments
        assert peak - 4 * parameter_bytes <= budget

    def test_duplicates_train_once(self):
        """A fact repeated within a snapshot is one training fact: the fit is
        bitwise the fit of the deduplicated input, whatever its row order."""
        quads = two_snapshot_quads()  # (0, 0, 1, 0) occurs twice
        assert len(dedupe(quads)) == len(quads) - 1
        for mean_loss in (False, True):
            config = TrainConfig(alpha=0.5, dim=3, batch_size=2, epochs=2, seed=3,
                                 mean_loss=mean_loss)
            params_a, log_a = fit(quads, 4, 1, 2, config)
            params_b, log_b = fit(dedupe(quads)[::-1], 4, 1, 2, config)
            assert ([(e.loss, e.steps, e.snapshot_losses) for e in log_a.epochs]
                    == [(e.loss, e.steps, e.snapshot_losses) for e in log_b.epochs])
            tensors_b = params_b.tensors()
            for name, tensor in params_a.tensors().items():
                assert tensor.tobytes() == tensors_b[name].tobytes(), name

    def test_gap_snapshot_trains_nothing(self):
        """A time without facts stays in the sequence as an empty snapshot:
        it adds a 0.0 loss and takes no step, and later snapshots keep their
        index."""
        quads = np.asarray([(0, 0, 1, 0), (1, 0, 2, 0), (2, 0, 3, 2)], dtype=np.int64)
        config = TrainConfig(alpha=0.5, dim=3, batch_size=1, epochs=1, seed=0)
        _, log = fit(quads, 4, 1, 3, config)
        epoch = log.epochs[0]
        assert len(epoch.snapshot_losses) == 3
        assert epoch.snapshot_losses[1] == 0.0
        assert epoch.snapshot_losses[0] > 0.0 and epoch.snapshot_losses[2] > 0.0
        assert epoch.steps == 3

    @pytest.mark.parametrize("column, value", [(3, -1), (0, -1), (2, 4), (1, 2)])
    def test_out_of_range_ids(self, column, value):
        """A fact at t < 0 used to be skipped silently, a negative entity
        id trained the last entity, and an id past the end failed with a
        bare IndexError."""
        quads = two_snapshot_quads()
        quads[6, column] = value
        config = TrainConfig(alpha=0.5, dim=3, batch_size=2, epochs=1, seed=0)
        with pytest.raises(ValueError, match=r"^fact row 6 \(.*\) is out of range"):
            fit(quads, 4, 2, 2, config)

    def test_empty_input_has_no_snapshots(self):
        config = TrainConfig(alpha=0.5, dim=3, batch_size=2, epochs=2, seed=0)
        params, log = fit(np.empty((0, 4), np.int64), 4, 1, 2, config)
        assert [(e.loss, e.steps, e.snapshot_losses) for e in log.epochs] == [(0.0, 0, [])] * 2
        assert params.num_entities == 4

    def test_deterministic_loss_curve(self):
        quads = two_snapshot_quads()
        config = TrainConfig(alpha=0.5, dim=3, batch_size=4, epochs=3, seed=7)
        _, log_a = fit(quads, 4, 1, 2, config)
        _, log_b = fit(quads, 4, 1, 2, config)
        assert [e.loss for e in log_a.epochs] == [e.loss for e in log_b.epochs]  # bit-identical

    def test_schedule_causality(self):
        # (0,0)->3 first occurs in snapshot 1; with a pure copy model its
        # truth must still be masked there, making the loss ~ the mask
        # magnitude. A leaky schedule would give ~ln(3) instead.
        quads = np.asarray([
            (0, 0, 1, 0), (0, 0, 2, 0),
            (0, 0, 3, 1),
        ], dtype=np.int64)
        config = TrainConfig(alpha=1.0, dim=3, batch_size=8, epochs=1, seed=0,
                             learning_rate=1e-6)
        _, log = fit(quads, 6, 1, 2, config)
        assert log.epochs[0].snapshot_losses[1] > 50.0

    def test_monotone_loss_on_recurrent_toy(self):
        config_data = SynthConfig(num_entities=100, num_relations=5,
                                  num_snapshots=20, facts_per_snapshot=60,
                                  recurrence=1.0, seed=3, fixed_objects=True)
        quads, _ = generate(config_data)
        config = TrainConfig(alpha=0.8, dim=16, batch_size=256, epochs=5, seed=0)
        _, log = fit(quads, 100, 5, 20, config)
        losses = [e.loss for e in log.epochs]
        assert all(losses[i + 1] < losses[i] + 1e-3 for i in range(len(losses) - 1))

    def test_patience_stops_early(self):
        quads = two_snapshot_quads()
        config = TrainConfig(alpha=0.5, dim=3, batch_size=8, epochs=10, seed=0,
                             learning_rate=1e-30, patience=1)
        _, log = fit(quads, 4, 1, 2, config)
        assert len(log.epochs) == 2

    def test_trained_model_beats_uniform_loss(self):
        quads = two_snapshot_quads()
        config = TrainConfig(alpha=0.5, dim=8, batch_size=8, epochs=30, seed=1)
        params, log = fit(quads, 4, 1, 2, config)
        assert log.epochs[-1].loss < log.epochs[0].loss
        vocab = vocab_from_quads(quads)
        assert batch_loss(params, quads, vocab, 0.5) < len(quads) * math.log(4)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 1.5}, {"dim": 0}, {"learning_rate": -1.0},
        {"batch_size": 0}, {"epochs": 0}, {"mask_magnitude": 0.0},
        {"patience": 0}, {"mask_magnitude": math.inf}, {"mask_magnitude": math.nan},
        {"learning_rate": math.inf}, {"learning_rate": math.nan}, {"alpha": math.nan},
        {"mask_magnitude": 1e39}, {"mask_magnitude": 1e-50},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_alpha_rejected_like_the_train_step(self):
        """The config, the train step and the evaluators reject a bad alpha
        with one message."""
        params = random_params(np.random.default_rng(0), 7, 4, 3)
        for alpha in (2, -0.5, math.nan):
            message = rf"^alpha must lie in \[0, 1\], got {alpha}$"
            with pytest.raises(ValueError, match=message):
                TrainConfig(alpha=alpha)
            with pytest.raises(ValueError, match=message):
                batch_loss(params, BATCH, small_vocab(), alpha)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 2.5}, {"dim": 8.5}, {"dim": 8.0}, {"batch_size": True},
        {"epochs": True}, {"patience": 1.5}, {"patience": "2"},
    ])
    def test_counts_must_be_integers(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer, got 2.5"), (True, "seed must be an integer, got True"),
        (-1, "seed must be at least 0, got -1")])
    def test_seed_checked_when_built(self, seed, message):
        """2.5 used to fail inside ``fit`` with numpy's TypeError."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(seed=seed)
