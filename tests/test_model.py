import itertools
import math
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from copygen import model
from copygen.evaluation import rank_of_truth
from copygen.history import HistVocab, block_pairs, masks_for, vocab_from_quads
from copygen.model import (
    ModelParams,
    load_checkpoint,
    mix,
    save_checkpoint,
    score_batch,
    score_heads,
    stable_softmax,
)
from copygen.options import TrainConfig

from oracles import (checkpoint_config_text, head_rows, lookup, params_astype, random_params,
                     rel_err, scalar_copy_probs, scalar_generation_probs)


def zero_params(n=4, d=3, r=2, **kw):
    return ModelParams(
        entity_emb=np.zeros((n, d)), relation_emb=np.zeros((r, d)),
        time_unit=np.zeros(d), w_copy=np.zeros((n, 3 * d)), b_copy=np.zeros(n),
        w_gen=np.zeros((n, 3 * d)), b_gen=np.zeros(n),
        num_snapshots=5, **kw)


def head(params, vocab, name, s=0, p=0, k=0):
    """One query's row of one ``score_heads`` head."""
    mode = {"pc": "copy-only", "pg": "gen-only"}[name]
    return score_heads(params, [s], [p], [k], vocab, (mode,))[name][0]


def ranking(probs):
    """Entity ids in the order the evaluator ranks them (raw regime)."""
    return sorted(range(len(probs)), key=lambda e: rank_of_truth(probs, e, regime="raw"))


class TestTimeEmbedding:
    """The time term of each head: snapshot k embeds as t_k = (k + 1)·τ,
    so a query at snapshot k adds W_t t_k = (k + 1)·(W_t τ) to its head's
    GEMM row."""

    def time_terms(self, params, times):
        """What ``build_heads`` adds for the times of queries at ``times``
        under a zero bias: copy head rows, then generation head rows."""
        terms = []
        for direction in model.time_directions(params):
            rows = np.zeros((len(times), params.num_entities), dtype=params.time_unit.dtype)
            model._add_time_and_bias(rows, times, direction, np.zeros_like(direction),
                                     np.empty_like(rows))
            terms.append(rows)
        return terms

    def unit_params(self):
        """W_t is the identity in the copy head and its negation in the
        generation head, so W_t τ is τ and -τ."""
        params = zero_params(n=3, d=3)
        params.w_copy[:, 6:] = np.eye(3)
        params.w_gen[:, 6:] = -np.eye(3)
        params.time_unit = np.array([1.0, -2.0, 0.5])
        return params

    def test_base_case(self):
        copy, gen = self.time_terms(self.unit_params(), [0])
        assert copy.tolist() == [[1.0, -2.0, 0.5]]
        assert gen.tolist() == [[-1.0, 2.0, -0.5]]

    def test_unrolled_recurrence(self):
        copy, gen = self.time_terms(self.unit_params(), [2])
        assert copy.tolist() == [[3.0, -6.0, 1.5]]
        assert gen.tolist() == [[-3.0, 6.0, -1.5]]

    def test_zero_unit(self):
        params = self.unit_params()
        params.time_unit = np.zeros(3)
        for term in self.time_terms(params, [7]):
            assert term.tolist() == [[0.0, 0.0, 0.0]]

    def test_linearity(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 5, 3, 4)
        times = [0, 1, 5, 40]
        for weights, term in zip((params.w_copy, params.w_gen), self.time_terms(params, times)):
            for k, row in zip(times, term):
                assert np.allclose(row, weights[:, 8:] @ ((k + 1) * params.time_unit))
                assert np.allclose(row, (k + 1) * term[0])


class TestCopyProbs:
    def test_uniform_with_full_vocabulary(self):
        params = zero_params(n=4)
        vocab = vocab_from_quads([(0, 0, o, 0) for o in range(4)])
        assert np.allclose(head(params, vocab, "pc"), 0.25, atol=1e-15)

    def test_masked_softmax_arithmetic(self):
        params = zero_params(n=4)
        probs = head(params, vocab_from_quads([(0, 0, 0, 0), (0, 0, 1, 0)]), "pc")
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[2] <= math.exp(-100) / 2
        assert probs[3] <= math.exp(-100) / 2

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            params = random_params(rng, 7, 4, 4)
            vocab = HistVocab()
            vocab.absorb_snapshot([(0, 1, 3), (0, 1, 5), (2, 0, 6)])
            subjects, relations = [0, 2, 1], [1, 0, 3]
            times = rng.integers(0, 12, 3)
            masks = np.zeros((3, 7))
            masks_for(vocab, subjects, relations, masks)
            got = score_heads(params, subjects, relations, times, vocab, ("copy-only",))["pc"]
            for row, s, p, k, mask in zip(got, subjects, relations, times.tolist(), masks):
                assert rel_err(row, scalar_copy_probs(params, s, p, k, mask), floor=1e-300) < 1e-12


class TestGenerationProbs:
    def test_uniform(self):
        assert np.allclose(head(zero_params(n=5), HistVocab(), "pg"), 0.2, atol=1e-15)

    def test_known_logits(self):
        params = zero_params(n=2)
        params.b_gen = np.array([math.log(2.0), 0.0])
        probs = head(params, HistVocab(), "pg")
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = random_params(rng, 6, 3, 5)
            subjects, relations, times = (rng.integers(0, m, 4) for m in (6, 3, 9))
            got = score_heads(params, subjects, relations, times, HistVocab(),
                              ("gen-only",))["pg"]
            for row, s, p, k in zip(got, subjects.tolist(), relations.tolist(),
                                    times.tolist()):
                assert rel_err(row, scalar_generation_probs(params, s, p, k),
                               floor=1e-300) < 1e-12


class TestCombine:
    """``mix`` of two heads: alpha * pc + (1 - alpha) * pg."""

    def test_definition(self):
        heads = {"pc": np.array([[1.0, 0, 0]]), "pg": np.array([[0, 1.0, 0]])}
        assert np.allclose(mix(heads, "full", 0.8), [[0.8, 0.2, 0.0]], atol=1e-15)
        heads = {"pc": heads["pc"], "pg_new": heads["pg"]}
        assert np.allclose(mix(heads, "gen-new", 0.8), [[0.8, 0.2, 0.0]], atol=1e-15)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        heads = {"pc": stable_softmax(rng.normal(size=(2, 6))),
                 "pg": stable_softmax(rng.normal(size=(2, 6)))}
        assert np.array_equal(mix(heads, "full", 1.0), heads["pc"])
        assert np.array_equal(mix(heads, "full", 0.0), heads["pg"])
        assert mix(heads, "copy-only", 0.3) is heads["pc"]
        assert mix(heads, "gen-only", 0.3) is heads["pg"]

    def test_fixed_point(self):
        v = stable_softmax(np.arange(4.0))
        for alpha in (0.0, 0.3, 1.0):
            assert np.allclose(mix({"pc": v, "pg": v}, "full", alpha), v, atol=1e-15)

    def test_alpha_bounds(self):
        v = np.array([1.0])
        for alpha in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                mix({"pc": v, "pg": v}, "full", alpha)


class TestNormalization:
    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        vocab = vocab_from_quads(np.column_stack([
            rng.integers(0, 9, 40), rng.integers(0, 4, 40),
            rng.integers(0, 9, 40), rng.integers(0, 6, 40)]))
        params = random_params(rng, 9, 4, 5, scale=2.0, dtype=np.float32)
        subjects = rng.integers(0, 9, 100)
        relations = rng.integers(0, 4, 100)
        times = rng.integers(0, 10, 100)
        for mode in ("full", "copy-only", "gen-only", "gen-new"):
            probs = score_batch(params, subjects, relations, times, vocab,
                                alpha=0.7, mode=mode)
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
            assert probs.min() >= 0.0


class TestScoreHeads:
    def test_only_needed_heads(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 6, 2, 3)
        vocab = vocab_from_quads([(0, 0, 1, 0)])
        assert model.MODES == ("full", "copy-only", "gen-only", "gen-new")
        for modes, keys in ((("copy-only",), {"pc"}), (("gen-only",), {"pg"}),
                            (("full",), {"pc", "pg"}), (("gen-new",), {"pc", "pg_new"}),
                            (model.MODES, {"pc", "pg", "pg_new"})):
            heads = model.score_heads(params, [0, 1], [0, 1], [1, 1], vocab, modes)
            assert set(heads) == keys
            for mode in modes:
                assert np.array_equal(
                    model.mix(heads, mode, 0.3),
                    score_batch(params, [0, 1], [0, 1], [1, 1], vocab, alpha=0.3,
                                mode=mode))

    @pytest.mark.parametrize("magnitude", [0.0, -1.0, np.inf, np.nan, 1e39, 1e-50])
    def test_bad_magnitude_rejected_in_every_mode(self, magnitude):
        """gen-only masks nothing and still rejects the magnitude, with the
        message of the mask itself: values past float32 or rounding to 0
        too, as the checkpoint header would."""
        params = zero_params(mask_magnitude=magnitude)
        vocab = vocab_from_quads([(0, 0, 1, 0)])
        message = f"mask_magnitude is {magnitude}, expected a finite float32 > 0"
        for mode in model.MODES:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                score_heads(params, [0], [0], [1], vocab, (mode,))

    @pytest.mark.parametrize("column, value", [(0, -1), (0, 6), (1, -2), (1, 2), (2, -1)])
    def test_out_of_range_ids(self, column, value):
        """Subject -1 used to score as entity N-1, relation -2 read the
        embedding counted from the end and time -1 was accepted; subject N
        failed with a bare IndexError."""
        rng = np.random.default_rng(8)
        params = random_params(rng, 6, 2, 3)
        vocab = vocab_from_quads([(0, 0, 1, 0)])
        queries = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 3]])
        queries[1, column] = value
        message = rf"^query row 1 \({', '.join(map(str, queries[1]))}\) is out of range"
        for run in (lambda: score_heads(params, *queries.T, vocab, model.MODES),
                    lambda: score_batch(params, *queries.T, vocab)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_rows_finite_or_all_nan(self, dtype):
        """The evaluator checks one entry per head row for finiteness, which
        holds because a softmax row is finite or entirely NaN; it is finite
        exactly when its logits hold no NaN or +inf and not only -inf."""
        rng = np.random.default_rng(17)
        big = float(np.finfo(dtype).max)
        rows = [rng.normal(size=9) * 10.0 ** rng.integers(-3, 3) for _ in range(60)]
        for row in rows[:50]:
            at = rng.choice(9, size=rng.integers(1, 4), replace=False)
            row[at] = rng.choice([np.nan, np.inf, -np.inf, big, -big], size=len(at))
        rows += [np.full(9, -np.inf), np.full(9, np.inf), np.full(9, np.nan),
                 np.array([-big, big] * 4 + [0.0])]
        logits = np.array(rows).astype(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            probs = stable_softmax(logits)
        finite = np.isfinite(probs)
        assert (finite.all(axis=1) | np.isnan(probs).all(axis=1)).all()
        expected = ~(np.isnan(logits) | (logits == np.inf)).any(axis=1)
        expected &= (logits != -np.inf).any(axis=1)
        assert np.array_equal(finite[:, 0], expected)

    def test_softmax_leaves_input_untouched(self):
        logits = np.arange(6.0).reshape(2, 3)
        stable_softmax(logits)
        assert logits.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def out_of_place_heads(params, subjects, relations, times, vocab, *, factored=True):
    """The three heads by the earlier out-of-place formula over whole-batch
    ``head_rows`` (factored or concatenated): dense additive masks added to
    the float64 logits, then z - z.max, exp and a division."""
    seen = np.zeros((len(subjects), params.num_entities), dtype=bool)
    for row, (s, p) in zip(seen, zip(subjects, relations)):
        row[lookup(vocab, s, p)] = True
    mag = params.mask_magnitude

    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    copy, gen = head_rows(params, subjects, relations, times, factored=factored)
    copy, gen = np.tanh(copy).astype(np.float64), gen.astype(np.float64)
    return {"pc": softmax(copy + np.where(seen, 0.0, -mag)), "pg": softmax(gen),
            "pg_new": softmax(gen + np.where(seen, -mag, 0.0))}


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestInPlaceHeads:
    """score_heads casts, masks and softmaxes in place; every head stays
    bitwise that of the out-of-place formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_out_of_place_formula(self, dtype):
        rng = np.random.default_rng(21)
        n = 6
        # (1, 0) has seen every object; (2, 1) saw object 3 at three times
        vocab = vocab_from_quads([(1, 0, o, 0) for o in range(n)]
                                 + [(2, 1, 3, t) for t in range(3)]
                                 + [(2, 1, 5, 1), (3, 1, 0, 2)]).freeze()
        # rows: empty history, full history, a repeated fact, a partial one
        subjects, relations, times = [0, 1, 2, 3, 2], [0, 0, 1, 1, 1], [3, 3, 4, 5, 9]
        for params in (random_params(rng, n, 2, 3, dtype=dtype),
                       params_astype(zero_params(n=n), dtype)):
            expected = out_of_place_heads(params, subjects, relations, times, vocab)
            for modes in [(mode,) for mode in model.MODES] + [model.MODES]:
                heads = score_heads(params, subjects, relations, times, vocab, modes)
                for name, head in heads.items():
                    assert np.array_equal(bits(head), bits(expected[name])), (name, modes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_build_heads_in_any_order_and_in_row_blocks(self, dtype):
        """build_heads builds each time term in its first head's rows. Every
        order of the three heads (the evaluator's follow a set, whose order
        varies with PYTHONHASHSEED) gives the out-of-place heads bitwise,
        also when the heads are rows 1..b of larger buffers, as in the train
        step, whose other rows stay untouched."""
        rng = np.random.default_rng(23)
        n = 6
        vocab = vocab_from_quads([(1, 0, o, 0) for o in range(n)]
                                 + [(2, 1, 3, t) for t in range(3)] + [(2, 1, 5, 1)])
        subjects, relations, times = [0, 1, 2, 2, 1], [0, 0, 1, 1, 0], [3, 3, 4, 9, 5]
        b = len(subjects)
        params = random_params(rng, n, 2, 3, dtype=dtype)
        expected = out_of_place_heads(params, subjects, relations, times, vocab)
        inputs = model.query_inputs(params, subjects, relations)
        ((_, rows, objects),) = block_pairs(vocab, subjects, relations, b)
        for order in itertools.permutations(expected):
            for offset in (0, 1):
                buffers = {name: rng.normal(size=(b + 2 * offset, n)) for name in order}
                before = {name: buffer.copy() for name, buffer in buffers.items()}
                heads = {name: buffers[name][offset:offset + b] for name in order}
                model.build_heads(heads, params, model.time_directions(params), times,
                                  model.copy_index_batch(params, inputs),
                                  model.generation_logits_batch(params, inputs), rows, objects)
                for name, head in heads.items():
                    assert np.array_equal(bits(head), bits(expected[name])), (name, order)
                    outside = np.ones(b + 2 * offset, dtype=bool)
                    outside[offset:offset + b] = False
                    assert np.array_equal(bits(buffers[name][outside]),
                                          bits(before[name][outside])), (name, order)

    def test_score_heads_blocks_at_block_rows(self):
        """score_heads builds each GEMM's heads in blocks of block_rows(N)
        rows (at N=100, 4 blocks per head pass where 4-row blocks made 256),
        and its heads are bitwise those of one whole-batch block."""
        rng = np.random.default_rng(24)
        n, b = 100, 1024
        params = random_params(rng, n, 4, 8, dtype=np.float32)
        facts = np.column_stack([rng.integers(0, n, 3000), rng.integers(0, 4, 3000),
                                 rng.integers(0, n, 3000), rng.integers(0, 5, 3000)])
        args = (params, facts[:b, 0], facts[:b, 1], facts[:b, 3] + 5, vocab_from_quads(facts),
                model.MODES)
        with mock.patch.object(model, "build_heads", wraps=model.build_heads) as spy:
            heads = score_heads(*args)
        height = model.block_rows(n)
        per_pass = [min(height, b - lo) for lo in range(0, b, height)]
        assert len(per_pass) == math.ceil(b / height) == 4
        # one pass for the copy head, one for both generation heads
        assert [len(call.args[3]) for call in spy.call_args_list] == 2 * per_pass
        with mock.patch.object(model, "block_rows", return_value=b):
            whole = score_heads(*args)
        for name, head in heads.items():
            assert np.array_equal(bits(head), bits(whole[name])), name

    @pytest.mark.parametrize("dtype, tolerance", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_factored_heads_match_concatenated_formula(self, dtype, tolerance):
        """The K=2d GEMMs plus the rank-one time term give the heads of the
        paper's (B, 3d) affine maps, to rounding, relative to each head's
        largest entry (float32: ``test_float32_matches_float64``'s bound).
        Queries ask at snapshot 0, at the last train snapshot (9) and
        beyond the horizon (60)."""
        rng = np.random.default_rng(22)
        n, r = 40, 4
        facts = np.column_stack([rng.integers(0, 6, 80), rng.integers(0, r, 80),
                                 rng.integers(0, n, 80), rng.integers(0, 10, 80)])
        vocab = vocab_from_quads(facts).freeze()
        subjects, relations = rng.integers(0, 6, 12), rng.integers(0, r, 12)
        times = np.tile([0, 9, 60], 4)
        for _ in range(5):
            params = random_params(rng, n, r, 5, dtype=dtype, num_snapshots=10)
            expected = out_of_place_heads(params, subjects, relations, times, vocab,
                                          factored=False)
            heads = score_heads(params, subjects, relations, times, vocab, model.MODES)
            for name, head in heads.items():
                want = expected[name]
                assert rel_err(head, want, floor=np.abs(want).max()) < tolerance, name

    def test_negative_zero_logit_changes_no_probability(self):
        """Masked in place, a candidate logit of -0.0 (a tanh of -0.0) stays
        -0.0, where adding the dense mask's 0.0 made it +0.0; the softmax
        maps both to the same bits."""
        vocab = vocab_from_quads([(0, 0, 1, 0), (0, 0, 2, 0)])
        index = np.array([[0.3, -0.0, -0.0, 0.0], [-0.0, 0.25, -0.5, -0.0]])
        subjects, relations = [0, 1], [0, 0]
        in_place = index.copy()
        masks_for(vocab, subjects, relations, in_place)
        dense = np.zeros_like(index)
        masks_for(vocab, subjects, relations, dense)
        added = index + dense
        assert np.signbit(in_place[0, 1]) and not np.signbit(added[0, 1])
        assert np.array_equal(bits(stable_softmax(in_place)), bits(stable_softmax(added)))

    def test_peak_allocation(self):
        """The traced peak of score_heads, in units of one (B, N) float64
        array at B=64, N=3000 with float32 parameters: the heads plus one
        float32 GEMM output (2.5 for "full", 3.5 for all four modes). No
        timing test can catch a reintroduced (B, N) temporary, which costs a
        few percent of a chunk, so this counts the bytes."""
        rng = np.random.default_rng(3)
        b, n = 64, 3000
        params = random_params(rng, n, 4, 8, dtype=np.float32)
        facts = np.column_stack([rng.integers(0, n, 3000), rng.integers(0, 4, 3000),
                                 rng.integers(0, n, 3000), rng.integers(0, 5, 3000)])
        vocab = vocab_from_quads(facts).freeze()
        args = (params, facts[:b, 0], facts[:b, 1], facts[:b, 3] + 5, vocab)

        def peak(modes):
            tracemalloc.start()
            try:
                score_heads(*args, modes)
                return tracemalloc.get_traced_memory()[1] / (b * n * 8)
            finally:
                tracemalloc.stop()

        for modes, bound in ((("full",), 2.6), (model.MODES, 3.6)):
            assert peak(modes) <= bound, modes


class TestMaskDominance:
    def test_absent_entities_negligible(self):
        rng = np.random.default_rng(5)
        bound = math.exp(-98)
        for _ in range(20):
            params = random_params(rng, 8, 3, 4, scale=1.0)
            vocab = HistVocab()
            objs = rng.choice(8, size=int(rng.integers(1, 7)), replace=False)
            vocab.absorb_snapshot([(1, 0, int(o)) for o in objs])
            probs = head(params, vocab, "pc", 1, 0, int(rng.integers(5)))
            present = np.isin(np.arange(8), objs)
            assert probs[~present].max() <= bound * probs[present].min() * (1 + 1e-9)


class TestPredict:
    """Prediction order is the evaluator's rank order: descending
    probability, ties broken by ascending id."""

    def test_ranking_by_probability(self):
        params = zero_params(n=3)
        params.b_gen = np.log(np.array([0.1, 0.7, 0.2]))
        probs = score_batch(params, [0], [0], [0], HistVocab(), alpha=0.0)[0]
        assert ranking(probs) == [1, 2, 0]

    def test_exact_tie_breaks_by_id(self):
        probs = score_batch(zero_params(n=2), [0], [0], [0], HistVocab(), alpha=0.0)[0]
        assert ranking(probs) == [0, 1]

    def test_copy_only_empty_vocab_is_uniform(self):
        probs = score_batch(zero_params(n=5), [0], [0], [0], HistVocab(), mode="copy-only")[0]
        assert ranking(probs) == [0, 1, 2, 3, 4]

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=12)
        base = np.argsort(-stable_softmax(logits), kind="stable")
        shifted = np.argsort(-stable_softmax(logits + 1234.5), kind="stable")
        assert base.tolist() == shifted.tolist()

    def test_gen_new_suppresses_history_in_generation_only(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 6, 2, 3, alpha=0.5)
        vocab = HistVocab()
        vocab.absorb_snapshot([(0, 0, 1), (0, 0, 4)])
        heads = score_heads(params, [0], [0], [2], vocab, ("gen-new",))
        gen_share = mix(heads, "gen-new", 0.5)[0] - 0.5 * heads["pc"][0]
        assert gen_share[[1, 4]].max() < 1e-30  # historical ids suppressed
        assert gen_share.sum() == pytest.approx(0.5, abs=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            score_batch(zero_params(), [0], [0], [0], HistVocab(), mode="nope")


# The start of the message each bad header scalar is rejected with.
SCALAR_PROBLEM = {"mask_magnitude": "mask_magnitude is ",
                  "alpha": r"alpha must lie in \[0, 1\], got "}


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(8)
        return random_params(rng, 6, 4, 3, dtype=np.float32,
                             num_snapshots=11, mask_magnitude=100.0, alpha=0.25)

    def test_round_trip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.cyg"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name, arr in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], arr), name
        assert loaded.num_snapshots == 11
        assert loaded.mask_magnitude == 100.0
        assert loaded.alpha == np.float32(0.25)

    def test_header_layout(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.cyg"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        assert blob[:4] == b"CYG1"
        header = np.frombuffer(blob, dtype="<i4", count=4, offset=4)
        assert header.tolist() == [6, 4, 11, 3]
        floats = np.frombuffer(blob, dtype="<f4", count=2, offset=20)
        assert floats.tolist() == [np.float32(100.0), np.float32(0.25)]
        first = np.frombuffer(blob, dtype="<f4", count=3, offset=28)
        assert np.array_equal(first, params.entity_emb[0])

    def test_load_reads_the_file_once(self, tmp_path):
        """Loading holds the file's bytes once: the tensors are writeable
        views of the one buffer it is read into, bitwise the saved ones."""
        params = random_params(np.random.default_rng(4), 2000, 6, 64, dtype=np.float32)
        path = tmp_path / "m.cyg"
        save_checkpoint(params, path, config_text="seed = 1\n")
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size
        for name, arr in params.tensors().items():
            got = loaded.tensors()[name]
            assert got.flags.writeable and got.dtype == np.float32, name
            assert got.tobytes() == arr.tobytes(), name

    def test_embedded_config_round_trip(self, tmp_path):
        path = tmp_path / "m.cyg"
        text = "alpha = 0.25\nseed = 3\n"
        save_checkpoint(self._params(), path, config_text=text)
        assert checkpoint_config_text(path) == text
        assert checkpoint_config_text(tmp_path / "m.cyg") == text
        loaded = load_checkpoint(path)  # trailing block must not confuse loading
        assert loaded.num_entities == 6

    def test_no_config_block(self, tmp_path):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path)
        assert checkpoint_config_text(path) is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.cyg"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path)
        path.write_bytes(path.read_bytes() + b"junk")
        for read in (load_checkpoint, checkpoint_config_text):
            with pytest.raises(ValueError, match=r"m\.cyg: 4 unexpected bytes after the tensors"):
                read(path)

    @pytest.mark.parametrize("field, offset, value",
                             [("N", 4, 0), ("R_aug", 8, -2), ("T", 12, -1), ("d", 16, 0)])
    def test_bad_header_counts_rejected(self, tmp_path, field, offset, value):
        """The count rule judges the header: T may be 0, the others not."""
        bound = "at least 0" if field == "T" else "positive"
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 4] = struct.pack("<i", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError,
                           match=rf"m\.cyg: header field {field} must be {bound}, got {value}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, offset, value",
                             [("mask_magnitude", 20, math.inf), ("mask_magnitude", 20, math.nan),
                              ("mask_magnitude", 20, -1.0), ("mask_magnitude", 20, 0.0),
                              ("alpha", 24, 2.0), ("alpha", 24, -0.5), ("alpha", 24, math.nan)])
    def test_bad_header_scalars_rejected(self, tmp_path, field, offset, value):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        for read in (load_checkpoint, checkpoint_config_text):
            with pytest.raises(ValueError,
                               match=rf"m\.cyg: header field {SCALAR_PROBLEM[field]}"):
                read(path)

    @pytest.mark.parametrize("field, value", [("mask_magnitude", math.inf),
                                              ("mask_magnitude", math.nan),
                                              ("mask_magnitude", -1.0),
                                              ("mask_magnitude", 1e-50),  # float32 0
                                              ("mask_magnitude", 1e39),  # over float32
                                              ("alpha", 2.0), ("alpha", math.nan)])
    def test_bad_scalars_never_saved(self, tmp_path, field, value):
        params = self._params()
        setattr(params, field, value)
        with pytest.raises(ValueError, match=rf"^{SCALAR_PROBLEM[field]}"):
            params.validate()
        with pytest.raises(ValueError, match=field):
            save_checkpoint(params, tmp_path / "m.cyg")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, accepted", [
        (3.40282356e38, True), (1.401298464324817e-45, True), (3.4028236e38, False),
        (7e-46, False), (1e39, False), (math.inf, False), (math.nan, False)])
    def test_mask_magnitude_stored_as_float32(self, value, accepted):
        """Accepted exactly when float32 stores it finite and positive; a
        value past float32 is judged without an overflow warning. The
        config, the parameters' validation (which saving and loading run),
        the mask and the heads in every mode judge it by the one rule."""
        params = zero_params(mask_magnitude=value)
        vocab = vocab_from_quads([(0, 0, 1, 0)])
        checks = [lambda: TrainConfig(mask_magnitude=value), params.validate,
                  lambda: masks_for(vocab, [0], [0], np.zeros((1, 4)), value),
                  *(lambda mode=mode: score_heads(params, [0], [0], [1], vocab, (mode,))
                    for mode in model.MODES)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = model.hyperparameter_problem(value, 0.5)
            assert (problem is None) == accepted
            for check in checks:
                if accepted:
                    check()
                else:
                    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
                        check()

    # N=6, R_aug=4, d=3: the tensors end at byte 100, 148, 160, 376, 400, 616, 640
    @pytest.mark.parametrize("size, where", [(20, "header"), (28, "tensor entity_emb"),
                                             (150, "tensor time_unit"),
                                             (639, "tensor b_gen")])
    def test_truncated_rejected(self, tmp_path, size, where):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path, config_text="seed = 1\n")
        path.write_bytes(path.read_bytes()[:size])
        for read in (load_checkpoint, checkpoint_config_text):
            with pytest.raises(ValueError, match=rf"m\.cyg: truncated (in )?{where}"):
                read(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path, config_text="seed = 1\n")
        before = path.read_bytes()
        real = np.ascontiguousarray
        written = []

        def fail_after_two_tensors(*args, **kwargs):
            written.append(1)
            if len(written) > 2:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(model.np, "ascontiguousarray", fail_after_two_tensors)
        params = self._params()
        params.alpha = 0.75
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.cyg"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_and_truncation_any_shape(self, example):
        """Any finite float32 model saves and loads bit-exact, and cutting the
        file anywhere before its tensors end raises a ValueError naming it."""
        n, r_aug, d = (example.draw(st.integers(1, 6)) for _ in range(3))
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
        tensors = {name: example.draw(arrays(np.float32, shape, elements=finite))
                   for name, shape in model.tensor_shapes(n, r_aug, d).items()}
        params = ModelParams(
            **tensors, num_snapshots=example.draw(st.integers(0, 2**31 - 1)),
            mask_magnitude=example.draw(finite.filter(lambda x: x > 0)),
            alpha=example.draw(st.floats(0.0, 1.0, width=32)))
        config_text = example.draw(st.none() | st.text(min_size=1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.cyg"
            save_checkpoint(params, path, config_text=config_text)
            loaded = load_checkpoint(path)
            for name, arr in params.tensors().items():
                assert loaded.tensors()[name].tobytes() == arr.tobytes(), name
            assert (loaded.num_snapshots, loaded.mask_magnitude, loaded.alpha) \
                == (params.num_snapshots, params.mask_magnitude, params.alpha)
            assert checkpoint_config_text(path) == config_text

            tensors_end = 28 + 4 * sum(arr.size for arr in tensors.values())
            cut = example.draw(st.integers(0, tensors_end - 1))
            path.write_bytes(path.read_bytes()[:cut])
            for read in (load_checkpoint, checkpoint_config_text):
                with pytest.raises(ValueError, match=r"m\.cyg: "):
                    read(path)

    def test_validate_catches_bad_shapes(self):
        params = self._params()
        params.b_copy = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="b_copy"):
            params.validate()

    def test_validate_catches_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            params = self._params()
            params.w_gen[0, 0] = bad
            with pytest.raises(ValueError, match="w_gen"):
                params.validate()
