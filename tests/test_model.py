import math

import numpy as np
import pytest

from copygen import model
from copygen.history import HistVocab, copy_mask, vocab_from_quads
from copygen.model import (
    ModelParams,
    Query,
    combine,
    copy_probs,
    generation_probs,
    load_checkpoint,
    predict,
    save_checkpoint,
    score_batch,
    stable_softmax,
    time_embedding,
)

from oracles import random_params, rel_err, scalar_copy_probs, scalar_generation_probs


def zero_params(n=4, d=3, r=2, **kw):
    return ModelParams(
        entity_emb=np.zeros((n, d)), relation_emb=np.zeros((r, d)),
        time_unit=np.zeros(d), w_copy=np.zeros((n, 3 * d)), b_copy=np.zeros(n),
        w_gen=np.zeros((n, 3 * d)), b_gen=np.zeros(n),
        num_snapshots=5, **kw)


class TestTimeEmbedding:
    def test_base_case(self):
        params = zero_params()
        params.time_unit = np.array([1.0, -2.0, 0.5])
        assert time_embedding(params, 0).tolist() == [1.0, -2.0, 0.5]

    def test_unrolled_recurrence(self):
        params = zero_params()
        params.time_unit = np.array([1.0, -2.0, 0.5])
        assert time_embedding(params, 2).tolist() == [3.0, -6.0, 1.5]

    def test_zero_unit(self):
        assert time_embedding(zero_params(), 7).tolist() == [0.0, 0.0, 0.0]

    def test_linearity(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 5, 3, 4)
        for k in (0, 1, 5, 40):
            assert np.allclose(time_embedding(params, k),
                               (k + 1) * time_embedding(params, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            time_embedding(zero_params(), -1)


class TestCopyProbs:
    def test_uniform_with_full_vocabulary(self):
        params = zero_params(n=4)
        probs = copy_probs(params, Query(0, 0, 0), np.zeros(4))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_masked_softmax_arithmetic(self):
        params = zero_params(n=4)
        mask = np.array([0.0, 0.0, -100.0, -100.0])
        probs = copy_probs(params, Query(0, 0, 0), mask)
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
            s, p, k = 0, 1, int(rng.integers(0, 12))
            mask = copy_mask(vocab, s, p, 7)
            got = copy_probs(params, Query(s, p, k), mask)
            ref = scalar_copy_probs(params, s, p, k, mask)
            assert rel_err(got, ref, floor=1e-300) < 1e-12


class TestGenerationProbs:
    def test_uniform(self):
        params = zero_params(n=5)
        probs = generation_probs(params, Query(0, 0, 0))
        assert np.allclose(probs, 0.2, atol=1e-15)

    def test_known_logits(self):
        params = zero_params(n=2)
        params.b_gen = np.array([math.log(2.0), 0.0])
        probs = generation_probs(params, Query(0, 0, 0))
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = random_params(rng, 6, 3, 5)
            s, p, k = int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(9))
            got = generation_probs(params, Query(s, p, k))
            ref = scalar_generation_probs(params, s, p, k)
            assert rel_err(got, ref, floor=1e-300) < 1e-12


class TestCombine:
    def test_definition(self):
        out = combine(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 0.8)
        assert np.allclose(out, [0.8, 0.2, 0.0], atol=1e-15)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        pc = stable_softmax(rng.normal(size=6))
        pg = stable_softmax(rng.normal(size=6))
        assert np.array_equal(combine(pc, pg, 1.0), pc)
        assert np.array_equal(combine(pc, pg, 0.0), pg)

    def test_fixed_point(self):
        v = stable_softmax(np.arange(4.0))
        for alpha in (0.0, 0.3, 1.0):
            assert np.allclose(combine(v, v, alpha), v, atol=1e-15)

    def test_alpha_bounds(self):
        v = np.array([1.0])
        for alpha in (-0.1, 1.1):
            with pytest.raises(ValueError):
                combine(v, v, alpha)


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

    def test_softmax_leaves_input_untouched(self):
        logits = np.arange(6.0).reshape(2, 3)
        stable_softmax(logits)
        assert logits.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


class TestMaskDominance:
    def test_absent_entities_negligible(self):
        rng = np.random.default_rng(5)
        bound = math.exp(-98)
        for _ in range(20):
            params = random_params(rng, 8, 3, 4, scale=1.0)
            vocab = HistVocab()
            objs = rng.choice(8, size=int(rng.integers(1, 7)), replace=False)
            vocab.absorb_snapshot([(1, 0, int(o)) for o in objs])
            mask = copy_mask(vocab, 1, 0, 8)
            probs = copy_probs(params, Query(1, 0, int(rng.integers(5))), mask)
            present = mask == 0
            assert probs[~present].max() <= bound * probs[present].min() * (1 + 1e-9)


class TestPredict:
    def test_ranking_by_probability(self):
        params = zero_params(n=3)
        params.b_gen = np.log(np.array([0.1, 0.7, 0.2]))
        ranking = predict(params, Query(0, 0, 0), HistVocab(), alpha=0.0)
        assert ranking.tolist() == [1, 2, 0]

    def test_exact_tie_breaks_by_id(self):
        params = zero_params(n=2)
        ranking = predict(params, Query(0, 0, 0), HistVocab(), alpha=0.0)
        assert ranking.tolist() == [0, 1]

    def test_copy_only_empty_vocab_is_uniform(self):
        params = zero_params(n=5)
        ranking = predict(params, Query(0, 0, 0), HistVocab(), mode="copy-only")
        assert ranking.tolist() == [0, 1, 2, 3, 4]

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
        probs, pc = score_batch(params, [0], [0], [2], vocab, alpha=0.5,
                                mode="gen-new", return_copy=True)
        gen_share = probs[0] - 0.5 * pc[0]
        assert gen_share[[1, 4]].max() < 1e-30  # historical ids suppressed
        assert gen_share.sum() == pytest.approx(0.5, abs=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            score_batch(zero_params(), [0], [0], [0], HistVocab(), mode="nope")


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

    def test_embedded_config_round_trip(self, tmp_path):
        path = tmp_path / "m.cyg"
        text = "alpha = 0.25\nseed = 3\n"
        save_checkpoint(self._params(), path, config_text=text)
        assert model.checkpoint_config_text(path) == text
        assert model.checkpoint_config_text(tmp_path / "m.cyg") == text
        loaded = load_checkpoint(path)  # trailing block must not confuse loading
        assert loaded.num_entities == 6

    def test_no_config_block(self, tmp_path):
        path = tmp_path / "m.cyg"
        save_checkpoint(self._params(), path)
        assert model.checkpoint_config_text(path) is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.cyg"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_validate_catches_bad_shapes(self):
        params = self._params()
        params.b_copy = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="b_copy"):
            params.validate()

    def test_validate_catches_non_finite(self):
        params = self._params()
        params.w_gen[0, 0] = np.inf
        with pytest.raises(ValueError, match="w_gen"):
            params.validate()
