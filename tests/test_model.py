import hashlib
import json
import math
import os
import struct
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from guti import model
from guti.corpus import serialize
from guti.errors import CheckpointError, ModelError, SamplingError, TrainingError
from guti.model import (
    KVCache,
    ModelConfig,
    ModelParams,
    SequenceBatch,
    _LN_EPS,
    _gelu,
    _layer_norm,
    _layout,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss_rows,
    nll_loss,
    param_names,
    save_checkpoint,
)
from guti.sampler import SampleConfig
from guti.trainer import TrainConfig, encode_sample, make_batch
from guti.vocab import build_vocab

TINY = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12, context_len=8,
                   vocab_size=10, dropout_rate=0.0)


def rand_batch(rng, config, b=2, s=6, full_mask=False):
    tokens = rng.integers(0, config.vocab_size, size=(b, s))
    mask = np.zeros((b, s))
    mask[:, 1:] = 1.0 if full_mask else rng.integers(0, 2, size=(b, s - 1))
    if not mask.sum():
        mask[:, 1] = 1.0
    return SequenceBatch(tokens=tokens, loss_mask=mask)


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY, seed=5)
        b = init_params(TINY, seed=5)
        for name in a.tensors:
            assert np.array_equal(a[name], b[name])

    def test_seed_changes_weights(self):
        a = init_params(TINY, seed=5)
        b = init_params(TINY, seed=6)
        assert any(not np.array_equal(a[n], b[n]) for n in a.tensors)

    def test_all_finite(self):
        params = init_params(TINY, seed=0)
        params.check_finite()

    def test_shapes_follow_config(self):
        params = init_params(TINY, seed=0)
        assert params["tok_emb"].shape == (10, 8)
        assert params["pos_emb"].shape == (8, 8)
        assert params["layer0.ff.w1"].shape == (8, 12)
        assert set(param_names(TINY)) == set(params.tensors)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(n_layers=1, n_heads=3, d_model=8, vocab_size=4)
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=0)
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=4, dropout_rate=1.0)

    def test_numpy_integer_dimensions_accepted(self):
        config = ModelConfig(n_layers=np.int64(1), n_heads=np.int32(1), d_model=np.int64(8),
                             d_ff=np.uint16(12), context_len=np.int64(8),
                             vocab_size=np.int64(10))
        assert config == TINY

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_unusable_seed_rejected(self, seed):
        # numpy raised its own ValueError or TypeError here, or took True as 1
        with pytest.raises(ModelError, match="^seed must be"):
            init_params(TINY, seed=seed)


# every count field of every config, each with a base config valid at 3
COUNT_FIELDS = [(cls, error, base, f.name)
                for cls, error, base in [
                    (ModelConfig, ModelError, dict.fromkeys(
                        ("n_layers", "n_heads", "d_model", "d_ff", "context_len",
                         "vocab_size"), 3)),
                    (TrainConfig, TrainingError, {}),
                    (SampleConfig, SamplingError, {})]
                for f in fields(cls) if f.type in (int, "int")]


@pytest.mark.parametrize("cls, error, base, name", COUNT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, _, n in COUNT_FIELDS])
def test_every_count_field_takes_the_count_rule(cls, error, base, name):
    for bad in (2.5, True):
        with pytest.raises(error, match=f"^{name} must be an integer, not"):
            cls(**{**base, name: bad})
    assert getattr(cls(**{**base, name: np.int64(3)}), name) == 3


class TestForward:
    def test_causality_perturbation(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY, seed=1, dtype=np.float64)
        tokens = rng.integers(0, 10, size=(1, 6))
        base = forward(params, tokens)
        for j in range(1, 6):
            perturbed = tokens.copy()
            perturbed[0, j] = (perturbed[0, j] + 3) % 10
            out = forward(params, perturbed)
            assert np.array_equal(base[0, :j], out[0, :j])

    def test_batch_row_independence(self, golden_build):
        rng = np.random.default_rng(1)
        params = init_params(TINY, seed=2, dtype=np.float64)
        pair = rng.integers(0, 10, size=(2, 5))
        single = forward(params, pair[:1])
        both = forward(params, pair)
        assert np.array_equal(single[0], both[0]), golden_build

    def test_one_query_row_without_cache(self):
        params = init_params(ROWS, seed=3, dtype=np.float64)
        tokens = np.random.default_rng(4).integers(0, 13, size=(3, 7))
        np.testing.assert_allclose(forward(params, tokens[:, :1]),
                                   forward(params, tokens)[:, :1], rtol=0, atol=1e-12)

    def test_sequence_too_long(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.zeros((1, 9), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_empty_tokens_rejected(self, shape):
        params = init_params(TINY, seed=0)
        with pytest.raises(ModelError, match="nonempty"):
            forward(params, np.zeros(shape, dtype=np.int64))
        with pytest.raises(ModelError, match="nonempty"):
            forward(params, np.zeros(shape, dtype=np.int64), kv=KVCache(params, shape[0], 8))
        with pytest.raises(ModelError, match="nonempty"):
            backward(params, SequenceBatch(np.zeros(shape), np.zeros(shape)))
        batch = rand_batch(np.random.default_rng(0), TINY)
        batch.tokens = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ModelError, match="nonempty"):
            backward(params, batch)

    def test_id_out_of_range(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.full((1, 3), 10))

    def test_dropout_needs_rng(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.5)
        params = init_params(config, seed=0)
        twin = ModelParams(replace(config, dropout_rate=0.0), params.tensors)
        tokens = np.array([[0, 3, 7, 2]])
        plain = forward(twin, tokens)
        assert forward(params, tokens).tobytes() == plain.tobytes()
        out = forward(params, tokens, rng=np.random.default_rng(0))
        assert np.all(np.isfinite(out)) and not np.array_equal(out, plain)


class TestKVCache:
    @pytest.mark.parametrize("chunks", [(4, 1, 1, 1, 1, 1, 1), (3, 5, 1, 1)],
                             ids=["prompt+steps", "uneven"])
    def test_cached_logits_match_full_forward(self, chunks):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=10, vocab_size=13)
        params = init_params(config, seed=3, dtype=np.float64)
        tokens = np.random.default_rng(4).integers(0, 13, size=(2, 10))
        kv, parts, pos = KVCache(params, 2, 10), [], 0
        for n in chunks:
            parts.append(forward(params, tokens[:, pos:pos + n], kv=kv))
            pos += n
        assert len(kv.buffers) == 2 and kv.lengths == [10, 10]
        np.testing.assert_allclose(np.concatenate(parts, axis=1),
                                   forward(params, tokens), rtol=0, atol=1e-12)

    def test_cache_past_context_rejected(self):
        params = init_params(TINY, seed=0)
        kv = KVCache(params, 1, TINY.context_len)
        forward(params, np.zeros((1, 6), dtype=np.int64), kv=kv)
        with pytest.raises(ModelError):
            forward(params, np.zeros((1, 3), dtype=np.int64), kv=kv)
        forward(params, np.zeros((1, 2), dtype=np.int64), kv=kv)
        assert kv.lengths == [TINY.context_len]

    def test_batch_mismatch_rejected(self):
        params = init_params(TINY, seed=0)
        kv = KVCache(params, 1, TINY.context_len)
        forward(params, np.zeros((1, 3), dtype=np.int64), kv=kv)
        with pytest.raises(ModelError, match="^K/V cache of batch 1 fed a batch of 2$"):
            forward(params, np.zeros((2, 1), dtype=np.int64), kv=kv)
        assert kv.lengths == [3]

    def test_cache_of_another_model_rejected(self):
        one = init_params(TINY, seed=0)
        two = init_params(replace(TINY, n_layers=2), seed=0)
        kv = KVCache(one, 1, TINY.context_len)
        forward(one, np.zeros((1, 3), dtype=np.int64), kv=kv)
        with pytest.raises(ModelError,
                           match="^K/V cache was built for another model config$"):
            forward(two, np.zeros((1, 1), dtype=np.int64), kv=kv)

    def test_cache_sized_for_the_request(self):
        """A cache of fewer positions than the context holds exactly those:
        its steps give the full-size cache's logits, and one more raises."""
        params = init_params(TINY, seed=0, dtype=np.float64)
        tokens = np.random.default_rng(1).integers(0, TINY.vocab_size, size=(1, 5))
        short, full = KVCache(params, 1, 5), KVCache(params, 1, TINY.context_len)
        assert short.buffers[0].shape[3] == 5 and full.buffers[0].shape[3] == TINY.context_len
        for a, b in ((0, 3), (3, 4), (4, 5)):
            np.testing.assert_array_equal(forward(params, tokens[:, a:b], kv=short),
                                          forward(params, tokens[:, a:b], kv=full))
        with pytest.raises(ModelError, match="exceeds the K/V cache's 5 positions"):
            forward(params, tokens[:, :1], kv=short)
        assert short.lengths == [5]

    def test_select_repeats_and_drops_rows(self):
        """A cache repeated from one row, then cut to some of its rows in a
        new order, continues each row as a cache filled at that batch."""
        params = init_params(ROWS, seed=5, dtype=np.float64)
        tokens = np.random.default_rng(6).integers(0, 13, size=(3, 7))
        kv = KVCache(params, 1, ROWS.context_len)
        forward(params, tokens[:1, :4], kv=kv)
        kv.select([0, 0, 0])
        forward(params, tokens[:, 4:5], kv=kv)
        kv.select([2, 0])
        step = forward(params, tokens[[2, 0], 5:7], kv=kv)
        prefix = np.concatenate([np.repeat(tokens[:1, :4], 2, axis=0),
                                 tokens[[2, 0], 4:7]], axis=1)
        np.testing.assert_allclose(step, forward(params, prefix)[:, 5:],
                                   rtol=0, atol=1e-12)

    def test_ragged_rows_match_each_row_alone(self):
        """Rows of different lengths share one cache: a ragged prompt pass,
        one token per row, a select that repeats and drops rows, then two
        tokens per row; each row's logits are its own sequence's full
        forward pass."""
        params = init_params(ROWS, seed=7, dtype=np.float64)
        tokens = np.random.default_rng(8).integers(0, 13, size=(3, 12))
        lengths = np.array([5, 2, 7])
        kv = KVCache(params, 3, ROWS.context_len)

        def alone(b, n):
            return forward(params, tokens[b:b + 1, :n])[0, -1]

        padded = np.where(np.arange(12) < lengths[:, None], tokens, 0)
        got = forward(params, padded[:, :7], kv=kv, rows=(np.arange(3), lengths - 1))
        want = [alone(b, n) for b, n in enumerate(lengths)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        step = forward(params, tokens[np.arange(3), lengths][:, None], kv=kv)
        assert kv.lengths == (lengths + 1).tolist()
        np.testing.assert_allclose(step[:, 0], [alone(b, n + 1) for b, n in enumerate(lengths)],
                                   rtol=0, atol=1e-12)
        kv.select([2, 1, 2])
        rows, at = np.array([2, 1, 2]), lengths[[2, 1, 2]] + 1
        step = forward(params, tokens[rows, at][:, None], kv=kv)
        assert kv.lengths == (at + 1).tolist()
        np.testing.assert_allclose(step[:, 0], [alone(b, n + 1) for b, n in zip(rows, at)],
                                   rtol=0, atol=1e-12)
        step = forward(params, tokens[rows[:, None], at[:, None] + [1, 2]], kv=kv)
        for j in range(2):
            np.testing.assert_allclose(step[:, j], [alone(b, n + 2 + j) for b, n in zip(rows, at)],
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 7, 16, 24, 100, 128])
def test_layer_norm_equals_mean_formula(d, dtype):
    rng = np.random.default_rng(d)
    x = (rng.standard_normal((37, d)) * 3 + 1).astype(dtype)
    g, b = (rng.standard_normal(d).astype(dtype) for _ in range(2))
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    y, (got_xhat, got_inv) = _layer_norm(x, g, b)
    assert y.dtype == dtype
    assert np.array_equal(y, xhat * g + b)
    assert np.array_equal(got_xhat, xhat) and np.array_equal(got_inv, inv)


def reference_forward(params, tokens):
    """Scalar re-computation of the whole forward pass, written
    independently of the vectorized implementation (single head only)."""
    c = params.config
    assert c.n_heads == 1 and c.n_layers == 1
    t = {k: v.tolist() for k, v in params.tensors.items()}
    d, s = c.d_model, len(tokens)

    def layer_norm(vec, g, b):
        mu = sum(vec) / len(vec)
        var = sum((x - mu) ** 2 for x in vec) / len(vec)
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [(x - mu) * inv * gi + bi for x, gi, bi in zip(vec, g, b)]

    def matvec(vec, w):  # w: in x out
        return [sum(vec[i] * w[i][j] for i in range(len(vec)))
                for j in range(len(w[0]))]

    def gelu(x):
        return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi)
                                          * (x + 0.044715 * x ** 3)))

    xs = [[t["tok_emb"][tok][j] + t["pos_emb"][pos][j] for j in range(d)]
          for pos, tok in enumerate(tokens)]

    h = [layer_norm(x, t["layer0.ln1.g"], t["layer0.ln1.b"]) for x in xs]
    # the fused projection's columns are the q, k and v thirds, in order
    wqkv, bqkv = t["layer0.attn.wqkv"], t["layer0.attn.bqkv"]
    w_q, w_k, w_v = ([row[i * d:(i + 1) * d] for row in wqkv] for i in range(3))
    b_q, b_k, b_v = (bqkv[i * d:(i + 1) * d] for i in range(3))
    qs = [[a + b for a, b in zip(matvec(v, w_q), b_q)] for v in h]
    ks = [[a + b for a, b in zip(matvec(v, w_k), b_k)] for v in h]
    vs = [[a + b for a, b in zip(matvec(v, w_v), b_v)] for v in h]
    scale = 1.0 / math.sqrt(d)
    attended = []
    for i in range(s):
        scores = [sum(qs[i][j] * ks[k][j] for j in range(d)) * scale
                  for k in range(i + 1)]
        m = max(scores)
        es = [math.exp(x - m) for x in scores]
        z = sum(es)
        probs = [e / z for e in es]
        ctx = [sum(probs[k] * vs[k][j] for k in range(i + 1)) for j in range(d)]
        out = [a + b for a, b in zip(matvec(ctx, t["layer0.attn.wo"]),
                                     t["layer0.attn.bo"])]
        attended.append([xs[i][j] + out[j] for j in range(d)])

    final = []
    for vec in attended:
        h2 = layer_norm(vec, t["layer0.ln2.g"], t["layer0.ln2.b"])
        u = [a + b for a, b in zip(matvec(h2, t["layer0.ff.w1"]), t["layer0.ff.b1"])]
        a_act = [gelu(x) for x in u]
        f = [a + b for a, b in zip(matvec(a_act, t["layer0.ff.w2"]), t["layer0.ff.b2"])]
        final.append([vec[j] + f[j] for j in range(d)])

    logits = []
    for vec in final:
        hf = layer_norm(vec, t["ln_f.g"], t["ln_f.b"])
        logits.append([sum(hf[j] * t["tok_emb"][v][j] for j in range(d))
                       for v in range(c.vocab_size)])
    return np.asarray(logits)


def test_forward_matches_scalar_reference():
    params = init_params(TINY, seed=9, dtype=np.float64)
    tokens = [3, 1, 7]
    got = forward(params, np.asarray([tokens]))[0]
    want = reference_forward(params, tokens)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestLoss:
    def test_uniform_logits_give_log_vocab(self):
        batch = SequenceBatch(tokens=np.array([[1, 2, 3, 0]]),
                              loss_mask=np.array([[0, 1, 1, 1]]))
        logits = np.full((1, 4, 4), 2.5)
        assert abs(nll_loss(logits, batch) - math.log(4)) < 1e-9

    def test_one_hot_correct_logits_drive_loss_to_zero(self):
        tokens = np.array([[1, 2, 3]])
        batch = SequenceBatch(tokens=tokens, loss_mask=np.array([[0, 1, 1]]))
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 2] = 50.0
        logits[0, 1, 3] = 50.0
        assert nll_loss(logits, batch) < 1e-9

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 5, size=(3, 7))
        mask = np.zeros((3, 7))
        mask[:, 1:] = rng.integers(0, 2, size=(3, 6))
        mask[0, 1] = 1.0
        batch = SequenceBatch(tokens=tokens, loss_mask=mask)
        logits = rng.normal(size=(3, 7, 5))

        # independent oracle: direct softmax + log, no log-sum-exp tricks
        total, count = 0.0, 0.0
        for b in range(3):
            for t in range(7):
                if mask[b, t]:
                    row = np.exp(logits[b, t - 1])
                    p = row[tokens[b, t]] / row.sum()
                    total += -np.log(p) * mask[b, t]
                    count += mask[b, t]
        assert abs(nll_loss(logits, batch) - total / count) < 1e-10

    def test_mask_weight_linearity(self):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 5, size=(1, 5))
        logits = rng.normal(size=(1, 5, 5))
        base_mask = np.array([[0, 1, 1, 1, 0]], dtype=float)
        double = base_mask.copy()
        double[0, 2] = 2.0
        l_base = nll_loss(logits, SequenceBatch(tokens, base_mask))
        l_double = nll_loss(logits, SequenceBatch(tokens, double))
        # doubling one weight doubles that position's contribution
        per_tok = []
        for t in (1, 2, 3):
            m = np.zeros((1, 5))
            m[0, t] = 1
            per_tok.append(nll_loss(logits, SequenceBatch(tokens, m)))
        want = (per_tok[0] + 2 * per_tok[1] + per_tok[2]) / 4.0
        assert abs(l_double - want) < 1e-12
        assert abs(l_base - sum(per_tok) / 3.0) < 1e-12

    def test_empty_mask_rejected(self):
        batch = SequenceBatch(tokens=np.zeros((1, 3), dtype=int),
                              loss_mask=np.zeros((1, 3)))
        with pytest.raises(ModelError):
            nll_loss(np.zeros((1, 3, 4)), batch)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = init_params(TINY, seed=4, dtype=np.float64)
        logits = forward(params, rng.integers(0, 10, size=(2, 5)))
        probs = np.exp(logits - logits.max(-1, keepdims=True))
        probs /= probs.sum(-1, keepdims=True)
        assert np.allclose(probs.sum(-1), 1.0, atol=1e-6)

    def test_loss_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        params = init_params(TINY, seed=4, dtype=np.float64)
        batch = rand_batch(rng, TINY, b=3, s=6, full_mask=True)
        loss = nll_loss(forward(params, batch.tokens), batch)
        perm = [2, 0, 1]
        shuffled = SequenceBatch(tokens=batch.tokens[perm],
                                 loss_mask=batch.loss_mask[perm])
        loss_p = nll_loss(forward(params, shuffled.tokens), shuffled)
        assert abs(loss - loss_p) < 1e-12


def finite_difference_grads(params, batch, h=1e-5, dropout_seed=None):
    """Central differences of nll_loss on the loss rows' forward, which runs
    the cells ``backward`` runs; with ``dropout_seed`` every evaluation runs
    with dropout on a fresh generator from that seed, so each one draws the
    dropout masks ``backward`` draws from it."""
    rows = loss_rows(batch)

    def loss():
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        return nll_loss(forward(params, batch.tokens, rng=rng, rows=rows), batch)

    grads = {}
    for name, arr in params.tensors.items():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        grads[name] = g
    return grads


def rel_err(got, want):
    num = np.linalg.norm(np.asarray(got, dtype=np.float64) - want)
    return num / max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)


def compared(got, want, d):
    """``(label, got, want)`` for each tensor of two gradient dicts, with
    every attn.wqkv and attn.bqkv cut into its q, k and v column thirds, so
    each projection's gradient is held to the bound on its own."""
    for name in want:
        if name.endswith("qkv"):
            for i, x in enumerate("qkv"):
                cols = slice(i * d, (i + 1) * d)
                yield f"{name} {x}", got[name][..., cols], want[name][..., cols]
        else:
            yield name, got[name], want[name]


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        params = init_params(TINY, seed=13, dtype=np.float64)
        batch = rand_batch(rng, TINY, b=2, s=5)
        loss, grads = backward(params, batch)
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) < 1e-12
        fd = finite_difference_grads(params, batch, h=1e-4)
        for label, got, want in compared(grads, fd, TINY.d_model):
            err = rel_err(got, want)
            assert err < 1e-3, f"{label}: rel err {err:.2e}"

    def test_unused_positional_rows_get_zero_grad(self):
        rng = np.random.default_rng(5)
        params = init_params(TINY, seed=3, dtype=np.float64)
        batch = rand_batch(rng, TINY, b=2, s=4)
        _, grads = backward(params, batch)
        assert np.all(grads["pos_emb"][4:] == 0.0)
        assert np.any(grads["pos_emb"][:4] != 0.0)

    def test_token_embedding_scatter_matches_add_at(self):
        """With one sequence, the gradient reaching each position's input
        embedding is that position's pos_emb gradient, so the output
        projection's share plus ``np.add.at`` of those rows by token id is a
        reference for the tok_emb gradient."""
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=24, vocab_size=5)
        params = init_params(config, seed=8, dtype=np.float64)
        batch = rand_batch(np.random.default_rng(9), config, b=1, s=20, full_mask=True)
        _, grads = backward(params, batch)
        rows = loss_rows(batch)
        logits, cache = model._forward_impl(params, batch.tokens, None, True, rows=rows)
        want = model._softmax_nll(logits, batch, rows)[1].T @ cache["hf"]
        cells = batch.tokens[0, :19]          # position 19 is only a target
        np.add.at(want, cells, grads["pos_emb"][:19])
        assert len(set(cells.tolist())) < cells.size    # ids repeat
        np.testing.assert_allclose(grads["tok_emb"], want, rtol=0, atol=1e-12)

    def test_dropout_gradients_consistent(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.3)
        params = init_params(config, seed=1, dtype=np.float64)
        batch = SequenceBatch(tokens=np.array([[1, 2, 3, 4]]),
                              loss_mask=np.array([[0, 1, 1, 1]]))
        a = backward(params, batch, rng=np.random.default_rng(42))
        b = backward(params, batch, rng=np.random.default_rng(42))
        assert a[0] == b[0]
        for name in a[1]:
            assert np.array_equal(a[1][name], b[1][name])

    def test_dropout_gradients_match_finite_differences(self):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.3)
        params = init_params(config, seed=2, dtype=np.float64)
        batch = rand_batch(np.random.default_rng(3), config, b=2, s=5)
        loss, grads = backward(params, batch, rng=np.random.default_rng(42))
        # the masks are live: the train-mode loss is not the eval loss
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) > 1e-6
        fd = finite_difference_grads(params, batch, h=1e-4, dropout_seed=42)
        for label, got, want in compared(grads, fd, config.d_model):
            err = rel_err(got, want)
            assert err < 1e-3, f"{label}: rel err {err:.2e}"

    def test_float32_gradients_match_float64(self):
        # training runs in float32; the same weights in float64 give the
        # reference gradients.  Weights of scale 0.3 put the GELU inputs
        # around +-1, where its tanh is far from linear.
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                             context_len=12, vocab_size=20)
        rng = np.random.default_rng(8)
        p32 = init_params(config, seed=2)
        for arr in p32.tensors.values():
            arr += rng.normal(0.0, 0.3, arr.shape).astype(np.float32)
        p64 = ModelParams(config, {name: arr.astype(np.float64)
                                   for name, arr in p32.tensors.items()})
        batch = rand_batch(rng, config, b=3, s=12)
        loss32, g32 = backward(p32, batch)
        loss64, g64 = backward(p64, batch)
        assert abs(loss32 - loss64) < 1e-5 * loss64
        for label, got, want in compared(g32, g64, config.d_model):
            assert got.dtype == np.float32
            if label.endswith("attn.bqkv k"):
                # a key bias shifts every score of a query row alike, which
                # the softmax ignores: its gradient is zero up to rounding
                assert np.linalg.norm(got) < 1e-6
                continue
            # float32 epsilon is 1.2e-7; 1e-5 leaves room for the rounding
            # of sums over every position and both layers
            err = rel_err(got, want)
            assert err < 1e-5, f"{label}: rel err {err:.2e}"

    def test_loss_finite_when_float32_softmax_underflows(self):
        # a gain of 60 on the final norm spreads the logits so far that the
        # float32 softmax of some targets underflows to 0; the loss is still
        # the finite log-sum-exp value nll_loss gives
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=4)
        params = init_params(config, seed=0)
        params.tensors["ln_f.g"][:] = 60.0
        params.tensors["tok_emb"][:] = np.random.default_rng(0).standard_normal((4, 8))
        batch = SequenceBatch(tokens=np.array([[0, 1, 2, 3, 0, 1, 2, 3]]),
                              loss_mask=np.array([[0, 1, 1, 1, 1, 1, 1, 1]]))
        logits = forward(params, batch.tokens)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        target_p = np.exp(shifted[0, np.arange(7), batch.tokens[0, 1:]])
        assert logits.dtype == np.float32 and np.any(target_p == 0.0)
        with np.errstate(divide="raise"):
            loss, grads = backward(params, batch)
        want = nll_loss(logits, batch)
        assert np.isfinite(loss) and abs(loss - want) < 1e-5 * want
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def tensor_kind(name):
    """A tensor's role: its name without the ``layerN.`` prefix."""
    return name.partition(".")[2] if name.startswith("layer") else name


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_gradients_match_central_differences_at_the_cli_shape(rate):
    """The finite-difference checks above run at d <= 16, where GELU is one
    block and attention runs are short.  This one runs at the CLI-default
    architecture (4 layers, 4 heads, d=128, d_ff=512) with a trained
    vocabulary's V=876, in float64.  Weight matrices are scaled by 4, so
    30% of the GELU inputs lie beyond +-1, where its tanh is far from
    linear; norm gains and biases are moved off 1 and 0.  Five rows reach
    130, 130, 70, 70 and 40 positions, so GELU's (440, 512) input runs in
    7 blocks and attention in 3 runs, two of them of two sequences.

    One seeded unit direction per tensor kind, over every layer's tensor
    of that kind, and one over all tensors: the analytic directional
    derivative must match the central difference at step 1e-4, each pass
    with dropout masks from one generator seed.  Measured errors are at
    most 3.6e-8 relative, so the 1e-6 bound leaves a 28x margin.  A
    gradient that drops one term puts its worst direction 2.8e-3 or more
    off, over 2,000x the bound: a GELU derivative row lost in a later
    block, a long run's last key lost in the attention backward (which
    no smaller check catches), the last position's pos_emb row lost."""
    config = ModelConfig(vocab_size=876, dropout_rate=rate)
    rng = np.random.default_rng(20)
    params = init_params(config, seed=20, dtype=np.float64)
    for name, arr in params.tensors.items():
        if arr.ndim == 1:     # a norm gain or a bias
            arr += rng.normal(0.0, 0.2, arr.shape)
        else:
            arr *= 4.0
    lengths = [130, 130, 70, 70, 40]
    tokens = rng.integers(0, config.vocab_size, (len(lengths), max(lengths) + 1))
    mask = np.zeros(tokens.shape)
    for b, n in enumerate(lengths):     # holes in the mask; row b reaches n
        mask[b, 1:n + 1] = rng.random(n) < 0.8
        mask[b, n] = 1.0
    batch = SequenceBatch(tokens=tokens, loss_mask=mask)

    def generator():
        return np.random.default_rng(7) if rate else None

    _, grads = backward(params, batch, rng=generator())
    rows = loss_rows(batch)
    kinds = sorted({tensor_kind(name) for name in params.tensors})
    directions = [[n for n in params.tensors if tensor_kind(n) == k] for k in kinds]
    h = 1e-4
    for i, names in enumerate([*directions, list(params.tensors)]):
        draw = np.random.default_rng([3, i])
        v = {n: draw.standard_normal(params.tensors[n].shape) for n in names}
        norm = math.sqrt(sum(np.vdot(x, x) for x in v.values()))
        want = sum(np.vdot(grads[n], v[n]) for n in names) / norm
        saved = {n: params.tensors[n].copy() for n in names}
        losses = []
        for step in (h, -h):
            for n in names:
                params.tensors[n][...] = saved[n] + (step / norm) * v[n]
            losses.append(nll_loss(forward(params, tokens, rng=generator(), rows=rows), batch))
        for n in names:
            params.tensors[n][...] = saved[n]
        err = abs((losses[0] - losses[1]) / (2 * h) - want) / abs(want)
        assert err < 1e-6, f"{kinds[i] if i < len(kinds) else 'joint'}: rel err {err:.1e}"


def padded_wider(batch, extra):
    """The same batch with ``extra`` more pad columns (id 0, no loss)."""
    b, s = batch.tokens.shape
    tokens = np.zeros((b, s + extra), dtype=np.int64)
    tokens[:, :s] = batch.tokens
    mask = np.zeros((b, s + extra))
    mask[:, :s] = batch.loss_mask
    return SequenceBatch(tokens=tokens, loss_mask=mask)


def test_backward_memory_stays_within_its_cache_layout():
    """numpy reports its buffers to tracemalloc, so the traced peak of one
    CLI-default backward is the activation memory of a training step.  The
    bound is the cache layout: 14 d-wide values per row and layer (both
    norms' x-hat, q/k/v, the attention context, the GELU's activation and
    derivative at d_ff = 4d), each layer's attention probabilities, the
    (loss rows, V) logits, and one layer's temporaries: the GELU's input,
    tanh and 1 - tanh^2 (3 d_ff wide) and the block's four (rows, d) arrays."""
    c = ModelConfig(vocab_size=876)
    assert c.d_ff == 4 * c.d_model
    params = init_params(c, seed=0)
    rng = np.random.default_rng(17)
    b, s = 16, 80
    lengths = rng.integers(24, s + 1, size=b)
    tokens = rng.integers(0, c.vocab_size, size=(b, s))
    mask = (np.arange(s) < lengths[:, None]).astype(np.float64)
    mask[:, 0] = 0.0
    batch = SequenceBatch(tokens=tokens, loss_mask=mask)
    rows = int((lengths - 1).sum())      # each sequence runs up to its last loss row
    probs = c.n_layers * c.n_heads * int(((lengths - 1) ** 2).sum())
    temporaries = rows * (3 * c.d_ff + 4 * c.d_model)
    bound = 4 * (rows * 14 * c.d_model * c.n_layers + probs
                 + int(mask.sum()) * c.vocab_size + temporaries)   # float32 values
    tracemalloc.start()
    try:
        backward(params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MB, bound {bound / 2**20:.1f} MB"


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_backward_frees_each_layer_cache_by_its_first_norm(monkeypatch, rate):
    """A layer's GELU activation and derivative, attention context, q/k/v
    and attention probabilities are dead by the time its LN1 backward runs:
    backward pops each cache entry at its last read."""
    config = replace(ROWS, d_ff=64, dropout_rate=rate)
    params = noisy_params(config, seed=5)
    batch = weighted_batch(np.random.default_rng(6), config)
    refs, dead = {}, {}
    real_forward, real_norm_backward = model._forward_impl, model._layer_norm_backward

    def forward_spy(*args, **kwargs):
        logits, cache = real_forward(*args, **kwargs)
        for i, lc in enumerate(cache["layers"]):
            refs[i] = {key: weakref.ref(lc[key]) for key in ("a", "gelu_d", "ctx", "qkv")}
            refs[i]["probs"] = weakref.ref(lc["runs"][0][0])
        return logits, cache

    def norm_backward_spy(dy, cache, g):
        for i, layer in enumerate(params.layers):
            if g is layer[0]:       # ln1.g
                dead[i] = sorted(key for key, ref in refs[i].items() if ref() is None)
        return real_norm_backward(dy, cache, g)

    monkeypatch.setattr(model, "_forward_impl", forward_spy)
    monkeypatch.setattr(model, "_layer_norm_backward", norm_backward_spy)
    backward(params, batch, rng=np.random.default_rng(7))
    everything = sorted(["a", "gelu_d", "ctx", "qkv", "probs"])
    assert dead == {i: everything for i in range(config.n_layers)}


# sha256 of the loss and every gradient of one fixed CLI-default backward,
# recorded before backward freed its cache entries at their last read; the
# arithmetic is the same, so the bits are too (at one BLAS thread).  The 0.1
# digest was recorded again when each dropout mask came to be drawn at the
# cells the pass runs: backward runs no sequence to its last position, so
# it now draws fewer uniforms than the untrimmed grid held
BACKWARD_GOLDEN = {
    0.0: "57d621170c805e2ade6afa50da49873c80095d8ecc79a92a69788daa3538839e",
    0.1: "03dccf2f7b54867ba9c973c8ea3c59f744672f577d098a6d405b443a813d6a30",
}


@pytest.mark.parametrize("rate", sorted(BACKWARD_GOLDEN))
def test_backward_bits_pinned(rate, golden_build):
    config = ModelConfig(vocab_size=300, dropout_rate=rate)
    params = noisy_params(config, seed=4)
    rng = np.random.default_rng(19)
    b, s = 6, 40
    lengths = np.array([40, 23, 23, 9, 31, 40])     # ragged, with a run of two
    tokens = rng.integers(0, config.vocab_size, size=(b, s))
    mask = (np.arange(s) < lengths[:, None]).astype(np.float64)
    mask[:, 0] = 0.0
    loss, grads = backward(params, SequenceBatch(tokens, mask),
                           rng=np.random.default_rng(23))
    digest = hashlib.sha256(np.float64(loss).tobytes())
    for name, g in grads.items():
        digest.update(name.encode())
        digest.update(g.tobytes())
    assert digest.hexdigest() == BACKWARD_GOLDEN[rate], golden_build


# sha256 of the logits of one full-width CLI-default forward with dropout
# 0.1, recorded when every mask was drawn at the (B, S, ·) grid and cut down
# to the cells that run: a pass that runs every cell draws the same uniforms
# in the same order either way
FORWARD_DROPOUT_GOLDEN = "0161eaac8cd1505e50990f545306a8e1fc0cf58a6426939a7e0e7dd740af4028"


def test_full_forward_dropout_bits_pinned(golden_build):
    config = ModelConfig(vocab_size=300, dropout_rate=0.1)
    params = noisy_params(config, seed=4)
    tokens = np.random.default_rng(19).integers(0, config.vocab_size, size=(6, 40))
    logits = forward(params, tokens, rng=np.random.default_rng(23))
    digest = hashlib.sha256(logits.tobytes()).hexdigest()
    assert digest == FORWARD_DROPOUT_GOLDEN, golden_build


ROWS = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24, context_len=64,
                   vocab_size=13)


class TestRowSelection:
    """No position at or after a sequence's last loss target reaches the
    loss, so batches that differ only there give the same loss and
    gradients, and backward's loss is the full forward's ``nll_loss``."""

    @staticmethod
    def assert_same_loss_and_grads(params, a, b):
        loss_a, grads_a = backward(params, a)
        loss_b, grads_b = backward(params, b)
        assert abs(loss_a - loss_b) < 1e-12
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name],
                                       rtol=0, atol=1e-12, err_msg=name)
        full = nll_loss(forward(params, a.tokens), a)
        assert abs(loss_a - full) < 1e-12

    def test_padding_wider_changes_nothing(self):
        params = init_params(ROWS, seed=3, dtype=np.float64)
        rng = np.random.default_rng(7)
        lengths = (9, 17, 5, 12)
        tokens = np.zeros((4, 17), dtype=np.int64)
        mask = np.zeros((4, 17))
        for i, n in enumerate(lengths):
            tokens[i, :n] = rng.integers(1, 13, size=n)
            mask[i, 1:n] = 1.0
        batch = SequenceBatch(tokens=tokens, loss_mask=mask)
        self.assert_same_loss_and_grads(params, batch, padded_wider(batch, 40))

    def test_mask_with_holes_and_unscored_tail(self):
        params = init_params(ROWS, seed=4, dtype=np.float64)
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 13, size=(3, 20))
        mask = np.zeros((3, 20))
        mask[0, [1, 2, 5, 9]] = 1.0     # holes, then ten unscored tokens
        mask[1, [3, 4]] = 1.0
        mask[2, 1:] = 1.0
        batch = SequenceBatch(tokens=tokens, loss_mask=mask)
        other = tokens.copy()
        other[0, 10:] = (other[0, 10:] + 5) % 13
        other[1, 5:] = rng.integers(0, 13, size=15)
        self.assert_same_loss_and_grads(
            params, batch, SequenceBatch(tokens=other, loss_mask=mask))
        self.assert_same_loss_and_grads(params, batch, padded_wider(batch, 40))

    def test_dropout_draws_what_the_loss_rows_forward_draws(self):
        config = replace(ROWS, dropout_rate=0.2)
        params = init_params(config, seed=5, dtype=np.float64)
        batch = rand_batch(np.random.default_rng(9), config, b=3, s=11)
        rng_b, rng_f = np.random.default_rng(1), np.random.default_rng(1)
        loss, _ = backward(params, batch, rng=rng_b)
        logits = forward(params, batch.tokens, rng=rng_f, rows=loss_rows(batch))
        assert abs(loss - nll_loss(logits, batch)) < 1e-12
        assert rng_b.bit_generator.state == rng_f.bit_generator.state


def reaching_loss_rows(batch):
    """The layout of ``backward``: each sequence from position 0 up to its
    last loss row."""
    b_idx, t_idx = loss_rows(batch)
    length = np.zeros(len(batch.tokens), np.int64)
    np.maximum.at(length, b_idx, t_idx + 1)
    return _layout(np.zeros_like(length), length, np.float64, ROWS.n_heads, ROWS.context_len)


class TestAttentionRuns:
    """Attention runs once per run of consecutive sequences that keep the
    same length.  Each sequence alone at B=1 is one run of its own length,
    so it is the reference for any mix of runs in a batch."""

    KEPT = (5, 5, 3, 0, 7, 7, 7, 1)     # sequence 3 asks for no row

    def batch(self, config, seed=12):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, config.vocab_size, size=(len(self.KEPT), 10))
        mask = np.zeros(tokens.shape)
        for i, kept in enumerate(self.KEPT):
            mask[i, 1:kept + 1] = 1.0
        mask[1, 2] = mask[5, 4] = 0.0   # holes before the last loss row
        return SequenceBatch(tokens=tokens, loss_mask=mask)

    def test_runs_follow_the_kept_lengths(self):
        batch = self.batch(ROWS)
        runs = reaching_loss_rows(batch)[3]
        assert [(bs.start, bs.stop, rs.start, rs.stop, n)
                for bs, rs, n, *_ in runs] == [(0, 2, 0, 10, 5),
                                               (2, 3, 10, 13, 3),
                                               (4, 7, 13, 34, 7),
                                               (7, 8, 34, 35, 1)]

    def test_batch_equals_each_sequence_alone(self):
        params = init_params(ROWS, seed=14, dtype=np.float64)
        batch = self.batch(params.config)
        loss, grads = backward(params, batch)
        rows = forward(params, batch.tokens, rows=loss_rows(batch))
        n = batch.loss_mask.sum()
        want_loss, want_grads, want_rows = 0.0, {k: 0.0 for k in grads}, []
        for i, kept in enumerate(self.KEPT):
            if not kept:
                continue
            alone = SequenceBatch(tokens=batch.tokens[i:i + 1],
                                  loss_mask=batch.loss_mask[i:i + 1])
            share = alone.loss_mask.sum() / n
            loss_i, grads_i = backward(params, alone)
            want_loss += share * loss_i
            for name, g in grads_i.items():
                want_grads[name] = want_grads[name] + share * g
            want_rows.append(forward(params, alone.tokens, rows=loss_rows(alone)))
        np.testing.assert_allclose(rows, np.concatenate(want_rows),
                                   rtol=0, atol=1e-12)
        assert abs(loss - want_loss) < 1e-12
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_position_sum_equals_padded_batch_sum(self, monkeypatch):
        """backward's pos_emb gradient sums each position's embedding-input
        gradient over the sequences, added in batch order from zero: bitwise
        the batch-axis sum of a zero-padded grid.  That gradient is what
        backward's last ``_apply_mask`` call returns: one row per kept cell,
        in row-major cell order."""
        batch = self.batch(ROWS)
        width = max(self.KEPT)
        kept = np.arange(width) < np.array(self.KEPT)[:, None]   # (B, width)
        returned, apply_mask = [], model._apply_mask

        def spy(x, mask):
            returned.append(apply_mask(x, mask))
            return returned[-1]

        monkeypatch.setattr(model, "_apply_mask", spy)
        for dtype in (np.float32, np.float64):
            _, grads = backward(init_params(ROWS, seed=17, dtype=dtype), batch)
            grid = np.zeros((*kept.shape, ROWS.d_model), dtype)
            grid[kept] = returned[-1]
            want = np.zeros((width, ROWS.d_model), dtype)
            for row in grid:
                want += row
            assert grads["pos_emb"].dtype == dtype
            assert np.array_equal(grads["pos_emb"][:width], want)
            assert not grads["pos_emb"][width:].any()

    def test_dropout_matches_loss_rows_forward_with_rng(self):
        params = init_params(replace(ROWS, dropout_rate=0.2), seed=15,
                             dtype=np.float64)
        batch = self.batch(params.config, seed=13)
        rng_b, rng_f = np.random.default_rng(2), np.random.default_rng(2)
        loss, _ = backward(params, batch, rng=rng_b)
        logits = forward(params, batch.tokens, rng=rng_f, rows=loss_rows(batch))
        assert abs(loss - nll_loss(logits, batch)) < 1e-12
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) > 1e-6
        assert rng_b.bit_generator.state == rng_f.bit_generator.state

    @pytest.mark.parametrize("pass_", ["backward", "forward"])
    def test_dropout_draws_one_uniform_per_cell_it_runs(self, monkeypatch, pass_):
        """Each mask is drawn at the site that applies it, shaped like the
        array it masks, in site order: the embedding and both residuals at
        (kept cells, d), each attention run at (n, heads, L, L).  A twin
        generator that draws as many uniforms per site ends in the state
        the pass's generator is in after that site."""
        config = replace(ROWS, dropout_rate=0.1)
        params = init_params(config, seed=15)
        batch = self.batch(config)
        row_site = (sum(self.KEPT), config.d_model)     # sequence 3 runs no cell
        att_sites = [(n, config.n_heads, length, length)
                     for n, length in [(2, 5), (1, 3), (3, 7), (1, 1)]]
        want = [row_site] + (att_sites + [row_site, row_site]) * config.n_layers
        shapes, states, real = [], [], model._dropout

        def spy(rng, rate, like):
            out, mask = real(rng, rate, like)
            assert mask.shape == like.shape and mask.dtype == like.dtype
            assert np.array_equal(out, like * mask)
            shapes.append(like.shape)
            states.append(rng.bit_generator.state)
            return out, mask

        monkeypatch.setattr(model, "_dropout", spy)
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        if pass_ == "backward":
            backward(params, batch, rng=rng)
        else:
            forward(params, batch.tokens, rng=rng, rows=loss_rows(batch))
        assert shapes == want
        for shape, state in zip(shapes, states):
            twin.random(shape)
            assert twin.bit_generator.state == state
        assert rng.bit_generator.state == states[-1]


class TestForwardRows:
    @pytest.mark.parametrize("rows", [([0, 1, 2], [6, 2, 0]),
                                      ([1, 1, 0, 1], [4, 1, 4, 4]),
                                      ([2], [9]), ([0, 1, 2], [0, 0, 0]),
                                      (np.array([2, 0], np.int32), np.array([9, 3], np.int32)),
                                      (0, [1, 3])],
                             ids=["one-per-row", "repeated-unsorted", "single",
                                  "first-column", "int32", "scalar-batch"])
    def test_selected_rows_equal_full_forward(self, rows):
        params = init_params(ROWS, seed=6, dtype=np.float64)
        tokens = np.random.default_rng(10).integers(0, 13, size=(3, 10))
        want = forward(params, tokens)[rows]
        got = forward(params, tokens, rows=rows)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rows_with_cache_fill_every_position(self):
        params = init_params(ROWS, seed=6, dtype=np.float64)
        tokens = np.random.default_rng(11).integers(0, 13, size=(1, 9))
        kv = KVCache(params, 1, ROWS.context_len)
        last = forward(params, tokens[:, :6], kv=kv, rows=([0], [5]))
        assert kv.lengths == [6]
        step = forward(params, tokens[:, 6:], kv=kv, rows=([0], [2]))
        full = forward(params, tokens)
        np.testing.assert_allclose(last[0], full[0, 5], rtol=0, atol=1e-12)
        np.testing.assert_allclose(step[0], full[0, 8], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [([0], [10]), ([3], [0]), ([0], [-1]),
                                      ([], [])],
                             ids=["past-seq", "past-batch", "negative", "empty"])
    def test_bad_rows_rejected(self, rows):
        params = init_params(ROWS, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.zeros((3, 10), dtype=np.int64), rows=rows)

    def test_cells_run_up_to_each_sequence_last_output(self):
        # outputs at (0, 2), (0, 4) and (2, 1) of a (3, 6) batch, cells
        # b * 5 + t of the (3, 5) grid; sequence 1 asks for nothing
        width, _, cells, _ = _layout(np.zeros(3, np.int64), np.array([5, 0, 2]),
                                     np.float64, ROWS.n_heads, ROWS.context_len)
        assert width == 5
        assert cells.tolist() == [0, 1, 2, 3, 4, 10, 11]
        params = init_params(ROWS, seed=6, dtype=np.float64)
        tokens = np.random.default_rng(9).integers(0, 13, size=(3, 6))
        rows = ([2, 0, 0], [1, 2, 4])
        np.testing.assert_allclose(forward(params, tokens, rows=rows),
                                   forward(params, tokens)[rows], rtol=0, atol=1e-12)

    def test_uniform_cut_is_a_reshape(self):
        grid = np.arange(12).reshape(2, 6)
        params = init_params(ROWS, seed=6, dtype=np.float64)
        for rows, width in ((([0, 1], [3, 3]), 4), (([0, 1, 0], [5, 5, 0]), 6)):
            got = _layout(np.zeros(2, np.int64), np.full(2, width), np.float64,
                          ROWS.n_heads, ROWS.context_len)
            assert got[0] == width and got[2] is None
            _, cache = model._forward_impl(params, grid, None, True,
                                           rows=tuple(map(np.array, rows)))
            assert cache["tok"].tolist() == grid[:, :width].reshape(-1).tolist()
        assert np.shares_memory(cache["tok"], grid)     # the full width


class TestCheckpoint:
    def test_round_trip_preserves_forward_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        params = init_params(TINY, seed=8)            # float32 storage dtype
        tokens = rng.integers(0, 10, size=(2, 6))
        before = forward(params, tokens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for name in params.tensors:
            assert np.array_equal(loaded[name], params[name])
        after = forward(loaded, tokens)
        assert after.tobytes() == before.tobytes()

    def test_format_and_init_draw_pinned(self, tmp_path):
        """The file an initial TINY model saves to, byte for byte: the v1
        format stores each fused q/k/v tensor as its thirds under their own
        names, and init draws wq, wk and wv in that order."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2f22dd894f863fed47410510b5076004ff72891290a416d7e448667358f58fd3")

    def test_copies_are_the_same_bytes(self, tmp_path):
        params = init_params(TINY, seed=8)
        a, b = tmp_path / "step.ckpt", tmp_path / "last.ckpt"
        save_checkpoint(params, a, b)
        assert a.read_bytes() == b.read_bytes()
        probe = tmp_path / "probe"
        probe.touch()
        try:
            os.link(probe, tmp_path / "probe-link")
        except OSError:     # no hard links on this filesystem: b is a second write
            pass
        else:
            assert os.path.samefile(a, b)
        for path in (a, b):
            loaded = load_checkpoint(path)
            assert all(loaded[n].tobytes() == t.tobytes() for n, t in params.tensors.items())
        save_checkpoint(init_params(TINY, seed=9), b)
        assert a.read_bytes() != b.read_bytes()
        assert load_checkpoint(a)["tok_emb"].tobytes() == params["tok_emb"].tobytes()

    def test_copy_written_where_links_fail(self, tmp_path, monkeypatch):
        def link(src, dst):
            raise OSError("no hard links here")
        monkeypatch.setattr(os, "link", link)
        a, b = tmp_path / "step.ckpt", tmp_path / "last.ckpt"
        save_checkpoint(init_params(TINY, seed=8), a, b)
        assert a.read_bytes() == b.read_bytes() and os.stat(b).st_nlink == 1

    @pytest.mark.parametrize("fail, new", [
        ("link", 0), ("replace-step.ckpt", 0), ("replace-last.ckpt", 1)])
    def test_failure_leaves_whole_files_and_no_temporary(self, tmp_path, monkeypatch,
                                                         fail, new):
        """Every temporary file exists before the first rename, so a failed
        link keeps both old files; a failed rename keeps the old file there
        and at every later copy."""
        paths = [tmp_path / "step.ckpt", tmp_path / "last.ckpt"]
        save_checkpoint(init_params(TINY, seed=8), *paths)
        old = paths[0].read_bytes()
        real = {"link": os.link, "replace": os.replace}

        def failing(name):
            def call(src, dst):
                if fail == name or fail == f"{name}-{Path(dst).name}":
                    raise RuntimeError(f"injected failure at {name}")
                return real[name](src, dst)
            return call
        for name in real:
            monkeypatch.setattr(os, name, failing(name))
        params = init_params(TINY, seed=9)
        with pytest.raises(RuntimeError, match="injected failure"):
            save_checkpoint(params, *paths)
        monkeypatch.undo()
        save_checkpoint(params, tmp_path / "want.ckpt")
        want = (tmp_path / "want.ckpt").read_bytes()
        assert [p.read_bytes() for p in paths] == [want] * new + [old] * (2 - new)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "last.ckpt", "step.ckpt", "want.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(TINY, seed=8)
        p = tmp_path / "model.ckpt"
        save_checkpoint(params, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "none.ckpt")

    @pytest.mark.parametrize("field, value", [
        ("d_model", 8.0), ("context_len", 8.5), ("tie_embeddings", "no"),
        ("n_layers", True)])
    def test_config_block_of_wrong_type_rejected(self, tmp_path, field, value):
        p = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), p)
        edit_config_block(p, **{field: value})
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(p)

    @pytest.mark.parametrize("change", [
        lambda cfg: {**cfg, "tie_embeddings": False},
        lambda cfg: {k: v for k, v in cfg.items() if k != "tie_embeddings"},
        lambda cfg: sorted(cfg.items())], ids=["untied", "key-missing", "json-array"])
    def test_config_block_without_a_tied_head_rejected(self, tmp_path, change):
        """Every v1 file carries ``"tie_embeddings": true``: a block that asks
        for an untied head, names no head, or is no JSON object is refused."""
        p = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), p)
        edit_config_block(p, change)
        with pytest.raises(CheckpointError, match="bad config block"):
            load_checkpoint(p)

    @pytest.mark.parametrize("where, value, error, message", [
        ("version", struct.pack("<I", 2), CheckpointError, "unsupported checkpoint version 2"),
        ("count", struct.pack("<I", 21), CheckpointError, "expected 20 tensors, found 21"),
        ("dims", struct.pack("<I", 11), CheckpointError,
         r"tensor 'tok_emb' has shape \(11, 8\), expected \(10, 8\)"),
        ("end", b"\0", CheckpointError, "trailing bytes after last tensor"),
        ("data", struct.pack("<f", np.nan), ModelError, "non-finite values in parameter 'tok_emb'"),
    ], ids=["version", "tensor-count", "shape", "trailing-bytes", "non-finite"])
    def test_refusals(self, tmp_path, where, value, error, message):
        """A file with ``value`` written over its bytes at ``where``: the
        version, the tensor count, the first tensor's (tok_emb's) first
        dimension or first value, or the end of the file."""
        p = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), p)
        data = p.read_bytes()
        head = len(model.CHECKPOINT_MAGIC) + 4
        (n,) = struct.unpack("<I", data[head:head + 4])
        dims = data.index(b"tok_emb") + len("tok_emb") + 1      # after the u8 ndim
        at = {"version": head - 4, "count": head + 4 + n, "dims": dims, "data": dims + 8,
              "end": len(data)}[where]
        p.write_bytes(data[:at] + value + data[at + len(value):])
        with pytest.raises(error, match=message):
            load_checkpoint(p)

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), p)
        data = bytearray(p.read_bytes())
        data[data.index(b"tok_emb")] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=r"tensor '\ufffdok_emb' out of order \(wanted 'tok_emb'\)"):
            load_checkpoint(p)


def edit_config_block(path, change=None, **fields):
    """Rewrite the JSON config block of the checkpoint at ``path`` with
    ``fields`` set, or as ``change`` maps the parsed block, keeping every
    other byte."""
    data = path.read_bytes()
    head = len(model.CHECKPOINT_MAGIC) + 4
    (n,) = struct.unpack("<I", data[head:head + 4])
    cfg = {**json.loads(data[head + 4:head + 4 + n]), **fields}
    block = json.dumps(change(cfg) if change else cfg, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:head] + struct.pack("<I", len(block)) + block
                     + data[head + 4 + n:])


def reference_softmax_nll(logits, batch, rows=None):
    """The textbook loss and dL/dlogits = (softmax - one-hot) * mask / n, in
    float64, returned in the logits' dtype; it finds the loss cells itself,
    so it takes ``_softmax_nll``'s ``rows`` and reads none of them."""
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt, m = batch.tokens[b_idx, t_idx], batch.loss_mask[b_idx, t_idx]
    z = logits.astype(np.float64)
    probs = np.exp(z - z.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    one_hot = np.eye(z.shape[-1])[tgt]
    loss = -(np.log(probs[np.arange(tgt.size), tgt]) * m).sum() / m.sum()
    return loss, ((probs - one_hot) * (m / m.sum())[:, None]).astype(logits.dtype)


def weighted_batch(rng, config):
    batch = rand_batch(rng, config, b=3, s=8, full_mask=True)
    batch.loss_mask[1, 2:5] = 2.0      # weights other than 1 reach w = mask / n
    batch.loss_mask[2, 6:] = 0.0
    return batch


class TestKernelNumerics:
    def test_fused_head_gradient_matches_float64_reference(self, monkeypatch):
        # the gradients that leave the head first, tok_emb (tied) and ln_f,
        # with the fused softmax and with the textbook (softmax - one-hot)
        # * mask / n swapped in; the rest of backward is the same code
        config = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                             context_len=8, vocab_size=40)
        rng = np.random.default_rng(21)
        p32 = init_params(config, seed=5)
        for arr in p32.tensors.values():
            arr += rng.normal(0.0, 0.3, arr.shape).astype(np.float32)
        p64 = ModelParams(config, {n: a.astype(np.float64) for n, a in p32.tensors.items()})
        batch = weighted_batch(rng, config)
        loss32, g32 = backward(p32, batch)
        loss64, g64 = backward(p64, batch)
        monkeypatch.setattr(model, "_softmax_nll", reference_softmax_nll)
        loss_ref, g_ref = backward(p64, batch)
        assert abs(loss64 - loss_ref) < 1e-12 and abs(loss32 - loss_ref) < 1e-5 * loss_ref
        for name in ("tok_emb", "ln_f.g", "ln_f.b"):
            assert rel_err(g64[name], g_ref[name]) < 1e-12, name
            assert rel_err(g32[name], g_ref[name]) < 1e-5, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_nll_gradient_matches_reference(self, dtype):
        rng = np.random.default_rng(4)
        batch = weighted_batch(rng, TINY)
        logits = (rng.standard_normal((int(np.count_nonzero(batch.loss_mask)), 10))
                  * 4).astype(dtype)
        want_loss, want = reference_softmax_nll(logits, batch)
        loss, got = model._softmax_nll(logits.copy(), batch, loss_rows(batch))
        assert got.dtype == dtype and abs(loss - want_loss) < 1e-6 * want_loss
        w = batch.loss_mask[batch.loss_mask != 0] / batch.loss_mask.sum()
        assert np.all(np.abs(got - want) <= 4 * np.finfo(dtype).eps * w[:, None])

    def test_gelu_and_its_derivative_match_the_textbook_formula(self):
        # within 4 float32 ulps of max(|u|, |value|): where u is large and
        # negative, 1 + tanh cancels in float32 and the absolute error is
        # that of u, not of the tiny value
        rng = np.random.default_rng(0)
        u = np.concatenate([np.linspace(-8, 8, 40001),
                            rng.standard_normal(20000) * 3]).astype(np.float32)
        x = u.astype(np.float64)
        c = math.sqrt(2.0 / math.pi)
        th = np.tanh(c * (x + 0.044715 * x ** 3))
        want = 0.5 * x * (1.0 + th)
        want_d = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * c * (1.0 + 3 * 0.044715 * x * x)
        a, d = _gelu(u, derivative=True)
        assert a.dtype == d.dtype == np.float32
        for got, ref in ((a, want), (d, want_d)):
            ulp = np.spacing(np.maximum(np.abs(ref), np.abs(x)).astype(np.float32))
            assert np.all(np.abs(got - ref) <= 4 * ulp.astype(np.float64))


def former_gelu(u):
    """``_gelu`` as it was when it returned the tanh for the backward pass."""
    t = u * u
    t *= model._GELU_C * model._GELU_A
    t += model._GELU_C
    t *= u
    np.tanh(t, out=t)
    a = t + 1.0
    a *= u
    a *= 0.5
    return a, t


def former_gelu_backward(du_out, u, t):
    """The former backward GELU, kept as the bitwise reference for the
    derivative ``_gelu`` now forms in the forward pass."""
    g = u * u
    g *= 3.0 * model._GELU_A * model._GELU_C
    g += model._GELU_C
    g *= u
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    g *= sech2
    g += t
    g += 1.0
    g *= 0.5
    g *= du_out
    return g


class TestGeluDerivative:
    """The derivative formed in the forward pass gives the former backward
    GELU's bits, and asking for it changes nothing else."""

    @staticmethod
    def inputs(dtype):
        rng = np.random.default_rng(11)
        u = np.concatenate([np.linspace(-9, 9, 4001), rng.standard_normal(5000) * 3,
                            [0.0, -0.0, 1e-30, -1e-30, 40.0, -40.0]]).astype(dtype)
        return u, (rng.standard_normal(u.size) * 2).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_derivative_times_upstream_equals_former_backward(self, dtype):
        u, dout = self.inputs(dtype)
        _, d = _gelu(u, derivative=True)
        want = former_gelu_backward(dout, u, former_gelu(u)[1])
        got = np.multiply(d, dout, out=dout.copy())      # the backward's one multiply
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_derivative_holds_three_temporaries(self):
        """The tanh, the derivative and 1 - tanh^2 are the only arrays of
        u's size alive at once; the activation reuses the tanh's buffer."""
        u = np.random.default_rng(12).standard_normal((1000, 512)).astype(np.float32)
        tracemalloc.start()
        try:
            _gelu(u, derivative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * u.nbytes + 2**20, f"peak {peak / u.nbytes:.2f} x u.nbytes"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_activation_bits_and_input_unchanged(self, dtype):
        u, _ = self.inputs(dtype)
        before = u.tobytes()
        plain, none = _gelu(u)
        assert none is None and u.tobytes() == before
        with_d, d = _gelu(u, derivative=True)
        assert u.tobytes() == before and d.dtype == dtype
        assert plain.tobytes() == with_d.tobytes() == former_gelu(u)[0].tobytes()


class TestGeluBlocks:
    """``_gelu`` runs its passes over blocks of ``_GELU_BLOCK`` bytes of
    rows: at every row count, on either side of a block edge, it gives the
    unblocked formulas' bits, and a folded-in bias gives those of u + b."""

    @staticmethod
    def check(u, b=None):
        want = u if b is None else u + b
        a0, t = former_gelu(want)
        d0 = former_gelu_backward(np.ones_like(want), want, t)
        for derivative in (False, True):
            x = u.copy()
            a, d = _gelu(x, b, derivative=derivative)
            assert a.dtype == u.dtype and a.tobytes() == a0.tobytes()
            # with a bias, the activation is written over the input
            assert a is x if b is not None else x.tobytes() == u.tobytes()
            assert (d is None) if not derivative else d.tobytes() == d0.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "block-1", "block", "block+1", "2block+3"])
    def test_rows_around_block_edges(self, dtype, blocks, extra):
        width = 512
        rows = blocks * (model._GELU_BLOCK // (width * np.dtype(dtype).itemsize)) + extra
        u = np.random.default_rng(rows).standard_normal((rows, width)) * 3
        self.check(u.astype(dtype))

    def test_one_dimensional_input_blocks_its_elements(self):
        size = 2 * model._GELU_BLOCK // 4 + 3
        u = np.random.default_rng(13).standard_normal(size) * 3
        self.check(u.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_folded_in_equals_gelu_of_the_sum(self, dtype):
        rng = np.random.default_rng(14)
        rows = 2 * model._GELU_BLOCK // (128 * np.dtype(dtype).itemsize) + 3
        u = (rng.standard_normal((rows, 128)) * 3).astype(dtype)
        self.check(u, rng.standard_normal((1, 128)).astype(dtype))


def former_softmax_nll(logits, batch, rows=None):
    """The one-function loss and dL/dlogits that ``_nll`` and
    ``_softmax_nll`` were split from, kept as their bitwise reference; it
    finds the loss cells itself and reads none of ``rows``."""
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt = batch.tokens[b_idx, t_idx]
    m = batch.loss_mask[b_idx, t_idx].astype(logits.dtype)
    n = m.sum()
    rows = np.arange(tgt.size)
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[rows, tgt]
    dlogits = np.exp(logits, out=logits)
    z = np.add.reduce(dlogits, axis=-1)
    w = m / n
    dlogits *= (w / z)[:, None]
    dlogits[rows, tgt] -= w
    return float(-((picked - np.log(z)) * m).sum() / n), dlogits


class TestLossSplit:
    """Held-out loss forms no gradient; it and backward stay bitwise equal
    to the former single loss-and-gradient function on fixture batches."""

    @pytest.fixture(scope="class")
    def fixture_batches(self, toy_samples, fixture_poems, catalog):
        samples = toy_samples + [serialize(p, catalog) for p in fixture_poems]
        vocab = build_vocab(samples)
        seqs = [encode_sample(s, vocab) for s in samples]
        batches = [make_batch(seqs[i:i + 8]) for i in (0, 40, 80)]
        config = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                             context_len=max(len(s) for s in seqs),
                             vocab_size=vocab.size)
        return batches, config

    def test_nll_loss_and_backward_match_the_former_function(
            self, fixture_batches, monkeypatch):
        batches, config = fixture_batches
        params = noisy_params(config, seed=3)
        for batch in batches:
            got = [backward(params, batch)]
            logits = forward(params, batch.tokens, rows=loss_rows(batch))
            assert nll_loss(logits, batch) == former_softmax_nll(
                logits.astype(np.float64), batch)[0]
            monkeypatch.setattr(model, "_softmax_nll", former_softmax_nll)
            got.append(backward(params, batch))
            monkeypatch.undo()
            (loss, grads), (want_loss, want) = got
            assert loss == want_loss
            assert grads.keys() == want.keys()
            for name, arr in want.items():
                assert grads[name].tobytes() == arr.tobytes(), name


def noisy_params(config, seed):
    """Initial params plus noise, so no tensor is all zeros or all ones."""
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for arr in params.tensors.values():
        arr += rng.normal(0.0, 0.1, arr.shape).astype(np.float32)
    return params


def tensors_copy(params):
    return {name: arr.copy() for name, arr in params.tensors.items()}


def assert_tensors_unchanged(params, before):
    assert params.tensors.keys() == before.keys()
    for name, arr in before.items():
        assert params.tensors[name].tobytes() == arr.tobytes(), name


class TestInputsUnchanged:
    """forward, backward and nll_loss work in place only on arrays they
    allocate: parameters, tokens, masks and logits handed in stay as they were."""

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    @pytest.mark.parametrize("cached", [False, True], ids=["full", "kv"])
    def test_forward(self, rate, cached):
        config = replace(TINY, n_layers=2, n_heads=2, dropout_rate=rate)
        params = noisy_params(config, seed=3)
        tokens = np.random.default_rng(0).integers(0, 10, size=(2, 6))
        before, tokens_before = tensors_copy(params), tokens.copy()
        rng = np.random.default_rng(1)
        if cached:
            kv = KVCache(params, 2, 8)
            forward(params, tokens, rng=rng, kv=kv)
            forward(params, tokens[:, :1], rng=rng, kv=kv)
        else:
            forward(params, tokens, rng=rng)
            forward(params, tokens, rng=rng, rows=([0, 1], [5, 2]))
        assert_tensors_unchanged(params, before)
        assert np.array_equal(tokens, tokens_before)

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_backward(self, rate):
        config = replace(TINY, n_layers=2, n_heads=2, dropout_rate=rate)
        params = noisy_params(config, seed=3)
        batch = weighted_batch(np.random.default_rng(2), config)
        tokens, mask = batch.tokens.copy(), batch.loss_mask.copy()
        before = tensors_copy(params)
        _, grads = backward(params, batch, rng=np.random.default_rng(1))
        assert_tensors_unchanged(params, before)
        assert np.array_equal(batch.tokens, tokens)
        assert batch.loss_mask.tobytes() == mask.tobytes()
        assert not any(np.shares_memory(grads[n], params[n]) for n in grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nll_loss(self, dtype):
        rng = np.random.default_rng(5)
        batch = weighted_batch(rng, TINY)
        grid = rng.standard_normal((3, 8, 10)).astype(dtype)
        rows = grid[loss_rows(batch)]
        for logits in (grid, rows):
            kept = logits.copy()
            nll_loss(logits, batch)
            assert logits.tobytes() == kept.tobytes()
