import math
from dataclasses import replace

import numpy as np
import pytest

from guti.errors import CheckpointError, ModelError
from guti.model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    _LN_EPS,
    _dropout_mask,
    _layer_norm,
    _rows_reaching,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss_rows,
    nll_loss,
    param_names,
    save_checkpoint,
)

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

    def test_batch_row_independence(self):
        rng = np.random.default_rng(1)
        params = init_params(TINY, seed=2, dtype=np.float64)
        pair = rng.integers(0, 10, size=(2, 5))
        single = forward(params, pair[:1])
        both = forward(params, pair)
        assert np.array_equal(single[0], both[0])

    def test_one_query_row_without_cache(self):
        params = init_params(ROWS, seed=3, dtype=np.float64)
        tokens = np.random.default_rng(4).integers(0, 13, size=(3, 7))
        np.testing.assert_allclose(forward(params, tokens[:, :1]),
                                   forward(params, tokens)[:, :1], rtol=0, atol=1e-12)

    def test_sequence_too_long(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.zeros((1, 9), dtype=np.int64))

    def test_id_out_of_range(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.full((1, 3), 10))

    def test_dropout_needs_rng(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.5)
        params = init_params(config, seed=0)
        with pytest.raises(ModelError):
            forward(params, np.zeros((1, 3), dtype=np.int64), train_mode=True)
        out = forward(params, np.zeros((1, 3), dtype=np.int64), train_mode=True,
                      rng=np.random.default_rng(0))
        assert np.all(np.isfinite(out))


class TestKVCache:
    @pytest.mark.parametrize("chunks", [(4, 1, 1, 1, 1, 1, 1), (3, 5, 1, 1)],
                             ids=["prompt+steps", "uneven"])
    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_cached_logits_match_full_forward(self, tie, chunks):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=10, vocab_size=13, tie_embeddings=tie)
        params = init_params(config, seed=3, dtype=np.float64)
        tokens = np.random.default_rng(4).integers(0, 13, size=(2, 10))
        kv, parts, pos = [], [], 0
        for n in chunks:
            parts.append(forward(params, tokens[:, pos:pos + n], kv=kv))
            pos += n
        assert len(kv) == 2 and kv[0][0].shape[2] == 10
        np.testing.assert_allclose(np.concatenate(parts, axis=1),
                                   forward(params, tokens), rtol=0, atol=1e-12)

    def test_cache_past_context_rejected(self):
        params = init_params(TINY, seed=0)
        kv = []
        forward(params, np.zeros((1, 6), dtype=np.int64), kv=kv)
        with pytest.raises(ModelError):
            forward(params, np.zeros((1, 3), dtype=np.int64), kv=kv)
        forward(params, np.zeros((1, 2), dtype=np.int64), kv=kv)
        assert kv[0][0].shape[2] == TINY.context_len


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
    qs = [[a + b for a, b in zip(matvec(v, t["layer0.attn.wq"]), t["layer0.attn.bq"])] for v in h]
    ks = [[a + b for a, b in zip(matvec(v, t["layer0.attn.wk"]), t["layer0.attn.bk"])] for v in h]
    vs = [[a + b for a, b in zip(matvec(v, t["layer0.attn.wv"]), t["layer0.attn.bv"])] for v in h]
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
    """Central differences of nll_loss; with ``dropout_seed`` every
    evaluation runs in train mode on a fresh generator from that seed, so
    each one draws the dropout masks ``backward`` draws from it."""
    def loss():
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        logits = forward(params, batch.tokens, train_mode=rng is not None, rng=rng)
        return nll_loss(logits, batch)

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


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        params = init_params(TINY, seed=13, dtype=np.float64)
        batch = rand_batch(rng, TINY, b=2, s=5)
        loss, grads = backward(params, batch)
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) < 1e-12
        fd = finite_difference_grads(params, batch, h=1e-4)
        for name in grads:
            err = rel_err(grads[name], fd[name])
            assert err < 1e-3, f"{name}: rel err {err:.2e}"

    def test_unused_positional_rows_get_zero_grad(self):
        rng = np.random.default_rng(5)
        params = init_params(TINY, seed=3, dtype=np.float64)
        batch = rand_batch(rng, TINY, b=2, s=4)
        _, grads = backward(params, batch)
        assert np.all(grads["pos_emb"][4:] == 0.0)
        assert np.any(grads["pos_emb"][:4] != 0.0)

    def test_untied_output_projection(self):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=12,
                             context_len=8, vocab_size=9, dropout_rate=0.0,
                             tie_embeddings=False)
        rng = np.random.default_rng(6)
        params = init_params(config, seed=7, dtype=np.float64)
        assert "out_proj" in params.tensors
        batch = rand_batch(rng, config, b=1, s=5)
        _, grads = backward(params, batch)
        fd = finite_difference_grads(params, batch, h=1e-4)
        for name in ("out_proj", "tok_emb"):
            assert rel_err(grads[name], fd[name]) < 1e-3

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_token_embedding_scatter_matches_add_at(self, tie):
        """With one sequence, the gradient reaching each position's input
        embedding is that position's pos_emb gradient, so ``np.add.at`` of
        those rows by token id is a reference for the tok_emb gradient.  An
        untied copy whose out_proj is tok_emb.T gives the tied model's
        output-projection share."""
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=24, vocab_size=5)
        tied = init_params(config, seed=8, dtype=np.float64)
        untied = ModelParams(replace(config, tie_embeddings=False),
                             {**tied.tensors, "out_proj": tied["tok_emb"].T.copy()})
        batch = rand_batch(np.random.default_rng(9), config, b=1, s=20, full_mask=True)
        _, grads = backward(untied, batch)
        cells = batch.tokens[0, :19]          # position 19 is only a target
        want = np.zeros_like(tied["tok_emb"])
        np.add.at(want, cells, grads["pos_emb"][:19])
        assert len(set(cells.tolist())) < cells.size    # ids repeat
        if tie:
            want += grads["out_proj"].T
            _, grads = backward(tied, batch)
        np.testing.assert_allclose(grads["tok_emb"], want, rtol=0, atol=1e-12)

    def test_dropout_gradients_consistent(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.3)
        params = init_params(config, seed=1, dtype=np.float64)
        batch = SequenceBatch(tokens=np.array([[1, 2, 3, 4]]),
                              loss_mask=np.array([[0, 1, 1, 1]]))
        a = backward(params, batch, train_mode=True, rng=np.random.default_rng(42))
        b = backward(params, batch, train_mode=True, rng=np.random.default_rng(42))
        assert a[0] == b[0]
        for name in a[1]:
            assert np.array_equal(a[1][name], b[1][name])

    def test_dropout_gradients_match_finite_differences(self):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=12,
                             context_len=8, vocab_size=10, dropout_rate=0.3)
        params = init_params(config, seed=2, dtype=np.float64)
        batch = rand_batch(np.random.default_rng(3), config, b=2, s=5)
        loss, grads = backward(params, batch, train_mode=True,
                               rng=np.random.default_rng(42))
        # the masks are live: the train-mode loss is not the eval loss
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) > 1e-6
        fd = finite_difference_grads(params, batch, h=1e-4, dropout_seed=42)
        for name in grads:
            err = rel_err(grads[name], fd[name])
            assert err < 1e-3, f"{name}: rel err {err:.2e}"

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_float32_gradients_match_float64(self, tie):
        # training runs in float32; the same weights in float64 give the
        # reference gradients.  Weights of scale 0.3 put the GELU inputs
        # around +-1, where its tanh is far from linear.
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                             context_len=12, vocab_size=20, tie_embeddings=tie)
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
        for name in g64:
            assert g32[name].dtype == np.float32
            if name.endswith("attn.bk"):
                # a key bias shifts every score of a query row alike, which
                # the softmax ignores: its gradient is zero up to rounding
                assert np.linalg.norm(g32[name]) < 1e-6
                continue
            # float32 epsilon is 1.2e-7; 1e-5 leaves room for the rounding
            # of sums over every position and both layers
            err = rel_err(g32[name], g64[name])
            assert err < 1e-5, f"{name}: rel err {err:.2e}"

    def test_loss_finite_when_float32_softmax_underflows(self):
        # a gain of 60 on the final norm spreads the logits so far that the
        # float32 softmax of some targets underflows to 0; the loss is still
        # the finite log-sum-exp value nll_loss gives
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=12,
                             context_len=8, vocab_size=4, tie_embeddings=False)
        params = init_params(config, seed=0)
        params.tensors["ln_f.g"][:] = 60.0
        params.tensors["out_proj"][:] = np.random.default_rng(0).standard_normal((8, 4))
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


def padded_wider(batch, extra):
    """The same batch with ``extra`` more pad columns (id 0, no loss)."""
    b, s = batch.tokens.shape
    tokens = np.zeros((b, s + extra), dtype=np.int64)
    tokens[:, :s] = batch.tokens
    mask = np.zeros((b, s + extra))
    mask[:, :s] = batch.loss_mask
    return SequenceBatch(tokens=tokens, loss_mask=mask)


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

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_padding_wider_changes_nothing(self, tie):
        config = replace(ROWS, tie_embeddings=tie)
        params = init_params(config, seed=3, dtype=np.float64)
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

    def test_dropout_consumes_the_full_forward_stream(self):
        config = replace(ROWS, dropout_rate=0.2)
        params = init_params(config, seed=5, dtype=np.float64)
        batch = rand_batch(np.random.default_rng(9), config, b=3, s=11)
        rng_b, rng_f = np.random.default_rng(1), np.random.default_rng(1)
        loss, _ = backward(params, batch, train_mode=True, rng=rng_b)
        logits = forward(params, batch.tokens, train_mode=True, rng=rng_f)
        assert abs(loss - nll_loss(logits, batch)) < 1e-12
        assert rng_b.random() == rng_f.random()


@pytest.mark.parametrize("dtype", [np.dtype(np.float32), np.dtype(np.float64)])
def test_dropout_mask_cut_before_conversion_matches_full_mask(dtype):
    """Cutting the uniform draw before it becomes a mask gives the mask the
    whole draw gives, cut alike, and leaves the generator in the same state."""
    rate, shape = 0.1, (16, 4, 80, 80)

    def take(m):
        return m[:, :, :60, :60]

    rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
    got = _dropout_mask(rng_new, shape, rate, dtype, take)
    # the former formula: the whole draw becomes a mask, then is cut
    want = take((rng_old.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), np.ascontiguousarray(want).view(np.uint8))
    assert rng_new.random() == rng_old.random()


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
        layout = _rows_reaching(*batch.tokens.shape,
                                np.ravel_multi_index(loss_rows(batch),
                                                     batch.tokens.shape))
        assert [(bs.start, bs.stop, rs.start, rs.stop, n)
                for bs, rs, n in layout.runs] == [(0, 2, 0, 10, 5),
                                                  (2, 3, 10, 13, 3),
                                                  (4, 7, 13, 34, 7),
                                                  (7, 8, 34, 35, 1)]

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_batch_equals_each_sequence_alone(self, tie):
        params = init_params(replace(ROWS, tie_embeddings=tie), seed=14,
                             dtype=np.float64)
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

    def test_dropout_matches_train_mode_full_forward(self):
        params = init_params(replace(ROWS, dropout_rate=0.2), seed=15,
                             dtype=np.float64)
        batch = self.batch(params.config, seed=13)
        rng_b, rng_f = np.random.default_rng(2), np.random.default_rng(2)
        loss, _ = backward(params, batch, train_mode=True, rng=rng_b)
        logits = forward(params, batch.tokens, train_mode=True, rng=rng_f)
        assert abs(loss - nll_loss(logits, batch)) < 1e-12
        assert abs(loss - nll_loss(forward(params, batch.tokens), batch)) > 1e-6
        assert rng_b.random() == rng_f.random()


class TestForwardRows:
    @pytest.mark.parametrize("rows", [([0, 1, 2], [6, 2, 0]),
                                      ([1, 1, 0, 1], [4, 1, 4, 4]),
                                      ([2], [9]), ([0, 1, 2], [0, 0, 0])],
                             ids=["one-per-row", "repeated-unsorted", "single",
                                  "first-column"])
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
        kv = []
        last = forward(params, tokens[:, :6], kv=kv, rows=([0], [5]))
        assert kv[0][0].shape[2] == 6
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
        # flat indices b * 6 + t; sequence 1 asks for nothing
        layout = _rows_reaching(3, 6, np.array([2, 4, 13]))
        assert layout.width == 5
        assert layout.cells.tolist() == [0, 1, 2, 3, 4, 10, 11]
        x = np.arange(7)[:, None] * 1.0
        assert layout.to_rows(layout.to_grid(x)).tolist() == x.tolist()
        assert layout.index(np.array([13, 2]), 6).tolist() == [6, 2]

    def test_uniform_cut_is_a_reshape(self):
        grid = np.arange(12).reshape(2, 6)
        layout = _rows_reaching(2, 6, np.array([3, 9]))
        assert layout.width == 4 and layout.cells is None
        assert layout.to_rows(grid).tolist() == grid[:, :4].reshape(-1).tolist()
        layout = _rows_reaching(2, 6, np.array([5, 11, 0]))
        assert layout.width == 6 and layout.cells is None
        assert np.shares_memory(layout.to_rows(grid), grid)


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
