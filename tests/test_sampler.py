from dataclasses import replace

import numpy as np
import pytest

from guti.errors import SamplingError, UnknownFormError
from guti.model import ModelConfig, forward, init_params
from guti.sampler import (
    SampleConfig,
    build_prompt,
    default_forbid,
    generate,
    generate_batch,
    top_k_distribution,
    top_k_sample,
)
from guti.vocab import build_vocab, decode, encode


@pytest.fixture(scope="module")
def toy_vocab(toy_samples):
    return build_vocab(toy_samples)


@pytest.fixture(scope="module")
def wide_vocab(fixture_poems, toy_samples, catalog):
    from guti.corpus import serialize
    return build_vocab([serialize(p, catalog) for p in fixture_poems]
                       + list(toy_samples))


@pytest.fixture(scope="module")
def random_params(toy_vocab):
    config = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                         context_len=64, vocab_size=toy_vocab.size)
    return init_params(config, seed=0)


class TestBuildPrompt:
    def test_form_theme_prompt(self, catalog, wide_vocab):
        ids = build_prompt("五绝", "秋思", catalog, wide_vocab)
        assert ids[0] == wide_vocab.bos_id
        assert decode(ids, wide_vocab) == "五绝(格式)秋思(标题)"

    def test_acrostic_mode_switches_markers(self, catalog, wide_vocab):
        ids = build_prompt("七律", "一路平安", catalog, wide_vocab, acrostic=True)
        assert decode(ids, wide_vocab) == "七言律诗(格式)一路平安(藏头诗)"

    def test_empty_theme_accepted(self, catalog, wide_vocab):
        ids = build_prompt("五绝", "", catalog, wide_vocab)
        assert decode(ids, wide_vocab) == "五绝(格式)(标题)"

    def test_unknown_form(self, catalog, toy_vocab):
        with pytest.raises(UnknownFormError):
            build_prompt("不存在", "x", catalog, toy_vocab)

    def test_theme_with_marker_rejected(self, catalog, toy_vocab):
        with pytest.raises(SamplingError):
            build_prompt("五绝", "秋(标题)思", catalog, toy_vocab)

    def test_theme_error_names_leftmost_marker(self, catalog, toy_vocab):
        with pytest.raises(SamplingError, match=r"'\(格式\)'"):
            build_prompt("五绝", "秋(格式)思(标题)", catalog, toy_vocab)


def stable_argsort_top_k(logits, cfg):
    """Reference top-k: a stable sort of the whole vocabulary."""
    logits = np.asarray(logits, dtype=np.float64).copy()
    logits[list(cfg.forbid)] = -np.inf
    order = np.argsort(-logits, kind="stable")[:cfg.k]
    candidates = order[logits[order] > -np.inf]
    z = logits[candidates] / cfg.temperature
    p = np.exp(z - z.max())
    return candidates, p / p.sum()


class TestTopK:
    def test_k1_is_argmax(self):
        rng = np.random.default_rng(0)
        cfg = SampleConfig(k=1, seed=0)
        for _ in range(200):
            logits = rng.normal(size=8)
            assert top_k_sample(logits, cfg, rng) == int(np.argmax(logits))

    def test_only_top_k_candidates_ever_sampled(self):
        logits = np.array([3.0, 2.0, 1.0, 0.0])
        cfg = SampleConfig(k=2, seed=0)
        rng = np.random.default_rng(1)
        seen = {top_k_sample(logits, cfg, rng) for _ in range(10_000)}
        assert seen == {0, 1}

    def test_forbidden_ids_never_sampled(self):
        logits = np.array([10.0, 2.0, 1.9, 1.8])
        cfg = SampleConfig(k=3, seed=0, forbid=frozenset({0}))
        rng = np.random.default_rng(2)
        seen = {top_k_sample(logits, cfg, rng) for _ in range(5_000)}
        assert 0 not in seen
        assert seen == {1, 2, 3}

    def test_tie_break_lower_id(self):
        logits = np.array([1.0, 2.0, 2.0, 2.0])
        candidates, probs = top_k_distribution(logits, SampleConfig(k=2))
        assert candidates.tolist() == [1, 2]
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_renormalization_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(size=12) * 5
            _, probs = top_k_distribution(logits, SampleConfig(k=4))
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_temperature_sharpens(self):
        logits = np.array([1.0, 0.0])
        _, hot = top_k_distribution(logits, SampleConfig(k=2, temperature=2.0))
        _, cold = top_k_distribution(logits, SampleConfig(k=2, temperature=0.25))
        assert cold[0] > hot[0]

    def test_full_vocab_matches_softmax_chi_square(self):
        # k = vocab size degenerates to plain softmax sampling
        logits = np.array([0.8, -0.3, 1.5, 0.0, -1.1, 0.4])
        probs = np.exp(logits) / np.exp(logits).sum()
        cfg = SampleConfig(k=6, seed=0)
        rng = np.random.default_rng(2024)
        n = 100_000
        counts = np.zeros(6)
        for _ in range(n):
            counts[top_k_sample(logits, cfg, rng)] += 1
        chi2 = float((((counts - n * probs) ** 2) / (n * probs)).sum())
        assert chi2 < 15.086   # alpha = 0.01, 5 degrees of freedom

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stable_argsort_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            v = int(rng.integers(1, 30))
            if rng.random() < 0.5:
                logits = rng.integers(-2, 3, size=v).astype(float)   # many ties
            else:
                logits = rng.normal(size=v)
            forbid = frozenset(rng.choice(v, size=int(rng.integers(0, v)),
                                          replace=False).tolist())
            # k runs past the number of unforbidden ids; with small integer
            # logits a run of ties often straddles the k-th place
            cfg = SampleConfig(k=int(rng.integers(1, v + 3)), forbid=forbid,
                               temperature=float(rng.choice([0.5, 1.0, 2.0])))
            got = top_k_distribution(logits, cfg)
            want = stable_argsort_top_k(logits, cfg)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(SamplingError):
            top_k_distribution(np.array([0.0, bad, 1.0]), SampleConfig(k=1))

    def test_all_masked_rejected(self):
        cfg = SampleConfig(k=2, forbid=frozenset({0, 1, 2}))
        with pytest.raises(SamplingError):
            top_k_sample(np.zeros(3), cfg, np.random.default_rng(0))

    def test_invalid_config(self):
        with pytest.raises(SamplingError):
            SampleConfig(k=0)
        with pytest.raises(SamplingError):
            SampleConfig(temperature=0.0)


class TestGenerate:
    def test_zero_budget_returns_truncated_empty(self, random_params, toy_vocab):
        out = generate(random_params, [toy_vocab.bos_id],
                       SampleConfig(k=1, max_new_tokens=0, seed=0), toy_vocab)
        assert out.token_ids == () and out.text == ""
        assert out.truncated

    def test_reproducible_for_fixed_seed(self, random_params, toy_vocab, catalog):
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        cfg = SampleConfig(k=20, max_new_tokens=30, seed=99)
        a = generate(random_params, prompt, cfg, toy_vocab)
        b = generate(random_params, prompt, cfg, toy_vocab)
        assert a == b

    def test_structural_tokens_never_in_body(self, random_params, toy_vocab, catalog):
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        forbidden = default_forbid(toy_vocab)
        for seed in range(5):
            out = generate(random_params, prompt,
                           SampleConfig(k=toy_vocab.size, max_new_tokens=40,
                                        seed=seed), toy_vocab)
            assert not set(out.token_ids) & forbidden

    def test_context_overflow_flags_truncation(self, toy_vocab, catalog):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=8,
                             context_len=16, vocab_size=toy_vocab.size)
        params = init_params(config, seed=0)
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        cfg = SampleConfig(k=3, max_new_tokens=100, seed=0,
                           forbid=default_forbid(toy_vocab) | {toy_vocab.eos_id})
        out = generate(params, prompt, cfg, toy_vocab)
        assert out.truncated
        assert len(prompt) + len(out.token_ids) == 16

    def test_empty_prompt_rejected(self, random_params, toy_vocab):
        with pytest.raises(SamplingError, match="empty prompt"):
            generate(random_params, [], SampleConfig(seed=0), toy_vocab)

    @pytest.mark.parametrize("k", [1, 20])
    def test_cached_decode_matches_full_recompute(self, toy_vocab, catalog, k):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                             context_len=40, vocab_size=toy_vocab.size)
        params = init_params(config, seed=1, dtype=np.float64)
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        for seed in range(5):
            cfg = SampleConfig(k=k, max_new_tokens=40, seed=seed,
                               forbid=default_forbid(toy_vocab))
            # reference: rerun the whole prefix for every token
            rng, ids = np.random.default_rng(seed), list(prompt)
            while len(ids) < config.context_len:
                nxt = top_k_sample(forward(params, np.asarray([ids]))[0, -1], cfg, rng)
                if nxt == toy_vocab.eos_id:
                    break
                ids.append(nxt)
            out = generate(params, prompt, cfg, toy_vocab)
            assert out.token_ids == tuple(ids[len(prompt):])

    def test_prompt_pass_logits_match_full_forward(self, toy_vocab, catalog,
                                                   monkeypatch):
        import guti.sampler as sampler_mod
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                             context_len=40, vocab_size=toy_vocab.size)
        params = init_params(config, seed=2, dtype=np.float64)
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        seen = []

        def spy(logits, cfg, rng):
            seen.append(np.array(logits))
            return top_k_sample(logits, cfg, rng)

        monkeypatch.setattr(sampler_mod, "top_k_sample", spy)
        generate(params, prompt, SampleConfig(k=5, max_new_tokens=1, seed=0),
                 toy_vocab)
        want = forward(params, np.asarray([prompt]))[0, -1]
        assert seen[0].shape == want.shape
        np.testing.assert_allclose(seen[0], want, rtol=0, atol=1e-12)

    def test_prompt_longer_than_context_rejected(self, toy_vocab):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=8,
                             context_len=4, vocab_size=toy_vocab.size)
        params = init_params(config, seed=0)
        with pytest.raises(SamplingError):
            generate(params, [1, 4, 5, 6, 7], SampleConfig(seed=0), toy_vocab)


class TestGenerateBatch:
    def test_empty_batch(self, random_params, toy_vocab, catalog, table):
        report = generate_batch(random_params, "五绝", "静夜思", 0,
                                SampleConfig(seed=0), toy_vocab, catalog, table)
        assert report.candidates == []
        assert report.well_formed_fraction is None

    def test_fraction_is_exact_count_ratio(self, random_params, toy_vocab,
                                            catalog, table):
        report = generate_batch(random_params, "五绝", "静夜思", 6,
                                SampleConfig(k=20, max_new_tokens=40, seed=5),
                                toy_vocab, catalog, table)
        assert len(report.candidates) == 6
        ok = sum(1 for c in report.candidates if c.well_formed)
        assert report.well_formed_fraction == ok / 6
        # an untrained model emits junk; every candidate still gets a record
        for cand in report.candidates:
            assert cand.report is not None or cand.error

    def test_candidates_ordered_and_seeded(self, random_params, toy_vocab,
                                           catalog, table):
        a = generate_batch(random_params, "五绝", "静夜思", 3,
                           SampleConfig(k=10, max_new_tokens=20, seed=7),
                           toy_vocab, catalog, table)
        b = generate_batch(random_params, "五绝", "静夜思", 3,
                           SampleConfig(k=10, max_new_tokens=20, seed=7),
                           toy_vocab, catalog, table)
        assert [c.index for c in a.candidates] == [0, 1, 2]
        assert [c.text for c in a.candidates] == [c.text for c in b.candidates]

    def test_negative_count_rejected(self, random_params, toy_vocab, catalog, table):
        with pytest.raises(SamplingError, match=">= 0"):
            generate_batch(random_params, "五绝", "静夜思", -2,
                           SampleConfig(seed=0), toy_vocab, catalog, table)


def eos_heavy_params(vocab):
    """An untied model whose EOS logit swings by a few units from step to
    step, so candidates emit EOS at different steps."""
    config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32, context_len=48,
                         vocab_size=vocab.size, tie_embeddings=False)
    params = init_params(config, seed=4)
    params.tensors["out_proj"][:, vocab.eos_id] *= 10.0
    return params


class TestBatchedDecode:
    """generate_batch decodes its n candidates as one batch; each candidate
    must be what a separate generate call with its derived seed gives."""

    @staticmethod
    def logits_by_rng(monkeypatch):
        """Record every logits row top_k_sample sees, per generator."""
        import guti.sampler as sampler_mod
        seen = {}

        def spy(logits, cfg, rng):
            seen.setdefault(id(rng), []).append(np.array(logits, dtype=np.float64))
            return top_k_sample(logits, cfg, rng)

        monkeypatch.setattr(sampler_mod, "top_k_sample", spy)
        return seen

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("model", ["tied", "eos-heavy", "short-context"])
    def test_batch_equals_serial(self, toy_vocab, catalog, table, monkeypatch,
                                 model, k, n):
        if model == "eos-heavy":
            params = eos_heavy_params(toy_vocab)
        else:
            context = 48 if model == "tied" else 18
            params = init_params(ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                                             context_len=context,
                                             vocab_size=toy_vocab.size), seed=3)
        prompt = build_prompt("五绝", "静夜思", catalog, toy_vocab)
        seen = self.logits_by_rng(monkeypatch)
        lengths, truncated = set(), set()
        for seed in range(5):
            cfg = SampleConfig(k=k, max_new_tokens=24, seed=seed)
            seen.clear()
            report = generate_batch(params, "五绝", "静夜思", n, cfg, toy_vocab,
                                    catalog, table)
            batched = list(seen.values())
            assert len(report.candidates) == len(batched) == n
            for cand, batch_logits in zip(report.candidates, batched):
                seen.clear()
                out = generate(params, prompt, replace(cfg, seed=cand.seed), toy_vocab)
                assert encode(cand.body_text, toy_vocab) == list(out.token_ids)
                assert cand.truncated == out.truncated
                assert cand.tokens == len(out.token_ids)
                # float32 logits of a batch row may round differently from
                # the batch-of-one row
                serial_logits = next(iter(seen.values()))
                assert len(batch_logits) == len(serial_logits)
                np.testing.assert_allclose(batch_logits, serial_logits,
                                           rtol=0, atol=1e-5)
                lengths.add(len(out.token_ids))
                truncated.add(out.truncated)
        if model == "eos-heavy" and k > 1 and n > 1:
            # candidates left the batch at different steps, and some ran
            # to the token budget
            assert len(lengths) >= 3 and truncated == {True, False}
        if model == "short-context":
            assert lengths == {params.config.context_len - len(prompt)}
