from dataclasses import replace

import numpy as np
import pytest

from guti.corpus import acrostic_transform, serialize
from guti.errors import SamplingError, UnknownFormError
from guti.model import ModelConfig, ModelParams, forward, init_params
from guti.sampler import (
    SampleConfig,
    _decode,
    build_prompt,
    default_forbid,
    generate,
    generate_batch,
    top_k_distribution,
    top_k_sample,
)
from guti.trainer import encode_sample
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

    def test_prompt_is_the_training_prefix(self, catalog, fixture_poems):
        twins = [acrostic_transform(p, catalog) for p in fixture_poems
                 if catalog.resolve(p.form_id).acrostic_id is not None]
        samples = [serialize(p, catalog) for p in list(fixture_poems) + twins]
        vocab = build_vocab(samples)
        for poem, sample in zip(list(fixture_poems) + twins, samples):
            ids = build_prompt(poem.form_id, poem.theme, catalog, vocab)
            assert encode_sample(sample, vocab)[:len(ids)] == ids
        assert twins
        for twin in twins:
            plain = next(p for p in fixture_poems if p.source_id == twin.source_id)
            assert (build_prompt(plain.form_id, twin.theme, catalog, vocab, acrostic=True)
                    == build_prompt(twin.form_id, twin.theme, catalog, vocab))

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

    @pytest.mark.parametrize("seed", range(4))
    def test_draw_equals_generator_choice(self, seed):
        # the inverse-CDF draw must pick what Generator.choice picks and leave
        # the generator where choice leaves it
        logits = np.random.default_rng(100 + seed).normal(size=40) * 3
        for k in (1, 2, 20, logits.size):
            for temperature in (1.0, 0.7):
                cfg = SampleConfig(k=k, temperature=temperature)
                ours, theirs = (np.random.default_rng(seed) for _ in range(2))
                candidates, p = top_k_distribution(logits, cfg)
                for _ in range(300):
                    assert top_k_sample(logits, cfg, ours) == int(
                        theirs.choice(candidates, p=p))
                assert ours.bit_generator.state == theirs.bit_generator.state

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

    @pytest.mark.parametrize("k", [1, 20, 876])
    def test_matches_stable_argsort_reference_at_decode_shape(self, k):
        """Float32 rows of a decode step's size, with ties across the k-th
        place, -inf entries and forbid sets, some leaving fewer than k ids."""
        rng = np.random.default_rng(k)
        v, straddled = 876, 0
        for trial in range(60):
            logits = (rng.normal(size=v) * 3).astype(np.float32)
            if trial % 2:       # coarse values: runs of ties
                logits = np.round(logits)
            logits[rng.choice(v, size=int(rng.integers(0, 40)), replace=False)] = -np.inf
            size = int(rng.choice([0, 8, 200, v - 10]))
            cfg = SampleConfig(k=k, forbid=frozenset(rng.choice(v, size=size, replace=False).tolist()),
                               temperature=float(rng.choice([0.5, 1.0, 2.0])))
            got = top_k_distribution(logits, cfg)
            want = stable_argsort_top_k(logits, cfg)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            masked = np.array(logits, dtype=np.float64)
            masked[list(cfg.forbid)] = -np.inf
            ranked = np.sort(masked)[::-1]
            straddled += k < v and ranked[k - 1] == ranked[k] > -np.inf
        assert straddled or k == v

    def test_tiny_temperature_gives_the_greedy_limit(self):
        """logits / temperature overflows: the ids tied at the top share the
        mass, with no NaN and no warning."""
        cfg = SampleConfig(k=3, temperature=1e-320)
        candidates, p = top_k_distribution([0.5, 2, 1, -1], cfg)
        assert candidates.tolist() == [1, 2, 0] and p.tolist() == [1.0, 0.0, 0.0]
        logits = np.array([2.0, 0.5, 2.0, -1.0])
        candidates, p = top_k_distribution(logits, cfg)
        assert candidates.tolist() == [0, 2, 1] and p.tolist() == [0.5, 0.5, 0.0]
        rng = np.random.default_rng(0)
        assert {top_k_sample(logits, cfg, rng) for _ in range(200)} == {0, 2}
        # a temperature whose scaled logits stay finite keeps the plain formula
        cfg = SampleConfig(k=3, temperature=1e-300, forbid=frozenset())
        assert np.array_equal(top_k_distribution(logits, cfg)[1],
                              stable_argsort_top_k(logits, cfg)[1])

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
        for temperature in (0.0, float("nan")):    # NaN sampled greedily
            with pytest.raises(SamplingError, match="temperature must be > 0"):
                SampleConfig(temperature=temperature)


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
        # weights 8x the init scale, so that attention over the cached
        # positions, not the newest token alone, picks each greedy token
        params = init_params(config, seed=1, dtype=np.float64)
        params = ModelParams(config, {name: t * 8 if t.ndim == 2 else t
                                      for name, t in params.tensors.items()})
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

    @pytest.mark.parametrize("theme, acrostic, prompt", [
        ("龘月", False, "五绝(格式)龘月(标题)"),
        ("春夏秋冬", True, "五言绝句(格式)春夏秋冬(藏头诗)"),
    ], ids=["theme", "acrostic"])
    def test_candidate_text_starts_with_the_prompt_asked_for(
            self, random_params, toy_vocab, catalog, table, theme, acrostic, prompt):
        # the prompt holds characters the vocabulary lacks: they encode as UNK
        assert toy_vocab.unk_id in build_prompt("五绝", theme, catalog, toy_vocab,
                                                acrostic=acrostic)
        report = generate_batch(random_params, "五绝", theme, 4,
                                SampleConfig(k=5, max_new_tokens=20, seed=3),
                                toy_vocab, catalog, table, acrostic=acrostic)
        for cand in report.candidates:
            assert cand.text == prompt + cand.body_text
            if cand.poem is not None:
                assert cand.poem.theme == theme
            else:
                assert "unknown form" not in cand.error

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

    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("model", ["eos-heavy", "short-context"])
    def test_ragged_prompts_equal_each_prompt_alone(self, toy_vocab, catalog,
                                                    monkeypatch, model, k):
        """Prompts of different lengths share the prompt pass and every
        step; each candidate decodes what its prompt alone decodes."""
        cfg = SampleConfig(k=k, max_new_tokens=24, seed=0)
        if model == "eos-heavy":
            params = eos_heavy_params(toy_vocab)
        else:       # no EOS: every candidate runs to its prompt's budget
            params = init_params(ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                                             context_len=18,
                                             vocab_size=toy_vocab.size), seed=3)
            cfg = replace(cfg, forbid=default_forbid(toy_vocab) | {toy_vocab.eos_id})
        prompts = [build_prompt("五绝", "静夜思", catalog, toy_vocab),
                   build_prompt("七律", "春", catalog, toy_vocab),
                   build_prompt("五绝", "春夏秋冬", catalog, toy_vocab, acrostic=True)]
        assert len({len(p) for p in prompts}) == 3
        seeds = [[11, 12], [13], [14, 15, 16]]
        seen = self.logits_by_rng(monkeypatch)
        lengths, truncated = set(), set()
        for base in range(3):
            seen.clear()
            outs = _decode(params, prompts, [[base + s for s in row] for row in seeds],
                           cfg, toy_vocab)
            batched = iter(list(seen.values()))
            assert len(outs) == 6
            outs = iter(outs)
            for prompt, row in zip(prompts, seeds):
                for seed, got in zip(row, outs):
                    batch_logits = next(batched)
                    seen.clear()
                    out = generate(params, prompt, replace(cfg, seed=base + seed), toy_vocab)
                    assert got == out
                    serial_logits = next(iter(seen.values()))
                    assert len(batch_logits) == len(serial_logits)
                    np.testing.assert_allclose(batch_logits, serial_logits,
                                               rtol=0, atol=1e-5)
                    lengths.add(len(out.token_ids))
                    truncated.add(out.truncated)
        if model == "eos-heavy" and k > 1:
            assert len(lengths) >= 3 and truncated == {True, False}
        if model == "short-context":
            # each prompt stops at its own budget, the context it leaves
            assert lengths == {params.config.context_len - len(p) for p in prompts}


def pinned_digest(decode, monkeypatch):
    """sha256 of every logits row top_k_sample sees, as it sees it (float32
    here), and the id it draws from that row, in call order."""
    import hashlib

    import guti.sampler as sampler_mod
    digest = hashlib.sha256()

    def spy(logits, cfg, rng):
        nxt = top_k_sample(logits, cfg, rng)
        assert logits.dtype == np.float32
        digest.update(np.ascontiguousarray(logits).tobytes())
        digest.update(np.int64(nxt).tobytes())
        return nxt

    monkeypatch.setattr(sampler_mod, "top_k_sample", spy)
    decode()
    return digest.hexdigest()


# recorded before the decode step and the top-k draw were rewritten with
# fewer numpy calls: the arithmetic is the same, so the bits are too
DECODE_GOLDEN = {
    "generate": "69fabc690e993fe6a2a38759ae32b134b641071e18f86d771283b80c8d036a51",
    "generate_batch": "e0a89ba63f72b3e30ec3c93026b154b554554426d64cf70179f9277233cb547c",
    "ragged": "6344e124d766527d897177b1fb7ee10126a4d976200f9b478e82aefc7922fbf6",
}


@pytest.mark.parametrize("case", sorted(DECODE_GOLDEN))
def test_decode_bits_pinned(toy_vocab, catalog, table, monkeypatch, case):
    params = init_params(ModelConfig(vocab_size=toy_vocab.size), seed=0)
    cfg = SampleConfig(k=20, max_new_tokens=40, seed=3)
    prompts = [build_prompt("五绝", "静夜思", catalog, toy_vocab),
               build_prompt("七律", "春", catalog, toy_vocab),
               build_prompt("五绝", "春夏秋冬", catalog, toy_vocab, acrostic=True)]
    decode = {
        "generate": lambda: generate(params, prompts[0], cfg, toy_vocab),
        "generate_batch": lambda: generate_batch(params, "五绝", "静夜思", 4, cfg,
                                                 toy_vocab, catalog, table),
        "ragged": lambda: _decode(params, prompts, [[11, 12], [13], [14, 15, 16]],
                                  cfg, toy_vocab),
    }[case]
    assert pinned_digest(decode, monkeypatch) == DECODE_GOLDEN[case]
