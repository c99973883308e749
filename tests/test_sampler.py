import json
from dataclasses import replace

import numpy as np
import pytest

from guti import sampler
from guti.cli import main
from guti.corpus import Poem, acrostic_transform, parse_body, read_dataset, serialize
from guti.errors import CorpusError, SamplingError, UnknownFormError
from guti.forms import parse_catalog
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
from guti.trainer import TrainConfig, encode_sample, fine_tune
from guti.vocab import build_vocab, decode, encode, load_vocab


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

    @pytest.mark.parametrize("form_id", ["对联", "武陵春"])
    def test_acrostic_mode_on_a_form_without_variant(self, catalog, wide_vocab, form_id):
        with pytest.raises(SamplingError, match=f"form '{form_id}' has no acrostic variant"):
            build_prompt(form_id, "春秋", catalog, wide_vocab, acrostic=True)

    def test_acrostic_mode_on_an_acrostic_entry_without_form_line(self):
        catalog = parse_catalog("version = 1\n[藏]\nclass = jintishi\n"
                                "markers = acrostic\nlines = 5 5\n")
        poem = Poem(form_id="藏", theme="床疑", body=parse_body("床前明月光，疑是地上霜。"))
        sample = serialize(poem, catalog)
        vocab = build_vocab([sample])
        ids = build_prompt("藏", "床疑", catalog, vocab, acrostic=True)
        assert ids == build_prompt("藏", "床疑", catalog, vocab)
        assert decode(ids, vocab) == sample.prompt == "藏(格式)床疑(藏头诗)"

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

    @pytest.mark.parametrize("raw", [" 静夜、思 ", "床前？", "　秋思"],
                             ids=["spaces-and-comma", "question-mark", "ideographic-space"])
    def test_raw_theme_prompt_is_the_ingested_prefix(self, catalog, tmp_path, raw):
        # ingest strips a theme and maps 、？！ onto ，。: the prompt must match
        corpus = tmp_path / "corpus.jsonl"
        record = {"form": "五绝", "theme": raw,
                  "body": "床前明月光，疑是地上霜。举头望明月，低头思故乡。"}
        corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["ingest", str(corpus), "-o", str(tmp_path / "ds")]) == 0
        [sample] = read_dataset(tmp_path / "ds" / "dataset.jsonl", catalog)
        vocab = load_vocab(tmp_path / "ds" / "vocab.txt")
        ids = build_prompt("五绝", raw, catalog, vocab)
        assert vocab.unk_id not in ids
        assert encode_sample(sample, vocab)[:len(ids)] == ids

    @pytest.mark.parametrize("theme", ["秋(标题)思", "春\r夏", "秋\udfff"],
                             ids=["marker", "line-break", "surrogate"])
    def test_poem_and_prompt_refuse_a_theme_alike(self, catalog, toy_vocab, theme):
        with pytest.raises(CorpusError) as poem_exc:
            Poem("五绝", theme, parse_body("床前明月光。"))
        with pytest.raises(SamplingError) as prompt_exc:
            build_prompt("五绝", theme, catalog, toy_vocab)
        assert str(prompt_exc.value) == str(poem_exc.value)

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
        for k in (1, 2):        # the greedy draw and the sampled one
            cfg = SampleConfig(k=k, forbid=frozenset())
            for row in (np.array([0.0, bad, 1.0]), np.array([bad, 0.0, 1.0], np.float32)):
                with pytest.raises(SamplingError, match="^non-finite logits$"):
                    top_k_distribution(row, cfg)
                with pytest.raises(SamplingError, match="^non-finite logits$"):
                    top_k_sample(row, cfg, np.random.default_rng(0))
            # a forbidden id is masked before the check
            assert top_k_sample(np.array([0.0, bad, 1.0]), replace(cfg, forbid=frozenset({1})),
                                np.random.default_rng(0)) in {0, 2}

    def test_all_masked_rejected(self):
        rng = np.random.default_rng(0)
        for k in (1, 2):
            for forbid, row in (({0, 1, 2}, np.zeros(3)),
                                ({0}, np.array([5.0, -np.inf, -np.inf]))):
                with pytest.raises(SamplingError, match="^every token is masked$"):
                    top_k_sample(row, SampleConfig(k=k, forbid=frozenset(forbid)), rng)

    def test_greedy_draw_at_decode_shape(self):
        """At k=1 the draw is the masked row's first highest id, the first
        candidate of the stable-sort reference, and it leaves the generator
        where ``Generator.choice`` over that one candidate leaves it: float32
        rows of a decode step's size, with runs of ties at the top, -inf
        entries and forbid sets."""
        rng = np.random.default_rng(1)
        v, tied = 876, 0
        for trial in range(200):
            logits = (rng.normal(size=v) * 3).astype(np.float32)
            if trial % 2:       # coarse values: the top is often a tie
                logits = np.round(logits)
            logits[rng.choice(v, size=int(rng.integers(0, 40)), replace=False)] = -np.inf
            forbid = rng.choice(v, size=int(rng.choice([0, 8, 200, v - 10])), replace=False)
            cfg = SampleConfig(k=1, forbid=frozenset(forbid.tolist()),
                               temperature=float(rng.choice([0.5, 1.0, 2.0])))
            candidates, p = stable_argsort_top_k(logits, cfg)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            drawn = top_k_sample(logits, cfg, ours)
            assert drawn == candidates[0] == theirs.choice(candidates, p=p)
            assert ours.bit_generator.state == theirs.bit_generator.state
            masked = np.array(logits, np.float64)
            masked[list(cfg.forbid)] = -np.inf
            tied += int(np.sum(masked == masked.max())) > 1
        assert tied

    def test_invalid_config(self):
        with pytest.raises(SamplingError):
            SampleConfig(k=0)
        for temperature in (0.0, float("nan")):    # NaN sampled greedily
            with pytest.raises(SamplingError, match="temperature must be > 0"):
                SampleConfig(temperature=temperature)
        # a float or bool count used to pass here and fail later as a raw
        # TypeError in the partition, the decode budget or default_rng
        for name, bad in [("k", 2.5), ("max_new_tokens", 3.5), ("seed", 1.5),
                          ("k", True), ("max_new_tokens", False), ("seed", "3")]:
            with pytest.raises(SamplingError, match=f"^{name} must be an integer, not"):
                SampleConfig(**{name: bad})
        cfg = SampleConfig(k=np.int64(3), max_new_tokens=np.int32(4), seed=np.uint8(5))
        assert (cfg.k, cfg.max_new_tokens, cfg.seed) == (3, 4, 5)

    def test_negative_seed_rejected(self):
        # numpy's default_rng takes no negative seed
        with pytest.raises(SamplingError, match="seed must be >= 0"):
            SampleConfig(seed=-1)
        assert SampleConfig(seed=0).seed == 0

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integral_forbid_id_rejected(self, bad):
        # {1.5, True} used to become the index array [1 1]: id 1 masked
        with pytest.raises(SamplingError, match=f"^forbid_id must be an integer, not {bad}$"):
            SampleConfig(forbid=frozenset({bad}))
        assert SampleConfig(forbid=frozenset({np.int64(3)})).forbid_ids.tolist() == [3]


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

    @pytest.mark.parametrize("extra", [-1, 3], ids=["negative", "past-vocab"])
    def test_forbid_outside_vocab_rejected(self, random_params, toy_vocab, monkeypatch,
                                           extra):
        """An out-of-range forbid id is named before the prompt pass runs:
        -1 would mask the last id, and an id past V would fail to index."""
        import guti.sampler as sampler_mod
        size = random_params.config.vocab_size
        bad = extra if extra < 0 else size + extra
        monkeypatch.setattr(sampler_mod, "forward", None)    # no prompt pass
        cfg = SampleConfig(seed=0, forbid=default_forbid(toy_vocab) | {bad})
        with pytest.raises(SamplingError, match=rf"^forbid ids outside the vocabulary "
                                                rf"\[0, {size}\): \[{bad}\]$"):
            generate(random_params, [toy_vocab.bos_id], cfg, toy_vocab)

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

    @pytest.mark.parametrize("theme, message", [
        ("春\n夏", "theme contains a line break"),
        ("秋\ud800", "theme contains a lone surrogate"),
    ], ids=["line-break", "surrogate"])
    def test_refused_theme_raises_before_any_decode(
            self, monkeypatch, random_params, toy_vocab, catalog, table, theme, message):
        decodes = []
        monkeypatch.setattr(sampler, "_decode", lambda *args: decodes.append(args) or [])
        with pytest.raises(SamplingError, match=f"^{message}$"):
            build_prompt("五绝", theme, catalog, toy_vocab)
        with pytest.raises(SamplingError, match=f"^{message}$"):
            generate_batch(random_params, "五绝", theme, 2,
                           SampleConfig(seed=0), toy_vocab, catalog, table)
        assert decodes == []

    def test_negative_count_rejected(self, random_params, toy_vocab, catalog, table):
        with pytest.raises(SamplingError, match=">= 0"):
            generate_batch(random_params, "五绝", "静夜思", -2,
                           SampleConfig(seed=0), toy_vocab, catalog, table)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integral_count_rejected(self, random_params, toy_vocab, catalog, table,
                                         n):
        # 2.5 failed in range() as a raw TypeError, and True decoded one candidate
        with pytest.raises(SamplingError, match=f"^n must be an integer, not {n}$"):
            generate_batch(random_params, "五绝", "静夜思", n,
                           SampleConfig(seed=0), toy_vocab, catalog, table)


def eos_heavy_params(vocab):
    """A model whose EOS logit swings by a few units from step to step, so
    candidates emit EOS at different steps.  No prompt feeds EOS as input,
    so the scaled row reaches the output head only."""
    config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32, context_len=48,
                         vocab_size=vocab.size)
    params = init_params(config, seed=4)
    params.tensors["tok_emb"][vocab.eos_id] *= 10.0
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


@pytest.fixture(scope="module")
def trained_run(toy_samples, toy_vocab):
    """(params, TrainReport) of 60 steps on the toy corpus: 1 layer, d=64,
    lr 3e-3, seed 2."""
    config = ModelConfig(n_layers=1, n_heads=2, d_model=64, d_ff=128, context_len=96,
                         vocab_size=toy_vocab.size)
    cfg = TrainConfig(learning_rate=3e-3, max_steps=60, warmup_steps=10,
                      checkpoint_interval=0, heldout_fraction=0.0, seed=2)
    return fine_tune(list(toy_samples), toy_vocab, init_params(config, seed=2), cfg)


def pinned_decodes(toy_vocab, catalog, table, trained):
    """The decodes the goldens pin: one prompt, one prompt's four candidates,
    and three prompts of different lengths, sampled at k=20 and greedily,
    from a random model and from the ``trained_run`` params ``trained``."""
    params = init_params(ModelConfig(vocab_size=toy_vocab.size), seed=0)
    cfg = SampleConfig(k=20, max_new_tokens=40, seed=3)
    prompts = [build_prompt("五绝", "静夜思", catalog, toy_vocab),
               build_prompt("七律", "春", catalog, toy_vocab),
               build_prompt("五绝", "春夏秋冬", catalog, toy_vocab, acrostic=True)]
    seeds = [[11, 12], [13], [14, 15, 16]]
    return {
        "generate": lambda: generate(params, prompts[0], cfg, toy_vocab),
        "generate_batch": lambda: generate_batch(params, "五绝", "静夜思", 4, cfg,
                                                 toy_vocab, catalog, table),
        "ragged": lambda: _decode(params, prompts, seeds, cfg, toy_vocab),
        "greedy": lambda: _decode(params, prompts, seeds, replace(cfg, k=1), toy_vocab),
        "trained": lambda: _decode(trained, prompts, seeds, cfg, toy_vocab),
        "trained_greedy": lambda: _decode(trained, prompts, seeds, replace(cfg, k=1),
                                          toy_vocab),
    }


# recorded before the decode step and the top-k draw were rewritten with
# fewer numpy calls: the arithmetic is the same, so the bits are too.  The
# greedy digest was recorded before a k=1 draw became one masked argmax
DECODE_GOLDEN = {
    "generate": "69fabc690e993fe6a2a38759ae32b134b641071e18f86d771283b80c8d036a51",
    "generate_batch": "e0a89ba63f72b3e30ec3c93026b154b554554426d64cf70179f9277233cb547c",
    "ragged": "6344e124d766527d897177b1fb7ee10126a4d976200f9b478e82aefc7922fbf6",
    "greedy": "836a3b7279002b9ff2224ed4dd67b268099228ebc54c7781360b767bfa7d0420",
}


@pytest.mark.parametrize("case", sorted(DECODE_GOLDEN))
def test_decode_bits_pinned(toy_vocab, catalog, table, trained_run, monkeypatch, case,
                            golden_build):
    decode = pinned_decodes(toy_vocab, catalog, table, trained_run[0])[case]
    assert pinned_digest(decode, monkeypatch) == DECODE_GOLDEN[case], golden_build


# The ids each candidate of a pinned decode draws, EOS included, candidate
# by candidate.  Unlike the digests they hold on any BLAS kernel whose
# logits round close enough to these: they were the same under OpenBLAS's
# SkylakeX, Haswell and Sandybridge kernels.  The closest calls: the k-th
# and (k+1)-th highest logits 5.4e-6 apart (generate_batch), a gap the three
# kernels move by 2e-7 at most; a uniform draw 8.6e-5 from an edge of its
# cumulative distribution (ragged); the greedy top two logits 8.6e-3 apart.
# From the trained model: the 20th and 21st logits 3.4e-4 apart, a gap the
# kernels move by 5e-7 at most, a draw 2.7e-4 from a CDF edge (trained); the
# greedy top two 3.1e-2 apart (trained_greedy).
DECODE_IDS = {
    "generate": [
        [26, 229, 95, 117, 239, 163, 238, 186, 105, 159, 48, 117, 225, 121, 237, 72, 72, 139,
         225, 24, 24, 66, 165, 24, 125, 178, 176, 50, 178, 180, 100, 30, 174, 66, 190, 206,
         193, 117, 106, 156],
    ],
    "generate_batch": [
        [19, 47, 170, 48, 238, 176, 165, 114, 65, 229, 209, 19, 120, 65, 72, 165, 170, 134, 48,
         238, 18, 116, 177, 177, 160, 139, 107, 125, 219, 37, 165, 206, 24, 165, 109, 140, 145,
         26, 239, 98],
        [210, 176, 19, 75, 165, 24, 64, 238, 224, 81, 190, 37, 176, 165, 135, 165, 165, 109,
         37, 202, 165, 165, 159, 138, 26, 178, 148, 102, 58, 166, 162, 24, 178, 148, 116, 116,
         109, 206, 86, 106],
        [210, 171, 159, 225, 238, 18, 159, 176, 190, 128, 238, 26, 178, 157, 159, 75, 36, 30,
         66, 105, 159, 165, 30, 200, 219, 156, 56, 138, 56, 165, 148, 84, 24, 176, 52, 30, 69,
         187, 117, 110],
        [229, 159, 19, 2],
    ],
    "ragged": [
        [204, 73, 239, 239, 40, 64, 81, 36, 64, 200, 196, 42, 42, 55, 72, 163, 91, 34, 191,
         219, 190, 200, 36, 20, 160, 206, 20, 69, 192, 227, 194, 125, 52, 239, 215, 215, 58,
         58, 105, 182],
        [159, 67, 20, 161, 176, 26, 81, 75, 65, 24, 30, 31, 229, 95, 178, 52, 105, 190, 48, 36,
         225, 239, 34, 171, 159, 75, 111, 52, 165, 26, 178, 135, 206, 219, 159, 52, 156, 135,
         106, 190],
        [85, 173, 83, 173, 159, 40, 66, 165, 133, 75, 75, 205, 165, 37, 134, 135, 187, 187,
         156, 239, 219, 156, 52, 165, 73, 212, 226, 133, 219, 159, 165, 30, 107, 140, 167, 165,
         109, 85, 85, 120],
        [72, 159, 239, 139, 157, 178, 200, 116, 178, 20, 231, 231, 219, 36, 127, 24, 92, 157,
         119, 178, 37, 107, 178, 171, 157, 30, 123, 75, 207, 207, 202, 2],
        [159, 114, 40, 225, 190, 148, 219, 123, 171, 53, 84, 219, 105, 182, 30, 67, 225, 24,
         90, 46, 150, 216, 200, 120, 216, 52, 200, 54, 116, 209, 165, 218, 218, 10, 190, 200,
         159, 200, 200, 159],
        [49, 134, 134, 159, 19, 165, 72, 135, 135, 44, 44, 42, 159, 200, 162, 91, 218, 165,
         135, 44, 172, 162, 219, 148, 148, 222, 207, 200, 116, 135, 218, 165, 187, 206, 148,
         106, 171, 2],
    ],
    "greedy": [
        [178, 178, 178, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 225,
         225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 193,
         193, 106, 106],
        [178, 178, 178, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 225,
         225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 225, 193,
         193, 106, 106],
        [127, 127, 178, 178, 178, 48, 204, 204, 204, 19, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165],
        [206, 159, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165],
        [206, 159, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165],
        [206, 159, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165, 165,
         165, 165, 165, 165, 165, 165],
    ],
    "trained": [
        [45, 40, 27, 27, 131, 93, 10, 51, 97, 10, 45, 48, 117, 123, 9, 189, 21, 216, 19, 15, 165,
         17, 10, 28, 43, 43, 69, 151, 123, 9, 9, 92, 17, 65, 65, 131, 48, 44, 10, 64],
        [25, 149, 50, 13, 19, 38, 90, 90, 128, 17, 14, 157, 9, 2],
        [62, 83, 170, 60, 60, 157, 96, 115, 10, 18, 56, 28, 14, 125, 94, 109, 9, 2],
        [74, 10, 49, 46, 17, 25, 77, 100, 30, 71, 44, 9, 189, 37, 37, 62, 124, 87, 51, 10, 28, 110,
         206, 110, 78, 20, 174, 9, 138, 21, 75, 82, 57, 24, 39, 10, 74, 43, 152, 141],
        [36, 44, 46, 10, 97, 97, 69, 9, 40, 119, 21, 111, 42, 22, 22, 70, 70, 188, 115, 15, 141,
         12, 9, 24, 52, 146, 13, 9, 38, 188, 14, 17, 17, 45, 180, 10, 106, 106, 47, 40],
        [10, 62, 10, 10, 47, 47, 79, 116, 60, 42, 42, 9, 24, 26, 162, 159, 14, 14, 99, 10, 41, 89,
         55, 181, 49, 49, 95, 9, 111, 56, 56, 22, 136, 30, 124, 19, 196, 52, 71, 27],
    ],
    "trained_greedy": [
        [44, 44, 163, 163, 163, 163, 10, 113, 31, 31, 31, 31, 31, 31, 9, 2],
        [44, 44, 163, 163, 163, 163, 10, 113, 31, 31, 31, 31, 31, 31, 9, 2],
        [23, 16, 16, 141, 141, 15, 209, 29, 10, 138, 21, 21, 21, 142, 69, 69, 9, 2],
        [130, 23, 49, 10, 10, 28, 28, 43, 43, 43, 43, 9, 2],
        [130, 23, 49, 10, 10, 28, 28, 43, 43, 43, 43, 9, 2],
        [130, 23, 49, 10, 10, 28, 28, 43, 43, 43, 43, 9, 2],
    ],
}


@pytest.mark.parametrize("case", sorted(DECODE_IDS))
def test_decode_ids_pinned(toy_vocab, catalog, table, trained_run, monkeypatch, case):
    import guti.sampler as sampler_mod
    drawn = {}

    def spy(logits, cfg, rng):
        nxt = top_k_sample(logits, cfg, rng)
        drawn.setdefault(id(rng), []).append(nxt)
        return nxt

    monkeypatch.setattr(sampler_mod, "top_k_sample", spy)
    pinned_decodes(toy_vocab, catalog, table, trained_run[0])[case]()
    assert list(drawn.values()) == DECODE_IDS[case]


# trained_run's loss at each step, to 7 significant digits.  The SkylakeX,
# Haswell and Sandybridge kernels put them at most 1.2e-7 apart, relative;
# the tolerance is 1e-5.
TRAINED_STEP_LOSSES = [
    5.487264, 5.48519, 5.462428, 5.380774, 5.347211, 5.299284, 5.241933, 5.215425, 5.153982,
    5.113405, 5.04799, 4.986569, 4.941895, 4.865308, 4.841753, 4.78083, 4.704336, 4.678042,
    4.614233, 4.53352, 4.501053, 4.464186, 4.387752, 4.349328, 4.303012, 4.216836, 4.186102,
    4.181358, 4.113555, 4.068302, 4.014044, 3.948714, 3.938212, 3.927166, 3.838704, 3.833453,
    3.799169, 3.758558, 3.714142, 3.704485, 3.661622, 3.618089, 3.581869, 3.573761, 3.52291,
    3.493386, 3.487067, 3.40857, 3.379716, 3.387518, 3.306532, 3.282324, 3.295026, 3.252858,
    3.202634, 3.15656, 3.126236, 3.0345, 3.103408, 3.047669,
]


def test_trained_step_losses_pinned(trained_run):
    np.testing.assert_allclose(trained_run[1].step_losses, TRAINED_STEP_LOSSES,
                               rtol=1e-5, atol=0)
