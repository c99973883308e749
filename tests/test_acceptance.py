"""End-to-end acceptance suite.

Each test pins one acceptance property of the pipeline at a fixed
tolerance and prints a one-line PASS/FAIL verdict (run pytest with -s to
stream them).  The two overfit training runs are shared module-scoped
fixtures; the whole module takes a few minutes on a CPU.
"""

import math
import time

import numpy as np
import pytest

from guti.corpus import acrostic_transform, deserialize, serialize
from guti.model import (
    ModelConfig,
    SequenceBatch,
    backward,
    forward,
    init_params,
    load_checkpoint,
    nll_loss,
    save_checkpoint,
)
from guti.sampler import SampleConfig, build_prompt, generate, generate_batch, top_k_sample
from guti.trainer import NoveltyIndex, TrainConfig, fine_tune, novelty_score
from guti.validator import check_pairing, validate
from guti.vocab import build_vocab, decode, encode


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)   # run pytest with -s to stream the verdicts
    assert ok, line


# ---------------------------------------------------------------------------
# Shared overfit runs: one on plain samples, one on acrostic-transformed.
# ---------------------------------------------------------------------------

RUN_MODEL = dict(n_layers=1, n_heads=2, d_model=64, d_ff=128,
                 context_len=96, dropout_rate=0.0)
RUN_TRAIN = dict(learning_rate=2e-3, batch_size=16, max_steps=1200,
                 warmup_steps=100, checkpoint_interval=300,
                 novelty_eval_interval=0, heldout_fraction=0.0)


@pytest.fixture(scope="module")
def toy_vocab(toy_poems, toy_samples, catalog):
    acro = [serialize(acrostic_transform(p, catalog), catalog) for p in toy_poems]
    return build_vocab(list(toy_samples) + acro)


@pytest.fixture(scope="module")
def overfit_plain(toy_samples, toy_vocab):
    config = ModelConfig(vocab_size=toy_vocab.size, **RUN_MODEL)
    cfg = TrainConfig(seed=7, **RUN_TRAIN)
    params, report = fine_tune(list(toy_samples), toy_vocab,
                               init_params(config, seed=1), cfg)
    return params, report


@pytest.fixture(scope="module")
def overfit_acrostic(toy_poems, toy_vocab, catalog):
    samples = [serialize(acrostic_transform(p, catalog), catalog)
               for p in toy_poems]
    config = ModelConfig(vocab_size=toy_vocab.size, **RUN_MODEL)
    cfg = TrainConfig(seed=8, **RUN_TRAIN)
    params, report = fine_tune(samples, toy_vocab,
                               init_params(config, seed=2), cfg)
    return params, report


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

GRAD_CONFIGS = [
    (0, ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=12, context_len=8,
                    vocab_size=10, dropout_rate=0.0)),
    (1, ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=16, context_len=8,
                    vocab_size=12, dropout_rate=0.0)),
    (2, ModelConfig(n_layers=1, n_heads=1, d_model=12, d_ff=20, context_len=8,
                    vocab_size=9, dropout_rate=0.0)),
]


def test_c1_gradient_correctness():
    started = time.time()
    worst = 0.0
    h = 1e-4
    for seed, config in GRAD_CONFIGS:
        params = init_params(config, seed=seed + 10, dtype=np.float64)
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, config.vocab_size, size=(2, 6))
        mask = np.zeros((2, 6))
        mask[:, 1:] = 1.0
        batch = SequenceBatch(tokens=tokens, loss_mask=mask)
        _, grads = backward(params, batch)
        for name, arr in params.tensors.items():
            fd = np.zeros_like(arr)
            flat, fdf = arr.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = nll_loss(forward(params, tokens), batch)
                flat[i] = orig - h
                lm = nll_loss(forward(params, tokens), batch)
                flat[i] = orig
                fdf[i] = (lp - lm) / (2 * h)
            num = np.linalg.norm(fd - grads[name])
            den = max(np.linalg.norm(fd), np.linalg.norm(grads[name]), 1e-12)
            rel = num / den
            worst = max(worst, rel)
            assert rel < 1e-3, f"seed {seed} tensor {name}: rel err {rel:.2e}"
    elapsed = time.time() - started
    verdict("C1 gradient-vs-finite-difference", worst < 1e-3 and elapsed < 60,
            f"worst rel err {worst:.2e} over 3 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Loss oracle
# ---------------------------------------------------------------------------

def test_c2_loss_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(5):
        b, s, v = 2, 6, 5
        tokens = rng.integers(0, v, size=(b, s))
        mask = np.zeros((b, s))
        mask[:, 1:] = rng.integers(0, 2, size=(b, s - 1))
        mask[0, 1] = 1
        logits = rng.normal(size=(b, s, v)) * 3
        batch = SequenceBatch(tokens=tokens, loss_mask=mask)
        total, count = 0.0, 0.0
        for bi in range(b):
            for t in range(s):
                if mask[bi, t]:
                    row = np.exp(logits[bi, t - 1])
                    total += -np.log(row[tokens[bi, t]] / row.sum()) * mask[bi, t]
                    count += mask[bi, t]
        worst = max(worst, abs(nll_loss(logits, batch) - total / count))
    uniform = SequenceBatch(tokens=np.array([[1, 2, 0]]),
                            loss_mask=np.array([[0, 1, 1]]))
    uniform_err = abs(nll_loss(np.full((1, 3, 7), 1.25), uniform) - math.log(7))
    verdict("C2 loss-oracle", worst < 1e-10 and uniform_err < 1e-9,
            f"brute-force gap {worst:.1e}, uniform-logit gap {uniform_err:.1e}")


# ---------------------------------------------------------------------------
# 3. Causality
# ---------------------------------------------------------------------------

def test_c3_causality():
    config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                         context_len=12, vocab_size=11, dropout_rate=0.0)
    rng = np.random.default_rng(5)
    trials = 0
    for draw in range(5):
        params = init_params(config, seed=draw, dtype=np.float64)
        for _ in range(20):
            s = int(rng.integers(3, 11))
            tokens = rng.integers(0, 11, size=(1, s))
            j = int(rng.integers(1, s))
            perturbed = tokens.copy()
            perturbed[0, j:] = (perturbed[0, j:] + 1 + rng.integers(0, 9)) % 11
            base = forward(params, tokens)
            out = forward(params, perturbed)
            assert np.array_equal(base[0, :j], out[0, :j]), f"trial {trials}"
            trials += 1
    verdict("C3 causal-masking", trials == 100,
            f"{trials} perturbation trials, prefix logits bit-identical")


# ---------------------------------------------------------------------------
# 4. Overfit sanity: NLL < 0.1, greedy retrieval, novelty 0
# ---------------------------------------------------------------------------

def test_c4_overfit_retrieval(overfit_plain, toy_poems, toy_samples, toy_vocab,
                              catalog, table):
    params, report = overfit_plain
    final_loss = report.intervals[-1]["train_loss"]
    assert report.steps_run <= 2000
    index = NoveltyIndex.from_samples(list(toy_samples))
    cfg = SampleConfig(k=1, max_new_tokens=80, seed=0)
    reproduced = 0
    for poem, sample in zip(toy_poems, toy_samples):
        prompt = build_prompt(poem.form_id, poem.theme, catalog, toy_vocab)
        out = generate(params, prompt, cfg, toy_vocab)
        if out.text != sample.fields()["body"]:
            continue
        regen = deserialize(sample.text[:sample.field_spans["id2"][1]] + out.text,
                            catalog)
        if novelty_score(regen, index).score == 0.0:
            reproduced += 1
    batch_report = generate_batch(params, toy_poems[0].form_id,
                                  toy_poems[0].theme, 5, cfg, toy_vocab,
                                  catalog, table)
    smoothed = report.smoothed_losses(window=10)
    max_rise = max((b - a for a, b in zip(smoothed, smoothed[1:])), default=0.0)
    ok = (final_loss < 0.1 and reproduced == len(toy_poems)
          and batch_report.well_formed_fraction == 1.0 and max_rise < 0.01)
    verdict("C4 overfit-retrieval", ok,
            f"train NLL {final_loss:.3f} after {report.steps_run} steps, "
            f"greedy reproduction {reproduced}/{len(toy_poems)}, novelty 0, "
            f"well-formed fraction {batch_report.well_formed_fraction}, "
            f"smoothed loss never rises more than {max_rise:.4f}")


# ---------------------------------------------------------------------------
# 5. Top-k sampler statistics
# ---------------------------------------------------------------------------

def test_c5_sampler_statistics():
    logits = np.array([3.0, 2.0, 1.0, 0.0])
    cfg = SampleConfig(k=2, seed=0)
    rng = np.random.default_rng(12345)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[top_k_sample(logits, cfg, rng)] += 1
    assert counts[2] == 0 and counts[3] == 0
    # renormalized softmax over the two candidates
    p0 = math.exp(3.0) / (math.exp(3.0) + math.exp(2.0))
    expected = np.array([p0, 1 - p0]) * n
    chi2 = float((((counts[:2] - expected) ** 2) / expected).sum())
    chi2_crit = 6.635   # alpha = 0.01, 1 degree of freedom
    sigma = math.sqrt(n * p0 * (1 - p0))
    within_3sigma = abs(counts[0] - n * p0) < 3 * sigma

    argmax_ok = True
    rng2 = np.random.default_rng(54321)
    cfg1 = SampleConfig(k=1, seed=0)
    for _ in range(10_000):
        draw_logits = rng2.normal(size=6)
        if top_k_sample(draw_logits, cfg1, rng2) != int(np.argmax(draw_logits)):
            argmax_ok = False
            break
    verdict("C5 sampler-statistics",
            chi2 < chi2_crit and within_3sigma and argmax_ok,
            f"chi2 {chi2:.2f} < {chi2_crit} over {n} draws, "
            f"|count-np| < 3 sigma, k=1 == argmax on 10k trials")


# ---------------------------------------------------------------------------
# 6. Fixture validation + single-edit perturbations
# ---------------------------------------------------------------------------

def test_c6_fixture_validation(fixture_poems, catalog, table):
    from guti.corpus import Line, Poem

    well_formed = sum(validate(p, catalog, table).well_formed
                      for p in fixture_poems)
    rng = np.random.default_rng(20240601)
    broken = 0
    for poem in fixture_poems:
        body = list(poem.body)
        li = int(rng.integers(0, len(body)))
        line = body[li]
        if rng.integers(0, 2) and len(line.characters) > 1:
            pos = int(rng.integers(0, len(line.characters)))
            chars = line.characters[:pos] + line.characters[pos + 1:]
        else:
            pos = int(rng.integers(0, len(line.characters) + 1))
            extra = line.characters[int(rng.integers(0, len(line.characters)))]
            chars = line.characters[:pos] + extra + line.characters[pos:]
        body[li] = Line(chars, line.terminal_punct)
        damaged = Poem(poem.form_id, poem.theme, tuple(body))
        if not validate(damaged, catalog, table).well_formed:
            broken += 1
    ok = well_formed == len(fixture_poems) and broken == len(fixture_poems)
    verdict("C6 fixture-validation", ok,
            f"{well_formed}/{len(fixture_poems)} fixtures well-formed, "
            f"{broken}/{len(fixture_poems)} rejected after a single edit")


# ---------------------------------------------------------------------------
# 7. Pairing rules
# ---------------------------------------------------------------------------

def test_c7_pairing(fixture_poems, catalog):
    couplets = [p for p in fixture_poems
                if p.source_id and p.source_id.startswith("t3-")]
    assert len(couplets) == 12
    spec = catalog.resolve("对联")
    couplet_ok = all(r.passed for p in couplets for r in check_pairing(p, spec))
    (qilu,) = [p for p in fixture_poems if p.source_id == "t4-七律"]
    results = check_pairing(qilu, catalog.resolve("七律"))
    qilu_ok = all(r.passed for r in results) and len(results) == 6
    verdict("C7 pairing-rules", couplet_ok and qilu_ok,
            f"{len(couplets)} couplets pass; eight-line poem pairs (3,4)+(5,6) pass")


# ---------------------------------------------------------------------------
# 8. Acrostic pipeline
# ---------------------------------------------------------------------------

def test_c8_acrostic_pipeline(overfit_acrostic, toy_poems, toy_vocab, catalog):
    (jingyesi,) = [p for p in toy_poems if p.theme == "静夜思"]
    twin = acrostic_transform(jingyesi, catalog)
    assert twin.theme == "床疑举低"
    params, _ = overfit_acrostic
    prompt = build_prompt("五绝", "床疑举低", catalog, toy_vocab, acrostic=True)
    prompt_text = decode(prompt, toy_vocab)
    assert prompt_text.endswith("床疑举低(藏头诗)")
    out = generate(params, prompt, SampleConfig(k=1, max_new_tokens=80, seed=0),
                   toy_vocab)
    poem = deserialize(prompt_text + out.text, catalog)
    initials = poem.line_initials()
    verdict("C8 acrostic-pipeline", initials == "床疑举低",
            f"theme transform ok; greedy body initials {initials!r}")


# ---------------------------------------------------------------------------
# 9. Round-trips
# ---------------------------------------------------------------------------

def test_c9_round_trips(fixture_poems, catalog, overfit_plain, toy_vocab,
                        tmp_path):
    samples = [serialize(p, catalog) for p in fixture_poems]
    serialization_ok = all(
        deserialize(s.text, catalog, source_id=p.source_id) == p
        for p, s in zip(fixture_poems, samples))
    vocab = build_vocab(samples)
    encoding_ok = all(decode(encode(s.text, vocab), vocab) == s.text
                      for s in samples)

    params, _ = overfit_plain
    tokens = np.random.default_rng(1).integers(
        0, params.config.vocab_size, size=(2, 10))
    before = forward(params, tokens)
    path = tmp_path / "acceptance.ckpt"
    save_checkpoint(params, path)
    after = forward(load_checkpoint(path), tokens)
    checkpoint_ok = after.tobytes() == before.tobytes()
    verdict("C9 round-trips",
            serialization_ok and encoding_ok and checkpoint_ok,
            f"serialize/deserialize + encode/decode identities over "
            f"{len(samples)} fixtures; checkpoint forward bitwise-equal")


# ---------------------------------------------------------------------------
# 10. Diversity across seeds
# ---------------------------------------------------------------------------

def test_c10_diversity(overfit_plain, toy_vocab, catalog):
    params, _ = overfit_plain
    prompt = build_prompt("五绝", "明月", catalog, toy_vocab)   # unseen theme
    bodies = set()
    for seed in range(10):
        out = generate(params, prompt,
                       SampleConfig(k=20, max_new_tokens=40, seed=seed),
                       toy_vocab)
        bodies.add(out.text)
    verdict("C10 seed-diversity", len(bodies) >= 2,
            f"{len(bodies)} distinct bodies across 10 seeds at k=20")
