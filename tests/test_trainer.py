import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from guti.corpus import Poem, parse_body, serialize
from guti.errors import TrainingError
from guti.forms import default_catalog
from guti.model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    backward,
    forward,
    init_params,
    load_checkpoint,
    nll_loss,
)
from guti import trainer
from guti.trainer import (
    AdamState,
    NoveltyIndex,
    TrainConfig,
    TrainReport,
    _eval_nll,
    adam_step,
    encode_sample,
    fine_tune,
    heldout_split,
    make_batch,
    novelty_score,
)
from guti.sampler import SampleConfig, generate
from guti.vocab import build_vocab, encode


def novelty_index(body_texts: list[str]) -> NoveltyIndex:
    """A novelty index of poem bodies given as text."""
    return NoveltyIndex.from_samples(
        [serialize(Poem("五绝", "", parse_body(text)), default_catalog())
         for text in body_texts])


def scalar_params(value: float):
    """A one-tensor parameter container standing in for a model."""
    config = ModelConfig(n_layers=1, n_heads=1, d_model=1, d_ff=1,
                         context_len=1, vocab_size=1)
    p = init_params(config, seed=0, dtype=np.float64)
    p.tensors = {"w": np.array([value], dtype=np.float64)}
    return p


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = scalar_params(1.5)
        state = AdamState.zeros_like(params)
        cfg = TrainConfig(learning_rate=0.1)
        out, state = adam_step(params, {"w": np.zeros(1)}, state, cfg)
        assert out["w"][0] == 1.5

    def test_matches_hand_computed_recurrence(self):
        # closed-form Adam iterates for a scalar with a known grad sequence
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        assert (trainer.BETA1, trainer.BETA2, trainer.EPS) == (b1, b2, eps)
        cfg = TrainConfig(learning_rate=lr)
        grads = [0.3, -1.2, 0.7, 0.05, 2.0]
        w = 0.4
        m = v = 0.0
        expect = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
            expect.append(w)

        params = scalar_params(0.4)
        state = AdamState.zeros_like(params)
        got = []
        for g in grads:
            params, state = adam_step(params, {"w": np.array([g])}, state, cfg)
            got.append(params["w"][0])
        assert np.allclose(got, expect, rtol=0, atol=1e-10)

    def test_two_runs_identical(self):
        cfg = TrainConfig(learning_rate=0.05)
        runs = []
        for _ in range(2):
            params = scalar_params(1.0)
            state = AdamState.zeros_like(params)
            for g in (0.5, -0.25, 0.1):
                params, state = adam_step(params, {"w": np.array([g])}, state, cfg)
            runs.append(params["w"][0])
        assert runs[0] == runs[1]

    def test_non_finite_gradient_aborts_step(self):
        params = scalar_params(1.0)
        state = AdamState.zeros_like(params)
        with pytest.raises(TrainingError):
            adam_step(params, {"w": np.array([np.nan])}, state,
                      TrainConfig(learning_rate=0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20],
                             ids=["nan", "inf", "-inf", "square-overflows"])
    def test_each_non_finite_value_in_any_tensor_aborts_step(self, bad):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                             context_len=8, vocab_size=12)
        params = init_params(config, seed=1)
        state = AdamState.zeros_like(params)
        for name, arr in params.tensors.items():
            for at in (0, arr.size // 2, arr.size - 1):
                grads = {n: np.ones_like(a) for n, a in params.tensors.items()}
                grads[name].flat[at] = bad
                with pytest.raises(TrainingError, match=re.escape(repr(name))):
                    adam_step(params, grads, state, TrainConfig())

    def test_update_past_float32_range_aborts_step(self):
        # lr 1e39 overflows float32: every updated tensor would be infinite
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                             context_len=8, vocab_size=12)
        params = init_params(config, seed=1)
        grads = {n: np.ones_like(a) for n, a in params.tensors.items()}
        with pytest.raises(TrainingError, match="non-finite update of 'tok_emb'"), \
                np.errstate(over="ignore"):
            adam_step(params, grads, AdamState.zeros_like(params),
                      TrainConfig(learning_rate=1e39))

    def test_lr_scale_applies_warmup(self):
        cfg = TrainConfig(learning_rate=1.0)
        params = scalar_params(0.0)
        state = AdamState.zeros_like(params)
        # sqrt(v_hat) is 1e8, and 1e8 + eps rounds to 1e8
        out, _ = adam_step(params, {"w": np.array([1e8])}, state, cfg,
                           lr_scale=0.25)
        # bias-corrected first step moves by exactly lr * lr_scale
        assert abs(out["w"][0] + 0.25) < 1e-12

    @staticmethod
    def former_adam_step(params, grads, state, cfg, lr_scale):
        """adam_step as one expression per array, before it worked in place."""
        t = state.t + 1
        b1, b2 = trainer.BETA1, trainer.BETA2
        lr = cfg.learning_rate * lr_scale
        new_tensors, new_m, new_v = {}, {}, {}
        for name, p in params.tensors.items():
            g = grads[name]
            m = b1 * state.m[name] + (1.0 - b1) * g
            v = b2 * state.v[name] + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            new_tensors[name] = (p - lr * m_hat / (np.sqrt(v_hat) + trainer.EPS)).astype(p.dtype)
            new_m[name], new_v[name] = m, v
        return ModelParams(params.config, new_tensors), AdamState(new_m, new_v, t)

    def test_bitwise_equal_to_the_former_expression(self):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                             context_len=8, vocab_size=12)
        cfg = TrainConfig(learning_rate=3e-3, warmup_steps=10)
        rng = np.random.default_rng(7)
        got = want = init_params(config, seed=1)
        got_state = want_state = AdamState.zeros_like(got)
        for step in range(1, 6):
            grads = {n: (rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 2))
                     .astype(np.float32) for n, a in got.tensors.items()}
            got, got_state = adam_step(got, grads, got_state, cfg, step / 10)
            want, want_state = self.former_adam_step(want, grads, want_state, cfg, step / 10)
            assert got_state.t == want_state.t == step
            for name, arr in want.tensors.items():
                for a, b in ((got[name], arr), (got_state.m[name], want_state.m[name]),
                             (got_state.v[name], want_state.v[name])):
                    assert a.dtype == b.dtype == np.float32
                    assert a.tobytes() == b.tobytes(), name

    def test_inputs_unchanged(self):
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                             context_len=8, vocab_size=12)
        rng = np.random.default_rng(3)
        params = init_params(config, seed=2)
        grads = {n: rng.standard_normal(a.shape).astype(np.float32)
                 for n, a in params.tensors.items()}
        state = AdamState({n: rng.standard_normal(a.shape).astype(np.float32)
                           for n, a in params.tensors.items()},
                          {n: rng.random(a.shape).astype(np.float32)
                           for n, a in params.tensors.items()}, t=4)
        kept = [{n: a.copy() for n, a in d.items()}
                for d in (params.tensors, grads, state.m, state.v)]
        out, out_state = adam_step(params, grads, state, TrainConfig(), 0.5)
        assert state.t == 4 and out_state.t == 5
        for d, before in zip((params.tensors, grads, state.m, state.v), kept):
            assert all(d[n].tobytes() == a.tobytes() for n, a in before.items())
        for new in (out.tensors, out_state.m, out_state.v):
            assert not any(np.shares_memory(new[n], d[n]) for n in new
                           for d in (params.tensors, grads, state.m, state.v))


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["max_steps", "warmup_steps",
                                       "checkpoint_interval",
                                       "novelty_eval_interval"])
    def test_negative_step_counts_rejected(self, field):
        # a negative warmup made lr_scale negative: Adam then climbed the loss
        with pytest.raises(TrainingError, match=field):
            TrainConfig(**{field: -1})
        assert getattr(TrainConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field", ["batch_size", "max_steps", "warmup_steps",
                                       "checkpoint_interval", "novelty_eval_interval",
                                       "seed"])
    @pytest.mark.parametrize("bad", [2.5, 1.0, True, "3"])
    def test_non_integral_counts_rejected(self, field, bad):
        # batch_size=2.5, max_steps=1.5, seed=0.5 and checkpoint_interval=True
        # used to pass here and fail, or run, later
        with pytest.raises(TrainingError, match=f"^{field} must be an integer, not"):
            TrainConfig(**{field: bad})
        assert getattr(TrainConfig(**{field: np.int64(3)}), field) == 3

    def test_negative_seed_rejected(self):
        # numpy's default_rng takes no negative seed
        with pytest.raises(TrainingError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
    def test_unusable_learning_rate_rejected(self, lr):
        # a NaN or infinite rate made the first step write non-finite weights
        with pytest.raises(TrainingError, match="learning_rate must be > 0"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("fraction", [1.0, -0.1, math.nan])
    def test_heldout_fraction_outside_unit_interval_rejected(self, fraction):
        # a fraction of 1 holds every sample out, leaving none to train on
        with pytest.raises(TrainingError, match=re.escape("heldout_fraction must lie in [0, 1)")):
            TrainConfig(heldout_fraction=fraction)

    def test_nan_early_stop_threshold_rejected(self):
        # score < NaN never holds, so a NaN threshold turned early stopping off
        with pytest.raises(TrainingError, match="early_stop_novelty must not be NaN"):
            TrainConfig(early_stop_novelty=math.nan, novelty_eval_interval=2)
        assert TrainConfig(early_stop_novelty=math.inf,
                           novelty_eval_interval=2).early_stop_novelty == math.inf

    def test_early_stop_without_novelty_probes_rejected(self):
        # fine_tune reads early_stop_novelty only when novelty probes run
        with pytest.raises(TrainingError, match="novelty_eval_interval > 0"):
            TrainConfig(early_stop_novelty=0.5)
        assert TrainConfig(early_stop_novelty=0.5,
                           novelty_eval_interval=10).early_stop_novelty == 0.5


class TestNovelty:
    def make_index(self):
        return novelty_index([
            "床前明月光，疑是地上霜。举头望明月，低头思故乡。",
            "春眠不觉晓，处处闻啼鸟。",
        ])

    def test_verbatim_poem_scores_zero(self):
        index = self.make_index()
        poem = Poem("五绝", "静夜思",
                    parse_body("床前明月光，疑是地上霜。举头望明月，低头思故乡。"))
        result = novelty_score(poem, index)
        assert result.score == 0.0
        assert result.verbatim_lines == 4

    def test_disjoint_poem_scores_one(self):
        index = self.make_index()
        poem = Poem("五绝", "空", parse_body("空谷幽兰开，寒窗听雪来。"))
        result = novelty_score(poem, index)
        assert result.score == 1.0

    def test_score_decreases_with_each_verbatim_line(self):
        index = self.make_index()
        novel = ["空谷幽兰开", "寒窗听雪来", "远帆隔岸影", "孤灯照客怀"]
        corpus = ["床前明月光", "疑是地上霜", "举头望明月", "低头思故乡"]
        scores = []
        for k in range(5):
            lines = corpus[:k] + novel[k:]
            scores.append(index.score_lines(lines).score)
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == 1.0 and scores[-1] == 0.0

    def test_empty_poem_rejected(self):
        with pytest.raises(TrainingError):
            self.make_index().score_lines([])

    def test_empty_corpus(self):
        result = novelty_index([]).score_lines(["床前明月光"])
        assert result.score == 1.0

    def test_fixture_poems(self, fixture_poems):
        bodies = [[ln.characters for ln in p.body] for p in fixture_poems]
        index = novelty_index([p.body_text() for p in fixture_poems])
        for lines in bodies:
            assert index.score_lines(lines).score == 0.0

    def test_from_samples_matches_parsed_bodies(self, fixture_poems, toy_samples,
                                                catalog):
        poems = list(fixture_poems) + [
            Poem(form_id="五绝", theme="无尾", body=parse_body("床前明月光，疑是地上霜")),
            Poem(form_id="五绝", theme="扩展", body=parse_body("低头思故\U00020000。"))]
        samples = [serialize(p, catalog) for p in poems] + list(toy_samples)
        got = NoveltyIndex.from_samples(samples)
        bodies = [[ln.characters for ln in parse_body(s.body)] for s in samples]
        assert got._lines == {ln for body in bodies for ln in body}

    def test_batched_probes_score_as_each_probe_alone(self, toy_samples):
        """The probes decode as one ragged batch; their mean novelty is the
        mean over each probe's own ``generate`` call."""
        vocab = build_vocab(toy_samples)
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                             context_len=48, vocab_size=vocab.size)
        # weights 8x the init scale, so that attention, not the newest
        # token alone, picks each greedy token
        params = init_params(config, seed=2)
        params = ModelParams(config, {name: t * 8 if t.ndim == 2 else t
                                      for name, t in params.tensors.items()})
        prompts = [[vocab.bos_id] + encode(s.prompt, vocab) for s in toy_samples[:5]]
        assert len({len(p) for p in prompts}) > 1
        cfg = SampleConfig(k=1, max_new_tokens=config.context_len, seed=0)
        texts = [generate(params, p, cfg, vocab).text for p in prompts]
        # probes 0 and 2 retrieve their own bodies, the others score near 1
        index = novelty_index([texts[0], texts[2]])
        scores = [index.score_lines([ln.characters for ln in parse_body(text)]).score
                  for text in texts]
        assert len(set(scores)) > 1
        got = trainer._probe_novelty(params, prompts, index, vocab)
        assert got == float(np.mean(scores))


class TestBatching:
    def test_make_batch_pads_and_masks(self):
        batch = make_batch([[1, 5, 6, 2], [1, 7, 2]])
        assert batch.tokens.shape == (2, 4)
        assert batch.tokens[1].tolist() == [1, 7, 2, 0]
        assert batch.loss_mask[0].tolist() == [0, 1, 1, 1]
        assert batch.loss_mask[1].tolist() == [0, 1, 1, 0]

    def test_eval_nll_matches_per_batch_reference(self):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=40, vocab_size=11)
        params = init_params(config, seed=6, dtype=np.float64)
        rng = np.random.default_rng(2)
        seqs = [rng.integers(1, 11, size=n).tolist()
                for n in (5, 12, 3, 30, 8, 17, 9)]
        total = count = 0.0
        for start in range(0, len(seqs), 3):
            batch = make_batch(seqs[start:start + 3])
            n = batch.loss_mask.sum()
            total += nll_loss(forward(params, batch.tokens), batch) * n
            count += n
        got = _eval_nll(params, seqs, batch_size=3)
        assert abs(got - total / count) < 1e-12

    def test_pads_reach_no_loss_or_gradient(self, monkeypatch):
        """A grid padded with V - 1 in place of 0 gives the same bits: each
        sequence runs only up to its last loss row, so no pass reads a pad,
        dropout's draws included."""
        config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=24,
                             context_len=40, vocab_size=11, dropout_rate=0.1)
        params = init_params(config, seed=6)
        rng = np.random.default_rng(2)
        seqs = [rng.integers(1, 11, size=n).tolist() for n in (5, 12, 3, 30, 8, 17, 9)]
        real = trainer.make_batch

        def padded_high(sequences):
            batch = real(sequences)
            lengths = np.array([len(s) for s in sequences])
            pads = np.arange(batch.tokens.shape[1]) >= lengths[:, None]
            assert (batch.tokens[pads] == 0).all()
            return SequenceBatch(np.where(pads, config.vocab_size - 1, batch.tokens),
                                 batch.loss_mask)

        (low_loss, low), (high_loss, high) = (
            backward(params, pad(seqs), rng=np.random.default_rng(4))
            for pad in (real, padded_high))
        assert low_loss == high_loss
        assert all(low[name].tobytes() == high[name].tobytes() for name in params.tensors)
        low_nll = _eval_nll(params, seqs, batch_size=3)
        monkeypatch.setattr(trainer, "make_batch", padded_high)
        assert _eval_nll(params, seqs, batch_size=3) == low_nll

    def test_heldout_split_deterministic(self, toy_samples):
        a = heldout_split(toy_samples, 0.1)
        b = heldout_split(toy_samples, 0.1)
        assert a == b
        train, held = a
        assert sorted(train + held) == list(range(len(toy_samples)))

    def test_heldout_fraction_zero(self, toy_samples):
        train, held = heldout_split(toy_samples, 0.0)
        assert held == [] and len(train) == len(toy_samples)


class TestFineTune:
    def small_setup(self, toy_samples):
        samples = toy_samples[:12]
        vocab = build_vocab(samples)
        config = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                             context_len=96, vocab_size=vocab.size)
        return samples, vocab, init_params(config, seed=0)

    def test_max_steps_zero_is_a_no_op(self, toy_samples, tmp_path):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(max_steps=0, checkpoint_interval=10)
        out, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert report.steps_run == 0
        assert report.intervals == [] and report.checkpoint_paths == []
        for name in params.tensors:
            assert np.array_equal(out[name], params[name])
        assert not list(tmp_path.glob("*.ckpt"))

    def test_empty_corpus_rejected(self, toy_samples):
        _, vocab, params = self.small_setup(toy_samples)
        with pytest.raises(TrainingError):
            fine_tune([], vocab, params, TrainConfig())

    def test_sequence_longer_than_context_rejected(self, toy_samples):
        samples, vocab, _ = self.small_setup(toy_samples)
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=8,
                             context_len=8, vocab_size=vocab.size)
        with pytest.raises(TrainingError):
            fine_tune(samples, vocab, init_params(config, seed=0), TrainConfig())

    def test_short_run_reduces_loss_and_writes_artifacts(self, toy_samples, tmp_path):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=2e-3, batch_size=6, max_steps=60,
                          checkpoint_interval=30, novelty_eval_interval=30,
                          seed=3, heldout_fraction=0.0)
        out, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert report.steps_run == 60
        assert len(report.intervals) == 2
        assert report.intervals[-1]["train_loss"] < report.intervals[0]["train_loss"]
        assert len(report.novelty) == 2
        ckpts = sorted(tmp_path.glob("*.ckpt"))
        assert [c.name for c in ckpts] == ["last.ckpt", "step-000030.ckpt",
                                           "step-000060.ckpt"]
        metrics = (tmp_path / "metrics.jsonl").read_text(encoding="utf-8")
        for line in metrics.strip().splitlines():
            json.loads(line)

    def test_final_checkpoint_step_serialized_once(self, toy_samples, tmp_path,
                                                   monkeypatch):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=4,
                          checkpoint_interval=2, seed=4, heldout_fraction=0.0)
        real, calls = trainer.save_checkpoint, []

        def save_checkpoint(params, *paths):
            calls.append([p.name for p in paths])
            real(params, *paths)

        monkeypatch.setattr(trainer, "save_checkpoint", save_checkpoint)
        out, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert calls == [["step-000002.ckpt"], ["step-000004.ckpt", "last.ckpt"]]
        assert report.checkpoint_paths == [str(tmp_path / n) for n in
                                           ("step-000002.ckpt", "step-000004.ckpt",
                                            "last.ckpt")]
        last = (tmp_path / "last.ckpt").read_bytes()
        assert last == (tmp_path / "step-000004.ckpt").read_bytes()
        loaded = load_checkpoint(tmp_path / "last.ckpt")
        assert all(loaded[n].tobytes() == a.tobytes() for n, a in out.tensors.items())

    def test_last_checkpoint_off_the_cadence(self, toy_samples, tmp_path):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=5,
                          checkpoint_interval=2, seed=4, heldout_fraction=0.0)
        out, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert [Path(p).name for p in report.checkpoint_paths] == [
            "step-000002.ckpt", "step-000004.ckpt", "last.ckpt"]
        loaded = load_checkpoint(tmp_path / "last.ckpt")
        assert loaded.config == out.config
        assert all(loaded[n].tobytes() == a.tobytes() for n, a in out.tensors.items())
        assert ((tmp_path / "last.ckpt").read_bytes()
                != (tmp_path / "step-000004.ckpt").read_bytes())

    def test_killed_run_keeps_the_metrics_of_its_checkpoints(self, toy_samples, tmp_path,
                                                             monkeypatch):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=8,
                          checkpoint_interval=2, seed=5, heldout_fraction=0.25)
        fine_tune(samples, vocab, params, cfg, out_dir=tmp_path / "full")
        full = (tmp_path / "full" / "metrics.jsonl").read_text(encoding="utf-8")
        real, calls = trainer.backward, []

        def backward(*args, **kwargs):
            calls.append(None)
            if len(calls) == 7:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "backward", backward)
        _, _, params = self.small_setup(toy_samples)
        with pytest.raises(KeyboardInterrupt):
            fine_tune(samples, vocab, params, cfg, out_dir=tmp_path / "killed")
        killed = tmp_path / "killed"
        text = (killed / "metrics.jsonl").read_text(encoding="utf-8")
        assert [json.loads(line)["step"] for line in text.splitlines()] == [2, 4, 6]
        assert text.splitlines() == full.splitlines()[:3]
        assert sorted(p.name for p in killed.iterdir()) == [
            "metrics.jsonl", "step-000002.ckpt", "step-000004.ckpt", "step-000006.ckpt"]

    @pytest.mark.parametrize("max_steps, novelty_eval_interval, writes", [
        (4, 0, [1, 2]),         # the last checkpoint holds every record
        (5, 0, [1, 2, 3]),      # a final partial interval
        (4, 4, [1, 3]),         # a checkpoint step's novelty record is in its rewrite
        (1, 0, [1]),            # no checkpoint: the final partial interval
    ])
    def test_metrics_rewritten_at_each_checkpoint(self, toy_samples, tmp_path, monkeypatch,
                                                  max_steps, novelty_eval_interval, writes):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=max_steps,
                          checkpoint_interval=2, novelty_eval_interval=novelty_eval_interval,
                          seed=4, heldout_fraction=0.0)
        real, written = trainer.write_atomic, []

        def write_atomic(path, *chunks, **kwargs):
            if path.name == "metrics.jsonl":
                written.append(b"".join(chunks).count(b"\n"))
            real(path, *chunks, **kwargs)

        monkeypatch.setattr(trainer, "write_atomic", write_atomic)
        _, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert written == writes
        assert (tmp_path / "metrics.jsonl").read_text(encoding="utf-8") == (
            "\n".join(report.metric_lines()) + "\n")

    def test_batches_follow_the_shuffled_order(self, toy_samples, monkeypatch):
        # 12 samples in batches of 5: batches draw from the rest of one
        # permutation and the start of the next
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=5, max_steps=7,
                          checkpoint_interval=0, seed=9, heldout_fraction=0.0)
        real, fed = trainer.make_batch, []

        def make_batch(sequences):
            fed.append(sequences)
            return real(sequences)

        monkeypatch.setattr(trainer, "make_batch", make_batch)
        fine_tune(samples, vocab, params, cfg)
        seqs = [encode_sample(s, vocab) for s in samples]
        rng, order, want = np.random.default_rng(cfg.seed), [], []
        for _ in range(cfg.max_steps):
            if len(order) < cfg.batch_size:
                order.extend(rng.permutation(len(seqs)).tolist())
            want.append([seqs[order.pop(0)] for _ in range(cfg.batch_size)])
        assert fed == want

    def test_reproducible_checkpoints(self, toy_samples, tmp_path):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=20,
                          checkpoint_interval=20, seed=11, heldout_fraction=0.0)
        blobs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            fresh = ModelParams(params.config, {k: v.copy() for k, v in params.tensors.items()})
            fine_tune(samples, vocab, fresh, cfg, out_dir=out_dir)
            blobs.append((out_dir / "last.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_early_stop_on_low_novelty(self, toy_samples):
        samples = toy_samples[:6]
        vocab = build_vocab(samples)
        config = ModelConfig(n_layers=1, n_heads=2, d_model=24, d_ff=48,
                             context_len=96, vocab_size=vocab.size)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=6, max_steps=800,
                          checkpoint_interval=100, novelty_eval_interval=50,
                          seed=2, heldout_fraction=0.0,
                          early_stop_novelty=0.5)
        _, report = fine_tune(samples, vocab, init_params(config, seed=0), cfg)
        assert report.stopped_early
        assert report.steps_run < 800
        assert report.novelty[-1]["novelty"] < 0.5

    @pytest.mark.parametrize("novelty_eval_interval, intervals", [
        (2, [2]),       # stops on a checkpoint step: no partial interval after it
        (3, [2, 3]),    # stops off one: the partial interval closes the run
    ])
    def test_early_stop_writes_its_outputs(self, toy_samples, tmp_path, monkeypatch,
                                           novelty_eval_interval, intervals):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=8,
                          checkpoint_interval=2,
                          novelty_eval_interval=novelty_eval_interval,
                          seed=4, heldout_fraction=0.25, early_stop_novelty=0.5)
        monkeypatch.setattr(trainer, "_probe_novelty", lambda *args: 0.0)
        real, calls = trainer.save_checkpoint, []

        def save_checkpoint(params, *paths):
            calls.append([p.name for p in paths])
            real(params, *paths)

        monkeypatch.setattr(trainer, "save_checkpoint", save_checkpoint)
        out, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        stop = novelty_eval_interval
        if stop == 2:       # the checkpoint step's file is last.ckpt, saved once
            assert calls == [["step-000002.ckpt", "last.ckpt"]]
            assert os.path.samefile(tmp_path / "last.ckpt", tmp_path / "step-000002.ckpt")
        assert report.stopped_early and report.steps_run == stop
        assert [r["step"] for r in report.intervals] == intervals
        assert report.novelty == [{"step": stop, "novelty": 0.0}]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "last.ckpt", "metrics.jsonl", "step-000002.ckpt"]
        loaded = load_checkpoint(tmp_path / "last.ckpt")
        assert loaded.config == out.config
        assert all(loaded[n].tobytes() == a.tobytes() for n, a in out.tensors.items())
        assert (tmp_path / "metrics.jsonl").read_text(encoding="utf-8") == "".join(
            line + "\n" for line in report.metric_lines())

    def test_heldout_loss_reported(self, toy_samples):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=10,
                          checkpoint_interval=10, seed=1, heldout_fraction=0.3)
        _, report = fine_tune(samples, vocab, params, cfg)
        assert report.heldout_indices
        assert report.intervals[0]["heldout_loss"] is not None
        assert report.train_indices and set(report.train_indices).isdisjoint(
            report.heldout_indices)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20],
                             ids=["nan", "inf", "-inf", "square-overflows"])
    def test_non_finite_gradient_in_any_tensor_skips_the_step(self, toy_samples,
                                                             monkeypatch, bad):
        # step k poisons the k-th tensor's gradient; one clean step follows
        samples, vocab, params = self.small_setup(toy_samples)
        names, real, calls = list(params.tensors), trainer.backward, []

        def backward(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            calls.append(1)
            if len(calls) <= len(names):
                grads[names[len(calls) - 1]].flat[-1] = bad
            return loss, grads

        monkeypatch.setattr(trainer, "backward", backward)
        cfg = TrainConfig(batch_size=6, max_steps=len(names) + 1, seed=1)
        _, report = fine_tune(samples, vocab, params, cfg)
        assert report.skipped_nonfinite == len(names)
        assert len(report.step_losses) == 1

    def test_non_finite_update_skips_the_step(self, toy_samples):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e39, batch_size=6, max_steps=3,
                          warmup_steps=0, seed=1)
        with np.errstate(over="ignore"):
            out, report = fine_tune(samples, vocab, params, cfg)
        assert report.skipped_nonfinite == 3 and report.step_losses == []
        for name in params.tensors:
            assert np.array_equal(out[name], params[name])

    def test_run_without_records_writes_empty_metrics(self, toy_samples, tmp_path):
        # every step skipped and no checkpoint cadence: no record, so no line
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e39, batch_size=6, max_steps=3,
                          warmup_steps=0, checkpoint_interval=0, seed=1)
        with np.errstate(over="ignore"):
            _, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert report.metric_lines() == []
        assert (tmp_path / "metrics.jsonl").read_bytes() == b""

    def test_short_loss_series_is_not_smoothed(self):
        # fewer steps than the window: no mean is taken, the series is kept
        assert TrainReport(step_losses=[1.0, 2.0]).smoothed_losses() == [1.0, 2.0]
        assert TrainReport(step_losses=[1.0, 2.0]).smoothed_losses(window=2) == [1.5]

    def test_wall_clock_ignores_a_system_clock_step(self, toy_samples, monkeypatch):
        # the system clock can be stepped back mid-run; a measured duration cannot
        samples, vocab, params = self.small_setup(toy_samples)
        readings = iter(range(10**6, 0, -1000))
        monkeypatch.setattr(trainer.time, "time", lambda: float(next(readings)))
        cfg = TrainConfig(batch_size=6, max_steps=2, seed=1)
        _, report = fine_tune(samples, vocab, params, cfg)
        assert report.wall_clock_sec >= 0

    def test_skipped_step_keeps_its_cadence_work(self, toy_samples, tmp_path,
                                                 monkeypatch):
        samples, vocab, params = self.small_setup(toy_samples)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=6, max_steps=6,
                          checkpoint_interval=3, novelty_eval_interval=3,
                          seed=1, heldout_fraction=0.3)
        real, calls = trainer.adam_step, []

        def adam_step(params, grads, state, cfg, lr_scale=1.0):
            calls.append(1)
            if len(calls) == cfg.checkpoint_interval:
                raise TrainingError("non-finite gradient in 'tok_emb'")
            return real(params, grads, state, cfg, lr_scale)

        monkeypatch.setattr(trainer, "adam_step", adam_step)
        _, report = fine_tune(samples, vocab, params, cfg, out_dir=tmp_path)
        assert report.skipped_nonfinite == 1 and len(report.step_losses) == 5
        assert (tmp_path / "step-000003.ckpt").exists()
        assert [r["step"] for r in report.intervals] == [3, 6]
        assert report.intervals[0]["heldout_loss"] is not None
        assert [r["step"] for r in report.novelty] == [3, 6]
