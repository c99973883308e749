"""Fine-tuning loop: Adam updates, checkpointing, novelty tracking.

Training drives the language model toward maximizing sequence
log-likelihood; because small corpora overfit quickly, the loop can probe
how much of its greedy output is retrieved verbatim from the training
corpus (novelty 0 = pure retrieval) and optionally stop early on that
signal.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, SerializedSample, parse_body
from .errors import GutiError, TrainingError, check_counts
from .fileio import write_atomic
from .forms import COMMA, PERIOD
from .model import (
    ModelParams,
    SequenceBatch,
    backward,
    forward,
    loss_rows,
    nll_loss,
    save_checkpoint,
)
from .sampler import SampleConfig, _decode
from .vocab import Vocab


# Adam's recommended defaults (Kingma & Ba, arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 16
    max_steps: int = 2000
    warmup_steps: int = 100
    checkpoint_interval: int = 500
    novelty_eval_interval: int = 0      # 0 disables novelty probes
    seed: int = 0
    heldout_fraction: float = 0.05
    early_stop_novelty: float | None = None   # stop when probe novelty drops below

    def __post_init__(self):
        check_counts(TrainingError, 1, batch_size=self.batch_size)
        check_counts(TrainingError, 0, max_steps=self.max_steps,
                     warmup_steps=self.warmup_steps,
                     checkpoint_interval=self.checkpoint_interval,
                     novelty_eval_interval=self.novelty_eval_interval, seed=self.seed)
        if not 0 < self.learning_rate < math.inf:     # NaN fails this too
            raise TrainingError("learning_rate must be > 0")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise TrainingError("heldout_fraction must lie in [0, 1)")
        if self.early_stop_novelty is not None and not self.novelty_eval_interval:
            raise TrainingError("early_stop_novelty needs novelty_eval_interval > 0")
        if self.early_stop_novelty is not None and math.isnan(self.early_stop_novelty):
            raise TrainingError("early_stop_novelty must not be NaN")   # score < NaN never holds


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in params.tensors.items()},
                   v={k: np.zeros_like(a) for k, a in params.tensors.items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig,
              lr_scale: float = 1.0) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; pure (returns new params and state).

    Raises TrainingError, naming the tensor, when its new second moment is
    not finite (a NaN or infinite gradient, or a finite one whose square
    overflows) or its update is not (a learning rate past float32's range),
    so the caller can abort the step and report it.
    """
    t = state.t + 1
    lr = cfg.learning_rate * lr_scale
    new_tensors, new_m, new_v = {}, {}, {}
    for name, p in params.tensors.items():
        g = grads[name]
        # a non-finite moment or update is caught below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            m = BETA1 * state.m[name]
            m += (1.0 - BETA1) * g
            v = BETA2 * state.v[name]
            v += (1.0 - BETA2) * (g * g)
            den = v / (1.0 - BETA2 ** t)    # in place: p - lr * m_hat / (sqrt(v_hat) + eps)
            np.sqrt(den, out=den)
            den += EPS
            step = m / (1.0 - BETA1 ** t)
            step *= lr
            step /= den
            new = np.subtract(p, step, out=step).astype(p.dtype, copy=False)
        if not math.isfinite(v.max()):      # v >= 0: NaN and inf show in the max
            raise TrainingError(f"non-finite second moment in {name!r}")
        if not (math.isfinite(new.min()) and math.isfinite(new.max())):
            raise TrainingError(f"non-finite update of {name!r}")
        new_tensors[name], new_m[name], new_v[name] = new, m, v
    return (ModelParams(params.config, new_tensors), AdamState(new_m, new_v, t))


# ---------------------------------------------------------------------------
# Novelty: how much generated text is retrieved verbatim from the corpus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoveltyResult:
    """How much of a poem is retrieved: the lines found verbatim in the corpus."""

    score: float                 # 1 - fraction of lines found verbatim
    verbatim_lines: int


class NoveltyIndex:
    """The set of the corpus's lines: a query line counts as retrieved when
    it is one of them, verbatim, so a query costs one set lookup per line."""

    def __init__(self, line_set: set[str]):
        self._lines = line_set

    @classmethod
    def from_samples(cls, samples: list[SerializedSample]) -> "NoveltyIndex":
        """Index the bodies of serialized samples without parsing them again.

        A serialized body is canonical: lines of CJK characters, each closed
        by a comma or a period, the last one possibly by the end of the text.
        """
        line_set: set[str] = set()
        for sample in samples:
            lines = sample.body.replace(PERIOD, COMMA).split(COMMA)
            if not lines[-1]:
                lines.pop()
            line_set.update(lines)
        return cls(line_set)

    def score_lines(self, lines: list[str]) -> NoveltyResult:
        if not lines:
            raise TrainingError("cannot score an empty poem")
        hits = sum(1 for ln in lines if ln in self._lines)
        return NoveltyResult(score=1.0 - hits / len(lines), verbatim_lines=hits)


def novelty_score(poem: Poem, index: NoveltyIndex) -> NoveltyResult:
    """Fraction of the poem's lines NOT retrieved verbatim from the corpus."""
    return index.score_lines([line.characters for line in poem.body])


# ---------------------------------------------------------------------------
# The training loop.
# ---------------------------------------------------------------------------


@dataclass
class TrainReport:
    steps_run: int = 0
    intervals: list[dict] = field(default_factory=list)
    novelty: list[dict] = field(default_factory=list)
    checkpoint_paths: list[str] = field(default_factory=list)
    train_indices: list[int] = field(default_factory=list)
    heldout_indices: list[int] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)
    skipped_nonfinite: int = 0
    wall_clock_sec: float = 0.0
    stopped_early: bool = False

    def smoothed_losses(self, window: int = 10) -> list[float]:
        series = self.step_losses
        if len(series) < window:
            return list(series)
        return [float(np.mean(series[i:i + window]))
                for i in range(len(series) - window + 1)]

    def metric_lines(self) -> list[str]:
        out = [json.dumps({"kind": "interval", **rec}, ensure_ascii=False)
               for rec in self.intervals]
        out += [json.dumps({"kind": "novelty", **rec}, ensure_ascii=False)
                for rec in self.novelty]
        return out


def heldout_split(samples: list[SerializedSample],
                  fraction: float) -> tuple[list[int], list[int]]:
    """Deterministic split by hash of each sample's source id (or text)."""
    train, held = [], []
    cut = int(round(fraction * 10000))
    for i, sample in enumerate(samples):
        key = sample.source_id if sample.source_id is not None else sample.text
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        (held if int(digest[:8], 16) % 10000 < cut else train).append(i)
    return train, held


def encode_sample(sample: SerializedSample, vocab: Vocab) -> list[int]:
    return [vocab.bos_id] + vocab_mod.encode(sample.text, vocab) + [vocab.eos_id]


def sample_token_count(sample: SerializedSample) -> int:
    """``len(encode_sample(sample, v))`` for every vocabulary ``v``, from the
    fields' lengths: BOS, the two markers and EOS are a token each, and every
    other character one more.  That holds for a sample whose form, theme and
    body hold no marker, as ``serialize`` makes them: the catalog keeps
    markers out of form ids, ``Poem`` out of themes, and ``parse_body`` out
    of bodies, and ``read_dataset`` rebuilds each sample with ``serialize``."""
    return len(sample.form) + len(sample.theme) + len(sample.body) + 4


def make_batch(sequences: list[list[int]]) -> SequenceBatch:
    """Pad with ``Vocab.pad_id``, 0 by the layout: no pass reads a pad, each
    sequence runs only to its last loss row."""
    width = max(len(s) for s in sequences)
    tokens = np.zeros((len(sequences), width), dtype=np.int64)
    mask = np.zeros((len(sequences), width), dtype=np.float64)
    for i, seq in enumerate(sequences):
        tokens[i, :len(seq)] = seq
        mask[i, 1:len(seq)] = 1.0
    return SequenceBatch(tokens=tokens, loss_mask=mask)


def _eval_nll(params: ModelParams, sequences: list[list[int]], batch_size: int) -> float | None:
    total, count = 0.0, 0
    for start in range(0, len(sequences), batch_size):
        batch = make_batch(sequences[start:start + batch_size])
        rows = loss_rows(batch)
        n = len(rows[0])        # make_batch's mask is 0/1: its sum
        total += nll_loss(forward(params, batch.tokens, rows=rows), batch, rows) * n
        count += n
    return total / count if count else None


NOVELTY_PROBES = 5      # novelty probes prompt with this many training samples


def _probe_novelty(params, probe_prompts, index, vocab):
    scores = []
    cfg = SampleConfig(k=1, max_new_tokens=params.config.context_len, seed=0)
    for out in _decode(params, probe_prompts, [[cfg.seed]] * len(probe_prompts), cfg, vocab):
        try:
            lines = [ln.characters for ln in parse_body(out.text)]
        except GutiError:
            continue   # empty, or not yet parseable as a poem body; skip the probe
        scores.append(index.score_lines(lines).score)
    return float(np.mean(scores)) if scores else None


@dataclass
class TrainState:
    """``fine_tune``'s loop state: ``rng`` draws both the shuffle order and
    the dropout masks, and ``window`` holds the open interval's losses."""

    cfg: TrainConfig
    report: TrainReport
    params: ModelParams
    adam: AdamState
    rng: np.random.Generator
    order: list[int] = field(default_factory=list)     # the rest of the shuffle
    step: int = 0
    window: list[float] = field(default_factory=list)

    def train_step(self, seqs: list[list[int]]) -> None:
        """Take an Adam step on the next batch of the shuffle, or count it skipped."""
        cfg = self.cfg
        if len(self.order) < cfg.batch_size:
            self.order += self.rng.permutation(len(seqs)).tolist()
        picks = self.order[:cfg.batch_size]
        del self.order[:cfg.batch_size]
        batch = make_batch([seqs[i] for i in picks])
        loss, grads = backward(self.params, batch, rng=self.rng)
        self.step += 1
        lr_scale = min(1.0, self.step / cfg.warmup_steps) if cfg.warmup_steps else 1.0
        try:
            self.params, self.adam = adam_step(self.params, grads, self.adam, cfg, lr_scale)
        except TrainingError:
            self.report.skipped_nonfinite += 1
        else:
            self.window.append(loss)
            self.report.step_losses.append(loss)

    def probe_novelty(self, prompts: list[list[int]], index: NoveltyIndex,
                      vocab: Vocab) -> None:
        """Record a novelty probe; stop the run early when its score is below
        ``early_stop_novelty``."""
        score = _probe_novelty(self.params, prompts, index, vocab)
        self.report.novelty.append({"step": self.step, "novelty": score})
        stop = self.cfg.early_stop_novelty
        self.report.stopped_early = score is not None and stop is not None and score < stop

    def end_step(self, held_seqs: list[list[int]], out_path: Path | None) -> None:
        """Close what the step ends, after its novelty probe: nothing off the
        checkpoint cadence before the run's end (``max_steps`` or an early
        stop).  Else record the interval (at the end, only if a step was
        applied since the last record) and, under ``out_path``, save
        ``step-N.ckpt`` on the cadence and ``last.ckpt`` at the end in one
        call (one file when both), and rewrite ``metrics.jsonl`` whole, so a
        killed run keeps the records of every checkpoint it wrote."""
        cfg, report = self.cfg, self.report
        cadence = bool(cfg.checkpoint_interval) and self.step % cfg.checkpoint_interval == 0
        end = self.step == cfg.max_steps or report.stopped_early
        if not (cadence or end):
            return
        if cadence or self.window:
            report.intervals.append({
                "step": self.step,
                "train_loss": float(np.mean(self.window)) if self.window else None,
                "heldout_loss": _eval_nll(self.params, held_seqs, cfg.batch_size),
            })
            self.window.clear()
        if out_path is not None:
            ckpts = ([out_path / f"step-{self.step:06d}.ckpt"] * cadence
                     + [out_path / "last.ckpt"] * end)
            save_checkpoint(self.params, *ckpts)
            report.checkpoint_paths += map(str, ckpts)
            write_atomic(out_path / "metrics.jsonl",
                         "".join(line + "\n" for line in report.metric_lines()).encode("utf-8"))


def fine_tune(samples: list[SerializedSample], vocab: Vocab,
              params: ModelParams, cfg: TrainConfig,
              out_dir: str | Path | None = None) -> tuple[ModelParams, TrainReport]:
    """Train the model on serialized samples; returns updated params + report.

    A loop over ``TrainState``'s steps: each trains, probes novelty when one
    is due, and ends with ``end_step``, which closes an interval every
    ``checkpoint_interval`` steps and at the end of the run.  Novelty probes
    run greedy generation from the first ``NOVELTY_PROBES`` training prompts
    and score retrieval against the training corpus; one scoring below
    ``early_stop_novelty`` ends the run at its step.
    """
    if not samples:
        raise TrainingError("empty corpus")
    context = params.config.context_len
    sequences = [encode_sample(s, vocab) for s in samples]
    for i, seq in enumerate(sequences):
        if len(seq) > context:
            raise TrainingError(
                f"sample {i} needs {len(seq)} positions but context is {context}")

    train_idx, held_idx = heldout_split(samples, cfg.heldout_fraction)
    if not train_idx:
        raise TrainingError("held-out split left no training samples")
    report = TrainReport(train_indices=train_idx, heldout_indices=held_idx)
    train_seqs = [sequences[i] for i in train_idx]
    held_seqs = [sequences[i] for i in held_idx]

    index = None
    probe_prompts: list[list[int]] = []
    if cfg.novelty_eval_interval > 0:
        index = NoveltyIndex.from_samples([samples[i] for i in train_idx])
        probe_prompts = [[vocab.bos_id] + vocab_mod.encode(samples[i].prompt, vocab)
                         for i in train_idx[:NOVELTY_PROBES]]

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    state = TrainState(cfg, report, params, AdamState.zeros_like(params),
                       np.random.default_rng(cfg.seed))
    started = time.perf_counter()
    while state.step < cfg.max_steps and not report.stopped_early:
        state.train_step(train_seqs)
        if index is not None and state.step % cfg.novelty_eval_interval == 0:
            state.probe_novelty(probe_prompts, index, vocab)
        state.end_step(held_seqs, out_path)
    report.steps_run = state.step
    report.wall_clock_sec = time.perf_counter() - started
    return state.params, report
