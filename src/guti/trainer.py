"""Fine-tuning loop: Adam updates, checkpointing, novelty tracking.

Training drives the language model toward maximizing sequence
log-likelihood; because small corpora overfit quickly, the loop can probe
how much of its greedy output is retrieved verbatim from the training
corpus (novelty 0 = pure retrieval) and optionally stop early on that
signal.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, SerializedSample, parse_body
from .errors import GutiError, TrainingError
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
from .vocab import Vocab


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 16
    max_steps: int = 2000
    warmup_steps: int = 100
    checkpoint_interval: int = 500
    novelty_eval_interval: int = 0      # 0 disables novelty probes
    seed: int = 0
    heldout_fraction: float = 0.05
    early_stop_novelty: float | None = None   # stop when probe novelty drops below

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise TrainingError("heldout_fraction must lie in [0, 1)")
        for name in ("max_steps", "warmup_steps", "checkpoint_interval",
                     "novelty_eval_interval"):
            if getattr(self, name) < 0:
                raise TrainingError(f"{name} must be >= 0")


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

    Raises TrainingError on any non-finite gradient so the caller can
    abort the step and report it.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r}")
    t = state.t + 1
    b1, b2 = cfg.beta1, cfg.beta2
    lr = cfg.learning_rate * lr_scale
    new_tensors, new_m, new_v = {}, {}, {}
    for name, p in params.tensors.items():
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_tensors[name] = (p - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)).astype(p.dtype)
        new_m[name], new_v[name] = m, v
    return (ModelParams(params.config, new_tensors), AdamState(new_m, new_v, t))


# ---------------------------------------------------------------------------
# Novelty: how much generated text is retrieved verbatim from the corpus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoveltyResult:
    score: float                 # 1 - fraction of lines found verbatim
    verbatim_lines: int
    total_lines: int
    max_overlap: int             # longest common substring with the corpus
    shares_ngram: bool


def _suffix_array(text: str) -> np.ndarray:
    """Start offsets of ``text``'s suffixes in code-point order (prefix doubling).

    Each round sorts on one int64 key, the rank of a suffix's first k code
    points times (n + 1) plus one more than the rank of the next k (0 past
    the end, so a shorter suffix sorts first), then re-ranks; it stops once
    every rank is distinct, after at most log2(n) rounds.
    """
    n = len(text)
    codes = np.fromiter(map(ord, text), dtype=np.int64, count=n)
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    sa = np.argsort(rank)
    k = 1
    while n and rank[sa[-1]] < n - 1:
        nxt = np.zeros(n, dtype=np.int64)
        nxt[:n - k] = rank[k:] + 1
        key = rank * (n + 1) + nxt
        sa = np.argsort(key)
        ordered = key[sa]
        rank[sa] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        k *= 2
    return sa


class NoveltyIndex:
    """Line-level exact-match set plus a suffix array of the corpus text.

    Poems are joined with "\n", which no query holds, so a common substring
    never spans two poems and ``shares_ngram`` is ``max_overlap >= NGRAM``.

    The suffix array is sorted once, in O(n log n) numpy work over the n
    corpus characters. ``max_overlap``, the longest substring a query shares
    with the corpus text, then costs O(m) binary searches for an m-character
    query, each O(log n) string comparisons.
    """

    NGRAM = 5

    def __init__(self, line_set: set[str], corpus_text: str):
        self._lines = line_set
        self._corpus_text = corpus_text
        self._suffixes = _suffix_array(corpus_text)

    @classmethod
    def _from_lines(cls, poems: Iterable[list[str]]) -> "NoveltyIndex":
        line_set: set[str] = set()
        chunks: list[str] = []
        for lines in poems:
            line_set.update(lines)
            chunks.append("".join(lines))
        return cls(line_set, "\n".join(chunks))

    @classmethod
    def from_texts(cls, body_texts: list[str]) -> "NoveltyIndex":
        return cls._from_lines([ln.characters for ln in parse_body(text)]
                               for text in body_texts)

    @classmethod
    def from_samples(cls, samples: list[SerializedSample]) -> "NoveltyIndex":
        """Index the bodies of serialized samples without parsing them again.

        A serialized body is canonical: lines of CJK characters, each closed
        by a comma or a period, the last one possibly by the end of the text.
        """
        def lines(sample):
            start, end = sample.field_spans["body"]
            parts = sample.text[start:end].replace(PERIOD, COMMA).split(COMMA)
            return parts[:-1] if not parts[-1] else parts

        return cls._from_lines(lines(s) for s in samples)

    def _max_overlap(self, chars: str) -> int:
        """Length of the longest substring of ``chars`` found in the corpus."""
        text, sa, best = self._corpus_text, self._suffixes, 0
        for i in range(len(chars)):
            # grow the best length while chars[i:i + best + 1] occurs
            while i + best < len(chars):
                q = chars[i:i + best + 1]
                j = bisect.bisect_left(sa, q, key=lambda p: text[p:p + len(q)])
                if j == len(sa) or text[sa[j]:sa[j] + len(q)] != q:
                    break
                best += 1
        return best

    def score_lines(self, lines: list[str]) -> NoveltyResult:
        if not lines:
            raise TrainingError("cannot score an empty poem")
        hits = sum(1 for ln in lines if ln in self._lines)
        overlap = self._max_overlap("".join(lines))
        return NoveltyResult(score=1.0 - hits / len(lines),
                             verbatim_lines=hits, total_lines=len(lines),
                             max_overlap=overlap,
                             shares_ngram=overlap >= self.NGRAM)


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


def _split_key(sample: SerializedSample) -> str:
    return sample.source_id if sample.source_id is not None else sample.text


def heldout_split(samples: list[SerializedSample],
                  fraction: float) -> tuple[list[int], list[int]]:
    """Deterministic split by hash of each sample's source id (or text)."""
    train, held = [], []
    cut = int(round(fraction * 10000))
    for i, sample in enumerate(samples):
        digest = hashlib.sha1(_split_key(sample).encode("utf-8")).hexdigest()
        (held if int(digest[:8], 16) % 10000 < cut else train).append(i)
    return train, held


def encode_sample(sample: SerializedSample, vocab: Vocab) -> list[int]:
    return [vocab.bos_id] + vocab_mod.encode(sample.text, vocab) + [vocab.eos_id]


def make_batch(sequences: list[list[int]], pad_id: int) -> SequenceBatch:
    width = max(len(s) for s in sequences)
    tokens = np.full((len(sequences), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(sequences), width), dtype=np.float64)
    for i, seq in enumerate(sequences):
        tokens[i, :len(seq)] = seq
        mask[i, 1:len(seq)] = 1.0
    return SequenceBatch(tokens=tokens, loss_mask=mask)


def _eval_nll(params: ModelParams, sequences: list[list[int]], pad_id: int,
              batch_size: int) -> float:
    total, count = 0.0, 0.0
    for start in range(0, len(sequences), batch_size):
        batch = make_batch(sequences[start:start + batch_size], pad_id)
        logits = forward(params, batch.tokens, rows=loss_rows(batch))
        loss = nll_loss(logits, batch)
        n = float(batch.loss_mask.sum())
        total += loss * n
        count += n
    return total / count if count else float("nan")


NOVELTY_PROBES = 5      # novelty probes prompt with this many training samples


def _probe_novelty(params, probe_prompts, index, vocab, max_new_tokens):
    from .sampler import SampleConfig, generate  # imported here: avoids a cycle

    scores = []
    cfg = SampleConfig(k=1, max_new_tokens=max_new_tokens, seed=0)
    for prompt_ids in probe_prompts:
        out = generate(params, prompt_ids, cfg, vocab)
        if not out.token_ids:
            continue
        try:
            lines = [ln.characters for ln in parse_body(out.text)]
        except GutiError:
            continue   # not yet parseable as a poem body; skip the probe
        scores.append(index.score_lines(lines).score)
    return float(np.mean(scores)) if scores else None


def fine_tune(samples: list[SerializedSample], vocab: Vocab,
              params: ModelParams, cfg: TrainConfig,
              out_dir: str | Path | None = None) -> tuple[ModelParams, TrainReport]:
    """Train the model on serialized samples; returns updated params + report.

    Checkpoints are written every ``checkpoint_interval`` steps when
    ``out_dir`` is given, with held-out loss evaluated at the same cadence.
    Novelty probes run greedy generation from the first ``NOVELTY_PROBES``
    training prompts and score retrieval against the training corpus.
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
        for i in train_idx[:NOVELTY_PROBES]:
            sample = samples[i]
            end = sample.field_spans["id2"][1]
            probe_prompts.append(
                [vocab.bos_id] + vocab_mod.encode(sample.text[:end], vocab))

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(cfg.seed)
    state = AdamState.zeros_like(params)
    order: list[int] = []
    window_losses: list[float] = []
    started = time.time()
    step = 0

    def record_interval():
        rec = {
            "step": step,
            "train_loss": float(np.mean(window_losses)) if window_losses else None,
            "heldout_loss": (_eval_nll(params, held_seqs, vocab.pad_id,
                                       cfg.batch_size) if held_seqs else None),
        }
        report.intervals.append(rec)
        window_losses.clear()

    while step < cfg.max_steps:
        if len(order) < cfg.batch_size:
            perm = rng.permutation(len(train_seqs)).tolist()
            order.extend(perm)
        picks = [order.pop(0) for _ in range(min(cfg.batch_size, len(order)))]
        batch = make_batch([train_seqs[i] for i in picks], vocab.pad_id)
        loss, grads = backward(params, batch, train_mode=True, rng=rng)
        step += 1
        lr_scale = min(1.0, step / cfg.warmup_steps) if cfg.warmup_steps else 1.0
        try:
            params, state = adam_step(params, grads, state, cfg, lr_scale)
        except TrainingError:
            report.skipped_nonfinite += 1
        else:
            window_losses.append(loss)
            report.step_losses.append(loss)

        if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
            record_interval()
            if out_path is not None:
                ckpt = out_path / f"step-{step:06d}.ckpt"
                save_checkpoint(params, ckpt)
                report.checkpoint_paths.append(str(ckpt))
        if index is not None and step % cfg.novelty_eval_interval == 0:
            score = _probe_novelty(params, probe_prompts, index, vocab,
                                   max_new_tokens=context)
            report.novelty.append({"step": step, "novelty": score})
            if (score is not None and cfg.early_stop_novelty is not None
                    and score < cfg.early_stop_novelty):
                report.stopped_early = True
                break

    if window_losses and step > 0:
        record_interval()
    if out_path is not None and step > 0:
        ckpt = out_path / "last.ckpt"
        save_checkpoint(params, ckpt)
        report.checkpoint_paths.append(str(ckpt))
        write_atomic(out_path / "metrics.jsonl",
                     ("\n".join(report.metric_lines()) + "\n").encode("utf-8"))
    report.steps_run = step
    report.wall_clock_sec = time.time() - started
    return params, report
