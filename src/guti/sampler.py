"""Autoregressive generation with truncated top-k sampling.

A prompt is the serialized prefix ``form + id1 + theme + id2``; the model
then decodes the body token by token until it emits EOS.  No hard form
constraint is applied while decoding: the candidate set at each step is
just the k highest-probability tokens (structural tokens masked out), and
one of them is sampled from the renormalized distribution.

Decoding is incremental: one forward pass over the prompt fills a per-layer
key/value cache, and each later step feeds only the newest token through
the same forward path, so a step costs O(length) instead of a full
recompute of the prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, deserialize
from .errors import GutiError, SamplingError
from .forms import ALL_MARKERS, FormCatalog
from .model import ModelParams, forward
from .validator import PhonologyTable, ValidationReport, validate
from .vocab import Vocab


@dataclass(frozen=True)
class SampleConfig:
    k: int = 20
    temperature: float = 1.0
    max_new_tokens: int = 256
    seed: int = 0
    forbid: frozenset[int] | None = None   # None = mask structural tokens

    def __post_init__(self):
        if self.k < 1:
            raise SamplingError("k must be >= 1")
        if self.temperature <= 0:
            raise SamplingError("temperature must be > 0")
        if self.max_new_tokens < 0:
            raise SamplingError("max_new_tokens must be >= 0")


def default_forbid(vocab: Vocab) -> frozenset[int]:
    """Structural ids never sampled into a body: UNK, PAD, BOS, markers."""
    return frozenset((vocab.unk_id, vocab.pad_id, vocab.bos_id) + vocab.marker_ids)


def build_prompt(form_id: str, theme: str, catalog: FormCatalog, vocab: Vocab,
                 acrostic: bool = False) -> list[int]:
    """Token ids of ``form + id1 + theme + id2`` (markers atomic, BOS first).

    With ``acrostic=True`` the form is re-pointed at its acrostic variant
    so the prompt carries the acrostic identifier token.
    """
    spec = catalog.resolve(form_id)
    if acrostic and not spec.acrostic:
        if spec.acrostic_id is None:
            raise SamplingError(f"form {form_id!r} has no acrostic variant")
        spec = catalog.resolve(spec.acrostic_id)
    for marker in ALL_MARKERS:
        if marker in theme:
            raise SamplingError(f"theme contains identifier marker {marker!r}")
    id1, id2 = spec.markers
    text = spec.form_id + id1 + theme + id2
    return [vocab.bos_id] + vocab_mod.encode(text, vocab)


def top_k_distribution(logits: np.ndarray, cfg: SampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ids (k highest logits, ties to the lower id) and their
    renormalized softmax(logits/temperature) probabilities."""
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if cfg.forbid:
        logits = logits.copy()
        logits[list(cfg.forbid)] = -np.inf
    hi = logits.max()
    if hi == -np.inf:
        raise SamplingError("every token is masked")
    if not hi < np.inf:       # NaN or +inf
        raise SamplingError("non-finite logits")
    k = min(cfg.k, logits.size)
    # the k-th highest logit in O(V); the ids at or above it come in id
    # order, so a stable sort on the logit keeps equal logits lowest id first
    kth = np.partition(logits, logits.size - k)[logits.size - k]
    top = np.flatnonzero(logits >= kth)
    top = top[np.argsort(-logits[top], kind="stable")[:k]]
    candidates = top[logits[top] > -np.inf]
    z = logits[candidates] / cfg.temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return candidates, p


def top_k_sample(logits: np.ndarray, cfg: SampleConfig,
                 rng: np.random.Generator) -> int:
    """Sample one token id from the truncated distribution."""
    candidates, p = top_k_distribution(logits, cfg)
    return int(rng.choice(candidates, p=p))


@dataclass(frozen=True)
class GenerationResult:
    token_ids: tuple[int, ...]      # body tokens (after id2, EOS excluded)
    text: str
    truncated: bool                 # ran out of budget/context before EOS
    # wall time, not part of the result's value: equal decodes compare equal
    prompt_ms: float = field(compare=False)   # prompt pass to first sampled token
    decode_ms: float = field(compare=False)   # every later decode step


def generate(params: ModelParams, prompt: list[int], cfg: SampleConfig,
             vocab: Vocab) -> GenerationResult:
    """Decode token-by-token until EOS, max_new_tokens, or context is full."""
    context_len = params.config.context_len
    if not prompt:
        raise SamplingError("empty prompt")
    if len(prompt) > context_len:
        raise SamplingError(f"prompt length {len(prompt)} exceeds context "
                            f"{context_len}")
    if cfg.forbid is None:
        cfg = replace(cfg, forbid=default_forbid(vocab))
    rng = np.random.default_rng(cfg.seed)
    kv: list = []
    step = list(prompt)       # tokens not yet in the cache
    body: list[int] = []
    truncated = True
    t0 = time.perf_counter()
    t_first = None
    for _ in range(cfg.max_new_tokens):
        if len(prompt) + len(body) >= context_len:
            break
        logits = forward(params, np.asarray([step]), kv=kv)[0, -1]
        nxt = top_k_sample(logits, cfg, rng)
        if t_first is None:
            t_first = time.perf_counter()
        if nxt == vocab.eos_id:
            truncated = False
            break
        step = [nxt]
        body.append(nxt)
    t_end = time.perf_counter()
    t_first = t_end if t_first is None else t_first
    return GenerationResult(token_ids=tuple(body),
                            text=vocab_mod.decode(body, vocab),
                            truncated=truncated,
                            prompt_ms=1e3 * (t_first - t0),
                            decode_ms=1e3 * (t_end - t_first))


@dataclass
class Candidate:
    index: int
    seed: int
    text: str                       # full serialized text (prompt + body)
    body_text: str
    truncated: bool
    prompt_ms: float = field(compare=False)
    decode_ms: float = field(compare=False)
    tokens: int                     # body tokens decoded
    poem: Poem | None = None
    report: ValidationReport | None = None
    error: str | None = None

    @property
    def well_formed(self) -> bool:
        return self.report is not None and self.report.well_formed


@dataclass
class BatchReport:
    candidates: list[Candidate] = field(default_factory=list)

    @property
    def well_formed_fraction(self) -> float | None:
        if not self.candidates:
            return None
        return sum(1 for c in self.candidates if c.well_formed) / len(self.candidates)


def generate_batch(params: ModelParams, form_id: str, theme: str, n: int,
                   cfg: SampleConfig, vocab: Vocab, catalog: FormCatalog,
                   table: PhonologyTable | None = None,
                   acrostic: bool = False,
                   strict_phonology: bool = False) -> BatchReport:
    """Generate n candidates with derived seeds and validate each one.

    Per-candidate failures (unparseable body, validation errors) are
    recorded on the candidate; the batch itself never aborts.
    """
    prompt = build_prompt(form_id, theme, catalog, vocab, acrostic=acrostic)
    prompt_text = vocab_mod.decode(prompt, vocab)
    report = BatchReport()
    for i in range(n):
        seed = int(np.random.default_rng([cfg.seed, i]).integers(0, 2 ** 31))
        out = generate(params, prompt, replace(cfg, seed=seed), vocab)
        cand = Candidate(index=i, seed=seed, text=prompt_text + out.text,
                         body_text=out.text, truncated=out.truncated,
                         prompt_ms=out.prompt_ms, decode_ms=out.decode_ms,
                         tokens=len(out.token_ids))
        try:
            cand.poem = deserialize(cand.text, catalog)
            cand.report = validate(cand.poem, catalog, table,
                                   strict_phonology=strict_phonology)
        except GutiError as exc:
            cand.error = str(exc)
        report.candidates.append(cand)
    return report
