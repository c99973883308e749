"""Autoregressive generation with truncated top-k sampling.

A prompt is the serialized prefix ``form + id1 + theme + id2``; the model
then decodes the body token by token until it emits EOS.  No hard form
constraint is applied while decoding: the candidate set at each step is
just the k highest-probability tokens (structural tokens masked out), and
one of them is sampled from the renormalized distribution.

Decoding is incremental: one forward pass over the prompt fills a per-layer
key/value cache, and each later step feeds only the newest token through
the same forward path, so a step costs O(length) instead of a full
recompute of the prefix.  The candidates of one request decode together:
they share the prompt pass, and each step feeds the newest token of every
unfinished candidate as one batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, deserialize
from .errors import GutiError, SamplingError
from .forms import MARKER_RE, FormCatalog
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

    @cached_property
    def forbid_ids(self) -> np.ndarray:
        """``forbid`` as an index array, built once per config."""
        return np.fromiter(self.forbid or (), dtype=np.intp)


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
    marker = MARKER_RE.search(theme)
    if marker:
        raise SamplingError(f"theme contains identifier marker {marker[0]!r}")
    id1, id2 = spec.markers
    text = spec.form_id + id1 + theme + id2
    return [vocab.bos_id] + vocab_mod.encode(text, vocab)


def top_k_distribution(logits: np.ndarray, cfg: SampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ids (k highest logits, ties to the lower id) and their
    renormalized softmax(logits/temperature) probabilities."""
    logits = np.array(logits, dtype=np.float64).reshape(-1)   # a copy, masked below
    logits[cfg.forbid_ids] = -np.inf
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
    decode_ms: float = field(compare=False)   # later steps, until this one finished


def generate(params: ModelParams, prompt: list[int], cfg: SampleConfig,
             vocab: Vocab) -> GenerationResult:
    """Decode token-by-token until EOS, max_new_tokens, or context is full."""
    return _decode(params, prompt, cfg, [cfg.seed], vocab)[0]


def _decode(params: ModelParams, prompt: list[int], cfg: SampleConfig,
            seeds: list[int], vocab: Vocab) -> list[GenerationResult]:
    """Decode one candidate per seed from ``prompt``, all in one batch.

    One prompt pass at batch size 1 fills the K/V cache, which is then
    repeated to one row per candidate.  Every later step feeds the newest
    token of each live candidate as one (n_live, 1) batch; a candidate that
    emits EOS leaves the batch and the cache.  Each candidate samples from
    its own logits row with its own ``Generator(seed)``, so it decodes the
    tokens a separate ``generate`` call with that seed would: a batch row's
    logits differ from a batch of one only in float rounding.
    """
    context_len = params.config.context_len
    if not prompt:
        raise SamplingError("empty prompt")
    if len(prompt) > context_len:
        raise SamplingError(f"prompt length {len(prompt)} exceeds context "
                            f"{context_len}")
    if cfg.forbid is None:
        cfg = replace(cfg, forbid=default_forbid(vocab))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    bodies: list[list[int]] = [[] for _ in seeds]
    t_eos: list[float | None] = [None] * len(seeds)   # when each emitted EOS
    t0 = time.perf_counter()
    t_first = None
    live = list(range(len(seeds)))      # the candidate each next row decodes
    src = [0] * len(seeds)              # the logits and cache row it reads
    kv: list = []
    tokens = np.asarray([prompt])
    for _ in range(min(cfg.max_new_tokens, context_len - len(prompt))):
        b, s = tokens.shape
        logits = forward(params, tokens, kv=kv, rows=(np.arange(b), np.full(b, s - 1)))
        picks = [top_k_sample(logits[r], cfg, rngs[c]) for r, c in zip(src, live)]
        now = time.perf_counter()
        t_first = now if t_first is None else t_first
        keep = []
        for j, (c, nxt) in enumerate(zip(live, picks)):
            if nxt == vocab.eos_id:
                t_eos[c] = now
            else:
                bodies[c].append(nxt)
                keep.append(j)
        if not keep:
            break
        rows = [src[j] for j in keep]
        if rows != list(range(b)):
            kv[:] = [(k[rows], v[rows]) for k, v in kv]
        live = [live[j] for j in keep]
        src = list(range(len(keep)))
        tokens = np.asarray([[picks[j]] for j in keep])
    t_last = time.perf_counter()
    t_first = t_last if t_first is None else t_first
    return [GenerationResult(token_ids=tuple(body),
                             text=vocab_mod.decode(body, vocab),
                             truncated=end is None,
                             prompt_ms=1e3 * (t_first - t0),
                             decode_ms=1e3 * ((t_last if end is None else end) - t_first))
            for body, end in zip(bodies, t_eos)]


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

    The n candidates decode as one batch that shares the prompt pass; each
    decodes the body a separate ``generate`` call with its seed gives.
    Per-candidate failures (unparseable body, validation errors) are
    recorded on the candidate; the batch itself never aborts.
    """
    if n < 0:
        raise SamplingError(f"candidate count must be >= 0, got {n}")
    prompt = build_prompt(form_id, theme, catalog, vocab, acrostic=acrostic)
    prompt_text = vocab_mod.decode(prompt, vocab)
    seeds = [int(np.random.default_rng([cfg.seed, i]).integers(0, 2 ** 31))
             for i in range(n)]
    outs = _decode(params, prompt, cfg, seeds, vocab) if seeds else []
    report = BatchReport()
    for i, (seed, out) in enumerate(zip(seeds, outs)):
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
