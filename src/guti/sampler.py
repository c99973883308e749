"""Autoregressive generation with truncated top-k sampling.

A prompt is the serialized prefix ``form + id1 + theme + id2``; the model
then decodes the body token by token until it emits EOS.  No hard form
constraint is applied while decoding: the candidate set at each step is
just the k highest-probability tokens (structural tokens masked out), and
one of them is sampled from the renormalized distribution.

Decoding is incremental: one checked ``forward`` over the prompt fills a
preallocated key/value cache (``model.KVCache``), and each later step
feeds only the newest token through the same forward pass, called without
``forward``'s id check since the loop drew the ids itself, so a step costs
O(length) instead of a full recompute of the prefix.  One loop decodes
the candidates of one or more prompts together, for ``generate``,
``generate_batch`` and the trainer's novelty probes: prompts of different
lengths share one prompt pass, and each step feeds the newest token of
every unfinished candidate as one batch.  A top-k draw is one partition
of the logits row, one stable sort of the ids at or above the k-th logit,
a softmax over them and ``Generator.choice``'s inverse-CDF draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, SerializedSample, deserialize
from .errors import GutiError, SamplingError
from .forms import MARKER_RE, FormCatalog
from .model import KVCache, ModelParams, _forward_impl, forward, softmax_inplace
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
        if not self.temperature > 0:       # NaN fails this too
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


def _prompt_text(form_id: str, theme: str, catalog: FormCatalog, acrostic: bool) -> str:
    """``form + id1 + theme + id2``, re-pointed at the acrostic variant on request."""
    spec = catalog.resolve(form_id)
    if acrostic and not spec.acrostic:
        if spec.acrostic_id is None:
            raise SamplingError(f"form {form_id!r} has no acrostic variant")
        spec = catalog.resolve(spec.acrostic_id)
    marker = MARKER_RE.search(theme)
    if marker:
        raise SamplingError(f"theme contains identifier marker {marker[0]!r}")
    id1, id2 = spec.markers
    return SerializedSample(spec.form_id, id1, theme, id2, body="").prompt


def build_prompt(form_id: str, theme: str, catalog: FormCatalog, vocab: Vocab,
                 acrostic: bool = False) -> list[int]:
    """Token ids of ``form + id1 + theme + id2`` (markers atomic, BOS first).

    With ``acrostic=True`` the form is re-pointed at its acrostic variant
    so the prompt carries the acrostic identifier token.
    """
    text = _prompt_text(form_id, theme, catalog, acrostic)
    return [vocab.bos_id] + vocab_mod.encode(text, vocab)


def top_k_distribution(logits: np.ndarray, cfg: SampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ids (k highest logits, ties to the lower id) and their
    renormalized softmax(logits/temperature) probabilities, or its limit
    where logits/temperature overflows: the ids tied at the top share the mass."""
    logits = np.array(logits, dtype=np.float64).reshape(-1)   # a copy, masked below
    logits[cfg.forbid_ids] = -np.inf
    size, k = logits.size, min(cfg.k, logits.size)
    # one O(V) partition places the k-th highest logit and the highest
    part = np.partition(logits, (size - k, size - 1))
    kth, hi = part[size - k], part[-1]
    if hi == -np.inf:
        raise SamplingError("every token is masked")
    if not hi < np.inf:       # NaN or +inf
        raise SamplingError("non-finite logits")
    # the ids at or above it come in id order, so a stable sort on the
    # negated logit keeps equal logits lowest id first
    (top,) = (logits >= kth).nonzero()
    top = top[(-logits[top]).argsort(kind="stable")[:k]]
    z, t = logits[top], cfg.temperature
    if kth == -np.inf:        # fewer than k ids unmasked
        top, z = top[z > -np.inf], z[z > -np.inf]
    if max(float(z[0]), -float(z[-1])) / t == np.inf:
        tied = z == z[0]
        return top, tied / np.add.reduce(tied)
    return top, softmax_inplace(z / t if t != 1.0 else z)    # x / 1 is x


def top_k_sample(logits: np.ndarray, cfg: SampleConfig,
                 rng: np.random.Generator) -> int:
    """Sample one token id from the truncated distribution: the inverse-CDF
    draw ``rng.choice(candidates, p=p)`` makes, without its argument checks."""
    candidates, p = top_k_distribution(logits, cfg)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(candidates[cdf.searchsorted(rng.random(), side="right")])


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
    return _decode(params, [prompt], [[cfg.seed]], cfg, vocab)[0]


def _decode(params: ModelParams, prompts: list[list[int]], seeds: list[list[int]],
            cfg: SampleConfig, vocab: Vocab) -> list[GenerationResult]:
    """Decode one candidate per seed in ``seeds[p]`` from ``prompts[p]``,
    all in one batch; returns them prompt by prompt, in seed order.

    One ragged prompt pass, a row per prompt, fills the K/V cache, which
    is then repeated to one row per candidate.  Every later step feeds the
    newest token of each live candidate as one (n_live, 1) batch; a
    candidate leaves at EOS or at its prompt's budget, min(max_new_tokens,
    context_len - len(prompt)).  Each samples from its own logits row with
    its own ``Generator(seed)``, so it decodes the tokens a ``generate``
    call with its prompt and seed would: a batch row's logits differ from
    a batch of one only in float rounding.  ``prompt_ms`` is the shared
    prompt pass, to each candidate's first token; ``decode_ms`` the rest.
    """
    context_len = params.config.context_len
    width = max(map(len, prompts))
    if not all(prompts):
        raise SamplingError("empty prompt")
    if width > context_len:
        raise SamplingError(f"prompt length {width} exceeds context {context_len}")
    if cfg.forbid is None:
        cfg = replace(cfg, forbid=default_forbid(vocab))
    budget = [min(cfg.max_new_tokens, context_len - len(prompt)) for prompt in prompts]
    prompt_of = [p for p, row in enumerate(seeds) for _ in row]
    rngs = [np.random.default_rng(seed) for row in seeds for seed in row]
    bodies: list[list[int]] = [[] for _ in prompt_of]
    decode_ms = [0.0] * len(prompt_of)
    t0, t_first = time.perf_counter(), None
    live = [c for c, p in enumerate(prompt_of) if budget[p]]   # each row's candidate
    src = [prompt_of[c] for c in live]                  # and the row it reads
    kv = KVCache(params, len(prompts), max(len(p) + n for p, n in zip(prompts, budget)))
    tokens = np.array([prompt + [vocab.pad_id] * (width - len(prompt)) for prompt in prompts])
    # the prompt pass projects each prompt's last position; a step has only one
    rows = (np.arange(len(prompts)), [len(prompt) - 1 for prompt in prompts])
    while live:     # only the prompt pass checks ids: a step's are the loop's own draws
        logits = (_forward_impl(params, tokens, False, None, False, kv)[0] if rows is None
                  else forward(params, tokens, kv=kv, rows=rows)).reshape(len(tokens), -1)
        picks = [top_k_sample(logits[r], cfg, rngs[c]) for r, c in zip(src, live)]
        now = time.perf_counter()
        t_first = now if t_first is None else t_first
        keep = []
        for j, (c, nxt) in enumerate(zip(live, picks)):
            decode_ms[c] = 1e3 * (now - t_first)     # up to its last step
            if nxt != vocab.eos_id:
                bodies[c].append(nxt)
                if len(bodies[c]) < budget[prompt_of[c]]:
                    keep.append(j)
        if keep and [src[j] for j in keep] != list(range(len(tokens))):
            kv.select([src[j] for j in keep])
        live, src = [live[j] for j in keep], list(range(len(keep)))
        tokens, rows = np.asarray([[picks[j]] for j in keep]), None
    prompt_ms = 0.0 if t_first is None else 1e3 * (t_first - t0)
    # a candidate that stopped short of its budget emitted EOS
    return [GenerationResult(token_ids=tuple(body), text=vocab_mod.decode(body, vocab),
                             truncated=len(body) == budget[p], prompt_ms=prompt_ms,
                             decode_ms=ms)
            for body, p, ms in zip(bodies, prompt_of, decode_ms)]


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
    # the text asked for: decoding the prompt ids would drop UNK characters
    prompt_text = _prompt_text(form_id, theme, catalog, acrostic)
    prompt = [vocab.bos_id] + vocab_mod.encode(prompt_text, vocab)
    seeds = [int(np.random.default_rng([cfg.seed, i]).integers(0, 2 ** 31))
             for i in range(n)]
    outs = _decode(params, [prompt], [seeds], cfg, vocab) if seeds else []
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
