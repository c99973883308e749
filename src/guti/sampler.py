"""Autoregressive generation with truncated top-k sampling.

A prompt is the serialized prefix ``form + id1 + theme + id2``; the model
then decodes the body token by token until it emits EOS.  No hard form
constraint is applied while decoding: the candidate set at each step is
just the k highest-probability tokens (structural tokens masked out), and
one of them is sampled from the renormalized distribution.

Decoding is incremental: one checked ``forward`` over the prompt fills a
preallocated key/value cache (``model.KVCache``), and each later step
feeds only the newest token through the same forward pass, called without
``forward``'s checks since the loop drew the ids itself and sized the
cache, so a step costs O(length) instead of a full recompute of the
prefix.  One loop decodes the candidates of one or more prompts together,
for ``generate``, ``generate_batch`` and the trainer's novelty probes:
prompts of different lengths share one prompt pass, and each step feeds
the newest token of every unfinished candidate as one batch.  A top-k
draw masks a float64 copy of the logits row, takes one partition of it,
one stable sort of the ids at or above the k-th logit, a softmax over
them and ``Generator.choice``'s inverse-CDF draw; a greedy draw (k=1) is
the masked row's argmax, with the one uniform ``choice`` would draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import vocab as vocab_mod
from .corpus import Poem, SerializedSample, check_theme, deserialize, normalize_theme
from .errors import GutiError, SamplingError, check_counts
from .forms import FormCatalog
from .model import KVCache, ModelParams, _forward_impl, forward, softmax_inplace
from .validator import PhonologyTable, ValidationReport, validate
from .vocab import Vocab


@dataclass(frozen=True)
class SampleConfig:
    k: int = 20
    temperature: float = 1.0
    max_new_tokens: int = 256
    seed: int = 0
    forbid: frozenset[int] | None = None   # None: _decode masks default_forbid, top_k_* nothing

    def __post_init__(self):
        check_counts(SamplingError, 1, k=self.k)
        # numpy takes no negative seed
        check_counts(SamplingError, 0, max_new_tokens=self.max_new_tokens, seed=self.seed)
        for i in self.forbid or ():     # the range needs V: ``_decode`` checks it
            check_counts(SamplingError, forbid_id=i)
        if not self.temperature > 0:       # NaN fails this too
            raise SamplingError("temperature must be > 0")

    @cached_property
    def forbid_ids(self) -> np.ndarray:
        """``forbid`` as an index array, built once per config."""
        return np.fromiter(self.forbid or (), dtype=np.intp)


def default_forbid(vocab: Vocab) -> frozenset[int]:
    """Structural ids never sampled into a body: UNK, PAD, BOS, markers."""
    return frozenset((vocab.unk_id, vocab.pad_id, vocab.bos_id) + vocab.marker_ids)


def _prompt(form_id: str, theme: str, catalog: FormCatalog, vocab: Vocab,
            acrostic: bool) -> tuple[str, list[int]]:
    """(text, ids) of ``form + id1 + theme + id2``, re-pointed at the acrostic variant on request."""
    spec = (catalog.acrostic_variant(form_id, SamplingError) if acrostic
            else catalog.resolve(form_id))
    theme = normalize_theme(theme)
    check_theme(theme, SamplingError)
    id1, id2 = spec.markers
    text = SerializedSample(spec.form_id, id1, theme, id2, body="").prompt
    return text, [vocab.bos_id] + vocab_mod.encode(text, vocab)


def build_prompt(form_id: str, theme: str, catalog: FormCatalog, vocab: Vocab,
                 acrostic: bool = False) -> list[int]:
    """Token ids of ``form + id1 + theme + id2`` (markers atomic, BOS first).

    The theme is cleaned and checked as a corpus record's is, so the prompt
    is the prefix training saw.  With ``acrostic=True`` the form is
    re-pointed at its acrostic variant so the prompt carries the acrostic
    identifier token.
    """
    return _prompt(form_id, theme, catalog, vocab, acrostic)[1]


def _masked(logits: np.ndarray, cfg: SampleConfig) -> np.ndarray:
    """A float64 copy of the logits row with the forbidden ids at -inf."""
    logits = np.array(logits, dtype=np.float64).reshape(-1)
    logits[cfg.forbid_ids] = -np.inf
    return logits


def _check_top(top) -> None:
    """SamplingError unless the highest masked logit is a number below +inf."""
    if top == -np.inf:
        raise SamplingError("every token is masked")
    if not top < np.inf:       # NaN or +inf
        raise SamplingError("non-finite logits")


def top_k_distribution(logits: np.ndarray, cfg: SampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ids (k highest logits, ties to the lower id) and their
    renormalized softmax(logits/temperature) probabilities, or its limit
    where logits/temperature overflows: the ids tied at the top share the mass."""
    logits = _masked(logits, cfg)
    size, k = logits.size, min(cfg.k, logits.size)
    # one O(V) partition places the k-th highest logit and the highest
    part = np.partition(logits, (size - k, size - 1))
    kth = part[size - k]
    _check_top(part[-1])
    # the ids at or above it come in id order, so a stable sort on the
    # negated logit keeps equal logits lowest id first
    (top,) = (logits >= kth).nonzero()
    top = top[(-logits[top]).argsort(kind="stable")[:k]]
    z, t = logits[top], cfg.temperature
    if kth == -np.inf:        # fewer than k ids unmasked
        top, z = top[z > -np.inf], z[z > -np.inf]
    if t != 1.0:              # x / 1 is x, which no finite x overflows
        if max(float(z[0]), -float(z[-1])) / t == np.inf:
            tied = z == z[0]
            return top, tied / np.add.reduce(tied)
        z = z / t
    return top, softmax_inplace(z)


def top_k_sample(logits: np.ndarray, cfg: SampleConfig,
                 rng: np.random.Generator) -> int:
    """Sample one token id from the truncated distribution: the inverse-CDF
    draw ``rng.choice(candidates, p=p)`` makes, without its argument checks.
    At k=1 the one candidate is the masked row's first highest id, found
    by one argmax; the uniform ``choice`` would draw for it is drawn and
    dropped, so the generator ends where ``choice`` leaves it."""
    if cfg.k == 1:
        logits = _masked(logits, cfg)
        best = int(logits.argmax())     # NaN ranks above every number
        _check_top(logits[best])
        rng.random()
        return best
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

    Only the prompt pass goes through ``forward`` and its checks.  The
    steps call ``_forward_impl`` directly: their ids are the loop's own
    draws, their batch is the cache's, and the cache holds every budget.
    Each row is drawn by a ``top_k_sample`` call of its own, looked up on
    this module, so a wrapper of it sees every draw.
    """
    context_len = params.config.context_len
    width = max(map(len, prompts))
    if not all(prompts):
        raise SamplingError("empty prompt")
    if width > context_len:
        raise SamplingError(f"prompt length {width} exceeds context {context_len}")
    if cfg.forbid is None:
        cfg = replace(cfg, forbid=default_forbid(vocab))
    size = params.config.vocab_size
    outside = sorted(i for i in cfg.forbid if not 0 <= i < size)
    if outside:
        raise SamplingError(f"forbid ids outside the vocabulary [0, {size}): {outside}")
    budget = [min(cfg.max_new_tokens, context_len - len(prompt)) for prompt in prompts]
    prompt_of = [p for p, row in enumerate(seeds) for _ in row]
    limit, eos = [budget[p] for p in prompt_of], vocab.eos_id     # per candidate
    rngs = [np.random.default_rng(seed) for row in seeds for seed in row]
    bodies: list[list[int]] = [[] for _ in prompt_of]
    decode_ms = [0.0] * len(prompt_of)
    t0, t_first = time.perf_counter(), None
    live = [c for c, p in enumerate(prompt_of) if budget[p]]   # each row's candidate
    src = [prompt_of[c] for c in live]                  # and the row it reads
    kv = KVCache(params, len(prompts), max(len(p) + n for p, n in zip(prompts, budget)))
    tokens = np.array([prompt + [0] * (width - len(prompt)) for prompt in prompts])
    # the grid pads with Vocab.pad_id, 0 by the layout; each prompt runs to its last position,
    # the one projected, so no pad runs; a step has one
    rows = (np.arange(len(prompts)), [len(prompt) - 1 for prompt in prompts])
    while live:     # only the prompt pass checks ids: a step's are the loop's own draws
        logits = (_forward_impl(params, tokens, None, False, kv)[0] if rows is None
                  else forward(params, tokens, kv=kv, rows=rows)).reshape(len(tokens), -1)
        picks = [top_k_sample(logits[r], cfg, rngs[c]) for r, c in zip(src, live)]
        now = time.perf_counter()
        t_first = now if t_first is None else t_first
        keep = []
        for j, (c, nxt) in enumerate(zip(live, picks)):
            decode_ms[c] = 1e3 * (now - t_first)     # up to its last step
            if nxt != eos:
                bodies[c].append(nxt)
                if len(bodies[c]) < limit[c]:
                    keep.append(j)
        kept = [src[j] for j in keep]
        if keep and kept != list(range(len(tokens))):
            kv.select(kept)
        live, src = [live[j] for j in keep], list(range(len(keep)))
        tokens, rows = np.asarray([[picks[j]] for j in keep]), None
    prompt_ms = 0.0 if t_first is None else 1e3 * (t_first - t0)
    # a candidate that stopped short of its budget emitted EOS
    return [GenerationResult(token_ids=tuple(body), text=vocab_mod.decode(body, vocab),
                             truncated=len(body) == n, prompt_ms=prompt_ms, decode_ms=ms)
            for body, n, ms in zip(bodies, limit, decode_ms)]


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
    check_counts(SamplingError, 0, n=n)
    # the prompt as text, its theme cleaned: decoding its ids would drop UNKs
    prompt_text, prompt = _prompt(form_id, theme, catalog, vocab, acrostic)
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
            cand.poem = deserialize(cand.text)
            cand.report = validate(cand.poem, catalog, table,
                                   strict_phonology=strict_phonology)
        except GutiError as exc:
            cand.error = str(exc)
        report.candidates.append(cand)
    return report
