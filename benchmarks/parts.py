"""Set-up and the three parts of a benchmark run: train, generate, corpus.

Each part calls the public functions that ``guti train``, ``guti
generate``, ``guti ingest`` and ``guti validate`` call, always through the
module attribute (``sampler.generate_batch``), so that the traced run's
wrappers see every call.  Work is done in cycles of fixed composition: the
seed draws contents (weights, themes, characters, order) but never the
amount of work, so runs with different seeds measure the same work.

A part records one operation per call it times.  An operation fails when
the call raises or when its output check fails; checks run untimed and
untraced.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from guti import cli, corpus, forms, model, phonology, sampler, trainer, validator, vocab
from guti.errors import GutiError

import probe
import synth

SMALL_MODEL = dict(n_layers=1, n_heads=2, d_model=64, d_ff=128, context_len=96)
BATCH = 16
SHUFFLE_SEED = 0            # same batches on every seed: padding waste is input, not noise
# samples per fine_tune call: 3 optimizer steps of the small model, 1 of the
# CLI-default model, so that even a short run samples each many times
OP_SAMPLES = {"small": 3 * 16, "default": 16}
CORPUS_RECORDS = 3000
MAX_SEQ_LEN = 256           # `guti ingest --max-seq-len`: the CLI-default context
COUPLET_THEME_LEN = 7
THEME_LEN = 4               # also the acrostic target length of every acrostic form
GREEDY_TOL = 1e-5           # full recompute may round differently from the decode loop

FIXTURES = ("tests/fixtures/sample_poems.jsonl", "tests/fixtures/toy_corpus.jsonl")

# The request and query mix takes the catalog as its source: every cycle
# asks for each of its 22 forms once.  古诗 have no fixed length in the
# catalog; they take the synthesizer's longest layout.
GUSHI_LINES = synth.GUSHI_LINES[-1]
# Four candidates cost four requests' decoding, so one request per cycle
# asks for n=4, rotating through the catalog; k alternates between 1 and
# 20 along it, so over two cycles each form is sampled both ways.
BATCH_N = 4
TOP_K = (1, 20)
CORPUS_SHARDS = 10          # the corpus is ingested as 10 files of 300 records


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Context:
    work: Path
    seed: int
    catalog: forms.FormCatalog
    table: phonology.PhonologyTable
    vocab: vocab.Vocab
    samples: list                  # fixture poems and their acrostic twins
    gen_params: model.ModelParams
    corpus: synth.SynthCorpus
    shards: list                   # per corpus file: (path, malformed line numbers)
    tracer: object                 # spans.Tracer


def setup(root: Path, work: Path, seed: int, tracer) -> Context:
    """Everything a run needs before its first timed operation."""
    work.mkdir(parents=True, exist_ok=True)
    catalog = forms.default_catalog()
    table = phonology.default_table()
    samples = []
    for rel in FIXTURES:
        result = corpus.ingest_corpus(root / rel, catalog)
        if result.diagnostics:
            raise GutiError(f"{rel}: {result.diagnostics[0].message}")
        for poem in result.poems:
            samples.append(corpus.serialize(poem, catalog))
            if catalog.resolve(poem.form_id).acrostic_id is not None:
                twin = corpus.acrostic_transform(poem, catalog)
                samples.append(corpus.serialize(twin, catalog))
    vocab.save_vocab(vocab.build_vocab(samples), work / "vocab.txt")
    voc = vocab.load_vocab(work / "vocab.txt")

    ckpt = work / "generate.ckpt"
    model.save_checkpoint(model.init_params(model.ModelConfig(vocab_size=voc.size), seed), ckpt)
    gen_params = model.load_checkpoint(ckpt)

    synth_corpus = synth.synthesize(catalog, table, seed, CORPUS_RECORDS)
    shards = []
    size = CORPUS_RECORDS // CORPUS_SHARDS
    for i in range(CORPUS_SHARDS):
        path = work / f"corpus-{i}.jsonl"
        path.write_text("\n".join(synth_corpus.records[i * size:(i + 1) * size]) + "\n",
                        encoding="utf-8")
        shards.append((path, {n - i * size for n in synth_corpus.malformed_lines
                              if i * size < n <= (i + 1) * size}))
    return Context(work, seed, catalog, table, voc, samples, gen_params,
                   synth_corpus, shards, tracer)


@dataclass
class Part:
    ctx: Context
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0            # summed raw time of the timed calls
    scaled_s: float = 0.0          # the same, on the reference core's scale
    factors: list = field(default_factory=list)   # machine speed factor per call
    failures: list = field(default_factory=list)
    speed_probe = staticmethod(probe.numeric)

    def op(self, request: str, fn):
        """Run one timed operation; returns (scaled seconds, result) or None.

        The scaled time is the raw time divided by the machine speed factor,
        the mean of what the part's probe measured just before and just
        after the call.
        """
        self.attempted += 1
        tracer = self.ctx.tracer
        tracer.request = request
        before = probe.speed_factor(self.speed_probe)
        try:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
            factor = (before + probe.speed_factor(self.speed_probe)) / 2
            self.busy_s += seconds
            self.scaled_s += seconds / factor
            self.factors.append(factor)
            return seconds / factor, result
        except (GutiError, CheckFailed, OSError, ValueError) as exc:
            self._fail(request, exc)
            return None
        finally:
            tracer.request = None

    def verify(self, request: str, fn) -> bool:
        """Run an output check with tracing paused; a failure fails the operation."""
        tracer = self.ctx.tracer
        was_active, tracer.active = tracer.active, False
        try:
            fn()
            return True
        except (GutiError, CheckFailed, OSError, ValueError) as exc:
            self._fail(request, exc)
            return False
        finally:
            tracer.active = was_active

    def _fail(self, request: str, exc: Exception) -> None:
        self.failed += 1
        self.failures.append(f"{request}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# train: fine_tune with held-out eval and checkpoint writes, two model sizes
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    name: str
    params: model.ModelParams
    train_cfg: dict
    ops: list                      # per operation: (samples handed in, non-pad
                                   # tokens fed, optimizer steps)
    out: Path
    losses: list = field(default_factory=list)
    tokens: int = 0
    seconds: float = 0.0


class TrainPart(Part):
    """Phase `small` is the acceptance config, phase `default` the CLI default.

    Each operation is one fine_tune call for one epoch over a train split
    whose size is a multiple of the batch size, so every sample handed in
    is fed exactly once and the non-pad token count follows from the
    inputs.  The calls walk through the fixture samples in a fixed order
    and continue from the previous call's weights.
    """

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        voc = ctx.vocab
        small_cfg = model.ModelConfig(vocab_size=voc.size, **SMALL_MODEL)
        default_cfg = model.ModelConfig(vocab_size=voc.size)
        self.phases = []
        for name, cfg, lr in (("small", small_cfg, 2e-3), ("default", default_cfg, 1e-3)):
            usable = [s for s in ctx.samples
                      if len(vocab.encode(s.text, voc)) + 2 <= cfg.context_len]
            train_idx, held_idx = trainer.heldout_split(usable, 0.05)
            held = [usable[i] for i in held_idx]
            order = np.random.default_rng(SHUFFLE_SEED).permutation(len(train_idx))
            train = [usable[train_idx[i]] for i in order]
            per_op = OP_SAMPLES[name]
            windows = [train[i:i + per_op] for i in range(0, len(train) - per_op + 1, per_op)]
            ops = [(w + held, sum(len(vocab.encode(s.text, voc)) + 2 for s in w),
                    len(w) // BATCH) for w in windows]
            self.phases.append(Phase(
                name, model.init_params(cfg, ctx.seed),
                dict(learning_rate=lr, batch_size=BATCH, warmup_steps=0,
                     heldout_fraction=0.05, seed=SHUFFLE_SEED),
                ops, ctx.work / "train" / name))

    def units(self, cycles: int) -> list:
        return [functools.partial(self._op, phase, c)
                for c in range(cycles) for phase in self.phases]

    def _op(self, phase: Phase, c: int) -> None:
        samples, tokens, steps = phase.ops[c % len(phase.ops)]
        cfg = trainer.TrainConfig(max_steps=steps, checkpoint_interval=steps, **phase.train_cfg)
        request = f"train-{phase.name}-{c}"
        done = self.op(request, lambda: trainer.fine_tune(
            samples, self.ctx.vocab, phase.params, cfg, out_dir=phase.out))
        if done is None:
            return
        seconds, (params, report) = done

        def verify():
            check(report.steps_run == steps and len(report.step_losses) == steps,
                  f"ran {report.steps_run} of {steps} steps")
            check(all(np.isfinite(report.step_losses)), "non-finite training loss")
            check(len(report.checkpoint_paths) == 2, "expected a step and a last checkpoint")
            for path in report.checkpoint_paths:
                loaded = model.load_checkpoint(path)
                check(loaded.config == params.config, f"{path}: config differs")
                for name, arr in params.tensors.items():
                    got = loaded.tensors[name]
                    check(got.dtype == arr.dtype and np.array_equal(got, arr),
                          f"{path}: tensor {name} differs from the returned params")

        if self.verify(request, verify):
            phase.params = params
            phase.losses += report.step_losses
            phase.tokens += tokens
            phase.seconds += seconds

    def finish(self) -> None:
        for phase in self.phases:
            self.verify(f"train-{phase.name}", lambda: check(
                len(phase.losses) >= 2 and phase.losses[-1] < phase.losses[0],
                f"{phase.name} loss did not fall: {phase.losses[:1]} -> {phase.losses[-1:]}"))

    def metrics(self) -> dict:
        small, default = self.phases
        return {
            "train_small_tokens_per_s": (small.tokens / small.seconds, small.tokens),
            "train_tokens_per_s": (default.tokens / default.seconds, default.tokens),
        }


# ---------------------------------------------------------------------------
# generate: generate_batch requests on a random-init CLI-default checkpoint
# ---------------------------------------------------------------------------


def body_tokens(spec) -> int:
    """Body length in tokens (characters plus terminal punctuation)."""
    t = spec.line_template
    if t.kind == "mirror":
        return COUPLET_THEME_LEN
    if t.kind == "uniform":
        return GUSHI_LINES * (t.uniform_len + 1)
    return sum(sum(g[0]) + len(g[0]) for g in t.groups)


class GeneratePart(Part):
    """Each request is one generate_batch call; EOS joins the forbidden ids.

    A random-init model draws EOS at random positions, which would make the
    amount of decoding depend on the seed.  Forbidding it through
    SampleConfig.forbid makes every candidate decode exactly its form's body
    length, the length a trained model would stop at.
    """

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        voc = ctx.vocab
        self.forbid = sampler.default_forbid(voc) | {voc.eos_id}
        self.theme_chars = [t for t in voc.tokens if len(t) == 1 and corpus.is_cjk(t)]
        self.request_s: list[float] = []
        self.first_token_s: list[float] = []
        self.tokens = 0

    def units(self, cycles: int) -> list:
        """One request per catalog form per cycle, in a seeded order."""
        form_ids = self.ctx.catalog.form_ids()
        out = []
        for c in range(cycles):
            rng = np.random.default_rng([self.ctx.seed, c])
            for f in rng.permutation(len(form_ids)):
                spec = self.ctx.catalog.resolve(form_ids[f])
                width = COUPLET_THEME_LEN if spec.line_template.kind == "mirror" else THEME_LEN
                theme = "".join(rng.choice(self.theme_chars, width))
                n = BATCH_N if f == c % len(form_ids) else 1
                cfg = sampler.SampleConfig(k=TOP_K[(f + c) % 2], max_new_tokens=body_tokens(spec),
                                           seed=int(rng.integers(2 ** 31)), forbid=self.forbid)
                out.append(functools.partial(self._request, f"gen-{c}-{f}",
                                             form_ids[f], theme, n, cfg))
        return out

    def _request(self, request: str, form_id: str, theme: str, n: int, cfg) -> None:
        ctx = self.ctx
        done = self.op(request, lambda: sampler.generate_batch(
            ctx.gen_params, form_id, theme, n, cfg, ctx.vocab, ctx.catalog, ctx.table))
        if done is not None:
            seconds, report = done
            bodies: list = []

            def verify():
                prompt = sampler.build_prompt(form_id, theme, ctx.catalog, ctx.vocab)
                bodies.extend(vocab.encode(c.body_text, ctx.vocab) for c in report.candidates)
                check(len(report.candidates) == n, f"{len(report.candidates)} of {n} candidates")
                for body, cand in zip(bodies, report.candidates):
                    check(len(body) == cfg.max_new_tokens and cand.truncated,
                          f"candidate {cand.index}: {len(body)} of {cfg.max_new_tokens} tokens")
                if cfg.k == 1:
                    for body in {tuple(b) for b in bodies}:
                        self._check_greedy(prompt, list(body))

            if self.verify(request, verify):
                self.request_s.append(seconds)
                self.tokens += sum(len(b) for b in bodies)

        one = replace(cfg, max_new_tokens=1)
        first = self.op(request + "-first", lambda: sampler.generate(
            ctx.gen_params, sampler.build_prompt(form_id, theme, ctx.catalog, ctx.vocab),
            one, ctx.vocab))
        if first is not None and self.verify(request + "-first", lambda: check(
                len(first[1].token_ids) == 1, "prompt pass produced no token")):
            self.first_token_s.append(first[0])

    def _check_greedy(self, prompt: list[int], body: list[int]) -> None:
        """Each greedy token is the argmax of a full-recompute forward pass."""
        ids = np.asarray([prompt + body])
        logits = model.forward(self.ctx.gen_params, ids)[0].astype(np.float64)
        rows = logits[len(prompt) - 1:len(prompt) - 1 + len(body)]
        rows[:, sorted(self.forbid)] = -np.inf
        best = rows.max(axis=1)
        got = rows[np.arange(len(body)), body]
        check(bool(np.all(got >= best - GREEDY_TOL)),
              "greedy token differs from the full-recompute argmax")

    def metrics(self) -> dict:
        return {
            "gen_tokens_per_s": (self.tokens / sum(self.request_s), self.tokens),
            **timing("gen_request_ms", self.request_s),
            "first_token_ms.p50": (1e3 * float(np.median(self.first_token_s)),
                                   len(self.first_token_s)),
        }


# ---------------------------------------------------------------------------
# corpus: ingest + serialize + vocab + write, validate, novelty queries
# ---------------------------------------------------------------------------


class CorpusPart(Part):
    """`guti ingest --acrostic --max-seq-len 256`, run in-process, and the
    validator on each corpus file, then novelty queries against an index of
    the whole corpus: one verbatim and one fresh poem of every catalog form."""

    speed_probe = staticmethod(probe.objects)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.out = ctx.work / "corpus"
        self.ingest_rates: list[float] = []
        self.validate_rates: list[float] = []
        self.novelty_s: list[float] = []
        self.fresh = synth.Synthesizer(ctx.catalog, ctx.table, ctx.seed + 1)
        # verbatim queries: well-formed poems in the synthesizer's longest
        # layout; how many each form has is the same on every seed
        self.form_ids = ctx.catalog.form_ids()
        n_forms, layout = len(self.form_ids), len(synth.GUSHI_LINES) - 1
        self.verbatim_ids = {
            form_id: [sid for sid, label in sorted(ctx.corpus.labels.items())
                      if label is None and int(sid[4:]) % n_forms == f
                      and int(sid[4:]) // n_forms % len(synth.GUSHI_LINES) == layout]
            for f, form_id in enumerate(self.form_ids)}
        self._originals: list = []
        self._poems: dict = {}
        self._index = None

    def units(self, cycles: int) -> list:
        out = []
        for c in range(cycles):
            out += [functools.partial(self._shard, c, i) for i in range(len(self.ctx.shards))]
            out.append(functools.partial(self._build_index, c))
            for form_id in self.form_ids:
                out += [functools.partial(self._query, c, form_id, verbatim)
                        for verbatim in (True, False)]
        return out

    def _shard(self, c: int, i: int) -> None:
        ctx, labels = self.ctx, self.ctx.corpus.labels
        path, malformed = ctx.shards[i]
        out = self.out / f"shard-{i}"
        request = f"corpus-{c}-{i}"
        if i == 0:
            self._originals, self._poems = [], {}
        log = io.StringIO()

        def ingest() -> int:
            with contextlib.redirect_stderr(log):
                return cli.main(["ingest", str(path), "-o", str(out), "--acrostic",
                                 "--max-seq-len", str(MAX_SEQ_LEN)])

        done = self.op(request + "-ingest", ingest)
        if done is None:
            return
        seconds, code = done
        ingested = []

        def verify_ingest():
            text = log.getvalue()
            check(code == 0, f"guti ingest exited {code}: {text[-300:]}")
            skipped = {int(n) for n in re.findall(
                rf"^guti: {re.escape(str(path))}:(\d+): skipped:", text, re.M)}
            check(skipped == malformed, f"{len(skipped)} records skipped, {len(malformed)} injected")
            summary = re.search(r"wrote (\d+) samples, vocab size (\d+)", text)
            check(summary is not None, "guti ingest printed no summary")
            lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
            check(len(lines) == int(summary[1]), "dataset line count")
            check(vocab.load_vocab(out / "vocab.txt").size == int(summary[2]),
                  "vocab file does not load back")
            # the poems themselves, for the validator and the novelty index
            result = corpus.ingest_corpus(path, ctx.catalog)
            check(all(p.source_id in labels for p in result.poems), "unknown source ids")
            ingested.append(result)

        if not self.verify(request + "-ingest", verify_ingest):
            return
        result = ingested[0]
        self.ingest_rates.append(result.record_count / seconds)
        self._originals += [corpus.serialize(p, ctx.catalog) for p in result.poems]
        self._poems.update((p.source_id, p) for p in result.poems)

        done = self.op(request + "-validate", lambda: [
            validator.validate(p, ctx.catalog, ctx.table).well_formed
            for p in result.poems])
        if done is not None:
            seconds, verdicts = done
            wrong = [p.source_id for p, ok in zip(result.poems, verdicts)
                     if ok != (labels[p.source_id] is None)]
            if self.verify(request + "-validate", lambda: check(
                    not wrong, f"{len(wrong)} verdicts differ from labels, e.g. {wrong[:3]}")):
                self.validate_rates.append(len(result.poems) / seconds)

    def _build_index(self, c: int) -> None:
        done = self.op(f"corpus-{c}-index",
                       lambda: trainer.NoveltyIndex.from_samples(self._originals))
        self._index = None if done is None else done[1]

    def _query(self, c: int, form_id: str, verbatim: bool) -> None:
        """A verbatim corpus poem must score novelty 0; a fresh one is timed only."""
        request = f"corpus-{c}-novelty-{form_id}-{'verbatim' if verbatim else 'fresh'}"
        if verbatim:
            ids = self.verbatim_ids[form_id]
            sid = ids[c % len(ids)]
            poem = self._poems.get(sid)
            lines = None if poem is None else [ln.characters for ln in poem.body]
        else:
            layout = len(synth.GUSHI_LINES) - 1
            lines = self.fresh.poem(form_id, layout).line_strings()
        index = self._index
        if index is None or lines is None:
            self.attempted += 1
            self._fail(request, CheckFailed("index or query poem missing after a failed ingest"))
            return
        done = self.op(request, lambda: index.score_lines(lines))
        if done is None:
            return
        seconds, res = done
        if not verbatim or self.verify(request, lambda: check(
                res.score == 0.0, f"verbatim poem {sid} scored {res.score}")):
            self.novelty_s.append(seconds)

    def metrics(self) -> dict:
        return {
            "ingest_poems_per_s": (float(np.median(self.ingest_rates)), len(self.ingest_rates)),
            "validate_poems_per_s": (float(np.median(self.validate_rates)),
                                     len(self.validate_rates)),
            **timing("novelty_ms", self.novelty_s),
        }


def timing(name: str, seconds: list[float]) -> dict:
    """p50 plus the highest percentile with at least 10 samples beyond it."""
    ms = sorted(1e3 * s for s in seconds)
    n = len(ms)
    out = {f"{name}.p50": (float(np.median(ms)), n)}
    if n > 10:
        out[f"{name}.tail"] = (ms[n - 11], n, f"p{100 * (n - 10) / n:.0f}")
    return out
