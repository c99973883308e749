"""Where the traced run wraps guti, and the per-layer metrics it reports.

Every wrapped function is public and is replaced in the namespace its
callers look it up from.  A name wrapped at several sites (``parse_body``
is looked up by corpus, validator and trainer) records one span name.
Which end-to-end metric each layer metric moves is listed in
``benchmarks/README.md``.
"""

from __future__ import annotations

import numpy as np

from guti import corpus, forms, model, phonology, sampler, trainer, validator, vocab
from spans import Span, Tracer, total_ns_under, totals_by_name


def _forward_rows(reads_last_row_only: bool):
    def count(c, args, kwargs, logits):
        b, s = np.shape(args[1])
        c["forward.positions"] += b * s
        c["forward.rows_used"] += b if reads_last_row_only else b * s
        if reads_last_row_only:
            c["sampler.forward_positions"] += b * s
    return count


def _count_backward(c, args, kwargs, result):
    c["backward.positions"] += args[1].tokens.size


def _count_make_batch(c, args, kwargs, batch):
    c["batch.positions"] += batch.tokens.size
    c["batch.pad"] += batch.tokens.size - sum(len(seq) for seq in args[0])


def _count_fine_tune(c, args, kwargs, result):
    c["skipped_steps"] += result[1].skipped_nonfinite


def _count_generate(c, args, kwargs, out):
    c["generate.calls"] += 1
    c["generate.tokens"] += len(out.token_ids)
    c["generate.eos"] += not out.truncated


def _count_generate_batch(c, args, kwargs, report):
    c["candidates"] += len(report.candidates)
    c["candidates.parsed"] += sum(cand.poem is not None for cand in report.candidates)


def _count_ingest(c, args, kwargs, result):
    c["ingest.records"] += result.record_count
    c["ingest.rejected"] += len(result.diagnostics)


def _count_validate(c, args, kwargs, report):
    c["validated"] += 1
    c["well_formed"] += report.well_formed


CHECKS = ("structure", "pairing", "rhyme", "tone", "acrostic")

# (namespace, attribute, span name, count hook)
WRAPS = [
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (model, "save_checkpoint", "model.save_checkpoint", None),
    (trainer, "save_checkpoint", "model.save_checkpoint", None),
    (trainer, "backward", "model.backward", _count_backward),
    (trainer, "forward", "model.forward", _forward_rows(False)),
    (trainer, "nll_loss", "model.nll_loss", None),
    (sampler, "forward", "model.forward", _forward_rows(True)),
    (trainer, "fine_tune", "trainer.fine_tune", _count_fine_tune),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "make_batch", "trainer.make_batch", _count_make_batch),
    (trainer.NoveltyIndex, "from_samples", "trainer.novelty_index.build", None),
    (trainer.NoveltyIndex, "score_lines", "trainer.score_lines", None),
    (sampler, "generate_batch", "sampler.generate_batch", _count_generate_batch),
    (sampler, "generate", "sampler.generate", _count_generate),
    (sampler, "top_k_sample", "sampler.top_k_sample", None),
    (sampler, "deserialize", "corpus.deserialize", None),
    (sampler, "validate", "validator.validate", _count_validate),
    (corpus, "ingest_corpus", "corpus.ingest_corpus", _count_ingest),
    (corpus, "serialize", "corpus.serialize", None),
    (corpus, "parse_body", "corpus.parse_body", None),
    (validator, "parse_body", "corpus.parse_body", None),
    (trainer, "parse_body", "corpus.parse_body", None),
    (vocab, "build_vocab", "vocab.build_vocab", None),
    (vocab, "encode", "vocab.encode", None),
    (vocab, "save_vocab", "vocab.save_vocab", None),
    (vocab, "load_vocab", "vocab.load_vocab", None),
    (validator, "validate", "validator.validate", _count_validate),
    *[(validator, f"check_{name}", f"validator.check_{name}", None) for name in CHECKS],
    (forms, "default_catalog", "forms.default_catalog", None),
    (phonology, "default_table", "phonology.default_table", None),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, count in WRAPS:
        tracer.wrap(owner, attr, name, count)


SETUP_SPANS = ("model.load_checkpoint", "vocab.load_vocab",
               "forms.default_catalog", "phonology.default_table")


def per_layer(names: list[str], setup_spans: list[Span], spans: list[Span], counts,
              overhead_pct: float) -> dict:
    """Metric name -> (value, sample count), for each of ``names``.

    Layers that set-up exercises are read from the set-up spans, all others
    from the traced pass.  A layer the workload does not reach reads 0 with
    0 samples.
    """
    t = totals_by_name(spans)
    s = totals_by_name(setup_spans)

    def ms(ns):
        return ns / 1e6

    def share(num, den):
        return (counts[num] / counts[den] if counts[den] else 0.0, counts[den])

    out = {}
    for name, tot in t.items():
        out[f"{name}.calls"] = (tot.calls, tot.calls)
        out[f"{name}.self_ms"] = (ms(tot.self_ns), tot.calls)
        out[f"{name}.ms"] = (ms(tot.total_ns), tot.calls)
    for name in SETUP_SPANS:
        out[f"{name}.ms"] = (ms(s[name].total_ns), s[name].calls)
    heldout = (total_ns_under(spans, "model.forward", "trainer.fine_tune")
               + total_ns_under(spans, "model.nll_loss", "trainer.fine_tune"))
    out.update({
        "model.backward.positions": (counts["backward.positions"], t["model.backward"].calls),
        "model.forward.positions": (counts["forward.positions"], t["model.forward"].calls),
        "model.forward.rows_used_share": share("forward.rows_used", "forward.positions"),
        "trainer.pad_share": share("batch.pad", "batch.positions"),
        "trainer.heldout_eval.ms": (ms(heldout), t["model.nll_loss"].calls),
        "trainer.skipped_steps": (counts["skipped_steps"], t["trainer.fine_tune"].calls),
        "trainer.novelty_index.build_ms": out.get("trainer.novelty_index.build.ms", (0.0, 0)),
        "sampler.forward_positions_per_token": share("sampler.forward_positions", "generate.tokens"),
        "sampler.eos_share": share("generate.eos", "generate.calls"),
        "sampler.parse_ok_share": share("candidates.parsed", "candidates"),
        "corpus.rejected_share": share("ingest.rejected", "ingest.records"),
        "validator.well_formed_share": share("well_formed", "validated"),
        "trace.overhead_pct": (overhead_pct, 1),
        "trace.spans": (len(spans), len(spans)),
    })
    return {name: out.get(name, (0, 0)) for name in names}
