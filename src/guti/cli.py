"""Command-line pipeline: ingest, train, generate, validate.

Exit codes: 0 success, 1 user error (bad flags or unusable input),
2 internal error (output I/O failures, unexpected exceptions).  Data goes
to stdout, diagnostics to stderr, and every random choice is driven by an
explicit --seed (a fresh seed is drawn and printed when omitted).
"""

from __future__ import annotations

import json
import secrets
import sys
from dataclasses import replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import corpus as corpus_mod
from . import trainer as trainer_mod
from . import vocab as vocab_mod
from .errors import CorpusError, GutiError, UnknownFormError
from .fileio import write_atomic
from .forms import FormCatalog, default_catalog, load_catalog
from .model import (
    ModelConfig,
    init_params,
    load_checkpoint,
)
from .phonology import PhonologyTable, default_table, load_table
from .sampler import SampleConfig, generate_batch
from .validator import validate

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


def _err(message: str) -> None:
    click.echo(f"guti: {message}", err=True)


def _load_catalog_opt(path: str | None) -> FormCatalog:
    return load_catalog(path) if path else default_catalog()


def _load_table_opt(path: str | None) -> PhonologyTable:
    return load_table(path) if path else default_table()


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2 ** 31)
        _err(f"seed: {seed}")
    return seed


catalog_option = click.option(
    "--catalog", "catalog_path", envvar="GUTI_CATALOG", default=None,
    metavar="PATH", help="Form catalog file (default: built-in; "
    "env GUTI_CATALOG overrides).")
table_option = click.option(
    "--table", "table_path", default=None, metavar="PATH",
    help="Phonology table file (default: built-in modern approximation).")


@click.group()
@click.version_option(package_name="guti", prog_name="guti")
def cli():
    """Classical Chinese poetry lab: corpus prep, training, generation,
    and form validation."""


@cli.command("ingest")
@click.argument("corpus_file", metavar="CORPUS")
@click.option("-o", "--out", "out_dir", required=True, metavar="DIR",
              help="Output directory for dataset.jsonl and vocab.txt.")
@catalog_option
@click.option("--acrostic", is_flag=True,
              help="Also emit an acrostic-theme copy of every eligible poem.")
@click.option("--min-count", default=1, show_default=True,
              help="Drop characters rarer than this from the vocabulary.")
@click.option("--max-seq-len", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Skip samples longer than this many tokens (0 = no limit).")
def cmd_ingest(corpus_file, out_dir, catalog_path, acrostic, min_count, max_seq_len):
    """Serialize a poem corpus and build its vocabulary."""
    catalog = _load_catalog_opt(catalog_path)
    result = corpus_mod.ingest_corpus(corpus_file, catalog)
    for diag in result.diagnostics:
        _err(f"{corpus_file}:{diag.line_no}: skipped: {diag.message}")
    if not result.poems:
        raise click.ClickException("no usable records in the corpus file")

    samples = []
    unexpandable = 0
    for poem in result.poems:
        samples.append(corpus_mod.serialize(poem, catalog))
        if acrostic:
            spec = catalog.resolve(poem.form_id)
            if spec.acrostic_id is None:
                unexpandable += 1
            else:
                twin = corpus_mod.acrostic_transform(poem, catalog)
                samples.append(corpus_mod.serialize(twin, catalog))
    if unexpandable:
        _err(f"{unexpandable} poems have no acrostic variant; kept as-is")

    vocab = vocab_mod.build_vocab(samples, min_count=min_count)
    if max_seq_len > 0:
        before = len(samples)
        samples = [s for s in samples
                   if len(trainer_mod.encode_sample(s, vocab)) <= max_seq_len]
        if before != len(samples):
            _err(f"{before - len(samples)} samples exceed --max-seq-len; skipped")
            vocab = vocab_mod.build_vocab(samples, min_count=min_count)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "dataset.jsonl", "".join(
        json.dumps({"text": s.text, "source_id": s.source_id},
                   ensure_ascii=False) + "\n" for s in samples).encode("utf-8"))
    vocab_mod.save_vocab(vocab, out / "vocab.txt")
    _err(f"ingested {len(result.poems)} poems "
         f"({len(result.diagnostics)} skipped records), "
         f"wrote {len(samples)} samples, vocab size {vocab.size}")


@cli.command("train")
@click.argument("dataset", metavar="DATASET")
@click.option("--vocab", "vocab_path", required=True, metavar="PATH",
              help="Vocabulary file written by 'guti ingest'.")
@click.option("-o", "--out", "out_dir", required=True, metavar="DIR",
              help="Output directory for checkpoints and metrics.jsonl.")
@catalog_option
@click.option("--init-from", "init_from", default=None, metavar="CKPT",
              help="Start from an existing checkpoint instead of random init. "
                   "The architecture is the checkpoint's: an architecture flag "
                   "given with it must agree; --dropout applies.")
@click.option("--layers", default=4, show_default=True,
              help="Transformer layer count.")
@click.option("--heads", default=4, show_default=True,
              help="Attention heads per layer.")
@click.option("--d-model", default=128, show_default=True,
              help="Model width.")
@click.option("--d-ff", default=512, show_default=True,
              help="Feed-forward width.")
@click.option("--context-len", default=256, show_default=True,
              help="Maximum sequence length.")
@click.option("--dropout", default=0.0, show_default=True,
              help="Dropout rate during training.")
@click.option("--lr", default=3e-4, show_default=True,
              help="Adam learning rate.")
@click.option("--batch-size", default=16, show_default=True,
              help="Sequences per optimizer step.")
@click.option("--max-steps", default=2000, show_default=True,
              help="Optimizer steps to run.")
@click.option("--warmup", default=100, show_default=True,
              help="Linear learning-rate warmup steps.")
@click.option("--checkpoint-interval", default=500, show_default=True,
              help="Write a checkpoint and metrics record every N steps.")
@click.option("--novelty-interval", default=0, show_default=True,
              help="Probe retrieval novelty every N steps (0 = off).")
@click.option("--early-stop-novelty", default=None, type=float,
              help="Stop when probe novelty drops below this value.")
@click.option("--heldout-fraction", default=0.05, show_default=True,
              help="Deterministic held-out share for evaluation.")
@click.option("--seed", default=None, type=int,
              help="Training shuffle/dropout seed (random if omitted).")
@click.option("--model-seed", default=0, show_default=True,
              help="Seed for parameter initialization.")
def cmd_train(dataset, vocab_path, out_dir, catalog_path, init_from, layers,
              heads, d_model, d_ff, context_len, dropout, lr, batch_size,
              max_steps, warmup, checkpoint_interval, novelty_interval,
              early_stop_novelty, heldout_fraction, seed, model_seed):
    """Fine-tune the language model on a serialized dataset."""
    catalog = _load_catalog_opt(catalog_path)
    vocab = vocab_mod.load_vocab(vocab_path)
    samples = _read_dataset(dataset, catalog)
    if not samples:
        raise click.ClickException(f"{dataset}: no samples")

    if init_from:
        params = load_checkpoint(init_from)
        if params.config.vocab_size != vocab.size:
            raise click.ClickException(
                f"checkpoint vocab size {params.config.vocab_size} does not "
                f"match vocab file size {vocab.size}")
        given = click.get_current_context().get_parameter_source
        for flag, field, value in (("layers", "n_layers", layers),
                                   ("heads", "n_heads", heads),
                                   ("d_model", "d_model", d_model),
                                   ("d_ff", "d_ff", d_ff),
                                   ("context_len", "context_len", context_len)):
            have = getattr(params.config, field)
            if given(flag) is not ParameterSource.DEFAULT and value != have:
                raise click.ClickException(
                    f"--{flag.replace('_', '-')} {value} disagrees with the "
                    f"checkpoint's {field} {have}")
        if given("dropout") is not ParameterSource.DEFAULT:
            params = replace(params, config=replace(params.config,
                                                    dropout_rate=dropout))
    else:
        config = ModelConfig(n_layers=layers, n_heads=heads, d_model=d_model,
                             d_ff=d_ff, context_len=context_len,
                             vocab_size=vocab.size, dropout_rate=dropout)
        params = init_params(config, seed=model_seed)

    context = params.config.context_len
    usable = [s for s in samples
              if len(trainer_mod.encode_sample(s, vocab)) <= context]
    if len(usable) < len(samples):
        _err(f"{len(samples) - len(usable)} samples exceed the model context "
             f"({context}); skipped")
    if not usable:
        raise click.ClickException("every sample exceeds the model context")

    cfg = trainer_mod.TrainConfig(
        learning_rate=lr, batch_size=batch_size, max_steps=max_steps,
        warmup_steps=warmup, checkpoint_interval=checkpoint_interval,
        novelty_eval_interval=novelty_interval, seed=_resolve_seed(seed),
        heldout_fraction=heldout_fraction,
        early_stop_novelty=early_stop_novelty)
    params, report = trainer_mod.fine_tune(usable, vocab, params, cfg,
                                           out_dir=out_dir)
    for line in report.metric_lines():
        click.echo(line)
    _err(f"ran {report.steps_run} steps in {report.wall_clock_sec:.1f}s; "
         f"train shard {len(report.train_indices)}, "
         f"held out {len(report.heldout_indices)}; "
         f"checkpoints: {', '.join(report.checkpoint_paths) or 'none'}")


@cli.command("generate")
@click.argument("checkpoint", metavar="CKPT")
@click.option("--vocab", "vocab_path", required=True, metavar="PATH",
              help="Vocabulary file matching the checkpoint.")
@click.option("--form", required=True, help="Form id from the catalog.")
@click.option("--theme", default=None, help="Theme string.")
@click.option("--acrostic", "acrostic_target", default=None, metavar="CHARS",
              help="Generate an acrostic on these line-initial characters.")
@click.option("-n", "count", default=1, show_default=True,
              help="Number of candidates.")
@click.option("-k", "top_k", default=20, show_default=True,
              help="Top-k truncation width.")
@click.option("--temperature", default=1.0, show_default=True,
              help="Softmax temperature over the candidate set.")
@click.option("--max-new-tokens", default=256, show_default=True,
              help="Decoding budget per candidate.")
@click.option("--seed", default=None, type=int,
              help="Sampling seed (random if omitted).")
@click.option("--json", "as_json", is_flag=True,
              help="Emit line-delimited JSON records instead of text. The "
                   "candidates decode as one batch: prompt_ms is the one "
                   "prompt pass they share, the same in every record, and "
                   "decode_ms runs from then until that candidate finished.")
@catalog_option
@table_option
@click.option("--strict-phonology", is_flag=True,
              help="Count rhyme/tone deviations against well-formedness.")
def cmd_generate(checkpoint, vocab_path, form, theme, acrostic_target, count,
                 top_k, temperature, max_new_tokens, seed, as_json,
                 catalog_path, table_path, strict_phonology):
    """Sample poems from a trained model and validate each candidate."""
    catalog = _load_catalog_opt(catalog_path)
    table = _load_table_opt(table_path)
    vocab = vocab_mod.load_vocab(vocab_path)
    params = load_checkpoint(checkpoint)
    if params.config.vocab_size != vocab.size:
        raise click.ClickException(
            f"checkpoint vocab size {params.config.vocab_size} does not match "
            f"vocab file size {vocab.size}")
    if (theme is None) == (acrostic_target is None):
        raise click.UsageError("give exactly one of --theme or --acrostic")
    try:
        catalog.resolve(form)
    except UnknownFormError:
        raise click.ClickException(
            f"unknown form {form!r}; catalog forms: "
            + ", ".join(catalog.form_ids()))

    cfg = SampleConfig(k=top_k, temperature=temperature,
                       max_new_tokens=max_new_tokens, seed=_resolve_seed(seed))
    report = generate_batch(
        params, form, acrostic_target if acrostic_target else theme,
        count, cfg, vocab, catalog, table,
        acrostic=acrostic_target is not None,
        strict_phonology=strict_phonology)
    for cand in report.candidates:
        if as_json:
            rec = {"index": cand.index, "seed": cand.seed, "text": cand.text,
                   "body": cand.body_text, "truncated": cand.truncated,
                   "well_formed": cand.well_formed,
                   "prompt_ms": cand.prompt_ms, "decode_ms": cand.decode_ms,
                   "tokens": cand.tokens}
            if cand.report is not None:
                rec["rules"] = cand.report.to_dict()["rules"]
            if cand.error:
                rec["error"] = cand.error
            click.echo(json.dumps(rec, ensure_ascii=False))
        else:
            click.echo(cand.text)
            status = "well-formed" if cand.well_formed else "not well-formed"
            if cand.error:
                status += f" ({cand.error})"
            elif cand.report is not None and not cand.well_formed:
                reasons = "; ".join(r.message or r.rule
                                    for r in cand.report.failures()
                                    if r.level == "hard")
                status += f" ({reasons})"
            click.echo(f"# {status}")
    if report.candidates:
        ok = sum(1 for c in report.candidates if c.well_formed)
        _err(f"well-formed: {ok}/{len(report.candidates)}")


@cli.command("validate")
@click.argument("poems", metavar="POEMS")
@catalog_option
@table_option
@click.option("--json", "as_json", is_flag=True,
              help="Emit line-delimited JSON reports instead of text.")
@click.option("--skip-unknown", is_flag=True,
              help="Skip records with unknown forms instead of failing.")
@click.option("--strict-phonology", is_flag=True,
              help="Count rhyme/tone deviations against well-formedness.")
def cmd_validate(poems, catalog_path, table_path, as_json, skip_unknown,
                 strict_phonology):
    """Check every poem in a corpus file against its declared form."""
    catalog = _load_catalog_opt(catalog_path)
    table = _load_table_opt(table_path)
    result = corpus_mod.ingest_corpus(poems, catalog)
    if result.diagnostics and not skip_unknown:
        for diag in result.diagnostics:
            _err(f"{poems}:{diag.line_no}: {diag.message}")
        raise click.ClickException(
            f"{len(result.diagnostics)} unusable records "
            "(use --skip-unknown to skip them)")
    for diag in result.diagnostics:
        _err(f"{poems}:{diag.line_no}: skipped: {diag.message}")

    if not result.poems:
        click.echo("well-formed rate: n/a (no poems)")
        return
    ok = 0
    for i, poem in enumerate(result.poems, start=1):
        report = validate(poem, catalog, table, strict_phonology=strict_phonology)
        ok += report.well_formed
        if as_json:
            rec = {"index": i, "source_id": poem.source_id, **report.to_dict()}
            click.echo(json.dumps(rec, ensure_ascii=False))
        else:
            flag = "ok" if report.well_formed else "FAIL"
            click.echo(f"[{flag}] {poem.source_id or i}: {poem.form_id} "
                       f"{poem.theme}")
            for r in report.failures():
                where = ",".join(f"{ln}" + (f":{pos}" if pos else "")
                                 for ln, pos in r.positions)
                click.echo(f"       {r.level} {r.rule}"
                           + (f" @ {where}" if where else "")
                           + (f" - {r.message}" if r.message else ""))
    rate = ok / len(result.poems)
    click.echo(f"well-formed rate: {ok}/{len(result.poems)} = {rate:.3f}")


def _read_dataset(path: str, catalog: FormCatalog) -> list:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise click.ClickException(f"cannot read dataset {p}: {exc}")
    samples = []
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise CorpusError("record is not a JSON object")
            if not isinstance(rec["text"], str):
                raise CorpusError("record field 'text' is not a string")
            source_id = rec.get("source_id")
            if source_id is not None and not isinstance(source_id, str):
                raise CorpusError("record field 'source_id' is not a string")
            samples.append(corpus_mod.sample_from_text(
                rec["text"], catalog, source_id=source_id))
        except (json.JSONDecodeError, KeyError, GutiError) as exc:
            raise click.ClickException(f"{p}:{line_no}: bad dataset record: {exc}")
    return samples


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of calling sys.exit."""
    try:
        cli.main(args=argv, prog_name="guti", standalone_mode=False)
        return EXIT_OK
    except click.exceptions.NoArgsIsHelpError as exc:
        click.echo(exc.format_message())
        return EXIT_OK
    except click.ClickException as exc:
        _err(exc.format_message())
        return EXIT_USER
    except click.exceptions.Abort:
        _err("aborted")
        return EXIT_USER
    except GutiError as exc:
        _err(str(exc))
        return EXIT_USER
    except OSError as exc:
        _err(f"I/O failure: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        _err(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
