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
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from . import corpus as corpus_mod
from . import trainer as trainer_mod
from . import vocab as vocab_mod
from .errors import CorpusError, GutiError
from .forms import default_catalog, load_catalog
from .model import ModelConfig, ModelParams, init_params, load_checkpoint
from .phonology import default_table, load_table
from .sampler import SampleConfig, generate_batch
from .trainer import TrainConfig
from .validator import validate

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


def _err(message: str) -> None:
    click.echo(f"guti: {message}", err=True)


def _loads(load, default=lambda: None):
    """A click callback that loads the file its parameter names, else ``default()``."""
    return lambda ctx, param, path: load(path) if path else default()


def _one_theme(ctx, param, value):
    """--theme and --acrostic are eager, so the second of them click
    processes refuses both or neither before CKPT and --vocab load."""
    others = [ctx.params[n] for n in ("theme", "acrostic_target") if n in ctx.params]
    if others and (value is None) == (others[0] is None):
        raise click.UsageError("give exactly one of --theme or --acrostic")
    return value


def _check_vocab_size(params: ModelParams, vocab: vocab_mod.Vocab) -> None:
    if params.config.vocab_size != vocab.size:
        raise click.ClickException(f"checkpoint vocab size {params.config.vocab_size} "
                                   f"does not match vocab file size {vocab.size}")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2 ** 31)
        _err(f"seed: {seed}")
    return seed


catalog_option = click.option(
    "--catalog", envvar="GUTI_CATALOG", callback=_loads(load_catalog, default_catalog),
    metavar="PATH", help="Form catalog file (default: built-in; "
    "env GUTI_CATALOG overrides).")
table_option = click.option(
    "--table", callback=_loads(load_table, default_table), metavar="PATH",
    help="Phonology table file (default: built-in modern approximation).")
strict_option = click.option(
    "--strict-phonology", is_flag=True,
    help="Count rhyme/tone deviations against well-formedness.")


def field_option(flag: str, config: type, field: str, help: str, **extra):
    """A click option that sets ``config``'s ``field``, defaulting to the field's default."""
    return click.option(flag, field, default=getattr(config, field), show_default=True,
                        help=help, **extra)


@click.group()
@click.version_option(version=__version__, prog_name="guti")
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
def cmd_ingest(corpus_file, out_dir, catalog, acrostic, min_count, max_seq_len):
    """Serialize a poem corpus and build its vocabulary."""
    result = corpus_mod.ingest_corpus(corpus_file, catalog, serializable=True)
    for diag in result.diagnostics:
        _err(f"{corpus_file}:{diag.line_no}: skipped: {diag.message}")
    if not result.poems:
        raise click.ClickException("no usable records in the corpus file")

    samples = []
    for poem in result.poems:
        samples.append(corpus_mod.serialize(poem, catalog))
        if acrostic:
            try:
                twin = corpus_mod.acrostic_transform(poem, catalog)
            except CorpusError:     # no variant, or too few lines for its slots
                continue
            if twin != poem:        # else the poem is its own acrostic twin
                samples.append(corpus_mod.serialize(twin, catalog))
    unexpandable = 2 * len(result.poems) - len(samples)     # poems that wrote no twin
    if acrostic and unexpandable:
        _err(f"{unexpandable} poems have no acrostic twin; kept as-is")

    if max_seq_len > 0:
        before = len(samples)
        samples = [s for s in samples if trainer_mod.sample_token_count(s) <= max_seq_len]
        if before != len(samples):
            _err(f"{before - len(samples)} samples exceed --max-seq-len; skipped")
        if not samples:
            raise click.ClickException(f"no sample fits --max-seq-len {max_seq_len}")
    vocab = vocab_mod.build_vocab(samples, min_count=min_count)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_dataset(samples, out / "dataset.jsonl")
    vocab_mod.save_vocab(vocab, out / "vocab.txt")
    _err(f"ingested {len(result.poems)} poems "
         f"({len(result.diagnostics)} skipped records), "
         f"wrote {len(samples)} samples, vocab size {vocab.size}")


@cli.command("train")
@click.argument("dataset", metavar="DATASET")
@click.option("--vocab", required=True, callback=_loads(vocab_mod.load_vocab), metavar="PATH",
              help="Vocabulary file written by 'guti ingest'.")
@click.option("-o", "--out", "out_dir", required=True, metavar="DIR",
              help="Output directory for checkpoints and metrics.jsonl.")
@catalog_option
@click.option("--init-from", callback=_loads(load_checkpoint), metavar="CKPT",
              help="Start from an existing checkpoint instead of random init. "
                   "The architecture is the checkpoint's: an architecture flag "
                   "given with it must agree; --dropout applies.")
@field_option("--layers", ModelConfig, "n_layers", "Transformer layer count.")
@field_option("--heads", ModelConfig, "n_heads", "Attention heads per layer.")
@field_option("--d-model", ModelConfig, "d_model", "Model width.")
@field_option("--d-ff", ModelConfig, "d_ff", "Feed-forward width.")
@field_option("--context-len", ModelConfig, "context_len", "Maximum sequence length.")
@field_option("--dropout", ModelConfig, "dropout_rate", "Dropout rate during training.")
@field_option("--lr", TrainConfig, "learning_rate", "Adam learning rate.")
@field_option("--batch-size", TrainConfig, "batch_size", "Sequences per optimizer step.")
@field_option("--max-steps", TrainConfig, "max_steps", "Optimizer steps to run.")
@field_option("--warmup", TrainConfig, "warmup_steps", "Linear learning-rate warmup steps.")
@field_option("--checkpoint-interval", TrainConfig, "checkpoint_interval",
              "Write a checkpoint and metrics record every N steps.")
@field_option("--novelty-interval", TrainConfig, "novelty_eval_interval",
              "Probe retrieval novelty every N steps (0 = off).")
@field_option("--early-stop-novelty", TrainConfig, "early_stop_novelty",
              "Stop when probe novelty drops below this value.", type=float)
@field_option("--heldout-fraction", TrainConfig, "heldout_fraction",
              "Deterministic held-out share for evaluation.")
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Training shuffle/dropout seed (random if omitted).")
@click.option("--model-seed", default=0, show_default=True, type=click.IntRange(min=0),
              help="Seed for parameter initialization.")
def cmd_train(dataset, vocab, out_dir, catalog, init_from, seed, model_seed, **fields):
    """Fine-tune the language model on a serialized dataset."""
    # ``fields``: each option named as the ModelConfig or TrainConfig field it sets
    arch = {f.name: fields.pop(f.name) for f in dataclass_fields(ModelConfig)
            if f.name in fields}
    samples = corpus_mod.read_dataset(dataset, catalog)
    if not samples:
        raise click.ClickException(f"{dataset}: no samples")

    if init_from is not None:
        params = init_from
        _check_vocab_size(params, vocab)
        ctx = click.get_current_context()
        given = {name for name in ctx.params
                 if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT}
        for opt in ctx.command.params:      # in declaration order
            if opt.name in given & arch.keys() - {"dropout_rate"}:
                have = getattr(params.config, opt.name)
                if arch[opt.name] != have:
                    raise click.ClickException(
                        f"{opt.opts[0]} {arch[opt.name]} disagrees with the "
                        f"checkpoint's {opt.name} {have}")
        if "dropout_rate" in given:
            params = replace(params, config=replace(params.config,
                                                    dropout_rate=arch["dropout_rate"]))
    else:
        params = init_params(ModelConfig(**arch, vocab_size=vocab.size), seed=model_seed)

    context = params.config.context_len
    usable = [s for s in samples if trainer_mod.sample_token_count(s) <= context]
    if len(usable) < len(samples):
        _err(f"{len(samples) - len(usable)} samples exceed the model context "
             f"({context}); skipped")
    if not usable:
        raise click.ClickException("every sample exceeds the model context")

    cfg = TrainConfig(**fields, seed=_resolve_seed(seed))
    params, report = trainer_mod.fine_tune(usable, vocab, params, cfg,
                                           out_dir=out_dir)
    for line in report.metric_lines():
        click.echo(line)
    _err(f"ran {report.steps_run} steps in {report.wall_clock_sec:.1f}s "
         f"({report.skipped_nonfinite} skipped for a non-finite second moment or update); "
         f"train shard {len(report.train_indices)}, "
         f"held out {len(report.heldout_indices)}; "
         f"checkpoints: {', '.join(report.checkpoint_paths) or 'none'}")
    if report.stopped_early:
        probe = report.novelty[-1]
        _err(f"stopped early at step {probe['step']}: probe novelty {probe['novelty']} "
             f"is below --early-stop-novelty {cfg.early_stop_novelty}")
    if report.steps_run and report.skipped_nonfinite == report.steps_run:
        raise click.ClickException("no step was applied: every one had a non-finite "
                                   "second moment or update")


@cli.command("generate")
@click.argument("params", metavar="CKPT", callback=_loads(load_checkpoint))
@click.option("--vocab", required=True, callback=_loads(vocab_mod.load_vocab), metavar="PATH",
              help="Vocabulary file matching the checkpoint.")
@click.option("--form", required=True, help="Form id from the catalog.")
@click.option("--theme", is_eager=True, callback=_one_theme, help="Theme string, stripped "
              "and 、？！-normalized as ingest writes one; a marker, line break or lone "
              "surrogate is refused.")
@click.option("--acrostic", "acrostic_target", is_eager=True, callback=_one_theme,
              metavar="CHARS",
              help="Generate an acrostic on these line-initial characters (as --theme).")
@click.option("-n", "count", default=1, show_default=True,
              help="Number of candidates.")
@field_option("-k", SampleConfig, "k", "Top-k truncation width.")
@field_option("--temperature", SampleConfig, "temperature",
              "Softmax temperature over the candidate set.")
@field_option("--max-new-tokens", SampleConfig, "max_new_tokens",
              "Decoding budget per candidate.")
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Sampling seed (random if omitted).")
@click.option("--json", "as_json", is_flag=True,
              help="Emit line-delimited JSON records instead of text. The "
                   "candidates decode as one batch: prompt_ms is the prompt "
                   "pass they share up to each one's first token, the same in "
                   "every record; decode_ms runs on until it hit EOS or budget.")
@catalog_option
@table_option
@strict_option
def cmd_generate(params, vocab, form, theme, acrostic_target, count, seed, as_json,
                 catalog, table, strict_phonology, **sampling):
    """Sample poems from a trained model and validate each candidate."""
    _check_vocab_size(params, vocab)
    cfg = SampleConfig(**sampling, seed=_resolve_seed(seed))
    report = generate_batch(
        params, form, theme if acrostic_target is None else acrostic_target,
        count, cfg, vocab, catalog, table, acrostic=acrostic_target is not None,
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
              help="Skip unusable records (malformed JSON, unknown form, "
              "refused theme or body) instead of failing.")
@strict_option
def cmd_validate(poems, catalog, table, as_json, skip_unknown, strict_phonology):
    """Check every poem in a corpus file against its declared form."""
    result = corpus_mod.ingest_corpus(poems, catalog)
    for diag in result.diagnostics:
        _err(f"{poems}:{diag.line_no}: {'skipped: ' if skip_unknown else ''}{diag.message}")
    if result.diagnostics and not skip_unknown:
        raise click.ClickException(f"{len(result.diagnostics)} unusable records "
                                   "(use --skip-unknown to skip them)")

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
