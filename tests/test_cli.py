import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guti import fileio
from guti.cli import _read_dataset, main
from guti.corpus import deserialize, normalize_body_text
from guti.forms import ALL_MARKERS, COMMA, PERIOD, default_catalog
from guti.model import load_checkpoint
from guti.vocab import build_vocab, decode, encode, load_vocab

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory, toy_poems):
    """A 12-poem corpus file, small enough for fast CLI training."""
    path = tmp_path_factory.mktemp("corpus") / "mini.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for p in toy_poems[:12]:
            fh.write(json.dumps({"form": p.form_id, "theme": p.theme,
                                 "body": p.body_text(),
                                 "source_id": p.source_id},
                                ensure_ascii=False) + "\n")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, mini_corpus):
    """ingest + short train; shared by the generate/validate tests."""
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["ingest", str(mini_corpus), "-o", str(out), "--acrostic"])
    assert code == 0
    code = main(["train", str(out / "dataset.jsonl"),
                 "--vocab", str(out / "vocab.txt"), "-o", str(out / "run"),
                 "--layers", "1", "--heads", "2", "--d-model", "16",
                 "--d-ff", "32", "--context-len", "96",
                 "--max-steps", "40", "--checkpoint-interval", "20",
                 "--lr", "2e-3", "--seed", "5", "--heldout-fraction", "0"])
    assert code == 0
    return out


class TestIngest:
    def test_writes_dataset_and_vocab(self, capsys, tmp_path, mini_corpus):
        code, _, err = run(capsys, "ingest", str(mini_corpus), "-o", str(tmp_path))
        assert code == 0
        assert (tmp_path / "dataset.jsonl").exists()
        assert (tmp_path / "vocab.txt").exists()
        assert "ingested 12 poems" in err

    def test_acrostic_flag_doubles_samples(self, capsys, tmp_path, mini_corpus):
        code, _, _ = run(capsys, "ingest", str(mini_corpus),
                         "-o", str(tmp_path), "--acrostic")
        assert code == 0
        lines = (tmp_path / "dataset.jsonl").read_text("utf-8").strip().splitlines()
        assert len(lines) == 24

    def test_empty_input_exits_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(empty), "-o", str(tmp_path / "o"))
        assert code == 1
        assert "no usable records" in err

    def test_missing_input_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ingest", str(tmp_path / "nope.jsonl"),
                         "-o", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize("escaped", [False, True], ids=["raw", "escaped"])
    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"],
                             ids=["U+2028", "U+2029", "U+0085"])
    def test_theme_with_unicode_line_break_round_trips(self, capsys, tmp_path,
                                                       toy_poems, sep, escaped):
        # str.splitlines() also breaks on these; guti's own files must not
        corpus = tmp_path / "themes.jsonl"
        with corpus.open("w", encoding="utf-8") as fh:
            for i, p in enumerate(toy_poems[:4]):
                theme = p.theme[0] + sep + p.theme[1:] if i == 1 else p.theme
                fh.write(json.dumps({"form": p.form_id, "theme": theme,
                                     "body": p.body_text()},
                                    ensure_ascii=escaped) + "\n")
        data = tmp_path / "data"
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(data))
        assert code == 0, err
        assert "ingested 4 poems (0 skipped records)" in err
        code, _, err = run(capsys, "train", str(data / "dataset.jsonl"),
                           "--vocab", str(data / "vocab.txt"),
                           "-o", str(tmp_path / "run"),
                           "--layers", "1", "--heads", "2", "--d-model", "16",
                           "--d-ff", "32", "--max-steps", "0",
                           "--heldout-fraction", "0")
        assert code == 0, err

    @pytest.mark.parametrize("sep", ["\r", "\n"], ids=["CR", "LF"])
    def test_theme_with_line_break_is_skipped(self, capsys, tmp_path, toy_poems, sep):
        # vocab.txt holds one token per line: a "\r" or "\n" token cannot round-trip
        corpus = tmp_path / "themes.jsonl"
        with corpus.open("w", encoding="utf-8") as fh:
            for i, p in enumerate(toy_poems[:4]):
                theme = p.theme[0] + sep + p.theme[1:] if i == 1 else p.theme
                fh.write(json.dumps({"form": p.form_id, "theme": theme,
                                     "body": p.body_text()}, ensure_ascii=False) + "\n")
        data = tmp_path / "data"
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(data))
        assert code == 0, err
        assert f"{corpus}:2: skipped:" in err
        assert "ingested 3 poems (1 skipped records)" in err
        lines = (data / "dataset.jsonl").read_text("utf-8").splitlines()
        built = build_vocab(json.loads(line)["text"] for line in lines)
        assert load_vocab(data / "vocab.txt").tokens == built.tokens

    @pytest.mark.parametrize("record, field", [
        ({"first": 1, "second": "春风"}, "first"),
        ({"form": "五绝", "theme": "秋", "body": "床前明月光", "source_id": 5},
         "source_id"),
        ({"form": "五绝", "theme": "秋", "body": "床前明月光", "source_id": ["a"]},
         "source_id"),
    ], ids=["couplet-first-int", "source_id-int", "source_id-list"])
    def test_non_string_field_is_skipped(self, capsys, tmp_path, record, field):
        corpus = _corpus_around(tmp_path, record)
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(tmp_path / "o"))
        assert code == 0, err
        assert f"{corpus}:2: skipped: record field {field!r} is not a string" in err
        assert "ingested 2 poems (1 skipped records)" in err

    def test_negative_max_seq_len_exits_1(self, capsys, tmp_path, mini_corpus):
        code, _, err = run(capsys, "ingest", str(mini_corpus), "-o",
                           str(tmp_path / "o"), "--max-seq-len", "-5")
        assert code == 1
        assert "--max-seq-len" in err
        assert not (tmp_path / "o").exists()

    # sha256 of dataset.jsonl and vocab.txt per fixture and flag set, as the
    # per-character parser and tokenizer wrote them; the compiled-regex
    # passes that replaced those loops must write the same bytes
    GOLDEN = {
        ("sample_poems", ()): (
            "63f2af83b39ecfa4c422ac4655fe3419673fbcd10ea8661e8ff3a94deb4cb5db",
            "c0a8dcc53724d31df401f01bffa4de5fbb69fbf180534753d02681071fa15052"),
        ("sample_poems", ("--acrostic",)): (
            "002b153a72c4e7b407f58257c4ff46c4d71da75cb06c22a0b167a1583774b484",
            "fe68cbfcc7f36ca3ddee8deef509dc0b8c270fa63b82b8d40bcff2c4015acfbd"),
        ("sample_poems", ("--acrostic", "--max-seq-len", "40")): (
            "e013760de3104a213b238b60f0915632c24f604252cefa11099550b369e9cc14",
            "15dcc696f360e015ed2babe021fcc538212dac9bcee86970bf8ff81c3543e6a2"),
        ("sample_poems", ("--min-count", "2")): (
            "63f2af83b39ecfa4c422ac4655fe3419673fbcd10ea8661e8ff3a94deb4cb5db",
            "9f70551beaf437043131760a86e4f6d1d73875111d9cbc30b120fc30685317ab"),
        ("toy_corpus", ()): (
            "425d1f5946abc624accfa768661e67b45a49f47c5377be42ed9ee33024f57bb2",
            "deb1ecbdb180c23da33b9f3e5c4222770dacb1a4ad0df64b741bdb125b932d3b"),
        ("toy_corpus", ("--acrostic",)): (
            "e894b58b77d90b0aecb7bbfd4e6d437f631e43e18a2b0830e2a06fcb1ccd320e",
            "0bb1eed570ba21189b20290e272ff91adf093f88971985a99ad61928887ca222"),
        ("toy_corpus", ("--acrostic", "--max-seq-len", "40")): (
            "94911485a5c53a8b0cf38a6a5530e886dd5a1d27e3ea37c137f0b668603476cf",
            "a0f00016f50d3bc0fe8aee6a677d088c6cc8e82f0868d849af44b076ca4bdc0b"),
        ("toy_corpus", ("--min-count", "2")): (
            "425d1f5946abc624accfa768661e67b45a49f47c5377be42ed9ee33024f57bb2",
            "b7e9910e3f51b85eff025fe2a9c5243f3de7b1aae4229c3ee8c48fc4ae780051"),
    }

    @pytest.mark.parametrize("name, flags", list(GOLDEN),
                             ids=["-".join([n, *(a.lstrip("-") for a in f)])
                                  for n, f in GOLDEN])
    def test_fixture_outputs_match_recorded_digests(self, capsys, tmp_path,
                                                    name, flags):
        code, _, err = run(capsys, "ingest", str(FIXTURES / f"{name}.jsonl"),
                           "-o", str(tmp_path), *flags)
        assert code == 0, err
        assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                     for f in ("dataset.jsonl", "vocab.txt")) == self.GOLDEN[name, flags]


def _corpus_around(tmp_path, record):
    """A three-record corpus file: ``record`` between two good couplets."""
    good = {"first": "秋月", "second": "春风"}
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False)
                              for r in (good, record, good)), encoding="utf-8")
    return path


class TestTrain:
    def test_max_steps_zero_writes_nothing(self, capsys, tmp_path, pipeline):
        code, _, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                         "--vocab", str(pipeline / "vocab.txt"),
                         "-o", str(tmp_path / "run"),
                         "--d-model", "16", "--d-ff", "32", "--layers", "1",
                         "--heads", "2", "--max-steps", "0", "--seed", "1")
        assert code == 0
        assert not list((tmp_path / "run").glob("*.ckpt"))

    def test_metrics_are_line_delimited_json(self, capsys, pipeline, tmp_path):
        code, out, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"),
                           "--layers", "1", "--heads", "2", "--d-model", "16",
                           "--d-ff", "32", "--context-len", "96",
                           "--max-steps", "20", "--checkpoint-interval", "10",
                           "--seed", "2", "--heldout-fraction", "0")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all("step" in r for r in records)

    def test_reproducible_metrics(self, capsys, pipeline, tmp_path):
        outs = []
        for name in ("a", "b"):
            code, out, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                               "--vocab", str(pipeline / "vocab.txt"),
                               "-o", str(tmp_path / name),
                               "--layers", "1", "--heads", "2", "--d-model", "16",
                               "--d-ff", "32", "--context-len", "96",
                               "--max-steps", "20", "--checkpoint-interval", "10",
                               "--seed", "9", "--heldout-fraction", "0")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert ((tmp_path / "a" / "last.ckpt").read_bytes()
                == (tmp_path / "b" / "last.ckpt").read_bytes())

    def test_bad_vocab_path_exits_1(self, capsys, pipeline, tmp_path):
        code, _, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                         "--vocab", str(tmp_path / "missing.txt"),
                         "-o", str(tmp_path / "run"))
        assert code == 1

    @pytest.mark.parametrize("change, message", [
        ({"source_id": 5}, "record field 'source_id' is not a string"),
        ({"source_id": ["a"]}, "record field 'source_id' is not a string"),
        ({"text": 5}, "record field 'text' is not a string"),
        (None, "record is not a JSON object"),
    ], ids=["source_id-int", "source_id-list", "text-int", "not-an-object"])
    def test_malformed_dataset_record_exits_1(self, capsys, pipeline, tmp_path,
                                              change, message):
        lines = (pipeline / "dataset.jsonl").read_text("utf-8").splitlines()
        rec = json.loads(lines[1])
        lines[1] = json.dumps({**rec, **change} if change else list(rec.values()),
                              ensure_ascii=False)
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "train", str(dataset),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--max-steps", "1")
        assert code == 1
        assert f"{dataset}:2: bad dataset record: {message}" in err

    def test_negative_warmup_exits_1(self, capsys, pipeline, tmp_path):
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--warmup", "-1")
        assert code == 1
        assert "warmup_steps must be >= 0" in err
        assert not (tmp_path / "run").exists()

    def test_init_from_checkpoint(self, capsys, pipeline, tmp_path):
        code, _, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                         "--vocab", str(pipeline / "vocab.txt"),
                         "-o", str(tmp_path / "resumed"),
                         "--init-from", str(pipeline / "run" / "last.ckpt"),
                         "--max-steps", "5", "--checkpoint-interval", "5",
                         "--seed", "3", "--heldout-fraction", "0")
        assert code == 0
        assert (tmp_path / "resumed" / "last.ckpt").exists()

    def init_from(self, capsys, pipeline, out, *flags):
        return run(capsys, "train", str(pipeline / "dataset.jsonl"),
                   "--vocab", str(pipeline / "vocab.txt"), "-o", str(out),
                   "--init-from", str(pipeline / "run" / "last.ckpt"),
                   "--max-steps", "2", "--checkpoint-interval", "2",
                   "--seed", "3", "--heldout-fraction", "0", *flags)

    @pytest.mark.parametrize("flags", [("--dropout", "0.1", "--layers", "8"),
                                       ("--heads", "4",), ("--d-model", "32"),
                                       ("--d-ff", "16"), ("--context-len", "64")],
                             ids=["layers", "heads", "d-model", "d-ff",
                                  "context-len"])
    def test_init_from_rejects_other_architecture(self, capsys, pipeline,
                                                  tmp_path, flags):
        code, _, err = self.init_from(capsys, pipeline, tmp_path / "run", *flags)
        assert code == 1
        assert "disagrees with the checkpoint" in err
        assert not (tmp_path / "run").exists()

    def test_init_from_applies_dropout(self, capsys, pipeline, tmp_path):
        code, _, _ = self.init_from(capsys, pipeline, tmp_path / "a",
                                    "--dropout", "0.1", "--layers", "1",
                                    "--heads", "2", "--d-model", "16")
        assert code == 0
        assert load_checkpoint(tmp_path / "a" / "last.ckpt").config.dropout_rate == 0.1
        code, _, _ = self.init_from(capsys, pipeline, tmp_path / "b")
        assert code == 0
        assert load_checkpoint(tmp_path / "b" / "last.ckpt").config.dropout_rate == 0.0

    def test_samples_beyond_context_are_skipped(self, capsys, pipeline, tmp_path):
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"),
                           "--layers", "1", "--heads", "1", "--d-model", "8",
                           "--d-ff", "8", "--context-len", "32",
                           "--max-steps", "2", "--checkpoint-interval", "2",
                           "--seed", "1", "--heldout-fraction", "0")
        assert code == 0
        assert "exceed the model context" in err


class TestGenerate:
    def test_generates_and_validates(self, capsys, pipeline, toy_poems):
        theme = toy_poems[0].theme
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "五绝", "--theme", theme,
                             "-n", "2", "-k", "5", "--seed", "3",
                             "--max-new-tokens", "40")
        assert code == 0
        assert out.count("(格式)") == 2
        assert "well-formed:" in err

    def test_json_output_parses(self, capsys, pipeline, toy_poems):
        args = ("generate", str(pipeline / "run" / "last.ckpt"),
                "--vocab", str(pipeline / "vocab.txt"),
                "--form", "五绝", "--theme", toy_poems[0].theme,
                "-n", "3", "-k", "5", "--seed", "3", "--max-new-tokens", "40")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 3
        keys = {"index", "text", "body", "well_formed", "prompt_ms", "decode_ms", "tokens"}
        assert all(keys <= set(r) for r in records)
        assert all(r["tokens"] == len(r["body"]) and r["text"].endswith(r["body"])
                   for r in records)
        # the timings leave the decoded text as a plain-text run prints it
        code, text_out, _ = run(capsys, *args)
        assert code == 0
        assert [r["text"] for r in records] == text_out.splitlines()[0::2]

    def test_seeded_runs_identical(self, capsys, pipeline, toy_poems):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "generate",
                               str(pipeline / "run" / "last.ckpt"),
                               "--vocab", str(pipeline / "vocab.txt"),
                               "--form", "五绝", "--theme", toy_poems[0].theme,
                               "-n", "2", "-k", "10", "--seed", "42",
                               "--max-new-tokens", "30")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_unknown_form_lists_catalog(self, capsys, pipeline):
        code, _, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "不存在", "--theme", "x")
        assert code == 1
        assert "五绝" in err and "水调歌头" in err

    def test_zero_candidates(self, capsys, pipeline):
        code, out, _ = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--theme", "静", "-n", "0")
        assert code == 0
        assert out == ""

    def test_negative_candidates_exit_1(self, capsys, pipeline):
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "五绝", "--theme", "静", "-n", "-1")
        assert code == 1
        assert out == "" and ">= 0" in err

    def test_acrostic_flag(self, capsys, pipeline):
        code, out, _ = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--acrostic", "床疑举低",
                           "-n", "1", "-k", "5", "--seed", "3",
                           "--max-new-tokens", "40")
        assert code == 0
        assert "(藏头诗)" in out

    def test_theme_and_acrostic_together_rejected(self, capsys, pipeline):
        code, _, _ = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                         "--vocab", str(pipeline / "vocab.txt"),
                         "--form", "五绝", "--theme", "a", "--acrostic", "b")
        assert code == 1


class TestValidate:
    def test_fixture_file_rate(self, capsys):
        code, out, _ = run(capsys, "validate",
                           str(FIXTURES / "sample_poems.jsonl"))
        assert code == 0
        assert "well-formed rate: 57/57 = 1.000" in out

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "poems.jsonl"
        p.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 0
        assert "n/a" in out

    def test_unknown_form_exits_1_without_skip(self, capsys, tmp_path):
        p = tmp_path / "poems.jsonl"
        p.write_text(json.dumps({"form": "不存在", "theme": "x",
                                 "body": "床前明月光"}, ensure_ascii=False),
                     encoding="utf-8")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        code, out, _ = run(capsys, "validate", str(p), "--skip-unknown")
        assert code == 0
        assert "n/a" in out

    def test_corrupted_poems_rate_zero(self, capsys, tmp_path, fixture_poems):
        p = tmp_path / "bad.jsonl"
        with p.open("w", encoding="utf-8") as fh:
            for poem in fixture_poems[:4]:
                body = poem.body_text()[1:]   # drop the first character
                fh.write(json.dumps({"form": poem.form_id, "theme": poem.theme,
                                     "body": body}, ensure_ascii=False) + "\n")
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 0
        assert "= 0.000" in out

    def test_non_string_couplet_line_is_skipped(self, capsys, tmp_path):
        corpus = _corpus_around(tmp_path, {"first": 1, "second": "春风"})
        code, _, err = run(capsys, "validate", str(corpus))
        assert code == 1
        assert f"{corpus}:2: record field 'first' is not a string" in err
        code, out, err = run(capsys, "validate", str(corpus), "--skip-unknown")
        assert code == 0, err
        assert f"{corpus}:2: skipped: record field 'first' is not a string" in err
        assert "well-formed rate: 2/2" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "validate",
                           str(FIXTURES / "sample_poems.jsonl"), "--json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        assert all(r["well_formed"] for r in records)


class TestCatalogEnvVar:
    def test_env_var_supplies_default_catalog(self, capsys, tmp_path,
                                              monkeypatch):
        custom = tmp_path / "custom.catalog"
        custom.write_text("version = 1\n[短歌]\nclass = gushi\nlines = 5*\n",
                          encoding="utf-8")
        poems = tmp_path / "poems.jsonl"
        poems.write_text(json.dumps(
            {"form": "短歌", "theme": "x",
             "body": "床前明月光，疑是地上霜。"}, ensure_ascii=False),
            encoding="utf-8")
        monkeypatch.setenv("GUTI_CATALOG", str(custom))
        code, out, _ = run(capsys, "validate", str(poems))
        assert code == 0
        assert "1/1" in out
        monkeypatch.delenv("GUTI_CATALOG")
        code, _, _ = run(capsys, "validate", str(poems))
        assert code == 1  # built-in catalog has no 短歌 form


class TestHelp:
    def test_every_flag_carries_help_text(self):
        from guti.cli import cli as group
        import click as click_mod
        for name, command in group.commands.items():
            for param in command.params:
                if isinstance(param, click_mod.Option) and not param.is_eager:
                    assert param.help, f"{name} option {param.name} lacks help"


class TestExitCodes:
    def test_no_args_shows_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 0  # click group prints help

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag(self, capsys):
        code, _, _ = run(capsys, "validate", "--no-such-flag")
        assert code == 1

    def test_io_failure_exits_2(self, capsys, tmp_path, mini_corpus):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(mini_corpus),
                           "-o", str(not_a_dir / "sub"))
        assert code == 2
        assert "I/O failure" in err


class TestAtomicWrites:
    """A write that fails leaves the previous file byte-identical and no
    temporary file in its directory."""

    @pytest.fixture
    def fail_replace_of(self, monkeypatch):
        def arm(name):
            real = os.replace

            def replace(src, dst):
                if Path(dst).name == name:
                    raise OSError(f"injected failure replacing {name}")
                return real(src, dst)
            monkeypatch.setattr(os, "replace", replace)
        return arm

    @pytest.mark.parametrize("target", ["dataset.jsonl", "vocab.txt"])
    def test_failed_ingest_keeps_previous_file(self, capsys, tmp_path, mini_corpus,
                                               fail_replace_of, target):
        assert run(capsys, "ingest", str(mini_corpus), "-o", str(tmp_path))[0] == 0
        old = (tmp_path / target).read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        fail_replace_of(target)
        code, _, err = run(capsys, "ingest", str(mini_corpus), "-o", str(tmp_path),
                           "--acrostic")
        assert code == 2 and "injected failure" in err
        assert (tmp_path / target).read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    @pytest.mark.parametrize("target", ["last.ckpt", "metrics.jsonl"])
    def test_failed_train_keeps_previous_file(self, capsys, tmp_path, pipeline,
                                              fail_replace_of, target):
        def train(seed):
            return run(capsys, "train", str(pipeline / "dataset.jsonl"),
                       "--vocab", str(pipeline / "vocab.txt"),
                       "-o", str(tmp_path), "--layers", "1", "--heads", "2",
                       "--d-model", "16", "--d-ff", "32", "--context-len", "96",
                       "--max-steps", "4", "--checkpoint-interval", "2",
                       "--seed", seed, "--heldout-fraction", "0")
        assert train("1")[0] == 0
        old = (tmp_path / target).read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        fail_replace_of(target)
        code, _, err = train("2")
        assert code == 2 and "injected failure" in err
        assert (tmp_path / target).read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_write_raising_midway_keeps_previous_file(self, tmp_path, monkeypatch):
        class HalfWrite(io.FileIO):
            def write(self, data):
                super().write(data[:len(data) // 2])
                raise OSError("disk full")

        target = tmp_path / "vocab.txt"
        target.write_bytes(b"previous")
        monkeypatch.setattr(fileio, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            fileio.write_atomic(target, b"0123456789")
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


# one strategy per ideograph block corpus.is_cjk admits
_cjk_char = st.one_of([st.characters(min_codepoint=lo, max_codepoint=hi)
                       for lo, hi in ((0x4E00, 0x9FFF), (0x3400, 0x4DBF),
                                      (0xF900, 0xFAFF), (0x20000, 0x2A6DF),
                                      (0x2A700, 0x2EE5F), (0x2F800, 0x2FA1F),
                                      (0x30000, 0x323AF))])
_theme = st.text(st.characters(blacklist_characters="\n\r"), max_size=12).filter(
    lambda theme: not any(m in theme for m in ALL_MARKERS))


@settings(max_examples=40, deadline=None)
@given(theme=_theme, form=st.sampled_from(default_catalog().form_ids()),
       lines=st.lists(st.text(_cjk_char, min_size=1, max_size=7),
                      min_size=1, max_size=6),
       data=st.data())
def test_ingest_files_round_trip(theme, form, lines, data):
    """ingest -> dataset.jsonl + vocab.txt -> _read_dataset + load_vocab ->
    encode/decode gives back the serialized text of the ingested poem."""
    puncts = data.draw(st.lists(st.sampled_from([COMMA, PERIOD]),
                                min_size=len(lines), max_size=len(lines)))
    puncts[-1] = data.draw(st.sampled_from([COMMA, PERIOD, ""]))
    body = "".join(chars + p for chars, p in zip(lines, puncts))
    catalog = default_catalog()
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "data"
        corpus.write_text(json.dumps({"form": form, "theme": theme, "body": body},
                                     ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["ingest", str(corpus), "-o", str(out)]) == 0
        (sample,) = _read_dataset(str(out / "dataset.jsonl"), catalog)
        vocab = load_vocab(out / "vocab.txt")
    ids = encode(sample.text, vocab)
    assert vocab.unk_id not in ids
    assert decode(ids, vocab) == sample.text
    poem = deserialize(sample.text, catalog)
    assert poem.form_id == form
    assert poem.theme == normalize_body_text(theme.strip())
    assert poem.body_text() == body
