import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guti
from guti import cli, fileio
from guti.cli import main
from guti.corpus import deserialize, ingest_corpus, normalize_body_text, read_dataset
from guti.errors import CatalogError, CorpusError, VocabError
from guti.forms import ALL_MARKERS, COMMA, PERIOD, default_catalog, load_catalog
from guti.model import ModelConfig, load_checkpoint
from guti.phonology import PhonologyError, load_table
from guti.sampler import BatchReport, SampleConfig
from guti.trainer import TrainConfig, TrainReport
from guti.vocab import build_vocab, decode, encode, load_vocab

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(guti.__file__).parent / "data"    # the shipped catalog and table


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

    def test_acrostic_keeps_a_poem_too_short_for_its_variant(self, capsys, tmp_path):
        # a 4-line 七律 cannot fill 七言律诗's slots 1 3 5 7: the poem stays,
        # only its twin is dropped, and the records around it are kept
        quatrain = "床前明月光，疑是地上霜。举头望明月，低头思故乡。"
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (
            {"form": "五绝", "theme": "静夜思", "body": quatrain},
            {"form": "七律", "theme": "短", "body": quatrain},
            {"first": "秋月", "second": "春风"})), encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(tmp_path / "o"),
                           "--acrostic")
        assert code == 0, err
        assert "2 poems have no acrostic twin; kept as-is" in err
        assert "skipped:" not in err
        lines = (tmp_path / "o" / "dataset.jsonl").read_text("utf-8").splitlines()
        assert [json.loads(line)["text"].partition("(")[0] for line in lines] == [
            "五绝", "五言绝句", "七律", "对联"]

    def test_acrostic_poem_is_its_own_twin(self, capsys, tmp_path):
        # a 五言绝句 whose theme spells its line initials is already its twin:
        # it is written once and counted among the poems with no twin
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (
            {"form": "五绝", "theme": "春晓",
             "body": "春眠不觉晓，处处闻啼鸟。夜来风雨声，花落知多少。"},
            {"form": "五言绝句", "theme": "床疑举低",
             "body": "床前明月光，疑是地上霜。举头望明月，低头思故乡。"},
            {"first": "秋月", "second": "春风"})), encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(tmp_path / "o"),
                           "--acrostic")
        assert code == 0, err
        assert "2 poems have no acrostic twin; kept as-is" in err
        lines = (tmp_path / "o" / "dataset.jsonl").read_text("utf-8").splitlines()
        assert len(set(lines)) == len(lines)
        assert [json.loads(line)["text"].partition("(藏头诗)")[0] for line in lines] == [
            "五绝(格式)春晓(标题)春眠不觉晓，处处闻啼鸟。夜来风雨声，花落知多少。",
            "五言绝句(格式)春处夜花", "五言绝句(格式)床疑举低", "对联(格式)秋月(对联)春风"]

    def test_escaped_lone_surrogate_is_skipped(self, capsys, tmp_path):
        good = {"form": "五绝", "theme": "静夜思",
                "body": "床前明月光，疑是地上霜。举头望明月，低头思故乡。"}
        corpus = tmp_path / "c.jsonl"
        # json.dumps escapes the surrogates, so the file itself is valid UTF-8
        corpus.write_text("".join(json.dumps(r) + "\n" for r in (
            good, {**good, "theme": "静\ud800"}, {**good, "source_id": "\udcff"})),
            encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(tmp_path / "o"))
        assert code == 0
        assert f"{corpus}:2: skipped: theme contains a lone surrogate" in err
        assert f"{corpus}:3: skipped: source_id contains a lone surrogate" in err
        assert len((tmp_path / "o" / "dataset.jsonl").read_text("utf-8").splitlines()) == 1

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

    # the body lines are 床前明月光， / 疑是地上霜 / 举头望明月， / 低头思故乡。 and
    # line 2, with no terminal, would run into line 3 in the sample text
    MERGED = {"form": "五言绝句", "theme": "静夜思",
              "body": "床前明月光，疑是地上霜\n举头望明月，低头思故乡。"}

    @pytest.mark.parametrize("record, line", [
        (MERGED, 2),
        ({"form": "武陵春", "theme": "游园", "body": "长忆西湖湖上宴\n一笑倒琼彝"}, 1),
        ({"first": "秋月", "second": "春风 夏雨"}, 1),
    ], ids=["jintishi-partly-punctuated", "ci-unpunctuated", "couplet-two-segments"])
    def test_poem_whose_lines_would_merge_is_skipped(self, capsys, tmp_path,
                                                     record, line):
        corpus = _corpus_around(tmp_path, record)
        out = tmp_path / "o"
        code, _, err = run(capsys, "ingest", str(corpus), "-o", str(out), "--acrostic")
        assert code == 0, err
        assert (f"{corpus}:2: skipped: body line {line} has no terminal punctuation; "
                f"serialized, it would merge with line {line + 1}") in err
        assert "ingested 2 poems (1 skipped records)" in err
        catalog = default_catalog()
        assert [s.source_id for s in read_dataset(out / "dataset.jsonl", catalog)] == [
            "c.jsonl:1", "c.jsonl:3"]

    def test_validate_still_reads_the_merged_lines(self, capsys, tmp_path):
        corpus = _corpus_around(tmp_path, self.MERGED)
        code, out, err = run(capsys, "validate", str(corpus), "--json")
        assert code == 0, err
        assert "skipped" not in err
        *reports, rate = out.splitlines()
        assert [json.loads(r)["source_id"] for r in reports] == [
            "c.jsonl:1", "c.jsonl:2", "c.jsonl:3"]
        assert rate.startswith("well-formed rate: ") and "/3 = " in rate

    # one record of every kind ingest rejects, between two good ones; the
    # lines up to line 12 are as ingest printed them before merged lines
    # were rejected
    def test_diagnostics_are_pinned(self, capsys, tmp_path):
        good = "床前明月光，疑是地上霜。举头望明月，低头思故乡。"
        lines = [json.dumps(r, ensure_ascii=False) for r in (
            {"form": "五言绝句", "theme": "静夜思", "body": good},
        )] + ["not json", "[1, 2]"] + [json.dumps(r, ensure_ascii=False) for r in (
            {"form": "五言绝句", "theme": "秋"},
            {"form": "五言绝句", "theme": 7, "body": good},
            {"form": "七言排律", "theme": "秋", "body": good},
            {"form": "五言绝句", "theme": "秋", "body": " \n "},
            {"form": "五言绝句", "theme": "秋", "body": "，" + good},
            {"form": "五言绝句", "theme": "秋", "body": good[:-1] + "a。"},
            {"form": "五言绝句", "theme": "秋(标题)", "body": good},
            {"form": "五言绝句", "theme": "秋\n思", "body": good},
        )] + [json.dumps({"form": "五言绝句", "theme": "秋\ud800", "body": good})] + [
            json.dumps(r, ensure_ascii=False) for r in (
                self.MERGED, {"first": "春风", "second": "秋月"})]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", str(corpus), "-o", str(tmp_path / "o"),
                             "--acrostic")
        assert code == 0 and out == ""
        assert err.splitlines() == [f"guti: {corpus}:{n}: skipped: {message}" for n, message in (
            (2, "Expecting value: line 1 column 1 (char 0)"),
            (3, "record is not a JSON object"),
            (4, "record missing required field 'body'"),
            (5, "record field 'theme' is not a string"),
            (6, "unknown form: '七言排律'"),
            (7, "empty body"),
            (8, "dangling punctuation '，'"),
            (9, "non-CJK character 'a' inside a line"),
            (10, "theme contains identifier marker '(标题)'"),
            (11, "theme contains a line break"),
            (12, "theme contains a lone surrogate"),
            (13, "body line 2 has no terminal punctuation; "
                 "serialized, it would merge with line 3"),
        )] + ["guti: 1 poems have no acrostic twin; kept as-is",
              "guti: ingested 2 poems (12 skipped records), wrote 3 samples, vocab size 39"]

    def test_negative_max_seq_len_exits_1(self, capsys, tmp_path, mini_corpus):
        code, _, err = run(capsys, "ingest", str(mini_corpus), "-o",
                           str(tmp_path / "o"), "--max-seq-len", "-5")
        assert code == 1
        assert "--max-seq-len" in err
        assert not (tmp_path / "o").exists()

    def test_no_sample_within_max_seq_len_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", str(FIXTURES / "sample_poems.jsonl"),
                           "-o", str(tmp_path / "o"), "--max-seq-len", "3")
        assert code == 1
        assert "no sample fits --max-seq-len 3" in err
        assert "vocabulary" not in err
        assert not (tmp_path / "o").exists()

    # sha256 of dataset.jsonl and vocab.txt per fixture and flag set, as the
    # per-character parser and tokenizer wrote them; the compiled-regex
    # passes that replaced those loops must write the same bytes.  The
    # "--max-seq-len 40 --min-count 2" rows are as the ingest that built the
    # vocabulary, dropped long samples and built it again wrote them.  The
    # sample_poems "--acrostic" rows are as ingest wrote them once a poem that
    # is its own acrostic twin was written once: each dataset.jsonl is the
    # former one less its repeated lines, in the same order.
    GOLDEN = {
        ("sample_poems", ()): (
            "63f2af83b39ecfa4c422ac4655fe3419673fbcd10ea8661e8ff3a94deb4cb5db",
            "c0a8dcc53724d31df401f01bffa4de5fbb69fbf180534753d02681071fa15052"),
        ("sample_poems", ("--acrostic",)): (
            "7e75144ed6ea4036efd2413951b7d0154a178b767ae2629554e2b8f7cf382f9f",
            "5ca5fe8da384bef29939a1822ea1582afbd07278468e0a2031b175aaac156754"),
        ("sample_poems", ("--acrostic", "--max-seq-len", "40")): (
            "d5ffd5b4ca3aeef9653e1b8f280d7098fe5c12c01e08c436cdd751e52dfd16b7",
            "8ab3e545605f121d6b2f9ebb02778fe501bea5645bcd5d1abb1221f6be5705d3"),
        ("sample_poems", ("--acrostic", "--max-seq-len", "40", "--min-count", "2")): (
            "d5ffd5b4ca3aeef9653e1b8f280d7098fe5c12c01e08c436cdd751e52dfd16b7",
            "61116b40dcdf7bae8468b16db44cd193eeab2f92f18191270c3c11f235e62f06"),
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
        ("toy_corpus", ("--acrostic", "--max-seq-len", "40", "--min-count", "2")): (
            "94911485a5c53a8b0cf38a6a5530e886dd5a1d27e3ea37c137f0b668603476cf",
            "40554a29126f07cf15efe6d426e5b9615afa54a86c52c05a01ba9de5184e9f53"),
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


@pytest.mark.parametrize("command", ["ingest", "validate"])
def test_couplet_form_missing_from_the_catalog_is_skipped(capsys, tmp_path, command):
    """A couplet record is looked up like any record's form: with a catalog
    that has no 对联, it is a skipped record, not the end of the run."""
    catalog = tmp_path / "one.catalog"
    catalog.write_text("version = 1\n[五绝]\nclass = jintishi\nlines = 5 5 / 5 5\n",
                       encoding="utf-8")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (
        {"first": "秋月", "second": "春风"},
        {"form": "五绝", "theme": "静夜思",
         "body": "床前明月光，疑是地上霜。举头望明月，低头思故乡。"})), encoding="utf-8")
    flags = ["-o", str(tmp_path / "out")] if command == "ingest" else ["--skip-unknown"]
    code, out, err = run(capsys, command, str(corpus), *flags, "--catalog", str(catalog))
    assert code == 0, err
    assert f"{corpus}:1: skipped: unknown form: '对联'\n" in err
    assert ("ingested 1 poems (1 skipped records)" in err if command == "ingest"
            else "well-formed rate: 1/1" in out)


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

    def test_reproducible_across_processes(self, pipeline, tmp_path):
        # two fresh interpreters, one seed, dropout, a held-out shard and
        # novelty probes: every file written is the same bytes; both inherit
        # this process's BLAS thread count
        src = str(Path(guti.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for name in ("a", "b"):
            subprocess.run([sys.executable, "-m", "guti", "train",
                            str(pipeline / "dataset.jsonl"),
                            "--vocab", str(pipeline / "vocab.txt"), "-o", str(tmp_path / name),
                            "--layers", "1", "--heads", "2", "--d-model", "16",
                            "--d-ff", "32", "--context-len", "96", "--dropout", "0.1",
                            "--max-steps", "12", "--checkpoint-interval", "4",
                            "--novelty-interval", "6", "--heldout-fraction", "0.2",
                            "--seed", "11"], env=env, check=True, capture_output=True)
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert {"metrics.jsonl", "last.ckpt", "step-000004.ckpt"} <= set(files)
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

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

    @pytest.mark.parametrize("theme", [" 静夜思", "静夜思 ", "静夜、思", "静夜思？"],
                             ids=["leading-space", "trailing-space", "dunhao", "question"])
    def test_record_ingest_could_not_write_exits_1(self, capsys, pipeline, tmp_path,
                                                   theme):
        # ingest normalizes every theme, so no prompt can produce this prefix
        dataset = tmp_path / "dataset.jsonl"
        text = f"五绝(格式){theme}(标题)床前明月光，疑是地上霜。举头望明月，低头思故乡。"
        dataset.write_text(json.dumps({"text": text}, ensure_ascii=False) + "\n",
                           encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{re.escape(str(dataset))}:1: "
                           "bad dataset record: text is not in canonical serialized form"):
            read_dataset(dataset, default_catalog())
        code, _, err = run(capsys, "train", str(dataset),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--max-steps", "1")
        assert code == 1
        assert f"{dataset}:1: bad dataset record" in err
        assert not (tmp_path / "run").exists()

    def test_early_stop_without_novelty_interval_exits_1(self, capsys, pipeline,
                                                         tmp_path):
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--early-stop-novelty", "0.5")
        assert code == 1
        assert "early_stop_novelty needs novelty_eval_interval > 0" in err
        assert not (tmp_path / "run").exists()

    def test_nan_early_stop_novelty_exits_1(self, capsys, pipeline, tmp_path):
        # a NaN threshold ran every step with early stopping silently off
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--novelty-interval", "2",
                           "--early-stop-novelty", "nan", "--max-steps", "6")
        assert code == 1, err
        assert "early_stop_novelty must not be NaN" in err
        assert not (tmp_path / "run").exists()

    def test_every_step_skipped_exits_1_and_says_so(self, capsys, pipeline, tmp_path):
        # lr 1e39 overflows every float32 update, so each step is skipped;
        # this once exited 0 with "ran 3 steps" and a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                                 "--vocab", str(pipeline / "vocab.txt"),
                                 "-o", str(tmp_path / "run"), "--layers", "1",
                                 "--heads", "1", "--d-model", "16", "--d-ff", "32",
                                 "--max-steps", "3", "--warmup", "0", "--lr", "1e39",
                                 "--seed", "1")
        assert code == 1, err
        assert "ran 3 steps in" in err
        assert "(3 skipped for a non-finite second moment or update)" in err
        assert "no step was applied" in err
        assert out == "" and (tmp_path / "run" / "metrics.jsonl").read_bytes() == b""

    def test_early_stop_is_named_in_the_summary(self, capsys, pipeline, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(cli.trainer_mod, "_probe_novelty", lambda *args: 0.25)
        code, out, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "-o", str(tmp_path / "run"), "--layers", "1",
                             "--heads", "2", "--d-model", "16", "--d-ff", "32",
                             "--max-steps", "8", "--checkpoint-interval", "2",
                             "--novelty-interval", "3", "--early-stop-novelty", "0.5",
                             "--seed", "1")
        assert code == 0, err
        assert "ran 3 steps in" in err
        assert ("stopped early at step 3: probe novelty 0.25 is below "
                "--early-stop-novelty 0.5") in err
        assert out == (tmp_path / "run" / "metrics.jsonl").read_text(encoding="utf-8")

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_unusable_learning_rate_exits_1(self, capsys, pipeline, tmp_path, lr):
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--lr", lr, "--max-steps", "1",
                           "--layers", "1", "--heads", "2", "--d-model", "16",
                           "--d-ff", "32")
        assert code == 1, err
        assert "learning_rate must be > 0" in err
        assert not (tmp_path / "run").exists()

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

    def test_init_from_reports_the_first_disagreeing_flag(self, capsys, pipeline,
                                                          tmp_path):
        # the architecture flags are checked in --help order, not argv order
        code, _, err = self.init_from(capsys, pipeline, tmp_path / "run",
                                      "--d-ff", "16", "--layers", "8")
        assert code == 1
        assert err == "guti: --layers 8 disagrees with the checkpoint's n_layers 1\n"

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

    @pytest.mark.parametrize("flags, message", [
        (("--context-len", "8"), "every sample exceeds the model context"),
        (("--heldout-fraction", "0.999"), "held-out split left no training samples"),
    ], ids=["context", "heldout"])
    def test_no_sample_left_to_train_exits_1(self, capsys, pipeline, tmp_path, flags,
                                             message):
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"), "--max-steps", "2", *flags)
        assert code == 1
        assert err.endswith(f"guti: {message}\n")
        assert not (tmp_path / "run").exists()

    def test_dataset_of_blank_lines_exits_1(self, capsys, pipeline, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n\n  \n", encoding="utf-8")
        code, _, err = run(capsys, "train", str(dataset),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"))
        assert code == 1
        assert err == f"guti: {dataset}: no samples\n"
        assert not (tmp_path / "run").exists()


class TestConfigOptions:
    """Every option that sets a config field reaches that field."""

    @staticmethod
    def assert_fields(got, expected, default, derived=()):
        for name, value in asdict(expected).items():
            if name not in derived:      # a default value would prove nothing
                assert value != getattr(default, name), name
            assert getattr(got, name) == value, name

    def test_train_options_set_their_fields(self, capsys, pipeline, tmp_path,
                                            monkeypatch):
        seen = {}

        def fine_tune(samples, vocab, params, cfg, out_dir):
            seen.update(model=params.config, train=cfg)
            return params, TrainReport()

        monkeypatch.setattr(cli.trainer_mod, "fine_tune", fine_tune)
        code, _, err = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "-o", str(tmp_path / "run"),
                           "--layers", "1", "--heads", "2", "--d-model", "16",
                           "--d-ff", "24", "--context-len", "96", "--dropout", "0.1",
                           "--lr", "1e-3", "--batch-size", "4", "--max-steps", "3",
                           "--warmup", "1", "--checkpoint-interval", "2",
                           "--novelty-interval", "2", "--early-stop-novelty", "0.5",
                           "--heldout-fraction", "0.25", "--seed", "7")
        assert code == 0, err
        vocab_size = load_vocab(pipeline / "vocab.txt").size
        self.assert_fields(seen["model"], ModelConfig(
            n_layers=1, n_heads=2, d_model=16, d_ff=24, context_len=96,
            vocab_size=vocab_size, dropout_rate=0.1), ModelConfig, derived={"vocab_size"})
        self.assert_fields(seen["train"], TrainConfig(
            learning_rate=1e-3, batch_size=4, max_steps=3, warmup_steps=1,
            checkpoint_interval=2, novelty_eval_interval=2, seed=7,
            heldout_fraction=0.25, early_stop_novelty=0.5), TrainConfig)

    def test_generate_options_set_their_fields(self, capsys, pipeline, monkeypatch):
        seen = {}

        def generate_batch(params, form, theme, count, cfg, *args, **kwargs):
            seen["sample"] = cfg
            return BatchReport()

        monkeypatch.setattr(cli, "generate_batch", generate_batch)
        code, _, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--theme", "春", "-k", "5",
                           "--temperature", "0.7", "--max-new-tokens", "40",
                           "--seed", "9")
        assert code == 0, err
        self.assert_fields(seen["sample"], SampleConfig(
            k=5, temperature=0.7, max_new_tokens=40, seed=9), SampleConfig,
            derived={"forbid"})


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
        known = ", ".join(default_catalog().form_ids())
        assert err.endswith(f"guti: unknown form: '不存在' (known forms: {known})\n")

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

    def test_acrostic_on_a_form_without_variant_exits_1(self, capsys, pipeline):
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "对联", "--acrostic", "春秋", "-n", "1", "--seed", "1")
        assert code == 1
        assert out == "" and err == "guti: form '对联' has no acrostic variant\n"

    def test_empty_acrostic_target(self, capsys, pipeline):
        code, out, _ = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--acrostic", "",
                           "-n", "2", "-k", "5", "--seed", "3",
                           "--max-new-tokens", "40")
        assert code == 0
        assert out.count("(藏头诗)") == 2

    @pytest.mark.parametrize("theme, message", [
        ("春\n夏", "theme contains a line break"),
        ("春\udcff", "theme contains a lone surrogate"),   # a non-UTF-8 argv byte
    ], ids=["line-break", "surrogate"])
    def test_refused_theme_exits_1(self, capsys, pipeline, theme, message):
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "五绝", "--theme", theme, "-n", "2", "--seed", "1")
        assert code == 1
        assert out == "" and err == f"guti: {message}\n"

    def test_nan_temperature_exits_1(self, capsys, pipeline):
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "五绝", "--theme", "静", "--temperature", "nan")
        assert code == 1
        assert out == "" and "temperature must be > 0" in err

    def test_corrupt_checkpoint_exits_1(self, capsys, pipeline, tmp_path):
        data = bytearray((pipeline / "run" / "last.ckpt").read_bytes())
        data[data.index(b"tok_emb")] = 0xFF
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(bytes(data))
        code, _, err = run(capsys, "generate", str(ckpt),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--theme", "静")
        assert code == 1
        assert "out of order (wanted 'tok_emb')" in err

    def test_vocab_of_another_size_exits_1(self, capsys, pipeline, tmp_path):
        text = (pipeline / "vocab.txt").read_text("utf-8")
        short = tmp_path / "vocab.txt"
        short.write_text(text.removesuffix("\n").rpartition("\n")[0] + "\n", encoding="utf-8")
        size = load_vocab(pipeline / "vocab.txt").size
        code, out, err = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                             "--vocab", str(short), "--form", "五绝", "--theme", "静")
        assert code == 1 and out == ""
        assert err == (f"guti: checkpoint vocab size {size} does not match "
                       f"vocab file size {size - 1}\n")

    def test_config_block_of_wrong_type_exits_1(self, capsys, pipeline, tmp_path):
        data = (pipeline / "run" / "last.ckpt").read_bytes()
        (n,) = struct.unpack("<I", data[12:16])     # after the magic and the version
        block = data[16:16 + n].replace(b'"d_model": 16', b'"d_model": 16.0')
        ckpt = tmp_path / "float.ckpt"
        ckpt.write_bytes(data[:12] + struct.pack("<I", len(block)) + block + data[16 + n:])
        code, _, err = run(capsys, "generate", str(ckpt),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--theme", "静")
        assert code == 1
        assert "bad config block" in err

    def test_untied_config_block_exits_1(self, capsys, pipeline, tmp_path):
        data = (pipeline / "run" / "last.ckpt").read_bytes()
        (n,) = struct.unpack("<I", data[12:16])     # after the magic and the version
        block = data[16:16 + n].replace(b'"tie_embeddings": true',
                                        b'"tie_embeddings": false')
        ckpt = tmp_path / "untied.ckpt"
        ckpt.write_bytes(data[:12] + struct.pack("<I", len(block)) + block + data[16 + n:])
        code, _, err = run(capsys, "generate", str(ckpt),
                           "--vocab", str(pipeline / "vocab.txt"),
                           "--form", "五绝", "--theme", "静")
        assert code == 1
        assert "bad config block" in err

    def test_config_block_past_numpy_dims_exits_1(self, capsys, pipeline, tmp_path):
        """A config block whose dims no array could take is a malformed
        checkpoint, exit 1, not an internal error."""
        data = (pipeline / "run" / "last.ckpt").read_bytes()
        (n,) = struct.unpack("<I", data[12:16])     # after the magic and the version
        cfg = json.loads(data[16:16 + n])
        vocab_size = cfg["vocab_size"]
        cfg.update(vocab_size=2**40, d_model=2**40)
        block = json.dumps(cfg, sort_keys=True).encode("utf-8")
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(data[:12] + struct.pack("<I", len(block)) + block + data[16 + n:])
        code, out, err = run(capsys, "generate", str(ckpt),
                             "--vocab", str(pipeline / "vocab.txt"),
                             "--form", "五绝", "--theme", "静")
        assert code == 1 and out == ""
        assert err == (f"guti: {ckpt}: tensor 'tok_emb' has shape ({vocab_size}, 16), "
                       "expected (1099511627776, 1099511627776)\n")

    def test_theme_and_acrostic_together_rejected(self, capsys, pipeline):
        code, _, _ = run(capsys, "generate", str(pipeline / "run" / "last.ckpt"),
                         "--vocab", str(pipeline / "vocab.txt"),
                         "--form", "五绝", "--theme", "a", "--acrostic", "b")
        assert code == 1

    @pytest.mark.parametrize("themes", [
        [], ["--theme", "a", "--acrostic", "b"], ["--acrostic", "b", "--theme", "a"],
    ], ids=["neither", "both", "both-acrostic-first"])
    def test_theme_checked_before_any_input_loads(self, capsys, tmp_path, themes):
        missing = str(tmp_path / "missing")
        code, _, err = run(capsys, "generate", missing, "--vocab", missing,
                           "--form", "五绝", *themes)
        assert code == 1
        assert err == "guti: give exactly one of --theme or --acrostic\n"


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

    # sha256 of `guti validate --json` stdout, as the validator that derived
    # each form's templates and tone slots on every call printed it;
    # faulted_poems.jsonl holds one poem per fault kind
    GOLDEN = {
        ("sample_poems", ()):
            "e52eb14152bebc906cc6ebf3a508bec051ab45526158bb63f1bdbbd304400ea1",
        ("toy_corpus", ()):
            "30988e49bb280ac8d9d77ac33b1e2fbceb7915ed703e65ecd7c2322b4183dad5",
        ("faulted_poems", ()):
            "82341c821cc86fe7fd72e79ed608b874f6856eca863735c3bd0a4b5960a48121",
        ("faulted_poems", ("--strict-phonology",)):
            "e4c7130ea1327fd8aa4179f9d74d5b3242e43347584ce438fb4b36abbf83e1da",
    }

    @pytest.mark.parametrize("name, flags", list(GOLDEN),
                             ids=["-".join([n, *(a.lstrip("-") for a in f)])
                                  for n, f in GOLDEN])
    def test_json_reports_match_recorded_digests(self, capsys, name, flags):
        code, out, err = run(capsys, "validate", str(FIXTURES / f"{name}.jsonl"),
                             "--json", *flags)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.GOLDEN[name, flags]

    # sha256 of `guti validate` text stdout for one poem per fault kind, as
    # the validator built on frozen-dataclass results printed it: pins how
    # each failure renders its level, rule, positions and message
    TEXT_GOLDEN = {
        ():
            "418fdb541e3026f3dba7ff5738c259643a4d2ea1c9bad41383d08969195e7309",
        ("--strict-phonology",):
            "f55c98b5e0a83ea4d9045cad1101233fd54db37c79c0adc6527ba5d210f1ef56",
    }

    @pytest.mark.parametrize("flags", list(TEXT_GOLDEN),
                             ids=["-".join(["faulted_poems", *(a.lstrip("-") for a in f)])
                                  for f in TEXT_GOLDEN])
    def test_text_reports_match_recorded_digests(self, capsys, flags):
        code, out, err = run(capsys, "validate", str(FIXTURES / "faulted_poems.jsonl"),
                             *flags)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.TEXT_GOLDEN[flags]


BOM = "\ufeff"


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, mini_corpus):
    """Input kind -> (a file of that kind, its loader, the loader's error)."""
    data = tmp_path_factory.mktemp("ingested")
    assert main(["ingest", str(mini_corpus), "-o", str(data)]) == 0
    catalog = default_catalog()
    return {
        "corpus": (FIXTURES / "sample_poems.jsonl",
                   lambda p: ingest_corpus(p, catalog), CorpusError),
        "catalog": (DATA / "forms.catalog", lambda p: load_catalog(p).entries,
                    CatalogError),
        "phonology table": (DATA / "phonology.tsv", load_table, PhonologyError),
        "dataset": (data / "dataset.jsonl", lambda p: read_dataset(p, catalog),
                    CorpusError),
        "vocab": (data / "vocab.txt", load_vocab, VocabError),
    }


INPUT_KINDS = ["corpus", "catalog", "phonology table", "dataset", "vocab"]


class TestByteOrderMark:
    """User-written input files may start with a UTF-8 BOM (Windows editors
    write one); it must not change what they load to."""

    def bom_copy(self, src: Path, dst: Path) -> Path:
        dst.write_text(BOM + src.read_text("utf-8"), encoding="utf-8")
        return dst

    @pytest.mark.parametrize("kind", INPUT_KINDS,
                             ids=["corpus", "catalog", "table", "dataset", "vocab"])
    def test_loads_equal(self, tmp_path, input_files, kind):
        plain, load, _ = input_files[kind]
        bom = self.bom_copy(plain, tmp_path / plain.name)
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load(bom) == load(plain)

    def test_ingest_writes_the_plain_corpus_bytes(self, capsys, tmp_path):
        plain = FIXTURES / "toy_corpus.jsonl"
        bom = self.bom_copy(plain, tmp_path / plain.name)
        for src, out in ((plain, "plain"), (bom, "bom")):
            code, _, err = run(capsys, "ingest", str(src), "-o", str(tmp_path / out))
            assert code == 0, err
        for f in ("dataset.jsonl", "vocab.txt"):
            assert ((tmp_path / "bom" / f).read_bytes()
                    == (tmp_path / "plain" / f).read_bytes())

    def test_validate_accepts_bom_inputs(self, capsys, tmp_path):
        corpus = self.bom_copy(FIXTURES / "sample_poems.jsonl", tmp_path / "c.jsonl")
        cat = self.bom_copy(DATA / "forms.catalog", tmp_path / "forms.catalog")
        table = self.bom_copy(DATA / "phonology.tsv", tmp_path / "phonology.tsv")
        code, out, err = run(capsys, "validate", str(corpus), "--catalog", str(cat),
                             "--table", str(table))
        assert code == 0, err
        assert "well-formed rate: 57/57 = 1.000" in out


class TestUnreadableInput:
    """An input file that is missing or not UTF-8 is the loader's own error,
    so the CLI exits 1 and names the file."""

    @pytest.fixture(params=["missing", "not-utf-8"])
    def bad_file(self, request, tmp_path):
        path = tmp_path / "input"
        if request.param == "not-utf-8":
            path.write_bytes("静夜思".encode("gbk") + b"\n")
        return path

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_loader_raises_its_error(self, input_files, bad_file, kind):
        _, load, error = input_files[kind]
        with pytest.raises(error, match=f"^cannot read {kind} {re.escape(str(bad_file))}: "):
            load(bad_file)

    @pytest.mark.parametrize("what, argv", [
        ("corpus", lambda bad, out, data: ["ingest", bad, "-o", out]),
        ("corpus", lambda bad, out, data: ["validate", bad]),
        ("catalog", lambda bad, out, data: [
            "validate", str(FIXTURES / "sample_poems.jsonl"), "--catalog", bad]),
        ("phonology table", lambda bad, out, data: [
            "validate", str(FIXTURES / "sample_poems.jsonl"), "--table", bad]),
        ("dataset", lambda bad, out, data: [
            "train", bad, "--vocab", str(data / "vocab.txt"), "-o", out]),
        ("vocab", lambda bad, out, data: [
            "generate", str(data / "run" / "last.ckpt"), "--vocab", bad,
            "--form", "五绝", "--theme", "静"]),
        ("catalog", lambda bad, out, data: [
            "ingest", str(FIXTURES / "toy_corpus.jsonl"), "-o", out, "--catalog", bad]),
        ("catalog", lambda bad, out, data: [
            "train", str(data / "dataset.jsonl"), "--vocab", str(data / "vocab.txt"),
            "-o", out, "--catalog", bad]),
        ("vocab", lambda bad, out, data: [
            "train", str(data / "dataset.jsonl"), "--vocab", bad, "-o", out]),
        ("checkpoint", lambda bad, out, data: [
            "train", str(data / "dataset.jsonl"), "--vocab", str(data / "vocab.txt"),
            "-o", out, "--init-from", bad]),
        ("checkpoint", lambda bad, out, data: [
            "generate", bad, "--vocab", str(data / "vocab.txt"),
            "--form", "五绝", "--theme", "静"]),
        ("catalog", lambda bad, out, data: [
            "generate", str(data / "run" / "last.ckpt"), "--vocab", str(data / "vocab.txt"),
            "--form", "五绝", "--theme", "静", "--catalog", bad]),
        ("phonology table", lambda bad, out, data: [
            "generate", str(data / "run" / "last.ckpt"), "--vocab", str(data / "vocab.txt"),
            "--form", "五绝", "--theme", "静", "--table", bad]),
    ], ids=["ingest", "validate", "catalog", "table", "train-dataset", "vocab",
            "ingest-catalog", "train-catalog", "train-vocab", "train-init-from",
            "generate-ckpt", "generate-catalog", "generate-table"])
    def test_cli_exits_1(self, capsys, tmp_path, pipeline, bad_file, what, argv):
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv(str(bad_file), str(out), pipeline))
        assert code == 1, err
        if what == "checkpoint":    # a checkpoint that is not UTF-8 has bad magic bytes
            assert any(line.startswith("guti: ") and str(bad_file) in line
                       for line in err.splitlines()), err
        else:
            assert f"guti: cannot read {what} {bad_file}: " in err
        assert not out.exists()


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

    def test_version_from_the_source_tree(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0, err
        assert out == f"guti, version {guti.__version__}\n"

    @pytest.mark.parametrize("command, option, value", [
        ("train", "--seed", "-1"), ("train", "--model-seed", "-3"),
        ("generate", "--seed", "-5")], ids=["train-seed", "train-model-seed", "generate-seed"])
    def test_negative_seed_exits_1(self, capsys, tmp_path, pipeline, command,
                                   option, value):
        # numpy's default_rng takes no negative seed: it raised ValueError
        # inside the command, which exited 2 as an internal error
        out_dir = tmp_path / "out"
        args = {"train": (str(pipeline / "dataset.jsonl"), "-o", str(out_dir)),
                "generate": (str(pipeline / "run" / "last.ckpt"),
                             "--form", "五绝", "--theme", "静")}[command]
        code, out, err = run(capsys, command, *args, "--vocab",
                             str(pipeline / "vocab.txt"), option, value)
        assert code == 1
        assert f"Invalid value for '{option}'" in err
        assert out == "" and not out_dir.exists()

    def test_io_failure_exits_2(self, capsys, tmp_path, mini_corpus):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "ingest", str(mini_corpus),
                           "-o", str(not_a_dir / "sub"))
        assert code == 2
        assert "I/O failure" in err

    @pytest.mark.parametrize("raised, code, message", [
        (KeyboardInterrupt(), 1, "guti: aborted"),
        (RuntimeError("boom"), 2, "guti: internal error: RuntimeError: boom")],
        ids=["interrupt", "unexpected"])
    def test_interrupted_or_failing_command_exit_code(self, capsys, tmp_path, pipeline,
                                                      monkeypatch, raised, code, message):
        def fail(*args, **kwargs):
            raise raised
        monkeypatch.setattr(cli.trainer_mod, "fine_tune", fail)
        got, out, err = run(capsys, "train", str(pipeline / "dataset.jsonl"), "--vocab",
                            str(pipeline / "vocab.txt"), "-o", str(tmp_path / "out"),
                            "--seed", "1")
        assert got == code
        assert out == "" and err.splitlines()[-1] == message


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
# a UTF-8 corpus file cannot hold a lone surrogate (category Cs); an escaped
# one is rejected on ingest (test_escaped_lone_surrogate_is_skipped)
_theme = st.text(st.characters(blacklist_characters="\n\r",
                               blacklist_categories=("Cs",)), max_size=12).filter(
    lambda theme: not any(m in theme for m in ALL_MARKERS))


@settings(max_examples=40, deadline=None)
@given(theme=_theme, form=st.sampled_from(default_catalog().form_ids()),
       lines=st.lists(st.text(_cjk_char, min_size=1, max_size=7),
                      min_size=1, max_size=6),
       data=st.data())
def test_ingest_files_round_trip(theme, form, lines, data):
    """ingest -> dataset.jsonl + vocab.txt -> read_dataset + load_vocab ->
    encode/decode gives back the serialized text of the ingested poem.  A
    couplet's theme is its first line, so one that strips to nothing is
    refused and ingest writes nothing."""
    puncts = data.draw(st.lists(st.sampled_from([COMMA, PERIOD]),
                                min_size=len(lines), max_size=len(lines)))
    puncts[-1] = data.draw(st.sampled_from([COMMA, PERIOD, ""]))
    body = "".join(chars + p for chars, p in zip(lines, puncts))
    catalog = default_catalog()
    refused = (catalog.resolve(form).line_template.kind == "mirror"
               and not normalize_body_text(theme.strip()))
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "data"
        corpus.write_text(json.dumps({"form": form, "theme": theme, "body": body},
                                     ensure_ascii=False) + "\n", encoding="utf-8")
        if refused:
            assert main(["ingest", str(corpus), "-o", str(out)]) == 1
            assert not out.exists()
            return
        assert main(["ingest", str(corpus), "-o", str(out)]) == 0
        (sample,) = read_dataset(str(out / "dataset.jsonl"), catalog)
        vocab = load_vocab(out / "vocab.txt")
    ids = encode(sample.text, vocab)
    assert vocab.unk_id not in ids
    assert decode(ids, vocab) == sample.text
    poem = deserialize(sample.text)
    assert poem.form_id == form
    assert poem.theme == normalize_body_text(theme.strip())
    assert poem.body_text() == body
