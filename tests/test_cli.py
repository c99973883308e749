import io
import json
import os
from pathlib import Path

import pytest

from guti import fileio
from guti.cli import main
from guti.vocab import build_vocab, load_vocab

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

    def test_init_from_checkpoint(self, capsys, pipeline, tmp_path):
        code, _, _ = run(capsys, "train", str(pipeline / "dataset.jsonl"),
                         "--vocab", str(pipeline / "vocab.txt"),
                         "-o", str(tmp_path / "resumed"),
                         "--init-from", str(pipeline / "run" / "last.ckpt"),
                         "--max-steps", "5", "--checkpoint-interval", "5",
                         "--seed", "3", "--heldout-fraction", "0")
        assert code == 0
        assert (tmp_path / "resumed" / "last.ckpt").exists()

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
