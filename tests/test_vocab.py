import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guti.corpus import SerializedSample, acrostic_transform, serialize
from guti.errors import VocabError
from guti.forms import ALL_MARKERS, MARKER_RE
from guti.trainer import encode_sample, sample_token_count
from guti.vocab import (BOS, EOS, PAD, UNK, Vocab, _scan, build_vocab, decode, encode,
                        load_vocab, save_vocab)


def test_five_character_corpus(tmp_path):
    vocab = build_vocab(["床前明月光"])
    # 4 specials + 5 markers + 5 characters
    assert vocab.size == 4 + 5 + 5
    assert vocab.pad_id == 0 and vocab.bos_id == 1
    assert vocab.eos_id == 2 and vocab.unk_id == 3
    assert all(m < 9 for m in vocab.marker_ids)
    save_vocab(vocab, tmp_path / "vocab.txt")
    fixed = [(PAD, Vocab.pad_id), (BOS, Vocab.bos_id), (EOS, Vocab.eos_id),
             (UNK, Vocab.unk_id), *zip(ALL_MARKERS, Vocab.marker_ids)]
    for v in (vocab, load_vocab(tmp_path / "vocab.txt")):
        assert [v.token_to_id[tok] for tok, _ in fixed] == [i for _, i in fixed]


def test_min_count_threshold_excludes_hapax():
    vocab = build_vocab(["床床前"], min_count=2)
    assert "床" in vocab.token_to_id
    assert "前" not in vocab.token_to_id
    assert encode("前", vocab) == [vocab.unk_id]


@pytest.mark.parametrize("min_count", [1.5, True])
def test_non_integral_min_count_rejected(min_count):
    # either one built a vocabulary whose saved header load_vocab refused
    with pytest.raises(VocabError, match=f"^min_count must be an integer, not {min_count}$"):
        build_vocab(["床床前"], min_count=min_count)


def test_build_is_deterministic(toy_samples):
    a = build_vocab(toy_samples)
    b = build_vocab(toy_samples)
    assert a.tokens == b.tokens


def test_frequency_then_codepoint_ordering():
    vocab = build_vocab(["乙乙甲", "丙甲"])
    chars = vocab.tokens[9:]
    # 乙 and 甲 both occur twice; tie broken by codepoint (甲 > 乙)
    assert chars == ("乙", "甲", "丙")


def test_markers_encode_as_single_ids(toy_samples):
    vocab = build_vocab(toy_samples)
    for marker in ALL_MARKERS:
        ids = encode(marker, vocab)
        assert len(ids) == 1
        assert vocab.tokens[ids[0]] == marker


def test_empty_text_encodes_empty(toy_samples):
    vocab = build_vocab(toy_samples)
    assert encode("", vocab) == []
    assert decode([], vocab) == ""


def test_decode_specials_render_empty(toy_samples):
    vocab = build_vocab(toy_samples)
    assert decode([vocab.eos_id], vocab) == ""
    assert decode([vocab.pad_id, vocab.bos_id, vocab.unk_id], vocab) == ""


def test_decode_out_of_range_raises(toy_samples):
    vocab = build_vocab(toy_samples)
    with pytest.raises(VocabError):
        decode([vocab.size], vocab)


def test_empty_corpus_rejected():
    with pytest.raises(VocabError):
        build_vocab([])


def test_corpus_wide_round_trip(toy_samples, fixture_poems, catalog):
    fixture_samples = [serialize(p, catalog) for p in fixture_poems]
    vocab = build_vocab(toy_samples + fixture_samples)
    for sample in toy_samples + fixture_samples:
        assert decode(encode(sample.text, vocab), vocab) == sample.text


def test_vocab_file_round_trip(tmp_path, toy_samples):
    vocab = build_vocab(toy_samples, min_count=1)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.min_count == vocab.min_count


def test_vocab_file_bad_header(tmp_path):
    p = tmp_path / "vocab.txt"
    save_vocab(build_vocab(["床前明月光"]), p)
    good = p.read_text(encoding="utf-8")
    assert good.startswith("guti-vocab v1 min_count=1\n")
    for header, message in [
        ("something else", "missing or unsupported vocab header"),
        # versions v12 and v1x, not v1
        ("guti-vocab v12 min_count=1", "missing or unsupported vocab header"),
        ("guti-vocab v1x min_count=3", "missing or unsupported vocab header"),
        ("guti-vocab v1", "bad vocab header"),
        ("guti-vocab v1 min_count=x", "bad vocab header"),
        ("guti-vocab v1 min_count=01", "bad vocab header"),
        ("guti-vocab v1 min_count=1 ", "bad vocab header"),
        # counts build_vocab refuses
        ("guti-vocab v1 min_count=0", "bad vocab header"),
        ("guti-vocab v1 min_count=-4", "bad vocab header"),
        ("guti-vocab v1 min_count=None", "bad vocab header"),
    ]:
        p.write_text(header + good[good.index("\n"):], encoding="utf-8")
        with pytest.raises(VocabError, match=message):
            load_vocab(p)


@pytest.mark.parametrize("edit", [
    lambda toks: [toks[1], toks[0], *toks[2:]],
    lambda toks: [*toks[:2], toks[3], toks[2], *toks[4:]],
    lambda toks: [*toks[:4], *toks[5:]],
], ids=["pad-bos-swapped", "eos-unk-swapped", "marker-missing"])
def test_vocab_file_without_the_fixed_prefix(tmp_path, edit):
    p = tmp_path / "vocab.txt"
    save_vocab(build_vocab(["床前明月光"]), p)
    header, *tokens = p.read_text(encoding="utf-8").splitlines()
    p.write_text("\n".join([header, *edit(tokens)]) + "\n", encoding="utf-8")
    with pytest.raises(VocabError, match="^" + re.escape(
            f"{p}: vocab does not start with the fixed special tokens") + "$"):
        load_vocab(p)


@pytest.mark.parametrize("token", ["床", ALL_MARKERS[2], UNK],
                         ids=["character", "marker", "special"])
def test_vocab_file_listing_a_token_twice(tmp_path, token):
    # the refusal named neither the file nor the token.  明 is repeated too,
    # after it: the token named is the first listed of those repeated
    p = tmp_path / "vocab.txt"
    save_vocab(build_vocab(["床前明月光"]), p)
    p.write_text(p.read_text(encoding="utf-8") + f"明\n{token}\n", encoding="utf-8")
    with pytest.raises(VocabError, match="^" + re.escape(f"{p}: token {token!r} listed twice") + "$"):
        load_vocab(p)


@pytest.mark.parametrize("line, token", [("床\n", ""), ("床床", "床床")],
                         ids=["blank-line", "two-characters"])
def test_vocab_file_with_a_line_that_is_not_one_character(tmp_path, line, token):
    # build_vocab writes one code point a line; a blank line took an id and
    # shifted every later one, and 床床 left 床 to encode as <unk>
    p = tmp_path / "vocab.txt"
    save_vocab(build_vocab(["床前明月光"]), p)
    p.write_text(p.read_text(encoding="utf-8").replace("\n床\n", f"\n{line}\n"),
                 encoding="utf-8")
    with pytest.raises(VocabError, match="^" + re.escape(
            f"{p}: token {token!r} is not one character") + "$"):
        load_vocab(p)
@settings(max_examples=80, deadline=None)
@given(st.text(alphabet=[chr(c) for c in range(0x4E00, 0x4E60)] + list("，。"),
               min_size=0, max_size=30))
def test_round_trip_identity_on_known_characters(text):
    vocab = build_vocab(["".join(chr(c) for c in range(0x4E00, 0x4E60)) + "，。"])
    assert decode(encode(text, vocab), vocab) == text


def _reference_scan(text):
    """The per-character marker scan that ``_scan`` replaced, kept as its
    reference: at each position try every marker, else take one character."""
    i = 0
    while i < len(text):
        for marker in ALL_MARKERS:
            if text.startswith(marker, i):
                yield marker
                i += len(marker)
                break
        else:
            yield text[i]
            i += 1


# whole markers, fragments of them, CJK in and beyond the BMP, "\n", NUL
# and a lone surrogate
SCAN_PIECES = st.sampled_from(
    list(ALL_MARKERS) + ["(", ")", "(标题", "格式)", "\n", "，", "\x00", "\ud800",
                         "\U00020000", "\U0002A6DF", "\U00030000"]
) | st.characters(min_codepoint=0x4E00, max_codepoint=0x4E10)


def test_no_marker_is_a_prefix_of_another():
    # the tokenizer's alternation picks the first marker that matches, so
    # it is greedy only while no marker starts another
    for a in ALL_MARKERS:
        for b in ALL_MARKERS:
            assert a == b or not b.startswith(a)


def test_parenthesis_opens_every_marker_and_nothing_else_in_one():
    # build_vocab cuts markers out of texts joined by a marker, and ingest
    # counts a sample's tokens from its fields: both hold only while no
    # marker match can start inside another string and end past it
    for marker in ALL_MARKERS:
        assert marker.find("(") == 0 and marker.count("(") == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(SCAN_PIECES, max_size=25).map("".join))
def test_scan_matches_reference_loop(text):
    assert _scan(text) == list(_reference_scan(text))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SCAN_PIECES, max_size=25).map("".join), min_size=1,
                max_size=4),
       st.integers(min_value=1, max_value=3),
       st.lists(SCAN_PIECES, max_size=25).map("".join))
def test_build_and_encode_match_reference_scan(texts, min_count, query):
    counts = Counter(tok for text in texts for tok in _reference_scan(text)
                     if tok not in ALL_MARKERS)
    chars = sorted((t for t, c in counts.items() if c >= min_count),
                   key=lambda t: (-counts[t], t))
    vocab = build_vocab(texts, min_count=min_count)
    assert vocab.tokens[9:] == tuple(chars)
    assert encode(query, vocab) == [vocab.token_to_id.get(tok, vocab.unk_id)
                                    for tok in _reference_scan(query)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SCAN_PIECES, max_size=25).map("".join), min_size=1,
                max_size=3),
       st.integers(min_value=1, max_value=3),
       st.lists(st.lists(SCAN_PIECES, max_size=12).map("".join)
                .filter(lambda field: not MARKER_RE.search(field)), min_size=3,
                max_size=3))
def test_sample_token_count_needs_no_vocabulary(texts, min_count, parts):
    # the sample's characters need not be in the vocabulary: they encode as
    # UNK.  Its fields hold no marker, as every sample serialize makes, but
    # may hold a marker's pieces, which the fields' own markers do not join
    vocab = build_vocab(texts, min_count=min_count)
    sample = SerializedSample(parts[0], ALL_MARKERS[0], parts[1], ALL_MARKERS[1],
                              parts[2])
    assert sample_token_count(sample) == len(encode_sample(sample, vocab))


def test_sample_token_count_of_every_fixture_sample(fixture_poems, toy_samples, catalog):
    """The count ``guti ingest --max-seq-len`` and ``guti train`` filter on,
    for every sample ``serialize`` makes of the fixtures, acrostic twins
    included."""
    twins = [acrostic_transform(p, catalog) for p in fixture_poems
             if catalog.resolve(p.form_id).acrostic_id is not None]
    samples = [serialize(p, catalog) for p in [*fixture_poems, *twins]] + list(toy_samples)
    vocab = build_vocab(samples)
    assert twins and all(sample_token_count(s) == len(encode_sample(s, vocab))
                         for s in samples)
