from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guti.corpus import serialize
from guti.errors import VocabError
from guti.forms import ALL_MARKERS
from guti.vocab import _scan, build_vocab, decode, encode, load_vocab, save_vocab


def test_five_character_corpus():
    vocab = build_vocab(["床前明月光"])
    # 4 specials + 5 markers + 5 characters
    assert vocab.size == 4 + 5 + 5
    assert vocab.pad_id == 0 and vocab.bos_id == 1
    assert vocab.eos_id == 2 and vocab.unk_id == 3
    assert all(m < 9 for m in vocab.marker_ids)


def test_min_count_threshold_excludes_hapax():
    vocab = build_vocab(["床床前"], min_count=2)
    assert "床" in vocab.token_to_id
    assert "前" not in vocab.token_to_id
    assert encode("前", vocab) == [vocab.unk_id]


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
    p.write_text("something else\n<pad>\n", encoding="utf-8")
    with pytest.raises(VocabError):
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


# whole markers, fragments of them, CJK in and beyond the BMP, and "\n"
SCAN_PIECES = st.sampled_from(
    list(ALL_MARKERS) + ["(", ")", "(标题", "格式)", "\n", "，",
                         "\U00020000", "\U0002A6DF", "\U00030000"]
) | st.characters(min_codepoint=0x4E00, max_codepoint=0x4E10)


def test_no_marker_is_a_prefix_of_another():
    # the tokenizer's alternation picks the first marker that matches, so
    # it is greedy only while no marker starts another
    for a in ALL_MARKERS:
        for b in ALL_MARKERS:
            assert a == b or not b.startswith(a)


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
