import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guti.corpus import (
    _CJK_LINE,
    _CJK_RANGES,
    Line,
    Poem,
    SerializedSample,
    _find_unique_marker,
    acrostic_transform,
    couplet_transform,
    deserialize,
    ingest_corpus,
    is_cjk,
    parse_body,
    restore_punctuation,
    sample_from_text,
    serialize,
    write_dataset,
)
from guti.errors import CorpusError, SerializationError
from guti.forms import ALL_MARKERS, ID1_MARKERS, ID2_MARKERS, parse_catalog


def make_poem(form_id, theme, body, catalog):
    return Poem(form_id=form_id, theme=theme, body=parse_body(body))


class TestIngest:
    def test_regular_record(self, catalog, tmp_path):
        rec = {"form": "五绝", "theme": "秋思",
               "body": "暮燕翻惊户，飞鸿却唤人。西风卷梧叶，触落一庭秋。"}
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        result = ingest_corpus(p, catalog)
        assert len(result.poems) == 1 and not result.diagnostics
        poem = result.poems[0]
        assert len(poem.body) == 4
        assert all(len(line) == 5 for line in poem.body)
        assert [ln.terminal_punct for ln in poem.body] == ["，", "。", "，", "。"]

    def test_empty_file(self, catalog, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        result = ingest_corpus(p, catalog)
        assert result.poems == [] and result.diagnostics == []

    def test_unpunctuated_single_line(self, catalog, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"form": "五绝", "theme": "静夜思",
                                 "body": "床前明月光"}, ensure_ascii=False),
                     encoding="utf-8")
        result = ingest_corpus(p, catalog)
        (poem,) = result.poems
        assert len(poem.body) == 1
        assert poem.body[0].terminal_punct is None

    def test_malformed_records_become_diagnostics(self, catalog, tmp_path):
        lines = [
            "not json at all",
            json.dumps({"form": "五绝", "theme": "x"}),                  # missing body
            json.dumps({"form": "不存在", "theme": "x", "body": "床前明月光"}),
            json.dumps({"form": "五绝", "theme": "好", "body": "床前明月光，疑是地上霜。"}),
        ]
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(lines), encoding="utf-8")
        result = ingest_corpus(p, catalog)
        assert len(result.poems) == 1
        assert len(result.diagnostics) == 3
        assert [d.line_no for d in result.diagnostics] == [1, 2, 3]
        # nothing dropped silently
        assert result.record_count == 4

    def test_punctuation_normalized(self, catalog, tmp_path):
        rec = {"form": "五绝", "theme": "问", "body": "床前明月光、疑是地上霜？举头望明月，低头思故乡！"}
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(rec, ensure_ascii=False), encoding="utf-8")
        (poem,) = ingest_corpus(p, catalog).poems
        assert [ln.terminal_punct for ln in poem.body] == ["，", "。", "，", "。"]

    def test_newline_separated_body_gets_punctuation_restored(self, catalog, tmp_path):
        rec = {"form": "五言绝句", "theme": "华为雄起",
               "body": "华月移樽侧\n为农古汉家\n雄风生两腋\n起舞纵天沙"}
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(rec, ensure_ascii=False), encoding="utf-8")
        (poem,) = ingest_corpus(p, catalog).poems
        assert [ln.terminal_punct for ln in poem.body] == ["，", "。", "，", "。"]

    # a line other than the last without a terminal: its serialized text
    # would run into the next line's
    @pytest.mark.parametrize("record, line", [
        ({"form": "五言绝句", "theme": "静夜思",
          "body": "床前明月光，疑是地上霜\n举头望明月，低头思故乡。"}, 2),
        ({"form": "武陵春", "theme": "游园", "body": "长忆西湖湖上宴\n一笑倒琼彝"}, 1),
        ({"first": "秋月", "second": "春风 夏雨"}, 1),
    ], ids=["jintishi-partly-punctuated", "ci-unpunctuated", "couplet-two-segments"])
    def test_merged_line_is_a_diagnostic_when_serializable(self, catalog, tmp_path,
                                                            record, line):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        result = ingest_corpus(p, catalog, serializable=True)
        assert result.poems == []
        assert [(d.line_no, d.message) for d in result.diagnostics] == [
            (1, f"body line {line} has no terminal punctuation; "
                f"serialized, it would merge with line {line + 1}")]
        # without the flag the poem keeps its lines, as guti validate reads them
        (poem,) = ingest_corpus(p, catalog).poems
        assert poem.body[line - 1].terminal_punct is None
        assert len(deserialize(serialize(poem, catalog).text).body) < len(poem.body)

    def test_unpunctuated_regular_form_is_restored_when_serializable(self, catalog,
                                                                     tmp_path):
        rec = {"form": "五言绝句", "theme": "静夜思",
               "body": "床前明月光\n疑是地上霜\n举头望明月\n低头思故乡"}
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(rec, ensure_ascii=False), encoding="utf-8")
        result = ingest_corpus(p, catalog, serializable=True)
        assert not result.diagnostics
        (poem,) = result.poems
        assert deserialize(serialize(poem, catalog).text).body == poem.body

    def test_unreadable_file(self, catalog, tmp_path):
        with pytest.raises(CorpusError):
            ingest_corpus(tmp_path / "missing.jsonl", catalog)

    @pytest.mark.parametrize("record, field", [
        ({"first": 1, "second": "春风"}, "first"),
        ({"first": "秋月", "second": ["春风"]}, "second"),
        ({"second": None}, "second"),
        ({"form": "五绝", "theme": 7, "body": "床前明月光"}, "theme"),
        ({"form": "五绝", "theme": "秋", "body": "床前明月光", "source_id": 5},
         "source_id"),
        ({"form": "五绝", "theme": "秋", "body": "床前明月光", "source_id": ["a"]},
         "source_id"),
    ], ids=["first-int", "second-list", "second-null", "theme-int",
            "source_id-int", "source_id-list"])
    def test_non_string_field_becomes_diagnostic(self, catalog, tmp_path,
                                                 record, field):
        good = {"first": "秋月", "second": "春风", "source_id": None}
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(json.dumps(r, ensure_ascii=False)
                               for r in (good, record, good)), encoding="utf-8")
        result = ingest_corpus(p, catalog)
        assert [(d.line_no, d.message) for d in result.diagnostics] == [
            (2, f"record field {field!r} is not a string")]
        assert [poem.source_id for poem in result.poems] == ["c.jsonl:1", "c.jsonl:3"]

    # a couplet's content gives one poem or one diagnostic in either record
    # shape, and a record holding fields of both shapes is refused
    @pytest.mark.parametrize("records, outcome", [
        ([{"form": "对联", "theme": " 秋月 ", "body": "春风\n"},
          {"first": " 秋月 ", "second": "春风\n"}],
         Poem("对联", "秋月", parse_body("春风"), "s")),
        ([{"form": "对联", "theme": "", "body": "春风"}, {"first": "", "second": "春风"}],
         "empty couplet first line"),
        ([{"form": "五绝", "theme": "静夜思", "body": "床前明月光，疑是地上霜。",
           "first": "秋月", "second": "春风"}, {"form": "对联", "second": "春风"}],
         "record mixes couplet fields first/second with form/theme/body"),
    ], ids=["same-content", "empty-theme", "mixed"])
    def test_couplet_record_of_either_shape(self, catalog, tmp_path, records, outcome):
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(json.dumps({**r, "source_id": "s"}, ensure_ascii=False)
                               for r in records), encoding="utf-8")
        result = ingest_corpus(p, catalog)
        assert result.poems + [d.message for d in result.diagnostics] == [outcome] * 2


class TestSerialize:
    def test_ci_marker_pair(self, catalog):
        poem = make_poem("武陵春", "游园", "长忆西湖湖上宴，一笑倒琼彝。", catalog)
        sample = serialize(poem, catalog)
        assert sample.text.startswith("武陵春(词牌名)游园(标题)长忆西湖湖上宴，")

    def test_acrostic_marker_pair(self, catalog):
        poem = make_poem("五绝", "静夜思",
                         "床前明月光，疑是地上霜。举头望明月，低头思故乡。", catalog)
        twin = acrostic_transform(poem, catalog)
        sample = serialize(twin, catalog)
        assert sample.text.startswith("五言绝句(格式)床疑举低(藏头诗)床前明月光，")

    def test_field_spans_partition_text(self, catalog, fixture_poems):
        for poem in fixture_poems:
            sample = serialize(poem, catalog)
            spans = [sample.field_spans[k]
                     for k in ("form", "id1", "theme", "id2", "body")]
            assert spans[0][0] == 0 and spans[-1][1] == len(sample.text)
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end == start
            fields = sample.fields()
            assert fields["form"] == poem.form_id
            assert fields["theme"] == poem.theme
            assert sample.prompt + sample.body == sample.text

    def test_unknown_form(self, catalog):
        poem = Poem(form_id="不存在", theme="x", body=parse_body("床前明月光"))
        with pytest.raises(Exception) as exc:
            serialize(poem, catalog)
        assert "不存在" in str(exc.value)


class TestDeserialize:
    def test_ci_text(self, catalog):
        poem = deserialize("武陵春(词牌名)游园(标题)长忆西湖湖上宴，一笑倒琼彝。")
        assert poem.form_id == "武陵春"
        assert poem.theme == "游园"
        assert len(poem.body) == 2

    def test_missing_id2_marker(self, catalog):
        with pytest.raises(SerializationError):
            deserialize("武陵春(词牌名)游园长忆西湖湖上宴")

    def test_duplicated_marker(self, catalog):
        with pytest.raises(SerializationError):
            deserialize("五绝(格式)思(格式)(标题)床前明月光")

    def test_markers_out_of_order(self, catalog):
        with pytest.raises(SerializationError):
            deserialize("五绝(标题)思(格式)床前明月光")

    def test_empty_body(self, catalog):
        with pytest.raises(SerializationError):
            deserialize("五绝(格式)思(标题)")

    def test_round_trip_over_fixture_corpus(self, catalog, fixture_poems):
        for poem in fixture_poems:
            sample = serialize(poem, catalog)
            back = deserialize(sample.text, source_id=poem.source_id)
            assert back == poem

    def test_sample_from_text_rejects_non_canonical(self, catalog):
        with pytest.raises(SerializationError):
            sample_from_text("武陵春(词牌名)游园(标题)光 光", catalog)


class TestCoupletTransform:
    def test_table_row(self):
        poem = couplet_transform("一句相思吟岁月", "几分寂寞醉诗词")
        assert poem.form_id == "对联"
        assert poem.theme == "一句相思吟岁月"
        assert poem.body_text() == "几分寂寞醉诗词"

    def test_single_character_lines(self):
        poem = couplet_transform("一", "二")
        assert poem.theme == "一" and poem.body_text() == "二"

    def test_empty_line_rejected(self):
        with pytest.raises(CorpusError):
            couplet_transform("", "几分寂寞醉诗词")
        with pytest.raises(CorpusError):
            couplet_transform("一句相思吟岁月", "  ")

    def test_couplet_round_trip(self, catalog, fixture_poems):
        couplets = [p for p in fixture_poems if p.form_id == "对联"]
        assert couplets
        for poem in couplets:
            sample = serialize(poem, catalog)
            assert deserialize(sample.text, source_id=poem.source_id) == poem


class TestAcrosticTransform:
    def test_quatrain_initials(self, catalog):
        poem = make_poem("五绝", "静夜思",
                         "床前明月光，疑是地上霜。举头望明月，低头思故乡。", catalog)
        twin = acrostic_transform(poem, catalog)
        assert twin.theme == "床疑举低"
        assert twin.form_id == "五言绝句"
        assert twin.body == poem.body

    def test_eight_line_poem_uses_odd_sentences(self, catalog, fixture_poems):
        (poem,) = [p for p in fixture_poems if p.source_id == "t6-acrostic"]
        # already the acrostic variant; transforming again keeps the theme
        twin = acrostic_transform(poem, catalog)
        assert twin.theme == "一路平安"

    def test_single_line_poem(self, catalog):
        poem = Poem(form_id="五绝", theme="一", body=parse_body("一二三四五"))
        twin = acrostic_transform(poem, catalog)
        assert twin.theme == "一"

    def test_idempotent(self, catalog, toy_poems):
        for poem in toy_poems[:10]:
            once = acrostic_transform(poem, catalog)
            twice = acrostic_transform(once, catalog)
            assert twice.theme == once.theme
            assert twice.form_id == once.form_id

    def test_twin_equals_the_checked_poem(self, catalog, fixture_poems, toy_poems):
        for poem in fixture_poems + toy_poems:
            acrostic_id = catalog.resolve(poem.form_id).acrostic_id
            if acrostic_id is None:
                continue
            variant = catalog.resolve(acrostic_id)
            twin = acrostic_transform(poem, catalog)
            checked = dataclasses.replace(poem, form_id=variant.form_id,
                                          theme=poem.line_initials(variant.acrostic_slots))
            assert type(twin) is Poem
            assert twin == checked and hash(twin) == hash(checked)
            assert repr(twin) == repr(checked)
            assert pickle.loads(pickle.dumps(twin)) == checked

    def test_form_without_variant(self, catalog):
        poem = make_poem("武陵春", "游园", "长忆西湖湖上宴，一笑倒琼彝。", catalog)
        with pytest.raises(CorpusError):
            acrostic_transform(poem, catalog)

    def test_acrostic_entry_without_form_line_is_its_own_variant(self):
        # an entry with the acrostic markers needs no acrostic-form line
        catalog = parse_catalog("version = 1\n[藏]\nclass = jintishi\n"
                                "markers = acrostic\nlines = 5 5\n")
        poem = Poem(form_id="藏", theme="秋", body=parse_body("床前明月光，疑是地上霜。"))
        twin = acrostic_transform(poem, catalog)
        assert twin == dataclasses.replace(poem, theme="床疑")
        assert acrostic_transform(twin, catalog) == twin


class TestInvariants:
    def test_line_rejects_punctuation(self):
        with pytest.raises(CorpusError):
            Line("床前，明月")

    def test_poem_rejects_marker_in_theme(self):
        with pytest.raises(CorpusError):
            Poem(form_id="五绝", theme="秋(标题)思", body=parse_body("床前明月光"))

    def test_theme_error_names_leftmost_marker(self):
        with pytest.raises(CorpusError, match=r"'\(格式\)'"):
            Poem(form_id="五绝", theme="秋(格式)思(标题)", body=parse_body("床前明月光"))

    def test_dangling_punctuation(self):
        with pytest.raises(CorpusError):
            parse_body("，床前明月光")

    def test_line_rejects_empty_characters(self):
        with pytest.raises(CorpusError, match="^empty line$"):
            Line("")

    def test_line_rejects_other_terminal_punctuation(self):
        with pytest.raises(CorpusError, match="^bad terminal punctuation '!'$"):
            Line("春", "!")

    def test_poem_rejects_empty_body(self):
        with pytest.raises(CorpusError, match="^poem body is empty$"):
            Poem("五绝", "春", ())


class TestIdeographRanges:
    def test_is_cjk_and_line_class_agree_at_range_edges(self):
        ranges = sorted(_CJK_RANGES)
        # no two ranges touch, so a code point just outside one is outside all
        assert all(b + 1 < c for (_, b), (c, _) in zip(ranges, ranges[1:]))
        for first, last in ranges:
            for cp, inside in ((first - 1, False), (first, True),
                               (last, True), (last + 1, False)):
                assert is_cjk(chr(cp)) is inside, f"U+{cp:04X}"
                assert (_CJK_LINE.fullmatch(chr(cp)) is not None) is inside, f"U+{cp:04X}"

    @pytest.mark.parametrize("cp", [0x4E00, 0x3400, 0xF900, 0x20000, 0x2A6DF,
                                    0x2A700, 0x2B740, 0x2B820, 0x2CEB0,
                                    0x2EBF0, 0x2F800, 0x30000, 0x323AF],
                             ids=lambda cp: f"U+{cp:04X}")
    def test_ideographs_accepted(self, cp):
        assert is_cjk(chr(cp))
        Line(chr(cp) * 2, "，")

    @pytest.mark.parametrize("ch", ["a", "あ", "ア", "\U0002A6E0", "\U0002FA20",
                                    "\U000323B0"],
                             ids=["ascii", "hiragana", "katakana", "gap-B-C",
                                  "past-compat-supplement", "past-H"])
    def test_other_characters_rejected(self, ch):
        assert not is_cjk(ch)
        with pytest.raises(CorpusError, match="non-CJK"):
            Line("明" + ch + "月")

    def test_extension_b_poem_round_trips(self, catalog, table):
        from guti.trainer import NoveltyIndex
        from guti.validator import validate
        body = "床前明月光，疑是地上霜。举头望明月，低头思故\U00020000。"
        poem = make_poem("五绝", "静夜思", body, catalog)
        assert poem.body[-1].characters == "低头思故\U00020000"
        assert validate(poem, catalog, table).well_formed
        sample = serialize(poem, catalog)
        assert deserialize(sample.text) == poem
        assert sample_from_text(sample.text, catalog) == sample
        index = NoveltyIndex.from_samples([sample])
        assert index.score_lines(["低头思故\U00020000"]).verbatim_lines == 1


# characters drawn from a small CJK window keep the strategies fast
_cjk = st.text(alphabet=[chr(c) for c in range(0x4E00, 0x4E80)],
               min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_cjk, min_size=1, max_size=8), theme=_cjk,
       data=st.data())
def test_serialize_deserialize_identity(lines, theme, data):
    """Round-trip holds for any poem whose internal lines are punctuated."""
    from guti.forms import default_catalog
    catalog = default_catalog()
    puncts = data.draw(st.lists(st.sampled_from(["，", "。"]),
                                min_size=len(lines), max_size=len(lines)))
    last = data.draw(st.sampled_from(["，", "。", None]))
    body = []
    for i, chars in enumerate(lines):
        punct = last if i == len(lines) - 1 else puncts[i]
        body.append(Line(chars, punct))
    poem = Poem(form_id="五绝", theme=theme, body=tuple(body))
    sample = serialize(poem, catalog)
    assert deserialize(sample.text) == poem


def _reference_find_unique_marker(text, markers, what):
    """The per-marker ``str.find`` loop that ``MARKER_RE`` replaced in
    ``deserialize``, kept as its reference."""
    hits = []
    for marker in markers:
        start = 0
        while True:
            idx = text.find(marker, start)
            if idx < 0:
                break
            hits.append((idx, marker))
            start = idx + len(marker)
    if not hits:
        raise SerializationError(f"missing {what} marker")
    if len(hits) > 1:
        raise SerializationError(f"duplicated {what} marker")
    return hits[0]


_MARKER_ERRORS = ("missing field-1 marker", "missing field-2 marker",
                  "duplicated field-1 marker", "duplicated field-2 marker",
                  "field markers out of order")


def _reference_marker_error(text):
    """deserialize's marker error for ``text`` by the reference loop, or None."""
    try:
        i1, m1 = _reference_find_unique_marker(text, ID1_MARKERS, "field-1")
        i2, _ = _reference_find_unique_marker(text, ID2_MARKERS, "field-2")
    except SerializationError as exc:
        return str(exc)
    return "field markers out of order" if i2 < i1 + len(m1) else None


# markers, fragments of them, body characters and punctuation
_marker_text = st.lists(
    st.sampled_from(list(ALL_MARKERS) + ["(", ")", "(标题", "格式)", "，", "。"])
    | st.characters(min_codepoint=0x4E00, max_codepoint=0x4E08),
    max_size=12).map("".join)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SerializationError, CorpusError) as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_marker_text)
def test_marker_errors_match_reference_loop(text):
    for markers, what in ((ID1_MARKERS, "field-1"), (ID2_MARKERS, "field-2")):
        assert (_outcome(_find_unique_marker, text, markers, what)
                == _outcome(_reference_find_unique_marker, text, markers, what))
    expected = _reference_marker_error(text)
    got = _outcome(deserialize, text)
    if expected is not None:
        assert got == expected
    else:
        assert got not in _MARKER_ERRORS


def _reference_parse_body(text):
    """The per-character loop that ``parse_body``'s segment pattern replaced,
    with the per-character check ``Line`` made before its compiled class and
    the ``str.translate`` normalization, kept as their reference."""
    def line(chars, punct):
        for ch in chars:
            if not is_cjk(ch):
                raise CorpusError(f"non-CJK character {ch!r} inside a line")
        return Line(chars, punct)

    text = text.translate(str.maketrans({"、": "，", "？": "。", "！": "。"}))
    lines = []
    buf = []
    for ch in text:
        if ch in ("，", "。"):
            if not buf:
                raise CorpusError(f"dangling punctuation {ch!r}")
            lines.append(line("".join(buf), ch))
            buf = []
        elif ch == "\n" or ch.isspace():
            if buf:
                lines.append(line("".join(buf), None))
                buf = []
        else:
            buf.append(ch)
    if buf:
        lines.append(line("".join(buf), None))
    if not lines:
        raise CorpusError("empty body")
    return tuple(lines)


# ideographs in and beyond the BMP, every punctuation mark ingest knows,
# the whitespace sources use between lines, and ASCII
_body_text = st.lists(
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4E10)
    | st.characters(min_codepoint=0x20000, max_codepoint=0x20008)
    | st.sampled_from(list("，。、？！") + [" ", "\u3000", "\t", "\n"])
    | st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(_body_text)
def test_parse_body_matches_reference_loop(text):
    assert _outcome(parse_body, text) == _outcome(_reference_parse_body, text)


def _assert_checked_line(line):
    """``line`` is in every way the Line the checked constructor builds."""
    checked = Line(line.characters, line.terminal_punct)
    assert type(line) is Line
    assert (line.characters, line.terminal_punct) == (checked.characters,
                                                      checked.terminal_punct)
    assert line == checked and hash(line) == hash(checked)
    assert repr(line) == repr(checked)
    assert pickle.loads(pickle.dumps(line)) == checked


def _unpunctuated(lines):
    return tuple(Line(line.characters) for line in lines)


def test_unchecked_lines_equal_checked_lines_on_fixtures(fixture_poems, toy_poems):
    for poem in fixture_poems + toy_poems:
        for line in parse_body(poem.body_text()) + restore_punctuation(
                _unpunctuated(poem.body)):
            _assert_checked_line(line)


@settings(max_examples=300, deadline=None)
@given(_body_text)
def test_unchecked_lines_equal_checked_lines(text):
    try:
        lines = parse_body(text)
    except CorpusError:
        return
    for line in lines + restore_punctuation(_unpunctuated(lines)):
        _assert_checked_line(line)


def test_replaced_sample_rebuilds_its_text(catalog, fixture_poems):
    sample = serialize(fixture_poems[0], catalog)
    other = dataclasses.replace(sample, theme="秋")
    assert other.text == sample.form + sample.id1 + "秋" + sample.id2 + sample.body


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(st.characters(blacklist_categories=("Cs",))),
                      min_size=1, max_size=4),
       source_ids=st.lists(st.none() | st.text(st.characters(
           blacklist_categories=("Cs",))), min_size=4, max_size=4))
def test_write_dataset_writes_what_json_dumps_writes(tmp_path_factory, texts,
                                                     source_ids):
    samples = [SerializedSample("", "", "", "", text, source_id=source_id)
               for text, source_id in zip(texts, source_ids)]
    path = tmp_path_factory.mktemp("dataset") / "dataset.jsonl"
    write_dataset(samples, path)
    assert path.read_bytes() == "".join(
        json.dumps({"text": s.text, "source_id": s.source_id}, ensure_ascii=False) + "\n"
        for s in samples).encode("utf-8")
