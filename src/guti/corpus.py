"""Poem ingestion and the field-marker text serialization.

Training samples are flat character strings in the field order
``form + id1 + theme + id2 + body``; the identifier tokens are the marker
pair the form's catalog entry declares.  Couplets store the first line as
the theme and the second as the body; the acrostic transform replaces the
theme with the line-initial characters and re-points the poem at the form's
acrostic variant so serialization picks the acrostic marker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_string
from pathlib import Path

from .errors import CorpusError, GutiError, SerializationError, UnknownFormError
from .fileio import read_text, write_atomic
from .forms import (
    COMMA,
    ID1_MARKERS,
    ID2_MARKERS,
    MARKER_RE,
    PERIOD,
    FormCatalog,
)

# Punctuation normalization applied on ingest; everything else inside a
# body is expected to be a CJK character.
_PUNCT_MAP = (("、", COMMA), ("？", PERIOD), ("！", PERIOD))

# Ideograph blocks a line may hold, as inclusive code point ranges.
_CJK_RANGES = (
    (0x4E00, 0x9FFF),       # CJK Unified Ideographs
    (0x3400, 0x4DBF),       # Extension A
    (0xF900, 0xFAFF),       # Compatibility Ideographs
    (0x20000, 0x2A6DF),     # Extension B
    (0x2A700, 0x2EE5F),     # Extensions C, D, E, F, I
    (0x2F800, 0x2FA1F),     # Compatibility Ideographs Supplement
    (0x30000, 0x323AF),     # Extensions G, H
)
_CJK_CLASS = "".join(f"{chr(a)}-{chr(b)}" for a, b in _CJK_RANGES)
_CJK_LINE = re.compile(f"[{_CJK_CLASS}]+")

# One token of a normalized body: a line (an ideograph run and its optional
# terminal), or the first character that no line can start with.  Whitespace
# (regex ``\s`` is exactly ``str.isspace``) matches neither, so ``findall``
# steps over it.
_BODY_TOKEN = re.compile(rf"([{_CJK_CLASS}]+)([{COMMA}{PERIOD}]?)|(\S)")

# A lone surrogate (a JSON "\ud800" escape decodes to one) has no UTF-8
# encoding, so no file guti writes could hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(a <= cp <= b for a, b in _CJK_RANGES)


def check_theme(theme: str, error: type[GutiError]) -> None:
    """Raise ``error`` if a theme holds a marker, a line break or a lone surrogate."""
    marker = MARKER_RE.search(theme)
    if marker:
        raise error(f"theme contains identifier marker {marker[0]!r}")
    # vocab.txt holds one token per line, so no token may be "\n" or "\r"
    if "\n" in theme or "\r" in theme:
        raise error("theme contains a line break")
    if _SURROGATE.search(theme):
        raise error("theme contains a lone surrogate")


@dataclass(frozen=True, slots=True)
class Line:
    """One punctuation-delimited segment of a poem body."""

    characters: str
    terminal_punct: str | None = None   # COMMA, PERIOD, or None

    def __post_init__(self):
        if not self.characters:
            raise CorpusError("empty line")
        if not _CJK_LINE.fullmatch(self.characters):
            ch = next(ch for ch in self.characters if not is_cjk(ch))
            raise CorpusError(f"non-CJK character {ch!r} inside a line")
        if self.terminal_punct not in (None, COMMA, PERIOD):
            raise CorpusError(f"bad terminal punctuation {self.terminal_punct!r}")

    def __len__(self) -> int:
        return len(self.characters)


@dataclass(frozen=True, slots=True)
class Poem:
    """A structured poem record."""

    form_id: str
    theme: str
    body: tuple[Line, ...]
    source_id: str | None = None

    def __post_init__(self):
        if not self.body:
            raise CorpusError("poem body is empty")
        check_theme(self.theme, CorpusError)
        if _SURROGATE.search(self.source_id or ""):
            raise CorpusError("source_id contains a lone surrogate")

    def body_text(self) -> str:
        return "".join([line.characters + (line.terminal_punct or "")
                        for line in self.body])

    def line_initials(self, slots: tuple[int, ...] = ()) -> str:
        """First characters of the given 1-indexed lines (all lines if empty)."""
        if not slots:
            slots = tuple(range(1, len(self.body) + 1))
        for s in slots:
            if not 1 <= s <= len(self.body):
                raise CorpusError(f"acrostic slot {s} outside the poem")
        return "".join(self.body[s - 1].characters[0] for s in slots)


@dataclass(frozen=True, slots=True)
class SerializedSample:
    """Flat training text held as its five fields, in text order.

    The fields partition ``text`` by construction: it is joined from them
    once, when the sample is made.  ``fields()`` and ``field_spans`` are
    derived from them too.
    """

    form: str
    id1: str
    theme: str
    id2: str
    body: str
    source_id: str | None = None
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "text",
                           self.form + self.id1 + self.theme + self.id2 + self.body)

    @property
    def prompt(self) -> str:
        """The four fields before the body: the text generation starts from."""
        return self.form + self.id1 + self.theme + self.id2

    def fields(self) -> dict[str, str]:
        return {"form": self.form, "id1": self.id1, "theme": self.theme,
                "id2": self.id2, "body": self.body}

    @property
    def field_spans(self) -> dict[str, tuple[int, int]]:
        spans, pos = {}, 0
        for name, part in self.fields().items():
            spans[name] = (pos, pos + len(part))
            pos += len(part)
        return spans


# Unchecked constructor: it sets a frozen Line's slots directly, with no
# ``__init__`` and none of its checks, for lines that are already proven
# (a body match proves every line it yields).
_new = object.__new__
_set_characters, _set_terminal = Line.characters.__set__, Line.terminal_punct.__set__


def _line(characters: str, terminal_punct: str | None) -> Line:
    line = _new(Line)
    _set_characters(line, characters)
    _set_terminal(line, terminal_punct)
    return line


def normalize_body_text(text: str) -> str:
    """Map loose punctuation onto the canonical comma/period pair.

    ``str.replace`` scans for one character in C; ``str.translate`` would
    look every character of the text up in its table.
    """
    for loose, canonical in _PUNCT_MAP:
        text = text.replace(loose, canonical)
    return text


def normalize_theme(theme: str) -> str:
    """A theme as a sample holds it: stripped, its punctuation normalized."""
    return normalize_body_text(theme.strip())


def parse_body(text: str) -> tuple[Line, ...]:
    """Split body text into Lines on terminal punctuation and whitespace.

    After normalization a body must match this grammar, where ``ideograph``
    is any character of ``_CJK_RANGES`` and ``space`` any ``str.isspace``
    character::

        body     = space* line (space* line)* space*
        line     = ideograph+ terminal?
        terminal = "，" | "。"

    So whitespace (newlines included) closes a line without terminal
    punctuation (used by sources that print poem lines without
    punctuation).  One ``_BODY_TOKEN`` pass checks that and yields the
    lines, left to right; its Lines need no check of their own.  The first
    character that breaks the grammar is reported: CorpusError on a
    terminal with no ideograph before it, on a non-CJK character, or on a
    body with no line.
    """
    lines = []
    for chars, punct, fault in _BODY_TOKEN.findall(normalize_body_text(text)):
        if fault:
            if fault in (COMMA, PERIOD):
                raise CorpusError(f"dangling punctuation {fault!r}")
            raise CorpusError(f"non-CJK character {fault!r} inside a line")
        lines.append(_line(chars, punct or None))
    if not lines:
        raise CorpusError("empty body")
    return tuple(lines)


def restore_punctuation(lines: tuple[Line, ...]) -> tuple[Line, ...]:
    """Give an unpunctuated multi-line body the alternating comma/period.

    Sources that print one line per row often drop punctuation entirely;
    the serialized text format needs it to keep line boundaries, so ingest
    restores the conventional pattern for regular forms.
    """
    if len(lines) < 2 or any(line.terminal_punct is not None for line in lines):
        return lines
    return tuple([_line(line.characters, PERIOD if i % 2 else COMMA)
                  for i, line in enumerate(lines)])


@dataclass(frozen=True)
class IngestDiagnostic:
    line_no: int
    message: str


@dataclass
class IngestResult:
    poems: list[Poem] = field(default_factory=list)
    diagnostics: list[IngestDiagnostic] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return len(self.poems) + len(self.diagnostics)


def _poem_from_record(record: dict, catalog: FormCatalog, source_id: str) -> Poem:
    couplet = "first" in record or "second" in record
    if couplet and not record.keys().isdisjoint(("form", "theme", "body")):
        raise CorpusError("record mixes couplet fields first/second with form/theme/body")
    keys = ("first", "second") if couplet else ("form", "theme", "body")
    for key in keys:
        if key not in record and not couplet:
            raise CorpusError(f"record missing required field {key!r}")
        if not isinstance(record.get(key, ""), str):
            raise CorpusError(f"record field {key!r} is not a string")
    form_id = "对联" if couplet else record["form"].strip()
    spec = catalog.entries.get(form_id)
    if spec is None:
        raise UnknownFormError(form_id)
    theme, body = (record.get(key, "") for key in keys[-2:])
    if spec.line_template.kind == "mirror":     # a couplet, in either shape
        return couplet_transform(theme, body, source_id, form_id)
    lines = parse_body(body)
    if spec.form_class in ("jintishi", "gushi"):
        lines = restore_punctuation(lines)
    return Poem(form_id, normalize_theme(theme), lines, source_id)


def _check_line_breaks(poem: Poem) -> None:
    """Raise CorpusError if a line other than the last has no terminal.

    The serialized body marks line ends only by their terminals, so such a
    line would run into the next one in the sample text.
    """
    terminals = [line.terminal_punct for line in poem.body]
    if None in terminals[:-1]:
        n = terminals.index(None) + 1
        raise CorpusError(f"body line {n} has no terminal punctuation; "
                          f"serialized, it would merge with line {n + 1}")


def _records(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The non-blank lines of a JSON-lines input file, numbered from 1."""
    lines = read_text(path, CorpusError, what).split("\n")
    return [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]


def _record(line: str) -> tuple[dict, str | None]:
    """One JSON-lines record and its optional string ``source_id``."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise CorpusError("record is not a JSON object")
    source_id = record.get("source_id")
    if source_id is not None and not isinstance(source_id, str):
        raise CorpusError("record field 'source_id' is not a string")
    return record, source_id


def ingest_corpus(path: str | Path, catalog: FormCatalog, *,
                  serializable: bool = False) -> IngestResult:
    """Read a line-delimited JSON corpus file.

    One object per line with string fields ``form``, ``theme``, ``body``
    (couplet records may use ``first``/``second`` instead, not beside them)
    and an optional string ``source_id`` (default: file name and line
    number).  Malformed records and unknown forms become diagnostics with
    their line numbers; a record is never silently dropped.  With
    ``serializable``, so does a poem whose serialized text would merge two
    of its lines: a line other than the last with no terminal punctuation
    once restoration has run.
    """
    name = Path(path).name
    result = IngestResult()
    for line_no, line in _records(path, "corpus"):
        try:
            record, source_id = _record(line)
            poem = _poem_from_record(record, catalog, source_id or f"{name}:{line_no}")
            if serializable:
                _check_line_breaks(poem)
        except (json.JSONDecodeError, CorpusError, UnknownFormError) as exc:
            result.diagnostics.append(IngestDiagnostic(line_no, str(exc)))
            continue
        result.poems.append(poem)
    return result


def write_dataset(samples: list[SerializedSample], path: str | Path) -> None:
    """Write ``dataset.jsonl``: one ``{"text", "source_id"}`` object per sample.

    Each line is what ``json.dumps(..., ensure_ascii=False)`` writes for the
    object; its two strings go through the encoder's own string writer,
    with none of its per-object set-up.
    """
    write_atomic(path, "".join([
        f'{{"text": {_json_string(s.text)}, "source_id": '
        f'{"null" if s.source_id is None else _json_string(s.source_id)}}}\n'
        for s in samples]).encode("utf-8"))


def read_dataset(path: str | Path, catalog: FormCatalog) -> list[SerializedSample]:
    """Load a ``dataset.jsonl``; the first bad record raises CorpusError."""
    p = Path(path)
    samples = []
    for line_no, line in _records(p, "dataset"):
        try:
            record, source_id = _record(line)
            if not isinstance(record["text"], str):
                raise CorpusError("record field 'text' is not a string")
            samples.append(sample_from_text(record["text"], catalog, source_id=source_id))
        except (json.JSONDecodeError, KeyError, GutiError) as exc:
            raise CorpusError(f"{p}:{line_no}: bad dataset record: {exc}") from exc
    return samples


def serialize(poem: Poem, catalog: FormCatalog) -> SerializedSample:
    """Flatten a poem into the field-marker training text."""
    id1, id2 = catalog.resolve(poem.form_id).markers
    return SerializedSample(poem.form_id, id1, poem.theme, id2, poem.body_text(),
                            source_id=poem.source_id)


def _find_unique_marker(text: str, markers: tuple[str, ...], what: str) -> tuple[int, str]:
    hits = [(m.start(), m[0]) for m in MARKER_RE.finditer(text) if m[0] in markers]
    if not hits:
        raise SerializationError(f"missing {what} marker")
    if len(hits) > 1:
        raise SerializationError(f"duplicated {what} marker")
    return hits[0]


def deserialize(text: str, *, source_id: str | None = None) -> Poem:
    """Recover a Poem from serialized text (inverse of serialize); its form is not looked up."""
    i1, m1 = _find_unique_marker(text, ID1_MARKERS, "field-1")
    i2, m2 = _find_unique_marker(text, ID2_MARKERS, "field-2")
    if i2 < i1 + len(m1):
        raise SerializationError("field markers out of order")
    form_id = text[:i1]
    theme = text[i1 + len(m1):i2]
    body_text = text[i2 + len(m2):]
    if not form_id:
        raise SerializationError("empty form field")
    if not body_text:
        raise SerializationError("empty body field")
    return Poem(form_id=form_id, theme=theme, body=parse_body(body_text),
                source_id=source_id)


def sample_from_text(text: str, catalog: FormCatalog,
                     source_id: str | None = None) -> SerializedSample:
    """Rebuild a SerializedSample from text as ingest writes it, theme normalized."""
    poem = deserialize(text, source_id=source_id)
    sample = serialize(poem, catalog)
    if sample.text != text or poem.theme != normalize_theme(poem.theme):
        raise SerializationError("text is not in canonical serialized form")
    return sample


def couplet_transform(first_line: str, second_line: str, source_id: str | None = None,
                      form_id: str = "对联") -> Poem:
    """Build the couplet poem: first line becomes the theme, second the body."""
    first = normalize_theme(first_line)
    second = second_line.strip()
    if not first:
        raise CorpusError("empty couplet first line")
    if not second:
        raise CorpusError("empty couplet second line")
    return Poem(form_id=form_id, theme=first, body=parse_body(second),
                source_id=source_id)


def acrostic_transform(poem: Poem, catalog: FormCatalog) -> Poem:
    """Replace the theme with the line-initial characters.

    The poem is re-pointed at the form's acrostic variant (an acrostic form
    is its own) so that serialization uses the acrostic identifier token, and
    the theme is rebuilt from the variant's acrostic slots (every line for
    quatrains, the odd sentences for eight-sentence regulated poems).  Applying
    the transform twice is a no-op beyond the first application, so a poem
    already in its variant whose theme spells its initials comes back equal.
    """
    variant = catalog.acrostic_variant(poem.form_id, CorpusError)
    return Poem(variant.form_id, poem.line_initials(variant.acrostic_slots),
                poem.body, poem.source_id)
