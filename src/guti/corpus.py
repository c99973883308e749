"""Poem ingestion and the field-marker text serialization.

Training samples are flat character strings in the field order
``form + id1 + theme + id2 + body``; the identifier tokens come from the
form catalog and depend on the form's marker class.  Couplets store the
first line as the theme and the second as the body; the acrostic transform
replaces the theme with the line-initial characters and re-points the poem
at the form's acrostic variant so serialization picks the acrostic marker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import CorpusError, SerializationError, UnknownFormError
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
_CJK_LINE = re.compile(
    "[" + "".join(f"{chr(a)}-{chr(b)}" for a, b in _CJK_RANGES) + "]+")

# One body segment: characters up to an optional terminal, or a terminal
# with no characters before it.  Whitespace (regex ``\s`` is exactly
# ``str.isspace``) matches neither, so ``findall`` steps over it.
_SEGMENT = re.compile(
    rf"([^{COMMA}{PERIOD}\s]+)([{COMMA}{PERIOD}]?)|([{COMMA}{PERIOD}])")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(a <= cp <= b for a, b in _CJK_RANGES)


@dataclass(frozen=True)
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

    def text(self) -> str:
        return self.characters + (self.terminal_punct or "")


@dataclass(frozen=True)
class Poem:
    """A structured poem record."""

    form_id: str
    theme: str
    body: tuple[Line, ...]
    source_id: str | None = None

    def __post_init__(self):
        if not self.body:
            raise CorpusError("poem body is empty")
        marker = MARKER_RE.search(self.theme)
        if marker:
            raise CorpusError(f"theme contains identifier marker {marker[0]!r}")
        # vocab.txt holds one token per line, so no token may be "\n" or "\r"
        if "\n" in self.theme or "\r" in self.theme:
            raise CorpusError("theme contains a line break")

    def body_text(self) -> str:
        return "".join(line.text() for line in self.body)

    def line_initials(self, slots: tuple[int, ...] = ()) -> str:
        """First characters of the given 1-indexed lines (all lines if empty)."""
        if not slots:
            slots = tuple(range(1, len(self.body) + 1))
        for s in slots:
            if not 1 <= s <= len(self.body):
                raise CorpusError(f"acrostic slot {s} outside the poem")
        return "".join(self.body[s - 1].characters[0] for s in slots)


@dataclass(frozen=True)
class SerializedSample:
    """Flat training text plus the offsets of its five fields."""

    text: str
    field_spans: dict[str, tuple[int, int]]
    source_id: str | None = None

    def __post_init__(self):
        spans = [self.field_spans[k] for k in ("form", "id1", "theme", "id2", "body")]
        pos = 0
        for start, end in spans:
            if start != pos or end < start:
                raise SerializationError("field spans do not partition the text")
            pos = end
        if pos != len(self.text):
            raise SerializationError("field spans do not cover the text")

    def fields(self) -> dict[str, str]:
        return {k: self.text[a:b] for k, (a, b) in self.field_spans.items()}


def normalize_body_text(text: str) -> str:
    """Map loose punctuation onto the canonical comma/period pair.

    ``str.replace`` scans for one character in C; ``str.translate`` would
    look every character of the text up in its table.
    """
    for loose, canonical in _PUNCT_MAP:
        text = text.replace(loose, canonical)
    return text


def parse_body(text: str) -> tuple[Line, ...]:
    """Split body text into Lines on terminal punctuation and whitespace.

    The normalized text is cut into ``_SEGMENT`` matches, left to right:
    the characters up to an optional terminal make one Line, so whitespace
    (newlines included) closes a line without terminal punctuation (used
    by sources that print poem lines without punctuation).  Raises
    CorpusError on a terminal with no characters before it and, through
    Line, on a non-CJK character; the first bad segment is reported.
    """
    lines = []
    for chars, punct, dangling in _SEGMENT.findall(normalize_body_text(text)):
        if chars:
            lines.append(Line(chars, punct or None))
        elif dangling:
            raise CorpusError(f"dangling punctuation {dangling!r}")
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
    restored = []
    for i, line in enumerate(lines):
        punct = COMMA if i % 2 == 0 else PERIOD
        restored.append(Line(line.characters, punct))
    return tuple(restored)


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
    for key in ("first", "second") if couplet else ("form", "theme", "body"):
        if key not in record and not couplet:
            raise CorpusError(f"record missing required field {key!r}")
        if not isinstance(record.get(key, ""), str):
            raise CorpusError(f"record field {key!r} is not a string")
    if couplet:
        return couplet_transform(record.get("first", ""), record.get("second", ""),
                                 source_id=source_id)
    form_id = record["form"].strip()
    if form_id not in catalog:
        raise UnknownFormError(form_id)
    spec = catalog.resolve(form_id)
    theme = normalize_body_text(record["theme"].strip())
    lines = parse_body(record["body"])
    if spec.form_class in ("jintishi", "gushi"):
        lines = restore_punctuation(lines)
    return Poem(form_id=form_id, theme=theme, body=lines, source_id=source_id)


def ingest_corpus(path: str | Path, catalog: FormCatalog) -> IngestResult:
    """Read a line-delimited JSON corpus file.

    One object per line with string fields ``form``, ``theme``, ``body``
    (couplet records use ``first``/``second`` instead) and an optional
    string ``source_id`` (default: file name and line number).  Malformed
    records and unknown forms become diagnostics with their line numbers; a
    record is never silently dropped.
    """
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {p}: {exc}") from exc
    result = IngestResult()
    name = p.name
    for line_no, raw_line in enumerate(raw.split("\n"), start=1):
        if not raw_line.strip():
            continue
        try:
            record = json.loads(raw_line)
            if not isinstance(record, dict):
                raise CorpusError("record is not a JSON object")
            record_source = record.get("source_id")
            if record_source is not None and not isinstance(record_source, str):
                raise CorpusError("record field 'source_id' is not a string")
            poem = _poem_from_record(record, catalog,
                                     record_source or f"{name}:{line_no}")
        except (json.JSONDecodeError, CorpusError, UnknownFormError) as exc:
            result.diagnostics.append(IngestDiagnostic(line_no, str(exc)))
            continue
        result.poems.append(poem)
    return result


def serialize(poem: Poem, catalog: FormCatalog) -> SerializedSample:
    """Flatten a poem into the field-marker training text."""
    spec = catalog.resolve(poem.form_id)
    id1, id2 = spec.markers
    body = poem.body_text()
    parts = [poem.form_id, id1, poem.theme, id2, body]
    spans = {}
    pos = 0
    for name, part in zip(("form", "id1", "theme", "id2", "body"), parts):
        spans[name] = (pos, pos + len(part))
        pos += len(part)
    return SerializedSample(text="".join(parts), field_spans=spans,
                            source_id=poem.source_id)


def _find_unique_marker(text: str, markers: tuple[str, ...], what: str) -> tuple[int, str]:
    hits = [(m.start(), m[0]) for m in MARKER_RE.finditer(text) if m[0] in markers]
    if not hits:
        raise SerializationError(f"missing {what} marker")
    if len(hits) > 1:
        raise SerializationError(f"duplicated {what} marker")
    return hits[0]


def deserialize(text: str, catalog: FormCatalog, source_id: str | None = None) -> Poem:
    """Recover a Poem from serialized text (inverse of serialize)."""
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
    """Rebuild a SerializedSample (with field spans) from serialized text."""
    poem = deserialize(text, catalog, source_id=source_id)
    sample = serialize(poem, catalog)
    if sample.text != text:
        raise SerializationError("text is not in canonical serialized form")
    return sample


def couplet_transform(first_line: str, second_line: str,
                      source_id: str | None = None) -> Poem:
    """Build the couplet poem: first line becomes the theme, second the body."""
    first = normalize_body_text(first_line.strip())
    second = second_line.strip()
    if not first:
        raise CorpusError("empty couplet first line")
    if not second:
        raise CorpusError("empty couplet second line")
    return Poem(form_id="对联", theme=first, body=parse_body(second),
                source_id=source_id)


def acrostic_transform(poem: Poem, catalog: FormCatalog) -> Poem:
    """Replace the theme with the line-initial characters.

    The poem is re-pointed at the form's acrostic variant so that
    serialization uses the acrostic identifier token, and the theme is
    rebuilt from the variant's acrostic slots (every line for quatrains,
    the odd sentences for eight-sentence regulated poems).  Applying the
    transform twice is a no-op beyond the first application.
    """
    spec = catalog.resolve(poem.form_id)
    if spec.acrostic_id is None:
        raise CorpusError(f"form {poem.form_id!r} has no acrostic variant")
    variant = catalog.resolve(spec.acrostic_id)
    return replace(poem, form_id=variant.form_id,
                   theme=poem.line_initials(variant.acrostic_slots))
