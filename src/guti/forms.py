"""Form catalog: structural templates for classical Chinese poem categories.

A form entry fixes everything the validator needs to judge a poem body
mechanically (line counts, per-line character counts, punctuation slots,
rhyme slots, tone templates, pairing slots) and everything the serializer
needs to emit training text (which identifier tokens wrap the theme).
What the validator derives from an entry (the line counts and line sequences
it allows, its tone masks) is computed on first use and kept outside its fields.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

from .errors import CatalogError, GutiError, UnknownFormError
from .fileio import read_text

CATALOG_FORMAT_VERSION = 1

# Field separator tokens, one pair per marker class.  These are atomic
# vocabulary tokens: the tokenizer never splits them into characters.
MARKER_PAIRS: dict[str, tuple[str, str]] = {
    "shi": ("(格式)", "(标题)"),
    "ci": ("(词牌名)", "(标题)"),
    "couplet": ("(格式)", "(对联)"),
    "acrostic": ("(格式)", "(藏头诗)"),
}

ID1_MARKERS = tuple(sorted({p[0] for p in MARKER_PAIRS.values()}))
ID2_MARKERS = tuple(sorted({p[1] for p in MARKER_PAIRS.values()}))
ALL_MARKERS = tuple(sorted({m for p in MARKER_PAIRS.values() for m in p}))
# No marker is a prefix of another, so the alternation's order never matters.
MARKER_RE = re.compile("|".join(map(re.escape, ALL_MARKERS)))

# Form class -> the marker class an entry without a ``markers`` key uses.
FORM_CLASSES = {"couplet": "couplet", "gushi": "shi", "jintishi": "shi", "ci": "ci"}

COMMA = "，"
PERIOD = "。"

# Tone template symbols: 平 = level, 仄 = oblique, 中 = either.
TONE_PING = "平"
TONE_ZE = "仄"
TONE_ANY = "中"


@dataclass(frozen=True)
class LineTemplate:
    """Expected body shape.

    kind "groups": ``groups`` is a sequence of period-terminated groups;
    each group lists one or more alternatives, an alternative being the
    character counts of its comma-separated segments.
    kind "uniform": every line has ``uniform_len`` characters and the line
    count is even and at least 2 (old-style poetry, deliberately loose).
    kind "mirror": the body must mirror the theme line (couplets).
    """

    kind: str
    groups: tuple[tuple[tuple[int, ...], ...], ...] = ()
    uniform_len: int = 0

    @cached_property
    def line_counts(self) -> tuple[int, ...]:
        """Every line count the groups allow, ascending; () for the other
        kinds, which fix no count."""
        counts = {0}
        for group in self.groups:
            counts = {n + len(alt) for n in counts for alt in group}
        return tuple(sorted(counts)) if self.groups else ()

    @cached_property
    def templates(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Every (length, punct) line sequence the groups allow, in group
        order; () for the other kinds."""
        return tuple(tuple((n, PERIOD if j == len(alt) - 1 else COMMA)
                           for alt in picks for j, n in enumerate(alt))
                     for picks in itertools.product(*self.groups)) if self.groups else ()

    def allows(self, n: int) -> bool:
        """Whether a poem of ``n`` lines can fit: a count the groups allow, an
        even count >= 2 for a uniform template, any count for a mirror one,
        whose count follows the poem's first line."""
        if self.kind == "uniform":
            return n >= 2 and n % 2 == 0
        return self.kind == "mirror" or n in self.line_counts


@dataclass(frozen=True)
class FormSpec:
    """Executable structural template for one catalog form."""

    form_id: str
    form_class: str                      # couplet | gushi | jintishi | ci
    line_template: LineTemplate
    markers: tuple[str, str]             # (id1, id2) around the theme
    rhyme_slots: tuple[int, ...] = ()    # 1-indexed lines sharing a rhyme group
    pairing_slots: tuple[tuple[int, int], ...] = ()  # 1-indexed line pairs
    tone_patterns: tuple[tuple[str, ...], ...] = ()  # variants of per-line 平/仄/中
    acrostic_id: str | None = None       # acrostic variant's form id; an acrostic form is its own
    acrostic_slots: tuple[int, ...] = () # 1-indexed lines carrying the acrostic
                                         # characters; () = every line

    @cached_property
    def acrostic(self) -> bool:
        """Serialized with the acrostic marker pair; the theme is the acrostic."""
        return self.markers == MARKER_PAIRS["acrostic"]

    @cached_property
    def tone_masks(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """``(w, masks)``: ``w`` is the length of the longest pattern line, and
        ``masks`` maps a line count to the (平 bits, 仄 bits) of each variant
        of that many lines, line l's character c (0-indexed) at bit l * w + c."""
        width = max((len(p) for v in self.tone_patterns for p in v), default=0)
        masks: dict = {}
        for variant in self.tone_patterns:
            bits = [(s, 1 << (li * width + ci)) for li, pattern in enumerate(variant)
                    for ci, s in enumerate(pattern)]
            masks.setdefault(len(variant), []).append(
                tuple(sum(b for s, b in bits if s == tone) for tone in (TONE_PING, TONE_ZE)))
        return width, masks

    @cached_property
    def tone_cells(self) -> tuple[tuple[int, int], ...]:
        """The 1-indexed (line, character) of each bit of ``tone_masks``."""
        width, masks = self.tone_masks
        return tuple((b // width + 1, b % width + 1)
                     for b in range(max(masks, default=0) * width))


@dataclass
class FormCatalog:
    """All known forms, by form id."""

    entries: dict[str, FormSpec] = field(default_factory=dict)

    def resolve(self, form_id: str) -> FormSpec:
        try:
            return self.entries[form_id]
        except KeyError:
            raise UnknownFormError(form_id, sorted(self.entries)) from None

    def form_ids(self) -> list[str]:
        return sorted(self.entries)

    def acrostic_variant(self, form_id: str, error: type[GutiError]) -> FormSpec:
        """The form an acrostic on ``form_id`` is written in: the form itself if it
        is acrostic, else its ``acrostic_id``.  Raises ``error`` if it has neither."""
        spec = self.resolve(form_id)
        if not spec.acrostic and spec.acrostic_id is None:
            raise error(f"form {form_id!r} has no acrostic variant")
        return spec if spec.acrostic else self.resolve(spec.acrostic_id)


# ---------------------------------------------------------------------------
# Catalog file format (v1)
#
#   # comments and blank lines are ignored
#   version = 1
#   [form id]
#   class   = couplet | gushi | jintishi | ci
#   markers = shi | ci | couplet | acrostic      (optional; default by class)
#   lines   = mirror | N* | groups               (see LineTemplate)
#             groups:  "5 5 / 6 5 | 4 7 / ..."   "/" separates period groups,
#             "|" separates alternatives, numbers are segment char counts
#   rhyme   = 2 4 6 8                            (optional)
#   pairs   = 3-4 5-6                            (optional)
#   tones   = 中仄平平仄 平平中仄平 ... | <variant 2> ...   (optional)
#   acrostic-form = form id                      (optional; that entry must
#                                                 declare markers = acrostic)
#   acrostic-slots = 1 3 5 7                     (optional; default every line)
#
# Counts and 1-indexed line slots are integers >= 1, a ``rhyme`` or
# ``acrostic-slots`` list repeats no slot, and a pair joins two different lines.
# Under a groups template, each slot and tone variant fits a poem the groups allow;
# under a uniform template, each tone variant has an even line count >= 2.  A
# mirror template fixes no count: a couplet's follows its first line.
# ---------------------------------------------------------------------------


def _counts(texts: list[str], bad: str, low: str) -> tuple[int, ...]:
    """Integers >= 1: raises ``bad`` for a non-integer, ``low`` for one below 1."""
    try:
        counts = tuple(map(int, texts))
    except ValueError:
        raise CatalogError(bad) from None
    if any(n < 1 for n in counts):
        raise CatalogError(low)
    return counts


def _slots(texts: list[str], where: str, what: str, shown: str) -> tuple[int, ...]:
    """Distinct 1-indexed line slots, parsed from ``shown``."""
    slots = _counts(texts, f"{where}: bad {what} {shown!r}",
                    f"{where}: {what} must be >= 1, got {shown!r}")
    if len(set(slots)) < len(slots):
        raise CatalogError(f"{where}: repeated {what} in {shown!r}")
    return slots


def _parse_lines_value(value: str, where: str) -> LineTemplate:
    if value == "mirror":
        return LineTemplate(kind="mirror")
    if value.endswith("*"):
        (n,) = _counts([value[:-1]], f"{where}: bad uniform line template {value!r}",
                       f"{where}: uniform line length must be >= 1")
        return LineTemplate(kind="uniform", uniform_len=n)
    groups = []
    for group_text in value.split("/"):
        alts = []
        for alt_text in group_text.split("|"):
            fields = alt_text.split()
            if not fields:
                raise CatalogError(f"{where}: empty segment group in {value!r}")
            alts.append(_counts(fields, f"{where}: bad segment count in {value!r}",
                                f"{where}: segment counts must be >= 1 in {value!r}"))
        groups.append(tuple(alts))
    return LineTemplate(kind="groups", groups=tuple(groups))


def _parse_tones_value(value: str, where: str) -> tuple[tuple[str, ...], ...]:
    variants = []
    for variant_text in value.split("|"):
        patterns = tuple(variant_text.split())
        if not patterns:
            raise CatalogError(f"{where}: empty tone variant")
        for pat in patterns:
            bad = set(pat) - {TONE_PING, TONE_ZE, TONE_ANY}
            if bad:
                raise CatalogError(f"{where}: bad tone symbols {bad!r}")
        variants.append(patterns)
    return tuple(variants)


def _parse_pairs_value(value: str, where: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in value.split():
        a, sep, b = token.partition("-")
        if not sep:
            raise CatalogError(f"{where}: pair slots look like '3-4', got {token!r}")
        pairs.append(_slots([a, b], where, "pair slot", token))
    return tuple(pairs)


# catalog key -> (the FormSpec field it sets, its value parser)
_KEYS = {
    "class": ("form_class", lambda value, where: value),
    "markers": ("markers", lambda value, where: value),
    "lines": ("line_template", _parse_lines_value),
    "rhyme": ("rhyme_slots", lambda value, where: _slots(
        value.split(), where, "rhyme slots", value)),
    "pairs": ("pairing_slots", _parse_pairs_value),
    "tones": ("tone_patterns", _parse_tones_value),
    "acrostic-form": ("acrostic_id", lambda value, where: value),
    "acrostic-slots": ("acrostic_slots", lambda value, where: _slots(
        value.split(), where, "acrostic slots", value)),
}


def _check_slots(spec: FormSpec, wheres: dict[str, str]) -> None:
    """Raise for a line slot past the longest poem a groups template allows,
    or for a tone variant of a line count the template does not allow."""
    template = spec.line_template
    counts = template.line_counts       # () for mirror and uniform templates
    shown = " or ".join(map(str, counts)) or "2, 4, 6, ..."
    for field_name, what, slots in (
            ("rhyme_slots", "rhyme slot", spec.rhyme_slots),
            ("pairing_slots", "pair slot", [s for pair in spec.pairing_slots for s in pair]),
            ("acrostic_slots", "acrostic slot", spec.acrostic_slots)):
        past = [s for s in slots if counts and s > counts[-1]]
        if past:
            raise CatalogError(
                f"{wheres[field_name]}: {what} {past[0]} lies past the last line of "
                f"a form of {shown} lines")
    unmet = [len(v) for v in spec.tone_patterns if not template.allows(len(v))]
    if unmet:
        raise CatalogError(f"{wheres['tone_patterns']}: a tone variant of {unmet[0]} "
                           f"lines fits no poem of a form of {shown} lines")


def _finish(entry: dict, wheres: dict[str, str], catalog: FormCatalog) -> None:
    """Check one section's fields and add its FormSpec to ``catalog``.

    ``wheres`` holds the position of the section's header (under
    ``form_id``) and of the line that set each of its other fields.
    """
    where = wheres["form_id"]
    if "form_class" not in entry:
        raise CatalogError(f"{where}: missing 'class'")
    if entry["form_class"] not in FORM_CLASSES:
        raise CatalogError(f"{where}: unknown class {entry['form_class']!r}")
    if "line_template" not in entry:
        raise CatalogError(f"{where}: missing 'lines'")
    markers = entry.get("markers", FORM_CLASSES[entry["form_class"]])
    if markers not in MARKER_PAIRS:
        raise CatalogError(f"{where}: unknown marker class {markers!r}")
    spec = FormSpec(**{**entry, "markers": MARKER_PAIRS[markers]})
    _check_slots(spec, wheres)
    if spec.form_id in catalog.entries:
        raise CatalogError(f"{where}: duplicate form {spec.form_id!r}")
    catalog.entries[spec.form_id] = spec


def parse_catalog(text: str, source: str = "<catalog>") -> FormCatalog:
    """Parse catalog file text; raises CatalogError with line positions."""
    catalog = FormCatalog()
    current: dict | None = None
    wheres: dict[str, str] = {}
    seen_version = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            if current is not None:
                _finish(current, wheres, catalog)
            current, wheres = {"form_id": line[1:-1].strip()}, {"form_id": where}
            if not current["form_id"]:
                raise CatalogError(f"{where}: empty form id")
            # serialized text holds no marker but its two field separators
            marker = MARKER_RE.search(current["form_id"])
            if marker:
                raise CatalogError(f"{where}: form id holds marker {marker[0]!r}")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CatalogError(f"{where}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if current is not None:
            if key not in _KEYS:
                raise CatalogError(f"{where}: unknown key {key!r}")
            field_name, parse = _KEYS[key]
            current[field_name] = parse(value, where)
            wheres[field_name] = where
        elif key != "version":
            raise CatalogError(f"{where}: {key!r} outside a [form] section")
        elif value != str(CATALOG_FORMAT_VERSION):
            raise CatalogError(f"{where}: unsupported catalog version {value!r}")
        else:
            seen_version = True
    if current is not None:
        _finish(current, wheres, catalog)
    if not seen_version:
        raise CatalogError(f"{source}: missing 'version = {CATALOG_FORMAT_VERSION}' header")
    _check_references(catalog, source)
    return catalog


def _check_references(catalog: FormCatalog, source: str) -> None:
    for spec in catalog.entries.values():
        if spec.acrostic_id is None:
            continue
        if spec.acrostic_id not in catalog.entries:
            raise CatalogError(
                f"{source}: {spec.form_id!r} points at missing acrostic form "
                f"{spec.acrostic_id!r}"
            )
        if not catalog.entries[spec.acrostic_id].acrostic:
            raise CatalogError(
                f"{source}: {spec.form_id!r} points at acrostic form "
                f"{spec.acrostic_id!r}, which lacks 'markers = acrostic'"
            )


def load_catalog(path: str | Path) -> FormCatalog:
    return parse_catalog(read_text(path, CatalogError, "catalog"), source=str(Path(path)))


@cache
def default_catalog() -> FormCatalog:
    """The built-in catalog shipped as package data (parsed once)."""
    text = resources.files("guti.data").joinpath("forms.catalog").read_text("utf-8")
    return parse_catalog(text, source="builtin")
