"""Form catalog: structural templates for classical Chinese poem categories.

A form entry fixes everything the validator needs to judge a poem body
mechanically (line counts, per-line character counts, punctuation slots,
rhyme slots, tone templates, pairing slots) and everything the serializer
needs to emit training text (which identifier tokens wrap the theme).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import CatalogError, UnknownFormError

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

FORM_CLASSES = ("couplet", "gushi", "jintishi", "ci")

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
    count is even (old-style poetry, deliberately loose).
    kind "mirror": the body must mirror the theme line (couplets).
    """

    kind: str
    groups: tuple[tuple[tuple[int, ...], ...], ...] = ()
    uniform_len: int = 0


@dataclass(frozen=True)
class FormSpec:
    """Executable structural template for one catalog form."""

    form_id: str
    form_class: str                      # couplet | gushi | jintishi | ci
    line_template: LineTemplate
    rhyme_slots: tuple[int, ...] = ()    # 1-indexed lines sharing a rhyme group
    pairing_slots: tuple[tuple[int, int], ...] = ()  # 1-indexed line pairs
    tone_patterns: tuple[tuple[str, ...], ...] = ()  # variants of per-line 平/仄/中
    acrostic: bool = False               # serialized with the acrostic id2 marker
    acrostic_id: str | None = None       # form id of the acrostic variant
    acrostic_slots: tuple[int, ...] = () # 1-indexed lines carrying the acrostic
                                         # characters; () = every line

    @property
    def marker_class(self) -> str:
        if self.acrostic:
            return "acrostic"
        if self.form_class == "couplet":
            return "couplet"
        if self.form_class == "ci":
            return "ci"
        return "shi"

    @property
    def markers(self) -> tuple[str, str]:
        return MARKER_PAIRS[self.marker_class]


@dataclass
class FormCatalog:
    """All known forms, by form id."""

    entries: dict[str, FormSpec] = field(default_factory=dict)

    def resolve(self, form_id: str) -> FormSpec:
        try:
            return self.entries[form_id]
        except KeyError:
            raise UnknownFormError(form_id, sorted(self.entries)) from None

    def __contains__(self, form_id: str) -> bool:
        return form_id in self.entries

    def form_ids(self) -> list[str]:
        return sorted(self.entries)


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
#   acrostic-form = form id                      (optional)
# ---------------------------------------------------------------------------


def _parse_lines_value(value: str, where: str) -> LineTemplate:
    value = value.strip()
    if value == "mirror":
        return LineTemplate(kind="mirror")
    if value.endswith("*"):
        try:
            n = int(value[:-1])
        except ValueError:
            raise CatalogError(f"{where}: bad uniform line template {value!r}")
        if n < 1:
            raise CatalogError(f"{where}: uniform line length must be >= 1")
        return LineTemplate(kind="uniform", uniform_len=n)
    groups = []
    for group_text in value.split("/"):
        alts = []
        for alt_text in group_text.split("|"):
            fields = alt_text.split()
            if not fields:
                raise CatalogError(f"{where}: empty segment group in {value!r}")
            try:
                alts.append(tuple(int(f) for f in fields))
            except ValueError:
                raise CatalogError(f"{where}: bad segment count in {value!r}")
        groups.append(tuple(alts))
    if not groups:
        raise CatalogError(f"{where}: empty line template")
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
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise CatalogError(f"{where}: bad pair slot {token!r}")
    return tuple(pairs)


def _parse_slots(value: str, where: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value.split())
    except ValueError:
        raise CatalogError(f"{where}: bad {what} slots {value!r}")


def parse_catalog(text: str, source: str = "<catalog>") -> FormCatalog:
    """Parse catalog file text; raises CatalogError with line positions."""
    catalog = FormCatalog()
    current: dict | None = None
    current_where = ""
    seen_version = False

    def finish(entry: dict, where: str) -> None:
        if "class" not in entry:
            raise CatalogError(f"{where}: missing 'class'")
        if entry["class"] not in FORM_CLASSES:
            raise CatalogError(f"{where}: unknown class {entry['class']!r}")
        if "lines" not in entry:
            raise CatalogError(f"{where}: missing 'lines'")
        marker_class = entry.get("markers")
        if marker_class is not None and marker_class not in MARKER_PAIRS:
            raise CatalogError(f"{where}: unknown marker class {marker_class!r}")
        spec = FormSpec(
            form_id=entry["id"],
            form_class=entry["class"],
            line_template=entry["lines"],
            rhyme_slots=entry.get("rhyme", ()),
            pairing_slots=entry.get("pairs", ()),
            tone_patterns=entry.get("tones", ()),
            acrostic=(marker_class == "acrostic"),
            acrostic_id=entry.get("acrostic-form"),
            acrostic_slots=entry.get("acrostic-slots", ()),
        )
        if spec.form_id in catalog.entries:
            raise CatalogError(f"{where}: duplicate form {spec.form_id!r}")
        catalog.entries[spec.form_id] = spec

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            if current is not None:
                finish(current, current_where)
            form_id = line[1:-1].strip()
            if not form_id:
                raise CatalogError(f"{where}: empty form id")
            current = {"id": form_id}
            current_where = where
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CatalogError(f"{where}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if current is None:
            if key == "version":
                if value != str(CATALOG_FORMAT_VERSION):
                    raise CatalogError(f"{where}: unsupported catalog version {value!r}")
                seen_version = True
                continue
            raise CatalogError(f"{where}: {key!r} outside a [form] section")
        if key == "class":
            current["class"] = value
        elif key == "markers":
            current["markers"] = value
        elif key == "lines":
            current["lines"] = _parse_lines_value(value, where)
        elif key == "rhyme":
            current["rhyme"] = _parse_slots(value, where, "rhyme")
        elif key == "pairs":
            current["pairs"] = _parse_pairs_value(value, where)
        elif key == "tones":
            current["tones"] = _parse_tones_value(value, where)
        elif key == "acrostic-form":
            current["acrostic-form"] = value
        elif key == "acrostic-slots":
            current["acrostic-slots"] = _parse_slots(value, where, "acrostic")
        else:
            raise CatalogError(f"{where}: unknown key {key!r}")
    if current is not None:
        finish(current, current_where)
    if not seen_version:
        raise CatalogError(f"{source}: missing 'version = {CATALOG_FORMAT_VERSION}' header")
    _check_references(catalog, source)
    return catalog


def _check_references(catalog: FormCatalog, source: str) -> None:
    for spec in catalog.entries.values():
        if spec.acrostic_id is not None and spec.acrostic_id not in catalog.entries:
            raise CatalogError(
                f"{source}: {spec.form_id!r} points at missing acrostic form "
                f"{spec.acrostic_id!r}"
            )


def load_catalog(path: str | Path) -> FormCatalog:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {p}: {exc}") from exc
    return parse_catalog(text, source=str(p))


_default_catalog: FormCatalog | None = None


def default_catalog() -> FormCatalog:
    """The built-in catalog shipped as package data (parsed once)."""
    global _default_catalog
    if _default_catalog is None:
        text = resources.files("guti.data").joinpath("forms.catalog").read_text("utf-8")
        _default_catalog = parse_catalog(text, source="builtin")
    return _default_catalog
