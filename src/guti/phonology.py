"""Character phonology: rhyme groups and level/oblique tone classes.

The shipped default table is a coarse modern-reading approximation: rhyme
groups follow the fourteen modern rhyme classes and the tone class maps
first/second tones to 平 (level) and third/fourth to 仄 (oblique).  It is
deliberately pluggable; drop in a 平水韵 table for historically faithful
checking.  Characters missing from a table are reported as unknown, never
as failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

from .errors import GutiError
from .fileio import read_text

PING = "ping"
ZE = "ze"

TABLE_FORMAT_VERSION = 1


class PhonologyError(GutiError):
    pass


@dataclass
class PhonologyTable:
    """char -> rhyme group id, char -> tone class (ping/ze).

    ``parse_table`` refuses a character listed twice.  ``tone_digits`` is
    derived from ``tone_class`` on first use and kept on the table, so a
    table is read-only once parsed.
    """

    rhyme_group: dict[str, str] = field(default_factory=dict)
    tone_class: dict[str, str] = field(default_factory=dict)

    @cached_property
    def tone_digits(self) -> dict[int, str]:
        """``str.translate`` map from a 平 character to "1", a 仄 one to "2".

        Whitespace, which no parsed table holds and no poem line contains,
        is left out: the tone check pads lines with spaces."""
        return {ord(ch): "1" if tone == PING else "2"
                for ch, tone in self.tone_class.items() if not ch.isspace()}


def parse_table(text: str, source: str = "<table>") -> PhonologyTable:
    """One record per line: ``character<TAB>rhyme-group<TAB>tone-class``,
    each character on one line only."""
    table = PhonologyTable()
    first_line: dict[str, int] = {}
    seen_header = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line != f"guti-phonology v{TABLE_FORMAT_VERSION}":
                raise PhonologyError(f"{source}:{lineno}: missing or bad header")
            seen_header = True
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise PhonologyError(f"{source}:{lineno}: expected 3 tab-separated "
                                 f"fields, got {len(fields)}")
        ch, group, tone = (f.strip() for f in fields)
        if len(ch) != 1:
            raise PhonologyError(f"{source}:{lineno}: key must be one character")
        if tone not in (PING, ZE):
            raise PhonologyError(f"{source}:{lineno}: tone must be ping or ze")
        if ch in first_line:
            raise PhonologyError(f"{source}:{lineno}: character {ch!r} already "
                                 f"listed at line {first_line[ch]}")
        first_line[ch] = lineno
        table.rhyme_group[ch] = group
        table.tone_class[ch] = tone
    if not seen_header:
        raise PhonologyError(f"{source}: empty table")
    return table


def load_table(path: str | Path) -> PhonologyTable:
    return parse_table(read_text(path, PhonologyError, "phonology table"),
                       source=str(Path(path)))


@cache
def default_table() -> PhonologyTable:
    """The approximate modern-reading table shipped as package data."""
    text = resources.files("guti.data").joinpath("phonology.tsv").read_text("utf-8")
    return parse_table(text, source="builtin-modern-approx")
