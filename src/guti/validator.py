"""Mechanized form conformance checking.

Hard rules decide well-formedness: line/group structure, per-line
character counts, punctuation slots, and pairing (couplets always; the
3rd/4th and 5th/6th lines of eight-line regulated poems).  Rhyme and tone
checks run against a pluggable phonology table and are advisory by
default, because tone-table choice is contested; a flag promotes them to
hard rules.  Every check is a pure function of its inputs, and reads what
it derives from a form (line templates, tone masks) off the form's spec.

Results are immutable records, and those that hold nothing of the poem are
built once and shared between reports: the three structure results of a
poem that fits a template, the three pairing results of a pair that passes
them all, the passing acrostic result, each fixed-message rhyme or tone
result at each level, and the passing rhyme result of each rhyme group of
the phonology table at each level.  Every check returns a fresh list, so
``validate`` takes the structure check's list as the report's own, extends
it with the other checks' results and builds the report once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .corpus import Line, Poem, parse_body
from .errors import CorpusError
from .forms import COMMA, PERIOD, FormCatalog, FormSpec
from .phonology import PING, PhonologyTable

HARD = "hard"
ADVISORY = "advisory"

# Classical function characters exempt from the same-position repetition
# rule in pairs (repeating a content character is a fault; repeating a
# particle or negation in the same slot is conventional).
PAIR_REPEAT_EXEMPT = frozenset("之乎者也而何其且若所以于与兮焉哉矣诸夫盖然则乃不无非未莫勿毋弗")

Position = tuple[int, int | None]   # (1-indexed line, 1-indexed char or None)


class RuleResult(NamedTuple):
    rule: str
    level: str                      # hard | advisory
    passed: bool | None             # None = unknown / not applicable
    positions: tuple[Position, ...] = ()
    message: str = ""

    def to_dict(self) -> dict:
        return {"rule": self.rule, "level": self.level, "passed": self.passed,
                "positions": [list(p) for p in self.positions],
                "message": self.message}


@dataclass
class ValidationReport:
    form_id: str
    results: list[RuleResult] = field(default_factory=list)

    @property
    def well_formed(self) -> bool:
        for r in self.results:
            if r.passed is False and r.level == HARD:
                return False
        return True

    def failures(self) -> list[RuleResult]:
        return [r for r in self.results if r.passed is False]

    def to_dict(self) -> dict:
        return {"form": self.form_id, "well_formed": self.well_formed,
                "rules": [r.to_dict() for r in self.results]}


def _best_template(templates, lines: Sequence[Line]):
    """Template variant agreeing with the poem in the most positions."""
    def score(tpl):
        s = -abs(len(tpl) - len(lines)) * 2
        for (want_len, want_punct), line in zip(tpl, lines):
            s += 2 * (len(line.characters) == want_len) + (line.terminal_punct == want_punct)
        return s
    return max(templates, key=score)


# a couplet's first line, parsed once for check_structure and check_pairing
_theme_lines = functools.lru_cache(maxsize=1)(lambda theme: parse_body(theme))
_STRUCTURE_PASSED = tuple(RuleResult(rule, HARD, True) for rule in (
    "structure.line_count", "structure.line_lengths", "structure.punctuation"))
_NOT_EVALUATED = tuple(RuleResult(rule, HARD, None, message="not evaluated: line count differs")
                       for rule in ("structure.line_lengths", "structure.punctuation"))
_UNREGULATED = RuleResult("structure.punctuation", ADVISORY, None,
                          message="punctuation is not regulated for old-style poetry")
_PAIR_PASSED = tuple(RuleResult(rule, HARD, True) for rule in (
    "pairing.length", "pairing.position_repeat", "pairing.punctuation"))
_ACROSTIC_PASSED = RuleResult("acrostic.initials", HARD, True)


@functools.cache
def _shared(rule: str, level: str, passed: bool | None, message: str) -> RuleResult:
    """A result whose message names no character of the poem, built once
    for each rule, level, verdict and message: the fixed messages, and a
    rhyme group of the phonology table."""
    return RuleResult(rule, level, passed, message=message)


def check_structure(poem: Poem, spec: FormSpec) -> list[RuleResult]:
    """Line counts, per-line character counts, punctuation slots.

    Each template kind gives its line-count verdict, the (length, terminal)
    it expects of each line, how many leading terminals count, and its
    fault messages; one comparison judges the poem's lines against them.
    """
    lines = poem.body
    kind = spec.line_template.kind
    if kind == "uniform":
        ok_count = spec.line_template.allows(len(lines))
        count_message = (f"{len(lines)} lines" if ok_count else
                         f"old-style poems need an even line count >= 2, got {len(lines)}")
        # punctuation is not regulated, so no terminal is compared
        expected, checked = [(spec.line_template.uniform_len, None)] * len(lines), None
        faults = "every line must have {width} characters", None
    elif kind == "mirror":
        try:
            theme_lines = _theme_lines(poem.theme)
        except CorpusError as exc:
            return [RuleResult("structure.theme", HARD, False,
                               message=f"couplet first line unusable: {exc}")]
        ok_count = len(theme_lines) == len(lines)
        count_message = "" if ok_count else (
            f"second line has {len(lines)} segments, first line has {len(theme_lines)}")
        expected = [(len(ln.characters), ln.terminal_punct) for ln in theme_lines]
        # the last segment both lines have may end either way
        checked = min(len(theme_lines), len(lines)) - 1
        faults = ("segment lengths must mirror the first line",
                  "internal punctuation must mirror the first line")
    else:
        templates = spec.line_template.templates
        shape = tuple([(len(ln.characters), ln.terminal_punct) for ln in lines])
        if shape in templates:
            return list(_STRUCTURE_PASSED)
        counts = spec.line_template.line_counts
        ok_count = len(lines) in counts
        if not ok_count:
            # this hard failure already decides the verdict; per-line
            # comparisons against a template of another size would mislead
            return [RuleResult("structure.line_count", HARD, False, message=(
                f"expected {' or '.join(map(str, counts))} lines, got {len(lines)}")),
                *_NOT_EVALUATED]
        count_message = ""
        expected = templates[0] if len(templates) == 1 else _best_template(templates, lines)
        checked = len(lines)
        faults = "line lengths: {detail}", "terminal punctuation deviates from the form template"

    bad_len = tuple([(i, None) for i, (ln, (n, _)) in enumerate(zip(lines, expected), 1)
                     if len(ln.characters) != n])
    length_message = "" if not bad_len else faults[0].format(
        width=expected[0][0], detail=", ".join(
            f"line {i}: {len(lines[i - 1])} chars (expected {expected[i - 1][0]})"
            for i, _ in bad_len))
    results = [RuleResult("structure.line_count", HARD, ok_count, message=count_message),
               RuleResult("structure.line_lengths", HARD, not bad_len, bad_len,
                          message=length_message)]
    if checked is None:
        results.append(_UNREGULATED)
        return results
    bad_punct = tuple([(i, None) for i, (ln, (_, p))
                       in enumerate(zip(lines[:checked], expected), 1) if ln.terminal_punct != p])
    results.append(RuleResult("structure.punctuation", HARD, not bad_punct, bad_punct,
                              message="" if not bad_punct else faults[1]))
    return results


def _pair_lines(first: str, second: str, first_punct: str | None,
                second_punct: str | None, line_a: int, line_b: int) -> Sequence[RuleResult]:
    ok_len = len(first) == len(second)
    repeats = ()
    if any(map(str.__eq__, first, second)):     # most pairs share no character
        repeats = tuple((line_b, i + 1) for i, (a, b) in enumerate(zip(first, second))
                        if a == b and a not in PAIR_REPEAT_EXEMPT)
    ok_punct = (first_punct, second_punct) in ((COMMA, PERIOD), (None, None))
    if ok_len and ok_punct and not repeats:
        return _PAIR_PASSED
    both = ((line_a, None), (line_b, None))
    return [RuleResult("pairing.length", HARD, ok_len, () if ok_len else both,
                       message="" if ok_len else
                       f"paired lines differ in length: {len(first)} vs {len(second)}"),
            RuleResult("pairing.position_repeat", HARD, not repeats, repeats,
                       message="" if not repeats else "character repeated at the same "
                       "position: " + ", ".join(f"{second[p - 1]!r}@{p}" for _, p in repeats)),
            RuleResult("pairing.punctuation", HARD, ok_punct, () if ok_punct else both,
                       message="" if ok_punct else
                       "paired lines should end with complementary punctuation (，/。)")]


def check_pairing(poem: Poem, spec: FormSpec) -> list[RuleResult]:
    """Structural pairing: equal lengths, no same-position character
    repeats (function characters exempt), complementary punctuation."""
    results: list[RuleResult] = []
    if spec.line_template.kind == "mirror":
        try:
            theme_lines = _theme_lines(poem.theme)
        except CorpusError as exc:
            return [RuleResult("pairing.length", HARD, False,
                               message=f"couplet first line unusable: {exc}")]
        first = "".join(ln.characters for ln in theme_lines)
        second = "".join(ln.characters for ln in poem.body)
        return list(_pair_lines(first, second,
                                theme_lines[-1].terminal_punct,
                                poem.body[-1].terminal_punct, 0, 1))
    for a, b in spec.pairing_slots:
        if a < 1 or b < 1 or a > len(poem.body) or b > len(poem.body):
            results.append(RuleResult(
                "pairing.length", HARD, False, ((a, None), (b, None)),
                message=f"pair slot ({a},{b}) outside the poem"))
            continue
        la, lb = poem.body[a - 1], poem.body[b - 1]
        results.extend(_pair_lines(la.characters, lb.characters,
                                   la.terminal_punct, lb.terminal_punct, a, b))
    return results


def check_rhyme(poem: Poem, spec: FormSpec, table: PhonologyTable | None,
                level: str = ADVISORY) -> list[RuleResult]:
    """Final characters of the rhyme-slot lines must share a rhyme group."""
    slots = [s for s in spec.rhyme_slots if 1 <= s <= len(poem.body)]
    if len(slots) < 2:
        return [_shared("rhyme.group", level, None, "fewer than two rhyme slots available")]
    finals = [(s, poem.body[s - 1].characters[-1]) for s in slots]
    if len({ch for _, ch in finals}) == 1:
        return [RuleResult("rhyme.group", level, True,
                           message=f"identical final character {finals[0][1]!r}")]
    if table is None:
        return [_shared("rhyme.group", level, None, "no phonology table loaded")]
    known, unknown = [], []
    for s, ch in finals:
        group = table.rhyme_group.get(ch)
        (unknown if group is None else known).append((s, ch, group))
    if len(known) < 2:
        return [RuleResult(
            "rhyme.group", level, None,
            tuple((s, None) for s, _, _ in unknown),
            message="rhyme characters missing from the table: "
            + " ".join(ch for _, ch, _ in unknown))]
    groups = {g for _, _, g in known}
    if len(groups) == 1:
        msg = f"shared rhyme group {groups.pop()!r}"
        if not unknown:
            return [_shared("rhyme.group", level, True, msg)]
        msg += "; unknown: " + " ".join(ch for _, ch, _ in unknown)
        return [RuleResult("rhyme.group", level, True, message=msg)]
    detail = ", ".join(f"line {s}: {ch!r} -> {g}" for s, ch, g in known)
    return [RuleResult(
        "rhyme.group", level, False,
        tuple((s, len(poem.body[s - 1].characters)) for s, _, _ in known),
        message=f"final characters fall in different rhyme groups: {detail}")]


def check_tone(poem: Poem, spec: FormSpec, table: PhonologyTable | None,
               level: str = ADVISORY) -> list[RuleResult]:
    """Per-position level/oblique comparison against the tone template."""
    if not spec.tone_patterns:
        return [_shared("tone.pattern", level, None, "form carries no tone template")]
    if table is None:
        return [_shared("tone.pattern", level, None, "no phonology table loaded")]
    width, masks = spec.tone_masks
    variants = masks.get(len(poem.body))
    if not variants:
        return [_shared("tone.pattern", level, None, "line count does not fit any tone template")]
    # one lookup per character, into the ``tone_masks`` layout (characters
    # missing from the table, or past the longest pattern line, are never compared)
    tone_of = table.tone_class.get
    level_bits = oblique_bits = 0
    for li, line in enumerate(poem.body):
        bit = 1 << (li * width)
        for ch in line.characters[:width]:
            tone = tone_of(ch)
            if tone == PING:
                level_bits |= bit
            elif tone is not None:
                oblique_bits |= bit
            bit <<= 1
    # the closest variant: fewest mismatches, then most compared slots,
    # then the smallest mismatch positions; of two mismatch sets of one
    # size, the smaller positions hold the lowest bit where the sets differ
    known = level_bits | oblique_bits
    best = None
    for want_level, want_oblique in variants:
        bad = (level_bits & want_oblique) | (oblique_bits & want_level)
        key = (bad.bit_count(), -(known & (want_level | want_oblique)).bit_count())
        diff = bad ^ best[1] if best and key == best[0] else 0
        if best is None or key < best[0] or bad & diff & -diff:
            best = key, bad
    (n_bad, compared), bad = best
    compared = -compared
    if compared == 0:
        return [_shared("tone.pattern", level, None, "no template character found in the table")]
    if n_bad == 0:
        return [RuleResult("tone.pattern", level, True,
                           message=f"{compared} fixed slots agree")]
    positions = tuple((b // width + 1, b % width + 1)
                      for b in range(bad.bit_length()) if bad >> b & 1)
    return [RuleResult(
        "tone.pattern", level, False, positions,
        message=f"{n_bad} tone slots deviate from the closest template variant")]


def check_acrostic(poem: Poem, target: str,
                   slots: tuple[int, ...] = ()) -> RuleResult:
    """Initial characters of the slot lines must spell the target.

    Empty ``slots`` means every line carries one target character.
    """
    slots = slots or tuple(range(1, len(poem.body) + 1))
    try:
        initials = poem.line_initials(slots)
    except CorpusError:
        return RuleResult(
            "acrostic.initials", HARD, False,
            message=f"acrostic slots {slots} do not fit a {len(poem.body)}-line poem")
    if len(initials) != len(target):
        return RuleResult(
            "acrostic.initials", HARD, False,
            message=f"target has {len(target)} characters but the poem offers "
                    f"{len(initials)} acrostic lines")
    bad = [i for i, (got, want) in enumerate(zip(initials, target)) if got != want]
    if not bad:
        return _ACROSTIC_PASSED
    return RuleResult(
        "acrostic.initials", HARD, False, tuple((slots[i], 1) for i in bad),
        message="line-initial characters deviate: " + ", ".join(
            f"line {slots[i]}: {initials[i]!r} != {target[i]!r}" for i in bad))


def validate(poem: Poem, catalog: FormCatalog,
             table: PhonologyTable | None = None,
             strict_phonology: bool = False) -> ValidationReport:
    """Run every applicable check; well_formed is the AND of hard rules."""
    spec = catalog.resolve(poem.form_id)
    phon_level = HARD if strict_phonology else ADVISORY
    results = check_structure(poem, spec)
    if spec.line_template.kind == "mirror" or spec.pairing_slots:
        results += check_pairing(poem, spec)
    if spec.rhyme_slots:
        results += check_rhyme(poem, spec, table, phon_level)
    if spec.tone_patterns:
        results += check_tone(poem, spec, table, phon_level)
    if spec.acrostic and poem.theme:
        results.append(check_acrostic(poem, poem.theme, spec.acrostic_slots))
    return ValidationReport(poem.form_id, results)
