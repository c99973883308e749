"""The validator's reports equal those of the reference copy in
``validator_reference.py`` for poems of every catalog form: well-formed
ones and ones with a single fault."""

from hypothesis import given, settings
from hypothesis import strategies as st

import validator_reference as reference
from guti.corpus import Line, Poem
from guti.forms import COMMA, PERIOD, TONE_PING, TONE_ZE, default_catalog
from guti.phonology import PING, default_table
from guti.validator import validate

CATALOG = default_catalog()
TABLE = default_table()
LEVEL = "".join(sorted(ch for ch, t in TABLE.tone_class.items() if t == PING)[:24])
OBLIQUE = "".join(sorted(ch for ch, t in TABLE.tone_class.items() if t != PING)[:24])
OUTSIDE = "龘靐齉"                       # CJK, but missing from the table
assert not set(OUTSIDE) & set(TABLE.tone_class)

FAULTS = ("none", "count+1", "count-1", "length+1", "length-1", "terminal",
          "outside", "pair-repeat", "acrostic", "theme")


def _shape(draw, spec):
    """(length, terminal) per line of a poem that fits the form."""
    template = spec.line_template
    if template.kind == "groups":
        return [(n, PERIOD if j == len(alt) - 1 else COMMA)
                for group in template.groups
                for alt in [draw(st.sampled_from(group))]
                for j, n in enumerate(alt)]
    if template.kind == "uniform":
        lines = 2 * draw(st.integers(1, 4))
        return [(template.uniform_len, COMMA if i % 2 == 0 else PERIOD)
                for i in range(lines)]
    segments = draw(st.lists(st.integers(4, 9), min_size=1, max_size=3))
    return [(n, None if i == len(segments) - 1 else COMMA)
            for i, n in enumerate(segments)]


@st.composite
def poems(draw):
    spec = CATALOG.resolve(draw(st.sampled_from(CATALOG.form_ids())))
    shape = _shape(draw, spec)
    char = st.sampled_from(LEVEL + OBLIQUE)
    variants = [v for v in spec.tone_patterns if len(v) == len(shape)]
    pattern = draw(st.sampled_from(variants)) if variants and draw(st.booleans()) else None

    def text(n, slots=""):
        return "".join(draw(st.sampled_from(LEVEL)) if want == TONE_PING else
                       draw(st.sampled_from(OBLIQUE)) if want == TONE_ZE else
                       draw(char) for want in slots.ljust(n)[:n])

    lines = [[text(n, pattern[i] if pattern else ""), punct]
             for i, (n, punct) in enumerate(shape)]
    if spec.line_template.kind == "mirror":
        theme = "".join(text(len(c)) + (p or "") for c, p in lines)
    elif spec.acrostic:
        slots = spec.acrostic_slots or range(1, len(lines) + 1)
        theme = "".join(lines[s - 1][0][0] for s in slots)
    else:
        theme = text(2)

    fault = draw(st.sampled_from(FAULTS))
    i = draw(st.integers(0, len(lines) - 1))
    chars = lines[i][0]
    at = draw(st.integers(0, len(chars) - 1))
    if fault == "count+1":
        lines.insert(i, [text(len(chars)), lines[i][1]])
    elif fault == "count-1" and len(lines) > 1:
        del lines[i]
    elif fault == "length+1":
        lines[i][0] = chars[:at] + draw(char) + chars[at:]
    elif fault == "length-1" and len(chars) > 1:
        lines[i][0] = chars[:at] + chars[at + 1:]
    elif fault == "terminal":
        lines[i][1] = {COMMA: PERIOD, PERIOD: COMMA, None: PERIOD}[lines[i][1]]
    elif fault == "outside":
        lines[i][0] = chars[:at] + draw(st.sampled_from(OUTSIDE)) + chars[at + 1:]
    elif fault == "pair-repeat" and spec.pairing_slots:
        a, b = (s - 1 for s in draw(st.sampled_from(spec.pairing_slots)))
        if b < len(lines) and at < min(len(lines[a][0]), len(lines[b][0])):
            lines[b][0] = lines[b][0][:at] + lines[a][0][at] + lines[b][0][at + 1:]
    elif fault == "pair-repeat" and spec.line_template.kind == "mirror":
        lines[0][0] = theme[0] + lines[0][0][1:]
    elif fault == "acrostic" and spec.acrostic:
        theme = OUTSIDE[0] + theme[1:]
    elif fault == "theme":
        theme = theme[:1] + "x" + theme[1:]
    return Poem(spec.form_id, theme, tuple(Line(c, p) for c, p in lines))


@settings(max_examples=600, deadline=None)
@given(poem=poems(), table=st.sampled_from([TABLE, None]), strict=st.booleans())
def test_reports_equal_the_reference_validator(poem, table, strict):
    got = validate(poem, CATALOG, table, strict_phonology=strict)
    want = reference.validate(poem, CATALOG, table, strict_phonology=strict)
    assert got.to_dict() == want.to_dict()
    assert got.well_formed == want.well_formed
