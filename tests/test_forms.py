import hashlib

import pytest

from guti.corpus import Poem, parse_body, serialize
from guti.errors import CatalogError, UnknownFormError
from guti.forms import MARKER_PAIRS, parse_catalog
from guti.phonology import PhonologyError, parse_table

MINIMAL = """
version = 1
[试形]
class = jintishi
lines = 5 5 / 5 5
rhyme = 2 4
"""

# (catalog text, the CatalogError text parse_catalog raises for it); line
# numbers count comments and blank lines, and a section's own faults are
# found when the next header or the end of the file closes the section
ENTRY = "version = 1\n[x]\nclass = jintishi\nlines = 5 5\n"
CATALOG_ERRORS = [
    (ENTRY.replace("5 5", "x*"), "<catalog>:4: bad uniform line template 'x*'"),
    (ENTRY.replace("5 5", "0*"), "<catalog>:4: uniform line length must be >= 1"),
    (ENTRY.replace("5 5", "5 x"), "<catalog>:4: bad segment count in '5 x'"),
    (ENTRY.replace("5 5", "5 5 /"), "<catalog>:4: empty segment group in '5 5 /'"),
    (ENTRY.replace("5 5", "5 | | 7"), "<catalog>:4: empty segment group in '5 | | 7'"),
    (ENTRY.replace(" 5 5", ""), "<catalog>:4: empty segment group in ''"),
    (ENTRY + "pairs = 1-2 34", "<catalog>:5: pair slots look like '3-4', got '34'"),
    (ENTRY + "pairs = 3-x", "<catalog>:5: bad pair slot '3-x'"),
    (ENTRY + "rhyme = 1 x", "<catalog>:5: bad rhyme slots '1 x'"),
    (ENTRY + "acrostic-slots = 1 x", "<catalog>:5: bad acrostic slots '1 x'"),
    # counts and slots below 1, repeated slots and a line paired with itself
    (ENTRY.replace("5 5", "5 0 / 5 5"), "<catalog>:4: segment counts must be >= 1 in '5 0 / 5 5'"),
    (ENTRY.replace("5 5", "5 -3 / 5 5"),
     "<catalog>:4: segment counts must be >= 1 in '5 -3 / 5 5'"),
    (ENTRY + "rhyme = 0 -2 2 2", "<catalog>:5: rhyme slots must be >= 1, got '0 -2 2 2'"),
    (ENTRY + "rhyme = 2 4 2", "<catalog>:5: repeated rhyme slots in '2 4 2'"),
    (ENTRY + "pairs = 0-9 2-2", "<catalog>:5: pair slot must be >= 1, got '0-9'"),
    (ENTRY + "pairs = 1-2 3-3", "<catalog>:5: repeated pair slot in '3-3'"),
    (ENTRY + "acrostic-slots = 1 1 0", "<catalog>:5: acrostic slots must be >= 1, got '1 1 0'"),
    (ENTRY + "acrostic-slots = 1 3 1", "<catalog>:5: repeated acrostic slots in '1 3 1'"),
    (ENTRY + "tones = 平平 |", "<catalog>:5: empty tone variant"),
    (ENTRY + "tones = 平仄X", "<catalog>:5: bad tone symbols {'X'}"),
    (ENTRY + "colour = red", "<catalog>:5: unknown key 'colour'"),
    (ENTRY + "version = 1", "<catalog>:5: unknown key 'version'"),
    ("version = 1\nclass = ci\n", "<catalog>:2: 'class' outside a [form] section"),
    ("# v2\n\nversion = 2\n", "<catalog>:3: unsupported catalog version '2'"),
    ("version = 1\n[x]\nclass ci\n", "<catalog>:3: expected 'key = value', got 'class ci'"),
    ("version = 1\n[ ]\n", "<catalog>:2: empty form id"),
    ("version = 1\n[五(标题)绝]\n", "<catalog>:2: form id holds marker '(标题)'"),
    ("version = 1\n[x]\nlines = 5 5\n", "<catalog>:2: missing 'class'"),
    ("version = 1\n[x]\nclass = ci\n", "<catalog>:2: missing 'lines'"),
    ("version = 1\n[x]\nclass = sonnet\n", "<catalog>:2: unknown class 'sonnet'"),
    (ENTRY + "markers = sonnet", "<catalog>:2: unknown marker class 'sonnet'"),
    (ENTRY + ENTRY[12:], "<catalog>:5: duplicate form 'x'"),
    ("[x]\nclass = ci\nlines = 5\n", "<catalog>: missing 'version = 1' header"),
    (ENTRY + "acrostic-form = y",
     "<catalog>: 'x' points at missing acrostic form 'y'"),
    (ENTRY + "acrostic-form = y\n[y]\nclass = ci\nlines = 5",
     "<catalog>: 'x' points at acrostic form 'y', which lacks 'markers = acrostic'"),
    # an acrostic entry is its own variant: an acrostic-form line naming
    # another entry, acrostic or not, would be read by nothing
    (ENTRY + "markers = acrostic\nacrostic-form = y\n[y]\nclass = ci\nlines = 5\n"
     "markers = acrostic",
     "<catalog>: acrostic form 'x' is its own acrostic form, not 'y'"),
    # two faults: the first section's missing class is reported at its
    # header, when the second header closes it, before the bad line after
    ("version = 1\n[a]\nlines = 5\n[b]\nclass ci\n", "<catalog>:2: missing 'class'"),
    ("version = 1\n[a]\nlines = 5\n[ ]\n", "<catalog>:2: missing 'class'"),
    ("[a]\nclass = sonnet\n", "<catalog>:1: unknown class 'sonnet'"),
    # a slot past the last line of the longest poem the groups allow; the
    # position is the line of the key, the fault is found at the section's end
    (ENTRY.replace("5 5", "5 5 / 5 5") + "pairs = 1-2 5-6",
     "<catalog>:5: pair slot 5 lies past the last line of a form of 4 lines"),
    (ENTRY.replace("5 5", "5 5 / 5 5") + "rhyme = 2 4 9",
     "<catalog>:5: rhyme slot 9 lies past the last line of a form of 4 lines"),
    (ENTRY.replace("5 5", "5 5 / 5 | 5 5") + "acrostic-slots = 1 7\nrhyme = 2",
     "<catalog>:5: acrostic slot 7 lies past the last line of a form of 3 or 4 lines"),
    # a tone variant of a line count no poem of the groups can have
    (ENTRY.replace("5 5", "5 5 / 5 5") + "tones = " + " ".join(["平平仄仄平"] * 4)
     + " | " + " ".join(["平平仄仄平"] * 5),
     "<catalog>:5: a tone variant of 5 lines fits no poem of a form of 4 lines"),
    # old-style poems have an even line count >= 2
    (ENTRY.replace("5 5", "5*") + "tones = " + " ".join(["平平仄仄平"] * 3),
     "<catalog>:5: a tone variant of 3 lines fits no poem of a form of 2, 4, 6, ... lines"),
    (ENTRY.replace("5 5", "5*") + "tones = 平平仄仄平 平平仄仄平 | 平平仄仄平",
     "<catalog>:5: a tone variant of 1 lines fits no poem of a form of 2, 4, 6, ... lines"),
]


# what str.splitlines() breaks a line at besides "\n" and "\r": the readers
# break at "\n" only, as the corpus and vocab readers do
LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"]


class TestCatalogParsing:
    def test_minimal_entry(self):
        catalog = parse_catalog(MINIMAL)
        spec = catalog.resolve("试形")
        assert spec.form_class == "jintishi"
        assert sum(len(group[0]) for group in spec.line_template.groups) == 4
        assert spec.rhyme_slots == (2, 4)
        assert spec.markers == MARKER_PAIRS["shi"]

    def test_alternative_groups(self):
        catalog = parse_catalog("version = 1\n[测]\nclass = ci\n"
                                "lines = 5 5 / 6 5 | 4 7\n")
        spec = catalog.resolve("测")
        assert spec.line_template.groups[1] == ((6, 5), (4, 7))
        assert spec.markers == MARKER_PAIRS["ci"]

    def test_mirror_and_uniform(self):
        catalog = parse_catalog("version = 1\n"
                                "[对]\nclass = couplet\nlines = mirror\n"
                                "[古]\nclass = gushi\nlines = 7*\n")
        assert catalog.resolve("对").line_template.kind == "mirror"
        assert catalog.resolve("古").line_template.uniform_len == 7

    def test_mirror_template_fixes_no_tone_variant_count(self):
        # a couplet's line count follows its first line, so any variant can fit
        catalog = parse_catalog("version = 1\n[对]\nclass = couplet\nlines = mirror\n"
                                "tones = 平平仄 | 平仄 仄平 平平\n")
        assert sorted(catalog.resolve("对").tone_masks[1]) == [1, 3]

    def test_missing_version_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("[x]\nclass = ci\nlines = 5 5\n")

    def test_unknown_class_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("version = 1\n[x]\nclass = sonnet\nlines = 5 5\n")

    def test_missing_lines_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("version = 1\n[x]\nclass = ci\n")

    def test_duplicate_form_rejected(self):
        text = "version = 1\n[x]\nclass = ci\nlines = 5\n[x]\nclass = ci\nlines = 5\n"
        with pytest.raises(CatalogError):
            parse_catalog(text)

    def test_dangling_acrostic_reference_rejected(self):
        text = ("version = 1\n[x]\nclass = jintishi\nlines = 5 5\n"
                "acrostic-form = 不存在\n")
        with pytest.raises(CatalogError):
            parse_catalog(text)

    @pytest.mark.parametrize("text, message", CATALOG_ERRORS,
                             ids=[m.partition(": ")[2] for _, m in CATALOG_ERRORS])
    def test_every_error_names_its_position(self, text, message):
        with pytest.raises(CatalogError) as exc:
            parse_catalog(text)
        assert str(exc.value) == message

    def test_error_position_names_the_source(self):
        with pytest.raises(CatalogError, match=r"^my\.catalog:3: unknown key 'colour'$"):
            parse_catalog("version = 1\n[x]\ncolour = red\n", source="my.catalog")

    @pytest.mark.parametrize("key, what", [("rhyme", "rhyme"),
                                           ("acrostic-slots", "acrostic")])
    def test_bad_slot_list_rejected(self, key, what):
        text = f"version = 1\n[x]\nclass = jintishi\nlines = 5 5\n{key} = 1 x\n"
        with pytest.raises(CatalogError, match=f"<catalog>:5: bad {what} slots '1 x'"):
            parse_catalog(text)

    def test_markers_key_overrides_class_default(self):
        text = "version = 1\n[x]\nclass = jintishi\nmarkers = ci\nlines = 5 5\n"
        catalog = parse_catalog(text)
        assert catalog.resolve("x").markers == MARKER_PAIRS["ci"]
        poem = Poem(form_id="x", theme="游园", body=parse_body("床前明月光，疑是地上霜。"))
        assert serialize(poem, catalog).text.startswith("x(词牌名)游园(标题)")
        with pytest.raises(CatalogError, match="unknown marker class 'sonnet'"):
            parse_catalog(text.replace("markers = ci", "markers = sonnet"))

    def test_acrostic_form_must_be_acrostic(self):
        text = ("version = 1\n[a]\nclass = jintishi\nlines = 5 5\nacrostic-form = b\n"
                "[b]\nclass = jintishi\nlines = 5 5\n")
        with pytest.raises(CatalogError, match="'b', which lacks 'markers = acrostic'"):
            parse_catalog(text)
        spec = parse_catalog(text + "markers = acrostic\n").resolve("b")
        assert spec.acrostic

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    def test_line_break_inside_a_comment(self, brk):
        head = f"version = 1\n# note{brk}more\n[x]\n"
        assert parse_catalog(head + "class = ci\nlines = 5*\n").resolve("x").form_class == "ci"
        with pytest.raises(CatalogError,
                           match="^<catalog>:4: expected 'key = value', got 'class ci'$"):
            parse_catalog(head + "class ci\n")

    def test_slots_may_need_the_longest_alternative(self):
        text = ENTRY.replace("5 5", "5 5 / 5 | 5 5 / 7 | 4 4") + "pairs = 5-6\nrhyme = 2 6"
        template = parse_catalog(text).resolve("x").line_template
        assert template.line_counts == (4, 5, 6)
        assert parse_catalog(ENTRY.replace("5 5", "mirror")).resolve("x").line_template \
            .line_counts == ()

    def test_crlf_line_ends(self):
        assert parse_catalog(MINIMAL.replace("\n", "\r\n")) == parse_catalog(MINIMAL)

    def test_bad_tone_symbols_rejected(self):
        text = "version = 1\n[x]\nclass = jintishi\nlines = 5 5\ntones = 平仄XY平\n"
        with pytest.raises(CatalogError):
            parse_catalog(text)


class TestBuiltinCatalog:
    def test_parsed_entries_digest(self, catalog):
        # sha256 of every parsed entry, in file order, as recorded before
        # the per-key parsers moved into one table
        text = repr(list(catalog.entries.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f0828212273dbda07cafce409f2645dd9d768e983700479c367d4ab3343104f7")

    def test_core_forms_present(self, catalog):
        for form_id in ("五绝", "七绝", "五律", "七律", "对联",
                        "水调歌头", "满江红", "武陵春"):
            catalog.resolve(form_id)

    def test_acrostic_links_resolve(self, catalog):
        for form_id in ("五绝", "七绝", "五律", "七律"):
            spec = catalog.resolve(form_id)
            variant = catalog.resolve(spec.acrostic_id)
            assert variant.acrostic
            assert variant.markers == MARKER_PAIRS["acrostic"]
            assert variant.line_template == spec.line_template

    @pytest.mark.parametrize("form_id, variant", [
        ("五绝", "五言绝句"), ("五言绝句", "五言绝句"), ("七律", "七言律诗"), ("七言律诗", "七言律诗")])
    def test_acrostic_variant(self, catalog, form_id, variant):
        assert catalog.acrostic_variant(form_id, CatalogError).form_id == variant

    def test_unknown_form_lists_known(self, catalog):
        with pytest.raises(UnknownFormError) as exc:
            catalog.resolve("不存在")
        assert "五绝" in str(exc.value)

    def test_jintishi_tone_patterns_have_four_variants(self, catalog):
        for form_id in ("五绝", "七绝", "五律", "七律"):
            spec = catalog.resolve(form_id)
            assert len(spec.tone_patterns) == 4
            lines = sum(len(group[0]) for group in spec.line_template.groups)
            width = spec.line_template.groups[0][0][0]
            for variant in spec.tone_patterns:
                assert len(variant) == lines
                assert all(len(p) == width for p in variant)


class TestPhonologyTable:
    def test_parse_and_lookup(self):
        table = parse_table("guti-phonology v1\n人\t文\tping\n月\t皆\tze\n")
        assert table.rhyme_group["人"] == "文"
        assert table.tone_class["月"] == "ze"
        assert "星" not in table.rhyme_group

    def test_bad_header(self):
        with pytest.raises(PhonologyError):
            parse_table("人\t文\tping\n")

    def test_bad_tone_class(self):
        with pytest.raises(PhonologyError):
            parse_table("guti-phonology v1\n人\t文\tflat\n")

    def test_repeated_character_refused(self):
        # a polyphone listed twice would otherwise be judged by its last line
        with pytest.raises(PhonologyError,
                           match="^<table>:3: character '人' already listed at line 2$"):
            parse_table("guti-phonology v1\n人\ta\tping\n人\tb\tze\n")

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    def test_line_break_inside_a_comment(self, brk):
        head = f"guti-phonology v1\n# note{brk}more\n"
        assert parse_table(head + "人\t文\tping\n").tone_class["人"] == "ping"
        with pytest.raises(PhonologyError, match="^<table>:3: tone must be ping or ze$"):
            parse_table(head + "人\t文\tflat\n")

    def test_builtin_table_loads(self, table):
        assert len(table.rhyme_group) > 400
        assert table.tone_class["平"] == "ping"
        assert table.tone_class["仄"] == "ze"
