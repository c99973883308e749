import pytest

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

    @pytest.mark.parametrize("key, what", [("rhyme", "rhyme"),
                                           ("acrostic-slots", "acrostic")])
    def test_bad_slot_list_rejected(self, key, what):
        text = f"version = 1\n[x]\nclass = jintishi\nlines = 5 5\n{key} = 1 x\n"
        with pytest.raises(CatalogError, match=f"<catalog>:5: bad {what} slots '1 x'"):
            parse_catalog(text)

    def test_bad_tone_symbols_rejected(self):
        text = "version = 1\n[x]\nclass = jintishi\nlines = 5 5\ntones = 平仄XY平\n"
        with pytest.raises(CatalogError):
            parse_catalog(text)


class TestBuiltinCatalog:
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
        assert table.group_of("人") == "文"
        assert table.tone_of("月") == "ze"
        assert table.group_of("星") is None

    def test_bad_header(self):
        with pytest.raises(PhonologyError):
            parse_table("人\t文\tping\n")

    def test_bad_tone_class(self):
        with pytest.raises(PhonologyError):
            parse_table("guti-phonology v1\n人\t文\tflat\n")

    def test_builtin_table_loads(self, table):
        assert len(table) > 400
        assert table.tone_of("平") == "ping"
        assert table.tone_of("仄") == "ze"
