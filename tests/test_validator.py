import itertools
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import validator_reference as reference
from guti.corpus import Line, Poem, parse_body
from guti.errors import UnknownFormError
from guti.forms import COMMA, PERIOD, parse_catalog
from guti.phonology import PhonologyTable, parse_table
from guti import validator
from guti.validator import (
    RuleResult,
    ValidationReport,
    check_acrostic,
    check_pairing,
    check_rhyme,
    check_structure,
    check_tone,
    validate,
)

WUJUE_QIUSI = "暮燕翻惊户，飞鸿却唤人。西风卷梧叶，触落一庭秋。"


def poem(form, theme, body):
    return Poem(form_id=form, theme=theme, body=parse_body(body))


def by_source(fixture_poems, source_id):
    (match,) = [p for p in fixture_poems if p.source_id == source_id]
    return match


class TestStructure:
    def test_wujue_passes(self, catalog):
        spec = catalog.resolve("五绝")
        results = check_structure(poem("五绝", "秋思", WUJUE_QIUSI), spec)
        assert all(r.passed for r in results if r.level == "hard")

    def test_deleted_character_fails_with_position(self, catalog):
        spec = catalog.resolve("五绝")
        damaged = poem("五绝", "秋思", WUJUE_QIUSI.replace("梧", "", 1))
        results = {r.rule: r for r in check_structure(damaged, spec)}
        bad = results["structure.line_lengths"]
        assert bad.passed is False
        assert (3, None) in bad.positions

    def test_wrong_line_count_fails(self, catalog):
        spec = catalog.resolve("五绝")
        five_lines = poem("五绝", "x", WUJUE_QIUSI + "床前明月光。")
        results = {r.rule: r for r in check_structure(five_lines, spec)}
        assert results["structure.line_count"].passed is False

    def test_wrong_punctuation_fails(self, catalog):
        spec = catalog.resolve("五绝")
        swapped = poem("五绝", "x",
                       "暮燕翻惊户。飞鸿却唤人，西风卷梧叶，触落一庭秋。")
        results = {r.rule: r for r in check_structure(swapped, spec)}
        assert results["structure.punctuation"].passed is False

    def test_gushi_checks_even_uniform_lines_only(self, catalog):
        spec = catalog.resolve("五言古诗")
        ok = poem("五言古诗", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。"
                                   "床前明月光，疑是地上霜。")
        results = {r.rule: r for r in check_structure(ok, spec)}
        assert results["structure.line_count"].passed
        assert results["structure.line_lengths"].passed
        assert results["structure.punctuation"].passed is None  # not regulated
        odd = poem("五言古诗", "x", "床前明月光，疑是地上霜。举头望明月。")
        results = {r.rule: r for r in check_structure(odd, spec)}
        assert results["structure.line_count"].passed is False

    def test_ci_group_alternatives(self, catalog, fixture_poems):
        spec = catalog.resolve("水调歌头")
        good = by_source(fixture_poems, "t5-shuidiaogetou")
        assert all(r.passed for r in check_structure(good, spec)
                   if r.level == "hard")

    def test_cached_templates_match_fresh_expansion(self, catalog):
        specs = [catalog.resolve(f) for f in catalog.form_ids()]
        groups_specs = [s for s in specs if s.line_template.kind == "groups"]
        assert groups_specs
        for spec in groups_specs:
            fresh = []
            for picks in itertools.product(*spec.line_template.groups):
                fresh.append(tuple(
                    (seg_len, "。" if j == len(alt) - 1 else "，")
                    for alt in picks for j, seg_len in enumerate(alt)))
            cached = spec.line_template.templates
            assert cached == tuple(fresh)
            assert spec.line_template.templates is cached
        assert any(s.tone_patterns for s in specs)
        for spec in specs:
            width = max((len(p) for v in spec.tone_patterns for p in v), default=0)
            fresh = {}
            for variant in spec.tone_patterns:
                # bit l * width + c is line l's character c, so the binary
                # numeral runs from the last line's last slot to the first's first
                text = "".join(p.ljust(width, "中")[::-1] for p in reversed(variant))
                fresh.setdefault(len(variant), []).append(tuple(
                    int("".join("1" if s == sym else "0" for s in text), 2) for sym in "平仄"))
            cached = spec.tone_masks
            assert cached == (width, fresh)
            assert spec.tone_masks is cached


class TestPairing:
    def test_couplet_passes(self, catalog):
        spec = catalog.resolve("对联")
        p = poem("对联", "海上飞燕飞上海", "城外环山环外城")
        results = check_pairing(p, spec)
        assert all(r.passed for r in results)

    def test_identical_lines_fail_everywhere(self, catalog):
        spec = catalog.resolve("对联")
        p = poem("对联", "海上飞燕飞上海", "海上飞燕飞上海")
        results = {r.rule: r for r in check_pairing(p, spec)}
        repeat = results["pairing.position_repeat"]
        assert repeat.passed is False
        assert len(repeat.positions) == 7

    def test_function_characters_exempt_from_repeats(self, catalog):
        # 未 repeats at the same slot; as a function character it is allowed
        spec = catalog.resolve("对联")
        p = poem("对联", "风弦未拨心先乱", "诗卷未题笔已枯")
        results = {r.rule: r for r in check_pairing(p, spec)}
        assert results["pairing.position_repeat"].passed

    def test_length_mismatch_fails(self, catalog):
        spec = catalog.resolve("对联")
        p = poem("对联", "海上飞燕飞上海", "城外环山外城")
        results = {r.rule: r for r in check_pairing(p, spec)}
        assert results["pairing.length"].passed is False

    def test_multi_clause_couplet_checks_internal_punctuation(self, catalog):
        spec = catalog.resolve("对联")
        good = poem("对联", "水墨丹青，烟雨江南春纵笔", "花红柳绿，桃源粤地燕裁云")
        assert all(r.passed for r in check_pairing(good, spec))
        assert all(r.passed for r in check_structure(good, spec))
        # shifting the comma breaks the mirrored segment structure
        shifted = poem("对联", "水墨丹青，烟雨江南春纵笔", "花红柳，绿桃源粤地燕裁云")
        results = {r.rule: r for r in check_structure(shifted, spec)}
        assert results["structure.line_lengths"].passed is False

    def test_qilu_pairs_lines_34_and_56(self, catalog, fixture_poems):
        qilu = by_source(fixture_poems, "t4-七律")
        spec = catalog.resolve("七律")
        results = check_pairing(qilu, spec)
        assert all(r.passed for r in results)
        assert len(results) == 6  # three rules per slot pair

    def test_pair_slot_outside_the_poem_fails(self, catalog):
        # a 4-line 七律: slot pair (3, 4) pairs, (5, 6) lies past its last line
        p = poem("七律", "早发白帝城",
                 "朝辞白帝彩云间，千里江陵一日还。两岸猿声啼不住，轻舟已过万重山。")
        results = check_pairing(p, catalog.resolve("七律"))
        assert all(r.passed for r in results[:3])
        assert results[3:] == [RuleResult("pairing.length", "hard", False,
                                          ((5, None), (6, None)),
                                          message="pair slot (5,6) outside the poem")]

    def test_paired_repeat_in_regulated_poem_fails(self, catalog, fixture_poems):
        qilu = by_source(fixture_poems, "t4-七律")
        body = list(qilu.body)
        # copy a character of line 3 into the same slot of line 4
        l4 = body[3].characters
        body[3] = Line(body[2].characters[0] + l4[1:], body[3].terminal_punct)
        damaged = Poem("七律", qilu.theme, tuple(body))
        repeats = [r for r in check_pairing(damaged, catalog.resolve("七律"))
                   if r.rule == "pairing.position_repeat"]
        assert any(r.passed is False for r in repeats)
        positions = [p for r in repeats for p in r.positions]
        assert (4, 1) in positions


TEST_TABLE = parse_table(
    "guti-phonology v1\n"
    "光\t唐\tping\n霜\t唐\tping\n乡\t唐\tping\n"
    "人\t文\tping\n秋\t尤\tping\n"
    "平\t庚\tping\n明\t庚\tping\n仄\t波\tze\n月\t皆\tze\n",
    source="test",
)


class TestRhyme:
    def test_identical_finals_pass_without_table(self, catalog):
        spec = catalog.resolve("五绝")
        p = poem("五绝", "x", "床前明月光，疑是地上光。举头望明月，低头思故光。")
        (result,) = check_rhyme(p, spec, None)
        assert result.passed

    def test_same_group_passes(self, catalog):
        spec = catalog.resolve("五绝")
        p = poem("五绝", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。")
        (result,) = check_rhyme(p, spec, TEST_TABLE)
        assert result.passed
        assert "唐" in result.message

    def test_distinct_groups_fail_with_both_reported(self, catalog):
        spec = catalog.resolve("五绝")
        p = poem("五绝", "x", "暮燕翻惊户，飞鸿却唤人。西风卷梧叶，触落一庭秋。")
        (result,) = check_rhyme(p, spec, TEST_TABLE)
        assert result.passed is False
        assert "文" in result.message and "尤" in result.message

    def test_unknown_characters_are_advisory(self, catalog):
        spec = catalog.resolve("五绝")
        p = poem("五绝", "x", "床前明月举，疑是地上望。举头望明月，低头思故头。")
        (result,) = check_rhyme(p, spec, TEST_TABLE)
        assert result.passed is None


class TestTone:
    def make_spec(self, catalog, patterns):
        import dataclasses
        return dataclasses.replace(catalog.resolve("五绝"), tone_patterns=patterns)

    def test_all_any_template_passes(self, catalog):
        spec = self.make_spec(catalog, (("中中中中中",) * 4,))
        p = poem("五绝", "x", WUJUE_QIUSI)
        (result,) = check_tone(p, spec, TEST_TABLE)
        assert result.passed is None  # nothing compared: every slot is open

    def test_fixed_slot_mismatch_reports_position(self, catalog):
        spec = self.make_spec(catalog, (("中中中中仄", "中中中中仄",
                                         "中中中中仄", "中中中中仄"),))
        p = poem("五绝", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。")
        (result,) = check_tone(p, spec, TEST_TABLE)
        assert result.passed is False
        assert (1, 5) in result.positions    # 光 is level, template wants oblique

    def test_matching_template_passes(self, catalog):
        spec = self.make_spec(catalog, (("中中中中平", "中中中中平",
                                         "中中中中仄", "中中中中平"),))
        p = poem("五绝", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。")
        (result,) = check_tone(p, spec, TEST_TABLE)
        assert result.passed is True

    def test_unknown_characters_everywhere_is_advisory(self, catalog):
        spec = self.make_spec(catalog, (("平平平平平",) * 4,))
        p = poem("五绝", "x", "叠叠叠叠叠，叠叠叠叠叠。叠叠叠叠叠，叠叠叠叠叠。")
        (result,) = check_tone(p, spec, TEST_TABLE)
        assert result.passed is None

    def test_each_table_judges_by_its_own_tones(self, catalog):
        # the second table is parsed after the first is gone, so it may be
        # built where the first was: what a table derives stays its own
        spec = self.make_spec(catalog, (("平平平平平",) * 4,))
        p = poem("五绝", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。")
        chars = sorted({ch for line in p.body for ch in line.characters})
        results = []
        for tone in ("ping", "ze"):
            table = parse_table("guti-phonology v1\n"
                                + "".join(f"{ch}\tx\t{tone}\n" for ch in chars))
            (result,) = check_tone(p, spec, table)
            results.append(result)
            del table
        assert (results[0].passed, results[0].message) == (True, "20 fixed slots agree")
        assert results[1].passed is False
        assert results[1].positions == tuple((li, ci) for li in range(1, 5)
                                             for ci in range(1, 6))

    @pytest.mark.parametrize("space_tone", ["ping", "ze"])
    def test_positions_up_to_the_highest_bit_equal_the_reference(self, catalog, space_tone):
        """A 七律 mismatching at line 8, character 7 (the masks' highest bit),
        with one line longer and one shorter than the pattern, under a table
        that also lists a space, the character a short line is padded with."""
        spec = catalog.resolve("七律")
        pattern = spec.tone_patterns[0]
        # 平 is level and 仄 oblique in TEST_TABLE; 叠 is missing from it
        lines = [p.replace("中", "叠") for p in pattern]
        lines[7] = lines[7][:6] + {"平": "仄", "仄": "平"}[pattern[7][6]]
        lines[2] += "月明"
        lines[4] = lines[4][:5]
        p = Poem("七律", "x", tuple(Line(c, PERIOD if i % 2 else COMMA)
                                   for i, c in enumerate(lines)))
        table = PhonologyTable(dict(TEST_TABLE.rhyme_group),
                               {**TEST_TABLE.tone_class, " ": space_tone})
        (got,) = check_tone(p, spec, table)
        (want,) = reference.check_tone(p, spec, table)
        assert got.to_dict() == want.to_dict()
        assert got.positions[-1] == (8, 7)


TIE_CATALOG = parse_catalog(
    "version = 1\n"
    # two variants with no mismatch: the second compares more slots
    "[多比]\nclass = jintishi\nlines = 5 5\n"
    "tones = 中中中中平 中中中中中 | 平平中中平 中中中中平\n"
    # one mismatch each: the first at an earlier slot, the second comparing more
    "[先比]\nclass = jintishi\nlines = 5 5\n"
    "tones = 仄中中中中 中中中中中 | 中仄中中中 平中中中中\n"
    # one mismatch each over one compared slot: the smaller position wins
    "[位比]\nclass = jintishi\nlines = 5 5\n"
    "tones = 中中中中中 仄中中中中 | 中中仄中中 中中中中中\n"
    # a seven-slot pattern over a five-character line, a three-slot one over
    # another; a 4-line variant the 2-line poem never meets
    "[长短]\nclass = jintishi\nlines = 5 5 | 5 5 5 5\n"
    "tones = 平平平平平仄仄 平平平 | 仄仄仄仄 仄仄仄仄 仄仄仄仄 仄仄仄仄\n",
    source="tie-test")
# 光 明 平 are level, 月 仄 oblique; 叠 is missing from the table
TWO_LEVEL_LINES = "光明平光明，平光明光明。"


class TestToneTieBreaks:
    """The closest variant is the least (mismatches, -compared, positions)."""

    def check(self, form, body=TWO_LEVEL_LINES):
        (result,) = check_tone(poem(form, "x", body), TIE_CATALOG.resolve(form),
                               TEST_TABLE)
        return result

    def test_more_compared_slots_win_a_mismatch_tie(self):
        result = self.check("多比")
        assert (result.passed, result.message) == (True, "4 fixed slots agree")
        result = self.check("先比")
        assert result.positions == ((1, 2),)

    def test_smaller_positions_win_a_full_tie(self):
        result = self.check("位比")
        assert result.positions == ((1, 3),)
        assert result.message == "1 tone slots deviate from the closest template variant"

    def test_only_the_overlap_of_pattern_and_line_is_compared(self):
        result = self.check("长短")
        assert (result.passed, result.message) == (True, "8 fixed slots agree")
        result = self.check("长短", "光明平光叠，叠光明光明。")
        assert (result.passed, result.message) == (True, "6 fixed slots agree")
        result = self.check("长短", "光明平光月，平月明光明。")
        assert result.positions == ((1, 5), (2, 2))

    def test_characters_missing_from_the_table_are_not_compared(self):
        result = self.check("位比", "叠叠叠叠叠，叠叠叠叠叠。")
        assert result.passed is None
        assert result.message == "no template character found in the table"


class TestTemplateTieBreaks:
    """A poem that matches no template is reported against the first of
    the best-scoring templates, in the catalog's group order."""

    def test_shuidiaogetou_reports_the_first_of_four_tied_templates(
            self, catalog, fixture_poems):
        lines = list(by_source(fixture_poems, "t5-shuidiaogetou").body)
        # lines 3-4 and 13-14 take (6,5) or (4,7); (5,6) ties all four templates
        for i in (2, 12):
            lines[i] = Line("云" * 5, lines[i].terminal_punct)
            lines[i + 1] = Line("云" * 6, lines[i + 1].terminal_punct)
        results = {r.rule: r for r in check_structure(
            Poem("水调歌头", "x", tuple(lines)), catalog.resolve("水调歌头"))}
        assert results["structure.line_lengths"].message == (
            "line lengths: line 3: 5 chars (expected 6), line 4: 6 chars "
            "(expected 5), line 13: 5 chars (expected 6), line 14: 6 chars "
            "(expected 5)")
        assert results["structure.punctuation"].passed is True

    def test_wulingchun_reports_the_first_of_two_tied_templates(self, catalog):
        # an unpunctuated 3-character eighth line scores the 8-line and the
        # (penalized) 9-line template alike
        p = poem("武陵春", "x", "长忆西湖湖上宴，一笑倒琼彝。红翠照人如有思，相见又相疑。"
                 "别岸潮生苹末涨，催发浪花飞。照酒红妆间舞衣，天远水")
        results = {r.rule: r for r in check_structure(p, catalog.resolve("武陵春"))}
        assert results["structure.line_lengths"].message == (
            "line lengths: line 8: 3 chars (expected 5)")
        assert results["structure.punctuation"].positions == ((8, None),)


class TestAcrostic:
    def test_fixture_acrostic_passes(self, catalog, fixture_poems):
        p = by_source(fixture_poems, "t6-acrostic")
        result = check_acrostic(p, "一路平安", catalog.resolve("七言律诗").acrostic_slots)
        assert result.passed

    def test_target_longer_than_lines_fails(self):
        assert check_acrostic(poem("五绝", "x", "床前明月光"), "床疑").passed is False

    def test_mismatch_reports_line(self, catalog):
        p = poem("五绝", "x", "床前明月光，疑是地上霜。举头望明月，低头思故乡。")
        result = check_acrostic(p, "床疑月低")
        assert result.passed is False
        assert (3, 1) in result.positions

    def test_mismatch_on_a_repeated_slot_names_its_characters(self):
        # slot 1 is read twice; the second reading is the one that differs
        result = check_acrostic(poem("五绝", "x", WUJUE_QIUSI), "暮X飞", (1, 1, 2))
        assert result.positions == ((1, 1),)
        assert result.message == "line-initial characters deviate: line 1: '暮' != 'X'"


class TestValidate:
    def test_shuidiaogetou_fixture(self, catalog, table, fixture_poems):
        p = by_source(fixture_poems, "t5-shuidiaogetou")
        report = validate(p, catalog, table)
        assert report.well_formed

    def test_five_line_wujue_not_well_formed(self, catalog, table):
        p = poem("五绝", "x", WUJUE_QIUSI + "床前明月光。")
        assert not validate(p, catalog, table).well_formed

    def test_unknown_form_raises(self, catalog):
        p = poem("不存在", "x", WUJUE_QIUSI)
        with pytest.raises(UnknownFormError):
            validate(p, catalog)

    def test_acrostic_form_checks_theme_against_initials(self, catalog, table,
                                                         fixture_poems):
        p = by_source(fixture_poems, "a-华为雄起")
        report = validate(p, catalog, table)
        assert report.well_formed
        assert any(r.rule == "acrostic.initials" and r.passed
                   for r in report.results)

    def test_advisory_failure_never_flips_well_formed(self, catalog, fixture_poems):
        # 秋思 wujue: finals 人/秋 do not rhyme, yet the poem stays well-formed
        p = by_source(fixture_poems, "t4-五绝")
        report = validate(p, catalog, TEST_TABLE)
        rhyme = [r for r in report.results if r.rule == "rhyme.group"]
        assert rhyme and rhyme[0].passed is False
        assert report.well_formed

    def test_strict_phonology_promotes_rhyme_to_hard(self, catalog, fixture_poems):
        p = by_source(fixture_poems, "t4-五绝")
        report = validate(p, catalog, TEST_TABLE, strict_phonology=True)
        assert not report.well_formed

    def test_validating_leaves_the_catalog_as_parsed(self, catalog, table, fixture_poems,
                                                     toy_poems):
        # what checking derives is kept on the specs, outside their fields
        for p in [*fixture_poems, *toy_poems]:
            for strict in (False, True):
                validate(p, catalog, table, strict_phonology=strict)
        specs = list(catalog.entries.values())
        assert any("templates" in s.line_template.__dict__ for s in specs)
        assert any("tone_masks" in s.__dict__ for s in specs)
        text = resources.files("guti.data").joinpath("forms.catalog").read_text("utf-8")
        fresh = parse_catalog(text, source="builtin")
        assert catalog.entries == fresh.entries
        assert [hash(s) for s in specs] == [hash(s) for s in fresh.entries.values()]
        assert repr(list(catalog.entries.items())) == repr(list(fresh.entries.items()))

    def test_pure_function_same_report(self, catalog, table, fixture_poems):
        p = by_source(fixture_poems, "t4-七律")
        assert validate(p, catalog, table) == validate(p, catalog, table)

    def test_each_report_owns_its_results(self, catalog, table, fixture_poems):
        # passing results are shared records; the lists that hold them are not
        p = by_source(fixture_poems, "t4-五律")
        first, second = validate(p, catalog, table), validate(p, catalog, table)
        assert first.well_formed
        first.results.append(RuleResult("extra", "hard", False))
        assert second == validate(p, catalog, table)
        first.results.clear()
        assert second == validate(p, catalog, table)
        spec = catalog.resolve("五律")
        for check in (check_structure, check_pairing,
                      lambda p, spec: check_rhyme(p, spec, table),
                      lambda p, spec: check_tone(p, spec, table)):
            check(p, spec).clear()
            assert check(p, spec), check
        with pytest.raises(AttributeError):
            second.results[0].passed = False

    def test_well_formed_is_the_and_of_hard_results(self, catalog, table, fixture_poems,
                                                    toy_poems):
        def faulted(p):
            body, first = p.body, p.body[0]
            yield Poem(p.form_id, p.theme, body[:-1] or body * 2)
            yield Poem(p.form_id, p.theme, (first, first, *body[2:]))
            yield Poem(p.form_id, p.theme,
                       (Line(first.characters + "田", first.terminal_punct), *body[1:]))
            yield Poem(p.form_id, p.theme[::-1], body)

        poems = [*fixture_poems, *toy_poems]
        verdicts = set()
        for p in [*poems, *(f for p in poems for f in faulted(p))]:
            for strict in (False, True):
                report = validate(p, catalog, table, strict_phonology=strict)
                want = all(r.passed is not False for r in report.results if r.level == "hard")
                assert report.well_formed is want, (p, report.results)
                verdicts.add(want)
        assert verdicts == {True, False}
        advisory_false = RuleResult("rhyme.group", "advisory", False)
        hard_none = RuleResult("tone.pattern", "hard", None)
        hard_true = RuleResult("structure.line_count", "hard", True)
        hard_false = RuleResult("pairing.length", "hard", False)
        for results, want in [([], True), ([advisory_false], True), ([hard_none], True),
                              ([hard_true, hard_false], False),
                              ([advisory_false, hard_none, hard_true], True),
                              ([hard_true, advisory_false, hard_false, hard_none], False)]:
            assert ValidationReport("x", results).well_formed is want, results

    def test_shared_results_stay_bounded(self, catalog, table, fixture_poems, toy_poems):
        # a passing rhyme result is shared per level and rhyme group; the
        # other shared results carry one of six fixed (rule, message) pairs
        members: dict[str, list[str]] = {}
        for ch, group in sorted(table.rhyme_group.items()):
            members.setdefault(group, []).append(ch)
        validator._shared.cache_clear()
        spec, base = catalog.resolve("五绝"), parse_body(WUJUE_QIUSI)
        for group, chars in members.items():
            a, b = (chars * 2)[:2]
            body = (base[0], Line(base[1].characters[:-1] + a, base[1].terminal_punct),
                    base[2], Line(base[3].characters[:-1] + b, base[3].terminal_punct))
            p = Poem("五绝", "秋思", body)
            for level in ("advisory", "hard"):
                (result,) = check_rhyme(p, spec, table, level)
                assert result.passed and result.level == level
                if a != b:
                    assert result.message == f"shared rhyme group {group!r}"
                    assert check_rhyme(p, spec, table, level)[0] is result
        for p in [*fixture_poems, *toy_poems]:
            for t in (table, None):
                for strict in (False, True):
                    validate(p, catalog, t, strict_phonology=strict)
        assert validator._shared.cache_info().currsize <= 2 * len(members) + 2 * 6

    def test_every_fixture_poem_well_formed(self, catalog, table, fixture_poems):
        for p in fixture_poems:
            report = validate(p, catalog, table)
            assert report.well_formed, (p.source_id, report.failures())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_single_character_edit_breaks_a_regulated_poem(data, catalog,
                                                       fixture_poems):
    """Any single insertion or deletion must flip some hard rule."""
    jintishi = [p for p in fixture_poems
                if catalog.resolve(p.form_id).form_class == "jintishi"]
    target = data.draw(st.sampled_from(jintishi))
    line_idx = data.draw(st.integers(0, len(target.body) - 1))
    line = target.body[line_idx]
    body = list(target.body)
    if data.draw(st.booleans()) and len(line.characters) > 1:
        pos = data.draw(st.integers(0, len(line.characters) - 1))
        chars = line.characters[:pos] + line.characters[pos + 1:]
    else:
        pos = data.draw(st.integers(0, len(line.characters)))
        chars = line.characters[:pos] + "田" + line.characters[pos:]
    body[line_idx] = Line(chars, line.terminal_punct)
    damaged = Poem(target.form_id, target.theme, tuple(body))
    assert not validate(damaged, catalog).well_formed
