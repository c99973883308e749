"""Seeded synthetic poem corpus for the `corpus` workload.

Every catalog form is built from its own template with characters drawn
from the phonology table.  Each poem carries a label: ``None`` when it is
well-formed, or the name of the one hard-rule fault injected into it.  A
fixed share of the records is malformed (bad JSON, an unknown form, or
non-CJK characters in the body) and must come back as ingest diagnostics.

The composition (forms, line counts, fault kinds, malformed kinds) depends
only on the record count, so every seed does the same amount of work; the
seed draws the characters, the themes and the record order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from guti.forms import COMMA, PERIOD, FormCatalog, FormSpec
from guti.phonology import PhonologyTable
from guti.validator import PAIR_REPEAT_EXEMPT

FAULTY_PER_10 = 3          # poems in every 10 of a form that carry one fault
MALFORMED_SHARE = 0.03     # share of records that ingest must reject
UNKNOWN_FORM = "七言排律"   # not in the built-in catalog
GUSHI_LINES = (4, 8, 12, 16)
COUPLET_SEGMENTS = ((4, 7), (5, 7), (7, 7))


@dataclass
class SynthPoem:
    form_id: str
    theme: str
    lines: list[list[str]]         # characters of each line
    puncts: list[str]              # terminal punctuation of each line ("" = none)

    def body_text(self) -> str:
        return "".join("".join(ln) + p for ln, p in zip(self.lines, self.puncts))

    def line_strings(self) -> list[str]:
        return ["".join(ln) for ln in self.lines]


@dataclass
class SynthCorpus:
    records: list[str]                 # JSON lines, in file order
    labels: dict[str, str | None]      # source_id -> injected fault or None
    malformed_lines: dict[int, str]    # 1-based line number -> malformed kind


def applicable_faults(spec: FormSpec) -> tuple[str, ...]:
    """Hard-rule faults that a poem of this form can carry."""
    kind = spec.line_template.kind
    if kind == "uniform":
        return ("line_length",)       # punctuation is not regulated for 古诗
    faults = ["line_length", "punctuation"]
    if kind == "mirror" or spec.pairing_slots:
        faults.append("position_repeat")
    if spec.acrostic:
        faults.append("acrostic")
    return tuple(faults)


class Synthesizer:
    def __init__(self, catalog: FormCatalog, table: PhonologyTable, seed: int):
        self.catalog = catalog
        self.rng = random.Random(seed)
        # exempt function characters may repeat in pairs; leave them out so
        # that any same-position repeat the synthesizer makes is a fault
        self.pool = sorted(ch for ch in table.rhyme_group if ch not in PAIR_REPEAT_EXEMPT)
        groups: dict[str, list[str]] = {}
        for ch in self.pool:
            groups.setdefault(table.rhyme_group[ch], []).append(ch)
        self.rhyme_groups = [sorted(g) for _, g in sorted(groups.items()) if len(g) >= 8]

    def _draw(self, n: int) -> list[str]:
        return [self.rng.choice(self.pool) for _ in range(n)]

    def _layout(self, spec: FormSpec, j: int) -> tuple[list[int], list[str]]:
        """Line lengths and punctuation of the j-th poem of a form."""
        t = spec.line_template
        if t.kind == "uniform":
            count = GUSHI_LINES[j % len(GUSHI_LINES)]
            return [t.uniform_len] * count, [COMMA if i % 2 == 0 else PERIOD
                                             for i in range(count)]
        if t.kind == "mirror":
            segs = COUPLET_SEGMENTS[j % len(COUPLET_SEGMENTS)]
            return list(segs), [COMMA] + [""] * (len(segs) - 1)
        lengths, puncts = [], []
        for group in t.groups:
            alt = group[j % len(group)]
            lengths += list(alt)
            puncts += [COMMA] * (len(alt) - 1) + [PERIOD]
        return lengths, puncts

    def poem(self, form_id: str, j: int) -> SynthPoem:
        """A well-formed poem of the form (the j-th layout variant)."""
        spec = self.catalog.resolve(form_id)
        lengths, puncts = self._layout(spec, j)
        if spec.line_template.kind == "mirror":
            theme_chars = self._draw(sum(lengths))
            body = self._draw(sum(lengths))
            for p, ch in enumerate(theme_chars):
                while body[p] == ch:
                    body[p] = self.rng.choice(self.pool)
            lines, start = [], 0
            for n in lengths:
                lines.append(body[start:start + n])
                start += n
            first, start = [], 0
            for n, pu in zip(lengths, puncts):
                first.append("".join(theme_chars[start:start + n]) + pu)
                start += n
            return SynthPoem(form_id, "".join(first), lines, list(puncts))

        lines = [self._draw(n) for n in lengths]
        slots = [s for s in spec.rhyme_slots if s <= len(lines)]
        if slots:
            group = self.rng.choice(self.rhyme_groups)
            finals = self.rng.sample(group, len(slots))
            for s, ch in zip(slots, finals):
                lines[s - 1][-1] = ch
        for a, b in spec.pairing_slots:
            la, lb = lines[a - 1], lines[b - 1]
            for p in range(min(len(la), len(lb))):
                while lb[p] == la[p]:
                    lb[p] = self.rng.choice(self.pool)
        if spec.acrostic:
            acro = spec.acrostic_slots or tuple(range(1, len(lines) + 1))
            theme = "".join(lines[s - 1][0] for s in acro)
        else:
            theme = "".join(self._draw(2 + j % 3))
        return SynthPoem(form_id, theme, lines, list(puncts))

    def inject(self, poem: SynthPoem, fault: str) -> None:
        """Break exactly one hard rule of a well-formed poem, in place."""
        spec = self.catalog.resolve(poem.form_id)
        rng = self.rng
        if fault == "line_length":
            line = rng.choice(poem.lines)
            line.append(rng.choice(self.pool))
        elif fault == "punctuation":
            # flip a comma/period; couplets flip their internal comma
            if spec.line_template.kind == "mirror":
                poem.puncts[0] = PERIOD
            else:
                i = rng.randrange(len(poem.puncts))
                poem.puncts[i] = PERIOD if poem.puncts[i] == COMMA else COMMA
        elif fault == "position_repeat":
            if spec.line_template.kind == "mirror":
                first = [ch for ch in poem.theme if ch not in (COMMA, PERIOD)]
                p = rng.randrange(len(first))
                flat = [(li, ci) for li, ln in enumerate(poem.lines) for ci in range(len(ln))]
                li, ci = flat[p]
                poem.lines[li][ci] = first[p]
            else:
                a, b = rng.choice(spec.pairing_slots)
                p = rng.randrange(len(poem.lines[a - 1]))
                poem.lines[b - 1][p] = poem.lines[a - 1][p]
        elif fault == "acrostic":
            i = rng.randrange(len(poem.theme))
            other = rng.choice([ch for ch in self.pool if ch != poem.theme[i]])
            poem.theme = poem.theme[:i] + other + poem.theme[i + 1:]
        else:
            raise ValueError(f"unknown fault {fault!r}")


def _record(poem: SynthPoem, source_id: str, catalog: FormCatalog) -> dict:
    if catalog.resolve(poem.form_id).line_template.kind == "mirror":
        return {"first": poem.theme, "second": poem.body_text(), "source_id": source_id}
    return {"form": poem.form_id, "theme": poem.theme, "body": poem.body_text(),
            "source_id": source_id}


def synthesize(catalog: FormCatalog, table: PhonologyTable, seed: int,
               n_records: int) -> SynthCorpus:
    """Build ``n_records`` JSON-line records covering every catalog form."""
    synth = Synthesizer(catalog, table, seed)
    forms = catalog.form_ids()
    n_malformed = round(n_records * MALFORMED_SHARE)
    ordered: list[tuple[str, str | None]] = []    # (JSON line, malformed kind)
    labels: dict[str, str | None] = {}
    per_form = [0] * len(forms)
    for i in range(n_records - n_malformed):
        f = i % len(forms)
        j = per_form[f]
        per_form[f] += 1
        poem = synth.poem(forms[f], j)
        fault = None
        if j % 10 < FAULTY_PER_10:
            options = applicable_faults(catalog.resolve(forms[f]))
            fault = options[(j // 10 * FAULTY_PER_10 + j % 10) % len(options)]
            synth.inject(poem, fault)
        sid = f"syn-{i:05d}"
        labels[sid] = fault
        ordered.append((json.dumps(_record(poem, sid, catalog), ensure_ascii=False), None))

    kinds = ("bad_json", "unknown_form", "non_cjk")
    for m in range(n_malformed):
        kind = kinds[m % len(kinds)]
        poem = synth.poem("五绝", m)
        rec = _record(poem, f"bad-{m:04d}", catalog)
        if kind == "bad_json":
            line = json.dumps(rec, ensure_ascii=False)[:-3]
        elif kind == "unknown_form":
            rec["form"] = UNKNOWN_FORM
            line = json.dumps(rec, ensure_ascii=False)
        else:
            rec["body"] = rec["body"][:3] + "abc" + rec["body"][3:]
            line = json.dumps(rec, ensure_ascii=False)
        ordered.append((line, kind))

    synth.rng.shuffle(ordered)
    records = [line for line, _ in ordered]
    malformed_lines = {n: kind for n, (_, kind) in enumerate(ordered, start=1) if kind}
    return SynthCorpus(records=records, labels=labels, malformed_lines=malformed_lines)
