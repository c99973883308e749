"""The corpus synthesizer's labels match what guti's ingest and validator say.

Run with ``python3 -m pytest benchmarks/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import synth  # noqa: E402
from guti.corpus import ingest_corpus  # noqa: E402
from guti.forms import default_catalog  # noqa: E402
from guti.phonology import default_table  # noqa: E402
from guti.validator import validate  # noqa: E402


def test_synthesized_labels_match_the_validator(tmp_path):
    catalog, table = default_catalog(), default_table()
    corpus = synth.synthesize(catalog, table, seed=5, n_records=460)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(corpus.records) + "\n", encoding="utf-8")
    result = ingest_corpus(path, catalog)
    assert {d.line_no for d in result.diagnostics} == set(corpus.malformed_lines)
    assert {p.form_id for p in result.poems} == set(catalog.form_ids())
    faults = {label for label in corpus.labels.values()}
    assert faults == {None, "line_length", "punctuation", "position_repeat", "acrostic"}
    for poem in result.poems:
        well_formed = validate(poem, catalog, table).well_formed
        assert well_formed == (corpus.labels[poem.source_id] is None), poem.source_id
