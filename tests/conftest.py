from pathlib import Path

import pytest

from guti import float_build
from guti.corpus import ingest_corpus, serialize
from guti.forms import default_catalog
from guti.phonology import default_table

FIXTURES = Path(__file__).parent / "fixtures"

# the build every float golden passes on: its bits depend on numpy's build,
# on the core kernel OpenBLAS picks for the CPU at load time and on the
# BLAS thread count
GOLDEN_BUILD = "numpy 2.4.6, OpenBLAS core SkylakeX, threads 1"


@pytest.fixture(scope="session")
def golden_build():
    """A float golden's failure message: the build it ran on, next to the
    one it passes on."""
    return f"ran on {float_build()}; the golden passes on {GOLDEN_BUILD}"


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture(scope="session")
def fixture_poems(catalog):
    """The bundled corpus of published poems, one per table row."""
    result = ingest_corpus(FIXTURES / "sample_poems.jsonl", catalog)
    assert not result.diagnostics, result.diagnostics
    return result.poems


@pytest.fixture(scope="session")
def toy_poems(catalog):
    result = ingest_corpus(FIXTURES / "toy_corpus.jsonl", catalog)
    assert not result.diagnostics, result.diagnostics
    return result.poems


@pytest.fixture(scope="session")
def toy_samples(toy_poems, catalog):
    return [serialize(p, catalog) for p in toy_poems]
