import ctypes
from pathlib import Path

import pytest

from guti.corpus import ingest_corpus, serialize
from guti.forms import default_catalog
from guti.phonology import default_table

FIXTURES = Path(__file__).parent / "fixtures"

# the build every float golden passes on: its bits depend on numpy's build
# and on the core kernel OpenBLAS picks for the CPU at load time
GOLDEN_BUILD = "numpy 2.4.6, OpenBLAS core SkylakeX"


def float_build() -> str:
    """numpy's version and the OpenBLAS core name, read through ctypes from
    the library numpy bundles ("unknown" where none exports the call)."""
    import numpy as np      # after guti, which sets BLAS to one thread first

    build = f"numpy {np.__version__}, OpenBLAS core "
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return build + (fn() or b"unknown").decode()
    return build + "unknown"


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
