import ctypes
from pathlib import Path

import pytest

from guti.corpus import ingest_corpus, serialize
from guti.forms import default_catalog
from guti.phonology import default_table

FIXTURES = Path(__file__).parent / "fixtures"

# the build every float golden passes on: its bits depend on numpy's build,
# on the core kernel OpenBLAS picks for the CPU at load time and on the
# BLAS thread count
GOLDEN_BUILD = "numpy 2.4.6, OpenBLAS core SkylakeX, threads 1"


def float_build() -> str:
    """numpy's version, the OpenBLAS core name and the BLAS thread count,
    read through ctypes from the library numpy bundles ("unknown" where none
    exports the call)."""
    import numpy as np      # after guti, which sets BLAS to one thread first

    libs = []
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            libs.append(ctypes.CDLL(str(path)))
        except OSError:
            continue

    def blas(what, restype):
        for lib in libs:
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}get_{what}{suffix}", None)
                    if fn is not None:
                        fn.argtypes, fn.restype = [], restype
                        return fn()
        return None

    core, threads = blas("corename", ctypes.c_char_p), blas("num_threads", ctypes.c_int)
    return (f"numpy {np.__version__}, OpenBLAS core {(core or b'unknown').decode()}, "
            f"threads {'unknown' if threads is None else threads}")


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
