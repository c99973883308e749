"""guti: a desk-scale classical Chinese poetry generation laboratory.

Corpus serialization into field-marker text sequences, character-level
vocabulary, a from-scratch decoder-only transformer with exact gradients,
an Adam fine-tuning loop with retrieval-based novelty tracking, truncated
top-k decoding, and a mechanized form-conformance validator.

guti runs on one core: importing it defaults ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1, so numpy's BLAS does not spawn one thread per
core and contend with other processes. A value already set in the
environment wins. BLAS reads these once, when numpy loads, so the default
has no effect if numpy was imported before guti.  ``float_build`` names
the build a float result depends on: numpy's version, the OpenBLAS core
kernel picked for the CPU at load time, and the BLAS thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import GutiError  # noqa: E402  (after the BLAS thread default)

__version__ = "0.1.0"

__all__ = ["GutiError", "__version__", "float_build"]


def float_build() -> str:
    """numpy's version, the OpenBLAS core name and the BLAS thread count,
    read through ctypes from the library numpy bundles ("unknown" where none
    exports the call)."""
    import ctypes
    from pathlib import Path

    import numpy as np

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
