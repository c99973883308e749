"""guti: a desk-scale classical Chinese poetry generation laboratory.

Corpus serialization into field-marker text sequences, character-level
vocabulary, a from-scratch decoder-only transformer with exact gradients,
an Adam fine-tuning loop with retrieval-based novelty tracking, truncated
top-k decoding, and a mechanized form-conformance validator.

guti runs on one core: importing it defaults ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1, so numpy's BLAS does not spawn one thread per
core and contend with other processes. A value already set in the
environment wins. BLAS reads these once, when numpy loads, so the default
has no effect if numpy was imported before guti.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import GutiError  # noqa: E402  (after the BLAS thread default)

__version__ = "0.1.0"

__all__ = ["GutiError", "__version__"]
