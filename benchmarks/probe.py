"""Machine-speed probes: fixed work that runs no guti code.

The sandbox shares its CPU with other tenants.  Measured on a 2-core Xeon
sandbox, the same corpus ingest took 50 ms in one 30-second run and 115 ms
in the next, and the slowdown differs by kind of work (2.2x for the
ingest, 1.5x for a mixed Python and numpy loop in the same runs).  So each timed operation is
preceded by the probe that matches its kind, and the operation's time is
scaled by ``reference / probe time``: every run is put on the scale of an
uncontended core.  Scaling cut the run-to-run variation of ingest time
from 27% to 3.4% (coefficient of variation of 10-operation medians over
one minute of interleaved probes and ingests).

A probe cannot move when guti changes, so a change to guti moves the
scaled numbers exactly as much as the raw ones.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# records shaped like a corpus file: JSON objects with CJK strings
_RECORDS = [json.dumps({"form": "五绝", "theme": chr(0x4E00 + i) * 3,
                        "body": "".join(chr(0x4E00 + (i * 37 + j) % 2000) for j in range(24)),
                        "source_id": f"probe-{i}"}, ensure_ascii=False)
            for i in range(60)]


@functools.cache
def _arrays():
    # numpy is imported on first use, so that the set-up probe runs before
    # the imports that set-up time includes
    import numpy as np
    rng = np.random.default_rng(0)
    # model-sized operands: a 1 MB activation does not fit in L2, so the
    # probe feels memory contention the way the model's passes do
    return (np, rng.random((128, 512)).astype(np.float32),
            rng.random((512, 128)).astype(np.float32),
            rng.random((4, 128, 512)).astype(np.float32))


def objects() -> float:
    """Seconds for parsing and regrouping records: dicts, strings, lists."""
    t0 = time.perf_counter()
    for _ in range(2):
        out = [{k: v[::-1] for k, v in json.loads(r).items()} for r in _RECORDS]
        counts: dict[str, int] = {}
        for text in sorted("".join(rec.values()) for rec in out):
            for ch in text[:40]:
                counts[ch] = counts.get(ch, 0) + 1
    return time.perf_counter() - t0


def numeric() -> float:
    """Seconds for a float32 matmul, elementwise math and a Python loop."""
    np, a, b, u = _arrays()
    t0 = time.perf_counter()
    b @ a
    np.tanh(u * u * u)
    s = 0
    for j in range(3000):
        s += j
    return time.perf_counter() - t0


# Probe times on an uncontended core of a 2-core Xeon sandbox (5th
# percentile over a minute); only their ratio to the live probe matters.
REFERENCE_S = {objects: 0.00071, numeric: 0.00093}


def speed_factor(probe) -> float:
    """How much slower than the reference core the machine runs right now.

    The median of three probes: one probe alone jitters by about 15%.
    """
    return statistics.median(probe() for _ in range(3)) / REFERENCE_S[probe]
