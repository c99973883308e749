"""Atomic file replacement for every file guti writes.

A reader of the dataset, vocab, checkpoint or metrics file sees either
the file as it was or the whole new one, never a truncated mix: the bytes
go to a temporary file in the target's directory, and ``os.replace`` then
moves that file over the target in one rename.  A process that dies
mid-write leaves the old file.  There is no fsync, so a power cut may
still lose the last write.  An fsync waits on everything else that is
writing to the disk: on a shared 2-core machine it made a 4 MB checkpoint
write take up to 130 ms where 12 ms was typical.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``; on any failure the old file stays and
    the temporary file is removed."""
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")     # plain open: the file mode follows the umask
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, p)
    except BaseException:
        os.unlink(tmp)
        raise
