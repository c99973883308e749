"""How guti reads its input files and writes its output files.

Every input path becomes text through ``read_text``: UTF-8 with an
optional byte-order mark, and a failed read raised as the caller's error.

Every output file is replaced atomically: a reader of the dataset, vocab,
checkpoint or metrics file sees either the file as it was or the whole
new one, never a truncated mix.  The bytes go to a temporary file in the
target's directory, and ``os.replace`` then moves that file over the
target in one rename.  A process that dies mid-write leaves the old file.
A file written to several paths at once (a checkpoint and its
``last.ckpt``) is written once: each further path becomes a hard link of
the new file, replaced in the same way, or a second write where the
filesystem refuses the link.  The paths then share one inode; guti
replaces files and never edits one in place, so a later write to one
path leaves the others as they were.
There is no fsync, so a power cut may still lose the last write.  An
fsync waits on everything else that is writing to the disk: on a shared
2-core machine it made a 4 MB checkpoint write take up to 130 ms where
12 ms was typical.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The text of an input file; an ``OSError`` or ``UnicodeDecodeError``
    becomes ``error("cannot read <what> <path>: ...")``."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {p}: {exc}") from exc


def write_atomic(path: str | Path, *chunks, copies=()) -> None:
    """Replace ``path`` with the bytes of ``chunks`` (bytes-like objects,
    written in turn) and each of ``copies`` with a hard link of it.  Every
    temporary file exists before the first rename; on any failure each
    target is its whole old or new file, the old one from the failed rename
    on, and no temporary file is left."""
    paths = [Path(p) for p in (path, *copies)]
    tmps = [p.with_name(f".{p.name}.{secrets.token_hex(8)}.tmp") for p in paths]
    made = []
    try:
        for tmp in tmps:
            if made:
                try:
                    os.link(made[0], tmp)
                    made.append(tmp)
                    continue
                except OSError:     # another device, or no hard links: write it
                    pass
            fh = open(tmp, "xb")     # plain open: the file mode follows the umask
            made.append(tmp)
            with fh:
                fh.writelines(chunks)
        for tmp, p in zip(tmps, paths):
            os.replace(tmp, p)
            made.remove(tmp)
    except BaseException:
        for tmp in made:
            os.unlink(tmp)
        raise
