"""Character-level vocabulary with atomic identifier-marker tokens.

Id layout is fixed: one prefix tuple, the specials (PAD, BOS, EOS, UNK)
then the five identifier markers, heads every vocabulary that
``build_vocab`` or ``load_vocab`` builds, so those tokens' ids are
``Vocab`` constants, their places in it.  Characters follow, ordered by
descending corpus frequency with codepoint ties.  Tokenization splits the
text on ``forms.MARKER_RE``: each marker is one token and every other
character is a token of its own, so a marker is never split into its
constituent characters.
A Vocab is immutable after build; encode/decode are safe for any number
of concurrent readers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import VocabError, check_counts
from .fileio import read_text, write_atomic
from .forms import ALL_MARKERS, MARKER_RE

VOCAB_FORMAT_VERSION = 1

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
_SPECIALS = (PAD, BOS, EOS, UNK)
_PREFIX = _SPECIALS + ALL_MARKERS


@dataclass(frozen=True)
class Vocab:
    """Built by ``build_vocab`` or ``load_vocab`` through ``_assemble``: ``tokens``
    starts with ``_PREFIX``, so each fixed token's id is a constant, its place there."""
    tokens: tuple[str, ...]
    token_to_id: dict[str, int]
    min_count: int

    pad_id, bos_id, eos_id, unk_id = map(_PREFIX.index, _SPECIALS)
    marker_ids = tuple(map(_PREFIX.index, ALL_MARKERS))

    @property
    def size(self) -> int:
        return len(self.tokens)


def _assemble(char_tokens: Sequence[str], min_count: int) -> Vocab:
    tokens = _PREFIX + tuple(char_tokens)
    return Vocab(tokens, {tok: i for i, tok in enumerate(tokens)}, min_count)


def build_vocab(texts: Iterable, min_count: int = 1) -> Vocab:
    """Count characters over serialized samples (or plain strings).

    One pass cuts the markers out of all texts joined by a marker, which no
    match can cross: "(" opens every marker and occurs in none elsewhere.
    The code points are counted at once, so a marker's parentheses and
    inner characters only enter the vocabulary when they appear outside one.
    """
    check_counts(VocabError, 1, min_count=min_count)
    texts = [getattr(item, "text", item) for item in texts]
    if not texts:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    codes, counts = np.unique(np.frombuffer(MARKER_RE.sub(
        "", ALL_MARKERS[0].join(texts)).encode("utf-32-le", "surrogatepass"), dtype="<u4"),
        return_counts=True)
    keep = counts >= min_count
    order = np.argsort(-counts[keep], kind="stable")    # codes ascend: ties by code point
    return _assemble(list(map(chr, codes[keep][order].tolist())), min_count)


_split_markers = re.compile(f"({MARKER_RE.pattern})").split


def _scan(text: str) -> list[str]:
    """Tokenize: split on the markers, which stay whole (the odd chunks of
    the split), and take every other chunk one character at a time."""
    chunks = _split_markers(text)
    tokens = list(chunks[0])
    for i in range(1, len(chunks), 2):
        tokens.append(chunks[i])
        tokens.extend(chunks[i + 1])
    return tokens


def encode(text: str, vocab: Vocab) -> list[int]:
    return list(map(vocab.token_to_id.get, _scan(text), repeat(vocab.unk_id)))


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Concatenate tokens; specials other than markers render as empty."""
    parts = []
    for i in ids:
        if not 0 <= int(i) < vocab.size:
            raise VocabError(f"token id {i} out of range (vocab size {vocab.size})")
        if int(i) >= len(_SPECIALS):
            parts.append(vocab.tokens[int(i)])
    return "".join(parts)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    lines = [f"guti-vocab v{VOCAB_FORMAT_VERSION} min_count={vocab.min_count}"]
    lines.extend(vocab.tokens)
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_vocab(path: str | Path) -> Vocab:
    p = Path(path)
    header, *tokens = read_text(p, VocabError, "vocab").removesuffix("\n").split("\n")
    version, _, count = header.partition(" min_count=")
    if version != f"guti-vocab v{VOCAB_FORMAT_VERSION}":
        raise VocabError(f"{p}: missing or unsupported vocab header")
    try:
        min_count = int(count)
    except ValueError:
        min_count = 0
    # only the header line save_vocab writes, with a count build_vocab takes
    if count != str(min_count) or min_count < 1:
        raise VocabError(f"{p}: bad vocab header {header!r}")
    if tuple(tokens[: len(_PREFIX)]) != _PREFIX:
        raise VocabError(f"{p}: vocab does not start with the fixed special tokens")
    vocab = _assemble(tokens[len(_PREFIX):], min_count)
    if len(vocab.token_to_id) < vocab.size:     # a repeated token maps to its last id
        twice = next(tok for i, tok in enumerate(vocab.tokens) if vocab.token_to_id[tok] != i)
        raise VocabError(f"{p}: token {twice!r} listed twice")
    if bad := [tok for tok in tokens[len(_PREFIX):] if len(tok) != 1]:
        raise VocabError(f"{p}: token {bad[0]!r} is not one character")
    return vocab
