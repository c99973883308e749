"""Character-level vocabulary with atomic identifier-marker tokens.

Id layout is fixed: specials first (PAD, BOS, EOS, UNK), then the five
identifier markers, then characters ordered by descending corpus frequency
with codepoint ties.  Tokenization splits the text on ``forms.MARKER_RE``:
each marker is one token and every other character is a token of its own,
so a marker is never split into its constituent characters.
A Vocab is immutable after build; encode/decode are safe for any number
of concurrent readers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import VocabError
from .fileio import write_atomic
from .forms import ALL_MARKERS, MARKER_RE

VOCAB_FORMAT_VERSION = 1

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
_SPECIALS = (PAD, BOS, EOS, UNK)


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    token_to_id: dict[str, int]
    min_count: int

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def marker_ids(self) -> tuple[int, ...]:
        return tuple(self.token_to_id[m] for m in ALL_MARKERS)


def _assemble(char_tokens: Sequence[str], min_count: int) -> Vocab:
    tokens = tuple(_SPECIALS) + tuple(ALL_MARKERS) + tuple(char_tokens)
    mapping = {tok: i for i, tok in enumerate(tokens)}
    if len(mapping) != len(tokens):
        raise VocabError("duplicate tokens in vocabulary")
    return Vocab(tokens=tokens, token_to_id=mapping, min_count=min_count)


def build_vocab(texts: Iterable, min_count: int = 1) -> Vocab:
    """Count characters over serialized samples (or plain strings).

    Marker occurrences are cut out before counting, so their parentheses
    and inner characters only enter the character vocabulary when they
    also appear outside a marker.
    """
    if min_count < 1:
        raise VocabError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    n_texts = 0
    for item in texts:
        n_texts += 1
        counts.update(MARKER_RE.sub("", getattr(item, "text", item)))
    if n_texts == 0:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    chars = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return _assemble(chars, min_count)


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
        tok = vocab.tokens[int(i)]
        if tok in _SPECIALS:
            continue
        parts.append(tok)
    return "".join(parts)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    lines = [f"guti-vocab v{VOCAB_FORMAT_VERSION} min_count={vocab.min_count}"]
    lines.extend(vocab.tokens)
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_vocab(path: str | Path) -> Vocab:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise VocabError(f"cannot read vocab {p}: {exc}") from exc
    lines = raw.removesuffix("\n").split("\n")
    if not lines or not lines[0].startswith(f"guti-vocab v{VOCAB_FORMAT_VERSION}"):
        raise VocabError(f"{p}: missing or unsupported vocab header")
    try:
        min_count = int(lines[0].rsplit("min_count=", 1)[1])
    except (IndexError, ValueError):
        raise VocabError(f"{p}: bad vocab header {lines[0]!r}")
    tokens = lines[1:]
    expected = list(_SPECIALS) + list(ALL_MARKERS)
    if tokens[: len(expected)] != expected:
        raise VocabError(f"{p}: vocab does not start with the fixed special tokens")
    return _assemble(tuple(tokens[len(expected):]), min_count)
