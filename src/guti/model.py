"""Decoder-only transformer language model in plain numpy.

Pre-norm residual blocks, learned positional embeddings, tanh-form GELU,
multi-head causal self-attention, and a weight-tied output projection by
default.  Both the forward pass and the analytic backward pass are written
out explicitly; gradients are exact up to floating point, which the test
suite pins against central finite differences.  The forward pass caches
for ``backward``, its only reader, just what the gradients read: per row
and layer, both norms' x-hat, q/k/v, the attention context, and the
GELU's activation and derivative (14 d-wide values at d_ff = 4d).  Each
activation is freed at its last reader, with no recomputation: the
forward pass drops each norm's output and the GELU's input once read,
and ``backward`` pops each cache entry at its last read and deletes each
gradient before its next large allocation.  Every weight gradient is one
matmul over the flat rows, ``_nll`` alone turns logits into the loss, and
``_softmax_nll`` turns what it leaves into dL/dlogits in place.

Rows: activations are flat (N, d) rows, one per (batch, position) cell
that runs, as one ``_Layout`` of a cached start and a run length per
sequence lays them out.  Attention is causal, so an output at position t
reads only positions 0..t of its sequence.  A caller that asks for the
logits at some positions only (``backward`` and held-out evaluation ask
for the rows that predict a masked token, a prompt pass for each prompt's
last) therefore runs, in each sequence, just the positions up to its last
requested one: pads and the EOS column drop out, exactly.  Every layer
runs on the kept rows.  A sequence's rows are contiguous, so attention
runs once per run of consecutive sequences of the same length, on a
(sequences, heads, L, ·) view of the run's rows and the top-left corner
of one additive causal mask: the block-diagonal attention of packed
sequences, without the packing.  Only the requested rows are projected
to logits.  When every sequence runs all S positions (public ``forward``
without ``rows``, and so every decoding step) the whole batch is one run
and the rows are a reshape of the (B, S) grid, not a gather.  Dropout
masks are drawn at the untrimmed (B, S, ·) shape and cut down, so a pass
draws the same random numbers whichever cells it keeps.  The
1/sqrt(head_dim) score scale is applied to the query rows, not to the
scores.

Parameters are plain numpy arrays in an ordered name->array mapping.  The
canonical storage dtype is float32 (matching the checkpoint format); the
compute dtype follows the parameter dtype, so float64 parameter sets give
float64 forwards for high-precision checks.  Each layer's query, key and
value projections are one (d, 3d) ``attn.wqkv`` (GPT-2's ``c_attn``), which
checkpoints store as its three (d, d) thirds.

Nothing here mutates ModelParams: any number of concurrent forward calls
may share one parameter set, and all randomness (dropout) comes from a
caller-supplied generator, never global state.  The one caller-owned
object ``forward`` mutates is its optional ``kv``, the ``KVCache`` of
incremental decoding: per-layer key/value buffers allocated once, into
which each call writes the slots of the positions it runs, after each
row's own, so the next call attends over them and continues from them.
Importing the module sets glibc's malloc, once for the whole process, to
keep freed memory for reuse (see ``_keep_freed_memory``).
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ModelError
from .fileio import write_atomic

CHECKPOINT_MAGIC = b"GUTICKPT"
CHECKPOINT_VERSION = 1

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5


def _keep_freed_memory() -> None:
    """Make glibc's malloc reuse freed arrays instead of returning them.

    By default glibc gives large freed blocks back to the kernel, so each
    training step faults its temporaries in again and the kernel zeroes
    every page: about 45 MB, a tenth of a CLI-default step's time, and a
    cost that swings with the machine's memory traffic.  Here arrays up to
    32 MB come from the heap, and the heap is trimmed only past 1 GB free.
    Where the C library has no ``mallopt`` (macOS, Windows), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD


_keep_freed_memory()


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    context_len: int = 256
    vocab_size: int = 0
    dropout_rate: float = 0.0
    tie_embeddings: bool = True

    def __post_init__(self):
        if min(self.n_layers, self.n_heads, self.d_model, self.d_ff,
               self.context_len, self.vocab_size) < 1:
            raise ModelError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ModelError("dropout_rate must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


# one layer's tensors in declaration order; attn.wqkv is the (d, 3d) query,
# key and value projection (GPT-2's ``c_attn``), columns in q, k, v order
_LAYER = ("ln1.g", "ln1.b", "attn.wqkv", "attn.bqkv", "attn.wo", "attn.bo",
          "ln2.g", "ln2.b", "ff.w1", "ff.b1", "ff.w2", "ff.b2")


def param_names(config: ModelConfig) -> list[str]:
    """Tensor declaration order; checkpoints store tensors in this order,
    with each layer's attn.wqkv and attn.bqkv cut into thirds (``_split_qkv``)."""
    names = ["tok_emb", "pos_emb"]
    names += [f"layer{i}.{n}" for i in range(config.n_layers) for n in _LAYER]
    names += ["ln_f.g", "ln_f.b"]
    if not config.tie_embeddings:
        names.append("out_proj")
    return names


def _param_shape(name: str, c: ModelConfig) -> tuple[int, ...]:
    d, f = c.d_model, c.d_ff
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.context_len, d),
              "out_proj": (d, c.vocab_size), "attn.wqkv": (d, 3 * d),
              "attn.bqkv": (3 * d,), "attn.wo": (d, d),
              "ff.w1": (d, f), "ff.b1": (f,), "ff.w2": (f, d)}
    return shapes.get(name.split(".", 1)[-1], (d,))     # norms, attn.bo, ff.b2


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["tok_emb"].dtype

    @cached_property
    def layers(self) -> list[tuple[np.ndarray, ...]]:
        """Each layer's tensors in ``_LAYER`` order, looked up once, not per
        decode step; replace tensors by building a new ModelParams."""
        return [tuple(self.tensors[f"layer{i}.{n}"] for n in _LAYER)
                for i in range(self.config.n_layers)]

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise ModelError(f"non-finite values in parameter {name!r}")


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: N(0, 0.02) weights, unit norms, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    d = config.d_model
    for name in param_names(config):
        shape = _param_shape(name, config)
        base = name.split(".")[-1]
        if base == "g":
            t = np.ones(shape, dtype=dtype)
        elif base[0] == "b":
            t = np.zeros(shape, dtype=dtype)
        elif base == "wqkv":    # wq, wk, wv drawn in turn, laid side by side
            draw = rng.standard_normal((3, d, d)).transpose(1, 0, 2).reshape(shape)
            t = (draw * 0.02).astype(dtype)
        else:
            t = (rng.standard_normal(shape) * 0.02).astype(dtype)
        tensors[name] = t
    return ModelParams(config, tensors)


@dataclass
class SequenceBatch:
    """Token ids plus the next-token loss mask.

    ``loss_mask[b, t] == 1`` means the token at position t is predicted
    (from the logits at position t-1); position 0 is never maskable.
    """

    tokens: np.ndarray            # (B, S) int
    loss_mask: np.ndarray         # (B, S) 0/1

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.loss_mask = np.asarray(self.loss_mask)
        if (self.tokens.shape != self.loss_mask.shape or self.tokens.ndim != 2
                or not self.tokens.size):
            raise ModelError("tokens and loss_mask must share a nonempty (B, S) shape")
        if np.any(self.loss_mask[:, 0] != 0):
            raise ModelError("position 0 cannot carry next-token loss")


def _layer_norm(x, g, b):
    """``ndarray.mean`` is a sum and a divide behind a Python-level wrapper
    whose overhead dominates at decode-step sizes; these are the same sum
    and divide, so the result is bitwise the same."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    var += _LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xc *= inv
    y = xc * g
    y += b
    return y, (xc, inv)


def _layer_norm_backward(dy, cache, g):
    """inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat)), in place on dxhat."""
    xhat, inv = cache
    d, t = dy.shape[-1], dy * xhat
    dg, db = np.add.reduce(t, axis=0), np.add.reduce(dy, axis=0)
    dxhat = dy * g
    proj = np.add.reduce(np.multiply(dxhat, xhat, out=t), axis=-1, keepdims=True) / d
    dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    dxhat -= np.multiply(xhat, proj, out=t)
    dxhat *= inv
    return dxhat, dg, db


def _gelu(u, derivative=False):
    """tanh-form GELU, 0.5 u (1 + t) with t = tanh(u (C + CA u*u)), and with
    ``derivative`` its derivative 0.5 (1 + t + u (1 - t*t) (C + 3AC u*u)),
    else None; ``u`` is not written.  The derivative is formed first and
    the activation last, in the tanh's buffer, so at most three new arrays
    of ``u``'s size are alive at once."""
    t = u * u
    t *= _GELU_C * _GELU_A
    t += _GELU_C
    t *= u
    np.tanh(t, out=t)
    g = None
    if derivative:
        g = u * u
        g *= 3.0 * _GELU_A * _GELU_C
        g += _GELU_C
        g *= u
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        g *= sech2
        g += t
        g += 1.0
        g *= 0.5
    t += 1.0
    t *= u
    t *= 0.5
    return t, g


def softmax_inplace(x):
    """Softmax over the last axis, written over ``x``; returns ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _dropout_mask(rng, shape, rate, dtype, take):
    """Inverted-dropout mask.

    The uniform draw is made at the untrimmed ``shape`` and cut down to
    the cells that run by ``take`` before it becomes a mask: the generator
    advances alike whichever cells run, and each kept cell gets the same
    mask value.
    """
    return (take(rng.random(shape)) >= rate).astype(dtype) / dtype.type(1.0 - rate)


def _apply_mask(x, mask):
    return x if mask is None else x * mask


def _residual(y, b, mask, x):
    """x + dropout(y + b), written over ``y``; the caller's rebinding of x
    to the result frees the block's input."""
    y += b
    return np.add(_apply_mask(y, mask), x, out=y)


class _Layout:
    """The (batch, position) cells a forward pass runs, as flat rows.

    Sequence b has ``start[b]`` positions cached and runs the next
    ``length[b]``: from 0 up to the last loss row in training and held-out
    evaluation, a whole prompt in a prompt pass, one in a decode step.  Its
    rows are contiguous.  ``width`` is the longest length, ``cells`` holds
    the flat index ``b * width + t`` of every kept cell of the (B, width)
    grid, in row-major order, and ``pos`` each row's position.  When every
    length is ``width``, ``cells`` is None and the rows are a reshape of
    the grid, not a gather.

    ``runs`` groups consecutive sequences of the same length L, as
    ``(batch slice, row slice, L)``; attention runs once per run, on a
    (run size, heads, L, ·) view of the run's rows.  Sequences of length
    0 form no run.
    """

    def __init__(self, start: np.ndarray, length: np.ndarray):
        batch, lengths = len(length), length.tolist()
        self.start, self.starts = start, start.tolist()
        self.hi = max(self.starts)
        self.width = width = max(lengths)
        self.cells = None
        self.runs = [(slice(0, batch), slice(0, batch * width), width)]
        if min(lengths) != width:
            self.cells = np.flatnonzero(np.arange(width) < length[:, None])
            cut = [0, *(np.flatnonzero(np.diff(length)) + 1).tolist(), batch]
            row0 = np.cumsum([0, *lengths]).tolist()
            self.runs = [(slice(b0, b1), slice(row0[b0], row0[b1]), lengths[b0])
                         for b0, b1 in zip(cut, cut[1:]) if lengths[b0]]
        self.pos = self.to_rows(np.add.outer(start, np.arange(width)))

    def attention(self, dtype, heads: int):
        """Per run of L: the keys it reads, [:hi + L] for the largest start
        hi, its cells' (batch, heads, position) index in a K/V cache, and its
        additive causal mask: the query at position p sees keys 0..p.  With
        one start, that is the corner of one mask, and a lone query row needs
        none; with several (a decode step on a ragged cache) each row masks
        the keys past its own positions: a masked key adds exp(-inf) = 0."""
        w, hi = self.width, self.hi
        if min(self.starts) == hi:
            causal = (np.triu(np.full((w, hi + w), -np.inf, dtype=dtype), k=hi + 1)
                      if w > 1 else None)
            return [(hi + n, (bs, slice(None), slice(hi, hi + n)),
                     causal[:n, :hi + n] if n > 1 else None) for bs, _, n in self.runs]
        pos = self.start[:, None, None] + np.arange(w)      # (B, 1, w)
        mask = np.where(np.arange(hi + w) > pos[..., None], -np.inf, 0.0).astype(dtype)
        at = (np.arange(len(pos))[:, None, None], np.arange(heads)[:, None], pos)
        return [(hi + n, (at[0][bs], at[1], at[2][bs, :, :n]), mask[bs, :, :n, :hi + n])
                for bs, _, n in self.runs]

    def to_rows(self, x):
        """(B, >= width, ...) grid -> (N, ...) rows of the kept cells."""
        flat = x[:, :self.width].reshape(-1, *x.shape[2:])
        return flat if self.cells is None else flat[self.cells]

    def position_sum(self, x):
        """(N, ...) rows -> (width, ...) sums over the sequences, added in
        batch order as a batch-axis sum of the zero-padded grid adds them."""
        total = np.zeros((self.width,) + x.shape[1:], dtype=x.dtype)
        for _, rs, n in self.runs:
            for r in range(rs.start, rs.stop, n):
                total[:n] += x[r:r + n]
        return total

    def index(self, out, seq: int):
        """Row numbers of the kept cells at ``out``, flat indices b * seq + t."""
        if seq != self.width:
            out = out // seq * self.width + out % seq
        return out if self.cells is None else np.searchsorted(self.cells, out)


def _heads(x, n_heads: int, length: int):
    """(n * length, d) rows of one run -> (n, n_heads, length, d // n_heads) view."""
    return x.reshape(-1, length, n_heads, x.shape[-1] // n_heads).transpose(0, 2, 1, 3)


class KVCache:
    """Per-layer keys and values of the positions decoded so far: ``k[i]``,
    ``v[i]`` are (batch, heads, size, head_dim) buffers allocated once
    (Pope et al., arXiv:2211.05102), row b filled at ``[:length[b]]`` (the
    per-sequence lengths of vLLM, arXiv:2309.06180, without paging); a
    row's later slots hold zeros or stale keys, which attention masks.  It
    serves one model config at one batch size; ``select`` changes the batch.
    """

    def __init__(self, params: ModelParams, batch: int, size: int):
        c = self.config = params.config
        self.length = np.zeros(batch, dtype=np.int64)
        shape = (batch, c.n_heads, size, c.head_dim)
        self.k = [np.zeros(shape, params.dtype) for _ in range(c.n_layers)]
        self.v = [np.zeros(shape, params.dtype) for _ in range(c.n_layers)]

    def select(self, rows: list[int]) -> None:
        """Keep batch rows ``rows`` in that order, repeats allowed."""
        self.length = self.length[rows]
        self.k, self.v = [buf[rows] for buf in self.k], [buf[rows] for buf in self.v]

    def extend(self, i: int, bs: slice, at, keys: int, kh, vh):
        """Write a run's (sequences, heads, L, head_dim) keys and values at
        ``at`` in layer i; return its rows' first ``keys`` positions."""
        self.k[i][at], self.v[i][at] = kh, vh
        return self.k[i][bs, :, :keys], self.v[i][bs, :, :keys]


def _check_inputs(params: ModelParams, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2 or not tokens.size:
        raise ModelError(f"tokens must be a nonempty (batch, seq) array, not {tokens.shape}")
    # the ufuncs' own reductions: ndarray.min and .max add a Python wrapper
    if (np.minimum.reduce(tokens, axis=None) < 0
            or np.maximum.reduce(tokens, axis=None) >= params.config.vocab_size):
        raise ModelError("token id out of vocabulary range")
    return tokens


def _forward_impl(params: ModelParams, tokens: np.ndarray, train_mode: bool,
                  rng, want_cache: bool, kv: KVCache | None = None, out=None):
    """The one forward pass: ``(logits, cache)``.

    ``out`` holds the flat indices ``b * S + t`` of the positions projected
    to logits, returned as (len(out), V); None projects all of them to
    (B, S, V).  Each sequence runs up to its last position in ``out``, or
    all S without it, after its ``kv`` cache row, which stores them.
    """
    c = params.config
    t = params.tensors
    dtype = params.dtype
    if train_mode and c.dropout_rate > 0.0 and rng is None:
        raise ModelError("train-mode forward with dropout needs an rng")
    b, s = tokens.shape
    if kv is not None:
        if kv.config != c:
            raise ModelError("K/V cache was built for another model config")
        if len(kv.k[0]) != b:
            raise ModelError(f"K/V cache of batch {len(kv.k[0])} fed a batch of {b}")
    length = np.full(b, s if out is None else 0)
    if out is not None:     # each sequence runs up to its last output
        np.maximum.at(length, out // s, out % s + 1)
    layout = _Layout(np.zeros(b, np.int64) if kv is None else kv.length, length)
    end = layout.hi + s
    if end > c.context_len:
        raise ModelError(f"sequence length {end} exceeds context {c.context_len}")
    if kv is not None and end > kv.k[0].shape[2]:
        raise ModelError(f"sequence length {end} exceeds the K/V cache's "
                         f"{kv.k[0].shape[2]} positions")
    rate = c.dropout_rate if train_mode else 0.0
    w, d, h, hi = layout.width, c.d_model, c.n_heads, layout.hi

    tok = layout.to_rows(tokens)     # each row's token id
    x = t["tok_emb"][tok] + t["pos_emb"][layout.pos]
    # one mask per dropout site, drawn up front in the order the sites run:
    # the embedding, then each layer's attention and its two residuals
    drops = [None] * (1 + 3 * c.n_layers)
    if rate > 0.0:
        row_site = ((b, s, d), layout.to_rows)
        att_site = ((b, h, s, hi + s), lambda m: m[:, :, :w, :hi + w])
        drops = [_dropout_mask(rng, shape, rate, dtype, take) for shape, take
                 in [row_site] + [att_site, row_site, row_site] * c.n_layers]
    x = _apply_mask(x, drops[0])

    attention = layout.attention(dtype, h)
    # a run attends over its own keys and values, or a cache's, which it joins
    extend = kv.extend if kv is not None else lambda i, bs, at, keys, kh, vh: (kh, vh)
    scale = 1.0 / math.sqrt(c.head_dim)
    caches = []
    for i, (ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o,
            ln2_g, ln2_b, w_1, b_1, w_2, b_2) in enumerate(params.layers):
        att_drop, res_drop1, res_drop2 = drops[1 + 3 * i:4 + 3 * i]
        h1, ln1_cache = _layer_norm(x, ln1_g, ln1_b)
        qkv = h1 @ w_qkv    # q, k, v: column views of the fused rows
        del h1
        qkv += b_qkv
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        q *= scale
        ctx = np.empty_like(x)
        runs = []
        for (bs, rs, n), (keys, at, mask) in zip(layout.runs, attention):
            kh, vh = extend(i, bs, at, keys, _heads(k[rs], h, n), _heads(v[rs], h, n))
            probs = _heads(q[rs], h, n) @ kh.transpose(0, 1, 3, 2)
            if mask is not None:
                probs += mask
            softmax_inplace(probs)
            drop = None if att_drop is None else att_drop[bs, :, :n, :keys]
            probs_d = _apply_mask(probs, drop)
            np.matmul(probs_d, vh, out=_heads(ctx[rs], h, n))
            runs.append((probs, drop, probs_d))
        x = _residual(ctx @ w_o, b_o, res_drop1, x)

        h2, ln2_cache = _layer_norm(x, ln2_g, ln2_b)
        u = h2 @ w_1
        del h2
        u += b_1
        a, gelu_d = _gelu(u, derivative=want_cache)
        del u
        x = _residual(a @ w_2, b_2, res_drop2, x)

        if want_cache:
            caches.append({
                "ln1": ln1_cache, "qkv": qkv, "runs": runs, "ctx": ctx,
                "res_drop1": res_drop1, "ln2": ln2_cache, "a": a,
                "gelu_d": gelu_d, "res_drop2": res_drop2,
            })
    if kv is not None:
        kv.length = layout.start + length

    out_idx = None
    if out is not None:
        out_idx = layout.index(out, s)
        x = x[out_idx]
    hf, lnf_cache = _layer_norm(x, t["ln_f.g"], t["ln_f.b"])
    w_out = t["tok_emb"].T if c.tie_embeddings else t["out_proj"]
    logits = hf @ w_out
    if out is None:
        logits = logits.reshape(b, s, -1)
    cache = None
    if want_cache:
        cache = {"layout": layout, "tok": tok, "out_idx": out_idx,
                 "emb_drop": drops[0], "layers": caches, "hf": hf,
                 "lnf": lnf_cache, "scale": scale}
    return logits, cache


def forward(params: ModelParams, tokens: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None,
            kv: KVCache | None = None, rows=None) -> np.ndarray:
    """Causal forward pass; returns logits of shape (batch, seq, vocab).

    Position i logits depend only on tokens at positions <= i.  Eval mode
    (the default) is deterministic; train mode applies dropout driven by
    the caller-supplied generator.

    ``rows`` = (b_idx, t_idx) returns only the logits at those positions,
    ``forward(...)[rows]``, of shape (len(b_idx), vocab); each sequence
    runs only up to its last requested position.

    ``kv`` is an optional ``KVCache(params, batch, size)``, empty at first.
    ``tokens`` then continue the sequences the cache holds: row b takes
    positions from ``kv.length[b]`` on, attends to its cached positions,
    and writes the keys and values of the positions it runs into the
    cache, whose ``length[b]`` grows by as many, so prompts of different
    lengths fill one cache in one padded call with ``rows`` at their ends.
    Feeding a sequence in any split of chunks gives the logits one full
    call would give.  A cache of another model config or batch size, or
    one too short to hold the positions, raises ModelError.
    """
    tokens = _check_inputs(params, tokens)
    out = None
    if rows is not None:
        try:
            out = np.ravel_multi_index(rows, tokens.shape)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"rows do not index the tokens: {exc}") from exc
        if not np.size(out):
            raise ModelError("rows select no position")
    logits, _ = _forward_impl(params, tokens, train_mode, rng, want_cache=False,
                              kv=kv, out=out)
    return logits


def loss_rows(batch: SequenceBatch) -> tuple[np.ndarray, np.ndarray]:
    """The positions whose logits predict a masked token: (b, t - 1) for
    every nonzero ``loss_mask[b, t]``, in ``np.nonzero`` order."""
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    if not b_idx.size:
        raise ModelError("loss mask selects no positions")
    return b_idx, t_idx - 1


def _nll(logits: np.ndarray, batch: SequenceBatch):
    """Masked mean next-token NLL, in the logits' dtype: the one loss formula.

    Overwrites ``logits``, the (n_loss, V) rows at ``loss_rows(batch)``, with
    exp(shifted), z = its row sums.  Log-probabilities are ``shifted - log(z)``,
    so a target far below its row max costs a large finite loss, not
    ``log(0)``.  Returns (loss, w = mask / n, z, the targets' index).
    """
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt = batch.tokens[b_idx, t_idx]
    m = batch.loss_mask[b_idx, t_idx].astype(logits.dtype)
    n = m.sum()
    targets = (np.arange(tgt.size), tgt)
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[targets]
    z = np.add.reduce(np.exp(logits, out=logits), axis=-1)
    return float(-((picked - np.log(z)) * m).sum() / n), m / n, z, targets


def _softmax_nll(logits: np.ndarray, batch: SequenceBatch):
    """``_nll``'s loss and dL/dlogits = (softmax - one-hot target) * w, which
    overwrites ``logits``: exp(shifted) is scaled by w / z in one pass."""
    loss, w, z, targets = _nll(logits, batch)
    logits *= (w / z)[:, None]
    logits[targets] -= w
    return loss, logits


def nll_loss(logits: np.ndarray, batch: SequenceBatch) -> float:
    """Mean negative log-likelihood over masked next-token positions.

    ``logits`` is the (B, S, V) output of ``forward``, or only its rows at
    ``loss_rows(batch)``, (n_loss, V).  Computed in float64 regardless of
    the logits dtype.  Minimizing this maximizes the summed log-probability
    of each sequence.
    """
    rows = loss_rows(batch)
    logits = np.asarray(logits)
    if logits.ndim == 3:
        logits = logits[rows]
    return _nll(logits.astype(np.float64), batch)[0]


def backward(params: ModelParams, batch: SequenceBatch, train_mode: bool = False,
             rng: np.random.Generator | None = None):
    """Loss plus exact analytic gradients for every parameter tensor.

    Recomputes the forward pass internally (with activation caching) on
    the cells that reach the loss, projects only the loss rows to logits,
    and returns ``(loss, grads)`` where grads mirrors params.tensors.  It
    rebuilds the norms' outputs from x-hat, drops the logits once the
    head's gradients exist, and pops each cache entry at its last read.
    """
    c = params.config
    t = params.tensors
    tokens = _check_inputs(params, batch.tokens)
    out = np.ravel_multi_index(loss_rows(batch), tokens.shape)
    logits, cache = _forward_impl(params, tokens, train_mode, rng,
                                  want_cache=True, out=out)
    loss, dlogits = _softmax_nll(logits, batch)

    grads = {}
    hf = cache.pop("hf")
    if c.tie_embeddings:
        grads["tok_emb"] = dlogits.T @ hf
        dhf = dlogits @ t["tok_emb"]
    else:
        grads["out_proj"] = hf.T @ dlogits
        grads["tok_emb"] = np.zeros_like(t["tok_emb"])
        dhf = dlogits @ t["out_proj"].T
    del logits, dlogits, hf     # dlogits is logits, overwritten

    dx_out, grads["ln_f.g"], grads["ln_f.b"] = _layer_norm_backward(
        dhf, cache.pop("lnf"), t["ln_f.g"])
    # every loss row is a distinct row, so plain assignment needs no
    # accumulation
    layout = cache["layout"]
    dx = np.zeros((cache["tok"].size, c.d_model), dtype=dx_out.dtype)
    dx[cache["out_idx"]] = dx_out
    del dhf, dx_out
    h, d = c.n_heads, c.d_model

    # each cache entry is popped at its last read, and each gradient is
    # deleted before the next large allocation
    for i in reversed(range(c.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"].pop()
        ln1_g, ln1_b, w_qkv, _, w_o, _, ln2_g, ln2_b, w_1, _, w_2, _ = params.layers[i]

        # feed-forward branch
        dff_out = _apply_mask(dx, lc.pop("res_drop2"))
        grads[p + "ff.b2"] = dff_out.sum(axis=0)
        grads[p + "ff.w2"] = lc.pop("a").T @ dff_out
        da = dff_out @ w_2.T
        del dff_out
        du = np.multiply(lc.pop("gelu_d"), da, out=da)
        grads[p + "ff.b1"] = du.sum(axis=0)
        grads[p + "ff.w1"] = (lc["ln2"][0] * ln2_g + ln2_b).T @ du
        dh2 = du @ w_1.T
        del da, du
        dx_attn, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layer_norm_backward(
            dh2, lc.pop("ln2"), ln2_g)
        dx_attn += dx   # residual
        del dh2, dx

        # attention branch; q holds the scaled queries, so the scores'
        # gradient times k is the scaled queries' gradient
        dattn_out = _apply_mask(dx_attn, lc.pop("res_drop1"))
        grads[p + "attn.bo"] = dattn_out.sum(axis=0)
        grads[p + "attn.wo"] = lc.pop("ctx").T @ dattn_out
        dctx = dattn_out @ w_o.T
        del dattn_out
        qkv = lc.pop("qkv")
        dqkv = np.empty_like(qkv)
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        dq, dk, dv = dqkv[:, :d], dqkv[:, d:2 * d], dqkv[:, 2 * d:]
        for (_, rs, n), (probs, drop, probs_d) in zip(layout.runs, lc.pop("runs")):
            dctx_h = _heads(dctx[rs], h, n)
            datt = dctx_h @ _heads(v[rs], h, n).transpose(0, 1, 3, 2)
            np.matmul(probs_d.transpose(0, 1, 3, 2), dctx_h, out=_heads(dv[rs], h, n))
            if drop is not None:
                datt *= drop
            datt -= (datt * probs).sum(axis=-1, keepdims=True)
            datt *= probs
            np.matmul(datt, _heads(k[rs], h, n), out=_heads(dq[rs], h, n))
            np.matmul(datt.transpose(0, 1, 3, 2), _heads(q[rs], h, n),
                      out=_heads(dk[rs], h, n))
            del datt
        dq *= cache["scale"]
        # views pin their base: q/k/v hold qkv, dctx_h holds dctx
        del qkv, q, k, v, dctx, dctx_h, probs, drop, probs_d
        grads[p + "attn.bqkv"] = dqkv.sum(axis=0)
        grads[p + "attn.wqkv"] = (lc["ln1"][0] * ln1_g + ln1_b).T @ dqkv
        dh1 = dqkv @ w_qkv.T
        del dqkv
        dx, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layer_norm_backward(
            dh1, lc.pop("ln1"), ln1_g)
        dx += dx_attn    # residual
        del dh1, dx_attn

    dx = _apply_mask(dx, cache["emb_drop"])
    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:layout.width] = layout.position_sum(dx)
    # scatter-add by token id; np.add.at loops index by index, so sort the
    # rows by id and sum each id's run in one reduceat instead
    tok = cache["tok"]
    order = np.argsort(tok, kind="stable")
    ids = tok[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    grads["tok_emb"][ids[starts]] += np.add.reduceat(dx[order], starts, axis=0)
    return loss, {name: grads[name] for name in t}


# ---------------------------------------------------------------------------
# Checkpoint format (version 1):
#   8 bytes   magic "GUTICKPT"
#   u32 LE    format version
#   u32 LE    config JSON byte length, then that many UTF-8 bytes
#   u32 LE    tensor count
#   per tensor, in ``_split_qkv`` order:
#     u16 LE name length + UTF-8 name
#     u8 ndim, then ndim * u32 LE dims
#     dims-product * f32 LE values (C order)
# ---------------------------------------------------------------------------


def _split_qkv(config: ModelConfig, tensors: dict) -> dict:
    """``ModelParams.tensors`` -> the tensors a checkpoint stores, in its
    order: each layer's attn.wqkv, attn.bqkv pair becomes the column
    thirds attn.wq, attn.bq, attn.wk, attn.bk, attn.wv, attn.bv."""
    out = {}
    for name in param_names(config):
        if name.endswith("attn.wqkv"):
            p = name[:-4]
            thirds = (np.split(tensors[p + y + "qkv"], 3, axis=-1) for y in "wb")
            for x, w, b in zip("qkv", *thirds):
                out[p + "w" + x], out[p + "b" + x] = w, b
        elif not name.endswith("attn.bqkv"):
            out[name] = tensors[name]
    return out


def _fuse_qkv(config: ModelConfig, tensors: dict) -> dict:
    """The inverse of ``_split_qkv``."""
    return {name: np.concatenate([tensors[name[:-3] + x] for x in "qkv"], axis=-1)
            if name.endswith("qkv") else tensors[name] for name in param_names(config)}


def save_checkpoint(params: ModelParams, path: str | Path, *copies: str | Path) -> None:
    """Write the versioned checkpoint (f32 LE tensors) to ``path`` and ``copies``."""
    cfg_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    tensors = _split_qkv(params.config, params.tensors)
    chunks = [CHECKPOINT_MAGIC,
              struct.pack("<I", CHECKPOINT_VERSION),
              struct.pack("<I", len(cfg_json)), cfg_json,
              struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    data = b"".join(chunks)
    for p in (path, *copies):
        write_atomic(p, data)


def load_checkpoint(path: str | Path) -> ModelParams:
    p = Path(path)
    try:
        buf = p.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {p}: {exc}") from exc
    view = memoryview(buf)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{p}: truncated checkpoint")
        out = view[pos:pos + n]
        pos += n
        return out

    if bytes(take(len(CHECKPOINT_MAGIC))) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{p}: bad magic bytes")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{p}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = ModelConfig(**json.loads(bytes(take(cfg_len)).decode("utf-8")))
    except (ValueError, TypeError, ModelError) as exc:
        raise CheckpointError(f"{p}: bad config block: {exc}") from exc
    (n_tensors,) = struct.unpack("<I", take(4))
    # the stored names and shapes: a parameter set of zero-byte stand-ins, split
    expected = {name: t.shape for name, t in _split_qkv(config, {
        n: np.broadcast_to(np.float32(0), _param_shape(n, config))
        for n in param_names(config)}).items()}
    if n_tensors != len(expected):
        raise CheckpointError(f"{p}: expected {len(expected)} tensors, found {n_tensors}")
    tensors: dict[str, np.ndarray] = {}
    for want in expected:
        (name_len,) = struct.unpack("<H", take(2))
        # bytes that are not UTF-8 become U+FFFD, which no tensor name holds
        name = bytes(take(name_len)).decode("utf-8", "replace")
        if name != want:
            raise CheckpointError(f"{p}: tensor {name!r} out of order (wanted {want!r})")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if shape != expected[name]:
            raise CheckpointError(f"{p}: tensor {name!r} has shape {shape}, "
                                  f"expected {expected[name]}")
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        # np.array forces an aligned, writable, native-endian copy; a view
        # into the file buffer can sit at any byte offset, and unaligned
        # operands may take different BLAS paths than the saved tensors did
        tensors[name] = np.array(data, dtype=np.float32)
    if pos != len(view):
        raise CheckpointError(f"{p}: trailing bytes after last tensor")
    params = ModelParams(config, _fuse_qkv(config, tensors))
    params.check_finite()
    return params
