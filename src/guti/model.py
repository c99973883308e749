"""Decoder-only transformer language model in plain numpy.

Pre-norm residual blocks, learned positional embeddings, tanh-form GELU,
multi-head causal self-attention, and an output projection that is always
the token embedding, transposed (Press & Wolf, arXiv:1608.05859).  Both the
forward pass and the analytic backward pass are written out explicitly;
gradients are exact up to floating point, which the test suite pins against
central finite differences.  The forward pass caches for ``backward``, its
only reader, just what the gradients read (14 d-wide values per row and
layer at d_ff = 4d), and each activation is freed at its last reader.
Only a layer's two norm outputs are recomputed: ``backward`` rebuilds each
from its cached x-hat (``x_hat * g + b``) for the ``attn.wqkv`` and
``ff.w1`` gradients.  Every weight gradient is one matmul over the flat
rows, ``_nll`` alone turns logits into the loss, and ``_softmax_nll``
turns what it leaves into dL/dlogits in place.  The feed-forward bias,
GELU and its derivative run as one sequence of passes per block of rows
sized to stay in L2 (``_gelu``), with the bits of whole-array passes.

Rows: activations are flat (N, d) rows, one per (batch, position) cell
that runs, as ``_layout`` of a cached start and a run length per sequence
lays them out.  Attention is causal, so a caller that asks for the logits
at some positions only (``backward`` and held-out evaluation ask for the
rows that predict a masked token, a prompt pass for each prompt's last)
runs, in each sequence, just the positions up to its last requested one:
pads and the EOS column drop out, exactly.  A sequence's rows are
contiguous, so attention runs once per run of consecutive sequences of the
same length, on a (sequences, heads, L, ·) view of the run's rows and the
corner of one additive causal mask: the block-diagonal attention of packed
sequences, without the packing.  Only the requested rows are projected to
logits.  When every sequence runs all S positions from one start
(``forward`` without ``rows``, and each decode step of one prompt's
candidates) the layout is Python ints and slices and the rows are a
reshape of the (B, S) grid.  A decode step pays for little but its
arithmetic: ``forward`` checks ids, cache and lengths, so a step the decode
loop sizes itself skips them; an attention run writes its new key and value
rows, the projection's k|v columns as they are, into the ``KVCache`` with
one index and reads its sequences' rows back with one slice; and the step's
numpy calls run on 0-d constants and (1, n) parameter rows, which a one-row
ufunc takes without a conversion or a broadcast.  Each dropout mask is
drawn where it is applied, shaped like the array it masks, so a pass draws
one uniform per cell it runs, site by site: the embedding, then per layer
each attention run's probabilities and the two residual branches.  The
1/sqrt(head_dim) score scale is applied to the query rows, once per layer,
not to the scores.

Parameters are plain numpy arrays in an ordered name->array mapping.  The
canonical storage dtype is float32 (matching the checkpoint format); the
compute dtype follows the parameter dtype, so float64 parameter sets give
float64 forwards for high-precision checks.  Each layer's query, key and
value projections are one (d, 3d) ``attn.wqkv`` (GPT-2's ``c_attn``), which
checkpoints store as its three (d, d) thirds.  ``save_checkpoint`` writes
a file's bytes once, tensor by tensor, and each further path it is given
becomes a hard link of that file where the filesystem allows.

Nothing here mutates ModelParams: any number of concurrent forward calls
may share one parameter set.  A pass given a generator applies dropout
with masks drawn from it, never from global state; a pass without one is
deterministic.  The one caller-owned object ``forward`` mutates is its
optional ``kv``, the ``KVCache`` of incremental decoding.  Importing the
module sets glibc's malloc, once for the whole process, to keep freed
memory for reuse (``_keep_freed_memory``).
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ModelError, check_counts
from .fileio import write_atomic

CHECKPOINT_MAGIC = b"GUTICKPT"
CHECKPOINT_VERSION = 1

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5
_GELU_BLOCK = 256 << 10     # bytes of rows ``_gelu`` takes through all its passes at once


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

    def __post_init__(self):
        check_counts(ModelError, 1, n_layers=self.n_layers, n_heads=self.n_heads,
                     d_model=self.d_model, d_ff=self.d_ff, context_len=self.context_len,
                     vocab_size=self.vocab_size)
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
    with each layer's attn.wqkv and attn.bqkv cut into thirds (``_stored``)."""
    names = ["tok_emb", "pos_emb"]
    names += [f"layer{i}.{n}" for i in range(config.n_layers) for n in _LAYER]
    names += ["ln_f.g", "ln_f.b"]
    return names


def _stored(config: ModelConfig) -> dict[str, tuple[str, slice, tuple[int, ...]]]:
    """The tensors a checkpoint stores, in file order: name -> (the
    ``param_names`` tensor it is cut from, the columns cut, its shape).
    Each layer's attn.wqkv, attn.bqkv pair is stored as its q, k, v column
    thirds attn.wq, attn.bq, attn.wk, attn.bk, attn.wv, attn.bv; every other
    tensor is stored whole."""
    d, f = config.d_model, config.d_ff
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.context_len, d),
              "attn.wo": (d, d), "ff.w1": (d, f), "ff.b1": (f,), "ff.w2": (f, d)}
    out = {}
    for name in param_names(config):
        base = name.split(".", 1)[-1]
        if base == "attn.wqkv":
            p = name[:-4]
            for j, x in enumerate("qkv"):
                cols = slice(j * d, (j + 1) * d)
                out[p + "w" + x] = (p + "wqkv", cols, (d, d))
                out[p + "b" + x] = (p + "bqkv", cols, (d,))
        elif base != "attn.bqkv":
            out[name] = (name, slice(None), shapes.get(base, (d,)))  # norms, attn.bo, ff.b2
    return out


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
        decode step, with vectors as (1, n) rows, which a one-row step adds
        at half the cost of a broadcast; replace tensors by building a new
        ModelParams."""
        return [tuple(t.reshape(1, -1) if t.ndim == 1 else t
                      for t in (self.tensors[f"layer{i}.{n}"] for n in _LAYER))
                for i in range(self.config.n_layers)]

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise ModelError(f"non-finite values in parameter {name!r}")


def _from_stored(config: ModelConfig, arrays, dtype) -> ModelParams:
    """The ModelParams whose stored tensors are ``arrays``, in ``_stored``
    order: each tensor's parts are joined side by side into a new aligned,
    writable, native-endian array of ``dtype``, and dropped once joined."""
    parts: dict[str, list[np.ndarray]] = {}
    for (name, _, _), arr in zip(_stored(config).values(), arrays):
        parts.setdefault(name, []).append(arr)
    return ModelParams(config, {name: np.concatenate(parts.pop(name), axis=-1, dtype=dtype)
                                for name in param_names(config)})


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: N(0, 0.02) weights, unit norms, zero
    biases, the stored tensors drawn in ``_stored`` order, each cast to
    ``dtype`` as it is drawn."""
    check_counts(ModelError, 0, seed=seed)     # numpy takes no negative seed
    rng = np.random.default_rng(seed)

    def draw(name, shape):
        base = name.split(".")[-1]
        if base == "g":
            return np.ones(shape, dtype=dtype)
        if base[0] == "b":
            return np.zeros(shape, dtype=dtype)
        return (rng.standard_normal(shape) * 0.02).astype(dtype)
    return _from_stored(config, (draw(name, shape) for name, (_, _, shape)
                                 in _stored(config).items()), dtype)


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


@functools.cache
def _as_dtype(dtype: np.dtype, *values) -> tuple[np.ndarray, ...]:
    """``values`` as read-only 0-d arrays of ``dtype``: a ufunc converts a number anew."""
    return tuple(np.broadcast_to(np.array(v, dtype), ()) for v in values)


def _layer_norm(x, g, b):
    """``ndarray.mean``'s sum and divide without its Python-level wrapper, so
    bitwise the same; the (rows, 1) statistics are not written in place, which
    at one row costs a ufunc about twice what a new array costs."""
    d, eps, one = _as_dtype(x.dtype, x.shape[-1], _LN_EPS, 1.0)
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = one / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
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


def _gelu(u, b=None, derivative=False):
    """tanh-form GELU of ``u + b``, 0.5 u (1 + t) with t = tanh(u (C + CA u*u)),
    and with ``derivative`` its derivative 0.5 (1 + t + u (1 - t*t) (C + 3AC
    u*u)), else None.  Without ``b``, ``u`` is not written; with it, ``u``
    is used up: ``u + b`` and then the activation are written over it, so
    the activation's writes land on rows the block has just read.

    An input past ``_GELU_BLOCK`` bytes runs in blocks of that many bytes
    of rows, each block taking every pass before the next starts, so its
    arrays stay in a 2 MB L2 cache where whole (N, d_ff) arrays would
    stream through it 18 times.  Each element meets the same ufuncs in the
    same order, so the bits do not depend on the blocking, and a decode
    step's one row makes the calls an unblocked GELU makes.  The derivative
    is formed first and the activation last, so a block's tanh and
    1 - t*t are the only arrays alive besides ``u`` and the results."""
    if u.nbytes <= _GELU_BLOCK:
        return _gelu_block(u, b, derivative, None if b is None else u, None)
    a = np.empty_like(u) if b is None else u
    g = np.empty_like(u) if derivative else None
    step = max(1, _GELU_BLOCK * len(u) // u.nbytes)
    for lo in range(0, len(u), step):
        rows = slice(lo, lo + step)
        _gelu_block(u[rows], b, derivative, a[rows], None if g is None else g[rows])
    return a, g


def _gelu_block(u, b, derivative, a, g):
    """``_gelu`` of one block, written into ``a`` and ``g`` or, where they
    are None, into new arrays."""
    ca, ca3, c, one, half = _as_dtype(u.dtype, _GELU_C * _GELU_A, 3.0 * _GELU_A * _GELU_C,
                                      _GELU_C, 1.0, 0.5)
    if b is not None:
        u += b
    t = u * u
    t *= ca
    t += c
    t *= u
    np.tanh(t, out=t)
    if derivative:
        g = np.multiply(u, u, out=g)
        g *= ca3
        g += c
        g *= u
        sech2 = t * t
        np.subtract(one, sech2, out=sech2)
        g *= sech2
        g += t
        g += one
        g *= half
    t += one
    t *= u
    return np.multiply(t, half, out=a), g


def softmax_inplace(x):
    """Softmax over the last axis, written over ``x``; returns ``x``."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _dropout(rng, rate, x):
    """Inverted dropout of ``x``: ``(x * mask, mask)`` for a mask of its shape
    and dtype with one uniform drawn per cell, or ``(x, None)`` at rate 0,
    which draws nothing."""
    if not rate:
        return x, None
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * mask, mask


def _apply_mask(x, mask):
    return x if mask is None else x * mask


@functools.cache
def _causal(dtype: np.dtype, size: int) -> np.ndarray:
    """Read-only (size, size) additive causal mask of ``dtype``: row p adds
    -inf to the keys past p.  Its rows are windows of one (2 size - 1)
    array, so it costs O(size) memory."""
    ramp = np.full(2 * size - 1, -np.inf, dtype)
    ramp[:size] = 0
    return np.lib.stride_tricks.sliding_window_view(ramp, size)[::-1]


def _layout(starts: list[int], lengths: list[int], dtype, size: int):
    """The (batch, position) cells a forward pass runs, as rows, and the
    attention runs over them: ``(width, pos, cells, runs)``.

    Sequence b has ``starts[b]`` positions cached and runs the next
    ``lengths[b]``: from 0 up to the last loss row in training and held-out
    evaluation, a whole prompt in a prompt pass, one in a decode step.  Its
    rows are contiguous.  ``width`` is the longest length; ``cells`` lists
    the kept cells (b, t) of the (B, width) grid as ascending b * width + t,
    a cell's row being its place there, or is None when every length is
    ``width`` and the rows are a reshape of the grid; ``pos`` indexes the
    grid's positions, as the slice ``hi:hi + width`` when all starts are hi.

    ``runs`` groups consecutive sequences of the same length L as ``(batch
    slice, row slice, L, write, hi + L, mask)``; attention runs once per
    run, on a (run size, heads, L, ·) view of its rows.  ``write`` indexes
    the run's new rows in a layer's ``KVCache`` buffer, which the run reads
    at ``[batch slice, :hi + L]`` for the largest start hi, and ``mask`` is
    the run's additive causal mask, in which the query at position p sees
    keys 0..p: rows of ``_causal`` for positions below ``size``.  With one
    start ``write`` is two slices and the mask the corner of one copy, and a
    lone query row needs none; with several (a decode step on a ragged
    cache) ``write`` is the run's sequence ids and positions, and each row
    gathers its positions' mask rows.  Sequences of length 0 form no run.
    """
    batch, hi, width = len(lengths), max(starts), max(lengths)
    cells, runs = None, [(slice(0, batch), slice(0, batch * width), width)]
    if min(lengths) != width:
        cells = np.flatnonzero(np.arange(width) < np.array(lengths)[:, None])
        cut = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), batch]
        row0 = np.cumsum([0, *lengths]).tolist()
        runs = [(slice(b0, b1), slice(row0[b0], row0[b1]), lengths[b0])
                for b0, b1 in zip(cut, cut[1:]) if lengths[b0]]
    if min(starts) == hi:
        pos = slice(hi, hi + width)
        # a copy: adding a view whose rows overlap takes twice as long
        causal = _causal(dtype, size)[pos, :hi + width].copy() if width > 1 else None
        return width, pos, cells, [
            (bs, rs, n, (bs, slice(hi, hi + n)), hi + n,
             causal[:n, :hi + n] if n > 1 else None) for bs, rs, n in runs]
    pos = np.add.outer(starts, np.arange(width))
    mask = _causal(dtype, size)[pos[:, None]]                   # (B, 1, width, size)
    ids = np.arange(batch)[:, None]
    return width, pos, cells, [
        (bs, rs, n, (ids[bs], pos[bs, :n]), hi + n, mask[bs, :, :n, :hi + n])
        for bs, rs, n in runs]


class KVCache:
    """Keys and values of the positions decoded so far: ``buffers[i]`` holds
    layer i's (batch, size, 2 d_model) rows, allocated once (Pope et al.,
    arXiv:2211.05102), each row a position's key and value columns as the
    fused projection writes them, so one index writes a pass's new rows and
    one slice reads a sequence's.  Row b is filled at ``[:lengths[b]]`` (the
    per-sequence lengths of vLLM, arXiv:2309.06180, without paging), and its
    later slots hold zeros or stale keys, which attention masks.  It serves
    one model config at one batch size; ``select`` changes the batch."""

    def __init__(self, params: ModelParams, batch: int, size: int):
        c = self.config = params.config
        self.size = size
        self.lengths = [0] * batch
        self.buffers = [np.zeros((batch, size, 2 * c.d_model), params.dtype)
                        for _ in range(c.n_layers)]

    def select(self, rows: list[int]) -> None:
        """Keep batch rows ``rows`` in that order, repeats allowed."""
        self.lengths = [self.lengths[r] for r in rows]
        self.buffers = [buf[rows] for buf in self.buffers]


def _check_inputs(params: ModelParams, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2 or not tokens.size:
        raise ModelError(f"tokens must be a nonempty (batch, seq) array, not {tokens.shape}")
    # the ufuncs' own reductions: ndarray.min and .max add a Python wrapper
    if (np.minimum.reduce(tokens, axis=None) < 0
            or np.maximum.reduce(tokens, axis=None) >= params.config.vocab_size):
        raise ModelError("token id out of vocabulary range")
    if tokens.shape[1] > params.config.context_len:
        raise ModelError(f"sequence length {tokens.shape[1]} exceeds context "
                         f"{params.config.context_len}")
    return tokens


def _forward_impl(params: ModelParams, tokens: np.ndarray, rng, want_cache: bool,
                  kv: KVCache | None = None, rows=None):
    """The one forward pass, on inputs ``forward`` checks: ``(logits, cache)``.

    ``rows``, a (b_idx, t_idx) pair of equal-shape integer arrays, names the
    positions projected to logits, (*b_idx.shape, V); None projects all to
    (B, S, V).  Each sequence runs up to its last position in ``rows``, or
    all S without it, after its ``kv`` cache row, which stores them.
    Dropout runs exactly when ``rng`` is a generator.
    """
    c, t = params.config, params.tensors
    b, s = tokens.shape
    length = [s] * b
    if rows is not None:    # each sequence runs up to its last requested position
        b_idx, t_idx = rows
        reach = np.zeros(b, np.int64)
        np.maximum.at(reach, b_idx, t_idx + 1)
        length = reach.tolist()
    d, h, hd = c.d_model, c.n_heads, c.head_dim
    w, pos, cells, runs = _layout([0] * b if kv is None else kv.lengths, length,
                                  params.dtype, c.context_len)
    rate = c.dropout_rate if rng is not None else 0.0
    tokens = tokens[:, :w] if w < s else tokens

    x = (t["tok_emb"][tokens] + t["pos_emb"][pos]).reshape(-1, d)
    if cells is not None:
        x = x[cells]
    x, emb_drop = _dropout(rng, rate, x)

    (scale,) = _as_dtype(x.dtype, 1.0 / math.sqrt(hd))
    caches = []
    for i, (ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o,
            ln2_g, ln2_b, w_1, b_1, w_2, b_2) in enumerate(params.layers):
        h1, ln1_cache = _layer_norm(x, ln1_g, ln1_b)
        qkv = h1 @ w_qkv    # q, k, v: column thirds of the fused rows
        del h1
        qkv += b_qkv
        qkv[:, :d] *= scale
        ctx, att = np.empty_like(x), []
        for bs, rs, n, write, end, mask in runs:
            kv_h = qkv[rs, d:].reshape(-1, n, 2 * d)   # the run's k|v columns
            if kv is not None:  # join the cache: write the run's rows, read all
                kv.buffers[i][write] = kv_h
                kv_h = kv.buffers[i][bs, :end]
            # (k or v, sequences, heads, positions, head_dim); uncached, end is n
            kv_h = kv_h.reshape(-1, end, 2, h, hd).transpose(2, 0, 3, 1, 4)
            q_h = qkv[rs, :d].reshape(-1, n, h, hd).transpose(0, 2, 1, 3)
            probs = q_h @ kv_h[0].transpose(0, 1, 3, 2)
            if mask is not None:
                probs += mask
            softmax_inplace(probs)
            probs_d, drop = _dropout(rng, rate, probs)
            np.matmul(probs_d, kv_h[1], out=ctx[rs].reshape(-1, n, h, hd).transpose(0, 2, 1, 3))
            att.append((probs, drop, probs_d))
        # x + dropout(y + b), written over y: rebinding x frees the block's input
        y = ctx @ w_o
        y += b_o
        y, res_drop1 = _dropout(rng, rate, y)
        x = np.add(y, x, out=y)

        h2, ln2_cache = _layer_norm(x, ln2_g, ln2_b)
        u = h2 @ w_1
        del h2
        a, gelu_d = _gelu(u, b_1, derivative=want_cache)
        del u
        y = a @ w_2
        y += b_2
        y, res_drop2 = _dropout(rng, rate, y)
        x = np.add(y, x, out=y)

        if want_cache:
            caches.append({"ln1": ln1_cache, "qkv": qkv, "runs": att, "ctx": ctx,
                           "res_drop1": res_drop1, "ln2": ln2_cache, "a": a,
                           "gelu_d": gelu_d, "res_drop2": res_drop2})
    if kv is not None:
        kv.lengths = [a + n for a, n in zip(kv.lengths, length)]

    out_idx = None
    if rows is not None:
        out_idx = b_idx * w + t_idx
        if cells is not None:
            out_idx = np.searchsorted(cells, out_idx)
        x = x[out_idx]
    hf, lnf_cache = _layer_norm(x, t["ln_f.g"], t["ln_f.b"])
    logits = hf @ t["tok_emb"].T
    if rows is None:
        logits = logits.reshape(b, s, -1)
    if not want_cache:
        return logits, None
    tok = tokens.reshape(-1)
    return logits, {"width": w, "cells": cells, "runs": runs,
                    "tok": tok if cells is None else tok[cells], "out_idx": out_idx,
                    "emb_drop": emb_drop, "layers": caches, "hf": hf, "lnf": lnf_cache,
                    "scale": scale}


def forward(params: ModelParams, tokens: np.ndarray,
            rng: np.random.Generator | None = None,
            kv: KVCache | None = None, rows=None) -> np.ndarray:
    """Causal forward pass; returns logits of shape (batch, seq, vocab).

    Position i logits depend only on tokens at positions <= i.  Without
    ``rng`` the pass is deterministic; with a generator it applies dropout
    at the config's rate, with masks drawn from that generator, one
    uniform per cell the pass runs.

    ``rows`` = (b_idx, t_idx), integer indices that broadcast together,
    returns only ``forward(...)[rows]``, the logits at those positions;
    each sequence runs only up to its last requested position.

    ``kv`` is an optional ``KVCache(params, batch, size)``, empty at first.
    ``tokens`` then continue the sequences the cache holds: row b takes
    positions from ``kv.lengths[b]`` on, writes the key and value rows of
    the positions it runs into the cache with one index per layer and run,
    reads all its cached rows with one slice, and its length grows by as
    many, so prompts of different lengths fill one cache in one padded call
    with ``rows`` at their ends.  Feeding a sequence in any split of chunks
    gives the logits one full call would give.  A cache of another model
    config or batch size, or one too short to hold the positions, raises
    ModelError.  Token ids, rows and the cache are checked here; a decode
    loop that feeds back ids it drew, one position per step within the cache
    it sized, may call ``_forward_impl`` directly for its steps.
    """
    tokens = _check_inputs(params, tokens)
    c, (b, s) = params.config, tokens.shape
    if kv is not None:
        if kv.config is not c and kv.config != c:
            raise ModelError("K/V cache was built for another model config")
        if len(kv.lengths) != b:
            raise ModelError(f"K/V cache of batch {len(kv.lengths)} fed a batch of {b}")
        end = max(kv.lengths) + s
        if end > c.context_len:
            raise ModelError(f"sequence length {end} exceeds context {c.context_len}")
        if end > kv.size:
            raise ModelError(f"sequence length {end} exceeds the K/V cache's {kv.size} positions")
    if rows is not None:
        try:
            if not np.size(np.ravel_multi_index(rows, tokens.shape)):
                raise ModelError("rows select no position")
        except (TypeError, ValueError) as exc:
            raise ModelError(f"rows do not index the tokens: {exc}") from exc
        rows = np.broadcast_arrays(*rows)
    logits, _ = _forward_impl(params, tokens, rng, want_cache=False, kv=kv, rows=rows)
    return logits


def loss_rows(batch: SequenceBatch) -> tuple[np.ndarray, np.ndarray]:
    """The positions whose logits predict a masked token: (b, t - 1) for
    every nonzero ``loss_mask[b, t]``, in ``np.nonzero`` order."""
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    if not b_idx.size:
        raise ModelError("loss mask selects no positions")
    return b_idx, t_idx - 1


def _nll(logits: np.ndarray, batch: SequenceBatch, rows):
    """Masked mean next-token NLL, in the logits' dtype: the one loss formula.

    Overwrites ``logits``, the (n_loss, V) rows at ``rows = loss_rows(batch)``,
    with exp(shifted), z = its row sums.  Log-probabilities are ``shifted -
    log(z)``, so a target far below its row max costs a large finite loss, not
    ``log(0)``.  Returns (loss, w = mask / n, z, the targets' index).
    """
    cells = rows[0], rows[1] + 1        # the token each loss row predicts
    tgt = batch.tokens[cells]
    m = batch.loss_mask[cells].astype(logits.dtype)
    n = m.sum()
    targets = (np.arange(tgt.size), tgt)
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[targets]
    z = np.add.reduce(np.exp(logits, out=logits), axis=-1)
    return float(-((picked - np.log(z)) * m).sum() / n), m / n, z, targets


def _softmax_nll(logits: np.ndarray, batch: SequenceBatch, rows):
    """``_nll``'s loss and dL/dlogits = (softmax - one-hot target) * w, which
    overwrites ``logits``: exp(shifted) is scaled by w / z in one pass."""
    loss, w, z, targets = _nll(logits, batch, rows)
    logits *= (w / z)[:, None]
    logits[targets] -= w
    return loss, logits


def nll_loss(logits: np.ndarray, batch: SequenceBatch, rows=None) -> float:
    """Mean negative log-likelihood over masked next-token positions.

    ``logits`` is the (B, S, V) output of ``forward``, or only its rows at
    ``rows = loss_rows(batch)``, (n_loss, V); a caller that holds ``rows``
    passes them.  Computed in float64 regardless of the logits dtype.
    Minimizing this maximizes the summed log-probability of each sequence.
    """
    rows = loss_rows(batch) if rows is None else rows
    logits = np.asarray(logits)
    if logits.ndim == 3:
        logits = logits[rows]
    return _nll(logits.astype(np.float64), batch, rows)[0]


def backward(params: ModelParams, batch: SequenceBatch,
             rng: np.random.Generator | None = None):
    """Loss plus exact analytic gradients for every parameter tensor.

    Recomputes the forward pass internally (with activation caching) on
    the cells that reach the loss, projects only the loss rows to logits,
    and returns ``(loss, grads)`` where grads mirrors params.tensors.  It
    rebuilds the norms' outputs from x-hat, drops the logits once the
    head's gradients exist, and pops each cache entry at its last read.
    As in ``forward``, dropout runs only when ``rng`` is given.
    """
    c, t = params.config, params.tensors
    tokens, rows = _check_inputs(params, batch.tokens), loss_rows(batch)
    logits, cache = _forward_impl(params, tokens, rng, want_cache=True, rows=rows)
    loss, dlogits = _softmax_nll(logits, batch, rows)

    grads = {}
    hf = cache.pop("hf")
    grads["tok_emb"] = dlogits.T @ hf
    dhf = dlogits @ t["tok_emb"]
    del logits, dlogits, hf     # dlogits is logits, overwritten

    dx_out, grads["ln_f.g"], grads["ln_f.b"] = _layer_norm_backward(
        dhf, cache.pop("lnf"), t["ln_f.g"])
    # every loss row is a distinct row, so plain assignment needs no
    # accumulation
    dx = np.zeros((cache["tok"].size, c.d_model), dtype=dx_out.dtype)
    dx[cache["out_idx"]] = dx_out
    del dhf, dx_out
    h, hd = c.n_heads, c.head_dim

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
        for (_, rs, n, *_), (probs, drop, probs_d) in zip(cache["runs"], lc.pop("runs")):
            dctx_h = dctx[rs].reshape(-1, n, h, hd).transpose(0, 2, 1, 3)
            q_h, k_h, v_h = qkv[rs].reshape(-1, n, 3, h, hd).transpose(2, 0, 3, 1, 4)
            dq_h, dk_h, dv_h = dqkv[rs].reshape(-1, n, 3, h, hd).transpose(2, 0, 3, 1, 4)
            datt = dctx_h @ v_h.transpose(0, 1, 3, 2)
            np.matmul(probs_d.transpose(0, 1, 3, 2), dctx_h, out=dv_h)
            if drop is not None:
                datt *= drop
            datt -= (datt * probs).sum(axis=-1, keepdims=True)
            datt *= probs
            np.matmul(datt, k_h, out=dq_h)
            np.matmul(datt.transpose(0, 1, 3, 2), q_h, out=dk_h)
            del datt
        dqkv[:, :c.d_model] *= cache["scale"]
        # views pin their base: q_h/k_h/v_h hold qkv, dctx_h holds dctx
        del qkv, q_h, k_h, v_h, dq_h, dk_h, dv_h, dctx, dctx_h, probs, drop, probs_d
        grads[p + "attn.bqkv"] = dqkv.sum(axis=0)
        grads[p + "attn.wqkv"] = (lc["ln1"][0] * ln1_g + ln1_b).T @ dqkv
        dh1 = dqkv @ w_qkv.T
        del dqkv
        dx, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layer_norm_backward(
            dh1, lc.pop("ln1"), ln1_g)
        dx += dx_attn    # residual
        del dh1, dx_attn

    dx = _apply_mask(dx, cache["emb_drop"])
    width, cells = cache["width"], cache["cells"]
    grid = dx   # the zero-padded (B, width) grid, whose batch-axis sum adds from +0.0
    if cells is not None:
        grid = np.zeros((len(tokens) * width, c.d_model), dx.dtype)
        grid[cells] = dx
    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:width] = grid.reshape(-1, width, c.d_model).sum(axis=0)
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
#   u32 LE    config JSON byte length, then that many UTF-8 bytes: the
#             ModelConfig fields and "tie_embeddings": true (always tied)
#   u32 LE    tensor count
#   per tensor, in ``_stored`` order:
#     u16 LE name length + UTF-8 name
#     u8 ndim, then ndim * u32 LE dims
#     dims-product * f32 LE values (C order)
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path, *copies: str | Path) -> None:
    """Write the versioned checkpoint (f32 LE tensors) to ``path`` tensor by
    tensor, never joined into one buffer; each of ``copies`` becomes a hard
    link of it where the filesystem allows, else a second write."""
    cfg = {**asdict(params.config), "tie_embeddings": True}
    cfg_json = json.dumps(cfg, sort_keys=True).encode("utf-8")
    stored = _stored(params.config)
    chunks = [CHECKPOINT_MAGIC,
              struct.pack("<I", CHECKPOINT_VERSION),
              struct.pack("<I", len(cfg_json)), cfg_json,
              struct.pack("<I", len(stored))]
    for name, (source, cols, shape) in stored.items():
        name_b = name.encode("utf-8")
        chunks.append(struct.pack(f"<H{len(name_b)}sB{len(shape)}I", len(name_b), name_b,
                                  len(shape), *shape))
        chunks.append(np.ascontiguousarray(params[source][..., cols], dtype="<f4"))
    write_atomic(path, *chunks, copies=copies)


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
        cfg = json.loads(bytes(take(cfg_len)).decode("utf-8"))
        if not isinstance(cfg, dict) or cfg.pop("tie_embeddings", None) is not True:
            raise ValueError('not a JSON object with "tie_embeddings": true')
        config = ModelConfig(**cfg)
    except (ValueError, TypeError, ModelError) as exc:
        raise CheckpointError(f"{p}: bad config block: {exc}") from exc
    (n_tensors,) = struct.unpack("<I", take(4))
    # the count ``_stored`` gives, checked before any per-layer table is built:
    # tok_emb, pos_emb, ln_f.g, ln_f.b and 16 per layer
    count = 4 + 16 * config.n_layers
    if n_tensors != count:
        raise CheckpointError(f"{p}: expected {count} tensors, found {n_tensors}")

    def arrays():
        for want, (_, _, expected) in _stored(config).items():
            (name_len,) = struct.unpack("<H", take(2))
            # bytes that are not UTF-8 become U+FFFD, which no tensor name holds
            name = bytes(take(name_len)).decode("utf-8", "replace")
            if name != want:
                raise CheckpointError(f"{p}: tensor {name!r} out of order (wanted {want!r})")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            if shape != expected:
                raise CheckpointError(f"{p}: tensor {name!r} has shape {shape}, "
                                      f"expected {expected}")
            yield np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)

    # _from_stored copies each view of the file buffer: a view can sit at any
    # byte offset, and unaligned operands may take different BLAS paths than
    # the saved tensors did
    params = _from_stored(config, arrays(), np.float32)
    if pos != len(view):
        raise CheckpointError(f"{p}: trailing bytes after last tensor")
    params.check_finite()
    return params
