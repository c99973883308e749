"""Decoder-only transformer language model in plain numpy.

Pre-norm residual blocks, learned positional embeddings, tanh-form GELU,
multi-head causal self-attention, and a weight-tied output projection by
default.  Both the forward pass and the analytic backward pass are written
out explicitly; gradients are exact up to floating point, which the test
suite pins against central finite differences.  The forward pass caches
each GELU's tanh for the backward pass, every weight gradient is one
matmul over the flat rows, and one softmax/cross-entropy serves both the
loss and its gradient.

Rows: activations are flat (N, d) rows, one per (batch, position) cell
that runs.  Attention is causal, so an output at position t reads only
positions 0..t of its sequence.  A caller that asks for the logits at
some positions only (``backward`` and held-out evaluation ask for the
rows that predict a masked token) therefore runs, in each sequence, just
the positions up to its last requested one: pads and the EOS column drop
out, exactly.  Every layer runs on the kept rows.  A sequence's rows are
contiguous, so attention runs once per run of consecutive sequences that
keep the same length, on a (sequences, heads, L, ·) view of the run's
rows and the top-left corner of one additive causal mask: the
block-diagonal attention of packed sequences, without the packing.  Only
the requested rows are projected to logits.  When every cell runs
(public ``forward`` without ``rows``, any call with a ``kv`` cache, and
so every decoding step) the whole batch is one run and the rows are a
reshape of the (B, S) grid, not a gather.  Dropout masks are drawn at the
untrimmed (B, S, ·) shape and cut down, so a pass draws the same random
numbers whichever cells it keeps.  The 1/sqrt(head_dim) score scale is
applied to the query rows, not to the scores.

Parameters are plain numpy arrays in an ordered name->array mapping.  The
canonical storage dtype is float32 (matching the checkpoint format); the
compute dtype follows the parameter dtype, so float64 parameter sets give
float64 forwards for high-precision checks.

Nothing here mutates ModelParams: any number of concurrent forward calls
may share one parameter set, and all randomness (dropout) comes from a
caller-supplied generator, never global state.  The one caller-owned
object ``forward`` mutates is its optional ``kv`` list, the per-layer
key/value cache of incremental decoding: each call appends the new
positions' keys and values, and the next call continues from them.
Importing the module sets glibc's malloc, once for the whole process, to
keep freed memory for reuse (see ``_keep_freed_memory``).
"""

from __future__ import annotations

import ctypes
import json
import struct
from dataclasses import asdict, dataclass
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


def param_names(config: ModelConfig) -> list[str]:
    """Tensor declaration order; checkpoints store tensors in this order."""
    names = ["tok_emb", "pos_emb"]
    for i in range(config.n_layers):
        p = f"layer{i}."
        names += [p + "ln1.g", p + "ln1.b",
                  p + "attn.wq", p + "attn.bq", p + "attn.wk", p + "attn.bk",
                  p + "attn.wv", p + "attn.bv", p + "attn.wo", p + "attn.bo",
                  p + "ln2.g", p + "ln2.b",
                  p + "ff.w1", p + "ff.b1", p + "ff.w2", p + "ff.b2"]
    names += ["ln_f.g", "ln_f.b"]
    if not config.tie_embeddings:
        names.append("out_proj")
    return names


def _param_shape(name: str, c: ModelConfig) -> tuple[int, ...]:
    base = name.split(".", 1)[-1]
    if name == "tok_emb":
        return (c.vocab_size, c.d_model)
    if name == "pos_emb":
        return (c.context_len, c.d_model)
    if name == "out_proj":
        return (c.d_model, c.vocab_size)
    if base in ("ln1.g", "ln1.b", "ln2.g", "ln2.b") or name in ("ln_f.g", "ln_f.b"):
        return (c.d_model,)
    if base in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
        return (c.d_model, c.d_model)
    if base in ("attn.bq", "attn.bk", "attn.bv", "attn.bo"):
        return (c.d_model,)
    if base == "ff.w1":
        return (c.d_model, c.d_ff)
    if base == "ff.b1":
        return (c.d_ff,)
    if base == "ff.w2":
        return (c.d_ff, c.d_model)
    if base == "ff.b2":
        return (c.d_model,)
    raise ModelError(f"unknown parameter {name!r}")


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["tok_emb"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise ModelError(f"non-finite values in parameter {name!r}")


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: N(0, 0.02) weights, unit norms, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name in param_names(config):
        shape = _param_shape(name, config)
        base = name.split(".")[-1]
        if base == "g":
            t = np.ones(shape, dtype=dtype)
        elif base in ("b", "bq", "bk", "bv", "bo", "b1", "b2"):
            t = np.zeros(shape, dtype=dtype)
        else:
            t = (rng.standard_normal(shape) * 0.02).astype(dtype)
        tensors[name] = t
    return ModelParams(config=config, tensors=tensors)


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
        if self.tokens.shape != self.loss_mask.shape or self.tokens.ndim != 2:
            raise ModelError("tokens and loss_mask must share a (B, S) shape")
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
    xhat, inv = cache
    dg = np.sum(dy * xhat, axis=0)
    db = np.sum(dy, axis=0)
    dxhat = dy * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dg, db


def _gelu(u):
    """tanh-form GELU; returns the activation and the tanh, which the
    backward pass reuses.  Those two are the only arrays it allocates."""
    t = u * u
    t *= u
    t *= _GELU_A
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    a = t + 1.0
    a *= u
    a *= 0.5
    return a, t


def _gelu_backward(du_out, u, t):
    """``du_out`` times 0.5 (1 + t + u (1 - t*t) C (1 + 3A u*u)), the
    derivative of ``_gelu``, in two temporaries."""
    g = u * u
    g *= 3.0 * _GELU_A
    g += 1.0
    g *= _GELU_C
    g *= u
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    g *= sech2
    g += t
    g += 1.0
    g *= 0.5
    g *= du_out
    return g


def _dropout_mask(rng, shape, rate, dtype, take):
    """Inverted-dropout mask, or None at rate 0.

    The uniform draw is made at the untrimmed ``shape`` and cut down to
    the cells that run by ``take`` before it becomes a mask: the generator
    advances alike whichever cells run, and each kept cell gets the same
    mask value.
    """
    if rate <= 0.0:
        return None
    return (take(rng.random(shape)) >= rate).astype(dtype) / dtype.type(1.0 - rate)


def _apply_mask(x, mask):
    return x if mask is None else x * mask


class _Layout:
    """The (batch, position) cells a forward pass runs, as flat rows.

    Each sequence runs a prefix of its positions, so its rows are
    contiguous.  ``width`` is the longest prefix, and ``cells`` holds the
    flat index ``b * width + t`` of every kept cell of the (B, width) grid,
    in row-major order.  When every cell is kept, ``cells`` is None and
    moving between rows and the grid is a reshape, not a gather.

    ``runs`` groups consecutive sequences that keep the same length L, as
    ``(batch slice, row slice, L)``; attention runs once per run, on a
    (run size, heads, L, ·) view of the run's rows.  Sequences that keep
    no position form no run.
    """

    def __init__(self, batch: int, width: int, lengths: np.ndarray | None = None):
        self.batch, self.width, self.cells = batch, width, None
        self.runs = [(slice(0, batch), slice(0, batch * width), width)]
        if lengths is not None and not np.all(lengths == width):
            self.cells = np.flatnonzero(np.arange(width) < lengths[:, None])
            cut = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), batch]
            row0 = np.cumsum([0, *lengths]).tolist()
            self.runs = [(slice(b0, b1), slice(row0[b0], row0[b1]), int(lengths[b0]))
                         for b0, b1 in zip(cut, cut[1:]) if lengths[b0]]

    def to_rows(self, x):
        """(B, >= width, ...) grid -> (N, ...) rows of the kept cells."""
        flat = x[:, :self.width].reshape(self.batch * self.width, *x.shape[2:])
        return flat if self.cells is None else flat[self.cells]

    def to_grid(self, x):
        """(N, ...) rows -> (B, width, ...) grid, zero at the cells not kept."""
        shape = (self.batch, self.width) + x.shape[1:]
        if self.cells is None:
            return x.reshape(shape)
        grid = np.zeros((self.batch * self.width,) + x.shape[1:], dtype=x.dtype)
        grid[self.cells] = x
        return grid.reshape(shape)

    def index(self, out, seq: int):
        """Row numbers of the kept cells at ``out``, flat indices b * seq + t."""
        if seq != self.width:
            out = out // seq * self.width + out % seq
        return out if self.cells is None else np.searchsorted(self.cells, out)


def _heads(x, n_heads: int, length: int):
    """(n * length, d) rows of one run -> (n, n_heads, length, d // n_heads) view."""
    return x.reshape(-1, length, n_heads, x.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _rows_reaching(batch: int, seq: int, out) -> _Layout:
    """The cells that the outputs at ``out``, flat indices b * seq + t, read.

    Attention is causal, so the output at (b, t) depends on positions
    0..t of sequence b only; every later position is left out.
    """
    last = np.full(batch, -1)
    np.maximum.at(last, out // seq, out % seq)
    return _Layout(batch, int(last.max()) + 1, last + 1)


def _check_inputs(params: ModelParams, tokens: np.ndarray) -> np.ndarray:
    c = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ModelError("tokens must be a (batch, seq) array")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= c.vocab_size):
        raise ModelError("token id out of vocabulary range")
    return tokens


def _forward_impl(params: ModelParams, tokens: np.ndarray, train_mode: bool,
                  rng, want_cache: bool, kv: list | None = None, out=None):
    """The one forward pass: ``(logits, cache)``.

    ``out`` holds the flat indices ``b * S + t`` of the positions projected
    to logits, returned as (len(out), V); None projects all of them to
    (B, S, V).  Without a ``kv`` cache only the cells ``out`` reads run;
    with one, every cell runs, since the cache must hold them all.
    """
    c = params.config
    t = params.tensors
    dtype = params.dtype
    if train_mode and c.dropout_rate > 0.0 and rng is None:
        raise ModelError("train-mode forward with dropout needs an rng")
    b, s = tokens.shape
    start = kv[0][0].shape[2] if kv else 0
    if start + s > c.context_len:
        raise ModelError(
            f"sequence length {start + s} exceeds context {c.context_len}")
    rate = c.dropout_rate if train_mode else 0.0
    layout = (_Layout(b, s) if out is None or kv is not None
              else _rows_reaching(b, s, out))
    w = layout.width

    x = layout.to_rows(t["tok_emb"][tokens[:, :w]] + t["pos_emb"][start:start + w])
    emb_drop = _dropout_mask(rng, (b, s, c.d_model), rate, dtype, layout.to_rows)
    x = _apply_mask(x, emb_drop)

    # query row i sits at position start + i and sees keys 0..start + i; a
    # run of width L adds the mask's top-left (L, start + L) corner, and a
    # lone query row (L == 1) sees every key, so it needs none
    mask = (np.triu(np.full((w, start + w), -np.inf, dtype=dtype), k=start + 1)
            if w > 1 else None)
    scale = dtype.type(1.0 / np.sqrt(c.head_dim))
    h = c.n_heads
    caches = []
    for i in range(c.n_layers):
        p = f"layer{i}."
        h1, ln1_cache = _layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
        q = h1 @ t[p + "attn.wq"] + t[p + "attn.bq"]
        q *= scale
        k = h1 @ t[p + "attn.wk"] + t[p + "attn.bk"]
        v = h1 @ t[p + "attn.wv"] + t[p + "attn.bv"]
        att_drop = _dropout_mask(rng, (b, h, s, start + s), rate, dtype,
                                 lambda m: m[:, :, :w, :start + w])
        ctx = np.empty_like(q)
        runs = []
        for bs, rs, n in layout.runs:
            kh, vh = _heads(k[rs], h, n), _heads(v[rs], h, n)
            if kv is not None:     # every cell runs, so this is the one run
                if i < len(kv):
                    kh = np.concatenate((kv[i][0], kh), axis=2)
                    vh = np.concatenate((kv[i][1], vh), axis=2)
                    kv[i] = (kh, vh)
                else:
                    kv.append((kh, vh))
            probs = _heads(q[rs], h, n) @ kh.transpose(0, 1, 3, 2)
            if n > 1:
                probs += mask[:n, :start + n]
            probs -= probs.max(axis=-1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=-1, keepdims=True)
            drop = None if att_drop is None else att_drop[bs, :, :n, :start + n]
            probs_d = _apply_mask(probs, drop)
            np.matmul(probs_d, vh, out=_heads(ctx[rs], h, n))
            runs.append((probs, drop, probs_d))
        attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
        res_drop1 = _dropout_mask(rng, (b, s, c.d_model), rate, dtype,
                                  layout.to_rows)
        x_attn = x + _apply_mask(attn_out, res_drop1)

        h2, ln2_cache = _layer_norm(x_attn, t[p + "ln2.g"], t[p + "ln2.b"])
        u = h2 @ t[p + "ff.w1"] + t[p + "ff.b1"]
        a, gelu_t = _gelu(u)
        ff_out = a @ t[p + "ff.w2"] + t[p + "ff.b2"]
        res_drop2 = _dropout_mask(rng, (b, s, c.d_model), rate, dtype,
                                  layout.to_rows)
        x_new = x_attn + _apply_mask(ff_out, res_drop2)

        if want_cache:
            caches.append({
                "h1": h1, "ln1": ln1_cache, "q": q, "k": k, "v": v,
                "runs": runs, "ctx": ctx, "res_drop1": res_drop1, "h2": h2,
                "ln2": ln2_cache, "u": u, "a": a, "gelu_t": gelu_t,
                "res_drop2": res_drop2,
            })
        x = x_new

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
        cache = {"layout": layout, "tok": layout.to_rows(tokens), "out_idx": out_idx,
                 "emb_drop": emb_drop, "layers": caches, "hf": hf,
                 "lnf": lnf_cache, "scale": scale}
    return logits, cache


def forward(params: ModelParams, tokens: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None,
            kv: list | None = None, rows=None) -> np.ndarray:
    """Causal forward pass; returns logits of shape (batch, seq, vocab).

    Position i logits depend only on tokens at positions <= i.  Eval mode
    (the default) is deterministic; train mode applies dropout driven by
    the caller-supplied generator.

    ``kv`` is an optional key/value cache, one ``(k_heads, v_heads)`` pair
    per layer; pass an empty list on the first call.  ``tokens`` then
    continue the sequence the cache holds: they take positions from the
    cached length on, attend to every cached position, and their keys and
    values are appended to the cache in place.  Feeding a sequence in any
    split of chunks gives the logits one full call would give.

    ``rows`` = (b_idx, t_idx) returns only the logits at those positions,
    ``forward(...)[rows]``, of shape (len(b_idx), vocab); without ``kv``,
    only the positions they depend on are computed.
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


def _softmax_nll(logits: np.ndarray, batch: SequenceBatch):
    """Masked mean next-token NLL, computed in the logits' dtype.

    ``logits`` are the (n_loss, V) logits at ``loss_rows(batch)``.
    Log-probabilities are ``shifted - log(sum(exp(shifted)))``, so a target
    far below its row max costs a large finite loss, not ``log(0)``.
    Returns ``(loss, probs, tgt, w)``: the softmax of each row, the target
    ids, and each target's weight ``mask / n``.
    """
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt = batch.tokens[b_idx, t_idx]
    m = batch.loss_mask[b_idx, t_idx].astype(logits.dtype)
    n = m.sum()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    picked = shifted[np.arange(tgt.size), tgt]
    probs = np.exp(shifted, out=shifted)
    z = probs.sum(axis=-1, keepdims=True)
    logp = picked - np.log(z[:, 0])
    probs /= z
    return float(-(logp * m).sum() / n), probs, tgt, m / n


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
    return _softmax_nll(logits.astype(np.float64), batch)[0]


def backward(params: ModelParams, batch: SequenceBatch, train_mode: bool = False,
             rng: np.random.Generator | None = None):
    """Loss plus exact analytic gradients for every parameter tensor.

    Recomputes the forward pass internally (with activation caching) on
    the cells that reach the loss, projects only the loss rows to logits,
    and returns ``(loss, grads)`` where grads mirrors params.tensors.
    """
    c = params.config
    t = params.tensors
    tokens = _check_inputs(params, batch.tokens)
    out = np.ravel_multi_index(loss_rows(batch), tokens.shape)
    logits, cache = _forward_impl(params, tokens, train_mode, rng,
                                  want_cache=True, out=out)
    loss, dlogits, tgt, w = _softmax_nll(logits, batch)

    # dL/dlogits at each loss row: (softmax - one-hot target) * weight
    dlogits *= w[:, None]
    dlogits[np.arange(tgt.size), tgt] -= w

    grads = {}
    hf = cache["hf"]
    if c.tie_embeddings:
        grads["tok_emb"] = dlogits.T @ hf
        dhf = dlogits @ t["tok_emb"]
    else:
        grads["out_proj"] = hf.T @ dlogits
        grads["tok_emb"] = np.zeros_like(t["tok_emb"])
        dhf = dlogits @ t["out_proj"].T

    dx_out, grads["ln_f.g"], grads["ln_f.b"] = _layer_norm_backward(
        dhf, cache["lnf"], t["ln_f.g"])
    # every loss row is a distinct row, so plain assignment needs no
    # accumulation
    layout = cache["layout"]
    dx = np.zeros((cache["tok"].size, c.d_model), dtype=dx_out.dtype)
    dx[cache["out_idx"]] = dx_out
    h = c.n_heads

    for i in reversed(range(c.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]

        # feed-forward branch
        dff_out = _apply_mask(dx, lc["res_drop2"])
        grads[p + "ff.b2"] = dff_out.sum(axis=0)
        grads[p + "ff.w2"] = lc["a"].T @ dff_out
        da = dff_out @ t[p + "ff.w2"].T
        du = _gelu_backward(da, lc["u"], lc["gelu_t"])
        grads[p + "ff.b1"] = du.sum(axis=0)
        grads[p + "ff.w1"] = lc["h2"].T @ du
        dh2 = du @ t[p + "ff.w1"].T
        dx_attn, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layer_norm_backward(
            dh2, lc["ln2"], t[p + "ln2.g"])
        dx_attn = dx_attn + dx   # residual

        # attention branch; q holds the scaled queries, so the scores'
        # gradient times k is the scaled queries' gradient
        dattn_out = _apply_mask(dx_attn, lc["res_drop1"])
        grads[p + "attn.bo"] = dattn_out.sum(axis=0)
        grads[p + "attn.wo"] = lc["ctx"].T @ dattn_out
        dctx = dattn_out @ t[p + "attn.wo"].T
        q, k, v = lc["q"], lc["k"], lc["v"]
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for (_, rs, n), (probs, drop, probs_d) in zip(layout.runs, lc["runs"]):
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
        dq *= cache["scale"]
        h1 = lc["h1"]
        grads[p + "attn.bq"] = dq.sum(axis=0)
        grads[p + "attn.bk"] = dk.sum(axis=0)
        grads[p + "attn.bv"] = dv.sum(axis=0)
        grads[p + "attn.wq"] = h1.T @ dq
        grads[p + "attn.wk"] = h1.T @ dk
        grads[p + "attn.wv"] = h1.T @ dv
        dh1 = dq @ t[p + "attn.wq"].T + dk @ t[p + "attn.wk"].T \
            + dv @ t[p + "attn.wv"].T
        dx_res, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layer_norm_backward(
            dh1, lc["ln1"], t[p + "ln1.g"])
        dx = dx_res + dx_attn    # residual

    dx = _apply_mask(dx, cache["emb_drop"])
    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:layout.width] = layout.to_grid(dx).sum(axis=0)
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
#   per tensor, in declaration order:
#     u16 LE name length + UTF-8 name
#     u8 ndim, then ndim * u32 LE dims
#     dims-product * f32 LE values (C order)
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write the versioned binary checkpoint (tensors as little-endian f32)."""
    cfg_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    names = param_names(params.config)
    chunks = [CHECKPOINT_MAGIC,
              struct.pack("<I", CHECKPOINT_VERSION),
              struct.pack("<I", len(cfg_json)), cfg_json,
              struct.pack("<I", len(names))]
    for name in names:
        arr = params.tensors[name]
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_atomic(path, b"".join(chunks))


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
    expected = param_names(config)
    if n_tensors != len(expected):
        raise CheckpointError(f"{p}: expected {len(expected)} tensors, found {n_tensors}")
    tensors: dict[str, np.ndarray] = {}
    for want in expected:
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        if name != want:
            raise CheckpointError(f"{p}: tensor {name!r} out of order (wanted {want!r})")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if shape != _param_shape(name, config):
            raise CheckpointError(f"{p}: tensor {name!r} has shape {shape}, "
                                  f"expected {_param_shape(name, config)}")
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        # np.array forces an aligned, writable, native-endian copy; a view
        # into the file buffer can sit at any byte offset, and unaligned
        # operands may take different BLAS paths than the saved tensors did
        tensors[name] = np.array(data, dtype=np.float32)
    if pos != len(view):
        raise CheckpointError(f"{p}: trailing bytes after last tensor")
    params = ModelParams(config=config, tensors=tensors)
    params.check_finite()
    return params
