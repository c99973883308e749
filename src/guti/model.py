"""Decoder-only transformer language model in plain numpy.

Pre-norm residual blocks, learned positional embeddings, tanh-form GELU,
multi-head causal self-attention, and a weight-tied output projection by
default.  Both the forward pass and the analytic backward pass are written
out explicitly; gradients are exact up to floating point, which the test
suite pins against central finite differences.

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
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ModelError

CHECKPOINT_MAGIC = b"GUTICKPT"
CHECKPOINT_VERSION = 1

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5


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
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dg, db


def _gelu(u):
    inner = _GELU_C * (u + _GELU_A * u ** 3)
    return 0.5 * u * (1.0 + np.tanh(inner))


def _gelu_backward(du_out, u):
    inner = _GELU_C * (u + _GELU_A * u ** 3)
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * u * u)
    return du_out * (0.5 * (1.0 + t) + 0.5 * u * sech2 * dinner)


def _dropout_mask(rng, shape, rate, dtype):
    if rate <= 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate)
    return keep


def _apply_mask(x, mask):
    return x if mask is None else x * mask


def _split_heads(x, n_heads):
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _check_inputs(params: ModelParams, tokens: np.ndarray) -> np.ndarray:
    c = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ModelError("tokens must be a (batch, seq) array")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= c.vocab_size):
        raise ModelError("token id out of vocabulary range")
    return tokens


def _forward_impl(params: ModelParams, tokens: np.ndarray, train_mode: bool,
                  rng, want_cache: bool, kv: list | None = None):
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

    x = t["tok_emb"][tokens] + t["pos_emb"][start:start + s]
    emb_drop = _dropout_mask(rng, x.shape, rate, dtype)
    x = _apply_mask(x, emb_drop)

    # query row i sits at position start + i and sees keys 0..start + i
    causal = np.tril(np.ones((s, start + s), dtype=bool), k=start)
    scale = dtype.type(1.0 / np.sqrt(c.head_dim))
    caches = []
    for i in range(c.n_layers):
        p = f"layer{i}."
        h1, ln1_cache = _layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
        q = h1 @ t[p + "attn.wq"] + t[p + "attn.bq"]
        k = h1 @ t[p + "attn.wk"] + t[p + "attn.bk"]
        v = h1 @ t[p + "attn.wv"] + t[p + "attn.bv"]
        qh, kh, vh = (_split_heads(z, c.n_heads) for z in (q, k, v))
        if kv is not None:
            if i < len(kv):
                kh = np.concatenate((kv[i][0], kh), axis=2)
                vh = np.concatenate((kv[i][1], vh), axis=2)
                kv[i] = (kh, vh)
            else:
                kv.append((kh, vh))
        att = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        att = np.where(causal, att, -np.inf)
        att = att - att.max(axis=-1, keepdims=True)
        ea = np.exp(att)
        probs = ea / ea.sum(axis=-1, keepdims=True)
        att_drop = _dropout_mask(rng, probs.shape, rate, dtype)
        probs_d = _apply_mask(probs, att_drop)
        ctx = _merge_heads(probs_d @ vh)
        attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
        res_drop1 = _dropout_mask(rng, attn_out.shape, rate, dtype)
        x_attn = x + _apply_mask(attn_out, res_drop1)

        h2, ln2_cache = _layer_norm(x_attn, t[p + "ln2.g"], t[p + "ln2.b"])
        u = h2 @ t[p + "ff.w1"] + t[p + "ff.b1"]
        a = _gelu(u)
        ff_out = a @ t[p + "ff.w2"] + t[p + "ff.b2"]
        res_drop2 = _dropout_mask(rng, ff_out.shape, rate, dtype)
        x_new = x_attn + _apply_mask(ff_out, res_drop2)

        if want_cache:
            caches.append({
                "x": x, "h1": h1, "ln1": ln1_cache, "qh": qh, "kh": kh, "vh": vh,
                "probs": probs, "att_drop": att_drop, "probs_d": probs_d,
                "ctx": ctx, "res_drop1": res_drop1, "x_attn": x_attn,
                "h2": h2, "ln2": ln2_cache, "u": u, "a": a,
                "res_drop2": res_drop2,
            })
        x = x_new

    hf, lnf_cache = _layer_norm(x, t["ln_f.g"], t["ln_f.b"])
    w_out = t["tok_emb"].T if c.tie_embeddings else t["out_proj"]
    logits = hf @ w_out
    cache = None
    if want_cache:
        cache = {"tokens": tokens, "emb_drop": emb_drop, "layers": caches,
                 "x_final": x, "hf": hf, "lnf": lnf_cache, "scale": scale}
    return logits, cache


def forward(params: ModelParams, tokens: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None,
            kv: list | None = None) -> np.ndarray:
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
    """
    tokens = _check_inputs(params, tokens)
    logits, _ = _forward_impl(params, tokens, train_mode, rng, want_cache=False,
                              kv=kv)
    return logits


def nll_loss(logits: np.ndarray, batch: SequenceBatch) -> float:
    """Mean negative log-likelihood over masked next-token positions.

    Computed in float64 regardless of the logits dtype.  Minimizing this
    maximizes the summed log-probability of each sequence.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = batch.loss_mask.astype(np.float64)
    n = mask.sum()
    if n <= 0:
        raise ModelError("loss mask selects no positions")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt = batch.tokens[b_idx, t_idx]
    tok_logp = logits[b_idx, t_idx - 1, tgt] - logz[b_idx, t_idx - 1]
    return float(-(tok_logp * mask[b_idx, t_idx]).sum() / n)


def backward(params: ModelParams, batch: SequenceBatch, train_mode: bool = False,
             rng: np.random.Generator | None = None):
    """Loss plus exact analytic gradients for every parameter tensor.

    Recomputes the forward pass internally (with activation caching) and
    returns ``(loss, grads)`` where grads mirrors params.tensors.
    """
    c = params.config
    t = params.tensors
    tokens = _check_inputs(params, batch.tokens)
    logits, cache = _forward_impl(params, tokens, train_mode, rng, want_cache=True)
    dtype = params.dtype

    mask = batch.loss_mask.astype(dtype)
    n = mask.sum()
    if n <= 0:
        raise ModelError("loss mask selects no positions")

    shifted = logits - logits.max(axis=-1, keepdims=True)
    el = np.exp(shifted)
    probs = el / el.sum(axis=-1, keepdims=True)
    b_idx, t_idx = np.nonzero(batch.loss_mask)
    tgt = tokens[b_idx, t_idx]
    logp = np.log(probs[b_idx, t_idx - 1, tgt])
    loss = float(-(logp * mask[b_idx, t_idx]).sum() / n)

    # dL/dlogits at position t-1 for each masked target position t
    dlogits = np.zeros_like(logits)
    w = (mask[b_idx, t_idx] / n)[:, None]
    np.add.at(dlogits, (b_idx, t_idx - 1), probs[b_idx, t_idx - 1] * w)
    np.subtract.at(dlogits, (b_idx, t_idx - 1, tgt), mask[b_idx, t_idx] / n)

    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    hf = cache["hf"]
    if c.tie_embeddings:
        grads["tok_emb"] += np.einsum("bsv,bsd->vd", dlogits, hf)
        dhf = dlogits @ t["tok_emb"]
    else:
        grads["out_proj"] += np.einsum("bsd,bsv->dv", hf, dlogits)
        dhf = dlogits @ t["out_proj"].T

    dx, dg, db = _layer_norm_backward(dhf, cache["lnf"], t["ln_f.g"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for i in reversed(range(c.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]

        # feed-forward branch
        dff_out = _apply_mask(dx, lc["res_drop2"])
        grads[p + "ff.b2"] += dff_out.sum(axis=(0, 1))
        grads[p + "ff.w2"] += np.einsum("bsf,bsd->fd", lc["a"], dff_out)
        da = dff_out @ t[p + "ff.w2"].T
        du = _gelu_backward(da, lc["u"])
        grads[p + "ff.b1"] += du.sum(axis=(0, 1))
        grads[p + "ff.w1"] += np.einsum("bsd,bsf->df", lc["h2"], du)
        dh2 = du @ t[p + "ff.w1"].T
        dx_attn, dg, db = _layer_norm_backward(dh2, lc["ln2"], t[p + "ln2.g"])
        grads[p + "ln2.g"] += dg
        grads[p + "ln2.b"] += db
        dx_attn = dx_attn + dx   # residual

        # attention branch
        dattn_out = _apply_mask(dx_attn, lc["res_drop1"])
        grads[p + "attn.bo"] += dattn_out.sum(axis=(0, 1))
        grads[p + "attn.wo"] += np.einsum("bsd,bse->de", lc["ctx"], dattn_out)
        dctx = dattn_out @ t[p + "attn.wo"].T
        dctx_h = _split_heads(dctx, c.n_heads)
        dprobs_d = dctx_h @ lc["vh"].transpose(0, 1, 3, 2)
        dvh = lc["probs_d"].transpose(0, 1, 3, 2) @ dctx_h
        dprobs = _apply_mask(dprobs_d, lc["att_drop"])
        pr = lc["probs"]
        datt = pr * (dprobs - (dprobs * pr).sum(axis=-1, keepdims=True))
        datt = datt * cache["scale"]
        dqh = datt @ lc["kh"]
        dkh = datt.transpose(0, 1, 3, 2) @ lc["qh"]
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        h1 = lc["h1"]
        grads[p + "attn.bq"] += dq.sum(axis=(0, 1))
        grads[p + "attn.bk"] += dk.sum(axis=(0, 1))
        grads[p + "attn.bv"] += dv.sum(axis=(0, 1))
        grads[p + "attn.wq"] += np.einsum("bsd,bse->de", h1, dq)
        grads[p + "attn.wk"] += np.einsum("bsd,bse->de", h1, dk)
        grads[p + "attn.wv"] += np.einsum("bsd,bse->de", h1, dv)
        dh1 = dq @ t[p + "attn.wq"].T + dk @ t[p + "attn.wk"].T \
            + dv @ t[p + "attn.wv"].T
        dx_res, dg, db = _layer_norm_backward(dh1, lc["ln1"], t[p + "ln1.g"])
        grads[p + "ln1.g"] += dg
        grads[p + "ln1.b"] += db
        dx = dx_res + dx_attn    # residual

    dx = _apply_mask(dx, cache["emb_drop"])
    s = tokens.shape[1]
    grads["pos_emb"][:s] += dx.sum(axis=0)
    np.add.at(grads["tok_emb"], tokens, dx)
    return loss, grads


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
    p = Path(path)
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
    p.write_bytes(b"".join(chunks))


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
