"""Transformer building blocks on top of the autodiff engine.

Parameters live in flat dicts keyed by dotted names so they serialize
directly into PSCK checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import InvalidConfigError


def init_linear(params: dict, name: str, din: int, dout: int,
                rng: np.random.Generator, dtype=np.float32, std: float = 0.02):
    params[f"{name}.W"] = ad.Tensor(
        (rng.standard_normal((din, dout)) * std).astype(dtype), requires_grad=True)
    params[f"{name}.b"] = ad.Tensor(
        np.zeros((dout,), dtype=dtype), requires_grad=True)


def linear(params: dict, name: str, x: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(x, params[f"{name}.W"]), params[f"{name}.b"])


def init_attention(params: dict, prefix: str, dim: int,
                   rng: np.random.Generator, dtype=np.float32):
    for part in ("q", "k", "v", "o"):
        init_linear(params, f"{prefix}.{part}", dim, dim, rng, dtype)


def attention(params: dict, prefix: str, q_in: ad.Tensor, kv_in: ad.Tensor,
              heads: int) -> ad.Tensor:
    """Multi-head attention; self-attention when q_in is kv_in."""
    dim = q_in.shape[-1]
    if dim % heads != 0:
        raise InvalidConfigError("model dim must be divisible by heads")
    dh = dim // heads
    m, n = q_in.shape[0], kv_in.shape[0]

    def split(t: ad.Tensor, length: int) -> ad.Tensor:
        t = ad.reshape(t, (length, heads, dh))
        return ad.transpose(t, (1, 0, 2))  # (heads, length, dh)

    q = split(linear(params, f"{prefix}.q", q_in), m)
    k = split(linear(params, f"{prefix}.k", kv_in), n)
    v = split(linear(params, f"{prefix}.v", kv_in), n)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.matmul(attn, v)  # (heads, m, dh)
    ctx = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (m, dim))
    return linear(params, f"{prefix}.o", ctx)


def init_ffn(params: dict, prefix: str, dim: int, rng: np.random.Generator,
             dtype=np.float32, hidden_mult: int = 4):
    init_linear(params, f"{prefix}.fc1", dim, dim * hidden_mult, rng, dtype)
    init_linear(params, f"{prefix}.fc2", dim * hidden_mult, dim, rng, dtype)


def ffn(params: dict, prefix: str, x: ad.Tensor) -> ad.Tensor:
    return linear(params, f"{prefix}.fc2",
                  ad.gelu(linear(params, f"{prefix}.fc1", x)))


def init_encoder_layer(params: dict, prefix: str, dim: int,
                       rng: np.random.Generator, dtype=np.float32):
    init_attention(params, f"{prefix}.attn", dim, rng, dtype)
    init_ffn(params, f"{prefix}.ffn", dim, rng, dtype)


def encoder_layer(params: dict, prefix: str, x: ad.Tensor, heads: int) -> ad.Tensor:
    """Pre-LN self-attention block."""
    h = ad.layernorm(x)
    x = ad.add(x, attention(params, f"{prefix}.attn", h, h, heads))
    return ad.add(x, ffn(params, f"{prefix}.ffn", ad.layernorm(x)))


def init_cross_layer(params: dict, prefix: str, dim: int,
                     rng: np.random.Generator, dtype=np.float32):
    init_attention(params, f"{prefix}.xattn", dim, rng, dtype)
    init_ffn(params, f"{prefix}.ffn", dim, rng, dtype)


def cross_layer(params: dict, prefix: str, q: ad.Tensor, memory: ad.Tensor,
                heads: int) -> ad.Tensor:
    """Pre-LN cross-attention block for a (1, C) query; no query self-attention."""
    q = ad.add(q, attention(params, f"{prefix}.xattn",
                            ad.layernorm(q), ad.layernorm(memory), heads))
    return ad.add(q, ffn(params, f"{prefix}.ffn", ad.layernorm(q)))
