"""Transformer building blocks on top of the autodiff engine.

Parameters live in flat dicts keyed by dotted names so they serialize
directly into PSCK checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import FormatError


def init_param(params: dict, name: str, shape: tuple[int, ...],
               rng: np.random.Generator | None = None):
    """The one place a trainable tensor is made: float32 N(0, 0.02^2) draws
    from ``rng``, or zeros without one. A float64 model is one whose
    parameters were upcast after init."""
    data = np.zeros(shape) if rng is None else rng.standard_normal(shape) * 0.02
    params[name] = ad.Tensor(data.astype(np.float32), requires_grad=True)


def checked_params(saved: dict[str, np.ndarray], init, pos: str, source,
                   prefix: str = "") -> dict[str, ad.Tensor]:
    """``saved`` as parameters if its names and shapes are those of ``init(n)``,
    n being the saved ``pos`` table's length; else FormatError naming ``source``
    and the first tensor (``prefix`` + name) missing, mis-shaped or extra."""
    n = saved[pos].shape[0] if pos in saved and saved[pos].ndim else 0
    want = {k: t.shape for k, t in init(n).items()}
    for k in [*want, *saved]:
        got = saved[k].shape if k in saved else None
        if got != want.get(k):
            raise FormatError(f"{source}: tensor {prefix}{k} " + (
                "is missing" if got is None else f"has shape {got}, its sidecar gives "
                f"{want[k]}" if k in want else "is not in the model its sidecar describes"))
    return {k: ad.Tensor(a) for k, a in saved.items()}


def init_linear(params: dict, name: str, din: int, dout: int, rng: np.random.Generator):
    init_param(params, f"{name}.W", (din, dout), rng)
    init_param(params, f"{name}.b", (dout,))


def linear(params: dict, name: str, x: ad.Tensor | np.ndarray) -> ad.Tensor:
    """x @ W + b; an array ``x`` is cast to the parameters' dtype."""
    return ad.affine(x, params[f"{name}.W"], params[f"{name}.b"])


def init_attention(params: dict, prefix: str, dim: int, rng: np.random.Generator):
    for part in ("q", "k", "v", "o"):
        init_linear(params, f"{prefix}.{part}", dim, dim, rng)


def attention(params: dict, prefix: str, q_in: ad.Tensor, kv_in: ad.Tensor,
              heads: int) -> ad.Tensor:
    """Multi-head attention; self-attention when q_in is kv_in.  Projects
    q_in to queries and kv_in to keys and values, attends with the one
    ``ad.attention`` node over ``heads`` heads, and projects its context."""
    q = linear(params, f"{prefix}.q", q_in)
    k = linear(params, f"{prefix}.k", kv_in)
    v = linear(params, f"{prefix}.v", kv_in)
    return linear(params, f"{prefix}.o", ad.attention(q, k, v, heads))


def init_ffn(params: dict, prefix: str, dim: int, rng: np.random.Generator):
    init_linear(params, f"{prefix}.fc1", dim, dim * 4, rng)
    init_linear(params, f"{prefix}.fc2", dim * 4, dim, rng)


def ffn(params: dict, prefix: str, x: ad.Tensor) -> ad.Tensor:
    return linear(params, f"{prefix}.fc2",
                  ad.gelu(linear(params, f"{prefix}.fc1", x)))


def init_encoder_layer(params: dict, prefix: str, dim: int, rng: np.random.Generator):
    init_attention(params, f"{prefix}.attn", dim, rng)
    init_ffn(params, f"{prefix}.ffn", dim, rng)


def encoder_layer(params: dict, prefix: str, x: ad.Tensor, heads: int) -> ad.Tensor:
    """Pre-LN self-attention block."""
    h = ad.layernorm(x)
    x = ad.add(x, attention(params, f"{prefix}.attn", h, h, heads))
    return ad.add(x, ffn(params, f"{prefix}.ffn", ad.layernorm(x)))


def init_cross_layer(params: dict, prefix: str, dim: int, rng: np.random.Generator):
    init_attention(params, f"{prefix}.xattn", dim, rng)
    init_ffn(params, f"{prefix}.ffn", dim, rng)


def cross_layer(params: dict, prefix: str, q: ad.Tensor, memory: ad.Tensor,
                heads: int) -> ad.Tensor:
    """Pre-LN cross-attention block for a (1, C) query; no query self-attention."""
    q = ad.add(q, attention(params, f"{prefix}.xattn",
                            ad.layernorm(q), ad.layernorm(memory), heads))
    return ad.add(q, ffn(params, f"{prefix}.ffn", ad.layernorm(q)))
