import numpy as np
import pytest

import pathscan.autodiff as ad
import pathscan.nn as nn

from conftest import upcast


def np_layernorm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def np_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def np_attention(params, prefix, q_in, kv_in, heads):
    """Independent numpy recomputation of multi-head attention."""
    def lin(name, x):
        return x @ params[f"{name}.W"].data + params[f"{name}.b"].data

    dim = q_in.shape[-1]
    dh = dim // heads
    q = lin(f"{prefix}.q", q_in).reshape(-1, heads, dh).transpose(1, 0, 2)
    k = lin(f"{prefix}.k", kv_in).reshape(-1, heads, dh).transpose(1, 0, 2)
    v = lin(f"{prefix}.v", kv_in).reshape(-1, heads, dh).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(1, 0, 2).reshape(-1, dim)
    return lin(f"{prefix}.o", ctx)


class TestLinear:
    def test_matches_numpy(self, rng):
        params = {}
        nn.init_linear(params, "l", 4, 3, rng)
        params = upcast(params)
        x = rng.standard_normal((5, 4))
        out = nn.linear(params, "l", ad.Tensor(x))
        want = x @ params["l.W"].data + params["l.b"].data
        assert np.allclose(out.data, want)


class TestAttention:
    def test_matches_numpy_oracle(self, rng):
        params = {}
        nn.init_attention(params, "a", 8, rng)
        params = upcast(params)
        x = rng.standard_normal((6, 8))
        got = nn.attention(params, "a", ad.Tensor(x), ad.Tensor(x), heads=2)
        want = np_attention(params, "a", x, x, heads=2)
        assert np.allclose(got.data, want, atol=1e-10)

    def test_cross_attention_shapes(self, rng):
        params = {}
        nn.init_attention(params, "a", 8, rng)
        params = upcast(params)
        q = rng.standard_normal((1, 8))
        mem = rng.standard_normal((10, 8))
        out = nn.attention(params, "a", ad.Tensor(q), ad.Tensor(mem), heads=2)
        assert out.shape == (1, 8)

    def test_token_coupling(self, rng):
        # zeroing one memory token changes the other tokens' outputs
        params = {}
        nn.init_encoder_layer(params, "e", 8, rng)
        params = upcast(params)
        x = rng.standard_normal((5, 8))
        base = nn.encoder_layer(params, "e", ad.Tensor(x), heads=2).data
        x2 = x.copy()
        x2[2] = 0.0
        pert = nn.encoder_layer(params, "e", ad.Tensor(x2), heads=2).data
        others = [i for i in range(5) if i != 2]
        assert not np.allclose(base[others], pert[others])


class TestCrossLayer:
    def test_hand_sized_case_matches_manual(self, rng):
        # C=2, single head, memory of 2 tokens: full manual recomputation
        params = {}
        nn.init_cross_layer(params, "d", 2, rng)
        params = upcast(params)
        q = np.array([[0.3, -0.5]])
        mem = np.array([[1.0, 0.0], [0.0, 2.0]])
        got = nn.cross_layer(params, "d", ad.Tensor(q), ad.Tensor(mem), heads=1).data

        qn = np_layernorm(q)
        mn = np_layernorm(mem)
        h = q + np_attention(params, "d.xattn", qn, mn, heads=1)
        hn = np_layernorm(h)
        f1 = np_gelu(hn @ params["d.ffn.fc1.W"].data + params["d.ffn.fc1.b"].data)
        want = h + f1 @ params["d.ffn.fc2.W"].data + params["d.ffn.fc2.b"].data
        assert np.allclose(got, want, atol=1e-10)


class TestEncoderLayer:
    def test_gradients_flow(self, rng):
        params = {}
        nn.init_encoder_layer(params, "e", 8, rng)
        params = upcast(params)
        x = ad.Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        out = nn.encoder_layer(params, "e", x, heads=2)
        ad.backward(ad.sum_(ad.mul(out, out)))
        assert x.grad is not None and np.any(x.grad != 0)
        for name, p in params.items():
            assert p.grad is not None, name


class TestInitParam:
    def test_draws_and_zeros_are_trainable_float32(self):
        params = {}
        nn.init_param(params, "w", (3, 4), np.random.default_rng(7))
        nn.init_param(params, "z", (5,))
        want = (np.random.default_rng(7).standard_normal((3, 4)) * 0.02).astype(np.float32)
        assert params["w"].data.dtype == np.float32 and np.array_equal(params["w"].data, want)
        assert params["z"].data.dtype == np.float32 and not params["z"].data.any()
        assert params["w"].requires_grad and params["z"].requires_grad
