import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathscan.autodiff as ad
from pathscan.errors import ContractError, FormatError, NumericError, ShapeError


def fd_check(fn, *arrays, eps=1e-6, tol=1e-4):
    """Central finite differences against analytic gradients (float64)."""
    tensors = [ad.Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    loss = fn(*tensors)
    ad.backward(loss)
    for t in tensors:
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(*tensors).item()
            flat[i] = orig - eps
            lo = fn(*tensors).item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-8)
        rel = np.abs(num - t.grad).max() / denom
        assert rel < tol, f"rel-err {rel} for {fn}"


R = np.random.default_rng(7)


class TestOpGradients:
    def test_add(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b))),
                 R.random((3, 4)), R.random((3, 4)))

    def test_add_broadcast(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b))),
                 R.random((3, 4)), R.random((4,)))

    def test_sub(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(ad.sub(a, b), ad.sub(a, b))),
                 R.random((3, 4)), R.random((3, 4)))

    def test_mul(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(a, b)),
                 R.random((2, 5)), R.random((2, 5)))

    def test_matmul(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                 R.random((3, 4)), R.random((4, 2)))

    def test_matmul_batched(self):
        fd_check(lambda a, b: ad.sum_(ad.matmul(a, b)),
                 R.random((2, 3, 4)), R.random((2, 4, 3)))

    def test_transpose(self):
        fd_check(lambda a: ad.sum_(ad.mul(ad.transpose(a, (1, 0)), np.ones((4, 3)) * np.arange(3))),
                 R.random((3, 4)))

    def test_reshape(self):
        fd_check(lambda a: ad.sum_(ad.mul(ad.reshape(a, (2, 6)), np.arange(12.0).reshape(2, 6))),
                 R.random((3, 4)))

    def test_concat(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(ad.concat([a, b], axis=0),
                                             np.arange(10.0).reshape(5, 2))),
                 R.random((3, 2)), R.random((2, 2)))

    def test_slice(self):
        fd_check(lambda a: ad.sum_(ad.mul(a[1:3], a[1:3])), R.random((5, 3)))

    def test_sum_axis(self):
        fd_check(lambda a: ad.sum_(ad.mul(ad.sum_(a, axis=1), np.arange(3.0))),
                 R.random((3, 4)))

    def test_mean(self):
        fd_check(lambda a: ad.mean(ad.mul(a, a)), R.random((4, 4)))

    def test_scale(self):
        fd_check(lambda a: ad.sum_(ad.scale(ad.mul(a, a), 2.5)), R.random((3,)) + 0.5)

    def test_pow_const(self):
        fd_check(lambda a: ad.sum_(ad.pow_const(a, 3.0)), R.random((4,)) + 0.5)

    def test_log(self):
        fd_check(lambda a: ad.sum_(ad.log(a)), R.random((4,)) + 0.5)

    def test_clamp_interior(self):
        fd_check(lambda a: ad.sum_(ad.mul(ad.clamp(a, -10.0, 10.0), a)), R.random((4,)))

    def test_sigmoid(self):
        fd_check(lambda a: ad.sum_(ad.sigmoid(a)), R.standard_normal((3, 3)) * 3)

    def test_gelu(self):
        fd_check(lambda a: ad.sum_(ad.gelu(a)), R.standard_normal((3, 3)))

    def test_softmax(self):
        w = np.arange(12.0).reshape(3, 4)
        fd_check(lambda a: ad.sum_(ad.mul(ad.softmax(a, axis=-1), w)),
                 R.standard_normal((3, 4)))

    def test_layernorm(self):
        w = np.arange(12.0).reshape(3, 4)
        fd_check(lambda a: ad.sum_(ad.mul(ad.layernorm(a), w)),
                 R.standard_normal((3, 4)), tol=3e-4)

    def test_embedding_lookup(self):
        idx = [0, 2, 2, 1]
        w = np.arange(4.0 * 3).reshape(4, 3)
        fd_check(lambda t: ad.sum_(ad.mul(ad.embedding_lookup(t, idx), w)),
                 R.random((3, 3)))

    def test_three_layer_mlp(self):
        w1, b1 = R.standard_normal((4, 8)), R.standard_normal(8)
        w2, b2 = R.standard_normal((8, 8)), R.standard_normal(8)
        w3, b3 = R.standard_normal((8, 2)), R.standard_normal(2)
        x = R.standard_normal((3, 4))

        def mlp(*ps):
            W1, B1, W2, B2, W3, B3 = ps
            h = ad.gelu(ad.add(ad.matmul(ad.Tensor(x), W1), B1))
            h = ad.gelu(ad.add(ad.matmul(h, W2), B2))
            out = ad.add(ad.matmul(h, W3), B3)
            return ad.mean(ad.mul(out, out))

        fd_check(mlp, w1, b1, w2, b2, w3, b3)


class TestEngine:
    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(ad.Tensor(np.array([-1e4, 0.0, 1e4])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[2] == pytest.approx(1.0)

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(t, t))

    def test_grad_accumulates_across_backwards(self):
        t = ad.Tensor(np.array([2.0]), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(t, t)))
        first = t.grad.copy()
        ad.backward(ad.sum_(ad.mul(t, t)))
        assert np.allclose(t.grad, 2 * first)

    def test_zero_grads(self):
        t = ad.Tensor(np.array([2.0]), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(t, t)))
        ad.zero_grads({"t": t})
        assert t.grad is None

    def test_shared_node_gradient(self):
        t = ad.Tensor(np.array([3.0]), requires_grad=True)
        y = ad.mul(t, t)
        ad.backward(ad.sum_(ad.add(y, y)))
        assert t.grad[0] == pytest.approx(12.0)

    def test_nonfinite_trapped(self):
        with pytest.raises(NumericError):
            ad.Tensor(np.array([np.nan]))
        with pytest.raises(NumericError):
            ad.log(ad.Tensor(np.array([0.0])))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3)))


class TestLeafGradients:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_embedding_backward_matches_add_at(self, dtype, tol):
        rng = np.random.default_rng(2)
        table = ad.Tensor(rng.standard_normal((5, 3)).astype(dtype), requires_grad=True)
        idx = [4, 0, 4, 4, 2, 0]
        w = rng.standard_normal((len(idx), 3)).astype(dtype)
        ad.backward(ad.sum_(ad.mul(ad.embedding_lookup(table, idx), w)))
        want = np.zeros((5, 3), dtype=dtype)
        np.add.at(want, idx, w)
        assert table.grad.dtype == dtype
        assert np.abs(table.grad - want).max() < tol

    def test_intermediate_tensors_keep_no_grad(self):
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        s = ad.add(a, b)
        p = ad.mul(s, a)
        loss = ad.sum_(p)
        ad.backward(loss)
        assert s.grad is None and p.grad is None and loss.grad is None
        assert np.array_equal(a.grad, 2 * a.data + b.data)
        assert np.array_equal(b.grad, a.data)


CONSTANTS = {
    "python float": lambda shape: 0.75,
    "np.float64 scalar": lambda shape: np.float64(0.75),
    "float64 array": lambda shape: np.full(shape, 0.75, dtype=np.float64),
}


def every_op(t: ad.Tensor, c, k: float) -> list[ad.Tensor]:
    """Each op once on t, with the constant c and the scalar k mixed in."""
    rows, cols = t.shape
    pos = ad.add(ad.mul(t, t), c)  # > 0
    return [
        ad.add(t, c), ad.add(c, t), ad.sub(t, c), ad.sub(c, t),
        ad.mul(t, c), ad.mul(c, t),
        ad.matmul(t, np.full((cols, 2), k)), ad.matmul(np.full((2, rows), k), t),
        ad.matmul(t, ad.transpose(t)),
        ad.transpose(t), ad.reshape(t, (-1,)), t[0], ad.concat([t, t], axis=0),
        ad.sum_(t, axis=1), ad.mean(t), ad.scale(t, k), ad.pow_const(pos, k),
        ad.log(pos), ad.clamp(t, -0.5, 0.5), ad.sigmoid(t), ad.gelu(t),
        ad.softmax(t, axis=-1), ad.layernorm(t),
        ad.embedding_lookup(t, [rows - 1, 0, rows - 1]),
        ad.add_embeddings(t, [(t, np.arange(rows)[::-1]), (t, [0] * rows)]),
        ad.affine(t, ad.transpose(t), ad.sum_(t, axis=1)),
        ad.affine(np.full((2, rows), k), t, t[0]), ad.attention(t, t, t, 1),
    ]


def composed_attention(q, k, v, heads):
    """The graph ``ad.attention`` replaces: split heads, scaled scores, softmax,
    weighted values, merged heads."""
    (m, dim), n = q.shape, k.shape[0]
    dh = dim // heads

    def split(t, length):
        return ad.transpose(ad.reshape(t, (length, heads, dh)), (1, 0, 2))

    q, k, v = split(q, m), split(k, n), split(v, n)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (m, dim))


def composed_affine(x, W, b):
    return ad.add(ad.matmul(x, W), b)


def outputs_and_grads(fn, arrays, weight, *args):
    """fn's output and the gradients of sum(output * weight) for each array."""
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*ts, *args)
    ad.backward(ad.sum_(ad.mul(out, weight)))
    return [out.data] + [t.grad for t in ts]


class TestFusedNodes:
    """``affine`` and ``attention`` against the composed graphs they replace."""

    @pytest.mark.parametrize("n", [1, 9, 300, 832])
    @pytest.mark.parametrize("dim, heads", [(16, 1), (16, 2), (16, 4), (32, 1), (32, 2),
                                            (32, 4)])
    def test_attention_float32_bytes_equal_composed(self, dim, heads, n):
        rng = np.random.default_rng(dim * n + heads)
        for m in sorted({1, n}):
            arrays = [rng.standard_normal(s).astype(np.float32)
                      for s in ((m, dim), (n, dim), (n, dim))]
            weight = rng.standard_normal((m, dim)).astype(np.float32)
            want = outputs_and_grads(composed_attention, arrays, weight, heads)
            got = outputs_and_grads(ad.attention, arrays, weight, heads)
            assert all(g.dtype == np.float32 and np.array_equal(g, w)
                       for g, w in zip(got, want))

    @pytest.mark.parametrize("shape", [(1, 16, 16), (257, 16, 32), (832, 32, 128)])
    def test_affine_float32_bytes_equal_composed(self, shape):
        m, din, dout = shape
        rng = np.random.default_rng(m)
        arrays = [rng.standard_normal(s).astype(np.float32)
                  for s in ((m, din), (din, dout), (dout,))]
        weight = rng.standard_normal((m, dout)).astype(np.float32)
        want = outputs_and_grads(composed_affine, arrays, weight)
        got = outputs_and_grads(ad.affine, arrays, weight)
        assert all(g.dtype == np.float32 and np.array_equal(g, w)
                   for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(heads=st.integers(1, 4), dh=st.integers(1, 5), m=st.integers(1, 7),
           n=st.integers(1, 9), seed=st.integers(0, 2 ** 16))
    def test_float64_agrees_with_composed(self, heads, dh, m, n, seed):
        rng = np.random.default_rng(seed)
        dim = heads * dh
        arrays = [rng.standard_normal(s) for s in ((m, dim), (n, dim), (n, dim))]
        weight = rng.standard_normal((m, dim))
        pairs = zip(outputs_and_grads(ad.attention, arrays, weight, heads),
                    outputs_and_grads(composed_attention, arrays, weight, heads))
        assert all(np.abs(g - w).max() <= 1e-12 for g, w in pairs)
        arrays = [rng.standard_normal(s) for s in ((m, dim), (dim, n), (n,))]
        weight = rng.standard_normal((m, n))
        pairs = zip(outputs_and_grads(ad.affine, arrays, weight),
                    outputs_and_grads(composed_affine, arrays, weight))
        assert all(np.abs(g - w).max() <= 1e-12 for g, w in pairs)

    def test_attention_shape_errors(self):
        q, kv = ad.Tensor(np.ones((2, 6))), ad.Tensor(np.ones((3, 6)))
        with pytest.raises(ShapeError):
            ad.attention(q, kv, kv, 4)  # 6 columns do not split into 4 heads
        with pytest.raises(ShapeError):
            ad.attention(q, kv, ad.Tensor(np.ones((4, 6))), 2)
        with pytest.raises(ShapeError):
            ad.attention(q, kv, ad.Tensor(np.ones((3, 4))), 2)

    @pytest.mark.parametrize("row", [[1.0] * 4, [-1.0] * 4, [1.0, -1.0] * 2],
                             ids=["inf", "-inf", "nan"])
    def test_nonfinite_score_raises_before_the_exponent(self, row):
        """Finite float32 inputs whose scores overflow to inf, -inf or NaN
        raise NumericError with no warning of an invalid value."""
        big = np.float32(1e20)
        k = np.ones((3, 4), dtype=np.float32)
        k[1] = np.array(row, dtype=np.float32) * big
        q, k, v = ad.Tensor(np.full((2, 4), big)), ad.Tensor(k), ad.Tensor(np.ones_like(k))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "overflow", RuntimeWarning)
            with pytest.raises(NumericError):
                ad.attention(q, k, v, 2)


def composed_embeddings(x, t0, t1, t2, t3, indices):
    """The chain ``ad.add_embeddings`` replaces: one ``add`` of an
    ``embedding_lookup`` per table, left to right."""
    for table, idx in zip((t0, t1, t2, t3), indices):
        x = ad.add(x, ad.embedding_lookup(table, idx))
    return x


def add_embeddings(x, t0, t1, t2, t3, indices):
    return ad.add_embeddings(x, list(zip((t0, t1, t2, t3), indices)))


def memory_indices(rng, n_wsi, n_h):
    """The four index lists of a stage-2 memory of ``n_wsi`` WSI tokens and
    ``n_h`` fixations, with the row counts of its tables."""
    return ([np.concatenate([np.arange(n_wsi), rng.integers(0, n_wsi, n_h)]),
             [0] * n_wsi + [1] * n_h,
             [0] * n_wsi + [min(n_h - i, 150) for i in range(n_h)],
             [1] * n_wsi + rng.integers(0, 6, n_h).tolist()],
            (n_wsi, 2, 151, 6))


class TestAddEmbeddings:
    """``add_embeddings`` against the ``add``/``embedding_lookup`` chain."""

    @pytest.mark.parametrize("n_wsi, n_h, dim", [(16, 1, 16), (256, 24, 32), (256, 249, 32),
                                                (64, 400, 16)])
    def test_float32_bytes_equal_composed(self, n_wsi, n_h, dim):
        rng = np.random.default_rng(n_h)
        indices, rows = memory_indices(rng, n_wsi, n_h)
        arrays = [rng.standard_normal((n_wsi + n_h, dim)).astype(np.float32)]
        arrays += [rng.standard_normal((r, dim)).astype(np.float32) for r in rows]
        weight = rng.standard_normal((n_wsi + n_h, dim)).astype(np.float32)
        want = outputs_and_grads(composed_embeddings, arrays, weight, indices)
        got = outputs_and_grads(add_embeddings, arrays, weight, indices)
        assert all(g.dtype == np.float32 and np.array_equal(g, w)
                   for g, w in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(n_wsi=st.integers(1, 9), n_h=st.integers(1, 20), dim=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    def test_float64_agrees_with_composed(self, n_wsi, n_h, dim, seed):
        rng = np.random.default_rng(seed)
        indices, rows = memory_indices(rng, n_wsi, n_h)
        arrays = [rng.standard_normal((n_wsi + n_h, dim))]
        arrays += [rng.standard_normal((r, dim)) for r in rows]
        weight = rng.standard_normal((n_wsi + n_h, dim))
        pairs = zip(outputs_and_grads(add_embeddings, arrays, weight, indices),
                    outputs_and_grads(composed_embeddings, arrays, weight, indices))
        assert all(np.abs(g - w).max() <= 1e-12 for g, w in pairs)

    def test_bad_indices_and_shapes(self):
        x, table = ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            ad.add_embeddings(x, [(table, [0, 4, 1])])  # row 4 of a 4-row table
        with pytest.raises(ShapeError):
            ad.add_embeddings(x, [(table, [0, 1])])  # 2 rows added to 3
        with pytest.raises(ShapeError):
            ad.add_embeddings(x, [(ad.Tensor(np.ones((4, 3))), [0, 1, 2])])


def reference_layernorm(x):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True)
                                                          + 1e-5)


class TestLayernorm:
    @pytest.mark.parametrize("shape", [(1, 16), (280, 16), (832, 32), (7, 24)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_mean_var_formula(self, shape, dtype):
        """Output bytes of ``np.mean``/``np.var``, and the backward of their
        formula with each mean taken by ``np.mean``."""
        rng = np.random.default_rng(shape[0])
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        y = (x - mu) * inv
        gx = inv * (g - g.mean(axis=-1, keepdims=True)
                    - y * (g * y).mean(axis=-1, keepdims=True))
        t = ad.Tensor(x, requires_grad=True)
        out = ad.layernorm(t)
        ad.backward(ad.sum_(ad.mul(out, g)))
        assert out.data.dtype == t.grad.dtype == dtype
        assert np.array_equal(out.data, y) and np.array_equal(t.grad, gx)
        assert np.allclose(out.data, reference_layernorm(x.astype(np.float64)), atol=1e-5)


class TestDtypeRule:
    """A float32 graph stays float32 (and float64 stays float64), whatever
    precision its constants were built in."""

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           kind=st.sampled_from(sorted(CONSTANTS)),
           k=st.sampled_from([0.5, np.float64(0.5), np.float64(2.0), np.array(1.5)]),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2 ** 16))
    def test_outputs_and_leaf_gradients_keep_their_dtype(self, dtype, kind, k, shape, seed):
        data = np.random.default_rng(seed).uniform(-2.0, 2.0, shape).astype(dtype)
        t = ad.Tensor(data, requires_grad=True)
        outs = every_op(t, CONSTANTS[kind](shape), k)
        assert [o.data.dtype for o in outs] == [np.dtype(dtype)] * len(outs)
        loss = ad.sum_(ad.concat([ad.reshape(o, (-1,)) for o in outs]))
        ad.backward(loss)
        assert loss.data.dtype == dtype and t.grad.dtype == dtype


def reference_adam_step(params, state, lr):
    """The per-tensor Adam the flat step replaces; ``state`` is a dict of
    the step count and per-name moments."""
    state["t"] = t = state.get("t", 0) + 1
    for name, p in params.items():
        if p.grad is None:
            continue
        m, v = state.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = ad.ADAM_BETA1 * m + (1 - ad.ADAM_BETA1) * p.grad
        v = ad.ADAM_BETA2 * v + (1 - ad.ADAM_BETA2) * p.grad * p.grad
        state[name] = m, v
        mhat = m / (1 - ad.ADAM_BETA1 ** t)
        vhat = v / (1 - ad.ADAM_BETA2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + ad.ADAM_EPS)


class TestAdam:
    def test_constant_gradient_drift(self):
        # with a constant gradient the Adam step converges to lr * sign(g)
        p = ad.Tensor(np.array([0.0, 0.0]), requires_grad=True)
        state = ad.AdamState()
        g = np.array([1.0, -2.0])
        before = p.data.copy()
        for _ in range(200):
            p.grad = g.copy()
            ad.adam_step({"p": p}, state, lr=0.01)
        drift = p.data - before
        assert drift[0] == pytest.approx(-200 * 0.01, rel=0.05)
        assert drift[1] == pytest.approx(200 * 0.01, rel=0.05)

    def test_none_grad_skipped(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        state = ad.AdamState()
        ad.adam_step({"p": p}, state, lr=0.1)
        assert p.data[0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_bytes_equal_per_tensor_reference(self, dtype):
        """50 steps over model-like shapes; "b" has no gradient on every third
        step and "c" none before step 10, and each keeps its moments."""
        rng = np.random.default_rng(5)
        shapes = {"a.W": (16, 32), "a.b": (32,), "b": (7,), "c": (3, 3), "s": ()}
        init = {k: rng.standard_normal(sh).astype(dtype) for k, sh in shapes.items()}
        flat = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        state, ref_state = ad.AdamState(), {}
        for step in range(50):
            grads = {k: rng.standard_normal(sh).astype(dtype) for k, sh in shapes.items()}
            if step % 3 == 2:
                grads["b"] = None
            if step < 10:
                grads["c"] = None
            for params in (flat, ref):
                for k, p in params.items():
                    p.grad = None if grads[k] is None else grads[k].copy()
            taken = {k: p.data for k, p in flat.items()}
            kept = {k: a.copy() for k, a in taken.items()}
            norm = ad.adam_step(flat, state, lr=3e-3)
            reference_adam_step(ref, ref_state, lr=3e-3)
            assert all(np.array_equal(taken[k], kept[k]) for k in taken)  # not in place
            for k in shapes:
                assert flat[k].data.dtype == dtype and flat[k].shape == shapes[k]
                assert flat[k].data.tobytes() == ref[k].data.tobytes(), (step, k)
            applied = np.concatenate([g.reshape(-1) for g in grads.values() if g is not None])
            assert norm == pytest.approx(float(np.linalg.norm(applied.astype(np.float64))),
                                         rel=1e-5)
        assert state.t == ref_state["t"] == 50

    def test_mixed_dtypes_are_refused(self):
        a = ad.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = ad.Tensor(np.zeros(2), requires_grad=True)
        a.grad, b.grad = np.ones(3, dtype=np.float32), np.ones(2)
        with pytest.raises(ContractError):
            ad.adam_step({"a": a, "b": b}, ad.AdamState())
        b.data, b.grad = b.data.astype(np.float32), np.ones(2)  # a float64 gradient
        with pytest.raises(ContractError):
            ad.adam_step({"a": a, "b": b}, ad.AdamState())
        assert a.data.dtype == np.float32 and not a.data.any()


class TestCheckpoint:
    def params(self):
        rng = np.random.default_rng(0)
        return {
            "a.W": ad.Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                             requires_grad=True),
            "b": ad.Tensor(rng.standard_normal(7).astype(np.float32),
                           requires_grad=True),
        }

    def test_roundtrip_bit_identical(self, tmp_path):
        params = self.params()
        path = tmp_path / "m.psck"
        ad.save_checkpoint(path, params)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k].data)

    def test_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "m.psck"
        ad.save_checkpoint(path, self.params())
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.psck"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)

    def test_save_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.psck", tmp_path / "b.psck"
        ad.save_checkpoint(p1, self.params())
        ad.save_checkpoint(p2, self.params())
        assert p1.read_bytes() == p2.read_bytes()
