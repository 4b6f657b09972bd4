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
    ]


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
