import dataclasses
import math

import numpy as np
import pytest

import pathscan.autodiff as ad
import pathscan.pat_s as pat_s
from pathscan.errors import ContractError, NumericError, RangeError, ShapeError
from pathscan.features import FeatureGrid
from pathscan.pat_h import gaussian_map
from pathscan.pat_s import ScanpathModelConfig
from pathscan.trajectory import Fixation, MagLevel, Scanpath

from conftest import cell_of, make_corpus, upcast


def target_map(shape, cell, mag):
    """The next-fixation target: ``gaussian_map`` of one fixation in ``cell``."""
    (rows, cols), (r, c) = shape, cell
    return gaussian_map([Fixation(c + 0.5, r + 0.5, mag, 0.0)], shape, cols, rows)


def tiny_config(**kw):
    defaults = dict(dim=8, model_dim=8, enc_layers=1, dec_layers=1, heads=2)
    defaults.update(kw)
    return ScanpathModelConfig(**defaults)


def tiny_grids(seed=0, side2x=3, side10x=4, dim=8):
    rng = np.random.default_rng(seed)
    f2x = FeatureGrid(MagLevel(1),
                      rng.standard_normal((side2x, side2x, dim)).astype(np.float32),
                      1200.0, 1200.0)
    f10x = FeatureGrid(MagLevel(3),
                       rng.standard_normal((side10x, side10x, dim)).astype(np.float32),
                       1200.0, 1200.0)
    return f2x, f10x


def fix(x, y, mag=3, dur=100.0):
    return Fixation(x, y, MagLevel(mag), dur)


class TestCumulativeMagCount:
    def test_pinned_sequence(self):
        hist = [fix(0, 0, m) for m in (0, 0, 1, 1, 1, 2, 3, 3)]
        assert pat_s.cumulative_mag_count(hist).tolist() == [2, 3, 1, 2, 0, 0]

    def test_empty_history(self):
        assert pat_s.cumulative_mag_count([]).tolist() == [0] * 6


class TestPredictMag:
    def test_hand_set_weights(self):
        w = np.eye(6) * 0.1
        b = np.linspace(-0.5, 0.5, 6)
        params = {"maghead.W": ad.Tensor(w), "maghead.b": ad.Tensor(b)}
        cm = np.array([2, 3, 1, 2, 0, 0])
        out = pat_s.predict_mag(cm, params)
        want = 1.0 / (1.0 + np.exp(-(cm * 0.1 + b)))
        assert out.shape == (6,)
        assert np.allclose(out.data, want)


class TestFocalLoss:
    def test_hand_value_at_gt_one(self):
        # single gt=1 cell with prediction 0.5: term is (1-0.5)^2 log 0.5
        pred = ad.Tensor(np.array([[0.5]]))
        loss = pat_s.focal_loss(pred, np.array([[1.0]]))
        assert loss.item() == pytest.approx(-0.25 * math.log(0.5))

    def test_negative_cell_weighting(self):
        # 2 cells: gt = [1, 0.5]; the soft cell uses (1-gt)^beta * p^gamma * log(1-p)
        pred = ad.Tensor(np.array([0.5, 0.4]))
        loss = pat_s.focal_loss(pred, np.array([1.0, 0.5]))
        pos = (0.5 ** 2) * math.log(0.5)
        neg = (0.5 ** 4) * (0.4 ** 2) * math.log(0.6)
        assert loss.item() == pytest.approx(-(pos + neg) / 2.0)

    def test_requires_a_peak_cell(self):
        with pytest.raises(ContractError):
            pat_s.focal_loss(ad.Tensor(np.full((2, 2), 0.5)), np.full((2, 2), 0.5))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pat_s.focal_loss(ad.Tensor(np.zeros((2, 2))), np.ones((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        gt = target_map((3, 3), (1, 1), MagLevel(3))
        pred = ad.Tensor(rng.uniform(0.2, 0.8, (3, 3)), requires_grad=True)
        loss = pat_s.focal_loss(pred, gt)
        ad.backward(loss)
        eps = 1e-6
        num = np.zeros_like(pred.data)
        for i in range(3):
            for j in range(3):
                orig = pred.data[i, j]
                pred.data[i, j] = orig + eps
                hi = pat_s.focal_loss(pred, gt).item()
                pred.data[i, j] = orig - eps
                lo = pat_s.focal_loss(pred, gt).item()
                pred.data[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        rel = np.abs(num - pred.grad).max() / max(np.abs(num).max(), 1e-8)
        assert rel < 1e-4


def composed_focal_loss(pred, gt):
    """The graph ``pat_s.focal_loss`` replaces."""
    gt = np.asarray(gt, dtype=np.float64)
    pos = (gt == 1.0).astype(np.float64)
    neg_w = ((1.0 - gt) ** pat_s.FOCAL_BETA) * (1.0 - pos)
    p = ad.clamp(pred, 1e-7, 1.0 - 1e-7)
    one_minus = ad.sub(1.0, p)
    pos_term = ad.mul(pos, ad.mul(ad.pow_const(one_minus, pat_s.FOCAL_GAMMA), ad.log(p)))
    neg_term = ad.mul(neg_w, ad.mul(ad.pow_const(p, pat_s.FOCAL_GAMMA), ad.log(one_minus)))
    return ad.scale(ad.sum_(ad.add(pos_term, neg_term)), -1.0 / gt.size)


def composed_mag_loss(pred, gt_level, weights):
    """The graph ``pat_s.mag_loss`` replaces."""
    p_gt = ad.mul(pred[gt_level], ad.pow_const(ad.sum_(pred), -1.0))
    return ad.scale(ad.log(p_gt), -float(weights[gt_level]))


def loss_and_grad(loss_fn, pred, *args):
    """The loss and its gradient for ``pred``, reached through the sum with
    a second loss as in training."""
    t = ad.Tensor(pred.copy(), requires_grad=True)
    loss = loss_fn(t, *args)
    ad.backward(pat_s.total_loss(loss, ad.Tensor(np.ones((), pred.dtype))))
    return loss.data, t.grad


def focal_case(side, seed, dtype):
    """A (side, side) prediction holding 0, 1 and both clamp bounds, and a
    target whose peak lies on the map's edge."""
    rng = np.random.default_rng(seed)
    peak = (int(rng.integers(side)), side - 1) if seed % 2 else (0, int(rng.integers(side)))
    gt = target_map((side, side), peak, MagLevel(int(rng.integers(6))))
    pred = rng.uniform(0.0, 1.0, (side, side)).astype(dtype)
    cells = rng.permutation(side * side)[:4]
    pred.reshape(-1)[cells] = np.array([0.0, 1.0, 1e-7, 1.0 - 1e-7], dtype=dtype)
    if seed < 4:  # else the peak keeps its uniform draw
        pred[peak] = [0.0, 1.0, 1e-7, 1.0 - 1e-7][seed]
    return pred, gt


class TestFusedLosses:
    """``focal_loss`` and ``mag_loss`` against the composed graphs they replace."""

    @pytest.mark.parametrize("side", [8, 12, 16, 24, 32])
    @pytest.mark.parametrize("seed", range(10))
    def test_focal_float32_bytes_equal_composed(self, side, seed):
        pred, gt = focal_case(side, seed, np.float32)
        got = loss_and_grad(pat_s.focal_loss, pred, gt)
        want = loss_and_grad(composed_focal_loss, pred, gt)
        assert all(g.dtype == np.float32 and np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("level", range(6))
    def test_mag_float32_bytes_equal_composed(self, level):
        rng = np.random.default_rng(level)
        weights = pat_s.class_weights(rng.integers(0, 50, 6))
        weights[level] = weights[level] or 1.0
        for _ in range(20):
            pred = (1.0 / (1.0 + np.exp(-3.0 * rng.standard_normal(6)))).astype(np.float32)
            got = loss_and_grad(pat_s.mag_loss, pred, level, weights)
            want = loss_and_grad(composed_mag_loss, pred, level, weights)
            assert all(g.dtype == np.float32 and np.array_equal(g, w)
                       for g, w in zip(got, want))

    @pytest.mark.parametrize("seed", range(8))
    def test_float64_agrees_with_composed(self, seed):
        def close(got, want):
            return all(np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())
                       for g, w in zip(got, want))

        pred, gt = focal_case(8 + seed, seed, np.float64)
        assert close(loss_and_grad(pat_s.focal_loss, pred, gt),
                     loss_and_grad(composed_focal_loss, pred, gt))
        rng = np.random.default_rng(seed)
        pred, weights = rng.uniform(0.01, 1.0, 6), rng.uniform(0.1, 3.0, 6)
        assert close(loss_and_grad(pat_s.mag_loss, pred, seed % 6, weights),
                     loss_and_grad(composed_mag_loss, pred, seed % 6, weights))

    def test_zero_activation_at_the_target_raises(self):
        pred = ad.Tensor(np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(NumericError):
            pat_s.mag_loss(pred, 0, np.ones(6))


class TestClassWeights:
    def test_hand_counts(self):
        w = pat_s.class_weights(np.array([10, 20, 30, 20, 10, 10]))
        assert np.allclose(w, [5 / 3, 5 / 6, 5 / 9, 5 / 6, 5 / 3, 5 / 3])

    def test_zero_count_class_gets_zero(self):
        w = pat_s.class_weights(np.array([5, 0, 5, 0, 0, 0]))
        assert w[1] == 0.0 and w[0] > 0


class TestMagLoss:
    def test_uniform_activations_give_log6(self):
        pred = ad.Tensor(np.full(6, 0.5))
        loss = pat_s.mag_loss(pred, 2, np.ones(6))
        assert loss.item() == pytest.approx(math.log(6.0))

    def test_weight_scales_loss(self):
        pred = ad.Tensor(np.full(6, 0.5))
        w = np.ones(6)
        w[2] = 2.5
        assert pat_s.mag_loss(pred, 2, w).item() == pytest.approx(2.5 * math.log(6.0))

    def test_bad_level(self):
        with pytest.raises(RangeError):
            pat_s.mag_loss(ad.Tensor(np.full(6, 0.5)), 6, np.ones(6))

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            pat_s.mag_loss(ad.Tensor(np.full(5, 0.5)), 2, np.ones(6))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = pat_s.class_weights(np.array([3, 1, 4, 1, 5, 9]))
        pred = ad.Tensor(rng.uniform(0.1, 0.9, 6), requires_grad=True)
        loss = pat_s.mag_loss(pred, 4, w)
        ad.backward(loss)
        eps = 1e-7
        num = np.zeros(6)
        for i in range(6):
            orig = pred.data[i]
            pred.data[i] = orig + eps
            hi = pat_s.mag_loss(pred, 4, w).item()
            pred.data[i] = orig - eps
            lo = pat_s.mag_loss(pred, 4, w).item()
            pred.data[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        rel = np.abs(num - pred.grad).max() / np.abs(num).max()
        assert rel < 1e-4


class TestMemory:
    def test_memory_length(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        history = [fix(100, 100), fix(600, 600, 2)]
        mem = pat_s.build_memory(f2x, history, f10x, params, config)
        assert mem.shape == (9 + 2, 8)

    def test_same_location_different_mag_tokens_differ(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        m1 = pat_s.build_memory(f2x, [fix(100, 100, 2)], f10x, params, config)
        m2 = pat_s.build_memory(f2x, [fix(100, 100, 4)], f10x, params, config)
        assert np.allclose(m1.data[:9], m2.data[:9])
        assert not np.allclose(m1.data[9], m2.data[9])

    def test_history_rows_equal_per_point_oracle(self, rng):
        # row of fixation i: inproj(10X token) + pos2x[2X cell] + scale +
        # temporal (recency) + magnification, each cell from the oracle
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        history = [fix(0, 0), fix(400, 300, 2), fix(300, 400, 4), fix(1199.9, 600, 1),
                   fix(899.99, 1199.99, 5)]
        mem = pat_s.build_memory(f2x, history, f10x, params, config).data
        table = {k: p.data.astype(np.float64) for k, p in params.items()}
        for i, f in enumerate(history):
            r10, c10 = cell_of(f.x, f.y, f10x.rows, f10x.cols, 1200.0, 1200.0)
            r2, c2 = cell_of(f.x, f.y, f2x.rows, f2x.cols, 1200.0, 1200.0)
            want = (f10x.data[r10, c10] @ table["inproj.W"] + table["inproj.b"]
                    + table["pos2x"][r2 * f2x.cols + c2] + table["scale_emb"][1]
                    + table["temporal_emb"][len(history) - i]
                    + table["mag_emb"][f.mag.index])
            assert np.allclose(mem[9 + i], want, atol=1e-6), i

    def test_out_of_bounds_fixation(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        with pytest.raises(RangeError):
            pat_s.build_memory(f2x, [fix(99_999, 0)], f10x, params, config)
        with pytest.raises(RangeError):  # x == width, after an on-slide fixation
            pat_s.build_memory(f2x, [fix(100, 100), fix(1200, 0)], f10x, params, config)

    def test_temporal_index_caps(self):
        # indices into the temporal table stay within bounds for long histories
        config = tiny_config()
        f2x, f10x = tiny_grids()
        rng = np.random.default_rng(0)
        params = pat_s.init_scanpath_params(9, config, rng)
        history = [fix(100.0 + i * 0.001, 100.0) for i in range(200)]
        mem = pat_s.build_memory(f2x, history, f10x, params, config)
        assert mem.shape == (9 + 200, 8)


class TestForwardStep:
    def test_output_shapes(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        heat, mags = pat_s.forward_step(params, config, f2x, f10x, [fix(500, 500)])
        assert heat.shape == (4, 4)
        assert mags.shape == (6,)
        assert np.all((heat.data > 0) & (heat.data < 1))

    def test_aligned_token_scores_highest(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        mem = pat_s.build_memory(f2x, [fix(500, 500)], f10x, params, config)
        qp = pat_s.aggregate(pat_s.update_memory(mem, params, config), params, config)
        v = pat_s.mlp_h(qp, params).data.reshape(-1)
        # grid whose cell (2, 3) carries a token parallel to v, rest orthogonal
        basis = np.zeros((4, 4, 8))
        orth = np.zeros(8)
        orth[np.argmin(np.abs(v))] = 1.0
        basis[:, :] = orth - (orth @ v) * v / (v @ v)
        basis[2, 3] = v / np.linalg.norm(v)
        grid = FeatureGrid(MagLevel(3), basis.astype(np.float32), 1200.0, 1200.0)
        heat = pat_s.predict_fixation_heatmap(qp, grid, params)
        assert np.unravel_index(np.argmax(heat.data), (4, 4)) == (2, 3)

    def test_gradient_flows_to_both_heads(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        params = pat_s.init_scanpath_params(9, config, rng)
        heat, mags = pat_s.forward_step(params, config, f2x, f10x, [fix(500, 500)])
        gt = target_map((4, 4), (1, 2), MagLevel(3))
        loss = pat_s.total_loss(
            pat_s.focal_loss(heat, gt),
            pat_s.mag_loss(mags, 3, np.ones(6)),
        )
        ad.backward(loss)
        assert np.any(params["maghead.W"].grad != 0)
        assert np.any(params["mlph.fc1.W"].grad != 0)
        assert np.any(params["inproj.W"].grad != 0)


class TestDtype:
    """A model's dtype is its parameters' dtype: float32 from init, float64
    after an upcast, whatever the dtype of the provider grids."""

    def test_init_makes_only_float32_tensors(self, rng):
        params = pat_s.init_scanpath_params(9, tiny_config(), rng)
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
        assert all(p.requires_grad for p in params.values())

    def test_upcast_model_runs_in_float64_on_float32_grids(self, rng):
        config = tiny_config()
        f2x, f10x = tiny_grids()
        assert f2x.data.dtype == f10x.data.dtype == np.float32
        params = upcast(pat_s.init_scanpath_params(9, config, rng))
        heat, mags = pat_s.forward_step(params, config, f2x, f10x,
                                        [fix(100, 100), fix(700, 500, 2)])
        assert heat.data.dtype == mags.data.dtype == np.float64
        gt = target_map((4, 4), (1, 2), MagLevel(3))
        loss = pat_s.total_loss(pat_s.focal_loss(heat, gt),
                                pat_s.mag_loss(mags, 2, np.ones(6)))
        ad.backward(loss)
        assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float64)}


def test_config_fields_are_pinned():
    assert {f.name for f in dataclasses.fields(ScanpathModelConfig)} == {
        "dim", "model_dim", "enc_layers", "dec_layers", "heads", "lr", "epochs", "seed"}


class TestTargetHeatmap:
    def test_peak_is_one_at_cell(self):
        y = target_map((5, 5), (1, 3), MagLevel(3))
        assert y[1, 3] == pytest.approx(1.0)
        assert y.max() == pytest.approx(1.0)
        assert np.all(y >= 0)

    def test_higher_mag_tighter_blob(self):
        y1 = target_map((9, 9), (4, 4), MagLevel(0))
        y5 = target_map((9, 9), (4, 4), MagLevel(5))
        assert (y5 > 0.5).sum() < (y1 > 0.5).sum()


class TestPrefixExamples:
    def test_counts(self):
        sp = Scanpath("w", "r", [fix(1, 1), fix(2, 2), fix(3, 3)])
        examples = pat_s.prefix_examples([("w", sp)])
        assert [(k) for _, _, k in examples] == [1, 2]

    def test_short_scanpath_skipped_with_warning(self):
        sp = Scanpath("w", "r", [fix(1, 1)])
        with pytest.warns(UserWarning):
            assert pat_s.prefix_examples([("w", sp)]) == []


class TestTraining:
    def test_loss_decreases_and_deterministic(self, small_corpus):
        maps, scanpaths, provider = small_corpus
        wsi = scanpaths[0].wsi_id
        sp = Scanpath(wsi, "r", scanpaths[0].fixations[:6])
        config = ScanpathModelConfig(dim=16, model_dim=16, heads=2, epochs=8,
                                     seed=1, lr=3e-3)
        params1, log1 = pat_s.train_scanpath([(wsi, sp)], provider, config)
        assert log1[-1][3] < log1[0][3]
        params2, log2 = pat_s.train_scanpath([(wsi, sp)], provider, config)
        assert log1 == log2
        for k in params1:
            assert np.array_equal(params1[k].data, params2[k].data)


class TestTrainingDtype:
    """One stage-2 epoch at the default config keeps the float32 parameters
    it was initialised with, so the saved checkpoint is the trained model."""

    @pytest.fixture(scope="class")
    def trained(self):
        _, scanpaths, provider = make_corpus(n_wsis=1, n_readers=1, n_samples=40,
                                             seed=7, grid=16, dim=32)
        config = ScanpathModelConfig(epochs=1)
        params, _ = pat_s.train_scanpath([(sp.wsi_id, sp) for sp in scanpaths],
                                         provider, config)
        return params

    def test_every_parameter_stays_float32(self, trained):
        assert {k: p.data.dtype for k, p in trained.items()} == \
            {k: np.dtype(np.float32) for k in trained}

    def test_saved_checkpoint_is_the_trained_model(self, trained, tmp_path):
        ad.save_checkpoint(tmp_path / "s.psck", trained)
        loaded = ad.load_checkpoint(tmp_path / "s.psck")
        assert set(loaded) == set(trained)
        for k, p in trained.items():
            assert loaded[k].dtype == p.data.dtype
            assert loaded[k].tobytes() == p.data.tobytes(), k
