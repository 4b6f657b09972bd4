import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

import pathscan.autodiff as ad
import pathscan.pat_h as pat_h
from pathscan.errors import DegenerateInputError, InvalidInputError, ShapeError
from pathscan.features import FeatureGrid
from pathscan.pat_h import HeatmapModelConfig
from pathscan.trajectory import Fixation, MagLevel

from conftest import upcast


def tiny_grid(rows=3, cols=3, dim=8, seed=0):
    data = np.random.default_rng(seed).standard_normal((rows, cols, dim))
    return FeatureGrid(MagLevel(1), data.astype(np.float32), cols * 100.0, rows * 100.0)


def tiny_config(**kw):
    defaults = dict(dim=8, layers=1, heads=2, epochs=5)
    defaults.update(kw)
    return HeatmapModelConfig(**defaults)


class TestCC:
    def test_self_correlation(self):
        m = np.random.default_rng(0).random((4, 4))
        assert pat_h.cc(m, m) == pytest.approx(1.0)

    def test_anti_correlation(self):
        m = np.random.default_rng(0).random((4, 4))
        assert pat_h.cc(m, 1.0 - m) == pytest.approx(-1.0)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[2.0, 4.0], [6.0, 8.0]])
        assert pat_h.cc(a, b) == pytest.approx(1.0)

    def test_constant_map_rejected(self):
        with pytest.raises(DegenerateInputError):
            pat_h.cc(np.ones((3, 3)), np.random.default_rng(0).random((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pat_h.cc(np.ones((2, 2)), np.ones((3, 3)))


class TestLossCC:
    def test_equals_one_minus_cc(self):
        rng = np.random.default_rng(1)
        pred = rng.random((3, 3))
        gt = rng.random((3, 3))
        loss = pat_h.loss_cc(ad.Tensor(pred), gt)
        assert loss.item() == pytest.approx(1.0 - pat_h.cc(pred, gt), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        gt = rng.random((3, 3))
        pred = ad.Tensor(rng.random((3, 3)), requires_grad=True)
        loss = pat_h.loss_cc(pred, gt)
        ad.backward(loss)
        eps = 1e-6
        num = np.zeros_like(pred.data)
        for i in range(3):
            for j in range(3):
                orig = pred.data[i, j]
                pred.data[i, j] = orig + eps
                hi = pat_h.loss_cc(pred, gt).item()
                pred.data[i, j] = orig - eps
                lo = pat_h.loss_cc(pred, gt).item()
                pred.data[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        rel = np.abs(num - pred.grad).max() / max(np.abs(num).max(), 1e-8)
        assert rel < 1e-4

    def test_constant_gt_rejected(self):
        with pytest.raises(DegenerateInputError):
            pat_h.loss_cc(ad.Tensor(np.random.default_rng(0).random(4)), np.ones(4))


class TestDecode:
    def test_hand_set_weights_match_manual(self, rng):
        params = {
            "decode.W": ad.Tensor(np.array([[0.5], [-1.0]])),
            "decode.b": ad.Tensor(np.array([0.25])),
        }
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = pat_h.decode_scores(ad.Tensor(z), params)
        assert np.allclose(scores.data, z @ np.array([[0.5], [-1.0]]) + 0.25)

    def test_constant_scores_normalize_to_zeros(self):
        params = {
            "decode.W": ad.Tensor(np.zeros((2, 1))),
            "decode.b": ad.Tensor(np.array([3.0])),
        }
        z = ad.Tensor(np.random.default_rng(0).random((4, 2)))
        h = pat_h.decode_heatmap(z, params, 2, 2)
        assert np.array_equal(h, np.zeros((2, 2)))

    def test_single_max_normalizes_to_one(self):
        params = {
            "decode.W": ad.Tensor(np.array([[1.0]])),
            "decode.b": ad.Tensor(np.array([0.0])),
        }
        z = ad.Tensor(np.array([[0.0], [2.0], [1.0], [0.5]]))
        h = pat_h.decode_heatmap(z, params, 2, 2)
        assert h.max() == 1.0 and h.flat[1] == 1.0


class TestEncode:
    def test_permutation_equivariance(self, rng):
        config = tiny_config(layers=1)
        grid = tiny_grid(2, 2, 8)
        params = upcast(pat_h.init_heatmap_params(4, config, rng))
        base = pat_h.encode(grid, params, config).data

        perm = np.array([2, 0, 3, 1])
        grid_p = FeatureGrid(grid.mag, grid.flat()[perm].reshape(2, 2, 8),
                             grid.width_px, grid.height_px)
        params_p = dict(params)
        params_p["pos"] = ad.Tensor(params["pos"].data[perm])
        out_p = pat_h.encode(grid_p, params_p, config).data
        assert np.allclose(out_p, base[perm], atol=1e-10)

    def test_dim_mismatch_rejected(self, rng):
        config = tiny_config()
        params = pat_h.init_heatmap_params(9, config, rng)
        bad = tiny_grid(3, 3, dim=4)
        with pytest.raises(ShapeError):
            pat_h.encode(bad, params, config)


class TestFixationsToHeatmap:
    def test_two_distant_fixations_equal_peaks(self):
        fixations = [
            Fixation(50.0, 50.0, MagLevel(1), 100.0),
            Fixation(1550.0, 1550.0, MagLevel(1), 100.0),
        ]
        h = pat_h.gaussian_map(fixations, (16, 16), 1600.0, 1600.0)
        assert h[0, 0] == pytest.approx(h[15, 15])
        assert h.max() == 1.0

    def test_sigma_shrinks_with_magnification(self):
        f1 = Fixation(800.0, 800.0, MagLevel(0), 100.0)
        f40 = Fixation(800.0, 800.0, MagLevel(5), 100.0)
        h1 = pat_h.gaussian_map([f1], (16, 16), 1600.0, 1600.0)
        h40 = pat_h.gaussian_map([f40], (16, 16), 1600.0, 1600.0)
        # the 40X blob is much more concentrated
        assert (h40 > 0.5).sum() < (h1 > 0.5).sum()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 39), st.integers(1, 39),
           st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                              st.floats(0, 1, exclude_max=True), st.integers(0, 5)),
                    min_size=1, max_size=5))
    def test_each_magnification_blurred_then_summed(self, rows, cols, cells):
        """Bytes equal to scipy's gaussian_filter of each level's deltas,
        summed in first-seen level order and max-normalized."""
        fixations = [Fixation((int(u * cols) + 0.5) * 10.0, (int(v * rows) + 0.5) * 10.0,
                              MagLevel(m), 100.0) for u, v, m in cells]
        got = pat_h.gaussian_map(fixations, (rows, cols), cols * 10.0, rows * 10.0)
        want = np.zeros((rows, cols))
        for m in dict.fromkeys(m for _, _, m in cells):
            d = np.zeros((rows, cols))
            for u, v, _ in [cell for cell in cells if cell[2] == m]:
                d[int(v * rows), int(u * cols)] += 1.0
            want += gaussian_filter(d, sigma=cols / 8.0 / MagLevel(m).factor, mode="constant")
        assert np.array_equal(got, want / want.max())

    def test_no_fixations_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            h = pat_h.gaussian_map([], (4, 4), 100.0, 100.0)
        assert np.array_equal(h, np.zeros((4, 4)))

    def test_shape_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            pat_h.gaussian_map([], (0, 4), 100.0, 100.0)


class TestTraining:
    def make_corpus(self, seed=0):
        rng = np.random.default_rng(seed)
        items = []
        for i in range(2):
            grid = tiny_grid(4, 4, 8, seed=seed + i)
            gt = rng.random((4, 4))
            items.append((grid, gt))
        return {1: items}

    def test_loss_decreases(self):
        config = tiny_config(epochs=10, seed=0)
        models, curves = pat_h.train_heatmap(self.make_corpus(), config)
        assert 1 in models
        assert curves[1][-1] < curves[1][0]

    def test_deterministic(self):
        config = tiny_config(epochs=3, seed=4)
        m1, c1 = pat_h.train_heatmap(self.make_corpus(), config)
        m2, c2 = pat_h.train_heatmap(self.make_corpus(), config)
        assert c1 == c2
        for k in m1[1]:
            assert np.array_equal(m1[1][k].data, m2[1][k].data)

    def test_save_load_roundtrip(self, tmp_path):
        config = tiny_config(epochs=2)
        models, _ = pat_h.train_heatmap(self.make_corpus(), config)
        path = tmp_path / "h.psck"
        pat_h.save_heatmap_models(path, models, config)
        loaded, loaded_config = pat_h.load_heatmap_models(path)
        assert loaded_config == config
        assert set(loaded) == {1}
        for k, t in models[1].items():
            assert np.array_equal(loaded[1][k].data, t.data)


def test_one_epoch_at_default_config_stays_float32():
    rng = np.random.default_rng(5)
    config = HeatmapModelConfig(epochs=1)
    corpus = {m: [(tiny_grid(4, 4, config.dim, seed=m), rng.random((4, 4)))]
              for m in pat_h.LEVELS}
    models, _ = pat_h.train_heatmap(corpus, config)
    promoted = {(m, k) for m, ps in models.items() for k, p in ps.items()
                if p.data.dtype != np.float32}
    assert list(models) == list(pat_h.LEVELS) and promoted == set()


def test_trains_the_levels_its_corpus_holds_in_level_order():
    rng = np.random.default_rng(6)
    corpus = {m: [(tiny_grid(3, 3, 8, seed=m), rng.random((3, 3)))] for m in (5, 0, 3)}
    models, curves = pat_h.train_heatmap(corpus, tiny_config(epochs=1))
    assert list(models) == list(curves) == [0, 3, 5]


def test_init_makes_only_float32_tensors(rng):
    params = pat_h.init_heatmap_params(9, tiny_config(), rng)
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    assert all(p.requires_grad for p in params.values())


def test_upcast_model_encodes_float32_grids_in_float64(rng):
    config = tiny_config()
    grid = tiny_grid(3, 3, 8)
    assert grid.data.dtype == np.float32
    params = upcast(pat_h.init_heatmap_params(9, config, rng))
    z = pat_h.encode(grid, params, config)
    assert z.data.dtype == np.float64
    ad.backward(pat_h.loss_cc(pat_h.decode_scores(z, params), rng.random((3, 3))))
    assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float64)}


def test_config_fields_are_pinned():
    assert {f.name for f in dataclasses.fields(HeatmapModelConfig)} == {
        "dim", "layers", "heads", "lr", "epochs", "seed"}

