import numpy as np
import pytest

import pathscan.autodiff as ad
import pathscan.pat_h as pat_h
from pathscan.errors import DegenerateInputError, InvalidInputError, ShapeError
from pathscan.features import FeatureGrid
from pathscan.pat_h import Heatmap, HeatmapModelConfig
from pathscan.trajectory import Fixation, MagLevel


def tiny_grid(rows=3, cols=3, dim=8, seed=0):
    data = np.random.default_rng(seed).standard_normal((rows, cols, dim))
    return FeatureGrid(MagLevel(1), data.astype(np.float32), 100.0)


def tiny_config(**kw):
    defaults = dict(dim=8, layers=1, heads=2, epochs=5, dtype=np.float64)
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
        h = pat_h.decode_heatmap(z, params, MagLevel(1), 2, 2)
        assert np.array_equal(h.values, np.zeros((2, 2)))

    def test_single_max_normalizes_to_one(self):
        params = {
            "decode.W": ad.Tensor(np.array([[1.0]])),
            "decode.b": ad.Tensor(np.array([0.0])),
        }
        z = ad.Tensor(np.array([[0.0], [2.0], [1.0], [0.5]]))
        h = pat_h.decode_heatmap(z, params, MagLevel(1), 2, 2)
        assert h.values.max() == 1.0 and h.values.flat[1] == 1.0


class TestEncode:
    def test_permutation_equivariance(self, rng):
        config = tiny_config(layers=1)
        grid = tiny_grid(2, 2, 8)
        params = pat_h.init_heatmap_params(4, config, rng)
        base = pat_h.encode(grid, params, config).data

        perm = np.array([2, 0, 3, 1])
        grid_p = FeatureGrid(grid.mag,
                             grid.flat()[perm].reshape(2, 2, 8), grid.patch_px)
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

    def test_each_magnification_blurred_then_summed(self):
        from scipy.ndimage import gaussian_filter

        fixations = [Fixation(150.0, 150.0, MagLevel(2), 1.0),
                     Fixation(650.0, 450.0, MagLevel(0), 1.0)]
        got = pat_h.gaussian_map(fixations, (8, 8), 800.0, 800.0)
        d4, d1 = np.zeros((8, 8)), np.zeros((8, 8))
        d4[1, 1] = d1[4, 6] = 1.0
        want = (gaussian_filter(d4, sigma=1.0 / 4, mode="constant")
                + gaussian_filter(d1, sigma=1.0, mode="constant"))
        assert np.allclose(got, want / want.max())

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
            items.append((grid, Heatmap(MagLevel(1), gt)))
        return {1: items}

    def test_loss_decreases(self):
        config = tiny_config(epochs=10, mags_trained=(1,), seed=0)
        models, curves = pat_h.train_heatmap(self.make_corpus(), config)
        assert 1 in models
        assert curves[1][-1] < curves[1][0]

    def test_deterministic(self):
        config = tiny_config(epochs=3, mags_trained=(1,), seed=4)
        m1, c1 = pat_h.train_heatmap(self.make_corpus(), config)
        m2, c2 = pat_h.train_heatmap(self.make_corpus(), config)
        assert c1 == c2
        for k in m1[1]:
            assert np.array_equal(m1[1][k].data, m2[1][k].data)

    def test_save_load_roundtrip(self, tmp_path):
        config = tiny_config(epochs=2, mags_trained=(1,))
        models, _ = pat_h.train_heatmap(self.make_corpus(), config)
        path = tmp_path / "h.psck"
        pat_h.save_heatmap_models(path, models)
        loaded = pat_h.load_heatmap_models(path)
        assert set(loaded) == {1}
        for k, t in models[1].items():
            assert np.allclose(loaded[1][k], t.data.astype(np.float32))


class TestExports:
    def test_pgm_header_and_size(self):
        h = Heatmap(MagLevel(1), np.linspace(0, 1, 12).reshape(3, 4))
        raw = pat_h.heatmap_to_pgm(h, comment="test")
        assert raw.startswith(b"P5\n")
        assert b"4 3\n65535\n" in raw
        assert raw.endswith(np.ndarray.tobytes(
            (np.linspace(0, 1, 12).reshape(3, 4) * 65535).round().astype(">u2")))

    def test_json_roundtrip(self):
        import json

        h = Heatmap(MagLevel(3), np.eye(2))
        rec = json.loads(pat_h.heatmap_to_json(h))
        assert rec["mag"] == 10 and rec["values"] == [[1.0, 0.0], [0.0, 1.0]]
