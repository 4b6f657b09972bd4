import numpy as np
import pytest

import pathscan.inference as inf
import pathscan.pat_s as pat_s
from pathscan.errors import DegenerateInputError, InvalidInputError
from pathscan.features import FeatureGrid
from pathscan.pat_h import Heatmap
from pathscan.pat_s import ScanpathModelConfig
from pathscan.trajectory import Fixation, MagLevel, Scanpath


def heat(values):
    return Heatmap(MagLevel(3), np.asarray(values, dtype=np.float64))


class TestNextLocation:
    def test_single_hot_cell(self):
        h = heat([[0, 0], [0, 1]])
        assert inf.next_location(h, 100.0, 100.0) == (75.0, 75.0)

    def test_tie_breaks_row_major(self):
        h = heat([[0, 1], [1, 0]])
        x, y = inf.next_location(h, 100.0, 100.0)
        assert (x, y) == (75.0, 25.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.random((5, 5))
            x, y = inf.next_location(heat(vals), 50.0, 50.0)
            best = None
            for r in range(5):
                for c in range(5):
                    if best is None or vals[r, c] > best[0]:
                        best = (vals[r, c], r, c)
            assert (x, y) == ((best[2] + 0.5) * 10.0, (best[1] + 0.5) * 10.0)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            inf.next_location(heat(np.zeros((3, 3))), 10.0, 10.0)


class TestIor:
    def test_state_validation(self):
        with pytest.raises(InvalidInputError):
            inf.IorState(radius_px=0.0)
        with pytest.raises(InvalidInputError):
            inf.IorState(radius_px=1.0, decay=1.0)

    def test_suppression_moves_argmax(self):
        vals = np.random.default_rng(1).random((6, 6))
        h = heat(vals)
        wsi = 60.0
        x, y = inf.next_location(h, wsi, wsi)
        state = inf.IorState(radius_px=15.0, decay=0.0)
        state.visit(x, y, MagLevel(3))
        h2 = inf.apply_ior(h, state, wsi, wsi)
        x2, y2 = inf.next_location(h2, wsi, wsi)
        assert np.hypot(x2 - x, y2 - y) > 15.0

    def test_decay_scales_instead_of_zeroing(self):
        h = heat(np.ones((4, 4)))
        state = inf.IorState(radius_px=100.0, decay=0.5)
        state.visit(20.0, 20.0, MagLevel(0))
        out = inf.apply_ior(h, state, 40.0, 40.0)
        assert np.allclose(out.values, 0.5)


class TestNextMag:
    def test_pinned_deterministic_example(self):
        logits = np.array([0.05, 0.10, 0.30, 0.20, 0.30, 0.05])
        m = inf.next_mag_probmag(logits, MagLevel.from_factor(2), deterministic=True)
        assert m.factor == 4

    def test_band_respects_boundaries(self):
        logits = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        m = inf.next_mag_probmag(logits, MagLevel(0), deterministic=True)
        assert m.index == 0  # restricted band has no mass: stay

    def test_all_zero_band_stays(self):
        logits = np.zeros(6)
        assert inf.next_mag_probmag(logits, MagLevel(2), deterministic=True).index == 2

    def test_sampling_needs_rng(self):
        with pytest.raises(InvalidInputError):
            inf.next_mag_probmag(np.ones(6), MagLevel(2))

    def test_probmag_sampling_frequencies(self):
        logits = np.array([0.1, 0.2, 0.4, 0.3, 0.0, 0.0])
        rng = np.random.default_rng(0)
        counts = np.zeros(6)
        n = 30_000
        for _ in range(n):
            counts[inf.next_mag_probmag(logits, MagLevel(2), rng).index] += 1
        want = np.array([0.0, 0.2, 0.4, 0.3, 0.0, 0.0])
        want = want / want.sum()
        assert np.all(np.abs(counts / n - want) < 0.02)

    def test_priormag_sampling_frequencies(self):
        probs = np.full((6, 6), 1.0 / 6.0)
        tm = inf.TransitionMatrix(probs)
        rng = np.random.default_rng(1)
        counts = np.zeros(6)
        n = 30_000
        for _ in range(n):
            counts[inf.next_mag_priormag(tm, MagLevel(0), rng).index] += 1
        assert abs(counts[0] / n - 0.5) < 0.02
        assert abs(counts[1] / n - 0.5) < 0.02
        assert counts[2:].sum() == 0

    def test_priormag_stay_only_row(self):
        probs = np.zeros((6, 6))
        for i in range(6):
            probs[i, i] = 1.0
        tm = inf.TransitionMatrix(probs)
        rng = np.random.default_rng(2)
        assert inf.next_mag_priormag(tm, MagLevel(4), rng).index == 4


class TestTransitionMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            inf.TransitionMatrix(np.zeros((6, 6)))
        with pytest.raises(InvalidInputError):
            inf.TransitionMatrix(np.ones((3, 3)))


class TestInferLength:
    def test_mean_rounding(self):
        def sp(n):
            return Scanpath("w", "r", [Fixation(0, 0, MagLevel(0), 1.0)] * n)

        assert inf.infer_length([sp(10), sp(20)]) == 15
        assert inf.infer_length([sp(7)]) == 7

    def test_empty_corpus(self):
        with pytest.raises(InvalidInputError):
            inf.infer_length([])


@pytest.fixture(scope="module")
def rollout_setup():
    rng = np.random.default_rng(3)
    config = ScanpathModelConfig(dim=8, model_dim=8, heads=2)
    f2x = FeatureGrid(MagLevel(1),
                      rng.standard_normal((4, 4, 8)).astype(np.float32), 300.0)
    f10x = FeatureGrid(MagLevel(3),
                       rng.standard_normal((8, 8, 8)).astype(np.float32), 150.0)
    params = pat_s.init_scanpath_params(16, config, rng)
    return params, config, f2x, f10x


class TestRollout:
    def test_n1_is_center_fixation(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        res = inf.rollout(params, config, f2x, f10x, 1)
        assert not res.aborted
        f = res.scanpath.fixations[0]
        assert (f.x, f.y, f.mag.index) == (600.0, 600.0, 0)

    def test_exact_length_and_band_law(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        res = inf.rollout(params, config, f2x, f10x, 8, seed=5,
                          ior_radius_px=160.0)
        assert not res.aborted and len(res.scanpath) == 8
        idx = res.scanpath.mag_indices()
        assert all(abs(b - a) <= 1 for a, b in zip(idx, idx[1:]))

    def test_no_immediate_revisit(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        res = inf.rollout(params, config, f2x, f10x, 8, seed=6,
                          ior_radius_px=160.0)
        cells = [(int(f.y // 150), int(f.x // 150)) for f in res.scanpath.fixations]
        assert all(a != b for a, b in zip(cells, cells[1:]))

    def test_seeded_reproducibility(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        a = inf.rollout(params, config, f2x, f10x, 8, seed=9, ior_radius_px=160.0)
        b = inf.rollout(params, config, f2x, f10x, 8, seed=9, ior_radius_px=160.0)
        assert a.scanpath.fixations == b.scanpath.fixations

    def test_priormag_mode(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        probs = np.zeros((6, 6))
        for i in range(6):
            probs[i, min(i + 1, 5)] = 1.0
        res = inf.rollout(params, config, f2x, f10x, 6, mode="priormag", seed=2,
                          transition_matrix=inf.TransitionMatrix(probs),
                          ior_radius_px=160.0)
        assert res.scanpath.mag_indices() == [0, 1, 2, 3, 4, 5]

    def test_priormag_requires_matrix(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        with pytest.raises(InvalidInputError):
            inf.rollout(params, config, f2x, f10x, 4, mode="priormag")

    def test_abort_with_partial_result(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        # a giant hard-suppression radius wipes the map after a few steps
        res = inf.rollout(params, config, f2x, f10x, 100, seed=1,
                          ior_radius_px=2400.0)
        assert res.aborted and res.reason
        assert 1 <= len(res.scanpath) < 100

    def test_invalid_args(self, rollout_setup):
        params, config, f2x, f10x = rollout_setup
        with pytest.raises(InvalidInputError):
            inf.rollout(params, config, f2x, f10x, 0)
        with pytest.raises(InvalidInputError):
            inf.rollout(params, config, f2x, f10x, 3, mode="magic")
