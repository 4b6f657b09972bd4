import itertools
import math

import numpy as np
import pytest

import pathscan.metrics as mx
from pathscan.errors import ContractError, DegenerateInputError, InvalidInputError
from pathscan.features import FeatureGrid
from pathscan.pat_h import Heatmap
from pathscan.synth import GradeMap
from pathscan.trajectory import Fixation, MagLevel, Scanpath


def heat(values):
    return Heatmap(MagLevel(3), np.asarray(values, dtype=np.float64))


def fix(x, y, mag=3):
    return Fixation(x, y, MagLevel(mag), 100.0)


class TestNss:
    def test_hand_z_score(self):
        vals = np.array([[0.0, 0.0], [0.0, 1.0]])
        got = mx.nss(heat(vals), [fix(75.0, 75.0)], 100.0, 100.0)
        want = (1.0 - 0.25) / vals.std()
        assert got == pytest.approx(want)

    def test_requires_fixations(self):
        with pytest.raises(InvalidInputError):
            mx.nss(heat(np.eye(3)), [], 30.0, 30.0)

    def test_constant_map_rejected(self):
        with pytest.raises(DegenerateInputError):
            mx.nss(heat(np.ones((3, 3))), [fix(5, 5)], 30.0, 30.0)

    def test_random_fixations_mean_near_zero(self):
        rng = np.random.default_rng(0)
        vals = rng.random((8, 8))
        h = heat(vals)
        total = 0.0
        n = 2000
        for _ in range(n):
            total += mx.nss(h, [fix(rng.uniform(0, 80), rng.uniform(0, 80))],
                            80.0, 80.0)
        assert abs(total / n) < 0.08


def auc_pairwise_oracle(vals, mask):
    """AUC = P(pos > neg) + 0.5 P(pos == neg) over all (pos, neg) pairs."""
    pos = vals[mask]
    neg = vals[~mask]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAucJudd:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            vals = np.round(rng.random((6, 6)), 1)  # rounding forces ties
            fixations = [fix(rng.uniform(0, 60), rng.uniform(0, 60))
                         for _ in range(4)]
            got = mx.auc_judd(heat(vals), fixations, 60.0, 60.0)
            mask = np.zeros((6, 6), dtype=bool)
            for rc in mx._fixation_cells(fixations, (6, 6), 60.0, 60.0):
                mask[rc] = True
            want = auc_pairwise_oracle(vals.ravel(), mask.ravel())
            assert got == pytest.approx(want, abs=1e-12)

    def test_perfect_map(self):
        vals = np.zeros((4, 4))
        vals[2, 2] = 1.0
        assert mx.auc_judd(heat(vals), [fix(25.0, 25.0)], 40.0, 40.0) == 1.0

    def test_all_cells_fixated_rejected(self):
        fixations = [fix(x + 0.5, y + 0.5) for x in range(2) for y in range(2)]
        with pytest.raises(ContractError):
            mx.auc_judd(heat(np.eye(2)), fixations, 2.0, 2.0)


class TestGradeString:
    def map(self):
        grid = np.zeros((8, 8), dtype=np.int8)
        grid[1, 1] = 1  # Benign
        grid[2, 2] = 2  # G3
        grid[3, 3] = 3  # G4
        grid[4, 4] = 4  # G5
        return GradeMap(grid, 10.0)

    def test_hand_trace(self):
        sp = Scanpath("w", "r", [fix(15, 15), fix(25, 25), fix(35, 35),
                                 fix(45, 45), fix(75, 75)])
        assert mx.grade_string(sp, self.map()) == "B345"

    def test_background_dropped(self):
        sp = Scanpath("w", "r", [fix(75, 75), fix(25, 25)])
        assert mx.grade_string(sp, self.map()) == "3"


def nw_enumeration_oracle(a, b, match=1.0, mismatch=-1.0, gap=-1.0):
    """Exhaustive recursion over all global alignments."""
    def go(i, j):
        if i == len(a) and j == len(b):
            return 0.0
        best = -math.inf
        if i < len(a) and j < len(b):
            s = match if a[i] == b[j] else mismatch
            best = max(best, s + go(i + 1, j + 1))
        if i < len(a):
            best = max(best, gap + go(i + 1, j))
        if j < len(b):
            best = max(best, gap + go(i, j + 1))
        return best

    raw = go(0, 0)
    return min(1.0, max(0.0, raw / (match * max(len(a), len(b)))))


class TestNeedlemanWunsch:
    def test_identical_strings(self):
        assert mx.needleman_wunsch("B345", "B345") == 1.0

    def test_hand_case(self):
        got = mx.needleman_wunsch("B34", "B3")
        assert got == pytest.approx(nw_enumeration_oracle("B34", "B3"))

    def test_disjoint_alphabets(self):
        got = mx.needleman_wunsch("BBB", "555")
        assert got == pytest.approx(nw_enumeration_oracle("BBB", "555"))

    def test_matches_enumeration_on_short_strings(self):
        alphabet = "B345"
        strings = [
            "".join(s)
            for n in (1, 2, 3)
            for s in itertools.product(alphabet, repeat=n)
        ]
        rng = np.random.default_rng(0)
        pairs = [(strings[i], strings[j])
                 for i, j in rng.integers(0, len(strings), size=(120, 2))]
        for a, b in pairs:
            assert mx.needleman_wunsch(a, b) == pytest.approx(
                nw_enumeration_oracle(a, b)
            )

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mx.needleman_wunsch("", "B")


class TestSss:
    def map(self):
        grid = np.zeros((8, 8), dtype=np.int8)
        grid[1:4, 1:4] = 2
        return GradeMap(grid, 10.0)

    def test_identical_scanpaths_score_one(self):
        sp = Scanpath("w", "r", [fix(15, 15), fix(25, 25)])
        assert mx.sss(sp, [sp], self.map()) == 1.0

    def test_background_only_pred_rejected(self):
        pred = Scanpath("w", "r", [fix(75, 75)])
        gt = Scanpath("w", "r", [fix(15, 15)])
        with pytest.raises(DegenerateInputError):
            mx.sss(pred, [gt], self.map())


def toy_provider(tokens_by_mag):
    class P:
        def get(self, wsi_id, mag):
            return tokens_by_mag[mag.index]

    return P()


class TestTokSim:
    def grid(self, data):
        arr = np.asarray(data, dtype=np.float32)
        return FeatureGrid(MagLevel(3), arr, 100.0, 100.0 * arr.shape[0] / arr.shape[1])

    def test_orthogonal_tokens_zero(self):
        data = np.zeros((1, 2, 2), dtype=np.float32)
        data[0, 0] = [1, 0]
        data[0, 1] = [0, 1]
        provider = toy_provider({3: self.grid(data)})
        pred = Scanpath("w", "p", [fix(25, 25)])   # token [1, 0]
        gt = Scanpath("w", "g", [fix(75, 25)])     # token [0, 1]
        per, overall = mx.tok_sim_scan(pred, gt, provider, "w")
        assert overall == 0.0 and per[3] == 0.0

    def test_matches_brute_force_max_cosine(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((1, 4, 3)).astype(np.float32)
        provider = toy_provider({3: self.grid(data)})
        pred = Scanpath("w", "p", [fix(10, 10), fix(60, 10), fix(85, 10)])
        gt = Scanpath("w", "g", [fix(35, 10), fix(60, 10)])
        per, overall = mx.tok_sim_scan(pred, gt, provider, "w")

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        ptoks = [data[0, 0], data[0, 2], data[0, 3]]
        gtoks = [data[0, 1], data[0, 2]]
        want = np.mean([max(cos(p, g) for g in gtoks) for p in ptoks])
        assert overall == pytest.approx(want)

    def test_no_common_level_rejected(self):
        data = np.ones((1, 2, 2), dtype=np.float32)
        provider = toy_provider({3: self.grid(data), 0: self.grid(data)})
        pred = Scanpath("w", "p", [fix(10, 10, mag=0)])
        gt = Scanpath("w", "g", [fix(10, 10, mag=3)])
        with pytest.raises(DegenerateInputError):
            mx.tok_sim_scan(pred, gt, provider, "w")

    def test_tok_sim_fix(self):
        data = np.zeros((1, 2, 2), dtype=np.float32)
        data[0, 0] = [1, 0]
        data[0, 1] = [1, 0]
        provider = toy_provider({3: self.grid(data)})
        assert mx.tok_sim_fix(fix(10, 10), fix(60, 10), provider, "w") == pytest.approx(1.0)


class TestSpatialError:
    def test_hand_case(self):
        got = mx.spatial_error(fix(0.25, 0.25), fix(0.25, 0.75), 1.0, 1.0)
        assert got == pytest.approx(0.5)

    def test_normalized_per_axis(self):
        got = mx.spatial_error(fix(0, 0), fix(100, 50), 100.0, 50.0)
        assert got == pytest.approx(math.sqrt(2.0))

    def test_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            mx.spatial_error(fix(0, 0), fix(1, 1), 0.0, 1.0)


class TestMagAccuracy:
    def test_hand_counts(self):
        events = [(0, 1, 1), (1, 2, 2), (2, 3, 0), (3, 3, 3)]
        overall, per = mx.mag_accuracy(events)
        assert overall == pytest.approx(75.0)
        assert per[2] == 0.0 and per[0] == 100.0

    def test_change_accuracy_hand_counts(self):
        events = [(0, 1, 1), (1, 2, 0), (2, 2, 2)]
        overall, _ = mx.mag_change_accuracy(events)
        assert overall == pytest.approx(50.0)

    def test_never_change_predictor_scores_zero(self):
        events = [(c, c + 1, c) for c in range(5)]
        overall, per = mx.mag_change_accuracy(events)
        assert overall == 0.0
        assert all(v == 0.0 for v in per.values())

    def test_no_change_events_rejected(self):
        with pytest.raises(DegenerateInputError):
            mx.mag_change_accuracy([(1, 1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mx.mag_accuracy([])


class TestScanpathToHeatmap:
    def test_two_fixation_convolution(self):
        from scipy.ndimage import gaussian_filter

        sp = Scanpath("w", "r", [fix(25, 25, mag=3), fix(125, 125, mag=3)])
        got = mx.scanpath_to_heatmap(sp, (8, 8), 160.0, 160.0)
        delta = np.zeros((8, 8))
        delta[1, 1] += 1.0
        delta[6, 6] += 1.0
        want = gaussian_filter(delta, sigma=(8 / 8.0) / 10.0, mode="constant")
        want = want / want.max()
        assert np.allclose(got.values, want)

    def test_normalized_peak(self):
        sp = Scanpath("w", "r", [fix(25, 25)])
        got = mx.scanpath_to_heatmap(sp, (8, 8), 160.0, 160.0)
        assert got.values.max() == pytest.approx(1.0)
