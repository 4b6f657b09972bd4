import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter
from scipy.stats import rankdata

import pathscan.metrics as mx
from pathscan.errors import (
    ContractError,
    DegenerateInputError,
    InvalidInputError,
    PathscanError,
    RangeError,
)
from pathscan.features import FeatureGrid, token_at
from pathscan.synth import BACKGROUND, GRADE_CHARS, GradeMap
from pathscan.trajectory import MAG_FACTORS, Fixation, MagLevel, Scanpath

from conftest import cell_of


def fix(x, y, mag=3):
    return Fixation(x, y, MagLevel(mag), 100.0)


class TestNss:
    def test_hand_z_score(self):
        vals = np.array([[0.0, 0.0], [0.0, 1.0]])
        got = mx.nss(vals, [fix(75.0, 75.0)], 100.0, 100.0)
        want = (1.0 - 0.25) / vals.std()
        assert got == pytest.approx(want)

    def test_requires_fixations(self):
        with pytest.raises(InvalidInputError):
            mx.nss(np.eye(3), [], 30.0, 30.0)

    def test_constant_map_rejected(self):
        with pytest.raises(DegenerateInputError):
            mx.nss(np.ones((3, 3)), [fix(5, 5)], 30.0, 30.0)

    def test_random_fixations_mean_near_zero(self):
        rng = np.random.default_rng(0)
        h = rng.random((8, 8))
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
            got = mx.auc_judd(vals, fixations, 60.0, 60.0)
            mask = np.zeros((6, 6), dtype=bool)
            for rc in mx._fixated_cells(fixations, (6, 6), 60.0, 60.0):
                mask[rc] = True
            want = auc_pairwise_oracle(vals.ravel(), mask.ravel())
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3), st.data())
    def test_bytes_equal_rankdata_formula(self, rows, cols, levels, data):
        """Tied maps score to the bit what scipy's average ranks give."""
        vals = np.array(data.draw(st.lists(st.integers(0, levels), min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols) / 4.0
        xy = st.tuples(st.floats(0, cols, exclude_max=True), st.floats(0, rows, exclude_max=True))
        fixations = [fix(x, y) for x, y in data.draw(st.lists(xy, min_size=1, max_size=6))]
        mask = np.zeros((rows, cols), dtype=bool)
        mask[tuple(zip(*mx._fixated_cells(fixations, (rows, cols), cols, rows)))] = True
        n_pos, n_neg = int(mask.sum()), int((~mask).sum())
        if n_neg == 0:
            with pytest.raises(ContractError):
                mx.auc_judd(vals, fixations, cols, rows)
            return
        r_pos = rankdata(vals.ravel(), method="average")[mask.ravel()].sum()
        want = float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        assert mx.auc_judd(vals, fixations, cols, rows) == want

    def test_perfect_map(self):
        vals = np.zeros((4, 4))
        vals[2, 2] = 1.0
        assert mx.auc_judd(vals, [fix(25.0, 25.0)], 40.0, 40.0) == 1.0

    def test_all_cells_fixated_rejected(self):
        fixations = [fix(x + 0.5, y + 0.5) for x in range(2) for y in range(2)]
        with pytest.raises(ContractError):
            mx.auc_judd(np.eye(2), fixations, 2.0, 2.0)


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


def nw_python_loop(a, b):
    """The Python double loop that ``needleman_wunsch`` replaced."""
    n, m = len(a), len(b)
    prev = [mx.GAP * j for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [mx.GAP * i] + [0.0] * m
        for j in range(1, m + 1):
            s = mx.MATCH if a[i - 1] == b[j - 1] else mx.MISMATCH
            cur[j] = max(prev[j - 1] + s, prev[j] + mx.GAP, cur[j - 1] + mx.GAP)
        prev = cur
    norm = prev[m] / (mx.MATCH * max(n, m))
    return float(min(1.0, max(0.0, norm)))


@st.composite
def grade_string_pair(draw):
    """Two strings over the grade alphabet, of any lengths in 1..120 or of
    very unequal lengths (1..4 against 100..120)."""
    letters = GRADE_CHARS[BACKGROUND + 1:]
    if draw(st.booleans()):
        short, long_ = st.text(letters, min_size=1, max_size=4), \
            st.text(letters, min_size=100, max_size=120)
        a, b = draw(short), draw(long_)
        return (a, b) if draw(st.booleans()) else (b, a)
    return (draw(st.text(letters, min_size=1, max_size=120)),
            draw(st.text(letters, min_size=1, max_size=120)))


class TestNeedlemanWunschRows:
    @settings(max_examples=200, deadline=None)
    @given(grade_string_pair())
    def test_equals_python_loop(self, pair):
        a, b = pair
        assert mx.needleman_wunsch(a, b) == nw_python_loop(a, b)
        assert mx.needleman_wunsch(b, a) == nw_python_loop(a, b)


@st.composite
def grade_map_and_points(draw, cells=st.sampled_from([1.0, 10.0, 385.8])
                         | st.floats(0.5, 500.0), outside=True):
    """A grade map with rows != cols allowed and fixations anywhere on it,
    on cell boundaries, on the far edges, and (sometimes, if ``outside``)
    one off it."""
    h = draw(st.integers(8, 20))
    w = draw(st.integers(8, 20))
    cell = draw(cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gm = GradeMap(rng.integers(0, 5, (h, w)).astype(np.int8), cell)
    points = draw(st.lists(frame_point(gm.width_px, gm.height_px, cell, cell),
                           min_size=1, max_size=30))
    if outside and draw(st.integers(0, 4)) == 0:
        points.insert(draw(st.integers(0, len(points))),
                      draw(outside_point(gm.width_px, gm.height_px)))
    return gm, [Fixation(x, y, MagLevel(draw(st.integers(0, 5))), 0.0)
                for x, y in points]


def frame_point(width, height, step_x, step_y):
    """A point in [0, width) x [0, height): anywhere, on a boundary of a
    step_x by step_y lattice, or on the far edges."""
    def on_lattice(step, size):
        return st.integers(0, int(size / step) - 1).map(lambda k: k * step)

    def near_edge(size):
        return st.just(float(np.nextafter(size, 0.0)))

    axis_x = (st.floats(0.0, width, exclude_max=True) | on_lattice(step_x, width)
              | near_edge(width))
    axis_y = (st.floats(0.0, height, exclude_max=True) | on_lattice(step_y, height)
              | near_edge(height))
    return st.tuples(axis_x, axis_y)


def outside_point(width, height):
    return st.sampled_from([(-1e-9, 0.0), (width, 0.0), (0.0, height),
                            (-width, height / 2), (width / 2, 2 * height)])


def outcome(fn, *args):
    """fn's result, or the class of the package error it raised."""
    try:
        return fn(*args)
    except PathscanError as e:
        return type(e)


class TestVectorizedCells:
    @settings(max_examples=200, deadline=None)
    @given(grade_map_and_points())
    def test_grade_string_equals_cell_of(self, case):
        gm, fixations = case
        rows, cols = gm.grid.shape

        def per_point():
            labels = [gm.grid[cell_of(f.x, f.y, rows, cols, gm.width_px, gm.height_px)]
                      for f in fixations]
            return "".join(GRADE_CHARS[v] for v in labels if v != BACKGROUND)

        want = outcome(per_point)
        got = outcome(mx.grade_string, Scanpath("w", "r", fixations), gm)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(grade_map_and_points(st.integers(1, 512).map(float), outside=False))
    def test_grade_string_equals_floor_division_for_integer_cells(self, case):
        # with an exact cell size the patch formula is the plain x // cell_size
        gm, fixations = case
        cs = gm.cell_size
        labels = [gm.grid[int(f.y // cs), int(f.x // cs)] for f in fixations]
        want = "".join(GRADE_CHARS[v] for v in labels if v != BACKGROUND)
        assert mx.grade_string(Scanpath("w", "r", fixations), gm) == want

    @settings(max_examples=200, deadline=None)
    @given(grade_map_and_points(), st.integers(1, 40), st.integers(1, 40))
    def test_fixation_cells_equal_cell_of(self, case, rows, cols):
        gm, fixations = case
        w, h = gm.width_px, gm.height_px
        if all(0 <= f.x < w and 0 <= f.y < h for f in fixations):
            want = {cell_of(f.x, f.y, rows, cols, w, h) for f in fixations}
        else:
            want = RangeError
        assert outcome(mx._fixated_cells, fixations, (rows, cols), w, h) == want


def cosine(u, v):
    """Cosine of two tokens in float64; a zero token scores 0."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return 0.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))


def tok_sim_scan_loop(pred, gt, provider, wsi_id):
    """Per-pair ``cosine`` loop over ``token_at`` tokens, level by level."""
    per_level, weights = {}, {}
    for idx in range(len(MAG_FACTORS)):
        pf = [f for f in pred.fixations if f.mag.index == idx]
        gf = [f for f in gt.fixations if f.mag.index == idx]
        if not pf or not gf:
            continue
        grid = provider.get(wsi_id, MagLevel(idx))
        ptoks = [token_at(grid, f.x, f.y) for f in pf]
        gtoks = [token_at(grid, f.x, f.y) for f in gf]
        per_level[idx] = float(np.mean([max(cosine(p, g) for g in gtoks)
                                        for p in ptoks]))
        weights[idx] = len(pf)
    if not per_level:
        raise DegenerateInputError("scanpaths share no magnification level")
    overall = sum(per_level[i] * weights[i] for i in per_level) / sum(weights.values())
    return per_level, overall


@st.composite
def token_grids_and_scanpaths(draw):
    """One float32 grid per level over a (possibly non-square) slide, some
    tokens zero, and two scanpaths on up to three of the levels; sometimes
    one fixation lies off the slide."""
    width = draw(st.floats(10.0, 5000.0))
    height = draw(st.floats(10.0, 5000.0))
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = {}
    for idx in range(len(MAG_FACTORS)):
        rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        data = rng.standard_normal((rows, cols, dim)).astype(np.float32)
        data[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        grids[idx] = FeatureGrid(MagLevel(idx), data, width, height)
    levels = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))

    def scanpath():
        fixations = []
        for _ in range(draw(st.integers(1, 25))):
            idx = draw(st.sampled_from(levels))
            g = grids[idx]
            x, y = draw(frame_point(width, height, width / g.cols, height / g.rows))
            fixations.append(Fixation(x, y, MagLevel(idx), 0.0))
        if draw(st.integers(0, 5)) == 0:
            x, y = draw(outside_point(width, height))
            fixations.append(Fixation(x, y, MagLevel(draw(st.sampled_from(levels))), 0.0))
        return Scanpath("w", "r", fixations)

    return toy_provider(grids), scanpath(), scanpath()


class TestTokSimScanMatmul:
    @settings(max_examples=200, deadline=None)
    @given(token_grids_and_scanpaths())
    def test_equals_cosine_loop(self, case):
        provider, pred, gt = case
        want = outcome(tok_sim_scan_loop, pred, gt, provider, "w")
        got = outcome(mx.tok_sim_scan, pred, gt, provider, "w")
        if isinstance(want, type):
            assert got is want
            return
        (per, overall), (want_per, want_overall) = got, want
        assert per.keys() == want_per.keys()
        for idx in per:
            assert per[idx] == pytest.approx(want_per[idx], abs=1e-6)
        assert overall == pytest.approx(want_overall, abs=1e-6)

    def test_point_outside_slide_raises_range_error(self):
        data = np.ones((2, 2, 3), dtype=np.float32)
        provider = toy_provider({3: FeatureGrid(MagLevel(3), data, 100.0, 50.0)})
        pred = Scanpath("w", "p", [fix(10, 10), fix(20, 50)])  # y == height
        gt = Scanpath("w", "g", [fix(10, 10)])
        with pytest.raises(RangeError):
            mx.tok_sim_scan(pred, gt, provider, "w")

    def test_zero_token_scores_zero(self):
        data = np.zeros((1, 2, 2), dtype=np.float32)
        data[0, 1] = [3, 4]
        provider = toy_provider({3: FeatureGrid(MagLevel(3), data, 100.0, 50.0)})
        pred = Scanpath("w", "p", [fix(10, 10), fix(60, 10)])  # zero, [3, 4]
        gt = Scanpath("w", "g", [fix(10, 10), fix(99, 49)])
        per, overall = mx.tok_sim_scan(pred, gt, provider, "w")
        assert per == {3: 0.5} and overall == 0.5


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

    def test_tok_sim_fix_is_tok_sim_scan_of_one_pair(self):
        # one cosine: a pair of fixations scores the same in both metrics
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 4, 5)).astype(np.float32)
        data[1, 2] = 0.0
        provider = toy_provider({3: self.grid(data)})
        points = [(10, 10), (35, 40), (60, 40), (85, 70), (60, 60)]
        for p, g in itertools.product(points, repeat=2):
            want = mx.tok_sim_scan(Scanpath("w", "p", [fix(*p)]),
                                   Scanpath("w", "g", [fix(*g)]), provider, "w")[1]
            assert mx.tok_sim_fix(fix(*p), fix(*g), provider, "w") == want
        assert mx.tok_sim_fix(fix(60, 40), fix(10, 10), provider, "w") == 0.0


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
        sp = Scanpath("w", "r", [fix(25, 25, mag=3), fix(125, 125, mag=3)])
        got = mx.scanpath_to_heatmap(sp, (8, 8), 160.0, 160.0)
        delta = np.zeros((8, 8))
        delta[1, 1] += 1.0
        delta[6, 6] += 1.0
        want = gaussian_filter(delta, sigma=(8 / 8.0) / 10.0, mode="constant")
        want = want / want.max()
        assert np.array_equal(got, want)

    def test_normalized_peak(self):
        sp = Scanpath("w", "r", [fix(25, 25)])
        got = mx.scanpath_to_heatmap(sp, (8, 8), 160.0, 160.0)
        assert got.max() == pytest.approx(1.0)
