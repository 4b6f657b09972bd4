import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathscan.metrics as mx
import pathscan.pat_s as pat_s
from pathscan.errors import InvalidConfigError, RangeError
from pathscan.features import (
    MAX_SIDE,
    MIN_DIM,
    CorpusConfig,
    FeatureGrid,
    SyntheticFeatureProvider,
    cell_centres,
    cells_of,
    embed,
    token_at,
    tokens_at,
)
from pathscan.pat_h import gaussian_map
from pathscan.synth import GRADE_CHARS, GradeMap, gen_wsi
from pathscan.trajectory import Fixation, MagLevel, Scanpath

from conftest import cell_of
from test_metrics import outcome, outside_point


class TestEmbed:
    def test_unit_norm_rows(self):
        hist = np.eye(5)[None]
        tokens = embed(hist, 16, seed=0)
        assert np.allclose(np.linalg.norm(tokens, axis=-1), 1.0, atol=1e-6)

    def test_grades_separable(self):
        hist = np.zeros((2, 5))
        hist[0, 2] = 1.0  # pure G3
        hist[1, 3] = 1.0  # pure G4
        tokens = embed(hist, 16, seed=0)
        cos = float(tokens[0] @ tokens[1])
        assert cos < 1.0 - 1e-3

    def test_deterministic_per_seed(self):
        hist = np.random.default_rng(1).random((3, 5))
        assert np.array_equal(embed(hist, 8, 5), embed(hist, 8, 5))
        assert not np.array_equal(embed(hist, 8, 5), embed(hist, 8, 6))

    def test_small_dim_rejected(self):
        # the corpus config owns the smallest token dim; embed takes it as given
        with pytest.raises(InvalidConfigError):
            CorpusConfig(feature_dim=MIN_DIM - 1)


class TestTokenAt:
    def grid(self):
        data = np.arange(4 * 4 * 8, dtype=np.float32).reshape(4, 4, 8)
        return FeatureGrid(MagLevel(1), data, 40.0, 40.0)

    def test_interior_lookup(self):
        g = self.grid()
        assert np.array_equal(token_at(g, 15.0, 25.0), g.data[2, 1])

    def test_boundary_belongs_to_patch_it_starts(self):
        g = self.grid()
        # x exactly on the 10.0 boundary starts patch column 1
        assert np.array_equal(token_at(g, 10.0, 5.0), g.data[0, 1])
        assert np.array_equal(token_at(g, 20.0, 5.0), g.data[0, 2])
        # the WSI centre is the corner of four patches: the lower-right one
        assert np.array_equal(token_at(g, 20.0, 20.0), g.data[2, 2])

    def test_origin(self):
        g = self.grid()
        assert np.array_equal(token_at(g, 0.0, 0.0), g.data[0, 0])

    def test_out_of_bounds(self):
        g = self.grid()
        with pytest.raises(RangeError):
            token_at(g, 40.0, 0.0)
        with pytest.raises(RangeError):
            token_at(g, -0.1, 0.0)


class TestSyntheticProvider:
    def test_resolution_scales_then_caps(self):
        maps = {"w": gen_wsi(1, 16, 16)}
        p = SyntheticFeatureProvider(maps, CorpusConfig(feature_dim=8, base_grid=8))
        assert MAX_SIDE == 32
        assert p.get("w", MagLevel(0)).rows == 8
        assert p.get("w", MagLevel(1)).rows == 16
        assert p.get("w", MagLevel(2)).rows == 32
        assert p.get("w", MagLevel(3)).rows == 32  # capped
        assert p.get("w", MagLevel(5)).rows == 32

    def test_deterministic_and_cached(self):
        maps = {"w": gen_wsi(1, 16, 16)}
        p = SyntheticFeatureProvider(maps, CorpusConfig(seed=3, feature_dim=8))
        a = p.get("w", MagLevel(1))
        b = p.get("w", MagLevel(1))
        assert a is b
        q = SyntheticFeatureProvider(maps, CorpusConfig(seed=3, feature_dim=8))
        assert np.array_equal(a.data, q.get("w", MagLevel(1)).data)

    def test_grid_spans_wsi(self):
        gm = gen_wsi(3, 16, 32)  # 8192 x 4096 px
        p = SyntheticFeatureProvider({"w": gm}, CorpusConfig(feature_dim=8))
        g = p.get("w", MagLevel(3))
        assert (g.width_px, g.height_px) == (gm.width_px, gm.height_px)
        assert g.patch_px == gm.width_px / g.cols
        with pytest.raises(RangeError):
            token_at(g, 0.0, gm.height_px)  # below the slide


# patch sizes that binary floating point cannot hold exactly, and some it can
PATCH_SIZES = st.sampled_from([0.1, 1 / 3, 2 / 3, 385.8, 1.0, 256.0]) | st.floats(0.01, 1000.0)


class TestCellCentres:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), PATCH_SIZES, PATCH_SIZES)
    def test_every_centre_lies_in_its_own_cell(self, rows, cols, patch_h, patch_w):
        width, height = cols * patch_w, rows * patch_h
        ys, xs = np.meshgrid(*cell_centres(rows, cols, width, height), indexing="ij")
        r, c = cells_of(xs, ys, rows, cols, width, height)
        want_r, want_c = np.indices((rows, cols))
        assert np.array_equal(r, want_r) and np.array_equal(c, want_c)

    def test_hand_example(self):
        ys, xs = cell_centres(2, 4, 40.0, 10.0)
        assert ys.tolist() == [2.5, 7.5] and xs.tolist() == [5.0, 15.0, 25.0, 35.0]


class TestPatchLabels:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 64), st.integers(8, 64), st.integers(1, 40),
           st.sampled_from([1.0, 100.0, 256.0, 385.8]) | st.floats(1.0, 1000.0),
           st.integers(0, 2**32 - 1))
    @example(18, 8, 3, 385.8, 0)
    @example(8, 14, 21, 385.8, 0)
    def test_patch_label_is_the_grade_under_its_centre(self, h_g, w_g, side, cell, seed):
        # a patch's token encodes the grade that grade_string reads at the
        # patch centre, even when cell_size * cells is not exact
        gm = GradeMap(np.random.default_rng(seed).integers(0, 5, (h_g, w_g)).astype(np.int8),
                      cell)
        w, h = gm.width_px, gm.height_px
        labels = SyntheticFeatureProvider._histograms(gm, side).argmax(axis=-1)
        for r in range(side):
            for c in range(side):
                centre = ((c + 0.5) * w / side, (r + 0.5) * h / side)
                assert labels[r, c] == gm.grid[cell_of(*centre, h_g, w_g, w, h)], (r, c)


@st.composite
def grid_and_point(draw):
    """A random grade map with rows != cols, an index-coded square grid of
    side 1..40 over it, the point's kind, and a point: anywhere inside the
    WSI, on a patch corner, at the centre, or off the slide."""
    w_g = draw(st.integers(8, 40))
    h_g = draw(st.integers(8, 39))
    h_g += h_g >= w_g
    cell = draw(st.sampled_from([1.0, 100.0, 256.0, 385.8]) | st.floats(1.0, 1000.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gm = GradeMap(rng.integers(0, 5, (h_g, w_g)).astype(np.int8), cell)
    side = draw(st.integers(1, 40))
    grid = FeatureGrid(MagLevel(0), np.indices((side, side)).transpose(1, 2, 0),
                       gm.width_px, gm.height_px)
    kind = draw(st.sampled_from(["anywhere", "corner", "centre", "off the slide"]))
    if kind == "centre":
        x, y = gm.width_px / 2.0, gm.height_px / 2.0
    elif kind == "corner":
        x = draw(st.integers(0, grid.cols - 1)) * gm.width_px / grid.cols
        y = draw(st.integers(0, grid.rows - 1)) * gm.height_px / grid.rows
    elif kind == "anywhere":
        x = draw(st.floats(0.0, gm.width_px, exclude_max=True))
        y = draw(st.floats(0.0, gm.height_px, exclude_max=True))
    else:
        x, y = draw(outside_point(gm.width_px, gm.height_px))
    return gm, grid, kind, x, y


def memory_probe(grid):
    """Stage-2 parameters under which ``build_memory``'s row for a history
    fixation on the index-coded ``grid`` (as both 2X and 10X grid) is
    (token row, token col, position index): inproj copies the token into
    the first two columns, pos2x holds each position's index in the third,
    and every other table is zero."""
    config = pat_s.ScanpathModelConfig(dim=2, model_dim=3, heads=1)
    params = pat_s.init_scanpath_params(grid.rows * grid.cols, config,
                                        np.random.default_rng(0))
    for p in params.values():
        p.data[...] = 0.0
    params["inproj.W"].data[[0, 1], [0, 1]] = 1.0
    params["pos2x"].data[:, 2] = np.arange(grid.rows * grid.cols)
    return params, config


class TestOnePatchConvention:
    @settings(max_examples=300, deadline=None)
    @given(grid_and_point())
    def test_token_position_target_and_metric_cells_agree(self, case):
        # every site places a point in the oracle's cell, or raises RangeError
        # for a point off the slide; tokens, positions and stage-2 targets
        # read the grid's frame, metrics and stage-1 ground truth the grade map's
        gm, grid, kind, x, y = case
        w, h = gm.width_px, gm.height_px
        shape = (grid.rows, grid.cols)
        f = Fixation(x, y, MagLevel(3), 0.0)
        sp = Scanpath("w", "r", [f])
        xs, ys = np.array([x]), np.array([y])
        params, config = memory_probe(grid)

        def peak(values):
            return tuple(int(i) for i in np.unravel_index(np.argmax(values), shape))

        def memory_row():
            return pat_s.build_memory(grid, [f], grid, params, config).data[-1]

        sites = {
            "oracle": lambda: cell_of(x, y, *shape, w, h),
            "cells_of": lambda: tuple(int(a[0]) for a in cells_of(xs, ys, *shape, w, h)),
            "token_at": lambda: tuple(int(v) for v in token_at(grid, x, y)),
            "tokens_at": lambda: tuple(int(v) for v in tokens_at(grid, xs, ys)[0]),
            "build_memory token": lambda: tuple(int(v) for v in memory_row()[:2]),
            "build_memory position": lambda: divmod(int(memory_row()[2]), grid.cols),
            "gaussian_map": lambda: peak(gaussian_map([f], shape, w, h)),
            "scanpath_to_heatmap":
                lambda: peak(mx.scanpath_to_heatmap(sp, shape, w, h)),
            "_fixated_cells": lambda: mx._fixated_cells([f], shape, w, h).pop(),
        }
        got = {name: outcome(site) for name, site in sites.items()}
        grades = outcome(mx.grade_string, sp, gm)
        if kind == "off the slide":
            assert got == dict.fromkeys(sites, RangeError)
            assert grades is RangeError
        else:
            assert all(type(cell) is tuple for cell in got.values())
            assert len(set(got.values())) == 1
            label = gm.grid[cell_of(x, y, *gm.grid.shape, w, h)]
            assert grades == GRADE_CHARS[label].strip(".")


class TestExactBoundaries:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 1024))
    @example(39, 256)
    def test_patch_boundary_starts_its_patch(self, n, p):
        # on a grid with an integer patch size p, k * p starts patch k
        size = float(n * p)
        starts = np.arange(n) * float(p)
        for k, at in enumerate(starts):
            assert cell_of(at, at, n, n, size, size) == (k, k)
            assert cell_of(at, 0.0, 1, n, size, 2.0) == (0, k)
        rows, cols = cells_of(starts, starts, n, n, size, size)
        assert rows.tolist() == cols.tolist() == list(range(n))
