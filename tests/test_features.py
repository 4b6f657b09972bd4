import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathscan.metrics as mx
import pathscan.pat_s as pat_s
from pathscan.errors import FormatError, InvalidConfigError, RangeError
from pathscan.features import (
    FeatureGrid,
    SyntheticFeatureProvider,
    cell_of,
    embed,
    load_features,
    save_features,
    token_at,
)
from pathscan.pat_h import gaussian_map
from pathscan.synth import gen_wsi
from pathscan.trajectory import Fixation, MagLevel


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
        with pytest.raises(InvalidConfigError):
            embed(np.zeros((1, 5)), 4, 0)


class TestPsftFormat:
    def test_roundtrip(self, tmp_path):
        data = np.random.default_rng(0).random((4, 4, 16)).astype(np.float32)
        grid = FeatureGrid(MagLevel(3), data, 128.0)
        path = tmp_path / "g.psft"
        save_features(path, grid)
        back = load_features(path)
        assert back.mag == grid.mag
        assert back.patch_px == grid.patch_px
        assert np.array_equal(back.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.psft"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((2, 2, 8), dtype=np.float32)
        path = tmp_path / "g.psft"
        save_features(path, FeatureGrid(MagLevel(0), data, 1.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_features(path)


class TestTokenAt:
    def grid(self):
        data = np.arange(4 * 4 * 8, dtype=np.float32).reshape(4, 4, 8)
        return FeatureGrid(MagLevel(1), data, 10.0)

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
        p = SyntheticFeatureProvider(maps, dim=8, base_grid=8, max_side=32)
        assert p.get("w", MagLevel(0)).rows == 8
        assert p.get("w", MagLevel(1)).rows == 16
        assert p.get("w", MagLevel(2)).rows == 32
        assert p.get("w", MagLevel(3)).rows == 32  # capped
        assert p.get("w", MagLevel(5)).rows == 32

    def test_deterministic_and_cached(self):
        maps = {"w": gen_wsi(1, 16, 16)}
        p = SyntheticFeatureProvider(maps, dim=8, seed=3)
        a = p.get("w", MagLevel(1))
        b = p.get("w", MagLevel(1))
        assert a is b
        q = SyntheticFeatureProvider(maps, dim=8, seed=3)
        assert np.array_equal(a.data, q.get("w", MagLevel(1)).data)

    def test_grid_spans_wsi(self):
        maps = {"w": gen_wsi(1, 16, 16)}
        p = SyntheticFeatureProvider(maps, dim=8)
        g = p.get("w", MagLevel(3))
        assert g.width_px == pytest.approx(maps["w"].width_px)
        assert g.height_px == pytest.approx(maps["w"].height_px)


@st.composite
def grid_and_point(draw):
    """A provider-style grid (patch side = WSI width / grid side) and a point
    inside the WSI: anywhere, on a patch corner, or at the centre."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    wsi_w = draw(st.sampled_from([100.0, 1000.0, 4096.0, 6144.0, 8192.0, 12345.6]))
    patch_px = wsi_w / cols
    grid = FeatureGrid(MagLevel(3), np.indices((rows, cols)).transpose(1, 2, 0)
                       .astype(np.float32), patch_px)
    kind = draw(st.sampled_from(["anywhere", "corner", "centre"]))
    if kind == "centre":
        x, y = grid.width_px / 2.0, grid.height_px / 2.0
    elif kind == "corner":
        x = draw(st.integers(0, cols - 1)) * patch_px
        y = draw(st.integers(0, rows - 1)) * patch_px
    else:
        x = draw(st.floats(0.0, grid.width_px, exclude_max=True))
        y = draw(st.floats(0.0, grid.height_px, exclude_max=True))
    return grid, x, y


class TestOnePatchConvention:
    @settings(max_examples=300, deadline=None)
    @given(grid_and_point())
    def test_token_position_target_and_metric_cells_agree(self, case):
        grid, x, y = case
        shape = (grid.rows, grid.cols)
        f = Fixation(x, y, MagLevel(3), 0.0)
        token = tuple(int(v) for v in token_at(grid, x, y))
        position = divmod(pat_s._pos_index(grid, x, y), grid.cols)
        target = pat_s.fixation_cell(grid, f)
        peak = np.unravel_index(
            np.argmax(gaussian_map([f], shape, grid.width_px, grid.height_px)), shape)
        (metric,) = mx._fixation_cells([f], shape, grid.width_px, grid.height_px)
        assert token == position == target == tuple(peak) == metric
        assert token == cell_of(x, y, grid.rows, grid.cols,
                                grid.width_px, grid.height_px)
