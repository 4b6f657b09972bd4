import numpy as np
import pytest
from scipy.stats import chisquare

from pathscan.errors import InvalidConfigError, InvalidInputError
from pathscan.synth import (
    BACKGROUND,
    BENIGN,
    DEFAULT_GRADE_MIX,
    DEFAULT_TRANSITION_PRIOR,
    GradeMap,
    gen_wsi,
    simulate_reader,
)


class TestGradeMap:
    def test_text_roundtrip(self):
        gm = gen_wsi(1, 16, 16)
        back = GradeMap.from_text(gm.to_text(), gm.cell_size)
        assert np.array_equal(back.grid, gm.grid)
        assert back.cell_size == gm.cell_size

    def test_too_small_rejected(self):
        with pytest.raises(InvalidConfigError):
            GradeMap(np.zeros((4, 4), dtype=np.int8), 10.0)


class TestGenWsi:
    def test_deterministic(self):
        a, b = gen_wsi(7, 32, 32), gen_wsi(7, 32, 32)
        assert np.array_equal(a.grid, b.grid)
        assert not np.array_equal(a.grid, gen_wsi(8, 32, 32).grid)

    def test_border_is_background(self):
        gm = gen_wsi(7, 32, 32)
        assert np.all(gm.grid[0] == BACKGROUND) and np.all(gm.grid[-1] == BACKGROUND)
        assert np.all(gm.grid[:, 0] == BACKGROUND) and np.all(gm.grid[:, -1] == BACKGROUND)

    def test_grade_mix_within_tolerance(self):
        gm = gen_wsi(7, 32, 32)
        tissue = gm.grid[gm.grid != BACKGROUND]
        assert len(tissue) > 0
        for name, want in DEFAULT_GRADE_MIX.items():
            code = ("Background", "Benign", "G3", "G4", "G5").index(name)
            frac = float(np.mean(tissue == code))
            assert abs(frac - want) <= 0.10


class TestTransitionPrior:
    def test_rows_sum_to_one_and_impossible_moves_are_zero(self):
        p = DEFAULT_TRANSITION_PRIOR
        assert p.shape == (6, 3)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert p[0, 0] == 0.0 and p[5, 2] == 0.0  # no zoom-out at 1X, no zoom-in at 40X


class TestSimulateReader:
    def test_starts_centered_at_1x(self):
        gm = gen_wsi(3, 16, 16)
        t = simulate_reader(gm, 0, 50)
        first = t.samples[0]
        assert (first.x, first.y) == (gm.width_px / 2, gm.height_px / 2)
        assert first.mag.index == 0

    def test_band_law_on_samples(self):
        gm = gen_wsi(3, 16, 16)
        t = simulate_reader(gm, 1, 500)
        idx = [s.mag.index for s in t.samples]
        assert all(abs(b - a) <= 1 for a, b in zip(idx, idx[1:]))

    def test_coordinates_in_bounds(self):
        gm = gen_wsi(3, 16, 16)
        t = simulate_reader(gm, 2, 300)
        for s in t.samples:
            assert 0 <= s.x < gm.width_px and 0 <= s.y < gm.height_px

    def test_durations_positive_and_capped(self):
        gm = gen_wsi(3, 16, 16)
        t = simulate_reader(gm, 4, 300)
        for s in t.samples:
            assert 0 <= s.t <= 2000.0

    def test_too_few_samples_rejected(self):
        gm = gen_wsi(3, 16, 16)
        with pytest.raises(InvalidInputError):
            simulate_reader(gm, 0, 5)

    def test_deterministic_per_seed(self):
        gm = gen_wsi(3, 16, 16)
        a = simulate_reader(gm, 9, 60)
        b = simulate_reader(gm, 9, 60)
        assert a.samples == b.samples

    def test_zero_drill_bias_uniform_over_tissue(self):
        gm = gen_wsi(3, 24, 24)
        t = simulate_reader(gm, 12, 10_001, drill_bias=0.0)
        tissue = {tuple(rc) for rc in np.argwhere(gm.grid != BACKGROUND)}
        counts = {rc: 0 for rc in tissue}
        for s in t.samples[1:]:
            r = int(s.y // gm.cell_size)
            c = int(s.x // gm.cell_size)
            counts[(r, c)] += 1
        observed = np.array(list(counts.values()), dtype=float)
        _, p = chisquare(observed)
        assert p > 0.01

    def test_drill_bias_prefers_tumor(self):
        gm = gen_wsi(3, 24, 24)
        t = simulate_reader(gm, 13, 5000, drill_bias=0.9)
        tumor = benign = 0
        n_tumor = int(np.sum(gm.grid > BENIGN))
        n_benign = int(np.sum(gm.grid == BENIGN))
        for s in t.samples[1:]:
            label = gm.grid[int(s.y // gm.cell_size), int(s.x // gm.cell_size)]
            if label > BENIGN:
                tumor += 1
            elif label == BENIGN:
                benign += 1
        assert tumor / n_tumor > benign / n_benign

    def test_transition_frequencies_converge_to_prior(self):
        gm = gen_wsi(3, 16, 16)
        t = simulate_reader(gm, 21, 60_000)
        idx = [s.mag.index for s in t.samples]
        counts = np.zeros((6, 3))
        for a, b in zip(idx, idx[1:]):
            counts[a, int(np.sign(b - a)) + 1] += 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.all(np.abs(freq - DEFAULT_TRANSITION_PRIOR) < 0.03)
