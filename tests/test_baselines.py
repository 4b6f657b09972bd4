import warnings

import numpy as np
import pytest

import pathscan.baselines as bl
from pathscan.errors import InvalidInputError
from pathscan.trajectory import Fixation, MagLevel, Scanpath


def sp(wsi, reader, mags, xy=None):
    fixations = []
    for i, m in enumerate(mags):
        x, y = xy[i] if xy else (float(i), float(i))
        fixations.append(Fixation(x, y, MagLevel(m), 100.0))
    return Scanpath(wsi, reader, fixations)


class TestRandom1:
    def test_in_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y, m = bl.random1_next(500.0, 300.0, rng)
            assert 0 <= x < 500 and 0 <= y < 300
            assert 0 <= m.index <= 5

    def test_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            bl.random1_next(0.0, 10.0, np.random.default_rng(0))

    def test_uniform_mag_frequencies(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(6)
        n = 60_000
        for _ in range(n):
            _, _, m = bl.random1_next(1.0, 1.0, rng)
            counts[m.index] += 1
        assert np.all(np.abs(counts / n - 1 / 6) < 0.02)

    def test_scanpath_length(self):
        s = bl.random1_scanpath(100.0, 100.0, 12, np.random.default_rng(2))
        assert len(s) == 12


class TestRandom2:
    def corpus(self):
        return [
            sp("w0", "alice", [0, 1, 2], xy=[(0, 0), (50, 50), (900, 900)]),
            sp("w1", "alice", [2, 2]),
            sp("w1", "bob", [3, 4]),
        ]

    def test_donor_from_other_wsi(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            donor = bl.random2_scanpath(self.corpus(), "w1", 100.0, 100.0, rng)
            assert donor.wsi_id != "w1"

    def test_clamped_to_bounds(self):
        rng = np.random.default_rng(0)
        donor = bl.random2_scanpath(self.corpus(), "w1", 100.0, 100.0, rng)
        for f in donor.fixations:
            assert 0 <= f.x < 100.0 and 0 <= f.y < 100.0

    def test_no_donor_available(self):
        with pytest.raises(InvalidInputError):
            bl.random2_scanpath([sp("w0", "a", [0])], "w0", 10.0, 10.0,
                                np.random.default_rng(0))

    def test_next_same_reader_different_wsi(self):
        rng = np.random.default_rng(3)
        x, y, m = bl.random2_next(self.corpus(), "bob", 0, "w0", rng)
        assert (x, y, m.index) == (0.0, 0.0, 3)

    def test_next_index_clamps_to_donor_length(self):
        rng = np.random.default_rng(3)
        x, y, m = bl.random2_next(self.corpus(), "bob", 99, "w0", rng)
        assert (x, y, m.index) == (1.0, 1.0, 4)

    def test_next_no_donor(self):
        with pytest.raises(InvalidInputError):
            bl.random2_next(self.corpus(), "carol", 0, "w0",
                            np.random.default_rng(0))


class TestTransitionMatrix:
    def test_hand_counts(self):
        # transitions: 1X->2X, 2X->2X, 2X->1X
        corpus = [sp("w", "r", [0, 1, 1, 0])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tm, moves = bl.estimate_transition_matrix(corpus)
        assert np.allclose(tm.probs[0], [0, 1, 0, 0, 0, 0])
        assert np.allclose(tm.probs[1], [0.5, 0.5, 0, 0, 0, 0])
        assert moves[0].tolist() == [0, 0, 1]
        assert moves[1].tolist() == [1, 1, 0]

    def test_unvisited_level_uniform_with_warning(self):
        corpus = [sp("w", "r", [0, 0])]
        with pytest.warns(UserWarning):
            tm, _ = bl.estimate_transition_matrix(corpus)
        assert np.allclose(tm.probs[5], 1 / 6)

    def test_empty_corpus(self):
        with pytest.raises(InvalidInputError):
            bl.estimate_transition_matrix([])

    def test_stats_csv(self):
        corpus = [sp("w", "r", [0, 1, 1, 0])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, moves = bl.estimate_transition_matrix(corpus)
        rows = bl.transition_stats_csv(moves)
        assert rows[0][:4] == ("level", "decrease", "stay", "increase")
        assert rows[1][:4] == ("1X", 0, 0, 1)
        assert rows[2][:4] == ("2X", 1, 1, 0)
        assert len(rows) == 7
