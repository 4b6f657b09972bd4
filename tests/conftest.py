import numpy as np
import pytest

import pathscan.autodiff as ad
from pathscan.errors import RangeError
from pathscan.features import CorpusConfig, SyntheticFeatureProvider
from pathscan.synth import gen_wsi, simulate_reader
from pathscan.trajectory import SimplifyParams, simplify


def make_corpus(
    n_wsis: int,
    n_readers: int,
    n_samples: int = 120,
    seed: int = 11,
    grid: int = 24,
    drill_bias: float = 0.7,
    dim: int = 16,
    base_grid: int = 8,
):
    """Seeded grade maps, simplified scanpaths, and a feature provider."""
    maps = {}
    scanpaths = []
    for w in range(n_wsis):
        wsi_id = f"wsi_{w:03d}"
        gm = gen_wsi(seed + 1000 * w, grid, grid)
        maps[wsi_id] = gm
        for r in range(n_readers):
            traj = simulate_reader(
                gm, seed + 1000 * w + r + 1, n_samples,
                wsi_id=wsi_id, reader_id=f"reader_{r:02d}", drill_bias=drill_bias,
            )
            scanpaths.append(simplify(traj, SimplifyParams(wsi_width=gm.width_px)))
    provider = SyntheticFeatureProvider(
        maps, CorpusConfig(seed=seed, feature_dim=dim, base_grid=base_grid))
    return maps, scanpaths, provider


def cell_of(x, y, rows, cols, width, height):
    """Per-point oracle for ``features.cells_of`` in plain Python: (row, col)
    of the patch containing (x, y) on a rows x cols grid that spans
    width x height, or RangeError for a point off the slide."""
    if not (0 <= x < width and 0 <= y < height):
        raise RangeError(f"({x}, {y}) outside WSI bounds")
    return min(int(y * rows / height), rows - 1), min(int(x * cols / width), cols - 1)


def upcast(params):
    """The same model in float64: every parameter upcast, still trainable."""
    return {k: ad.Tensor(p.data.astype(np.float64), requires_grad=True)
            for k, p in params.items()}


@pytest.fixture(scope="session")
def small_corpus():
    return make_corpus(n_wsis=2, n_readers=2, n_samples=80, seed=5)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
