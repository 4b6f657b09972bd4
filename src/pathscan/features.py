"""Per-magnification patch feature grids and token lookup.

The synthetic featurizer turns grade-label histograms into unit-norm
tokens via a seeded random projection, which keeps grades separable so
the token-similarity metrics are meaningful.  Every grid spans the
level-0 frame (width x height pixels) of the WSI it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, RangeError
from .synth import GradeMap
from .trajectory import Fixation, MagLevel

MIN_DIM = 8  # smallest token dim
MAX_SIDE = 32  # grid side cap at every magnification


@dataclass
class CorpusConfig:
    """The corpus keys of ``gen``'s config, kept in the corpus manifest:
    the featurizer's seed, token dim and 1X grid side."""

    seed: int = 0
    feature_dim: int = 32
    base_grid: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < MIN_DIM:
            raise InvalidConfigError(f"feature_dim must be >= {MIN_DIM}, got {self.feature_dim}")
        if self.base_grid < 1:
            raise InvalidConfigError(f"base_grid must be >= 1, got {self.base_grid}")


@dataclass
class FeatureGrid:
    mag: MagLevel
    data: np.ndarray  # (rows, cols, dim) float32
    width_px: float  # level-0 frame of the WSI the grid spans
    height_px: float

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    @property
    def patch_px(self) -> float:
        """Level-0 width of one patch; it is also the patch height only
        on a square slide."""
        return self.width_px / self.cols

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1, self.dim)


def embed(histograms: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """Seeded random projection (5 -> dim) followed by unit-norm rows."""
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((histograms.shape[-1], dim))
    tokens = histograms @ proj
    norms = np.linalg.norm(tokens, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return (tokens / norms).astype(np.float32)


def cells_of(
    xs: np.ndarray, ys: np.ndarray, rows: int, cols: int, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """(row indices, column indices) of the patches containing the points
    (xs, ys) on a rows x cols grid that spans width x height: the one
    placement formula and the one bounds check every token, position,
    target and metric inherits. The first point outside [0, width) x
    [0, height) raises RangeError. A point on a patch boundary belongs to
    the patch that starts there, exactly whenever the patch size
    width / cols is exactly representable; one whose product rounds up to
    the far edge stays in the last patch."""
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    if not inside.all():
        k = int(np.argmin(inside))
        raise RangeError(f"({float(xs.flat[k])}, {float(ys.flat[k])}) outside WSI bounds")
    r = np.minimum((ys * rows / height).astype(np.intp), rows - 1)
    c = np.minimum((xs * cols / width).astype(np.intp), cols - 1)
    return r, c


def xy_of(fixations: list[Fixation]) -> tuple[np.ndarray, np.ndarray]:
    """The fixations' level-0 (xs, ys) as float64 arrays, for ``cells_of``."""
    return (np.array([f.x for f in fixations], dtype=np.float64),
            np.array([f.y for f in fixations], dtype=np.float64))


def cell_centres(
    rows: int, cols: int, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Level-0 centres of the cells of a rows x cols grid that spans
    width x height: (ys, xs), the centre of cell (r, c) being (xs[c], ys[r]).
    ``cells_of`` places every centre in its own cell."""
    return (np.arange(rows) + 0.5) * height / rows, (np.arange(cols) + 0.5) * width / cols


def tokens_at(grid: FeatureGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Tokens of the patches containing the points, as placed by
    ``cells_of``: a (len(xs), dim) array."""
    return grid.data[cells_of(xs, ys, grid.rows, grid.cols, grid.width_px, grid.height_px)]


def token_at(grid: FeatureGrid, x: float, y: float) -> np.ndarray:
    """``tokens_at`` of the one point (x, y)."""
    return tokens_at(grid, np.array([x], dtype=np.float64),
                     np.array([y], dtype=np.float64))[0]


class SyntheticFeatureProvider:
    """Deterministic featurizer over synthetic grade maps.

    Grid resolution scales with the magnification factor (the corpus's
    base_grid per side at 1X), capped at ``MAX_SIDE`` per side so
    self-attention over a grid stays tractable at high magnifications.
    One projection matrix (the corpus's seed, feature_dim tokens) is
    shared across all grids so equal histograms map to equal tokens
    everywhere.
    """

    def __init__(self, grade_maps: dict[str, GradeMap], corpus: CorpusConfig):
        self.grade_maps = grade_maps
        self.corpus = corpus
        self.dim = corpus.feature_dim
        self._cache: dict[tuple[str, int], FeatureGrid] = {}

    def get(self, wsi_id: str, mag: MagLevel) -> FeatureGrid:
        key = (wsi_id, mag.index)
        if key not in self._cache:
            self._cache[key] = self._build(wsi_id, mag)
        return self._cache[key]

    def _build(self, wsi_id: str, mag: MagLevel) -> FeatureGrid:
        gm = self.grade_maps[wsi_id]
        side = min(self.corpus.base_grid * mag.factor, MAX_SIDE)
        hist = self._histograms(gm, side)
        tokens = embed(hist, self.dim, self.corpus.seed)
        return FeatureGrid(mag, tokens, gm.width_px, gm.height_px)

    @staticmethod
    def _histograms(gm: GradeMap, side: int) -> np.ndarray:
        # each patch takes the label of the cell under its centre, as
        # ``grade_string`` reads it; works whether the patch grid is finer
        # or coarser than the cell grid
        ys, xs = np.meshgrid(*cell_centres(side, side, gm.width_px, gm.height_px),
                             indexing="ij")
        labels = gm.grid[cells_of(xs, ys, *gm.grid.shape, gm.width_px, gm.height_px)]
        return np.eye(5)[labels]
