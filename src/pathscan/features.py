"""Per-magnification patch feature grids and token lookup.

The synthetic featurizer turns grade-label histograms into unit-norm
tokens via a seeded random projection, which keeps grades separable so
the token-similarity metrics are meaningful.  Externally computed
embeddings enter through the PSFT binary format instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfigError, RangeError
from .synth import GradeMap
from .trajectory import MagLevel

PSFT_MAGIC = b"PSFT"
PSFT_VERSION = 1


@dataclass
class FeatureGrid:
    mag: MagLevel
    data: np.ndarray  # (rows, cols, dim) float32
    patch_px: float  # level-0 pixels per patch side

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
    def width_px(self) -> float:
        return self.cols * self.patch_px

    @property
    def height_px(self) -> float:
        return self.rows * self.patch_px

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1, self.dim)


def embed(histograms: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """Seeded random projection (5 -> dim) followed by unit-norm rows."""
    if dim < 8:
        raise InvalidConfigError("embedding dim must be >= 8")
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((histograms.shape[-1], dim))
    tokens = histograms @ proj
    norms = np.linalg.norm(tokens, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return (tokens / norms).astype(np.float32)


def save_features(path, grid: FeatureGrid):
    data = grid.data.astype("<f4")
    header = PSFT_MAGIC + struct.pack(
        "<HBIII", PSFT_VERSION, grid.mag.index, grid.rows, grid.cols, grid.dim
    )
    header += struct.pack("<d", grid.patch_px)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_features(path) -> FeatureGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 + 15 + 8 or raw[:4] != PSFT_MAGIC:
        raise FormatError(f"{path}: not a PSFT feature file")
    version, mag_idx, rows, cols, dim = struct.unpack("<HBIII", raw[4:19])
    if version != PSFT_VERSION:
        raise FormatError(f"{path}: unsupported PSFT version {version}")
    (patch_px,) = struct.unpack("<d", raw[19:27])
    expected = 27 + rows * cols * dim * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch (got {len(raw)}, want {expected})"
        )
    data = np.frombuffer(raw[27:], dtype="<f4").reshape(rows, cols, dim)
    return FeatureGrid(MagLevel(mag_idx), data.copy(), patch_px)


def cell_of(
    x: float, y: float, rows: int, cols: int, width: float, height: float
) -> tuple[int, int]:
    """(row, col) of the patch containing (x, y) on a rows x cols grid that
    spans width x height; a point on a patch boundary belongs to the patch
    that starts there, and the far edges clamp to the last patch."""
    return min(int(y / height * rows), rows - 1), min(int(x / width * cols), cols - 1)


def token_at(grid: FeatureGrid, x: float, y: float) -> np.ndarray:
    """Token of the patch containing (x, y), as placed by ``cell_of``."""
    if not (0 <= x < grid.width_px and 0 <= y < grid.height_px):
        raise RangeError(f"({x}, {y}) outside WSI bounds")
    return grid.data[cell_of(x, y, grid.rows, grid.cols, grid.width_px, grid.height_px)]


class FeatureProvider:
    """Contract: (wsi_id, mag) -> FeatureGrid, deterministic per pair."""

    def get(self, wsi_id: str, mag: MagLevel) -> FeatureGrid:
        raise NotImplementedError


class SyntheticFeatureProvider(FeatureProvider):
    """Deterministic featurizer over synthetic grade maps.

    Grid resolution scales with the magnification factor (base_grid per
    side at 1X), capped at ``max_side`` per side so self-attention over a
    grid stays tractable at high magnifications.  One projection matrix
    is shared across all grids so equal histograms map to equal tokens
    everywhere.
    """

    def __init__(
        self,
        grade_maps: dict[str, GradeMap],
        dim: int = 32,
        base_grid: int = 8,
        seed: int = 0,
        max_side: int = 32,
    ):
        if dim < 8:
            raise InvalidConfigError("embedding dim must be >= 8")
        self.grade_maps = grade_maps
        self.dim = dim
        self.base_grid = base_grid
        self.seed = seed
        self.max_side = max_side
        self._cache: dict[tuple[str, int], FeatureGrid] = {}

    def get(self, wsi_id: str, mag: MagLevel) -> FeatureGrid:
        key = (wsi_id, mag.index)
        if key not in self._cache:
            self._cache[key] = self._build(wsi_id, mag)
        return self._cache[key]

    def _build(self, wsi_id: str, mag: MagLevel) -> FeatureGrid:
        gm = self.grade_maps[wsi_id]
        side = min(self.base_grid * mag.factor, self.max_side)
        hist = self._histograms(gm, side)
        tokens = embed(hist, self.dim, self.seed)
        patch_px = gm.width_px / side
        return FeatureGrid(mag, tokens, patch_px)

    @staticmethod
    def _histograms(gm: GradeMap, side: int) -> np.ndarray:
        # each patch takes the label of the cell under its center; works
        # whether the patch grid is finer or coarser than the cell grid
        h, w = gm.grid.shape
        rr = np.minimum(((np.arange(side) + 0.5) * h / side).astype(int), h - 1)
        cc = np.minimum(((np.arange(side) + 0.5) * w / side).astype(int), w - 1)
        labels = gm.grid[rr[:, None], cc[None, :]].astype(int)
        hist = np.zeros((side, side, 5), dtype=np.float64)
        i, j = np.indices(labels.shape)
        hist[i, j, labels] = 1.0
        return hist
