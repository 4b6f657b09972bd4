"""Synthetic WSI grade maps and simulated reader trajectories.

Everything here is seed-deterministic plumbing that lets the training,
inference and metric pipelines run end-to-end without real slides.  The
simulated readers' magnification prior is shaped so that corpus-level
magnification statistics show the expected pattern: zooming in dominates at low
magnifications, zooming out at high ones, with 10X the most-used level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .trajectory import MagLevel, RawTrajectory, ViewportSample

# grade codes in the grid array
BACKGROUND, BENIGN, G3, G4, G5 = range(5)
GRADE_NAMES = ("Background", "Benign", "G3", "G4", "G5")
GRADE_CHARS = ".B345"
MIN_GRID = 8  # smallest grade-map side, in cells
MIN_SAMPLES = 10  # shortest simulated trajectory


@dataclass
class GradeMap:
    grid: np.ndarray  # (H_g, W_g) int8 codes 0..4
    cell_size: float  # level-0 pixels per cell side

    def __post_init__(self):
        h, w = self.grid.shape
        if h < MIN_GRID or w < MIN_GRID:
            raise InvalidConfigError(f"grade map must be at least {MIN_GRID}x{MIN_GRID} cells")

    @property
    def height_px(self) -> float:
        return self.grid.shape[0] * self.cell_size

    @property
    def width_px(self) -> float:
        return self.grid.shape[1] * self.cell_size

    def to_text(self) -> str:
        return "\n".join("".join(GRADE_CHARS[v] for v in row) for row in self.grid)

    @classmethod
    def from_text(cls, text: str, cell_size: float) -> "GradeMap":
        rows = [line for line in text.splitlines() if line]
        grid = np.array(
            [[GRADE_CHARS.index(ch) for ch in row] for row in rows], dtype=np.int8
        )
        return cls(grid, cell_size)


DEFAULT_GRADE_MIX = {"Benign": 0.5, "G3": 0.2, "G4": 0.2, "G5": 0.1}
TISSUE_FRACTION = 0.45  # share of the interior cells that are tissue
CELL_SIZE = 256.0  # level-0 pixels per grade-map cell side
MEAN_DURATION_MS, MAX_DURATION_MS = 150.0, 2000.0  # of a simulated sample

# rows: current level 1X..40X, cols: (decrease, stay, increase)
DEFAULT_TRANSITION_PRIOR = np.array(
    [
        [0.00, 0.55, 0.45],  # 1X: can only stay or zoom in
        [0.10, 0.55, 0.35],
        [0.10, 0.55, 0.35],
        [0.20, 0.65, 0.15],  # 10X: stickiest level
        [0.25, 0.65, 0.10],
        [0.40, 0.60, 0.00],  # 40X: can only stay or zoom out
    ]
)


def gen_wsi(seed: int, h_g: int = 32, w_g: int = 32) -> GradeMap:
    """Generate a blob-based grade map, deterministic per seed.

    Each grade of ``DEFAULT_GRADE_MIX`` gets one connected region of its
    share of ``TISSUE_FRACTION`` of the interior, grown by a seeded random
    walk; the one-cell border stays Background.
    """
    if h_g < MIN_GRID or w_g < MIN_GRID:
        raise InvalidConfigError(f"grade map dimensions must be >= {MIN_GRID}")
    rng = np.random.default_rng(seed)
    grid = np.zeros((h_g, w_g), dtype=np.int8)
    n_tissue = int(round((h_g - 2) * (w_g - 2) * TISSUE_FRACTION))
    total = sum(DEFAULT_GRADE_MIX.values())
    for name, weight in DEFAULT_GRADE_MIX.items():
        count = max(1, int(round(n_tissue * weight / total)))
        _grow_blob(grid, rng, GRADE_NAMES.index(name), count)
    return GradeMap(grid, CELL_SIZE)


def _grow_blob(grid: np.ndarray, rng: np.random.Generator, code: int, count: int):
    h, w = grid.shape
    empty = np.argwhere(grid[1 : h - 1, 1 : w - 1] == BACKGROUND) + 1
    if len(empty) == 0:
        raise InvalidConfigError("grade map is full")
    r, c = empty[rng.integers(len(empty))]
    grid[r, c] = code
    placed = 1
    attempts = 0
    while placed < count and attempts < count * 200:
        attempts += 1
        dr, dc = ((-1, 0), (1, 0), (0, -1), (0, 1))[rng.integers(4)]
        nr, nc = r + dr, c + dc
        if 1 <= nr < h - 1 and 1 <= nc < w - 1:
            if grid[nr, nc] == BACKGROUND:
                grid[nr, nc] = code
                placed += 1
            if grid[nr, nc] == code:
                r, c = nr, nc  # keep walking inside own region: stays connected


def simulate_reader(
    wsi: GradeMap,
    seed: int,
    n_samples: int,
    wsi_id: str = "wsi",
    reader_id: str = "reader",
    drill_bias: float = 0.7,
) -> RawTrajectory:
    """Simulate a dense viewport trajectory over a grade map.

    The first sample fits the WSI in the viewport (1X, center).  Each
    subsequent step draws a magnification move from the per-level
    ``DEFAULT_TRANSITION_PRIOR`` (so consecutive levels never differ by
    more than one index) and a location from the tissue cells, weighted
    toward higher grades by ``drill_bias``.
    """
    if n_samples < MIN_SAMPLES:
        raise InvalidInputError(f"n_samples must be >= {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)

    tissue = np.argwhere(wsi.grid != BACKGROUND)
    if len(tissue) == 0:
        raise InvalidInputError("grade map has no tissue cells")
    grades = wsi.grid[tissue[:, 0], tissue[:, 1]].astype(float)
    # boost 0 for Benign, 2/3/4 for G3/G4/G5; drill_bias=0 is uniform
    boost = np.where(grades == BENIGN, 0.0, grades)
    weights = 1.0 + drill_bias * boost
    weights = weights / weights.sum()

    samples = [
        ViewportSample(
            x=wsi.width_px / 2.0,
            y=wsi.height_px / 2.0,
            mag=MagLevel(0),
            t=_duration(rng),
        )
    ]
    level = 0
    for _ in range(n_samples - 1):
        move = rng.choice(3, p=DEFAULT_TRANSITION_PRIOR[level])
        level = min(5, max(0, level + (move - 1)))
        k = rng.choice(len(tissue), p=weights)
        r, c = tissue[k]
        x = (c + rng.random()) * wsi.cell_size
        y = (r + rng.random()) * wsi.cell_size
        x = float(np.clip(x, 0, wsi.width_px - 1e-6))
        y = float(np.clip(y, 0, wsi.height_px - 1e-6))
        samples.append(ViewportSample(x, y, MagLevel(level), _duration(rng)))
    return RawTrajectory(wsi_id, reader_id, "specialist", samples)


def _duration(rng: np.random.Generator) -> float:
    return float(min(rng.exponential(MEAN_DURATION_MS), MAX_DURATION_MS))
