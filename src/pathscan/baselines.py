"""Chance baselines and the empirical magnification-transition prior."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError
from .inference import TransitionMatrix
from .trajectory import MAG_FACTORS, Fixation, MagLevel, Scanpath


def random1_next(
    wsi_w: float, wsi_h: float, rng: np.random.Generator
) -> tuple[float, float, MagLevel]:
    """Uniform location within bounds, uniform magnification over 6 levels."""
    if wsi_w <= 0 or wsi_h <= 0:
        raise InvalidInputError("invalid WSI bounds")
    return (
        float(rng.uniform(0, wsi_w)),
        float(rng.uniform(0, wsi_h)),
        MagLevel(int(rng.integers(6))),
    )


def random1_scanpath(
    wsi_w: float, wsi_h: float, n: int, rng: np.random.Generator
) -> Scanpath:
    fixations = []
    for _ in range(n):
        x, y, m = random1_next(wsi_w, wsi_h, rng)
        fixations.append(Fixation(x, y, m, 0.0))
    return Scanpath("", "random1", fixations)


def _clamp_fixation(f: Fixation, wsi_w: float, wsi_h: float) -> Fixation:
    return replace(
        f,
        x=min(max(f.x, 0.0), np.nextafter(wsi_w, 0.0)),
        y=min(max(f.y, 0.0), np.nextafter(wsi_h, 0.0)),
    )


def random2_scanpath(
    corpus: list[Scanpath],
    test_wsi: str,
    wsi_w: float,
    wsi_h: float,
    rng: np.random.Generator,
) -> Scanpath:
    """A donor pathologist's scanpath from a different WSI, clamped to bounds."""
    donors = [sp for sp in corpus if sp.wsi_id != test_wsi]
    if not donors:
        raise InvalidInputError("no donor scanpath from a different WSI")
    donor = donors[int(rng.integers(len(donors)))]
    fixations = [_clamp_fixation(f, wsi_w, wsi_h) for f in donor.fixations]
    return Scanpath(donor.wsi_id, donor.reader_id, fixations)


def random2_next(
    corpus: list[Scanpath],
    reader_id: str,
    fixation_index: int,
    test_wsi: str,
    rng: np.random.Generator,
) -> tuple[float, float, MagLevel]:
    """Same reader, different WSI, same fixation index.

    Indices past the donor's length clamp to its last fixation.
    """
    donors = [
        sp for sp in corpus if sp.reader_id == reader_id and sp.wsi_id != test_wsi
    ]
    if not donors:
        raise InvalidInputError(f"no donor scanpath for reader {reader_id}")
    donor = donors[int(rng.integers(len(donors)))]
    f = donor.fixations[min(fixation_index, len(donor) - 1)]
    return f.x, f.y, f.mag


def estimate_transition_matrix(
    corpus: list[Scanpath],
) -> tuple[TransitionMatrix, np.ndarray]:
    """Empirical 6x6 transition matrix plus per-level move counts.

    The second return value is a (6, 3) array of raw counts over
    (decrease, stay, increase) per current level, the data behind the
    stacked-bar transition statistics.
    """
    if not corpus:
        raise InvalidInputError("empty corpus")
    counts = np.zeros((6, 6), dtype=np.float64)
    moves = np.zeros((6, 3), dtype=np.int64)
    for sp in corpus:
        idx = sp.mag_indices()
        for a, b in zip(idx, idx[1:]):
            counts[a, b] += 1
            moves[a, int(np.sign(b - a)) + 1] += 1
    probs = np.empty_like(counts)
    for r in range(6):
        total = counts[r].sum()
        if total == 0:
            warnings.warn(f"level {r} never visited; using a uniform row")
            probs[r] = 1.0 / 6.0
        else:
            probs[r] = counts[r] / total
    return TransitionMatrix(probs), moves


def transition_stats_csv(moves: np.ndarray) -> list[tuple]:
    """CSV rows of (level, decrease, stay, increase) raw and row-normalized:
    the header, then one row per level."""
    rows: list[tuple] = [("level", "decrease", "stay", "increase",
                          "decrease_norm", "stay_norm", "increase_norm")]
    for r in range(6):
        total = moves[r].sum()
        norm = moves[r] / total if total else np.zeros(3)
        rows.append((f"{MAG_FACTORS[r]}X", *(int(m) for m in moves[r]),
                     *(f"{v:.6f}" for v in norm)))
    return rows
