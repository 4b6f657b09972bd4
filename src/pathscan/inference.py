"""Autoregressive scanpath rollout with inhibition-of-return and
banded magnification transitions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DegenerateInputError, InvalidInputError
from .features import FeatureGrid
from .pat_h import Heatmap
from .pat_s import ScanpathModelConfig, forward_step
from .trajectory import Fixation, MagLevel, Scanpath


@dataclass
class IorState:
    visited: list[tuple[float, float, int]] = field(default_factory=list)
    radius_px: float = 1.0
    decay: float = 0.0  # multiplicative suppression inside the disk

    def __post_init__(self):
        if self.radius_px <= 0:
            raise InvalidInputError("IOR radius must be positive")
        if not 0.0 <= self.decay < 1.0:
            raise InvalidInputError("IOR decay must lie in [0, 1)")

    def visit(self, x: float, y: float, mag: MagLevel):
        self.visited.append((x, y, mag.index))


@dataclass
class TransitionMatrix:
    probs: np.ndarray  # (6, 6) row-stochastic

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (6, 6):
            raise InvalidInputError("transition matrix must be 6x6")
        if not np.allclose(p.sum(axis=1), 1.0):
            raise InvalidInputError("transition matrix rows must sum to 1")
        self.probs = p


def apply_ior(h: Heatmap, state: IorState, wsi_w: float, wsi_h: float) -> Heatmap:
    """Multiply every cell within radius_px of a visited point by decay."""
    vals = np.asarray(h.values, dtype=np.float64).copy()
    rows, cols = vals.shape
    cx = (np.arange(cols) + 0.5) * (wsi_w / cols)
    cy = (np.arange(rows) + 0.5) * (wsi_h / rows)
    for x, y, _ in state.visited:
        mask = (cy[:, None] - y) ** 2 + (cx[None, :] - x) ** 2 <= state.radius_px ** 2
        vals[mask] *= state.decay
    return Heatmap(h.mag, vals)


def next_location(h: Heatmap, wsi_w: float, wsi_h: float) -> tuple[float, float]:
    """Center of the maximal cell; row-major first occurrence breaks ties."""
    vals = np.asarray(h.values, dtype=np.float64)
    if vals.max() <= 0:
        raise DegenerateInputError("heatmap has no positive cell")
    flat = int(np.argmax(vals))
    r, c = divmod(flat, vals.shape[1])
    return ((c + 0.5) * wsi_w / vals.shape[1], (r + 0.5) * wsi_h / vals.shape[0])


def _band(m_t: MagLevel) -> list[int]:
    return [i for i in (m_t.index - 1, m_t.index, m_t.index + 1) if 0 <= i <= 5]


def next_mag_probmag(
    logits: np.ndarray,
    m_t: MagLevel,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
) -> MagLevel:
    """Restrict the 6 activations to the +/-1 band around m_t, then pick.

    Probabilistic mode samples proportionally to the restricted
    activations; deterministic mode takes their argmax.  If every
    restricted activation is zero the level stays unchanged.
    """
    logits = np.asarray(logits, dtype=np.float64)
    band = _band(m_t)
    w = logits[band]
    if w.sum() <= 0:
        return m_t
    if deterministic:
        return MagLevel(band[int(np.argmax(w))])
    if rng is None:
        raise InvalidInputError("probabilistic mode requires an rng")
    return MagLevel(band[rng.choice(len(band), p=w / w.sum())])


def next_mag_priormag(
    tm: TransitionMatrix, m_t: MagLevel, rng: np.random.Generator
) -> MagLevel:
    """Sample from the empirical transition row, masked to the +/-1 band."""
    band = _band(m_t)
    w = tm.probs[m_t.index, band]
    if w.sum() <= 0:
        return m_t
    return MagLevel(band[rng.choice(len(band), p=w / w.sum())])


def infer_length(scanpaths: list[Scanpath]) -> int:
    """Rounded mean scanpath length in the training corpus."""
    if not scanpaths:
        raise InvalidInputError("empty corpus")
    return int(round(float(np.mean([len(sp) for sp in scanpaths]))))


@dataclass
class RolloutResult:
    scanpath: Scanpath
    aborted: bool = False
    reason: str | None = None


def rollout(
    params: dict[str, ad.Tensor],
    config: ScanpathModelConfig,
    f2x: FeatureGrid,
    f10x: FeatureGrid,
    n: int,
    mode: str = "probmag",
    seed: int = 0,
    transition_matrix: TransitionMatrix | None = None,
    ior_decay: float = 0.0,
    ior_radius_px: float | None = None,
) -> RolloutResult:
    """Generate a scanpath of exactly n fixations, starting centered at 1X.

    The default IOR radius is one viewport half-width at the current
    magnification; suppression persists for the whole rollout.
    """
    if n < 1:
        raise InvalidInputError("rollout length must be >= 1")
    if mode not in ("probmag", "priormag"):
        raise InvalidInputError(f"unknown magnification mode: {mode}")
    if mode == "priormag" and transition_matrix is None:
        raise InvalidInputError("priormag mode requires a transition matrix")
    wsi_w, wsi_h = f10x.width_px, f10x.height_px
    rng = np.random.default_rng(seed)
    fixations = [Fixation(wsi_w / 2.0, wsi_h / 2.0, MagLevel(0), 0.0)]
    ior = IorState(radius_px=1.0, decay=ior_decay)
    ior.visit(fixations[0].x, fixations[0].y, fixations[0].mag)

    while len(fixations) < n:
        cur = fixations[-1]
        heat_t, mag_t = forward_step(params, config, f2x, f10x, fixations)
        heat = Heatmap(MagLevel(3), heat_t.data)
        ior.radius_px = (
            ior_radius_px
            if ior_radius_px is not None
            else wsi_w / cur.mag.factor / 2.0
        )
        heat = apply_ior(heat, ior, wsi_w, wsi_h)
        try:
            x, y = next_location(heat, wsi_w, wsi_h)
        except DegenerateInputError:
            return RolloutResult(
                Scanpath("", "", fixations), aborted=True,
                reason="degenerate heatmap mid-rollout",
            )
        if mode == "probmag":
            m = next_mag_probmag(mag_t.data, cur.mag, rng)
        else:
            m = next_mag_priormag(transition_matrix, cur.mag, rng)
        fixations.append(Fixation(x, y, m, 0.0))
        ior.visit(x, y, m)
    return RolloutResult(Scanpath("", "", fixations))
