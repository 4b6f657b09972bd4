"""Autoregressive scanpath rollout with inhibition-of-return and
banded magnification transitions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DegenerateInputError, InvalidInputError
from .features import FeatureGrid, cell_centres
from .pat_s import ScanpathModelConfig, forward_step
from .trajectory import Fixation, MagLevel, Scanpath


@dataclass
class IorState:
    """Visited points, and one suppression mask per radius and grid.

    Points are only ever appended.  A mask is brought up to date with the
    points visited since its radius was last used, so each point's disk
    is drawn once per radius instead of at every step.
    """

    radius_px: float
    visited: list[tuple[float, float]] = field(default_factory=list)
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius_px <= 0:
            raise InvalidInputError("IOR radius must be positive")

    def visit(self, x: float, y: float):
        self.visited.append((x, y))

    def mask(self, rows: int, cols: int, wsi_w: float, wsi_h: float) -> np.ndarray:
        """Cells of a (rows, cols) grid over the WSI whose centre lies
        within radius_px of a visited point."""
        key = (self.radius_px, rows, cols, wsi_w, wsi_h)
        mask, drawn = self._masks.get(key) or (np.zeros((rows, cols), dtype=bool), 0)
        cy, cx = cell_centres(rows, cols, wsi_w, wsi_h)
        for x, y in self.visited[drawn:]:
            mask |= (cy[:, None] - y) ** 2 + (cx[None, :] - x) ** 2 <= self.radius_px ** 2
        self._masks[key] = (mask, len(self.visited))
        return mask


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


def apply_ior(h: np.ndarray, state: IorState, wsi_w: float, wsi_h: float) -> np.ndarray:
    """Copy of the (rows, cols) heatmap with every cell within radius_px of
    a visited point zeroed."""
    vals = np.array(h, dtype=np.float64)
    vals[state.mask(*vals.shape, wsi_w, wsi_h)] = 0.0
    return vals


def next_location(h: np.ndarray, wsi_w: float, wsi_h: float) -> tuple[float, float]:
    """Centre of the maximal cell; row-major first occurrence breaks ties."""
    vals = np.asarray(h, dtype=np.float64)
    if vals.max() <= 0:
        raise DegenerateInputError("heatmap has no positive cell")
    r, c = divmod(int(np.argmax(vals)), vals.shape[1])
    ys, xs = cell_centres(*vals.shape, wsi_w, wsi_h)
    return float(xs[c]), float(ys[r])


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
    ior_radius_px: float | None = None,
) -> RolloutResult:
    """Generate a scanpath of n fixations, starting centered at 1X.

    The default IOR radius is one viewport half-width at the current
    magnification; suppression persists for the whole rollout.  If
    inhibition empties the heatmap first, the result is aborted and holds
    the fixations made so far.
    """
    if n < 1:
        raise InvalidInputError("rollout length must be >= 1")
    if mode not in ("probmag", "priormag"):
        raise InvalidInputError(f"unknown magnification mode: {mode}")
    if mode == "priormag" and transition_matrix is None:
        raise InvalidInputError("priormag mode requires a transition matrix")
    if ior_radius_px is not None and ior_radius_px <= 0:
        raise InvalidInputError("IOR radius must be positive")
    wsi_w, wsi_h = f10x.width_px, f10x.height_px
    rng = np.random.default_rng(seed)
    fixations = [Fixation(wsi_w / 2.0, wsi_h / 2.0, MagLevel(0), 0.0)]
    ior = IorState(radius_px=1.0)
    ior.visit(fixations[0].x, fixations[0].y)

    while len(fixations) < n:
        cur = fixations[-1]
        heat_t, mag_t = forward_step(params, config, f2x, f10x, fixations)
        ior.radius_px = (
            ior_radius_px
            if ior_radius_px is not None
            else wsi_w / cur.mag.factor / 2.0
        )
        heat = apply_ior(heat_t.data, ior, wsi_w, wsi_h)
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
        ior.visit(x, y)
    return RolloutResult(Scanpath("", "", fixations))
