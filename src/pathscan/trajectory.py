"""Viewport trajectory data model and scanpath simplification.

A raw trajectory is a dense 20 Hz stream of viewport samples (x, y,
magnification, dwell time).  Simplification condenses it to at most
``max_fixations`` viewport fixations while always keeping the samples
where the magnification changed, the points viewed for long durations,
and the points where the path turned sharply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidConfigError, InvalidInputError

MAG_FACTORS = (1, 2, 4, 10, 20, 40)
# threshold escalation of an over-long scanpath (see ``simplify``)
ESCALATION_FACTOR = 1.5
MAX_ESCALATIONS = 20


@dataclass(frozen=True, order=True)
class MagLevel:
    """Discrete magnification level, index 0..5 <-> factor 1X..40X."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index < len(MAG_FACTORS):
            raise InvalidInputError(f"magnification index out of range: {self.index}")

    @property
    def factor(self) -> int:
        return MAG_FACTORS[self.index]

    @classmethod
    def from_factor(cls, factor: int) -> "MagLevel":
        try:
            return cls(MAG_FACTORS.index(factor))
        except ValueError:
            raise InvalidInputError(
                f"unknown magnification factor {factor}, expected one of {MAG_FACTORS}"
            ) from None


@dataclass(frozen=True)
class ViewportSample:
    x: float
    y: float
    mag: MagLevel
    t: float  # dwell milliseconds at this sample

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"negative sample duration: {self.t}")


@dataclass
class RawTrajectory:
    wsi_id: str
    reader_id: str
    expertise: str
    samples: list[ViewportSample]

    def __post_init__(self):
        if not self.samples:
            raise InvalidInputError("trajectory must contain at least one sample")


@dataclass(frozen=True)
class Fixation:
    x: float
    y: float
    mag: MagLevel
    dur: float  # accumulated milliseconds

    def __post_init__(self):
        if self.dur < 0:
            raise InvalidInputError(f"negative fixation duration: {self.dur}")


@dataclass
class Scanpath:
    wsi_id: str
    reader_id: str
    fixations: list[Fixation]

    def __post_init__(self):
        if not self.fixations:
            raise InvalidInputError("scanpath must contain at least one fixation")

    def __len__(self) -> int:
        return len(self.fixations)

    def mag_indices(self) -> list[int]:
        return [f.mag.index for f in self.fixations]


@dataclass
class SimplifyParams:
    """Thresholds for the simplification passes over one WSI of level-0
    width ``wsi_width``.

    ``th_dist`` may be None, in which case the dispersion threshold is a
    quarter of the viewport width at the fragment's magnification, i.e.
    ``wsi_width / factor / 4`` (whether the threshold lives in level-0
    pixels or viewport-relative units is a config choice; this default
    picks viewport-relative).
    """

    wsi_width: float
    th_angle: float = math.pi / 6
    th_time: float = 100.0
    th_dist: float | None = None
    max_fixations: int = 150

    def __post_init__(self):
        if self.th_angle <= 0 or self.th_time <= 0:
            raise InvalidConfigError("angle/time thresholds must be positive")
        if self.th_dist is not None and self.th_dist <= 0:
            raise InvalidConfigError("distance threshold must be positive")
        if self.wsi_width <= 0:
            raise InvalidConfigError("wsi_width must be positive")
        if self.max_fixations < 2:
            raise InvalidConfigError("max_fixations must be >= 2")

    def dist_threshold(self, mag: MagLevel) -> float:
        if self.th_dist is not None:
            return self.th_dist
        return self.wsi_width / mag.factor / 4.0


def split_by_magnification(traj: RawTrajectory) -> list[list[ViewportSample]]:
    """Split into maximal runs of constant magnification."""
    if not traj.samples:
        raise InvalidInputError("empty trajectory")
    fragments: list[list[ViewportSample]] = [[traj.samples[0]]]
    for s in traj.samples[1:]:
        if s.mag == fragments[-1][-1].mag:
            fragments[-1].append(s)
        else:
            fragments.append([s])
    return fragments


def turning_angle(
    prev: tuple[float, float], cur: tuple[float, float], nxt: tuple[float, float]
) -> float:
    """Absolute turning angle in [0, pi] between (prev->cur) and (cur->nxt).

    Degenerate cases (coincident points) return 0.
    """
    ux, uy = cur[0] - prev[0], cur[1] - prev[1]
    vx, vy = nxt[0] - cur[0], nxt[1] - cur[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def simplify_fragment(
    sub: list[ViewportSample], params: SimplifyParams
) -> list[Fixation]:
    """Angle/time filter over one constant-magnification fragment.

    First and last samples are always kept; an interior sample survives
    only if its turning angle exceeds th_angle AND its dwell exceeds
    th_time.
    """
    if not sub:
        return []
    out = [Fixation(sub[0].x, sub[0].y, sub[0].mag, sub[0].t)]
    for p in range(1, len(sub) - 1):
        a = turning_angle(
            (sub[p - 1].x, sub[p - 1].y),
            (sub[p].x, sub[p].y),
            (sub[p + 1].x, sub[p + 1].y),
        )
        if a > params.th_angle and sub[p].t > params.th_time:
            out.append(Fixation(sub[p].x, sub[p].y, sub[p].mag, sub[p].t))
    if len(sub) > 1:
        s = sub[-1]
        out.append(Fixation(s.x, s.y, s.mag, s.t))
    return out


def _dist(a: Fixation, b: Fixation) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def dispersion_merge(pts: list[Fixation], params: SimplifyParams) -> list[Fixation]:
    """Dispersion pass over one fragment.

    Default behaviour merges every point lying within the distance
    threshold of the previously emitted point into it, accumulating the
    merged dwell time; a point is emitted once it is at least th_dist
    away.  The last point is never merged: it is always retained with its
    own dwell, so every input millisecond lands in one output fixation.
    """
    if len(pts) <= 1:
        return list(pts)
    th = params.dist_threshold(pts[0].mag)
    out = [pts[0]]
    for p in pts[1:-1]:
        if _dist(p, out[-1]) >= th:
            out.append(p)
        else:
            out[-1] = replace(out[-1], dur=out[-1].dur + p.dur)
    out.append(pts[-1])
    return out


def simplify(traj: RawTrajectory, params: SimplifyParams) -> Scanpath:
    """Full simplification: split by magnification, filter, merge.

    If the result exceeds ``max_fixations`` the time and distance
    thresholds are escalated by ``ESCALATION_FACTOR`` and the fragment
    pipeline reruns (fragment-boundary samples are never dropped, so a
    trajectory with more than ``max_fixations`` magnification changes
    cannot be condensed below that floor; escalation then stops).
    """
    fragments = split_by_magnification(traj)
    cur = params
    fixations: list[Fixation] = []
    for _ in range(MAX_ESCALATIONS + 1):
        fixations = []
        for frag in fragments:
            fixations.extend(dispersion_merge(simplify_fragment(frag, cur), cur))
        if len(fixations) <= params.max_fixations:
            break
        floor = sum(min(len(f), 2) for f in fragments)
        if len(fixations) <= floor:
            break  # only boundary points remain; cannot shrink further
        # escalate th_time plus th_dist in whichever mode it is configured
        cur = replace(cur, th_time=cur.th_time * ESCALATION_FACTOR)
        if cur.th_dist is not None:
            cur = replace(cur, th_dist=cur.th_dist * ESCALATION_FACTOR)
        else:
            cur = replace(cur, wsi_width=cur.wsi_width * ESCALATION_FACTOR)
    return Scanpath(traj.wsi_id, traj.reader_id, fixations)
