import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscan.errors import InvalidConfigError, InvalidInputError
from pathscan.trajectory import (
    Fixation,
    MagLevel,
    RawTrajectory,
    Scanpath,
    SimplifyParams,
    ViewportSample,
    dispersion_merge,
    simplify,
    simplify_fragment,
    split_by_magnification,
    turning_angle,
)


def sample(x, y, mag=0, t=200.0):
    return ViewportSample(x, y, MagLevel(mag), t)


def traj(samples):
    return RawTrajectory("w", "r", "general", samples)


class TestMagLevel:
    def test_factor_roundtrip(self):
        for idx, factor in enumerate((1, 2, 4, 10, 20, 40)):
            assert MagLevel(idx).factor == factor
            assert MagLevel.from_factor(factor).index == idx

    def test_invalid_index(self):
        with pytest.raises(InvalidInputError):
            MagLevel(6)
        with pytest.raises(InvalidInputError):
            MagLevel(-1)

    def test_invalid_factor(self):
        with pytest.raises(InvalidInputError):
            MagLevel.from_factor(3)


class TestSplit:
    def test_runs(self):
        t = traj([sample(i, 0, m) for i, m in enumerate([0, 0, 1, 1, 0])])
        frags = split_by_magnification(t)
        assert [len(f) for f in frags] == [2, 2, 1]

    def test_single_sample(self):
        frags = split_by_magnification(traj([sample(0, 0)]))
        assert len(frags) == 1 and len(frags[0]) == 1

    def test_constant_mag_one_fragment(self):
        frags = split_by_magnification(traj([sample(i, i) for i in range(5)]))
        assert len(frags) == 1


class TestTurningAngle:
    def test_collinear(self):
        assert turning_angle((0, 0), (1, 0), (2, 0)) == pytest.approx(0.0)

    def test_right_angle(self):
        assert turning_angle((0, 0), (1, 0), (1, 1)) == pytest.approx(math.pi / 2)

    def test_reversal(self):
        assert turning_angle((0, 0), (1, 0), (0, 0)) == pytest.approx(math.pi)

    def test_degenerate_coincident(self):
        assert turning_angle((1, 1), (1, 1), (2, 2)) == 0.0
        assert turning_angle((0, 0), (1, 1), (1, 1)) == 0.0


class TestSimplifyFragment:
    def test_zigzag_all_retained(self):
        # interior turning angles are all pi/2, every dwell above threshold
        pts = [sample(0, 0), sample(1, 0), sample(1, 1), sample(2, 1), sample(2, 2)]
        params = SimplifyParams(10_000.0, th_angle=math.pi / 4, th_time=100.0)
        out = simplify_fragment(pts, params)
        assert len(out) == 5

    def test_short_dwell_dropped(self):
        pts = [sample(0, 0), sample(1, 0, t=50.0), sample(1, 1)]
        params = SimplifyParams(10_000.0, th_angle=math.pi / 4, th_time=100.0)
        out = simplify_fragment(pts, params)
        assert [(f.x, f.y) for f in out] == [(0, 0), (1, 1)]

    def test_straight_line_keeps_endpoints_only(self):
        pts = [sample(i, 0) for i in range(6)]
        out = simplify_fragment(pts, SimplifyParams(10_000.0))
        assert [(f.x, f.y) for f in out] == [(0, 0), (5, 0)]

    def test_single_point(self):
        out = simplify_fragment([sample(3, 4)], SimplifyParams(10_000.0))
        assert len(out) == 1 and (out[0].x, out[0].y) == (3, 4)


class TestDispersionMerge:
    def test_two_close_points(self):
        # two points 10 apart with threshold 100: the final point is
        # retained and never merged, so each keeps its own duration
        p1 = Fixation(0, 0, MagLevel(0), 120.0)
        p2 = Fixation(10, 0, MagLevel(0), 80.0)
        out = dispersion_merge([p1, p2], SimplifyParams(10_000.0, th_dist=100.0))
        assert [(f.x, f.y, f.dur) for f in out] == [(0, 0, 120.0), (10, 0, 80.0)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(1, 500)),
                    min_size=1, max_size=30),
           st.floats(1.0, 200.0))
    def test_dwell_is_conserved(self, pts, th_dist):
        """Every input millisecond lands in exactly one output fixation."""
        fix = [Fixation(float(x), float(y), MagLevel(2), float(d)) for x, y, d in pts]
        out = dispersion_merge(fix, SimplifyParams(10_000.0, th_dist=th_dist))
        assert sum(f.dur for f in out) == sum(f.dur for f in fix)
        assert (out[0].x, out[0].y) == (fix[0].x, fix[0].y) and out[-1] == fix[-1]

    def test_far_points_all_emitted(self):
        pts = [Fixation(i * 500, 0, MagLevel(0), 100.0) for i in range(4)]
        out = dispersion_merge(pts, SimplifyParams(10_000.0, th_dist=100.0))
        assert [(f.x, f.dur) for f in out] == [(0, 100), (500, 100), (1000, 100), (1500, 100)]

    def test_single_point(self):
        p = Fixation(1, 2, MagLevel(2), 50.0)
        assert dispersion_merge([p], SimplifyParams(10_000.0, th_dist=10.0)) == [p]


class TestParams:
    def test_default_dist_threshold_scales_with_mag(self):
        p = SimplifyParams(wsi_width=100_000.0)
        assert p.dist_threshold(MagLevel(0)) == pytest.approx(25_000.0)
        assert p.dist_threshold(MagLevel(3)) == pytest.approx(2_500.0)

    def test_explicit_threshold_wins(self):
        p = SimplifyParams(10_000.0, th_dist=42.0)
        assert p.dist_threshold(MagLevel(4)) == 42.0

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SimplifyParams(10_000.0, th_time=-1.0)
        with pytest.raises(InvalidConfigError):
            SimplifyParams(10_000.0, th_dist=0.0)
        with pytest.raises(InvalidConfigError):
            SimplifyParams(10_000.0, max_fixations=1)
        with pytest.raises(InvalidConfigError):
            SimplifyParams(0.0)


def reference_simplify(t: RawTrajectory, params: SimplifyParams) -> list[Fixation]:
    """Independent straight-line re-implementation of the simplification.

    Written separately from the library code: fragments found by an index
    scan, turning angles via atan2, the dispersion pass as an explicit
    state machine.
    """
    # fragment boundaries
    bounds = [0]
    for i in range(1, len(t.samples)):
        if t.samples[i].mag != t.samples[i - 1].mag:
            bounds.append(i)
    bounds.append(len(t.samples))

    result = []
    for b in range(len(bounds) - 1):
        frag = t.samples[bounds[b] : bounds[b + 1]]
        # angle/time filter
        kept = [frag[0]]
        for i in range(1, len(frag) - 1):
            p0, p1, p2 = frag[i - 1], frag[i], frag[i + 1]
            v1 = (p1.x - p0.x, p1.y - p0.y)
            v2 = (p2.x - p1.x, p2.y - p1.y)
            if (v1 == (0.0, 0.0)) or (v2 == (0.0, 0.0)):
                ang = 0.0
            else:
                cross = v1[0] * v2[1] - v1[1] * v2[0]
                dot = v1[0] * v2[0] + v1[1] * v2[1]
                ang = abs(math.atan2(cross, dot))
            if ang > params.th_angle and p1.t > params.th_time:
                kept.append(p1)
        if len(frag) > 1:
            kept.append(frag[-1])
        # dispersion pass
        th = params.dist_threshold(frag[0].mag)
        # the final point is never merged: it is always its own fixation
        merged = [[kept[0].x, kept[0].y, kept[0].mag, kept[0].t]]
        for i in range(1, len(kept) - 1):
            p = kept[i]
            if math.dist((p.x, p.y), (merged[-1][0], merged[-1][1])) >= th:
                merged.append([p.x, p.y, p.mag, p.t])
            else:
                merged[-1][3] += p.t
        if len(kept) > 1:
            last = kept[-1]
            merged.append([last.x, last.y, last.mag, last.t])
        result.extend(Fixation(m[0], m[1], m[2], m[3]) for m in merged)
    return result


def random_trajectory(seed: int, max_len: int = 120) -> RawTrajectory:
    r = np.random.default_rng(seed)
    n = int(r.integers(1, max_len))
    level = int(r.integers(6))
    samples = []
    for _ in range(n):
        if r.random() < 0.15:
            level = min(5, max(0, level + int(r.integers(-1, 2))))
        samples.append(
            ViewportSample(
                float(r.uniform(0, 10_000)),
                float(r.uniform(0, 10_000)),
                MagLevel(level),
                float(r.uniform(0, 400)),
            )
        )
    return RawTrajectory("w", "r", "general", samples)


class TestSimplify:
    def test_matches_reference_on_seeded_trajectory(self):
        params = SimplifyParams(wsi_width=10_000.0)
        t = random_trajectory(40, max_len=41)
        got = simplify(t, params).fixations
        want = reference_simplify(t, params)
        assert got == want

    def test_boundary_samples_retained(self):
        samples = [sample(0, 0, 0), sample(5000, 5000, 0), sample(100, 100, 1),
                   sample(200, 200, 1), sample(50, 50, 2)]
        sp = simplify(traj(samples), SimplifyParams(wsi_width=10_000))
        coords = [(f.x, f.y, f.mag.index) for f in sp.fixations]
        for s in (samples[0], samples[1], samples[2], samples[3], samples[4]):
            assert (s.x, s.y, s.mag.index) in coords

    def test_cap_enforced_by_escalation(self):
        r = np.random.default_rng(3)
        samples = [
            ViewportSample(float(r.uniform(0, 10_000)), float(r.uniform(0, 10_000)),
                           MagLevel(0), 500.0)
            for _ in range(600)
        ]
        params = SimplifyParams(wsi_width=10_000.0, th_dist=1.0, max_fixations=150)
        sp = simplify(RawTrajectory("w", "r", "general", samples), params)
        assert len(sp) <= 150

    def test_returns_scanpath_metadata(self):
        sp = simplify(traj([sample(0, 0), sample(1, 1)]), SimplifyParams(10_000.0))
        assert isinstance(sp, Scanpath)
        assert sp.wsi_id == "w" and sp.reader_id == "r"


coord = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)
sample_st = st.builds(
    ViewportSample,
    x=coord,
    y=coord,
    mag=st.integers(min_value=0, max_value=5).map(MagLevel),
    t=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
traj_st = st.lists(sample_st, min_size=1, max_size=60).map(
    lambda s: RawTrajectory("w", "r", "general", s)
)


@settings(max_examples=60, deadline=None)
@given(traj_st)
def test_output_is_subsequence(t):
    sp = simplify(t, SimplifyParams(wsi_width=10_000.0))
    it = iter((s.x, s.y, s.mag) for s in t.samples)
    for f in sp.fixations:
        for x, y, m in it:
            if (x, y, m) == (f.x, f.y, f.mag):
                break
        else:
            pytest.fail("fixation not found in order among samples")


@settings(max_examples=60, deadline=None)
@given(traj_st)
def test_fragment_boundaries_preserved(t):
    sp = simplify(t, SimplifyParams(wsi_width=10_000.0))
    coords = {(f.x, f.y, f.mag) for f in sp.fixations}
    frags = split_by_magnification(t)
    for frag in frags:
        for s in (frag[0], frag[-1]):
            assert (s.x, s.y, s.mag) in coords


@settings(max_examples=60, deadline=None)
@given(traj_st)
def test_cap_and_nonempty(t):
    sp = simplify(t, SimplifyParams(wsi_width=10_000.0))
    assert 1 <= len(sp) <= 150
