"""Evaluation metrics: NSS, AUC-Judd, semantic sequence score via global
alignment, token-similarity metrics, spatial error, and magnification
accuracies."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateInputError, InvalidInputError
from .features import SyntheticFeatureProvider, cells_of, token_at, tokens_at, xy_of
from .pat_h import gaussian_map
from .synth import BACKGROUND, GRADE_CHARS, GradeMap
from .trajectory import MAG_FACTORS, Fixation, MagLevel, Scanpath

MATCH, MISMATCH, GAP = 1.0, -1.0, -1.0  # Needleman-Wunsch scores
_GRADE_BYTES = np.frombuffer(GRADE_CHARS.encode("ascii"), dtype=np.uint8)


def _fixated_cells(
    fixations: list[Fixation], shape: tuple[int, int], wsi_w: float, wsi_h: float
) -> set[tuple[int, int]]:
    """The distinct ``cells_of`` cells of the fixations."""
    rows, cols = cells_of(*xy_of(fixations), shape[0], shape[1], wsi_w, wsi_h)
    return set(zip(rows.tolist(), cols.tolist()))


def nss(h: np.ndarray, fixations: list[Fixation], wsi_w: float, wsi_h: float) -> float:
    """Mean z-scored map value at fixation cells (population std)."""
    if not fixations:
        raise InvalidInputError("nss requires at least one fixation")
    vals = np.asarray(h, dtype=np.float64)
    std = vals.std()
    if std == 0:
        raise DegenerateInputError("nss is undefined for a constant map")
    z = (vals - vals.mean()) / std
    cells = _fixated_cells(fixations, vals.shape, wsi_w, wsi_h)
    return float(np.mean(z[tuple(zip(*cells))]))


def auc_judd(
    h: np.ndarray, fixations: list[Fixation], wsi_w: float, wsi_h: float
) -> float:
    """ROC area, fixated cells positive vs all other cells, ties half-credit.

    Computed via average ranks, which equals the pairwise formulation
    AUC = P(pos > neg) + 0.5 * P(pos == neg) exactly. Each tie group of n
    values from ``np.unique`` takes its last rank - (n - 1) / 2.
    """
    if not fixations:
        raise InvalidInputError("auc requires at least one fixation")
    vals = np.asarray(h, dtype=np.float64)
    mask = np.zeros(vals.shape, dtype=bool)
    mask[tuple(zip(*_fixated_cells(fixations, vals.shape, wsi_w, wsi_h)))] = True
    n_pos = int(mask.sum())
    n_neg = mask.size - n_pos
    if n_neg == 0:
        raise ContractError("auc is undefined when every cell is fixated")
    _, inv, n = np.unique(vals.ravel(), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(n) - (n - 1) / 2.0)[inv]
    r_pos = ranks[mask.ravel()].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def grade_string(sp: Scanpath, gm: GradeMap) -> str:
    """Grade labels under the fixation centers; Background fixations dropped."""
    xs, ys = xy_of(sp.fixations)
    labels = gm.grid[cells_of(xs, ys, *gm.grid.shape, gm.width_px, gm.height_px)]
    return _GRADE_BYTES[labels[labels != BACKGROUND]].tobytes().decode("ascii")


def needleman_wunsch(a: str, b: str) -> float:
    """Global alignment score normalized by match * max length, clamped to [0, 1].

    The table is filled one row per character of the shorter string (the
    score is symmetric) and stored as u[j] = cell[j] - GAP * j. In that
    form the in-row gap move, cell[j - 1] + GAP, is u[j - 1], so a row is
    the running maximum of its diagonal and vertical moves. Every entry
    is a small integer, so float64 is exact.
    """
    if not a or not b:
        raise InvalidInputError("alignment requires non-empty strings")
    if len(a) > len(b):
        a, b = b, a
    codes_a = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    codes_b = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    diag = np.where(codes_a[:, None] == codes_b, MATCH - GAP, MISMATCH - GAP)
    u, t = np.zeros(len(b) + 1), np.empty(len(b) + 1)
    for i, d in enumerate(diag, start=1):
        t[0] = GAP * i
        np.maximum(u[:-1] + d, u[1:] + GAP, out=t[1:])
        np.maximum.accumulate(t, out=u)
    norm = (u[-1] + GAP * len(b)) / (MATCH * len(b))
    return float(min(1.0, max(0.0, norm)))


def sss(pred: Scanpath, gts: list[Scanpath], gm: GradeMap) -> float:
    """Mean alignment similarity of grade strings against each GT scanpath."""
    if not gts:
        raise InvalidInputError("sss requires at least one ground-truth scanpath")
    a = grade_string(pred, gm)
    if not a:
        raise DegenerateInputError("predicted scanpath never lands on tissue")
    scores = []
    for gt in gts:
        b = grade_string(gt, gm)
        if b:
            scores.append(needleman_wunsch(a, b))
    if not scores:
        raise DegenerateInputError("no ground-truth scanpath lands on tissue")
    return float(np.mean(scores))


def _unit_rows(tokens: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm in float64; zero rows stay zero."""
    t = tokens.astype(np.float64)
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    return np.divide(t, norms, out=np.zeros_like(t), where=norms > 0)


def tok_sim_scan(
    pred: Scanpath,
    gt: Scanpath,
    provider: SyntheticFeatureProvider,
    wsi_id: str,
) -> tuple[dict[int, float], float]:
    """Token similarity per magnification level plus the overall score.

    Each predicted fixation takes its best cosine against the GT fixation
    tokens at the same level (a zero token scores 0); levels absent from
    either scanpath are skipped.
    """
    px, py = xy_of(pred.fixations)
    gx, gy = xy_of(gt.fixations)
    pmag, gmag = np.array(pred.mag_indices()), np.array(gt.mag_indices())
    per_level: dict[int, float] = {}
    weights: dict[int, int] = {}
    for idx in range(len(MAG_FACTORS)):
        pk, gk = pmag == idx, gmag == idx
        if not pk.any() or not gk.any():
            continue
        grid = provider.get(wsi_id, MagLevel(idx))
        ptoks = _unit_rows(tokens_at(grid, px[pk], py[pk]))
        gtoks = _unit_rows(tokens_at(grid, gx[gk], gy[gk]))
        per_level[idx] = float((ptoks @ gtoks.T).max(axis=1).mean())
        weights[idx] = int(pk.sum())
    if not per_level:
        raise DegenerateInputError("scanpaths share no magnification level")
    total = sum(weights.values())
    overall = sum(per_level[i] * weights[i] for i in per_level) / total
    return per_level, float(overall)


def tok_sim_fix(
    pred_fix: Fixation, gt_fix: Fixation, provider: SyntheticFeatureProvider, wsi_id: str
) -> float:
    """Cosine similarity of the viewport tokens at the two fixations, in
    float64 as in ``tok_sim_scan`` (a zero token scores 0)."""
    pt = token_at(provider.get(wsi_id, pred_fix.mag), pred_fix.x, pred_fix.y)
    gt = token_at(provider.get(wsi_id, gt_fix.mag), gt_fix.x, gt_fix.y)
    u, v = _unit_rows(np.stack([pt, gt]))
    return float(u @ v)


def spatial_error(
    pred_fix: Fixation, gt_fix: Fixation, wsi_w: float, wsi_h: float
) -> float:
    """Euclidean distance in per-axis normalized coordinates."""
    if wsi_w <= 0 or wsi_h <= 0:
        raise InvalidInputError("invalid WSI bounds")
    dx = (pred_fix.x - gt_fix.x) / wsi_w
    dy = (pred_fix.y - gt_fix.y) / wsi_h
    return float(np.hypot(dx, dy))


def mag_accuracy(
    events: list[tuple[int, int, int]],
) -> tuple[float, dict[int, float]]:
    """Events are (current level, gt next level, predicted next level).

    Returns overall percentage and a per-current-level breakdown.
    """
    if not events:
        raise InvalidInputError("no events")
    correct = sum(1 for _, gt, pr in events if gt == pr)
    per: dict[int, float] = {}
    for level in sorted({cur for cur, _, _ in events}):
        sub = [(gt, pr) for cur, gt, pr in events if cur == level]
        per[level] = 100.0 * sum(1 for gt, pr in sub if gt == pr) / len(sub)
    return 100.0 * correct / len(events), per


def mag_change_accuracy(
    events: list[tuple[int, int, int]],
) -> tuple[float, dict[int, float]]:
    """mag_accuracy restricted to events where the GT level changes."""
    changes = [(cur, gt, pr) for cur, gt, pr in events if gt != cur]
    if not changes:
        raise DegenerateInputError("no magnification-change events")
    return mag_accuracy(changes)


def scanpath_to_heatmap(
    sp: Scanpath, shape: tuple[int, int], wsi_w: float, wsi_h: float
) -> np.ndarray:
    """``gaussian_map`` of all of a scanpath's fixations."""
    return gaussian_map(sp.fixations, shape, wsi_w, wsi_h)
