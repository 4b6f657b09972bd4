"""Evaluation metrics: NSS, AUC-Judd, semantic sequence score via global
alignment, token-similarity metrics, spatial error, and magnification
accuracies."""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from .errors import (
    ContractError,
    DegenerateInputError,
    InvalidInputError,
    ShapeError,
)
from .features import FeatureProvider, cell_of, token_at
from .pat_h import Heatmap, gaussian_map
from .synth import BACKGROUND, GRADE_CHARS, GradeMap
from .trajectory import Fixation, MagLevel, Scanpath

MATCH, MISMATCH, GAP = 1.0, -1.0, -1.0  # Needleman-Wunsch scores


def _fixation_cells(
    fixations: list[Fixation], shape: tuple[int, int], wsi_w: float, wsi_h: float
) -> set[tuple[int, int]]:
    rows, cols = shape
    return {cell_of(f.x, f.y, rows, cols, wsi_w, wsi_h) for f in fixations}


def nss(h: Heatmap, fixations: list[Fixation], wsi_w: float, wsi_h: float) -> float:
    """Mean z-scored map value at fixation cells (population std)."""
    if not fixations:
        raise InvalidInputError("nss requires at least one fixation")
    vals = np.asarray(h.values, dtype=np.float64)
    std = vals.std()
    if std == 0:
        raise DegenerateInputError("nss is undefined for a constant map")
    z = (vals - vals.mean()) / std
    cells = _fixation_cells(fixations, vals.shape, wsi_w, wsi_h)
    return float(np.mean([z[rc] for rc in cells]))


def auc_judd(
    h: Heatmap, fixations: list[Fixation], wsi_w: float, wsi_h: float
) -> float:
    """ROC area, fixated cells positive vs all other cells, ties half-credit.

    Computed via average ranks, which equals the pairwise formulation
    AUC = P(pos > neg) + 0.5 * P(pos == neg) exactly.
    """
    if not fixations:
        raise InvalidInputError("auc requires at least one fixation")
    vals = np.asarray(h.values, dtype=np.float64)
    mask = np.zeros(vals.shape, dtype=bool)
    for rc in _fixation_cells(fixations, vals.shape, wsi_w, wsi_h):
        mask[rc] = True
    n_pos = int(mask.sum())
    n_neg = mask.size - n_pos
    if n_neg == 0:
        raise ContractError("auc is undefined when every cell is fixated")
    ranks = rankdata(vals.ravel(), method="average")
    r_pos = ranks[mask.ravel()].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def grade_string(sp: Scanpath, gm: GradeMap) -> str:
    """Grade labels under the fixation centers; Background fixations dropped."""
    out = []
    for f in sp.fixations:
        label = gm.label_at(f.x, f.y)
        if label != BACKGROUND:
            out.append(GRADE_CHARS[label])
    return "".join(out)


def needleman_wunsch(a: str, b: str) -> float:
    """Global alignment score normalized by match * max length, clamped to [0, 1]."""
    if not a or not b:
        raise InvalidInputError("alignment requires non-empty strings")
    n, m = len(a), len(b)
    prev = [GAP * j for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [GAP * i] + [0.0] * m
        for j in range(1, m + 1):
            s = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            cur[j] = max(prev[j - 1] + s, prev[j] + GAP, cur[j - 1] + GAP)
        prev = cur
    norm = prev[m] / (MATCH * max(n, m))
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


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def tok_sim_scan(
    pred: Scanpath,
    gt: Scanpath,
    provider: FeatureProvider,
    wsi_id: str,
) -> tuple[dict[int, float], float]:
    """Token similarity per magnification level plus the overall score.

    Each predicted fixation takes its best cosine against the GT fixation
    tokens at the same level; levels absent from either scanpath are
    skipped.
    """
    per_level: dict[int, float] = {}
    weights: dict[int, int] = {}
    for idx in range(6):
        mag = MagLevel(idx)
        pf = [f for f in pred.fixations if f.mag == mag]
        gf = [f for f in gt.fixations if f.mag == mag]
        if not pf or not gf:
            continue
        grid = provider.get(wsi_id, mag)
        ptoks = [token_at(grid, f.x, f.y) for f in pf]
        gtoks = [token_at(grid, f.x, f.y) for f in gf]
        scores = [max(_cosine(p, g) for g in gtoks) for p in ptoks]
        per_level[idx] = float(np.mean(scores))
        weights[idx] = len(pf)
    if not per_level:
        raise DegenerateInputError("scanpaths share no magnification level")
    total = sum(weights.values())
    overall = sum(per_level[i] * weights[i] for i in per_level) / total
    return per_level, float(overall)


def tok_sim_fix(
    pred_fix: Fixation, gt_fix: Fixation, provider: FeatureProvider, wsi_id: str
) -> float:
    """Cosine similarity of the viewport tokens at the two fixations."""
    pt = token_at(provider.get(wsi_id, pred_fix.mag), pred_fix.x, pred_fix.y)
    gt = token_at(provider.get(wsi_id, gt_fix.mag), gt_fix.x, gt_fix.y)
    return _cosine(pt, gt)


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
) -> Heatmap:
    """``gaussian_map`` of all of a scanpath's fixations, as a Heatmap."""
    return Heatmap(MagLevel(0), gaussian_map(sp.fixations, shape, wsi_w, wsi_h))
