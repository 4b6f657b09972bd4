"""Stage-1 attention-heatmap network.

A transformer encoder over patch tokens with learned positional
embeddings, decoded by a per-patch linear head into attention scores.
Trained with a 1 - Pearson-correlation loss against ground-truth
heatmaps built by ``gaussian_map`` from the fixations at each
magnification (kernel width inversely proportional to the magnification
factor).
"""

from __future__ import annotations

import re
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import io, nn
from .errors import (DegenerateInputError, FormatError, InvalidConfigError, InvalidInputError,
                     ShapeError)
from .features import FeatureGrid, cells_of, xy_of
from .trajectory import Fixation, MagLevel

LEVELS = (1, 2, 3, 4)  # the magnifications train-heatmap models: 2X, 4X, 10X, 20X


@dataclass
class HeatmapModelConfig:
    dim: int = 32
    layers: int = 2
    heads: int = 4
    lr: float = 1e-3
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1 or self.dim % self.heads != 0:
            raise InvalidConfigError(
                f"heads must be >= 1 and divide dim {self.dim}, got {self.heads}")
        if self.layers < 0:
            raise InvalidConfigError("layers must be >= 0")
        if not self.lr > 0:
            raise InvalidConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise InvalidConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


def gaussian_map(
    fixations: list[Fixation], shape: tuple[int, int], wsi_w: float, wsi_h: float
) -> np.ndarray:
    """Gaussian-smoothed fixation map on a (rows, cols) grid, peak exactly 1.

    One delta per fixation at its ``cells_of`` cell; the deltas of each
    magnification m are blurred with sigma(m) = cols / 8 / factor(m) (one
    eighth of the map width at 1X) and the blurred maps are summed in
    first-seen magnification order, then max-normalized.  No fixations
    give an all-zero map.  ``_blur`` takes radius int(4 sigma + 0.5), weights
    exp(-x^2 / 2 sigma^2) over their sum and zero padding, along rows then
    columns; each output is its centre term plus (left + right) * weight per
    symmetric pair, outermost pair first.
    """
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise InvalidInputError("heatmap shape must be positive")
    r, c = cells_of(*xy_of(fixations), rows, cols, wsi_w, wsi_h)
    mags = np.array([f.mag.index for f in fixations], dtype=np.intp)
    acc = np.zeros(shape)
    if not fixations:
        warnings.warn("no fixations; returning an all-zero map")
        return acc
    for idx in dict.fromkeys(mags.tolist()):  # first-seen order
        d, at = np.zeros(shape), mags == idx
        np.add.at(d, (r[at], c[at]), 1.0)
        acc += _blur(d, cols / 8.0 / MagLevel(idx).factor)
    return acc / acc.max()


def _blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """``a`` correlated with ``gaussian_map``'s kernel along axis 0, then axis 1."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum()).tolist()
    for _ in range(2):  # each pass blurs axis 0 and hands on its transpose
        n = len(a)
        p = np.zeros((n + 2 * r, a.shape[1]))
        p[r:r + n] = a
        out = p[r:r + n] * w[r]  # a's values, C-ordered, so every term below is too
        for k in range(r):  # p[k + i] is a[i - (r - k)], p[2r - k + i] is a[i + r - k]
            out += (p[k:k + n] + p[2 * r - k:2 * r - k + n]) * w[k]
        a = out.T
    return a


def init_heatmap_params(
    n_tokens: int, config: HeatmapModelConfig, rng: np.random.Generator | None
) -> dict[str, ad.Tensor]:
    params: dict[str, ad.Tensor] = {}
    nn.init_param(params, "pos", (n_tokens, config.dim), rng)
    for layer in range(config.layers):
        nn.init_encoder_layer(params, f"enc{layer}", config.dim, rng)
    nn.init_linear(params, "decode", config.dim, 1, rng)
    return params


def encode(
    grid: FeatureGrid, params: dict[str, ad.Tensor], config: HeatmapModelConfig
) -> ad.Tensor:
    """Contextual token grid z_L: add positional embeddings, run L layers."""
    if grid.dim != config.dim:
        raise ShapeError(f"grid dim {grid.dim} != model dim {config.dim}")
    if grid.rows * grid.cols != params["pos"].shape[0]:
        raise ShapeError("token count does not match positional table")
    x = ad.add(grid.flat(), params["pos"])
    for layer in range(config.layers):
        x = nn.encoder_layer(params, f"enc{layer}", x, config.heads)
    return x


def decode_scores(z_l: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Raw per-patch scores (N, 1); the differentiable training surface."""
    return nn.linear(params, "decode", z_l)


def decode_heatmap(
    z_l: ad.Tensor, params: dict[str, ad.Tensor], rows: int, cols: int
) -> np.ndarray:
    """Min-max normalized (rows, cols) map; constant scores normalize to zeros."""
    scores = decode_scores(z_l, params).data.reshape(rows, cols)
    lo, hi = scores.min(), scores.max()
    if hi - lo <= 0:
        return np.zeros((rows, cols))
    return (scores - lo) / (hi - lo)


def cc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two same-shape maps."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"heatmap shapes differ: {x.shape} vs {y.shape}")
    xc = x - x.mean()
    yc = y - y.mean()
    den = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if den == 0:
        raise DegenerateInputError("cc is undefined for a zero-variance map")
    return float((xc * yc).sum() / den)


def loss_cc(pred: ad.Tensor, gt: np.ndarray) -> ad.Tensor:
    """1 - CC(pred, gt), differentiable through pred."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.data.size != gt.size:
        raise ShapeError("pred/gt size mismatch")
    gc = (gt - gt.mean()).reshape(-1)
    gt_ss = float((gc * gc).sum())
    if gt_ss == 0:
        raise DegenerateInputError("cc loss undefined for constant ground truth")
    p = ad.reshape(pred, (-1,))
    pc = ad.sub(p, ad.mean(p))
    num = ad.sum_(ad.mul(pc, gc))
    den = ad.pow_const(ad.scale(ad.sum_(ad.mul(pc, pc)), gt_ss), 0.5)
    if den.item() == 0:
        raise DegenerateInputError("cc loss undefined for constant prediction")
    return ad.sub(1.0, ad.mul(num, ad.pow_const(den, -1.0)))


def train_heatmap(
    corpus: dict[int, list[tuple[FeatureGrid, np.ndarray]]],
    config: HeatmapModelConfig,
    progress=None,
) -> tuple[dict[int, dict[str, ad.Tensor]], dict[int, list[float]]]:
    """Train one model per magnification level the corpus holds, in level
    order; returns params and loss curves. After each epoch of a level,
    ``progress`` (if given) receives a dict of its mean loss, mean gradient
    norm and steps per second."""
    if not corpus or all(not v for v in corpus.values()):
        raise InvalidInputError("empty training corpus")
    models: dict[int, dict[str, ad.Tensor]] = {}
    curves: dict[int, list[float]] = {}
    for mag_idx in sorted(corpus):
        items = [(g, h) for g, h in corpus[mag_idx] if np.ptp(h) > 0]
        if not items:
            continue
        rng = np.random.default_rng((config.seed, mag_idx))
        n_tokens = items[0][0].rows * items[0][0].cols
        params = init_heatmap_params(n_tokens, config, rng)
        state = ad.AdamState()
        losses: list[float] = []
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            total = norm = 0.0
            for grid, gt in items:
                ad.zero_grads(params)
                z = encode(grid, params, config)
                loss = loss_cc(decode_scores(z, params), gt)
                ad.backward(loss)
                norm += ad.adam_step(params, state, lr=config.lr)
                total += loss.item()
            losses.append(total / len(items))
            if progress:
                progress({"level": mag_idx, "epoch": f"{epoch + 1}/{config.epochs}",
                          "loss": losses[-1], "grad_norm": norm / len(items),
                          "steps_per_s": len(items) / (time.perf_counter() - t0)})
        models[mag_idx] = params
        curves[mag_idx] = losses
    if not models:
        raise InvalidInputError("no magnification level had usable ground truth")
    return models, curves


def level_tables(models: dict[int, dict[str, ad.Tensor]], prefix: str = "") -> dict:
    """Every level's parameters in one table, each under ``prefix`` + ``m{idx}.``."""
    return {f"{prefix}m{idx}.{k}": v for idx, ps in models.items() for k, v in ps.items()}


def split_levels(tables: dict, config: HeatmapModelConfig, source, prefix: str = "") -> dict:
    """The models whose ``level_tables(models, prefix)`` the checkpoint table
    ``tables`` of ``source`` holds, popped from it, each level checked by
    ``nn.checked_params``. A name that starts with ``prefix`` but is no
    ``prefix`` + ``m{idx}.<name>``, or no such name, raises FormatError."""
    levels: dict[int, dict[str, np.ndarray]] = {}
    for key in [k for k in tables if k.startswith(prefix)]:
        name = re.fullmatch(re.escape(prefix) + r"m(\d+)\.(.+)", key)
        if not name:
            raise FormatError(f"{source}: tensor {key} is not {prefix}m<level>.<name>")
        levels.setdefault(int(name[1]), {})[name[2]] = tables.pop(key)
    if not levels:
        raise FormatError(f"{source}: no {prefix}m<level>. tensors")
    return {idx: nn.checked_params(t, lambda n: init_heatmap_params(n, config, None),
                                   "pos", source, f"{prefix}m{idx}.")
            for idx, t in levels.items()}


def save_heatmap_models(path, models: dict[int, dict[str, ad.Tensor]], config: HeatmapModelConfig):
    """The checkpoint ``path`` of ``level_tables(models)`` and its sidecar."""
    ad.save_checkpoint(path, level_tables(models))
    io.write_sidecar(path, config)


def load_heatmap_models(path) -> tuple[dict[int, dict[str, ad.Tensor]], HeatmapModelConfig]:
    """Per-level parameters and config of a ``save_heatmap_models`` pair."""
    config = io.read_sidecar(path, HeatmapModelConfig)[0]
    return split_levels(ad.load_checkpoint(path), config, path), config
