"""Stage-1 attention-heatmap network.

A transformer encoder over patch tokens with learned positional
embeddings, decoded by a per-patch linear head into attention scores.
Trained with a 1 - Pearson-correlation loss against ground-truth
heatmaps built by ``gaussian_map`` from the fixations at each
magnification (kernel width inversely proportional to the magnification
factor).
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import autodiff as ad
from . import nn
from .errors import DegenerateInputError, InvalidConfigError, InvalidInputError, ShapeError
from .features import FeatureGrid, cell_of
from .trajectory import Fixation, MagLevel


@dataclass
class HeatmapModelConfig:
    dim: int = 32
    layers: int = 2
    heads: int = 4
    mags_trained: tuple[int, ...] = (1, 2, 3, 4)  # 2X, 4X, 10X, 20X indices
    lr: float = 1e-3
    epochs: int = 100
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise InvalidConfigError("dim must be divisible by heads")
        if self.layers < 0:
            raise InvalidConfigError("layers must be >= 0")


@dataclass
class Heatmap:
    mag: MagLevel
    values: np.ndarray  # (rows, cols) in [0, 1]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def gaussian_map(
    fixations: Iterable[Fixation], shape: tuple[int, int], wsi_w: float, wsi_h: float
) -> np.ndarray:
    """Gaussian-smoothed fixation map on a (rows, cols) grid, peak exactly 1.

    One delta per fixation at its ``cell_of`` cell; the deltas of each
    magnification m are blurred with sigma(m) = cols / 8 / factor(m) (one
    eighth of the map width at 1X) and the blurred maps are summed in
    first-seen magnification order, then max-normalized.  No fixations
    give an all-zero map.
    """
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise InvalidInputError("heatmap shape must be positive")
    deltas: dict[int, np.ndarray] = {}
    for f in fixations:
        cell = cell_of(f.x, f.y, rows, cols, wsi_w, wsi_h)
        deltas.setdefault(f.mag.index, np.zeros(shape))[cell] += 1.0
    acc = np.zeros(shape)
    if not deltas:
        warnings.warn("no fixations; returning an all-zero map")
        return acc
    for idx, d in deltas.items():
        sigma = cols / 8.0 / MagLevel(idx).factor
        acc += gaussian_filter(d, sigma=sigma, mode="constant")
    return acc / acc.max()


def init_heatmap_params(
    n_tokens: int, config: HeatmapModelConfig, rng: np.random.Generator
) -> dict[str, ad.Tensor]:
    params: dict[str, ad.Tensor] = {}
    params["pos"] = ad.Tensor(
        (rng.standard_normal((n_tokens, config.dim)) * 0.02).astype(config.dtype),
        requires_grad=True,
    )
    for layer in range(config.layers):
        nn.init_encoder_layer(params, f"enc{layer}", config.dim, rng, config.dtype)
    nn.init_linear(params, "decode", config.dim, 1, rng, config.dtype)
    return params


def encode(
    grid: FeatureGrid, params: dict[str, ad.Tensor], config: HeatmapModelConfig
) -> ad.Tensor:
    """Contextual token grid z_L: add positional embeddings, run L layers."""
    if grid.dim != config.dim:
        raise ShapeError(f"grid dim {grid.dim} != model dim {config.dim}")
    tokens = ad.Tensor(grid.flat().astype(config.dtype))
    if tokens.shape[0] != params["pos"].shape[0]:
        raise ShapeError("token count does not match positional table")
    x = ad.add(tokens, params["pos"])
    for layer in range(config.layers):
        x = nn.encoder_layer(params, f"enc{layer}", x, config.heads)
    return x


def decode_scores(z_l: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Raw per-patch scores (N, 1); the differentiable training surface."""
    return nn.linear(params, "decode", z_l)


def decode_heatmap(
    z_l: ad.Tensor, params: dict[str, ad.Tensor], mag: MagLevel, rows: int, cols: int
) -> Heatmap:
    """Min-max normalized heatmap; a constant score map normalizes to zeros."""
    scores = decode_scores(z_l, params).data.reshape(rows, cols)
    lo, hi = scores.min(), scores.max()
    if hi - lo <= 0:
        return Heatmap(mag, np.zeros((rows, cols)))
    return Heatmap(mag, (scores - lo) / (hi - lo))


def cc(a: Heatmap | np.ndarray, b: Heatmap | np.ndarray) -> float:
    """Pearson correlation between two same-shape maps."""
    x = np.asarray(a.values if isinstance(a, Heatmap) else a, dtype=np.float64)
    y = np.asarray(b.values if isinstance(b, Heatmap) else b, dtype=np.float64)
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
    gt = np.asarray(gt.values if isinstance(gt, Heatmap) else gt, dtype=np.float64)
    if pred.data.size != gt.size:
        raise ShapeError("pred/gt size mismatch")
    gc = (gt - gt.mean()).reshape(-1)
    gt_ss = float((gc * gc).sum())
    if gt_ss == 0:
        raise DegenerateInputError("cc loss undefined for constant ground truth")
    p = ad.reshape(pred, (-1,))
    pc = ad.sub(p, ad.mean(p))
    num = ad.sum_(ad.mul(pc, ad.Tensor(gc)))
    den = ad.pow_const(ad.scale(ad.sum_(ad.mul(pc, pc)), gt_ss), 0.5)
    if den.item() == 0:
        raise DegenerateInputError("cc loss undefined for constant prediction")
    return ad.sub(1.0, ad.mul(num, ad.pow_const(den, -1.0)))


def train_heatmap(
    corpus: dict[int, list[tuple[FeatureGrid, Heatmap]]],
    config: HeatmapModelConfig,
) -> tuple[dict[int, dict[str, ad.Tensor]], dict[int, list[float]]]:
    """Train one model per magnification level; returns params and loss curves."""
    if not corpus or all(not v for v in corpus.values()):
        raise InvalidInputError("empty training corpus")
    models: dict[int, dict[str, ad.Tensor]] = {}
    curves: dict[int, list[float]] = {}
    for mag_idx in config.mags_trained:
        items = corpus.get(mag_idx, [])
        items = [(g, h) for g, h in items if np.ptp(np.asarray(h.values)) > 0]
        if not items:
            continue
        rng = np.random.default_rng((config.seed, mag_idx))
        n_tokens = items[0][0].rows * items[0][0].cols
        params = init_heatmap_params(n_tokens, config, rng)
        state = ad.AdamState()
        losses: list[float] = []
        for _ in range(config.epochs):
            total = 0.0
            for grid, gt in items:
                ad.zero_grads(params)
                z = encode(grid, params, config)
                loss = loss_cc(decode_scores(z, params), gt.values)
                ad.backward(loss)
                ad.adam_step(params, state, lr=config.lr)
                total += loss.item()
            losses.append(total / len(items))
        models[mag_idx] = params
        curves[mag_idx] = losses
    if not models:
        raise InvalidInputError("no magnification level had usable ground truth")
    return models, curves


def save_heatmap_models(path, models: dict[int, dict[str, ad.Tensor]]):
    flat = {f"m{idx}.{k}": v for idx, ps in models.items() for k, v in ps.items()}
    ad.save_checkpoint(path, flat)


def load_heatmap_models(path) -> dict[int, dict[str, np.ndarray]]:
    flat = ad.load_checkpoint(path)
    out: dict[int, dict[str, np.ndarray]] = {}
    for key, arr in flat.items():
        prefix, rest = key.split(".", 1)
        out.setdefault(int(prefix[1:]), {})[rest] = arr
    return out


def heatmap_to_pgm(h: Heatmap, comment: str = "") -> bytes:
    """16-bit binary PGM export."""
    vals = np.clip(np.asarray(h.values, dtype=np.float64), 0.0, 1.0)
    pix = (vals * 65535).round().astype(">u2")
    header = f"P5\n# {comment}\n{h.cols} {h.rows}\n65535\n".encode()
    return header + pix.tobytes()


def heatmap_to_json(h: Heatmap) -> str:
    return json.dumps(
        {"mag": h.mag.factor, "rows": h.rows, "cols": h.cols,
         "values": np.asarray(h.values).tolist()}
    )
