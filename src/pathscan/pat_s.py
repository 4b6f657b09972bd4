"""Stage-2 scanpath network.

Working memory = flattened low-mag (2X) WSI tokens plus one high-mag
(10X) viewport token per prior fixation, each tagged with positional,
scale, temporal and magnification embeddings.  A transformer encoder
contextualizes the memory, a single learnable query cross-attends to it,
and two heads predict the next fixation heatmap (sigmoid of a per-cell
dot product on the 10X feature grid) and the next magnification level
(linear + sigmoid over the cumulative magnification count).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn, pat_h
from .errors import (
    ContractError,
    InvalidConfigError,
    InvalidInputError,
    RangeError,
    ShapeError,
)
from .features import FeatureGrid, cell_of, token_at
from .trajectory import MagLevel, Fixation, Scanpath

TEMPORAL_CAP = 150  # matches the simplification fixation cap


@dataclass
class ScanpathModelConfig:
    dim: int = 32  # feature dim D of the provider grids
    model_dim: int = 32  # token dim C
    enc_layers: int = 1
    dec_layers: int = 1
    heads: int = 4
    lambda_mag: float = 1.0
    focal_gamma: float = 2.0
    focal_beta: float = 4.0
    lr: float = 1e-3
    epochs: int = 30
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        if self.focal_gamma <= 0 or self.focal_beta <= 0:
            raise InvalidConfigError("focal exponents must be positive")
        if self.lambda_mag < 0:
            raise InvalidConfigError("lambda_mag must be >= 0")
        if self.model_dim % self.heads != 0:
            raise InvalidConfigError("model_dim must be divisible by heads")


def init_scanpath_params(
    f2x_tokens: int, config: ScanpathModelConfig, rng: np.random.Generator
) -> dict[str, ad.Tensor]:
    d, c = config.dim, config.model_dim
    params: dict[str, ad.Tensor] = {}

    def table(name: str, n: int):
        params[name] = ad.Tensor(
            (rng.standard_normal((n, c)) * 0.02).astype(config.dtype),
            requires_grad=True,
        )

    nn.init_linear(params, "inproj", d, c, rng, config.dtype)
    table("pos2x", f2x_tokens)
    table("scale_emb", 2)  # 0 = wsi token, 1 = viewport token
    table("temporal_emb", TEMPORAL_CAP + 1)  # 0 reserved for wsi tokens
    table("mag_emb", 6)
    for layer in range(config.enc_layers):
        nn.init_encoder_layer(params, f"mem{layer}", c, rng, config.dtype)
    for layer in range(config.dec_layers):
        nn.init_cross_layer(params, f"dec{layer}", c, rng, config.dtype)
    params["query"] = ad.Tensor(
        (rng.standard_normal((1, c)) * 0.02).astype(config.dtype), requires_grad=True
    )
    nn.init_linear(params, "mlph.fc1", c, 2 * c, rng, config.dtype)
    nn.init_linear(params, "mlph.fc2", 2 * c, 2 * c, rng, config.dtype)
    nn.init_linear(params, "mlph.fc3", 2 * c, d, rng, config.dtype)
    nn.init_linear(params, "maghead", 6, 6, rng, config.dtype)
    return params


def _pos_index(f2x: FeatureGrid, x: float, y: float) -> int:
    r, c = cell_of(x, y, f2x.rows, f2x.cols, f2x.width_px, f2x.height_px)
    return r * f2x.cols + c


def build_memory(
    f2x: FeatureGrid,
    history: list[Fixation],
    f10x: FeatureGrid,
    params: dict[str, ad.Tensor],
    config: ScanpathModelConfig,
) -> ad.Tensor:
    """Working memory: |F_2X| WSI tokens followed by one token per fixation.

    Temporal embeddings index fixations by recency (most recent = 1) so
    the last fixation stays directly addressable at any prefix length.
    """
    for f in history:
        if not (0 <= f.x < f10x.width_px and 0 <= f.y < f10x.height_px):
            raise RangeError(f"fixation outside WSI: ({f.x}, {f.y})")
    n_wsi = f2x.rows * f2x.cols
    feats = [f2x.flat().astype(config.dtype)]
    if history:
        feats.append(
            np.stack([token_at(f10x, f.x, f.y) for f in history]).astype(config.dtype)
        )
    raw = nn.linear(params, "inproj", ad.Tensor(np.concatenate(feats, axis=0)))

    pos_idx = [r * f2x.cols + c for r in range(f2x.rows) for c in range(f2x.cols)]
    pos_idx += [_pos_index(f2x, f.x, f.y) for f in history]
    scale_idx = [0] * n_wsi + [1] * len(history)
    n_h = len(history)
    temp_idx = [0] * n_wsi + [min(n_h - i, TEMPORAL_CAP) for i in range(n_h)]
    mag_idx = [1] * n_wsi + [f.mag.index for f in history]  # wsi tokens are 2X

    mem = ad.add(raw, ad.embedding_lookup(params["pos2x"], pos_idx))
    mem = ad.add(mem, ad.embedding_lookup(params["scale_emb"], scale_idx))
    mem = ad.add(mem, ad.embedding_lookup(params["temporal_emb"], temp_idx))
    mem = ad.add(mem, ad.embedding_lookup(params["mag_emb"], mag_idx))
    return mem


def update_memory(
    mem: ad.Tensor, params: dict[str, ad.Tensor], config: ScanpathModelConfig
) -> ad.Tensor:
    for layer in range(config.enc_layers):
        mem = nn.encoder_layer(params, f"mem{layer}", mem, config.heads)
    return mem


def aggregate(
    mem: ad.Tensor, params: dict[str, ad.Tensor], config: ScanpathModelConfig
) -> ad.Tensor:
    q = params["query"]
    for layer in range(config.dec_layers):
        q = nn.cross_layer(params, f"dec{layer}", q, mem, config.heads)
    return q


def mlp_h(qp: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    h = ad.gelu(nn.linear(params, "mlph.fc1", qp))
    h = ad.gelu(nn.linear(params, "mlph.fc2", h))
    return nn.linear(params, "mlph.fc3", h)  # (1, D)


def predict_fixation_heatmap(
    qp: ad.Tensor, f10x: FeatureGrid, params: dict[str, ad.Tensor]
) -> ad.Tensor:
    """sigmoid(<token(cell), MLP_H(Q')>) per cell, shape (rows, cols)."""
    v = mlp_h(qp, params)
    if v.shape[-1] != f10x.dim:
        raise ShapeError("MLP_H output dim does not match feature dim")
    flat = ad.Tensor(f10x.flat().astype(v.data.dtype))
    scores = ad.matmul(flat, ad.transpose(v))  # (N, 1)
    return ad.reshape(ad.sigmoid(scores), (f10x.rows, f10x.cols))


def cumulative_mag_count(history: list[Fixation]) -> np.ndarray:
    cm = np.zeros(6, dtype=np.int64)
    for f in history:
        cm[f.mag.index] += 1
    return cm


def predict_mag(cm: np.ndarray, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """6 sigmoid activations from the cumulative magnification count."""
    x = ad.Tensor(np.asarray(cm, dtype=np.float64).reshape(1, 6))
    return ad.reshape(ad.sigmoid(nn.linear(params, "maghead", x)), (6,))


def focal_loss(
    pred: ad.Tensor, gt: np.ndarray, gamma: float = 2.0, beta: float = 4.0
) -> ad.Tensor:
    """Pixel-wise focal loss averaged over the map.

    gt must contain at least one cell equal to 1 (the target peak).
    """
    gt = np.asarray(gt, dtype=np.float64)
    if pred.data.shape != gt.shape:
        raise ShapeError("pred/gt shape mismatch")
    if not np.any(gt == 1.0):
        raise ContractError("focal loss requires a gt cell equal to 1")
    pos = (gt == 1.0).astype(np.float64)
    neg_w = ((1.0 - gt) ** beta) * (1.0 - pos)

    p = ad.clamp(pred, 1e-7, 1.0 - 1e-7)
    one_minus = ad.sub(1.0, p)
    pos_term = ad.mul(ad.Tensor(pos), ad.mul(ad.pow_const(one_minus, gamma), ad.log(p)))
    neg_term = ad.mul(ad.Tensor(neg_w), ad.mul(ad.pow_const(p, gamma), ad.log(one_minus)))
    total = ad.sum_(ad.add(pos_term, neg_term))
    return ad.scale(total, -1.0 / gt.size)


def class_weights(counts: np.ndarray) -> np.ndarray:
    """w_c = N / (C * N_c); classes with no samples get weight 0."""
    counts = np.asarray(counts, dtype=np.float64)
    n, c = counts.sum(), len(counts)
    w = np.zeros(c)
    nz = counts > 0
    w[nz] = n / (c * counts[nz])
    return w


def mag_loss(pred: ad.Tensor, gt_level: int, weights: np.ndarray) -> ad.Tensor:
    """Weighted NLL over sigmoid activations renormalized to a distribution."""
    if pred.data.shape != (6,):
        raise ShapeError("magnification activations must have length 6")
    if not 0 <= gt_level <= 5:
        raise RangeError(f"magnification level out of range: {gt_level}")
    total = ad.sum_(pred)
    p_gt = ad.mul(pred[gt_level], ad.pow_const(total, -1.0))
    return ad.scale(ad.log(p_gt), -float(weights[gt_level]))


def total_loss(fix_loss: ad.Tensor, mag_loss_: ad.Tensor, lambda_mag: float) -> ad.Tensor:
    return ad.add(fix_loss, ad.scale(mag_loss_, lambda_mag))


def forward_step(
    params: dict[str, ad.Tensor],
    config: ScanpathModelConfig,
    f2x: FeatureGrid,
    f10x: FeatureGrid,
    history: list[Fixation],
) -> tuple[ad.Tensor, ad.Tensor]:
    """One autoregressive step: (fixation heatmap (rows, cols), mag activations (6,))."""
    mem = build_memory(f2x, history, f10x, params, config)
    mem = update_memory(mem, params, config)
    qp = aggregate(mem, params, config)
    heat = predict_fixation_heatmap(qp, f10x, params)
    mags = predict_mag(cumulative_mag_count(history), params)
    return heat, mags


def fixation_cell(f10x: FeatureGrid, f: Fixation) -> tuple[int, int]:
    return cell_of(f.x, f.y, f10x.rows, f10x.cols, f10x.width_px, f10x.height_px)


def prefix_examples(scanpaths: list[tuple[str, Scanpath]]):
    """Behavior-cloning examples: one per (scanpath, prefix length)."""
    out = []
    for wsi_id, sp in scanpaths:
        if len(sp) < 2:
            warnings.warn(f"scanpath on {wsi_id} shorter than 2; skipped")
            continue
        for k in range(1, len(sp)):
            out.append((wsi_id, sp, k))
    return out


def train_scanpath(
    corpus: list[tuple[str, Scanpath]],
    provider,
    config: ScanpathModelConfig,
    stage1_models: dict[int, dict[str, np.ndarray]] | None = None,
    stage1_config=None,
) -> tuple[dict[str, ad.Tensor], list[tuple[int, float, float, float]]]:
    """Behavior-clone next-fixation prediction over all scanpath prefixes.

    Returns the trained parameters and a per-epoch log of
    (epoch, fixation loss, magnification loss, total loss).
    """
    examples = prefix_examples(corpus)
    if not examples:
        raise InvalidInputError("corpus has no trainable scanpaths")

    wsi_ids = sorted({w for w, _, _ in examples})
    f2x_grids = {
        w: _stage_features(provider, w, MagLevel(1), stage1_models, stage1_config)
        for w in wsi_ids
    }
    f10x_grids = {
        w: _stage_features(provider, w, MagLevel(3), stage1_models, stage1_config)
        for w in wsi_ids
    }

    counts = cumulative_mag_count(
        [sp.fixations[k] for _, sp, k in examples]
    )
    weights = class_weights(counts)

    first = f2x_grids[wsi_ids[0]]
    rng = np.random.default_rng(config.seed)
    params = init_scanpath_params(first.rows * first.cols, config, rng)
    state = ad.AdamState()
    log: list[tuple[int, float, float, float]] = []
    y_cache: dict[tuple[str, int, int, int], np.ndarray] = {}

    order = np.arange(len(examples))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        tot_fix = tot_mag = 0.0
        for i in order:
            wsi_id, sp, k = examples[i]
            f2x, f10x = f2x_grids[wsi_id], f10x_grids[wsi_id]
            target = sp.fixations[k]
            cell = fixation_cell(f10x, target)
            key = (wsi_id, cell[0], cell[1], target.mag.index)
            if key not in y_cache:
                y_cache[key] = pat_h.gaussian_map(
                    [target], (f10x.rows, f10x.cols), f10x.width_px, f10x.height_px
                )
            ad.zero_grads(params)
            heat, mags = forward_step(params, config, f2x, f10x, sp.fixations[:k])
            l_fix = focal_loss(heat, y_cache[key], config.focal_gamma, config.focal_beta)
            l_mag = mag_loss(mags, target.mag.index, weights)
            loss = total_loss(l_fix, l_mag, config.lambda_mag)
            ad.backward(loss)
            ad.adam_step(params, state, lr=config.lr)
            tot_fix += l_fix.item()
            tot_mag += l_mag.item()
        n = len(examples)
        log.append((epoch, tot_fix / n, tot_mag / n,
                    (tot_fix + config.lambda_mag * tot_mag) / n))
    return params, log


def _stage_features(provider, wsi_id: str, mag: MagLevel, stage1_models,
                    stage1_config) -> FeatureGrid:
    """Provider grid, optionally re-encoded by the stage-1 encoder."""
    grid = provider.get(wsi_id, mag)
    if not stage1_models or mag.index not in stage1_models:
        return grid
    if stage1_config is None:
        raise InvalidInputError("stage1_config required when stage1_models given")
    s1_params = {k: ad.Tensor(v) for k, v in stage1_models[mag.index].items()}
    z = pat_h.encode(grid, s1_params, stage1_config)
    data = z.data.reshape(grid.rows, grid.cols, grid.dim).astype(np.float32)
    return FeatureGrid(grid.mag, data, grid.patch_px)
