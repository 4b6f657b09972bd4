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

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import io, nn, pat_h
from .errors import (ContractError, InvalidConfigError, InvalidInputError, NumericError,
                     RangeError, ShapeError)
from .features import FeatureGrid, cells_of, tokens_at, xy_of
from .features import token_at  # noqa: F401  (bench/test_bench.py asserts this binding)
from .trajectory import MagLevel, Fixation, Scanpath

TEMPORAL_CAP = 150  # matches the simplification fixation cap
FOCAL_GAMMA, FOCAL_BETA = 2.0, 4.0  # focal-loss exponents
STAGE1 = "stage1."  # the prefix of the stage-1 tensors a stage-2 checkpoint carries


@dataclass
class ScanpathModelConfig:
    dim: int = 32  # feature dim D of the provider grids
    model_dim: int = 32  # token dim C
    enc_layers: int = 1
    dec_layers: int = 1
    heads: int = 4
    lr: float = 1e-3
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.model_dim < 1 or self.heads < 1 or self.model_dim % self.heads != 0:
            raise InvalidConfigError(
                "model_dim and heads must be >= 1 and heads divide model_dim, "
                f"got model_dim {self.model_dim}, heads {self.heads}")
        if self.enc_layers < 0 or self.dec_layers < 0:
            raise InvalidConfigError(
                "enc_layers and dec_layers must be >= 0, "
                f"got {self.enc_layers}, {self.dec_layers}")
        if not self.lr > 0:
            raise InvalidConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise InvalidConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


def init_scanpath_params(
    f2x_tokens: int, config: ScanpathModelConfig, rng: np.random.Generator | None
) -> dict[str, ad.Tensor]:
    d, c = config.dim, config.model_dim
    params: dict[str, ad.Tensor] = {}
    nn.init_linear(params, "inproj", d, c, rng)
    nn.init_param(params, "pos2x", (f2x_tokens, c), rng)
    nn.init_param(params, "scale_emb", (2, c), rng)  # 0 = wsi token, 1 = viewport token
    nn.init_param(params, "temporal_emb", (TEMPORAL_CAP + 1, c), rng)  # 0: wsi tokens
    nn.init_param(params, "mag_emb", (6, c), rng)
    for layer in range(config.enc_layers):
        nn.init_encoder_layer(params, f"mem{layer}", c, rng)
    for layer in range(config.dec_layers):
        nn.init_cross_layer(params, f"dec{layer}", c, rng)
    nn.init_param(params, "query", (1, c), rng)
    nn.init_linear(params, "mlph.fc1", c, 2 * c, rng)
    nn.init_linear(params, "mlph.fc2", 2 * c, 2 * c, rng)
    nn.init_linear(params, "mlph.fc3", 2 * c, d, rng)
    nn.init_linear(params, "maghead", 6, 6, rng)
    return params


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
    Each fixation reads its 10X token and its 2X position at the cells
    ``cells_of`` places it in; one outside the WSI raises RangeError.
    """
    n_wsi = f2x.rows * f2x.cols
    xs, ys = xy_of(history)
    feats = np.concatenate([f2x.flat(), tokens_at(f10x, xs, ys)])
    raw = nn.linear(params, "inproj", feats)

    r, c = cells_of(xs, ys, f2x.rows, f2x.cols, f2x.width_px, f2x.height_px)
    pos_idx = np.concatenate([np.arange(n_wsi), r * f2x.cols + c])
    scale_idx = [0] * n_wsi + [1] * len(history)
    n_h = len(history)
    temp_idx = [0] * n_wsi + [min(n_h - i, TEMPORAL_CAP) for i in range(n_h)]
    mag_idx = [1] * n_wsi + [f.mag.index for f in history]  # wsi tokens are 2X

    return ad.add_embeddings(raw, [(params["pos2x"], pos_idx),
                                   (params["scale_emb"], scale_idx),
                                   (params["temporal_emb"], temp_idx),
                                   (params["mag_emb"], mag_idx)])


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
    scores = ad.matmul(f10x.flat(), ad.transpose(v))  # (N, 1)
    return ad.reshape(ad.sigmoid(scores), (f10x.rows, f10x.cols))


def cumulative_mag_count(history: list[Fixation]) -> np.ndarray:
    cm = np.zeros(6, dtype=np.int64)
    for f in history:
        cm[f.mag.index] += 1
    return cm


def predict_mag(cm: np.ndarray, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """6 sigmoid activations from the cumulative magnification count."""
    x = np.asarray(cm).reshape(1, 6)  # a constant: the engine casts it to the head's dtype
    return ad.reshape(ad.sigmoid(nn.linear(params, "maghead", x)), (6,))


def focal_loss(pred: ad.Tensor, gt: np.ndarray) -> ad.Tensor:
    """Pixel-wise focal loss (exponents FOCAL_GAMMA, FOCAL_BETA) averaged
    over the map, as one node.

    gt must contain at least one cell equal to 1 (the target peak). With
    p = pred clamped to [1e-7, 1 - 1e-7], a peak cell adds
    (1 - p)^gamma log p and any other cell (1 - gt)^beta p^gamma log(1 - p).
    Forward and backward run the operations of the composed
    ``clamp``/``sub``/``pow_const``/``log``/``mul``/``sum_``/``scale``
    graph. A cell's gradient has non-zero terms from one of the two cases
    only, at most two, so their order of summation cannot change its bytes.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if pred.data.shape != gt.shape:
        raise ShapeError("pred/gt shape mismatch")
    if not np.any(gt == 1.0):
        raise ContractError("focal loss requires a gt cell equal to 1")
    peak = (gt == 1.0).astype(np.float64)
    dtype = pred.data.dtype
    pos = peak.astype(dtype)
    neg_w = (((1.0 - gt) ** FOCAL_BETA) * (1.0 - peak)).astype(dtype)
    s = -1.0 / gt.size

    x = pred.data
    p = np.clip(x, 1e-7, 1.0 - 1e-7)
    q = 1.0 - p
    log_p, log_q = np.log(p), np.log(q)
    q_pow, p_pow = q ** FOCAL_GAMMA, p ** FOCAL_GAMMA
    total = (pos * (q_pow * log_p) + neg_w * (p_pow * log_q)).sum()

    def backward(g):
        g = g * s
        g_pos, g_neg = g * pos, g * neg_w
        g_q = g_pos * log_p * FOCAL_GAMMA * q ** (FOCAL_GAMMA - 1.0) + g_neg * p_pow / q
        g_p = (g_pos * q_pow / p + g_neg * log_q * FOCAL_GAMMA * p ** (FOCAL_GAMMA - 1.0)
               - g_q)
        return (g_p * ((x > 1e-7) & (x < 1.0 - 1e-7)),)

    return ad.node(np.asarray(total) * s, (pred,), backward)


def class_weights(counts: np.ndarray) -> np.ndarray:
    """w_c = N / (C * N_c); classes with no samples get weight 0."""
    counts = np.asarray(counts, dtype=np.float64)
    n, c = counts.sum(), len(counts)
    w = np.zeros(c)
    nz = counts > 0
    w[nz] = n / (c * counts[nz])
    return w


def mag_loss(pred: ad.Tensor, gt_level: int, weights: np.ndarray) -> ad.Tensor:
    """Weighted NLL over sigmoid activations renormalized to a distribution,
    -w[gt] log(pred[gt] / sum(pred)), as one node.

    Forward and backward run the operations of the composed
    ``sum_``/``tslice``/``pow_const``/``mul``/``log``/``scale`` graph; the
    sum stays a 0-d array, so its powers take numpy's array path as there.
    """
    if pred.data.shape != (6,):
        raise ShapeError("magnification activations must have length 6")
    if not 0 <= gt_level <= 5:
        raise RangeError(f"magnification level out of range: {gt_level}")
    s = -float(weights[gt_level])
    x = pred.data
    total = np.asarray(x.sum())
    inv = total ** -1.0
    p_gt = x[gt_level] * inv
    if p_gt <= 0:
        raise NumericError("log of non-positive value")

    def backward(g):
        g = g * s / p_gt
        grad = np.full(6, g * x[gt_level] * -1.0 * total ** -2.0, dtype=x.dtype)
        grad[gt_level] += g * inv
        return (grad,)

    return ad.node(np.log(p_gt) * s, (pred,), backward)


def total_loss(fix_loss: ad.Tensor, mag_loss_: ad.Tensor) -> ad.Tensor:
    """The training objective: fixation and magnification losses, unit weights."""
    return ad.add(fix_loss, mag_loss_)


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
    stage1=None,
    progress=None,
) -> tuple[dict[str, ad.Tensor], list[tuple[int, float, float, float]]]:
    """Behavior-clone next-fixation prediction over all scanpath prefixes,
    on the grids ``stage2_grids`` builds with ``stage1``.

    Returns the trained parameters and a per-epoch log of
    (epoch, fixation loss, magnification loss, total loss). After each
    epoch, ``progress`` (if given) receives a dict of its mean losses,
    mean gradient norm and examples per second.
    """
    examples = prefix_examples(corpus)
    if not examples:
        raise InvalidInputError("corpus has no trainable scanpaths")

    wsi_ids = sorted({w for w, _, _ in examples})
    grids = {w: stage2_grids(provider, w, stage1) for w in wsi_ids}

    counts = cumulative_mag_count(
        [sp.fixations[k] for _, sp, k in examples]
    )
    weights = class_weights(counts)

    first = grids[wsi_ids[0]][0]
    rng = np.random.default_rng(config.seed)
    params = init_scanpath_params(first.rows * first.cols, config, rng)
    state = ad.AdamState()
    log: list[tuple[int, float, float, float]] = []
    y_cache: dict[tuple[str, int, int, int], np.ndarray] = {}

    order = np.arange(len(examples))
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng.shuffle(order)
        tot_fix = tot_mag = tot_norm = 0.0
        for i in order:
            wsi_id, sp, k = examples[i]
            f2x, f10x = grids[wsi_id]
            target = sp.fixations[k]
            r, c = cells_of(*xy_of([target]), f10x.rows, f10x.cols,
                            f10x.width_px, f10x.height_px)
            key = (wsi_id, int(r[0]), int(c[0]), target.mag.index)
            if key not in y_cache:
                y_cache[key] = pat_h.gaussian_map(
                    [target], (f10x.rows, f10x.cols), f10x.width_px, f10x.height_px
                )
            ad.zero_grads(params)
            heat, mags = forward_step(params, config, f2x, f10x, sp.fixations[:k])
            l_fix = focal_loss(heat, y_cache[key])
            l_mag = mag_loss(mags, target.mag.index, weights)
            loss = total_loss(l_fix, l_mag)
            ad.backward(loss)
            tot_norm += ad.adam_step(params, state, lr=config.lr)
            tot_fix += l_fix.item()
            tot_mag += l_mag.item()
        n = len(examples)
        log.append((epoch, tot_fix / n, tot_mag / n, (tot_fix + tot_mag) / n))
        if progress:
            progress({"epoch": f"{epoch + 1}/{config.epochs}", "loss_fix": log[-1][1],
                      "loss_mag": log[-1][2], "loss_total": log[-1][3],
                      "grad_norm": tot_norm / n,
                      "examples_per_s": n / (time.perf_counter() - t0)})
    return params, log


def stage2_grids(provider, wsi_id: str, stage1) -> tuple[FeatureGrid, FeatureGrid]:
    """The 2X and 10X grids stage 2 reads for one WSI.

    ``stage1`` is ``(models, config)`` from ``pat_h.load_heatmap_models``,
    or None. A level that has a stage-1 model is re-encoded by it; a level
    without one keeps the provider's grid.
    """
    models, s1_config = stage1 or ({}, None)
    out = []
    for mag in (MagLevel(1), MagLevel(3)):
        grid = provider.get(wsi_id, mag)
        if mag.index in models:
            z = pat_h.encode(grid, models[mag.index], s1_config).data
            data = z.reshape(grid.rows, grid.cols, grid.dim).astype(np.float32)
            grid = FeatureGrid(mag, data, grid.width_px, grid.height_px)
        out.append(grid)
    return out[0], out[1]


def save_scanpath_model(path, params: dict, config: ScanpathModelConfig, stage1=None):
    """The checkpoint ``path`` and its sidecar. A model trained on ``stage1``,
    ``(models, config)`` from ``pat_h.load_heatmap_models``, carries both:
    the models' tensors under ``STAGE1`` and their config."""
    models, s1_config = stage1 or ({}, None)
    ad.save_checkpoint(path, {**params, **pat_h.level_tables(models, STAGE1)})
    io.write_sidecar(path, config, s1_config)


def load_scanpath_model(ckpt) -> tuple[dict[str, ad.Tensor], ScanpathModelConfig, tuple | None]:
    """Parameters, config and stage-1 ``(models, config)`` (None if it was
    trained on raw grids) of a ``save_scanpath_model`` pair, each table
    checked by ``nn.checked_params`` against its config."""
    config, s1_config = io.read_sidecar(ckpt, ScanpathModelConfig, pat_h.HeatmapModelConfig)
    tables = ad.load_checkpoint(ckpt)
    stage1 = None if s1_config is None else (
        pat_h.split_levels(tables, s1_config, ckpt, STAGE1), s1_config)
    params = nn.checked_params(tables, lambda n: init_scanpath_params(n, config, None),
                               "pos2x", ckpt)
    return params, config, stage1
