"""Command-line surface: corpus generation, simplification, training,
prediction, evaluation, statistics, and rendering.

Exit codes: 0 success, 2 usage error, 3 data, file or configuration
error, 4 numeric failure (a non-finite value in training or inference).
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import baselines, inference, metrics, pat_h, pat_s
from .errors import InvalidInputError, NumericError, PathscanError
from .features import SyntheticFeatureProvider
from .io import (
    VERSION,
    load_grade_map,
    parse_config,
    read_scanpaths,
    read_trajectories,
    resolve_seed,
    save_grade_map,
    write_manifest,
    write_scanpaths,
    write_trajectories,
)
from .render import render_svg
from .synth import GradeMap, ReaderProfile, gen_wsi, simulate_reader
from .trajectory import MagLevel, Scanpath, SimplifyParams, simplify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path: str | None) -> dict:
    return parse_config(path) if path else {}


def _simplify_params(cfg: dict, wsi_width: float | None = None) -> SimplifyParams:
    kwargs = {}
    for key in ("th_angle", "th_time", "th_dist", "max_fixations",
                "literal_dispersion_branch", "wsi_width"):
        if key in cfg:
            kwargs[key] = cfg[key]
    if wsi_width is not None and "wsi_width" not in kwargs:
        kwargs["wsi_width"] = wsi_width
    return SimplifyParams(**kwargs)


def _heatmap_config(cfg: dict) -> pat_h.HeatmapModelConfig:
    kwargs = {k: cfg[k] for k in ("dim", "layers", "heads", "lr", "epochs", "seed")
              if k in cfg}
    kwargs["seed"] = resolve_seed(cfg)
    return pat_h.HeatmapModelConfig(**kwargs)


def _scanpath_config(cfg: dict) -> pat_s.ScanpathModelConfig:
    kwargs = {k: cfg[k] for k in (
        "dim", "model_dim", "enc_layers", "dec_layers", "heads", "lambda_mag",
        "focal_gamma", "focal_beta", "lr", "epochs",
    ) if k in cfg}
    kwargs["seed"] = resolve_seed(cfg)
    return pat_s.ScanpathModelConfig(**kwargs)


# ------------------------------------------------------------ corpus access


def load_corpus(corpus_dir: str):
    """Grade maps, scanpaths, provider and config from a generated corpus."""
    root = Path(corpus_dir)
    manifest_file = root / "manifest.json"
    if not manifest_file.exists():
        raise InvalidInputError(f"{corpus_dir}: missing manifest.json")
    manifest = json.loads(manifest_file.read_text())
    cfg = manifest.get("config", {})
    maps = {}
    for grid_file in sorted(root.glob("*.grid")):
        maps[grid_file.stem] = load_grade_map(grid_file)
    if not maps:
        raise InvalidInputError(f"{corpus_dir}: no grade maps")
    scanpaths = []
    sp_file = root / "scanpaths.jsonl"
    if sp_file.exists():
        scanpaths = read_scanpaths(sp_file)
    provider = SyntheticFeatureProvider(
        maps,
        dim=int(cfg.get("feature_dim", 32)),
        base_grid=int(cfg.get("base_grid", 8)),
        seed=int(cfg.get("seed", 0)),
    )
    return maps, scanpaths, provider, cfg


# ------------------------------------------------------------------ commands


def cmd_simplify(args) -> int:
    """Simplify each trajectory with its WSI's width: ``wsi_width`` from the
    params file, else the width of ``<wsi_id>.grid`` next to the input."""
    cfg = _load_config(args.config)
    trajectories = read_trajectories(args.infile)
    scanpaths = []
    for traj in trajectories:
        width = None
        if "wsi_width" not in cfg:
            base = Path(args.infile).parent / traj.wsi_id
            if not base.with_suffix(".grid").exists():
                raise InvalidInputError(
                    f"no grade map {base}.grid for {traj.wsi_id} and no "
                    "wsi_width in the params: the WSI width is unknown")
            width = load_grade_map(base).width_px
        scanpaths.append(simplify(traj, _simplify_params(cfg, width)))
    write_scanpaths(args.out, scanpaths, config={"version": VERSION, **cfg})
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: {out} is not empty (use --force)", file=sys.stderr)
        return EXIT_DATA
    out.mkdir(parents=True, exist_ok=True)
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else resolve_seed(cfg)
    cfg.update(
        seed=seed, wsis=args.wsis, readers=args.readers, samples=args.samples,
        grid=args.grid, feature_dim=int(cfg.get("feature_dim", 32)),
        base_grid=int(cfg.get("base_grid", 8)),
    )

    files = []
    trajectories = []
    scanpaths = []
    profile = ReaderProfile()
    for w in range(args.wsis):
        wsi_id = f"wsi_{w:03d}"
        gm = gen_wsi(seed + 1000 * w, args.grid, args.grid)
        base = out / wsi_id
        save_grade_map(base, gm)
        files += [str(base.with_suffix(".grid")), str(base.with_suffix(".json"))]
        for r in range(args.readers):
            traj = simulate_reader(
                gm, profile, seed + 1000 * w + r + 1, args.samples,
                wsi_id=wsi_id, reader_id=f"reader_{r:02d}",
            )
            trajectories.append(traj)
            params = SimplifyParams(wsi_width=gm.width_px)
            scanpaths.append(simplify(traj, params))

    traj_file = out / "trajectories.jsonl"
    sp_file = out / "scanpaths.jsonl"
    write_trajectories(traj_file, trajectories, config=cfg)
    write_scanpaths(sp_file, scanpaths, config=cfg)
    files += [str(traj_file), str(sp_file)]
    write_manifest(out / "manifest.json", files, cfg)
    return EXIT_OK


def cmd_train_heatmap(args) -> int:
    cfg = _load_config(args.config)
    maps, scanpaths, provider, corpus_cfg = load_corpus(args.corpus)
    config = _heatmap_config(cfg)
    config.dim = provider.dim

    corpus: dict[int, list] = {}
    for mag_idx in config.mags_trained:
        mag = MagLevel(mag_idx)
        items = []
        for wsi_id, gm in maps.items():
            grid = provider.get(wsi_id, mag)
            sps = [sp for sp in scanpaths if sp.wsi_id == wsi_id]
            if not sps:
                continue
            fixations = [f for sp in sps for f in sp.fixations if f.mag == mag]
            gt = pat_h.gaussian_map(
                fixations, (grid.rows, grid.cols), gm.width_px, gm.height_px
            )
            items.append((grid, pat_h.Heatmap(mag, gt)))
        corpus[mag_idx] = items

    models, curves = pat_h.train_heatmap(corpus, config)
    pat_h.save_heatmap_models(args.out, models)
    _write_loss_csv(Path(args.out).with_suffix(".loss.csv"),
                    [("mag_index", "epoch", "loss")],
                    [(m, e, loss) for m, c in curves.items()
                     for e, loss in enumerate(c)], cfg)
    return EXIT_OK


def cmd_train_scanpath(args) -> int:
    cfg = _load_config(args.config)
    maps, scanpaths, provider, corpus_cfg = load_corpus(args.corpus)
    config = _scanpath_config(cfg)
    config.dim = provider.dim
    stage1 = pat_h.load_heatmap_models(args.stage1) if args.stage1 else None
    stage1_cfg = None
    if stage1:
        stage1_cfg = _heatmap_config(cfg)
        stage1_cfg.dim = provider.dim

    corpus = [(sp.wsi_id, sp) for sp in scanpaths]
    params, log = pat_s.train_scanpath(corpus, provider, config, stage1, stage1_cfg)
    if any(not np.isfinite(row[3]) for row in log):
        raise NumericError("training loss became non-finite")
    ad.save_checkpoint(args.out, params)
    Path(str(args.out) + ".json").write_text(json.dumps(
        {"version": VERSION, "config": {**cfg, "dim": config.dim,
                                        "model_dim": config.model_dim,
                                        "enc_layers": config.enc_layers,
                                        "dec_layers": config.dec_layers,
                                        "heads": config.heads}}
    ))
    _write_loss_csv(Path(args.out).with_suffix(".loss.csv"),
                    [("epoch", "loss_fix", "loss_mag", "loss_total")], log, cfg)
    return EXIT_OK


def _load_scanpath_model(ckpt_path: str) -> tuple[dict, pat_s.ScanpathModelConfig]:
    sidecar = Path(str(ckpt_path) + ".json")
    cfg = json.loads(sidecar.read_text())["config"] if sidecar.exists() else {}
    config = pat_s.ScanpathModelConfig(
        dim=int(cfg.get("dim", 32)),
        model_dim=int(cfg.get("model_dim", 32)),
        enc_layers=int(cfg.get("enc_layers", 1)),
        dec_layers=int(cfg.get("dec_layers", 1)),
        heads=int(cfg.get("heads", 4)),
    )
    arrays = ad.load_checkpoint(ckpt_path)
    params = {k: ad.Tensor(v) for k, v in arrays.items()}
    return params, config


def cmd_predict(args) -> int:
    maps, scanpaths, provider, corpus_cfg = load_corpus(args.corpus)
    if args.wsi not in maps:
        raise InvalidInputError(f"unknown WSI id: {args.wsi}")
    params, config = _load_scanpath_model(args.ckpt)
    f2x = provider.get(args.wsi, MagLevel(1))
    f10x = provider.get(args.wsi, MagLevel(3))

    if args.n == "auto":
        n = inference.infer_length(scanpaths)
    else:
        n = int(args.n)
    tm = None
    if args.mode == "priormag":
        tm, _ = baselines.estimate_transition_matrix(scanpaths)
    result = inference.rollout(
        params, config, f2x, f10x, n, mode=args.mode, seed=args.seed,
        transition_matrix=tm,
    )
    if result.aborted:
        print(
            f"warning: rollout aborted early ({result.reason}); "
            f"writing {len(result.scanpath)} fixations",
            file=sys.stderr,
        )
    sp = Scanpath(args.wsi, f"pat-{args.mode}", result.scanpath.fixations)
    write_scanpaths(
        args.out, [sp], config=corpus_cfg,
        generator={"model": Path(args.ckpt).name, "mode": args.mode,
                   "seed": args.seed, "n": n},
    )
    return EXIT_OK


def cmd_eval_next(args) -> int:
    maps, corpus_sps, provider, _ = load_corpus(args.corpus)
    gt_scanpaths = read_scanpaths(args.gt)
    params, config = _load_scanpath_model(args.ckpt)

    rows = []
    events = []
    sp_errors, tok_sims = [], []
    for sp in gt_scanpaths:
        if sp.wsi_id not in maps or len(sp) < 2:
            continue
        gm = maps[sp.wsi_id]
        f2x = provider.get(sp.wsi_id, MagLevel(1))
        f10x = provider.get(sp.wsi_id, MagLevel(3))
        for k in range(1, len(sp)):
            history = sp.fixations[:k]
            target = sp.fixations[k]
            heat, mags = pat_s.forward_step(params, config, f2x, f10x, history)
            hm = pat_h.Heatmap(MagLevel(3), heat.data)
            x, y = inference.next_location(hm, gm.width_px, gm.height_px)
            pred_mag = inference.next_mag_probmag(
                mags.data, history[-1].mag, deterministic=True
            )
            from .trajectory import Fixation

            pred_fix = Fixation(x, y, pred_mag, 0.0)
            sp_errors.append(
                metrics.spatial_error(pred_fix, target, gm.width_px, gm.height_px)
            )
            tok_sims.append(
                metrics.tok_sim_fix(pred_fix, target, provider, sp.wsi_id)
            )
            events.append((history[-1].mag.index, target.mag.index, pred_mag.index))

    if not events:
        raise InvalidInputError("no evaluable next-fixation events")
    overall_acc, per_acc = metrics.mag_accuracy(events)
    try:
        change_acc, per_change = metrics.mag_change_accuracy(events)
    except PathscanError:
        change_acc, per_change = float("nan"), {}
    rows.append(("spatial_error_mean", float(np.mean(sp_errors))))
    rows.append(("spatial_mse", float(np.mean(np.square(sp_errors)))))
    rows.append(("tok_sim_fix_mean", float(np.mean(tok_sims))))
    rows.append(("mag_accuracy_overall", overall_acc))
    for level, acc in per_acc.items():
        rows.append((f"mag_accuracy_{MagLevel(level).factor}X", acc))
    rows.append(("mag_change_accuracy_overall", change_acc))
    for level, acc in per_change.items():
        rows.append((f"mag_change_accuracy_{MagLevel(level).factor}X", acc))
    _write_report(args.report, ("metric", "value"), rows)
    return EXIT_OK


def cmd_eval_scanpath(args) -> int:
    maps, _, provider, _ = load_corpus(args.corpus)
    preds = read_scanpaths(args.pred)
    gts = read_scanpaths(args.gt)
    have_grades = bool(maps)

    rows = []
    for pred in preds:
        wsi_id = pred.wsi_id
        gm = maps.get(wsi_id)
        wsi_gts = [sp for sp in gts if sp.wsi_id == wsi_id]
        if gm is None or not wsi_gts:
            continue
        f10x = provider.get(wsi_id, MagLevel(3))
        pred_map = metrics.scanpath_to_heatmap(
            pred, (f10x.rows, f10x.cols), gm.width_px, gm.height_px
        )
        gt_fix = [f for sp in wsi_gts for f in sp.fixations]
        nss_v = metrics.nss(pred_map, gt_fix, gm.width_px, gm.height_px)
        auc_v = metrics.auc_judd(pred_map, gt_fix, gm.width_px, gm.height_px)
        tok_overall = float(np.mean(
            [metrics.tok_sim_scan(pred, sp, provider, wsi_id)[1] for sp in wsi_gts]
        ))
        if have_grades:
            try:
                sss_v = f"{metrics.sss(pred, wsi_gts, gm):.6f}"
            except PathscanError:
                sss_v = "absent"
        else:
            sss_v = "absent"
        rows.append((wsi_id, f"{nss_v:.6f}", f"{auc_v:.6f}",
                     f"{tok_overall:.6f}", sss_v))
    if not rows:
        raise InvalidInputError("no (pred, gt) pairs share a WSI")
    _write_report(args.report, ("wsi", "nss", "auc", "tok_sim_scan", "sss"), rows)
    return EXIT_OK


def cmd_stats_mag(args) -> int:
    scanpaths = read_scanpaths(args.scanpaths)
    if not scanpaths:
        raise InvalidInputError(f"{args.scanpaths}: no scanpaths")
    _, moves = baselines.estimate_transition_matrix(scanpaths)
    Path(args.out).write_text(
        f"# pathscan {VERSION}\n" + baselines.transition_stats_csv(moves)
    )
    return EXIT_OK


def cmd_render(args) -> int:
    scanpaths = read_scanpaths(args.scanpath)
    if not scanpaths:
        raise InvalidInputError(f"{args.scanpath}: no scanpaths")
    sp = scanpaths[args.index]
    gm = load_grade_map(args.grades)
    svg = render_svg(sp, gm, comment=f"pathscan {VERSION} wsi={sp.wsi_id}")
    Path(args.out).write_text(svg)
    return EXIT_OK


# -------------------------------------------------------------------- helpers


def _write_report(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# pathscan {VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_loss_csv(path, header_rows, rows, cfg):
    with open(path, "w", newline="") as fh:
        fh.write(f"# pathscan {VERSION} config={json.dumps(cfg)}\n")
        writer = csv.writer(fh)
        for header in header_rows:
            writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pathscan")
    p.add_argument("--version", action="version", version=f"pathscan {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simplify", help="condense dense trajectories to scanpaths")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--params", dest="config")
    sp.set_defaults(func=cmd_simplify)

    g = sub.add_parser("gen", help="generate a synthetic corpus")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--wsis", type=int, default=4)
    g.add_argument("--readers", type=int, default=2)
    g.add_argument("--samples", type=int, default=400)
    g.add_argument("--grid", type=int, default=32)
    g.add_argument("--out", required=True)
    g.add_argument("--config")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    th = sub.add_parser("train-heatmap", help="train the stage-1 heatmap models")
    th.add_argument("--corpus", required=True)
    th.add_argument("--config")
    th.add_argument("--out", required=True)
    th.set_defaults(func=cmd_train_heatmap)

    ts = sub.add_parser("train-scanpath", help="train the stage-2 scanpath model")
    ts.add_argument("--corpus", required=True)
    ts.add_argument("--config")
    ts.add_argument("--stage1")
    ts.add_argument("--out", required=True)
    ts.set_defaults(func=cmd_train_scanpath)

    pr = sub.add_parser("predict", help="roll out a predicted scanpath")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--corpus", required=True)
    pr.add_argument("--wsi", required=True)
    pr.add_argument("--mode", choices=("probmag", "priormag"), default="probmag")
    pr.add_argument("--n", default="auto")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    en = sub.add_parser("eval-next", help="next-fixation prediction metrics")
    en.add_argument("--ckpt", required=True)
    en.add_argument("--corpus", required=True)
    en.add_argument("--gt", required=True)
    en.add_argument("--report", required=True)
    en.set_defaults(func=cmd_eval_next)

    es = sub.add_parser("eval-scanpath", help="scanpath similarity metrics")
    es.add_argument("--pred", required=True)
    es.add_argument("--gt", required=True)
    es.add_argument("--corpus", required=True)
    es.add_argument("--report", required=True)
    es.set_defaults(func=cmd_eval_scanpath)

    sm = sub.add_parser("stats-mag", help="magnification transition statistics")
    sm.add_argument("--scanpaths", required=True)
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=cmd_stats_mag)

    rd = sub.add_parser("render", help="render a scanpath to SVG")
    rd.add_argument("--scanpath", required=True)
    rd.add_argument("--grades", required=True)
    rd.add_argument("--index", type=int, default=0)
    rd.add_argument("--out", required=True)
    rd.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PathscanError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
