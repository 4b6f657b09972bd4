"""Command-line surface: corpus generation, simplification, training,
prediction, evaluation, statistics, and rendering.

Exit codes: 0 success, 2 usage error, 3 data, file or configuration
error, 4 numeric failure (a non-finite value in training or inference).
``predict`` also exits 3, after writing what it has, when inhibition of
return empties the heatmap before ``--n`` fixations.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, inference, metrics, pat_h, pat_s
from .errors import (DegenerateInputError, InvalidConfigError, InvalidInputError,
                     NumericError, PathscanError)
from .features import CorpusConfig, SyntheticFeatureProvider
from .io import (VERSION, build_config, load_grade_map, parse_config, read_scanpaths,
                 read_trajectories, save_grade_map, write_manifest, write_scanpaths,
                 write_trajectories)
from .render import render_svg
from .synth import MIN_GRID, MIN_SAMPLES, gen_wsi, simulate_reader
from .trajectory import Fixation, MagLevel, Scanpath, SimplifyParams, simplify

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path: str | None) -> dict:
    return parse_config(path) if path else {}


# ------------------------------------------------------------ corpus access


def load_corpus(corpus_dir: str):
    """Grade maps, scanpaths, provider and config from a generated corpus.

    The grade maps are those whose ``.grid`` files the manifest lists; a
    map that is missing, or a manifest without a ``files`` list, raises."""
    root = Path(corpus_dir)
    manifest_file = root / "manifest.json"
    if not manifest_file.exists():
        raise InvalidInputError(f"{corpus_dir}: missing manifest.json")
    try:
        manifest = json.loads(manifest_file.read_text())
        cfg = manifest.get("config", {})
        corpus = build_config(CorpusConfig, cfg)
        grids = sorted(Path(entry["file"]) for entry in manifest["files"])
    except InvalidConfigError as e:
        raise InvalidConfigError(f"{manifest_file}: {e}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise InvalidInputError(f"{manifest_file}: malformed manifest: {e!r}") from None
    maps = {g.stem: load_grade_map(root / g) for g in grids if g.suffix == ".grid"}
    if not maps:
        raise InvalidInputError(f"{corpus_dir}: no grade maps")
    scanpaths = []
    sp_file = root / "scanpaths.jsonl"
    if sp_file.exists():
        scanpaths = read_scanpaths(sp_file)
    return maps, scanpaths, SyntheticFeatureProvider(maps, corpus), cfg


# ------------------------------------------------------------------ commands


def cmd_simplify(args) -> int:
    """Simplify each trajectory with its WSI's width: ``wsi_width`` from the
    params file, else the width of ``<wsi_id>.grid`` next to the input. The
    params are checked before any trajectory is read."""
    cfg = _load_config(args.config)
    # any width stands in until each WSI's own is known
    params = build_config(SimplifyParams, {"wsi_width": 1.0, **cfg})
    scanpaths = []
    for traj in read_trajectories(args.infile):
        wsi_params = params
        if "wsi_width" not in cfg:
            base = Path(args.infile).parent / traj.wsi_id
            if not base.with_suffix(".grid").exists():
                raise InvalidInputError(
                    f"no grade map {base}.grid for {traj.wsi_id} and no "
                    "wsi_width in the params: the WSI width is unknown")
            wsi_params = replace(params, wsi_width=load_grade_map(base).width_px)
        scanpaths.append(simplify(traj, wsi_params))
    write_scanpaths(args.out, scanpaths, config=cfg)
    return EXIT_OK


def cmd_gen(args) -> int:
    """Generate the whole corpus, then write it: a bad config writes nothing."""
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: {out} is not empty (use --force)", file=sys.stderr)
        return EXIT_DATA
    cfg = _load_config(args.config)
    corpus = build_config(CorpusConfig, cfg,
                          **({} if args.seed is None else {"seed": args.seed}))
    seed = corpus.seed
    cfg.update(
        seed=seed, wsis=args.wsis, readers=args.readers, samples=args.samples,
        grid=args.grid, feature_dim=corpus.feature_dim, base_grid=corpus.base_grid,
    )

    maps = {f"wsi_{w:03d}": gen_wsi(seed + 1000 * w, args.grid, args.grid)
            for w in range(args.wsis)}
    trajectories, scanpaths = [], []
    for w, (wsi_id, gm) in enumerate(maps.items()):
        params = build_config(SimplifyParams, {"wsi_width": gm.width_px, **cfg})
        for r in range(args.readers):
            traj = simulate_reader(
                gm, seed + 1000 * w + r + 1, args.samples,
                wsi_id=wsi_id, reader_id=f"reader_{r:02d}",
            )
            trajectories.append(traj)
            scanpaths.append(simplify(traj, params))

    out.mkdir(parents=True, exist_ok=True)
    for wsi_id, gm in maps.items():
        save_grade_map(out / wsi_id, gm)
    traj_file, sp_file = out / "trajectories.jsonl", out / "scanpaths.jsonl"
    write_trajectories(traj_file, trajectories, config=cfg)
    write_scanpaths(sp_file, scanpaths, config=cfg)
    files = [str(out / f"{wsi_id}{ext}") for wsi_id in maps for ext in (".grid", ".json")]
    write_manifest(out / "manifest.json", files + [str(traj_file), str(sp_file)], cfg)
    return EXIT_OK


def cmd_train_heatmap(args) -> int:
    cfg = _load_config(args.config)
    maps, scanpaths, provider, _ = load_corpus(args.corpus)
    config = build_config(pat_h.HeatmapModelConfig, cfg, dim=provider.dim)

    corpus: dict[int, list] = {}
    for mag_idx in pat_h.LEVELS:
        mag = MagLevel(mag_idx)
        items = []
        for wsi_id in maps:
            grid = provider.get(wsi_id, mag)
            sps = [sp for sp in scanpaths if sp.wsi_id == wsi_id]
            if not sps:
                continue
            fixations = [f for sp in sps for f in sp.fixations if f.mag == mag]
            gt = pat_h.gaussian_map(
                fixations, (grid.rows, grid.cols), grid.width_px, grid.height_px
            )
            items.append((grid, gt))
        corpus[mag_idx] = items

    models, curves = pat_h.train_heatmap(corpus, config, _progress("train-heatmap"))
    pat_h.save_heatmap_models(args.out, models, config)
    _write_csv(Path(args.out).with_suffix(".loss.csv"), ("mag_index", "epoch", "loss"),
               [(m, e, loss) for m, c in curves.items() for e, loss in enumerate(c)],
               f" config={json.dumps(cfg)}")
    return EXIT_OK


def cmd_train_scanpath(args) -> int:
    cfg = _load_config(args.config)
    maps, scanpaths, provider, _ = load_corpus(args.corpus)
    config = build_config(pat_s.ScanpathModelConfig, cfg, dim=provider.dim)
    stage1 = pat_h.load_heatmap_models(args.stage1) if args.stage1 else None

    corpus = [(sp.wsi_id, sp) for sp in scanpaths]
    params, log = pat_s.train_scanpath(corpus, provider, config, stage1,
                                       _progress("train-scanpath"))
    if any(not np.isfinite(row[3]) for row in log):
        raise NumericError("training loss became non-finite")
    pat_s.save_scanpath_model(args.out, params, config, stage1)
    _write_csv(Path(args.out).with_suffix(".loss.csv"),
               ("epoch", "loss_fix", "loss_mag", "loss_total"), log,
               f" config={json.dumps(cfg)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    maps, scanpaths, provider, corpus_cfg = load_corpus(args.corpus)
    if args.wsi not in maps:
        raise InvalidInputError(f"unknown WSI id: {args.wsi}")
    params, config, stage1 = pat_s.load_scanpath_model(args.ckpt)
    f2x, f10x = pat_s.stage2_grids(provider, args.wsi, stage1)

    n = inference.infer_length(scanpaths) if args.n == "auto" else args.n
    tm = None
    if args.mode == "priormag":
        tm, _ = baselines.estimate_transition_matrix(scanpaths)
    result = inference.rollout(
        params, config, f2x, f10x, n, mode=args.mode, seed=args.seed,
        transition_matrix=tm,
    )
    sp = Scanpath(args.wsi, f"pat-{args.mode}", result.scanpath.fixations)
    write_scanpaths(
        args.out, [sp], config=corpus_cfg,
        generator={"model": Path(args.ckpt).name, "mode": args.mode,
                   "seed": args.seed, "n": n},
    )
    if result.aborted:
        print(f"error: rollout stopped after {len(sp)} of {n} fixations "
              f"({result.reason})", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_eval_next(args) -> int:
    maps, corpus_sps, provider, _ = load_corpus(args.corpus)
    gt_scanpaths = read_scanpaths(args.gt)
    params, config, stage1 = pat_s.load_scanpath_model(args.ckpt)

    rows = []
    events = []
    sp_errors, tok_sims = [], []
    grids = {w: pat_s.stage2_grids(provider, w, stage1)
             for w in {sp.wsi_id for sp in gt_scanpaths} & maps.keys()}
    skipped = {"shorter than 2": 0, "unknown WSI": 0}
    for sp in gt_scanpaths:
        if sp.wsi_id not in maps or len(sp) < 2:
            skipped["unknown WSI" if sp.wsi_id not in maps else "shorter than 2"] += 1
            continue
        f2x, f10x = grids[sp.wsi_id]
        for k in range(1, len(sp)):
            history = sp.fixations[:k]
            target = sp.fixations[k]
            heat, mags = pat_s.forward_step(params, config, f2x, f10x, history)
            x, y = inference.next_location(heat.data, f10x.width_px, f10x.height_px)
            pred_mag = inference.next_mag_probmag(
                mags.data, history[-1].mag, deterministic=True
            )
            pred_fix = Fixation(x, y, pred_mag, 0.0)
            sp_errors.append(
                metrics.spatial_error(pred_fix, target, f10x.width_px, f10x.height_px)
            )
            tok_sims.append(
                metrics.tok_sim_fix(pred_fix, target, provider, sp.wsi_id)
            )
            events.append((history[-1].mag.index, target.mag.index, pred_mag.index))

    try:
        change_acc, per_change = metrics.mag_change_accuracy(events)
    except DegenerateInputError:  # no magnification-change event
        change_acc, per_change = float("nan"), {}
    scored = len(gt_scanpaths) - sum(skipped.values())
    print(f"eval-next: scored {len(events)} events from {scored} of "
          f"{len(gt_scanpaths)} scanpaths; skipped: "
          + ", ".join(f"{n} {why}" for why, n in skipped.items())
          + f"; mag_change_accuracy {'defined' if per_change else 'undefined'}",
          file=sys.stderr)
    if not events:
        raise InvalidInputError("no evaluable next-fixation events")
    overall_acc, per_acc = metrics.mag_accuracy(events)
    rows.append(("spatial_error_mean", float(np.mean(sp_errors))))
    rows.append(("spatial_mse", float(np.mean(np.square(sp_errors)))))
    rows.append(("tok_sim_fix_mean", float(np.mean(tok_sims))))
    rows.append(("mag_accuracy_overall", overall_acc))
    for level, acc in per_acc.items():
        rows.append((f"mag_accuracy_{MagLevel(level).factor}X", acc))
    rows.append(("mag_change_accuracy_overall", change_acc))
    for level, acc in per_change.items():
        rows.append((f"mag_change_accuracy_{MagLevel(level).factor}X", acc))
    _write_csv(args.report, ("metric", "value"), rows)
    return EXIT_OK


def cmd_eval_scanpath(args) -> int:
    """One report row per prediction whose WSI has ground truth and a grade
    map. TokSimScan averages over the GT scanpaths that share a
    magnification level with the prediction and SSS over those whose grade
    string is not empty; either is ``absent`` when no GT qualifies."""
    maps, _, provider, _ = load_corpus(args.corpus)
    preds = read_scanpaths(args.pred)
    gts = read_scanpaths(args.gt)

    rows = []
    skipped = {"no ground truth": 0, "no grade map": 0}
    for pred in preds:
        wsi_id = pred.wsi_id
        gm = maps.get(wsi_id)
        wsi_gts = [sp for sp in gts if sp.wsi_id == wsi_id]
        if not wsi_gts or gm is None:
            skipped["no grade map" if wsi_gts else "no ground truth"] += 1
            continue
        f10x = provider.get(wsi_id, MagLevel(3))
        wsi_w, wsi_h = f10x.width_px, f10x.height_px
        pred_map = metrics.scanpath_to_heatmap(
            pred, (f10x.rows, f10x.cols), wsi_w, wsi_h
        )
        gt_fix = [f for sp in wsi_gts for f in sp.fixations]
        nss_v = metrics.nss(pred_map, gt_fix, wsi_w, wsi_h)
        auc_v = metrics.auc_judd(pred_map, gt_fix, wsi_w, wsi_h)
        toks = []
        for sp in wsi_gts:
            try:
                toks.append(metrics.tok_sim_scan(pred, sp, provider, wsi_id)[1])
            except DegenerateInputError:  # no shared magnification level
                pass
        tok_v = f"{float(np.mean(toks)):.6f}" if toks else "absent"
        try:
            sss_v = f"{metrics.sss(pred, wsi_gts, gm):.6f}"
        except DegenerateInputError:  # no fixation on tissue
            sss_v = "absent"
        rows.append((wsi_id, f"{nss_v:.6f}", f"{auc_v:.6f}", tok_v, sss_v))
    absent = [sum(row[col] == "absent" for row in rows) for col in (3, 4)]
    print(f"eval-scanpath: scored {len(rows)} of {len(preds)} predictions; skipped: "
          + ", ".join(f"{n} {why}" for why, n in skipped.items())
          + f"; absent: tok_sim_scan {absent[0]}, sss {absent[1]}", file=sys.stderr)
    if not rows:
        raise InvalidInputError("no (pred, gt) pairs share a WSI")
    _write_csv(args.report, ("wsi", "nss", "auc", "tok_sim_scan", "sss"), rows)
    return EXIT_OK


def cmd_stats_mag(args) -> int:
    scanpaths = read_scanpaths(args.scanpaths)
    if not scanpaths:
        raise InvalidInputError(f"{args.scanpaths}: no scanpaths")
    _, moves = baselines.estimate_transition_matrix(scanpaths)
    header, *rows = baselines.transition_stats_csv(moves)
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_render(args) -> int:
    scanpaths = read_scanpaths(args.scanpath)
    if not scanpaths:
        raise InvalidInputError(f"{args.scanpath}: no scanpaths")
    if not 0 <= args.index < len(scanpaths):
        raise InvalidInputError(
            f"{args.scanpath}: --index {args.index} outside [0, {len(scanpaths)})")
    sp = scanpaths[args.index]
    gm = load_grade_map(args.grades)
    svg = render_svg(sp, gm, comment=f"pathscan {VERSION} wsi={sp.wsi_id}")
    Path(args.out).write_text(svg)
    return EXIT_OK


# -------------------------------------------------------------------- helpers


def _write_csv(path, header, rows, note=""):
    """A ``# pathscan <version><note>`` comment line, then the ``header``
    and ``rows`` as CSV; every line ends with ``\\n``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# pathscan {VERSION}{note}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _progress(command: str):
    """A training ``progress`` callback that prints each epoch's fields to
    stderr as one ``<command>: <key> <value> ...`` line."""
    def report(fields: dict):
        print(f"{command}: " + " ".join(
            f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
            for k, v in fields.items()), file=sys.stderr)
    return report


def _at_least(floor: int):
    """An argparse type: an int >= ``floor``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < floor:
            raise argparse.ArgumentTypeError(f"expected an int >= {floor}, got {text!r}")
        return int(text)
    return parse


def _length(text: str):
    """``--n``: ``auto`` or a positive int."""
    return text if text == "auto" else _at_least(1)(text)


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
    g.add_argument("--seed", type=_at_least(0), default=None)
    g.add_argument("--wsis", type=_at_least(1), default=4)
    g.add_argument("--readers", type=_at_least(1), default=2)
    g.add_argument("--samples", type=_at_least(MIN_SAMPLES), default=400)
    g.add_argument("--grid", type=_at_least(MIN_GRID), default=32)
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
    pr.add_argument("--n", type=_length, default="auto")
    pr.add_argument("--seed", type=_at_least(0), default=0)
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
