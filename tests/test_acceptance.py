"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single
``[criterion N] PASS/FAIL`` line so the suite doubles as a checklist.
Helper oracles are imported from the unit-test modules so the reference
implementations stay independent of the library code they check.
"""

import itertools
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import pathscan.autodiff as ad
import pathscan.cli as cli
import pathscan.inference as inf
import pathscan.metrics as mx
import pathscan.pat_s as ps
from conftest import make_corpus, upcast
from pathscan.baselines import (
    estimate_transition_matrix,
    random1_scanpath,
    random2_scanpath,
)
from pathscan.features import (CorpusConfig, FeatureGrid, SyntheticFeatureProvider,
                               cells_of, xy_of)
from pathscan.pat_h import HeatmapModelConfig, gaussian_map, loss_cc, train_heatmap
from pathscan.synth import (CELL_SIZE, DEFAULT_TRANSITION_PRIOR, G5, GradeMap, _grow_blob,
                            simulate_reader)
from pathscan.trajectory import Fixation, MagLevel, Scanpath, SimplifyParams, simplify
from test_autodiff import fd_check
from test_metrics import auc_pairwise_oracle
from test_trajectory import random_trajectory, reference_simplify

R = np.random.default_rng(2024)


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def is_subsequence(fixations, samples):
    it = iter(samples)
    for f in fixations:
        for s in it:
            if (s.x, s.y, s.mag) == (f.x, f.y, f.mag):
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# 1. trajectory simplification conforms to an independent reference


def test_criterion_1_simplify_conformance(capsys):
    t0 = time.monotonic()
    params = SimplifyParams(wsi_width=10_000.0)
    for seed in range(200):
        t = random_trajectory(seed)
        got = simplify(t, params).fixations
        want = reference_simplify(t, params)
        assert got == want, f"mismatch on seed {seed}"
        assert 1 <= len(got) <= params.max_fixations
        assert is_subsequence(got, t.samples)
        # fragment boundaries (magnification switches) are preserved
        kept = {(f.x, f.y, f.mag) for f in got}
        prev = None
        for s in t.samples:
            if prev is not None and s.mag != prev.mag:
                assert (prev.x, prev.y, prev.mag) in kept
                assert (s.x, s.y, s.mag) in kept
            prev = s
    elapsed = time.monotonic() - t0
    announce(capsys, 1, elapsed < 5.0,
             f"200 seeded trajectories match the reference exactly "
             f"({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 2. pinned micro-examples


def test_criterion_2_pinned_micro_examples(capsys):
    history = [Fixation(0.0, 0.0, MagLevel(i), 100.0)
               for i in (0, 0, 1, 1, 1, 2, 3, 3)]
    cm = ps.cumulative_mag_count(history)
    assert cm.tolist() == [2, 3, 1, 2, 0, 0]

    logits = np.array([0.05, 0.10, 0.30, 0.20, 0.30, 0.05])
    got = inf.next_mag_probmag(logits, MagLevel(1), deterministic=True)
    assert got == MagLevel(2)  # 4X

    assert (ps.FOCAL_GAMMA, ps.FOCAL_BETA) == (2.0, 4.0)
    pred = ad.Tensor(np.array([[0.5]]))
    want = -((1 - 0.5) ** 2) * np.log(0.5)
    assert ps.focal_loss(pred, np.array([[1.0]])).item() == pytest.approx(want)
    pred = ad.Tensor(np.array([[0.5, 0.4]]))
    gt = np.array([[1.0, 0.5]])
    want = -0.5 * (((1 - 0.5) ** 2) * np.log(0.5)
                   + ((1 - 0.5) ** 4) * (0.4 ** 2) * np.log(0.6))
    assert ps.focal_loss(pred, gt).item() == pytest.approx(want)

    announce(capsys, 2, True,
             "CM pin [2,3,1,2,0,0]; deterministic band pick 2X->4X; "
             "focal loss gamma=2 beta=4 hand values")


# --------------------------------------------------------------------------
# 3. finite differences agree with analytic gradients


def test_criterion_3_gradient_integrity(capsys):
    t0 = time.monotonic()
    # every autodiff op (compositions make the op under test non-trivial)
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b))),
             R.random((3, 4)), R.random((4,)))
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.sub(a, b), ad.sub(a, b))),
             R.random((3, 4)), R.random((3, 4)))
    fd_check(lambda a, b: ad.sum_(ad.mul(a, b)), R.random((2, 5)), R.random((2, 5)))
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
             R.random((3, 4)), R.random((4, 2)))
    fd_check(lambda a, b: ad.sum_(ad.matmul(a, b)),
             R.random((2, 3, 4)), R.random((2, 4, 3)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.transpose(a, (1, 0)),
                                      np.ones((4, 3)) * np.arange(3))),
             R.random((3, 4)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.reshape(a, (2, 6)),
                                      np.arange(12.0).reshape(2, 6))),
             R.random((3, 4)))
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.concat([a, b], axis=0),
                                         np.arange(10.0).reshape(5, 2))),
             R.random((3, 2)), R.random((2, 2)))
    fd_check(lambda a: ad.sum_(ad.mul(a[1:3], a[1:3])), R.random((5, 3)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.sum_(a, axis=1), np.arange(3.0))),
             R.random((3, 4)))
    fd_check(lambda a: ad.mean(ad.mul(a, a)), R.random((4, 4)))
    fd_check(lambda a: ad.sum_(ad.scale(ad.mul(a, a), 2.5)), R.random((3,)))
    fd_check(lambda a: ad.sum_(ad.pow_const(a, 3.0)), R.random((3, 3)) + 0.5)
    fd_check(lambda a: ad.sum_(ad.log(a)), R.random((3, 3)) + 0.5)
    fd_check(lambda a: ad.sum_(ad.mul(ad.clamp(a, 0.2, 0.8), a)),
             R.random((4, 4)) * 0.5 + 0.25)  # interior of the clamp range
    fd_check(lambda a: ad.sum_(ad.mul(ad.sigmoid(a), ad.sigmoid(a))),
             R.standard_normal((3, 4)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.gelu(a), ad.gelu(a))),
             R.standard_normal((3, 4)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.softmax(a), np.arange(12.0).reshape(3, 4))),
             R.standard_normal((3, 4)))
    fd_check(lambda a: ad.sum_(ad.mul(ad.layernorm(a), np.arange(12.0).reshape(3, 4))),
             R.standard_normal((3, 4)))
    fd_check(lambda t: ad.sum_(ad.mul(ad.embedding_lookup(t, [0, 2, 2, 1]),
                                      np.arange(16.0).reshape(4, 4))),
             R.random((3, 4)))
    fused = np.random.default_rng(3)  # its own draws leave R's stream as it was
    fd_check(lambda x, W, b: ad.sum_(ad.mul(ad.affine(x, W, b),
                                            np.arange(6.0).reshape(3, 2))),
             fused.random((3, 4)), fused.random((4, 2)), fused.random(2))
    fd_check(lambda q, k, v: ad.sum_(ad.mul(ad.attention(q, k, v, 2),
                                            np.arange(12.0).reshape(3, 4))),
             fused.standard_normal((3, 4)), fused.standard_normal((5, 4)),
             fused.standard_normal((5, 4)))

    # losses
    gt_map = R.random((4, 4))
    fd_check(lambda p: loss_cc(p, gt_map), R.random((4, 4)))
    gt_focal = np.zeros((3, 3))
    gt_focal[1, 1] = 1.0
    fd_check(lambda a: ps.focal_loss(ad.sigmoid(a), gt_focal),
             R.standard_normal((3, 3)))
    weights = np.full(6, 1.25)
    fd_check(lambda a: ps.mag_loss(ad.reshape(ad.sigmoid(a), (6,)), 2, weights),
             R.standard_normal((1, 6)))

    # end-to-end through the miniature stage-2 network, its parameters upcast to float64
    cfg = ps.ScanpathModelConfig(dim=8, model_dim=8, heads=2)
    rng = np.random.default_rng(1)
    f2x = FeatureGrid(MagLevel(1), rng.random((2, 2, 8)), 1000.0, 1000.0)
    f10x = FeatureGrid(MagLevel(3), rng.random((3, 3, 8)), 1000.0, 1000.0)
    params = upcast(ps.init_scanpath_params(4, cfg, rng))
    history = [Fixation(200.0, 300.0, MagLevel(1), 100.0),
               Fixation(700.0, 600.0, MagLevel(2), 150.0)]
    gt = gaussian_map([Fixation(500.0, 2500.0 / 3, MagLevel(3), 0.0)], (3, 3),
                      f10x.width_px, f10x.height_px)  # target cell (2, 1)

    def loss_value():
        heat, mags = ps.forward_step(params, cfg, f2x, f10x, history)
        fix_l = ps.focal_loss(heat, gt)
        mag_l = ps.mag_loss(mags, 2, weights)
        return ps.total_loss(fix_l, mag_l)

    ad.zero_grads(params)
    loss = loss_value()
    ad.backward(loss)
    eps = 1e-6
    for key in ("query", "inproj.W", "mlph.fc3.W", "maghead.W", "temporal_emb"):
        t = params[key]
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_value().item()
            flat[i] = orig - eps
            lo = loss_value().item()
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-8)
        rel = np.abs(num - t.grad.reshape(-1)).max() / denom
        assert rel < 1e-3, f"end-to-end rel-err {rel} on {key}"

    elapsed = time.monotonic() - t0
    announce(capsys, 3, elapsed < 60.0,
             f"FD gradients match for every op, all losses, and the "
             f"end-to-end miniature network ({elapsed:.1f} s)")


# --------------------------------------------------------------------------
# 4. metric oracles


GRADE_ALPHABET = "B345"


@lru_cache(maxsize=None)
def _nw_suffix_best(a, b):
    """Best raw score over all global alignments of suffix pair (a, b).

    Plain alignment-enumeration recursion; caching by suffix only shares
    work because max() distributes over the three alignment moves.
    """
    if not a and not b:
        return 0.0
    best = -np.inf
    if a and b:
        s = 1.0 if a[0] == b[0] else -1.0
        best = max(best, s + _nw_suffix_best(a[1:], b[1:]))
    if a:
        best = max(best, -1.0 + _nw_suffix_best(a[1:], b))
    if b:
        best = max(best, -1.0 + _nw_suffix_best(a, b[1:]))
    return best


def nw_oracle(a, b):
    raw = _nw_suffix_best(a, b)
    return min(1.0, max(0.0, raw / max(len(a), len(b))))


def test_criterion_4_metric_oracles(capsys):
    # auc_judd vs the pairwise P(pos > neg) oracle, ties included
    rng = np.random.default_rng(17)
    for _ in range(100):
        vals = np.round(rng.random((6, 6)), 1)
        fixations = [Fixation(rng.uniform(0, 60), rng.uniform(0, 60),
                              MagLevel(3), 100.0) for _ in range(4)]
        got = mx.auc_judd(vals, fixations, 60.0, 60.0)
        mask = np.zeros((6, 6), dtype=bool)
        for rc in mx._fixated_cells(fixations, (6, 6), 60.0, 60.0):
            mask[rc] = True
        want = auc_pairwise_oracle(vals.ravel(), mask.ravel())
        assert got == pytest.approx(want, abs=1e-12)

    # needleman_wunsch vs enumeration on all grade strings of length <= 4
    strings = ["".join(s)
               for n in (1, 2, 3, 4)
               for s in itertools.product(GRADE_ALPHABET, repeat=n)]
    assert len(strings) == 340
    for a in strings:
        for b in strings:
            assert mx.needleman_wunsch(a, b) == pytest.approx(nw_oracle(a, b))

    # NSS of uniformly random fixations is centered on zero
    h = np.random.default_rng(3).random((8, 8))
    rng = np.random.default_rng(4)
    total = 0.0
    n = 10_000
    for _ in range(n):
        total += mx.nss(h, [Fixation(rng.uniform(0, 80), rng.uniform(0, 80),
                                     MagLevel(3), 100.0)], 80.0, 80.0)
    assert abs(total / n) < 0.05

    announce(capsys, 4, True,
             "auc_judd == pairwise oracle (1e-12, 100 cases); "
             "needleman_wunsch == enumeration on all 340^2 grade-string "
             f"pairs; random-fixation NSS mean {total / n:+.4f}")


# --------------------------------------------------------------------------
# 5. magnification band law


def banded_transition_matrix():
    probs = np.zeros((6, 6))
    for i, (dec, stay, inc) in enumerate(DEFAULT_TRANSITION_PRIOR):
        if i > 0:
            probs[i, i - 1] = dec
        probs[i, i] = stay
        if i < 5:
            probs[i, i + 1] = inc
    return inf.TransitionMatrix(probs / probs.sum(axis=1, keepdims=True))


def test_criterion_5_band_law(capsys):
    maps, _, provider = make_corpus(n_wsis=1, n_readers=1, n_samples=60,
                                    seed=9, grid=16, base_grid=1)
    gm = maps["wsi_000"]
    f2x = provider.get("wsi_000", MagLevel(1))
    f10x = provider.get("wsi_000", MagLevel(3))
    cfg = ps.ScanpathModelConfig(dim=16, model_dim=16, heads=2, seed=0)
    params = ps.init_scanpath_params(f2x.rows * f2x.cols, cfg,
                                     np.random.default_rng(0))
    tm = banded_transition_matrix()
    checked = 0
    for mode in ("probmag", "priormag"):
        for seed in range(25):
            res = inf.rollout(params, cfg, f2x, f10x, 15, mode=mode, seed=seed,
                              transition_matrix=tm,
                              ior_radius_px=f10x.patch_px)
            fx = res.scanpath.fixations
            assert len(fx) >= 2
            for a, b in zip(fx, fx[1:]):
                assert abs(b.mag.index - a.mag.index) <= 1
            checked += 1
    announce(capsys, 5, checked == 50,
             "|mag index delta| <= 1 at every step of 50 seeded rollouts "
             "(25 probmag + 25 priormag)")


# --------------------------------------------------------------------------
# 6. learning signal beats both random baselines


def test_criterion_6_learning_signal(capsys):
    t0 = time.monotonic()
    maps, sps, provider = make_corpus(n_wsis=10, n_readers=2, n_samples=60,
                                      seed=42, grid=24, drill_bias=0.9,
                                      dim=16, base_grid=8)
    train_ids = sorted(maps)[:8]
    test_ids = sorted(maps)[8:]
    train = [(sp.wsi_id, Scanpath(sp.wsi_id, sp.reader_id, sp.fixations[:25]))
             for sp in sps if sp.wsi_id in train_ids]
    cfg = ps.ScanpathModelConfig(dim=16, model_dim=16, heads=2, epochs=12,
                                 lr=3e-3, seed=0)
    params, _ = ps.train_scanpath(train, provider, cfg)
    tm, _ = estimate_transition_matrix(
        [sp for sp in sps if sp.wsi_id in train_ids])

    n = 40
    margins = []
    for wsi in test_ids:
        gm = maps[wsi]
        f2x = provider.get(wsi, MagLevel(1))
        f10x = provider.get(wsi, MagLevel(3))
        gts = [sp for sp in sps if sp.wsi_id == wsi]
        gt_fix = [f for sp in gts for f in sp.fixations]

        def heat(sp):
            return mx.scanpath_to_heatmap(sp, (f10x.rows, f10x.cols),
                                          gm.width_px, gm.height_px)

        rng = np.random.default_rng(7)
        r1s = [random1_scanpath(gm.width_px, gm.height_px, n, rng)
               for _ in range(5)]
        nss_r1 = np.mean([mx.nss(heat(r), gt_fix, gm.width_px, gm.height_px)
                          for r in r1s])
        auc_r1 = np.mean([mx.auc_judd(heat(r), gt_fix, gm.width_px, gm.height_px)
                          for r in r1s])
        r2s = [random2_scanpath([s for s in sps if s.wsi_id in train_ids], wsi,
                                gm.width_px, gm.height_px,
                                np.random.default_rng(100 + k))
               for k in range(5)]
        tok_r2 = np.mean([mx.tok_sim_scan(Scanpath(wsi, "r", r.fixations), g,
                                          provider, wsi)[1]
                          for r in r2s for g in gts])

        pats = [inf.rollout(params, cfg, f2x, f10x, n, seed=s,
                            ior_radius_px=2 * f10x.patch_px,
                            mode="priormag", transition_matrix=tm).scanpath
                for s in range(5)]
        nss_pat = np.mean([mx.nss(heat(p), gt_fix, gm.width_px, gm.height_px)
                           for p in pats])
        auc_pat = np.mean([mx.auc_judd(heat(p), gt_fix, gm.width_px, gm.height_px)
                           for p in pats])
        tok_pat = np.mean([mx.tok_sim_scan(Scanpath(wsi, "p", p.fixations), g,
                                           provider, wsi)[1]
                           for p in pats for g in gts])
        margins.append((nss_pat - nss_r1, auc_pat - auc_r1, tok_pat - tok_r2))

    nss_m, auc_m, tok_m = np.mean(margins, axis=0)
    elapsed = time.monotonic() - t0
    ok = nss_m >= 0.3 and auc_m >= 0.05 and tok_m > 0 and elapsed < 600
    announce(capsys, 6, ok,
             f"test-WSI margins vs baselines: NSS {nss_m:+.3f} (>= +0.3), "
             f"AUC {auc_m:+.3f} (>= +0.05), TokSimScan {tok_m:+.3f} (> 0) "
             f"({elapsed:.0f} s)")


# --------------------------------------------------------------------------
# 7. overfit sanity


def test_criterion_7_overfit_sanity(capsys):
    # stage 2: memorize a single drilling scanpath on a focal lesion
    grid = np.zeros((16, 16), dtype=np.int8)
    _grow_blob(grid, np.random.default_rng(1), G5, 5)  # one 5-cell G5 lesion
    gm = GradeMap(grid, CELL_SIZE)
    traj = simulate_reader(gm, 101, 80, wsi_id="w", reader_id="r", drill_bias=5.0)
    sp = simplify(traj, SimplifyParams(wsi_width=gm.width_px))
    provider = SyntheticFeatureProvider(
        {"w": gm}, CorpusConfig(seed=1, feature_dim=16, base_grid=1))
    f2x = provider.get("w", MagLevel(1))
    f10x = provider.get("w", MagLevel(3))
    cfg = ps.ScanpathModelConfig(dim=16, model_dim=16, heads=2, epochs=60,
                                 lr=5e-3, seed=0)
    params, _ = ps.train_scanpath([("w", sp)], provider, cfg)
    preds = []
    for k in range(1, len(sp.fixations)):
        heat_t, _ = ps.forward_step(params, cfg, f2x, f10x, sp.fixations[:k])
        preds.append(inf.next_location(heat_t.data, gm.width_px, gm.height_px))
    grid = (f10x.rows, f10x.cols, f10x.width_px, f10x.height_px)
    pr, pc = cells_of(*np.array(preds, dtype=np.float64).T, *grid)
    tr, tc = cells_of(*xy_of(sp.fixations[1:]), *grid)
    acc = 100.0 * np.mean((abs(pr - tr) <= 1) & (abs(pc - tc) <= 1))

    # stage 1: 4x loss reduction within 50 epochs on a single WSI
    maps, sps2, provider2 = make_corpus(n_wsis=1, n_readers=1, n_samples=80,
                                        seed=5, grid=16, drill_bias=0.9,
                                        dim=16, base_grid=8)
    gm2 = maps["wsi_000"]
    corpus = {}
    for mag_idx in (1, 3):
        mag = MagLevel(mag_idx)
        grid = provider2.get("wsi_000", mag)
        fixations = [f for sp in sps2 for f in sp.fixations if f.mag == mag]
        hm = gaussian_map(fixations, (grid.rows, grid.cols),
                          gm2.width_px, gm2.height_px)
        corpus[mag_idx] = [(grid, hm)]
    h_cfg = HeatmapModelConfig(dim=16, heads=2, epochs=50, lr=3e-3, seed=0)
    _, curves = train_heatmap(corpus, h_cfg)
    ratios = {m: c[-1] / c[0] for m, c in curves.items()}

    ok = acc >= 80.0 and all(r < 0.25 for r in ratios.values())
    announce(capsys, 7, ok,
             f"single-scanpath next-fixation within-1-cell accuracy "
             f"{acc:.0f}% (>= 80%); stage-1 loss ratios after 50 epochs "
             f"{ {m: round(r, 4) for m, r in ratios.items()} } (< 0.25)")


# --------------------------------------------------------------------------
# 8. magnification transition shape


def test_criterion_8_transition_shape(capsys, tmp_path):
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--seed", "11", "--wsis", "3", "--readers", "2",
                     "--samples", "200", "--grid", "16",
                     "--out", str(out)]) == 0
    stats = tmp_path / "stats.csv"
    assert cli.main(["stats-mag", "--scanpaths", str(out / "scanpaths.jsonl"),
                     "--out", str(stats)]) == 0
    rows = {}
    for line in stats.read_text().splitlines():
        if line.startswith("#") or line.startswith("level,"):
            continue
        level, dec, stay, incr, *_ = line.split(",")
        rows[level] = (int(dec), int(incr))
    for level in ("1X", "2X", "4X"):
        dec, incr = rows[level]
        assert incr > dec, f"{level}: increase {incr} <= decrease {dec}"
    for level in ("10X", "20X", "40X"):
        dec, incr = rows[level]
        assert dec >= incr, f"{level}: decrease {dec} < increase {incr}"
    announce(capsys, 8, True,
             "increase > decrease at 1X/2X/4X and decrease >= increase at "
             "10X/20X/40X in the default-profile corpus")


# --------------------------------------------------------------------------
# 9. byte-identical reruns


def _read_all(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def test_criterion_9_determinism(capsys, tmp_path):
    def run(*argv):
        assert cli.main(list(argv)) == 0

    gen_args = ["gen", "--seed", "7", "--wsis", "2", "--readers", "1",
                "--samples", "80", "--grid", "16"]
    a, b = tmp_path / "a", tmp_path / "b"
    run(*gen_args, "--out", str(a))
    run(*gen_args, "--out", str(b))
    assert _read_all(a) == _read_all(b), "gen output differs between reruns"

    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nseed = 7\ndim = 16\nmodel_dim = 16\nheads = 2\n")

    stages = {}
    for side in (a, b):
        run("simplify", "--in", str(side / "trajectories.jsonl"),
            "--out", str(side / "sp.jsonl"))
        run("train-heatmap", "--corpus", str(side), "--config", str(cfg),
            "--out", str(side / "h.psck"))
        run("train-scanpath", "--corpus", str(side), "--config", str(cfg),
            "--out", str(side / "s.psck"))
        run("predict", "--ckpt", str(side / "s.psck"), "--corpus", str(side),
            "--wsi", "wsi_000", "--n", "5", "--seed", "3",
            "--out", str(side / "pred.jsonl"))
        run("eval-scanpath", "--pred", str(side / "pred.jsonl"),
            "--gt", str(side / "scanpaths.jsonl"), "--corpus", str(side),
            "--report", str(side / "scan_report.csv"))
        run("eval-next", "--ckpt", str(side / "s.psck"), "--corpus", str(side),
            "--gt", str(side / "scanpaths.jsonl"),
            "--report", str(side / "next_report.csv"))
        run("stats-mag", "--scanpaths", str(side / "scanpaths.jsonl"),
            "--out", str(side / "stats.csv"))
        run("render", "--scanpath", str(side / "pred.jsonl"),
            "--grades", str(side / "wsi_000.grid"),
            "--out", str(side / "render.svg"))
        stages[side] = _read_all(side)

    mismatched = [name for name in stages[a]
                  if stages[a][name] != stages[b].get(name)]
    announce(capsys, 9, not mismatched,
             f"all {len(stages[a])} pipeline artifacts byte-identical across "
             f"reruns (mismatched: {mismatched or 'none'})")
