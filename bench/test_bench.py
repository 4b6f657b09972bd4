"""Tests of the benchmark itself: each output check rejects a hand-made bad
output, a tiny run of each workload runs to its end, and the traced run
counts what the benchmark derives from its own inputs.

    python3 -m pytest bench -q
"""

from dataclasses import replace

import checks
import pytest
import run
import tracing
from pathscan import features, inference, metrics, pat_s

W, H = 6144.0, 6144.0


def good_rollout(n=5):
    return [(W / 2, H / 2, 1), (100.0, 200.0, 2), (300.0, 300.0, 4),
            (500.0, 10.0, 4), (6000.0, 6100.0, 2)][:n]


# ------------------------------------------------------------ rollout checks


def test_good_rollout_passes():
    checks.check_rollout(good_rollout(), 5, W, H, {0: {1}, 1: {2, 1}, 2: {2, 1}})


def test_rejects_two_level_jump():
    fix = good_rollout()
    fix[2] = (300.0, 300.0, 10)  # 2X -> 10X skips 4X
    with pytest.raises(checks.CheckError, match="more than one level"):
        checks.check_rollout(fix, 5, W, H)


def test_rejects_rollout_one_short():
    with pytest.raises(checks.CheckError, match="wrote 4 fixations, asked for 5"):
        checks.check_rollout(good_rollout(4), 5, W, H)


def test_rejects_fixation_outside_wsi():
    fix = good_rollout()
    fix[3] = (W, 10.0, 4)  # x == width lies just outside
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_rollout(fix, 5, W, H)


def test_rejects_off_centre_start():
    fix = good_rollout()
    fix[0] = (W / 2, H / 2, 2)
    with pytest.raises(checks.CheckError, match="1X centre"):
        checks.check_rollout(fix, 5, W, H)


def test_rejects_zero_probability_prior_move():
    with pytest.raises(checks.CheckError, match="zero prior probability"):
        checks.check_rollout(good_rollout(), 5, W, H, {0: {1}, 1: {1}})


# ------------------------------------------------------ simplification check


TRAJ = {("w", "r"): [(1.0, 1.0, 1), (2.0, 5.0, 1), (3.0, 1.0, 1), (4.0, 4.0, 2),
                     (5.0, 1.0, 2), (6.0, 6.0, 1)]}


def test_simplification_keeping_switches_passes():
    sp = [{"wsi": "w", "reader": "r",
           "fix": [(1.0, 1.0, 1), (3.0, 1.0, 1), (4.0, 4.0, 2), (5.0, 1.0, 2),
                   (6.0, 6.0, 1)]}]
    checks.check_simplification(TRAJ, sp)


def test_rejects_dropped_switch_sample():
    sp = [{"wsi": "w", "reader": "r",  # (3, 1, 1X), the last sample before 2X, is gone
           "fix": [(1.0, 1.0, 1), (2.0, 5.0, 1), (4.0, 4.0, 2), (5.0, 1.0, 2),
                   (6.0, 6.0, 1)]}]
    with pytest.raises(checks.CheckError, match="magnification switch"):
        checks.check_simplification(TRAJ, sp)


def test_rejects_out_of_order_fixations():
    sp = [{"wsi": "w", "reader": "r",
           "fix": [(3.0, 1.0, 1), (1.0, 1.0, 1), (4.0, 4.0, 2), (5.0, 1.0, 2),
                   (6.0, 6.0, 1)]}]
    with pytest.raises(checks.CheckError, match="not a later trajectory sample"):
        checks.check_simplification(TRAJ, sp)


# ------------------------------------------------------------ report checks


EVENTS = [(0, 1), (1, 1), (1, 2), (2, 2)]  # current levels 1X, 2X, 4X


def next_rows(drop=None):
    rows = [["metric", "value"], ["spatial_error_mean", "0.3"], ["spatial_mse", "0.1"],
            ["tok_sim_fix_mean", "0.8"], ["mag_accuracy_overall", "50.0"],
            ["mag_accuracy_1X", "0.0"], ["mag_accuracy_2X", "50.0"],
            ["mag_accuracy_4X", "100.0"], ["mag_change_accuracy_overall", "0.0"],
            ["mag_change_accuracy_1X", "0.0"], ["mag_change_accuracy_2X", "0.0"]]
    return [r for r in rows if r[0] != drop]


def test_next_report_passes():
    checks.check_next_report(next_rows(), EVENTS)


def test_rejects_report_missing_magnification_row():
    with pytest.raises(checks.CheckError, match="mag_accuracy_4X"):
        checks.check_next_report(next_rows(drop="mag_accuracy_4X"), EVENTS)


def test_rejects_accuracy_out_of_range():
    rows = next_rows()
    rows[4] = ["mag_accuracy_overall", "101.0"]
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_next_report(rows, EVENTS)


def test_scan_report_row_count_and_ranges():
    grades = {"w": (["..B3", "..45", "....", "...."], 256.0)}
    preds = [{"wsi": "w", "reader": "p", "fix": [(600.0, 10.0, 1), (800.0, 300.0, 2)]},
             {"wsi": "x", "reader": "p", "fix": [(1.0, 1.0, 1)]}]
    gt = [{"wsi": "w", "reader": "g", "fix": [(900.0, 10.0, 1)]}]
    header = ["wsi", "nss", "auc", "tok_sim_scan", "sss"]
    checks.check_scan_report([header, ["w", "1.0", "0.9", "0.5", "0.5"]], preds, gt,
                             grades)
    with pytest.raises(checks.CheckError, match="rows for 1"):
        checks.check_scan_report([header], preds, gt, grades)
    with pytest.raises(checks.CheckError, match="AUC"):
        checks.check_scan_report([header, ["w", "1.0", "1.5", "0.5", "0.5"]], preds,
                                 gt, grades)
    with pytest.raises(checks.CheckError, match="SSS absent"):
        checks.check_scan_report([header, ["w", "1.0", "0.9", "0.5", "absent"]], preds,
                                 gt, grades)
    assert checks.alignment_cells(preds[:1], gt, grades) == 2 * 1


def test_rejects_rollouts_that_do_not_beat_random():
    header = ["wsi", "nss", "auc", "tok_sim_scan", "sss"]
    rows = [header, ["w", "0.4", "0.6", "0.5", "0.5"], ["w", "0.1", "0.5", "0.5", "0.5"]]
    checks.check_beats_random(rows, [True, False])
    with pytest.raises(checks.CheckError, match="held-out NSS"):
        checks.check_beats_random(rows, [False, True])
    rows[1][2] = "0.45"  # better NSS, worse AUC-Judd than random
    with pytest.raises(checks.CheckError, match="held-out AUC-Judd"):
        checks.check_beats_random(rows, [True, False])


def test_rejects_loss_that_does_not_fall():
    checks.check_losses([[0, 2.0], [1, 1.5]], 1, True, "s2")
    with pytest.raises(checks.CheckError, match="not below"):
        checks.check_losses([[0, 2.0], [1, 2.5]], 1, True, "s2")
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_losses([[0, float("nan")]], 1, False, "s2")


def test_rejects_checkpoint_shape_mismatch():
    cfg = {"dim": 16, "model_dim": 16, "enc_layers": 1, "dec_layers": 1}
    want = checks.stage2_shapes(cfg, 256)
    assert len(want) == 39
    good = {k: tuple(151 if d is None else d for d in v) for k, v in want.items()}
    checks.check_shapes(good, want, "s2")
    with pytest.raises(checks.CheckError, match="inproj.W"):
        checks.check_shapes({**good, "inproj.W": (16, 32)}, want, "s2")


# ------------------------------------------------------------ tiny runs


TINY = {
    "short-reads": replace(run.WORKLOADS["short-reads"], wsis=3, readers=1, samples=30,
                           grid=16, train_wsis=2, rollout_n=6, rollout_seeds=(0,),
                           random_baselines=2, next_repeats=2, scan_repeats=2,
                           beats_random=False),
    "long-reads": replace(run.WORKLOADS["long-reads"], wsis=2, readers=1, samples=80,
                          grid=16, s1_epochs=1, rollout_n=20, random_baselines=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reaches_its_end(name, tmp_path):
    w = TINY[name]
    bench = run.measure(w, 3, 0, False, tmp_path / "work")
    assert bench.problems == []
    assert len(bench.rounds) == 1
    assert bench.setups == run.SETUPS
    assert bench.failed == (len(run.FAULT_ATTEMPTS) if w.kept_fault else 0)
    figures = bench.end_to_end()
    assert all(m["value"] > 0 for m in figures.values())
    assert not (tmp_path / "work").exists()


def test_traced_counts_match_inputs(tmp_path):
    w = TINY["short-reads"]
    wrapped_before = inference.forward_step
    bench = run.measure(w, 4, 0, True, tmp_path / "work")
    assert inference.forward_step is wrapped_before  # wrappers removed again
    assert bench.problems == []
    tr, e = bench.tracer, bench.expected
    # stage-2 steps = sum(len - 1) * epochs over the training scanpaths
    assert tr.total("autodiff.adam_step", ("train-scanpath",), "calls") == e["s2_examples"]
    assert e["s2_examples"] > 0
    # rollout steps are seen through inference's own binding of forward_step
    assert tr.total("pat_s.forward_step", ("rollouts",), "calls") == e["rollout_fixations"]
    # alignment cells = sum of n*m over the aligned grade strings, per eval call
    assert tr.total("metrics.nw", ("eval-scanpath",), "extra") == e["nw_cells"]
    assert e["nw_cells"] > 0
    assert (tr.total("metrics.nw", (run.BASELINE_SCAN,), "extra")
            == e["baseline_nw_cells"] * w.scan_repeats)
    layer = run.per_layer(tr, bench)
    assert layer["pat_s.train_steps"]["value"] == e["s2_examples"]
    assert layer["metrics.nw_cells"]["value"] == e["nw_cells"]
    assert layer["features.token_at_calls"]["value"] > 0


def test_tracer_wraps_every_binding():
    tr = tracing.Tracer()
    forward_step, token_at = pat_s.forward_step, features.token_at
    tr.install()
    try:
        assert inference.forward_step is pat_s.forward_step is not forward_step
        assert pat_s.token_at is metrics.token_at is features.token_at is not token_at
    finally:
        tr.uninstall()
    assert inference.forward_step is pat_s.forward_step is forward_step
    assert metrics.token_at is token_at
