import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import typing
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pathscan.autodiff as ad
import pathscan.cli as cli
import pathscan.inference as inference
import pathscan.pat_h as pat_h
import pathscan.pat_s as pat_s
from pathscan.features import CorpusConfig
from pathscan.io import (build_config, load_grade_map, parse_config, read_scanpaths,
                         read_sidecar, write_scanpaths)
from pathscan.trajectory import Fixation, MagLevel, Scanpath, SimplifyParams


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c"
    code = run("gen", "--seed", "7", "--wsis", "2", "--readers", "1",
               "--samples", "80", "--grid", "16", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_cfg(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "train.cfg"
    cfg.write_text("epochs = 1\nseed = 7\ndim = 16\nmodel_dim = 16\nheads = 2\n")
    return cfg


@pytest.fixture(scope="module")
def scanpath_ckpt(tmp_path_factory, corpus_dir, train_cfg):
    ckpt = tmp_path_factory.mktemp("ckpt") / "s.psck"
    assert run("train-scanpath", "--corpus", str(corpus_dir),
               "--config", str(train_cfg), "--out", str(ckpt)) == 0
    return ckpt


class TestGen:
    def test_minimal_corpus_has_all_files(self, corpus_dir):
        names = {p.name for p in corpus_dir.iterdir()}
        assert {"manifest.json", "trajectories.jsonl", "scanpaths.jsonl",
                "wsi_000.grid", "wsi_000.json"} <= names

    def test_refuses_nonempty_without_force(self, corpus_dir):
        assert run("gen", "--seed", "7", "--wsis", "1", "--readers", "1",
                   "--out", str(corpus_dir)) == 3

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "c"
        assert run("gen", "--seed", "1", "--wsis", "1", "--readers", "1",
                   "--grid", "16", "--samples", "60", "--out", str(out)) == 0
        assert run("gen", "--seed", "2", "--wsis", "1", "--readers", "1",
                   "--grid", "16", "--samples", "60", "--out", str(out),
                   "--force") == 0

    def test_force_leaves_old_maps_that_commands_do_not_read(self, scanpath_ckpt,
                                                             tmp_path, capsys):
        out = tmp_path / "c2"
        gen = ("gen", "--readers", "1", "--grid", "16", "--samples", "60", "--out", str(out))
        assert run(*gen, "--seed", "3", "--wsis", "3") == 0
        assert run(*gen, "--seed", "4", "--wsis", "1", "--force") == 0
        assert (out / "wsi_002.grid").exists()
        maps, _, _, _ = cli.load_corpus(str(out))
        assert list(maps) == ["wsi_000"]
        assert run("predict", "--ckpt", str(scanpath_ckpt), "--corpus", str(out),
                   "--wsi", "wsi_002", "--n", "3", "--out", str(tmp_path / "p.jsonl")) == 3
        assert "unknown WSI id: wsi_002" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["no files list", "listed map missing",
                                       "config seed not an int"])
    def test_manifest_fault_exits_3(self, corpus_dir, train_cfg, tmp_path, fault, capsys):
        out = tmp_path / "c"
        shutil.copytree(corpus_dir, out)
        manifest = json.loads((out / "manifest.json").read_text())
        if fault == "no files list":
            del manifest["files"]
        elif fault == "config seed not an int":
            manifest["config"]["seed"] = "7"
        else:
            (out / "wsi_001.grid").unlink()
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run("train-heatmap", "--corpus", str(out), "--config", str(train_cfg),
                   "--out", str(tmp_path / "h.psck")) == 3
        if fault == "config seed not an int":
            assert f"{out / 'manifest.json'}: config key seed" in capsys.readouterr().err

    def test_manifest_lists_hashes(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert all("sha256" in e for e in manifest["files"])


class TestSimplify:
    def test_roundtrip(self, corpus_dir, tmp_path):
        out = tmp_path / "sp.jsonl"
        assert run("simplify", "--in", str(corpus_dir / "trajectories.jsonl"),
                   "--out", str(out)) == 0
        assert len(read_scanpaths(out)) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("simplify", "--in", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.jsonl")) == 3

    def test_resimplifying_gen_output_reproduces_its_scanpaths(self, tmp_path):
        corpus = tmp_path / "c"
        assert run("gen", "--seed", "7", "--wsis", "4", "--readers", "2",
                   "--out", str(corpus)) == 0
        out = tmp_path / "sp.jsonl"
        assert run("simplify", "--in", str(corpus / "trajectories.jsonl"),
                   "--out", str(out)) == 0
        want = read_scanpaths(corpus / "scanpaths.jsonl")
        assert [sp.fixations for sp in read_scanpaths(out)] == \
            [sp.fixations for sp in want]

    def test_gen_simplifies_with_its_config(self, tmp_path):
        # gen's scanpaths are simplify --params of its trajectories, same config
        cfg = tmp_path / "g.cfg"
        cfg.write_text("th_time = 1000\n")
        corpus = tmp_path / "c"
        assert run("gen", "--seed", "3", "--wsis", "1", "--readers", "1",
                   "--samples", "200", "--config", str(cfg), "--out", str(corpus)) == 0
        out = tmp_path / "sp.jsonl"
        assert run("simplify", "--in", str(corpus / "trajectories.jsonl"),
                   "--params", str(cfg), "--out", str(out)) == 0
        want = [sp.fixations for sp in read_scanpaths(out)]
        assert [sp.fixations for sp in read_scanpaths(corpus / "scanpaths.jsonl")] == want

    def test_params_are_checked_before_reading_trajectories(self, tmp_path):
        # an input of only its _meta line holds no trajectory to simplify
        traj = tmp_path / "t.jsonl"
        traj.write_text('{"_meta": {"version": "0.1.0", "config": {}}}\n')
        params, out = tmp_path / "p.cfg", tmp_path / "o.jsonl"
        params.write_text("th_time = abc\n")
        assert run("simplify", "--in", str(traj), "--params", str(params),
                   "--out", str(out)) == 3
        assert not out.exists()
        params.write_text("th_time = 120\n")
        assert run("simplify", "--in", str(traj), "--params", str(params),
                   "--out", str(out)) == 0
        assert json.loads(out.read_text()) == \
            {"_meta": {"version": "0.1.0", "config": {"th_time": 120}}}

    def test_unknown_width_is_data_error(self, corpus_dir, tmp_path):
        traj = tmp_path / "trajectories.jsonl"
        traj.write_bytes((corpus_dir / "trajectories.jsonl").read_bytes())
        assert run("simplify", "--in", str(traj),
                   "--out", str(tmp_path / "o.jsonl")) == 3
        params = tmp_path / "p.cfg"
        params.write_text("wsi_width = 4096\n")
        assert run("simplify", "--in", str(traj), "--params", str(params),
                   "--out", str(tmp_path / "o.jsonl")) == 0


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run("render", "--out", "x.svg")
        assert e.value.code == 2


GEN_CFG = "gen --wsis 1 --readers 1 --samples 60 --grid 16 --config {t}/x.cfg --out {t}/g"
SIMPLIFY_CFG = "simplify --in {c}/trajectories.jsonl --params {t}/x.cfg --out {t}/s.jsonl"
TRAIN_H = "train-heatmap --corpus {c} --config {t}/x.cfg --out {t}/h.psck"
TRAIN_S = "train-scanpath --corpus {c} --config {t}/x.cfg --out {t}/s.psck"
# a one-WSI corpus in {t} and a one-fixation scanpath on its WSI w
TINY = {"manifest.json": '{"config": {}, "files": [{"file": "w.grid"}]}',
        "w.grid": "........\n" * 3 + "...BB...\n" * 2 + "........\n" * 3,
        "w.json": '{"cell_size": 256.0}',
        "p.jsonl": '{"wsi": "w", "reader": "r", "fixations": '
                   '[{"x": 1000, "y": 1000, "mag": 4, "dur_ms": 100}]}\n'}
EVAL_TINY = "eval-scanpath --pred {t}/p.jsonl --gt {t}/p.jsonl --corpus {t} --report {t}/r.csv"
RENDER_TINY = "render --scanpath {t}/p.jsonl --grades {t}/w.grid --out {t}/r.svg"
BAD_GRADE_MAPS = {"unknown-char": {"w.grid": "..?.....\n" * 8},
                  "ragged-row": {"w.grid": "........\n" * 7 + ".......\n"},
                  "sidecar-not-json": {"w.json": "cell_size = 256"},
                  "sidecar-no-cell-size": {"w.json": '{"cell": 256.0}'}}


@pytest.mark.parametrize("want, argv, cfg", [
    (0, "stats-mag --scanpaths {c}/scanpaths.jsonl --out {t}/o.csv", None),
    (2, "frobnicate", None),
    (3, "stats-mag --scanpaths {t}/missing.jsonl --out {t}/o.csv", None),
    (3, "train-scanpath --corpus {c} --config {t}/x.cfg --out {t}/s.psck",
     "heads = 3\nmodel_dim = 16\n"),
    (4, "train-scanpath --corpus {c} --config {t}/x.cfg --out {t}/s.psck",
     "epochs = 1\nlr = 1e30\ndim = 16\nmodel_dim = 16\nheads = 2\n"),
    (2, "predict --ckpt {t}/s.psck --corpus {c} --wsi wsi_000 --n abc --out {t}/p.jsonl",
     None),
    (2, "predict --ckpt {t}/s.psck --corpus {c} --wsi wsi_000 --n 0 --out {t}/p.jsonl",
     None),
    (3, "render --scanpath {c}/scanpaths.jsonl --grades {c}/wsi_000.grid --index 5 "
        "--out {t}/r.svg", None),
    (3, "render --scanpath {c}/scanpaths.jsonl --grades {c}/wsi_000.grid --index -1 "
        "--out {t}/r.svg", None),
    (2, "gen --seed -1 --wsis 1 --readers 1 --out {t}/g", None),
    (2, "predict --ckpt {t}/s.psck --corpus {c} --wsi wsi_000 --seed -2 --out {t}/p.jsonl",
     None),
    (3, GEN_CFG, "seed = -1\n"),
    *[(3, SIMPLIFY_CFG, cfg) for cfg in (
        "th_time = abc\n", "th_dist = none\n", "max_fixations = 2.5\n", "th_time = nan\n",
        "th_dist = inf\n", "th_angle = inf\n")],
    *[(3, GEN_CFG, cfg) for cfg in (
        "th_time = abc\n", "feature_dim = abc\n", "feature_dim = 16.7\n",
        "feature_dim = 4\n", "base_grid = 0\n")],
    *[(3, TRAIN_H, cfg) for cfg in ("epochs = abc\n", "epochs = true\n", "heads = 0\n")],
    *[(3, TRAIN_S, cfg) for cfg in (
        "epochs = 2.5\n", "lr = fast\n", "epochs = -1\n", "enc_layers = -2\n",
        "lr = -0.5\n", "model_dim = 0\n", "lr = inf\n", "lr = 1e400\n",
        f"lr = 1{'0' * 400}\n")],
    *[(2, f"gen {flag} --out {{t}}/g", None) for flag in (
        "--wsis -3", "--readers 0", "--samples 5", "--grid 4")],
    (0, EVAL_TINY, TINY),
    (0, RENDER_TINY, TINY),
    *[(3, argv, {**TINY, **bad}) for argv in (EVAL_TINY, RENDER_TINY)
      for bad in BAD_GRADE_MAPS.values()],
    (3, EVAL_TINY, {**TINY, "manifest.json": TINY["manifest.json"].replace("{}", "[]")}),
    *[(3, "stats-mag --scanpaths {t}/p.jsonl --out {t}/o.csv", {"p.jsonl": line})
      for line in ("7\n", "null\n")],
], ids=["success", "usage", "data", "config", "numeric", "predict-n-not-int",
        "predict-n-zero", "render-index-past-end", "render-index-negative",
        "gen-seed-negative", "predict-seed-negative", "config-seed-negative",
        "simplify-th-time-not-number", "simplify-th-dist-none",
        "simplify-max-fixations-float", "simplify-th-time-nan", "simplify-th-dist-inf",
        "simplify-th-angle-inf", "gen-th-time-not-number",
        "gen-feature-dim-not-number", "gen-feature-dim-float", "gen-feature-dim-4",
        "gen-base-grid-0", "heatmap-epochs-not-number", "heatmap-epochs-bool",
        "heatmap-heads-0", "scanpath-epochs-float", "scanpath-lr-not-number",
        "scanpath-epochs-negative", "scanpath-enc-layers-negative",
        "scanpath-lr-negative", "scanpath-model-dim-0", "scanpath-lr-inf",
        "scanpath-lr-1e400", "scanpath-lr-int-beyond-float", "gen-wsis-negative",
        "gen-readers-0", "gen-samples-below-floor", "gen-grid-below-floor",
        "eval-scanpath-tiny-corpus", "render-tiny-corpus",
        *[f"{command}-grade-map-{bad}" for command in ("eval-scanpath", "render")
          for bad in BAD_GRADE_MAPS],
        "manifest-config-not-object", "stats-mag-line-number", "stats-mag-line-null"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exit_code_contract(want, argv, cfg, corpus_dir, tmp_path, capsys):
    """0 success, 2 usage, 3 data, file or configuration, 4 numeric failure;
    a failed gen leaves no file in --out. ``cfg`` is the text of x.cfg, or
    the text of each file by name."""
    for name, text in ({"x.cfg": cfg} if isinstance(cfg, str) else cfg or {}).items():
        (tmp_path / name).write_text(text)
    try:
        code = run(*argv.format(c=corpus_dir, t=tmp_path).split())
    except SystemExit as e:
        code = e.code
    assert code == want
    if want:
        assert "error:" in capsys.readouterr().err
    if want and argv.startswith("gen"):
        assert not [p for p in (tmp_path / "g").glob("**/*") if p.is_file()]


# gen, train-heatmap (gaussian_map targets) and eval-scanpath (gaussian_map
# and auc_judd) in a process that cannot import scipy; prints the exit codes
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import pathscan.cli as cli
t = sys.argv[1]
open(t + "/h.cfg", "w").write("epochs = 1\\nseed = 7\\nlayers = 1\\nheads = 2\\n")
print([cli.main(argv.format(t=t).split()) for argv in (
    "gen --seed 7 --wsis 1 --readers 1 --samples 60 --grid 16 --out {t}/c",
    "train-heatmap --corpus {t}/c --config {t}/h.cfg --out {t}/h.psck",
    "eval-scanpath --pred {t}/c/scanpaths.jsonl --gt {t}/c/scanpaths.jsonl "
    "--corpus {t}/c --report {t}/r.csv")])
"""


def test_commands_run_without_scipy(tmp_path):
    """numpy is the one runtime dependency: no command path imports scipy."""
    src = str(Path(pat_h.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[0, 0, 0]", done.stderr


def test_numeric_failure_computes_nothing_through_inf(corpus_dir, tmp_path):
    """``lr = 1e30`` exits 4 before any kernel takes an inf or NaN in: numpy
    warns only where a value first overflows, never of an invalid value."""
    (tmp_path / "x.cfg").write_text(
        "epochs = 1\nlr = 1e30\ndim = 16\nmodel_dim = 16\nheads = 2\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run(*TRAIN_S.format(c=corpus_dir, t=tmp_path).split())
    assert code == 4
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)
            and not str(w.message).startswith("overflow")] == []


def test_readme_config_table_matches_the_config_dataclasses():
    """README's "Config files" table lists each command's file keys, the
    fields of its config dataclasses less ``dim``, with each field's type."""
    def keys(*classes):
        return {f.name: "int" if typing.get_type_hints(cls)[f.name] is int else "float"
                for cls in classes for f in dataclasses.fields(cls) if f.name != "dim"}

    want = {"gen": keys(CorpusConfig, SimplifyParams), "simplify": keys(SimplifyParams),
            "train-heatmap": keys(pat_h.HeatmapModelConfig),
            "train-scanpath": keys(pat_s.ScanpathModelConfig)}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    got: dict[str, dict[str, str]] = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            commands, key, type_ = [cell.strip() for cell in line.split("|")[1:4]]
            for command in commands.replace("`", "").split(", "):
                got.setdefault(command, {})[key.strip("`")] = type_
    assert got == want


class TestTrainPredictEval:
    def test_train_heatmap(self, corpus_dir, train_cfg, tmp_path):
        ckpt = tmp_path / "h.psck"
        assert run("train-heatmap", "--corpus", str(corpus_dir),
                   "--config", str(train_cfg), "--out", str(ckpt)) == 0
        assert ckpt.exists()
        assert ckpt.with_suffix(".loss.csv").exists()

    @pytest.mark.parametrize("command, keys", [
        ("train-heatmap", ["level", "epoch", "loss", "grad_norm", "steps_per_s"]),
        ("train-scanpath", ["epoch", "loss_fix", "loss_mag", "loss_total", "grad_norm",
                            "examples_per_s"])])
    def test_training_reports_each_epoch_on_stderr(self, corpus_dir, tmp_path, capsys,
                                                   command, keys):
        """One stderr line per epoch (of each level in stage 1): the mean losses
        the loss CSV holds, a mean gradient norm and a throughput."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text("epochs = 2\nseed = 7\ndim = 16\nmodel_dim = 16\nheads = 2\n")
        ckpt = tmp_path / "m.psck"
        capsys.readouterr()
        assert run(command, "--corpus", str(corpus_dir), "--config", str(cfg),
                   "--out", str(ckpt)) == 0
        lines = capsys.readouterr().err.splitlines()
        with open(ckpt.with_suffix(".loss.csv")) as fh:
            fh.readline()  # version comment
            rows = list(csv.DictReader(fh))
        assert len(lines) == len(rows) >= 2
        for line, row in zip(lines, rows):
            name, _, text = line.partition(": ")
            words = text.split()
            fields = dict(zip(words[::2], words[1::2]))
            assert name == command and list(fields) == keys and len(words) == 2 * len(keys)
            assert fields["epoch"] == f"{int(row['epoch']) + 1}/2"
            assert fields.get("level", row.get("mag_index")) == row.get("mag_index")
            for k in [k for k in keys if k.startswith("loss")]:
                assert float(fields[k]) == pytest.approx(float(row[k]), rel=1e-5)
            assert float(fields["grad_norm"]) > 0 and float(fields[keys[-1]]) > 0

    def test_sidecars_hold_the_trained_configs(self, corpus_dir, train_cfg,
                                               scanpath_ckpt, tmp_path):
        # train_cfg also sets stage-2 keys; the stage-1 sidecar holds none
        ckpt = tmp_path / "h.psck"
        assert run("train-heatmap", "--corpus", str(corpus_dir),
                   "--config", str(train_cfg), "--out", str(ckpt)) == 0
        cfg = parse_config(train_cfg)
        for path, cls in ((ckpt, pat_h.HeatmapModelConfig),
                          (scanpath_ckpt, pat_s.ScanpathModelConfig)):
            config = build_config(cls, cfg, dim=32)
            rec = json.loads(Path(str(path) + ".json").read_text())
            assert rec == {"version": "0.1.0", "config": dataclasses.asdict(config)}
            assert read_sidecar(path, cls) == (config, None)

    def test_csv_lines_end_with_newline(self, corpus_dir, scanpath_ckpt, tmp_path):
        report = tmp_path / "next.csv"
        assert run("eval-next", "--ckpt", str(scanpath_ckpt), "--corpus", str(corpus_dir),
                   "--gt", str(corpus_dir / "scanpaths.jsonl"), "--report", str(report)) == 0
        for path in (report, scanpath_ckpt.with_suffix(".loss.csv")):
            text = path.read_bytes()
            assert b"\r" not in text and text.endswith(b"\n")

    def test_predict_writes_scanpath(self, corpus_dir, scanpath_ckpt, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--ckpt", str(scanpath_ckpt),
                   "--corpus", str(corpus_dir), "--wsi", "wsi_000",
                   "--n", "5", "--seed", "3", "--out", str(out)) == 0
        sps = read_scanpaths(out)
        assert len(sps) == 1 and sps[0].wsi_id == "wsi_000"
        rec = json.loads(out.read_text().splitlines()[1])
        assert rec["generator"]["mode"] == "probmag"

    def test_predict_unknown_wsi_is_data_error(self, corpus_dir, scanpath_ckpt,
                                               tmp_path):
        assert run("predict", "--ckpt", str(scanpath_ckpt),
                   "--corpus", str(corpus_dir), "--wsi", "nope",
                   "--out", str(tmp_path / "p.jsonl")) == 3

    def test_predict_short_rollout_exits_3(self, corpus_dir, scanpath_ckpt,
                                           tmp_path, monkeypatch, capsys):
        def stopped(*args, **kwargs):
            sp = Scanpath("", "", [Fixation(1.0, 1.0, MagLevel(0), 0.0)])
            return inference.RolloutResult(sp, aborted=True, reason="empty heatmap")

        monkeypatch.setattr(inference, "rollout", stopped)
        out = tmp_path / "p.jsonl"
        assert run("predict", "--ckpt", str(scanpath_ckpt),
                   "--corpus", str(corpus_dir), "--wsi", "wsi_000",
                   "--n", "150", "--out", str(out)) == 3
        assert len(read_scanpaths(out)[0]) == 1
        assert "1 of 150 fixations (empty heatmap)" in capsys.readouterr().err

    def test_eval_scanpath_gt_vs_itself(self, corpus_dir, tmp_path):
        # evaluating the ground truth against itself: SSS must be 1
        gts = read_scanpaths(corpus_dir / "scanpaths.jsonl")
        pred_file = tmp_path / "pred.jsonl"
        write_scanpaths(pred_file, [gts[0]])
        report = tmp_path / "report.csv"
        assert run("eval-scanpath", "--pred", str(pred_file),
                   "--gt", str(corpus_dir / "scanpaths.jsonl"),
                   "--corpus", str(corpus_dir), "--report", str(report)) == 0
        with open(report) as fh:
            fh.readline()  # version comment
            rows = list(csv.DictReader(fh))
        assert rows[0]["wsi"] == gts[0].wsi_id
        assert float(rows[0]["sss"]) == pytest.approx(1.0)
        assert float(rows[0]["nss"]) > 0
        assert float(rows[0]["tok_sim_scan"]) == pytest.approx(1.0)

    def test_eval_next_report(self, corpus_dir, scanpath_ckpt, tmp_path):
        report = tmp_path / "next.csv"
        assert run("eval-next", "--ckpt", str(scanpath_ckpt),
                   "--corpus", str(corpus_dir),
                   "--gt", str(corpus_dir / "scanpaths.jsonl"),
                   "--report", str(report)) == 0
        with open(report) as fh:
            fh.readline()
            rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert "spatial_error_mean" in rows
        assert 0 <= rows["mag_accuracy_overall"] <= 100


def at_level(sp, level, wsi_id=None, reader_id="r"):
    """sp's fixations moved to one magnification level."""
    return Scanpath(wsi_id or sp.wsi_id, reader_id,
                    [Fixation(f.x, f.y, MagLevel(level), f.dur) for f in sp.fixations])


def eval_scanpath(corpus_dir, d, preds, gts):
    """Exit code of eval-scanpath on the given scanpaths and its report rows."""
    write_scanpaths(d / "pred.jsonl", preds)
    write_scanpaths(d / "gt.jsonl", gts)
    report = d / "report.csv"
    code = run("eval-scanpath", "--pred", str(d / "pred.jsonl"),
               "--gt", str(d / "gt.jsonl"), "--corpus", str(corpus_dir),
               "--report", str(report))
    if not report.exists():
        return code, None
    with open(report) as fh:
        fh.readline()  # version comment
        return code, list(csv.DictReader(fh))


class TestEvalScanpath:
    def test_gt_sharing_no_level_is_left_out_of_tok_sim_scan(self, corpus_dir,
                                                             tmp_path):
        gt = read_scanpaths(corpus_dir / "scanpaths.jsonl")[0]
        pred = at_level(gt, 3)
        shares, cut = at_level(gt, 3, reader_id="a"), at_level(gt, 0, reader_id="b")
        code, rows = eval_scanpath(corpus_dir, tmp_path, [pred], [shares, cut])
        assert code == 0
        assert float(rows[0]["tok_sim_scan"]) == pytest.approx(1.0)

    def test_tok_sim_scan_absent_when_no_gt_shares_a_level(self, corpus_dir, tmp_path):
        gt = read_scanpaths(corpus_dir / "scanpaths.jsonl")[0]
        code, rows = eval_scanpath(corpus_dir, tmp_path, [at_level(gt, 3)],
                                   [at_level(gt, 0)])
        assert code == 0
        assert rows[0]["tok_sim_scan"] == "absent"
        assert float(rows[0]["sss"]) == pytest.approx(1.0)

    def test_point_outside_slide_is_a_data_error(self, corpus_dir, tmp_path, capsys):
        # the off-slide fixation is at 40X, a level the GT never visits, so
        # TokSimScan skips it; the grade string still has to place it
        gt = at_level(read_scanpaths(corpus_dir / "scanpaths.jsonl")[0], 3)
        width = load_grade_map(corpus_dir / gt.wsi_id).width_px
        pred = Scanpath(gt.wsi_id, "p", gt.fixations
                        + [Fixation(width + 10.0, 5.0, MagLevel(5), 0.0)])
        code, rows = eval_scanpath(corpus_dir, tmp_path, [pred], [gt])
        assert code == 3 and rows is None
        assert "outside WSI" in capsys.readouterr().err

    def test_stderr_counts_scored_skipped_and_absent(self, corpus_dir, tmp_path,
                                                     capsys):
        gts = read_scanpaths(corpus_dir / "scanpaths.jsonl")
        gt0 = at_level(gts[0], 3)
        unmapped = at_level(gts[0], 3, wsi_id="wsi_999")
        preds = [gt0, gts[1], unmapped, at_level(gts[0], 0)]
        code, rows = eval_scanpath(corpus_dir, tmp_path, preds, [gt0, unmapped])
        assert code == 0
        assert [r["tok_sim_scan"] == "absent" for r in rows] == [False, True]
        assert capsys.readouterr().err.splitlines() == [
            "eval-scanpath: scored 2 of 4 predictions; skipped: 1 no ground truth, "
            "1 no grade map; absent: tok_sim_scan 1, sss 0"]


def eval_next(corpus_dir, ckpt, d, gts):
    """Exit code of eval-next on the given ground truth and its report rows."""
    write_scanpaths(d / "gt.jsonl", gts)
    report = d / "next.csv"
    code = run("eval-next", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
               "--gt", str(d / "gt.jsonl"), "--report", str(report))
    if not report.exists():
        return code, None
    with open(report) as fh:
        fh.readline()  # version comment
        return code, {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}


class TestEvalNext:
    def test_stderr_counts_events_skipped_and_change_accuracy(
            self, corpus_dir, scanpath_ckpt, tmp_path, capsys):
        gts = read_scanpaths(corpus_dir / "scanpaths.jsonl")
        stay = at_level(gts[0], 3)
        short = Scanpath(gts[1].wsi_id, "s", gts[1].fixations[:1])
        unmapped = at_level(gts[1], 3, wsi_id="wsi_999")

        code, rows = eval_next(corpus_dir, scanpath_ckpt, tmp_path,
                               [stay, short, unmapped])
        assert code == 0 and np.isnan(rows["mag_change_accuracy_overall"])
        assert capsys.readouterr().err.splitlines() == [
            f"eval-next: scored {len(stay) - 1} events from 1 of 3 scanpaths; "
            "skipped: 1 shorter than 2, 1 unknown WSI; mag_change_accuracy undefined"]

        code, rows = eval_next(corpus_dir, scanpath_ckpt, tmp_path, [gts[0]])
        assert code == 0 and not np.isnan(rows["mag_change_accuracy_overall"])
        assert capsys.readouterr().err.splitlines() == [
            f"eval-next: scored {len(gts[0]) - 1} events from 1 of 1 scanpaths; "
            "skipped: 0 shorter than 2, 0 unknown WSI; mag_change_accuracy defined"]

    def test_nothing_to_score_is_a_data_error(self, corpus_dir, scanpath_ckpt,
                                              tmp_path, capsys):
        gts = read_scanpaths(corpus_dir / "scanpaths.jsonl")
        code, rows = eval_next(corpus_dir, scanpath_ckpt, tmp_path,
                               [at_level(gts[0], 3, wsi_id="wsi_999")])
        assert code == 3 and rows is None
        assert capsys.readouterr().err.splitlines()[0] == (
            "eval-next: scored 0 events from 0 of 1 scanpaths; "
            "skipped: 0 shorter than 2, 1 unknown WSI; mag_change_accuracy undefined")


@pytest.fixture(scope="module")
def off_slide_corpus(tmp_path_factory, corpus_dir):
    """corpus_dir with the last fixation of its first scanpath moved off the
    slide, to x = -300 at 10X, a level both training stages read."""
    out = tmp_path_factory.mktemp("offslide") / "c"
    shutil.copytree(corpus_dir, out)
    sps = read_scanpaths(out / "scanpaths.jsonl")
    last = sps[0].fixations[-1]
    sps[0].fixations[-1] = Fixation(-300.0, last.y, MagLevel(3), last.dur)
    write_scanpaths(out / "scanpaths.jsonl", sps)
    return out


@pytest.mark.parametrize("command", ["train-heatmap", "train-scanpath"])
def test_training_on_an_off_slide_fixation_is_a_data_error(
        command, off_slide_corpus, train_cfg, tmp_path, capsys):
    # the last fixation is read only as a training target, so placing the
    # target is what has to reject it
    assert run(command, "--corpus", str(off_slide_corpus), "--config", str(train_cfg),
               "--out", str(tmp_path / "m.psck")) == 3
    assert "outside WSI" in capsys.readouterr().err


def test_sidecar_rebuilds_checkpoint_shapes(corpus_dir, scanpath_ckpt):
    """The sidecar keys a reader of a stage-2 checkpoint relies on: five int
    config values from which init_scanpath_params rebuilds every name and
    shape in the checkpoint."""
    cfg = json.loads((scanpath_ckpt.parent / "s.psck.json").read_text())["config"]
    keys = ("dim", "model_dim", "enc_layers", "dec_layers", "heads")
    assert all(type(cfg[k]) is int for k in keys)
    config = pat_s.ScanpathModelConfig(**{k: cfg[k] for k in keys})
    _, _, provider, _ = cli.load_corpus(str(corpus_dir))
    f2x = provider.get("wsi_000", MagLevel(1))
    rebuilt = pat_s.init_scanpath_params(f2x.rows * f2x.cols, config,
                                         np.random.default_rng(0))
    saved = ad.load_checkpoint(scanpath_ckpt)
    assert {k: t.shape for k, t in rebuilt.items()} == \
        {k: a.shape for k, a in saved.items()}


def train_on_stage1(corpus_dir, d) -> int:
    """Stage 1 at layers = 1, heads = 4 into d/h.psck, then stage 2 on it
    into d/s.psck from a config that sets no layers and heads = 2; returns
    the exit code of train-scanpath."""
    (d / "s1.cfg").write_text("epochs = 1\nseed = 7\nlayers = 1\nheads = 4\n")
    (d / "s2.cfg").write_text("epochs = 1\nseed = 7\nmodel_dim = 16\nheads = 2\n")
    assert run("train-heatmap", "--corpus", str(corpus_dir), "--config",
               str(d / "s1.cfg"), "--out", str(d / "h.psck")) == 0
    return run("train-scanpath", "--corpus", str(corpus_dir), "--config",
               str(d / "s2.cfg"), "--stage1", str(d / "h.psck"),
               "--out", str(d / "s.psck"))


@pytest.fixture(scope="module")
def stage1_run(tmp_path_factory, corpus_dir):
    """The directory of train_on_stage1, its exit code and the (layers,
    heads) of every stage-1 encode during stage-2 training."""
    d = tmp_path_factory.mktemp("stage1")
    seen = []
    encode = pat_h.encode

    def spy(grid, params, config):
        seen.append((config.layers, config.heads))
        return encode(grid, params, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pat_h, "encode", spy)
        code = train_on_stage1(corpus_dir, d)
    return d, code, seen


def stage1_grid(corpus_dir, d, wsi_id, level):
    """The provider grid of (wsi_id, level) encoded by d/h.psck's model for
    that level at the stage-1 config train_on_stage1 set."""
    _, _, provider, _ = cli.load_corpus(str(corpus_dir))
    grid = provider.get(wsi_id, MagLevel(level))
    models, _ = pat_h.load_heatmap_models(d / "h.psck")
    config = pat_h.HeatmapModelConfig(dim=provider.dim, layers=1, heads=4)
    return pat_h.encode(grid, models[level], config).data.reshape(grid.rows, grid.cols, -1)


# what a loader names for each pair whose table is not its sidecar's model
TABLE_FAULTS = {
    "stage-1 pair as --ckpt": "h.psck: tensor inproj.W is missing",
    "stage-2 pair as --stage1": "s.psck: tensor inproj.W is not m<level>.<name>",
    "enc_layers 1 to 2": "s.psck: tensor mem1.attn.q.W is missing",
    "stage-1 layers 1 to 2": "s.psck: tensor stage1.m1.enc1.attn.q.W is missing",
    "dec_layers 1 to 0": "s.psck: tensor dec0.xattn.q.W is not in the model its sidecar",
    "model_dim 16 to 32": "s.psck: tensor inproj.W has shape (32, 16), its sidecar "
                          "gives (32, 32)",
    "earlier --stage1 format": "s.psck: no stage1.m<level>. tensors",
}


class TestStage1Checkpoint:
    def test_train_scanpath_encodes_with_stage1_config(self, stage1_run):
        d, code, seen = stage1_run
        assert code == 0
        assert seen and set(seen) == {(1, 4)}
        h_side = json.loads((d / "h.psck.json").read_text())
        assert {k: h_side["config"][k] for k in ("dim", "layers", "heads")} == \
            {"dim": 32, "layers": 1, "heads": 4}
        s_side = json.loads((d / "s.psck.json").read_text())
        assert s_side["stage1"] == h_side["config"]
        s_tables = ad.load_checkpoint(d / "s.psck")
        for key, arr in ad.load_checkpoint(d / "h.psck").items():
            assert s_tables[f"stage1.{key}"].tobytes() == arr.tobytes(), key

    def test_predict_and_eval_next_read_stage1_grids(self, corpus_dir, stage1_run,
                                                     tmp_path, monkeypatch):
        d, _, _ = stage1_run
        models, _ = pat_h.load_heatmap_models(d / "h.psck")
        assert {1, 3} <= set(models)
        want = [stage1_grid(corpus_dir, d, "wsi_000", level) for level in (1, 3)]
        seen = []
        forward = pat_s.forward_step

        def spy(params, config, f2x, f10x, history):
            seen.append((f2x.data, f10x.data))
            return forward(params, config, f2x, f10x, history)

        monkeypatch.setattr(inference, "forward_step", spy)
        assert run("predict", "--ckpt", str(d / "s.psck"), "--corpus", str(corpus_dir),
                   "--wsi", "wsi_000", "--n", "3", "--seed", "3",
                   "--out", str(tmp_path / "p.jsonl")) == 0
        n_predict = len(seen)
        monkeypatch.setattr(pat_s, "forward_step", spy)
        sp = [s for s in read_scanpaths(corpus_dir / "scanpaths.jsonl")
              if s.wsi_id == "wsi_000"][0]
        gt = tmp_path / "gt.jsonl"
        write_scanpaths(gt, [Scanpath(sp.wsi_id, sp.reader_id, sp.fixations[:4])])
        assert run("eval-next", "--ckpt", str(d / "s.psck"), "--corpus", str(corpus_dir),
                   "--gt", str(gt), "--report", str(tmp_path / "next.csv")) == 0
        assert n_predict == 2 and len(seen) == 2 + 3
        for f2x, f10x in seen:
            assert np.array_equal(f2x, want[0].astype(np.float32))
            assert np.array_equal(f10x, want[1].astype(np.float32))

    def test_stage2_pair_needs_no_stage1_file(self, corpus_dir, stage1_run, tmp_path):
        """predict (both modes) and eval-next write the same bytes from a copy
        of the stage-2 pair alone as from the training directory."""
        d, _, _ = stage1_run
        alone = tmp_path / "alone"
        alone.mkdir()
        for name in ("s.psck", "s.psck.json"):
            shutil.copyfile(d / name, alone / name)
        outs = []
        for where in (d, alone):
            ckpt, out = str(where / "s.psck"), tmp_path / where.name
            for mode in ("probmag", "priormag"):
                assert run("predict", "--ckpt", ckpt, "--corpus", str(corpus_dir),
                           "--wsi", "wsi_000", "--mode", mode, "--n", "3", "--seed", "3",
                           "--out", f"{out}-{mode}.jsonl") == 0
            assert run("eval-next", "--ckpt", ckpt, "--corpus", str(corpus_dir),
                       "--gt", str(corpus_dir / "scanpaths.jsonl"),
                       "--report", f"{out}-next.csv") == 0
            outs.append([Path(f"{out}-{f}").read_bytes()
                         for f in ("probmag.jsonl", "priormag.jsonl", "next.csv")])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("fault, message", [
        ("no sidecar", "s.psck.json"),
    ])
    def test_missing_or_changed_file_exits_3(self, corpus_dir, stage1_run, tmp_path,
                                             fault, message, capsys):
        d, _, _ = stage1_run
        shutil.copyfile(d / "s.psck", tmp_path / "s.psck")  # without its sidecar
        ckpt = str(tmp_path / "s.psck")
        assert run("predict", "--ckpt", ckpt, "--corpus", str(corpus_dir), "--wsi",
                   "wsi_000", "--n", "3", "--out", str(tmp_path / "p.jsonl")) == 3
        assert run("eval-next", "--ckpt", ckpt, "--corpus", str(corpus_dir),
                   "--gt", str(corpus_dir / "scanpaths.jsonl"),
                   "--report", str(tmp_path / "next.csv")) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["h", "s"])
    @pytest.mark.parametrize("heads", [2.9, "2", True], ids=["float", "str", "bool"])
    def test_mistyped_sidecar_value_exits_3(self, corpus_dir, stage1_run, tmp_path,
                                            stage, heads, capsys):
        d, _, _ = stage1_run
        for name in ("s.psck", "s.psck.json"):
            shutil.copyfile(d / name, tmp_path / name)
        # the stage-2 sidecar holds both configs: stage 1's is its stage1 entry
        side = tmp_path / "s.psck.json"
        rec = json.loads(side.read_text())
        rec["stage1" if stage == "h" else "config"]["heads"] = heads
        side.write_text(json.dumps(rec))
        ckpt = str(tmp_path / "s.psck")
        assert run("predict", "--ckpt", ckpt, "--corpus", str(corpus_dir), "--wsi",
                   "wsi_000", "--n", "3", "--out", str(tmp_path / "p.jsonl")) == 3
        assert run("eval-next", "--ckpt", ckpt, "--corpus", str(corpus_dir),
                   "--gt", str(corpus_dir / "scanpaths.jsonl"),
                   "--report", str(tmp_path / "next.csv")) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(f"{side}: config key heads must be int" in line for line in err)

    @pytest.mark.parametrize("fault", list(TABLE_FAULTS))
    def test_table_that_is_not_the_sidecars_model_exits_3(
            self, corpus_dir, stage1_run, tmp_path, fault, capsys):
        """Each loader rebuilds the tensor names and shapes from the sidecar's
        config and names the first tensor that differs."""
        d, _, _ = stage1_run
        for name in ("h.psck", "h.psck.json", "s.psck", "s.psck.json"):
            shutil.copyfile(d / name, tmp_path / name)
        side = tmp_path / "s.psck.json"
        rec = json.loads(side.read_text())
        edits = {"enc_layers 1 to 2": ("config", "enc_layers", 2),
                 "stage-1 layers 1 to 2": ("stage1", "layers", 2),
                 "dec_layers 1 to 0": ("config", "dec_layers", 0),
                 "model_dim 16 to 32": ("config", "model_dim", 32)}
        if fault in edits:
            entry, key, value = edits[fault]
            rec[entry][key] = value
        if fault == "earlier --stage1 format":  # a file reference, no stage-1 tensors
            rec["stage1"] = {"file": "h.psck", "sha256": "0" * 64,
                             "sidecar_sha256": "0" * 64}
            ad.save_checkpoint(tmp_path / "s.psck", {
                k: v for k, v in ad.load_checkpoint(d / "s.psck").items()
                if not k.startswith("stage1.")})
        side.write_text(json.dumps(rec))
        if fault == "stage-2 pair as --stage1":
            codes = [run("train-scanpath", "--corpus", str(corpus_dir), "--config",
                         str(d / "s2.cfg"), "--stage1", str(tmp_path / "s.psck"),
                         "--out", str(tmp_path / "x.psck"))]
        else:
            ckpt = str(tmp_path / ("h.psck" if fault == "stage-1 pair as --ckpt"
                                   else "s.psck"))
            codes = [run("predict", "--ckpt", ckpt, "--corpus", str(corpus_dir), "--wsi",
                         "wsi_000", "--n", "3", "--out", str(tmp_path / "p.jsonl")),
                     run("eval-next", "--ckpt", ckpt, "--corpus", str(corpus_dir),
                         "--gt", str(corpus_dir / "scanpaths.jsonl"),
                         "--report", str(tmp_path / "next.csv"))]
        assert set(codes) == {3}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(codes)
        assert all(TABLE_FAULTS[fault] in line for line in err)

    def test_earlier_sidecar_format_loads_to_the_same_config(self, stage1_run,
                                                             tmp_path):
        # sidecars used to hold the config file's values updated with the
        # model's int shape keys
        d, _, _ = stage1_run
        for name, cfg_file, cls, keys in (
                ("h.psck", "s1.cfg", pat_h.HeatmapModelConfig, ("dim", "layers", "heads")),
                ("s.psck", "s2.cfg", pat_s.ScanpathModelConfig,
                 ("dim", "model_dim", "enc_layers", "dec_layers", "heads"))):
            rec = json.loads((d / f"{name}.json").read_text())
            rec["config"] = {**parse_config(d / cfg_file),
                             **{k: rec["config"][k] for k in keys}}
            (tmp_path / f"{name}.json").write_text(json.dumps(rec))
            assert read_sidecar(tmp_path / name, cls)[0] == read_sidecar(d / name, cls)[0]

    def test_sidecars_identical_across_directories(self, corpus_dir, stage1_run,
                                                   tmp_path):
        d, _, _ = stage1_run
        other = tmp_path / "elsewhere"
        other.mkdir()
        assert train_on_stage1(corpus_dir, other) == 0
        for name in ("h.psck", "h.psck.json", "s.psck", "s.psck.json"):
            assert (d / name).read_bytes() == (other / name).read_bytes(), name


class TestStatsMag:
    def test_stay_only_corpus_identity_rows(self, tmp_path):
        sp = Scanpath("w", "r", [Fixation(1, 1, MagLevel(2), 1.0)] * 5)
        sp_file = tmp_path / "sp.jsonl"
        write_scanpaths(sp_file, [sp])
        out = tmp_path / "stats.csv"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("stats-mag", "--scanpaths", str(sp_file),
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("level,")
        assert lines[4].startswith("4X,0,4,0,")

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("stats-mag", "--scanpaths", str(tmp_path / "x.jsonl"),
                   "--out", str(tmp_path / "o.csv")) == 3


class TestRender:
    def test_valid_svg(self, corpus_dir, tmp_path):
        out = tmp_path / "r.svg"
        assert run("render", "--scanpath", str(corpus_dir / "scanpaths.jsonl"),
                   "--grades", str(corpus_dir / "wsi_000.grid"),
                   "--out", str(out)) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
