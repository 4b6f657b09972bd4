import csv
import json
import xml.etree.ElementTree as ET

import pytest

import pathscan.cli as cli
from pathscan.io import read_scanpaths, write_scanpaths
from pathscan.trajectory import Fixation, MagLevel, Scanpath


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


@pytest.mark.parametrize("want, argv, cfg", [
    (0, "stats-mag --scanpaths {c}/scanpaths.jsonl --out {t}/o.csv", None),
    (2, "frobnicate", None),
    (3, "stats-mag --scanpaths {t}/missing.jsonl --out {t}/o.csv", None),
    (3, "train-scanpath --corpus {c} --config {t}/x.cfg --out {t}/s.psck",
     "heads = 3\nmodel_dim = 16\n"),
    (4, "train-scanpath --corpus {c} --config {t}/x.cfg --out {t}/s.psck",
     "epochs = 1\nlr = 1e30\ndim = 16\nmodel_dim = 16\nheads = 2\n"),
], ids=["success", "usage", "data", "config", "numeric"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exit_code_contract(want, argv, cfg, corpus_dir, tmp_path):
    """0 success, 2 usage, 3 data, file or configuration, 4 numeric failure."""
    if cfg is not None:
        (tmp_path / "x.cfg").write_text(cfg)
    try:
        code = run(*argv.format(c=corpus_dir, t=tmp_path).split())
    except SystemExit as e:
        code = e.code
    assert code == want


class TestTrainPredictEval:
    def test_train_heatmap(self, corpus_dir, train_cfg, tmp_path):
        ckpt = tmp_path / "h.psck"
        assert run("train-heatmap", "--corpus", str(corpus_dir),
                   "--config", str(train_cfg), "--out", str(ckpt)) == 0
        assert ckpt.exists()
        assert ckpt.with_suffix(".loss.csv").exists()

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
