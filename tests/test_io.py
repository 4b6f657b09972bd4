import hashlib
import json

import numpy as np
import pytest

import pathscan.io as pio
from pathscan.errors import FormatError, InvalidConfigError, InvalidInputError
from pathscan.features import CorpusConfig
from pathscan.pat_h import HeatmapModelConfig
from pathscan.pat_s import ScanpathModelConfig
from pathscan.synth import gen_wsi
from pathscan.trajectory import (
    Fixation,
    MagLevel,
    RawTrajectory,
    Scanpath,
    SimplifyParams,
    ViewportSample,
)


def traj(wsi="w0", reader="r0"):
    samples = [
        ViewportSample(10.0, 20.0, MagLevel(0), 100.0),
        ViewportSample(30.0, 40.0, MagLevel(1), 150.0),
    ]
    return RawTrajectory(wsi, reader, "specialist", samples)


class TestTrajectoryJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ts = [traj("w0", "r0"), traj("w0", "r1"), traj("w1", "r0")]
        pio.write_trajectories(path, ts, config={"seed": 3})
        back = pio.read_trajectories(path)
        assert len(back) == 3
        assert back[0].samples == ts[0].samples
        assert back[2].wsi_id == "w1"
        assert back[0].expertise == "specialist"

    def test_meta_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        pio.write_trajectories(path, [traj()], config={"seed": 3})
        first = json.loads(path.read_text().splitlines()[0])
        assert first["_meta"]["version"] == pio.VERSION
        assert first["_meta"]["config"] == {"seed": 3}

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        pio.write_trajectories(path, [traj()])
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(InvalidInputError, match=":4"):
            pio.read_trajectories(path)

    def test_unknown_mag_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = {"wsi": "w", "reader": "r", "x": 1.0, "y": 2.0, "mag": 3, "t_ms": 5.0}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvalidInputError, match=":1"):
            pio.read_trajectories(path)


class TestScanpathJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sp = Scanpath("w0", "r0", [Fixation(1.0, 2.0, MagLevel(3), 250.0)])
        pio.write_scanpaths(path, [sp], config={"seed": 1},
                            generator={"mode": "probmag"})
        back = pio.read_scanpaths(path)
        assert back == [sp]

    def test_generator_metadata_written(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sp = Scanpath("w0", "r0", [Fixation(1.0, 2.0, MagLevel(3), 250.0)])
        pio.write_scanpaths(path, [sp], generator={"mode": "probmag", "seed": 4})
        rec = json.loads(path.read_text().splitlines()[1])
        assert rec["generator"] == {"mode": "probmag", "seed": 4}

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"wsi": "w"}) + "\n")
        with pytest.raises(InvalidInputError, match=":1"):
            pio.read_scanpaths(path)


class TestGradeMapFiles:
    def test_roundtrip(self, tmp_path):
        gm = gen_wsi(5, 16, 16)
        pio.save_grade_map(tmp_path / "w0", gm)
        back = pio.load_grade_map(tmp_path / "w0")
        assert np.array_equal(back.grid, gm.grid)
        assert back.cell_size == gm.cell_size

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "w0.grid").write_text("....")
        with pytest.raises(FormatError):
            pio.load_grade_map(tmp_path / "w0")


class TestConfig:
    def test_types_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "epochs = 10\n"
            "lr = 0.003  # inline comment\n"
            "verbose = true\n"
            'name = "run1"\n'
            "\n"
        )
        cfg = pio.parse_config(path)
        assert cfg == {"epochs": 10, "lr": 0.003, "verbose": True, "name": "run1"}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs 10\n")
        with pytest.raises(FormatError, match=":1"):
            pio.parse_config(path)

    def test_seed_from_config(self, monkeypatch):
        monkeypatch.setenv("PATHSCAN_SEED", "99")  # no environment override
        for cls in (CorpusConfig, HeatmapModelConfig, ScanpathModelConfig):
            assert pio.build_config(cls, {"seed": 1}).seed == 1
            assert pio.build_config(cls, {}).seed == 0
            for bad in (-1, 1.5, "7", True):
                with pytest.raises(InvalidConfigError):
                    pio.build_config(cls, {"seed": bad})

    def test_build_config_reads_field_keys_only(self):
        cfg = {"epochs": 3, "lr": 2, "dim": 99, "name": "run1"}
        config = pio.build_config(HeatmapModelConfig, cfg, dim=16)
        assert (config.dim, config.epochs, config.lr) == (16, 3, 2)
        params = pio.build_config(SimplifyParams, {"wsi_width": 512, "th_dist": 9.5})
        assert (params.wsi_width, params.th_dist) == (512, 9.5)

    @pytest.mark.parametrize("cls, key, bad", [
        (HeatmapModelConfig, "epochs", True),
        (HeatmapModelConfig, "epochs", 2.5),
        (HeatmapModelConfig, "lr", "fast"),
        (CorpusConfig, "feature_dim", 16.7),
        (SimplifyParams, "th_dist", "none"),
        (SimplifyParams, "th_time", True),
        (SimplifyParams, "th_time", float("nan")),
        (SimplifyParams, "th_dist", float("inf")),
        (SimplifyParams, "th_angle", float("inf")),
        (HeatmapModelConfig, "lr", float("inf")),
        (ScanpathModelConfig, "lr", pio._parse_value("1e400")),
        (ScanpathModelConfig, "lr", 10**400),
        (ScanpathModelConfig, "epochs", 10**400),
    ])
    def test_build_config_rejects_wrong_types(self, cls, key, bad):
        with pytest.raises(InvalidConfigError, match=key):
            pio.build_config(cls, {"wsi_width": 512.0, key: bad})


class TestManifest:
    def test_deterministic(self, tmp_path):
        f = tmp_path / "data.bin"
        f.write_bytes(b"hello")
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        pio.write_manifest(m1, [str(f)], {"seed": 1})
        pio.write_manifest(m2, [str(f)], {"seed": 1})
        assert m1.read_bytes() == m2.read_bytes()
        rec = json.loads(m1.read_text())
        assert rec["files"][0]["sha256"] == hashlib.sha256(b"hello").hexdigest()
