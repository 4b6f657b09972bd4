"""File formats: trajectory/scanpath JSONL, grade-map text files, configs.

Every writer embeds a metadata record (tool version plus the resolved
configuration) so outputs are self-describing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import typing
from pathlib import Path

from .errors import FormatError, InvalidConfigError, InvalidInputError
from .synth import GradeMap
from .trajectory import Fixation, MagLevel, RawTrajectory, Scanpath, ViewportSample

VERSION = "0.1.0"


def _meta_record(config: dict | None) -> dict:
    return {"_meta": {"version": VERSION, "config": config or {}}}


def _records(path):
    """(line number, record) of each non-blank, non-``_meta`` JSONL line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise InvalidInputError(f"{path}:{lineno}: malformed JSON: {e}") from None
            if not isinstance(rec, dict):
                raise InvalidInputError(f"{path}:{lineno}: not a JSON object")
            if "_meta" not in rec:
                yield lineno, rec


def write_trajectories(path, trajectories: list[RawTrajectory], config: dict | None = None):
    with open(path, "w") as fh:
        fh.write(json.dumps(_meta_record(config)) + "\n")
        for traj in trajectories:
            for s in traj.samples:
                fh.write(
                    json.dumps(
                        {
                            "wsi": traj.wsi_id,
                            "reader": traj.reader_id,
                            "expertise": traj.expertise,
                            "x": s.x,
                            "y": s.y,
                            "mag": s.mag.factor,
                            "t_ms": s.t,
                        }
                    )
                    + "\n"
                )


def read_trajectories(path) -> list[RawTrajectory]:
    """Parse sample records, grouping consecutive rows by (wsi, reader)."""
    groups: list[RawTrajectory] = []
    key = None
    samples: list[ViewportSample] = []
    meta_fields: tuple[str, str, str] | None = None

    def flush():
        nonlocal samples
        if samples and meta_fields:
            groups.append(RawTrajectory(*meta_fields, samples))
        samples = []

    for lineno, rec in _records(path):
        try:
            mag = MagLevel.from_factor(int(rec["mag"]))
            sample = ViewportSample(
                float(rec["x"]), float(rec["y"]), mag, float(rec["t_ms"])
            )
            rec_key = (rec["wsi"], rec["reader"])
            fields = (rec["wsi"], rec["reader"], rec.get("expertise", "general"))
        except (KeyError, ValueError, TypeError, InvalidInputError) as e:
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
        if rec_key != key:
            flush()
            key = rec_key
            meta_fields = fields
        samples.append(sample)
    flush()
    return groups


def write_scanpaths(path, scanpaths: list[Scanpath], config: dict | None = None,
                    generator: dict | None = None):
    with open(path, "w") as fh:
        fh.write(json.dumps(_meta_record(config)) + "\n")
        for sp in scanpaths:
            rec = {
                "wsi": sp.wsi_id,
                "reader": sp.reader_id,
                "fixations": [
                    {"x": f.x, "y": f.y, "mag": f.mag.factor, "dur_ms": f.dur}
                    for f in sp.fixations
                ],
            }
            if generator:
                rec["generator"] = generator
            fh.write(json.dumps(rec) + "\n")


def read_scanpaths(path) -> list[Scanpath]:
    out: list[Scanpath] = []
    for lineno, rec in _records(path):
        try:
            fixations = [
                Fixation(
                    float(f["x"]), float(f["y"]),
                    MagLevel.from_factor(int(f["mag"])), float(f["dur_ms"])
                )
                for f in rec["fixations"]
            ]
            out.append(Scanpath(rec["wsi"], rec["reader"], fixations))
        except (KeyError, ValueError, TypeError, InvalidInputError) as e:
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
    return out


def save_grade_map(base_path, gm: GradeMap):
    """Text grid plus JSON sidecar {cell_size}."""
    base = Path(base_path)
    base.with_suffix(".grid").write_text(gm.to_text() + "\n")
    base.with_suffix(".json").write_text(json.dumps({"cell_size": gm.cell_size}))


def load_grade_map(base_path) -> GradeMap:
    """``save_grade_map``'s pair; a file missing or malformed raises FormatError."""
    base = Path(base_path)
    try:
        cell_size = float(json.loads(base.with_suffix(".json").read_text())["cell_size"])
        return GradeMap.from_text(base.with_suffix(".grid").read_text(), cell_size)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{base}: missing or malformed grade map: {e!r}") from None


def parse_config(path) -> dict:
    """Flat key = value config; values are parsed as int/float/bool/str."""
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip()] = _parse_value(value.strip())
    return out


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip("\"'")


# the value types a config field of each annotation takes; a bool is no int
_ADMITS = {int: (int,), float: (int, float), float | None: (int, float)}


def build_config(cls, cfg: dict, **fixed):
    """Config dataclass ``cls`` with the ``fixed`` fields as given and each
    other field from ``parse_config``'s dict ``cfg`` or else its default;
    other keys are ignored. A value of a type that ``_ADMITS`` does not
    list for its field or beyond float range (nan, inf, 10**400), or a
    ``cfg`` that is no dict, raises InvalidConfigError; ``cls`` checks ranges."""
    if not isinstance(cfg, dict):
        raise InvalidConfigError(f"a config must be an object of keys, got {cfg!r}")
    hints = typing.get_type_hints(cls)
    for key in [k for k in hints if k in cfg and k not in fixed]:
        if type(cfg[key]) not in _ADMITS[hints[key]]:
            raise InvalidConfigError(f"config key {key} must be " + " or ".join(
                t.__name__ for t in _ADMITS[hints[key]]) + f", got {cfg[key]!r}")
        if not abs(cfg[key]) <= sys.float_info.max:  # nan, inf, or an int no float holds
            raise InvalidConfigError(f"config key {key} must be finite, got {cfg[key]!r}")
        fixed[key] = cfg[key]
    return cls(**fixed)


def write_sidecar(ckpt, config, stage1=None):
    """``<ckpt>.json``: the tool version and every field of the model's
    ``config`` dataclass, and of the ``stage1`` config of a stage-2 model
    that carries its stage-1 models."""
    rec = {"version": VERSION, "config": dataclasses.asdict(config)}
    if stage1 is not None:
        rec["stage1"] = dataclasses.asdict(stage1)
    Path(str(ckpt) + ".json").write_text(json.dumps(rec))


def read_sidecar(ckpt, cls, stage1_cls=None) -> tuple:
    """``<ckpt>.json``'s config as ``build_config`` makes a ``cls`` of it,
    and its ``stage1`` entry as a ``stage1_cls``, or None when there is no
    entry or no ``stage1_cls``. A value ``build_config`` rejects raises
    InvalidConfigError naming the sidecar."""
    sidecar = Path(str(ckpt) + ".json")
    try:
        rec = json.loads(sidecar.read_text())
        stage1 = rec.get("stage1") if stage1_cls else None
        return (build_config(cls, rec["config"]),
                None if stage1 is None else build_config(stage1_cls, stage1))
    except InvalidConfigError as e:
        raise InvalidConfigError(f"{sidecar}: {e}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"{sidecar}: malformed sidecar: {e!r}") from None


def write_manifest(path, files: list[str], config: dict):
    root = Path(path).parent
    entries = [{"file": str(Path(f).relative_to(root)),
                "sha256": hashlib.sha256(Path(f).read_bytes()).hexdigest()}
               for f in sorted(files)]
    Path(path).write_text(
        json.dumps({"version": VERSION, "config": config, "files": entries}, indent=2))
