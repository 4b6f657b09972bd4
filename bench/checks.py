"""Output checks for the benchmark, written apart from the program.

Everything here reads the program's files with the standard library and
tests properties of the method (subsequences, band law, value ranges)
or counts derived from the inputs. Nothing imports ``pathscan``, so a
fault in the program cannot hide behind the same fault in its check.
Each check raises ``CheckError`` with a message naming what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MAG_FACTORS = (1, 2, 4, 10, 20, 40)
BACKGROUND = "."
# stage-1 levels trained by default (2X, 4X, 10X, 20X)
STAGE1_FACTORS = (2, 4, 10, 20)
# the synthetic provider's grid side: base_grid * factor, capped at 32
MAX_GRID_SIDE = 32


class CheckError(Exception):
    """A program output violates a property the benchmark checks."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def check_count(got: int, want: int, what: str):
    _require(got == want, f"{what}: {got}, expected {want}")


def level(factor: int) -> int:
    return MAG_FACTORS.index(int(factor))


def grid_side(base_grid: int, factor: int) -> int:
    return min(base_grid * factor, MAX_GRID_SIDE)


# ------------------------------------------------------------------ readers


def _records(path):
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if "_meta" not in rec:
                    yield rec


def read_scanpaths(path) -> list[dict]:
    """[{wsi, reader, fix: [(x, y, factor), ...]}] in file order."""
    return [
        {"wsi": r["wsi"], "reader": r["reader"],
         "fix": [(f["x"], f["y"], f["mag"]) for f in r["fixations"]]}
        for r in _records(path)
    ]


def read_trajectories(path) -> dict[tuple[str, str], list[tuple]]:
    """(wsi, reader) -> [(x, y, factor), ...] samples in file order."""
    out: dict[tuple[str, str], list[tuple]] = {}
    for r in _records(path):
        out.setdefault((r["wsi"], r["reader"]), []).append((r["x"], r["y"], r["mag"]))
    return out


def read_grades(corpus: Path, wsi: str) -> tuple[list[str], float]:
    """Rows of grade characters and the cell size of one WSI's grade map."""
    rows = [ln for ln in (corpus / f"{wsi}.grid").read_text().splitlines() if ln]
    cell = float(json.loads((corpus / f"{wsi}.json").read_text())["cell_size"])
    return rows, cell


def wsi_size(grades: tuple[list[str], float]) -> tuple[float, float]:
    rows, cell = grades
    return len(rows[0]) * cell, len(rows) * cell


def read_report(path) -> list[list[str]]:
    """CSV rows after the version comment line; the first row is the header."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def read_loss_csv(path) -> list[list[float]]:
    rows = read_report(path)
    return [[float(v) for v in row] for row in rows[1:]]


# ------------------------------------------------------------ simplification


def check_simplification(trajectories: dict, scanpaths: list[dict]):
    """Each scanpath is a subsequence of its trajectory's (x, y, mag)
    samples and keeps both samples at every magnification switch."""
    _require(len(scanpaths) == len(trajectories),
             f"{len(scanpaths)} scanpaths for {len(trajectories)} trajectories")
    for sp in scanpaths:
        key = (sp["wsi"], sp["reader"])
        _require(key in trajectories, f"scanpath {key} has no trajectory")
        samples = trajectories[key]
        it = iter(samples)
        for f in sp["fix"]:
            _require(any(s == f for s in it),
                     f"scanpath {key}: fixation {f} is not a later trajectory sample")
        kept = set(sp["fix"])
        for prev, cur in zip(samples, samples[1:]):
            if prev[2] != cur[2]:
                _require(prev in kept and cur in kept,
                         f"scanpath {key}: dropped the magnification switch "
                         f"{prev[2]}X -> {cur[2]}X at {cur[:2]}")


# ------------------------------------------------------------------ training


def check_losses(rows: list[list[float]], loss_col: int, must_decrease: bool,
                 what: str):
    """All losses finite; optionally the last epoch below the first."""
    _require(bool(rows), f"{what}: empty loss log")
    for row in rows:
        _require(all(math.isfinite(v) for v in row), f"{what}: non-finite loss {row}")
    if must_decrease:
        first, last = rows[0][loss_col], rows[-1][loss_col]
        _require(last < first,
                 f"{what}: last-epoch loss {last:.6f} is not below the first {first:.6f}")


def _linear(name: str, din: int, dout: int) -> dict:
    return {f"{name}.W": (din, dout), f"{name}.b": (dout,)}


def _block(prefix: str, attn: str, c: int) -> dict:
    shapes = {}
    for part in ("q", "k", "v", "o"):
        shapes.update(_linear(f"{prefix}.{attn}.{part}", c, c))
    shapes.update(_linear(f"{prefix}.ffn.fc1", c, 4 * c))
    shapes.update(_linear(f"{prefix}.ffn.fc2", 4 * c, c))
    return shapes


def stage2_shapes(cfg: dict, wsi_tokens: int) -> dict:
    """Parameter shapes implied by a stage-2 sidecar config.

    ``None`` marks a size the config does not fix (the temporal table's
    length is a program constant).
    """
    d, c = int(cfg["dim"]), int(cfg["model_dim"])
    shapes = _linear("inproj", d, c)
    shapes.update({"pos2x": (wsi_tokens, c), "scale_emb": (2, c),
                   "temporal_emb": (None, c), "mag_emb": (6, c), "query": (1, c)})
    for layer in range(int(cfg["enc_layers"])):
        shapes.update(_block(f"mem{layer}", "attn", c))
    for layer in range(int(cfg["dec_layers"])):
        shapes.update(_block(f"dec{layer}", "xattn", c))
    shapes.update(_linear("mlph.fc1", c, 2 * c))
    shapes.update(_linear("mlph.fc2", 2 * c, 2 * c))
    shapes.update(_linear("mlph.fc3", 2 * c, d))
    shapes.update(_linear("maghead", 6, 6))
    return shapes


def stage1_shapes(dim: int, layers: int, tokens_by_level: dict[int, int]) -> dict:
    """Parameter shapes of the per-level stage-1 models, prefixed m<level>."""
    shapes = {}
    for lvl, tokens in tokens_by_level.items():
        one = {"pos": (tokens, dim), **_linear("decode", dim, 1)}
        for layer in range(layers):
            one.update(_block(f"enc{layer}", "attn", dim))
        shapes.update({f"m{lvl}.{k}": v for k, v in one.items()})
    return shapes


def check_shapes(actual: dict[str, tuple], expected: dict[str, tuple], what: str):
    _require(set(actual) == set(expected),
             f"{what}: tensors {sorted(set(actual) ^ set(expected))} "
             "differ from those the config implies")
    for name, want in expected.items():
        got = tuple(actual[name])
        ok = len(got) == len(want) and all(w is None or w == g for g, w in zip(got, want))
        _require(ok, f"{what}: {name} has shape {got}, config implies {want}")


# ------------------------------------------------------------------ rollouts


def allowed_moves(train_scanpaths: list[dict]) -> dict[int, set[int]]:
    """Levels each level moved to in training; a level never left has no
    entry, and the program's prior then allows its whole band."""
    moves: dict[int, set[int]] = {}
    for sp in train_scanpaths:
        lv = [level(f[2]) for f in sp["fix"]]
        for a, b in zip(lv, lv[1:]):
            moves.setdefault(a, set()).add(b)
    return moves


def check_rollout(fix: list[tuple], n: int, width: float, height: float,
                  moves: dict[int, set[int]] | None = None):
    """Exact length, centred 1X start, |dlevel| <= 1, inside the WSI, and
    (for priormag) only moves the transition prior gives weight."""
    _require(len(fix) == n, f"rollout wrote {len(fix)} fixations, asked for {n}")
    x0, y0, m0 = fix[0]
    _require(math.isclose(x0, width / 2) and math.isclose(y0, height / 2)
             and m0 == 1, f"rollout starts at {fix[0]}, not the 1X centre")
    for i, (x, y, m) in enumerate(fix):
        _require(0 <= x < width and 0 <= y < height,
                 f"fixation {i} at ({x}, {y}) lies outside the {width}x{height} WSI")
    for i, (a, b) in enumerate(zip(fix, fix[1:]), start=1):
        la, lb = level(a[2]), level(b[2])
        _require(abs(lb - la) <= 1,
                 f"fixation {i} jumps {a[2]}X -> {b[2]}X, more than one level")
        if moves is not None and la in moves:
            _require(lb in moves[la],
                     f"fixation {i} moves {a[2]}X -> {b[2]}X, "
                     "a transition with zero prior probability")


# ---------------------------------------------------------------- evaluation


def next_events(gt: list[dict], wsis: set[str]) -> list[tuple[int, int]]:
    """(current level, next level) for every prefix eval-next scores."""
    out = []
    for sp in gt:
        if sp["wsi"] in wsis and len(sp["fix"]) >= 2:
            lv = [level(f[2]) for f in sp["fix"]]
            out.extend(zip(lv, lv[1:]))
    return out


def check_next_report(rows: list[list[str]], events: list[tuple[int, int]]):
    """Rows match the levels present in the ground truth; values in range."""
    _require(rows and rows[0] == ["metric", "value"], "eval-next: bad header")
    got = {name: float(v) for name, v in rows[1:]}
    _require(len(got) == len(rows) - 1, "eval-next: duplicate metric rows")
    cur = {a for a, _ in events}
    changed = {a for a, b in events if a != b}
    want = {"spatial_error_mean", "spatial_mse", "tok_sim_fix_mean",
            "mag_accuracy_overall", "mag_change_accuracy_overall"}
    want |= {f"mag_accuracy_{MAG_FACTORS[a]}X" for a in cur}
    want |= {f"mag_change_accuracy_{MAG_FACTORS[a]}X" for a in changed}
    _require(set(got) == want,
             f"eval-next: rows {sorted(set(got) ^ want)} do not match the "
             "magnification levels in the ground truth")
    bounds = {"spatial_error_mean": (0.0, math.sqrt(2.0)),
              "spatial_mse": (0.0, 2.0), "tok_sim_fix_mean": (-1.0, 1.0)}
    for name, v in got.items():
        lo, hi = bounds.get(name, (0.0, 100.0))
        if name == "mag_change_accuracy_overall" and not changed:
            _require(math.isnan(v), "eval-next: change accuracy without change events")
            continue
        _require(lo <= v <= hi, f"eval-next: {name} = {v} outside [{lo}, {hi}]")


def grade_string(fix: list[tuple], grades: tuple[list[str], float]) -> str:
    """Grade characters under each fixation, Background dropped."""
    rows, cell = grades
    out = []
    for x, y, _ in fix:
        r = min(int(y // cell), len(rows) - 1)
        c = min(int(x // cell), len(rows[0]) - 1)
        if rows[r][c] != BACKGROUND:
            out.append(rows[r][c])
    return "".join(out)


def alignment_cells(preds: list[dict], gt: list[dict], grades: dict) -> int:
    """Sum of n*m over the grade-string pairs that SSS aligns."""
    cells = 0
    for p in preds:
        a = grade_string(p["fix"], grades[p["wsi"]])
        if not a:
            continue
        for g in gt:
            if g["wsi"] == p["wsi"]:
                cells += len(a) * len(grade_string(g["fix"], grades[g["wsi"]]))
    return cells


def scored_pairs(preds: list[dict], gt: list[dict]) -> int:
    """(predicted, ground-truth) scanpath pairs sharing a WSI."""
    return sum(1 for p in preds for g in gt if g["wsi"] == p["wsi"])


def check_scan_report(rows: list[list[str]], preds: list[dict], gt: list[dict],
                      grades: dict):
    """One row per predicted scanpath whose WSI has ground truth, in order;
    values in range; SSS absent only when no grade string exists."""
    _require(rows and rows[0] == ["wsi", "nss", "auc", "tok_sim_scan", "sss"],
             "eval-scanpath: bad header")
    gt_wsis = {g["wsi"] for g in gt}
    want = [p for p in preds if p["wsi"] in gt_wsis and p["wsi"] in grades]
    body = rows[1:]
    _require(len(body) == len(want),
             f"eval-scanpath: {len(body)} rows for {len(want)} scorable predictions")
    for row, p in zip(body, want):
        wsi, nss, auc, tok, sss = row
        _require(wsi == p["wsi"], f"eval-scanpath: row for {wsi}, expected {p['wsi']}")
        _require(math.isfinite(float(nss)), f"eval-scanpath: NSS {nss} not finite")
        _require(0.0 <= float(auc) <= 1.0, f"eval-scanpath: AUC {auc} outside [0, 1]")
        _require(-1.0 <= float(tok) <= 1.0,
                 f"eval-scanpath: TokSimScan {tok} outside [-1, 1]")
        a = grade_string(p["fix"], grades[wsi])
        has_b = any(grade_string(g["fix"], grades[wsi]) for g in gt if g["wsi"] == wsi)
        if sss == "absent":
            _require(not (a and has_b), "eval-scanpath: SSS absent for tissue scanpaths")
        else:
            _require(0.0 <= float(sss) <= 1.0, f"eval-scanpath: SSS {sss} outside [0, 1]")


def check_beats_random(rows: list[list[str]], is_model: list[bool]):
    """Model rollouts beat uniform-random scanpaths on mean NSS and on
    mean AUC-Judd."""
    body = rows[1:]
    _require(len(body) == len(is_model), "eval-scanpath: row count mismatch")
    for col, name in ((1, "NSS"), (2, "AUC-Judd")):
        model = [float(r[col]) for r, m in zip(body, is_model) if m]
        rand = [float(r[col]) for r, m in zip(body, is_model) if not m]
        mm, mr = sum(model) / len(model), sum(rand) / len(rand)
        _require(mm > mr, f"held-out {name}: rollouts {mm:.4f} do not beat "
                          f"uniform-random scanpaths {mr:.4f}")
