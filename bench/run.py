"""Seeded end-to-end and per-layer benchmark of the pathscan pipeline.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 bench/run.py --workload short-reads --seed 1 --seconds 10 --trace 0

One run repeats whole rounds until ``--seconds`` have passed (at least
one round). A round sets up a seeded synthetic corpus with ``pathscan
gen`` (several identical set-ups spread over the round;
``setup_s`` is their summed seconds per set-up), runs the timed
stages, in order, in this process through
``pathscan.cli.main``: train-heatmap, train-scanpath, rollouts (direct
``inference.rollout`` calls, one seed at a time, with the repeated
eval-next calls spread between them), eval-next and eval-scanpath;
repeated eval-scanpath calls on the uniform-random baselines alone sit
in gaps between the stages. Every exit code and every output is checked
(see ``checks.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``). See README.md for the
workloads, the metrics and reference figures.
"""

from __future__ import annotations

import env  # noqa: F401  (must precede numpy: pins BLAS threads)

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import numpy as np
import pathscan
import tracing
from pathscan import autodiff as ad
from pathscan import baselines, cli, inference, pat_s
from pathscan import io as pio
from pathscan.trajectory import Fixation, MagLevel, Scanpath

FEATURE_DIM = 16
BASE_GRID = 8
MODEL_DIM = 16
HEADS = 2
S1_LAYERS = 1
LR = 0.003
MODES = ("probmag", "priormag")
# a round sets up SETUPS times, each into a cleared directory; setup_s is
# their summed time per set-up. All set-ups but the first open one of the
# round's GAPS gaps.
SETUPS = 6
GAPS = SETUPS - 1

# Kept fault: CLI-default `predict --n 150` on a fixed corpus and model
# (independent of --seed). The default IOR radius is half a viewport and
# never decays, so these rollouts run out of heatmap and stop short while
# predict still exits 0. The seeds are ones whose rollout stops short.
FAULT_GEN = ("--seed", 7, "--wsis", 1, "--readers", 1, "--samples", 60)
FAULT_TRAIN_CFG = "epochs = 1\nseed = 0\nmodel_dim = 16\nheads = 2\n"
FAULT_N = 150
FAULT_ATTEMPTS = (("probmag", 2), ("probmag", 3), ("priormag", 2), ("priormag", 8))

PIPELINE = ("train-heatmap", "train-scanpath", "rollouts", "eval-next", "eval-scanpath")
# tracer stage of the eval-scanpath calls that score the baselines alone
BASELINE_SCAN = "eval-scanpath-baselines"


@dataclass(frozen=True)
class Workload:
    wsis: int
    readers: int
    samples: int  # viewport samples per simulated trajectory
    grid: int  # grade-map cells per side
    train_wsis: int  # the first train_wsis WSIs train, the rest are held out
    train_readers: int  # scanpaths per training WSI that train (in file order)
    s1_epochs: int
    s2_epochs: int
    rollout_n: int
    rollout_seeds: tuple[int, ...]  # per held-out WSI and mode
    random_baselines: int  # uniform-random scanpaths per held-out WSI
    next_repeats: int  # identical eval-next calls per round, spread between seeds
    scan_repeats: int  # baseline-only eval-scanpath calls per round, over the gaps
    kept_fault: bool = False
    loss_must_fall: bool = False
    beats_random: bool = False


WORKLOADS = {
    # training-heavy: ~50-fixation scanpaths, memories of 256 + <50 tokens
    "short-reads": Workload(
        wsis=10, readers=2, samples=60, grid=24, train_wsis=8, train_readers=2,
        s1_epochs=2, s2_epochs=4, rollout_n=40, rollout_seeds=(0, 1, 2, 3, 4),
        random_baselines=40, next_repeats=3, scan_repeats=5,
        loss_must_fall=True, beats_random=True,
    ),
    # inference-heavy: 221-256-fixation scanpaths, memories up to ~500 tokens
    "long-reads": Workload(
        wsis=2, readers=2, samples=400, grid=32, train_wsis=1, train_readers=1,
        s1_epochs=8, s2_epochs=1, rollout_n=150, rollout_seeds=(0,),
        random_baselines=14, next_repeats=1, scan_repeats=2, kept_fault=True,
    ),
}


def wsi_id(i: int) -> str:
    return f"wsi_{i:03d}"


def scanpath_objects(records: list[dict]) -> list[Scanpath]:
    """The program's scanpaths for the benchmark's {wsi, reader, fix} records."""
    return [Scanpath(r["wsi"], r["reader"],
                     [Fixation(x, y, MagLevel.from_factor(m), 0.0) for x, y, m in r["fix"]])
            for r in records]


def share(calls: int, slots: int) -> list[int]:
    """``calls`` spread as evenly as whole numbers allow over ``slots``."""
    return [calls * (i + 1) // slots - calls * i // slots for i in range(slots)]


class Bench:
    """One run: whole rounds of set-up, timed stages and checks."""

    def __init__(self, w: Workload, seed: int, work: Path, tracer=None):
        self.w, self.seed, self.work, self.tracer = w, seed, work, tracer
        self.train_ids = [wsi_id(i) for i in range(w.train_wsis)]
        self.held_ids = [wsi_id(i) for i in range(w.train_wsis, w.wsis)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_secs = 0.0  # summed over every set-up
        self.setups = 0
        self.rounds: list[dict] = []
        self.expected: dict = {}
        self.s2_shapes: dict = {}
        self.final_losses: list = []

    # ------------------------------------------------------------ plumbing

    def stage(self, name: str):
        if self.tracer is not None:
            self.tracer.stage = name

    def main(self, *argv) -> int:
        self.attempted += 1
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([str(a) for a in argv])

    def cli(self, *argv):
        rc = self.main(*argv)
        if rc != 0:
            raise RuntimeError(f"pathscan {argv[0]} exited with code {rc}")

    def timed(self, stage: str, repeats: int, fn, *args) -> float:
        """Seconds of ``repeats`` identical calls of one stage, in one span."""
        self.stage(stage)
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        return time.perf_counter() - t0

    def check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckError as e:
            self.problems.append(str(e))

    # ------------------------------------------------------------ set-up

    def setup(self, rd: Path):
        """Generate the corpus and write the split and the configs into
        the fresh directory ``rd``."""
        w = self.w
        rd.mkdir(parents=True)
        (rd / "gen.cfg").write_text(
            f"feature_dim = {FEATURE_DIM}\nbase_grid = {BASE_GRID}\n")
        corpus, train = rd / "corpus", rd / "train"
        self.cli("gen", "--seed", self.seed, "--wsis", w.wsis, "--readers", w.readers,
                 "--samples", w.samples, "--grid", w.grid, "--config", rd / "gen.cfg",
                 "--out", corpus)
        # training corpus: every grade map, the first train_readers scanpaths
        # of each training WSI
        train.mkdir()
        for f in corpus.iterdir():
            if f.suffix in (".grid", ".json"):
                shutil.copyfile(f, train / f.name)
        lines = (corpus / "scanpaths.jsonl").read_text().splitlines(keepends=True)
        meta, recs = lines[0], [(json.loads(ln)["wsi"], ln) for ln in lines[1:]]
        taken = dict.fromkeys(self.train_ids, 0)
        kept = []
        for wsi, ln in recs:
            if wsi in taken and taken[wsi] < w.train_readers:
                taken[wsi] += 1
                kept.append(ln)
        (train / "scanpaths.jsonl").write_text(meta + "".join(kept))
        (rd / "heldout.jsonl").write_text(
            meta + "".join(ln for wsi, ln in recs if wsi in self.held_ids))
        common = f"seed = {self.seed}\nheads = {HEADS}\nlr = {LR}\n"
        (rd / "s1.cfg").write_text(
            f"epochs = {w.s1_epochs}\nlayers = {S1_LAYERS}\n" + common)
        (rd / "s2.cfg").write_text(
            f"epochs = {w.s2_epochs}\nmodel_dim = {MODEL_DIM}\n" + common)

    def timed_setup(self, rd: Path):
        """One set-up into a cleared ``rd``; the round spreads its SETUPS
        set-ups over its length so that setup_s samples the whole run."""
        self.stage("setup")
        shutil.rmtree(rd, ignore_errors=True)
        t0 = time.perf_counter()
        self.setup(rd)
        self.setup_secs += time.perf_counter() - t0
        self.setups += 1

    def read_inputs(self, rd: Path) -> dict:
        """The benchmark's own view of the corpus and the counts it implies."""
        w = self.w
        corpus = rd / "corpus"
        sps = checks.read_scanpaths(corpus / "scanpaths.jsonl")
        self.check(checks.check_simplification,
                   checks.read_trajectories(corpus / "trajectories.jsonl"), sps)
        train = checks.read_scanpaths(rd / "train" / "scanpaths.jsonl")
        held = [sp for sp in sps if sp["wsi"] in self.held_ids]
        grades = {wsi_id(i): checks.read_grades(corpus, wsi_id(i)) for i in range(w.wsis)}
        s1_levels = [f for f in checks.STAGE1_FACTORS
                     for wsi in self.train_ids
                     if any(fx[2] == f for sp in train if sp["wsi"] == wsi
                            for fx in sp["fix"])]
        rng = np.random.default_rng([self.seed, 2])
        randoms = []
        for wsi in self.held_ids:
            width, height = checks.wsi_size(grades[wsi])
            for k in range(w.random_baselines):
                fix = [(float(rng.uniform(0, width)), float(rng.uniform(0, height)),
                        int(rng.choice(checks.MAG_FACTORS))) for _ in range(w.rollout_n)]
                randoms.append({"wsi": wsi, "reader": f"random-{k}", "fix": fix})
        # the baselines alone, scored by the eval-scanpath calls spread over the
        # round (they need no model)
        meta = json.loads((corpus / "scanpaths.jsonl").read_text().split("\n", 1)[0])
        pio.write_scanpaths(rd / "randoms.jsonl", scanpath_objects(randoms),
                            config=meta["_meta"]["config"])
        return {
            "train": train, "held": held, "grades": grades, "randoms": randoms,
            "s1_steps": w.s1_epochs * len(s1_levels),
            "s1_tokens": {checks.level(f): checks.grid_side(BASE_GRID, f) ** 2
                          for f in sorted(set(s1_levels))},
            "s2_examples": w.s2_epochs * sum(len(sp["fix"]) - 1 for sp in train
                                             if len(sp["fix"]) >= 2),
            "events": checks.next_events(held, set(grades)),
        }

    # ------------------------------------------------------------ stages

    def rollouts(self, rd: Path, inp: dict, secs: list[float], between):
        """Roll out every held-out WSI in both modes, one seed at a time,
        appending each rollout's seconds to ``secs`` and calling
        ``between(i)`` after the i-th seed; write the predictions (rollouts,
        then the uniform-random baselines) for eval-scanpath."""
        w = self.w
        maps, scanpaths, provider, corpus_cfg = cli.load_corpus(str(rd / "train"))
        sidecar = json.loads((rd / "s.psck.json").read_text())["config"]
        config = pat_s.ScanpathModelConfig(**{k: int(sidecar[k]) for k in (
            "dim", "model_dim", "enc_layers", "dec_layers", "heads")})
        params = {k: ad.Tensor(v) for k, v in ad.load_checkpoint(rd / "s.psck").items()}
        tm, _ = baselines.estimate_transition_matrix(scanpaths)
        grids = {wsi: (provider.get(wsi, MagLevel(1)), provider.get(wsi, MagLevel(3)))
                 for wsi in self.held_ids}
        out = {}
        for i, s in enumerate(w.rollout_seeds):
            self.stage("rollouts")
            for wsi in self.held_ids:
                f2x, f10x = grids[wsi]
                for mode in MODES:
                    self.attempted += 1
                    t0 = time.perf_counter()
                    res = inference.rollout(params, config, f2x, f10x, w.rollout_n,
                                            mode=mode, seed=s, transition_matrix=tm,
                                            ior_radius_px=f10x.patch_px)
                    secs.append(time.perf_counter() - t0)
                    out[wsi, mode, s] = res.scanpath.fixations
            between(i)
        self.stage("rollouts")
        preds = [Scanpath(wsi, f"pat-{mode}-{s}", out[wsi, mode, s])
                 for wsi in self.held_ids for mode in MODES for s in w.rollout_seeds]
        preds += scanpath_objects(inp["randoms"])
        pio.write_scanpaths(rd / "preds.jsonl", preds, config=corpus_cfg)
        self.s2_shapes = {k: v.shape for k, v in params.items()}

    def kept_fault(self, rd: Path) -> list[int]:
        """CLI-default predict attempts; each writing < FAULT_N counts failed."""
        fx = rd / "fixture"
        self.cli("gen", *FAULT_GEN, "--config", rd / "gen.cfg", "--out", fx, "--force")
        (rd / "fixture.cfg").write_text(FAULT_TRAIN_CFG)
        self.cli("train-scanpath", "--corpus", fx, "--config", rd / "fixture.cfg",
                 "--out", rd / "fixture.psck")
        written = []
        for mode, s in FAULT_ATTEMPTS:
            out = rd / f"fault-{mode}-{s}.jsonl"
            out.unlink(missing_ok=True)
            rc = self.main("predict", "--ckpt", rd / "fixture.psck", "--corpus", fx,
                           "--wsi", wsi_id(0), "--mode", mode, "--n", FAULT_N,
                           "--seed", s, "--out", out)
            n = len(checks.read_scanpaths(out)[0]["fix"]) if rc == 0 and out.exists() else 0
            self.failed += n < FAULT_N
            written.append(n)
        return written

    def round(self, r: int):
        """Set-up, the timed stages in order, the kept fault and the checks.

        A set-up and a share of the baseline-only eval-scanpath calls sit in
        each of GAPS gaps: after the first set-up, after each
        training stage, after the evaluations and at the end; the eval-next
        calls are spread between the rollout seeds.
        """
        w = self.w
        rd = self.work / f"round{r}"
        spare = self.work / "setup-repeat"
        self.timed_setup(rd)
        self.stage("check")
        inp = self.read_inputs(rd)
        corpus, held_gt = rd / "corpus", rd / "heldout.jsonl"
        scan_secs: list[float] = []
        next_secs: list[float] = []
        gaps = iter(share(w.scan_repeats, GAPS))

        def eval_scanpath(stage: str, preds: str, calls: int) -> float:
            return self.timed(stage, calls, self.cli, "eval-scanpath",
                              "--pred", rd / preds, "--gt", held_gt, "--corpus", corpus,
                              "--report", rd / preds.replace(".jsonl", ".csv"))

        def gap():
            self.timed_setup(spare)
            scan_secs.append(eval_scanpath(BASELINE_SCAN, "randoms.jsonl", next(gaps)))

        def eval_next(calls: int):
            next_secs.append(self.timed("eval-next", calls, self.cli, "eval-next",
                                        "--ckpt", rd / "s.psck", "--corpus", corpus,
                                        "--gt", held_gt, "--report", rd / "next.csv"))

        gap()
        t = {"train-heatmap": self.timed("train-heatmap", 1, self.cli, "train-heatmap",
                                         "--corpus", rd / "train", "--config",
                                         rd / "s1.cfg", "--out", rd / "h.psck")}
        gap()
        t["train-scanpath"] = self.timed("train-scanpath", 1, self.cli, "train-scanpath",
                                         "--corpus", rd / "train", "--config",
                                         rd / "s2.cfg", "--out", rd / "s.psck")
        gap()
        next_calls = share(w.next_repeats, len(w.rollout_seeds))
        roll_secs: list[float] = []
        span = self.timed("rollouts", 1, self.rollouts, rd, inp, roll_secs,
                          lambda i: eval_next(next_calls[i]))
        t["rollouts"] = span - sum(next_secs)
        t["eval-next"] = sum(next_secs)
        full_scan = eval_scanpath("eval-scanpath", "preds.jsonl", 1)
        gap()

        fault = []
        if w.kept_fault:
            self.stage("fault")
            fault = self.kept_fault(rd)
        gap()
        self.stage("check")
        self.check_round(rd, inp)

        preds = checks.read_scanpaths(rd / "preds.jsonl")
        held, grades = inp["held"], inp["grades"]
        units = {
            "s1_steps": inp["s1_steps"],
            "s2_examples": inp["s2_examples"],
            "rollout_fixations": len(roll_secs) * (w.rollout_n - 1),
            "next_events": len(inp["events"]),
            "pairs": checks.scored_pairs(preds, held),
            "baseline_pairs": checks.scored_pairs(inp["randoms"], held),
            "nw_cells": checks.alignment_cells(preds, held, grades),
            "baseline_nw_cells": checks.alignment_cells(inp["randoms"], held, grades),
        }
        self.expected = units
        # every eval-scanpath call counts: the pipeline's one on all the
        # predictions and the baseline-only ones spread over the round
        scanned = units["pairs"] + units["baseline_pairs"] * w.scan_repeats
        pairs_per_s = scanned / (full_scan + sum(scan_secs))
        t["eval-scanpath"] = units["pairs"] / pairs_per_s
        per_pass = {k: v / (w.next_repeats if k == "eval-next" else 1)
                    for k, v in t.items()}
        self.rounds.append({
            "pipeline_s": sum(per_pass.values()),
            "s1_train_steps_per_s": units["s1_steps"] / t["train-heatmap"],
            "s2_train_examples_per_s": units["s2_examples"] / t["train-scanpath"],
            "rollout_fixations_per_s": units["rollout_fixations"] / sum(roll_secs),
            "next_events_per_s": units["next_events"] * w.next_repeats / t["eval-next"],
            "eval_pairs_per_s": pairs_per_s,
            "stages_s": {**t, "eval-scanpath-calls": full_scan + sum(scan_secs)},
            "fault_written": fault,
        })
        shutil.rmtree(rd)

    def check_round(self, rd: Path, inp: dict):
        w = self.w
        s1_rows = checks.read_loss_csv(rd / "h.loss.csv")
        s2_rows = checks.read_loss_csv(rd / "s.loss.csv")
        self.check(checks.check_losses, s1_rows, 2, False, "train-heatmap")
        self.check(checks.check_losses, s2_rows, 3, w.loss_must_fall, "train-scanpath")
        self.final_losses = [s1_rows[-1][2], s2_rows[-1][3]]

        sidecar = json.loads((rd / "s.psck.json").read_text())["config"]
        wsi_tokens = checks.grid_side(BASE_GRID, 2) ** 2
        self.check(checks.check_shapes, self.s2_shapes,
                   checks.stage2_shapes(sidecar, wsi_tokens), "stage-2 checkpoint")
        s1_shapes = {k: v.shape for k, v in ad.load_checkpoint(rd / "h.psck").items()}
        self.check(checks.check_shapes, s1_shapes,
                   checks.stage1_shapes(FEATURE_DIM, S1_LAYERS, inp["s1_tokens"]),
                   "stage-1 checkpoint")

        preds = checks.read_scanpaths(rd / "preds.jsonl")
        moves = checks.allowed_moves(inp["train"])
        rolls = preds[:len(preds) - len(inp["randoms"])]
        self.check(checks.check_count, len(rolls),
                   len(self.held_ids) * len(MODES) * len(w.rollout_seeds), "rollouts")
        for sp in rolls:
            width, height = checks.wsi_size(inp["grades"][sp["wsi"]])
            prior = moves if sp["reader"].startswith("pat-priormag") else None
            self.check(checks.check_rollout, sp["fix"], w.rollout_n, width, height, prior)

        self.check(checks.check_next_report, checks.read_report(rd / "next.csv"),
                   inp["events"])
        self.check(checks.check_scan_report, checks.read_report(rd / "randoms.csv"),
                   inp["randoms"], inp["held"], inp["grades"])
        scan_rows = checks.read_report(rd / "preds.csv")
        self.check(checks.check_scan_report, scan_rows, preds, inp["held"],
                   inp["grades"])
        if w.beats_random:
            self.check(checks.check_beats_random, scan_rows,
                       [i < len(rolls) for i in range(len(preds))])

    # ------------------------------------------------------------ results

    def end_to_end(self) -> dict:
        med = {k: statistics.median(r[k] for r in self.rounds) for k in (
            "pipeline_s", "s1_train_steps_per_s", "s2_train_examples_per_s",
            "rollout_fixations_per_s", "next_events_per_s", "eval_pairs_per_s")}
        units = {"pipeline_s": "s", "s1_train_steps_per_s": "steps/s",
                 "s2_train_examples_per_s": "examples/s",
                 "rollout_fixations_per_s": "fixations/s",
                 "next_events_per_s": "events/s", "eval_pairs_per_s": "pairs/s"}
        out = {"setup_s": {"value": self.setup_secs / self.setups, "unit": "s"}}
        out.update({k: {"value": v, "unit": units[k]} for k, v in med.items()})
        out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tr, bench: Bench) -> dict:
    """Per-layer metrics from a traced run: per pipeline pass (one run of
    each stage, as pipeline_s counts them) unless named per unit."""
    rounds = len(bench.rounds)
    gens = bench.setups
    units = bench.expected
    repeats = {"eval-next": bench.w.next_repeats}
    pipe = PIPELINE
    s2, s1 = ("train-scanpath",), ("train-heatmap",)

    def per_pass(key, stages, field="secs"):
        return sum(tr.total(key, (s,), field) / repeats.get(s, 1)
                   for s in stages) / rounds

    def ms(key, stages):
        return 1000.0 * per_pass(key, stages)

    def calls(key, stages):
        return per_pass(key, stages, "calls")

    def per_call_ms(key):
        stages = {s for s, k in tr.calls if k == key}
        n = tr.total(key, stages, "calls")
        return 1000.0 * tr.total(key, stages) / n if n else 0.0

    def mean_extra(key, stages):
        n = tr.total(key, stages, "calls")
        return tr.total(key, stages, "extra") / n if n else 0.0

    s2_steps = calls("autodiff.adam_step", s2)
    s1_steps = calls("autodiff.adam_step", s1)
    fixations, events, pairs = (units["rollout_fixations"], units["next_events"],
                                units["pairs"])

    m = {
        "cli.load_corpus_ms": (ms("cli.load_corpus", pipe), "ms"),
        "cli.load_corpus_calls": (calls("cli.load_corpus", pipe), "count"),
        "synth.simulate_reader_ms": (ms("synth.simulate_reader", ("setup",)) * rounds
                                     / gens, "ms"),
        "trajectory.simplify_ms": (ms("trajectory.simplify", ("setup",)) * rounds
                                   / gens, "ms"),
        "trajectory.samples_in": (tr.total("trajectory.split", ("setup",), "extra")
                                  / gens, "count"),
        "trajectory.fixations_out": (tr.total("trajectory.simplify", ("setup",), "extra")
                                     / gens, "count"),
        "io.write_ms": (ms("io.write", ("setup",)) * rounds / gens, "ms"),
        "io.read_ms": (ms("io.read", pipe), "ms"),
        "features.get_calls": (calls("features.get", pipe), "count"),
        "features.get_ms": (ms("features.get", pipe), "ms"),
        "features.token_at_calls": (calls("features.token_at", pipe), "count"),
    }
    for op in tracing.AUTODIFF_OPS:
        key = f"autodiff.op.{op}"
        m[f"{key}.calls"] = (calls(key, pipe), "count")
        m[f"{key}.ms"] = (ms(key, pipe), "ms")
        m[f"{key}.backward_ms"] = (ms(key + ".backward", pipe), "ms")
    tensors = calls("autodiff.tensor", s2)
    checked = tr.total("autodiff.finite_check", s2, "calls")
    check_ms = 1000.0 * tr.total("autodiff.finite_check", s2) / checked if checked else 0.0
    m.update({
        "autodiff.tensors_per_s2_step": (tensors / s2_steps, "count"),
        "autodiff.finite_check_ms_per_s2_step": (check_ms * tensors / s2_steps, "ms"),
        "autodiff.save_checkpoint_ms": (per_call_ms("autodiff.save_checkpoint"), "ms"),
        "autodiff.load_checkpoint_ms": (per_call_ms("autodiff.load_checkpoint"), "ms"),
    })
    for layer in ("attention", "encoder_layer", "cross_layer"):
        m[f"nn.{layer}_ms_per_s2_step"] = (ms(f"nn.{layer}", s2) / s2_steps, "ms")
    for part, key in (("build_memory", "pat_s.build_memory"),
                      ("memory_encoder", "pat_s.memory_encoder"),
                      ("cross_attention", "pat_s.cross_attention"),
                      ("heads", "pat_s.heads"), ("loss", "pat_s.loss"),
                      ("backward", "autodiff.backward"), ("adam", "autodiff.adam_step"),
                      ("step", "step")):
        m[f"pat_s.{part}_ms"] = (ms(key, s2) / s2_steps, "ms")
    m["pat_s.memory_tokens_mean"] = (mean_extra("pat_s.build_memory", s2), "tokens")
    m["pat_s.forward_step_ms_per_event"] = (ms("pat_s.forward_step", ("eval-next",))
                                            / events, "ms")
    m["pat_s.train_steps"] = (s2_steps, "count")
    for part, key in (("encode", "pat_h.encode"), ("loss", "pat_h.loss"),
                      ("backward", "autodiff.backward"), ("adam", "autodiff.adam_step"),
                      ("step", "step")):
        m[f"pat_h.{part}_ms"] = (ms(key, s1) / s1_steps, "ms")
    m["pat_h.tokens_mean"] = (mean_extra("pat_h.encode", s1), "tokens")
    m["pat_h.train_steps"] = (s1_steps, "count")
    roll = ("rollouts",)
    m.update({
        "inference.forward_ms_per_fixation": (ms("pat_s.forward_step", roll) / fixations,
                                              "ms"),
        "inference.apply_ior_ms_per_fixation": (ms("inference.apply_ior", roll)
                                                / fixations, "ms"),
        "inference.ior_visited_mean": (mean_extra("inference.apply_ior", roll), "count"),
        "inference.select_ms_per_fixation": (ms("inference.select", roll) / fixations,
                                             "ms"),
    })
    scan, nxt = ("eval-scanpath",), ("eval-next",)
    # per pair over every eval-scanpath call, the baseline-only ones included
    scans = scan + (BASELINE_SCAN,)
    pairs = pairs + units["baseline_pairs"] * bench.w.scan_repeats
    m.update({
        "metrics.heatmap_nss_auc_ms_per_pair": (ms("metrics.heatmap_nss_auc", scans)
                                                / pairs, "ms"),
        "metrics.tok_sim_scan_ms_per_pair": (ms("metrics.tok_sim_scan", scans) / pairs,
                                             "ms"),
        "metrics.sss_ms_per_pair": (ms("metrics.sss", scans) / pairs, "ms"),
        "metrics.nw_cells": (per_pass("metrics.nw", scan, "extra"), "count"),
        "metrics.tok_sim_fix_ms_per_event": (ms("metrics.tok_sim_fix", nxt) / events,
                                             "ms"),
        "baselines.transition_matrix_ms": (per_call_ms("baselines.transition_matrix"),
                                           "ms"),
        "trace.pipeline_s": (statistics.median(r["pipeline_s"] for r in bench.rounds),
                             "s"),
    })
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def check_traced_counts(tr, bench: Bench):
    """Counts seen by the wrappers equal those the benchmark derives itself."""
    rounds = len(bench.rounds)
    e = bench.expected
    nxt, scan = bench.w.next_repeats, bench.w.scan_repeats
    seen = {
        "stage-2 steps": (tr.total("autodiff.adam_step", ("train-scanpath",), "calls"),
                          e["s2_examples"]),
        "stage-1 steps": (tr.total("autodiff.adam_step", ("train-heatmap",), "calls"),
                          e["s1_steps"]),
        "rollout forward steps": (tr.total("pat_s.forward_step", ("rollouts",), "calls"),
                                  e["rollout_fixations"]),
        "eval-next forward steps": (tr.total("pat_s.forward_step", ("eval-next",),
                                             "calls"), e["next_events"] * nxt),
        "alignment cells": (tr.total("metrics.nw", ("eval-scanpath",), "extra"),
                            e["nw_cells"]),
        "baseline alignment cells": (tr.total("metrics.nw", (BASELINE_SCAN,), "extra"),
                                     e["baseline_nw_cells"] * scan),
    }
    for what, (got, want) in seen.items():
        if got != want * rounds:
            bench.problems.append(f"traced {what}: {got} over {rounds} rounds, "
                                  f"inputs imply {want} per round")


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Bench:
    """Whole rounds until ``seconds`` have passed; ``work`` is removed after."""
    bench = Bench(w, seed, work, tracing.Tracer() if trace else None)
    if bench.tracer is not None:
        bench.tracer.install()
    try:
        t_start = time.perf_counter()
        while not bench.rounds or time.perf_counter() - t_start < seconds:
            bench.round(len(bench.rounds))
    finally:
        if bench.tracer is not None:
            bench.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if bench.tracer is not None:
        check_traced_counts(bench.tracer, bench)
    return bench


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_root: Path = env.WORK) -> dict:
    """One benchmark run; returns the result object the command prints."""
    bench = measure(WORKLOADS[workload], seed, seconds, trace,
                    work_root / f"{workload}-s{seed}-{os.getpid()}")
    if bench.tracer is not None:
        metrics = per_layer(bench.tracer, bench)
        (work_root / f"trace-{workload}-s{seed}.json").write_text(json.dumps(
            {"per_layer": metrics, "spans": bench.tracer.dump()}, indent=1))
    else:
        metrics = bench.end_to_end()
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "rounds": len(bench.rounds),
                      "env": env.environment(), "final_losses": bench.final_losses,
                      "stages_s": [r["stages_s"] for r in bench.rounds],
                      "fault_written": bench.rounds[0]["fault_written"]}),
          file=sys.stderr)
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if Path(pathscan.__file__).resolve().parent != env.SRC / "pathscan":
        print(f"error: imported pathscan from {pathscan.__file__}, not {env.SRC}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
