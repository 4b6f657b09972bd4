"""Regenerate the reference figures in README.md.

    python3 bench/reference.py --seeds 1-10 --sets 2 --trace-seed 1

Runs the benchmark command from BENCHMARK.json once per seed and
workload, one run at a time, then one traced run per workload, and
repeats that for each set on the same seeds, so that the sets differ
only by the machine's noise. Prints markdown tables: per workload and
metric each set's median, first and third quartile and their spread as
a share of the median, and the change of the median from the first
set; the final losses of each seed, which must be the same in every
run; then the per-layer table of the first set's traced run with the
tracing overhead. ``--workloads`` limits the runs to some workloads. Raw
results go to bench/_work/reference-<workloads>-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    detail = next(json.loads(ln) for ln in reversed(proc.stderr.splitlines())
                  if ln.startswith('{"workload"'))
    result["final_losses"] = detail["final_losses"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--trace-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated names (default: all)")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workloads:
        names = args.workloads.split(",")
        spec["workloads"] = [w for w in spec["workloads"] if w["name"] in names]
    seeds = seed_range(args.seeds)
    sets = []
    for k in range(args.sets):
        results = {}
        for w in spec["workloads"]:
            name = w["name"]
            results[name] = [run_once(spec, name, s, 0) for s in seeds]
            results[name + ":trace"] = run_once(spec, name, args.trace_seed, 1)
            print(f"set {k + 1}, {name}: done", file=sys.stderr)
        sets.append(results)
    WORK.mkdir(exist_ok=True)
    tag = "-".join(w["name"] for w in spec["workloads"])
    (WORK / f"reference-{tag}-{seeds[0]}-{seeds[-1]}.json").write_text(json.dumps(sets))
    report(spec, sets, seeds, args.trace_seed)


def report(spec: dict, sets: list[dict], seeds: list[int], trace_seed: int):
    """Markdown tables of run sets on the same seeds (as main() stores them)."""
    names = [w["name"] for w in spec["workloads"]]
    print(f"{len(sets)} sets, seeds {seeds[0]}-{seeds[-1]}, one run each per set.\n")
    head = " | ".join(f"set {k + 1} median [Q1, Q3] | spread" for k in range(len(sets)))
    print(f"| workload | metric | {head} | largest change of the median | bound |")
    print("| --- | --- |" + " --- | --- |" * len(sets) + " --- | --- |")
    for name in names:
        for m in spec["end_to_end"]:
            cells, meds = [], []
            for results in sets:
                med, q1, q3, rel = spread([r["metrics"][m["name"]]["value"]
                                           for r in results[name]])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] | {rel:.3f}")
                meds.append(med)
            shift = max((v / meds[0] - 1 for v in meds[1:]), key=abs, default=0.0)
            print(f"| {name} | `{m['name']}` ({m['unit']}, {m['better']}) | "
                  f"{' | '.join(cells)} | {100 * shift:+.1f}% | {m['bound']} |")
    print()
    for name in names:
        runs = [r for results in sets for r in results[name]]
        ok = sum(r["correct"] for r in runs)
        counts = sorted({(r["failed"], r["attempted"]) for r in runs})
        wall = [r["wall_s"] for r in runs]
        losses = {}
        for results in sets:
            for s, r in zip(seeds, results[name]):
                losses.setdefault(s, set()).add(tuple(r["final_losses"]))
            losses.setdefault(trace_seed, set()).add(
                tuple(results[name + ":trace"]["final_losses"]))
        same = all(len(v) == 1 for v in losses.values())
        print(f"{name}: correct {ok}/{len(runs)}; (failed, attempted) per run: "
              f"{counts}; run wall time {min(wall):.0f}-{max(wall):.0f} s; final "
              f"losses of each seed identical in every run: {same} (seed "
              f"{trace_seed}: {sorted(losses[trace_seed])})")
    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("| --- | --- |" + " --- |" * len(names))
    traced = {n: sets[0][n + ":trace"]["metrics"] for n in names}
    for m in spec["per_layer"]:
        vals = " | ".join(f"{traced[n][m['name']]['value']:.4g}" for n in names)
        print(f"| {m['name']} | {m['unit']} | {vals} |")
    print()
    for k, results in enumerate(sets):
        for name in names:
            runs = results[name]
            plain = next(r for s, r in zip(seeds, runs) if s == trace_seed)
            plain_s = plain["metrics"]["pipeline_s"]["value"]
            traced_s = results[name + ":trace"]["metrics"]["trace.pipeline_s"]["value"]
            print(f"set {k + 1}, {name}: traced pipeline_s (seed {trace_seed}) "
                  f"{traced_s:.2f} s; untraced {plain_s:.2f} s "
                  f"({100 * (traced_s / plain_s - 1):+.1f}%)")


if __name__ == "__main__":
    main()
