#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_14.json

Run from the repository root. The parent's committed files are unpacked
with ``git archive <rev> | tar -x`` into a temporary directory, which is
removed at the end; no worktree is made, so ``.git`` is left unchanged. The
other side is this working tree, uncommitted changes included.

For each workload of ``BENCHMARK.json``, pair i = 0..9 runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` with
seed i + 1 once in each tree, the parent first when i is even. The output
records, per workload and metric, every run's value, the medians,
the quartiles (``statistics.quantiles(n=4)``) and the number of pairs in
which the change was better, with the unscaled wall times that run.py
prints next to its reference-speed metrics, and the per-layer metrics of
one ``--trace 1`` run per side on the first seed. Each metric with a better
side also records two verdicts. ``claim_holds``: the change was better in
at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.
``worse_than_bound`` (end-to-end metrics only): the change's median is
worse than the parent's by more than the metric's ``BENCHMARK.json`` bound,
a fraction of the parent's median. ``verdicts`` lists the metrics of each
kind. It also times two layers
in each tree on the two acceptance instances (the balls-ensemble spec at
n = 100,000 with 200 trajectories and the degree-anchors spec with its
three anchors and 100 trajectories), in six alternating fresh interpreters
per tree, by process time (``time.process_time``) with the wall time
next to it: ``ode.anchor_grids``, with a SHA-256 of the grids, and
``simulate.run_ensemble`` with the solutions and replay check ``verify``
passes, keeping only each trajectory's start and stop records
(``endpoints_only=True``) as ``verify`` does, with a SHA-256 of every
trajectory's statistics and records. Both layers are also timed on the
degree spec at n = 1,000,000 with its one anchor, the process's start, and
100 trajectories; its ensemble, at about 23 s a call, is one call in one
interpreter per tree, the parent first. Last, it records the peak resident
set (``ru_maxrss``), with a SHA-256 of the report, in one fresh
interpreter per tree and instance, the parent first: of ``verify`` on the
balls n = 100,000 instance with 200 trajectories and on the balls-ensemble
spec with 2,000 trajectories, and of ``verify_multi_anchor`` on the
degree-anchors spec with its 16 trajectories, against its three anchors
and against nine. The digests must agree between the trees. The layout is
that of ``BENCH_10.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# direction of each metric run.py prints: its end-to-end metrics, then the
# unscaled wall times; speed_scale has no better side
DIRECTION = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
DIRECTION.update(wall_run_s=("s", "lower"), wall_setup_s=("s", "lower"), speed_scale=("ratio", None))
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}  # worsening allowed, a fraction
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10  # per workload, on seeds 1..PAIRS
REPEATS = 6  # fresh interpreters per tree for each layer timed on the acceptance instances

# The acceptance instances, (name, workload, trajectories), and the timer of
# a layer: best of three calls, or one call, by process time, which a busy
# shared host inflates less than the wall time kept next to it; each layer's
# code below prints JSON, per instance the times, a SHA-256 of the outputs
# and what else it records
ACCEPTANCE = """
import dataclasses, hashlib, json, sys, time
sys.path[:0] = ["src", "perfbench"]
from demtrack.ode import anchor_grids, compute_RT, solve_ode
from demtrack.simulate import run_ensemble
from demtrack.specio import spec_from_dict
from workloads import WORKLOADS

INSTANCES = (
    ("balls n=100000", dataclasses.replace(WORKLOADS["balls-ensemble"], n=100_000), 200),
    ("degree n=10000, K=3", WORKLOADS["degree-anchors"], 100),
)
# one a = 4 anchor, stepped alone by the array stage loop; its ensemble is
# timed by one call
LARGE = (
    ("degree n=1000000, one anchor",
     dataclasses.replace(WORKLOADS["degree-anchors"], n=1_000_000, anchors=()), 100),
)


def best_of(calls, call):
    # (CPU s, wall s, result) of the call with the least process time
    best = None
    for _ in range(calls):
        c0, w0 = time.process_time(), time.perf_counter()
        result = call()
        took = (time.process_time() - c0, time.perf_counter() - w0)
        best = took if best is None else min(best, took)
    return (*best, result)
"""

GRIDS_CODE = ACCEPTANCE + """
out = {}
for name, w, _ in INSTANCES + LARGE:
    spec, _ = spec_from_dict(w.spec_doc())
    specs = [dataclasses.replace(spec, y_hat=a) for a in w.anchors] or [spec]
    T = compute_RT(spec)[1]
    s, wall, grids = best_of(3, lambda: anchor_grids(specs, T))
    digest = hashlib.sha256()
    for ts, ys in grids:
        digest.update(ts.tobytes())
        digest.update(ys.tobytes())
    out[name] = {"s": s, "wall_s": wall, "rows": [len(ts) for ts, _ in grids],
                 "sha256": digest.hexdigest()}
print(json.dumps(out))
"""

# run_ensemble with every anchor's solution and the replay check, timed by
# the best of three calls on INSTANCES (argument "acceptance") or by one call
# on LARGE (argument "large"); the digest covers each Trajectory field,
# arrays by dtype, shape and bytes, the rest by repr. It times the call
# verify makes, which keeps only each trajectory's start and stop records
ENSEMBLE_CODE = ACCEPTANCE + """
import numpy as np

instances, calls = {"acceptance": (INSTANCES, 3), "large": (LARGE, 1)}[sys.argv[1]]
out = {}
for name, w, count in instances:
    spec, plugin = spec_from_dict(w.spec_doc())
    specs = [dataclasses.replace(spec, y_hat=a) for a in w.anchors] or [spec]
    R, T = compute_RT(spec)
    solutions = [solve_ode(s, R, T, g) for s, g in zip(specs, anchor_grids(specs, T))]
    s, wall, ens = best_of(
        calls, lambda: run_ensemble(plugin, spec, count, 1, solution=solutions, replay_check=True,
                                    endpoints_only=True)
    )
    digest = hashlib.sha256()
    for traj in ens.trajectories:
        for f in dataclasses.fields(traj):
            v = getattr(traj, f.name)
            if isinstance(v, np.ndarray):
                digest.update(f"{v.dtype.str}{v.shape}".encode() + v.tobytes())
            else:
                digest.update(repr(v).encode())
    out[name] = {"s": s, "wall_s": wall, "steps": sum(t.stop_index for t in ens.trajectories),
                 "sha256": digest.hexdigest()}
print(json.dumps(out))
"""


# the peak resident set (ru_maxrss, KiB on Linux) of verify, or of
# verify_multi_anchor when the instance has anchors, on the instance named by
# the argument, alone in a fresh interpreter so that no other call's peak
# counts, with a SHA-256 of the report's to_dict() (of the list of them for
# verify_multi_anchor). The degree-anchors instances keep the workload's 16
# trajectories: its own three anchors, and nine spread over the same range
RSS_CODE = ACCEPTANCE + """
import resource
from demtrack.verify import verify, verify_multi_anchor

DEGREE = WORKLOADS["degree-anchors"]
NINE = tuple((1.0 + (i / 8 - 0.5) * DEGREE.lam, 0.0, 0.0, 0.0) for i in range(9))
RSS = {name: (w, count, anchors) for name, w, count, anchors in (
    (*INSTANCES[0], ()),
    ("balls n=20000, 2000 trajectories", WORKLOADS["balls-ensemble"], 2000, ()),
    ("degree n=10000, 3 anchors", DEGREE, DEGREE.count, DEGREE.anchors),
    ("degree n=10000, 9 anchors", DEGREE, DEGREE.count, NINE),
)}
w, count, anchors = RSS[sys.argv[1]]
spec, plugin = spec_from_dict(w.spec_doc())
if anchors:
    doc = [r.to_dict() for r in verify_multi_anchor(spec, plugin, count, 1, anchors)]
else:
    doc = verify(spec, plugin, count, 1, replay_check=True).to_dict()
doc = json.dumps(doc, sort_keys=True, allow_nan=True)
print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "sha256": hashlib.sha256(doc.encode()).hexdigest()}))
"""
RSS_INSTANCES = (
    "balls n=100000", "balls n=20000, 2000 trajectories",
    "degree n=10000, 3 anchors", "degree n=10000, 9 anchors",
)


def run_workload(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metrics by name, with
    ``correct`` and ``failed``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("unscaled "):
            values.update((k, float(v)) for k, v in (f.split("=") for f in line.split()[1:]))
    return {"values": values, "correct": result["correct"], "failed": result["failed"]}


def summary(
    parent: list[float], change: list[float], unit: str, better: str | None,
    bound: float | None = None,
) -> dict:
    def quartiles(xs):
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        return [q[0], q[2]]

    out = {
        "unit": unit,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
    }
    if better is not None:
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gain = sign * (out["parent_median"] - out["change_median"])  # > 0: the change is better
        spread = out["parent_quartiles"][1] - out["parent_quartiles"][0]
        out["change_better_pairs"] = wins
        out["claim_holds"] = 10 * wins >= 9 * len(parent) and gain > spread
        if bound is not None:
            out["bound"] = bound
            out["worse_than_bound"] = -gain > bound * abs(out["parent_median"])
    out["parent_runs"], out["change_runs"] = parent, change
    return out


def verdicts(workloads: dict) -> dict:
    """The "<workload> <metric>" names whose claim holds, and those worse than their bound."""
    out = {"claim_holds": [], "worse_than_bound": []}
    for w, doc in workloads.items():
        for name, m in doc.items():
            for key, names in out.items():
                if isinstance(m, dict) and m.get(key):
                    names.append(f"{w} {name}")
    return out


def bench_workload(trees: dict, workload: str) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_workload(trees[side], workload, i + 1))
            print(f"{workload} seed {i + 1} {side}: {runs[side][-1]}", file=sys.stderr)
    every = runs["parent"] + runs["change"]
    doc = {
        "pairs": PAIRS,
        "seeds": [1, PAIRS],
        "all_correct": all(r["correct"] is True for r in every),
        "failed": sum(r["failed"] for r in every),
    }
    for name, (unit, better) in DIRECTION.items():
        parent, change = ([r["values"][name] for r in runs[s]] for s in ("parent", "change"))
        doc[name] = summary(parent, change, unit, better, BOUND.get(name))
    # one traced run per side on the first seed, for the per-layer metrics
    doc["trace"] = {
        side: run_workload(trees[side], workload, 1, trace=1)
        for side in ("parent", "change")
    }
    return doc


def bench_fresh(trees: dict, code: str, *args: str, repeats: int = REPEATS) -> dict:
    """``code`` with ``args`` in ``repeats`` fresh interpreters per tree,
    alternating which tree goes first: per instance, the summary of its
    times, whether its digests agree, and what else the change tree's first
    run recorded."""
    runs = {"parent": [], "change": []}
    for i in range(repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = subprocess.run([sys.executable, "-c", code, *args], cwd=trees[side],
                                 capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout))
    doc = {}
    for name, first in runs["change"][0].items():
        parent, change = ([r[name]["s"] for r in runs[s]] for s in ("parent", "change"))
        walls = ([r[name]["wall_s"] for r in runs[s]] for s in ("parent", "change"))
        digests = {r[name]["sha256"] for s in runs for r in runs[s]}
        doc[name] = {
            **{k: v for k, v in first.items() if k not in ("s", "wall_s", "sha256")},
            "identical": len(digests) == 1,
            "sha256": sorted(digests),
            **summary(parent, change, "s", "lower"),
            "wall_s": summary(*walls, "s", "lower"),
        }
    return doc


def bench_rss(trees: dict) -> dict:
    """``RSS_CODE`` on each of ``RSS_INSTANCES`` in one fresh interpreter per
    tree, the parent first: both peaks, and whether the report digests agree."""
    doc = {}
    for name in RSS_INSTANCES:
        runs = {
            side: json.loads(subprocess.run(
                [sys.executable, "-c", RSS_CODE, name], cwd=trees[side],
                capture_output=True, text=True, check=True,
            ).stdout)
            for side in ("parent", "change")
        }
        digests = sorted({r["sha256"] for r in runs.values()})
        doc[name] = {
            "unit": "MB",
            "parent_peak_rss_mb": runs["parent"]["peak_rss_mb"],
            "change_peak_rss_mb": runs["change"]["peak_rss_mb"],
            "identical": len(digests) == 1,
            "sha256": digests,
        }
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args(argv)

    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(scratch)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
        trees = {"parent": scratch, "change": ROOT}
        started = time.time()
        workloads = {w["name"]: bench_workload(trees, w["name"]) for w in BENCHMARK["workloads"]}
        doc = {
            "what": (
                f"perfbench/run.py --trace 0 on the parent commit {rev} (unpacked by git archive)"
                f" and on this tree, {PAIRS} pairs per workload on seeds 1-{PAIRS}, one pair"
                " per seed, the parent first on even pairs. Medians over the runs;"
                " quartiles by statistics.quantiles(n=4)."
                " wall_run_s and wall_setup_s are run.py's unscaled wall times."
            ),
            "command": (
                f"python3 perfbench/run.py --workload <w> --seed <s> --trace 0 --seconds {SECONDS:g}"
            ),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "verdicts": verdicts(workloads),
            "workloads": workloads,
            "anchor_grids": {
                "what": (
                    "ode.anchor_grids process (CPU) time, best of 3 calls in a fresh"
                    " interpreter, with that call's wall time under wall_s,"
                    f" {REPEATS} interpreters per tree"
                    " alternating; sha256 over every grid's ts and ys bytes."
                    " The degree n=1000000 instance has one anchor"
                ),
                **bench_fresh(trees, GRIDS_CODE),
            },
            "run_ensemble": {
                "what": (
                    "simulate.run_ensemble process (CPU) time, with the call's wall time"
                    " under wall_s, with every anchor's solution and"
                    " replay_check and endpoints_only, as verify calls it, on base seed 1; best of 3 calls"
                    f" in a fresh interpreter, {REPEATS} interpreters per tree alternating;"
                    " the degree n=1000000 instance by one call in one interpreter per"
                    " tree, the parent first; sha256 over every Trajectory field of every"
                    " trajectory"
                ),
                **bench_fresh(trees, ENSEMBLE_CODE, "acceptance"),
                **bench_fresh(trees, ENSEMBLE_CODE, "large", repeats=1),
            },
            "verify_peak_rss": {
                "what": (
                    "verify(count, base seed 1, replay_check=True), or on the degree"
                    " instances verify_multi_anchor(count, base seed 1, anchors), alone in a"
                    " fresh interpreter per tree and instance, the parent first: peak"
                    " resident set by resource.getrusage ru_maxrss; sha256 of the report's"
                    " to_dict(), or of the list of them"
                ),
                **bench_rss(trees),
            },
            "elapsed_s": time.time() - started,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
