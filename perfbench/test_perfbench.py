"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run scaled-down copies of the workloads, so they take seconds, not the
minutes of a benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import run
from spans import Tracer, run_summary
from speed import REF_CHUNK_S, SpeedProbe
from workloads import WORKLOADS, report_digest, run_calls

SMALL = {
    "balls-ensemble": {"n": 2_000, "count": 4},
    "degree-anchors": {"n": 1_000, "count": 2},
    "degree-paths": {"n": 2_000, "count": 2},
}

EXACT_COUNTS = (
    "simulate.steps",
    "simulate.trajectories",
    "simulate.run_ensemble.calls",
    "simulate.record_rows",
    "simulate.record_bytes",
    "ode.rk4_steps",
    "ode.compute_RT.drift_calls",
    "core.boundary_distance.calls",
)


@pytest.fixture(scope="module")
def dt():
    return run.import_demtrack()


def small(dt, name):
    w = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    spec, plugin = dt.spec_from_dict(w.spec_doc())
    return w, spec, plugin


def test_benchmark_json_lists_the_metrics_and_workloads_of_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat_and_tracing_keeps_the_output(dt, name):
    w, spec, plugin = small(dt, name)
    modules = [sys.modules[m] for m in ("demtrack.verify", "demtrack.simulate")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    plain = run.iteration(w, spec, plugin, 5, tracer, traced=False)
    first = run.iteration(w, spec, plugin, 5, tracer, traced=True)
    second = run.iteration(w, spec, plugin, 5, tracer, traced=True)
    assert plain.failed == first.failed == second.failed == 0
    assert plain.digest == first.digest == second.digest
    assert plain.steps == first.steps > 0
    for key in EXACT_COUNTS:
        assert first.layers.get(key) == second.layers.get(key), key
    assert first.layers["simulate.steps"] == first.steps
    if w.call != "run_ensemble":
        assert first.layers["ode.compute_RT.drift_calls"] > 0
        assert first.layers["ode.rk4_steps"] > 0
    assert [dict(vars(m)) for m in modules] == before


def test_multi_anchor_runs_one_ensemble_per_anchor(dt):
    w, spec, plugin = small(dt, "degree-anchors")
    sample = run.iteration(w, spec, plugin, 1, Tracer(), traced=True)
    assert sample.layers["simulate.run_ensemble.calls"] == len(w.anchors)
    assert sample.layers["verify.verify.calls"] == len(w.anchors)


def test_perturbed_report_fails_the_digest_check(dt):
    w, spec, plugin = small(dt, "balls-ensemble")
    sample = run.iteration(w, spec, plugin, 3, Tracer(), traced=False)
    doc = run_calls(w, spec, plugin, 3)[0].to_dict()
    assert report_digest([doc]) == sample.digest
    assert run.is_correct([sample], sample.digest)

    # fields added to the report later do not move the digest
    assert report_digest([{**doc, "schema": 2, "timings": {"simulate": 1.0}}]) == sample.digest

    for key, value in (
        ("empirical_sup_deviations", [d + 1.0 for d in doc["empirical_sup_deviations"]]),
        ("failure_count", doc["failure_count"] + 1),
        ("constants", {**doc["constants"], "sigma": doc["constants"]["sigma"] / 2}),
    ):
        perturbed = report_digest([{**doc, key: value}])
        assert perturbed != sample.digest, key
        bad = dataclasses.replace(sample, digest=perturbed)
        assert not run.is_correct([bad], sample.digest)
        assert not run.is_correct([sample, bad], None)


def test_child_spans_and_verify_self_time_add_up(dt):
    w, spec, plugin = small(dt, "degree-anchors")
    tracer = Tracer()
    sample = run.iteration(w, spec, plugin, 2, tracer, traced=True)
    layers = sample.layers
    children = sum(
        layers.get(f"{name}.s", 0.0)
        for name in (
            "ode.compute_RT",
            "ode.solve_ode",
            "simulate.run_ensemble",
            "bounds.failure_probability",
        )
    )
    top = layers["verify.verify_multi_anchor.s"]
    assert layers["verify.self_s"] >= 0.0
    assert children + layers["verify.self_s"] == pytest.approx(top, rel=1e-9)

    # a child that ends after its parent breaks the nesting check
    top_idx = next(i for i, s in enumerate(tracer.spans) if s[3] is None)
    name, start, end, parent, run_id = tracer.spans[top_idx + 1]
    tracer.spans[top_idx + 1] = (name, start, end + 10.0, parent, run_id)
    with pytest.raises(ValueError):
        run_summary(tracer, tracer.run)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "balls-ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / "perfbench" / "out").exists()


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.times) >= 2
    assert 0.0 < probe.busy < 0.3
    assert probe.scale() == pytest.approx(REF_CHUNK_S / statistics.mean(probe.times))
