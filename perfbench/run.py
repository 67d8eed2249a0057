"""Run one demtrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload balls-ensemble --seed 1 --seconds 36 --trace 0

Run from the repository root; the library is imported from ``src/``. The
workload's library calls repeat in a closed loop (each starts when the
previous one returns) in this one process, with no worker pool, until the
next would end past ``--seconds``. Every iteration of a run gets the same
inputs, so every iteration must give the same output digest, and the seeds
listed in ``digests.json`` must give the pinned one.

With ``--trace 0`` the end-to-end metrics are printed, timed with tracing
off. With ``--trace 1`` untraced and traced iterations alternate, and the
per-layer metrics come from spans and counters recorded around the calls
into each module (see ``spans.py``). One line per metric (name, value,
unit) precedes the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Run details, and the spans of a
traced run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, run_summary
from speed import SpeedProbe
from workloads import WORKLOADS, check_outputs, run_calls

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

END_TO_END = {
    "run_s": "s",
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ode.compute_RT.s": "s",
    "ode.compute_RT.drift_calls": "count",
    "ode.solve_ode.s": "s",
    "ode.compute_sigma.s": "s",
    "core.boundary_distance.calls": "count",
    "ode.rk4_steps": "count",
    "ode.counts_at_steps.s": "s",
    "simulate.run_ensemble.s": "s",
    "simulate.run_ensemble.calls": "count",
    "simulate.steps": "count",
    "simulate.trajectories": "count",
    "simulate.ns_per_step": "ns",
    "simulate.loop_ns_per_step": "ns",
    "simulate.derive_seed.s": "s",
    "simulate.record_rows": "count",
    "simulate.record_bytes": "bytes",
    "simulate.doob_decompose.s": "s",
    "simulate.check_hypotheses.s": "s",
    "processes.step_ns": "ns",
    "processes.drift_ns": "ns",
    "processes.observables_ns": "ns",
    "verify.verify.s": "s",
    "verify.self_s": "s",
    "verify.verify_multi_anchor.s": "s",
    "bounds.failure_probability.s": "s",
    "specio.load_spec.s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_REPEATS = 11
LOAD_SPEC_REPEATS = 5
PROBE_CALLS = 20_000
PROBE_REPEATS = 5

# Timed in a fresh interpreter: import demtrack, load the spec, build the
# plugin; then the reference loop, for the speed of that same interpreter.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import demtrack
spec, plugin = demtrack.load_spec(sys.argv[2])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from speed import reference_speed
print(demtrack.__file__)
print(repr(elapsed))
print(repr(reference_speed()))
"""


class SetupError(Exception):
    """The checkout does not hold a demtrack the benchmark can run."""


def import_demtrack():
    src = ROOT / "src"
    if not (src / "demtrack" / "__init__.py").is_file():
        raise SetupError(f"no demtrack sources under {src}")
    sys.path.insert(0, str(src))
    import demtrack

    if Path(demtrack.__file__).resolve().parent != (src / "demtrack").resolve():
        raise SetupError(f"imported demtrack from {demtrack.__file__}, not {src}")
    return demtrack


def measure_setup(spec_path: Path) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh interpreters: (wall, scaled)."""
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [
                sys.executable, "-I", "-c", SETUP_CODE,
                str(ROOT / "src"), str(spec_path), str(Path(__file__).parent),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        where, elapsed, scale = proc.stdout.splitlines()
        if not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"set-up imported demtrack from {where}")
        walls.append(float(elapsed))
        scaled.append(float(elapsed) * float(scale))
    return statistics.median(walls), statistics.median(scaled)


def record_ensemble(tracer: Tracer):
    def record(ens) -> None:
        for t in ens.trajectories:
            tracer.add("simulate.steps", t.stop_index)
            tracer.add("simulate.trajectories")
            tracer.add("simulate.record_rows", len(t.indices))
            tracer.add(
                "simulate.record_bytes", t.indices.nbytes + t.steps.nbytes + t.drifts.nbytes
            )

    return record


def install_counters(tracer: Tracer) -> None:
    """Untraced mode: only the step count, read off run_ensemble's result."""
    for mod in ("demtrack.verify", "demtrack.simulate"):
        tracer.count(
            sys.modules[mod], "run_ensemble", "simulate.run_ensemble.calls",
            on_return=record_ensemble(tracer),
        )


def install_spans(tracer: Tracer) -> None:
    """Traced mode: spans around the names the library looks up at call time."""
    ver = sys.modules["demtrack.verify"]
    ode = sys.modules["demtrack.ode"]
    sim = sys.modules["demtrack.simulate"]
    core = sys.modules["demtrack.core"]
    tracer.wrap(ver, "verify", "verify.verify")
    tracer.wrap(ver, "verify_multi_anchor", "verify.verify_multi_anchor")
    tracer.wrap(ver, "compute_RT", "ode.compute_RT")
    tracer.wrap(
        ver, "solve_ode", "ode.solve_ode",
        on_return=lambda sol: tracer.add("ode.rk4_steps", len(sol.ts) - 1),
    )
    for fn in (
        "theorem_failure_probability",
        "freedman_failure_probability",
        "truncated_failure_probability",
    ):
        tracer.wrap(ver, fn, "bounds.failure_probability")
    for mod in (ver, sim):
        tracer.wrap(
            mod, "run_ensemble", "simulate.run_ensemble",
            on_return=record_ensemble(tracer),
        )
    tracer.wrap(ode, "compute_sigma", "ode.compute_sigma")
    tracer.wrap(ode.OdeSolution, "counts_at_steps", "ode.counts_at_steps")
    tracer.wrap(sim, "derive_seed", "simulate.derive_seed")
    tracer.wrap(sim, "doob_decompose", "simulate.doob_decompose")
    tracer.wrap(sim, "check_hypotheses", "simulate.check_hypotheses")
    tracer.count(core.Domain, "boundary_distance", "core.boundary_distance.calls")


def counting_drift(tracer: Tracer, drift):
    """spec.drift that counts its calls under the innermost open span."""

    def counted(t, y):
        tracer.add(f"{tracer.current()}.drift_calls")
        return drift(t, y)

    return counted


@dataclasses.dataclass
class Sample:
    wall: float          # seconds in the library calls
    scale: float         # to reference speed; 1.0 where the speed was not sampled
    steps: float
    attempted: int
    failed: int
    digest: str | None
    layers: dict | None = None

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale


def iteration(w, spec, plugin, seed: int, tracer: Tracer, traced: bool) -> Sample:
    """One closed-loop iteration: the workload's calls, then the output check.

    An untraced iteration samples the machine's speed while it runs; the
    sampler's own time is taken out of ``wall``.
    """
    tracer.run += 1
    if traced:
        spec = dataclasses.replace(spec, drift=counting_drift(tracer, spec.drift))
        install_spans(tracer)
    else:
        install_counters(tracer)
    probe = SpeedProbe()
    attempted = w.outputs_per_iteration()
    start = time.perf_counter()
    try:
        if traced:
            outputs = run_calls(w, spec, plugin, seed)
        else:
            with probe:
                outputs = run_calls(w, spec, plugin, seed)
    except Exception:
        traceback.print_exc()
        return Sample(time.perf_counter() - start, 1.0, 0, attempted, attempted, None)
    finally:
        tracer.restore()
    wall = time.perf_counter() - start - probe.busy
    scale = 1.0 if traced else probe.scale()
    failed, digest = check_outputs(w, outputs)
    failed += max(0, attempted - len(outputs))
    steps = tracer.counts[(tracer.run, "simulate.steps")]
    layers = None
    if traced:
        try:
            layers = run_summary(tracer, tracer.run)
        except ValueError:
            traceback.print_exc()
            return Sample(wall, scale, steps, attempted, attempted, None)
        layers.update(
            {name: v for (run, name), v in tracer.counts.items() if run == tracer.run}
        )
    return Sample(wall, scale, steps, attempted, failed, digest, layers)


def pinned_digest(workload: str, seed: int) -> str | None:
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def is_correct(samples: list[Sample], pinned: str | None) -> bool:
    """No output failed, every iteration gave one digest, and it is the pinned one."""
    digests = {s.digest for s in samples}
    return (
        all(s.failed == 0 for s in samples)
        and len(digests) == 1
        and None not in digests
        and pinned in (None, *digests)
    )


def probe_plugin(plugin, spec, seed: int) -> dict[str, float]:
    """ns per call of step, drift and observables from a mid-trajectory state."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    state = plugin.initial_state()
    for _ in range(int(spec.domain.t_hi * spec.n) // 2):
        state = plugin.step(state, rng)
    calls = {
        "processes.step_ns": lambda: plugin.step(state, rng),
        "processes.drift_ns": lambda: plugin.drift(state),
        "processes.observables_ns": lambda: plugin.observables(state),
    }
    out = {}
    for name, call in calls.items():
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter_ns()
            for _ in range(PROBE_CALLS):
                call()
            times.append((time.perf_counter_ns() - start) / PROBE_CALLS)
        out[name] = statistics.median(times)
    return out


def closed_loop(seconds: float, body) -> list:
    """Call ``body`` until the next call would end past ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def per_layer_metrics(pairs, probe, load_spec_s) -> dict[str, float]:
    """Medians over the traced iterations of (untraced, traced) pairs."""
    layers = [traced.layers or {} for _, traced in pairs]
    metrics = {
        name: statistics.median(lay.get(name, 0.0) for lay in layers)
        for name in PER_LAYER
    }
    metrics["simulate.ns_per_step"] = statistics.median(
        1e9 * lay.get("simulate.run_ensemble.s", 0.0) / max(1.0, lay.get("simulate.steps", 0.0))
        for lay in layers
    )
    metrics.update(probe)
    metrics["simulate.loop_ns_per_step"] = metrics["simulate.ns_per_step"] - sum(
        probe.values()
    )
    metrics["specio.load_spec.s"] = load_spec_s
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.wall for _, traced in pairs)
        / statistics.median(plain.wall for plain, _ in pairs)
        - 1.0
    )
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dt = import_demtrack()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spec_path = OUT_DIR / f"{w.name}.spec.json"
    spec_path.write_text(json.dumps(w.spec_doc(), indent=2) + "\n")
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer()
    metrics: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    specio = sys.modules["demtrack.specio"]
    if args.trace:
        tracer.wrap(specio, "load_spec", "specio.load_spec")
        for _ in range(LOAD_SPEC_REPEATS):
            spec, plugin = specio.load_spec(spec_path)
        tracer.restore()
        load_spec_s = statistics.median(s[2] - s[1] for s in tracer.spans)
        probe = probe_plugin(plugin, spec, args.seed)
        pairs = closed_loop(
            args.seconds,
            lambda: (
                iteration(w, spec, plugin, args.seed, tracer, traced=False),
                iteration(w, spec, plugin, args.seed, tracer, traced=True),
            ),
        )
        samples = [s for pair in pairs for s in pair]
        metrics = per_layer_metrics(pairs, probe, load_spec_s)
        tracer.dump(OUT_DIR / f"{tag}.spans.json")
        units = PER_LAYER
    else:
        setup_wall, metrics["setup_s"] = measure_setup(spec_path)
        spec, plugin = specio.load_spec(spec_path)
        samples = closed_loop(
            args.seconds,
            lambda: iteration(w, spec, plugin, args.seed, tracer, traced=False),
        )
        metrics["run_s"] = statistics.median(s.ref_wall for s in samples)
        metrics["steps_per_s"] = statistics.median(s.steps / s.ref_wall for s in samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
        unscaled = {
            "wall_run_s": statistics.median(s.wall for s in samples),
            "wall_setup_s": setup_wall,
            "speed_scale": statistics.median(s.scale for s in samples),
        }

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    digests = {s.digest for s in samples}
    pinned = pinned_digest(w.name, args.seed)
    correct = is_correct(samples, pinned)

    provenance = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "iterations": len(samples),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "demtrack": dt.__version__,
        "digest": sorted(d or "error" for d in digests),
        "pinned_digest": pinned,
    }
    detail = {
        "provenance": provenance,
        "samples": [dataclasses.asdict(s) for s in samples],
        "metrics": metrics,
        "unscaled": unscaled,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    if unscaled:
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
