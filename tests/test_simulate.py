import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_ode import CallCounter

from demtrack import Domain, PluginCrashed, ProcessSpec
from demtrack.ode import compute_RT, solve_ode
from demtrack.processes import (
    BallsInBins,
    ProcessPlugin,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
)
from demtrack.simulate import (
    check_hypotheses,
    derive_seed,
    doob_decompose,
    run_ensemble,
    simulate,
)

# the module, which the package's ``simulate`` function shadows
simulate_module = importlib.import_module("demtrack.simulate")


class FairCoin(ProcessPlugin):
    """+-1 step with zero drift: Y is itself the martingale part."""

    name = "fair-coin"
    exact_drift = False

    @property
    def dim(self):
        return 1

    def initial_state(self):
        return 0

    def observables(self, state):
        return (state,)

    def step(self, state, rng):
        return state + (1 if rng.random() < 0.5 else -1)

    def drift(self, state):
        return (0.0,)

    def drift_field(self, t, y):
        return np.zeros(1)

    def enumerate_transitions(self, state):
        return [(0.5, state + 1), (0.5, state - 1)]


class ConstantPlugin(ProcessPlugin):
    name = "constant"
    exact_drift = False

    @property
    def dim(self):
        return 1

    def initial_state(self):
        return self.n // 2

    def observables(self, state):
        return (state,)

    def step(self, state, rng):
        return state

    def drift(self, state):
        return (0.0,)

    def drift_field(self, t, y):
        return np.zeros(1)

    def enumerate_transitions(self, state):
        return [(1.0, state)]


class DriftLiar(BallsInBins):
    """Balls-in-bins dynamics but a deliberately wrong drift report."""

    name = "drift-liar"
    exact_drift = False

    def drift(self, state):
        return (-(state / self.n) + 0.5,)


class ArrayDriftLiar(DriftLiar):
    """DriftLiar whose drift comes in one array call per span."""

    def drift_batch(self, states):
        return 0.5 - (states / self.n)[:, None]


class FailingPlugin(ConstantPlugin):
    name = "failing"

    def step(self, state, rng):
        if state != self.n // 2:
            raise RuntimeError("unreachable")
        raise RuntimeError("boom")


# (argument, value, message): a count, jobs or base seed that is not a
# nonnegative integer, refused by name before any work
BAD_INTEGERS = [
    ("count", True, "count must be an integer, got True"),
    ("count", 2.5, "count must be an integer, got 2.5"),
    ("jobs", 1.5, "jobs must be an integer, got 1.5"),
    ("base_seed", 1.7, "base_seed must be an integer, got 1.7"),
    ("base_seed", "7", "base_seed must be an integer, got '7'"),
    ("base_seed", True, "base_seed must be an integer, got True"),
    ("base_seed", -1, "base_seed must be nonnegative"),
]
BAD_INTEGER_IDS = [f"{argument}={value!r}" for argument, value, _ in BAD_INTEGERS]


def unpicklable(argument, spec):
    """A balls-in-bins input that does not pickle, for ``argument``: a plugin
    of a class local to this function, the spec with a lambda drift, or a
    lambda event predicate."""

    class LocalBalls(BallsInBins):
        pass

    return {
        "plugin": LocalBalls(spec.n),
        "spec": dataclasses.replace(spec, drift=lambda t, y: -np.asarray(y)),
        "event_predicate": lambda i, y: True,
    }[argument]


def coin_spec(n=100, lam=0.4, t_hi=1.0, width=0.45):
    dom = Domain(t_lo=-0.1, t_hi=t_hi, lo=(-width,), hi=(width,))
    return ProcessSpec(
        n=n, drift=lambda t, y: np.zeros(1), L=0.0, delta=0.0, beta=1.0,
        lam=lam, y_hat=(0.0,), domain=dom,
    )


class TestStopping:
    def test_cap_at_time_horizon(self):
        spec, plugin = balls_in_bins_spec(200, lam=1e-3)
        traj = simulate(plugin, spec, 5, full_paths=True)
        assert traj.stop_index == math.floor(2.0 * 200)
        assert len(traj.indices) == traj.stop_index + 1

    def test_domain_exit_recorded(self):
        # balls empties below the 0.05 floor long before t = 5 on a long box
        dom = Domain(t_lo=-0.1, t_hi=5.0, lo=(0.05,), hi=(1.1,))
        spec, plugin = balls_in_bins_spec(500, lam=1e-3, domain=dom)
        traj = simulate(plugin, spec, 9, full_paths=True)
        assert traj.stop_index < math.floor(5.0 * 500)
        last = traj.steps[-1, 0] / 500
        assert not 0.05 < last  # exited through the floor
        for i, y in zip(traj.indices[:-1], traj.steps[:-1, 0]):
            assert spec.domain.boundary_distance((i / 500, y / 500)) > 0

    def test_two_bins_first_ball_deterministic(self):
        # with two empty bins the first ball always lands in an empty one
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(1.5,))
        spec, plugin = balls_in_bins_spec(2, lam=0.4, domain=dom)
        for seed in range(10):
            traj = simulate(plugin, spec, seed, full_paths=True)
            assert traj.steps[0, 0] == 2 and traj.steps[1, 0] == 1

    def test_constant_plugin_runs_to_horizon(self):
        spec = coin_spec(n=50, t_hi=0.8, width=0.6)  # box contains y = 0.5
        plugin = ConstantPlugin(50)
        traj = simulate(plugin, spec, 1, full_paths=True)
        assert traj.stop_index == math.floor(0.8 * 50)
        assert np.all(traj.steps == 25)


class TestDeterminism:
    def test_same_seed_same_path(self):
        spec, plugin = balls_in_bins_spec(300, lam=1e-3)
        t1 = simulate(plugin, spec, 123, full_paths=True)
        t2 = simulate(plugin, spec, 123, full_paths=True)
        assert np.array_equal(t1.steps, t2.steps)
        assert t1.sup_martingale == t2.sup_martingale

    def test_ensemble_matches_derived_seeds(self):
        spec, plugin = balls_in_bins_spec(150, lam=1e-3)
        ens = run_ensemble(plugin, spec, 3, base_seed=77)
        for idx, traj in enumerate(ens.trajectories):
            solo = simulate(plugin, spec, derive_seed(77, idx))
            assert np.array_equal(traj.steps, solo.steps)
            assert traj.seed == solo.seed

    def test_worker_count_does_not_change_results(self):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        seq = run_ensemble(plugin, spec, 4, base_seed=5, jobs=1)
        par = run_ensemble(plugin, spec, 4, base_seed=5, jobs=2)
        for a, b in zip(seq.trajectories, par.trajectories):
            assert np.array_equal(a.steps, b.steps)
            assert a.sup_martingale == b.sup_martingale

    def test_the_worker_pool_is_imported_only_for_jobs_above_one(self):
        # ``concurrent.futures.process`` loads multiprocessing, socket and
        # subprocess, which a jobs=1 run never uses
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys, demtrack\n"
            f"demtrack.load_spec({str(root / 'scripts/specs/matching.json')!r})\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_seed_derivation_is_stable(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)


class TestThinning:
    def test_default_stride(self):
        spec, plugin = balls_in_bins_spec(5000, lam=1e-3)
        traj = simulate(plugin, spec, 3)
        stride = math.ceil(5000 / 1000)
        assert stride == 5
        assert np.all(np.diff(traj.indices[:-1]) == stride)
        assert traj.indices[-1] == traj.stop_index
        assert not traj.is_full

    def test_endpoints_only_excludes_full_paths(self):
        spec, plugin = balls_in_bins_spec(150, lam=1e-3)
        with pytest.raises(ValueError, match="^full_paths and endpoints_only exclude each other$"):
            run_ensemble(plugin, spec, 3, 0, full_paths=True, endpoints_only=True)

    def test_online_stats_unaffected_by_thinning(self):
        spec, plugin = balls_in_bins_spec(5000, lam=2e-3)
        sol = solve_ode(spec)
        full = simulate(plugin, spec, 3, solution=sol, full_paths=True)
        thin = simulate(plugin, spec, 3, solution=sol)
        assert full.sup_deviation == thin.sup_deviation
        assert full.sup_martingale == thin.sup_martingale
        assert full.deviation_cap == thin.deviation_cap

    def test_memory_peak_does_not_grow_with_n(self):
        # records are thinned to ~1,000 per trajectory, uniforms drawn and
        # states held one span at a time, and the ODE path interpolated per
        # span: at a fixed count, nothing run_ensemble allocates scales with
        # n. A first run takes the interpreter's one-time allocations.
        box = Domain(t_lo=-0.1, t_hi=0.5, lo=(0.05,), hi=(1.1,))
        peaks = []
        for n in (20_000, 20_000, 200_000):
            spec, plugin = balls_in_bins_spec(n, domain=box)
            sol = solve_ode(spec)
            tracemalloc.start()
            try:
                run_ensemble(plugin, spec, 4, 0, solution=sol, replay_check=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.1 * peaks[1], peaks

    def test_memory_peak_does_not_grow_with_violations(self):
        # a liar breaks the trend hypothesis at every step; its trajectories
        # keep counts, 16 examples and a flag per record, so a run four
        # times as long peaks no higher: 16 rows reduce spans of 1,280 steps
        # at both n. The first run takes the interpreter's one-time
        # allocations.
        peaks = []
        for n in (2_000, 2_000, 8_000):
            spec, _ = balls_in_bins_spec(n)
            tracemalloc.start()
            try:
                ens = run_ensemble(ArrayDriftLiar(n), spec, 16, 0, endpoints_only=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 64 * 1024, peaks
        assert all(t.violation_counts == (t.stop_index, 0) for t in ens.trajectories)

    def test_memory_peak_grows_by_at_most_two_planes_per_path(self):
        # each path's deviation is one (rows, span + 1) plane; the
        # coordinates pass through one scratch plane and the replay chains
        # through one more, whatever a is. Stacking every path's a
        # coordinate differences at once costs about a + 1 planes per path.
        # Degree (a = 4) with 16 rows reduces spans of 1,280 steps, and every
        # path's cap lies past the first span. The first run takes the
        # interpreter's one-time allocations.
        spec, plugin = degree_process_spec(10_000)
        R, T = compute_RT(spec)
        shift = np.zeros(spec.a)
        shift[0] = 0.1 * spec.lam
        solutions = [
            solve_ode(dataclasses.replace(spec, y_hat=tuple(spec.y_hat + f * shift)), R, T)
            for f in range(-6, 6)
        ]
        rows, block = 16, simulate_module._BLOCK_STEPS
        span = block * (simulate_module._SPAN_ROW_STEPS // (rows * block))
        assert min(s.constants.steps(spec.n) for s in solutions) > span
        plane = rows * (span + 1) * 8
        peaks = {}
        for paths in (1, 1, 6, 12):
            tracemalloc.start()
            try:
                run_ensemble(plugin, spec, rows, 0, solution=solutions[:paths],
                             endpoints_only=True, replay_check=True)
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] - peaks[1] <= 2 * 5 * plane, peaks
        assert peaks[12] - peaks[6] <= 2 * 6 * plane, peaks


class TestDoob:
    def test_identity_replay(self):
        spec, plugin = balls_in_bins_spec(500, lam=1e-3)
        for seed in range(5):
            traj = simulate(plugin, spec, seed, full_paths=True)
            M = doob_decompose(traj)
            recon = M + traj.steps[0] + np.vstack(
                [np.zeros(1), np.cumsum(traj.drifts[:-1], axis=0)]
            )
            rel = np.abs(recon - traj.steps) / np.maximum(1.0, np.abs(traj.steps))
            assert rel.max() <= 1e-9
            assert np.all(M[0] == 0.0)

    def test_deterministic_plugin_has_zero_martingale(self):
        spec, plugin = greedy_matching_spec(100, lam=0.05)
        traj = simulate(plugin, spec, 11, full_paths=True)
        M = doob_decompose(traj)
        assert np.max(np.abs(M)) == 0.0
        assert traj.sup_martingale == 0.0

    def test_fair_coin_martingale_is_the_walk(self):
        spec = coin_spec()
        plugin = FairCoin(100)
        traj = simulate(plugin, spec, 21, full_paths=True)
        M = doob_decompose(traj)
        assert np.array_equal(M[:, 0], traj.steps[:, 0] - traj.steps[0, 0])

    def test_thinned_trajectory_rejected(self):
        spec, plugin = balls_in_bins_spec(5000, lam=1e-3)
        traj = simulate(plugin, spec, 3)
        with pytest.raises(ValueError, match="thinned"):
            doob_decompose(traj)


class TestHypothesisChecks:
    def test_clean_run_has_no_violations(self):
        spec, plugin = balls_in_bins_spec(400, lam=1e-3)
        traj = simulate(plugin, spec, 2, full_paths=True)
        summary = check_hypotheses(traj, spec)
        assert summary.clean
        assert summary.trend_count == summary.bound_count == 0

    def test_small_beta_flags_every_emptying_step(self):
        spec, plugin = balls_in_bins_spec(200, lam=1e-3)
        spec = ProcessSpec(
            n=200, drift=plugin.drift_field, L=1.0, delta=0.0, beta=0.5,
            lam=1e-3, y_hat=(1.0,), domain=spec.domain,
        )
        traj = simulate(plugin, spec, 8, full_paths=True)
        summary = check_hypotheses(traj, spec)
        emptied = int(traj.steps[0, 0] - traj.steps[-1, 0])
        assert summary.bound_count == emptied and summary.trend_count == 0
        assert all(v.kind == "bound" for v in traj.violations)
        # the flag of step i marks the move from i to i + 1
        moved = np.diff(traj.steps[:, 0]) != 0
        assert np.array_equal(traj.flags, np.append(2 * moved, 0))

    def test_drift_liar_flags_every_step(self):
        spec, _ = balls_in_bins_spec(100, lam=1e-3)
        liar = DriftLiar(100)
        traj = simulate(liar, spec, 4, full_paths=True)
        summary = check_hypotheses(traj, spec, mode="strict")
        assert summary.trend_count == traj.stop_index
        assert [v.i for v in traj.violations] == list(range(16))

    def test_proof_structure_mode_exempts_far_steps(self):
        # wrong drift pushes the path away from the ODE curve; once the
        # deviation passes the tiny envelope, violations stop counting
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(100, lam=1e-3, domain=dom)
        liar = DriftLiar(100)
        sol = solve_ode(spec)
        traj = simulate(liar, spec, 4, solution=sol, full_paths=True)
        strict = check_hypotheses(traj, spec, mode="strict")
        proof = check_hypotheses(traj, spec, mode="proof-structure")
        assert 0 < proof.trend_count < strict.trend_count
        # the count of flagged steps i < floor(sigma*n) inside the envelope
        cap = sol.constants.steps(spec.n)
        table = np.max(np.abs(traj.steps[:cap] - sol.counts_at_steps(cap - 1)), axis=1)
        inside = table < sol.constants.envelope(spec.n)
        assert proof.trend_count == int(np.sum((traj.flags[:cap] & 1).astype(bool) & inside))

    def test_thinned_and_full_runs_count_alike(self):
        # n = 2000 keeps every second step; an envelope below one count puts
        # floor(sigma*n) at the step before the horizon
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(2000, lam=5e-5, domain=dom)
        liar = DriftLiar(2000)
        sol = solve_ode(spec)
        thinned = simulate(liar, spec, 4, solution=sol)
        full = simulate(liar, spec, 4, solution=sol, full_paths=True)
        ends = run_ensemble(liar, spec, 3, 4, solution=sol, endpoints_only=True).trajectories
        wide = run_ensemble(liar, spec, 3, 4, solution=sol, full_paths=True).trajectories
        assert not thinned.is_full
        counted = ("violations", "violation_counts", "in_range_violations")
        for got, want in [(thinned, full), *zip(ends, wide)]:
            for name in counted:
                assert getattr(got, name) == getattr(want, name), name
            for mode in ("strict", "proof-structure"):
                assert check_hypotheses(got, spec, mode) == check_hypotheses(want, spec, mode)
        # the flags of the records a run keeps are the full run's
        assert np.array_equal(thinned.flags, full.flags[thinned.indices])
        for got, want in zip(ends, wide):
            assert np.array_equal(got.flags, want.flags[got.indices])
        got = check_hypotheses(thinned, spec, mode="proof-structure")
        assert 0 < got.trend_count < thinned.violation_counts[0]

    def test_proof_structure_reads_steps_before_floor_sigma_n(self):
        # lambda = 1e-3 puts floor(sigma*n) = 1983 before the horizon 2000,
        # and the violations at steps 1983..1999 are exempt
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(2000, lam=1e-3, domain=dom)
        liar = DriftLiar(2000)
        sol = solve_ode(spec)
        cap = sol.constants.steps(spec.n)
        assert cap == 1983 < spec.horizon
        thinned = simulate(liar, spec, 4, solution=sol)
        full = simulate(liar, spec, 4, solution=sol, full_paths=True)
        assert not thinned.is_full
        assert full.flags[cap:-1].all()
        got = check_hypotheses(thinned, spec, mode="proof-structure")
        want = check_hypotheses(full, spec, mode="proof-structure")
        assert got.trend_count == want.trend_count == 1611

    def test_proof_structure_needs_one_tracked_path(self):
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(100, lam=1e-3, domain=dom)
        liar = DriftLiar(100)
        sol = solve_ode(spec)
        bare = simulate(liar, spec, 4, full_paths=True)
        paths = simulate(liar, spec, 4, solution=[sol, sol])
        one = simulate(liar, spec, 4, solution=sol)
        assert bare.in_range_violations == bare.sup_deviation == bare.deviation_cap == ()
        assert bare.replay_ok is None
        assert paths.in_range_violations == one.in_range_violations * 2
        for traj in (bare, paths):
            assert check_hypotheses(traj, spec).trend_count == traj.stop_index
            with pytest.raises(ValueError, match="one ODE solution"):
                check_hypotheses(traj, spec, mode="proof-structure")

    @pytest.mark.parametrize("replay", [False, True], ids=["no-replay", "replay"])
    def test_one_solution_and_a_list_of_one_agree(self, replay):
        # per-path statistics are tuples with one entry per solution, whether
        # the solution came alone or in a list of one
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(100, lam=1e-3, domain=dom)
        liar = DriftLiar(100)
        sol = solve_ode(spec)
        one = simulate(liar, spec, 4, solution=sol, full_paths=True, replay_check=replay)
        listed = simulate(liar, spec, 4, solution=[sol], full_paths=True, replay_check=replay)
        for f in dataclasses.fields(one):
            x, y = getattr(one, f.name), getattr(listed, f.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y, equal_nan=True), f.name
            else:
                assert type(x) is type(y) and x == y, f.name
        per_path = ["sup_deviation", "deviation_cap", "in_range_violations"]
        if replay:
            per_path.append("replay_ok")
        else:
            assert one.replay_ok is None
        for name in per_path:
            assert type(getattr(one, name)) is tuple and len(getattr(one, name)) == 1, name
        summary = check_hypotheses(one, spec, "proof-structure")
        assert summary == check_hypotheses(listed, spec, "proof-structure")
        assert summary.trend_count == one.in_range_violations[0][0] > 0

    def test_unknown_mode_rejected(self):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        traj = simulate(plugin, spec, 1)
        with pytest.raises(ValueError):
            check_hypotheses(traj, spec, mode="lenient")


class TestEventPredicate:
    def test_known_failure_step(self):
        # greedy matching is deterministic: Y(i) = n - 2i, so the predicate
        # Y >= n - 10 fails first at exactly i = 6
        spec, plugin = greedy_matching_spec(100, lam=0.05)
        traj = simulate(
            plugin, spec, 3, event_predicate=lambda i, y: y[0] >= 100 - 10
        )
        assert traj.event_stop == 6

    def test_deviation_range_truncated(self):
        spec, plugin = balls_in_bins_spec(400, lam=2e-3)
        sol = solve_ode(spec)
        free = simulate(plugin, spec, 13, solution=sol)
        stopper = simulate(
            plugin, spec, 13, solution=sol, event_predicate=lambda i, y: i < 50
        )
        assert stopper.event_stop == 50
        assert stopper.deviation_cap == (50,)
        assert stopper.sup_deviation[0] <= free.sup_deviation[0]

    def test_never_failing_predicate(self):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        traj = simulate(plugin, spec, 3, event_predicate=lambda i, y: True)
        assert traj.event_stop is None


class TestFailureHandling:
    def test_step_failure_marks_invalid(self):
        spec = coin_spec(n=50, t_hi=0.8, width=0.6)
        plugin = FailingPlugin(50)
        traj = simulate(plugin, spec, 1, full_paths=True)
        assert not traj.valid
        assert traj.error_step == 0
        assert traj.stop_index == 0

    def test_dimension_mismatch_rejected(self):
        spec, _ = balls_in_bins_spec(100, lam=1e-3)
        with pytest.raises(ValueError, match="scale"):
            simulate(BallsInBins(99), spec, 1)

    def test_replay_without_solution_rejected(self):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        with pytest.raises(ValueError, match="solution"):
            simulate(plugin, spec, 1, replay_check=True)

    def test_ensemble_inputs_checked_before_any_batch(self, monkeypatch):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        with pytest.raises(ValueError, match="scale"):
            run_ensemble(BallsInBins(99), spec, 4, 0, jobs=2)
        with pytest.raises(ValueError, match="solution"):
            run_ensemble(plugin, spec, 4, 0, replay_check=True)
        with pytest.raises(ValueError, match="^need at least one ODE solution$"):
            run_ensemble(plugin, spec, 4, 0, solution=[])
        for count, jobs in ((0, 1), (4, 0), (4, -3)):
            with pytest.raises(ValueError, match="must be at least 1"):
                run_ensemble(plugin, spec, count, 0, jobs=jobs)
        assert batches.calls == 0

    @pytest.mark.parametrize("argument,value,message", BAD_INTEGERS, ids=BAD_INTEGER_IDS)
    def test_a_non_integral_or_negative_argument_is_refused(
        self, monkeypatch, argument, value, message
    ):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        args = {"count": 4, "base_seed": 0, "jobs": 1, argument: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_ensemble(plugin, spec, **args)
        assert batches.calls == 0

    @pytest.mark.parametrize("argument", ["plugin", "spec", "event_predicate"])
    def test_an_unpicklable_input_is_refused_when_jobs_exceed_one(self, monkeypatch, argument):
        """Workers get the inputs by pickle: with jobs > 1 one that does not
        pickle is refused by name before any batch; with jobs = 1 it runs."""
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        args = {"plugin": plugin, "spec": spec, "event_predicate": None}
        args[argument] = unpicklable(argument, spec)
        with pytest.raises(ValueError, match=f"^{argument} must be picklable when jobs > 1: "):
            run_ensemble(count=4, base_seed=0, jobs=2, **args)
        assert batches.calls == 0
        assert len(run_ensemble(count=4, base_seed=0, jobs=1, **args).trajectories) == 4

    @pytest.mark.parametrize(
        "seed,message", [(1.7, "seed must be an integer, got 1.7"), (-1, "seed must be nonnegative")]
    )
    def test_a_non_integral_or_negative_seed_is_refused(self, monkeypatch, seed, message):
        spec, plugin = balls_in_bins_spec(100, lam=1e-3)
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(plugin, spec, seed)
        assert batches.calls == 0

    def test_a_solution_of_another_scale_or_dimension_is_refused(self, monkeypatch):
        """A solution is read at the run's n and dimension: one of another n
        or dimension is refused before any batch, by ``simulate`` and by
        ``run_ensemble``; one of another lambda or anchor is accepted."""
        spec, plugin = balls_in_bins_spec(2000, lam=0.02)
        own = solve_ode(spec)
        refused = {
            "n=4000, a=1; the spec n=2000, a=1":
                solve_ode(balls_in_bins_spec(4000, lam=0.02)[0]),
            "n=2000, a=4; the spec n=2000, a=1":
                solve_ode(degree_process_spec(2000, max_degree=3)[0]),
        }
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        for message, sol in refused.items():
            match = f"^ODE solution has {message}$"
            with pytest.raises(ValueError, match=match):
                simulate(plugin, spec, 1, solution=sol)
            with pytest.raises(ValueError, match=match):
                run_ensemble(plugin, spec, 4, 0, solution=[own, sol], jobs=2)
        assert batches.calls == 0
        other_lam = solve_ode(balls_in_bins_spec(2000, lam=0.05)[0])
        other_anchor = solve_ode(dataclasses.replace(spec, y_hat=(0.9,)))
        for sol in (other_lam, other_anchor):
            assert len(simulate(plugin, spec, 1, solution=sol).sup_deviation) == 1
        ens = run_ensemble(plugin, spec, 4, 0, solution=[own, other_lam, other_anchor])
        assert all(len(t.sup_deviation) == 3 for t in ens.trajectories)

    def test_a_raising_initial_state_fails_before_any_batch(self, monkeypatch):
        """A run's start is built once, before its batches: a raising
        ``initial_state`` ends the run in the calling process."""

        class NoStartBalls(BallsInBins):
            def initial_state(self):
                raise RuntimeError("no start")

        spec, _ = balls_in_bins_spec(100, lam=1e-3)
        batches = CallCounter(simulate_module._simulate_batch)
        monkeypatch.setattr(simulate_module, "_simulate_batch", batches)
        with pytest.raises(PluginCrashed, match=r"^NoStartBalls\.initial_state raised RuntimeError"):
            run_ensemble(NoStartBalls(100), spec, 4, 0, jobs=2)
        assert batches.calls == 0
