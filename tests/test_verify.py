import importlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ode_reference import reference_solve_ode
from scan_reference import reference_compute_RT
from test_ode import CallCounter
from test_simulate import (
    BAD_INTEGER_IDS, BAD_INTEGERS, DriftLiar, FairCoin, coin_spec, unpicklable
)

from demtrack import Constants, Domain, LambdaNotAdmissible, PluginCrashed, ProcessSpec
from demtrack.ode import _margin, compute_RT, lambda_threshold, solve_ode
from demtrack.processes import (
    BallsInBins,
    DegreeProcess,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
)
from demtrack.verify import (
    report_to_json,
    verify,
    verify_multi_anchor,
    within_bound,
)

# the module, which the package's ``verify`` function shadows
verify_module = importlib.import_module("demtrack.verify")

VERIFY_DOM = Domain(t_lo=-0.2, t_hi=1.0, lo=(0.05,), hi=(1.3,))


def small_balls(n=2000, lam=0.02):
    return balls_in_bins_spec(n, lam=lam, domain=VERIFY_DOM)


class BigStepPlugin(BallsInBins):
    """Balls-in-bins that occasionally jumps by 2, violating beta = 1."""

    name = "big-step"
    exact_drift = False

    def step(self, state, rng):
        u = rng.random()
        if u < 0.05 and state >= 2:
            return state - 2
        return state - 1 if u * self.n < state else state

    def drift(self, state):
        # exact for this modified chain
        p2 = 0.05 if state >= 2 else 0.0
        p1 = max(0.0, state / self.n - 0.05) if state >= 2 else state / self.n
        return (-(2 * p2 + p1),)

    def enumerate_transitions(self, state):
        out = []
        if state >= 2:
            out.append((0.05, state - 2))
            p1 = max(0.0, state / self.n - 0.05)
        else:
            p1 = state / self.n
        if p1 > 0:
            out.append((p1, state - 1))
        rest = 1.0 - sum(p for p, _ in out)
        if rest > 0:
            out.append((rest, state))
        return out


class InexactBalls(BallsInBins):
    """Balls-in-bins whose drift is not declared exact, so the kernel checks it."""

    exact_drift = False


class TestVerifyPlain:
    def test_balls_report_contents(self):
        spec, plugin = small_balls()
        report = verify(spec, plugin, 20, 99)
        c = report.constants
        assert report.mode == "plain"
        assert c.T == 1.0
        assert report.envelope == pytest.approx(3 * math.e * 0.02 * 2000, rel=1e-9)
        assert report.failure_probability == pytest.approx(
            2 * math.exp(-2000 * 0.02**2 / 8), rel=1e-12
        )
        assert report.failure_count == 0
        assert len(report.empirical_sup_deviations) == 20
        assert max(report.empirical_sup_deviations) < report.envelope
        assert not report.hypotheses_failed
        assert report.gw_final_inequality_holds
        assert within_bound(report)

    def test_reports_are_deterministic(self):
        spec, plugin = small_balls()
        r1 = verify(spec, plugin, 10, 5)
        r2 = verify(spec, plugin, 10, 5)
        assert r1.to_dict() == r2.to_dict()

    def test_greedy_matching_is_noise_free(self):
        spec, plugin = greedy_matching_spec(500, lam=0.02)
        report = verify(spec, plugin, 10, 1)
        assert report.failure_count == 0
        assert report.martingale_exceed_count == 0
        # deterministic drift: deviation is pure ODE discretization error
        assert max(report.empirical_sup_deviations) < 1e-6 * 500
        assert report.replay_checked == 10
        assert report.replay_failures == 0

    def test_lambda_refusal(self):
        spec, plugin = small_balls(n=2000, lam=0.02)
        tight = ProcessSpec(
            n=2000, drift=plugin.drift_field, L=1.0, delta=0.0, beta=1.0,
            lam=1e-5, y_hat=(1.0,), domain=VERIFY_DOM,
        )
        with pytest.raises(LambdaNotAdmissible, match="min"):
            verify(tight, plugin, 5, 0)

    def test_vacuous_sigma(self):
        # margin 3*e*0.25 far exceeds the anchor's 0.3 gap to the top face
        spec, plugin = small_balls(n=500, lam=0.25)
        report = verify(spec, plugin, 5, 0)
        assert report.vacuous
        assert report.failure_count == 0
        assert report.empirical_sup_deviations == ()
        assert within_bound(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sup_deviation_never_passes(self, bad):
        spec, plugin = small_balls(n=500)
        report = verify(spec, plugin, 5, 0)
        assert within_bound(report)
        poisoned = report.empirical_sup_deviations[:-1] + (bad,)
        assert not within_bound(replace(report, empirical_sup_deviations=poisoned))

    @pytest.mark.parametrize("lam", [0.02, 0.25], ids=["tracked", "vacuous"])
    @pytest.mark.parametrize("count,jobs", [(0, 1), (-2, 1), (3, 0), (3, -3)])
    def test_count_and_jobs_refused_before_the_scan(self, monkeypatch, lam, count, jobs):
        counters = count_calls(monkeypatch)
        spec, plugin = small_balls(n=500, lam=lam)  # lam = 0.25 makes sigma = 0
        what = "count" if count < 1 else "jobs"
        with pytest.raises(ValueError, match=f"{what} must be at least 1"):
            verify(spec, plugin, count, 0, jobs=jobs)
        with pytest.raises(ValueError, match=f"{what} must be at least 1"):
            verify_multi_anchor(spec, plugin, count, 0, [(1.0,)], jobs=jobs)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    @pytest.mark.parametrize("lam", [0.02, 0.25], ids=["tracked", "vacuous"])
    @pytest.mark.parametrize("argument,value,message", BAD_INTEGERS, ids=BAD_INTEGER_IDS)
    def test_non_integral_or_negative_arguments_refused_before_the_scan(
        self, monkeypatch, lam, argument, value, message
    ):
        counters = count_calls(monkeypatch)
        spec, plugin = small_balls(n=500, lam=lam)  # lam = 0.25 makes sigma = 0
        args = {"count": 3, "base_seed": 0, "jobs": 1, argument: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(spec, plugin, **args)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_multi_anchor(spec, plugin, anchors=[(1.0,)], **args)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    @pytest.mark.parametrize("lam", [0.02, 0.25], ids=["tracked", "vacuous"])
    @pytest.mark.parametrize(
        "plugin,message",
        [
            (BallsInBins(501), "plugin scale n=501 differs from spec n=500"),
            (DegreeProcess(500, max_degree=1), "plugin tracks 2 variables, spec expects 1"),
        ],
        ids=["scale", "dimension"],
    )
    def test_plugin_mismatch_refused_before_the_scan(self, monkeypatch, lam, plugin, message):
        counters = count_calls(monkeypatch)
        spec, _ = small_balls(n=500, lam=lam)  # lam = 0.25 makes sigma = 0
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(spec, plugin, 3, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_multi_anchor(spec, plugin, 3, 0, [(1.0,)])
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    @pytest.mark.parametrize("lam", [0.02, 0.25], ids=["tracked", "vacuous"])
    @pytest.mark.parametrize("argument", ["plugin", "spec", "event_predicate"])
    def test_an_unpicklable_input_is_refused_before_the_scan(self, monkeypatch, lam, argument):
        """With jobs > 1 the workers get the inputs by pickle: one that does
        not pickle is refused by name before the RT scan; jobs = 1 runs it."""
        counters = count_calls(monkeypatch)
        spec, plugin = small_balls(n=500, lam=lam)  # lam = 0.25 makes sigma = 0
        args = {"spec": spec, "plugin": plugin, "event_predicate": None}
        args[argument] = unpicklable(argument, spec)
        match = f"^{argument} must be picklable when jobs > 1: "
        with pytest.raises(ValueError, match=match):
            verify(count=3, base_seed=0, jobs=2, **args)
        if argument != "event_predicate":
            with pytest.raises(ValueError, match=match):
                verify_multi_anchor(args["spec"], args["plugin"], 3, 0, [(1.0,)], jobs=2)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0
        assert verify(count=3, base_seed=0, jobs=1, **args).count == 3

    def test_initial_condition_enforced(self, monkeypatch):
        counters = count_calls(monkeypatch)
        # Y(0) = n but anchor 0.9n: offset n/10 > lam*n; at lam = 0.25 sigma = 0
        for lam, y_hat in ((0.02, 0.9), (0.25, 0.4)):
            spec, plugin = small_balls(n=1000, lam=lam)
            with pytest.raises(ValueError, match="initial condition"):
                verify(replace(spec, y_hat=(y_hat,)), plugin, 3, 0)
        # refused before the RT scan or any simulation
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    def test_a_start_state_the_kernel_refuses_is_refused(self, monkeypatch):
        """Y(0) comes from the kernel's start rule: a fractional start state
        is refused, not truncated, even when every anchor is vacuous."""

        class HalfBalls(BallsInBins):
            def initial_state(self):
                return self.n + 0.5

        counters = count_calls(monkeypatch)
        spec, plugin = balls_in_bins_spec(1000, lam=0.05)
        with pytest.raises(PluginCrashed, match=r"^HalfBalls\.initial_state returned 1000\.5:"):
            verify(spec, HalfBalls(1000), 3, 0)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0
        assert verify(spec, plugin, 3, 0).vacuous

    def test_hypothesis_violations_surface(self):
        spec, _ = small_balls(n=400, lam=0.02)
        plugin = BigStepPlugin(400)
        report = verify(spec, plugin, 5, 3)
        assert report.hypotheses_failed
        assert report.bound_violation_count > 0
        assert report.trajectories_with_violations > 0

    def test_trend_check_reads_the_spec_field(self):
        # the plugin's drift and its own field agree, but the spec's F = -1.5y
        # is not the process's: every step of every trajectory is a trend
        # violation, since the kernel compares the drift with the spec's F
        spec = replace(small_balls(n=20_000)[0], drift=lambda t, y: -1.5 * np.asarray(y))
        report = verify(spec, InexactBalls(20_000), 8, 0)
        assert report.trend_violation_count == 8 * 20_000
        assert report.hypotheses_failed


POISON = st.sampled_from([math.nan, math.inf, -math.inf])


class PoisonedDecay:
    """y' = -y, replaced by ``value`` from time ``after`` on.

    With ``stacked`` it also takes stacked points; without, a stacked call
    raises and the scans fall back to one call per point.
    """

    def __init__(self, after, value, stacked):
        self.after, self.value, self.stacked = after, value, stacked

    def __call__(self, t, y):
        out = -np.asarray(y, dtype=float)
        if self.stacked:
            return np.where((np.asarray(t) >= self.after)[..., None], self.value, out)
        return np.full_like(out, self.value) if t >= self.after else out


def nan_past_03(t, y):
    # the balls field, NaN for t > 0.3 (single points only)
    y = np.asarray(y, dtype=float)
    return np.full_like(y, math.nan) if t > 0.3 else -y


class TestNonFinite:
    def spec(self):
        return ProcessSpec(
            n=2000, drift=nan_past_03, L=1.0, delta=0.0, beta=1.0, lam=0.02,
            y_hat=(1.0,), domain=VERIFY_DOM, plugin_name="balls-in-bins",
        )

    def test_nan_drift_past_a_time_never_passes(self, monkeypatch):
        # no R bounds a field that is NaN on part of the box: the spec is
        # refused before any simulation
        counters = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"not finite at the RT scan point t=0\.314"):
            verify(self.spec(), BallsInBins(2000), 5, 0)
        assert counters["compute_RT"].calls == 1
        assert counters["run_ensemble"].calls == 0

    def test_nan_path_halts_at_its_first_nan_row(self):
        # given an R anyway, the ODE path halts at its first NaN row, as at a
        # margin exit: the step into t > 0.3 evaluates the field there
        sol = solve_ode(self.spec(), R=2.0, T=1.0)
        assert np.isfinite(sol.ys[:-1]).all() and np.isnan(sol.ys[-1]).all()
        assert sol.ts[-2] <= 0.3 < sol.ts[-1]
        assert sol.sigma == sol.ts[-2]

    @settings(max_examples=40, deadline=None)
    @given(
        after=st.floats(-0.3, 1.2),
        value=POISON,
        stacked=st.booleans(),
        count=st.integers(1, 3),
    )
    def test_poisoned_field(self, after, value, stacked, count):
        """A field that is NaN or infinite from time ``after`` on."""
        field = PoisonedDecay(after, value, stacked)
        spec = replace(small_balls(n=1000)[0], drift=field)
        try:
            reference_compute_RT(spec)
            message = None
        except ValueError as exc:
            message = str(exc)
        # the scan's time axis ends at t = 1.0, so it meets the poison iff after <= 1
        assert (message is None) == (after > 1.0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            counters = count_calls(monkeypatch)
            if message is None:
                verify(spec, BallsInBins(1000), count, 0)
                assert counters["run_ensemble"].calls == 1
            else:
                for run in (compute_RT, lambda s: verify(s, BallsInBins(1000), count, 0)):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        run(spec)
                assert counters["run_ensemble"].calls == 0
        # given an R anyway, the path halts at its first non-finite row, as at a
        # margin exit, and sigma ends before it
        got, want = solve_ode(spec, 2.0, 1.0), reference_solve_ode(spec, 2.0, 1.0)
        assert got.ts.tobytes() == want.ts.tobytes()
        assert got.ys.tobytes() == want.ys.tobytes()
        assert got.constants == want.constants
        finite = np.isfinite(got.ys).all(axis=1)
        assert finite[:-1].all()
        if not finite[-1]:
            assert got.sigma < got.ts[-1] and got.ts[-1] >= after

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(
            ["L", "delta", "beta", "lam", "y_hat", "avg_step_bound", "trunc_gamma",
             "trunc_bound", "trunc_x", "t_lo", "t_hi", "lo", "hi"]
        ),
        value=POISON,
    )
    def test_poisoned_spec_number(self, name, value):
        spec = small_balls()[0]
        with pytest.raises(ValueError, match="must be finite"):
            if name in ("t_lo", "t_hi", "lo", "hi"):
                replace(spec.domain, **{name: (value,) if name in ("lo", "hi") else value})
            else:
                replace(spec, **{name: (value,) if name == "y_hat" else value})



class TestModes:
    def test_truncated_degenerate_matches_plain_bitwise(self):
        spec, plugin = small_balls()
        trunc_spec = ProcessSpec(
            n=spec.n, drift=plugin.drift_field, L=spec.L, delta=spec.delta,
            beta=spec.beta, lam=spec.lam, y_hat=spec.y_hat, domain=spec.domain,
            plugin_name=spec.plugin_name,
            trunc_gamma=0.0, trunc_bound=spec.beta, trunc_x=0.0,
        )
        plain = verify(spec, plugin, 10, 42).to_dict()
        trunc = verify(trunc_spec, plugin, 10, 42, mode="truncated").to_dict()
        assert trunc.pop("mode") == "truncated"
        assert plain.pop("mode") == "plain"
        assert trunc == plain  # numbers identical bit for bit

    def test_averaged_uses_plugin_declared_bound(self):
        spec, plugin = small_balls()
        report = verify(spec, plugin, 10, 7, mode="averaged")
        b = plugin.avg_step_bound(spec)
        from demtrack.bounds import freedman_failure_probability

        want = freedman_failure_probability(1, spec.n, spec.lam, 1.0, 1.0, b)
        assert report.failure_probability == want
        assert report.mode == "averaged"

    def test_averaged_spec_override(self):
        spec, plugin = small_balls()
        override = ProcessSpec(
            n=spec.n, drift=plugin.drift_field, L=spec.L, delta=spec.delta,
            beta=spec.beta, lam=spec.lam, y_hat=spec.y_hat, domain=spec.domain,
            avg_step_bound=0.5,
        )
        report = verify(override, plugin, 5, 7, mode="averaged")
        from demtrack.bounds import freedman_failure_probability

        assert report.failure_probability == freedman_failure_probability(
            1, spec.n, spec.lam, 1.0, 1.0, 0.5
        )

    @pytest.mark.parametrize(
        "mode,message",
        [
            ("averaged", "averaged mode needs extensions.b"),
            ("truncated", "truncated mode needs extensions.gamma and extensions.B"),
        ],
    )
    def test_undeclared_mode_parameters_refused_before_the_scan(self, monkeypatch, mode, message):
        # FairCoin declares neither avg_step_bound nor truncation, and the
        # spec has no extensions
        counters = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(coin_spec(n=100), FairCoin(100), 3, 0, mode=mode)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    @pytest.mark.parametrize(
        "mode,extensions,key",
        [
            ("averaged", {"avg_step_bound": 0.0}, "b"),
            ("averaged", {"avg_step_bound": -0.5}, "b"),
            # B < 0 would lower lambda_threshold and admit an inadmissible lambda
            ("truncated", {"trunc_gamma": 0.1, "trunc_bound": -3.0, "trunc_x": 0.0}, "B"),
            ("truncated", {"trunc_gamma": -0.1, "trunc_bound": 1.0, "trunc_x": 0.0}, "gamma"),
            ("truncated", {"trunc_gamma": 1.5, "trunc_bound": 1.0, "trunc_x": 0.0}, "gamma"),
            ("truncated", {"trunc_gamma": 0.1, "trunc_bound": 1.0, "trunc_x": -1.0}, "x"),
        ],
    )
    def test_out_of_range_mode_parameters_refused_before_the_scan(
        self, monkeypatch, mode, extensions, key
    ):
        spec, plugin = small_balls(lam=0.05)
        counters = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=rf"^extensions\.{key} must be "):
            verify(replace(spec, **extensions), plugin, 4, 0, mode=mode)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    @pytest.mark.parametrize("mode,key", [("averaged", "b"), ("truncated", "B")])
    def test_out_of_range_declared_parameters_refused_before_the_scan(self, monkeypatch, mode, key):
        class Overdeclared(BallsInBins):
            def avg_step_bound(self, spec):
                return 0.0

            def truncation(self, spec):
                return 0.1, -3.0

        spec, _ = small_balls(lam=0.05)
        counters = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=rf"^extensions\.{key} must be "):
            verify(replace(spec, trunc_x=0.0), Overdeclared(spec.n), 4, 0, mode=mode)
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0

    def test_truncated_takes_the_degree_process_declaration(self):
        # DegreeProcess declares gamma = 0 and B = beta: with the budget x = 0
        # the truncated report is the plain one, bit for bit
        spec, plugin = degree_process_spec(1000, max_degree=1)
        plain = verify(spec, plugin, 4, 5).to_dict()
        trunc = verify(replace(spec, trunc_x=0.0), plugin, 4, 5, mode="truncated").to_dict()
        assert (trunc.pop("mode"), plain.pop("mode")) == ("truncated", "plain")
        assert trunc == plain

    def test_truncated_needs_budget(self):
        spec, plugin = small_balls()
        with pytest.raises(ValueError, match="x"):
            verify(spec, plugin, 5, 0, mode="truncated")

    def test_unknown_mode(self):
        spec, plugin = small_balls()
        with pytest.raises(ValueError, match="mode"):
            verify(spec, plugin, 5, 0, mode="bayesian")


class TestSideEvents:
    def test_predicate_relabels_and_truncates(self):
        spec, plugin = small_balls(n=1000)
        free = verify(spec, plugin, 8, 11)
        capped = verify(
            spec, plugin, 8, 11, event_predicate=lambda i, y: i < 100
        )
        assert capped.mode == "side-events"
        assert capped.event_predicate_active
        assert capped.event_stops == (100,) * 8
        for a, b in zip(capped.empirical_sup_deviations, free.empirical_sup_deviations):
            assert a <= b

    def test_predicate_preserves_failure_bound(self):
        spec, plugin = small_balls(n=1000)
        free = verify(spec, plugin, 4, 11)
        capped = verify(spec, plugin, 4, 11, event_predicate=lambda i, y: True)
        assert capped.failure_probability == free.failure_probability


class TestMultiAnchor:
    def test_single_anchor_matches_verify(self):
        spec, plugin = small_balls(n=1000)
        solo = verify(spec, plugin, 6, 3)
        multi = verify_multi_anchor(spec, plugin, 6, 3, [spec.y_hat])
        assert len(multi) == 1
        got, want = multi[0].to_dict(), solo.to_dict()
        assert got.pop("anchor") == [1.0]
        assert got == want

    def test_shifted_anchors_all_pass(self):
        spec, plugin = small_balls(n=1000, lam=0.02)
        offs = 0.5 * spec.lam
        reports = verify_multi_anchor(
            spec, plugin, 6, 3, [(1.0 - offs,), (1.0,), (1.0 + offs,)]
        )
        assert len(reports) == 3
        for rep in reports:
            assert rep.failure_count == 0
        # same realizations compared against different reference curves
        devs = {rep.empirical_sup_deviations for rep in reports}
        assert len(devs) == 3

    def test_no_anchor_rejected(self):
        spec, plugin = small_balls(n=1000)
        with pytest.raises(ValueError, match="^need at least one anchor$"):
            verify_multi_anchor(spec, plugin, 3, 0, [])

    def test_anchor_outside_domain_rejected(self):
        spec, plugin = small_balls(n=1000)
        with pytest.raises(ValueError, match="anchor 1"):
            verify_multi_anchor(spec, plugin, 3, 0, [(1.0,), (2.0,)])

    def test_anchor_wrong_dimension_rejected(self):
        spec, plugin = small_balls(n=1000)
        with pytest.raises(ValueError, match="anchor 1: y_hat dimension"):
            verify_multi_anchor(spec, plugin, 3, 0, [(1.0,), (1.0, 0.0)])

    def test_non_numeric_anchor_rejected_with_index(self):
        spec, plugin = degree_process_spec(1000, max_degree=3)
        with pytest.raises(ValueError, match="anchor 1: must be real number"):
            verify_multi_anchor(spec, plugin, 3, 0, [(1, 0, 0, 0), ("x", 0, 0, 0)])

    def test_anchor_offset_too_large_rejected(self, monkeypatch):
        counters = count_calls(monkeypatch)
        spec, plugin = small_balls(n=1000, lam=0.02)
        with pytest.raises(ValueError, match="anchor 1 violates the initial condition"):
            verify_multi_anchor(spec, plugin, 3, 0, [(1.0,), (1.0 - 2 * 0.02,)])
        assert counters["compute_RT"].calls == counters["run_ensemble"].calls == 0


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path):
        spec, plugin = small_balls(n=500)
        report = verify(spec, plugin, 5, 9)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert loaded["schema"] == 1

    def test_numpy_integers_give_a_report_of_ints(self, tmp_path):
        spec, plugin = small_balls(n=500)
        report = verify(spec, plugin, np.int64(3), np.int64(9))
        assert type(report.count) is int and type(report.base_seed) is int
        assert report == verify(spec, plugin, 3, 9)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_failure_probability_not_clamped_in_report(self):
        # small n makes the bound formula exceed 1; report it as computed
        spec, plugin = greedy_matching_spec(100, lam=0.05)
        report = verify(spec, plugin, 3, 0)
        assert report.failure_probability > 1.0
        assert 0.0 <= report.failure_probability <= 2 * spec.a


def test_envelope_dominance_for_builtin_plugins():
    cases = [
        small_balls(n=2000, lam=0.02),
        degree_process_spec(1000, max_degree=3, lam=0.05),
        greedy_matching_spec(500, lam=0.05),
    ]
    for spec, plugin in cases:
        report = verify(spec, plugin, 30, 17)
        assert within_bound(report), (spec.plugin_name, report.failure_count)


def count_calls(monkeypatch):
    """Count the verify module's calls of compute_RT and run_ensemble."""
    counters = {}
    for name in ("compute_RT", "run_ensemble"):
        counters[name] = CallCounter(getattr(verify_module, name))
        monkeypatch.setattr(verify_module, name, counters[name])
    return counters


def anchored_case(kind):
    """(spec, plugin, anchors): anchor 1 sits too near the top face, so sigma = 0.

    The paths from anchors 0 and 2 reach the bottom face's margin before T at
    different times, so they are tracked up to different caps.
    """
    if kind == "degree":
        dom = Domain(t_lo=-0.3, t_hi=0.2, lo=(0.753, -0.3, -0.3), hi=(1.07, 1.3, 1.3))
        spec, plugin = degree_process_spec(2000, max_degree=2, lam=0.01, domain=dom)
        return spec, plugin, [(0.995, 0.0, 0.0), (1.005, 0.0, 0.0), (1.0, 0.004, 0.0)]
    dom = Domain(t_lo=-0.2, t_hi=1.0, lo=(0.35,), hi=(1.085,))
    spec, plugin = balls_in_bins_spec(2000, lam=0.01, domain=dom)
    if kind == "liar":
        plugin = DriftLiar(2000)
    return spec, plugin, [(0.995,), (1.005,), (1.0,)]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["balls", "degree", "liar"])
def test_each_anchor_report_equals_verify(kind, jobs, monkeypatch):
    spec, plugin, anchors = anchored_case(kind)
    counters = count_calls(monkeypatch)
    reports = verify_multi_anchor(spec, plugin, 5, 8, anchors, jobs=jobs)
    assert counters["compute_RT"].calls == 1
    assert counters["run_ensemble"].calls == 1
    assert [r.vacuous for r in reports] == [False, True, False]
    assert 0 < reports[0].constants.sigma < reports[2].constants.sigma < spec.domain.t_hi
    if kind == "liar":
        assert all(r.trend_violation_count > 0 for r in reports if not r.vacuous)
    for anchor, report in zip(anchors, reports):
        want = verify(replace(spec, y_hat=anchor), plugin, 5, 8, jobs=jobs)
        assert report.to_dict() == {**want.to_dict(), "anchor": list(anchor)}


def before_step_300(i, y):
    """An event predicate that pickles, for jobs > 1."""
    return i < 300


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_keeps_only_start_and_stop_records(jobs, monkeypatch):
    """The reports read only what the kernel reduces online, so every
    trajectory that verify and verify_multi_anchor simulate keeps two
    records: step 0 and its stop."""
    simulated = []

    def spy(*args, **kwargs):
        ens = real(*args, **kwargs)
        simulated.extend(ens.trajectories)
        return ens

    real = verify_module.run_ensemble
    monkeypatch.setattr(verify_module, "run_ensemble", spy)
    spec, plugin = small_balls(n=1000)
    verify(spec, plugin, 4, 5, jobs=jobs)
    verify(spec, BigStepPlugin(1000), 3, 6, event_predicate=before_step_300, jobs=jobs)
    for kind in ("degree", "liar"):
        spec, plugin, anchors = anchored_case(kind)
        verify_multi_anchor(spec, plugin, 5, 8, anchors, jobs=jobs)
    assert len(simulated) == 4 + 3 + 5 + 5
    for traj in simulated:
        assert 0 < traj.stop_index
        assert traj.indices.tolist() == [0, traj.stop_index]
        assert traj.steps.shape == traj.drifts.shape == (2, len(traj.steps[0]))
        assert np.isnan(traj.drifts[1]).all()


def all_m_gw_final_inequality(spec: ProcessSpec, c: Constants) -> bool:
    """The Gronwall check as it was first written: in counts, at every m <= min(T, sigma)*n."""
    n = spec.n
    horizon_n = T_n = c.T * n
    if spec.L > 0:
        horizon_n = min(T_n, n / spec.L)
    lhs_base = 2.0 * spec.lam * n + (c.R + spec.delta * horizon_n)
    rhs = 3.0 * spec.lam * n * math.exp(spec.L * c.T)
    ms = np.arange(min(math.floor(T_n), math.floor(c.sigma * n + 1e-9)) + 1)
    return bool(np.all(lhs_base * np.exp(spec.L * ms / n) <= rhs))


@pytest.mark.parametrize(
    "spec",
    [
        small_balls()[0],
        small_balls(n=20_000, lam=0.005)[0],
        balls_in_bins_spec(10_000)[0],
        degree_process_spec(1000, max_degree=3, lam=0.05)[0],
        degree_process_spec(10_000)[0],
        greedy_matching_spec(500, lam=0.05)[0],
        anchored_case("degree")[0],
        anchored_case("balls")[0],
    ],
    ids=lambda spec: f"{spec.plugin_name}-{spec.n}",
)
def test_gw_final_inequality_equals_the_all_m_form_on_builtins(spec):
    c = solve_ode(spec).constants
    assert verify_module._gw_final_inequality(spec, c) == all_m_gw_final_inequality(spec, c)


def gw_case(n, L, delta, R, T, sigma_frac, lam_factor):
    """(spec, constants) with lam = lam_factor * threshold and sigma = sigma_frac * T."""
    dom = Domain(t_lo=-0.1, t_hi=T, lo=(0.0,), hi=(1.0,))
    spec = ProcessSpec(
        n=n, drift=lambda t, y: -y, L=L, delta=delta, beta=1.0, lam=1.0, y_hat=(0.5,),
        domain=dom,
    )
    lam = lambda_threshold(spec, R, T) * lam_factor
    spec = replace(spec, lam=lam)
    return spec, Constants(R=R, T=T, sigma=sigma_frac * T, margin=_margin(L, T, lam))


gw_params = dict(
    n=st.integers(1, 10**6),
    L=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    delta=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
    R=st.floats(1.0, 10.0),
    T=st.floats(0.01, 3.0),
    sigma_frac=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
)


@given(lam_factor=st.floats(1.0 + 1e-6, 10.0), **gw_params)
@settings(max_examples=100, deadline=None)
def test_gw_final_inequality_equals_the_all_m_form_when_admissible(lam_factor, **params):
    spec, c = gw_case(lam_factor=lam_factor, **params)
    holds = verify_module._gw_final_inequality(spec, c)
    assert holds == all_m_gw_final_inequality(spec, c)
    assert holds


@given(**gw_params)
# sigma = T just below 2: sigma*n + 1e-9 passes 2, T*n does not
@example(n=1, L=1.0, delta=0.0, R=1.0, T=1.9999999999999996, sigma_frac=1.0)
@settings(max_examples=100, deadline=None)
def test_gw_final_inequality_holds_at_the_threshold(**params):
    """At lam = threshold the last step's inequality holds with equality when
    L*(T - m/n) = 0. There the all-m form decides by the rounding of its
    products, either way; wherever the exponent leaves room, the two agree."""
    spec, c = gw_case(lam_factor=1.0, **params)
    assert verify_module._gw_final_inequality(spec, c)
    if spec.L * (c.T - c.steps(spec.n) / spec.n) > 1e-9:
        assert all_m_gw_final_inequality(spec, c)
