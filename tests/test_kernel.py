"""The lockstep kernel against the scalar reference loop it replaced."""

import collections
import dataclasses
import functools
import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from demtrack import Domain, PluginCrashed, ProcessSpec
from demtrack.ode import compute_RT, solve_ode
from demtrack.processes import (
    BallsInBins,
    DegreeProcess,
    GreedyMatching,
    ProcessPlugin,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
)
from demtrack.simulate import derive_seed, doob_decompose, run_ensemble
from demtrack.verify import verify
from scalar_reference import SCALAR_TWINS, reference_simulate, scalar_twin
from test_simulate import DriftLiar, FairCoin, coin_spec
from test_verify import BigStepPlugin

simulate = importlib.import_module("demtrack.simulate")  # the module, not the function

KINDS = ("balls", "degree", "matching", "coin", "liar", "bigstep")
# plugins whose step raises: inside the box (flaky), only past it (late-crash),
# and a drift liar that also breaks a beta of 0.5 (crash-liar)
CRASHING = ("flaky", "late-crash", "crash-liar")
# (block, span, draw) lengths that put every kernel edge on a block, a span
# or a draw boundary: stride > span for n of 900-2500, failures and exits in
# the first or last pass of a block or a span, horizons inside a span's last
# block; spans of one block and of several, the default block and a longer
# span; uniforms drawn one span at a time, and several spans at a time with
# horizons and rows' stops inside a draw (whose rows are then compacted). A
# case is named by its span, with its block in front when that is not the
# default min(span, 128), and the spans per draw behind when more than one.
SPANS = (
    (1, 1, 1), (2, 2, 2), (3, 3, 3), (7, 7, 7), (128, 128, 128), (128, 256, 256),
    (1, 7, 7), (3, 9, 9), (2, 128, 128), (1, 1, 5), (3, 9, 27), (2, 128, 512),
)
SPAN_IDS = [
    (str(s) if b == min(s, 128) else f"{b}-{s}") + (f"x{d // s}" if d > s else "")
    for b, s, d in SPANS
]


def set_span(mp, block, span, count, draw):
    """Make the kernel step ``block`` steps at a time, reduce every ``span``
    steps in a batch of ``count`` rows and draw uniforms for ``draw`` steps at
    a time; ``block`` divides ``span`` and ``span`` divides ``draw``."""
    mp.setattr(simulate, "_BLOCK_STEPS", block)
    mp.setattr(simulate, "_SPAN_ROW_STEPS", span * count)
    mp.setattr(simulate, "_DRAW_STEPS", draw)


class StepCutoff:
    """Event predicate that fails from step ``cut`` on (picklable for jobs > 1)."""

    def __init__(self, cut):
        self.cut = cut

    def __call__(self, i, y):
        return i < self.cut


class CountFloor:
    """Event predicate that fails once Y_0 drops below ``level``."""

    def __init__(self, level):
        self.level = level

    def __call__(self, i, y):
        return y[0] >= self.level


class FlakyCoin(FairCoin):
    """Fair coin whose step raises once the walk reaches +3."""

    name = "flaky-coin"

    def step(self, state, rng):
        if state >= 3:
            raise RuntimeError("flaky")
        return super().step(state, rng)


class LateCrashCoin(FairCoin):
    """Fair coin whose step raises only once the walk is outside the box.

    The kernel steps a row past its stop to the end of the block, so the
    raise comes in the block of the exit; the row must still stop normally.
    """

    name = "late-crash-coin"

    def __init__(self, n, width):
        super().__init__(n)
        self.width = width
        self.raised = 0

    def step(self, state, rng):
        if not -self.width < state / self.n < self.width:
            self.raised += 1
            raise RuntimeError("stepped past the exit")
        return super().step(state, rng)


class CrashingLiar(DriftLiar):
    """DriftLiar whose step raises once a fifth of the bins are filled."""

    name = "crashing-liar"

    def step(self, state, rng):
        if 5 * state < 4 * self.n:
            raise RuntimeError("crash")
        return super().step(state, rng)


def zero_field(t, y):
    return np.zeros(1)


def make_case(kind, n, tight):
    """(spec, plugin); ``tight`` narrows the box so trajectories exit early.

    Each lambda keeps sigma > 0, so deviations and the replay chain are
    tracked over a nonempty range, and is admissible for n >= 800.
    """
    if kind in ("balls", "liar", "bigstep", "crash-liar"):
        lo = 0.6 if tight else 0.05
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(lo,), hi=(1.1,))
        spec, plugin = balls_in_bins_spec(n, lam=0.005, domain=dom)
        if kind == "liar":
            plugin = DriftLiar(n)
        elif kind == "bigstep":
            plugin = BigStepPlugin(n)
        elif kind == "crash-liar":
            spec, plugin = dataclasses.replace(spec, beta=0.5), CrashingLiar(n)
        return spec, plugin
    if kind == "degree":
        lo0 = 0.7 if tight else -0.3
        dom = Domain(t_lo=-0.3, t_hi=0.5, lo=(lo0, -0.3, -0.3), hi=(1.3,) * 3)
        return degree_process_spec(n, max_degree=2, lam=0.005, domain=dom)
    if kind == "matching":
        n += n % 2
        t_hi = 0.2 if tight else 0.45
        dom = Domain(t_lo=-0.1, t_hi=t_hi, lo=(0.05,), hi=(1.1,))
        return greedy_matching_spec(n, lam=0.01, domain=dom)
    width = 0.2 if tight else 0.45
    dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(-width,), hi=(width,))
    spec = ProcessSpec(
        n=n, drift=zero_field, L=0.0, delta=0.0, beta=1.0, lam=0.02,
        y_hat=(0.0,), domain=dom,
    )
    if kind == "flaky":
        return spec, FlakyCoin(n)
    if kind == "late-crash":
        return spec, LateCrashCoin(n, width)
    return spec, FairCoin(n)


@functools.cache
def case_RT(kind, tight):
    """compute_RT of a case; it depends on the box and the field, not on n."""
    return compute_RT(make_case(kind, 1000, tight)[0])


def assert_same_trajectory(got, want):
    """Every field equal, but ``violations``: the kernel keeps the first
    ``_EXAMPLES`` of them. The scalar reference keeps them all, and counts
    (``violation_counts``, ``in_range_violations``) and flags them from
    that full list."""
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if f.name == "violations":
            assert x == y[: simulate._EXAMPLES], f.name
        elif isinstance(y, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert x.shape == y.shape, f.name
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert type(x) is type(y), f.name
            assert x == y, f.name


predicates = st.one_of(
    st.none(),
    st.builds(StepCutoff, st.integers(0, 400)),
    st.builds(CountFloor, st.integers(0, 2000)),
)


@pytest.mark.parametrize("block,span,draw", SPANS, ids=SPAN_IDS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(KINDS + CRASHING),
    n=st.one_of(st.integers(2, 60), st.integers(900, 2500)),
    tight=st.booleans(),
    count=st.integers(1, 9),
    base_seed=st.integers(0, 2**32 - 1),
    full_paths=st.booleans(),
    tracked=st.sampled_from(("none", "solution", "replay")),
    predicate=predicates,
)
def test_kernel_matches_scalar_reference(
    monkeypatch, block, span, draw, kind, n, tight, count, base_seed, full_paths, tracked, predicate
):
    set_span(monkeypatch, block, span, count, draw)
    spec, plugin = make_case(kind, n, tight)
    solution = None
    if tracked != "none":
        solution = solve_ode(spec, *case_RT(kind, tight))
    replay = tracked == "replay"
    ens = run_ensemble(
        plugin, spec, count, base_seed, predicate,
        solution=solution, full_paths=full_paths, replay_check=replay,
    )
    assert len(ens) == count
    # the built-ins run their array code in the kernel, their scalar twins here
    reference = scalar_twin(plugin) if type(plugin) in SCALAR_TWINS else plugin
    for idx, traj in enumerate(ens.trajectories):
        want = reference_simulate(
            reference, spec, derive_seed(base_seed, idx), solution=solution,
            full_paths=full_paths, event_predicate=predicate, replay_check=replay,
        )
        assert_same_trajectory(traj, want)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(800, 1500),
    count=st.integers(1, 9),
    base_seed=st.integers(0, 2**32 - 1),
    predicate=predicates,
)
def test_report_independent_of_jobs(kind, n, count, base_seed, predicate):
    spec, plugin = make_case(kind, n, tight=False)
    one = verify(spec, plugin, count, base_seed, event_predicate=predicate, jobs=1)
    two = verify(spec, plugin, count, base_seed, event_predicate=predicate, jobs=2)
    assert one.to_dict() == two.to_dict()


@pytest.mark.parametrize(
    "case",
    [lambda: degree_process_spec(1200, max_degree=3), lambda: make_case("balls", 1200, False)],
    ids=["degree-a4", "balls"],
)
def test_records_independent_of_jobs_and_layout(case):
    """Records are coordinate-major views: pickled from a worker, they equal
    the jobs=1 records in dtype, shape and values, and ``doob_decompose``
    gives the same bytes on them as on C-contiguous copies."""
    spec, plugin = case()
    one, two = (
        run_ensemble(plugin, spec, 5, 3, full_paths=True, jobs=jobs) for jobs in (1, 2)
    )
    for got, want in zip(two.trajectories, one.trajectories):
        for name in ("indices", "steps", "drifts"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
            assert not y.flags.writeable
        copied = dataclasses.replace(
            want, steps=np.ascontiguousarray(want.steps), drifts=np.ascontiguousarray(want.drifts)
        )
        assert doob_decompose(want).tobytes() == doob_decompose(copied).tobytes()
    assert one.trajectories[0].steps.shape[1] == spec.a


def test_failing_rows_leave_the_others_running():
    spec = coin_spec(n=400)
    plugin = FlakyCoin(400)
    ens = run_ensemble(plugin, spec, 12, 5)
    valid = [t.valid for t in ens.trajectories]
    assert any(valid) and not all(valid)
    for idx, traj in enumerate(ens.trajectories):
        assert_same_trajectory(traj, reference_simulate(plugin, spec, derive_seed(5, idx)))


def test_sliced_and_masked_spans_in_one_batch(monkeypatch):
    """Spans where no row stops, where a path's cap falls and where a row
    stops, in one batch, give the scalar reference's trajectories, path by
    path: each reducer clears what lies past a stop or a cap and reduces the
    whole plane, and a row that goes on counts its last position again as
    the next span's first. Two paths' caps, steps 200 and 444, fall inside
    the spans 196..203 and 441..448, where no row stops (the first stop is
    493), and a row leaves the box at step 504, the last position of the
    span 497..504."""
    n, span, count, base_seed = 1000, 7, 9, 0
    set_span(monkeypatch, span, span, count, span)
    spec, plugin = make_case("balls", n, tight=True)
    R, T = case_RT("balls", True)
    solutions = [solve_ode(spec, R, T), solve_ode(spec, R, 0.2)]
    assert [s.constants.steps(n) for s in solutions] == [444, 200]
    ens = run_ensemble(plugin, spec, count, base_seed, solution=solutions, replay_check=True)
    stops = sorted(t.stop_index for t in ens.trajectories)
    assert stops[0] == 493 and 504 in stops and max(stops) < 1000
    per_path = ("sup_deviation", "deviation_cap", "replay_ok", "in_range_violations")
    for idx, traj in enumerate(ens.trajectories):
        want = [
            reference_simulate(
                scalar_twin(plugin), spec, derive_seed(base_seed, idx), solution=sol,
                replay_check=True,
            )
            for sol in solutions
        ]
        for name in per_path:
            assert getattr(traj, name) == sum((getattr(w, name) for w in want), ())
        assert_same_trajectory(
            dataclasses.replace(traj, **{name: None for name in per_path}),
            dataclasses.replace(want[0], **{name: None for name in per_path}),
        )
    assert not all(all(t.replay_ok) for t in ens.trajectories)


@pytest.mark.parametrize("block,span,draw", SPANS, ids=SPAN_IDS)
def test_step_raising_past_the_exit_is_a_normal_stop(monkeypatch, block, span, draw):
    set_span(monkeypatch, block, span, 12, draw)
    # the box is |Y| < 5, so every exit is at an odd step
    spec, plugin = make_case("late-crash", 25, tight=True)
    ens = run_ensemble(plugin, spec, 12, 3)
    assert all(t.valid and t.error_step is None for t in ens.trajectories)
    assert any(t.stop_index < 25 for t in ens.trajectories)  # exits, not the horizon
    # a row is stepped past its exit only when the exit is not a span's last step
    assert (plugin.raised > 0) == (span > 1)


@pytest.mark.parametrize("block,span,draw", SPANS, ids=SPAN_IDS)
def test_crash_keeps_its_trend_violation_and_no_bound_violation(monkeypatch, block, span, draw):
    set_span(monkeypatch, block, span, 5, draw)
    spec, plugin = make_case("crash-liar", 200, tight=False)
    ens = run_ensemble(plugin, spec, 5, 8)
    for traj in ens.trajectories:
        f = traj.error_step
        assert not traj.valid and f is not None
        # n = 200 keeps every step: the last record is the crash's, with
        # its trend violation and no bound violation
        assert traj.is_full and traj.indices[-1] == f
        assert traj.flags[-1] == 1
        assert traj.violation_counts[1] > 0


LIES_ABOVE = np.array((0.9, 0.05))


class SinglePointField:
    """Mixin for a built-in whose drift is not declared exact, and whose field
    takes single points only, lies by 0.5 in coordinate k where y_k >
    LIES_ABOVE[k], and returns ``shape``: () is a float, None is (a,)."""

    exact_drift = False
    shape = None

    def drift_field(self, t, y):
        if np.ndim(t):
            raise TypeError("single points only")
        out = super().drift_field(t, y) + 0.5 * (y > LIES_ABOVE[: len(y)])
        if self.shape is None:
            return out
        return float(out[0]) if self.shape == () else out.reshape(self.shape)


class BallsField(SinglePointField, BallsInBins):
    pass


class DegreeField(SinglePointField, DegreeProcess):
    pass


@pytest.mark.parametrize("shape", [(), (1, 1), (1, 2)], ids=["float", "1x1", "1x2"])
def test_single_point_field_outputs_are_read_in_the_point_shape(shape):
    """A spec's field that returns a float or a (1, a) array for a point gives
    the trend violations of the per-point reference on its (a,) twin's field,
    in every coordinate k < a and in no other."""
    n, count, base_seed = 300, 4, 2
    if shape == (1, 2):
        spec, _ = degree_process_spec(n, max_degree=1, lam=0.01)
        plugin, twin = DegreeField(n, max_degree=1), DegreeField(n, max_degree=1)
    else:
        spec, _ = balls_in_bins_spec(n, lam=0.01)
        plugin, twin = BallsField(n), BallsField(n)
    spec = dataclasses.replace(spec, delta=0.01, drift=plugin.drift_field)
    twin_spec = dataclasses.replace(spec, drift=twin.drift_field)
    plugin.shape = shape
    ens = run_ensemble(plugin, spec, count, base_seed)
    for idx, traj in enumerate(ens.trajectories):
        want = reference_simulate(twin, twin_spec, derive_seed(base_seed, idx))
        assert_same_trajectory(traj, want)
        assert {v.k for v in want.violations if v.kind == "trend"} == set(range(spec.a))


class NanFieldCoin(FairCoin):
    name = "nan-field-coin"

    def drift_field(self, t, y):
        return np.full(1, math.nan)


def test_a_nan_field_is_a_trend_violation_at_every_step():
    spec, base_seed = coin_spec(n=200), 1
    spec = dataclasses.replace(spec, drift=NanFieldCoin(200).drift_field)
    ens = run_ensemble(NanFieldCoin(200), spec, 4, base_seed)
    for idx, traj in enumerate(ens.trajectories):
        assert traj.violation_counts == (traj.stop_index, 0)
        assert [v.i for v in traj.violations] == list(range(min(16, traj.stop_index)))
        for v in traj.violations:
            assert v.kind == "trend" and v.k == 0 and math.isnan(v.observed)
        want = reference_simulate(NanFieldCoin(200), spec, derive_seed(base_seed, idx))
        assert [v.i for v in want.violations] == list(range(traj.stop_index))
        assert [(v.i, v.k) for v in want.violations[:16]] == [(v.i, v.k) for v in traj.violations]


class LoggedPredicate:
    """Event predicate that records each call and fails from step ``cut`` on."""

    def __init__(self, cut):
        self.cut = cut
        self.calls = []

    def __call__(self, i, y):
        self.calls.append((i, y))
        return i < self.cut


@pytest.mark.parametrize("block,span,draw", SPANS, ids=SPAN_IDS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(KINDS + CRASHING),
    n=st.integers(2, 300),
    tight=st.booleans(),
    count=st.integers(1, 6),
    base_seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 400),
)
def test_predicate_sees_each_step_once_up_to_the_stop(
    monkeypatch, block, span, draw, kind, n, tight, count, base_seed, cut
):
    """Each row's calls are i = 0..min(stop, first failure), in step order."""
    set_span(monkeypatch, block, span, count, draw)
    spec, plugin = make_case(kind, n, tight)
    predicate = LoggedPredicate(cut)
    ens = run_ensemble(plugin, spec, count, base_seed, predicate, full_paths=True)
    want = []
    for traj in ens.trajectories:
        last = traj.stop_index if traj.event_stop is None else traj.event_stop
        assert last <= traj.stop_index
        want += [(i, tuple(traj.steps[i].tolist())) for i in range(last + 1)]
    if count == 1:
        assert predicate.calls == want
    assert collections.Counter(predicate.calls) == collections.Counter(want)


class TestBatchContract:
    def test_variants_fall_back_to_row_defaults(self):
        """One fallback rule: a variant that overrides a scalar method without
        its batch twin gets that twin's per-row default, and keeps every other
        batch method of its parent; one that overrides ``step`` is row-wise."""
        assert DriftLiar.uniforms_per_step == 1
        assert DriftLiar.step_batch is BallsInBins.step_batch
        assert DriftLiar.observables_batch is BallsInBins.observables_batch
        assert DriftLiar.drift_batch is ProcessPlugin.drift_batch
        for cls in (BigStepPlugin, CrashingLiar):
            assert cls.uniforms_per_step is None
            assert cls.step_batch is ProcessPlugin.step_batch
            assert cls.observables_batch is BallsInBins.observables_batch
            assert cls.drift_batch is ProcessPlugin.drift_batch
        assert FairCoin.uniforms_per_step is None
        for name in ("step_batch", "observables_batch", "drift_batch"):
            assert getattr(FairCoin, name) is getattr(ProcessPlugin, name)
        assert BallsInBins.uniforms_per_step == 1
        assert DegreeProcess.uniforms_per_step == 2

    @pytest.mark.parametrize(
        "plugin", [BallsInBins(50), DegreeProcess(50, 3), GreedyMatching(50)]
    )
    def test_batch_step_consumes_the_scalar_draws(self, plugin):
        """The batch methods against the scalar bodies of the plugin's twin,
        which take the row's uniforms one ``random()`` call at a time."""
        twin = scalar_twin(plugin)
        rng = np.random.Generator(np.random.Philox(7))
        states = [twin.initial_state()]
        for _ in range(40):
            states.append(twin.step(states[-1], rng))
        k = plugin.uniforms_per_step
        u = np.random.Generator(np.random.Philox(8)).random((len(states), k))
        stacked = np.array(states, dtype=np.int64)
        got = plugin.step_batch(stacked, u)

        class Replay:
            def __init__(self, row):
                self.left = list(row)

            def random(self):
                return self.left.pop(0)

        replays = [Replay(row) for row in u]
        want = [twin.step(s, r) for s, r in zip(states, replays)]
        assert not any(r.left for r in replays)
        assert np.array_equal(got, np.array(want, dtype=np.int64))
        assert np.array_equal(plugin.observables_batch(got), [twin.observables(s) for s in want])
        assert np.array_equal(plugin.drift_batch(got), [twin.drift(s) for s in want])

    @pytest.mark.parametrize("parent", [BallsInBins, DegreeProcess])
    def test_a_step_only_variant_observes_and_drifts_a_span_at_a_time(
        self, monkeypatch, parent
    ):
        """A variant that overrides only ``step``, with the body of the
        scalar twin, keeps its parent's array ``observables_batch`` and
        ``drift_batch``: each is called once per span on all of its rows, not
        once per row, and the trajectories equal the twin's bit for bit."""
        twin_cls = SCALAR_TWINS[parent]
        StepOnly = type("StepOnly", (parent,), {"step": twin_cls.step})
        assert StepOnly.uniforms_per_step is None
        n, count, span = 1500, 3, 256
        set_span(monkeypatch, 128, span, count, span)
        spec, plugin = make_case("balls" if parent is BallsInBins else "degree", n, False)
        sol = solve_ode(spec)
        twin = scalar_twin(plugin)
        plugin = StepOnly(n, **plugin.params)
        rows = {"observables_batch": [], "drift_batch": []}  # the rows of each call

        def spy(method, seen):
            def counted(self, states):
                seen.append(len(states))
                return method(self, states)
            return counted

        for name, seen in rows.items():
            monkeypatch.setattr(parent, name, spy(getattr(parent, name), seen))
        ens = run_ensemble(plugin, spec, count, 5, solution=sol, full_paths=True,
                           replay_check=True)
        spans = max(1, math.ceil(max(t.stop_index for t in ens.trajectories) / span))
        assert len(rows["observables_batch"]) == 1 + spans  # Y(0), then one per span
        assert len(rows["drift_batch"]) == spans
        assert min(rows["drift_batch"]) > 1
        want = run_ensemble(twin, spec, count, 5, solution=sol, full_paths=True,
                            replay_check=True)
        for got, ref in zip(ens.trajectories, want.trajectories):
            assert_same_trajectory(got, ref)

    @pytest.mark.parametrize(
        "bad", [1.5, 2**70, 2**63, "1", (1, (2, 3))],
        ids=["fraction", "2**70", "2**63", "string", "nested"],
    )
    @pytest.mark.parametrize("method", ["step", "initial_state"])
    def test_a_state_int64_cannot_hold_is_refused(self, bad, method):
        """A state from ``initial_state`` or a row-wise ``step`` that is not an
        int or a flat tuple of ints within int64 ends the run with
        ``PluginCrashed`` naming the method; it is never truncated."""

        class BadCoin(FairCoin):
            def initial_state(self):
                return bad if method == "initial_state" else 0

            def step(self, state, rng):
                return bad if state == 2 else super().step(state, rng)

        spec = coin_spec(n=100)
        named = rf"^BadCoin\.{method} returned {re.escape(repr(bad))}:"
        with pytest.raises(PluginCrashed, match=named):
            simulate.simulate(BadCoin(100), spec, seed=1)

    def test_a_ragged_tuple_state_is_refused(self):
        """Every state of a plugin has the length of its initial state."""

        class RaggedWalk(DegreeProcess):
            def step(self, state, rng):
                return state[:-1] if rng.random() < 0.5 else state

        spec, _ = degree_process_spec(100, max_degree=2)
        with pytest.raises(PluginCrashed, match=r"^RaggedWalk\.step returned \(100, 0, 0\):"):
            simulate.simulate(RaggedWalk(100, 2), spec, seed=1)

    def test_a_method_with_neither_form_is_refused(self):
        class Skeleton(ProcessPlugin):
            """Everything but the dynamics."""

            dim = 1

            def initial_state(self):
                return 0

            def drift_field(self, t, y):
                return np.zeros(1)

            def enumerate_transitions(self, state):
                return [(1.0, state)]

        def step_rows(self, states, u):
            return states + (u[:, 0] < 0.5)

        def observe_rows(self, states):
            return states[:, None]

        def drift_rows(self, states):
            return np.full((len(states), 1), 0.5)

        class Arrays(Skeleton):
            uniforms_per_step = 1
            step_batch, observables_batch, drift_batch = step_rows, observe_rows, drift_rows

        class NoDriftBatch(Skeleton):
            uniforms_per_step = 1
            step_batch, observables_batch = step_rows, observe_rows

        class Undeclared(Skeleton):
            step_batch, observables_batch, drift_batch = step_rows, observe_rows, drift_rows

        class ScalarsWithoutStep(Skeleton):
            def observables(self, state):
                return (state,)

            def drift(self, state):
                return (0.5,)

        class Declared(Skeleton):
            uniforms_per_step = 1

        plugin = Arrays(10)
        assert plugin.step(0, np.random.default_rng(0)) in (0, 1)
        assert plugin.observables(3) == (3,) and plugin.drift(3) == (0.5,)
        for cls, missing in (
            (NoDriftBatch, ["drift"]),
            (Undeclared, ["drift", "observables", "step"]),
            (ScalarsWithoutStep, ["step"]),
            (Declared, ["drift", "observables", "step"]),
        ):
            with pytest.raises(TypeError) as err:
                cls(10)
            named = {m for m in ("drift", "observables", "step") if m in str(err.value)}
            assert sorted(named) == missing, err.value

    @pytest.mark.parametrize("cls", [CrashingLiar, FlakyCoin, DriftLiar, BigStepPlugin])
    def test_a_scalar_override_can_call_the_derived_method(self, cls):
        """Variants on the per-row defaults: ``super().step`` and the
        inherited scalar methods reach the parent's code, not the per-row
        defaults that call ``step`` again."""
        plugin = cls(100)
        rng = np.random.Generator(np.random.Philox(3))
        start = plugin.initial_state()
        support = {s for _, s in plugin.enumerate_transitions(start)}
        for _ in range(20):
            assert plugin.step(start, rng) in support
        assert plugin.observables(start) == (start,)
        assert isinstance(plugin.drift(start), tuple)

    def test_failed_rows_of_an_array_step_raise(self):
        """An array ``step_batch`` returns the next states: one that returns
        anything else, or the base class's, which steps nothing, ends the
        run with ``PluginCrashed`` naming it."""

        class RowDefaultBalls(BallsInBins):
            step_batch = ProcessPlugin.step_batch

        class TupleBalls(BallsInBins):
            # the next states with an empty list of failed rows
            def step_batch(self, states, u):
                return super().step_batch(states, u), ()

        spec, _ = balls_in_bins_spec(100)
        for cls in (RowDefaultBalls, TupleBalls):
            plugin = cls(100)
            assert plugin.uniforms_per_step == 1
            with pytest.raises(PluginCrashed, match=rf"^{cls.__name__}\.step_batch raised "):
                simulate.simulate(plugin, spec, seed=1)

    def test_float_states_of_an_array_step_are_refused(self):
        """A ``step_batch`` whose next states int64 cannot hold exactly, such
        as a step that removes half a ball, ends the run with
        ``PluginCrashed`` naming it; the states are never truncated."""

        class HalfBallBins(BallsInBins):
            def step_batch(self, states, u):
                return states - 0.5 * (u[:, 0] * self.n < states)

        spec, _ = balls_in_bins_spec(1000)
        with pytest.raises(PluginCrashed, match=r"^HalfBallBins\.step_batch returned float64 values"):
            simulate.simulate(HalfBallBins(1000), spec, seed=1)

    @pytest.mark.parametrize("at_start", [True, False], ids=["start", "span"])
    def test_float_counts_are_refused(self, at_start):
        """Counts from ``observables_batch`` that int64 cannot hold exactly
        end the run with ``PluginCrashed`` naming it, on the start state or
        in a span; they are never truncated for the records while the box
        test and the martingale read the floats."""

        class HalfCounts(BallsInBins):
            def observables_batch(self, states):
                Y = super().observables_batch(states)
                return Y + 0.5 if at_start or len(states) > 1 else Y

        spec, _ = balls_in_bins_spec(1000)
        with pytest.raises(PluginCrashed, match=r"^HalfCounts\.observables_batch returned float64 values"):
            simulate.simulate(HalfCounts(1000), spec, seed=1)

    @pytest.mark.parametrize("at_start", [True, False], ids=["start", "span"])
    def test_float_counts_of_a_row_wise_plugin_are_refused(self, at_start):
        """A row-wise plugin's ``observables`` goes through the same int64
        rule as an array plugin's batch: non-integral counts end the run with
        ``PluginCrashed`` naming ``observables``, never truncated."""

        class HalfCoin(FairCoin):
            def observables(self, state):
                return (state + 0.5,) if at_start or state else (state,)

        with pytest.raises(PluginCrashed, match=r"^HalfCoin\.observables returned float64 values"):
            simulate.simulate(HalfCoin(100), coin_spec(100), seed=1)

    def test_a_row_wise_plugin_observes_no_rows(self):
        """The per-row ``observables_batch`` of no rows is int64 of shape (0, dim)."""
        for plugin in (FairCoin(100), BigStepPlugin(100), DegreeProcess(100, max_degree=2)):
            row = np.shape(plugin.initial_state())
            Y = ProcessPlugin.observables_batch(plugin, np.empty((0,) + row, dtype=np.int64))
            assert Y.dtype == np.int64 and Y.shape == (0, plugin.dim)

    def test_a_scalar_method_refuses_a_batch_result_without_one_row(self):
        """The scalar methods of an array plugin are batches of one: a batch
        method that gives anything but an array of one row is refused, as the
        kernel refuses it, instead of being read as the state."""

        class TupleBalls(BallsInBins):
            def step_batch(self, states, u):
                return super().step_batch(states, u), ()

        class TwoRowObservables(BallsInBins):
            def observables_batch(self, states):
                return np.repeat(super().observables_batch(states), 2, axis=0)

        class ScalarDrift(BallsInBins):
            def drift_batch(self, states):
                return np.float64(-1.0)

        rng = np.random.Generator(np.random.Philox(3))
        for call, method in (
            (lambda: TupleBalls(100).step(10, rng), "step_batch"),
            (lambda: TwoRowObservables(100).observables(10), "observables_batch"),
            (lambda: ScalarDrift(100).drift(10), "drift_batch"),
        ):
            with pytest.raises(PluginCrashed, match=rf"\.{method} returned .* not an array of one row$"):
                call()
        with pytest.raises(PluginCrashed, match=r"^TupleBalls\.step_batch returned \(array\(\[10\]\), \(\)\) "):
            TupleBalls(100).step(10, rng)
        with pytest.raises(PluginCrashed, match=r"^TwoRowObservables\.observables_batch returned an array of shape \(2, 1\) "):
            TwoRowObservables(100).observables(10)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(800, 1500),
    tight=st.booleans(),
    count=st.integers(1, 6),
    base_seed=st.integers(0, 2**32 - 1),
    replay=st.booleans(),
    predicate=predicates,
)
# violations at every step and at many: each path counts its own in-range ones
@example(kind="liar", n=1000, tight=False, count=4, base_seed=0, replay=False, predicate=None)
@example(kind="bigstep", n=1000, tight=False, count=4, base_seed=0, replay=True, predicate=None)
def test_paths_tracked_together_match_one_at_a_time(
    kind, n, tight, count, base_seed, replay, predicate
):
    spec, plugin = make_case(kind, n, tight)
    R, T = case_RT(kind, tight)
    shift = np.zeros(spec.a)
    shift[0] = 0.5 * spec.lam
    anchors = [tuple(np.array(spec.y_hat) + f * shift) for f in (-1.0, 0.0, 1.0)]
    solutions = [solve_ode(dataclasses.replace(spec, y_hat=y), R, T) for y in anchors]
    # a path solved to T/2 only: its cap falls far short of the trajectories' end
    solutions.append(solve_ode(spec, R, 0.5 * T))
    run = functools.partial(
        run_ensemble, plugin, spec, count, base_seed, predicate, replay_check=replay
    )
    together = run(solution=solutions)
    alone = [run(solution=sol) for sol in solutions]
    per_path = ("sup_deviation", "deviation_cap", "replay_ok", "in_range_violations")
    for idx, traj in enumerate(together.trajectories):
        for j, ens in enumerate(alone):
            want = ens.trajectories[idx]
            for name in per_path:
                got = getattr(traj, name)
                assert repr(None if got is None else got[j : j + 1]) == repr(getattr(want, name))
        want = alone[0].trajectories[idx]
        assert_same_trajectory(
            dataclasses.replace(traj, **{name: None for name in per_path}),
            dataclasses.replace(want, **{name: None for name in per_path}),
        )


# (kind, tight box, paths, event predicate): balls to the horizon and balls
# that leave the box mid-span, degree against three paths, a row-wise coin,
# a drift liar (trend violations), big steps (bound violations), a liar
# whose step raises (error rows) and a predicate that cuts the deviations
ENDPOINT_CASES = {
    "balls": ("balls", False, 1, None),
    "balls-exit": ("balls", True, 1, None),
    "degree-3-paths": ("degree", True, 3, None),
    "coin": ("coin", True, 1, None),
    "liar": ("liar", False, 1, None),
    "bigstep": ("bigstep", False, 1, None),
    "crash-liar": ("crash-liar", True, 1, None),
    "predicate": ("balls", False, 1, CountFloor(1500)),
}
RECORDS = ("indices", "steps", "drifts", "flags")


@pytest.mark.parametrize("spans", [None, (3, 9, 27)], ids=["default", "3-9x3"])
@pytest.mark.parametrize("case", list(ENDPOINT_CASES))
def test_endpoint_records_change_nothing_else(monkeypatch, case, spans):
    """``endpoints_only`` keeps each trajectory's records at step 0 and its
    stop; every other field equals the thinned run's bit for bit, and so do
    the two records kept. The stop record's drift is NaN in both, a step
    that raised included."""
    kind, tight, paths, predicate = ENDPOINT_CASES[case]
    n, count = 2300, 6
    if spans is not None:
        set_span(monkeypatch, spans[0], spans[1], count, spans[2])
    spec, plugin = make_case(kind, n, tight)
    R, T = case_RT(kind, tight)
    shift = np.zeros(spec.a)
    shift[0] = 0.5 * spec.lam
    solutions = [
        solve_ode(dataclasses.replace(spec, y_hat=tuple(np.array(spec.y_hat) + f * shift)), R, T)
        for f in (0.0, -1.0, 1.0)[:paths]
    ]
    run = functools.partial(
        run_ensemble, plugin, spec, count, 17, predicate,
        solution=solutions if paths > 1 else solutions[0], replay_check=True,
    )
    thinned, ends = run().trajectories, run(endpoints_only=True).trajectories
    for t, e in zip(thinned, ends):
        for f in dataclasses.fields(t):
            if f.name not in RECORDS:
                assert repr(getattr(e, f.name)) == repr(getattr(t, f.name)), f.name
        stop = t.stop_index
        assert e.indices.tolist() == [0, stop]
        for rec in (0, -1):
            assert np.array_equal(e.steps[rec], t.steps[rec])
            assert e.flags[rec] == t.flags[rec]
        assert np.array_equal(e.drifts[0], t.drifts[0])
        assert np.isnan(e.drifts[-1]).all() and np.isnan(t.drifts[-1]).all()
    if case == "crash-liar":
        assert not any(t.valid for t in thinned)
    if case == "balls-exit":
        assert all(0 < t.stop_index < spec.horizon for t in thinned)


def test_endpoint_records_of_a_run_that_never_steps():
    """At horizon 0 the start is the stop: one record, as in a thinned run."""
    spec = coin_spec(100, t_hi=0.005)
    assert spec.horizon == 0
    thinned = run_ensemble(FairCoin(100), spec, 3, 2).trajectories
    for t, e in zip(thinned, run_ensemble(FairCoin(100), spec, 3, 2, endpoints_only=True).trajectories):
        assert_same_trajectory(e, t)
        assert e.indices.tolist() == [0]


class SharpShift(ProcessPlugin):
    """Test-only plugin: x -> (2x + b) mod n, with b = 1 when the uniform is < 1/2.

    Its move ((2x + b) mod n) - x = x + b (mod n) differs at any two states:
    equal moves need x = y (mod n), and such moves differ by y - x. So a
    pass of the block stepper that starts a step from a wrong guess gets
    the next step wrong too, and settles just one step, unless a guess is
    right by chance.
    """

    name = "sharp-shift"
    uniforms_per_step = 1

    @property
    def dim(self):
        return 1

    def initial_state(self):
        return 1

    def observables(self, state):
        return (state,)

    def step(self, state, rng):
        return (2 * state + (rng.random() < 0.5)) % self.n

    def step_batch(self, states, u):
        return (2 * states + (u[:, 0] < 0.5)) % self.n

    def observables_batch(self, states):
        return states[:, None]

    def drift(self, state):
        return (((2 * state) % self.n + (2 * state + 1) % self.n) / 2 - state,)

    def drift_batch(self, states):
        return (((2 * states) % self.n + (2 * states + 1) % self.n) / 2 - states)[:, None]

    def drift_field(self, t, y):
        return np.zeros(np.shape(y))

    def enumerate_transitions(self, state):
        return [(0.5, (2 * state + b) % self.n) for b in (0, 1)]


# plugins with uniforms_per_step: the built-ins, the degree process at every
# max_degree from 0 to 4, and the sharp test plugin
STEPPED = ("balls", "matching", *(f"degree{d}" for d in range(5)), "sharp")


def stepped_case(kind, n, tight):
    """(spec, plugin) of a plugin with uniforms_per_step; ``tight`` exits early."""
    if kind.startswith("degree"):
        d = int(kind[len("degree"):])
        dom = Domain(
            t_lo=-0.3, t_hi=0.5, lo=(0.7 if tight else -0.3,) + (-0.3,) * d, hi=(1.3,) * (d + 1)
        )
        return degree_process_spec(max(n, 2), max_degree=d, lam=0.005, domain=dom)
    if kind == "sharp":
        # x/n is spread over [0, 1), so a row leaves the box about once in
        # 1/(1 - hi) steps: mid-block
        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(-0.1,), hi=(0.9 if tight else 0.99,))
        spec = ProcessSpec(
            n=n, drift=zero_field, L=0.0, delta=0.25 * n, beta=float(n), lam=0.02,
            y_hat=(0.0,), domain=dom,
        )
        return spec, SharpShift(n)
    return make_case(kind, n, tight)


def stepwise_block(plugin, buf, u):
    """The loop the block passes replaced: one ``step_batch`` call per step."""
    for j in range(1, buf.shape[1]):
        buf[:, j] = plugin.step_batch(buf[:, j - 1], u[:, j - 1])


def run_recorded(stepper, plugin, *args, **kwargs):
    """run_ensemble with ``stepper`` as the block stepper; also returns each
    block's states and (steps, step_batch calls) of each block."""
    bufs, passes = [], []
    step_batch = plugin.step_batch

    def counted(states, u):
        passes[-1][1] += 1
        return step_batch(states, u)

    def recorded(plugin, buf, u):
        passes.append([buf.shape[1] - 1, 0])
        stepper(plugin, buf, u)
        bufs.append(buf.copy())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_step_block", recorded)
        mp.setattr(plugin, "step_batch", counted)
        ens = run_ensemble(plugin, *args, **kwargs)
    return ens, bufs, passes


@pytest.mark.parametrize("block,span,draw", SPANS, ids=SPAN_IDS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(STEPPED),
    n=st.one_of(st.integers(2, 60), st.integers(900, 2500)),
    tight=st.booleans(),
    count=st.integers(1, 9),
    base_seed=st.integers(0, 2**32 - 1),
    full_paths=st.booleans(),
    tracked=st.booleans(),
)
@example(kind="sharp", n=1000, tight=False, count=5, base_seed=1, full_paths=False, tracked=True)
@example(kind="degree4", n=999, tight=True, count=9, base_seed=2, full_paths=True, tracked=True)
def test_block_passes_match_stepwise(
    block, span, draw, kind, n, tight, count, base_seed, full_paths, tracked
):
    """Every block's states and every Trajectory field equal those of stepping
    one ``step_batch`` call at a time; horizons that are not a multiple of
    the block and rows that stop mid-block included."""
    spec, plugin = stepped_case(kind, n, tight)
    solution = solve_ode(spec, 2.0, spec.domain.t_hi) if tracked else None
    run = functools.partial(
        run_recorded, plugin=plugin, spec=spec, count=count, base_seed=base_seed,
        solution=solution, full_paths=full_paths, replay_check=tracked,
    )
    with pytest.MonkeyPatch.context() as mp:
        set_span(mp, block, span, count, draw)
        got, got_bufs, passes = run(simulate._step_block)
        want, want_bufs, _ = run(stepwise_block)
    assert len(got_bufs) == len(want_bufs)
    for x, y in zip(got_bufs, want_bufs):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    for x, y in zip(got.trajectories, want.trajectories):
        assert_same_trajectory(x, y)
    assert all(calls <= steps <= block for steps, calls in passes)  # at most one pass per step


def test_sharp_plugin_settles_one_step_per_pass():
    spec, plugin = stepped_case("sharp", 1000, tight=False)
    ens, _, passes = run_recorded(simulate._step_block, plugin, spec, 6, 3)
    assert sum(t.stop_index for t in ens.trajectories) > 300
    steps, calls = np.array(passes).sum(axis=0)
    assert calls == steps  # no guess was right by chance on this seed



@pytest.mark.parametrize("J", [1, 2, 5, 128])
@pytest.mark.parametrize("starts", [(0, 1, 1, 0), (0, 1, 7, 40)], ids=["still", "mixed"])
def test_a_block_whose_first_pass_moves_nothing(J, starts):
    """Greedy matching stands still at Y < 2. When no row moves, pass 1
    settles the block and one more pass confirms it (a block of one step
    needs none); rows that move next to still ones settle as before."""
    plugin = GreedyMatching(100)
    calls = []
    step_batch = plugin.step_batch

    def counted(states, u):
        calls.append(len(states))
        return step_batch(states, u)

    plugin.step_batch = counted
    buf = np.zeros((len(starts), J + 1), dtype=np.int64)
    buf[:, 0] = starts
    want = buf.copy()
    u = np.empty((len(starts), J, 0))
    simulate._step_block(plugin, buf, u)
    stepwise_block(GreedyMatching(100), want, u)
    assert np.array_equal(buf, want)
    assert len(calls) <= J
    if max(starts) < 2:
        assert len(calls) == min(J, 2)


@pytest.mark.parametrize("kind", ["balls", "degree"])
def test_each_row_consumes_a_prefix_of_one_philox_draw(kind):
    """Uniforms drawn several spans at a time, with rows that stop inside a
    draw compacted away: the uniforms of each trajectory's steps, past its
    stop to the end of its last span too, are the first rows of one
    ``Philox(SeedSequence(seed)).random((steps, k))`` draw."""
    spec, plugin = make_case(kind, 300, tight=True)
    count, base_seed, draw = 9, 11, 32
    blocks = []
    step_block = simulate._step_block

    def recorded(plugin, buf, u):
        blocks.append(u.copy())
        step_block(plugin, buf, u)

    with pytest.MonkeyPatch.context() as mp:
        set_span(mp, 4, 8, count, draw)
        mp.setattr(simulate, "_step_block", recorded)
        ens = run_ensemble(plugin, spec, count, base_seed)
    steps = math.floor(spec.domain.t_hi * spec.n) + draw
    k = plugin.uniforms_per_step
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(base_seed, t))))
        .random((steps, k))
        for t in range(count)
    ]
    where = {s[i].tobytes(): (t, i) for t, s in enumerate(streams) for i in range(steps)}
    used = [[] for _ in range(count)]
    firsts = []  # (first step, rows) of each block
    for u in blocks:
        firsts.append((where[u[0, 0].tobytes()][1], len(u)))
        for row in u:
            t, i = where[row[0].tobytes()]
            assert row.tobytes() == streams[t][i : i + len(row)].tobytes()
            used[t].append((i, len(row)))
    for t, traj in enumerate(ens.trajectories):
        end = 0
        for i, J in sorted(used[t]):
            assert i == end
            end += J
        assert traj.stop_index <= end
    # some rows stopped inside a draw, so the next block of that draw has fewer rows
    assert any(i // draw == j // draw and r > s for (i, r), (j, s) in zip(firsts, firsts[1:]))


@pytest.mark.parametrize(
    "kind,count,n,draw",
    [
        ("balls", 160, 3_000, 1_024),  # eight one-block spans, as on the benchmark
        ("balls", 16, 3_000, 1_280),  # one ten-block span
        ("balls", 4_000, 200, 128),  # the row budget: one span
        ("degree", 4_000, 300, 128),
        ("balls", 160, 300, 384),  # the horizon of 300 steps, rounded up to spans
        ("balls", 9, 300, 300),  # a span that is the whole horizon
    ],
)
def test_uniform_draws_hold_the_row_budget_and_stop_at_the_horizon(kind, count, n, draw):
    """Each row's generator fills ``draw`` steps of uniforms per call: at most
    1,024 steps, whole spans, no more row-steps than eight spans of the
    span's budget (or than one span of all rows) and no further than the
    horizon rounded up to a span."""
    spec, plugin = make_case(kind, n, tight=False)
    lengths = []

    class SpyGenerator(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            lengths.append(out.shape)
            return super().random(size, dtype, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator", SpyGenerator)
        run_ensemble(plugin, spec, count, 5)
    assert len(lengths) >= count
    assert set(lengths) == {(draw, plugin.uniforms_per_step)}
    assert count * draw <= max(count * min(draw, 128), 8 * 160 * 128)

@pytest.mark.parametrize(
    "count,n,spans",
    [
        (1, 25_000, [20_480, 4_520]),  # the whole budget in one row
        (16, 3_000, [1_280, 1_280, 440]),  # ten blocks per span
        (160, 300, [128, 128, 44]),  # one block fills the budget
        (200, 300, [128, 128, 44]),  # one block is over it
    ],
)
def test_default_spans_hold_the_row_step_budget(count, n, spans):
    """Each span is reduced in one ``observables_batch`` call of its rows and
    stepped one block of at most 128 steps at a time."""
    spec, plugin = make_case("balls", n, tight=False)
    observed, stepped = [], []
    observables_batch = plugin.observables_batch
    step_block = simulate._step_block

    def observed_rows(states):
        observed.append(len(states))
        return observables_batch(states)

    def stepped_steps(plugin, buf, u):
        stepped.append(buf.shape[1] - 1)
        step_block(plugin, buf, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plugin, "observables_batch", observed_rows)
        mp.setattr(simulate, "_step_block", stepped_steps)
        ens = run_ensemble(plugin, spec, count, 4)
    assert all(t.stop_index == n for t in ens.trajectories)
    # Y(0) of one row, then every row's span, start state included
    assert observed == [1] + [count * (J + 1) for J in spans]
    assert stepped == [min(128, J - q) for J in spans for q in range(0, J, 128)]


class RaisingBalls(BallsInBins):
    """Balls-in-bins whose method ``raising`` raises ZeroDivisionError on a state
    with fewer than 0.95 n empty bins, a few dozen steps in, while ``armed``.

    Its drift is not declared exact, so that the kernel's trend check calls
    the spec's field; a spec that takes ``drift_field`` as its field raises
    there. The RT scan and the ODE solve call that field too, before any
    step: the plugin arms itself at its first ``step_batch`` call, so only
    the states the kernel reaches raise.
    """

    name = "raising-balls"
    exact_drift = False
    raising = None
    armed = False

    def _check(self, method, filled):
        if method == self.raising and self.armed and np.any(filled):
            raise ZeroDivisionError(f"{method} divided by zero")

    def step_batch(self, states, u):
        self.armed = True
        self._check("step_batch", states < 0.95 * self.n)
        return super().step_batch(states, u)

    def observables_batch(self, states):
        self._check("observables_batch", states < 0.95 * self.n)
        return super().observables_batch(states)

    def drift_batch(self, states):
        self._check("drift_batch", states < 0.95 * self.n)
        return super().drift_batch(states)

    def drift_field(self, t, y):
        self._check("drift_field", np.asarray(y) < 0.95)
        return super().drift_field(t, y)


# the plugin methods the kernel calls besides a row-wise ``step``; it calls
# ``drift_field`` as the spec's field
GUARDED = ("observables_batch", "drift_batch", "step_batch", "drift_field")


def crash_name(method):
    """How a ``PluginCrashed`` message names the raising ``method`` of RaisingBalls."""
    return "ProcessSpec.drift" if method == "drift_field" else f"RaisingBalls.{method}"


@pytest.mark.parametrize("method", GUARDED)
def test_a_raising_plugin_method_is_a_crash(method):
    """A batch method or the spec's field that raises stops the run with
    ``PluginCrashed`` naming the class, the method and the span's steps."""
    spec, _ = balls_in_bins_spec(2000, lam=1e-3)
    plugin = RaisingBalls(2000)
    plugin.raising = method
    spec = dataclasses.replace(spec, drift=plugin.drift_field)
    named = (
        rf"^{re.escape(crash_name(method))} raised ZeroDivisionError\(.*\)"
        rf" in the span of steps 0\.\.\d+$"
    )
    with pytest.raises(PluginCrashed, match=named) as err:
        simulate.simulate(plugin, spec, seed=1, solution=solve_ode(spec), replay_check=True)
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    plugin.armed = False
    with pytest.raises(PluginCrashed, match=named):
        verify(spec, plugin, 3, 0)


def test_a_raising_scalar_drift_of_a_row_wise_variant_is_a_crash():
    """A variant that overrides the scalar ``drift`` gets the per-row
    ``drift_batch`` default; its raise comes out of that default, and its
    ``super().drift`` reaches the parent's array code."""

    class RaisingDrift(BallsInBins):
        def drift(self, state):
            return (1 / 0,) if state < 0.95 * self.n else super().drift(state)

    spec, _ = balls_in_bins_spec(2000, lam=1e-3)
    with pytest.raises(PluginCrashed, match=r"^RaisingDrift\.drift_batch raised ZeroDivisionError"):
        simulate.simulate(RaisingDrift(2000), spec, seed=1)
