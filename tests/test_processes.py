import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import oracle_drift, oracle_mean_abs_step, reachable_states
from scalar_reference import scalar_twin

from demtrack import PluginCrashed
from demtrack.processes import (
    BallsInBins,
    DegreeProcess,
    GreedyMatching,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
    make_plugin,
)

ORACLE_TOL = 1e-12


def plugin_grid():
    for n in range(2, 7):
        yield BallsInBins(n), math.floor(2.0 * n)
        yield DegreeProcess(n, max_degree=2), math.floor(0.5 * n)
        if n % 2 == 0:
            yield GreedyMatching(n), math.floor(0.45 * n)


class TestDriftOracle:
    def test_probabilities_sum_to_one(self):
        for plugin, depth in plugin_grid():
            for state in reachable_states(plugin, depth):
                total = sum(p for p, _ in plugin.enumerate_transitions(state))
                assert total == pytest.approx(1.0, abs=ORACLE_TOL)

    def test_drift_matches_enumeration(self):
        for plugin, depth in plugin_grid():
            for state in reachable_states(plugin, depth):
                want = oracle_drift(plugin, state)
                got = np.array(plugin.drift(state))
                assert np.max(np.abs(got - want)) <= ORACLE_TOL, (
                    plugin.name, state, got, want,
                )

    def test_drift_equals_field_at_rescaled_state(self):
        # justifies the exact_drift shortcut: the trend condition cannot fire
        # while the rescaled state is inside the domain (the condition's scope)
        builders = {
            "balls-in-bins": balls_in_bins_spec,
            "degree-process": lambda n: degree_process_spec(n, max_degree=2),
            "greedy-matching": greedy_matching_spec,
        }
        for plugin, depth in plugin_grid():
            assert plugin.exact_drift
            n = plugin.n
            dom = builders[plugin.name](n)[0].domain
            for state in reachable_states(plugin, depth):
                y = np.array(plugin.observables(state), dtype=float) / n
                if not all(lo < v < hi for v, lo, hi in zip(y, dom.lo, dom.hi)):
                    continue
                field = plugin.drift_field(0.1, y)
                got = np.array(plugin.drift(state))
                assert np.max(np.abs(got - field)) <= ORACLE_TOL

    def test_declared_average_step_bound(self):
        specs = [
            balls_in_bins_spec(6)[0],
            degree_process_spec(6, max_degree=2)[0],
            greedy_matching_spec(6)[0],
        ]
        for (plugin, depth), spec in zip(
            [(BallsInBins(6), 12), (DegreeProcess(6, max_degree=2), 3), (GreedyMatching(6), 2)],
            specs,
        ):
            b = plugin.avg_step_bound(spec)
            for state in reachable_states(plugin, depth):
                y = np.array(plugin.observables(state), dtype=float) / plugin.n
                inside = all(lo < v < hi for v, lo, hi in zip(y, spec.domain.lo, spec.domain.hi))
                if inside:
                    assert np.max(oracle_mean_abs_step(plugin, state)) <= b + ORACLE_TOL


class TestStepLaw:
    @pytest.mark.parametrize(
        "plugin,state",
        [
            (BallsInBins(5), 3),
            (DegreeProcess(5, max_degree=2), (3, 2, 0, 0)),
            (GreedyMatching(6), 6),
        ],
    )
    def test_step_frequencies_match_enumeration(self, plugin, state):
        rng = np.random.default_rng(123)
        draws = 20_000
        counts = {}
        for _ in range(draws):
            nxt = plugin.step(state, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        for p, nxt in plugin.enumerate_transitions(state):
            freq = counts.pop(nxt, 0) / draws
            slack = 5 * math.sqrt(p * (1 - p) / draws) + 1e-9
            assert abs(freq - p) <= slack, (plugin.name, nxt, freq, p)
        assert not counts  # no outcomes beyond the enumerated support


class TestBallsInBins:
    def test_first_ball_always_fills(self):
        plugin = BallsInBins(2)
        assert plugin.enumerate_transitions(2) == [(1.0, 1)]

    def test_two_ball_expectation(self):
        # brute force over both steps: E[Y(2)] = 0.5 for n = 2
        plugin = BallsInBins(2)
        ev = 0.0
        for p1, s1 in plugin.enumerate_transitions(2):
            for p2, s2 in plugin.enumerate_transitions(s1):
                ev += p1 * p2 * s2
        assert ev == pytest.approx(0.5, abs=ORACLE_TOL)

    def test_drift_formula(self):
        plugin = BallsInBins(10)
        assert plugin.drift(7) == (-0.7,)


class TestDegreeProcess:
    def test_initial_drift(self):
        plugin = DegreeProcess(100, max_degree=3)
        assert plugin.drift(plugin.initial_state()) == (-2.0, 2.0, 0.0, 0.0)

    def test_total_count_conserved(self):
        plugin = DegreeProcess(6, max_degree=2)
        for state in reachable_states(plugin, 4):
            assert sum(state) == 6

    def test_overflow_absorbs(self):
        plugin = DegreeProcess(2, max_degree=0)
        state = (0, 2)  # both vertices already beyond the tracked degree
        assert plugin.enumerate_transitions(state) == [(1.0, (0, 2))]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            DegreeProcess(1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BallsInBins(0), "n must be positive"),
        (lambda: DegreeProcess(10, max_degree=-1), "max_degree must be nonnegative"),
    ],
    ids=["no-bins", "negative-max-degree"],
)
def test_constructor_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


class TestGreedyMatching:
    def test_deterministic_decrement(self):
        plugin = GreedyMatching(10)
        rng = np.random.default_rng(0)
        assert plugin.step(10, rng) == 8
        assert plugin.drift(10) == (-2.0,)

    def test_exhausted_state_is_absorbing(self):
        plugin = GreedyMatching(4)
        rng = np.random.default_rng(0)
        assert plugin.step(0, rng) == 0
        assert plugin.drift(0) == (0.0,)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            GreedyMatching(5)


def assert_same_plain(got, want):
    """Equal values of the same Python types, hashable to the same hash."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert [type(x) for x in got] == [type(x) for x in want], (got, want)
    assert got == want and hash(got) == hash(want), (got, want)


class Scripted:
    """A generator that hands out the given uniforms in order, one ``random()``
    call at a time or a block of them per ``random(size)`` call."""

    def __init__(self, values):
        self.left = list(values)

    def random(self, size=None):
        if size is None:
            return self.left.pop(0)
        block = [self.left.pop(0) for _ in range(math.prod(size))]
        return np.array(block, dtype=float).reshape(size)


def edge_uniforms(n):
    """Uniforms at and between the class edges of a draw scaled by n or n - 1."""
    values = {0.0, 1.0 - 2.0**-53}
    for m in (n, n - 1):
        values.update(c / m for c in range(m))
        values.update((c + 0.5) / m for c in range(m))
    return sorted(values)


def built_ins():
    for n in range(2, 6):
        yield BallsInBins(n)
        for max_degree in range(4):
            yield DegreeProcess(n, max_degree=max_degree)
        if n % 2 == 0:
            yield GreedyMatching(n)


class TestBatchOfOne:
    """The built-ins' scalar methods, a batch of one through their array
    methods, against the scalar bodies of their twins in scalar_reference."""

    def test_every_reachable_state_and_edge_draw(self):
        for plugin in built_ins():
            twin = scalar_twin(plugin)
            k = plugin.uniforms_per_step
            draws = list(itertools.product(edge_uniforms(plugin.n), repeat=k))
            for state in reachable_states(plugin, 4 * plugin.n):
                assert_same_plain(plugin.observables(state), twin.observables(state))
                assert_same_plain(plugin.drift(state), twin.drift(state))
                for u in draws:
                    # a sentinel after the step's draws: both must leave it
                    got, want = Scripted([*u, -1.0]), Scripted([*u, -1.0])
                    assert_same_plain(plugin.step(state, got), twin.step(state, want))
                    assert got.left == want.left == [-1.0], (plugin.name, state, u)

    @pytest.mark.parametrize("seed", range(3))
    def test_philox_streams(self, seed):
        for plugin in (
            BallsInBins(50),
            *(DegreeProcess(50, max_degree=K) for K in range(4)),
            GreedyMatching(50),
        ):
            twin = scalar_twin(plugin)
            got, want = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
            state = plugin.initial_state()
            assert_same_plain(state, twin.initial_state())
            for _ in range(100):
                nxt = plugin.step(state, got)
                assert_same_plain(nxt, twin.step(state, want))
                assert got.random() == want.random()  # as many draws consumed
                state = nxt
                assert_same_plain(plugin.observables(state), twin.observables(state))
                assert_same_plain(plugin.drift(state), twin.drift(state))

    def test_a_state_int64_cannot_hold_is_refused(self):
        """A scalar method of an array plugin takes its state as the kernel
        holds it: one that int64 cannot hold exactly is refused, naming the
        method that was given it, never truncated."""
        rng = np.random.Generator(np.random.Philox(0))
        balls = BallsInBins(100)
        with pytest.raises(PluginCrashed, match=r"^BallsInBins\.step was given 1\.5: "):
            balls.step(1.5, rng)
        with pytest.raises(PluginCrashed, match=r"^BallsInBins\.observables was given 7\.9: "):
            balls.observables(7.9)
        with pytest.raises(PluginCrashed, match=r"^DegreeProcess\.drift was given \(9, 0\.5, 0\): "):
            DegreeProcess(10, max_degree=1).drift((9, 0.5, 0))
        assert rng.random() == np.random.Generator(np.random.Philox(0)).random()  # no draw taken


def class_edge_states(n, top, rng):
    """Degree states of n vertices over classes 0..top: all in one class,
    singletons between empty classes, then random profiles with empty
    classes and overflow mass, without end."""
    yield (n,) + (0,) * top
    yield (0,) * top + (n,)
    singles = [1 - k % 2 for k in range(top)]
    yield (*singles, n - sum(singles))
    while True:
        weights = rng.random(top + 1) * (rng.random(top + 1) < 0.6)
        weights[top] += 0.1
        yield tuple(int(c) for c in rng.multinomial(n, weights / weights.sum()))


@pytest.mark.parametrize("n", [100_000, 1_000_003])
@pytest.mark.parametrize("max_degree", range(5))
def test_degree_step_batch_matches_scalar_on_class_edges(n, max_degree):
    """The batch step against the scalar twin's class search at large n, on
    draws that land exactly on and next to every cumulative count, with and
    without the first endpoint taken out."""
    plugin = DegreeProcess(n, max_degree=max_degree)
    twin = scalar_twin(plugin)
    rows = []
    profiles = class_edge_states(n, max_degree + 1, np.random.default_rng(n + max_degree))
    for taken, state in enumerate(profiles):
        if taken >= 6 and len(rows) >= 2048:
            break
        edges = {c for acc in np.cumsum(state).tolist() for c in (acc - 1, acc, acc + 1)}
        draws = {c / m for c in edges for m in (n, n - 1) if 0 <= c < m} | {0.0, 1.0 - 2.0**-53}
        rows += [(state, uv) for uv in itertools.product(sorted(draws), repeat=2)]
    states = np.array([s for s, _ in rows], dtype=np.int64)
    u = np.array([uv for _, uv in rows])
    got = plugin.step_batch(states, u)
    want = [twin.step(s, Scripted(uv)) for s, uv in rows]
    assert np.array_equal(got, np.array(want, dtype=np.int64))


def row_major_degree_drift(plugin, states):
    """``DegreeProcess.drift_batch`` as it was before it ran on a transposed copy."""
    counts = states[:, : plugin.max_degree + 1]
    diff = -counts
    diff[:, 1:] += counts[:, :-1]
    return 2.0 * diff / plugin.n


@pytest.mark.parametrize("n", [50, 100_000, 1_000_003])
@pytest.mark.parametrize("max_degree", range(5))
def test_degree_drift_batch_matches_the_row_major_body(n, max_degree):
    """The drift on a transposed copy equals the row-major body bit for bit, on
    class-edge states and on the states that 400 more steps reach from them,
    as the kernel steps a row past its stop; at n = 50 most mass is then in
    the overflow class."""
    plugin = DegreeProcess(n, max_degree=max_degree)
    rng = np.random.default_rng(n + max_degree)
    profiles = class_edge_states(n, max_degree + 1, rng)
    chain = [np.array(list(itertools.islice(profiles, 16)), dtype=np.int64)]
    for _ in range(400):
        chain.append(plugin.step_batch(chain[-1], rng.random((len(chain[-1]), 2))))
    states = np.concatenate(chain)
    got, want = plugin.drift_batch(states), row_major_degree_drift(plugin, states)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestRegistry:
    def test_round_trip_names(self):
        for name, kwargs in [
            ("balls-in-bins", {}),
            ("degree-process", {"max_degree": 2}),
            ("greedy-matching", {}),
        ]:
            plugin = make_plugin(name, 50, kwargs)
            assert plugin.name == name
            assert plugin.n == 50

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown plugin"):
            make_plugin("no-such-process", 10)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(("balls", "degree", "matching")),
    max_degree=st.integers(0, 4),
    rows=st.integers(1, 12),
    data=st.data(),
)
def test_stacked_drift_field_matches_rows(which, max_degree, rows, data):
    if which == "balls":
        plugin = BallsInBins(10)
    elif which == "degree":
        plugin = DegreeProcess(10, max_degree=max_degree)
    else:
        plugin = GreedyMatching(10)
    a = plugin.dim
    ts = np.array(data.draw(st.lists(finite_or_not, min_size=rows, max_size=rows)))
    ys = np.array(
        data.draw(st.lists(finite_or_not, min_size=rows * a, max_size=rows * a))
    ).reshape(rows, a)
    with np.errstate(all="ignore"):  # overflow and inf - inf alike in both forms
        got = plugin.drift_field(ts, ys)
        want = np.stack([plugin.drift_field(ts[r], ys[r]) for r in range(rows)])
    assert got.shape == (rows, a) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
