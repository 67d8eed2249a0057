import hashlib
import math
import re
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scan_reference
from ode_reference import reference_rk4_grid, reference_solve_ode
from scan_reference import reference_compute_RT, reference_lipschitz, reference_sigma

from demtrack import Domain, ProcessSpec, ode
from demtrack.ode import (
    RT_GRID_BUDGET,
    RT_GRID_RESOLUTION,
    RT_SCAN_CHUNK,
    _RK4_BLOCK,
    anchor_grids,
    compute_RT,
    compute_sigma,
    estimate_lipschitz_lower_bound,
    grid_steps,
    lambda_threshold,
    range_check,
    rk4_solve,
    solve_ode,
)
from demtrack.processes import balls_in_bins_spec, degree_process_spec, greedy_matching_spec
from demtrack.specio import load_spec


def make_spec(drift, y_hat, domain, n=4096, L=1.0, lam=1e-3, delta=0.0, beta=1.0):
    return ProcessSpec(
        n=n, drift=drift, L=L, delta=delta, beta=beta, lam=lam,
        y_hat=y_hat, domain=domain,
    )


def decay(t, y):
    return -np.asarray(y, dtype=float)


def box(a):
    """A domain of dimension ``a`` that strictly contains every path
    ``rk4_solve`` takes here at margin 0, so none halts."""
    return Domain(t_lo=-1.0, t_hi=2.0, lo=(-10.0,) * a, hi=(10.0,) * a)


class TestRK4:
    def test_decay_accuracy(self):
        _, ys = rk4_solve(decay, [np.array([1.0])], 0.0, 1.0, 1000, box(1), 0.0)[0]
        assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-10

    def test_fourth_order_convergence(self):
        errs = []
        for steps in (64, 128):
            _, ys = rk4_solve(decay, [np.array([1.0])], 0.0, 1.0, steps, box(1), 0.0)[0]
            errs.append(abs(ys[-1, 0] - math.exp(-1.0)))
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            rk4_solve(decay, [np.array([1.0])], 0.0, 1.0, 0, box(1), 0.0)


class TestComputeRT:
    def test_balls_box(self):
        spec, _ = balls_in_bins_spec(1000)
        R, T = compute_RT(spec)
        assert T == 2.0
        mesh = 2.1 / 63  # widest axis of the box at 64 points
        assert R == pytest.approx(1.1 + 1.0 * mesh, rel=1e-12)

    def test_zero_drift_floor(self):
        dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,), hi=(1.0,))
        spec = make_spec(lambda t, y: np.zeros(1), (0.0,), dom, L=0.0)
        R, T = compute_RT(spec)
        assert R == 1.0 and T == 1.0

    def test_single_coordinate_degree_drift(self):
        dom = Domain(t_lo=-0.05, t_hi=1.0, lo=(-0.05,), hi=(1.05,))
        spec = make_spec(lambda t, y: -2.0 * np.asarray(y), (1.0,), dom, L=2.0)
        R, T = compute_RT(spec)
        assert T == 1.0
        mesh = 1.1 / 63
        assert R == pytest.approx(2.1 + 2.0 * mesh, rel=1e-12)


class TestSolveOde:
    def test_exponential_decay(self):
        spec, _ = balls_in_bins_spec(4096, lam=1e-4)
        sol = solve_ode(spec)
        assert abs(sol.at(1.0)[0] - math.exp(-1.0)) < 1e-10
        assert sol.ys[0, 0] == 1.0  # anchor reproduced exactly

    def test_constant_solution(self):
        dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,), hi=(1.0,))
        spec = make_spec(lambda t, y: np.zeros(1), (0.25,), dom, L=0.0, lam=1e-3)
        sol = solve_ode(spec)
        assert np.all(sol.ys == 0.25)
        # only the time face approaches: sigma = T - margin, margin = 3*lam
        assert sol.sigma == pytest.approx(1.0 - 3e-3, abs=2.0 / grid_steps(spec, 1.0))

    def test_degree_profile_matches_poisson(self):
        dom = Domain(t_lo=-0.05, t_hi=0.6, lo=(-0.05,) * 6, hi=(1.05,) * 6)
        spec, _ = degree_process_spec(10_000, max_degree=5, lam=1e-4, domain=dom)
        sol = solve_ode(spec)
        assert sol.sigma >= 0.5
        got = sol.at(0.5)
        want = [(2 * 0.5) ** k * math.exp(-1.0) / math.factorial(k) for k in range(6)]
        assert np.max(np.abs(got - np.array(want))) < 1e-8

    def test_margin_invariant_and_step_bound(self):
        spec, _ = balls_in_bins_spec(2048, lam=1e-3)
        sol = solve_ode(spec)
        c = sol.constants
        for t, y in zip(sol.ts, sol.ys):
            if t < c.sigma:
                assert spec.domain.boundary_distance((t, *y)) >= c.margin
        dy = np.abs(np.diff(sol.ys, axis=0)).max(axis=1)
        dt = np.diff(sol.ts)
        assert np.all(dy <= c.R * dt * (1 + 1e-12) + 1e-15)

    def test_stage_failure_halts_conservatively(self):
        # drift raises past t = 1 although the box extends to t = 2
        def fragile(t, y):
            if t > 1.0:
                raise FloatingPointError("outside supported region")
            return -np.asarray(y)

        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(fragile, (1.0,), dom, n=2048, lam=1e-4)
        sol = solve_ode(spec, R=1.2, T=2.0)
        assert sol.ts[-1] <= 1.0 + 1e-9
        assert sol.sigma <= 1.0
        assert abs(sol.at(sol.sigma)[0] - math.exp(-sol.sigma)) < 1e-8


@lru_cache(maxsize=None)
def interp_solution(kind):
    if kind == "balls":
        return solve_ode(balls_in_bins_spec(3000, lam=1e-3)[0])
    return solve_ode(degree_process_spec(3000, max_degree=2, lam=1e-3)[0])


class TestValuesAt:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["balls", "degree"]),
        fractions=st.lists(
            st.one_of(st.floats(-0.1, 1.1), st.sampled_from([math.nan, math.inf, -math.inf])),
            min_size=1,
            max_size=40,
        ),
        on_grid=st.lists(st.integers(0, 10**6), max_size=5),
    )
    def test_window_equals_the_whole_grid_bit_for_bit(self, kind, fractions, on_grid):
        """Times inside and past both ends of the grid, grid times, NaN and inf."""
        sol = interp_solution(kind)
        t0, t1 = sol.ts[0], sol.ts[-1]
        times = [t0 + f * (t1 - t0) for f in fractions]
        times += [sol.ts[i % len(sol.ts)] for i in on_grid]
        whole = np.column_stack(
            [np.interp(times, sol.ts, sol.ys[:, k]) for k in range(sol.ys.shape[1])]
        )
        got = sol.values_at(times)
        assert got.shape == whole.shape and got.tobytes() == whole.tobytes()

    def test_at_copies_no_whole_grid(self):
        sol = solve_ode(balls_in_bins_spec(200_000)[0])
        tracemalloc.start()
        try:
            for t in (0.0, 0.5, sol.ts[-1]):
                sol.at(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sol.ys.nbytes

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_at_refuses_nan_and_infinite_times(self, t):
        sol = interp_solution("balls")
        with pytest.raises(ValueError, match="outside solved range"):
            sol.at(t)
        assert sol.at(sol.ts[-1]).tobytes() == sol.ys[-1].tobytes()


class TestSigma:
    @pytest.mark.parametrize("lam", [1e-3, 1e-4])
    def test_balls_box_time_face_binds(self, lam):
        spec, _ = balls_in_bins_spec(10_000, lam=lam)
        sol = solve_ode(spec)
        h = 2.0 / grid_steps(spec, 2.0)
        assert abs(sol.sigma - (2.0 - 3.0 * math.e**2 * lam)) <= h + 1e-12

    def test_degenerate_margin_gives_zero(self):
        # margin = 3 e^2 * 0.05 = 0.44 exceeds the 0.1 gap above the anchor
        spec, _ = balls_in_bins_spec(1000, lam=0.05)
        sol = solve_ode(spec)
        assert sol.sigma == 0.0
        assert len(sol.ts) == 1

    def test_compute_sigma_prefix_rule(self):
        # once one grid point dips below margin, later compliant points are ignored
        dom = Domain(t_lo=-1.0, t_hi=1.0, lo=(-1.0,), hi=(1.0,))
        spec = make_spec(lambda t, y: np.zeros(1), (0.0,), dom, lam=1e-3, L=0.0)
        ts = np.array([0.0, 0.25, 0.5, 0.75])
        ys = np.array([[0.0], [0.999], [0.0], [0.0]])
        assert compute_sigma(ts, ys, spec, margin=0.1) == 0.0


class TestLambdaAdmissible:
    def test_threshold_example(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=10_000, lam=1e-3)
        assert lambda_threshold(spec, R=1.1, T=2.0) == pytest.approx(1.1e-4, rel=1e-12)
        assert spec.lam >= lambda_threshold(spec, R=1.1, T=2.0)

    def test_equality_is_admissible(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=10_000, lam=1.1e-4)
        assert spec.lam >= lambda_threshold(spec, R=1.1, T=2.0)

    def test_below_threshold(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=10_000, lam=1e-5)
        assert not spec.lam >= lambda_threshold(spec, R=1.1, T=2.0)

    def test_zero_L_uses_T(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=100, lam=0.5, L=0.0, delta=0.1)
        # threshold = 0.1 * T + R/n = 0.2 + 0.02
        assert lambda_threshold(spec, R=2.0, T=2.0) == pytest.approx(0.22)

    def test_truncated_threshold(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=100, lam=0.5, L=1.0, delta=0.01)
        got = lambda_threshold(spec, R=1.5, T=2.0, gamma=0.001, B=10.0, x=2.0)
        want = (0.01 + 0.001 * 10.0) * min(2.0, 1.0) + (1.5 + 2.0 * 10.0) / 100
        assert got == pytest.approx(want, rel=1e-12)


class TestRangeCheck:
    def test_balls_within_unit_interval(self):
        spec, _ = balls_in_bins_spec(2048, lam=1e-3)
        sol = solve_ode(spec)
        assert range_check(sol, [(0.0, 1.0)], spec.lam)

    def test_constant_solution_inside(self):
        dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,), hi=(1.0,))
        spec = make_spec(lambda t, y: np.zeros(1), (0.25,), dom, L=0.0, lam=1e-3)
        sol = solve_ode(spec)
        assert range_check(sol, [(0.2, 0.3)], spec.lam)

    def test_exiting_interval_fails(self):
        spec, _ = balls_in_bins_spec(2048, lam=1e-3)
        sol = solve_ode(spec)  # decays to ~0.135 by sigma
        assert not range_check(sol, [(0.9, 1.0)], spec.lam)

    def test_large_lambda_rejected(self):
        spec, _ = balls_in_bins_spec(2048, lam=1e-3)
        sol = solve_ode(spec)
        with pytest.raises(ValueError):
            range_check(sol, [(0.0, 1.0)], 0.02)


class TestStabilityCrossCheck:
    def test_random_linear_systems(self):
        from demtrack.bounds import stability_bound

        rng = np.random.default_rng(7)
        for _ in range(10):
            a = int(rng.integers(1, 4))
            A = rng.uniform(-1.0, 1.0, size=(a, a))
            c = rng.uniform(-0.5, 0.5, size=a)
            L = float(np.max(np.sum(np.abs(A), axis=1)))
            lam = rng.uniform(0.001, 0.02)
            delta = rng.uniform(0.0, 0.02)
            w = rng.choice([-1.0, 1.0], size=a)

            def base(t, y, A=A, c=c):
                return A @ y + c

            def perturbed(t, y, A=A, c=c, w=w, delta=delta):
                return A @ y + c + delta * w

            dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-50.0,) * a, hi=(50.0,) * a)
            y_hat = tuple(rng.uniform(-0.5, 0.5, size=a))
            z_hat = tuple(v + lam * s for v, s in zip(y_hat, rng.choice([-1.0, 1.0], size=a)))
            sy = make_spec(base, y_hat, dom, n=4096, L=L, lam=lam)
            sz = make_spec(perturbed, z_hat, dom, n=4096, L=L, lam=lam, delta=delta)
            soly = solve_ode(sy, R=60.0 * max(1.0, L), T=1.0)
            solz = solve_ode(sz, R=60.0 * max(1.0, L), T=1.0)
            upto = min(len(soly.ts), len(solz.ts))
            sigma = min(soly.sigma, solz.sigma)
            mask = soly.ts[:upto] <= sigma
            gap = np.abs(soly.ys[:upto][mask] - solz.ys[:upto][mask]).max()
            assert gap <= stability_bound(lam, delta, L, sigma) * (1 + 1e-9)


class TestLipschitzDiagnostic:
    def test_honest_constant_passes_quietly(self):
        import warnings

        spec, _ = balls_in_bins_spec(1000)  # |dF/dy| = 1 = L
        from demtrack.ode import estimate_lipschitz_lower_bound

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_lipschitz_lower_bound(spec)
        assert 0.5 < est <= 1.0

    def test_understated_constant_warns(self):
        from demtrack.ode import estimate_lipschitz_lower_bound

        dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(-1.0,), hi=(1.0,))
        spec = make_spec(lambda t, y: -3.0 * np.asarray(y), (0.5,), dom, L=1.0)
        with pytest.warns(UserWarning, match="too small"):
            est = estimate_lipschitz_lower_bound(spec)
        assert est > 1.0


def test_uniqueness_proxy_restart_mid_trajectory():
    dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.05,), hi=(1.2,))
    spec = make_spec(decay, (1.0,), dom, n=4096, lam=1e-4)
    sol = solve_ode(spec, R=1.25, T=1.0)
    j0 = 1500
    n_steps = grid_steps(spec, 1.0)
    assert n_steps == 4096
    t0 = sol.ts[j0]
    restart_dom = Domain(t_lo=-0.1, t_hi=1.0 - t0, lo=(0.05,), hi=(1.2,))
    restart = make_spec(decay, tuple(sol.ys[j0]), restart_dom, n=4096, lam=1e-4)
    sol2 = solve_ode(restart, R=1.25, T=1.0 - t0)
    upto = min(len(sol.ts) - j0, len(sol2.ts))
    gap = np.abs(sol.ys[j0 : j0 + upto] - sol2.ys[:upto]).max()
    assert gap < 1e-9


class CallCounter:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def nan_after(t, y):
    # scalar only: ``t > 0.3`` is ambiguous on stacked times
    y = np.asarray(y, dtype=float)
    return np.full_like(y, math.nan) if t > 0.3 else -y


def stacked_liar(t, y):
    # right on one point, off by one on stacked points
    y = np.asarray(y, dtype=float)
    return -y + (np.ndim(t) > 0)


def always_fails(t, y):
    raise ZeroDivisionError("field undefined")


SCAN_DOM = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,), hi=(1.0,))


def scan_cases():
    """(name, spec, takes stacked points) for the builtins and custom fields."""
    yield "balls", balls_in_bins_spec(1000)[0], True
    yield "degree", degree_process_spec(1000, max_degree=3)[0], True
    yield "matching", greedy_matching_spec(1000)[0], True
    yield "decay", make_spec(decay, (0.0,), SCAN_DOM), True
    yield "zeros", make_spec(lambda t, y: np.zeros(1), (0.0,), SCAN_DOM, L=0.0), False
    yield "nan-after", make_spec(nan_after, (0.0,), SCAN_DOM), False
    yield "liar", make_spec(stacked_liar, (0.0,), SCAN_DOM), False


def rt_slab_calls(ndim, res, slab_cap):
    """Drift calls of the RT scan: per slab, one stacked call and a
    single-point check of its first, middle and last point. A slab is the
    grid of the most trailing axes that make at most ``slab_cap`` points,
    and at least the last axis, after one point of the other axes' grid."""
    axes = max([k for k in range(1, ndim + 1) if res**k <= slab_cap], default=1)
    size = res**axes
    return res ** (ndim - axes) * (1 + len({0, size // 2, size - 1}))


class TestStackedScans:
    @pytest.mark.parametrize("name,spec,stacked", list(scan_cases()))
    def test_compute_RT_matches_per_point_loop(self, name, spec, stacked):
        counted = CallCounter(spec.drift)
        if name == "nan-after":
            # the first scan point past t = 0.3, at the lowest y
            message = "drift is not finite at the RT scan point t=0.30952380952380953, y=[-1.0]"
            for scan in (reference_compute_RT, compute_RT):
                with pytest.raises(ValueError, match=re.escape(message)):
                    scan(replace(spec, drift=counted))
            return
        got = compute_RT(replace(spec, drift=counted))
        assert got == reference_compute_RT(spec)
        ndim = spec.a + 1
        res = min(RT_GRID_RESOLUTION, max(4, int(RT_GRID_BUDGET ** (1.0 / ndim))))
        if stacked:
            assert counted.calls == rt_slab_calls(ndim, res, RT_SCAN_CHUNK)
        else:
            assert counted.calls > res**ndim

    @pytest.mark.parametrize("name,spec,stacked", list(scan_cases()))
    def test_lipschitz_matches_per_point_loop(self, name, spec, stacked):
        for samples, seed in ((256, 0), (33, 7)):
            if name == "nan-after":
                # the first sample point past t = 0.3, in sampling order
                t, y = {0: (0.45544253098218146, [-0.4604265724722594]),
                        7: (0.4376431999070005, [0.794427601939151])}[seed]
                message = f"drift is not finite at the Lipschitz sample point t={t!r}, y={y!r}"
                for scan in (reference_lipschitz, estimate_lipschitz_lower_bound):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        scan(spec, samples=samples, seed=seed)
                continue
            got = estimate_lipschitz_lower_bound(spec, samples=samples, seed=seed)
            assert got == reference_lipschitz(spec, samples=samples, seed=seed)

    def test_lipschitz_refuses_an_infinite_field(self):
        def inf_above(t, y):
            return np.where(np.asarray(y) > 0.5, math.inf, 0.0)

        spec = make_spec(inf_above, (0.0,), SCAN_DOM)
        with pytest.raises(ValueError, match="not finite at the Lipschitz sample point"):
            estimate_lipschitz_lower_bound(spec)

    def test_field_errors_propagate(self):
        """A field that raises is refused with ValueError naming the first
        point, chained from the field's exception."""
        spec = make_spec(always_fails, (0.0,), SCAN_DOM)
        first = np.random.default_rng(0).uniform((-0.5, -1.0), (1.0, 1.0), size=(256, 2, 2))[0, 0].tolist()
        for scan, where in (
            (compute_RT, "RT scan point t=-0.5, y=[-1.0]"),
            (estimate_lipschitz_lower_bound, f"Lipschitz sample point t={first[0]!r}, y=[{first[1]!r}]"),
        ):
            message = f"drift raised ZeroDivisionError('field undefined') at the {where}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
                scan(spec)
            assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_an_output_the_point_cannot_take_is_refused(self):
        """An (a + 1,) output for an (a,) point is refused by both scans,
        naming the first point, as a field that raises is."""
        spec = make_spec(lambda t, y: np.zeros(2), (0.0,), SCAN_DOM)
        first = np.random.default_rng(0).uniform((-0.5, -1.0), (1.0, 1.0), size=(256, 2, 2))[0, 0].tolist()
        for scan, where in (
            (compute_RT, "RT scan point t=-0.5, y=[-1.0]"),
            (estimate_lipschitz_lower_bound, f"Lipschitz sample point t={first[0]!r}, y=[{first[1]!r}]"),
        ):
            named = rf"^drift raised ValueError\(.*\) at the {re.escape(where)}$"
            with pytest.raises(ValueError, match=named) as err:
                scan(spec)
            assert isinstance(err.value.__cause__, ValueError)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-1.2, 1.2),
                st.one_of(st.floats(-1.5, 1.5), st.just(math.nan)),
                st.one_of(st.floats(-1.5, 1.5), st.just(math.nan)),
            ),
            min_size=1,
            max_size=30,
        ),
        margin=st.floats(0.0, 0.6),
    )
    def test_compute_sigma_matches_per_point_loop(self, rows, margin):
        dom = Domain(t_lo=-1.0, t_hi=1.0, lo=(-1.0, -0.5), hi=(1.0, 1.25))
        spec = make_spec(decay, (0.0, 0.0), dom)
        ts = np.array([r[0] for r in rows])
        ys = np.array([r[1:] for r in rows])
        assert compute_sigma(ts, ys, spec, margin) == reference_sigma(ts, ys, spec, margin)


def wavy(t, y):
    # takes stacked points: F_k = t * y_k - y_{k+1} (cyclically) + k / 4
    y = np.asarray(y, dtype=float)
    return np.asarray(t)[..., None] * y - np.roll(y, -1, axis=-1) + 0.25 * np.arange(y.shape[-1])


def holed(t, y):
    # wavy, infinite where t > 0.3 and the last coordinate is above 0.2
    hole = (np.asarray(t)[..., None] > 0.3) & (np.asarray(y)[..., -1:] > 0.2)
    return np.where(hole, math.inf, wavy(t, y))


class TestRTSlabs:
    """``compute_RT`` makes one drift call per slab of the trailing axes'
    grid. With RT_SCAN_CHUNK at 7 and 100 points, slabs are one axis of 64
    points (more than 7), or 15, 25 or 64 points. The budget is cut to 4,096
    points so the reference's one call per point stays fast.
    """

    @pytest.mark.parametrize("slab_cap", [7, 100])
    @pytest.mark.parametrize("ndim", [2, 3, 4, 5, 6])
    def test_slabs_match_the_reference(self, ndim, slab_cap):
        dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,) * (ndim - 1), hi=(1.0,) * (ndim - 1))
        spec = make_spec(wavy, (0.0,) * (ndim - 1), dom)
        counted = CallCounter(wavy)
        with mock.patch.object(ode, "RT_SCAN_CHUNK", slab_cap), \
                mock.patch.object(ode, "RT_GRID_BUDGET", 4096), \
                mock.patch.object(scan_reference, "RT_GRID_BUDGET", 4096):
            assert compute_RT(replace(spec, drift=counted)) == reference_compute_RT(spec)
            res = min(RT_GRID_RESOLUTION, max(4, int(4096 ** (1.0 / ndim))))
            assert counted.calls == rt_slab_calls(ndim, res, slab_cap)
            with pytest.raises(ValueError, match="not finite at the RT scan point") as want:
                reference_compute_RT(replace(spec, drift=holed))
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                compute_RT(replace(spec, drift=holed))


def brittle(t, y):
    # takes stacked points; raises past t = 0.55 and within 0.3 of y = 0
    y = np.asarray(y, dtype=float)
    if np.any(np.asarray(t) > 0.55) or np.any(np.abs(y) < 0.3):
        raise FloatingPointError("outside the supported region")
    return -y


def tripwire(t, y):
    # u' = -u, v' = 0 on stacked points; raises where v > 0.5 and u < 0.1722,
    # just above u = 0.17217, where TRIP_DOM's bottom face margin begins
    y = np.asarray(y, dtype=float)
    u, v = y[..., 0], y[..., 1]
    if np.any((v > 0.5) & (u < 0.1722)):
        raise FloatingPointError("tripped")
    return np.stack([-u, np.zeros_like(v)], axis=-1)


TRIP_DOM = Domain(t_lo=-0.5, t_hi=2.0, lo=(0.15, -1.0), hi=(1.1, 1.0))
DRIVER_CASES = {name: spec for name, spec, _ in scan_cases()}
DRIVER_CASES["brittle"] = make_spec(brittle, (0.0,), SCAN_DOM)
DRIVER_CASES["tripwire"] = make_spec(tripwire, (1.0, 0.0), TRIP_DOM)
# anchor coordinates as fractions of the box; 0.001 lies within every case's
# margin of the bottom face (sigma = 0)
FRACTIONS = (0.001, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)


def anchored(name, fractions):
    spec = DRIVER_CASES[name]
    dom = spec.domain
    y_hat = tuple(lo + f * (hi - lo) for f, lo, hi in zip(fractions, dom.lo, dom.hi))
    return replace(spec, y_hat=y_hat)


@lru_cache(maxsize=256)
def reference_solution(name, fractions):
    spec = anchored(name, fractions)
    return reference_solve_ode(spec, 2.0, spec.domain.t_hi)


def assert_driver_matches_reference(name, anchors, block):
    specs = [anchored(name, fr) for fr in anchors]
    T = specs[0].domain.t_hi
    with mock.patch.object(ode, "_RK4_BLOCK", block):
        grids = anchor_grids(specs, T)
    for spec, fr, grid in zip(specs, anchors, grids):
        got, want = solve_ode(spec, 2.0, T, grid), reference_solution(name, fr)
        assert got.ts.tobytes() == want.ts.tobytes()
        assert got.ys.tobytes() == want.ys.tobytes()
        assert got.constants == want.constants


class TestDriver:
    """``anchor_grids`` against the step-by-step loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(DRIVER_CASES)),
        block=st.sampled_from((1, 2, 3, 7, _RK4_BLOCK)),
        data=st.data(),
    )
    def test_matches_stepwise_reference(self, name, block, data):
        a = DRIVER_CASES[name].a
        anchors = data.draw(
            st.lists(st.tuples(*[st.sampled_from(FRACTIONS)] * a), min_size=1, max_size=4)
        )
        assert_driver_matches_reference(name, anchors, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, _RK4_BLOCK])
    @pytest.mark.parametrize("name", ["balls", "matching"])
    def test_anchors_halting_apart(self, name, block):
        anchors = [(0.001,), (0.1,), (0.3,), (0.7,)]
        rows = {len(reference_solution(name, fr).ts) for fr in anchors}
        assert len(rows) == 4 and 1 in rows  # four halting rows, one at the anchor
        assert_driver_matches_reference(name, anchors, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, _RK4_BLOCK])
    @pytest.mark.parametrize("start", [(), ((0.5,),)])
    def test_a_raising_step_halts_at_the_last_full_row(self, start, block):
        # from |y| = 0.8, the step whose last stage passes t = 0.55 raises;
        # from 0.4, |y| crosses 0.3 within a step, which raises. Either way
        # the anchor halts at its last full row (the grid step is 1/4096).
        # From 0, the first call raises: the anchors are then not stacked.
        anchors = [(0.1,), (0.3,), (0.9,), *start]
        ends = [reference_solution("brittle", fr).ts[-1] * 4096 for fr in anchors]
        assert ends == [2252.0, 1178.0, 2252.0, *(0.0 for _ in start)]
        assert_driver_matches_reference("brittle", anchors, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, _RK4_BLOCK])
    def test_halt_inside_a_redone_block(self, block):
        # the anchor at v = 0.9 raises two steps before the one at v = 0 halts
        # on the margin, so that halt happens while its block is redone
        # (for blocks of 3 and more, which do not split rows 7225..7227)
        anchors = [(0.9, 0.5), (0.9, 0.95)]
        ends = [reference_solution("tripwire", fr).ts[-1] * 4096 for fr in anchors]
        assert ends == [7227.0, 7225.0]
        assert_driver_matches_reference("tripwire", anchors, block)

    def test_rk4_grid_matches_reference(self):
        spec = degree_process_spec(1000, max_degree=3)[0]
        for f, y0, t0, t1, steps in (
            (decay, np.array([1.0]), 0.0, 1.0, 1000),
            (decay, [0.5], -0.25, 0.75, 7),
            (brittle, [1.0], 0.0, 0.5, 100),
            (spec.drift, np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.5, 64),
        ):
            ts, ys = rk4_solve(f, [y0], t0, t1, steps, box(len(y0)), 0.0)[0]
            want_ts, want = reference_rk4_grid(f, y0, t0, t1, steps)
            assert ts.tobytes() == want_ts.tobytes()
            assert ys.tobytes() == want.tobytes()

    def test_stacked_anchors_cut_drift_calls(self):
        spec, _ = degree_process_spec(10_000, max_degree=3)
        specs = [replace(spec, y_hat=(1.0 + f * spec.lam, 0.0, 0.0, 0.0)) for f in (-0.5, 0.0, 0.5)]
        T = spec.domain.t_hi
        stacked, stepwise = CallCounter(spec.drift), CallCounter(spec.drift)
        anchor_grids([replace(s, drift=stacked) for s in specs], T)
        for s in specs:
            reference_solve_ode(replace(s, drift=stepwise), 2.0, T)
        assert 2.8 <= stepwise.calls / stacked.calls <= 3.0


def late_field(thr, late):
    """``decay`` up to time ``thr``; past it, ``late(y)`` (which may raise)."""

    def field(t, y):
        return late(y) if t > thr else decay(t, y)

    return field


def raise_late(y):
    raise FloatingPointError("past the supported time")


def widen_late(y):
    return np.full(2, -y[0])  # shape (2,) for a one-coordinate state


class Recorder:
    """``decay``, recording the type of each call's ``t`` and ``y``."""

    def __init__(self):
        self.calls = []

    def __call__(self, t, y):
        self.calls.append((type(t), type(y), np.shape(y), np.asarray(y).dtype))
        return decay(t, y)


# size-one outputs of a field for a (1,) point y: float64 arrays of shapes
# () and (1, 1), and outputs that are not float64 arrays; int rounds -4y down
SIZE_ONE_OUTPUTS = {
    "shape0": lambda y: np.reshape(-np.asarray(y, dtype=float), ()),
    "shape1": lambda y: np.reshape(-np.asarray(y, dtype=float), (1, 1)),
    "float": lambda y: -float(y[0]),
    "list": lambda y: [-float(y[0])],
    "float32": lambda y: np.reshape(-np.asarray(y, dtype=np.float32), (1,)),
    "int64": lambda y: np.reshape(np.floor(-4.0 * np.asarray(y)), (1,)).astype(np.int64),
}


class TestOneCoordinate:
    """A single one-coordinate anchor steps on Python floats; its grids and
    halts equal the reference's, whatever size-1 shape the field gives."""

    @pytest.mark.parametrize("block", [1, 7, _RK4_BLOCK])
    @pytest.mark.parametrize("output", SIZE_ONE_OUTPUTS)
    def test_size_one_outputs_give_the_reference_grids(self, output, block):
        # balls' field -y given back as each output; none takes stacked
        # points, so several anchors are stepped one at a time, each on
        # floats. A float64 array is read with .item(), the others through
        # np.asarray(r, dtype=float); the reference reads each as a float
        # array in the point's shape
        def field(t, y):
            return SIZE_ONE_OUTPUTS[output](y)

        def in_point_shape(t, y):
            return np.reshape(np.asarray(field(t, y), dtype=float), np.shape(y))

        anchors = [(0.001,), (0.1,), (0.3,), (0.7,)]
        specs = [replace(anchored("balls", fr), drift=field) for fr in anchors]
        T = specs[0].domain.t_hi
        with mock.patch.object(ode, "_RK4_BLOCK", block):
            together = anchor_grids(specs, T)
            alone = [anchor_grids([s], T)[0] for s in specs]
        for spec, *got in zip(specs, together, alone):
            want = reference_solve_ode(replace(spec, drift=in_point_shape), 2.0, T)
            for grid in got:
                sol = solve_ode(spec, 2.0, T, grid)
                assert sol.ts.tobytes() == want.ts.tobytes()
                assert sol.ys.tobytes() == want.ys.tobytes()
                assert sol.constants == want.constants
        ts, ys = rk4_solve(field, [[0.9]], 0.0, 1.5, 1000, box(1), 0.0)[0]
        want_ts, want = reference_rk4_grid(in_point_shape, np.array([0.9]), 0.0, 1.5, 1000)
        assert ts.tobytes() == want_ts.tobytes()
        assert ys.tobytes() == want.tobytes()

    # 1228 = 19 * 64 + 12 lies inside a block. The step from row 1228 passes
    # thr at its last stage, t + h = 1229 / 4096, for frac = 0.75, and at its
    # second, t + h/2 = 1228.5 / 4096, for frac = 0.1; either way the anchor
    # halts at its last full row, 1228.
    @pytest.mark.parametrize("block", [1, 2, 3, 7, _RK4_BLOCK])
    @pytest.mark.parametrize("late", [raise_late, widen_late])
    @pytest.mark.parametrize("frac,end", [(0.75, 1228.0), (0.1, 1228.0)])
    def test_a_failing_step_halts_where_the_reference_halts(self, frac, end, late, block):
        thr = (1228 + frac) / 4096
        want = reference_solve_ode(make_spec(late_field(thr, raise_late), (0.9,), SCAN_DOM), 2.0, 1.0)
        assert want.ts[-1] * 4096 == end
        spec = make_spec(late_field(thr, late), (0.9,), SCAN_DOM)
        with mock.patch.object(ode, "_RK4_BLOCK", block):
            got = solve_ode(spec, 2.0, 1.0)
        assert got.ts.tobytes() == want.ts.tobytes()
        assert got.ys.tobytes() == want.ys.tobytes()
        assert got.constants == want.constants

    def test_the_field_gets_a_float_time_and_a_one_element_array(self):
        each = {(float, np.ndarray, (1,), np.dtype(float))}
        rec = Recorder()
        rk4_solve(rec, [[0.9]], 0.0, 1.0, 10, box(1), 0.0)
        assert len(rec.calls) == 4 * 10 and set(rec.calls) == each
        spec = make_spec(rec, (0.9,), SCAN_DOM)
        for block, steps in ((1, 4063), (_RK4_BLOCK, 4096)):  # whole blocks are stepped
            rec.calls.clear()
            with mock.patch.object(ode, "_RK4_BLOCK", block):
                ts, _ = anchor_grids([spec], 1.0)[0]
            assert len(ts) == 4064  # halted within the margin 3e/1000 of the time face
            assert len(rec.calls) == 4 * steps and set(rec.calls) == each


class WideRecorder:
    """A two-coordinate linear field that returns shape (1, 2) for a point of
    shape (2,), recording the shape of every point it gets."""

    def __init__(self):
        self.shapes = []

    def __call__(self, t, y):
        self.shapes.append(np.shape(y))
        y = np.asarray(y, dtype=float)
        return np.reshape([-y[..., 0], y[..., 0] - 2.0 * y[..., 1]], (1, 2))


def test_a_wide_field_output_is_read_in_the_points_shape():
    """``_rk4_arrays`` reads a (1, 2) output for a (2,) point as that point's
    derivative: every stage and every later step of the block gets a (2,)
    point, and the grid is the one of a field that returns (2,)."""
    rec = WideRecorder()
    ts, ys = rk4_solve(rec, [[0.9, 0.1]], 0.0, 1.0, 100, box(2), 0.0)[0]
    assert len(rec.shapes) == 4 * 100 and set(rec.shapes) == {(2,)}
    want_ts, want = reference_rk4_grid(
        lambda t, y: rec(t, y)[0], np.array([0.9, 0.1]), 0.0, 1.0, 100
    )
    assert ts.tobytes() == want_ts.tobytes()
    assert ys.tobytes() == want.tobytes()


DEGREE_FIELD = degree_process_spec(1000, max_degree=3)[0].drift


def own_y(t, y):
    # y' = y: the field gives its own argument back, the stage input buffer
    return y


def wide(t, y):
    # the degree field as (1, a) for a point; (1, N*a) for N stacked points,
    # which fails the stacked check, so anchors are stepped one at a time
    return np.reshape(DEGREE_FIELD(t, y), (1, -1))


def raising_past(field, thr):
    def raising(t, y):
        if np.any(np.asarray(t) > thr):
            raise FloatingPointError("past the supported time")
        return field(t, y)

    return raising


# field name -> (the field, the reference's field in the point's shape)
BUFFER_FIELDS = {
    "own-y": (own_y, own_y),
    "wide": (wide, lambda t, y: wide(t, y)[0]),
    "degree": (DEGREE_FIELD, DEGREE_FIELD),
}
BUFFER_DOM = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,) * 4, hi=(2.0,) * 4)
BUFFER_ANCHORS = ((0.1, 0.2, 0.3, 0.4), (0.5, 0.1, 0.0, 0.2), (0.3, 0.3, 0.3, 0.1))


def raise_time(frac):
    # past (1228 + frac) / 4096, inside the block of rows 1216..1280: the step
    # from row 1228 raises, at its last stage for frac = 0.75 and at its
    # second for frac = 0.1, so the anchor halts at row 1228
    return math.inf if frac is None else (1228 + frac) / 4096


@lru_cache(maxsize=None)
def buffer_reference(name, frac, anchor):
    field = raising_past(BUFFER_FIELDS[name][1], raise_time(frac))
    return reference_solve_ode(make_spec(field, anchor, BUFFER_DOM), 2.0, 1.0)


class TestStageBuffers:
    """The driver reuses its stage buffers and its time array within a block;
    fields that alias, reshape or raise give the step-by-step reference's
    grids, stacked (K = 3), for one a = 4 anchor, and in a block redone
    step by step up to the step that raises."""

    @pytest.mark.parametrize("frac", [None, 0.75, 0.1])
    @pytest.mark.parametrize("anchors", [BUFFER_ANCHORS, BUFFER_ANCHORS[:1]], ids=["K=3", "one"])
    @pytest.mark.parametrize("name", sorted(BUFFER_FIELDS))
    def test_grids_equal_the_reference(self, name, anchors, frac):
        field = raising_past(BUFFER_FIELDS[name][0], raise_time(frac))
        if len(anchors) > 1:
            stacks = ode._stacked_drift(field, np.zeros(len(anchors)), np.array(anchors))
            assert (stacks is None) == (name == "wide")
        specs = [make_spec(field, anchor, BUFFER_DOM) for anchor in anchors]
        for spec, anchor, grid in zip(specs, anchors, anchor_grids(specs, 1.0)):
            got, want = solve_ode(spec, 2.0, 1.0, grid), buffer_reference(name, frac, anchor)
            assert got.ts.tobytes() == want.ts.tobytes()
            assert got.ys.tobytes() == want.ys.tobytes()
            assert got.constants == want.constants
        if frac is not None:
            assert want.ts[-1] * 4096 == 1228.0


def raising_below(thr, c):
    """``decay`` on one point or stacked points; raises once some point with
    first coordinate below ``c`` is evaluated at a time past ``thr``."""

    def field(t, y):
        y = np.asarray(y, dtype=float)
        if np.any((np.asarray(t) > thr) & (y[..., 0] < c)):
            raise FloatingPointError("past the supported region")
        return -y

    return field


class TestRaisingFieldHalts:
    """A step that raises ends its anchor's grid at the last full row, so
    every grid is a prefix of the uniform grid. The field raises past
    (1228 + 0.75) / 4096, inside a block, on the anchor that starts at 0.5
    only: the step from row 1228 raises at its last stage, t + h, while a
    step of half width from that row would not raise at all."""

    @pytest.mark.parametrize("block", [1, 7, _RK4_BLOCK])
    @pytest.mark.parametrize("anchors", [
        [(0.5,)],                               # a = 1, the float stepper
        [(0.5, 0.2)],                           # a = 2, the array stepper
        [(1.2, 0.2), (0.5, 0.2), (1.5, 0.2)],   # K = 3 stacked, one raises
    ], ids=["floats", "arrays", "stacked"])
    def test_grids_are_prefixes_of_the_uniform_grid(self, anchors, block):
        field = raising_below((1228 + 0.75) / 4096, 0.42)
        a = len(anchors[0])
        dom = Domain(t_lo=-0.5, t_hi=1.0, lo=(-1.0,) * a, hi=(2.0,) * a)
        specs = [make_spec(field, anchor, dom) for anchor in anchors]
        if len(anchors) > 1:
            assert ode._stacked_drift(field, np.zeros(len(anchors)), np.array(anchors)) is not None
        steps = grid_steps(specs[0], 1.0)
        uniform = 0.0 + (1.0 / steps) * np.arange(steps + 1)
        with mock.patch.object(ode, "_RK4_BLOCK", block):
            grids = anchor_grids(specs, 1.0)
        for spec, grid in zip(specs, grids):
            sol = solve_ode(spec, 2.0, 1.0, grid)
            assert sol.ts.tobytes() == uniform[: len(sol.ts)].tobytes()
            above = dom.distance(sol.ts, sol.ys) >= sol.constants.margin
            if spec.y_hat[0] == 0.5:  # halted by the raise, at row 1228
                assert len(sol.ts) == 1229 and above.all()
                assert sol.sigma == sol.ts[-1]
            else:  # halted by the margin, on the first row below it
                assert above[:-1].all() and not above[-1]
                assert sol.sigma == sol.ts[-2]


class StageRecorder:
    """The degree field, recording the type, dtype and a copy of each ``t``."""

    def __init__(self):
        self.calls = []

    def __call__(self, t, y):
        self.calls.append((type(t), np.asarray(t).dtype, np.array(t)))
        return DEGREE_FIELD(t, y)


def test_stacked_stages_get_their_times_in_a_float64_array():
    rec = StageRecorder()
    t0, t1, steps = -0.25, 0.5, 10
    got = ode.rk4_solve(rec, BUFFER_ANCHORS, t0, t1, steps, box(4), 0.0)
    h = (t1 - t0) / steps
    # the stacked check's four calls at t0 (one stacked, three single points),
    # then four per step
    assert len(rec.calls) == 4 + 4 * steps
    for j in range(steps):
        t = t0 + j * h
        stages = (t, t + 0.5 * h, t + 0.5 * h, t + h)
        for (kind, dtype, times), want in zip(rec.calls[4 + 4 * j :], stages):
            assert kind is np.ndarray and dtype == np.float64
            assert times.tobytes() == np.full(3, want).tobytes()
    for anchor, (ts, ys) in zip(BUFFER_ANCHORS, got):
        want_ts, want = reference_rk4_grid(DEGREE_FIELD, np.array(anchor), t0, t1, steps)
        assert ts.tobytes() == want_ts.tobytes()
        assert ys.tobytes() == want.tobytes()


def test_degree_verify_single_anchor_grid_is_pinned():
    """The one a = 4 anchor of scripts/specs/degree_verify.json, solved alone:
    no benchmark digest covers it (balls steps on floats, degree-anchors is
    stacked, degree-paths solves no ODE). Pinned before the array stage loop
    replaced the per-step RK4 function."""
    spec, _ = load_spec(Path(__file__).resolve().parents[1] / "scripts" / "specs" / "degree_verify.json")
    ((ts, ys),) = anchor_grids([spec], compute_RT(spec)[1])
    assert ys.shape == (2785, 4)
    digest = hashlib.sha256(ts.tobytes() + ys.tobytes()).hexdigest()
    assert digest == "04c9d96a5678999dedf176b765b596f19330dcee1133b78b534380bf1c8d69c2"
