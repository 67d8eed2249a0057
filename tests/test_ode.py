import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_reference import reference_compute_RT, reference_lipschitz, reference_sigma

from demtrack import Domain, ProcessSpec
from demtrack.ode import (
    RT_GRID_BUDGET,
    RT_GRID_RESOLUTION,
    RT_SCAN_CHUNK,
    check_lambda_admissible,
    compute_RT,
    compute_sigma,
    estimate_lipschitz_lower_bound,
    grid_steps,
    lambda_threshold,
    range_check,
    rk4_grid,
    solve_ode,
)
from demtrack.processes import balls_in_bins_spec, degree_process_spec, greedy_matching_spec


def make_spec(drift, y_hat, domain, n=4096, L=1.0, lam=1e-3, delta=0.0, beta=1.0):
    return ProcessSpec(
        n=n, drift=drift, L=L, delta=delta, beta=beta, lam=lam,
        y_hat=y_hat, domain=domain,
    )


def decay(t, y):
    return -np.asarray(y, dtype=float)


class TestRK4:
    def test_decay_accuracy(self):
        _, ys = rk4_grid(decay, np.array([1.0]), 0.0, 1.0, 1000)
        assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-10

    def test_fourth_order_convergence(self):
        errs = []
        for steps in (64, 128):
            _, ys = rk4_grid(decay, np.array([1.0]), 0.0, 1.0, steps)
            errs.append(abs(ys[-1, 0] - math.exp(-1.0)))
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            rk4_grid(decay, np.array([1.0]), 0.0, 1.0, 0)


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
        assert check_lambda_admissible(spec, R=1.1, T=2.0)

    def test_equality_is_admissible(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=10_000, lam=1.1e-4)
        assert check_lambda_admissible(spec, R=1.1, T=2.0)

    def test_below_threshold(self):
        dom = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
        spec = make_spec(decay, (1.0,), dom, n=10_000, lam=1e-5)
        assert not check_lambda_admissible(spec, R=1.1, T=2.0)

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


class TestStackedScans:
    @pytest.mark.parametrize("name,spec,stacked", list(scan_cases()))
    def test_compute_RT_matches_per_point_loop(self, name, spec, stacked):
        counted = CallCounter(spec.drift)
        got = compute_RT(replace(spec, drift=counted))
        assert got == reference_compute_RT(spec)
        ndim = spec.a + 1
        res = min(RT_GRID_RESOLUTION, max(4, int(RT_GRID_BUDGET ** (1.0 / ndim))))
        chunks = math.ceil(res**ndim / RT_SCAN_CHUNK)
        # one stacked call and three single-point checks per chunk
        if stacked:
            assert counted.calls == 4 * chunks
        else:
            assert counted.calls > res**ndim

    @pytest.mark.parametrize("name,spec,stacked", list(scan_cases()))
    def test_lipschitz_matches_per_point_loop(self, name, spec, stacked):
        for samples, seed in ((256, 0), (33, 7)):
            got = estimate_lipschitz_lower_bound(spec, samples=samples, seed=seed)
            assert got == reference_lipschitz(spec, samples=samples, seed=seed)

    def test_field_errors_propagate(self):
        spec = make_spec(always_fails, (0.0,), SCAN_DOM)
        with pytest.raises(ZeroDivisionError, match="undefined"):
            compute_RT(spec)
        with pytest.raises(ZeroDivisionError, match="undefined"):
            estimate_lipschitz_lower_bound(spec)

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
