"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two end-to-end
ensembles (criteria 9 and 10) are shared through module-scoped fixtures, so
the whole module stays within its runtime budget.
"""

import math

import numpy as np
import pytest
from oracle_utils import oracle_drift, reachable_states

from demtrack import bounds
from demtrack.core import Domain
from demtrack.ode import grid_steps, rk4_solve, solve_ode
from demtrack.processes import (
    BallsInBins,
    DegreeProcess,
    GreedyMatching,
    balls_in_bins_spec,
    degree_process_spec,
)
from demtrack.simulate import doob_decompose, run_ensemble
from demtrack.verify import verify


def ok(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS -- {text}")


# --- shared end-to-end runs (criteria 9 and 10) ---------------------------

BALLS_DOM = Domain(t_lo=-0.2, t_hi=1.0, lo=(0.05,), hi=(1.3,))


@pytest.fixture(scope="module")
def balls_run():
    spec, plugin = balls_in_bins_spec(100_000, lam=0.02, domain=BALLS_DOM)
    report = verify(spec, plugin, 200, base_seed=20240, replay_check=True)
    return spec, report


@pytest.fixture(scope="module")
def degree_run():
    spec, plugin = degree_process_spec(10_000, max_degree=3, lam=0.01)
    report = verify(spec, plugin, 100, base_seed=555, replay_check=True)
    return spec, report


# --- criteria ---------------------------------------------------------------

def test_01_closed_form_bound_evaluators():
    assert bounds.azuma_bound(100, 1.0, 20.0) == pytest.approx(
        2.0 * math.exp(-2.0), rel=1e-12
    )
    assert bounds.theorem_failure_probability(
        2, 10**6, 0.01, 1.0, 1.0
    ) == pytest.approx(4.0 * math.exp(-12.5), rel=1e-12)
    assert bounds.gronwall_discrete_bound(2.0, 1.0, 0.5, 4) == pytest.approx(
        4.0 * math.e**2, rel=1e-12
    )
    ok(1, "azuma / failure-probability / discrete-recurrence evaluators exact to 1e-12")


def test_02_discrete_gronwall_soundness():
    # 10^4 sequences built to satisfy x_j < c + sum(a*x_i + b) with slack
    rng = np.random.default_rng(101)
    count, max_m = 10_000, 30
    c = rng.uniform(0.0, 5.0, count)
    bb = rng.uniform(0.0, 3.0, count)
    a = rng.uniform(0.01, 1.5, count)
    m = rng.integers(0, max_m + 1, count)
    totals = np.zeros(count)
    x_at_m = np.zeros(count)
    for j in range(max_m + 1):
        x_j = c + totals - rng.uniform(0.001, 1.0, count)
        x_at_m[m == j] = x_j[m == j]
        totals += a * x_j + bb
    cap = (c + bb * np.minimum(m, 1.0 / a)) * np.exp(a * m)
    violations = int(np.sum(x_at_m >= cap))
    assert violations == 0
    ok(2, f"{count} recurrence-satisfying sequences, 0 bound violations")


def test_03_azuma_empirical_tail():
    runs, m = 100_000, 1000
    thresholds = (50, 100, 150)
    exceed = {t: 0 for t in thresholds}
    rng = np.random.default_rng(2025)
    batch = 10_000
    for _ in range(runs // batch):
        steps = rng.integers(0, 2, size=(batch, m), dtype=np.int8) * 2 - 1
        walks = np.cumsum(steps, axis=1, dtype=np.int32)
        peaks = np.max(np.abs(walks), axis=1)
        for t in thresholds:
            exceed[t] += int(np.sum(peaks >= t))
    for t in thresholds:
        empirical = exceed[t] / runs
        cap = bounds.azuma_bound(m, 1.0, t)
        assert empirical <= cap, (t, empirical, cap)
    ok(3, "empirical max-deviation frequencies below the tail bound at t=50,100,150")


def test_04_exponential_moment_inequality():
    rng = np.random.default_rng(4)
    size = 100_000
    c = rng.uniform(0.01, 5.0, size)
    lam = rng.uniform(-3.0, 3.0, size)
    x = rng.uniform(-c, c)
    lhs = np.exp(lam * x)
    rhs = (x / (2 * c)) * (np.exp(lam * c) - np.exp(-lam * c)) + np.exp(
        (lam * c) ** 2 / 2.0
    )
    violations = int(np.sum(lhs > rhs + 1e-12))
    assert violations == 0
    ok(4, f"chord/exponential-moment inequality holds on {size} random draws")


def test_05_ode_engine():
    decay = lambda t, y: -np.asarray(y)
    box = Domain(t_lo=-1.0, t_hi=2.0, lo=(-10.0,), hi=(10.0,))
    _, ys = rk4_solve(decay, [np.array([1.0])], 0.0, 1.0, 1000, box, 0.0)[0]
    err_h3 = abs(ys[-1, 0] - math.exp(-1.0))
    assert err_h3 < 1e-10
    errs = []
    for steps in (64, 128):
        _, ys = rk4_solve(decay, [np.array([1.0])], 0.0, 1.0, steps, box, 0.0)[0]
        errs.append(abs(ys[-1, 0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0

    dom = Domain(t_lo=-0.05, t_hi=0.6, lo=(-0.05,) * 6, hi=(1.05,) * 6)
    spec, _ = degree_process_spec(10_000, max_degree=5, lam=1e-4, domain=dom)
    sol = solve_ode(spec)
    got = sol.at(0.5)
    want = np.array(
        [math.exp(-1.0) / math.factorial(k) for k in range(6)]
    )
    worst = float(np.max(np.abs(got - want)))
    assert worst < 1e-8
    ok(5, f"decay error {err_h3:.2e}, halving ratio {ratio:.2f}, "
          f"degree profile off by {worst:.2e}")


@pytest.mark.parametrize("lam", [1e-3, 1e-4])
def test_06_sigma_computation(lam):
    spec, _ = balls_in_bins_spec(10_000, lam=lam)
    sol = solve_ode(spec)
    h = 2.0 / grid_steps(spec, 2.0)
    target = 2.0 - 3.0 * math.e**2 * lam
    assert abs(sol.sigma - target) <= h + 1e-12
    ok(6, f"lam={lam}: sigma={sol.sigma:.6f} within one grid step of {target:.6f}")


def test_07_drift_oracles():
    checked = 0
    for n in range(2, 7):
        jobs = [
            (BallsInBins(n), math.floor(2.0 * n)),
            (DegreeProcess(n, max_degree=2), math.floor(0.5 * n)),
        ]
        if n % 2 == 0:
            jobs.append((GreedyMatching(n), math.floor(0.45 * n)))
        for plugin, depth in jobs:
            for state in reachable_states(plugin, depth):
                want = oracle_drift(plugin, state)
                got = np.array(plugin.drift(state))
                assert np.max(np.abs(got - want)) <= 1e-12
                checked += 1
    ok(7, f"drift equals one-step enumeration at {checked} reachable states, n <= 6")


def test_08_doob_identity():
    spec, plugin = balls_in_bins_spec(10_000, lam=2e-3, domain=BALLS_DOM)
    worst = 0.0
    for traj in run_ensemble(plugin, spec, 100, 0, full_paths=True).trajectories:
        M = doob_decompose(traj)
        recon = M + traj.steps[0] + np.vstack(
            [np.zeros(1), np.cumsum(traj.drifts[:-1], axis=0)]
        )
        rel = np.abs(recon - traj.steps) / np.maximum(1.0, np.abs(traj.steps))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-9
    ok(8, f"decomposition replays 100 trajectories at n=10^4, worst rel err {worst:.1e}")


def test_09_theorem_end_to_end(balls_run, degree_run):
    spec, report = balls_run
    c = report.constants
    assert report.failure_count == 0
    sigma_envelope = 3.0 * math.exp(spec.L * c.sigma) * spec.lam * spec.n
    assert max(report.empirical_sup_deviations) < sigma_envelope
    devs = sorted(report.empirical_sup_deviations)
    median = devs[len(devs) // 2]
    assert median < 0.01 * spec.n
    assert report.failure_probability == pytest.approx(
        2.0 * math.exp(-5.0), rel=1e-12
    )
    assert not report.hypotheses_failed

    dspec, dreport = degree_run
    assert dreport.failure_count == 0
    assert not dreport.hypotheses_failed
    ok(9, f"balls n=1e5: 0/200 past the envelope, median dev {median:.0f} "
          f"(= {median / spec.n:.4f}n), bound {report.failure_probability:.4f}; "
          f"degree n=1e4: 0/100 past the envelope")


def test_10_gronwall_replay_proof_fidelity(balls_run, degree_run):
    total = 0
    for _, report in (balls_run, degree_run):
        assert report.gw_final_inequality_holds
        assert report.replay_checked is not None and report.replay_checked > 0
        assert report.replay_failures == 0
        total += report.replay_checked
    ok(10, f"recurrence chain and final bound hold on all {total} "
           f"martingale-event trajectories")


def test_11_mode_consistency():
    from demtrack import ProcessSpec

    dom = Domain(t_lo=-0.2, t_hi=1.0, lo=(0.05,), hi=(1.3,))
    spec, plugin = balls_in_bins_spec(2_000, lam=0.02, domain=dom)
    degenerate = ProcessSpec(
        n=spec.n, drift=plugin.drift_field, L=spec.L, delta=spec.delta,
        beta=spec.beta, lam=spec.lam, y_hat=spec.y_hat, domain=spec.domain,
        plugin_name=spec.plugin_name,
        trunc_gamma=0.0, trunc_bound=spec.beta, trunc_x=0.0,
    )
    plain = verify(spec, plugin, 25, 77).to_dict()
    trunc = verify(degenerate, plugin, 25, 77, mode="truncated").to_dict()
    assert plain.pop("mode") == "plain" and trunc.pop("mode") == "truncated"
    assert plain == trunc

    # closed-form tail bounds dominate the exact binomial tail on a grid
    grid = 0
    for m in (10, 100, 1_000, 20_000):
        for gamma in (1e-4, 1e-3, 1e-2, 0.05, 0.1):
            for x in (0.0, 1.0, 2.5, 5.0, 10.0):
                exact = bounds.binomial_tail(m, gamma, math.floor(x + 1))
                cap = bounds.binomial_tail_remark_bound(m, gamma, x)
                assert exact <= cap * (1 + 1e-12), (m, gamma, x, exact, cap)
                grid += 1
    assert grid == 100
    ok(11, "degenerate truncation reproduces plain mode bit-identically; "
           "closed-form tail bounds dominate on a 100-point grid")
