"""Trajectory simulation with exact drift recording and online verification stats.

The stopping index of a trajectory is the first step at which the rescaled
state leaves the domain, capped at floor(T*n). Sup-deviation from the ODE
path, the sup of the martingale part, and the recurrence replay are all
accumulated online, so the default thinned storage (every ceil(n/1000)-th
step) never affects verification.

One lockstep kernel simulates a batch of trajectories: step i of every live
trajectory runs at once on arrays with one row per trajectory, through the
plugin's batch methods, so the Python loop runs once per step rather than
once per step and trajectory. The stopping rule, the step-bound check, the
deviation and martingale sups and the replay chain are elementwise array
operations that keep each trajectory's order of float operations. A row that
stops is written out and compacted away. Each trajectory keeps its own
Philox stream; a plugin with ``uniforms_per_step`` gets its uniforms drawn
ahead in blocks, which a counter-based generator yields unchanged. Records
are preallocated for a run to the horizon, and each Trajectory holds views
into them. ``simulate`` is a batch of one; ``run_ensemble`` runs one batch
per worker. Deviations and the replay chain may be tracked against several
ODE solutions (reference paths) at once, as (rows, K) arrays with one column
per path, each column updated only up to its own path's cap.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import Ensemble, ProcessSpec, Trajectory, Violation
from .ode import OdeSolution
from .processes import ProcessPlugin

# Steps of uniforms drawn ahead per trajectory.
_UNIFORM_BLOCK = 256


def derive_seed(base_seed: int, index: int) -> int:
    """64-bit per-trajectory seed hashed from (base_seed, index).

    Order-independent, so ensembles are identical across worker counts.
    """
    ss = np.random.SeedSequence(int(base_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


Solutions = OdeSolution | Sequence[OdeSolution]


@dataclass(frozen=True)
class _SimPrep:
    """Per-spec data shared by every trajectory of an ensemble: K reference paths."""

    yode: np.ndarray       # n * y_k(i/n) of each path, shape (cap+1, K, a)
    caps: np.ndarray       # per path min(floor(T*n), floor(sigma*n)), shape (K,)
    live: np.ndarray       # live[i] = i <= caps, shape (cap+1, K)
    cap: int               # max(caps)
    two_lam_n: float
    step_term: np.ndarray  # per path L*R/n + delta, the per-step additive recurrence term
    L_over_n: float
    single: bool           # one solution, not a sequence: trajectories get scalars


def _prepare(spec: ProcessSpec, solution: Solutions) -> _SimPrep:
    n = spec.n
    single = isinstance(solution, OdeSolution)
    solutions = [solution] if single else list(solution)
    if not solutions:
        raise ValueError("need at least one ODE solution")
    consts = [s.constants for s in solutions]
    caps = np.array(
        [min(math.floor(c.T * n), math.floor(c.sigma * n + 1e-9)) for c in consts]
    )
    cap = int(caps.max())
    # a path is interpolated past its own cap too; those rows are never used
    return _SimPrep(
        yode=np.stack([s.counts_at_steps(cap) for s in solutions], axis=1),
        caps=caps,
        live=np.arange(cap + 1)[:, None] <= caps,
        cap=cap,
        two_lam_n=2.0 * (spec.lam * n),
        step_term=np.array([spec.L * c.R / n + spec.delta for c in consts]),
        L_over_n=spec.L / n,
        single=single,
    )


def simulate(
    plugin: ProcessPlugin,
    spec: ProcessSpec,
    seed: int,
    *,
    solution: Solutions | None = None,
    full_paths: bool = False,
    event_predicate: Callable[[int, tuple], bool] | None = None,
    replay_check: bool = False,
) -> Trajectory:
    """Run one trajectory from a 64-bit seed.

    When ``solution`` is supplied, the sup-deviation from the ODE path over
    steps 0..min(sigma*n, first predicate failure) is tracked online, and
    with ``replay_check`` the additive-plus-linear recurrence chain of the
    concentration argument is verified at every step. ``event_predicate``
    receives (i, Y) and its first failing index truncates the deviation
    range. The RNG is a counter-based Philox stream keyed by the seed.
    """
    if replay_check and solution is None:
        raise ValueError("replay_check requires an ODE solution")
    prep = _prepare(spec, solution) if solution is not None else None
    return _simulate_batch(
        plugin, spec, prep, full_paths, event_predicate, replay_check, [int(seed)]
    )[0]


def _simulate_batch(
    plugin: ProcessPlugin,
    spec: ProcessSpec,
    prep: _SimPrep | None,
    full_paths: bool,
    event_predicate,
    replay_check: bool,
    seeds: list[int],
) -> list[Trajectory]:
    """The lockstep kernel: one trajectory per seed, in seed order."""
    n = spec.n
    a = spec.a
    if plugin.n != n:
        raise ValueError(f"plugin scale n={plugin.n} differs from spec n={n}")
    if plugin.dim != a:
        raise ValueError(f"plugin tracks {plugin.dim} variables, spec expects {a}")

    count = len(seeds)
    m_cap = math.floor(spec.domain.t_hi * n)
    stride = 1 if full_paths else max(1, math.ceil(n / 1000))
    lo = np.array(spec.domain.lo)
    hi = np.array(spec.domain.hi)
    beta = spec.beta
    delta = spec.delta
    check_trend = not plugin.exact_drift
    upf = plugin.uniforms_per_step
    cap = prep.cap if prep is not None else -1
    paths = len(prep.caps) if prep is not None else 0

    # Records of a trajectory that reaches the horizon: every stride-th step
    # before m_cap, then m_cap. A trajectory that stops at i ends at record
    # ceil(i/stride), so it keeps a prefix of its row. Trajectories share the
    # read-only step grid unless their last step is off it.
    rows = -(-m_cap // stride) + 1
    grid = np.arange(rows, dtype=np.int64) * stride
    grid[-1] = m_cap
    rec_y = np.empty((count, rows, a), dtype=np.int64)
    rec_d = np.empty((count, rows, a))
    violations: list[list[Violation]] = [[] for _ in range(count)]
    out: list[Trajectory | None] = [None] * count

    gens = [np.random.Generator(np.random.Philox(np.random.SeedSequence(s))) for s in seeds]
    uniforms = None  # each row's uniforms of the current block; None when row-wise
    if upf is None:
        states = np.empty(count, dtype=object)
        for r in range(count):
            states[r] = plugin.initial_state()
    else:
        states = np.array([plugin.initial_state()] * count, dtype=np.int64)
        block = max(1, min(_UNIFORM_BLOCK, m_cap))
        uniforms = np.empty((count, block, upf))

    # Per-row state of the live rows; ``ids`` maps a row to its trajectory.
    ids = np.arange(count)
    Y = plugin.observables_batch(states)
    Y0 = Y
    drift_cum = np.zeros((count, a))
    sup_mart = np.zeros(count)
    sup_dev = np.zeros((count, paths))
    chain_sum = np.zeros((count, paths))
    prev_dev = np.zeros((count, paths))
    replay_ok = np.ones((count, paths), dtype=bool)
    event_stop = np.full(count, -1, dtype=np.int64)

    dev = None  # this step's deviation from each ODE path, while i <= cap

    def per_path(values, kind):
        values = [kind(v) for v in values]
        return values[0] if prep.single else tuple(values)

    def violation_dev(r):
        return float(dev[r, 0]) if dev is not None and prep.single else None

    def retire(mask, i: int, error: bool) -> bool:
        """Write out and drop the rows in ``mask``, which ended at step i.

        Returns False when no row is left.
        """
        nonlocal ids, states, gens, uniforms, Y, Y0, dev, drift_cum, sup_mart
        nonlocal sup_dev, chain_sum, prev_dev, replay_ok, event_stop
        pos = -(-i // stride)
        indices = grid[: pos + 1] if grid[pos] == i else np.append(grid[:pos], i)
        t_ids = ids[mask]
        if not (error and i % stride == 0):
            rec_y[t_ids, pos] = Y[mask]
            rec_d[t_ids, pos] = math.nan
        for r in np.flatnonzero(mask):
            t = ids[r]
            ev = int(event_stop[r]) if event_stop[r] >= 0 else None
            sup = dev_cap = ok = None
            if prep is not None:
                sup = per_path(sup_dev[r], float)
                last = i if ev is None else min(i, ev)
                dev_cap = per_path(np.minimum(prep.caps, last), int)
                if replay_check:
                    ok = per_path(replay_ok[r], bool)
            out[t] = Trajectory(
                seed=int(seeds[t]),
                stop_index=i,
                indices=indices,
                steps=rec_y[t, : pos + 1],
                drifts=rec_d[t, : pos + 1],
                violations=tuple(violations[t]),
                sup_deviation=sup,
                deviation_cap=dev_cap,
                sup_martingale=float(sup_mart[r]),
                event_stop=ev,
                replay_ok=ok,
                valid=not error,
                error_step=i if error else None,
            )
        keep = ~mask
        ids, states, Y, Y0, drift_cum = (
            ids[keep], states[keep], Y[keep], Y0[keep], drift_cum[keep]
        )
        sup_mart, sup_dev, chain_sum, prev_dev, replay_ok, event_stop = (
            sup_mart[keep], sup_dev[keep], chain_sum[keep], prev_dev[keep],
            replay_ok[keep], event_stop[keep],
        )
        gens = [g for g, k in zip(gens, keep) if k]
        if uniforms is not None:
            uniforms = uniforms[keep]
        if dev is not None:
            dev = dev[keep]
        return len(ids) > 0

    i = 0
    while True:
        # stopping rule: first index at or past the horizon, or with the
        # rescaled state outside the open box (the time axis cannot bind
        # earlier because 0 <= i/n < T and t_lo < 0)
        if i >= m_cap:
            stopped = np.ones(len(ids), dtype=bool)
        else:
            yn = Y / n
            stopped = ~((lo < yn) & (yn < hi)).all(axis=1)

        if event_predicate is not None:
            for r in np.flatnonzero(event_stop < 0):
                if not event_predicate(i, tuple(Y[r].tolist())):
                    event_stop[r] = i

        dev = None
        if i <= cap:
            # column j is the deviation from path j, used while i <= caps[j]
            live = prep.live[i]
            dev = np.abs(Y[:, None] - prep.yode[i]).max(axis=2)
            # NaN propagates: a deviation that is not finite never passes
            in_range = live
            if event_predicate is not None:
                in_range = live & ((event_stop < 0) | (event_stop == i))[:, None]
            np.maximum(sup_dev, dev, out=sup_dev, where=in_range)
            if replay_check:
                if i > 0:
                    chain_sum += prep.L_over_n * prev_dev + prep.step_term
                np.logical_and(
                    replay_ok, dev < prep.two_lam_n + chain_sum, out=replay_ok, where=live
                )
                prev_dev = dev

        np.maximum(sup_mart, np.abs((Y - Y0) - drift_cum).max(axis=1), out=sup_mart)

        if stopped.any() and not retire(stopped, i, error=False):
            break

        d = plugin.drift_batch(states)
        if i % stride == 0:
            pos = i // stride
            rec_y[ids, pos] = Y
            rec_d[ids, pos] = d
        if check_trend:
            for r in range(len(ids)):
                field = plugin.drift_field(i / n, Y[r].astype(float) / n)
                for k in range(a):
                    gap = abs(float(d[r, k]) - float(field[k]))
                    if gap > delta:
                        violations[ids[r]].append(Violation(
                            i, k, "trend", gap, delta, violation_dev(r)
                        ))
        drift_cum += d

        if uniforms is None:
            states, failed = plugin.step_batch(states, gens)
        else:
            if i % block == 0:
                for r, g in enumerate(gens):
                    g.random(out=uniforms[r])
            states, failed = plugin.step_batch(states, uniforms[:, i % block])
        if len(failed):
            crashed = np.zeros(len(ids), dtype=bool)
            crashed[list(failed)] = True
            if not retire(crashed, i, error=True):
                break

        Y_new = plugin.observables_batch(states)
        jump = np.abs(Y_new - Y)
        over = jump > beta
        if over.any():
            for r, k in zip(*np.nonzero(over)):
                violations[ids[r]].append(Violation(
                    i, int(k), "bound", float(jump[r, k]), beta, violation_dev(r)
                ))
        Y = Y_new
        i += 1

    return out


def run_ensemble(
    plugin: ProcessPlugin,
    spec: ProcessSpec,
    count: int,
    base_seed: int,
    event_predicate: Callable[[int, tuple], bool] | None = None,
    *,
    solution: Solutions | None = None,
    full_paths: bool = False,
    replay_check: bool = False,
    jobs: int = 1,
) -> Ensemble:
    """Simulate ``count`` independent trajectories from derived seeds.

    Trajectory i uses seed derive_seed(base_seed, i); results are identical
    for any ``jobs`` value, and jobs > 1 splits the seeds into contiguous
    chunks, one batch per worker of a process pool (everything passed in
    must then be picklable). ``solution`` may be a sequence of K solutions
    of the same spec from different anchors: one simulation then tracks
    every path, and the per-path statistics of each trajectory are K-tuples.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if replay_check and solution is None:
        raise ValueError("replay_check requires an ODE solution")
    prep = _prepare(spec, solution) if solution is not None else None
    seeds = [derive_seed(base_seed, idx) for idx in range(count)]
    batch = partial(
        _simulate_batch, plugin, spec, prep, full_paths, event_predicate, replay_check
    )
    if jobs > 1:
        edges = [count * k // jobs for k in range(jobs + 1)]
        chunks = [seeds[lo:hi] for lo, hi in zip(edges, edges[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            trajectories = [t for part in pool.map(batch, chunks) for t in part]
    else:
        trajectories = batch(seeds)
    return Ensemble(
        spec=spec,
        base_seed=int(base_seed),
        trajectories=tuple(trajectories),
    )


def doob_decompose(traj: Trajectory) -> np.ndarray:
    """Martingale part M_k(j) = sum_{i<j} [dY_k(i) - drift_k(i)], j = 0..stop_index.

    Requires a fully recorded trajectory; thinned trajectories lack the
    per-step drift records needed for the decomposition.
    """
    if not traj.is_full:
        raise ValueError(
            "trajectory is thinned; doob_decompose needs full per-step drift records"
        )
    a = traj.steps.shape[1]
    if traj.stop_index == 0:
        return np.zeros((1, a))
    increments = np.diff(traj.steps, axis=0) - traj.drifts[:-1]
    out = np.zeros((traj.stop_index + 1, a))
    np.cumsum(increments, axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class HypothesisSummary:
    """Violation counts for one trajectory under the selected checking mode."""

    mode: str
    trend_count: int
    bound_count: int
    violations: tuple[Violation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def check_hypotheses(
    traj: Trajectory,
    spec: ProcessSpec,
    mode: str = "strict",
    solution: OdeSolution | None = None,
) -> HypothesisSummary:
    """Summarize recorded condition violations.

    ``strict`` keeps every violation recorded inside the domain.
    ``proof-structure`` keeps only violations at steps that additionally
    satisfy i < floor(T*n) and deviation-from-ODE < 3*exp(L*T)*lambda*n;
    steps already past the envelope are exempt because the concentration
    argument never inspects them. Deviations must have been tracked at
    simulation time (pass the solution to :func:`simulate`), or be
    recomputable here from a fully recorded trajectory plus ``solution``.
    """
    if mode not in ("strict", "proof-structure"):
        raise ValueError(f"unknown mode {mode!r}")
    kept = traj.violations
    if mode == "proof-structure" and kept:
        m_cap = math.floor(spec.domain.t_hi * spec.n)
        devs = [v.deviation for v in kept]
        if None in devs:
            table = _deviations(traj, solution)
            devs = [float(table[v.i]) if d is None else d for v, d in zip(kept, devs)]
        envelope = _envelope(spec, solution)
        kept = tuple(v for v, d in zip(kept, devs) if v.i < m_cap and d < envelope)
    trend = sum(1 for v in kept if v.kind == "trend")
    bound = sum(1 for v in kept if v.kind == "bound")
    return HypothesisSummary(mode=mode, trend_count=trend, bound_count=bound, violations=kept)


def _envelope(spec: ProcessSpec, solution: OdeSolution | None) -> float:
    if solution is None:
        raise ValueError("proof-structure mode needs an ODE solution")
    return solution.constants.margin * spec.n


def _deviations(traj: Trajectory, solution: OdeSolution | None) -> np.ndarray:
    """max_k |Y_k(i) - n*y_k(i/n)| for i = 0..stop_index of a full trajectory."""
    if solution is None:
        raise ValueError(
            "violation lacks a tracked deviation; simulate with the solution "
            "or pass it here together with a fully recorded trajectory"
        )
    if not traj.is_full:
        raise ValueError("cannot recompute deviations on a thinned trajectory")
    target = solution.counts_at_steps(traj.stop_index)
    return np.max(np.abs(traj.steps - target), axis=1)
