"""Trajectory simulation with exact drift recording and online verification stats.

The stopping index of a trajectory is the first step at which the rescaled
state leaves the domain, capped at floor(T*n). Sup-deviation from the ODE
path, the sup of the martingale part, and the recurrence replay are all
accumulated online, so the default thinned storage (every ceil(n/1000)-th
step) never affects verification.

One lockstep kernel simulates a batch of trajectories, one row per
trajectory, in time spans of a few blocks. A span is the unit of reduction,
a block the unit of stepping. A block is ``_BLOCK_STEPS`` steps; a span is
as many whole blocks as fit ``_SPAN_ROW_STEPS`` row-steps for the batch's
rows, at least one: a batch of few rows pays the reduction's fixed cost as
rarely per row-step as a large one, and the span's state buffer and
reduction temporaries (not the records) stay within that budget for any
batch whose one block fits it. The plugin contract is in
``demtrack.processes``. An array plugin's ``step_batch`` returns the next
states: each row's uniforms are drawn for as many whole spans as fit
``_DRAW_STEPS`` steps, at least one, into a reservoir of at most rows x
max(span, _DRAW_STEPS) x uniforms_per_step doubles outside the row-step
budget (a counter-based Philox stream yields them unchanged however they
are chunked; each trajectory keeps its own). Each block is stepped in a few
whole-block passes (``_step_block``): pass 1 steps the start state with
every step's uniforms, and each later pass steps the guesses of the
unsettled rows in one ``step_batch`` call and compares the next states
with the guesses one step on, until they all agree.
A row-wise plugin is stepped here, one pass per step that calls each row's
``step`` with the row's own generator; a pass in which some row's step
raised ends the span early. Once per span, on all of its steps at once,
the kernel then finds each row's stop (the horizon, the first exit from
the box, or the first step that raised, unless the row left the box at or
before it), evaluates the drift of every stepped state, and
reduces the deviation and martingale sups, the replay chain, the
hypothesis checks and the stride records, summing along each row one step
at a time so that every trajectory keeps its order of float operations.
Reductions over the a coordinates or a state's width are folded column
by column (``_fold``), several times faster than numpy reduces a short axis.
Rows are stepped, observed and given their drift to the end of the span
even past their stop: these are all states the chain reaches. What their
steps do there, a row-wise ``step``'s exceptions included, is discarded;
an exception of a batch method or of the field, there too, ends the run
with ``PluginCrashed``. A row that stopped is written out and compacted
away. Records are preallocated for a run to the horizon, and each
Trajectory holds views into them.
``simulate`` is a batch of one; ``run_ensemble`` runs one batch per worker.
Deviations and the replay chain may be tracked against several ODE
solutions (reference paths) at once, as (rows, K) arrays with one column
per path, each column updated only up to its own path's cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import Ensemble, ProcessSpec, Trajectory, Violation
from .ode import OdeSolution, drift_at
from .processes import ProcessPlugin, _guard

# Steps per block of the block stepper, and the row-steps of one span: a
# batch of ``rows`` trajectories reduces once per span of
# _BLOCK_STEPS * max(1, _SPAN_ROW_STEPS // (rows * _BLOCK_STEPS)) steps. The
# span's state buffer and the reduction's temporaries, each (rows, span + 1,
# .), then hold at most _SPAN_ROW_STEPS row-steps (more only when one block
# of all rows does); they bound the kernel's memory besides the records,
# which grow with the recorded steps, and the uniforms. Those are drawn for
# span * max(1, _DRAW_STEPS // span) steps of every row at once, so their
# reservoir holds at most rows * max(span, _DRAW_STEPS) * uniforms_per_step
# doubles: 1.3 MB for 160 rows of one uniform, where drawing one span at a
# time would make eight times as many calls of each row's generator.
_BLOCK_STEPS = 128
_SPAN_ROW_STEPS = 160 * 128
_DRAW_STEPS = 1024


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
    caps: np.ndarray       # per path Constants.steps(n), shape (K,)
    live: np.ndarray       # live[i] = i <= caps, shape (cap+1, K)
    cap: int               # max(caps)
    two_lam_n: float
    step_term: np.ndarray  # per path L*R/n + delta, the per-step additive recurrence term
    L_over_n: float
    single: bool           # one solution, not a sequence: trajectories get scalars


def _prepare(
    plugin: ProcessPlugin, spec: ProcessSpec, solution: Solutions | None, replay_check: bool
) -> _SimPrep | None:
    """Check a simulation's inputs before any batch starts; None without a solution."""
    n = spec.n
    if replay_check and solution is None:
        raise ValueError("replay_check requires an ODE solution")
    if plugin.n != n:
        raise ValueError(f"plugin scale n={plugin.n} differs from spec n={n}")
    if plugin.dim != spec.a:
        raise ValueError(f"plugin tracks {plugin.dim} variables, spec expects {spec.a}")
    if solution is None:
        return None
    single = isinstance(solution, OdeSolution)
    solutions = [solution] if single else list(solution)
    if not solutions:
        raise ValueError("need at least one ODE solution")
    consts = [s.constants for s in solutions]
    caps = np.array([c.steps(n) for c in consts])
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
    range; it is called once per step i = 0..min(stop, first failure), in
    step order, and not past the stop. The RNG is a counter-based Philox
    stream keyed by the seed. Steps are taken in time spans (see the module
    docstring), so the plugin may be stepped past the stop; those steps are
    discarded.
    """
    prep = _prepare(plugin, spec, solution, replay_check)
    return _simulate_batch(
        plugin, spec, prep, full_paths, event_predicate, replay_check, [int(seed)]
    )[0]


def _fold(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)``, as a - 1 in-place ``ufunc`` calls on column views.

    numpy reduces along a short last axis (a coordinates, a state's width)
    many times slower than it applies a ufunc to whole columns. The logical
    ufuncs take a bool ``x``.
    """
    out = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        ufunc(out, x[..., k], out=out)
    return out


def _step_block(plugin: ProcessPlugin, buf: np.ndarray, u: np.ndarray) -> None:
    """Fill ``buf[:, 1:]`` with the states reached from ``buf[:, 0]`` one step at a time.

    ``u`` holds each row's uniforms of the J = buf.shape[1] - 1 steps, shape
    (rows, J, uniforms_per_step). Pass 1 steps the start state with the
    uniforms of every column in one ``step_batch`` call and builds each
    column as the start state plus the running sum of the moves (exact in
    int64), which makes column 1 right. If columns 0..p are right, each
    later pass steps the guesses in columns p..J-1 of the unsettled rows in
    one call and compares the next states with the guesses one column on.
    A row that agrees everywhere is settled: each column is the step of the
    one before. The rows that disagree are rebuilt from the first column
    past p where some row disagrees, as the next state there plus the
    running sum of the later moves, which makes that column right; the next
    pass starts there. Every pass after the first settles at least one more
    column, so at most J passes give the step-by-step sequence, and a pass
    over all rows takes slices of ``buf``, not copies by index.
    """
    J = buf.shape[1] - 1
    k = u.shape[2]
    guess = np.repeat(buf[:, 0], J, axis=0)
    nxt = plugin.step_batch(guess, u.reshape(len(guess), k))
    moves = np.subtract(nxt, guess).reshape(buf[:, 1:].shape)
    np.add.accumulate(moves, axis=1, out=moves)
    np.add(moves, buf[:, :1], out=buf[:, 1:], casting="unsafe")  # cast as assignments are
    rows = slice(None)  # the rows not yet settled: all of them, or an index array
    p = 1  # columns 0..p are settled
    while p < J:
        cur = buf[rows, p:]
        guess = cur[:, :-1].reshape((-1,) + buf.shape[2:])
        nxt = np.reshape(
            plugin.step_batch(guess, u[rows, p:].reshape(len(guess), k)), cur[:, 1:].shape
        )
        wrong = _fold(np.logical_or, (nxt != cur[:, 1:]).reshape(nxt.shape[:2] + (-1,)))
        moved = wrong.any(axis=1)
        if not moved.any():
            return
        c = int(wrong.any(axis=0).argmax())
        if not moved.all():
            rows = np.arange(len(buf))[rows][moved]
            nxt, cur = nxt[moved], cur[moved]
        moves = np.subtract(nxt[:, c:], cur[:, c:-1])
        moves[:, 0] = nxt[:, c]
        np.add.accumulate(moves, axis=1, out=moves)
        buf[rows, p + 1 + c :] = moves
        p += 1 + c


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
    span = _BLOCK_STEPS * max(1, _SPAN_ROW_STEPS // (count * _BLOCK_STEPS))
    span = max(1, min(span, m_cap))
    draw = span * max(1, _DRAW_STEPS // span)  # steps of uniforms drawn at once

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
    uniforms = None  # each row's uniforms of the current draw; None when row-wise
    start = plugin.initial_state()  # deterministic, so every row starts from it
    if upf is None:
        states = np.empty(count, dtype=object)
        states.fill(start)
    else:
        states = np.array([start] * count, dtype=np.int64)
        uniforms = np.empty((count, draw, upf))
    # the states at steps i0..i0+J of the current span, one row per live row
    held = np.empty((count, span + 1) + states.shape[1:], dtype=states.dtype)
    with _guard(plugin, "observables_batch", "in the span of steps 0..0"):
        Y0 = plugin.observables_batch(states[:1])[0]  # Y(0), one (a,) row for all rows

    # Per-row state of the live rows at the start of a span, whose first
    # step is i0; ``ids`` maps a row to its trajectory. drift_cum and
    # carry are their sums at step i0.
    ids = np.arange(count)
    drift_cum = np.zeros((count, a))
    sup_mart = np.zeros(count)
    sup_dev = np.zeros((count, paths))
    carry = np.zeros((count, paths))
    replay_ok = np.ones((count, paths), dtype=bool)
    event_stop = np.full(count, -1, dtype=np.int64)

    def per_path(values, kind):
        values = [kind(v) for v in values]
        return values[0] if prep.single else tuple(values)

    def finish_span(i0, J, buf, failed):
        """Reduce the span of steps i0..i0 + J of every live row.

        Updates the live rows' statistics, writes their records and
        violations, writes out the rows that stopped and returns their mask.
        """
        live_rows = len(ids)
        where = f"in the span of steps {i0}..{i0 + J}"
        # Block position j is step i0 + j, and Y[:, j] its counts.
        at = np.arange(J + 1)
        with _guard(plugin, "observables_batch", where):
            Y = plugin.observables_batch(
                buf[:, : J + 1].reshape((live_rows * (J + 1),) + buf.shape[2:])
            ).reshape(live_rows, J + 1, a)

        # Stopping rule: the first step at the horizon or with the rescaled
        # state outside the open box (the time axis cannot bind earlier
        # because 0 <= i/n < T and t_lo < 0), unless the row's step raised
        # at an earlier step. ``end`` is the position of the stop, J + 1 for
        # a row that goes on; what a row did past its stop is discarded.
        yn = Y / n
        outside = ~_fold(np.logical_and, (lo < yn) & (yn < hi))
        del yn
        if i0 + J >= m_cap:
            outside[:, J] = True
        end = np.where(outside.any(axis=1), outside.argmax(axis=1), J + 1)
        error = np.zeros(live_rows, dtype=bool)
        if failed:
            failed = np.asarray(failed)
            error[failed] = end[failed] > J - 1
            end[failed] = np.minimum(end[failed], J - 1)
        done = end <= J
        # steps whose stopping rule, predicate, deviation and martingale part count
        seen = at <= np.where(done, end, J - 1)[:, None]
        # steps taken, whose drift the trend check compares; a step that
        # raised still had one
        taken = at[:J] < (end + error)[:, None]

        if event_predicate is not None:
            for r in np.flatnonzero(event_stop < 0):
                for j, y in enumerate(Y[r, seen[r]].tolist()):
                    if not event_predicate(i0 + j, tuple(y)):
                        event_stop[r] = i0 + j
                        break

        # Hypothesis violations, kept per trajectory in (step, trend before
        # bound, coordinate) order. Each (rows, J, .) temporary is deleted
        # once used, which bounds the span's memory.
        found = []
        # cum[:, j] is drift_cum at step i0 + j, summed one step at a time;
        # before the sum, cum[:, j + 1] holds the drift of step i0 + j. The
        # drifts at or past a row's stop reach only positions that ``seen``
        # masks out and records past the stop.
        cum = np.zeros((live_rows, J + 1, a))
        with _guard(plugin, "drift_batch", where):
            cum[:, 1:] = plugin.drift_batch(
                buf[:, :J].reshape((live_rows * J,) + buf.shape[2:])
            ).reshape(live_rows, J, a)
        if check_trend and taken.any():
            r, j = np.nonzero(taken)
            points = np.column_stack(((i0 + j) / n, Y[r, j].astype(float) / n))
            with _guard(plugin, "drift_field", where):
                field = drift_at(plugin.drift_field, points)
            gap = np.abs(cum[r, j + 1] - field)
            x, k = np.nonzero(gap > delta)
            found.append((r[x], j[x], np.zeros_like(k), k, gap[x, k]))
        # records of the steps on the stride grid; a row's records past its
        # stop are overwritten by its last record or lie past its prefix
        on_grid = slice(-i0 % stride, J, stride)
        first = -(-i0 // stride)
        kept = slice(first, first + len(range(J)[on_grid]))
        rec_y[ids, kept] = Y[:, on_grid]
        rec_d[ids, kept] = cum[:, 1:][:, on_grid]
        cum[:, 0] = drift_cum
        np.add.accumulate(cum, axis=1, out=cum)
        drift_cum[:] = cum[:, J]
        # the martingale part; a NaN propagates through max, so it never passes
        np.subtract(Y - Y0, cum, out=cum)
        mart = _fold(np.maximum, np.abs(cum, out=cum))
        del cum
        np.maximum(sup_mart, mart.max(axis=1, where=seen, initial=0.0), out=sup_mart)
        del mart

        dev = None  # deviation from each ODE path at positions up to cap
        if i0 <= cap:
            jd = min(J, cap - i0) + 1
            dev = np.subtract(Y[:, :jd, None], prep.yode[i0 : i0 + jd])
            dev = _fold(np.maximum, np.abs(dev, out=dev))
            # column k counts while i <= caps[k], and the sup up to the event stop
            live = prep.live[i0 : i0 + jd] & seen[:, :jd, None]
            in_range = live
            if event_predicate is not None:
                before = (event_stop < 0)[:, None] | (i0 + at[:jd] <= event_stop[:, None])
                in_range = live & before[:, :, None]
            np.maximum(sup_dev, dev.max(axis=1, where=in_range, initial=0.0), out=sup_dev)
            if replay_check:
                # chain[:, j] is the chain's sum at step i0 + j, summed one step at a time
                chain = np.empty((live_rows, jd + 1, paths))
                chain[:, 0] = carry
                np.multiply(dev, prep.L_over_n, out=chain[:, 1:])
                chain[:, 1:] += prep.step_term
                np.add.accumulate(chain, axis=1, out=chain)
                carry[:] = chain[:, min(J, jd)]
                bound = np.add(chain[:, :jd], prep.two_lam_n, out=chain[:, :jd])
                ok = np.less(dev, bound).all(axis=1, where=live)
                np.logical_and(replay_ok, ok, out=replay_ok)
                del chain, bound

        jump = np.diff(Y, axis=1)
        over = np.abs(jump, out=jump) > beta
        over &= (at[:J] < end[:, None])[:, :, None]
        if over.any():
            r, j, k = np.nonzero(over)
            found.append((r, j, np.ones_like(k), k, jump[r, j, k]))
        del jump, over
        if found:
            r, j, kind, k, observed = (np.concatenate(f) for f in zip(*found))
            single = dev is not None and prep.single
            for x in np.lexsort((k, kind, j, r)):
                rx, jx = r[x], j[x]
                violations[ids[rx]].append(Violation(
                    i0 + int(jx), int(k[x]), ("trend", "bound")[kind[x]], float(observed[x]),
                    (delta, beta)[kind[x]],
                    float(dev[rx, jx, 0]) if single and jx < dev.shape[1] else None,
                ))

        # write out the rows that stopped
        for r in np.flatnonzero(done):
            t = ids[r]
            i = i0 + int(end[r])
            pos = -(-i // stride)
            indices = grid[: pos + 1] if grid[pos] == i else np.append(grid[:pos], i)
            if not (error[r] and i % stride == 0):
                rec_y[t, pos] = Y[r, end[r]]
                rec_d[t, pos] = math.nan
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
                valid=not error[r],
                error_step=i if error[r] else None,
            )
        return done

    i0 = 0
    while True:
        # Step every live row J times, to the end of the span or to the
        # horizon. Rows with their own generators step one pass per step, and
        # a pass in which some row's step raised ends the span; with
        # uniforms, a span always starts at a multiple of the span length,
        # takes its uniforms from the same offset of the current draw and is
        # stepped one block at a time.
        live_rows = len(ids)
        J = min(span - i0 % span, m_cap - i0)
        buf = held[:live_rows]
        buf[:, 0] = states
        failed = []
        if uniforms is None:
            for j in range(1, J + 1):
                for r, g in enumerate(gens):
                    try:
                        states[r] = plugin.step(states[r], g)
                    except Exception:
                        failed.append(r)
                buf[:, j] = states
                if failed:
                    J = j
                    break
        else:
            d = i0 % draw
            if d == 0:
                for r, g in enumerate(gens):
                    g.random(out=uniforms[r])
            with _guard(plugin, "step_batch", f"in the span of steps {i0}..{i0 + J}"):
                for q in range(0, J, _BLOCK_STEPS):
                    e = min(q + _BLOCK_STEPS, J)
                    _step_block(plugin, buf[:, q : e + 1], uniforms[:, d + q : d + e])
            states = buf[:, J]

        done = finish_span(i0, J, buf, failed)
        if done.all():
            return out
        if done.any():
            keep = ~done
            ids, states, drift_cum = ids[keep], states[keep], drift_cum[keep]
            sup_mart, sup_dev, carry, replay_ok, event_stop = (
                sup_mart[keep], sup_dev[keep], carry[keep], replay_ok[keep], event_stop[keep]
            )
            gens = [g for g, k in zip(gens, keep) if k]
            if uniforms is not None:
                uniforms = uniforms[keep]
        i0 += J


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
    ``event_predicate`` is called once per trajectory and step up to that
    trajectory's stop (as in :func:`simulate`), in step order for each
    trajectory; the order of calls across trajectories is unspecified.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    prep = _prepare(plugin, spec, solution, replay_check)
    seeds = [derive_seed(base_seed, idx) for idx in range(count)]
    batch = partial(
        _simulate_batch, plugin, spec, prep, full_paths, event_predicate, replay_check
    )
    if jobs > 1:
        # imported here: it loads multiprocessing, which a jobs=1 run never needs
        from concurrent.futures import ProcessPoolExecutor

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
