"""Trajectory simulation with exact drift recording and online verification stats.

The stopping index of a trajectory is the first step at which the rescaled
state leaves the domain, capped at floor(T*n). Sup-deviation from the ODE
path, the sup of the martingale part, and the recurrence replay are all
accumulated online, so the records kept (every ceil(n/1000)-th step by
default, every step, or with ``endpoints_only`` the start and the stop
only, as ``verify`` keeps them) never affect verification.

What the batches of a run share is checked and built once, by
``_prepare``, into one record (``_Run``): its inputs, record grid, start
row and Y(0) (``_start``, the one start rule, which ``verify`` uses too),
box on counts and reference paths. A batch (``_Batch``) is its run plus
the outputs its spans fill; ``simulate`` is a batch of one, and
``run_ensemble`` runs one batch per worker.

One lockstep kernel (``_simulate_batch``) simulates a batch of
trajectories, one row per trajectory, in time spans of a few blocks: a
block is the unit of stepping, a span the unit of reduction. A block is
``_BLOCK_STEPS`` steps; a span is as many whole blocks as fit
``_SPAN_ROW_STEPS`` row-steps for the batch's rows, at least one, so a
batch of few rows pays the reduction's fixed cost as rarely per row-step
as a large one. The plugin contract is in ``demtrack.processes``. An array
plugin's ``step_batch`` returns the next states; each row's uniforms are
drawn for whole spans at once, at most ``_DRAW_STEPS`` steps and never
past the horizon rounded up to a span, and a batch's reservoir of them
holds at most _DRAW_STEPS // _BLOCK_STEPS times the span's row-step
budget, or one span of all rows (a counter-based Philox stream yields
them unchanged however they are chunked; each trajectory keeps its own).
Each block is stepped in a few whole-block passes (``_step_block``). A
row-wise plugin is stepped by ``_step_rows``, one pass per step that calls
each row's ``step`` with its own generator and writes one int64 column.

The live rows' state is one record, ``_Rows``: every per-row statistic is
a field of it, and its ``keep`` compacts them all when rows stop. Once per
span, on all of its steps at once, named reducers apply one rule each:
``_stop_rule`` finds each row's stop (the horizon, the first exit from the
box, or the first step that raised, unless the row left the box at or
before it) and its event stop; ``_reduce_drift`` the drift, the stride
records, the martingale sup and the trend check; ``_reduce_deviation`` the
sup deviation and the replay chain against each ODE path;
``_count_violations`` the counts, examples and record flags of the trend
and bound violations, in memory bounded per row; and ``_write_out`` the
rows that stopped. The box is tested on the int64
counts against ``Domain.count_bounds``, computed once per run, which is
the same rule as testing Y/n against the open box. Every reducer counts
positions one way: it sets to 0 each stopped row's positions past its stop
(``_clear_past_stops``) and each path's positions past its cap, then
reduces whole planes. A row that goes on counts position J twice, which
changes nothing: the next span's position 0 is the same step, with the same
state, carried drift sum and replay chain. The event stop bounds only the
deviation sup, through a copy. Each path's n * y(i/n) is interpolated for
the span's steps only.
The reducers work on coordinate planes, one contiguous (rows, J + 1) plane
per coordinate (and per path), with the step position on the last axis, so
numpy's inner loops run along the steps, not along the a coordinates. Sums
run along each row one step at a time, so every trajectory keeps its order
of float operations. Rows are stepped, observed and given their drift to
the end of the span even past their stop: these are all states the chain
reaches. What their steps do there, a row-wise ``step``'s exceptions
included, is discarded; an exception of a batch method or of the field,
or a state or count that int64 cannot hold exactly, there too, ends the
run with ``PluginCrashed``. Records are preallocated coordinate-major for
a run to the horizon, and each Trajectory holds transposed views into
them. Deviations and the replay chain may be tracked against several ODE
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
from .processes import ProcessPlugin, _guard, _int64_rows, _int64_values, _rows

# Steps per block of the block stepper, and the row-steps of one span: a
# batch of ``rows`` trajectories reduces once per span of
# _BLOCK_STEPS * max(1, _SPAN_ROW_STEPS // (rows * _BLOCK_STEPS)) steps. The
# span's state buffer, (rows, span + 1, .), and each plane of the
# reduction's temporaries, (rows, span + 1), then hold at most
# _SPAN_ROW_STEPS row-steps (more only when one block of all rows does).
# Uniforms are drawn for at most _DRAW_STEPS steps of every row at once, and
# for no more row-steps than _DRAW_STEPS // _BLOCK_STEPS spans of that
# budget, or one span of all rows: 1.3 MB for 160 rows of one uniform, where
# drawing one span at a time would make eight times as many calls of each
# row's generator.
_BLOCK_STEPS = 128
_SPAN_ROW_STEPS = 160 * 128
_DRAW_STEPS = 1024
# Violations kept as examples per trajectory; the others are only counted.
_EXAMPLES = 16


def derive_seed(base_seed: int, index: int) -> int:
    """64-bit per-trajectory seed hashed from (base_seed, index).

    Order-independent, so ensembles are identical across worker counts.
    """
    ss = np.random.SeedSequence(int(base_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


Solutions = OdeSolution | Sequence[OdeSolution]


@dataclass(frozen=True)
class _Run:
    """What every batch of a run shares, checked and built once by ``_prepare``."""

    plugin: ProcessPlugin
    spec: ProcessSpec
    event_predicate: Callable[[int, tuple], bool] | None
    replay_check: bool
    stride: int         # records are kept every stride-th step and at the stop
    grid: np.ndarray    # the record steps of a trajectory that reaches the horizon
    start: np.ndarray   # the start row, int64 of shape (1, ...): every row starts from it
    # (a, 1, 1) columns against (a, rows, positions) planes:
    Y0: np.ndarray      # Y(0), the same for all rows
    c_lo: np.ndarray    # the open box on counts: lo < Y/n < hi iff c_lo <= Y <= c_hi
    c_hi: np.ndarray
    solutions: tuple[OdeSolution, ...]  # the K paths, none without a solution
    caps: np.ndarray    # per path Constants.steps(n), shape (K,)
    # per path, as (K, 1, 1) columns against (K, rows, positions) planes:
    two_lam_n: np.ndarray  # 2*lambda*n, lambda that of the path's spec
    step_term: np.ndarray  # L*R/n + delta, the per-step additive recurrence term


def _start(plugin: ProcessPlugin) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for a run's start: the start row, int64 of shape (1, ...),
    and its counts Y(0), int64 of shape (dim,)."""
    with _guard(plugin, "initial_state", "at the start of the run"):
        state = plugin.initial_state()
    start = _int64_rows(plugin, "initial_state returned", [state])
    with _guard(plugin, "observables_batch", "on the initial state"):
        Y0 = plugin.observables_batch(start).reshape(plugin.dim)
    return start, _int64_values(plugin, "observables_batch", Y0)


def _prepare(
    plugin: ProcessPlugin, spec: ProcessSpec, solution: Solutions | None, replay_check: bool,
    full_paths: bool, event_predicate: Callable[[int, tuple], bool] | None,
    endpoints_only: bool = False,
) -> _Run:
    """Check a run's inputs and build what its batches share, before any batch starts."""
    n = spec.n
    if replay_check and solution is None:
        raise ValueError("replay_check requires an ODE solution")
    if full_paths and endpoints_only:
        raise ValueError("full_paths and endpoints_only exclude each other")
    _check_plugin(plugin, spec)
    solutions = (solution,) if isinstance(solution, OdeSolution) else tuple(solution or ())
    if solution is not None and not solutions:
        raise ValueError("need at least one ODE solution")
    for s in solutions:  # another lambda or anchor is fine, not another n or a
        if (s.spec.n, s.spec.a) != (n, spec.a):
            raise ValueError(f"ODE solution has n={s.spec.n}, a={s.spec.a}; the spec n={n}, a={spec.a}")
    # Records of a trajectory that reaches the horizon: every stride-th step
    # before it, then the horizon. A trajectory that stops at i ends at
    # record ceil(i/stride), so it keeps a prefix of its row. Trajectories
    # share the read-only step grid unless their last step is off it. The
    # stride is 1 for full paths, the horizon for the start and stop only
    # (grid [0, horizon]), and ceil(n/1000) otherwise.
    stride = 1 if full_paths else max(1, spec.horizon if endpoints_only else math.ceil(n / 1000))
    grid = np.arange(-(-spec.horizon // stride) + 1, dtype=np.int64) * stride
    grid[-1] = spec.horizon
    start, Y0 = _start(plugin)
    consts = [s.constants for s in solutions]
    return _Run(
        plugin, spec, event_predicate, replay_check, stride, grid, start,
        *(np.reshape(c, (spec.a, 1, 1)) for c in (Y0, *spec.domain.count_bounds(n))),
        solutions=solutions,
        caps=np.array([c.steps(n) for c in consts]),
        two_lam_n=np.array([2.0 * (s.spec.lam * n) for s in solutions])[:, None, None],
        step_term=np.array([spec.L * c.R / n + spec.delta for c in consts])[:, None, None],
    )


def _check_plugin(plugin: ProcessPlugin, spec: ProcessSpec) -> None:
    """Refuse a plugin whose scale or dimension is not the spec's."""
    if plugin.n != spec.n:
        raise ValueError(f"plugin scale n={plugin.n} differs from spec n={spec.n}")
    if plugin.dim != spec.a:
        raise ValueError(f"plugin tracks {plugin.dim} variables, spec expects {spec.a}")


def _check_counts(count: int, jobs: int) -> None:
    """Refuse an ensemble of no trajectories and a pool of no workers."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


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
    run = _prepare(plugin, spec, solution, replay_check, full_paths, event_predicate)
    return _simulate_batch(run, [int(seed)])[0]


def _step_block(plugin: ProcessPlugin, buf: np.ndarray, u: np.ndarray) -> None:
    """Fill ``buf[:, 1:]`` with the states reached from ``buf[:, 0]`` one step at a time.

    ``u`` holds each row's uniforms of the J = buf.shape[1] - 1 steps, shape
    (rows, J, uniforms_per_step). Pass 1 steps the start state with the
    uniforms of every column in one ``step_batch`` call and builds each
    column as the running sum of the moves, the first with the start state
    added (exact in int64: next states of a dtype that int64 cannot hold
    exactly are refused), which makes column 1 right. If columns 0..p are
    right, each later pass steps the guesses in columns p..J-1 of the
    unsettled rows in one call and compares the next states with the
    guesses one column on, over each row's whole run at once. A row that
    agrees everywhere is settled: each column is the step of the one
    before. The rows that disagree are rebuilt from the first column past p
    where some row disagrees, as the next state there plus the running sum
    of the later moves, which makes that column right; the next pass starts
    there. Every pass after the first settles at least one more column, so
    at most J passes give the step-by-step sequence, and a pass over all
    rows takes slices of ``buf``, not copies by index.
    """
    J = buf.shape[1] - 1
    k = u.shape[2]
    guess = np.repeat(buf[:, 0], J, axis=0)
    nxt = plugin.step_batch(guess, u.reshape(len(guess), k))
    moves = _int64_values(plugin, "step_batch", np.subtract(nxt, guess))
    moves = moves.astype(buf.dtype, copy=False).reshape(buf[:, 1:].shape)
    moves[:, 0] += buf[:, 0]
    np.add.accumulate(moves, axis=1, out=buf[:, 1:])
    rows = slice(None)  # the rows not yet settled: all of them, or an index array
    p = 1  # columns 0..p are settled
    while p < J:
        cur = buf[rows, p:]
        guess = cur[:, :-1].reshape((-1,) + buf.shape[2:])
        nxt = np.reshape(
            plugin.step_batch(guess, u[rows, p:].reshape(len(guess), k)), cur[:, 1:].shape
        )
        wrong = (nxt != cur[:, 1:]).reshape(len(nxt), -1)
        moved = wrong.any(axis=1)
        if not moved.any():
            return
        c = int(wrong.any(axis=0).argmax()) // math.prod(buf.shape[2:])
        if not moved.all():
            rows = np.arange(len(buf))[rows][moved]
            nxt, cur = nxt[moved], cur[moved]
        moves = np.subtract(nxt[:, c:], cur[:, c:-1])
        moves[:, 0] = nxt[:, c]
        np.add.accumulate(moves, axis=1, out=moves)
        buf[rows, p + 1 + c :] = moves
        p += 1 + c


def _step_rows(plugin: ProcessPlugin, buf: np.ndarray, gens: np.ndarray) -> tuple[int, list[int]]:
    """Fill ``buf[:, 1:]`` one pass per step, stepping each row's state from
    ``buf[:, 0]`` with its own generator; a pass in which some row's step
    raised ends the span. Returns the steps taken and the rows that raised."""
    states = _rows(buf[:, 0])
    failed = []
    for j in range(1, buf.shape[1]):
        for r, g in enumerate(gens):
            try:
                states[r] = plugin.step(states[r], g)
            except Exception:
                failed.append(r)
        buf[:, j] = _int64_rows(plugin, "step returned", states, buf.shape[2:])
        if failed:
            return j, failed
    return buf.shape[1] - 1, failed


@dataclass(frozen=True)
class _Batch(_Run):
    """A batch of a run: what its run shares, and the outputs its spans fill."""

    seeds: list[int]
    rec_y: np.ndarray   # each trajectory's records, coordinate-major: (count, a, len(grid))
    rec_d: np.ndarray
    flags: list         # [the records' violation flags, (count, len(grid))]: a view of one 0
                        # until the batch's first violation, so a clean batch writes none
    examples: list[list[Violation]]  # each trajectory's first _EXAMPLES violations
    out: list[Trajectory | None]


@dataclass
class _Rows:
    """The live rows at the start of a span, whose first step is i0; one
    entry per row in every field, so ``keep`` compacts them all alike."""

    ids: np.ndarray          # the trajectory of each row
    states: np.ndarray       # the state at step i0
    gens: np.ndarray         # the row's generator, an object array
    uniforms: np.ndarray | None  # the row's uniforms of the current draw; None when row-wise
    drift_cum: np.ndarray    # the drift summed to step i0, (rows, a)
    sup_mart: np.ndarray     # sup of the martingale part so far
    sup_dev: np.ndarray      # sup deviation from each path so far, (rows, K)
    carry: np.ndarray        # the replay chain's sum at step i0, (rows, K)
    replay_ok: np.ndarray    # (rows, K)
    event_stop: np.ndarray   # the predicate's first failing step, -1 until then
    counts: np.ndarray       # (trend, bound) violations so far, (rows, 2)
    in_range: np.ndarray     # the same below each path's cap and envelope, (rows, K, 2)

    def keep(self, mask: np.ndarray) -> None:
        vars(self).update({k: v[mask] for k, v in vars(self).items() if v is not None})


@dataclass(frozen=True)
class _Span:
    """Steps i0..i0 + J of the live rows: position j is step i0 + j."""

    i0: int
    J: int
    where: str           # names the span in a PluginCrashed message
    states: np.ndarray   # (rows, J + 1, ...)
    Y: np.ndarray        # their counts as coordinate planes, (a, rows, J + 1)
    end: np.ndarray      # the position of each row's stop, J + 1 for a row that goes on
    error: np.ndarray    # the row stopped at a step that raised
    done: np.ndarray     # end <= J
    on_grid: slice       # the positions 0..J-1 on the record grid,
    kept: slice          # and their records


def _clear_past_stops(x: np.ndarray, s: _Span, after: int = 1) -> np.ndarray:
    """Set to 0, in place, each stopped row's positions of ``x`` (rows on the
    second-to-last axis) from its stop + ``after`` on; returns ``x``."""
    for r in np.flatnonzero(s.done):
        x[..., r, s.end[r] + after :] = 0
    return x


def _stop_rule(b: _Batch, rows: _Rows, states: np.ndarray, i0: int, J: int, failed) -> _Span:
    """Observe the span; find each row's stop and event stop.

    A row stops at the first step at the horizon or with the rescaled state
    outside the open box (the time axis cannot bind earlier because 0 <=
    i/n < T and t_lo < 0), unless its step raised at an earlier step. The
    box is tested on the counts, against ``Domain.count_bounds``. The counts
    are laid out as one contiguous (rows, J + 1) plane per coordinate, so
    every later pass runs along the steps: at a = 1 that is the plugin's
    array, transposed; for a > 1, one copy.
    """
    where = f"in the span of steps {i0}..{i0 + J}"
    live_rows, a = len(rows.ids), b.spec.a
    with _guard(b.plugin, "observables_batch", where):
        Y = b.plugin.observables_batch(
            states.reshape((live_rows * (J + 1),) + states.shape[2:])
        )
        Y = np.ascontiguousarray(Y.reshape(-1, a).T).reshape(a, live_rows, J + 1)
    _int64_values(b.plugin, "observables_batch", Y)
    outside = ((Y < b.c_lo) | (Y > b.c_hi)).any(axis=0)
    if i0 + J >= b.spec.horizon:
        outside[:, J] = True
    end = outside.argmax(axis=1)
    end[~outside[np.arange(live_rows), end]] = J + 1
    error = np.zeros(live_rows, dtype=bool)
    if failed:
        failed = np.asarray(failed)
        error[failed] = end[failed] > J - 1
        end[failed] = np.minimum(end[failed], J - 1)
    done = end <= J
    if b.event_predicate is not None:
        last = np.where(done, end, J - 1)  # position J goes on as the next span's 0
        for r in np.flatnonzero(rows.event_stop < 0):
            for j, y in enumerate(Y[:, r, : last[r] + 1].T.tolist()):
                if not b.event_predicate(i0 + j, tuple(y)):
                    rows.event_stop[r] = i0 + j
                    break
    on_grid = slice(-i0 % b.stride, J, b.stride)
    first = -(-i0 // b.stride)
    kept = slice(first, first + len(range(J)[on_grid]))
    return _Span(i0, J, where, states, Y, end, error, done, on_grid, kept)


def _reduce_drift(b: _Batch, rows: _Rows, s: _Span):
    """Drift, stride records, martingale sup and trend check of the span; returns
    the (a, rows, J) plane of |drift - F| at the steps taken, 0 elsewhere, or
    None for an ``exact_drift`` plugin."""
    live_rows, J, n, a = len(rows.ids), s.J, b.spec.n, b.spec.a
    # cum[:, :, j] is drift_cum at step i0 + j, summed one step at a time;
    # before the sum, cum[:, :, j + 1] holds the drift of step i0 + j. The
    # drifts at or past a row's stop reach only positions that are cleared
    # and records past the stop.
    cum = np.empty((a, live_rows, J + 1))
    with _guard(b.plugin, "drift_batch", s.where):
        cum[:, :, 1:] = b.plugin.drift_batch(
            s.states[:, :J].reshape((live_rows * J,) + s.states.shape[2:])
        ).reshape(-1, a).T.reshape(a, live_rows, J)
    trend = None
    if not b.plugin.exact_drift:
        # the steps taken; a step that raised still had a drift
        r, j = np.nonzero(np.arange(J) < (s.end + s.error)[:, None])
        if len(r):
            points = np.column_stack(((s.i0 + j) / n, s.Y[:, r, j].T.astype(float) / n))
            with _guard(b.spec, "drift", s.where):
                field = drift_at(b.spec.drift, points)
            trend = np.zeros((a, live_rows, J))
            trend[:, r, j] = np.abs(cum[:, r, j + 1] - field.T)
    # records of the steps on the stride grid; a row's records past its
    # stop are overwritten by its last record or lie past its prefix
    b.rec_y[rows.ids, :, s.kept] = s.Y[:, :, s.on_grid].transpose(1, 0, 2)
    b.rec_d[rows.ids, :, s.kept] = cum[:, :, 1:][:, :, s.on_grid].transpose(1, 0, 2)
    cum[:, :, 0] = rows.drift_cum.T
    np.add.accumulate(cum, axis=2, out=cum)
    rows.drift_cum[:] = cum[:, :, J].T
    # the martingale part; a NaN propagates through max, so it never passes
    np.subtract(s.Y - b.Y0, cum, out=cum)
    mart = _clear_past_stops(np.abs(cum, out=cum).max(axis=0), s)
    np.maximum(rows.sup_mart, mart.max(axis=1), out=rows.sup_mart)
    return trend


def _reduce_deviation(b: _Batch, rows: _Rows, s: _Span):
    """Sup deviation from each ODE path and the replay chain of the span.

    Path k counts while i <= caps[k], and the sup only up to the row's event
    stop. Each path's n * y_k(i/n) is interpolated at the span's steps only.
    Returns the (K, rows, positions) deviation at the positions up to the
    longest path's cap, or None past it or without paths.
    """
    cap = int(b.caps.max(initial=-1))
    if s.i0 > cap:
        return None
    jd = min(s.J, cap - s.i0) + 1
    steps = s.i0 + np.arange(jd)
    target = np.stack([p.counts_at_steps(steps[-1], s.i0).T for p in b.solutions])
    dev = np.subtract(s.Y[:, :, :jd], target[:, :, None])  # (K, a, rows, jd)
    dev = _clear_past_stops(np.abs(dev, out=dev).max(axis=1), s)
    # a cleared position passes the replay check: its bound is at least
    # 2*lambda*n > 0, or NaN only after a NaN deviation has failed the row
    for k, cap in enumerate(b.caps):
        dev[k, :, max(0, cap + 1 - s.i0) :] = 0
    sup = dev
    if b.event_predicate is not None and (rows.event_stop >= 0).any():
        before = (rows.event_stop < 0)[:, None] | (steps <= rows.event_stop[:, None])
        sup = np.where(before, dev, 0.0)
    np.maximum(rows.sup_dev, sup.max(axis=2).T, out=rows.sup_dev)
    if b.replay_check:
        # chain[:, :, j] is the chain's sum at step i0 + j, summed one step at a time
        chain = np.empty(dev.shape[:2] + (jd + 1,))
        chain[:, :, 0] = rows.carry.T
        np.multiply(dev, b.spec.L / b.spec.n, out=chain[:, :, 1:])
        chain[:, :, 1:] += b.step_term
        np.add.accumulate(chain, axis=2, out=chain)
        rows.carry[:] = chain[:, :, min(s.J, jd)].T
        bound = np.add(chain[:, :, :jd], b.two_lam_n, out=chain[:, :, :jd])
        np.logical_and(rows.replay_ok, np.less(dev, bound).all(axis=2).T, out=rows.replay_ok)
    return dev


def _count_violations(b: _Batch, rows: _Rows, s: _Span, trend, dev) -> None:
    """Count, at each step before a row's stop and in each coordinate, a gap
    ``trend`` not within delta (NaN included) and a move by more than beta:
    in all, and per path below its cap with the deviation ``dev`` inside its
    envelope. Keep a row's first ``_EXAMPLES`` in (step, trend before bound,
    coordinate) order, and flag its records. A clean span writes nothing."""
    jump = _clear_past_stops(np.diff(s.Y, axis=2), s, after=0)
    over = np.abs(jump, out=jump) > b.spec.beta
    off = None if trend is None else ~(trend <= b.spec.delta)
    if not over.any() and (off is None or not off.any()):
        return
    bad = np.stack((np.zeros_like(over) if off is None else off, over))  # (kind, a, rows, J)
    need = _EXAMPLES - np.minimum(rows.counts.sum(axis=1), _EXAMPLES)  # examples to keep
    rows.counts += bad.sum(axis=(1, 3)).T
    if dev is not None:
        for k, (cap, path) in enumerate(zip(b.caps, b.solutions)):
            lim = max(0, min(s.J, cap - s.i0))
            inside = bad[:, :, :, :lim] & (dev[k, :, :lim] < path.constants.envelope(b.spec.n))
            rows.in_range[:, k] += inside.sum(axis=(1, 3)).T
    hit = bad.any(axis=1)  # (kind, rows, J)
    flag = hit[0] + 2 * hit[1]
    if not b.flags[0].flags.writeable:  # still the zero view
        b.flags[0] = np.zeros((len(b.seeds), len(b.grid)), dtype=np.uint8)
    b.flags[0][rows.ids, s.kept] = flag[:, s.on_grid]
    for r in np.flatnonzero(s.error):  # the step that raised had its trend checked
        b.flags[0][rows.ids[r], -(-(s.i0 + s.end[r]) // b.stride)] = flag[r, s.end[r]]
    for r in np.flatnonzero(hit.any(axis=(0, 2)) & (need > 0)):
        found = np.flatnonzero(bad[:, :, r].transpose(2, 0, 1))[: need[r]]
        for j, kind, k in zip(*np.unravel_index(found, (s.J, 2, b.spec.a))):
            b.examples[rows.ids[r]].append(Violation(
                s.i0 + int(j), int(k), ("trend", "bound")[kind],
                float((trend, jump)[kind][k, r, j]), (b.spec.delta, b.spec.beta)[kind],
            ))


def _reduce_span(b: _Batch, rows: _Rows, states: np.ndarray, i0: int, J: int, failed) -> _Span:
    """Reduce the span of steps i0..i0 + J of every live row, one rule at a time.

    Each reducer's (., rows, J + 1) temporaries die with its frame, which
    bounds the span's memory.
    """
    s = _stop_rule(b, rows, states, i0, J, failed)
    _count_violations(b, rows, s, _reduce_drift(b, rows, s), _reduce_deviation(b, rows, s))
    return s


def _write_out(b: _Batch, rows: _Rows, s: _Span) -> np.ndarray:
    """Write out the rows that stopped in the span; returns their mask."""
    for r in np.flatnonzero(s.done):
        t = rows.ids[r]
        i = s.i0 + int(s.end[r])
        pos = -(-i // b.stride)
        indices = b.grid[: pos + 1] if b.grid[pos] == i else np.append(b.grid[:pos], i)
        b.rec_y[t, :, pos] = s.Y[:, r, s.end[r]]
        b.rec_d[t, :, pos] = math.nan
        ev = int(rows.event_stop[r]) if rows.event_stop[r] >= 0 else None
        b.out[t] = Trajectory(
            seed=int(b.seeds[t]),
            stop_index=i,
            indices=indices,
            steps=b.rec_y[t, :, : pos + 1].T,
            drifts=b.rec_d[t, :, : pos + 1].T,
            flags=b.flags[0][t, : pos + 1],
            violations=tuple(b.examples[t]),
            violation_counts=tuple(rows.counts[r].tolist()),
            in_range_violations=tuple(map(tuple, rows.in_range[r].tolist())),
            sup_deviation=tuple(rows.sup_dev[r].tolist()),
            deviation_cap=tuple(np.minimum(b.caps, i if ev is None else min(i, ev)).tolist()),
            sup_martingale=float(rows.sup_mart[r]),
            event_stop=ev,
            replay_ok=tuple(rows.replay_ok[r].tolist()) if b.replay_check else None,
            valid=not s.error[r],
            error_step=i if s.error[r] else None,
        )
    return s.done


def _simulate_batch(run: _Run, seeds: list[int]) -> list[Trajectory]:
    """The lockstep kernel: one trajectory per seed, in seed order."""
    count, a, m_cap = len(seeds), run.spec.a, run.spec.horizon
    upf = run.plugin.uniforms_per_step
    span = _BLOCK_STEPS * max(1, _SPAN_ROW_STEPS // (count * _BLOCK_STEPS))
    span = max(1, min(span, m_cap))
    draw = span * max(1, min(  # steps of uniforms drawn at once
        _DRAW_STEPS // span,
        _DRAW_STEPS // _BLOCK_STEPS * _SPAN_ROW_STEPS // (count * span),
        -(-m_cap // span),
    ))
    b = _Batch(
        **vars(run),
        seeds=seeds,
        rec_y=np.empty((count, a, len(run.grid)), dtype=np.int64),
        rec_d=np.empty((count, a, len(run.grid))),
        flags=[np.broadcast_to(np.uint8(0), (count, len(run.grid)))],
        examples=[[] for _ in range(count)],
        out=[None] * count,
    )
    gens = np.empty(count, dtype=object)
    gens[:] = [np.random.Generator(np.random.Philox(np.random.SeedSequence(s))) for s in seeds]
    paths = len(run.caps)
    rows = _Rows(
        ids=np.arange(count),
        states=np.repeat(run.start, count, axis=0),
        gens=gens,
        uniforms=None if upf is None else np.empty((count, draw, upf)),
        drift_cum=np.zeros((count, a)),
        sup_mart=np.zeros(count),
        sup_dev=np.zeros((count, paths)),
        carry=np.zeros((count, paths)),
        replay_ok=np.ones((count, paths), dtype=bool),
        event_stop=np.full(count, -1, dtype=np.int64),
        counts=np.zeros((count, 2), dtype=np.int64),
        in_range=np.zeros((count, paths, 2), dtype=np.int64),
    )
    # the states at steps i0..i0+J of the current span, one row per live row
    held = np.empty((count, span + 1) + run.start.shape[1:], dtype=np.int64)

    i0 = 0
    while True:
        # Step every live row J times, to the end of the span or to the
        # horizon. With uniforms, a span always starts at a multiple of the
        # span length, takes its uniforms from the same offset of the
        # current draw and is stepped one block at a time.
        J = min(span - i0 % span, m_cap - i0)
        buf = held[: len(rows.ids)]
        buf[:, 0] = rows.states
        failed = []
        if rows.uniforms is None:
            J, failed = _step_rows(b.plugin, buf[:, : J + 1], rows.gens)
        else:
            d = i0 % draw
            if d == 0:
                for g, u in zip(rows.gens, rows.uniforms):
                    g.random(out=u)
            with _guard(b.plugin, "step_batch", f"in the span of steps {i0}..{i0 + J}"):
                for q in range(0, J, _BLOCK_STEPS):
                    e = min(q + _BLOCK_STEPS, J)
                    _step_block(b.plugin, buf[:, q : e + 1], rows.uniforms[:, d + q : d + e])
        rows.states = buf[:, J]
        done = _write_out(b, rows, _reduce_span(b, rows, buf[:, : J + 1], i0, J, failed))
        if done.all():
            return b.out
        if done.any():
            rows.keep(~done)
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
    endpoints_only: bool = False,
    replay_check: bool = False,
    jobs: int = 1,
) -> Ensemble:
    """Simulate ``count`` independent trajectories from derived seeds.

    Trajectory i uses seed derive_seed(base_seed, i); results are identical
    for any ``jobs`` value, and jobs > 1 splits the seeds into contiguous
    chunks, one batch per worker of a process pool (everything passed in
    must then be picklable). ``solution`` may be one solution or a sequence
    of K solutions at the spec's n and dimension, from any anchors and
    lambdas (another n or dimension raises ValueError): one simulation
    then tracks every path, and each per-path statistic of a trajectory is
    a K-tuple, one entry per solution (a 1-tuple for one ``OdeSolution``,
    ``()`` without a solution; see :class:`~demtrack.core.Trajectory`).
    ``event_predicate`` is called once per trajectory and step up to that
    trajectory's stop (as in :func:`simulate`), in step order for each
    trajectory; the order of calls across trajectories is unspecified.
    Records are kept every ceil(n/1000)-th step and at the stop, at every
    step with ``full_paths``, or at step 0 and the stop only with
    ``endpoints_only`` (which excludes ``full_paths``); the other fields
    of each trajectory are the same whichever is kept.
    """
    _check_counts(count, jobs)
    run = _prepare(
        plugin, spec, solution, replay_check, full_paths, event_predicate, endpoints_only
    )
    seeds = [derive_seed(base_seed, idx) for idx in range(count)]
    batch = partial(_simulate_batch, run)
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
    increments = np.diff(traj.steps, axis=0) - traj.drifts[:-1]
    out = np.zeros((traj.stop_index + 1, traj.steps.shape[1]))
    np.cumsum(increments, axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class HypothesisSummary:
    """Violation counts for one trajectory under the selected checking mode."""

    mode: str
    trend_count: int
    bound_count: int

    @property
    def clean(self) -> bool:
        return self.trend_count == self.bound_count == 0


def check_hypotheses(
    traj: Trajectory, spec: ProcessSpec, mode: str = "strict"
) -> HypothesisSummary:
    """Summarize the violation counts the kernel kept for ``traj``, simulated from ``spec``.

    ``strict`` counts every violation before the stop. ``proof-structure``
    counts only those at steps i < floor(sigma*n) (``Constants.steps``) whose
    deviation from the ODE path is below the envelope 3*exp(L*T)*lambda*n:
    the concentration argument inspects no other step. Thinned trajectories
    are summarized like full ones; that mode needs one simulated against
    exactly one ODE solution, one ``OdeSolution`` or a sequence of one, and
    reads the one entry of its ``in_range_violations``.
    """
    if mode == "strict":
        return HypothesisSummary(mode, *traj.violation_counts)
    if mode != "proof-structure":
        raise ValueError(f"unknown mode {mode!r}")
    if len(traj.in_range_violations) != 1:
        raise ValueError(f"{mode} mode needs a trajectory simulated against one ODE solution")
    return HypothesisSummary(mode, *traj.in_range_violations[0])
