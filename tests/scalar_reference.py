"""Scalar reference for the lockstep kernel: one trajectory, one step at a time.

This is the per-trajectory loop the batched kernel in ``demtrack.simulate``
replaced, kept verbatim but for its violations: it keeps every one, and
counts and flags them from that full list. It tracks at most one ODE path
and gives each per-path statistic the kernel's shape, a 1-tuple against a
solution and ``()`` without one. Property tests require the
kernel to reproduce its trajectories field for field on finite inputs, with
the kernel's counts equal to the totals of the full list and its examples
equal to the list's first 16. The one intended difference: this loop drops
a NaN deviation (``d > dev_i`` is false), where the kernel propagates it so
that verification never passes on it.

The built-in processes state their dynamics once, as array batch methods,
and get their scalar methods as a batch of one. Their scalar twins below
keep the scalar bodies those batch methods replaced, verbatim: an
independent implementation to run this loop on. Being subclasses that
override the scalar methods only, they fall back to the per-row batch
defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from demtrack.core import ProcessSpec, Trajectory, Violation
from demtrack.ode import OdeSolution
from demtrack.processes import BallsInBins, DegreeProcess, GreedyMatching, ProcessPlugin


@dataclass(frozen=True)
class _SimPrep:
    """Per-spec data shared by every trajectory of an ensemble."""

    yode: list          # n * y_k(i/n) as nested python lists, rows 0..cap
    cap: int            # min(floor(T*n), floor(sigma*n))
    envelope: float     # 3*exp(L*T)*lambda*n
    lam_n: float
    two_lam_n: float
    step_term: float    # L*R/n + delta, the per-step additive recurrence term
    L_over_n: float


def _prepare(spec: ProcessSpec, solution: OdeSolution) -> _SimPrep:
    n = spec.n
    c = solution.constants
    cap = min(math.floor(c.T * n), math.floor(c.sigma * n + 1e-9))
    yode = solution.counts_at_steps(cap).tolist()
    lam_n = spec.lam * n
    return _SimPrep(
        yode=yode,
        cap=cap,
        envelope=c.margin * n,
        lam_n=lam_n,
        two_lam_n=2.0 * lam_n,
        step_term=spec.L * c.R / n + spec.delta,
        L_over_n=spec.L / n,
    )


def _simulate_prepared(
    plugin: ProcessPlugin,
    spec: ProcessSpec,
    seed: int,
    prep: _SimPrep | None,
    full_paths: bool,
    event_predicate,
    replay_check: bool,
) -> Trajectory:
    n = spec.n
    a = spec.a
    if plugin.n != n:
        raise ValueError(f"plugin scale n={plugin.n} differs from spec n={n}")
    if plugin.dim != a:
        raise ValueError(f"plugin tracks {plugin.dim} variables, spec expects {a}")

    m_cap = math.floor(spec.domain.t_hi * n)
    stride = 1 if full_paths else max(1, math.ceil(n / 1000))
    lo = spec.domain.lo
    hi = spec.domain.hi
    beta = spec.beta
    delta = spec.delta
    check_trend = not plugin.exact_drift
    ks = range(a)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    state = plugin.initial_state()
    Y = plugin.observables(state)
    Y0 = Y

    rec_i: list[int] = []
    rec_y: list[tuple] = []
    rec_d: list[tuple] = []
    nan_row = (math.nan,) * a
    violations: list[Violation] = []
    # (trend, bound) at steps i < cap whose deviation is below the envelope
    in_range = [0, 0] if prep is not None else None
    drift_cum = [0.0] * a
    sup_mart = 0.0
    event_stop: int | None = None
    valid = True
    error_step: int | None = None

    if prep is not None:
        yode = prep.yode
        cap = prep.cap
        sup_dev: float | None = 0.0
        replay_ok: bool | None = True if replay_check else None
        chain_sum = 0.0
        prev_dev = 0.0
    else:
        yode = None
        cap = -1
        sup_dev = None
        replay_ok = None

    i = 0
    while True:
        # stopping rule: first index at or past the horizon, or with the
        # rescaled state outside the open box (the time axis cannot bind
        # earlier because 0 <= i/n < T and t_lo < 0)
        stopped = i >= m_cap
        if not stopped:
            for k in ks:
                yk = Y[k] / n
                if not lo[k] < yk < hi[k]:
                    stopped = True
                    break

        if event_predicate is not None and event_stop is None and not event_predicate(i, Y):
            event_stop = i

        dev_i: float | None = None
        if 0 <= i <= cap:
            row = yode[i]
            dev_i = 0.0
            for k in ks:
                d = Y[k] - row[k]
                if d < 0.0:
                    d = -d
                if d > dev_i:
                    dev_i = d
            if event_stop is None or i <= event_stop:
                if dev_i > sup_dev:
                    sup_dev = dev_i
            if replay_ok is not None:
                if i > 0:
                    chain_sum += prep.L_over_n * prev_dev + prep.step_term
                if not dev_i < prep.two_lam_n + chain_sum:
                    replay_ok = False
                prev_dev = dev_i

        md = 0.0
        for k in ks:
            d = Y[k] - Y0[k] - drift_cum[k]
            if d < 0.0:
                d = -d
            if d > md:
                md = d
        if md > sup_mart:
            sup_mart = md

        if stopped:
            rec_i.append(i)
            rec_y.append(Y)
            rec_d.append(nan_row)
            break

        d = plugin.drift(state)
        if i % stride == 0:
            rec_i.append(i)
            rec_y.append(Y)
            rec_d.append(d)
        if check_trend:
            field = spec.drift(i / n, np.asarray(Y, dtype=float) / n)
            for k in ks:
                gap = abs(d[k] - float(field[k]))
                if not gap <= delta:  # a NaN gap is a violation
                    violations.append(Violation(i, k, "trend", gap, delta))
                    if i < cap and dev_i < prep.envelope:
                        in_range[0] += 1
        try:
            state = plugin.step(state, rng)
        except Exception:
            valid = False
            error_step = i
            if rec_i[-1] == i:
                rec_d[-1] = nan_row
            else:
                rec_i.append(i)
                rec_y.append(Y)
                rec_d.append(nan_row)
            break
        Y_new = plugin.observables(state)
        for k in ks:
            ch = Y_new[k] - Y[k]
            if ch < 0:
                ch = -ch
            if ch > beta:
                violations.append(Violation(i, k, "bound", float(ch), beta))
                if i < cap and dev_i < prep.envelope:
                    in_range[1] += 1
        for k in ks:
            drift_cum[k] += d[k]
        Y = Y_new
        i += 1

    dev_cap = None
    if prep is not None:
        dev_cap = min(cap, i)
        if event_stop is not None:
            dev_cap = min(dev_cap, event_stop)
    flags = {}
    for v in violations:
        flags[v.i] = flags.get(v.i, 0) | (1 if v.kind == "trend" else 2)

    return Trajectory(
        seed=seed,
        stop_index=i,
        indices=np.array(rec_i, dtype=np.int64),
        steps=np.array(rec_y, dtype=np.int64),
        drifts=np.array(rec_d, dtype=float),
        flags=np.array([flags.get(i, 0) for i in rec_i], dtype=np.uint8),
        violations=tuple(violations),
        violation_counts=tuple(
            sum(v.kind == kind for v in violations) for kind in ("trend", "bound")
        ),
        in_range_violations=() if in_range is None else (tuple(in_range),),
        sup_deviation=() if sup_dev is None else (sup_dev,),
        deviation_cap=() if dev_cap is None else (dev_cap,),
        sup_martingale=sup_mart,
        event_stop=event_stop,
        replay_ok=None if replay_ok is None else (replay_ok,),
        valid=valid,
        error_step=error_step,
    )


def reference_simulate(
    plugin, spec, seed, *, solution=None, full_paths=False,
    event_predicate=None, replay_check=False,
) -> Trajectory:
    """The scalar counterpart of ``demtrack.simulate.simulate``."""
    prep = _prepare(spec, solution) if solution is not None else None
    return _simulate_prepared(
        plugin, spec, int(seed), prep, full_paths, event_predicate, replay_check
    )


class ScalarBallsInBins(BallsInBins):
    """Balls-in-bins through its scalar methods."""

    def observables(self, state) -> tuple[int, ...]:
        return (state,)

    def step(self, state, rng):
        return state - 1 if rng.random() * self.n < state else state

    def drift(self, state) -> tuple[float, ...]:
        return (-(state / self.n),)


class ScalarDegreeProcess(DegreeProcess):
    """The degree process through its scalar methods."""

    def observables(self, state) -> tuple[int, ...]:
        return state[: self.max_degree + 1]

    def step(self, state, rng):
        n = self.n
        top = self._overflow
        u = rng.random() * n
        acc = 0.0
        ju = top
        for j, c in enumerate(state):
            acc += c
            if u < acc:
                ju = j
                break
        v = rng.random() * (n - 1)
        acc = 0.0
        jv = top
        for j, c in enumerate(state):
            acc += c - (j == ju)
            if v < acc:
                jv = j
                break
        out = list(state)
        out[ju] -= 1
        out[min(ju + 1, top)] += 1
        out[jv] -= 1
        out[min(jv + 1, top)] += 1
        return tuple(out)

    def drift(self, state) -> tuple[float, ...]:
        n = self.n
        return tuple(
            2.0 * ((state[k - 1] if k else 0) - state[k]) / n
            for k in range(self.max_degree + 1)
        )


class ScalarGreedyMatching(GreedyMatching):
    """Greedy matching through its scalar methods."""

    def observables(self, state) -> tuple[int, ...]:
        return (state,)

    def step(self, state, rng):
        return state - 2 if state >= 2 else state

    def drift(self, state) -> tuple[float, ...]:
        return (-2.0,) if state >= 2 else (0.0,)


SCALAR_TWINS = {
    BallsInBins: ScalarBallsInBins,
    DegreeProcess: ScalarDegreeProcess,
    GreedyMatching: ScalarGreedyMatching,
}


def scalar_twin(plugin: ProcessPlugin) -> ProcessPlugin:
    """The scalar twin of a built-in plugin, at the same n and parameters."""
    return SCALAR_TWINS[type(plugin)](plugin.n, **plugin.params)
