"""End-to-end verification harness for the dynamic-concentration guarantee.

Assembles constants, probability bounds, and a simulated ensemble into a
pass/fail report: the theoretical envelope 3*exp(L*T)*lambda*n is compared
against every trajectory's sup-deviation from the ODE path over
0 <= i <= sigma*n (truncated at the first failure of an optional side
event). Verification is a pure reduction over independent trajectories and
is deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import Callable, Sequence

from .bounds import (
    freedman_failure_probability,
    theorem_failure_probability,
    truncated_failure_probability,
)
from .core import (
    Constants,
    LambdaNotAdmissible,
    PluginCrashed,
    ProcessSpec,
    VerificationReport,
    check_initial_condition,
)
from .ode import _margin, anchor_grids, compute_RT, lambda_threshold, solve_ode
from .processes import ProcessPlugin
from .simulate import _check_counts, _check_plugin, _start, check_hypotheses, run_ensemble

MODES = ("plain", "averaged", "truncated")


def _resolve_extension_params(spec: ProcessSpec, plugin: ProcessPlugin, mode: str):
    """(b, gamma, B, x) for the mode, preferring spec values over plugin defaults.

    The one check of the mode and its parameters, which refuses b <= 0, gamma
    outside [0, 1] and B or x below 0; messages name the spec-file keys.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    b = gamma = B = x = 0.0
    if mode == "averaged":
        b = spec.avg_step_bound
        if b is None:
            b = plugin.avg_step_bound(spec)
        if b is None:
            raise ValueError("averaged mode needs extensions.b")
        if not b > 0:
            raise ValueError(f"extensions.b must be positive, got {b!r}")
    elif mode == "truncated":
        gamma, B = spec.trunc_gamma, spec.trunc_bound
        if gamma is None or B is None:
            declared = plugin.truncation(spec)
            if declared is None:
                raise ValueError("truncated mode needs extensions.gamma and extensions.B")
            gamma = declared[0] if gamma is None else gamma
            B = declared[1] if B is None else B
        x = spec.trunc_x
        if x is None:
            raise ValueError("truncated mode needs extensions.x, the oversized-step budget")
        for key, value, rule, ok in (
            ("gamma", gamma, "in [0, 1]", 0 <= gamma <= 1),
            ("B", B, "nonnegative", B >= 0),
            ("x", x, "nonnegative", x >= 0),
        ):
            if not ok:
                raise ValueError(f"extensions.{key} must be {rule}, got {value!r}")
    return b, gamma, B, x


def _failure_probability(spec: ProcessSpec, T: float, mode: str, b, gamma, x) -> float:
    if mode == "plain":
        return theorem_failure_probability(spec.a, spec.n, spec.lam, T, spec.beta)
    if mode == "averaged":
        return freedman_failure_probability(spec.a, spec.n, spec.lam, T, spec.beta, b)
    return truncated_failure_probability(
        spec.a, spec.n, spec.lam, T, spec.beta, gamma, x
    )


def _gw_final_inequality(spec: ProcessSpec, c: Constants) -> bool:
    """(2*lam + lambda_threshold) * exp(L*m/n) <= margin at every step m of the envelope's range.

    The left side grows with m: this checks m = c.steps(n), as 2*lam + threshold <=
    the margin left at m, which holds whenever lam >= threshold, in floating point too.
    """
    m = c.steps(spec.n)
    lhs = 2.0 * spec.lam + lambda_threshold(spec, c.R, c.T)
    return lhs <= _margin(spec.L, c.T - m / spec.n, spec.lam)


def verify(
    spec: ProcessSpec,
    plugin: ProcessPlugin,
    count: int,
    base_seed: int,
    mode: str = "plain",
    event_predicate: Callable[[int, tuple], bool] | None = None,
    *,
    replay_check: bool = True,
    jobs: int = 1,
) -> VerificationReport:
    """Solve, simulate, and check the envelope; raises if lambda is inadmissible.

    ``mode`` selects the failure-probability bound: 'plain' (worst-case step
    bound beta), 'averaged' (conditional mean absolute step at most b), or
    'truncated' (steps exceed beta with probability at most gamma, hard cap
    B, budget x). An ``event_predicate`` restricts the deviation range per
    side-event semantics and relabels plain mode as 'side-events'. The mode
    parameters and the initial condition max_k |Y_k(0) - y_hat_k*n| <=
    lambda*n, Y(0) by the kernel's start rule, are checked before any
    work starts, even when sigma = 0, and so are ``count`` and ``jobs``
    (both at least 1) and the plugin's ``n`` and ``dim`` against the spec.
    Raises :class:`PluginCrashed` when a plugin method raises.
    """
    return _verify_anchors(
        spec, plugin, count, base_seed, mode, event_predicate, replay_check, jobs, [spec]
    )[0]


def verify_multi_anchor(
    spec: ProcessSpec,
    plugin: ProcessPlugin,
    count: int,
    base_seed: int,
    anchors: Sequence[Sequence[float]],
    mode: str = "plain",
    *,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Verify the envelope against each anchor's re-solved ODE path.

    The continuum relaxation of the initial condition (the envelope holding
    simultaneously for every admissible anchor) is approximated by this
    finite anchor set. The ensemble is simulated once and checked against
    every anchor's path, so the per-anchor reports jointly check one
    realization; report k equals ``verify`` on the spec re-anchored at
    anchor k, labelled with that anchor. Each anchor must make a valid
    ``ProcessSpec`` (dimension, finite values, inside the domain) and
    satisfy the initial condition; every anchor is checked before any work
    starts, and offenders are rejected with their index.
    """
    if not anchors:
        raise ValueError("need at least one anchor")
    anchored = []
    for idx, anchor in enumerate(anchors):
        try:
            anchored.append(replace(spec, y_hat=tuple(anchor)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"anchor {idx}: {exc}") from exc
    reports = _verify_anchors(spec, plugin, count, base_seed, mode, None, True, jobs, anchored)
    return [replace(r, anchor=s.y_hat) for r, s in zip(reports, anchored)]


def _verify_anchors(
    spec: ProcessSpec,
    plugin: ProcessPlugin,
    count: int,
    base_seed: int,
    mode: str,
    event_predicate,
    replay_check: bool,
    jobs: int,
    anchored: list[ProcessSpec],
) -> list[VerificationReport]:
    """One unlabelled report per spec in ``anchored``, ``spec`` re-anchored.

    R and T do not depend on the anchor, so the RT scan runs once; one RK4
    run solves all the anchors together, and one ensemble is checked against
    all the paths with sigma > 0. An anchor with sigma = 0 gets a vacuous
    report. What does not depend on the anchor is counted once per ensemble
    (``_ensemble_fields``); each anchor adds what its path gives.
    """
    _check_counts(count, jobs)
    _check_plugin(plugin, spec)
    b, gamma, B, x = _resolve_extension_params(spec, plugin, mode)
    y0 = _start(plugin)[1]
    for idx, anchored_spec in enumerate(anchored):
        if not check_initial_condition(anchored_spec, y0):
            raise ValueError(
                f"anchor {idx} violates the initial condition, Y(0) = {tuple(y0.tolist())}"
            )
    R, T = compute_RT(spec)
    threshold = lambda_threshold(spec, R, T, gamma=gamma, B=B, x=x)
    if not spec.lam >= threshold:
        raise LambdaNotAdmissible(
            f"lambda={spec.lam} < (delta + gamma*B)*min(T, 1/L) + (R + x*B)/n"
            f" = {threshold}"
        )
    grids = anchor_grids(anchored, T)
    solutions = [solve_ode(s, R, T, grid) for s, grid in zip(anchored, grids)]
    tracked = [k for k, sol in enumerate(solutions) if sol.sigma > 0.0]  # path order
    failure_probability = _failure_probability(spec, T, mode, b, gamma, x)

    trajectories = ()
    if tracked:
        trajectories = run_ensemble(
            plugin,
            spec,
            count,
            base_seed,
            event_predicate,
            solution=[solutions[k] for k in tracked],
            endpoints_only=True,  # the reports read only what the kernel reduces online
            replay_check=replay_check,
            jobs=jobs,
        ).trajectories
        _require_valid(trajectories, "verify")

    reported_mode = mode
    if event_predicate is not None and mode == "plain":
        reported_mode = "side-events"
    counted, holders = _ensemble_fields(trajectories, spec, replay_check, event_predicate)
    untracked, _ = _ensemble_fields((), spec, False, None)  # a sigma = 0 anchor checks none
    reports = []
    for k, sol in enumerate(solutions):
        c = sol.constants
        envelope = c.envelope(spec.n)
        sup_devs, fields, replay_failures = (), untracked, None
        if k in tracked:
            path = tracked.index(k)
            sup_devs, fields = tuple(t.sup_deviation[path] for t in trajectories), counted
            if replay_check:
                replay_failures = sum(1 for t in holders if not t.replay_ok[path])
        reports.append(VerificationReport(
            mode=reported_mode,
            plugin=spec.plugin_name,
            count=count,
            base_seed=int(base_seed),
            constants=c,
            envelope=envelope,
            lambda_value=spec.lam,
            lambda_threshold=threshold,
            lambda_admissible=True,
            failure_probability=failure_probability,
            # "not below", so that a NaN sup counts as a failure
            failure_count=sum(1 for d in sup_devs if not d < envelope),
            empirical_sup_deviations=sup_devs,
            vacuous=k not in tracked,
            gw_final_inequality_holds=_gw_final_inequality(spec, c),
            replay_failures=replay_failures,
            event_predicate_active=event_predicate is not None,
            **fields,
        ))
    return reports


def _ensemble_fields(trajectories, spec: ProcessSpec, replay_check: bool, event_predicate):
    """The report fields that do not depend on the anchor, and the trajectories
    whose martingale part stayed below lambda*n, which the replay check counts.
    The violation counts come from one strict ``check_hypotheses`` summary each."""
    lam_n = spec.lam * spec.n
    summaries = [check_hypotheses(t, spec) for t in trajectories]
    dirty = sum(1 for h in summaries if not h.clean)
    holders = [t for t in trajectories if t.sup_martingale < lam_n]
    fields = dict(
        martingale_bound=lam_n,
        martingale_exceed_count=len(trajectories) - len(holders),
        trend_violation_count=sum(h.trend_count for h in summaries),
        bound_violation_count=sum(h.bound_count for h in summaries),
        trajectories_with_violations=dirty,
        hypotheses_failed=dirty > 0,
        replay_checked=len(holders) if replay_check else None,
        event_stops=None if event_predicate is None else tuple(
            -1 if t.event_stop is None else t.event_stop for t in trajectories
        ),
    )
    return fields, holders


def _require_valid(trajectories, use: str) -> None:
    """Raise PluginCrashed at the first trajectory whose step raised."""
    for idx, traj in enumerate(trajectories):
        if not traj.valid:
            raise PluginCrashed(f"trajectory {idx} failed at step {traj.error_step}; cannot {use}")


def report_to_json(report: VerificationReport, path) -> None:
    """Write the versioned JSON form of a report."""
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def sampling_slack(p: float, count: int) -> float:
    """Three-sigma binomial sampling slack for an empirical failure fraction."""
    p = min(max(p, 0.0), 1.0)
    return 3.0 * math.sqrt(p * (1.0 - p) / count)


def within_bound(report: VerificationReport) -> bool:
    """Empirical failure fraction <= failure probability + sampling slack.

    Never true when a sup deviation is not finite: such a run means nothing,
    however loose the bound.
    """
    if report.vacuous:
        return True
    if not all(math.isfinite(d) for d in report.empirical_sup_deviations):
        return False
    frac = report.failure_count / report.count
    p = min(report.failure_probability, 1.0)
    return frac <= p + sampling_slack(p, report.count)
