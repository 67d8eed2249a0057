"""Command-line interface: solve / simulate / verify / bounds.

Exit codes: 0 on success, 1 when verification finds more envelope failures
than the bound (plus sampling slack) allows, 2 on usage or schema errors
(including an unknown spec key or plugin parameter, a mode parameter that
neither the spec's ``extensions`` nor the plugin supplies, a bad initial
condition, and a count or jobs below 1), 3 when a plugin method raises
during ``simulate`` or ``verify``.
All printed numbers carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

from . import bounds
from .core import PluginCrashed
from .ode import compute_RT, lambda_threshold, solve_ode
from .simulate import run_ensemble
from .specio import load_spec
from .verify import MODES, _require_valid, report_to_json, sampling_slack, verify, within_bound


def _fmt(v) -> str:
    return f"{v:.12g}"


def cmd_solve(args) -> int:
    spec, _plugin = load_spec(args.spec)
    R, T = compute_RT(spec)
    sol = solve_ode(spec, R, T)
    c = sol.constants
    threshold = lambda_threshold(spec, R, T)
    admissible = spec.lam >= threshold
    print(f"R = {_fmt(c.R)}")
    print(f"T = {_fmt(c.T)}")
    print(f"sigma = {_fmt(c.sigma)}")
    print(f"margin = {_fmt(c.margin)}")
    print(
        f"lambda_admissible = {str(admissible).lower()} "
        f"(lambda = {_fmt(spec.lam)}, threshold = {_fmt(threshold)})"
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"y_{k + 1}" for k in range(spec.a)])
            for t, row in zip(sol.ts, sol.ys):
                writer.writerow([_fmt(t)] + [_fmt(v) for v in row])
        print(f"grid written to {args.out} ({len(sol.ts)} rows)")
    return 0


def cmd_simulate(args) -> int:
    spec, plugin = load_spec(args.spec)
    sol = solve_ode(spec) if args.deviations else None
    ensemble = run_ensemble(
        plugin,
        spec,
        args.count,
        args.seed,
        solution=sol,
        full_paths=args.full,
        jobs=args.jobs,
    )
    _require_valid(ensemble.trajectories, "write its CSV")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for idx, traj in enumerate(ensemble.trajectories):
        path = outdir / f"traj_{idx:04d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["i"]
                + [f"Y_{k + 1}" for k in range(spec.a)]
                + [f"drift_{k + 1}" for k in range(spec.a)]
                + ["flags"]
            )
            for i, y_row, d_row, flag in zip(traj.indices, traj.steps, traj.drifts, traj.flags):
                writer.writerow(
                    [int(i)] + [int(v) for v in y_row] + [_fmt(v) for v in d_row] + [int(flag)]
                )
        line = f"{path}: stop_index = {traj.stop_index}, seed = {traj.seed}"
        if sol is not None:
            line += f", sup_deviation = {_fmt(traj.sup_deviation[0])}"
        print(line)
    return 0


def cmd_verify(args) -> int:
    spec, plugin = load_spec(args.spec)
    report = verify(
        spec,
        plugin,
        args.count,
        args.seed,
        mode=args.mode,
        jobs=args.jobs,
        replay_check=not args.no_replay,
    )
    if args.report:
        report_to_json(report, args.report)
    c = report.constants
    print(f"mode = {report.mode}, trajectories = {report.count}")
    print(
        f"R = {_fmt(c.R)}, T = {_fmt(c.T)}, sigma = {_fmt(c.sigma)}, "
        f"margin = {_fmt(c.margin)}"
    )
    print(f"envelope = {_fmt(report.envelope)} (counts)")
    shown = min(report.failure_probability, 1.0)
    note = " (clamped for display)" if report.failure_probability > 1.0 else ""
    print(f"failure probability bound = {_fmt(shown)}{note}")
    if report.vacuous:
        print("sigma = 0: guarantee vacuous over an empty range")
        return 0
    devs = report.empirical_sup_deviations
    print(
        f"empirical sup deviation: max = {_fmt(max(devs))}, "
        f"median = {_fmt(sorted(devs)[len(devs) // 2])}"
    )
    print(f"failures = {report.failure_count} / {report.count}")
    print(f"martingale bound exceeded in {report.martingale_exceed_count} trajectories")
    if report.hypotheses_failed:
        print(
            f"hypotheses-failed: {report.trend_violation_count} trend / "
            f"{report.bound_violation_count} bound violations"
        )
    ok = within_bound(report)
    slack = sampling_slack(report.failure_probability, report.count)
    print(
        f"verdict: {'PASS' if ok else 'FAIL'} "
        f"(failure fraction {_fmt(report.failure_count / report.count)} vs "
        f"bound {_fmt(shown)} + slack {_fmt(slack)})"
    )
    return 0 if ok else 1


# The functions of ``demtrack bounds``, by subcommand name. Each parameter
# of a function is a required flag of the same name, typed by its annotation.
_BOUNDS = {
    "azuma": bounds.azuma_bound,
    "theorem": bounds.theorem_failure_probability,
    "freedman": bounds.freedman_failure_probability,
    "freedman-two-term": bounds.freedman_two_term_probability,
    "gronwall-discrete": bounds.gronwall_discrete_bound,
    "gronwall-continuous": bounds.gronwall_continuous_bound,
    "stability": bounds.stability_bound,
    "binomial-tail": bounds.binomial_tail,
    "binomial-remark": bounds.binomial_tail_remark_bound,
    "truncated": bounds.truncated_failure_probability,
}


def cmd_bounds(args) -> int:
    fn = _BOUNDS[args.kind]
    print(_fmt(fn(**{p: getattr(args, p) for p in inspect.signature(fn).parameters})))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demtrack",
        description="Track discrete random processes against their limiting ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the limiting ODE and print constants")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write the solution grid as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate trajectories to CSV files")
    p.add_argument("spec")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--full", action="store_true", help="record every step")
    p.add_argument("--deviations", action="store_true", help="track ODE deviations")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="verify the concentration envelope")
    p.add_argument("spec")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-replay", action="store_true", help="skip the recurrence replay")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate one closed-form bound")
    bsub = p.add_subparsers(dest="kind", required=True)

    for kind, fn in _BOUNDS.items():
        q = bsub.add_parser(kind)
        for name, param in inspect.signature(fn, eval_str=True).parameters.items():
            flags = (f"--{name}", "--lambda") if name == "lam" else (f"--{name}",)
            q.add_argument(*flags, type=param.annotation, required=True)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PluginCrashed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
