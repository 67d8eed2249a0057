"""demtrack: track discrete-time random processes against their limiting ODEs.

The library solves the limiting ODE system of a tracked process, evaluates
the concentration bounds governing how tightly trajectories follow it,
simulates processes with exact conditional drifts, and verifies the
resulting dynamic-concentration envelope empirically.
"""

from .bounds import (
    azuma_bound,
    binomial_tail,
    binomial_tail_remark_bound,
    error_envelope,
    freedman_failure_probability,
    freedman_two_term_probability,
    gronwall_continuous_bound,
    gronwall_discrete_bound,
    stability_bound,
    theorem_failure_probability,
    truncated_failure_probability,
)
from .core import (
    Constants,
    Domain,
    Ensemble,
    LambdaNotAdmissible,
    PluginCrashed,
    ProcessSpec,
    Trajectory,
    VerificationReport,
    Violation,
    check_initial_condition,
)
from .ode import (
    OdeSolution,
    compute_RT,
    compute_sigma,
    estimate_lipschitz_lower_bound,
    lambda_threshold,
    range_check,
    solve_ode,
)
from .processes import (
    BallsInBins,
    DegreeProcess,
    GreedyMatching,
    ProcessPlugin,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
    make_plugin,
    register_plugin,
)
from .simulate import (
    HypothesisSummary,
    check_hypotheses,
    derive_seed,
    doob_decompose,
    run_ensemble,
    simulate,
)
from .specio import load_spec, save_spec, spec_from_dict, spec_to_dict
from .verify import report_to_json, verify, verify_multi_anchor, within_bound

__version__ = "0.1.0"
