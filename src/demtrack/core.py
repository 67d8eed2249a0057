"""Core domain types: box domains, process specifications, trajectories, reports.

All types here are immutable after construction and safe to share between
worker processes. Counts are kept as 64-bit integers, rescaled quantities
as double-precision floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


def _integral(value, name: str) -> int:
    """``value`` as an int if it is an integral number, not a bool or a string:
    a fraction is refused by ``name``, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)) or value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class LambdaNotAdmissible(ValueError):
    """Raised when the approximation parameter is below its admissible threshold."""


class PluginCrashed(RuntimeError):
    """Raised when a plugin method raised during a simulation or verification run."""


@dataclass(frozen=True)
class Domain:
    """Open axis-aligned box in (t, y_1..y_a) space.

    The time axis spans (t_lo, t_hi); coordinate k spans (lo[k], hi[k]) in
    rescaled Y/n units. Boundary geometry is l-infinity: the distance of a
    point to the boundary is the minimum over all 2(a+1) face distances.
    ``count_bounds`` states the box on integer counts Y at scale n, so the
    simulation kernel tests its states without rescaling them.
    """

    t_lo: float
    t_hi: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi must have equal length")
        if not self.lo:
            raise ValueError("domain needs at least one tracked coordinate")
        ends = (self.t_lo, self.t_hi, *self.lo, *self.hi)
        if not all(math.isfinite(v) for v in ends):
            raise ValueError("domain endpoints must be finite")
        if not self.t_lo < self.t_hi:
            raise ValueError(f"need t_lo < t_hi, got ({self.t_lo}, {self.t_hi})")
        for k, (a, b) in enumerate(zip(self.lo, self.hi)):
            if not a < b:
                raise ValueError(f"coordinate {k}: need lo < hi, got ({a}, {b})")

    @property
    def dim(self) -> int:
        """Number of tracked coordinates (a)."""
        return len(self.lo)

    def boundary_distance(self, point: Sequence[float]) -> float:
        """Signed l-infinity distance of (t, y_1..y_a) to the box boundary.

        Positive iff the point is strictly inside; zero on a face; negative
        outside (then its magnitude is the l-infinity distance to the box).
        A point with a NaN coordinate lies in no box: its distance is -inf.
        """
        if len(point) != self.dim + 1:
            raise ValueError(
                f"point has dimension {len(point)}, domain needs {self.dim + 1}"
            )
        return float(self.distance(point[0], np.asarray(point[1:], dtype=float)))

    def distance(self, ts, ys) -> np.ndarray:
        """``boundary_distance`` of every point (ts[...], ys[..., :]) at once."""
        dist = np.minimum(ts - self.t_lo, self.t_hi - ts)
        faces = np.minimum(ys - np.array(self.lo), np.array(self.hi) - ys)
        dist = np.minimum(dist, faces.min(axis=-1, initial=math.inf))
        return np.where(np.isnan(dist), -math.inf, dist)

    def contains(self, point: Sequence[float]) -> bool:
        return self.boundary_distance(point) > 0.0

    def count_bounds(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per coordinate k, the int64 counts (c_lo[k], c_hi[k]) such that
        lo[k] < c / n < hi[k] exactly when c_lo[k] <= c <= c_hi[k], for every
        int64 count c, with c / n computed as ``np.int64(c) / n``.

        That quotient is monotone in c, so c_lo is the smallest count above
        the lower face and c_hi the largest below the upper one, found by
        bisection over the int64 range; a coordinate that no count lies
        inside gets (int64 max, int64 min).
        """
        top = int(np.iinfo(np.int64).max)

        def first(above) -> int:
            # the smallest int64 c with above(c), or top + 1 for none
            lo, hi = -top - 1, top + 1
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if above(mid) else (mid + 1, hi)
            return lo

        bounds = []
        for a, b in zip(self.lo, self.hi):
            c_lo = first(lambda c: np.int64(c) / n > a)
            c_hi = first(lambda c: np.int64(c) / n >= b) - 1
            bounds.append((c_lo, c_hi) if c_lo <= c_hi else (top, -top - 1))
        lows, highs = zip(*bounds)
        return np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64)


@dataclass(frozen=True)
class ProcessSpec:
    """Full problem instance for one tracked random process.

    ``drift`` maps (t, y) with y an array of length ``a`` to the array of
    expected one-step changes F_1..F_a (rescaled coordinates). It may also
    accept N stacked points (t of shape (N,), y of shape (N, a)) and return
    shape (N, a), each row equal to its single-point call; the scans of
    ``compute_RT`` and ``estimate_lipschitz_lower_bound`` then evaluate
    their points in a few stacked calls, and fall back to one call per
    point for a field that only takes single points. A single-point output
    is read in the shape (a,): (1, a) or, for a = 1, a float is taken, and
    (a + 1,) is refused; a stacked output must be (N, a) exactly. The RK4
    driver reuses its stacked time array and its stage buffers, so ``drift``
    must neither write to nor keep its ``t`` or ``y``. ``L`` is the
    Lipschitz constant of every F_k per unit l-infinity distance, ``delta``
    the drift tolerance, ``beta`` the worst-case one-step bound, ``lam`` the
    approximation parameter, and ``y_hat`` the initial anchor with
    (0, y_hat) inside ``domain``.

    Optional extension parameters: ``avg_step_bound`` (a bound b on the
    conditional mean absolute step), ``trunc_gamma``/``trunc_bound`` (a
    probability gamma of exceeding beta together with a hard cap B), and
    ``trunc_x`` (the tolerated number x of oversized steps). Every number
    given must be finite, and ``n`` an integer (2000.0 is kept as 2000).
    """

    n: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    L: float
    delta: float
    beta: float
    lam: float
    y_hat: tuple[float, ...]
    domain: Domain
    plugin_name: str | None = None
    plugin_params: dict = field(default_factory=dict)
    avg_step_bound: float | None = None
    trunc_gamma: float | None = None
    trunc_bound: float | None = None
    trunc_x: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "n"))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        # the range checks below let inf through, and NaN too where they test
        # ``< 0`` or take a min() (the anchor's boundary distance)
        named = [("L", self.L), ("delta", self.delta), ("beta", self.beta), ("lambda", self.lam)]
        named += [(f"y_hat[{k}]", v) for k, v in enumerate(self.y_hat)]
        named += [
            (name, getattr(self, name))
            for name in ("avg_step_bound", "trunc_gamma", "trunc_bound", "trunc_x")
            if getattr(self, name) is not None
        ]
        for name, v in named:
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.delta < 0 or self.L < 0:
            raise ValueError("delta and L must be nonnegative")
        if len(self.y_hat) != self.domain.dim:
            raise ValueError("y_hat dimension does not match domain")
        if not self.domain.contains((0.0, *self.y_hat)):
            raise ValueError("initial anchor (0, y_hat) must lie inside the domain")
        object.__setattr__(self, "y_hat", tuple(float(v) for v in self.y_hat))

    @property
    def a(self) -> int:
        """Number of tracked variables."""
        return len(self.y_hat)

    @property
    def horizon(self) -> int:
        """floor(t_hi * n): no trajectory steps past it."""
        return math.floor(self.domain.t_hi * self.n)


def check_initial_condition(spec: ProcessSpec, y0: Sequence[int]) -> bool:
    """True iff max_k |Y_k(0) - y_hat_k * n| <= lambda*n; (0, y_hat) lies in
    D for every ProcessSpec."""
    if len(y0) != spec.a:
        raise ValueError(f"y0 has {len(y0)} entries, spec tracks {spec.a}")
    offset = max(abs(float(v) - h * spec.n) for v, h in zip(y0, spec.y_hat))
    return offset <= spec.lam * spec.n


@dataclass(frozen=True)
class Constants:
    """Derived constants of a solved instance.

    R bounds max_k |F_k| over the domain (R >= 1), T bounds the time axis,
    sigma is the horizon up to which the ODE solution keeps l-infinity
    distance >= margin from the boundary, and margin = 3*exp(L*T)*lambda in
    rescaled units.
    """

    R: float
    T: float
    sigma: float
    margin: float

    def __post_init__(self):
        if self.R < 1.0:
            raise ValueError("R must be at least 1")
        if not 0.0 <= self.sigma <= self.T:
            raise ValueError("sigma must lie in [0, T]")

    def envelope(self, n: int) -> float:
        """The envelope 3*exp(L*T)*lambda*n in counts: margin * n."""
        return self.margin * n

    def steps(self, n: int) -> int:
        """Last step of the envelope's range: min(floor(T*n), floor(sigma*n + 1e-9))."""
        return min(math.floor(self.T * n), math.floor(self.sigma * n + 1e-9))


@dataclass(frozen=True)
class Violation:
    """One recorded hypothesis violation at step ``i``, coordinate ``k``.

    ``kind`` is 'trend' (conditional drift differs from F_k by more than
    delta) or 'bound' (one-step change exceeds beta).
    """

    i: int
    k: int
    kind: str
    observed: float
    allowed: float


@dataclass(frozen=True)
class Trajectory:
    """One recorded integer-step path.

    ``indices`` lists the recorded step indices (all of 0..stop_index when
    fully recorded, a thinned subset otherwise); ``steps[r]`` is the count
    vector Y(indices[r]) and ``drifts[r]`` the exact conditional expectation
    E(Y(i+1)-Y(i) | F_i) at that step (NaN on the final record, where no
    step was taken); ``flags[r]`` is 1 for a trend and 2 for a bound
    violation there, or 3. ``stop_index`` is the first exit from the domain
    capped at floor(T*n). Online statistics are computed during simulation
    so that thinning never affects verification: sup_martingale,
    ``violation_counts`` (trend, bound) before the stop, of which
    ``violations`` holds the first 16 in (step, trend before bound,
    coordinate) order, and four per-path statistics, each a tuple with one
    entry per ODE solution the trajectory was simulated against (one
    ``OdeSolution`` gives 1-tuples, no solution ``()``): ``sup_deviation``,
    the sup deviation from the path over steps 0..``deviation_cap``;
    ``in_range_violations``, the (trend, bound) counts at steps
    i < floor(sigma*n) with the deviation below the envelope; and
    ``replay_ok``, the replay chain's verdict, None when it was not checked.
    The kernel stores records coordinate-major, so
    ``steps`` and ``drifts`` may be read-only, Fortran-ordered views (and
    ``flags`` of a run without violations a view of one 0); take
    ``np.ascontiguousarray`` of one for its raw bytes in row order.
    """

    seed: int
    stop_index: int
    indices: np.ndarray
    steps: np.ndarray
    drifts: np.ndarray
    flags: np.ndarray
    violations: tuple[Violation, ...] = ()
    violation_counts: tuple[int, int] = (0, 0)
    in_range_violations: tuple[tuple[int, int], ...] = ()
    sup_deviation: tuple[float, ...] = ()
    deviation_cap: tuple[int, ...] = ()
    sup_martingale: float = 0.0
    event_stop: int | None = None
    replay_ok: tuple[bool, ...] | None = None
    valid: bool = True
    error_step: int | None = None

    def __post_init__(self):
        for arr in (self.indices, self.steps, self.drifts, self.flags):
            arr.setflags(write=False)

    @property
    def is_full(self) -> bool:
        """True when every step 0..stop_index was recorded."""
        return len(self.indices) == self.stop_index + 1


@dataclass(frozen=True)
class Ensemble:
    """Independent trajectories simulated from one spec.

    Per-trajectory seeds (each ``Trajectory.seed``) are derived from
    ``base_seed`` and the trajectory index, so the collection is independent
    of generation order and worker count.
    """

    spec: ProcessSpec
    base_seed: int
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("ensemble needs at least one trajectory")

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the dynamic-concentration envelope on an ensemble.

    ``failure_probability`` is reported exactly as the bound formula yields
    it (it may exceed 1; display clamps only). Empirical deviations are the
    per-trajectory sup over steps 0..min(sigma*n, event stop).
    """

    mode: str
    plugin: str | None
    count: int
    base_seed: int
    constants: Constants
    envelope: float
    lambda_value: float
    lambda_threshold: float
    lambda_admissible: bool
    failure_probability: float
    failure_count: int
    empirical_sup_deviations: tuple[float, ...]
    martingale_bound: float
    martingale_exceed_count: int
    trend_violation_count: int
    bound_violation_count: int
    trajectories_with_violations: int
    hypotheses_failed: bool
    vacuous: bool
    gw_final_inequality_holds: bool
    replay_checked: int | None = None
    replay_failures: int | None = None
    event_predicate_active: bool = False
    event_stops: tuple[int, ...] | None = None
    anchor: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        c = self.constants
        out = {
            "schema": 1,
            "mode": self.mode,
            "plugin": self.plugin,
            "count": self.count,
            "base_seed": self.base_seed,
            "constants": {"R": c.R, "T": c.T, "sigma": c.sigma, "margin": c.margin},
            "envelope": self.envelope,
            "lambda": self.lambda_value,
            "lambda_threshold": self.lambda_threshold,
            "lambda_admissible": self.lambda_admissible,
            "failure_probability": self.failure_probability,
            "failure_count": self.failure_count,
            "empirical_sup_deviations": list(self.empirical_sup_deviations),
            "martingale_bound": self.martingale_bound,
            "martingale_exceed_count": self.martingale_exceed_count,
            "hypothesis_violations": {
                "trend": self.trend_violation_count,
                "bound": self.bound_violation_count,
                "trajectories_with_violations": self.trajectories_with_violations,
            },
            "hypotheses_failed": self.hypotheses_failed,
            "vacuous": self.vacuous,
            "gw_final_inequality_holds": self.gw_final_inequality_holds,
            "event_predicate_active": self.event_predicate_active,
        }
        if self.replay_checked is not None:
            out["gronwall_replay"] = {
                "checked": self.replay_checked,
                "failures": self.replay_failures,
            }
        if self.event_stops is not None:
            out["event_stops"] = list(self.event_stops)
        if self.anchor is not None:
            out["anchor"] = list(self.anchor)
        return out
