"""Fixed-step RK4 engine for the limiting ODE system, with margin-aware halting.

The solver integrates y'_k = F_k(t, y) from the anchor until either the time
horizon T or the first grid point whose l-infinity boundary distance drops
below margin = 3*exp(L*T)*lambda. Fixed steps keep the sigma rounding
deterministic; the drift is Lipschitz and bounded on a box, so stiffness is
not a concern.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Constants, ProcessSpec

RT_GRID_RESOLUTION = 64       # per-axis grid points for the sup |F_k| scan
RT_GRID_BUDGET = 64 ** 3      # cap on total scan points in higher dimensions
RT_SCAN_CHUNK = 2 ** 15       # scan points per drift call; bounds the scan's memory
MIN_GRID_STEPS = 2048
MAX_GRID_STEPS = 2 ** 20
RANGE_CHECK_LAMBDA_CAP = 0.01  # concrete proxy for the lambda = o(1) regime


@dataclass(frozen=True)
class OdeSolution:
    """Dense numerical solution on [0, sigma] (grid may extend one point past).

    Values between grid points are linearly interpolated; the interpolation
    error on an interval of width h is at most (R + L*max|y|) * h. Every grid
    point strictly before sigma keeps boundary distance >= margin.
    """

    spec: ProcessSpec
    ts: np.ndarray
    ys: np.ndarray
    constants: Constants

    def __post_init__(self):
        self.ts.setflags(write=False)
        self.ys.setflags(write=False)

    @property
    def sigma(self) -> float:
        return self.constants.sigma

    def at(self, t: float) -> np.ndarray:
        """Interpolated solution vector at time t within the grid range."""
        if t < self.ts[0] or t > self.ts[-1]:
            raise ValueError(f"t={t} outside solved range [{self.ts[0]}, {self.ts[-1]}]")
        return np.array([np.interp(t, self.ts, self.ys[:, k]) for k in range(self.ys.shape[1])])

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Interpolated values, shape (len(times), a)."""
        times = np.asarray(times, dtype=float)
        out = np.empty((len(times), self.ys.shape[1]))
        for k in range(self.ys.shape[1]):
            out[:, k] = np.interp(times, self.ts, self.ys[:, k])
        return out

    def counts_at_steps(self, upto: int) -> np.ndarray:
        """n * y_k(i/n) for i = 0..upto, shape (upto+1, a)."""
        n = self.spec.n
        times = np.arange(upto + 1) / n
        return self.values_at(times) * n


def drift_at(field, points: np.ndarray) -> np.ndarray:
    """``field(t, y)`` at every row (t, y_1..y_a) of ``points``, shape (N, a).

    Makes one call on the stacked points and keeps its result when it has
    shape (N, a) and its first, middle and last rows equal the single-point
    calls exactly (NaN equal to NaN). Otherwise, and when the stacked call
    raises, the field is taken to accept single points only and is called
    once per point; exceptions of those calls propagate.
    """
    count, a = len(points), points.shape[1] - 1
    ts, ys = points[:, 0], points[:, 1:]
    try:
        out = np.asarray(field(ts, ys), dtype=float)
        stacked = out.shape == (count, a) and all(
            np.array_equal(out[r], np.asarray(field(ts[r], ys[r]), dtype=float), equal_nan=True)
            for r in sorted({0, count // 2, count - 1})
        )
    except Exception:
        stacked = False
    if stacked:
        return out
    return np.array([np.asarray(field(p[0], p[1:]), dtype=float) for p in points])


def compute_RT(spec: ProcessSpec) -> tuple[float, float]:
    """Drift bound R and time horizon T for the spec's domain.

    T is the domain's upper time endpoint. R is the maximum of 1 and the
    grid supremum of max_k |F_k| over the closed box, inflated by L times
    the grid mesh so that the Lipschitz property makes the bound rigorous.
    The scan uses RT_GRID_RESOLUTION points per axis, reduced in higher
    dimensions to keep the total under RT_GRID_BUDGET (the coarser mesh is
    compensated by a larger inflation, so R stays a valid upper bound).
    The points are taken in row-major grid order, RT_SCAN_CHUNK at a time.
    A point where some F_k is NaN does not count.
    """
    dom = spec.domain
    T = dom.t_hi
    axes_lo = (dom.t_lo, *dom.lo)
    axes_hi = (dom.t_hi, *dom.hi)
    ndim = len(axes_lo)
    res = min(RT_GRID_RESOLUTION, max(4, int(RT_GRID_BUDGET ** (1.0 / ndim))))
    grids = [np.linspace(lo, hi, res) for lo, hi in zip(axes_lo, axes_hi)]
    mesh = max((hi - lo) / (res - 1) for lo, hi in zip(axes_lo, axes_hi))
    total = res ** ndim
    best = 0.0
    for start in range(0, total, RT_SCAN_CHUNK):
        flat = np.arange(start, min(start + RT_SCAN_CHUNK, total))
        idx = np.unravel_index(flat, (res,) * ndim)
        points = np.column_stack([g[i] for g, i in zip(grids, idx)])
        per_point = np.abs(drift_at(spec.drift, points)).reshape(len(points), -1).max(axis=1)
        best = float(np.fmax.reduce(per_point, initial=best))
    return max(1.0, best + spec.L * mesh), T


def estimate_lipschitz_lower_bound(spec: ProcessSpec, samples: int = 256, seed: int = 0) -> float:
    """Lower bound on the true Lipschitz constant from sampled differences.

    Draws random point pairs in the closed box and maximizes
    max_k |F_k(x) - F_k(x')| / |x - x'|_inf. The supplied spec.L is never
    replaced; this is a diagnostic, and a warning is emitted when the
    estimate exceeds it (the supplied constant is then certainly too small).
    """
    rng = np.random.default_rng(seed)
    dom = spec.domain
    lo = np.array((dom.t_lo, *dom.lo))
    hi = np.array((dom.t_hi, *dom.hi))
    pairs = rng.uniform(lo, hi, size=(samples, 2, len(lo)))
    gaps = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
    f = drift_at(spec.drift, pairs.reshape(2 * samples, len(lo))).reshape(samples, 2, -1)
    apart = gaps >= 1e-12
    slopes = np.abs(f[apart, 0] - f[apart, 1]).max(axis=1) / gaps[apart]
    best = float(np.fmax.reduce(slopes, initial=0.0))
    if best > spec.L:
        warnings.warn(
            f"sampled Lipschitz lower bound {best:.6g} exceeds the supplied "
            f"L = {spec.L:.6g}; the spec's constant is too small",
            stacklevel=2,
        )
    return best


def rk4_grid(f, y0: np.ndarray, t0: float, t1: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical 4th-order Runge-Kutta on a uniform grid; returns (ts, ys)."""
    if steps < 1:
        raise ValueError("steps must be positive")
    h = (t1 - t0) / steps
    ts = t0 + h * np.arange(steps + 1)
    ts[-1] = t1
    ys = np.empty((steps + 1, len(y0)))
    ys[0] = y0
    y = np.asarray(y0, dtype=float)
    for j in range(steps):
        y = _rk4_step(f, ts[j], y, h)
        ys[j + 1] = y
    return ts, ys


def _rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(t, y), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, y + h * k3), dtype=float)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def grid_steps(spec: ProcessSpec, T: float) -> int:
    """Fixed step count: max(MIN_GRID_STEPS, ceil(T*n)) capped at MAX_GRID_STEPS."""
    return max(MIN_GRID_STEPS, min(math.ceil(T * spec.n), MAX_GRID_STEPS))


def solve_ode(spec: ProcessSpec, R: float | None = None, T: float | None = None) -> OdeSolution:
    """Integrate the limiting system from the anchor and fix sigma.

    Halts at the first grid time whose boundary distance falls below margin,
    or at T. A drift evaluation failure during a stage rejects the step,
    retries once at half width, then halts conservatively at the last safe
    time. The returned grid may include one final point past sigma (the
    point that triggered the halt).
    """
    if R is None or T is None:
        R, T = compute_RT(spec)
    margin = 3.0 * math.exp(spec.L * T) * spec.lam
    steps = grid_steps(spec, T)
    h = T / steps
    f = spec.drift

    y = np.array(spec.y_hat, dtype=float)
    ts = [0.0]
    ys = [y.copy()]
    if spec.domain.boundary_distance((0.0, *y)) >= margin:
        for j in range(steps):
            t = j * h
            try:
                y_next = _rk4_step(f, t, y, h)
                t_next = (j + 1) * h
            except Exception:
                try:
                    y_next = _rk4_step(f, t, y, 0.5 * h)
                    t_next = t + 0.5 * h
                    ts.append(t_next)
                    ys.append(y_next)
                except Exception:
                    pass
                break
            ts.append(t_next)
            ys.append(y_next)
            y = y_next
            if spec.domain.boundary_distance((t_next, *y)) < margin:
                break

    ts_arr = np.array(ts)
    ys_arr = np.array(ys)
    sigma = compute_sigma(ts_arr, ys_arr, spec, margin)
    constants = Constants(R=R, T=T, sigma=sigma, margin=margin)
    return OdeSolution(spec=spec, ts=ts_arr, ys=ys_arr, constants=constants)


def compute_sigma(ts: np.ndarray, ys: np.ndarray, spec: ProcessSpec, margin: float) -> float:
    """Largest grid time whose whole prefix keeps boundary distance >= margin.

    Conservative: sigma is rounded down to the grid, which only narrows the
    range on which the envelope is claimed. Returns 0.0 when already the
    initial point sits within margin of the boundary (the guarantee is then
    vacuous). Distances are those of ``Domain.boundary_distance``, taken for
    all rows at once; ``np.fmin`` skips a NaN face distance as its builtin
    ``min`` does.
    """
    dom = spec.domain
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(len(ts), -1)
    dist = np.fmin(ts - dom.t_lo, dom.t_hi - ts)
    faces = np.fmin(ys - np.array(dom.lo), np.array(dom.hi) - ys)
    dist = np.fmin(dist, np.fmin.reduce(faces, axis=1, initial=math.inf))
    below = np.flatnonzero(dist < margin)
    stop = below[0] if len(below) else len(ts)
    return float(ts[stop - 1]) if stop else 0.0


def lambda_threshold(
    spec: ProcessSpec,
    R: float,
    T: float,
    gamma: float = 0.0,
    B: float = 0.0,
    x: float = 0.0,
) -> float:
    """Admissibility threshold delta*min(T, 1/L) + R/n, with truncation terms.

    With nonzero truncation parameters the threshold becomes
    (delta + gamma*B) * min(T, 1/L) + (R + x*B) / n. For L = 0 the minimum
    degenerates to T.
    """
    horizon = T if spec.L == 0 else min(T, 1.0 / spec.L)
    return (spec.delta + gamma * B) * horizon + (R + x * B) / spec.n


def check_lambda_admissible(
    spec: ProcessSpec,
    R: float,
    T: float,
    gamma: float = 0.0,
    B: float = 0.0,
    x: float = 0.0,
) -> bool:
    """True iff lambda >= the (possibly truncation-adjusted) threshold."""
    return spec.lam >= lambda_threshold(spec, R, T, gamma=gamma, B=B, x=x)


def range_check(
    sol: OdeSolution, bounds: list[tuple[float, float]], lam: float
) -> bool:
    """Check y_k(t) in [A_k - 3e^{LT}lam, B_k + 3e^{LT}lam] for all grid t <= sigma.

    Used to validate sigma choices built from box ranges; only meaningful in
    the small-lambda regime, so lam is capped at RANGE_CHECK_LAMBDA_CAP.
    """
    if lam > RANGE_CHECK_LAMBDA_CAP:
        raise ValueError(
            f"range_check requires lam <= {RANGE_CHECK_LAMBDA_CAP} (small-lambda regime)"
        )
    if len(bounds) != sol.ys.shape[1]:
        raise ValueError("one (A_k, B_k) interval per tracked coordinate required")
    tol = 3.0 * math.exp(sol.spec.L * sol.constants.T) * lam
    mask = sol.ts <= sol.constants.sigma
    for k, (a_k, b_k) in enumerate(bounds):
        vals = sol.ys[mask, k]
        if len(vals) and (vals.min() < a_k - tol or vals.max() > b_k + tol):
            return False
    return True
