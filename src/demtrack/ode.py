"""Fixed-step RK4 engine for the limiting ODE system, with margin-aware halting.

The solver integrates y'_k = F_k(t, y) from the anchor until either the time
horizon T or the first grid point whose l-infinity boundary distance drops
below margin = 3*exp(L*T)*lambda. Fixed steps keep the sigma rounding
deterministic; the drift is Lipschitz and bounded on a box, so stiffness is
not a concern.

F is evaluated over points by ``drift_at`` only, and y by
``OdeSolution.values_at``. One rule, ``_as_point``, reads a single-point
output of F, in the scans, the trend check and each RK4 stage: in the
point's shape (a,) as a grid write reads it, so (1, a) or, for a = 1, a
float is taken, and (a + 1,) raises ValueError. A stacked output counts
only with the points' exact shape (``_stacked_drift``).

One driver, ``rk4_solve``, integrates all K anchors of a run together: as
one (K, a) state through the stacked-field contract of ``ProcessSpec``, or,
for a field that fails ``_stacked_drift``'s check, one anchor at a time (a
single anchor is always a plain (a,) point at a float time, so a field that
returns (1, a) for a point still gets (a,) points). It writes into a
preallocated grid and checks the margin once per ``_RK4_BLOCK`` steps, with
``compute_sigma``'s vectorised distance rule; each anchor halts at its own
first row below the margin, which it keeps. A row with a NaN or infinite
entry is at distance -inf, so an anchor halts at its first non-finite row
too. A block that raises is redone anchor by anchor, step by step: an anchor
whose step raises halts at its last full row, so every grid is a prefix of
t0 + h*arange(steps + 1). The grids equal those of stepping each anchor
alone and checking the margin after every step, bit for bit. Every array state, stacked or a single
anchor, is stepped by one stage loop, ``_rk4_arrays``, which writes the
stage inputs and the k-combination into buffers allocated once per block
and the stacked times into one reused (K,) array. An anchor stepped alone
whose state has one coordinate is stepped on Python floats
(``_rk4_floats``): the same IEEE-754 double operations in the same order,
without numpy's per-call cost, so its grid is bit for bit the same. The
driver passes the same ``t`` array and stage buffers again with new
values, so a field must neither write to nor keep its ``t`` or ``y``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Constants, Domain, ProcessSpec

RT_GRID_RESOLUTION = 64       # per-axis grid points for the sup |F_k| scan
RT_GRID_BUDGET = 64 ** 3      # total scan points in higher dimensions, up to a = 8
RT_SCAN_CHUNK = 2 ** 15       # scan points per drift call; bounds the scan's memory
MIN_GRID_STEPS = 2048
MAX_GRID_STEPS = 2 ** 20
_RK4_BLOCK = 64               # RK4 steps between two margin checks of the driver
RANGE_CHECK_LAMBDA_CAP = 0.01  # concrete proxy for the lambda = o(1) regime


@dataclass(frozen=True)
class OdeSolution:
    """Dense numerical solution on [0, sigma] (grid may extend one point past).

    Values between grid points are linearly interpolated (``values_at``);
    the interpolation error on an interval of width h is at most
    (R + L*max|y|) * h. Every grid point strictly before sigma keeps boundary
    distance >= margin. RK4 read F's outputs in the point's shape (a,).
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
        """Interpolated solution vector at time t within the grid range (not NaN)."""
        if not self.ts[0] <= t <= self.ts[-1]:
            raise ValueError(f"t={t} outside solved range [{self.ts[0]}, {self.ts[-1]}]")
        return self.values_at([t])[0]

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Interpolated values at ``times`` (not empty), shape (len(times), a).

        ``np.interp`` copies the read-only grid it gets, so it gets only the
        rows from the last at or before min(times) to the first at or after
        max(times), NaN left out, and one more row on each side (on one row
        it reads NaN as that row). It interpolates each time on its own grid
        interval, so the values equal the whole grid's bit for bit.
        """
        times = np.asarray(times, dtype=float)
        lo = max(int(np.searchsorted(self.ts, np.fmin.reduce(times), side="right")) - 2, 0)
        hi = int(np.searchsorted(self.ts, np.fmax.reduce(times))) + 2
        out = np.empty((len(times), self.ys.shape[1]))
        for k in range(self.ys.shape[1]):
            out[:, k] = np.interp(times, self.ts[lo:hi], self.ys[lo:hi, k])
        return out

    def counts_at_steps(self, upto: int, start: int = 0) -> np.ndarray:
        """n * y_k(i/n) for i = start..upto, shape (upto - start + 1, a); row i
        is the same, bit for bit, whatever ``start`` is."""
        n = self.spec.n
        return self.values_at(np.arange(start, upto + 1) / n) * n


def _stacked_drift(field, ts: np.ndarray, ys: np.ndarray) -> np.ndarray | None:
    """``field(ts, ys)`` if it has the shape of ``ys`` and its first, middle and
    last rows equal the single-point calls exactly (NaN equal to NaN), else None.
    """
    count = len(ys)
    try:
        out = np.asarray(field(ts, ys), dtype=float)
        if out.shape == ys.shape and all(
            np.array_equal(out[r], np.asarray(field(ts[r], ys[r]), dtype=float), equal_nan=True)
            for r in sorted({0, count // 2, count - 1})
        ):
            return out
    except Exception:
        pass
    return None


def drift_at(field, points: np.ndarray, what: str | None = None) -> np.ndarray:
    """``field(t, y)`` at every row (t, y_1..y_a) of ``points``, shape (N, a).

    Makes one call on the stacked points and keeps its result when
    ``_stacked_drift`` does; otherwise calls the field once per point and
    reads each output with ``_as_point``. An exception of those calls
    propagates, unless the points are a ``what`` ("RT scan point"): then a
    ValueError, chained from it, names the first point that raises or, if
    none does, the first where the field is not finite.
    """
    out = _stacked_drift(field, points[:, 0], points[:, 1:])
    if out is None:
        out = np.empty((len(points), points.shape[1] - 1))
        for r, p in enumerate(points):
            try:
                out[r] = _as_point(field(p[0], p[1:]), p[1:])
            except Exception as exc:
                if what is None:
                    raise
                t, *y = p.tolist()
                raise ValueError(f"drift raised {exc!r} at the {what} t={t!r}, y={y!r}") from exc
    if what is not None and not np.isfinite(out).all():
        t, *y = points[np.isfinite(out).all(axis=1).argmin()].tolist()
        raise ValueError(f"drift is not finite at the {what} t={t!r}, y={y!r}")
    return out


def _as_point(out, y: np.ndarray) -> np.ndarray:
    """A field's output at ``y`` read in ``y``'s shape, as a grid write reads
    it: a (1, a) output for an (a,) point is that point's derivative, and an
    output the shape cannot take, such as (a + 1,), raises ValueError here."""
    k = np.asarray(out, dtype=float)
    if k.shape == y.shape:
        return k
    point = np.empty(y.shape)
    point[...] = k
    return point


def compute_RT(spec: ProcessSpec) -> tuple[float, float]:
    """Drift bound R and time horizon T for the spec's domain.

    T is the domain's upper time endpoint. R is the maximum of 1 and the
    grid supremum of max_k |F_k| over the closed box, inflated by L times
    the grid mesh so that the Lipschitz property makes the bound rigorous.
    The scan uses RT_GRID_RESOLUTION points per axis, reduced in higher
    dimensions towards RT_GRID_BUDGET in total but never below 4, so from
    a = 9 on it takes 4**(a + 1) points (1,048,576 at a = 9, 16.8M at
    a = 11). A coarser mesh is compensated by a larger inflation, so R
    stays a valid upper bound.
    A scan point where the field raises, or some F_k is NaN or infinite,
    leaves no usable R: that raises ValueError naming the first point that
    raises or, if none does, the first that is not finite.

    The points are taken in row-major grid order, one slab per drift call:
    a slab is the tensor grid of the trailing axes (the most that make at
    most RT_SCAN_CHUNK points, and at least the last) after one point of
    the outer axes' grid. So a call holds at most max(RT_SCAN_CHUNK, points
    per axis) points. The slab is built once, in one buffer whose head
    columns each outer point overwrites.
    """
    dom = spec.domain
    T = dom.t_hi
    axes_lo = (dom.t_lo, *dom.lo)
    axes_hi = (dom.t_hi, *dom.hi)
    ndim = len(axes_lo)
    res = min(RT_GRID_RESOLUTION, max(4, int(RT_GRID_BUDGET ** (1.0 / ndim))))
    grids = [np.linspace(lo, hi, res) for lo, hi in zip(axes_lo, axes_hi)]
    mesh = max((hi - lo) / (res - 1) for lo, hi in zip(axes_lo, axes_hi))
    outer = ndim - 1  # the trailing axes grids[outer:] make one slab
    while outer > 0 and res ** (ndim - outer + 1) <= RT_SCAN_CHUNK:
        outer -= 1
    slab = _tensor_grid(grids[outer:])
    points = np.empty((len(slab), ndim))
    points[:, outer:] = slab
    best = 0.0
    for head in _tensor_grid(grids[:outer]):
        points[:, :outer] = head
        f = drift_at(spec.drift, points, "RT scan point")
        best = max(best, float(np.abs(f).max()))
    return max(1.0, best + spec.L * mesh), T


def _tensor_grid(axes: list[np.ndarray]) -> np.ndarray:
    """The points of the tensor grid of ``axes`` in row-major order, shape
    (product of their lengths, len(axes)); one empty point for no axes."""
    out = np.empty((math.prod(map(len, axes)), len(axes)))
    for k, g in enumerate(np.meshgrid(*axes, indexing="ij")):
        out[:, k] = g.ravel()
    return out


def estimate_lipschitz_lower_bound(spec: ProcessSpec, samples: int = 256, seed: int = 0) -> float:
    """Lower bound on the true Lipschitz constant from sampled differences.

    Draws random point pairs in the closed box and maximizes
    max_k |F_k(x) - F_k(x')| / |x - x'|_inf. The supplied spec.L is never
    replaced; this is a diagnostic, and a warning is emitted when the
    estimate exceeds it (the supplied constant is then certainly too small).
    A sample point where the field raises, or some F_k is NaN or infinite,
    bounds nothing: that raises ValueError naming the first point that raises
    or, if none does, the first that is not finite, in sampling order.
    """
    rng = np.random.default_rng(seed)
    dom = spec.domain
    lo = np.array((dom.t_lo, *dom.lo))
    hi = np.array((dom.t_hi, *dom.hi))
    pairs = rng.uniform(lo, hi, size=(samples, 2, len(lo)))
    gaps = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
    points = pairs.reshape(2 * samples, len(lo))
    f = drift_at(spec.drift, points, "Lipschitz sample point").reshape(samples, 2, -1)
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


def rk4_solve(
    f, y0s, t0: float, t1: float, steps: int, domain: Domain, margin: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """RK4 from every row of ``y0s`` on the grid t0 + j*h, h = (t1 - t0)/steps.

    Returns one (ts, ys) pair per row. Each keeps its rows up to the first
    whose boundary distance in ``domain`` is below ``margin`` (the initial
    row included; a non-finite row is at distance -inf), and an anchor whose
    step raises halts at its last full row. So each ts is a prefix of
    t0 + h*arange(steps + 1).
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    y0s = np.asarray(y0s, dtype=float)
    h = (t1 - t0) / steps
    ts = t0 + h * np.arange(steps + 1)
    grid = np.empty((len(y0s), steps + 1, y0s.shape[1]))
    grid[:, 0] = y0s
    ends = np.ones(len(y0s), dtype=int)  # rows kept per anchor

    def advance(rows, j0, j1):
        # one anchor's index (a float time, a point of shape (a,), Python floats
        # for a = 1) or an index array (stacked)
        if np.ndim(rows) == 0 and grid.shape[2] == 1:
            return _rk4_floats(f, grid[rows, :, 0], t0, h, j0, j1)
        _rk4_arrays(f, grid, rows, t0, h, j0, j1)

    def below(rows, j0, j1):
        return domain.distance(ts[j0:j1], grid[rows, j0:j1]) < margin

    def stepwise(k, j0, j1):
        # steps j0..j1-1 of anchor k one at a time; False once it halts
        for j in range(j0, j1):
            try:
                advance(k, j, j + 1)
            except Exception:
                return False  # ends[k] already counts the rows before step j
            ends[k] = j + 2
            if below([k], j + 1, j + 2)[0, 0]:
                return False
        return True

    live = np.flatnonzero(~below(np.arange(len(y0s)), 0, 1)[:, 0])
    stacked = len(live) > 1 and _stacked_drift(f, np.full(len(live), t0), y0s[live]) is not None
    for rows in [live] if stacked else live[:, None]:
        for j0 in range(0, steps, _RK4_BLOCK):
            j1 = min(j0 + _RK4_BLOCK, steps)
            try:
                advance(rows if stacked else rows[0], j0, j1)
            except Exception:
                rows = np.array([k for k in rows if stepwise(k, j0, j1)], dtype=int)
            else:
                hit = below(rows, j0 + 1, j1 + 1)
                stop = hit.any(axis=1)
                ends[rows] = np.where(stop, j0 + 2 + hit.argmax(axis=1), j1 + 1)
                rows = rows[~stop]
            if not len(rows):
                break
    return [(ts[:end].copy(), grid[k, :end].copy()) for k, end in enumerate(ends)]


def _rk4_arrays(f, grid, rows, t0: float, h: float, j0: int, j1: int) -> None:
    """Steps j0..j1-1 of the anchors ``rows`` of ``grid``: an index array, one
    (K, a) state at (K,) times, or one index, an (a,) point at a float time.

    Each step takes the IEEE operations of classical RK4 in this order:
    stage inputs y + (0.5*h)*k1, y + (0.5*h)*k2 and y + h*k3, and the new
    row y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4). They are written
    into buffers allocated once for the block, with the scalar factors as
    0-d float64 arrays, which numpy multiplies faster than Python floats to
    the same doubles; stacked times go in one (K,) array, filled anew for
    each stage. A float64 output of the point's shape is used as it is, any
    other is read through ``_as_point``. Each output is used up before the
    stage input it may be is overwritten. The block's rows are written to
    ``grid`` at its end, in one assignment; a block that raises writes none,
    and the driver redoes it step by step from its first row.
    """
    start = grid[rows, j0]
    shape = start.shape
    block = np.empty((j1 - j0 + 1, *shape))  # block[i]: the row of step j0 + i
    block[0] = start
    point, acc, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    times = np.empty(shape[:-1]) if len(shape) > 1 else None
    ndarray, f64, mul, add = np.ndarray, np.dtype(float), np.multiply, np.add
    dt_half = 0.5 * h
    half, full, sixth, two = map(np.array, (dt_half, h, h / 6.0, 2.0))

    def stage(t, y):
        if times is not None:
            times.fill(t)
            t = times
        r = f(t, y)
        return r if type(r) is ndarray and r.dtype == f64 and r.shape == shape else _as_point(r, y)

    for i, j in enumerate(range(j0, j1)):
        t = t0 + j * h
        t_half = t + dt_half
        y = block[i]
        k1 = stage(t, y)
        add(y, mul(half, k1, tmp), point)
        k = stage(t_half, point)
        add(k1, mul(two, k, tmp), acc)
        add(y, mul(half, k, tmp), point)
        k = stage(t_half, point)
        add(acc, mul(two, k, tmp), acc)
        add(y, mul(full, k, tmp), point)
        k = stage(t + h, point)
        add(acc, k, acc)
        add(y, mul(sixth, acc, acc), block[i + 1])
    grid[rows, j0 + 1 : j1 + 1] = block[1:].swapaxes(0, 1) if np.ndim(rows) else block[1:]


def _rk4_floats(f, col: np.ndarray, t0: float, h: float, j0: int, j1: int) -> None:
    """``_rk4_arrays`` for steps j0..j1-1 of a one-coordinate anchor, on Python
    floats: the same IEEE operations in the same order, the new rows written
    to ``col`` at the end. The field gets a float ``t`` and one reused
    ``(1,)`` array; a float64 array result is read with ``.item()``, any
    other through ``_as_point``.
    """
    point = np.empty(1)
    ndarray, f64 = np.ndarray, np.dtype(float)
    half, sixth = 0.5 * h, h / 6.0
    y = col[j0].item()
    ys = []
    for j in range(j0, j1):
        t = t0 + j * h
        t_half = t + half
        point[0] = y
        r = f(t, point)
        k1 = r.item() if type(r) is ndarray and r.dtype == f64 else _as_point(r, point).item()
        point[0] = y + half * k1
        r = f(t_half, point)
        k2 = r.item() if type(r) is ndarray and r.dtype == f64 else _as_point(r, point).item()
        point[0] = y + half * k2
        r = f(t_half, point)
        k3 = r.item() if type(r) is ndarray and r.dtype == f64 else _as_point(r, point).item()
        point[0] = y + h * k3
        r = f(t + h, point)
        k4 = r.item() if type(r) is ndarray and r.dtype == f64 else _as_point(r, point).item()
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    col[j0 + 1 : j1 + 1] = ys


def grid_steps(spec: ProcessSpec, T: float) -> int:
    """Fixed step count: max(MIN_GRID_STEPS, ceil(T*n)) capped at MAX_GRID_STEPS."""
    return max(MIN_GRID_STEPS, min(math.ceil(T * spec.n), MAX_GRID_STEPS))


def _margin(L: float, T: float, lam: float) -> float:
    return 3.0 * math.exp(L * T) * lam


def anchor_grids(specs: list[ProcessSpec], T: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """``solve_ode``'s (ts, ys) grid of each spec, all from one driver run.

    The specs must differ in ``y_hat`` only, as a multi-anchor run's do.
    """
    s = specs[0]
    y0s = [spec.y_hat for spec in specs]
    return rk4_solve(s.drift, y0s, 0.0, T, grid_steps(s, T), s.domain, _margin(s.L, T, s.lam))


def solve_ode(
    spec: ProcessSpec,
    R: float | None = None,
    T: float | None = None,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> OdeSolution:
    """Integrate the limiting system from the anchor and fix sigma.

    The grid halts as ``rk4_solve`` says: at the first grid time whose
    boundary distance falls below margin or whose point is not finite, at
    T, or at the last full row before a step that raises. It may include
    one final point past sigma (the point that triggered the halt).
    ``grid`` is this spec's entry of ``anchor_grids``, when it was solved
    together with other anchors.
    """
    if R is None or T is None:
        R, T = compute_RT(spec)
    ts, ys = anchor_grids([spec], T)[0] if grid is None else grid
    margin = _margin(spec.L, T, spec.lam)
    sigma = compute_sigma(ts, ys, spec, margin)
    constants = Constants(R=R, T=T, sigma=sigma, margin=margin)
    return OdeSolution(spec=spec, ts=ts, ys=ys, constants=constants)


def compute_sigma(ts: np.ndarray, ys: np.ndarray, spec: ProcessSpec, margin: float) -> float:
    """Largest grid time whose whole prefix keeps boundary distance >= margin.

    Conservative: sigma is rounded down to the grid, which only narrows the
    range on which the envelope is claimed. Returns 0.0 when already the
    initial point sits within margin of the boundary (the guarantee is then
    vacuous). Distances are those of ``Domain.distance``.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(len(ts), -1)
    below = np.flatnonzero(spec.domain.distance(ts, ys) < margin)
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
    tol = _margin(sol.spec.L, sol.constants.T, lam)
    mask = sol.ts <= sol.constants.sigma
    for k, (a_k, b_k) in enumerate(bounds):
        vals = sol.ys[mask, k]
        if len(vals) and (vals.min() < a_k - tol or vals.max() > b_k + tol):
            return False
    return True
