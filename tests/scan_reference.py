"""Per-point reference for the ODE scans: one drift call per point.

These are the loops that ``compute_RT``, ``estimate_lipschitz_lower_bound``
and ``compute_sigma`` in ``demtrack.ode`` ran before they evaluated all
points at once, kept verbatim but for one rule added later: the RT scan
and the Lipschitz sampling raise at their first point where the drift is
not finite. Tests require the stacked scans to reproduce their results
exactly.

``boundary_distance`` is the one-point loop that ``Domain.boundary_distance``
ran before it became the one-point case of ``Domain.distance``, kept
verbatim: the geometry of these references and of ``ode_reference``, so
that neither shares the code it checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from demtrack.core import Domain, ProcessSpec
from demtrack.ode import RT_GRID_BUDGET, RT_GRID_RESOLUTION


def boundary_distance(dom: Domain, point: Sequence[float]) -> float:
    """Signed l-infinity distance of (t, y_1..y_a) to the box; -inf with a NaN coordinate."""
    if len(point) != dom.dim + 1:
        raise ValueError(
            f"point has dimension {len(point)}, domain needs {dom.dim + 1}"
        )
    if any(map(math.isnan, point)):
        return -math.inf
    t = point[0]
    d = min(t - dom.t_lo, dom.t_hi - t)
    for y, a, b in zip(point[1:], dom.lo, dom.hi):
        d = min(d, y - a, b - y)
    return d


def reference_compute_RT(spec: ProcessSpec) -> tuple[float, float]:
    dom = spec.domain
    T = dom.t_hi
    axes_lo = (dom.t_lo, *dom.lo)
    axes_hi = (dom.t_hi, *dom.hi)
    ndim = len(axes_lo)
    res = min(RT_GRID_RESOLUTION, max(4, int(RT_GRID_BUDGET ** (1.0 / ndim))))
    grids = [np.linspace(lo, hi, res) for lo, hi in zip(axes_lo, axes_hi)]
    mesh = max((hi - lo) / (res - 1) for lo, hi in zip(axes_lo, axes_hi))
    best = 0.0
    for point in np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, ndim):
        f = np.asarray(spec.drift(point[0], point[1:]), dtype=float)
        if not np.isfinite(f).all():
            t, *y = point.tolist()
            raise ValueError(f"drift is not finite at the RT scan point t={t!r}, y={y!r}")
        best = max(best, float(np.max(np.abs(f))))
    return max(1.0, best + spec.L * mesh), T


def reference_lipschitz(spec: ProcessSpec, samples: int = 256, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    dom = spec.domain
    lo = np.array((dom.t_lo, *dom.lo))
    hi = np.array((dom.t_hi, *dom.hi))
    best = 0.0
    for _ in range(samples):
        x = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        gap = float(np.max(np.abs(x - x2)))
        fx = np.asarray(spec.drift(x[0], x[1:]), dtype=float)
        fx2 = np.asarray(spec.drift(x2[0], x2[1:]), dtype=float)
        for point, f in ((x, fx), (x2, fx2)):
            if not np.isfinite(f).all():
                t, *y = point.tolist()
                raise ValueError(
                    f"drift is not finite at the Lipschitz sample point t={t!r}, y={y!r}"
                )
        if gap < 1e-12:
            continue
        best = max(best, float(np.max(np.abs(fx - fx2))) / gap)
    return best


def reference_sigma(ts, ys, spec: ProcessSpec, margin: float) -> float:
    sigma = 0.0
    for t, y in zip(ts, ys):
        if boundary_distance(spec.domain, (t, *y)) < margin:
            break
        sigma = float(t)
    return sigma
