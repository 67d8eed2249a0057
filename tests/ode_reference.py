"""Step-by-step reference for the RK4 driver: one anchor, one step at a time.

``reference_rk4_grid`` takes every step of the uniform grid and ends it at
``t1`` exactly; tests require the rows ``rk4_solve`` keeps inside a domain
to equal its rows byte for byte. ``reference_solve_ode`` is the loop of
``solve_ode`` one step at a time: the margin is checked with the scalar
``boundary_distance`` of ``scan_reference`` (the loop
``Domain.boundary_distance`` ran) after every step, and a step that raises
ends the grid at its last full row. Tests require ``rk4_solve`` to
reproduce its grids and constants byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from demtrack.core import Constants, ProcessSpec
from demtrack.ode import OdeSolution, compute_RT, compute_sigma, grid_steps
from scan_reference import boundary_distance


def reference_rk4_grid(f, y0: np.ndarray, t0: float, t1: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
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


def reference_solve_ode(spec: ProcessSpec, R: float | None = None, T: float | None = None) -> OdeSolution:
    if R is None or T is None:
        R, T = compute_RT(spec)
    margin = 3.0 * math.exp(spec.L * T) * spec.lam
    steps = grid_steps(spec, T)
    h = T / steps
    f = spec.drift

    y = np.array(spec.y_hat, dtype=float)
    ts = [0.0]
    ys = [y.copy()]
    if boundary_distance(spec.domain, (0.0, *y)) >= margin:
        for j in range(steps):
            t = j * h
            try:
                y_next = _rk4_step(f, t, y, h)
                t_next = (j + 1) * h
            except Exception:
                break
            ts.append(t_next)
            ys.append(y_next)
            y = y_next
            if boundary_distance(spec.domain, (t_next, *y)) < margin:
                break

    ts_arr = np.array(ts)
    ys_arr = np.array(ys)
    sigma = compute_sigma(ts_arr, ys_arr, spec, margin)
    constants = Constants(R=R, T=T, sigma=sigma, margin=margin)
    return OdeSolution(spec=spec, ts=ts_arr, ys=ys_arr, constants=constants)
