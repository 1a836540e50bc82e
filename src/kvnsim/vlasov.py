"""Semi-Lagrangian solver for the self-consistent collisionless transport
equation on a phase-space grid.

One step is Strang-split (Cheng-Knorr structure): half-advect in q by
p dt/(2m), kick-advect in p by F dt with the force frozen from the
half-advected density, half-advect in q again.  Each advection traces the
characteristic backward and interpolates along one axis (cubic spline by
default, linear for positivity-critical runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .phase_space import DensityField, ProblemSpec, mean_field_force

__all__ = ["VlasovSettings", "CFLViolation", "vlasov_step", "vlasov_solve"]


class CFLViolation(ValueError):
    """Step rejected: the q-shift per step exceeds the domain length."""


@dataclass(frozen=True)
class VlasovSettings:
    dt: float
    interpolation: str = "cubic-spline"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.interpolation not in ("cubic-spline", "linear"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")


def _ppoly_eval_columns(pp, x: np.ndarray) -> np.ndarray:
    """Evaluate an axis-0 PPoly with coefficients (k, n_int, m) at per-column
    query points x of shape (n_eval, m)."""
    bp = pp.x
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
    dx = x - bp[idx]
    c = pp.c
    col = np.arange(x.shape[1])[None, :]
    out = c[0, idx, col]
    for k in range(1, c.shape[0]):
        out = out * dx + c[k, idx, col]
    return out


def _advect_columns(values: np.ndarray, nodes: np.ndarray, shifts: np.ndarray,
                    periodic: bool, length: float, kind: str) -> np.ndarray:
    """Backward-trace advection along axis 0 of ``values``.

    Column j is resampled at nodes - shifts[j]; traces leaving an open
    domain read zero (densities are assumed negligible near the boundary).
    """
    n, m = values.shape
    delta = nodes[1] - nodes[0]
    x = nodes[:, None] - shifts[None, :]
    col = np.arange(m)[None, :]
    if periodic:
        x0 = nodes[0]
        x = np.mod(x - x0, length) + x0
        if kind == "cubic-spline":
            ext_nodes = np.append(nodes, nodes[0] + length)
            ext_vals = np.vstack([values, values[:1]])
            pp = CubicSpline(ext_nodes, ext_vals, axis=0, bc_type="periodic")
            return _ppoly_eval_columns(pp, x)
        idx = np.clip(np.floor((x - x0) / delta).astype(int), 0, n - 1)
        frac = (x - (x0 + idx * delta)) / delta
        wrapped = np.vstack([values, values[:1]])
        return values[idx, col] * (1.0 - frac) + wrapped[idx + 1, col] * frac
    # open domain: pad with zero ghost nodes so inflow boundaries interpolate
    # toward genuine zeros instead of extrapolating (extrapolation pumps
    # tail noise exponentially under repeated sweeps)
    ng = 3
    lo = nodes[0] - 0.5 * delta
    hi = nodes[-1] + 0.5 * delta
    inside = (x >= lo) & (x <= hi)
    ext_nodes = np.concatenate([
        nodes[0] + delta * np.arange(-ng, 0), nodes, nodes[-1] + delta * np.arange(1, ng + 1)
    ])
    ext_vals = np.vstack([np.zeros((ng, m)), values, np.zeros((ng, m))])
    if kind == "cubic-spline":
        pp = CubicSpline(ext_nodes, ext_vals, axis=0, bc_type="not-a-knot")
        out = _ppoly_eval_columns(pp, x)
    else:
        xc = np.clip(x, ext_nodes[0], ext_nodes[-1])
        idx = np.clip(((xc - ext_nodes[0]) / delta).astype(int), 0, ext_nodes.size - 2)
        frac = (xc - (ext_nodes[0] + idx * delta)) / delta
        out = ext_vals[idx, col] * (1.0 - frac) + ext_vals[idx + 1, col] * frac
    return np.where(inside, out, 0.0)


def _advect_q(values: np.ndarray, grid, shifts: np.ndarray, kind: str) -> np.ndarray:
    """rho(q, p) <- rho(q - shift(p), p); one vectorized sweep over p-rows."""
    return _advect_columns(values, grid.q_centers, shifts,
                           grid.periodic_q, grid.q_length, kind)


def _advect_p(values: np.ndarray, grid, shifts: np.ndarray, kind: str) -> np.ndarray:
    """rho(q, p) <- rho(q, p - shift(q)); the p-axis is always open."""
    out = _advect_columns(values.T, grid.p_centers, shifts, False, 0.0, kind)
    return out.T


def _clip_negatives(values: np.ndarray, mass_before: float, cell_volume: float):
    """Zero out interpolation undershoot below the tolerated -1e-12 floor,
    then rescale so the clipping itself conserves mass.
    Returns (values, n_clipped)."""
    floor = DensityField.NEGATIVE_TOL
    bad = values < floor
    n_clipped = int(bad.sum())
    if n_clipped:
        values = np.where(bad, 0.0, values)
        mass_after = values.sum() * cell_volume
        if mass_after > 0 and mass_before > 0:
            values = np.maximum(values * (mass_before / mass_after), floor)
    return values, n_clipped


def vlasov_step(rho: DensityField, spec: ProblemSpec, settings: VlasovSettings) -> DensityField:
    """Advance the density by one Strang-split step of size dt."""
    grid = rho.grid
    m = spec.mass
    dt = settings.dt
    max_speed = max(abs(grid.p_min), abs(grid.p_max)) / m
    if dt * max_speed >= grid.q_length:
        raise CFLViolation(
            f"dt*max|p|/m = {dt * max_speed:g} exceeds the q-domain length "
            f"{grid.q_length:g}; reduce dt or enlarge the domain"
        )
    kind = settings.interpolation
    mass_before = float(rho.values.sum() * grid.cell_volume)

    q_shifts = grid.p_centers * (0.5 * dt / m)
    values = _advect_q(rho.values, grid, q_shifts, kind)

    half = rho.copy_with(np.maximum(values, 0.0), clip_count=0)
    force = mean_field_force(half, spec)
    values = _advect_p(values, grid, force * dt, kind)

    values = _advect_q(values, grid, q_shifts, kind)

    values, n_clipped = _clip_negatives(values, mass_before, grid.cell_volume)
    t = None if rho.time is None else rho.time + dt
    return rho.copy_with(values, clip_count=rho.clip_count + n_clipped, time=t)


def vlasov_solve(rho0: DensityField, T: float, spec: ProblemSpec, settings: VlasovSettings,
                 snapshot_times=None) -> list[DensityField]:
    """Repeated stepping to time T; snapshots at the nearest whole step.

    The momentum domain is a truncation of the real line, so initial data
    with more than 1e-8 of its mass in the outermost two p-rows is refused:
    the truncation would not be certifiably harmless.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    outer = rho0.values[:, :2].sum() + rho0.values[:, -2:].sum()
    total = rho0.values.sum()
    if total > 0 and outer / total > 1e-8:
        raise ValueError(
            f"{outer / total:.2e} of the initial mass sits in the outermost "
            "two p-rows (> 1e-8); enlarge the p-domain"
        )
    if snapshot_times is None:
        snapshot_times = [T]
    n_steps = int(round(T / settings.dt)) if T > 0 else 0
    snap_steps = [min(n_steps, max(0, int(round(t / settings.dt)))) for t in snapshot_times]

    rho = rho0 if rho0.time is not None else rho0.copy_with(rho0.values, time=0.0)
    snapshots: dict[int, DensityField] = {}
    if 0 in snap_steps:
        snapshots[0] = rho
    for k in range(1, n_steps + 1):
        rho = vlasov_step(rho, spec, settings)
        if k in snap_steps:
            snapshots[k] = rho
    return [snapshots[k] for k in snap_steps]
