"""Characteristic flow map of the non-interacting dynamics.

The flow integrates xdot = V(x) with V(x) = (p/m, -grad U(q)) by velocity
Verlet (kick-drift-kick), which is symplectic and time-reversible: backward
flow is forward stepping with -dt.  Closed forms are available for the free
and harmonic potentials behind the ``exact_shortcut`` flag.  Points travel as
(n, 2) arrays of (q, p) rows, and every function returns one result per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import FreePotential, HarmonicPotential, ProblemSpec

__all__ = [
    "FlowSettings",
    "flow_map_points",
    "flow_jacobian",
    "group_property_residual",
    "flow_trajectory",
]


@dataclass(frozen=True)
class FlowSettings:
    dt: float = 1e-3
    exact_shortcut: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")


def _split_steps(t: float, dt: float) -> tuple[int, float, float]:
    """Decompose |t| into full steps of size dt plus a partial remainder."""
    sign = 1.0 if t >= 0 else -1.0
    at = abs(t)
    n_exact = at / dt
    if not np.isfinite(n_exact):
        raise ValueError(f"|t| / dt = {at:g} / {dt:g} is not a finite step count")
    n = int(round(n_exact))
    if abs(n_exact - n) < 1e-9:
        return n, 0.0, sign
    n = int(np.floor(n_exact))
    return n, at - n * dt, sign


def _require_finite(q: np.ndarray, p: np.ndarray, t: float, dt: float) -> None:
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError(f"the flow diverged: flowing over a time interval of {t:g} "
                         f"with dt {dt:g} gave non-finite points")


def _verlet_steps(q: np.ndarray, p: np.ndarray, n: int, dt: float, m: float, gradient):
    """n kick-drift-kick steps of mass m under gradient(q); an overflow raises ValueError."""
    if n <= 0:
        return q, p
    with np.errstate(over="ignore", invalid="ignore"):
        g = gradient(q)
        for _ in range(n):
            p = p - 0.5 * dt * g
            q = q + dt * p / m
            _require_finite(q, p, n * dt, dt)
            g = gradient(q)
            p = p - 0.5 * dt * g
    _require_finite(q, p, n * dt, dt)
    return q, p


def _exact_flow(q: np.ndarray, p: np.ndarray, t: float, spec: ProblemSpec):
    m = spec.mass
    if isinstance(spec.external, FreePotential):
        return q + p * (t / m), p.copy()
    w = spec.external.omega  # harmonic: flow_map_points takes this path for no other
    c, s = np.cos(w * t), np.sin(w * t)
    return q * c + p * (s / (m * w)), p * c - q * (m * w * s)


def _point_rows(points) -> np.ndarray:
    """An (n, 2) array of points as floats; every other shape raises."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array of (q, p), got shape {pts.shape}")
    return pts


def flow_map_points(points: np.ndarray, t: float, spec: ProblemSpec,
                    settings: FlowSettings) -> np.ndarray:
    """Flow an (n, 2) array of (q, p) points by a signed time t; shape (n, 2).

    |t| that is not a multiple of dt is handled by a final partial step;
    group-property tests should use aligned times, for which composed and
    direct step sequences are identical.  A flow that diverges (an overflow
    in the steps) raises ValueError naming t and dt, rather than returning
    non-finite points.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    pts = _point_rows(points)
    if not np.all(np.isfinite(pts)):
        raise ValueError("flows need finite points")
    q, p = pts.T
    if settings.exact_shortcut and isinstance(spec.external, (FreePotential, HarmonicPotential)):
        with np.errstate(over="ignore", invalid="ignore"):
            q, p = _exact_flow(q, p, t, spec)
        _require_finite(q, p, t, settings.dt)
    else:
        n, rem, sign = _split_steps(t, settings.dt)
        q, p = _verlet_steps(q, p, n, sign * settings.dt, spec.mass, spec.external_gradient)
        if rem > 0.0:
            q, p = _verlet_steps(q, p, 1, sign * rem, spec.mass, spec.external_gradient)
    return np.column_stack([q, p])


def flow_jacobian(points: np.ndarray, t: float, spec: ProblemSpec, settings: FlowSettings,
                  h: float = 1e-5) -> np.ndarray:
    """Central finite-difference Jacobians D Phi_t(x), shape (n, 2, 2), at the
    rows x = (q, p) of an (n, 2) array of points, all probes flowed at once."""
    if not h > 0:
        raise ValueError("fd step h must be > 0")
    pts = _point_rows(points)
    probes = np.concatenate([pts + [h, 0], pts - [h, 0], pts + [0, h], pts - [0, h]])
    flowed = flow_map_points(probes, t, spec, settings).reshape(4, len(pts), 2)
    return np.stack([flowed[0] - flowed[1], flowed[2] - flowed[3]], axis=-1) / (2 * h)


def group_property_residual(points: np.ndarray, s: float, t: float, spec: ProblemSpec,
                            settings: FlowSettings) -> np.ndarray:
    """|| Phi_t(Phi_s(x)) - Phi_{t+s}(x) ||_2, shape (n,), at the rows x = (q, p)
    of an (n, 2) array of points."""
    composed = flow_map_points(flow_map_points(points, s, spec, settings), t, spec, settings)
    direct = flow_map_points(points, t + s, spec, settings)
    return np.linalg.norm(composed - direct, axis=1)


def flow_trajectory(points: np.ndarray, times: np.ndarray, spec: ProblemSpec,
                    settings: FlowSettings) -> np.ndarray:
    """Trajectories of an (n, 2) array of points through increasing times >= 0;
    shape (n_times, n, 2).

    Each interval is integrated by continuing from the previous snapshot, so
    aligned times reproduce a single uninterrupted step sequence.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be nondecreasing and nonnegative")
    pts = _point_rows(points)
    out = np.empty((times.size, *pts.shape))
    for i, step in enumerate(np.diff(times, prepend=0.0)):
        out[i] = pts = flow_map_points(pts, step, spec, settings)
    return out
