"""Semi-Lagrangian solver for the self-consistent collisionless transport
equation on a phase-space grid.

One step is Strang-split (Cheng-Knorr structure): half-drift in q by
p dt/(2m), kick in p by F dt with the force frozen from the half-drifted
density, half-drift in q again.  Between snapshots the trailing half-drift
of one step and the leading one of the next are fused into one full drift,
so n steps make n + 1 q-drifts and n p-kicks (Cheng & Knorr, J. Comput.
Phys. 22, 1976); undershoot is clipped once per step, after each fused full
drift and after the final half-drift.  Each sweep traces the characteristic
backward and interpolates along one axis (cubic B-spline by default, linear
for positivity-critical runs).  The shift is constant along every column of
a sweep, so interpolation is a fixed stencil per column: 2 linear taps, or 4
cubic B-spline taps applied to prefiltered coefficients (Sonnendrücker et
al., J. Comput. Phys. 149, 1999).  On an open column that is a window into
the column's coefficients with zero ghost rows at both ends.  The cubic
prefilter there is the banded operator 6 tridiag(1, 4, 1)^-1, whose entries
decay like (2 - sqrt(3))^|i-j| (Demko, Moss & Smith, Math. Comp. 43, 1984):
cached once per column length, it is applied by one matrix product per tile
of 64 coefficient rows, each reading the data rows within 32 of the tile.
On a periodic column the window and the prefilter are circulant, so the
sweep is one rfft/irfft pair through a transfer function (Unser, Aldroubi &
Eden, IEEE Trans. Signal Process. 41, 1993).  The q-drift's shifts are
fixed for a solve, so its transfer function or open stencil plan is built
once per solve; a p-kick plans its stencil from the force of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_space import DensityField, PhaseGrid, ProblemSpec, mean_field_force

__all__ = ["VlasovSettings", "CFLViolation", "vlasov_step", "vlasov_solve"]


class CFLViolation(ValueError):
    """Step rejected: the q- or p-shift per step exceeds the domain length."""


@dataclass(frozen=True)
class VlasovSettings:
    dt: float
    interpolation: str = "cubic-spline"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        if self.interpolation not in ("cubic-spline", "linear"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")


_GHOST = 3  # zero ghost rows padded onto each end of an open column
_TILE = 64  # coefficient rows per product of the banded prefilter
_HALO = 32  # data rows a tile reads past its ends: (2 - sqrt(3))^33 < 2e-19


@lru_cache(maxsize=16)
def _thomas_pivots(n: int) -> tuple[float, ...]:
    """Reciprocal pivots r of the LU factorization of tridiag(1, 4, 1) of order n:
    r[0] = 1/4, r[i] = 1 / (4 - r[i-1])."""
    r = [0.25]
    for _ in range(n - 1):
        r.append(1.0 / (4.0 - r[-1]))
    return tuple(r)


def _thomas_solve(values: np.ndarray) -> None:
    """Overwrite every column of values with its cubic B-spline coefficients c:
    (c[i-1] + 4 c[i] + c[i+1]) / 6 = values[i], with c zero past the ends of
    the column.

    Solves tridiag(1, 4, 1) c = 6 values by the Thomas sweep (Golub & Van
    Loan, Matrix Computations, 4.3), stable without pivoting because the
    matrix is strictly diagonally dominant.  The sweeps run in place over row
    views, vectorized over the columns: a Python loop over the rows, so it
    runs only on the unit columns of `_prefilter_tiles`, once per length.
    """
    r = _thomas_pivots(values.shape[0])
    np.multiply(values, 6.0, out=values)
    rows = list(values)
    np.multiply(rows[0], r[0], out=rows[0])
    for prev, row, ri in zip(rows, rows[1:], r[1:]):  # forward: L y = 6 values
        np.subtract(row, prev, out=row)
        np.multiply(row, ri, out=row)
    scratch = np.empty(values.shape[1:])
    for row, nxt, ri in zip(rows[-2::-1], rows[:0:-1], r[-2::-1]):  # back: U c = y
        np.multiply(nxt, ri, out=scratch)
        np.subtract(row, scratch, out=row)


@lru_cache(maxsize=8)
def _prefilter_tiles(n: int) -> tuple:
    """The banded prefilter of an open column of n data rows, in tiles
    (r0, r1, d0, d1, block): coefficient rows r0:r1 of the column padded
    with _GHOST zero rows at each end are block.T @ values[d0:d1].

    The padded column's coefficients are P values with P = 6 A^-1
    restricted to the data rows, A = tridiag(1, 4, 1) of order n + 2 _GHOST.
    The entries of A^-1 decay like (2 - sqrt(3))^|r - d| (Demko, Moss &
    Smith, Math. Comp. 43, 1984), so a tile of _TILE rows reads only the
    data rows within _HALO of its ends, leaving out less than 4e-19 of the
    largest coefficient.  Each block = P[r0:r1, d0:d1].T comes from the
    Thomas sweep of the tile's unit columns, so the cache grows linearly in
    n, and a dense inverse (whose far entries are denormal) never forms.
    """
    rows = n + 2 * _GHOST
    tiles = []
    for r0 in range(0, rows, _TILE):
        r1 = min(r0 + _TILE, rows)
        d0, d1 = max(r0 - _GHOST - _HALO, 0), min(r1 - _GHOST + _HALO, n)
        unit = np.zeros((rows, d1 - d0))
        unit[np.arange(_GHOST + d0, _GHOST + d1), np.arange(d1 - d0)] = 1.0
        _thomas_solve(unit)
        block = np.ascontiguousarray(unit[r0:r1].T)
        block.flags.writeable = False  # the cache hands the same block to every sweep
        tiles.append((r0, r1, d0, d1, block))
    return tuple(tiles)


def _bspline_prefilter(values: np.ndarray, out: np.ndarray) -> None:
    """Write the cubic B-spline coefficients of every column of values (n
    rows, either memory layout), padded with _GHOST zero rows at each end,
    into the rows of out, shape (m, n + 2 _GHOST): one matrix product per
    tile of the banded operator `_prefilter_tiles`, reading the data rows in
    place."""
    for r0, r1, d0, d1, block in _prefilter_tiles(values.shape[0]):
        np.matmul(values[d0:d1].T, block, out=out[:, r0:r1])


def _stencil(s: np.ndarray, cubic: bool):
    """Window start and tap weights of a backward trace by s[j] cells: row i
    of column j reads sum_t weights[t][j] c[i + start[j] + t] of the column's
    coefficients c (the values when linear, the B-spline coefficients when
    cubic)."""
    k = np.floor(s)
    u = 1.0 - (s - k)
    start = -1 - k.astype(np.int64)
    if not cubic:
        return start, (1.0 - u, u)
    v = 1.0 - u
    return start - 1, (v ** 3 / 6.0, (4.0 - 6.0 * u ** 2 + 3.0 * u ** 3) / 6.0,
                       (4.0 - 6.0 * v ** 2 + 3.0 * v ** 3) / 6.0, u ** 3 / 6.0)


class _OpenPlan(NamedTuple):
    """The stencil of an open sweep by fixed shifts, from `_open_plan`."""
    cubic: bool
    start: np.ndarray  # window start of each column in its coefficient row
    weights: np.ndarray  # tap weights, shape (m, taps, 1)
    lead: int  # zero coefficients before the ghost-padded column
    trail: int  # zero coefficients after it
    edge: np.ndarray  # columns that trace outside the domain
    keep: np.ndarray  # which rows of those columns trace inside it


def _open_plan(n: int, delta: float, shifts: np.ndarray, cubic: bool) -> _OpenPlan:
    """The plan of the backward trace along an open axis of n rows: column j
    is resampled at rows i - shifts[j] / delta.

    A window that reaches past the ghost-padded column reads zero margins
    (`lead` before it, `trail` after it); only rows tracing more than half a
    cell outside the domain read them, and those rows are set to zero
    through `edge` and `keep`.
    """
    s = shifts / delta
    start, weights = _stencil(s, cubic)
    start = start + _GHOST
    lead = max(0, -int(start.min()))
    trail = max(0, int(start.max()) + len(weights) - 1 - 2 * _GHOST)
    edge = np.flatnonzero(np.abs(s) > 0.5)
    x = np.arange(n) - s[edge, None]
    return _OpenPlan(cubic, start + lead, np.stack(weights, axis=1)[:, :, None], lead, trail,
                     edge, (x >= -0.5) & (x <= n - 0.5))


def _advect_columns(values: np.ndarray, plan: _OpenPlan) -> np.ndarray:
    """The open sweep of `plan` along axis 0 of values (either memory layout).

    Column j of values, padded with zero ghost rows, becomes row j of the
    coefficient array, so every window is contiguous.  Cubic coefficients
    come from the banded prefilter (`_prefilter_tiles`), one matrix product
    per tile.  The zero ghost rows make inflow interpolate toward genuine
    zeros instead of extrapolating (extrapolation pumps tail noise
    exponentially under repeated sweeps); traces more than half a cell
    outside the domain read zero.
    """
    n, m = values.shape
    lead, rows = plan.lead, n + 2 * _GHOST
    if plan.cubic:
        coef = np.empty((m, lead + rows + plan.trail))
        coef[:, :lead] = 0.0
        coef[:, lead + rows:] = 0.0
        _bspline_prefilter(values, coef[:, lead:lead + rows])
    else:
        coef = np.zeros((m, lead + rows + plan.trail))
        coef[:, lead + _GHOST:lead + _GHOST + n] = values.T
    taps = plan.weights.shape[1]
    window = sliding_window_view(coef, n + taps - 1, axis=1)[np.arange(m), plan.start]
    out = np.matmul(sliding_window_view(window, taps, axis=1), plan.weights)[:, :, 0]
    if plan.edge.size:
        out[plan.edge] = np.where(plan.keep, out[plan.edge], 0.0)
    return out.T


def _shift_transfer(n: int, delta: float, shifts: np.ndarray, cubic: bool) -> np.ndarray:
    """Transfer function H, shape (n//2 + 1, len(shifts)), of the periodic
    backward trace by shifts[j] / delta cells.

    On a periodic column the stencil window and the prefilter are circulant,
    so the sweep is one multiply in Fourier space (Unser, Aldroubi & Eden,
    IEEE Trans. Signal Process. 41, 1993): H[f, j] = sum_t weights[t][j]
    exp(i theta_f (start[j] + t)) / beta(theta_f), theta_f = 2 pi f / n, with
    beta = (4 + 2 cos theta) / 6 the B-spline symbol when cubic and 1 when
    linear.  Phases are reduced modulo n in integers, so shifts of many cells
    lose no accuracy.
    """
    start, weights = _stencil(shifts / delta, cubic)
    roots = np.exp(2j * np.pi / n * np.arange(n))  # exp(i theta_1 r), r = 0 .. n-1
    f = np.arange(n // 2 + 1)
    transfer = sum(np.outer(roots[f * t % n], w) for t, w in enumerate(weights))
    transfer *= roots[np.outer(f, start) % n]
    if cubic:
        transfer /= ((4.0 + 2.0 * roots[f].real) / 6.0)[:, None]
    return transfer


def _drift_periodic(values: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """The periodic sweep along axis 0 whose transfer function is `transfer`."""
    n = values.shape[0]
    return np.fft.irfft(np.fft.rfft(values, axis=0) * transfer, n=n, axis=0)


def _clip_negatives(values: np.ndarray):
    """Zero out interpolation undershoot below the tolerated -1e-12 floor,
    then rescale to the sum the values had before clipping, so the clipping
    itself conserves mass and mass that left through an open boundary during
    the step stays out.  Returns (values, n_clipped)."""
    floor = DensityField.NEGATIVE_TOL
    bad = values < floor
    n_clipped = int(bad.sum())
    if n_clipped:
        total_before = values.sum()
        values = np.where(bad, 0.0, values)
        total_after = values.sum()
        if total_after > 0 and total_before > 0:
            values = np.maximum(values * (total_before / total_after), floor)
    return values, n_clipped


def _q_drifts(grid: PhaseGrid, spec: ProblemSpec, settings: VlasovSettings):
    """The half (dt/2) and full (dt) q-drifts, q -> q + p dt / m, as functions
    of the values; a periodic drift's transfer function or an open drift's
    stencil plan is built here, once.
    Raises CFLViolation when the full drift exceeds the q-domain length."""
    dt, mass = settings.dt, spec.mass
    cubic = settings.interpolation == "cubic-spline"
    max_speed = max(abs(grid.p_min), abs(grid.p_max)) / mass
    if dt * max_speed >= grid.q_length:
        raise CFLViolation(
            f"dt*max|p|/m = {dt * max_speed:g} exceeds the q-domain length "
            f"{grid.q_length:g}; reduce dt or enlarge the domain"
        )

    def drift(shifts):
        if grid.periodic_q:
            transfer = _shift_transfer(grid.n_q, grid.dq, shifts, cubic)
            return lambda values: _drift_periodic(values, transfer)
        plan = _open_plan(grid.n_q, grid.dq, shifts, cubic)
        return lambda values: _advect_columns(values, plan)

    return drift(grid.p_centers * (0.5 * dt / mass)), drift(grid.p_centers * (dt / mass))


def _p_kick(values: np.ndarray, rho: DensityField, spec: ProblemSpec,
            settings: VlasovSettings) -> np.ndarray:
    """The p-kick p -> p + F dt (p is open), with the force frozen from the
    clipped-at-zero current values.  Raises CFLViolation when the kick exceeds
    the p-domain length."""
    grid = rho.grid
    dt = settings.dt
    force = mean_field_force(rho.copy_with(np.maximum(values, 0.0), clip_count=0), spec)
    max_kick = dt * float(np.max(np.abs(force)))
    if max_kick >= grid.p_max - grid.p_min:
        raise CFLViolation(
            f"dt*max|F| = {max_kick:g} exceeds the p-domain length "
            f"{grid.p_max - grid.p_min:g}; reduce dt or enlarge the domain"
        )
    cubic = settings.interpolation == "cubic-spline"
    return _advect_columns(values.T, _open_plan(grid.n_p, grid.dp, force * dt, cubic)).T


def _strang_steps(rho: DensityField, n_steps: int, spec: ProblemSpec, settings: VlasovSettings,
                  drifts, time: float | None) -> DensityField:
    """n_steps >= 1 Strang steps, Q(dt/2) [P(dt) Q(dt)]^(n_steps-1) P(dt) Q(dt/2):
    between the two ends, the trailing half-drift of a step and the leading
    one of the next are one full drift (Cheng & Knorr, J. Comput. Phys. 22,
    1976).  Undershoot is clipped after every full drift and after the final
    half-drift, once per step.  `drifts` is the (half, full) pair of
    _q_drifts; the result is stamped `time`.
    """
    half, full = drifts
    values = half(rho.values)
    clipped = 0
    for _ in range(n_steps - 1):
        values, n_clipped = _clip_negatives(full(_p_kick(values, rho, spec, settings)))
        clipped += n_clipped
    values, n_clipped = _clip_negatives(half(_p_kick(values, rho, spec, settings)))
    return rho.copy_with(values, clip_count=rho.clip_count + clipped + n_clipped, time=time)


def vlasov_step(rho: DensityField, spec: ProblemSpec, settings: VlasovSettings) -> DensityField:
    """Advance the density by one Strang-split step of size dt: half-drift in
    q, kick in p, half-drift in q, then clip."""
    t = None if rho.time is None else rho.time + settings.dt
    return _strang_steps(rho, 1, spec, settings, _q_drifts(rho.grid, spec, settings), t)


def vlasov_solve(rho0: DensityField, T: float, spec: ProblemSpec, settings: VlasovSettings,
                 snapshot_times=None) -> list[DensityField]:
    """Repeated stepping to the last requested snapshot; snapshots at the
    nearest whole step.

    The steps between consecutive snapshots run fused (`_strang_steps`):
    each snapshot ends on a half-drift and a clip, as a single step does,
    and no field between snapshots is formed.  The q-drifts are built once
    per solve.

    The state after step k is stamped t0 + k dt (t0 the initial time, 0 when
    unset), not a running sum of dt, so a snapshot carries no accumulated
    rounding in its time.

    The momentum domain is a truncation of the real line, so initial data
    with more than 1e-8 of its mass in the outermost two p-rows is refused:
    the truncation would not be certifiably harmless.
    """
    if not (math.isfinite(T) and T >= 0 and math.isfinite(T / settings.dt)):
        raise ValueError("T must be finite and >= 0, and T / dt a finite step count")
    if snapshot_times is None:
        snapshot_times = [T]
    for i, t in enumerate(snapshot_times):
        if not (math.isfinite(t) and 0 <= t <= T):
            raise ValueError(f"snapshot_times[{i}] = {t!r} must lie in [0, T]")
    outer = rho0.values[:, :2].sum() + rho0.values[:, -2:].sum()
    total = rho0.values.sum()
    if total > 0 and outer / total > 1e-8:
        raise ValueError(
            f"{outer / total:.2e} of the initial mass sits in the outermost "
            "two p-rows (> 1e-8); enlarge the p-domain"
        )
    snap_steps = [int(round(t / settings.dt)) for t in snapshot_times]

    rho = rho0 if rho0.time is not None else rho0.copy_with(rho0.values, time=0.0)
    t0 = rho.time
    snapshots = {0: rho}
    ends = sorted(set(snap_steps) - {0})
    drifts = _q_drifts(rho.grid, spec, settings) if ends else None
    for done, k in zip([0] + ends, ends):
        snapshots[k] = _strang_steps(snapshots[done], k - done, spec, settings, drifts,
                                     t0 + k * settings.dt)
    return [snapshots[k] for k in snap_steps]
