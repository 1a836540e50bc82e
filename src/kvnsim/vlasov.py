"""Semi-Lagrangian solver for the self-consistent collisionless transport
equation on a phase-space grid.

One step is Strang-split (Cheng-Knorr structure): half-drift in q by
p dt/(2m), kick in p by F dt with the force frozen from the half-drifted
density, half-drift in q again.  Between snapshots the trailing half-drift
of one step and the leading one of the next are fused into one full drift,
so n steps make n + 1 q-drifts and n p-kicks (Cheng & Knorr, J. Comput.
Phys. 22, 1976); undershoot is clipped once per step.  Each sweep traces the
characteristic backward along one axis with a shift constant along each
line, so it is a fixed stencil per line: 2 linear taps, or 4 cubic B-spline
taps on prefiltered coefficients (Sonnendrücker et al., J. Comput. Phys.
149, 1999).

A solve runs on one workspace (`_Stepper`), allocated once, holding the
field p-major, shape (n_p, n_q), swept in place; it is copied in once per
solve, the initial field is dropped before the first step, each later
snapshot is lent to the caller's sink as a view of the workspace (a `kvnsim
run` writes it there), so a stepping solve holds no other field, and the end
state is returned as a view of the workspace it releases.  A periodic
q-drift is one rfft/irfft pair per line along the contiguous axis (Unser,
Aldroubi & Eden, IEEE Trans. Signal Process. 41, 1993), run in blocks of
lines through one block-sized spectrum buffer: a periodic solve holds the
field, the full drift's transfer function, built block by block, and the
kick's coefficient slab, and the half drift rebuilds its transfer function
block by block from its O(n_p) stencil.  An open sweep applies the
banded cubic prefilter 6 tridiag(1, 4, 1)^-1 into a persistent coefficient
buffer, then sums the taps by one einsum over a strided window view of that
buffer: while the lines' window starts lie within a few cells no window is
gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_space import DensityField, PhaseGrid, ProblemSpec, mean_field_force

__all__ = ["VlasovSettings", "CFLViolation", "require_q_cfl", "vlasov_solve"]


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


def require_q_cfl(grid: PhaseGrid, mass: float, dt: float) -> None:
    """Raises CFLViolation when the full q-drift of a step, dt*max|p|/m, reaches
    the q-domain length.  The p-kick's bound depends on the force, so a step
    checks it as it runs (`_Stepper.p_kick`)."""
    max_speed = max(abs(grid.p_min), abs(grid.p_max)) / mass
    if dt * max_speed >= grid.q_length:
        raise CFLViolation(
            f"dt*max|p|/m = {dt * max_speed:g} exceeds the q-domain length "
            f"{grid.q_length:g}; reduce dt or enlarge the domain"
        )


_GHOST = 3  # zero ghost rows padded onto each end of an open column
_TILE = 64  # coefficient rows per product of the banded prefilter
_HALO = 32  # data rows a tile reads past its ends: (2 - sqrt(3))^33 < 2e-19
_SPREAD = 4  # spread of window starts one einsum reads past the taps; wider is gathered
_BLOCK_BYTES = 1 << 16  # the most a periodic sweep buffers per block: under the mmap threshold


@lru_cache(maxsize=8)
def _prefilter_tiles(n: int) -> tuple:
    """The banded prefilter of an open column of n data rows, in tiles
    (r0, r1, d0, d1, block): coefficient rows r0:r1 of the column padded
    with _GHOST zero rows at each end are block.T @ values[d0:d1].

    The coefficients are P values, P = 6 A^-1 restricted to the data rows,
    A = tridiag(1, 4, 1) of order N = n + 2 _GHOST.  Its inverse has the
    closed form (A^-1)_ij = (-r)^|i-j| (1 - r^(2 min(i, j))) (1 - r^(2 (N + 1
    - max(i, j)))) / (2 sqrt(3) (1 - r^(2 (N + 1)))), r = 2 - sqrt(3), rows
    counted from 1 (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992), so its
    entries decay like r^|i-j|: a tile of _TILE rows reads only the data rows
    within _HALO of its ends, leaving out less than 4e-19 of the largest
    coefficient.  The cache grows linearly in n and no dense inverse (with
    denormal far entries) forms.
    """
    rows, r = n + 2 * _GHOST, 2.0 - math.sqrt(3.0)
    k = np.arange(rows + 2)
    edge = 1.0 - r ** (2 * k)  # the boundary factors, 1 - r^(2k)
    decay = math.sqrt(3.0) / edge[rows + 1] * (-r) ** k
    tiles = []
    for r0 in range(0, rows, _TILE):
        r1 = min(r0 + _TILE, rows)
        d0, d1 = max(r0 - _GHOST - _HALO, 0), min(r1 - _GHOST + _HALO, n)
        i = np.arange(_GHOST + d0 + 1, _GHOST + d1 + 1)[:, None]  # rows of A, from 1
        j = np.arange(r0 + 1, r1 + 1)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        block = decay[hi - lo] * edge[lo] * edge[rows + 1 - hi]
        block.flags.writeable = False  # the cache hands the same block to every sweep
        tiles.append((r0, r1, d0, d1, block))
    return tuple(tiles)


def _bspline_prefilter(values: np.ndarray, coef: np.ndarray) -> None:
    """Write the cubic B-spline coefficients of every column of values (n
    rows, either memory layout), padded with _GHOST zero rows at each end,
    into the rows of coef, shape (n + 2 _GHOST, m): one matrix product per
    tile of `_prefilter_tiles`, reading the data rows in place."""
    for r0, r1, d0, d1, block in _prefilter_tiles(values.shape[0]):
        np.matmul(block.T, values[d0:d1], out=coef[r0:r1])


def _stencil(s: np.ndarray, cubic: bool):
    """Window start and tap weights of a backward trace by s[j] cells: row i
    of line j reads sum_t weights[t][j] c[i + start[j] + t] of the line's
    coefficients c (its values when linear, B-spline coefficients if cubic)."""
    k = np.floor(s)
    u = 1.0 - (s - k)
    start = -1 - k.astype(np.int64)
    if not cubic:
        return start, (1.0 - u, u)
    v = 1.0 - u
    return start - 1, (v ** 3 / 6.0, (4.0 - 6.0 * u ** 2 + 3.0 * u ** 3) / 6.0,
                       (4.0 - 6.0 * v ** 2 + 3.0 * v ** 3) / 6.0, u ** 3 / 6.0)


class _PeriodicAxis:
    """Sweeps along a periodic axis of n rows for m lines (the columns of the
    values) in blocks of `lines` lines, each block's buffers at most
    _BLOCK_BYTES: a line's rfft, its product with its transfer function and
    its irfft run through one block-sized spectrum buffer, allocated once.
    A held plan keeps the transfer functions of all lines; any other plan
    keeps only its stencil and is rebuilt per block at each sweep."""

    def __init__(self, n: int, m: int, cubic: bool):
        self.n, self.m, self.cubic = n, m, cubic
        self.f = np.arange(n // 2 + 1)
        self.lines = min(m, max(1, _BLOCK_BYTES // (16 * self.f.size)))
        self.roots = np.exp(2j * np.pi / n * np.arange(n))  # exp(i theta_1 r), r = 0 .. n-1
        self.spectrum = np.empty((self.lines, self.f.size), dtype=complex)

    def plan(self, s: np.ndarray, held: bool = False):
        """The plan (stencil, transfer) of the backward trace by s[j] cells.
        Its transfer function H, shape (m, n//2 + 1), is built block by block
        when held; otherwise transfer is None and each sweep rebuilds H block
        by block from the O(m) stencil."""
        stencil = _stencil(s, self.cubic)
        if not held:
            return stencil, None
        transfer = np.empty((self.m, self.f.size), dtype=complex)
        for a in range(0, self.m, self.lines):
            self._transfer(stencil, a, transfer[a:a + self.lines])
        return stencil, transfer

    def _transfer(self, stencil, a: int, out: np.ndarray) -> np.ndarray:
        """H of lines a .. a + len(out) - 1 into out: H[j, f] = sum_t
        weights[t][j] exp(i theta_f (start[j] + t)) / beta(theta_f), theta_f
        = 2 pi f / n, beta = (4 + 2 cos theta) / 6 when cubic and 1 when
        linear, with phases reduced modulo n in integers so shifts of many
        cells lose no accuracy.  The spectrum buffer is its scratch."""
        n, f, roots = self.n, self.f, self.roots
        start, weights = stencil
        k = len(out)
        term, phase = self.spectrum[:k], np.empty(out.shape, dtype=np.int64)
        out[...] = 0.0  # from zero: starting at tap 0 would keep its signed zeros
        for t, w in enumerate(weights):
            out += np.outer(w[a:a + k], roots[f * t % n], out=term)
        np.outer(start[a:a + k], f, out=phase)
        phase %= n
        out *= np.take(roots, phase, out=term, mode="clip")  # in range: "clip" spares a copy
        if self.cubic:
            out /= (4.0 + 2.0 * roots[f].real) / 6.0
        return out

    def sweep(self, values: np.ndarray, plan) -> None:
        """Overwrite values, shape (n, m), with their sweep."""
        stencil, transfer = plan
        for a in range(0, self.m, self.lines):
            block = values[:, a:a + self.lines]
            spectrum = self.spectrum[:block.shape[1]]
            h = (transfer[a:a + len(spectrum)] if transfer is not None
                 else self._transfer(stencil, a, np.empty_like(spectrum)))
            np.fft.rfft(block, axis=0, out=spectrum.T)
            spectrum *= h
            np.fft.irfft(spectrum.T, self.n, axis=0, out=block)


class _OpenAxis:
    """Sweeps along an open axis of n rows for m lines (the columns of the
    values) through one zero-margined coefficient buffer `coef`, shape
    (rows, m), and its window view, `window`[a, j, i] = coef[a + i, j]; rows
    lead .. lead + n + 2 _GHOST - 1 hold the ghost-padded lines.  Both are
    allocated once and grown only when a plan reads past the margins.  `out`
    takes the taps of values whose lines are not contiguous, and `gathered`
    the windows of lines whose starts spread wider than _SPREAD."""

    def __init__(self, n: int, m: int, cubic: bool):
        self.n, self.m, self.cubic = n, m, cubic
        self.rows = np.arange(n, dtype=float)[:, None]
        self.mask, self.out = np.empty((n, m), dtype=bool), np.empty((n, m))
        reach = n + (3 if cubic else 1)  # rows a window of all taps spans
        self.index, self.gathered = np.empty((reach, m), dtype=np.intp), np.empty((reach, m))
        self.flat_rows = np.arange(reach)[:, None] * m  # flat offsets of rows in coef
        self.gathered_window = sliding_window_view(self.gathered, n, axis=0)
        self._allocate(0, 0)

    def _allocate(self, lead: int, trail: int) -> None:
        self.coef = np.zeros((lead + self.n + 2 * _GHOST + trail, self.m))
        self.window = sliding_window_view(self.coef, self.n, axis=0)
        self.lead, self.trail = lead, trail

    def plan(self, s: np.ndarray, held: bool = False):
        """The plan (start, s0, weights, drops) of the backward trace by s[j]
        cells along line j, O(m) and so held whatever `held`.  When the
        window starts lie within _SPREAD of their least s0, every line sums
        the k = taps + spread window offsets from s0 in one einsum, `weights`
        (offsets x lines) zero outside each line's taps, and `start` is
        None; otherwise the sweep gathers each line's window from its own
        `start` and sums the taps alone.  For each (a, b, outside, bound) in
        `drops`, row i of line j in a:b is zeroed where outside(i, bound[j]):
        its trace leaves the domain by more than half a cell past the end the
        line is shifted from.  The margins grow to what the windows read."""
        start, taps = _stencil(s, self.cubic)
        start += _GHOST
        s0, spread = int(start.min()), int(start.max() - start.min())
        narrow = spread <= _SPREAD
        offset = start - s0 if narrow else 0
        weights = np.zeros((len(taps) + (spread if narrow else 0), len(s)))
        for t, w in enumerate(taps):
            weights[offset + t, np.arange(len(s))] = w
        drops = []
        for edge, outside, bound in ((s > 0.5, np.less, s - 0.5),
                                     (s < -0.5, np.greater, s + (self.n - 0.5))):
            edge = np.flatnonzero(edge)
            if edge.size:
                a, b = edge[0], edge[-1] + 1
                drops.append((a, b, outside, bound[a:b]))
        lead = max(0, -s0)
        trail = max(0, s0 + spread + len(taps) - 1 - 2 * _GHOST)
        if lead > self.lead or trail > self.trail:
            self._allocate(max(lead, 2 * self.lead), max(trail, 2 * self.trail))
        return None if narrow else start, s0, weights, drops

    def sweep(self, values: np.ndarray, plan) -> None:
        """Overwrite values, shape (n, m) in either layout, with their sweep by
        plan.  Inflow interpolates toward the zero ghost rows: extrapolating
        would pump tail noise up exponentially under repeated sweeps."""
        start, s0, weights, drops = plan
        pad = self.coef[self.lead:self.lead + self.n + 2 * _GHOST]
        if self.cubic:
            _bspline_prefilter(values, pad)
        else:
            pad[_GHOST:-_GHOST] = values
        window, s0 = self.window, s0 + self.lead
        if start is not None:  # line j's window, from coef row lead + start[j], to row 0
            np.add(self.flat_rows, (start + self.lead) * self.m + np.arange(self.m), out=self.index)
            # in range by the margins; "clip" spares the copy "raise" makes of out
            np.take(self.coef.ravel(), self.index, out=self.gathered, mode="clip")
            window, s0 = self.gathered_window, 0
        out = values if values.flags.c_contiguous else self.out
        np.einsum("oji,oj->ij", window[s0:s0 + len(weights)], weights, out=out)
        for a, b, outside, bound in drops:
            np.copyto(out[:, a:b], 0.0, where=outside(self.rows, bound, out=self.mask[:, a:b]))
        if out is not values:
            values[...] = out


class _Stepper:
    """The workspace of one solve, allocated once: the field `f`, p-major,
    copied in from the initial density once, the q-drift's axis, its half
    plan (not held: it runs twice per snapshot segment) and held full plan,
    the p-kick's axis, the clip mask, and the clip count so far.
    Raises CFLViolation when the full q-drift exceeds the q-domain length."""

    def __init__(self, rho: DensityField, spec: ProblemSpec, settings: VlasovSettings):
        grid, dt, mass = rho.grid, settings.dt, spec.mass
        require_q_cfl(grid, mass, dt)
        cubic = settings.interpolation == "cubic-spline"
        self.grid, self.spec, self.dt = grid, spec, dt
        self.f = rho.values.T.copy()
        self.clip_count = rho.clip_count
        self.mask = np.empty(self.f.shape, dtype=bool)
        self.kick = _OpenAxis(grid.n_p, grid.n_q, cubic)
        self.drift = (_PeriodicAxis if grid.periodic_q else _OpenAxis)(grid.n_q, grid.n_p, cubic)
        self.drifts = [self.drift.plan(grid.p_centers * (h * dt / mass) / grid.dq, held=h == 1.0)
                       for h in (0.5, 1.0)]

    def q_drift(self, full: bool) -> None:
        """The q-drift q -> q + p dt / m, by dt when full, else by dt / 2."""
        self.drift.sweep(self.f.T, self.drifts[full])

    def p_kick(self) -> None:
        """The p-kick p -> p + F dt (p is open), the force frozen from the
        clipped-at-zero field, held in the kick's coefficient rows until the
        sweep overwrites them.  Raises CFLViolation past the p-domain length,
        and ValueError when the kick is not finite."""
        grid, kick = self.grid, self.kick
        scratch = kick.coef[kick.lead + _GHOST:kick.lead + _GHOST + grid.n_p]
        np.maximum(self.f, 0.0, out=scratch)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            force = mean_field_force(DensityField(grid, scratch.T), self.spec)
        max_kick = self.dt * float(np.max(np.abs(force)))
        if not math.isfinite(max_kick):
            raise ValueError(f"the p-kick dt*max|F| = {max_kick:g}: the force F overflowed")
        if max_kick >= grid.p_max - grid.p_min:
            raise CFLViolation(
                f"dt*max|F| = {max_kick:g} exceeds the p-domain length "
                f"{grid.p_max - grid.p_min:g}; reduce dt or enlarge the domain")
        kick.sweep(self.f, kick.plan(force * self.dt / grid.dp))

    def clip(self) -> int:
        """Zero undershoot below the tolerated -1e-12 floor and rescale to the
        sum before clipping: the clip conserves mass, and mass that left
        through an open boundary stays out.  Returns the clipped count."""
        f, bad, floor = self.f, self.mask, DensityField.NEGATIVE_TOL
        np.less(f, floor, out=bad)
        n_clipped = int(np.count_nonzero(bad))
        if n_clipped:
            total_before = f.sum()
            np.copyto(f, 0.0, where=bad)
            total_after = f.sum()
            if total_after > 0 and total_before > 0:
                np.multiply(f, total_before / total_after, out=f)
                np.maximum(f, floor, out=f)
        return n_clipped

    def run(self, n_steps: int, time: float | None) -> DensityField:
        """n_steps >= 1 Strang steps of the field in place, Q(dt/2) [P(dt)
        Q(dt)]^(n_steps-1) P(dt) Q(dt/2), clipping after each full and the
        final half drift; the result is the field stamped `time` and the clip
        count so far, lent as a q-major view of f."""
        self.q_drift(False)
        for left in range(n_steps - 1, -1, -1):
            self.p_kick()
            self.q_drift(left > 0)
            self.clip_count += self.clip()
        return DensityField(self.grid, self.f.T, self.clip_count, time)


def vlasov_solve(rho0: DensityField, T: float, spec: ProblemSpec, settings: VlasovSettings,
                 snapshot_times=(), sink=None) -> DensityField:
    """Repeated stepping to T, at the nearest whole step; returns the state
    there, past step 0 a q-major view of the workspace, which the solve
    releases to it (no copy).

    Each requested snapshot is handed to ``sink(i, field)`` as soon as the
    solve reaches its step, in step order; requests i that share a step get
    the same field, in index order, lent for the call only: past step 0 its
    values are a view of the workspace, which the next step overwrites.
    Snapshots without a sink are refused.  The solve drops ``rho0`` before
    its first step, freeing it unless a caller holds it, as CPython 3.10 does
    until the call returns.

    The steps between snapshots run fused (`_Stepper.run`) on one workspace
    for the whole solve; each snapshot ends on a half-drift and a clip, as a
    single step does.  The state after step k is stamped t0 + k dt (t0 the
    initial time, 0 when unset), not a running sum of dt.

    The momentum domain is a truncation of the real line, so initial data
    with more than 1e-8 of its mass in the outermost two p-rows is refused:
    the truncation would not be certifiably harmless.
    """
    if not (math.isfinite(T) and T >= 0 and math.isfinite(T / settings.dt)):
        raise ValueError("T must be finite and >= 0, and T / dt a finite step count")
    for i, t in enumerate(snapshot_times):
        if not (math.isfinite(t) and 0 <= t <= T):
            raise ValueError(f"snapshot_times[{i}] = {t!r} must lie in [0, T]")
    if sink is None and len(snapshot_times):
        raise ValueError("snapshot_times need a sink to lend the snapshots to")
    outer = rho0.values[:, :2].sum() + rho0.values[:, -2:].sum()
    total = rho0.values.sum()
    if total > 0 and outer / total > 1e-8:
        raise ValueError(
            f"{outer / total:.2e} of the initial mass sits in the outermost "
            "two p-rows (> 1e-8); enlarge the p-domain"
        )
    n_steps = int(round(T / settings.dt))
    requests = sorted((int(round(t / settings.dt)), i) for i, t in enumerate(snapshot_times))

    rho = rho0 if rho0.time is not None else replace(rho0, time=0.0)
    t0, done = rho.time, 0
    stepper = _Stepper(rho, spec, settings) if n_steps > 0 else None
    del rho0  # the initial field is held as `rho` alone, until the first step
    for k, i in [*requests, (n_steps, None)]:
        if k > done:
            rho = None  # nothing but the workspace is held while stepping
            rho, done = stepper.run(k - done, t0 + k * settings.dt), k
        if i is not None:
            sink(i, rho)
    return rho
