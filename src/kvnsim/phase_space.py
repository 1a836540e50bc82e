"""Phase-space types: potentials, grids, density fields, mean-field force.

Everything here is dimensionless (code units, m=1 by default) and the
phase space is two-dimensional, x = (q, p); a point is a length-2 array and
a batch of points an (n, 2) array.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FreePotential",
    "HarmonicPotential",
    "QuarticPotential",
    "CosinePotential",
    "NoPair",
    "GaussianPair",
    "CosinePair",
    "ProblemSpec",
    "PhaseGrid",
    "DensityField",
    "GridResolutionWarning",
    "BoundaryMassWarning",
    "CostError",
    "spatial_density",
    "pair_gradient_table",
    "pair_is_periodic",
    "pair_force_sum",
    "pair_sum_evaluations",
    "mean_field_force",
    "density_from_function",
    "boundary_mass_fraction",
]


# --------------------------------------------------------------------------
# external potentials U(q), closed-form values and gradients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FreePotential:
    """U = 0."""

    def value(self, q, mass: float = 1.0):
        return np.zeros_like(np.asarray(q, dtype=float))

    def gradient(self, q, mass: float = 1.0):
        return np.zeros_like(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class HarmonicPotential:
    """U = (1/2) m omega^2 q^2, so the force is -m omega^2 q."""

    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be > 0")
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(f"omega = {self.omega:g} overflows omega**2")

    def value(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return 0.5 * mass * self.omega**2 * q**2

    def gradient(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return mass * self.omega**2 * q


@dataclass(frozen=True)
class QuarticPotential:
    """U = a q^2 + b q^4."""

    a: float
    b: float

    def value(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return self.a * q**2 + self.b * q**4

    def gradient(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return 2.0 * self.a * q + 4.0 * self.b * q**3


@dataclass(frozen=True)
class CosinePotential:
    """U = amplitude * cos(k q); requires a periodic q-domain with L = n 2pi/k."""

    wavenumber: float
    amplitude: float

    def __post_init__(self):
        if not self.wavenumber > 0:
            raise ValueError("wavenumber must be > 0")

    def value(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return self.amplitude * np.cos(self.wavenumber * q)

    def gradient(self, q, mass: float = 1.0):
        q = np.asarray(q, dtype=float)
        return -self.amplitude * self.wavenumber * np.sin(self.wavenumber * q)


PotentialSpec = FreePotential | HarmonicPotential | QuarticPotential | CosinePotential


# --------------------------------------------------------------------------
# pair potentials v(q), even by construction so grad v(0) = 0 exactly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NoPair:
    """v = 0 (non-interacting)."""

    strength = 0.0

    def value(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))

    def gradient(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class GaussianPair:
    """v(q) = strength * exp(-q^2 / (2 width^2))."""

    strength: float
    width: float

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("strength must be >= 0")
        if not self.width > 0:
            raise ValueError("width must be > 0")

    def value(self, q):
        q = np.asarray(q, dtype=float)
        return self.strength * np.exp(-0.5 * (q / self.width) ** 2)

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        return -self.strength * q / self.width**2 * np.exp(-0.5 * (q / self.width) ** 2)


@dataclass(frozen=True)
class CosinePair:
    """v(q) = strength * cos(k q)."""

    strength: float
    wavenumber: float

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("strength must be >= 0")
        if not self.wavenumber > 0:
            raise ValueError("wavenumber must be > 0")

    def value(self, q):
        q = np.asarray(q, dtype=float)
        return self.strength * np.cos(self.wavenumber * q)

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        return -self.strength * self.wavenumber * np.sin(self.wavenumber * q)


PairPotentialSpec = NoPair | GaussianPair | CosinePair


@dataclass(frozen=True)
class ProblemSpec:
    """Mass, external potential, pair potential: the classical one-body setup.

    The pair potential is even by construction for every catalog entry, so
    grad v(0) = 0 holds analytically (required for the density equation).
    """

    mass: float = 1.0
    external: PotentialSpec = field(default_factory=FreePotential)
    pair: PairPotentialSpec = field(default_factory=NoPair)

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be > 0")

    def external_gradient(self, q):
        return self.external.gradient(q, self.mass)

    def with_pair_strength(self, strength: float) -> "ProblemSpec":
        """Copy of this spec with the pair-potential strength replaced."""
        if isinstance(self.pair, NoPair):
            if strength == 0.0:
                return self
            raise ValueError("cannot set a strength on a 'none' pair potential")
        if isinstance(self.pair, GaussianPair):
            pair = GaussianPair(strength=strength, width=self.pair.width)
        else:
            pair = CosinePair(strength=strength, wavenumber=self.pair.wavenumber)
        return ProblemSpec(self.mass, self.external, pair)


# --------------------------------------------------------------------------
# grids and density fields
# --------------------------------------------------------------------------

class GridResolutionWarning(UserWarning):
    """The grid may be too coarse to represent the sampled function."""


class BoundaryMassWarning(UserWarning):
    """Non-negligible mass sits in the boundary cells of an open domain."""


class CostError(ValueError):
    """A run's planned size or work exceeds one of the library's caps: refused
    before the work starts."""


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular (q, p) grid of cell centers.

    q may be periodic (required for cosine external potentials); the p domain
    is always a truncation of the real line, but can be flagged periodic so
    that the Fock-space centered differences wrap in p.  Those differences
    are antisymmetric on open axes too, where they stop at the edges.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    periodic_q: bool = False
    periodic_p: bool = False

    def __post_init__(self):
        if self.n_q < 4 or self.n_p < 4:
            raise ValueError("n_q and n_p must be >= 4")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must be ordered")
        for b in (self.q_min, self.q_max, self.p_min, self.p_max):
            if not np.isfinite(b):
                raise ValueError("grid bounds must be finite")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def cell_volume(self) -> float:
        return self.dq * self.dp

    @property
    def q_length(self) -> float:
        return self.q_max - self.q_min

    @property
    def q_centers(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_q) + 0.5) * self.dq

    @property
    def p_centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.n_p) + 0.5) * self.dp

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinate arrays Q, P of shape (n_q, n_p)."""
        return np.meshgrid(self.q_centers, self.p_centers, indexing="ij")

    def wrap_displacement(self, dq: np.ndarray) -> np.ndarray:
        """Minimum-image q-displacement for periodic grids; identity otherwise."""
        if not self.periodic_q:
            return dq
        L = self.q_length
        return dq - L * np.round(dq / L)

    def wrap_points(self, points: np.ndarray) -> np.ndarray:
        """An (n, 2) array of points [q, p] with q mapped into the domain on a
        periodic-q grid; the points themselves on an open one."""
        if not self.periodic_q:
            return points
        out = np.array(points, dtype=float)
        out[:, 0] = self.q_min + np.mod(out[:, 0] - self.q_min, self.q_length)
        return out


@dataclass
class DensityField:
    """Phase-space density values on the cells of a PhaseGrid.

    Values are densities per unit phase-space volume.  Interpolation is
    allowed to undershoot to -1e-12; anything more negative is rejected.
    ``clip_count`` accumulates the number of cells clipped back to the
    tolerated floor by solver steps; ``resolution_warning`` marks fields
    whose source may be under-resolved (or, for histograms, partly outside
    the domain).
    """

    grid: PhaseGrid
    values: np.ndarray
    resolution_warning: bool = False
    clip_count: int = 0
    time: float | None = None

    NEGATIVE_TOL = -1e-12

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_q, self.grid.n_p):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_q}, {self.grid.n_p})"
            )
        low, high = values.min(), values.max()  # a nan reaches both; no grid-sized mask
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("density values must be finite")
        if low < self.NEGATIVE_TOL:
            raise ValueError(
                f"density values below the tolerated undershoot "
                f"({low:.3e} < {self.NEGATIVE_TOL:.0e})"
            )
        self.values = values

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def copy_with(self, values: np.ndarray, **kw) -> "DensityField":
        merged = dict(
            resolution_warning=self.resolution_warning,
            clip_count=self.clip_count,
            time=self.time,
        )
        merged.update(kw)
        return DensityField(self.grid, values, **merged)


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def spatial_density(density: DensityField) -> np.ndarray:
    """q-marginal n(q) = sum_p rho(q, p) dp on the grid's q-axis."""
    return density.values.sum(axis=1) * density.grid.dp


@lru_cache(maxsize=8)
def _pair_kernel(grid: PhaseGrid, pair: PairPotentialSpec) -> np.ndarray:
    """Read-only grad v(wrap(d dq)) for d = -(n_q - 1) ... n_q - 1: the 2 n_q - 1
    numbers that fix the pair operator on a uniform q-axis.  Exactly odd, since
    the minimum-image wrap rounds symmetrically.  A grad v that overflows is refused."""
    d = np.arange(1 - grid.n_q, grid.n_q)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kernel = pair.gradient(grid.wrap_displacement(d * grid.dq))
    if not np.all(np.isfinite(kernel)):
        raise ValueError(f"the pair gradient grad v of {pair} overflows on the grid")
    if grid.periodic_q:
        # cells n_q / 2 apart on a ring sit half a period apart both ways; the tie
        # takes the average of the two images, 0 for the odd grad v of every pair
        kernel[2 * np.abs(d) == grid.n_q] = 0.0
    kernel.flags.writeable = False
    return kernel


def pair_gradient_table(grid: PhaseGrid, pair: PairPotentialSpec) -> np.ndarray:
    """The n_q x n_q table grad v(q_a - q_b) over the q-centers, minimum-image
    wrapped on periodic grids, gathered from the cached pair kernel: for the
    small grids of Fock space, which index it by cell."""
    idx = np.arange(grid.n_q)
    return _pair_kernel(grid, pair)[idx[:, None] - idx[None, :] + grid.n_q - 1]


def pair_is_periodic(pair: PairPotentialSpec, length: float) -> bool:
    """True when grad v(q + length) = grad v(q) for every q: no pair, or a
    cosine pair with a whole number of periods over ``length``.  For such a
    pair the minimum-image wrap on a q-axis of that length changes nothing."""
    if isinstance(pair, NoPair):
        return True
    if not isinstance(pair, CosinePair):
        return False
    cycles = pair.wavenumber * length / (2.0 * math.pi)
    return math.isfinite(cycles) and round(cycles) >= 1 and abs(cycles - round(cycles)) <= 1e-9


# Elements of one (targets x sources or nodes) temporary in the pair sums:
# 64 KiB of doubles, half of glibc's default 128 KiB mmap threshold, so every
# tile is recycled from the heap instead of mapped and faulted in afresh.
_PAIR_TILE = 1 << 13
# The proxy is kept only when its node values stay within this factor of its
# largest interpolated target value; its error is relative to the former.
_PROXY_RANGE = 10.0


def _proxy_order(span: float, width: float) -> int:
    """Chebyshev nodes for a gaussian pair sum over a target span: the
    interpolant then matches the exact sum to ~1e-15 of its largest value."""
    return math.ceil(4.0 * span / width) + 16


def _proxy_plan(n_targets: int, n_sources: int, span: float, width: float) -> tuple[int, int]:
    """Panels P and nodes per panel k that minimise the proxy's evaluations
    (P S + N) k, with k = _proxy_order(span / P, width).  With k ~ 4 span /
    (P width) the optimum is P* = sqrt(span N / (4 width S)); the integer
    neighbours of P* are compared by their exact counts."""
    best = math.sqrt(span * n_targets / (4.0 * width * n_sources))
    plans = [(p, _proxy_order(span / p, width))
             for p in sorted({max(1, math.floor(best)), max(1, math.ceil(best))})]
    return min(plans, key=lambda plan: (plan[0] * n_sources + n_targets) * plan[1])


def _pair_sum_path(targets: np.ndarray, sources: np.ndarray, pair: PairPotentialSpec,
                   grid: PhaseGrid | None) -> tuple[str, int, int]:
    """Which of the kernel's paths the inputs select, and the proxy's plan:
    its panel count and its nodes per panel (0, 0 on the other paths)."""
    if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(sources))):
        raise ValueError("pair sums need finite target and source positions")
    if isinstance(pair, NoPair):
        return "none", 0, 0
    open_q = grid is None or not grid.periodic_q
    if isinstance(pair, CosinePair) and (open_q or pair_is_periodic(pair, grid.q_length)):
        return "cosine", 0, 0
    if isinstance(pair, GaussianPair) and open_q and targets.size and sources.size:
        span = float(targets.max() - targets.min())
        panels, k = _proxy_plan(targets.size, sources.size, span, pair.width)
        # on a span below the smallest normal float, 1 / span and 1 / (t - node) overflow
        if span >= sys.float_info.min and \
                (panels * sources.size + targets.size) * k < targets.size * sources.size:
            return "proxy", panels, k
    return "direct", 0, 0


def _direct_pair_sum(targets, sources, weights, pair, grid) -> np.ndarray:
    """Fixed-order direct sum over minimum-image displacements, in target
    blocks that keep the temporary near _PAIR_TILE elements."""
    out = np.empty(targets.size)
    rows = max(1, _PAIR_TILE // max(sources.size, 1))
    for start in range(0, targets.size, rows):
        disp = targets[start:start + rows, None] - sources[None, :]
        if grid is not None:
            disp = grid.wrap_displacement(disp)
        out[start:start + rows] = (pair.gradient(disp) * weights).sum(axis=1)
    return out


def _chebyshev_nodes(lo: float, hi: float, panels: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k first-kind Chebyshev nodes on each of ``panels`` equal panels of
    [lo, hi], shape (panels, k) and decreasing along each row, and their
    barycentric weights (-1)^j sin(theta_j), which every panel shares."""
    theta = (2.0 * np.arange(k) + 1.0) * (np.pi / (2.0 * k))
    lam = np.where(np.arange(k) % 2 == 0, 1.0, -1.0) * np.sin(theta)
    edges = np.linspace(lo, hi, panels + 1)[:, None]
    a, b = edges[:-1], edges[1:]
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta), lam


def _chebyshev_proxy_sum(targets, sources, weights, pair, panels: int, k: int) -> np.ndarray | None:
    """Exact sums at k first-kind Chebyshev nodes on each of ``panels`` equal
    panels of [min t, max t], all evaluated by one direct sum, and each target
    interpolated from its own panel's nodes by the barycentric formula
    (Berrut & Trefethen, SIAM Rev. 46, 2004); one panel is the single proxy
    over every target.  None when the nodes are not distinct or their values
    dwarf the interpolated ones (or the interpolation is not finite): the
    interpolant's accuracy is relative to the largest node value, so it would
    not carry over to the targets."""
    lo, hi = targets.min(), targets.max()
    nodes, lam = _chebyshev_nodes(lo, hi, panels, k)
    ascending = nodes[:, ::-1].ravel()
    if not np.all(np.diff(ascending) > 0.0):
        return None
    values = _direct_pair_sum(nodes.ravel(), sources, weights, pair, None).reshape(panels, k)
    per_width = panels / (hi - lo)
    out = np.empty(targets.size)
    rows = max(1, _PAIR_TILE // k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, targets.size, rows):
            t = targets[start:start + rows]
            # target i takes panel floor((t_i - lo) / h), the top edge the last one
            idx = np.minimum(((t - lo) * per_width).astype(np.intp), panels - 1)
            c = nodes[idx]
            np.divide(lam, np.subtract(t[:, None], c, out=c), out=c)
            out[start:start + rows] = np.einsum("ij,ij->i", c, values[idx]) / c.sum(axis=1)
    # a target on a node, where the formula divides by zero and gives NaN, takes its value
    suspect = np.flatnonzero(~np.isfinite(out))
    at = np.minimum(np.searchsorted(ascending, targets[suspect]), ascending.size - 1)
    hit = ascending[at] == targets[suspect]
    out[suspect[hit]] = values[:, ::-1].ravel()[at[hit]]
    if not np.max(np.abs(values)) <= _PROXY_RANGE * np.max(np.abs(out)):
        return None
    return out


def pair_force_sum(targets, sources, weights, pair: PairPotentialSpec,
                   grid: PhaseGrid | None = None) -> np.ndarray:
    """sum_j w_j grad v(d_ij) for every target i, d_ij = grid.wrap_displacement(t_i - s_j).

    ``grid`` only supplies the q-axis convention: minimum image when it is
    periodic in q, raw differences when it is open or None.  The inputs alone
    pick the path:

    - no pair: zeros;
    - cosine pair, wherever the wrap changes nothing (open axis, or a whole
      number of periods over the q-length): the exact angle-difference
      factorization, O(N + S);
    - gaussian pair on an open axis, when the targets span at least the
      smallest normal float and the plan of ``_proxy_plan`` (P panels of k
      nodes) needs (P S + N) k < N S evaluations: the panelled Chebyshev
      proxy of ``_chebyshev_proxy_sum``, a single level of the black-box FMM
      (Fong & Darve, J. Comput. Phys. 228, 2009); it falls back to the direct
      sum where its result would not be exact to rounding;
    - everything else: the fixed-order direct sum, O(N S).

    Every reduction runs in a fixed order, so results repeat bit for bit, and
    every temporary beyond the O(N + S) inputs and results is a tile of at
    most _PAIR_TILE doubles (64 KiB; one row of S when S is larger).
    """
    t = np.asarray(targets, dtype=float)
    s = np.asarray(sources, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.ndim != 1 or s.ndim != 1 or w.shape != s.shape:
        raise ValueError(
            f"targets and sources must be 1-d and weights match the sources, got shapes "
            f"{t.shape}, {s.shape}, {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("pair sums need finite weights")
    path, panels, k = _pair_sum_path(t, s, pair, grid)
    if path == "none":
        return np.zeros_like(t)
    if path == "cosine":
        wn = pair.wavenumber
        # sum_j w_j grad v(t_i - s_j)
        #   = -eps k (sin(k t_i) sum_j w_j cos(k s_j) - cos(k t_i) sum_j w_j sin(k s_j))
        total_c, total_s = np.sum(np.cos(wn * s) * w), np.sum(np.sin(wn * s) * w)
        return -pair.strength * wn * (np.sin(wn * t) * total_c - np.cos(wn * t) * total_s)
    if path == "proxy":
        out = _chebyshev_proxy_sum(t, s, w, pair, panels, k)
        if out is not None:
            return out
    return _direct_pair_sum(t, s, w, pair, grid)


def pair_sum_evaluations(targets, sources, pair: PairPotentialSpec,
                         grid: PhaseGrid | None = None) -> int:
    """Pair-kernel evaluations ``pair_force_sum`` plans for these inputs."""
    t = np.asarray(targets, dtype=float)
    s = np.asarray(sources, dtype=float)
    path, panels, k = _pair_sum_path(t, s, pair, grid)
    return {"none": 0, "cosine": t.size + s.size, "proxy": (panels * s.size + t.size) * k,
            "direct": t.size * s.size}[path]


def mean_field_force(density: DensityField, spec: ProblemSpec) -> np.ndarray:
    """Self-consistent force on the q-axis grid nodes.

    F(q) = -grad U(q) - sum_{q'} n(q') grad v(q - q') dq with the q-marginal
    n from midpoint quadrature; the displacement q - q' is wrapped to the
    minimum image when the grid is periodic in q.
    """
    grid = density.grid
    if not np.isfinite(density.mass):
        raise ValueError("density mass must be finite")
    if isinstance(spec.pair, GaussianPair) and grid.q_length < 4.0 * spec.pair.width:
        raise ValueError(
            f"q-extent {grid.q_length:g} is smaller than 4 pair-potential widths "
            f"({4.0 * spec.pair.width:g}); the pair force would be badly truncated"
        )
    q = grid.q_centers
    force = -spec.external_gradient(q)
    if isinstance(spec.pair, NoPair):
        return force
    n = spatial_density(density)
    # direct O(n_q^2) convolution of the pair kernel with the marginal; its
    # fixed-order reduction keeps this bit-exact
    return force - grid.dq * np.convolve(_pair_kernel(grid, spec.pair), n, "valid")


def boundary_mass_fraction(density: DensityField) -> float:
    """Fraction of total mass in the outermost cell layer of open axes."""
    v = density.values
    total = v.sum()
    if total <= 0:
        return 0.0
    edge = 0.0
    if not density.grid.periodic_q:
        edge += v[0, :].sum() + v[-1, :].sum()
        inner = v[1:-1, :]
    else:
        inner = v
    edge += inner[:, 0].sum() + inner[:, -1].sum()
    return float(edge / total)


def density_from_function(grid: PhaseGrid, func, warn: bool = True) -> DensityField:
    """Sample a nonnegative density func(q, p) at cell centers.

    ``func`` is called on the open grid, a q-column of shape (n_q, 1) and a
    p-row of shape (1, n_p), and must broadcast over them; a result of shape
    (n_q, 1) or (1, n_p) is taken as constant along the other axis.  A
    resolution warning flag is set when the midpoint mass at this resolution
    disagrees with a 2x-refined sampling by more than 1e-3 relative (e.g.
    features narrower than a cell).  On open domains, boundary-cell mass above
    1e-8 of the total additionally triggers a BoundaryMassWarning.
    """
    shape = (grid.n_q, grid.n_p)
    q, p = grid.q_centers[:, None], grid.p_centers[None, :]

    def sample(sq: float, sp: float) -> np.ndarray:
        values = np.asarray(func(q + sq * grid.dq, p + sp * grid.dp), dtype=float)
        if values.ndim != 2 or not all(m in (1, n) for m, n in zip(values.shape, shape)):
            raise ValueError("density function must broadcast over coordinate arrays")
        return np.broadcast_to(values, shape)

    values = np.array(sample(0.0, 0.0))
    if values.min(initial=0.0) < 0.0:
        raise ValueError("initial density must be nonnegative")

    mass = values.sum() * grid.cell_volume
    # the 2x-refined cell centres are the coarse ones shifted by +-dq/4 and +-dp/4
    mass_fine = sum(sample(sq, sp).sum() for sq in (-0.25, 0.25)
                    for sp in (-0.25, 0.25)) * grid.cell_volume / 4
    scale = max(abs(mass), abs(mass_fine), 1e-300)
    under_resolved = abs(mass - mass_fine) / scale > 1e-3

    out = DensityField(grid, values, resolution_warning=under_resolved)
    if warn:
        if under_resolved:
            warnings.warn(
                "cell-center sampling disagrees with a refined sampling; "
                "the density may be under-resolved on this grid",
                GridResolutionWarning,
                stacklevel=2,
            )
        if boundary_mass_fraction(out) > 1e-8:
            warnings.warn(
                "more than 1e-8 of the mass sits in boundary cells of an "
                "open axis; the domain truncation may not be harmless",
                BoundaryMassWarning,
                stacklevel=2,
            )
    return out
