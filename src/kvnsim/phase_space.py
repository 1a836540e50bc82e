"""Phase-space types: potentials, grids, density fields, mean-field force.

Everything here is dimensionless (code units, m=1 by default) and the
phase space is two-dimensional, x = (q, p); a point is a length-2 array and
a batch of points an (n, 2) array.
"""

from __future__ import annotations

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
    "spatial_density",
    "pair_gradient_table",
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

    tag = "free"

    def value(self, q, mass: float = 1.0):
        return np.zeros_like(np.asarray(q, dtype=float))

    def gradient(self, q, mass: float = 1.0):
        return np.zeros_like(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class HarmonicPotential:
    """U = (1/2) m omega^2 q^2, so the force is -m omega^2 q."""

    omega: float
    tag = "harmonic"

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be > 0")

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
    tag = "quartic"

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
    tag = "cosine"

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

    tag = "none"
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
    tag = "gaussian"

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
    tag = "cosine"

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


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular (q, p) grid of cell centers.

    q may be periodic (required for cosine external potentials); the p domain
    is always a truncation of the real line, but can be flagged periodic for
    the purposes of skew-symmetric differencing in the Fock-space modules.
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
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if values.min(initial=0.0) < self.NEGATIVE_TOL:
            raise ValueError(
                f"density values below the tolerated undershoot "
                f"({values.min():.3e} < {self.NEGATIVE_TOL:.0e})"
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
def pair_gradient_table(grid: PhaseGrid, pair: PairPotentialSpec) -> np.ndarray:
    """Read-only table grad v(q_a - q_b) over the q-centers, minimum-image wrapped
    on periodic grids; built once per (grid, pair) and shared by every caller."""
    q = grid.q_centers
    table = pair.gradient(grid.wrap_displacement(q[:, None] - q[None, :]))
    table.flags.writeable = False
    return table


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
    # direct O(n_q^2) convolution; fixed-order reduction keeps this bit-exact
    return force - grid.dq * (pair_gradient_table(grid, spec.pair) @ n)


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

    ``func`` must broadcast over coordinate arrays.  A resolution warning
    flag is set when the midpoint mass at this resolution disagrees with a
    2x-refined sampling by more than 1e-3 relative (e.g. features narrower
    than a cell).  On open domains, boundary-cell mass above 1e-8 of the
    total additionally triggers a BoundaryMassWarning.
    """
    Q, P = grid.meshgrid()
    values = np.asarray(func(Q, P), dtype=float)
    if values.shape != Q.shape:
        raise ValueError("density function must broadcast over coordinate arrays")
    if values.min(initial=0.0) < 0.0:
        raise ValueError("initial density must be nonnegative")

    mass = values.sum() * grid.cell_volume
    fine = PhaseGrid(
        grid.q_min, grid.q_max, grid.p_min, grid.p_max,
        2 * grid.n_q, 2 * grid.n_p, grid.periodic_q, grid.periodic_p,
    )
    Qf, Pf = fine.meshgrid()
    mass_fine = np.asarray(func(Qf, Pf), dtype=float).sum() * fine.cell_volume
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
