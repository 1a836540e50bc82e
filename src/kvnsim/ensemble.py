"""Monte Carlo N-body oracle: sample, integrate, histogram, compare.

Particles carry the full interacting dynamics under velocity Verlet; with
mean-field scaling the pair force on particle i is 1/(N-1) times the sum of
pair forces from the other particles, which is the scaling regime in which
the empirical density converges to the grid solver's solution.  Forces are
evaluated in a fixed order so results are reproducible bit for bit.

RNG: numpy's PCG64 via ``default_rng(seed)``; the algorithm name and numpy
version are pinned in run metadata.  Reproducibility is promised within
this build, not across numpy generations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import CatalogDensity, GaussianDensity, GaussianMixture
from .flow import _point_rows, _verlet_steps
from .phase_space import (
    CostError,
    DensityField,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
    pair_force_sum,
    pair_is_periodic,
    pair_sum_evaluations,
)
from .vlasov import VlasovSettings, vlasov_solve
from .perturbation import ConvergenceTable

__all__ = [
    "EnsembleSettings",
    "require_unit_mass",
    "require_particle_count",
    "require_periodic_pair",
    "sample_initial",
    "integrate_nbody",
    "step_count",
    "histogram_density",
    "ensemble_vs_vlasov",
]

# Pair-kernel evaluations one integration may plan (force passes x the
# evaluations of one pass); the direct path evaluates N^2 per pass.
MAX_PAIR_EVALUATIONS = 10**9


@dataclass(frozen=True)
class EnsembleSettings:
    dt: float
    coupling_scaling: str = "mean-field"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.coupling_scaling not in ("mean-field", "bare"):
            raise ValueError(f"unknown coupling scaling {self.coupling_scaling!r}")


def require_unit_mass(density) -> None:
    """ValueError unless the density's total mass is 1 to within 1e-12."""
    if not abs(density.mass - 1.0) <= 1e-12:
        raise ValueError("the ensemble needs total mass 1 (its histogram and mean-field "
                         f"scaling are per unit mass), not {density.mass:.15g}")


def require_particle_count(n: int, pair) -> int:
    """n, or ValueError when an interacting run has fewer than two particles."""
    if n < 2 and not isinstance(pair, NoPair):
        raise ValueError("an interacting run needs at least two particles")
    return n


def require_periodic_pair(pair, grid: PhaseGrid) -> None:
    """ValueError on a periodic q-domain unless ``pair_is_periodic``: particles
    use raw q differences, the grid solver minimum-image ones."""
    if grid.periodic_q and not pair_is_periodic(pair, grid.q_length):
        raise ValueError("on a periodic q-domain the ensemble needs no pair potential or a "
                         "cosine pair with a whole number of periods over the q-length")


def sample_initial(density, n: int, seed: int) -> np.ndarray:
    """n i.i.d. phase points from a catalog density of total mass 1, as an
    (n, 2) array.

    Only densities with exact samplers are accepted; there is no generic
    rejection sampler here.
    """
    if not isinstance(density, (GaussianDensity, GaussianMixture)):
        raise TypeError(
            "sampling needs a catalog density (gaussian or gaussian mixture) "
            "with an exact sampler"
        )
    require_unit_mass(density)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return density.sample(n, rng)


def step_count(T: float, dt: float) -> int:
    """The number of dt steps that make up T; ValueError unless T is a whole
    multiple of dt to within 1e-9 max(1, |T|)."""
    steps = T / dt
    if not (math.isfinite(steps) and abs(round(steps) * dt - T) <= 1e-9 * max(1.0, abs(T))):
        raise ValueError("T must be an integer multiple of dt")
    return round(steps)


def integrate_nbody(points: np.ndarray, T: float, spec: ProblemSpec,
                    settings: EnsembleSettings) -> np.ndarray:
    """Velocity Verlet on the full interacting system up to time T.

    With no pair potential every particle follows the single-particle flow
    map exactly (identical integrator and step sequence).  Positions are never
    wrapped and pair displacements are raw q differences, so a periodic q-axis
    is only meaningful for pairs that ``pair_is_periodic`` accepts.  Runs whose
    planned pair work (from the initial positions) exceeds
    MAX_PAIR_EVALUATIONS raise CostError before any step.
    """
    pts = _point_rows(points)
    n = require_particle_count(pts.shape[0], spec.pair)
    interacting = not isinstance(spec.pair, NoPair)
    scale = 1.0 / (n - 1) if interacting and settings.coupling_scaling == "mean-field" else 1.0
    n_steps = step_count(T, settings.dt)
    planned = (n_steps + 1) * pair_sum_evaluations(pts[:, 0], pts[:, 0], spec.pair)
    if planned > MAX_PAIR_EVALUATIONS:
        raise CostError(
            f"{n_steps + 1} force passes of {n} particles plan {planned:.3g} pair-kernel "
            f"evaluations, above the cap of {MAX_PAIR_EVALUATIONS:.0e}; "
            "use fewer particles or steps")

    def gradient(q):
        # grad U + s sum_j grad v(q_i - q_j); the parity of v makes the self term vanish
        return spec.external_gradient(q) + scale * pair_force_sum(q, q, np.ones_like(q), spec.pair)

    q, p = _verlet_steps(pts[:, 0], pts[:, 1], n_steps, settings.dt, spec.mass,
                         gradient if interacting else spec.external_gradient)
    return np.column_stack([q, p])


def histogram_density(points: np.ndarray, grid: PhaseGrid) -> DensityField:
    """Counting histogram normalized to a density: counts / (n cell_volume).

    Out-of-domain points are dropped (after `PhaseGrid.wrap_points`), so the
    field's mass is the share of points inside the domain.
    """
    pts = _point_rows(points)
    if pts.shape[0] == 0:
        return DensityField(grid, np.zeros((grid.n_q, grid.n_p)))
    n = pts.shape[0]
    q, p = grid.wrap_points(pts).T
    counts, _, _ = np.histogram2d(
        q, p, bins=(grid.n_q, grid.n_p),
        range=((grid.q_min, grid.q_max), (grid.p_min, grid.p_max)),
    )
    return DensityField(grid, counts / (n * grid.cell_volume))


def ensemble_vs_vlasov(density: CatalogDensity, spec: ProblemSpec, grid: PhaseGrid,
                       T: float, n_list, ens_settings: EnsembleSettings,
                       vlasov_settings: VlasovSettings, seed: int) -> ConvergenceTable:
    """L1 distance between the particle histogram and the grid solver at T;
    the k-th sample size draws its particles with seed ``seed + k``.

    The distance is dominated by sampling noise and shrinks like 1/sqrt(n);
    the fitted order is the slope of log(distance) against log(n), so -1/2
    is the expected value.
    """
    require_periodic_pair(spec.pair, grid)
    require_unit_mass(density)
    init = density_from_function(grid, density, warn=False)
    reference = vlasov_solve(init, T, spec, vlasov_settings)
    rows = []
    for k, n in enumerate(n_list):
        pts = sample_initial(density, int(n), seed + k)
        moved = integrate_nbody(pts, T, spec, ens_settings)
        hist = histogram_density(moved, grid)
        dist = float(np.sum(np.abs(hist.values - reference.values)) * grid.cell_volume)
        rows.append((float(n), dist))
    rows.sort(key=lambda r: r[0])
    return ConvergenceTable(parameter="n_samples", rows=tuple(rows))
