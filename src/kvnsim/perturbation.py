"""First-order time-dependent perturbation theory for the density.

The zeroth order transports the initial density along the non-interacting
backward characteristics; the first-order correction integrates a source
built from the momentum gradient of the transported density and the pair
force of its spatial marginal:

    rho_0(x, t) = rho_init(Phi_{-t}(x))
    src(q, p, t) = d rho_0/dp (q, p, t) * integral dq' n_0(q', t) grad v(q - q')
    rho_1(x, t) = integral_0^t ds  src(Phi_{s-t}(x), s)

The initial density stays an analytic callable throughout: flows compose
inside function arguments, so no interpolation error enters the quantities
this module exists to cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .flow import FlowSettings, _as_points, flow_map_points
from .phase_space import (
    DensityField,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
    pair_force_sum,
)
from .vlasov import VlasovSettings, vlasov_solve

__all__ = [
    "PerturbationSettings",
    "AuxGridError",
    "transported_density_points",
    "interaction_source_points",
    "first_order_correction_points",
    "perturbative_density",
    "residual_vs_vlasov",
    "ConvergenceTable",
]


class AuxGridError(ValueError):
    """The auxiliary marginal grid is too coarse or too small."""


@dataclass(frozen=True)
class PerturbationSettings:
    """Quadrature and differencing knobs for the perturbative pipeline.

    ``aux_grid`` hosts the spatial marginal of the transported density at
    intermediate times; it is independent of any solver grid on purpose.
    """

    aux_grid: PhaseGrid
    flow: FlowSettings = field(default_factory=lambda: FlowSettings(dt=1e-3))
    n_s: int = 16
    h_p: float = 1e-4

    def __post_init__(self):
        if self.n_s < 2:
            raise ValueError("n_s must be >= 2")
        if not self.h_p > 0:
            raise ValueError("h_p must be > 0")


def transported_density_points(points: np.ndarray, t: float, rho_init, spec: ProblemSpec,
                               flow_settings: FlowSettings, grid: PhaseGrid) -> np.ndarray:
    """Zeroth-order density rho_init(Phi_{-t}(x)) at a (2,) point or an (n, 2)
    array of points of ``grid``, as a 1-d array of one value per point.  On a
    periodic-q grid the back-traced points are wrapped into its domain first
    (`PhaseGrid.wrap_points`), where rho_init is the initial field."""
    back = grid.wrap_points(np.atleast_2d(flow_map_points(points, -t, spec, flow_settings)))
    return np.asarray(rho_init(back[:, 0], back[:, 1]), dtype=float)


def _momentum_gradient(points: np.ndarray, t: float, rho_init, spec, settings,
                       grid: PhaseGrid) -> np.ndarray:
    h = settings.h_p
    up = points + np.array([0.0, h])
    dn = points - np.array([0.0, h])
    fu = transported_density_points(up, t, rho_init, spec, settings.flow, grid)
    fd = transported_density_points(dn, t, rho_init, spec, settings.flow, grid)
    return (fu - fd) / (2.0 * h)


def _pair_force_integral(t: float, rho_init, spec: ProblemSpec, settings: PerturbationSettings):
    """Return I(q) = sum_k n0(q_k, t) grad v(q - q_k) dq over the aux grid's
    q-centers, as the shared pair-sum kernel bound to those sources.

    The marginal n0 is built by pushing the analytic initial density backward
    onto the dedicated auxiliary grid (midpoint quadrature in p)."""
    aux = settings.aux_grid
    Qa, Pa = aux.meshgrid()
    pts = np.column_stack([Qa.ravel(), Pa.ravel()])
    vals = transported_density_points(pts, t, rho_init, spec, settings.flow, aux)
    marginal = vals.reshape(aux.n_q, aux.n_p).sum(axis=1) * aux.dp
    mass = marginal.sum() * aux.dq
    ref = getattr(rho_init, "mass", None)
    if ref is not None and abs(mass - ref) > 1e-3 * max(abs(ref), 1e-300):
        raise AuxGridError(
            f"marginal mass {mass:.6g} deviates from the initial mass {ref:.6g} "
            "by more than 1e-3 relative; refine or enlarge the auxiliary grid"
        )
    return partial(pair_force_sum, sources=aux.q_centers, weights=marginal * aux.dq,
                   pair=spec.pair, grid=aux)


def interaction_source_points(points: np.ndarray, t: float, rho_init, spec: ProblemSpec,
                              settings: PerturbationSettings, grid: PhaseGrid,
                              pair_integral=None) -> np.ndarray:
    """Source values at a (2,) point or an (n, 2) array of points of ``grid``."""
    pts = np.atleast_2d(_as_points(points))
    if isinstance(spec.pair, NoPair):
        return np.zeros(pts.shape[0])
    if pair_integral is None:
        pair_integral = _pair_force_integral(t, rho_init, spec, settings)
    grad_p = _momentum_gradient(pts, t, rho_init, spec, settings, grid)
    return grad_p * pair_integral(pts[:, 0])


def first_order_correction_points(points: np.ndarray, t: float, rho_init, spec: ProblemSpec,
                                  settings: PerturbationSettings,
                                  grid: PhaseGrid) -> np.ndarray:
    """First-order density correction at a (2,) point or an (n, 2) array of points
    of ``grid``: the source integrated along each backward characteristic by
    Gauss-Legendre."""
    pts = np.atleast_2d(_as_points(points))
    if t == 0.0 or isinstance(spec.pair, NoPair):
        return np.zeros(pts.shape[0])
    nodes, weights = np.polynomial.legendre.leggauss(settings.n_s)
    out = np.zeros(pts.shape[0])
    for s, w in zip(0.5 * t * (nodes + 1.0), 0.5 * t * weights):
        traced = np.atleast_2d(flow_map_points(pts, s - t, spec, settings.flow))
        pair_integral = _pair_force_integral(s, rho_init, spec, settings)
        out += w * interaction_source_points(traced, s, rho_init, spec, settings, grid,
                                             pair_integral=pair_integral)
    return out


def perturbative_density(grid: PhaseGrid, t: float, rho_init, spec: ProblemSpec,
                         settings: PerturbationSettings) -> DensityField:
    """Zeroth plus first order evaluated at every cell center."""
    if t < 0:
        raise ValueError("t must be >= 0")
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    vals = transported_density_points(pts, t, rho_init, spec, settings.flow, grid)
    vals = vals + first_order_correction_points(pts, t, rho_init, spec, settings, grid)
    return DensityField(grid, vals.reshape(grid.n_q, grid.n_p), time=t)


@dataclass(frozen=True)
class ConvergenceTable:
    """Error-vs-parameter sweep and its fitted log-log slope.

    ``fitted_order`` is the least-squares slope of log(error) against
    log(parameter) over the rows whose parameter is > 0, taken in row order;
    it is NaN when fewer than two such rows exist.
    """

    parameter: str
    rows: tuple[tuple[float, float], ...]  # (parameter value, error)
    fitted_order: float = field(init=False)

    def __post_init__(self):
        fit = [row for row in self.rows if row[0] > 0]
        order = float("nan")
        if len(fit) >= 2:
            log_param, log_err = np.log(np.asarray(fit, dtype=float)).T
            order = float(np.polyfit(log_param, log_err, 1)[0])
        object.__setattr__(self, "fitted_order", order)

    @property
    def ratios(self) -> list[float]:
        """Ratios of consecutive errors over the rows of the fit (decreasing error expected)."""
        errs = [e for param, e in self.rows if param > 0]
        return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def residual_vs_vlasov(t: float, rho_init, spec: ProblemSpec, eps_list,
                       grid: PhaseGrid, settings: PerturbationSettings,
                       vlasov_settings: VlasovSettings) -> ConvergenceTable:
    """L-infinity distance between the perturbative density and the grid
    solver at time t, for each coupling strength.

    For a first-order-accurate expansion the distance shrinks like the
    square of the coupling; the fitted order is the least-squares slope of
    log(error) against log(strength) over the nonzero strengths.  A zero
    strength row, when requested, reports the pure discretization floor
    between the two representations.

    The zeroth order does not depend on the strength and the first-order
    correction is linear in it, so the expansion is made once, at the largest
    strength eps_max, and a row at eps interpolates between the zeroth order
    and that expansion with weight eps / eps_max.  (At unit strength the
    expanded density could go negative, which DensityField refuses.)
    """
    specs = [spec.with_pair_strength(eps) for eps in eps_list]  # refuse before expanding
    top = max(eps_list, default=0.0)
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    zeroth = transported_density_points(pts, t, rho_init, spec, settings.flow, grid)
    zeroth = full = zeroth.reshape(grid.n_q, grid.n_p)
    if top > 0:
        full = perturbative_density(grid, t, rho_init, spec.with_pair_strength(top),
                                    settings).values
    rows = []
    init = density_from_function(grid, rho_init, warn=False)
    for eps, spec_eps in zip(eps_list, specs):
        w = eps / top if top > 0 else 0.0
        pert = (1.0 - w) * zeroth + w * full
        solved = vlasov_solve(init, t, spec_eps, vlasov_settings, snapshot_times=[t])[-1]
        linf = float(np.max(np.abs(pert - solved.values)))
        rows.append((float(eps), linf))
    rows.sort(key=lambda r: -r[0])
    return ConvergenceTable(parameter="strength", rows=tuple(rows))
