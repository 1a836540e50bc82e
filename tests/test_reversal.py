"""Time-reversal echo (Peres, Phys. Rev. A 30, 1610, 1984) of every method:
evolve for T, flip p -> -p, evolve for T again and flip back.

Every Hamiltonian here is even in p, so the flip reverses the drift p/m d/dq
and the kick F(q) d/dp alike, and the echo is the identity up to what the
method loses.  The flip is a mirrored p-cell for Fock modes and grid fields
(cell (iq, ip) to (iq, n_p - 1 - ip), which negates p on a grid symmetric in
p) and a negated p column for points.  Fock propagation is orthogonal and
Verlet symmetric (Hairer, Lubich & Wanner, Geometric Numerical Integration,
2006), so those echoes return the initial state up to rounding; the
semi-Lagrangian solver dissipates, and its linear echo gap falls at first
order in the cell size.
"""

import numpy as np
import pytest

from kvnsim.densities import GaussianDensity
from kvnsim.ensemble import EnsembleSettings, integrate_nbody, sample_initial
from kvnsim.flow import FlowSettings, flow_map_points
from kvnsim.fock import FockBasis, FockState, assemble_liouvillian, embed_product_state, propagate
from kvnsim.phase_space import (
    CosinePair,
    CosinePotential,
    DensityField,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
    density_from_function,
)
from kvnsim.vlasov import VlasovSettings, _PeriodicAxis, vlasov_solve

# the fock-pair-144 physics on a 6 x 6 grid
GRID = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 6, 6, periodic_q=True, periodic_p=True)
SPEC = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.4),
                   pair=GaussianPair(strength=0.15, width=1.0))


def flip_momentum(state: FockState, grid: PhaseGrid) -> FockState:
    """The state with every particle's p negated: each mode moves to its
    mirrored p-cell, and each state to the rank of its re-sorted modes."""
    basis = state.basis
    iq, ip = np.divmod(basis.modes, grid.n_p)
    mirrored = np.sort(iq * grid.n_p + (grid.n_p - 1 - ip), axis=1)
    amp = np.empty_like(state.amplitudes)
    amp[basis._rank(mirrored)] = state.amplitudes
    return FockState(basis, amp)


@pytest.mark.parametrize("n_particles", [1, 2, 3])
def test_fock_time_reversal_echo_returns_the_initial_state(n_particles):
    # a density moving in +p, so that neither the flip nor the evolution is trivial
    density = density_from_function(GRID, GaussianDensity(0.3, 0.6, 0.9, 0.9), warn=False)
    orbital = np.sqrt(density.values)
    orbital /= np.sqrt(np.sum(orbital**2) * GRID.cell_volume)
    basis = FockBasis(n_modes=GRID.n_q * GRID.n_p, n_particles=n_particles)
    op = assemble_liouvillian(GRID, SPEC, basis)
    start = embed_product_state(orbital, basis, GRID)

    forward = propagate(start, op, 1.0)
    echo = flip_momentum(propagate(flip_momentum(forward, GRID), op, 1.0), GRID)

    assert np.max(np.abs(forward.amplitudes - start.amplitudes)) > 1e-2
    assert np.max(np.abs(flip_momentum(start, GRID).amplitudes - start.amplitudes)) > 1e-2
    assert np.max(np.abs(echo.amplitudes - start.amplitudes)) <= 1e-13


def flip_points(points: np.ndarray) -> np.ndarray:
    return points * np.array([1.0, -1.0])


def test_ensemble_time_reversal_echo_returns_the_initial_points():
    # the ensemble-gauss-2k physics: 2000 particles, dt 0.01, T = 0.5
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.1, width=0.8))
    settings = EnsembleSettings(dt=0.01)
    start = sample_initial(GaussianDensity(0.6, 0.0, 0.7, 0.7), 2000, seed=1)
    forward = integrate_nbody(start, 0.5, spec, settings)
    echo = flip_points(integrate_nbody(flip_points(forward), 0.5, spec, settings))
    assert np.max(np.abs(forward - start)) > 0.1
    assert np.max(np.abs(echo - start)) <= 1e-12


@pytest.mark.parametrize("external", [QuarticPotential(b=1.0, a=0.5),
                                      CosinePotential(wavenumber=1.0, amplitude=0.3),
                                      HarmonicPotential(omega=1.0)], ids=type)
def test_flow_time_reversal_echo_returns_the_initial_points(external):
    spec, settings = ProblemSpec(external=external), FlowSettings(dt=1e-3)
    start = np.random.default_rng(0).standard_normal((200, 2))
    forward = flow_map_points(start, 1.0, spec, settings)
    echo = flip_points(flow_map_points(flip_points(forward), 1.0, spec, settings))
    assert np.max(np.abs(forward - start)) > 0.1
    assert np.max(np.abs(echo - start)) <= 1e-13


def vlasov_echo_gap(n: int) -> float:
    """The relative L1 gap of the linear Vlasov echo on the vlasov-periodic-256
    physics at n x n cells, T = 2, dt 0.02."""
    grid = PhaseGrid(-np.pi, np.pi, -6.0, 6.0, n, n, periodic_q=True)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.3),
                       pair=CosinePair(strength=0.2, wavenumber=1.0))
    settings = VlasovSettings(dt=0.02, interpolation="linear")
    start = density_from_function(grid, GaussianDensity(0.5, 0.0, 0.8, 0.9), warn=False)
    forward = vlasov_solve(start, 2.0, spec, settings)
    back = vlasov_solve(DensityField(grid, forward.values[:, ::-1].copy()), 2.0, spec, settings)
    echo = back.values[:, ::-1]
    assert echo.min() >= 0.0  # linear interpolation never undershoots: nothing is clipped
    return np.abs(echo - start.values).sum() / np.abs(start.values).sum()


def test_linear_vlasov_echo_gap_halves_per_doubling(monkeypatch):
    # the linear scheme's dissipation is first order: 0.329, 0.174 and 0.078
    # at 64^2, 128^2 and 256^2; each solve's two half drifts rebuild their plan
    rebuilt = []
    sweep = _PeriodicAxis.sweep
    monkeypatch.setattr(_PeriodicAxis, "sweep", lambda self, values, plan: (
        rebuilt.append(plan[1] is None) or sweep(self, values, plan)))
    gaps = [vlasov_echo_gap(n) for n in (64, 128, 256)]
    assert rebuilt.count(True) == 2 * 2 * 3
    assert gaps[0] < 0.5
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 <= coarse / fine <= 2.3
