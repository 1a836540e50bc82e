"""Time-reversal echo (Peres, Phys. Rev. A 30, 1610, 1984) of the Fock
propagation: evolve for T, flip p -> -p, evolve for T again and flip back.

The flip maps cell (iq, ip) to (iq, n_p - 1 - ip), which negates p on a grid
symmetric in p.  It reverses the drift p/m d/dq and the kick F(q) d/dp alike,
so it anticommutes with the generator K, and the echo returns the initial
state up to rounding.
"""

import numpy as np
import pytest

from kvnsim.densities import GaussianDensity
from kvnsim.fock import FockBasis, FockState, assemble_liouvillian, embed_product_state, propagate
from kvnsim.phase_space import (
    CosinePotential,
    GaussianPair,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
)

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
