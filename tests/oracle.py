"""The first-quantized reference the tests hold Fock assembly and embedding
to (C2, C6).

``build_one_body`` is the real one-body generator and ``build_two_body`` the
first-quantized pair tensor, both on the cell-indicator modes of a grid and
both built from the stencil helpers of ``kvnsim.fock``, read through the
module so that a test which patches a helper reaches both.  Assembly never
forms either matrix.  ``embed_grid_function`` embeds any exchange-symmetric
two-particle grid function, such as an entangled or first-quantized
propagated state, through its M x M matrix of cell-pair values; a run starts
from one orbital, which ``kvnsim.fock.embed_product_state`` embeds with no
such matrix.
"""

import numpy as np

from kvnsim import fock
from kvnsim.fock import EllMatrix, FockBasis, FockState
from kvnsim.phase_space import NoPair, PhaseGrid, ProblemSpec, pair_gradient_table


def _require_antisymmetric(matrix: EllMatrix, what: str) -> EllMatrix:
    dev = fock._transpose_deviation(matrix)
    if not dev <= fock.HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: deviation {dev:.3e}")
    return matrix


def build_one_body(grid: PhaseGrid, spec: ProblemSpec) -> EllMatrix:
    """-(p/m) d/dq + grad U(q) d/dp on the cell-indicator modes: the real
    generator k = -ih of the one-body Liouvillian h = (p/m) (1/i) d/dq -
    grad U(q) (1/i) d/dp, antisymmetric (h Hermitian) to 1e-12 or this raises."""
    n_p = grid.n_p
    kick = fock._kron(fock._diagonal(spec.external_gradient(grid.q_centers)),
                      fock._centered_difference(n_p, grid.dp, grid.periodic_p), n_p)
    row, col, val = (np.concatenate(part) for part in zip(fock._drift(grid, spec), kick))
    return _require_antisymmetric(EllMatrix.from_coo(row, col, val, grid.n_q * n_p),
                                  "one-body matrix")


def build_two_body(grid: PhaseGrid, spec: ProblemSpec) -> EllMatrix:
    """grad v(q - q') d/dp on the unprimed argument: -i times the first-quantized
    reference G, with G[(i*M + j), (k*M + l)] the coefficient of a+_i a+_j a_l a_k.
    Antisymmetric to 1e-12 or this raises, and that carries over to the
    exchange-symmetrized two-particle operator."""
    M = grid.n_q * grid.n_p
    if isinstance(spec.pair, NoPair):
        return EllMatrix.from_coo([], [], [], M * M)
    gradv_q = pair_gradient_table(grid, spec.pair)
    iq = np.repeat(np.arange(grid.n_q), grid.n_p)
    weights = -gradv_q[iq[:, None], iq[None, :]].ravel()
    row, col, val = fock._kron(fock._momentum_stencil(grid).entries(),
                               fock._diagonal(np.ones(M)), M)
    matrix = EllMatrix.from_coo(row, col, weights[row] * val, M * M)
    return _require_antisymmetric(matrix, "two-body tensor")


def index_of(basis: fock.FockBasis, occupation) -> int:
    """The row of ``basis`` whose state has these occupation numbers."""
    modes = np.repeat(np.arange(basis.n_modes), np.asarray(occupation, dtype=np.int64))
    return int(basis._rank(modes))


def embed_grid_function(psi: np.ndarray, basis: FockBasis, grid: PhaseGrid) -> FockState:
    """Embed a symmetric N-particle grid function into the fixed-N sector.

    Expanding the grid function in the orthonormal indicator modes and
    applying the bosonic creation operators yields occupation amplitudes
    c * sqrt(N! / prod n_i!); the embedding is an isometry, so a unit-norm
    grid function gives a unit-norm state.  Supported for N = 1 (vector of
    cell values, shape (M,) or (n_q, n_p)) and N = 2 (matrix of cell-pair
    values, shape (M, M), symmetric to 1e-12).
    """
    fock._require_matching_grid(grid, basis)
    M = basis.n_modes
    vol = grid.cell_volume
    psi = np.asarray(psi, dtype=complex)
    if basis.n_particles == 1:
        flat = psi.reshape(M) if psi.shape == (grid.n_q, grid.n_p) else psi
        if flat.shape != (M,):
            raise ValueError("one-particle grid function must have M values")
        return FockState(basis, flat * np.sqrt(vol))
    if basis.n_particles == 2:
        if psi.shape != (M, M):
            raise ValueError("two-particle grid function must be an (M, M) array")
        scale = np.max(np.abs(psi))
        if scale > 0 and np.max(np.abs(psi - psi.T)) > 1e-12 * scale:
            raise ValueError("two-particle grid function must be exchange symmetric")
        a, b = basis.modes.T
        coeff = (psi * vol)[a, b]
        return FockState(basis, np.where(a == b, coeff, np.sqrt(2.0) * coeff))
    raise NotImplementedError("grid-function embedding is implemented for N <= 2")
