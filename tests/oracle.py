"""The first-quantized reference the tests hold Fock assembly and embedding
to (C2, C6).

``build_one_body`` is the real one-body generator and ``build_two_body`` the
first-quantized pair tensor, both on the cell-indicator modes of a grid and
both built from the stencil helpers of ``kvnsim.fock``, read through the
module so that a test which patches a helper reaches both.  Assembly never
forms either matrix.  ``first_quantized_generator`` applies the N-particle
generator the two build, and ``embed_grid_function`` embeds any
exchange-symmetric N-particle grid function, such as an entangled or
first-quantized propagated state, through its M^N tensor of cell values; a
run starts from one orbital, which ``kvnsim.fock.embed_product_state`` embeds
with no such tensor.
"""

import math
from collections import Counter
from itertools import permutations

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


def dense(matrix: EllMatrix) -> np.ndarray:
    """An EllMatrix as a dense array."""
    row, col, val = matrix.entries()
    out = np.zeros((len(matrix.val),) * 2)
    out[row, col] = val
    return out


def first_quantized_generator(grid: PhaseGrid, spec: ProblemSpec, n_particles: int):
    """psi -> K psi for the real N-particle generator K = -iH on (M,) * N tensors
    of cell values: the one-body generator on each argument, and the pair
    tensor on each ordered pair of arguments (a, b), a != b.  For N = 2 that is
    h(x) + h(x') + g(x,x') + g(x',x)."""
    M = grid.n_q * grid.n_p
    one = dense(build_one_body(grid, spec))
    two = dense(build_two_body(grid, spec)).reshape(M, M, M, M)

    def apply(psi: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(psi), dtype=np.result_type(psi, float))
        for a in range(n_particles):
            out += np.moveaxis(np.tensordot(one, psi, axes=(1, a)), 0, a)
        for a, b in permutations(range(n_particles), 2):
            out += np.moveaxis(np.tensordot(two, psi, axes=((2, 3), (a, b))), (0, 1), (a, b))
        return out

    return apply


def embed_grid_function(psi: np.ndarray, basis: FockBasis, grid: PhaseGrid) -> FockState:
    """Embed a symmetric N-particle grid function into the fixed-N sector.

    ``psi`` holds the cell values, shape (M,) * N, and is symmetric under every
    exchange of two arguments to 1e-12.  Expanding it in the orthonormal
    indicator modes and applying the bosonic creation operators yields, for the
    state with sorted modes a, the amplitude psi[a] vol^(N/2) sqrt(N! / prod n_i!);
    the embedding is an isometry, so a unit-norm grid function gives a
    unit-norm state.
    """
    fock._require_matching_grid(grid, basis)
    M, N = basis.n_modes, basis.n_particles
    vol = grid.cell_volume
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (M,) * N:
        raise ValueError(f"an {N}-particle grid function must be an {(M,) * N} array")
    scale = np.max(np.abs(psi), initial=0.0)
    for a in range(N - 1):
        if np.max(np.abs(psi - psi.swapaxes(a, a + 1))) > 1e-12 * scale:
            raise ValueError(f"{N}-particle grid function must be exchange symmetric")
    weights = [math.factorial(N) / math.prod(map(math.factorial, Counter(modes).values()))
               for modes in basis.modes.tolist()]
    coeff = psi[tuple(basis.modes.T)] * (vol ** (N // 2) * math.sqrt(vol) ** (N % 2))
    return FockState(basis, coeff * np.sqrt(weights))
