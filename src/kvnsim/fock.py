"""Finite-mode, fixed-particle-number truncation of the second-quantized
transport generator, with exact propagation and operator-structure checks.

The single-particle modes are the grid-cell indicator functions divided by
the square root of the cell volume, so they are orthonormal under the grid
inner product and the phase-space density diagnostics are simply the mode
occupations per cell volume.  Mode i covers cell (iq, ip) of the PhaseGrid,
i = iq * n_p + ip.  Centered differences with periodic wrap on both axes
make (1/i) d/dq and (1/i) d/dp exactly Hermitian, hence the assembled
generator is Hermitian by construction and the truncated theory is exactly
unitary.

Bose statistics only.

scipy is imported inside the functions that build or propagate sparse
matrices, so that importing this module (as every kvnsim run does) loads
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .phase_space import (
    DensityField,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    mean_field_force,
    pair_gradient_table,
)

__all__ = [
    "FockBasis",
    "FockState",
    "FockOperator",
    "DimensionCapError",
    "build_one_body",
    "build_two_body",
    "assemble_liouvillian",
    "embed_product_state",
    "propagate",
    "density_expectation",
    "quantum_vlasov_residual",
    "QuantumVlasovResult",
    "kernel_hermiticity_report",
    "KernelHermiticityReport",
]

HERMITICITY_TOL = 1e-12
DIMENSION_CAP = 200_000


class DimensionCapError(ValueError):
    """The Fock-sector dimension exceeds DIMENSION_CAP."""


def _require_periodic(grid: PhaseGrid):
    if not (grid.periodic_q and grid.periodic_p):
        raise ValueError(
            "both grid axes must be flagged periodic: skew-symmetric centered "
            "differencing (and hence Hermiticity) needs the wrap"
        )


def _centered_difference(n: int, delta: float) -> sp.csr_matrix:
    """Periodic centered first-difference matrix (real antisymmetric)."""
    import scipy.sparse as sp

    rows = np.repeat(np.arange(n), 2)
    cols = np.empty(2 * n, dtype=int)
    vals = np.empty(2 * n)
    cols[0::2] = (np.arange(n) + 1) % n
    cols[1::2] = (np.arange(n) - 1) % n
    vals[0::2] = 1.0 / (2.0 * delta)
    vals[1::2] = -1.0 / (2.0 * delta)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _max_abs(matrix: sp.spmatrix) -> float:
    m = matrix.tocoo()
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def _require_hermitian(matrix: sp.csr_matrix, what: str) -> sp.csr_matrix:
    dev = _max_abs(matrix - matrix.getH())
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: deviation {dev:.3e}")
    return matrix


def _require_matching_grid(grid: PhaseGrid, basis: FockBasis):
    if grid.n_q * grid.n_p != basis.n_modes:
        raise ValueError(f"grid has {grid.n_q * grid.n_p} cells, basis has {basis.n_modes} modes")


def _momentum_stencil(grid: PhaseGrid) -> sp.csr_matrix:
    """(1/i) d/dp as an M x M one-body matrix."""
    import scipy.sparse as sp

    Dp = _centered_difference(grid.n_p, grid.dp)
    return ((-1j) * sp.kron(sp.identity(grid.n_q), Dp)).tocsr()


def build_one_body(grid: PhaseGrid, spec: ProblemSpec) -> sp.csr_matrix:
    """(p/m) (1/i) d/dq - grad U(q) (1/i) d/dp on the cell-indicator modes,
    Hermitian to 1e-12 or this raises."""
    import scipy.sparse as sp

    _require_periodic(grid)
    Dq = _centered_difference(grid.n_q, grid.dq)
    Dp = _centered_difference(grid.n_p, grid.dp)
    p_over_m = sp.diags(grid.p_centers / spec.mass)
    grad_u = sp.diags(spec.external_gradient(grid.q_centers))
    h = (-1j) * sp.kron(Dq, p_over_m, format="csr") \
        + (1j) * sp.kron(grad_u, Dp, format="csr")
    h = h.tocsr()
    h.eliminate_zeros()
    return _require_hermitian(h, "one-body matrix")


def build_two_body(grid: PhaseGrid, spec: ProblemSpec) -> sp.csr_matrix:
    """-grad v(q - q') (1/i) d/dp on the unprimed argument: the first-quantized
    reference G, with G[(i*M + j), (k*M + l)] the coefficient of a+_i a+_j a_l a_k.
    Assembly never forms it.  Hermitian to 1e-12 or this raises, and that
    carries over to the exchange-symmetrized two-particle operator."""
    import scipy.sparse as sp

    _require_periodic(grid)
    M = grid.n_q * grid.n_p
    if isinstance(spec.pair, NoPair):
        return sp.csr_matrix((M * M, M * M), dtype=complex)
    gradv_q = pair_gradient_table(grid, spec.pair)
    iq = np.repeat(np.arange(grid.n_q), grid.n_p)
    weights = -gradv_q[iq[:, None], iq[None, :]].ravel()
    big = sp.kron(_momentum_stencil(grid), sp.identity(M), format="csr")
    matrix = sp.diags(weights).dot(big).tocsr()
    matrix.eliminate_zeros()
    return _require_hermitian(matrix, "two-body tensor")


@dataclass(frozen=True)
class FockBasis:
    """Fixed-N bosonic sector over M modes, one state per sorted mode-index tuple.

    ``modes[s]`` lists the modes of the N particles of state s in ascending
    order, and the rows follow the lexicographic order of
    ``combinations_with_replacement(range(M), N)``.  A tuple's row is its rank
    in that order, computed from multiset counts as in the combinatorial
    number system (Knuth, TAOCP 4A, 7.2.1.3); no state lookup table is kept.
    """

    n_modes: int
    n_particles: int
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    _multisets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        M, N = self.n_modes, self.n_particles
        dim = self.sector_dimension(M, N)
        if dim > DIMENSION_CAP:
            raise DimensionCapError(
                f"sector dimension {dim} (M={M}, N={N}) exceeds the cap {DIMENSION_CAP}")
        flat = chain.from_iterable(combinations_with_replacement(range(M), N))
        object.__setattr__(self, "modes", np.fromiter(flat, np.int64).reshape(-1, N))
        # multisets[c, r]: size-r multisets of the modes c..M-1, C(M - c + r - 1, r)
        multisets = np.ones((M, N + 1), dtype=np.int64)
        for r in range(1, N + 1):
            multisets[::-1, r] = np.cumsum(multisets[::-1, r - 1])
        object.__setattr__(self, "_multisets", multisets)

    @property
    def dimension(self) -> int:
        return self.modes.shape[0]

    def _rank(self, modes: np.ndarray) -> np.ndarray:
        """Row of each sorted tuple in ``modes`` (shape (..., N))."""
        below = np.concatenate([np.zeros_like(modes[..., :1]), modes[..., :-1]], axis=-1)
        size = np.arange(self.n_particles, 0, -1)
        # tuples that agree before slot j and hold a mode in [below_j, modes_j) there
        return (self._multisets[below, size] - self._multisets[modes, size]).sum(axis=-1)

    def index_of(self, occupation) -> int:
        occ = np.asarray(occupation)
        M, N = self.n_modes, self.n_particles
        if occ.shape != (M,) or occ.dtype.kind not in "iuf" \
                or not np.all((occ >= 0) & (occ <= N) & (occ == np.floor(occ))) or occ.sum() != N:
            raise ValueError(f"expected {M} non-negative integer occupations summing to {N}")
        return int(self._rank(np.repeat(np.arange(M), occ.astype(np.int64))))

    @staticmethod
    def sector_dimension(n_modes: int, n_particles: int) -> int:
        return comb(n_modes + n_particles - 1, n_particles)


@dataclass
class FockState:
    """Complex amplitude vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise ValueError("amplitude vector does not match the basis dimension")
        if not (np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class FockOperator:
    """Sparse operator on a FockBasis with a verified Hermitian flag."""

    basis: FockBasis
    matrix: sp.csr_matrix
    hermitian: bool = field(init=False)
    _deviation: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dimension, self.basis.dimension):
            raise ValueError("matrix shape does not match the basis dimension")
        self._deviation = _max_abs(self.matrix - self.matrix.getH())
        self.hermitian = self._deviation <= HERMITICITY_TOL

    def hermiticity_deviation(self) -> float:
        return self._deviation


def _tally(values: np.ndarray, n: int) -> np.ndarray:
    """(rows x n) count of each value in [0, n) per row of ``values``."""
    flat = (np.arange(len(values))[:, None] * n + values).ravel()
    return np.bincount(flat, minlength=len(values) * n).reshape(len(values), n)


def _slot_sum(slots: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``_tally(slots, n).T @ weights`` for real weights, summed over the slots
    directly, so memory scales with the slots and not with rows x n."""
    return np.bincount(slots.ravel(), weights=np.repeat(weights, slots.shape[1]), minlength=n)


def _pair_correlation(basis: FockBasis, weights: np.ndarray) -> np.ndarray:
    """(M x M) sum_s weights[s] n_s(i) n_s(j).  n_s(i) n_s(j) counts the slot
    pairs (x, y) of state s that hold modes (i, j), so the N^2 slot pairs of
    each state are summed as the flat index i*M + j."""
    M, slots = basis.n_modes, basis.modes
    pairs = (slots[:, :, None] * M + slots[:, None, :]).reshape(len(slots), -1)
    return _slot_sum(pairs, weights, M * M).reshape(M, M)


def _hops(basis: FockBasis, stencil: sp.spmatrix):
    """Every move a+_i a_k of an M x M stencil over every basis state, as
    (target row, source col, i, stencil value, sqrt(n_k (n_i - delta_ik + 1)))."""
    modes = basis.modes
    # a source moves each distinct occupied mode k once, from its first slot
    col, slot = np.nonzero(np.diff(modes, axis=1, prepend=-1))
    k = modes[col, slot]
    csc = stencil.tocsc()
    per = np.diff(csc.indptr)[k]
    entry = np.repeat(csc.indptr[k] - np.cumsum(per) + per, per) + np.arange(per.sum())
    col, slot, k = np.repeat(col, per), np.repeat(slot, per), np.repeat(k, per)
    i = csc.indices[entry]
    target = modes[col]
    n_k = np.count_nonzero(target == k[:, None], axis=1)
    n_i = np.count_nonzero(target == i[:, None], axis=1)
    factor = np.sqrt(n_k * (n_i - (i == k) + 1))
    target[np.arange(len(col)), slot] = i
    row = basis._rank(np.sort(target, axis=1))
    return row, col, i, csc.data[entry], factor


def _sector_moves(grid: PhaseGrid, spec: ProblemSpec, basis: FockBasis) -> list[np.ndarray]:
    """(row, col, value) of every one-body and pair move; the per-term arrays
    are freed on return, before the caller builds the sparse matrix."""
    row, col, _, hik, factor = _hops(basis, build_one_body(grid, spec))
    moves = [(row, col, hik * factor)]
    if not isinstance(spec.pair, NoPair):
        gradv_q = pair_gradient_table(grid, spec.pair)
        # W(s, a) = -sum_a' gradv[a, a'] n_s(a'), from the particles per q-column
        w_field = -_tally(basis.modes // grid.n_p, grid.n_q) @ gradv_q.T
        row, col, i, dik, factor = _hops(basis, _momentum_stencil(grid))
        moves.append((row, col, (dik * w_field[col, i // grid.n_p]) * factor))
    return [np.concatenate(part) for part in zip(*moves)]


def assemble_liouvillian(grid: PhaseGrid, spec: ProblemSpec, basis: FockBasis) -> FockOperator:
    """Lift the generators of (grid, spec) to the fixed-N bosonic sector.

    The lift is sum_ij h_ij a+_i a_j plus sum g_(ij)(kl) a+_i a+_j a_l a_k
    with no extra prefactor on the pair term: that convention makes the N=2
    sector reproduce the first-quantized two-particle generator
    h(x) + h(x') + g(x,x') + g(x',x) exactly, which is the normative test.
    Both terms go through one kernel of hops a+_i a_k over all states: the
    one-body term with value h_ik of ``build_one_body``, the pair term with
    d_ik W(s, q-column of i), d the momentum stencil and W(s, a) = -sum_a'
    grad v(q_a - q_a') n_s(a'), so the G of ``build_two_body`` is never
    formed.  Total occupation is conserved move by move, so [L, N] = 0 exactly.
    """
    import scipy.sparse as sp

    _require_matching_grid(grid, basis)
    dim = basis.dimension
    row, col, val = _sector_moves(grid, spec, basis)
    matrix = sp.coo_matrix((val, (row, col)), shape=(dim, dim), dtype=complex).tocsr()
    matrix.eliminate_zeros()
    return FockOperator(basis=basis, matrix=matrix)


def embed_product_state(psi: np.ndarray, basis: FockBasis, grid: PhaseGrid) -> FockState:
    """Embed a symmetric N-particle grid function into the fixed-N sector.

    Expanding the grid function in the orthonormal indicator modes and
    applying the bosonic creation operators yields occupation amplitudes
    c * sqrt(N! / prod n_i!); the embedding is an isometry, so a unit-norm
    grid function gives a unit-norm state.  Supported for N = 1 (vector of
    cell values, shape (M,) or (n_q, n_p)) and N = 2 (matrix of cell-pair
    values, shape (M, M), symmetric to 1e-12).
    """
    _require_matching_grid(grid, basis)
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


def propagate(state: FockState, op: FockOperator, t: float) -> FockState:
    """exp(-i L t) applied to the state.

    The action of the matrix exponential is computed without forming it
    (scipy's ``expm_multiply``, Al-Mohy & Higham 2011).
    """
    from scipy.sparse.linalg import expm_multiply

    if not op.hermitian:
        raise ValueError(
            f"operator is not Hermitian (deviation {op.hermiticity_deviation():.3e}); "
            "refusing to propagate"
        )
    sector = (state.basis.n_modes, state.basis.n_particles)
    if sector != (op.basis.n_modes, op.basis.n_particles):
        raise ValueError("state and operator bases do not match")
    if t == 0.0:
        return FockState(state.basis, state.amplitudes.copy())
    amp = expm_multiply((-1j * t) * op.matrix, state.amplitudes)
    return FockState(state.basis, amp)


def density_expectation(state: FockState, grid: PhaseGrid) -> DensityField:
    """Per-cell occupation expectations over the cell volume.

    Integrates to the particle number exactly (diagonal trace identity).
    """
    _require_matching_grid(grid, state.basis)
    w = np.abs(state.amplitudes) ** 2
    mode_occ = _slot_sum(state.basis.modes, w, state.basis.n_modes)
    values = (mode_occ / grid.cell_volume).reshape(grid.n_q, grid.n_p)
    return DensityField(grid, values)


def _roll_derivative(values: np.ndarray, delta: float, axis: int) -> np.ndarray:
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * delta)


@dataclass(frozen=True)
class QuantumVlasovResult:
    """Residual of the transport identity for the density expectations.

    All spatial terms use the same centered periodic stencils as the
    generator assembly, so the residual vanishes to stencil-consistency
    order; the time derivative enters both as a central difference of
    propagated expectations and exactly through the commutator, which
    isolates the finite-difference component.
    """

    residual: np.ndarray
    dt_term_fd: np.ndarray
    dt_term_exact: np.ndarray
    transport_term: np.ndarray
    force_external_term: np.ndarray
    force_pair_term: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def dt_component(self) -> np.ndarray:
        """Finite-difference error of the time-derivative term alone."""
        return self.dt_term_fd - self.dt_term_exact


def quantum_vlasov_residual(state: FockState, op: FockOperator, grid: PhaseGrid,
                            spec: ProblemSpec, t: float, dt_fd: float) -> QuantumVlasovResult:
    """Assemble the transport-identity residual for the propagated state."""
    if not dt_fd > 0:
        raise ValueError("dt_fd must be > 0")
    _require_matching_grid(grid, state.basis)
    vol = grid.cell_volume
    shape = (grid.n_q, grid.n_p)

    at = propagate(state, op, t)
    plus = propagate(state, op, t + dt_fd)
    minus = propagate(state, op, t - dt_fd)
    dens = density_expectation(at, grid).values
    dens_p = density_expectation(plus, grid).values
    dens_m = density_expectation(minus, grid).values
    dt_fd_term = (dens_p - dens_m) / (2 * dt_fd)

    # exact d/dt via the commutator: d<n_i>/dt = -2 Im <L a, n_i a>
    w = op.matrix @ at.amplitudes
    u = np.conj(w) * at.amplitudes
    z_imag = _slot_sum(at.basis.modes, u.imag, at.basis.n_modes)
    dt_exact_term = (-2.0 * z_imag / vol).reshape(shape)

    transport = (grid.p_centers[None, :] / spec.mass) * _roll_derivative(dens, grid.dq, axis=0)
    grad_u = spec.external_gradient(grid.q_centers)
    d_dens_dp = _roll_derivative(dens, grid.dp, axis=1)
    ext_term = -grad_u[:, None] * d_dens_dp

    if isinstance(spec.pair, NoPair):
        pair_term = np.zeros(shape)
    else:
        gradv_q = pair_gradient_table(grid, spec.pair)
        corr = _pair_correlation(at.basis, np.abs(at.amplitudes) ** 2)
        corr4 = corr.reshape(grid.n_q, grid.n_p, grid.n_q, grid.n_p) / vol**2
        d_corr = _roll_derivative(corr4, grid.dp, axis=3)
        inner = d_corr.sum(axis=1) * grid.dp          # (a', a, b)
        pair_term = -grid.dq * np.einsum("ij,jik->ik", gradv_q, inner)

    residual = dt_fd_term + transport + ext_term + pair_term
    return QuantumVlasovResult(
        residual=residual,
        dt_term_fd=dt_fd_term,
        dt_term_exact=dt_exact_term,
        transport_term=transport,
        force_external_term=ext_term,
        force_pair_term=pair_term,
    )


@dataclass(frozen=True)
class KernelHermiticityReport:
    """Hermiticity deviations of the mean-field force and drag kernels."""

    force_hermiticity: float       # max |F - F^dag|, F diagonal so 0 exactly
    drag_antihermiticity: float    # max over q of |K(q) + K(q)^dag|


def kernel_hermiticity_report(grid: PhaseGrid, spec: ProblemSpec,
                              density_ref: DensityField) -> KernelHermiticityReport:
    """Check the operator structure behind the density transport identity.

    The mean-field force kernel is diagonal multiplication, hence Hermitian;
    the drag kernel pairs the pair-potential gradient with the plain d/dp
    stencil, whose periodic antisymmetry is the discrete integration by
    parts, hence anti-Hermitian.
    """
    import scipy.sparse as sp

    _require_periodic(grid)
    if density_ref.grid != grid:
        raise ValueError("the reference density must live on the given grid")
    gradv_q = pair_gradient_table(grid, spec.pair)
    f_vals = mean_field_force(density_ref, spec)
    f_diag = sp.diags(np.repeat(f_vals, grid.n_p)).tocsr()
    f_dev = _max_abs(f_diag - f_diag.getH())

    dp_plain = 1j * _momentum_stencil(grid)
    iq = np.repeat(np.arange(grid.n_q), grid.n_p)
    drag_dev = 0.0
    for a in range(grid.n_q):
        kernel = sp.diags(gradv_q[a, iq]).dot(dp_plain)
        drag_dev = max(drag_dev, _max_abs(kernel + kernel.getH()))
    return KernelHermiticityReport(force_hermiticity=f_dev, drag_antihermiticity=drag_dev)
