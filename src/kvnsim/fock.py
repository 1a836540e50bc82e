"""Finite-mode, fixed-particle-number truncation of the second-quantized
transport generator, with exact propagation and operator-structure checks.

The single-particle modes are the grid-cell indicator functions divided by
the square root of the cell volume, so they are orthonormal under the grid
inner product and the phase-space density diagnostics are simply the mode
occupations per cell volume.  Mode i covers cell (iq, ip) of the PhaseGrid,
i = iq * n_p + ip.  Centered differences, wrapped on a periodic axis and cut
at the edges of an open one, are real and antisymmetric, so the assembled
Liouvillian is L = iK with K real and antisymmetric: L is Hermitian by
construction, and exp(-iLt) = exp(Kt) is a real orthogonal matrix, so the
truncated theory is exactly unitary.  This is the Koopman-von Neumann fact that the Liouvillian is
purely imaginary, and everything here stores and applies the real generator
K = -iL, in row-padded ELL form, with numpy alone.  Its rows are built state
by state, as the quantum Vlasov equation reads: each particle of a state s
drifts with p/m along q and is kicked along p by the force of s itself.

Bose statistics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .phase_space import (
    CostError,
    DensityField,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    mean_field_force,
    pair_gradient_table,
)

__all__ = [
    "EllMatrix",
    "FockBasis",
    "FockState",
    "FockOperator",
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
# source states per hop-kernel pass and entries per transpose-check pass: bounds their work
_HOP_BLOCK = 1 << 10
# bytes of x one matvec tile gathers (4096 rows of 8 doubles); 64 KiB tiles
# made a 25x25, N = 2 propagation about 10% slower through per-tile overhead
_MATVEC_TILE_BYTES = 1 << 18
# propagation over R|t| above this many Chebyshev terms (one matvec each) is refused
_MAX_SERIES_TERMS = 10**7


@dataclass(frozen=True)
class EllMatrix:
    """Real square matrix in row-padded ELL form (Bell & Garland, SC'09): row r
    holds the values ``val[r]`` in the columns ``idx[r]``, in ascending column
    order, and its padding slots hold 0.0 at column r.  It is built block by
    block of rows (``_from_rows``), so no sort spans more than one block."""

    idx: np.ndarray
    val: np.ndarray

    @classmethod
    def from_coo(cls, row, col, val, n: int) -> EllMatrix:
        """The n x n matrix with entries val at (row, col); duplicates are summed."""
        return cls._from_rows([(np.asarray(row, np.int64), np.asarray(col, np.int64),
                                np.asarray(val, dtype=float), n)], n)

    @classmethod
    def _from_rows(cls, blocks, n: int) -> EllMatrix:
        """The n x n matrix from consecutive blocks of rows, each given as its
        entries (row within the block, col, val) and its row count.  One stable
        sort per block by (row, col) lets duplicates sum in input order
        (``np.add.reduceat``); zero sums are dropped, rows padded to the widest.
        Each block is written into idx/val as soon as it is merged; a block with
        a wider row widens both arrays with one copy."""
        own = np.arange(n)[:, None]
        idx, out = own[:, :0], np.zeros((n, 0))
        start = 0
        for row, col, val, n_rows in blocks:
            order = np.lexsort((col, row))
            row, col, val = row[order], col[order], val[order]
            first = np.flatnonzero(np.diff(row, prepend=-1) | np.diff(col, prepend=-1))
            val = np.add.reduceat(val, first)
            keep = val != 0
            row, col, val = row[first][keep], col[first][keep], val[keep]
            count = np.bincount(row, minlength=n_rows)
            extra = int(count.max(initial=0)) - idx.shape[1]
            if extra > 0:
                idx = np.hstack([idx, np.broadcast_to(own, (n, extra))])
                out = np.hstack([out, np.broadcast_to(0.0, (n, extra))])
            slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
            idx[start + row, slot] = col
            out[start + row, slot] = val
            start += n_rows
        return cls(idx, out)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.val))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, value) of the stored nonzeros, in row-major order."""
        stored = self.val != 0
        row = np.repeat(np.arange(len(stored)), stored.sum(axis=1))
        return row, self.idx[stored], self.val[stored]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """K x, row tile by row tile: each tile gathers about _MATVEC_TILE_BYTES
        of x, so no dim x width gather forms; rows sum as in one einsum."""
        out = np.empty(len(self.val), dtype=np.result_type(self.val, x))
        for tile in self._row_tiles(x.itemsize):
            np.einsum("ij,ij->i", self.val[tile], x[self.idx[tile]], out=out[tile])
        return out

    def _row_tiles(self, itemsize: int):
        """Row slices that each gather about _MATVEC_TILE_BYTES of a vector."""
        rows = max(1, _MATVEC_TILE_BYTES // max(self.idx.shape[1] * itemsize, 1))
        return (slice(a, a + rows) for a in range(0, len(self.val), rows))


def _transpose_deviation(matrix: EllMatrix, parity: int = -1) -> float:
    """max |A - parity * A^T| exactly (parity -1 measures antisymmetry), not
    finite if an entry is not: each stored A[r, c] meets A[c, r], gathered
    from row c (zero if not stored), over about _HOP_BLOCK entries at a time."""
    idx, val = matrix.idx, matrix.val
    step = max(1, _HOP_BLOCK // max(val.shape[1], 1))
    dev = 0.0
    for start in range(0, len(val), step):
        col, v = idx[start:start + step], val[start:start + step]
        own = np.arange(start, start + len(col))[:, None, None]
        partner = np.where(idx[col] == own, val[col], 0.0).sum(axis=2)
        with np.errstate(invalid="ignore"):  # inf - inf
            dev = float(np.maximum(dev, np.abs(v - parity * partner)[v != 0].max(initial=0.0)))
    return dev


def _centered_difference(n: int, delta: float, periodic: bool):
    """Centered first difference as (row, col, value) triplets, real and
    antisymmetric: wrapped on a periodic axis, and tridiag(-1, 0, 1) / (2 delta)
    on an open one, which drops the two entries that would leave the domain."""
    rows = np.repeat(np.arange(n), 2)
    cols = rows + np.tile([1, -1], n)
    keep = periodic | ((cols >= 0) & (cols < n))
    return rows[keep], cols[keep] % n, (np.tile([1.0, -1.0], n) / (2.0 * delta))[keep]


def _difference_matrix(n: int, delta: float, periodic: bool) -> np.ndarray:
    """``_centered_difference`` as a dense n x n matrix."""
    row, col, val = _centered_difference(n, delta, periodic)
    return np.bincount(row * n + col, val, n * n).reshape(n, n)


def _diagonal(values: np.ndarray):
    rows = np.arange(len(values))
    return rows, rows, values


def _kron(a, b, n_b: int):
    """Kronecker product of two (row, col, value) triplets, the second of order n_b."""
    (ra, ca, va), (rb, cb, vb) = a, b
    return ((ra[:, None] * n_b + rb).ravel(), (ca[:, None] * n_b + cb).ravel(),
            (va[:, None] * vb).ravel())


def _require_matching_grid(grid: PhaseGrid, basis: FockBasis):
    if grid.n_q * grid.n_p != basis.n_modes:
        raise ValueError(f"grid has {grid.n_q * grid.n_p} cells, basis has {basis.n_modes} modes")


def _momentum_stencil(grid: PhaseGrid) -> EllMatrix:
    """-d/dp as an M x M one-body matrix: -i times (1/i) d/dp."""
    n_q, n_p = grid.n_q, grid.n_p
    row, col, val = _kron(_diagonal(np.ones(n_q)),
                          _centered_difference(n_p, grid.dp, grid.periodic_p), n_p)
    return EllMatrix.from_coo(row, col, -val, n_q * n_p)


def _drift(grid: PhaseGrid, spec: ProblemSpec):
    """-(p/m) d/dq on the cell-indicator modes as (row, col, value) triplets."""
    return _kron(_centered_difference(grid.n_q, grid.dq, grid.periodic_q),
                 _diagonal(-grid.p_centers / spec.mass), grid.n_p)


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
            raise CostError(
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
    """The Liouvillian L = iK on a FockBasis, held as its real generator K =
    -iL (``matrix``), with a verified Hermitian flag: L is Hermitian exactly
    when K is antisymmetric, and max |L - L^H| = max |K + K^T|, computed
    exactly, block by block of rows (``_transpose_deviation``)."""

    basis: FockBasis
    matrix: EllMatrix
    hermitian: bool = field(init=False)
    _deviation: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.matrix.val.shape[0] != self.basis.dimension:
            raise ValueError("matrix shape does not match the basis dimension")
        self._deviation = _transpose_deviation(self.matrix)
        self.hermitian = self._deviation <= HERMITICITY_TOL

    def hermiticity_deviation(self) -> float:
        return self._deviation


def _slot_sum(slots: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``counts.T @ weights`` for real weights, counts[r, v] the number of slots
    of row r holding v < n, summed over the slots directly, so memory scales
    with the slots and not with rows x n."""
    return np.bincount(slots.ravel(), weights=np.repeat(weights, slots.shape[1]), minlength=n)


def _pair_correlation(basis: FockBasis, weights: np.ndarray) -> np.ndarray:
    """(M x M) sum_s weights[s] n_s(i) n_s(j).  n_s(i) n_s(j) counts the slot
    pairs (x, y) of state s that hold modes (i, j), so the N^2 slot pairs of
    each state are summed as the flat index i*M + j."""
    M, slots = basis.n_modes, basis.modes
    pairs = (slots[:, :, None] * M + slots[:, None, :]).reshape(len(slots), -1)
    return _slot_sum(pairs, weights, M * M).reshape(M, M)


def _hops(basis: FockBasis, modes: np.ndarray, stencil: EllMatrix):
    """Every entry <s| k_ki a+_k a_i |t> of the lift of an M x M stencil k in
    the rows s of ``modes`` (rows of ``basis.modes``).  For each mode k
    occupied in s, row k of the stencil lists the modes i and the states t,
    s with one particle moved from k to i.  Returned as (position of s in
    ``modes``, row t, i, k_ki, sqrt(n_k (n_i - delta_ik + 1))), n the
    occupations of s."""
    # each distinct occupied mode k of a state once, at its first slot
    source, slot = np.nonzero(np.diff(modes, axis=1, prepend=-1))
    k = modes[source, slot]
    move, entry = np.nonzero(stencil.val[k])
    source, slot, k = source[move], slot[move], k[move]
    i = stencil.idx[k, entry]
    target = modes[source]
    n_k = np.count_nonzero(target == k[:, None], axis=1)
    n_i = np.count_nonzero(target == i[:, None], axis=1)
    factor = np.sqrt(n_k * (n_i - (i == k) + 1))
    target[np.arange(len(source)), slot] = i
    return source, basis._rank(np.sort(target, axis=1)), i, stencil.val[k, entry], factor


def _sector_rows(grid: PhaseGrid, spec: ProblemSpec, basis: FockBasis):
    """The rows of K, one ``EllMatrix._from_rows`` block per _HOP_BLOCK states
    s: the drift hops of s along q, then its kick hops along p, the momentum
    stencil times the force F_s on the moving particle's q-column.  ``block``
    builds each one, so its temporaries die before the yield."""
    n_p = grid.n_p
    drift = EllMatrix.from_coo(*_drift(grid, spec), basis.n_modes)
    momentum = _momentum_stencil(grid)
    gradv_q = pair_gradient_table(grid, spec.pair)

    def block(modes):
        # F_s(a) = -grad U(q_a) - sum_a' grad v(q_a - q_a') n_s(a'); the own term is grad v(0) = 0
        force = -spec.external_gradient(grid.q_centers) - gradv_q[:, modes // n_p].sum(axis=2).T
        source, target, _, value, factor = _hops(basis, modes, drift)
        kick_source, kick_target, i, d, kick_factor = _hops(basis, modes, momentum)
        kick = (d * force[kick_source, i // n_p]) * kick_factor
        return (np.concatenate([source, kick_source]), np.concatenate([target, kick_target]),
                np.concatenate([value * factor, kick]), len(modes))

    for start in range(0, basis.dimension, _HOP_BLOCK):
        yield block(basis.modes[start:start + _HOP_BLOCK])


def assemble_liouvillian(grid: PhaseGrid, spec: ProblemSpec, basis: FockBasis) -> FockOperator:
    """Lift the generators of (grid, spec) to the fixed-N bosonic sector.

    The lift is sum_ij h_ij a+_i a_j plus sum g_(ij)(kl) a+_i a+_j a_l a_k
    with no extra prefactor on the pair term: that convention makes the N=2
    sector reproduce the first-quantized two-particle generator
    h(x) + h(x') + g(x,x') + g(x',x) exactly, which is the normative test.
    In the real form K = -iL each particle of a state s drifts with p/m and is
    kicked by one force, as in the quantum Vlasov equation: row s holds the
    hops of the drift stencil -(p/m) d/dq and of d F_s, d = -d/dp the momentum
    stencil and F_s(a) = -grad U(q_a) - sum_a' grad v(q_a - q_a') n_s(a') the
    force of the state s on a particle in q-column a.  Neither the one-body
    matrix nor the first-quantized pair tensor is formed.  Total occupation is
    conserved hop by hop, so [L, N] = 0 exactly.
    """
    _require_matching_grid(grid, basis)
    matrix = EllMatrix._from_rows(_sector_rows(grid, spec, basis), basis.dimension)
    op = FockOperator(basis, matrix)
    if not math.isfinite(op.hermiticity_deviation()):
        raise ValueError("the generator K overflowed: it has entries that are not finite")
    return op


def embed_product_state(orbital: np.ndarray, basis: FockBasis, grid: PhaseGrid) -> FockState:
    """The N-boson product state of one orbital phi (cell values, shape (M,) or
    (n_q, n_p)), N <= 2, amplitudes c sqrt(N! / prod n!) over the indicator modes:
    phi(a) sqrt(vol) for N = 1 and (phi(a) phi(b)) vol, times sqrt(2) when a != b,
    for N = 2, read from each state's sorted modes.  No M x M array forms, and a
    unit-norm phi gives a unit-norm state."""
    _require_matching_grid(grid, basis)
    if np.shape(orbital) not in ((basis.n_modes,), (grid.n_q, grid.n_p)):
        raise ValueError("the orbital must have M values")
    phi = np.asarray(orbital, dtype=complex).reshape(-1)
    if basis.n_particles == 1:
        return FockState(basis, phi * np.sqrt(grid.cell_volume))
    if basis.n_particles == 2:
        a, b = basis.modes.T
        amp = phi[a]
        amp *= phi[b]
        amp *= grid.cell_volume
        np.multiply(amp, np.sqrt(2.0), out=amp, where=a != b)
        return FockState(basis, amp)
    raise NotImplementedError("product-state embedding is implemented for N <= 2")


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ... for x >= 0, cut after the last order above 1e-18.

    Miller's backward recurrence J_(k-1) = (2k/x) J_k - J_(k+1) (Numerical
    Recipes, 3rd ed., section 6.5), started at the first order m >= x where the
    bound (x/2)^m / m! on J_m is below 1e-40, rescaled against overflow and
    normalized by J_0 + 2 sum_k J_2k = 1.  Below x = 1e-9, J_0 = 1 and
    J_1 = x/2 to rounding.
    """
    if x < 1e-9:
        return np.array([1.0, x / 2])
    m, log_bound = 0, 0.0
    while m < x or log_bound > -92.0:
        m += 1
        log_bound += math.log(x / (2 * m))
    m += m % 2
    j = np.zeros(m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = (2 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
    j /= j[0] + 2 * j[2::2].sum()
    return j[:np.flatnonzero(np.abs(j) > 1e-18)[-1] + 1]


def _chebyshev(matrix: EllMatrix, v: np.ndarray, t: float) -> np.ndarray:
    """exp(Kt) v for a real antisymmetric K and a real v (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984): with R the Gershgorin bound max_i sum_j
    |K_ij|, x = R |t| and s = sign t, exp(Kt) v = J_0(x) w_0 + 2 sum_k J_k(x) w_k,
    where w_0 = v, w_1 = sKv / R and w_(k+1) = 2sKw_k / R + w_(k-1)."""
    # R over the matvec's row tiles, so no |K|-sized temporary forms; np.max keeps a NaN
    radius = float(np.max([np.abs(matrix.val[tile]).sum(axis=1).max(initial=0.0)
                           for tile in matrix._row_tiles(v.itemsize)], initial=0.0))
    if not math.isfinite(radius):
        raise ValueError(f"the generator's Gershgorin bound R = {radius} is not finite")
    x = radius * abs(t)
    if x == 0.0:
        return v.copy()
    if not x <= _MAX_SERIES_TERMS:
        raise CostError(f"t = {t} needs about {x:.3g} Chebyshev terms for a generator of "
                        f"bound {radius:.3g}, above the cap of {_MAX_SERIES_TERMS:.0e}")
    coef = _bessel_j(x)
    scale = math.copysign(1.0 / radius, t)
    prev, cur = v, scale * (matrix @ v)
    out = coef[0] * v + (2 * coef[1]) * cur
    for c in coef[2:]:
        nxt = matrix @ cur
        nxt *= 2 * scale
        nxt += prev
        prev, cur = cur, nxt
        out += (2 * c) * cur
    return out


def propagate(state: FockState, op: FockOperator, t: float) -> FockState:
    """exp(-i L t) = exp(K t) applied to the state.

    The real generator K is applied in real arithmetic through its Chebyshev
    expansion (``_chebyshev``), to the real and imaginary parts of the
    amplitudes separately; an imaginary part that is all zero stays zero.
    """
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    if not op.hermitian:
        raise ValueError(
            f"operator is not Hermitian (deviation {op.hermiticity_deviation():.3e}); "
            "refusing to propagate"
        )
    if state.basis != op.basis:  # compares (n_modes, n_particles)
        raise ValueError("state and operator bases do not match")
    source = state.amplitudes
    amp = np.empty_like(source)
    amp.real = _chebyshev(op.matrix, np.ascontiguousarray(source.real), t)
    amp.imag = _chebyshev(op.matrix, np.ascontiguousarray(source.imag), t) \
        if source.imag.any() else 0.0
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


@dataclass(frozen=True)
class QuantumVlasovResult:
    """Residual of the transport identity for the density expectations.

    All spatial terms use the generator's own centered stencils
    (``_centered_difference``, wrapped or cut as each axis is flagged), so
    the residual vanishes to stencil-consistency order; the time derivative
    enters both as a central difference of propagated expectations and
    exactly through the commutator, which isolates the finite-difference
    component.
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

    # exact d/dt via the commutator: d<n_i>/dt = -2 Im <L a, n_i a> = 2 Re <K a, n_i a>
    amp = at.amplitudes
    w = op.matrix @ amp
    z_real = _slot_sum(at.basis.modes, w.real * amp.real + w.imag * amp.imag,
                       at.basis.n_modes)
    dt_exact_term = (2.0 * z_real / vol).reshape(shape)

    d_q = _difference_matrix(grid.n_q, grid.dq, grid.periodic_q)
    d_p = _difference_matrix(grid.n_p, grid.dp, grid.periodic_p)
    transport = (grid.p_centers[None, :] / spec.mass) * (d_q @ dens)
    grad_u = spec.external_gradient(grid.q_centers)
    ext_term = -grad_u[:, None] * (dens @ d_p.T)

    if isinstance(spec.pair, NoPair):
        pair_term = np.zeros(shape)
    else:
        gradv_q = pair_gradient_table(grid, spec.pair)
        corr = _pair_correlation(at.basis, np.abs(at.amplitudes) ** 2)
        corr4 = corr.reshape(grid.n_q, grid.n_p, grid.n_q, grid.n_p) / vol**2
        d_corr = corr4 @ d_p.T
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
    the drag kernel pairs the pair-potential gradient with the generator's
    d/dp stencil, whose antisymmetry (with or without the wrap) is the
    discrete integration by parts, hence anti-Hermitian.
    """
    if density_ref.grid != grid:
        raise ValueError("the reference density must live on the given grid")
    M = grid.n_q * grid.n_p
    gradv_q = pair_gradient_table(grid, spec.pair)
    f_vals = np.repeat(mean_field_force(density_ref, spec), grid.n_p)
    f_dev = _transpose_deviation(EllMatrix.from_coo(*_diagonal(f_vals), M), parity=1)

    row, col, minus_dp = _momentum_stencil(grid).entries()
    iq = row // grid.n_p
    drag_dev = 0.0
    for a in range(grid.n_q):
        kernel = EllMatrix.from_coo(row, col, gradv_q[a, iq] * -minus_dp, M)
        drag_dev = max(drag_dev, _transpose_deviation(kernel))
    return KernelHermiticityReport(force_hermiticity=f_dev, drag_antihermiticity=drag_dev)
