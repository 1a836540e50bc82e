import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import jv

from kvnsim import fock
from kvnsim.densities import GaussianDensity
from kvnsim.flow import FlowSettings, flow_map_points
from kvnsim.fock import (
    EllMatrix,
    FockBasis,
    FockOperator,
    FockState,
    _bessel_j,
    _pair_correlation,
    _slot_sum,
    assemble_liouvillian,
    density_expectation,
    embed_product_state,
    kernel_hermiticity_report,
    propagate,
    quantum_vlasov_residual,
)
from kvnsim.phase_space import (
    CosinePair,
    CosinePotential,
    CostError,
    GaussianPair,
    HarmonicPotential,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
    pair_gradient_table,
)
from oracle import (
    build_one_body,
    build_two_body,
    dense,
    embed_grid_function,
    first_quantized_generator,
    index_of,
)


def periodic_grid(n_q, n_p, half=np.pi):
    return PhaseGrid(-half, half, -half, half, n_q, n_p,
                     periodic_q=True, periodic_p=True)


def occupations(basis):
    """(dim x M) occupation numbers of every basis state, counted from its slots."""
    occ = np.zeros((basis.dimension, basis.n_modes), dtype=np.int64)
    np.add.at(occ, (np.arange(basis.dimension)[:, None], basis.modes), 1)
    return occ


def exchange(M):
    """The permutation x <-> x' of the M * M two-particle cells."""
    return np.arange(M * M).reshape(M, M).T.ravel()


def two_particle_generator(one_body, two_body, M):
    """First-quantized two-particle generator h(x) + h(x') + g(x,x') + g(x',x),
    in the real form -i times it."""
    k, G = dense(one_body), dense(two_body)
    perm = exchange(M)
    return np.kron(k, np.eye(M)) + np.kron(np.eye(M), k) + G + G[perm][:, perm]


INTERACTING = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.4),
                          pair=GaussianPair(strength=0.15, width=1.0))


# harmonic + gaussian pair: a problem that makes sense on an open q-axis
OPEN_INTERACTING = ProblemSpec(external=HarmonicPotential(omega=1.0),
                               pair=GaussianPair(strength=0.15, width=1.0))


def test_one_body_hermitian_8x8_harmonic():
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    for periodic_q, periodic_p in [(True, True), (False, False), (True, False), (False, True)]:
        grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 8, 8, periodic_q, periodic_p)
        k = dense(build_one_body(grid, spec))
        assert np.abs(k + k.T).max() < 1e-14
        # cells 0 and n - 1 of an axis meet only through its wrap
        k4 = k.reshape(8, 8, 8, 8)
        q_wrap = np.abs(k4[0, :, 7]).max() + np.abs(k4[7, :, 0]).max()
        p_wrap = np.abs(k4[:, 0, :, 7]).max() + np.abs(k4[:, 7, :, 0]).max()
        assert (q_wrap > 0) == periodic_q and (p_wrap > 0) == periodic_p


def test_one_body_free_zero_rows_at_p0():
    # p-centers include p = 0 for an odd row count over a symmetric domain
    grid = PhaseGrid(-np.pi, np.pi, -2.5, 2.5, 4, 5, periodic_q=True, periodic_p=True)
    h = dense(build_one_body(grid, ProblemSpec()))
    _, P = grid.meshgrid()  # row-major cells, in mode order
    zero_rows = np.where(P.ravel() == 0.0)[0]
    assert zero_rows.size == 4
    assert np.all(h[zero_rows, :] == 0.0)


def test_one_body_free_spectrum_real_symmetric():
    grid = periodic_grid(8, 8)
    h = 1j * dense(build_one_body(grid, ProblemSpec()))
    vals = np.linalg.eigvalsh(h)
    assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) < 1e-12


def test_builders_refuse_a_non_hermitian_generator(monkeypatch):
    # a one-sided difference is not antisymmetric, so (1/i) times it is not Hermitian
    def forward_difference(n, delta, periodic):
        return np.arange(n), (np.arange(n) + 1) % n, np.full(n, 1.0 / delta)

    monkeypatch.setattr(fock, "_centered_difference", forward_difference)
    grid = periodic_grid(4, 4)
    with pytest.raises(ValueError, match="one-body matrix is not Hermitian"):
        build_one_body(grid, INTERACTING)
    with pytest.raises(ValueError, match="two-body tensor is not Hermitian"):
        build_two_body(grid, INTERACTING)


def test_two_body_empty_without_pair():
    grid = periodic_grid(4, 4)
    assert build_two_body(grid, ProblemSpec()).nnz == 0


def test_two_body_hermiticity_and_diagonal_blocks():
    grid = periodic_grid(6, 6)
    two = build_two_body(grid, INTERACTING)
    G = dense(two)
    M = 36
    assert np.abs(G + G.T).max() < 1e-12
    perm = exchange(M)
    sym = G + G[perm][:, perm]
    assert np.abs(sym + sym.T).max() < 1e-12
    # parity of the pair potential kills every same-q-cell block
    iq = np.repeat(np.arange(grid.n_q), grid.n_p)
    same_cell = [abs(v) for r, c, v in zip(*two.entries()) if iq[r // M] == iq[r % M]]
    assert not same_cell or max(same_cell) == 0.0


@st.composite
def coo_entries(draw):
    """An order n <= 6 and (row, col, value) entries with repeats, explicit zeros
    and pairs that cancel; the values are multiples of 1/4, so every sum is exact
    in any order."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, st.integers(-4, 4).map(lambda k: k / 4)),
                            max_size=40))
    if entries:
        entries += [(r, c, -v) for r, c, v in draw(st.lists(st.sampled_from(entries),
                                                             max_size=6))]
    row, col, val = (np.array(x, dtype) for x, dtype in
                     zip(zip(*entries) if entries else ([], [], []), (np.int64, np.int64, float)))
    return n, row, col, val


@settings(max_examples=150, deadline=None)
@given(case=coo_entries(), antisymmetric=st.booleans(), cuts=st.sets(st.integers(1, 5)),
       block=st.integers(1, 40))
def test_ell_builder_and_transpose_check_match_a_dense_reference(case, antisymmetric, cuts,
                                                                 block):
    n, row, col, val = case
    if antisymmetric:
        row, col, val = np.r_[row, col], np.r_[col, row], np.r_[val, -val]
    want = np.zeros((n, n))
    np.add.at(want, (row, col), val)
    m = EllMatrix.from_coo(row, col, val, n)
    r, c, v = m.entries()
    assert np.all(np.diff(r * n + c) > 0)  # row-major, ascending columns, no repeats
    assert np.array_equal(dense(m), want) and np.all(v != 0)
    assert m.nnz == np.count_nonzero(want)
    # stored slots first; padding holds 0.0 at the row's own column; width is the widest row
    padding = m.val == 0
    assert np.all(np.diff(padding.astype(int), axis=1) >= 0)
    assert np.array_equal(m.idx[padding], np.nonzero(padding)[0])
    assert m.val.shape[1] == np.count_nonzero(want, axis=1).max(initial=0)
    # the same entries given as consecutive row blocks build the same arrays
    bounds = [0, *sorted(x for x in cuts if x < n), n]
    blocks = [(row[sel] - a, col[sel], val[sel], b - a)
              for a, b in zip(bounds, bounds[1:]) for sel in [(row >= a) & (row < b)]]
    stacked = EllMatrix._from_rows(blocks, n)
    assert np.array_equal(stacked.idx, m.idx) and np.array_equal(stacked.val, m.val)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_HOP_BLOCK", block)
        assert fock._transpose_deviation(m, -1) == np.abs(want + want.T).max(initial=0.0)
        assert fock._transpose_deviation(m, 1) == np.abs(want - want.T).max(initial=0.0)


def test_ell_builder_widens_for_a_later_wider_block():
    # block 0 is one entry wide once its duplicate pair sums to 0, block 1 is
    # empty, and block 2 is three wide, so the arrays widen after rows are written
    def ints(*x):
        return np.array(x, np.int64)

    blocks = [(ints(0, 1, 1, 1), ints(1, 3, 0, 3), np.array([2.0, 0.5, 1.0, -0.5]), 2),
              (ints(), ints(), np.array([]), 1),
              (ints(0, 0, 0, 1, 0), ints(4, 0, 2, 3, 0), np.array([1.0, 1.0, -3.0, 5.0, 0.25]), 2)]
    n = 5  # the blocks hold rows 0-1, 2 and 3-4
    row = np.concatenate([b[0] + start for b, start in zip(blocks, (0, 2, 3))])
    col, val = (np.concatenate([b[k] for b in blocks]) for k in (1, 2))
    stacked, single = EllMatrix._from_rows(blocks, n), EllMatrix.from_coo(row, col, val, n)
    assert stacked.val.shape == (n, 3)
    padding = stacked.val == 0  # rows written before the widening keep 0.0 at their own column
    assert np.array_equal(stacked.idx[padding], np.nonzero(padding)[0])
    assert np.array_equal(stacked.idx, single.idx) and np.array_equal(stacked.val, single.val)
    want = np.zeros((n, n))
    np.add.at(want, (row, col), val)
    assert np.array_equal(dense(stacked), want)
    assert stacked.nnz == np.count_nonzero(want) == 6


@pytest.mark.parametrize("dtype", [float, complex])
def test_ell_matvec_over_several_tiles_equals_the_untiled_product(dtype):
    # 8-wide rows of doubles tile 4096 rows at a time, and complex ones 2048,
    # so 10000 rows span three and five tiles, the last one short
    rng = np.random.default_rng(4)
    n, width = 10_000, 8
    row = np.repeat(np.arange(n), width)
    matrix = EllMatrix.from_coo(row, rng.integers(0, n, row.size), rng.normal(size=row.size), n)
    x = rng.normal(size=n) + (1j * rng.normal(size=n) if dtype is complex else 0)
    rows = fock._MATVEC_TILE_BYTES // (matrix.idx.shape[1] * x.itemsize)
    assert matrix.idx.shape[1] == width and 2 * rows < n
    result = matrix @ x
    assert result.dtype == x.dtype
    assert np.array_equal(result, np.einsum("ij,ij->i", matrix.val, x[matrix.idx]))


def test_fock_basis_dimensions_and_index():
    basis = FockBasis(n_modes=5, n_particles=3)
    assert basis.dimension == FockBasis.sector_dimension(5, 3) == 35
    for k in (0, 17, 34):
        assert index_of(basis, occupations(basis)[k]) == k
    assert np.all(occupations(basis).sum(axis=1) == 3)
    for M, N in [(1, 1), (1, 4), (7, 1), (5, 3), (16, 2), (3, 6), (6, 4)]:
        basis = FockBasis(n_modes=M, n_particles=N)
        assert basis.dimension == FockBasis.sector_dimension(M, N)
        expected = list(combinations_with_replacement(range(M), N))
        assert basis.modes.tolist() == [list(t) for t in expected]
        occ = occupations(basis)
        assert occ.shape == (basis.dimension, M) and np.all(occ.sum(axis=1) == N)
        assert [index_of(basis, row) for row in occ] == list(range(basis.dimension))


def test_assemble_single_particle_sector_equals_one_body():
    grid = periodic_grid(4, 4)
    one = build_one_body(grid, INTERACTING)
    basis = FockBasis(n_modes=16, n_particles=1)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    assert np.abs(dense(L.matrix) - dense(one)).max() == 0.0


def test_assemble_hermitian_and_number_conserving():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=2)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    assert L.hermiticity_deviation() < 1e-12
    # [L, N] = i [K, N], with N diagonal
    K, number = dense(L.matrix), occupations(basis).sum(axis=1).astype(float)
    assert np.abs(K * number[None, :] - number[:, None] * K).max() == 0.0


def test_over_cap_basis_refused_before_enumeration():
    # 1.7e11 rows: enumerating them first would exhaust memory long before any check
    with pytest.raises(CostError, match="166716670000"):
        FockBasis(n_modes=10_000, n_particles=3)


def test_assemble_against_generic_contraction_oracle():
    for n_particles in (2, 3):
        _check_against_contraction_oracle(n_particles)


def _check_against_contraction_oracle(n_particles):
    """Apply the raw normal-ordered tensor contraction state by state."""
    grid = periodic_grid(4, 4)
    one = build_one_body(grid, INTERACTING)
    two = build_two_body(grid, INTERACTING)
    M = 16
    basis = FockBasis(n_modes=M, n_particles=n_particles)
    L = assemble_liouvillian(grid, INTERACTING, basis)

    def annihilate(occ, amp, k):
        if occ[k] == 0:
            return None
        occ = occ.copy()
        occ[k] -= 1
        return occ, amp * np.sqrt(occ[k] + 1)

    def create(occ, amp, k):
        occ = occ.copy()
        occ[k] += 1
        return occ, amp * np.sqrt(occ[k])

    dim = basis.dimension
    oracle = np.zeros((dim, dim))
    for s in range(dim):
        occ0 = occupations(basis)[s]
        for i, k, hik in zip(*one.entries()):
            step = annihilate(occ0, 1.0, k)
            if step is None:
                continue
            occ, amp = create(*step, i)
            oracle[index_of(basis, occ), s] += hik * amp
        for rc, cc, gv in zip(*two.entries()):
            i, j = divmod(rc, M)
            k, l = divmod(cc, M)
            step = annihilate(occ0, 1.0, k)
            if step is None:
                continue
            step = annihilate(*step, l)
            if step is None:
                continue
            occ, amp = create(*create(*step, j), i)
            oracle[index_of(basis, occ), s] += gv * amp
    assert np.abs(dense(L.matrix) - oracle).max() < 1e-12


def test_hops_weigh_an_on_site_move_by_its_occupation():
    # a diagonal stencil w_k a+_k a_k leaves every state in place, weighted n_k w_k
    M = 5
    weights = np.linspace(0.5, 1.5, M)
    basis = FockBasis(n_modes=M, n_particles=3)
    stencil = EllMatrix.from_coo(np.arange(M), np.arange(M), weights, M)
    source, target, i, value, factor = fock._hops(basis, basis.modes, stencil)
    occ = occupations(basis)
    assert np.array_equal(target, source)
    assert np.array_equal(value, weights[i])
    assert np.array_equal(factor, occ[source, i])
    # each occupied mode of each state moves once
    assert len(source) == np.count_nonzero(occ)
    assert_allclose(np.bincount(source, weights=value * factor), occ @ weights, rtol=1e-14)


def test_grid_must_match_the_basis_modes():
    # a 5 x 4 grid has 20 cells; a 4 x 4 grid has 16
    grid20, grid16 = periodic_grid(5, 4), periodic_grid(4, 4)
    basis16 = FockBasis(n_modes=16, n_particles=2)
    basis20 = FockBasis(n_modes=20, n_particles=2)
    psi20 = np.ones(20) / np.sqrt(20 * grid20.cell_volume)
    psi16 = np.ones(16) / np.sqrt(16 * grid16.cell_volume)
    more, fewer = "grid has 20 cells, basis has 16 modes", "grid has 16 cells, basis has 20 modes"
    with pytest.raises(ValueError, match=more):
        embed_product_state(psi20, basis16, grid20)
    with pytest.raises(ValueError, match=fewer):
        embed_product_state(psi16, basis20, grid16)
    state20 = FockState(basis20, np.eye(basis20.dimension)[0])
    with pytest.raises(ValueError, match=fewer):
        density_expectation(state20, grid16)
    with pytest.raises(ValueError, match=more):
        assemble_liouvillian(grid20, INTERACTING, basis16)
    L16 = assemble_liouvillian(grid16, INTERACTING, basis16)
    state16 = embed_product_state(psi16, basis16, grid16)
    with pytest.raises(ValueError, match=more):
        quantum_vlasov_residual(state16, L16, grid20, INTERACTING, t=0.1, dt_fd=1e-4)


def test_embed_single_particle_amplitudes():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=1)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = embed_product_state(psi, basis, grid)
    assert_allclose(state.amplitudes, psi * np.sqrt(grid.cell_volume), rtol=1e-15)


def test_embed_two_orthogonal_modes_unit_amplitude():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=2)
    vol = grid.cell_volume
    i, j = 3, 11
    psi = np.zeros((16, 16))
    psi[i, j] = psi[j, i] = 1.0 / (np.sqrt(2) * vol)  # symmetrized, unit norm
    state = embed_grid_function(psi, basis, grid)
    occ = np.zeros(16, dtype=int)
    occ[i] = occ[j] = 1
    idx = index_of(basis, occ)
    assert_allclose(state.amplitudes[idx], 1.0, rtol=1e-14)
    others = np.abs(np.delete(state.amplitudes, idx))
    assert np.max(others) == 0.0
    assert_allclose(state.norm(), 1.0, rtol=1e-14)


def test_embed_product_orbital_matches_coherent_sector_pattern():
    # a doubly occupied orbital carries the Poissonian sqrt(N!/prod n!) weights
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=2)
    rng = np.random.default_rng(1)
    phi = rng.uniform(0.2, 1.0, size=16)
    phi /= np.sqrt(np.sum(phi**2) * grid.cell_volume)
    state = embed_product_state(phi, basis, grid)
    f = phi * np.sqrt(grid.cell_volume)  # orbital coefficients
    for s in range(basis.dimension):
        occ = occupations(basis)[s]
        nz = np.nonzero(occ)[0]
        if nz.size == 1:
            expected = f[nz[0]] ** 2
        else:
            expected = np.sqrt(2.0) * f[nz[0]] * f[nz[1]]
        assert abs(state.amplitudes[s] - expected) < 1e-13
    assert_allclose(state.norm(), 1.0, rtol=1e-12)


def test_embed_rejects_asymmetric_two_particle_function():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=2)
    psi = np.zeros((16, 16))
    psi[2, 5] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        embed_grid_function(psi, basis, grid)


GRIDS_20 = [periodic_grid(5, 4), PhaseGrid(-3, 3, -2, 2, 5, 4),
            PhaseGrid(-np.pi, np.pi, -3, 3, 4, 5, periodic_q=True)]


@pytest.mark.parametrize("n_particles", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS_20, ids=["periodic", "open", "mixed"])
def test_product_embedding_equals_the_grid_function_embedding_byte_for_byte(grid, n_particles):
    # the orbital's amplitudes against the oracle's embedding of phi (x) ... (x) phi;
    # the oracle's state is complex, a real orbital's is real
    basis = FockBasis(n_modes=20, n_particles=n_particles)
    rng = np.random.default_rng(7)
    for phi in (rng.uniform(0.0, 1.0, 20), rng.normal(size=20),
                rng.normal(size=20) + 1j * rng.normal(size=20)):
        psi = reduce(np.multiply.outer, [phi] * n_particles)
        product = embed_product_state(phi.reshape(grid.n_q, grid.n_p), basis, grid)
        oracle = embed_grid_function(psi, basis, grid)
        assert product.amplitudes.dtype == phi.dtype
        assert product.amplitudes.astype(complex).tobytes() == oracle.amplitudes.tobytes()


@pytest.mark.parametrize("n_particles", [3, 4])
@pytest.mark.parametrize("grid", GRIDS_20, ids=["periodic", "open", "mixed"])
def test_product_embedding_has_unit_norm_for_more_particles(grid, n_particles):
    basis = FockBasis(n_modes=20, n_particles=n_particles)
    rng = np.random.default_rng(9)
    for phi in (rng.uniform(0.0, 1.0, 20), rng.normal(size=20) + 1j * rng.normal(size=20)):
        phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.cell_volume)
        state = embed_product_state(phi, basis, grid)
        assert abs(state.norm() - 1.0) < 1e-13


def test_product_embedding_peak_follows_the_state():
    # M = 256, N = 2: the M x M product matrix alone, as complex, would be 1 MB
    grid = periodic_grid(16, 16)
    basis = FockBasis(n_modes=256, n_particles=2)
    orbital = np.random.default_rng(8).uniform(0.0, 1.0, (16, 16))
    tracemalloc.start()
    try:
        state = embed_product_state(orbital, basis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * state.amplitudes.nbytes


def test_product_embedding_refuses_a_wrong_orbital():
    grid = periodic_grid(4, 4)
    with pytest.raises(ValueError, match="the orbital must have M values"):
        embed_product_state(np.ones((16, 16)), FockBasis(n_modes=16, n_particles=2), grid)


def test_product_embedding_refuses_an_orbital_that_is_not_numbers():
    grid, basis = periodic_grid(4, 4), FockBasis(n_modes=16, n_particles=2)
    with pytest.raises(ValueError, match="the orbital must be real or complex numbers, not <U1"):
        embed_product_state(np.array(list("abcdefghijklmnop")), basis, grid)


def test_propagate_t0_identity_and_refusal():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=1)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    rng = np.random.default_rng(2)
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = FockState(basis, amp)
    out = propagate(state, L, 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)

    # neither K is antisymmetric, so neither L = iK is Hermitian: no operator is built
    row, col = np.triu_indices(16)
    upper = EllMatrix.from_coo(row, col, np.ones(len(row)), 16)
    symmetric = EllMatrix.from_coo(np.r_[row, col], np.r_[col, row], np.ones(2 * len(row)), 16)
    for matrix in (upper, symmetric):
        with pytest.raises(ValueError, match=r"operator is not Hermitian \(deviation"):
            FockOperator(basis, matrix)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the row sum
def test_a_non_finite_generator_is_not_hermitian_and_an_infinite_bound_is_refused():
    basis = FockBasis(n_modes=2, n_particles=1)
    nan = EllMatrix.from_coo([0, 1], [1, 0], [np.nan, 1.0], 2)
    assert np.isnan(fock._transpose_deviation(nan))
    with pytest.raises(ValueError, match="the generator K overflowed: it has entries that are "
                                         "not finite"):
        FockOperator(basis, nan)
    # antisymmetric, so Hermitian, but row 0 sums to 2e308 = inf
    basis = FockBasis(n_modes=3, n_particles=1)
    big = FockOperator(basis, EllMatrix.from_coo([0, 0, 1, 2], [1, 2, 0, 0],
                                                 [1e308, 1e308, -1e308, -1e308], 3))
    assert big.hermiticity_deviation() == 0.0
    with pytest.raises(ValueError, match="Gershgorin bound R = inf is not finite"):
        propagate(FockState(basis, np.eye(3)[0]), big, 0.5)


# 1e8 and 1e308 are finite, but their series would run to ~R|t| = 1.7e8 and 1.7e308 terms
@pytest.mark.parametrize("t, message", [
    (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite"),
    (1e8, "above the cap"), (-1e308, "above the cap")])
def test_propagate_refuses_non_finite_and_over_cap_times(t, message):
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=1)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    state = FockState(basis, np.eye(16)[3])
    with pytest.raises(CostError if message == "above the cap" else ValueError, match=message):
        propagate(state, L, t)


def test_chebyshev_bound_allocates_no_operator_sized_temporary():
    # 4096 rows of 64 entries: val is 2 MB, each vector 32 KB; |val| whole would be 2 MB
    rng = np.random.default_rng(9)
    matrix = EllMatrix(rng.integers(0, 4096, (4096, 64)), rng.normal(size=(4096, 64)))
    v = rng.normal(size=4096)
    tracemalloc.start()
    try:
        fock._chebyshev(matrix, v, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.val.nbytes


def test_propagate_single_particle_matches_matrix_exponential():
    grid = periodic_grid(5, 5)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5))
    one = build_one_body(grid, spec)
    basis = FockBasis(n_modes=25, n_particles=1)
    L = assemble_liouvillian(grid, spec, basis)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=25) + 1j * rng.normal(size=25)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    state = embed_product_state(psi, basis, grid)
    out = propagate(state, L, 1.3)
    oracle = expm(1.3 * dense(one)) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - oracle)) < 1e-8


def test_propagate_matches_dense_exponential():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=2)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    K = dense(L.matrix)
    rng = np.random.default_rng(4)
    real = rng.normal(size=basis.dimension)
    cplx = real + 1j * rng.normal(size=basis.dimension)
    for amp in (real / np.linalg.norm(real), cplx / np.linalg.norm(cplx)):
        for t in (-0.7, -1e-12, 0.0, 0.3, 1.0, 4.0):
            out = propagate(FockState(basis, amp), L, t).amplitudes
            assert np.max(np.abs(expm(t * K) @ amp - out)) < 1e-13
            # exp(-iLt) = exp(Kt) is real, so a real state stays real
            assert out.dtype == amp.dtype


@pytest.mark.parametrize("x, tol", [
    (0.0, 1e-15), (1e-12, 1e-15), (1e-9, 1e-15), (2e-9, 1e-15), (0.3, 1e-15), (1.0, 1e-15),
    (2.404825557695773, 1e-15), (14.75, 1e-15), (32.1, 1e-15),
    # jv itself is off by 3e-15 at x = 100 and 1.2e-14 at x = 640 (against mpmath,
    # where the recurrence stays within 2e-16)
    (100.0, 1e-14), (640.0, 3e-14),
    # from about x = 1e4 the backward recurrence grows past 1e250 before it
    # reaches order 0 and is rescaled on the way
    (1.2e4, 1e-12), (3e4, 1e-12)])
def test_miller_bessel_values_match_scipy(x, tol):
    values = _bessel_j(x)
    orders = np.arange(len(values))
    assert np.max(np.abs(values - jv(orders, x))) < tol
    # the series is cut after the last order above 1e-18
    assert abs(jv(len(values), x)) < 1e-18 and len(values) >= x


def test_propagate_rejects_state_from_another_sector():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=1)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    other = FockBasis(n_modes=2, n_particles=15)
    assert other.dimension == basis.dimension
    state = FockState(other, np.eye(other.dimension)[0])
    with pytest.raises(ValueError, match="bases do not match"):
        propagate(state, L, 0.5)


def test_norm_preservation_36_modes_two_particles():
    grid = periodic_grid(6, 6)
    basis = FockBasis(n_modes=36, n_particles=2)
    L = assemble_liouvillian(grid, INTERACTING, basis)
    rng = np.random.default_rng(5)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    amp /= np.linalg.norm(amp)
    state = FockState(basis, amp)
    out = propagate(state, L, 1.0)
    assert abs(out.norm() - 1.0) < 1e-10


NORM_PROBE = """
import numpy as np
from kvnsim.fock import FockBasis, FockState
basis = FockBasis(n_modes=144, n_particles=2)  # dimension 10440, as fock-pair-144's
amp = np.random.default_rng(0).standard_normal(basis.dimension)
print(repr(FockState(basis, amp).norm()), repr(FockState(basis, amp * (1 + 0.5j)).norm()))
"""


def test_norm_is_the_same_under_one_and_two_blas_threads():
    # a threaded BLAS dot product sums in another order: np.linalg.norm of
    # this vector differs in its last bit between one and two threads
    src = os.path.dirname(os.path.dirname(fock.__file__))
    norms = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", NORM_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        norms.append(proc.stdout.split())
    assert norms[0] == norms[1]
    amp = np.random.default_rng(0).standard_normal(10440)
    assert abs(float(norms[0][0]) - math.sqrt(math.fsum(amp * amp))) <= 1e-12


def test_density_expectation_occupation_patterns():
    grid = periodic_grid(4, 4)
    vol = grid.cell_volume
    basis1 = FockBasis(n_modes=16, n_particles=1)
    amp = np.zeros(16, dtype=complex)
    amp[7] = 1.0
    dens = density_expectation(FockState(basis1, amp), grid)
    expected = np.zeros(16)
    expected[7] = 1.0 / vol
    assert_allclose(dens.values.reshape(-1), expected, rtol=0, atol=0)

    basis2 = FockBasis(n_modes=16, n_particles=2)
    occ = np.zeros(16, dtype=int)
    occ[2] = occ[9] = 1
    amp2 = np.zeros(basis2.dimension, dtype=complex)
    amp2[index_of(basis2, occ)] = 1.0
    dens2 = density_expectation(FockState(basis2, amp2), grid)
    flat = dens2.values.reshape(-1)
    assert flat[2] == flat[9] == 1.0 / vol
    assert flat.sum() == 2.0 / vol


def test_density_expectation_integrates_to_particle_number():
    grid = periodic_grid(4, 4)
    basis = FockBasis(n_modes=16, n_particles=3)
    rng = np.random.default_rng(6)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    amp /= np.linalg.norm(amp)
    dens = density_expectation(FockState(basis, amp), grid)
    assert abs(dens.mass - 3.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(n_modes=st.integers(1, 30), n_particles=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_slot_sums_match_dense_tally_reductions(n_modes, n_particles, seed):
    basis = FockBasis(n_modes=n_modes, n_particles=n_particles)
    rng = np.random.default_rng(seed)
    real = rng.normal(size=basis.dimension)
    cplx = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    occ = occupations(basis)

    def close(got, want, scale):
        # relative to the sum of the absolute values of the summed terms
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    close(_slot_sum(basis.modes, real, n_modes), occ.T @ real, occ.T @ np.abs(real))
    # the complex commutator weights enter through their imaginary part
    close(_slot_sum(basis.modes, cplx.imag, n_modes), np.imag(occ.T @ cplx),
          occ.T @ np.abs(cplx))
    close(_pair_correlation(basis, real), (occ * real[:, None]).T @ occ,
          (occ * np.abs(real)[:, None]).T @ occ)


def test_density_expectation_allocates_no_dense_tally():
    # M = 144, N = 2: the (dim x M) int64 tally alone would be 12 MB
    grid = periodic_grid(12, 12)
    basis = FockBasis(n_modes=144, n_particles=2)
    assert basis.dimension == 10440
    rng = np.random.default_rng(3)
    state = FockState(basis, rng.normal(size=basis.dimension) + 0j)
    tracemalloc.start()
    try:
        density_expectation(state, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_assembly_peak_memory_follows_the_operator():
    # M = 144, N = 2 as in the fock-pair-144 workload: 82 944 entries in 10 440 rows
    grid = periodic_grid(12, 12)
    basis = FockBasis(n_modes=144, n_particles=2)
    tracemalloc.start()
    try:
        op = assemble_liouvillian(grid, INTERACTING, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.matrix.nnz == 82944 and op.hermiticity_deviation() == 0.0
    assert peak <= 2.5 * (op.matrix.idx.nbytes + op.matrix.val.nbytes)


def test_quantum_vlasov_residual_matches_dense_tally_formula():
    grid = periodic_grid(6, 6)
    spec = INTERACTING
    basis = FockBasis(n_modes=36, n_particles=2)
    L = assemble_liouvillian(grid, spec, basis)
    Q, P = grid.meshgrid()
    phi = np.exp(-0.5 * ((Q - 0.4) ** 2 + P**2))
    phi /= np.sqrt(np.sum(phi**2) * grid.cell_volume)
    state = embed_product_state(phi, basis, grid)
    res = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=1e-4)

    vol, shape = grid.cell_volume, (grid.n_q, grid.n_p)
    at = propagate(state, L, 0.3).amplitudes
    occ = occupations(basis)
    Lmat = 1j * dense(L.matrix)
    dt_exact = (-2.0 * np.imag(occ.T @ (np.conj(Lmat @ at) * at)) / vol).reshape(shape)
    corr = (occ * (np.abs(at) ** 2)[:, None]).T @ occ
    corr4 = corr.reshape(grid.n_q, grid.n_p, grid.n_q, grid.n_p) / vol**2
    d_corr = (np.roll(corr4, -1, axis=3) - np.roll(corr4, 1, axis=3)) / (2 * grid.dp)
    inner = d_corr.sum(axis=1) * grid.dp
    gradv_q = pair_gradient_table(grid, spec.pair)
    pair_term = -grid.dq * np.einsum("ij,jik->ik", gradv_q, inner)
    assert np.abs(pair_term).max() > 1e-3
    assert_allclose(res.dt_term_exact, dt_exact, rtol=0, atol=1e-13)
    assert_allclose(res.force_pair_term, pair_term, rtol=0, atol=1e-13)


def sector_equivalence_error(grid, spec, n_particles, t, seed=11):
    one = build_one_body(grid, spec)
    two = build_two_body(grid, spec)
    M = grid.n_q * grid.n_p
    basis = FockBasis(n_modes=M, n_particles=n_particles)
    L = assemble_liouvillian(grid, spec, basis)
    rng = np.random.default_rng(seed)
    if n_particles == 1:
        psi = rng.normal(size=M) + 1j * rng.normal(size=M)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
        psi_t = expm(dense(one) * t) @ psi
    else:
        A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        psi = (A + A.T) / 2
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume**2)
        L2 = two_particle_generator(one, two, M)
        psi_t = (expm(L2 * t) @ psi.ravel()).reshape(M, M)
    second = propagate(embed_grid_function(psi, basis, grid), L, t)
    first = embed_grid_function(psi_t, basis, grid)
    return np.max(np.abs(second.amplitudes - first.amplitudes))


@pytest.mark.parametrize("n_particles", [1, 2])
def test_sector_equivalence_with_first_quantized_oracle(n_particles):
    for grid, spec in [(periodic_grid(4, 4), INTERACTING),
                       (PhaseGrid(-np.pi, np.pi, -3, 3, 4, 4, periodic_q=True), INTERACTING),
                       (PhaseGrid(-3, 3, -3, 3, 4, 4), OPEN_INTERACTING)]:
        assert sector_equivalence_error(grid, spec, n_particles, t=1.0) < 1e-8


def symmetric_tensor(rng, M, n_particles, vol):
    """A random complex grid function of N arguments, exchange symmetric and of unit norm."""
    A = rng.normal(size=(M,) * n_particles) + 1j * rng.normal(size=(M,) * n_particles)
    psi = sum(A.transpose(order) for order in permutations(range(n_particles)))
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * vol**n_particles)


@pytest.mark.parametrize("grid, spec", [
    (periodic_grid(4, 4), INTERACTING),
    (PhaseGrid(-np.pi, np.pi, -3, 3, 4, 4, periodic_q=True), INTERACTING),
    (PhaseGrid(-3, 3, -3, 3, 4, 4), OPEN_INTERACTING)], ids=["periodic", "mixed", "open"])
def test_three_particle_sector_matches_the_first_quantized_generator(grid, spec):
    # M = 16: the first-quantized N = 3 space has 4 096 dimensions
    basis = FockBasis(n_modes=16, n_particles=3)
    op = assemble_liouvillian(grid, spec, basis)
    generator = first_quantized_generator(grid, spec, 3)
    psi = symmetric_tensor(np.random.default_rng(13), 16, 3, grid.cell_volume)
    state = embed_grid_function(psi, basis, grid)
    # the generator identity E K_first = K_sector E
    lifted = embed_grid_function(generator(psi), basis, grid)
    assert np.max(np.abs(lifted.amplitudes - op.matrix @ state.amplitudes)) < 1e-12
    # propagated states: exp(K_first t) as a Taylor series, t = 1
    term, psi_t = psi, psi.copy()
    for n in range(1, 80):
        term = generator(term) / n
        psi_t += term
    assert np.max(np.abs(term)) < 1e-30
    first = embed_grid_function(psi_t, basis, grid)
    assert np.max(np.abs(propagate(state, op, 1.0).amplitudes - first.amplitudes)) < 1e-12


COSINE = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5))


def wrapped_gaussian(q, p):
    # wrapped in q: a jump at the q seam holds the convergence order near 1
    return sum(GaussianDensity(0.3 + 2 * np.pi * k, 0.2, 0.5, 0.6)(q, p) for k in (-1, 0, 1))


# (spec, half-width of the square grid, periodic_p, rho0); the harmonic case
# runs on compare's open [-6, 6]^2 grid
TRANSPORT_CASES = {
    "cosine-periodic-p": (COSINE, np.pi, True, wrapped_gaussian),
    "cosine-open-p": (COSINE, np.pi, False, wrapped_gaussian),
    "harmonic-open": (ProblemSpec(external=HarmonicPotential(omega=1.0)), 6.0, False,
                      GaussianDensity(0.6, 0.0, 0.7, 0.7)),
}


@pytest.mark.parametrize("case", TRANSPORT_CASES)
def test_single_particle_fock_converges_to_classical_transport(case):
    # the N = 1 Fock density from the orbital sqrt(rho0) against rho0(Phi_-t(x)) at
    # t = 1, with Phi_-t exact for the harmonic and Verlet at dt 1e-3 for the cosine
    spec, half, periodic_p, rho0 = TRANSPORT_CASES[case]
    flow = FlowSettings(dt=1e-3, exact_shortcut=True)
    errors = []
    for n in (16, 32, 64):
        grid = PhaseGrid(-half, half, -half, half, n, n, periodic_q=spec is COSINE,
                         periodic_p=periodic_p)
        Q, P = grid.meshgrid()
        orbital = np.sqrt(rho0(Q, P))
        orbital /= np.sqrt(np.sum(orbital**2) * grid.cell_volume)
        basis = FockBasis(n_modes=n * n, n_particles=1)
        state = propagate(embed_product_state(orbital, basis, grid),
                          assemble_liouvillian(grid, spec, basis), 1.0)
        assert abs(state.norm() - 1.0) < 1e-12
        back = flow_map_points(np.column_stack([Q.ravel(), P.ravel()]), -1.0, spec, flow)
        rho_t = rho0(*grid.wrap_points(back).T).reshape(Q.shape)
        errors.append(np.abs(density_expectation(state, grid).values - rho_t).sum()
                      * grid.cell_volume)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), (errors, ratios)


def two_body_wrapped_gaussian(q, p):
    return sum(GaussianDensity(0.3 + 2 * np.pi * k, 0.2, 0.8, 0.5)(q, p) for k in (-1, 0, 1))


def test_two_particle_fock_converges_to_classical_two_body_transport():
    # N = 2 with a cosine pair: the one-body density 2 int |Psi_t|^2 dx2 against the
    # same marginal of Psi_0(Phi_-t(x1, x2)) at t = 1, Phi_-t a two-body Verlet at
    # dt 0.02 (dt 0.005 moves L1 by at most 1.2e-4 of itself); measured 0.639, 0.191
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5),
                       pair=CosinePair(strength=0.3, wavenumber=1.0))
    dt, errors = 0.02, []
    for n in (8, 16):
        grid = periodic_grid(n, n)
        Q, P = grid.meshgrid()
        weight = two_body_wrapped_gaussian(Q, P).ravel()
        norm = weight.sum() * grid.cell_volume
        orbital = np.sqrt(weight / norm)
        basis = FockBasis(n_modes=n * n, n_particles=2)
        state = propagate(embed_product_state(orbital, basis, grid),
                          assemble_liouvillian(grid, spec, basis), 1.0)
        # every pair of cell centres (x1, x2) as rows 0 and 1, traced back to t = 0
        q = np.stack(np.broadcast_arrays(Q.ravel()[:, None], Q.ravel()[None, :]))
        p = np.stack(np.broadcast_arrays(P.ravel()[:, None], P.ravel()[None, :]))

        def gradient(q):
            pair = spec.pair.gradient(q[0] - q[1])
            return spec.external_gradient(q) + np.stack([pair, -pair])

        g = gradient(q)
        for _ in range(round(1.0 / dt)):
            p = p + 0.5 * dt * g
            q = q - dt * p
            g = gradient(q)
            p = p + 0.5 * dt * g
        q = grid.q_min + np.mod(q - grid.q_min, grid.q_length)
        psi0 = two_body_wrapped_gaussian(q[0], p[0]) * two_body_wrapped_gaussian(q[1], p[1])
        reference = 2 * (psi0 / norm**2).sum(axis=1).reshape(n, n) * grid.cell_volume
        errors.append(np.abs(density_expectation(state, grid).values - reference).sum()
                      * grid.cell_volume)
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.0, (errors, ratio)


def identity_wrapped_gaussian(q, p):
    return sum(GaussianDensity(0.3 + 2 * np.pi * k, 0.2, 0.8, 0.6)(q, p) for k in (-1, 0, 1))


# (particles, pair, sizes): N = 2 reads the pair through the kernel-gathered table
IDENTITY_CASES = {
    "one-particle": (1, NoPair(), (16, 32, 64)),
    "two-particles-cosine-pair": (2, CosinePair(strength=0.3, wavenumber=1.0), (8, 16)),
}


@pytest.mark.parametrize("case", IDENTITY_CASES)
def test_transport_identity_converges_over_the_whole_grid(case):
    # the identity with the exact commutator time derivative, max over every cell
    # relative to max|transport|, on a state small at the p seam where p/m jumps;
    # measured 7.26e-2, 1.96e-2, 5.03e-3 (N = 1) and 0.281, 0.0806 (N = 2)
    n_particles, pair, sizes = IDENTITY_CASES[case]
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.3), pair=pair)
    errors = []
    for n in sizes:
        grid = periodic_grid(n, n)
        Q, P = grid.meshgrid()
        orbital = np.sqrt(identity_wrapped_gaussian(Q, P)).ravel()
        orbital /= np.sqrt(np.sum(orbital**2) * grid.cell_volume)
        basis = FockBasis(n_modes=n * n, n_particles=n_particles)
        res = quantum_vlasov_residual(embed_product_state(orbital, basis, grid),
                                      assemble_liouvillian(grid, spec, basis), grid, spec,
                                      t=0.3, dt_fd=1e-4)
        identity = (res.dt_term_exact + res.transport_term + res.force_external_term
                    + res.force_pair_term)
        errors.append(np.abs(identity).max() / np.abs(res.transport_term).max())
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), (errors, ratios)


def test_quantum_vlasov_residual_free_single_particle():
    grid = periodic_grid(16, 16)
    spec = ProblemSpec()
    basis = FockBasis(n_modes=256, n_particles=1)
    L = assemble_liouvillian(grid, spec, basis)
    Q, P = grid.meshgrid()
    psi = np.exp(1j * Q) * np.exp(-0.5 * P**2)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    state = embed_product_state(psi.ravel(), basis, grid)
    res = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=1e-4)
    assert res.max_residual < 1e-8


def _modulated_pair_scenario():
    grid = periodic_grid(4, 4)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.3),
                       pair=GaussianPair(strength=0.1, width=1.0))
    basis = FockBasis(n_modes=16, n_particles=2)
    L = assemble_liouvillian(grid, spec, basis)
    Q, P = grid.meshgrid()
    phi = 1.0 + 3e-3 * (np.cos(Q) + np.cos(P))
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.cell_volume)
    state = embed_product_state(phi, basis, grid)
    return state, L, grid, spec


def test_quantum_vlasov_residual_interacting_two_particles():
    state, L, grid, spec = _modulated_pair_scenario()
    res = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=1e-4)
    assert res.max_residual < 1e-6
    # the residual reflects genuine cancellation between much larger terms
    assert np.abs(res.transport_term).max() > 100 * res.max_residual


def test_quantum_vlasov_dt_component_second_order():
    state, L, grid, spec = _modulated_pair_scenario()
    big = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=2e-4)
    small = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=1e-4)
    ratio = np.linalg.norm(big.dt_component) / np.linalg.norm(small.dt_component)
    assert 3.4 < ratio < 4.6


def test_quantum_vlasov_eigenstate_is_stationary():
    state, L, grid, spec = _modulated_pair_scenario()
    vals, vecs = np.linalg.eigh(1j * dense(L.matrix))
    eigenstate = FockState(state.basis, vecs[:, len(vals) // 3].copy())
    res = quantum_vlasov_residual(eigenstate, L, grid, spec, t=0.0, dt_fd=1e-4)
    assert np.abs(res.dt_term_fd).max() < 1e-10
    spatial = res.transport_term + res.force_external_term + res.force_pair_term
    assert_allclose(res.residual, res.dt_term_fd + spatial, rtol=0, atol=1e-15)


def test_residual_derivatives_wrap_only_on_periodic_axes():
    # one particle in cell (0, 0) at t = 0: its q- and p-derivatives reach the
    # last cell of an axis only through the wrap
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    basis = FockBasis(n_modes=16, n_particles=1)
    for periodic in (True, False):
        grid = PhaseGrid(-1, 1, -1, 1, 4, 4, periodic_q=periodic, periodic_p=periodic)
        res = quantum_vlasov_residual(FockState(basis, np.eye(16)[0]),
                                      assemble_liouvillian(grid, spec, basis), grid, spec,
                                      t=0.0, dt_fd=1e-4)
        assert (res.transport_term[-1, 0] != 0) == periodic
        assert (res.force_external_term[0, -1] != 0) == periodic


def test_kernel_hermiticity_report():
    grid = periodic_grid(8, 8)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.2, width=0.8))
    dens = density_from_function(grid, GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    rep = kernel_hermiticity_report(grid, spec, dens)
    assert rep.force_hermiticity == 0.0
    assert rep.drag_antihermiticity < 1e-12
    open_grid = PhaseGrid(-4, 4, -4, 4, 8, 8)
    open_dens = density_from_function(open_grid, GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    rep = kernel_hermiticity_report(open_grid, spec, open_dens)
    assert rep.force_hermiticity == 0.0 and rep.drag_antihermiticity < 1e-12

    rep0 = kernel_hermiticity_report(grid, ProblemSpec(), dens)
    assert rep0.force_hermiticity == 0.0
    assert rep0.drag_antihermiticity == 0.0

    with pytest.raises(ValueError, match="grid"):
        kernel_hermiticity_report(periodic_grid(8, 6), spec, dens)


BASIS_16 = FockBasis(16, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: FockBasis(16, 0), "n_particles must be >= 1"),
    (lambda: FockState(BASIS_16, np.zeros(15)),
     "amplitude vector does not match the basis dimension"),
    (lambda: FockState(BASIS_16, np.full(16, np.nan)), "amplitudes must be finite"),
    (lambda: FockState(BASIS_16, np.full(16, 1j * np.inf)), "amplitudes must be finite"),
    (lambda: FockState(BASIS_16, np.full(16, 1.0, dtype=object)),
     "amplitudes must be real or complex numbers, not object"),
    (lambda: FockState(BASIS_16, np.full(16, "1")),
     "amplitudes must be real or complex numbers, not <U1"),
    (lambda: FockState(BASIS_16, None), "amplitudes must be real or complex numbers, not object"),
    (lambda: FockOperator(BASIS_16, assemble_liouvillian(
        PhaseGrid(-3, 3, -3, 3, 4, 5), ProblemSpec(), FockBasis(20, 1)).matrix),
     "matrix shape does not match the basis dimension"),
    (lambda: quantum_vlasov_residual(
        FockState(BASIS_16, np.ones(16)), None, PhaseGrid(-3, 3, -3, 3, 4, 4), ProblemSpec(),
        0.0, dt_fd=0.0),
     "dt_fd must be > 0"),
], ids=["particles", "state-shape", "state-nan", "state-inf", "state-object", "state-string",
        "state-none", "operator-shape", "dt-fd"])
def test_fock_types_refuse_bad_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()
