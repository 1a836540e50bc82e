import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kvnsim.densities import GaussianDensity, GaussianMixture
from kvnsim.phase_space import (
    BoundaryMassWarning,
    CosinePair,
    CosinePotential,
    DensityField,
    FreePotential,
    GaussianPair,
    GridResolutionWarning,
    HarmonicPotential,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
    _pair_kernel,
    density_from_function,
    mean_field_force,
    pair_gradient_table,
    spatial_density,
)
from peak_memory import traced_peak

ALL_POTENTIALS = [
    FreePotential(),
    HarmonicPotential(omega=1.3),
    QuarticPotential(a=0.4, b=0.9),
    CosinePotential(wavenumber=2.0, amplitude=0.7),
]
ALL_PAIRS = [NoPair(), GaussianPair(0.3, 0.8), CosinePair(0.3, 1.5)]


def test_force_external_catalog_values():
    assert -ProblemSpec().external_gradient(0.7) == 0.0
    spec_h = ProblemSpec(external=HarmonicPotential(omega=1.0))
    assert -spec_h.external_gradient(2.0) == -2.0
    spec_q = ProblemSpec(external=QuarticPotential(a=0.0, b=1.0))
    assert -spec_q.external_gradient(1.5) == -4.0 * 1.5**3


@pytest.mark.parametrize("pot", ALL_POTENTIALS)
@pytest.mark.parametrize("mass", [1.0, 2.5])
def test_gradient_matches_value_by_central_differences(pot, mass):
    rng = np.random.default_rng(5)
    q = rng.uniform(-2, 2, size=20)
    h = 1e-6
    fd = (pot.value(q + h, mass) - pot.value(q - h, mass)) / (2 * h)
    grad = pot.gradient(q, mass)
    scale = np.abs(grad) + np.abs(pot.value(q, mass)) + 1.0
    assert np.max(np.abs(fd - grad) / scale) < 1e-6


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_pair_potential_even_and_flat_at_origin(pair):
    rng = np.random.default_rng(6)
    q = rng.uniform(-3, 3, size=30)
    # evenness and grad v(0) = 0 hold exactly, not just to tolerance
    assert np.array_equal(pair.value(q), pair.value(-q))
    assert np.array_equal(pair.gradient(-q), -pair.gradient(q))
    assert pair.gradient(0.0) == 0.0


def test_pair_strength_validation():
    with pytest.raises(ValueError):
        GaussianPair(strength=-0.1, width=0.5)
    with pytest.raises(ValueError):
        CosinePair(strength=-1.0, wavenumber=1.0)


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError):
        PhaseGrid(-1, 1, -1, 1, 2, 8)
    with pytest.raises(ValueError):
        PhaseGrid(1, -1, -1, 1, 8, 8)
    grid = PhaseGrid(-2, 2, -1, 1, 8, 4)
    assert grid.dq == 0.5 and grid.dp == 0.5
    assert grid.cell_volume == 0.25
    assert_allclose(grid.q_centers[0], -1.75)
    assert_allclose(grid.p_centers[-1], 0.75)
    wrapped = PhaseGrid(-2, 2, -1, 1, 8, 4, periodic_q=True).wrap_displacement(np.array([3.5]))
    assert_allclose(wrapped, [-0.5])


def test_wrap_points_maps_into_the_domain_on_periodic_axes_only():
    points = np.array([[3.5, 1.5], [-2.5, -3.0], [0.5, 0.25]])
    assert PhaseGrid(-2, 2, -1, 1, 8, 4).wrap_points(points) is points
    # p is a truncation of the real line: it is never wrapped
    assert_allclose(PhaseGrid(-2, 2, -1, 1, 8, 4, periodic_q=True).wrap_points(points),
                    [[-0.5, 1.5], [1.5, -3.0], [0.5, 0.25]])
    assert_allclose(points[0], [3.5, 1.5])  # the input is not changed


def test_density_field_invariants():
    grid = PhaseGrid(-1, 1, -1, 1, 4, 4)
    with pytest.raises(ValueError):
        DensityField(grid, -1e-6 * np.ones((4, 4)))
    with pytest.raises(ValueError):
        DensityField(grid, np.ones((5, 4)))
    f = DensityField(grid, np.ones((4, 4)))
    assert_allclose(f.mass, 4.0)


def test_spatial_density_marginal_of_product_gaussian():
    grid = PhaseGrid(-8, 8, -8, 8, 96, 96)
    f = density_from_function(grid, GaussianDensity(0.0, 0.0, 1.0, 1.0))
    n = spatial_density(f)
    expected = np.exp(-0.5 * grid.q_centers**2) / np.sqrt(2 * np.pi)
    # p-quadrature of a well-resolved gaussian is essentially exact
    assert np.max(np.abs(n - expected)) < 1e-4
    assert_allclose(np.sum(n) * grid.dq, f.mass, rtol=1e-12)


def test_spatial_density_zero_and_random_mass_identity():
    grid = PhaseGrid(-1, 1, -1, 1, 8, 6)
    zero = DensityField(grid, np.zeros((8, 6)))
    assert np.all(spatial_density(zero) == 0.0)
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 3, size=(8, 6))
    f = DensityField(grid, values)
    # independent oracle: direct double sum
    direct = sum(values[i, j] * grid.cell_volume for i in range(8) for j in range(6))
    assert abs(np.sum(spatial_density(f)) * grid.dq - direct) <= 1e-12 * direct


def test_mean_field_force_no_pair_is_external_bitwise():
    grid = PhaseGrid(-3, 3, -3, 3, 16, 16)
    f = density_from_function(grid, GaussianDensity(0, 0, 0.5, 0.5), warn=False)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    assert np.array_equal(mean_field_force(f, spec),
                          -spec.external_gradient(grid.q_centers))


def test_mean_field_force_uniform_density_periodic_cosine():
    grid = PhaseGrid(-np.pi, np.pi, -1, 1, 32, 4, periodic_q=True)
    f = DensityField(grid, np.full((32, 4), 0.7))
    spec = ProblemSpec(pair=CosinePair(strength=0.5, wavenumber=1.0))
    force = mean_field_force(f, spec)
    # gradient of a periodic kernel integrated over a full period of uniform density
    assert np.max(np.abs(force)) < 1e-13


def test_mean_field_force_narrow_gaussian_against_quadrature_oracle():
    # source narrow relative to the pair width but resolved by the grid
    grid = PhaseGrid(-4, 4, -4, 4, 256, 64)
    source = GaussianDensity(1.0, 0.0, 0.15, 0.4)
    f = density_from_function(grid, source, warn=False)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.5, width=0.9))
    force = mean_field_force(f, spec)

    # oracle: dense quadrature of the defining integral at 10x resolution
    fine = PhaseGrid(-4, 4, -4, 4, 2560, 640)
    Qf, Pf = fine.meshgrid()
    rho_f = source(Qf, Pf)
    n_f = rho_f.sum(axis=1) * fine.dp
    for i in [64, 128, 200]:
        q = grid.q_centers[i]
        oracle = -spec.external_gradient(q) - np.sum(
            n_f * spec.pair.gradient(q - fine.q_centers)) * fine.dq
        # a narrow source acts nearly like a point charge at its center
        approx = -spec.external_gradient(q) - spec.pair.gradient(q - 1.0)
        assert abs(force[i] - oracle) / max(abs(oracle), 1e-12) < 1e-3
        assert abs(approx - oracle) / max(abs(oracle), 1e-12) < 5e-2


def test_mean_field_force_scaling_in_density():
    grid = PhaseGrid(-5, 5, -5, 5, 32, 32)
    f = density_from_function(grid, GaussianDensity(0.5, 0, 0.6, 0.6), warn=False)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.4, width=0.8))
    lam = 3.0
    scaled = DensityField(grid, lam * f.values)
    ext = -spec.external_gradient(grid.q_centers)
    pair_once = mean_field_force(f, spec) - ext
    pair_scaled = mean_field_force(scaled, spec) - ext
    assert_allclose(pair_scaled, lam * pair_once, rtol=1e-12, atol=1e-15)


def test_mean_field_force_rejects_truncating_grid():
    grid = PhaseGrid(-1, 1, -1, 1, 8, 8)
    f = DensityField(grid, np.ones((8, 8)))
    spec = ProblemSpec(pair=GaussianPair(strength=0.5, width=0.9))
    with pytest.raises(ValueError, match="4 pair-potential widths"):
        mean_field_force(f, spec)


def dense_table(grid, pair):
    """grad v(q_a - q_b) from the cell centres, minimum-image wrapped."""
    q = grid.q_centers
    return pair.gradient(grid.wrap_displacement(q[:, None] - q[None, :]))


def test_mean_field_from_the_pair_kernel_matches_the_dense_table():
    for grid, pair in [
            (PhaseGrid(-np.pi, np.pi, -3, 3, 64, 8, periodic_q=True), CosinePair(0.3, 1.0)),
            # odd n_q: no two centres are exactly half a period apart (see the next test)
            (PhaseGrid(-np.pi, np.pi, -3, 3, 63, 8, periodic_q=True), GaussianPair(0.3, 0.8)),
            (PhaseGrid(-6, 6, -3, 3, 64, 8), GaussianPair(0.3, 0.8))]:
        Q, P = grid.meshgrid()
        f = DensityField(grid, np.exp(-0.5 * ((Q - 0.3) / 0.8) ** 2 - 0.5 * (P / 0.6) ** 2))
        spec = ProblemSpec(external=HarmonicPotential(omega=0.5), pair=pair)
        reference = -spec.external_gradient(grid.q_centers) - grid.dq * (
            dense_table(grid, pair) @ spatial_density(f))
        force = mean_field_force(f, spec)
        assert np.abs(force - reference).max() <= 1e-14 * np.abs(reference).max()
        table = pair_gradient_table(grid, pair)
        assert_array_equal(table, -table.T)
        assert np.abs(table - dense_table(grid, pair)).max() <= 1e-14 * np.abs(table).max()


def test_the_pair_table_takes_one_value_per_displacement_at_the_half_period():
    # with even n_q on a periodic axis, the centres n_q / 2 apart sit exactly half
    # a period apart, where the minimum image is a tie.  The kernel takes the
    # average of both images, 0 for an odd grad v, for every such pair alike; the
    # centre differences q_a - q_b round either way, and a table built from them
    # flips the sign of some of these entries and not others.
    grid = PhaseGrid(-np.pi, np.pi, -3, 3, 64, 8, periodic_q=True)
    pair = GaussianPair(0.3, 0.8)
    table = pair_gradient_table(grid, pair)
    idx = np.arange(grid.n_q)
    d = idx[:, None] - idx[None, :]
    tie = np.abs(d) == 32
    assert_array_equal(table[tie], 0.0)
    assert np.abs(table - dense_table(grid, pair))[~tie].max() <= 1e-14 * np.abs(table).max()


def test_the_mean_field_on_a_ring_commutes_with_a_shift():
    # rolling the density by whole cells rolls its mean field; a half-period tie
    # resolved by the sign of a - b broke this by 4.2e-4 of the maximum force
    grid = PhaseGrid(-np.pi, np.pi, -3, 3, 64, 8, periodic_q=True)
    spec = ProblemSpec(pair=GaussianPair(0.3, 0.8))
    f = density_from_function(grid, GaussianDensity(0.4, 0.0, 0.5, 0.8), warn=False)
    force = mean_field_force(f, spec)
    rolled = mean_field_force(DensityField(grid, np.roll(f.values, 5, axis=0)), spec)
    assert np.abs(rolled - np.roll(force, 5)).max() <= 1e-14 * np.abs(force).max()


def test_the_first_mean_field_call_traces_under_a_megabyte():
    # the n_q x n_q table this replaced took 8 n_q^2 bytes: 32 MiB at n_q = 2048
    grid = PhaseGrid(-6, 6, -3, 3, 2048, 8)
    f = DensityField(grid, np.ones((2048, 8)))
    spec = ProblemSpec(pair=GaussianPair(0.3, 0.8))
    _pair_kernel.cache_clear()
    assert traced_peak(lambda: mean_field_force(f, spec)) < 1_000_000


def test_density_from_function_traces_at_most_three_fields():
    grid = PhaseGrid(-8, 8, -8, 8, 512, 512)
    field_bytes = 8 * 512 * 512
    peak = traced_peak(lambda: density_from_function(grid, GaussianDensity(0.3, 0, 1, 1)))
    assert peak <= 3 * field_bytes, peak / field_bytes


def test_density_from_function_mass_and_flags():
    grid = PhaseGrid(-8, 8, -8, 8, 64, 64)
    f = density_from_function(grid, GaussianDensity(0, 0, 1, 1))
    assert abs(f.mass - 1.0) < 1e-6

    const = density_from_function(grid, lambda q, p: np.full_like(q, 0.3), warn=False)
    assert_allclose(const.mass, 0.3 * 16 * 16, rtol=1e-12)

    with pytest.raises(ValueError, match="nonnegative"):
        density_from_function(grid, lambda q, p: q)

    narrow = GaussianDensity(0, 0, 0.05, 0.05)  # sigma well below the cell size
    with pytest.warns(GridResolutionWarning):
        density_from_function(grid, narrow)


def test_a_mixture_samples_as_the_weighted_sum_of_its_components():
    grid = PhaseGrid(-6, 6, -6, 6, 48, 48)
    parts = (GaussianDensity(-1.0, 0.5, 0.7, 0.8), GaussianDensity(1.2, -0.3, 0.9, 0.6, 2.0),
             GaussianDensity(0.0, 0.0, 1.1, 1.0))
    mix = GaussianMixture(parts, (1.0, 3.0, 0.5))
    w = mix.weights
    a, b, c = (density_from_function(grid, part, warn=False).values for part in parts)
    assert_array_equal(density_from_function(grid, mix, warn=False).values,
                       w[0] * a + w[1] * b + w[2] * c)


def test_density_from_function_boundary_mass_warning():
    grid = PhaseGrid(-1, 1, -1, 1, 8, 8)
    # a wide gaussian on a tiny box trips the boundary check (and, being badly
    # truncated, the resolution check as well)
    with pytest.warns((BoundaryMassWarning, GridResolutionWarning)) as records:
        density_from_function(grid, GaussianDensity(0, 0, 1.0, 1.0))
    assert any(isinstance(r.message, BoundaryMassWarning) for r in records)


def test_with_pair_strength():
    spec = ProblemSpec(pair=GaussianPair(strength=0.1, width=0.5))
    assert spec.with_pair_strength(0.2).pair.strength == 0.2
    assert spec.with_pair_strength(0.2).pair.width == 0.5
    spec_c = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=2.0))
    assert spec_c.with_pair_strength(0.3).pair.wavenumber == 2.0
    with pytest.raises(ValueError):
        ProblemSpec().with_pair_strength(0.1)


GRID_4 = PhaseGrid(-3, 3, -3, 3, 4, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: HarmonicPotential(0.0), "omega must be > 0"),
    (lambda: HarmonicPotential(1e200), "omega = 1e+200 overflows omega**2"),
    (lambda: CosinePotential(0.0, 1.0), "wavenumber must be > 0"),
    (lambda: CosinePair(1.0, -1.0), "wavenumber must be > 0"),
    (lambda: GaussianPair(1.0, 0.0), "width must be > 0"),
    (lambda: ProblemSpec(mass=0.0), "mass must be > 0"),
    (lambda: PhaseGrid(-np.inf, 1, 0, 1, 4, 4), "grid bounds must be finite"),
    (lambda: PhaseGrid(0, 1, 0, np.inf, 4, 4), "grid bounds must be finite"),
    (lambda: DensityField(GRID_4, np.zeros((3, 4))),
     "values shape (3, 4) does not match grid (4, 4)"),
    (lambda: density_from_function(GRID_4, lambda q, p: np.zeros(3)),
     "density function must broadcast over coordinate arrays"),
], ids=["omega", "omega-squared", "cosine-k", "cosine-pair-k", "pair-width", "mass",
        "q-bound", "p-bound", "field-shape", "no-broadcast"])
def test_phase_space_types_refuse_bad_parameters(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
