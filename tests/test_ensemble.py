import numpy as np
import pytest
from kvnsim import ensemble
from kvnsim.densities import GaussianDensity, GaussianMixture
from kvnsim.ensemble import (
    MAX_PAIR_EVALUATIONS,
    EnsembleSettings,
    ensemble_vs_vlasov,
    histogram_density,
    integrate_nbody,
    sample_initial,
)
from kvnsim.flow import FlowSettings, flow_map_points
from kvnsim.phase_space import (
    CosinePair,
    CostError,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
    pair_force_sum,
)
from kvnsim.vlasov import VlasovSettings

UNIT = GaussianDensity(0.0, 0.0, 1.0, 1.0)


def test_sampler_mean_within_clt_bound():
    n = 100_000
    pts = sample_initial(UNIT, n, seed=42)
    bound = 4.0 / np.sqrt(n)
    assert abs(pts[:, 0].mean()) < bound
    assert abs(pts[:, 1].mean()) < bound


def test_sampler_deterministic_under_seed():
    a = sample_initial(UNIT, 1000, seed=7)
    b = sample_initial(UNIT, 1000, seed=7)
    assert np.array_equal(a, b)
    c = sample_initial(UNIT, 1000, seed=8)
    assert not np.array_equal(a, c)


def test_mixture_component_counts_binomial_bound():
    mix = GaussianMixture(
        components=(GaussianDensity(-4.0, 0.0, 0.3, 0.3), GaussianDensity(4.0, 0.0, 0.3, 0.3)),
        weights=(0.5, 0.5),
    )
    n = 10_000
    pts = sample_initial(mix, n, seed=3)
    left = int(np.sum(pts[:, 0] < 0))
    assert abs(left - n / 2) < 4.0 * np.sqrt(n / 4.0)
    assert abs(mix.mass - 1.0) < 1e-12


def test_sampler_refuses_non_catalog_density():
    with pytest.raises(TypeError, match="catalog"):
        sample_initial(lambda q, p: np.exp(-q**2 - p**2), 10, seed=0)


def test_noninteracting_transport_matches_flow_bitwise():
    spec = ProblemSpec(external=QuarticPotential(a=0.3, b=0.5))
    pts = sample_initial(UNIT, 200, seed=1)
    settings = EnsembleSettings(dt=1e-3)
    moved = integrate_nbody(pts, 1.0, spec, settings)
    reference = flow_map_points(pts, 1.0, spec, FlowSettings(dt=1e-3))
    assert np.array_equal(moved, reference)


def test_two_body_energy_conservation_bare_coupling():
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.5, width=0.7))

    def energy(pts):
        q, p = pts[:, 0], pts[:, 1]
        pair = 0.5 * (np.sum(spec.pair.value(q[:, None] - q[None, :]))
                      - q.size * spec.pair.value(0.0))
        return np.sum(p**2 / 2 + spec.external.value(q, spec.mass)) + pair

    pts = np.array([[0.8, 0.3], [-0.5, -0.2]])
    settings = EnsembleSettings(dt=1e-3, coupling_scaling="bare")
    out = integrate_nbody(pts, 10.0, spec, settings)
    assert abs(energy(out) - energy(pts)) / abs(energy(pts)) < 1e-4


def test_momentum_conservation_pair_forces_only():
    spec = ProblemSpec(pair=GaussianPair(strength=0.5, width=0.7))
    pts = sample_initial(UNIT, 100, seed=3)
    settings = EnsembleSettings(dt=1e-2, coupling_scaling="bare")
    out = integrate_nbody(pts, 2.0, spec, settings)
    assert abs(out[:, 1].sum() - pts[:, 1].sum()) < 1e-10


def test_cosine_factorized_force_matches_direct_sum():
    spec = ProblemSpec(pair=CosinePair(strength=0.3, wavenumber=1.4))
    q = np.random.default_rng(1).uniform(-3, 3, 64)
    fast = -0.25 * pair_force_sum(q, q, np.ones_like(q), spec.pair)
    direct = np.array([-0.25 * np.sum(spec.pair.gradient(q[i] - q)) for i in range(64)])
    assert np.max(np.abs(fast - direct)) < 1e-13


def test_interacting_runs_need_two_particles():
    spec = ProblemSpec(pair=GaussianPair(strength=0.1, width=1.0))
    with pytest.raises(ValueError, match="two"):
        integrate_nbody(np.array([[0.0, 0.0]]), 0.1, spec,
                        EnsembleSettings(dt=0.01))


def test_cost_guard_refuses_before_integrating():
    spec = ProblemSpec(pair=GaussianPair(strength=0.1, width=0.8))
    pts = sample_initial(UNIT, 2000, seed=1)
    # the proxy path at N = 2000 plans ~1.6e5 evaluations per pass; 10^5 passes
    # exceed the cap, so the refusal comes at once instead of after hours
    assert 10**5 * 1.6e5 > MAX_PAIR_EVALUATIONS
    with pytest.raises(CostError, match="pair-kernel evaluations"):
        integrate_nbody(pts, 1000.0, spec, EnsembleSettings(dt=0.01))
    assert issubclass(CostError, ValueError)


@pytest.mark.parametrize("shape", [(5, 3), (5, 1), (2, 5, 2), (2,)])
def test_histogram_refuses_points_that_are_not_q_p_rows(shape):
    grid = PhaseGrid(-1, 1, -1, 1, 4, 4)
    with pytest.raises(ValueError, match=r"\(n, 2\) array of \(q, p\)"):
        histogram_density(np.zeros(shape), grid)


def test_periodic_ensemble_refuses_pairs_the_wrap_would_change():
    # q = +-3 on [-pi, pi) sit 0.28 apart through the seam: the grid solver feels
    # a force of 0.96 there, raw particle differences of 6 only 1e-30
    grid = PhaseGrid(-np.pi, np.pi, -5, 5, 16, 16, periodic_q=True)
    spec = ProblemSpec(pair=GaussianPair(strength=1.0, width=0.5))
    with pytest.raises(ValueError, match="periodic q-domain"):
        ensemble_vs_vlasov(UNIT, spec, grid, 0.1, [100], EnsembleSettings(dt=0.05),
                           VlasovSettings(dt=0.02), seed=1)
    off_period = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.5))
    with pytest.raises(ValueError, match="periodic q-domain"):
        ensemble_vs_vlasov(UNIT, off_period, grid, 0.1, [100],
                           EnsembleSettings(dt=0.05), VlasovSettings(dt=0.02), seed=1)


def test_the_comparison_refuses_a_density_of_other_than_unit_mass():
    # the histogram has mass 1 whatever the density: at mass 2 the distance
    # floors at |2 - 1| and hid the 1/sqrt(n) decay (1.044, 1.010, 1.0015)
    grid = PhaseGrid(-6, 6, -6, 6, 16, 16)
    for mass in (2.0, 0.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="total mass 1"):
            ensemble_vs_vlasov(GaussianDensity(mass=mass), ProblemSpec(), grid, 0.1, [100],
                               EnsembleSettings(dt=0.05), VlasovSettings(dt=0.02), seed=1)


def test_sampling_refuses_a_density_of_other_than_unit_mass(monkeypatch):
    # a histogram of the samples has mass 1 whatever the density's mass
    for density in (GaussianDensity(mass=2.0), GaussianMixture(
            components=(GaussianDensity(mass=0.5), GaussianDensity(mass=0.5)),
            weights=(1.0, 1.0 - 1e-9))):
        with pytest.raises(ValueError, match="total mass 1"):
            sample_initial(density, 100, seed=0)
    sample_initial(GaussianDensity(mass=1.0 + 1e-13), 10, seed=0)
    # the comparison refuses before its Vlasov solve
    def solve(*args, **kwargs):
        raise AssertionError("the Vlasov solve ran")
    monkeypatch.setattr(ensemble, "vlasov_solve", solve)
    with pytest.raises(ValueError, match="total mass 1"):
        ensemble_vs_vlasov(GaussianDensity(mass=2.0), ProblemSpec(),
                           PhaseGrid(-6, 6, -6, 6, 16, 16), 0.1, [100],
                           EnsembleSettings(dt=0.05), VlasovSettings(dt=0.02), seed=1)


def test_histogram_point_mass_and_empty():
    grid = PhaseGrid(-1, 1, -1, 1, 4, 4)
    pts = np.tile([[0.3, 0.4]], (50, 1))
    hist = histogram_density(pts, grid)
    assert hist.values.max() == pytest.approx(1.0 / grid.cell_volume)
    assert hist.mass == pytest.approx(1.0)

    empty = histogram_density(np.empty((0, 2)), grid)
    assert empty.mass == 0.0
    assert np.all(empty.values == 0.0)


def test_histogram_uniform_fluctuations_poissonian():
    grid = PhaseGrid(0, 1, 0, 1, 8, 8)
    rng = np.random.default_rng(9)
    n = 640_000  # 10_000 expected per cell
    pts = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
    hist = histogram_density(pts, grid)
    counts = hist.values * grid.cell_volume * n
    rel = np.abs(counts - 10_000) / 10_000
    assert np.max(rel) < 6.0 / np.sqrt(10_000)
    assert hist.mass == pytest.approx(1.0)


def test_histogram_flags_out_of_domain_points():
    grid = PhaseGrid(-1, 1, -1, 1, 4, 4)
    pts = sample_initial(GaussianDensity(0, 0, 2.0, 2.0), 2000, seed=5)
    hist = histogram_density(pts, grid)
    assert hist.mass < 1.0


def test_histogram_wraps_periodic_positions():
    grid = PhaseGrid(-np.pi, np.pi, -1, 1, 8, 4, periodic_q=True)
    pts = np.array([[np.pi + 0.1, 0.0]])  # wraps to -pi + 0.1
    hist = histogram_density(pts, grid)
    assert hist.mass == pytest.approx(1.0)
    assert hist.values[0].sum() > 0


PERIODIC_SCENARIO = dict(
    grid=PhaseGrid(-np.pi, np.pi, -5, 5, 32, 32, periodic_q=True),
    dens=GaussianDensity(0.0, 0.0, 0.7, 0.7),
    vlasov=VlasovSettings(dt=0.02),
)


def test_noninteracting_convergence_one_over_sqrt_n():
    spec = ProblemSpec()
    table = ensemble_vs_vlasov(
        PERIODIC_SCENARIO["dens"], spec, PERIODIC_SCENARIO["grid"], 0.5,
        [1000, 10_000, 100_000], EnsembleSettings(dt=0.05),
        PERIODIC_SCENARIO["vlasov"], seed=11)
    for ratio in table.ratios:
        assert 2.5 <= ratio <= 4.0


def test_interacting_convergence_monotone():
    spec = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.0))
    table = ensemble_vs_vlasov(
        PERIODIC_SCENARIO["dens"], spec, PERIODIC_SCENARIO["grid"], 0.5,
        [1000, 10_000, 100_000], EnsembleSettings(dt=0.05),
        PERIODIC_SCENARIO["vlasov"], seed=12)
    errs = [e for _, e in table.rows]
    assert errs[0] > errs[1] > errs[2]
    assert -0.65 < table.fitted_order < -0.35


def test_convergence_seed_stability():
    spec = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.0))
    dists = []
    for seed in (21, 22):
        table = ensemble_vs_vlasov(
            PERIODIC_SCENARIO["dens"], spec, PERIODIC_SCENARIO["grid"], 0.5,
            [10_000], EnsembleSettings(dt=0.05),
            PERIODIC_SCENARIO["vlasov"], seed=seed)
        dists.append(table.rows[0][1])
    assert max(dists) / min(dists) < 3.0


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianDensity(q_sigma=0.0), "q_sigma must be > 0"),
    (lambda: GaussianDensity(p_sigma=-1.0), "p_sigma must be > 0"),
    (lambda: GaussianDensity(mass=-1.0), "mass must be >= 0"),
    (lambda: GaussianMixture((), ()), "components and weights must be non-empty and equal"),
    (lambda: GaussianMixture((UNIT,), (1.0, 2.0)),
     "components and weights must be non-empty and equal"),
    (lambda: GaussianMixture((UNIT, UNIT), (1.0, -1.0)), r"weights\[1\] must be >= 0"),
    (lambda: GaussianMixture((UNIT,), (0.0,)), "weights must not all vanish"),
], ids=["q-sigma", "p-sigma", "mass", "empty-mixture", "unequal-lengths", "negative-weight",
        "zero-weights"])
def test_catalog_densities_refuse_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: EnsembleSettings(dt=0.0), "dt must be > 0"),
    (lambda: EnsembleSettings(dt=0.1, coupling_scaling="none"),
     "unknown coupling scaling 'none'"),
    (lambda: sample_initial(UNIT, 0, seed=1), "n must be >= 1"),
], ids=["dt", "coupling-scaling", "sample-size"])
def test_ensemble_refuses_bad_settings_and_sample_sizes(build, message):
    with pytest.raises(ValueError, match=message):
        build()
