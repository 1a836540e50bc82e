import numpy as np
import pytest
from numpy.testing import assert_allclose

from kvnsim import perturbation
from kvnsim.densities import GaussianDensity
from kvnsim.flow import FlowSettings
from kvnsim.perturbation import (
    AuxGridError,
    PerturbationSettings,
    first_order_correction_points,
    interaction_source_points,
    perturbative_density,
    residual_vs_vlasov,
    transported_density_points,
)
from kvnsim.phase_space import (
    CosinePotential,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
)
from kvnsim.vlasov import VlasovSettings, vlasov_solve
from peak_memory import traced_peak

RHO0 = GaussianDensity(0.6, 0.0, 0.7, 0.7)
HARMONIC = ProblemSpec(external=HarmonicPotential(omega=1.0))
INTERACTING = ProblemSpec(external=HarmonicPotential(omega=1.0),
                          pair=GaussianPair(strength=0.1, width=0.8))
AUX = PhaseGrid(-6, 6, -6, 6, 128, 128)
FLOW_EXACT = FlowSettings(dt=1e-3, exact_shortcut=True)
SETTINGS = PerturbationSettings(aux_grid=AUX, flow=FLOW_EXACT, n_s=16, h_p=1e-4)


def point(q, p):
    """A batch of one point."""
    return np.array([[float(q), float(p)]])


def test_settings_validation():
    with pytest.raises(ValueError):
        PerturbationSettings(aux_grid=AUX, n_s=1)
    with pytest.raises(ValueError):
        PerturbationSettings(aux_grid=AUX, h_p=0.0)
    with pytest.raises(TypeError):
        PerturbationSettings(aux_grid=AUX, quadrature="gauss-legendre")


def test_transported_density_t0():
    x = point(1.2, -0.3)
    got = transported_density_points(x, 0.0, RHO0, HARMONIC, FLOW_EXACT, AUX)[0]
    assert got == RHO0(1.2, -0.3)


def test_transported_density_free_streaming_spot_value():
    x = point(1.0, 1.0)
    got = transported_density_points(x, 1.0, RHO0, ProblemSpec(), FlowSettings(dt=1e-3),
                                     AUX)[0]
    assert_allclose(got, RHO0(0.0, 1.0), rtol=1e-12)


def test_transported_density_harmonic_rotation_oracle():
    # Verlet path against the closed-form back-rotation
    x = point(1.0, 0.5)
    t = 0.8
    got = transported_density_points(x, t, RHO0, HARMONIC, FlowSettings(dt=1e-3), AUX)[0]
    c, s = np.cos(t), np.sin(t)
    expected = RHO0(1.0 * c - 0.5 * s, 0.5 * c + 1.0 * s)
    assert abs(got - expected) / expected < 1e-6


def test_source_vanishes_without_pair_potential():
    assert interaction_source_points(point(1.0, 1.0), 0.5, RHO0, HARMONIC, SETTINGS,
                                     AUX)[0] == 0.0


def test_source_vanishes_at_momentum_extremum():
    # at t=0 the p-derivative of the transported density vanishes at p = p_center
    x = point(0.6, 0.0)
    f = interaction_source_points(x, 0.0, RHO0, INTERACTING, SETTINGS, AUX)[0]
    scale = RHO0(0.6, 0.0)
    assert abs(f) < 1e-8 * scale


def _source_oracle(x, t, rho_init, spec, h_p, aux):
    """Independent refined-quadrature evaluation of the first-order source."""
    flow = FlowSettings(dt=1e-3, exact_shortcut=True)

    def rho0_at(pts):
        return transported_density_points(pts, t, rho_init, spec, flow, aux)

    up = rho0_at(np.array([[x[0], x[1] + h_p]]))[0]
    dn = rho0_at(np.array([[x[0], x[1] - h_p]]))[0]
    grad_p = (up - dn) / (2 * h_p)
    Qa, Pa = aux.meshgrid()
    vals = rho0_at(np.column_stack([Qa.ravel(), Pa.ravel()])).reshape(aux.n_q, aux.n_p)
    marginal = vals.sum(axis=1) * aux.dp
    integral = np.sum(marginal * spec.pair.gradient(x[0] - aux.q_centers)) * aux.dq
    return grad_p * integral


def test_source_probe_point_against_refined_oracle():
    x = (1.1, -0.4)
    t = 0.5
    got = interaction_source_points(point(*x), t, RHO0, INTERACTING, SETTINGS, AUX)[0]
    fine_aux = PhaseGrid(-6, 6, -6, 6, 1280, 1280)
    oracle = _source_oracle(x, t, RHO0, INTERACTING, h_p=1e-5, aux=fine_aux)
    assert abs(got - oracle) / abs(oracle) < 1e-3


def test_first_order_correction_trivial_zeroes():
    x = point(1.0, 0.3)
    assert first_order_correction_points(x, 0.0, RHO0, INTERACTING, SETTINGS, AUX)[0] == 0.0
    assert first_order_correction_points(x, 0.5, RHO0, HARMONIC, SETTINGS, AUX)[0] == 0.0


def test_first_order_correction_quadrature_refinement():
    x = point(1.0, 1.0)
    coarse = first_order_correction_points(x, 0.5, RHO0, INTERACTING, SETTINGS, AUX)[0]
    fine_settings = PerturbationSettings(aux_grid=AUX, flow=FLOW_EXACT, n_s=32, h_p=1e-4)
    fine = first_order_correction_points(x, 0.5, RHO0, INTERACTING, fine_settings, AUX)[0]
    assert abs(fine - coarse) / abs(fine) < 1e-4


def test_correction_is_exactly_linear_in_strength():
    grid = PhaseGrid(-6, 6, -6, 6, 24, 24)
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    r1 = first_order_correction_points(pts, 0.5, RHO0, INTERACTING, SETTINGS, grid)
    r2 = first_order_correction_points(
        pts, 0.5, RHO0, INTERACTING.with_pair_strength(0.2), SETTINGS, grid)
    scale = np.max(np.abs(r2))
    assert np.max(np.abs(r2 - 2.0 * r1)) <= 1e-10 * scale


def test_perturbative_density_trivial_cases():
    grid = PhaseGrid(-6, 6, -6, 6, 32, 32)
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])

    # zero coupling: field equals the transported density on the grid
    field = perturbative_density(grid, 0.5, RHO0, HARMONIC, SETTINGS)
    rho0_vals = transported_density_points(pts, 0.5, RHO0, HARMONIC, FLOW_EXACT, grid)
    assert np.array_equal(field.values, rho0_vals.reshape(32, 32))

    # t = 0: field equals the initial density sampled on the grid
    field0 = perturbative_density(grid, 0.0, RHO0, INTERACTING, SETTINGS)
    assert_allclose(field0.values, RHO0(Q, P), rtol=0, atol=1e-15)


def test_perturbative_density_strength_scaling_identity():
    grid = PhaseGrid(-6, 6, -6, 6, 24, 24)
    base = perturbative_density(grid, 0.5, RHO0, HARMONIC, SETTINGS)
    f1 = perturbative_density(grid, 0.5, RHO0, INTERACTING, SETTINGS)
    f2 = perturbative_density(grid, 0.5, RHO0, INTERACTING.with_pair_strength(0.2), SETTINGS)
    lhs = f2.values - base.values
    rhs = 2.0 * (f1.values - base.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_aux_grid_too_small_raises_diagnostic():
    tiny_aux = PhaseGrid(-1, 1, -1, 1, 16, 16)  # misses most of the density
    settings = PerturbationSettings(aux_grid=tiny_aux, flow=FLOW_EXACT)
    with pytest.raises(AuxGridError, match="marginal mass"):
        interaction_source_points(point(0.5, 0.5), 0.3, RHO0, INTERACTING, settings,
                                  tiny_aux)


def test_solver_matches_transported_density_without_coupling():
    # cross-module invariant: at zero coupling the grid solver reproduces the
    # characteristic transport of the initial density to interpolation error
    grid = PhaseGrid(-8, 8, -8, 8, 128, 128)
    dens = GaussianDensity(0.0, 0.0, 1.0, 1.0)
    f0 = density_from_function(grid, dens)
    snap = vlasov_solve(f0, 2.0, HARMONIC, VlasovSettings(dt=0.02))
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    rho0_vals = transported_density_points(pts, 2.0, dens, HARMONIC, FLOW_EXACT, grid)
    assert np.max(np.abs(snap.values - rho0_vals.reshape(128, 128))) < 1e-3


def test_residual_vs_vlasov_reports_floor_at_zero_strength():
    grid = PhaseGrid(-6, 6, -6, 6, 64, 64)
    table = residual_vs_vlasov(0.3, RHO0, INTERACTING, [0.0, 0.1], grid, SETTINGS,
                               VlasovSettings(dt=0.01))
    rows = dict(table.rows)
    assert rows[0.0] < rows[0.1]  # the floor sits below the interacting error
    assert rows[0.0] < 1e-4


def test_residual_sweep_matches_one_expansion_per_strength():
    grid = PhaseGrid(-6, 6, -6, 6, 24, 24)
    vlasov = VlasovSettings(dt=0.01)
    table = residual_vs_vlasov(0.3, RHO0, INTERACTING, [0.2, 0.0, 0.05], grid, SETTINGS,
                               vlasov)
    assert [eps for eps, _ in table.rows] == [0.2, 0.05, 0.0]
    init = density_from_function(grid, RHO0, warn=False)
    for eps, err in table.rows:
        spec = INTERACTING.with_pair_strength(eps)
        pert = perturbative_density(grid, 0.3, RHO0, spec, SETTINGS).values
        solved = vlasov_solve(init, 0.3, spec, vlasov).values
        assert abs(err - np.max(np.abs(pert - solved))) <= 1e-12 * np.max(pert)


def test_residual_sweep_without_a_pair():
    grid = PhaseGrid(-6, 6, -6, 6, 24, 24)
    table = residual_vs_vlasov(0.3, RHO0, HARMONIC, [0.0], grid, SETTINGS,
                               VlasovSettings(dt=0.01))
    pert = perturbative_density(grid, 0.3, RHO0, HARMONIC, SETTINGS).values
    init = density_from_function(grid, RHO0, warn=False)
    solved = vlasov_solve(init, 0.3, HARMONIC, VlasovSettings(dt=0.01)).values
    assert table.rows == ((0.0, np.max(np.abs(pert - solved))),)
    with pytest.raises(ValueError, match="a nonzero strength needs a gaussian or cosine pair "
                                         "potential"):
        residual_vs_vlasov(0.3, RHO0, HARMONIC, [0.0, 0.1], grid, SETTINGS,
                           VlasovSettings(dt=0.01))


def test_periodic_q_transport_wraps_back_traced_points_and_conserves_mass():
    # a cosine trap carries part of the gaussian across q = +-pi by t = 1; the
    # back-traced points must be wrapped into the domain, where the initial
    # field lives, or that part reads the gaussian's far tail (mass 0.99908).
    # p reaches 6 / 0.6 = 9.7 sigma, so no mass leaves through the open p-axis
    grid = PhaseGrid(-np.pi, np.pi, -6, 6, 64, 64, periodic_q=True)
    dens = GaussianDensity(0.3, 0.2, 0.5, 0.6)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5))
    settings = PerturbationSettings(aux_grid=grid, flow=FlowSettings(dt=1e-2))
    field = perturbative_density(grid, 1.0, dens, spec, settings)
    init = density_from_function(grid, dens, warn=False)
    assert abs(field.mass / init.mass - 1.0) < 1e-6  # C4


def test_source_wraps_on_the_run_grid_not_on_an_open_aux_grid():
    # a periodic-q run with an explicit open aux grid: the source's momentum
    # gradient reads the back-traced points wrapped into the run grid, not
    # the far tail of the initial gaussian that the open aux grid would give;
    # the gaussian sits by q = pi and drifts across it
    grid = PhaseGrid(-np.pi, np.pi, -6, 6, 16, 16, periodic_q=True)
    open_aux = PhaseGrid(-8, 8, -6, 6, 64, 64)
    dens = GaussianDensity(2.5, 0.5, 0.5, 0.6)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5),
                       pair=GaussianPair(strength=0.1, width=0.8))
    flow = FlowSettings(dt=1e-2)
    settings = PerturbationSettings(aux_grid=open_aux, flow=flow, h_p=1e-4)
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    got = interaction_source_points(pts, 1.0, dens, spec, settings, grid,
                                    pair_integral=np.ones_like)

    def grad_p(on):
        up = transported_density_points(pts + [0.0, 1e-4], 1.0, dens, spec, flow, on)
        dn = transported_density_points(pts - [0.0, 1e-4], 1.0, dens, spec, flow, on)
        return (up - dn) / 2e-4

    assert np.array_equal(got, grad_p(grid))
    assert np.max(np.abs(got - grad_p(open_aux))) > 0.5 * np.max(np.abs(got))


def test_perturbative_density_refuses_a_negative_time():
    grid = PhaseGrid(-3, 3, -3, 3, 4, 4)
    with pytest.raises(ValueError, match="t must be >= 0"):
        perturbative_density(grid, -0.1, GaussianDensity(), ProblemSpec(),
                             PerturbationSettings(aux_grid=grid))


def test_residual_refuses_a_negative_time_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the comparison worked before checking t")

    for name in ("perturbative_density", "transported_density_points",
                 "density_from_function", "vlasov_solve"):
        monkeypatch.setattr(perturbation, name, no_work)
    grid = PhaseGrid(-6, 6, -6, 6, 32, 32)
    for strengths in ([0.0], [0.1, 0.0]):
        with pytest.raises(ValueError, match="t must be >= 0"):
            residual_vs_vlasov(-0.1, RHO0, INTERACTING, strengths, grid, SETTINGS,
                               VlasovSettings(dt=0.01))


def test_residual_rows_are_bit_identical_to_their_parts():
    # one expansion at the top strength, the zeroth order, their (1 - w, w)
    # blend and one grid solve per strength rebuild every row exactly
    grid = PhaseGrid(-6, 6, -6, 6, 24, 24)
    vlasov = VlasovSettings(dt=0.01)
    table = residual_vs_vlasov(0.3, RHO0, INTERACTING, [0.2, 0.1, 0.0], grid, SETTINGS,
                               vlasov)
    full = perturbative_density(grid, 0.3, RHO0, INTERACTING.with_pair_strength(0.2),
                                SETTINGS).values
    Q, P = grid.meshgrid()
    zeroth = transported_density_points(np.column_stack([Q.ravel(), P.ravel()]), 0.3, RHO0,
                                        INTERACTING, FLOW_EXACT, grid).reshape(24, 24)
    init = density_from_function(grid, RHO0, warn=False)
    rows = []
    for eps in (0.2, 0.1, 0.0):
        w = eps / 0.2
        pert = (1.0 - w) * zeroth + w * full
        solved = vlasov_solve(init, 0.3, INTERACTING.with_pair_strength(eps), vlasov).values
        rows.append((eps, float(np.max(np.abs(pert - solved)))))
    assert table.rows == tuple(rows)


def test_the_comparison_holds_little_beyond_its_first_order():
    # the comparison expands before it holds a grid-sized array of its own,
    # so its peak is the first order's plus the expansion's cell points and
    # zeroth order (24 B per cell); one that also held a meshgrid pair, its
    # own points and its own zeroth order through the expansion reads +81
    grid = PhaseGrid(-6, 6, -6, 6, 64, 64)
    settings = PerturbationSettings(aux_grid=grid, flow=FLOW_EXACT, n_s=4)
    vlasov = VlasovSettings(dt=0.01)

    def compare():
        residual_vs_vlasov(0.3, RHO0, INTERACTING, [0.2, 0.1], grid, settings, vlasov)

    compare()  # fills the solver's cached prefilter tiles and pair kernels first
    Q, P = grid.meshgrid()
    pts = np.column_stack([Q.ravel(), P.ravel()])
    first = traced_peak(lambda: first_order_correction_points(
        pts, 0.3, RHO0, INTERACTING.with_pair_strength(0.2), settings, grid))
    assert traced_peak(compare) - first <= 48 * grid.n_q * grid.n_p
