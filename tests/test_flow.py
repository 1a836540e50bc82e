import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kvnsim.densities import GaussianDensity
from kvnsim.flow import (
    FlowSettings,
    flow_jacobian,
    flow_map_points,
    flow_trajectory,
    group_property_residual,
)
from kvnsim.perturbation import (
    PerturbationSettings,
    first_order_correction_points,
    interaction_source_points,
    transported_density_points,
)
from kvnsim.phase_space import (
    CosinePotential,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
)

FREE = ProblemSpec()
HARMONIC = ProblemSpec(external=HarmonicPotential(omega=1.0))
QUARTIC = ProblemSpec(external=QuarticPotential(a=0.0, b=1.0))
COSINE = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5))
DT3 = FlowSettings(dt=1e-3)


def test_settings_validation():
    with pytest.raises(ValueError):
        FlowSettings(dt=0.0)


def test_free_streaming_exact():
    out = flow_map_points(np.array([[0.0, 1.0]]), 2.0, FREE, DT3)
    assert_allclose(out, [[2.0, 1.0]])


def test_harmonic_quarter_turn():
    (out,) = flow_map_points(np.array([[1.0, 0.0]]), np.pi / 2, HARMONIC, DT3)
    assert abs(out[0]) < 1e-6
    assert abs(out[1] + 1.0) < 1e-6


@pytest.mark.parametrize("spec", [FREE, HARMONIC, QUARTIC, COSINE])
def test_reversibility_round_trip(spec):
    x0 = np.array([[0.3, 0.4]])
    for t in (1.0, 5.0):
        fwd = flow_map_points(x0, t, spec, DT3)
        back = flow_map_points(fwd, -t, spec, DT3)
        assert np.max(np.abs(back - x0)) < 1e-10


def test_jacobian_free_is_unit_shear():
    x = np.array([[0.2, -0.4]])
    (jac,) = flow_jacobian(x, 3.0, FREE, DT3)
    assert_allclose(jac, [[1.0, 3.0], [0.0, 1.0]], atol=1e-9)
    assert abs(np.linalg.det(jac) - 1.0) < 1e-9


def test_jacobian_volume_preservation_harmonic():
    x = np.array([[1.0, 1.0]])
    (jac,) = flow_jacobian(x, 1.0, HARMONIC, DT3, h=1e-5)
    assert abs(np.linalg.det(jac) - 1.0) < 1e-6


def test_c5_probes_give_one_result_per_row_of_a_batch():
    # a batch's rows read what each row reads flowed alone, bit for bit
    x = np.array([[0.2, -0.4], [1.0, 1.0], [-0.7, 0.3]])
    jac = flow_jacobian(x, 1.0, HARMONIC, DT3)
    residual = group_property_residual(x, 0.5, 0.25, HARMONIC, DT3)
    assert jac.shape == (3, 2, 2) and residual.shape == (3,)
    for row, jac_row, residual_row in zip(x, jac, residual):
        assert np.array_equal(flow_jacobian(row[None], 1.0, HARMONIC, DT3), jac_row[None])
        assert np.array_equal(group_property_residual(row[None], 0.5, 0.25, HARMONIC, DT3),
                              [residual_row])


def test_jacobian_identity_at_t0():
    x = np.array([[0.7, -0.2]])
    out = flow_map_points(x, 0.0, QUARTIC, DT3)
    assert np.array_equal(out, x)
    # the fd estimate of the identity carries probe rounding of order eps/h
    (jac,) = flow_jacobian(x, 0.0, QUARTIC, DT3)
    assert_allclose(jac, np.eye(2), atol=1e-10)
    assert abs(np.linalg.det(jac) - 1.0) < 1e-9


@pytest.mark.parametrize("spec", [FREE, HARMONIC, QUARTIC, COSINE])
def test_volume_preservation_catalog(spec):
    x = np.array([[0.5, 0.8]])
    (jac,) = flow_jacobian(x, 2.0, spec, DT3, h=1e-5)
    assert abs(np.linalg.det(jac) - 1.0) < 1e-6


def test_group_property_free_exact():
    x = np.array([[0.1, 0.9]])
    assert group_property_residual(x, 1.0, 2.0, FREE, DT3).max() == 0.0


def test_group_property_aligned_steps():
    x = np.array([[1.0, 0.0]])
    assert group_property_residual(x, 0.5, 0.5, HARMONIC, DT3).max() < 1e-12
    assert group_property_residual(x, 0.25, 0.75, QUARTIC, DT3).max() < 1e-12


def test_group_property_inverse_is_reversibility():
    x = np.array([[0.3, 0.4]])
    assert group_property_residual(x, 1.0, -1.0, QUARTIC, DT3).max() < 1e-10


def test_energy_drift_harmonic():
    settings = FlowSettings(dt=1e-2)
    x0 = np.array([1.0, 0.0])
    e0 = 0.5 * (x0[1] ** 2 + x0[0] ** 2)
    (out,) = flow_map_points(x0[None], 100.0, HARMONIC, settings)
    e1 = 0.5 * (out[1] ** 2 + out[0] ** 2)
    assert abs(e1 - e0) / e0 < 1e-3


@pytest.mark.parametrize("spec", [FREE, HARMONIC])
def test_exact_shortcut_agrees_at_second_order(spec):
    x0 = np.array([[0.8, 0.5]])
    exact = flow_map_points(x0, 1.0, spec, FlowSettings(dt=1e-2, exact_shortcut=True))
    coarse = flow_map_points(x0, 1.0, spec, FlowSettings(dt=1e-2))
    fine = flow_map_points(x0, 1.0, spec, FlowSettings(dt=5e-3))
    err_c = np.max(np.abs(coarse - exact))
    err_f = np.max(np.abs(fine - exact))
    if err_c < 1e-13:  # free motion: Verlet is already exact to roundoff
        assert err_f < 1e-13
    else:
        assert 3.0 < err_c / err_f < 5.0


def test_exact_shortcut_falls_back_for_quartic():
    # closed forms exist only for free/harmonic; other potentials integrate
    x0 = np.array([[0.1, 0.1]])
    with_flag = flow_map_points(x0, 1.0, QUARTIC, FlowSettings(dt=1e-2, exact_shortcut=True))
    without = flow_map_points(x0, 1.0, QUARTIC, FlowSettings(dt=1e-2))
    assert np.array_equal(with_flag, without)


def test_partial_final_step_reaches_arbitrary_times():
    # t = 1.0005 with dt=1e-3: 1000 full steps plus a 0.0005 remainder
    out = flow_map_points(np.array([[0.0, 1.0]]), 1.0005, FREE, DT3)
    assert_allclose(out, [[1.0005, 1.0]], rtol=1e-12)


def test_flow_trajectory_shape_and_consistency():
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    times = np.array([0.0, 0.5, 1.0])
    traj = flow_trajectory(pts, times, HARMONIC, DT3)
    assert traj.shape == (3, 2, 2)
    assert_allclose(traj[0], pts)
    direct = flow_map_points(pts, 1.0, HARMONIC, DT3)
    assert_allclose(traj[2], direct, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([FREE, HARMONIC, QUARTIC, COSINE]),
       q=st.floats(-2.0, 2.0), p=st.floats(-2.0, 2.0), steps=st.integers(-2000, 2000))
def test_flow_reversibility_and_volume_property(spec, q, p, steps):
    # C5's windows at random points and dt-aligned times |t| <= 2
    x = np.array([[q, p]])
    t = steps * DT3.dt
    back = flow_map_points(flow_map_points(x, t, spec, DT3), -t, spec, DT3)
    assert np.max(np.abs(back - x)) < 1e-10
    (jac,) = flow_jacobian(x, t, spec, DT3, h=1e-5)
    assert abs(np.linalg.det(jac) - 1.0) < 1e-6


RHO0 = GaussianDensity(0.6, 0.0, 0.7, 0.7)
INTERACTING = ProblemSpec(external=HarmonicPotential(omega=1.0),
                          pair=GaussianPair(strength=0.1, width=0.8))
PERT = PerturbationSettings(aux_grid=PhaseGrid(-6, 6, -6, 6, 32, 32), n_s=4)
POINT_CONSUMERS = {
    "flow": lambda pts: flow_map_points(pts, 0.5, FREE, DT3),
    "jacobian": lambda pts: flow_jacobian(pts, 0.5, FREE, DT3),
    "group-residual": lambda pts: group_property_residual(pts, 0.25, 0.25, FREE, DT3),
    "trajectory": lambda pts: flow_trajectory(pts, [0.0, 0.5], FREE, DT3),
    "source": lambda pts: interaction_source_points(pts, 0.5, RHO0, INTERACTING, PERT,
                                                    PERT.aux_grid),
    "transported": lambda pts: transported_density_points(pts, 0.5, RHO0, HARMONIC, DT3,
                                                               PERT.aux_grid),
    "correction": lambda pts: first_order_correction_points(pts, 0.5, RHO0, INTERACTING, PERT,
                                                                 PERT.aux_grid),
    "correction-t0": lambda pts: first_order_correction_points(pts, 0.0, RHO0, INTERACTING, PERT,
                                                                    PERT.aux_grid),
    "correction-no-pair": lambda pts: first_order_correction_points(pts, 0.5, RHO0, HARMONIC,
                                                                    PERT, PERT.aux_grid),
}


@pytest.mark.parametrize("consumer", POINT_CONSUMERS)
@pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1), (2, 2, 2), (), (2,)],
                         ids=["3", "4x3", "4x1", "2x2x2", "scalar", "2"])
def test_rejects_points_that_are_not_q_p_pairs(consumer, shape):
    with pytest.raises(ValueError, match="points must be a"):
        POINT_CONSUMERS[consumer](np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flow_refuses_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite points"):
        flow_map_points(np.array([[0.0, 1.0], [bad, 0.1]]), 1.0, HARMONIC, DT3)


def test_a_step_count_that_overflows_a_float_is_a_named_value_error():
    from kvnsim.flow import _split_steps

    with pytest.raises(ValueError, match="not a finite step count"):
        _split_steps(1e306, 1e-3)
    with pytest.raises(ValueError, match="not a finite step count"):
        flow_map_points(np.array([[0.0, 1.0]]), 1e306, HARMONIC, FlowSettings(dt=1e-3))


@pytest.mark.parametrize("call, message", [
    (lambda: flow_map_points(np.zeros((1, 2)), np.nan, ProblemSpec(), FlowSettings()),
     "t must be finite"),
    (lambda: flow_jacobian(np.zeros((1, 2)), 1.0, ProblemSpec(), FlowSettings(), h=0.0),
     "fd step h must be > 0"),
    (lambda: flow_trajectory(np.zeros((1, 2)), [], ProblemSpec(), FlowSettings()),
     "times must be a non-empty 1-d array"),
    (lambda: flow_trajectory(np.zeros((1, 2)), [[0.0, 0.1]], ProblemSpec(), FlowSettings()),
     "times must be a non-empty 1-d array"),
    (lambda: flow_trajectory(np.zeros((1, 2)), [0.2, 0.1], ProblemSpec(), FlowSettings()),
     "times must be nondecreasing and nonnegative"),
    (lambda: flow_trajectory(np.zeros((1, 2)), [-0.1, 0.1], ProblemSpec(), FlowSettings()),
     "times must be nondecreasing and nonnegative"),
], ids=["t", "fd-step", "no-times", "2-d-times", "decreasing", "negative"])
def test_flow_functions_refuse_bad_times_and_steps(call, message):
    with pytest.raises(ValueError, match=message):
        call()
