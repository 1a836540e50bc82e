import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from kvnsim.densities import GaussianDensity
from kvnsim.flow import FlowSettings
from kvnsim.perturbation import transported_density_points
from kvnsim.phase_space import (
    CosinePair,
    CosinePotential,
    DensityField,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
)
import kvnsim.vlasov as vlasov
from kvnsim.vlasov import (
    CFLViolation,
    VlasovSettings,
    _bspline_prefilter,
    _OpenAxis,
    _PeriodicAxis,
    _Stepper,
    vlasov_solve,
)

FREE = ProblemSpec()
STANDARD_GAUSSIAN = GaussianDensity(0.0, 0.0, 1.0, 1.0)


def one_step(rho, spec, settings):
    """One Strang step of size dt: half-drift in q, kick in p, half-drift in q, clip."""
    t = None if rho.time is None else rho.time + settings.dt
    return _Stepper(rho, spec, settings).run(1, t)


def kept_snapshots(rho0, T, spec, settings, times):
    """The snapshots a solve lends at ``times``, in request order, each kept as a copy."""
    kept = [None] * len(times)

    def keep(i, field):
        kept[i] = DensityField(field.grid, field.values.copy(), field.clip_count, field.time)

    vlasov_solve(rho0, T, spec, settings, times, sink=keep)
    return kept


def wide_grid(n):
    return PhaseGrid(-8, 8, -8, 8, n, n)


def test_settings_validation():
    for dt in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt"):
            VlasovSettings(dt=dt)
    with pytest.raises(ValueError):
        VlasovSettings(dt=0.01, interpolation="quintic")


@pytest.mark.parametrize("T, snapshots, match", [
    (math.inf, None, "T must"),
    (math.nan, None, "T must"),
    (-1.0, None, "T must"),
    (1e308, None, "T must"),  # T / dt overflows
    (1.0, [math.inf], r"snapshot_times\[0\]"),
    (1.0, [0.5, math.nan], r"snapshot_times\[1\]"),
    (1.0, [-1.0], r"snapshot_times\[0\]"),
    (1.0, [0.5, 5.0], r"snapshot_times\[1\]"),
])
def test_solve_refuses_non_finite_times_and_snapshots_outside_0_T(T, snapshots, match):
    f0 = density_from_function(wide_grid(16), GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    with pytest.raises(ValueError, match=match):
        vlasov_solve(f0, T, FREE, VlasovSettings(dt=0.1), snapshots)


def test_snapshots_without_a_sink_are_refused():
    f0 = density_from_function(wide_grid(16), GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    with pytest.raises(ValueError, match="need a sink"):
        vlasov_solve(f0, 1.0, FREE, VlasovSettings(dt=0.1), [0.5])


def test_free_streaming_matches_analytic_shift():
    grid = wide_grid(128)
    f0 = density_from_function(grid, STANDARD_GAUSSIAN)
    settings = VlasovSettings(dt=1 / 64)
    snap = vlasov_solve(f0, 1.0, FREE, settings)
    Q, P = grid.meshgrid()
    exact = STANDARD_GAUSSIAN(Q - P, P)
    assert np.max(np.abs(snap.values - exact)) < 1e-3
    assert snap.clip_count == 0


def test_harmonic_isotropic_gaussian_is_stationary():
    grid = wide_grid(128)
    f0 = density_from_function(grid, STANDARD_GAUSSIAN)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    snap = vlasov_solve(f0, 2 * np.pi, spec, VlasovSettings(dt=0.02))
    assert np.max(np.abs(snap.values - f0.values)) < 1e-3
    assert snap.clip_count == 0


def test_mass_conservation_per_step():
    grid = wide_grid(96)
    f0 = density_from_function(grid, STANDARD_GAUSSIAN)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    settings = VlasovSettings(dt=0.02)
    rho = f0
    for _ in range(20):
        new = one_step(rho, spec, settings)
        assert abs(new.mass - rho.mass) / rho.mass < 1e-6
        rho = new


def test_solve_t0_returns_initial():
    grid = wide_grid(32)
    f0 = density_from_function(grid, GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    out = vlasov_solve(f0, 0.0, FREE, VlasovSettings(dt=0.01))
    assert out.time == 0.0
    assert np.array_equal(out.values, f0.values)


def test_free_streaming_snapshots():
    grid = wide_grid(128)
    f0 = density_from_function(grid, STANDARD_GAUSSIAN)
    snaps = kept_snapshots(f0, 1.0, FREE, VlasovSettings(dt=1 / 64), [0.5, 1.0])
    Q, P = grid.meshgrid()
    for t, snap in zip([0.5, 1.0], snaps):
        exact = STANDARD_GAUSSIAN(Q - P * t, P)
        assert np.max(np.abs(snap.values - exact)) < 1e-3
        assert snap.time == pytest.approx(t)


def test_snapshot_times_are_whole_multiples_of_dt():
    # a running sum of dt would give 2.0000000000000013 after 100 steps of 0.02
    f0 = density_from_function(wide_grid(16), GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    dt = 0.02
    snaps = kept_snapshots(f0, 100 * dt, FREE, VlasovSettings(dt=dt), [50 * dt, 100 * dt])
    assert [snap.time for snap in snaps] == [50 * dt, 100 * dt]
    assert vlasov_solve(f0, 100 * dt, FREE, VlasovSettings(dt=dt)).time == 100 * dt


def _spike_field():
    # a cell-scale spike produces visible undershoot under cubic advection
    grid = PhaseGrid(-4, 4, -4, 4, 32, 32)
    values = np.zeros((32, 32))
    values[16, 20] = 1.0
    return DensityField(grid, values)


def _periodic_pair_case():
    grid = PhaseGrid(-np.pi, np.pi, -5, 5, 32, 24, periodic_q=True)
    f0 = density_from_function(grid, GaussianDensity(0.3, 0.0, 0.7, 0.7), warn=False)
    return f0, ProblemSpec(pair=CosinePair(strength=0.2, wavenumber=1.0))


@pytest.mark.parametrize("case", ["periodic-pair", "open-spike"])
@pytest.mark.parametrize("interpolation", ["cubic-spline", "linear"])
def test_snapshot_every_step_is_bit_identical_to_chained_steps(case, interpolation):
    f0, spec = _periodic_pair_case() if case == "periodic-pair" else (_spike_field(), FREE)
    settings = VlasovSettings(dt=0.05, interpolation=interpolation)
    snaps = kept_snapshots(f0, 0.4, spec, settings, [0.05 * k for k in range(1, 9)])
    rho = f0
    for snap in snaps:
        rho = one_step(rho, spec, settings)
        assert np.array_equal(snap.values, rho.values)
        assert snap.clip_count == rho.clip_count
    if case == "open-spike" and interpolation == "cubic-spline":
        assert rho.clip_count > 0


@pytest.mark.parametrize("periodic", [True, False])
def test_fused_solve_makes_n_plus_one_q_drifts_n_p_kicks_and_n_clips(monkeypatch, periodic):
    if periodic:
        f0, spec = _periodic_pair_case()
    else:
        f0, spec = density_from_function(PhaseGrid(-8, 8, -8, 8, 32, 24), STANDARD_GAUSSIAN,
                                         warn=False), FREE
    calls = []
    for name, tag in (("q_drift", "q"), ("p_kick", "p"), ("clip", "clip")):
        method = getattr(_Stepper, name)
        monkeypatch.setattr(_Stepper, name, lambda self, *args, _m=method, _t=tag: (
            calls.append(_t) or _m(self, *args)))
    vlasov_solve(f0, 0.5, spec, VlasovSettings(dt=0.05))
    assert calls == ["q"] + ["p", "q", "clip"] * 10


def test_solve_steps_to_T_whatever_snapshots_it_lends(monkeypatch):
    f0, spec = _periodic_pair_case()
    kicks = []
    monkeypatch.setattr(_Stepper, "p_kick", lambda self: kicks.append(1))
    for times in ([0.1, 0.0], []):
        kicks.clear()
        end = vlasov_solve(f0, 0.25, spec, VlasovSettings(dt=0.05), times,
                           sink=lambda i, field: None)
        assert len(kicks) == 5
        assert end.time == 0.25


def test_the_sink_gets_each_snapshot_when_the_solve_reaches_its_step(monkeypatch):
    f0, spec = _periodic_pair_case()
    settings, times = VlasovSettings(dt=0.05), [0.25, 0.1, 0.0, 0.1]
    # the first two steps run as one fused run from the initial field, as in a
    # solve to 0.1, whose end state owns its released workspace
    at_01 = vlasov_solve(f0, 0.1, spec, settings)
    kicks, seen = [], []
    p_kick = _Stepper.p_kick
    monkeypatch.setattr(_Stepper, "p_kick", lambda self: kicks.append(1) or p_kick(self))
    # the field is lent for the call only, so the sink keeps a copy of its values
    end = vlasov_solve(f0, 0.25, spec, settings, times, sink=lambda i, field: seen.append(
        (i, len(kicks), field, field.values.copy())))
    assert [(i, steps) for i, steps, _, _ in seen] == [(2, 0), (1, 2), (3, 2), (0, 5)]
    assert seen[1][2] is seen[2][2]  # requests that share a step share its field
    assert seen[3][2] is end
    for i, _, field, values in seen:
        expected = {0.0: f0, 0.1: at_01, 0.25: end}[times[i]]
        assert np.array_equal(values, expected.values)
        assert (field.time, field.clip_count) == (times[i], expected.clip_count)


def test_a_sink_and_the_end_state_borrow_the_workspace_which_the_solve_releases(monkeypatch):
    f0, spec = _periodic_pair_case()
    settings, times = VlasovSettings(dt=0.05), [0.1, 0.25, 0.25]
    steppers, shared, fields = [], [], []
    p_kick = _Stepper.p_kick
    monkeypatch.setattr(_Stepper, "p_kick",
                        lambda self: steppers.append(weakref.ref(self)) or p_kick(self))
    end = vlasov_solve(f0, 0.25, spec, settings, times, sink=lambda i, field: (
        shared.append(np.shares_memory(field.values, steppers[-1]().f)), fields.append(field)))
    assert shared == [True, True, True]
    assert fields[1] is fields[2] is end  # requests that share a step share its field
    assert steppers[-1]() is None  # the workspace outlives the solve as the end state alone
    assert end.values.base.flags.c_contiguous and end.values.base.shape == (24, 32)
    assert not np.shares_memory(end.values, f0.values)


def test_periodic_self_consistent_mass_conservation_1000_steps():
    grid = PhaseGrid(-np.pi, np.pi, -5, 5, 32, 32, periodic_q=True)
    dens = GaussianDensity(0.0, 0.0, 0.7, 0.7)
    f0 = density_from_function(grid, dens, warn=False)
    spec = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.0))
    snap = vlasov_solve(f0, 2.0, spec, VlasovSettings(dt=0.002))
    assert abs(snap.mass - f0.mass) / f0.mass < 1e-6


def test_convergence_refinement_free_streaming():
    def linf_error(n, dt):
        grid = wide_grid(n)
        f0 = density_from_function(grid, STANDARD_GAUSSIAN)
        snap = vlasov_solve(f0, 0.5, FREE, VlasovSettings(dt=dt))
        Q, P = grid.meshgrid()
        return np.max(np.abs(snap.values - STANDARD_GAUSSIAN(Q - 0.5 * P, P)))

    coarse = linf_error(64, 0.025)
    fine = linf_error(128, 0.0125)
    assert coarse / fine >= 3.0


@pytest.mark.parametrize("case", ["open-harmonic", "periodic-cosine"])
def test_strang_order_against_exact_transport(case):
    # L1 distance to rho0(Phi_-t(x)) at t = 1 under dt refinement: the spatial
    # error sits well below the splitting error, so halving dt divides the
    # distance by 4 (second order) within C1's window
    if case == "open-harmonic":
        grid, dens = wide_grid(96), GaussianDensity(0.5, 0.0, 0.7, 0.7)
        spec, flow, dts = (ProblemSpec(external=HarmonicPotential(omega=1.0)),
                           FlowSettings(exact_shortcut=True), [0.2, 0.1, 0.05])
    else:  # the exact reference wraps its back-traced points into [-pi, pi)
        grid = PhaseGrid(-np.pi, np.pi, -6, 6, 192, 192, periodic_q=True)
        dens = GaussianDensity(0.0, 0.2, 0.5, 0.6)
        spec, flow, dts = (ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5)),
                           FlowSettings(dt=2e-3), [0.25, 0.125, 0.0625])
    Q, P = grid.meshgrid()
    points = np.column_stack([Q.ravel(), P.ravel()])
    exact = transported_density_points(points, 1.0, dens, spec, flow, grid).reshape(Q.shape)
    f0 = density_from_function(grid, dens, warn=False)
    errors = [np.abs(vlasov_solve(f0, 1.0, spec, VlasovSettings(dt=dt)).values - exact).sum()
              * grid.cell_volume
              for dt in dts]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


@pytest.mark.parametrize("periodic", [True, False])
def test_steps_after_the_first_allocate_nothing_grid_sized(periodic):
    # numpy's own buffers (np.getbufsize() elements per operand) and the
    # O(n_q + n_p) stencils stay below half a byte per cell at 1024^2; a
    # grid-sized temporary, even a boolean one, does not
    n = 1024
    if periodic:
        grid = PhaseGrid(-np.pi, np.pi, -6, 6, n, n, periodic_q=True)
        spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.3),
                           pair=CosinePair(strength=0.2, wavenumber=1.0))
    else:  # the q-drift and the kicks both zero rows that trace out of the domain
        grid = wide_grid(n)
        spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                           pair=GaussianPair(strength=0.1, width=0.8))
    stepper = _Stepper(density_from_function(grid, GaussianDensity(0.5, 0.0, 0.4, 0.5),
                                             warn=False), spec, VlasovSettings(dt=0.05))
    stepper.f[3 * n // 4, n // 4] += 1.0  # a moving cell-scale spike undershoots: the clip rescales

    def step():
        stepper.p_kick()
        stepper.q_drift(True)
        return stepper.clip()

    step()  # builds the cached prefilter tiles and pair table
    peaks, clipped = [], 0
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            clipped += step()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.reset_peak()  # a half drift: periodic, it rebuilds its plan block by block
        base = tracemalloc.get_traced_memory()[0]
        stepper.q_drift(False)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert clipped > 0
    assert max(peaks) < n * n // 2


def test_a_periodic_stepper_is_built_without_grid_sized_transients():
    # what construction keeps (the field, the clip mask, the kick's buffers
    # and the full-drift plan) is built in place: the q-drift's plan block by
    # block, so the traced peak exceeds what is kept by under a byte per cell
    n = 1024
    grid = PhaseGrid(-np.pi, np.pi, -6, 6, n, n, periodic_q=True)
    rho = density_from_function(grid, GaussianDensity(0.5, 0.0, 0.4, 0.5), warn=False)
    spec = ProblemSpec(pair=CosinePair(strength=0.2, wavenumber=1.0))
    settings = VlasovSettings(dt=0.05)
    _Stepper(rho, spec, settings)  # fills the cached prefilter tiles
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stepper = _Stepper(rho, spec, settings)
        kept, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept >= 8 * n * n + 8 * n * (n // 2 + 1)  # the field and the full-drift plan
    assert peak - kept < n * n
    del stepper


def test_cfl_violation_rejected():
    grid = wide_grid(32)
    f0 = density_from_function(grid, GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    with pytest.raises(CFLViolation):
        one_step(f0, FREE, VlasovSettings(dt=3.0))


def test_p_kick_violation_rejected():
    # a stiff trap kicks the outer q-columns by more than the whole p-extent
    grid = PhaseGrid(-8, 8, -3, 3, 32, 32)
    f0 = density_from_function(grid, GaussianDensity(0, 0, 0.8, 0.4), warn=False)
    spec = ProblemSpec(external=HarmonicPotential(omega=10.0))
    with pytest.raises(CFLViolation, match="p-domain"):
        one_step(f0, spec, VlasovSettings(dt=0.01))
    one_step(f0, spec, VlasovSettings(dt=0.001))


def test_refuses_momentum_boundary_mass():
    grid = PhaseGrid(-8, 8, -3, 3, 32, 32)  # p-domain too tight for sigma_p=1
    f0 = density_from_function(grid, STANDARD_GAUSSIAN, warn=False)
    with pytest.raises(ValueError, match="outermost"):
        vlasov_solve(f0, 0.1, FREE, VlasovSettings(dt=0.01))


def test_linear_interpolation_is_positivity_safe():
    grid = wide_grid(64)
    f0 = density_from_function(grid, STANDARD_GAUSSIAN)
    settings = VlasovSettings(dt=1 / 32, interpolation="linear")
    snap = vlasov_solve(f0, 1.0, FREE, settings)
    assert snap.values.min() >= 0.0
    assert snap.clip_count == 0
    Q, P = grid.meshgrid()
    # linear interpolation is first order: coarser but still usable
    assert np.max(np.abs(snap.values - STANDARD_GAUSSIAN(Q - P, P))) < 2e-2


def test_negative_undershoot_clipped_and_counted():
    f0 = _spike_field()
    settings = VlasovSettings(dt=0.05)
    snap = one_step(f0, FREE, settings)
    assert snap.clip_count > 0
    assert snap.values.min() >= DensityField.NEGATIVE_TOL
    assert abs(snap.mass - f0.mass) / f0.mass < 1e-8


def test_clipping_keeps_open_boundary_outflow_out():
    # free streaming carries most of the gaussian out through q = 3 by t = 1;
    # the clip rescale must not put that mass back into the field
    grid = PhaseGrid(-3, 3, -6, 6, 64, 64)
    f0 = density_from_function(grid, GaussianDensity(1.5, 2.0, 0.3, 0.5), warn=False)
    # q(1) = q0 + p ~ N(3.5, 0.3^2 + 0.5^2); the mass left is P(q(1) < 3)
    exact = 0.5 * (1.0 + math.erf((3.0 - 3.5) / math.sqrt(2.0 * 0.34)))
    snap = vlasov_solve(f0, 1.0, FREE, VlasovSettings(dt=0.02))
    assert snap.clip_count > 0
    assert abs(snap.mass / f0.mass - exact) < 0.05


def periodic_sweep(values, delta, shifts, cubic):
    axis = _PeriodicAxis(values.shape[0], values.shape[1], cubic)
    out = values.copy()
    axis.sweep(out, axis.plan(shifts / delta))
    return out


def one_shot_transfer(n, s, cubic):
    """H, shape (m, n//2 + 1), of the backward trace by s[j] cells, built for
    all lines at once in the order a blocked plan builds each block's rows."""
    start, weights = vlasov._stencil(s, cubic)
    roots = np.exp(2j * np.pi / n * np.arange(n))
    f = np.arange(n // 2 + 1)
    transfer = np.zeros((len(s), f.size), dtype=complex)
    for t, w in enumerate(weights):
        transfer += np.outer(w, roots[f * t % n])
    transfer *= roots[np.outer(start, f) % n]
    if cubic:
        transfer /= (4.0 + 2.0 * roots[f].real) / 6.0
    return transfer


@pytest.mark.parametrize("cubic", [True, False])
@pytest.mark.parametrize("lines", ["one", "fewer than a block", "ragged blocks"])
def test_a_blocked_periodic_sweep_is_bit_identical_to_one_shot_transforms(lines, cubic):
    # each line's rfft, product and irfft are the same whichever block holds
    # the line, and a plan rebuilt per sweep is the plan held
    n = 64
    block = _PeriodicAxis(n, 1000, cubic).lines
    m = {"one": 1, "fewer than a block": block - 3, "ragged blocks": 2 * block + 7}[lines]
    rng = np.random.default_rng(m)
    values = np.asfortranarray(rng.standard_normal((n, m)))
    cells = rng.uniform(-1.5 * n, 1.5 * n, m)
    transfer = one_shot_transfer(n, cells, cubic)
    expected = np.fft.irfft(np.fft.rfft(values, axis=0) * transfer.T, n, axis=0)
    axis = _PeriodicAxis(n, m, cubic)
    held = axis.plan(cells, held=True)
    assert held[1].tobytes() == transfer.tobytes()
    for plan in (held, axis.plan(cells)):
        got = values.copy(order="F")
        axis.sweep(got, plan)
        assert got.tobytes(order="F") == expected.tobytes(order="F")


def test_a_rebuilt_half_drift_equals_one_through_a_held_plan():
    # 70 p-lines of 256 q-cells: two whole blocks and a ragged one
    grid = PhaseGrid(-np.pi, np.pi, -6, 6, 256, 70, periodic_q=True)
    stepper = _Stepper(density_from_function(grid, GaussianDensity(0.5, 0.0, 0.8, 0.9),
                                             warn=False), FREE, VlasovSettings(dt=0.02))
    assert stepper.drifts[0][1] is None and stepper.drifts[1][1] is not None
    held = stepper.drift.plan(grid.p_centers * (0.5 * 0.02 / FREE.mass) / grid.dq, held=True)
    expected = stepper.f.copy()
    stepper.drift.sweep(expected.T, held)
    stepper.q_drift(False)
    assert stepper.f.tobytes() == expected.tobytes()


def open_sweep(values, delta, shifts, cubic):
    axis = _OpenAxis(values.shape[0], values.shape[1], cubic)
    out = values.copy(order="A")
    axis.sweep(out, axis.plan(shifts / delta))
    return out


def _kernel_case(seed, n=48, m=7, delta=0.1):
    rng = np.random.default_rng(seed)
    nodes = (np.arange(n) + 0.5) * delta
    return rng.random((n, m)), nodes, delta, n * delta


def test_periodic_cubic_sweep_matches_periodic_cubic_spline():
    values, nodes, delta, length = _kernel_case(0)
    shifts = np.random.default_rng(1).uniform(-2.5, 2.5, values.shape[1])
    out = periodic_sweep(values, delta, shifts, cubic=True)
    ext_nodes = np.append(nodes, nodes[0] + length)
    for j, shift in enumerate(shifts):
        spline = CubicSpline(ext_nodes, np.append(values[:, j], values[0, j]),
                             bc_type="periodic")
        x = nodes[0] + np.mod(nodes - shift - nodes[0], length)
        assert np.max(np.abs(out[:, j] - spline(x))) <= 1e-12


def test_periodic_linear_sweep_matches_periodic_interp():
    values, nodes, delta, length = _kernel_case(2)
    shifts = np.random.default_rng(3).uniform(-2.5, 2.5, values.shape[1])
    out = periodic_sweep(values, delta, shifts, cubic=False)
    for j, shift in enumerate(shifts):
        expected = np.interp(nodes - shift, nodes, values[:, j], period=length)
        assert np.max(np.abs(out[:, j] - expected)) <= 1e-12


@pytest.mark.parametrize("cubic", [True, False])
@pytest.mark.parametrize("periodic", [True, False])
def test_integer_shifts_move_whole_cells(periodic, cubic):
    values, _, delta, _ = _kernel_case(4)
    n = values.shape[0]
    cells = np.array([-50, -13, -1, 0, 1, 5, 47])
    sweep = periodic_sweep if periodic else open_sweep
    out = sweep(values, delta, cells * delta, cubic=cubic)
    for j, k in enumerate(cells):
        if periodic:
            expected = np.roll(values[:, j], k)
        else:
            expected = np.zeros(n)
            src = np.arange(n) - k
            keep = (src >= 0) & (src < n)
            expected[keep] = values[src[keep], j]
        assert np.max(np.abs(out[:, j] - expected)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 600), m=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
       fill=st.sampled_from([1.0, 0.05]), transposed=st.booleans())
@example(n=1024, m=3, seed=0, scale=1.0, fill=1.0, transposed=False)  # 17 tiles
def test_open_prefilter_matches_dense_and_banded_solves(n, m, seed, scale, fill, transposed):
    # the tiled banded operator the sweeps use, on the column padded with
    # three zero ghost rows at each end, reading the values in either memory
    # layout
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((n, m)) * (rng.random((n, m)) < fill)
    if transposed:
        values = np.ascontiguousarray(values.T).T
    padded = np.zeros((n + 6, m))
    padded[3:-3] = values
    banded = np.empty((n + 6, m))
    _bspline_prefilter(values, banded)
    k = n + 6
    matrix = (4.0 * np.eye(k) + np.eye(k, k=1) + np.eye(k, k=-1)) / 6.0
    bands = np.full((3, k), 1.0 / 6.0)
    bands[1] = 4.0 / 6.0
    for ref in (np.linalg.solve(matrix, padded), solve_banded((1, 1), bands, padded)):
        assert np.max(np.abs(banded - ref)) <= 1e-14 * np.max(np.abs(ref))


def _bspline(t, cubic):
    t = np.abs(t)
    if not cubic:
        return np.maximum(0.0, 1.0 - t)
    return np.where(t < 1.0, (4.0 - 6.0 * t ** 2 + 3.0 * t ** 3) / 6.0,
                    np.where(t < 2.0, (2.0 - t) ** 3 / 6.0, 0.0))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 512), m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       cubic=st.booleans())
def test_spectral_drift_matches_prefilter_and_window(n, m, seed, cubic):
    # the direct formula: FFT prefilter, then the B-spline window at row i - cells
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, m))
    cells = rng.uniform(-n, n, m)
    whole = rng.random(m) < 0.2
    cells[whole] = np.round(cells[whole])
    coeffs = values
    if cubic:
        symbol = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)) / 6.0
        coeffs = np.fft.irfft(np.fft.rfft(values, axis=0) / symbol[:, None], n=n, axis=0)
    floor = np.floor(cells)
    base = np.arange(n)[:, None] - floor.astype(np.int64)  # the trace is base - frac
    frac = cells - floor
    ref = np.zeros((n, m))
    for offset in (-2, -1, 0, 1, 2):
        ref += coeffs[(base + offset) % n, np.arange(m)] * _bspline(frac + offset, cubic)
    got = periodic_sweep(values, 1.0, cells, cubic)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(4, 300), m=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       cubic=st.booleans(), transposed=st.booleans(),
       spread=st.sampled_from(["sub-cell", "wide", "wide-monotone"]))
# one surviving output of 3.2e-4, a near-cancelling sum of O(1) coefficients
@example(n=4, m=1, seed=239, cubic=True, transposed=False, spread="wide")
def test_open_sweep_matches_banded_solve_and_window(n, m, seed, cubic, transposed, spread):
    # the direct formula: solve the ghost-padded column, then the B-spline
    # window at row i - cells, and zero where the trace leaves [-0.5, n - 0.5].
    # Sub-cell shifts sum their taps straight from the window view; shifts
    # over -n..n, in no order across the columns (as a kick's) or monotone
    # (as a q-drift's), gather each column's window first
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, m))
    if transposed:
        values = np.ascontiguousarray(values.T).T
    cells = rng.uniform(-1.5, 1.5, m) if spread == "sub-cell" else rng.uniform(-n, n, m)
    if spread == "wide-monotone":
        cells.sort()
    coeffs = np.zeros((n + 6, m))
    coeffs[3:-3] = values
    if cubic:
        bands = np.full((3, n + 6), 1.0 / 6.0)
        bands[1] = 4.0 / 6.0
        coeffs = solve_banded((1, 1), bands, coeffs)
    floor = np.floor(cells)
    base = np.arange(n)[:, None] - floor.astype(np.int64)  # the trace is base - frac
    frac = cells - floor
    ref = np.zeros((n, m))
    for offset in (-2, -1, 0, 1, 2):
        node = base + offset + 3  # row of the padded column
        inside = (node >= 0) & (node < n + 6)
        ref += np.where(inside, coeffs[np.clip(node, 0, n + 5), np.arange(m)], 0.0) * _bspline(
            frac + offset, cubic)
    x = np.arange(n)[:, None] - cells
    ref[(x < -0.5) | (x > n - 0.5)] = 0.0
    got = open_sweep(values, 1.0, cells, cubic)
    # rounding scales with the window terms, which max |values| bounds, not with their sum
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), np.max(np.abs(values)))
