"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not computed.
"""

import time

import numpy as np
from scipy.linalg import expm

from kvnsim.cli import main
from kvnsim.densities import GaussianDensity
from kvnsim.ensemble import EnsembleSettings, ensemble_vs_vlasov
from kvnsim.flow import FlowSettings, flow_jacobian, flow_map_points, group_property_residual
from kvnsim.fock import (
    FockBasis,
    FockState,
    assemble_liouvillian,
    embed_product_state,
    kernel_hermiticity_report,
    propagate,
    quantum_vlasov_residual,
)
from kvnsim.perturbation import PerturbationSettings, residual_vs_vlasov
from kvnsim.phase_space import (
    CosinePair,
    CosinePotential,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
    density_from_function,
)
from kvnsim.vlasov import VlasovSettings, vlasov_solve
from oracle import build_one_body, build_two_body, embed_grid_function


def report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion} failed: {detail}"


def occupations(basis):
    """(dim x M) occupation numbers of every basis state, counted from its slots."""
    occ = np.zeros((basis.dimension, basis.n_modes), dtype=np.int64)
    np.add.at(occ, (np.arange(basis.dimension)[:, None], basis.modes), 1)
    return occ


def dense(matrix):
    """An EllMatrix as a dense array."""
    row, col, val = matrix.entries()
    out = np.zeros((len(matrix.val),) * 2)
    out[row, col] = val
    return out


def periodic_grid(n_q, n_p):
    return PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, n_q, n_p,
                     periodic_q=True, periodic_p=True)


def test_c1_perturbation_vlasov_agreement():
    started = time.perf_counter()
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.1, width=0.8))
    rho_init = GaussianDensity(0.6, 0.0, 0.7, 0.7)
    grid = PhaseGrid(-6, 6, -6, 6, 128, 128)
    settings = PerturbationSettings(
        aux_grid=PhaseGrid(-6, 6, -6, 6, 128, 128),
        flow=FlowSettings(dt=1e-3, exact_shortcut=True), n_s=16, h_p=1e-4)
    table = residual_vs_vlasov(0.5, rho_init, spec, [0.2, 0.1, 0.05],
                               grid, settings, VlasovSettings(dt=0.005))
    elapsed = time.perf_counter() - started
    ratios = table.ratios
    ok = (all(3.0 <= r <= 5.0 for r in ratios)
          and 1.7 <= table.fitted_order <= 2.3
          and elapsed < 300.0)
    report("C1 perturbation-vlasov agreement", ok,
           f"ratios={[f'{r:.3f}' for r in ratios]} (window [3, 5]), "
           f"fitted order={table.fitted_order:.3f} (window [1.7, 2.3]), "
           f"runtime {elapsed:.1f}s (< 300s)")


def _sector_states(grid, spec, n_particles, seed):
    M = grid.n_q * grid.n_p
    rng = np.random.default_rng(seed)
    if n_particles == 1:
        psi = rng.normal(size=M) + 1j * rng.normal(size=M)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    else:
        A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        psi = (A + A.T) / 2
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume**2)
    return psi


def test_c2_first_second_quantization_equivalence():
    started = time.perf_counter()
    grid = periodic_grid(6, 6)  # M = 36
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.4),
                       pair=GaussianPair(strength=0.15, width=1.0))
    # real generators: k = -ih and -iG, so exp(-iht) = exp(kt)
    one = dense(build_one_body(grid, spec))
    G = dense(build_two_body(grid, spec))
    M = 36
    t = 1.0
    errors = {}

    psi1 = _sector_states(grid, spec, 1, seed=11)
    basis1 = FockBasis(n_modes=M, n_particles=1)
    L1 = assemble_liouvillian(grid, spec, basis1)
    second = propagate(embed_product_state(psi1, basis1, grid), L1, t)
    first = embed_product_state(expm(one * t) @ psi1, basis1, grid)
    errors[1] = np.max(np.abs(second.amplitudes - first.amplitudes))

    psi2 = _sector_states(grid, spec, 2, seed=12)
    basis2 = FockBasis(n_modes=M, n_particles=2)
    L2 = assemble_liouvillian(grid, spec, basis2)
    perm = np.arange(M * M).reshape(M, M).T.ravel()  # the exchange x <-> x'
    K2fq = np.kron(one, np.eye(M)) + np.kron(np.eye(M), one) + G + G[perm][:, perm]
    second2 = propagate(embed_grid_function(psi2, basis2, grid), L2, t)
    psi2_t = (expm(K2fq * t) @ psi2.ravel()).reshape(M, M)
    first2 = embed_grid_function(psi2_t, basis2, grid)
    errors[2] = np.max(np.abs(second2.amplitudes - first2.amplitudes))

    elapsed = time.perf_counter() - started
    ok = errors[1] < 1e-8 and errors[2] < 1e-8 and elapsed < 120.0
    report("C2 first/second-quantization equivalence", ok,
           f"Linf N=1: {errors[1]:.2e}, N=2: {errors[2]:.2e} (< 1e-8), "
           f"M=36, t=1, runtime {elapsed:.1f}s (< 120s)")


def _quantum_vlasov_scenario():
    grid = periodic_grid(4, 4)  # M = 16
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.3),
                       pair=GaussianPair(strength=0.1, width=1.0))
    basis = FockBasis(n_modes=16, n_particles=2)
    L = assemble_liouvillian(grid, spec, basis)
    Q, P = grid.meshgrid()
    phi = 1.0 + 3e-3 * (np.cos(Q) + np.cos(P))
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.cell_volume)
    state = embed_product_state(phi, basis, grid)
    return state, L, grid, spec


def test_c3_quantum_vlasov_identity():
    state, L, grid, spec = _quantum_vlasov_scenario()
    res = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=1e-4)
    big = quantum_vlasov_residual(state, L, grid, spec, t=0.3, dt_fd=2e-4)
    ratio = np.linalg.norm(big.dt_component) / np.linalg.norm(res.dt_component)
    ok = res.max_residual < 1e-6 and 3.4 <= ratio <= 4.6
    report("C3 quantum Vlasov identity", ok,
           f"max residual {res.max_residual:.2e} (< 1e-6) at M=16, N=2, "
           f"strength 0.1, dt_fd=1e-4; dt-component halving ratio {ratio:.2f} (~4)")


def test_c4_unitarity_and_conservation():
    # Fock norm drift and exact number conservation
    grid = periodic_grid(6, 6)
    spec = ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.4),
                       pair=GaussianPair(strength=0.15, width=1.0))
    basis = FockBasis(n_modes=36, n_particles=2)
    L = assemble_liouvillian(grid, spec, basis)
    rng = np.random.default_rng(21)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    amp /= np.linalg.norm(amp)
    state = FockState(basis, amp)
    norm_drift = abs(propagate(state, L, 1.0).norm() - 1.0)
    # [L, N] = i [K, N], with N diagonal
    K, number = dense(L.matrix), occupations(basis).sum(axis=1).astype(float)
    commutator = np.abs(K * number[None, :] - number[:, None] * K).max()

    # solver mass conservation over 1000 steps (self-consistent periodic run)
    sgrid = PhaseGrid(-np.pi, np.pi, -5, 5, 32, 32, periodic_q=True)
    dens = GaussianDensity(0.0, 0.0, 0.7, 0.7)
    f0 = density_from_function(sgrid, dens, warn=False)
    vspec = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.0))
    snap = vlasov_solve(f0, 2.0, vspec, VlasovSettings(dt=0.002), [2.0])[-1]
    mass_drift = abs(snap.mass - f0.mass) / f0.mass

    # integrator energy drift on the harmonic oscillator over t=100
    hspec = ProblemSpec(external=HarmonicPotential(omega=1.0))
    x0 = np.array([1.0, 0.0])
    out = flow_map_points(x0, 100.0, hspec, FlowSettings(dt=1e-2))
    energy = lambda x: 0.5 * (x[1] ** 2 + x[0] ** 2)
    energy_drift = abs(energy(out) - energy(x0)) / energy(x0)

    ok = (norm_drift < 1e-10 and commutator == 0.0
          and mass_drift < 1e-6 and energy_drift < 1e-3)
    report("C4 unitarity and conservation", ok,
           f"norm drift {norm_drift:.2e} (< 1e-10), [L, N] max {commutator:.1e} (= 0), "
           f"mass drift {mass_drift:.2e} over 1000 steps (< 1e-6), "
           f"energy drift {energy_drift:.2e} over t=100 (< 1e-3)")


def test_c5_flow_map_structure():
    settings = FlowSettings(dt=1e-3)
    dets, groups, trips = [], [], []
    for spec in (ProblemSpec(),
                 ProblemSpec(external=HarmonicPotential(omega=1.0)),
                 ProblemSpec(external=QuarticPotential(a=0.0, b=1.0)),
                 ProblemSpec(external=CosinePotential(wavenumber=1.0, amplitude=0.5))):
        x = np.array([0.3, 0.4])
        jac = flow_jacobian(x, 1.0, spec, settings, h=1e-5)
        dets.append(abs(np.linalg.det(jac) - 1.0))
        groups.append(group_property_residual(x, 0.5, 0.5, spec, settings))
        fwd = flow_map_points(np.array([0.3, 0.4]), 1.0, spec, settings)
        back = flow_map_points(fwd, -1.0, spec, settings)
        trips.append(np.max(np.abs(back - np.array([0.3, 0.4]))))
    ok = max(dets) < 1e-6 and max(groups) < 1e-12 and max(trips) < 1e-10
    report("C5 flow-map structure", ok,
           f"|det - 1| max {max(dets):.2e} (< 1e-6), aligned group residual max "
           f"{max(groups):.2e} (< 1e-12), reversibility max {max(trips):.2e} (< 1e-10)")


def test_c6_operator_structure():
    grid = periodic_grid(8, 8)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.2, width=0.8))
    dens = density_from_function(grid, GaussianDensity(0, 0, 0.8, 0.8), warn=False)
    rep = kernel_hermiticity_report(grid, spec, dens)

    M = 64
    iq = np.repeat(np.arange(grid.n_q), grid.n_p)
    diag_blocks = [abs(v) for r, c, v in zip(*build_two_body(grid, spec).entries())
                   if iq[r // M] == iq[r % M]]
    diag_max = max(diag_blocks) if diag_blocks else 0.0

    ok = (rep.force_hermiticity == 0.0 and rep.drag_antihermiticity < 1e-12
          and diag_max == 0.0)
    report("C6 operator structure", ok,
           f"|F - F^dag| = {rep.force_hermiticity:.1e} (= 0), "
           f"|Q + Q^dag| = {rep.drag_antihermiticity:.2e} (< 1e-12), "
           f"same-cell two-body blocks max {diag_max:.1e} (= 0)")


def test_c7_ensemble_to_vlasov_convergence():
    grid = PhaseGrid(-np.pi, np.pi, -5, 5, 32, 32, periodic_q=True)
    dens = GaussianDensity(0.0, 0.0, 0.7, 0.7)
    spec = ProblemSpec(pair=CosinePair(strength=0.1, wavenumber=1.0))
    table = ensemble_vs_vlasov(dens, spec, grid, 0.5, [1000, 10_000, 100_000],
                               EnsembleSettings(dt=0.05, seed=11),
                               VlasovSettings(dt=0.02))
    ratios = table.ratios
    ok = all(2.5 <= r <= 4.0 for r in ratios)
    report("C7 ensemble-to-vlasov convergence", ok,
           f"per-decade L1 ratios {[f'{r:.2f}' for r in ratios]} (window [2.5, 4.0]), "
           f"fitted slope {table.fitted_order:.3f} (~ -0.5), mean-field scaling")


def _run_twice_and_compare(tmp_path, payload, name):
    import json

    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(payload, indent=2))
    out_a = tmp_path / f"{name}_a"
    out_b = tmp_path / f"{name}_b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    diffs = []
    for rec in manifest["files"]:
        a = (out_a / rec["path"]).read_bytes()
        b = (out_b / rec["path"]).read_bytes()
        if a != b:
            diffs.append(rec["path"])
    return diffs


def test_c8_determinism_byte_identical_artifacts(tmp_path):
    ensemble_payload = {
        "method": "ensemble",
        "seed": 11,
        "problem": {"pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1.0}},
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -5, "p_max": 5,
                 "n_q": 32, "n_p": 32, "periodic_q": True},
        "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.5},
        "settings": {"dt": 0.05, "n_particles": 10_000},
    }
    vlasov_payload = {
        "method": "vlasov",
        "problem": {"external_potential": {"type": "harmonic", "omega": 1.0}},
        "grid": {"q_min": -8, "q_max": 8, "p_min": -8, "p_max": 8, "n_q": 64, "n_p": 64},
        "initial_density": {"type": "gaussian", "q_center": 0.5, "q_sigma": 0.8, "p_sigma": 0.8},
        "times": {"t_final": 0.5},
        "settings": {"dt": 0.01},
    }
    fock_payload = {
        "method": "fock",
        "problem": {
            "external_potential": {"type": "cosine", "wavenumber": 1.0, "amplitude": 0.3},
            "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1.0},
        },
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian", "q_sigma": 1.1, "p_sigma": 1.1},
        "times": {"t_final": 1.0},
        "settings": {"n_particles": 2},
    }
    diffs = []
    for name, payload in (("ensemble", ensemble_payload),
                          ("vlasov", vlasov_payload),
                          ("fock", fock_payload)):
        diffs += [f"{name}:{p}" for p in _run_twice_and_compare(tmp_path, payload, name)]
    ok = not diffs
    report("C8 determinism", ok,
           "reruns byte-identical for ensemble, vlasov, and fock scenarios"
           if ok else f"artifacts differ: {diffs}")
