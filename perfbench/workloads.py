"""Seeded scenario configs for the four benchmark workloads.

Each workload is one ``kvnsim run`` config.  The seed moves the centre of
the initial density by at most ``JITTER`` in q and is the config seed (the
ensemble RNG seed).  ``tiny=True`` shrinks grids, steps and particle counts
so the self-tests drive the same code path in about a second per workload.
"""

from __future__ import annotations

import math
import random

JITTER = 0.05  # half-width of the uniform q-centre jitter

WHY = {
    "vlasov-periodic-256": "periodic cubic advection at 256^2 is ~95% of compute and the only "
                           "workload writing MBs of fields; fock, perturbation and ensemble are "
                           "bypassed",
    "fock-pair-144": "N=2 Fock assembly at M=144 (dim 10440) is ~93% of compute and sets peak "
                     "RSS; vlasov is bypassed",
    "compare-pert-128": "the C1 perturbation-vs-vlasov cross-check: pair integral ~55%, open-domain "
                        "vlasov at 128^2 ~40%, no field writes",
    "ensemble-gauss-2k": "the only O(N^2) pair-force pass (N=2000, 51 passes); grids bypassed "
                         "except the 64^2 histogram",
}
NAMES = tuple(WHY)


def _centre(seed: int, base: float) -> float:
    return base + random.Random(seed).uniform(-JITTER, JITTER)


def _open_grid(n: int) -> dict:
    return {"q_min": -6.0, "q_max": 6.0, "p_min": -6.0, "p_max": 6.0, "n_q": n, "n_p": n}


def _vlasov(seed: int, tiny: bool) -> dict:
    n, t_final = (32, 0.2) if tiny else (256, 2.0)
    return {
        "method": "vlasov",
        "seed": seed,
        "problem": {
            "external_potential": {"type": "cosine", "wavenumber": 1.0, "amplitude": 0.3},
            "pair_potential": {"type": "cosine", "strength": 0.2, "wavenumber": 1.0},
        },
        "grid": {"q_min": -math.pi, "q_max": math.pi, "p_min": -6.0, "p_max": 6.0,
                 "n_q": n, "n_p": n, "periodic_q": True},
        "initial_density": {"type": "gaussian", "q_center": _centre(seed, 0.5),
                            "p_center": 0.0, "q_sigma": 0.8, "p_sigma": 0.9},
        "times": {"t_final": t_final, "snapshots": [t_final * k / 4 for k in range(5)]},
        "settings": {"dt": 0.02, "interpolation": "cubic-spline"},
    }


def _fock(seed: int, tiny: bool) -> dict:
    n = 4 if tiny else 12
    return {
        "method": "fock",
        "seed": seed,
        "problem": {
            "external_potential": {"type": "cosine", "wavenumber": 1.0, "amplitude": 0.4},
            "pair_potential": {"type": "gaussian", "strength": 0.15, "width": 1.0},
        },
        "grid": {"q_min": -math.pi, "q_max": math.pi, "p_min": -math.pi, "p_max": math.pi,
                 "n_q": n, "n_p": n, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian", "q_center": _centre(seed, 0.3),
                            "p_center": 0.0, "q_sigma": 0.9, "p_sigma": 0.9},
        "times": {"t_final": 1.0},
        "settings": {"n_particles": 2},
    }


def _compare(seed: int, tiny: bool) -> dict:
    # At the tiny size the strengths double so the second-order residual still
    # stands above the coarse grid's discretization floor (C1 windows hold).
    n, n_s, dt, strengths = ((80, 8, 0.01, [0.4, 0.2, 0.1]) if tiny
                             else (128, 16, 0.005, [0.2, 0.1, 0.05]))
    return {
        "method": "compare",
        "seed": seed,
        "problem": {
            "external_potential": {"type": "harmonic", "omega": 1.0},
            "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8},
        },
        "grid": _open_grid(n),
        "initial_density": {"type": "gaussian", "q_center": _centre(seed, 0.6),
                            "p_center": 0.0, "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.5},
        "settings": {
            "targets": ["perturbation", "vlasov"],
            "strengths": strengths,
            "perturbation": {"n_s": n_s, "h_p": 1e-4,
                             "flow": {"exact_shortcut": True}},
            "vlasov": {"dt": dt},
        },
    }


def _ensemble(seed: int, tiny: bool) -> dict:
    n_particles, t_final = (200, 0.1) if tiny else (2000, 0.5)
    return {
        "method": "ensemble",
        "seed": seed,
        "problem": {
            "external_potential": {"type": "harmonic", "omega": 1.0},
            "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8},
        },
        "grid": _open_grid(16 if tiny else 64),
        "initial_density": {"type": "gaussian", "q_center": _centre(seed, 0.6),
                            "p_center": 0.0, "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": t_final},
        "settings": {"dt": 0.01, "n_particles": n_particles},
    }


_BUILDERS = {
    "vlasov-periodic-256": _vlasov,
    "fock-pair-144": _fock,
    "compare-pert-128": _compare,
    "ensemble-gauss-2k": _ensemble,
}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The config of workload ``name`` for ``seed``; the same seed gives the same dict."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[name](seed, tiny)
