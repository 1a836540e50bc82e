"""Scenario configuration: a strict, human-writable JSON format.

A config names a problem (potentials, mass), a grid, an initial density, a
method, times, and method-specific settings.  Parsing builds the library
settings objects directly.  Validation collects every error (with a path to
the offending key) instead of stopping at the first; unknown keys are
rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .densities import GaussianDensity, GaussianMixture
from .ensemble import EnsembleSettings, step_count
from .flow import FlowSettings
from .perturbation import PerturbationSettings
from .phase_space import (
    CosinePair,
    CosinePotential,
    FreePotential,
    GaussianPair,
    HarmonicPotential,
    NoPair,
    PhaseGrid,
    ProblemSpec,
    QuarticPotential,
    pair_is_periodic,
)
from .vlasov import VlasovSettings

__all__ = ["ScenarioConfig", "ConfigError", "parse_config"]

METHODS = ("flow", "vlasov", "perturbation", "fock", "ensemble", "compare")
GRID_KEYS = {"q_min", "q_max", "p_min", "p_max", "n_q", "n_p", "periodic_q", "periodic_p"}
FLOW_KEYS = {"dt", "exact_shortcut"}
# integrate_nbody refuses the same case at run time
ONE_INTERACTING = "an interacting run needs at least two particles"


class ConfigError(ValueError):
    """All validation problems found in a config, with key paths."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True)
class FlowRun:
    """Flow-method keys that no library settings class owns."""

    flow: FlowSettings
    points_csv: str
    n_snapshots: int


@dataclass(frozen=True)
class CompareRun:
    """Comparison targets and sweeps, with the library settings of each side."""

    targets: tuple[str, str]
    strengths: tuple[float, ...]
    n_list: tuple[int, ...]
    perturbation: PerturbationSettings | None
    vlasov: VlasovSettings | None
    ensemble: EnsembleSettings | None


@dataclass
class ScenarioConfig:
    method: str
    output_dir: str
    seed: int
    spec: ProblemSpec
    grid: PhaseGrid | None
    density: GaussianDensity | GaussianMixture | None
    t_final: float
    snapshots: tuple[float, ...]
    settings: Any  # the method's settings object; the particle count for fock
    raw: dict = field(repr=False, default_factory=dict)


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer"}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_number(value) -> float | None:
    """A JSON number as a finite float, or None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


class _Validator:
    def __init__(self):
        self.errors: list[str] = []

    def error(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def check_unknown(self, path: str, d: dict, known: set[str]):
        for key in d:
            if key not in known:
                self.error(_join(path, key), "unknown key")

    def get(self, path: str, d: dict, key: str, typ, default=None, required=False):
        if key not in d:
            if required:
                self.error(_join(path, key), "missing required key")
            return default
        value = d[key]
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            self.error(_join(path, key), f"expected {_TYPE_NAMES[typ]}")
            return default
        return value

    def get_number(self, path, d, key, default=None, required=False,
                   minimum=None, strict_min=False):
        if key not in d:
            if required:
                self.error(_join(path, key), "missing required key")
            return default
        value = _as_number(d[key])
        if value is None:
            self.error(_join(path, key), "expected a finite number")
            return default
        if minimum is not None:
            if strict_min and not value > minimum:
                self.error(_join(path, key), f"must be > {minimum}")
                return default
            if not strict_min and value < minimum:
                self.error(_join(path, key), f"must be >= {minimum}")
                return default
        return value

    def get_int(self, path, d, key, default=None, required=False, minimum=None):
        value = self.get(path, d, key, int, default=default, required=required)
        if value is not None and minimum is not None and value < minimum:
            self.error(_join(path, key), f"must be >= {minimum}")
            return default
        return value

    def check_whole_steps(self, path: str, t: float, dt_key: str, stepped):
        """An error at ``path`` unless t is a whole number of ``stepped.dt`` steps;
        nothing when the stepped settings did not parse."""
        if stepped is None:
            return
        try:
            step_count(t, stepped.dt)
        except ValueError:
            self.error(path, f"must be a whole number of {dt_key} = {stepped.dt:g} steps")

    def build(self, path: str, cls, **kwargs):
        """Construct a library object; its ValueError becomes an error at ``path``."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            self.error(path, str(exc))
            return None


def _parse_external(v: _Validator, path: str, d: dict):
    kind = v.get(path, d, "type", str, default="free")
    if kind == "free":
        v.check_unknown(path, d, {"type"})
        return FreePotential()
    if kind == "harmonic":
        v.check_unknown(path, d, {"type", "omega"})
        omega = v.get_number(path, d, "omega", required=True, minimum=0.0, strict_min=True)
        return HarmonicPotential(omega=omega) if omega else FreePotential()
    if kind == "quartic":
        v.check_unknown(path, d, {"type", "a", "b"})
        a = v.get_number(path, d, "a", default=0.0)
        b = v.get_number(path, d, "b", required=True)
        return QuarticPotential(a=a, b=b if b is not None else 0.0)
    if kind == "cosine":
        v.check_unknown(path, d, {"type", "wavenumber", "amplitude"})
        k = v.get_number(path, d, "wavenumber", required=True, minimum=0.0, strict_min=True)
        amp = v.get_number(path, d, "amplitude", required=True)
        if k:
            return CosinePotential(wavenumber=k, amplitude=amp if amp is not None else 0.0)
        return FreePotential()
    v.error(f"{path}.type", f"unknown potential type {kind!r}")
    return FreePotential()


def _parse_pair(v: _Validator, path: str, d: dict):
    kind = v.get(path, d, "type", str, default="none")
    if kind == "none":
        v.check_unknown(path, d, {"type"})
        return NoPair()
    if kind == "gaussian":
        v.check_unknown(path, d, {"type", "strength", "width"})
        strength = v.get_number(path, d, "strength", required=True, minimum=0.0)
        width = v.get_number(path, d, "width", required=True, minimum=0.0, strict_min=True)
        if strength is None or not width:
            return NoPair()
        return GaussianPair(strength=strength, width=width)
    if kind == "cosine":
        v.check_unknown(path, d, {"type", "strength", "wavenumber"})
        strength = v.get_number(path, d, "strength", required=True, minimum=0.0)
        k = v.get_number(path, d, "wavenumber", required=True, minimum=0.0, strict_min=True)
        if strength is None or not k:
            return NoPair()
        return CosinePair(strength=strength, wavenumber=k)
    v.error(f"{path}.type", f"unknown pair potential type {kind!r}")
    return NoPair()


def _parse_grid(v: _Validator, path: str, d: dict, wraps_p: bool = False) -> PhaseGrid | None:
    """A grid; ``periodic_p`` is refused unless ``wraps_p`` (only fock wraps the p-axis)."""
    v.check_unknown(path, d, GRID_KEYS)
    q_min = v.get_number(path, d, "q_min", required=True)
    q_max = v.get_number(path, d, "q_max", required=True)
    p_min = v.get_number(path, d, "p_min", required=True)
    p_max = v.get_number(path, d, "p_max", required=True)
    n_q = v.get_int(path, d, "n_q", required=True, minimum=4)
    n_p = v.get_int(path, d, "n_p", required=True, minimum=4)
    periodic_q = v.get(path, d, "periodic_q", bool, default=False)
    periodic_p = v.get(path, d, "periodic_p", bool, default=False)
    if periodic_p and not wraps_p:
        v.error(f"{path}.periodic_p", "only the fock method wraps the p-axis")
    if None in (q_min, q_max, p_min, p_max, n_q, n_p):
        return None
    if q_max <= q_min:
        v.error(f"{path}.q_max", "bounds must be ordered (q_max > q_min)")
        return None
    if p_max <= p_min:
        v.error(f"{path}.p_max", "bounds must be ordered (p_max > p_min)")
        return None
    return PhaseGrid(q_min, q_max, p_min, p_max, n_q, n_p, periodic_q, periodic_p)


def _parse_gaussian(v: _Validator, path: str, d: dict) -> GaussianDensity | None:
    known = {"type", "q_center", "p_center", "q_sigma", "p_sigma", "mass"}
    v.check_unknown(path, d, known)
    qc = v.get_number(path, d, "q_center", default=0.0)
    pc = v.get_number(path, d, "p_center", default=0.0)
    qs = v.get_number(path, d, "q_sigma", default=1.0, minimum=0.0, strict_min=True)
    ps = v.get_number(path, d, "p_sigma", default=1.0, minimum=0.0, strict_min=True)
    mass = v.get_number(path, d, "mass", default=1.0, minimum=0.0)
    return GaussianDensity(qc, pc, qs, ps, mass)


def _parse_density(v: _Validator, path: str, d: dict):
    kind = v.get(path, d, "type", str, default="gaussian")
    if kind == "gaussian":
        return _parse_gaussian(v, path, d)
    if kind == "mixture":
        v.check_unknown(path, d, {"type", "components", "weights"})
        comps = v.get(path, d, "components", list, required=True) or []
        weights = v.get(path, d, "weights", list, required=True) or []
        if comps and weights and len(comps) != len(weights):
            v.error(f"{path}.weights", "must match the number of components")
            return None
        parsed = []
        for i, comp in enumerate(comps):
            if not isinstance(comp, dict):
                v.error(f"{path}.components[{i}]", "expected an object")
                continue
            if comp.get("type", "gaussian") != "gaussian":
                v.error(f"{path}.components[{i}].type", "mixture components must be gaussian")
                continue
            parsed.append(_parse_gaussian(v, f"{path}.components[{i}]", comp))
        numbers = [_as_number(w) for w in weights]
        for i, w in enumerate(numbers):
            if w is None or w < 0:
                v.error(f"{path}.weights[{i}]", "must be a number >= 0")
                return None
        if not parsed or len(parsed) != len(weights):
            return None
        return v.build(path, GaussianMixture, components=tuple(parsed), weights=tuple(numbers))
    v.error(f"{path}.type", f"unknown density type {kind!r}")
    return None


def _parse_flow_settings(v: _Validator, path: str, d: dict) -> FlowSettings:
    dt = v.get_number(path, d, "dt", default=1e-3, minimum=0.0, strict_min=True)
    shortcut = v.get(path, d, "exact_shortcut", bool, default=False)
    return FlowSettings(dt=dt, exact_shortcut=shortcut)


def _parse_vlasov_settings(v: _Validator, path: str, d: dict) -> VlasovSettings | None:
    v.check_unknown(path, d, {"dt", "interpolation"})
    dt = v.get_number(path, d, "dt", required=True, minimum=0.0, strict_min=True)
    interp = v.get(path, d, "interpolation", str, default="cubic-spline")
    if dt is None:
        return None
    return v.build(path, VlasovSettings, dt=dt, interpolation=interp)


def _parse_perturbation_settings(v: _Validator, path: str, d: dict,
                                 grid: PhaseGrid | None) -> PerturbationSettings | None:
    v.check_unknown(path, d, {"n_s", "h_p", "flow", "aux_grid"})
    n_s = v.get_int(path, d, "n_s", default=16, minimum=2)
    h_p = v.get_number(path, d, "h_p", default=1e-4, minimum=0.0, strict_min=True)
    flow_d = v.get(path, d, "flow", dict, default={})
    v.check_unknown(f"{path}.flow", flow_d, FLOW_KEYS)
    flow = _parse_flow_settings(v, f"{path}.flow", flow_d)
    aux = grid
    aux_d = v.get(path, d, "aux_grid", dict)
    if aux_d is not None:
        aux = _parse_grid(v, f"{path}.aux_grid", aux_d)
    return v.build(path, PerturbationSettings, aux_grid=aux, flow=flow, n_s=n_s, h_p=h_p)


def _parse_ensemble_settings(v: _Validator, path: str, d: dict, seed: int,
                             interacting: bool = False,
                             sized: bool = True) -> EnsembleSettings | None:
    """Ensemble settings; ``n_particles`` only when ``sized``, because a
    comparison samples the sizes of its ``n_list`` instead."""
    v.check_unknown(path, d, {"dt", "coupling_scaling"} | ({"n_particles"} if sized else set()))
    dt = v.get_number(path, d, "dt", required=True, minimum=0.0, strict_min=True)
    sizes = ({"n_particles": v.get_int(path, d, "n_particles", required=True, minimum=1)}
             if sized else {})
    if interacting and sizes.get("n_particles") == 1:
        v.error(f"{path}.n_particles", ONE_INTERACTING)
        return None
    scaling = v.get(path, d, "coupling_scaling", str, default="mean-field")
    if dt is None or None in sizes.values():
        return None
    return v.build(path, EnsembleSettings, dt=dt, seed=seed, coupling_scaling=scaling, **sizes)


def _parse_compare_settings(v: _Validator, path: str, d: dict, grid: PhaseGrid | None,
                            seed: int, interacting: bool) -> CompareRun:
    known = {"targets", "strengths", "n_list", "perturbation", "vlasov", "ensemble"}
    v.check_unknown(path, d, known)
    targets = tuple(v.get(path, d, "targets", list, default=["perturbation", "vlasov"]))
    if targets not in (("perturbation", "vlasov"), ("ensemble", "vlasov")):
        v.error(f"{path}.targets",
                'must be ["perturbation", "vlasov"] or ["ensemble", "vlasov"]')
        targets = ("perturbation", "vlasov")
    strengths = []
    for i, x in enumerate(v.get(path, d, "strengths", list, default=[])):
        s = _as_number(x)
        if s is None or s < 0:
            v.error(f"{path}.strengths[{i}]", "must be a number >= 0")
        else:
            strengths.append(s)
    n_list = []
    for i, x in enumerate(v.get(path, d, "n_list", list, default=[])):
        if isinstance(x, bool) or not isinstance(x, int) or x < 1:
            v.error(f"{path}.n_list[{i}]", "must be an integer >= 1")
        elif x == 1 and interacting and targets == ("ensemble", "vlasov"):
            v.error(f"{path}.n_list[{i}]", ONE_INTERACTING)
        else:
            n_list.append(x)
    pert = _parse_perturbation_settings(
        v, f"{path}.perturbation", v.get(path, d, "perturbation", dict, default={}), grid)
    vl_d = v.get(path, d, "vlasov", dict)
    vl = _parse_vlasov_settings(v, f"{path}.vlasov", vl_d) if vl_d is not None else None
    ens_d = v.get(path, d, "ensemble", dict)
    if ens_d is not None:
        ens = _parse_ensemble_settings(v, f"{path}.ensemble", ens_d, seed, sized=False)
    else:
        ens = EnsembleSettings(dt=0.01, seed=seed)
    if targets == ("perturbation", "vlasov") and not strengths:
        v.error(f"{path}.strengths", "required for the perturbation-vlasov comparison")
    if targets == ("ensemble", "vlasov") and not n_list:
        v.error(f"{path}.n_list", "required for the ensemble-vlasov comparison")
    if vl_d is None:
        v.error(f"{path}.vlasov", "solver settings are required for comparisons")
    return CompareRun(targets=targets, strengths=tuple(strengths), n_list=tuple(n_list),
                      perturbation=pert, vlasov=vl, ensemble=ens)


def _parse_settings(v: _Validator, method: str, d: dict, grid: PhaseGrid | None, seed: int,
                    interacting: bool):
    path = "settings"
    if method == "flow":
        v.check_unknown(path, d, FLOW_KEYS | {"points_csv", "n_snapshots"})
        flow = _parse_flow_settings(v, path, d)
        points = v.get(path, d, "points_csv", str, required=True) or ""
        n_snap = v.get_int(path, d, "n_snapshots", default=11, minimum=2)
        return FlowRun(flow=flow, points_csv=points, n_snapshots=n_snap)
    if method == "vlasov":
        return _parse_vlasov_settings(v, path, d)
    if method == "perturbation":
        return _parse_perturbation_settings(v, path, d, grid)
    if method == "fock":
        v.check_unknown(path, d, {"n_particles"})
        n = v.get_int(path, d, "n_particles", default=1)
        if n not in (1, 2):
            v.error(f"{path}.n_particles", "must be 1 or 2")
        return n
    if method == "ensemble":
        return _parse_ensemble_settings(v, path, d, seed, interacting)
    return _parse_compare_settings(v, path, d, grid, seed, interacting)


_GRIDLESS = {"flow"}
_NEEDS_DENSITY = {"vlasov", "perturbation", "fock", "ensemble", "compare"}
_T_FINAL_ONLY = {"flow", "fock", "ensemble", "compare"}  # they ignore times.snapshots


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario config.

    Raises ConfigError, and nothing else, carrying every problem found, each
    prefixed with the path of the offending key.  Unknown keys are rejected.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"(json): {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["(root): config must be a JSON object"])

    v = _Validator()
    top_known = {"method", "output_dir", "seed", "problem", "grid",
                 "initial_density", "times", "settings"}
    v.check_unknown("", raw, top_known)

    method = v.get("", raw, "method", str, required=True)
    if method is not None and method not in METHODS:
        v.error("method", f"must be one of {', '.join(METHODS)}")
        method = None

    output_dir = v.get("", raw, "output_dir", str, default="kvnsim_run")
    seed = v.get_int("", raw, "seed", default=0, minimum=0)

    problem = v.get("", raw, "problem", dict, default={})
    v.check_unknown("problem", problem, {"mass", "external_potential", "pair_potential"})
    mass = v.get_number("problem", problem, "mass", default=1.0, minimum=0.0, strict_min=True)
    ext = _parse_external(v, "problem.external_potential",
                          v.get("problem", problem, "external_potential", dict, default={}))
    pair = _parse_pair(v, "problem.pair_potential",
                       v.get("problem", problem, "pair_potential", dict, default={}))
    spec = ProblemSpec(mass=mass, external=ext, pair=pair)

    grid = None
    grid_d = v.get("", raw, "grid", dict,
                   required=method is not None and method not in _GRIDLESS)
    if grid_d is not None:
        grid = _parse_grid(v, "grid", grid_d, wraps_p=method == "fock")

    density = None
    dens_d = v.get("", raw, "initial_density", dict, required=method in _NEEDS_DENSITY)
    if dens_d is not None:
        density = _parse_density(v, "initial_density", dens_d)

    if method == "flow":
        # the flow map moves points under the mass and external potential alone
        for path, d in (("grid", raw), ("initial_density", raw),
                        ("problem.pair_potential", problem)):
            if path.rpartition(".")[2] in d:
                v.error(path, "the flow method does not read it")

    times = v.get("", raw, "times", dict, default={}) or {"t_final": 0.0}
    v.check_unknown("times", times, {"t_final", "snapshots"})
    t_final = v.get_number("times", times, "t_final", required=True, minimum=0.0)
    if t_final is None:
        t_final = 0.0
    snaps = times.get("snapshots")
    numbers = [_as_number(x) for x in snaps] if isinstance(snaps, list) else [None]
    snapshots = (t_final,)
    if snaps is not None and None in numbers:
        v.error("times.snapshots", "must be a list of finite numbers")
    elif snaps is not None and method in _T_FINAL_ONLY:
        v.error("times.snapshots", f"the {method} method writes only t_final")
    elif snaps == []:
        v.error("times.snapshots", "must list at least one time")
    elif snaps is not None:
        snapshots = tuple(numbers)
        for i, s in enumerate(snapshots):
            if s < 0 or s > t_final:
                v.error(f"times.snapshots[{i}]", "must lie in [0, t_final]")

    settings = None
    if method is not None:
        settings_d = v.get("", raw, "settings", dict, default={})
        settings = _parse_settings(v, method, settings_d, grid, seed,
                                   interacting=not isinstance(pair, NoPair))

    # cross-field checks
    if grid is not None and isinstance(ext, CosinePotential) and method != "flow":
        if not grid.periodic_q:
            v.error("grid.periodic_q", "cosine external potential requires a periodic q-domain")
        else:
            cycles = ext.wavenumber * grid.q_length / (2.0 * math.pi)
            if not (math.isfinite(cycles) and abs(cycles - round(cycles)) <= 1e-9):
                v.error("grid.q_max",
                        "q-domain length must be a whole number of cosine periods")
    uses_ensemble = (method == "ensemble"
                     or getattr(settings, "targets", None) == ("ensemble", "vlasov"))
    if (uses_ensemble and grid is not None and grid.periodic_q
            and not pair_is_periodic(pair, grid.q_length)):
        v.error("problem.pair_potential",
                "on a periodic q-domain the ensemble needs no pair potential or a cosine pair "
                "with a whole number of periods over the q-length")

    if uses_ensemble:
        dt_key, ens = (("settings.ensemble.dt", settings.ensemble) if method == "compare"
                       else ("settings.dt", settings))
        v.check_whole_steps("times.t_final", t_final, dt_key, ens)
    if method == "vlasov":
        v.check_whole_steps("times.t_final", t_final, "settings.dt", settings)
    if method == "compare":
        v.check_whole_steps("times.t_final", t_final, "settings.vlasov.dt", settings.vlasov)

    if (getattr(settings, "targets", None) == ("perturbation", "vlasov")
            and isinstance(pair, NoPair) and any(settings.strengths)):
        v.error("settings.strengths",
                "a nonzero strength needs a gaussian or cosine problem.pair_potential")

    if v.errors:
        raise ConfigError(v.errors)
    assert method is not None and settings is not None
    return ScenarioConfig(
        method=method,
        output_dir=output_dir or "kvnsim_run",
        seed=seed,
        spec=spec,
        grid=grid,
        density=density,
        t_final=t_final,
        snapshots=snapshots,
        settings=settings,
        raw=raw,
    )
