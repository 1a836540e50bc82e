"""Scenario configuration: a strict, human-writable JSON format.

A config names a problem (potentials, mass), a grid, an initial density, a
method, times, and method-specific settings.  ``parse_config`` reads the
shared sections and hands ``settings`` to the method's own parser, which
owns the method's keys and every rule that ties them to the shared sections;
a comparison reads ``targets`` first and then only the keys of the target it
names.  Parsing builds the library settings objects directly.  Validation
collects every error (with a path to the offending key) instead of stopping
at the first; unknown keys are rejected so typos cannot silently change a
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .densities import GaussianDensity, GaussianMixture
from .ensemble import EnsembleSettings, require_unit_mass, step_count
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
    """A comparison: its targets, the sweep of the first target (``strengths``
    for perturbation, the sample sizes of ``n_list`` for ensemble) with that
    target's settings, and the settings of the Vlasov reference."""

    targets: tuple[str, str]
    sweep: tuple[float, ...] | tuple[int, ...]
    target: PerturbationSettings | EnsembleSettings
    vlasov: VlasovSettings


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
    settings: Any  # the method's settings; fock's particle count; (settings, n) for ensemble
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

    def check_whole_steps(self, t_final: float, dt_key: str, stepped):
        """An error at ``times.t_final`` unless it is a whole number of
        ``stepped.dt`` steps; nothing when the stepped settings did not parse."""
        if stepped is None:
            return
        try:
            step_count(t_final, stepped.dt)
        except ValueError:
            self.error("times.t_final",
                       f"must be a whole number of {dt_key} = {stepped.dt:g} steps")

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
        if not omega:
            return FreePotential()
        return v.build(f"{path}.omega", HarmonicPotential, omega=omega) or FreePotential()
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


def _parse_flow_run(v: _Validator, path: str, d: dict, cfg: ScenarioConfig) -> FlowRun:
    v.check_unknown(path, d, FLOW_KEYS | {"points_csv", "n_snapshots"})
    flow = _parse_flow_settings(v, path, d)
    points = v.get(path, d, "points_csv", str, required=True) or ""
    n_snap = v.get_int(path, d, "n_snapshots", default=11, minimum=2)
    return FlowRun(flow=flow, points_csv=points, n_snapshots=n_snap)


def _parse_vlasov_settings(v: _Validator, path: str, d: dict,
                           cfg: ScenarioConfig) -> VlasovSettings | None:
    v.check_unknown(path, d, {"dt", "interpolation"})
    dt = v.get_number(path, d, "dt", required=True, minimum=0.0, strict_min=True)
    interp = v.get(path, d, "interpolation", str, default="cubic-spline")
    if dt is None:
        return None
    settings = v.build(path, VlasovSettings, dt=dt, interpolation=interp)
    v.check_whole_steps(cfg.t_final, f"{path}.dt", settings)
    return settings


def _parse_perturbation_settings(v: _Validator, path: str, d: dict,
                                 cfg: ScenarioConfig) -> PerturbationSettings | None:
    v.check_unknown(path, d, {"n_s", "h_p", "flow", "aux_grid"})
    n_s = v.get_int(path, d, "n_s", default=16, minimum=2)
    h_p = v.get_number(path, d, "h_p", default=1e-4, minimum=0.0, strict_min=True)
    flow_d = v.get(path, d, "flow", dict, default={})
    v.check_unknown(f"{path}.flow", flow_d, FLOW_KEYS)
    flow = _parse_flow_settings(v, f"{path}.flow", flow_d)
    aux = cfg.grid
    aux_d = v.get(path, d, "aux_grid", dict)
    if aux_d is not None:
        aux = _parse_grid(v, f"{path}.aux_grid", aux_d)
    return v.build(path, PerturbationSettings, aux_grid=aux, flow=flow, n_s=n_s, h_p=h_p)


def _parse_fock_settings(v: _Validator, path: str, d: dict, cfg: ScenarioConfig) -> int:
    v.check_unknown(path, d, {"n_particles"})
    n = v.get_int(path, d, "n_particles", default=1)
    if n not in (1, 2):
        v.error(f"{path}.n_particles", "must be 1 or 2")
    return n


def _parse_ensemble_settings(v: _Validator, path: str, d: dict, cfg: ScenarioConfig,
                             **sizes) -> EnsembleSettings | None:
    """Ensemble settings and the rules every ensemble keeps; ``sizes`` holds an
    ensemble run's parsed ``n_particles`` and is empty for a comparison, which
    samples the sizes of its ``n_list`` instead and whose ``dt`` defaults to 0.01."""
    v.check_unknown(path, d, {"dt", "coupling_scaling", *sizes})
    dt = v.get_number(path, d, "dt", default=None if sizes else 0.01, required=bool(sizes),
                      minimum=0.0, strict_min=True)
    scaling = v.get(path, d, "coupling_scaling", str, default="mean-field")
    settings = None
    if dt is not None and None not in sizes.values():
        settings = v.build(path, EnsembleSettings, dt=dt, seed=cfg.seed,
                           coupling_scaling=scaling)
    grid = cfg.grid
    if grid is not None and grid.periodic_q and not pair_is_periodic(cfg.spec.pair,
                                                                     grid.q_length):
        v.error("problem.pair_potential",
                "on a periodic q-domain the ensemble needs no pair potential or a cosine pair "
                "with a whole number of periods over the q-length")
    if cfg.density is not None:
        try:
            require_unit_mass(cfg.density)
        except ValueError as exc:
            v.error("initial_density", str(exc))
    v.check_whole_steps(cfg.t_final, f"{path}.dt", settings)
    return settings


def _parse_ensemble_run(v: _Validator, path: str, d: dict,
                        cfg: ScenarioConfig) -> tuple[EnsembleSettings | None, int | None]:
    """The ensemble settings and, beside them, the run's sample size ``n_particles``."""
    n = v.get_int(path, d, "n_particles", required=True, minimum=1)
    if n == 1 and not isinstance(cfg.spec.pair, NoPair):
        v.error(f"{path}.n_particles", ONE_INTERACTING)
        n = None
    return _parse_ensemble_settings(v, path, d, cfg, n_particles=n), n


def _parse_compare_settings(v: _Validator, path: str, d: dict,
                            cfg: ScenarioConfig) -> CompareRun | None:
    """A comparison reads ``targets`` first, then only the sweep and the settings
    block of the target it names, beside the ``vlasov`` settings of the reference."""
    targets = tuple(v.get(path, d, "targets", list, default=["perturbation", "vlasov"]))
    if targets not in (("perturbation", "vlasov"), ("ensemble", "vlasov")):
        v.error(f"{path}.targets",
                'must be ["perturbation", "vlasov"] or ["ensemble", "vlasov"]')
        return None
    if cfg.t_final == 0:
        v.error("times.t_final", "a comparison needs t_final > 0: at t = 0 it has nothing to "
                "compare")
    side = targets[0]
    sweep_key = "strengths" if side == "perturbation" else "n_list"
    v.check_unknown(path, d, {"targets", sweep_key, side, "vlasov"})
    sweep = []
    if side == "perturbation":
        for i, x in enumerate(v.get(path, d, "strengths", list, default=[])):
            s = _as_number(x)
            if s is None or s < 0:
                v.error(f"{path}.strengths[{i}]", "must be a number >= 0")
            else:
                sweep.append(s)
        target = _parse_perturbation_settings(
            v, f"{path}.perturbation", v.get(path, d, "perturbation", dict, default={}), cfg)
        if isinstance(cfg.spec.pair, NoPair) and any(sweep):
            v.error(f"{path}.strengths",
                    "a nonzero strength needs a gaussian or cosine problem.pair_potential")
        if cfg.density is not None and cfg.density.mass == 0:
            # every residual of the table would vanish, and so would its ratios
            v.error("initial_density", "a comparison needs a density of nonzero total mass")
    else:
        for i, x in enumerate(v.get(path, d, "n_list", list, default=[])):
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                v.error(f"{path}.n_list[{i}]", "must be an integer >= 1")
            elif x == 1 and not isinstance(cfg.spec.pair, NoPair):
                v.error(f"{path}.n_list[{i}]", ONE_INTERACTING)
            else:
                sweep.append(x)
        target = _parse_ensemble_settings(
            v, f"{path}.ensemble", v.get(path, d, "ensemble", dict, default={}), cfg)
    if not sweep:
        v.error(f"{path}.{sweep_key}", f"required for the {side}-vlasov comparison")
    vl_d = v.get(path, d, "vlasov", dict)
    if vl_d is None:
        v.error(f"{path}.vlasov", "solver settings are required for comparisons")
        return None
    vlasov = _parse_vlasov_settings(v, f"{path}.vlasov", vl_d, cfg)
    return CompareRun(targets=targets, sweep=tuple(sweep), target=target, vlasov=vlasov)


_SETTINGS_PARSERS = {
    "flow": _parse_flow_run,
    "vlasov": _parse_vlasov_settings,
    "perturbation": _parse_perturbation_settings,
    "fock": _parse_fock_settings,
    "ensemble": _parse_ensemble_run,
    "compare": _parse_compare_settings,
}
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
    if method is not None and method not in _SETTINGS_PARSERS:
        v.error("method", f"must be one of {', '.join(_SETTINGS_PARSERS)}")
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

    grid = density = None
    if method == "flow":
        # the flow map moves points under the mass and external potential alone
        for path, d in (("grid", raw), ("initial_density", raw),
                        ("problem.pair_potential", problem)):
            if path.rpartition(".")[2] in d:
                v.error(path, "the flow method does not read it")
    else:
        grid_d = v.get("", raw, "grid", dict, required=method is not None)
        if grid_d is not None:
            grid = _parse_grid(v, "grid", grid_d, wraps_p=method == "fock")
        dens_d = v.get("", raw, "initial_density", dict, required=method is not None)
        if dens_d is not None:
            density = _parse_density(v, "initial_density", dens_d)

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

    if grid is not None and isinstance(ext, CosinePotential):
        if not grid.periodic_q:
            v.error("grid.periodic_q", "cosine external potential requires a periodic q-domain")
        else:
            cycles = ext.wavenumber * grid.q_length / (2.0 * math.pi)
            if not (math.isfinite(cycles) and abs(cycles - round(cycles)) <= 1e-9):
                v.error("grid.q_max",
                        "q-domain length must be a whole number of cosine periods")

    cfg = ScenarioConfig(method=method, output_dir=output_dir or "kvnsim_run", seed=seed,
                         spec=spec, grid=grid, density=density, t_final=t_final,
                         snapshots=snapshots, settings=None, raw=raw)
    if method is not None:
        cfg.settings = _SETTINGS_PARSERS[method](
            v, "settings", v.get("", raw, "settings", dict, default={}), cfg)
    if v.errors:
        raise ConfigError(v.errors)
    return cfg
