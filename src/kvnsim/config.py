"""Scenario configuration: a strict, human-writable JSON format.

A config names a problem (potentials, mass), a grid, an initial density, a
method, times, and method-specific settings.  ``parse_config`` reads the
shared sections and hands ``settings`` to the method's own parser, which
owns the method's keys and every rule that ties them to the shared sections;
a comparison reads ``targets`` first and then only the keys of the target it
names.  A block that builds a library class takes that class's fields as
its keys: each has the JSON type its annotation names and is required when
it has no default.  Parsing reads that JSON shape alone and hands the keys a
block sets to the class, so the class's defaults and refusals are the only
ones; a refusal is reported at the key its message begins with, or else at
the block.
Validation collects every problem, the first per library object, each with
the path of the offending key; unknown keys are rejected so typos cannot
silently change a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

from .densities import GaussianDensity, GaussianMixture
from .ensemble import (EnsembleSettings, require_particle_count, require_periodic_pair,
                       require_unit_mass, step_count)
from .flow import FlowSettings
from .fock import FockBasis
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
    whole_periods,
)
from .vlasov import VlasovSettings, require_q_cfl

__all__ = ["ScenarioConfig", "ConfigError", "parse_config"]

_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a finite number"}
_JSON_TYPES = {t.__name__: t for t in (float, int, bool, str)}  # by annotation name

# each potential block's types and the class each builds, its default first
_POTENTIALS = {
    "external_potential": {"free": FreePotential, "harmonic": HarmonicPotential,
                           "quartic": QuarticPotential, "cosine": CosinePotential},
    "pair_potential": {"none": NoPair, "gaussian": GaussianPair, "cosine": CosinePair},
}


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
    """A comparison: the sweep of its first target (``strengths`` for
    perturbation, the sample sizes of ``n_list`` for ensemble), that target's
    settings, whose type names it, and the settings of the Vlasov reference."""

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


def _json_fields(cls, given=()) -> tuple[dict, set]:
    """The keys of a block that builds the library class ``cls``: each of its
    fields but those in ``given``, which the parser builds itself, with the JSON
    type its annotation names (float: a finite number); and the required ones,
    the fields without a default."""
    keys = [f for f in fields(cls) if f.init and f.name not in given]
    return ({f.name: _JSON_TYPES[f.type] for f in keys},
            {f.name for f in keys if f.default is MISSING and f.default_factory is MISSING})


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

    def check_unknown(self, path: str, d: dict, known):
        for key in d:
            if key not in known:
                self.error(_join(path, key), "unknown key")

    def get(self, path: str, d: dict, key: str, typ, default=None, required=False,
            minimum=None):
        """``d[key]`` if it has the JSON type ``typ`` (``float``: a finite number)
        and is not below ``minimum``; otherwise an error at its path and ``default``."""
        if key not in d:
            if required:
                self.error(_join(path, key), "missing required key")
            return default
        value = _as_number(d[key]) if typ is float else d[key]
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            self.error(_join(path, key), f"expected {_TYPE_NAMES[typ]}")
            return default
        if minimum is not None and value < minimum:
            self.error(_join(path, key), f"must be >= {minimum}")
            return default
        return value

    def read(self, path: str, d: dict, cls, extra=(), defaults={}, given=()) -> dict:
        """``defaults`` updated with the keys of ``cls`` (`_json_fields`) that ``d``
        holds with their JSON type; an error at each key of ``d`` that is neither
        one of them nor in ``extra``, at each of them it holds with another type,
        and at each required one that it lacks and ``defaults`` does not hold."""
        types, required = _json_fields(cls, given)
        self.check_unknown(path, d, {*types, *extra})
        found = dict(defaults)
        for key, typ in types.items():
            value = self.get(path, d, key, typ, required=key in required - defaults.keys())
            if value is not None:
                found[key] = value
        return found

    def make(self, path: str, d: dict, cls, extra=(), **given):
        """``cls(**given)`` with the keys that ``read`` finds; None when a required
        one is not found or ``cls`` refuses."""
        found = self.read(path, d, cls, extra, given=given)
        if found.keys() >= _json_fields(cls, given)[1]:
            return self.build(path, cls, **given, **found)
        return None

    def check_whole_steps(self, t_final: float, dt_key: str, stepped) -> int | None:
        """The number of ``stepped.dt`` steps that make up ``t_final``; an error at
        ``times.t_final`` and None unless it is whole, and None when the stepped
        settings did not parse."""
        if stepped is None:
            return None
        try:
            return step_count(t_final, stepped.dt)
        except ValueError:
            self.error("times.t_final",
                       f"must be a whole number of {dt_key} = {stepped.dt:g} steps")
            return None

    def build(self, path: str, make, *args, **keys):
        """``make(*args, **keys)``, a library constructor or check.  A ValueError is
        an error at ``path.<key>`` when its message begins with one of ``keys``, or
        with an entry ``<key>[i]`` of one, and at ``path`` otherwise."""
        try:
            return make(*args, **keys)
        except ValueError as exc:
            key = str(exc).split(" ", 1)[0]
            self.error(_join(path, key) if key.split("[")[0] in keys else path, str(exc))
            return None


def _parse_potential(v: _Validator, problem: dict, key: str, noun: str):
    """The potential of ``problem[key]``; its default type's potential stands in
    when it does not parse."""
    path, kinds = f"problem.{key}", _POTENTIALS[key]
    d = v.get("problem", problem, key, dict, default={})
    default = next(iter(kinds))
    kind = v.get(path, d, "type", str, default=default)
    if kind not in kinds:
        v.error(f"{path}.type", f"unknown {noun} type {kind!r}")
        return kinds[default]()
    cls = kinds[kind]
    found = v.read(path, d, cls, ("type",))
    if cls is CosinePotential and "wavenumber" in found:
        found.setdefault("amplitude", 0.0)  # a stand-in: the domain rules read k alone
    return ((found.keys() >= _json_fields(cls)[1] and v.build(path, cls, **found))
            or kinds[default]())


def _parse_grid(v: _Validator, path: str, d: dict, wraps_p: bool = False) -> PhaseGrid | None:
    """A grid; ``periodic_p`` is refused unless ``wraps_p`` (only fock wraps the p-axis)."""
    grid = v.make(path, d, PhaseGrid)
    if d.get("periodic_p") is True and not wraps_p:
        v.error(f"{path}.periodic_p", "only the fock method wraps the p-axis")
    return grid


def _parse_density(v: _Validator, path: str, d: dict):
    kind = v.get(path, d, "type", str, default="gaussian")
    if kind == "gaussian":
        return v.make(path, d, GaussianDensity, ("type",))
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
            parsed.append(v.make(f"{path}.components[{i}]", comp, GaussianDensity, ("type",)))
        numbers = [_as_number(w) for w in weights]
        if None in numbers:
            v.error(f"{path}.weights[{numbers.index(None)}]", "expected a finite number")
            return None
        if None in parsed or not parsed or len(parsed) != len(weights):
            return None
        # the components positional, so only refusals of the weights name a key
        return v.build(path, GaussianMixture, tuple(parsed), weights=tuple(numbers))
    v.error(f"{path}.type", f"unknown density type {kind!r}")
    return None


def _parse_flow_run(v: _Validator, path: str, d: dict, cfg: ScenarioConfig) -> FlowRun:
    flow = v.make(path, d, FlowSettings, ("points_csv", "n_snapshots"))
    points = v.get(path, d, "points_csv", str, required=True) or ""
    n_snap = v.get(path, d, "n_snapshots", int, default=11, minimum=2)
    return FlowRun(flow=flow, points_csv=points, n_snapshots=n_snap)


def _parse_vlasov_settings(v: _Validator, path: str, d: dict,
                           cfg: ScenarioConfig) -> VlasovSettings | None:
    settings = v.make(path, d, VlasovSettings)
    if v.check_whole_steps(cfg.t_final, f"{path}.dt", settings) and cfg.grid is not None:
        v.build(f"{path}.dt", require_q_cfl, cfg.grid, cfg.spec.mass, settings.dt)
    return settings


def _parse_perturbation_settings(v: _Validator, path: str, d: dict,
                                 cfg: ScenarioConfig) -> PerturbationSettings | None:
    flow = v.make(f"{path}.flow", v.get(path, d, "flow", dict, default={}), FlowSettings)
    aux = cfg.grid
    aux_d = v.get(path, d, "aux_grid", dict)
    if aux_d is not None:
        aux = _parse_grid(v, f"{path}.aux_grid", aux_d)
    return v.make(path, d, PerturbationSettings, ("flow", "aux_grid"), aux_grid=aux, flow=flow)


def _check_nonzero_mass(v: _Validator, cfg: ScenarioConfig, run: str):
    if cfg.density is not None and cfg.density.mass == 0:
        v.error("initial_density", f"a {run} needs a density of nonzero total mass")


def _parse_fock_settings(v: _Validator, path: str, d: dict, cfg: ScenarioConfig) -> int:
    v.check_unknown(path, d, {"n_particles"})
    n = v.get(path, d, "n_particles", int, default=1, minimum=1)
    if n is not None and cfg.grid is not None:
        v.build(f"{path}.n_particles", FockBasis.require_within_cap,
                n_modes=cfg.grid.n_q * cfg.grid.n_p, n_particles=n)
    _check_nonzero_mass(v, cfg, "fock run")  # its orbital could not be normalized
    return n


def _parse_ensemble_settings(v: _Validator, path: str, d: dict, cfg: ScenarioConfig,
                             **sizes) -> EnsembleSettings | None:
    """Ensemble settings and the rules every ensemble keeps; ``sizes`` holds an
    ensemble run's parsed ``n_particles`` and is empty for a comparison, which
    samples the sizes of its ``n_list`` instead and whose ``dt`` defaults to 0.01."""
    keys = v.read(path, d, EnsembleSettings, sizes, defaults={} if sizes else {"dt": 0.01})
    settings = None
    if "dt" in keys and None not in sizes.values():
        settings = v.build(path, EnsembleSettings, **keys)
    if cfg.grid is not None:
        v.build("problem.pair_potential", require_periodic_pair, pair=cfg.spec.pair, grid=cfg.grid)
    if cfg.density is not None:
        v.build("initial_density", require_unit_mass, density=cfg.density)
    v.check_whole_steps(cfg.t_final, f"{path}.dt", settings)
    return settings


def _parse_ensemble_run(v: _Validator, path: str, d: dict,
                        cfg: ScenarioConfig) -> tuple[EnsembleSettings | None, int | None]:
    """The ensemble settings and, beside them, the run's sample size ``n_particles``."""
    n = v.get(path, d, "n_particles", int, required=True, minimum=1)
    n = n and v.build(f"{path}.n_particles", require_particle_count, n=n, pair=cfg.spec.pair)
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
        if sweep:
            v.build(f"{path}.strengths", cfg.spec.with_pair_strength, max(sweep))
        # every residual of the table would vanish, and so would its ratios
        _check_nonzero_mass(v, cfg, "comparison")
    else:
        for i, x in enumerate(v.get(path, d, "n_list", list, default=[])):
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                v.error(f"{path}.n_list[{i}]", "must be an integer >= 1")
            elif v.build(f"{path}.n_list[{i}]", require_particle_count, n=x, pair=cfg.spec.pair):
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
    return CompareRun(sweep=tuple(sweep), target=target, vlasov=vlasov)


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
    seed = v.get("", raw, "seed", int, default=0, minimum=0)

    problem = v.get("", raw, "problem", dict, default={})
    ext = _parse_potential(v, problem, "external_potential", "potential")
    pair = _parse_potential(v, problem, "pair_potential", "pair potential")
    spec = (v.make("problem", problem, ProblemSpec, _POTENTIALS, external=ext, pair=pair)
            or ProblemSpec(external=ext, pair=pair))

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

    times = v.get("", raw, "times", dict, default={})
    v.check_unknown("times", times, {"t_final", "snapshots"})
    t_final = v.get("times", times, "t_final", float, default=0.0, required=True, minimum=0.0)
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
        elif not whole_periods(ext.wavenumber, grid.q_length):
            v.error("grid.q_max", "q-domain length must be a whole number of cosine periods")

    cfg = ScenarioConfig(method=method, output_dir=output_dir or "kvnsim_run", seed=seed,
                         spec=spec, grid=grid, density=density, t_final=t_final,
                         snapshots=snapshots, settings=None, raw=raw)
    if method is not None:
        cfg.settings = _SETTINGS_PARSERS[method](
            v, "settings", v.get("", raw, "settings", dict, default={}), cfg)
    if v.errors:
        raise ConfigError(v.errors)
    return cfg
