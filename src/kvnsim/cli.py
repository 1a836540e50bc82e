"""Scenario runner and comparison harness.

Subcommands: ``validate``, ``run``, ``report``, ``version``.  Exit codes:
0 ok, 1 validation failure, 2 runtime refusal (with a machine-readable
error record in the output directory), 3 tolerance failure in ``report``.
Identical config and seed reproduce byte-identical CSV and binary
artifacts; the manifest additionally records wall time, so it is the one
file excluded from that promise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .config import (
    CompareRun,
    ConfigError,
    FlowRun,
    ScenarioConfig,
    parse_config,
)
from .ensemble import (
    ensemble_vs_vlasov,
    histogram_density,
    integrate_nbody,
    sample_initial,
)
from .fileio import (
    RunManifest,
    atomic_write_bytes,
    canonical_json,
    read_json,
    read_points_csv,
    read_table_csv,
    sha256_of,
    write_field,
    write_fock_state,
    write_json,
    write_marginal_csv,
    write_points_csv,
    write_table_csv,
    write_trajectory_csv,
)
from .flow import flow_trajectory
from .fock import (
    HERMITICITY_TOL,
    FockBasis,
    assemble_liouvillian,
    density_expectation,
    embed_product_state,
    propagate,
)
from .perturbation import perturbative_density, residual_vs_vlasov
from .phase_space import density_from_function
from .vlasov import vlasov_solve

_RUNTIME_ERRORS = (ValueError, TypeError, NotImplementedError, OSError, KeyError, MemoryError,
                   ArithmeticError, Warning)


def _in_window(value, low, high) -> bool:
    """A finite number within [low, high] (a None bound is open); anything else fails."""
    try:
        return bool(math.isfinite(value) and (low is None or value >= low)
                    and (high is None or value <= high))
    except (TypeError, OverflowError):
        return False


def _check(name: str, value: float, low: float | None, high: float | None) -> dict:
    value = float(value)
    return {"name": name, "value": value, "low": low, "high": high,
            "passed": _in_window(value, low, high)}


def _write_rng_sidecar(path: str, seed: int, **fields) -> None:
    write_json(path, {"seed": seed, "rng": "numpy PCG64", "numpy_version": np.__version__,
                      **fields})


def _write_field_pair(path, field, name: str, k: int | None = None) -> None:
    """Write a density field to ``name.kvnf``, then ``marginal.csv``; snapshot k adds _kkkk."""
    suffix = "" if k is None else f"_{k:04d}"
    write_field(path(f"{name}{suffix}.kvnf"), field)
    write_marginal_csv(path(f"marginal{suffix}.csv"), field)


# --------------------------------------------------------------------------
# method dispatch
# --------------------------------------------------------------------------

def _run_flow(cfg: ScenarioConfig, path, base_dir: str):
    settings: FlowRun = cfg.settings
    points_path = settings.points_csv
    if not os.path.isabs(points_path):
        points_path = os.path.join(base_dir, points_path)
    points = read_points_csv(points_path)
    times = np.linspace(0.0, cfg.t_final, settings.n_snapshots)
    traj = flow_trajectory(points, times, cfg.spec, settings.flow)
    write_trajectory_csv(path("trajectory.csv"), times, traj)
    return [], []


def _run_vlasov(cfg: ScenarioConfig, path, base_dir: str):
    init = density_from_function(cfg.grid, cfg.density)
    latest = {}

    def write(k, snap):
        _write_field_pair(path, snap, "field", k)
        latest.update(mass=snap.mass, clip_count=snap.clip_count)  # the last is the latest

    vlasov_solve(init, cfg.t_final, cfg.spec, cfg.settings,
                 snapshot_times=list(cfg.snapshots), sink=write)
    drift = abs(latest["mass"] - init.mass) / max(abs(init.mass), 1e-300)
    checks = [
        _check("vlasov_mass_drift_rel", drift, None, 1e-6),
        _check("vlasov_clip_count", latest["clip_count"], None, None),
    ]
    return checks, []


def _run_perturbation(cfg: ScenarioConfig, path, base_dir: str):
    for k, t in enumerate(cfg.snapshots):
        field = perturbative_density(cfg.grid, t, cfg.density, cfg.spec, cfg.settings)
        _write_field_pair(path, field, "field", k)
    return [], []


def _run_fock(cfg: ScenarioConfig, path, base_dir: str):
    grid = cfg.grid
    # an over-cap sector is refused here, before its states are enumerated
    basis = FockBasis(n_modes=grid.n_q * grid.n_p, n_particles=cfg.settings)
    op = assemble_liouvillian(grid, cfg.spec, basis)

    Q, P = grid.meshgrid()
    orbital = np.sqrt(np.asarray(cfg.density(Q, P), dtype=float))
    norm = np.sqrt(np.sum(np.abs(orbital) ** 2) * grid.cell_volume)
    if norm <= 0:
        raise ValueError("initial density vanishes on the grid")
    state0 = embed_product_state(orbital / norm, basis, grid)
    state1 = propagate(state0, op, cfg.t_final)
    dens = density_expectation(state1, grid)
    dens.time = cfg.t_final

    write_fock_state(path("state_final.kvnq"), state1, grid)
    _write_field_pair(path, dens, "density")
    return [_check("fock_norm_drift", abs(state1.norm() - state0.norm()), None, 1e-10),
            _check("fock_hermiticity", op.hermiticity_deviation(), None, HERMITICITY_TOL)], []


def _run_ensemble(cfg: ScenarioConfig, path, base_dir: str):
    settings, n_particles = cfg.settings
    points = sample_initial(cfg.density, n_particles, settings.seed)
    moved = integrate_nbody(points, cfg.t_final, cfg.spec, settings)
    hist = histogram_density(moved, cfg.grid)
    hist.time = cfg.t_final

    write_points_csv(path("particles_final.csv"), moved)
    _write_field_pair(path, hist, "histogram")
    _write_rng_sidecar(path("ensemble_meta.json"), cfg.seed, n_particles=n_particles,
                       coupling_scaling=settings.coupling_scaling,
                       note="mean-field scaling divides pair forces by (n_particles - 1)")
    return [_check("histogram_mass", hist.mass, None, 1.0 + 1e-12)], [cfg.seed]


def _run_compare(cfg: ScenarioConfig, path, base_dir: str):
    settings: CompareRun = cfg.settings
    checks = []
    if settings.targets == ("perturbation", "vlasov"):
        table = residual_vs_vlasov(cfg.t_final, cfg.density, cfg.spec, list(settings.sweep),
                                   cfg.grid, settings.target, settings.vlasov)
        write_table_csv(path("residual_table.csv"), table)
        ratios = table.ratios
        if len(ratios) >= 2:
            checks += [_check(f"strength_ratio_{i}", ratio, 3.0, 5.0)
                       for i, ratio in enumerate(ratios)]
            checks.append(_check("fitted_order", table.fitted_order, 1.7, 2.3))
        return checks, []
    ens = settings.target
    table = ensemble_vs_vlasov(cfg.density, cfg.spec, cfg.grid, cfg.t_final,
                               list(settings.sweep), ens, settings.vlasov)
    write_table_csv(path("convergence_table.csv"), table)
    _write_rng_sidecar(path("convergence_meta.json"), cfg.seed, n_list=list(settings.sweep),
                       dt=ens.dt, coupling_scaling=ens.coupling_scaling,
                       note="mean-field scaling divides pair forces by (n - 1)")
    n = [row[0] for row in table.rows]  # sample sizes >= 1, so ratios spans every row
    for i, ratio in enumerate(table.ratios):
        if abs(n[i + 1] / n[i] - 10.0) < 1e-9:  # per-decade window only for decade steps
            checks.append(_check(f"decade_ratio_{i}", ratio, 2.5, 4.0))
    return checks, [cfg.seed]


_DISPATCH = {
    "flow": _run_flow,
    "vlasov": _run_vlasov,
    "perturbation": _run_perturbation,
    "fock": _run_fock,
    "ensemble": _run_ensemble,
    "compare": _run_compare,
}


def run_config(cfg: ScenarioConfig, out_dir: str, base_dir: str = ".") -> int:
    """Execute a validated config; returns the process exit code.  The runner takes each
    artifact's path from ``path(name)``, which records it for the manifest or for removal."""
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    for name in ("manifest.json", "checks.json", "error.json"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(out_dir, name))
    config_path = os.path.join(out_dir, "config.json")
    write_json(config_path, cfg.raw)
    files = []

    def path(name: str) -> str:
        files.append(os.path.join(out_dir, name))
        return files[-1]

    try:
        checks, seeds = _DISPATCH[cfg.method](cfg, path, base_dir)
    except BaseException as exc:
        for file in files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(file)
        if not isinstance(exc, _RUNTIME_ERRORS):
            raise
        write_json(os.path.join(out_dir, "error.json"),
                   {"error": type(exc).__name__, "message": str(exc), "method": cfg.method})
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    checks_path = os.path.join(out_dir, "checks.json")
    write_json(checks_path, checks)
    manifest = RunManifest(
        config_sha256=sha256_of(config_path),
        tool_version=__version__,
        wall_time_s=time.perf_counter() - started,
        seeds=seeds,
    )
    for file in [config_path, *files, checks_path]:
        manifest.add_file(out_dir, file)
    manifest.write(out_dir)
    for c in checks:
        status = "ok" if c["passed"] else "FAIL"
        print(f"  check {c['name']}: {c['value']:.6g} [{status}]")
    print(f"run complete: {len(files)} artifact(s) in {out_dir}")
    # out-of-tolerance checks are recorded here and enforced by `report` (exit 3)
    return 0


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def _failure(run_dir) -> str | None:
    """How the run in ``run_dir`` failed, from its error.json; None without one."""
    try:
        error = read_json(os.path.join(run_dir, "error.json"))
        return f"the run failed: {error['error']}: {error['message']}"
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return "the run failed, and its error.json is damaged"


def build_report(run_dirs) -> dict:
    """Aggregate manifests and checks from run directories."""
    report: dict = {"runs": [], "problems": [], "all_passed": True}
    for run_dir in run_dirs:
        entry: dict = {"dir": str(run_dir)}
        try:
            manifest = RunManifest.load(run_dir)
        except (OSError, ValueError) as exc:
            failure = isinstance(exc, FileNotFoundError) and _failure(run_dir)
            report["problems"].append(f"{run_dir}: {failure or f'unreadable manifest ({exc})'}")
            entry["manifest"] = "missing-or-corrupt"
            report["runs"].append(entry)
            # a directory with neither a manifest nor error.json holds no run record
            if failure or not isinstance(exc, FileNotFoundError):
                report["all_passed"] = False
            continue
        entry["manifest"] = "ok"
        entry["config_sha256"] = manifest.config_sha256
        entry["tool_version"] = manifest.tool_version
        tampered = []
        for rec in manifest.files:
            path = os.path.join(run_dir, rec["path"])
            try:
                ok = sha256_of(path) == rec["sha256"]
            except OSError:
                ok = False
            if not ok:
                tampered.append(rec["path"])
        if tampered:
            entry["tampered_files"] = tampered
            report["problems"].append(f"{run_dir}: checksum mismatch: {', '.join(tampered)}")
            report["all_passed"] = False
        try:
            checks = read_json(os.path.join(run_dir, "checks.json"))
        except (OSError, ValueError) as exc:
            checks = [] if isinstance(exc, FileNotFoundError) else None
        if not (isinstance(checks, list) and all(
                isinstance(c, dict) and not any(isinstance(x, (list, dict)) for x in c.values())
                for c in checks)):
            report["problems"].append(
                f"{run_dir}: checks.json is unreadable or not a list of flat objects")
            report["all_passed"] = False
            checks = []
        entry["checks"] = checks
        for c in checks:
            # the stored flag is not trusted: re-check the value against its window
            c["passed"] = _in_window(c.get("value"), c.get("low"), c.get("high"))
            if not c["passed"]:
                report["all_passed"] = False
                report["problems"].append(
                    f"{run_dir}: check {c.get('name')} out of tolerance (value {c.get('value')})"
                )
        tables = {}
        for name in (rec["path"] for rec in manifest.files):
            if name.endswith("_table.csv"):
                try:
                    tables[name] = read_table_csv(os.path.join(run_dir, name))
                except (OSError, ValueError) as exc:
                    report["problems"].append(f"{run_dir}: {name} is unparsable ({exc})")
                    report["all_passed"] = False
        if tables:
            entry["tables"] = tables
        report["runs"].append(entry)
    return report


def _render_report(report: dict) -> str:
    lines = [f"kvnsim report ({len(report['runs'])} run(s))", ""]
    for entry in report["runs"]:
        lines.append(f"run {entry['dir']}: manifest {entry['manifest']}")
        for c in entry.get("checks", []):
            status = "pass" if c.get("passed") else "FAIL"
            window = []
            if c.get("low") is not None:
                window.append(f">= {c['low']}")
            if c.get("high") is not None:
                window.append(f"<= {c['high']}")
            bounds = " and ".join(window) if window else "informational"
            value = c.get("value")
            shown = f"{value:.6g}" if isinstance(value, float) else repr(value)
            lines.append(f"  {c.get('name')}: {shown} ({bounds}) [{status}]")
        for name, table in entry.get("tables", {}).items():
            lines.append(f"  table {name}:")
            for row in table["rows"]:
                lines.append(f"    {row[0]:.6g} -> {row[1]:.6g}")
            if table.get("fitted_order") is not None:
                lines.append(f"    fitted order: {table['fitted_order']:.4g}")
        if entry.get("tampered_files"):
            lines.append(f"  TAMPERED: {', '.join(entry['tampered_files'])}")
    lines.append("")
    if report["problems"]:
        lines.append("problems:")
        lines += [f"  - {p}" for p in report["problems"]]
    lines.append("ALL CHECKS PASSED" if report["all_passed"] else "SOME CHECKS FAILED")
    # file names that are not UTF-8 arrive as lone surrogates, shown as \udcXX escapes
    return ("\n".join(lines) + "\n").encode("utf-8", "backslashreplace").decode("utf-8")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _load_config(path: str, seed: int | None = None) -> ScenarioConfig:
    """Read and validate a config file; ``seed`` replaces its seed before validation."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if seed is not None:
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError):
            raw = None  # parse_config reports the decoding error
        if isinstance(raw, dict):
            text = canonical_json(dict(raw, seed=seed))
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kvnsim",
        description="phase-space kinetic toolkit: scenario runner and comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario config")
    p_validate.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    p_run.add_argument("--strict", action="store_true",
                       help="promote runtime warnings (resolution, boundary mass) to errors")

    p_report = sub.add_parser("report", help="aggregate run directories into a summary")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--out", default=".", help="where to write summary.{txt,json}")

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)

    if args.command == "version":
        print(f"kvnsim {__version__}")
        return 0

    if args.command in ("validate", "run"):
        try:
            cfg = _load_config(args.config, getattr(args, "seed", None))
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 1

    if args.command == "validate":
        print(f"config ok: method={cfg.method}, output_dir={cfg.output_dir}")
        return 0

    if args.command == "run":
        out_dir = args.out if args.out is not None else cfg.output_dir
        base_dir = os.path.dirname(os.path.abspath(args.config))
        if args.strict:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return run_config(cfg, out_dir, base_dir)
        return run_config(cfg, out_dir, base_dir)

    if args.command == "report":
        report = build_report(args.run_dirs)
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "summary.json"), report)
        text = _render_report(report)
        atomic_write_bytes(os.path.join(args.out, "summary.txt"), text.encode("utf-8"))
        print(text, end="")
        return 0 if report["all_passed"] else 3

    return 2


if __name__ == "__main__":
    sys.exit(main())
