import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnsim import cli
from kvnsim.cli import main, run_config
from kvnsim.config import ConfigError, parse_config
from kvnsim.densities import GaussianDensity, GaussianMixture
from kvnsim.ensemble import (EnsembleSettings, ensemble_vs_vlasov, integrate_nbody,
                             require_periodic_pair)
from kvnsim.fileio import read_field, read_points_csv, write_points_csv
from kvnsim.flow import FlowSettings
from kvnsim.fock import FockBasis
from kvnsim.perturbation import PerturbationSettings, residual_vs_vlasov
from kvnsim.phase_space import (CosinePair, CosinePotential, FreePotential, GaussianPair,
                                GridResolutionWarning, HarmonicPotential, NoPair, PhaseGrid,
                                ProblemSpec, QuarticPotential, density_from_function,
                                pair_is_periodic, whole_periods)
from kvnsim.vlasov import VlasovSettings, vlasov_solve

MINIMAL_VLASOV = {
    "method": "vlasov",
    "grid": {"q_min": -8, "q_max": 8, "p_min": -8, "p_max": 8, "n_q": 32, "n_p": 32},
    "initial_density": {"type": "gaussian", "q_sigma": 0.8, "p_sigma": 0.8},
    "times": {"t_final": 0.1},
    "settings": {"dt": 0.01},
}


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL_VLASOV))
    assert cfg.method == "vlasov"
    assert cfg.seed == 0
    assert cfg.spec.mass == 1.0
    assert cfg.spec.external == FreePotential()
    assert isinstance(cfg.spec.pair, NoPair)
    assert cfg.snapshots == (0.1,)
    assert cfg.settings.interpolation == "cubic-spline"
    # each default is the library's own: the object built with its required arguments only
    assert cfg.spec == ProblemSpec()
    assert cfg.settings == VlasovSettings(dt=0.01)
    assert parse_config(json.dumps(dict(MINIMAL_VLASOV, initial_density={}))).density == \
        GaussianDensity()
    cfg = parse_config(json.dumps(dict(MINIMAL_VLASOV, method="perturbation", settings={})))
    assert cfg.settings == PerturbationSettings(aux_grid=cfg.grid)
    assert cfg.settings.flow == FlowSettings()
    cfg = parse_config(json.dumps({"method": "flow", "times": {"t_final": 1.0},
                                   "settings": {"points_csv": "pts.csv"}}))
    assert cfg.settings.flow == FlowSettings()
    cfg = parse_config(json.dumps(dict(MINIMAL_VLASOV, method="ensemble",
                                       settings={"dt": 0.01, "n_particles": 10})))
    assert cfg.settings == (EnsembleSettings(dt=0.01), 10)


def test_every_benchmark_workload_config_parses():
    # the benchmark's configs, at full and tiny size; a refusal there would show
    # only as a failed benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        for seed in range(1, 6):
            for tiny in (False, True):
                raw = workloads.make_config(name, seed, tiny=tiny)
                assert parse_config(json.dumps(raw)).method == raw["method"]


def test_config_error_collection_with_paths():
    bad = {
        "method": "vlasov",
        "problem": {
            "pair_potential": {"type": "gaussian", "strength": -0.1, "width": 0.5},
            "bogus": 1,
        },
        "grid": {"q_min": -8, "q_max": 8, "p_min": -8, "p_max": 8, "n_q": 2, "n_p": 32},
        "initial_density": {"type": "gaussian"},
        "times": {"t_final": 0.1},
        "settings": {"dt": 0.01},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    messages = "\n".join(err.value.errors)
    assert "problem.pair_potential.strength" in messages
    assert ">= 0" in messages
    assert "grid.n_q" in messages
    assert "problem.bogus" in messages
    assert len(err.value.errors) == 3


def test_non_strict_mode_warns_on_unknown_keys():
    raw = dict(MINIMAL_VLASOV)
    raw["extra_key"] = 42
    with pytest.raises(ConfigError):
        parse_config(json.dumps(raw))


def test_cosine_potential_requires_commensurate_periodic_domain():
    raw = {
        "method": "vlasov",
        "problem": {"external_potential": {"type": "cosine", "wavenumber": 1.0, "amplitude": 0.5}},
        "grid": {"q_min": -3.0, "q_max": 3.0, "p_min": -8, "p_max": 8,
                 "n_q": 32, "n_p": 32, "periodic_q": True},
        "initial_density": {"type": "gaussian"},
        "times": {"t_final": 0.1},
        "settings": {"dt": 0.01},
    }
    with pytest.raises(ConfigError, match="whole number of cosine periods"):
        parse_config(json.dumps(raw))


def test_potential_specs_serialize_round_trip():
    raw = {
        "method": "vlasov",
        "problem": {
            "mass": 2.0,
            "external_potential": {"type": "harmonic", "omega": 1.5},
            "pair_potential": {"type": "gaussian", "strength": 0.2, "width": 0.7},
        },
        "grid": MINIMAL_VLASOV["grid"],
        "initial_density": {"type": "gaussian", "q_sigma": 0.8, "p_sigma": 0.8},
        "times": {"t_final": 0.1},
        "settings": {"dt": 0.01},
    }
    cfg = parse_config(json.dumps(raw))
    assert cfg.spec.mass == 2.0
    assert isinstance(cfg.spec.external, HarmonicPotential) and cfg.spec.external.omega == 1.5
    assert isinstance(cfg.spec.pair, GaussianPair)
    assert (cfg.spec.pair.strength, cfg.spec.pair.width) == (0.2, 0.7)
    # the parsed config is reproducible from its own raw dict
    again = parse_config(json.dumps(cfg.raw))
    assert again.spec == cfg.spec


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert "kvnsim" in capsys.readouterr().out


def test_cli_validate_exit_codes(tmp_path):
    good = write_config(tmp_path, MINIMAL_VLASOV)
    assert main(["validate", "--config", good]) == 0
    bad = dict(MINIMAL_VLASOV, method="nonsense")
    assert main(["validate", "--config", write_config(tmp_path, bad, "bad.json")]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1


def test_cli_vlasov_run_and_artifacts(tmp_path):
    payload = dict(MINIMAL_VLASOV, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    field = read_field(out / "field_0000.kvnf")
    assert abs(field.mass - 1.0) < 1e-3
    assert (out / "manifest.json").exists()
    checks = json.loads((out / "checks.json").read_text())
    assert any(c["name"] == "vlasov_mass_drift_rel" and c["passed"] for c in checks)


def test_cli_vlasov_runs_a_mixture_density(tmp_path):
    mixture = {"type": "mixture", "weights": [1, 2],
               "components": [{"q_center": -1, "q_sigma": 0.8, "p_sigma": 0.8},
                              {"q_center": 1.5, "q_sigma": 0.8, "p_sigma": 0.8}]}
    payload = dict(MINIMAL_VLASOV, output_dir=str(tmp_path / "out"), initial_density=mixture)
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_flow_batch_csv(tmp_path):
    pts_path = tmp_path / "pts.csv"
    write_points_csv(pts_path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    payload = {
        "method": "flow",
        "output_dir": str(tmp_path / "out"),
        "problem": {"external_potential": {"type": "harmonic", "omega": 1.0}},
        "times": {"t_final": 1.0},
        "settings": {"dt": 0.001, "points_csv": "pts.csv", "n_snapshots": 3},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,q,p"
    assert len(lines) == 1 + 3 * 2  # header + snapshots x particles


@pytest.mark.parametrize("body, problem", [
    ("nan,0.1\n", "line 2: expected two finite numbers q,p, got 'nan,0.1'"),
    ("0,1\n1,2,3\n", "line 3: expected two finite numbers q,p, got '1,2,3'"),
    ("", "no points"),
], ids=["nan", "three-columns", "empty"])
def test_cli_flow_refuses_a_bad_points_file(tmp_path, body, problem):
    (tmp_path / "pts.csv").write_text("q,p\n" + body)
    payload = {
        "method": "flow",
        "output_dir": str(tmp_path / "out"),
        "problem": {"external_potential": {"type": "harmonic", "omega": 1.0}},
        "times": {"t_final": 1.0},
        "settings": {"dt": 0.001, "points_csv": "pts.csv", "n_snapshots": 3},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert str(tmp_path / "pts.csv") in record["message"]
    assert problem in record["message"]
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_cli_flow_names_a_diverging_flow(tmp_path):
    # V = q^4 throws a point from q = 30 out to overflow within the first interval
    write_points_csv(tmp_path / "pts.csv", np.array([[30.0, 0.0]]))
    payload = {
        "method": "flow",
        "output_dir": str(tmp_path / "out"),
        "problem": {"external_potential": {"type": "quartic", "a": 0.0, "b": 1.0}},
        "times": {"t_final": 1.0},
        "settings": {"dt": 0.1, "points_csv": "pts.csv", "n_snapshots": 3},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "the flow diverged" in record["message"]
    assert "time interval of 0.5 with dt 0.1" in record["message"]
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("problem, message", [
    ({"pair_potential": {"type": "gaussian", "strength": 1e308, "width": 0.1}},
     "the pair gradient grad v of GaussianPair(strength=1e+308, width=0.1) overflows"),
    ({"external_potential": {"type": "quartic", "a": 0.0, "b": 1e308}},
     "the generator K overflowed"),
    ({"external_potential": {"type": "harmonic", "omega": 1.0}, "mass": 1e-320},
     "the generator K overflowed"),
], ids=["pair-strength", "quartic-b", "mass"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself, as in a plain run
def test_cli_fock_refuses_a_generator_that_overflows(tmp_path, problem, message):
    payload = {
        "method": "fock",
        "output_dir": str(tmp_path / "out"),
        "problem": problem,
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3, "n_q": 4, "n_p": 4},
        "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.5},
        "settings": {"n_particles": 2},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert message in record["message"]


def test_cli_fock_refuses_a_density_that_vanishes_on_the_grid(tmp_path, capsys, monkeypatch):
    payload = dict(MINIMAL_VLASOV, method="fock", output_dir=str(tmp_path / "out"),
                   grid=dict(MINIMAL_VLASOV["grid"], n_q=4, n_p=4), times={"t_final": 0.5},
                   initial_density={"type": "gaussian", "mass": 0.0}, settings={})
    # a density of mass 0 is refused by validation
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
    assert ("initial_density: a fock run needs a density of nonzero total mass"
            in capsys.readouterr().err)
    # one whose values underflow on the grid is refused by the run, before the sector is built
    def basis(*args, **kwargs):
        raise AssertionError("the Fock basis was built")
    monkeypatch.setattr(cli, "FockBasis", basis)
    payload["initial_density"] = {"type": "gaussian", "q_center": 100.0}
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (record["error"], record["message"]) == (
        "ValueError", "initial density vanishes on the grid")


OVERFLOWING_PAIR = {"pair_potential": {"type": "gaussian", "strength": 1e308, "width": 0.1}}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("method, problem, message", [
    ("fock", OVERFLOWING_PAIR, "the pair gradient grad v of GaussianPair(strength=1e+308, "
                               "width=0.1) overflows"),
    ("vlasov", OVERFLOWING_PAIR, "the pair gradient grad v of GaussianPair(strength=1e+308, "
                                 "width=0.1) overflows"),
    ("vlasov", {"external_potential": {"type": "quartic", "a": 1e308, "b": -1e308}},
     "the p-kick dt*max|F| = nan: the force F overflowed"),
    ("perturbation", OVERFLOWING_PAIR, "the pair force integral of GaussianPair("
                                       "strength=1e+308, width=0.1) overflows"),
    # p/m overflows the drift for a subnormal mass
    ("fock", {"mass": 1e-320}, "the generator K overflowed"),
], ids=["fock-pair", "vlasov-pair", "vlasov-quartic", "perturbation-pair", "fock-mass"])
def test_cli_names_a_force_that_overflows(tmp_path, method, problem, message, strict):
    payload = dict(MINIMAL_VLASOV, method=method, output_dir=str(tmp_path / "out"),
                   problem=problem)
    if method == "fock":
        payload.update(grid=dict(MINIMAL_VLASOV["grid"], n_q=4, n_p=4), times={"t_final": 0.5},
                       settings={"n_particles": 2})
    if method == "perturbation":
        payload.update(settings={"n_s": 2})
    strict_flag = ["--strict"] if strict else []
    assert main(["run", "--config", write_config(tmp_path, payload), *strict_flag]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError" and record["method"] == method
    assert message in record["message"]


@pytest.mark.parametrize("problem, t_final", [
    ({"external_potential": {"type": "quartic", "a": 0.0, "b": 1e6}}, 0.5),
    ({"external_potential": {"type": "harmonic", "omega": 1.0},
      "pair_potential": {"type": "gaussian", "strength": 1e200, "width": 0.8}}, 0.1),
], ids=["quartic", "pair"])
def test_cli_ensemble_names_a_diverging_flow(tmp_path, problem, t_final):
    payload = {
        "method": "ensemble",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "problem": problem,
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16},
        "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": t_final},
        "settings": {"dt": 0.01, "n_particles": 50},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "the flow diverged" in record["message"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config.json", "error.json"]


def test_cli_flow_names_a_diverging_exact_flow(tmp_path):
    write_points_csv(tmp_path / "pts.csv", np.array([[0.0, 1.0]]))
    payload = {
        "method": "flow",
        "output_dir": str(tmp_path / "out"),
        "problem": {"mass": 1e-320},
        "times": {"t_final": 1.0},
        "settings": {"dt": 0.1, "exact_shortcut": True, "points_csv": "pts.csv",
                     "n_snapshots": 3},
    }
    assert main(["run", "--config", write_config(tmp_path, payload), "--strict"]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "the flow diverged" in record["message"]


def test_cli_fock_cap_refusal_distinct_from_crash(tmp_path):
    payload = {
        "method": "fock",
        "output_dir": str(tmp_path / "out"),
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 64, "n_p": 64, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian", "q_sigma": 0.8, "p_sigma": 0.8},
        "times": {"t_final": 0.1},
        "settings": {"n_particles": 2},
    }
    cfg = write_config(tmp_path, payload)
    # an over-cap sector is a config error: refused at parse, before a run directory exists
    assert main(["run", "--config", cfg]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_run_turns_memory_error_into_exit_2_with_error_record(tmp_path, monkeypatch):
    from kvnsim.fock import EllMatrix

    def exhausted(matrix, x):
        raise MemoryError("cannot allocate the Chebyshev work vectors")

    monkeypatch.setattr(EllMatrix, "__matmul__", exhausted)
    payload = {
        "method": "fock",
        "output_dir": str(tmp_path / "out"),
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian", "q_sigma": 0.8, "p_sigma": 0.8},
        "times": {"t_final": 0.1},
        "settings": {"n_particles": 2},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "MemoryError" and record["method"] == "fock"
    assert not (tmp_path / "out" / "state_final.kvnq").exists()


def test_cli_rerun_is_byte_identical(tmp_path):
    payload = {
        "method": "ensemble",
        "seed": 9,
        "problem": {"pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1.0}},
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -5, "p_max": 5,
                 "n_q": 16, "n_p": 16, "periodic_q": True},
        "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.2},
        "settings": {"dt": 0.05, "n_particles": 2000},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("particles_final.csv", "histogram.kvnf", "marginal.csv",
                 "config.json", "checks.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_seed_override_changes_samples(tmp_path):
    payload = {
        "method": "ensemble",
        "seed": 9,
        "grid": {"q_min": -8, "q_max": 8, "p_min": -8, "p_max": 8, "n_q": 16, "n_p": 16},
        "initial_density": {"type": "gaussian", "q_sigma": 0.8, "p_sigma": 0.8},
        "times": {"t_final": 0.0},
        "settings": {"dt": 0.05, "n_particles": 50},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "10"]) == 0
    a = read_points_csv(tmp_path / "a" / "particles_final.csv")
    b = read_points_csv(tmp_path / "b" / "particles_final.csv")
    assert not np.array_equal(a, b)


def test_cli_report_pass_fail_and_tamper(tmp_path, capsys):
    payload = dict(MINIMAL_VLASOV, output_dir=str(tmp_path / "run1"))
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 0
    rep_dir = str(tmp_path / "rep")
    assert main(["report", str(tmp_path / "run1"), "--out", rep_dir]) == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["all_passed"] is True

    with open(tmp_path / "run1" / "marginal_0000.csv", "a") as fh:
        fh.write("tampered,1\n")
    assert main(["report", str(tmp_path / "run1"), "--out", rep_dir]) == 3
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["all_passed"] is False
    assert any("checksum" in p for p in summary["problems"])


def test_cli_report_rechecks_tolerances_instead_of_trusting_the_flag(tmp_path, capsys):
    run_dir = tmp_path / "run1"
    payload = dict(MINIMAL_VLASOV, output_dir=str(run_dir))
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 0
    checks_path = run_dir / "checks.json"
    checks = {c["name"]: c for c in json.loads(checks_path.read_text())}
    drift = checks["vlasov_mass_drift_rel"]
    drift["value"] = 10.0 * drift["high"]  # out of its window, still flagged as passed
    checks["vlasov_clip_count"]["value"] = "n/a"  # no finite number at all
    assert all(c["passed"] for c in checks.values())
    checks_path.write_text(json.dumps(list(checks.values())))
    # re-hash the manifest so that only the tolerances are wrong
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    (rec,) = [r for r in manifest["files"] if r["path"] == "checks.json"]
    rec["sha256"] = hashlib.sha256(checks_path.read_bytes()).hexdigest()
    rec["bytes"] = checks_path.stat().st_size
    manifest_path.write_text(json.dumps(manifest))

    assert main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 3
    out = capsys.readouterr().out
    assert "check vlasov_mass_drift_rel out of tolerance" in out
    assert "check vlasov_clip_count out of tolerance" in out
    assert "checksum" not in out

    checks_path.write_text(json.dumps({"not": "a list"}))
    rec["sha256"] = hashlib.sha256(checks_path.read_bytes()).hexdigest()
    rec["bytes"] = checks_path.stat().st_size
    manifest_path.write_text(json.dumps(manifest))
    assert main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 3
    assert "checks.json is unreadable or not a list" in capsys.readouterr().out


def test_cli_report_names_an_unparsable_table(tmp_path):
    run_dir = tmp_path / "run1"
    payload = dict(PERTURBATION_COMPARE, output_dir=str(run_dir))
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 0
    table = run_dir / "residual_table.csv"
    header, first, *rest = table.read_text().splitlines()
    damaged = {
        "extra column": [header, first + ",7", *rest],
        "non-numeric value": [header, first.split(",")[0] + ",abc", *rest],
    }
    variants = [("\n".join(lines) + "\n").encode() for lines in damaged.values()]
    variants.append(table.read_bytes() + b"\xff\xfe\n")  # not UTF-8
    for raw in variants:
        table.write_bytes(raw)
        assert main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 3
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["all_passed"] is False
        problems = "\n".join(summary["problems"])
        assert "checksum mismatch: residual_table.csv" in problems
        assert "residual_table.csv is unparsable" in problems


def test_cli_report_lists_missing_manifest_not_fatal(tmp_path):
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty"), "--out", str(tmp_path / "rep")]) == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["runs"][0]["manifest"] == "missing-or-corrupt"
    assert any("unreadable" in p for p in summary["problems"])


def test_cli_report_fails_on_a_path_that_is_not_a_directory(tmp_path):
    (tmp_path / "file").write_text("")
    for run in (tmp_path / "no" / "such" / "dir", tmp_path / "file"):
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 3
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["problems"] == [f"{run}: not a directory"]
        assert summary["runs"][0]["manifest"] == "missing-or-corrupt"
        assert "SOME CHECKS FAILED" in (tmp_path / "rep" / "summary.txt").read_text()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_is_not_utf8_cannot_be_read(tmp_path, capsys, command):
    text = json.dumps(dict(MINIMAL_VLASOV, output_dir=str(tmp_path / "out")))
    config = tmp_path / "config.json"
    config.write_bytes(text.encode().replace(b'out"', b'out\xff"'))
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: 'utf-8' codec can't decode byte 0xff")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("through", [False, True], ids=["a-file", "through-a-file"])
def test_an_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys, command, through):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "sub" if through else blocker
    if command == "run":
        argv = ["run", "--config", write_config(tmp_path, MINIMAL_VLASOV), "--out", str(out)]
    else:
        (tmp_path / "run").mkdir()
        argv = ["report", str(tmp_path / "run"), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"cannot create output directory {str(out)!r}: ")
    assert blocker.read_text() == "kept"


def test_cli_report_names_a_failed_run_and_exits_3(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "error.json").write_text(json.dumps(
        {"error": "CostError", "message": "too many terms", "method": "fock"}))
    (tmp_path / "damaged").mkdir()
    (tmp_path / "damaged" / "error.json").write_text("[")
    for run, problem in [(out, "the run failed: CostError: too many terms"),
                         (tmp_path / "damaged", "the run failed, and its error.json is damaged")]:
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 3
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["problems"] == [f"{run}: {problem}"]
        assert "SOME CHECKS FAILED" in (tmp_path / "rep" / "summary.txt").read_text()


def test_cli_compare_emits_residual_table(tmp_path):
    payload = {
        "method": "compare",
        "output_dir": str(tmp_path / "out"),
        "problem": {
            "external_potential": {"type": "harmonic", "omega": 1.0},
            "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8},
        },
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 48, "n_p": 48},
        "initial_density": {"type": "gaussian", "q_center": 0.6, "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.3},
        "settings": {
            "targets": ["perturbation", "vlasov"],
            "strengths": [0.1, 0.05],
            "perturbation": {"n_s": 8, "flow": {"dt": 0.001, "exact_shortcut": True}},
            "vlasov": {"dt": 0.01},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "residual_table.csv").read_text().strip().splitlines()
    assert lines[0] == "strength,linf_error"
    assert lines[-1].startswith("fitted_order,")
    errs = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert errs[0] > errs[1]


ENSEMBLE_OPEN = {
    "method": "ensemble",
    "problem": {"pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8}},
    "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16},
    "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
    "times": {"t_final": 1000.0},
    "settings": {"dt": 0.01, "n_particles": 2000},
}


def test_cli_ensemble_cost_guard_exits_2_with_error_record(tmp_path):
    cfg = write_config(tmp_path, dict(ENSEMBLE_OPEN, output_dir=str(tmp_path / "out")))
    assert main(["run", "--config", cfg]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "CostError"
    assert not (tmp_path / "out" / "particles_final.csv").exists()


@pytest.mark.parametrize("pair", [
    {"type": "gaussian", "strength": 0.5, "width": 0.5},
    {"type": "cosine", "strength": 0.1, "wavenumber": 1.5},
])
def test_periodic_ensemble_needs_a_pair_the_wrap_leaves_alone(pair):
    periodic = {"q_min": -np.pi, "q_max": np.pi, "p_min": -5, "p_max": 5,
                "n_q": 16, "n_p": 16, "periodic_q": True}
    message = ("problem.pair_potential: on a periodic q-domain the ensemble needs no pair "
               "potential or a cosine pair with a whole number of periods over the q-length")
    raw = dict(ENSEMBLE_OPEN, grid=periodic, problem={"pair_potential": pair},
               times={"t_final": 0.1})
    assert config_errors(raw) == [message]
    raw = dict(raw, method="compare",
               settings={"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                         "vlasov": {"dt": 0.02}})
    assert config_errors(raw) == [message]
    # the same pair is fine for the grid solver, which wraps displacements itself
    parse_config(json.dumps(dict(raw, method="vlasov", settings={"dt": 0.02})))
    # and a cosine pair with whole periods is fine for the ensemble
    whole = {"type": "cosine", "strength": 0.1, "wavenumber": 2.0}
    parse_config(json.dumps(dict(ENSEMBLE_OPEN, grid=periodic, times={"t_final": 0.1},
                                 problem={"pair_potential": whole})))


def test_interacting_ensemble_runs_need_two_particles(tmp_path):
    message = "an interacting run needs at least two particles"
    one = dict(ENSEMBLE_OPEN, times={"t_final": 0.1}, settings={"dt": 0.01, "n_particles": 1})
    assert config_errors(one) == [f"settings.n_particles: {message}"]
    assert main(["validate", "--config", write_config(tmp_path, one)]) == 1
    compare = dict(one, method="compare", settings={"targets": ["ensemble", "vlasov"],
                                                    "n_list": [10, 1], "vlasov": {"dt": 0.01}})
    assert config_errors(compare) == [f"settings.n_list[1]: {message}"]
    # without a pair one particle simply follows the flow map
    for raw in (one, compare):
        parse_config(json.dumps(dict(raw, problem={"pair_potential": {"type": "none"}})))


def test_a_comparison_ensemble_block_defaults_its_dt():
    compare = dict(ENSEMBLE_OPEN, method="compare", times={"t_final": 0.1},
                   settings={"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                             "vlasov": {"dt": 0.01}})
    absent = parse_config(json.dumps(compare)).settings.target
    partial = parse_config(json.dumps(dict(compare, settings=dict(
        compare["settings"], ensemble={"coupling_scaling": "bare"})))).settings.target
    assert absent == EnsembleSettings(dt=0.01)
    assert partial == EnsembleSettings(dt=0.01, coupling_scaling="bare")
    # an ensemble run's sample size sits beside its settings, not in them
    assert parse_config(json.dumps(ENSEMBLE_OPEN)).settings == (
        EnsembleSettings(dt=0.01), 2000)
    # an ensemble run names its dt
    assert config_errors(dict(ENSEMBLE_OPEN, settings={"n_particles": 20})) == [
        "settings.dt: missing required key"]


def test_the_ensemble_needs_a_unit_mass_density(tmp_path):
    message = ("initial_density: the ensemble needs total mass 1 (its histogram and "
               "mean-field scaling are per unit mass), not 2")
    heavy = dict(ENSEMBLE_OPEN["initial_density"], mass=2)
    run = dict(ENSEMBLE_OPEN, initial_density=heavy, times={"t_final": 0.1})
    compare = dict(run, method="compare", settings={"targets": ["ensemble", "vlasov"],
                                                    "n_list": [10, 100], "vlasov": {"dt": 0.01}})
    for raw in (run, compare):
        assert config_errors(raw) == [message]
        assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    mixture = {"type": "mixture", "weights": [1, 1],
               "components": [{"q_center": -1, "mass": 1.5}, {"q_center": 1, "mass": 0.5}]}
    parse_config(json.dumps(dict(compare, initial_density=mixture)))


def test_a_comparison_refuses_a_density_of_zero_mass(tmp_path):
    # its residuals all vanish, and the run died dividing them into ratios
    payload = dict(PERTURBATION_COMPARE, output_dir=str(tmp_path / "out"),
                   initial_density=dict(MINIMAL_VLASOV["initial_density"], mass=0))
    assert config_errors(payload) == [
        "initial_density: a comparison needs a density of nonzero total mass"]
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # as in a plain run
def test_cli_run_turns_an_arithmetic_error_into_exit_2_with_error_record(tmp_path):
    # the zero-mass comparison that validation now refuses, handed to the runner
    cfg = parse_config(json.dumps(PERTURBATION_COMPARE))
    cfg.density = dataclasses.replace(cfg.density, mass=0.0)
    assert run_config(cfg, str(tmp_path / "out")) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ZeroDivisionError" and record["method"] == "compare"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_an_empty_snapshot_list_is_refused(tmp_path):
    times = {"t_final": 0.1, "snapshots": []}
    for raw in (dict(MINIMAL_VLASOV, times=times),
                dict(MINIMAL_VLASOV, method="perturbation", times=times, settings={})):
        assert config_errors(raw) == ["times.snapshots: must list at least one time"]
        assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1


def test_cli_compare_ensemble_table_and_its_seed(tmp_path):
    payload = {
        "method": "compare",
        "output_dir": str(tmp_path / "out"),
        "seed": 5,
        "problem": {"pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1.0}},
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -5, "p_max": 5,
                 "n_q": 16, "n_p": 32, "periodic_q": True},
        "initial_density": {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7},
        "times": {"t_final": 0.2},
        "settings": {
            "targets": ["ensemble", "vlasov"],
            "n_list": [500, 5000],
            "ensemble": {"dt": 0.05},
            "vlasov": {"dt": 0.02},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    lines = (out / "convergence_table.csv").read_text().strip().splitlines()
    assert lines[0] == "n_samples,l1_distance"
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [5]


# --------------------------------------------------------------------------
# parser robustness: only ConfigError, every refusal at its key path
# --------------------------------------------------------------------------

def config_errors(raw) -> list[str]:
    with pytest.raises(ConfigError) as err:
        parse_config(raw if isinstance(raw, str) else json.dumps(raw))
    return err.value.errors


@pytest.mark.parametrize("value", ["harmonic", 5, None, [1, 2]])
def test_non_object_potential_is_a_config_error(value):
    raw = dict(MINIMAL_VLASOV, problem={"external_potential": value})
    assert config_errors(raw) == ["problem.external_potential: expected an object"]


GRID = MINIMAL_VLASOV["grid"]


@pytest.mark.parametrize("change, error", [
    ({"problem": {"external_potential": {"type": "morse"}}},
     "problem.external_potential.type: unknown potential type 'morse'"),
    ({"problem": {"pair_potential": {"type": "yukawa"}}},
     "problem.pair_potential.type: unknown pair potential type 'yukawa'"),
    ({"initial_density": {"type": "uniform"}},
     "initial_density.type: unknown density type 'uniform'"),
    ({"grid": dict(GRID, q_max=-8)}, "grid.q_max: q_max must be > q_min"),
    ({"grid": dict(GRID, p_max=-9)}, "grid.p_max: p_max must be > p_min"),
    ({"initial_density": {"type": "mixture", "components": [{"type": "uniform"}],
                          "weights": [1.0]}},
     "initial_density.components[0].type: mixture components must be gaussian"),
    ({"times": {"t_final": 0.1, "snapshots": [0.0, "end"]}},
     "times.snapshots: must be a list of finite numbers"),
    ({"times": {"t_final": 0.1, "snapshots": [0.0, 0.2]}},
     "times.snapshots[1]: must lie in [0, t_final]"),
    ({"problem": {"external_potential": {"type": "cosine", "wavenumber": 1.0,
                                         "amplitude": 0.5}}},
     "grid.periodic_q: cosine external potential requires a periodic q-domain"),
    ({"problem": {"external_potential": {"type": "harmonic", "omega": 0}}},
     "problem.external_potential.omega: omega must be > 0"),
    # a JSON integer beyond the largest float
    ({"grid": dict(GRID, q_min=-10**400)}, "grid.q_min: expected a finite number"),
    ({"initial_density": {"type": "mixture", "components": [{}], "weights": [1.0, 2.0]}},
     "initial_density.weights: must match the number of components"),
    ({"initial_density": {"type": "mixture", "components": [5], "weights": [1.0]}},
     "initial_density.components[0]: expected an object"),
    ({"method": "compare", "settings": {"targets": ["fock", "vlasov"]}},
     'settings.targets: must be ["perturbation", "vlasov"] or ["ensemble", "vlasov"]'),
], ids=["external-type", "pair-type", "density-type", "q-bounds", "p-bounds",
        "mixture-component", "snapshot-number", "snapshot-range", "cosine-open-q",
        "strict-minimum", "integer-overflow", "mixture-lengths", "mixture-not-object",
        "targets"])
def test_each_refusal_names_its_path(change, error):
    assert config_errors(dict(MINIMAL_VLASOV, **change)) == [error]


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_are_config_errors(text):
    raw = json.dumps(MINIMAL_VLASOV).replace('"q_min": -8', f'"q_min": {text}')
    assert config_errors(raw) == ["grid.q_min: expected a finite number"]


def test_library_settings_errors_carry_the_block_path():
    raw = json.loads(json.dumps(MINIMAL_VLASOV))
    raw["method"] = "compare"
    raw["problem"] = {"pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1}}
    raw["settings"] = {"strengths": [0.1], "vlasov": {"dt": 0.01, "interpolation": "quintic"},
                       "perturbation": {"quadrature": "simpson"}}
    assert config_errors(raw) == [
        "settings.perturbation.quadrature: unknown key",
        "settings.vlasov: unknown interpolation 'quintic'",
    ]


def test_compare_sweep_entries_are_checked_one_by_one():
    raw = json.loads(json.dumps(MINIMAL_VLASOV))
    raw["method"] = "compare"
    raw["problem"] = {"pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1}}
    raw["settings"] = {"strengths": ["a", 0.1, True, -0.5], "vlasov": {"dt": 0.01}}
    assert config_errors(raw) == [
        "settings.strengths[0]: must be a number >= 0",
        "settings.strengths[2]: must be a number >= 0",
        "settings.strengths[3]: must be a number >= 0",
    ]
    raw["settings"] = {"targets": ["ensemble", "vlasov"], "n_list": [10, 2.5, 0, False, "3"],
                       "vlasov": {"dt": 0.01}}
    assert config_errors(raw) == [f"settings.n_list[{i}]: must be an integer >= 1"
                                  for i in (1, 2, 3, 4)]


FOCK_4X4 = {
    "method": "fock",
    "problem": {"pair_potential": {"type": "gaussian", "strength": 0.15, "width": 1.0}},
    "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
             "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True},
    "initial_density": {"type": "gaussian"},
    "times": {"t_final": 0.1},
}


def test_cli_validate_refuses_a_fock_run_without_particles(tmp_path, capsys):
    payload = dict(FOCK_4X4, settings={"n_particles": 0})
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
    assert "settings.n_particles: must be >= 1" in capsys.readouterr().err


def test_cli_validates_and_runs_three_fock_particles(tmp_path):
    # the sector dimension is the only bound on N: C(18, 3) = 816 states here
    payload = dict(FOCK_4X4, settings={"n_particles": 3}, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg]) == 0
    assert abs(read_field(tmp_path / "out" / "density.kvnf").mass - 3.0) < 1e-12


def test_validate_refuses_a_dimension_cap_above_the_default(tmp_path, capsys):
    payload = {
        "method": "fock",
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian"},
        "times": {"t_final": 0.1},
        "settings": {"n_particles": 2, "dimension_cap": 300000},
    }
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
    assert "settings.dimension_cap: unknown key" in capsys.readouterr().err


def test_validate_refuses_keys_the_method_ignores():
    compare_ensemble = dict(MINIMAL_VLASOV, method="compare", times={"t_final": 0.2},
                            settings={"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                                      "ensemble": {"dt": 0.05, "n_particles": 10},
                                      "vlasov": {"dt": 0.02}})
    assert config_errors(compare_ensemble) == ["settings.ensemble.n_particles: unknown key"]
    # a comparison reads only the sweep and the settings of the target it names
    ensemble_keys = {"n_list": [10, 100], "ensemble": {"dt": 0.3, "coupling_scaling": "bare"}}
    perturbation_keys = {"strengths": [0.1, 0.05], "perturbation": {"n_s": 8}}
    for raw, extra in [(PERTURBATION_COMPARE, ensemble_keys),
                       (VALID_CONFIGS[5], perturbation_keys)]:
        crossed = dict(raw, settings=dict(raw["settings"], **extra))
        assert config_errors(crossed) == [f"settings.{key}: unknown key" for key in extra]
    snapshots = {"t_final": 0.2, "snapshots": [0.1, 0.2]}
    for raw in VALID_CONFIGS[1:]:
        if raw["method"] not in ("vlasov", "perturbation"):
            message = f"times.snapshots: the {raw['method']} method writes only t_final"
            assert config_errors(dict(raw, times=snapshots)) == [message]
    flow = VALID_CONFIGS[1]
    pair = {"type": "gaussian", "strength": 5, "width": 1}
    for path, raw in [("grid", dict(flow, grid=MINIMAL_VLASOV["grid"])),
                      ("initial_density", dict(flow, initial_density={"q_sigma": 0.01})),
                      ("problem.pair_potential",
                       dict(flow, problem=dict(flow["problem"], pair_potential=pair)))]:
        assert config_errors(raw) == [f"{path}: the flow method does not read it"]
    periodic_p = dict(MINIMAL_VLASOV["grid"], periodic_p=True)
    message = "only the fock method wraps the p-axis"
    assert config_errors(dict(MINIMAL_VLASOV, grid=periodic_p)) == [
        f"grid.periodic_p: {message}"]
    perturbation = dict(MINIMAL_VLASOV, method="perturbation",
                        settings={"aux_grid": periodic_p})
    assert config_errors(perturbation) == [f"settings.aux_grid.periodic_p: {message}"]
    compare = dict(PERTURBATION_COMPARE, settings=dict(PERTURBATION_COMPARE["settings"],
                                                       perturbation={"aux_grid": periodic_p}))
    assert config_errors(compare) == [f"settings.perturbation.aux_grid.periodic_p: {message}"]


def test_cli_strict_run_turns_the_resolution_warning_into_exit_2(tmp_path):
    narrow = dict(MINIMAL_VLASOV, initial_density={"type": "gaussian", "q_sigma": 0.1})
    cfg = write_config(tmp_path, narrow)
    with pytest.warns(GridResolutionWarning):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "lax")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 2
    record = json.loads((tmp_path / "strict" / "error.json").read_text())
    assert record["error"] == "GridResolutionWarning" and record["method"] == "vlasov"
    assert not (tmp_path / "strict" / "manifest.json").exists()


@pytest.mark.parametrize("payload", [
    dict(ENSEMBLE_OPEN, times={"t_final": 0.015}, settings={"dt": 0.01, "n_particles": 20}),
    dict(MINIMAL_VLASOV, times={"t_final": 0.015}, method="compare",
         settings={"targets": ["ensemble", "vlasov"], "n_list": [10, 20],
                   "ensemble": {"dt": 0.01}, "vlasov": {"dt": 0.005}}),
])
def test_validate_and_run_agree_on_an_ensemble_t_final_off_the_dt_grid(tmp_path, capsys, payload):
    payload = dict(payload, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 1
    assert "times.t_final: must be a whole number of settings." in capsys.readouterr().err
    assert main(["run", "--config", cfg]) == 1
    assert not (tmp_path / "out").exists()
    # one step more or less is a whole number again
    parse_config(json.dumps(dict(payload, times={"t_final": 0.02})))


def test_vlasov_checks_read_the_latest_snapshot_in_any_listed_order(tmp_path):
    checks = []
    for order in ([0.2, 0.0], [0.0, 0.2]):
        out = tmp_path / f"out_{order[0]}"
        payload = dict(MINIMAL_VLASOV, output_dir=str(out),
                       problem={"external_potential": {"type": "harmonic", "omega": 1.0}},
                       times={"t_final": 0.2, "snapshots": order})
        assert main(["run", "--config", write_config(tmp_path, payload)]) == 0
        checks.append(json.loads((out / "checks.json").read_text()))
    assert checks[0] == checks[1]
    assert {c["name"]: c["value"] for c in checks[0]}["vlasov_clip_count"] > 0


PERIODIC_VLASOV_GRID = {"q_min": -math.pi, "q_max": math.pi, "p_min": -8, "p_max": 8,
                        "n_q": 32, "n_p": 32, "periodic_q": True}


def test_a_vlasov_run_holds_one_snapshot_however_many_it_writes(tmp_path):
    n = 128
    grid = dict(MINIMAL_VLASOV["grid"], n_q=n, n_p=n)

    def run(tag, count):
        times = {"t_final": 0.08, "snapshots": [0.08 * k / (count - 1) for k in range(count)]}
        cfg = parse_config(json.dumps(dict(MINIMAL_VLASOV, grid=grid, times=times)))
        assert run_config(cfg, str(tmp_path / tag)) == 0

    run("warm-up", 2)  # fills the solver's caches before anything is traced
    peaks = []
    for count in (2, 9):
        tracemalloc.start()
        try:
            run(f"out{count}", count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 * n * n  # less than one field


@pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's "
                    "arguments on the caller's stack until the call returns")
def test_a_vlasov_run_frees_its_initial_field_before_the_first_step(tmp_path, monkeypatch):
    from kvnsim.vlasov import _Stepper

    initial, alive = [], []
    density_from_function, p_kick = cli.density_from_function, _Stepper.p_kick

    def sample(*args, **kwargs):
        field = density_from_function(*args, **kwargs)
        initial.append(weakref.ref(field.values))
        return field

    def kick(self):
        alive.append(initial[0]() is not None)
        p_kick(self)

    monkeypatch.setattr(cli, "density_from_function", sample)
    monkeypatch.setattr(_Stepper, "p_kick", kick)
    payload = dict(MINIMAL_VLASOV, grid=PERIODIC_VLASOV_GRID,
                   problem={"pair_potential": {"type": "cosine", "strength": 0.1,
                                               "wavenumber": 1}},
                   times={"t_final": 0.05, "snapshots": [0.0, 0.02, 0.05]})
    assert run_config(parse_config(json.dumps(payload)), str(tmp_path / "out")) == 0
    assert len(alive) == 5 and not any(alive)


def test_a_vlasov_run_that_fails_mid_solve_leaves_no_field_behind(tmp_path, monkeypatch):
    from kvnsim.vlasov import CFLViolation, _Stepper

    out, kicks = tmp_path / "out", []
    p_kick = _Stepper.p_kick

    def kick(self):
        if len(kicks) == 3:  # the snapshots at steps 0 and 2 are on disk by now
            assert (out / "field_0001.kvnf").exists() and (out / "marginal_0001.csv").exists()
            raise CFLViolation("dt*max|F| exceeds the p-domain length")
        kicks.append(1)
        p_kick(self)

    monkeypatch.setattr(_Stepper, "p_kick", kick)
    payload = dict(MINIMAL_VLASOV, output_dir=str(out),
                   times={"t_final": 0.1, "snapshots": [0.0, 0.02, 0.1]})
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "CFLViolation" and record["method"] == "vlasov"
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "error.json"]


PERTURBATION_COMPARE = dict(
    MINIMAL_VLASOV, method="compare",
    problem={"pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1}},
    settings={"strengths": [0.1, 0.05], "perturbation": {"n_s": 8}, "vlasov": {"dt": 0.01}})


@pytest.mark.parametrize("payload, dt_key", [
    (MINIMAL_VLASOV, "settings.dt"),
    (PERTURBATION_COMPARE, "settings.vlasov.dt"),
])
def test_validate_and_run_refuse_a_vlasov_t_final_off_the_dt_grid(tmp_path, capsys, payload,
                                                                   dt_key):
    payload = dict(payload, times={"t_final": 0.015}, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 1
    message = f"times.t_final: must be a whole number of {dt_key} = 0.01 steps"
    assert message in capsys.readouterr().err
    assert main(["run", "--config", cfg]) == 1
    assert not (tmp_path / "out").exists()
    # one step more or less is a whole number again
    parse_config(json.dumps(dict(payload, times={"t_final": 0.02})))


def test_validate_and_run_refuse_a_comparison_at_t_final_zero(tmp_path, capsys):
    payload = dict(PERTURBATION_COMPARE, times={"t_final": 0.0}, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 1
    assert "times.t_final: a comparison needs t_final > 0" in capsys.readouterr().err
    assert main(["run", "--config", cfg]) == 1
    assert not (tmp_path / "out").exists()


def test_a_harmonic_omega_whose_square_overflows_is_refused_at_its_path():
    with pytest.raises(ValueError, match="overflows omega"):
        HarmonicPotential(omega=1e300)
    payload = dict(MINIMAL_VLASOV,
                   problem={"external_potential": {"type": "harmonic", "omega": 1e300}})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.errors == ["problem.external_potential.omega: omega = 1e+300 overflows "
                                "omega**2"]


def test_validate_and_run_agree_on_a_strength_without_a_pair(tmp_path, capsys):
    payload = dict(MINIMAL_VLASOV, method="compare", output_dir=str(tmp_path / "out"),
                   settings={"strengths": [0.1, 0.05], "perturbation": {"n_s": 8},
                             "vlasov": {"dt": 0.01}})
    cfg = write_config(tmp_path, payload)
    message = "settings.strengths: a nonzero strength needs a gaussian or cosine pair potential"
    assert main(["validate", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert main(["run", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a zero strength alone is the non-interacting floor and stays valid
    payload["settings"] = dict(payload["settings"], strengths=[0.0])
    parse_config(json.dumps(payload))


def test_cli_seed_override_is_validated(tmp_path, capsys):
    payload = dict(MINIMAL_VLASOV, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg, "--seed", "-1"]) == 1
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a config too deeply nested to decode is a config error, with or without --seed
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    for extra in ([], ["--seed", "1"]):
        assert main(["run", "--config", str(nested), *extra]) == 1
        assert "(json): maximum recursion depth" in capsys.readouterr().err


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from([10**400, -1, 0, 1, 2, 3, 0.5, "gaussian", "harmonic",
                                  "cosine", "mixture", "quartic", "perturbation", "vlasov",
                                  "ensemble"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
TOP_KEYS = ("method", "output_dir", "seed", "problem", "grid", "initial_density", "times",
            "settings")

PERIODIC_GRID = {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True}
# fock on compare's open [-6, 6]^2 grid, N = 2, harmonic external and gaussian pair
OPEN_FOCK = {
    "method": "fock",
    "problem": {"external_potential": {"type": "harmonic", "omega": 1.0},
                "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8}},
    "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 10, "n_p": 10},
    "initial_density": {"type": "gaussian", "q_center": 0.6, "q_sigma": 0.7, "p_sigma": 0.7},
    "times": {"t_final": 0.5},
    "settings": {"n_particles": 2},
}
VALID_CONFIGS = [
    MINIMAL_VLASOV,
    {"method": "flow", "problem": {"external_potential": {"type": "quartic", "a": 0.5, "b": 1}},
     "times": {"t_final": 1.0}, "settings": {"points_csv": "pts.csv", "n_snapshots": 3}},
    dict(MINIMAL_VLASOV, method="perturbation",
         settings={"n_s": 8, "flow": {"dt": 0.01},
                   "aux_grid": MINIMAL_VLASOV["grid"]}),
    dict(MINIMAL_VLASOV, method="fock", grid=PERIODIC_GRID,
         problem={"external_potential": {"type": "cosine", "wavenumber": 1, "amplitude": 0.4},
                  "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1}},
         settings={"n_particles": 2}),
    dict(MINIMAL_VLASOV, method="ensemble", seed=3,
         initial_density={"type": "mixture", "weights": [1, 2],
                          "components": [{"q_center": -1}, {"type": "gaussian", "q_center": 1}]},
         settings={"dt": 0.05, "n_particles": 50, "coupling_scaling": "bare"}),
    dict(MINIMAL_VLASOV, method="compare",
         problem={"pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1}},
         settings={"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                   "ensemble": {"dt": 0.05}, "vlasov": {"dt": 0.02}}),
    dict(MINIMAL_VLASOV, method="compare", times={"t_final": 0.2},
         problem={"pair_potential": {"type": "gaussian", "strength": 0.1, "width": 1}},
         settings={"strengths": [0.1, 0.05], "perturbation": {"n_s": 8},
                   "vlasov": {"dt": 0.01}}),
    OPEN_FOCK,
]


def parse_or_config_error(text: str) -> None:
    try:
        parse_config(text)
    except ConfigError:
        pass


@pytest.mark.parametrize("raw", VALID_CONFIGS)
def test_property_test_seed_configs_are_valid(raw):
    assert parse_config(json.dumps(raw)).method == raw["method"]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40) | JSON_VALUES.map(json.dumps)
       | st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in TOP_KEYS}).map(json.dumps))
def test_parse_config_raises_only_config_error_on_arbitrary_json(text):
    parse_or_config_error(text)


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_config_raises_only_config_error_on_mutated_configs(data):
    raw = json.loads(json.dumps(data.draw(st.sampled_from(VALID_CONFIGS))))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(raw))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    parse_or_config_error(json.dumps(raw))


def test_cli_fock_runs_on_an_open_grid(tmp_path):
    cfg = write_config(tmp_path, dict(OPEN_FOCK, output_dir=str(tmp_path / "out")))
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg]) == 0
    checks = {c["name"]: c for c in json.loads((tmp_path / "out" / "checks.json").read_text())}
    assert checks["fock_norm_drift"]["passed"] and checks["fock_hermiticity"]["value"] == 0.0
    assert main(["report", str(tmp_path / "out"), "--out", str(tmp_path / "rep")]) == 0


def test_a_gaussian_width_whose_square_overflows_is_refused_at_its_path():
    with pytest.raises(ValueError, match="overflows width"):
        GaussianPair(strength=0.1, width=1e300)
    payload = dict(OPEN_FOCK, problem=dict(OPEN_FOCK["problem"], pair_potential={
        "type": "gaussian", "strength": 0.1, "width": 1e300}))
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.errors == ["problem.pair_potential.width: width = 1e+300 overflows "
                                "width**2"]


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("payload, pair", [
    (dict(MINIMAL_VLASOV, method="perturbation", settings={"n_s": 2},
          problem={"pair_potential": {"type": "gaussian", "strength": 1e300, "width": 0.5}}),
     "GaussianPair(strength=1e+300, width=0.5)"),
    (dict(PERTURBATION_COMPARE, settings=dict(PERTURBATION_COMPARE["settings"],
                                              strengths=[100.0, 0.05])),
     "GaussianPair(strength=100.0, width=1.0)"),
], ids=["perturbation", "compare"])
def test_a_coupling_beyond_first_order_is_named(tmp_path, payload, pair, strict):
    cfg = write_config(tmp_path, dict(payload, output_dir=str(tmp_path / "out")))
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, *(["--strict"] if strict else [])]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"].startswith(
        f"the coupling of {pair} is beyond first order: density values below the tolerated "
        "undershoot (")


@pytest.mark.parametrize("cycles, whole", [
    (1e-10, False), (0.5, False), (1.0, True), (2.0 + 1e-12, True), (2.0 + 1e-6, False),
    (3.0, True)])
def test_one_predicate_decides_whole_cosine_periods(cycles, whole):
    # k = cycles periods over the q-length 2 pi; a small fraction of one period is not whole
    assert whole_periods(cycles, 2 * np.pi) == whole
    assert pair_is_periodic(CosinePair(strength=0.1, wavenumber=cycles), 2 * np.pi) == whole
    raw = dict(MINIMAL_VLASOV, grid=dict(MINIMAL_VLASOV["grid"], q_min=-np.pi, q_max=np.pi,
                                         periodic_q=True),
               problem={"external_potential": {"type": "cosine", "wavenumber": cycles,
                                                "amplitude": 0.5}})
    if whole:
        parse_config(json.dumps(raw))
    else:
        assert config_errors(raw) == [
            "grid.q_max: q-domain length must be a whole number of cosine periods"]


PERIODIC_Q = dict(ENSEMBLE_OPEN["grid"], q_min=-np.pi, q_max=np.pi, periodic_q=True)
PERIODIC_ENSEMBLE = dict(ENSEMBLE_OPEN, grid=PERIODIC_Q, times={"t_final": 0.1}, problem={
    "pair_potential": {"type": "gaussian", "strength": 0.5, "width": 0.5}})
ENSEMBLE_COMPARE = {"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                    "vlasov": {"dt": 0.02}}
OPEN_PAIR = ProblemSpec(pair=GaussianPair(strength=0.1, width=0.8))
ONE_PARTICLE = (np.zeros((1, 2)), 0.1, OPEN_PAIR, EnsembleSettings(dt=0.01))
OPEN_GRID = PhaseGrid(-8, 8, -8, 8, 32, 32)


@pytest.mark.parametrize("payload, path, refuse", [
    (PERIODIC_ENSEMBLE, "problem.pair_potential",
     lambda: require_periodic_pair(GaussianPair(strength=0.5, width=0.5),
                                   PhaseGrid(-np.pi, np.pi, -6, 6, 16, 16, periodic_q=True))),
    (dict(PERIODIC_ENSEMBLE, method="compare", settings=ENSEMBLE_COMPARE),
     "problem.pair_potential",
     lambda: ensemble_vs_vlasov(
         GaussianDensity(q_sigma=0.7, p_sigma=0.7),
         ProblemSpec(pair=GaussianPair(strength=0.5, width=0.5)),
         PhaseGrid(-np.pi, np.pi, -6, 6, 16, 16, periodic_q=True), 0.1, [10, 100],
         EnsembleSettings(dt=0.01), VlasovSettings(dt=0.02), seed=0)),
    (dict(ENSEMBLE_OPEN, times={"t_final": 0.1}, settings={"dt": 0.01, "n_particles": 1}),
     "settings.n_particles", lambda: integrate_nbody(*ONE_PARTICLE)),
    (dict(ENSEMBLE_OPEN, method="compare", times={"t_final": 0.1},
          settings=dict(ENSEMBLE_COMPARE, n_list=[10, 1])),
     "settings.n_list[1]", lambda: integrate_nbody(*ONE_PARTICLE)),
    (dict(PERTURBATION_COMPARE, problem={}), "settings.strengths",
     lambda: residual_vs_vlasov(0.1, GaussianDensity(q_sigma=0.8, p_sigma=0.8), ProblemSpec(),
                                [0.1, 0.05], OPEN_GRID, PerturbationSettings(aux_grid=OPEN_GRID),
                                VlasovSettings(dt=0.01))),
    (dict(OPEN_FOCK, problem={"pair_potential": {"type": "gaussian", "strength": 0.1,
                                                 "width": 1e300}}),
     "problem.pair_potential.width", lambda: GaussianPair(strength=0.1, width=1e300)),
    (dict(OPEN_FOCK, problem={"pair_potential": {"type": "gaussian", "strength": 0.1,
                                                 "width": 1e-200}}),
     "problem.pair_potential.width", lambda: GaussianPair(strength=0.1, width=1e-200)),
    (dict(MINIMAL_VLASOV, settings={"dt": 0}), "settings.dt", lambda: VlasovSettings(dt=0.0)),
    ({"method": "flow", "times": {"t_final": 1.0},
      "settings": {"points_csv": "pts.csv", "dt": -0.1}},
     "settings.dt", lambda: FlowSettings(dt=-0.1)),
    (dict(MINIMAL_VLASOV, method="perturbation", settings={"flow": {"dt": 0}}),
     "settings.flow.dt", lambda: FlowSettings(dt=0.0)),
    (dict(ENSEMBLE_OPEN, settings={"dt": 0, "n_particles": 50}), "settings.dt",
     lambda: EnsembleSettings(dt=0.0)),
    (dict(MINIMAL_VLASOV, method="perturbation", settings={"n_s": 1}), "settings.n_s",
     lambda: PerturbationSettings(aux_grid=OPEN_GRID, n_s=1)),
    (dict(MINIMAL_VLASOV, method="perturbation", settings={"h_p": 0}), "settings.h_p",
     lambda: PerturbationSettings(aux_grid=OPEN_GRID, h_p=0.0)),
    (dict(MINIMAL_VLASOV, initial_density={"q_sigma": 0}), "initial_density.q_sigma",
     lambda: GaussianDensity(q_sigma=0.0)),
    (dict(MINIMAL_VLASOV, initial_density={"mass": -1}), "initial_density.mass",
     lambda: GaussianDensity(mass=-1.0)),
    (dict(MINIMAL_VLASOV, grid=dict(GRID, n_q=3)), "grid.n_q",
     lambda: PhaseGrid(-8, 8, -8, 8, 3, 32)),
    (dict(MINIMAL_VLASOV, grid=dict(GRID, p_max=-9)), "grid.p_max",
     lambda: PhaseGrid(-8, 8, -8, -9, 32, 32)),
    (dict(MINIMAL_VLASOV, problem={"external_potential": {"type": "harmonic", "omega": 0}}),
     "problem.external_potential.omega", lambda: HarmonicPotential(omega=0.0)),
    (dict(MINIMAL_VLASOV, problem={"external_potential": {"type": "cosine", "wavenumber": 0,
                                                          "amplitude": 0.5}}),
     "problem.external_potential.wavenumber",
     lambda: CosinePotential(wavenumber=0.0, amplitude=0.5)),
    (dict(MINIMAL_VLASOV, problem={"pair_potential": {"type": "gaussian", "strength": -0.1,
                                                      "width": 0.5}}),
     "problem.pair_potential.strength", lambda: GaussianPair(strength=-0.1, width=0.5)),
    (dict(MINIMAL_VLASOV, problem={"mass": 0}), "problem.mass", lambda: ProblemSpec(mass=0.0)),
], ids=["periodic-pair-run", "periodic-pair-compare", "two-particles-run",
        "two-particles-compare", "strength-without-pair", "gaussian-width",
        "gaussian-width-underflow", "vlasov-dt", "flow-dt", "perturbation-flow-dt",
        "ensemble-dt", "n-s", "h-p", "q-sigma", "density-mass", "n-q", "p-bounds", "omega",
        "cosine-wavenumber", "pair-strength", "problem-mass"])
def test_validate_reports_the_library_refusal_at_its_path(payload, path, refuse):
    with pytest.raises(ValueError) as exc:
        refuse()
    assert config_errors(payload) == [f"{path}: {exc.value}"]


@pytest.mark.parametrize("times", [None, {}], ids=["no-times-block", "empty-times"])
def test_a_config_without_t_final_is_refused(tmp_path, times):
    # a forgotten t_final must not run zero steps
    payload = {key: value for key, value in MINIMAL_VLASOV.items() if key != "times"}
    if times is not None:
        payload["times"] = times
    assert config_errors(payload) == ["times.t_final: missing required key"]
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1


def test_a_negative_mixture_weight_is_the_library_refusal_at_its_entry(tmp_path):
    components = [{"q_center": -1, "q_sigma": 0.8, "p_sigma": 0.8},
                  {"q_center": 1, "q_sigma": 0.8, "p_sigma": 0.8}]
    payload = dict(MINIMAL_VLASOV, initial_density={"type": "mixture", "weights": [1, -2],
                                                    "components": components})
    with pytest.raises(ValueError) as exc:
        GaussianMixture((GaussianDensity(), GaussianDensity()), (1.0, -2.0))
    assert str(exc.value) == "weights[1] must be >= 0"
    assert config_errors(payload) == [f"initial_density.weights[1]: {exc.value}"]
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
    # config keeps only the JSON type of each entry
    payload["initial_density"]["weights"] = [1, "2"]
    assert config_errors(payload) == ["initial_density.weights[1]: expected a finite number"]


# the two refusals that need the grid: a Fock sector over the cap, a q-drift over the domain
OVER_CAP_FOCK = dict(OPEN_FOCK, grid=dict(OPEN_FOCK["grid"], n_q=4, n_p=4),
                     settings={"n_particles": 8})
Q_CFL_GRID = {"q_min": -4, "q_max": 4, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16}
Q_CFL_VLASOV = dict(MINIMAL_VLASOV, grid=Q_CFL_GRID, initial_density={"q_sigma": 0.7,
                    "p_sigma": 0.7}, times={"t_final": 4.0}, settings={"dt": 2.0})
Q_CFL_COMPARE = dict(Q_CFL_VLASOV, method="compare", problem=OPEN_FOCK["problem"],
                     settings={"strengths": [0.1, 0.05], "vlasov": {"dt": 2.0}})


def _q_cfl_solve():
    grid = PhaseGrid(-4, 4, -6, 6, 16, 16)
    rho = density_from_function(grid, GaussianDensity(q_sigma=0.7, p_sigma=0.7), warn=False)
    vlasov_solve(rho, 4.0, ProblemSpec(), VlasovSettings(dt=2.0))


@pytest.mark.parametrize("payload, path, refuse", [
    (OVER_CAP_FOCK, "settings.n_particles", lambda: FockBasis(n_modes=16, n_particles=8)),
    (Q_CFL_VLASOV, "settings.dt", _q_cfl_solve),
    (Q_CFL_COMPARE, "settings.vlasov.dt", _q_cfl_solve),
], ids=["fock-over-cap", "vlasov-q-cfl", "compare-q-cfl"])
def test_validate_and_run_refuse_what_only_the_run_refused(tmp_path, payload, path, refuse):
    with pytest.raises(ValueError) as exc:
        refuse()
    assert config_errors(payload) == [f"{path}: {exc.value}"]
    cfg = write_config(tmp_path, dict(payload, output_dir=str(tmp_path / "out")))
    assert main(["validate", "--config", cfg]) == 1
    assert main(["run", "--config", cfg]) == 1
    assert not (tmp_path / "out").exists()


def test_the_q_cfl_refusal_needs_a_step():
    # at t_final = 0 the solve takes no step, so no q-drift can overrun the domain
    assert parse_config(json.dumps(dict(Q_CFL_VLASOV, times={"t_final": 0.0}))).settings == \
        VlasovSettings(dt=2.0)


def test_an_over_cap_count_stays_cheap():
    # C(1099999, 100000) has about 145 500 digits; the refusal never counts them
    errors = config_errors(dict(OVER_CAP_FOCK, grid=dict(
        OVER_CAP_FOCK["grid"], n_q=1000, n_p=1000), settings={"n_particles": 100_000}))
    assert errors == ["settings.n_particles: sector dimension C(1099999, 100000) "
                      "(M=1000000, N=100000) exceeds the cap 200000"]


# every block that builds a library class: a config holding it, its path, the
# object it builds, the class, and the fields the parser builds itself
COSINE_PROBLEM = {"external_potential": {"type": "cosine", "wavenumber": 1.0, "amplitude": 0.5},
                  "pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1.0}}
COSINE_VLASOV = dict(MINIMAL_VLASOV, grid=PERIODIC_VLASOV_GRID, problem=COSINE_PROBLEM)
QUARTIC_VLASOV = dict(MINIMAL_VLASOV, problem={
    "external_potential": {"type": "quartic", "b": 1.0, "a": 0.5},
    "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8}})
MIXTURE_VLASOV = dict(MINIMAL_VLASOV, initial_density={
    "type": "mixture", "weights": [1.0], "components": [{"q_sigma": 0.8, "p_sigma": 0.8}]})
PERTURBATION = dict(MINIMAL_VLASOV, method="perturbation", settings={
    "flow": {"dt": 0.01}, "aux_grid": MINIMAL_VLASOV["grid"]})
COMPARE = dict(Q_CFL_COMPARE, settings={"strengths": [0.1], "vlasov": {"dt": 0.5}})
FLOW = {"method": "flow", "times": {"t_final": 1.0}, "settings": {"points_csv": "pts.csv"}}
LIBRARY_BLOCKS = [
    (MINIMAL_VLASOV, "problem", lambda c: c.spec, ProblemSpec, ("external", "pair")),
    (MINIMAL_VLASOV, "problem.external_potential", lambda c: c.spec.external, FreePotential, ()),
    (MINIMAL_VLASOV, "problem.pair_potential", lambda c: c.spec.pair, NoPair, ()),
    (OPEN_FOCK, "problem.external_potential", lambda c: c.spec.external, HarmonicPotential,
     ()),
    (QUARTIC_VLASOV, "problem.external_potential", lambda c: c.spec.external,
     QuarticPotential, ()),
    (QUARTIC_VLASOV, "problem.pair_potential", lambda c: c.spec.pair, GaussianPair, ()),
    (COSINE_VLASOV, "problem.external_potential", lambda c: c.spec.external, CosinePotential,
     ()),
    (COSINE_VLASOV, "problem.pair_potential", lambda c: c.spec.pair, CosinePair, ()),
    (MINIMAL_VLASOV, "grid", lambda c: c.grid, PhaseGrid, ()),
    (MINIMAL_VLASOV, "initial_density", lambda c: c.density, GaussianDensity, ()),
    (MIXTURE_VLASOV, "initial_density.components[0]", lambda c: c.density.components[0],
     GaussianDensity, ()),
    (MINIMAL_VLASOV, "settings", lambda c: c.settings, VlasovSettings, ()),
    (FLOW, "settings", lambda c: c.settings.flow, FlowSettings, ()),
    (PERTURBATION, "settings", lambda c: c.settings, PerturbationSettings,
     ("aux_grid", "flow")),
    (PERTURBATION, "settings.flow", lambda c: c.settings.flow, FlowSettings, ()),
    (PERTURBATION, "settings.aux_grid", lambda c: c.settings.aux_grid, PhaseGrid, ()),
    (ENSEMBLE_OPEN, "settings", lambda c: c.settings[0], EnsembleSettings, ()),
    (COMPARE, "settings.perturbation", lambda c: c.settings.target, PerturbationSettings,
     ("aux_grid", "flow")),
    (COMPARE, "settings.vlasov", lambda c: c.settings.vlasov, VlasovSettings, ()),
    (dict(ENSEMBLE_OPEN, method="compare", times={"t_final": 0.1}, settings=ENSEMBLE_COMPARE),
     "settings.ensemble", lambda c: c.settings.target, EnsembleSettings, ()),
]


def _block(raw: dict, path: str) -> dict:
    """The block of ``raw`` at ``path``, made when absent."""
    for part in path.split("."):
        key, _, index = part.partition("[")
        raw = raw.setdefault(key, {})
        if index:
            raw = raw[int(index[:-1])]
    return raw


@pytest.mark.parametrize("payload, path, built, cls, given", LIBRARY_BLOCKS,
                         ids=[f"{cls.__name__}@{path}" for _, path, _, cls, _ in LIBRARY_BLOCKS])
def test_a_block_takes_exactly_the_fields_of_its_library_class(payload, path, built, cls,
                                                               given):
    # each field a config sets is annotated with a JSON type, so a bad value is a
    # ConfigError, never an exception of the library class
    keys = [f for f in dataclasses.fields(cls) if f.init and f.name not in given]
    assert [f.name for f in keys if f.type not in ("float", "int", "bool", "str")] == []
    raw = json.loads(json.dumps(payload))
    # a block naming every field, at the value the parser gave it, builds the same object
    obj = built(parse_config(json.dumps(raw)))
    _block(raw, path).update({f.name: getattr(obj, f.name) for f in keys})
    assert built(parse_config(json.dumps(raw))) == obj
    # and one key beyond them is refused at its path
    _block(raw, path)["spare"] = 1
    assert config_errors(raw) == [f"{path}.spare: unknown key"]
