import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnsim.cli import main, run_config
from kvnsim.config import ConfigError, parse_config
from kvnsim.ensemble import EnsembleSettings
from kvnsim.fileio import read_field, read_points_csv, write_points_csv
from kvnsim.phase_space import GaussianPair, GridResolutionWarning, HarmonicPotential, NoPair

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
    assert isinstance(cfg.spec.external, type(cfg.spec.external))
    assert isinstance(cfg.spec.pair, NoPair)
    assert cfg.snapshots == (0.1,)
    assert cfg.settings.interpolation == "cubic-spline"


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


OVERFLOWING_PAIR = {"pair_potential": {"type": "gaussian", "strength": 1e308, "width": 0.1}}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("method, problem, message", [
    ("fock", OVERFLOWING_PAIR, "the pair gradient grad v of GaussianPair(strength=1e+308, "
                               "width=0.1) overflows"),
    ("vlasov", OVERFLOWING_PAIR, "the pair gradient grad v of GaussianPair(strength=1e+308, "
                                 "width=0.1) overflows"),
    ("vlasov", {"external_potential": {"type": "quartic", "a": 1e308, "b": -1e308}},
     "the p-kick dt*max|F| = nan: the force F overflowed"),
], ids=["fock-pair", "vlasov-pair", "vlasov-quartic"])
def test_cli_names_a_force_that_overflows(tmp_path, method, problem, message, strict):
    payload = dict(MINIMAL_VLASOV, method=method, output_dir=str(tmp_path / "out"),
                   problem=problem)
    if method == "fock":
        payload.update(grid=dict(MINIMAL_VLASOV["grid"], n_q=4, n_p=4), times={"t_final": 0.5},
                       settings={"n_particles": 2})
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
    assert main(["run", "--config", cfg]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "CostError"


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
                 "config.json", "checks.json", "ensemble_meta.json"):
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
    assert absent == EnsembleSettings(dt=0.01, seed=0)
    assert partial == EnsembleSettings(dt=0.01, seed=0, coupling_scaling="bare")
    # an ensemble run's sample size sits beside its settings, not in them
    assert parse_config(json.dumps(ENSEMBLE_OPEN)).settings == (
        EnsembleSettings(dt=0.01, seed=0), 2000)
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


def test_cli_compare_ensemble_table_with_sidecar(tmp_path):
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
    meta = json.loads((out / "convergence_meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["coupling_scaling"] == "mean-field"


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
    ({"grid": dict(GRID, q_max=-8)}, "grid.q_max: bounds must be ordered (q_max > q_min)"),
    ({"grid": dict(GRID, p_max=-9)}, "grid.p_max: bounds must be ordered (p_max > p_min)"),
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
     "problem.external_potential.omega: must be > 0.0"),
], ids=["external-type", "pair-type", "density-type", "q-bounds", "p-bounds",
        "mixture-component", "snapshot-number", "snapshot-range", "cosine-open-q",
        "strict-minimum"])
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


def test_cli_validate_refuses_unsupported_fock_particle_number(tmp_path, capsys):
    payload = {
        "method": "fock",
        "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -np.pi, "p_max": np.pi,
                 "n_q": 4, "n_p": 4, "periodic_q": True, "periodic_p": True},
        "initial_density": {"type": "gaussian"},
        "times": {"t_final": 0.1},
        "settings": {"n_particles": 3},
    }
    assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
    assert "settings.n_particles: must be 1 or 2" in capsys.readouterr().err


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
    message = ("settings.strengths: a nonzero strength needs a gaussian or cosine "
               "problem.pair_potential")
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
