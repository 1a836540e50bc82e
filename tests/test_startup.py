"""Every method runs on numpy alone: a fresh interpreter that imports the
command line and runs a flow, vlasov, perturbation, fock, compare and ensemble
config never imports scipy.  Nor does any run but the ensemble's map OpenSSL:
the manifest's digests come from CPython's own SHA-256, and only the
ensemble's sampler, through numpy.random, loads ``_hashlib``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kvnsim

SRC = str(Path(kvnsim.__file__).resolve().parents[1])
LAYERS = ("cli", "config", "phase_space", "vlasov", "perturbation", "flow", "fock",
          "ensemble", "fileio")

GRID = {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16}
DENSITY = {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7}
PAIR = {"external_potential": {"type": "harmonic", "omega": 1.0},
        "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8}}
CONFIGS = {
    "flow": {"method": "flow", "problem": {"external_potential": PAIR["external_potential"]},
             "times": {"t_final": 0.1},
             "settings": {"points_csv": "points.csv", "n_snapshots": 2}},
    "vlasov": {"method": "vlasov", "problem": PAIR, "grid": GRID,
               "initial_density": DENSITY, "times": {"t_final": 0.05},
               "settings": {"dt": 0.01}},
    "perturbation": {"method": "perturbation", "problem": PAIR, "grid": GRID,
                     "initial_density": DENSITY, "times": {"t_final": 0.05},
                     "settings": {"n_s": 2, "flow": {"dt": 0.01, "exact_shortcut": True}}},
    "fock": {"method": "fock", "problem": PAIR,
             "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3, "n_q": 4, "n_p": 4,
                      "periodic_q": True, "periodic_p": True},
             "initial_density": DENSITY, "times": {"t_final": 0.5},
             "settings": {"n_particles": 2}},
    "compare": {"method": "compare", "problem": PAIR, "grid": GRID,
                "initial_density": DENSITY, "times": {"t_final": 0.05},
                "settings": {"strengths": [0.1, 0.0],
                             "perturbation": {"n_s": 2, "flow": {"dt": 0.01,
                                                                 "exact_shortcut": True}},
                             "vlasov": {"dt": 0.01}}},
    "ensemble": {"method": "ensemble", "problem": PAIR, "grid": GRID,
                 "initial_density": DENSITY, "times": {"t_final": 0.05},
                 "settings": {"dt": 0.01, "n_particles": 20}},
}

PROBE = """
import json, sys
from kvnsim.cli import build_report, main, parse_config
layers = [name for name in sys.argv[1].split(",") if f"kvnsim.{name}" not in sys.modules]
paths = sys.argv[2:]
for path in paths:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
runs = [json.load(open(path, encoding="utf-8"))["output_dir"] for path in paths]
# every run but the last, the ensemble, and a report on them
codes = [main(["run", "--config", path]) for path in paths[:-1]]
build_report(runs[:-1])
openssl_before_ensemble = "_hashlib" in sys.modules
codes.append(main(["run", "--config", paths[-1]]))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report = build_report(runs)
print(json.dumps({"missing_layers": layers, "codes": codes, "scipy": scipy,
                  "openssl_before_ensemble": openssl_before_ensemble,
                  "problems": report["problems"],
                  "manifests": [entry["manifest"] for entry in report["runs"]]}))
"""


def test_import_and_every_method_loads_no_scipy(tmp_path):
    (tmp_path / "points.csv").write_text("q,p\n0.5,0.1\n-0.2,0.3\n")
    paths = []
    for method, config in CONFIGS.items():
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / method))))
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", PROBE, ",".join(LAYERS), *paths],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perfbench's tracer looks every layer up in sys.modules after importing the cli
    assert result["missing_layers"] == []
    assert result["codes"] == [0] * len(CONFIGS)
    assert result["scipy"] == []
    # only the ensemble, run last, maps OpenSSL (numpy.random imports hashlib)
    assert result["openssl_before_ensemble"] is False
    assert result["manifests"] == ["ok"] * len(CONFIGS)
    assert result["problems"] == []


FOOTPRINT_PROBE = """
import json, sys
from kvnsim.cli import main
loaded = {}
for path in sys.argv[1:]:
    code = main(["run", "--config", path])
    loaded[path] = [code, *sorted(m for m in ("_hashlib", "numpy.random") if m in sys.modules)]
print(json.dumps(loaded))
"""


def test_vlasov_and_fock_runs_import_neither_hashlib_nor_numpy_random(tmp_path):
    """Each costs megabytes of peak memory: imported after the command line,
    _hashlib added 3.4 MB and numpy.random 5.2 MB (that of _hashlib included)
    on an x86-64 Xeon Linux host with CPython 3.11 and numpy 2.4.  Neither run
    needs them: digests come from CPython's own SHA-256.  The ensemble is left
    out because its sampler needs numpy.random, which imports hashlib through
    secrets and hmac."""
    paths = []
    for method in ("vlasov", "fock"):
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(dict(CONFIGS[method], output_dir=str(tmp_path / method))))
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, *paths],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {path: [0] for path in paths}
