#!/usr/bin/env python3
"""kvnsim benchmark: end-to-end ``kvnsim run`` metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload vlasov-periodic-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures ``kvnsim run`` subprocesses, one at a time (one client,
closed loop), and reports the end-to-end metrics.  ``--trace 1`` calls
``kvnsim.cli.run_config`` in process, alternately untraced and traced, and
reports the per-layer metrics.  Both gate every run for correctness.  The
last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, BENCH_DIR)
from workloads import NAMES, make_config  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
MIN_REPEATS = 2        # same-seed repeats needed for the byte-identity check
SUBPROCESS_TIMEOUT_S = 60.0  # a run takes under 10 s; two hung runs still end within 180 s
# Limits on the deterministic accuracy figures the correctness gate reads.
FIGURE_LIMITS = {
    "casimir_l2_drift": 1e-3,  # measured 2.2e-5 to 2.8e-5 on vlasov-periodic-256
    "fitted_order_err": 0.3,   # the C1 window on the fitted order is [1.7, 2.3]
}

SETUP_CODE = ("import sys\n"
              "from kvnsim.cli import parse_config\n"
              "with open(sys.argv[1], encoding='utf-8') as fh:\n"
              "    parse_config(fh.read())\n")
IMPORT_CODE = ("import time\n"
               "t0 = time.perf_counter()\n"
               "import kvnsim.cli\n"
               "print(time.perf_counter() - t0)\n")


def child_env() -> dict:
    env = dict(os.environ, **{var: str(NPROC) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log_path: str) -> tuple[int, float, float]:
    """Run a python subprocess to exit; returns (exit code, wall s, own peak RSS MB).

    The RSS is the child's own ``ru_maxrss`` from ``os.wait4``, not the
    cumulative maximum over all children.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def environment() -> dict:
    """Versions, thread settings and cache sizes the numbers were taken with."""
    import numpy as np
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True)
            caches[key] = out.stdout.strip() or None
        except OSError:
            caches[key] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cache_bytes": caches,
    }


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def check_windows(run_dir: str) -> list[str]:
    """Entries of checks.json outside their [low, high] window (recomputed)."""
    with open(os.path.join(run_dir, "checks.json"), encoding="utf-8") as fh:
        checks = json.load(fh)
    bad = []
    for c in checks:
        value = c["value"]
        if ((c["low"] is not None and not value >= c["low"])
                or (c["high"] is not None and not value <= c["high"])):
            bad.append(f"check {c['name']} = {value} outside [{c['low']}, {c['high']}]")
    return bad


def artifact_digests(run_dir: str) -> dict[str, bytes]:
    """Bytes of every artifact of a run except manifest.json (wall time lives there)."""
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name != "manifest.json":
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def report_problems(run_dirs: list[str], report_dir: str) -> dict[str, list]:
    """Problems ``kvnsim report`` finds (checksums, tolerances), per run directory."""
    os.makedirs(report_dir, exist_ok=True)
    code, _, _ = spawn(["-m", "kvnsim.cli", "report", *run_dirs, "--out", report_dir],
                       os.path.join(report_dir, "report.log"))
    try:
        with open(os.path.join(report_dir, "summary.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {"problems": [f"report exited {code} without a summary"]}
    problems = {d: [p for p in report.get("problems", []) if p.startswith(f"{d}:")]
                for d in run_dirs}
    if code != 0 and not any(problems.values()):
        problems = {d: [f"kvnsim report exited {code}"] for d in run_dirs}
    return problems


def workload_figures(name: str, run_dir: str) -> dict[str, float]:
    """Deterministic accuracy figures read through public readers and the CSV tables."""
    if name == "vlasov-periodic-256":
        import numpy as np
        from kvnsim.fileio import read_field

        fields = sorted(f for f in os.listdir(run_dir) if f.endswith(".kvnf"))
        first = read_field(os.path.join(run_dir, fields[0])).values
        last = read_field(os.path.join(run_dir, fields[-1])).values
        return {"casimir_l2_drift": abs(float(np.linalg.norm(last) / np.linalg.norm(first)) - 1.0)}
    if name == "compare-pert-128":
        with open(os.path.join(run_dir, "residual_table.csv"), encoding="utf-8") as fh:
            footer = [ln.split(",") for ln in fh if ln.startswith("fitted_order,")]
        return {"fitted_order_err": abs(float(footer[0][1]) - 2.0)}
    return {}


def gate(name: str, runs: list[dict], report_dir: str) -> list[dict]:
    """Mark each run ok or failed; fills ``problems`` and the workload figures.

    A run fails when it exits non-zero, a checks.json entry is out of its
    window, ``kvnsim report`` flags it, its artifacts differ from the other
    same-seed repeats, or an accuracy figure exceeds its limit.
    """
    for run in runs:
        run.setdefault("problems", [])
        if run["code"] != 0:
            run["problems"].append(f"exit code {run['code']}")
            continue
        try:
            run["problems"] += check_windows(run["dir"])
            run["figures"] = workload_figures(name, run["dir"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run["problems"].append(f"unreadable artifacts: {exc!r}")
            continue
        for key, value in run["figures"].items():
            if not value <= FIGURE_LIMITS[key]:
                run["problems"].append(f"{key} = {value:.6g} above {FIGURE_LIMITS[key]}")
    finished = [r for r in runs if r["code"] == 0]
    if finished:
        by_dir = report_problems([r["dir"] for r in finished], report_dir)
        for run in finished:
            run["problems"] += by_dir[run["dir"]]
    repeats = [r for r in finished if r.get("repeat", True)]
    if repeats:
        reference = artifact_digests(repeats[0]["dir"])
        for run in repeats[1:]:
            if artifact_digests(run["dir"]) != reference:
                run["problems"].append("artifacts differ from a same-seed repeat")
    return runs


# --------------------------------------------------------------------------
# end-to-end (--trace 0)
# --------------------------------------------------------------------------

def measure_end_to_end(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    work = os.path.join(WORK, name)
    cfg_path = os.path.join(work, "config.json")
    write_json(cfg_path, make_config(name, seed, tiny))
    warm_path = os.path.join(work, "warmup.json")
    write_json(warm_path, make_config(name, seed, tiny=True))

    def kvnsim_run(config: str, tag: str) -> dict:
        out = os.path.join(work, tag)
        code, wall, rss = spawn(["-m", "kvnsim.cli", "run", "--config", config, "--out", out],
                                os.path.join(work, f"{tag}.log"))
        return {"dir": out, "code": code, "wall": wall, "rss": rss}

    # Warm-up, excluded from timing: fills the page cache and the bytecode
    # cache along the same code path at the tiny size.
    warm = kvnsim_run(warm_path, "warmup")
    warm["repeat"] = False

    setup = []
    for k in range(SETUP_SAMPLES):
        code, wall, _ = spawn(["-c", SETUP_CODE, cfg_path], os.path.join(work, f"setup{k}.log"))
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited {code}; see {work}/setup{k}.log")
        setup.append(wall)

    runs: list[dict] = []
    started = time.perf_counter()
    # Start another run while it is expected to end no later than half a run
    # past the budget, so the measured time averages ``seconds``.
    while len(runs) < MIN_REPEATS or (time.perf_counter() - started
                                      + statistics.median(r["wall"] for r in runs) / 2 <= seconds):
        runs.append(kvnsim_run(cfg_path, f"run{len(runs)}"))
    gate(name, [warm, *runs], os.path.join(work, "report"))

    ok = [r for r in runs if not r["problems"]] or runs
    figures = runs[0].get("figures", {})
    return {
        "runs": [warm, *runs],
        "metrics": {
            "run_wall_s": (statistics.median(r["wall"] for r in ok), "s", len(ok)),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (statistics.median(r["rss"] for r in ok), "MB", len(ok)),
        },
        "figures": figures,
    }


# --------------------------------------------------------------------------
# per-layer (--trace 1)
# --------------------------------------------------------------------------

def measure_layers(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    import kvnsim.cli as cli
    from tracing import METRIC_UNITS, Tracer, layer_metrics

    work = os.path.join(WORK, name)
    cfg_text = json.dumps(make_config(name, seed, tiny))
    imports = []
    for k in range(IMPORT_SAMPLES):
        log = os.path.join(work, f"import{k}.log")
        code, _, _ = spawn(["-c", IMPORT_CODE], log)
        if code != 0:
            raise RuntimeError(f"import interpreter exited {code}; see {log}")
        with open(log, encoding="utf-8") as fh:
            imports.append(float(fh.read().split()[-1]))

    tracer = Tracer()

    def in_process_run(tag: str, traced: bool) -> dict:
        out = os.path.join(work, tag)
        sink = io.StringIO()
        if traced:
            tracer.run_id += 1
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink):
                started = time.perf_counter()
                if traced:
                    root = tracer.open("bench.run")
                    try:
                        cfg = cli.parse_config(cfg_text)
                        code = cli.run_config(cfg, out, work)
                    finally:
                        tracer.close(root)
                else:
                    code = cli.run_config(cli.parse_config(cfg_text), out, work)
                wall = time.perf_counter() - started
        finally:
            tracer.uninstall()
        return {"dir": out, "code": code, "wall": wall, "traced": traced,
                "run_id": tracer.run_id if traced else None}

    # Warm-up, excluded from timing: the first LAPACK call in a process and
    # lazily built scipy state cost about 1 s on fock-pair-144.
    runs = [in_process_run("warmup", traced=False)]
    started = time.perf_counter()
    while True:
        runs.append(in_process_run(f"plain{len(runs)}", traced=False))
        runs.append(in_process_run(f"traced{len(runs)}", traced=True))
        pair_s = runs[-1]["wall"] + runs[-2]["wall"]
        if time.perf_counter() - started + pair_s > seconds:
            break
    gate(name, runs, os.path.join(work, "report"))
    write_json(os.path.join(work, "spans.json"), tracer.records())

    per_run = []
    for run in runs:
        if not run["traced"]:
            continue
        spans = [s for s in tracer.spans if s.run_id == run["run_id"]]
        herm = 0.0
        if name.startswith("fock"):
            with open(os.path.join(run["dir"], "checks.json"), encoding="utf-8") as fh:
                herm = next(c["value"] for c in json.load(fh) if c["name"] == "fock_hermiticity")
        per_run.append(layer_metrics(spans, fock_hermiticity_dev=herm))
    plain = [r["wall"] for r in runs[1:] if not r["traced"]]
    traced = [r["wall"] for r in runs if r["traced"]]
    metrics = {key: (statistics.median(m[key] for m in per_run), METRIC_UNITS[key], len(per_run))
               for key in per_run[0]}
    metrics["cli.import_s"] = (statistics.median(imports), "s", len(imports))
    metrics["bench.trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                         "s", len(traced))
    return {"runs": runs, "metrics": metrics, "figures": {}}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    measure = measure_layers if trace else measure_end_to_end
    result = measure(name, seed, seconds, tiny)
    result["failed"] = sum(1 for r in result["runs"] if r["problems"])
    result["attempted"] = len(result["runs"])
    return result


def print_summary(name: str, result: dict) -> None:
    print(f"workload {name}")
    for key, (value, unit, n) in sorted(result["metrics"].items()):
        print(f"  {key:34s} {value:14.6g} {unit:6s} (median of {n})")
    print(f"  {'failed_ratio':34s} {result['failed']:>7d}/{result['attempted']:<6d} "
          f"failed/attempted")
    walls = " ".join(f"{r['wall']:.3f}" for r in result["runs"])
    print(f"  {'run walls (s, warm-up first)':34s} {walls}")
    for key, value in result["figures"].items():
        print(f"  {key:34s} {value:14.6g} 1      (deterministic)")
    for run in result["runs"]:
        for problem in run["problems"]:
            print(f"  FAILED {os.path.relpath(run['dir'], ROOT)}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "kvnsim", "cli.py")):
        print(f"error: no kvnsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Thread caps must be in place before numpy is first imported.
    os.environ.update({var: str(NPROC) for var in THREAD_VARS})

    os.makedirs(WORK, exist_ok=True)
    env = environment()
    write_json(os.path.join(WORK, "environment.json"), env)
    print("environment " + json.dumps(env, sort_keys=True))

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for n, result in results.items():
        print_summary(n, result)

    def metric_key(n, key):
        return key if len(names) == 1 else f"{n}.{key}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric_key(n, key): {"value": value, "unit": unit}
                    for n, r in results.items()
                    for key, (value, unit, _) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
