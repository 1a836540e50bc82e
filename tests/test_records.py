"""The records a run leaves: every method reruns byte for byte with a manifest
that lists exactly its files, a failed run leaves only its config and error
record, and ``kvnsim report`` survives any damaged manifest, checks file or
table, listing the run as a problem (exit code 3)."""

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnsim import cli
from kvnsim.cli import build_report, main
from kvnsim.fileio import RunManifest

GRID = {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16}
DENSITY = {"type": "gaussian", "q_sigma": 0.7, "p_sigma": 0.7}
PAIR = {"external_potential": {"type": "harmonic", "omega": 1.0},
        "pair_potential": {"type": "gaussian", "strength": 0.1, "width": 0.8}}
PERIODIC = {"q_min": -np.pi, "q_max": np.pi, "p_min": -6, "p_max": 6, "n_q": 16, "n_p": 16,
            "periodic_q": True}
COSINE_PAIR = {"pair_potential": {"type": "cosine", "strength": 0.1, "wavenumber": 1.0}}
PERTURBATION_COMPARE = {
    "method": "compare", "problem": PAIR, "grid": GRID, "initial_density": DENSITY,
    "times": {"t_final": 0.05},
    "settings": {"strengths": [0.1, 0.0],
                 "perturbation": {"n_s": 2, "flow": {"dt": 0.01, "exact_shortcut": True}},
                 "vlasov": {"dt": 0.01}},
}
CONFIGS = {
    "flow": {"method": "flow", "problem": {"external_potential": PAIR["external_potential"]},
             "times": {"t_final": 0.1},
             "settings": {"points_csv": "points.csv", "n_snapshots": 2}},
    "vlasov": {"method": "vlasov", "problem": PAIR, "grid": GRID, "initial_density": DENSITY,
               "times": {"t_final": 0.05, "snapshots": [0.0, 0.05]},
               "settings": {"dt": 0.01}},
    "perturbation": {"method": "perturbation", "problem": PAIR, "grid": GRID,
                     "initial_density": DENSITY, "times": {"t_final": 0.05},
                     "settings": {"n_s": 2, "flow": {"dt": 0.01, "exact_shortcut": True}}},
    "fock": {"method": "fock", "problem": PAIR,
             "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3, "n_q": 4, "n_p": 4,
                      "periodic_q": True, "periodic_p": True},
             "initial_density": DENSITY, "times": {"t_final": 0.5},
             "settings": {"n_particles": 2}},
    "fock-3": {"method": "fock", "problem": PAIR,
               "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3, "n_q": 4, "n_p": 4,
                        "periodic_q": True, "periodic_p": True},
               "initial_density": DENSITY, "times": {"t_final": 0.5},
               "settings": {"n_particles": 3}},
    "ensemble": {"method": "ensemble", "seed": 4, "problem": PAIR, "grid": GRID,
                 "initial_density": DENSITY, "times": {"t_final": 0.05},
                 "settings": {"dt": 0.01, "n_particles": 20}},
    "compare-perturbation": PERTURBATION_COMPARE,
    "compare-ensemble": {"method": "compare", "seed": 4, "problem": COSINE_PAIR,
                         "grid": PERIODIC, "initial_density": DENSITY,
                         "times": {"t_final": 0.1},
                         "settings": {"targets": ["ensemble", "vlasov"], "n_list": [10, 100],
                                      "ensemble": {"dt": 0.05}, "vlasov": {"dt": 0.05}}},
}

# the files each config's run writes beside config.json, checks.json and
# manifest.json, as README's methods table lists them
ARTIFACTS = {
    "flow": ["trajectory.csv"],
    "vlasov": ["field_0000.kvnf", "field_0001.kvnf", "marginal_0000.csv", "marginal_0001.csv"],
    "perturbation": ["field_0000.kvnf", "marginal_0000.csv"],
    "fock": ["density.kvnf", "marginal.csv", "state_final.kvnq"],
    "fock-3": ["density.kvnf", "marginal.csv", "state_final.kvnq"],
    "ensemble": ["histogram.kvnf", "marginal.csv", "particles_final.csv"],
    "compare-perturbation": ["residual_table.csv"],
    "compare-ensemble": ["convergence_table.csv"],
}


# a writer of ``kvnsim.cli`` that each config calls; ``_fail_after`` makes it fail
# once its own file is on disk
LATER_WRITER = {
    "flow": "write_trajectory_csv",
    "vlasov": "write_marginal_csv",
    "perturbation": "write_marginal_csv",
    "fock": "write_marginal_csv",
    "fock-3": "write_marginal_csv",
    "ensemble": "write_marginal_csv",
    "compare-perturbation": "write_table_csv",
    "compare-ensemble": "write_table_csv",
}


def _run(tmp_path, payload, out, code=0) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    return str(out)


def _fail_after(monkeypatch, writer: str, error=None) -> None:
    """Make ``writer`` write its file, then raise ``error``, by default as on a full disk."""
    original = getattr(cli, writer)

    def write_then_fail(*args, **kwargs):
        original(*args, **kwargs)
        raise error or OSError(28, "No space left on device")

    monkeypatch.setattr(cli, writer, write_then_fail)


@pytest.mark.parametrize("name", CONFIGS)
def test_every_method_reruns_byte_identical_with_a_complete_manifest(tmp_path, name):
    (tmp_path / "points.csv").write_text("q,p\n0.5,0.1\n-0.2,0.3\n")
    runs = [_run(tmp_path, CONFIGS[name], tmp_path / tag) for tag in ("a", "b")]
    a, b = (sorted(os.listdir(run)) for run in runs)
    assert a == b == sorted(["checks.json", "config.json", "manifest.json", *ARTIFACTS[name]])
    for file in a:
        if file != "manifest.json":
            with open(os.path.join(runs[0], file), "rb") as fa, \
                    open(os.path.join(runs[1], file), "rb") as fb:
                assert fa.read() == fb.read(), file
    listed = sorted(rec["path"] for rec in RunManifest.load(runs[0]).files)
    assert listed == [f for f in a if f != "manifest.json"]


@pytest.mark.parametrize("name", CONFIGS)
def test_a_failed_run_leaves_only_its_config_and_error_record(tmp_path, monkeypatch, name):
    (tmp_path / "points.csv").write_text("q,p\n0.5,0.1\n-0.2,0.3\n")
    _fail_after(monkeypatch, LATER_WRITER[name])
    run = _run(tmp_path, CONFIGS[name], tmp_path / "run", code=2)
    assert sorted(os.listdir(run)) == ["config.json", "error.json"]
    with open(os.path.join(run, "error.json"), encoding="utf-8") as fh:
        assert json.load(fh)["error"] == "OSError"


def test_an_interrupted_run_leaves_only_its_config_and_passes_the_interrupt_on(
        tmp_path, monkeypatch):
    _fail_after(monkeypatch, "write_marginal_csv", KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, CONFIGS["vlasov"], tmp_path / "run")
    assert os.listdir(tmp_path / "run") == ["config.json"]


def test_a_good_run_after_a_failed_one_leaves_no_error_record(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        _fail_after(patch, "write_marginal_csv")
        _run(tmp_path, CONFIGS["vlasov"], tmp_path / "run", code=2)
    run = _run(tmp_path, CONFIGS["vlasov"], tmp_path / "run")
    assert sorted(os.listdir(run)) == sorted(
        ["checks.json", "config.json", "manifest.json", *ARTIFACTS["vlasov"]])
    assert main(["report", run, "--out", str(tmp_path / "rep")]) == 0


def test_a_failed_run_after_a_good_one_leaves_no_manifest_and_fails_the_report(
        tmp_path, monkeypatch):
    run = _run(tmp_path, CONFIGS["fock"], tmp_path / "run")
    _fail_after(monkeypatch, "write_marginal_csv")
    _run(tmp_path, CONFIGS["fock"], run, code=2)
    assert sorted(os.listdir(run)) == ["config.json", "error.json"]
    out = str(tmp_path / "rep")
    assert main(["report", run, "--out", out]) == 3
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert not summary["all_passed"]
    assert summary["problems"] == [
        f"{run}: the run failed: OSError: [Errno 28] No space left on device"]


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """A finished perturbation comparison: manifest, checks and a residual table."""
    tmp = tmp_path_factory.mktemp("valid")
    run = _run(tmp, PERTURBATION_COMPARE, tmp / "run")
    assert build_report([run])["all_passed"]
    return run


def _copy(valid_run, tmp) -> str:
    run = os.path.join(tmp, "run")
    shutil.copytree(valid_run, run)
    return run


def _rehash(run: str, name: str) -> None:
    """Record the current bytes of ``name`` in the manifest, so only its content is wrong."""
    with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(run, name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    for rec in manifest["files"]:
        if rec["path"] == name:
            rec["sha256"] = digest
    with open(os.path.join(run, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def _list(run: str, name: str) -> None:
    """Add ``name`` to the manifest with the digest of its current bytes."""
    with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["files"].append({"path": name, "sha256": "", "bytes": 0})
    with open(os.path.join(run, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    _rehash(run, name)


def _manifest_with(valid_run, **changes) -> str:
    with open(os.path.join(valid_run, "manifest.json"), encoding="utf-8") as fh:
        return json.dumps(dict(json.load(fh), **changes))


NESTED = "[" * 100_000


@pytest.mark.parametrize("case", [
    "list", "files-number", "files-strings", "nested-manifest", "nested-checks",
    "absolute-path", "parent-path", "seeds-strings", "nested-check-value",
])
def test_report_lists_a_damaged_record_and_exits_3(valid_run, tmp_path, case):
    run = _copy(valid_run, tmp_path)
    record, text = {
        "list": ("manifest.json", "[]"),
        "files-number": ("manifest.json", _manifest_with(valid_run, files=5)),
        "files-strings": ("manifest.json", _manifest_with(valid_run, files=["f"])),
        "nested-manifest": ("manifest.json", NESTED),
        "nested-checks": ("checks.json", NESTED),
        "absolute-path": ("manifest.json", _manifest_with(
            valid_run, files=[{"path": os.path.abspath(__file__), "sha256": "0"}])),
        "parent-path": ("manifest.json", _manifest_with(
            valid_run, files=[{"path": "../run/checks.json", "sha256": "0"}])),
        "seeds-strings": ("manifest.json", _manifest_with(valid_run, seeds=["7"])),
        # parses, but is nested too deep to write back into summary.json
        "nested-check-value": ("checks.json",
                               '[{"name": "x", "value": ' + "[" * 990 + "]" * 990 + "}]"),
    }[case]
    with open(os.path.join(run, record), "w", encoding="utf-8") as fh:
        fh.write(text)
    if record == "checks.json":
        _rehash(run, record)
    out = str(tmp_path / "rep")
    assert main(["report", run, "--out", out]) == 3
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    problems = "\n".join(summary["problems"])
    if record == "manifest.json":
        assert summary["runs"][0]["manifest"] == "missing-or-corrupt"
        assert f"{run}: unreadable manifest" in problems
    else:
        assert "checks.json is unreadable or not a list" in problems
        assert "checksum" not in problems


def test_report_marks_a_listed_file_it_cannot_open_as_tampered(valid_run, tmp_path):
    run = _copy(valid_run, tmp_path)
    os.unlink(os.path.join(run, "config.json"))
    out = str(tmp_path / "rep")
    assert main(["report", run, "--out", out]) == 3
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["runs"][0]["tampered_files"] == ["config.json"]
    assert summary["problems"] == [f"{run}: checksum mismatch: config.json"]


def test_report_shows_a_file_name_that_is_not_utf8_escaped(valid_run, tmp_path):
    codes = []
    for name in (b"copy_table.csv", b"\xff_table.csv"):
        run = _copy(valid_run, tmp_path / name.hex())
        shutil.copyfile(os.path.join(run, "residual_table.csv"),
                        os.path.join(os.fsencode(run), name))
        _list(run, os.fsdecode(name))  # the report reads only the tables a manifest lists
        codes.append(main(["report", run, "--out", str(tmp_path / name.hex() / "rep")]))
    assert codes[1] == codes[0]
    summary = (tmp_path / "ff5f7461626c652e637376" / "rep" / "summary.txt").read_text("utf-8")
    assert "table \\udcff_table.csv:" in summary


def test_report_reads_only_the_tables_the_manifest_lists(valid_run, tmp_path):
    run = _copy(valid_run, tmp_path)
    with open(os.path.join(run, "stray_table.csv"), "w", encoding="utf-8") as fh:
        fh.write("not,a,table\n")
    out = str(tmp_path / "rep")
    assert main(["report", run, "--out", out]) == 0
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        assert list(json.load(fh)["runs"][0]["tables"]) == ["residual_table.csv"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=16,
)


@st.composite
def damaged(draw, original: bytes) -> bytes:
    """Arbitrary bytes, an arbitrary JSON document, or the original truncated
    and overwritten in a few places."""
    kind = draw(st.sampled_from(["bytes", "json", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    raw = bytearray(original[:draw(st.integers(0, len(original)))])
    for _ in range(draw(st.integers(0, 4)) if raw else 0):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_never_raises_on_arbitrary_record_bytes(valid_run, data):
    record = data.draw(st.sampled_from(["manifest.json", "checks.json", "residual_table.csv"]))
    with open(os.path.join(valid_run, record), "rb") as fh:
        original = fh.read()
    raw = data.draw(damaged(original))
    with tempfile.TemporaryDirectory() as tmp:
        run = _copy(valid_run, tmp)
        with open(os.path.join(run, record), "wb") as fh:
            fh.write(raw)
        try:
            RunManifest.load(run)
            readable = True
        except ValueError:
            readable = False
        code = main(["report", run, "--out", os.path.join(tmp, "rep")])
        with open(os.path.join(tmp, "rep", "summary.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    assert code == (0 if report["all_passed"] else 3)
    if record == "manifest.json":
        # the manifest carries no checksum of its own: only its shape is checked
        assert readable or (report["runs"][0]["manifest"] == "missing-or-corrupt"
                            and not report["all_passed"])
    elif raw != original:
        assert not report["all_passed"]
        assert any(f"checksum mismatch: {record}" in p for p in report["problems"])
