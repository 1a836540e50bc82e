"""Self-tests of the benchmark: run with ``python3 -m pytest -q perfbench``."""

import json
import os
import sys

import pytest

import run
import tracing
from tracing import Span, Tracer, layer_metrics, self_times
from workloads import NAMES, WHY, make_config

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _tree(events):
    """Spans from (action, name, time) events replayed on a fake clock."""
    times = iter(t for _, _, t in events)
    tracer = Tracer(clock=lambda: next(times))
    open_spans = []
    for action, name, _ in events:
        if action == "open":
            open_spans.append(tracer.open(name))
        else:
            tracer.close(open_spans.pop())
    return tracer.spans


def test_self_time_subtracts_children():
    spans = _tree([
        ("open", "bench.run", 0.0),
        ("open", "cli.run_config", 1.0),
        ("open", "vlasov.vlasov_solve", 2.0),
        ("open", "vlasov.vlasov_step", 3.0),
        ("open", "phase_space.mean_field_force", 4.0),
        ("close", "", 4.5),
        ("close", "", 6.0),
        ("close", "", 7.0),
        ("open", "fileio.atomic_write_bytes", 8.0),
        ("close", "", 8.25),
        ("close", "", 9.0),
        ("close", "", 10.0),
    ])
    selfs = self_times(spans)
    assert [selfs[s.span_id] for s in spans] == [2.0, 2.75, 2.0, 2.5, 0.5, 0.25]
    m = layer_metrics(spans)
    assert m["cli.run_config_s"] == 8.0
    assert m["vlasov.solve_s"] == 5.0
    assert m["vlasov.self_s"] == 4.5
    assert m["phase_space.self_s"] == 0.5
    assert m["fileio.write_s"] == 0.25
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self + selfs[spans[0].span_id] == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, 1, "cli.run_config", 0.0, 10.0),
             Span(1, 0, 1, "fock.propagate", 1.0, 4.0),
             Span(2, 0, 1, "fock.embed_product_state", 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0


def test_nested_same_name_spans_are_counted_once():
    spans = _tree([
        ("open", "flow.flow_map_points", 0.0),
        ("open", "flow.flow_map_points", 1.0),
        ("close", "", 2.0),
        ("close", "", 3.0),
    ])
    m = layer_metrics(spans)
    assert m["flow.map_s"] == 3.0
    assert m["flow.map_calls"] == 2
    assert m["flow.self_s"] == 3.0


def test_install_wraps_every_binding_and_uninstall_restores():
    import kvnsim.cli as cli
    import kvnsim.ensemble as ensemble
    import kvnsim.fock as fock
    import kvnsim.vlasov as vlasov

    originals = (cli.vlasov_solve, vlasov.mean_field_force, fock.FockBasis.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.vlasov_solve is ensemble.vlasov_solve is vlasov.vlasov_solve
        assert cli.vlasov_solve is not originals[0]
        assert cli.FockBasis is fock.FockBasis
        assert fock.FockBasis.sector_dimension(16, 2) == 136
        basis = cli.FockBasis(n_modes=4, n_particles=2)
        assert isinstance(basis, fock.FockBasis) and basis.dimension == 10
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["fock.FockBasis"]
    assert (cli.vlasov_solve, vlasov.mean_field_force, fock.FockBasis.__init__) == originals


def test_workload_configs_are_seeded():
    for name in NAMES:
        assert make_config(name, 5) == make_config(name, 5)
        assert make_config(name, 5) != make_config(name, 6)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == WHY


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_tiny(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    problems = [p for r in result["runs"] for p in r["problems"]]
    assert problems == [] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    assert all(unit == units[key] for key, (_, unit, _) in result["metrics"].items())
