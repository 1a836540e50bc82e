"""Span tracing around calls into kvnsim's layer modules, and the per-layer
metrics derived from the spans.

The tracer is installed from the benchmark's own files: it wraps every
public function of each layer module at every place it is bound (including
``from .x import y`` bindings in other kvnsim modules), and wraps the
``__init__`` of every public class in place, so the class object itself (and
``FockBasis.sector_dimension``, ``isinstance`` checks) stays untouched.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import wraps

LAYERS = ("cli", "config", "phase_space", "vlasov", "perturbation", "flow", "fock",
          "ensemble", "fileio")

# Every per-layer metric with its unit; BENCHMARK.json lists the same names.
METRIC_UNITS = {
    "cli.import_s": "s",
    "cli.run_config_s": "s",
    "config.parse_s": "s",
    "phase_space.density_init_s": "s",
    "phase_space.mean_field_s": "s",
    "phase_space.mean_field_calls": "count",
    "vlasov.solve_s": "s",
    "vlasov.step_s.p50": "s",
    "vlasov.step_s.p90": "s",
    "vlasov.steps": "count",
    "vlasov.cell_updates_per_s": "1/s",
    "vlasov.bytes_moved_computed": "B",
    "vlasov.clip_ratio": "ratio",
    "perturbation.density_s": "s",
    "perturbation.transport_s": "s",
    "perturbation.source_s": "s",
    "perturbation.correction_s": "s",
    "perturbation.source_calls": "count",
    "perturbation.pair_kernel_evals": "count",
    "flow.map_s": "s",
    "flow.map_calls": "count",
    "flow.points_flowed": "count",
    "fock.basis_s": "s",
    "fock.generators_s": "s",
    "fock.assemble_s": "s",
    "fock.embed_s": "s",
    "fock.propagate_s": "s",
    "fock.density_s": "s",
    "fock.dim": "count",
    "fock.nnz": "count",
    "fock.hermiticity_dev": "abs",
    "ensemble.sample_s": "s",
    "ensemble.integrate_s": "s",
    "ensemble.force_evals": "count",
    "ensemble.pair_interactions_per_s": "1/s",
    "ensemble.histogram_s": "s",
    "fileio.write_s": "s",
    "fileio.write_calls": "count",
    "fileio.bytes_written": "B",
    "fileio.hash_s": "s",
    "fileio.bytes_hashed": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.trace_overhead_s": "s",
}

# Three spline sweeps per step, each reading and writing every cell as float64.
VLASOV_BYTES_PER_CELL_UPDATE = 3 * 2 * 8


@dataclass
class Span:
    span_id: int
    parent: int | None
    run_id: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_vlasov_step(fn, args, kwargs, result) -> dict:
    rho = _bound(fn, args, kwargs)["rho"]
    return {"cells": int(rho.values.size), "clipped": int(result.clip_count - rho.clip_count)}


def _count_source(fn, args, kwargs, result) -> dict:
    settings = _bound(fn, args, kwargs)["settings"]
    return {"pair_kernel_evals": int(len(result)) * int(settings.aux_grid.n_q)}


def _count_flow(fn, args, kwargs, result) -> dict:
    points = _bound(fn, args, kwargs)["points"]
    return {"points": int(len(points)) if getattr(points, "ndim", 1) == 2 else 1}


def _count_assemble(fn, args, kwargs, result) -> dict:
    return {"dim": int(result.basis.dimension), "nnz": int(result.matrix.nnz)}


def _count_nbody(fn, args, kwargs, result) -> dict:
    bound = _bound(fn, args, kwargs)
    n = int(len(result))
    force_evals = int(round(bound["T"] / bound["settings"].dt)) + 1
    return {"force_evals": force_evals, "pair_interactions": force_evals * n * n}


def _count_write(fn, args, kwargs, result) -> dict:
    return {"bytes": len(_bound(fn, args, kwargs)["data"])}


def _count_hash(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


COUNTERS = {
    "vlasov.vlasov_step": _count_vlasov_step,
    "perturbation.interaction_source_points": _count_source,
    "flow.flow_map_points": _count_flow,
    "fock.assemble_liouvillian": _count_assemble,
    "ensemble.integrate_nbody": _count_nbody,
    "fileio.atomic_write_bytes": _count_write,
    "fileio.sha256_of": _count_hash,
}


class Tracer:
    """Records nested spans in memory; ``install`` wraps the layer modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.run_id, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.attrs.update(counter(fn, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and class constructors of every layer."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"kvnsim.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)):
                    init = vars(obj)["__init__"]
                    self._undo.append((obj, "__init__", init))
                    setattr(obj, "__init__", self.wrap(f"{layer}.{attr}", init))
        for modname, module in list(sys.modules.items()):
            if modname != "kvnsim" and not modname.startswith("kvnsim."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that are not nested in another span of that name."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], fock_hermiticity_dev: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one traced run (spans of a single run id).

    Times named ``*_s`` are inclusive totals over the outermost spans of the
    named functions; ``<layer>.self_s`` sums the self time of every span of
    that layer, so the self times of all layers plus ``bench`` add up to the
    traced run.  Layers a workload does not call report 0.
    """

    def total(*names):
        return sum(s.duration for n in names for s in _outermost(spans, n))

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    steps = named("vlasov.vlasov_step")
    step_times = sorted(s.duration for s in steps)
    step_total = sum(step_times)
    cells = attr_sum("vlasov.vlasov_step", "cells")
    integrate_s = total("ensemble.integrate_nbody")
    assembled = named("fock.assemble_liouvillian")
    selfs = self_times(spans)
    m = {
        "cli.run_config_s": total("cli.run_config"),
        "config.parse_s": total("config.parse_config"),
        "phase_space.density_init_s": total("phase_space.density_from_function"),
        "phase_space.mean_field_s": total("phase_space.mean_field_force"),
        "phase_space.mean_field_calls": len(named("phase_space.mean_field_force")),
        "vlasov.solve_s": total("vlasov.vlasov_solve"),
        "vlasov.step_s.p50": statistics.median(step_times) if steps else 0.0,
        "vlasov.step_s.p90": _p90(step_times),
        "vlasov.steps": len(steps),
        "vlasov.cell_updates_per_s": cells / step_total if step_total > 0 else 0.0,
        "vlasov.bytes_moved_computed": cells * VLASOV_BYTES_PER_CELL_UPDATE,
        "vlasov.clip_ratio": attr_sum("vlasov.vlasov_step", "clipped") / cells if cells else 0.0,
        "perturbation.density_s": total("perturbation.perturbative_density"),
        "perturbation.transport_s": total("perturbation.transported_density_points"),
        "perturbation.source_s": total("perturbation.interaction_source_points"),
        "perturbation.correction_s": total("perturbation.first_order_correction_points"),
        "perturbation.source_calls": len(named("perturbation.interaction_source_points")),
        "perturbation.pair_kernel_evals": attr_sum("perturbation.interaction_source_points",
                                                   "pair_kernel_evals"),
        "flow.map_s": total("flow.flow_map_points"),
        "flow.map_calls": len(named("flow.flow_map_points")),
        "flow.points_flowed": attr_sum("flow.flow_map_points", "points"),
        "fock.basis_s": total("fock.FockBasis"),
        "fock.generators_s": total("fock.build_one_body", "fock.build_two_body"),
        "fock.assemble_s": total("fock.assemble_liouvillian"),
        "fock.embed_s": total("fock.embed_product_state"),
        "fock.propagate_s": total("fock.propagate"),
        "fock.density_s": total("fock.density_expectation"),
        "fock.dim": max((s.attrs["dim"] for s in assembled), default=0),
        "fock.nnz": max((s.attrs["nnz"] for s in assembled), default=0),
        "fock.hermiticity_dev": fock_hermiticity_dev,
        "ensemble.sample_s": total("ensemble.sample_initial"),
        "ensemble.integrate_s": integrate_s,
        "ensemble.force_evals": attr_sum("ensemble.integrate_nbody", "force_evals"),
        "ensemble.pair_interactions_per_s": (
            attr_sum("ensemble.integrate_nbody", "pair_interactions") / integrate_s
            if integrate_s > 0 else 0.0),
        "ensemble.histogram_s": total("ensemble.histogram_density"),
        "fileio.write_s": total("fileio.atomic_write_bytes"),
        "fileio.write_calls": len(named("fileio.atomic_write_bytes")),
        "fileio.bytes_written": attr_sum("fileio.atomic_write_bytes", "bytes"),
        "fileio.hash_s": total("fileio.sha256_of"),
        "fileio.bytes_hashed": attr_sum("fileio.sha256_of", "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.span_id] for s in spans if s.layer == layer)
    return m


def _p90(sorted_values: list[float]) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10)[-1]
