"""The one writer and one reader of every run record: binary fields and Fock
states, CSV artifacts and tables, canonical JSON, checksums and the manifest.

Density-field binary format (extension ``.kvnf``), little-endian throughout:

    offset  size  field
    0       4     magic b"KVNF"
    4       4     format version (uint32; currently 1)
    8       4     n_q (uint32)
    12      4     n_p (uint32)
    16      1     periodic_q (uint8)
    17      1     periodic_p (uint8)
    18      2     zero padding
    20      32    q_min, q_max, p_min, p_max (4 x float64)
    52      8     snapshot time (float64; NaN when unset)
    60      4     zero padding (header is exactly 64 bytes)
    64      -     values, n_q * n_p float64, row-major (q-major)

Fock-state binary format (extension ``.kvnq``): a 76-byte header

    magic b"KVNQ", version (uint32), n_particles (uint32), n_modes (uint32),
    dimension (uint64), reserved (uint64; always 0),
    grid descriptor as above (n_q, n_p, flags, padding, bounds)

followed by float64 (re, im) pairs, one per amplitude.  The file's mode count
is the n_q * n_p of its grid descriptor.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .flow import _point_rows
from .fock import FockBasis, FockState
from .phase_space import DensityField, PhaseGrid, spatial_density

__all__ = [
    "write_field",
    "read_field",
    "write_fock_state",
    "read_fock_state",
    "write_points_csv",
    "read_points_csv",
    "write_trajectory_csv",
    "write_marginal_csv",
    "write_table_csv",
    "read_table_csv",
    "canonical_json",
    "write_json",
    "read_json",
    "sha256_of",
    "atomic_write_bytes",
    "RunManifest",
]

_FIELD_MAGIC = b"KVNF"
_STATE_MAGIC = b"KVNQ"
_VERSION = 1

_FIELD_HEADER = struct.Struct("<4sI" + "IIBBxx4d" + "d4x")  # 64 bytes
_FOCK_HEADER = struct.Struct("<4sIIIQQ" + "IIBBxx4d")       # 76 bytes
_MAX_BASIS_ENTRIES = 1 << 24


def _grid_tuple(grid: PhaseGrid):
    return (grid.n_q, grid.n_p, int(grid.periodic_q), int(grid.periodic_p),
            grid.q_min, grid.q_max, grid.p_min, grid.p_max)


def _grid_from_tuple(t) -> PhaseGrid:
    n_q, n_p, per_q, per_p, q_min, q_max, p_min, p_max = t
    return PhaseGrid(q_min, q_max, p_min, p_max, int(n_q), int(n_p),
                     bool(per_q), bool(per_p))


def _read(path, header: struct.Struct, magic: bytes, what: str, payload_bytes):
    """Header fields after magic and version, and a payload of exactly payload_bytes(*fields)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size or raw[:8] != struct.pack("<4sI", magic, _VERSION):
        raise ValueError(f"{path}: not a version-{_VERSION} {what} file ({len(raw)} bytes)")
    fields = header.unpack_from(raw, 0)[2:]
    payload = memoryview(raw)[header.size:]
    if len(payload) != payload_bytes(*fields):
        raise ValueError(f"{path}: {len(payload)} payload bytes, "
                         f"the header implies {payload_bytes(*fields)}")
    return fields, payload


def _check_modes(path, n_modes: int, grid: PhaseGrid) -> None:
    if n_modes != grid.n_q * grid.n_p:
        raise ValueError(f"{path}: a basis of {n_modes} modes does not match the "
                         f"{grid.n_q} x {grid.n_p} grid's {grid.n_q * grid.n_p} cells")


def _raw(values: np.ndarray, dtype) -> np.ndarray:
    """The bytes of values stored as dtype in C order, one byte per element:
    a view when they are already so stored, so a write copies nothing."""
    return np.ascontiguousarray(values, dtype=dtype).reshape(-1).view(np.uint8)


def write_field(path, density: DensityField) -> None:
    grid = density.grid
    t = np.nan if density.time is None else float(density.time)
    header = _FIELD_HEADER.pack(_FIELD_MAGIC, _VERSION, *_grid_tuple(grid), t)
    atomic_write_bytes(path, _raw(density.values, "<f8"), header=header)


def read_field(path) -> DensityField:
    fields, payload = _read(path, _FIELD_HEADER, _FIELD_MAGIC, "density-field",
                            lambda n_q, n_p, *_: 8 * n_q * n_p)
    grid = _grid_from_tuple(fields[:8])
    t = fields[8]
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.n_q, grid.n_p).astype(float)
    return DensityField(grid, values, time=None if np.isnan(t) else float(t))


def write_fock_state(path, state: FockState, grid: PhaseGrid) -> None:
    basis = state.basis
    _check_modes(path, basis.n_modes, grid)
    header = _FOCK_HEADER.pack(_STATE_MAGIC, _VERSION, basis.n_particles,
                               basis.n_modes, basis.dimension, 0, *_grid_tuple(grid))
    atomic_write_bytes(path, _raw(state.amplitudes, "<c16"), header=header)


def read_fock_state(path) -> tuple[FockState, PhaseGrid]:
    """Refuses a nonzero reserved field, a header dimension that is not the
    sector's or whose basis would exceed _MAX_BASIS_ENTRIES integers, and a
    mode count that is not the grid's."""
    (n_particles, n_modes, dim, reserved, *g), payload = _read(
        path, _FOCK_HEADER, _STATE_MAGIC, "state", lambda n, m, dim, *_: 16 * dim)
    if reserved:
        raise ValueError(f"{path}: the reserved header field holds {reserved}, not 0")
    grid = _grid_from_tuple(g)
    if not (n_modes >= 1 and n_particles >= 1
            and (dim + n_modes) * n_particles <= _MAX_BASIS_ENTRIES
            and dim == FockBasis.sector_dimension(n_modes, n_particles)):
        raise ValueError(f"{path}: header dimension {dim} with {n_particles} particles in "
                         f"{n_modes} modes is not a sector, or too large to read")
    _check_modes(path, n_modes, grid)
    basis = FockBasis(n_modes=n_modes, n_particles=n_particles)
    return FockState(basis, np.frombuffer(payload, dtype="<c16").copy()), grid


# --------------------------------------------------------------------------
# CSV artifacts
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header: str, rows, *footer: str) -> None:
    """A header line, one line per row of floats, then the footer lines."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows), *footer]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_points_csv(path, points: np.ndarray) -> None:
    _write_csv(path, "q,p", _point_rows(points))


def read_points_csv(path) -> np.ndarray:
    """The (n, 2) points of a q,p file: at least one row, each two finite numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if [c.strip() for c in header] != ["q", "p"]:
            raise ValueError(f"{path}: expected columns q,p")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(cell) for cell in line.split(",")]
            except ValueError:
                row = []
            if len(row) != 2 or not np.all(np.isfinite(row)):
                raise ValueError(f"{path}, line {line_no}: expected two finite numbers q,p, "
                                 f"got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no points")
    return np.array(rows)


def write_trajectory_csv(path, times: np.ndarray, trajectory: np.ndarray) -> None:
    """Trajectory rows (t, q, p), time-major; particle order is stable inside
    each time block."""
    _write_csv(path, "t,q,p",
               ((t, q, p) for t, snap in zip(times, trajectory) for q, p in snap))


def write_marginal_csv(path, density: DensityField) -> None:
    _write_csv(path, "q,n", zip(density.grid.q_centers, spatial_density(density)))


def write_table_csv(path, table) -> None:
    """Convergence table as CSV with the fitted order in a footer row."""
    column = "linf_error" if table.parameter == "strength" else "l1_distance"
    _write_csv(path, f"{table.parameter},{column}", table.rows,
               f"fitted_order,{_fmt(table.fitted_order)}")


def read_table_csv(path) -> dict:
    """Rows and fitted order of a ``*_table.csv``; ValueError if it does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()][1:]
    if any(len(row) != 2 for row in rows):
        raise ValueError("a row does not have exactly 2 columns")
    footer = [float(b) for a, b in rows if a == "fitted_order"]
    return {"rows": [[float(a), float(b)] for a, b in rows if a != "fitted_order"],
            "fitted_order": footer[0] if footer else None}


# --------------------------------------------------------------------------
# JSON records, checksums, atomic writes, manifests
# --------------------------------------------------------------------------

def sha256_of(path) -> str:
    """The file's SHA-256 hex digest from CPython's own implementation, the one
    ``hashlib`` falls back to without OpenSSL, so a digest maps no OpenSSL;
    ``hashlib`` is used only by an interpreter that has neither module."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path, data, header: bytes = b"") -> None:
    """Write header, then data (bytes or any buffer), via a uniquely named
    temp file beside ``path``, then rename it; the two are written one after
    the other, never joined into one copy."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def canonical_json(payload) -> str:
    """The one JSON serialization: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    atomic_write_bytes(path, canonical_json(payload).encode("utf-8"))


def read_json(path):
    """The JSON document at ``path``; past opening it, only ValueError on damage."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _inside_run(rec) -> bool:
    """A manifest ``files`` entry: string sha256 and a relative path that stays in the run."""
    path = rec.get("path") if isinstance(rec, dict) else None
    return (isinstance(path, str) and isinstance(rec.get("sha256"), str) and "\0" not in path
            and not os.path.isabs(path) and os.path.normpath(path).split(os.sep)[0] != os.pardir)


@dataclass
class RunManifest:
    """What a run produced: config hash, versions, seeds, files + checksums."""

    config_sha256: str
    tool_version: str
    wall_time_s: float
    seeds: list[int] = field(default_factory=list)
    rng: str = "numpy PCG64"
    numpy_version: str = np.__version__
    files: list[dict] = field(default_factory=list)

    def add_file(self, run_dir, path) -> None:
        rel = os.path.relpath(path, run_dir)
        self.files.append({
            "path": rel,
            "sha256": sha256_of(path),
            "bytes": os.path.getsize(path),
        })

    def write(self, run_dir) -> None:
        write_json(os.path.join(run_dir, "manifest.json"), asdict(self))

    @staticmethod
    def load(run_dir) -> "RunManifest":
        """The manifest of ``run_dir``; ValueError unless it has the shape ``write`` gives it."""
        path = os.path.join(run_dir, "manifest.json")
        payload = read_json(path)
        try:
            m = RunManifest(**payload)
        except TypeError:
            raise ValueError(f"{path}: not an object with the fields of a manifest") from None
        if not (isinstance(m.config_sha256, str) and isinstance(m.tool_version, str)
                and type(m.wall_time_s) in (int, float)
                and isinstance(m.seeds, list) and all(type(s) is int for s in m.seeds)
                and isinstance(m.files, list) and all(map(_inside_run, m.files))):
            raise ValueError(f"{path}: a field has the wrong type, or a listed path "
                             "leaves the run directory")
        return m
