import hashlib
import os
import re
import struct
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from kvnsim.densities import GaussianDensity
from kvnsim.fileio import (
    _BLOCK_BYTES,
    RunManifest,
    _RowBlocks,
    atomic_write_bytes,
    read_field,
    read_fock_state,
    read_points_csv,
    sha256_of,
    write_field,
    write_fock_state,
    write_marginal_csv,
    write_points_csv,
    write_table_csv,
)
from kvnsim.fock import FockBasis, FockState
from kvnsim.perturbation import ConvergenceTable
from kvnsim.phase_space import DensityField, PhaseGrid, density_from_function, spatial_density


def test_field_round_trip_and_header_size(tmp_path):
    grid = PhaseGrid(-3, 3, -2, 2, 16, 8, periodic_q=True)
    field = density_from_function(grid, GaussianDensity(0, 0, 0.5, 0.4), warn=False)
    field.time = 0.75
    path = tmp_path / "field.kvnf"
    write_field(path, field)
    raw = path.read_bytes()
    assert raw[:4] == b"KVNF"
    assert len(raw) == 64 + 16 * 8 * 8  # fixed header plus row-major float64 payload

    back = read_field(path)
    assert back.grid == grid
    assert back.time == 0.75
    assert np.array_equal(back.values, field.values)


def test_field_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.kvnf"
    path.write_bytes(b"\x00" * 128)
    with pytest.raises(ValueError, match="density-field"):
        read_field(path)


def test_fock_state_round_trip(tmp_path):
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 4, 4, periodic_q=True, periodic_p=True)
    basis = FockBasis(n_modes=16, n_particles=2)
    rng = np.random.default_rng(0)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    state = FockState(basis, amp)
    path = tmp_path / "state.kvnq"
    write_fock_state(path, state, grid)
    back, back_grid = read_fock_state(path)
    assert back.basis.n_particles == 2 and back.basis.n_modes == 16
    assert back_grid == grid
    assert np.array_equal(back.amplitudes, amp)


def test_binary_writes_copy_no_payload(tmp_path):
    # the header and the array's own buffer are written one after the other;
    # tobytes() or joining them to the header would each be a payload-sized copy.
    # A transposed field, as the Vlasov solver lends its workspace, is written
    # in C order one row block at a time: its bytes are its C-ordered copy's
    grid = PhaseGrid(-4, 4, -4, 4, 256, 256)
    field = DensityField(grid, np.ones((256, 256)))
    values = np.random.default_rng(5).random((256, 256))
    transposed = DensityField(grid, np.ascontiguousarray(values.T).T)
    assert transposed.values.flags.f_contiguous and not transposed.values.flags.c_contiguous
    state = FockState(FockBasis(n_modes=256 * 256, n_particles=1), np.ones(256 * 256, complex))
    for write, payload_bytes in [(lambda path: write_field(path, field), field.values.nbytes),
                                 (lambda path: write_field(path, transposed), values.nbytes),
                                 (lambda path: write_fock_state(path, state, grid),
                                  state.amplitudes.nbytes)]:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write(tmp_path / "out.bin")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * payload_bytes
    write_field(tmp_path / "transposed.kvnf", transposed)
    write_field(tmp_path / "c_ordered.kvnf", DensityField(grid, values))
    assert (tmp_path / "transposed.kvnf").read_bytes() == (tmp_path / "c_ordered.kvnf").read_bytes()


def test_a_transposed_field_writes_the_marginal_of_its_c_ordered_copy(tmp_path):
    # a strided row sum adds in another order; the row blocks sum each row contiguously
    grid = PhaseGrid(-4, 4, -4, 4, 300, 256)
    values = np.random.default_rng(6).random((300, 256))
    write_marginal_csv(tmp_path / "c_ordered.csv", DensityField(grid, values))
    write_marginal_csv(tmp_path / "transposed.csv",
                       DensityField(grid, np.ascontiguousarray(values.T).T))
    assert (tmp_path / "transposed.csv").read_bytes() == (tmp_path / "c_ordered.csv").read_bytes()
    rows = [line.split(",") for line in (tmp_path / "c_ordered.csv").read_text().split()[1:]]
    assert [float(n) for _, n in rows] == list(spatial_density(DensityField(grid, values)))


def test_points_csv_round_trip(tmp_path):
    pts = np.array([[0.1, -0.2], [1.5, 2.5], [-3.25, 0.0]])
    path = tmp_path / "points.csv"
    write_points_csv(path, pts)
    back = read_points_csv(path)
    assert np.array_equal(back, pts)
    with pytest.raises(ValueError, match="columns"):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        read_points_csv(bad)


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2)])
def test_points_csv_refuses_points_that_are_not_q_p_rows(tmp_path, shape):
    with pytest.raises(ValueError, match=r"\(n, 2\) array of \(q, p\)"):
        write_points_csv(tmp_path / "pts.csv", np.zeros(shape))
    assert not (tmp_path / "pts.csv").exists()


def test_table_csv_footer(tmp_path):
    table = ConvergenceTable(parameter="strength", rows=((0.2, 1e-3), (0.1, 2.5e-4)))
    assert abs(table.fitted_order - 2.0) < 1e-12
    path = tmp_path / "residual_table.csv"
    write_table_csv(path, table)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "strength,linf_error"
    assert lines[-1].startswith("fitted_order,")
    assert float(lines[-1].split(",")[1]) == table.fitted_order


def test_table_ratios_and_order_skip_the_zero_parameter_row():
    # a zero strength is the discretization floor: neither the ratios nor the fit read it
    table = ConvergenceTable(parameter="strength",
                             rows=((0.2, 1e-3), (0.0, 5e-6), (0.1, 2.5e-4), (0.05, 1e-4)))
    assert table.ratios == [1e-3 / 2.5e-4, 2.5e-4 / 1e-4]
    assert table.fitted_order == ConvergenceTable(
        parameter="strength", rows=((0.2, 1e-3), (0.1, 2.5e-4), (0.05, 1e-4))).fitted_order


def test_atomic_write_uses_a_unique_temp_file(tmp_path):
    # a leftover at the old fixed temp name (here a directory) must not block the write
    path = tmp_path / "out.bin"
    (tmp_path / "out.bin.tmp").mkdir()
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"second"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]


def test_fock_files_refuse_a_basis_that_is_not_one_mode_per_grid_cell(tmp_path):
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 5, 4, periodic_q=True, periodic_p=True)
    basis = FockBasis(n_modes=16, n_particles=2)
    state = FockState(basis, np.ones(basis.dimension, dtype=complex))
    message = "16 modes does not match the 5 x 4 grid's 20 cells"
    with pytest.raises(ValueError, match=message):
        write_fock_state(tmp_path / "s.kvnq", state, grid)
    assert not list(tmp_path.iterdir())
    # a 4 x 4 file whose header is patched to n_q = 5 is refused on reading
    path = _valid_files(tmp_path)[read_fock_state]
    path.write_bytes(_patched(path.read_bytes(), "<I", 32, 5))
    with pytest.raises(ValueError, match=message):
        read_fock_state(path)


def test_manifest_round_trip_and_checksums(tmp_path):
    art = tmp_path / "data.csv"
    art.write_text("q,p\n0.0,1.0\n")
    manifest = RunManifest(config_sha256="abc", tool_version="0.1.0", wall_time_s=1.5,
                           seeds=[3])
    manifest.add_file(tmp_path, art)
    manifest.write(tmp_path)
    back = RunManifest.load(tmp_path)
    assert back.config_sha256 == "abc"
    assert back.seeds == [3]
    assert back.files[0]["path"] == "data.csv"
    assert back.files[0]["sha256"] == sha256_of(art)


@settings(max_examples=40, deadline=None)
@example(head=b"", filler=0, seed=0)
@given(head=st.binary(max_size=64),
       filler=st.sampled_from([0, (1 << 20) - 32, 1 << 20, (2 << 20) + 1]),
       seed=st.integers(0, 2**32 - 1))
def test_sha256_of_is_hashlib_sha256(head, filler, seed):
    # the files reach up to 32 bytes either side of the 1 MiB read chunk, and past two
    data = head + np.random.default_rng(seed).bytes(filler)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blob")
        atomic_write_bytes(path, data)
        assert sha256_of(path) == hashlib.sha256(data).hexdigest()


def test_sha256_of_falls_back_to_hashlib(tmp_path, monkeypatch):
    data = bytes(range(256)) * 4097  # crosses the 1 MiB read chunk
    (tmp_path / "blob").write_bytes(data)
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # the import raises ImportError
    assert sha256_of(tmp_path / "blob") == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("stand_in", [True, False], ids=["stand-in", "real"])
@pytest.mark.parametrize("taken, missing", [
    ("_sha2", ()),
    ("_sha256", ("_sha2",)),
    ("hashlib", ("_sha2", "_sha256")),
])
def test_sha256_of_takes_the_first_module_it_can_import(tmp_path, monkeypatch, taken, missing,
                                                        stand_in):
    """_sha2, then _sha256, then hashlib, on any interpreter: the stand-in for
    the module that should be taken is hashlib's sha256, counting its calls;
    without stand-ins the interpreter's own modules give hashlib's digest."""
    data = bytes(range(256)) * 4097  # crosses the 1 MiB read chunk
    (tmp_path / "blob").write_bytes(data)
    real, calls = hashlib.sha256, []

    def counted(*args):
        calls.append(taken)
        return real(*args)

    for name in missing:
        monkeypatch.setitem(sys.modules, name, None)  # the import raises ImportError
    if stand_in and taken == "hashlib":
        monkeypatch.setattr(hashlib, "sha256", counted)
    elif stand_in:
        module = types.ModuleType(taken)
        module.sha256 = counted
        monkeypatch.setitem(sys.modules, taken, module)
    assert sha256_of(tmp_path / "blob") == real(data).hexdigest()
    assert calls == ([taken] if stand_in else [])


def test_points_csv_skips_blank_lines_and_names_a_non_numeric_cell(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("q,p\n0,1\n\n2,3\n")
    assert np.array_equal(read_points_csv(path), [[0.0, 1.0], [2.0, 3.0]])
    path.write_text("q,p\n0,1\n\n0.5,x\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}, line 4: expected two finite numbers q,p, got '0.5,x'")):
        read_points_csv(path)


def _valid_files(tmp_path):
    """One small valid file per binary format, keyed by its reader."""
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 4, 4, periodic_q=True, periodic_p=True)
    basis = FockBasis(n_modes=16, n_particles=2)
    paths = {read_field: tmp_path / "f.kvnf", read_fock_state: tmp_path / "s.kvnq"}
    write_field(paths[read_field],
                density_from_function(grid, GaussianDensity(0, 0, 0.5, 0.4), warn=False))
    write_fock_state(paths[read_fock_state], FockState(basis, np.arange(136.0) + 1j), grid)
    return paths


READERS = [read_field, read_fock_state]


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
def test_binary_readers_refuse_short_truncated_and_oversized_files(tmp_path, reader):
    path = _valid_files(tmp_path)[reader]
    raw = path.read_bytes()
    reader(path)
    for bad in (raw[:20], raw[:-8], raw + b"\x00" * 64):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="not a version-1|payload bytes"):
            reader(path)


def _patched(raw: bytes, fmt: str, offset: int, value) -> bytes:
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def test_field_reader_refuses_wrong_dimensions(tmp_path):
    path = _valid_files(tmp_path)[read_field]
    raw = path.read_bytes()
    path.write_bytes(_patched(raw, "<I", 8, 8))            # n_q 4 -> 8
    with pytest.raises(ValueError, match="payload bytes"):
        read_field(path)


def test_fock_state_reader_refuses_wrong_dimensions(tmp_path):
    path = _valid_files(tmp_path)[read_fock_state]
    raw = path.read_bytes()
    # the payload matches the header dimension, which is not the sector's
    path.write_bytes(_patched(raw, "<Q", 16, 137) + b"\x00" * 16)
    with pytest.raises(ValueError, match="dimension 137 with 2 particles in 16 modes"):
        read_fock_state(path)
    path.write_bytes(_patched(raw, "<I", 8, 0))             # n_particles 0
    with pytest.raises(ValueError, match="with 0 particles"):
        read_fock_state(path)
    # a consistent header whose basis would hold ~2**32 integers
    huge = _patched(_patched(raw, "<I", 12, 1), "<I", 8, 2**32 - 1)
    path.write_bytes(_patched(huge, "<Q", 16, 1)[:76 + 16])
    with pytest.raises(ValueError, match="too large"):
        read_fock_state(path)
    path.write_bytes(_patched(raw, "<Q", 24, 1))            # the reserved field
    with pytest.raises(ValueError, match="reserved header field holds 1"):
        read_fock_state(path)


FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def grids(draw, max_n=7):
    q_min, p_min = draw(FINITE), draw(FINITE)
    return PhaseGrid(q_min, q_min + draw(st.floats(0.1, 50)), p_min,
                     p_min + draw(st.floats(0.1, 50)), draw(st.integers(4, max_n)),
                     draw(st.integers(4, max_n)), draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1),
       time=st.none() | st.floats(-1e6, 1e6, allow_nan=False))
def test_field_round_trip_property(grid, seed, time):
    values = np.random.default_rng(seed).exponential(size=(grid.n_q, grid.n_p))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.kvnf")
        write_field(path, DensityField(grid, values, time=time))
        back = read_field(path)
    assert back.grid == grid and back.time == time
    assert back.values.tobytes() == values.tobytes()


@settings(max_examples=60, deadline=None)
@given(grid=grids(max_n=5), n_particles=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_fock_state_and_operator_round_trip_property(grid, n_particles, seed):
    n_modes = grid.n_q * grid.n_p
    assume(FockBasis.sector_dimension(n_modes, n_particles) <= 1000)
    basis = FockBasis(n_modes=n_modes, n_particles=n_particles)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    with tempfile.TemporaryDirectory() as tmp:
        write_fock_state(os.path.join(tmp, "s.kvnq"), FockState(basis, amp), grid)
        state, state_grid = read_fock_state(os.path.join(tmp, "s.kvnq"))
    assert state_grid == grid and state.basis == basis
    assert state.amplitudes.tobytes() == amp.tobytes()


@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory):
    paths = _valid_files(tmp_path_factory.mktemp("valid"))
    return {reader: path.read_bytes() for reader, path in paths.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_binary_readers_raise_only_value_error_on_damaged_files(valid_bytes, data):
    """Truncate a valid file and/or overwrite bytes of its header and first records."""
    reader = data.draw(st.sampled_from(READERS), label="reader")
    raw = bytearray(valid_bytes[reader])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    for _ in range(data.draw(st.integers(0, 4)) if raw else 0):
        pos = data.draw(st.integers(0, min(len(raw), 160) - 1), label="position")
        raw[pos] = data.draw(st.integers(0, 255), label="byte")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        try:
            reader(path)
        except ValueError:
            pass


def test_row_blocks_stay_within_the_block_bytes_as_written():
    # a real Fock state is written as complex: each block is twice its source bytes
    values = np.arange(195_625, dtype=float)
    blocks = _RowBlocks(values, "<c16")
    assert max(block.nbytes for block in blocks) <= _BLOCK_BYTES
    assert len(blocks) == 16 * len(values) == sum(block.nbytes for block in blocks)
    assert b"".join(blocks) == values.astype("<c16").tobytes()
