import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from kvnsim.densities import GaussianDensity
from kvnsim.fileio import (
    RunManifest,
    atomic_write_bytes,
    read_field,
    read_fock_operator,
    read_fock_state,
    read_points_csv,
    sha256_of,
    write_field,
    write_fock_operator,
    write_fock_state,
    write_points_csv,
    write_table_csv,
)
from kvnsim.fock import (
    EllMatrix,
    FockBasis,
    FockOperator,
    FockState,
    assemble_liouvillian,
    build_one_body,
    build_two_body,
)
from kvnsim.perturbation import ConvergenceTable
from kvnsim.phase_space import (
    DensityField,
    GaussianPair,
    HarmonicPotential,
    PhaseGrid,
    ProblemSpec,
    density_from_function,
)


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


def test_fock_operator_round_trip(tmp_path):
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 4, 4, periodic_q=True, periodic_p=True)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.2, width=0.9))
    basis = FockBasis(n_modes=16, n_particles=2)
    op = assemble_liouvillian(grid, spec, basis)
    path = tmp_path / "op.kvno"
    write_fock_operator(path, op, grid)
    back, _ = read_fock_operator(path)
    assert back.hermitian
    assert np.array_equal(back.matrix.idx, op.matrix.idx)
    assert np.array_equal(back.matrix.val, op.matrix.val)
    # L = iK is stored as records (+0.0, K)
    records = np.frombuffer(path.read_bytes()[76:], dtype=[("row", "<u8"), ("col", "<u8"),
                                                          ("re", "<f8"), ("im", "<f8")])
    assert records.tobytes() == np.sort(records, order=["row", "col"]).tobytes()
    assert not np.any(np.signbit(records["re"])) and not np.any(records["re"])
    assert len(records) == op.matrix.nnz


def test_fock_operator_reader_refuses_what_is_not_i_times_a_real_matrix(tmp_path):
    path = _valid_files(tmp_path)[read_fock_operator]
    raw = path.read_bytes()
    first, second = 76, 76 + 32          # the first two records
    for offset, fmt, value, message in [
        (first, "<Q", 136, "outside the 136 x 136 operator"),        # row == dim
        (second + 8, "<Q", 2**64 - 1, "outside the 136 x 136 operator"),  # col >= dim
        (second + 16, "<d", 0.5, "not i times a real matrix"),       # a real part
        (second + 16, "<d", np.nan, "not i times a real matrix"),
    ]:
        path.write_bytes(_patched(raw, fmt, offset, value))
        with pytest.raises(ValueError, match=message):
            read_fock_operator(path)
    # the second record repeats the (row, col) of the first
    duplicate = bytearray(raw)
    duplicate[second:second + 16] = raw[first:first + 16]
    path.write_bytes(bytes(duplicate))
    with pytest.raises(ValueError, match="recorded twice"):
        read_fock_operator(path)


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
    op = FockOperator(basis, EllMatrix.from_coo(np.array([0]), np.array([1]), np.array([1.0]),
                                                basis.dimension))
    message = "16 modes does not match the 5 x 4 grid's 20 cells"
    with pytest.raises(ValueError, match=message):
        write_fock_state(tmp_path / "s.kvnq", state, grid)
    with pytest.raises(ValueError, match=message):
        write_fock_operator(tmp_path / "o.kvno", op, grid)
    assert not list(tmp_path.iterdir())
    # a 4 x 4 file whose header is patched to n_q = 5 is refused on reading
    for reader, path in _valid_files(tmp_path).items():
        if reader is not read_field:
            path.write_bytes(_patched(path.read_bytes(), "<I", 32, 5))
            with pytest.raises(ValueError, match=message):
                reader(path)


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


def _valid_files(tmp_path):
    """One small valid file per binary format, keyed by its reader."""
    grid = PhaseGrid(-np.pi, np.pi, -np.pi, np.pi, 4, 4, periodic_q=True, periodic_p=True)
    spec = ProblemSpec(external=HarmonicPotential(omega=1.0),
                       pair=GaussianPair(strength=0.2, width=0.9))
    basis = FockBasis(n_modes=16, n_particles=2)
    paths = {read_field: tmp_path / "f.kvnf", read_fock_state: tmp_path / "s.kvnq",
             read_fock_operator: tmp_path / "o.kvno"}
    write_field(paths[read_field],
                density_from_function(grid, GaussianDensity(0, 0, 0.5, 0.4), warn=False))
    write_fock_state(paths[read_fock_state], FockState(basis, np.arange(136.0) + 1j), grid)
    write_fock_operator(paths[read_fock_operator],
                        assemble_liouvillian(grid, spec, basis), grid)
    return paths


READERS = [read_field, read_fock_state, read_fock_operator]


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


def test_fock_operator_reader_refuses_wrong_dimensions(tmp_path):
    path = _valid_files(tmp_path)[read_fock_operator]
    raw = path.read_bytes()
    path.write_bytes(_patched(raw, "<Q", 16, 135))
    with pytest.raises(ValueError, match="dimension 135 with 2 particles"):
        read_fock_operator(path)
    # modes and particles far too large to enumerate, with a made-up dimension
    huge = _patched(_patched(raw, "<I", 8, 2**31), "<I", 12, 2**31)
    path.write_bytes(_patched(huge, "<Q", 16, 2**63))
    with pytest.raises(ValueError, match="not a sector"):
        read_fock_operator(path)


def test_fock_operator_reader_refuses_rows_too_wide_to_pad(tmp_path):
    # one full row of a 4097-state sector would pad the operator to 4097 x 4097 slots
    path = _valid_files(tmp_path)[read_fock_operator]
    header = bytearray(path.read_bytes()[:76])
    struct.pack_into("<IIQQ", header, 8, 1, 4097, 4097, 4097)   # N, M, dim, nnz
    records = np.zeros(4097, dtype=[("row", "<u8"), ("col", "<u8"), ("re", "<f8"), ("im", "<f8")])
    records["col"], records["im"] = np.arange(4097), 1.0
    path.write_bytes(bytes(header) + records.tobytes())
    with pytest.raises(ValueError, match="too wide"):
        read_fock_operator(path)


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
@given(grid=grids(max_n=5), n_particles=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), antisymmetric=st.booleans())
def test_fock_state_and_operator_round_trip_property(grid, n_particles, seed, antisymmetric):
    n_modes = grid.n_q * grid.n_p
    assume(FockBasis.sector_dimension(n_modes, n_particles) <= 1000)
    basis = FockBasis(n_modes=n_modes, n_particles=n_particles)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    shape = (basis.dimension, basis.dimension)
    dense = np.where(rng.random(shape) < 0.1, rng.normal(size=shape), 0.0)
    if antisymmetric:
        dense -= dense.T
    row, col = np.nonzero(dense)
    op = FockOperator(basis, EllMatrix.from_coo(row, col, dense[row, col], basis.dimension))
    with tempfile.TemporaryDirectory() as tmp:
        write_fock_state(os.path.join(tmp, "s.kvnq"), FockState(basis, amp), grid)
        write_fock_operator(os.path.join(tmp, "o.kvno"), op, grid)
        state, state_grid = read_fock_state(os.path.join(tmp, "s.kvnq"))
        back, op_grid = read_fock_operator(os.path.join(tmp, "o.kvno"))
    assert state_grid == op_grid == grid
    assert (state.basis, back.basis) == (basis, basis)
    assert state.amplitudes.tobytes() == amp.tobytes()
    assert back.hermitian == op.hermitian == (antisymmetric or not dense.any())
    for name in ("idx", "val"):
        assert np.array_equal(getattr(back.matrix, name), getattr(op.matrix, name))


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
