import dataclasses
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcs import recon, sensing
from pcs.sensing import (
    BlockDiagOperator,
    Layout,
    MeasurementSet,
    SeededSensingEnsemble,
    acquire_bands_3d,
    acquire_rows_2d,
    acquire_spectral_rows_3d,
    draw_sensing_matrix,
    load_measurements,
    save_measurements,
)
from pcs.signals import Cube3D, Image2D

from oracles import dense_block_diag

dims = st.integers(1, 5)


@st.composite
def layouts_and_shapes(draw):
    layout = draw(st.sampled_from(list(Layout)))
    shape = (draw(dims), draw(dims)) if layout == Layout.ROWS_2D else (draw(dims), draw(dims), draw(dims))
    return layout, shape


# the axis each layout slices along
SLICE_AXIS = {Layout.ROWS_2D: 0, Layout.BANDS_3D: 2, Layout.SPECTRAL_ROWS_3D: 0}


def slice_count_and_length(layout, shape):
    if layout == Layout.ROWS_2D:
        return shape
    rows, cols, bands = shape
    return (bands, rows * cols) if layout == Layout.BANDS_3D else (rows, cols * bands)


class TestDrawSensingMatrix:
    def test_deterministic(self):
        ens = SeededSensingEnsemble(master_seed=7, num_slices=5, m=4, n=9)
        a = draw_sensing_matrix(ens, 3)
        b = draw_sensing_matrix(SeededSensingEnsemble(7, 5, 4, 9), 3)
        assert np.array_equal(a, b)

    def test_slices_differ(self):
        ens = SeededSensingEnsemble(master_seed=7, num_slices=5, m=4, n=9)
        assert not np.array_equal(draw_sensing_matrix(ens, 0), draw_sensing_matrix(ens, 1))

    def test_seed_sensitivity(self):
        a = draw_sensing_matrix(SeededSensingEnsemble(0, 1, 2, 2, non_compressive=True), 0)
        b = draw_sensing_matrix(SeededSensingEnsemble(1, 1, 2, 2, non_compressive=True), 0)
        assert np.any(a != b)

    def test_gaussian_statistics(self):
        # entries ~ N(0, 1/m); bounds from the ensemble invariant
        m, n = 128, 512
        phi = draw_sensing_matrix(SeededSensingEnsemble(42, 1, m, n), 0)
        assert abs(phi.mean()) < 4.0 * np.sqrt(1.0 / (m * n * m))
        assert 0.9 / m < phi.var() < 1.1 / m

    def test_index_range(self):
        ens = SeededSensingEnsemble(master_seed=1, num_slices=3, m=2, n=5)
        with pytest.raises(IndexError):
            draw_sensing_matrix(ens, 3)
        with pytest.raises(IndexError):
            draw_sensing_matrix(ens, -1)

    def test_shared_matrix_mode(self):
        ens = SeededSensingEnsemble(master_seed=3, num_slices=4, m=2, n=6, shared_matrix=True)
        assert np.array_equal(draw_sensing_matrix(ens, 0), draw_sensing_matrix(ens, 3))

    def test_compression_required_unless_flagged(self):
        with pytest.raises(ValueError):
            SeededSensingEnsemble(master_seed=0, num_slices=1, m=8, n=8)
        SeededSensingEnsemble(master_seed=0, num_slices=1, m=8, n=8, non_compressive=True)


class TestAcquireRows2D:
    def test_zero_image(self):
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        assert np.array_equal(ms.y, np.zeros((4, 3)))
        assert ms.layout == Layout.ROWS_2D

    def test_one_hot_picks_matrix_column(self):
        ens = SeededSensingEnsemble(5, 4, 3, 8)
        x = np.zeros((4, 8))
        x[2, 6] = 1.0
        ms = acquire_rows_2d(Image2D(x), ens)
        np.testing.assert_allclose(ms.y[2], draw_sensing_matrix(ens, 2)[:, 6], atol=1e-15)
        assert np.all(ms.y[[0, 1, 3]] == 0)

    def test_square_system_recovers_exactly(self):
        # m = n: direct linear solve per row is an exact oracle
        rng = np.random.default_rng(11)
        x = rng.random((8, 16))
        ens = SeededSensingEnsemble(9, 8, 16, 16, non_compressive=True)
        ms = acquire_rows_2d(Image2D(x), ens)
        rec = np.vstack(
            [np.linalg.solve(draw_sensing_matrix(ens, i), ms.y[i]) for i in range(8)]
        )
        assert np.abs(rec - x).max() < 1e-8

    def test_shape_mismatch(self):
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        with pytest.raises(ValueError):
            acquire_rows_2d(Image2D(np.zeros((4, 9))), ens)


class TestAcquireBands3D:
    def test_single_nonzero_band(self):
        ens = SeededSensingEnsemble(1, 3, 4, 8)
        f = np.zeros((2, 4, 3))
        f[:, :, 1] = 1.0
        ms = acquire_bands_3d(Cube3D(f), ens)
        assert np.all(ms.y[0] == 0) and np.all(ms.y[2] == 0)
        assert np.any(ms.y[1] != 0)

    def test_vect_is_column_major(self):
        # single 1 at (row 2, col 1) in 1-indexed terms -> stacked index n_row*0+2
        n_row, n_col = 3, 4
        ens = SeededSensingEnsemble(2, 1, 5, n_row * n_col)
        f = np.zeros((n_row, n_col, 1))
        f[1, 0, 0] = 1.0
        ms = acquire_bands_3d(Cube3D(f), ens)
        np.testing.assert_allclose(ms.y[0], draw_sensing_matrix(ens, 0)[:, 1], atol=1e-15)

    def test_square_system_recovers_cube(self):
        rng = np.random.default_rng(3)
        f = rng.random((4, 4, 2))
        ens = SeededSensingEnsemble(8, 2, 16, 16, non_compressive=True)
        ms = acquire_bands_3d(Cube3D(f), ens)
        for i in range(2):
            v = np.linalg.solve(draw_sensing_matrix(ens, i), ms.y[i])
            np.testing.assert_allclose(v.reshape(4, 4, order="F"), f[:, :, i], atol=1e-10)

    def test_shape_mismatch(self):
        ens = SeededSensingEnsemble(0, 3, 4, 8)
        with pytest.raises(ValueError):
            acquire_bands_3d(Cube3D(np.zeros((2, 4, 4))), ens)


class TestAcquireSpectralRows3D:
    def test_zero_cube(self):
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_spectral_rows_3d(Cube3D(np.zeros((4, 2, 4))), ens)
        assert np.all(ms.y == 0)
        assert ms.layout == Layout.SPECTRAL_ROWS_3D

    def test_constant_rows_distinct_seeds_give_distinct_measurements(self):
        cube = np.tile(np.random.default_rng(0).random((1, 2, 4)), (4, 1, 1))
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_spectral_rows_3d(Cube3D(cube), ens)
        assert not np.allclose(ms.y[0], ms.y[1])
        shared = SeededSensingEnsemble(0, 4, 3, 8, shared_matrix=True)
        ms2 = acquire_spectral_rows_3d(Cube3D(cube), shared)
        np.testing.assert_allclose(ms2.y[0], ms2.y[1], atol=1e-15)

    def test_square_system_recovers(self):
        rng = np.random.default_rng(13)
        f = rng.random((4, 4, 4))
        ens = SeededSensingEnsemble(21, 4, 16, 16, non_compressive=True)
        ms = acquire_spectral_rows_3d(Cube3D(f), ens)
        for i in range(4):
            v = np.linalg.solve(draw_sensing_matrix(ens, i), ms.y[i])
            np.testing.assert_allclose(v.reshape(4, 4, order="F"), f[i, :, :], atol=1e-10)


@pytest.mark.parametrize("layout", list(Layout))
def test_acquisition_is_linear(layout):
    rng = np.random.default_rng(17)
    if layout == Layout.ROWS_2D:
        shape, ens = (5, 8), SeededSensingEnsemble(1, 5, 3, 8)
        acquire = lambda arr: acquire_rows_2d(Image2D(arr), ens).y
    elif layout == Layout.BANDS_3D:
        shape, ens = (4, 2, 3), SeededSensingEnsemble(1, 3, 3, 8)
        acquire = lambda arr: acquire_bands_3d(Cube3D(arr), ens).y
    else:
        shape, ens = (3, 4, 2), SeededSensingEnsemble(1, 3, 3, 8)
        acquire = lambda arr: acquire_spectral_rows_3d(Cube3D(arr), ens).y
    x = rng.random(shape)
    zraw = rng.random(shape)
    a, b = 1.7, -0.4
    lhs = acquire(a * x + b * zraw)
    rhs = a * acquire(x) + b * acquire(zraw)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


@settings(max_examples=40, deadline=None)
@given(case=layouts_and_shapes(), seed=st.integers(0, 2**32 - 1))
def test_slices_round_trip(case, seed):
    layout, shape = case
    signal = np.random.default_rng(seed).normal(size=shape)
    slices = sensing.slices_of(signal, layout)
    assert slices.shape == slice_count_and_length(layout, shape) == sensing.slice_geometry(layout, shape)
    assert np.array_equal(sensing.signal_from_slices(slices, layout, shape), signal)
    other = np.random.default_rng(seed + 1).normal(size=slices.shape)
    assert np.array_equal(sensing.slices_of(sensing.signal_from_slices(other, layout, shape), layout), other)
    # a slice is the other axes, stacked column-major: fastest first
    dims = sensing.slice_dims(layout, shape)
    assert np.prod(dims) == slices.shape[1]
    for i, s in enumerate(slices):
        assert np.array_equal(s.reshape(dims, order="F"), np.take(signal, i, axis=SLICE_AXIS[layout]))
    ms = MeasurementSet(np.zeros((slices.shape[0], 1)),
                        SeededSensingEnsemble(seed, slices.shape[0], 1, slices.shape[1], non_compressive=True),
                        layout, shape)
    assert recon.slice_basis_for(ms).dims == dims


class TestBlockDiag:
    def test_single_slice_degenerates_to_matrix(self):
        ens = SeededSensingEnsemble(4, 1, 3, 7)
        v = np.random.default_rng(0).random(7)
        np.testing.assert_allclose(
            BlockDiagOperator(ens).matvec(v), draw_sensing_matrix(ens, 0) @ v, atol=1e-14
        )

    def test_block_support(self):
        ens = SeededSensingEnsemble(4, 3, 2, 5)
        v = np.zeros(15)
        v[10:15] = 1.0  # segment 2 only
        out = BlockDiagOperator(ens).matvec(v)
        assert np.all(out[:4] == 0) and np.any(out[4:6] != 0)

    def test_matches_dense_blockdiag(self):
        ens = SeededSensingEnsemble(6, 3, 4, 8)
        full, op = dense_block_diag(ens), BlockDiagOperator(ens)
        v = np.random.default_rng(1).random(24)
        np.testing.assert_allclose(op.matvec(v), full @ v, atol=1e-12)
        w = np.random.default_rng(2).random(12)
        np.testing.assert_allclose(op.rmatvec(w), full.T @ w, atol=1e-12)

    def test_adjoint_consistency(self):
        ens = SeededSensingEnsemble(6, 3, 4, 8)
        rng = np.random.default_rng(3)
        v, w = rng.random(24), rng.random(12)
        op = BlockDiagOperator(ens)
        lhs = np.dot(op.matvec(v), w)
        rhs = np.dot(v, op.rmatvec(w))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_scipy_view_matches_dense_and_the_budget_holds(self, monkeypatch):
        from scipy.sparse.linalg import aslinearoperator

        ens = SeededSensingEnsemble(6, 3, 4, 8)
        full, op = dense_block_diag(ens), aslinearoperator(BlockDiagOperator(ens))
        rng = np.random.default_rng(4)
        v, w, cols = rng.random(24), rng.random(12), rng.random((24, 2))
        assert op.shape == full.shape and op.dtype == np.float64
        np.testing.assert_allclose(op.matvec(v), full @ v, atol=1e-12)
        np.testing.assert_allclose(op.rmatvec(w), full.T @ w, atol=1e-12)
        np.testing.assert_allclose(op.matmat(cols), full @ cols, atol=1e-12)
        np.testing.assert_allclose(op.rmatvec(w[:, None]), (full.T @ w)[:, None], atol=1e-12)
        # the stack of three 4 x 8 matrices is 768 bytes: a budget of 768 holds
        # it, one byte less refuses it
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 768)
        BlockDiagOperator(ens)
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 767)
        with pytest.raises(ValueError, match="exceeds 767 bytes"):
            BlockDiagOperator(ens)

    def test_length_mismatch(self):
        op = BlockDiagOperator(SeededSensingEnsemble(4, 3, 2, 5))
        with pytest.raises(ValueError, match="expected length 15"):
            op.matvec(np.zeros(14))
        with pytest.raises(ValueError, match="expected length 6"):
            op.rmatvec(np.zeros(5))


class TestMeasurementFile:
    def test_round_trip(self, tmp_path):
        ens = SeededSensingEnsemble(123456789, 4, 3, 8, shared_matrix=True)
        ms = acquire_rows_2d(Image2D(np.random.default_rng(0).random((4, 8))), ens)
        path = tmp_path / "m.pcsm"
        save_measurements(ms, path)
        back = load_measurements(path)
        assert np.array_equal(back.y, ms.y)
        assert back.ensemble == ms.ensemble
        assert back.layout == ms.layout
        assert back.signal_shape == ms.signal_shape

    def test_round_trip_3d(self, tmp_path):
        ens = SeededSensingEnsemble(5, 3, 4, 8)
        ms = acquire_bands_3d(Cube3D(np.random.default_rng(1).random((2, 4, 3))), ens)
        path = tmp_path / "m.pcsm"
        save_measurements(ms, path)
        back = load_measurements(path)
        assert np.array_equal(back.y, ms.y)
        assert back.signal_shape == (2, 4, 3)

    @settings(max_examples=30, deadline=None)
    @given(case=layouts_and_shapes(), seed=st.integers(0, 2**64 - 1), flags=st.integers(0, 3),
           m=st.integers(1, 8))
    def test_round_trip_property(self, case, seed, flags, m):
        layout, shape = case
        num_slices, n = slice_count_and_length(layout, shape)
        ens = SeededSensingEnsemble(seed, num_slices, m, n, shared_matrix=bool(flags & 1),
                                    non_compressive=bool(flags & 2) or m >= n)
        y = np.random.default_rng(seed).normal(size=(num_slices, m)) * 10.0 ** (seed % 7 - 3)
        ms = MeasurementSet(y, ens, layout, shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.pcsm"
            save_measurements(ms, path)
            back = load_measurements(path)
        assert np.array_equal(back.y, ms.y)
        assert back.ensemble == ms.ensemble
        assert back.layout == ms.layout
        assert back.signal_shape == ms.signal_shape

    def test_byte_identical_files(self, tmp_path):
        ens = SeededSensingEnsemble(77, 4, 3, 8)
        img = Image2D(np.random.default_rng(2).random((4, 8)))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_measurements(acquire_rows_2d(img, ens), p1)
        save_measurements(acquire_rows_2d(img, ens), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        ens = SeededSensingEnsemble(77, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        path = tmp_path / "m.pcsm"
        save_measurements(ms, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_measurements(path)

    @staticmethod
    def _saved_then_patched(tmp_path, ms, offset, fmt, value):
        path = tmp_path / "m.pcsm"
        save_measurements(ms, path)
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        ens = SeededSensingEnsemble(77, 16, 8, 32)
        ms = acquire_rows_2d(Image2D(np.random.default_rng(3).random((16, 32))), ens)
        path = self._saved_then_patched(tmp_path, ms, 48, "<d", value)
        with pytest.raises(ValueError, match="payload y"):
            load_measurements(path)

    # header offsets: num_slices 20, n 24, bands 36 (uint32)
    @pytest.mark.parametrize("layout, offset, value, field", [
        (Layout.ROWS_2D, 24, 16, "n=16"),
        (Layout.ROWS_2D, 20, 8, "num_slices=8"),
        (Layout.ROWS_2D, 36, 2, "bands=2"),
        (Layout.BANDS_3D, 24, 16, "n=16"),
        (Layout.BANDS_3D, 20, 2, "num_slices=2"),
        (Layout.SPECTRAL_ROWS_3D, 24, 6, "n=6"),
        (Layout.SPECTRAL_ROWS_3D, 20, 4, "num_slices=4"),
    ])
    def test_header_disagreeing_with_signal_shape_rejected(self, tmp_path, layout, offset, value, field):
        if layout == Layout.ROWS_2D:
            ms = acquire_rows_2d(Image2D(np.zeros((16, 32))), SeededSensingEnsemble(7, 16, 8, 32))
        elif layout == Layout.BANDS_3D:
            ms = acquire_bands_3d(Cube3D(np.zeros((2, 4, 3))), SeededSensingEnsemble(7, 3, 4, 8))
        else:
            ms = acquire_spectral_rows_3d(Cube3D(np.zeros((2, 4, 3))), SeededSensingEnsemble(7, 2, 4, 12))
        path = self._saved_then_patched(tmp_path, ms, offset, "<I", value)
        with pytest.raises(ValueError, match=field):
            load_measurements(path)

    @staticmethod
    def _claiming(layout, m, rows, cols, bands):
        """A measurement file whose header claims this signal, payload zeros."""
        num_slices, n = slice_count_and_length(layout, (rows, cols) if layout == Layout.ROWS_2D
                                               else (rows, cols, bands))
        flags = 2 if m >= n else 0
        header = struct.pack("<4sHHQ8I", b"PCSM", 1, int(layout), 0, m, num_slices, n,
                             rows, cols, bands, flags, 0)
        return header + bytes(8 * num_slices * m), m * n * 8, num_slices * n * 8

    @pytest.mark.parametrize("layout, rows, cols, bands", [
        (Layout.ROWS_2D, 1, 2**31, 1),
        (Layout.BANDS_3D, 4096, 4096, 4096),
    ], ids=["rows2d-17GB", "bands3d-550GB"])
    def test_header_claiming_more_than_the_budget_refused(self, tmp_path, layout, rows, cols, bands):
        path = tmp_path / "m.pcsm"
        path.write_bytes(self._claiming(layout, 1, rows, cols, bands)[0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="claims"):
                load_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(list(Layout)), slices=st.integers(1, 16),
           m=st.integers(1, 1024))
    def test_every_header_loads_within_the_budget_or_is_refused(self, data, layout, slices, m):
        # claims up to 2**32 per field; the payload holds the slices*m doubles
        a = data.draw(st.integers(1, 2**32 - 1))
        b = data.draw(st.integers(1, (2**32 - 1) // a))
        rows, cols, bands = {Layout.ROWS_2D: (slices, a, 1), Layout.BANDS_3D: (a, b, slices),
                             Layout.SPECTRAL_ROWS_3D: (slices, a, b)}[layout]
        raw, matrix_bytes, signal_bytes = self._claiming(layout, m, rows, cols, bands)
        over = max(matrix_bytes, signal_bytes) > sensing.MATRIX_BUDGET_BYTES
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.pcsm"
            path.write_bytes(raw)
            if over:
                with pytest.raises(ValueError, match="claims"):
                    load_measurements(path)
            else:
                ms = load_measurements(path)
                assert ms.y.shape == (slices, m) and ms.ensemble.m * ms.ensemble.n * 8 == matrix_bytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pcsm"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError):
            load_measurements(path)

    # header offsets: layout 6 (uint16), flags 40 and reserved 44 (uint32)
    @pytest.mark.parametrize("offset, fmt, value, match", [
        (40, "<I", 0x80, "flags 0x80"),
        (44, "<I", 5, "reserved 5"),
        (6, "<H", 7, "unknown layout 7"),
    ], ids=["flag-bit-7", "reserved-word", "layout-7"])
    def test_header_content_version_1_does_not_define_refused(self, tmp_path, offset, fmt, value,
                                                              match):
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), SeededSensingEnsemble(77, 4, 3, 8))
        path = self._saved_then_patched(tmp_path, ms, offset, fmt, value)
        with pytest.raises(ValueError, match=match) as refused:
            load_measurements(path)
        assert str(refused.value).startswith(f"{path}: ")


def test_measurement_shape_checked():
    ens = SeededSensingEnsemble(0, 4, 3, 8)
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 2)), ens, Layout.ROWS_2D, (4, 8))


@settings(max_examples=80, deadline=None)
@given(case=layouts_and_shapes(), data=st.data())
def test_measurement_set_holds_exactly_the_geometry_of_its_signal(case, data):
    layout, shape = case
    slices, length = slice_count_and_length(layout, shape)
    num_slices = data.draw(st.one_of(st.just(slices), st.integers(1, 30)))
    n = data.draw(st.one_of(st.just(length), st.integers(1, 30)))
    ens = SeededSensingEnsemble(0, num_slices, 1, n, non_compressive=True)
    y = np.ones((num_slices, 1))
    if (num_slices, n) == (slices, length):
        assert MeasurementSet(y, ens, layout, shape).signal_shape == shape
    else:
        with pytest.raises(ValueError, match=f"num_slices={num_slices}, n={n}, but"):
            MeasurementSet(y, ens, layout, shape)


def test_measurement_set_holds_its_signal_shape_as_a_tuple_of_ints(tmp_path):
    img = Image2D(np.random.default_rng(3).random((8, 16)))
    ms = acquire_rows_2d(img, SeededSensingEnsemble(0, 8, 4, 16))
    listed = MeasurementSet(ms.y, ms.ensemble, ms.layout, [np.int64(8), 16])
    assert listed.signal_shape == (8, 16)
    assert [type(d) for d in listed.signal_shape] == [int, int]
    save_measurements(listed, tmp_path / "m.pcsm")
    assert load_measurements(tmp_path / "m.pcsm").signal_shape == (8, 16)
    cfg = recon.ReconConfig(max_outer_iters=1)
    _, report = recon.reconstruct_2d(listed, None, cfg, ground_truth=img)
    assert len(report.mse_trace) == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_measurement_set_refuses_non_finite_y(value):
    y = np.ones((4, 3))
    y[1, 2] = value
    with pytest.raises(ValueError, match="y holds non-finite values"):
        MeasurementSet(y, SeededSensingEnsemble(0, 4, 3, 8), Layout.ROWS_2D, (4, 8))


def test_measurement_set_values_cannot_change_after_the_check():
    # a value written after construction would reach the solver unchecked
    y = np.ones((4, 3))
    ms = MeasurementSet(y, SeededSensingEnsemble(0, 4, 3, 8), Layout.ROWS_2D, (4, 8))
    with pytest.raises(ValueError, match="read-only"):
        ms.y[3, 0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        ms.y = np.full((4, 3), np.nan)
    # the set holds its own copy: the caller's array stays writable and apart
    y[3, 0] = np.nan
    assert np.isfinite(ms.y).all()


def test_acquisition_holds_one_chunk_of_matrices_at_a_time(monkeypatch):
    # 256 rows of 128 at m = 32 in chunks of 64 slices: four 2 MiB chunks, of
    # which the next draw must not find the last one still held
    image = Image2D(np.random.default_rng(0).random((256, 128)))
    ens = SeededSensingEnsemble(4, 256, 32, 128)
    expected = acquire_rows_2d(image, ens).y
    budget = 64 * 32 * 128 * 8
    monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        y = acquire_rows_2d(image, ens).y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(y, expected)
    assert peak < 1.5 * budget


@settings(max_examples=80, deadline=None)
@given(data=st.data(), slices=st.integers(1, 8), m=st.integers(1, 4), n=st.integers(5, 8),
       budget_slices=st.integers(0, 9), offset=st.integers(-8, 8))
def test_stack_over_the_budget_refused_before_any_draw(data, slices, m, n, budget_slices, offset):
    ens = SeededSensingEnsemble(3, slices, m, n)
    start = data.draw(st.integers(0, slices))
    stop = data.draw(st.integers(start, slices))
    budget = max(0, budget_slices * m * n * 8 + offset)
    draws = []
    draw = sensing.draw_sensing_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensing, "MATRIX_BUDGET_BYTES", budget)
        mp.setattr(sensing, "draw_sensing_matrix", lambda ens, i: draws.append(i) or draw(ens, i))
        if (stop - start) * m * n * 8 > budget:
            with pytest.raises(ValueError, match=f"a stack of {stop - start} {m} x {n} matrices exceeds {budget} bytes"):
                sensing.draw_sensing_stack(ens, start, stop)
            assert draws == []
        else:
            stack = sensing.draw_sensing_stack(ens, start, stop)
            assert stack.shape == (stop - start, m, n) and draws == list(range(start, stop))
