"""Reproducible Gaussian sensing ensembles and progressive acquisition.

One fresh Gaussian matrix is drawn per acquired slice (image row, spectral
band, or spectral row).  Matrices are never stored: each one is regenerated
on demand from a counter-based Philox stream keyed by
``(master_seed, slice_index)``, with the raw 64-bit words mapped to uniforms
in (0,1) and converted to normals through the inverse CDF.  This makes every
measurement a pure function of (master_seed, shape), bit-for-bit across runs
and platforms.

Entry (k, j) of slice i's matrix is element k*n + j of that slice's stream,
drawn from N(0, 1/m).

Each layout slices the signal along one axis (_SLICING); a slice is the other
axes stacked column-major, and the slice count, length, axis lengths and the
slice views all follow from that one entry.
"""

import enum
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from . import solvers
from .signals import Cube3D, Image2D


class Layout(enum.IntEnum):
    """How slice i of a measurement matrix maps back into the signal."""

    ROWS_2D = 0
    BANDS_3D = 1
    SPECTRAL_ROWS_3D = 2


@dataclass(frozen=True)
class SeededSensingEnsemble:
    """Family of per-slice m x n Gaussian sensing matrices, stored as a seed.

    master_seed is taken modulo 2**64.  With shared_matrix=True every slice
    reuses the slice-0 matrix (ablation switch); by default each slice gets
    an independent stream.  Neither one slice's matrix nor the signal may
    exceed MATRIX_BUDGET_BYTES, so acquisition and loading refuse one claim.
    """

    master_seed: int
    num_slices: int
    m: int
    n: int
    shared_matrix: bool = False
    non_compressive: bool = False

    def __post_init__(self):
        if self.num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.m >= self.n and not self.non_compressive:
            raise ValueError(
                f"m={self.m} >= n={self.n}: not compressive "
                "(pass non_compressive=True for the reference mode)"
            )
        claims = {"one slice's sensing matrix": self.m * self.n * 8,
                  "the signal": self.num_slices * self.n * 8}
        for what, nbytes in claims.items():
            if nbytes > MATRIX_BUDGET_BYTES:
                raise ValueError(f"(m={self.m}, num_slices={self.num_slices}, n={self.n}) claims "
                                 f"{what} of {nbytes} bytes, over {MATRIX_BUDGET_BYTES}")

    @property
    def seed_u64(self) -> int:
        return self.master_seed % (1 << 64)


def philox_normals(key0: int, key1: int, count: int) -> np.ndarray:
    """count platform-stable N(0, 1) draws from the Philox stream keyed (key0, key1)."""
    raw = Philox(key=np.array([key0, key1], dtype=np.uint64)).random_raw(count)
    # 53-bit uniform in the open interval (0,1), then inverse normal CDF
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


def draw_sensing_matrix(ensemble: SeededSensingEnsemble, i: int) -> np.ndarray:
    """Regenerate slice i's m x n sensing matrix, entries N(0, 1/m)."""
    if not 0 <= i < ensemble.num_slices:
        raise IndexError(f"slice index {i} out of range [0, {ensemble.num_slices})")
    idx = 0 if ensemble.shared_matrix else i
    normals = philox_normals(ensemble.seed_u64, idx, ensemble.m * ensemble.n)
    return (normals / np.sqrt(ensemble.m)).reshape(ensemble.m, ensemble.n)


def draw_sensing_stack(
    ensemble: SeededSensingEnsemble, start: int, stop: int
) -> np.ndarray:
    """Stack of sensing matrices for slices [start, stop), shape (stop-start, m, n).

    A stack over MATRIX_BUDGET_BYTES is refused before anything is drawn.
    """
    if not 0 <= start <= stop <= ensemble.num_slices:
        raise IndexError(f"slice range [{start}, {stop}) out of bounds")
    s, m, n = stop - start, ensemble.m, ensemble.n
    if s * m * n * 8 > MATRIX_BUDGET_BYTES:
        raise ValueError(f"a stack of {s} {m} x {n} matrices exceeds {MATRIX_BUDGET_BYTES} bytes")
    stack = np.empty((s, m, n))
    for i in range(start, stop):
        stack[i - start] = draw_sensing_matrix(ensemble, i)
    return stack


@dataclass(frozen=True)
class MeasurementSet:
    """Per-slice measurements plus everything needed to re-derive each matrix.

    y has shape (num_slices, m); row i holds the measurements of slice i.
    signal_shape is (rows, cols) or (rows, cols, bands) of the source signal.
    A set whose y is not finite, or whose signal_shape does not slice into
    the ensemble's slices under layout, is refused.  The set is frozen and
    holds its own read-only copy of y and signal_shape as a tuple of ints,
    so the values checked here are the values every later solve reads.
    """

    y: np.ndarray
    ensemble: SeededSensingEnsemble
    layout: Layout
    signal_shape: tuple[int, ...]

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64)
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "signal_shape", tuple(map(operator.index, self.signal_shape)))
        if self.y.shape != (self.ensemble.num_slices, self.ensemble.m):
            raise ValueError(
                f"y shape {self.y.shape} does not match ensemble "
                f"({self.ensemble.num_slices}, {self.ensemble.m})"
            )
        _check_geometry(self.layout, self.signal_shape, self.ensemble.num_slices, self.ensemble.n)
        if not np.isfinite(self.y).all():
            raise ValueError("y holds non-finite values")


# bytes of sensing matrices drawn at once: draw_sensing_stack refuses a larger
# stack, so acquisition and each residual sweep draw chunk by chunk, a
# reconstruction keeps its whole stack only when it is one chunk, and the
# Kronecker initialization, which needs the whole stack, is refused above it.
# An ensemble may claim neither one slice's matrix nor a signal above it: at
# most 2**25 float64 samples (256 MiB), e.g. a 5792 x 5792 image
MATRIX_BUDGET_BYTES = 1 << 28


def chunk_length(ensemble: SeededSensingEnsemble) -> int:
    """Slices per chunk, so that one chunk of sensing matrices fits in MATRIX_BUDGET_BYTES."""
    per_slice = ensemble.m * ensemble.n * 8
    return max(1, min(ensemble.num_slices, MATRIX_BUDGET_BYTES // per_slice))


# per layout: (signal rank, slice axis); a slice is the other axes, stacked
# column-major (the first of them fastest)
_SLICING = {Layout.ROWS_2D: (2, 0), Layout.BANDS_3D: (3, 2), Layout.SPECTRAL_ROWS_3D: (3, 0)}


def _stacking_order(layout: Layout, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The slice axis, then the other axes slowest first: a C-order ravel in
    this order lists the slices one after another, each stacked column-major."""
    rank, axis = _SLICING[layout]
    if len(shape) != rank:
        raise ValueError(f"layout {layout.name} cannot slice a signal of shape {tuple(shape)}")
    return (axis,) + tuple(k for k in reversed(range(rank)) if k != axis)


def slice_dims(layout: Layout, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Axis lengths of one slice of a signal of this shape, fastest first."""
    return tuple(shape[k] for k in _stacking_order(layout, shape)[:0:-1])


def slice_geometry(layout: Layout, shape: tuple[int, ...]) -> tuple[int, int]:
    """(num_slices, slice length) of a signal of this shape acquired under layout."""
    dims = slice_dims(layout, shape)
    return shape[_SLICING[layout][1]], math.prod(dims)


def _check_geometry(layout: Layout, shape: tuple[int, ...], num_slices: int, n: int) -> None:
    """Refuse num_slices slices of length n that a signal of this shape does not give."""
    slices, length = slice_geometry(layout, shape)
    if (num_slices, n) != (slices, length):
        raise ValueError(f"num_slices={num_slices}, n={n}, but a signal of shape {tuple(shape)} "
                         f"gives {slices} slices of length {length} under layout {layout.name}")


def slices_of(signal: np.ndarray, layout: Layout) -> np.ndarray:
    """View the signal as a (num_slices, n) array of column-major stacked slices."""
    order = _stacking_order(layout, signal.shape)
    return signal.transpose(order).reshape(slice_geometry(layout, signal.shape))


def signal_from_slices(slices: np.ndarray, layout: Layout, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of slices_of: reassemble the signal array from stacked slices."""
    order = _stacking_order(layout, shape)
    return slices.reshape([shape[k] for k in order]).transpose(np.argsort(order))


def _acquire(signal: np.ndarray, ensemble: SeededSensingEnsemble, layout: Layout) -> MeasurementSet:
    _check_geometry(layout, signal.shape, ensemble.num_slices, ensemble.n)
    x = slices_of(signal, layout)
    y = np.empty((ensemble.num_slices, ensemble.m))
    step = chunk_length(ensemble)
    for i0 in range(0, ensemble.num_slices, step):
        i1 = min(i0 + step, ensemble.num_slices)
        # no name holds a chunk, so the next draw finds the last one freed
        y[i0:i1] = np.matmul(draw_sensing_stack(ensemble, i0, i1), x[i0:i1, :, None])[..., 0]
    return MeasurementSet(y, ensemble, layout, signal.shape)


def acquire_rows_2d(image: Image2D, ensemble: SeededSensingEnsemble) -> MeasurementSet:
    """Measure each image row with its own sensing matrix."""
    return _acquire(image.samples, ensemble, Layout.ROWS_2D)


def acquire_bands_3d(cube: Cube3D, ensemble: SeededSensingEnsemble) -> MeasurementSet:
    """Measure each vectorized spectral band with its own sensing matrix."""
    return _acquire(cube.samples, ensemble, Layout.BANDS_3D)


def acquire_spectral_rows_3d(cube: Cube3D, ensemble: SeededSensingEnsemble) -> MeasurementSet:
    """Measure each vectorized spectral row (cols x bands slice) separately."""
    return _acquire(cube.samples, ensemble, Layout.SPECTRAL_ROWS_3D)


# --- block-diagonal operator (Kronecker CS) ---------------------------------

class BlockDiagOperator:
    """diag(Phi^0, ..., Phi^{S-1}) on flat vectors, for callers outside pcs: the
    independent slices of solvers.BatchedOperator(stack) over the whole stack
    drawn once.  It has shape, dtype, matvec and rmatvec, so scipy's
    aslinearoperator accepts it.  A stack over MATRIX_BUDGET_BYTES is refused."""

    def __init__(self, ensemble: SeededSensingEnsemble):
        s = ensemble.num_slices
        self.ensemble = ensemble
        self.shape = (s * ensemble.m, s * ensemble.n)
        self.dtype = np.dtype(np.float64)
        self._op = solvers.BatchedOperator(draw_sensing_stack(ensemble, 0, s))

    def matvec(self, v):
        return self._op.forward(_stacked(v, self.shape[1])).reshape(-1)

    def rmatvec(self, w):
        return self._op.adjoint(_stacked(w, self.shape[0])).reshape(-1)


def _stacked(v, length: int) -> np.ndarray:
    """v as a float64 vector of the given length; a column of it is accepted too."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape not in ((length,), (length, 1)):
        raise ValueError(f"vector of shape {v.shape}, expected length {length}")
    return v.reshape(-1)


# --- measurement file format -------------------------------------------------
#
# 48-byte little-endian header followed by the raw float64 payload:
#
#   offset size  field
#   0      4     magic "PCSM"
#   4      2     version (currently 1)            uint16
#   6      2     layout (Layout enum value)       uint16
#   8      8     master_seed                      uint64
#   16     4     m (measurements per slice)       uint32
#   20     4     num_slices                       uint32
#   24     4     n (slice length)                 uint32
#   28     4     rows                             uint32
#   32     4     cols                             uint32
#   36     4     bands (1 for 2D signals)         uint32
#   40     4     flags (bit0 shared_matrix,       uint32
#                       bit1 non_compressive)
#   44     4     reserved, zero                   uint32
#   48     ...   y payload, num_slices*m float64, slice-major

_MEAS_MAGIC = b"PCSM"
_MEAS_VERSION = 1
_MEAS_HEADER = struct.Struct("<4sHHQ8I")


def save_measurements(ms: MeasurementSet, path) -> None:
    shape3 = ms.signal_shape if len(ms.signal_shape) == 3 else ms.signal_shape + (1,)
    flags = (1 if ms.ensemble.shared_matrix else 0) | (
        2 if ms.ensemble.non_compressive else 0
    )
    header = _MEAS_HEADER.pack(
        _MEAS_MAGIC,
        _MEAS_VERSION,
        int(ms.layout),
        ms.ensemble.seed_u64,
        ms.ensemble.m,
        ms.ensemble.num_slices,
        ms.ensemble.n,
        shape3[0],
        shape3[1],
        shape3[2],
        flags,
        0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ms.y.astype("<f8").tobytes(order="C"))


def load_measurements(path) -> MeasurementSet:
    with open(path, "rb") as fh:
        header = fh.read(_MEAS_HEADER.size)
        if len(header) != _MEAS_HEADER.size:
            raise ValueError(f"{path}: truncated measurement header")
        (magic, version, layout, seed, m, num_slices, n,
         rows, cols, bands, flags, reserved) = _MEAS_HEADER.unpack(header)
        if magic != _MEAS_MAGIC:
            raise ValueError(f"{path}: not a measurement file (bad magic {magic!r})")
        if version != _MEAS_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if flags & ~3 or reserved:
            raise ValueError(f"{path}: header flags {flags:#x} or reserved {reserved} not in version 1")
        try:
            layout = Layout(layout)
        except ValueError:
            raise ValueError(f"{path}: unknown layout {layout}") from None
        if layout == Layout.ROWS_2D and bands != 1:
            raise ValueError(f"{path}: header bands={bands}, a rows2d file needs bands=1")
        shape = (rows, cols) if layout == Layout.ROWS_2D else (rows, cols, bands)
        try:
            _check_geometry(layout, shape, num_slices, n)
            ensemble = SeededSensingEnsemble(seed, num_slices, m, n, bool(flags & 1), bool(flags & 2))
        except ValueError as exc:
            raise ValueError(f"{path}: header {exc}") from None
        payload = fh.read()
    expected = num_slices * m * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    y = np.frombuffer(payload, dtype="<f8").reshape(num_slices, m)
    try:
        return MeasurementSet(y, ensemble, layout, shape)
    except ValueError as exc:
        raise ValueError(f"{path}: payload {exc}") from None
