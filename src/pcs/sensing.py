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
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.sparse.linalg import LinearOperator
from scipy.special import ndtri

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
    an independent stream.
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
    """Stack of sensing matrices for slices [start, stop), shape (stop-start, m, n)."""
    if not 0 <= start <= stop <= ensemble.num_slices:
        raise IndexError(f"slice range [{start}, {stop}) out of bounds")
    stack = np.empty((stop - start, ensemble.m, ensemble.n))
    for i in range(start, stop):
        stack[i - start] = draw_sensing_matrix(ensemble, i)
    return stack


@dataclass
class MeasurementSet:
    """Per-slice measurements plus everything needed to re-derive each matrix.

    y has shape (num_slices, m); row i holds the measurements of slice i.
    signal_shape is (rows, cols) or (rows, cols, bands) of the source signal.
    """

    y: np.ndarray
    ensemble: SeededSensingEnsemble
    layout: Layout
    signal_shape: tuple[int, ...]

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.shape != (self.ensemble.num_slices, self.ensemble.m):
            raise ValueError(
                f"y shape {self.y.shape} does not match ensemble "
                f"({self.ensemble.num_slices}, {self.ensemble.m})"
            )


# bytes of sensing matrices in one chunk, drawn at once by acquisition and by
# each residual sweep; a reconstruction keeps its whole stack when it is one
# chunk (the Kronecker initialization always draws the whole stack).  A
# measurement file may claim neither one slice's matrix nor a signal above it:
# at most 2**25 float64 samples (256 MiB), e.g. a 5792 x 5792 image
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


def slices_of(signal: np.ndarray, layout: Layout) -> np.ndarray:
    """View the signal as a (num_slices, n) array of column-major stacked slices."""
    order = _stacking_order(layout, signal.shape)
    return signal.transpose(order).reshape(slice_geometry(layout, signal.shape))


def signal_from_slices(slices: np.ndarray, layout: Layout, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of slices_of: reassemble the signal array from stacked slices."""
    order = _stacking_order(layout, shape)
    return slices.reshape([shape[k] for k in order]).transpose(np.argsort(order))


def _acquire(signal: np.ndarray, ensemble: SeededSensingEnsemble, layout: Layout) -> MeasurementSet:
    if slice_geometry(layout, signal.shape) != (ensemble.num_slices, ensemble.n):
        raise ValueError(
            f"ensemble ({ensemble.num_slices} slices of length {ensemble.n}) does not "
            f"match signal {signal.shape} acquired under layout {layout.name}"
        )
    x = slices_of(signal, layout)
    y = np.empty((ensemble.num_slices, ensemble.m))
    step = chunk_length(ensemble)
    for i0 in range(0, ensemble.num_slices, step):
        i1 = min(i0 + step, ensemble.num_slices)
        phi = draw_sensing_stack(ensemble, i0, i1)
        y[i0:i1] = np.matmul(phi, x[i0:i1, :, None])[..., 0]
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

def block_diag_apply(ensemble: SeededSensingEnsemble, v: np.ndarray) -> np.ndarray:
    """Apply diag(Phi^0, ..., Phi^{S-1}) to a stacked vector, blockwise."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (ensemble.num_slices * ensemble.n,):
        raise ValueError(
            f"vector length {v.shape} does not match {ensemble.num_slices} "
            f"slices of length {ensemble.n}"
        )
    out = np.empty(ensemble.num_slices * ensemble.m)
    for i in range(ensemble.num_slices):
        phi = draw_sensing_matrix(ensemble, i)
        out[i * ensemble.m : (i + 1) * ensemble.m] = phi @ v[i * ensemble.n : (i + 1) * ensemble.n]
    return out


def block_diag_adjoint(ensemble: SeededSensingEnsemble, w: np.ndarray) -> np.ndarray:
    """Apply the transpose of the block-diagonal sensing operator."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ensemble.num_slices * ensemble.m,):
        raise ValueError(
            f"vector length {w.shape} does not match {ensemble.num_slices} "
            f"slices of {ensemble.m} measurements"
        )
    out = np.empty(ensemble.num_slices * ensemble.n)
    for i in range(ensemble.num_slices):
        phi = draw_sensing_matrix(ensemble, i)
        out[i * ensemble.n : (i + 1) * ensemble.n] = phi.T @ w[i * ensemble.m : (i + 1) * ensemble.m]
    return out


class BlockDiagOperator(LinearOperator):
    """Matrix-free block-diagonal sensing operator with optional block cache.

    A scipy LinearOperator view of diag(Phi^0, ..., Phi^{S-1}), for callers
    outside pcs; the l1 solvers apply the same map through
    solvers.BatchedOperator(phi, "identity").  Blocks are cached when the
    whole stack fits in cache_max_bytes and regenerated per call otherwise,
    so the full block-diagonal matrix is never formed.
    """

    def __init__(self, ensemble: SeededSensingEnsemble, cache_max_bytes: int = 1 << 27):
        self.ensemble = ensemble
        m, n, s = ensemble.m, ensemble.n, ensemble.num_slices
        super().__init__(dtype=np.float64, shape=(s * m, s * n))
        self._blocks = None
        if s * m * n * 8 <= cache_max_bytes:
            self._blocks = draw_sensing_stack(ensemble, 0, s)

    def _matvec(self, v):
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if self._blocks is None:
            return block_diag_apply(self.ensemble, v)
        s, m, n = self.ensemble.num_slices, self.ensemble.m, self.ensemble.n
        return np.matmul(self._blocks, v.reshape(s, n, 1))[..., 0].reshape(s * m)

    def _rmatvec(self, w):
        w = np.asarray(w, dtype=np.float64).reshape(-1)
        if self._blocks is None:
            return block_diag_adjoint(self.ensemble, w)
        s, m, n = self.ensemble.num_slices, self.ensemble.m, self.ensemble.n
        out = np.matmul(self._blocks.transpose(0, 2, 1), w.reshape(s, m, 1))
        return out[..., 0].reshape(s * n)


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
         rows, cols, bands, flags, _reserved) = _MEAS_HEADER.unpack(header)
        if magic != _MEAS_MAGIC:
            raise ValueError(f"{path}: not a measurement file (bad magic {magic!r})")
        if version != _MEAS_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        layout = Layout(layout)
        if layout == Layout.ROWS_2D and bands != 1:
            raise ValueError(f"{path}: header bands={bands}, a rows2d file needs bands=1")
        shape = (rows, cols) if layout == Layout.ROWS_2D else (rows, cols, bands)
        slices, length = slice_geometry(layout, shape)
        if num_slices != slices:
            raise ValueError(
                f"{path}: header num_slices={num_slices}, but rows={rows} cols={cols} "
                f"bands={bands} give {slices} slices for layout {layout.name}"
            )
        if n != length:
            raise ValueError(
                f"{path}: header n={n}, but rows={rows} cols={cols} bands={bands} "
                f"give slices of length {length} for layout {layout.name}"
            )
        claims = {"one slice's sensing matrix": m * n * 8, "the signal": num_slices * n * 8}
        for what, nbytes in claims.items():
            if nbytes > MATRIX_BUDGET_BYTES:
                raise ValueError(f"{path}: header (m={m}, num_slices={num_slices}, n={n}) claims "
                                 f"{what} of {nbytes} bytes, over {MATRIX_BUDGET_BYTES}")
        payload = fh.read()
    expected = num_slices * m * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    y = np.frombuffer(payload, dtype="<f8").reshape(num_slices, m).copy()
    if not np.isfinite(y).all():
        raise ValueError(f"{path}: payload y holds non-finite values")
    ensemble = SeededSensingEnsemble(
        master_seed=seed,
        num_slices=num_slices,
        m=m,
        n=n,
        shared_matrix=bool(flags & 1),
        non_compressive=bool(flags & 2),
    )
    return MeasurementSet(y, ensemble, layout, shape)
