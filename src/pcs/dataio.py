"""File ingestion, persistence, and the synthetic correlated-data generators.

Images load from binary PGM (P5, 8- or 16-bit), normalized to [0, 1] by the
stated maxval; cubes use one raw format with a fixed 32-byte little-endian
header:

    offset size  field
    0      4     magic "PCS3"
    4      2     version (currently 1)           uint16
    6      2     sample format: 2 (f64le)        uint16
    8      4     rows                            uint32
    12     4     cols                            uint32
    16     4     bands                           uint32
    20     12    reserved, zero
    32     ...   f64le payload, band-sequential (BSQ): bands outermost, then
                 rows, then cols

so save/load of a cube round-trips bit-exactly.

The synthetic generators substitute for hyperspectral archives that cannot be
redistributed: their parameters are frozen constants (bump GENERATOR_VERSION
when changing them) so downstream acceptance numbers stay stable.
"""

import struct

import numpy as np
from numpy.random import Philox

from . import transforms
from .signals import Cube3D, Image2D

GENERATOR_VERSION = 1
# synth_image: power-law 2D DCT spectrum (larger decay = smoother), rescaled
# into [_IMAGE_LOW, _IMAGE_HIGH]
_IMAGE_SPECTRAL_DECAY = 1.6
_IMAGE_LOW = 0.05
_IMAGE_HIGH = 0.95
# synth_cube: one 2D-DCT-sparse base band, per-band affine gains/offsets
# varying smoothly across bands, plus small sparse innovations in every band
_CUBE_BASE_SPARSITY = 24
_CUBE_GAIN_AMPLITUDE = 0.3
_CUBE_OFFSET_AMPLITUDE = 0.05
_CUBE_INNOVATION_SPARSITY = 2
_CUBE_INNOVATION_SCALE = 0.01

_CUBE_MAGIC = b"PCS3"
_CUBE_VERSION = 1
_CUBE_HEADER = struct.Struct("<4sHHIII12s")

_CUBE_F64LE = 2  # the one sample format


# --- PGM ---------------------------------------------------------------------

def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read whitespace/comment-separated integer tokens, return (values, offset)."""
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ValueError("malformed PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tok = data[start:pos]
            if not tok.isdigit():
                raise ValueError(f"malformed PGM header token {tok!r}")
            tokens.append(int(tok))
    return tokens, pos + 1  # single whitespace after maxval


def _pgm_dtype(maxval: int, where: str = "") -> np.dtype:
    """The sample type of a PGM with maxval, one byte or two; where prefixes
    the refusal of a maxval outside 1..65535."""
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{where}unsupported maxval {maxval}")
    # PGM multi-byte samples are big-endian
    return np.dtype("u1") if maxval < 256 else np.dtype(">u2")


def load_image(path) -> Image2D:
    """Load a binary (P5) PGM file, normalizing samples to [0, 1] by maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), offset = _read_pgm_tokens(data[2:], 3)
    offset += 2
    dtype = _pgm_dtype(maxval, f"{path}: ")
    expected = width * height * dtype.itemsize
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    samples = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    if samples.size and samples.max() > maxval:
        raise ValueError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    return Image2D(samples.astype(np.float64) / maxval)


def save_image(image: Image2D, path, maxval: int = 255) -> None:
    """Write a binary PGM, quantizing [0, 1] samples to maxval steps."""
    dtype = _pgm_dtype(maxval)
    arr = np.clip(np.round(image.samples * maxval), 0, maxval)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode())
        fh.write(arr.astype(dtype).tobytes(order="C"))


# --- raw cube files ------------------------------------------------------------

def save_cube(cube: Cube3D, path) -> None:
    """Write a PCS3 cube file with f64le samples."""
    header = _CUBE_HEADER.pack(
        _CUBE_MAGIC,
        _CUBE_VERSION,
        _CUBE_F64LE,
        *cube.samples.shape,
        bytes(12),
    )
    arr = cube.samples.transpose(2, 0, 1)  # BSQ: band, row, col
    payload = arr.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_cube(path) -> Cube3D:
    """Load a PCS3 cube file."""
    with open(path, "rb") as fh:
        raw = fh.read(_CUBE_HEADER.size)
        if len(raw) != _CUBE_HEADER.size:
            raise ValueError(f"{path}: truncated cube header")
        magic, version, fmt, rows, cols, bands, reserved = _CUBE_HEADER.unpack(raw)
        if magic != _CUBE_MAGIC:
            raise ValueError(f"{path}: not a cube file (bad magic {magic!r})")
        if version != _CUBE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if any(reserved):
            raise ValueError(f"{path}: reserved header bytes {reserved.hex()} are not zero")
        if fmt != _CUBE_F64LE:
            raise ValueError(f"{path}: sample format {fmt} is not {_CUBE_F64LE} (f64le)")
        if min(rows, cols, bands) < 1:
            raise ValueError(f"{path}: cube dimensions {rows}x{cols}x{bands} must all be >= 1")
        payload = fh.read()
    expected = rows * cols * bands * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    samples = np.frombuffer(payload, "<f8").reshape(bands, rows, cols).transpose(1, 2, 0)
    return Cube3D(samples.astype(np.float64))


# --- synthetic generators ------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(Philox(key=np.array([seed % (1 << 64), stream], dtype=np.uint64)))


def synth_image(seed: int, rows: int, cols: int) -> Image2D:
    """Seeded smooth correlated image, normalized into [0.05, 0.95]."""
    if rows < 2 or cols < 2:
        raise ValueError("need rows >= 2 and cols >= 2")
    rng = _rng(seed, 0x1A6E)
    fr = np.arange(rows)[:, None] / rows
    fc = np.arange(cols)[None, :] / cols
    amplitude = (1.0 + 24.0 * (fr**2 + fc**2)) ** (-_IMAGE_SPECTRAL_DECAY)
    coeffs = amplitude * rng.standard_normal((rows, cols))
    coeffs[0, 0] = 0.0
    basis = transforms.separable2d_basis(rows, cols)
    img = transforms.synthesize(basis, coeffs.ravel(order="F")).reshape(rows, cols, order="F")
    lo, hi = img.min(), img.max()
    span = hi - lo if hi > lo else 1.0
    scaled = _IMAGE_LOW + (img - lo) / span * (_IMAGE_HIGH - _IMAGE_LOW)
    return Image2D(scaled)


def synth_cube(seed: int, rows: int, cols: int, bands: int) -> Cube3D:
    """Seeded correlated cube with affinely related bands."""
    if rows < 2 or cols < 2 or bands < 2:
        raise ValueError("need rows, cols, bands all >= 2")
    rng = _rng(seed, 0xC0BE)

    # base band: sparse low-frequency-biased 2D DCT content
    n = rows * cols
    k = min(_CUBE_BASE_SPARSITY, n)
    fr = np.arange(rows)[:, None] / rows
    fc = np.arange(cols)[None, :] / cols
    weight = np.exp(-4.0 * (fr + fc)).ravel(order="F")
    weight /= weight.sum()
    support = rng.choice(n, size=k, replace=False, p=weight)
    coeffs = np.zeros(n)
    coeffs[support] = rng.standard_normal(k) * np.linspace(1.0, 0.3, k)
    basis = transforms.separable2d_basis(rows, cols)
    base = transforms.synthesize(basis, coeffs).reshape(rows, cols, order="F")
    lo, hi = base.min(), base.max()
    span = hi - lo if hi > lo else 1.0
    base = 0.15 + (base - lo) / span * 0.7

    phase = rng.uniform(0, 2 * np.pi)
    b_idx = np.arange(bands)
    gains = 1.0 + _CUBE_GAIN_AMPLITUDE * np.sin(2 * np.pi * b_idx / bands + phase)
    offsets = _CUBE_OFFSET_AMPLITUDE * np.cos(2 * np.pi * b_idx / bands + phase)

    cube = np.empty((rows, cols, bands))
    for b in range(bands):
        band = gains[b] * base + offsets[b]
        inn = np.zeros(n)
        inn_support = rng.choice(n, size=min(_CUBE_INNOVATION_SPARSITY, n), replace=False, p=weight)
        inn[inn_support] = rng.standard_normal(len(inn_support)) * _CUBE_INNOVATION_SCALE
        band = band + transforms.synthesize(basis, inn).reshape(rows, cols, order="F")
        cube[:, :, b] = band
    return Cube3D(cube)
