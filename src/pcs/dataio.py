"""File ingestion, persistence, and the synthetic correlated-data generators.

Images load from binary PGM (P5, 8- or 16-bit); cubes use a small raw format
with a fixed 32-byte little-endian header:

    offset size  field
    0      4     magic "PCS3"
    4      2     version (currently 1)           uint16
    6      2     sample format: 0 u8, 1 u16le,   uint16
                 2 f64le
    8      4     rows                            uint32
    12     4     cols                            uint32
    16     4     bands                           uint32
    20     12    reserved, zero
    32     ...   payload, band-sequential (BSQ): bands outermost, then rows,
                 then cols

Integer samples normalize to [0, 1] on load (u8 by 255, u16 by 65535; PGM by
its stated maxval); f64 payloads pass through untouched, so save/load of
float cubes round-trips bit-exactly.

The synthetic generators substitute for hyperspectral archives that cannot be
redistributed: parameter defaults are frozen (bump GENERATOR_VERSION when
changing them) so downstream acceptance numbers stay stable.
"""

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from . import transforms
from .signals import Cube3D, Image2D

GENERATOR_VERSION = 1

_CUBE_MAGIC = b"PCS3"
_CUBE_VERSION = 1
_CUBE_HEADER = struct.Struct("<4sHHIII12x")

SAMPLE_FORMATS = {"u8": 0, "u16le": 1, "f64le": 2}
_FORMAT_NAMES = {v: k for k, v in SAMPLE_FORMATS.items()}
_FORMAT_DTYPES = {"u8": np.dtype("u1"), "u16le": np.dtype("<u2"), "f64le": np.dtype("<f8")}
_FORMAT_SCALE = {"u8": 255.0, "u16le": 65535.0, "f64le": 1.0}


@dataclass(frozen=True)
class CubeHeader:
    rows: int
    cols: int
    bands: int
    sample_format: str = "f64le"

    def __post_init__(self):
        if min(self.rows, self.cols, self.bands) < 1:
            raise ValueError("all cube dimensions must be >= 1")
        if self.sample_format not in SAMPLE_FORMATS:
            raise ValueError(f"unsupported sample format {self.sample_format!r}")

    @property
    def payload_bytes(self) -> int:
        return self.rows * self.cols * self.bands * _FORMAT_DTYPES[self.sample_format].itemsize


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


def load_image(path) -> Image2D:
    """Load a binary (P5) PGM file, normalizing samples to [0, 1] by maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), offset = _read_pgm_tokens(data[2:], 3)
    offset += 2
    if maxval < 1 or maxval > 65535:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    # PGM multi-byte samples are big-endian
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    expected = width * height * dtype.itemsize
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    samples = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return Image2D(samples.astype(np.float64) / maxval)


def save_image(image: Image2D, path, maxval: int = 255) -> None:
    """Write a binary PGM, quantizing [0, 1] samples to maxval steps."""
    if not 1 <= maxval <= 65535:
        raise ValueError(f"unsupported maxval {maxval}")
    arr = np.clip(np.round(image.samples * maxval), 0, maxval)
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.n_cols} {image.n_rows}\n{maxval}\n".encode())
        fh.write(arr.astype(dtype).tobytes(order="C"))


# --- raw cube files ------------------------------------------------------------

def save_cube(cube: Cube3D, path, sample_format: str = "f64le") -> None:
    if sample_format not in SAMPLE_FORMATS:
        raise ValueError(f"unsupported sample format {sample_format!r}")
    header = _CUBE_HEADER.pack(
        _CUBE_MAGIC,
        _CUBE_VERSION,
        SAMPLE_FORMATS[sample_format],
        cube.n_rows,
        cube.n_cols,
        cube.n_bands,
    )
    arr = cube.samples.transpose(2, 0, 1)  # BSQ: band, row, col
    scale = _FORMAT_SCALE[sample_format]
    if sample_format == "f64le":
        payload = arr.astype("<f8").tobytes(order="C")
    else:
        payload = (
            np.clip(np.round(arr * scale), 0, scale)
            .astype(_FORMAT_DTYPES[sample_format])
            .tobytes(order="C")
        )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_cube(path) -> Cube3D:
    """Load a PCS3 cube file."""
    with open(path, "rb") as fh:
        raw = fh.read(_CUBE_HEADER.size)
        if len(raw) != _CUBE_HEADER.size:
            raise ValueError(f"{path}: truncated cube header")
        magic, version, fmt, rows, cols, bands = _CUBE_HEADER.unpack(raw)
        if magic != _CUBE_MAGIC:
            raise ValueError(f"{path}: not a cube file (bad magic {magic!r})")
        if version != _CUBE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if fmt not in _FORMAT_NAMES:
            raise ValueError(f"{path}: unknown sample format {fmt}")
        header = CubeHeader(rows, cols, bands, _FORMAT_NAMES[fmt])
        payload = fh.read()
    if len(payload) != header.payload_bytes:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {header.payload_bytes}"
        )
    return _cube_from_payload(payload, header)


def import_raw_cube(path, header: CubeHeader) -> Cube3D:
    """Ingest a headerless raw BSQ file, given its layout."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) != header.payload_bytes:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header implies {header.payload_bytes}"
        )
    return _cube_from_payload(payload, header)


def _cube_from_payload(payload: bytes, header: CubeHeader) -> Cube3D:
    arr = np.frombuffer(payload, dtype=_FORMAT_DTYPES[header.sample_format])
    arr = arr.reshape(header.bands, header.rows, header.cols).transpose(1, 2, 0)
    samples = arr.astype(np.float64) / _FORMAT_SCALE[header.sample_format]
    return Cube3D(samples)


# --- synthetic generators ------------------------------------------------------

@dataclass(frozen=True)
class ImageProfile:
    """Natural-image-like generator: power-law 2D DCT spectrum.

    spectral_decay controls smoothness (larger = smoother); the defaults are
    frozen under GENERATOR_VERSION.
    """

    spectral_decay: float = 1.6
    low_range: float = 0.05
    high_range: float = 0.95


@dataclass(frozen=True)
class CubeProfile:
    """Correlated-cube generator: one 2D-DCT-sparse base band, per-band affine
    gains/offsets varying smoothly across bands, plus small sparse innovations.

    With innovation_scale = 0 and gain_amplitude = offset_amplitude = 0 all
    bands are identical.  Frozen under GENERATOR_VERSION.
    """

    base_sparsity: int = 24
    gain_amplitude: float = 0.3
    offset_amplitude: float = 0.05
    innovation_sparsity: int = 2
    innovation_scale: float = 0.01


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(Philox(key=np.array([seed % (1 << 64), stream], dtype=np.uint64)))


def synth_image(seed: int, rows: int, cols: int, profile: ImageProfile | None = None) -> Image2D:
    """Seeded smooth correlated image, normalized into the profile's range."""
    if rows < 2 or cols < 2:
        raise ValueError("need rows >= 2 and cols >= 2")
    profile = profile or ImageProfile()
    rng = _rng(seed, 0x1A6E)
    fr = np.arange(rows)[:, None] / rows
    fc = np.arange(cols)[None, :] / cols
    amplitude = (1.0 + 24.0 * (fr**2 + fc**2)) ** (-profile.spectral_decay)
    coeffs = amplitude * rng.standard_normal((rows, cols))
    coeffs[0, 0] = 0.0
    basis = transforms.separable2d_basis(rows, cols)
    img = transforms.synthesize(basis, coeffs.ravel(order="F")).reshape(rows, cols, order="F")
    lo, hi = img.min(), img.max()
    span = hi - lo if hi > lo else 1.0
    scaled = profile.low_range + (img - lo) / span * (profile.high_range - profile.low_range)
    return Image2D(scaled)


def synth_cube(
    seed: int, rows: int, cols: int, bands: int, profile: CubeProfile | None = None
) -> Cube3D:
    """Seeded correlated cube with affinely related bands."""
    if rows < 2 or cols < 2 or bands < 2:
        raise ValueError("need rows, cols, bands all >= 2")
    profile = profile or CubeProfile()
    rng = _rng(seed, 0xC0BE)

    # base band: sparse low-frequency-biased 2D DCT content
    n = rows * cols
    k = min(profile.base_sparsity, n)
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
    gains = 1.0 + profile.gain_amplitude * np.sin(2 * np.pi * b_idx / bands + phase)
    offsets = profile.offset_amplitude * np.cos(2 * np.pi * b_idx / bands + phase)

    cube = np.empty((rows, cols, bands))
    for b in range(bands):
        band = gains[b] * base + offsets[b]
        if profile.innovation_scale > 0 and profile.innovation_sparsity > 0:
            inn = np.zeros(n)
            inn_support = rng.choice(n, size=min(profile.innovation_sparsity, n), replace=False, p=weight)
            inn[inn_support] = rng.standard_normal(len(inn_support)) * profile.innovation_scale
            band = band + transforms.synthesize(basis, inn).reshape(rows, cols, order="F")
        cube[:, :, b] = band
    return Cube3D(cube)
