"""Quality and compressibility measurements."""

import numpy as np

from . import transforms

# per-row DCT threshold: theta_th = _THRESHOLD_MULTIPLIER * ||theta||_1 / n, n the row length
_THRESHOLD_MULTIPLIER = 5.0


def mse(a, b) -> float:
    """Mean squared difference over all samples."""
    a = np.asarray(getattr(a, "samples", a), dtype=np.float64)
    b = np.asarray(getattr(b, "samples", b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def row_compressibility(x) -> float:
    """Mean fraction of per-row DCT coefficients at or below the row threshold.

    The comparison is inclusive, so an all-zero row (threshold 0) counts as
    fully compressible.
    """
    arr = np.asarray(getattr(x, "samples", x), dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"need a 2D array, got shape {arr.shape}")
    n = arr.shape[1]
    basis = transforms.dct1d_basis(n)
    theta = transforms.analyze(basis, arr)
    thresholds = _THRESHOLD_MULTIPLIER * np.abs(theta).sum(axis=1) / n
    fractions = (np.abs(theta) <= thresholds[:, None]).mean(axis=1)
    return float(fractions.mean())
