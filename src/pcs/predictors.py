"""Linear prediction filters used by the iterative reconstruction loops.

Row filters estimate a row from its upper and lower neighbors:

  P1  plain average of the two rows
  P2  average of the six adjacent pixels (three above, three below)
  P3  distance-weighted average of the same six pixels, weight
      a = (2 - sqrt(2))/4 on the diagonal neighbors and b = (sqrt(2) - 1)/2
      on the vertical ones (4a + 2b = 1 exactly)

Horizontal edges clamp (replicate) the boundary pixel so the weights keep
summing to one.

The band predictor fits the least-squares model of a reference band onto
the current band, target ~ mu_i + alpha*(ref - mu_l), on a block_size x
block_size window around every pixel, and predicts each pixel with the
fitted gain and offset averaged over that same window.  Separate fits per
non-overlapping block would make the prediction jump at the block edges,
and a jump is not sparse in the slice's DCT.  Flat reference windows
(variance at the level of rounding) fall back to alpha = 0, i.e. the window
mean.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

P3_DIAGONAL_WEIGHT = (2.0 - math.sqrt(2.0)) / 4.0
P3_VERTICAL_WEIGHT = (math.sqrt(2.0) - 1.0) / 2.0

_ROW_FILTER_KINDS = ("P1", "P2", "P3")


@dataclass(frozen=True)
class RowFilter:
    kind: str

    def __post_init__(self):
        if self.kind not in _ROW_FILTER_KINDS:
            raise ValueError(f"unknown row filter {self.kind!r}; expected one of {_ROW_FILTER_KINDS}")


P1 = RowFilter("P1")
P2 = RowFilter("P2")
P3 = RowFilter("P3")


@dataclass(frozen=True)
class BlockLSPredictorConfig:
    block_size: int = 16

    def __post_init__(self):
        try:
            operator.index(self.block_size)
        except TypeError:
            raise ValueError(f"block_size must be an integer, got {self.block_size!r}") from None
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")


def _shift_left(rows: np.ndarray) -> np.ndarray:
    # value at j-1, clamped at the left edge
    return np.concatenate([rows[..., :1], rows[..., :-1]], axis=-1)


def _shift_right(rows: np.ndarray) -> np.ndarray:
    # value at j+1, clamped at the right edge
    return np.concatenate([rows[..., 1:], rows[..., -1:]], axis=-1)


def predict_row(flt: RowFilter, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Predict a row from its upper and lower neighbors.

    Accepts single rows or stacks of rows (leading axes are batch).  On a row
    of one sample the clamped edges make every filter (upper + lower)/2.
    """
    upper = np.asarray(upper, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    if upper.shape != lower.shape:
        raise ValueError(f"row shapes differ: {upper.shape} vs {lower.shape}")
    if flt.kind == "P1":
        return 0.5 * (upper + lower)
    vertical = upper + lower
    diagonal = _shift_left(upper) + _shift_right(upper) + _shift_left(lower) + _shift_right(lower)
    if flt.kind == "P2":
        return (vertical + diagonal) / 6.0
    return P3_DIAGONAL_WEIGHT * diagonal + P3_VERTICAL_WEIGHT * vertical


# a reference window whose sum of squared deviations is at most this fraction
# of the band's is flat: the box sums leave a rounding error of about 1e-16 of
# the band's, and a gain fitted on such a window would fit that error
_FLAT_RTOL = 1e-12


def _window_starts(length: int, window: int) -> np.ndarray:
    """Start of the window of each position along an axis: centred on it,
    shifted inward at the edges so that it keeps its full size."""
    return np.clip(np.arange(length) - window // 2, 0, length - window)


def _window_sums(a: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Sums of a over every window of that shape, indexed by its start
    (box sums over cumulative sums, O(pixels))."""
    c = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    c[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    h, w = window
    return c[h:, w:] - c[:-h, w:] - c[h:, :-w] + c[:-h, :-w]


def predict_band_blockls(
    ref_band: np.ndarray,
    target_stats_source: np.ndarray,
    cfg: BlockLSPredictorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided windowed least-squares prediction of a band.

    ref_band is the reconstructed reference band; target_stats_source is the
    reconstruction of the band being predicted (used for mu_i and the
    correlation).  Every pixel's window is block_size x block_size (the band
    where it is smaller), centred on the pixel and shifted inward at the
    edges.  The gain alpha and offset mu_i - alpha*mu_l are fitted on each
    window, and each pixel is predicted with their averages over its own
    window: the prediction is smooth, and a band no larger than one block
    gets the single fit over the whole band.  Returns (prediction, alpha
    grid), the grid holding per block of the partition the gain fitted on
    the window at the block's start: the block itself for a full block, the
    full-size window shifted inward over a trailing partial block.
    """
    cfg = cfg or BlockLSPredictorConfig()
    ref = np.asarray(ref_band, dtype=np.float64)
    tgt = np.asarray(target_stats_source, dtype=np.float64)
    if ref.shape != tgt.shape:
        raise ValueError(f"band shapes differ: {ref.shape} vs {tgt.shape}")
    window = (min(cfg.block_size, ref.shape[0]), min(cfg.block_size, ref.shape[1]))
    count = window[0] * window[1]
    # taking the band means out first keeps the box sums' rounding at the
    # level of the band's variation
    r = ref - ref.mean()
    t = tgt - tgt.mean()
    sum_r, sum_t = _window_sums(r, window), _window_sums(t, window)
    var = _window_sums(r * r, window) - sum_r * sum_r / count
    cov = _window_sums(r * t, window) - sum_r * sum_t / count
    fitted = var > _FLAT_RTOL * np.sum(r * r)
    alpha = np.where(fitted, cov / np.where(fitted, var, 1.0), 0.0)
    offset = (sum_t - alpha * sum_r) / count
    pixel = np.ix_(*(_window_starts(size, win) for size, win in zip(ref.shape, window)))
    alpha_mean = _window_sums(alpha[pixel], window)[pixel] / count
    offset_mean = _window_sums(offset[pixel], window)[pixel] / count
    pred = tgt.mean() + alpha_mean * r + offset_mean
    blocks = np.ix_(*(np.minimum(np.arange(0, size, cfg.block_size), size - win)
                      for size, win in zip(ref.shape, window)))
    return pred, alpha[blocks]


def predict_band_twosided(
    prev_band: np.ndarray | None,
    next_band: np.ndarray | None,
    current_stats: np.ndarray,
    cfg: BlockLSPredictorConfig | None = None,
) -> np.ndarray:
    """Average of the one-sided predictions from the previous and next band.

    At the first/last band exactly one neighbor exists and its one-sided
    prediction is used alone.
    """
    if prev_band is None and next_band is None:
        raise ValueError("need at least one of prev_band / next_band")
    parts = []
    for ref in (prev_band, next_band):
        if ref is not None:
            parts.append(predict_band_blockls(ref, current_stats, cfg)[0])
    return parts[0] if len(parts) == 1 else 0.5 * (parts[0] + parts[1])
