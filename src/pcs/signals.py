"""Signal containers shared by the acquisition and reconstruction stages."""

from dataclasses import dataclass

import numpy as np


@dataclass
class _Signal:
    """A finite float64 sample array of the subclass's rank; its shape is samples.shape."""

    samples: np.ndarray

    def __post_init__(self):
        name, rank = type(self).__name__, self._RANK
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != rank:
            raise ValueError(f"{name} needs a {rank}D array, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValueError(f"{name} needs at least one sample per axis")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"{name} samples must all be finite")


class Image2D(_Signal):
    """A 2D grayscale image: samples[row, col], nominally in [0, 1]."""

    _RANK = 2


class Cube3D(_Signal):
    """A 3D data cube: samples[row, col, band], nominally in [0, 1]."""

    _RANK = 3
