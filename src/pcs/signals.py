"""Signal containers shared by the acquisition and reconstruction stages."""

from dataclasses import dataclass

import numpy as np


@dataclass
class Image2D:
    """A 2D grayscale image: samples[row, col], nominally in [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(f"Image2D needs a 2D array, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValueError("Image2D needs at least one sample per axis")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("Image2D samples must all be finite")

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    @property
    def n_cols(self) -> int:
        return self.samples.shape[1]


@dataclass
class Cube3D:
    """A 3D data cube: samples[row, col, band], nominally in [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 3:
            raise ValueError(f"Cube3D needs a 3D array, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValueError("Cube3D needs at least one sample per axis")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("Cube3D samples must all be finite")

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    @property
    def n_cols(self) -> int:
        return self.samples.shape[1]

    @property
    def n_bands(self) -> int:
        return self.samples.shape[2]
