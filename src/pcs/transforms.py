"""Orthonormal sparsity bases: identity, 1D DCT, and separable 2D/3D DCT.

Vectors are stacked column-major: a signal array with axis lengths
``dims = (d0, d1, ...)`` maps to a flat vector by Fortran-order ravel, so
the first axis varies fastest.  For a 2D image X this is the usual
"stack the columns of X" convention, and for a cube indexed
(row, col, band) the bands end up stacked one after another.  Separable
bases apply their per-axis 1D factors directly on the reshaped array, so
the equivalent (Kronecker-product) dense matrix is never formed.

The DCT factor is the orthonormal DCT-II (analysis) / DCT-III (synthesis)
pair, so every basis here satisfies ``analyze(synthesize(theta)) == theta``
and preserves the l2 norm.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

IDENTITY = "identity"
DCT = "dct"


@dataclass(frozen=True)
class SparsityBasis:
    """Orthonormal synthesis operator over a flat, column-major stacked vector.

    dims:    axis lengths, fastest-varying axis first
    factors: per-axis 1D factor ("dct" or "identity"), same length as dims
    """

    dims: tuple[int, ...]
    factors: tuple[str, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.factors):
            raise ValueError("dims and factors must have the same length")
        if any(d < 1 for d in self.dims):
            raise ValueError("every axis length must be >= 1")
        for f in self.factors:
            if f not in (IDENTITY, DCT):
                raise ValueError(f"unknown factor {f!r}")

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))


def identity_basis(n: int) -> SparsityBasis:
    return SparsityBasis((n,), (IDENTITY,))


def dct1d_basis(n: int) -> SparsityBasis:
    return SparsityBasis((n,), (DCT,))


def separable2d_basis(d0: int, d1: int, factors=(DCT, DCT)) -> SparsityBasis:
    return SparsityBasis((d0, d1), tuple(factors))


def join_slice_axis(slice_basis: SparsityBasis, slices: int, cross: str) -> SparsityBasis:
    """The joint basis Psi_cross (x) slice_basis over slices stacked slices:
    the slice axis is joined last, with the cross-slice factor cross."""
    return SparsityBasis(slice_basis.dims + (slices,), slice_basis.factors + (cross,))


def _check_length(basis: SparsityBasis, v: np.ndarray) -> None:
    if v.shape[-1] != basis.size:
        raise ValueError(
            f"vector length {v.shape[-1]} does not match basis size {basis.size}"
        )


def _apply(basis: SparsityBasis, v: np.ndarray, dct_type: int) -> np.ndarray:
    """Apply the per-axis factors to flat vectors (leading axes are batch)."""
    v = np.asarray(v, dtype=np.float64)
    _check_length(basis, v)
    if all(f == IDENTITY for f in basis.factors):
        return v.copy()
    batch = v.shape[:-1]
    # C-order reshape onto reversed dims realizes the Fortran stacking of dims
    arr = v.reshape(batch + basis.dims[::-1])
    nd = arr.ndim
    for j, f in enumerate(basis.factors):
        if f == DCT:
            arr = dct(arr, type=dct_type, axis=nd - 1 - j, norm="ortho")
    return np.ascontiguousarray(arr).reshape(batch + (basis.size,))


def synthesize(basis: SparsityBasis, theta: np.ndarray) -> np.ndarray:
    """Coefficients -> signal (x = synthesis operator applied to theta)."""
    return _apply(basis, theta, dct_type=3)


def analyze(basis: SparsityBasis, x: np.ndarray) -> np.ndarray:
    """Signal -> coefficients; exact inverse of synthesize."""
    return _apply(basis, x, dct_type=2)


def dct_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DCT-II analysis matrix, built from its definition.

    Row k is sqrt(2/n)*cos(pi*(2j+1)*k/(2n)) with the k=0 row scaled by
    1/sqrt(2).  It is the cross-slice factor of the joint sensing operator
    over a few slices (solvers.BatchedOperator), where one S x S product
    beats a transform call on a short axis, and an independent oracle
    against the fast transform.
    """
    j = np.arange(n)
    k = np.arange(n)[:, None]
    mat = np.cos(np.pi * (2 * j + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat
