import numpy as np
import pytest

from pcs import transforms as tr
from pcs.metrics import mse, row_compressibility
from pcs.signals import Cube3D, Image2D


class TestMSE:
    def test_identical(self):
        x = np.random.default_rng(0).random((4, 5))
        assert mse(x, x) == 0.0

    def test_unit_offset(self):
        x = np.random.default_rng(1).random((3, 3))
        assert mse(x, x + 1.0) == pytest.approx(1.0)

    def test_small_example(self):
        assert mse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_accepts_containers(self):
        a = Image2D(np.zeros((2, 2)))
        b = Image2D(np.ones((2, 2)))
        assert mse(a, b) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestRowCompressibility:
    def test_zero_image_fully_compressible(self):
        assert row_compressibility(np.zeros((4, 8))) == 1.0

    def test_single_atom_row(self):
        # one row = single DCT atom: only that coefficient exceeds the threshold
        n = 16
        atom = tr.dct_matrix(n).T[:, 3] * 2.0
        img = np.vstack([atom])
        assert row_compressibility(img) == pytest.approx((n - 1) / n)

    def test_constant_rows(self):
        n = 32
        img = np.full((5, n), 0.7)
        assert row_compressibility(img) == pytest.approx((n - 1) / n)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        img = rng.random((6, 24))
        base = row_compressibility(img)
        for c in (2.0, -3.5, 1e-3):
            assert row_compressibility(c * img) == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            row_compressibility(np.zeros(8))

    def test_unwraps_containers_as_mse_does(self):
        img = np.random.default_rng(4).random((4, 8))
        assert row_compressibility(Image2D(img)) == row_compressibility(img)
        with pytest.raises(ValueError, match="need a 2D array"):
            row_compressibility(Cube3D(np.zeros((4, 8, 2))))
