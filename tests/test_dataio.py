import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pcs.dataio import (
    CubeHeader,
    CubeProfile,
    ImageProfile,
    import_raw_cube,
    load_cube,
    load_image,
    save_cube,
    save_image,
    synth_cube,
    synth_image,
)
from pcs.signals import Cube3D, Image2D


class TestPGM:
    def test_small_8bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
        img = load_image(path)
        np.testing.assert_allclose(img.samples, [[0.0, 1.0], [1.0, 0.0]])

    def test_16bit_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        payload = np.array([32768], dtype=">u2").tobytes()
        path.write_bytes(b"P5\n1 1\n65535\n" + payload)
        img = load_image(path)
        assert img.samples[0, 0] == pytest.approx(32768 / 65535)
        assert img.samples[0, 0] == pytest.approx(0.50001, abs=1e-5)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# maxval next\n255\n" + bytes([10, 20]))
        img = load_image(path)
        np.testing.assert_allclose(img.samples, [[10 / 255, 20 / 255]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255]))
        with pytest.raises(ValueError):
            load_image(path)

    def test_not_p5(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
        with pytest.raises(ValueError):
            load_image(path)

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image2D(rng.random((5, 7)))
        for maxval in (255, 65535):
            path = tmp_path / f"rt{maxval}.pgm"
            save_image(img, path, maxval=maxval)
            back = load_image(path)
            assert np.abs(back.samples - img.samples).max() <= 0.5 / maxval + 1e-12


class TestCubeFiles:
    def test_f64_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        cube = Cube3D(rng.random((2, 3, 2)))
        path = tmp_path / "c.pcs3"
        save_cube(cube, path)
        back = load_cube(path)
        assert np.array_equal(back.samples, cube.samples)

    @settings(max_examples=30, deadline=None)
    @given(samples=arrays(np.float64, st.tuples(*[st.integers(1, 5)] * 3),
                          elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_f64_round_trip_property(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.pcs3"
            save_cube(Cube3D(samples), path)
            back = load_cube(path)
        assert np.array_equal(back.samples, samples)

    def test_u16_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(2)
        cube = Cube3D(rng.random((3, 4, 2)))
        path = tmp_path / "c.pcs3"
        save_cube(cube, path, sample_format="u16le")
        back = load_cube(path)
        assert np.abs(back.samples - cube.samples).max() <= 0.5 / 65535 + 1e-12

    def test_header_payload_mismatch(self, tmp_path):
        cube = Cube3D(np.zeros((2, 2, 2)))
        path = tmp_path / "c.pcs3"
        save_cube(cube, path)
        data = path.read_bytes()
        # claim 3 bands but keep the 2-band payload
        bands3 = data[:16] + (3).to_bytes(4, "little") + data[20:]
        path.write_bytes(bands3)
        with pytest.raises(ValueError):
            load_cube(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.pcs3"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(ValueError):
            load_cube(path)

    def test_import_raw(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 65535, size=(2, 3, 4), dtype=np.uint16)  # band,row,col
        path = tmp_path / "raw.bin"
        path.write_bytes(vals.astype("<u2").tobytes())
        cube = import_raw_cube(path, CubeHeader(3, 4, 2, "u16le"))
        assert cube.samples.shape == (3, 4, 2)
        assert cube.samples[1, 2, 0] == pytest.approx(vals[0, 1, 2] / 65535)
        with pytest.raises(ValueError):
            import_raw_cube(path, CubeHeader(3, 4, 3, "u16le"))

    def test_bsq_band_order(self, tmp_path):
        cube = Cube3D(np.stack([np.zeros((2, 2)), np.ones((2, 2))], axis=2))
        path = tmp_path / "c.pcs3"
        save_cube(cube, path, sample_format="u8")
        payload = path.read_bytes()[32:]
        assert payload == bytes([0, 0, 0, 0, 255, 255, 255, 255])


class TestSynthImage:
    def test_deterministic(self):
        a = synth_image(5, 16, 16)
        b = synth_image(5, 16, 16)
        assert np.array_equal(a.samples, b.samples)
        c = synth_image(6, 16, 16)
        assert not np.array_equal(a.samples, c.samples)

    def test_range(self):
        img = synth_image(1, 32, 24)
        assert img.samples.min() >= 0.0 and img.samples.max() <= 1.0

    def test_vertically_correlated(self):
        img = synth_image(2, 64, 64).samples
        adjacent = np.mean((img[1:] - img[:-1]) ** 2)
        shuffled = np.mean((img - img[::-1]) ** 2)
        assert adjacent < shuffled


class TestSynthCube:
    def test_deterministic(self):
        a = synth_cube(7, 8, 8, 4)
        b = synth_cube(7, 8, 8, 4)
        assert np.array_equal(a.samples, b.samples)

    def test_degenerate_profile_gives_identical_bands(self):
        profile = CubeProfile(gain_amplitude=0.0, offset_amplitude=0.0, innovation_scale=0.0)
        cube = synth_cube(3, 8, 8, 4, profile)
        for b in range(1, 4):
            np.testing.assert_allclose(cube.samples[:, :, b], cube.samples[:, :, 0], atol=1e-12)

    def test_adjacent_bands_more_correlated_than_far(self):
        cube = synth_cube(11, 16, 16, 8).samples
        flat = cube.reshape(-1, 8)

        def corr(i, j):
            a, b = flat[:, i] - flat[:, i].mean(), flat[:, j] - flat[:, j].mean()
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

        near = np.mean([corr(i, i + 1) for i in range(7)])
        far = np.mean([corr(i, (i + 4) % 8) for i in range(8)])
        assert near > far

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_cube(0, 1, 8, 4)
        with pytest.raises(ValueError):
            synth_image(0, 1, 8)
