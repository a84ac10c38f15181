import numpy as np
import pytest

from pcs.predictors import (
    P1,
    P2,
    P3,
    P3_DIAGONAL_WEIGHT,
    P3_VERTICAL_WEIGHT,
    BlockLSPredictorConfig,
    RowFilter,
    predict_band_blockls,
    predict_band_twosided,
    predict_row,
)


class TestRowFilters:
    def test_weights_sum_to_one(self):
        assert 4 * P3_DIAGONAL_WEIGHT + 2 * P3_VERTICAL_WEIGHT == pytest.approx(1.0, abs=1e-15)

    def test_p1_is_arithmetic_mean(self):
        np.testing.assert_allclose(
            predict_row(P1, np.array([2.0, 4.0]), np.array([4.0, 8.0])), [3.0, 6.0]
        )

    @pytest.mark.parametrize("flt", [P1, P2, P3])
    def test_constant_preserved(self, flt):
        c = 0.37
        row = np.full(9, c)
        np.testing.assert_allclose(predict_row(flt, row, row), row, atol=1e-15)

    def test_p3_center_value(self):
        # upper = lower = [0,1,0]: center gets 2b from the vertical neighbors
        up = np.array([0.0, 1.0, 0.0])
        pred = predict_row(P3, up, up)
        assert pred[1] == pytest.approx(2 * P3_VERTICAL_WEIGHT)
        assert pred[1] == pytest.approx(0.414214, abs=1e-6)

    def test_p2_is_six_neighbor_mean(self):
        rng = np.random.default_rng(0)
        up, lo = rng.random(7), rng.random(7)
        pred = predict_row(P2, up, lo)
        j = 3
        manual = (up[j - 1] + up[j] + up[j + 1] + lo[j - 1] + lo[j] + lo[j + 1]) / 6.0
        assert pred[j] == pytest.approx(manual, abs=1e-15)

    def test_edges_clamp(self):
        up = np.array([1.0, 0.0, 0.0, 2.0])
        lo = np.zeros(4)
        pred = predict_row(P3, up, lo)
        # at the left edge the clamped diagonal neighbor duplicates up[0], so
        # up[0] enters once diagonally (a) and once vertically (b)
        a, b = P3_DIAGONAL_WEIGHT, P3_VERTICAL_WEIGHT
        assert pred[0] == pytest.approx((a + b) * 1.0 + a * 0.0)
        assert pred[-1] == pytest.approx((a + b) * 2.0 + a * 0.0)

    @pytest.mark.parametrize("flt", [P1, P2, P3])
    def test_linearity(self, flt):
        rng = np.random.default_rng(1)
        u, up, lo, lop = (rng.random(11) for _ in range(4))
        a, b = 1.3, -2.1
        lhs = predict_row(flt, a * u + b * up, a * lo + b * lop)
        rhs = a * predict_row(flt, u, lo) + b * predict_row(flt, up, lop)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        ups, los = rng.random((5, 8)), rng.random((5, 8))
        batched = predict_row(P3, ups, los)
        for i in range(5):
            np.testing.assert_allclose(batched[i], predict_row(P3, ups[i], los[i]))

    def test_validation(self):
        with pytest.raises(ValueError):
            RowFilter("P4")
        with pytest.raises(ValueError):
            predict_row(P1, np.zeros(3), np.zeros(4))
        # a row of one sample is predicted too: the clamped edges make every
        # filter the mean of the two neighbors
        for flt in (P1, P2, P3):
            np.testing.assert_allclose(predict_row(flt, np.array([0.25]), np.array([1.75])), [1.0],
                                       rtol=1e-15)


class TestBlockLS:
    @pytest.mark.parametrize("bad", [4.5, np.float64(4.0), "8"])
    def test_non_integer_block_size_refused(self, bad):
        with pytest.raises(ValueError, match="block_size must be an integer"):
            BlockLSPredictorConfig(block_size=bad)
        # numpy integers are integers
        assert BlockLSPredictorConfig(block_size=np.int64(4)).block_size == 4

    def test_affine_band_predicted_exactly(self):
        rng = np.random.default_rng(3)
        ref = rng.random((16, 16))
        target = 2.0 * ref + 5.0
        pred, alphas = predict_band_blockls(ref, target)
        np.testing.assert_allclose(alphas, 2.0, atol=1e-12)
        np.testing.assert_allclose(pred, target, atol=1e-10)

    def test_flat_reference_falls_back_to_mean(self):
        rng = np.random.default_rng(4)
        ref = np.full((8, 8), 3.0)
        target = rng.random((8, 8))
        pred, alphas = predict_band_blockls(ref, target, BlockLSPredictorConfig(block_size=8))
        assert alphas[0, 0] == 0.0
        np.testing.assert_allclose(pred, np.full((8, 8), target.mean()), atol=1e-12)

    def test_alpha_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        ref, target = rng.random((16, 16)), rng.random((16, 16))
        _, alphas = predict_band_blockls(ref, target, BlockLSPredictorConfig(block_size=16))
        # independent least-squares fit of centered values
        x = (ref - ref.mean()).ravel()
        yv = (target - target.mean()).ravel()
        alpha_ls = np.linalg.lstsq(x[:, None], yv, rcond=None)[0][0]
        assert alphas[0, 0] == pytest.approx(alpha_ls, abs=1e-10)

    def test_alpha_is_ls_optimal(self):
        # perturbing alpha can only increase the within-block squared error
        rng = np.random.default_rng(6)
        ref, target = rng.random((8, 8)), rng.random((8, 8))
        cfg = BlockLSPredictorConfig(block_size=8)
        _, alphas = predict_band_blockls(ref, target, cfg)
        a0 = alphas[0, 0]
        c = ref - ref.mean()
        t = target - target.mean()

        def loss(a):
            return float(np.sum((t - a * c) ** 2))

        assert loss(a0) <= loss(a0 + 1e-4) and loss(a0) <= loss(a0 - 1e-4)

    def test_partial_blocks(self):
        rng = np.random.default_rng(7)
        ref = rng.random((20, 18))
        target = 1.5 * ref - 0.2
        pred, alphas = predict_band_blockls(ref, target)
        assert alphas.shape == (2, 2)
        np.testing.assert_allclose(pred, target, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            predict_band_blockls(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_band_within_one_block_gets_the_single_fit(self):
        # every window is the whole band, so the windowed fit is the one fit
        rng = np.random.default_rng(12)
        ref, target = rng.random((12, 10)), rng.random((12, 10))
        pred, alphas = predict_band_blockls(ref, target)
        c = ref - ref.mean()
        alpha = np.sum(c * (target - target.mean())) / np.sum(c * c)
        assert alphas.shape == (1, 1) and alphas[0, 0] == pytest.approx(alpha, abs=1e-12)
        np.testing.assert_allclose(pred, target.mean() + alpha * c, atol=1e-12)

    def test_grid_holds_the_fit_of_each_block(self):
        # a full block's window is the block itself; a trailing partial
        # block's is the full-size window shifted inward over it
        rng = np.random.default_rng(13)
        ref, target = rng.random((40, 36)), rng.random((40, 36))
        _, alphas = predict_band_blockls(ref, target)
        assert alphas.shape == (3, 3)
        for bi, r0 in enumerate((0, 16, 24)):
            for bj, c0 in enumerate((0, 16, 20)):
                rb, tb = ref[r0:r0 + 16, c0:c0 + 16], target[r0:r0 + 16, c0:c0 + 16]
                x = (rb - rb.mean()).ravel()
                alpha_ls = np.linalg.lstsq(x[:, None], (tb - tb.mean()).ravel(), rcond=None)[0][0]
                assert alphas[bi, bj] == pytest.approx(alpha_ls, abs=1e-10)

    def test_error_does_not_jump_at_block_edges(self):
        # a gain that drifts across the band: separate fits per block would
        # leave a step in the prediction error at every block edge
        yy, xx = np.mgrid[0:40, 0:40] / 40.0
        ref = np.sin(3 * xx + 1) * np.cos(2 * yy) + xx * yy
        target = ref * (1.0 + xx) + 0.3 * yy
        pred, _ = predict_band_blockls(ref, target)
        for axis in (0, 1):
            step = np.abs(np.diff(target - pred, axis=axis))
            edges = np.take(step, [15, 31], axis=axis)
            assert edges.max() <= np.delete(step, [15, 31], axis=axis).max()

    def test_flat_windows_fall_back_to_the_window_mean(self):
        # a reference flat on its left part: the windows there fit no gain
        rng = np.random.default_rng(14)
        ref = np.full((16, 40), 0.1)
        ref[:, 24:] += rng.random((16, 16))
        target = rng.random((16, 40))
        pred, alphas = predict_band_blockls(ref, target)
        assert alphas[0, 0] == 0.0 and alphas[0, 2] != 0.0
        # column 0 averages the fits of columns 0-15, whose windows start at
        # columns 0-7 and are all flat: each contributes its window mean
        means = [target[:, max(j - 8, 0):max(j - 8, 0) + 16].mean() for j in range(16)]
        np.testing.assert_allclose(pred[:, 0], np.mean(means), atol=1e-12)


class TestTwoSided:
    def test_identical_neighbors_equal_one_sided(self):
        rng = np.random.default_rng(8)
        ref = rng.random((16, 16))
        cur = rng.random((16, 16))
        two = predict_band_twosided(ref, ref.copy(), cur)
        one, _ = predict_band_blockls(ref, cur)
        np.testing.assert_allclose(two, one, atol=1e-12)

    def test_boundary_uses_single_side(self):
        rng = np.random.default_rng(9)
        nxt = rng.random((16, 16))
        cur = rng.random((16, 16))
        np.testing.assert_allclose(
            predict_band_twosided(None, nxt, cur), predict_band_blockls(nxt, cur)[0]
        )
        np.testing.assert_allclose(
            predict_band_twosided(nxt, None, cur), predict_band_blockls(nxt, cur)[0]
        )

    def test_average_of_one_sided_predictions(self):
        rng = np.random.default_rng(10)
        prev, nxt, cur = rng.random((18, 16)), rng.random((18, 16)), rng.random((18, 16))
        two = predict_band_twosided(prev, nxt, cur)
        manual = 0.5 * (predict_band_blockls(prev, cur)[0] + predict_band_blockls(nxt, cur)[0])
        np.testing.assert_allclose(two, manual, atol=1e-12)

    def test_both_sides_missing(self):
        with pytest.raises(ValueError):
            predict_band_twosided(None, None, np.zeros((4, 4)))

    def test_identical_bands_fixed_point(self):
        # alpha = 1, means match: prediction reproduces the band exactly
        rng = np.random.default_rng(11)
        band = rng.random((16, 16))
        pred = predict_band_twosided(band, band.copy(), band.copy())
        np.testing.assert_allclose(pred, band, atol=1e-10)
