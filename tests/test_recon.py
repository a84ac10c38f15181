import time

import numpy as np
import pytest

from pcs import dataio, metrics, predictors, recon, sensing, solvers, transforms
from pcs.predictors import P1, P3, BlockLSPredictorConfig
from pcs.recon import (
    ReconConfig,
    gain_db,
    init_kcs,
    init_separate,
    kcs_basis_for,
    predict_image_rows,
    reconstruct_2d,
    reconstruct_3d,
    slice_basis_for,
)
from pcs.sensing import SeededSensingEnsemble, acquire_bands_3d, acquire_rows_2d
from pcs.signals import Cube3D, Image2D
from pcs.solvers import SolveConfig

TIGHT = SolveConfig(feasibility_tol=1e-9, objective_tol=1e-10, max_solver_iters=20000)


class TestGainDb:
    def test_equal_mse_is_zero(self):
        assert gain_db(0.5, 0.5) == 0.0

    def test_factor_ten(self):
        assert gain_db(10.0, 1.0) == pytest.approx(10.0)

    def test_published_magnitudes(self):
        assert gain_db(4.16e-2, 3.96e-3) == pytest.approx(10.21, abs=0.01)
        assert gain_db(3.59e-3, 6.18e-4) == pytest.approx(7.64, abs=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gain_db(0.0, 1.0)
        with pytest.raises(ValueError):
            gain_db(1.0, -2.0)


class TestInitSeparate:
    def test_square_system_recovers_exactly(self):
        rng = np.random.default_rng(0)
        img = Image2D(rng.random((8, 16)))
        ens = SeededSensingEnsemble(1, 8, 16, 16, non_compressive=True)
        ms = acquire_rows_2d(img, ens)
        rec, warnings = init_separate(ms, solver_cfg=TIGHT)
        assert not warnings
        assert np.abs(rec.samples - img.samples).max() < 1e-6

    def test_zero_measurements_give_zero_signal(self):
        ens = SeededSensingEnsemble(2, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        rec, warnings = init_separate(ms)
        assert np.array_equal(rec.samples, np.zeros((4, 8)))
        assert not warnings

    def test_sparse_rows_match_l0_supports(self):
        # every row 2-sparse in the identity basis, m=8 of n=16
        rng = np.random.default_rng(3)
        x = np.zeros((8, 16))
        for i in range(8):
            x[i, rng.choice(16, 2, replace=False)] = rng.normal(0, 1, 2) + 0.5
        ens = SeededSensingEnsemble(4, 8, 8, 16)
        ms = acquire_rows_2d(Image2D(x), ens)
        rec, _ = init_separate(ms, transforms.identity_basis(16), TIGHT)
        for i in range(8):
            phi = sensing.draw_sensing_matrix(ens, i)
            oracle = solvers.solve_l0_bruteforce(phi, ms.y[i], 2)
            got = set(np.argsort(np.abs(rec.samples[i]))[-2:])
            assert got == set(np.flatnonzero(oracle.theta_hat))

    def test_wrong_basis_size(self):
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        with pytest.raises(ValueError):
            init_separate(ms, transforms.dct1d_basis(9))


class TestInitKCS:
    def test_single_band_equals_separate(self):
        rng = np.random.default_rng(5)
        cube = Cube3D(rng.random((4, 4, 1)) * 0.1 + dataio.synth_image(1, 4, 4).samples[..., None])
        ens = SeededSensingEnsemble(6, 1, 10, 16)
        ms = acquire_bands_3d(cube, ens)
        sep, _ = init_separate(ms, solver_cfg=TIGHT)
        kcs, conv = init_kcs(ms, solver_cfg=TIGHT)
        assert conv
        assert np.abs(sep.samples - kcs.samples).max() < 1e-8

    def test_square_blocks_recover_exactly(self):
        rng = np.random.default_rng(7)
        cube = Cube3D(rng.random((4, 4, 2)))
        ens = SeededSensingEnsemble(8, 2, 16, 16, non_compressive=True)
        ms = acquire_bands_3d(cube, ens)
        rec, conv = init_kcs(ms, solver_cfg=TIGHT)
        assert conv
        assert np.abs(rec.samples - cube.samples).max() < 1e-6

    def test_beats_separate_at_low_rate(self):
        # m = n/8: joint spectral modelling should win on most seeds
        wins = 0
        for seed in range(5):
            cube = dataio.synth_cube(100 + seed, 8, 8, 4)
            ens = SeededSensingEnsemble(200 + seed, 4, 8, 64)
            ms = acquire_bands_3d(cube, ens)
            sep, _ = init_separate(ms)
            kcs, _ = init_kcs(ms)
            wins += metrics.mse(kcs, cube) < metrics.mse(sep, cube)
        assert wins >= 4

    def test_size_guard(self):
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        with pytest.raises(ValueError):
            init_kcs(ms, max_unknowns=16)


class TestReconstruct2D:
    def test_fixed_point_at_truth_square_system(self):
        rng = np.random.default_rng(9)
        img = Image2D(rng.random((6, 12)))
        ens = SeededSensingEnsemble(10, 6, 12, 12, non_compressive=True)
        ms = acquire_rows_2d(img, ens)
        cfg = ReconConfig(filter=P3, max_outer_iters=1, solver=TIGHT)
        rec, report = reconstruct_2d(ms, None, cfg, ground_truth=img)
        # init is exact, so iteration 1 must leave the image (nearly) unchanged
        assert report.mse_trace[0] < 1e-10
        assert report.mse_trace[-1] < 1e-10

    def test_identical_rows_p1_is_fixed_point(self):
        row = dataio.synth_image(11, 2, 24).samples[0]
        img = Image2D(np.tile(row, (8, 1)))
        ens = SeededSensingEnsemble(12, 8, 24, 24, non_compressive=True)
        ms = acquire_rows_2d(img, ens)
        cfg = ReconConfig(filter=P1, max_outer_iters=3, solver=TIGHT)
        rec, report = reconstruct_2d(ms, None, cfg, ground_truth=img)
        assert report.converged
        assert report.mse_trace[-1] < 1e-10

    def test_exact_prediction_sweep_changes_nothing(self):
        # prediction == truth and consistent measurements: e_y = 0 exactly
        img = dataio.synth_image(13, 16, 16)
        ens = SeededSensingEnsemble(14, 16, 8, 16)
        ms = acquire_rows_2d(img, ens)
        provider = recon._PhiProvider(ens, 1 << 28)
        cfg = SolveConfig()
        new, warnings = recon._residual_sweep(ms, slice_basis_for(ms), cfg, img.samples, provider)
        assert not warnings
        assert np.linalg.norm(new - img.samples) <= 10 * cfg.feasibility_tol

    def test_iterations_improve_mse(self):
        img = dataio.synth_image(15, 32, 32)
        ens = SeededSensingEnsemble(16, 32, 12, 32)
        ms = acquire_rows_2d(img, ens)
        cfg = ReconConfig(max_outer_iters=4)
        _, report = reconstruct_2d(ms, None, cfg, ground_truth=img)
        assert report.mse_trace[-1] < report.mse_trace[0]

    def test_measurement_consistency_after_iteration(self):
        img = dataio.synth_image(17, 16, 24)
        ens = SeededSensingEnsemble(18, 16, 10, 24)
        ms = acquire_rows_2d(img, ens)
        cfg = ReconConfig(max_outer_iters=2)
        rec, report = reconstruct_2d(ms, None, cfg)
        x_prev_pred = None
        # re-derive the last sweep's prediction to bound per-row residuals
        cfg1 = ReconConfig(max_outer_iters=report.iterations_run - 1) if report.iterations_run > 1 else None
        prev, _ = reconstruct_2d(ms, None, cfg1) if cfg1 else (None, None)
        base = prev.samples if prev is not None else init_separate(ms)[0].samples
        pred = predict_image_rows(cfg.filter, base)
        warned = {w for _, w in report.solver_warnings}
        for i in range(1, 15):
            if i in warned:
                continue
            phi = sensing.draw_sensing_matrix(ens, i)
            e_y = ms.y[i] - phi @ pred[i]
            achieved = np.linalg.norm(phi @ rec.samples[i] - ms.y[i])
            assert achieved <= cfg.solver.feasibility_tol * np.linalg.norm(e_y) + 1e-12

    def test_deterministic(self):
        img = dataio.synth_image(19, 16, 16)
        ens = SeededSensingEnsemble(20, 16, 6, 16)
        ms = acquire_rows_2d(img, ens)
        cfg = ReconConfig(max_outer_iters=2)
        a, ra = reconstruct_2d(ms, None, cfg, ground_truth=img)
        b, rb = reconstruct_2d(ms, None, cfg, ground_truth=img)
        assert np.array_equal(a.samples, b.samples)
        assert ra.mse_trace == rb.mse_trace

    def test_trace_lengths(self):
        img = dataio.synth_image(21, 12, 12)
        ens = SeededSensingEnsemble(22, 12, 5, 12)
        ms = acquire_rows_2d(img, ens)
        _, report = reconstruct_2d(ms, None, ReconConfig(max_outer_iters=3), ground_truth=img)
        n = report.iterations_run + 1
        assert len(report.mse_trace) == n
        assert len(report.rel_change_trace) == n
        assert len(report.elapsed_trace) == n
        assert len(report.compressibility_trace) == n

    def test_report_csv(self, tmp_path):
        img = dataio.synth_image(23, 12, 12)
        ens = SeededSensingEnsemble(24, 12, 5, 12)
        ms = acquire_rows_2d(img, ens)
        _, report = reconstruct_2d(ms, None, ReconConfig(max_outer_iters=2), ground_truth=img)
        out = tmp_path / "report.csv"
        report.to_csv(out, manifest_digest="abc123")
        lines = out.read_text().splitlines()
        assert lines[0] == "# manifest=abc123"
        assert lines[1] == "iteration,mse,relative_change,elapsed_seconds"
        assert len(lines) == report.iterations_run + 3

    def test_report_clock_includes_initialization(self, monkeypatch):
        img = dataio.synth_image(23, 12, 12)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(24, 12, 5, 12))
        fast_init = recon.init_separate

        def slow_init(*args, **kwargs):
            time.sleep(0.2)
            return fast_init(*args, **kwargs)

        monkeypatch.setattr(recon, "init_separate", slow_init)
        _, report = reconstruct_2d(ms, None, ReconConfig(max_outer_iters=1))
        assert report.elapsed_trace[0] >= 0.2
        assert report.elapsed_seconds >= report.elapsed_trace[-1] >= 0.2

    @pytest.mark.parametrize("init", [recon.INIT_SEPARATE, recon.INIT_KCS])
    def test_sensing_matrices_drawn_once(self, monkeypatch, init):
        img = dataio.synth_image(23, 12, 12)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(24, 12, 5, 12))
        draws = []
        draw = sensing.draw_sensing_stack

        def counting_draw(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(sensing, "draw_sensing_stack", counting_draw)
        reconstruct_2d(ms, None, ReconConfig(init=init, max_outer_iters=2))
        assert draws == [(ms.ensemble, 0, 12)]

    def test_layout_and_filter_validation(self):
        cube = dataio.synth_cube(25, 4, 4, 2)
        ens = SeededSensingEnsemble(26, 2, 8, 16)
        ms = acquire_bands_3d(cube, ens)
        with pytest.raises(ValueError):
            reconstruct_2d(ms)
        img = dataio.synth_image(27, 8, 8)
        ens2 = SeededSensingEnsemble(28, 8, 4, 8)
        ms2 = acquire_rows_2d(img, ens2)
        with pytest.raises(ValueError):
            reconstruct_2d(ms2, cfg=ReconConfig(filter=BlockLSPredictorConfig()))


class TestReconstruct3D:
    def test_identical_bands_fixed_point(self):
        base = dataio.synth_image(31, 8, 8).samples
        cube = Cube3D(np.repeat(base[:, :, None], 4, axis=2))
        ens = SeededSensingEnsemble(32, 4, 64, 64, non_compressive=True)
        ms = acquire_bands_3d(cube, ens)
        cfg = ReconConfig(filter=BlockLSPredictorConfig(block_size=8), max_outer_iters=3, solver=TIGHT)
        rec, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert report.mse_trace[0] < 1e-10
        assert report.mse_trace[-1] < 1e-10
        assert report.converged

    def test_band_iterations_improve(self):
        cube = dataio.synth_cube(33, 16, 16, 6)
        ens = SeededSensingEnsemble(34, 6, 64, 256)
        ms = acquire_bands_3d(cube, ens)
        cfg = ReconConfig(filter=BlockLSPredictorConfig(), max_outer_iters=5)
        _, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert report.mse_trace[-1] < report.mse_trace[0]
        assert gain_db(report.mse_trace[0], report.mse_trace[-1]) > 1.0

    def test_spectral_rows_mode(self):
        cube = dataio.synth_cube(35, 12, 8, 4)
        ens = SeededSensingEnsemble(36, 12, 10, 32)
        ms = sensing.acquire_spectral_rows_3d(cube, ens)
        cfg = ReconConfig(filter=P1, iterate_axis=recon.AXIS_SPECTRAL_ROWS, max_outer_iters=3)
        _, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert report.mse_trace[-1] <= report.mse_trace[0]

    def test_axis_layout_mismatch(self):
        cube = dataio.synth_cube(37, 8, 8, 4)
        ens = SeededSensingEnsemble(38, 4, 16, 64)
        ms = acquire_bands_3d(cube, ens)
        cfg = ReconConfig(filter=P1, iterate_axis=recon.AXIS_SPECTRAL_ROWS)
        with pytest.raises(ValueError):
            reconstruct_3d(ms, None, cfg)

    def test_filter_type_checked(self):
        cube = dataio.synth_cube(39, 8, 8, 4)
        ens = SeededSensingEnsemble(40, 4, 16, 64)
        ms = acquire_bands_3d(cube, ens)
        with pytest.raises(ValueError):
            reconstruct_3d(ms, None, ReconConfig(filter=P1, iterate_axis=recon.AXIS_BANDS))


class TestMatrixCache:
    """Above the cache cap the sensing matrices are redrawn for every sweep;
    the numbers must not change."""

    @staticmethod
    def _both(monkeypatch, run):
        cached = run()
        monkeypatch.setattr(recon, "MATRIX_CACHE_BYTES", 0)
        return cached, run()

    def test_separate_2d_redraw_is_bit_identical(self, monkeypatch):
        img = dataio.synth_image(50, 16, 16)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(51, 16, 6, 16))
        cfg = ReconConfig(max_outer_iters=2)
        (a, ra), (b, rb) = self._both(monkeypatch, lambda: reconstruct_2d(ms, None, cfg, ground_truth=img))
        assert np.array_equal(a.samples, b.samples)
        assert ra.mse_trace == rb.mse_trace

    def test_kcs_3d_redraw_is_bit_identical(self, monkeypatch):
        cube = dataio.synth_cube(52, 8, 8, 4)
        ms = acquire_bands_3d(cube, SeededSensingEnsemble(53, 4, 24, 64))
        cfg = ReconConfig(init=recon.INIT_KCS, filter=BlockLSPredictorConfig(), max_outer_iters=2)
        (a, ra), (b, rb) = self._both(monkeypatch, lambda: reconstruct_3d(ms, None, cfg, ground_truth=cube))
        assert np.array_equal(a.samples, b.samples)
        assert ra.mse_trace == rb.mse_trace


class TestKCSBasis:
    def test_joint_basis_consistent_with_stacking(self):
        # synthesizing joint coefficients and slicing must equal acting on the
        # dense Kronecker matrix with the stacked ordering
        cube = dataio.synth_cube(41, 4, 3, 2)
        ens = SeededSensingEnsemble(42, 2, 6, 12)
        ms = acquire_bands_3d(cube, ens)
        joint = kcs_basis_for(ms, slice_basis_for(ms))
        stacked = sensing.slices_of(cube.samples, ms.layout).reshape(-1)
        theta = transforms.analyze(joint, stacked)
        np.testing.assert_allclose(transforms.synthesize(joint, theta), stacked, atol=1e-10)
        dense = transforms.dense_synthesis_matrix(joint)
        np.testing.assert_allclose(dense @ theta, stacked, atol=1e-10)

    def test_rows2d_joint_basis_consistent(self):
        img = dataio.synth_image(45, 4, 6)
        ens = SeededSensingEnsemble(46, 4, 3, 6)
        ms = acquire_rows_2d(img, ens)
        joint = kcs_basis_for(ms, slice_basis_for(ms))
        stacked = img.samples.reshape(-1)  # row-major stack = per-row slices
        theta = transforms.analyze(joint, stacked)
        dense = transforms.dense_synthesis_matrix(joint)
        np.testing.assert_allclose(dense @ theta, stacked, atol=1e-10)
        y = sensing.block_diag_apply(ens, stacked)
        np.testing.assert_allclose(y, ms.y.reshape(-1), atol=1e-10)

    def test_rows2d_kcs_beats_separate_on_correlated_image(self):
        img = dataio.synth_image(47, 16, 16)
        ens = SeededSensingEnsemble(48, 16, 4, 16)  # m = n/4, rows correlated
        ms = acquire_rows_2d(img, ens)
        sep, _ = init_separate(ms)
        kcs, _ = init_kcs(ms)
        assert metrics.mse(kcs, img) < metrics.mse(sep, img)

    def test_block_diag_times_joint_synthesis_matches_measurements(self):
        cube = dataio.synth_cube(43, 4, 3, 2)
        ens = SeededSensingEnsemble(44, 2, 6, 12)
        ms = acquire_bands_3d(cube, ens)
        joint = kcs_basis_for(ms, slice_basis_for(ms))
        stacked = sensing.slices_of(cube.samples, ms.layout).reshape(-1)
        theta = transforms.analyze(joint, stacked)
        y = sensing.block_diag_apply(ens, transforms.synthesize(joint, theta))
        np.testing.assert_allclose(y, ms.y.reshape(-1), atol=1e-10)


def test_flatbed_identity_basis_trend():
    # graphics-like scene (zero background, sparse strokes), identity basis:
    # more measurements converge to a lower MSE
    rng = np.random.default_rng(0)
    img = np.zeros((48, 32))
    for _ in range(6):
        r = rng.integers(4, 44)
        c0, c1 = sorted(rng.integers(0, 32, 2))
        img[r : r + 2, c0 : c1 + 1] = rng.uniform(0.5, 1.0)
    for _ in range(4):
        c = rng.integers(2, 30)
        r0, r1 = sorted(rng.integers(0, 48, 2))
        img[r0 : r1 + 1, c : c + 1] = rng.uniform(0.5, 1.0)
    image = Image2D(img)

    # (the published step counts use an unstated stopping rule, so only the
    # converged-MSE ordering is asserted here)
    finals = []
    for m in (6, 12, 24):
        ens = SeededSensingEnsemble(5, 48, m, 32)
        ms = acquire_rows_2d(image, ens)
        cfg = ReconConfig(filter=P3, max_outer_iters=20)
        _, rep = reconstruct_2d(ms, transforms.identity_basis(32), cfg, ground_truth=image)
        finals.append(min(rep.mse_trace))
    assert finals[0] > finals[1] > finals[2]


def test_trend_median_final_below_median_init():
    # small-scale version of the statistical trend property (m = n/4)
    inits, finals = [], []
    for seed in range(3):
        img = dataio.synth_image(500 + seed, 32, 32)
        ens = SeededSensingEnsemble(600 + seed, 32, 8, 32)
        ms = acquire_rows_2d(img, ens)
        _, report = reconstruct_2d(ms, None, ReconConfig(max_outer_iters=4), ground_truth=img)
        inits.append(report.mse_trace[0])
        finals.append(report.mse_trace[-1])
    assert np.median(finals) < np.median(inits)
