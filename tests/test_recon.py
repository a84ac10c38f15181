import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pcs import dataio, metrics, predictors, recon, sensing, solvers, transforms
from pcs.predictors import P1, P3, BlockLSPredictorConfig
from pcs.recon import (
    ReconConfig,
    gain_db,
    init_kcs,
    init_separate,
    predict_slice_rows,
    reconstruct_2d,
    reconstruct_3d,
    slice_basis_for,
)
from pcs.sensing import Layout, SeededSensingEnsemble, acquire_bands_3d, acquire_rows_2d, acquire_spectral_rows_3d
from pcs.signals import Cube3D, Image2D
from pcs.solvers import SolveConfig

from oracles import dense_block_diag, dense_synthesis_matrix, separable3d_basis, solve_l0_bruteforce

TIGHT = SolveConfig(feasibility_tol=1e-9, objective_tol=1e-10, max_solver_iters=20000)


def joint_basis(ms):
    """init_kcs's joint basis: the default slice basis with a DCT across slices, joined last."""
    return transforms.join_slice_axis(slice_basis_for(ms), ms.ensemble.num_slices, transforms.DCT)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_convergence_tol_refused(bad):
    with pytest.raises(ValueError, match="convergence_tol must be finite and > 0"):
        ReconConfig(convergence_tol=bad)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), "8"])
def test_non_integer_outer_iteration_count_refused(bad):
    with pytest.raises(ValueError, match="max_outer_iters must be an integer"):
        ReconConfig(max_outer_iters=bad)
    # numpy integers are integers
    assert ReconConfig(max_outer_iters=np.int64(3)).max_outer_iters == 3


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
            oracle = solve_l0_bruteforce(phi, ms.y[i], 2)
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
        kcs, unconverged = init_kcs(ms, solver_cfg=TIGHT)
        assert unconverged == []
        assert np.abs(sep.samples - kcs.samples).max() < 1e-8

    def test_square_blocks_recover_exactly(self):
        rng = np.random.default_rng(7)
        cube = Cube3D(rng.random((4, 4, 2)))
        ens = SeededSensingEnsemble(8, 2, 16, 16, non_compressive=True)
        ms = acquire_bands_3d(cube, ens)
        rec, unconverged = init_kcs(ms, solver_cfg=TIGHT)
        assert unconverged == []
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

    def test_size_guard(self, monkeypatch):
        # the joint solve needs the whole stack at once: over the matrix budget
        # it is refused before one matrix is drawn
        ens = SeededSensingEnsemble(0, 4, 3, 8)
        ms = acquire_rows_2d(Image2D(np.zeros((4, 8))), ens)
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 3 * 3 * 8 * 8)
        draws = []
        draw = sensing.draw_sensing_matrix
        monkeypatch.setattr(sensing, "draw_sensing_matrix", lambda *a: draws.append(a) or draw(*a))
        with pytest.raises(ValueError, match="a stack of 4 3 x 8 matrices exceeds 576 bytes"):
            init_kcs(ms)
        assert draws == []

    @pytest.mark.parametrize("acquire, scene, ens", [
        (acquire_rows_2d, lambda: dataio.synth_image(70, 8, 16), SeededSensingEnsemble(71, 8, 6, 16)),
        (acquire_bands_3d, lambda: dataio.synth_cube(72, 6, 6, 4), SeededSensingEnsemble(73, 4, 12, 36)),
        (acquire_spectral_rows_3d, lambda: dataio.synth_cube(74, 4, 6, 3),
         SeededSensingEnsemble(75, 4, 6, 18)),
    ], ids=["rows2d", "bands3d", "spectral_rows3d"])
    def test_matches_the_joint_solve_on_raw_matrices(self, monkeypatch, acquire, scene, ens):
        # the composed stack with only the cross-slice factor inside the
        # operator poses the same problem as the materialized block-diagonal
        # raw matrix with the full joint basis, solved as one dense problem.
        # The posing does not depend on the factor's precision, and the two
        # posings' float32 factors round apart, so both sides run the sweep
        # profile with an objective_tol that takes a float64 factor
        ms = acquire(scene(), ens)
        joint = joint_basis(ms)
        cfg = replace(recon.DEFAULT_SWEEP_SOLVER, objective_tol=1e-6)
        assert cfg.objective_tol < solvers._FLOAT32_TOL
        raw = solvers.solve_l1(dense_block_diag(ens), joint, ms.y.reshape(-1), cfg)
        want = sensing.signal_from_slices(
            transforms.synthesize(joint, raw.theta_hat).reshape(ens.num_slices, ens.n), ms.layout,
            ms.signal_shape)
        states = []
        solve = solvers.solve_l1_batch
        monkeypatch.setattr(solvers, "solve_l1_batch", lambda *a: states.append(solve(*a)) or states[-1])
        rec, unconverged = init_kcs(ms, solver_cfg=cfg)
        assert np.linalg.norm(rec.samples - want) <= 1e-10 * np.linalg.norm(want)
        assert states[0].iterations[0] == raw.iterations
        assert (unconverged == []) == states[0].converged[0] == raw.converged

    def test_non_kronecker_joint_basis_rejected(self):
        cube = dataio.synth_cube(76, 4, 4, 3)
        ms = acquire_bands_3d(cube, SeededSensingEnsemble(77, 3, 8, 16))
        # init_kcs takes the slice basis and joins the slice axis itself
        for joint in (transforms.dct1d_basis(48), separable3d_basis(3, 4, 4)):
            with pytest.raises(ValueError, match="basis size"):
                init_kcs(ms, joint)


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
        provider = recon._PhiProvider(ens, slice_basis_for(ms))
        cfg = SolveConfig()
        new, warnings = recon._residual_sweep(ms, cfg, img.samples, provider)
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
        pred = predict_slice_rows(cfg.filter, base, Layout.ROWS_2D, 1)
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

    def test_report_clock_includes_initialization(self, monkeypatch):
        img = dataio.synth_image(23, 12, 12)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(24, 12, 5, 12))
        fast_init = recon.init_separate

        def slow_init(*args, **kwargs):
            time.sleep(0.2)
            return fast_init(*args, **kwargs)

        monkeypatch.setattr(recon, "init_separate", slow_init)
        _, report = reconstruct_2d(ms, None, ReconConfig(max_outer_iters=1))
        assert report.elapsed_trace[-1] >= report.elapsed_trace[0] >= 0.2

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

    @pytest.mark.parametrize("layout", list(Layout), ids=["rows2d", "bands3d", "spectral_rows3d"])
    def test_layout_and_filter_validation(self, layout):
        # the layout decides the filter type, and only its own engine takes it
        if layout == Layout.ROWS_2D:
            ms = acquire_rows_2d(dataio.synth_image(27, 8, 8), SeededSensingEnsemble(28, 8, 4, 8))
            engine, other, wrong = reconstruct_2d, reconstruct_3d, BlockLSPredictorConfig()
        elif layout == Layout.BANDS_3D:
            ms = acquire_bands_3d(dataio.synth_cube(25, 4, 4, 2), SeededSensingEnsemble(26, 2, 8, 16))
            engine, other, wrong = reconstruct_3d, reconstruct_2d, P1
        else:
            ms = acquire_spectral_rows_3d(dataio.synth_cube(29, 4, 4, 2), SeededSensingEnsemble(30, 4, 4, 8))
            engine, other, wrong = reconstruct_3d, reconstruct_2d, BlockLSPredictorConfig()
        with pytest.raises(ValueError, match=layout.name):
            engine(ms, cfg=ReconConfig(filter=wrong))
        with pytest.raises(ValueError):
            other(ms)


@pytest.mark.parametrize("what", ["nan-initial", "nan-truth", "wrong-shape-truth"])
def test_bad_initial_or_truth_refused_before_any_solve(monkeypatch, what):
    img = dataio.synth_image(31, 8, 8)
    ms = acquire_rows_2d(img, SeededSensingEnsemble(32, 8, 4, 8))
    bad = img.samples.copy()
    bad[2, 3] = np.nan
    kwargs, message = {
        "nan-initial": ({"initial": bad}, "initial holds non-finite values"),
        "nan-truth": ({"ground_truth": bad}, "ground_truth holds non-finite values"),
        "wrong-shape-truth": ({"ground_truth": img.samples[:6]}, "ground_truth of shape \\(6, 8\\)"),
    }[what]
    solves = []
    solve = solvers.solve_l1_batch
    monkeypatch.setattr(solvers, "solve_l1_batch", lambda *a: solves.append(a) or solve(*a))
    with pytest.raises(ValueError, match=message):
        reconstruct_2d(ms, None, ReconConfig(max_outer_iters=1), **kwargs)
    assert solves == []


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
        cfg = ReconConfig(filter=P1, max_outer_iters=3)
        _, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert report.mse_trace[-1] <= report.mse_trace[0]

    def test_filter_type_checked(self):
        cube = dataio.synth_cube(39, 8, 8, 4)
        ens = SeededSensingEnsemble(40, 4, 16, 64)
        ms = acquire_bands_3d(cube, ens)
        with pytest.raises(ValueError):
            reconstruct_3d(ms, None, ReconConfig(filter=P1))

    def test_kcs_reference_scene_ends_below_its_initialization(self):
        # the benchmark's reference bands3d scene: scene and ensemble seed 0,
        # m=144, KCS init, blockls, 2 iterations.  The joint solve converges,
        # and the loop keeps its better start instead of adding seams to it
        cube = dataio.synth_cube(0, 24, 24, 12)
        ms = acquire_bands_3d(cube, SeededSensingEnsemble(0, 12, 144, 576))
        cfg = ReconConfig(init=recon.INIT_KCS, filter=BlockLSPredictorConfig(), max_outer_iters=2)
        _, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert not report.solver_warnings
        assert report.mse_trace[-1] < report.mse_trace[0]

    @pytest.mark.parametrize("init", [recon.INIT_SEPARATE, recon.INIT_KCS])
    def test_one_band_cube_keeps_its_initialization(self, init):
        # a lone band has no neighbor to predict from: the prediction is the
        # initialization itself, which the sweep leaves where it is
        cube = Cube3D(dataio.synth_image(37, 8, 8).samples[:, :, None])
        ms = acquire_bands_3d(cube, SeededSensingEnsemble(38, 1, 24, 64))
        cfg = ReconConfig(init=init, filter=BlockLSPredictorConfig(), max_outer_iters=2)
        rec, report = reconstruct_3d(ms, None, cfg, ground_truth=cube)
        assert report.converged and report.iterations_run == 1
        assert report.rel_change_trace[1] < cfg.convergence_tol
        assert rec.samples.shape == (8, 8, 1)


# one small scene per layout: acquisition, scene, ensemble, container type
LAYOUT_SCENES = {
    "rows2d": (acquire_rows_2d, lambda: dataio.synth_image(90, 6, 8),
               SeededSensingEnsemble(91, 6, 4, 8), Image2D),
    "bands3d": (acquire_bands_3d, lambda: dataio.synth_cube(92, 4, 4, 3),
                SeededSensingEnsemble(93, 3, 8, 16), Cube3D),
    "spectral_rows3d": (acquire_spectral_rows_3d, lambda: dataio.synth_cube(94, 5, 4, 3),
                        SeededSensingEnsemble(95, 5, 6, 12), Cube3D),
}


@pytest.mark.parametrize("init", [init_separate, init_kcs], ids=["separate", "kcs"])
@pytest.mark.parametrize("layout", list(LAYOUT_SCENES))
def test_both_initializations_share_one_contract(init, layout):
    # the same arguments (measurements, slice basis, solver profile, provider)
    # and the same return: a container of the layout's type and the
    # unconverged slices as ints (-1 for the joint solve)
    acquire, scene, ens, container = LAYOUT_SCENES[layout]
    ms = acquire(scene(), ens)
    basis = slice_basis_for(ms)
    provider = recon._PhiProvider(ens, basis)
    rec, unconverged = init(ms, basis=basis, solver_cfg=SolveConfig(max_solver_iters=25),
                            provider=provider)
    assert type(rec) is container and rec.samples.shape == ms.signal_shape
    assert type(unconverged) is list and unconverged
    assert all(type(i) is int and -1 <= i < ens.num_slices for i in unconverged)


@pytest.mark.parametrize("layout", ["rows2d", "spectral_rows3d"])
def test_row_filter_prediction_at_the_edges(monkeypatch, layout):
    # the sweeps leave an image's first and last row to the initialization, so
    # they keep the previous iterate; a cube's first and last spectral rows are
    # solved, so each is predicted from its one neighbor
    acquire, scene, ens, _ = LAYOUT_SCENES[layout]
    truth = scene()
    ms = acquire(truth, ens)
    sweeps = []

    def keep_prediction(ms, cfg, pred, provider, lo, hi):
        sweeps.append((lo, hi))
        return pred, []

    monkeypatch.setattr(recon, "_residual_sweep", keep_prediction)
    run = reconstruct_2d if layout == "rows2d" else reconstruct_3d
    rec, _ = run(ms, None, ReconConfig(filter=P3, max_outer_iters=1), initial=truth)
    prev = sensing.slices_of(truth.samples, ms.layout)
    pred = sensing.slices_of(rec.samples, ms.layout)
    assert np.array_equal(pred[1:-1], predictors.predict_row(P3, prev[:-2], prev[2:]))
    if layout == "rows2d":
        assert sweeps == [(1, ens.num_slices - 1)]
        assert np.array_equal(pred[[0, -1]], prev[[0, -1]])
    else:
        assert sweeps == [(0, ens.num_slices)]
        assert np.array_equal(pred[0], predictors.predict_row(P3, prev[1], prev[1]))
        assert np.array_equal(pred[-1], predictors.predict_row(P3, prev[-2], prev[-2]))
        assert not np.allclose(pred[[0, -1]], prev[[0, -1]])


def _coefficients_for_energy(cube: np.ndarray, fraction: float = 0.999) -> float:
    """Median over bands of the number of 2-D DCT coefficients that hold
    fraction of the band's energy."""
    rows, cols, _ = cube.shape
    coef = transforms.analyze(transforms.separable2d_basis(rows, cols),
                              sensing.slices_of(cube, Layout.BANDS_3D))
    energy = np.cumsum(np.sort(coef ** 2, axis=1)[:, ::-1], axis=1)
    return float(np.median(np.argmax(energy >= fraction * energy[:, -1:], axis=1) + 1))


def test_band_prediction_error_is_about_as_sparse_as_the_bands():
    # predicted from the true cube, with bands larger than one block: a seam
    # at every block edge would take many DCT coefficients to represent
    for seed in range(3):
        cube = dataio.synth_cube(seed, 24, 24, 12).samples
        error = cube - recon.predict_cube_bands(BlockLSPredictorConfig(), cube)
        assert _coefficients_for_energy(error) <= 1.5 * _coefficients_for_energy(cube)


class TestMatrixCache:
    """Above the matrix budget the sensing matrices are redrawn chunk by chunk
    for every sweep; the numbers must not change."""

    @staticmethod
    def _both(monkeypatch, ens, run):
        cached = run()
        # three slices per chunk: the stack splits into at least two chunks
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 3 * ens.m * ens.n * 8)
        assert sensing.chunk_length(ens) == 3 < ens.num_slices
        return cached, run()

    def test_separate_2d_redraw_is_bit_identical(self, monkeypatch):
        img = dataio.synth_image(50, 16, 16)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(51, 16, 6, 16))
        cfg = ReconConfig(max_outer_iters=2)
        (a, ra), (b, rb) = self._both(monkeypatch, ms.ensemble,
                                      lambda: reconstruct_2d(ms, None, cfg, ground_truth=img))
        assert np.array_equal(a.samples, b.samples)
        assert ra.mse_trace == rb.mse_trace

    def test_blockls_3d_redraw_is_bit_identical(self, monkeypatch):
        cube = dataio.synth_cube(52, 8, 8, 4)
        ms = acquire_bands_3d(cube, SeededSensingEnsemble(53, 4, 24, 64))
        cfg = ReconConfig(filter=BlockLSPredictorConfig(), max_outer_iters=2)
        (a, ra), (b, rb) = self._both(monkeypatch, ms.ensemble,
                                      lambda: reconstruct_3d(ms, None, cfg, ground_truth=cube))
        assert np.array_equal(a.samples, b.samples)
        assert ra.mse_trace == rb.mse_trace
        # the Kronecker initialization needs the whole stack at once
        with pytest.raises(ValueError, match="a stack of 4 24 x 64 matrices exceeds"):
            reconstruct_3d(ms, None, replace(cfg, init=recon.INIT_KCS), ground_truth=cube)

    def test_separate_init_holds_one_chunk_at_a_time(self, monkeypatch):
        # 256 rows of 128 at m = 32 in chunks of 64 slices: four 2 MiB chunks,
        # of which the next draw must not find the last one still held.  The
        # solver holds one 128 KiB block of its factor, and the sweep a few
        # signal-sized arrays
        image = Image2D(np.random.default_rng(0).random((256, 128)))
        ms = acquire_rows_2d(image, SeededSensingEnsemble(4, 256, 32, 128))
        expected, _ = init_separate(ms)
        budget = 64 * 32 * 128 * 8
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", budget)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", budget // 16)
        tracemalloc.start()
        try:
            got, _ = init_separate(ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.samples, expected.samples)
        assert peak < budget + solvers._BLOCK_BYTES + 4 * image.samples.nbytes


class TestComposedProvider:
    """The residual sweeps solve on B_s = Phi_s*Psi, composed once in place."""

    @staticmethod
    def _scene():
        img = dataio.synth_image(60, 12, 16)
        ms = acquire_rows_2d(img, SeededSensingEnsemble(61, 12, 6, 16))
        return img, ms, recon._PhiProvider(ms.ensemble, slice_basis_for(ms))

    @pytest.mark.parametrize("budget", [sensing.MATRIX_BUDGET_BYTES, 6 * 16 * 8])
    def test_compose_analyzes_every_row(self, monkeypatch, budget):
        # a budget of one slice's bytes puts every slice in a chunk of its own:
        # not cached, and no request may span more than one slice
        _, ms, _ = self._scene()
        basis = slice_basis_for(ms)
        phi = sensing.draw_sensing_stack(ms.ensemble, 0, 12)
        want = transforms.analyze(basis, phi.reshape(-1, 16)).reshape(phi.shape)
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", budget)
        provider = recon._PhiProvider(ms.ensemble, basis)
        step = sensing.chunk_length(ms.ensemble)
        assert (provider._full is None) == (step < 12)
        for i0, i1 in [(i0, min(i0 + step, 12)) for i0 in range(0, 12, step)] + [(3, min(7, 3 + step))]:
            np.testing.assert_allclose(provider.stack(i0, i1), want[i0:i1], rtol=0, atol=1e-12)
        if step < 12:
            with pytest.raises(ValueError, match="exceeds"):
                provider.stack(0, 12)

    def test_provider_refuses_another_slice_basis(self):
        _, ms, provider = self._scene()
        provider.require(transforms.dct1d_basis(16))
        with pytest.raises(ValueError, match="composed with"):
            provider.require(transforms.identity_basis(16))
        with pytest.raises(ValueError, match="composed with"):
            init_separate(ms, transforms.identity_basis(16), provider=provider)
        with pytest.raises(ValueError, match="basis size"):
            recon._PhiProvider(ms.ensemble, transforms.dct1d_basis(12))

    def test_init_kcs_refuses_a_provider_of_another_slice_basis(self):
        # the default slice basis has DCT factors
        _, ms, _ = self._scene()
        provider = recon._PhiProvider(ms.ensemble, transforms.identity_basis(16))
        with pytest.raises(ValueError, match="composed with"):
            init_kcs(ms, provider=provider)

    def test_sweep_transform_count_does_not_grow_with_iterations(self, monkeypatch):
        img, ms, _ = self._scene()
        calls = []
        for name in ("analyze", "synthesize"):
            fn = getattr(transforms, name)
            monkeypatch.setattr(transforms, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        counts = []
        for iters in (50, 500):
            provider = recon._PhiProvider(ms.ensemble, slice_basis_for(ms))
            calls.clear()
            recon._residual_sweep(ms, SolveConfig(max_solver_iters=iters), 0.9 * img.samples,
                                  provider, 1, 11)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_sweeps_reuse_the_buffer_and_leave_it_unmodified(self, monkeypatch):
        img, ms, provider = self._scene()
        seen = []
        solve = solvers.solve_l1_batch

        def checking_solve(phi, basis, y, cfg=None):
            before = (phi.copy(), y.copy())
            state = solve(phi, basis, y, cfg)
            assert np.array_equal(phi, before[0]) and np.array_equal(y, before[1])
            seen.append(phi)
            return state

        monkeypatch.setattr(solvers, "solve_l1_batch", checking_solve)
        for _ in range(2):
            recon._residual_sweep(ms, SolveConfig(max_solver_iters=50), 0.9 * img.samples, provider)
        full = provider.stack(0, 12)
        assert len(seen) == 2
        assert all(np.shares_memory(phi, full) for phi in seen)


class TestKCSBasis:
    def test_joint_basis_consistent_with_stacking(self):
        # synthesizing joint coefficients and slicing must equal acting on the
        # dense Kronecker matrix with the stacked ordering
        cube = dataio.synth_cube(41, 4, 3, 2)
        ens = SeededSensingEnsemble(42, 2, 6, 12)
        ms = acquire_bands_3d(cube, ens)
        joint = joint_basis(ms)
        stacked = sensing.slices_of(cube.samples, ms.layout).reshape(-1)
        theta = transforms.analyze(joint, stacked)
        np.testing.assert_allclose(transforms.synthesize(joint, theta), stacked, atol=1e-10)
        dense = dense_synthesis_matrix(joint)
        np.testing.assert_allclose(dense @ theta, stacked, atol=1e-10)

    def test_rows2d_joint_basis_consistent(self):
        img = dataio.synth_image(45, 4, 6)
        ens = SeededSensingEnsemble(46, 4, 3, 6)
        ms = acquire_rows_2d(img, ens)
        joint = joint_basis(ms)
        stacked = img.samples.reshape(-1)  # row-major stack = per-row slices
        theta = transforms.analyze(joint, stacked)
        dense = dense_synthesis_matrix(joint)
        np.testing.assert_allclose(dense @ theta, stacked, atol=1e-10)
        y = dense_block_diag(ens) @ stacked
        np.testing.assert_allclose(y, ms.y.reshape(-1), atol=1e-10)

    @pytest.mark.parametrize("acquire, scene, ens, slice_basis, cfg", [
        (acquire_rows_2d, lambda: dataio.synth_image(80, 6, 16), SeededSensingEnsemble(81, 6, 6, 16),
         transforms.separable2d_basis(4, 4), ReconConfig(init=recon.INIT_KCS, max_outer_iters=1)),
        (acquire_bands_3d, lambda: dataio.synth_cube(82, 4, 6, 3), SeededSensingEnsemble(83, 3, 10, 24),
         transforms.separable2d_basis(6, 4),
         ReconConfig(init=recon.INIT_KCS, filter=BlockLSPredictorConfig(), max_outer_iters=1)),
    ], ids=["rows2d-separable-slice", "bands3d-cols-rows"])
    def test_kcs_reconstruction_with_a_slice_basis_of_other_dims(self, acquire, scene, ens,
                                                                 slice_basis, cfg):
        # init_kcs joins the slice axis to the caller's slice basis, so its
        # joint solve runs on the provider the reconstruction composes with it
        truth = scene()
        ms = acquire(truth, ens)
        run = reconstruct_2d if ms.layout == sensing.Layout.ROWS_2D else reconstruct_3d
        rec, report = run(ms, slice_basis, cfg, ground_truth=truth)
        assert rec.samples.shape == ms.signal_shape
        assert np.isfinite(report.mse_trace).all()
        with pytest.raises(ValueError, match="basis size"):
            init_kcs(ms, transforms.dct1d_basis(ens.n + 1))

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
        joint = joint_basis(ms)
        stacked = sensing.slices_of(cube.samples, ms.layout).reshape(-1)
        theta = transforms.analyze(joint, stacked)
        y = dense_block_diag(ens) @ transforms.synthesize(joint, theta)
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
