"""Iterative prediction-residual reconstruction.

The engines implement the same loop for 2D images (row predictions) and 3D
cubes (band or spectral-row predictions): starting from an initial
reconstruction, each outer iteration predicts every slice from its neighbors
in the previous iterate (Jacobi schedule), measures the prediction with the
slice's own sensing matrix, recovers only the measurement-domain prediction
error by l1 minimization, and adds the recovered error back onto the
prediction.  Iterations stop when the relative l2 change of the signal falls
below convergence_tol or max_outer_iters is reached.

Two initialization strategies are provided: separate per-slice recovery, and
joint Kronecker recovery (block-diagonal sensing operator with a separable
sparsity basis spanning all slices).  Both, and every outer iteration, solve
on the same per-slice sensing matrices, drawn once per reconstruction.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics, predictors, sensing, solvers, transforms
from .predictors import BlockLSPredictorConfig, RowFilter
from .sensing import Layout, MeasurementSet
from .signals import Cube3D, Image2D
from .solvers import SolveConfig
from .transforms import SparsityBasis

INIT_SEPARATE = "separate"
INIT_KCS = "kcs"

AXIS_BANDS = "bands"
AXIS_SPECTRAL_ROWS = "spectral_rows"

# solver profile tuned for the desk-scale image sweeps; the residual floor of
# the compressed measurements dominates well before these tolerances bind
DEFAULT_SWEEP_SOLVER = SolveConfig(
    feasibility_tol=1e-3, objective_tol=1e-4, max_solver_iters=2000
)

DEFAULT_KCS_MAX_UNKNOWNS = 1 << 18

# a reconstruction keeps its whole stack of sensing matrices when it fits in
# this many bytes; larger stacks are redrawn chunk by chunk on every sweep
MATRIX_CACHE_BYTES = 1 << 28


@dataclass(frozen=True)
class ReconConfig:
    init: str = INIT_SEPARATE
    filter: RowFilter | BlockLSPredictorConfig = predictors.P3
    max_outer_iters: int = 40
    convergence_tol: float = 1e-4
    solver: SolveConfig = DEFAULT_SWEEP_SOLVER
    iterate_axis: str = AXIS_BANDS
    kcs_max_unknowns: int = DEFAULT_KCS_MAX_UNKNOWNS

    def __post_init__(self):
        if self.init not in (INIT_SEPARATE, INIT_KCS):
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")
        if self.iterate_axis not in (AXIS_BANDS, AXIS_SPECTRAL_ROWS):
            raise ValueError(f"unknown iterate_axis {self.iterate_axis!r}")


@dataclass
class ReconReport:
    """Per-iteration traces; index 0 of each trace is the initialization."""

    mse_trace: list | None
    rel_change_trace: list
    elapsed_trace: list
    compressibility_trace: list | None
    iterations_run: int
    converged: bool
    elapsed_seconds: float
    solver_warnings: list = field(default_factory=list)

    def to_csv(self, path, manifest_digest: str | None = None) -> None:
        with open(path, "w") as fh:
            if manifest_digest:
                fh.write(f"# manifest={manifest_digest}\n")
            fh.write("iteration,mse,relative_change,elapsed_seconds\n")
            for i in range(self.iterations_run + 1):
                m = "" if self.mse_trace is None else repr(self.mse_trace[i])
                r = "" if i == 0 else repr(self.rel_change_trace[i])
                fh.write(f"{i},{m},{r},{self.elapsed_trace[i]:.3f}\n")


def gain_db(mse_init: float, mse_final: float) -> float:
    """Reconstruction gain 10*log10(mse_init/mse_final), in decibels."""
    if mse_init <= 0 or mse_final <= 0:
        raise ValueError("gain_db needs strictly positive MSE values")
    return float(10.0 * np.log10(mse_init / mse_final))


# --- sensing-matrix provider ---------------------------------------------------

class _PhiProvider:
    """Hands out stacks of per-slice sensing matrices, caching when they fit."""

    def __init__(self, ensemble: sensing.SeededSensingEnsemble, cache_max_bytes: int):
        self.ensemble = ensemble
        total = ensemble.num_slices * ensemble.m * ensemble.n * 8
        self._full = sensing.draw_sensing_stack(ensemble, 0, ensemble.num_slices) \
            if total <= cache_max_bytes else None

    def stack(self, start: int, stop: int) -> np.ndarray:
        if self._full is not None:
            return self._full[start:stop]
        return sensing.draw_sensing_stack(self.ensemble, start, stop)

    def chunk_length(self) -> int:
        if self._full is not None:
            return self.ensemble.num_slices
        return sensing.chunk_length(self.ensemble)


# --- slice bases -----------------------------------------------------------------

def slice_basis_for(ms: MeasurementSet, kind: str = transforms.DCT) -> SparsityBasis:
    """Default per-slice sparsity basis for a measurement layout."""
    if ms.layout == Layout.ROWS_2D:
        n = ms.signal_shape[1]
        return transforms.dct1d_basis(n) if kind == transforms.DCT else transforms.identity_basis(n)
    rows, cols, bands = ms.signal_shape
    if ms.layout == Layout.BANDS_3D:
        return transforms.separable2d_basis(rows, cols, factors=(kind, kind))
    return transforms.separable2d_basis(cols, bands, factors=(kind, kind))


def kcs_basis_for(ms: MeasurementSet, slice_basis: SparsityBasis) -> SparsityBasis:
    """Joint separable basis over all stacked slices.

    Within-slice factors are taken from the per-slice basis; the cross-slice
    axis always gets a DCT factor, which is where the joint recovery gains
    its inter-slice correlation modelling.
    """
    f = slice_basis.factors
    if ms.layout == Layout.ROWS_2D:
        rows, cols = ms.signal_shape
        return transforms.separable2d_basis(cols, rows, factors=(f[0], transforms.DCT))
    rows, cols, bands = ms.signal_shape
    if ms.layout == Layout.BANDS_3D:
        return transforms.separable3d_basis(rows, cols, bands, factors=(f[0], f[1], transforms.DCT))
    return transforms.separable3d_basis(cols, bands, rows, factors=(f[0], f[1], transforms.DCT))


def _container(signal: np.ndarray, layout: Layout):
    return Image2D(signal) if layout == Layout.ROWS_2D else Cube3D(signal)


# --- residual sweep (shared by init_separate and the outer iterations) -----------

def _residual_sweep(
    ms: MeasurementSet,
    basis: SparsityBasis,
    solver_cfg: SolveConfig,
    pred_signal: np.ndarray,
    provider: _PhiProvider,
    solve_lo: int = 0,
    solve_hi: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Correct predicted slices [solve_lo, solve_hi) against their measurements.

    Slices outside the range keep the prediction unchanged.  Returns the
    updated signal and the indices of slices whose solve did not converge.
    """
    ens = ms.ensemble
    solve_hi = ens.num_slices if solve_hi is None else solve_hi
    pred_slices = sensing.slices_of(pred_signal, ms.layout)
    new_slices = pred_slices.copy()
    warnings: list[int] = []
    step = provider.chunk_length()
    for i0 in range(solve_lo, solve_hi, step):
        i1 = min(i0 + step, solve_hi)
        phi = provider.stack(i0, i1)
        y_pred = np.matmul(phi, pred_slices[i0:i1, :, None])[..., 0]
        e_y = ms.y[i0:i1] - y_pred
        state = solvers.solve_l1_batch(phi, basis, e_y, solver_cfg)
        e_x = transforms.synthesize(basis, state.theta)
        new_slices[i0:i1] = pred_slices[i0:i1] + e_x
        warnings.extend(int(i0 + j) for j in np.flatnonzero(~state.converged))
    return sensing.signal_from_slices(new_slices, ms.layout, ms.signal_shape), warnings


# --- initialization strategies ----------------------------------------------------

def init_separate(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    solver_cfg: SolveConfig | None = None,
    provider: _PhiProvider | None = None,
):
    """Recover every slice independently by l1 minimization.

    provider hands out the sensing matrices (a reconstruction passes its own;
    one is built when None).  Returns (signal container, list of slice
    indices that failed to converge; those keep their best iterates).
    """
    basis = basis or slice_basis_for(ms)
    solver_cfg = solver_cfg or DEFAULT_SWEEP_SOLVER
    if basis.size != ms.ensemble.n:
        raise ValueError(f"basis size {basis.size} does not match slice length {ms.ensemble.n}")
    provider = provider or _PhiProvider(ms.ensemble, MATRIX_CACHE_BYTES)
    zero = np.zeros(ms.signal_shape)
    signal, warnings = _residual_sweep(ms, basis, solver_cfg, zero, provider)
    return _container(signal, ms.layout), warnings


def init_kcs(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    solver_cfg: SolveConfig | None = None,
    max_unknowns: int = DEFAULT_KCS_MAX_UNKNOWNS,
    provider: _PhiProvider | None = None,
):
    """Joint recovery of all slices through the block-diagonal sensing operator.

    basis is the joint separable basis (defaults to DCT factors on every
    axis); solves a single stacked l1 problem on the whole stack of sensing
    matrices and reshapes the result.  provider is as in init_separate.
    Returns (signal container, converged flag).
    """
    ens = ms.ensemble
    unknowns = ens.num_slices * ens.n
    if unknowns > max_unknowns:
        raise ValueError(
            f"KCS system has {unknowns} unknowns > guard {max_unknowns}; "
            "crop the input or raise max_unknowns"
        )
    basis = basis or kcs_basis_for(ms, slice_basis_for(ms))
    if basis.size != unknowns:
        raise ValueError(f"joint basis size {basis.size} does not match {unknowns} unknowns")
    solver_cfg = solver_cfg or DEFAULT_SWEEP_SOLVER
    provider = provider or _PhiProvider(ens, MATRIX_CACHE_BYTES)
    phi = provider.stack(0, ens.num_slices)
    state = solvers.solve_l1_batch(phi, basis, ms.y.reshape(1, -1), solver_cfg)
    slices = transforms.synthesize(basis, state.theta).reshape(ens.num_slices, ens.n)
    signal = sensing.signal_from_slices(slices, ms.layout, ms.signal_shape)
    return _container(signal, ms.layout), bool(state.converged[0])


def _initialize(ms, basis, cfg, provider):
    if cfg.init == INIT_SEPARATE:
        container, warnings = init_separate(ms, basis, cfg.solver, provider)
        return container.samples, [(0, w) for w in warnings]
    container, converged = init_kcs(
        ms,
        kcs_basis_for(ms, basis),
        cfg.solver,
        cfg.kcs_max_unknowns,
        provider,
    )
    return container.samples, ([] if converged else [(0, -1)])


# --- prediction of a full signal from the previous iterate -------------------------

def predict_image_rows(flt: RowFilter, x_prev: np.ndarray) -> np.ndarray:
    """Predict every row of an image: interior rows from their neighbors,
    first and last row copied from the previous iterate."""
    pred = x_prev.copy()
    if x_prev.shape[0] > 2:
        pred[1:-1] = predictors.predict_row(flt, x_prev[:-2], x_prev[2:])
    return pred


def predict_cube_bands(cfg_blockls: BlockLSPredictorConfig, f_prev: np.ndarray) -> np.ndarray:
    """Two-sided blockwise prediction of every band (one-sided at the ends)."""
    bands = f_prev.shape[2]
    pred = np.empty_like(f_prev)
    for b in range(bands):
        prev_band = f_prev[:, :, b - 1] if b > 0 else None
        next_band = f_prev[:, :, b + 1] if b < bands - 1 else None
        pred[:, :, b] = predictors.predict_band_twosided(
            prev_band, next_band, f_prev[:, :, b], cfg_blockls
        )
    return pred


def predict_cube_spectral_rows(flt: RowFilter, f_prev: np.ndarray) -> np.ndarray:
    """Row-filter prediction across spectral-row slices.

    Slices are vectorized and treated like image rows; at the first/last row
    only the available neighbor feeds the filter.
    """
    slices = sensing.slices_of(f_prev, Layout.SPECTRAL_ROWS_3D)
    pred = slices.copy()
    if slices.shape[0] > 2:
        pred[1:-1] = predictors.predict_row(flt, slices[:-2], slices[2:])
    if slices.shape[0] >= 2:
        pred[0] = predictors.predict_row(flt, slices[1], slices[1])
        pred[-1] = predictors.predict_row(flt, slices[-2], slices[-2])
    return sensing.signal_from_slices(pred, Layout.SPECTRAL_ROWS_3D, f_prev.shape)


# --- engines -----------------------------------------------------------------------

def _run_iterations(ms, basis, cfg, initial, predict, solve_range, ground_truth):
    """Shared engine: initialize (unless given initial), then predict, correct,
    test convergence, trace.  The report clock includes the initialization."""
    if initial is not None:
        x0 = np.array(getattr(initial, "samples", initial), dtype=np.float64)
        if x0.shape != ms.signal_shape:
            raise ValueError(f"initial shape {x0.shape} does not match {ms.signal_shape}")
    t0 = time.perf_counter()
    provider = _PhiProvider(ms.ensemble, MATRIX_CACHE_BYTES)
    if initial is None:
        x0, init_warnings = _initialize(ms, basis, cfg, provider)
    else:
        init_warnings = []
    truth = None if ground_truth is None else np.asarray(
        getattr(ground_truth, "samples", ground_truth), dtype=np.float64
    )
    track_compress = truth is not None and ms.layout == Layout.ROWS_2D

    x = x0
    mse_trace = None if truth is None else [metrics.mse(x, truth)]
    rel_trace = [np.nan]
    elapsed = [time.perf_counter() - t0]
    compress_trace = [metrics.row_compressibility(truth)] if track_compress else None
    warnings = list(init_warnings)
    converged = False
    iterations = 0
    lo, hi = solve_range

    for it in range(1, cfg.max_outer_iters + 1):
        x_prev = x
        pred = predict(x_prev)
        x, sweep_warn = _residual_sweep(ms, basis, cfg.solver, pred, provider, lo, hi)
        warnings.extend((it, w) for w in sweep_warn)
        iterations = it

        prev_norm = np.linalg.norm(x_prev)
        diff_norm = np.linalg.norm(x - x_prev)
        rel = diff_norm / prev_norm if prev_norm > 0 else (np.inf if diff_norm > 0 else 0.0)
        rel_trace.append(float(rel))
        if truth is not None:
            mse_trace.append(metrics.mse(x, truth))
        if track_compress:
            compress_trace.append(metrics.row_compressibility(truth - pred))
        elapsed.append(time.perf_counter() - t0)

        if rel < cfg.convergence_tol:
            converged = True
            break

    report = ReconReport(
        mse_trace=mse_trace,
        rel_change_trace=rel_trace,
        elapsed_trace=elapsed,
        compressibility_trace=compress_trace,
        iterations_run=iterations,
        converged=converged,
        elapsed_seconds=time.perf_counter() - t0,
        solver_warnings=warnings,
    )
    return x, report


def reconstruct_2d(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    cfg: ReconConfig | None = None,
    ground_truth=None,
    initial=None,
):
    """Iterative row-prediction reconstruction of a 2D image.

    initial, when given, is a starting reconstruction (Image2D or array) used
    instead of running cfg.init; handy for warm restarts and for comparing
    prediction filters from one shared initialization.
    """
    cfg = cfg or ReconConfig()
    if ms.layout != Layout.ROWS_2D:
        raise ValueError(f"reconstruct_2d needs Rows2D measurements, got {ms.layout!r}")
    if not isinstance(cfg.filter, RowFilter):
        raise ValueError("2D reconstruction needs a RowFilter (P1/P2/P3)")
    basis = basis or slice_basis_for(ms)
    n_rows = ms.signal_shape[0]
    x, report = _run_iterations(
        ms,
        basis,
        cfg,
        initial,
        predict=lambda prev: predict_image_rows(cfg.filter, prev),
        solve_range=(1, n_rows - 1) if n_rows > 2 else (0, 0),
        ground_truth=ground_truth,
    )
    return Image2D(x), report


def reconstruct_3d(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    cfg: ReconConfig | None = None,
    ground_truth=None,
    initial=None,
):
    """Iterative band- or spectral-row-prediction reconstruction of a cube.

    initial, when given, replaces the cfg.init starting reconstruction.
    """
    cfg = cfg or ReconConfig()
    expected_layout = Layout.BANDS_3D if cfg.iterate_axis == AXIS_BANDS else Layout.SPECTRAL_ROWS_3D
    if ms.layout != expected_layout:
        raise ValueError(
            f"iterate_axis {cfg.iterate_axis!r} needs layout {expected_layout!r}, got {ms.layout!r}"
        )
    if cfg.iterate_axis == AXIS_BANDS:
        if not isinstance(cfg.filter, BlockLSPredictorConfig):
            raise ValueError("band iteration needs a BlockLSPredictorConfig filter")
        predict = lambda prev: predict_cube_bands(cfg.filter, prev)
    else:
        if not isinstance(cfg.filter, RowFilter):
            raise ValueError("spectral-row iteration needs a RowFilter (P1/P2/P3)")
        predict = lambda prev: predict_cube_spectral_rows(cfg.filter, prev)
    basis = basis or slice_basis_for(ms)
    f, report = _run_iterations(
        ms,
        basis,
        cfg,
        initial,
        predict=predict,
        solve_range=(0, None),
        ground_truth=ground_truth,
    )
    return Cube3D(f), report
