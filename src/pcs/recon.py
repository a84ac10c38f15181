"""Iterative prediction-residual reconstruction.

One loop serves every measurement layout: starting from an initial
reconstruction, each outer iteration predicts every slice from its neighbors
in the previous iterate (Jacobi schedule), measures the prediction with the
slice's own sensing matrix, recovers only the measurement-domain prediction
error by l1 minimization, and adds the recovered error back onto the
prediction.  Iterations stop when the relative l2 change of the signal falls
below convergence_tol or max_outer_iters is reached.  The layout decides the
rest (_LOOPS): image rows and spectral rows are predicted by one row filter
across slices (predict_slice_rows), bands blockwise by least squares; the
sweeps leave an image's first and last row to the initialization and solve
every slice of a cube.

Two initialization strategies are provided, with one contract: both take the
slice basis and return the signal and the unconverged slices.  Separate
recovery solves each slice alone; joint Kronecker recovery solves all slices
at once, in the slice basis joined with a DCT across slices.  Both, and every
outer iteration, solve on the same stack of composed matrices
B_s = Phi_s*Psi_slice, drawn and composed once per reconstruction, with the
same algorithm (ADMM on the exact projection onto the constraints, see
solvers).  The residual sweeps (the separate initialization and every outer
iteration) solve on B alone; the Kronecker initialization solves on B with
only the cross-slice factor of the joint basis inside the operator, since
blockdiag(Phi_s)*(Psi_cross (x) Psi_slice) = blockdiag(B_s)*(Psi_cross (x) I).
That factor is orthonormal, so the joint projection is the per-slice one
between a cross-slice analysis and synthesis, and the joint solve converges
like a sweep.
"""

import operator
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

# solver profile tuned for the desk-scale image sweeps; the residual floor of
# the compressed measurements dominates well before these tolerances bind
DEFAULT_SWEEP_SOLVER = SolveConfig(
    feasibility_tol=1e-3, objective_tol=1e-4, max_solver_iters=2000
)


@dataclass(frozen=True)
class ReconConfig:
    init: str = INIT_SEPARATE
    filter: RowFilter | BlockLSPredictorConfig = predictors.P3
    max_outer_iters: int = 40
    convergence_tol: float = 1e-4
    solver: SolveConfig = DEFAULT_SWEEP_SOLVER

    def __post_init__(self):
        if self.init not in (INIT_SEPARATE, INIT_KCS):
            raise ValueError(f"unknown init strategy {self.init!r}")
        try:
            operator.index(self.max_outer_iters)
        except TypeError:
            raise ValueError(f"max_outer_iters must be an integer, got {self.max_outer_iters!r}") from None
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not 0 < self.convergence_tol < np.inf:
            raise ValueError("convergence_tol must be finite and > 0")


@dataclass
class ReconReport:
    """Per-iteration traces; index 0 of each trace is the initialization."""

    mse_trace: list | None
    rel_change_trace: list
    elapsed_trace: list
    compressibility_trace: list | None
    iterations_run: int
    converged: bool
    solver_warnings: list = field(default_factory=list)


def gain_db(mse_init: float, mse_final: float) -> float:
    """Reconstruction gain 10*log10(mse_init/mse_final), in decibels."""
    if mse_init <= 0 or mse_final <= 0:
        raise ValueError("gain_db needs strictly positive MSE values")
    return float(10.0 * np.log10(mse_init / mse_final))


# --- sensing-matrix provider ---------------------------------------------------

class _PhiProvider:
    """Hands out stacks of composed sensing matrices, caching when they fit.

    Every stack holds B_s = Phi_s*Psi for the slice basis Psi: each chunk of
    raw matrices is overwritten in place as it is drawn, one slice at a time,
    so no second stack is held.  The stack is drawn once per reconstruction
    when it is one chunk (sensing.chunk_length), and chunk by chunk on every
    request otherwise, when sensing.draw_sensing_stack refuses a request for
    more than a chunk (the Kronecker initialization's whole stack) before it
    draws.  Every l1 solve of a reconstruction runs on B, which leaves the
    sweeps' inner iterations free of transforms and the Kronecker
    initialization with only its cross-slice factor.
    """

    def __init__(self, ensemble: sensing.SeededSensingEnsemble, basis: SparsityBasis):
        if basis.size != ensemble.n:
            raise ValueError(f"basis size {basis.size} does not match slice length {ensemble.n}")
        self.ensemble = ensemble
        self.basis = basis
        whole = sensing.chunk_length(ensemble) == ensemble.num_slices
        self._full = self._draw(0, ensemble.num_slices) if whole else None

    def _draw(self, start: int, stop: int) -> np.ndarray:
        return _compose_in_place(self.basis, sensing.draw_sensing_stack(self.ensemble, start, stop))

    def require(self, basis: SparsityBasis) -> None:
        """Refuse a solve whose slice basis is not the one the stack holds."""
        if (basis.dims, basis.factors) != (self.basis.dims, self.basis.factors):
            raise ValueError(f"the sensing matrices are composed with a {self.basis.factors} basis "
                             f"over {self.basis.dims}, not {basis.factors} over {basis.dims}")

    def stack(self, start: int, stop: int) -> np.ndarray:
        if self._full is not None:
            return self._full[start:stop]
        return self._draw(start, stop)


def _compose_in_place(basis: SparsityBasis, phi: np.ndarray) -> np.ndarray:
    """Overwrite each Phi_s with Phi_s*Psi: row k of it is analyze(row k of Phi_s)."""
    for p in phi:
        p[...] = transforms.analyze(basis, p)
    return phi


# --- slice bases -----------------------------------------------------------------

def slice_basis_for(ms: MeasurementSet, kind: str = transforms.DCT) -> SparsityBasis:
    """Default per-slice sparsity basis: a kind factor on every axis of a slice."""
    dims = sensing.slice_dims(ms.layout, ms.signal_shape)
    return SparsityBasis(dims, (kind,) * len(dims))


def _container(signal: np.ndarray, layout: Layout):
    return Image2D(signal) if layout == Layout.ROWS_2D else Cube3D(signal)


# --- residual sweep (shared by init_separate and the outer iterations) -----------

def _residual_sweep(
    ms: MeasurementSet,
    solver_cfg: SolveConfig,
    pred_signal: np.ndarray,
    provider: _PhiProvider,
    solve_lo: int = 0,
    solve_hi: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Correct predicted slices [solve_lo, solve_hi) against their measurements.

    Works in coefficients of the provider's slice basis Psi on the composed
    matrices B_s = Phi_s*Psi: the prediction's coefficients c give
    e_y = y - B c, and the l1 solve on B recovers the error's coefficients.
    Slices outside the range keep the prediction unchanged.  Returns the
    updated signal and the indices of slices whose solve did not converge.
    """
    ens = ms.ensemble
    solve_hi = ens.num_slices if solve_hi is None else solve_hi
    basis = provider.basis
    pred_slices = sensing.slices_of(pred_signal, ms.layout)
    new_slices = pred_slices.copy()
    warnings: list[int] = []
    step = sensing.chunk_length(ens)
    for i0 in range(solve_lo, solve_hi, step):
        i1 = min(i0 + step, solve_hi)
        b = provider.stack(i0, i1)
        c = transforms.analyze(basis, pred_slices[i0:i1])
        y = ms.y[i0:i1]
        e_y = y - np.matmul(b, c[:, :, None])[..., 0]
        # B c differs from the acquisition's Phi x by rounding: an exact
        # prediction leaves ~1e-16 ||y||, noise the solver would chase
        e_y[np.linalg.norm(e_y, axis=1) <= 1e-12 * np.linalg.norm(y, axis=1)] = 0.0
        state = solvers.solve_l1_batch(b, None, e_y, solver_cfg)
        # a drawn chunk is released before the next is drawn, so a sweep
        # holds one chunk and the solver's one block of its factor
        del b
        e_x = transforms.synthesize(basis, state.theta)
        new_slices[i0:i1] = pred_slices[i0:i1] + e_x
        warnings.extend(int(i0 + j) for j in np.flatnonzero(~state.converged))
    return sensing.signal_from_slices(new_slices, ms.layout, ms.signal_shape), warnings


# --- initialization strategies ----------------------------------------------------

def _prepare(ms, basis, solver_cfg, provider):
    """The two initializations' defaults: slice basis, solver profile, provider."""
    basis = basis or slice_basis_for(ms)
    provider = provider or _PhiProvider(ms.ensemble, basis)
    provider.require(basis)
    return solver_cfg or DEFAULT_SWEEP_SOLVER, provider


def init_separate(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    solver_cfg: SolveConfig | None = None,
    provider: _PhiProvider | None = None,
):
    """Recover every slice independently by l1 minimization.

    basis is the slice basis (slice_basis_for(ms) when None); provider hands
    out the sensing matrices composed with it (a reconstruction passes its
    own; one is built when None).  Returns (signal container, list of slice
    indices that failed to converge; those keep their best iterates).
    """
    solver_cfg, provider = _prepare(ms, basis, solver_cfg, provider)
    signal, warnings = _residual_sweep(ms, solver_cfg, np.zeros(ms.signal_shape), provider)
    return _container(signal, ms.layout), warnings


def init_kcs(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    solver_cfg: SolveConfig | None = None,
    provider: _PhiProvider | None = None,
):
    """Joint recovery of all slices through the block-diagonal sensing operator.

    Takes the same arguments as init_separate.  The joint basis is the slice
    basis Psi_slice with a DCT across slices, joined last.  Solves a single
    stacked l1 problem on the composed stack B_s = Phi_s*Psi_slice, with only
    the cross-slice factor inside the operator, and synthesizes the result
    with the joint basis.  The solve is the sweeps' ADMM, normalized by the
    joint ||y||, with the per-slice factors of B serving the joint projection.
    The whole stack must fit in sensing.MATRIX_BUDGET_BYTES: a larger one is
    refused with a ValueError before any matrix is drawn.  Returns (signal
    container, [-1] when the joint solve did not converge, else []).
    """
    ens = ms.ensemble
    solver_cfg, provider = _prepare(ms, basis, solver_cfg, provider)
    b = provider.stack(0, ens.num_slices)
    state = solvers.solve_l1_batch(b, transforms.DCT, ms.y.reshape(1, -1), solver_cfg)
    joint = transforms.join_slice_axis(provider.basis, ens.num_slices, transforms.DCT)
    slices = transforms.synthesize(joint, state.theta).reshape(ens.num_slices, ens.n)
    signal = sensing.signal_from_slices(slices, ms.layout, ms.signal_shape)
    return _container(signal, ms.layout), [] if state.converged[0] else [-1]


def _initialize(ms, basis, cfg, provider):
    init = init_separate if cfg.init == INIT_SEPARATE else init_kcs
    container, unconverged = init(ms, basis, cfg.solver, provider)
    return container.samples, [(0, w) for w in unconverged]


# --- prediction of a full signal from the previous iterate -------------------------

def predict_slice_rows(flt: RowFilter, x_prev: np.ndarray, layout: Layout, edge: int) -> np.ndarray:
    """Row-filter prediction of every slice from its neighbors in x_prev.

    Interior slices are predicted from both neighbors.  With edge 1 the first
    and last slice are left to the initialization and keep x_prev; with edge 0
    each is predicted from its one neighbor.
    """
    slices = sensing.slices_of(x_prev, layout)
    pred = slices.copy()
    if len(slices) > 2:
        pred[1:-1] = predictors.predict_row(flt, slices[:-2], slices[2:])
    if edge == 0 and len(slices) >= 2:
        pred[0] = predictors.predict_row(flt, slices[1], slices[1])
        pred[-1] = predictors.predict_row(flt, slices[-2], slices[-2])
    return sensing.signal_from_slices(pred, layout, x_prev.shape)


def predict_cube_bands(cfg_blockls: BlockLSPredictorConfig, f_prev: np.ndarray) -> np.ndarray:
    """Two-sided blockwise prediction of every band (one-sided at the ends);
    a lone band keeps f_prev, as a lone slice does in predict_slice_rows."""
    bands = f_prev.shape[2]
    if bands == 1:
        return f_prev.copy()
    pred = np.empty_like(f_prev)
    for b in range(bands):
        prev_band = f_prev[:, :, b - 1] if b > 0 else None
        next_band = f_prev[:, :, b + 1] if b < bands - 1 else None
        pred[:, :, b] = predictors.predict_band_twosided(
            prev_band, next_band, f_prev[:, :, b], cfg_blockls
        )
    return pred


# per layout: the filter type its prediction takes, and how many slices at each
# end the sweeps leave to the initialization (an image's first and last row)
_LOOPS = {
    Layout.ROWS_2D: (RowFilter, 1),
    Layout.BANDS_3D: (BlockLSPredictorConfig, 0),
    Layout.SPECTRAL_ROWS_3D: (RowFilter, 0),
}


# --- engines -----------------------------------------------------------------------

def _signal_like(ms: MeasurementSet, what: str, value):
    """value (a container or an array) as a finite float64 array of ms's signal
    shape, without a copy; None stays None."""
    if value is None:
        return None
    x = np.asarray(getattr(value, "samples", value), dtype=np.float64)
    if x.shape != ms.signal_shape:
        raise ValueError(f"{what} of shape {x.shape} does not match the measured signal {ms.signal_shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} holds non-finite values")
    return x


def _run_iterations(ms, basis, cfg, initial, ground_truth):
    """Shared engine: initialize (unless given initial), then predict, correct,
    test convergence, trace.  The report clock includes the initialization."""
    filter_type, edge = _LOOPS[ms.layout]
    if not isinstance(cfg.filter, filter_type):
        raise ValueError(f"layout {ms.layout.name} needs a {filter_type.__name__} filter, "
                         f"got {type(cfg.filter).__name__}")
    basis = basis or slice_basis_for(ms)
    x = _signal_like(ms, "initial", initial)
    truth = _signal_like(ms, "ground_truth", ground_truth)
    t0 = time.perf_counter()
    provider = _PhiProvider(ms.ensemble, basis)
    if initial is None:
        x, warnings = _initialize(ms, basis, cfg, provider)
    else:
        warnings = []
    track_compress = truth is not None and ms.layout == Layout.ROWS_2D

    mse_trace = None if truth is None else [metrics.mse(x, truth)]
    rel_trace = [np.nan]
    elapsed = [time.perf_counter() - t0]
    compress_trace = [metrics.row_compressibility(truth)] if track_compress else None
    converged = False
    lo, hi = edge, ms.ensemble.num_slices - edge

    for it in range(1, cfg.max_outer_iters + 1):
        x_prev = x
        if filter_type is RowFilter:
            pred = predict_slice_rows(cfg.filter, x_prev, ms.layout, edge)
        else:
            pred = predict_cube_bands(cfg.filter, x_prev)
        x, sweep_warn = _residual_sweep(ms, cfg.solver, pred, provider, lo, hi)
        warnings.extend((it, w) for w in sweep_warn)

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
        iterations_run=len(rel_trace) - 1,
        converged=converged,
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
    if ms.layout != Layout.ROWS_2D:
        raise ValueError(f"reconstruct_2d needs Rows2D measurements, got {ms.layout!r}")
    x, report = _run_iterations(ms, basis, cfg or ReconConfig(), initial, ground_truth)
    return Image2D(x), report


def reconstruct_3d(
    ms: MeasurementSet,
    basis: SparsityBasis | None = None,
    cfg: ReconConfig | None = None,
    ground_truth=None,
    initial=None,
):
    """Iterative reconstruction of a cube measured by bands or by spectral rows.

    The layout of ms decides the prediction: blockwise least squares across
    bands (cfg.filter a BlockLSPredictorConfig) or a row filter across spectral
    rows (a RowFilter).  initial, when given, replaces the cfg.init starting
    reconstruction.
    """
    if ms.layout == Layout.ROWS_2D:
        raise ValueError(f"reconstruct_3d needs cube measurements, got {ms.layout!r}")
    f, report = _run_iterations(ms, basis, cfg or ReconConfig(), initial, ground_truth)
    return Cube3D(f), report
