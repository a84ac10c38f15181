"""Progressive compressed-sensing acquisition and iterative reconstruction."""

__version__ = "0.1.0"

from .metrics import mse, row_compressibility
from .predictors import (
    P1,
    P2,
    P3,
    BlockLSPredictorConfig,
    RowFilter,
    predict_band_blockls,
    predict_band_twosided,
    predict_row,
)
from .recon import (
    ReconConfig,
    ReconReport,
    gain_db,
    init_kcs,
    init_separate,
    reconstruct_2d,
    reconstruct_3d,
)
from .sensing import (
    Layout,
    MeasurementSet,
    SeededSensingEnsemble,
    acquire_bands_3d,
    acquire_rows_2d,
    acquire_spectral_rows_3d,
    draw_sensing_matrix,
    load_measurements,
    save_measurements,
)
from .signals import Cube3D, Image2D
from .solvers import SolveConfig, SolveResult, solve_l1, solve_omp
from .transforms import SparsityBasis, analyze, synthesize

__all__ = [
    "BlockLSPredictorConfig",
    "Cube3D",
    "Image2D",
    "Layout",
    "MeasurementSet",
    "P1",
    "P2",
    "P3",
    "ReconConfig",
    "ReconReport",
    "RowFilter",
    "SeededSensingEnsemble",
    "SolveConfig",
    "SolveResult",
    "SparsityBasis",
    "acquire_bands_3d",
    "acquire_rows_2d",
    "acquire_spectral_rows_3d",
    "analyze",
    "draw_sensing_matrix",
    "gain_db",
    "init_kcs",
    "init_separate",
    "load_measurements",
    "mse",
    "predict_band_blockls",
    "predict_band_twosided",
    "predict_row",
    "reconstruct_2d",
    "reconstruct_3d",
    "row_compressibility",
    "save_measurements",
    "solve_l1",
    "solve_omp",
    "synthesize",
]
