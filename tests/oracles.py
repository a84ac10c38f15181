"""Dense references for the matrix-free operators, for small ensembles."""

from scipy.linalg import block_diag

from pcs.sensing import draw_sensing_matrix


def dense_block_diag(ensemble):
    """diag(Phi^0, ..., Phi^{S-1}) of the ensemble as one dense matrix."""
    return block_diag(*[draw_sensing_matrix(ensemble, i) for i in range(ensemble.num_slices)])
