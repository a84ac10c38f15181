"""Dense and exhaustive references for the library's fast routes, for small
instances: the block-diagonal sensing operator, the synthesis matrix of a
separable basis, the projection onto a system's least-squares solutions, and
brute-force l0 recovery."""

import itertools

import numpy as np
from scipy.linalg import block_diag

from pcs.sensing import draw_sensing_matrix
from pcs.solvers import SolveResult
from pcs.transforms import DCT, IDENTITY, SparsityBasis, dct_matrix


def dense_block_diag(ensemble):
    """diag(Phi^0, ..., Phi^{S-1}) of the ensemble as one dense matrix."""
    return block_diag(*[draw_sensing_matrix(ensemble, i) for i in range(ensemble.num_slices)])


def separable3d_basis(d0: int, d1: int, d2: int, factors=(DCT, DCT, DCT)) -> SparsityBasis:
    return SparsityBasis((d0, d1, d2), tuple(factors))


def dense_synthesis_matrix(basis: SparsityBasis) -> np.ndarray:
    """Materialize the full synthesis matrix (Kronecker of the 1D factors).

    Only sensible for small dims; intended for verification.
    """
    out = np.eye(1)
    # slowest axis is the leftmost Kronecker factor
    for d, f in zip(basis.dims[::-1], basis.factors[::-1]):
        fac = np.eye(d) if f == IDENTITY else dct_matrix(d).T
        out = np.kron(out, fac)
    return out


def pinv_projection(a: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of v onto the least-squares solutions of a*theta = y, by the pseudo-inverse."""
    return v - np.linalg.pinv(a) @ (a @ v - y)


def solve_l0_bruteforce(a: np.ndarray, y: np.ndarray, k: int) -> SolveResult:
    """Exhaustive minimum-residual search over all supports of size <= k.

    NP-hard by nature, so guarded to tiny instances (n <= 20, k <= 3); exists
    purely as an oracle for the other solvers.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    m, n = a.shape
    if y.shape[0] != m:
        raise ValueError(f"measurement length {y.shape[0]} does not match matrix rows {m}")
    if n > 20 or k > 3:
        raise ValueError(f"instance too large for brute force (n={n}, k={k}; need n<=20, k<=3)")
    if k < 0:
        raise ValueError("k must be >= 0")

    best_theta = np.zeros(n)
    best_res = float(np.linalg.norm(y))
    for size in range(1, k + 1):
        for support in itertools.combinations(range(n), size):
            sub = a[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            r = float(np.linalg.norm(y - sub @ coef))
            if r < best_res - 1e-15:
                best_res = r
                best_theta = np.zeros(n)
                best_theta[list(support)] = coef
    return SolveResult(
        theta_hat=best_theta,
        residual_l2=best_res,
        l1_objective=float(np.abs(best_theta).sum()),
        iterations=0,
        converged=True,
    )
