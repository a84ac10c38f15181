"""Sparse-recovery engines.

solve_l1 minimizes ||theta||_1 subject to A*Psi*theta = y: basis pursuit
(Chen, Donoho and Saunders 1998) on noiseless measurements.  Every l1 solve
runs one algorithm, ADMM on the exact projection onto its constraints
(_admm_batch), over one operator, BatchedOperator: a stack of per-slice
matrices that poses either independent per-slice problems or one joint
Kronecker problem with the DCT across slices.  solve_l1_batch takes the
operator's own arguments, the stack and a cross-slice factor (None or
"dct"); a per-slice basis is the caller's to compose into the stack (row k
of Phi_s*Psi is the analysis transform of row k of Phi_s).  The
reconstruction composes its stack as it draws it, and passes no cross-slice
factor to the sweeps and the cross-slice DCT to the Kronecker
initialization.  solve_l1 and solve_omp take a dense matrix and a basis,
which they compose into it (_dense_problem).

Each slice's rows are factored once per call through its m x m Gram
matrix: by Cholesky when m < n and the slice is well conditioned, otherwise
by an eigendecomposition whose eigenvalues at or below the Gram's rounding
level, max(m, n)*eps of the largest, are null directions.  The iterations
apply the orthonormal factor through BatchedOperator.  Every candidate is
projected onto the constraints, and the result is the candidate of lowest
l1.  For m >= n of full rank the projection is the least-squares point, so
it is ADMM's first candidate and the solve stops at its first check with it:
converged when the system is consistent, not converged when it is not.
Problems in a batch are solved independently: each leaves the batch at its
own stop, with a result that does not depend on the batch.  So independent
problems are solved in consecutive blocks of at most _BLOCK_BYTES of the
factor, each factored and iterated to its end before the next: a solve
holds one block of the factor, which stays in a core's cache across its
iterations, and its results are those of the whole batch, bit for bit.  A
joint problem couples every slice and is one block.  The caller's
tolerances decide the factor's precision (_factor_dtype): a compressive
solve (m < n per slice) whose tolerances are both at least _FLOAT32_TOL,
as on the reconstruction's sweep profile, holds its factor in float32, so
each apply streams half the bytes and a block holds twice the slices; every
other solve holds it in float64.  Each slice is factored in float64 either
way, the iterates are float64, and the reported residual and converged are
computed on the caller's float64 stack.  Each solver refuses
measurements holding a NaN or an infinity, and BatchedOperator a stack
without slices or with slices of length 0, before it starts.

solve_omp is the greedy baseline, an independent route to check the convex
solver against.
"""

import operator
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from . import transforms
from .transforms import SparsityBasis

_CHECK_EVERY = 25
# ADMM penalty rho = _ADMM_RHO*sqrt(n) on the normalized problem
_ADMM_RHO = 8.0
# a cross-slice DCT over at most this many slices is one dense S x S product;
# above it the transform is cheaper (it overtook the product at 180 to 250
# slices, for slice lengths 64 to 576, on a 2-vCPU x86 machine)
_DENSE_CROSS_MAX = 128
# a slice with m < n whose bound on cond(B_s B_s^T) is at most 1/sqrt(eps)
# is factored by Cholesky; its Gram matrix keeps at least half its digits
_CHOLESKY_COND_MAX = np.finfo(np.float64).eps ** -0.5
# independent problems are factored and iterated in blocks of at most this
# many bytes of Q^T as held (float32 or float64), so that a block stays in a
# core's 2 MiB L2 cache across its iterations; each block repeats the
# per-iteration Python work, which made blocks of 512 KiB and less slower on
# 32 x 128 float64 slices
_BLOCK_BYTES = 1 << 20
# a compressive solve (m < n per slice) whose feasibility and objective
# tolerances are both at least this, two orders above float32's rounding,
# holds its factor Q^T in float32: each apply streams half the bytes, and
# ADMM tolerates subproblem errors this far below its stop (Eckstein and
# Bertsekas 1992)
_FLOAT32_TOL = 100 * np.finfo(np.float32).eps


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the l1 solver.

    feasibility_tol is relative to ||y||_2; the bound is
    ||A*Psi*theta - y|| <= feasibility_tol*||y||.  objective_tol is the
    relative l1 decrease between residual checks below which a feasible
    solve stops; in a batch each problem stops at its own check, and
    iterations counts that problem's iterations only.

    converged means that the problem met its stop test (feasible and l1
    plateau) by max_solver_iters and the returned theta meets the bound:
    every ADMM candidate is feasible to rounding, so meeting the bound alone
    says nothing.

    The tolerances also decide the factor's precision: a compressive
    solve (m < n per slice) with both at least _FLOAT32_TOL applies a
    float32 factor, every other solve a float64 one (_factor_dtype).  The
    reported residual and converged are computed on the caller's float64
    stack either way, so converged means the bound holds in float64.
    """

    feasibility_tol: float = 1e-6
    objective_tol: float = 1e-8
    max_solver_iters: int = 5000

    def __post_init__(self):
        if not (0 < self.feasibility_tol < np.inf and 0 < self.objective_tol < np.inf):
            raise ValueError("tolerances must be finite and > 0")
        try:
            operator.index(self.max_solver_iters)
        except TypeError:
            raise ValueError(f"max_solver_iters must be an integer, got {self.max_solver_iters!r}") from None
        if self.max_solver_iters < 1:
            raise ValueError("max_solver_iters must be >= 1")


@dataclass
class SolveResult:
    theta_hat: np.ndarray
    residual_l2: float
    l1_objective: float
    iterations: int
    converged: bool


class BatchedOperator:
    """The sensing operator of every l1 solve: a stack of per-slice matrices.

    phi has shape (S, m, n).  With cross None the S problems are independent:
    forward maps coefficient rows (S, n) to measurement rows (S, m).  With
    cross "dct" the S slices make one problem (Kronecker CS) in the joint
    basis Psi_cross (x) I, Psi_cross the DCT across slices: forward
    synthesizes the stacked vector (1, S*n) across slices, applies each
    slice's matrix to its segment and returns (1, S*m).  A per-slice basis
    belongs in the matrices, composed by the caller, since
    blockdiag(Phi_s)*(Psi_cross (x) Psi_slice) =
    blockdiag(Phi_s*Psi_slice)*(Psi_cross (x) I).  A phi that is not 3-D,
    that has no slices or slices of length 0, or another cross-slice factor,
    is refused; m = 0 poses problems that theta = 0 answers.  A cross-slice
    DCT over at most _DENSE_CROSS_MAX slices is applied as one S x S matrix
    product on the (S, n) array of segments; over more slices the S^2*n
    product costs more than a DCT along the slice axis of that array, which
    then runs instead.

    A float32 stack (a solver's factor, _row_space) is kept in float32 and
    any other is taken as float64.  The matrix products run in the stack's
    dtype; their inputs and outputs, and the cross-slice DCT, are float64.
    """

    def __init__(self, phi: np.ndarray, cross: str | None = None):
        phi = np.asarray(phi)
        self.phi = phi if phi.dtype == np.float32 else phi.astype(np.float64, copy=False)
        if self.phi.ndim != 3:
            raise ValueError(f"phi must be a 3-D stack (S, m, n) of sensing matrices, "
                             f"got shape {self.phi.shape}")
        slices, m, n = self.phi.shape
        if slices == 0 or n == 0:
            raise ValueError(f"phi of shape {self.phi.shape} poses no problem: it needs at least "
                             f"one slice, of length at least 1")
        self.cross = cross
        self._dense = None
        if cross is None:
            self.joint, self.batch, self.m, self.n = False, slices, m, n
            return
        if cross != transforms.DCT:
            raise ValueError(f"unknown cross-slice factor {cross!r}")
        self.joint, self.batch, self.m, self.n = True, 1, slices * m, slices * n
        if slices <= _DENSE_CROSS_MAX:
            self._dense = transforms.dct_matrix(slices)

    def synthesize(self, theta: np.ndarray) -> np.ndarray:
        """Coefficients (batch, n) -> per-slice signals (S, n_slice)."""
        x = theta.reshape(self.phi.shape[0], -1)
        if self._dense is not None:
            x = self._dense.T @ x
        elif self.joint:
            x = dct(x, type=3, axis=0, norm="ortho")
        return x

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Per-slice signals (S, n_slice) -> coefficients (batch, n); inverse of synthesize."""
        x = x.reshape(self.phi.shape[0], -1)
        if self._dense is not None:
            x = self._dense @ x
        elif self.joint:
            x = dct(x, type=2, axis=0, norm="ortho")
        return x.reshape(self.batch, self.n)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        x = self.synthesize(theta).astype(self.phi.dtype, copy=False)
        w = np.matmul(self.phi, x[:, :, None])[..., 0]
        return w.astype(np.float64, copy=False).reshape(self.batch, self.m)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        slices, m, _ = self.phi.shape
        w = w.reshape(slices, m, 1).astype(self.phi.dtype, copy=False)
        return self.analyze(np.matmul(self.phi.transpose(0, 2, 1), w)[..., 0].astype(np.float64, copy=False))


@dataclass
class BatchSolveState:
    """Results of a batched solve, aligned with the input batch order."""

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _factor_dtype(op, cfg: SolveConfig) -> np.dtype:
    """The dtype of op's factor Q^T under cfg: float32 for a compressive
    problem (m < n per slice) whose tolerances are both at least
    _FLOAT32_TOL, float64 for every other."""
    m, n = op.phi.shape[1:]
    loose = min(cfg.feasibility_tol, cfg.objective_tol) >= _FLOAT32_TOL
    return np.dtype(np.float32 if m < n and loose else np.float64)


def _row_space(op, yhat: np.ndarray, work: np.ndarray, dtype=np.float64):
    """Orthonormal rows of the row space of every slice of the problems in work.

    yhat holds the normalized measurements of those problems, aligned with
    work.  Each slice is factored through its Gram matrix G = B_s B_s^T, by
    one of two routes chosen for that slice alone, so that its bits never
    depend on its batch:

    - Cholesky, for m < n when G = L L^T factors and trace(G)*||L^-1||_F^2,
      an upper bound on cond(G), is at most _CHOLESKY_COND_MAX: Q^T = L^-1 B_s,
      yq = L^-1 yhat_s, rank m and gap 0.  Such a slice has full row rank,
      with every eigenvalue of G far above the rank cut below, so
      B_s theta = yhat_s is consistent.
    - eigh, for every other slice (m >= n, rank-deficient or ill-conditioned):
      with G = V diag(w) V^T, the rows Q^T = diag(w)^-1/2 V^T B_s of the
      directions with w above the rank cut, max(m, n)*eps*max(w) (the rounding
      level of the Gram matrix itself), and yq = diag(w)^-1/2 V^T yhat_s.
      Null directions get zero rows, and gap is the distance of yhat_s from
      the range: 0 (to rounding) when the system is consistent.

    Either way the rows of Q^T are orthonormal and P(v) = v - Q(Q^T v - yq)
    projects onto the least-squares solutions of B_s theta = yhat_s.  One
    slice at a time, so only the Q^T stack and a few m x m matrices are held.
    Every slice is factored in float64, and its rows are written straight
    into the Q^T stack, of the given dtype (_factor_dtype); rank, yq and gap
    are float64 whatever it is.

    A joint problem factors every slice.  Its cross-slice DCT is
    orthonormal, so BatchedOperator(Q^T, op.cross) turns P into the exact
    projection onto the joint constraints, Psi_cross^T P Psi_cross, and its
    gap is the l2 norm of the slices' gaps, its rank the sum of theirs.
    Returns (Q^T, rank, yq, gap): the stack, and per problem in work the
    number of directions kept, yq and gap.
    """
    slices = np.arange(op.phi.shape[0]) if op.joint else work
    yhat = yhat.reshape(slices.size, -1)
    m, n = op.phi.shape[1:]
    qt = np.zeros((slices.size, m, n), dtype=dtype)
    yq = np.zeros(yhat.shape)
    rank = np.empty(slices.size, dtype=np.int64)
    gap = np.empty(slices.size)
    cut = max(m, n) * np.finfo(np.float64).eps
    for j, s in enumerate(slices):
        b = op.phi[s]
        g = b @ b.T
        if m < n:
            try:
                linv = np.linalg.inv(np.linalg.cholesky(g))
            except np.linalg.LinAlgError:
                linv = None
            # ||L||_F^2 = trace(G), and cond(G) <= ||L||_F^2 ||L^-1||_F^2
            if linv is not None and np.trace(g) * np.sum(linv * linv) <= _CHOLESKY_COND_MAX:
                qt[j] = linv @ b
                yq[j] = linv @ yhat[j]
                rank[j], gap[j] = m, 0.0
                continue
        w, v = np.linalg.eigh(g)
        keep = w > w[-1] * cut
        v = v[:, keep]
        coef = v.T @ yhat[j]
        gap[j] = np.linalg.norm(yhat[j] - v @ coef)
        scale = w[keep] ** -0.5
        rank[j] = scale.size
        yq[j, :scale.size] = coef * scale
        qt[j, :scale.size] = (v * scale).T @ b
    if op.joint:
        return qt, rank.sum(keepdims=True), yq.reshape(1, -1), np.linalg.norm(gap, keepdims=True)
    return qt, rank, yq, gap


def _admm_batch(op, y: np.ndarray, cfg: SolveConfig) -> BatchSolveState:
    """Basis pursuit by ADMM on the exact projection (Boyd et al. 2011, 6.2).

    Each slice's rows are factored once (_row_space, by Cholesky or eigh)
    into an orthonormal stack Q^T, applied through a BatchedOperator over Q^T
    with op.cross, so the iterations need no power iteration and no step
    sizes.  With P(v) = v - Q(Q^T v - yq) the projection onto the
    constraints, each iteration is
        x = P(z - u),  z = soft(x + u, 1/rho),  u += x - z,
    with soft(v, t) = sign(v)*max(|v| - t, 0).  z and u are updated in
    place, and z - u, x + u and x - z share one buffer, so an iteration
    allocates only the two applies' outputs, with their casts to and from a
    float32 Q^T, and the residual between them.

    Q^T is float32 or float64 by _factor_dtype, and only the applies read
    it: z, u, v, the soft threshold, the l1 objective and the plateau test
    are float64.  Independent problems are solved in consecutive blocks
    (_admm_block) of at most _BLOCK_BYTES of Q^T as held, so a float32 block
    holds twice the slices, and at least one problem each: every block
    is factored and iterated to its own last stop before the next is
    factored, so only one block of Q^T is held, and it stays in a core's
    cache across its iterations.  A joint problem is one problem, so one
    block: its cross-slice DCT couples every slice at every iteration.

    At each check the candidate is P(z), feasible to rounding, and the
    result is the candidate of lowest l1 (best); a problem is done, and
    converged, when its l1 has plateaued.  Whether a problem can be feasible
    at all is fixed by the factorization: one whose measurements lie farther
    from the range of its matrix than the bound (gap) leaves at its first
    check with its least-squares candidate, not converged.  When B has rank
    n (so m >= n), P(v) is the least-squares point for every v, so the solve
    is done at its first check.  A problem that leaves the working set has
    its Q^T rows overwritten by compaction in place, so every row operation
    is per problem and a result is bit-identical alone, in any batch and in
    any block.  The reported residual is recomputed on the caller's float64
    stack, so converged means the bound holds there whatever Q^T's dtype;
    of the checks themselves only the iteration count is kept.
    """
    y = np.asarray(y, dtype=np.float64).reshape(op.batch, op.m)
    ynorm = np.linalg.norm(y, axis=1)
    # theta = 0 answers zero measurements: feasible with minimal l1
    theta = np.zeros((op.batch, op.n))
    iterations = np.zeros(op.batch, dtype=np.int64)
    stopped = ynorm == 0
    work = np.flatnonzero(ynorm > 0)
    # a slice of Q^T holds as many entries as a slice of B, in its own dtype
    # (none when m = 0, where every problem is answered by theta = 0)
    dtype = _factor_dtype(op, cfg)
    per_block = max(1, _BLOCK_BYTES // max(op.phi[0].size * dtype.itemsize, 1))
    for lo in range(0, work.size, per_block):
        _admm_block(op, y, ynorm, work[lo:lo + per_block], cfg, dtype, theta, iterations, stopped)
    residual = np.linalg.norm(op.forward(theta) - y, axis=1)
    return BatchSolveState(theta=theta, residual=residual, iterations=iterations,
                           converged=stopped & (residual <= cfg.feasibility_tol * ynorm))


def _admm_block(op, y, ynorm, work, cfg, dtype, theta, iterations, stopped) -> None:
    """_admm_batch's iterations on the problems in work, a block of op's batch.

    Factors the block's slices into a Q^T of the given dtype and iterates
    until each of its problems stops, writing each problem's result, iteration count and stop into
    theta, iterations and stopped, indexed by op's batch.
    """
    # the iteration is not scale-equivariant (the soft-threshold has a
    # fixed size), so it runs on y/||y||
    yscale = ynorm[work]
    qt, rank, yq, gap = _row_space(op, y[work] / yscale[:, None], work, dtype)
    thresh = 1.0 / (_ADMM_RHO * np.sqrt(op.n))
    z = np.zeros((work.size, op.n))
    u = np.zeros((work.size, op.n))
    # z - u, then x + u, then x - z
    v = np.empty((work.size, op.n))
    best = np.full(work.size, np.inf)
    prev_obj = np.full(work.size, np.inf)
    proj = BatchedOperator(qt, op.cross)

    # gap is fixed by the factorization: whether a problem can ever be
    # feasible is known now, and one that cannot leaves at its first check
    infeasible = gap * yscale > cfg.feasibility_tol * yscale
    # a full-rank system has one feasible point, its first candidate
    determined = rank == op.n
    k = 0
    while k < cfg.max_solver_iters:
        k += 1
        np.subtract(z, u, out=v)
        x = proj.adjoint(proj.forward(v) - yq)
        np.subtract(v, x, out=x)
        np.add(x, u, out=v)
        # z = soft(v, thresh); copysign differs from sign only at v = -0,
        # which x + u never is: u starts at +0, and a sum is -0 only when
        # both its terms are
        np.abs(v, out=z)
        z -= thresh
        np.maximum(z, 0.0, out=z)
        np.copysign(z, v, out=z)
        np.subtract(x, z, out=v)
        u += v
        last = k == cfg.max_solver_iters
        if k % _CHECK_EVERY == 0 or last:
            cand = z - proj.adjoint(proj.forward(z) - yq)
            obj = np.abs(cand).sum(axis=1) * yscale
            iterations[work] = k
            # an infeasible problem's one candidate is taken as well
            better = obj < best
            theta[work[better]] = cand[better] * yscale[better, None]
            best = np.where(better, obj, best)
            rel_dec = np.abs(prev_obj - obj) / np.maximum(obj, 1e-300)
            done = ~infeasible & (determined | (rel_dec <= cfg.objective_tol))
            prev_obj = obj
            stopped[work[done]] = True
            kidx = np.flatnonzero(~(done | infeasible))
            if last or kidx.size == 0:
                break
            if kidx.size < work.size:
                work, yscale, infeasible, determined, best, prev_obj, z, u, yq = (
                    arr[kidx]
                    for arr in (work, yscale, infeasible, determined, best, prev_obj, z, u, yq))
                v = v[:kidx.size]
                # compact the Q^T buffer in place: kidx ascends, so no
                # row is overwritten before it is moved
                for j, s in enumerate(kidx):
                    if j != s:
                        qt[j] = qt[s]
                proj = BatchedOperator(qt[:kidx.size], op.cross)


def _dense_problem(a, basis: SparsityBasis | None, y) -> tuple[np.ndarray, np.ndarray]:
    """a*Psi (row k: the analysis transform of row k of a) and y, checked against it."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"sensing matrix must be 2-D, got shape {a.shape}")
    a = a if basis is None else transforms.analyze(basis, a)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != a.shape[0]:
        raise ValueError(f"measurement length {y.shape[0]} does not match operator rows {a.shape[0]}")
    if not np.isfinite(y).all():
        raise ValueError("measurements hold non-finite values")
    return a, y


def solve_l1(a: np.ndarray, basis: SparsityBasis | None, y: np.ndarray,
             cfg: SolveConfig | None = None) -> SolveResult:
    """Recover the minimum-l1 coefficient vector consistent with y.

    a is the dense m x n sensing matrix; basis is the sparsity basis (None
    means identity), of size n, composed into a before the solve (_dense_problem).
    Returns the best feasible iterate encountered; converged=False flags a
    solve that did not finish within max_solver_iters (see SolveConfig).
    """
    cfg = cfg or SolveConfig()
    dense, y = _dense_problem(a, basis, y)
    state = _admm_batch(BatchedOperator(dense[None]), y[None, :], cfg)
    return SolveResult(
        theta_hat=state.theta[0],
        residual_l2=float(state.residual[0]),
        l1_objective=float(np.abs(state.theta[0]).sum()),
        iterations=int(state.iterations[0]),
        converged=bool(state.converged[0]),
    )


def solve_l1_batch(phi: np.ndarray, cross: str | None, y: np.ndarray,
                   cfg: SolveConfig | None = None) -> BatchSolveState:
    """Vectorized solve over a stack of sensing matrices (see BatchedOperator).

    phi: (S, m, n) stack of sensing matrices, each already composed with the
    per-slice basis.  With cross None y is (S, m) and the S problems are
    independent; the reconstruction sweeps use this, where every row/band
    poses the same sized problem.  With cross "dct" y is (1, S*m) and the
    result is one joint problem in the basis Psi_cross (x) I, Psi_cross the
    DCT across slices, as in the Kronecker initialization.
    """
    cfg = cfg or SolveConfig()
    op = BatchedOperator(np.asarray(phi, dtype=np.float64), cross)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.batch, op.m):
        raise ValueError(f"y shape {y.shape} does not match batch ({op.batch}, {op.m})")
    bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
    if bad.size:
        raise ValueError(f"measurement rows {bad.tolist()} hold non-finite values")
    return _admm_batch(op, y, cfg)


def solve_omp(a: np.ndarray, basis: SparsityBasis | None, y: np.ndarray,
              sparsity_budget: int | None = None, residual_tol: float | None = None) -> SolveResult:
    """Orthogonal matching pursuit baseline.

    Greedy pick of the atom best correlated with the residual (normalized by
    atom norm), then a least-squares refit over the active set.  Stops after
    sparsity_budget atoms, once the residual drops below residual_tol*||y||,
    or when no atom is left correlated with it; iterations is the number of
    atoms chosen.  The composed dictionary A*Psi is materialized from the
    dense sensing matrix a and basis as for solve_l1 (_dense_problem).
    """
    if sparsity_budget is None and residual_tol is None:
        raise ValueError("need sparsity_budget or residual_tol")
    if sparsity_budget is not None and sparsity_budget < 1:
        raise ValueError("sparsity_budget must be >= 1")
    if residual_tol is not None and not 0 < residual_tol < np.inf:
        raise ValueError("residual_tol must be finite and > 0")

    dictionary, y = _dense_problem(a, basis, y)
    m, n = dictionary.shape
    norms = np.linalg.norm(dictionary, axis=0)
    norms[norms == 0] = 1.0

    budget = sparsity_budget if sparsity_budget is not None else m
    rtol = residual_tol if residual_tol is not None else 0.0
    ynorm = np.linalg.norm(y)

    support: list[int] = []
    coef = np.empty(0)
    resid = y.copy()
    while len(support) < budget and np.linalg.norm(resid) > rtol * max(ynorm, 1e-300):
        c = (dictionary.T @ resid) / norms
        c[support] = 0.0
        j = int(np.argmax(np.abs(c)))
        if c[j] == 0.0:
            break
        support.append(j)
        cols = dictionary[:, support]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = y - cols @ coef

    theta = np.zeros(n)
    theta[support] = coef
    rnorm = float(np.linalg.norm(resid))
    converged = rnorm <= max(rtol, 1e-10) * max(ynorm, 1e-300) or (
        sparsity_budget is not None and len(support) == sparsity_budget
    )
    return SolveResult(theta, rnorm, float(np.abs(theta).sum()), len(support), converged)
