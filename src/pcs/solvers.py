"""Sparse-recovery engines.

solve_l1 minimizes ||theta||_1 subject to A*Psi*theta = y (or, with
relaxed_epsilon > 0, ||A*Psi*theta - y||_2 <= epsilon*||y||_2) with a
first-order primal-dual scheme (Chambolle-Pock).  Every l1 solve runs on one
operator, BatchedOperator: a stack of per-slice sensing matrices composed
with an orthonormal basis that spans either one slice (independent per-slice
problems) or the whole stacked vector (one joint Kronecker problem).  A
caller that holds the composed stack A*Psi passes it with basis None, and
the iterations then run no transform at all; the reconstruction sweeps do
this.  Only forward/adjoint applications are used, no factorizations.
Problems in a batch are solved independently: each leaves the batch at its
own stop, with a result that does not depend on the batch.  solve_l1 and
solve_omp take a dense matrix.

solve_omp is the greedy baseline and solve_l0_bruteforce the exhaustive
oracle for tiny instances; both exist so the convex solver can be checked
against independent routes.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import sensing, transforms
from .transforms import SparsityBasis

_CHECK_EVERY = 25
_POWER_ITERS = 30
# primal/dual step ratio and overrelaxation, tuned on planted-sparse and
# natural-image-row instances; tau*sigma*L^2 = 0.95^2 < 1 holds regardless
_STEP_RATIO = 0.25
_RELAX = 1.9


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the l1 solver.

    feasibility_tol and relaxed_epsilon are relative to ||y||_2; a solve
    counts as converged once some iterate satisfies
    ||A*Psi*theta - y|| <= max(feasibility_tol, relaxed_epsilon)*||y||.
    objective_tol is the relative l1 decrease between residual checks below
    which a feasible solve stops early; in a batch each problem stops at its
    own check, and iterations counts that problem's iterations only.
    relaxed_epsilon = 0 selects the equality-constrained mode.
    """

    feasibility_tol: float = 1e-6
    objective_tol: float = 1e-8
    max_solver_iters: int = 5000
    relaxed_epsilon: float = 0.0

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.relaxed_epsilon < 0:
            raise ValueError("relaxed_epsilon must be >= 0")
        if self.max_solver_iters < 1:
            raise ValueError("max_solver_iters must be >= 1")


@dataclass
class SolveResult:
    theta_hat: np.ndarray
    residual_l2: float
    l1_objective: float
    iterations: int
    converged: bool
    # (iteration, l1 objective, residual l2) at each residual check
    trace: list = field(default_factory=list)


def trace_to_csv(result: SolveResult, path) -> None:
    """Dump a solve trace for debugging."""
    with open(path, "w") as fh:
        fh.write("iteration,l1_objective,residual_l2\n")
        for it, obj, res in result.trace:
            fh.write(f"{it},{obj!r},{res!r}\n")


def _soft_threshold(v: np.ndarray, t) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class BatchedOperator:
    """The sensing operator of every l1 solve: per-slice matrices with a basis.

    phi has shape (S, m, n).  A basis of size n (or None, the identity) makes
    S independent problems: forward maps coefficient rows (S, n) to
    measurement rows (S, m).  A basis of size S*n makes one joint problem
    (Kronecker CS): forward synthesizes the stacked vector (1, S*n), applies
    each slice's matrix to its segment and returns (1, S*m).
    """

    def __init__(self, phi: np.ndarray, basis: SparsityBasis | None):
        self.phi = np.asarray(phi, dtype=np.float64)
        self.basis = basis
        slices, m, n = self.phi.shape
        size = n if basis is None else basis.size
        if size == n:
            self.joint, self.batch, self.m = False, slices, m
        elif size == slices * n:
            self.joint, self.batch, self.m = True, 1, slices * m
        else:
            raise ValueError(
                f"basis size {size} matches neither n={n} nor {slices} slices of n ({slices * n})"
            )
        self.n = size

    def forward(self, theta: np.ndarray) -> np.ndarray:
        x = theta if self.basis is None else transforms.synthesize(self.basis, theta)
        slices, _, n = self.phi.shape
        return np.matmul(self.phi, x.reshape(slices, n, 1))[..., 0].reshape(self.batch, self.m)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        slices, m, _ = self.phi.shape
        x = np.matmul(self.phi.transpose(0, 2, 1), w.reshape(slices, m, 1))[..., 0]
        x = x.reshape(self.batch, self.n)
        return x if self.basis is None else transforms.analyze(self.basis, x)

    def take(self, idx: np.ndarray) -> "BatchedOperator":
        """Operator over problems idx; a joint operator holds only problem 0."""
        return self if self.joint else BatchedOperator(self.phi[idx], self.basis)


def _operator_norms(op, n_iters: int = _POWER_ITERS) -> np.ndarray:
    """Per-problem spectral norm estimates via power iteration.

    The basis factor is orthonormal, so this equals the norm of the sensing
    part; power iteration keeps everything operator-only.  Every problem
    starts from the same seeded vector, so a problem's estimate does not
    depend on the batch it is solved in.
    """
    v = np.tile(sensing.philox_normals(0x9E37, 0x79B9, op.n), (op.batch, 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    lam = np.ones(op.batch)
    for _ in range(n_iters):
        w = op.adjoint(op.forward(v))
        lam = np.linalg.norm(w, axis=1)
        nz = lam > 0
        v[nz] = w[nz] / lam[nz, None]
    return np.sqrt(lam) * 1.02  # safety margin so tau*sigma*L^2 < 1


@dataclass
class BatchSolveState:
    """Results of a batched solve, aligned with the input batch order."""

    theta: np.ndarray
    residual: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    traces: list


def _determined_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """Degenerate m >= n case: the constraint set pins theta, so l1 plays no
    role; least squares on each slice's matrix, then the analysis transform,
    recovers the unique consistent point."""
    y = np.asarray(y, dtype=np.float64).reshape(op.batch, op.m)
    slices, m, _ = op.phi.shape
    x = np.array([np.linalg.lstsq(p, v, rcond=None)[0] for p, v in zip(op.phi, y.reshape(slices, m))])
    x = x.reshape(op.batch, op.n)
    theta = x if op.basis is None else transforms.analyze(op.basis, x)
    residual = np.linalg.norm(op.forward(theta) - y, axis=1)
    objective = np.abs(theta).sum(axis=1)
    bound = max(cfg.feasibility_tol, cfg.relaxed_epsilon) * np.linalg.norm(y, axis=1)
    converged = residual <= np.maximum(bound, 1e-300)
    traces = [[(0, float(o), float(r))] if keep_trace else [] for o, r in zip(objective, residual)]
    iterations = np.zeros(op.batch, dtype=np.int64)
    return BatchSolveState(theta, residual, objective, iterations, converged, traces)


def _pdhg_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """Primal-dual iterations over a batch of independent problems.

    A problem that reaches feasibility and an l1 plateau leaves the working
    set at that residual check, so a sweep costs what its slow problems need
    and not the whole batch times the slowest.  With the shared power-
    iteration start vector (_operator_norms), every row operation here is
    per problem: a problem's result, iteration count and converged flag are
    bit-identical whether it is solved alone or in any batch.
    """
    if op.m >= op.n:
        return _determined_batch(op, y, cfg, keep_trace)
    batch, m, n = op.batch, op.m, op.n
    y = np.asarray(y, dtype=np.float64).reshape(batch, m)
    ynorm = np.linalg.norm(y, axis=1)
    feas_rel = max(cfg.feasibility_tol, cfg.relaxed_epsilon)
    bound_full = feas_rel * ynorm
    eps_full = cfg.relaxed_epsilon * ynorm

    best_theta = np.zeros((batch, n))
    best_obj = np.full(batch, np.inf)
    best_res = ynorm.copy()
    iters_done = np.zeros(batch, dtype=np.int64)
    traces: list = [[] for _ in range(batch)]

    # zero measurements: theta = 0 is feasible with minimal l1
    best_obj[ynorm == 0] = 0.0
    best_res[ynorm == 0] = 0.0

    work = np.flatnonzero(ynorm > 0)
    if work.size:
        sub = op.take(work)
        # solve against y/||y||: the iteration is not scale-equivariant (the
        # soft-threshold has a fixed size), so normalizing keeps small-residual
        # problems in the same well-tuned regime as unit-scale ones
        yscale = ynorm[work]
        ysub = y[work] / yscale[:, None]
        L = np.maximum(_operator_norms(sub), 1e-12)
        tau = _STEP_RATIO * 0.95 / L
        sigma = 0.95 / (_STEP_RATIO * L)
        x = np.zeros((work.size, n))
        z = np.zeros((work.size, m))
        prev_obj = np.full(work.size, np.inf)

        k = 0
        while k < cfg.max_solver_iters:
            k += 1
            xt = _soft_threshold(x - tau[:, None] * sub.adjoint(z), tau[:, None])
            w = z + sigma[:, None] * (sub.forward(2.0 * xt - x) - ysub)
            if cfg.relaxed_epsilon > 0:
                wn = np.linalg.norm(w, axis=1)
                scale = np.maximum(0.0, 1.0 - sigma * cfg.relaxed_epsilon / np.maximum(wn, 1e-300))
                zt = w * scale[:, None]
            else:
                zt = w
            x = x + _RELAX * (xt - x)
            z = z + _RELAX * (zt - z)

            if k % _CHECK_EVERY == 0 or k == cfg.max_solver_iters:
                res = np.linalg.norm(sub.forward(x) - ysub, axis=1) * yscale
                obj = np.abs(x).sum(axis=1) * yscale
                iters_done[work] = k
                if keep_trace:
                    for local, g in enumerate(work):
                        traces[g].append((k, float(obj[local]), float(res[local])))
                feas = res <= bound_full[work]
                improve = feas & (obj < best_obj[work])
                gidx = work[improve]
                best_theta[gidx] = x[improve] * yscale[improve, None]
                best_obj[gidx] = obj[improve]
                best_res[gidx] = res[improve]

                rel_dec = np.abs(prev_obj - obj) / np.maximum(obj, 1e-300)
                done = feas & np.isfinite(prev_obj) & (rel_dec <= cfg.objective_tol)
                done &= np.isfinite(best_obj[work])
                prev_obj = obj

                if k == cfg.max_solver_iters:
                    # never-feasible problems fall back to the final iterate
                    miss = ~np.isfinite(best_obj[work])
                    gmiss = work[miss]
                    best_theta[gmiss] = x[miss] * yscale[miss, None]
                    best_obj[gmiss] = obj[miss]
                    best_res[gmiss] = res[miss]
                    break
                if np.any(done):
                    kidx = np.flatnonzero(~done)
                    if kidx.size == 0:
                        break
                    work = work[kidx]
                    sub = sub.take(kidx)
                    ysub = ysub[kidx]
                    yscale = yscale[kidx]
                    tau = tau[kidx]
                    sigma = sigma[kidx]
                    x = x[kidx]
                    z = z[kidx]
                    prev_obj = prev_obj[kidx]

    converged = np.isfinite(best_obj) & (best_res <= np.maximum(bound_full, 0.0) + 1e-300)
    return BatchSolveState(best_theta, best_res, best_obj, iters_done, converged, traces)


def _dense_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"sensing matrix must be 2-D, got shape {a.shape}")
    return a


def solve_l1(a: np.ndarray, basis: SparsityBasis | None, y: np.ndarray, cfg: SolveConfig | None = None,
             keep_trace: bool = True) -> SolveResult:
    """Recover the minimum-l1 coefficient vector consistent with y.

    a is the dense m x n sensing matrix; basis is the sparsity basis (None
    means identity).  Returns the best feasible iterate encountered;
    converged=False flags a solve that never met the residual bound within
    max_solver_iters.
    """
    cfg = cfg or SolveConfig()
    op = BatchedOperator(_dense_matrix(a)[None], basis)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != op.m:
        raise ValueError(f"measurement length {y.shape[0]} does not match operator rows {op.m}")
    state = _pdhg_batch(op, y[None, :], cfg, keep_trace)
    return SolveResult(
        theta_hat=state.theta[0],
        residual_l2=float(state.residual[0]),
        l1_objective=float(state.objective[0]),
        iterations=int(state.iterations[0]),
        converged=bool(state.converged[0]),
        trace=state.traces[0],
    )


def solve_l1_batch(phi: np.ndarray, basis: SparsityBasis | None, y: np.ndarray,
                   cfg: SolveConfig | None = None) -> BatchSolveState:
    """Vectorized solve over a stack of sensing matrices (see BatchedOperator).

    phi: (S, m, n) stack of sensing matrices.  With a per-slice basis (size n
    or None) y is (S, m) and the S problems are independent; the
    reconstruction sweeps use this, where every row/band poses the same sized
    problem.  With a joint basis (size S*n) y is (1, S*m) and the result is
    one joint problem, as in the Kronecker initialization.
    """
    cfg = cfg or SolveConfig()
    op = BatchedOperator(phi, basis)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.batch, op.m):
        raise ValueError(f"y shape {y.shape} does not match batch ({op.batch}, {op.m})")
    return _pdhg_batch(op, y, cfg, keep_trace=False)


def solve_omp(a: np.ndarray, basis: SparsityBasis | None, y: np.ndarray,
              sparsity_budget: int | None = None, residual_tol: float | None = None) -> SolveResult:
    """Orthogonal matching pursuit baseline.

    Greedy pick of the atom best correlated with the residual (normalized by
    atom norm), then a least-squares refit over the active set.  Stops after
    sparsity_budget atoms or once the residual drops below residual_tol*||y||.
    The composed dictionary A*Psi is materialized from the dense sensing
    matrix a (one batched analysis over its rows).
    """
    if sparsity_budget is None and residual_tol is None:
        raise ValueError("need sparsity_budget or residual_tol")
    if sparsity_budget is not None and sparsity_budget < 1:
        raise ValueError("sparsity_budget must be >= 1")
    if residual_tol is not None and residual_tol <= 0:
        raise ValueError("residual_tol must be > 0")

    a = _dense_matrix(a)
    # row k of A*Psi is the analysis transform of row k of A
    dictionary = a if basis is None else transforms.analyze(basis, a)
    m, n = dictionary.shape
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != m:
        raise ValueError(f"measurement length {y.shape[0]} does not match operator rows {m}")
    norms = np.linalg.norm(dictionary, axis=0)
    norms[norms == 0] = 1.0

    budget = sparsity_budget if sparsity_budget is not None else m
    rtol = residual_tol if residual_tol is not None else 0.0
    ynorm = np.linalg.norm(y)

    support: list[int] = []
    coef = np.empty(0)
    resid = y.copy()
    trace = []
    it = 0
    while len(support) < budget and np.linalg.norm(resid) > rtol * max(ynorm, 1e-300):
        it += 1
        c = (dictionary.T @ resid) / norms
        c[support] = 0.0
        j = int(np.argmax(np.abs(c)))
        if c[j] == 0.0:
            break
        support.append(j)
        cols = dictionary[:, support]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = y - cols @ coef
        trace.append((it, float(np.abs(coef).sum()), float(np.linalg.norm(resid))))

    theta = np.zeros(n)
    theta[support] = coef
    rnorm = float(np.linalg.norm(resid))
    converged = rnorm <= max(rtol, 1e-10) * max(ynorm, 1e-300) or (
        sparsity_budget is not None and len(support) == sparsity_budget
    )
    return SolveResult(theta, rnorm, float(np.abs(theta).sum()), it, converged, trace)


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
        trace=[],
    )
