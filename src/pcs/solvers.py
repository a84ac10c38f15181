"""Sparse-recovery engines.

solve_l1 minimizes ||theta||_1 subject to A*Psi*theta = y (or, with
relaxed_epsilon > 0, ||A*Psi*theta - y||_2 <= epsilon*||y||_2).  Every l1
solve runs on one operator, BatchedOperator: a stack of per-slice sensing
matrices composed with an orthonormal basis that spans either one slice
(independent per-slice problems) or the whole stacked vector (one joint
Kronecker problem).  A caller that holds the composed stack A*Psi passes it
with basis None; the reconstruction sweeps do this.  The Kronecker
initialization passes the composed stack with the joint basis whose
per-slice factors are the identity, so only the cross-slice factor stays
inside the operator.

One function (_solve_batch) picks the algorithm.  An equality-constrained
problem on an explicit stack (basis None) runs ADMM on the exact projection
onto its constraints: each slice's rows are factored once per call (an
eigendecomposition of the m x m Gram matrix, rank-revealing), and the
iterations apply the orthonormal factor through BatchedOperator.  A basis
inside the operator (the Kronecker initialization, solve_l1 with a basis)
or a relaxed constraint runs a first-order primal-dual scheme
(Chambolle-Pock) that uses only forward/adjoint applications.  m >= n is
least squares.  Problems in a batch are solved independently: each leaves
the batch at its own stop, with a result that does not depend on the batch.
solve_l1 and solve_omp take a dense matrix.

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
# ADMM penalty rho = _ADMM_RHO*sqrt(n) on the normalized problem
_ADMM_RHO = 8.0
# Gram eigenvalues below this fraction of the largest are null directions
_RANK_RTOL = 1e-10
# a cross-slice DCT over at most this many slices is one dense S x S product;
# above it the transform is cheaper (it overtook the product at 180 to 250
# slices, for slice lengths 64 to 576, on a 2-vCPU x86 machine)
_DENSE_CROSS_MAX = 128


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the l1 solver.

    feasibility_tol and relaxed_epsilon are relative to ||y||_2; the bound is
    ||A*Psi*theta - y|| <= max(feasibility_tol, relaxed_epsilon)*||y||.
    objective_tol is the relative l1 decrease between residual checks below
    which a feasible solve stops; in a batch each problem stops at its own
    check, and iterations counts that problem's iterations only.
    relaxed_epsilon = 0 selects the equality-constrained mode.

    converged means, on the ADMM path (basis None, equality), that the
    problem met its stop test (feasible and l1 plateau) by
    max_solver_iters and the returned theta meets the bound: every ADMM
    candidate is feasible to rounding, so meeting the bound alone says
    nothing.  On the primal-dual path it means that some checked iterate
    met the bound.
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

    A joint basis must put the slice axis last: it is then Psi_cross (x)
    Psi_slice, and blockdiag(Phi_s)*(Psi_cross (x) Psi_slice) =
    blockdiag(Phi_s*Psi_slice)*(Psi_cross (x) I).  A cross-slice DCT over at
    most _DENSE_CROSS_MAX slices is applied as one S x S matrix product on
    the (S, n) array of segments, and the per-slice part through transforms
    only where its factors are not all identity; a caller that holds the
    composed stack Phi_s*Psi_slice passes the joint basis with identity
    per-slice factors and runs no transform.  Over more slices the S^2*n
    product costs more than the transform, so the whole joint basis runs
    through transforms.
    """

    def __init__(self, phi: np.ndarray, basis: SparsityBasis | None):
        self.phi = np.asarray(phi, dtype=np.float64)
        self.basis = basis
        slices, m, n = self.phi.shape
        size = n if basis is None else basis.size
        self._cross = None
        part = basis
        if size == n:
            self.joint, self.batch, self.m = False, slices, m
        elif size == slices * n:
            self.joint, self.batch, self.m = True, 1, slices * m
            slice_part, cross = transforms.split_slice_axis(basis, slices)
            if cross == transforms.DCT and slices <= _DENSE_CROSS_MAX:
                part, self._cross = slice_part, transforms.dct_matrix(slices)
        else:
            raise ValueError(
                f"basis size {size} matches neither n={n} nor {slices} slices of n ({slices * n})"
            )
        # the part of the basis applied through transforms, None when identity
        self._transform = None if part is None or all(
            f == transforms.IDENTITY for f in part.factors) else part
        self.n = size

    def synthesize(self, theta: np.ndarray) -> np.ndarray:
        """Coefficients (batch, n) -> per-slice signals (S, n_slice)."""
        slices, _, n = self.phi.shape
        x = theta.reshape(slices, n)
        if self._cross is not None:
            x = self._cross.T @ x
        if self._transform is not None:
            x = transforms.synthesize(self._transform, x.reshape(-1, self._transform.size))
        return x.reshape(slices, n)

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Per-slice signals (S, n_slice) -> coefficients (batch, n); inverse of synthesize."""
        if self._transform is not None:
            x = transforms.analyze(self._transform, x.reshape(-1, self._transform.size))
        if self._cross is not None:
            x = self._cross @ x.reshape(self.phi.shape[0], -1)
        return x.reshape(self.batch, self.n)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        return np.matmul(self.phi, self.synthesize(theta)[:, :, None])[..., 0].reshape(self.batch, self.m)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        slices, m, _ = self.phi.shape
        return self.analyze(np.matmul(self.phi.transpose(0, 2, 1), w.reshape(slices, m, 1))[..., 0])

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


def _solve_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """The one place that picks the algorithm for a batch.

    m >= n pins theta (least squares); an equality-constrained problem on an
    explicit stack (basis None) runs ADMM on its exact projection; a basis
    inside the operator or a relaxed constraint runs primal-dual iterations.
    """
    if op.m >= op.n:
        return _determined_batch(op, y, cfg, keep_trace)
    if op.basis is None and cfg.relaxed_epsilon == 0:
        return _admm_batch(op, y, cfg, keep_trace)
    return _pdhg_batch(op, y, cfg, keep_trace)


def _determined_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """Degenerate m >= n case: the constraint set pins theta, so l1 plays no
    role; least squares on each slice's matrix, then the analysis transform,
    recovers the unique consistent point."""
    y = np.asarray(y, dtype=np.float64).reshape(op.batch, op.m)
    slices, m, _ = op.phi.shape
    x = np.array([np.linalg.lstsq(p, v, rcond=None)[0] for p, v in zip(op.phi, y.reshape(slices, m))])
    theta = op.analyze(x)
    residual = np.linalg.norm(op.forward(theta) - y, axis=1)
    objective = np.abs(theta).sum(axis=1)
    bound = max(cfg.feasibility_tol, cfg.relaxed_epsilon) * np.linalg.norm(y, axis=1)
    converged = residual <= np.maximum(bound, 1e-300)
    traces = [[(0, float(o), float(r))] if keep_trace else [] for o, r in zip(objective, residual)]
    iterations = np.zeros(op.batch, dtype=np.int64)
    return BatchSolveState(theta, residual, objective, iterations, converged, traces)


def _start(op, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, BatchSolveState]:
    """(y, ||y|| per problem, the state the iterations fill in).

    The state starts as the answer for zero measurements (theta = 0 is
    feasible with minimal l1) and as "no feasible iterate yet" elsewhere.
    """
    y = np.asarray(y, dtype=np.float64).reshape(op.batch, op.m)
    ynorm = np.linalg.norm(y, axis=1)
    state = BatchSolveState(
        theta=np.zeros((op.batch, op.n)),
        residual=ynorm.copy(),
        objective=np.where(ynorm == 0, 0.0, np.inf),
        iterations=np.zeros(op.batch, dtype=np.int64),
        converged=ynorm == 0,
        traces=[[] for _ in range(op.batch)],
    )
    return y, ynorm, state


def _record_check(state, k, work, cand, res, yscale, bound, prev_obj, cfg, keep_trace, final):
    """One residual check of the active problems work; returns (done, l1).

    cand is each problem's candidate on the normalized problem and res its
    residual at the caller's scale.  A feasible candidate with a lower l1
    than the problem's best replaces it; done marks the problems that are
    feasible and whose l1 changed by at most objective_tol since the last
    check.  final (a flag, or a mask over work) marks the problems checked
    for the last time: one never feasible keeps its candidate.
    """
    obj = np.abs(cand).sum(axis=1) * yscale
    state.iterations[work] = k
    if keep_trace:
        for local, g in enumerate(work):
            state.traces[g].append((k, float(obj[local]), float(res[local])))
    feas = res <= bound[work]
    improve = feas & (obj < state.objective[work])
    gidx = work[improve]
    state.theta[gidx] = cand[improve] * yscale[improve, None]
    state.objective[gidx] = obj[improve]
    state.residual[gidx] = res[improve]
    rel_dec = np.abs(prev_obj - obj) / np.maximum(obj, 1e-300)
    done = feas & np.isfinite(prev_obj) & (rel_dec <= cfg.objective_tol)
    miss = final & ~np.isfinite(state.objective[work])
    gmiss = work[miss]
    state.theta[gmiss] = cand[miss] * yscale[miss, None]
    state.objective[gmiss] = obj[miss]
    state.residual[gmiss] = res[miss]
    return done, obj


def _row_space(phi: np.ndarray, yhat: np.ndarray, work: np.ndarray):
    """Orthonormal rows of the row space of each slice s in work.

    yhat holds the normalized measurements of those slices, aligned with
    work.  With Phi_s Phi_s^T = V diag(w) V^T, the rows Q^T = diag(w)^-1/2 V^T Phi_s
    of the directions with w above the rank cut are orthonormal, and
    P(v) = v - Q(Q^T v - yq), yq = diag(w)^-1/2 V^T yhat_s, projects onto the
    least-squares solutions of Phi_s theta = yhat_s.  Null directions get
    zero rows.  gap is the distance of yhat_s from the range: 0 (to rounding)
    when the system is consistent.  One slice at a time, so only the Q^T
    stack and one m x m matrix are held.  Returns (Q^T, yq, gap), aligned
    with work.
    """
    qt = np.zeros((work.size,) + phi.shape[1:])
    yq = np.zeros((work.size, phi.shape[1]))
    gap = np.empty(work.size)
    for j, s in enumerate(work):
        w, v = np.linalg.eigh(phi[s] @ phi[s].T)
        keep = w > w[-1] * _RANK_RTOL
        v = v[:, keep]
        coef = v.T @ yhat[j]
        gap[j] = np.linalg.norm(yhat[j] - v @ coef)
        scale = w[keep] ** -0.5
        yq[j, :scale.size] = coef * scale
        qt[j, :scale.size] = (v * scale).T @ phi[s]
    return qt, yq, gap


def _admm_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """Basis pursuit by ADMM on the exact projection (Boyd et al. 2011, 6.2).

    Each slice's rows are factored once (_row_space) into an orthonormal
    stack Q^T that this function owns; the iteration
        x = P(z - u),  z = soft(x + u, 1/rho),  u += x - z
    applies P through a BatchedOperator over Q^T, so it needs no power
    iteration and no step sizes.  At each check the candidate is P(z), which
    meets the constraints to rounding; a problem is done, and converged, when
    it is feasible and its l1 has plateaued.  A problem whose measurements
    lie farther from the range of its matrix than the bound (gap) can never
    be feasible: it leaves at its first check with its least-squares
    candidate, not converged.  A problem that leaves the working set has its
    Q^T rows overwritten by compaction in place, so every row operation is
    per problem and a result is bit-identical alone or in any batch.  The
    reported residual is recomputed on the caller's stack.
    """
    y, ynorm, state = _start(op, y)
    bound = cfg.feasibility_tol * ynorm
    stopped = np.zeros(op.batch, dtype=bool)
    work = np.flatnonzero(ynorm > 0)
    if work.size:
        # the iteration is not scale-equivariant (the soft-threshold has a
        # fixed size), so it runs on y/||y||
        yscale = ynorm[work]
        qt, yq, gap = _row_space(op.phi, y[work] / yscale[:, None], work)
        thresh = 1.0 / (_ADMM_RHO * np.sqrt(op.n))
        z = np.zeros((work.size, op.n))
        u = np.zeros((work.size, op.n))
        prev_obj = np.full(work.size, np.inf)
        proj = BatchedOperator(qt, None)

        def project(v):
            return v - proj.adjoint(proj.forward(v) - yq)

        # gap is fixed by the factorization: whether a problem can ever be
        # feasible is known now, and one that cannot leaves at its first check
        infeasible = gap * yscale > bound[work]
        k = 0
        while k < cfg.max_solver_iters:
            k += 1
            x = project(z - u)
            z = _soft_threshold(x + u, thresh)
            u += x - z
            last = k == cfg.max_solver_iters
            if k % _CHECK_EVERY == 0 or last:
                done, prev_obj = _record_check(state, k, work, project(z), gap * yscale, yscale,
                                               bound, prev_obj, cfg, keep_trace, last | infeasible)
                stopped[work[done]] = True
                kidx = np.flatnonzero(~(done | infeasible))
                if last or kidx.size == 0:
                    break
                if kidx.size < work.size:
                    work, yq, gap, yscale = work[kidx], yq[kidx], gap[kidx], yscale[kidx]
                    infeasible = infeasible[kidx]
                    z, u, prev_obj = z[kidx], u[kidx], prev_obj[kidx]
                    # compact the Q^T buffer in place: kidx ascends, so no
                    # row is overwritten before it is moved
                    for j, s in enumerate(kidx):
                        if j != s:
                            qt[j] = qt[s]
                    proj = BatchedOperator(qt[:kidx.size], None)

    state.residual = np.linalg.norm(op.forward(state.theta) - y, axis=1)
    state.objective = np.abs(state.theta).sum(axis=1)
    state.converged |= stopped & (state.residual <= bound)
    return state


def _pdhg_batch(op, y: np.ndarray, cfg: SolveConfig, keep_trace: bool) -> BatchSolveState:
    """Primal-dual iterations over a batch of independent problems.

    A problem that reaches feasibility and an l1 plateau leaves the working
    set at that residual check, so a sweep costs what its slow problems need
    and not the whole batch times the slowest.  With the shared power-
    iteration start vector (_operator_norms), every row operation here is
    per problem: a problem's result, iteration count and converged flag are
    bit-identical whether it is solved alone or in any batch.
    """
    m, n = op.m, op.n
    y, ynorm, state = _start(op, y)
    feas_rel = max(cfg.feasibility_tol, cfg.relaxed_epsilon)
    bound_full = feas_rel * ynorm
    work = np.flatnonzero(ynorm > 0)
    if work.size:
        sub = op if work.size == op.batch else op.take(work)
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

            last = k == cfg.max_solver_iters
            if k % _CHECK_EVERY == 0 or last:
                res = np.linalg.norm(sub.forward(x) - ysub, axis=1) * yscale
                done, prev_obj = _record_check(state, k, work, x, res, yscale, bound_full, prev_obj,
                                               cfg, keep_trace, last)
                kidx = np.flatnonzero(~done)
                if last or kidx.size == 0:
                    break
                if kidx.size < work.size:
                    work = work[kidx]
                    sub = sub.take(kidx)
                    ysub = ysub[kidx]
                    yscale = yscale[kidx]
                    tau = tau[kidx]
                    sigma = sigma[kidx]
                    x = x[kidx]
                    z = z[kidx]
                    prev_obj = prev_obj[kidx]

    state.converged = np.isfinite(state.objective) & (state.residual <= bound_full + 1e-300)
    return state


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
    converged=False flags a solve that did not finish within
    max_solver_iters (see SolveConfig for what each algorithm counts).
    """
    cfg = cfg or SolveConfig()
    op = BatchedOperator(_dense_matrix(a)[None], basis)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != op.m:
        raise ValueError(f"measurement length {y.shape[0]} does not match operator rows {op.m}")
    state = _solve_batch(op, y[None, :], cfg, keep_trace)
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
    return _solve_batch(op, y, cfg, keep_trace=False)


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
