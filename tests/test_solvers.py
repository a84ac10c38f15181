import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from pcs import solvers
from pcs import transforms as tr
from pcs.recon import DEFAULT_SWEEP_SOLVER
from pcs.solvers import (
    BatchedOperator,
    SolveConfig,
    solve_l1,
    solve_l1_batch,
    solve_omp,
)

from oracles import dense_synthesis_matrix, pinv_projection, separable3d_basis, solve_l0_bruteforce


def planted_instance(seed, n, k, m):
    """Random Gaussian system with a planted k-sparse solution."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0 / np.sqrt(m), (m, n))
    theta = np.zeros(n)
    support = rng.choice(n, k, replace=False)
    theta[support] = rng.normal(0.0, 1.0, k) + 0.5 * np.sign(rng.normal(0.0, 1.0, k))
    return a, theta, a @ theta


def top_support(theta, k):
    return set(np.argsort(np.abs(theta))[-k:])


def random_stack(seed, slices, m, n):
    return np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(m), (slices, m, n))


def ill_conditioned(seed, m, n, decades=5.1):
    """An m x n matrix of full rank whose singular values span the given decades."""
    rng = np.random.default_rng([seed, 53])
    r = min(m, n)
    u, _ = np.linalg.qr(rng.normal(size=(m, r)))
    v, _ = np.linalg.qr(rng.normal(size=(n, r)))
    return (u * np.logspace(0, -decades, r)) @ v.T


class TestBatchedOperator:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slices=st.integers(1, 4), m=st.integers(1, 6),
           n=st.integers(1, 16), cross=st.sampled_from((None, tr.DCT)))
    def test_adjoint_identity(self, seed, slices, m, n, cross):
        # <B theta, w> = <theta, B^T w> for independent slices and a joint problem
        op = BatchedOperator(random_stack(seed, slices, m, n), cross)
        assert op.joint == (cross is not None)
        rng = np.random.default_rng(seed + 1)
        theta = rng.normal(size=(op.batch, op.n))
        w = rng.normal(size=(op.batch, op.m))
        lhs = np.sum(op.forward(theta) * w)
        rhs = np.sum(theta * op.adjoint(w))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_joint_forward_is_block_diagonal_times_joint_synthesis(self):
        slices, m, rows, cols = 3, 5, 3, 4
        phi = random_stack(7, slices, m, rows * cols)
        op = BatchedOperator(phi, tr.DCT)
        assert (op.batch, op.m, op.n) == (1, slices * m, slices * rows * cols)
        theta = np.random.default_rng(8).normal(size=slices * rows * cols)
        # the joint basis Psi_cross (x) I with a cross-slice DCT
        dense = block_diag(*phi) @ np.kron(tr.dct_matrix(slices).T, np.eye(rows * cols))
        np.testing.assert_allclose(op.forward(theta[None])[0], dense @ theta, atol=1e-12)
        w = np.random.default_rng(9).normal(size=slices * m)
        np.testing.assert_allclose(op.adjoint(w[None])[0], dense.T @ w, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slices=st.integers(2, 5), m=st.integers(1, 6),
           d0=st.integers(1, 5), d1=st.integers(1, 4),
           factors=st.tuples(*[st.sampled_from((tr.IDENTITY, tr.DCT))] * 2))
    def test_composed_stack_with_cross_factor_only_matches_raw(self, seed, slices, m, d0, d1, factors):
        # blockdiag(Phi_s)*(Psi_cross (x) Psi_slice) = blockdiag(Phi_s*Psi_slice)*(Psi_cross (x) I)
        phi = random_stack(seed, slices, m, d0 * d1)
        joint = separable3d_basis(d0, d1, slices, factors + (tr.DCT,))
        composed = tr.analyze(tr.separable2d_basis(d0, d1, factors), phi)
        op = BatchedOperator(composed, tr.DCT)
        dense = block_diag(*phi) @ dense_synthesis_matrix(joint)
        rng = np.random.default_rng(seed + 1)
        theta = rng.normal(size=(1, op.n))
        w = rng.normal(size=(1, op.m))
        np.testing.assert_allclose(op.forward(theta)[0], dense @ theta[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.adjoint(w)[0], dense.T @ w[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slices", [solvers._DENSE_CROSS_MAX, solvers._DENSE_CROSS_MAX + 1])
    def test_cross_factor_on_both_sides_of_the_dense_limit(self, monkeypatch, slices):
        # up to the limit the cross-slice DCT is a matrix product and no
        # DCT runs; past it one DCT along the slice axis runs per apply
        m, d0, d1 = 2, 2, 2
        phi = random_stack(13, slices, m, d0 * d1)
        joint = separable3d_basis(d0, d1, slices)
        composed = tr.analyze(tr.separable2d_basis(d0, d1), phi)
        dense = block_diag(*phi) @ dense_synthesis_matrix(joint)
        rng = np.random.default_rng(14)
        theta, w = rng.normal(size=(1, slices * d0 * d1)), rng.normal(size=(1, slices * m))
        calls = []
        dct = solvers.dct
        monkeypatch.setattr(solvers, "dct", lambda x, **kw: calls.append(kw) or dct(x, **kw))
        op = BatchedOperator(composed, tr.DCT)
        np.testing.assert_allclose(op.forward(theta)[0], dense @ theta[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.adjoint(w)[0], dense.T @ w[0], rtol=0, atol=1e-12)
        want = [dict(type=3, axis=0, norm="ortho"), dict(type=2, axis=0, norm="ortho")]
        assert calls == (want if slices > solvers._DENSE_CROSS_MAX else [])

    def test_unknown_cross_factor_rejected(self):
        phi = random_stack(15, 3, 4, 8)
        for cross in ("wavelet", separable3d_basis(2, 4, 3)):
            with pytest.raises(ValueError, match="cross-slice factor"):
                BatchedOperator(phi, cross)
        # a per-slice basis is composed by the caller, never passed as the factor
        with pytest.raises(ValueError, match="cross-slice factor"):
            solve_l1_batch(phi, tr.dct1d_basis(8), np.ones((3, 4)))
        # a stack is 3-D: one matrix, or stacks of stacks, are refused by shape
        for stack in (np.ones((4, 8)), np.ones((2, 3, 4, 8))):
            with pytest.raises(ValueError, match=rf"3-D stack .* got shape {re.escape(str(stack.shape))}"):
                BatchedOperator(stack)

    @pytest.mark.parametrize("shape", [(0, 4, 8), (3, 4, 0)], ids=["no-slices", "empty-slices"])
    @pytest.mark.parametrize("cross", [None, tr.DCT])
    def test_stack_posing_no_problem_refused(self, shape, cross):
        # the solver never meets an empty batch or a slice without unknowns
        with pytest.raises(ValueError, match=re.escape(f"phi of shape {shape} poses no problem")):
            BatchedOperator(np.zeros(shape), cross)
        batch, m = (shape[0], shape[1]) if cross is None else (1, shape[0] * shape[1])
        with pytest.raises(ValueError, match=re.escape(f"phi of shape {shape} poses no problem")):
            solve_l1_batch(np.zeros(shape), cross, np.zeros((batch, m)))

    def test_slices_without_measurements_are_answered_by_zero(self):
        state = solve_l1_batch(np.zeros((3, 0, 8)), None, np.zeros((3, 0)))
        assert not state.theta.any() and state.theta.shape == (3, 8)
        assert state.converged.all() and not state.iterations.any()

    def test_identity_cross_factor_refused(self):
        # independent slices (no cross factor) are the block-diagonal map; a
        # joint problem always has the DCT across slices
        phi = random_stack(16, 3, 4, 8)
        with pytest.raises(ValueError, match="unknown cross-slice factor 'identity'"):
            BatchedOperator(phi, tr.IDENTITY)
        with pytest.raises(ValueError, match="unknown cross-slice factor 'identity'"):
            solve_l1_batch(phi, tr.IDENTITY, np.ones((1, 12)))

    def test_basis_of_other_size_rejected(self):
        a = random_stack(10, 1, 4, 8)[0]
        for size in (7, 16, 25):
            with pytest.raises(ValueError, match="basis size"):
                solve_l1(a, tr.dct1d_basis(size), np.ones(4))

    def test_joint_solve_matches_dense_solve(self):
        # a joint solve on the stack and a solve on the materialized
        # block-diagonal matrix are the same l1 problem
        slices, m, n = 2, 6, 12
        phi = random_stack(11, slices, m, n)
        joint = tr.separable2d_basis(n, slices)
        theta = np.zeros(slices * n)
        theta[[1, 5, 14]] = [1.5, -1.0, 0.75]
        y = block_diag(*phi) @ tr.synthesize(joint, theta)
        cfg = SolveConfig(max_solver_iters=20000)
        state = solve_l1_batch(tr.analyze(tr.dct1d_basis(n), phi), tr.DCT, y[None], cfg)
        dense = solve_l1(block_diag(*phi), joint, y, cfg)
        assert state.converged[0] and dense.converged
        np.testing.assert_allclose(state.theta[0], dense.theta_hat, atol=1e-6)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d0=st.integers(2, 3),
           slices=st.sampled_from((solvers._DENSE_CROSS_MAX, solvers._DENSE_CROSS_MAX + 1)))
    def test_converged_joint_solves_meet_the_bound_on_the_kronecker_matrix(self, seed, d0, slices):
        # on both sides of the dense cross-slice limit (a product up to it, the
        # transform past it), checked on the materialized Kronecker matrix
        rng = np.random.default_rng(seed)
        phi = random_stack(seed, slices, 2, 2 * d0)
        joint = separable3d_basis(d0, 2, slices)
        theta = np.zeros(slices * 2 * d0)
        theta[rng.choice(theta.size, slices // 4, replace=False)] = rng.normal(size=slices // 4)
        dense = block_diag(*phi) @ dense_synthesis_matrix(joint)
        y = dense @ theta
        cfg = SolveConfig()
        state = solve_l1_batch(tr.analyze(tr.separable2d_basis(d0, 2), phi), tr.DCT, y[None], cfg)
        resid = np.linalg.norm(dense @ state.theta[0] - y)
        assert abs(resid - state.residual[0]) <= 1e-12 * np.linalg.norm(y)
        if state.converged[0]:
            assert resid <= cfg.feasibility_tol * np.linalg.norm(y)


class TestBatchIndependence:
    # block: the solver's block size in slices, None for the default one
    @pytest.mark.parametrize("determined, block", [
        pytest.param(d, b, id=str(d) if b is None else f"{d}-block-{b}")
        for b in (None, 1, 2) for d in (False, True)])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_result_does_not_depend_on_the_batch(self, seed, determined, block):
        # each problem stops at its own check from the same start vector, so
        # alone, in the full batch, in a subset and in blocks of one or two
        # problems (the solver's block size patched to as many slices of the
        # factor: float32 in the compressive case under the sweep
        # tolerances, float64 in the determined one) it gives the same bits
        slices, m, n = 10, 20 if determined else 8, 16
        rng = np.random.default_rng(seed)
        phi = random_stack(seed, slices, m, n)
        # slice 7 is of full rank but ill-conditioned: the Cholesky route
        # refuses it, so it is factored by eigh, as slice 8 is
        phi[7] = ill_conditioned(seed, m, n)
        # slice 8 repeats a row with another measurement: it cannot be feasible
        phi[8, -1] = phi[8, 0]
        theta = np.zeros((slices, n))
        for s in range(slices):
            k = 1 + s % 3
            theta[s, rng.choice(n, k, replace=False)] = rng.normal(size=k)
        y = np.matmul(phi, theta[:, :, None])[..., 0]
        y[8, -1] = y[8, 0] + np.linalg.norm(y[8])
        # slice 9 measures nothing
        y[9] = 0.0
        # the sweep tolerances: the problems stop at different checks
        cfg = SolveConfig(feasibility_tol=1e-3, objective_tol=1e-4, max_solver_iters=600)
        subset = np.flatnonzero(rng.random(slices) < 0.5)
        eighs = []
        eigh = np.linalg.eigh
        blocks = []
        row_space = solvers._row_space
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", lambda g: eighs.append(g) or eigh(g))
            mp.setattr(solvers, "_row_space", lambda op, yhat, work, dtype: blocks.append(work.tolist())
                       or row_space(op, yhat, work, dtype))
            if block is not None:
                itemsize = 8 if determined else 4
                mp.setattr(solvers, "_BLOCK_BYTES", block * phi[0].size * itemsize)
            full = solve_l1_batch(phi, None, y, cfg)
            # slice 9 measures nothing and is never factored
            assert len(eighs) == (slices - 1 if determined else 2)
            # slices 0-8 run in order: in one default block, or in patched
            # blocks with a boundary between the eigh slice 7 and the
            # infeasible slice 8
            size = slices if block is None else block
            assert blocks == [list(range(lo, min(lo + size, slices - 1))) for lo in range(0, slices - 1, size)]
            part = solve_l1_batch(phi[subset], None, y[subset], cfg)
            runs = [(s, solve_l1_batch(phi[s:s + 1], None, y[s:s + 1], cfg), 0) for s in range(slices)]
        runs += [(s, part, j) for j, s in enumerate(subset)]
        for s, state, j in runs:
            assert np.array_equal(state.theta[j], full.theta[s])
            assert state.iterations[j] == full.iterations[s]
            assert state.converged[j] == full.converged[s]
        assert not full.converged[8] and full.iterations[8] == solvers._CHECK_EVERY
        assert full.converged[9] and full.iterations[9] == 0 and not full.theta[9].any()

    def test_joint_solve_is_one_block(self):
        # the cross-slice DCT couples every slice at every iteration: however
        # small the block size, a joint solve factors and iterates all slices
        # together, with the bits of the unpatched solve, with a float64
        # factor and with the sweep tolerances' float32 one
        slices, m, n = 6, 5, 12
        phi = random_stack(31, slices, m, n)
        y = np.random.default_rng(32).normal(size=(1, slices * m))
        row_space = solvers._row_space
        for cfg, dtype in ((SolveConfig(), np.float64), (DEFAULT_SWEEP_SOLVER, np.float32)):
            want = solve_l1_batch(phi, tr.DCT, y, cfg)
            factored = []

            def spy(op, yhat, work, dtype):
                qt, *rest = row_space(op, yhat, work, dtype)
                factored.append((work.tolist(), qt.shape, qt.dtype))
                return qt, *rest

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "_row_space", spy)
                mp.setattr(solvers, "_BLOCK_BYTES", phi[0].size * 4)
                got = solve_l1_batch(phi, tr.DCT, y, cfg)
            assert factored == [([0], (slices, m, n), dtype)]
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.iterations, want.iterations) and got.iterations[0] > solvers._CHECK_EVERY


class TestRowSpace:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slices=st.integers(1, 5), m=st.integers(1, 8),
           extra=st.integers(0, 12), cross=st.sampled_from((None, tr.DCT)))
    def test_cholesky_route_matches_the_pseudo_inverse_projection(self, seed, slices, m, extra, cross):
        # full-rank slices with n >= 2m are factored by Cholesky alone, and
        # their projection is the pseudo-inverse's, independent or joint
        n = 2 * m + extra
        phi = random_stack(seed, slices, m, n)
        op = BatchedOperator(phi, cross)
        rng = np.random.default_rng([seed, 1])
        yhat = rng.normal(size=(op.batch, op.m))
        v = rng.normal(size=(op.batch, op.n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", None)
            qt, rank, yq, gap = solvers._row_space(op, yhat, np.arange(op.batch))
        proj = BatchedOperator(qt, cross)
        projected = v - proj.adjoint(proj.forward(v) - yq)
        if cross is None:
            dense = list(phi)
        else:
            dense = [block_diag(*phi) @ np.kron(tr.dct_matrix(slices).T, np.eye(n))]
        for j, a in enumerate(dense):
            want = pinv_projection(a, yhat[j], v[j])
            assert np.linalg.norm(projected[j] - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(rank, np.full(op.batch, op.m))
        assert not gap.any()

    def test_factor_holds_the_stack_and_one_slice(self):
        # 64 slices of 32 x 64, one of them by eigh: a slice's temporaries
        # take a few of its 16 KiB, a Gram or inverse stack would add 512 KiB
        slices, m, n = 64, 32, 64
        phi = random_stack(6, slices, m, n)
        phi[3, -1] = phi[3, 0]
        op = BatchedOperator(phi)
        yhat = np.random.default_rng(7).normal(size=(slices, m))
        tracemalloc.start()
        try:
            qt, _, yq, _ = solvers._row_space(op, yhat, np.arange(slices))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < qt.nbytes + yq.nbytes + 8 * phi[0].nbytes

    def test_blocked_solve_holds_one_block_of_the_factor(self, monkeypatch):
        # 64 slices of 32 x 64 (1 MiB) in blocks of 8 slices (128 KiB): the
        # solve holds one block of Q^T and a few (64, 64) vectors (32 KiB
        # each), never a second stack as large as phi
        slices, m, n = 64, 32, 64
        phi = random_stack(8, slices, m, n)
        theta = np.zeros((slices, n))
        theta[:, :4] = 1.0
        y = np.matmul(phi, theta[:, :, None])[..., 0]
        want = solve_l1_batch(phi, None, y)
        block = 8 * phi[0].nbytes
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            got = solve_l1_batch(phi, None, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.theta, want.theta)
        assert peak < block + 8 * theta.nbytes

    def test_float32_factor_is_written_in_place(self, monkeypatch):
        # under the sweep tolerances the factor is float32: a blocked solve
        # of 16 slices of 32 x 256 in blocks of 8 (256 KiB as float32) and a
        # joint solve of 12 slices of 64 x 256 each hold their factor at
        # half the float64 factor's bytes, never a float64 copy beside it
        phi = random_stack(8, 16, 32, 256)
        theta = np.zeros((16, 256))
        theta[:, :4] = 1.0
        y = np.matmul(phi, theta[:, :, None])[..., 0]
        # 8 float32 slices: half the bytes of their float64 factor
        block = 8 * phi[0].size * 4
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            solve_l1_batch(phi, None, y, DEFAULT_SWEEP_SOLVER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + 8 * theta.nbytes
        # a joint problem is one block, and its slices are factored one at a
        # time in float64: a slice's temporaries take one or two slices
        phi = random_stack(9, 12, 64, 256)
        y = np.random.default_rng(3).normal(size=(1, 12 * 64))
        tracemalloc.start()
        try:
            state = solve_l1_batch(phi, tr.DCT, y, DEFAULT_SWEEP_SOLVER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < phi.nbytes // 2 + 2 * phi[0].nbytes + 8 * state.theta.nbytes


class TestFactorPrecision:
    @staticmethod
    def factor_dtypes(monkeypatch):
        # the dtype of every stack a BatchedOperator takes inside the solver:
        # the caller's, then each block's factor
        seen = []

        class Spy(BatchedOperator):
            def __init__(self, phi, cross=None):
                super().__init__(phi, cross)
                seen.append(self.phi.dtype)

        monkeypatch.setattr(solvers, "BatchedOperator", Spy)
        return seen

    @pytest.mark.parametrize("cross", [None, tr.DCT])
    def test_sweep_profile_compressive_solve_factors_in_float32(self, monkeypatch, cross):
        # the caller's stack is taken as float64, a float32 one as well, and
        # the factor is float32; the applies return float64
        phi = random_stack(40, 4, 8, 24).astype(np.float32)
        y = np.random.default_rng(41).normal(size=(4, 8)).reshape(1 if cross else 4, -1)
        seen = self.factor_dtypes(monkeypatch)
        state = solve_l1_batch(phi, cross, y, DEFAULT_SWEEP_SOLVER)
        assert seen[0] == np.float64 and len(seen) > 1
        assert all(dtype == np.float32 for dtype in seen[1:])
        assert state.theta.dtype == np.float64 and state.converged.all()

    @pytest.mark.parametrize("m, cfg", [
        (8, SolveConfig()),
        (24, DEFAULT_SWEEP_SOLVER),
        (32, DEFAULT_SWEEP_SOLVER),
        (8, replace(DEFAULT_SWEEP_SOLVER, feasibility_tol=solvers._FLOAT32_TOL / 2)),
        (8, replace(DEFAULT_SWEEP_SOLVER, objective_tol=solvers._FLOAT32_TOL / 2)),
    ], ids=["default", "square", "overdetermined", "tight-feasibility", "tight-objective"])
    def test_other_solves_keep_a_float64_factor(self, monkeypatch, m, cfg):
        # the default tolerances, m >= n, and one tolerance below the
        # constant: the factor is float64, with the bits of a solve whose
        # float32 rule can never fire
        phi = random_stack(42, 4, m, 24)
        y = np.matmul(phi, np.random.default_rng(43).normal(size=(4, 24, 1)))[..., 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_FLOAT32_TOL", np.inf)
            want = solve_l1_batch(phi, None, y, cfg)
        seen = self.factor_dtypes(monkeypatch)
        got = solve_l1_batch(phi, None, y, cfg)
        assert len(seen) > 1 and all(dtype == np.float64 for dtype in seen)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.iterations, want.iterations)

    def test_the_rule_is_at_least_the_constant(self):
        op = BatchedOperator(random_stack(44, 2, 3, 5))
        at = SolveConfig(feasibility_tol=solvers._FLOAT32_TOL, objective_tol=solvers._FLOAT32_TOL)
        assert solvers._factor_dtype(op, at) == np.float32
        assert solvers._factor_dtype(op, replace(at, objective_tol=np.nextafter(at.objective_tol, 0))) == np.float64
        assert solvers._factor_dtype(BatchedOperator(random_stack(44, 2, 5, 5)), at) == np.float64

    @pytest.mark.parametrize("seed, slices, m, n", [(0, 128, 32, 128), (6, 128, 32, 128), (0, 12, 144, 576)],
                             ids=["rows2d-0", "rows2d-6", "bands3d-0"])
    def test_float32_solve_agrees_with_the_float64_solve(self, monkeypatch, seed, slices, m, n):
        # compressible slices (magnitudes k^-1.5 in random order and signs)
        # sized as the benchmark's rows and bands, under the sweep profile.
        # A problem that stops at the same check as in float64 agrees with
        # it to 1e-5 in l1 (at most 1.6e-7 on seeds 0-11).  Its theta may
        # move further along a face where l1 is flat (one row of seed 6,
        # 9e-4), and a problem whose plateau test fires at another check
        # (one row of seed 0) moves by the stop's own size (l1 1.5e-4,
        # theta 2.3e-3).  So: l1 to 1e-3 and theta to 1e-2 for every
        # problem, to 1e-5 for the median one, and to 1e-3 over the stack.
        # Every converged problem meets the bound on the float64 stack, and
        # the two solves converge alike
        phi = random_stack(seed, slices, m, n)
        rng = np.random.default_rng([seed, 1])
        theta = rng.permuted(np.broadcast_to(np.arange(1, n + 1) ** -1.5, (slices, n)), axis=1)
        theta *= rng.choice((-1.0, 1.0), theta.shape)
        y = np.matmul(phi, theta[:, :, None])[..., 0]
        got = solve_l1_batch(phi, None, y, DEFAULT_SWEEP_SOLVER)
        monkeypatch.setattr(solvers, "_FLOAT32_TOL", np.inf)
        want = solve_l1_batch(phi, None, y, DEFAULT_SWEEP_SOLVER)
        same = got.iterations == want.iterations
        assert same.mean() >= 0.95
        l1_got, l1_want = np.abs(got.theta).sum(axis=1), np.abs(want.theta).sum(axis=1)
        l1_rel = np.abs(l1_got - l1_want) / l1_want
        assert l1_rel[same].max() <= 1e-5 and l1_rel.max() <= 1e-3
        rel = np.linalg.norm(got.theta - want.theta, axis=1) / np.linalg.norm(want.theta, axis=1)
        assert np.median(rel) <= 1e-5 and rel.max() <= 1e-2
        assert np.linalg.norm(got.theta - want.theta) <= 1e-3 * np.linalg.norm(want.theta)
        assert np.array_equal(got.converged, want.converged) and got.converged.all()
        ynorm = np.linalg.norm(y, axis=1)
        resid = np.linalg.norm(np.matmul(phi, got.theta[:, :, None])[..., 0] - y, axis=1)
        assert (resid <= DEFAULT_SWEEP_SOLVER.feasibility_tol * ynorm).all()
        assert np.allclose(resid, got.residual, rtol=0, atol=1e-12 * ynorm.max())

    def test_float32_stack_applies_in_float32(self):
        # a float32 stack is kept, and its applies are float64 arrays that
        # match the float64 stack's to float32 rounding, independent or joint
        phi = random_stack(45, 5, 6, 20)
        rng = np.random.default_rng(46)
        for cross in (None, tr.DCT):
            op64 = BatchedOperator(phi, cross)
            op32 = BatchedOperator(phi.astype(np.float32), cross)
            assert op32.phi.dtype == np.float32
            theta = rng.normal(size=(op64.batch, op64.n))
            w = rng.normal(size=(op64.batch, op64.m))
            for got, want in ((op32.forward(theta), op64.forward(theta)), (op32.adjoint(w), op64.adjoint(w))):
                assert got.dtype == np.float64
                assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


class TestAlgorithmChoice:
    @pytest.mark.parametrize("basis, cfg", [
        (None, SolveConfig()),
        (tr.dct1d_basis(16), SolveConfig()),
    ])
    def test_every_solve_runs_admm(self, monkeypatch, basis, cfg):
        # with or without a basis, and for m >= n too
        calls = []
        original = solvers._admm_batch
        monkeypatch.setattr(solvers, "_admm_batch",
                            lambda *a, **k: calls.append(a[0].m) or original(*a, **k))
        a, _, y = planted_instance(17, 16, 2, 8)
        solve_l1(a, basis, y, cfg)
        solve_l1_batch(a[None] if basis is None else tr.analyze(basis, a[None]), None, y[None], cfg)
        solve_l1(np.vstack([a, a]), basis, np.concatenate([y, y]), cfg)
        assert calls == [8, 8, 16]

    def test_basis_and_composed_routes_agree(self):
        # a basis is composed into the matrix before the solve: solving with
        # it and solving on the composed A*Psi are one computation
        n, k, m = 64, 4, 32
        basis = tr.dct1d_basis(n)
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            theta = np.zeros(n)
            theta[rng.choice(n, k, replace=False)] = rng.normal(0, 1, k) + 0.5
            a = rng.normal(0, 1 / np.sqrt(m), (m, n))
            y = a @ tr.synthesize(basis, theta)
            composed = solve_l1(tr.analyze(basis, a), None, y)
            with_basis = solve_l1(a, basis, y)
            assert composed.converged and with_basis.converged
            assert np.array_equal(composed.theta_hat, with_basis.theta_hat)
            assert composed.iterations == with_basis.iterations
            np.testing.assert_allclose(with_basis.theta_hat, theta, atol=1e-5)


class TestEqualitySolveFeasibility:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), extra=st.integers(1, 14),
           duplicate=st.booleans(), planted=st.booleans())
    def test_converged_solves_meet_the_constraints(self, seed, m, extra, duplicate, planted):
        # every candidate is the exact projection, so a converged solve is
        # feasible to rounding; the reported residual is the caller's
        rng = np.random.default_rng(seed)
        n = m + extra
        a = rng.normal(size=(m, n))
        if duplicate and m > 1:
            a[-1] = a[0]
        if planted:
            theta = np.zeros(n)
            theta[rng.choice(n, min(2, n), replace=False)] = rng.normal(size=min(2, n))
            y = a @ theta
        else:
            y = rng.normal(size=m)
        res = solve_l1(a, None, y)
        resid = np.linalg.norm(a @ res.theta_hat - y)
        if res.converged:
            assert resid <= 1e-10 * np.linalg.norm(y)
        assert abs(resid - res.residual_l2) <= 1e-14 * np.linalg.norm(y)
        consistent = planted or not duplicate or m == 1 or y[-1] == y[0]
        assert res.converged == consistent

    def test_planted_batches_all_converge(self):
        # 54 batches of the acceptance-criterion-1 form with the default
        # configuration: every problem converged and feasible
        cfg = SolveConfig()
        for b in range(54):
            a, y = zip(*((p[0], p[2]) for p in (planted_instance(10_000 + 100 * b + t, 64, 5, 32)
                                                  for t in range(100))))
            a, y = np.array(a), np.array(y)
            state = solve_l1_batch(a, None, y, cfg)
            resid = np.linalg.norm(np.matmul(a, state.theta[:, :, None])[..., 0] - y, axis=1)
            assert state.converged.all(), f"batch {b}"
            assert np.all(resid <= cfg.feasibility_tol * np.linalg.norm(y, axis=1)), f"batch {b}"


class TestRankDeficient:
    def test_consistent_systems_converge(self):
        ones = np.ones((4, 8))
        rng = np.random.default_rng(18)
        dup = rng.normal(size=(6, 16))
        dup[3] = dup[1]
        theta = np.zeros(16)
        theta[[2, 9]] = [1.0, -2.0]
        for a, y in ((ones, np.ones(4)), (dup, dup @ theta)):
            res = solve_l1(a, None, y)
            assert res.converged
            assert np.linalg.norm(a @ res.theta_hat - y) <= 1e-10 * np.linalg.norm(y)
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-6)

    def test_inconsistent_system_returns_a_least_squares_point(self):
        a, y = np.ones((4, 8)), np.arange(4.0)
        res = solve_l1(a, None, y)
        assert not res.converged
        lsq = np.linalg.lstsq(a, y, rcond=None)[0]
        assert res.residual_l2 == pytest.approx(np.linalg.norm(a @ lsq - y), rel=1e-10)
        np.testing.assert_allclose(a.T @ (a @ res.theta_hat - y), 0.0, atol=1e-10)

    def test_inconsistent_system_stops_at_its_first_check(self):
        # its distance from the range is measured before the first iteration
        res = solve_l1(np.ones((4, 8)), None, np.arange(4.0))
        assert not res.converged
        assert res.iterations <= 25


class TestDeterminedSystems:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), extra=st.integers(0, 8),
           consistent=st.booleans())
    def test_m_at_least_n_gives_the_least_squares_point(self, seed, n, extra, consistent):
        # the projection onto the constraints is the least-squares point, so
        # ADMM's first candidate is the answer
        rng = np.random.default_rng(seed)
        m = n + extra
        a = rng.normal(size=(m, n)) + 3.0 * np.eye(m, n)
        y = a @ rng.normal(size=n)
        consistent = consistent or m == n
        if not consistent:
            # add a component outside the range, as large as y itself
            r = rng.normal(size=m)
            r -= a @ np.linalg.lstsq(a, r, rcond=None)[0]
            y += r * np.linalg.norm(y) / np.linalg.norm(r)
        res = solve_l1(a, None, y)
        lsq = np.linalg.lstsq(a, y, rcond=None)[0]
        resid = np.linalg.norm(a @ res.theta_hat - y)
        assert abs(resid - res.residual_l2) <= 1e-12 * np.linalg.norm(y)
        if consistent:
            assert res.converged
            assert res.iterations == solvers._CHECK_EVERY
            np.testing.assert_allclose(res.theta_hat, lsq, rtol=0,
                                       atol=1e-10 * max(1.0, np.abs(lsq).max()))
        else:
            assert not res.converged
            assert res.iterations == solvers._CHECK_EVERY
            np.testing.assert_allclose(a.T @ (a @ res.theta_hat - y), 0.0, atol=1e-10 * np.linalg.norm(y))
            assert res.residual_l2 == pytest.approx(np.linalg.norm(a @ lsq - y), rel=1e-10)

    def test_ill_conditioned_square_system_keeps_every_direction(self):
        # condition 1.26e5: the smallest Gram eigenvalue is 6e-11 of the
        # largest, far above the Gram's rounding, so no direction is null
        rng = np.random.default_rng(53)
        u, _ = np.linalg.qr(rng.normal(size=(128, 128)))
        v, _ = np.linalg.qr(rng.normal(size=(128, 128)))
        a = (u * np.logspace(0, -5.1, 128)) @ v.T
        x = rng.normal(size=128)
        res = solve_l1(a, None, a @ x)
        assert res.converged and res.iterations == solvers._CHECK_EVERY
        assert np.abs(res.theta_hat - x).max() <= 1e-9


class TestSolveL1:
    def test_zero_measurements(self):
        res = solve_l1(np.ones((4, 8)), None, np.zeros(4))
        assert np.array_equal(res.theta_hat, np.zeros(8))
        assert res.converged and res.l1_objective == 0.0 and res.residual_l2 == 0.0

    def test_matches_l0_oracle_on_planted_instance(self):
        a, theta, y = planted_instance(42, 16, 2, 10)
        res = solve_l1(a, None, y)
        oracle = solve_l0_bruteforce(a, y, 2)
        assert top_support(res.theta_hat, 2) == set(np.flatnonzero(oracle.theta_hat))
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-5)

    def test_exact_recovery_rate(self):
        # small-scale version of the acceptance property (20 of the 100 trials)
        phis, thetas, ys = [], [], []
        for t in range(20):
            a, theta, y = planted_instance(1000 + t, 64, 5, 32)
            phis.append(a)
            thetas.append(theta)
            ys.append(y)
        state = solve_l1_batch(np.array(phis), None, np.array(ys))
        hits = sum(
            np.linalg.norm(state.theta[t] - thetas[t]) / np.linalg.norm(thetas[t]) < 1e-4
            for t in range(20)
        )
        assert hits >= 19

    def test_feasibility_reverified(self):
        a, _, y = planted_instance(7, 32, 3, 16)
        cfg = SolveConfig()
        res = solve_l1(a, None, y, cfg)
        assert res.converged
        recomputed = np.linalg.norm(a @ res.theta_hat - y)
        assert recomputed <= cfg.feasibility_tol * np.linalg.norm(y) * (1 + 1e-12)

    def test_result_fields_consistent(self):
        a, _, y = planted_instance(8, 32, 3, 16)
        res = solve_l1(a, None, y)
        assert abs(np.linalg.norm(a @ res.theta_hat - y) - res.residual_l2) <= 1e-10 * max(
            res.residual_l2, 1e-300
        )
        assert abs(np.abs(res.theta_hat).sum() - res.l1_objective) <= 1e-10 * max(
            res.l1_objective, 1e-300
        )

    def test_returned_iterate_is_the_lowest_l1_candidate(self):
        # a solve capped at k checks sees the full solve's first k candidates,
        # so none of them may have a lower l1 than the full solve's result;
        # on this instance the candidate l1 rises again before the solve stops
        a, _, y = planted_instance(13, 32, 6, 16)
        full = solve_l1(a, None, y)
        assert full.converged
        for k in range(1, full.iterations // solvers._CHECK_EVERY + 1):
            capped = solve_l1(a, None, y, SolveConfig(max_solver_iters=k * solvers._CHECK_EVERY))
            assert capped.l1_objective >= full.l1_objective, k

    def test_with_basis(self):
        # sparse in DCT: plant coefficients, synthesize, measure
        rng = np.random.default_rng(10)
        n, k, m = 64, 4, 32
        basis = tr.dct1d_basis(n)
        theta = np.zeros(n)
        support = rng.choice(n, k, replace=False)
        theta[support] = rng.normal(0, 1, k) + 0.5
        x = tr.synthesize(basis, theta)
        a = rng.normal(0, 1 / np.sqrt(m), (m, n))
        res = solve_l1(a, basis, a @ x)
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-4)

    def test_non_convergence_flagged(self):
        a, _, y = planted_instance(13, 32, 3, 16)
        res = solve_l1(a, None, y, SolveConfig(max_solver_iters=2))
        assert not res.converged
        assert res.theta_hat.shape == (32,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_l1(np.ones((4, 8)), None, np.zeros(5))
        with pytest.raises(ValueError):
            solve_l1(np.ones((4, 8)), tr.dct1d_basis(9), np.zeros(4))

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            solve_l1(np.ones((1, 4, 8)), None, np.zeros(4))
        with pytest.raises(ValueError, match="2-D"):
            solve_l1(np.ones(8), None, np.zeros(1))

    def test_determined_system_solved_by_least_squares(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(12, 8))
        basis = tr.dct1d_basis(8)
        theta = rng.normal(size=8)
        res = solve_l1(a, basis, a @ tr.synthesize(basis, theta))
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-10)

    def test_deterministic(self):
        a, _, y = planted_instance(14, 32, 3, 16)
        r1 = solve_l1(a, None, y)
        r2 = solve_l1(a, None, y)
        assert np.array_equal(r1.theta_hat, r2.theta_hat)
        assert r1.iterations == r2.iterations


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurements_refused(bad):
    phi = random_stack(17, 3, 4, 8)
    y = np.ones((3, 4))
    y[1, 0] = bad
    with pytest.raises(ValueError, match=re.escape("measurement rows [1] hold non-finite values")):
        solve_l1_batch(phi, None, y)
    with pytest.raises(ValueError, match="non-finite"):
        solve_l1(phi[1], None, y[1])
    with pytest.raises(ValueError, match="non-finite"):
        solve_omp(phi[1], None, y[1], sparsity_budget=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tolerances_refused(bad):
    for kwargs in ({"feasibility_tol": bad}, {"objective_tol": bad}):
        with pytest.raises(ValueError, match="tolerances must be finite and > 0"):
            SolveConfig(**kwargs)
    with pytest.raises(ValueError, match="residual_tol must be finite and > 0"):
        solve_omp(np.ones((4, 8)), None, np.ones(4), residual_tol=bad)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), "40"])
def test_non_integer_iteration_count_refused(bad):
    with pytest.raises(ValueError, match=f"max_solver_iters must be an integer, got {re.escape(repr(bad))}"):
        SolveConfig(max_solver_iters=bad)
    # numpy integers are integers
    assert SolveConfig(max_solver_iters=np.int64(3)).max_solver_iters == 3


class TestSolveOMP:
    def test_single_atom(self):
        rng = np.random.default_rng(20)
        a = rng.normal(0, 1 / np.sqrt(12), (12, 24))
        y = 2.5 * a[:, 7]
        res = solve_omp(a, None, y, sparsity_budget=1)
        assert set(np.flatnonzero(res.theta_hat)) == {7}
        assert res.residual_l2 < 1e-10
        assert res.iterations == 1

    def test_planted_one_sparse(self):
        a, theta, y = planted_instance(21, 24, 1, 12)
        res = solve_omp(a, None, y, residual_tol=1e-8)
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-10)
        assert res.iterations == 1

    def test_iterations_count_the_atoms_chosen(self):
        # after the one atom, the residual (0, 1, 0) is orthogonal to every
        # atom: the pass that finds none chooses nothing and is not counted
        res = solve_omp(np.array([[1.0], [0.0], [0.0]]), None, np.array([1.0, 1.0, 0.0]),
                        residual_tol=1e-6)
        assert np.count_nonzero(res.theta_hat) == 1
        assert res.iterations == 1
        assert not res.converged

    def test_matches_l0_oracle_mostly(self):
        hits = 0
        for t in range(100):
            a, _, y = planted_instance(3000 + t, 16, 2, 10)
            omp = solve_omp(a, None, y, sparsity_budget=2)
            oracle = solve_l0_bruteforce(a, y, 2)
            hits += top_support(omp.theta_hat, 2) == set(np.flatnonzero(oracle.theta_hat))
        assert hits >= 90

    def test_with_basis(self):
        rng = np.random.default_rng(22)
        n, m = 32, 16
        basis = tr.dct1d_basis(n)
        theta = np.zeros(n)
        theta[[3, 11]] = [2.0, -1.5]
        x = tr.synthesize(basis, theta)
        a = rng.normal(0, 1 / np.sqrt(m), (m, n))
        res = solve_omp(a, basis, a @ x, sparsity_budget=2)
        assert set(np.flatnonzero(res.theta_hat)) == {3, 11}

    def test_argument_validation(self):
        a = np.ones((4, 8))
        with pytest.raises(ValueError):
            solve_omp(a, None, np.zeros(4))
        with pytest.raises(ValueError):
            solve_omp(a, None, np.zeros(4), sparsity_budget=0)
        with pytest.raises(ValueError):
            solve_omp(a, None, np.zeros(5), sparsity_budget=1)
        with pytest.raises(ValueError, match="2-D"):
            solve_omp(a[None], None, np.zeros(4), sparsity_budget=1)


class TestSolveL0Bruteforce:
    def test_exactly_sparse_residual_zero(self):
        a, theta, y = planted_instance(30, 12, 2, 8)
        res = solve_l0_bruteforce(a, y, 2)
        assert res.residual_l2 < 1e-10
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-8)

    def test_k_zero(self):
        res = solve_l0_bruteforce(np.ones((4, 8)), np.ones(4), 0)
        assert np.array_equal(res.theta_hat, np.zeros(8))
        assert res.residual_l2 == pytest.approx(2.0)

    def test_dominates_l1(self):
        # exhaustive optimum cannot lose to the convex relaxation
        rng = np.random.default_rng(31)
        a = rng.normal(0, 1 / np.sqrt(8), (8, 12))
        y = rng.normal(0, 1, 8)
        oracle = solve_l0_bruteforce(a, y, 2)
        l1res = solve_l1(a, None, y, SolveConfig(max_solver_iters=3000))
        theta2 = np.zeros(12)
        idx = np.argsort(np.abs(l1res.theta_hat))[-2:]
        theta2[idx] = l1res.theta_hat[idx]
        assert oracle.residual_l2 <= np.linalg.norm(a @ theta2 - y) + 1e-9

    def test_size_guard(self):
        with pytest.raises(ValueError):
            solve_l0_bruteforce(np.ones((4, 21)), np.ones(4), 2)
        with pytest.raises(ValueError):
            solve_l0_bruteforce(np.ones((4, 8)), np.ones(4), 4)

    def test_dominates_omp(self):
        for t in range(10):
            a, _, y = planted_instance(4000 + t, 14, 2, 9)
            y = y + np.random.default_rng(t).normal(0, 0.05, 9)
            oracle = solve_l0_bruteforce(a, y, 2)
            omp = solve_omp(a, None, y, sparsity_budget=2)
            assert oracle.residual_l2 <= omp.residual_l2 + 1e-9
