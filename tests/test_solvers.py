import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from pcs import transforms as tr
from pcs.solvers import (
    BatchedOperator,
    SolveConfig,
    solve_l0_bruteforce,
    solve_l1,
    solve_l1_batch,
    solve_omp,
    trace_to_csv,
)


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


class TestBatchedOperator:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slices=st.integers(1, 4), m=st.integers(1, 6),
           d0=st.integers(1, 4), d1=st.integers(1, 4), joint=st.booleans())
    def test_adjoint_identity(self, seed, slices, m, d0, d1, joint):
        # <B theta, w> = <theta, B^T w> for a per-slice and a joint basis
        n = d0 * d1
        basis = tr.separable3d_basis(d0, d1, slices) if joint else tr.separable2d_basis(d0, d1)
        op = BatchedOperator(random_stack(seed, slices, m, n), basis)
        assert op.joint == (joint and slices > 1)
        rng = np.random.default_rng(seed + 1)
        theta = rng.normal(size=(op.batch, op.n))
        w = rng.normal(size=(op.batch, op.m))
        lhs = np.sum(op.forward(theta) * w)
        rhs = np.sum(theta * op.adjoint(w))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_joint_forward_is_block_diagonal_times_joint_synthesis(self):
        slices, m, rows, cols = 3, 5, 3, 4
        phi = random_stack(7, slices, m, rows * cols)
        joint = tr.separable3d_basis(rows, cols, slices)
        op = BatchedOperator(phi, joint)
        assert (op.batch, op.m, op.n) == (1, slices * m, slices * rows * cols)
        theta = np.random.default_rng(8).normal(size=slices * rows * cols)
        dense = block_diag(*phi) @ tr.dense_synthesis_matrix(joint)
        np.testing.assert_allclose(op.forward(theta[None])[0], dense @ theta, atol=1e-12)
        w = np.random.default_rng(9).normal(size=slices * m)
        np.testing.assert_allclose(op.adjoint(w[None])[0], dense.T @ w, atol=1e-12)

    def test_basis_of_other_size_rejected(self):
        phi = random_stack(10, 3, 4, 8)
        for size in (7, 16, 25):
            with pytest.raises(ValueError, match="basis size"):
                BatchedOperator(phi, tr.dct1d_basis(size))

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
        state = solve_l1_batch(phi, joint, y[None], cfg)
        dense = solve_l1(block_diag(*phi), joint, y, cfg)
        assert state.converged[0] and dense.converged
        np.testing.assert_allclose(state.theta[0], dense.theta_hat, atol=1e-6)


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

    def test_returned_iterate_is_best_feasible_in_trace(self):
        a, _, y = planted_instance(9, 32, 3, 16)
        cfg = SolveConfig()
        res = solve_l1(a, None, y, cfg)
        bound = cfg.feasibility_tol * np.linalg.norm(y)
        feasible_objs = [obj for _, obj, r in res.trace if r <= bound]
        assert feasible_objs and res.l1_objective <= min(feasible_objs) + 1e-12

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

    def test_relaxed_epsilon_mode(self):
        a, theta, y = planted_instance(11, 32, 3, 16)
        noisy = y + np.random.default_rng(12).normal(0, 1e-3, y.shape)
        eps = 0.01
        cfg = SolveConfig(relaxed_epsilon=eps, max_solver_iters=4000)
        res = solve_l1(a, None, noisy, cfg)
        assert res.converged
        assert np.linalg.norm(a @ res.theta_hat - noisy) <= eps * np.linalg.norm(noisy) * (1 + 1e-9)
        # relaxing the constraint can only lower the achievable l1 objective
        eq = solve_l1(a, None, noisy, SolveConfig(max_solver_iters=4000))
        assert res.l1_objective <= eq.l1_objective + 1e-6

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
        assert res.converged and res.iterations == 0
        np.testing.assert_allclose(res.theta_hat, theta, atol=1e-10)

    def test_deterministic(self):
        a, _, y = planted_instance(14, 32, 3, 16)
        r1 = solve_l1(a, None, y)
        r2 = solve_l1(a, None, y)
        assert np.array_equal(r1.theta_hat, r2.theta_hat)
        assert r1.iterations == r2.iterations

    def test_trace_csv(self, tmp_path):
        a, _, y = planted_instance(15, 32, 3, 16)
        res = solve_l1(a, None, y)
        out = tmp_path / "trace.csv"
        trace_to_csv(res, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,l1_objective,residual_l2"
        assert len(lines) == len(res.trace) + 1


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
