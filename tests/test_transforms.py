import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcs import transforms as tr

from oracles import dense_synthesis_matrix, separable3d_basis


def seeded(seed):
    return np.random.default_rng(seed)


class TestIdentity:
    def test_passthrough(self):
        basis = tr.identity_basis(6)
        theta = seeded(0).normal(size=6)
        assert np.array_equal(tr.synthesize(basis, theta), theta)
        assert np.array_equal(tr.analyze(basis, theta), theta)


class TestDCT1D:
    def test_dc_atom_synthesizes_constant(self):
        basis = tr.dct1d_basis(8)
        theta = np.zeros(8)
        theta[0] = np.sqrt(8.0)
        np.testing.assert_allclose(tr.synthesize(basis, theta), np.ones(8), atol=1e-12)

    def test_constant_signal_all_energy_in_dc(self):
        basis = tr.dct1d_basis(16)
        theta = tr.analyze(basis, np.full(16, 3.25))
        assert np.all(np.abs(theta[1:]) < 1e-10)
        np.testing.assert_allclose(theta[0], 3.25 * np.sqrt(16.0))

    def test_single_cosine_gives_one_hot(self):
        # atom k of the synthesis operator, built from the DCT definition
        n, k = 32, 5
        atom = tr.dct_matrix(n).T[:, k]
        theta = tr.analyze(tr.dct1d_basis(n), atom)
        expected = np.zeros(n)
        expected[k] = 1.0
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_matches_dense_definition(self):
        n = 17
        basis = tr.dct1d_basis(n)
        x = seeded(1).normal(size=n)
        np.testing.assert_allclose(tr.analyze(basis, x), tr.dct_matrix(n) @ x, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: tr.identity_basis(12),
        lambda: tr.dct1d_basis(33),
        lambda: tr.dct1d_basis(64),
        lambda: tr.separable2d_basis(4, 4),
        lambda: tr.separable2d_basis(16, 64),
        lambda: tr.separable2d_basis(8, 5, factors=(tr.DCT, tr.IDENTITY)),
        lambda: separable3d_basis(4, 6, 3),
        lambda: separable3d_basis(8, 8, 8),
    ],
)
class TestOrthonormality:
    def test_round_trip(self, make):
        basis = make()
        x = seeded(2).normal(size=basis.size)
        np.testing.assert_allclose(tr.synthesize(basis, tr.analyze(basis, x)), x, atol=1e-10)
        np.testing.assert_allclose(tr.analyze(basis, tr.synthesize(basis, x)), x, atol=1e-10)

    def test_parseval(self, make):
        basis = make()
        x = seeded(3).normal(size=basis.size)
        ratio = np.linalg.norm(tr.analyze(basis, x)) / np.linalg.norm(x)
        assert abs(ratio - 1.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(axes=st.lists(st.tuples(st.integers(1, 9), st.sampled_from((tr.IDENTITY, tr.DCT))),
                     min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3))
def test_separable_round_trip_and_parseval_property(axes, seed, batch):
    dims, factors = zip(*axes)
    basis = tr.SparsityBasis(dims, factors)
    theta = seeded(seed).normal(size=(batch, basis.size))
    x = tr.synthesize(basis, theta)
    np.testing.assert_allclose(tr.analyze(basis, x), theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), np.linalg.norm(theta, axis=1), rtol=1e-12)


def test_join_slice_axis_inverts_split():
    assert tr.join_slice_axis(tr.separable2d_basis(4, 5, (tr.IDENTITY, tr.DCT)), 6, tr.DCT) == \
        separable3d_basis(4, 5, 6, (tr.IDENTITY, tr.DCT, tr.DCT))
    assert tr.join_slice_axis(tr.dct1d_basis(7), 3, tr.IDENTITY) == \
        tr.separable2d_basis(7, 3, (tr.DCT, tr.IDENTITY))
    assert tr.join_slice_axis(tr.identity_basis(2), 9, tr.DCT) == \
        tr.separable2d_basis(2, 9, (tr.IDENTITY, tr.DCT))
    # a slice basis of three axes makes a joint basis of four
    slice_basis = separable3d_basis(2, 3, 4, (tr.DCT, tr.IDENTITY, tr.DCT))
    joint = tr.join_slice_axis(slice_basis, 5, tr.DCT)
    assert joint.dims == (2, 3, 4, 5) and joint.size == 120
    assert (joint.dims[:-1], joint.factors) == (slice_basis.dims, slice_basis.factors + (tr.DCT,))


@pytest.mark.parametrize(
    "basis",
    [
        tr.separable2d_basis(4, 4),
        tr.separable2d_basis(8, 3),
        tr.separable2d_basis(5, 7, factors=(tr.IDENTITY, tr.DCT)),
        separable3d_basis(2, 3, 4),
        separable3d_basis(8, 8, 8),
        separable3d_basis(4, 2, 8),
    ],
)
def test_separable_matches_dense_kronecker(basis):
    rng = seeded(4)
    psi = dense_synthesis_matrix(basis)
    theta = rng.normal(size=basis.size)
    np.testing.assert_allclose(tr.synthesize(basis, theta), psi @ theta, atol=1e-12)
    x = rng.normal(size=basis.size)
    np.testing.assert_allclose(tr.analyze(basis, x), psi.T @ x, atol=1e-12)


def test_batched_application_matches_loop():
    basis = tr.separable2d_basis(6, 5)
    rng = seeded(5)
    thetas = rng.normal(size=(7, basis.size))
    batched = tr.synthesize(basis, thetas)
    for i in range(7):
        np.testing.assert_allclose(batched[i], tr.synthesize(basis, thetas[i]), atol=1e-13)


def test_length_mismatch_rejected():
    basis = tr.dct1d_basis(8)
    with pytest.raises(ValueError):
        tr.synthesize(basis, np.zeros(9))
    with pytest.raises(ValueError):
        tr.analyze(basis, np.zeros(7))


def test_bad_kind_and_factor_rejected():
    with pytest.raises(ValueError):
        tr.SparsityBasis((8,), ("wavelet",))
    with pytest.raises(ValueError):
        tr.SparsityBasis((4, 4), (tr.DCT,))
