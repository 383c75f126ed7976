"""The degree-13 scaling-and-squaring Pade exponential ``rp.matrix_exp``
against independent references: 1-norms from 1e-8 to 1e3, so the scaling
s = ceil(log2(||A||_1 / theta_13)) runs from 0 to 8; special block shapes;
stacks of blocks that need different scalings; and overflow in one block of
a stack.

The reference is scipy.linalg.expm, except for strictly upper-triangular
blocks: their exponential is the finite sum of A^k / k!, computed here in
exact rationals, where scipy's triangular path loses digits at large norm.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from pararp import rp

NORMS = np.logspace(-8, 3, 12)


def scaled(a, norm):
    return a * (norm / np.abs(a).sum(axis=0).max())


def assert_close(got, ref, tol=1e-13):
    assert np.abs(got - ref).max() <= tol * (1 + np.abs(ref).max())


def blocks(rng, m):
    """Blocks of dimension m whose exponentials stay finite at every norm
    in NORMS: general complex with a shifted spectrum, negative
    semidefinite Hermitian, and diagonal."""
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return {
        "general": g - 1.1 * np.abs(g).sum(axis=0).max() * np.eye(m),
        "hermitian": -(g @ g.conj().T),
        "diagonal": np.diag(-np.abs(g.diagonal()) + 1j * g.diagonal().imag),
    }


def nilpotent_exp(a):
    """e^A = I + A (I + A/2 (I + ... (I + A/(m-1)))) for a real strictly
    upper-triangular m x m matrix A, in exact rationals."""
    m = len(a)
    fa = [[Fraction(x) for x in row] for row in a]
    e = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(m - 1, 0, -1):
        e = [
            [int(i == j) + sum(fa[i][t] * e[t][j] for t in range(i + 1, j + 1)) / k
             for j in range(m)]
            for i in range(m)
        ]
    return np.array(e, dtype=float)


@pytest.mark.parametrize("m", [1, 2, 7, 16])
@pytest.mark.parametrize("kind", ["general", "hermitian", "diagonal"])
def test_agrees_with_scipy_over_eleven_decades(m, kind):
    base = blocks(np.random.default_rng(m), m)[kind]
    for norm in NORMS:
        a = scaled(base, norm)
        assert_close(rp.matrix_exp(a), scipy.linalg.expm(a))


@pytest.mark.parametrize("m", [2, 7, 16])
def test_strictly_upper_triangular_is_exact_series(m):
    base = np.triu(np.random.default_rng(m).normal(size=(m, m)), 1)
    for norm in NORMS:
        a = scaled(base, norm)
        assert_close(rp.matrix_exp(a), nilpotent_exp(a))


def test_one_by_one_blocks_are_scalar_exponentials():
    z = np.array([0.0, 1e-8, -3.0 + 2.0j, 40.0j, -700.0, 350.0 - 1.0j])
    got = rp.matrix_exp(z[:, None, None])[:, 0, 0]
    assert (np.abs(got - np.exp(z)) <= 1e-15 * (1 + np.abs(z)) * np.abs(np.exp(z))).all()
    for a, e in zip(z, got):
        assert rp.matrix_exp(np.array([[a]]))[0, 0] == e


def test_stack_with_different_scalings_matches_each_block():
    rng = np.random.default_rng(7)
    stack = np.stack([
        scaled(block, norm)
        for norm in NORMS
        for block in blocks(rng, 5).values()
    ]).reshape(3, 12, 5, 5)
    got = rp.matrix_exp(stack)
    for index in np.ndindex(3, 12):
        assert np.array_equal(got[index], rp.matrix_exp(stack[index]))
        assert_close(got[index], scipy.linalg.expm(stack[index]))


def test_stack_whose_blocks_all_square_matches_each_block():
    """Blocks that all need squarings, five for some and eight for others:
    the squarings they share run on the whole stack."""
    rng = np.random.default_rng(8)
    stack = np.stack([
        scaled(block, norm)
        for norm in NORMS[NORMS > 20]
        for block in blocks(rng, 5).values()
    ])
    got = rp.matrix_exp(stack)
    for block, e in zip(stack, got):
        assert np.array_equal(e, rp.matrix_exp(block))
        assert_close(e, scipy.linalg.expm(block))


def test_overflow_in_one_block_of_a_stack():
    stack = np.zeros((4, 3, 3), dtype=complex)
    stack[0] = -np.eye(3)
    stack[2] = 800.0 * np.eye(3)  # e^800 is past the float range
    stack[3] = -1e3 * np.ones((3, 3))
    with pytest.raises(OverflowError):
        rp.matrix_exp(stack)
    finite = stack[[0, 1, 3]]
    assert_close(rp.matrix_exp(finite), scipy.linalg.expm(finite))


def test_overflow_and_underflow_raise_no_warnings(recwarn):
    with pytest.raises(OverflowError):
        rp.matrix_exp(1e3 * np.ones((6, 6)))
    rp.matrix_exp(np.array([[1e-300, 0.0], [0.0, 0.0]]))
    assert not recwarn.list
