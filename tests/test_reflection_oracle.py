"""The reflection theta against the matrix oracle, and the commutation that
makes f(A, A) one number.

theta is an anti-linear automorphism with theta(c_j) = c_{L+1-j}^{n-1}, so
it is implemented by an antiunitary U K: theta(X) = U conj(X) U^H, with U
spanning the null space of U -> (U conj(c_j) - theta(c_j) U)_j, the
intertwiners of two irreducible representations, one-dimensional by
Schur's lemma.  The group average over the monomials C_I projects any
matrix onto it.  The RP matrix M carries theta, so algebra.reflect is
checked here against U.

A and theta(A) are gauge invariant on disjoint halves, so they commute:
Tr(A theta(A) E) and Tr(theta(A) A E) are one number, which is why
check_rp reads f(A, A) once.
"""

import numpy as np
import pytest

from pararp import rp
from pararp.algebra import Polynomial, canonical_product, reflect
from pararp.exponents import ExponentVector
from pararp.hamiltonian import baxter
from pararp.representation import to_matrix

from conftest import dense_matrix, rep_for

# Every (n, L) with dim = n^{L/2} <= 64.
ORACLE_CELLS = [(n, L) for n in range(2, 9) for L in range(2, 13, 2)
                if n ** (L // 2) <= 64]
# Every (n, L) with n in 2..5 and dim <= 256.
CELLS = [(n, L) for n in range(2, 6) for L in range(2, 17, 2)
         if n ** (L // 2) <= 256]


def group_average(x, rep):
    """sum_I theta(C_I) X conj(C_I)^{-1} over the ordered monomials C_I,
    one generator at a time: conj(c_j)^{-1} = c_j^T."""
    n, L = rep.order, rep.sites
    gens = rep.generators
    for j in reversed(range(L)):
        theta = np.linalg.matrix_power(gens[L - 1 - j], n - 1)
        total, term = np.zeros_like(x), x
        for _ in range(n):
            total += term
            term = theta @ term @ gens[j].T
        x = total
    return x


def reflection_unitary(rep, rng):
    """U, unitary, with U conj(c_j) U^H = theta(c_j) for every j."""
    dim = rep.dim
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = group_average(x, rep)
    return u * np.sqrt(dim) / np.linalg.norm(u)


def random_poly(n, L, rng, terms=6):
    """Random polynomial over all sites, observable or not."""
    return Polynomial({
        ExponentVector(tuple(int(e) for e in rng.integers(0, n, size=L)), n):
        complex(rng.normal(), rng.normal())
        for _ in range(terms)
    }, n, L)


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


@pytest.mark.parametrize("n,L", ORACLE_CELLS)
def test_reflect_is_the_antiunitary_of_the_null_space(n, L):
    rep = rep_for(n, L)
    rng = np.random.default_rng(100 * n + L)
    u = reflection_unitary(rep, rng)
    eye = np.eye(rep.dim)
    assert_close(u @ u.conj().T, eye)
    # The null space is one-dimensional: a second projection is U times a
    # phase.
    other = reflection_unitary(rep, rng)
    phase = np.vdot(u, other) / rep.dim
    assert abs(abs(phase) - 1) <= 1e-12
    assert_close(other, phase * u)
    for j, c in enumerate(rep.generators):
        theta = np.linalg.matrix_power(rep.generators[L - 1 - j], n - 1)
        assert_close(u @ c.conj(), theta @ u)
    for _ in range(4):
        a = random_poly(n, L, rng)
        assert_close(to_matrix(reflect(a), rep),
                     u @ to_matrix(a, rep).conj() @ u.conj().T)


@pytest.mark.parametrize("n,L", CELLS)
def test_an_observable_commutes_with_its_reflection(n, L):
    rep = rep_for(n, L)
    rng = np.random.default_rng(10 * n + L)
    t = [1.0] * (L - 1)
    t[L // 2 - 1] = -0.5
    e = dense_matrix(rp.boltzmann(baxter(n, L, t).total(), rep), rep)
    for _ in range(3):
        a = rp.random_minus_observable(n, L, rng)
        ta = reflect(a)
        assert canonical_product(a, ta).almost_equal(canonical_product(ta, a))
        ma, mta = to_matrix(a, rep), to_matrix(ta, rep)
        lhs, rhs = np.trace(ma @ mta @ e), np.trace(mta @ ma @ e)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
