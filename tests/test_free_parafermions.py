"""The partition function of the Baxter spec against Fendley's closed form.

The Baxter spec H = -zeta sum_j t_j c_j c_{j+1}^{n-1} is the free
parafermion chain (P. Fendley, "Free parafermions", J. Phys. A 47, 075001,
2014): its eigenvalues are sum_k omega^{s_k} eps_k over s_k in Z_n and
L/2 modes eps_k.  Let T be the L x L symmetric tridiagonal matrix with
off-diagonals sqrt(t_j^n), complex where t_j^n < 0.  T is bipartite, so the
even-index block of T^2 has the L/2 eigenvalues lambda_k^2 = eps_k^n, and
any n-th root serves because the sum over s takes every branch:

    Z = prod_k sum_s exp(-omega^s eps_k).

No fitted phase enters, so the formula is an oracle for the whole pipeline
(spec, sector blocks, exponential, Weyl table) at every cell up to
dim = n^{L/2} = 1024.
"""

import numpy as np
import pytest

from pararp import rp
from pararp.hamiltonian import baxter

from conftest import rep_for

CELLS = [(n, L) for n in range(2, 9) for L in range(2, 21, 2)
         if n ** (L // 2) <= 1024]


def free_partition_function(n, t):
    """Z of the Baxter chain with couplings t, from its L/2 modes."""
    t = np.asarray(t, dtype=float)
    off = np.sqrt(t**n + 0j)
    T = np.diag(off, 1) + np.diag(off, -1)
    eps = np.linalg.eigvals((T @ T)[::2, ::2]) ** (1 / n)
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return np.prod(np.exp(-np.outer(eps, omega)).sum(axis=1))


def draws(n, L):
    """Three seeded couplings t_1 .. t_{L-1}, uniform in [-1.5, 1.5] with
    t_{L-j} = t_j."""
    rng = np.random.default_rng(100 * n + L)
    half = rng.uniform(-1.5, 1.5, size=(3, L // 2))
    return np.concatenate([half, half[:, -2::-1]], axis=1)


def test_the_cells_reach_dim_1024_with_both_crossing_signs():
    assert len(CELLS) == 34
    assert max(n ** (L // 2) for n, L in CELLS) == 1024
    crossings = np.concatenate([draws(n, L)[:, L // 2 - 1] for n, L in CELLS])
    assert crossings.min() < 0 < crossings.max()


@pytest.mark.parametrize("n,L", CELLS)
def test_partition_function_matches_the_free_modes(n, L):
    rep = rep_for(n, L)
    for t in draws(n, L):
        z = rp.boltzmann_table(baxter(n, L, t), rep)[0, 0]
        ref = free_partition_function(n, t)
        assert abs(z - ref) <= 1e-11 * abs(ref), (t, z, ref)
