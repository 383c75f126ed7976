import numpy as np
import pytest

from pararp.representation import _orbit_sums, build_generators

# build_generators keeps one representation per (n, L) and process.
rep_for = build_generators


@pytest.fixture
def rep():
    return rep_for


def random_blocks(rep, rng):
    """n random charge-sector blocks: those of a dense non-hermitian matrix
    that commutes with the gauge shift T."""
    n, r = rep.order, rep.dim // rep.order
    return rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))


def dense_sector_blocks(a, rep):
    """The charge-sector blocks of a dense A that commutes with the gauge
    shift, gathered from A's own entries A[T^m o, o'] and transformed over
    m: the reference for representation.sector_blocks, which scatters them
    from the terms of a polynomial."""
    g = a[rep.orbit[:, :, None], rep.orbit[0]]
    return np.fft.ifft(g, axis=0, norm="forward")


def dense_weyl_table(e, rep):
    """The Weyl table of a dense E that commutes with the gauge shift, from
    the gather D[a, o] = E[o, o (+) a] of E's own entries and the character
    matmuls of representation.weyl_table: the reference for the table read
    from the sector blocks."""
    r = rep.dim // rep.order
    return _characters(e[np.arange(r), _orbit_sums(rep.order, rep.digits)], rep)


def reference_weyl_table(blocks, rep):
    """representation.weyl_table with its character factors built on each
    call from ``rep.digits`` and ``rep.zeta``: the reference for the
    factors derived once per representation."""
    n, r = rep.order, rep.dim // rep.order
    a = np.fft.fft(blocks, axis=0, norm="forward")
    m, o = np.divmod(rep.orbit_index[_orbit_sums(n, rep.digits)], r)
    return _characters(a[-m % n, np.arange(r), o], rep)


def _characters(d, rep):
    """n sum_o omega^{b'.d'(o)} D[a, o], as two matmuls with the Kronecker
    factors of the character matrix over the first and last half of d'."""
    n, dim = rep.order, rep.dim
    r = dim // n
    free = rep.digits[1:, :r]
    cut = len(free) // 2
    r_hi = n ** (len(free) - cut)
    w_lo, w_hi = (rep.zeta[2 * (x.T @ x % n)]
                  for x in (free[:cut, ::r_hi], free[cut:, :r_hi]))
    g = np.matmul(w_lo, d.reshape(dim, r // r_hi, r_hi) @ w_hi)
    return n * g.reshape(dim, r)


def reference_phases(rep, exponents):
    """phi(I) mod 2n of each row I of ``exponents``, with g = z_exp x_exp^T
    built on each call: the reference for Representation.phases, which
    reads the triangle and diagonal of g derived once per representation."""
    n = rep.order
    g = rep.z_exp @ rep.x_exp.T % n
    cross = (exponents @ np.triu(g, 1) * exponents).sum(axis=1)
    own = (exponents * (exponents - 1)) @ g.diagonal()
    return (exponents @ rep.zeta_exp + own + 2 * cross) % (2 * n)
