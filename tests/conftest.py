import numpy as np
import pytest

from pararp.representation import _orbit_sums, build_generators

_CACHE = {}


def rep_for(n, L):
    key = (n, L)
    if key not in _CACHE:
        _CACHE[key] = build_generators(n, L)
    return _CACHE[key]


@pytest.fixture
def rep():
    return rep_for


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
    n, dim = rep.order, rep.dim
    r = dim // n
    d = e[np.arange(r), _orbit_sums(n, rep.digits)]
    free = rep.digits[1:, :r]
    cut = len(free) // 2
    r_hi = n ** (len(free) - cut)
    w_lo, w_hi = (rep.zeta[2 * (x.T @ x % n)]
                  for x in (free[:cut, ::r_hi], free[cut:, :r_hi]))
    g = np.matmul(w_lo, d.reshape(dim, r // r_hi, r_hi) @ w_hi)
    return n * g.reshape(dim, r)
