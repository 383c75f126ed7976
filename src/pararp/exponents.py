"""Exponent multi-indices of ordered parafermion monomials.

A monomial c_1^{a_1} ... c_L^{a_L} is described by its vector of exponents,
each taken mod n.  The algebra stores the exponent vectors of a polynomial's
terms as the rows of one integer array; ``ExponentVector`` is the checked
form of a single vector where one enters through the library (coupling
tables, the dict constructor of ``Polynomial``).  Spec files do not build
them: their reader writes exponent rows straight into arrays.

The bilinear form ``circ`` carries all the phase bookkeeping of the algebra:
reordering, adjoints and reflection reduce to evaluating it.  ``circ(a, b)``
takes two integer arrays of exponent rows and gives circ(I, J) for every
pair of a row I of ``a`` and a row J of ``b``.

Convention: circ(I, J) sums I_i * J_j over index pairs with the *left*
factor's site index strictly greater (i > j).  This is the unique convention
under which the reordering, adjoint and reflection identities are all
satisfied by the explicit clock/shift matrices; the representation test
suite pins it down.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExponentVector:
    """Multi-index (a_1, ..., a_L) with entries in {0, ..., n-1}.

    L must be even so the chain splits into two halves exchanged by
    reflection: sites 1..L/2 (the minus half) and L/2+1..L (the plus half).
    """

    entries: tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        L = len(self.entries)
        if L < 2 or L % 2 != 0:
            raise ValueError(f"number of sites must be even and >= 2, got {L}")
        ints = []
        for j, e in enumerate(self.entries, 1):
            try:
                i = operator.index(e)
            except TypeError:
                raise ValueError(f"entry {e!r} at site {j} is not an integer") from None
            if not 0 <= i < self.order:
                raise ValueError(f"entry {e} at site {j} outside 0..{self.order - 1}")
            ints.append(i)
        object.__setattr__(self, "entries", tuple(ints))

    @property
    def sites(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def zero_vector(n: int, L: int) -> ExponentVector:
    return ExponentVector((0,) * L, n)


def unit_vector(n: int, L: int, site: int, power: int = 1) -> ExponentVector:
    """Exponent vector of c_site^power (1-based site index)."""
    if not 1 <= site <= L:
        raise ValueError(f"site {site} outside 1..{L}")
    entries = [0] * L
    entries[site - 1] = power % n
    return ExponentVector(tuple(entries), n)


def degree(a: ExponentVector) -> int:
    """Total degree sum(a_j), *not* reduced mod n.

    Phase formulas depend on the degree mod 2n, so the integer value matters.
    """
    return sum(a.entries)


def circ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (P, Q) integer matrix of circ(I, J) for the rows I of ``a`` (P, L)
    and J of ``b`` (Q, L): circ(I, J) = sum_j (I_{j+1} + ... + I_L) J_j, the
    exclusive suffix sums of the rows of ``a`` (one reversed ``cumsum``)
    against the rows of ``b``.  It is computed in the rows' integer type, so
    it is exact on int64 rows while L^2 (n-1)^2 < 2^63 (circ(I, J) is at
    most L (L - 1) (n - 1)^2 / 2) and exact at any size on object arrays of
    Python integers."""
    suffix = np.cumsum(a[:, ::-1], axis=1)[:, ::-1] - a
    return suffix @ b.T
