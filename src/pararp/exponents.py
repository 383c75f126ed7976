"""Integer arithmetic on exponent multi-indices of ordered parafermion monomials.

A monomial c_1^{a_1} ... c_L^{a_L} is described by its vector of exponents,
each taken mod n.  The two bilinear forms defined here (``circ`` and
``wedge``) carry all the phase bookkeeping of the algebra: reordering,
adjoints and reflection reduce to evaluating them.

Convention: ``circ(I, J)`` sums a_i * b_j over index pairs with the *left*
factor's site index strictly greater (i > j).  This is the unique convention
under which the reordering, adjoint and reflection identities are all
satisfied by the explicit clock/shift matrices; the representation test
suite pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionMismatchError(ValueError):
    """Two exponent vectors with different order n or site count L."""


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
        # One min/max test; if it fails, or int() refuses a NaN that min/max
        # let through, the per-site loop names the first offending site.
        try:
            ok = 0 <= min(self.entries) and max(self.entries) < self.order
            ints = tuple(map(int, self.entries)) if ok else ()
        except (TypeError, ValueError):
            ok = False
        if not ok:
            for j, e in enumerate(self.entries):
                if not (0 <= e < self.order):
                    raise ValueError(
                        f"entry {e} at site {j + 1} outside 0..{self.order - 1}"
                    )
            ints = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", ints)

    @property
    def sites(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def supported_on_minus(self) -> bool:
        """All nonzero entries on sites 1..L/2."""
        half = self.sites // 2
        return all(e == 0 for e in self.entries[half:])

    def supported_on_plus(self) -> bool:
        """All nonzero entries on sites L/2+1..L."""
        half = self.sites // 2
        return all(e == 0 for e in self.entries[:half])


def zero_vector(n: int, L: int) -> ExponentVector:
    return ExponentVector((0,) * L, n)


def unit_vector(n: int, L: int, site: int, power: int = 1) -> ExponentVector:
    """Exponent vector of c_site^power (1-based site index)."""
    if not 1 <= site <= L:
        raise ValueError(f"site {site} outside 1..{L}")
    entries = [0] * L
    entries[site - 1] = power % n
    return ExponentVector(tuple(entries), n)


def _check_compatible(a: ExponentVector, b: ExponentVector) -> None:
    if a.order != b.order or a.sites != b.sites:
        raise DimensionMismatchError(
            f"incompatible exponent vectors: (n={a.order}, L={a.sites}) "
            f"vs (n={b.order}, L={b.sites})"
        )


def degree(a: ExponentVector) -> int:
    """Total degree sum(a_j), *not* reduced mod n.

    Phase formulas depend on the degree mod 2n, so the integer value matters.
    """
    return sum(a.entries)


def add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """Componentwise sum mod n."""
    _check_compatible(a, b)
    n = a.order
    return ExponentVector(
        tuple((x + y) % n for x, y in zip(a.entries, b.entries)), n
    )


def circ(a: ExponentVector, b: ExponentVector) -> int:
    """Sum of a_i * b_j over pairs with i > j (left factor's index greater)."""
    _check_compatible(a, b)
    total = 0
    prefix = 0
    for i in range(a.sites):
        if i > 0:
            prefix += b.entries[i - 1]
        total += a.entries[i] * prefix
    return total


def wedge(a: ExponentVector, b: ExponentVector) -> int:
    """Antisymmetrized form circ(a, b) - circ(b, a)."""
    return circ(a, b) - circ(b, a)


def complement(a: ExponentVector) -> ExponentVector:
    """Entrywise n - a_j, reduced mod n so zero entries stay zero."""
    n = a.order
    return ExponentVector(tuple((n - e) % n for e in a.entries), n)


def reflect_vector(a: ExponentVector) -> ExponentVector:
    """Site reversal i -> L - i + 1."""
    return ExponentVector(tuple(reversed(a.entries)), a.order)
