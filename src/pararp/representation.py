"""Explicit irreducible matrix representation of the parafermion algebra.

The representation acts on (C^n)^{tensor L/2} and is built from the clock
matrix sigma = diag(1, omega, ..., omega^{n-1}) and the shift matrix tau
(cyclic permutation), which satisfy sigma tau = omega tau sigma.  Generators:

    c_{2a-1} = tau^{x(a-1)} (x) sigma      (x) Id ...
    c_{2a}   = zeta^{n-1} tau^{x(a-1)} (x) (sigma tau) (x) Id ...

where tau^{x(a-1)} means tau on each of the first a-1 factors.  The
zeta^{n-1} prefactor (zeta = e^{i pi / n}) fixes c^n = Id for every parity
of n, since (sigma tau)^n = (-1)^{n-1} Id.

Every generator power, and so every ordered monomial C_I, is a generalized
permutation matrix whose nonzero entries are powers of zeta: column k holds
zeta^phase[k] in row perm[k].  The representation stores each power c_j^e as
that pair of integer arrays (phase taken mod 2n).  A monomial is then a
chain of gathers over its sites with exact integer phase sums, costing
O(L dim) instead of L dense products, and a polynomial is assembled from
its exponent matrix (``Polynomial.exponents``, the encoding the symbolic
algebra computes on) by scattering O(dim) values per term.

Charge sectors.  The shift T = tau^{tensor L/2}, applied to every tensor
factor, implements the global gauge automorphism: T c_j T^{-1} = omega^{-1}
c_j.  So a gauge-invariant polynomial (every term of degree 0 mod n) gives a
matrix A that commutes with T.  T adds 1 to every digit of a basis state, so
each of its orbits has exactly n states; index them as (o, m), with o the
orbit's state whose first digit is 0 and m the position T^m o.  A then splits
into n blocks of size dim/n,

    A_q[o, o'] = sum_m omega^{q m} A[T^m o, o'],

one gather and one length-n DFT over m (``sector_blocks``); the inverse DFT
and one gather rebuild A (``sector_matrix``).  The map is an
algebra homomorphism, so e^{A} has blocks e^{A_q}, and by Parseval
sum_q ||A_q||_F^2 = ||A||_F^2.  A dense exponential at dim 4096 (n = 4,
L = 12) thus becomes four of dimension 1024, which take 4.5 s on a 2-vCPU
Xeon host; the dense one costs about as much as 64 of them.

This module is the numerical oracle for every symbolic identity in
:mod:`pararp.algebra`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import _BLOCK, Polynomial, zeta_power
from .exponents import ExponentVector

DIM_CAP = 4096
ENUM_CAP = 100_000
# decompose drops coefficients at most this times 1 + max |A_ij|.
DECOMPOSE_TOL = 1e-12


class DimensionCapError(RuntimeError):
    """Requested representation exceeds the configured resource cap."""


def clock_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n clock and shift matrices (sigma, tau)."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    omega = np.exp(2j * np.pi / n)
    sigma = np.diag(omega ** np.arange(n))
    tau = np.zeros((n, n), dtype=complex)
    for k in range(n):
        tau[(k + 1) % n, k] = 1.0
    return sigma, tau


@dataclass
class Representation:
    """L generators acting on the full chain, of dimension n^{L/2}.

    ``perm[j, e]`` and ``phase[j, e]`` describe c_{j+1}^e: column k of it
    holds ``zeta[phase[j, e, k]]`` in row ``perm[j, e, k]``.  ``orbit[m, o]``
    is the state T^m o of the charge-sector index (o, m), and
    ``orbit_index[k]`` is m * dim/n + o for the state k = T^m o.
    ``generators`` is a read-only view derived from ``perm`` and ``phase``:
    the c_j as a tuple of non-writeable dense matrices, built on first
    access and then kept.
    """

    order: int
    sites: int
    dim: int
    perm: np.ndarray
    phase: np.ndarray
    zeta: np.ndarray
    orbit: np.ndarray
    orbit_index: np.ndarray
    _generators: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False, compare=False
    )
    _known: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        if self._generators is None:
            self._generators = tuple(
                _dense(self.perm[j, 1], self.zeta[self.phase[j, 1]])
                for j in range(self.sites)
            )
            for g in self._generators:
                g.flags.writeable = False
        return self._generators

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def monomials(self, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and zeta exponents (mod 2n) of the ordered monomials whose
        exponent vectors are the rows of the (T, L) integer array
        ``exponents``: two (T, dim) arrays, as ``perm``/``phase`` per term.
        Each exponent row is chained once per representation and kept."""
        exponents = np.ascontiguousarray(exponents, dtype=np.int64)
        keys = list(map(bytes, exponents))
        known = self._known
        missing = [k for k in dict.fromkeys(keys) if k not in known]
        if missing:
            fresh = np.frombuffer(b"".join(missing), dtype=np.int64)
            rows, phase = self._chain(fresh.reshape(len(missing), self.sites))
            known.update(zip(missing, zip(rows, phase)))
        entries = [known[k] for k in keys]
        shape = (len(keys), self.dim)
        return (np.array([r for r, _ in entries], dtype=np.intp).reshape(shape),
                np.array([p for _, p in entries], dtype=np.intp).reshape(shape))

    def _chain(self, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """monomials without the store: a chain of gathers over the sites."""
        dim = self.dim
        rows, phase = np.arange(dim), 0
        # C_I acts on a column through c_L^{a_L} first, c_1^{a_1} last.  The
        # first site always takes part, so the results have shape (T, dim).
        active = exponents.any(axis=0)
        active[0] = True
        for j in np.flatnonzero(active)[::-1]:
            index = exponents[:, j, None] * dim + rows
            phase = phase + self.phase[j].take(index)
            rows = self.perm[j].take(index)
        return rows, phase % (2 * self.order)

    def monomial_matrix(self, vec: ExponentVector) -> np.ndarray:
        """Dense matrix of the ordered monomial C_I."""
        if vec.order != self.order or vec.sites != self.sites:
            raise ValueError("exponent vector does not match representation")
        rows, phase = self.monomials(np.array([vec.entries]))
        return _dense(rows[0], self.zeta[phase[0]])


def _dense(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Matrix with values[k] in row rows[k] of column k, zero elsewhere."""
    m = np.zeros((len(rows), len(rows)), dtype=complex)
    m[rows, np.arange(len(rows))] = values
    return m


def build_generators(n: int, L: int) -> Representation:
    """Construct the clock/shift ladder representation for L (even) sites."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if L < 2 or L % 2 != 0:
        raise ValueError(f"number of sites must be even and >= 2, got {L}")
    half = L // 2
    dim = n**half
    if dim > DIM_CAP:
        raise DimensionCapError(
            f"representation dimension {dim} exceeds cap {DIM_CAP}"
        )
    zeta = np.array([zeta_power(n, k) for k in range(2 * n)])
    # Column k is the basis state with tensor-factor digits digits[:, k],
    # the first factor most significant (numpy.kron order).
    weights = n ** np.arange(half - 1, -1, -1)
    digits = np.arange(dim) // weights[:, None] % n
    perm = np.empty((L, n, dim), dtype=np.intp)
    phase = np.empty((L, n, dim), dtype=np.intp)
    for a in range(half):
        shifted = digits.copy()
        shifted[:a] = (digits[:a] + 1) % n  # tau on the first a factors
        odd = weights @ shifted, 2 * digits[a]  # sigma: omega^{d_a}
        shifted[a] = (digits[a] + 1) % n
        # zeta^{n-1} sigma tau: shift d_a, then omega^{d_a + 1}
        even = weights @ shifted, 2 * shifted[a] + n - 1
        for j, (rows, ph) in ((2 * a, odd), (2 * a + 1, even)):
            perm[j, 0], phase[j, 0] = np.arange(dim), 0
            for e in range(1, n):  # c^e = c c^{e-1}
                prev = perm[j, e - 1]
                perm[j, e] = rows[prev]
                phase[j, e] = (phase[j, e - 1] + ph[prev]) % (2 * n)
    # T^m o adds m to every digit of o, whose first digit is 0; o runs over
    # the states 0 .. dim/n - 1, those with first digit 0.
    shifts = np.arange(n)[:, None, None]
    orbit = weights @ ((digits[:, : dim // n] + shifts) % n)
    orbit_index = np.empty(dim, dtype=np.intp)
    orbit_index[orbit.ravel()] = np.arange(dim)
    return Representation(
        order=n, sites=L, dim=dim, perm=perm, phase=phase, zeta=zeta,
        orbit=orbit, orbit_index=orbit_index,
    )


def sector_blocks(a: np.ndarray, rep: Representation) -> np.ndarray:
    """The (n, dim/n, dim/n) charge-sector blocks
    A_q[o, o'] = sum_m omega^{q m} A[T^m o, o'] of a matrix A that commutes
    with the gauge shift T, such as the matrix of a gauge-invariant
    polynomial.  For any other A the result is meaningless."""
    g = a[rep.orbit[:, :, None], rep.orbit[0]]
    return np.fft.ifft(g, axis=0, norm="forward")


def sector_matrix(blocks: np.ndarray, rep: Representation) -> np.ndarray:
    """The dim x dim matrix whose charge-sector blocks are ``blocks``: the
    inverse of sector_blocks."""
    n, r = rep.order, rep.dim // rep.order
    # a[d, o, o'] = A[T^d o, o'], and A commutes with T, so
    # A[T^m o, T^s o'] = a[m - s, o, o'].  The states T^m o are those of
    # first digit m, rows m r .. m r + r - 1: one gather from
    # b[o, d r + o'] = a[d, o, o'] fills all rows at once.
    a = np.fft.fft(blocks, axis=0, norm="forward")
    b = a.transpose(1, 0, 2).reshape(r, rep.dim)
    shift, o = np.divmod(rep.orbit_index, r)  # state k = T^shift[k] o[k]
    cols = (np.arange(n)[:, None] - shift) % n * r + o
    return b[o.reshape(n, r, 1), cols[:, None, :]].reshape(rep.dim, rep.dim)


def to_matrix(p: Polynomial, rep: Representation) -> np.ndarray:
    """Evaluate a normal-ordered polynomial in the representation."""
    if p.order != rep.order or p.sites != rep.sites:
        raise ValueError("polynomial does not match representation")
    dim = rep.dim
    m = np.zeros(dim * dim, dtype=complex)
    step = max(1, _BLOCK // dim)
    for start in range(0, len(p.coeffs), step):
        # Column k of term t holds coeff_t zeta^phase[t, k] in row rows[t, k];
        # add.at sums each entry over the terms in order.
        rows, phase = rep.monomials(p.exponents[start:start + step])
        values = p.coeffs[start:start + step, None] * rep.zeta[phase]
        np.add.at(m, rows * dim + np.arange(dim), values)
    return m.reshape(dim, dim)


def trace_products(
    rep: Representation, exponents: np.ndarray, s: np.ndarray, t: np.ndarray,
    e: np.ndarray,
) -> np.ndarray:
    """Tr(C_s C_t E) for each index pair (s[p], t[p]) into the rows of the
    (M, L) integer array ``exponents``, with E a dense dim x dim matrix.

    Column k of C_s C_t holds zeta^{phase_t[k] + phase_s[rows_t[k]]} in row
    rows_s[rows_t[k]], so each trace is a sum of dim gathered entries of E:
    O(dim) per pair, after O(L dim) per monomial.
    """
    rows, phases = rep.monomials(exponents)
    # E[k, row] sits at flat index k * dim + row.
    flat_e, diag = e.ravel(), np.arange(rep.dim) * rep.dim
    out = np.empty(len(s), dtype=complex)
    block = max(1, _BLOCK // rep.dim)
    for start in range(0, len(s), block):
        bs, bt = s[start:start + block, None], t[start:start + block]
        via = rows[bt]
        phase = (phases[bt] + phases[bs, via]) % (2 * rep.order)
        values = rep.zeta[phase] * flat_e[diag + rows[bs, via]]
        out[start:start + block] = values.sum(axis=1)
    return out


def trace_monomial(vec: ExponentVector) -> complex:
    """Analytic trace of C_I: n^{L/2} for the identity, else 0."""
    if vec.is_zero():
        return complex(vec.order ** (vec.sites // 2))
    return 0j


def all_exponent_vectors(n: int, L: int):
    """Iterate all n^L exponent vectors in lexicographic order."""
    for entries in itertools.product(range(n), repeat=L):
        yield ExponentVector(entries, n)


def decompose(a: np.ndarray, rep: Representation) -> Polynomial:
    """Expand a matrix in the monomial basis: coefficients
    Tr(C_I^* A) / n^{L/2}.  Enumerates all n^L monomials.

    Each C_I splits as C_P C_S into a monomial on sites 1..L/2 and one on
    sites L/2+1..L, and each half has exactly n^{L/2} = dim monomials.  For
    each P, C_P^* A is a row gather of A, and Tr(C_S^* C_P^* A) is a sum of
    dim gathered entries, so all n^L coefficients cost O(n^L dim).
    """
    n, L, dim = rep.order, rep.sites, rep.dim
    if a.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {a.shape} does not match dimension {dim}"
        )
    if n**L > ENUM_CAP:
        raise DimensionCapError(
            f"basis size {n**L} exceeds enumeration cap {ENUM_CAP}"
        )
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    half = np.array(list(itertools.product(range(n), repeat=L // 2)))
    pad = np.zeros_like(half)
    minus_rows, minus_phase = rep._chain(np.hstack([half, pad]))
    plus_rows, plus_phase = rep._chain(np.hstack([pad, half]))
    conj_zeta = rep.zeta.conj()
    plus_index = plus_rows * dim + np.arange(dim)
    plus_conj = conj_zeta[plus_phase]
    coeffs = np.empty((dim, dim), dtype=complex)
    block = max(1, _BLOCK // (dim * dim))
    for start in range(0, dim, block):
        sl = slice(start, start + block)
        # rows m of C_P^* A: conj(zeta^{phase_P[m]}) A[perm_P[m], :]
        b = conj_zeta[minus_phase[sl]][:, :, None] * a[minus_rows[sl]]
        gathered = b.reshape(len(b), dim * dim)[:, plus_index]
        coeffs[sl] = np.einsum("psk,sk->ps", gathered, plus_conj)
    coeffs /= dim
    keep = np.flatnonzero(np.abs(coeffs) > DECOMPOSE_TOL * scale)
    exponents = np.hstack([half[keep // dim], half[keep % dim]])
    return Polynomial._from_arrays(exponents, coeffs.ravel()[keep], n, L)


def verify_yamazaki(rep: Representation) -> dict[str, float]:
    """Max residuals of the defining relations; reported, never raised.

    The residuals are Frobenius norms of c^n - Id, c c^* - Id and
    c_j c_k - omega c_k c_j (j < k).  They are computed in O(L^2 dim) from
    the tables ``perm`` and ``phase`` that every matrix of the
    representation is built from: each generator has one nonzero entry per
    column.
    """
    gens = rows, vals = rep.perm[:, 1], rep.zeta[rep.phase[:, 1]]

    power = gens
    for _ in range(rep.order - 1):
        power = _product(gens, power)
    identity = np.broadcast_to(np.arange(rep.dim), rows.shape)
    r_order = _distance(power, (identity, np.ones(rows.shape)))

    # c c^* is diagonal, holding per row the sum of |v|^2 of the columns
    # mapped there.
    weight = np.zeros(rows.shape)
    np.add.at(weight, (np.arange(len(rows))[:, None], rows), np.abs(vals) ** 2)
    r_unitary = np.sqrt(((weight - 1.0) ** 2).sum(axis=1))

    # c_j c_k - omega c_k c_j for all pairs j < k at once.
    j, k = np.triu_indices(len(rows), 1)
    c_j, c_k = (rows[j], vals[j]), (rows[k], vals[k])
    kj_rows, kj_vals = _product(c_k, c_j)
    omega = np.exp(2j * np.pi / rep.order)
    r_commute = _distance(_product(c_j, c_k), (kj_rows, omega * kj_vals))
    return {
        "order_residual": float(r_order.max(initial=0.0)),
        "unitarity_residual": float(r_unitary.max(initial=0.0)),
        "commutation_residual": float(r_commute.max(initial=0.0)),
    }


# Below, a matrix with at most one nonzero entry per column is a pair
# (rows, values) of arrays over its columns, with any leading batch axes.


def _product(a, b):
    """The product A B: column k of B is b_v[k] e_{b_r[k]}, which A maps
    to b_v[k] a_v[b_r[k]] e_{a_r[b_r[k]]}."""
    (a_rows, a_vals), (b_rows, b_vals) = a, b
    return (
        np.take_along_axis(a_rows, b_rows, axis=-1),
        b_vals * np.take_along_axis(a_vals, b_rows, axis=-1),
    )


def _distance(a, b) -> np.ndarray:
    """Frobenius norm of A - B: per column, the entries subtract when they
    share a row and add in square otherwise."""
    (a_rows, a_vals), (b_rows, b_vals) = a, b
    sq = np.where(
        a_rows == b_rows,
        np.abs(a_vals - b_vals) ** 2,
        np.abs(a_vals) ** 2 + np.abs(b_vals) ** 2,
    )
    return np.sqrt(sq.sum(axis=-1))


def _verify_dense(rep: Representation) -> dict[str, float]:
    """verify_yamazaki from dense products of ``rep.generators``: the
    reference it is tested against."""
    n = rep.order
    eye = rep.identity()
    omega = np.exp(2j * np.pi / n)
    r_order = 0.0
    r_unitary = 0.0
    r_commute = 0.0
    for j, g in enumerate(rep.generators):
        r_order = max(r_order, _opnorm(np.linalg.matrix_power(g, n) - eye))
        r_unitary = max(r_unitary, _opnorm(g @ g.conj().T - eye))
        for gp in rep.generators[j + 1:]:
            r_commute = max(r_commute, _opnorm(g @ gp - omega * gp @ g))
    return {
        "order_residual": r_order,
        "unitarity_residual": r_unitary,
        "commutation_residual": r_commute,
    }


def _opnorm(a: np.ndarray) -> float:
    """Frobenius norm, a conservative stand-in for the operator norm."""
    return float(np.linalg.norm(a))
