"""Explicit irreducible matrix representation of the parafermion algebra.

It acts on (C^n)^{tensor L/2}: the state k has a digit d_f(k) in each
tensor factor f = 0 .. L/2 - 1, the first most significant (numpy.kron
order).  The shift X = tau adds 1 to a digit and the clock Z = sigma
multiplies by omega^digit, so Z X = omega X Z.  With zeta = e^{i pi / n}
and X^{<f} acting on each factor before f,

    c_{2f+1} = X^{<f} Z_f,
    c_{2f+2} = zeta^{n-1} X^{<f} (Z X)_f = zeta^{n+1} X^{<=f} Z_f,

where zeta^{n-1} fixes c^n = Id for every parity of n.

So each ordered monomial is a Weyl operator C_I = zeta^{phi(I)} X^{a(I)}
Z^{b(I)} (Jaffe-Pedrocchi, arXiv:1406.1384): with c_j = zeta^{p_j}
X^{alpha_j} Z^{beta_j}, a = I.alpha and b = I.beta mod n, and
Z^B X^A = omega^{B.A} X^A Z^B gives, in zeta units mod 2n,

    phi(I) = sum_j p_j I_j + sum_j (beta_j.alpha_j) I_j (I_j - 1)
             + 2 sum_{j<j'} I_j I_j' (beta_j.alpha_j').

Column k of C_I holds zeta^{phi + 2 b.d(k)} in row k (+) a, where (+) adds
digits mod n: a polynomial's matrix is O(L dim) integer arithmetic and a
scatter of O(dim) values per row of its exponent matrix
(``Polynomial.exponents``, the encoding the symbolic algebra computes on).
Conversely Tr(C_I^* A) = zeta^{-phi} sum_k omega^{-b.d(k)} A[k (+) a, k] is,
for each a, an n-ary FFT over the digits of k, for n = 2 the Walsh-Hadamard
form of the Pauli decomposition.  For a matrix E that commutes with the
gauge shift T below, such as e^{-H}, that transform of E[k, k (+) a]
needs one state per T-orbit: ``weyl_table`` gathers it from E's sector
blocks at ``weyl_plan``, built from the digit sums of the orbits'
representatives.  An entry Tr(C_I theta(C_J) E) of the RP matrix M over
minus-half rows is one lookup in it, at an index and a phase that are a
part of I plus a part of J (``pair_traces``): one call fills the blocks
of M that a job of :mod:`pararp.rp` reads.  ``decompose`` reads E's
dim^2/n coefficients of degree 0 mod n from it.

Charge sectors.  The shift T = tau^{tensor L/2}, applied to every tensor
factor, implements the global gauge automorphism: T c_j T^{-1} = omega^{-1}
c_j.  So a gauge-invariant polynomial (every term of degree 0 mod n) gives a
matrix A that commutes with T.  T adds 1 to every digit of a basis state, so
each of its orbits has exactly n states; index them as (o, m), with o the
orbit's state whose first digit is 0 and m the position T^m o.  A then splits
into n blocks of size dim/n,

    A_q[o, o'] = sum_m omega^{q m} A[T^m o, o'],

which ``sector_blocks`` scatters from the polynomial's terms, columns o'
only, and transforms over m, with no dense A.  The map is an algebra
homomorphism, so e^{A} has blocks e^{A_q}, and by Parseval
sum_q ||A_q||_F^2 = ||A||_F^2.  Only ``to_matrix``, and the
``monomial_matrix`` and ``generators`` built on it, form a dense matrix:
the oracle of the tests, which no command calls.

This module is the numerical oracle for every symbolic identity in
:mod:`pararp.algebra`; ``build_generators`` builds each (n, L) once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import _BLOCK, Polynomial, _theta, _zeta_array, classify
from .exponents import ExponentVector, unit_vector

DIM_CAP = 4096
# decompose refuses more than this many dim^2/n terms of degree 0 mod n.
ENUM_CAP = 100_000
# decompose drops coefficients at most this times 1 + max |A_ij|.
DECOMPOSE_TOL = 1e-12


class DimensionCapError(RuntimeError):
    """Requested representation exceeds the configured resource cap."""


@dataclass(frozen=True)
class Representation:
    """L generators acting on the full chain, of dimension n^{L/2}: an
    immutable value, one per (n, L) and process (``build_generators``).

    c_{j+1} = zeta^{zeta_exp[j]} X^{x_exp[j]} Z^{z_exp[j]}, with digit rows
    ``x_exp[j]`` and ``z_exp[j]``; ``digits[f, k]`` is digit f of state k.
    ``orbit_index[k]`` is m * dim/n + o for the state k = T^m o of the
    charge-sector index (o, m).  __post_init__ derives the rest, O(L dim)
    each, so a ``replace`` copy is consistent: the generator columns, g of
    ``phases``, the characters of ``weyl_table``, the digits' place values
    ``place``, and the pair index (j, k), j < k, and flat offsets j dim of
    ``verify_yamazaki``.  Every array is read-only; ``generators``, the
    dense c_j, are built on each read and never kept; ``weyl_plan`` is kept
    on the instance from its first use, so a ``replace`` copy derives its own.
    """

    order: int
    sites: int
    dim: int
    x_exp: np.ndarray
    z_exp: np.ndarray
    zeta_exp: np.ndarray
    digits: np.ndarray
    zeta: np.ndarray
    orbit_index: np.ndarray
    generator_rows: np.ndarray = field(init=False, repr=False)
    generator_phases: np.ndarray = field(init=False, repr=False)
    _g_upper: np.ndarray = field(init=False, repr=False)
    _g_diagonal: np.ndarray = field(init=False, repr=False)
    _w_lo: np.ndarray = field(init=False, repr=False)
    _w_hi: np.ndarray = field(init=False, repr=False)
    place: np.ndarray = field(init=False, repr=False)
    _pairs: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, digits = self.order, self.digits
        # Column k of c_{j+1}, the monomial e_j of phase zeta_exp[j], holds
        # zeta^{zeta_exp[j] + 2 z_exp[j].d(k)} in row k (+) x_exp[j].
        phase = self.zeta_exp[:, None] + 2 * (self.z_exp @ digits)
        # g[j, j'] = beta_j.alpha_j', taken mod n: it multiplies even numbers.
        g = self.z_exp @ self.x_exp.T % n
        free = digits[1:, : self.dim // n]  # d'(o), o = o_lo * r_hi + o_hi
        cut = len(free) // 2
        r_hi = n ** (len(free) - cut)
        w_lo, w_hi = (self.zeta[2 * (x.T @ x % n)]
                      for x in (free[:cut, ::r_hi], free[cut:, :r_hi]))
        derived = dict(
            generator_rows=_digit_sum(n, digits, self.x_exp.T[:, :, None]),
            generator_phases=phase % (2 * n), _g_upper=np.triu(g, 1),
            _g_diagonal=g.diagonal(), _w_lo=w_lo, _w_hi=w_hi,
            place=n ** np.arange(self.sites // 2 - 1, -1, -1),
            _pairs=np.array(np.triu_indices(self.sites, 1)),
            _offsets=self.dim * np.arange(self.sites)[:, None])
        for name, value in {**vars(self), **derived}.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def weyl_plan(self) -> np.ndarray:
        """Built on first use: the (dim, dim/n) int32 index, 16 MiB at
        (4, 12), of E[o, o (+) a] in the DFT A[d, o, o'] = E[T^d o, o'] of
        the sector blocks, which holds every entry of E, as
        E[T^m o, T^s o'] = A[m - s, o, o'].  For a = T^m c, o (+) a is
        T^m (c (+) o), and c (+) o is an orbit representative (first digit 0)
        read off their (r, r) table of digit sums, r = dim/n: E[o, o (+) a]
        is at ((-m mod n) r + o) r + sums[c, o]."""
        n, r = self.order, self.dim // self.order
        add = np.add.outer(*[np.arange(n, dtype=np.int32)] * 2) % n
        sums = np.zeros((1, 1), dtype=np.int32)
        for _ in range(self.sites // 2 - 1):  # one digit at a time
            k = n * len(sums)
            sums = (n * sums[:, None, :, None] + add[:, None]).reshape(k, k)
        m, c = np.divmod(self.orbit_index, r)
        plan = sums[c]
        plan += ((-m % n) * r * r).astype(np.int32)[:, None]
        plan += np.arange(0, r * r, r, dtype=np.int32)
        plan.flags.writeable = False
        return plan

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        gens = [self.monomial_matrix(unit_vector(self.order, self.sites, j))
                for j in range(1, self.sites + 1)]
        for g in gens:
            g.flags.writeable = False
        return tuple(gens)

    def phases(self, exponents: np.ndarray) -> np.ndarray:
        """phi(I) mod 2n (see the module docstring) for each row I of the
        (T, L) integer array ``exponents``."""
        cross = (exponents @ self._g_upper * exponents).sum(axis=1)
        own = (exponents * (exponents - 1)) @ self._g_diagonal
        return (exponents @ self.zeta_exp + own + 2 * cross) % (2 * self.order)

    def monomial_matrix(self, vec: ExponentVector) -> np.ndarray:
        """Dense matrix of the ordered monomial C_I."""
        return to_matrix(Polynomial.monomial(1.0, vec), self)


def _digit_sum(n: int, k_digits, s_digits):
    """k (+) s from digit sequences of k and s over the factors: k + s less
    n times the place value of each digit sum that reaches n."""
    k = s = wrapped = 0
    for d, e in zip(k_digits, s_digits):
        k, s = k * n + d, s * n + e
        wrapped = wrapped * n + (d + e >= n)
    return k + s - n * wrapped


def build_generators(n: int, L: int) -> Representation:
    """The clock/shift ladder representation for L (even) sites, built once
    per (n, L) and process: every call with the same size shares it."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if L < 2 or L % 2 != 0:
        raise ValueError(f"number of sites must be even and >= 2, got {L}")
    half = L // 2
    # n^half > DIM_CAP once half reaches its bit length, as n >= 2.
    if n ** min(half, DIM_CAP.bit_length()) > DIM_CAP:
        raise DimensionCapError(
            f"representation dimension {n}^{half} exceeds cap {DIM_CAP}"
        )
    return _build(operator.index(n), operator.index(L))


# An entry is O(L dim) integers, at most 2.0 MiB (digits, orbit index and
# generator columns at (2, 24)), so 32 of them hold under 64 MiB, plus the
# weyl_plan of each size a sector command read: 32 MiB at (2, 24).
@lru_cache(maxsize=32)
def _build(n: int, L: int) -> Representation:
    half = L // 2
    dim = n**half
    digits = np.array(np.unravel_index(np.arange(dim), (n,) * half))
    # c_{j+1} has X on each factor g with 2 g < j and Z on factor j // 2.
    j, g = np.arange(L)[:, None], np.arange(half)
    x_exp = (2 * g < j).astype(np.int64)
    z_exp = (g == j // 2).astype(np.int64)
    zeta_exp = np.tile([0, n + 1], half)
    # T^m adds m to every digit: the state of digits d is T^{d_0} o, o the
    # state of digits d - d_0 mod n, first digit 0, one of 0 .. dim/n - 1.
    o = n ** np.arange(half - 2, -1, -1) @ ((digits[1:] - digits[0]) % n)
    return Representation(
        order=n, sites=L, dim=dim, x_exp=x_exp, z_exp=z_exp,
        zeta_exp=zeta_exp, digits=digits, zeta=_zeta_array(n),
        orbit_index=digits[0] * (dim // n) + o,
    )


def sector_blocks(p: Polynomial, rep: Representation) -> np.ndarray:
    """The (n, dim/n, dim/n) charge-sector blocks
    A_q[o, o'] = sum_m omega^{q m} A[T^m o, o'] of the matrix A of a
    gauge-invariant polynomial p, ValueError for any other p: each term's
    columns o' < dim/n go to (m, o) of their row T^m o, read off the row of
    ``rep.weyl_plan`` for the term's X-part, with no dense A.  An entry that
    overflows raises FloatingPointError."""
    if not classify(p).observable:
        raise ValueError("polynomial is not gauge invariant: no sector blocks")
    n, r = rep.order, rep.dim // rep.order

    def locate(a):
        # plan[a, o'] = ((-m mod n) r + o') r + o for o' (+) a = T^m o.
        at = rep.weyl_plan[a @ rep.place]
        return ((-(at // (r * r)) % n) * r + at % r) * r + np.arange(r)

    with np.errstate(over="raise"):
        g = _scatter(p, rep, r, locate).reshape(n, r, r)
        return np.fft.ifft(g, axis=0, norm="forward")


def to_matrix(p: Polynomial, rep: Representation) -> np.ndarray:
    """Evaluate a normal-ordered polynomial in the representation: the
    scatter of sector_blocks, each column k to its row k (+) a."""
    dim = rep.dim
    return _scatter(p, rep, dim, lambda a: dim * _digit_sum(
        rep.order, rep.digits, a.T[:, :, None]) + np.arange(dim)).reshape(dim, dim)


def _scatter(p: Polynomial, rep: Representation, width: int, locate):
    """The columns k < width of the matrix of p as a flat array: column k
    of term I, of X-part a, holds zeta^{phi(I) + 2 b.d(k)} (module
    docstring) at locate(a)[I, k], its row placed as the caller lays out
    the array."""
    if p.order != rep.order or p.sites != rep.sites:
        raise ValueError("polynomial does not match representation")
    n, digits = rep.order, rep.digits[:, :width]
    out = np.zeros(rep.dim * width, dtype=complex)
    step = max(1, _BLOCK // width)
    for start in range(0, len(p.coeffs), step):
        # add.at sums each entry over the terms in order.
        e = p.exponents[start:start + step]
        phase = rep.phases(e)[:, None] + 2 * ((e @ rep.z_exp % n) @ digits)
        phase %= 2 * n
        values = p.coeffs[start:start + step, None] * rep.zeta[phase]
        np.add.at(out, locate(e @ rep.x_exp % n), values)
    return out


def weyl_table(blocks: np.ndarray, rep: Representation) -> np.ndarray:
    """The (dim, dim/n) Weyl table of the matrix E whose (n, dim/n, dim/n)
    charge-sector blocks are ``blocks`` (as ``sector_blocks`` gives them),
    such as e^{-H}: entry [a, b'] is F[a, b] = sum_k omega^{b.d(k)}
    E[k, k (+) a] = Tr(X^a Z^b E) for every digit vector b whose digits sum
    to 0 mod n and end in b'.  For any other b, F[a, b] = 0.

    E commutes with T, so E[k, k (+) a] is constant on T-orbits and F[a, b]
    is n times the character sum G[a, b'] = sum_o omega^{b'.d'(o)} D[a, o]
    over the orbit representatives o (first digit 0, the others d'(o)) of
    D[a, o] = E[o, o (+) a], an entry of the DFT of the blocks: one FFT,
    one flat gather at ``rep.weyl_plan``, no dense E, and two matmuls, the
    character matrix split into Kronecker factors over the first and the
    last half of the digits d'.
    """
    n, dim = rep.order, rep.dim
    a = np.fft.fft(blocks, axis=0, norm="forward")
    d = a.take(rep.weyl_plan)
    g = np.matmul(rep._w_lo, d.reshape(dim, len(rep._w_lo), -1) @ rep._w_hi)
    return n * g.reshape(dim, dim // n)


def pair_traces(rep: Representation, rows, i, j, table) -> np.ndarray:
    """M_ij = Tr(C_I theta(C_J) E), I = rows[i], J = rows[j], over the
    minus-half rows of the (k, L) integer array ``rows`` (ValueError for any
    other), with ``table`` the Weyl table of E (``weyl_table``); i and j are
    index arrays that broadcast together; the result has their shape.

    theta(C_J) = w_J C_{J'}, J' = n - reverse(J) on the plus half, with w_J
    and J' from ``_theta``, and C_I C_{J'} = zeta^{phi_I + phi_J' + 2
    b_I.a_J'} X^{a_I (+) a_J'} Z^{b_I (+) b_J'} has a trace only when
    deg I = deg J mod n.  Then a_J'
    is -deg I on each factor g with 2 g < L/2, the only ones where a_I or
    b_I is nonzero, so b_I.a_J' = -deg I sum b_I, and I and J' share only
    the Z-digit of factor f = (L/2 - 1) // 2: the table index and the phase
    are a part of I plus a part of J, less n times the place value of that
    digit where it carries.  O(L) integer work per row, O(1) per entry.
    """
    n, half, r = rep.order, rep.sites // 2, rep.dim // rep.order
    if rows[:, half:].any():
        raise ValueError("RP matrix rows must be on the minus half, sites 1..L/2")
    charge = rows.sum(axis=1) % n
    mirror, w = _theta(rows, np.ones(len(rows), dtype=complex), n)  # J', w_J
    low = 2 * np.arange(half) < half  # the factors where a_J' = -deg J
    a_i = (rows @ rep.x_exp - charge[:, None] * low) % n
    a_j = mirror @ rep.x_exp % n * ~low
    b_i, b_j = rows @ rep.z_exp % n, mirror @ rep.z_exp % n
    # Place values in the flattened table, without the first digit of b.
    z_place, f = rep.place % r, (half - 1) // 2
    k_i = a_i @ (rep.place * r) + b_i @ z_place
    k_j = a_j @ (rep.place * r) + b_j @ z_place
    p_i = (rep.phases(rows) - 2 * charge * b_i.sum(axis=1)) % (2 * n)
    index = k_i[i] + k_j[j]
    index[b_i[i, f] + b_j[j, f] >= n] -= n * z_place[f]
    phase = (p_i[i] + rep.phases(mirror)[j]) % (2 * n)
    values = rep.zeta[phase] * table.ravel()[index]
    values[charge[i] != charge[j]] = 0
    return w[j] * values


def trace_monomial(vec: ExponentVector) -> complex:
    """Analytic trace of C_I: n^{L/2} for the identity, else 0."""
    if vec.is_zero():
        return complex(vec.order ** (vec.sites // 2))
    return 0j


def all_exponent_vectors(n: int, L: int):
    """Iterate all n^L exponent vectors in lexicographic order."""
    for entries in itertools.product(range(n), repeat=L):
        yield ExponentVector(entries, n)


def decompose(blocks: np.ndarray, rep: Representation) -> Polynomial:
    """Expand the matrix E whose (n, dim/n, dim/n) charge-sector blocks are
    ``blocks``, such as e^{-H}, in the monomial basis: the coefficients
    Tr(C_I^* E) / n^{L/2} above DECOMPOSE_TOL (1 + max |E_ij|), in the
    lexicographic order of I.  Tr((X^a Z^b)^* E) is omega^{b.a} F[-a, -b]
    (-a, -b digit-wise), F the Weyl table of E: zero unless the digits of b
    sum to 0, so only the dim^2/n monomials of degree 0 mod n appear, each
    (a, b) then mapped back to its I.  Every E_ij is an entry of the DFT of
    the blocks (``weyl_table``), so no step forms a dense E."""
    n, L, dim = rep.order, rep.sites, rep.dim
    r = dim // n
    if blocks.shape != (n, r, r):
        raise ValueError(
            f"blocks shape {blocks.shape} does not match {(n, r, r)}"
        )
    if dim * r > ENUM_CAP:
        raise DimensionCapError(
            f"basis size {dim * r} exceeds enumeration cap {ENUM_CAP}"
        )
    entries = np.fft.fft(blocks, axis=0, norm="forward")
    scale = 1.0 + float(np.abs(entries).max(initial=0.0))
    digits = rep.digits
    # The state of digits -d(k) mod n for each state k: -a, and for a first
    # digit 0, the last digits of -b.
    neg = rep.place @ (-digits % n)
    coeffs = weyl_table(blocks, rep)[neg[:, None], neg[:r]] / dim
    keep = np.flatnonzero(np.abs(coeffs) > DECOMPOSE_TOL * scale)
    x, z = digits[:, keep // r], digits[:, keep % r]
    z[0] = -z.sum(axis=0) % n  # b has charge 0
    # Invert b_f = I_{2f} + I_{2f+1} and a_f = I_{2f+1} + sum_{g>f} b_g.
    later = np.cumsum(z[::-1], axis=0)[::-1] - z
    exponents = np.empty((len(keep), L), dtype=np.int64)
    exponents[:, 1::2] = ((x - later) % n).T
    exponents[:, 0::2] = (z.T - exponents[:, 1::2]) % n
    # Lexicographic order of I, as the enumeration of the basis.
    order = np.lexsort(exponents.T[::-1])
    exponents = exponents[order]
    # omega^{b.a} zeta^{-phi(I)}
    phase = 2 * (x * z).sum(axis=0)[order] - rep.phases(exponents)
    values = coeffs.ravel()[keep[order]] * rep.zeta[phase % (2 * n)]
    return Polynomial._from_arrays(exponents, values, n, L)


def verify_yamazaki(rep: Representation) -> dict[str, float]:
    """Max residuals of the defining relations; reported, never raised.

    The residuals are Frobenius norms of c^n - Id, c c^* - Id and
    c_j c_k - omega c_k c_j (j < k).  They are computed in O(L^2 dim) from
    the generators' Weyl data, from which every matrix of the
    representation is built: each generator has one nonzero entry per
    column, so a product of two generators is one flat gather of their
    raveled rows and values at indices the representation holds.
    """
    rows, vals = rep.generator_rows, rep.zeta[rep.generator_phases]
    flat_rows, flat_vals = rows.ravel(), vals.ravel()
    # Row r of c_{j+1} sits at j dim + r in the raveled rows and values.
    at = rep._offsets + rows

    # c c^* is diagonal, holding per row the sum of |v|^2 of the columns
    # mapped there.
    weight = np.bincount(at.ravel(), np.abs(flat_vals) ** 2, rows.size)
    r_unitary = np.sqrt(((weight.reshape(rows.shape) - 1.0) ** 2).sum(axis=1))

    # c^n column by column: c maps column k of the power p, p_v[k] e_{p_r[k]},
    # to p_v[k] c_v[p_r[k]] e_{c_r[p_r[k]]}.
    power_rows, power_vals = flat_rows[at], vals * flat_vals[at]
    for _ in range(rep.order - 2):
        at = rep._offsets + power_rows
        power_rows, power_vals = flat_rows[at], power_vals * flat_vals[at]
    sq = np.abs(power_vals - 1.0) ** 2
    # Per column, entries in different rows add in square, not subtract;
    # on a valid representation no row differs.
    moved = power_rows != np.arange(rep.dim)
    sq[moved] = np.abs(power_vals[moved]) ** 2 + 1.0
    r_order = np.sqrt(sq.sum(axis=-1))

    # c_j c_k - omega c_k c_j for all pairs j < k at once: c_j c_k gathers
    # c_j at the rows of c_k, c_k c_j gathers c_k at those of c_j.
    j, k = rep._pairs
    at_jk, at_kj = rep._offsets[j] + rows[k], rep._offsets[k] + rows[j]
    jk = vals[k] * flat_vals[at_jk]
    kj = np.exp(2j * np.pi / rep.order) * (vals[j] * flat_vals[at_kj])
    sq = np.abs(jk - kj) ** 2
    moved = flat_rows[at_jk] != flat_rows[at_kj]
    sq[moved] = np.abs(jk[moved]) ** 2 + np.abs(kj[moved]) ** 2
    r_commute = np.sqrt(sq.sum(axis=-1))
    return {
        "order_residual": float(r_order.max(initial=0.0)),
        "unitarity_residual": float(r_unitary.max(initial=0.0)),
        "commutation_residual": float(r_commute.max(initial=0.0)),
    }
