"""Canonical symbolic algebra of parafermion polynomials.

Operators are stored in normal order: every element is a finite linear
combination of ordered monomials C_I = c_1^{a_1} ... c_L^{a_L} with exponents
mod n, keyed by their exponent vector.  Products, adjoints, reflection and
gauge transformations all re-canonicalize eagerly, so equality of operators
is equality of coefficient maps.

Every phase produced by these operations is a power of the primitive 2n-th
root of unity zeta = e^{i pi / n} (zeta^2 = omega).  Phase exponents are
computed with exact integer arithmetic mod 2n and converted to complex
numbers as cmath.exp(i pi k / n) of the exponent k reduced mod 2n, one at a
time or gathered from a per-order array, so repeated products do not
accumulate phase drift beyond a single rounding per factor.

Storage.  A polynomial with K terms is two arrays: ``exponents``, a (K, L)
integer matrix whose rows are the distinct exponent vectors, and ``coeffs``,
the (K,) complex128 vector of their nonzero coefficients.  These rows are
the only monomial arithmetic of the package.  Every operation works on
whole arrays: circ(I, J) for all term pairs of a product is
``exponents.circ``, the integer product S B^T of the exclusive suffix sums S
of A's rows (one reversed ``cumsum``) with the rows of B, circ(I, I) of the
adjoint and the reflection is ((sum a)^2 - sum a^2) / 2 per row, reflection
and adjoint are column reversals and complements, and terms with equal
exponent rows are merged through their mixed-radix codes (one int64 per
chunk of sites, from one power of n per site) and ``np.bincount``; the
same codes of the reversed rows sort the lines of ``to_text``.  The matrix
oracle (``representation.to_matrix`` and the RP-matrix kernel
``representation.pair_traces``) reads the same exponent matrix.  ``terms``
builds a new dict ExponentVector -> coefficient on every call and is not
cached; nothing in the package reads it.

Coefficients are bit-for-bit those of the term-by-term definitions with
Python complex arithmetic, which ``tests/test_array_algebra.py`` keeps as
its reference loops:

* complex products are written out as xr*yr - xi*yi and xr*yi + xi*yr on
  float64 arrays, each product rounded on its own, because numpy's complex
  multiply may use fused multiply-add and then differs in the last bit;
* a merged coefficient is a sum started from 0 that adds its terms in array
  order (``np.bincount`` does), which for a product is the row-major order
  of (left term, right term) pairs;
* merged terms keep the position of their first occurrence.
"""

from __future__ import annotations

import cmath
import codecs
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .exponents import ExponentVector, circ, zero_vector

COEFF_TOL = 1e-12

# Entries per temporary array (4 MiB of complex values): bounds the P*Q*L
# exponent sums of a product here, and the chunks of the scatter of
# to_matrix and sector_blocks in representation, whatever the input size.
_BLOCK = 1 << 18


def zeta_power(n: int, k: int) -> complex:
    """zeta^k with zeta = e^{i pi / n}, the primitive 2n-th root of unity,
    from the exponent reduced mod 2n: entry k mod 2n of _zeta_array(n)."""
    return cmath.exp(1j * math.pi * (k % (2 * n)) / n)


def omega_power(n: int, k: int) -> complex:
    """omega^k with omega = e^{2 pi i / n} = zeta^2."""
    return zeta_power(n, 2 * k)


@lru_cache(maxsize=8)
def _zeta_array(n: int) -> np.ndarray:
    """zeta^0 .. zeta^{2n-1} as a read-only complex array, indexed by
    exponent; the last few orders are kept."""
    table = np.fromiter((cmath.exp(1j * math.pi * k / n) for k in range(2 * n)),
                        dtype=complex, count=2 * n)
    table.flags.writeable = False
    return table


class Side(Enum):
    MINUS = "minus"
    PLUS = "plus"
    CROSSING = "crossing"
    SCALAR = "scalar"


@dataclass(frozen=True)
class SideClass:
    side: Side
    observable: bool


# -- array kernels ------------------------------------------------------


def _cmul(x, y) -> np.ndarray:
    """x * y elementwise as Python's complex multiply computes it: each part
    from two separately rounded products, never a fused multiply-add."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    real = xr * yr - xi * yi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = xr * yi + xi * yr
    return out


@lru_cache(maxsize=None)
def _powers(n: int) -> np.ndarray:
    """n^0, n^1, ..., n^(per - 1): the weights of the sites of one chunk of a
    mixed-radix code, a chunk holding as many sites as keep n^per within
    int64."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    per = 1
    while n ** (per + 1) <= 2**63:
        per += 1
    powers = np.array([n**k for k in range(per)], dtype=np.int64)
    powers.flags.writeable = False
    return powers


def _codes(exponents: np.ndarray, n: int) -> np.ndarray:
    """(K, C) codes of the rows of ``exponents``: column c is the mixed-radix
    code of the c-th chunk of sites, so rows are equal exactly when their C
    codes are, for every n and L (n^L may exceed 2^63)."""
    powers = _powers(n)
    per, L = len(powers), exponents.shape[1]
    return np.stack([exponents[:, s:s + per] @ powers[:L - s]
                     for s in range(0, L, per)], axis=1)


def _group(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows of equal codes: the group of every row, groups numbered in
    order of first occurrence, and the first row of each group.  A row of
    several codes (n^L beyond int64) is keyed by its rank among the
    distinct rows, from ``np.unique``."""
    if codes.shape[1] == 1:
        keys = codes[:, 0]
    else:
        keys = np.unique(codes, axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    if starts.all():  # no two rows alike: every row is its own group
        rows = np.arange(len(keys))
        return rows, rows
    run = np.cumsum(starts) - 1
    # The sort is not stable: a run's first row is its smallest index.
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    by_first = np.argsort(first)
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(len(first))
    group = np.empty_like(order)
    group[order] = renumber[run]
    return group, first[by_first]


def _merge(codes: np.ndarray, values: np.ndarray):
    """First row of each group of equal codes, and the sum of its values
    from 0 in array order."""
    group, first = _group(codes)
    sums = np.empty(len(first), dtype=complex)
    sums.real = np.bincount(group, values.real, len(first))
    sums.imag = np.bincount(group, values.imag, len(first))
    return first, sums


_set = object.__setattr__


class Polynomial:
    """Normal-ordered polynomial in parafermion generators.

    Immutable; ``exponents`` (K, L) and ``coeffs`` (K,) hold the terms.
    """

    __slots__ = ("exponents", "coeffs", "order", "sites")

    def __init__(self, terms, n: int, L: int):
        terms = dict(terms)
        if any(vec.order != n or vec.sites != L for vec in terms):
            raise ValueError("term key does not match polynomial n, L")
        exponents = np.array([vec.entries for vec in terms], dtype=np.int64)
        coeffs = np.fromiter(map(complex, terms.values()), complex, len(terms))
        self._init(exponents.reshape(len(terms), L), coeffs, n, L)

    def _init(self, exponents, coeffs, n, L) -> None:
        """Keep the terms whose coefficient is nonzero and has no NaN part:
        the one term filter of every constructor."""
        if np.isnan(coeffs).any() or not coeffs.all():
            keep = (coeffs != 0) & ~np.isnan(coeffs)
            exponents, coeffs = exponents[keep], coeffs[keep]
        exponents.flags.writeable = False
        coeffs.flags.writeable = False
        _set(self, "exponents", exponents)
        _set(self, "coeffs", coeffs)
        _set(self, "order", n)
        _set(self, "sites", L)

    @classmethod
    def _from_arrays(cls, exponents, coeffs, n: int, L: int) -> "Polynomial":
        """Polynomial of distinct int64 exponent rows, dropping zero and NaN
        coefficients as the dict constructor does."""
        p = cls.__new__(cls)
        p._init(exponents, coeffs, n, L)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[ExponentVector, complex]:
        """A new dict ExponentVector -> nonzero coefficient of the terms."""
        n = self.order
        return {
            ExponentVector(tuple(row), n): c
            for row, c in zip(self.exponents.tolist(), self.coeffs.tolist())
        }

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int, L: int) -> "Polynomial":
        return cls({}, n, L)

    @classmethod
    def identity(cls, n: int, L: int) -> "Polynomial":
        return cls({zero_vector(n, L): 1.0 + 0.0j}, n, L)

    @classmethod
    def monomial(cls, coeff: complex, vec: ExponentVector) -> "Polynomial":
        return cls({vec: coeff}, vec.order, vec.sites)

    # -- linear structure ---------------------------------------------

    def _require_same_space(self, other: "Polynomial") -> None:
        if self.order != other.order or self.sites != other.sites:
            raise ValueError("polynomials on different algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return sum_polynomials((self, other))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Polynomial":
        return Polynomial._from_arrays(
            self.exponents, _cmul(complex(scalar), self.coeffs),
            self.order, self.sites,
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return canonical_product(self, other)
        return complex(other) * self

    def __neg__(self) -> "Polynomial":
        return (-1) * self

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def coefficient(self, vec: ExponentVector) -> complex:
        if vec.order != self.order or vec.sites != self.sites:
            return 0j
        rows = np.flatnonzero((self.exponents == vec.entries).all(axis=1))
        return complex(self.coeffs[rows[0]]) if len(rows) else 0j

    def constant_term(self) -> complex:
        rows = np.flatnonzero(~self.exponents.any(axis=1))
        return complex(self.coeffs[rows[0]]) if len(rows) else 0j

    def norm1(self) -> float:
        # Python's abs: numpy's complex abs may differ in the last bit.
        return sum(map(abs, self.coeffs.tolist()))

    def almost_equal(self, other: "Polynomial", tol: float = COEFF_TOL) -> bool:
        diff = self._difference(other)
        scale = 1.0 + max(self.norm1(), other.norm1())
        return bool((np.abs(diff) <= tol * scale).all())

    def _difference(self, other: "Polynomial") -> np.ndarray:
        """The coefficients of self - other over the union of their terms."""
        if self.exponents is other.exponents:  # the same terms in the same order
            return self.coeffs - other.coeffs
        _, diff, rows = _union((self, other))
        diff[rows] -= other.coeffs
        return diff

    def __repr__(self):
        if self.is_zero():
            return f"Polynomial.zero(n={self.order}, L={self.sites})"
        terms = zip(map(tuple, self.exponents.tolist()), self.coeffs.tolist())
        return " + ".join(
            f"{c!r}*C{row}" for row, c in sorted(terms, key=itemgetter(0))
        )


# -- core operations ----------------------------------------------------


def _union(polys):
    """All distinct exponent rows of ``polys`` in order of first occurrence,
    the coefficients of polys[0] padded with zeros, and the row of each term
    of polys[1:]."""
    first = polys[0]
    for q in polys[1:]:
        first._require_same_space(q)
    exponents = np.concatenate([p.exponents for p in polys])
    group, rows = _group(_codes(exponents, first.order))
    k = len(first.coeffs)
    coeffs = np.zeros(len(rows), dtype=complex)
    coeffs[:k] = first.coeffs
    if len(rows) < len(exponents):
        exponents = exponents[rows]
    return exponents, coeffs, group[k:]


def sum_polynomials(polys) -> Polynomial:
    """p_1 + p_2 + ... in one merge, term for term the left fold of ``+``:
    the coefficients of p_1 as they are, every later term added in order."""
    polys = list(polys)
    exponents, coeffs, rows = _union(polys)
    added = np.concatenate([p.coeffs for p in polys])[len(polys[0].coeffs):]
    np.add.at(coeffs, rows, added)
    return Polynomial._from_arrays(exponents, coeffs, polys[0].order, polys[0].sites)


def _exact(a: np.ndarray, bound: int) -> np.ndarray:
    """``a``, or Python integers if its phase sums reach ``bound`` >= 2^63."""
    return a if bound < 2**63 else a.astype(object)


def canonical_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Normal-ordered product: C_I C_J = omega^{-circ(I, J)} C_{I+J}."""
    p._require_same_space(q)
    n, L = p.order, p.sites
    a, b = p.exponents, q.exponents
    # -2 circ(I, J) <= L^2 (n-1)^2 in absolute value.
    k = -2 * circ(_exact(a, (L * (n - 1)) ** 2), b) % (2 * n)
    phase = _zeta_array(n)[np.asarray(k, dtype=np.int64)]  # omega^{-circ}
    values = _cmul(_cmul(p.coeffs[:, None], q.coeffs), phase).ravel()
    if len(a) <= 1 or len(b) <= 1:
        # I -> I + J is then one-to-one: no two pairs share a key.
        keys = (a[:, None] + b).reshape(-1, L) % n
        return Polynomial._from_arrays(keys, values + 0.0, n, L)
    step = max(1, _BLOCK // (len(b) * L))
    codes = np.concatenate([
        _codes((a[i:i + step, None] + b).reshape(-1, L) % n, n)
        for i in range(0, len(a), step)
    ])
    first, coeffs = _merge(codes, values)
    keys = (a[first // len(b)] + b[first % len(b)]) % n
    return Polynomial._from_arrays(keys, coeffs, n, L)


def _conjugate_terms(a: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """0 + conj(c) omega^{-circ(I, I)} for the terms with exponent rows a and
    coefficients c, shared by adjoint and theta: ``_cmul`` of the conjugate,
    and 0 added to turn -0.0 into 0.0.
    Here -2 circ(I, I) = -2 sum_{i > j} a_i a_j = sum a^2 - (sum a)^2, and
    sum a is reduced mod 2n before it is squared."""
    wide = _exact(a, a.shape[1] * (n - 1) ** 2 + 4 * n * n)
    index = (wide * wide).sum(axis=1) - (wide.sum(axis=1) % (2 * n)) ** 2
    w = _zeta_array(n)[np.asarray(index % (2 * n), dtype=np.int64)]
    return _cmul(c.conj(), w) + 0


def _theta(a: np.ndarray, c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The reflection theta on the terms with exponent rows a and
    coefficients c: C_I -> omega^{-circ(I, I)} C_{n - reverse(I)}, the
    coefficient conjugated.  The rows n - reverse(I) mod n and their
    coefficients."""
    return (n - a[:, ::-1]) % n, _conjugate_terms(a, c, n)


def adjoint(p: Polynomial) -> Polynomial:
    """Hermitian adjoint: C_I^* = omega^{-circ(I, I)} C_{I^c}."""
    n, a = p.order, p.exponents
    return Polynomial._from_arrays(
        (n - a) % n, _conjugate_terms(a, p.coeffs, n), n, p.sites
    )


def reflect(p: Polynomial) -> Polynomial:
    """Anti-linear reflection automorphism.

    Sends c_i to c_{L-i+1}^{n-1}; on monomials
    C_I -> omega^{-circ(I, I)} C_{reverse(I^c)} with conjugated coefficient.
    """
    n = p.order
    return Polynomial._from_arrays(*_theta(p.exponents, p.coeffs, n), n, p.sites)


def gauge_apply(p: Polynomial, site: int | None = None) -> Polynomial:
    """Gauge automorphism: local U_site scales a term by omega^{a_site};
    the global transformation (site=None) scales by omega^{degree}."""
    n, L = p.order, p.sites
    if site is not None and not 1 <= site <= L:
        raise ValueError(f"site {site} outside 1..{L}")
    k = p.exponents.sum(axis=1) if site is None else p.exponents[:, site - 1]
    omega_k = _zeta_array(n)[(2 * k) % (2 * n)]
    return Polynomial._from_arrays(p.exponents, _cmul(p.coeffs, omega_k), n, L)


def classify(p: Polynomial) -> SideClass:
    """Side membership relative to the reflection cut, plus observability.

    A polynomial is observable when every term has degree divisible by n
    (global gauge invariance).
    """
    a, half = p.exponents, p.sites // 2
    observable = not (a.sum(axis=1) % p.order).any()
    # A nonscalar term is supported on the minus half when its plus half is
    # zero, and the other way round.
    on_minus, on_plus = a[:, :half].any(), a[:, half:].any()
    if not (on_minus or on_plus):
        return SideClass(Side.SCALAR, observable)
    if not on_plus:
        return SideClass(Side.MINUS, observable)
    if not on_minus:
        return SideClass(Side.PLUS, observable)
    return SideClass(Side.CROSSING, observable)


# -- textual serialization ----------------------------------------------


def to_text(p: Polynomial) -> str:
    """One term per line, ``(re+imj) * c1^a1 c2^a2 ...``, after a header
    ``# n=.. L=..``; the identity term is written ``(re+imj) * 1``.
    Round-trips exactly (float repr)."""
    # By entries, site 1 first: the codes of the reversed rows weigh site 1
    # most, in their last chunk, the primary key of the lexsort.
    order = np.lexsort(_codes(p.exponents[:, ::-1], p.order).T)
    block = _text_block(p.coeffs[order], p.exponents[order])
    text = block.tobytes().translate(None, b"\0").decode()
    return f"# n={p.order} L={p.sites}\n{text}"


def _text_block(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The term lines as bytes, a row per term: the coefficient's repr,
    ' *', then per site j a field holding ' c<j>^' and the digits of the
    exponent (empty where it is 0), and a newline.  Every field is padded
    with NULs to a fixed width.  The exponent matrix ``a`` is overwritten."""
    K, L = a.shape
    coeffs = np.array(list(map(repr, coeffs.tolist())), dtype=bytes)
    labels = np.array([f" c{j}^" for j in range(1, L + 1)], dtype=bytes)
    lead, head = coeffs.itemsize + 2, labels.itemsize
    digits = len(str(a.max(initial=0)))
    block = np.zeros((K, lead + (L + 1) * (head + digits)), dtype=np.uint8)
    block[:, :lead - 2] = coeffs.view(np.uint8).reshape(K, lead - 2)
    block[:, lead - 2:lead] = np.frombuffer(b" *", dtype=np.uint8)
    fields = block[:, lead:].reshape(K, L + 1, head + digits)  # a view
    fields[:, L, 0] = ord("\n")
    nonzero = (a != 0).view(np.uint8)
    for i, byte in enumerate(labels.view(np.uint8).reshape(L, head).T):
        fields[:, :L, i] = byte * nonzero
    if K and not a[0].any():  # the zero row sorts first
        fields[0, 0, :2] = np.frombuffer(b" 1", dtype=np.uint8)
    for i in reversed(range(digits)):  # least significant first
        digit = fields[:, :L, head + i]
        np.remainder(a, 10, out=digit, casting="unsafe")
        digit += ord("0")
        digit *= a > 0  # no leading zeros
        a //= 10
    return block


# from_text reads a character beyond ASCII as a byte of its class, '\n' for a
# line break, ' ' for another blank, '\x7f' for the rest, and then classifies
# bytes as line breaks of str.splitlines and as blanks inside a line.
codecs.register_error("pararp.classes", lambda error: ("".join(
    "\n" if ch in "\x85\u2028\u2029" else " " if ch.isspace() else "\x7f"
    for ch in error.object[error.start:error.end]), error.end))
_BREAK, _BLANK = np.zeros((2, 256), dtype=bool)
_BREAK[[10, 11, 12, 13, 28, 29, 30]] = _BLANK[[9, 31, 32]] = True


def _factors(chars: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Site, power and end of the factor c<site>^<power> at each position of
    ``c`` in ``chars``, a byte array ended by two zeros, and whether each is
    one: after a blank or a zero, 'c', 1 to 18 digits, '^', 1 to 18 digits.
    Horner's rule reads all numbers at once, a digit position per step."""
    before = chars[c - 1]
    numbers, at, ok = [], c, _BLANK[before] | (before == 0)
    for mark in b"c^":
        ok &= chars[at] == mark
        digit = chars[at + 1] - 48  # a non-digit byte wraps to >= 10
        value, start, at = digit.astype(np.int64), at + 1, at + 1 + (digit < 10)
        for _ in range(18):  # digits 2 to 19; a 19th fails the length test
            digit = chars[at] - 48
            live = digit < 10
            if not live.any():
                break
            np.multiply(value, 10, out=value, where=live)
            np.add(value, digit, out=value, where=live)
            at += live
        ok &= (at > start) & (at - start <= 18)
        numbers.append(value)
    return *numbers, at, ok


def from_text(text: str) -> Polynomial:
    """Inverse of to_text.  Equal monomials on several lines add up.  A
    header or term line that does not parse, a header whose n or L is not
    an algebra, a site outside 1..L, an exponent outside 0..n-1 or a site
    written twice in one monomial is a ValueError naming the line; lines
    that do not parse are named first.

    One pass reads every text: numpy finds the lines and each term line's
    '*', ``complex`` parses the coefficients and ``_factors`` the monomials,
    and the first line whose coefficient or monomial fails is named from
    the same arrays."""
    size = len(text)
    chars = np.frombuffer(text.encode("ascii", "pararp.classes"), np.uint8)
    chars = np.append(chars, np.uint8([0, 0]))  # two zeros end every number
    low = np.flatnonzero(chars[:size] < 32)  # line breaks, tabs, other controls
    breaks = low[_BREAK[chars[low]]]
    starts, ends = np.append(0, breaks + 1), np.append(breaks, size)
    for i in np.flatnonzero(_BLANK[chars[starts]]).tolist():  # leading blanks
        line = text[starts[i]:ends[i]]
        starts[i] += len(line) - len(line.lstrip())
    lines = np.flatnonzero(starts < ends)  # not blank
    if not len(lines):
        raise ValueError("missing '# n=.. L=..' header")
    # The header, '# n=.. L=..', is the first line that is not blank.
    head = text[starts[lines[0]]:ends[lines[0]]]
    where = len(text[:ends[lines[0]]].splitlines())
    if not head.startswith("#"):
        raise ValueError(f"line {where}: term before '# n=.. L=..' header")
    try:
        fields = dict(f.split("=") for f in head[1:].split())
        n, L = int(fields["n"]), int(fields["L"])
    except (KeyError, ValueError):
        raise ValueError(f"line {where}: header is not '# n=.. L=..'") from None
    try:
        zero_vector(n, L)  # validates n and L
    except ValueError as exc:
        raise ValueError(f"line {where}: {exc}") from None
    lines = lines[1:][chars[starts[lines[1:]]] != ord("#")]  # terms
    starts, ends, K = starts[lines], ends[lines], len(lines)
    stars = np.flatnonzero(chars == ord("*"))
    star = np.append(stars, size)[np.searchsorted(stars, starts)]
    # A line without '*' is all coefficient, stripped as str.partition reads it.
    for k in np.flatnonzero(star >= ends).tolist():
        star[k] = starts[k] + len(text[starts[k]:ends[k]].rstrip())
    coeffs = iter([text[a:b] for a, b in zip(starts.tolist(), star.tolist())])
    try:
        failed, values = K, np.fromiter(map(complex, coeffs), dtype=complex, count=K)
    except ValueError as exc:  # at the last coefficient taken
        failed, reason = K - operator.length_hint(coeffs) - 1, str(exc)
    # Zero all but the monomials, the bytes after each '*' to its line's end.
    edges = np.zeros(2 * K + 2, dtype=np.int64)
    edges[1:-1:2], edges[2:-1:2], edges[-1] = np.minimum(star + 1, ends), ends, size
    chars[:size] *= np.repeat(np.tile(np.uint8([0, 1]), K + 1)[:-1], np.diff(edges))
    c = np.flatnonzero(chars == ord("c"))
    bounds = np.searchsorted(c, ends)  # each line's factors end there
    per_term = np.diff(bounds, prepend=0)
    site, power, end, ok = _factors(chars, c)
    # Each byte of a good monomial is a blank, in a factor, or a lone '1'.
    # Lines without a factor are checked one by one and the others as a
    # whole; only if that fails are the bytes added up line by line, where
    # a bad factor covers more bytes than any line has.
    identity, length = per_term == 0, ends - star - 1
    bad = np.zeros(K, dtype=bool)
    for k in np.flatnonzero(identity).tolist():
        bad[k] = text[star[k] + 1:ends[k]].strip() != "1"
    blanks = low[_BLANK[chars[low]]]  # the blanks other than ' '
    filled = end.sum() - c.sum() + np.count_nonzero(chars == 32) + len(blanks)
    if bad.any() or not ok.all() or filled + identity.sum() != length.sum():
        chars[blanks] = 32
        filled = np.append(0, np.cumsum(np.where(ok, end - c, size + 2)))[bounds]
        filled = np.diff(filled, prepend=0) + identity
        filled += np.diff(np.searchsorted(np.flatnonzero(chars == 32), ends), prepend=0)
        first = int(np.argmax(bad | (filled != length)))
        if first < failed:
            mono = text[star[first] + 1:ends[first]].strip()
            failed, reason = first, f"bad monomial {mono!r}"
    if failed < K:
        raise ValueError(f"line {len(text[:ends[failed]].splitlines())}: {reason}")
    term, site = np.repeat(np.arange(K), per_term), site - 1
    bad = (site < 0) | (site >= L) | (power >= n)
    slot = term * L + site
    if bad.any() or np.bincount(slot, minlength=K * L).max(initial=0) > 1:
        # A factor is repeated when its (term, site) slot was taken before.
        slot[bad] = -1 - np.flatnonzero(bad)
        repeated = np.ones(len(slot), dtype=bool)
        repeated[np.unique(slot, return_index=True)[1]] = False
        k = int(np.argmax(bad | repeated))
        s, e = int(site[k]) + 1, int(power[k])
        reason = (
            f"site {s} outside 1..{L}" if not 0 < s <= L
            else f"exponent {e} of site {s} outside 0..{n - 1}" if e >= n
            else f"site {s} appears twice"
        )
        lineno = len(text[:star[term[k]]].splitlines())
        raise ValueError(f"line {lineno}: {reason}")
    exponents = np.zeros((K, L), dtype=np.int64)
    exponents.ravel()[slot] = power
    first, sums = _merge(_codes(exponents, n), values)
    return Polynomial._from_arrays(exponents[first], sums, n, L)
