"""Canonical symbolic algebra of parafermion polynomials.

Operators are stored in normal order: every element is a finite linear
combination of ordered monomials C_I = c_1^{a_1} ... c_L^{a_L} with exponents
mod n, keyed by their exponent vector.  Products, adjoints, reflection and
gauge transformations all re-canonicalize eagerly, so equality of operators
is equality of coefficient maps.

Every phase produced by these operations is a power of the primitive 2n-th
root of unity zeta = e^{i pi / n} (zeta^2 = omega).  Phase exponents are
computed with exact integer arithmetic mod 2n and converted to complex
numbers through a per-order table of exactly-constructed roots, so repeated
products do not accumulate phase drift beyond a single rounding per factor.

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
chunk of sites, from one power of n per site) and ``np.bincount``.  The
matrix oracle (``representation.to_matrix``, ``rp._traces``) reads the same
exponent matrix.  ``terms`` builds a new dict ExponentVector -> coefficient
on every call and is not cached; nothing in the package reads it.

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
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter, methodcaller

import numpy as np

from .exponents import ExponentVector, circ, zero_vector

COEFF_TOL = 1e-12

# Entries per temporary array (4 MiB of complex values): bounds the P*Q*L
# exponent sums of a product here, and the blocks of to_matrix and
# trace_products in representation, independently of the input size.
_BLOCK = 1 << 18


@lru_cache(maxsize=None)
def _zeta_table(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(1j * math.pi * k / n) for k in range(2 * n))


@lru_cache(maxsize=None)
def _zeta_array(n: int) -> np.ndarray:
    """_zeta_table(n) as a read-only complex array, indexed by exponent."""
    table = np.array(_zeta_table(n))
    table.flags.writeable = False
    return table


def zeta_power(n: int, k: int) -> complex:
    """zeta^k with zeta = e^{i pi / n}, the primitive 2n-th root of unity."""
    return _zeta_table(n)[k % (2 * n)]


def omega_power(n: int, k: int) -> complex:
    """omega^k with omega = e^{2 pi i / n} = zeta^2."""
    return _zeta_table(n)[(2 * k) % (2 * n)]


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
    order of first occurrence, and the first row of each group."""
    if codes.shape[1] == 1:
        keys = codes[:, 0]
    else:  # n^L beyond int64: number the distinct rows of codes first
        order = np.lexsort(codes.T)
        ranked = codes[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        keys = np.empty(len(order), dtype=np.int64)
        keys[order] = np.cumsum(new)
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
        clean: dict[ExponentVector, complex] = {}
        for vec, coeff in dict(terms).items():
            if vec.order != n or vec.sites != L:
                raise ValueError("term key does not match polynomial n, L")
            c = complex(coeff)
            if abs(c) > 0:  # drops zero and NaN coefficients
                clean[vec] = c
        exponents = np.array([v.entries for v in clean], dtype=np.int64)
        coeffs = np.fromiter(clean.values(), dtype=complex, count=len(clean))
        exponents = exponents.reshape(len(clean), L)
        self._init(exponents, coeffs, n, L)

    def _init(self, exponents, coeffs, n, L) -> None:
        exponents.flags.writeable = False
        coeffs.flags.writeable = False
        _set(self, "exponents", exponents)
        _set(self, "coeffs", coeffs)
        _set(self, "order", n)
        _set(self, "sites", L)

    @classmethod
    def _from_arrays(cls, exponents, coeffs, n: int, L: int) -> "Polynomial":
        """Polynomial of distinct int64 exponent rows, dropping zero (and
        NaN) coefficients as the dict constructor does."""
        if not np.abs(coeffs).min(initial=1.0) > 0:
            keep = np.abs(coeffs) > 0
            exponents, coeffs = exponents[keep], coeffs[keep]
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
        if self.exponents is other.exponents:  # the same terms in the same order
            diff = self.coeffs - other.coeffs
        else:
            _, diff, rows = _union((self, other))
            diff[rows] -= other.coeffs
        scale = 1.0 + max(self.norm1(), other.norm1())
        return bool((np.abs(diff) <= tol * scale).all())

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



def canonical_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Normal-ordered product: C_I C_J = omega^{-circ(I, J)} C_{I+J}."""
    p._require_same_space(q)
    n, L = p.order, p.sites
    a, b = p.exponents, q.exponents
    phase = _zeta_array(n)[(-2 * circ(a, b)) % (2 * n)]  # omega^{-circ}
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
    coefficients c, shared by adjoint and reflect, with Python's rounding:
    conj(c) w has real part cr wr + ci wi and imaginary part cr wi - ci wr.
    Here -2 circ(I, I) = -2 sum_{i > j} a_i a_j = sum a^2 - (sum a)^2."""
    index = ((a * a).sum(axis=1) - a.sum(axis=1) ** 2) % (2 * n)
    w = _zeta_array(n)[index]
    out = np.empty(len(c), dtype=complex)
    out.real = c.real * w.real + c.imag * w.imag
    out.imag = c.real * w.imag - c.imag * w.real
    out += 0
    return out


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
    [out] = reflect_all((p,))
    return out


def reflect_all(polys) -> list[Polynomial]:
    """[reflect(p) for p in polys], computed on all their terms at once."""
    polys = list(polys)
    if not polys:
        return []
    for q in polys[1:]:
        polys[0]._require_same_space(q)
    n, L = polys[0].order, polys[0].sites
    a = np.concatenate([p.exponents for p in polys])
    keys = (n - a[:, ::-1]) % n
    coeffs = _conjugate_terms(a, np.concatenate([p.coeffs for p in polys]), n)
    ends = np.cumsum([len(p.coeffs) for p in polys]).tolist()
    return [
        Polynomial._from_arrays(keys[start:end], coeffs[start:end], n, L)
        for start, end in zip([0, *ends], ends)
    ]


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
    order = np.lexsort(p.exponents.T[::-1])  # by entries, site 1 first
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


_FACTOR = r"c[0-9]{1,18}\^[0-9]{1,18}"
# The monomial of a term line after its '*': '1', or factors c<site>^<power>
# apart by whitespace.
_MONOMIAL = re.compile(rf"\s*(?:1|{_FACTOR}(?:\s+{_FACTOR})*)")


def _header(line: str) -> tuple[int, int]:
    """n and L of a header line ``# n=.. L=..``."""
    try:
        fields = dict(f.split("=") for f in line[1:].split())
        return int(fields["n"]), int(fields["L"])
    except (KeyError, ValueError):
        raise ValueError("header is not '# n=.. L=..'") from None


def _term_lines(text: str):
    """(line number, line) of every term line, stripped: a ValueError at
    the first line that is neither blank, a comment nor a term after the
    header."""
    header = False
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not header:
                try:
                    _header(line)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                header = True
        elif not header:
            raise ValueError(f"line {lineno}: term before '# n=.. L=..' header")
        else:
            yield lineno, line
    if not header:
        raise ValueError("missing '# n=.. L=..' header")


def _syntax_error(text: str) -> ValueError:
    """The error of the first line that does not parse, read line by line:
    a bad header, a term before it, then per term line a bad coefficient or
    a bad monomial."""
    try:
        for lineno, line in _term_lines(text):
            coeff, _, mono = line.partition("*")
            try:
                complex(coeff)
            except ValueError as exc:
                return ValueError(f"line {lineno}: {exc}")
            if _MONOMIAL.fullmatch(mono) is None:
                return ValueError(f"line {lineno}: bad monomial {mono.strip()!r}")
    except ValueError as exc:
        return exc


def _factors(monomials: bytes) -> tuple[np.ndarray, ...]:
    """(term, site - 1, power) of every factor c<site>^<power> in lines of
    valid monomials, each line ended by a newline: a factor's term is the
    number of newlines before its 'c', its site the digits after the 'c'
    and its power the digits after the '^'."""
    chars = np.frombuffer(monomials, dtype=np.uint8)
    c, ends = np.flatnonzero(chars == ord("c")), np.flatnonzero(chars == ord("\n"))
    starts = np.concatenate([c, np.flatnonzero(chars == ord("^"))]) + 1
    per_term = np.diff(np.searchsorted(c, ends), prepend=0)
    term = np.repeat(np.arange(len(ends)), per_term)
    # Horner's rule on all numbers at once, one digit position per step;
    # every number is followed by a non-digit, where its position stops.
    value = np.zeros(len(starts), dtype=np.int64)
    for _ in range(19):  # at most 18 digits
        digit = chars[starts] - 48  # a non-digit byte wraps to >= 10
        live = digit < 10
        if not live.any():
            break
        np.multiply(value, 10, out=value, where=live)
        np.add(value, digit, out=value, where=live)
        starts += live
    return term, value[:len(c)] - 1, value[len(c):]


def from_text(text: str) -> Polynomial:
    """Inverse of to_text.  Equal monomials on several lines add up.  A
    header or term line that does not parse, a site outside 1..L, an
    exponent outside 0..n-1 or a site written twice in one monomial is a
    ValueError naming the line; lines that do not parse are named first.

    The lines are read in bulk: one ``map(complex, ...)`` over the
    coefficients, one ``map`` of a regular expression over the monomials,
    one numpy pass over their digits.  Only a text that fails is read again
    line by line, to name the line."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or not lines[0].startswith("#"):
        raise _syntax_error(text)
    try:
        n, L = _header(lines[0])
    except ValueError:
        raise _syntax_error(text) from None
    terms = filterfalse(methodcaller("startswith", "#"), lines)
    parts = list(map(str.partition, terms, repeat("*")))
    del lines
    try:
        coeffs = np.fromiter(map(complex, map(itemgetter(0), parts)),
                             dtype=complex, count=len(parts))
    except ValueError:
        raise _syntax_error(text) from None
    if not all(map(_MONOMIAL.fullmatch, map(itemgetter(2), parts))):
        raise _syntax_error(text)
    zero_vector(n, L)  # validates n and L
    term, site, power = _factors(
        "\n".join(chain(map(itemgetter(2), parts), [""])).encode()
    )
    del parts
    K = len(coeffs)
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
        lineno = next(islice(_term_lines(text), int(term[k]), None))[0]
        raise ValueError(f"line {lineno}: {reason}")
    exponents = np.zeros((K, L), dtype=np.int64)
    exponents.ravel()[slot] = power
    first, sums = _merge(_codes(exponents, n), coeffs)
    return Polynomial._from_arrays(exponents[first], sums, n, L)
