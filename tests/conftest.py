import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from pararp import rp
from pararp.algebra import (
    _BLOCK, Polynomial, _cmul, _theta, _zeta_array, reflect, sum_polynomials,
    zeta_power,
)
from pararp.exponents import ExponentVector, unit_vector
from pararp.hamiltonian import CouplingRule, SpecError
from pararp.representation import (
    DECOMPOSE_TOL, _digit_sum, build_generators, to_matrix,
)

# build_generators keeps one representation per (n, L) and process.
rep_for = build_generators


@pytest.fixture
def rep():
    return rep_for


def reference_spec(data):
    """H_-, H_0, H_+, H and the coupling rule of a valid parsed spec document
    along the route the spec reader took before it wrote rows into arrays,
    and the coupling dict it read: an ExponentVector per term and key, the
    dict constructor of Polynomial, H_0 from the coupling dict, theta(H_-)
    by reflect, and H = H_- + H_0 + H_+ by one sum_polynomials merge.
    SpecError if H_- or H has a non-finite coefficient."""
    if "baxter" in data:
        n, L = data["baxter"]["n"], data["baxter"]["L"]
        t, half, zeta = data["baxter"]["t"], L // 2, zeta_power(n, 1)
        terms = {}
        for j in range(1, half):
            entries = [0] * L
            entries[j - 1], entries[j] = 1, n - 1
            terms[ExponentVector(tuple(entries), n)] = 0 + -zeta * float(t[j - 1])
        couplings = {unit_vector(n, L, half): -float(t[half - 1])}
    else:
        n, L, terms = data["n"], data["L"], {}
        for term in data.get("h_minus", []):
            vec = ExponentVector(tuple(term["exponents"]), n)
            terms[vec] = terms.get(vec, 0) + complex(*term["coefficient"])
        couplings = {ExponentVector(tuple(entry["exponents"]), n): float(entry["J"])
                     for entry in data.get("couplings", [])}
    h_minus = Polynomial(terms, n, L)
    a = np.array([vec.entries for vec in couplings], dtype=np.int64)
    a = a.reshape(len(couplings), L)
    j = np.fromiter(couplings.values(), dtype=float, count=len(a))
    d = a.sum(axis=1) % (2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        signed = _cmul(np.where(d % 2 == 0, -j, j), _zeta_array(n)[d * d % (2 * n)])
        rows, c = _theta(a, signed.conj(), n)
        h_zero = Polynomial._from_arrays(a + rows, c, n, L)
        h_plus = reflect(h_minus)
        total = sum_polynomials((h_minus, h_zero, h_plus))
    if not all(np.isfinite(p.coeffs).all() for p in (h_minus, total)):
        raise SpecError("H has a non-finite coefficient")
    degrees = [(sum(vec.entries), x) for vec, x in couplings.items()]
    if all(x >= 0 for _, x in degrees):
        rule = CouplingRule.ALL_NONNEG
    elif n % 2 == 0 and all((-1) ** d * x >= 0 for d, x in degrees):
        rule = CouplingRule.EVEN_N_ALTERNATING
    else:
        rule = CouplingRule.NONE
    return (h_minus, h_zero, h_plus, total, rule), couplings


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


def random_blocks(rep, rng):
    """n random charge-sector blocks: those of a dense non-hermitian matrix
    that commutes with the gauge shift T."""
    n, r = rep.order, rep.dim // rep.order
    return rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))


def pair_forms(x, y, rep, table):
    """[f(X_p, X_q)] over the pair (X_0, X_1) = (x, y): the forms of the
    four blocks of the RP matrix over the terms of x, then of y, read with
    rp._forms."""
    ends = np.cumsum([0, len(x.coeffs), len(y.coeffs)])
    spans = np.array([[ends[p], ends[p + 1], ends[q], ends[q + 1]]
                      for p in (0, 1) for q in (0, 1)])
    _, f = rp._forms(np.concatenate([x.exponents, y.exponents]),
                     np.concatenate([x.coeffs, y.coeffs]), spans, rep, table)
    return f.reshape(2, 2)


def general_pair_traces(rep, exponents, s, t, table):
    """Tr(C_s C_t E) for each index pair (s[p], t[p]) into the rows of the
    integer array ``exponents``, any monomials, with ``table`` the Weyl
    table of E: C_s C_t = zeta^{phi_s + phi_t + 2 b_s.a_t}
    X^{a_s (+) a_t} Z^{b_s (+) b_t}, one entry of the table times a root of
    unity, or 0 when s + t has a degree not divisible by n.  The kernel
    that representation.pair_traces replaced, O(L) per pair."""
    n, half, r = rep.order, rep.sites // 2, rep.dim // rep.order
    ab = np.concatenate([exponents @ rep.x_exp, exponents @ rep.z_exp], 1) % n
    weights = np.concatenate([rep.place * r, rep.place % r])
    phi = rep.phases(exponents)
    charge = exponents.sum(axis=1) % n
    w_s, w_t = ab[s], ab[t]
    index = ((w_s + w_t) % n) @ weights
    cross = (w_s[:, half:] * w_t[:, :half]).sum(axis=1)  # b_s.a_t
    phase = (phi[s] + phi[t] + 2 * cross) % (2 * n)
    values = rep.zeta[phase] * table.ravel()[index]
    values[(charge[s] + charge[t]) % n != 0] = 0
    return values


def reference_rp_entries(rep, rows, i, j, table):
    """M_ij = Tr(C_I theta(C_J) E) over the rows I = rows[i], J = rows[j]
    as rp._forms read them before representation.pair_traces took over the
    reflection: general_pair_traces of I and J' = n - reverse(J), times the
    phase w_J of theta(C_J) = w_J C_{J'}."""
    mirror, w = _theta(rows, np.ones(len(rows), dtype=complex), rep.order)
    traces = general_pair_traces(
        rep, np.concatenate([rows, mirror]), i, len(rows) + j, table)
    return w[j] * traces


def dense_sector_blocks(a, rep):
    """The charge-sector blocks of a dense A that commutes with the gauge
    shift, gathered from A's own entries A[T^m o, o'] and transformed over
    m: the reference for representation.sector_blocks, which scatters them
    from the terms of a polynomial."""
    orbit = orbits(rep)
    g = a[orbit[:, :, None], orbit[0]]
    return np.fft.ifft(g, axis=0, norm="forward")


def orbits(rep):
    """The (n, dim/n) array of the state T^m o at [m, o]: the inverse
    permutation of ``rep.orbit_index``."""
    orbit = np.empty(rep.dim, dtype=np.intp)
    orbit[rep.orbit_index] = np.arange(rep.dim)
    return orbit.reshape(rep.order, -1)


def reference_orbit_index(rep):
    """m dim/n + o for each state T^m o, from the orbits built by
    _digit_sum from ``rep.digits``: T^m o adds m to every digit of the
    representative o, one of the states of first digit 0."""
    n, half, r = rep.order, rep.sites // 2, rep.dim // rep.order
    orbit = _digit_sum(n, rep.digits[:, :r], [np.arange(n)[:, None]] * half)
    index = np.empty(rep.dim, dtype=np.intp)
    index[orbit.ravel()] = np.arange(rep.dim)
    return index


def _orbit_sums(n, digits):
    """The (dim, dim/n) array of o (+) a over the states a and the orbit
    representatives o, from ``digits``, those of the states.

    The first digit of o is 0, so o (+) a is a's first digit times dim/n
    plus the digit-wise sum over the f = L/2 - 1 others, and that sum splits
    into one over the first hi and one over the last lo of them: with
    x = x_hi n^lo + x_lo, x (+) y = (x_hi (+) y_hi) n^lo + (x_lo (+) y_lo).
    So two tables of digit sums, one when hi = lo, and one broadcast add
    give it: the table the Weyl plan was built from before it read the
    representatives' own."""
    f = len(digits) - 1
    lo = f // 2
    hi = f - lo

    def table(c):  # k (+) s over the c-digit numbers k, s
        m = n**c
        last = digits[f + 1 - c:, :m]  # the digits of 0 .. m - 1
        return np.reshape(_digit_sum(n, last[:, :, None], last[:, None]), (m, m))

    low = table(lo)
    high = n**lo * (low if hi == lo else table(hi))
    high = np.arange(0, n ** (f + 1), n**f)[:, None, None] + high
    sums = high[:, :, None, :, None] + low[:, None, :]
    return sums.reshape(n ** (f + 1), n**f)


def dense_weyl_table(e, rep):
    """The Weyl table of a dense E that commutes with the gauge shift, from
    the gather D[a, o] = E[o, o (+) a] of E's own entries and the character
    matmuls of representation.weyl_table: the reference for the table read
    from the sector blocks."""
    r = rep.dim // rep.order
    return characters(e[np.arange(r), _orbit_sums(rep.order, rep.digits)], rep)


def reference_weyl_table(blocks, rep):
    """representation.weyl_table with its character factors built on each
    call from ``rep.digits`` and ``rep.zeta``: the reference for the
    factors derived once per representation."""
    n, r = rep.order, rep.dim // rep.order
    a = np.fft.fft(blocks, axis=0, norm="forward")
    m, o = np.divmod(rep.orbit_index[_orbit_sums(n, rep.digits)], r)
    return characters(a[-m % n, np.arange(r), o], rep)


def reference_scatter(p, rep, place, width):
    """The columns k < width of the matrix of p, row k' moved to place[k'],
    as a flat (dim, width) array, each term's rows k (+) a built by
    _digit_sum and summed by add.at in term order, _BLOCK entries at a
    time: the scatter that representation.sector_blocks and to_matrix
    replaced by rows of the Weyl plan and a locator per chunk."""
    n, digits = rep.order, rep.digits[:, :width]
    out = np.zeros(rep.dim * width, dtype=complex)
    step = max(1, _BLOCK // width)
    for start in range(0, len(p.coeffs), step):
        e = p.exponents[start:start + step]
        rows = _digit_sum(n, digits, (e @ rep.x_exp % n).T[:, :, None])
        phase = rep.phases(e)[:, None] + 2 * ((e @ rep.z_exp % n) @ digits)
        values = p.coeffs[start:start + step, None] * rep.zeta[phase % (2 * n)]
        np.add.at(out, place[rows] * width + np.arange(width), values)
    return out


def reference_sector_blocks(p, rep):
    """The charge-sector blocks of a gauge-invariant p by reference_scatter,
    each row T^m o moved to (m, o) by ``orbit_index``."""
    n, r = rep.order, rep.dim // rep.order
    g = reference_scatter(p, rep, rep.orbit_index, r).reshape(n, r, r)
    return np.fft.ifft(g, axis=0, norm="forward")


def reference_to_matrix(p, rep):
    """The dense matrix of p by reference_scatter."""
    return reference_scatter(p, rep, np.arange(rep.dim), rep.dim).reshape(rep.dim, -1)


def reference_plan(rep):
    """The Weyl plan from ``rep.digits`` and ``rep.orbit_index``, as
    weyl_table read it before the plan: (-m mod n, o, o') of
    o (+) a = T^m o', flattened, with o (+) a from _orbit_sums."""
    n, r = rep.order, rep.dim // rep.order
    m, o = np.divmod(rep.orbit_index[_orbit_sums(n, rep.digits)], r)
    return ((-m % n) * r + np.arange(r)) * r + o


def characters(d, rep):
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


def dense_matrix(blocks, rep):
    """The dense dim x dim matrix whose charge-sector blocks are ``blocks``:
    the inverse of representation.sector_blocks, and the dense E that the
    Weyl table and decompose stand for."""
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


def dense_decompose(a, rep):
    """Any dense dim x dim matrix A in the monomial basis: the coefficients
    Tr(C_I^* A) / dim of all n^L = dim^2 monomials above DECOMPOSE_TOL
    (1 + max |A_ij|), from one gather D[a, k] = A[k (+) a, k] and an n-ary
    FFT over the digits of k, in the lexicographic order of I: the
    reference for representation.decompose, which reads the Weyl table of
    the blocks of a matrix that commutes with the gauge shift."""
    n, L, dim = rep.order, rep.sites, rep.dim
    assert a.shape == (dim, dim)
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    half, digits = L // 2, rep.digits
    shifted = a[_digit_sum(n, digits[:, :, None], digits), np.arange(dim)]
    f = np.fft.fftn(shifted.reshape((dim,) + (n,) * half),
                    axes=range(1, half + 1))
    # Every exponent row I, in lexicographic order, at its entry of the
    # table: the shift I.x and the frequency I.z as n-ary numbers.
    exponents = np.indices((n,) * L).reshape(L, -1).T
    place = n ** np.arange(half - 1, -1, -1)
    coeffs = f.ravel()[(exponents @ rep.x_exp % n) @ place * dim
                       + (exponents @ rep.z_exp % n) @ place] / dim
    keep = np.abs(coeffs) > DECOMPOSE_TOL * scale
    exponents = exponents[keep]
    values = coeffs[keep] * rep.zeta[rep.phases(exponents)].conj()
    return Polynomial._from_arrays(exponents, values, n, L)


def dense_trotter(spec, rep, k):
    """[(Id - H_0/k) e^{-H_-/k} e^{-H_+/k}]^k from the dense matrices of
    to_matrix and scipy.linalg.expm of each half: the Trotter reference."""
    h0, hm, hp = (to_matrix(h, rep) for h in
                  (spec.h_zero, spec.h_minus, spec.h_plus))
    step = (
        (np.eye(rep.dim) - h0 / k)
        @ scipy.linalg.expm(-hm / k) @ scipy.linalg.expm(-hp / k)
    )
    return np.linalg.matrix_power(step, k)


def stepped_counterexample_sums(n, j):
    """The sums of f(c^j) with k stepped one at a time: p_{k+1} = p_k + 1 -
    2 (-k mod n), and only k = -j mod n contributes, stopping at the first
    term below 2^-64 of the first one."""
    sums, first, p_k = defaultdict(Fraction), None, 0
    for k in itertools.count():
        if (j + k) % n == 0:
            term = Fraction(n, math.factorial(k))
            if first is not None and term * 2**64 < first:
                break
            first = first or term
            phase = p_k - 2 * (-j % n) * (k % n)
            sums[(phase + n * k) % (2 * n)] += term
        p_k += 1 - 2 * (-k % n)
    return [sums[p] - sums[p + n] for p in range(n)]
