"""Reflection-positivity verification engine.

Everything here evaluates trace functionals of the form

    f(A, B) = Tr(A theta(B) e^{-H})

in the matrix representation: positivity of f on the diagonal over the
observable algebra of the minus half, Gram positive-semidefiniteness and
the Schwarz inequality (both at the scale 1 + max |G_ab|), the errors of
Trotter product approximants of e^{-H}, reflection bounds, and the known
f(c) counterexample on the non-gauge-invariant algebra.  The conservation
law behind the positivity proof is checked symbolically.

H is gauge invariant, so its matrix is block-diagonal across the n charge
sectors of :mod:`pararp.representation`, and H reaches every job only as
those blocks (``sector_blocks``): no job forms a dense H.  e^{-H} is one
stacked ``matrix_exp`` of n blocks of size dim/n, about n^2 times fewer
flops than one of size dim: at n = 4, L = 12 (dim 4096) ``rp-check
--samples 4`` takes 6-8 s on a 2-vCPU Xeon host with one BLAS thread, most
of it the four dim-1024 exponentials.  ``boltzmann`` returns those blocks
of e^{-H}, and no job forms a dense e^{-H} either: the Weyl table
(``boltzmann_table``) and ``decompose`` read the blocks.  ``matrix_exp``
is the degree-13 scaling-and-squaring Pade method in numpy, with its own
scaling per block, so numpy is the one numerical dependency.  Entries of
e^{-H} far below ||e^{-H}|| come out of a cancellation across the sectors
and so lose relative accuracy; the two-site counterexample, where that
would show, is computed exactly without matrices, in closed form: f(c^j)
is one root of unity zeta^p, p = j (n - j) mod 2n, times a positive
rational, so its verdict is the integer test p = 0.

RP reduces to one object (Jaffe-Pedrocchi): the matrix M_IJ =
Tr(C_I theta(C_J) e^{-H}) over the monomials C_I of the minus half
(``rp_matrix``), each entry a root of unity times one lookup in the Weyl
table of e^{-H} (``boltzmann_table``, from the sector blocks), whose entry
F[0, 0] is the partition function, or 0 between different charges
(``representation.pair_traces``).  Every functional here is a form
f(A, B) = a^T M conj(b), a, b the coefficient rows of A, B over the rows
and columns of a block of M.  gram reads M in one pair_traces call on the
grid of its rows; check_rp and bounds build in one pair_traces call the
blocks their forms read (``_forms``): check_rp's structured Gram matrix is M
over the structured monomials, and each random probe, and each bounds pair,
reads M over its own monomials.  Random probes are drawn inside the
gauge-invariant algebra, in three generator calls (``random_minus_rows``).

Bounds and Trotter products rest on the form H = H_- + H_0 + theta(H_-),
which every ``HamiltonianSpec`` has by construction: the bounds' auxiliary
Hamiltonians are H, so they are Cauchy-Schwarz for the one RP form with
e^{-H}, and H_-, theta(H_-) are commuting observables on disjoint halves, so
e^{-H_-/k} e^{-theta(H_-)/k} is one exponential; theta pairs sector q with
-q, so Trotter errors are computed on sectors 0..n/2 only.

Positivity tolerances are relative: a value v counts as a violation when
it falls below -tol * (1 + |v|).  Aggregate report statistics are stored in
the same normalized units so the report invariant (no violations iff all
aggregates within tolerance) holds exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (
    Polynomial,
    Side,
    _codes,
    _merge,
    canonical_product,
    classify,
    omega_power,
    reflect,
    sum_polynomials,
    zeta_power,
)
from .exponents import ExponentVector, degree, unit_vector
from .hamiltonian import CouplingTable, HamiltonianSpec, assemble
from .representation import (
    Representation,
    pair_traces,
    sector_blocks,
    weyl_table,
)

DEFAULT_TOL = 1e-9


# Coefficients b_0 .. b_13 of the [13/13] Pade approximant to e^x, and the
# 1-norm up to which it is accurate to double precision (Higham 2005).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix, or of each matrix in a stack of shape
    (..., m, m): the degree-13 scaling-and-squaring Pade method (Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005).

    Each block A_q gets its own scaling s_q, the least s >= 0 with
    ||A_q / 2^s||_1 <= theta_13, and s_q squarings of the Pade approximant
    r_13(A_q / 2^s_q), so each block of the result is bit-identical to the
    exponential of that block alone; a zero block gives the exact identity.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    shape, m = a.shape, a.shape[-1]
    b, eye = _PADE_13, np.eye(m)
    # An overflow is reported by the finiteness check below, not as a
    # floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.array(a, dtype=complex).reshape(-1, m, m)  # a copy, scaled in place
        # ceil(log2(x)) is the frexp exponent e, less one when x = 2^(e-1).
        frac, exp = np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA_13)
        s = np.maximum(exp - (frac == 0.5), 0)
        a *= np.ldexp(1.0, -s)[:, None, None]
        zero = ~a.any(axis=(1, 2))
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        powers, out, scratch = (a6, a4, a2), np.empty_like(a), np.empty_like(a)
        inner = _pade_sum(powers, b[13::-2], eye, out, scratch)
        u = np.matmul(a, inner, out=scratch)
        v = _pade_sum(powers, b[12::-2], eye, out, a)
        del a2, a4, a6, powers  # each as large as the input: free them for the solve
        p = np.add(v, u, out=a)
        v -= u
        e = np.linalg.solve(v, p)
        e[zero] = eye  # exact where r_13 is off by an ulp
        # Squarings every block takes run on the whole stack, the rest on
        # the blocks that still need them.
        top = s.max(initial=0)
        common = s.min(initial=top)
        for _ in range(common):
            e, p = np.matmul(e, e, out=p), e
        for step in range(common, top):
            more = s > step
            half = e[more]
            e[more] = half @ half
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed")
    return e.reshape(shape)


def _pade_sum(powers, k, eye, out, scratch):
    """x6 (k0 x6 + k1 x4 + k2 x2) + k3 x6 + k4 x4 + k5 x2 + k6 I for powers
    (x6, x4, x2), summed into ``out`` in the order that expression adds its
    terms; ``scratch`` is overwritten."""
    x6, x4, x2 = powers
    np.multiply(k[0], x6, out=scratch)
    scratch += np.multiply(k[1], x4, out=out)
    scratch += np.multiply(k[2], x2, out=out)
    np.matmul(x6, scratch, out=out)
    for c, x in zip(k[3:6], powers):
        out += np.multiply(c, x, out=scratch)
    out += k[6] * eye
    return out


def _pow2(x: np.ndarray) -> float:
    """The power of two s >= 1 at least max |x_ij| (2^1023 at most): x / s
    is exact, and no square of an entry of x / s overflows."""
    exponent = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return math.ldexp(1.0, min(max(exponent, 0), 1023))


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm s ||x / s||, s = _pow2(x): no square overflows."""
    s = _pow2(x)
    return s * float(np.linalg.norm(x / s))


def boltzmann(h: Polynomial, rep: Representation) -> np.ndarray:
    """The (n, dim/n, dim/n) charge-sector blocks of e^{-H} for a
    gauge-invariant polynomial H: one stacked matrix exponential."""
    return matrix_exp(-sector_blocks(h, rep))


def boltzmann_table(spec: HamiltonianSpec, rep: Representation) -> np.ndarray:
    """The Weyl table of e^{-H}, H = spec.total(), that every trace against
    e^{-H} is read from (``rp_matrix``), built from its sector blocks."""
    return weyl_table(boltzmann(spec.total(), rep), rep)


@dataclass
class RPReport:
    """Structured verification result.

    ``min_diagonal_real`` and ``max_diagonal_imag_abs`` are normalized by
    1 + |f(A, A)| per sample; ``gram_min_eigenvalue`` by 1 + max |G_ab|.
    """

    partition_function: complex
    min_diagonal_real: float
    max_diagonal_imag_abs: float
    gram_min_eigenvalue: float
    samples: int
    seed: int
    tolerance: float
    violations: list = field(default_factory=list)

    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        z = self.partition_function
        return {**asdict(self), "partition_function": [z.real, z.imag]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- probes -----------------------------------------------------------------


def _minus_draw(n: int, L: int, rng: np.random.Generator, size: int,
                observable: bool) -> np.ndarray:
    """``size`` uniform exponent rows on sites 1..L/2 in one ``rng.integers``
    call; with ``observable``, uniform over the n^{L/2-1} rows of degree = 0
    mod n: free digits on sites 1..L/2-1, the last minus their sum mod n."""
    free = L // 2 - observable
    rows = np.zeros((size, L), dtype=np.int64)
    rows[:, :free] = rng.integers(0, n, size=(size, free))
    if observable:
        rows[:, free] = -rows.sum(axis=1) % n
    return rows


def random_minus_vector(
    n: int, L: int, rng: np.random.Generator, observable: bool,
    nonzero: bool = False,
) -> ExponentVector:
    """Uniform exponent vector supported on sites 1..L/2, optionally
    conditioned on degree = 0 mod n and/or on being nonzero."""
    if observable and nonzero and L < 4:
        raise ValueError("the identity is the only observable monomial at L = 2")
    while True:
        row = _minus_draw(n, L, rng, 1, observable)[0].tolist()
        if not nonzero or any(row):
            return ExponentVector(tuple(row), n)


def random_minus_rows(
    n: int, L: int, rng: np.random.Generator, count: int, max_terms: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random elements of the gauge-invariant minus algebra as the
    exponent rows (T, L), coefficients (T,) and probe index (T,) of all
    their terms, in three ``rng`` calls: term counts in 1..max_terms,
    observable monomials (``_minus_draw``), standard complex Gaussian
    coefficients.  A probe may repeat a monomial; its form is unchanged."""
    sizes = rng.integers(1, max_terms + 1, size=count)
    rows = _minus_draw(n, L, rng, int(sizes.sum()), observable=True)
    coeffs = rng.normal(size=(len(rows), 2)).view(complex)[:, 0]
    return rows, coeffs, np.repeat(np.arange(count), sizes)


def random_minus_observable(
    n: int, L: int, rng: np.random.Generator, max_terms: int = 8
) -> Polynomial:
    """Random element of the gauge-invariant minus algebra: up to
    ``max_terms`` observable monomials with standard complex Gaussian
    coefficients (random_minus_rows, repeated monomials merged)."""
    rows, coeffs, _ = random_minus_rows(n, L, rng, 1, max_terms)
    first, sums = _merge(_codes(rows, n), coeffs)
    return Polynomial._from_arrays(rows[first], sums, n, L)


@lru_cache(maxsize=64)
def minus_rows(n: int, L: int, degrees) -> np.ndarray:
    """Exponent rows of the monomials on sites 1..L/2 of each degree in the
    tuple or range ``degrees``, degree by degree, each degree in
    lexicographic order: one read-only array per argument and process."""
    half = L // 2
    heads = np.indices((n,) * half).reshape(half, -1).T
    total = heads.sum(axis=1)
    picked = np.concatenate([np.flatnonzero(total == d) for d in degrees])
    rows = np.zeros((len(picked), L), dtype=np.int64)
    rows[:, :half] = heads[picked]
    rows.flags.writeable = False
    return rows


def minus_monomials_of_degree(n: int, L: int, d: int):
    """All exponent vectors on sites 1..L/2 with total degree exactly d."""
    for row in minus_rows(n, L, (d,)).tolist():
        yield ExponentVector(tuple(row), n)


@lru_cache(maxsize=64)
def structured_probes(n: int, L: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Identity plus every degree-n monomial on the minus half: their labels
    and their read-only exponent rows, built once per (n, L) and process."""
    rows = minus_rows(n, L, (0, n))
    labels = ("identity", *(f"C{tuple(row)}" for row in rows[1:].tolist()))
    return labels, rows


def structured_observables(n: int, L: int) -> list[tuple[str, Polynomial]]:
    """Identity plus every degree-n monomial on the minus half."""
    labels, rows = structured_probes(n, L)
    one = np.ones(1, dtype=complex)
    return [(label, Polynomial._from_arrays(row[None], one, n, L))
            for label, row in zip(labels, rows)]


# -- the RP matrix and its forms ------------------------------------------


def rp_matrix(rows, rep: Representation, table: np.ndarray) -> np.ndarray:
    """M_IJ = Tr(C_I theta(C_J) E) over the rows I, J of the (k, L) array
    ``rows`` of exponents on the minus half (ValueError otherwise), with
    ``table`` the Weyl table of E: one ``pair_traces`` call on the grid of
    the rows.  M_IJ = 0 unless deg I = deg J mod n: M is block-diagonal by
    charge, and M^{(d)} is its block over the rows of charge d.

    f(A, B) = Tr(A theta(B) E) is linear in A and anti-linear in B, so for
    A, B with coefficient rows a, b over ``rows``, f(A, B) = a^T M conj(b).
    """
    grid = np.arange(len(rows))
    return pair_traces(rep, rows, grid[:, None], grid, table)


def _forms(rows, coeffs, spans, rep: Representation, table) -> tuple:
    """(m, f): the entries m = M_ij of rp_matrix over ``rows`` in the block
    i0 <= i < i1, j0 <= j < j1 for each row (i0, i1, j0, j1) of ``spans``,
    block by block and row-major, in one ``pair_traces`` call; and per
    block f(X, Y) = x^T M conj(y), X and Y the sums of coeffs[r] C_{rows[r]}
    over its rows and over its columns."""
    h, w = spans[:, 1] - spans[:, 0], spans[:, 3] - spans[:, 2]
    block = np.repeat(np.arange(len(spans)), h * w)
    e = np.arange(len(block)) - (np.cumsum(h * w) - h * w)[block]
    i, j = spans[block, 0] + e // w[block], spans[block, 2] + e % w[block]
    m = pair_traces(rep, rows, i, j, table)
    terms = coeffs[i] * m * coeffs[j].conj()
    return m, (np.bincount(block, terms.real, len(spans))
               + 1j * np.bincount(block, terms.imag, len(spans)))


def check_rp(
    spec: HamiltonianSpec,
    rep: Representation,
    samples: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> RPReport:
    """Sample the diagonal of f over the minus observable algebra.

    Evaluates f(A, A) on a structured set (identity and all degree-n
    monomials on the minus half) and on ``samples`` random observables,
    checks Re f >= 0 and Im f = 0 (relative tolerance), positivity of the
    partition function, and PSD-ness of the structured Gram matrix.  All of
    them are forms on one RP matrix M over the monomials the probes use.
    """
    n, L = spec.order, spec.sites
    rng = np.random.default_rng(seed)
    table = boltzmann_table(spec, rep)
    violations: list = []

    z = complex(table[0, 0])  # Tr(E) = F[0, 0]
    if abs(z.imag) > tol * (1.0 + abs(z)) or z.real <= 0:
        violations.append(["partition_function", z.imag if z.real > 0 else z.real])

    structured, rows = structured_probes(n, L)
    terms, coeffs, owner = random_minus_rows(n, L, rng, samples)
    # Structured probes are monomials: their Gram matrix is M over them.  A
    # random probe reads f(A, A) from M over its own terms, rows [s, e).
    c = len(rows)
    ends = c + np.searchsorted(owner, np.arange(samples + 1))
    spans = np.concatenate([[[0, c, 0, c]], np.stack([ends[:-1], ends[1:]] * 2, 1)])
    m, f = _forms(np.concatenate([rows, terms]),
                  np.concatenate([np.ones(c), coeffs]), spans, rep, table)
    gram = m[:c * c].reshape(c, c)
    diagonal = np.concatenate([gram.diagonal(), f[1:]])

    min_diag, max_imag = math.inf, 0.0
    for i, val in enumerate(diagonal.tolist()):
        scale = 1.0 + abs(val)
        re_n, im_n = val.real / scale, abs(val.imag) / scale
        min_diag = min(min_diag, re_n)
        max_imag = max(max_imag, im_n)
        if re_n < -tol or im_n > tol:  # a label only for a violation
            label = structured[i] if i < c else f"random[{i - c}]"
            if re_n < -tol:
                violations.append([f"{label}:diagonal_real", re_n])
            if im_n > tol:
                violations.append([f"{label}:diagonal_imag", im_n])

    _, min_eig = _hermitized(gram)
    if min_eig < -tol:
        violations.append(["gram", min_eig])

    return RPReport(
        partition_function=z,
        min_diagonal_real=min_diag,
        max_diagonal_imag_abs=max_imag,
        gram_min_eigenvalue=min_eig,
        samples=samples,
        seed=seed,
        tolerance=tol,
        violations=violations,
    )


def gram_psd(
    spec: HamiltonianSpec, rep: Representation, basis: np.ndarray
) -> tuple[np.ndarray, float]:
    """Hermitized Gram matrix G_ab = f(C_a, C_b) = M_ab over the monomials
    of the exponent rows ``basis`` on the minus half, and its normalized
    minimum eigenvalue (divided by 1 + max |G_ab|)."""
    return _hermitized(rp_matrix(basis, rep, boltzmann_table(spec, rep)))


def _hermitized(g: np.ndarray) -> tuple[np.ndarray, float]:
    gh = (g + g.conj().T) / 2
    scale = 1.0 + float(np.abs(gh).max(initial=0.0))
    min_eig = float(np.linalg.eigvalsh(gh).min()) / scale
    return gh, min_eig


# -- Trotter --------------------------------------------------------------


def trotter_convergence(
    spec: HamiltonianSpec, rep: Representation, ks
) -> dict:
    """Errors ||[(1 - H_0/k) e^{-(H_- + H_+)/k}]^k - e^{-H}|| (Frobenius)
    and consecutive ratios.

    Everything is computed on the charge-sector blocks q = 0..n/2: theta is
    an antiunitary that fixes H_0 and H_- + H_+ and maps sector q onto -q,
    so the error is sqrt(sum_q w_q ||block q||^2), w_q = 1 when 2q = 0 mod
    n and 2 otherwise.  The blocks of H are those of H_0 plus those of
    H_- + H_+, and e^{-(H_- + H_+)/k} is the square of the one for 2k
    whenever 2k is among ``ks``.  Errors are taken in units of ``_pow2``.
    """
    ks = [int(k) for k in ks]
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    q = np.arange(rep.order // 2 + 1)
    weights = np.where(2 * q % rep.order, 2.0, 1.0)
    h0 = sector_blocks(spec.h_zero, rep)[q]
    halves = sector_blocks(sum_polynomials((spec.h_minus, spec.h_plus)), rep)[q]
    exact = matrix_exp(-(h0 + halves))
    factors: dict[int, np.ndarray] = {}
    for k in sorted(set(ks), reverse=True):
        twice = factors.get(2 * k)
        factors[k] = matrix_exp(-halves / k) if twice is None else twice @ twice
    eye, errors = np.eye(h0.shape[-1], dtype=complex), {}
    for k in ks:
        diff = np.linalg.matrix_power((eye - h0 / k) @ factors[k], k) - exact
        s = _pow2(diff)
        errors[k] = s * math.sqrt(
            weights @ np.linalg.norm(diff / s, axis=(1, 2)) ** 2)
    ks_sorted = sorted(errors)
    ratios = {
        int(k): errors[k] / errors[k2] if errors[k2] > 0 else math.inf
        for k, k2 in zip(ks_sorted, ks_sorted[1:])
        if 2 * k == k2
    }
    return {"errors": errors, "ratios": ratios}


# -- conservation law and rearrangement ----------------------------------


def conservation_law_check(
    rep: Representation,
    n: int,
    L: int,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Sample tuples (I_1, ..., I_k) on the minus half with random
    observables A, B_j, and verify:

    * the rearrangement identity
      A theta(A) prod_j [C_{I_j} theta(C_{I_j}) B_j theta(B_j)]
      = omega^{sum_{j<j'} |I_j||I_j'|} (A D) theta(A D)
      with D = prod_j C_{I_j} B_j, compared as polynomials;
    * Tr((A D) theta(A D)) = 0 whenever sum_j |I_j| != 0 mod n.

    Both sides are polynomials, and Tr(C_I^* C_J) = dim delta_IJ: the
    Frobenius norm of an operator is sqrt(dim) ||coeffs||_2, and its trace
    dim times its constant term, exactly 0 at a forbidden degree.  Gaps are
    normalized by the size of the operators involved.
    """
    rng = np.random.default_rng(seed)
    max_phase_gap = 0.0
    max_forbidden_trace = 0.0
    forbidden = 0

    def norm(p: Polynomial) -> float:
        return math.sqrt(rep.dim) * float(np.linalg.norm(p.coeffs))

    for _ in range(trials):
        k = int(rng.integers(1, 4))
        i_vecs = [
            random_minus_vector(n, L, rng, observable=False, nonzero=True)
            for _ in range(k)
        ]
        a = random_minus_observable(n, L, rng, max_terms=3)
        bs = [random_minus_observable(n, L, rng, max_terms=2) for _ in range(k)]

        d = Polynomial.identity(n, L)
        lhs = canonical_product(a, reflect(a))
        for vec, b in zip(i_vecs, bs):
            c_i = Polynomial.monomial(1.0, vec)
            for x in (c_i, reflect(c_i), b, reflect(b)):
                lhs = canonical_product(lhs, x)
            d = canonical_product(d, canonical_product(c_i, b))

        ad = canonical_product(a, d)
        ad_tad = canonical_product(ad, reflect(ad))
        degs = [degree(v) for v in i_vecs]
        phase_exp = sum(
            degs[j] * degs[jp] for j in range(k) for jp in range(j + 1, k)
        )
        rhs = omega_power(n, phase_exp) * ad_tad
        scale = 1.0 + norm(lhs) + norm(rhs)
        max_phase_gap = max(max_phase_gap, norm(lhs - rhs) / scale)

        if sum(degs) % n != 0:
            forbidden += 1
            tr = abs(rep.dim * ad_tad.constant_term())
            tscale = 1.0 + norm(ad) ** 2  # ||theta(X)|| = ||X||
            max_forbidden_trace = max(max_forbidden_trace, tr / tscale)

    return {
        "trials": trials,
        "forbidden_degree_tuples": forbidden,
        "max_phase_identity_gap": max_phase_gap,
        "max_forbidden_trace": max_forbidden_trace,
    }


# -- reflection bounds ----------------------------------------------------


def rp_bounds_check(
    a: Polynomial,
    b: Polynomial,
    spec: HamiltonianSpec,
    rep: Representation,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Check |f(A, B)| <= ||A||_- ||B||_+ and |f(A, B)| <= ||A||_+ ||B||_-
    for A, B in the plus observable algebra, plus the A = B = I partition
    function bound.

    Both auxiliary Hamiltonians are H, so ||A||_-^2 = ||A||_+^2 = f(A, A):
    the bounds are Cauchy-Schwarz for the one RP form f (see _pair_bounds).
    """
    for name, p in (("A", a), ("B", b)):
        sc = classify(p)
        if sc.side not in (Side.PLUS, Side.SCALAR) or not sc.observable:
            raise ValueError(f"{name} must be in the plus observable algebra")

    ta, tb = reflect(a), reflect(b)
    k = len(ta.coeffs)
    return _pair_bounds(np.concatenate([ta.exponents, tb.exponents]),
                        np.concatenate([ta.coeffs, tb.coeffs]),
                        np.array([[0, k]]), np.array([[k, k + len(tb.coeffs)]]),
                        spec, rep, tol)[0]


def sampled_bounds(
    spec: HamiltonianSpec, rep: Representation, samples: int, seed: int,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """rp_bounds_check of the pair A = B = I and of ``samples`` pairs (A, B),
    each the reflection of two fresh random_minus_observable draws, seeded
    by ``seed``: the blocks of M they read in one call, then each pair's
    bounds in order, not ok where f(A, A) or f(B, B) < 0 (see _pair_bounds)."""
    n, L = spec.order, spec.sites
    rng = np.random.default_rng(seed)
    terms, coeffs, owner = random_minus_rows(n, L, rng, 2 * samples)
    # Row 0 is the identity, A = B = I at pair 0; pair k holds theta(A),
    # theta(B), draws 2k - 2, 2k - 1.
    ends = 1 + np.searchsorted(owner, np.arange(2 * samples + 1))
    a = np.concatenate([[[0, 1]], np.stack([ends[:-1:2], ends[1::2]], 1)])
    b = np.concatenate([[[0, 1]], np.stack([ends[1::2], ends[2::2]], 1)])
    return _pair_bounds(np.concatenate([np.zeros((1, L), dtype=np.int64), terms]),
                        np.concatenate([[1], coeffs]), a, b, spec, rep, tol)


def _pair_bounds(rows, coeffs, a, b, spec: HamiltonianSpec,
                 rep: Representation, tol: float) -> list[dict]:
    """The rp_bounds_check report of each pair k of plus observables
    (A, B), with theta(A) and theta(B) the sums of coeffs[r] C_{rows[r]}
    over the row spans a[k] and b[k]: f(A, B), f(A, A), f(B, B) are the
    forms of the blocks (b, a), (a, a), (b, b) of M, all read in one _forms
    call, and z = Tr(e^{-H}).  A pair with f(A, A) or f(B, B) below
    -tol (1 + |f|) violates RP: it is not ok, and that norm counts as 0.
    A and theta(B), gauge invariant on disjoint halves, commute, so
    f(A, B) = Tr(theta(B) A E) is read as f(theta(B), theta(A))."""
    table = boltzmann_table(spec, rep)
    _, f = _forms(rows, coeffs,
                  np.concatenate([b, a, a, a, b, b], 1).reshape(-1, 4), rep, table)
    z = complex(table[0, 0])
    z_bound = max(z.real, 0.0)
    margin_z = (z_bound - abs(z)) / (1.0 + z_bound)
    out = []
    for f_ab, sq_a, sq_b in f.reshape(-1, 3).tolist():
        bound = math.sqrt(max(sq_a.real, 0.0)) * math.sqrt(max(sq_b.real, 0.0))
        margin = (bound - abs(f_ab)) / (1.0 + bound)
        positive = all(v.real >= -tol * (1 + abs(v)) for v in (sq_a, sq_b))
        out.append({
            "f_ab": [f_ab.real, f_ab.imag],
            "bound1": bound,
            "bound2": bound,
            "margin1": margin,
            "margin2": margin,
            "partition_margin": margin_z,
            "ok": positive and margin >= -tol and margin_z >= -tol,
        })
    return out


# -- the section-7 counterexample and positivity families -----------------


def crossing_only_spec(n: int) -> HamiltonianSpec:
    """H = H_0 = zeta * c theta(c) on two sites (J = 1, degree 1)."""
    couplings = CouplingTable({unit_vector(n, 2, 1): 1.0})
    return assemble(Polynomial.zero(n, 2), couplings)


def series_sum(n: int) -> float:
    """S_n = sum_{l >= 1} 1 / (l n - 1)!, truncated below 1e-18.

    S_2 = sinh(1); for n > 2 this generalizes the closed form."""
    total = 0.0
    # float(k) overflows past 170! (1027 bits); 1 / k rounds once, to 0.0
    # from 178! > 2^1076 on, so no larger factorial is built.
    for k in map(math.factorial, range(n - 1, 178, n)):
        term = 1.0 / k if k.bit_length() < 1024 else 1 / k
        total += term
        if term < 1e-18:
            break
    return total


def counterexample_reference(n: int) -> complex:
    """Series value omega^{(n-1)/2} S_n Tr(I) for f(c) on two sites."""
    return zeta_power(n, n - 1) * series_sum(n) * n


def _counterexample_sums(n: int, j: int) -> tuple[int, int, Fraction]:
    """(k0, p, s) with f(c^j) = n zeta^p s / k0!, k0 = -j mod n, p = j (n - j)
    mod 2n and s = sum_t k0! / (k0 + t n)! > 0 (see counterexample_f).

    A monomial c_1^a c_2^b is the pair (a, b) mod n, so circ((a, b), (a', b'))
    = b a', a product adds the pairs at phase zeta^{-2 b a'}, and
    theta(c_1^a c_2^b) = zeta^{-2ab} c_1^{-b} c_2^{-a}.  Then c^j theta(c^j)
    is (j, -j) at phase 1, and zeta c theta(c) is (1, -1) at phase zeta, so
    its k-th power is (k, -k) at zeta^{p_k}, p_{k+1} = p_k + 1 - 2 (-k mod n),
    and c^j theta(c^j) times that power is (j + k, -j - k) at
    zeta^{p_k - 2 (-j mod n)(k mod n)}: the identity when k = k0 + t n.
    With (-1)^k = zeta^{n k}, the term k has the phase -k0 (k0 + n) = j (n - j)
    mod 2n: stepping k by n adds n (2 - n) to p_k and n^2 to n k, 2n in all.
    Each term is at most half the previous, so those with k! / k0! > 2^64,
    dropped, sum to below 2^-63 of the first, and s <= 2."""
    if not 1 <= j <= n:
        raise ValueError(f"j must be in 1..{n}, got {j}")
    k0 = -j % n
    s, k, ratio = Fraction(0), k0, 1  # ratio = k! / k0!
    while ratio <= 2**64:
        s += Fraction(1, ratio)
        for factor in range(k + 1, k + n + 1):
            ratio *= factor
            if ratio > 2**64:
                break
        k += n
    return k0, j * (n - j) % (2 * n), s


def counterexample_f(n: int, j: int) -> complex:
    """f(c^j) = Tr(c^j theta(c^j) e^{-H}) for H = zeta c theta(c), L = 2,
    computed exactly without matrices.

    c^j theta(c^j) H^k is one monomial zeta^{p_k} C_{I_k}, so the term
    (-1)^k Tr(c^j theta(c^j) H^k) / k! of the series is (-1)^k n zeta^{p_k}
    / k! when C_{I_k} is the identity (k = -j mod n) and 0 otherwise.  Every
    such term has the same phase zeta^p, so f(c^j) is zeta^p times the
    rational n s / k0!, summed exactly and rounded once at the end.
    """
    return _rounded(n, *_counterexample_sums(n, j))


def _rounded(n: int, k0: int, p: int, s: Fraction) -> complex:
    """n zeta^p s / k0!, the rational rounded once, zeta^p as zeta^{p mod n}
    with its sign.  s <= 2, so once k0! > n 2^1076 the rational rounds to
    zero: no larger factorial is built."""
    f = 1
    for factor in range(2, k0 + 1):
        f *= factor
        if f > n << 1076:
            return 0j
    r = float(Fraction(n, f) * (s if p < n else -s))
    z = zeta_power(n, p % n)
    # + 0.0: a zero part reads 0.0, never -0.0.
    return complex(r * z.real + 0.0, r * z.imag + 0.0)


def counterexample_check(n: int, j: int) -> tuple[bool, complex]:
    """(positive, f(c^j)), decided in integers: f(c^j) = n zeta^p s / k0!
    with s > 0, so it is real exactly when p = 0 mod n, that is when n
    divides j^2, and positive exactly when p = 0 mod 2n."""
    k0, p, s = _counterexample_sums(n, j)
    return p == 0, _rounded(n, k0, p, s)


FAMILY_DESCRIPTIONS = {
    1: "n = k^3, j = k^2",
    2: "n = 2 k^2, j = 2 k j' with 1 <= j' < k",
    3: "n = k^2, j = j' k with k odd and 1 <= j' < k",
}


def family_pair(family: int, k: int, jprime: int | None = None) -> tuple[int, int]:
    """Resolve a (family, k, j') triple into the pair (n, j)."""
    if family == 1:
        if k < 1:
            raise ValueError("family 1 needs k >= 1")
        return k**3, k**2
    if family == 2:
        if jprime is None or not 1 <= jprime < k:
            raise ValueError("family 2 needs 1 <= j' < k")
        return 2 * k**2, 2 * k * jprime
    if family == 3:
        if k % 2 == 0:
            raise ValueError("family 3 needs odd k")
        if jprime is None or not 1 <= jprime < k:
            raise ValueError("family 3 needs 1 <= j' < k")
        return k**2, jprime * k
    raise ValueError(f"unknown family {family}")


def family_check(
    family: int,
    k: int,
    jprime: int | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, complex]:
    """Evaluate f(c^j) for one of the known positive (n, j) families and
    report whether it is exactly positive.  ``tol`` is not read: the verdict
    is exact."""
    return counterexample_check(*family_pair(family, k, jprime))

