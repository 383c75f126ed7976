"""Reflection-positivity verification engine.

Everything here evaluates trace functionals of the form

    f(A, B) = Tr(A theta(B) e^{-H})

against explicit matrices: positivity of f on the diagonal over the
observable algebra of the minus half, Gram positive-semidefiniteness and
the Schwarz inequality (both at the scale 1 + max |G_ab|), Trotter product
approximants of e^{-H}, reflection bounds, the known f(c) counterexample on
the non-gauge-invariant algebra, and loop operator expectations in ground
states.  The conservation law behind the positivity proof is checked
symbolically.

H is gauge invariant, so its matrix is block-diagonal across the n charge
sectors of :mod:`pararp.representation`, and e^{-H} costs one stacked
``matrix_exp`` of n blocks of size dim/n instead of one of size dim, about
n^2 times fewer flops: at n = 4, L = 12 (dim 4096) ``rp-check --samples 4``
takes 6-8 s on a 2-vCPU Xeon host with one BLAS thread, most of it the four
dim-1024 exponentials.  The trace functionals read e^{-H} only as those
blocks; ``boltzmann`` assembles the dense matrix where one is the output
(``decompose``).  ``matrix_exp`` is the degree-13
scaling-and-squaring Pade method in numpy, with its own scaling per block,
so numpy is the one numerical dependency.  Trotter products are computed
blockwise the same way.  Entries of e^{-H} far below ||e^{-H}|| come out
of a cancellation across the sectors and so lose relative accuracy; the
two-site counterexample, where that would show, is computed exactly
without matrices.

Every trace Tr(X theta(Y) e^{-H}) is a sum of monomial traces, each one
lookup in the Weyl table of e^{-H} (``boltzmann_table``, from
``representation.weyl_table`` of the sector blocks), built once per
Boltzmann factor; the partition function is its entry F[0, 0].  The probes
of every functional here (check_rp's structured and random observables,
gram's basis, the pairs of bounds, the one pair of rp_functional) are the
blocks of one ``RowStack`` of exponent rows: they are drawn, reflected and
traced as arrays, every trace of a job in one ``_block_traces`` pass.

Bounds and Trotter products rest on the form H = H_- + H_0 + theta(H_-),
which every ``HamiltonianSpec`` has by construction: the bounds' auxiliary
Hamiltonians are H, so they are Cauchy-Schwarz for the one RP form with
e^{-H}, and H_-, theta(H_-) are commuting observables on disjoint halves, so
e^{-H_-/k} e^{-theta(H_-)/k} is one exponential.

Positivity tolerances are relative: a value v counts as a violation when
it falls below -tol * (1 + |v|).  Aggregate report statistics are stored in
the same normalized units so the report invariant (no violations iff all
aggregates within tolerance) holds exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    Polynomial,
    Side,
    _cmul,
    _conjugate_terms,
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
    sector_matrix,
    to_matrix,
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


class OverflowError_(RuntimeError):
    """Matrix exponential overflowed."""


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
        raise OverflowError_("matrix exponential overflowed")
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


def _sectors(h: Polynomial, rep: Representation) -> np.ndarray:
    """The charge-sector blocks of the matrix of H; ValueError unless H is
    gauge invariant, the one case where they determine it."""
    if not classify(h).observable:
        raise ValueError(
            "Hamiltonian is not gauge invariant: no charge-sector form"
        )
    return sector_blocks(to_matrix(h, rep), rep)


def boltzmann(h: Polynomial, rep: Representation) -> np.ndarray:
    """e^{-H} for a gauge-invariant polynomial H, as one stacked matrix
    exponential over its n charge-sector blocks."""
    return sector_matrix(matrix_exp(-_sectors(h, rep)), rep)


def boltzmann_table(spec: HamiltonianSpec, rep: Representation) -> np.ndarray:
    """The Weyl table of e^{-H}, H = spec.total(), that every trace against
    e^{-H} is read from (``_block_traces``), built from its sector blocks."""
    return weyl_table(matrix_exp(-_sectors(spec.total(), rep)), rep)


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
        return {
            "partition_function": [
                self.partition_function.real,
                self.partition_function.imag,
            ],
            "min_diagonal_real": self.min_diagonal_real,
            "max_diagonal_imag_abs": self.max_diagonal_imag_abs,
            "gram_min_eigenvalue": self.gram_min_eigenvalue,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- probes as one row stack ---------------------------------------------


class RowStack:
    """Polynomials as blocks of one exponent-row array: block u is the terms,
    in order, of rows sum(sizes[:u]) .. sum(sizes[:u + 1]) - 1 of
    ``exponents`` (M, L) and ``coeffs`` (M,).  Probes are drawn, reflected
    and traced as stacks, with no Polynomial per probe.  (A plain class: a
    dataclass would add about 1.5 ms to ``import pararp.cli``.)"""

    __slots__ = ("order", "exponents", "coeffs", "sizes")

    def __init__(self, order: int, exponents, coeffs, sizes):
        self.order, self.exponents = order, exponents
        self.coeffs, self.sizes = coeffs, sizes

    @classmethod
    def of(cls, polys, n: int, L: int) -> "RowStack":
        """The stack of ``polys``, one block each."""
        polys = list(polys)
        if any(p.order != n or p.sites != L for p in polys):
            raise ValueError("polynomials on different algebras")
        return cls(
            n,
            np.concatenate([np.zeros((0, L), dtype=np.int64),
                            *(p.exponents for p in polys)]),
            np.concatenate([np.zeros(0, dtype=complex),
                            *(p.coeffs for p in polys)]),
            np.array([len(p.coeffs) for p in polys], dtype=np.intp),
        )

    @classmethod
    def monomials(cls, exponents: np.ndarray, n: int) -> "RowStack":
        """The monomials C_I, coefficient 1, of the rows I of ``exponents``,
        one block each."""
        k = len(exponents)
        return cls(n, exponents, np.ones(k, dtype=complex),
                   np.ones(k, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.sizes)

    def __add__(self, other: "RowStack") -> "RowStack":
        """The blocks of self, then those of other."""
        return RowStack(
            self.order,
            np.concatenate([self.exponents, other.exponents]),
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.sizes, other.sizes]),
        )

    def reflected(self) -> "RowStack":
        """reflect of every block, on all rows at once."""
        n, a = self.order, self.exponents
        return RowStack(n, (n - a[:, ::-1]) % n,
                        _conjugate_terms(a, self.coeffs, n), self.sizes)


def _minus_head(
    n: int, half: int, rng: np.random.Generator, observable: bool,
    nonzero: bool = False,
) -> list[int]:
    """Uniform exponents on sites 1..half, drawn until they are of degree
    = 0 mod n (``observable``) and nonzero (``nonzero``), as asked: one
    ``rng.integers`` call per try, so the loop defines the seeded stream."""
    while True:
        head = rng.integers(0, n, size=half).tolist()
        if observable and sum(head) % n != 0:
            continue
        if nonzero and not any(head):
            continue
        return head


def random_minus_vector(
    n: int, L: int, rng: np.random.Generator, observable: bool,
    nonzero: bool = False,
) -> ExponentVector:
    """Uniform exponent vector supported on sites 1..L/2, optionally
    conditioned on degree = 0 mod n and/or on being nonzero."""
    half = L // 2
    head = _minus_head(n, half, rng, observable, nonzero)
    return ExponentVector(tuple(head) + (0,) * half, n)


def random_minus_rows(
    n: int, L: int, rng: np.random.Generator, count: int, max_terms: int = 8
) -> RowStack:
    """``count`` draws of random_minus_observable as one stack, from the same
    ``rng`` calls in the same order: per probe the number of terms, then per
    term its exponents and its coefficient.  A repeated monomial adds its
    coefficient to the first one's term, and zero sums are dropped, as the
    dict constructor of Polynomial does."""
    half = L // 2
    heads, coeffs, sizes = [], [], []
    for _ in range(count):
        terms: dict[tuple[int, ...], complex] = {}
        for _ in range(int(rng.integers(1, max_terms + 1))):
            head = tuple(_minus_head(n, half, rng, observable=True))
            terms[head] = terms.get(head, 0) + complex(rng.normal(), rng.normal())
        kept = {head: c for head, c in terms.items() if c != 0}
        heads += kept
        coeffs += kept.values()
        sizes.append(len(kept))
    rows = np.zeros((len(heads), L), dtype=np.int64)
    rows[:, :half] = np.array(heads, dtype=np.int64).reshape(-1, half)
    return RowStack(n, rows, np.array(coeffs, dtype=complex),
                    np.array(sizes, dtype=np.intp))


def random_minus_observable(
    n: int, L: int, rng: np.random.Generator, max_terms: int = 8
) -> Polynomial:
    """Random element of the gauge-invariant minus algebra: up to
    ``max_terms`` observable monomials with standard complex Gaussian
    coefficients."""
    stack = random_minus_rows(n, L, rng, 1, max_terms)
    return Polynomial._from_arrays(stack.exponents, stack.coeffs, n, L)


def minus_rows(n: int, L: int, degrees) -> np.ndarray:
    """Exponent rows of the monomials on sites 1..L/2 of each degree in
    ``degrees``, degree by degree, each degree in lexicographic order."""
    half = L // 2
    heads = np.indices((n,) * half).reshape(half, -1).T
    total = heads.sum(axis=1)
    picked = np.concatenate([np.flatnonzero(total == d) for d in degrees])
    rows = np.zeros((len(picked), L), dtype=np.int64)
    rows[:, :half] = heads[picked]
    return rows


def minus_monomials_of_degree(n: int, L: int, d: int):
    """All exponent vectors on sites 1..L/2 with total degree exactly d."""
    for row in minus_rows(n, L, (d,)).tolist():
        yield ExponentVector(tuple(row), n)


def structured_probes(n: int, L: int) -> tuple[list[str], RowStack]:
    """Identity plus every degree-n monomial on the minus half: their labels
    and their stack."""
    rows = minus_rows(n, L, (0, n))
    labels = ["identity"] + [f"C{tuple(row)}" for row in rows[1:].tolist()]
    return labels, RowStack.monomials(rows, n)


def structured_observables(n: int, L: int) -> list[tuple[str, Polynomial]]:
    """Identity plus every degree-n monomial on the minus half."""
    labels, probes = structured_probes(n, L)
    one = np.ones(1, dtype=complex)
    return [(label, Polynomial._from_arrays(row[None], one, n, L))
            for label, row in zip(labels, probes.exponents)]


# -- trace functionals ----------------------------------------------------


def _block_traces(
    stack: RowStack, x: np.ndarray, y: np.ndarray, rep: Representation,
    table: np.ndarray,
) -> np.ndarray:
    """Tr(X_p Y_p E) for each pair p of blocks X_p = x[p], Y_p = y[p] of
    ``stack``, with ``table`` the Weyl table of E, in one kernel pass.

    Each trace is a bilinear sum of monomial traces Tr(C_s C_t E), each one
    lookup in the table (``pair_traces``), so it costs O(terms_X terms_Y L),
    with no dense matrix of X or Y and no dim^3 product; each sum is taken
    in (term of X, term of Y) order, whatever else the pass holds.
    """
    size = stack.sizes
    offset = np.cumsum(size) - size
    # Pair p contributes size[x[p]] * size[y[p]] term pairs, in row-major
    # order over (term of X, term of Y).
    count = size[x] * size[y]
    owner = np.repeat(np.arange(len(x)), count)
    local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    width = size[y][owner]
    s = offset[x][owner] + local // width
    t = offset[y][owner] + local % width
    traces = pair_traces(rep, stack.exponents, s, t, table)
    out = np.zeros(len(x), dtype=complex)
    np.add.at(out, owner, _cmul(stack.coeffs[s], stack.coeffs[t]) * traces)
    return out


def _compatible_sides(a: Polynomial, b: Polynomial) -> bool:
    sa, sb = classify(a).side, classify(b).side
    if Side.CROSSING in (sa, sb):
        return False
    return sa == sb or Side.SCALAR in (sa, sb)


def rp_functional(
    a: Polynomial,
    b: Polynomial,
    spec: HamiltonianSpec,
    rep: Representation,
) -> complex:
    """f(A, B) = Tr(A theta(B) e^{-H}); linear in A, anti-linear in B."""
    if not _compatible_sides(a, b):
        raise ValueError("A and B must be localized on the same side")
    pair = RowStack.of((a, reflect(b)), rep.order, rep.sites)
    [val] = _block_traces(pair, np.array([0]), np.array([1]), rep,
                          boltzmann_table(spec, rep))
    return complex(val)


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
    checks Re f >= 0 and Im f = 0 (relative tolerance), the symmetric
    equality Tr(A theta(A) e^{-H}) = Tr(theta(A) A e^{-H}), positivity of
    the partition function, and PSD-ness of the structured Gram matrix.
    Every trace is read in one pass over the stack of the probes and their
    reflections.
    """
    n, L = spec.order, spec.sites
    rng = np.random.default_rng(seed)
    table = boltzmann_table(spec, rep)
    violations: list = []

    z = complex(table[0, 0])  # Tr(E) = F[0, 0]
    zscale = 1.0 + abs(z)
    if abs(z.imag) > tol * zscale or z.real <= 0:
        violations.append(["partition_function", z.imag if z.real > 0 else z.real])

    labels, probes = structured_probes(n, L)
    count = len(probes)
    labels += [f"random[{i}]" for i in range(samples)]
    probes += random_minus_rows(n, L, rng, samples)
    # Blocks p < m are the probes A, block m + p is theta(A_p): the pairs
    # give f(A, A) = Tr(A theta(A) E), the symmetric Tr(theta(A) A E), and
    # the Gram matrix of the structured probes.
    m, p, g = len(probes), np.arange(len(probes)), np.arange(count)
    x = np.concatenate([p, m + p, np.repeat(g, count)])
    y = np.concatenate([m + p, p, m + np.tile(g, count)])
    traces = _block_traces(probes + probes.reflected(), x, y, rep, table)

    min_diag = math.inf
    max_imag = 0.0
    for label, val, sym in zip(labels, *traces[:2 * m].reshape(2, -1).tolist()):
        scale = 1.0 + abs(val)
        re_n = val.real / scale
        im_n = abs(val.imag) / scale
        min_diag = min(min_diag, re_n)
        max_imag = max(max_imag, im_n)
        if re_n < -tol:
            violations.append([f"{label}:diagonal_real", re_n])
        if im_n > tol:
            violations.append([f"{label}:diagonal_imag", im_n])
        if abs(val - sym) > tol * scale:
            violations.append([f"{label}:symmetry", abs(val - sym)])

    _, min_eig = _hermitized(traces[2 * m:].reshape(count, count))
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
    spec: HamiltonianSpec,
    rep: Representation,
    basis: RowStack,
) -> tuple[np.ndarray, float]:
    """Hermitized Gram matrix G_ab = f(A_a, A_b) and its normalized minimum
    eigenvalue (divided by 1 + max |G_ab|), over the blocks of ``basis``,
    read in one trace pass."""
    table = boltzmann_table(spec, rep)
    m = len(basis)
    i = np.arange(m)
    g = _block_traces(basis + basis.reflected(), np.repeat(i, m),
                      m + np.tile(i, m), rep, table)
    return _hermitized(g.reshape(m, m))


def _hermitized(g: np.ndarray) -> tuple[np.ndarray, float]:
    gh = (g + g.conj().T) / 2
    scale = 1.0 + float(np.abs(gh).max(initial=0.0))
    min_eig = float(np.linalg.eigvalsh(gh).min()) / scale
    return gh, min_eig


# -- Trotter --------------------------------------------------------------


def trotter_approximant(
    spec: HamiltonianSpec, rep: Representation, k: int
) -> np.ndarray:
    """[(Id - H_0/k) e^{-H_-/k} e^{-theta(H_-)/k}]^k, computed blockwise
    over the charge sectors with e^{-(H_- + theta(H_-))/k} for the commuting
    pair of exponentials."""
    if k < 1:
        raise ValueError("k must be >= 1")
    h0, halves = _trotter_parts(spec, rep)
    return sector_matrix(_trotter_power(h0, matrix_exp(-halves / k), k), rep)


def _trotter_parts(spec: HamiltonianSpec, rep: Representation) -> tuple:
    """The charge-sector blocks of H_0 and of H_- + H_+."""
    halves = sum_polynomials((spec.h_minus, spec.h_plus))
    return _sectors(spec.h_zero, rep), _sectors(halves, rep)


def _trotter_power(h0, e_halves, k: int) -> np.ndarray:
    step = (np.eye(h0.shape[-1], dtype=complex) - h0 / k) @ e_halves
    return np.linalg.matrix_power(step, k)


def trotter_convergence(
    spec: HamiltonianSpec, rep: Representation, ks
) -> dict:
    """Errors ||approximant(k) - e^{-H}|| (Frobenius) and consecutive ratios.

    Everything is computed on the charge-sector blocks, whose stacked
    Frobenius norm is that of the full matrix.  The blocks of H are those of
    H_0 plus those of H_- + H_+, and e^{-(H_- + H_+)/k} is the square of the
    one for 2k whenever 2k is among ``ks``.
    """
    ks = [int(k) for k in ks]
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    h0, halves = _trotter_parts(spec, rep)
    exact = matrix_exp(-(h0 + halves))
    factors: dict[int, np.ndarray] = {}
    for k in sorted(set(ks), reverse=True):
        twice = factors.get(2 * k)
        factors[k] = matrix_exp(-halves / k) if twice is None else twice @ twice
    errors = {
        k: float(np.linalg.norm(_trotter_power(h0, factors[k], k) - exact))
        for k in ks
    }
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
    the bounds are Cauchy-Schwarz for the one RP form f, three traces
    against e^{-H}, read from ``boltzmann_table(spec, rep)``.
    """
    for name, p in (("A", a), ("B", b)):
        sc = classify(p)
        if sc.side not in (Side.PLUS, Side.SCALAR) or not sc.observable:
            raise ValueError(f"{name} must be in the plus observable algebra")

    plus = RowStack.of((a, b), rep.order, rep.sites)
    [out] = _bounds(plus, np.array([0]), np.array([1]), rep,
                    boltzmann_table(spec, rep), tol)
    return out


def sampled_bounds(
    spec: HamiltonianSpec, rep: Representation, samples: int, seed: int,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """rp_bounds_check of the pair A = B = I and of ``samples`` pairs (A, B),
    each the reflection of two fresh random_minus_observable draws, seeded
    by ``seed``: one trace pass for all pairs, then each pair's bounds in
    order, so the first RP-violating pair raises."""
    n, L = spec.order, spec.sites
    rng = np.random.default_rng(seed)
    plus = random_minus_rows(n, L, rng, 2 * samples).reflected()
    plus = RowStack.monomials(np.zeros((1, L), dtype=np.int64), n) + plus
    # Block 0 is the identity, pair 0 is (I, I) and pair k blocks 2k-1, 2k.
    k = np.arange(samples + 1)
    table = boltzmann_table(spec, rep)
    return _bounds(plus, np.maximum(2 * k - 1, 0), 2 * k, rep, table, tol)


def _bounds(plus: RowStack, a, b, rep, table, tol) -> list[dict]:
    """The rp_bounds_check report of each pair of blocks (A, B) =
    (a[p], b[p]) of ``plus``, from f(A, B), f(A, A) and f(B, B) read in one
    trace pass; ValueError at the first f(A, A) or f(B, B) < 0."""
    m = len(plus)
    traces = _block_traces(plus + plus.reflected(), np.concatenate([a, a, b]),
                           m + np.concatenate([b, a, b]), rep, table)

    def norm(val: complex, label: str) -> float:
        if val.real < -tol * (1 + abs(val)):
            raise ValueError(f"H is RP-violating: f({label}, {label}) = {val}")
        return math.sqrt(max(val.real, 0.0))

    z = complex(table[0, 0])  # Tr(e^{-H})
    z_bound = max(z.real, 0.0)
    margin_z = (z_bound - abs(z)) / (1.0 + z_bound)
    out = []
    for f_ab, sq_a, sq_b in zip(*traces.reshape(3, -1).tolist()):
        bound = norm(sq_a, "A") * norm(sq_b, "B")
        margin = (bound - abs(f_ab)) / (1.0 + bound)
        out.append({
            "f_ab": [f_ab.real, f_ab.imag],
            "bound1": bound,
            "bound2": bound,
            "margin1": margin,
            "margin2": margin,
            "partition_margin": margin_z,
            "ok": margin >= -tol and margin_z >= -tol,
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
    ell = 1
    while True:
        k = math.factorial(ell * n - 1)
        # float(k) overflows past 170! (1027 bits); 1 / k rounds once.
        term = 1.0 / k if k.bit_length() < 1024 else 1 / k
        total += term
        if term < 1e-18:
            return total
        ell += 1


def counterexample_reference(n: int) -> complex:
    """Series value omega^{(n-1)/2} S_n Tr(I) for f(c) on two sites."""
    return zeta_power(n, n - 1) * series_sum(n) * n


def _counterexample_sums(n: int, j: int) -> list[Fraction]:
    """The exact rationals r_p, p = 0..n-1, with f(c^j) = sum_p r_p zeta^p
    (see counterexample_f).

    A monomial c_1^a c_2^b is the pair (a, b) mod n, so circ((a, b), (a', b'))
    = b a', a product adds the pairs at phase zeta^{-2 b a'}, and
    theta(c_1^a c_2^b) = zeta^{-2ab} c_1^{-b} c_2^{-a}.  Then c^j theta(c^j)
    is (j, -j) at phase 1, and zeta c theta(c) is (1, -1) at phase zeta, so
    its k-th power is (k, -k) at zeta^{p_k}, p_{k+1} = p_k + 1 - 2 (-k mod n),
    and c^j theta(c^j) times that power is (j + k, -j - k) at
    zeta^{p_k - 2 (-j mod n)(k mod n)}: the identity when k = -j mod n."""
    if not 1 <= j <= n:
        raise ValueError(f"j must be in 1..{n}, got {j}")
    sums: dict[int, Fraction] = defaultdict(Fraction)
    first = None
    p_k = 0
    for k in itertools.count():
        if (j + k) % n == 0:
            # Each term is at most half the previous one, so the ones left
            # out sum to less than 2^-63 of the first.
            term = Fraction(n, math.factorial(k))
            if first is not None and term * 2**64 < first:
                break
            if first is None:
                first = term
            phase = p_k - 2 * (-j % n) * (k % n)
            sums[(phase + n * k) % (2 * n)] += term  # (-1)^k = zeta^{n k}
        p_k += 1 - 2 * (-k % n)
    return [sums[p] - sums[p + n] for p in range(n)]  # zeta^n = -1


def counterexample_f(n: int, j: int) -> complex:
    """f(c^j) = Tr(c^j theta(c^j) e^{-H}) for H = zeta c theta(c), L = 2,
    computed exactly without matrices.

    c^j theta(c^j) H^k is one monomial zeta^{p_k} C_{I_k}, so the term
    (-1)^k Tr(c^j theta(c^j) H^k) / k! of the series is (-1)^k n zeta^{p_k}
    / k! when C_{I_k} is the identity (k = -j mod n) and 0 otherwise.  The
    rationals n / k! are summed exactly per phase mod 2n, and the result is
    rounded once at the end.
    """
    return _rounded(n, _counterexample_sums(n, j))


def _rounded(n: int, sums: list[Fraction]) -> complex:
    """sum_p sums[p] zeta^p, each rational rounded once."""
    parts = [(float(r), zeta_power(n, p)) for p, r in enumerate(sums)]
    return complex(
        math.fsum(r * z.real for r, z in parts),
        math.fsum(r * z.imag for r, z in parts),
    )


def _divmod_monic(num: list[int], den: list[int]) -> tuple[list, list]:
    """Quotient and remainder of integer polynomials, ``den`` monic, the
    coefficients constant term first."""
    rem, top = list(num), len(den) - 1
    quot = [0] * max(len(rem) - top, 0)
    for i in reversed(range(len(quot))):
        quot[i] = lead = rem[i + top]
        for t, coeff in enumerate(den):
            rem[i + t] -= lead * coeff
    return quot, rem[:top]


def _cyclotomic(m: int) -> list[int]:
    """The cyclotomic polynomial Phi_m, constant term first: x^m - 1 divided
    by Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, _ = _divmod_monic(poly, _cyclotomic(d))
    return poly


def is_real_cyclotomic(n: int, coeffs: list[Fraction]) -> bool:
    """Whether sum_p coeffs[p] zeta^p over p < n, with rational coefficients
    and zeta = e^{i pi / n}, is real, decided exactly in Q(zeta).

    With zeta^{-q} = -zeta^{n - q}, twice i times its imaginary part is
    D(zeta) = sum_q (coeffs[q] + coeffs[n - q]) zeta^q over q = 1..n-1, and
    D(zeta) = 0 exactly when Phi_2n, the minimal polynomial of zeta,
    divides D, denominators cleared.
    """
    d = [Fraction(0)] + [coeffs[q] + coeffs[n - q] for q in range(1, n)]
    scale = math.lcm(*(x.denominator for x in d))
    _, rem = _divmod_monic([int(x * scale) for x in d], _cyclotomic(2 * n))
    return not any(rem)


def counterexample_check(
    n: int, j: int, tol: float = DEFAULT_TOL
) -> tuple[bool, complex]:
    """(positive, f(c^j)): f(c^j) is positive when it is exactly real, as
    is_real_cyclotomic decides, and its real part is at least -tol (1 +
    |f|).  A value that is not exactly real is never positive, however
    small it is."""
    sums = _counterexample_sums(n, j)
    val = _rounded(n, sums)
    real = is_real_cyclotomic(n, sums)
    return real and val.real >= -tol * (1.0 + abs(val)), val


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
    report whether it is exactly real and non-negative."""
    return counterexample_check(*family_pair(family, k, jprime), tol=tol)


# -- loop operators and ground states -------------------------------------


def loop_expectation(
    a: Polynomial,
    spec: HamiltonianSpec,
    rep: Representation,
) -> dict:
    """Ground-state expectations of the loop operator W_A = A theta(A).

    Requires a hermitian Hamiltonian and A in the minus observable algebra.
    Reports whether W_A leaves the ground space diagonal (no transitions
    between ground states) and, if so, whether all expectations are
    non-negative.
    """
    herm_tol, ground_tol = 1e-10, 1e-8
    sc = classify(a)
    if sc.side not in (Side.MINUS, Side.SCALAR) or not sc.observable:
        raise ValueError("A must be in the minus observable algebra")
    h = to_matrix(spec.total(), rep)
    h_gap = float(np.linalg.norm(h - h.conj().T))
    if h_gap > herm_tol * (1.0 + float(np.linalg.norm(h))):
        raise ValueError(
            f"Hamiltonian is not hermitian (gap {h_gap:.3e}); unsupported"
        )
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    width = float(evals[-1] - evals[0])
    mask = evals - evals[0] <= ground_tol * max(1.0, width)
    ground = evecs[:, mask]

    w = to_matrix(canonical_product(a, reflect(a)), rep)
    block = ground.conj().T @ w @ ground
    off = block - np.diag(np.diag(block))
    w_scale = 1.0 + float(np.linalg.norm(w))
    w_order = float(np.linalg.norm(off)) <= ground_tol * w_scale
    expectations = [complex(x) for x in np.diag(block)]
    positive = w_order and all(
        x.real >= -ground_tol * w_scale and abs(x.imag) <= ground_tol * w_scale
        for x in expectations
    )
    return {
        "ground_degeneracy": int(mask.sum()),
        "ground_energy": float(evals[0]),
        "w_order": w_order,
        "expectations": [[x.real, x.imag] for x in expectations],
        "positive": positive,
    }
