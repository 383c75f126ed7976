"""Charge sectors of the gauge shift, the sectored Boltzmann factor, the
exact two-site counterexample and the CLI reports built on them.

The gauge shift T = tau (x) ... (x) tau is built here with numpy.kron, and
every sectored result is compared with the dense computation it replaces:
scipy.linalg.expm of the full matrix, dense Trotter products, and CLI
reports with the sector transforms switched off.
"""

import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from pararp import cli, rp
from pararp.algebra import (
    Polynomial, adjoint, canonical_product, sum_polynomials, zeta_power,
)
from pararp.exponents import ExponentVector, unit_vector
from pararp.hamiltonian import CouplingTable, assemble, baxter, spec_from_dict
from pararp.representation import (
    build_generators,
    decompose,
    sector_blocks,
    to_matrix,
    verify_yamazaki,
)

from conftest import (
    clock_shift, dense_decompose, dense_matrix, dense_sector_blocks,
    dense_trotter, dense_weyl_table, orbits, random_blocks, rep_for,
    stepped_counterexample_sums,
)

# Every (n, L) with n in 2..5 and dim = n^{L/2} <= 256, L = 2 included.
CELLS = [
    (n, L)
    for n in range(2, 6)
    for L in range(2, 17, 2)
    if n ** (L // 2) <= 256
]
# The cells of the benchmark's rp_suite workload.
RP_CELLS = [(2, 8), (3, 6), (2, 10), (4, 6), (3, 8), (2, 12), (5, 6),
            (2, 14), (3, 10)]


def gauge_shift(n, L):
    """T = tau^{(x) L/2} as a dense matrix."""
    _, tau = clock_shift(n)
    return reduce(np.kron, [tau] * (L // 2), np.eye(1))


def minus_vector(n, L, rng, observable):
    """A random nonzero exponent vector on the minus half, of degree 0
    mod n if ``observable`` (there is none at L = 2)."""
    half = L // 2
    while True:
        entries = [int(x) for x in rng.integers(0, n, size=half)] + [0] * half
        if observable:
            entries[half - 1] = (entries[half - 1] - sum(entries)) % n
        if any(entries):
            return ExponentVector(tuple(entries), n)


def general_spec(n, L, rng):
    """A gauge-invariant H from random complex minus terms and crossing
    couplings; its minus part is not hermitian, so neither is H (at L = 2
    the crossing terms alone make it so)."""
    h_minus = Polynomial(
        {minus_vector(n, L, rng, True): complex(*rng.normal(0, 0.5, size=2))
         for _ in range(3 if L > 2 else 0)},
        n, L,
    )
    couplings = CouplingTable(
        {minus_vector(n, L, rng, False): abs(rng.normal()) for _ in range(2)}
    )
    return assemble(h_minus, couplings)


def baxter_spec(n, L, rng):
    side = list(rng.uniform(0.5, 1.5, size=L // 2 - 1))
    return baxter(n, L, side + [-rng.uniform(0.2, 1.0)] + side[::-1])


def random_invariant(n, L, rng, terms=6):
    """A random polynomial whose every term has degree 0 mod n, spread over
    both halves of the chain."""
    out = {}
    for _ in range(terms):
        entries = [int(x) for x in rng.integers(0, n, size=L)]
        entries[-1] = (entries[-1] - sum(entries)) % n
        out[ExponentVector(tuple(entries), n)] = complex(*rng.normal(size=2))
    return Polynomial(out, n, L)


def scaled_gap(got, ref):
    return float(np.abs(got - ref).max() / (1 + np.abs(ref).max()))


# -- the gauge shift and its orbits ------------------------------------------


@pytest.mark.parametrize("n,L", CELLS)
def test_gauge_shift_scales_generators_and_has_orbits_of_n(n, L):
    rep = rep_for(n, L)
    t = gauge_shift(n, L)
    omega = np.exp(2j * np.pi / n)
    for c in rep.generators:
        assert np.abs(t @ c @ t.conj().T - c / omega).max() < 1e-12
    # orbit[m, o] is T^m o, with o running over the states of first digit 0.
    r = rep.dim // n
    orbit = orbits(rep)
    assert orbit.shape == (n, r)
    assert orbit[0].tolist() == list(range(r))
    power = np.eye(rep.dim)
    for m in range(n):
        assert power[:, :r].argmax(axis=0).tolist() == orbit[m].tolist()
        power = t @ power
    # n distinct states per orbit, and the orbits partition the states.
    assert sorted(orbit.ravel().tolist()) == list(range(rep.dim))
    assert (rep.orbit_index[orbit.ravel()] == np.arange(rep.dim)).all()


# -- sector_blocks ----------------------------------------------------------------


@pytest.mark.parametrize("n,L", CELLS)
def test_round_trip_parseval_and_products(n, L):
    rng = np.random.default_rng(7 * n + L)
    rep = rep_for(n, L)
    p, q = random_invariant(n, L, rng), random_invariant(n, L, rng)
    a = to_matrix(p, rep)
    blocks_a, blocks_b = sector_blocks(p, rep), sector_blocks(q, rep)
    assert blocks_a.shape == (n, rep.dim // n, rep.dim // n)
    assert scaled_gap(dense_matrix(blocks_a, rep), a) < 1e-13
    parseval = (np.abs(blocks_a) ** 2).sum()
    assert abs(parseval - (np.abs(a) ** 2).sum()) < 1e-12 * parseval
    # The block map is an algebra homomorphism: the blocks of AB are the
    # products of the blocks, and the blocks of A^* their adjoints.
    assert scaled_gap(sector_blocks(canonical_product(p, q), rep),
                      blocks_a @ blocks_b) < 1e-12
    assert scaled_gap(
        sector_blocks(adjoint(p), rep), blocks_a.conj().transpose(0, 2, 1),
    ) < 1e-12
    # Block q is the action on the eigenspace of T with eigenvalue omega^-q:
    # a T-eigenvector rebuilt from block q's coordinates.
    t, orbit = gauge_shift(n, L), orbits(rep)
    for charge in range(n):
        v = np.zeros(rep.dim, dtype=complex)
        coords = rng.normal(size=rep.dim // n)
        for m in range(n):
            v[orbit[m]] = np.exp(-2j * np.pi * charge * m / n) * coords
        assert np.abs(t @ v - np.exp(2j * np.pi * charge / n) * v).max() < 1e-12
        w = a @ v  # stays in the eigenspace, with coordinates A_q coords
        assert np.abs(w[orbit[0]] - blocks_a[charge] @ coords).max() < (
            1e-12 * (1 + np.abs(w).max())
        )


@pytest.mark.parametrize("n,L", CELLS)
def test_scattered_blocks_are_the_dense_gather(n, L):
    """sector_blocks of a polynomial equals, bit for bit, the blocks
    gathered from its dense matrix: each entry sums the same terms in the
    same order."""
    rng = np.random.default_rng(3 * n + L)
    rep = rep_for(n, L)
    for terms in (1, 6, 40):
        p = random_invariant(n, L, rng, terms)
        assert np.array_equal(sector_blocks(p, rep),
                              dense_sector_blocks(to_matrix(p, rep), rep))


def test_scattered_blocks_of_the_baxter_test_spec():
    n, L = 4, 12
    rep = rep_for(n, L)
    t = [1.0] * (L - 1)
    t[L // 2 - 1] = -0.5
    h = baxter(n, L, t).total()
    assert np.array_equal(sector_blocks(h, rep),
                          dense_sector_blocks(to_matrix(h, rep), rep))


@pytest.mark.parametrize("n,L", [(2, 2), (3, 4), (4, 6)])
def test_sector_blocks_rejects_a_polynomial_that_is_not_gauge_invariant(n, L):
    rep = rep_for(n, L)
    charged = Polynomial.monomial(1.0, unit_vector(n, L, 1))
    with pytest.raises(ValueError, match="not gauge invariant"):
        sector_blocks(charged + Polynomial.identity(n, L), rep)


# -- boltzmann ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "baxter"])
@pytest.mark.parametrize("n,L", RP_CELLS)
def test_boltzmann_matches_dense_expm(n, L, kind):
    rng = np.random.default_rng(n * L)
    if kind == "baxter":
        h = baxter_spec(n, L, rng).total()
    else:
        h = general_spec(n, L, rng).total()
        if kind == "hermitian":
            h = h + adjoint(h)
    m = to_matrix(h, build_generators(n, L))
    if kind != "baxter":
        assert (np.abs(m - m.conj().T).max() < 1e-12) == (kind == "hermitian")
    ref = scipy.linalg.expm(-m)
    rep = build_generators(n, L)
    got = dense_matrix(rp.boltzmann(h, rep), rep)
    assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


def test_boltzmann_rejects_non_observable():
    rep = rep_for(3, 4)
    h = Polynomial.monomial(1.0, unit_vector(3, 4, 1)) + Polynomial.identity(3, 4)
    with pytest.raises(ValueError, match="gauge invariant"):
        rp.boltzmann(h, rep)


def test_boltzmann_of_zero_is_identity():
    rep = rep_for(3, 6)
    blocks = rp.boltzmann(Polynomial.zero(3, 6), rep)
    assert np.array_equal(blocks, np.broadcast_to(np.eye(9), (3, 9, 9)))
    assert np.array_equal(dense_matrix(blocks, rep), np.eye(27))


# -- decompose ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "baxter", "random"])
@pytest.mark.parametrize("n,L", CELLS)
def test_decompose_matches_the_dense_reference(n, L, kind):
    """decompose of the blocks of e^{-H}, or of random blocks, against the
    dense expansion of the matrix E they stand for, at every cell with
    dim <= 256: the same exponent arrays, and coefficients within
    1e-13 (1 + max |E_ij|)."""
    rng = np.random.default_rng(5 * n + L)
    rep = rep_for(n, L)
    if kind == "random":
        blocks = random_blocks(rep, rng)
    else:
        make = baxter_spec if kind == "baxter" else general_spec
        h = make(n, L, rng).total()
        if kind == "hermitian":
            h = h + adjoint(h)
        blocks = rp.boltzmann(h, rep)
    e = dense_matrix(blocks, rep)
    got, ref = decompose(blocks, rep), dense_decompose(e, rep)
    assert len(got.coeffs) > 0
    assert np.array_equal(got.exponents, ref.exponents)
    gap = np.abs(got.coeffs - ref.coeffs).max()
    assert gap <= 1e-13 * (1 + np.abs(e).max())


# -- stacked matrix_exp ----------------------------------------------------------


def test_stacked_matrix_exp_equals_per_block_expm():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(2, 3, 6, 6)) + 1j * rng.normal(size=(2, 3, 6, 6))
    stack[1, 2] = np.diag(rng.normal(size=6))  # a diagonal block
    got = rp.matrix_exp(stack)
    assert got.shape == stack.shape
    for index in np.ndindex(2, 3):
        assert np.array_equal(got[index], rp.matrix_exp(stack[index]))
        ref = scipy.linalg.expm(stack[index])
        assert np.abs(got[index] - ref).max() <= 1e-13 * (1 + np.abs(ref).max())


def test_stacked_matrix_exp_zero_nonfinite_and_overflow():
    zero = rp.matrix_exp(np.zeros((3, 4, 4)))
    assert np.array_equal(zero, np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert zero.dtype == complex and zero.flags.writeable
    bad = np.zeros((3, 4, 4))
    bad[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        rp.matrix_exp(bad)
    big = np.zeros((3, 4, 4))
    big[1] = 1e4 * np.ones((4, 4))
    with pytest.raises(OverflowError):
        rp.matrix_exp(big)


# -- Trotter -----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["hermitian", "non-hermitian"])
@pytest.mark.parametrize("n,L", [(2, 8), (3, 6), (4, 6), (5, 4), (2, 2)])
def test_trotter_matches_dense_reference(n, L, kind):
    rng = np.random.default_rng(3 * n + L)
    make = baxter_spec if kind == "hermitian" else general_spec
    spec = make(n, L, rng)
    rep = rep_for(n, L)
    exact = scipy.linalg.expm(-to_matrix(spec.total(), rep))
    ks = [4, 8, 16, 3]
    conv = rp.trotter_convergence(spec, rep, ks)
    for k in ks:
        ref = float(np.linalg.norm(dense_trotter(spec, rep, k) - exact))
        assert abs(conv["errors"][k] - ref) <= 1e-10 * ref
    assert set(conv["ratios"]) == {4, 8}


PAIRING_CELLS = RP_CELLS + [(2, 2), (6, 4), (7, 4)]


def pairing_spec(n, L, kind):
    rng = np.random.default_rng(7 * n + L)
    return (baxter_spec if kind == "baxter" else general_spec)(n, L, rng)


@pytest.mark.parametrize("kind", ["baxter", "general"])
@pytest.mark.parametrize("n,L", PAIRING_CELLS)
def test_theta_pairs_sector_q_with_minus_q(n, L, kind):
    """theta is an antiunitary that fixes H, H_0 and H_- + H_+ and maps
    sector q onto sector -q, so e^{-H} and the Trotter product have blocks
    q and -q of equal Frobenius norm."""
    spec, rep = pairing_spec(n, L, kind), rep_for(n, L)
    for stack in (rp.boltzmann(spec.total(), rep),
                  dense_sector_blocks(dense_trotter(spec, rep, 4), rep)):
        norms = np.linalg.norm(stack, axis=(1, 2))
        assert np.abs(norms - norms[-np.arange(n) % n]).max() <= 1e-12 * norms.max()


@pytest.mark.parametrize("kind", ["baxter", "general"])
@pytest.mark.parametrize("n,L", PAIRING_CELLS)
def test_trotter_convergence_matches_all_sectors(n, L, kind):
    """The errors from sectors 0..n/2 against the same computation on all n
    sectors, squarings included."""
    spec, rep = pairing_spec(n, L, kind), rep_for(n, L)
    ks = [4, 8, 16, 3]
    h0 = sector_blocks(spec.h_zero, rep)
    halves = sector_blocks(sum_polynomials((spec.h_minus, spec.h_plus)), rep)
    exact = rp.matrix_exp(-(h0 + halves))
    factors = {16: rp.matrix_exp(-halves / 16), 3: rp.matrix_exp(-halves / 3)}
    factors[8] = factors[16] @ factors[16]
    factors[4] = factors[8] @ factors[8]
    conv = rp.trotter_convergence(spec, rep, ks)
    for k in ks:
        step = (np.eye(h0.shape[-1]) - h0 / k) @ factors[k]
        ref = float(np.linalg.norm(np.linalg.matrix_power(step, k) - exact))
        assert abs(conv["errors"][k] - ref) <= 1e-12 * ref
    assert conv["ratios"] == {4: conv["errors"][4] / conv["errors"][8],
                              8: conv["errors"][8] / conv["errors"][16]}


# -- the exact two-site counterexample ----------------------------------------------


@pytest.mark.parametrize("low", range(2, 65, 9))
def test_counterexample_sums_match_the_stepping_loop(low):
    """The stepping loop's sums have one nonzero entry, at p mod n, and it
    is +-n s / k0!, + when p < n: every term has the phase zeta^p."""
    for n in range(low, min(low + 9, 65)):
        for j in range(1, n + 1):
            k0, p, s = rp._counterexample_sums(n, j)
            assert type(s) is Fraction and s > 0 and 0 <= p < 2 * n
            assert p == -k0 * (k0 + n) % (2 * n)
            r = Fraction(n, math.factorial(k0)) * s
            expected = [Fraction(0)] * n
            expected[p % n] = r if p < n else -r
            assert stepped_counterexample_sums(n, j) == expected, (n, j)


@pytest.mark.parametrize("n", [190, 200, 257])
def test_counterexample_value_where_the_factorial_underflows(n):
    """Around k0 = 178, past which n / k0! rounds to 0.0, f(c^j) equals the
    exact sums of the stepping loop, each rounded once, bit for bit."""
    values = []
    for j in (n - k0 for k0 in range(165, 186)):
        sums = stepped_counterexample_sums(n, j)
        parts = [(float(r), zeta_power(n, p)) for p, r in enumerate(sums)]
        ref = complex(math.fsum(r * z.real for r, z in parts),
                      math.fsum(r * z.imag for r, z in parts))
        values.append(rp.counterexample_f(n, j))
        assert values[-1] == ref, (n, j)
    assert values[0] != 0 and values[-1] == 0
    assert 0 < min(abs(v) for v in values if v) < 1e-320


@pytest.mark.parametrize("n", range(2, 41))
def test_exact_counterexample_matches_series(n):
    val = rp.counterexample_f(n, 1)
    ref = rp.counterexample_reference(n)
    assert abs(val - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_counterexample_matches_dense_for_every_power(n):
    rep = rep_for(n, 2)
    e = scipy.linalg.expm(-to_matrix(rp.crossing_only_spec(n).total(), rep))
    for j in range(1, n + 1):
        a = to_matrix(Polynomial.monomial(1.0, unit_vector(n, 2, 1, j)), rep)
        # theta(c_1^j) = c_2^{n-j}, with no phase at L = 2.
        ta = np.linalg.matrix_power(rep.generators[1], (n - j) % n)
        ref = complex(np.trace(a @ ta @ e))
        assert abs(rp.counterexample_f(n, j) - ref) <= 1e-12 * (1 + abs(ref))
    # The same values as the diagonal of M over the rows (j mod n, 0), one
    # of each charge: the charge-d block M^{(d)} is M_jj, and M holds
    # exactly 0 between different charges.
    rows = np.array([[j % n, 0] for j in range(1, n + 1)])
    m = rp.rp_matrix(rows, rep, rp.boltzmann_table(rp.crossing_only_spec(n), rep))
    f = np.array([rp.counterexample_f(n, j) for j in range(1, n + 1)])
    assert np.abs(m.diagonal() - f).max() <= 1e-14 * np.abs(f).max()
    assert not m[~np.eye(n, dtype=bool)].any()


# (rule, crossing t_{L/2}, twist exponent of zeta for charge d, cells)
TWISTS = [
    ("all_nonneg", -0.5, lambda n, d: -d * (n - d),
     [(2, 8), (3, 4), (3, 6), (4, 6), (5, 4), (6, 4)]),
    ("even_n_alternating", 0.4, lambda n, d: d * d, [(2, 8), (4, 6), (6, 4)]),
]


@pytest.mark.parametrize("rule,crossing,twist,n,L", [
    (rule, crossing, twist, n, L)
    for rule, crossing, twist, cells in TWISTS for n, L in cells
])
def test_twisted_charge_blocks_are_psd(rule, crossing, twist, n, L):
    """Every charge block M^{(d)} of the RP matrix over the minus monomials
    of degree d mod n, on the Baxter spec with t_j = 1 but the crossing:
    zeta^twist(n, d) M^{(d)} is hermitian and PSD (ROADMAP item 5)."""
    rep = rep_for(n, L)
    t = [1.0] * (L - 1)
    t[L // 2 - 1] = crossing
    spec = baxter(n, L, t)
    assert spec.validated_rule.value == rule
    table = rp.boltzmann_table(spec, rep)
    for d in range(n):
        m = rp.rp_matrix(rp.minus_rows(n, L, range(d, L // 2 * (n - 1) + 1, n)),
                         rep, table)
        scale = np.abs(m).max()
        twisted = zeta_power(n, twist(n, d)) * m
        assert np.abs(twisted - twisted.conj().T).max() <= 1e-10 * scale, d
        low = np.linalg.eigvalsh((twisted + twisted.conj().T) / 2).min()
        assert low >= -1e-12 * scale, d


@pytest.mark.parametrize("n,L", [
    (n, L) for n in range(2, 9) for L in range(4, 17, 2) if n ** (L // 2) <= 256
])
def test_twisted_charge_blocks_of_random_baxter_specs(n, L):
    """The twisted blocks of test_twisted_charge_blocks_are_psd on three
    seeded Baxter specs per rule: mirrored side couplings t_j ~ U(0.5, 1.5)
    and a crossing of the sign of the rule's, of size U(0.2, 1); the rule
    even_n_alternating at even n only.  Both bounds are relative to max|M|
    over all charge blocks: a block may be 1e-7 of that, and against its
    own maximum it then misses them at the resolution floor."""
    rep, rng = rep_for(n, L), np.random.default_rng(1000 * n + L)
    for rule, crossing, twist, _ in TWISTS[:2 - n % 2]:
        for _ in range(3):
            side = list(rng.uniform(0.5, 1.5, size=L // 2 - 1))
            t_half = math.copysign(rng.uniform(0.2, 1.0), crossing)
            spec = baxter(n, L, side + [t_half] + side[::-1])
            assert spec.validated_rule.value == rule
            table = rp.boltzmann_table(spec, rep)
            blocks = [zeta_power(n, twist(n, d)) * rp.rp_matrix(
                rp.minus_rows(n, L, range(d, L // 2 * (n - 1) + 1, n)), rep, table)
                for d in range(n)]
            scale = max(np.abs(m).max() for m in blocks)
            for d, m in enumerate(blocks):
                assert np.abs(m - m.conj().T).max() <= 1e-12 * scale, (rule, d)
                low = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
                assert low >= -1e-12 * scale, (rule, d)


@pytest.mark.parametrize("n,j", [(8, 4), (27, 9), (9, 3)])
def test_family_values_are_exactly_real(n, j):
    val = rp.counterexample_f(n, j)
    assert val.imag == 0.0 and val.real > 0


# -- dense generators, built on each read -------------------------------------------


def test_generators_are_built_on_each_read_and_never_kept():
    rep = build_generators(3, 4)
    spec = baxter(3, 4, [1.0, -0.5, 1.0])
    rp.check_rp(spec, rep, samples=3)
    rp.trotter_convergence(spec, rep, [4, 8])
    fast = verify_yamazaki(rep)
    gens, again = rep.generators, rep.generators
    assert len(gens) == len(again) == 4
    assert all(g is not h and np.array_equal(g, h) for g, h in zip(gens, again))
    assert verify_yamazaki(rep) == fast
    assert all(not g.flags.writeable for g in gens + again)
    # No field holds a dense dim x dim matrix, or a tuple of them.
    for value in vars(rep).values():
        assert not isinstance(value, (tuple, list))
        assert np.ndim(value) < 2 or np.shape(value)[-2:] != (rep.dim,) * 2
    zeta_exp = rep.zeta_exp.copy()
    zeta_exp[0] += 1
    corrupted = dataclasses.replace(rep, zeta_exp=zeta_exp)
    assert max(verify_yamazaki(corrupted).values()) > 0.1
    assert verify_yamazaki(rep) == fast


# -- deterministic worst pair in bounds ---------------------------------------------


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("offsets,expected", [
    ([0.0, -1e-16, -2e-16, 1e-16], 0),   # ties within rounding: first draw
    ([0.0, 1e-3, -1e-16, -1e-9], 3),     # a real drop replaces the worst
    ([0.0, -1e-9, -1e-9 - 1e-16, 0.0], 1),
])
def test_bounds_worst_breaks_ties_towards_the_earlier_pair(
    offsets, expected, tmp_path, monkeypatch
):
    """The worst pair is the drawn pair (numbered from 0) with the smallest
    margin, ties kept by the earlier one; the identity pair, whose margin
    here is the smallest of all, is never reported."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": 2, "L": 4, "t": [1, -0.5, 1]}}))

    def pair(i, margin):
        return {"f_ab": [float(i), 0.0], "bound1": 1.0, "bound2": 1.0,
                "margin1": margin, "margin2": 0.5,
                "partition_margin": 0.0, "ok": True}

    def fake(spec, rep, samples, seed, tol):
        assert samples == len(offsets)
        return [pair(-1, 0.0)] + [pair(i, 0.25 + offset)
                                  for i, offset in enumerate(offsets)]

    monkeypatch.setattr(rp, "sampled_bounds", fake)
    code, report = run_cli(["bounds", "--spec", str(path), "--samples",
                            str(len(offsets))])
    assert code == cli.PASS
    assert report["worst"]["f_ab"] == [float(expected), 0.0]
    assert report["worst"]["min_margin"] == 0.25 + offsets[expected]


@pytest.mark.parametrize("name", ["baxter-valid", "baxter-even", "general"])
def test_bounds_worst_is_the_drawn_pair_with_the_smallest_margin(
    name, tmp_path
):
    """On an RP spec the worst pair of a bounds report is the drawn pair
    with the smallest min(margin1, margin2), not the identity pair, which
    meets its bound with equality."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    code, report = run_cli(["bounds", "--spec", str(path), "--samples", "6",
                            "--seed", "3"])
    assert code == cli.PASS
    spec = spec_from_dict(SPECS[name])
    pairs = rp.sampled_bounds(spec, rep_for(spec.order, spec.sites), 6, 3)
    margins = [min(res["margin1"], res["margin2"]) for res in pairs]
    drawn = 1 + int(np.argmin(margins[1:]))
    assert abs(margins[0]) < cli.WORST_TIE < margins[drawn]
    assert report["worst"] == {"min_margin": margins[drawn], **pairs[drawn]}


# -- CLI reports against the dense Boltzmann factor ----------------------------------

SPECS = {
    "baxter-valid": {"baxter": {"n": 3, "L": 6, "t": [1.0, 0.7, -0.4, 0.7, 1.0]}},
    "baxter-even": {"baxter": {"n": 2, "L": 8,
                               "t": [0.9, 1.1, 0.8, -0.6, 0.8, 1.1, 0.9]}},
    "baxter-violating": {"baxter": {"n": 3, "L": 4, "t": [1.0, 0.8, 1.0]}},
    "general": {
        "n": 4, "L": 6,
        "h_minus": [{"coefficient": [0.4, -0.2], "exponents": [1, 3, 0, 0, 0, 0]},
                    {"coefficient": [-0.3, 0.1], "exponents": [2, 1, 1, 0, 0, 0]}],
        "couplings": [{"exponents": [1, 0, 2, 0, 0, 0], "J": 0.5},
                      {"exponents": [0, 1, 0, 0, 0, 0], "J": 0.8}],
    },
}

COMMANDS = (
    ["rp-check", "--samples", "6", "--seed", "3"],
    ["gram"],
    ["bounds", "--samples", "3", "--seed", "4"],
    ["trotter", "--k", "16"],
    ["decompose"],
)


def dense_block(p, rep):
    """The dense matrix of p, as one block."""
    return to_matrix(p, rep)[None]


def dense_boltzmann(h, rep):
    """e^{-H} from the dense matrix of H, as one block."""
    return rp.matrix_exp(-dense_block(h, rep))


def assert_reports_close(got, ref, path="report"):
    if isinstance(ref, dict):
        assert set(got) == set(ref), path
        for key in ref:
            assert_reports_close(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_reports_close(g, r, f"{path}[{i}]")
    elif isinstance(ref, float) and not isinstance(ref, bool):
        assert abs(got - ref) <= 1e-11 * (1 + abs(ref)), (path, got, ref)
    else:
        assert got == ref, (path, got, ref)


def dense_trotter_convergence(spec, rep, ks):
    """trotter_convergence on the dense matrices: the Trotter reference
    against scipy.linalg.expm of the whole matrix, every sector in the
    norm."""
    exact = scipy.linalg.expm(-to_matrix(spec.total(), rep))
    errors = {k: float(np.linalg.norm(dense_trotter(spec, rep, k) - exact))
              for k in ks}
    return {"errors": errors, "ratios": {ks[0]: errors[ks[0]] / errors[ks[1]]}}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_report_matches_dense_boltzmann(command, name, tmp_path,
                                           monkeypatch, capsys):
    """Exit code, keys and labels exact, floats within 1e-11.  No run is an
    error: on the violating spec rp-check, gram and bounds exit 2 with
    their reports."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    argv = command + ["--spec", str(path)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    # The dense path: e^{-H} from the full matrix, as one block; its Weyl
    # table gathered from the dense e^{-H}; dense Trotter products; and the
    # expansion of the dense e^{-H} over all monomials, its round trip gap
    # taken on to_matrix of the terms.
    used = []

    def recorded(name, fn):
        return lambda *args: used.append(name) or fn(*args)

    monkeypatch.setattr(rp, "boltzmann", recorded("boltzmann", dense_boltzmann))
    monkeypatch.setattr(rp, "sector_blocks", dense_block)
    monkeypatch.setattr(rp, "weyl_table",
                        lambda blocks, rep: dense_weyl_table(blocks[0], rep))
    monkeypatch.setattr(rp, "trotter_convergence", dense_trotter_convergence)
    monkeypatch.setattr(cli, "decompose", recorded(
        "decompose", lambda blocks, rep: dense_decompose(blocks[0], rep)))
    monkeypatch.setattr(cli, "sector_blocks",
                        recorded("sector_blocks", dense_block))
    ref_code = cli.main(argv)
    ref_out, ref_err = capsys.readouterr()
    # The reference ran on the dense path, not on the one under test.
    assert used == {"trotter": [], "decompose": [
        "boltzmann", "decompose", "sector_blocks"]}.get(command[0], ["boltzmann"])
    assert code == ref_code
    assert err == ref_err == ""
    report, ref_report = json.loads(out), json.loads(ref_out)
    if command[0] == "decompose":
        terms = {tuple(t["exponents"]): t["coefficient"] for t in report["terms"]}
        ref_terms = {
            tuple(t["exponents"]): t["coefficient"] for t in ref_report["terms"]
        }
        assert set(terms) == set(ref_terms)
        assert_reports_close(terms, ref_terms)
    assert_reports_close(report, ref_report)
    if name == "baxter-violating" and command[0] in ("rp-check", "gram",
                                                     "bounds"):
        assert code == cli.VIOLATIONS
