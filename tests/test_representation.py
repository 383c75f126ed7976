import numpy as np
import pytest

from pararp.algebra import (
    Polynomial, adjoint, canonical_product, reflect, zeta_power,
)
from pararp.exponents import ExponentVector
from pararp.representation import (
    DimensionCapError,
    _verify_dense,
    all_exponent_vectors,
    build_generators,
    clock_shift,
    decompose,
    to_matrix,
    trace_monomial,
    verify_yamazaki,
)

from conftest import rep_for


class TestClockShift:
    def test_pauli_case(self):
        sigma, tau = clock_shift(2)
        assert np.allclose(sigma, np.diag([1, -1]))
        assert np.allclose(tau, np.array([[0, 1], [1, 0]]))

    def test_weyl_relation(self):
        for n in (2, 3, 5, 8):
            sigma, tau = clock_shift(n)
            omega = np.exp(2j * np.pi / n)
            assert np.abs(sigma @ tau - omega * tau @ sigma).max() < 1e-13
            eye = np.eye(n)
            assert np.abs(np.linalg.matrix_power(sigma, n) - eye).max() < 1e-12
            assert np.abs(np.linalg.matrix_power(tau, n) - eye).max() < 1e-12

    def test_traceless(self):
        for n in (2, 3, 7):
            sigma, tau = clock_shift(n)
            assert abs(np.trace(sigma)) < 1e-12
            assert abs(np.trace(tau)) < 1e-12

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            clock_shift(1)


class TestBuildGenerators:
    def test_majorana_pair(self):
        rep = rep_for(2, 2)
        c1, c2 = rep.generators
        assert np.allclose(c1, np.diag([1, -1]))
        # c_2 = i sigma tau = -Y (anticommutes with c_1, squares to Id)
        assert np.abs(c1 @ c2 + c2 @ c1).max() < 1e-13
        assert np.abs(c2 @ c2 - np.eye(2)).max() < 1e-13

    def test_even_generator_needs_prefactor(self):
        # without zeta^{n-1}, (sigma tau)^n = (-1)^{n-1} Id
        for n in (3, 4):
            sigma, tau = clock_shift(n)
            bare = np.linalg.matrix_power(sigma @ tau, n)
            assert np.abs(bare - (-1) ** (n - 1) * np.eye(n)).max() < 1e-11
            rep = rep_for(n, 2)
            fixed = np.linalg.matrix_power(rep.generators[1], n)
            assert np.abs(fixed - np.eye(n)).max() < 1e-11

    @pytest.mark.parametrize("n,L", [(2, 2), (2, 4), (3, 2), (3, 4), (5, 2)])
    def test_all_relations(self, n, L):
        residuals = verify_yamazaki(rep_for(n, L))
        assert max(residuals.values()) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            build_generators(2, 26)  # dim 8192, refused before any table

    def test_cap_boundaries(self):
        assert build_generators(4, 12).dim == 4096
        with pytest.raises(DimensionCapError) as exc:
            build_generators(2, 26)
        assert str(exc.value) == "representation dimension 2^13 exceeds cap 4096"
        # Never formed as an integer: 3^1000000 has 477122 digits.
        with pytest.raises(DimensionCapError) as exc:
            build_generators(3, 2_000_000)
        assert str(exc.value) == (
            "representation dimension 3^1000000 exceeds cap 4096")

    def test_corrupted_generator_reported_not_raised(self):
        rep = build_generators(3, 2)
        rep.zeta_exp[0] += 1  # c_1 -> zeta c_1
        residuals = verify_yamazaki(rep)
        assert max(residuals.values()) > 0.1


class TestToMatrix:
    def test_identity(self):
        rep = rep_for(3, 2)
        m = to_matrix(Polynomial.identity(3, 2), rep)
        assert np.allclose(m, np.eye(3))

    @pytest.mark.parametrize("n,L", [(2, 2), (2, 4), (3, 4), (4, 2)])
    def test_product_homomorphism(self, n, L):
        rep = rep_for(n, L)
        rng = np.random.default_rng(17)
        vecs = list(all_exponent_vectors(n, L))
        for _ in range(100):
            i, j = rng.integers(0, len(vecs), size=2)
            p = Polynomial.monomial(complex(rng.normal(), rng.normal()), vecs[i])
            q = Polynomial.monomial(complex(rng.normal(), rng.normal()), vecs[j])
            lhs = to_matrix(canonical_product(p, q), rep)
            rhs = to_matrix(p, rep) @ to_matrix(q, rep)
            assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("n,L", [(2, 4), (3, 2), (4, 2)])
    def test_adjoint_and_reflect_oracles(self, n, L):
        rep = rep_for(n, L)
        rng = np.random.default_rng(23)
        vecs = list(all_exponent_vectors(n, L))
        for _ in range(50):
            idx = rng.integers(0, len(vecs), size=3)
            p = Polynomial(
                {vecs[i]: complex(rng.normal(), rng.normal()) for i in idx},
                n, L,
            )
            assert np.abs(
                to_matrix(adjoint(p), rep) - to_matrix(p, rep).conj().T
            ).max() < 1e-10
            # reflection is multiplicative against matrices too
            q = Polynomial.monomial(1.0, vecs[int(idx[0])])
            lhs = to_matrix(reflect(canonical_product(p, q)), rep)
            rhs = to_matrix(reflect(p), rep) @ to_matrix(reflect(q), rep)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestTraceTheorem:
    @pytest.mark.parametrize("n,L", [(2, 2), (2, 4), (3, 2), (3, 4), (4, 2)])
    def test_analytic_trace_matches_matrix(self, n, L):
        rep = rep_for(n, L)
        for vec in all_exponent_vectors(n, L):
            analytic = trace_monomial(vec)
            numeric = np.trace(rep.monomial_matrix(vec))
            assert abs(analytic - numeric) < 1e-10

    def test_identity_trace(self):
        assert trace_monomial(ExponentVector((0, 0), 3)) == 3
        assert trace_monomial(ExponentVector((0, 0, 0, 0), 3)) == 9

    def test_case_ii_exclusion(self):
        # every site occurs yet the trace vanishes
        vec = ExponentVector((2, 2, 2, 2), 4)
        assert trace_monomial(vec) == 0
        rep = rep_for(4, 4)
        assert abs(np.trace(rep.monomial_matrix(vec))) < 1e-10

    @pytest.mark.parametrize("n,L", [(2, 2), (2, 4), (3, 2), (3, 4)])
    def test_basis_gram_identity(self, n, L):
        rep = rep_for(n, L)
        mats = np.array(
            [rep.monomial_matrix(v).ravel() for v in all_exponent_vectors(n, L)]
        )
        gram = mats.conj() @ mats.T / rep.dim
        assert np.abs(gram - np.eye(n**L)).max() < 1e-10


class TestDecompose:
    def test_identity(self):
        rep = rep_for(3, 2)
        p = decompose(np.eye(3, dtype=complex), rep)
        assert p.almost_equal(Polynomial.identity(3, 2))

    def test_single_monomial(self):
        rep = rep_for(3, 2)
        vec = ExponentVector((1, 2), 3)
        p = decompose(rep.monomial_matrix(vec), rep)
        assert list(p.terms) == [vec]
        assert abs(p.terms[vec] - 1) < 1e-12

    def test_round_trip_random(self):
        rep = rep_for(2, 4)
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = decompose(a, rep)
        assert np.abs(to_matrix(p, rep) - a).max() < 1e-10

    def test_shape_mismatch(self):
        rep = rep_for(3, 2)
        with pytest.raises(ValueError):
            decompose(np.eye(4), rep)


class TestPrimitiveRP:
    def test_trace_of_a_theta_a(self):
        # Tr(A theta(A)) = n^{L/2} |a_0|^2 for A in the minus algebra
        from pararp.rp import random_minus_vector

        rng = np.random.default_rng(41)
        for n, L in [(2, 4), (3, 4)]:
            rep = rep_for(n, L)
            for _ in range(100):
                terms = {}
                for _ in range(int(rng.integers(1, 5))):
                    vec = random_minus_vector(n, L, rng, observable=False)
                    terms[vec] = complex(rng.normal(), rng.normal())
                a = Polynomial(terms, n, L)
                tr = np.trace(
                    to_matrix(a, rep) @ to_matrix(reflect(a), rep)
                )
                expected = rep.dim * abs(a.constant_term()) ** 2
                assert abs(tr - expected) < 1e-9


# -- the permutation-form kernel against the dense construction ------------


def _dense_generators(n, L):
    """The generators built densely with numpy.kron: the reference."""
    sigma, tau = clock_shift(n)
    eye = np.eye(n)
    half = L // 2
    gens = []
    for a in range(half):
        for site, prefactor in ((sigma, 1.0), (sigma @ tau, zeta_power(n, n - 1))):
            m = np.ones((1, 1))
            for f in [tau] * a + [site] + [eye] * (half - a - 1):
                m = np.kron(m, f)
            gens.append(prefactor * m)
    return gens


def _dense_monomials(gens, n):
    """(entries, C_I) for all n^L ordered monomials in lexicographic order,
    as products of dense generator powers.  Depth first, so only L partial
    products are held at a time."""
    powers = []
    for g in gens:
        powers.append([np.eye(len(g), dtype=complex)])
        for _ in range(n - 1):
            powers[-1].append(powers[-1][-1] @ g)

    def walk(j, entries, m):
        if j == len(gens):
            yield entries, m
            return
        for e in range(n):
            step = m @ powers[j][e] if e else m
            yield from walk(j + 1, entries + (e,), step)

    yield from walk(0, (), np.eye(len(gens[0]), dtype=complex))


KERNEL_CELLS = [
    (n, L) for n in range(2, 65) for L in range(2, 13, 2) if n**L <= 4096
]


@pytest.mark.parametrize("n,L", KERNEL_CELLS)
def test_permutation_kernel_matches_dense(n, L):
    rep = build_generators(n, L)
    gens = _dense_generators(n, L)
    for g, ref in zip(rep.generators, gens):
        assert np.abs(g - ref).max() < 1e-12
    dim = rep.dim
    rng = np.random.default_rng(100 * n + L)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ref_coeffs = {}
    chosen = {}
    dense_sum = np.zeros((dim, dim), dtype=complex)
    for entries, c_ref in _dense_monomials(gens, n):
        vec = ExponentVector(entries, n)
        assert np.abs(rep.monomial_matrix(vec) - c_ref).max() < 1e-12
        ref_coeffs[vec] = np.vdot(c_ref, a) / dim  # Tr(C_I^* A) / dim
        if rng.random() < 0.3:
            chosen[vec] = complex(rng.normal(), rng.normal())
            dense_sum += chosen[vec] * c_ref

    p = decompose(a, rep)
    scale = 1.0 + np.abs(a).max()
    assert set(p.terms) == {
        v for v, c in ref_coeffs.items() if abs(c) > 1e-12 * scale
    }
    assert max(abs(c - ref_coeffs[v]) for v, c in p.terms.items()) < 1e-12

    q = Polynomial(chosen, n, L)
    # Relative: each of the terms carries the reference's rounding.
    gap = np.abs(to_matrix(q, rep) - dense_sum).max()
    assert gap < 1e-12 * (1.0 + np.abs(dense_sum).max())
    assert set(decompose(dense_sum, rep).terms) == set(chosen)


class TestVerifyFastPath:
    """The generators are verified from their Weyl data; the residuals
    must equal the dense computation's."""

    @staticmethod
    def _assert_matches_dense(rep):
        fast, dense = verify_yamazaki(rep), _verify_dense(rep)
        for key in dense:
            assert abs(fast[key] - dense[key]) < 1e-12
        return fast

    @pytest.mark.parametrize("n,L", [(2, 2), (2, 6), (3, 4), (4, 4), (5, 2)])
    def test_exact_generators(self, n, L):
        residuals = self._assert_matches_dense(build_generators(n, L))
        assert max(residuals.values()) < 1e-12

    def test_flipped_phase_reported(self):
        rep = build_generators(3, 4)
        rep.zeta_exp[1] += 3  # zeta^n = -1: c_2 -> -c_2
        assert max(self._assert_matches_dense(rep).values()) > 0.1

    def test_swapped_columns_reported(self):
        rep = build_generators(3, 4)
        rep.x_exp[[2, 3]] = rep.x_exp[[3, 2]]  # c_3 and c_4 swap X rows
        assert max(self._assert_matches_dense(rep).values()) > 0.1

    def test_swapped_digit_columns_reported(self):
        # Any X row gives a digit translation, whose powers and commutators
        # keep their rows; two swapped states do not.
        rep = build_generators(3, 4)
        rep.digits[:, [0, 1]] = rep.digits[:, [1, 0]]
        assert max(self._assert_matches_dense(rep).values()) > 0.1


@pytest.mark.parametrize("n,L", [(4, 8), (3, 10), (2, 16)])
def test_weyl_transform_matches_traces(n, L):
    """decompose (one gather and an FFT) against Tr(C_I^* A) / dim from the
    dense monomial matrices, on sampled I."""
    rep = build_generators(n, L)
    dim = rep.dim
    rng = np.random.default_rng(10 * n + L)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p = decompose(a, rep)
    terms = p.terms
    for entries in rng.integers(0, n, size=(200, L)):
        vec = ExponentVector(tuple(int(e) for e in entries), n)
        ref = np.vdot(rep.monomial_matrix(vec), a) / dim
        assert abs(terms.get(vec, 0) - ref) < 1e-12
    assert np.abs(to_matrix(p, rep) - a).max() < 1e-10
