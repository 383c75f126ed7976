import dataclasses

import numpy as np
import pytest

from pararp.algebra import (
    Polynomial, adjoint, canonical_product, reflect, zeta_power,
)
from pararp.exponents import ExponentVector
from pararp import representation
from pararp.representation import (
    DimensionCapError,
    all_exponent_vectors,
    build_generators,
    decompose,
    sector_blocks,
    to_matrix,
    trace_monomial,
    verify_yamazaki,
    weyl_table,
)

from conftest import (
    characters, clock_shift, dense_decompose, dense_matrix,
    dense_sector_blocks, dense_weyl_table, random_blocks, reference_phases,
    reference_plan, reference_weyl_table, rep_for,
)


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
        zeta_exp = rep.zeta_exp.copy()
        zeta_exp[0] += 1  # c_1 -> zeta c_1
        residuals = verify_yamazaki(dataclasses.replace(rep, zeta_exp=zeta_exp))
        assert max(residuals.values()) > 0.1


class TestSharedRepresentation:
    """build_generators returns one immutable value per (n, L) and process,
    with its derived fields computed once, in __post_init__."""

    def test_one_value_per_size_holding_python_ints(self):
        representation._build.cache_clear()
        rep = build_generators(np.int64(3), np.int64(4))
        assert rep is build_generators(3, 4) is build_generators(3, 4)
        assert build_generators(np.int64(3), 4) is rep
        for value in (rep.order, rep.sites, rep.dim):
            assert type(value) is int
        assert (rep.order, rep.sites, rep.dim) == (3, 4, 9)

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 4), (4, 6), (2, 10)])
    def test_every_array_is_read_only(self, n, L):
        rep = build_generators(n, L)
        arrays = {k: v for k, v in vars(rep).items()
                  if isinstance(v, np.ndarray)}
        assert len(arrays) == 15 + ("weyl_plan" in arrays)
        for name, value in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.digits = rep.digits.copy()

    @pytest.mark.parametrize("name", ["x_exp", "z_exp", "zeta_exp", "digits",
                                      "zeta"])
    def test_replace_recomputes_every_derived_field(self, name):
        rep = build_generators(3, 6)
        value = getattr(rep, name).copy()
        if name == "zeta":
            value = value.conj()
        elif name == "zeta_exp":
            value[1] += 3
        else:
            value[..., [0, 1]] = value[..., [1, 0]]
        copy = dataclasses.replace(rep, **{name: value})
        # The generator columns: the one entry of column k of c_{j+1}.
        cols = np.arange(copy.dim)
        for j, g in enumerate(copy.generators):
            rows = copy.generator_rows[j]
            assert np.array_equal(g[rows, cols],
                                  copy.zeta[copy.generator_phases[j]])
            assert np.count_nonzero(g) == copy.dim
        # g of phases, and the character factors of weyl_table.
        rng = np.random.default_rng(7)
        e = rng.integers(0, 3, size=(40, 6))
        assert np.array_equal(copy.phases(e), reference_phases(copy, e))
        blocks = random_blocks(copy, rng)
        table = weyl_table(blocks, copy)
        if name == "digits":
            # The plan reads orbit_index, which a digits replace leaves as it
            # is: the table is the copy's own characters of the gather at it.
            dft = np.fft.fft(blocks, axis=0, norm="forward")
            assert np.array_equal(table, characters(dft.take(copy.weyl_plan), copy))
        else:
            assert np.array_equal(table, reference_weyl_table(blocks, copy))
        changed = [
            not np.array_equal(getattr(copy, f), getattr(rep, f))
            for f in ("generator_rows", "generator_phases", "_g_upper",
                      "_g_diagonal", "_w_lo", "_w_hi")]
        assert any(changed)
        assert not copy.orbit_index.flags.writeable and not value.flags.writeable
        # The Weyl plan: the copy derives its own, from orbit_index, which
        # no replace here changes.
        assert copy.weyl_plan is not rep.weyl_plan
        assert np.array_equal(copy.weyl_plan, rep.weyl_plan)
        if name != "digits":
            assert np.array_equal(copy.weyl_plan, reference_plan(copy))
        assert not copy.weyl_plan.flags.writeable
        # The place values and the verify_yamazaki index depend on (n, L)
        # alone: a copy derives its own, equal to the original's.
        for f in ("place", "_pairs", "_offsets"):
            assert getattr(copy, f) is not getattr(rep, f)
            assert np.array_equal(getattr(copy, f), getattr(rep, f))
            assert not getattr(copy, f).flags.writeable

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 4), (4, 6), (2, 10)])
    def test_verify_index_is_built_once(self, n, L, monkeypatch):
        """The pair index and flat offsets of verify_yamazaki are read-only
        fields of the shared value, and a call builds no index."""
        rep = build_generators(n, L)
        again = build_generators(n, L)
        assert again._pairs is rep._pairs and again._offsets is rep._offsets
        assert np.array_equal(rep._pairs, np.triu_indices(L, 1))
        assert np.array_equal(rep._offsets, rep.dim * np.arange(L)[:, None])
        for value in (rep._pairs, rep._offsets):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0
        expected = verify_yamazaki(rep)
        for name in ("triu_indices", "broadcast_to", "take_along_axis"):
            monkeypatch.setattr(np, name, None)
        assert verify_yamazaki(again) == expected

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(DimensionCapError, match="2\\^13 exceeds"):
                build_generators(2, 26)
            with pytest.raises(ValueError, match="order must be >= 2"):
                build_generators(1, 4)
            with pytest.raises(ValueError, match="sites must be even"):
                build_generators(3, 5)
            with pytest.raises(TypeError):
                build_generators(3.0, 4)

    @pytest.mark.parametrize("L", range(2, 17, 2))
    def test_tables_and_phases_equal_the_references(self, L):
        """At every cell with dim <= 256: the Weyl table against both
        conftest references, bit for bit, and phi(I) against g built on
        each call."""
        for n in range(2, 257):
            if n ** (L // 2) > 256:
                break
            rep = build_generators(n, L)
            rng = np.random.default_rng(1000 * L + n)
            blocks = random_blocks(rep, rng)
            table = weyl_table(blocks, rep)
            assert np.array_equal(table, reference_weyl_table(blocks, rep))
            dense = dense_weyl_table(dense_matrix(blocks, rep), rep)
            assert np.array_equal(table, dense)
            e = rng.integers(0, n, size=(64, L))
            assert np.array_equal(rep.phases(e), reference_phases(rep, e))


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
    """decompose reads the charge-sector blocks of a matrix that commutes
    with the gauge shift; dense_decompose expands any dense matrix."""

    def test_identity(self):
        rep = rep_for(3, 2)
        # The identity in each of the three sectors of dimension 1.
        p = decompose(np.ones((3, 1, 1), dtype=complex), rep)
        assert p.almost_equal(Polynomial.identity(3, 2))
        p = dense_decompose(np.eye(3, dtype=complex), rep)
        assert p.almost_equal(Polynomial.identity(3, 2))

    def test_single_monomial(self):
        rep = rep_for(3, 2)
        vec = ExponentVector((1, 2), 3)  # degree 3: gauge invariant
        m = rep.monomial_matrix(vec)
        for p in (decompose(dense_sector_blocks(m, rep), rep),
                  dense_decompose(m, rep)):
            assert list(p.terms) == [vec]
            assert abs(p.terms[vec] - 1) < 1e-12

    def test_round_trip_random(self):
        rep = rep_for(2, 4)
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = dense_decompose(a, rep)
        assert np.abs(to_matrix(p, rep) - a).max() < 1e-10
        blocks = random_blocks(rep, rng)
        p = decompose(blocks, rep)
        assert np.abs(to_matrix(p, rep) - dense_matrix(blocks, rep)).max() < 1e-10
        assert np.abs(sector_blocks(p, rep) - blocks).max() < 1e-10

    def test_shape_mismatch(self):
        rep = rep_for(3, 2)
        with pytest.raises(ValueError):
            decompose(np.eye(4), rep)
        with pytest.raises(ValueError, match="does not match"):
            decompose(np.eye(3, dtype=complex), rep)

    def test_enumeration_cap_bounds_the_invariant_terms(self):
        """ENUM_CAP bounds the dim^2/n charge-0 terms: (7, 6), 16807 of
        them, runs, where all dim^2 = 117649 once passed the cap."""
        rep = rep_for(7, 6)
        blocks = random_blocks(rep, np.random.default_rng(2))
        p = decompose(blocks, rep)
        assert len(p.coeffs) == 7**5
        assert (p.exponents.sum(axis=1) % 7 == 0).all()
        rep = rep_for(2, 18)
        with pytest.raises(DimensionCapError,
                           match="basis size 131072 exceeds enumeration cap"):
            decompose(random_blocks(rep, np.random.default_rng(2)), rep)


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
    # e commutes with the gauge shift, as decompose needs.
    blocks = random_blocks(rep, rng)
    e = dense_matrix(blocks, rep)
    ref_coeffs, e_coeffs = {}, {}
    chosen, invariant = {}, {}
    dense_sum = np.zeros((dim, dim), dtype=complex)
    invariant_sum = np.zeros((dim, dim), dtype=complex)
    for entries, c_ref in _dense_monomials(gens, n):
        vec = ExponentVector(entries, n)
        assert np.abs(rep.monomial_matrix(vec) - c_ref).max() < 1e-12
        ref_coeffs[vec] = np.vdot(c_ref, a) / dim  # Tr(C_I^* A) / dim
        e_coeffs[vec] = np.vdot(c_ref, e) / dim
        if rng.random() < 0.3:
            chosen[vec] = complex(rng.normal(), rng.normal())
            dense_sum += chosen[vec] * c_ref
            if sum(entries) % n == 0:
                invariant[vec] = chosen[vec]
                invariant_sum += chosen[vec] * c_ref

    for p, x, coeffs in ((dense_decompose(a, rep), a, ref_coeffs),
                         (decompose(blocks, rep), e, e_coeffs)):
        scale = 1.0 + np.abs(x).max()
        assert set(p.terms) == {
            v for v, c in coeffs.items() if abs(c) > 1e-12 * scale
        }
        assert max(abs(c - coeffs[v]) for v, c in p.terms.items()) < 1e-12

    q = Polynomial(chosen, n, L)
    # Relative: each of the terms carries the reference's rounding.
    gap = np.abs(to_matrix(q, rep) - dense_sum).max()
    assert gap < 1e-12 * (1.0 + np.abs(dense_sum).max())
    assert set(dense_decompose(dense_sum, rep).terms) == set(chosen)
    invariant_blocks = dense_sector_blocks(invariant_sum, rep)
    assert set(decompose(invariant_blocks, rep).terms) == set(invariant)


def _verify_dense(rep):
    """verify_yamazaki from dense products of ``rep.generators``: the
    reference it is tested against."""
    n = rep.order
    eye = np.eye(rep.dim, dtype=complex)
    omega = np.exp(2j * np.pi / n)
    norm = np.linalg.norm  # Frobenius, bounding the operator norm
    r_order = 0.0
    r_unitary = 0.0
    r_commute = 0.0
    gens = rep.generators
    for j, g in enumerate(gens):
        r_order = max(r_order, float(norm(np.linalg.matrix_power(g, n) - eye)))
        r_unitary = max(r_unitary, float(norm(g @ g.conj().T - eye)))
        for gp in gens[j + 1:]:
            r_commute = max(r_commute, float(norm(g @ gp - omega * gp @ g)))
    return {
        "order_residual": r_order,
        "unitarity_residual": r_unitary,
        "commutation_residual": r_commute,
    }


def _verify_gathers(rep):
    """verify_yamazaki as batched take_along_axis products over the
    generators' (rows, values) columns: the reference that the flat-gather
    kernel must equal bit for bit."""

    # A matrix with one nonzero entry per column is a pair (rows, values)
    # of arrays over its columns, with any leading batch axes.
    def product(a, b):
        # Column k of B is b_v[k] e_{b_r[k]}, which A maps to
        # b_v[k] a_v[b_r[k]] e_{a_r[b_r[k]]}.
        (a_rows, a_vals), (b_rows, b_vals) = a, b
        return (np.take_along_axis(a_rows, b_rows, axis=-1),
                b_vals * np.take_along_axis(a_vals, b_rows, axis=-1))

    def distance(a, b):
        # Frobenius norm of A - B: per column, the entries subtract when
        # they share a row and add in square otherwise.
        (a_rows, a_vals), (b_rows, b_vals) = a, b
        sq = np.where(a_rows == b_rows, np.abs(a_vals - b_vals) ** 2,
                      np.abs(a_vals) ** 2 + np.abs(b_vals) ** 2)
        return np.sqrt(sq.sum(axis=-1))

    gens = rows, vals = rep.generator_rows, rep.zeta[rep.generator_phases]
    power = gens
    for _ in range(rep.order - 1):
        power = product(gens, power)
    identity = np.broadcast_to(np.arange(rep.dim), rows.shape)
    r_order = distance(power, (identity, np.ones(rows.shape)))
    weight = np.zeros(rows.shape)
    np.add.at(weight, (np.arange(len(rows))[:, None], rows), np.abs(vals) ** 2)
    r_unitary = np.sqrt(((weight - 1.0) ** 2).sum(axis=1))
    j, k = np.triu_indices(len(rows), 1)
    c_j, c_k = (rows[j], vals[j]), (rows[k], vals[k])
    kj_rows, kj_vals = product(c_k, c_j)
    omega = np.exp(2j * np.pi / rep.order)
    r_commute = distance(product(c_j, c_k), (kj_rows, omega * kj_vals))
    return {
        "order_residual": float(r_order.max(initial=0.0)),
        "unitarity_residual": float(r_unitary.max(initial=0.0)),
        "commutation_residual": float(r_commute.max(initial=0.0)),
    }


def _cells(max_dim):
    """Every (n, L) with 2 <= n <= 8 and dim = n^{L/2} <= max_dim."""
    return [(n, L) for n in range(2, 9) for L in range(2, 40, 2)
            if n ** (L // 2) <= max_dim]


def _flipped_phase():
    rep = build_generators(3, 4)
    zeta_exp = rep.zeta_exp.copy()
    zeta_exp[1] += 3  # zeta^n = -1: c_2 -> -c_2
    return dataclasses.replace(rep, zeta_exp=zeta_exp)


def _swapped_x_rows():
    rep = build_generators(3, 4)
    x_exp = rep.x_exp.copy()
    x_exp[[2, 3]] = x_exp[[3, 2]]  # c_3 and c_4 swap X rows
    return dataclasses.replace(rep, x_exp=x_exp)


def _swapped_digit_columns():
    # Any X row gives a digit translation, whose powers and commutators
    # keep their rows; two swapped states do not.
    rep = build_generators(3, 4)
    digits = rep.digits.copy()
    digits[:, [0, 1]] = digits[:, [1, 0]]
    return dataclasses.replace(rep, digits=digits)


class TestVerifyFastPath:
    """The generators are verified from their Weyl data; the residuals
    must equal the dense computation's, and bit for bit those of the
    take_along_axis reference."""

    @staticmethod
    def _assert_matches_dense(rep):
        fast, dense = verify_yamazaki(rep), _verify_dense(rep)
        for key in dense:
            assert abs(fast[key] - dense[key]) < 1e-12
        assert fast == _verify_gathers(rep)
        return fast

    @pytest.mark.parametrize("n,L", _cells(64))
    def test_exact_generators(self, n, L):
        residuals = self._assert_matches_dense(build_generators(n, L))
        assert max(residuals.values()) < 1e-12

    @pytest.mark.parametrize("n,L", _cells(256))
    def test_equals_the_gather_reference(self, n, L):
        rep = build_generators(n, L)
        assert verify_yamazaki(rep) == _verify_gathers(rep)

    def test_flipped_phase_reported(self):
        assert max(self._assert_matches_dense(_flipped_phase()).values()) > 0.1

    def test_swapped_columns_reported(self):
        assert max(self._assert_matches_dense(_swapped_x_rows()).values()) > 0.1

    def test_swapped_digit_columns_reported(self):
        rep = _swapped_digit_columns()
        assert max(self._assert_matches_dense(rep).values()) > 0.1


@pytest.mark.parametrize("n,L", [(4, 8), (3, 10), (2, 16)])
def test_weyl_transform_matches_traces(n, L):
    """decompose (from the Weyl table of the blocks) against
    Tr(C_I^* A) / dim from the dense monomial matrices, on sampled I, for a
    random A that commutes with the gauge shift."""
    rep = build_generators(n, L)
    dim = rep.dim
    rng = np.random.default_rng(10 * n + L)
    blocks = random_blocks(rep, rng)
    a = dense_matrix(blocks, rep)
    p = decompose(blocks, rep)
    terms = p.terms
    for entries in rng.integers(0, n, size=(200, L)):
        vec = ExponentVector(tuple(int(e) for e in entries), n)
        ref = np.vdot(rep.monomial_matrix(vec), a) / dim
        assert abs(terms.get(vec, 0) - ref) < 1e-12
    assert np.abs(to_matrix(p, rep) - a).max() < 1e-10
