import numpy as np
import pytest
from hypothesis import given, strategies as st

from pararp.algebra import Polynomial, adjoint, canonical_product, omega_power, reflect
from pararp.exponents import ExponentVector, circ, degree, zero_vector


def vec(entries, n=3):
    return ExponentVector(tuple(entries), n)


def mono(v):
    """C_I with coefficient 1."""
    return Polynomial.monomial(1.0, v)


def rows(*vecs):
    """The exponent rows of the vectors, as the algebra stores them."""
    return np.array([v.entries for v in vecs], dtype=np.int64)


def ref_circ(i, j):
    """circ(I, J) as its definition: I_a J_b summed over sites a > b."""
    return sum(
        i.entries[a] * j.entries[b]
        for a in range(i.sites)
        for b in range(a)
    )


def key(p):
    """The exponent vector of a one-term polynomial."""
    [v] = p.terms
    return v


def vector_pairs(n_values=(2, 3, 4, 5), L_values=(2, 4, 6)):
    return st.tuples(
        st.sampled_from(n_values), st.sampled_from(L_values)
    ).flatmap(
        lambda nl: st.tuples(
            st.just(nl[0]),
            st.lists(
                st.integers(0, nl[0] - 1), min_size=nl[1], max_size=nl[1]
            ),
            st.lists(
                st.integers(0, nl[0] - 1), min_size=nl[1], max_size=nl[1]
            ),
        )
    )


def row_sets(n_values=(2, 3, 4, 5), L_values=(2, 4, 6, 8)):
    """(n, A, B): two lists of one to five exponent rows of one length."""
    def rows_of(n, L):
        row = st.lists(st.integers(0, n - 1), min_size=L, max_size=L)
        return st.lists(row, min_size=1, max_size=5)

    return st.tuples(
        st.sampled_from(n_values), st.sampled_from(L_values)
    ).flatmap(
        lambda nl: st.tuples(st.just(nl[0]), rows_of(*nl), rows_of(*nl))
    )


class TestValidation:
    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            ExponentVector((1, 0, 2), 3)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            ExponentVector((0, 3), 3)

    @pytest.mark.parametrize("entries,bad", [
        ((2.9, 0.2), "entry 2.9 at site 1"), ((1.0, 0), "entry 1.0 at site 1"),
        ((0, float("nan")), "entry nan at site 2"),
    ])
    def test_rejects_non_integer_entry(self, entries, bad):
        """A float is refused, not truncated: (2.9, 0.2) is not (2, 0)."""
        with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
            ExponentVector(entries, 3)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            ExponentVector((0, 0), 1)

    def test_dimension_mismatch(self):
        # Rows of different lengths have no circ.
        with pytest.raises(ValueError):
            circ(rows(vec((0, 1), 3)), rows(vec((0, 1, 0, 0), 3)))


class TestDegree:
    def test_zero_vector(self):
        assert degree(zero_vector(3, 4)) == 0

    def test_direct_sum(self):
        assert degree(vec((1, 2))) == 3
        assert degree(vec((2, 2, 1, 0))) == 5

    def test_not_reduced_mod_n(self):
        assert degree(vec((2, 2, 2, 2))) == 8


class TestAdd:
    """Exponent addition mod n, as products compute it: C_I C_J is a
    multiple of C_{I+J}."""

    def test_identity(self):
        i = vec((1, 2))
        one = Polynomial.identity(3, 2)
        assert key(canonical_product(mono(i), one)) == i

    def test_mod_reduction(self):
        assert key(canonical_product(mono(vec((2, 2))), mono(vec((2, 0))))) == vec((1, 2))

    @given(vector_pairs())
    def test_degree_additivity_mod_n(self, data):
        n, a, b = data
        i, j = ExponentVector(tuple(a), n), ExponentVector(tuple(b), n)
        p = canonical_product(mono(i), mono(j))
        assert degree(key(p)) % n == (degree(i) + degree(j)) % n


class TestCirc:
    """The array kernel: circ(a, b)[p, q] = circ(row p of a, row q of b)."""

    def test_zero(self):
        assert circ(rows(vec((1, 2))), rows(zero_vector(3, 2))).tolist() == [[0]]

    def test_left_index_greater(self):
        # pins the convention: sum over pairs with left factor's site greater
        assert circ(rows(vec((0, 1))), rows(vec((1, 0)))).tolist() == [[1]]
        assert circ(rows(vec((1, 0))), rows(vec((0, 1)))).tolist() == [[0]]

    def test_diagonal_is_symmetric_sum(self):
        assert circ(rows(vec((1, 1))), rows(vec((1, 1)))).tolist() == [[1]]
        i = vec((2, 1, 2, 0))
        expected = sum(
            i.entries[a] * i.entries[b]
            for a in range(4)
            for b in range(a + 1, 4)
        )
        assert circ(rows(i), rows(i)).tolist() == [[expected]]

    def test_split_support(self):
        # I on the plus half, J on the minus half
        i = vec((0, 0, 1, 2))
        j = vec((2, 1, 0, 0))
        assert circ(rows(j), rows(i)).tolist() == [[0]]
        assert circ(rows(i), rows(j)).tolist() == [[degree(i) * degree(j)]]

    @given(row_sets())
    def test_matches_double_loop(self, data):
        n, a, b = data
        vs = [ExponentVector(tuple(e), n) for e in a]
        ws = [ExponentVector(tuple(e), n) for e in b]
        out = circ(rows(*vs), rows(*ws))
        assert out.tolist() == [[ref_circ(v, w) for w in ws] for v in vs]


def wedge(a, b):
    """wedge(I, J) = circ(I, J) - circ(J, I) for every pair of rows."""
    return circ(a, b) - circ(b, a).T


class TestWedge:
    """The antisymmetrized form: C_I C_J = omega^{-wedge(I, J)} C_J C_I."""

    @given(vector_pairs())
    def test_antisymmetry(self, data):
        n, a, b = data
        i, j = ExponentVector(tuple(a), n), ExponentVector(tuple(b), n)
        w = wedge(rows(i), rows(j))
        assert w.tolist() == (-wedge(rows(j), rows(i))).tolist()
        ci, cj = mono(i), mono(j)
        swapped = omega_power(n, -int(w[0, 0])) * canonical_product(cj, ci)
        assert canonical_product(ci, cj).almost_equal(swapped)

    def test_self_wedge_zero(self):
        a = rows(vec((2, 1)), vec((1, 1)))
        assert np.diagonal(wedge(a, a)).tolist() == [0, 0]

    def test_examples(self):
        assert wedge(rows(vec((0, 1))), rows(vec((1, 0)))).tolist() == [[1]]
        i_plus = vec((0, 1))
        i_minus = vec((2, 0))
        w = wedge(rows(i_plus), rows(i_minus))
        assert w.tolist() == [[degree(i_plus) * degree(i_minus)]] == [[2]]


class TestComplementReflect:
    """Complement I^c and site reversal, as adjoint (C_I^* is a multiple of
    C_{I^c}) and reflect (of C_{reverse(I^c)}) compute them."""

    def test_complement_examples(self):
        assert key(adjoint(mono(zero_vector(3, 2)))) == zero_vector(3, 2)
        assert key(adjoint(mono(vec((1, 2))))) == vec((2, 1))

    def test_reflect_examples(self):
        # I -> reverse(I^c) at n = 3
        assert key(reflect(mono(vec((1, 0, 0, 2))))) == vec((1, 0, 0, 2))
        assert key(reflect(mono(vec((1, 0, 0, 0))))) == vec((0, 0, 0, 2))
        assert key(reflect(mono(vec((1, 2, 2, 1))))) == vec((2, 1, 1, 2))

    @given(vector_pairs())
    def test_commuting_involutions(self, data):
        n, a, _ = data
        p = mono(ExponentVector(tuple(a), n))
        assert key(adjoint(adjoint(p))) == key(p)
        assert key(reflect(reflect(p))) == key(p)
        assert key(reflect(adjoint(p))) == key(adjoint(reflect(p)))
