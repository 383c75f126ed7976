"""The probe draws of pararp.rp against per-term and per-polynomial
references.

``rp.random_minus_rows`` draws the probes of a job in three generator
calls, the term counts, the free digits of every term and the
coefficients, and sets each term's last minus-half digit to minus the sum
of its free digits mod n.  The references below build the same terms one
at a time from the same three calls, an ExponentVector per term and a
Polynomial per probe.  The draws must hold the same rows and coefficients,
bit for bit, and leave the generator in the same state.
"""

import itertools

import numpy as np
import pytest

from pararp import rp
from pararp.algebra import Polynomial
from pararp.exponents import ExponentVector

from conftest import rep_for


def observable_entries(n, L, free):
    """The minus-half monomial with free digits ``free`` on sites
    1..L/2 - 1 and minus their sum mod n on site L/2."""
    return tuple(free) + ((-sum(free)) % n,) + (0,) * (L // 2)


def ref_minus_vector(n, L, rng, observable, nonzero=False):
    half = L // 2
    while True:
        free = [int(e) for e in rng.integers(0, n, size=half - observable)]
        entries = (observable_entries(n, L, free) if observable
                   else tuple(free) + (0,) * half)
        if not nonzero or any(entries):
            return ExponentVector(entries, n)


def ref_minus_terms(n, L, rng, count, max_terms=8):
    """(probe, ExponentVector, coefficient) of every term of ``count``
    probes, term by term from the three draws."""
    sizes = [int(s) for s in rng.integers(1, max_terms + 1, size=count)]
    digits = iter(rng.integers(0, n, size=(sum(sizes), L // 2 - 1)).tolist())
    normals = iter(rng.normal(size=(sum(sizes), 2)).tolist())
    terms = []
    for probe, size in enumerate(sizes):
        for _ in range(size):
            vec = ExponentVector(observable_entries(n, L, next(digits)), n)
            re, im = next(normals)
            terms.append((probe, vec, complex(re, im)))
    return terms


def ref_minus_observable(n, L, rng, max_terms=8):
    terms = {}
    for _, vec, coeff in ref_minus_terms(n, L, rng, 1, max_terms):
        terms[vec] = terms.get(vec, 0) + coeff
    return Polynomial(terms, n, L)


def ref_monomials_of_degree(n, L, d):
    half = L // 2
    for head in itertools.product(range(n), repeat=half):
        if sum(head) == d:
            yield ExponentVector(tuple(head) + (0,) * half, n)


def assert_same_polynomials(got, ref):
    assert len(got) == len(ref)
    for p, q in zip(got, ref):
        assert p.exponents.dtype == q.exponents.dtype == np.int64
        assert np.array_equal(p.exponents, q.exponents)
        assert p.coeffs.tobytes() == q.coeffs.tobytes()


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("L", range(2, 15, 2))
def test_sampler_matches_per_term_loop(n, L):
    """Seeds 0..49, 1..6 probes per call, two term caps."""
    for seed in range(50):
        count, max_terms = seed % 6 + 1, (8, 3)[seed % 2]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows, coeffs, owner = rp.random_minus_rows(n, L, rng, count, max_terms)
        ref = ref_minus_terms(n, L, ref_rng, count, max_terms)
        assert rows.dtype == np.int64 and coeffs.dtype == complex
        assert owner.tolist() == [probe for probe, _, _ in ref]
        assert [tuple(row) for row in rows.tolist()] == [
            vec.entries for _, vec, _ in ref]
        assert coeffs.tobytes() == np.array([c for _, _, c in ref]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n,L", [(2, 2), (2, 4), (3, 4), (2, 8), (3, 6), (5, 6)])
def test_random_minus_observable_and_vector_unchanged(n, L):
    """At (2, 2) every term is the identity and at (2, 4) there are two
    observable monomials, so the merging of repeats is covered."""
    rng, ref_rng = np.random.default_rng(n + L), np.random.default_rng(n + L)
    for max_terms in (1, 2, 5, 8):
        assert_same_polynomials(
            [rp.random_minus_observable(n, L, rng, max_terms)],
            [ref_minus_observable(n, L, ref_rng, max_terms)],
        )
    for observable, nonzero in itertools.product((False, True), repeat=2):
        if observable and nonzero and L == 2:
            continue
        got = rp.random_minus_vector(n, L, rng, observable, nonzero)
        assert got == ref_minus_vector(n, L, ref_rng, observable, nonzero)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n,L,seed", [(2, 4, 0), (3, 4, 1), (3, 6, 2), (4, 4, 3)])
def test_conservation_law_report_unchanged(n, L, seed, monkeypatch):
    rep = rep_for(n, L)
    got = rp.conservation_law_check(rep, n, L, trials=40, seed=seed)
    monkeypatch.setattr(rp, "random_minus_vector", ref_minus_vector)
    monkeypatch.setattr(rp, "random_minus_observable", ref_minus_observable)
    assert got == rp.conservation_law_check(rep, n, L, trials=40, seed=seed)


@pytest.mark.parametrize("n,L", [(2, 2), (2, 8), (3, 6), (4, 4), (5, 4)])
def test_monomial_rows_in_enumeration_order(n, L):
    for d in range(0, (n - 1) * L // 2 + 2):
        assert list(rp.minus_monomials_of_degree(n, L, d)) == list(
            ref_monomials_of_degree(n, L, d))
    degrees = range(0, L // 2 * (n - 1) + 1, n)
    rows = rp.minus_rows(n, L, degrees)
    assert rows.dtype == np.int64
    assert [tuple(r) for r in rows.tolist()] == [
        v.entries for d in degrees for v in ref_monomials_of_degree(n, L, d)]
    labels, probes = rp.structured_probes(n, L)
    assert [(label, p.terms) for label, p in rp.structured_observables(n, L)] == [
        ("identity", Polynomial.identity(n, L).terms)] + [
        (f"C{v.entries}", Polynomial.monomial(1.0, v).terms)
        for v in ref_monomials_of_degree(n, L, n)]
    assert labels == tuple(label for label, _ in rp.structured_observables(n, L))
    assert len(probes) == len(labels)


@pytest.mark.parametrize("n,L", [(2, 2), (2, 8), (3, 6), (4, 6), (5, 4), (3, 10)])
def test_every_row_is_observable_on_the_minus_half(n, L):
    rows, _, owner = rp.random_minus_rows(n, L, np.random.default_rng(L), 40)
    assert ((0 <= rows) & (rows < n)).all()
    assert not rows[:, L // 2:].any()
    assert (rows.sum(axis=1) % n == 0).all()
    assert set(owner.tolist()) == set(range(40))


class EveryDigit:
    """A generator stand-in whose integers(0, n, size=(count, k)) is every
    digit tuple in k digits, once each, in lexicographic order."""

    def integers(self, low, high, size):
        count, k = size
        assert (low, count) == (0, high ** k)
        return np.array(list(itertools.product(range(high), repeat=k)),
                        dtype=np.int64).reshape(count, k)


@pytest.mark.parametrize("n,L", [(2, 2), (2, 8), (3, 6), (4, 6), (5, 4), (3, 8)])
def test_free_digits_map_one_to_one_onto_observable_monomials(n, L):
    half = L // 2
    rows = rp._minus_draw(n, L, EveryDigit(), n ** (half - 1), True)
    observable = rp.minus_rows(n, L, range(0, half * (n - 1) + 1, n))
    assert len({tuple(r) for r in rows.tolist()}) == len(rows) == len(observable)
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, observable.tolist()))


@pytest.mark.parametrize("max_terms", [1, 2, 8])
def test_term_counts_stay_in_range(max_terms):
    rng = np.random.default_rng(max_terms)
    _, _, owner = rp.random_minus_rows(3, 6, rng, 300, max_terms)
    sizes = np.bincount(owner, minlength=300)
    assert sizes.min() == 1 and sizes.max() == max_terms


@pytest.mark.parametrize("n", [2, 3, 5])
def test_two_sites_give_the_identity(n):
    rng = np.random.default_rng(n)
    rows, coeffs, _ = rp.random_minus_rows(n, 2, rng, 5)
    assert rows.shape == (len(coeffs), 2) and not rows.any()
    one = rp.random_minus_observable(n, 2, rng)
    assert one.exponents.tolist() == [[0, 0]] and len(one.coeffs) == 1
    assert rp.random_minus_vector(n, 2, rng, observable=True).entries == (0, 0)
    with pytest.raises(ValueError, match="identity"):
        rp.random_minus_vector(n, 2, rng, observable=True, nonzero=True)
