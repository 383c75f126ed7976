"""The probe draws of pararp.rp against per-term and per-polynomial
references.

``rp.random_minus_rows`` draws the probes of a job as the exponent rows,
coefficients and probe index of all their terms; the references below are
the per-term loops it replaced, which build an ExponentVector per draw and
a Polynomial per probe.  The draws must hold the same rows and
coefficients, bit for bit, and leave the generator in the same state.
"""

import itertools

import numpy as np
import pytest

from pararp import rp
from pararp.algebra import Polynomial
from pararp.exponents import ExponentVector

from conftest import rep_for


def ref_minus_vector(n, L, rng, observable, nonzero=False):
    half = L // 2
    while True:
        entries = [int(e) for e in rng.integers(0, n, size=half)] + [0] * half
        if observable and sum(entries) % n != 0:
            continue
        if nonzero and not any(entries):
            continue
        return ExponentVector(tuple(entries), n)


def ref_minus_observable(n, L, rng, max_terms=8):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = {}
    for _ in range(n_terms):
        vec = ref_minus_vector(n, L, rng, observable=True)
        coeff = complex(rng.normal(), rng.normal())
        terms[vec] = terms.get(vec, 0) + coeff
    return Polynomial(terms, n, L)


def ref_monomials_of_degree(n, L, d):
    half = L // 2
    for head in itertools.product(range(n), repeat=half):
        if sum(head) == d:
            yield ExponentVector(tuple(head) + (0,) * half, n)


def term_polynomials(rows, coeffs, owner, count, n, L):
    """The Polynomial of each probe of random_minus_rows's terms."""
    return [Polynomial._from_arrays(rows[owner == p], coeffs[owner == p], n, L)
            for p in range(count)]


def assert_same_polynomials(got, ref):
    assert len(got) == len(ref)
    for p, q in zip(got, ref):
        assert p.exponents.dtype == q.exponents.dtype == np.int64
        assert np.array_equal(p.exponents, q.exponents)
        assert p.coeffs.tobytes() == q.coeffs.tobytes()


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("L", range(2, 15, 2))
def test_sampler_matches_per_term_loop(n, L):
    """Seeds 0..49, 1..6 probes per call, two term caps: at n = 2, L = 2
    every draw is the identity, so the merging of repeated monomials is
    covered too."""
    for seed in range(50):
        count, max_terms = seed % 6 + 1, (8, 3)[seed % 2]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows, coeffs, owner = rp.random_minus_rows(n, L, rng, count, max_terms)
        ref = [ref_minus_observable(n, L, ref_rng, max_terms)
               for _ in range(count)]
        assert np.bincount(owner, minlength=count).tolist() == [
            len(p.coeffs) for p in ref]
        assert (np.diff(owner) >= 0).all()
        assert_same_polynomials(
            term_polynomials(rows, coeffs, owner, count, n, L), ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n,L", [(2, 4), (3, 4), (2, 8), (3, 6), (5, 6)])
def test_random_minus_observable_and_vector_unchanged(n, L):
    rng, ref_rng = np.random.default_rng(n + L), np.random.default_rng(n + L)
    for max_terms in (1, 2, 5, 8):
        assert_same_polynomials(
            [rp.random_minus_observable(n, L, rng, max_terms)],
            [ref_minus_observable(n, L, ref_rng, max_terms)],
        )
    for observable, nonzero in itertools.product((False, True), repeat=2):
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
    assert labels == [label for label, _ in rp.structured_observables(n, L)]
    assert len(probes) == len(labels)
