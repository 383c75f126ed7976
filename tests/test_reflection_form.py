"""The reflection structure H = H_- + H_0 + theta(H_-) behind the bounds and
Trotter paths of pararp.rp.

Every assembled spec has that form, so both auxiliary Hamiltonians of the
reflection bounds are H itself and H_-, theta(H_-) commute.  The bounds are
compared with a dense reference that exponentiates the three auxiliary
Hamiltonians separately, and the errors of rp.trotter_convergence, whose
approximant exponentiates H_- + theta(H_-) as one, with those of the dense
product of the two half-chain exponentials (``dense_trotter`` of
tests/conftest.py).  A spec of another form cannot be built
(tests/test_hamiltonian.py, TestSpecIsDerived).
"""

import numpy as np
import pytest
import scipy.linalg

from pararp import rp
from pararp.algebra import (
    Polynomial,
    canonical_product,
    reflect,
    sum_polynomials,
)
from pararp.representation import to_matrix

from conftest import dense_trotter, rep_for
from test_sectors import baxter_spec, general_spec

CELLS = [(2, 2), (2, 4), (2, 6), (3, 4), (3, 6), (4, 4), (5, 4)]
KINDS = {"general": general_spec, "baxter": baxter_spec}


def make(kind, n, L):
    return KINDS[kind](n, L, np.random.default_rng(7 * n + L))


def aux_hamiltonians(spec):
    """H_- + H_0 + theta(H_-) and theta(H_+) + H_0 + H_+."""
    return (
        sum_polynomials((spec.h_minus, spec.h_zero, reflect(spec.h_minus))),
        sum_polynomials((reflect(spec.h_plus), spec.h_zero, spec.h_plus)),
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n,L", CELLS)
def test_aux_hamiltonians_are_h_and_the_halves_commute(kind, n, L):
    spec = make(kind, n, L)
    for aux in aux_hamiltonians(spec):
        assert aux.almost_equal(spec.total())
    assert canonical_product(spec.h_minus, spec.h_plus).almost_equal(
        canonical_product(spec.h_plus, spec.h_minus)
    )


def dense_bounds(a, b, spec, rep, tol):
    """rp_bounds_check with the three auxiliary Boltzmann factors built
    separately from dense matrices."""
    e_full, e_minus, e_plus = (
        scipy.linalg.expm(-to_matrix(h, rep))
        for h in (spec.total(), *aux_hamiltonians(spec))
    )

    def f(x, y, e):
        return complex(np.trace(
            to_matrix(x, rep) @ to_matrix(reflect(y), rep) @ e
        ))

    def norm(x, e):
        val = f(x, x, e)
        assert val.real >= -tol * (1 + abs(val))
        return np.sqrt(max(val.real, 0.0))

    f_ab = f(a, b, e_full)
    bound1 = norm(a, e_minus) * norm(b, e_plus)
    bound2 = norm(a, e_plus) * norm(b, e_minus)
    z = abs(np.trace(e_full))
    z_bound = np.sqrt(
        max(np.trace(e_minus).real, 0.0) * max(np.trace(e_plus).real, 0.0)
    )
    margin1 = (bound1 - abs(f_ab)) / (1 + bound1)
    margin2 = (bound2 - abs(f_ab)) / (1 + bound2)
    margin_z = (z_bound - z) / (1 + z_bound)
    return {
        "f_ab": [f_ab.real, f_ab.imag],
        "bound1": bound1,
        "bound2": bound2,
        "margin1": margin1,
        "margin2": margin2,
        "partition_margin": margin_z,
        "ok": margin1 >= -tol and margin2 >= -tol and margin_z >= -tol,
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n,L", CELLS)
def test_bounds_match_the_three_factor_dense_reference(kind, n, L):
    spec = make(kind, n, L)
    rep = rep_for(n, L)
    rng = np.random.default_rng(n * L)
    pairs = [(Polynomial.identity(n, L),) * 2] + [
        (reflect(rp.random_minus_observable(n, L, rng)),
         reflect(rp.random_minus_observable(n, L, rng)))
        for _ in range(3)
    ]
    for a, b in pairs:
        got = rp.rp_bounds_check(a, b, spec, rep, tol=1e-9)
        ref = dense_bounds(a, b, spec, rep, tol=1e-9)
        assert set(got) == set(ref)
        assert got.pop("ok") == ref.pop("ok")
        for key in ref:
            for g, r in zip(np.ravel(got[key]), np.ravel(ref[key])):
                assert abs(g - r) <= 1e-12 * (1 + abs(r)), (key, g, r)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n,L", CELLS)
def test_trotter_approximant_matches_the_product_of_half_exponentials(
    kind, n, L
):
    spec = make(kind, n, L)
    rep = rep_for(n, L)
    exact = scipy.linalg.expm(-to_matrix(spec.total(), rep))
    errors = rp.trotter_convergence(spec, rep, [1, 3, 8])["errors"]
    for k, err in errors.items():
        ref = float(np.linalg.norm(dense_trotter(spec, rep, k) - exact))
        assert abs(err - ref) <= 1e-10 * ref
