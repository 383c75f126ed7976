import cmath
import math

import numpy as np
import pytest

from pararp.algebra import (
    Polynomial,
    adjoint,
    canonical_product,
    reflect,
    zeta_power,
)
from pararp.exponents import ExponentVector, unit_vector
from pararp.hamiltonian import (
    CouplingRule,
    CouplingTable,
    assemble,
    baxter,
)
from pararp import rp
from pararp.representation import to_matrix

from conftest import rep_for


def mono(entries, n, coeff=1.0):
    return Polynomial.monomial(coeff, ExponentVector(tuple(entries), n))


def zero_spec(n, L):
    return assemble(Polynomial.zero(n, L), CouplingTable())


class TestMatrixExp:
    def test_zero_is_exact_identity(self):
        e = rp.matrix_exp(np.zeros((4, 4)))
        assert (e == np.eye(4)).all()

    def test_diagonal(self):
        d = np.array([0.3, -1.2, 2.5])
        e = rp.matrix_exp(np.diag(d))
        assert np.abs(np.diag(e) - np.exp(d)).max() < 1e-14

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            a *= 5.0 / np.linalg.norm(a)
            prod = rp.matrix_exp(a) @ rp.matrix_exp(-a)
            assert np.abs(prod - np.eye(6)).max() < 1e-11

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rp.matrix_exp(np.array([[np.nan, 0], [0, 0]]))


class TestRPFunctional:
    def test_identity_no_hamiltonian(self):
        for n, L in [(2, 2), (3, 2), (3, 4)]:
            spec = zero_spec(n, L)
            rep = rep_for(n, L)
            one = Polynomial.identity(n, L)
            val = rp.rp_functional(one, one, spec, rep)
            assert abs(val - n ** (L // 2)) < 1e-12

    def test_partition_function_real_positive(self):
        spec = rp.crossing_only_spec(3)
        rep = rep_for(3, 2)
        one = Polynomial.identity(3, 2)
        z = rp.rp_functional(one, one, spec, rep)
        assert z.real > 0 and abs(z.imag) < 1e-12

    def test_sesquilinearity(self):
        n, L = 3, 4
        spec = baxter(n, L, [0.4, -0.2, 0.4])
        rep = rep_for(n, L)
        rng = np.random.default_rng(5)
        a = rp.random_minus_observable(n, L, rng)
        b = rp.random_minus_observable(n, L, rng)
        alpha = complex(rng.normal(), rng.normal())
        f = rp.rp_functional(a, b, spec, rep)
        assert abs(rp.rp_functional(alpha * a, b, spec, rep) - alpha * f) < 1e-9
        assert abs(
            rp.rp_functional(a, alpha * b, spec, rep) - alpha.conjugate() * f
        ) < 1e-9

    def test_rejects_mixed_sides(self):
        n, L = 3, 4
        spec = zero_spec(n, L)
        rep = rep_for(n, L)
        with pytest.raises(ValueError):
            rp.rp_functional(mono((1, 2, 0, 0), n), mono((0, 0, 1, 2), n), spec, rep)


class TestCheckRP:
    def test_no_hamiltonian(self):
        spec = zero_spec(3, 4)
        report = rp.check_rp(spec, rep_for(3, 4), samples=50, seed=1)
        assert report.passed()
        assert abs(report.partition_function - 9) < 1e-12

    def test_crossing_only_valid(self):
        spec = rp.crossing_only_spec(3)
        report = rp.check_rp(spec, rep_for(3, 2), samples=100, seed=7)
        assert report.passed()
        assert report.min_diagonal_real >= -1e-9
        assert report.partition_function.real > 0

    def test_report_invariant(self):
        spec = baxter(2, 4, [0.6, -0.4, 0.6])
        report = rp.check_rp(spec, rep_for(2, 4), samples=100, seed=2)
        aggregates_ok = (
            report.min_diagonal_real >= -report.tolerance
            and report.max_diagonal_imag_abs <= report.tolerance
            and report.gram_min_eigenvalue >= -report.tolerance
        )
        assert report.passed() == aggregates_ok

    def test_invalid_coupling_family_violates_on_full_algebra(self):
        # J = -1 at n=3 has no valid sign rule; the degree-1 witness c
        # (outside the observable algebra) is not positive
        n = 3
        spec = assemble(
            Polynomial.zero(n, 2),
            CouplingTable({unit_vector(n, 2, 1): -1.0}),
        )
        assert spec.validated_rule is CouplingRule.NONE
        rep = rep_for(n, 2)
        boltzmann = rp.matrix_exp(-to_matrix(spec.total(), rep))
        c = mono((1, 0), n)
        val = complex(np.trace(
            to_matrix(c, rep) @ to_matrix(reflect(c), rep) @ boltzmann
        ))
        assert abs(val.imag) > 1e-6 or val.real < -1e-6

    def test_json_shape(self):
        import json

        spec = zero_spec(2, 2)
        report = rp.check_rp(spec, rep_for(2, 2), samples=5, seed=0)
        data = json.loads(report.to_json())
        assert set(data) == {
            "partition_function",
            "min_diagonal_real",
            "max_diagonal_imag_abs",
            "gram_min_eigenvalue",
            "samples",
            "seed",
            "tolerance",
            "violations",
        }


class TestGram:
    def test_no_hamiltonian_orthogonality(self):
        n, L = 3, 4
        spec = zero_spec(n, L)
        rep = rep_for(n, L)
        basis = [Polynomial.identity(n, L), mono((1, 2, 0, 0), n)]
        gram, min_eig = rp.gram_psd(spec, rep, basis)
        assert abs(gram[0, 0] - 9) < 1e-10
        assert abs(gram[1, 1]) < 1e-10
        assert abs(gram[0, 1]) < 1e-10
        assert min_eig >= -1e-12

    def test_baxter_psd_and_schwarz(self):
        n, L = 2, 4
        spec = baxter(n, L, [0.7, -0.5, 0.7])
        rep = rep_for(n, L)
        basis = [Polynomial.identity(n, L)] + [
            Polynomial.monomial(1.0, v)
            for v in rp.minus_monomials_of_degree(n, L, 2)
        ]
        gram, min_eig = rp.gram_psd(spec, rep, basis)
        assert min_eig >= -1e-9
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert (
                    abs(gram[i, j]) ** 2
                    <= gram[i, i].real * gram[j, j].real + 1e-9
                )


class TestTrotter:
    def test_k1_definition(self):
        spec = rp.crossing_only_spec(3)
        rep = rep_for(3, 2)
        eye = rep.identity()
        h0 = to_matrix(spec.h_zero, rep)
        expected = (eye - h0) @ eye @ eye  # H_- = 0
        assert np.abs(rp.trotter_approximant(spec, rep, 1) - expected).max() < 1e-13

    def test_pure_crossing_limit(self):
        spec = rp.crossing_only_spec(2)
        rep = rep_for(2, 2)
        exact = rp.matrix_exp(-to_matrix(spec.h_zero, rep))
        err = np.linalg.norm(rp.trotter_approximant(spec, rep, 512) - exact)
        assert err < 0.01

    @pytest.mark.parametrize(
        "make_spec,n,L",
        [
            (lambda: rp.crossing_only_spec(3), 3, 2),
            (lambda: baxter(3, 4, [0.8, -0.5, 0.8]), 3, 4),
        ],
    )
    def test_first_order_convergence(self, make_spec, n, L):
        spec = make_spec()
        rep = rep_for(n, L)
        conv = rp.trotter_convergence(spec, rep, [64, 128, 256])
        for k in (64, 128):
            assert 1.6 <= conv["ratios"][k] <= 2.4


class TestConservationLaw:
    def test_single_degree_one_insertion(self):
        n, L = 3, 4
        rep = rep_for(n, L)
        c1 = mono((1, 0, 0, 0), n)
        tr = np.trace(to_matrix(c1, rep) @ to_matrix(reflect(c1), rep))
        assert abs(tr) < 1e-12

    def test_degenerate_tuple_reduces_to_primitive_rp(self):
        n, L = 3, 4
        rep = rep_for(n, L)
        # degrees (1, 2): total 3 = 0 mod 3, trace need not vanish
        d = canonical_product(mono((1, 0, 0, 0), n), mono((2, 0, 0, 0), n))
        tr = complex(np.trace(to_matrix(d, rep) @ to_matrix(reflect(d), rep)))
        assert tr.real >= -1e-10 and abs(tr.imag) < 1e-10

    def test_sampled(self):
        rep = rep_for(3, 4)
        out = rp.conservation_law_check(rep, 3, 4, trials=100, seed=13)
        assert out["max_phase_identity_gap"] < 1e-10
        assert out["max_forbidden_trace"] < 1e-10
        assert out["forbidden_degree_tuples"] > 0

    @pytest.mark.parametrize("n,L,trials,seed,forbidden", [
        (3, 4, 350, 303, 241), (4, 8, 100, 1, 75),
    ])
    def test_symbolic_check_is_exact(self, n, L, trials, seed, forbidden):
        """The forbidden traces are dim times a constant term that is exactly
        0, and the identity holds to rounding of the coefficients."""
        out = rp.conservation_law_check(rep_for(n, L), n, L, trials, seed)
        assert out["trials"] == trials
        assert out["forbidden_degree_tuples"] == forbidden
        assert out["max_forbidden_trace"] == 0.0
        assert out["max_phase_identity_gap"] <= 1e-14


class TestBounds:
    def test_degenerate_splitting_equality(self):
        # H_- = H_+ = 0: both auxiliary Hamiltonians coincide with H
        spec = rp.crossing_only_spec(3)
        rep = rep_for(3, 2)
        one = Polynomial.identity(3, 2)
        out = rp.rp_bounds_check(one, one, spec, rep)
        assert out["ok"]
        assert abs(out["partition_margin"]) < 1e-12

    def test_baxter_partition_bound(self):
        spec = baxter(2, 4, [0.9, -0.6, 0.9])
        rep = rep_for(2, 4)
        one = Polynomial.identity(2, 4)
        out = rp.rp_bounds_check(one, one, spec, rep)
        assert out["ok"]
        assert out["partition_margin"] >= -1e-9

    def test_random_observables(self):
        n, L = 3, 4
        spec = baxter(n, L, [0.5, -0.3, 0.5])
        rep = rep_for(n, L)
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = reflect(rp.random_minus_observable(n, L, rng))
            b = reflect(rp.random_minus_observable(n, L, rng))
            out = rp.rp_bounds_check(a, b, spec, rep)
            assert out["margin1"] >= -1e-9 and out["margin2"] >= -1e-9

    def test_rejects_minus_side(self):
        n, L = 3, 4
        spec = zero_spec(n, L)
        with pytest.raises(ValueError):
            rp.rp_bounds_check(
                mono((1, 2, 0, 0), n), mono((0, 0, 1, 2), n), spec, rep_for(n, L)
            )


class TestCounterexample:
    def test_majorana_closed_form(self):
        val = rp.counterexample_f(2, 1)
        assert abs(val - 2j * math.sinh(1.0)) < 1e-10
        assert abs(abs(val) - 2.35040238) < 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_series_oracle(self, n):
        val = rp.counterexample_f(n, 1)
        ref = rp.counterexample_reference(n)
        assert abs(val - ref) < 1e-10
        # the phase omega^{(n-1)/2} != 1 spoils positivity for every n >= 2
        scale = 1.0 + abs(val)
        assert abs(val.imag) > 1e-9 * scale or val.real < -1e-9 * scale

    def test_series_sum_past_float_range(self):
        def float_series(n):  # each term 1.0 / k!, k! rounded to a float
            terms = (1.0 / math.factorial(ell * n - 1) for ell in range(1, 30))
            total = 0.0
            for term in terms:
                total += term
                if term < 1e-18:
                    return total

        for n in (2, 3, 24, 100, 168, 171):
            assert rp.series_sum(n) == float_series(n)
        assert rp.series_sum(172) == 1 / math.factorial(171) > 0
        assert rp.series_sum(200) == 0.0

    def test_observable_power_is_partition_function(self):
        n = 3
        rep = rep_for(n, 2)
        val = rp.counterexample_f(n, n)
        spec = rp.crossing_only_spec(n)
        z = np.trace(rp.matrix_exp(-to_matrix(spec.total(), rep)))
        assert abs(val - z) < 1e-10
        assert val.real > 0 and abs(val.imag) < 1e-10

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            rp.counterexample_f(3, 0)
        with pytest.raises(ValueError):
            rp.counterexample_f(3, 4)


class TestFamilies:
    @pytest.mark.parametrize(
        "family,k,jprime,expected_pair",
        [
            (2, 2, 1, (8, 4)),
            (3, 3, 1, (9, 3)),
            (3, 3, 2, (9, 6)),
            (1, 3, None, (27, 9)),
        ],
    )
    def test_positive_families(self, family, k, jprime, expected_pair):
        assert rp.family_pair(family, k, jprime) == expected_pair
        ok, val = rp.family_check(family, k, jprime)
        assert ok, val

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rp.family_pair(2, 2, 2)  # j' must be < k
        with pytest.raises(ValueError):
            rp.family_pair(3, 4, 1)  # k must be odd
        with pytest.raises(ValueError):
            rp.family_pair(4, 2, 1)


class TestLoopExpectation:
    def test_identity_on_zero_hamiltonian(self):
        n, L = 2, 4
        spec = zero_spec(n, L)
        rep = rep_for(n, L)
        out = rp.loop_expectation(Polynomial.identity(n, L), spec, rep)
        assert out["w_order"]
        assert out["positive"]
        assert all(abs(x[0] - 1) < 1e-10 for x in out["expectations"])

    def test_hermitian_majorana_chain(self):
        n, L = 2, 4
        y = mono((1, 1, 0, 0), n, coeff=0.5j)
        h_minus = y + adjoint(y)
        spec = assemble(
            h_minus, CouplingTable({ExponentVector((0, 1, 0, 0), n): 0.8})
        )
        rep = rep_for(n, L)
        h = to_matrix(spec.total(), rep)
        assert np.abs(h - h.conj().T).max() < 1e-12
        a = mono((1, 1, 0, 0), n)
        out = rp.loop_expectation(a, spec, rep)
        assert out["ground_degeneracy"] >= 1
        if out["w_order"]:
            assert out["positive"]

    def test_rejects_non_hermitian(self):
        spec = rp.crossing_only_spec(3)  # zeta c theta(c) is not hermitian
        rep = rep_for(3, 2)
        with pytest.raises(ValueError, match="hermitian"):
            rp.loop_expectation(Polynomial.identity(3, 2), spec, rep)

    def test_rejects_non_observable(self):
        n, L = 3, 4
        spec = zero_spec(n, L)
        with pytest.raises(ValueError, match="observable"):
            rp.loop_expectation(mono((1, 0, 0, 0), n), spec, rep_for(n, L))
