"""The names that readers outside the package use: the acceptance gate, the
README, the benchmark's tracer (perfbench/tracer.py), which wraps
rp.check_rp, rp.gram_psd, rp.rp_bounds_check and rp.structured_observables
by name and reads their arguments, and the benchmark's tests
(perfbench/test_perfbench.py), which count rp.structured_observables.  Each
still imports, runs and keeps the shape those readers rely on; the retired
helpers stay gone."""

import inspect
import json

import numpy as np
import pytest

from pararp import algebra, cli, hamiltonian, representation, rp
from pararp.algebra import Polynomial, from_text, to_text
from pararp.exponents import ExponentVector
from pararp.hamiltonian import baxter
from pararp.representation import (
    all_exponent_vectors, build_generators, trace_monomial,
)

from conftest import rep_for

N, L = 3, 4


def spec_and_rep():
    return baxter(N, L, [1.0, -0.5, 1.0]), rep_for(N, L)


def test_kept_names_import_and_run():
    spec, rep = spec_and_rep()
    vectors = list(all_exponent_vectors(N, L))
    assert len(vectors) == N**L
    assert trace_monomial(vectors[0]) == N ** (L // 2)
    assert trace_monomial(vectors[1]) == 0
    assert [v.entries for v in rp.minus_monomials_of_degree(N, L, 3)] == [
        (1, 2, 0, 0), (2, 1, 0, 0)]
    rng = np.random.default_rng(0)
    a = rp.random_minus_observable(N, L, rng)
    assert isinstance(a, Polynomial) and a.sites == L
    assert rp.random_minus_vector(N, L, rng, observable=True).entries[2:] == (0, 0)
    one = Polynomial.identity(N, L)
    assert rp.rp_bounds_check(one, one, spec, rep)["ok"]
    assert rp.conservation_law_check(rep, N, L, trials=5)["trials"] == 5
    m = rep.monomial_matrix(ExponentVector((1, 0, 0, 0), N))
    assert m.shape == (rep.dim, rep.dim)
    report = rp.check_rp(spec, rep, samples=2, seed=1)
    assert json.loads(report.to_json())["samples"] == 2
    assert from_text(to_text(a)).almost_equal(a)


def test_tracer_shapes():
    """What perfbench/tracer.py reads: the ``spec`` and ``samples``
    arguments of check_rp bound by name, len(basis) of gram_psd's third
    argument as the basis size, and structured_observables as a list of
    (label, Polynomial)."""
    spec, rep = spec_and_rep()
    bound = inspect.signature(rp.check_rp).bind(spec, rep, samples=3)
    bound.apply_defaults()
    assert bound.arguments["spec"] is spec and bound.arguments["samples"] == 3
    assert list(inspect.signature(rp.gram_psd).parameters) == [
        "spec", "rep", "basis"]
    basis = rp.minus_rows(N, L, (0, N))
    gram, min_eig = rp.gram_psd(spec, rep, basis)
    assert gram.shape == (len(basis), len(basis)) == (3, 3)
    assert isinstance(min_eig, float)
    structured = rp.structured_observables(N, L)
    assert [label for label, _ in structured] == [
        "identity", "C(1, 2, 0, 0)", "C(2, 1, 0, 0)"]
    assert all(isinstance(p, Polynomial) for _, p in structured)


def test_program_modules_build_no_dense_matrix():
    """rp, cli and hamiltonian work on polynomials and charge-sector blocks:
    they hold no name of a dense builder and do not mention one, and the
    package no longer has sector_matrix or a dense Trotter approximant."""
    for module in (rp, cli, hamiltonian):
        assert not {"to_matrix", "sector_matrix"} & set(vars(module))
        source = inspect.getsource(module)
        assert "to_matrix" not in source and "sector_matrix" not in source
    assert not hasattr(representation, "sector_matrix")
    assert not hasattr(rp, "trotter_approximant")


def test_retired_names_are_gone_and_kept_names_stay():
    """The second bounds layout, the test-only entry points, the split-out
    Trotter step, the private overflow class, the Weyl plan's wrapper class
    and second digit-sum table, the per-line monomial grammar, the regular
    expression that re-read a failing text and the split bounds report are
    gone from the package, and so is the orbit field;
    the names the acceptance gate, the README and the benchmark read are
    all still there."""
    import pararp

    retired = {"rp_functional", "_pair", "loop_expectation", "clock_shift",
               "OverflowError_", "_trotter_parts", "_trotter_power",
               "WeylPlan", "_orbit_sums", "_MONOMIAL", "_bounds",
               "_MONOMIALS", "_FACTOR", "_syntax_error"}
    for module in (pararp, rp, representation, algebra):
        assert not retired & set(vars(module)), module.__name__
    assert not hasattr(ExponentVector, "supported_on_plus")
    assert not hasattr(build_generators(N, L), "orbit")
    # structured_observables stays while the tracer and perfbench's
    # test_structured_probe_count_matches_rp read it, and gram_psd while the
    # tracer's busy metric rp.gram_entries counts its calls.
    kept = {
        representation: ["all_exponent_vectors", "trace_monomial",
                         "build_generators", "sector_blocks", "decompose"],
        rp: ["minus_monomials_of_degree", "random_minus_observable",
             "random_minus_vector", "rp_bounds_check", "sampled_bounds",
             "conservation_law_check", "check_rp", "gram_psd", "rp_matrix",
             "structured_observables", "matrix_exp", "family_pair"],
    }
    for module, names in kept.items():
        assert all(callable(getattr(module, name)) for name in names)
    assert callable(representation.Representation.monomial_matrix)
    assert callable(rp.RPReport.to_json) and callable(from_text)
    with pytest.raises(OverflowError, match="^matrix exponential overflowed$"):
        rp.matrix_exp(np.full((2, 2), 1e3))
