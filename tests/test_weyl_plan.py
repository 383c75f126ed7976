"""The Weyl plan: one (dim, dim/n) int32 index per representation, built on
first sector use from the digit-sum table of the orbit representatives, that
weyl_table gathers the DFT of the sector blocks at and sector_blocks
scatters a polynomial's terms through.  Every output is bit for bit that of
the per-call index it replaced (conftest references)."""

import dataclasses

import numpy as np
import pytest

from pararp import cli, representation, rp
from pararp.algebra import _BLOCK, Polynomial
from pararp.hamiltonian import baxter
from pararp.representation import (
    build_generators, sector_blocks, to_matrix, weyl_table,
)

from conftest import (
    random_blocks, reference_orbit_index, reference_plan,
    reference_sector_blocks, reference_to_matrix, reference_weyl_table,
)

CELLS = [(n, L) for L in range(2, 21, 2) for n in range(2, 1025)
         if n ** (L // 2) <= 1024]
# Every cell above dim 1024 up to DIM_CAP with at least two digits.
LARGE_CELLS = [(n, L) for L in range(4, 25, 2) for n in range(2, 65)
               if 1024 < n ** (L // 2) <= representation.DIM_CAP]


def random_poly(rep, rng, terms, invariant):
    """Up to ``terms`` distinct random monomials of rep's size with complex
    coefficients; with ``invariant``, of degree 0 mod n."""
    n, L = rep.order, rep.sites
    e = rng.integers(0, n, size=(terms, L))
    if invariant:
        e[:, -1] = (e[:, -1] - e.sum(axis=1)) % n
    e = np.unique(e, axis=0)
    c = rng.normal(size=len(e)) + 1j * rng.normal(size=len(e))
    return Polynomial._from_arrays(e, c, n, L)


@pytest.mark.parametrize("L", range(2, 21, 2))
def test_outputs_are_bit_identical_at_every_cell_up_to_dim_1024(L):
    for n, size in CELLS:
        if size != L:
            continue
        rep = build_generators(n, L)
        rng = np.random.default_rng(100 * n + L)
        terms = 2 * L + 3
        h = random_poly(rep, rng, terms, invariant=True)
        assert np.array_equal(sector_blocks(h, rep),
                              reference_sector_blocks(h, rep)), (n, L)
        p = random_poly(rep, rng, terms, invariant=False)
        assert np.array_equal(to_matrix(p, rep), reference_to_matrix(p, rep)), (n, L)
        blocks = random_blocks(rep, rng)
        assert np.array_equal(weyl_table(blocks, rep),
                              reference_weyl_table(blocks, rep)), (n, L)


def test_long_polynomial_spans_several_block_chunks():
    """At (2, 20) a chunk holds 512 terms of dim/n = 512 columns for the
    sector scatter and 256 of dim = 1024 for to_matrix: each entry is still
    summed in term order across the chunks."""
    rep = build_generators(2, 20)
    rng = np.random.default_rng(5)
    h = random_poly(rep, rng, 2000, invariant=True)
    assert len(h.coeffs) > 3 * _BLOCK // (rep.dim // 2)
    assert np.array_equal(sector_blocks(h, rep), reference_sector_blocks(h, rep))
    assert np.array_equal(to_matrix(h, rep), reference_to_matrix(h, rep))


def test_plan_and_orbit_index_match_the_references_above_dim_1024():
    """The plan read off the representatives' (dim/n, dim/n) table equals
    the one read off the (dim, dim/n) table of every state, and
    orbit_index the inverse of the orbits built digit by digit."""
    assert len(LARGE_CELLS) == 46
    for n, L in LARGE_CELLS:
        # A copy builds its own plan, so the cache keeps none of the 46
        # (109 MiB in all).
        rep = dataclasses.replace(build_generators(n, L))
        assert np.array_equal(rep.orbit_index, reference_orbit_index(rep)), (n, L)
        assert np.array_equal(rep.weyl_plan, reference_plan(rep)), (n, L)


@pytest.mark.parametrize("n,L", [(2, 2), (3, 4), (4, 6), (2, 10), (5, 4)])
def test_plan_is_one_read_only_int32_index_per_representation(n, L):
    rep = build_generators(n, L)
    plan = rep.weyl_plan
    assert rep.weyl_plan is plan and build_generators(n, L).weyl_plan is plan
    assert plan.dtype == np.int32
    assert plan.shape == (rep.dim, rep.dim // n)
    assert np.array_equal(plan, reference_plan(rep))
    assert np.array_equal(rep.orbit_index, reference_orbit_index(rep))
    for value in (plan, rep.place):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    copy = dataclasses.replace(rep)
    assert "weyl_plan" not in vars(copy)
    assert copy.weyl_plan is not plan
    assert np.array_equal(copy.weyl_plan, plan)


def test_plan_is_built_on_first_sector_use_only(capsys, tmp_path):
    """verify-relations, baxter and counterexample never build the plan; a
    gram job builds it once, on the shared representation."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"baxter": {"n": 3, "L": 6, "t": [1, 1, -0.5, 1, 1]}}')
    representation._build.cache_clear()
    for argv in (["verify-relations", "--n", "3", "--L", "6"],
                 ["baxter", "--spec", str(spec)], ["counterexample", "--n", "3"]):
        cli.main(argv)
    assert "weyl_plan" not in vars(build_generators(3, 6))
    assert cli.main(["gram", "--spec", str(spec)]) == cli.PASS
    capsys.readouterr()
    assert "weyl_plan" in vars(build_generators(3, 6))


@pytest.mark.parametrize("n,L", [(2, 2), (3, 6), (4, 6), (2, 12)])
def test_probe_rows_are_built_once_and_read_only(n, L):
    labels, rows = rp.structured_probes(n, L)
    assert rp.structured_probes(n, L)[1] is rows and isinstance(labels, tuple)
    degrees = range(0, L // 2 * (n - 1) + 1, n)
    basis = rp.minus_rows(n, L, degrees)
    assert rp.minus_rows(n, L, range(0, L // 2 * (n - 1) + 1, n)) is basis
    for value in (rows, basis):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    spec = rp.crossing_only_spec(n) if L == 2 else baxter(n, L, [1.0] * (L - 1))
    rp.check_rp(spec, build_generators(n, L), samples=2)
    assert rp.structured_probes(n, L)[0] == labels
