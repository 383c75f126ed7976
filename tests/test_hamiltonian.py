import dataclasses
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pararp.algebra import (
    Polynomial,
    canonical_product,
    gauge_apply,
    reflect,
    zeta_power,
)
from pararp.exponents import ExponentVector, unit_vector
from pararp.hamiltonian import (
    CouplingRule,
    CouplingTable,
    HamiltonianSpec,
    SpecError,
    assemble,
    baxter,
    build_h0,
    check_symmetries,
    load_spec,
    spec_from_dict,
    validate_couplings,
)
from pararp.representation import to_matrix

from conftest import rep_for
from test_sectors import baxter_spec, general_spec


def mono(entries, n, coeff=1.0):
    return Polynomial.monomial(coeff, ExponentVector(tuple(entries), n))


class TestCouplingTable:
    def test_rejects_plus_support(self):
        with pytest.raises(SpecError):
            CouplingTable({ExponentVector((0, 1), 3): 1.0})

    def test_rejects_zero_degree(self):
        with pytest.raises(SpecError):
            CouplingTable({ExponentVector((0, 0), 3): 1.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(SpecError):
            CouplingTable({ExponentVector((1, 0), 3): float("nan")})


class TestBuildH0:
    def test_empty(self):
        assert build_h0(CouplingTable(), 3, 2).is_zero()

    def test_majorana_term(self):
        # n=2, L=2, I=(1,0): H_0 = +1 * i * J * c_1 c_2
        j = 1.8
        h0 = build_h0(CouplingTable({ExponentVector((1, 0), 2): j}), 2, 2)
        assert h0.almost_equal(mono((1, 1), 2, coeff=1j * j))

    def test_crossing_only_instance(self):
        # I=(1,0), J=1: H_0 = zeta c theta(c)
        for n in (2, 3, 5):
            h0 = build_h0(CouplingTable({ExponentVector((1, 0), n): 1.0}), n, 2)
            c = mono((1, 0), n)
            expected = zeta_power(n, 1) * canonical_product(c, reflect(c))
            assert h0.almost_equal(expected)

    def test_invariance(self):
        rng = np.random.default_rng(2)
        n, L = 3, 4
        table = CouplingTable()
        for entries in [(1, 0, 0, 0), (1, 2, 0, 0), (2, 2, 0, 0)]:
            table[ExponentVector(entries, n)] = float(rng.normal())
        h0 = build_h0(table, n, L)
        assert reflect(h0).almost_equal(h0, 1e-12)
        assert gauge_apply(h0).almost_equal(h0, 1e-12)


class TestValidateCouplings:
    def test_all_nonneg(self):
        table = CouplingTable({ExponentVector((1, 2, 0, 0), 3): 0.5})
        assert validate_couplings(table, 3) is CouplingRule.ALL_NONNEG

    def test_even_alternating(self):
        table = CouplingTable({ExponentVector((1, 0), 2): -5.0})
        assert validate_couplings(table, 2) is CouplingRule.EVEN_N_ALTERNATING

    def test_odd_negative_is_none(self):
        table = CouplingTable({ExponentVector((1, 2, 0, 0), 3): -0.5})
        assert validate_couplings(table, 3) is CouplingRule.NONE


class TestAssemble:
    def test_zero_hamiltonian(self):
        spec = assemble(Polynomial.zero(3, 2), CouplingTable())
        assert spec.total().is_zero()
        assert reflect(spec.total()).almost_equal(spec.total())

    def test_crossing_only(self):
        spec = assemble(
            Polynomial.zero(3, 2),
            CouplingTable({ExponentVector((1, 0), 3): 1.0}),
        )
        h = spec.total()
        assert reflect(h).almost_equal(h)
        assert spec.validated_rule is CouplingRule.ALL_NONNEG

    def test_with_h_minus(self):
        n = 3
        h_minus = mono((1, 2, 0, 0), n, coeff=0.7 + 0.1j)
        table = CouplingTable({ExponentVector((1, 1, 0, 0), n): 0.3})
        spec = assemble(h_minus, table)
        assert spec.h_plus.almost_equal(reflect(h_minus))
        report = check_symmetries(spec)
        assert report == {"reflection_symbolic": True, "gauge_symbolic": True}

    def test_rejects_non_observable(self):
        with pytest.raises(SpecError, match="offending"):
            assemble(mono((1, 0, 0, 0), 3), CouplingTable())

    def test_rejects_crossing_h_minus(self):
        with pytest.raises(SpecError):
            assemble(mono((1, 0, 0, 2), 3), CouplingTable())


class TestCheckSymmetries:
    def test_negative_control(self):
        # A spec cannot hold a wrong plus part, so the check gets a stand-in
        # whose H = H_- + 2 theta(H_-) is not theta-invariant.
        n = 3
        h_minus = mono((1, 2, 0, 0), n)

        class Asymmetric:
            def total(self):
                return h_minus + mono((0, 0, 2, 1), n, coeff=2.0)

        report = check_symmetries(Asymmetric())
        assert not report["reflection_symbolic"]
        assert report["gauge_symbolic"]

    def test_reads_the_spec_alone(self):
        assert list(inspect.signature(check_symmetries).parameters) == ["spec"]

    @pytest.mark.parametrize("n,L", [(2, 2), (2, 6), (3, 4), (3, 6), (4, 4),
                                     (5, 2), (2, 8)])
    def test_parseval_gaps_are_the_dense_gaps(self, n, L):
        """sqrt(dim) times the 2-norm of the coefficient difference is the
        dense gap ||to_matrix(f(H)) - to_matrix(H)||_F, and each symbolic
        verdict holds exactly when that gap is at most 1e-10 of the scale:
        on specs, and on a stand-in whose H is neither theta- nor
        gauge-invariant, where both gaps are far from zero."""
        rep = rep_for(n, L)
        rng = np.random.default_rng(11 * n + L)
        charged = mono([1] + [0] * (L - 1), n, coeff=0.3 - 0.2j)
        stand_in = general_spec(n, L, rng).total() + charged

        class StandIn:
            def total(self):
                return stand_in

        for spec in (baxter_spec(n, L, rng), general_spec(n, L, rng), StandIn()):
            h = spec.total()
            m = to_matrix(h, rep)
            dense = [float(np.linalg.norm(to_matrix(f(h), rep) - m))
                     for f in (reflect, gauge_apply)]
            scale = 1.0 + float(np.linalg.norm(m))
            gaps = [math.sqrt(rep.dim) * float(np.linalg.norm(
                f(h)._difference(h))) for f in (reflect, gauge_apply)]
            assert np.allclose(gaps, dense, rtol=1e-12, atol=1e-13 * scale)
            report = check_symmetries(spec)
            verdicts = [report["reflection_symbolic"], report["gauge_symbolic"]]
            assert verdicts == [gap <= 1e-10 * scale for gap in dense]
            if isinstance(spec, StandIn):
                assert min(dense) > 0.1 and verdicts == [False, False]
            else:
                assert verdicts == [True, True]

    def test_check_symmetries_holds_no_matrix(self):
        """The Baxter test spec at (4, 12), dim 4096: a dense matrix of H
        alone would take 256 MiB; the whole check peaks below 1 MiB."""
        n, L = 4, 12
        t = [1.0] * (L - 1)
        t[L // 2 - 1] = -0.5
        spec = baxter(n, L, t)
        check_symmetries(spec)  # the caches of the first call
        tracemalloc.start()
        try:
            report = check_symmetries(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(report.values()) and peak < 2**20


class TestSpecIsDerived:
    """A spec is determined by (H_-, J): it cannot be given or changed into
    one that is not of the form H_- + H_0 + theta(H_-)."""

    def spec(self):
        n = 3
        return assemble(
            mono((1, 2, 0, 0), n, coeff=0.7),
            CouplingTable({ExponentVector((1, 1, 0, 0), n): 0.3}),
        )

    def test_signature_is_h_minus_and_couplings(self):
        params = inspect.signature(HamiltonianSpec).parameters
        assert list(params) == ["h_minus", "couplings"]

    def test_derived_parts_cannot_be_given(self):
        h_minus = mono((1, 2, 0, 0), 3)
        with pytest.raises(TypeError):
            HamiltonianSpec(
                h_minus=h_minus, couplings=CouplingTable(),
                h_plus=2.0 * reflect(h_minus),
            )

    @pytest.mark.parametrize(
        "name",
        ["order", "sites", "h_minus", "h_zero", "h_plus", "validated_rule",
         "couplings", "_total", "new_attribute"],
    )
    def test_no_attribute_can_be_assigned(self, name):
        spec = self.spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, spec.h_plus)

    def test_h_minus_on_the_plus_half_is_refused(self):
        with pytest.raises(SpecError, match="offending terms"):
            HamiltonianSpec(mono((0, 0, 2, 1), 3), CouplingTable())

    def test_total_is_summed_once(self):
        spec = self.spec()
        assert spec.total() is spec.total()
        assert spec.total().almost_equal(
            spec.h_minus + spec.h_zero + reflect(spec.h_minus)
        )

    def test_later_coupling_changes_do_not_reach_the_spec(self):
        n, L = 3, 4
        vec = ExponentVector((1, 1, 0, 0), n)
        table = CouplingTable({vec: 0.3})
        spec = assemble(Polynomial.zero(n, L), table)
        table[vec] = -5.0
        table[ExponentVector((2, 0, 0, 0), n)] = 1.0
        assert spec.h_zero.almost_equal(build_h0(CouplingTable({vec: 0.3}), n, L))
        assert spec.validated_rule is CouplingRule.ALL_NONNEG
        assert not hasattr(spec, "couplings")

    @pytest.mark.parametrize(
        "coeff", [1e308, complex(1e308, -1e308), float("inf"),
                  complex(float("inf"), -float("inf"))]
    )
    def test_non_finite_h_is_refused_without_warnings(self, coeff):
        # The constant term of H is c + conj(c): inf for the finite c, and
        # NaN, dropped from H, for inf - inf j.
        h_minus = Polynomial.monomial(coeff, ExponentVector((0, 0, 0, 0), 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="non-finite"):
                assemble(h_minus, CouplingTable())


class TestBaxter:
    def test_two_site_chain(self):
        spec = baxter(2, 2, [-1.0])
        # single crossing bond, J = -t = +1 >= 0
        assert spec.validated_rule is CouplingRule.ALL_NONNEG
        assert spec.h_minus.is_zero()
        h0 = build_h0(CouplingTable({unit_vector(2, 2, 1): 1.0}), 2, 2)
        assert spec.h_zero.almost_equal(h0)

    def test_odd_n_positive_middle_coupling_flagged(self):
        spec = baxter(3, 4, [1.0, 0.5, 1.0])
        assert spec.validated_rule is CouplingRule.NONE

    def test_even_n_any_sign(self):
        spec = baxter(4, 4, [1.0, -2.0, 1.0])
        assert spec.validated_rule is CouplingRule.ALL_NONNEG
        spec2 = baxter(4, 4, [1.0, 2.0, 1.0])
        assert spec2.validated_rule is CouplingRule.EVEN_N_ALTERNATING

    def test_asymmetric_rejected(self):
        with pytest.raises(SpecError, match="t_1"):
            baxter(3, 6, [1.0, 0.5, -1.0, 0.5, 2.0])

    @pytest.mark.parametrize("n,L", [(2, 4), (3, 4), (4, 4)])
    def test_matches_hopping_form(self, n, L):
        # assembled H equals omega^{(n-1)/2} sum_j t_j c_{j+1}^* c_j
        t = [0.8, -0.3, 0.8][: L - 1]
        spec = baxter(n, L, t)
        rep = rep_for(n, L)
        h = to_matrix(spec.total(), rep)
        direct = np.zeros_like(h)
        pref = zeta_power(n, n - 1)  # omega^{(n-1)/2}
        for j in range(1, L):
            cj = rep.generators[j - 1]
            cj1_star = rep.generators[j].conj().T
            direct += pref * t[j - 1] * (cj1_star @ cj)
        assert np.abs(h - direct).max() < 1e-10

    @pytest.mark.parametrize("L", [4, 6])
    def test_equal_couplings_any_cut(self, L):
        # equal couplings keep the chain reflection symmetric for every
        # (even) relabeling of the cut position
        spec = baxter(3, L, [-0.7] * (L - 1))
        report = check_symmetries(spec)
        assert report["reflection_symbolic"] and report["gauge_symbolic"]


class TestSpecFiles:
    def test_baxter_shortcut(self, tmp_path):
        path = tmp_path / "baxter.json"
        path.write_text(json.dumps({"baxter": {"n": 3, "L": 4, "t": [1.0, -0.5, 1.0]}}))
        spec = load_spec(str(path))
        assert spec.order == 3 and spec.sites == 4
        assert spec.validated_rule is CouplingRule.ALL_NONNEG

    def test_full_form(self, tmp_path):
        data = {
            "n": 3,
            "L": 4,
            "h_minus": [
                {"coefficient": [0.5, -0.25], "exponents": [1, 2, 0, 0]}
            ],
            "couplings": [{"exponents": [1, 1, 0, 0], "J": 0.4}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = load_spec(str(path))
        vec = ExponentVector((1, 2, 0, 0), 3)
        assert abs(spec.h_minus.coefficient(vec) - (0.5 - 0.25j)) < 1e-15

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "L": 2, "couplings": [{"exponents": [1, 0], "J": NaN}]}')
        with pytest.raises(SpecError, match="non-finite"):
            load_spec(str(path))

    def test_rejects_out_of_range_exponent(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 3, "L": 2,
            "couplings": [{"exponents": [5, 0], "J": 1.0}],
        }))
        with pytest.raises(SpecError, match=r"couplings\[0\].*site 1"):
            load_spec(str(path))

    def test_rejects_repeated_coupling_exponents(self):
        """A coupling key listed twice would keep only its last J."""
        data = {"n": 3, "L": 4, "couplings": [
            {"exponents": [1, 0, 0, 0], "J": 1.0},
            {"exponents": [0, 1, 0, 0], "J": 0.5},
            {"exponents": [1, 0, 0, 0], "J": -2.0}]}
        with pytest.raises(SpecError) as exc:
            spec_from_dict(data)
        assert str(exc.value) == "couplings[2]: exponents repeat couplings[0]"

    @pytest.mark.parametrize("data, message", [
        ({"n": 3, "L": 4, "coupling": [{"exponents": [1, 0, 0, 0], "J": -1.0}]},
         "unknown field 'coupling'"),
        ({"baxter": {"n": 3, "L": 4, "t": [1.0, -0.5, 1.0]},
          "couplings": [{"exponents": [1, 0, 0, 0], "J": 1.0}]},
         "unknown field 'couplings'"),
        ({"baxter": {"n": 3, "L": 4, "t": [1.0, -0.5, 1.0], "J": 1, "K": 2}},
         "baxter: unknown field 'J'"),
        ({"n": 3, "L": 4, "h_minus": [
            {"coefficient": [0.5, 0], "exponents": [1, 2, 0, 0]},
            {"coefficient": [0.5, 0], "exponents": [2, 1, 0, 0], "coeff": 1}]},
         "h_minus[1]: unknown field 'coeff'"),
        ({"n": 3, "L": 4, "couplings": [
            {"exponents": [1, 0, 0, 0], "j": 1.0, "J": 1.0}]},
         "couplings[0]: unknown field 'j'"),
        ({"L": 4, "extra": 1, "n": 3, "other": 2}, "unknown field 'extra'"),
    ])
    def test_rejects_unknown_fields(self, data, message):
        """A misspelt key would otherwise drop a part of H in silence; the
        first unknown key in document order is named."""
        with pytest.raises(SpecError) as exc:
            spec_from_dict(data)
        assert str(exc.value) == message

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n  "L": }')
        with pytest.raises(SpecError, match="line 2"):
            load_spec(str(path))
