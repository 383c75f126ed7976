import cmath
import math

import numpy as np
import pytest

from pararp.algebra import (
    Polynomial,
    Side,
    _zeta_array,
    adjoint,
    canonical_product,
    classify,
    from_text,
    gauge_apply,
    omega_power,
    reflect,
    sum_polynomials,
    to_text,
    zeta_power,
)
from pararp.exponents import ExponentVector, circ, unit_vector, zero_vector
from pararp.hamiltonian import CouplingTable, SpecError, build_h0


def mono(entries, n, coeff=1.0):
    return Polynomial.monomial(coeff, ExponentVector(tuple(entries), n))


def random_poly(n, L, rng, max_terms=4):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        entries = tuple(int(e) for e in rng.integers(0, n, size=L))
        terms[ExponentVector(entries, n)] = complex(rng.normal(), rng.normal())
    return Polynomial(terms, n, L)


class TestCanonicalProduct:
    def test_identity_neutral(self):
        p = mono((1, 2), 3, coeff=2.5 - 1j)
        assert canonical_product(p, Polynomial.identity(3, 2)).almost_equal(p)

    def test_reordering_phase(self):
        # C_(0,1) C_(1,0) = omega^{-1} C_(1,1)
        prod = canonical_product(mono((0, 1), 3), mono((1, 0), 3))
        expected = mono((1, 1), 3, coeff=omega_power(3, -1))
        assert prod.almost_equal(expected)

    def test_same_site_powers(self):
        # C_(2,0) C_(2,0) = C_(1,0), no reordering phase
        prod = canonical_product(mono((2, 0), 3), mono((2, 0), 3))
        assert prod.almost_equal(mono((1, 0), 3))

    def test_associativity_random(self):
        rng = np.random.default_rng(11)
        for n, L in [(2, 4), (3, 2), (4, 4)]:
            for _ in range(20):
                p, q, r = (random_poly(n, L, rng) for _ in range(3))
                lhs = canonical_product(canonical_product(p, q), r)
                rhs = canonical_product(p, canonical_product(q, r))
                assert lhs.almost_equal(rhs, 1e-10)


class TestAdjoint:
    def test_identity(self):
        one = Polynomial.identity(3, 2)
        assert adjoint(one).almost_equal(one)

    def test_example(self):
        # adjoint(C_(1,1)) = omega^{-1} C_(2,2)
        assert adjoint(mono((1, 1), 3)).almost_equal(
            mono((2, 2), 3, coeff=omega_power(3, -1))
        )

    def test_unitary_monomials(self):
        rng = np.random.default_rng(3)
        for n, L in [(2, 2), (3, 4), (5, 2)]:
            for _ in range(10):
                entries = tuple(int(e) for e in rng.integers(0, n, size=L))
                p = mono(entries, n)
                prod = canonical_product(adjoint(p), p)
                assert prod.almost_equal(Polynomial.identity(n, L))

    def test_involution_and_antiautomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_poly(3, 4, rng)
            q = random_poly(3, 4, rng)
            assert adjoint(adjoint(p)).almost_equal(p)
            lhs = adjoint(canonical_product(p, q))
            rhs = canonical_product(adjoint(q), adjoint(p))
            assert lhs.almost_equal(rhs, 1e-10)


class TestReflect:
    def test_generator(self):
        # reflect(c_1) = c_2^{n-1}
        for n in (2, 3, 5):
            assert reflect(mono((1, 0), n)).almost_equal(mono((0, n - 1), n))

    def test_crossing_monomial(self):
        # reflect(C_(1,1)) = omega^{-1} C_(n-1, n-1)
        for n in (2, 3, 4, 7):
            assert reflect(mono((1, 1), n)).almost_equal(
                mono((n - 1, n - 1), n, coeff=omega_power(n, -1))
            )

    def test_involution_multiplicative_antilinear(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_poly(3, 4, rng)
            q = random_poly(3, 4, rng)
            alpha = complex(rng.normal(), rng.normal())
            assert reflect(reflect(p)).almost_equal(p)
            lhs = reflect(alpha * canonical_product(p, q))
            rhs = alpha.conjugate() * canonical_product(reflect(p), reflect(q))
            assert lhs.almost_equal(rhs, 1e-10)


class TestRearrangementLemmas:
    def test_elementary(self):
        # I on the plus half, I' on the minus half:
        # C_I C_I' = omega^{-|I||I'|} C_I' C_I
        rng = np.random.default_rng(6)
        for n, L in [(2, 4), (3, 4), (5, 2)]:
            half = L // 2
            for _ in range(20):
                ip = tuple([0] * half + [int(e) for e in rng.integers(0, n, half)])
                im = tuple([int(e) for e in rng.integers(0, n, half)] + [0] * half)
                p, q = mono(ip, n), mono(im, n)
                lhs = canonical_product(p, q)
                rhs = omega_power(n, -sum(ip) * sum(im)) * canonical_product(q, p)
                assert lhs.almost_equal(rhs, 1e-12)

    def test_crossing(self):
        # I, I' on the minus half:
        # reflect(C_I) C_I' = omega^{|I||I'|} C_I' reflect(C_I)
        rng = np.random.default_rng(7)
        for n, L in [(2, 4), (3, 4), (4, 2)]:
            half = L // 2
            for _ in range(20):
                i = tuple([int(e) for e in rng.integers(0, n, half)] + [0] * half)
                ip = tuple([int(e) for e in rng.integers(0, n, half)] + [0] * half)
                ti = reflect(mono(i, n))
                q = mono(ip, n)
                lhs = canonical_product(ti, q)
                rhs = omega_power(n, sum(i) * sum(ip)) * canonical_product(q, ti)
                assert lhs.almost_equal(rhs, 1e-12)


class TestGauge:
    def test_global_on_observable(self):
        p = mono((1, 2), 3)  # degree 3 = 0 mod 3
        assert gauge_apply(p).almost_equal(p)

    def test_global_on_generator(self):
        p = mono((1, 0), 3)
        assert gauge_apply(p).almost_equal(omega_power(3, 1) * p)

    def test_local(self):
        p = mono((1, 2), 3)
        assert gauge_apply(p, site=2).almost_equal(omega_power(3, 2) * p)
        with pytest.raises(ValueError):
            gauge_apply(p, site=3)


class TestClassify:
    def test_scalar(self):
        sc = classify(Polynomial.identity(3, 2))
        assert sc.side is Side.SCALAR and sc.observable

    def test_crossing_observable(self):
        sc = classify(mono((1, 2), 3))
        assert sc.side is Side.CROSSING and sc.observable

    def test_minus_observable(self):
        sc = classify(mono((1, 2, 0, 0), 3))
        assert sc.side is Side.MINUS and sc.observable

    def test_plus_non_observable(self):
        sc = classify(mono((0, 0, 1, 0), 3))
        assert sc.side is Side.PLUS and not sc.observable


def build_x(vec, coupling):
    """The crossing term (-1)^{d+1} zeta^{d^2} J C_I theta(C_I) of I alone."""
    return build_h0(CouplingTable({vec: coupling}), vec.order, vec.sites)


class TestBuildX:
    def test_majorana_case(self):
        # n=2, L=2, I=(1,0): X = i J c_1 c_2
        x = build_x(ExponentVector((1, 0), 2), 2.0)
        assert x.almost_equal(mono((1, 1), 2, coeff=2.0j))

    def test_reflection_and_gauge_invariance(self):
        rng = np.random.default_rng(8)
        for n, L in [(2, 4), (3, 4), (5, 2)]:
            half = L // 2
            for _ in range(15):
                entries = [int(e) for e in rng.integers(0, n, half)] + [0] * half
                if not any(entries[:half]):
                    entries[0] = 1
                vec = ExponentVector(tuple(entries), n)
                x = build_x(vec, float(rng.normal()))
                assert reflect(x).almost_equal(x, 1e-12)
                assert gauge_apply(x).almost_equal(x, 1e-12)

    def test_rejects_wrong_support(self):
        with pytest.raises(SpecError, match="not supported on sites 1..L/2"):
            build_x(ExponentVector((0, 1), 3), 1.0)
        with pytest.raises(SpecError, match="positive degree"):
            build_x(zero_vector(3, 2), 1.0)
        with pytest.raises(SpecError, match="does not match n, L"):
            build_h0(CouplingTable({ExponentVector((1, 0), 3): 1.0}), 3, 4)


class TestHermiticity:
    def test_condition(self):
        # The crossing monomial built on I has the monomial of its adjoint,
        # so can be hermitian, iff I^c = I: every nonzero entry is n/2.
        for entries, n, same in [
            ((1, 0), 3, False),
            ((1, 0, 0, 0), 2, True),
            ((2, 2, 0, 0), 4, True),
            ((1, 3, 0, 0), 4, False),
        ]:
            x = build_x(ExponentVector(entries, n), 1.0)
            assert np.array_equal(adjoint(x).exponents, x.exponents) == same

    def test_hermitian_pair_example(self):
        # Y = zeta J c_1 theta(c_1) at n=3:
        # Y + Y* = zeta J (c_1 c_2^2 + c_1^2 c_2)
        n, j = 3, 1.7
        zeta = zeta_power(n, 1)
        y = (j * zeta) * canonical_product(
            mono((1, 0), n), reflect(mono((1, 0), n))
        )
        expected = (j * zeta) * (mono((1, 2), n) + mono((2, 1), n))
        assert (y + adjoint(y)).almost_equal(expected)

    def test_pair_is_selfadjoint(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            y = random_poly(3, 4, rng)
            h = y + adjoint(y)
            assert adjoint(h).almost_equal(h, 1e-10)

    def test_hermitian_input_doubles(self):
        y = mono((1, 1, 0, 0), 2, coeff=1.0)  # (c_1 c_2)* needs check
        h = y + adjoint(y)
        assert (h + adjoint(h)).almost_equal(2 * h)  # h is hermitian


class TestReflectedCombination:
    def test_prop2_restated(self):
        # Y = e^{i theta} C_I theta(C_I):
        # Y + reflect(Y) = 2 cos(theta - pi d^2 / n) zeta^{d^2} C_I theta(C_I)
        rng = np.random.default_rng(10)
        for n, L in [(2, 2), (3, 4), (5, 2)]:
            half = L // 2
            for _ in range(10):
                entries = [int(e) for e in rng.integers(0, n, half)] + [0] * half
                if not any(entries[:half]):
                    entries[0] = 1
                vec = ExponentVector(tuple(entries), n)
                d = sum(entries)
                theta = float(rng.uniform(0, 2 * math.pi))
                body = canonical_product(
                    Polynomial.monomial(1.0, vec),
                    reflect(Polynomial.monomial(1.0, vec)),
                )
                y = cmath.exp(1j * theta) * body
                lhs = y + reflect(y)
                factor = 2 * math.cos(theta - math.pi * d * d / n)
                rhs = (factor * zeta_power(n, d * d)) * body
                assert lhs.almost_equal(rhs, 1e-10)


class TestPhaseExponent:
    """Phases are zeta exponents: integers mod 2n."""

    def test_expansion_phase_collapse(self):
        # (-1)^S omega^{S^2/2} = zeta^{S n + S^2} = 1 whenever S = alpha * n
        for n in range(2, 13):
            for alpha in range(0, 9):
                s = alpha * n
                assert (s * n + s * s) % (2 * n) == 0, (n, alpha)


def test_phase_exponents_past_int64():
    """The monomial with all L = 4000 entries n - 1 at n = 10^6: (sum a)^2
    and circ(I, I) are beyond 2^63, and reflect, adjoint and the product
    still give the phase of exact integer arithmetic."""
    n, L = 10**6, 4000
    p = Polynomial.monomial(1.0, ExponentVector((n - 1,) * L, n))
    s, q = L * (n - 1), L * (n - 1) ** 2  # sum a and sum a^2
    expected = [zeta_power(n, q - s * s)]  # omega^{-circ(I, I)}
    try:
        assert circ(p.exponents.astype(object), p.exponents).tolist() == [
            [(s * s - q) // 2]
        ]
        assert reflect(p).coeffs.tolist() == expected
        assert adjoint(p).coeffs.tolist() == expected
        assert canonical_product(p, p).coeffs.tolist() == expected
    finally:  # the table of 2n roots at n = 10^6 holds 32 MB
        _zeta_array.cache_clear()


class TestSerialization:
    def test_round_trip_exact(self):
        n, L = 3, 4
        zeta = zeta_power(n, 1)
        p = (
            mono((1, 2, 0, 0), n, coeff=3 * zeta)
            + mono((0, 0, 0, 0), n, coeff=-2.0 + 0.5j)
            + mono((2, 2, 1, 0), n, coeff=zeta_power(n, 5))
        )
        q = from_text(to_text(p))
        assert q.order == n and q.sites == L
        q_terms = q.terms
        assert set(q_terms) == set(p.terms)
        for vec, c in p.terms.items():
            assert q_terms[vec] == c  # exact float round-trip

    def test_identity_term(self):
        p = Polynomial.identity(4, 2)
        assert from_text(to_text(p)).almost_equal(p)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            from_text("(1+0j) * c1^1\n")


def test_zeta_table_is_the_per_exponent_expression():
    """zeta_power, omega_power and _zeta_array give, bit for bit, the
    entries cmath.exp(i pi k / n), k = 0 .. 2n - 1, of the former tuple
    table, for any integer exponent."""
    for n in (2, 3, 5, 12, 1000, 10**5 + 3):
        table = [cmath.exp(1j * math.pi * k / n) for k in range(2 * n)]
        array = _zeta_array(n)
        assert not array.flags.writeable
        assert array.tobytes() == np.array(table).tobytes()
        for k in (0, 1, n - 1, n, 2 * n - 1, 2 * n, -1, -n - 7, 5 * n + 3,
                  10**30 + 1, -(10**25)):
            assert zeta_power(n, k) == table[k % (2 * n)]
            assert omega_power(n, k) == table[2 * k % (2 * n)]
    _zeta_array.cache_clear()


def test_zeta_table_memory_is_one_array():
    """The first operation at n = 10^5 holds one array of 2n roots (3.1 MiB)
    and no tuple of 2n Python complex numbers beside it (the tuple and the
    array together peaked at 11 MiB; at n = 10^6, 137 MiB against 30.5)."""
    import tracemalloc

    n = 10**5
    p = Polynomial.monomial(1.0, ExponentVector((n - 1, 3), n))
    _zeta_array.cache_clear()
    tracemalloc.start()
    try:
        q = reflect(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _zeta_array.cache_clear()
    assert q.coeffs.tolist() == [zeta_power(n, (n - 1) ** 2 + 9 - (n + 2) ** 2)]
    assert peak < 2 * n * 16 + (1 << 20), peak


def test_huge_finite_coefficient_is_kept_and_nan_dropped():
    """The dict constructor keeps a finite coefficient whose modulus is
    beyond the float range, and drops zero and NaN ones; ``_from_arrays``,
    sums and products drop a NaN part as it does."""
    vecs = [ExponentVector((k, 0), 3) for k in range(3)]
    big = 1.7e308 + 1.7e308j
    p = Polynomial({vecs[0]: big, vecs[1]: complex(math.nan, 1.0),
                    vecs[2]: 0j}, 3, 2)
    assert p.terms == {vecs[0]: big}
    q = Polynomial({vecs[0]: complex(1.0, math.nan), vecs[1]: -0.0}, 3, 2)
    assert q.is_zero()
    # One term filter: a NaN part drops a term whatever the other part is,
    # in every constructor, though the modulus of such a term is infinite.
    inf, rows = math.inf, np.array([[0, 0], [1, 0]])
    cases = [(complex(inf, math.nan), complex(1.0, -inf), 10.0),
             (complex(math.nan, inf), complex(-inf, 1.0), 10j)]
    with np.errstate(over="ignore", invalid="ignore"):
        for bad, other, y in cases:
            p = Polynomial({vecs[0]: bad, vecs[1]: big}, 3, 2)
            assert p.terms == {vecs[1]: big}
            p = Polynomial._from_arrays(rows, np.array([bad, big]), 3, 2)
            assert p.terms == {vecs[1]: big}
            # (inf + inf i) + other is ``bad``.
            p = Polynomial({vecs[0]: complex(inf, inf), vecs[1]: big}, 3, 2)
            q = Polynomial({vecs[0]: other}, 3, 2)
            assert sum_polynomials([p, q]).terms == {vecs[1]: big}
            # 1e308 y times the phase 1 + 0i of C_0 C_0 is ``bad`` too, with
            # Python's complex product.
            assert repr((1e308 + 0j) * y * (1 + 0j)) == repr(bad)
            p = Polynomial({vecs[0]: 1e308}, 3, 2)
            q = Polynomial({vecs[0]: y, vecs[1]: 1.0}, 3, 2)
            assert canonical_product(p, q).terms == {vecs[1]: 1e308 + 0j}
