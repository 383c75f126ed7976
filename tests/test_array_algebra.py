"""The array-backed symbolic algebra against term-by-term reference loops.

Each reference below is the dict-of-ExponentVector implementation the array
kernels replaced, written with the scalar definitions of the exponent
arithmetic (``ref_circ``, ``ref_add_vectors``, ``ref_complement``,
``ref_reflect_vector``) and Python complex arithmetic.  The kernels must
give the same terms with bit-identical coefficients (compared through
``float.hex``, so even the sign of a zero counts).
"""

import re
import time
import tracemalloc

import numpy as np
import pytest

from pararp import algebra, rp
from pararp.algebra import (
    Polynomial,
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
from pararp.exponents import ExponentVector, degree, unit_vector, zero_vector
from pararp.hamiltonian import CouplingTable, baxter, build_h0
from pararp.representation import build_generators, to_matrix, weyl_table

from conftest import dense_matrix, dense_trotter, pair_forms, rep_for

CELLS = [(n, L) for n in (2, 3, 4, 5) for L in (2, 4, 8, 12, 20)]
WIDE = (5, 28)  # 5^28 > 2^63: rows need two int64 codes


# -- reference implementations (one Python loop per term or term pair) ----


def ref_circ(a, b):
    """Sum of a_i * b_j over pairs with i > j (left factor's index greater)."""
    total = 0
    prefix = 0
    for i in range(a.sites):
        if i > 0:
            prefix += b.entries[i - 1]
        total += a.entries[i] * prefix
    return total


def ref_add_vectors(a, b):
    """Componentwise sum mod n."""
    n = a.order
    return ExponentVector(tuple((x + y) % n for x, y in zip(a.entries, b.entries)), n)


def ref_complement(a):
    """Entrywise n - a_j, reduced mod n so zero entries stay zero."""
    n = a.order
    return ExponentVector(tuple((n - e) % n for e in a.entries), n)


def ref_reflect_vector(a):
    """Site reversal i -> L - i + 1."""
    return ExponentVector(tuple(reversed(a.entries)), a.order)


def ref_clean(terms):
    return {v: c for v, c in terms.items() if c != 0 and abs(c) > 0}


def ref_product(p, q):
    n, out = p.order, {}
    for vi, ci in p.terms.items():
        for vj, cj in q.terms.items():
            phase = omega_power(n, -ref_circ(vi, vj))
            key = ref_add_vectors(vi, vj)
            s = out.get(key, 0) + ci * cj * phase
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return ref_clean(out)


def ref_conjugate(p, key_of):
    n, out = p.order, {}
    for vec, c in p.terms.items():
        key = key_of(vec)
        phase = omega_power(n, -ref_circ(vec, vec))
        out[key] = out.get(key, 0) + c.conjugate() * phase
    return ref_clean(out)


def ref_reflect(p):
    return ref_conjugate(p, lambda v: ref_reflect_vector(ref_complement(v)))


def ref_adjoint(p):
    return ref_conjugate(p, ref_complement)


def ref_gauge(p, site=None):
    return ref_clean({
        v: c * omega_power(p.order, degree(v) if site is None else v.entries[site - 1])
        for v, c in p.terms.items()
    })


def ref_add(p, q):
    out = dict(p.terms)
    for vec, c in q.terms.items():
        s = out.get(vec, 0) + c
        if s == 0:
            out.pop(vec, None)
        else:
            out[vec] = s
    return ref_clean(out)


def ref_almost_equal(p, q, tol=algebra.COEFF_TOL):
    p, q = p.terms, q.terms
    keys = set(p) | set(q)
    scale = 1.0 + max(sum(abs(c) for c in p.values()),
                      sum(abs(c) for c in q.values()))
    return all(abs(p.get(k, 0) - q.get(k, 0)) <= tol * scale for k in keys)


def ref_to_text(p):
    lines = [f"# n={p.order} L={p.sites}"]
    terms = p.terms
    for vec in sorted(terms, key=lambda v: v.entries):
        factors = " ".join(
            f"c{j + 1}^{e}" for j, e in enumerate(vec.entries) if e != 0
        )
        lines.append(f"{terms[vec]!r} * {factors if factors else '1'}")
    return "\n".join(lines) + "\n"


_REF_MONOMIAL = re.compile(
    r"c[0-9]{1,18}\^[0-9]{1,18}(?:\s+c[0-9]{1,18}\^[0-9]{1,18})*")


def ref_from_text(text):
    """The per-line parser from_text replaced: one loop over the lines, then
    the factors' numbers through a list of strings."""
    coeffs, monomials, linenos = [], [], []
    n = L = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if n is None:
                try:
                    fields = dict(f.split("=") for f in line[1:].split())
                    n, L = int(fields["n"]), int(fields["L"])
                except (KeyError, ValueError):
                    raise ValueError(
                        f"line {lineno}: header is not '# n=.. L=..'"
                    ) from None
            continue
        if n is None:
            raise ValueError(f"line {lineno}: term before '# n=.. L=..' header")
        coeff_str, _, mono = line.partition("*")
        mono = mono.strip()
        try:
            coeffs.append(complex(coeff_str))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if mono == "1":
            mono = ""
        elif _REF_MONOMIAL.fullmatch(mono) is None:
            raise ValueError(f"line {lineno}: bad monomial {mono!r}")
        monomials.append(mono)
        linenos.append(lineno)
    if n is None:
        raise ValueError("missing '# n=.. L=..' header")
    zero_vector(n, L)  # validates n and L
    numbers = " ".join(monomials).replace("c", " ").replace("^", " ").split()
    site, power = (np.array(numbers, dtype=np.int64).reshape(-1, 2) - (1, 0)).T
    term = np.repeat(np.arange(len(monomials)), [m.count("^") for m in monomials])
    bad = (site < 0) | (site >= L) | (power >= n)
    slot = np.where(bad, -1 - np.arange(len(site)), term * L + site)
    repeated = np.ones(len(slot), dtype=bool)
    repeated[np.unique(slot, return_index=True)[1]] = False
    if (bad | repeated).any():
        k = int(np.argmax(bad | repeated))
        s, e = int(site[k]) + 1, int(power[k])
        reason = (
            f"site {s} outside 1..{L}" if not 0 < s <= L
            else f"exponent {e} of site {s} outside 0..{n - 1}" if e >= n
            else f"site {s} appears twice"
        )
        raise ValueError(f"line {linenos[term[k]]}: {reason}")
    out = {}
    for t, c in enumerate(coeffs):
        entries = [0] * L
        for j, e in zip(site[term == t].tolist(), power[term == t].tolist()):
            entries[j] = e
        key = ExponentVector(tuple(entries), n)
        out[key] = out.get(key, 0) + c
    return out


def ref_classify(p):
    observable = all(degree(v) % p.order == 0 for v in p.terms)
    nonscalar = [v for v in p.terms if not v.is_zero()]
    half = p.sites // 2
    if not nonscalar:
        return algebra.Side.SCALAR, observable
    if all(v.supported_on_minus() for v in nonscalar):
        return algebra.Side.MINUS, observable
    if all(not any(v.entries[:half]) for v in nonscalar):
        return algebra.Side.PLUS, observable
    return algebra.Side.CROSSING, observable


# -- helpers -------------------------------------------------------------------


def bits(terms):
    """Terms as exponent tuple -> (real hex, imag hex): equal iff the same
    keys with bit-identical coefficients."""
    return {v.entries: (c.real.hex(), c.imag.hex()) for v, c in terms.items()}


def assert_same(poly, ref_terms):
    assert bits(poly.terms) == bits(ref_terms)


def random_poly(n, L, rng, terms=6, support=None):
    """Up to ``terms`` random monomials; with ``support``, only the first
    ``support`` sites are nonzero, so products collide on keys."""
    support = L if support is None else support
    out = {}
    for _ in range(terms):
        entries = [int(e) for e in rng.integers(0, n, size=support)]
        vec = ExponentVector(tuple(entries + [0] * (L - support)), n)
        out[vec] = complex(rng.normal(), rng.normal())
    return Polynomial(out, n, L)


def mono(entries, n, coeff=1.0):
    return Polynomial.monomial(coeff, ExponentVector(tuple(entries), n))


def polys_for(n, L, seed):
    rng = np.random.default_rng(seed)
    # Real coefficients make the sign of zero parts matter: conj(-1.5) * 1
    # and 1 * (-0.5-0j) have imaginary part -0.0, which 0 + turns into 0.0.
    real = {v: c.real for v, c in random_poly(n, L, rng, terms=4).terms.items()}
    real[zero_vector(n, L)] = -1.5
    real[unit_vector(n, L, 1)] = complex(-0.5, -0.0)
    return [
        random_poly(n, L, rng, terms=1),
        random_poly(n, L, rng, terms=7),
        random_poly(n, L, rng, terms=9, support=min(L, 3)),
        Polynomial(real, n, L),
        Polynomial.zero(n, L),
        Polynomial.identity(n, L),
    ]


# -- kernels against the references --------------------------------------------


@pytest.mark.parametrize("n,L", CELLS + [WIDE])
def test_unary_kernels_match_reference(n, L):
    for p in polys_for(n, L, seed=n * 100 + L):
        assert_same(reflect(p), ref_reflect(p))
        assert_same(adjoint(p), ref_adjoint(p))
        assert_same(gauge_apply(p), ref_gauge(p))
        assert_same(gauge_apply(p, site=L), ref_gauge(p, site=L))
        assert_same((0.5 - 2j) * p, {v: (0.5 - 2j) * c for v, c in p.terms.items()})
        assert (classify(p).side, classify(p).observable) == ref_classify(p)
        zero = zero_vector(n, L)
        assert p.constant_term() == p.terms.get(zero, 0j)
        assert p.norm1() == sum(abs(c) for c in p.terms.values())
        text = to_text(p)
        assert text == ref_to_text(p)
        # Lines are summed from 0, which makes a -0.0 part 0.0.
        assert_same(from_text(text), {v: 0 + c for v, c in p.terms.items()})


@pytest.mark.parametrize("n,L", CELLS + [WIDE])
def test_binary_kernels_match_reference(n, L):
    ps = polys_for(n, L, seed=n * 1000 + L)
    for p in ps:
        for q in ps:
            assert_same(canonical_product(p, q), ref_product(p, q))
            assert_same(p + q, ref_add(p, q))
            assert p.almost_equal(q) == ref_almost_equal(p, q)


@pytest.mark.parametrize("n,L", [(2, 4), (3, 8), (5, 20), WIDE])
def test_sum_is_the_left_fold(n, L):
    ps = polys_for(n, L, seed=7)
    ps.append((-1) * ps[1])  # cancels ps[1] term by term
    fold = ps[0]
    for p in ps[1:]:
        fold = fold + p
    assert_same(sum_polynomials(ps), fold.terms)
    ref = ps[0].terms
    for p in ps[1:]:
        ref = ref_add(Polynomial(ref, n, L), p)
    assert_same(fold, ref)


def test_exact_cancellation_in_a_product():
    # (1 + c1) (c1 - 1) = c1 + 1 - 1 - c1 = 0 exactly: every key cancels
    # to 0.0 after its second contribution.
    n, L = 2, 2
    p = mono((0, 0), n) + mono((1, 0), n)
    q = mono((1, 0), n) + mono((0, 0), n, coeff=-1.0)
    assert canonical_product(p, q).is_zero()
    assert ref_product(p, q) == {}
    # A third factor term revisits a cancelled key: the key is kept once,
    # with the sum restarted from zero as in the reference.
    q3 = q + mono((1, 1), n, coeff=0.25j)
    r = canonical_product(p + mono((0, 1), n, coeff=3.0), q3)
    assert_same(r, ref_product(p + mono((0, 1), n, coeff=3.0), q3))


def test_empty_polynomials():
    for n, L in [(2, 2), (3, 6), WIDE]:
        zero, p = Polynomial.zero(n, L), polys_for(n, L, seed=1)[1]
        for result in (canonical_product(zero, p), canonical_product(p, zero),
                       canonical_product(zero, zero), reflect(zero),
                       adjoint(zero), gauge_apply(zero), zero + zero,
                       p - p, from_text(to_text(zero))):
            assert result.is_zero() and result.terms == {}
            assert result.exponents.shape == (0, L)
        assert zero.constant_term() == 0j and zero.almost_equal(zero)
        assert classify(zero).side is algebra.Side.SCALAR


@pytest.mark.parametrize("block", [1, 7, 64])
def test_product_across_block_boundaries(monkeypatch, block):
    """Products build their P*Q*L exponent sums in blocks of rows of the
    left factor; any block size gives the same merge."""
    monkeypatch.setattr(algebra, "_BLOCK", block)
    for n, L in [(2, 12), (3, 8), (5, 20), WIDE]:
        rng = np.random.default_rng(block + n + L)
        p = random_poly(n, L, rng, terms=23, support=3)
        q = random_poly(n, L, rng, terms=11, support=3)
        assert_same(canonical_product(p, q), ref_product(p, q))


def test_wide_rows_group_by_every_site():
    """At n^L >= 2^63 two rows that agree on the first int64 chunk of sites
    but not on the last site are different keys."""
    n, L = WIDE
    head = [1] * (L - 1)
    a = ExponentVector(tuple(head + [0]), n)
    b = ExponentVector(tuple(head + [1]), n)
    p = Polynomial({a: 1.0, b: 2.0}, n, L)
    assert algebra._codes(p.exponents, n).shape[1] == 2
    s = p + Polynomial({b: 0.5, a: -1.0}, n, L)
    assert_same(s, {b: 2.5 + 0j})
    one = Polynomial.identity(n, L)
    assert_same(canonical_product(p, one), ref_product(p, one))
    assert_same(from_text(to_text(p) + "(1+0j) * " + " ".join(
        f"c{j + 1}^1" for j in range(L - 1)) + "\n"),
        {a: 2.0 + 0j, b: 2.0 + 0j})


def test_order_below_two_is_refused_not_looped():
    """Powers of 1 never exceed 2^63, so order 1 has no mixed-radix code."""
    zero = Polynomial({}, 1, 4)
    with pytest.raises(ValueError, match="order must be >= 2"):
        zero + zero


def test_symbolic_job_outputs_match_reference():
    """H^2, H^3 and the loop operator of a Baxter chain, as the benchmark's
    symbolic jobs build them."""
    spec = baxter(3, 8, [1.0, 0.7, 1.3, -0.4, 1.3, 0.7, 1.0])
    h = spec.total()
    h2 = canonical_product(h, h)
    assert_same(h2, ref_product(h, h))
    assert_same(canonical_product(h2, h), ref_product(h2, h))
    a = random_poly(3, 8, np.random.default_rng(4), terms=12, support=4)
    assert_same(canonical_product(a, reflect(a)), ref_product(a, reflect(a)))


# -- H_0 in closed form --------------------------------------------------------


def ref_build_h0(couplings, n, L):
    """H_0 coupling by coupling: (-1)^{d+1} J zeta^{d^2} omega^{-circ(I, I)}
    C_{I + reverse(I^c)} with Python's complex arithmetic, summed from 0."""
    out = {}
    for vec, j in couplings:
        d = degree(vec)
        sign = -1.0 if d % 2 == 0 else 1.0
        coeff = (sign * j * zeta_power(n, d * d)) * omega_power(n, -ref_circ(vec, vec))
        key = ref_add_vectors(vec, ref_reflect_vector(ref_complement(vec)))
        out[key] = out.get(key, 0) + coeff
    return ref_clean(out)


@pytest.mark.parametrize("n,L", [(2, 6), (3, 6), (4, 4)])
def test_build_x_closed_form(n, L):
    """One coupling J on I gives (-1)^{d+1} J zeta^{d^2} C_I theta(C_I)."""
    half = L // 2
    for head in np.ndindex(*(n,) * half):
        if not any(head):
            continue
        vec = ExponentVector(tuple(head) + (0,) * half, n)
        c_i = Polynomial.monomial(1.0, vec)
        body = canonical_product(c_i, reflect(c_i))
        assert len(body.coeffs) == 1
        d = degree(vec)
        for coupling in (1.0, -0.75):
            sign = -1.0 if d % 2 == 0 else 1.0
            expected = (sign * coupling * zeta_power(n, d * d)) * body
            h0 = build_h0(CouplingTable({vec: coupling}), n, L)
            assert_same(h0, {v: 0 + c for v, c in expected.terms.items()})


@pytest.mark.parametrize("n,L", [(2, 8), (3, 6), (4, 8), (5, 4), (7, 4)])
def test_build_h0_matches_per_coupling_reference(n, L):
    """Many couplings at once, of every scale down to signed zeros: the
    same terms, bit for bit and in table order, as coupling by coupling."""
    rng = np.random.default_rng(n * 100 + L)
    vecs = [v for d in range(1, (n - 1) * L // 2 + 1)
            for v in rp.minus_monomials_of_degree(n, L, d)]
    # Near 1e-308 a product underflows to a signed zero part, which the
    # sum from 0 turns into 0.0.
    scales = [1.0, -1.0, 1e300, -1e300, 1e-300, -1e-308, 1e-308, 0.0, -0.0]
    for _ in range(12):
        picks = rng.choice(len(vecs), size=min(10, len(vecs)), replace=False)
        table = CouplingTable({
            vecs[i]: float(rng.choice(scales)) * rng.normal() for i in picks
        })
        h0, ref = build_h0(table, n, L), ref_build_h0(table, n, L)
        assert_same(h0, ref)
        assert [tuple(row) for row in h0.exponents.tolist()] == [v.entries for v in ref]


def test_build_h0_is_exact_past_int64_squares():
    """Degree d = 3.1e9 > sqrt(2^63): d^2 mod 2n is taken without forming
    d^2 in int64, so the phases are those of exact integer arithmetic."""
    n, L = 10**5, 62_000
    vec = ExponentVector((n - 1,) * (L // 2) + (0,) * (L // 2), n)
    assert degree(vec) ** 2 > 2**63
    table = CouplingTable({vec: 0.5})
    assert_same(build_h0(table, n, L), ref_build_h0(table, n, L))


# -- the matrix oracle reads the exponent matrix --------------------------------


@pytest.fixture
def count_vectors(monkeypatch):
    """Number of ExponentVector constructions since the fixture started."""
    calls = []
    original = ExponentVector.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(ExponentVector, "__post_init__", counting)
    return calls


def test_to_matrix_and_traces_never_build_terms(count_vectors):
    n, L = 3, 6
    rep = rep_for(n, L)
    rng = np.random.default_rng(2)
    a = reflect(random_poly(n, L, rng, terms=5))
    b = canonical_product(a, reflect(a))
    # Probes of the RP forms, which read minus-half rows only.
    x = random_poly(n, L, rng, terms=5, support=L // 2)
    y = canonical_product(x, x)
    # E from its charge-sector blocks, as the Weyl table reads it.
    blocks = rng.normal(size=(n, rep.dim // n, rep.dim // n)) + 0j
    e, table = dense_matrix(blocks, rep), weyl_table(blocks, rep)
    count_vectors.clear()
    m = to_matrix(b, rep)
    forms = pair_forms(x, y, rep, table)
    assert count_vectors == []
    # The values agree with the dense products of the terms' matrices.
    dense = sum(c * rep.monomial_matrix(v) for v, c in b.terms.items())
    assert np.abs(m - dense).max() < 1e-12 * (1 + np.abs(dense).max())
    mx, my = to_matrix(x, rep), to_matrix(y, rep)
    ref = [np.trace(mx @ to_matrix(reflect(y), rep) @ e),
           np.trace(my @ to_matrix(reflect(x), rep) @ e)]
    got = [forms[0, 1], forms[1, 0]]
    assert np.abs(np.subtract(got, ref)).max() < 1e-12 * (1 + np.abs(ref).max())


def test_to_matrix_blocks(monkeypatch):
    from pararp import representation

    n, L = 2, 8
    p = random_poly(n, L, np.random.default_rng(9), terms=20)
    whole = to_matrix(p, build_generators(n, L))
    monkeypatch.setattr(representation, "_BLOCK", 3 * 16)  # 3 terms per block
    assert np.array_equal(to_matrix(p, build_generators(n, L)), whole)


# -- Trotter factors --------------------------------------------------------------


def test_trotter_convergence_reuses_parts(monkeypatch):
    spec = baxter(2, 6, [1.0, 0.8, -0.5, 0.8, 1.0])
    rep = build_generators(2, 6)
    expected = {
        k: float(np.linalg.norm(
            dense_trotter(spec, rep, k)
            - rp.matrix_exp(-to_matrix(spec.total(), rep))
        ))
        for k in (8, 16)
    }
    calls = {"matrix_exp": 0, "sector_blocks": 0}
    for name in calls:
        original = getattr(rp, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rp, name, counting)
    conv = rp.trotter_convergence(spec, rep, [8, 16])
    assert calls == {"matrix_exp": 2, "sector_blocks": 2}
    for k, err in conv["errors"].items():
        assert abs(err - expected[k]) <= 1e-10 * expected[k]
    with pytest.raises(ValueError):
        rp.trotter_convergence(spec, rep, [0, 1])


# -- from_text rejects malformed factors ------------------------------------------


@pytest.mark.parametrize("factor", ["c0^1", "c-3^1", "c9^1", "c1^1 c1^2",
                                    "c1^3", "c1", "x1^1", "c1^1  c2^-1"])
def test_from_text_rejects_bad_factor_naming_the_line(factor):
    text = f"# n=3 L=4\n(1+0j) * c2^1\n(2+0j) * {factor}\n"
    with pytest.raises(ValueError, match="line 3"):
        from_text(text)


def test_from_text_rejects_bad_coefficient_naming_the_line():
    with pytest.raises(ValueError, match="line 2"):
        from_text("# n=3 L=4\n(1+0q) * c1^1\n")


@pytest.mark.parametrize("header", ["# n=3", "# n=3 L", "# n=x L=4"])
def test_from_text_rejects_bad_header_naming_the_line(header):
    with pytest.raises(ValueError, match="line 1"):
        from_text(f"{header}\n(1+0j) * c1^1\n")


def test_from_text_merges_repeated_monomials():
    p = from_text("# n=3 L=4\n(1+0j) * c1^1 c3^2\n(0.5-1j) * c1^1 c3^2\n(2+0j) * 1\n")
    assert_same(p, {ExponentVector((1, 0, 2, 0), 3): 1.5 - 1j,
                    ExponentVector((0, 0, 0, 0), 3): 2 + 0j})
    assert from_text("# n=3 L=4\n(1+0j) * c1^0 c2^1\n").terms == {
        ExponentVector((0, 1, 0, 0), 3): 1 + 0j}


# -- from_text against the per-line reference ----------------------------------


def assert_same_outcome(text):
    """from_text gives the reference's terms bit for bit, or its error."""
    try:
        expected = ref_clean(ref_from_text(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_text(text)
        assert str(got.value) == str(exc)
    else:
        assert_same(from_text(text), expected)


@pytest.mark.parametrize("text", [
    # several bad lines: syntax errors in line order, then range errors
    "# n=3 L=4\n1 * cX^1\n(1+0q) * c1^1\n",
    "# n=3 L=4\n(1+0q) * cX^1\n",
    "# n=3 L=4\n(1+0j) * c9^1\n(1+0q) * c1^1\n",
    "# n=3 L=4\n(1+0j) * c1^5\n(1+0j) * c9^1\n",
    "# n=3 L=4\n(1+0j) * c1^1 c1^2\n(1+0j) * c9^1\n",
    "# n=3 L=4\n(1+0j) * c2^1 c2^1 c9^1\n",
    "# n=3 L=4\n(1+0j) * c0^1 c2^1 c2^1\n(1+0j) * c1^9\n",
    "# n=1 L=4\n(1+0q) * c1^1\n",
    "# n=1 L=4\n(1+0j) * c1^1\n",
    "# n=3 L=3\n(1+0j) * c1^1\n",
    # whitespace between factors and around lines
    "# n=3 L=4\n(1+0j) * c1^1\xa0c2^2\n(2-1j) * c3^1\x1fc4^2\n",
    "# n=3 L=4\n(1+0j) * c1^1　c2^2\t c3^1\n  (2-1j)*c4^2  \n",
    "# n=3 L=4\r\n(1+0j) * c1^1 c2^2\r\n(0.5+0j) * 1\r\n",
    "# n=3 L=4\n(1+0j) * c1^1 c2^1\n",
    "# n=3 L=4\x0b(1+0j) * c1^1\x0c(2+0j) * c2^1\x1c(3+0j) * 1\x85",
    # blank lines and comments, before and after the header
    "\n  \n# n=3 L=4\n\n# comment * c9^9\n(1+0j) * c1^1\n   \n#\n(2+0j) * c2^2\n",
    "# comment\n# n=3 L=4\n(1+0j) * c1^1\n",
    "(1+0j) * c1^1\n# n=3 L=4\n",
    "xn=3 L=4\n(1+0j) * c1^1\n",
    "# n=3 L=4\n# a comment\n(1+0q) * c1^1\n",
    "# n=3 L=4\n# note\n\n(1+0j) * c1^1\n  # n=2\n(1+0j) * c9^1\n",
    "# L=4 n=3 x=1\n(1+0j) * c1^1\n",
    "", "\n \n", "# n=3 L=4\n", "# n=3 L=4", "# n=3\n", "# n=3 L\n",
    # the identity and the monomial grammar
    "# n=3 L=4\n(1.5-2j) * 1\n(1+0j) *   1\n",
    "# n=3 L=4\n(1+0j) * 1 c1^1\n",
    "# n=3 L=4\n(1+0j) * 11\n",
    "# n=3 L=4\n(1+0j) *\n",
    "# n=3 L=4\n(1+0j)\n",
    "# n=3 L=4\n1 * 1 * 1\n1\n",
    "# n=3 L=4\n(1+0j) * c01^02 c2^0\n",
    "# n=3 L=4\n(1+0j) * c1^1c2^1\n",
    "# n=3 L=4\n(1+0j) * c1^١\n",
    "# n=3 L=4\n(1+0j) * c123456789012345678^1\n",
    "# n=3 L=4\n(1+0j) * c1234567890123456789^1\n",
    "# n=3 L=4\n(1+0j) * c1^123456789012345678\n",
    # coefficients, repeated monomials, cancellation
    "# n=3 L=4\n1 * c1^1\n-2.5 * c2^1\n3j * c3^1\n ( 1+2j ) * c4^1\n",
    "# n=3 L=4\n(1+0j) * c1^1 c3^2\n(0.5-1j) * c1^1 c3^2\n(2+0j) * c3^2 c1^1\n",
    "# n=3 L=4\n(1+0j) * c1^1\n(-1-0j) * c1^1\n(-0.0-0j) * c2^1\n",
    "# n=3 L=4\n(nan+1j) * c1^1\ninf * c2^1\n(1-infj) * 1\nnan * c3^1\n",
])
def test_from_text_matches_per_line_reference(text):
    assert_same_outcome(text)


def test_from_text_names_the_first_bad_line_like_the_reference():
    with pytest.raises(ValueError, match=r"^line 2: bad monomial 'cX\^1'$"):
        from_text("# n=3 L=4\n1 * cX^1\n(1+0q) * c1^1\n")


def test_from_text_matches_reference_on_edited_texts():
    """Random edits of written polynomials, with the characters of the text
    grammar: every edit parses to the same terms or fails on the same line
    for the same reason as the per-line reference."""
    rng = np.random.default_rng(10)
    alphabet = list("c^0123456789 \t\n*#()+-j.1") + ["\xa0", "\x1f", "\r\n", "c1^1 "]
    texts = [to_text(p) for n, L in [(2, 4), (3, 8), (5, 12)]
             for p in polys_for(n, L, seed=n + L)[1:4]]
    for _ in range(600):
        text = texts[rng.integers(len(texts))]
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(len(text) + 1))
            cut, insert = int(rng.integers(0, 3)), int(rng.integers(0, 2))
            text = text[:at] + str(rng.choice(alphabet)) * insert + text[at + cut:]
        assert_same_outcome(text)


def test_from_text_memory_does_not_grow_with_L_squared():
    """A one-term text at L = 20000: the merge codes come from one power of
    n per site of a chunk, not from a dense (L, chunks) weight matrix."""
    text = "# n=2 L=20000\n(1+0j) * c1^1\n"
    tracemalloc.start()
    p = from_text(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert p.exponents.shape == (1, 20000) and p.exponents[0, 0] == 1
    assert peak < 4 << 20


def test_to_text_memory_follows_the_text_not_n_times_L():
    """One term at n = 2 10^6 is one short line: no table of every factor
    name c<j>^<e> is built or kept."""
    n = 2_000_000
    p = Polynomial({ExponentVector((n - 1, 0), n): 1 + 0j,
                    ExponentVector((5, n - 7), n): 0.5 - 2j}, n, 2)
    tracemalloc.start()
    start = time.perf_counter()
    text = to_text(p)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert text == ref_to_text(p)
    assert elapsed < 0.25 and peak < 1 << 20
    assert_same(from_text(text), p.terms)


def lexsort_to_text(p):
    """to_text with its rows sorted by np.lexsort over the L sites, site 1
    the primary key."""
    order = np.lexsort(p.exponents.T[::-1])
    block = algebra._text_block(p.coeffs[order], p.exponents[order])
    text = block.tobytes().translate(None, b"\0").decode()
    return f"# n={p.order} L={p.sites}\n{text}"


@pytest.mark.parametrize("n,L,terms", [
    (2, 4, 6), (3, 8, 40), (5, 12, 60), (7, 20, 80),
    (2, 70, 300),  # 2^70 > 2^63: two chunks of codes
    (3, 90, 300),  # three chunks
])
def test_to_text_orders_rows_as_lexsort(n, L, terms):
    """The lexsort of the chunk codes of the reversed rows orders the terms
    as np.lexsort over the sites does.  The rows share their first sites
    often, so the lower chunks decide too."""
    rng = np.random.default_rng(n * L)
    head = rng.integers(0, n, size=(4, L // 3))
    exponents = rng.integers(0, n, size=(terms, L))
    exponents[:, :L // 3] = head[rng.integers(0, 4, size=terms)]
    p = Polynomial({ExponentVector(tuple(row), n): complex(rng.normal(), 1.0)
                    for row in exponents.tolist()}, n, L)
    assert algebra._codes(p.exponents, n).shape[1] == -(-L // len(algebra._powers(n)))
    assert to_text(p) == lexsort_to_text(p)
    for q in polys_for(n, min(L, 12), seed=L):
        assert to_text(q) == lexsort_to_text(q) == ref_to_text(q)


@pytest.mark.parametrize("text", [
    "# n=3 L=4\n(1+0j) * c1^x\n(1+0j) * c2^1\n(1+0j) * c3^1\n",
    "# n=3 L=4\n(1+0j) * c1^1\n(1+0j) * c2^1 c\n(1+0j) * c3^1\n",
    "# n=3 L=4\n(1+0j) * c1^1\n(1+0j) * c2^1\n(1+0j) * c3^1 1\n",
    "# n=3 L=4\n(1+0j) *\tc1^1\tc2^1\n(1+0j) * c3^1\x1fc4^2\n(1+0j) *\xa0c2^2\n",
    "# n=3 L=4\n(1+0j) * c1^1\t\n(1+0j) * c1^1\x1f\x1fc2^x\n",
    "# n=3 L=4\n(1+0j) * c1^1 \xa0c2^1\n(1+0j) * \xa0\n",
    "# n=3 L=4\n(1+0j) * c1^1\x1c c2^1\n",  # \x1c ends a line
])
def test_one_match_over_the_monomials_names_the_line_like_the_reference(text):
    """A bad monomial on the first, a middle or the last line, and monomials
    apart by tab, \\x1f or \\xa0 blanks: the same outcome as the per-line
    reference."""
    assert_same_outcome(text)


def test_failing_long_text_is_rejected_in_linear_time():
    """200 000 valid lines and a bad last one: one match over all the
    monomials does not backtrack into the lines before."""
    text = "# n=3 L=4\n" + "(1+0j) * c1^1 c2^2 c3^1\n" * 200_000 + "1 * c1^1 c2\n"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^line 200002: bad monomial 'c1\^1 c2'$"):
        from_text(text)
    assert time.perf_counter() - start < 10.0


# -- from_text's single pass ------------------------------------------------

# Blanks of str.isspace that do not end a line, one of each kind (ASCII,
# Latin-1, Ogham, the U+2000 block, narrow, mathematical, ideographic), and
# every line break of str.splitlines.
BLANKS = [" ", "\t", "\x1f", "\xa0", "\u1680", "\u2000", "\u200a", "\u202f",
          "\u205f", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]


def assert_reads_like_reference(text):
    """from_text accepts ``text`` and gives the reference's terms bit for
    bit."""
    assert_same(from_text(text), ref_clean(ref_from_text(text)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [12, 16, 20])
def test_from_text_reads_the_symbolic_workload_texts(n, L):
    """H^3 of a mirror-symmetric Baxter chain and the loop operator
    A theta(A) of a random minus observable A, the texts the symbolic
    workload round-trips: from_text gives the reference's terms and p's,
    bit for bit."""
    rng = np.random.default_rng(n * L)
    half = rng.uniform(-1, 1, size=L // 2).tolist()
    h = baxter(n, L, half + half[-2::-1]).total()
    a = rp.random_minus_observable(n, L, rng, max_terms=6)
    for p in (canonical_product(canonical_product(h, h), h),
              canonical_product(a, reflect(a))):
        text = to_text(p)
        assert_reads_like_reference(text)
        # Lines are summed from 0, which makes a -0.0 part 0.0.
        assert_same(from_text(text), {v: 0 + c for v, c in p.terms.items()})


def test_from_text_reads_two_digit_sites_and_powers():
    """At n = 12, L = 14 sites 10..14 and powers 10, 11 have two digits."""
    rng = np.random.default_rng(1214)
    texts = [to_text(random_poly(12, 14, rng, terms=k)) for k in (1, 5, 40)]
    texts.append("# n=12 L=14\n(1+0j) * c10^11 c14^10 c9^9\n")
    assert re.search(r"c1[0-4]\^1[01]\b", "".join(texts))
    for text in texts:
        assert_reads_like_reference(text)


@pytest.mark.parametrize("factor", [
    "c123456789012345678^1", "c1234567890123456789^1",
    "c1^123456789012345678", "c1^1234567890123456789",
    "c999999999999999999^1", "c1^999999999999999999",
    "c000000000000000001^000000000000000011", "c0000000000000000001^1",
    "c1^0000000000000000001", "c10^1 c1234567890123456789^1",
])
def test_from_text_digit_runs_of_18_and_19_digits(factor):
    """Numbers of 18 digits are read, range errors aside; one of 19 digits
    is a bad monomial, leading zeros included."""
    assert_same_outcome(f"# n=12 L=14\n(1+0j) * c2^1\n(2+0j) * {factor}\n")


@pytest.mark.parametrize("blank", BLANKS)
def test_from_text_reads_every_blank_like_the_reference(blank):
    """A blank around lines and headers, on blank lines, after the '*' and
    between factors."""
    b = blank
    assert_reads_like_reference(
        f"{b}# n=3 L=4{b}\n{b}\n{b}(1+0j) *{b}c1^1{b}c2^2{b}\n"
        f"(2-1j) * c3^1{b}{b}c4^2\n{b}(0.5+0j) *{b}1{b}\n")


def test_from_text_reads_a_line_that_starts_with_x1f():
    """str.strip drops a leading \\x1f and complex() would not."""
    assert_reads_like_reference("# n=3 L=4\n\x1f(1+0j) * c1^1\n")
    assert_same(from_text("# n=3 L=4\n\x1f(1+0j) * c1^1\n"),
                {ExponentVector((1, 0, 0, 0), 3): 1 + 0j})


@pytest.mark.parametrize("brk", BREAKS)
def test_from_text_reads_every_line_break_like_the_reference(brk):
    """Lines ended by one break, blank lines between them, a comment, and
    a last line without a break."""
    text = brk.join(["", "# n=3 L=4", "(1+0j) * c1^1 c2^2", "", "# c9^9 * x",
                     "(2-1j) * c3^1", "(0.5+0j) * 1"])
    assert_reads_like_reference(text)
    assert_reads_like_reference(text + brk)
    assert len(from_text(text).coeffs) == 3


@pytest.mark.parametrize("text", [
    "# n=3 L=4\n(1+0j) * 2\n", "# n=3 L=4\n(1+0j) * x\n",
    "# n=3 L=4\n(1+0j) * ^\n", "# n=3 L=4\n(1+0j) *\u3000 1 \x1f\n",
    "# n=3 L=4\n(1+0j) *\n(2+0j) * c1^1 1\n",
    "# n=3 L=4\n(1+0j) * 1 1\n(2+0j) * \n(3+0j) * 1\n",
])
def test_from_text_reads_lines_without_a_factor_like_the_reference(text):
    """A monomial without a factor is '1' between blanks; the count of the
    monomials' bytes over the whole text cannot stand for that check."""
    assert_same_outcome(text)


@pytest.mark.parametrize("text", [
    "# n=3 L=4\n(1+0j)\x1f\n", "# n=3 L=4\n1\x1f\u3000\n(1+0q)\n",
    "# n=3 L=4\n(1+0q)\x1f\n", "# n=3 L=4\n(1+0j) * c1^1\n2\t\x1f",
])
def test_from_text_reads_a_line_without_a_star_like_the_reference(text):
    """A line without '*' is all coefficient, stripped like the line:
    complex() would refuse the trailing \\x1f that str.strip drops."""
    assert_same_outcome(text)


def test_from_text_matches_reference_on_edited_two_digit_texts():
    """Random edits of texts with two-digit sites and powers, with the
    characters of the text grammar, blanks beyond ASCII and every kind of
    line break: the same terms or the same error as the reference."""
    rng = np.random.default_rng(30)
    alphabet = (list("c^0123456789 *#()+-j.") + BLANKS + BREAKS
                + ["c12^1 ", "c1^10", "\x00", "\x7f", "١", "é"])
    texts = [to_text(random_poly(n, L, np.random.default_rng(n + L), terms=6))
             for n, L in [(12, 14), (11, 20), (3, 12)]]
    for _ in range(600):
        text = texts[rng.integers(len(texts))]
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(len(text) + 1))
            cut, insert = int(rng.integers(0, 3)), int(rng.integers(0, 2))
            text = text[:at] + str(rng.choice(alphabet)) * insert + text[at + cut:]
        assert_same_outcome(text)
