"""The RP-matrix kernel and the RP matrix against dense matrix products.

Every trace functional in pararp.rp is a form on one matrix
M_IJ = Tr(C_I theta(C_J) E) over monomials of the minus half
(``rp.rp_matrix``), read by one kernel, ``representation.pair_traces``:
each entry is one lookup in the Weyl table of E (``weyl_table``), built
once per Boltzmann factor from the charge-sector blocks of E, at an index
and a phase that are a part of I plus a part of J.  Here the blocks are
random, and the dense E they stand for is ``dense_matrix`` of them
(tests/conftest.py).  The references multiply dense matrices instead,
Tr(to_matrix(X) @ to_matrix(theta(Y)) @ E), or, bit for bit, read the
table through the general kernel of any monomial pair
(``general_pair_traces``).
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from pararp import cli, representation, rp
from pararp.algebra import Polynomial, reflect
from pararp.exponents import ExponentVector
from pararp.hamiltonian import baxter, spec_from_dict
from pararp.representation import (
    _digit_sum, pair_traces, sector_blocks, to_matrix, weyl_table,
)

from conftest import (
    dense_matrix, dense_weyl_table, pair_forms, random_blocks,
    reference_rp_entries, rep_for,
)

# Every (n, L) with n in 2..5 and dim = n^{L/2} <= 256.
CELLS = [
    (n, L)
    for n in range(2, 6)
    for L in range(2, 17, 2)
    if n ** (L // 2) <= 256
]
# The same up to dim 1024.
TABLE_CELLS = [
    (n, L)
    for n in range(2, 6)
    for L in range(2, 21, 2)
    if n ** (L // 2) <= 1024
]
# Every (n, L) with n in 2..7 and dim <= 1024: L = 2, and L/2 odd at
# (3, 6), (5, 6), (3, 10) and (2, 14), among them.
BIT_CELLS = [
    (n, L)
    for n in range(2, 8)
    for L in range(2, 21, 2)
    if n ** (L // 2) <= 1024
]


def dense_forms(xs, ys, rep, e):
    """Tr(X_i theta(Y_j) E) over all i, j, from dense triple products."""
    mx = [to_matrix(x, rep) for x in xs]
    my = [to_matrix(reflect(y), rep) for y in ys]
    return np.array([[np.trace(a @ b @ e) for b in my] for a in mx])


def dense_entries(rows, i, j, rep, e):
    """Reference for representation.pair_traces: Tr(C_I theta(C_J) E) for
    I = rows[i], J = rows[j], i and j broadcast together, from dense triple
    products."""
    xs = [Polynomial.monomial(1.0, ExponentVector(tuple(r), rep.order))
          for r in rows.tolist()]
    mx = [to_matrix(x, rep) for x in xs]
    my = [to_matrix(reflect(x), rep) @ e for x in xs]
    i, j = np.broadcast_arrays(i, j)
    return np.array([(mx[a] * my[b].T).sum() for a, b in zip(i.ravel(), j.ravel())],
                    dtype=complex).reshape(i.shape)


def dense_rp_matrix(rows, rep, e, cols=None):
    """Reference for rp.rp_matrix, or for its block over ``rows`` and
    ``cols``, from dense triple products."""
    cols = rows if cols is None else cols
    xs, ys = ([Polynomial.monomial(1.0, ExponentVector(tuple(r), rep.order))
               for r in side.tolist()] for side in (rows, cols))
    return dense_forms(xs, ys, rep, e).reshape(len(rows), len(cols))


def random_minus_poly(n, L, rng, max_terms=4):
    """Polynomial on the minus half, observable (every degree = 0 mod n) or
    not at random, sometimes with an identity term."""
    half = L // 2
    observable = rng.random() < 0.5
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        entries = [int(x) for x in rng.integers(0, n, size=half)] + [0] * half
        if rng.random() < 0.2:
            entries = [0] * L
        if observable:
            entries[0] = (entries[0] - sum(entries)) % n
        terms[ExponentVector(tuple(entries), n)] = complex(rng.normal(), rng.normal())
    return Polynomial(terms, n, L)


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))).all(), (
        float((np.abs(got - ref) / (1 + np.abs(ref))).max())
    )


class TestKernelAgainstDense:
    @pytest.mark.parametrize("n,L", CELLS)
    def test_rp_matrix_and_its_forms(self, n, L):
        """M over minus rows, observable or not, blocks of it in one call,
        and the forms P M P^H of pairs of multi-term probes, against
        Tr(X theta(Y) E) for a random E that commutes with the gauge
        shift."""
        rng = np.random.default_rng(1000 * n + L)
        rep = rep_for(n, L)
        blocks = random_blocks(rep, rng)
        e, table = dense_matrix(blocks, rep), weyl_table(blocks, rep)
        rows = np.zeros((6, L), dtype=np.int64)
        rows[1:, :L // 2] = rng.integers(0, n, size=(5, L // 2))
        assert_close(rp.rp_matrix(rows, rep, table), dense_rp_matrix(rows, rep, e))
        spans = np.array([[0, 2, 0, 2], [2, 6, 1, 3], [0, 6, 4, 6]])
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        m, f = rp._forms(rows, coeffs, spans, rep, table)
        for (i0, i1, j0, j1), got, form in zip(spans, np.split(m, [4, 12]), f):
            block = dense_rp_matrix(rows[i0:i1], rep, e, rows[j0:j1])
            assert_close(got, block.ravel())
            assert_close(form, coeffs[i0:i1] @ block @ coeffs[j0:j1].conj())
        xs = [random_minus_poly(n, L, rng) for _ in range(4)]
        xs.append(Polynomial.identity(n, L))
        for x in xs:
            for y in xs[:3]:
                assert_close(pair_forms(x, y, rep, table),
                             dense_forms([x, y], [x, y], rep, e))

    @pytest.mark.parametrize("n,L", BIT_CELLS)
    def test_kernel_is_the_general_kernel_bit_for_bit(self, n, L):
        """M and its forms over rows of mixed charge equal, bit for bit,
        those read through the general kernel of any monomial pair, with
        the reflection and w_J outside it, on a random table."""
        rng = np.random.default_rng(100 * n + L)
        rep = rep_for(n, L)
        table = weyl_table(random_blocks(rep, rng), rep)
        # Random minus rows, row r of charge r mod n: every charge, mixed.
        k = 24
        rows = np.zeros((k, L), dtype=np.int64)
        rows[:, 1:L // 2] = rng.integers(0, n, size=(k, L // 2 - 1))
        rows[:, 0] = (np.arange(k) - rows.sum(axis=1)) % n
        i, j = np.repeat(np.arange(k), k), np.tile(np.arange(k), k)
        full = reference_rp_entries(rep, rows, i, j, table).reshape(k, k)
        assert np.array_equal(rp.rp_matrix(rows, rep, table).view(float),
                              full.view(float))
        spans = np.array([[0, 5, 3, 20], [2, 24, 0, 24], [7, 9, 1, 2]])
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        m, f = rp._forms(rows, coeffs, spans, rep, table)
        blocks = [full[i0:i1, j0:j1] for i0, i1, j0, j1 in spans]
        assert np.array_equal(m.view(float),
                              np.concatenate(blocks, axis=None).view(float))
        # Each form summed from 0 in row-major order, as bincount sums.
        terms = [(coeffs[i0:i1, None] * b * coeffs[j0:j1].conj()).ravel()
                 for b, (i0, i1, j0, j1) in zip(blocks, spans)]
        ref = (np.array([sum(t.real.tolist()) for t in terms])
               + 1j * np.array([sum(t.imag.tolist()) for t in terms]))
        assert np.array_equal(f.view(float), ref.view(float))

    def test_rows_off_the_minus_half_are_refused(self):
        """The kernel reads I and the reflection of J on opposite halves, so
        rp_matrix and _forms refuse a row with an exponent on L/2+1..L."""
        rep = rep_for(3, 4)
        table = weyl_table(random_blocks(rep, np.random.default_rng(0)), rep)
        rows = np.array([[0, 0, 0, 0], [1, 2, 0, 0], [0, 1, 0, 2]])
        with pytest.raises(ValueError, match="minus half"):
            rp.rp_matrix(rows, rep, table)
        with pytest.raises(ValueError, match="minus half"):
            rp._forms(rows, np.ones(3), np.array([[0, 2, 0, 2]]), rep, table)

    def test_empty_polynomial_gives_zero(self):
        rep = rep_for(3, 4)
        rng = np.random.default_rng(0)
        table = weyl_table(random_blocks(rep, rng), rep)
        zero, x = Polynomial.zero(3, 4), random_minus_poly(3, 4, rng)
        # f(zero, x), f(x, zero) and f(zero, zero).
        got = pair_forms(zero, x, rep, table)
        assert [got[0, 1], got[1, 0], got[0, 0]] == [0j, 0j, 0j]
        empty = np.zeros((0, 4), dtype=np.intp)
        none = np.zeros(0, dtype=np.intp)
        assert rp.rp_matrix(empty, rep, table).shape == (0, 0)
        assert pair_traces(rep, empty, none, none, table).shape == (0,)

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 2), (2, 6), (3, 4), (4, 4)])
    def test_table_is_the_character_sum(self, n, L):
        """weyl_table against F[a, b] = sum_k omega^{b.d(k)} E[k, k (+) a]
        over every a and b: n G[a, b'] when the digits of b sum to 0 mod n,
        else 0."""
        rep = rep_for(n, L)
        blocks = random_blocks(rep, np.random.default_rng(n + L))
        e = dense_matrix(blocks, rep)
        d = rep.digits
        gathered = e[np.arange(rep.dim), _digit_sum(n, d[:, None], d[:, :, None])]
        f = gathered @ np.exp(2j * np.pi / n * (d.T @ d))  # F[a, b]
        table = weyl_table(blocks, rep)
        assert table.shape == (rep.dim, rep.dim // n)
        charge = d.sum(axis=0) % n == 0
        assert_close(table[:, np.arange(rep.dim)[charge] % table.shape[1]],
                     f[:, charge])
        assert (np.abs(f[:, ~charge]) <= 1e-12 * (1 + np.abs(f).max())).all()
        assert table[0, 0] == pytest.approx(np.trace(e), rel=1e-13)

    @pytest.mark.parametrize("n,L", TABLE_CELLS)
    def test_table_from_blocks_is_the_dense_gather(self, n, L):
        """weyl_table of the blocks equals, bit for bit, the table gathered
        from the dense matrix of the same blocks, for random blocks
        and for those of e^{-H} of the Baxter test spec."""
        rep = rep_for(n, L)
        t = [1.0] * (L - 1)
        t[L // 2 - 1] = -0.5
        spec = baxter(n, L, t)
        for blocks in (random_blocks(rep, np.random.default_rng(n * L)),
                       rp.matrix_exp(-sector_blocks(spec.total(), rep))):
            dense = dense_weyl_table(dense_matrix(blocks, rep), rep)
            assert np.array_equal(weyl_table(blocks, rep), dense)


def count_calls(monkeypatch, *names):
    """Calls of each named function of pararp.rp, and under "dense" the
    dense matrices of polynomials built: representation._scatter, which
    to_matrix and sector_blocks share, over all dim columns."""
    calls = dict.fromkeys(names + ("dense",), 0)
    for name in names:
        original = getattr(rp, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rp, name, counting)
    scatter = representation._scatter

    def counting_scatter(p, rep, place, width):
        calls["dense"] += width == rep.dim
        return scatter(p, rep, place, width)

    monkeypatch.setattr(representation, "_scatter", counting_scatter)
    return calls


class TestRoutedFunctionals:
    def test_gram_psd_is_the_dense_gram(self):
        n, L = 3, 6
        rep = rep_for(n, L)
        spec = baxter(n, L, [1.0, 0.7, -0.4, 0.7, 1.0])
        basis = rp.minus_rows(n, L, (0, 3, 6))
        boltzmann = rp.matrix_exp(-to_matrix(spec.total(), rep))
        g = dense_rp_matrix(basis, rep, boltzmann)
        gh = (g + g.conj().T) / 2
        scale = 1.0 + float(np.abs(gh).max())
        ref_min = float(np.linalg.eigvalsh(gh).min()) / scale
        got, got_min = rp.gram_psd(spec, rep, basis)
        assert_close(got, gh)
        assert abs(got_min - ref_min) <= 1e-12 * (1 + abs(ref_min))

    def test_no_dense_matrix_of_observables(self, monkeypatch):
        """check_rp builds no dense matrix, only the sector blocks of H,
        whatever the number of probes, and builds the structured
        observables once."""
        n, L = 3, 6
        spec = baxter(n, L, [1.0, 0.7, -0.4, 0.7, 1.0])
        rep = rep_for(n, L)
        calls = count_calls(monkeypatch, "sector_blocks", "structured_probes")
        rp.check_rp(spec, rep, samples=10, seed=2)
        assert calls == {"sector_blocks": 1, "structured_probes": 1, "dense": 0}

    def test_counterexample_matches_dense(self):
        for n in (2, 3, 5):
            rep = rep_for(n, 2)
            spec = rp.crossing_only_spec(n)
            boltzmann = rp.matrix_exp(-to_matrix(spec.total(), rep))
            for j in range(1, n + 1):
                a = Polynomial.monomial(
                    1.0, ExponentVector((j % n, 0), n)
                )
                [[ref]] = dense_forms([a], [a], rep, boltzmann)
                assert_close(rp.counterexample_f(n, j), ref)


class TestBoundsFactors:
    def test_cli_bounds_runs_one_exponential(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"baxter": {"n": 3, "L": 6, "t": [1.0, 0.6, -0.5, 0.6, 1.0]}}
        ))
        calls = []
        exp_orig = rp.matrix_exp
        monkeypatch.setattr(
            rp, "matrix_exp", lambda a: calls.append(1) or exp_orig(a)
        )
        code, _ = run_cli(["bounds", "--spec", str(path), "--samples", "4"])
        assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("command", [
    pytest.param(["rp-check", "--samples", "6", "--seed", "3"], id="rp-check"),
    pytest.param(["rp-check", "--samples", "1", "--seed", "3"], id="rp-check-1"),
    pytest.param(["rp-check", "--samples", "20", "--seed", "3"], id="rp-check-20"),
    pytest.param(["gram"], id="gram"),
    pytest.param(["bounds", "--samples", "4", "--seed", "4"], id="bounds"),
    pytest.param(["trotter", "--k", "8"], id="trotter"),
])
def test_each_job_builds_one_table(command, tmp_path, monkeypatch):
    """One Weyl table per Boltzmann factor and one RP matrix per job: each
    rp-check, gram and bounds job builds one table, from the sector blocks
    of e^{-H} with no dense e^{-H} (rp holds no sector_matrix to build
    one), and reads every entry of M it needs from it in one pair_traces
    call: gram on the grid of its rows, rp-check and bounds through one
    _forms call, however many probes they draw.  No
    job builds a dense matrix of a polynomial: H reaches it only as sector
    blocks, one sector_blocks call per distinct Hamiltonian, H or, for
    trotter, H_0 and H_- + H_+."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"baxter": {"n": 3, "L": 6, "t": [1.0, 0.6, -0.5, 0.6, 1.0]}}
    ))
    calls = count_calls(monkeypatch, "weyl_table", "pair_traces",
                        "_forms", "sector_blocks")
    code, _ = run_cli(command + ["--spec", str(path)])
    assert code == 0
    table = int(command[0] != "trotter")
    forms = int(command[0] in ("rp-check", "bounds"))
    assert calls == {"weyl_table": table, "pair_traces": table,
                     "_forms": forms, "sector_blocks": 2 - table, "dense": 0}
    assert "sector_matrix" not in vars(rp)


# -- CLI reports against the dense reference --------------------------------

SPECS = {
    "baxter-valid": {"baxter": {"n": 3, "L": 6, "t": [1.0, 0.7, -0.4, 0.7, 1.0]}},
    "baxter-even": {"baxter": {"n": 2, "L": 8,
                               "t": [0.9, 1.1, 0.8, -0.6, 0.8, 1.1, 0.9]}},
    "baxter-violating": {"baxter": {"n": 3, "L": 4, "t": [1.0, 0.8, 1.0]}},
    "general": {
        "n": 4, "L": 6,
        "h_minus": [{"coefficient": [0.4, -0.2], "exponents": [1, 3, 0, 0, 0, 0]},
                    {"coefficient": [-0.3, 0.1], "exponents": [2, 1, 1, 0, 0, 0]}],
        "couplings": [{"exponents": [1, 0, 2, 0, 0, 0], "J": 0.5},
                      {"exponents": [0, 1, 0, 0, 0, 0], "J": 0.8}],
    },
}

SEEDED = [
    [name, "--samples", samples, "--seed", seed]
    for name, samples in (("rp-check", "6"), ("bounds", "3"))
    for seed in ("0", "3", "4")
] + [["gram"], ["bounds", "--samples", "6", "--seed", "3"]]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def assert_reports_close(got, ref, path="report"):
    if isinstance(ref, dict):
        assert set(got) == set(ref), path
        for key in ref:
            assert_reports_close(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_reports_close(g, r, f"{path}[{i}]")
    elif isinstance(ref, float) and not isinstance(ref, bool):
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), (path, got, ref)
    else:
        assert got == ref, (path, got, ref)


def run_cli_lines(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", SEEDED, ids=" ".join)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_report_matches_dense_reference(argv, name, tmp_path, monkeypatch,
                                            capsys):
    """Each report against the one whose entries Tr(C_I theta(C_J) E) of M
    are dense triple products with the E whose blocks the job's one table
    was built from: exit code, keys and labels exact, floats within 1e-12.  No
    run is an error: on the violating spec every command, bounds too,
    exits 2 with its report."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    argv = argv + ["--spec", str(path)]
    code, out, err = run_cli_lines(argv, capsys)
    seen = []
    table_orig = rp.weyl_table
    monkeypatch.setattr(
        rp, "weyl_table", lambda blocks, rep:
        seen.append(dense_matrix(blocks, rep)) or table_orig(blocks, rep)
    )
    monkeypatch.setattr(
        rp, "pair_traces", lambda rep, rows, i, j, table: dense_entries(
            rows, i, j, rep, seen[-1])
    )
    ref_code, ref_out, ref_err = run_cli_lines(argv, capsys)
    assert len(seen) == 1
    assert code == ref_code
    assert err == ref_err == ""
    assert_reports_close(json.loads(out), json.loads(ref_out))
    if name == "baxter-violating":
        assert code == cli.VIOLATIONS


def drawn_probes(n, L, seed, count):
    """The probes random_minus_rows draws from ``seed``, as polynomials."""
    rows, coeffs, owner = rp.random_minus_rows(
        n, L, np.random.default_rng(seed), count)
    return [Polynomial._from_arrays(rows[owner == p], coeffs[owner == p], n, L)
            for p in range(count)]


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_probe_forms_match_dense(name, seed):
    """check_rp's f(A, A), and f(A, B), f(A, A), f(B, B) of sampled_bounds
    and rp_bounds_check, against dense triple products of the probes each draws, with the dense
    e^{-H} of the same sector blocks: diagonal statistics and violations,
    and each pair's f(A, B) and squared bound f(A, A) f(B, B) within 1e-12
    (the square root would amplify the rounding of a small f(A, A)).  Every
    pair comes back, and one with f(A, A) or f(B, B) < 0 is not ok.  The
    plus pairs are traced as they are, with no use of the commutation."""
    spec = spec_from_dict(SPECS[name])
    n, L = spec.order, spec.sites
    rep = rep_for(n, L)
    e = dense_matrix(rp.boltzmann(spec.total(), rep), rep)

    def f(x, y):
        return complex(dense_forms([x], [y], rep, e)[0, 0])

    labels, rows = rp.structured_probes(n, L)
    probes = [Polynomial._from_arrays(r[None], np.ones(1), n, L) for r in rows]
    probes += drawn_probes(n, L, seed, 6)
    labels = [*labels, *(f"random[{i}]" for i in range(6))]
    diagonal = [v / (1 + abs(v)) for v in (f(x, x) for x in probes)]
    report = rp.check_rp(spec, rep, samples=6, seed=seed)
    assert_reports_close(
        [report.min_diagonal_real, report.max_diagonal_imag_abs,
         [v for v in report.violations if ":diagonal" in v[0]]],
        [min(v.real for v in diagonal), max(abs(v.imag) for v in diagonal),
         [[f"{label}:diagonal_{part}", value]
          for label, v in zip(labels, diagonal)
          for part, value, sign in (("real", v.real, -1), ("imag", abs(v.imag), 1))
          if sign * value > rp.DEFAULT_TOL]])

    draws = [reflect(x) for x in drawn_probes(n, L, seed, 12)]
    one = Polynomial.identity(n, L)
    expected, negative = [], []
    for a, b in [(one, one)] + list(zip(draws[::2], draws[1::2])):
        sq_a, sq_b, f_ab = f(a, a), f(b, b), f(a, b)
        negative.append(any(v.real < -rp.DEFAULT_TOL * (1 + abs(v))
                            for v in (sq_a, sq_b)))
        expected.append(
            [f_ab.real, f_ab.imag, max(sq_a.real, 0) * max(sq_b.real, 0)])
        got = rp.rp_bounds_check(a, b, spec, rep)
        assert_reports_close([*got["f_ab"], got["bound1"] ** 2], expected[-1])
        assert not (negative[-1] and got["ok"])
    pairs = rp.sampled_bounds(spec, rep, 6, seed)
    assert_reports_close(
        [[*r["f_ab"], r["bound1"] ** 2] for r in pairs], expected)
    assert not any(neg and r["ok"] for neg, r in zip(negative, pairs))
    if name != "baxter-violating":
        assert not any(negative)


# -- the Schwarz check in cmd_gram and ExponentVector validation -------------


def schwarz_loop(gram, tol):
    """The per-pair Schwarz check |G_ij|^2 <= (G_ii + eps)(G_jj + eps), in
    the Gram's own scale eps = tol (1 + max |G_ij|)."""
    eps = tol * (1 + max((abs(g) for g in gram.ravel()), default=0.0))
    ok = True
    for i in range(len(gram)):
        for j in range(len(gram)):
            lhs = abs(gram[i, j]) ** 2
            rhs = (gram[i, i].real + eps) * (gram[j, j].real + eps)
            if lhs > rhs:
                ok = False
    return ok


def test_vectorised_schwarz_matches_loop(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS["baxter-valid"]))
    rng = np.random.default_rng(11)
    grams = []
    for m in (1, 2, 5, 9):
        v = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        psd = v @ v.conj().T
        grams += [psd, psd - 2.0 * np.eye(m), psd + 0.3 * (1 - np.eye(m))]
    # Gram matrices at the Schwarz bound and just past it, where the
    # tolerance decides: (G_ii + eps)^2 - G_ii^2 is about 0.2 at 1e4.
    swap = np.array([[0, 1], [1, 0]])
    for big in (1.0, 1e4):
        edge = big * np.ones((2, 2), dtype=complex)
        grams += [edge + big * 1e-6 * swap]
        grams += [edge + math.sqrt(big**2 + c) * swap - big * swap
                  for c in (0.0, 0.05, 0.2)]
    seen = set()
    for g in grams:
        monkeypatch.setattr(rp, "gram_psd", lambda *a, g=g, **k: (g, 1.0))
        _, report = run_cli(["gram", "--spec", str(path)])
        assert report["schwarz_ok"] == schwarz_loop(g, rp.DEFAULT_TOL)
        seen.add(report["schwarz_ok"])
    assert seen == {True, False}


@pytest.mark.parametrize("n,L,crossing,expected", [
    # RP by the theorem (rule all_nonneg), with entries of scale Z = 2.0e5:
    # an absolute Schwarz tolerance flagged 942 pairs here.
    (2, 18, -0.5, (cli.PASS, True)),
    # Rule none and a Gram eigenvalue of -3e-5: a true violation.
    (3, 8, 0.05, (cli.VIOLATIONS, False)),
])
def test_schwarz_verdict(n, L, crossing, expected, tmp_path):
    t = [1.0] * (L - 1)
    t[L // 2 - 1] = crossing
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": n, "L": L, "t": t}}))
    code, report = run_cli(["gram", "--spec", str(path)])
    assert (code, report["schwarz_ok"]) == expected


def exponent_vector_loop(entries, order):
    """ExponentVector's per-site validation: the message of the first
    offending site, which is a non-integer (a float, even a whole one, NaN
    or a string) or an integer outside 0..order-1, or the entries as ints."""
    for j, e in enumerate(entries):
        if not isinstance(e, (int, np.integer)):
            raise ValueError(f"entry {e!r} at site {j + 1} is not an integer")
        if not (0 <= e < order):
            raise ValueError(f"entry {e} at site {j + 1} outside 0..{order - 1}")
    return tuple(int(e) for e in entries)


@pytest.mark.parametrize("entries", [
    (0, 1, 2, 0), (2, 2), (0, 3), (-1, 0), (1, 0, 0, 5), (3, -1),
    (0.5, 1), (-0.5, 1), (1.0, 2.0), (True, False), (np.int64(2), 1),
    (1, math.nan), (math.nan, 1), (2, math.inf), (1, "a"), ("a", 1),
])
def test_exponent_vector_validation_unchanged(entries):
    try:
        expected = ("ok", exponent_vector_loop(entries, 3))
    except (ValueError, TypeError) as exc:
        expected = (type(exc), str(exc))
    try:
        vec = ExponentVector(entries, 3)
        got = ("ok", vec.entries)
        assert all(type(e) is int for e in vec.entries)
    except (ValueError, TypeError) as exc:
        got = (type(exc), str(exc))
    assert got == expected
