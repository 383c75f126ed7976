"""The Weyl-table trace kernel against dense matrix products.

Every trace functional Tr(X Y E) in pararp.rp is evaluated by one kernel,
``representation.pair_traces``, through the bilinear helper
``rp._block_traces`` on a stack of polynomials (``rp.RowStack``): one
lookup per term pair in the Weyl table of E (``weyl_table``), built once
per Boltzmann factor from the charge-sector blocks of E.  Here the blocks
are random, and the dense E they stand for is ``sector_matrix`` of them.
The references multiply dense matrices instead:
Tr(to_matrix(X) @ to_matrix(Y) @ E).
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from pararp import cli, rp
from pararp.algebra import Polynomial, reflect
from pararp.exponents import ExponentVector
from pararp.hamiltonian import baxter, spec_from_dict
from pararp.representation import (
    _digit_sum, pair_traces, sector_matrix, to_matrix, weyl_table,
)

from conftest import dense_weyl_table, rep_for, stack_polynomials

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


def dense_traces(xs, ys, rep, e, grid=False):
    """Tr(X_i Y_i E), or with ``grid`` Tr(X_i Y_j E) over all i, j, from
    dense triple products."""
    mx = [to_matrix(x, rep) for x in xs]
    my = [to_matrix(y, rep) for y in ys]
    if grid:
        return np.array([[np.trace(a @ b @ e) for b in my] for a in mx])
    return np.array([np.trace(a @ b @ e) for a, b in zip(mx, my)])


def dense_block_traces(stack, x, y, rep, e):
    """Reference for rp._block_traces from dense triple products."""
    mats = [to_matrix(p, rep) for p in stack_polynomials(stack)]
    return np.array([np.trace(mats[i] @ mats[j] @ e) for i, j in zip(x, y)],
                    dtype=complex)


def random_vector(n, L, rng, kind):
    """Exponent vector on the minus half, the plus half, both halves, or
    the identity; observable (degree = 0 mod n) or not at random."""
    half = L // 2
    if kind == "identity":
        return ExponentVector((0,) * L, n)
    entries = [int(x) for x in rng.integers(0, n, size=L)]
    if kind == "minus":
        entries[half:] = [0] * half
    elif kind == "plus":
        entries[:half] = [0] * half
    if rng.random() < 0.5:  # observable: fix the degree on one site
        site = 0 if kind != "plus" else L - 1
        entries[site] = (entries[site] - sum(entries)) % n
    return ExponentVector(tuple(entries), n)


def random_poly(n, L, rng, max_terms=4):
    kinds = ("identity", "minus", "plus", "both")
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        vec = random_vector(n, L, rng, kinds[int(rng.integers(0, 4))])
        terms[vec] = complex(rng.normal(), rng.normal())
    return Polynomial(terms, n, L)


def random_blocks(rep, rng):
    """n random charge-sector blocks: those of a dense non-hermitian matrix
    that commutes with the gauge shift T."""
    n, r = rep.order, rep.dim // rep.order
    return rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))).all(), (
        float((np.abs(got - ref) / (1 + np.abs(ref))).max())
    )


class TestKernelAgainstDense:
    @pytest.mark.parametrize("n,L", CELLS)
    def test_pairs_and_grid(self, n, L):
        rng = np.random.default_rng(1000 * n + L)
        rep = rep_for(n, L)
        blocks = random_blocks(rep, rng)
        e, table = sector_matrix(blocks, rep), weyl_table(blocks, rep)
        xs = [random_poly(n, L, rng) for _ in range(4)]
        ys = [random_poly(n, L, rng) for _ in range(3)]
        xs.append(Polynomial.identity(n, L))
        ys.append(reflect(xs[0]))
        stack = rp.RowStack.of(xs + ys, n, L)
        x, y = np.arange(5), 5 + np.arange(4)
        pairs = rp._block_traces(stack, x[:4], y, rep, table)
        assert_close(pairs, dense_traces(xs[:4], ys, rep, e))
        grid = rp._block_traces(stack, np.repeat(x, 4), np.tile(y, 5), rep, table)
        assert_close(grid.reshape(5, 4), dense_traces(xs, ys, rep, e, grid=True))

    @pytest.mark.parametrize("n,L", [(2, 8), (3, 6), (5, 4)])
    def test_monomial_pairs(self, n, L):
        rng = np.random.default_rng(n * L)
        rep = rep_for(n, L)
        blocks = random_blocks(rep, rng)
        e = sector_matrix(blocks, rep)
        exponents = rng.integers(0, n, size=(6, L))
        exponents[0] = 0  # the identity
        s, t = rng.integers(0, 6, size=40), rng.integers(0, 6, size=40)
        got = pair_traces(rep, exponents, s, t, weyl_table(blocks, rep))

        def monomial(i):
            return rep.monomial_matrix(ExponentVector(tuple(exponents[i]), n))

        ref = [np.trace(monomial(i) @ monomial(j) @ e) for i, j in zip(s, t)]
        assert_close(got, ref)

    def test_empty_polynomial_gives_zero(self):
        rep = rep_for(3, 4)
        rng = np.random.default_rng(0)
        table = weyl_table(random_blocks(rep, rng), rep)
        zero, x = Polynomial.zero(3, 4), random_poly(3, 4, rng)
        stack = rp.RowStack.of([zero, x], 3, 4)
        # (zero, x), (x, zero) and (zero, zero).
        got = rp._block_traces(stack, np.array([0, 1, 0]), np.array([1, 0, 0]),
                               rep, table)
        assert got.tolist() == [0j, 0j, 0j]
        empty = np.zeros((0, 4), dtype=np.intp)
        none = np.zeros(0, dtype=np.intp)
        assert rp._block_traces(rp.RowStack.of([], 3, 4), none, none, rep,
                                table).shape == (0,)
        assert pair_traces(rep, empty, none, none, table).shape == (0,)

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 2), (2, 6), (3, 4), (4, 4)])
    def test_table_is_the_character_sum(self, n, L):
        """weyl_table against F[a, b] = sum_k omega^{b.d(k)} E[k, k (+) a]
        over every a and b: n G[a, b'] when the digits of b sum to 0 mod n,
        else 0."""
        rep = rep_for(n, L)
        blocks = random_blocks(rep, np.random.default_rng(n + L))
        e = sector_matrix(blocks, rep)
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
        from the dense sector_matrix of the same blocks, for random blocks
        and for those of e^{-H} of the Baxter test spec."""
        rep = rep_for(n, L)
        t = [1.0] * (L - 1)
        t[L // 2 - 1] = -0.5
        spec = baxter(n, L, t)
        for blocks in (random_blocks(rep, np.random.default_rng(n * L)),
                       rp.matrix_exp(-rp._sectors(spec.total(), rep))):
            dense = dense_weyl_table(sector_matrix(blocks, rep), rep)
            assert np.array_equal(weyl_table(blocks, rep), dense)


class TestRoutedFunctionals:
    def test_gram_psd_multi_term_basis(self):
        n, L = 3, 6
        rng = np.random.default_rng(7)
        rep = rep_for(n, L)
        spec = baxter(n, L, [1.0, 0.7, -0.4, 0.7, 1.0])
        basis = [Polynomial.identity(n, L)] + [
            rp.random_minus_observable(n, L, rng, max_terms=5) for _ in range(6)
        ]
        boltzmann = rp.matrix_exp(-to_matrix(spec.total(), rep))
        g = dense_traces(basis, [reflect(p) for p in basis], rep, boltzmann,
                         grid=True)
        gh = (g + g.conj().T) / 2
        scale = 1.0 + float(np.abs(gh).max())
        ref_min = float(np.linalg.eigvalsh(gh).min()) / scale
        got, got_min = rp.gram_psd(spec, rep, rp.RowStack.of(basis, n, L))
        assert_close(got, gh)
        assert abs(got_min - ref_min) <= 1e-12 * (1 + abs(ref_min))

    def test_no_dense_matrix_of_observables(self, monkeypatch):
        """check_rp builds one dense matrix, that of H, whatever the number
        of probes, and builds the structured observables once."""
        n, L = 3, 6
        spec = baxter(n, L, [1.0, 0.7, -0.4, 0.7, 1.0])
        rep = rep_for(n, L)
        calls = {"to_matrix": 0, "structured": 0}
        to_matrix_orig = rp.to_matrix
        structured_orig = rp.structured_probes

        def counting_to_matrix(p, r):
            calls["to_matrix"] += 1
            return to_matrix_orig(p, r)

        def counting_structured(*args):
            calls["structured"] += 1
            return structured_orig(*args)

        monkeypatch.setattr(rp, "to_matrix", counting_to_matrix)
        monkeypatch.setattr(rp, "structured_probes", counting_structured)
        rp.check_rp(spec, rep, samples=10, seed=2)
        assert calls == {"to_matrix": 1, "structured": 1}

    def test_counterexample_matches_dense(self):
        for n in (2, 3, 5):
            rep = rep_for(n, 2)
            spec = rp.crossing_only_spec(n)
            boltzmann = rp.matrix_exp(-to_matrix(spec.total(), rep))
            for j in range(1, n + 1):
                a = Polynomial.monomial(
                    1.0, ExponentVector((j % n, 0), n)
                )
                [ref] = dense_traces([a], [reflect(a)], rep, boltzmann)
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
])
def test_each_job_builds_one_table(command, tmp_path, monkeypatch):
    """One Weyl table per Boltzmann factor and one kernel pass per job: each
    rp-check, gram and bounds job builds one table, from the sector blocks of
    e^{-H} with no dense e^{-H} (sector_matrix), and reads every trace it
    needs from it in one pair_traces call, however many probes it draws."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"baxter": {"n": 3, "L": 6, "t": [1.0, 0.6, -0.5, 0.6, 1.0]}}
    ))
    calls = {"weyl_table": 0, "pair_traces": 0, "sector_matrix": 0}
    for name in calls:
        original = getattr(rp, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rp, name, counting)
    code, _ = run_cli(command + ["--spec", str(path)])
    assert code == 0
    assert calls == {"weyl_table": 1, "pair_traces": 1, "sector_matrix": 0}


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

COMMANDS = (
    ["rp-check", "--samples", "6", "--seed", "3"],
    ["gram"],
    ["bounds", "--samples", "3", "--seed", "4"],
)


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


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_report_matches_dense_reference(command, name, tmp_path,
                                            monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    argv = command + ["--spec", str(path)]
    code, report = run_cli(argv)
    # The dense path: every trace from dense triple products with the E
    # whose blocks the job's one table was built from.
    seen = []
    table_orig = rp.weyl_table
    monkeypatch.setattr(
        rp, "weyl_table", lambda blocks, rep:
        seen.append(sector_matrix(blocks, rep)) or table_orig(blocks, rep)
    )
    monkeypatch.setattr(
        rp, "_block_traces", lambda stack, x, y, rep, table:
        dense_block_traces(stack, x, y, rep, seen[-1])
    )
    ref_code, ref_report = run_cli(argv)
    assert len(seen) == 1
    assert code == ref_code
    assert_reports_close(report, ref_report)
    if name == "baxter-violating" and command[0] != "bounds":
        assert code == cli.VIOLATIONS


# -- CLI reports, exactly, against per-probe references ------------------------


def reference_report(argv, spec_dict):
    """The report of ``argv`` composed from the one-block functions, probe by
    probe and pair by pair: random_minus_observable, reflect, _block_traces
    of one probe and its reflection, gram_psd and rp_bounds_check."""
    spec = spec_from_dict(spec_dict)
    n, L = spec.order, spec.sites
    rep = rep_for(n, L)
    tol = rp.DEFAULT_TOL
    command, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
    samples, seed = int(options.get("--samples", 0)), int(options.get("--seed", 0))
    rng = np.random.default_rng(seed)
    head = {"command": command, "n": n, "L": L}
    if command == "gram":
        basis = [Polynomial.monomial(1.0, vec)
                 for d in range(0, L // 2 * (n - 1) + 1, n)
                 for vec in rp.minus_monomials_of_degree(n, L, d)]
        gram, min_eig = rp.gram_psd(spec, rep, rp.RowStack.of(basis, n, L))
        schwarz_ok = schwarz_loop(gram, tol)
        ok = min_eig >= -tol and schwarz_ok
        return (cli.PASS if ok else cli.VIOLATIONS), {
            **head, "basis_size": len(basis), "gram_min_eigenvalue": min_eig,
            "schwarz_ok": schwarz_ok, "tolerance": tol, "passed": ok,
        }
    if command == "bounds":
        plus = [reflect(rp.random_minus_observable(n, L, rng))
                for _ in range(2 * samples)]
        pairs = [(Polynomial.identity(n, L),) * 2] + list(zip(plus[::2], plus[1::2]))
        worst, all_ok = None, True
        for a, b in pairs:
            res = rp.rp_bounds_check(a, b, spec, rep, tol=tol)
            all_ok = all_ok and res["ok"]
            margin = min(res["margin1"], res["margin2"], res["partition_margin"])
            if worst is None or margin < worst["min_margin"] - cli.WORST_TIE:
                worst = {"min_margin": margin, **res}
        return (cli.PASS if all_ok else cli.VIOLATIONS), {
            **head, "pairs": len(pairs), "seed": seed, "tolerance": tol,
            "worst": worst, "passed": all_ok,
        }
    structured = [("identity", Polynomial.identity(n, L))] + [
        (f"C{vec.entries}", Polynomial.monomial(1.0, vec))
        for vec in rp.minus_monomials_of_degree(n, L, n)]
    probes = structured + [(f"random[{i}]", rp.random_minus_observable(n, L, rng))
                           for i in range(samples)]
    table = rp.boltzmann_table(spec, rep)
    z = complex(table[0, 0])
    violations = []
    if abs(z.imag) > tol * (1.0 + abs(z)) or z.real <= 0:
        violations.append(["partition_function", z.imag if z.real > 0 else z.real])
    min_diag, max_imag = math.inf, 0.0
    for label, a in probes:
        pair = rp.RowStack.of([a, reflect(a)], n, L)
        val, sym = rp._block_traces(pair, np.array([0, 1]), np.array([1, 0]),
                                    rep, table).tolist()
        scale = 1.0 + abs(val)
        re_n, im_n = val.real / scale, abs(val.imag) / scale
        min_diag, max_imag = min(min_diag, re_n), max(max_imag, im_n)
        if re_n < -tol:
            violations.append([f"{label}:diagonal_real", re_n])
        if im_n > tol:
            violations.append([f"{label}:diagonal_imag", im_n])
        if abs(val - sym) > tol * scale:
            violations.append([f"{label}:symmetry", abs(val - sym)])
    _, min_eig = rp.gram_psd(
        spec, rep, rp.RowStack.of([a for _, a in structured], n, L))
    if min_eig < -tol:
        violations.append(["gram", min_eig])
    return (cli.VIOLATIONS if violations else cli.PASS), {
        **head, "validated_rule": spec.validated_rule.value,
        "partition_function": [z.real, z.imag], "min_diagonal_real": min_diag,
        "max_diagonal_imag_abs": max_imag, "gram_min_eigenvalue": min_eig,
        "samples": samples, "seed": seed, "tolerance": tol,
        "violations": violations,
    }


SEEDED = [
    [name, "--samples", samples, "--seed", seed]
    for name, samples in (("rp-check", "6"), ("bounds", "3"))
    for seed in ("0", "3", "4")
] + [["gram"], ["bounds", "--samples", "6", "--seed", "3"]]


@pytest.mark.parametrize("argv", SEEDED, ids=" ".join)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_report_is_exactly_the_per_probe_report(name, argv, tmp_path,
                                                     capsys):
    """Byte for byte the report the per-probe path gives, exit code and
    error line included: one trace pass changes no sum.  With 6 samples at
    seed 3, bounds on the violating spec stops at a later pair with
    f(B, B) < 0."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[name]))
    code = cli.main(argv + ["--spec", str(path)])
    out, err = capsys.readouterr()
    try:
        ref_code, ref = reference_report(argv, SPECS[name])
    except ValueError as exc:  # an RP-violating pair in bounds
        assert (code, out, err) == (cli.ERROR, "", f"error: {exc}\n")
        return
    assert (code, err) == (ref_code, "")
    assert out == json.dumps(ref, sort_keys=True) + "\n"


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
    offending site, or the int-normalized entries."""
    for j, e in enumerate(entries):
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
