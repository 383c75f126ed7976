"""The command-line contract: every argument error exits 1 with one line on
stderr, each subcommand takes only the flags it reads, and the two-site
counterexample's verdict is exact: f(c^j) = n zeta^p s / k0! with s > 0, so
it is positive exactly when the integer p = j (n - j) mod 2n is 0, checked
against the exact sums of the stepping loop and, for realness, against long
division by Phi_2n; the CLI runs on numpy alone."""

import functools
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pararp import cli, hamiltonian, rp
from pararp.cli import main

from conftest import stepped_counterexample_sums


def run(capsys, *argv):
    """main on ``argv`` by both routes of the parse, a known subcommand's
    argv straight to its own parser and every argv through the full
    parser: the same exit code, report and stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.build_parser(), "commands", {})
        again = main(list(argv)), *capsys.readouterr()
    assert again == (code, captured.out, captured.err), argv
    return code, captured.out, captured.err


def run_fresh(tmp_path, spec, *argv):
    """The CLI on ``spec`` in a fresh interpreter, so that stderr holds
    every RuntimeWarning: (exit code, stdout, stderr)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pararp.cli", *argv, "--spec", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": env_path},
    )
    return result.returncode, result.stdout, result.stderr


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["rp-check", "--n", "abc"],
        ["rp-check", "--bogus", "1"],
        ["rp-check", "--n", "3", "--L", "30"],
        ["rp-check", "--n", "3", "--sam", "4"],  # no abbreviations
        ["nonsense"],
        ["families", "--family", "4", "--kparam", "2"],
        ["counterexample", "--n", "2", "--samples", "3"],
        ["baxter", "--n", "3"],
        ["verify-relations", "--n", "2", "--L", "4", "--seed", "1"],
        ["trotter", "--n", "2", "--k"],
        ["gram", "--n", "3", "--tol", "inf"],  # would pass every check
        ["gram", "--n", "3", "--tol", "nan"],
        ["rp-check", "--n", "3", "--seed", "-1"],
        ["bounds", "--n", "3", "--seed", "-1"],
        ["counterexample", "--n", "3", "--tol", "1e-3"],  # exact verdicts
        ["families", "--family", "2", "--kparam", "2", "--jprime", "1",
         "--tol", "1e-3"],
    ],
)
def test_argument_errors_exit_1_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[-2:] == ["--seed", "-1"]:  # named at parse time, before any spec
        assert "argument --seed: must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "spec",
    [
        [1, 2],
        {"baxter": 5},
        {"baxter": {"n": 3, "L": 4, "t": [1, None, 1]}},
        {"baxter": {"n": 3, "L": 4, "t": [1, "-0.5", 1]}},
        {"n": 3, "L": 4, "h_minus": 7},
        {"n": 3, "L": 4, "h_minus": [5]},
        {"n": 3, "L": 4, "couplings": [3]},
        {"n": 3, "L": 4, "h_minus": [
            {"coefficient": [True, 0], "exponents": [1, 2, 0, 0]}]},
        {"n": 3, "L": 4, "couplings": [{"exponents": [1, 0, 0, 0], "J": True}]},
        {"n": 3, "L": 4, "couplings": [{"exponents": [True, 0, 0, 0], "J": 1}]},
        {"n": 1, "L": 4},  # must not loop: no power of 1 exceeds 2^63
        {"n": True, "L": 4},
        {"n": 3, "L": 3},
        {"n": 3, "L": 0},
        {"baxter": {"n": 3, "L": 5, "t": [1, 1, 1, 1]}},
    ],
)
def test_malformed_spec_exits_1_with_one_line(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "rp-check", "--spec", str(path))
    assert code == cli.ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec,size",
    [
        ({"n": 1000000, "L": 2}, "1000000^1"),
        ({"n": 2, "L": 2000}, "2^1000"),
        ({"baxter": {"n": 3, "L": 20000, "t": []}}, "3^10000"),
    ],
)
def test_oversized_spec_refused_before_assembly(
    capsys, tmp_path, monkeypatch, spec, size
):
    def assemble(*args):
        raise AssertionError("assembled before the dimension cap")

    monkeypatch.setattr(hamiltonian, "assemble", assemble)
    monkeypatch.setattr(rp, "assemble", assemble)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for name in ("rp-check", "gram", "trotter", "bounds", "baxter", "decompose"):
        code, out, err = run(capsys, name, "--spec", str(path))
        assert code == cli.ERROR and out == "", name
        assert err == (
            f"error: representation dimension {size} exceeds cap 4096\n"), name
    code, out, err = run(capsys, "rp-check", "--n", "1000000")
    assert code == cli.ERROR and out == ""
    assert err == "error: representation dimension 1000000^1 exceeds cap 4096\n"


@pytest.mark.parametrize("name", ["rp-check", "bounds", "baxter"])
def test_non_finite_h_exits_1_with_one_line(tmp_path, name):
    """The constant term of H is 2 * 1e308 = inf: refused with one line and
    no RuntimeWarning, in a fresh interpreter so that stderr is all there."""
    code, out, err = run_fresh(tmp_path, {
        "n": 3, "L": 4,
        "h_minus": [{"coefficient": [1e308, 0], "exponents": [0, 0, 0, 0]}],
        "couplings": [{"exponents": [1, 2, 0, 0], "J": 0.4}],
    }, name)
    assert code == cli.ERROR and out == ""
    assert err == "error: H has a non-finite coefficient\n"


@pytest.mark.parametrize("name", ["rp-check", "gram", "bounds", "trotter",
                                  "decompose"])
def test_overflowing_blocks_exit_1_with_one_line(tmp_path, name):
    """H is finite, but an entry of its sector blocks, 2 * 1e308, is not:
    one line naming the overflow, and no RuntimeWarning."""
    code, out, err = run_fresh(tmp_path, {
        "n": 2, "L": 4,
        "h_minus": [{"coefficient": [1e308, 0], "exponents": [1, 1, 0, 0]}],
        "couplings": [],
    }, name)
    assert code == cli.ERROR and out == ""
    assert err == "error: overflow encountered in ifft\n"


def test_huge_baxter_couplings_report_finite_gaps(tmp_path):
    """|H_ij| near 1e200: exit 0 with both symbolic verdicts, a standard
    JSON report and nothing on stderr."""
    code, out, err = run_fresh(
        tmp_path, {"baxter": {"n": 3, "L": 4, "t": [1e200, -1e200, 1e200]}},
        "baxter")
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["symmetries"] == {"reflection_symbolic": True,
                                    "gauge_symbolic": True}


def test_baxter_report_has_exactly_its_keys(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": 3, "L": 4, "t": [1, -0.5, 1]}}))
    code, out, _ = run(capsys, "baxter", "--spec", str(path))
    report = json.loads(out)
    assert code == cli.PASS and set(report) == {
        "command", "n", "L", "validated_rule", "rp_hypotheses_met",
        "symmetries", "passed"}
    assert set(report["symmetries"]) == {"reflection_symbolic", "gauge_symbolic"}


@pytest.mark.parametrize("name", ["gram", "trotter"])
def test_huge_boltzmann_factor_gives_standard_json(tmp_path, name):
    """e^{-H} near 5.7e222, whose squares overflow: finite values, standard
    JSON and nothing on stderr."""
    code, out, err = run_fresh(
        tmp_path, {"baxter": {"n": 2, "L": 4, "t": [230, -230, 230]}}, name)
    assert code in (cli.PASS, cli.VIOLATIONS) and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    if name == "trotter":
        assert all(math.isfinite(e) for e in report["errors"].values())
        assert math.isfinite(report["ratio"])


@pytest.mark.parametrize("spec", [{"n": 2, "L": 2},
                                  {"baxter": {"n": 3, "L": 4, "t": [0, 0, 0]}}])
def test_trotter_with_zero_errors_reports_a_null_ratio(capsys, tmp_path, spec):
    """H = 0 makes both Trotter errors exactly 0 and their ratio inf, which
    JSON has no constant for: the ratio is null and the run is not passed."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "trotter", "--spec", str(path))
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == cli.VIOLATIONS and err == ""
    assert report["ratio"] is None and report["passed"] is False
    assert report["errors"] == {"64": 0.0, "128": 0.0}


def test_huge_sample_count_fails_at_once_naming_the_allocation(tmp_path):
    """rp-check --samples 10^12 draws its probes before it labels any: the
    draw's allocation fails at once, exit 1 with numpy's message.  The run
    has an address-space limit and a timeout, so that a regression, which
    would fill memory with labels first, cannot exhaust the machine."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": 3, "L": 6, "t": [1] * 5}}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pararp.cli", "rp-check", "--samples",
         str(10**12), "--spec", str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": env_path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == cli.ERROR and result.stdout == ""
    assert result.stderr.startswith("error: Unable to allocate ")
    assert time.perf_counter() - start < 30


def test_violating_bounds_exit_2_with_a_report(tmp_path):
    """f(A, A) < 0 is a violation, not an error: exit 2, the report
    written, its worst pair not ok."""
    code, out, err = run_fresh(
        tmp_path, {"baxter": {"n": 3, "L": 4, "t": [1, 2, 1]}},
        "bounds", "--samples", "200")
    assert code == cli.VIOLATIONS and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["passed"] is False and report["pairs"] == 201
    assert report["worst"]["ok"] is False


def test_huge_decompose_reports_a_finite_gap(tmp_path):
    """e^{-H} near 5.7e222: exit 0 with a finite round-trip gap, standard
    JSON and nothing on stderr, in a fresh interpreter, so that a
    RuntimeWarning would show."""
    code, out, err = run_fresh(
        tmp_path, {"baxter": {"n": 2, "L": 4, "t": [230, -230, 230]}},
        "decompose")
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert math.isfinite(report["roundtrip_gap"]) and report["passed"]
    assert max(abs(c) for t in report["terms"] for c in t["coefficient"]) > 1e222


def test_non_finite_decompose_gap_is_not_passed(tmp_path, monkeypatch, capsys):
    # inf <= 1e-10 * (1 + inf): an infinite gap under an infinite scale.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": 2, "L": 4,
                                           "t": [1.0, -0.5, 1.0]}}))
    monkeypatch.setattr(rp, "_norm", lambda x: math.inf)
    code, out, _ = run(capsys, "decompose", "--spec", str(path))
    assert code == cli.VIOLATIONS and json.loads(out)["passed"] is False


def test_verify_relations_far_past_the_cap(capsys):
    code, out, err = run(capsys, "verify-relations", "--n", "3", "--L", "2000000")
    assert code == cli.ERROR and out == ""
    assert err == "error: representation dimension 3^1000000 exceeds cap 4096\n"


def test_unread_flag_names_the_command(capsys):
    _, _, err = run(capsys, "rp-check", "--n", "3", "--L", "30")
    assert err == "error: pararp rp-check: unrecognized arguments: --L 30\n"


@pytest.mark.parametrize("argv,missing", [
    (["verify-relations", "--n", "3"], "--L"),
    (["counterexample"], "--n"),
    (["families", "--family", "1"], "--kparam"),
    (["baxter"], "--spec"),
])
def test_a_missing_required_flag_is_one_line(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert code == cli.ERROR and out == ""
    assert err == (f"error: pararp {argv[0]}: the following arguments are "
                   f"required: {missing}\n")


@pytest.mark.parametrize("argv,tol", [
    (["verify-relations", "--n", "3", "--L", "2"], 1e-11),
    (["rp-check", "--n", "3", "--samples", "4"], 1e-9),
    (["gram", "--n", "3"], 1e-9),
    (["bounds", "--n", "3", "--samples", "4"], 1e-9),
])
def test_tolerance_defaults(capsys, argv, tol):
    """verify-relations declares its own --tol default; the others take the
    shared one, rp.DEFAULT_TOL."""
    code, out, _ = run(capsys, *argv)
    assert code == cli.PASS
    assert json.loads(out)["tolerance"] == tol


HUGE = 10 ** 400  # an integer past the float range


@pytest.mark.parametrize("spec,message", [
    ({"n": 2, "L": 2, "couplings": [{"exponents": [1, 1], "J": HUGE}]},
     "couplings[0]: J must be a finite real"),
    ({"baxter": {"n": 3, "L": 4, "t": [1, HUGE, 1]}},
     "field 't' must be a list of finite reals"),
    ({"n": 2, "L": 2, "h_minus": [{"exponents": [0, 0],
                                   "coefficient": [HUGE, 0]}]},
     "h_minus[0]: coefficient must be [re, im]"),
    ({"n": 2, "L": 2, "h_minus": [{"exponents": [0, 0],
                                   "coefficient": [0, -HUGE]}]},
     "h_minus[0]: coefficient must be [re, im]"),
])
def test_an_integer_past_the_float_range_is_named(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "gram", "--spec", str(path))
    assert (code, out, err) == (cli.ERROR, "", f"error: {message}\n")


# A valid value of each flag a command may require.
REQUIRED_VALUES = {"--n": "3", "--L": "2", "--family": "1", "--kparam": "3",
                   "--spec": "spec.json"}


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_command_rejects_every_flag_it_does_not_read(capsys, name):
    """With every flag the command requires given, each flag it does not
    read is refused as unrecognized, before any spec is read."""
    _, reads = cli.COMMANDS[name]
    required = [w for f in re.findall(r"(--\w+)!", reads)
                for w in (f, REQUIRED_VALUES[f])]
    for flag in set(cli.FLAGS) - set(re.findall(r"--\w+", reads)) - {"--out"}:
        code, out, err = run(capsys, name, *required, flag, "1")
        assert code == cli.ERROR and out == "", (name, flag)
        assert "unrecognized arguments" in err, (name, flag)


# -- exact verdicts for the two-site counterexample ---------------------------


def float_verdict(val, tol=rp.DEFAULT_TOL):
    """The verdict the float test gives: real and non-negative within tol."""
    scale = 1.0 + abs(val)
    return val.real >= -tol * scale and abs(val.imag) <= tol * scale


def test_counterexample_verdicts_up_to_n_40():
    for n in range(2, 41):
        for j in range(1, n + 1):
            positive, val = rp.counterexample_check(n, j)
            assert val == rp.counterexample_f(n, j)
            if abs(val) > 1e-6:  # resolved in floats: the verdicts agree
                assert positive == float_verdict(val), (n, j, val)
            elif positive != float_verdict(val):
                # Below the tolerance the float test calls every value
                # positive; the exact one calls a non-real value, or a
                # real one at or below 0, not positive.
                assert not positive and abs(val) < 1e-8, (n, j, val)
        # f(c) carries the phase omega^{(n-1)/2} != 1 for every n.
        assert not rp.counterexample_check(n, 1)[0]


@pytest.mark.parametrize("family,k,jprime", [
    (2, 2, 1), (3, 3, 1), (3, 3, 2), (1, 3, None), (1, 7, None),
])
def test_families_stay_positive(family, k, jprime):
    positive, val = rp.family_check(family, k, jprime)
    assert positive and val.imag == 0.0


def test_cli_counterexample_171_is_not_positive(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "171")
    assert code == cli.VIOLATIONS
    assert '"positive": false' in out


def test_cli_counterexample_observable_power_is_positive(capsys):
    code, _, _ = run(capsys, "counterexample", "--n", "6", "--j", "6")
    assert code == cli.PASS


def divmod_monic(num, den):
    """Quotient and remainder of integer polynomials, ``den`` monic, the
    coefficients constant term first."""
    rem, top = list(num), len(den) - 1
    quot = [0] * max(len(rem) - top, 0)
    for i in reversed(range(len(quot))):
        quot[i] = lead = rem[i + top]
        for t, coeff in enumerate(den):
            rem[i + t] -= lead * coeff
    return quot, rem[:top]


@functools.cache
def cyclotomic(m):
    """Phi_m, constant term first: x^m - 1 divided by Phi_d for every
    proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, _ = divmod_monic(poly, cyclotomic(d))
    return tuple(poly)


def is_real_by_division(n, coeffs):
    """Whether sum_p coeffs[p] zeta^p over p < n is real, by dense long
    division by Phi_2n, the minimal polynomial of zeta, of D(x) = sum_q
    (coeffs[q] + coeffs[n - q]) x^q over q = 1..n-1, with D(zeta) twice i
    times the imaginary part: the reference for the integer verdict."""
    d = [Fraction(0)] + [coeffs[q] + coeffs[n - q] for q in range(1, n)]
    scale = math.lcm(*(x.denominator for x in d))
    _, rem = divmod_monic([int(x * scale) for x in d], cyclotomic(2 * n))
    return not any(rem)


@pytest.mark.parametrize("low", range(2, 151, 30))
def test_is_real_cyclotomic_matches_the_division(low):
    """Every n <= 150, at each j with n | j^2 (where the positive families
    lie) and at five seeded others: the verdict's realness, p = 0 mod n,
    against the division on the sums of the stepping loop."""
    for n in range(low, low + 30):
        rng = np.random.default_rng(n)
        js = {j for j in range(1, n + 1) if j * j % n == 0}
        js |= set(rng.integers(1, n + 1, size=5).tolist())
        for j in sorted(js):
            _, p, _ = rp._counterexample_sums(n, j)
            real = p % n == 0
            assert real == (j * j % n == 0), (n, j)
            sums = stepped_counterexample_sums(n, j)
            assert real == is_real_by_division(n, sums), (n, j)


@pytest.mark.parametrize("low", range(2, 151, 30))
def test_verdict_is_the_sign_of_the_stepped_sums(low):
    """Every n <= 150 and every j: f(c^j) is positive exactly when the
    stepping loop's exact sums are one positive rational at zeta^0."""
    for n in range(low, low + 30):
        for j in range(1, n + 1):
            sums = stepped_counterexample_sums(n, j)
            positive = sums[0] > 0 and not any(sums[1:])
            assert rp.counterexample_check(n, j)[0] == positive, (n, j)


@pytest.mark.parametrize("argv,value", [
    (["counterexample", "--n", "28", "--j", "14"], [-3.2118087673643227e-10, 0.0]),
    (["counterexample", "--n", "196", "--j", "14"], [0.0, 0.0]),  # underflows
])
def test_exactly_real_non_positive_values_are_not_positive(capsys, argv, value):
    """Exactly real with real part <= 0: within any float tolerance of 0,
    and still not positive."""
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert code == cli.VIOLATIONS and report["positive"] is False
    assert report["value"] == value


@pytest.mark.parametrize("argv", [
    ["counterexample", "--n", "20000"],
    ["families", "--family", "1", "--kparam", "30"],  # n = 27000
    ["counterexample", "--n", "1000000"],
    ["families", "--family", "1", "--kparam", "100"],  # n = 10^6
    ["families", "--family", "1", "--kparam", "500"],  # n = 1.25 * 10^8
    ["families", "--family", "1", "--kparam", "10000"],  # n = 10^12
    ["counterexample", "--n", "1000000000000", "--j", "3"],
])
def test_large_n_exact_verdicts_are_fast(argv, capsys):
    tracemalloc.start()
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 10.0 and peak < 2**20
    assert (code, err) == (cli.VIOLATIONS if argv[0] == "counterexample"
                           else cli.PASS, "")
    assert json.loads(out)["n"] in (20000, 27000, 10**6, 500**3, 10**12)


def test_cli_never_imports_scipy(tmp_path):
    """In a fresh interpreter, each of the nine subcommands runs once on a
    tiny input, and scipy is never imported."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"baxter": {"n": 2, "L": 4, "t": [0.8, -0.5, 0.8]}}))
    runs = [
        ["verify-relations", "--n", "2", "--L", "4"],
        ["rp-check", "--spec", str(spec), "--samples", "2"],
        ["gram", "--spec", str(spec)],
        ["trotter", "--spec", str(spec), "--k", "4"],
        ["bounds", "--spec", str(spec), "--samples", "2"],
        ["counterexample", "--n", "2"],
        ["families", "--family", "2", "--kparam", "2", "--jprime", "1"],
        ["baxter", "--spec", str(spec)],
        ["decompose", "--spec", str(spec)],
    ]
    assert sorted(argv[0] for argv in runs) == sorted(cli.COMMANDS)
    script = (
        "import sys\n"
        "from pararp import cli\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv + ['--out', 'report.json']) in (0, 2), argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_huge_finite_coefficient_exits_1_with_one_line(tmp_path):
    """A finite h_minus coefficient whose modulus exceeds the float range is
    read, not refused by the modulus test: its reflection overflows, and
    rp-check exits 1 with one line naming the non-finite H, in a fresh
    interpreter so that stderr is all there."""
    code, out, err = run_fresh(tmp_path, {
        "n": 3, "L": 4,
        "h_minus": [{"coefficient": [1.7e308, 1.7e308], "exponents": [1, 2, 0, 0]}],
        "couplings": [{"exponents": [1, 2, 0, 0], "J": 0.4}],
    }, "rp-check")
    assert code == cli.ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "absolute value too large" not in err


def test_deeply_nested_spec_exits_1_with_one_line(capsys, tmp_path):
    """json.loads gives up on 100 000 nested lists with RecursionError: a
    SpecError naming the file, one line on stderr."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "gram", "--spec", str(path))
    assert (code, out, err) == (cli.ERROR, "", f"error: {path}: nested too deeply\n")
    with pytest.raises(hamiltonian.SpecError, match="nested too deeply"):
        hamiltonian.load_spec(str(path))


def test_every_command_reports_the_same_by_both_parse_routes(capsys, tmp_path):
    """Each of the nine subcommands on a tiny input, through run: its own
    parser and the full parser give the same exit code, report and
    stderr."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"baxter": {"n": 2, "L": 4, "t": [0.8, -0.5, 0.8]}}))
    runs = [
        ["verify-relations", "--n", "2", "--L", "4"],
        ["rp-check", "--spec", str(spec), "--samples", "2", "--seed", "3"],
        ["gram", "--spec", str(spec)],
        ["trotter", "--spec", str(spec), "--k", "4"],
        ["bounds", "--spec", str(spec), "--samples", "2"],
        ["counterexample", "--n", "2"],
        ["families", "--family", "2", "--kparam", "2", "--jprime", "1"],
        ["baxter", "--spec", str(spec)],
        ["decompose", "--spec", str(spec)],
    ]
    assert sorted(argv[0] for argv in runs) == sorted(cli.COMMANDS)
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code in (cli.PASS, cli.VIOLATIONS) and err == "", argv
        assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("argv", [[name, "--help"] for name in sorted(cli.COMMANDS)]
                         + [["--help"], ["-h"], ["gram", "-h"]])
def test_help_is_the_same_by_both_parse_routes(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    direct = exc.value.code, capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.build_parser(), "commands", {})
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, capsys.readouterr().out) == direct
    assert direct[0] == 0 and direct[1].startswith("usage: pararp")
    if argv[0] in cli.COMMANDS:
        assert direct[1] == cli.build_parser().commands[argv[0]].format_help()
