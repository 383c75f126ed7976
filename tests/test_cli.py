import json

import pytest

from pararp import cli, rp
from pararp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_relations_pass(self, capsys):
        code, out, _ = run(capsys, "verify-relations", "--n", "3", "--L", "2")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert max(report["residuals"].values()) < 1e-11

    def test_verify_relations_missing_args(self, capsys):
        code, _, err = run(capsys, "verify-relations", "--n", "3")
        assert code == 1
        assert "requires" in err

    def test_rp_check_crossing_only(self, capsys):
        code, out, _ = run(capsys, "rp-check", "--n", "3", "--samples", "50")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        assert report["validated_rule"] == "all_nonneg"

    def test_counterexample_violation(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--n", "2")
        assert code == 2
        report = json.loads(out)
        assert report["positive"] is False
        re, im = report["value"]
        assert abs(re) < 1e-10
        assert abs(im - 2.3504023872876028) < 1e-9
        assert report["series_gap"] < 1e-10

    def test_counterexample_observable_power_passes(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--n", "3", "--j", "3")
        assert code == 0
        assert json.loads(out)["positive"] is True

    def test_families_pass(self, capsys):
        code, out, _ = run(
            capsys, "families", "--family", "2", "--kparam", "2", "--jprime", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert (report["n"], report["j"]) == (8, 4)
        assert report["positive_real"] is True

    def test_families_bad_params(self, capsys):
        code, _, err = run(capsys, "families", "--family", "3", "--kparam", "4")
        assert code == 1
        assert "error:" in err

    def test_trotter(self, capsys):
        code, out, _ = run(capsys, "trotter", "--n", "3", "--k", "32")
        assert code == 0
        report = json.loads(out)
        assert 1.6 <= report["ratio"] <= 2.4

    def test_gram(self, capsys):
        code, out, _ = run(capsys, "gram", "--n", "3")
        assert code == 0
        report = json.loads(out)
        assert report["gram_min_eigenvalue"] >= -report["tolerance"]

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2", "--samples", "5")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2")
        assert code == 0
        report = json.loads(out)
        assert report["roundtrip_gap"] < 1e-10
        assert len(report["terms"]) >= 1


class TestSpecFiles:
    def test_baxter_spec_valid(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"baxter": {"n": 3, "L": 4, "t": [1.0, -0.5, 1.0]}}))
        code, out, _ = run(capsys, "baxter", "--spec", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["rp_hypotheses_met"] is True
        assert report["validated_rule"] == "all_nonneg"

    def test_baxter_spec_invalid_coupling_flagged(self, capsys, tmp_path):
        # positive middle coupling at odd n: symmetric but no valid sign rule
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"baxter": {"n": 3, "L": 4, "t": [1.0, 0.5, 1.0]}}))
        code, out, _ = run(capsys, "baxter", "--spec", str(path))
        assert code == 0  # structural checks still pass
        report = json.loads(out)
        assert report["rp_hypotheses_met"] is False
        assert report["validated_rule"] == "none"

    def test_rp_check_on_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"baxter": {"n": 2, "L": 4, "t": [0.8, -0.5, 0.8]}}))
        code, out, _ = run(capsys, "rp-check", "--spec", str(path), "--samples", "30")
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "rp-check", "--spec", "/nonexistent.json")
        assert code == 1
        assert "error:" in err

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n  "L": }')
        code, _, err = run(capsys, "rp-check", "--spec", str(path))
        assert code == 1
        assert "line 2" in err

    def test_repeated_coupling_exponents(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 3, "L": 4, "couplings": [
            {"exponents": [1, 0, 0, 0], "J": 1.0},
            {"exponents": [1, 0, 0, 0], "J": -2.0}]}))
        code, out, err = run(capsys, "gram", "--spec", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: couplings[1]: exponents repeat couplings[0]"]

    def test_unknown_spec_field(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 3, "L": 4, "coupling": [
            {"exponents": [1, 0, 0, 0], "J": -1.0}]}))
        code, out, err = run(capsys, "gram", "--spec", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: unknown field 'coupling'"]


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rp-check", "--n", "1"],
            ["rp-check", "--n", "3", "--samples", "0"],
            ["trotter", "--n", "3", "--k", "0"],
            ["verify-relations", "--n", "3", "--L", "3"],
            ["rp-check", "--n", "3", "--tol", "-1"],
            ["rp-check"],  # neither --spec nor --n
        ],
    )
    def test_bad_arguments(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = main(
                ["rp-check", "--n", "3", "--samples", "40", "--seed", "7",
                 "--out", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, capsys):
        _, out1, _ = run(capsys, "bounds", "--n", "2", "--samples", "5", "--seed", "1")
        _, out2, _ = run(capsys, "bounds", "--n", "2", "--samples", "5", "--seed", "2")
        assert json.loads(out1)["seed"] != json.loads(out2)["seed"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(capsys, "counterexample", "--n", "3")
        code2 = main(["counterexample", "--n", "3", "--out", str(path)])
        capsys.readouterr()
        assert code == code2 == 2
        assert path.read_text() == out


class TestParserReuse:
    def test_consecutive_calls_share_no_state(self, capsys):
        from pararp.cli import build_parser
        from pararp.rp import DEFAULT_TOL

        code, out, _ = run(
            capsys, "bounds", "--n", "2", "--samples", "3", "--seed", "9",
            "--tol", "1e-3",
        )
        assert code == 0
        first = json.loads(out)
        assert (first["pairs"], first["seed"], first["tolerance"]) == (4, 9, 1e-3)
        code, out, _ = run(capsys, "gram", "--n", "3")
        assert code == 0
        assert json.loads(out)["tolerance"] == DEFAULT_TOL
        code, out, _ = run(capsys, "bounds", "--n", "2", "--samples", "2")
        assert code == 0
        second = json.loads(out)
        assert (second["pairs"], second["seed"], second["tolerance"]) == (
            3, 0, DEFAULT_TOL)
        assert build_parser() is build_parser()


class TestNumericalFailures:
    """Overflow inside the library exits 1 with one line, not a traceback."""

    def test_boltzmann_overflow(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"baxter": {"n": 3, "L": 6, "t": [400, 400, -400, 400, 400]}}))
        code, out, err = run(capsys, "rp-check", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_series_reference_past_float_range(self, capsys):
        # 1/199! is below the float range: the reference is 0, the exact
        # verdict stands.
        code, out, err = run(capsys, "counterexample", "--n", "200")
        report = json.loads(out)
        assert code == 2 and err == ""
        assert report["positive"] is False
        assert report["series_reference"] == [0.0, 0.0]

    @pytest.mark.parametrize("fault", [
        MemoryError(),
        MemoryError("Unable to allocate 2.98 GiB for an array"),
    ])
    @pytest.mark.parametrize("command,name", [
        ("rp-check", "check_rp"), ("bounds", "sampled_bounds"),
    ])
    def test_out_of_memory(self, capsys, monkeypatch, command, name, fault):
        def refuse(*args, **kwargs):
            raise fault

        monkeypatch.setattr(rp, name, refuse)
        code, out, err = run(capsys, command, "--n", "2", "--samples", "3")
        assert code == 1
        assert out == ""
        assert err == f"error: {str(fault) or 'out of memory'}\n"


# -- the report envelope -------------------------------------------------------

# Each command on a tiny input, with the keys of its report.
ENVELOPE = {
    "verify-relations": (["--n", "2", "--L", "4"],
                         "L command n passed residuals tolerance"),
    "rp-check": (["--spec", "SPEC", "--samples", "2"],
                 "L command gram_min_eigenvalue max_diagonal_imag_abs "
                 "min_diagonal_real n partition_function samples seed "
                 "tolerance validated_rule violations"),
    "gram": (["--spec", "SPEC"],
             "L basis_size command gram_min_eigenvalue n passed schwarz_ok "
             "tolerance"),
    "trotter": (["--spec", "SPEC", "--k", "4"],
                "L command errors k n passed ratio"),
    "bounds": (["--spec", "SPEC", "--samples", "2"],
               "L command n pairs passed seed tolerance worst"),
    "counterexample": (["--n", "2"],
                       "command j n positive series_gap series_reference value"),
    "families": (["--family", "2", "--kparam", "2", "--jprime", "1"],
                 "command description family j n positive_real value"),
    "baxter": (["--spec", "SPEC"],
               "L command n passed rp_hypotheses_met symmetries validated_rule"),
    "decompose": (["--spec", "SPEC"], "L command n passed roundtrip_gap terms"),
}


def test_envelope_covers_every_command():
    assert sorted(ENVELOPE) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_report_envelope(command, capsys, tmp_path):
    """Every report names its command; one that reads a spec carries the
    spec's n and L; its keys are fixed; and the exit code follows the
    report's own verdict."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"baxter": {"n": 3, "L": 4, "t": [0.8, -0.5, 0.8]}}))
    flags, keys = ENVELOPE[command]
    argv = [command] + [str(path) if f == "SPEC" else f for f in flags]
    code, out, err = run(capsys, *argv)
    assert err == ""
    report = json.loads(out)
    assert report["command"] == argv[0]
    if "--spec" in flags:
        assert (report["n"], report["L"]) == (3, 4)
    assert sorted(report) == keys.split()
    verdict = next(report[key] == value for key, value in (
        ("passed", True), ("violations", []), ("positive", True),
        ("positive_real", True)) if key in report)
    assert code == (cli.PASS if verdict else cli.VIOLATIONS)
