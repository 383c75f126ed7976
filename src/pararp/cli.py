"""Batch front-end: run named verification suites and emit JSON reports.

Exit codes: 0 all checks passed, 2 the suite ran and found mathematical
violations (the report is still written), 1 usage / IO / parse errors,
with one line on stderr.  Each subcommand accepts only the flags it reads.
Reports are deterministic: sorted keys, shortest round-trip floats, so the
same configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .hamiltonian import (
    CouplingRule,
    HamiltonianSpec,
    SpecError,
    check_symmetries,
    read_spec,
    spec_from_dict,
    spec_size,
)
from . import rp
from .representation import (
    DimensionCapError,
    Representation,
    build_generators,
    decompose,
    to_matrix,
    verify_yamazaki,
)

PASS, VIOLATIONS, ERROR = 0, 2, 1

# bounds: how much lower a later pair's normalised min_margin must be to
# replace the reported worst pair.
WORST_TIE = 1e-12


def emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_spec(args) -> tuple[HamiltonianSpec, Representation]:
    """Spec file if given, else the two-site crossing-only Hamiltonian, and
    its representation.  The representation is built first, so that a size
    beyond the dimension cap is refused before anything is assembled."""
    if args.spec is not None:
        data = read_spec(args.spec)
        rep = build_generators(*spec_size(data))
        return spec_from_dict(data), rep
    if args.n is not None:
        rep = build_generators(args.n, 2)
        return rp.crossing_only_spec(args.n), rep
    raise SpecError("either --spec or --n is required")


def cmd_verify_relations(args):
    rep = build_generators(args.n, args.L)
    residuals = verify_yamazaki(rep)
    tol = args.tol if args.tol is not None else 1e-11
    ok = max(residuals.values()) <= tol
    report = {
        "command": "verify-relations",
        "n": args.n,
        "L": args.L,
        "tolerance": tol,
        "residuals": residuals,
        "passed": ok,
    }
    return (PASS if ok else VIOLATIONS), report


def cmd_rp_check(args):
    spec, rep = _resolve_spec(args)
    tol = args.tol if args.tol is not None else rp.DEFAULT_TOL
    result = rp.check_rp(
        spec, rep, samples=args.samples, seed=args.seed, tol=tol
    )
    report = {
        "command": "rp-check",
        "n": spec.order,
        "L": spec.sites,
        "validated_rule": spec.validated_rule.value,
    }
    report.update(result.to_dict())
    return (PASS if result.passed() else VIOLATIONS), report


def cmd_gram(args):
    spec, rep = _resolve_spec(args)
    tol = args.tol if args.tol is not None else rp.DEFAULT_TOL
    n, L = spec.order, spec.sites
    basis = rp.minus_rows(n, L, range(0, L // 2 * (n - 1) + 1, n))
    gram, min_eig = rp.gram_psd(spec, rep, basis)
    # Schwarz |G_ij|^2 <= G_ii G_jj in min_eig's scale, which PSD implies.
    eps = tol * (1 + np.abs(gram).max(initial=0.0))
    diag = gram.diagonal().real + eps
    schwarz_ok = not (np.abs(gram) ** 2 > np.outer(diag, diag)).any()
    ok = min_eig >= -tol and schwarz_ok
    report = {
        "command": "gram",
        "n": n,
        "L": L,
        "basis_size": len(basis),
        "gram_min_eigenvalue": min_eig,
        "schwarz_ok": schwarz_ok,
        "tolerance": tol,
        "passed": ok,
    }
    return (PASS if ok else VIOLATIONS), report


def cmd_trotter(args):
    spec, rep = _resolve_spec(args)
    conv = rp.trotter_convergence(spec, rep, [args.k, 2 * args.k])
    ratio = conv["ratios"].get(args.k)
    ok = ratio is not None and 1.6 <= ratio <= 2.4
    report = {
        "command": "trotter",
        "n": spec.order,
        "L": spec.sites,
        "k": args.k,
        "errors": {str(k): v for k, v in conv["errors"].items()},
        "ratio": ratio,
        "passed": ok,
    }
    return (PASS if ok else VIOLATIONS), report


def cmd_bounds(args):
    spec, rep = _resolve_spec(args)
    tol = args.tol if args.tol is not None else rp.DEFAULT_TOL
    pairs = rp.sampled_bounds(spec, rep, args.samples, args.seed, tol)
    worst = None
    all_ok = True
    for res in pairs:
        all_ok = all_ok and res["ok"]
        margin = min(res["margin1"], res["margin2"], res["partition_margin"])
        # The margins are normalised, so a pair within WORST_TIE of the
        # current worst ties with it, and ties keep the earlier pair
        # (identity first) however they round.
        if worst is None or margin < worst["min_margin"] - WORST_TIE:
            worst = {"min_margin": margin, **res}
    report = {
        "command": "bounds",
        "n": spec.order,
        "L": spec.sites,
        "pairs": len(pairs),
        "seed": args.seed,
        "tolerance": tol,
        "worst": worst,
        "passed": all_ok,
    }
    return (PASS if all_ok else VIOLATIONS), report


def cmd_counterexample(args):
    if args.n is None:
        raise SpecError("--n is required")
    j = args.j if args.j is not None else 1
    tol = args.tol if args.tol is not None else rp.DEFAULT_TOL
    positive, val = rp.counterexample_check(args.n, j, tol=tol)
    report = {
        "command": "counterexample",
        "n": args.n,
        "j": j,
        "value": [val.real, val.imag],
        "positive": positive,
    }
    if j == 1:
        ref = rp.counterexample_reference(args.n)
        report["series_reference"] = [ref.real, ref.imag]
        report["series_gap"] = abs(val - ref)
    return (PASS if positive else VIOLATIONS), report


def cmd_families(args):
    if args.family is None or args.kparam is None:
        raise SpecError("--family and --kparam are required")
    tol = args.tol if args.tol is not None else rp.DEFAULT_TOL
    n, j = rp.family_pair(args.family, args.kparam, args.jprime)
    ok, val = rp.family_check(args.family, args.kparam, args.jprime, tol=tol)
    report = {
        "command": "families",
        "family": args.family,
        "description": rp.FAMILY_DESCRIPTIONS[args.family],
        "n": n,
        "j": j,
        "value": [val.real, val.imag],
        "positive_real": ok,
    }
    return (PASS if ok else VIOLATIONS), report


def cmd_baxter(args):
    if args.spec is None:
        raise SpecError("--spec with a baxter shortcut is required")
    spec, rep = _resolve_spec(args)
    sym = check_symmetries(spec, rep)
    ok = sym["reflection_symbolic"] and sym["gauge_symbolic"] and sym["matrix_ok"]
    report = {
        "command": "baxter",
        "n": spec.order,
        "L": spec.sites,
        "validated_rule": spec.validated_rule.value,
        "rp_hypotheses_met": spec.validated_rule is not CouplingRule.NONE,
        "symmetries": sym,
        "passed": ok,
    }
    return (PASS if ok else VIOLATIONS), report


def cmd_decompose(args):
    spec, rep = _resolve_spec(args)
    boltzmann = rp.boltzmann(spec.total(), rep)
    poly = decompose(boltzmann, rep)
    gap = float(np.linalg.norm(to_matrix(poly, rep) - boltzmann))
    ok = gap <= 1e-10 * (1 + float(np.linalg.norm(boltzmann)))
    report = {
        "command": "decompose",
        "n": spec.order,
        "L": spec.sites,
        # decompose returns its terms in lexicographic order.
        "terms": [
            {"exponents": row, "coefficient": [c.real, c.imag]}
            for row, c in zip(poly.exponents.tolist(), poly.coeffs.tolist())
        ],
        "roundtrip_gap": gap,
        "passed": ok,
    }
    return (PASS if ok else VIOLATIONS), report


# Each subcommand with the flags it reads; --out is read by every one.
COMMANDS = {
    "verify-relations": (cmd_verify_relations, "--n --L --tol"),
    "rp-check": (cmd_rp_check, "--spec --n --samples --seed --tol"),
    "gram": (cmd_gram, "--spec --n --tol"),
    "trotter": (cmd_trotter, "--spec --n --k"),
    "bounds": (cmd_bounds, "--spec --n --samples --seed --tol"),
    "counterexample": (cmd_counterexample, "--n --j --tol"),
    "families": (cmd_families, "--family --kparam --jprime --tol"),
    "baxter": (cmd_baxter, "--spec"),
    "decompose": (cmd_decompose, "--spec --n"),
}

def _checked(kind, ok, need: str):
    """An argparse type: ``kind`` of the text, rejected unless ``ok``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


FLAGS = {
    "--n": dict(type=_checked(int, lambda n: n >= 2, ">= 2")),
    "--L": dict(type=_checked(int, lambda L: L >= 2 and L % 2 == 0,
                              "even and >= 2")),
    "--j": dict(type=int),
    "--k": dict(type=_checked(int, lambda k: k >= 1, ">= 1"), default=64),
    "--samples": dict(type=_checked(int, lambda s: s >= 1, ">= 1"),
                      default=100),
    "--seed": dict(type=_checked(int, lambda s: s >= 0, ">= 0"), default=0),
    "--tol": dict(type=_checked(float, lambda t: 0 < t < float("inf"),
                                "finite and > 0")),
    "--spec": dict(),
    "--out": dict(),
    "--family": dict(type=int, choices=(1, 2, 3)),
    "--kparam": dict(type=int),
    "--jprime": dict(type=int),
}


class UsageError(ValueError):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls.  A flag a subcommand does not read, or an
    abbreviated one, is an error."""
    parser = _Parser(
        prog="pararp",
        description="Parafermion algebra and reflection-positivity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags.split() + ["--out"]:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise UsageError(
                f"pararp {args.command}: unrecognized arguments: "
                + " ".join(extra)
            )
        if args.command == "verify-relations" and (
            args.n is None or args.L is None
        ):
            raise UsageError("verify-relations requires --n and --L")
        code, report = COMMANDS[args.command][0](args)
        emit_report(report, args.out)
        return code
    except (
        SpecError, DimensionCapError, ValueError, OSError,
        OverflowError, rp.OverflowError_,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
