"""Batch front-end: run named verification suites and emit JSON reports.

Each subcommand returns its verdict and its own report fields; ``main``
resolves the spec for the ones that read ``--spec``, fills the ``--tol``
default, and adds ``command`` to every report and the spec's ``n`` and
``L`` to the ones that read a spec.  Exit codes: 0 all checks passed, 2 the
suite ran and found mathematical violations (the report is still written),
1 usage / IO / parse / out-of-memory errors, with one line on stderr.  Each
subcommand accepts only the flags it reads.  Reports are deterministic:
sorted keys, shortest round-trip floats, so the same configuration and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    sector_blocks,
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
    if args.n is None or args.L is None:
        raise UsageError("verify-relations requires --n and --L")
    residuals = verify_yamazaki(build_generators(args.n, args.L))
    ok = max(residuals.values()) <= args.tol
    return ok, {"n": args.n, "L": args.L, "tolerance": args.tol,
                "residuals": residuals, "passed": ok}


def cmd_rp_check(spec, rep, args):
    result = rp.check_rp(
        spec, rep, samples=args.samples, seed=args.seed, tol=args.tol
    )
    return result.passed(), {"validated_rule": spec.validated_rule.value,
                             **result.to_dict()}


def cmd_gram(spec, rep, args):
    n, L = spec.order, spec.sites
    basis = rp.minus_rows(n, L, range(0, L // 2 * (n - 1) + 1, n))
    gram, min_eig = rp.gram_psd(spec, rep, basis)
    # Schwarz |G_ij|^2 <= G_ii G_jj in min_eig's scale, which PSD implies,
    # compared at the power-of-two scale s, so that no square overflows.
    s = rp._pow2(gram)
    eps = args.tol * (1 + np.abs(gram).max(initial=0.0))
    diag = (gram.diagonal().real + eps) / s
    schwarz_ok = not ((np.abs(gram) / s) ** 2 > np.outer(diag, diag)).any()
    ok = min_eig >= -args.tol and schwarz_ok
    return ok, {"basis_size": len(basis), "gram_min_eigenvalue": min_eig,
                "schwarz_ok": schwarz_ok, "tolerance": args.tol, "passed": ok}


def cmd_trotter(spec, rep, args):
    conv = rp.trotter_convergence(spec, rep, [args.k, 2 * args.k])
    ratio = conv["ratios"].get(args.k, math.nan)
    ok = 1.6 <= ratio <= 2.4
    return ok, {"k": args.k, "passed": ok,  # JSON has no inf: such a ratio is null
                "ratio": ratio if math.isfinite(ratio) else None,
                "errors": {str(k): v for k, v in conv["errors"].items()}}


def cmd_bounds(spec, rep, args):
    pairs = rp.sampled_bounds(spec, rep, args.samples, args.seed, args.tol)
    worst = None
    # Pair 0, A = B = I, meets its bound with equality and partition_margin
    # is the same on every pair, so only the drawn pairs compete, by margin1
    # (margin2 equals it).  The margins are normalised, so a pair within
    # WORST_TIE of the current worst ties with it, and ties keep the earlier
    # pair however they round.
    for res in pairs[1:]:
        if worst is None or res["margin1"] < worst["min_margin"] - WORST_TIE:
            worst = {"min_margin": res["margin1"], **res}
    ok = all(res["ok"] for res in pairs)
    return ok, {"pairs": len(pairs), "seed": args.seed, "tolerance": args.tol,
                "worst": worst, "passed": ok}


def cmd_counterexample(args):
    if args.n is None:
        raise SpecError("--n is required")
    positive, val = rp.counterexample_check(args.n, args.j)
    fields = {"n": args.n, "j": args.j, "value": [val.real, val.imag],
              "positive": positive}
    if args.j == 1:
        ref = rp.counterexample_reference(args.n)
        fields["series_reference"] = [ref.real, ref.imag]
        fields["series_gap"] = abs(val - ref)
    return positive, fields


def cmd_families(args):
    if args.family is None or args.kparam is None:
        raise SpecError("--family and --kparam are required")
    n, j = rp.family_pair(args.family, args.kparam, args.jprime)
    ok, val = rp.counterexample_check(n, j)
    return ok, {"family": args.family, "n": n, "j": j,
                "description": rp.FAMILY_DESCRIPTIONS[args.family],
                "value": [val.real, val.imag], "positive_real": ok}


def cmd_baxter(spec, rep, args):
    sym = check_symmetries(spec)
    ok = all(sym.values())
    return ok, {
        "validated_rule": spec.validated_rule.value,
        "rp_hypotheses_met": spec.validated_rule is not CouplingRule.NONE,
        "symmetries": sym,
        "passed": ok,
    }


def cmd_decompose(spec, rep, args):
    blocks = rp.boltzmann(spec.total(), rep)
    poly = decompose(blocks, rep)
    # Parseval: the blocks hold the Frobenius norm of the matrix.
    gap = rp._norm(sector_blocks(poly, rep) - blocks)
    ok = math.isfinite(gap) and gap <= 1e-10 * (1 + rp._norm(blocks))
    # decompose returns its terms in lexicographic order.
    terms = [{"exponents": row, "coefficient": [c.real, c.imag]}
             for row, c in zip(poly.exponents.tolist(), poly.coeffs.tolist())]
    return ok, {"terms": terms, "roundtrip_gap": gap, "passed": ok}


# Each subcommand with the flags it reads; --out is read by every one.
COMMANDS = {
    "verify-relations": (cmd_verify_relations, "--n --L --tol"),
    "rp-check": (cmd_rp_check, "--spec --n --samples --seed --tol"),
    "gram": (cmd_gram, "--spec --n --tol"),
    "trotter": (cmd_trotter, "--spec --n --k"),
    "bounds": (cmd_bounds, "--spec --n --samples --seed --tol"),
    "counterexample": (cmd_counterexample, "--n --j"),
    "families": (cmd_families, "--family --kparam --jprime"),
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
    "--j": dict(type=int, default=1),
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
    abbreviated one, is an error.  ``commands`` holds each subcommand's own
    parser by name."""
    parser = _Parser(
        prog="pararp",
        description="Parafermion algebra and reflection-positivity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (_, flags) in COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, allow_abbrev=False)
        for flag in flags.split() + ["--out"]:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one subcommand and emit its report: the subcommand's verdict and
    fields, with ``command`` and, for one that reads a spec, its ``n`` and
    ``L`` added here.  A known subcommand's argv goes straight to its own
    parser; a missing or unknown one, or a top-level flag, to the full one."""
    try:
        argv, parser = sys.argv[1:] if argv is None else list(argv), build_parser()
        if argv and argv[0] in parser.commands:  # as the full parser passes it
            args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
            args.command = argv[0]
        else:
            args, extra = parser.parse_known_args(argv)
        if extra:
            raise UsageError(f"pararp {args.command}: unrecognized arguments: "
                             + " ".join(extra))
        run, flags = COMMANDS[args.command]
        if "--tol" in flags and args.tol is None:
            args.tol = 1e-11 if run is cmd_verify_relations else rp.DEFAULT_TOL
        report = {"command": args.command}
        if "--spec" not in flags:
            ok, fields = run(args)
        else:
            if run is cmd_baxter and args.spec is None:
                raise SpecError("--spec with a baxter shortcut is required")
            spec, rep = _resolve_spec(args)
            report.update(n=spec.order, L=spec.sites)
            ok, fields = run(spec, rep, args)
        emit_report({**report, **fields}, args.out)
        return PASS if ok else VIOLATIONS
    except (DimensionCapError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return ERROR


if __name__ == "__main__":
    sys.exit(main())
