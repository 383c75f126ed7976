"""Compare the CLI reports of two source trees on the benchmark's job cycles.

    python3 tools/report_diff.py OLD_SRC NEW_SRC --workload rp_suite basis --seeds 3 11

Builds every CLI job of each workload's cycle at each seed with
perfbench/workloads.py, runs all of them in one fresh interpreter per tree,
with that tree's ``src`` directory first on the path, and prints the number
of identical reports (exit code, standard output and error output byte for
byte), a count per command, and for each changed job its command, cell,
exit codes, every top-level key that differs (each by the first key under
it that differs) and the largest relative gap |a - b| / max(|a|, |b|)
between floats at the same key.  Every run also takes the edge lines:
``rp-check``, ``gram``, ``bounds``, ``trotter`` and ``decompose`` on each
spec of EDGE_SPECS, and the command lines of EDGE_LINES.  ``--argv`` adds
more command lines outside the cycles.  The exit code is 0 when every
report is identical and 2 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Specs at the edges of the reports: an exponential that overflows, a spec
# that meets no sign rule, H_0 = 0, and H = 0, whose Trotter errors are 0.
# "wrong-pass" meets no sign rule and violates RP, but its gram eigenvalue,
# -8.5e-11, is inside the default tolerance at an odd L/2: the report of M
# most sensitive to its last bits.  The diff pins its bytes, not its
# verdict, which is wrong today.  "repeated-key" lists one coupling key
# twice and "unknown-field" misspells "couplings": the spec reader refuses
# both.
EDGE_SPECS = {
    "overflow": {"baxter": {"n": 3, "L": 6, "t": [400, -400, 400, -400, 400]}},
    "rule-none": {"baxter": {"n": 3, "L": 4, "t": [1, 0.5, 1]}},
    "h0-zero": {"n": 2, "L": 4, "couplings": [], "h_minus": [
        {"coefficient": [0.5, 0], "exponents": [1, 1, 0, 0]}]},
    "zero-h": {"n": 2, "L": 2},
    "wrong-pass": {"baxter": {"n": 5, "L": 6, "t": [1, 1, 0.025, 1, 1]}},
    "repeated-key": {"n": 3, "L": 4, "couplings": [
        {"exponents": [1, 0, 0, 0], "J": 1.0},
        {"exponents": [1, 0, 0, 0], "J": -2.0}]},
    "unknown-field": {"n": 3, "L": 4, "coupling": [
        {"exponents": [1, 0, 0, 0], "J": -1.0}]},
}
EDGE_COMMANDS = ["rp-check", "gram", "bounds", "trotter", "decompose"]
EDGE_LINES = ["counterexample --n 28 --j 14", "counterexample --n 30030",
              "families --family 1 --kparam 3"]


def build_jobs(workloads, seeds, extra, directory: str, tiny=False) -> list[dict]:
    """Every CLI job of the cycles, then the edge lines, spec files written
    to ``directory``, then the ``extra`` command lines."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads as bench
    finally:
        sys.path.pop(0)
    jobs = []
    for workload in workloads:
        for seed in seeds:
            cycle = [job for job in bench.build_jobs(workload, seed, tiny)
                     if job["kind"] == "cli"]
            sub = os.path.join(directory, f"{workload}-{seed}")
            os.mkdir(sub)
            bench.materialize(cycle, sub)
            jobs += [{"label": f"{workload} seed {seed} #{i} {job['command']} "
                               f"({job['n']},{job['L']})", "argv": job["argv"]}
                     for i, job in enumerate(cycle)]
    for name, spec in EDGE_SPECS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        jobs += [{"label": f"{command} {name}",
                  "argv": [command, "--spec", path]}
                 for command in EDGE_COMMANDS]
    jobs += [{"label": line, "argv": shlex.split(line)}
             for line in EDGE_LINES + extra]
    return jobs


def collect(path: str) -> list:
    """[exit code, stdout, stderr] of each job in the JSON file ``path``,
    run in this interpreter with the pararp found on the path."""
    from pararp import cli

    with open(path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    out = []
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(job["argv"])
        out.append([code, stdout.getvalue(), stderr.getvalue()])
    return out


def run_tree(src: str, jobs_path: str) -> list:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", jobs_path],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"running the jobs under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def flatten(obj, path=""):
    """(key path, value) of every leaf, dict keys in sorted order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from flatten(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, obj


def relative_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: str, new: str) -> tuple[list[str], float]:
    """For each top-level key at which two JSON reports differ, the first
    key under it that differs ([] if none does), and the largest relative
    gap between floats at the same key."""
    try:
        a, b = dict(flatten(json.loads(old))), dict(flatten(json.loads(new)))
    except json.JSONDecodeError:
        return (["<output>"] if old != new else []), 0.0
    missing = object()
    first: dict[str, str] = {}
    for key in [*a, *(k for k in b if k not in a)]:
        if a.get(key, missing) != b.get(key, missing):
            first.setdefault(re.match(r"[^.[]*", key).group(), key)
    gap = max((relative_gap(a[k], b[k]) for k in a.keys() & b.keys()
               if isinstance(a[k], float) and isinstance(b[k], float)),
              default=0.0)
    return list(first.values()), gap


def report(jobs, old, new) -> tuple[list[str], bool]:
    """The lines to print, and whether every report is identical."""
    total, same, lines = Counter(), Counter(), []
    for job, a, b in zip(jobs, old, new):
        command = job["argv"][0]
        total[command] += 1
        if a == b:
            same[command] += 1
            continue
        keys, gap = compare(a[1], b[1])
        keys += ["<stderr>"] if a[2] != b[2] else []
        lines.append(f"  {job['label']}: exit {a[0]} -> {b[0]}, differences "
                     f"at {', '.join(keys) or None}, largest relative gap "
                     f"{gap:.3g}")
    head = [f"identical reports: {sum(same.values())} of {len(jobs)}"] + [
        f"  {command}: {same[command]} of {count} identical"
        for command, count in sorted(total.items())
    ]
    return head + (["changed:"] + lines if lines else []), not lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--workload", nargs="+", default=["rp_suite", "basis"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[3])
    ap.add_argument("--argv", action="append", default=[],
                    help="one more CLI command line, run under both trees")
    ap.add_argument("--tiny", action="store_true",
                    help="the benchmark's tiny grids, for tests")
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        json.dump(collect(args.collect), sys.stdout)
        return 0
    if args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")
    with tempfile.TemporaryDirectory() as directory:
        jobs = build_jobs(args.workload, args.seeds, args.argv, directory,
                          args.tiny)
        path = os.path.join(directory, "jobs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        old, new = run_tree(args.old_src, path), run_tree(args.new_src, path)
    lines, identical = report(jobs, old, new)
    print("\n".join(lines))
    return 0 if identical else 2


if __name__ == "__main__":
    sys.exit(main())
