"""Record one benchmark run of every workload in ``BENCH_<label>.json``.

    python3 tools/bench_record.py 6 --seed 3 --seconds 30

For each workload declared in BENCHMARK.json this runs perfbench/run.py
RUNS times with ``--trace 0`` (end-to-end metrics) and RUNS times with
``--trace 1`` (per-layer metrics), and keeps the last JSON line of each run.
Each metric is the median over its runs, since one run is too noisy to
compare times between records.  The record also holds
``wc -l src/pararp/*.py`` and the machine and library versions, so that
records of different changes can be compared line by line.  The file is
written to the repository root; the exit code is 1 when a run failed or
reported a failed job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
RUNS = 3


def workloads() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_benchmark(workload: str, trace: int, seed: int, seconds: int) -> str:
    """Standard output of one perfbench run; its failure is recorded, not
    raised, so the other runs still happen.  A run that hits RUN_TIMEOUT_S
    has no output, so its entry is recorded as missing."""
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload} trace={trace}: timed out after "
                         f"{RUN_TIMEOUT_S} s\n")
        return ""
    if proc.returncode not in (0, 1):  # 1: a job failed its output check
        sys.stderr.write(proc.stderr)
    return proc.stdout


def last_json_line(stdout: str) -> dict | None:
    """The result object perfbench prints last, or None if there is none."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                return None
    return None


def source_lines() -> dict:
    """``wc -l src/pararp/*.py``: newline counts per file and their total."""
    counts = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((ROOT / "src" / "pararp").glob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
    }


def assemble_record(label: str, seed: int, seconds: int,
                    outputs: dict[tuple[str, int], list[str]],
                    src_lines: dict, host: dict) -> dict:
    """The BENCH record from the standard output of each run, listed by
    (workload, trace): each metric is the median over the runs, and the job
    counts are their sums.  If any run of a list has no result, the entry is
    recorded as missing."""
    record = {"label": label, "seed": seed, "seconds": seconds,
              "correct": True, "workloads": {},
              "src_lines": src_lines, "machine": host}
    for (workload, trace), stdouts in outputs.items():
        lines = [last_json_line(stdout) for stdout in stdouts]
        entry = record["workloads"].setdefault(workload, {})
        key = "per_layer" if trace else "end_to_end"
        if None in lines:
            record["correct"] = False
            entry[key] = None
            continue
        record["correct"] = record["correct"] and all(
            line["correct"] for line in lines)
        entry[key] = {
            name: statistics.median(line["metrics"][name]["value"]
                                    for line in lines)
            for name in lines[0]["metrics"]
        }
        entry[f"{key}_jobs"] = {
            count: sum(line[count] for line in lines)
            for count in ("attempted", "failed")
        }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", help="the record is written to BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    outputs = {
        (workload, trace): [run_benchmark(workload, trace, args.seed, args.seconds)
                            for _ in range(RUNS)]
        for workload in workloads()
        for trace in (0, 1)
    }
    record = assemble_record(args.label, args.seed, args.seconds, outputs,
                             source_lines(), machine())
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
