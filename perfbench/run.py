"""pararp benchmark: seeded job-stream workloads against the public API.

    python3 perfbench/run.py --workload rp_suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from any directory; the package under test is ``src/pararp`` next to this
directory.  For one workload the last line of standard output is a JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload untraced
and traced and reports the tracing overhead.  The exit code is 1 when a job
failed its output check, 2 when the package is missing.

Set-up is measured before the workload starts: ``setup_s`` is the median over
several fresh interpreters of the time to ``import pararp.cli``.  The workload
itself then runs in one more fresh interpreter (worker.py).  Every time is
scaled by a reference kernel timed next to it (reference.py), because the
host's speed drifts; the unscaled figures are printed and recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import NUMPY_WEIGHT, WORKLOADS, build_jobs, materialize  # noqa: E402

SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 150
# Every interpreter the benchmark starts runs BLAS on one thread.  With
# OpenBLAS's default of one thread per core, a 2-vCPU host that shares its
# cores times each dim >= 125 job anywhere from 1x to 6x its best, as one
# spinning BLAS thread waits on a core taken by other work; on one thread the
# same jobs spread as little as the Python-bound ones.
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
# Times the import of pararp.cli in a fresh interpreter, next to the reference
# kernel; prints both.  argv: the benchmark directory, then src.
IMPORT_SNIPPET = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "from reference import reference_seconds; "
    "ref = sorted(reference_seconds() for _ in range(3))[1]; "
    "t = time.perf_counter(); import pararp.cli; "
    "print(time.perf_counter() - t, ref)"
)


def declared_metrics() -> tuple[dict, dict]:
    """Metric name -> unit, for trace 0 and trace 1, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure_setup(src: Path) -> list[list[float]]:
    """[import seconds, reference-kernel seconds] for each of several fresh
    interpreters, after one untimed launch that leaves the bytecode cache
    warm."""
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(HERE), str(src)],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, **ONE_THREAD})
        if i:
            launches.append([float(x) for x in out.stdout.split()[-2:]])
    return launches


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    two jobs of different size swap places around the quantile."""
    from scipy.special import betainc

    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(v))


def end_to_end(samples, setup, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample counts behind them.

    Each sample is scaled by the reference kernel timed next to it
    (reference.py); a slot's time is the median of its scaled samples over
    the run's cycles.  jobs_per_s is slots per second of summed slot time,
    the percentiles are over slot times, and setup_s is the median of the
    scaled import times.
    """
    def scaled(t, ref):
        return t * REFERENCE_S / ref

    slot_s = [statistics.median(scaled(t, r) for t, r in times)
              for times in samples if times]
    raw_s = [statistics.median(t for t, _ in times) for times in samples if times]
    p90 = hd_quantile(slot_s, 0.9)
    e2e = {
        "jobs_per_s": len(slot_s) / sum(slot_s),
        "job_p50_ms": hd_quantile(slot_s, 0.5) * 1e3,
        "job_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(scaled(t, r) for t, r in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    stats = {
        "timed_slots": len(slot_s),
        "slots_above_p90": sum(t > p90 for t in slot_s),
        "samples_per_slot": min((len(times) for times in samples), default=0),
        "unscaled_jobs_per_s": len(raw_s) / sum(raw_s),
        "unscaled_setup_s": statistics.median(t for t, _ in setup),
        "reference_ms": statistics.median(
            r for times in samples for _, r in times) * 1e3,
    }
    return e2e, stats


def provenance(seed: int, worker: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = {}
    for path in sorted((ROOT / "src" / "pararp").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines[path.name] = sum(1 for _ in fh)
    src_lines["total"] = sum(src_lines.values())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **worker["versions"],
            "seed": seed, "git_commit": git_commit(),
            "src_lines": src_lines}


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = ROOT / "src"
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        jobs = build_jobs(workload, seed)
        materialize(jobs, tmp)
        jobs_path = os.path.join(tmp, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        setup = measure_setup(src)
        out_path = os.path.join(tmp, "result.json")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--src", str(src),
             "--jobs", jobs_path, "--seconds", str(seconds),
             "--trace", str(trace), "--out", out_path,
             "--numpy-weight", str(NUMPY_WEIGHT[workload]),
             "--trace-file", str(work / f"trace-{workload}.jsonl")],
            timeout=WORKER_TIMEOUT_S, check=True, env={**os.environ, **ONE_THREAD})
        with open(out_path, encoding="utf-8") as fh:
            worker = json.load(fh)

    e2e, stats = end_to_end(worker["samples"], setup, worker["peak_rss_mb"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": worker["attempted"], "failed": worker["failed"],
        "fail_rate": worker["failed"] / worker["attempted"],
        "failures": worker["failures"], "cycles": worker["cycles"],
        "slots": len(worker["samples"]), "loop_seconds": worker["loop_seconds"],
        "numpy_weight": NUMPY_WEIGHT[workload],
        **stats, "provenance": provenance(seed, worker),
    }
    record["end_to_end"] = e2e
    if trace:
        layers = dict(worker["layer_metrics"])
        layers["cli.report_bytes"] = worker["report_bytes"] / worker["attempted"]
        layers["trace.jobs_per_s"] = e2e["jobs_per_s"]
        record["per_layer"] = layers
    with open(work / f"result-{workload}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict, units: dict) -> dict:
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def print_summary(record: dict, units: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} jobs in {record['cycles']} cycles of "
          f"{record['slots']} slots in {record['loop_seconds']:.1f} s, "
          f"{record['failed']} failed, fail_rate {record['fail_rate']:.4g} ratio; "
          f"p50/p90 over {record['timed_slots']} slot times, each the median of "
          f">= {record['samples_per_slot']} samples, {record['slots_above_p90']} above p90; "
          f"unscaled jobs_per_s {record['unscaled_jobs_per_s']:.6g} 1/s, setup_s "
          f"{record['unscaled_setup_s']:.6g} s, reference kernel {record['reference_ms']:.4g} ms")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    if record["trace"]:
        accounted = sum(values[f"{layer}.self_ms"] for layer in LAYERS + ("runner",))
        print(f"  layer self times + runner = {accounted:.6g} ms/job of "
              f"{values['trace.job_ms']:.6g} ms/job traced job time")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all(seed: int, seconds: int) -> int:
    e2e_units, layer_units = declared_metrics()
    ok = True
    overhead = {}
    for workload in WORKLOADS:
        rates = []
        for trace, units in ((0, e2e_units), (1, layer_units)):
            record = run_workload(workload, seed, seconds, trace)
            print_summary(record, units)
            ok = ok and record["failed"] == 0
            rates.append(record["end_to_end"]["jobs_per_s"])
        overhead[workload] = rates[0] / rates[1]
    for workload, ratio in overhead.items():
        print(f"tracing overhead {workload}: untraced/traced jobs_per_s = {ratio:.4g}")
    print(json.dumps({"correct": ok, "tracing_overhead": overhead}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pararp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pararp" / "cli.py").is_file():
        print(f"error: no pararp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_summary(record, units)
    line = result_line(record, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
