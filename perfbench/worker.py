"""Run one workload in a fresh interpreter: a closed loop with one client.

Each job starts only after the previous one has finished and been checked.
The loop replays whole cycles of the job list for about ``--seconds`` of wall
time, so every run sees the same mix of jobs and times each job once per
cycle.  Only the call into pararp is timed; the output check of each job runs
outside that region, and so does the reference kernel timed just before and
after each job (reference.py), blended with a numpy kernel by ``--numpy-weight``.

Usage (normally started by run.py):
    python3 worker.py --src SRC --jobs JOBS.json --seconds S --trace 0|1
        --out RESULT.json [--numpy-weight W] [--trace-file SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

from reference import Reference

TROTTER_RATIO = (1.6, 2.4)


class Runner:
    """Executes and checks jobs against an imported pararp package."""

    def __init__(self):
        from pararp import algebra, cli, hamiltonian, representation
        from pararp.exponents import ExponentVector

        self.algebra, self.cli, self.hamiltonian = algebra, cli, hamiltonian
        self.representation = representation
        self.ExponentVector = ExponentVector
        self.tracer = None  # set to a Tracer to record a job span per job
        self.job_id = 0

    # -- execution ----------------------------------------------------------

    def execute(self, job):
        """Run one job; return (seconds, output, captured stdout, error).
        Only the call into pararp lies inside the timed region and the job
        span.  An exception becomes ``error``, a formatted traceback."""
        buf = io.StringIO()
        work = self._cli if job["kind"] == "cli" else self._symbolic
        tracer = self.tracer
        output, error = None, None
        with contextlib.redirect_stdout(buf):
            if tracer is not None:
                tracer.begin_job(self.job_id)
            start = time.perf_counter()
            try:
                output = work(job)
            except Exception:  # a job that raises is a failed job, not a crash
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_job()
        self.job_id += 1
        return elapsed, output, buf.getvalue(), error

    def _cli(self, job):
        return self.cli.main(job["argv"])

    def _symbolic(self, job):
        alg = self.algebra
        n, L = job["n"], job["L"]
        spec = self.hamiltonian.spec_from_dict(job["spec"])
        h = spec.total()
        h2 = alg.canonical_product(h, h)
        h3 = alg.canonical_product(h2, h)
        a = alg.Polynomial(
            {self.ExponentVector(tuple(t["exponents"]), n): complex(*t["coefficient"])
             for t in job["observable"]}, n, L)
        w = alg.canonical_product(a, alg.reflect(a))
        invariant = {
            name: (alg.reflect(p).almost_equal(p), alg.gauge_apply(p).almost_equal(p))
            for name, p in (("H2", h2), ("H3", h3), ("W", w))
        }
        roundtrip = {name: (p, alg.from_text(alg.to_text(p)))
                     for name, p in (("H3", h3), ("W", w))}
        return {"h": h, "h2": h2, "h3": h3, "w": w, "invariant": invariant,
                "roundtrip": roundtrip}

    # -- checks (untimed) -----------------------------------------------------

    def check(self, job, output, stdout) -> str | None:
        """None if the job's output is right, else what is wrong."""
        if job["kind"] == "cli":
            return check_cli(job, output, stdout)
        return self._check_symbolic(job, output)

    def _check_symbolic(self, job, out) -> str | None:
        for name, (theta_ok, gauge_ok) in out["invariant"].items():
            if not (theta_ok and gauge_ok):
                return f"{name} not theta/gauge invariant"
        for name, (p, back) in out["roundtrip"].items():
            if back.terms != p.terms:
                return f"{name} text round trip changed the polynomial"
        if out["w"].is_zero():
            return "loop operator is zero"
        if job["trace_check"]:
            return self._check_traces(job, out)
        return None

    def _check_traces(self, job, out) -> str | None:
        """constant_term(H^k) n^{L/2} = Tr(to_matrix(H)^k) for k = 2, 3."""
        import numpy as np

        rep = self.representation.build_generators(job["n"], job["L"])
        m = self.representation.to_matrix(out["h"], rep)
        scale = 1.0 + float(np.linalg.norm(m))
        for k, p in ((2, out["h2"]), (3, out["h3"])):
            exact = complex(np.trace(np.linalg.matrix_power(m, k)))
            symbolic = p.constant_term() * rep.dim
            if abs(symbolic - exact) > 1e-9 * scale**k:
                return f"Tr(H^{k}) = {exact} but constant term gives {symbolic}"
        return None


def check_cli(job, code, stdout) -> str | None:
    """Expected verdicts for valid-rule specs: exit 0 and a passing report
    within the tolerances the report states."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(stdout)
    command, n, L = job["command"], job["n"], job["L"]
    if (report.get("command"), report.get("n"), report.get("L")) != (command, n, L):
        return "report names another command or size"
    if command == "rp-check":
        ok = (report["violations"] == [] and report["validated_rule"] != "none"
              and report["partition_function"][0] > 0
              and report["samples"] == int(job["argv"][job["argv"].index("--samples") + 1]))
    elif command == "gram":
        ok = (report["passed"] is True and report["schwarz_ok"] is True
              and report["gram_min_eigenvalue"] >= -report["tolerance"]
              and report["basis_size"] == n ** (L // 2 - 1))
    elif command == "bounds":
        samples = int(job["argv"][job["argv"].index("--samples") + 1])
        ok = report["passed"] is True and report["pairs"] == samples + 1
    elif command == "trotter":
        ratio = report["ratio"]
        ok = (report["passed"] is True and ratio is not None
              and TROTTER_RATIO[0] <= ratio <= TROTTER_RATIO[1])
    elif command == "baxter":
        ok = report["passed"] is True and report["rp_hypotheses_met"] is True
    elif command == "decompose":
        # ||e^{-H}||_F <= sqrt(dim) * sum |c_I| since each monomial is unitary.
        dim = n ** (L // 2)
        norm = math.sqrt(dim) * sum(math.hypot(*t["coefficient"]) for t in report["terms"])
        ok = (report["passed"] is True and bool(report["terms"])
              and report["roundtrip_gap"] <= 1e-10 * (1 + norm))
    elif command == "verify-relations":
        ok = (report["passed"] is True
              and max(report["residuals"].values()) <= report["tolerance"])
    else:
        return f"no check for command {command!r}"
    return None if ok else f"wrong verdict: {stdout.strip()[:300]}"


def warmup_jobs(jobs):
    """The first job of each command: untimed, to finish lazy set-up."""
    seen, out = set(), []
    for job in jobs:
        if job["command"] not in seen:
            seen.add(job["command"])
            out.append(job)
    return out


def run_loop(runner: Runner, jobs, seconds: float,
             reference: Reference | None = None) -> dict:
    """Replay the cycle of jobs, stopping at the cycle boundary nearest to
    ``seconds`` of wall time (after at least one cycle).

    ``samples[i]`` holds, for each cycle in which slot ``i`` passed, its wall
    time and the mean reference-kernel time just before and after it, as
    ``reference`` (by default the Python kernel alone) reads it.
    """
    reference = reference or Reference()
    samples: list[list[list[float]]] = [[] for _ in jobs]
    failures = []
    attempted = 0
    report_bytes = 0
    cycles = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for slot, job in enumerate(jobs):
            attempted += 1
            before = reference.seconds()
            elapsed, output, stdout, problem = runner.execute(job)
            after = reference.seconds()
            if problem is None:
                try:
                    problem = runner.check(job, output, stdout)
                except Exception:  # e.g. a report that is not JSON
                    problem = traceback.format_exc(limit=3)
            report_bytes += len(stdout)
            if problem is None:
                samples[slot].append([elapsed, (before + after) / 2])
            else:
                failures.append(f"{job['command']} n={job['n']} L={job['L']}: {problem}")
        cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            break
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures[:10], "samples": samples, "cycles": cycles,
            "loop_seconds": time.perf_counter() - start,
            "report_bytes": report_bytes}


def blas_info() -> dict:
    """BLAS library name, version and thread count as numpy sees them."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--numpy-weight", type=float, default=0.0)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy
    import scipy

    import pararp.cli  # noqa: F401  (the whole package, before wrapping)

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    runner = Runner()
    for job in warmup_jobs(jobs):
        runner.execute(job)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = runner.tracer = Tracer()
        tracer.install()
    result = run_loop(runner, jobs, args.seconds, Reference(args.numpy_weight))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas": blas_info()}
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layer_metrics"] = layer_metrics(tracer.spans, tracer.layer_of,
                                                result["attempted"])
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
