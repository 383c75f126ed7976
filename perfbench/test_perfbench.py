"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from reference import NUMPY_REFERENCE_S, REFERENCE_S, Reference  # noqa: E402
from run import end_to_end, hd_quantile  # noqa: E402
from worker import Runner, run_loop  # noqa: E402
from workloads import WORKLOADS, build_jobs, materialize  # noqa: E402


def tiny_jobs(workload, seed, directory):
    jobs = build_jobs(workload, seed, tiny=True)
    materialize(jobs, str(directory))
    return jobs


def verdicts(workload, seed, directory):
    """(command, problem, report) for each job of one tiny cycle."""
    runner = Runner()
    out = []
    for job in tiny_jobs(workload, seed, directory):
        _, output, stdout, error = runner.execute(job)
        out.append((job["command"], error or runner.check(job, output, stdout), stdout))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, tmp_path):
    jobs = tiny_jobs(workload, 5, tmp_path)
    result = run_loop(Runner(), jobs, seconds=0)
    assert result["failures"] == []
    assert result["cycles"] == 1
    assert result["attempted"] == len(jobs) == len(result["samples"])
    assert all(len(times) == 1 for times in result["samples"])
    assert all(t > 0 and ref > 0 for (t, ref), in result["samples"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs_and_verdicts(workload, tmp_path):
    assert build_jobs(workload, 7) == build_jobs(workload, 7)
    other = build_jobs(workload, 8)
    assert other != build_jobs(workload, 7)

    def mix(jobs):
        return [(j["command"], j["n"], j["L"]) for j in jobs]

    assert mix(other) == mix(build_jobs(workload, 7)), "the seed changed the job mix"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = verdicts(workload, 7, tmp_path / "a")
    assert first == verdicts(workload, 7, tmp_path / "b")
    assert all(problem is None for _, problem, _ in first)


def test_injected_wrong_verdict_is_a_failure(tmp_path, monkeypatch):
    from pararp import cli

    emit = cli.emit_report

    def wrong(report, out_path):
        report = dict(report, passed=False, violations=[["injected", -1.0]])
        emit(report, out_path)

    monkeypatch.setattr(cli, "emit_report", wrong)
    jobs = tiny_jobs("rp_suite", 1, tmp_path)
    result = run_loop(Runner(), jobs, seconds=0)
    assert result["attempted"] == len(jobs)
    assert result["failed"] == result["attempted"]
    assert result["samples"] == [[]] * len(jobs)


def test_raising_job_is_a_failure_and_the_loop_goes_on(tmp_path, monkeypatch):
    from pararp import hamiltonian

    def boom(data):
        raise RuntimeError("injected")

    monkeypatch.setattr(hamiltonian, "spec_from_dict", boom)
    jobs = tiny_jobs("symbolic", 1, tmp_path)
    result = run_loop(Runner(), jobs, seconds=0)
    assert result["failed"] == result["attempted"] == len(jobs)
    assert "injected" in result["failures"][0]


def test_hd_quantile():
    values = [float(x) for x in range(1, 10)]
    assert hd_quantile(values, 0.5) == pytest.approx(5.0)
    assert 8.0 < hd_quantile(values, 0.9) < 9.0
    assert hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    # Swapping two neighbours moves no estimate: it depends on the sorted set.
    assert hd_quantile(values[::-1], 0.9) == hd_quantile(values, 0.9)


def test_blended_reference_reads_reference_s_on_an_idle_host(monkeypatch):
    import reference

    monkeypatch.setattr(reference, "reference_seconds", lambda: REFERENCE_S)
    blended = Reference(0.4)
    assert blended.numpy_seconds() > 0
    monkeypatch.setattr(blended, "numpy_seconds", lambda: NUMPY_REFERENCE_S)
    assert blended.seconds() == pytest.approx(REFERENCE_S)
    # Host 2x slower for the Python kernel, 1.5x for the numpy kernel.
    monkeypatch.setattr(reference, "reference_seconds", lambda: 2 * REFERENCE_S)
    monkeypatch.setattr(blended, "numpy_seconds", lambda: 1.5 * NUMPY_REFERENCE_S)
    assert blended.seconds() == pytest.approx(REFERENCE_S * 2**0.6 * 1.5**0.4)
    assert Reference().seconds() == 2 * REFERENCE_S


def test_end_to_end_cancels_host_drift_but_not_program_change():
    def run(job_scale, host_scale):
        samples = [[[job_scale * host_scale * t, host_scale * REFERENCE_S]] * 3
                   for t in (0.01, 0.02, 0.03, 0.2)]
        setup = [[host_scale * 0.3, host_scale * REFERENCE_S]] * 5
        return end_to_end(samples, setup, 100.0)[0]

    base = run(1.0, 1.0)
    assert base["jobs_per_s"] == pytest.approx(4 / 0.26)
    assert base["setup_s"] == pytest.approx(0.3)
    for name, value in run(1.0, 1.7).items():
        assert value == pytest.approx(base[name]), name
    slower = run(1.5, 1.7)
    assert slower["jobs_per_s"] == pytest.approx(base["jobs_per_s"] / 1.5)
    assert slower["job_p90_ms"] == pytest.approx(base["job_p90_ms"] * 1.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def synthetic(monkeypatch):
    """A fake pararp module tree: outer -> inner (imported by name into a
    second module) -> leaf, each advancing a fake clock by a known amount."""
    clock = FakeClock()
    lib = types.ModuleType("pararp._synthetic_lib")
    user = types.ModuleType("pararp._synthetic_user")

    def leaf(x):
        clock.now += 2.0
        return x

    def inner():
        clock.now += 1.0
        lib.leaf(5)
        lib.leaf(5)
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        user.inner()
        clock.now += 0.5

    lib.leaf, lib.inner, lib.outer = leaf, inner, outer
    user.inner = inner
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    probes = (
        tr.Probe("cli", lib.__name__, "outer"),
        tr.Probe("rp", lib.__name__, "inner"),
        tr.Probe("exponents", lib.__name__, "leaf", leaf=True,
                 size=lambda args, kwargs: args[0]),
    )
    return clock, lib, user, tr.Tracer(probes, clock=clock)


def test_self_time_on_synthetic_span_tree(synthetic):
    clock, lib, user, tracer = synthetic
    tracer.install()
    try:
        tracer.begin_job(0)
        clock.now += 0.25
        lib.outer()
        tracer.end_job()
        lib.outer()  # outside a job: not recorded
    finally:
        tracer.uninstall()
    job, outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (job.sid, outer.sid)
    assert (job.end - job.start, outer.end - outer.start) == (9.75, 9.5)
    assert job.self_time() == 0.25
    assert outer.self_time() == 3.5
    assert inner.self_time() == 2.0
    assert inner.leaves == {"exponents.leaf": [2, 4.0, 10, 2, 0]}
    by_name, layer_self, _ = tr.totals(tracer.spans, tracer.layer_of)
    assert layer_self == {"cli": 3.5, "hamiltonian": 0.0, "algebra": 0.0,
                          "exponents": 4.0, "representation": 0.0, "rp": 2.0,
                          "runner": 0.25}
    assert sum(layer_self.values()) == job.end - job.start
    assert by_name["rp.inner"].seconds == 6.0
    assert by_name["exponents.leaf"].calls == 2


def test_install_wraps_imported_names_and_uninstall_restores(synthetic):
    _, lib, user, tracer = synthetic
    originals = (lib.inner, user.inner, lib.leaf)
    tracer.install()
    assert user.inner is not originals[1] and lib.inner is not originals[0]
    assert user.inner.__wrapped__ is originals[1]
    tracer.uninstall()
    assert (lib.inner, user.inner, lib.leaf) == originals


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_accounts_for_job_time(workload, tmp_path):
    from pararp import cli

    original_main = cli.main
    jobs = tiny_jobs(workload, 2, tmp_path)
    runner = Runner()
    tracer = runner.tracer = tr.Tracer()
    tracer.install()
    try:
        result = run_loop(runner, jobs, seconds=0)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert result["failed"] == 0
    m = tr.layer_metrics(tracer.spans, tracer.layer_of, result["attempted"])
    parts = sum(m[f"{layer}.self_ms"] for layer in tr.LAYERS + ("runner",))
    assert parts == pytest.approx(m["trace.job_ms"], rel=1e-9)
    assert sum(s.name == "job" for s in tracer.spans) == result["attempted"]
    busy = {"rp_suite": ("rp.matrix_exp_calls", "rp.check_rp_probes", "rp.gram_entries",
                         "representation.to_matrix_calls", "cli.build_parser_ms"),
            "basis": ("representation.decompose_monomials",
                      "representation.monomial_builds", "representation.verify_ms"),
            "symbolic": ("algebra.product_term_pairs", "exponents.circ_calls",
                         "algebra.text_ms")}[workload]
    for name in busy:
        assert m[name] > 0, name
    if workload == "symbolic":
        assert m["cli.self_ms"] == m["rp.self_ms"] == m["representation.self_ms"] == 0


def test_declared_metrics_match_what_is_measured():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    layers = tr.layer_metrics([], {}, 1)
    measured = set(layers) | {"cli.report_bytes", "trace.jobs_per_s"}
    assert {m["name"] for m in bench["per_layer"]} == measured
    assert {m["name"] for m in bench["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_structured_probe_count_matches_rp():
    from pararp import rp

    for n, L in ((2, 8), (3, 6), (4, 6), (3, 10)):
        assert tr._structured_count(n, L) == len(rp.structured_observables(n, L))


def test_run_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
