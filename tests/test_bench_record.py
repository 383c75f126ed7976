"""tools/bench_record.py assembles BENCH_<label>.json from the output of
perfbench runs.  The runs are replaced by canned output here: no benchmark
starts."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(correct, metrics, attempted=120, failed=0):
    """What perfbench/run.py prints for one workload: summary lines, the
    provenance line, then the result object."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return (
        "rp_suite seed=3 trace=0: 120 jobs in 2 cycles\n"
        "  jobs_per_s = 250 1/s\n"
        'provenance {"nproc": 2, "seed": 3}\n'
        + json.dumps(result) + "\n"
    )


def test_assemble_record_keeps_the_last_json_line_of_each_run(bench_record):
    outputs = {
        ("rp_suite", 0): [canned(True, {"jobs_per_s": 280.5, "setup_s": 0.27})],
        ("rp_suite", 1): [canned(True, {"rp.matrix_exp_calls": 1.0})],
        ("basis", 0): [canned(False, {"jobs_per_s": 650.0}, failed=2)],
        ("basis", 1): ["Traceback (most recent call last):\n"],
    }
    record = bench_record.assemble_record(
        "6", 3, 30, outputs, {"rp.py": 700, "total": 700}, {"nproc": 2})
    assert record["label"] == "6" and record["seed"] == 3
    assert record["seconds"] == 30
    assert record["src_lines"] == {"rp.py": 700, "total": 700}
    assert record["machine"] == {"nproc": 2}
    rp_suite = record["workloads"]["rp_suite"]
    assert rp_suite["end_to_end"] == {"jobs_per_s": 280.5, "setup_s": 0.27}
    assert rp_suite["per_layer"] == {"rp.matrix_exp_calls": 1.0}
    assert rp_suite["end_to_end_jobs"] == {"attempted": 120, "failed": 0}
    basis = record["workloads"]["basis"]
    assert basis["end_to_end_jobs"] == {"attempted": 120, "failed": 2}
    assert basis["per_layer"] is None
    assert record["correct"] is False


def test_main_writes_the_record_without_running_a_benchmark(
    bench_record, tmp_path, monkeypatch
):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "rp_suite"}, {"name": "symbolic"}]}))
    src = tmp_path / "src" / "pararp"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (src / "b.py").write_text("z = 3\n")
    calls = []

    def fake_run(workload, trace, seed, seconds):
        calls.append((workload, trace, seed, seconds))
        return canned(True, {"jobs_per_s": 100.0 + trace})

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_benchmark", fake_run)
    assert bench_record.main(["7", "--seed", "5", "--seconds", "2"]) == 0
    assert calls == [(workload, trace, 5, 2)
                     for workload in ("rp_suite", "symbolic") for trace in (0, 1)
                     for _ in range(bench_record.RUNS)]
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["src_lines"] == {"a.py": 2, "b.py": 1, "total": 3}
    assert record["workloads"]["symbolic"]["per_layer"] == {"jobs_per_s": 101.0}
    assert record["correct"] is True
    assert {"python", "numpy", "scipy", "nproc"} <= set(record["machine"])


def test_traced_metrics_are_the_median_of_the_traced_runs(bench_record):
    """Each per-layer metric is the median over RUNS runs, the job counts
    are their sums, and one run without a result makes the entry
    missing."""
    assert bench_record.RUNS == 3
    runs = [canned(True, {"trace.job_ms": ms, "rp.matrix_exp_calls": 1.0},
                   attempted=100 + i, failed=i % 2)
            for i, ms in enumerate([2.9, 2.2, 2.4])]
    outputs = {("rp_suite", 0): [canned(True, {"jobs_per_s": 280.5})],
               ("rp_suite", 1): runs,
               ("symbolic", 1): runs[:2] + ["killed\n"]}
    record = bench_record.assemble_record(
        "23", 3, 30, outputs, {"total": 1}, {"nproc": 2})
    entry = record["workloads"]["rp_suite"]
    assert entry["per_layer"] == {"trace.job_ms": 2.4, "rp.matrix_exp_calls": 1.0}
    assert entry["per_layer_jobs"] == {"attempted": 303, "failed": 1}
    assert entry["end_to_end"] == {"jobs_per_s": 280.5}
    assert record["workloads"]["symbolic"] == {"per_layer": None}
    assert record["correct"] is False


def test_end_to_end_metrics_are_the_median_of_three_runs(
    bench_record, tmp_path, monkeypatch
):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "rp_suite"}]}))
    (tmp_path / "src" / "pararp").mkdir(parents=True)
    rates = iter([300.0, 100.0, 200.0, 5.0, 7.0, 6.0])

    def fake_run(workload, trace, seed, seconds):
        return canned(True, {"jobs_per_s": next(rates)}, attempted=10)

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_benchmark", fake_run)
    assert bench_record.main(["24", "--seed", "3", "--seconds", "1"]) == 0
    entry = json.loads((tmp_path / "BENCH_24.json").read_text())["workloads"][
        "rp_suite"]
    assert entry["end_to_end"] == {"jobs_per_s": 200.0}
    assert entry["end_to_end_jobs"] == {"attempted": 30, "failed": 0}
    assert entry["per_layer"] == {"jobs_per_s": 6.0}


def test_last_json_line_ignores_trailing_noise(bench_record):
    assert bench_record.last_json_line('a\n{"x": 1}\nnot json\n') == {"x": 1}
    assert bench_record.last_json_line("no result\n") is None


def test_a_timed_out_run_is_recorded_as_missing(bench_record, monkeypatch, capsys):
    def fake_run(argv, **kwargs):
        if argv[argv.index("--trace") + 1] == "1":
            raise bench_record.subprocess.TimeoutExpired(argv, kwargs["timeout"])
        return bench_record.subprocess.CompletedProcess(
            argv, 0, canned(True, {"jobs_per_s": 280.5}), "")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    outputs = {(w, t): [bench_record.run_benchmark(w, t, 3, 30)]
               for w in ("rp_suite",) for t in (0, 1)}
    assert (f"rp_suite trace=1: timed out after {bench_record.RUN_TIMEOUT_S} s"
            in capsys.readouterr().err)
    record = bench_record.assemble_record(
        "7", 3, 30, outputs, {"total": 1}, {"nproc": 2})
    entry = record["workloads"]["rp_suite"]
    assert entry["end_to_end"] == {"jobs_per_s": 280.5}
    assert entry["per_layer"] is None
    assert record["correct"] is False
