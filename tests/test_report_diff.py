"""tools/report_diff.py: the package's source tree against itself on the
benchmark's tiny grids, and the comparison of two reports."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_is_identical(report_diff, capsys):
    src = str(ROOT / "src")
    code = report_diff.main([src, src, "--workload", "rp_suite", "basis",
                             "--seeds", "3", "--tiny",
                             "--argv", "counterexample --n 5 --j 2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    total = int(lines[0].rsplit(" ", 1)[1])
    assert lines[0] == f"identical reports: {total} of {total}" and total > 10
    # The cycles' 6 rp-check jobs and the 7 on the edge specs; the --argv
    # line and the 2 edge lines of counterexample.
    assert "  counterexample: 3 of 3 identical" in lines
    assert "  families: 1 of 1 identical" in lines
    assert "  rp-check: 13 of 13 identical" in lines
    assert "changed:" not in lines


def test_compare_names_the_first_key_and_the_largest_gap(report_diff):
    old = json.dumps({"a": 1.0, "b": [1.0, 2.0], "c": True, "d": 4.0})
    new = json.dumps({"a": 1.0, "b": [1.0, 2.5], "c": False, "d": 4.0000004})
    assert report_diff.compare(old, new) == (["b[1]", "c", "d"], 0.2)
    assert report_diff.compare(old, old) == ([], 0.0)
    assert report_diff.compare(old, "") == (["<output>"], 0.0)


def test_compare_names_every_differing_top_level_key(report_diff):
    """Two top-level keys differ, one of them at two nested keys and one
    only in the new report: each is named once, by its first differing key,
    the old report's keys first, and the report line lists both."""
    old = {"command": "bounds", "pairs": 4,
           "worst": {"bound1": 1.0, "f_ab": [0.5, 0.0], "ok": True}}
    new = {"command": "bounds", "pairs": 4, "seed": 3,
           "worst": {"bound1": 1.5, "f_ab": [0.25, 0.0], "ok": True}}
    old, new = json.dumps(old), json.dumps(new)
    assert report_diff.compare(old, new) == (["worst.bound1", "seed"], 0.5)
    jobs = [{"label": "bounds job", "argv": ["bounds"]}]
    lines, identical = report_diff.report(jobs, [[0, old, ""]],
                                          [[0, new, "warning"]])
    assert not identical
    assert lines[-1] == ("  bounds job: exit 0 -> 0, differences at "
                         "worst.bound1, seed, <stderr>, largest relative "
                         "gap 0.5")
