"""The Python usage example of README.md runs as written."""

import json
import re
from pathlib import Path

from pararp.algebra import omega_power

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_usage_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # c_2 c_1 = omega^{-1} c_1 c_2 at n = 3, then the report of a passing run
    assert lines[0] == f"{omega_power(3, -1)!r}*C(1, 1)"
    report = json.loads(lines[1])
    assert report["samples"] == 200 and report["violations"] == []
