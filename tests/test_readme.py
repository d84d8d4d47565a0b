"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    p_values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(p_values) == 3 and all(0.0 <= p <= 1.0 for p in p_values)
