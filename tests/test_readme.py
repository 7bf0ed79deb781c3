"""README examples run as written, so the signatures they show cannot drift."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(markdown: str, heading: str) -> str:
    """The first ```python block of the ``## heading`` section."""
    section = markdown.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_quick_start_runs(capsys):
    source = fenced_block(README.read_text(encoding="utf-8"), "Quick start (Python)")
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    estimate = namespace["estimate"]
    assert len(estimate.samples) == 100 and np.isfinite(estimate.samples).all()
    assert capsys.readouterr().out == f"{estimate.mean} {estimate.std} {estimate.quantiles}\n"
