"""README's ``## Library`` examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_library_examples_run(capsys):
    blocks = library_blocks()
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "D1" in capsys.readouterr().out      # the chart one block prints
