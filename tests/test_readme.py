"""The README's Python examples run as written, so that an API change that
leaves them behind fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each fenced python block, with its first line's number in the README.
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_readme_has_its_three_python_blocks():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("line, source", BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(line, source):
    # Padded so that a traceback names the README's own line numbers.
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
