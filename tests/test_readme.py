"""The README's fenced python examples run against the package as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    # the minimal reconstruction and the Problem example
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme_example"})
