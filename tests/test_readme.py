"""The ```python blocks of README.md run, in order, in one namespace.

A block may use names that an earlier block defined, as a reader working
through the README would.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert BLOCKS, "README.md has no python blocks"
    namespace: dict = {"__name__": "readme"}
    for i, source in enumerate(BLOCKS):
        exec(compile(source, f"README.md python block {i}", "exec"), namespace)
