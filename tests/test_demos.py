"""The demo scripts and the README's Python quick start run on the current API.

Each demo is run in-process as ``__main__``; each ```` ```python ```` block
of the README is executed in a fresh namespace.  Both only have to finish
and print, so a signature change that breaks them fails here.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_every_demo_and_quick_start_block_is_collected():
    assert len(DEMOS) == 5
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_quick_start_runs(index, capsys):
    code = compile(README_BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
    assert capsys.readouterr().out
