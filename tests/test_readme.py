import re
import types
from pathlib import Path

import levyhedge

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    # the library quick start runs as written, so the README cannot name a
    # function the package no longer has
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_states_the_export_count():
    # the count the README gives is the package's public names, its modules
    # aside; levyhedge.lrm is the function lrm, which counts
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"The\s+package\s+exports\s+(\d+)\s+names", text)
    names = [name for name, value in vars(levyhedge).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert stated and int(stated.group(1)) == len(names)
