"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    eps, e_surge, e_smooth, err = map(float, capsys.readouterr().out.split())
    assert eps > 0.0 and e_smooth > 0.0 and err > 0.0
