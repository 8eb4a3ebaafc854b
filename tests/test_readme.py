"""The README's library example runs as documented.

The example is the one place a reader sees the public API used end to end;
executing it here means a deleted or renamed name breaks the suite, not
only the documentation.
"""

import re
from pathlib import Path

from casimir_lab import MODEL_IDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    force, *ranking = capsys.readouterr().out.splitlines()
    assert float(force) > 0.0
    assert sorted(line.split(":")[0] for line in ranking) == sorted(MODEL_IDS)
