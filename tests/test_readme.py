"""README's library quickstart runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(capsys):
    exec(compile(_quickstart(), str(README), "exec"), {})
    solve, closed_loop = capsys.readouterr().out.splitlines()
    converged, iterations, residual = solve.split()
    # the converged one-OCP solve reports its residual, computed on read
    assert converged == "True" and int(iterations) >= 1
    assert math.isfinite(float(residual))
    assert math.isfinite(float(closed_loop))
