"""README's library quickstart and its --config example run as written."""

import math
import re
from pathlib import Path

from qlmpc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(after: str, lang: str) -> str:
    """The first ``lang`` code block in README after the text ``after``."""
    section = README.read_text(encoding="utf-8").split(after, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(capsys):
    exec(compile(_code_block("## Library quickstart", "python"), str(README), "exec"), {})
    solve, closed_loop = capsys.readouterr().out.splitlines()
    converged, iterations, residual = solve.split()
    # the converged one-OCP solve reports its residual, computed on read
    assert converged == "True" and int(iterations) >= 1
    assert math.isfinite(float(residual))
    assert math.isfinite(float(closed_loop))


def test_config_example_runs(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(_code_block("`--config` takes", "json"), encoding="utf-8")
    out = tmp_path / "results"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["toy_standard_summary.json",
                                                     "toy_standard_trajectory.csv"]
