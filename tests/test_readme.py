"""The README's examples run as written: the library quick start and the
example experiment spec through the CLI."""

import json
import re
from pathlib import Path

from wsrbeam.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_quick_start_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    wsr, iterations, converged = capsys.readouterr().out.split()
    assert float(wsr) > 0 and int(iterations) >= 1 and converged in ("True", "False")


def test_example_experiment_runs(tmp_path, capsys):
    spec = tmp_path / "experiment.json"
    spec.write_text(_block("json"))
    out = tmp_path / "out"
    assert cli_main(["run", str(spec), "--seeds", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [p["n_completed"] for p in summary["points"]] == [1] * len(summary["points"])
    assert "outputs written to" in capsys.readouterr().out
