"""The README's library example and its command lines run as written, and
the claims in the example's comments hold, so renaming a public name or a
command-line option breaks a test, not the docs."""

import json
import re
from pathlib import Path

import pytest

from szegolab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_its_comments_hold():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    fit, Phi = namespace["fit"], namespace["Phi"]
    assert fit.stratum_order == 2  # k = 2
    assert fit.c_lead == pytest.approx(fit.predicted, rel=0.002)
    assert Phi.levels == (4, 5, 8, 10)
    assert Phi.total_dim == 17


def readme_commands() -> list[list[str]]:
    """The words of each szegolab invocation in the fenced block under
    "## Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    return [line.split() for line in block.splitlines() if line.startswith("szegolab ")]


def test_command_line_block_runs(tmp_path, capsys):
    lines = readme_commands()
    assert len(lines) >= 9
    # the project line reads a --function file: the polynomial z1 zbar2
    (tmp_path / "func.json").write_text(json.dumps(
        [{"coeff": "1", "z_exponents": [1, 0], "zbar_exponents": [0, 1]}]
    ))
    for words in lines:
        argv = [
            str(tmp_path / word) if word == "func.json" or prev == "--out" else word
            for prev, word in zip([None] + words, words)
        ][1:]
        assert main(argv) == 0, " ".join(words)
        capsys.readouterr()


def test_csv_columns_paragraph_equals_each_command_header():
    from szegolab.cli import COMMANDS

    text = " ".join(README.read_text().split("CSV columns per subcommand:", 1)[1]
                    .split("\n\n", 1)[0].split())
    documented = dict(re.findall(r"`(\w+)`: `([\w,]+)`", text))
    assert documented == {name: ",".join(header) for name, (*_, header, _) in COMMANDS.items()}
