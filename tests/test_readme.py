import re
import shlex
from pathlib import Path

from tunescope.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    """The README's first python block is supported surface; run it as shown."""
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    out = capsys.readouterr().out
    assert "spectrum spread:" in out and "selectivity potential:" in out


def test_shown_commands_parse(capsys):
    """Every ``tunescope`` command in an indented block names a subcommand
    and flags that exist, so a removed one cannot stay in the docs."""
    text = README.read_text().replace("\\\n", " ")
    commands = re.findall(r"^ {4}tunescope (.+)$", text, re.M)
    assert len(commands) >= 5
    parser = _build_parser()
    refused = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            refused.append(command)
    assert not refused, capsys.readouterr().err
