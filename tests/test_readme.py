import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    """The README's first python block is supported surface; run it as shown."""
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    out = capsys.readouterr().out
    assert "spectrum spread:" in out and "selectivity potential:" in out
