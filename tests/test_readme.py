"""The README's worked examples run and print what the README shows."""

import re
from pathlib import Path

from cklie.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(opening: str) -> str:
    """Body of the first fenced block whose first line starts with `opening`."""
    start = README.index(opening)
    return README[start + len(opening) : README.index("```", start + len(opening))]


def test_h2_example_output(capsys):
    block = fenced_block("```sh\n$ ").splitlines()
    command, shown = block[0], block[1:]
    assert command == "cklie h2 --family so --omega 0,1 --format text"
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_library_example_dims():
    code = fenced_block("```python\n")
    namespace: dict = {}
    exec(code, namespace)
    stated = re.search(r"dim_z2=(\d+), dim_b2=(\d+), dim_h2=(\d+)", code).groups()
    assert tuple(map(int, stated)) == (7, 4, 3)
    res = namespace["res"]
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (7, 4, 3)
    active = [v.name for v in namespace["rep"].verdicts if v.active]
    assert sorted(active) == sorted(re.search(r"agrees: (.*)", code).group(1).split(", "))
