"""The README's Python examples and `persum` commands run as written."""

import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from persum.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def persum_commands():
    """(argv, stdin) for each `persum ...` command of the sh blocks. A line
    that ends inside a quote goes on with the next; `echo TEXT | persum ...`
    gives persum TEXT and a newline on stdin."""
    commands, pending = [], ""
    for line in "".join(SH_BLOCKS).splitlines():
        pending += line
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:  # no closing quotation yet
            pending += "\n"
            continue
        pending = ""
        stdin = None
        if "|" in words:
            (echo, text), words = words[:words.index("|")], words[words.index("|") + 1:]
            assert echo == "echo"
            stdin = text + "\n"
        if words[:1] == ["persum"]:
            commands.append((words[1:], stdin))
    return commands


COMMANDS = persum_commands()


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_a_command_for_every_subcommand():
    assert {argv[0] for argv, _ in COMMANDS} == {
        "spectrum", "charpoly", "coeffs", "extrapolate", "cover", "finewilf",
    }
    assert any(stdin for _, stdin in COMMANDS)


@pytest.mark.parametrize("argv, stdin", COMMANDS, ids=[shlex.join(argv) for argv, _ in COMMANDS])
def test_readme_command_prints_json(tmp_path, monkeypatch, capsys, argv, stdin):
    monkeypatch.chdir(tmp_path)
    Path("systems.txt").write_text("0 mod 2\n1 mod 2\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    assert main(list(argv)) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        out = Path(argv[argv.index("--out") + 1]).read_text()
    assert isinstance(json.loads(out), dict)
