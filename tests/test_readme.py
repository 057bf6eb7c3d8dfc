"""README examples run as shown: its Python blocks execute, its CLI lines parse.

A renamed public name, subcommand or option then fails here, naming the
README line that still uses the old one.
"""

import shlex
from pathlib import Path

import click
import pytest

from gpas.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    """(first line number, text) of each fenced block in ``language``."""
    blocks, body, start = [], None, 0
    for number, line in enumerate(README.read_text(encoding="utf-8").splitlines(), 1):
        if body is None:
            if line.strip() == f"```{language}":
                body, start = [], number + 1
        elif line.strip() == "```":
            blocks.append((start, "\n".join(body) + "\n"))
            body = None
        else:
            body.append(line)
    return blocks


def _cli_lines():
    return [
        (start + offset, line.strip())
        for start, text in _blocks("sh")
        for offset, line in enumerate(text.splitlines())
        if line.strip().startswith("gpas ")
    ]


CLI_LINES = _cli_lines()


def test_readme_has_python_blocks_and_cli_lines():
    assert _blocks("python") and CLI_LINES


def test_python_blocks_run_in_one_session():
    namespace = {"__name__": "readme"}
    for start, text in _blocks("python"):
        # pad to the block's line, so a traceback names README.md and the line
        code = compile("\n" * (start - 1) + text, str(README), "exec")
        exec(code, namespace)


@pytest.mark.parametrize("number, line", CLI_LINES, ids=[line for _, line in CLI_LINES])
def test_cli_line_parses(number, line):
    _, name, *args = shlex.split(line)
    command = main.commands.get(name)
    assert command is not None, f"README.md:{number}: no subcommand {name!r} in: {line}"
    try:
        command.make_context(name, args)
    except click.ClickException as exc:
        pytest.fail(f"README.md:{number}: {line}\n{exc.format_message()}")
