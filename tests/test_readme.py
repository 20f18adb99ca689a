"""README.md's examples run as written: the library example, and every
`sasano` command of the CLI block through `sasano.cli.main`."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from sasano.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands():
    """(argv, output file or None, expected JSON or None) per command: lines
    ending in a backslash continue, and a pipeline `sasano ... | ... > FILE`
    writes the command's solution to FILE, as the README's does."""
    lines = _block("CLI", "sh").splitlines()
    commands = []
    while lines:
        line = lines.pop(0)
        while line.endswith("\\"):
            line = line[:-1] + lines.pop(0)
        if line.startswith("# -> "):
            commands[-1][2] = json.loads(line[len("# -> "):])
        elif line.startswith("sasano "):
            command, _, rest = line.partition("|")
            target = rest.rsplit(">", 1)[1].strip() if rest else None
            commands.append([shlex.split(command)[1:], target, None])
    return commands


def test_readme_cli_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert any(target for _, target, _ in commands)
    # the batch example's file, with the first example as its one request
    request = {"subcommand": "classify", "system": "b4", "alphas": "1/4,1/4,1/4,-1/4,1/4"}
    (tmp_path / "requests.jsonl").write_text(json.dumps(request) + "\n")
    for argv, target, expected in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if target:
            (tmp_path / target).write_text(json.dumps(json.loads(out)["solution"]))
        if expected is not None:
            assert json.loads(out) == expected, argv


def test_readme_library_example_prints_what_its_comments_say():
    source = _block("Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    assert printed[1] == comments[1].split()[0]  # the chart
    assert f"{float(printed[2]):.2e}" == comments[2]  # the cross-check's deviation
