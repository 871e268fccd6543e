"""README examples, run as written.

Each `$ artifact ...` example in the Command line block runs through
main(argv) and must print exactly the lines under it; the Library
snippet is executed and every `print(...)  # value` line must print its
commented value.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from artifact.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang=""):
    """The first ``` block (with info string lang) under a ## heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0]


def cli_examples():
    """(argv, expected stdout) for each $ artifact example."""
    examples = []
    for chunk in fenced_block("Command line").split("$ artifact ")[1:]:
        command, _, output = chunk.partition("\n")
        examples.append((shlex.split(command), output.rstrip("\n") + "\n"))
    return examples


CLI_EXAMPLES = cli_examples()


def test_readme_lists_every_cli_example():
    assert len(CLI_EXAMPLES) == 10


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_library_snippet():
    code = fenced_block("Library", "python")
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE)
    assert comments
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == comments
