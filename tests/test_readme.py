"""Every `$ primelattice ...` example in README.md, run through cli.run.

An example is the command line and the output lines after it, up to a
blank line or the end of its code block; `...` in the output elides any
run of characters."""

import re
import shlex
from pathlib import Path

import pytest

from primelattice.cli import ZEROS_ENV, run

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    examples, cmd, out, in_block = [], None, [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        if cmd is not None and (not in_block or not line.strip()):
            examples.append((cmd, "\n".join(out) + "\n"))
            cmd, out = None, []
        if not in_block:
            continue
        if line.startswith("$ primelattice "):
            cmd = line[len("$ primelattice "):]
        elif cmd is not None:
            out.append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("cmd, want", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(cmd, want, capsys, monkeypatch):
    monkeypatch.delenv(ZEROS_ENV, raising=False)
    code = run(shlex.split(cmd))
    got = capsys.readouterr()
    assert (code, got.err) == (0, "")
    pattern = ".*?".join(re.escape(part) for part in want.split("..."))
    assert re.fullmatch(pattern, got.out, flags=re.DOTALL), (got.out, want)
