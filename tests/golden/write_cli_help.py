"""Write tests/golden/cli_help.txt, the exact help and argument-error output
of gapkit's CLI that tests/test_golden.py compares against.

    python tests/golden/write_cli_help.py

Each command runs through ``gapkit.cli.main`` at 80 columns (COLUMNS=80)
and gives one block of the file: a ``@@ gapkit ARGS`` line (shell-quoted),
``@@ exit CODE``, then ``@@ stdout`` and ``@@ stderr``, each followed by
that stream's text.  Argparse's wording is the interpreter's own; the file
was written with Python 3.11.  A change that alters this file has to say
why.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from gapkit import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("cli_help.txt")
CUBIC = "x^3 - 2*y^3"

# every help text, then errors found by argparse at each level
COMMANDS = [
    [], ["-h"], ["thue"], ["thue", "-h"], ["gap"], ["gap", "-h"],
    ["padic"], ["padic", "-h"],
    ["minpair", "-h"], ["constants", "-h"], ["aut", "-h"],
    ["thue", "enum", "-h"], ["thue", "census", "-h"], ["gap", "check", "-h"],
    ["padic", "root", "-h"], ["sweep", "-h"],
    ["bogus"], ["thue", "foo"], ["aut"], ["-h", "aut"],
    ["aut", CUBIC, "--bogus"], ["--bogus", "aut", CUBIC],
    ["thue", "--bogus", "enum", CUBIC, "1", "2"],
    ["thue", "enum", CUBIC, "1", "2", "--bogus"],
    ["thue", "enum", CUBIC, "1", "-5"],
    ["thue", "census", CUBIC, "1", "--mu", "x"],
    ["constants", "foo", "a", "b"],
    ["gap", "check", "a", "b", "--c0", "1", "1/2"],
    ["padic", "root", "x^3 - 3*x - 1", "17", "3", "--precision-bits", "0"],
    ["sweep", "--dmax", "2"],
]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``gapkit ARGV``; the caller sets
    COLUMNS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def block(argv: list[str], code: int, out: str, err: str) -> str:
    assert all(s.endswith("\n") for s in (out, err) if s), argv
    return (f"@@ {shlex.join(['gapkit', *argv])}\n@@ exit {code}\n"
            f"@@ stdout\n{out}@@ stderr\n{err}")


def entries(text: str) -> list[tuple[list[str], int, str, str]]:
    """(argv, exit code, stdout, stderr) of each block of ``text``."""
    out = []
    for chunk in text.split("@@ gapkit")[1:]:
        head, rest = chunk.split("\n@@ stdout\n", 1)
        stdout, stderr = rest.split("@@ stderr\n", 1)
        args, code = head.split("\n@@ exit ")
        out.append((shlex.split(args), int(code), stdout, stderr))
    return out


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text("".join(block(argv, *run(argv)) for argv in COMMANDS))
