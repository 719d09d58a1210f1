"""Every narrative script in demos/ and every example in README runs to completion
against the package."""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cvteleport import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def readme_block(heading, lang):
    """The first fenced ``lang`` block under the README's ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [line for line in readme_block("Command line", "bash").splitlines()
            if line.startswith("cvteleport ")]


def python(*args):
    """Run a fresh interpreter with the package on its path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    assert python(str(script))


def test_readme_quick_start():
    lines = python("-c", readme_block("Quick start", "python")).splitlines()
    assert lines[0] == lines[2] == "0.6963561336843298"


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_line(command):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(shlex.split(command)[1:]) == 0
    assert out.getvalue()
