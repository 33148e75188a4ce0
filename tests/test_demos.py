import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kinkfactor
from kinkfactor import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README = (ROOT / "README.md").read_text()
#: The ``kinkfactor ...`` command lines of README's bash blocks, as argv lists.
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```bash\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("kinkfactor ")
]


def test_every_demo_is_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_commands_are_found():
    assert [argv[0] for argv in README_COMMANDS] == [
        "factor", "kink", "partner", "verify", "simulate", "figures"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg == "out/" else arg for arg in argv]
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_top_level_names_are_the_documented_ones():
    # every name kinkfactor re-exports has a caller in README.md or a demo
    sources = re.findall(r"```python\n(.*?)```", README, re.S)
    sources += [demo.read_text() for demo in DEMOS]
    documented = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "kinkfactor"
        for alias in node.names
    }
    assert set(kinkfactor.__all__) == documented
