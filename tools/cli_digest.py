"""Print a digest line for each in-process CLI call on the standard presets.

Each line holds the sha256 (first 16 hex digits) of the call's standard
output, of its standard error and of the files it wrote, its exit code, and
then its argv.  The calls are ``factor``, ``kink``, ``partner``, ``verify``,
``verify --front``, ``simulate``, ``simulate --partner``, ``figures`` and
``factor --poly=<the preset's F/u>``, each with and without ``--json``, on
every preset and both velocity branches (``--poly`` ignores both);
``kink``, ``simulate`` and ``figures`` write to ``--out out``.  Every
call runs in a fresh temporary directory, so the paths it prints and writes
are the same on every run and nothing is written into the checkout.  Run it
from anywhere as

    python tools/cli_digest.py [PRESET ...]

(default: the standard presets).  The program is imported from this
checkout's ``src/``; to list the outputs that a change alters, run each
checkout's copy and diff the two listings.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kinkfactor.cli import main  # noqa: E402
from kinkfactor.presets import STANDARD_PRESETS, parse_preset  # noqa: E402

#: Each command with the flags that follow its preset and branch.
CALLS = (("factor",), ("kink", "--out", "out"), ("partner",), ("verify",),
         ("verify", "--front"), ("simulate", "--out", "out"),
         ("simulate", "--partner", "--out", "out"), ("figures", "--out", "out"))


def argvs(presets):
    """The argv of every call, in the order they are printed."""
    for preset in presets:
        raw = ("factor", f"--poly={parse_preset(preset).F_over_u()}")
        for branch in ("positive", "negative"):
            for command, *flags in (*CALLS, raw):
                for as_json in ([], ["--json"]):
                    yield [command, "--preset", preset, "--branch", branch, *flags, *as_json]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(argv: list[str]) -> str:
    """The digest line of one call of ``kinkfactor.cli.main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            written = hashlib.sha256()
            for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                data = path.read_bytes()
                written.update(f"{path.as_posix()}\0{len(data)}\0".encode() + data)
        finally:
            os.chdir(here)
    return (f"{sha(stdout.getvalue().encode())} {sha(stderr.getvalue().encode())}"
            f" {written.hexdigest()[:16]} {code}  {shlex.join(argv)}")


if __name__ == "__main__":
    for argv in argvs(sys.argv[1:] or STANDARD_PRESETS):
        print(digest(argv), flush=True)
