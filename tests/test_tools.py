import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checkout_status():
    """``git status --porcelain`` of the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def test_cli_digest_is_the_same_twice_and_leaves_the_checkout_clean(tmp_path):
    before = checkout_status()
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digest.py"), "mt6"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    # 9 calls (verify, verify --front, simulate, simulate --partner and
    # factor --poly among them) x with and without --json x 2 branches, each
    # exiting 0
    assert len(lines) == 36
    for line in lines:
        digests, argv = line.split("  ", 1)
        assert digests.split()[3] == "0"
        assert argv.split()[1:3] == ["--preset", "mt6"]
    assert list(tmp_path.iterdir()) == []
    assert checkout_status() == before
