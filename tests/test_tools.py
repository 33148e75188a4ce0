import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from kinkfactor.cli import main
from kinkfactor.powerpoly import parse_poly
from kinkfactor.presets import STANDARD_PRESETS, parse_preset

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


def test_cli_digest_has_a_usage_and_rejects_an_unknown_preset(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digest.py"), *args],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stderr == ""
    assert shown.stdout.startswith("usage: cli_digest.py [-h] [--poly TEXT] [PRESET ...]\n")
    refused = run("mt6", "nope")
    assert refused.returncode == 2 and refused.stdout == ""
    assert [line for line in refused.stderr.splitlines() if "error:" in line] == [
        "cli_digest.py: error: argument PRESET: unknown preset 'nope'"]
    assert "Traceback" not in refused.stderr


def test_cli_digest_digests_each_poly_alone(tmp_path):
    # the factorizer's overflow inputs: the first splits and has no real scale
    polys = ["-1.7e308 + 1.7e308 u + 1.7e308 u^2", "1.7e308 - 1.7e308 u^2"]
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digest.py"),
                          *(f"--poly={poly}" for poly in polys)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = [line.split("  ", 1) for line in run.stdout.splitlines()]
    assert [argv for _, argv in lines] == [
        f"factor '--poly={poly}'{flag}" for poly in polys for flag in ("", " --json")]
    assert [digests.split()[3] for digests, _ in lines] == ["2", "2", "0", "0"]
    assert list(tmp_path.iterdir()) == []


def ci_presets():
    """The presets the CI workflow digests besides the standard ones."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    # the list ends at its first ")" that ends a line
    listed = re.search(r"scaled=\((.*?)\)\n", workflow, re.S)[1]
    return re.findall(r'"([^"]+)"', listed)


def test_cli_digest_factors_the_presets_own_f_over_u(capsys):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from cli_digest import argvs, poly_text
    finally:
        sys.path.remove(str(ROOT / "tools"))
    presets = [*STANDARD_PRESETS, *ci_presets()]
    assert {"dto(1e4,4)", "fhn(1e-13,1)", "fisher(125)"} <= set(presets)
    for preset in presets:
        F_over_u = parse_preset(preset).F_over_u()
        assert parse_poly(poly_text(F_over_u)) == F_over_u, preset
    # str() keeps 12 digits, and "0.222222222222 - u^2" factors at gamma =
    # 0.9999999999995; the digest's text factors at the preset's gamma = 1
    text = "+ 0.2222222222222222 - 1.0 u^{2}"
    assert poly_text(parse_preset("dto(2/9,4)").F_over_u()) == text
    assert ["factor", "--preset", "dto(2/9,4)", "--branch", "positive",
            f"--poly={text}"] in list(argvs(["dto(2/9,4)"], []))
    assert main(["factor", f"--poly={text}", "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert pairs[0]["gamma"] == 1.0


def test_generated_code_lists_each_source_once_under_its_digest(tmp_path):
    before = checkout_status()
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "generated_code.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    head, *parts = re.split(r"^# (\S+) ([0-9a-f]{16})\n", run.stdout, flags=re.M)
    assert head == ""
    listed = list(zip(parts[0::3], parts[1::3], parts[2::3]))
    for _, digest, source in listed:
        # print ends each source with a newline
        assert source.startswith("def make(") and source.endswith("\n")
        assert hashlib.sha256(source[:-1].encode()).hexdigest()[:16] == digest
    assert len({source for _, _, source in listed}) == len(listed)
    assert {filename for filename, _, _ in listed} == {
        "KinkProfile.along", "PowerPoly.evaluate", "verify.ftcs", "verify.rk4", "verify.scan"}
    assert list(tmp_path.iterdir()) == []
    assert checkout_status() == before
