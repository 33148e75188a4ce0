"""Print each distinct source that the program generates and compiles.

The program compiles every generated function through ``powerpoly._code``.
This tool wraps that function and then, on every standard preset and both
velocity branches, runs ``run_pipeline`` (whose residual scans compile
``verify.scan``) and, for the original kink and its partner when the
partner is real, ``PowerPoly.evaluate`` of F, ``KinkProfile.poly_along`` of
F at the kink's centre (which compiles ``KinkProfile.along``), both RK4
oracles for 10 steps of 1e-3 from the kink's centre and a front run of 10
steps on the CLI's grid.  Each distinct source is printed once, in the
order it was first compiled, under a line ``# <filename> <sha16>``: the
name the code was compiled under and the first 16 hex digits of the
source's sha256.  Run it from anywhere as

    python tools/generated_code.py

The program is imported from this checkout's ``src/``; to list the generated
code that a change alters, run each checkout's copy and diff the two listings.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kinkfactor import powerpoly, verify  # noqa: E402
from kinkfactor.presets import STANDARD_PRESETS, parse_preset, run_pipeline  # noqa: E402

#: The front run: the CLI's default grid and dt, for 10 steps.
FRONT = ((-40.0, 40.0, 0.05), 1e-3, 0.01)


def kinks(result):
    """(phi, ode, kink) of the original kink and, when real, of the partner."""
    yield result.pair.phi1, result.ode, result.kink
    if result.partner_kink is not None:
        yield result.partner.compatible_phi, result.partner.partner, result.partner_kink


def run_everything():
    """Run each generating call once on every standard preset, branch and real kink."""
    for preset in STANDARD_PRESETS:
        for branch in ("positive", "negative"):
            result = run_pipeline(parse_preset(preset), branch)
            for phi, ode, kink in kinks(result):
                ode.F.evaluate(0.5)
                kink.poly_along(ode.F, kink.shift)
                xi_range = (kink.shift, kink.shift + 0.01)
                u0, v0, _ = kink.eval(kink.shift)
                verify.rk4_flow(phi, u0, xi_range, 1e-3)
                verify.rk4_second_order(ode, u0, v0, xi_range, 1e-3)
                verify.simulate_front(ode.F, kink, *FRONT)


def generated_sources() -> dict:
    """The (filename, source) pairs that :func:`run_everything` compiles, in order."""
    seen = {}
    code = powerpoly._code

    def recording(source, filename):
        seen.setdefault((filename, source), None)
        return code(source, filename)

    powerpoly._code = recording
    try:
        run_everything()
    finally:
        powerpoly._code = code
    return seen


if __name__ == "__main__":
    for filename, source in generated_sources():
        print(f"# {filename} {hashlib.sha256(source.encode()).hexdigest()[:16]}")
        print(source)
