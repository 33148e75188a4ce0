"""Closed-form kinks from the compatible first-order flows.

Each factorization is compatible with u' = phi1(u)*u, a separable equation
whose solution is a logistic-power kink.  The script prints the exponential
form and its tanh rewriting, shows that the travelling-frame rescaling
only stretches the profile, and samples one kink to CSV.
"""

import tempfile
from pathlib import Path

from kinkfactor import rescale_frame, write_kink_csv
from kinkfactor.presets import parse_preset, run_pipeline

for preset_id in ("fisher(1)", "mt6", "dto(2/9,4)", "fhn(3,2)"):
    result = run_pipeline(parse_preset(preset_id))
    kink = result.kink
    print(f"== {preset_id}   (gamma = {result.pair.gamma:.12g})")
    print(f"   u = (amplitude / (1 + e^(rate (xi-xi0))))^(1/m)")
    print(f"   amplitude = {kink.amplitude:.12g}, rate = {kink.rate:.12g}, "
          f"1/m = {kink.inv_exponent}")
    # 1/(1 + e^x) = (1 - tanh(x/2))/2: the tanh form halves amplitude and rate
    print(f"   hyperbolic: ({kink.amplitude / 2.0:.6g} (1 - tanh"
          f"[{kink.rate / 2.0:.12g} (xi-xi0)]))^{kink.inv_exponent}")
    print(f"   midpoint u(xi0) = {kink.midpoint_value():.12g}, "
          f"width = {kink.width:.6g}")
    print(f"   asymptotes: {kink.asymptotes()}")
    print()

# frame rescaling stretches the kink without changing its shape
result = run_pipeline(parse_preset("fisher(1)"))
scaled = rescale_frame(result.ode, 2.0)
print("frame rescale by k = 2:")
print(f"   original: {result.ode}")
print(f"   scaled  : {scaled}")
print()

out = Path(tempfile.mkdtemp()) / "fisher1_kink.csv"
write_kink_csv(out, result.kink)
print(f"sampled fisher(1) kink (xi, u, u', u'') to {out}")
print("first rows:")
for line in out.read_text().splitlines()[:4]:
    print("   " + line)
