"""Occupation numbers for blackbody radiation and a cold trapped oscillator.

At the Wien peak of a blackbody spectrum the mean photon number per mode is
fixed, independent of temperature: about 7.0e-3 at the wavelength peak and
6.3e-2 at the frequency peak.  Both sit deep in the nonclassical window
mean_n < 1.  A 100 kHz oscillator at 1 microkelvin lands in the same regime.
"""

import math

from thermalweak import BlackbodyMode, ThermalState, occupation_number, wien_peak_occupation

for convention in ("wavelength-peak", "frequency-peak"):
    mean_n = wien_peak_occupation(convention)
    state = ThermalState(mean_n)
    print(f"{convention:16}: mean_n = {mean_n:.6e}, sigma^2 = {state.sigma2:.6f}")

mode = BlackbodyMode(angular_frequency=2.0 * math.pi * 1e5, temperature=1e-6)
print(f"100 kHz at 1 uK  : mean_n = {occupation_number(mode):.6e}")
