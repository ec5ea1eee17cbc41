"""Probability of observing a negative weak value vs. occupation number.

P(mean_n) = erfc(sqrt(1/2 + 2 sigma^4)) is the Gaussian tail mass beyond the
negativity threshold.  It starts at erfc(1) ~ 0.157 for the vacuum and falls
steeply, so the effect is observable essentially only for mean_n < 1.
"""

import numpy as np

from thermalweak import ThermalState, negativity_probability, negativity_threshold

print(f"{'mean_n':>7} {'threshold_q':>12} {'P(closed)':>12} {'P(quadrature)':>14}")
for mean_n in np.linspace(0.0, 1.0, 11):
    state = ThermalState(mean_n)
    closed = negativity_probability(state, "closed")
    quad = negativity_probability(state, "quadrature")
    print(f"{mean_n:7.2f} {negativity_threshold(state):12.6f} {closed:12.6e} {quad:14.6e}")
