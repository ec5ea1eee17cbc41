"""Postselected weak value of p^2 along the position axis.

The weak value (p^2)_w(q) = (sigma^2 + 4 sigma^6 - q^2) / (4 sigma^4) is an
inverted parabola that turns negative beyond |q| = sqrt(sigma^2 + 4 sigma^6),
while the classical conditional expectation of p^2 is the constant sigma^2.
The closed form is cross-checked against the conditional-moment integral and
against the energy route 2 H_w(q) - q^2.
"""

import numpy as np

from thermalweak import (
    ThermalState,
    classical_weak_value_p2,
    hamiltonian_weak,
    moment_weak_integral,
    negativity_threshold,
    p2_weak_closed,
)

state = ThermalState(0.01)
threshold = negativity_threshold(state)
print(f"mean_n = {state.mean_n}, sigma^2 = {state.sigma2}")
print(f"weak value turns negative beyond |q| = {threshold:.6f}")
print(f"classical conditional <p^2 | q>    = {classical_weak_value_p2(state, 0.0)}")
print()
print(f"{'q':>6} {'closed':>12} {'moment integral':>16} {'2 H_w - q^2':>12}")
for q in np.linspace(0.0, 2.0, 9):
    closed = p2_weak_closed(state, q)
    integral = moment_weak_integral(state, 2, q).real
    energy_route = 2.0 * hamiltonian_weak(state, q) - q * q
    print(f"{q:6.2f} {closed:12.6f} {integral:16.6f} {energy_route:12.6f}")
