"""Margenau-Hill distribution of a thermal state: negativity vs. occupation.

Evaluates the Margenau-Hill quasi-probability on a phase-space grid for a
nearly-vacuum state and for mean occupation 1, and prints where each grid
minimum sits.  The near-vacuum state has a clearly negative lobe; at
occupation 1 the negativity has practically disappeared.
"""

import numpy as np

from thermalweak import Grid1D, ThermalState, eval_grid

grid = Grid1D(-6.0, 6.0, 481)

for mean_n in (0.01, 1.0):
    state = ThermalState(mean_n)
    values = eval_grid(state, grid, grid, "margenau-hill")
    i, j = np.unravel_index(np.argmin(values), values.shape)
    q = grid.points()
    print(f"mean_n = {mean_n}")
    print(f"  value at origin : {values[grid.count // 2, grid.count // 2]:.6f}")
    print(f"  grid minimum    : {values[i, j]:.6e} at (q, p) = ({q[i]:.3f}, {q[j]:.3f})")
    print(f"  negative cells  : {np.count_nonzero(values < 0)} of {values.size}")
