"""thermalweak: quasi-probability distributions and postselected weak
values for single-mode thermal radiation, with a weak-measurement
simulator and a data-export CLI."""

from .numerics import (
    DEFAULT_TEST_GRID,
    Grid1D,
    erfc,
    hermite_psi,
    hermite_psi_table,
    integrate,
    p_to_q_transform,
    q_to_p_transform,
)
from .states import (
    HBAR,
    K_BOLTZMANN,
    BlackbodyMode,
    FockMixture,
    ThermalState,
    fock_weights,
    geometric_weights,
    occupation_number,
    q_marginal_pdf,
    thermal_from_mean_n,
    wien_peak_occupation,
)
from .quasiprob import (
    ComplexPhaseField,
    eval_grid,
    kirkwood,
    margenau_hill,
    s_closed,
    s_oracle_fock,
    s_oracle_pintegral,
)
from .weakvalues import (
    NegativityStats,
    WeakValueCurve,
    classical_weak_value_p2,
    hamiltonian_weak,
    moment_weak_integral,
    negativity_probability,
    negativity_stats,
    negativity_threshold,
    p2_weak_closed,
    p2_weak_curve,
)
from .measurement import (
    CouplingConfig,
    PointerState,
    SimulationReport,
    convergence_sweep,
    default_bin_halfwidth,
    gaussian_pointer,
    pointer_from_components,
    simulate_weak_p2,
    thermal_pointer,
)

__version__ = "0.1.0"
