"""Grid-based simulator of the von Neumann weak-measurement protocol.

Object (a single thermal mode) and pointer are coupled through
exp(-i g p^2 (x) P_pointer), the object is postselected in a narrow bin
around a chosen quadrature value, and the conditional pointer position
shift divided by g estimates the weak value of p^2 -- including its
negative values beyond the threshold.

The interaction is applied exactly as a phase in the doubly-transformed
(object-momentum, pointer-momentum) representation, so the g-sweep
measures the weak-limit error honestly.  Fock components of the object
and mixture components of the pointer are simulated pure-state-wise and
their conditional pointer distributions summed with their weights, which
is exact for diagonal mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, hermite_psi_table, q_to_p_transform
from .states import ThermalState, fock_weights
from .weakvalues import p2_weak_closed

__all__ = [
    "PointerState",
    "CouplingConfig",
    "SimulationReport",
    "CURRENT_DENSITY_TOL",
    "gaussian_pointer",
    "thermal_pointer",
    "pointer_from_components",
    "default_bin_halfwidth",
    "simulate_weak_p2",
    "convergence_sweep",
]

#: A pointer is a valid weak-measurement readout only if its probability
#: current density vanishes; this is the numerical bound enforced.
CURRENT_DENSITY_TOL = 1e-10

NORMALIZATION_TOL = 1e-10

#: Fock truncation of a thermal pointer.
POINTER_TAIL_TOL = 1e-10

OBJECT_GRID = Grid1D(-12.0, 12.0, 4096)
DEFAULT_POINTER_GRID = Grid1D(-80.0, 80.0, 1025)
DEFAULT_POINTER_WIDTH = 10.0


@dataclass(frozen=True)
class PointerState:
    """Discretized 1-D pointer wavefunction or mixture of wavefunctions.

    ``components`` is a tuple of (weight, amplitudes) pairs; a pure state
    has a single weight-1 component.  Diagnostics (mean position, maximal
    current density) are computed at construction.
    """

    grid: Grid1D
    components: tuple
    mean_x: float
    current_density_max: float


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strength, postselection point and bin half-width."""

    g: float
    postselect_q: float
    bin_halfwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and 0.0 < self.g <= 1.0):
            raise ValueError("coupling g must lie in (0, 1]")
        if not math.isfinite(self.postselect_q):
            raise ValueError("postselect_q must be finite")
        if not (math.isfinite(self.bin_halfwidth) and self.bin_halfwidth > 0.0):
            raise ValueError("bin_halfwidth must be > 0")


@dataclass(frozen=True)
class SimulationReport:
    estimated_weak_value: float
    analytic_weak_value: float
    g_used: float
    postselect_probability: float
    residual: float
    bin_halfwidth: float


def _current_density_max(amps: np.ndarray, dx: float) -> float:
    dpsi = np.gradient(amps, dx)
    return float(np.max(np.abs(np.imag(np.conj(amps) * dpsi))))


def pointer_from_components(grid: Grid1D, components) -> PointerState:
    """Build a PointerState from (weight, amplitude-array) pairs.

    Each component is checked for grid-normalization; diagnostics are
    computed but validity (vanishing current density) is only enforced
    when the pointer is used in a simulation.
    """
    dx = grid.spacing
    comps = []
    wsum = 0.0
    mean_x = 0.0
    jmax = 0.0
    x = grid.points()
    for weight, amps in components:
        amps = np.asarray(amps, dtype=complex)
        if amps.size != grid.count:
            raise ValueError("amplitude length must match grid count")
        norm = float(np.sum(np.abs(amps) ** 2) * dx)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"pointer component not normalized (sum |amp|^2 dx = {norm!r})"
            )
        wsum += weight
        mean_x += weight * float(np.sum(x * np.abs(amps) ** 2) * dx)
        jmax = max(jmax, _current_density_max(amps, dx))
        comps.append((float(weight), amps))
    if abs(wsum - 1.0) > NORMALIZATION_TOL:
        raise ValueError("component weights must sum to 1")
    return PointerState(grid, tuple(comps), mean_x, jmax)


def gaussian_pointer(grid: Grid1D, width: float) -> PointerState:
    """Pure real Gaussian pointer with mean 0 and position variance width^2."""
    if width <= 0.0:
        raise ValueError("width must be > 0")
    if grid.min > -6.0 * width or grid.max < 6.0 * width:
        raise ValueError("grid too narrow: must span at least +-6*width")
    x = grid.points()
    amps = (2.0 * math.pi * width * width) ** -0.25 * np.exp(
        -x * x / (4.0 * width * width)
    )
    amps = amps / math.sqrt(np.sum(amps * amps) * grid.spacing)
    return pointer_from_components(grid, [(1.0, amps)])


def thermal_pointer(grid: Grid1D, mean_n: float, scale: float) -> PointerState:
    """Thermal (mixed) pointer: scaled oscillator eigenfunctions with
    geometric weights.

    Component n is psi_n(x/scale)/sqrt(scale), so at mean_n = 0 this is the
    ground-state Gaussian of position variance scale^2/2, i.e. identical to
    gaussian_pointer(width = scale/sqrt(2)).  Truncated weights are
    renormalized to keep the mixture exactly normalized.
    """
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    mix = fock_weights(ThermalState(mean_n), POINTER_TAIL_TOL)
    ncut = mix.truncation
    weights = mix.weights / mix.weights.sum()
    x = grid.points()
    table = hermite_psi_table(ncut, x / scale) / math.sqrt(scale)
    comps = []
    for n in range(ncut + 1):
        amps = table[n].astype(complex)
        norm = float(np.sum(np.abs(amps) ** 2) * grid.spacing)
        # A clipped component shows up as a norm deficit.
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(
                f"grid too narrow for scale={scale}: component n={n} has "
                f"discrete norm {norm!r}"
            )
        amps /= math.sqrt(norm)
        comps.append((float(weights[n]), amps))
    return pointer_from_components(grid, comps)


def default_bin_halfwidth(state: ThermalState) -> float:
    """Default postselection bin half-width: sigma/50."""
    return math.sqrt(state.sigma2) / 50.0


def simulate_weak_p2(
    object_state: ThermalState, pointer: PointerState, cfg: CouplingConfig
) -> SimulationReport:
    """Run the coupled object-pointer protocol and estimate (p^2)_w.

    For each object Fock component: transform to the momentum
    representation, multiply the exact interaction phase
    exp(-i g p^2 k) against the pointer momentum representation,
    transform the object back to position (only the postselection-bin rows
    are needed) and the pointer back to position, and accumulate the
    weighted conditional pointer distribution.

    Domain: every Fock component must fit on OBJECT_GRID, which holds up
    to order 49, i.e. mean_n up to about 1.35; larger occupations are
    refused with a ValueError.
    """
    if pointer.current_density_max >= CURRENT_DENSITY_TOL:
        raise ValueError(
            "invalid pointer: current density "
            f"{pointer.current_density_max:.3e} exceeds {CURRENT_DENSITY_TOL:.0e}"
        )
    sigma = math.sqrt(object_state.sigma2)
    if cfg.bin_halfwidth > sigma / 10.0:
        raise ValueError("bin_halfwidth must be at most sigma/10 of the object")

    grid_span = f"[{OBJECT_GRID.min:g}, {OBJECT_GRID.max:g}]"
    q = OBJECT_GRID.points()
    dq = OBJECT_GRID.spacing
    # Each grid row represents the cell [q_i - dq/2, q_i + dq/2); weight rows
    # by their fractional overlap with the bin so the effective postselection
    # window is centered on postselect_q regardless of grid alignment.
    lo = cfg.postselect_q - cfg.bin_halfwidth
    hi = cfg.postselect_q + cfg.bin_halfwidth
    overlap = np.minimum(q + 0.5 * dq, hi) - np.maximum(q - 0.5 * dq, lo)
    row_weights = np.clip(overlap / dq, 0.0, 1.0)
    bin_rows = np.nonzero(row_weights > 0.0)[0]
    if bin_rows.size == 0:
        raise ValueError(
            f"postselection bin [{lo:.6g}, {hi:.6g}] lies outside the "
            f"object grid {grid_span}"
        )
    row_weights = row_weights[bin_rows]

    mix = fock_weights(object_state)
    psi_table = hermite_psi_table(mix.truncation, q)
    # The transforms are unitary and the interaction phase has unit modulus,
    # so a component clipped by the object grid shows up as a norm deficit.
    norms = np.sum(psi_table * psi_table, axis=1) * dq
    clipped = np.nonzero(np.abs(norms - 1.0) > NORMALIZATION_TOL)[0]
    if clipped.size:
        n = int(clipped[0])
        raise ValueError(
            f"mean_n={object_state.mean_n:g} needs Fock order {mix.truncation}, "
            f"but order {n} is clipped by the object grid {grid_span} "
            f"(discrete norm {float(norms[n])!r})"
        )

    # Pointer momentum representation, once per mixture component.
    xg = pointer.grid
    x = xg.points()
    dx = xg.spacing
    pointer_k = []
    kgrid = None
    for weight, amps in pointer.components:
        phi_k, kgrid = q_to_p_transform(amps, xg)
        pointer_k.append((weight, phi_k))
    k = kgrid.points()
    dk = kgrid.spacing

    # Pointer momentum -> position kernel (needed on bin rows only).
    back_x = np.exp(1.0j * np.outer(k, x)) * (dk / math.sqrt(2.0 * math.pi))
    # Interaction phase on the (p, k) product grid, exact, not perturbative;
    # and the object back-transform restricted to the postselection-bin rows.
    pgrid = OBJECT_GRID.conjugate()
    p = pgrid.points()
    dp = pgrid.spacing
    phase = np.exp(-1.0j * cfg.g * np.outer(p * p, k))
    back_q = np.exp(1.0j * np.outer(q[bin_rows], p)) * (dp / math.sqrt(2.0 * math.pi))

    cond = np.zeros(xg.count)
    for n in range(mix.truncation + 1):
        psi_p, _ = q_to_p_transform(psi_table[n].astype(complex), OBJECT_GRID)
        bin_pk = (back_q * psi_p[None, :]) @ phase  # rows x k
        for weight, phi_k in pointer_k:
            psi_qx = (bin_pk * phi_k[None, :]) @ back_x  # rows x x
            cond += (
                mix.weights[n]
                * weight
                * (row_weights[:, None] * np.abs(psi_qx) ** 2).sum(axis=0)
                * dq
            )

    total_prob = float(np.sum(cond) * dx)
    if total_prob < 1e-12:
        raise ValueError(
            f"insufficient statistics: postselection probability {total_prob:.3e}"
        )
    cond_mean = float(np.sum(x * cond) * dx) / total_prob
    estimated = (cond_mean - pointer.mean_x) / cfg.g
    analytic = p2_weak_closed(object_state, cfg.postselect_q)
    return SimulationReport(
        estimated_weak_value=estimated,
        analytic_weak_value=analytic,
        g_used=cfg.g,
        postselect_probability=total_prob,
        residual=abs(estimated - analytic),
        bin_halfwidth=cfg.bin_halfwidth,
    )


def convergence_sweep(
    object_state: ThermalState,
    pointer: PointerState,
    q: float,
    g_list,
    bin_halfwidth: float | None = None,
):
    """Simulate at a fixed postselection point for decreasing couplings."""
    g_list = [float(g) for g in g_list]
    if any(not 0.0 < g <= 1.0 for g in g_list):
        raise ValueError("all couplings must lie in (0, 1]")
    if any(b >= a for a, b in zip(g_list, g_list[1:])):
        raise ValueError("g_list must be strictly decreasing")
    if bin_halfwidth is None:
        bin_halfwidth = default_bin_halfwidth(object_state)
    return [
        simulate_weak_p2(
            object_state,
            pointer,
            CouplingConfig(g=g, postselect_q=q, bin_halfwidth=bin_halfwidth),
        )
        for g in g_list
    ]
