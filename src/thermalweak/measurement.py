"""Simulator of the von Neumann weak-measurement protocol.

Object (a single thermal mode) and pointer are coupled through
exp(-i g p^2 (x) P_pointer), the object is postselected in a narrow bin
around a chosen quadrature value, and the conditional pointer position
shift divided by g estimates the weak value of p^2 -- including its
negative values beyond the threshold.

The interaction is applied exactly, not perturbatively: at each pointer
momentum it is free evolution of the object, which carries every Fock
state in closed form (see :func:`simulate_weak_p2`), so only the pointer
lives on a grid and the g-sweep measures the weak-limit error honestly.
Fock components of the object and mixture components of the pointer are
simulated pure-state-wise and their conditional pointer distributions
summed with their weights, which is exact for diagonal mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, hermite_psi_table, p_to_q_transform, q_to_p_transform
from .states import ThermalState, fock_cutoff, geometric_weights, postselection_cutoff
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

#: Gauss-Legendre nodes across the postselection bin.
BIN_NODES = 8

#: Fock orders per block of the simulator's complex stage (bounds memory).
FOCK_BLOCK = 32

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
    """Pure real Gaussian pointer with mean 0 and position variance width^2:
    the ground state of :func:`thermal_pointer` with scale sqrt(2)*width."""
    return thermal_pointer(grid, 0.0, math.sqrt(2.0) * width)


def thermal_pointer(grid: Grid1D, mean_n: float, scale: float) -> PointerState:
    """Thermal (mixed) pointer: scaled oscillator eigenfunctions with
    geometric weights.

    Component n is psi_n(x/scale)/sqrt(scale), so at mean_n = 0 this is the
    ground-state Gaussian of position variance scale^2/2.  A component
    whose discrete norm deviates from 1 by more than 1e-6 (the grid is too
    narrow or too coarse for the scale) is refused; the others are
    renormalized on the grid, and the truncated weights to sum to 1.
    """
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    state = ThermalState(mean_n)
    ncut = fock_cutoff(state, POINTER_TAIL_TOL)
    table = hermite_psi_table(ncut, grid.points() / scale) / math.sqrt(scale)
    weights = geometric_weights(state.mean_n, ncut)
    weights /= weights.sum()
    comps = []
    for n in range(ncut + 1):
        amps = table[n].astype(complex)
        norm = float(np.sum(np.abs(amps) ** 2) * grid.spacing)
        # A component clipped by the grid ends, or one too narrow for its
        # spacing, shows up as a discrete-norm deviation.
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(
                f"grid too narrow or too coarse for scale={scale}: component "
                f"n={n} has discrete norm {norm!r}"
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

    In the pointer-momentum representation the coupling exp(-i g p^2 k) is
    free evolution of the object for the time t = 2 g k, under which a Fock
    state keeps its shape up to a scale, the Gouy phase and a chirp:

        <q|exp(-i g k p^2)|n> = (1+it)^(-1/2) exp(-i n arctan t)
                                * psi_n(q/sqrt(1+t^2)) exp(i t q^2/(2(1+t^2)))

    so the object side is exact and needs no grid.  Each Fock component,
    postselected at the BIN_NODES Gauss-Legendre nodes of the bin, is taken
    back to pointer position with one stacked p_to_q_transform, and the
    weighted conditional pointer distributions are summed.

    The Fock sum runs to states.postselection_cutoff at |q| + bin_halfwidth.
    Domain: that order must not exceed MAX_HERMITE_ORDER (1000), which
    holds up to mean_n = 25 at |q| = 7 and is refused with a ValueError
    from mean_n = 26 there.
    """
    if pointer.current_density_max >= CURRENT_DENSITY_TOL:
        raise ValueError(
            "invalid pointer: current density "
            f"{pointer.current_density_max:.3e} exceeds {CURRENT_DENSITY_TOL:.0e}"
        )
    sigma = math.sqrt(object_state.sigma2)
    h = cfg.bin_halfwidth
    if h > sigma / 10.0:
        raise ValueError("bin_halfwidth must be at most sigma/10 of the object")

    nodes, node_weights = np.polynomial.legendre.leggauss(BIN_NODES)
    qb = cfg.postselect_q + h * nodes
    wb = h * node_weights
    ncut = postselection_cutoff(object_state, abs(cfg.postselect_q) + h)

    # Pointer momentum representation, once per mixture component, taken
    # about the grid centre: p_to_q_transform returns to the zero-centred
    # conjugate grid, which is then the pointer grid shifted by its centre.
    xg = pointer.grid
    centre = 0.5 * (xg.min + xg.max)
    pointer_k = []
    for weight, amps in pointer.components:
        phi_k, kgrid = q_to_p_transform(amps, xg)
        pointer_k.append((weight, phi_k * np.exp(1j * centre * kgrid.points())))
    t = 2.0 * cfg.g * kgrid.points()
    stretch = 1.0 + t * t

    # Object amplitudes at the bin nodes (rows) for every pointer momentum.
    table = hermite_psi_table(ncut, np.ravel(qb[:, None] / np.sqrt(stretch)))
    table = table.reshape(ncut + 1, BIN_NODES, kgrid.count)
    weights = geometric_weights(object_state.mean_n, ncut)
    chirp = np.exp(0.5j * t * qb[:, None] ** 2 / stretch) / np.sqrt(1.0 + 1.0j * t)
    gouy = np.arctan(t)

    cond = np.zeros(xg.count)
    for first in range(0, ncut + 1, FOCK_BLOCK):
        n = np.arange(first, min(first + FOCK_BLOCK, ncut + 1))
        amps = table[n] * chirp * np.exp(-1j * n[:, None, None] * gouy)
        rows = weights[n, None] * wb
        for weight, phi_k in pointer_k:
            psi_x, _ = p_to_q_transform(amps * phi_k, kgrid)
            cond += weight * np.einsum("nj,njx->x", rows, np.abs(psi_x) ** 2)

    x, dx = xg.points(), xg.spacing
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
