"""Thermal-state model: parameterization, Fock weights, quadrature marginal
and blackbody occupation numbers."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HBAR",
    "K_BOLTZMANN",
    "ThermalState",
    "FockMixture",
    "BlackbodyMode",
    "thermal_from_mean_n",
    "occupation_number",
    "wien_peak_occupation",
    "geometric_weights",
    "fock_weights",
    "postselection_cutoff",
    "q_marginal_pdf",
]

# CODATA 2018 / SI 2019 exact values, J*s and J/K.
HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23

#: Weight-based Fock truncation of routes postselected on a quadrature
#: value, before :func:`postselection_cutoff` extends it.
POSTSELECTION_TAIL_TOL = 1e-16


@dataclass(frozen=True)
class ThermalState:
    """Single-mode thermal state parameterized by the mean photon number.

    The quadrature variance is tied to it exactly: sigma2 = mean_n + 1/2.
    """

    mean_n: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_n) and self.mean_n >= 0.0):
            raise ValueError("mean_n must be finite and >= 0")

    @property
    def sigma2(self) -> float:
        return self.mean_n + 0.5


@dataclass(frozen=True)
class FockMixture:
    """Diagonal Fock-basis weights rho_n for n = 0..truncation."""

    weights: np.ndarray
    truncation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.size != self.truncation + 1:
            raise ValueError("weights length must be truncation + 1")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class BlackbodyMode:
    """A single field mode in a blackbody environment (SI units)."""

    angular_frequency: float  # rad/s
    temperature: float  # K

    def __post_init__(self) -> None:
        for name in ("angular_frequency", "temperature"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0")


def thermal_from_mean_n(mean_n: float) -> ThermalState:
    """Thermal state with given mean occupation number."""
    return ThermalState(float(mean_n))


def occupation_number(mode: BlackbodyMode) -> float:
    """Planck occupation 1/(exp(hbar*omega/(k*T)) - 1).

    In the deep overflow regime (hbar*omega/kT > 700) the result underflows
    to 0.0 and a RuntimeWarning is issued.
    """
    x = HBAR * mode.angular_frequency / (K_BOLTZMANN * mode.temperature)
    if x > 700.0:
        warnings.warn(
            "occupation number underflows to 0 (hbar*omega/kT > 700)",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return 1.0 / math.expm1(x)


_WIEN_COEFF = {"wavelength-peak": 5.0, "frequency-peak": 3.0}


def wien_peak_occupation(convention: str = "wavelength-peak") -> float:
    """Occupation number at the Planck-spectrum peak (Wien displacement).

    The peak condition is x = c*(1 - exp(-x)) with x = hbar*omega/kT and
    c = 5 (wavelength form) or c = 3 (frequency form); the result is
    independent of temperature.
    """
    try:
        c = _WIEN_COEFF[convention]
    except KeyError:
        raise ValueError(
            f"unknown Wien convention {convention!r}; "
            f"expected one of {sorted(_WIEN_COEFF)}"
        ) from None
    # Newton iteration on f(x) = x - c*(1 - exp(-x)), started right of the
    # trivial root x = 0.
    x = c
    for _ in range(60):
        ex = math.exp(-x)
        step = (x - c * (1.0 - ex)) / (1.0 - c * ex)
        x -= step
        if abs(step) < 1e-15:
            break
    return 1.0 / math.expm1(x)


def geometric_weights(mean_n: float, nmax: int) -> np.ndarray:
    """Thermal Fock weights rho_n = <n>^n / (1+<n>)^(n+1) for n = 0..nmax."""
    ratio = mean_n / (1.0 + mean_n)
    return ratio ** np.arange(nmax + 1) / (1.0 + mean_n)


def fock_weights(state: ThermalState, tail_tol: float = 1e-12) -> FockMixture:
    """Geometric Fock weights, truncated at the order N where the discarded
    tail (<n>/(1+<n>))^(N+1) is at most tail_tol."""
    if not (0.0 < tail_tol <= 1e-3):
        raise ValueError("tail_tol must lie in (0, 1e-3]")
    nbar = state.mean_n
    if nbar == 0.0:
        return FockMixture(np.array([1.0]), 0)
    ratio = nbar / (1.0 + nbar)
    ncut = max(0, math.ceil(math.log(tail_tol) / math.log(ratio)) - 1)
    return FockMixture(geometric_weights(nbar, ncut), ncut)


def postselection_cutoff(state: ThermalState, q: float) -> int:
    """Fock order up to which a route postselected at |q| sums.

    The weight-based truncation at POSTSELECTION_TAIL_TOL alone would lose
    relative accuracy at large |q|: there the low-n eigenfunctions are
    exponentially suppressed while those near the classical turning point
    n ~ q^2/2 are not, and they dominate the small conditioning density.
    So the cutoff is extended past that turning point (the vacuum has a
    single component and needs none).
    """
    ncut = fock_weights(state, POSTSELECTION_TAIL_TOL).truncation
    if state.mean_n > 0.0:
        ncut += math.ceil(0.5 * q * q) + 10
    return ncut


def q_marginal_pdf(state: ThermalState, q):
    """Gaussian quadrature marginal <q|rho|q> with variance sigma2."""
    s2 = state.sigma2
    q = np.asarray(q, dtype=float)
    out = np.exp(-q * q / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    return float(out) if out.ndim == 0 else out
