"""Numerical substrate: oscillator eigenfunctions, quadrature and the
discrete position <-> momentum transform.

Conventions (used throughout the package): hbar = 1, unit mass and
frequency, so [q, p] = i, the oscillator Hamiltonian is (p^2 + q^2)/2 and
the momentum representation of a wavefunction is

    psi~(p) = (2*pi)**-0.5 * integral psi(q) exp(-i*p*q) dq,

i.e. <q|p> = exp(i*p*q)/sqrt(2*pi).  With this choice the Fock state |n>
transforms as <p|n> = (-i)**n psi_n(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_HERMITE_ORDER",
    "Grid1D",
    "hermite_psi",
    "hermite_psi_table",
    "integrate",
    "q_to_p_transform",
    "p_to_q_transform",
]

#: Guard against silent loss of accuracy in the recurrence.
MAX_HERMITE_ORDER = 1000


@dataclass(frozen=True)
class Grid1D:
    """Uniform sample grid on [min, max] with ``count`` points."""

    min: float
    max: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("grid bounds must be finite")
        if self.max <= self.min:
            raise ValueError("grid requires max > min")
        if self.count < 2:
            raise ValueError("grid requires count >= 2")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)

    def conjugate(self) -> "Grid1D":
        """Fourier-conjugate grid, zero-centered, with dp*dq = 2*pi/count."""
        dp = 2.0 * math.pi / (self.count * self.spacing)
        half = 0.5 * (self.count - 1) * dp
        return Grid1D(-half, half, self.count)


def hermite_psi(n: int, q):
    """Normalized harmonic-oscillator eigenfunction psi_n(q): row n of
    :func:`hermite_psi_table`.  Accepts scalar or array q."""
    q_arr = np.asarray(q, dtype=float)
    psi = hermite_psi_table(n, q_arr.ravel())[n].reshape(q_arr.shape)
    return psi if np.ndim(q) else float(psi)


def hermite_psi_table(nmax: int, q) -> np.ndarray:
    """All psi_n(q) for n = 0..nmax, shape (nmax+1, len(q)).

    Evaluated with the stable two-term recurrence on the *functions*
    (never Hermite polynomial times Gaussian), so it is usable up to
    large n without overflow.
    """
    if nmax < 0 or nmax > MAX_HERMITE_ORDER:
        raise ValueError(f"unsupported order nmax={nmax} (guard: {MAX_HERMITE_ORDER})")
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q_arr)):
        raise ValueError("q must be finite")
    table = np.empty((nmax + 1, q_arr.size))
    table[0] = np.pi ** -0.25 * np.exp(-0.5 * q_arr * q_arr)
    if nmax >= 1:
        table[1] = math.sqrt(2.0) * q_arr * table[0]
    for k in range(2, nmax + 1):
        table[k] = math.sqrt(2.0 / k) * q_arr * table[k - 1] - math.sqrt(
            (k - 1) / k
        ) * table[k - 2]
    return table


def integrate(samples, grid: Grid1D):
    """Trapezoid integral of sampled values over the grid interval."""
    samples = np.asarray(samples)
    if samples.shape[-1] != grid.count:
        raise ValueError(
            f"sample length {samples.shape[-1]} does not match grid count {grid.count}"
        )
    return np.trapezoid(samples, dx=grid.spacing, axis=-1)


def _check_field(field, grid: Grid1D) -> np.ndarray:
    field = np.asarray(field, dtype=complex)
    if field.ndim == 0 or field.shape[-1] != grid.count:
        raise ValueError(
            f"field shape {field.shape} does not match grid count {grid.count} "
            "on its last axis"
        )
    return field


def q_to_p_transform(field, grid: Grid1D):
    """Continuum Fourier transform psi(q) -> psi~(p) on the conjugate grid.

    Implemented as a phase-factored FFT of the Riemann sum
    psi~(p_j) = dq/sqrt(2*pi) * sum_k psi(q_k) exp(-i p_j q_k).
    Because dp*dq = 2*pi/N the discrete map is exactly unitary:
    sum |psi~|^2 dp = sum |psi|^2 dq and the round trip is exact.
    The transform acts on the last axis, so a stack of fields (shape
    (..., grid.count)) is transformed row by row in one call.
    """
    field = _check_field(field, grid)
    pgrid = grid.conjugate()
    n = grid.count
    dq, dp = grid.spacing, pgrid.spacing
    q = grid.points()
    j = np.arange(n)
    pre = field * np.exp(-1j * pgrid.min * q)
    out = np.fft.fft(pre)
    out *= dq / math.sqrt(2.0 * math.pi) * np.exp(-1j * j * dp * grid.min)
    return out, pgrid


def p_to_q_transform(field, pgrid: Grid1D):
    """Inverse of :func:`q_to_p_transform` (kernel exp(+i*q*p)), also
    acting on the last axis."""
    field = _check_field(field, pgrid)
    qgrid = pgrid.conjugate()
    n = pgrid.count
    dp, dq = pgrid.spacing, qgrid.spacing
    p = pgrid.points()
    k = np.arange(n)
    pre = field * np.exp(1j * qgrid.min * p)
    out = n * np.fft.ifft(pre)
    out *= dp / math.sqrt(2.0 * math.pi) * np.exp(1j * k * dq * pgrid.min)
    return out, qgrid
