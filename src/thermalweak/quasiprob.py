"""Standard-ordered distribution S(q,p) for thermal states, its real part
(Margenau-Hill) and complex conjugate (Kirkwood), together with two
independent numerical oracles.

Closed form for a thermal state with quadrature variance sigma2:

    S(q,p) = exp[(-2*sigma2*(p^2+q^2) + 2i*p*q) / (1+4*sigma2^2)]
             / (pi * sqrt(1+4*sigma2^2))

The two oracles recompute S from first principles along unrelated routes
(Fock decomposition of rho; quadrature of the P-distribution against
coherent-state wavefunctions) so that a sign or phase-convention error in
either route cannot go unnoticed.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import TRAPEZOID_LOG_TARGET, Grid1D, hermite_psi_table, integrate
from .numerics import trapezoid_count
from .states import ThermalState, fock_cutoff, geometric_weights

__all__ = [
    "s_closed",
    "margenau_hill",
    "kirkwood",
    "s_oracle_fock",
    "s_oracle_pintegral",
    "eval_grid",
]


def s_closed(state: ThermalState, q, p):
    """Closed-form standard-ordered distribution; vectorized over q, p."""
    s2 = state.sigma2
    denom = 1.0 + 4.0 * s2 * s2
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.exp((-2.0 * s2 * (p * p + q * q) + 2.0j * p * q) / denom)
    out /= math.pi * math.sqrt(denom)
    return complex(out) if out.ndim == 0 else out


def margenau_hill(state: ThermalState, q, p):
    """Margenau-Hill distribution: the real part of S(q,p)."""
    out = np.real(s_closed(state, q, p))
    return float(out) if np.ndim(out) == 0 else out


def kirkwood(state: ThermalState, q, p):
    """Kirkwood distribution: the complex conjugate of S(q,p)."""
    out = np.conj(s_closed(state, q, p))
    return complex(out) if np.ndim(out) == 0 else out


def s_oracle_fock(state: ThermalState, q: float, p: float) -> complex:
    """S(q,p) from the Fock decomposition of the density matrix.

    <q|rho|p> = sum_n rho_n psi_n(q) * conj((-i)^n psi_n(p)) and
    S = conj(<q|rho|p> <p|q>) with <p|q> = exp(-i*p*q)/sqrt(2*pi).
    """
    ncut = fock_cutoff(state)
    n = np.arange(ncut + 1)
    psi_q = hermite_psi_table(ncut, q)[:, 0]
    psi_p = hermite_psi_table(ncut, p)[:, 0]
    rho_qp = np.sum(geometric_weights(state.mean_n, ncut) * psi_q * (1.0j**n) * psi_p)
    braket_pq = np.exp(-1.0j * p * q) / math.sqrt(2.0 * math.pi)
    return complex(np.conj(rho_qp * braket_pq))


def s_oracle_pintegral(state: ThermalState, q: float, p: float) -> complex:
    """S(q,p) from a 2-D quadrature of the P-distribution route.

    Writes S = integral d^2alpha P(alpha) <alpha|q> phi_alpha~(p) <q|p>-type
    phase, with the coherent-state quadrature wavefunction
    <q|alpha> = pi^(-1/4) exp[-q^2/2 + sqrt(2) alpha q - |alpha|^2/2 - alpha^2/2]
    and its (analytic Gaussian) Fourier transform.  The integrand is exp(-c*|alpha-alpha0|^2)
    times a phase of frequency <= max(|2*x0 - sqrt(2)*q|, |2*y0 - sqrt(2)*p|) + 2*half per axis,
    on alpha0 +- half = sqrt(ln(1e16)/c); trapezoid_count puts both error bounds at 1e-16: over
    <n> in [1e-4, 10], |q|, |p| <= 8 that is 25-48 nodes per axis, within 1.4e-16 of s_closed.
    """
    nbar = state.mean_n
    if nbar <= 0.0:
        raise ValueError(
            "P-distribution route requires mean_n > 0 "
            "(the vacuum P-distribution is a point mass)"
        )
    c = 1.0 + 1.0 / nbar
    x0 = q / (math.sqrt(2.0) * c)
    y0 = p / (math.sqrt(2.0) * c)
    half = math.sqrt(TRAPEZOID_LOG_TARGET / c)
    omega = max(abs(2.0 * x0 - math.sqrt(2.0) * q), abs(2.0 * y0 - math.sqrt(2.0) * p))
    count = trapezoid_count(half, omega + 2.0 * half, c)
    xg = Grid1D(x0 - half, x0 + half, count)
    yg = Grid1D(y0 - half, y0 + half, count)
    x = xg.points()[:, None]
    y = yg.points()[None, :]
    expo = (
        math.sqrt(2.0) * (q * x + p * y)
        - c * (x * x + y * y)
        + 1.0j * (2.0 * x * y - math.sqrt(2.0) * (q * y + p * x))
    )
    integrand = np.exp(expo)
    inner = integrate(integrand, yg)  # over y (last axis)
    total = integrate(inner, xg)
    prefac = (
        math.exp(-0.5 * (q * q + p * p))
        * np.exp(1.0j * p * q)
        / (math.pi**1.5 * nbar * math.sqrt(2.0 * math.pi))
    )
    return complex(prefac * total)


def eval_grid(
    state: ThermalState, qgrid: Grid1D, pgrid: Grid1D, which: str = "margenau-hill"
) -> np.ndarray:
    """Dense evaluation of the selected distribution on the product grid.

    ``out[i, j]`` is the value at (qgrid.points()[i], pgrid.points()[j]):
    real for "margenau-hill", complex for "standard-ordered" and "kirkwood".
    """
    labels = ("standard-ordered", "kirkwood", "margenau-hill")
    if which not in labels:
        raise ValueError(f"unknown label {which!r}; expected one of {labels}")
    vals = s_closed(state, qgrid.points()[:, None], pgrid.points()[None, :])
    if which == "kirkwood":
        vals = np.conj(vals)
    elif which == "margenau-hill":
        vals = np.real(vals)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must be finite")
    return vals
