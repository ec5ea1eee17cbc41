"""Postselected weak values for thermal states.

Weak values of p-moments postselected on the quadrature q, the
energy-based alternative route, the negativity threshold and the
probability of observing a negative weak value.

Key closed forms (sigma2 = <n> + 1/2):

    (p^2)_w(q) = (sigma2 + 4*sigma2^3 - q^2) / (4*sigma2^2)
    threshold  = sqrt(sigma2 + 4*sigma2^3)
    P(negative) = erfc(sqrt(1/2 + 2*sigma2^2))
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from .numerics import Grid1D, hermite_psi_table, integrate
from .quasiprob import s_closed
from .states import (
    ThermalState,
    geometric_weights,
    postselection_cutoff,
    q_marginal_pdf,
)

__all__ = [
    "p2_weak_closed",
    "p2_weak_curve",
    "moment_weak_integral",
    "hamiltonian_weak",
    "negativity_threshold",
    "negativity_probability",
    "classical_weak_value_p2",
]

MAX_MOMENT_ORDER = 8

#: Trapezoid grid of the conditional-moment integral: points, and half-width
#: in standard deviations of the p-marginal.
MOMENT_POINTS = 8001
MOMENT_EXTENT = 16.0

#: Conditioning probability density below which a weak value is refused
#: instead of clamped (the postselection outcome is out of support).
MARGINAL_FLOOR = 1e-300


def p2_weak_closed(state: ThermalState, q):
    """Closed-form weak value of p^2 postselected on q (inverted parabola)."""
    s2 = state.sigma2
    q = np.asarray(q, dtype=float)
    out = (s2 + 4.0 * s2**3 - q * q) / (4.0 * s2 * s2)
    return float(out) if out.ndim == 0 else out


def moment_weak_integral(state: ThermalState, n: int, q: float) -> float:
    """Weak value of p^n as a conditional moment of S(q,p).

    Evaluates integral dp p^n S(q,p) / <q|rho|q> by trapezoid quadrature of
    the closed-form S and returns the real part.
    """
    if not 0 <= n <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT_ORDER}]")
    marg = q_marginal_pdf(state, q)
    if marg < MARGINAL_FLOOR:
        raise ValueError(
            f"postselection point q={q} is out of support "
            f"(marginal < {MARGINAL_FLOOR})"
        )
    s2 = state.sigma2
    p_std = math.sqrt((1.0 + 4.0 * s2 * s2) / (4.0 * s2))
    pgrid = Grid1D(-MOMENT_EXTENT * p_std, MOMENT_EXTENT * p_std, MOMENT_POINTS)
    p = pgrid.points()
    vals = p**n * s_closed(state, q, p)
    return float(np.real(integrate(vals, pgrid))) / marg


def hamiltonian_weak(state: ThermalState, q: float) -> float:
    """Weak value of the free-field Hamiltonian (p^2+q^2)/2 postselected on q.

    Fock route: <q|rho H|q> = sum_n rho_n (n+1/2) psi_n(q)^2.  Satisfies
    2*H_w(q) - q^2 = (p^2)_w(q).
    """
    ncut = postselection_cutoff(state, q)
    psi_q = hermite_psi_table(ncut, q)[:, 0]
    terms = geometric_weights(state.mean_n, ncut) * psi_q * psi_q
    den = float(np.sum(terms))
    if den < MARGINAL_FLOOR:
        raise ValueError(f"postselection point q={q} is out of support")
    num = float(np.sum(terms * (np.arange(ncut + 1) + 0.5)))
    return num / den


def negativity_threshold(state: ThermalState) -> float:
    """|q| beyond which the weak value of p^2 turns negative."""
    s2 = state.sigma2
    return math.sqrt(s2 + 4.0 * s2**3)


def negativity_probability(state: ThermalState, method: str = "closed") -> float:
    """Probability of postselecting a q where (p^2)_w is negative.

    "closed" evaluates erfc(sqrt(1/2 + 2*sigma2^2)); "quadrature"
    integrates the two Gaussian tails of the q-marginal beyond the
    threshold.
    """
    s2 = state.sigma2
    if method == "closed":
        return float(erfc(math.sqrt(0.5 + 2.0 * s2 * s2)))
    if method == "quadrature":
        thr = negativity_threshold(state)
        tail, _ = quad(lambda x: q_marginal_pdf(state, x), thr, np.inf)
        return 2.0 * tail
    raise ValueError(f"unknown method {method!r}; expected 'closed' or 'quadrature'")


def classical_weak_value_p2(state: ThermalState, q) -> float:
    """Conditional expectation E[p^2 | q] in the classical stochastic-field
    model (independent zero-mean Gaussian quadratures of variance sigma2).

    Independent quadratures make the conditioning irrelevant: the result is
    sigma2 for every q, and in particular always positive.
    """
    if not np.all(np.isfinite(np.asarray(q, dtype=float))):
        raise ValueError("q must be finite")
    return state.sigma2


def p2_weak_curve(
    state: ThermalState, qgrid: Grid1D, method: str = "closed-form"
) -> np.ndarray:
    """Weak value of p^2 at each point of a q grid, by the named method."""
    q = qgrid.points()
    if method == "closed-form":
        values = p2_weak_closed(state, q)
    elif method == "conditional-moment-integral":
        values = np.array([moment_weak_integral(state, 2, qi) for qi in q])
    else:
        raise ValueError(
            f"unknown method {method!r}; expected 'closed-form' or "
            "'conditional-moment-integral'"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("weak values must be finite")
    return values
