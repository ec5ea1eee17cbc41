"""Postselected weak values for thermal states.

Weak values of p-moments postselected on the quadrature q (conditional
moments on a shifted contour, a whole q grid per call), the energy route,
the negativity threshold and the probability P(negative) of a negative weak
value, by math.erfc or by Gauss-Legendre quadrature of the q-marginal's tails.

Key closed forms (sigma2 = <n> + 1/2 <= MAX_SIGMA2, where 4*sigma2^3 is finite):

    (p^2)_w(q) = (sigma2 + 4*sigma2^3 - q^2) / (4*sigma2^2)
    threshold  = sqrt(sigma2 + 4*sigma2^3)
    P(negative) = erfc(sqrt(1/2 + 2*sigma2^2)), a normal float for <n> < 18.2623
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .numerics import Grid1D, hermite_psi_table, integrate
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

#: Trapezoid grid of the conditional-moment integral: points, and half-width in standard
#: deviations of its Gaussian on the shifted contour.  Not from trapezoid_count: sized for u^8
#: (36 nodes) it is exact to rounding, but moves it (vacuum CSV at q=1: -1.77e-16 -> -3.54e-16).
MOMENT_POINTS = 8001
MOMENT_EXTENT = 16.0

#: Conditioning probability density below which a weak value is refused
#: instead of clamped (the postselection outcome is out of support).
MARGINAL_FLOOR = 1e-300

#: Largest sigma2 of the closed forms: 4*sigma2^3 overflows from ~3.56e102.
MAX_SIGMA2 = 3.5e102

#: P(negative) quadrature: Gauss-Legendre nodes, and decay lengths past the threshold.
TAIL_NODES = 64
TAIL_LENGTHS = 40.0


def _sigma2(state: ThermalState) -> float:
    if state.sigma2 > MAX_SIGMA2:
        raise ValueError(
            f"mean_n={state.mean_n!r}: sigma2 exceeds {MAX_SIGMA2:g}, where 4*sigma2^3 overflows"
        )
    return state.sigma2


def p2_weak_closed(state: ThermalState, q):
    """Closed-form weak value of p^2 postselected on q (inverted parabola)."""
    s2 = _sigma2(state)
    q = np.asarray(q, dtype=float)
    out = (s2 + 4.0 * s2**3 - q * q) / (4.0 * s2 * s2)
    return float(out) if out.ndim == 0 else out


def moment_weak_integral(state: ThermalState, n: int, q):
    """Weak value of p^n as a conditional moment of S(q,p), at scalar or array q.

    Re integral dp p^n S(q,p)/<q|rho|q> on the contour p = u + ib, b = q/(2*sigma2)
    (exact, as S is entire in p), where S/<q|rho|q> = sqrt(2*pi*sigma2)/(pi*sqrt(D))
    * exp(-2*sigma2*u^2/D), D = 1 + 4*sigma2^2.  Re (u+ib)^n = sum_m (-1)^m C(n,2m)
    u^(n-2m) b^(2m) needs only moments of that Gaussian, from one trapezoid
    quadrature for every q: nothing cancels, so the closed form is met to rounding
    at every q in support.  Float for scalar q.  Refuses n > MAX_MOMENT_ORDER,
    sigma2 > MAX_SIGMA2, overflow and the first q of marginal < MARGINAL_FLOOR.
    """
    if not 0 <= n <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT_ORDER}]")
    s2 = _sigma2(state)
    q = np.asarray(q, dtype=float)
    outside = q.ravel()[q_marginal_pdf(state, q.ravel()) < MARGINAL_FLOOR]
    if outside.size:
        raise ValueError(f"postselection point q={outside[0]} is out of support")
    denom = 1.0 + 4.0 * s2 * s2
    half = MOMENT_EXTENT * math.sqrt(denom / (4.0 * s2))
    ugrid = Grid1D(-half, half, MOMENT_POINTS)
    u = ugrid.points()
    powers = u ** np.arange(n, -1, -2)[:, None]
    moments = integrate(powers * np.exp(-2.0 * s2 * u * u / denom), ugrid)
    coeffs = [(-1) ** m * math.comb(n, 2 * m) * mk for m, mk in enumerate(moments)]
    out = np.polyval(coeffs[::-1], (q / (2.0 * s2)) ** 2)
    out *= math.sqrt(2.0 * math.pi * s2) / (math.pi * math.sqrt(denom))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"p^{n} weak value overflows a float at mean_n={state.mean_n!r}")
    return float(out) if out.ndim == 0 else out


def hamiltonian_weak(state: ThermalState, q: float) -> float:
    """Weak value of the free-field Hamiltonian (p^2+q^2)/2 postselected on q.

    Fock route: <q|rho H|q> = sum_n rho_n (n+1/2) psi_n(q)^2; 2*H_w(q) - q^2 = (p^2)_w(q).
    Refuses |q| past 38.604, where the seed pi^(-1/4)*exp(-q^2/2) underflows to zero.
    """
    ncut = postselection_cutoff(state, q)
    psi_q = hermite_psi_table(ncut, q)[:, 0]
    if psi_q[0] == 0.0:
        raise ValueError(f"postselection point q={q} is past the Hermite seed limit 38.604")
    terms = geometric_weights(state.mean_n, ncut) * psi_q * psi_q
    den = float(np.sum(terms))
    if den < MARGINAL_FLOOR:
        raise ValueError(f"postselection point q={q} is out of support")
    num = float(np.sum(terms * (np.arange(ncut + 1) + 0.5)))
    return num / den


def negativity_threshold(state: ThermalState) -> float:
    """|q| beyond which the weak value of p^2 turns negative."""
    s2 = _sigma2(state)
    return math.sqrt(s2 + 4.0 * s2**3)


@functools.cache
def _tail_rule():
    return np.polynomial.legendre.leggauss(TAIL_NODES)


def negativity_probability(state: ThermalState, method: str = "closed") -> float:
    """Probability of postselecting a q where (p^2)_w is negative.

    "closed" is math.erfc(x)*(1 - r), x = sqrt(1/2 + 2*sigma2^2) as rounded and
    r = 1/2 + 2*sigma2^2 - x^2 exact: erfc(sqrt(x^2 + r)) ~ erfc(x)*(1 - r) at large x.
    "quadrature" (no erfc) is twice a TAIL_NODES-point Gauss-Legendre rule of
    q_marginal_pdf over [thr, thr + TAIL_LENGTHS*sigma2/thr], sigma2/thr being the
    tail's decay length.  Both refuse P < sys.float_info.min, i.e. <n> > 18.2623.
    """
    s2 = state.sigma2
    if method == "closed":
        x = math.sqrt(0.5 + 2.0 * s2 * s2)
        prob = math.erfc(x)
        if prob >= sys.float_info.min:
            # r = 2m(m+1) + 1 - x^2 in integers, with m = a/b and x = c/d.
            (a, b), (c, d) = state.mean_n.as_integer_ratio(), x.as_integer_ratio()
            prob *= 1.0 - ((2 * a * (a + b) + b * b) * d * d - (b * c) ** 2) / (b * d) ** 2
    elif method == "quadrature":
        thr = negativity_threshold(state)
        half = 0.5 * TAIL_LENGTHS * s2 / thr
        nodes, weights = _tail_rule()
        prob = 2.0 * half * float(weights @ q_marginal_pdf(state, thr + half * (nodes + 1.0)))
    else:
        raise ValueError(f"unknown method {method!r}; expected 'closed' or 'quadrature'")
    if prob < sys.float_info.min:
        raise ValueError(
            f"mean_n={state.mean_n!r}: P(negative) is below the normal float range "
            "from mean_n ~ 18.2623"
        )
    return prob


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
        values = moment_weak_integral(state, 2, q)
    else:
        raise ValueError(
            f"unknown method {method!r}; expected 'closed-form' or "
            "'conditional-moment-integral'"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("weak values must be finite")
    return values
