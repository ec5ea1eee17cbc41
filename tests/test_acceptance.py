"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``)."""

import math
import time

import mpmath
import numpy as np
import pytest

from thermalweak import (
    Grid1D,
    classical_weak_value_p2,
    convergence_sweep,
    default_bin_halfwidth,
    eval_grid,
    gaussian_pointer,
    hamiltonian_weak,
    moment_weak_integral,
    negativity_probability,
    negativity_threshold,
    occupation_number,
    p2_weak_closed,
    pointer_from_components,
    s_closed,
    s_oracle_fock,
    s_oracle_pintegral,
    simulate_weak_p2,
    thermal_pointer,
    wien_peak_occupation,
    BlackbodyMode,
    CouplingConfig,
    ThermalState,
)
from thermalweak.measurement import DEFAULT_POINTER_GRID

from test_quasiprob import diagonal_minimum
from test_states import wien_x


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def pointer():
    return gaussian_pointer(DEFAULT_POINTER_GRID, 10.0)


def test_criterion_01_closed_form_vs_both_oracles():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_fock = worst_pint = 0.0
    for _ in range(100):
        state = ThermalState(rng.uniform(1e-3, 2.0))
        q, p = rng.uniform(-5.0, 5.0, size=2)
        ref = s_closed(state, q, p)
        worst_fock = max(worst_fock, abs(ref - s_oracle_fock(state, q, p)))
        worst_pint = max(worst_pint, abs(ref - s_oracle_pintegral(state, q, p)))
    elapsed = time.perf_counter() - start
    ok = worst_fock < 1e-8 and worst_pint < 1e-6 and elapsed < 10.0
    report(
        1,
        "closed form vs Fock and P-integral oracles",
        ok,
        f"fock={worst_fock:.2e} pint={worst_pint:.2e} time={elapsed:.1f}s",
    )


def test_criterion_02_fig1_negative_regions():
    grid = Grid1D(-4.0, 4.0, 481)
    state = ThermalState(0.01)
    grid_min = eval_grid(state, grid, grid, "margenau-hill").min()
    oracle_min = diagonal_minimum(state)
    vacuum_min = diagonal_minimum(ThermalState(0.0))
    ok = (
        grid_min < 0.0
        and abs(grid_min - oracle_min) < 5e-4
        and abs(vacuum_min - (-0.0151)) < 5e-4
    )
    report(
        2,
        "small-occupation distribution has distinctly negative regions",
        ok,
        f"grid_min={grid_min:.6f} oracle={oracle_min:.6f} vacuum={vacuum_min:.6f}",
    )


def test_criterion_03_fig2_negativity_practically_gone():
    grid = Grid1D(-6.0, 6.0, 601)
    grid_min = eval_grid(ThermalState(1.0), grid, grid, "margenau-hill").min()
    # The exact minimum is -1.0891e-4 (diagonal minimization), so the 1e-4
    # bound is missed by ~9%; kept as stated rather than loosened.
    ok = abs(grid_min) < 1e-4
    report(
        3,
        "occupation-one distribution minimum magnitude below 1e-4",
        ok,
        f"grid_min={grid_min:.6e}",
    )


def test_criterion_04_conditional_moment_vs_closed_form():
    worst = 0.0
    for nbar in (0.0, 0.01, 0.3, 1.0):
        state = ThermalState(nbar)
        for q in np.linspace(-5.0, 5.0, 41):
            worst = max(
                worst, abs(moment_weak_integral(state, 2, q) - p2_weak_closed(state, q))
            )
    ok = worst < 1e-8
    report(4, "conditional-moment integral equals closed form", ok, f"max_err={worst:.2e}")


def test_criterion_05_fig3_negativity_probability_curve():
    mpmath.mp.dps = 30
    worst_closed = worst_quad = 0.0
    values = []
    for nbar in np.linspace(0.0, 1.0, 50):
        state = ThermalState(nbar)
        closed = negativity_probability(state, "closed")
        values.append(closed)
        oracle = float(mpmath.erfc(mpmath.sqrt(0.5 + 2.0 * state.sigma2**2)))
        worst_closed = max(worst_closed, abs(closed - oracle))
        worst_quad = max(
            worst_quad, abs(closed - negativity_probability(state, "quadrature"))
        )
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    # P(1) = erfc(sqrt(1/2 + 2*sigma^4)) = erfc(sqrt(5)) with sigma^2 = 1.5.
    p1_oracle = float(mpmath.erfc(mpmath.sqrt(5)))
    endpoints_ok = (
        abs(values[0] - 0.1573) < 1e-4 and abs(values[-1] - p1_oracle) < 1e-9
    )
    ok = worst_closed < 1e-9 and worst_quad < 1e-9 and decreasing and endpoints_ok
    report(
        5,
        "negativity-probability curve",
        ok,
        f"vs_erfc={worst_closed:.2e} vs_quad={worst_quad:.2e} "
        f"P(0)={values[0]:.4f} P(1)={values[-1]:.2e} decreasing={decreasing}",
    )


def test_criterion_06_energy_route_identity():
    worst = 0.0
    for nbar in (0.0, 0.01, 0.3, 1.0):
        state = ThermalState(nbar)
        for q in np.linspace(-5.0, 5.0, 41):
            worst = max(
                worst,
                abs(2.0 * hamiltonian_weak(state, q) - q * q - p2_weak_closed(state, q)),
            )
    ok = worst < 1e-8
    report(6, "energy-route weak-value identity", ok, f"max_err={worst:.2e}")


def test_criterion_07_simulator_convergence(pointer):
    start = time.perf_counter()
    vac = ThermalState(0.0)
    reports = convergence_sweep(vac, pointer, 2.0, [0.2, 0.1, 0.05, 0.01])
    elapsed = time.perf_counter() - start
    residuals = [r.residual for r in reports]
    final = reports[-1]
    ok = (
        final.residual < 0.05 * 3.0
        and all(b < a for a, b in zip(residuals, residuals[1:]))
        and elapsed < 60.0
    )
    report(
        7,
        "weak-measurement simulator converges to -3 for vacuum at q=2",
        ok,
        f"estimate={final.estimated_weak_value:.4f} "
        f"residuals={[f'{r:.1e}' for r in residuals]} time={elapsed:.1f}s",
    )


def test_criterion_08_nonclassical_sign_gap(pointer):
    state = ThermalState(0.01)
    q = 1.2 * negativity_threshold(state)
    cfg = CouplingConfig(g=0.01, postselect_q=q, bin_halfwidth=default_bin_halfwidth(state))
    rep = simulate_weak_p2(state, pointer, cfg)
    classical = classical_weak_value_p2(state, q)
    ok = rep.estimated_weak_value < 0.0 < classical and abs(classical - 0.51) < 1e-12
    report(
        8,
        "simulated pointer shift negative where the classical bound is +0.51",
        ok,
        f"simulated={rep.estimated_weak_value:.4f} classical={classical}",
    )


def test_criterion_09_pointer_independence(pointer):
    thermal_ptr = thermal_pointer(DEFAULT_POINTER_GRID, 0.3, 10.0)
    points = []
    for nbar, q in ((0.0, 2.0), (0.01, 1.2 * negativity_threshold(ThermalState(0.01))), (0.3, 2.5)):
        state = ThermalState(nbar)
        cfg = CouplingConfig(g=0.01, postselect_q=q, bin_halfwidth=default_bin_halfwidth(state))
        a = simulate_weak_p2(state, pointer, cfg).estimated_weak_value
        b = simulate_weak_p2(state, thermal_ptr, cfg).estimated_weak_value
        rel = abs(a - b) / abs(p2_weak_closed(state, q))
        points.append(rel)
    x = DEFAULT_POINTER_GRID.points()
    boosted = pointer_from_components(
        DEFAULT_POINTER_GRID, [(1.0, pointer.components[0][1] * np.exp(0.5j * x))]
    )
    vac = ThermalState(0.0)
    cfg = CouplingConfig(g=0.01, postselect_q=2.0, bin_halfwidth=default_bin_halfwidth(vac))
    rejected = False
    try:
        simulate_weak_p2(vac, boosted, cfg)
    except ValueError:
        rejected = True
    ok = all(r < 0.05 for r in points) and rejected
    report(
        9,
        "gaussian/thermal pointer agreement and boosted-pointer rejection",
        ok,
        f"rel_diffs={[f'{r:.1e}' for r in points]} boosted_rejected={rejected}",
    )


def test_criterion_10_blackbody_numbers():
    wl = wien_peak_occupation("wavelength-peak")
    fr = wien_peak_occupation("frequency-peak")
    wl_oracle = 1.0 / math.expm1(wien_x(5.0))
    fr_oracle = 1.0 / math.expm1(wien_x(3.0))
    micro = occupation_number(BlackbodyMode(2.0 * math.pi * 1e5, 1e-6))
    ok = (
        abs(wl - wl_oracle) / wl_oracle < 1e-4
        and abs(fr - fr_oracle) / fr_oracle < 1e-4
        and abs(wl - 7.0e-3) / 7.0e-3 < 0.01
        and abs(fr - 6.3e-2) / 6.3e-2 < 0.01
        and 1e-3 < wl < 1e-1
        and 1e-3 < fr < 1e-1
        and 1e-3 < micro < 1e-1
    )
    report(
        10,
        "Wien-peak and microkelvin-oscillator occupation numbers",
        ok,
        f"wavelength={wl:.4e} frequency={fr:.4e} microkelvin={micro:.4e}",
    )
