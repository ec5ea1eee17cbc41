import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from thermalweak import (
    CouplingConfig,
    Grid1D,
    classical_weak_value_p2,
    convergence_sweep,
    default_bin_halfwidth,
    gaussian_pointer,
    negativity_threshold,
    p2_weak_closed,
    pointer_from_components,
    simulate_weak_p2,
    thermal_from_mean_n,
    thermal_pointer,
)
from thermalweak.measurement import DEFAULT_POINTER_GRID


@pytest.fixture(scope="module")
def wide_pointer():
    return gaussian_pointer(DEFAULT_POINTER_GRID, 10.0)


class TestGaussianPointer:
    def test_construction(self, wide_pointer):
        grid = wide_pointer.grid
        w, amps = wide_pointer.components[0]
        assert w == 1.0
        assert np.sum(np.abs(amps) ** 2) * grid.spacing == pytest.approx(1.0, abs=1e-12)
        assert wide_pointer.mean_x == pytest.approx(0.0, abs=1e-12)

    def test_position_variance(self, wide_pointer):
        grid = wide_pointer.grid
        x = grid.points()
        _, amps = wide_pointer.components[0]
        var = np.sum(x * x * np.abs(amps) ** 2) * grid.spacing
        assert var == pytest.approx(100.0, abs=1e-6)

    def test_zero_current_density(self, wide_pointer):
        assert wide_pointer.current_density_max < 1e-12

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError, match="too narrow"):
            gaussian_pointer(Grid1D(-20.0, 20.0, 257), 10.0)


class TestThermalPointer:
    def test_ground_state_matches_gaussian(self):
        # At mean_n = 0 the thermal pointer is the ground-state Gaussian of
        # width scale/sqrt(2).
        scale = 10.0
        tp = thermal_pointer(DEFAULT_POINTER_GRID, 0.0, scale)
        gp = gaussian_pointer(DEFAULT_POINTER_GRID, scale / math.sqrt(2.0))
        assert len(tp.components) == 1
        np.testing.assert_allclose(
            np.abs(tp.components[0][1]), np.abs(gp.components[0][1]), atol=1e-12
        )

    def test_mean_n_one_mixture(self):
        tp = thermal_pointer(DEFAULT_POINTER_GRID, 1.0, 7.0)
        weights = np.array([w for w, _ in tp.components])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # Geometric weights: the three leading components carry ~7/8.
        assert weights[:3].sum() > 0.85
        for _, amps in tp.components:
            assert np.sum(np.abs(amps) ** 2) * tp.grid.spacing == pytest.approx(
                1.0, abs=1e-12
            )

    def test_vanishing_current_density(self):
        tp = thermal_pointer(DEFAULT_POINTER_GRID, 0.5, 8.0)
        assert tp.current_density_max < 1e-12

    def test_grid_too_narrow(self):
        with pytest.raises(ValueError, match="too narrow"):
            thermal_pointer(DEFAULT_POINTER_GRID, 1.0, 25.0)


class TestCouplingConfig:
    @pytest.mark.parametrize("g", [0.0, -0.1, 1.5, math.nan])
    def test_invalid_coupling(self, g):
        with pytest.raises(ValueError):
            CouplingConfig(g=g, postselect_q=0.0, bin_halfwidth=0.01)

    def test_invalid_bin(self):
        with pytest.raises(ValueError):
            CouplingConfig(g=0.1, postselect_q=0.0, bin_halfwidth=0.0)


class TestSimulateWeakP2:
    def test_vacuum_at_origin(self, wide_pointer):
        vac = thermal_from_mean_n(0.0)
        cfg = CouplingConfig(0.01, 0.0, default_bin_halfwidth(vac))
        rep = simulate_weak_p2(vac, wide_pointer, cfg)
        assert rep.estimated_weak_value == pytest.approx(1.0, rel=0.02)
        assert 0.0 < rep.postselect_probability <= 1.0

    def test_negative_weak_value_beyond_threshold(self, wide_pointer):
        st = thermal_from_mean_n(0.01)
        q = 1.2 * negativity_threshold(st)
        cfg = CouplingConfig(0.01, q, default_bin_halfwidth(st))
        rep = simulate_weak_p2(st, wide_pointer, cfg)
        assert rep.estimated_weak_value < 0.0
        assert rep.residual < 0.05 * abs(rep.analytic_weak_value)
        # The classical bound can never go negative at the same point.
        assert classical_weak_value_p2(st, q) > 0.0

    def test_boosted_pointer_rejected(self, wide_pointer):
        x = DEFAULT_POINTER_GRID.points()
        boosted = pointer_from_components(
            DEFAULT_POINTER_GRID,
            [(1.0, wide_pointer.components[0][1] * np.exp(0.5j * x))],
        )
        assert boosted.current_density_max > 1e-10
        vac = thermal_from_mean_n(0.0)
        cfg = CouplingConfig(0.01, 0.0, default_bin_halfwidth(vac))
        with pytest.raises(ValueError, match="invalid pointer"):
            simulate_weak_p2(vac, boosted, cfg)

    def test_insufficient_statistics(self, wide_pointer):
        vac = thermal_from_mean_n(0.0)
        cfg = CouplingConfig(0.01, 11.0, default_bin_halfwidth(vac))
        with pytest.raises(ValueError, match="insufficient statistics"):
            simulate_weak_p2(vac, wide_pointer, cfg)

    def test_bin_too_wide(self, wide_pointer):
        vac = thermal_from_mean_n(0.0)
        cfg = CouplingConfig(0.01, 0.0, 0.2)  # > sigma/10
        with pytest.raises(ValueError, match="sigma/10"):
            simulate_weak_p2(vac, wide_pointer, cfg)

    @pytest.mark.parametrize("nbar, q", [(1.5, 2.0), (2.0, 3.0)])
    def test_large_occupation_matches_parabola(self, wide_pointer, nbar, q):
        # These occupations sum Fock orders up to 85 and 105.
        st = thermal_from_mean_n(nbar)
        cfg = CouplingConfig(0.01, q, default_bin_halfwidth(st))
        rep = simulate_weak_p2(st, wide_pointer, cfg)
        assert rep.residual < 1e-3

    def test_off_centre_pointer_grid(self, wide_pointer):
        st = thermal_from_mean_n(0.3)
        cfg = CouplingConfig(0.01, 2.5, default_bin_halfwidth(st))
        shifted = gaussian_pointer(Grid1D(-70.3, 99.7, 1089), 10.0)
        a = simulate_weak_p2(st, wide_pointer, cfg).estimated_weak_value
        b = simulate_weak_p2(st, shifted, cfg).estimated_weak_value
        assert b == pytest.approx(a, abs=1e-9)

    def test_answers_below_object_grid_limit(self, wide_pointer):
        # mean_n = 1.3 needs Fock order 48, which still fits the object grid.
        st = thermal_from_mean_n(1.3)
        cfg = CouplingConfig(0.01, 2.0, default_bin_halfwidth(st))
        rep = simulate_weak_p2(st, wide_pointer, cfg)
        assert rep.residual < 0.05 * abs(rep.analytic_weak_value)


def bin_average_p2(nbar, q, h):
    """(p^2)_w averaged over [q-h, q+h] with the Gaussian q-marginal as
    weight, from the truncated-Gaussian moments (standard library only)."""
    s2 = nbar + 0.5
    c = math.sqrt(2.0 * s2)
    # The average is even in q; on the positive side the erfc difference
    # keeps its relative accuracy in the tail.
    lo, hi = abs(q) - h, abs(q) + h
    mass = 0.5 * (math.erfc(lo / c) - math.erfc(hi / c))
    pdf = lambda x: math.exp(-x * x / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    q2 = s2 - s2 * (hi * pdf(hi) - lo * pdf(lo)) / mass
    return (s2 + 4.0 * s2**3 - q2) / (4.0 * s2 * s2)


def richardson(state, pointer, q):
    """One Richardson step on the weak-limit bias, which is of order g^2."""
    h = default_bin_halfwidth(state)
    est = [
        simulate_weak_p2(state, pointer, CouplingConfig(g, q, h)).estimated_weak_value
        for g in (0.01, 0.005)
    ]
    return (4.0 * est[1] - est[0]) / 3.0


def oracle_tol(nbar, q):
    s2 = nbar + 0.5
    return 1e-8 * (s2 + 4.0 * s2**3 + q * q) / (4.0 * s2 * s2)


class TestBinAverageOracle:
    """The extrapolated simulator estimate against the bin average of the
    closed-form parabola, computed apart from the program."""

    @settings(max_examples=25, deadline=None)
    @given(
        nbar=strategies.floats(0.0, 10.0),
        u=strategies.floats(-4.0, 4.0),
    )
    def test_gaussian_pointer(self, wide_pointer, nbar, u):
        state = thermal_from_mean_n(nbar)
        q = u * math.sqrt(state.sigma2)
        ref = bin_average_p2(nbar, q, default_bin_halfwidth(state))
        assert abs(richardson(state, wide_pointer, q) - ref) < oracle_tol(nbar, q)

    @pytest.mark.parametrize(
        "nbar, q",
        [(0.0, 2.0), (0.01, 1.2 * math.sqrt(0.51 + 4.0 * 0.51**3)), (0.3, 2.5)],
    )
    def test_thermal_pointer(self, nbar, q):
        state = thermal_from_mean_n(nbar)
        pointer = thermal_pointer(DEFAULT_POINTER_GRID, 0.3, 10.0)
        ref = bin_average_p2(nbar, q, default_bin_halfwidth(state))
        assert abs(richardson(state, pointer, q) - ref) < oracle_tol(nbar, q)


class TestConvergenceSweep:
    def test_vacuum_q2_limit(self, wide_pointer):
        vac = thermal_from_mean_n(0.0)
        reports = convergence_sweep(vac, wide_pointer, 2.0, [0.2, 0.1, 0.05])
        residuals = [r.residual for r in reports]
        assert all(b <= a + 1e-6 for a, b in zip(residuals, residuals[1:]))
        assert reports[-1].estimated_weak_value == pytest.approx(-3.0, rel=0.05)

    def test_small_occupation_limit(self, wide_pointer):
        st = thermal_from_mean_n(0.01)
        reports = convergence_sweep(st, wide_pointer, 1.5, [0.2, 0.1, 0.05])
        residuals = [r.residual for r in reports]
        assert all(b <= a + 1e-6 for a, b in zip(residuals, residuals[1:]))
        assert reports[-1].estimated_weak_value == pytest.approx(
            p2_weak_closed(st, 1.5), rel=0.05
        )

    def test_requires_decreasing_couplings(self, wide_pointer):
        vac = thermal_from_mean_n(0.0)
        with pytest.raises(ValueError, match="decreasing"):
            convergence_sweep(vac, wide_pointer, 2.0, [0.05, 0.1])
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            convergence_sweep(vac, wide_pointer, 2.0, [1.5, 0.1])


class TestPointerEquivalence:
    def test_gaussian_vs_thermal(self, wide_pointer):
        tp = thermal_pointer(DEFAULT_POINTER_GRID, 0.3, 10.0)
        vac = thermal_from_mean_n(0.0)
        cfg = CouplingConfig(0.01, 2.0, default_bin_halfwidth(vac))
        rg = simulate_weak_p2(vac, wide_pointer, cfg)
        rt = simulate_weak_p2(vac, tp, cfg)
        diff = abs(rg.estimated_weak_value - rt.estimated_weak_value)
        assert diff < 0.05 * abs(rg.analytic_weak_value)
