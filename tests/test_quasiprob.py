import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from thermalweak import (
    Grid1D,
    ThermalState,
    eval_grid,
    kirkwood,
    margenau_hill,
    s_closed,
    s_oracle_fock,
    s_oracle_pintegral,
)


def diagonal_minimum(state):
    """1-D minimization oracle: minimum of Re S along q = p = sqrt(u)."""
    s2 = state.sigma2
    denom = 1.0 + 4.0 * s2 * s2

    def f(u):
        return (
            math.exp(-4.0 * s2 * u / denom)
            * math.cos(2.0 * u / denom)
            / (math.pi * math.sqrt(denom))
        )

    # First negative lobe: 2u/denom between pi/2 and 3pi/2.
    res = minimize_scalar(
        f,
        bounds=(math.pi * denom / 4.0, 3.0 * math.pi * denom / 4.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return res.fun


class TestSClosed:
    def test_vacuum_origin(self):
        value = s_closed(ThermalState(0.0), 0.0, 0.0)
        assert value == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)))
        assert value.imag == 0.0

    def test_vacuum_diagonal_minimum_point(self):
        # On the diagonal q = p = r with r^2 = 3*pi/4 the vacuum value is
        # exp(-3pi/4) cos(3pi/4) / (pi sqrt(2)); that is the analytic
        # stationary point of e^-u cos(u).
        r = math.sqrt(3.0 * math.pi / 4.0)
        value = s_closed(ThermalState(0.0), r, r).real
        expected = (
            math.exp(-3.0 * math.pi / 4.0)
            * math.cos(3.0 * math.pi / 4.0)
            / (math.pi * math.sqrt(2.0))
        )
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(-0.01509, abs=5e-5)
        assert value == pytest.approx(diagonal_minimum(ThermalState(0.0)), abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 0.01, 0.7, 2.0])
    def test_symmetries(self, nbar):
        st = ThermalState(nbar)
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, p = rng.uniform(-5.0, 5.0, size=2)
            v = s_closed(st, q, p)
            assert s_closed(st, q, -p) == pytest.approx(np.conj(v), abs=1e-15)
            assert s_closed(st, -q, p) == pytest.approx(np.conj(v), abs=1e-15)
            assert s_closed(st, -q, -p) == pytest.approx(v, abs=1e-15)


class TestMargenauHill:
    def test_small_occupation_origin(self):
        st = ThermalState(0.01)
        s2 = st.sigma2
        expected = 1.0 / (math.pi * math.sqrt(1.0 + 4.0 * s2 * s2))
        assert margenau_hill(st, 0.0, 0.0) == pytest.approx(expected, abs=1e-14)
        assert margenau_hill(st, 0.0, 0.0) == pytest.approx(0.22257, abs=5e-4)
        # Cross-check against the Fock-sum oracle.
        assert margenau_hill(st, 0.0, 0.0) == pytest.approx(
            s_oracle_fock(st, 0.0, 0.0).real, abs=1e-10
        )

    def test_negative_region_small_occupation(self):
        st = ThermalState(0.01)
        grid = Grid1D(-4.0, 4.0, 321)
        assert eval_grid(st, grid, grid, "margenau-hill").min() < 0.0

    def test_negativity_practically_gone_at_mean_n_one(self):
        # The thermal minimum shrinks by two orders of magnitude between
        # mean_n = 0.01 and mean_n = 1; the exact diagonal minimum at
        # mean_n = 1 is -1.0891e-4.
        st = ThermalState(1.0)
        grid = Grid1D(-6.0, 6.0, 481)
        grid_min = eval_grid(st, grid, grid, "margenau-hill").min()
        assert grid_min == pytest.approx(diagonal_minimum(st), abs=5e-6)
        assert abs(grid_min) < 1.5e-4
        small = eval_grid(ThermalState(0.01), grid, grid, "margenau-hill")
        assert abs(grid_min) < abs(small.min()) / 50.0


class TestKirkwood:
    def test_origin_real(self):
        st = ThermalState(0.4)
        v = kirkwood(st, 0.0, 0.0)
        assert v.imag == 0.0
        assert v == pytest.approx(s_closed(st, 0.0, 0.0))

    def test_conjugate_of_s(self):
        st = ThermalState(0.0)
        assert kirkwood(st, 1.0, 1.0) == pytest.approx(
            np.conj(s_closed(st, 1.0, 1.0)), abs=1e-15
        )

    def test_against_fock_route(self):
        # K(q,p) = <q|rho|p><p|q> is the conjugate of the Fock-sum S.
        st = ThermalState(0.6)
        for q, p in ((0.3, -1.2), (2.0, 0.5)):
            assert kirkwood(st, q, p) == pytest.approx(
                np.conj(s_oracle_fock(st, q, p)), abs=1e-8
            )


class TestFockOracle:
    def test_vacuum_origin_single_term(self):
        v = s_oracle_fock(ThermalState(0.0), 0.0, 0.0)
        assert v == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-15)

    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            st = ThermalState(rng.uniform(0.0, 2.0))
            q, p = rng.uniform(-5.0, 5.0, size=2)
            worst = max(worst, abs(s_closed(st, q, p) - s_oracle_fock(st, q, p)))
        assert worst < 1e-8

    def test_real_at_p_zero(self):
        st = ThermalState(0.8)
        for q in np.linspace(-4.0, 4.0, 9):
            assert abs(s_oracle_fock(st, q, 0.0).imag) < 1e-12


class TestPIntegralOracle:
    @pytest.mark.parametrize("nbar", [0.01, 0.5, 1.0])
    def test_matches_closed_form(self, nbar):
        st = ThermalState(nbar)
        for q, p in ((0.0, 0.0), (2.0, 2.0), (-1.3, 0.7)):
            assert abs(s_closed(st, q, p) - s_oracle_pintegral(st, q, p)) < 1e-6

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError, match="point mass"):
            s_oracle_pintegral(ThermalState(0.0), 0.0, 0.0)


class TestEvalGrid:
    @pytest.mark.parametrize("nbar", [0.01, 0.5, 1.0])
    def test_normalization(self, nbar):
        st = ThermalState(nbar)
        s2 = st.sigma2
        p_std = math.sqrt((1.0 + 4.0 * s2 * s2) / (4.0 * s2))
        half = 8.0 * max(math.sqrt(s2), p_std)
        grid = Grid1D(-half, half, 801)
        field = eval_grid(st, grid, grid, "standard-ordered")
        total = np.trapezoid(np.trapezoid(field, dx=grid.spacing), dx=grid.spacing)
        assert abs(total - 1.0) < 1e-8

    def test_shape_and_labels(self):
        st = ThermalState(0.2)
        qg = Grid1D(-2.0, 2.0, 11)
        pg = Grid1D(-3.0, 3.0, 17)
        s = eval_grid(st, qg, pg, "standard-ordered")
        kw = eval_grid(st, qg, pg, "kirkwood")
        mh = eval_grid(st, qg, pg, "margenau-hill")
        assert s.shape == kw.shape == mh.shape == (11, 17)
        assert np.iscomplexobj(s) and np.iscomplexobj(kw) and np.isrealobj(mh)
        np.testing.assert_array_equal(kw, np.conj(s))
        np.testing.assert_array_equal(mh, s.real)

    def test_unknown_label(self):
        g = Grid1D(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            eval_grid(ThermalState(0.1), g, g, "wigner")

    @pytest.mark.parametrize("label", ["standard-ordered", "kirkwood", "margenau-hill"])
    def test_non_finite_values_refused(self, label):
        g = Grid1D(-1e200, 1e200, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                eval_grid(ThermalState(0.1), g, g, label)
