import math

import numpy as np
import pytest

from thermalweak import (
    Grid1D,
    hermite_psi,
    hermite_psi_table,
    integrate,
    p_to_q_transform,
    q_to_p_transform,
)

#: Grid for the transform tests: wide and fine enough for Fock states up to
#: n ~ 60 and for accurate Fourier round trips.
DEFAULT_TEST_GRID = Grid1D(-12.0, 12.0, 1537)


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(0.0, 1.0, 11)
        assert g.spacing == pytest.approx(0.1)
        assert g.points()[0] == 0.0 and g.points()[-1] == 1.0

    @pytest.mark.parametrize(
        "args", [(1.0, 0.0, 10), (0.0, 0.0, 10), (0.0, 1.0, 1), (np.inf, 1.0, 5)]
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            Grid1D(*args)

    def test_conjugate_spacing(self):
        g = Grid1D(-12.0, 12.0, 1537)
        pg = g.conjugate()
        assert pg.count == g.count
        assert pg.spacing * g.spacing * g.count == pytest.approx(2.0 * math.pi)
        assert pg.min == pytest.approx(-pg.max)


class TestHermitePsi:
    def test_ground_state_at_origin(self):
        assert hermite_psi(0, 0.0) == pytest.approx(math.pi**-0.25)

    def test_odd_parity(self):
        assert hermite_psi(1, 0.0) == 0.0

    def test_n2_against_explicit_polynomial(self):
        # psi_2(q) = (4q^2 - 2) exp(-q^2/2) / (pi^(1/4) sqrt(8))
        q = 1.3
        expected = (4.0 * q * q - 2.0) * math.exp(-0.5 * q * q) / (
            math.pi**0.25 * math.sqrt(8.0)
        )
        assert hermite_psi(2, q) == pytest.approx(expected, abs=1e-14)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            hermite_psi(1001, 0.0)
        with pytest.raises(ValueError):
            hermite_psi(-1, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                hermite_psi_table(3, [0.0, bad])

    def test_orthonormality_up_to_60(self):
        # psi_60 needs support out to ~|q|=13 before the gram matrix settles.
        grid = Grid1D(-13.0, 13.0, 4097)
        table = hermite_psi_table(60, grid.points())
        gram = integrate(table[:, None, :] * table[None, :, :], grid)
        assert np.max(np.abs(gram - np.eye(61))) < 1e-8

    def test_table_matches_scalar(self):
        q = np.linspace(-3, 3, 7)
        table = hermite_psi_table(5, q)
        for n in range(6):
            np.testing.assert_allclose(table[n], hermite_psi(n, q), atol=1e-14)


class TestIntegrate:
    def test_constant(self):
        g = Grid1D(0.0, 1.0, 11)
        assert integrate(np.ones(11), g) == pytest.approx(1.0, abs=1e-15)

    def test_odd_function(self):
        g = Grid1D(-1.0, 1.0, 101)
        assert integrate(g.points(), g) == pytest.approx(0.0, abs=1e-15)

    def test_normal_pdf_normalization(self):
        g = Grid1D(-8.0, 8.0, 2001)
        q = g.points()
        pdf = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
        assert abs(integrate(pdf, g) - 1.0) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            integrate(np.ones(10), Grid1D(0.0, 1.0, 11))


class TestTransforms:
    def test_ground_state_self_conjugate(self):
        grid = DEFAULT_TEST_GRID
        out, pgrid = q_to_p_transform(hermite_psi(0, grid.points()), grid)
        np.testing.assert_allclose(out, hermite_psi(0, pgrid.points()), atol=1e-12)

    def test_fock_state_phase(self):
        grid = DEFAULT_TEST_GRID
        for n in (1, 2, 5):
            out, pgrid = q_to_p_transform(hermite_psi(n, grid.points()), grid)
            expected = (-1j) ** n * hermite_psi(n, pgrid.points())
            np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_shift_theorem(self):
        grid = DEFAULT_TEST_GRID
        a = 1.7
        q = grid.points()
        psi = np.pi**-0.25 * np.exp(-0.5 * (q - a) ** 2)
        out, pgrid = q_to_p_transform(psi, grid)
        p = pgrid.points()
        expected = np.exp(-1j * p * a) * np.pi**-0.25 * np.exp(-0.5 * p * p)
        np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_round_trip(self):
        grid = DEFAULT_TEST_GRID
        q = grid.points()
        psi = np.exp(-0.5 * (q - 0.8) ** 2 + 0.3j * q)
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing)
        mid, pgrid = q_to_p_transform(psi, grid)
        back, qgrid = p_to_q_transform(mid, pgrid)
        np.testing.assert_allclose(back, psi, atol=1e-10)
        assert qgrid.spacing == pytest.approx(grid.spacing)

    def test_unitarity(self):
        grid = DEFAULT_TEST_GRID
        q = grid.points()
        psi = np.exp(-0.4 * (q - 1.0) ** 2 + 1.1j * q)
        out, pgrid = q_to_p_transform(psi, grid)
        lhs = np.sum(np.abs(out) ** 2) * pgrid.spacing
        rhs = np.sum(np.abs(psi) ** 2) * grid.spacing
        assert abs(lhs - rhs) < 1e-10

    def test_stacked_fields(self):
        grid = DEFAULT_TEST_GRID
        q = grid.points()
        stack = np.array(
            [
                [np.exp(-0.5 * (q - a) ** 2 + 1j * b * q) for b in (0.0, 0.7)]
                for a in (-1.0, 0.4, 2.0)
            ]
        )
        fwd, pgrid = q_to_p_transform(stack, grid)
        back, _ = p_to_q_transform(fwd, pgrid)
        assert fwd.shape == back.shape == stack.shape
        for i, j in np.ndindex(stack.shape[:2]):
            row_fwd, _ = q_to_p_transform(stack[i, j], grid)
            row_back, _ = p_to_q_transform(fwd[i, j], pgrid)
            np.testing.assert_allclose(fwd[i, j], row_fwd, rtol=0, atol=1e-14)
            np.testing.assert_allclose(back[i, j], row_back, rtol=0, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            q_to_p_transform(np.ones(5, dtype=complex), DEFAULT_TEST_GRID)
        with pytest.raises(ValueError):
            p_to_q_transform(np.ones((1537, 5), dtype=complex), DEFAULT_TEST_GRID)
