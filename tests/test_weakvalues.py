import math

import numpy as np
import pytest

from thermalweak import (
    Grid1D,
    ThermalState,
    classical_weak_value_p2,
    hamiltonian_weak,
    moment_weak_integral,
    negativity_probability,
    negativity_threshold,
    p2_weak_closed,
    p2_weak_curve,
)

SWEEP_Q = np.linspace(-5.0, 5.0, 41)
SWEEP_NBAR = (0.0, 0.01, 0.3, 1.0)


class TestP2WeakClosed:
    def test_vacuum_values(self):
        vac = ThermalState(0.0)
        assert p2_weak_closed(vac, 0.0) == pytest.approx(1.0)
        assert p2_weak_closed(vac, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert p2_weak_closed(vac, 2.0) == pytest.approx(-3.0)

    def test_inverted_parabola(self):
        st = ThermalState(0.5)
        vals = p2_weak_closed(st, SWEEP_Q)
        assert np.argmax(vals) == len(SWEEP_Q) // 2
        assert np.all(np.diff(vals[: len(SWEEP_Q) // 2]) > 0)


class TestMomentIntegral:
    def test_zeroth_moment_is_one(self):
        for nbar in SWEEP_NBAR:
            st = ThermalState(nbar)
            for q in (-3.0, 0.0, 1.5):
                assert moment_weak_integral(st, 0, q) == pytest.approx(1.0, abs=1e-10)

    def test_second_moment_matches_closed_form(self):
        for nbar in SWEEP_NBAR:
            st = ThermalState(nbar)
            for q in SWEEP_Q:
                assert abs(
                    moment_weak_integral(st, 2, q) - p2_weak_closed(st, q)
                ) < 1e-8

    def test_first_moment_real_part_vanishes(self):
        # Odd moment of the Gaussian S: purely imaginary, measured real
        # part is zero to quadrature accuracy.
        for nbar in (0.0, 0.5, 1.0):
            st = ThermalState(nbar)
            for q in (-2.0, 0.0, 3.0):
                assert abs(moment_weak_integral(st, 1, q)) < 1e-10

    def test_order_guard(self):
        st = ThermalState(0.1)
        with pytest.raises(ValueError):
            moment_weak_integral(st, 9, 0.0)
        with pytest.raises(ValueError):
            moment_weak_integral(st, -1, 0.0)

    def test_out_of_support(self):
        with pytest.raises(ValueError, match="out of support"):
            moment_weak_integral(ThermalState(0.0), 2, 60.0)


class TestHamiltonianWeak:
    def test_vacuum_eigenvalue(self):
        vac = ThermalState(0.0)
        for q in (-3.0, 0.0, 2.0):
            assert hamiltonian_weak(vac, q) == pytest.approx(0.5)

    def test_vacuum_identity_at_q2(self):
        vac = ThermalState(0.0)
        assert 2.0 * hamiltonian_weak(vac, 2.0) - 4.0 == pytest.approx(
            p2_weak_closed(vac, 2.0)
        )

    def test_mean_n_one_origin(self):
        st = ThermalState(1.0)
        s2 = st.sigma2
        expected = (s2 + 4.0 * s2**3) / (4.0 * s2 * s2)
        assert 2.0 * hamiltonian_weak(st, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_identity_over_sweep(self):
        for nbar in SWEEP_NBAR:
            st = ThermalState(nbar)
            for q in SWEEP_Q:
                lhs = 2.0 * hamiltonian_weak(st, q) - q * q
                assert abs(lhs - p2_weak_closed(st, q)) < 1e-8


class TestNegativityThreshold:
    def test_vacuum(self):
        assert negativity_threshold(ThermalState(0.0)) == pytest.approx(1.0)

    def test_mean_n_one(self):
        assert negativity_threshold(ThermalState(1.0)) == pytest.approx(
            math.sqrt(15.0)
        )

    @pytest.mark.parametrize("nbar", [0.0, 0.01, 0.3, 1.0, 2.0])
    def test_definitional_root_and_sign_change(self, nbar):
        st = ThermalState(nbar)
        thr = negativity_threshold(st)
        assert abs(p2_weak_closed(st, thr)) < 1e-12
        eps = 1e-6
        assert p2_weak_closed(st, thr + eps) < 0.0 < p2_weak_closed(st, thr - eps)

    @pytest.mark.parametrize("nbar", [0.0, 0.1, 0.9])
    def test_sign_iff_outside_threshold(self, nbar):
        st = ThermalState(nbar)
        thr = negativity_threshold(st)
        for q in SWEEP_Q:
            wv = p2_weak_closed(st, q)
            if abs(q) > thr + 1e-12:
                assert wv < 0.0
            elif abs(q) < thr - 1e-12:
                assert wv > 0.0


class TestNegativityProbability:
    def test_vacuum_closed_form(self):
        assert negativity_probability(ThermalState(0.0)) == pytest.approx(
            0.157299207050285, abs=1e-12
        )

    def test_mean_n_one(self):
        # erfc(sqrt(5)); frozen from the high-precision erfc oracle.
        assert negativity_probability(ThermalState(1.0)) == pytest.approx(
            1.56540225800255e-3, rel=1e-9
        )

    def test_methods_agree(self):
        for nbar in np.arange(0.0, 2.01, 0.1):
            st = ThermalState(nbar)
            closed = negativity_probability(st, "closed")
            quadrature = negativity_probability(st, "quadrature")
            assert abs(closed - quadrature) < 1e-9

    def test_strictly_decreasing(self):
        vals = [
            negativity_probability(ThermalState(n))
            for n in np.arange(0.0, 2.01, 0.1)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            negativity_probability(ThermalState(0.0), "mc")


class TestClassicalWeakValue:
    def test_vacuum(self):
        assert classical_weak_value_p2(ThermalState(0.0), 5.0) == 0.5

    def test_positive_while_quantum_negative(self):
        st = ThermalState(1.0)
        assert classical_weak_value_p2(st, 5.0) == 1.5
        assert p2_weak_closed(st, 5.0) < 0.0

    def test_always_nonnegative(self):
        for nbar in (0.0, 0.01, 1.0, 3.0):
            st = ThermalState(nbar)
            for q in SWEEP_Q:
                assert classical_weak_value_p2(st, q) >= 0.0


class TestWeakValueCurve:
    def test_methods_agree(self):
        st = ThermalState(0.3)
        grid = Grid1D(-4.0, 4.0, 33)
        closed = p2_weak_curve(st, grid, "closed-form")
        integral = p2_weak_curve(st, grid, "conditional-moment-integral")
        np.testing.assert_allclose(closed, integral, atol=1e-8)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            p2_weak_curve(ThermalState(0.3), Grid1D(-1.0, 1.0, 5), "guess")

    def test_non_finite_values_refused(self):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="weak values must be finite"):
                p2_weak_curve(ThermalState(0.3), Grid1D(-1e200, 1e200, 3))
