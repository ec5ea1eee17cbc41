import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

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
    q_marginal_pdf,
)
from thermalweak.weakvalues import MARGINAL_FLOOR, MAX_SIGMA2

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

    def test_out_of_support_names_first_such_q(self):
        q = np.array([1.0, 35.0, 60.0, 2.0])
        with pytest.raises(ValueError, match=r"q=35\.0 is out of support"):
            moment_weak_integral(ThermalState(0.0), 2, q)

    @settings(max_examples=200, deadline=None)
    @given(
        nbar=strategies.floats(0.0, 5.0),
        q=strategies.floats(-15.0, 15.0),
    )
    def test_second_moment_exact_at_every_q(self, nbar, q):
        st = ThermalState(nbar)
        assume(q_marginal_pdf(st, q) >= MARGINAL_FLOOR)
        s2 = st.sigma2
        scale = (s2 + 4.0 * s2**3 + q * q) / (4.0 * s2 * s2)
        assert abs(moment_weak_integral(st, 2, q) - p2_weak_closed(st, q)) <= 1e-12 * scale

    @pytest.mark.parametrize("nbar,q", [(0.0, 3.0), (1e-3, 8.0), (0.3, -5.0), (2.0, 6.5)])
    def test_orders_against_mpmath(self, nbar, q):
        # Independent route: along real p, integral p^n exp(-a p^2 + i c p) dp
        # = (i/(2 sqrt a))^n H_n(c/(2 sqrt a)) exp(-c^2/(4a)) sqrt(pi/a).
        st = ThermalState(nbar)
        s2 = st.sigma2
        p_std = math.sqrt((1.0 + 4.0 * s2 * s2) / (4.0 * s2))
        with mpmath.workdps(40):
            m_s2 = mpmath.mpf(nbar) + mpmath.mpf(1) / 2
            d = 1 + 4 * m_s2 * m_s2
            a, x = 2 * m_s2 / d, mpmath.mpf(q) / mpmath.sqrt(2 * m_s2 * d)
            ratio = mpmath.sqrt(2 * m_s2 / (a * d)) * mpmath.exp(
                q * q / (2 * m_s2) - 2 * m_s2 * q * q / d - x * x
            )
            for n in (0, 1, 4, 5, 8):
                ref = (1j / (2 * mpmath.sqrt(a))) ** n * mpmath.hermite(n, x) * ratio
                # Bound of |(u + ib)^n| over the bulk of the contour Gaussian.
                scale = (p_std + abs(q) / (2.0 * s2)) ** n
                got = moment_weak_integral(st, n, q)
                assert abs(got - float(mpmath.re(ref))) <= 1e-13 * scale, n

    def test_array_call_equals_pointwise_calls(self):
        q = np.linspace(-12.0, 12.0, 97)
        for nbar in (0.0, 1e-3, 0.7):
            st = ThermalState(nbar)
            for n in (1, 2, 5):
                pointwise = [moment_weak_integral(st, n, qi) for qi in q]
                assert isinstance(pointwise[0], float)
                np.testing.assert_array_equal(moment_weak_integral(st, n, q), pointwise)


class TestClosedFormDomain:
    def test_limit_refused_with_its_value(self):
        inside, past = ThermalState(MAX_SIGMA2 - 0.5), ThermalState(3.6e102)
        assert math.isfinite(p2_weak_closed(inside, 1.0))
        assert math.isfinite(negativity_threshold(inside))
        assert math.isfinite(moment_weak_integral(inside, 2, 1.0))
        for route in (
            lambda st: p2_weak_closed(st, 1.0),
            negativity_threshold,
            lambda st: moment_weak_integral(st, 2, 1.0),
        ):
            with pytest.raises(ValueError, match=r"sigma2 exceeds 3\.5e\+102"):
                route(past)

    def test_high_order_overflow_refused(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                moment_weak_integral(ThermalState(1e100), 8, 0.0)


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

    def test_hermite_seed_limit(self):
        # pi^(-1/4) exp(-q^2/2) underflows past |q| ~ 38.604; the marginal is still ~1e-232.
        st = ThermalState(1.0)
        assert q_marginal_pdf(st, 39.0) > MARGINAL_FLOOR
        lhs = 2.0 * hamiltonian_weak(st, 38.5) - 38.5**2
        assert abs(lhs - p2_weak_closed(st, 38.5)) < 1e-15 * 38.5**2
        for q in (39.0, 40.0, -40.0):
            with pytest.raises(ValueError, match="Hermite seed limit 38.604") as info:
                hamiltonian_weak(st, q)
            assert "out of support" not in str(info.value)


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

    @pytest.mark.parametrize("method,rtol", [("closed", 1e-13), ("quadrature", 1e-12)])
    @settings(max_examples=150, deadline=None)
    @given(nbar=strategies.floats(0.0, 18.2))
    def test_against_mpmath(self, method, rtol, nbar):
        with mpmath.workdps(50):
            s2 = mpmath.mpf(nbar) + mpmath.mpf(1) / 2
            ref = float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(1) / 2 + 2 * s2 * s2)))
        assert abs(negativity_probability(ThermalState(nbar), method) - ref) <= rtol * ref

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    def test_below_normal_float_range_refused(self, method):
        assert negativity_probability(ThermalState(18.2), method) >= sys.float_info.min
        for nbar in (18.3, 19.0, 1e3):
            with pytest.raises(ValueError, match=r"normal float range from mean_n ~ 18\.26"):
                negativity_probability(ThermalState(nbar), method)


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
