import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from thermalweak import (
    HBAR,
    K_BOLTZMANN,
    BlackbodyMode,
    Grid1D,
    ThermalState,
    fock_cutoff,
    geometric_weights,
    occupation_number,
    q_marginal_pdf,
    s_closed,
    wien_peak_occupation,
)


def wien_x(c):
    """Independent Newton solve of x = c*(1 - exp(-x)) used as test oracle."""
    x = c + 1.0
    for _ in range(100):
        f = x - c * (1.0 - math.exp(-x))
        fp = 1.0 - c * math.exp(-x)
        x_new = x - f / fp
        if abs(x_new - x) < 1e-14:
            return x_new
        x = x_new
    return x


class TestThermalState:
    @pytest.mark.parametrize("mean_n,sigma2", [(0.0, 0.5), (1.0, 1.5), (0.01, 0.51)])
    def test_variance(self, mean_n, sigma2):
        assert ThermalState(mean_n).sigma2 == sigma2

    def test_variance_offset_exact(self):
        for mean_n in np.linspace(0.0, 5.0, 23):
            st = ThermalState(mean_n)
            assert st.sigma2 == st.mean_n + 0.5

    def test_mean_n_stored_as_float(self):
        for value in (1, np.float64(0.25), np.int64(3)):
            assert type(ThermalState(value).mean_n) is float

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            ThermalState(bad)


class TestOccupationNumber:
    def test_ln2_point(self):
        # hbar*omega = kT*ln2 makes the exponential exactly 2.
        temp = 1.0
        omega = K_BOLTZMANN * temp * math.log(2.0) / HBAR
        assert occupation_number(BlackbodyMode(omega, temp)) == pytest.approx(1.0)

    def test_microkelvin_oscillator(self):
        # 100 kHz oscillator at 1 microkelvin: occupation of order 1e-2.
        nbar = occupation_number(BlackbodyMode(2.0 * math.pi * 1e5, 1e-6))
        assert 1e-3 < nbar < 1e-1
        assert nbar == pytest.approx(8.3e-3, rel=0.01)

    def test_wien_wavelength_point(self):
        x = wien_x(5.0)
        nbar = occupation_number(
            BlackbodyMode(x * K_BOLTZMANN * 2.0 / HBAR, 2.0)
        )
        assert nbar == pytest.approx(1.0 / math.expm1(x), rel=1e-9)
        assert nbar == pytest.approx(7.0e-3, rel=0.01)

    def test_underflow(self):
        with pytest.warns(RuntimeWarning):
            out = occupation_number(BlackbodyMode(1e20, 1e-6))
        assert out == 0.0

    def test_monotonic_in_omega_and_temperature(self):
        omegas = np.linspace(1e10, 1e12, 20)
        vals = [occupation_number(BlackbodyMode(w, 300.0)) for w in omegas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        temps = np.linspace(1.0, 1000.0, 20)
        vals = [occupation_number(BlackbodyMode(1e12, t)) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BlackbodyMode(0.0, 1.0)
        with pytest.raises(ValueError):
            BlackbodyMode(1.0, -1.0)


class TestWienPeakOccupation:
    def test_wavelength_convention(self):
        expected = 1.0 / math.expm1(wien_x(5.0))
        assert wien_peak_occupation("wavelength-peak") == pytest.approx(
            expected, rel=1e-10
        )
        assert wien_peak_occupation("wavelength-peak") == pytest.approx(
            7.0e-3, rel=0.01
        )

    def test_frequency_convention(self):
        expected = 1.0 / math.expm1(wien_x(3.0))
        assert wien_peak_occupation("frequency-peak") == pytest.approx(
            expected, rel=1e-10
        )
        assert wien_peak_occupation("frequency-peak") == pytest.approx(6.3e-2, rel=0.01)

    def test_both_are_order_percent(self):
        for conv in ("wavelength-peak", "frequency-peak"):
            assert 1e-3 < wien_peak_occupation(conv) < 1e-1

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            wien_peak_occupation("peak")


def fock_weight_quadrature_oracle(nbar, n, points=1201):
    """2-D quadrature of integral d^2alpha P(alpha) |<alpha|n>|^2."""
    c = 1.0 + 1.0 / nbar
    half = (math.sqrt(2.0 * n + 1.0) + 8.0) / math.sqrt(2.0 * c)
    x = np.linspace(-half, half, points)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r2 = xx * xx + yy * yy
    integrand = np.exp(-r2 * c) * r2**n / (math.pi * nbar * math.factorial(n))
    return np.trapezoid(np.trapezoid(integrand, x), x)


def truncated_weights(nbar, tail_tol=1e-12):
    return geometric_weights(nbar, fock_cutoff(ThermalState(nbar), tail_tol))


class TestFockWeights:
    def test_vacuum(self):
        assert fock_cutoff(ThermalState(0.0)) == 0
        np.testing.assert_array_equal(truncated_weights(0.0), [1.0])

    def test_mean_n_one(self):
        weights = truncated_weights(1.0)
        assert weights[0] == pytest.approx(0.5)
        assert weights[1] == pytest.approx(0.25)
        assert weights[2] == pytest.approx(0.125)

    def test_small_occupation_ground_weight(self):
        assert truncated_weights(0.01)[0] == pytest.approx(1.0 / 1.01, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.01, 0.5, 1.0])
    def test_against_p_distribution_quadrature(self, nbar):
        weights = truncated_weights(nbar)
        for n in range(6):
            oracle = fock_weight_quadrature_oracle(nbar, n)
            assert abs(weights[n] - oracle) < 1e-8

    @pytest.mark.parametrize("nbar", [0.01, 0.5, 1.0, 2.0])
    def test_tail_and_monotonicity(self, nbar):
        tail_tol = 1e-12
        weights = truncated_weights(nbar, tail_tol)
        assert 1.0 - tail_tol <= weights.sum() <= 1.0 + 1e-15
        assert np.all(np.diff(weights) < 0)

    def test_tail_tol_domain(self):
        with pytest.raises(ValueError):
            fock_cutoff(ThermalState(1.0), 1e-2)

    @settings(max_examples=200, deadline=None)
    @given(
        nbar=strategies.floats(1e-300, 1e300),
        tail_tol=strategies.floats(1e-16, 1e-3),
    )
    @example(nbar=1e17, tail_tol=1e-16)
    def test_cutoff_is_smallest_order_meeting_tolerance(self, nbar, tail_tol):
        # The tail r^(N+1) is at most tail_tol iff (N+1)*a >= b, with
        # a = -log r = log1p(1/<n>) and b = -log(tail_tol), both at 30 digits.
        # The slack of 1e-12 allows for float rounding in the rule itself.
        ncut = fock_cutoff(ThermalState(nbar), tail_tol)
        mpmath.mp.dps = 30
        a = mpmath.log1p(1 / mpmath.mpf(nbar))
        b = -mpmath.log(tail_tol)
        assert (ncut + 1) * a >= b * (1 - 1e-12)
        assert ncut == 0 or ncut * a < b * (1 + 1e-12)


class TestQMarginal:
    def test_vacuum_peak(self):
        assert q_marginal_pdf(ThermalState(0.0), 0.0) == pytest.approx(
            math.pi**-0.5
        )

    def test_mean_n_one_peak(self):
        assert q_marginal_pdf(ThermalState(1.0), 0.0) == pytest.approx(
            (3.0 * math.pi) ** -0.5
        )

    @pytest.mark.parametrize("nbar", [0.0, 0.3, 1.0, 2.0])
    def test_normalization(self, nbar):
        st = ThermalState(nbar)
        sig = math.sqrt(st.sigma2)
        g = Grid1D(-10.0 * sig, 10.0 * sig, 4001)
        total = np.trapezoid(q_marginal_pdf(st, g.points()), dx=g.spacing)
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("nbar", [0.01, 0.5, 1.0])
    def test_matches_p_integral_of_s(self, nbar):
        st = ThermalState(nbar)
        s2 = st.sigma2
        p_std = math.sqrt((1.0 + 4.0 * s2 * s2) / (4.0 * s2))
        half = 8.0 * max(math.sqrt(s2), p_std)
        g = Grid1D(-half, half, 2001)
        for q in (-2.0, 0.0, 0.7, 1.5):
            marg = np.trapezoid(s_closed(st, q, g.points()), dx=g.spacing)
            assert abs(marg - q_marginal_pdf(st, q)) < 1e-8
