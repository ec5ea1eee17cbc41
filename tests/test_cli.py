import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import thermalweak
from thermalweak import cli, quasiprob
from thermalweak.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMhGrid:
    def test_negative_minimum_small_occupation(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = run(
            capsys, "mh-grid", "--mean-n", "0.01", "--count", "81", "--out", str(out)
        )
        assert code == 0
        text = out.read_text()
        meta = dict(
            line[2:].split(": ", 1)
            for line in text.splitlines()
            if line.startswith("# ") and ": " in line
        )
        assert float(meta["min_value"]) < 0.0

    def test_vacuum_origin_value(self, tmp_path, capsys):
        out = tmp_path / "vac.csv"
        code, _, _ = run(
            capsys,
            *("mh-grid --mean-n 0 --qmin -1 --qmax 1 --pmin -1 --pmax 1".split()),
            "--count",
            "3",
            "--out",
            str(out),
            "--no-header",
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        origin = [r for r in rows if r[0] == "0" and r[1] == "0"]
        assert float(origin[0][2]) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)))

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mh-grid", "--mean-n", "0.5", "--count", "31"]
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code, _, _ = run(
            capsys,
            "mh-grid", "--mean-n", "1", "--count", "21",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "data"}
        assert len(doc["data"]["values"]) == 21

    def test_invalid_grid(self, capsys):
        code, _, err = run(
            capsys, "mh-grid", "--mean-n", "0.1", "--qmin", "2", "--qmax", "-2"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestWeakValueCurve:
    def test_vacuum_parabola_and_method_agreement(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "weakvalue-curve", "--mean-n", "0",
            "--qmin", "-2", "--qmax", "2", "--count", "41",
            "--method", "both", "--out", str(out), "--no-header",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,closed-form,conditional-moment-integral,outside_threshold"
        for row in lines[1:]:
            q, closed, integral, marker = row.split(",")
            q, closed, integral = float(q), float(closed), float(integral)
            assert closed == pytest.approx(1.0 - q * q, abs=1e-10)
            assert abs(closed - integral) < 1e-8
            assert marker == ("1" if abs(q) >= 1.0 else "0")

    @pytest.mark.parametrize(
        "window",
        [
            ("--mean-n", "0", "--qmin", "7", "--qmax", "9", "--count", "3"),
            ("--mean-n", "0.001", "--qmin", "10", "--qmax", "12", "--count", "2"),
        ],
    )
    def test_moment_column_exact_at_large_q(self, capsys, window):
        code, out, _ = run(
            capsys, "weakvalue-curve", *window, "--method", "both", "--no-header"
        )
        assert code == 0
        for row in out.splitlines()[1:]:
            _, closed, integral, _ = row.split(",")
            assert float(integral) == pytest.approx(float(closed), rel=1e-9, abs=0.0)

    def test_curve_leaving_support_names_first_q(self, capsys):
        code, out, err = run(
            capsys, "weakvalue-curve", "--mean-n", "0",
            "--qmin", "20", "--qmax", "40", "--count", "5", "--method", "both",
        )
        assert code == 2 and out == ""
        assert err == "error: postselection point q=30.0 is out of support\n"

    @pytest.mark.parametrize("method", ["closed-form", "both"])
    def test_occupation_limit(self, capsys, method):
        argv = ["weakvalue-curve", "--count", "3", "--method", method, "--no-header"]
        code, out, _ = run(capsys, *argv, "--mean-n", "3.4e102")
        assert code == 0
        for row in out.splitlines()[1:]:
            assert all(float(v) == pytest.approx(3.4e102) for v in row.split(",")[1:-1])
        code, out, err = run(capsys, *argv, "--mean-n", "3.6e102")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "sigma2 exceeds 3.5e+102" in err

    def test_overflowing_occupation_refused(self, capsys):
        # sigma2**3 overflows a float at mean_n = 1e300.
        code, out, err = run(
            capsys, "weakvalue-curve", "--mean-n", "1e300", "--count", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestNegativityProb:
    def test_endpoints_and_monotonicity(self, tmp_path, capsys):
        out = tmp_path / "prob.csv"
        code, _, _ = run(
            capsys,
            "negativity-prob", "--mean-n-min", "0", "--mean-n-max", "1",
            "--steps", "11", "--out", str(out), "--no-header",
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        probs = [float(r[1]) for r in rows]
        assert probs[0] == pytest.approx(0.157299207050285, abs=1e-10)
        assert probs[-1] == pytest.approx(1.56540225800255e-3, rel=1e-6)
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_invalid_range(self, capsys):
        code, _, err = run(
            capsys, "negativity-prob", "--mean-n-min", "2", "--mean-n-max", "1"
        )
        assert code == 2 and err.startswith("error: ")

    def test_zero_steps_refused(self, capsys):
        code, out, err = run(capsys, "negativity-prob", "--steps", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--steps" in err

    def test_below_normal_float_range_refused(self, capsys):
        code, out, err = run(
            capsys, "negativity-prob", "--mean-n-min", "17", "--mean-n-max", "20", "--steps", "4"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "normal float range from mean_n ~ 18.2623" in err

    def test_default_csv_unchanged(self, capsys):
        code, out, _ = run(capsys, "negativity-prob")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a5b7401feb8f6a19a18d84d1d8fe2943e839a95bb13e8fec963d882db91f2e7b"
        )


class TestOccupation:
    def test_wien_wavelength(self, capsys):
        code, out, _ = run(capsys, "occupation", "--wien", "wavelength")
        assert code == 0
        nbar = float(out.splitlines()[1].split("=")[1])
        assert nbar == pytest.approx(7.0262e-3, rel=1e-3)

    def test_microkelvin(self, capsys):
        code, out, _ = run(
            capsys, "occupation", "--frequency", "1e5", "--temperature", "1e-6"
        )
        assert code == 0
        nbar = float(out.splitlines()[0].split("=")[1])
        assert 1e-3 < nbar < 1e-1

    def test_ln2_point(self, capsys):
        from thermalweak import HBAR, K_BOLTZMANN

        omega = K_BOLTZMANN * math.log(2.0) / HBAR
        code, out, _ = run(
            capsys, "occupation", "--omega", str(omega), "--temperature", "1"
        )
        assert code == 0
        nbar = float(out.splitlines()[0].split("=")[1])
        assert nbar == pytest.approx(1.0, rel=1e-9)

    def test_missing_inputs(self, capsys):
        code, _, err = run(capsys, "occupation")
        assert code == 2 and err.startswith("error: ")


class TestSimulate:
    def test_vacuum_q2(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code, _, _ = run(
            capsys,
            "simulate", "--mean-n", "0", "--q", "2", "--g", "0.05", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        rep = doc["data"][0]
        assert rep["estimated_weak_value"] == pytest.approx(-3.0, rel=0.05)
        assert rep["analytic_weak_value"] == -3.0

    def test_g_sweep_residuals_decrease(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys,
            "simulate", "--mean-n", "0", "--q", "2",
            "--g-sweep", "0.2", "0.1", "0.05", "--out", str(out),
        )
        assert code == 0
        residuals = [r["residual"] for r in json.loads(out.read_text())["data"]]
        assert all(b <= a + 1e-6 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("width", ["0", "-0.01"])
    def test_nonpositive_bin_refused(self, capsys, width):
        code, out, err = run(
            capsys, "simulate", "--mean-n", "0", "--q", "2", "--bin-halfwidth", width
        )
        assert code == 2 and out == ""
        assert err == "error: bin_halfwidth must be > 0\n"

    def test_occupation_beyond_hermite_order_refused(self, capsys):
        # At q = 7 the Fock cutoff reaches order 975 at mean_n = 25 and 1012
        # at mean_n = 26, past the Hermite-table guard of 1000.
        code, out, _ = run(capsys, "simulate", "--mean-n", "25", "--q", "7")
        assert code == 0
        code, out, err = run(capsys, "simulate", "--mean-n", "26", "--q", "7")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "1000" in err and "Traceback" not in err

    def test_far_postselection_refused(self, capsys):
        code, out, err = run(capsys, "simulate", "--mean-n", "0", "--q", "13")
        assert code == 2 and out == ""
        assert err.startswith("error: insufficient statistics")

    def test_pointer_narrower_than_grid_spacing_refused(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--mean-n", "0", "--q", "2", "--pointer-width", "0.001"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: grid too narrow or too coarse")
        assert len(err.strip().splitlines()) == 1

    def test_cutoff_follows_postselection_point(self, capsys):
        # Near q = 6 the Fock components around n ~ q^2/2 dominate, beyond
        # the weight-based cutoff.  The target is the parabola averaged over
        # the default bin with the q-marginal as weight, -12.9462965; the
        # point value -12.95 lies 3.7e-3 from it because of the bin's width.
        code, out, _ = run(capsys, "simulate", "--mean-n", "0.3", "--q", "6")
        assert code == 0
        rep = json.loads(out)["data"][0]
        assert rep["estimated_weak_value"] == pytest.approx(-12.9462965, abs=1e-3)
        assert rep["analytic_weak_value"] == pytest.approx(-12.95, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mean-n", "1e17", "--q", "1"],
            ["--mean-n", "0", "--q", "1", "--pointer", "thermal", "--pointer-mean-n", "1e17"],
        ],
    )
    def test_huge_occupation_refused(self, capsys, argv):
        # log(<n>/(1+<n>)) rounds to 0 at <n> = 1e17; the Fock cutoff must
        # still come out finite and meet the Hermite-order guard.
        code, out, err = run(capsys, "simulate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: unsupported order") and "1000" in err
        assert len(err.strip().splitlines()) == 1

    def test_order_refused_before_weights_are_built(self, capsys):
        # At mean_n = 1e6 the cutoff is ~3.7e7 orders; their weights alone
        # would take ~300 MB before the order guard refuses.
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--mean-n", "1e6", "--q", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and err.startswith("error: unsupported order")
        assert peak < 64e6


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_injected_fault_named(self, capsys):
        code, out, _ = run(capsys, "verify", "--inject-fault", "hamiltonian_identity")
        assert code == 1
        assert "FAIL hamiltonian_identity" in out

    def test_marginal_check_measures_the_program(self, capsys):
        code, out, _ = run(capsys, "verify")
        line = next(ln for ln in out.splitlines() if " marginal_consistency " in ln)
        assert code == 0
        assert float(re.search(r"max_err=([^,]+),", line).group(1)) <= 1e-13

    def test_injected_marginal_fault_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--inject-fault", "marginal_consistency")
        assert code == 1
        assert "FAIL marginal_consistency" in out

    def test_bound_sized_checks_read_rounding(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        for name in ("s_closed_vs_pintegral_oracle", "normalization"):
            line = next(ln for ln in out.splitlines() if f" {name} " in ln)
            assert float(re.search(r"max_err=([^,]+),", line).group(1)) <= 1e-15

    def test_faulty_closed_form_fails(self, monkeypatch, capsys):
        # The oracle grids must stay fine enough to measure the program.
        monkeypatch.setattr(cli, "s_closed", lambda *a: np.conj(quasiprob.s_closed(*a)))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL s_closed_vs_fock_oracle" in out
        assert "FAIL s_closed_vs_pintegral_oracle" in out
        monkeypatch.setattr(cli, "s_closed", lambda *a: quasiprob.s_closed(*a) * (1.0 + 1e-6))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL normalization" in out

    def test_unknown_fault_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--inject-fault", "bogus")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown check 'bogus'")
        assert len(err.strip().splitlines()) == 1
        for name in ("s_closed_vs_fock_oracle", "hamiltonian_identity", "normalization"):
            assert name in err


class TestImport:
    def test_no_scipy_module_is_imported(self):
        # scipy is a test dependency only; importing it would dominate start-up.
        probe = (
            "import sys, thermalweak, thermalweak.cli; "
            "print(thermalweak.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = os.path.dirname(os.path.dirname(thermalweak.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert res.stdout.splitlines() == [thermalweak.__file__, "[]"]
