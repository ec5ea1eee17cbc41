"""Output checks computed apart from the program.

The references are the paper's closed forms, written here with the Python
standard library only; nothing from ``thermalweak`` is imported.  With
sigma2 = mean_n + 1/2 and D = 1 + 4 sigma2^2:

    S(q,p)       = exp[(-2 sigma2 (q^2+p^2) + 2i pq) / D] / (pi sqrt(D))
    (p^2)_w(q)   = (sigma2 + 4 sigma2^3 - q^2) / (4 sigma2^2)
    threshold    = sqrt(sigma2 + 4 sigma2^3)
    P(negative)  = erfc(sqrt(1/2 + 2 sigma2^2))

Tolerances are absolute, scaled by the size of the terms that cancel, where
a reference crosses zero: Re S does where cos(2pq/D) does, and the parabola
does at the threshold.
"""

from __future__ import annotations

import json
import math

#: CSV values carry 12 significant digits.
CSV_RTOL = 1e-11
#: JSON values carry every digit; the program may round differently.
JSON_RTOL = 1e-12
#: The moment integral is a quadrature; its error stays below this share of
#: the parabola's terms for |q| <= 5.
MOMENT_RTOL = 1e-9
#: Largest |estimate - bin-averaged (p^2)_w| at the smallest coupling.  The
#: simulator's own discretisation leaves up to about 2e-4 there.
SIM_ESTIMATE_TOL = 1e-3
#: Relative deviation of the postselection probability from the marginal
#: mass in the bin, at the smallest coupling.
SIM_PROBABILITY_RTOL = 1e-3
#: Largest |Gaussian-pointer estimate - thermal-pointer estimate|.
POINTER_AGREEMENT_TOL = 1e-3
#: Grid points this close to the threshold are not held to its sign.
THRESHOLD_MARGIN = 1e-9

MH_GRID = (-4.0, 4.0, 201)
CURVE_GRID = (-5.0, 5.0, 201)
PROB_GRID = (0.0, 2.0, 50)
VERIFY_CHECKS = 7


def linspace(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def parabola(mean_n, q):
    s2 = mean_n + 0.5
    return (s2 + 4.0 * s2**3 - q * q) / (4.0 * s2 * s2)


def parabola_scale(mean_n, q):
    """Sum of the magnitudes of the parabola's terms."""
    s2 = mean_n + 0.5
    return (s2 + 4.0 * s2**3 + q * q) / (4.0 * s2 * s2)


def threshold(mean_n):
    s2 = mean_n + 0.5
    return math.sqrt(s2 + 4.0 * s2**3)


def s_parts(mean_n, q, p):
    """(Re S, |S|) of the standard-ordered distribution."""
    s2 = mean_n + 0.5
    d = 1.0 + 4.0 * s2 * s2
    mag = math.exp(-2.0 * s2 * (q * q + p * p) / d) / (math.pi * math.sqrt(d))
    return mag * math.cos(2.0 * p * q / d), mag


def negativity_probability(mean_n):
    s2 = mean_n + 0.5
    return math.erfc(math.sqrt(0.5 + 2.0 * s2 * s2))


def bin_halfwidth(mean_n):
    return math.sqrt(mean_n + 0.5) / 50.0


def bin_mass(mean_n, q, h):
    """Mass of the Gaussian q-marginal (variance sigma2) in [q-h, q+h]."""
    c = math.sqrt(2.0 * (mean_n + 0.5))
    a = abs(q)
    return 0.5 * (math.erfc((a - h) / c) - math.erfc((a + h) / c))


def bin_parabola(mean_n, q, h, intervals=200):
    """(p^2)_w averaged over [q-h, q+h] with the q-marginal as weight."""
    s2 = mean_n + 0.5
    num = den = 0.0
    for i in range(intervals + 1):
        x = q - h + 2.0 * h * i / intervals
        w = (1 if i in (0, intervals) else 4 if i % 2 else 2) * math.exp(-x * x / (2.0 * s2))
        num += w * parabola(mean_n, x)
        den += w
    return num / den


def close(value, ref, tol):
    return abs(value - ref) <= tol


def same_point(printed, ref):
    """A grid coordinate as printed with 12 significant digits."""
    return close(printed, ref, CSV_RTOL * max(1.0, abs(ref)))


def _header(text):
    """Split CLI CSV output into its '# key: value' header and data lines."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, val = line[2:].partition(": ")
            if sep:
                meta[key] = val
        else:
            lines.append(line)
    return meta, lines


class Checker:
    """Checks one operation at a time; keeps what cross-operation checks need."""

    def __init__(self):
        self.mh_refs = {}
        self.gaussian_estimates = {}
        self.max_residual = 0.0

    def check(self, op, rc, stdout):
        """Problems found in one operation's output; empty when it is right."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return getattr(self, "_" + op["kind"].replace("-", "_"))(op, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    # -- figures ----------------------------------------------------------

    def _mh_ref(self, mean_n):
        if mean_n not in self.mh_refs:
            axis = linspace(*MH_GRID)
            self.mh_refs[mean_n] = [[s_parts(mean_n, q, p) for p in axis] for q in axis]
        return self.mh_refs[mean_n]

    def _mh_common(self, op, meta, values, rtol):
        problems = []
        mean_n = op["mean_n"]
        if not close(float(meta["mean_n"]), mean_n, 1e-11 * max(mean_n, 1e-300)):
            problems.append(f"mean_n {meta['mean_n']} != {mean_n!r}")
        ref = self._mh_ref(mean_n)
        count = MH_GRID[2]
        if len(values) != count or any(len(row) != count for row in values):
            return problems + ["grid is not 201 x 201"]
        bad = 0
        for i in range(count):
            for j in range(count):
                re, mag = ref[i][j]
                if not close(values[i][j], re, rtol * mag):
                    bad += 1
        if bad:
            problems.append(f"{bad} values differ from Re S(q,p)")
        ref_min = min(re for row in ref for re, _ in row)
        peak = max(mag for row in ref for _, mag in row)
        if not close(float(meta["min_value"]), ref_min, CSV_RTOL * peak):
            problems.append(f"min_value {meta['min_value']} != {ref_min!r}")
        q_at, p_at = (float(t.split("=")[1]) for t in meta["argmin"].split())
        if not close(s_parts(mean_n, q_at, p_at)[0], ref_min, 1e-10 * peak):
            problems.append(f"argmin {meta['argmin']} is not a minimiser")
        return problems

    def _mh_grid(self, op, stdout):
        meta, lines = _header(stdout)
        if lines[0] != "q,p,value":
            return [f"unexpected columns {lines[0]!r}"]
        axis = linspace(*MH_GRID)
        count = MH_GRID[2]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != count * count:
            return [f"{len(rows)} rows, expected {count * count}"]
        problems = []
        values = []
        for i in range(count):
            row = []
            for j in range(count):
                q, p, v = rows[i * count + j]
                if not (same_point(float(q), axis[i]) and same_point(float(p), axis[j])):
                    problems.append(f"row {i * count + j} is at ({q}, {p})")
                    break
                row.append(float(v))
            values.append(row)
        return problems + self._mh_common(op, meta, values, CSV_RTOL)

    def _mh_grid_json(self, op, stdout):
        doc = json.loads(stdout)
        return self._mh_common(op, doc["meta"], doc["data"]["values"], JSON_RTOL)

    def _weakvalue_curve(self, op, stdout):
        meta, lines = _header(stdout)
        mean_n = op["mean_n"]
        cols = "q,closed-form,conditional-moment-integral,outside_threshold"
        if lines[0] != cols:
            return [f"unexpected columns {lines[0]!r}"]
        problems = []
        thr = threshold(mean_n)
        if not close(float(meta["threshold_q"]), thr, CSV_RTOL * thr):
            problems.append(f"threshold_q {meta['threshold_q']} != {thr!r}")
        axis = linspace(*CURVE_GRID)
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(axis):
            return problems + [f"{len(rows)} rows, expected {len(axis)}"]
        for q, (qs, closed, moment, flag) in zip(axis, rows):
            if not same_point(float(qs), q):
                problems.append(f"row at q={qs}, expected {q!r}")
                continue
            ref, scale = parabola(mean_n, q), parabola_scale(mean_n, q)
            closed, moment = float(closed), float(moment)
            if not close(closed, ref, CSV_RTOL * scale):
                problems.append(f"closed-form {closed!r} != {ref!r} at q={q!r}")
            if not close(moment, ref, MOMENT_RTOL * scale):
                problems.append(f"moment integral {moment!r} != {ref!r} at q={q!r}")
            if abs(abs(q) - thr) > THRESHOLD_MARGIN:
                beyond = abs(q) > thr
                if flag != ("1" if beyond else "0"):
                    problems.append(f"outside_threshold={flag} at q={q!r}")
                if beyond and not (closed < 0.0 and moment < 0.0):
                    problems.append(f"weak value not negative beyond threshold, q={q!r}")
                if not beyond and not (closed > 0.0 and moment > 0.0):
                    problems.append(f"weak value not positive inside threshold, q={q!r}")
        return problems

    def _probability_rows(self, pairs, rtol):
        axis = linspace(*PROB_GRID)
        if len(pairs) != len(axis):
            return [f"{len(pairs)} rows, expected {len(axis)}"]
        problems = []
        for n_ref, (n, prob) in zip(axis, pairs):
            ref = negativity_probability(n_ref)
            if not same_point(n, n_ref):
                problems.append(f"row at mean_n={n!r}, expected {n_ref!r}")
            elif not close(prob, ref, rtol * ref):
                problems.append(f"P={prob!r} != erfc reference {ref!r} at mean_n={n!r}")
        probs = [prob for _, prob in pairs]
        if any(b >= a for a, b in zip(probs, probs[1:])):
            problems.append("P(negative) does not fall as mean_n rises")
        return problems

    def _negativity_prob(self, op, stdout):
        _, lines = _header(stdout)
        if lines[0] != "mean_n,probability":
            return [f"unexpected columns {lines[0]!r}"]
        pairs = [tuple(float(t) for t in line.split(",")) for line in lines[1:]]
        return self._probability_rows(pairs, CSV_RTOL)

    def _negativity_prob_json(self, op, stdout):
        data = json.loads(stdout)["data"]
        return self._probability_rows(list(zip(data["mean_n"], data["probability"])), JSON_RTOL)

    def _verify(self, op, stdout):
        lines = stdout.splitlines()
        passes = [line for line in lines[:-1] if line.startswith("PASS ")]
        problems = []
        if len(passes) != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1:
            problems.append(f"expected {VERIFY_CHECKS} PASS lines, got {lines[:-1]!r}")
        if not lines or lines[-1] != "all checks passed":
            problems.append(f"last line {lines[-1] if lines else ''!r}")
        return problems

    # -- simulator --------------------------------------------------------

    def _simulate(self, op, stdout):
        doc = json.loads(stdout)
        meta, reports = doc["meta"], doc["data"]
        mean_n, q = op["mean_n"], op["q"]
        problems = []
        if meta["pointer"] != op["pointer"]:
            problems.append(f"pointer {meta['pointer']}")
        if not close(float(meta["mean_n"]), mean_n, 1e-11 * mean_n):
            problems.append(f"mean_n {meta['mean_n']} != {mean_n!r}")
        if not close(float(meta["postselect_q"]), q, 1e-11 * abs(q)):
            problems.append(f"postselect_q {meta['postselect_q']} != {q!r}")
        if [r["g"] for r in reports] != op["g"]:
            return problems + [f"couplings {[r['g'] for r in reports]} != {op['g']}"]
        h = bin_halfwidth(mean_n)
        ref_point, scale = parabola(mean_n, q), parabola_scale(mean_n, q)
        ref_bin = bin_parabola(mean_n, q, h)
        for r in reports:
            if not close(r["bin_halfwidth"], h, 1e-12 * h):
                problems.append(f"bin_halfwidth {r['bin_halfwidth']!r} != {h!r}")
            if not close(r["analytic_weak_value"], ref_point, 1e-12 * scale):
                problems.append(f"analytic {r['analytic_weak_value']!r} != {ref_point!r}")
            if not close(r["residual"], abs(r["estimated_weak_value"] - ref_point), 1e-12 * scale):
                problems.append(f"residual {r['residual']!r} is not |estimate - analytic|")
        last = reports[-1]
        est = last["estimated_weak_value"]
        # The weak-limit bias is first order in g; below about 2e-4 the
        # discretisation floor takes over, so the residual is measured from
        # the estimate at the smallest g, which is held to the reference below.
        steps = [abs(r["estimated_weak_value"] - est) for r in reports[:-1]]
        if any(b >= a for a, b in zip(steps, steps[1:])):
            problems.append(f"residuals do not shrink as g decreases: {steps}")
        error = abs(est - ref_bin)
        self.max_residual = max(self.max_residual, error)
        if error > SIM_ESTIMATE_TOL:
            problems.append(f"estimate {est!r} is {error:.3e} from the bin average {ref_bin!r}")
        mass = bin_mass(mean_n, q, h)
        prob = last["postselect_probability"]
        if not close(prob, mass, SIM_PROBABILITY_RTOL * mass):
            problems.append(f"postselection probability {prob!r} != bin mass {mass!r}")
        if op["qband"] == "beyond" and not est < 0.0:
            problems.append(f"estimate {est!r} is not negative beyond the threshold")
        if op["qband"] == "inside" and not est > 0.0:
            problems.append(f"estimate {est!r} is not positive inside the threshold")
        key = (mean_n, q, tuple(op["g"]))
        if op["pointer"] == "gaussian":
            self.gaussian_estimates[key] = est
        elif key in self.gaussian_estimates:
            other = self.gaussian_estimates.pop(key)
            if not close(est, other, POINTER_AGREEMENT_TOL):
                problems.append(f"thermal pointer {est!r} != Gaussian pointer {other!r}")
        return problems
