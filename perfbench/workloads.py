"""Seeded inputs for the three workloads.

Every draw falls inside a fixed band, chosen so that the work of a pass does
not depend on the seed: occupations are drawn inside bands where the number
of Fock components the simulator sums is constant, and postselection points
are drawn as fixed multiples of the negativity threshold.  Only the Python
standard library is used, so inputs are made without importing the program.

An operation is a dict with the CLI argument list (``argv``) and the facts
its checks need (``kind`` plus the drawn values).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sim-sweep", "sim-pointers", "figures")

G_SWEEP = (0.2, 0.1, 0.05, 0.01)
G_POINTERS = 0.01
#: The simulator keeps Fock components until the discarded tail is below
#: this weight (``measurement.simulate_weak_p2``'s default).
FOCK_TAIL_TOL = 1e-12

#: Occupation bands of the simulated objects, with the Fock-component count
#: that holds over the whole band.  "vacuum" stays below 1e-13, so it is a
#: one-component state whose (mean_n, g) still never repeats within a run.
#: The simulator spends about 0.2 s per Fock component and coupling, so the
#: bands stay small: a run holds several passes, and the reference kernel
#: that the worker runs between operations stays close in time to the work
#: it gauges.
OBJECT_BANDS = {
    "vacuum": (1e-14, 1e-13, 1),
    "few": (2.5e-4, 8e-4, 4),
}
#: Postselection point as a multiple of the threshold sqrt(s2 + 4 s2^3).
Q_BANDS = {"beyond": (1.15, 1.35), "inside": (0.3, 0.7)}

#: (object band, postselection band) of each simulate call in one pass.
SIM_SWEEP_OBJECTS = (("vacuum", "beyond"), ("few", "inside"))
SIM_POINTERS_OBJECTS = (("vacuum", "inside"), ("few", "beyond"))

#: Occupation bands of the figure data sets, two draws from each.
FIGURE_BANDS = ((0.0, 0.02), (0.02, 0.1), (0.1, 0.5), (0.5, 2.0))


def fock_components(mean_n: float) -> int:
    """Number of geometric Fock weights kept for a discarded tail of FOCK_TAIL_TOL."""
    if mean_n == 0.0:
        return 1
    ratio = mean_n / (1.0 + mean_n)
    return max(0, math.ceil(math.log(FOCK_TAIL_TOL) / math.log(ratio)) - 1) + 1


def threshold(mean_n: float) -> float:
    s2 = mean_n + 0.5
    return math.sqrt(s2 + 4.0 * s2**3)


def _rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _draw_object(rng: random.Random, band: str, qband: str):
    lo, hi, count = OBJECT_BANDS[band]
    mean_n = rng.uniform(lo, hi)
    if fock_components(mean_n) != count:
        raise AssertionError(f"band {band} left its component count at {mean_n!r}")
    qlo, qhi = Q_BANDS[qband]
    q = rng.choice((-1.0, 1.0)) * rng.uniform(qlo, qhi) * threshold(mean_n)
    return mean_n, q


def _fmt(x: float) -> str:
    return repr(float(x))


def _simulate(mean_n, q, qband, extra, g_list, pointer):
    return {
        "kind": "simulate",
        "argv": ["simulate", "--mean-n", _fmt(mean_n), "--q", _fmt(q), *extra],
        "mean_n": mean_n,
        "q": q,
        "qband": qband,
        "g": list(g_list),
        "pointer": pointer,
    }


def sim_sweep_ops(seed: int, pass_index: int):
    rng = _rng(seed, "sim-sweep", pass_index)
    ops = []
    for band, qband in SIM_SWEEP_OBJECTS:
        mean_n, q = _draw_object(rng, band, qband)
        extra = ["--g-sweep", *(_fmt(g) for g in G_SWEEP)]
        ops.append(_simulate(mean_n, q, qband, extra, G_SWEEP, "gaussian"))
    return ops


def sim_pointers_ops(seed: int, pass_index: int):
    rng = _rng(seed, "sim-pointers", pass_index)
    ops = []
    for band, qband in SIM_POINTERS_OBJECTS:
        mean_n, q = _draw_object(rng, band, qband)
        for pointer in ("gaussian", "thermal"):
            extra = ["--g", _fmt(G_POINTERS), "--pointer", pointer]
            ops.append(_simulate(mean_n, q, qband, extra, [G_POINTERS], pointer))
    return ops


def figures_ops(seed: int):
    rng = _rng(seed, "figures", 0)
    ops = []
    for lo, hi in FIGURE_BANDS:
        for _ in range(2):
            mean_n = rng.uniform(lo, hi)
            n = _fmt(mean_n)
            ops += [
                {"kind": "mh-grid", "argv": ["mh-grid", "--mean-n", n], "mean_n": mean_n},
                {
                    "kind": "mh-grid-json",
                    "argv": ["mh-grid", "--mean-n", n, "--format", "json"],
                    "mean_n": mean_n,
                },
                {
                    "kind": "weakvalue-curve",
                    "argv": ["weakvalue-curve", "--mean-n", n, "--method", "both"],
                    "mean_n": mean_n,
                },
            ]
    ops += [
        {"kind": "negativity-prob", "argv": ["negativity-prob"]},
        {"kind": "negativity-prob-json", "argv": ["negativity-prob", "--format", "json"]},
        {"kind": "verify", "argv": ["verify"]},
    ]
    return ops


def pass_ops(workload: str, seed: int, pass_index: int):
    """Operations of one pass.

    The simulator workloads draw fresh objects for every pass, so no
    (mean_n, g) object side repeats across passes; the figures workload
    repeats the same operations each pass, so their outputs can be compared
    byte for byte.
    """
    if workload == "sim-sweep":
        return sim_sweep_ops(seed, pass_index)
    if workload == "sim-pointers":
        return sim_pointers_ops(seed, pass_index)
    if workload == "figures":
        return figures_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
