"""Command-line surface: reproduces the figure data (Margenau-Hill grids,
weak-value curves, negativity-probability curve), prints blackbody
occupation numbers, runs the measurement simulator and the cross-check
verification suite.

All output is deterministic byte-for-byte for identical flags; dimensionless
quantities are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__
from .numerics import TRAPEZOID_LOG_TARGET, Grid1D, integrate, trapezoid_count
from .states import (
    BlackbodyMode,
    ThermalState,
    occupation_number,
    q_marginal_pdf,
    wien_peak_occupation,
)
from .quasiprob import eval_grid, s_closed, s_oracle_fock, s_oracle_pintegral
from .weakvalues import (
    hamiltonian_weak,
    moment_weak_integral,
    negativity_probability,
    negativity_threshold,
    p2_weak_closed,
    p2_weak_curve,
)
from .measurement import (
    CouplingConfig,
    convergence_sweep,
    default_bin_halfwidth,
    gaussian_pointer,
    simulate_weak_p2,
    thermal_pointer,
    DEFAULT_POINTER_GRID,
    DEFAULT_POINTER_WIDTH,
)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _open_out(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _emit(lines, out_path, no_header, meta):
    """Write CSV lines (first entry is the column header) to a file/stdout."""
    with _open_out(out_path) as fh:
        if not no_header:
            fh.write(f"# thermalweak {__version__}\n")
            for key, val in meta.items():
                fh.write(f"# {key}: {val}\n")
        for line in lines:
            fh.write(line + "\n")


def _emit_json(meta, data, out_path):
    with _open_out(out_path) as fh:
        json.dump({"meta": meta, "data": data}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_mh_grid(args) -> int:
    state = ThermalState(args.mean_n)
    qgrid = Grid1D(args.qmin, args.qmax, args.count)
    pgrid = Grid1D(args.pmin, args.pmax, args.count)
    values = eval_grid(state, qgrid, pgrid, "margenau-hill")
    imin = np.unravel_index(np.argmin(values), values.shape)
    meta = {
        "subcommand": "mh-grid",
        "mean_n": _fmt(args.mean_n),
        "qgrid": f"[{_fmt(args.qmin)}, {_fmt(args.qmax)}] x {args.count}",
        "pgrid": f"[{_fmt(args.pmin)}, {_fmt(args.pmax)}] x {args.count}",
        "min_value": _fmt(values.min()),
        "argmin": f"q={_fmt(qgrid.points()[imin[0]])} p={_fmt(pgrid.points()[imin[1]])}",
    }
    if args.format == "json":
        _emit_json(meta, {"values": values.tolist()}, args.out)
        return 0
    lines = ["q,p,value"]
    p_texts = [_fmt(pv) for pv in pgrid.points()]
    for qv, row in zip(qgrid.points(), values.tolist()):
        q_text = _fmt(qv)
        lines.extend(f"{q_text},{p_text},{v:.12g}" for p_text, v in zip(p_texts, row))
    _emit(lines, args.out, args.no_header, meta)
    return 0


def cmd_weakvalue_curve(args) -> int:
    state = ThermalState(args.mean_n)
    qgrid = Grid1D(args.qmin, args.qmax, args.count)
    thr = negativity_threshold(state)
    methods = (
        ["closed-form", "conditional-moment-integral"]
        if args.method == "both"
        else [args.method]
    )
    curves = [p2_weak_curve(state, qgrid, m) for m in methods]
    meta = {
        "subcommand": "weakvalue-curve",
        "mean_n": _fmt(args.mean_n),
        "qgrid": f"[{_fmt(args.qmin)}, {_fmt(args.qmax)}] x {args.count}",
        "threshold_q": _fmt(thr),
        "methods": ";".join(methods),
    }
    if args.format == "json":
        data = {
            "q": qgrid.points().tolist(),
            **{m: c.tolist() for m, c in zip(methods, curves)},
        }
        _emit_json(meta, data, args.out)
        return 0
    lines = [",".join(["q", *methods, "outside_threshold"])]
    for i, qv in enumerate(qgrid.points()):
        row = [_fmt(qv)] + [_fmt(c[i]) for c in curves]
        row.append("1" if abs(qv) >= thr else "0")
        lines.append(",".join(row))
    _emit(lines, args.out, args.no_header, meta)
    return 0


def cmd_negativity_prob(args) -> int:
    if not (0.0 <= args.mean_n_min < args.mean_n_max):
        raise ValueError("require 0 <= min < max for the occupation range")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    grid = np.linspace(args.mean_n_min, args.mean_n_max, args.steps)
    probs = [negativity_probability(ThermalState(n), "closed") for n in grid]
    meta = {
        "subcommand": "negativity-prob",
        "range": f"[{_fmt(args.mean_n_min)}, {_fmt(args.mean_n_max)}] x {args.steps}",
    }
    if args.format == "json":
        _emit_json(meta, {"mean_n": grid.tolist(), "probability": probs}, args.out)
        return 0
    lines = ["mean_n,probability", *(f"{_fmt(n)},{_fmt(p)}" for n, p in zip(grid, probs))]
    _emit(lines, args.out, args.no_header, meta)
    return 0


def cmd_occupation(args) -> int:
    if args.wien is not None:
        nbar = wien_peak_occupation(f"{args.wien}-peak")
        print(f"convention: {args.wien}-peak")
    else:
        if args.omega is not None:
            omega = args.omega
        elif args.frequency is not None:
            omega = 2.0 * math.pi * args.frequency
        else:
            raise ValueError("provide --omega, --frequency or --wien")
        if args.temperature is None:
            raise ValueError("provide --temperature with --omega/--frequency")
        nbar = occupation_number(BlackbodyMode(omega, args.temperature))
    print(f"mean_n = {_fmt(nbar)}")
    print(f"sigma2 = {_fmt(nbar + 0.5)}")
    return 0


def _build_pointer(args):
    grid = DEFAULT_POINTER_GRID
    if args.pointer == "gaussian":
        return gaussian_pointer(grid, args.pointer_width)
    return thermal_pointer(grid, args.pointer_mean_n, args.pointer_width)


def _report_dict(rep):
    return {
        "estimated_weak_value": float(rep.estimated_weak_value),
        "analytic_weak_value": float(rep.analytic_weak_value),
        "g": float(rep.g_used),
        "postselect_probability": float(rep.postselect_probability),
        "residual": float(rep.residual),
        "bin_halfwidth": float(rep.bin_halfwidth),
    }


def cmd_simulate(args) -> int:
    state = ThermalState(args.mean_n)
    pointer = _build_pointer(args)
    bw = default_bin_halfwidth(state) if args.bin_halfwidth is None else args.bin_halfwidth
    if args.g_sweep:
        reports = convergence_sweep(state, pointer, args.q, args.g_sweep, bin_halfwidth=bw)
    else:
        cfg = CouplingConfig(g=args.g, postselect_q=args.q, bin_halfwidth=bw)
        reports = [simulate_weak_p2(state, pointer, cfg)]
    meta = {
        "subcommand": "simulate",
        "mean_n": _fmt(args.mean_n),
        "postselect_q": _fmt(args.q),
        "pointer": args.pointer,
    }
    _emit_json(meta, [_report_dict(r) for r in reports], args.out)
    return 0


def _verify_checks(rng):
    """Cross-oracle suite; yields (name, max_error, tolerance)."""
    # Closed form against the Fock-sum oracle.
    err = 0.0
    for _ in range(40):
        state = ThermalState(rng.uniform(0.0, 2.0))
        q, p = rng.uniform(-5.0, 5.0, size=2)
        err = max(err, abs(s_closed(state, q, p) - s_oracle_fock(state, q, p)))
    yield "s_closed_vs_fock_oracle", err, 1e-8

    # Closed form against the P-integral oracle.
    err = 0.0
    for nbar in (0.01, 0.5, 1.0):
        state = ThermalState(nbar)
        for q, p in ((0.0, 0.0), (1.0, -2.0), (2.0, 2.0)):
            err = max(err, abs(s_closed(state, q, p) - s_oracle_pintegral(state, q, p)))
    yield "s_closed_vs_pintegral_oracle", err, 1e-6

    # Conditional-moment integral against the closed-form weak value.
    err = 0.0
    q = np.linspace(-5.0, 5.0, 11)
    for nbar in (0.0, 0.01, 0.3, 1.0):
        state = ThermalState(nbar)
        gap = moment_weak_integral(state, 2, q) - p2_weak_closed(state, q)
        err = max(err, float(np.max(np.abs(gap))))
    yield "moment_integral_vs_closed", err, 1e-8

    # Energy-route identity 2*H_w - q^2 = (p^2)_w.
    err = max(
        abs(2.0 * hamiltonian_weak(state, q) - q * q - p2_weak_closed(state, q))
        for state in map(ThermalState, (0.0, 0.01, 0.3, 1.0))
        for q in np.linspace(-5.0, 5.0, 11)
    )
    yield "hamiltonian_identity", err, 1e-8

    # Closed-form negativity probability against tail quadrature.
    err = max(
        abs(negativity_probability(state) - negativity_probability(state, "quadrature"))
        for state in map(ThermalState, np.linspace(0.0, 2.0, 9))
    )
    yield "negativity_prob_closed_vs_quadrature", err, 1e-9

    # Marginal of S over p, over +-12 std sqrt((1+4*sigma2^2)/(4*sigma2)) of Re S in p.
    err = 0.0
    for nbar in (0.01, 0.5, 1.0):
        state = ThermalState(nbar)
        half = 12.0 * math.sqrt((1.0 + 4.0 * state.sigma2**2) / (4.0 * state.sigma2))
        pgrid = Grid1D(-half, half, 801)
        for q in (-2.0, 0.0, 1.5):
            marg = integrate(np.real(s_closed(state, q, pgrid.points())), pgrid)
            err = max(err, abs(marg - q_marginal_pdf(state, q)))
    yield "marginal_consistency", err, 1e-8

    # Normalization of S over the plane: exp(-a*v^2) per axis, a = 2*sigma2/D, D = 1+4*sigma2^2,
    # phase frequency <= 2*half/D: on +-sqrt(ln(1e16)/a) both bounds are 1e-16, 33-48 nodes.
    err = 0.0
    for nbar in (0.01, 0.5, 1.0):
        state = ThermalState(nbar)
        denom = 1.0 + 4.0 * state.sigma2**2
        a = 2.0 * state.sigma2 / denom
        half = math.sqrt(TRAPEZOID_LOG_TARGET / a)
        grid = Grid1D(-half, half, trapezoid_count(half, 2.0 * half / denom, a))
        v = grid.points()
        total = integrate(integrate(np.real(s_closed(state, v[:, None], v[None, :])), grid), grid)
        err = max(err, abs(total - 1.0))
    yield "normalization", err, 1e-8


def cmd_verify(args) -> int:
    results = list(_verify_checks(np.random.default_rng(20060101)))
    names = [name for name, _, _ in results]
    if args.inject_fault is not None and args.inject_fault not in names:
        raise ValueError(
            f"unknown check {args.inject_fault!r} for --inject-fault; "
            f"expected one of: {', '.join(names)}"
        )
    failed = []
    for name, err, tol in results:
        if args.inject_fault == name:
            err = err + 10.0 * tol
        ok = err < tol
        print(f"{'PASS' if ok else 'FAIL'} {name} (max_err={err:.3e}, tol={tol:.0e})")
        if not ok:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}")
        return 1
    print("all checks passed")
    return 0


def _add_io_flags(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--no-header", action="store_true", help="omit comment header lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalweak",
        description="Quasi-probability and weak-value calculators for thermal radiation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mh-grid", help="dense Margenau-Hill grid")
    sp.add_argument("--mean-n", dest="mean_n", type=float, required=True)
    sp.add_argument("--qmin", type=float, default=-4.0)
    sp.add_argument("--qmax", type=float, default=4.0)
    sp.add_argument("--pmin", type=float, default=-4.0)
    sp.add_argument("--pmax", type=float, default=4.0)
    sp.add_argument("--count", type=int, default=201, help="points per axis")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_mh_grid)

    sp = sub.add_parser("weakvalue-curve", help="weak value of p^2 along q")
    sp.add_argument("--mean-n", dest="mean_n", type=float, required=True)
    sp.add_argument("--qmin", type=float, default=-5.0)
    sp.add_argument("--qmax", type=float, default=5.0)
    sp.add_argument("--count", type=int, default=201)
    sp.add_argument(
        "--method",
        choices=("closed-form", "conditional-moment-integral", "both"),
        default="closed-form",
    )
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_weakvalue_curve)

    sp = sub.add_parser("negativity-prob", help="P(negative weak value) vs mean_n")
    sp.add_argument("--mean-n-min", dest="mean_n_min", type=float, default=0.0)
    sp.add_argument("--mean-n-max", dest="mean_n_max", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=50)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_negativity_prob)

    sp = sub.add_parser("occupation", help="blackbody occupation number")
    sp.add_argument("--omega", type=float, default=None, help="angular frequency, rad/s")
    sp.add_argument("--frequency", type=float, default=None, help="frequency, Hz")
    sp.add_argument("--temperature", type=float, default=None, help="temperature, K")
    sp.add_argument("--wien", choices=("wavelength", "frequency"), default=None)
    sp.set_defaults(func=cmd_occupation)

    sp = sub.add_parser("simulate", help="weak-measurement simulator")
    sp.add_argument("--mean-n", dest="mean_n", type=float, required=True)
    sp.add_argument("--q", type=float, required=True, help="postselection point")
    sp.add_argument("--g", type=float, default=0.01, help="coupling strength")
    sp.add_argument(
        "--g-sweep",
        dest="g_sweep",
        type=float,
        nargs="+",
        default=None,
        help="strictly decreasing list of couplings",
    )
    sp.add_argument("--pointer", choices=("gaussian", "thermal"), default="gaussian")
    sp.add_argument(
        "--pointer-width",
        dest="pointer_width",
        type=float,
        default=DEFAULT_POINTER_WIDTH,
        help="gaussian width / thermal scale",
    )
    sp.add_argument("--pointer-mean-n", dest="pointer_mean_n", type=float, default=0.3)
    sp.add_argument("--bin-halfwidth", dest="bin_halfwidth", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the cross-oracle verification suite")
    sp.add_argument(
        "--inject-fault",
        dest="inject_fault",
        default=None,
        help="perturb the named check to exercise failure reporting",
    )
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
