#!/usr/bin/env python3
"""Self-test of the benchmark: its checks pass on real output and fail on
corrupted output.

    python3 perfbench/selftest.py

1. A short run of every workload (one pass each) ends with 0 failed
   operations, and a short traced run prints every per-layer metric.
2. Real outputs of each kind of operation pass their checks; the same
   outputs, corrupted, fail them.  For ``verify`` the corruption is
   ``verify --inject-fault normalization``.  An output that differs from
   the first pass's counts as a failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/ the benchmark
   exits non-zero without printing a result.

Exits 0 when every part holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

from checks import Checker  # noqa: E402
from run import PER_LAYER_UNITS, Run  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def short_runs():
    for workload in workloads.WORKLOADS:
        out = bench(workload, 0)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(
            out.returncode == 0 and result["correct"] and result["failed"] == 0,
            f"short {workload} run: {result['attempted']} attempted, {result['failed']} failed",
        )
    out = bench("figures", 1)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expect(set(result["metrics"]) == set(PER_LAYER_UNITS), "traced run prints every per-layer metric")


def cli_output(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from thermalweak import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check(op, rc, stdout, checker=None):
    return (checker or Checker()).check(op, rc, stdout)


def corrupt_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def negate_last_field(line):
    head, _, last = line.rpartition(",")
    return f"{head},{-float(last)!r}"


def corruptions():
    ops = {op["kind"]: op for op in workloads.figures_ops(7)}
    for kind, op in ops.items():
        if kind == "verify":
            continue
        rc, out = cli_output(op["argv"])
        expect(check(op, rc, out) == [], f"real {kind} output passes")
        if kind == "mh-grid":
            bad = corrupt_line(out, 20_000, negate_last_field)
        elif kind == "mh-grid-json":
            doc = json.loads(out)
            doc["data"]["values"][100][37] *= 1.0 + 1e-9
            bad = json.dumps(doc)
        elif kind == "weakvalue-curve":
            bad = corrupt_line(out, 10, lambda line: line[:-1] + ("1" if line[-1] == "0" else "0"))
        elif kind == "negativity-prob":
            bad = corrupt_line(out, 30, lambda line: line.replace(",", ",1", 1))
        else:
            doc = json.loads(out)
            doc["data"]["probability"][3] = doc["data"]["probability"][4]
            bad = json.dumps(doc)
        expect(check(op, rc, bad) != [], f"corrupted {kind} output fails")

    op = ops["verify"]
    rc, out = cli_output(op["argv"])
    expect(check(op, rc, out) == [], "real verify output passes")
    rc, out = cli_output(op["argv"] + ["--inject-fault", "normalization"])
    expect(check(op, rc, out) != [], "verify --inject-fault normalization fails")
    expect(check(op, 0, out) != [], "a FAIL line fails even with exit code 0")

    sweep = workloads.sim_sweep_ops(7, 0)[0]
    rc, out = cli_output(sweep["argv"])
    expect(check(sweep, rc, out) == [], "real simulate sweep output passes")
    for what, edit in (
        ("estimate at smallest g", lambda r: r[-1].update(estimated_weak_value=r[-1]["estimated_weak_value"] + 2e-3)),
        ("non-shrinking residuals", lambda r: r[1].update(estimated_weak_value=r[0]["estimated_weak_value"])),
        ("postselection probability", lambda r: r[-1].update(postselect_probability=r[-1]["postselect_probability"] * 1.01)),
    ):
        doc = json.loads(out)
        edit(doc["data"])
        expect(check(sweep, rc, json.dumps(doc)) != [], f"corrupted simulate {what} fails")

    gaussian, thermal = workloads.sim_pointers_ops(7, 0)[:2]
    checker = Checker()
    rc, out = cli_output(gaussian["argv"])
    expect(check(gaussian, rc, out, checker) == [], "real Gaussian-pointer output passes")
    rc, out = cli_output(thermal["argv"])
    doc = json.loads(out)
    doc["data"][0]["estimated_weak_value"] += 2e-3
    expect(check(thermal, rc, json.dumps(doc), checker) != [], "pointer disagreement fails")

    run = Run(types.SimpleNamespace(workload="figures", seed=7), worker=None)
    op = ops["negativity-prob"]
    rc, out = cli_output(op["argv"])
    msg = {"rc": rc, "stdout": out, "digest": "a", "error": None}
    run.tally(op, msg)
    run.tally(op, msg | {"digest": "b"})
    expect(run.failed == 1 and run.wrong == 1, "output differing from the first pass fails")


def bare_directory():
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = bench("figures", 0, cwd=bare)
    shutil.rmtree(bare)
    last = (out.stdout.strip().splitlines() or [""])[-1]
    expect(out.returncode != 0 and not last.startswith("{"), "bare directory: non-zero exit, no result")


def main():
    short_runs()
    corruptions()
    bare_directory()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
