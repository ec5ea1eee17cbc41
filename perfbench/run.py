#!/usr/bin/env python3
"""Benchmark of thermalweak: the measurement simulator and the figure pipeline.

    python3 perfbench/run.py --workload {sim-sweep,sim-pointers,figures}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One closed-loop client: a workload process
(worker.py) runs thermalweak CLI operations in-process, one after another,
in passes over a fixed list of operations; this process makes the inputs
from the seed, checks every output against references computed apart from
the program (checks.py), and prints the metrics.  It uses the Python
standard library only.

--trace 0 prints the end-to-end metrics:
  setup_s      median over 5 fresh processes (the measuring one and 4
               set-up-only ones started between passes) of the time from
               spawning the workload process until it reports ready
  pass_ref     time of one pass in units of the reference kernel's time:
               the mean over the run's passes of a pass's time (the sum of
               its operations' wall times) over the mean time of the
               reference kernel, a numpy exp of a complex array as large as
               the workload's heaviest, which the workload process runs
               between operations for 30 % of their time
  peak_rss_mb  peak resident size of the workload process
The machine's processor speed flips between a fast and a slow state within
seconds, and the share of slow time moves by tens of per cent from minute to
minute.  The reference kernel uses no code of the program, and it is sampled
over the same stretch of time as the operations, so the ratio of the two
means keeps the program's speed and drops the machine's.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (layertrace.py), each the median over the traced passes.  A traced
run fails when the self times of a traced pass leave more than
TRACE_GAP_SHARE of the pass unaccounted.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A failed operation exits non-zero, raises, or fails a
check; ``correct`` is false when an operation produced a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import Checker
from workloads import WORKLOADS, pass_ops

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Set-up-only processes, started between passes and spread over the run;
#: the workload process's own set-up is one more sample.
SETUP_PROBES = 4
#: Share of a traced pass that its spans' self times may leave unaccounted
#: (time in the harness around each operation, outside cli.main).
TRACE_GAP_SHARE = 0.05

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "pass_s": "s",
    "reference_s": "s",
    "import_s": "s",
    "numerics.hermite_psi_table.calls": "count",
    "numerics.hermite_psi_table.values": "count",
    "numerics.hermite_psi_table.self_s": "s",
    "numerics.fourier.calls": "count",
    "numerics.fourier.self_s": "s",
    "numerics.integrate.self_s": "s",
    "states.fock_components": "count",
    "quasiprob.s_closed.points": "count",
    "quasiprob.s_closed.self_s": "s",
    "quasiprob.oracles.self_s": "s",
    "weakvalues.moment_weak_integral.calls": "count",
    "weakvalues.moment_weak_integral.self_s": "s",
    "weakvalues.hamiltonian_weak.self_s": "s",
    "weakvalues.negativity_probability.self_s": "s",
    "measurement.simulate_weak_p2.calls": "count",
    "measurement.simulate_weak_p2.self_s": "s",
    "measurement.pointer_components": "count",
    "measurement.pointer_build_s": "s",
    "measurement.max_residual": "ratio",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A workload process and its JSON-lines pipes."""

    def __init__(self, workload, setup_only=False, trace_file=None):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload]
        if setup_only:
            cmd.append("--setup-only")
        if trace_file:
            cmd += ["--trace-file", trace_file]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self.read("ready")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def read_line(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise WorkerError(f"workload process ended (exit code {self.proc.returncode})")
        return line

    def read(self, event, line=None):
        msg = json.loads(line or self.read_line())
        if msg["event"] != event:
            raise WorkerError(f"expected {event!r}, got {msg['event']!r}")
        return msg

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def finish(self):
        self.send({"cmd": "stop"})
        done = self.read("done")
        self.close()
        return done

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.wait() != 0:
            raise WorkerError(f"workload process exit code {self.proc.returncode}")


class Run:
    """The passes of one run and the tally of their operations."""

    def __init__(self, args, worker):
        self.args = args
        self.worker = worker
        self.checker = Checker()
        self.first_digest = {}  # argv -> (digest, output was right)
        self.pass_index = 0
        self.attempted = self.failed = self.wrong = 0
        self.times = {False: [], True: []}
        self.reference = []
        self.layers = []

    def one_pass(self, traced):
        ops = pass_ops(self.args.workload, self.args.seed, self.pass_index)
        self.pass_index += 1
        wire = [{"argv": op["argv"], "full": tuple(op["argv"]) not in self.first_digest} for op in ops]
        self.worker.send({"cmd": "pass", "ops": wire, "traced": traced})
        # Op lines arrive while the pass runs; they are parsed after it, so
        # that this process takes no processor time from the timed pass.
        lines = [self.worker.read_line() for _ in ops]
        done = self.worker.read("pass")
        msgs = [self.worker.read("op", line) for line in lines]
        for op, msg in zip(ops, msgs):
            self.tally(op, msg)
        self.times[traced].append(done["seconds"])
        self.reference += done["reference"]
        if traced:
            self.layers.append(done["layers"] | {"traced_pass_s": done["seconds"]})
        return done["seconds"]

    def tally(self, op, msg):
        self.attempted += 1
        key = tuple(op["argv"])
        if msg["error"] is not None:
            problems, wrong = [msg["error"].strip().splitlines()[-1]], False
        elif key in self.first_digest:
            digest, right = self.first_digest[key]
            if msg["digest"] != digest:
                problems, wrong = ["output differs from the first pass"], True
            else:
                problems, wrong = ([] if right else ["output was wrong in the first pass"]), not right
        else:
            problems = self.checker.check(op, msg["rc"], msg["stdout"])
            wrong = bool(problems) and msg["rc"] == 0
            self.first_digest[key] = (msg["digest"], not problems)
        if problems:
            self.failed += 1
            self.wrong += wrong
            print(f"FAILED {' '.join(op['argv'])}: {'; '.join(problems[:5])}", file=sys.stderr)

    def measure(self, budget, pattern, probes=0, probe=None):
        """Whole rounds of passes, traced or not as ``pattern`` says, while
        the next round is expected to fit in the budget.  ``probe`` is called
        ``probes`` times between rounds, spread evenly over the budget."""
        spent = 0.0
        done = 0
        while True:
            last = sum(self.one_pass(traced) for traced in pattern)
            spent += last
            while done < probes and spent >= (done + 1) * budget / (probes + 1):
                probe()
                done += 1
            if spent + last > budget:
                break
        for _ in range(done, probes):
            probe()


def per_layer(run, import_s):
    metrics = {
        "pass_s": statistics.median(run.times[False]),
        "reference_s": statistics.fmean(run.reference),
        "import_s": import_s,
    }
    for name, unit in PER_LAYER_UNITS.items():
        if name in run.layers[0]:
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(layers[name] for layers in run.layers)
    metrics["measurement.max_residual"] = run.checker.max_residual
    metrics["trace.overhead_s"] = statistics.median(run.times[True]) - statistics.median(
        run.times[False]
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = os.path.join(OUT_DIR, f"spans-{tag}.json") if args.trace else None
    workers = []
    setup = []

    def probe():
        setup_only = Worker(args.workload, setup_only=True)
        workers.append(setup_only)
        setup.append(setup_only.setup_s)
        setup_only.close()

    try:
        worker = Worker(args.workload, trace_file=trace_file)
        workers.append(worker)
        setup.append(worker.setup_s)
        run = Run(args, worker)
        # Traced passes alternate with untraced ones, so that a drift in the
        # machine's speed falls on both alike.
        if args.trace:
            run.measure(args.seconds, (False, True))
        else:
            run.measure(args.seconds, (False,), SETUP_PROBES, probe)
        done = worker.finish()
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers:
            if w.proc.poll() is None:
                w.proc.kill()
                w.proc.wait()

    gap_ok = True
    for layers in run.layers:
        gap = layers["traced_pass_s"] - layers["trace.self_total_s"]
        gap_ok &= abs(gap) <= TRACE_GAP_SHARE * layers["traced_pass_s"]
        print(
            f"trace: self times sum to {layers['trace.self_total_s']:.4f} s of a traced "
            f"pass of {layers['traced_pass_s']:.4f} s ({layers['trace.spans']} spans), "
            f"{gap:.4f} s unaccounted"
        )
    if not gap_ok:
        print(
            f"benchmark aborted: the trace leaves more than {TRACE_GAP_SHARE:.0%} "
            "of a traced pass unaccounted",
            file=sys.stderr,
        )
        return 1

    if args.trace:
        values = per_layer(run, worker.ready["import_s"])
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_ref": statistics.fmean(run.times[False]) / statistics.fmean(run.reference),
            "peak_rss_mb": done["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "pass_s_untraced": run.times[False],
        "pass_s_traced": run.times[True],
        "reference_s": run.reference,
        "layers_per_pass": run.layers,
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"untraced passes: {len(run.times[False])}, mean {statistics.fmean(run.times[False]):.4f} s; "
        f"reference kernel: {len(run.reference)} samples, mean {statistics.fmean(run.reference):.5f} s"
    )
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
