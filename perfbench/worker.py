"""Workload process: runs thermalweak CLI operations in-process on command.

Started by ``run.py``; talks JSON lines.  On stdout it sends ``ready`` once
set-up is done, then, for each pass it is told to run, one ``op`` line after
each operation and a ``pass`` line with the pass's time: the sum of the
operations' wall times, which leaves out the sending between operations.
The ``pass`` line also carries the times of the reference kernel
(``reference``), run between operations and outside their timing, for
REFERENCE_SHARE of the operations' time.
On stdin it reads ``{"cmd": "pass", "ops": [...], "traced": bool}`` or
``{"cmd": "stop"}``.  Between passes it waits for the next command, so the
checks that run.py makes never share the processor with a timed pass.

An ``op`` line carries the operation's captured stdout only when the op was
sent with ``full`` (its first run, which run.py checks); otherwise just its
digest.  So the worker holds one operation's output at a time, and its peak
resident size is the program's, not a pass's worth of buffered output.

Set-up is ``import thermalweak`` from ``<checkout>/src``.  The program builds
its grids and pointers inside each operation, so there is nothing else to
build ahead of the first one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Time spent on reference samples, as a share of the operations' time.
REFERENCE_SHARE = 0.3
#: Rows of the reference kernel's array per workload: the size of the
#: workload's heaviest numpy temporaries (the simulator's 4096 x 1025
#: interaction phase; the figure pipeline's grids of about 40 000 to 640 000
#: points), so that the reference meets the same contention for caches and
#: memory as the operations.
REFERENCE_ROWS = {"sim-sweep": 4096, "sim-pointers": 4096, "figures": 256}


def send(obj, out):
    out.write(json.dumps(obj) + "\n")
    out.flush()


def import_program():
    """Import thermalweak from this checkout's src; refuse any other copy."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import thermalweak
    import thermalweak.cli

    elapsed = time.perf_counter() - start
    here = os.path.realpath(os.path.dirname(thermalweak.__file__))
    if os.path.dirname(here) != os.path.realpath(SRC):
        raise ImportError(f"thermalweak imported from {here}, not from {SRC}")
    return thermalweak, elapsed


def reference_kernel(np, rows):
    """Time fixed work that uses no code of the program, to gauge the
    machine's speed: exp of a rows x 1025 complex phase, like the
    simulator's interaction phase (about 0.15 s at 4096 rows)."""
    p = np.linspace(-20.0, 20.0, rows)
    k = np.linspace(-30.0, 30.0, 1025)
    start = time.perf_counter()
    np.exp(-0.01j * np.outer(p * p, k))
    return time.perf_counter() - start


def run_op(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash of the program is a failed operation
            rc, error = None, traceback.format_exc()
    return rc, stdout.getvalue(), stderr.getvalue(), error


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    out = sys.stdout
    sys.stdout = sys.stderr  # nothing but protocol lines on the pipe

    tw, import_s = import_program()
    send({"event": "ready", "import_s": import_s}, out)
    if args.setup_only:
        return 0

    import numpy as np

    tracer = None
    spans = []
    rows = REFERENCE_ROWS[args.workload]
    owed = 0.0  # reference time still due for the operations run so far
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "stop":
            break
        if cmd["traced"] and tracer is None:
            from layertrace import Tracer

            tracer = Tracer(tw)
        if cmd["traced"]:
            tracer.reset()
            tracer.install()
        seconds = 0.0
        reference = []
        for op in cmd["ops"]:
            start = time.perf_counter()
            rc, stdout, stderr, error = run_op(tw.cli, op["argv"])
            op_seconds = time.perf_counter() - start
            seconds += op_seconds
            msg = {
                "event": "op",
                "rc": rc,
                "digest": hashlib.sha256(stdout.encode()).hexdigest(),
                "stderr": stderr,
                "error": error,
            }
            if op["full"]:
                msg["stdout"] = stdout
            del stdout
            send(msg, out)
            del msg
            owed += REFERENCE_SHARE * op_seconds
            while owed > 0.0:
                reference.append(reference_kernel(np, rows))
                owed -= reference[-1]
        layers = None
        if cmd["traced"]:
            tracer.uninstall()
            layers = tracer.layer_metrics()
            spans.append(tracer.dump())
        send({"event": "pass", "seconds": seconds, "reference": reference, "layers": layers}, out)

    if args.trace_file and spans:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "passes": spans}, fh)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send({"event": "done", "peak_rss_mb": peak_kb / 1024.0}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
