"""Outside-in layer trace of thermalweak.

``Tracer.install`` replaces the public functions of each layer module with
timing wrappers, in the module that defines them and in every module that
imported them by name (for example ``measurement``'s ``q_to_p_transform``),
so calls between layers become nested spans.  ``uninstall`` puts the
original functions back, so untraced passes run the program untouched.

A span is (name, start, end, parent).  Spans stay in memory; its self time
is its duration minus the durations of its children, which nest and do not
overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import time
import types

LAYERS = ("numerics", "states", "quasiprob", "weakvalues", "measurement", "cli")

POINTER_BUILDERS = ("measurement.gaussian_pointer", "measurement.thermal_pointer")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, layer) for layer in LAYERS]
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = {}  # name -> amount of work, for the counters below
        self.saved = []

    # -- recording --------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self.stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        self._count(name, parent, args, kwargs, out)
        return out

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def _count(self, name, parent, args, kwargs, out):
        if name == "numerics.hermite_psi_table":
            self._add("numerics.hermite_psi_table.values", out.size)
        elif name == "quasiprob.s_closed":
            self._add("quasiprob.s_closed.points", getattr(out, "size", 1))
        elif name == "states.fock_weights" and parent >= 0:
            if self.spans[parent][0] == "measurement.simulate_weak_p2":
                self._add("states.fock_components", out.truncation + 1)
        elif name == "measurement.simulate_weak_p2":
            pointer = args[1] if len(args) > 1 else kwargs["pointer"]
            self._add("measurement.pointer_components", len(pointer.components))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    # -- installing -------------------------------------------------------

    def install(self):
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for namespace in self.modules + [self.package]:
            for name, obj in list(vars(namespace).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self.saved.append((namespace, name, obj))
                    setattr(namespace, name, wrappers[obj])

    def uninstall(self):
        for namespace, name, obj in self.saved:
            setattr(namespace, name, obj)
        self.saved = []

    def reset(self):
        self.spans, self.stack, self.counts = [], [], {}

    # -- metrics ----------------------------------------------------------

    def self_times(self):
        self_s = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def layer_metrics(self):
        """Per-layer counts and self times of the spans recorded since reset."""
        self_s = self.self_times()
        by_name, calls = {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        pointer_build = 0.0
        for (name, start, end, parent), own in zip(self.spans, self_s):
            by_name[name] = by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".", 1)[0]] += own
            if name in POINTER_BUILDERS and (parent < 0 or self.spans[parent][0] not in POINTER_BUILDERS):
                pointer_build += end - start

        def own(*names):
            return sum(by_name.get(n, 0.0) for n in names)

        def n_calls(*names):
            return sum(calls.get(n, 0) for n in names)

        fourier = ("numerics.q_to_p_transform", "numerics.p_to_q_transform")
        return {
            "numerics.hermite_psi_table.calls": n_calls("numerics.hermite_psi_table"),
            "numerics.hermite_psi_table.values": self.counts.get("numerics.hermite_psi_table.values", 0),
            "numerics.hermite_psi_table.self_s": own("numerics.hermite_psi_table"),
            "numerics.fourier.calls": n_calls(*fourier),
            "numerics.fourier.self_s": own(*fourier),
            "numerics.integrate.self_s": own("numerics.integrate"),
            "states.fock_components": self.counts.get("states.fock_components", 0),
            "quasiprob.s_closed.points": self.counts.get("quasiprob.s_closed.points", 0),
            "quasiprob.s_closed.self_s": own("quasiprob.s_closed"),
            "quasiprob.oracles.self_s": own("quasiprob.s_oracle_fock", "quasiprob.s_oracle_pintegral"),
            "weakvalues.moment_weak_integral.calls": n_calls("weakvalues.moment_weak_integral"),
            "weakvalues.moment_weak_integral.self_s": own("weakvalues.moment_weak_integral"),
            "weakvalues.hamiltonian_weak.self_s": own("weakvalues.hamiltonian_weak"),
            "weakvalues.negativity_probability.self_s": own("weakvalues.negativity_probability"),
            "measurement.simulate_weak_p2.calls": n_calls("measurement.simulate_weak_p2"),
            "measurement.simulate_weak_p2.self_s": own("measurement.simulate_weak_p2"),
            "measurement.pointer_components": self.counts.get("measurement.pointer_components", 0),
            "measurement.pointer_build_s": pointer_build,
            "cli.main.calls": n_calls("cli.main"),
            "cli.self_s": layer_self["cli"],
            "trace.self_total_s": sum(self_s),
            "trace.spans": len(self.spans),
        }

    def dump(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
