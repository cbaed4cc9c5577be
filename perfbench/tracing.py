"""Outside-in tracing of the spinctl layers.

Each layer's public entry points are wrapped where the calling module looks
them up (for example ``spinctl.experiments.rb.trace_propagators`` and
``spinctl.physics.evolve.trace_propagators``, which ``evolve_trace`` calls).
Nothing under ``src/`` is edited: the wrappers are installed for the traced
part of a run and removed afterwards.

A wrapper records one span (layer, entry name, start, end, parent span,
run id) in memory and, after the call returns, adds counts read from the
objects that crossed the boundary: the compile report and images, the burst
trace, the waveform length, the noise batch size.  Counting happens outside
the span, so its cost lands in the caller's self time and in
``trace.overhead_s``, not in the layer being counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Modules that look up entry points of other layers at call time.  A name is
# patched in every one of them that binds it, so a runner added later is
# covered without editing this table.
CALLER_MODULES = (
    "spinctl.experiments.base",
    "spinctl.experiments.allxy",
    "spinctl.experiments.dj",
    "spinctl.experiments.qst",
    "spinctl.experiments.rabi",
    "spinctl.experiments.rb",
    "spinctl.experiments.spectroscopy",
    "spinctl.experiments",
    "spinctl.physics.evolve",
    "spinctl.compiler",
    "spinctl.controller.image_io",
    "spinctl.controller.rf",
    "spinctl.metrics",
)

LAYERS = (
    "compiler.ir",
    "compiler.plan",
    "compiler.emit",
    "controller.executor",
    "controller.image_io",
    "controller.rf",
    "physics.device",
    "physics.evolve.dense",
    "physics.evolve.trace",
    "physics.readout",
    "experiments",
    "metrics",
)

# The benchmark's own code inside a run: Bench construction outside the
# plan, building inputs that the workload makes through the public API.
ROOT_LAYER = "bench"


# --- counters: (counts, args, kwargs, result) -> None -----------------------


def _count_compile(c, args, kwargs, prog):
    c["compiler.emit.gates"] += prog.report["n_gates"]
    c["compiler.emit.triggers"] += prog.report["n_triggers"]
    c["compiler.emit.instructions"] += prog.report["n_instructions"]
    c["compiler.emit.envelope_entries"] += sum(len(img.envelope) for img in prog.images)


def _count_execute(c, args, kwargs, wf):
    image = args[1]
    c["controller.executor.samples"] += len(wf)
    c["controller.executor.bursts"] += sum(
        not image.tables[ref.bank][ref.nco][ref.slot].is_phase_update
        for ref in image.instruction_list
    )


def _count_dump(c, args, kwargs, blob):
    c["controller.image_io.bytes"] += len(blob)


def _count_noise(c, args, kwargs, sample):
    c["physics.device.draws"] += 1


def _count_noise_batch(c, args, kwargs, arrays):
    c["physics.device.draws"] += len(arrays[0])


def _count_dense(c, args, kwargs, state):
    c["physics.evolve.dense.samples"] += len(args[1])


def _count_trace(c, args, kwargs, props):
    trace = args[0]
    c["physics.evolve.trace.draws"] += len(props)
    active = [s for s in trace.segments if np.any(s.amp_values)]
    keys = set()
    shaped = 0
    for s in active:
        amp, codes = s.amp_values, s.phase_codes
        keys.add((s.n, s.ftw, amp.tobytes(), codes.tobytes()))
        shaped += not (np.all(amp == amp[0]) and np.all(codes == codes[0]))
    c["physics.evolve.trace.bursts"] += len(active)
    c["physics.evolve.trace.unique_bursts"] += len(keys)
    c["physics.evolve.trace.shaped"] += shaped


def _count_allxy(c, args, kwargs, res):
    c["experiments.points"] += len(res.pairs)
    c["experiments.shots"] += len(res.pairs) * res.shots


def _count_rb(c, args, kwargs, res):
    points = len(res.lengths) * res.n_sequences
    c["experiments.points"] += points
    c["experiments.shots"] += points * res.repetitions


def _count_sweep(c, args, kwargs, res):
    c["experiments.points"] += len(res.x)
    c["experiments.shots"] += len(res.x) * kwargs.get("shots", 100)


def _count_spectrum(c, args, kwargs, spec):
    c["metrics.fft_points"] += len(spec)


# (layer, owner, attribute, counter).  An owner is a dotted module path or
# "module:Class" for a method looked up on the class.
ENTRY_POINTS = (
    ("compiler.ir", "spinctl.compiler", "parse_program", None),
    ("compiler.plan", None, "allocate_frequencies", None),
    ("compiler.plan", None, "default_calibration", None),
    ("compiler.emit", "spinctl.experiments.base:Bench", "compile", None),
    ("compiler.emit", "spinctl.compiler", "compile_program", _count_compile),
    ("controller.executor", "spinctl.experiments.base:Bench", "run_program", None),
    ("controller.executor", "spinctl.controller.executor:Transmitter", "execute_sequence", None),
    ("controller.executor", "spinctl.controller.executor:Transmitter", "execute", _count_execute),
    ("controller.image_io", "spinctl.controller.image_io", "dump_image", _count_dump),
    ("controller.image_io", "spinctl.controller.image_io", "load_image", None),
    ("controller.rf", "spinctl.controller.rf", "upconvert", None),
    ("physics.device", None, "sample_noise", _count_noise),
    ("physics.device", None, "sample_noise_batch", _count_noise_batch),
    ("physics.evolve.dense", None, "evolve", _count_dense),
    ("physics.evolve.trace", None, "evolve_trace", None),
    ("physics.evolve.trace", None, "trace_propagators", _count_trace),
    ("physics.readout", None, "readout_probabilities", None),
    ("experiments", "spinctl.experiments", "run_allxy", _count_allxy),
    ("experiments", "spinctl.experiments", "run_rb", _count_rb),
    ("experiments", "spinctl.experiments", "run_spectroscopy", _count_sweep),
    ("experiments", None, "curve_fit", None),
    ("metrics", "spinctl.metrics", "compute_spectrum", _count_spectrum),
    ("metrics", "spinctl.metrics", "sfdr", None),
    ("metrics", "spinctl.metrics", "snr", None),
    ("metrics", "spinctl.metrics", "two_tone_report", None),
)


def _targets(owner, attr):
    """(object, attribute) pairs to patch; None means every caller module."""
    if owner is None:
        mods = [importlib.import_module(m) for m in CALLER_MODULES]
        return [(m, attr) for m in mods if attr in vars(m)]
    if ":" in owner:
        mod, cls = owner.split(":")
        return [(getattr(importlib.import_module(mod), cls), attr)]
    return [(importlib.import_module(owner), attr)]


class Tracer:
    """Span recorder: ``installed()`` patches the entry points for a block,
    ``run(run_id)`` opens the root span of one workload run inside it."""

    def __init__(self):
        self.spans = []  # (layer, name, start, end, parent index, run id)
        self.counts = {}  # run id -> counts taken at the boundaries
        self._stack = []
        self._run_id = None

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, layer, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (layer, name, start, end, parent, self._run_id)

    def _wrap(self, layer, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._run_id is None:  # outside a traced run, e.g. in a check
                return fn(*args, **kwargs)
            index, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, parent, layer, name, start)
            if counter is not None:
                counter(tracer.counts[tracer._run_id], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for layer, owner, attr, counter in ENTRY_POINTS:
                for obj, name in _targets(owner, attr):
                    original = vars(obj)[name]
                    saved.append((obj, name, original))
                    setattr(obj, name, self._wrap(layer, attr, original, counter))
            yield self
        finally:
            for obj, name, original in reversed(saved):
                setattr(obj, name, original)

    @contextmanager
    def run(self, run_id):
        self._run_id = run_id
        self.counts[run_id] = defaultdict(int)
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, ROOT_LAYER, "run", start)
            self._run_id = None

    def wall(self, run_id):
        """Duration of the root span of one run."""
        return next(s[3] - s[2] for s in self.spans if s[5] == run_id and s[4] < 0)

    def metrics(self, run_id):
        """Per-layer metrics of one run, from its spans and counts."""
        spans = {i: s for i, s in enumerate(self.spans) if s[5] == run_id}
        child_time = defaultdict(float)
        for layer, name, start, end, parent, _ in spans.values():
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        by_name = defaultdict(float)
        for i, (layer, name, start, end, parent, _) in spans.items():
            self_s[layer] += end - start - child_time[i]
            if parent < 0 or spans[parent][0] != layer:
                calls[layer] += 1
            by_name[name] += end - start
        c = self.counts[run_id]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out[f"{ROOT_LAYER}.self_s"] = self_s[ROOT_LAYER]
        for key in (
            "compiler.emit.gates",
            "compiler.emit.triggers",
            "compiler.emit.instructions",
            "compiler.emit.envelope_entries",
            "controller.executor.samples",
            "controller.executor.bursts",
            "controller.image_io.bytes",
            "physics.device.draws",
            "physics.evolve.dense.samples",
            "physics.evolve.trace.draws",
            "physics.evolve.trace.bursts",
            "physics.evolve.trace.unique_bursts",
            "experiments.points",
            "experiments.shots",
            "metrics.fft_points",
        ):
            out[key] = c[key]
        out["compiler.emit.gates_per_trigger"] = _ratio(c["compiler.emit.gates"], c["compiler.emit.triggers"])
        out["controller.executor.ns_per_sample"] = _ratio(
            1e9 * self_s["controller.executor"], c["controller.executor.samples"]
        )
        out["controller.image_io.dump_s"] = by_name["dump_image"]
        out["controller.image_io.load_s"] = by_name["load_image"]
        out["physics.evolve.dense.ns_per_sample"] = _ratio(
            1e9 * self_s["physics.evolve.dense"], c["physics.evolve.dense.samples"]
        )
        bursts = c["physics.evolve.trace.bursts"]
        out["physics.evolve.trace.repeat_share"] = (
            1.0 - c["physics.evolve.trace.unique_bursts"] / bursts if bursts else 0.0
        )
        out["physics.evolve.trace.shaped_share"] = _ratio(c["physics.evolve.trace.shaped"], bursts)
        out["experiments.fit_s"] = by_name["curve_fit"]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ns_per_sample"):
        return "ns"
    if name.endswith("gates_per_trigger"):
        return "gates/trigger"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "1"
    if name.endswith(".bytes"):
        return "B"
    return "count"
