"""Outside-in span recorder for the papuf layers.

The recorder wraps public functions of the papuf modules from outside the
package: ``src/papuf`` is never edited.  Each wrapped call becomes one span
(name, parent span, start, end); counts are derived from the call's
arguments and return value, so they repeat exactly between runs.  Spans are
kept in memory and turned into per-layer metrics when the run ends.

``cli``, ``metrics``, ``attack`` and the package ``__init__`` import
functions by name, so installing a wrapper replaces every ``papuf.*``
module attribute bound to the original function, not only the one in the
defining module.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

from papuf.response import lfsr_stride

# Public functions wrapped per layer (layer = papuf module).
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "attack": ("compare_designs", "train", "fit_logistic", "evaluate_attack"),
    "metrics": ("calibrate_noise", "measure_reliability", "compute_report", "sweep_feed_forward"),
    "keyfuzz": ("enroll", "reproduce"),
    "bch": ("bch_encode", "bch_decode"),
    "response": ("collect_crps", "expand_many", "save_crps", "load_crps"),
    "device": ("synthesize_population", "synthesize_device"),
    "circuit": ("propagate_many", "repeated_reads", "clean_arrival_times"),
}

# Per-layer metrics printed by a traced run, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("circuit.propagate_many.calls", "count"),
    ("circuit.propagate_many.evals", "count"),
    ("circuit.propagate_many.self_s", "s"),
    ("circuit.repeated_reads.calls", "count"),
    ("circuit.repeated_reads.evals", "count"),
    ("circuit.repeated_reads.self_s", "s"),
    ("circuit.clean_arrival_times.self_s", "s"),
    ("circuit.noise_draws", "count"),
    ("response.expand_many.calls", "count"),
    ("response.expand_many.rows", "count"),
    ("response.expand_many.clocks", "count"),
    ("response.expand_many.self_s", "s"),
    ("response.collect_crps.self_s", "s"),
    ("response.save_crps.self_s", "s"),
    ("response.save_crps.bytes", "bytes"),
    ("response.load_crps.self_s", "s"),
    ("metrics.calibrate_noise.self_s", "s"),
    ("metrics.calibrate_noise.probes", "count"),
    ("metrics.measure_reliability.self_s", "s"),
    ("metrics.compute_report.self_s", "s"),
    ("metrics.sweep_feed_forward.self_s", "s"),
    ("device.synthesize_population.self_s", "s"),
    ("device.synthesize_device.self_s", "s"),
    ("bch.bch_decode.calls", "count"),
    ("bch.bch_decode.self_s", "s"),
    ("bch.bch_decode.ok", "count"),
    ("bch.bch_decode.fail", "count"),
    ("bch.bch_decode.zero_syndrome", "count"),
    ("bch.bch_decode.corrected_bits", "count"),
    ("bch.bch_decode.ok_ratio", "ratio"),
    ("keyfuzz.enroll.calls", "count"),
    ("keyfuzz.enroll.self_s", "s"),
    ("keyfuzz.reproduce.calls", "count"),
    ("keyfuzz.reproduce.self_s", "s"),
    ("attack.compare_designs.self_s", "s"),
    ("attack.fit_logistic.calls", "count"),
    ("attack.fit_logistic.record_epochs", "count"),
    ("attack.fit_logistic.self_s", "s"),
    ("attack.evaluate_attack.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_propagate_many(counts, args, kwargs, result):
    netlist = _arg(args, kwargs, 0, "device").netlist
    evals = int(result.shape[0])
    counts["evals"] += evals
    counts["noise_draws"] += evals * netlist.lines * (len(netlist.ff_taps) + 1)


def _count_repeated_reads(counts, args, kwargs, result):
    netlist = _arg(args, kwargs, 0, "device").netlist
    evals = int(result.size)
    counts["evals"] += evals
    # Feed-forward designs delegate to propagate_many, which counts its own draws.
    if not netlist.ff_taps:
        counts["noise_draws"] += evals * netlist.lines


def _count_expand_many(counts, args, kwargs, result):
    seeds, count, width = result.shape
    counts["rows"] += seeds * count
    counts["clocks"] += (count - 1) * lfsr_stride(width)


def _count_save_crps(counts, args, kwargs, result):
    counts["bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_calibrate_noise(counts, args, kwargs, result):
    # Two bracket probes plus one per bisection step; a target of 100 probes nothing.
    if result.target < 100.0:
        counts["probes"] += result.iterations + 2


def _count_fit_logistic(counts, args, kwargs, result):
    counts["record_epochs"] += result.metadata["train_records"] * result.metadata["epochs"]


def _count_bch_decode(counts, args, kwargs, result):
    if result is None:
        counts["fail"] += 1
        return None
    weight = int(result[1])
    counts["ok"] += 1
    counts["corrected_bits"] += weight
    if weight == 0:
        counts["zero_syndrome"] += 1
    return weight


def _count_measure_reliability(counts, args, kwargs, result):
    # The (sigma, reliability) pair of each calibration probe.
    return (_arg(args, kwargs, 0, "device").params.sigma_noise, result)


COUNTERS = {
    "circuit.propagate_many": _count_propagate_many,
    "circuit.repeated_reads": _count_repeated_reads,
    "response.expand_many": _count_expand_many,
    "response.save_crps": _count_save_crps,
    "metrics.calibrate_noise": _count_calibrate_noise,
    "metrics.measure_reliability": _count_measure_reliability,
    "attack.fit_logistic": _count_fit_logistic,
    "bch.bch_decode": _count_bch_decode,
}


class SpanRecorder:
    """Records one span per wrapped call while installed (a context manager).

    ``spans`` holds (name, parent index or -1, start, end, note) tuples in
    call order; ``counts`` maps a layer function to its named counters.
    A counter may return a note that is stored on the span, such as a
    decode's corrected weight.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, None)
            counts["calls"] += 1
            if counter is not None:
                note = counter(counts, args, kwargs, result)
                if note is not None:
                    spans[index] = (name, parent, start, end, note)
            return result

        return wrapper

    def __enter__(self):
        replacements = {}  # id of the original function -> its wrapper
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"papuf.{layer}")
            for fname in names:
                original = getattr(module, fname)
                replacements[id(original)] = self._wrap(f"{layer}.{fname}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "papuf" and not modname.startswith("papuf."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def self_times(self) -> dict[str, float]:
        """Per function: summed span durations minus the time their child
        spans cover.  Calls are single-threaded, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, _, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def covered_time(self) -> float:
        """Time inside any root span; equals the sum of all self times."""
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def decode_weights(self) -> dict[int, tuple[int, float]]:
        """Corrected weight -> (decodes, mean seconds) over successful decodes."""
        out: dict[int, list[float]] = defaultdict(list)
        for name, _, start, end, note in self.spans:
            if name == "bch.bch_decode" and note is not None:
                out[note].append(end - start)
        return {w: (len(v), sum(v) / len(v)) for w, v in sorted(out.items())}

    def calibration_probes(self) -> list[tuple[float, float]]:
        """(sigma_noise, reliability) of every probe made under calibrate_noise."""
        out = []
        for name, parent, _, _, note in self.spans:
            if name == "metrics.measure_reliability" and parent >= 0:
                if self.spans[parent][0] == "metrics.calibrate_noise":
                    out.append(note)
        return out

    def layer_metrics(self, traced_wall: float, overhead: float) -> dict[str, dict]:
        """Every PER_LAYER metric; layers a workload never calls read 0."""
        self_s = self.self_times()
        counts = self.counts
        values: dict[str, float] = {}
        for name, unit in PER_LAYER:
            head, _, stat = name.rpartition(".")
            if stat == "self_s":
                values[name] = self_s.get(head, 0.0)
            else:
                values[name] = counts.get(head, {}).get(stat, 0)
        values["circuit.noise_draws"] = sum(
            counts.get(f, {}).get("noise_draws", 0)
            for f in ("circuit.propagate_many", "circuit.repeated_reads")
        )
        decodes = values["bch.bch_decode.calls"]
        values["bch.bch_decode.ok_ratio"] = values["bch.bch_decode.ok"] / decodes if decodes else 0.0
        values["trace.coverage"] = self.covered_time() / traced_wall
        values["trace.overhead_s"] = overhead
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
