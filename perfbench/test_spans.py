"""Unit tests for the span recorder: self-time arithmetic, patching and counts.

    python3 -m pytest -q perfbench/test_spans.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import papuf  # noqa: E402
from papuf import cli, response  # noqa: E402
from papuf.device import DelayParams, synthesize_device  # noqa: E402
from papuf.netlist import Design, Netlist, default_ff_taps  # noqa: E402
from spans import PER_LAYER, SpanRecorder  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    rec.spans[:] = [
        ("a", -1, 0.0, 10.0, None),
        ("b", 0, 1.0, 4.0, None),
        ("c", 1, 2.0, 3.0, None),
        ("b", 0, 5.0, 6.0, None),
        ("a", -1, 20.0, 21.0, None),
    ]
    assert rec.self_times() == {"a": 7.0, "b": 3.0, "c": 1.0}
    assert rec.covered_time() == sum(rec.self_times().values()) == 11.0


def test_wrappers_replace_by_name_imports_and_are_removed():
    original = response.expand_many
    with SpanRecorder() as rec:
        assert response.expand_many is not original
        assert papuf.response.collect_crps is cli.collect_crps
        assert cli.collect_crps.__wrapped__ is not None
        papuf.expand_challenge(np.ones(16, dtype=np.uint8), 4)
    assert response.expand_many is original
    assert not hasattr(cli.collect_crps, "__wrapped__")
    name, parent, start, end, _ = rec.spans[0]
    assert (name, parent) == ("response.expand_many", -1) and end >= start
    assert rec.counts["response.expand_many"]["rows"] == 4
    assert rec.counts["response.expand_many"]["clocks"] == 3 * response.lfsr_stride(16)


def test_counts_come_from_arguments_and_results():
    netlist = Netlist(Design.FF_PA_PUF, 16, default_ff_taps(16, 2))
    device = synthesize_device(DelayParams(sigma_noise=1.0), netlist, 3)
    challenges = np.random.default_rng(0).integers(0, 2, size=(40, 16), dtype=np.uint8)
    with SpanRecorder() as rec:
        papuf.repeated_reads(device, challenges, 3, eval_seed=1)
    counts = rec.counts
    assert counts["circuit.repeated_reads"]["evals"] == 120
    assert counts["circuit.propagate_many"]["calls"] == 3
    assert counts["circuit.propagate_many"]["evals"] == 120
    # three lines, two feed-forward arbiters plus the final one; not counted twice
    metrics = rec.layer_metrics(traced_wall=1.0, overhead=0.0)
    assert metrics["circuit.noise_draws"]["value"] == 120 * 3 * 3
    parents = {rec.spans[p][0] for name, p, *_ in rec.spans if name == "circuit.propagate_many"}
    assert parents == {"circuit.repeated_reads"}


def test_decode_outcomes_are_captured():
    code = papuf.default_code()
    message = np.zeros(code.k, dtype=np.uint8)
    word = papuf.bch_encode(message, code)
    noisy = word.copy()
    noisy[:3] ^= 1
    with SpanRecorder() as rec:
        papuf.bch_decode(word, code)
        papuf.bch_decode(noisy, code)
    metrics = rec.layer_metrics(traced_wall=1.0, overhead=0.5)
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["bch.bch_decode.calls"] == 2
    assert values["bch.bch_decode.ok"] == 2
    assert values["bch.bch_decode.zero_syndrome"] == 1
    assert values["bch.bch_decode.corrected_bits"] == 3
    assert values["bch.bch_decode.ok_ratio"] == 1.0
    assert values["trace.overhead_s"] == 0.5
    assert sorted(rec.decode_weights()) == [0, 3]


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
