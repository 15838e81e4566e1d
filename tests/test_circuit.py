import hashlib
import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, multivariate_normal, norm

from papuf import (
    DelayParams,
    Design,
    Netlist,
    clean_arrival_times,
    collect_crps,
    propagate_many,
    read_probabilities,
    repeated_reads,
    synthesize_device,
    synthesize_population,
)
from papuf import circuit, normal
from papuf.circuit import _noise_rng, _tie_bits, _tie_key
from papuf.device import DeviceInstance
from papuf.netlist import default_ff_taps
from papuf.oracle import (
    _reference_flip_flops,
    _reference_times,
    _rounded_gaps,
    exhaustive_propagate,
    gate_level_priority,
    reference_clean_times,
    reference_propagate,
)


def arrivals_for(order):
    rank = {name: pos for pos, name in enumerate(order)}
    return [float(rank["T"]), float(rank["C"]), float(rank["B"])]


def flip_flops(times, window, tie):
    """(N, pairs) flip-flop bits of (N, lines) arrival times by the oracle's rule on gaps.

    The gaps are T - C and C - B (top - bottom for 2 lines) and, for 3
    lines, the closing gap B - T = -(g_TC + g_CB).
    """
    gaps = times[:, :-1] - times[:, 1:]
    if times.shape[1] == 3:
        gaps = np.column_stack([gaps, -(gaps[:, 0] + gaps[:, 1])])
    return _reference_flip_flops(gaps, window, tie)


def arbitrate(times, window, tie):
    """Arbiter output: top<bottom for 2 lines, NOT(qT ^ qC ^ qB) for 3."""
    q = flip_flops(times, window, tie)
    return q[:, 0] if q.shape[1] == 1 else 1 ^ q[:, 0] ^ q[:, 1] ^ q[:, 2]


def arbitrate_orderings(orders, window=0.0):
    """Terminal decisions for strict orderings, with all tie bits 0."""
    final = np.array([arrivals_for(order) for order in orders])
    return arbitrate(final, window, np.zeros((len(orders), 3), dtype=np.uint8))


def propagate_one(device, challenge, eval_seed=0):
    return int(propagate_many(device, np.asarray(challenge)[None, :], eval_seed)[0])


def test_simple_arbiter_race_semantics():
    final = np.array([[5.0, 9.0], [9.0, 5.0]])
    tie = np.ones((2, 1), dtype=np.uint8)
    # top edge first -> 1, bottom edge first -> 0; the tie bits are unused
    assert arbitrate(final, 0.0, tie).tolist() == [1, 0]


def test_simple_arbiter_tie_is_fair():
    window = 0.1
    final = np.full((10_000, 2), 5.0)
    tie = _tie_bits(_tie_key(0, 0), 0, 10_000, 1)
    bits = arbitrate(final, window, tie)
    assert np.array_equal(bits, tie[:, 0])
    assert 0.48 < np.mean(bits) < 0.52


def test_priority_arbiter_matches_gate_level_oracle():
    orders = list(permutations("TCB"))
    for order, bit in zip(orders, arbitrate_orderings(orders)):
        assert bit == gate_level_priority(order)


def test_priority_arbiter_balanced_three_of_six():
    orders = list(permutations("TCB"))
    outputs = dict(zip(orders, arbitrate_orderings(orders).tolist()))
    assert sum(outputs.values()) == 3
    assert outputs[("T", "C", "B")] == 1
    # cyclic rotations of (T, C, B) are the 1-outputs
    assert outputs[("C", "B", "T")] == 1
    assert outputs[("B", "T", "C")] == 1
    assert outputs[("T", "B", "C")] == 0
    assert outputs[("B", "C", "T")] == 0
    assert outputs[("C", "T", "B")] == 0


def test_priority_arbiter_is_xnor_of_all_eight_flip_flop_patterns():
    # An infinite window hands every flip-flop its tie bit, so the tie bits
    # choose (q0, q1, q2), including 000 and 111, which no strict ordering gives.
    patterns = np.array(list(product((0, 1), repeat=3)), dtype=np.uint8)
    final = np.random.default_rng(7).normal(size=(8, 3))
    bits = arbitrate(final, np.inf, patterns)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [1 ^ q0 ^ q1 ^ q2 for q0, q1, q2 in patterns.tolist()]


def test_feed_forward_arbiter_pairwise_contract():
    # F0 = (T before C), F1 = (C before B), F2 = (B before T)
    orders = [("T", "C", "B"), ("B", "C", "T"), ("C", "T", "B")]
    sampled = np.array([arrivals_for(order) for order in orders])
    flops = flip_flops(sampled, 0.0, np.ones((3, 3), dtype=np.uint8))
    assert flops.tolist() == [[1, 1, 0], [0, 0, 1], [0, 1, 0]]


def test_feed_forward_arbiter_tie_determinism():
    # tied lines latch the tie bits of the tap's own stream, so equal seeds agree
    tie = _tie_bits(_tie_key(9, 1), 0, 64, 3)
    flops = flip_flops(np.ones((64, 3)), 0.5, tie)
    assert np.array_equal(flops, tie)
    assert np.array_equal(tie, _tie_bits(_tie_key(9, 1), 0, 64, 3))


def splitmix64_top_bit(key, counter):
    """SplitMix64's finaliser of key + counter*GAMMA in Python ints; its top bit."""
    mask = (1 << 64) - 1
    z = (key + counter * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 63


@pytest.mark.parametrize("key", [0, 1, 0x7FFFFFFFFFFFFFFF, _tie_key(3, 2)])
def test_tie_bits_equal_scalar_splitmix64(key):
    tie = _tie_bits(key, 1000, 20, 3)
    expected = [[splitmix64_top_bit(key, i * 3 + k) for k in range(3)] for i in range(1000, 1020)]
    assert tie.dtype == np.uint8 and tie.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(0, 2**63 - 1),
    split=st.integers(0, 300),
    length=st.integers(0, 300),
    pairs=st.sampled_from([1, 3]),
)
def test_tie_bits_of_a_range_equal_the_rows_of_one_call(key, split, length, pairs):
    stop = split + length
    whole = _tie_bits(key, 0, stop, pairs)
    assert whole.shape == (stop, pairs)
    assert np.array_equal(_tie_bits(key, split, length, pairs), whole[split:])


def test_tie_bits_are_fair_and_uncorrelated_over_a_million_evaluations():
    n = 10**6
    bound = 4 / np.sqrt(n)  # 4 sigma of a correlation of n independent pairs

    def corr(a, b):
        return np.corrcoef(a.astype(np.float64), b.astype(np.float64))[0, 1]

    for seed in (0, 7):
        tie = _tie_bits(_tie_key(seed, 0), 0, n, 3)
        # each flip-flop: a binomial mean within 4 sigma = 4 * 0.5 / sqrt(n) of 0.5
        assert np.all(np.abs(tie.mean(axis=0) - 0.5) <= 4 * 0.5 / np.sqrt(n)), tie.mean(axis=0)
        for k in range(3):
            assert abs(corr(tie[:, k], tie[:, (k + 1) % 3])) <= bound  # flip-flops of one evaluation
            assert abs(corr(tie[:-1, k], tie[1:, k])) <= bound  # neighbouring evaluations
        neighbour = _tie_bits(_tie_key(seed, 1), 0, n, 3)
        for k in range(3):
            assert abs(corr(tie[:, k], neighbour[:, k])) <= bound  # neighbouring points


def test_tie_bits_are_pinned():
    # the tie bits are part of every output at a nonzero window; a change here moves response bits
    digests = {
        (seed, point): hashlib.sha256(_tie_bits(_tie_key(seed, point), 0, 4096, 3).tobytes()).hexdigest()[:16]
        for seed, point in ((0, 0), (0, 1), (12345, 0), (2**62 + 3, 2))
    }
    assert digests == {
        (0, 0): "bd8ec76afdab143c",
        (0, 1): "ddcf8463b7be5c23",
        (12345, 0): "36d74857efa2346b",
        (2**62 + 3, 2): "c00b0f217a4d30df",
    }


@pytest.mark.parametrize("block_values", [1, 5 * 2 * 3, 100 * 3, 1 << 40])
def test_tie_words_are_drawn_only_where_a_decision_reads_them(monkeypatch, block_values):
    # Window 0 and no jitter: an all-equal delay table ties every flip-flop on
    # every row, a table of small integers ties on some rows, and random tables
    # never tie.  So some blocks compute tie bits and others do not, and a block
    # that computes them also covers jobs that never tie.
    monkeypatch.setattr(circuit, "BLOCK_VALUES", block_values)
    params = DelayParams(sigma_noise=0.0)
    rng = np.random.default_rng(8)
    for netlist in (Netlist(Design.APUF, 8), Netlist(Design.PA_PUF, 8), Netlist(Design.FF_PA_PUF, 8, ((1, 5),))):
        devices = list(synthesize_population(params, netlist, 3, 4))
        shape = devices[0].delay_table.shape
        devices[1] = DeviceInstance("equal", netlist, params, 0, np.full(shape, 100.0))
        devices.append(DeviceInstance("integer", netlist, params, 0, rng.integers(1, 3, size=shape) * 1.0))
        challenges = rng.integers(0, 2, size=(53, 8), dtype=np.uint8)
        seeds = [[10 * d + r for r in range(2)] for d in range(len(devices))]
        bits = np.empty((len(devices), 2, 53), dtype=np.uint8)
        for rows, block in circuit.propagate_blocks(devices, challenges, seeds):
            bits[:, :, rows] = block
        for d, device in enumerate(devices):
            for r, seed in enumerate(seeds[d]):
                assert np.array_equal(bits[d, r], reference_propagate(device, challenges, seed)), (netlist, d, r)
        assert 0 < bits[1].mean() < 1  # the tied device reads its tie bits


def hand_apuf():
    # stage 0: select0 adds (1, 2), select1 swaps then adds (5, 1)
    # stage 1: select0 adds (1, 2), select1 swaps then adds (3, 4)
    table = np.array([[[1.0, 2.0], [5.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]])
    params = DelayParams(mean_delay=1.0, sigma_process=0.0)
    return DeviceInstance("hand", Netlist(Design.APUF, 2), params, 0, table)


def test_propagate_hand_built_apuf():
    dev = hand_apuf()
    # challenge 00: top = 1+1 = 2, bottom = 2+2 = 4, top wins -> 1
    assert propagate_one(dev, [0, 0]) == 1
    # challenge 10: stage0 swaps, top = 0+5 = 5, bottom = 0+1 = 1; then +1/+2 -> 6 vs 3 -> 0
    assert propagate_one(dev, [1, 0]) == 0


def test_propagate_hand_built_priority_single_stage():
    table = np.array([[[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]]])
    params = DelayParams(mean_delay=1.0, sigma_process=0.0)
    dev = DeviceInstance("hand3", Netlist(Design.PA_PUF, 1), params, 0, table)
    # arrivals (1, 2, 3): order (T, C, B) -> 1
    assert propagate_one(dev, [0]) == 1


def test_propagate_challenge_shape_validated(pa64):
    with pytest.raises(ValueError):
        propagate_many(pa64, np.zeros(64, dtype=np.uint8))  # one challenge needs a batch axis
    with pytest.raises(ValueError):
        propagate_many(pa64, [[0, 1]])
    with pytest.raises(ValueError):
        propagate_many(pa64, np.zeros((4, 63), dtype=np.uint8))


@pytest.mark.parametrize("value", [2, 258, 0.7, -1])
@pytest.mark.parametrize(
    "netlist", [Netlist(Design.APUF, 8), Netlist(Design.PA_PUF, 8), Netlist(Design.FF_PA_PUF, 8, ((2, 5),))]
)
def test_non_binary_challenge_bits_are_rejected(netlist, value):
    dev = synthesize_device(DelayParams(sigma_noise=1.0), netlist, 4)
    challenges = np.zeros((4, 8)).astype(type(value))
    challenges[1, 3] = value
    calls = [
        lambda: propagate_many(dev, challenges),
        lambda: repeated_reads(dev, challenges, 3),
        lambda: list(circuit.propagate_blocks([dev], challenges, [[0]])),
    ]
    if not netlist.ff_taps:
        calls.append(lambda: clean_arrival_times(dev, challenges))
    for call in calls:
        with pytest.raises(ValueError, match="challenge must hold only 0 and 1 bits"):
            call()


def test_propagate_single_matches_batch(pa64):
    # rows draw their streams in order, so a one-row batch is the first row of any batch
    rng = np.random.default_rng(0)
    challenges = rng.integers(0, 2, size=(16, 64), dtype=np.uint8)
    noisy = pa64.with_params(pa64.params.with_noise(1.5))
    batch = propagate_many(noisy, challenges, eval_seed=9)
    assert propagate_one(noisy, challenges[0], eval_seed=9) == batch[0]


def test_scale_invariance():
    params = DelayParams(mean_delay=100.0, sigma_process=5.0, sigma_noise=1.0, metastability_window=0.01)
    nl = Netlist(Design.PA_PUF, 12)
    dev = synthesize_device(params, nl, 8)
    rng = np.random.default_rng(1)
    challenges = rng.integers(0, 2, size=(200, 12), dtype=np.uint8)
    base = propagate_many(dev, challenges, eval_seed=4)
    for factor in (0.5, 3.0):
        scaled_params = DelayParams(
            mean_delay=100.0 * factor,
            sigma_process=5.0 * factor,
            sigma_noise=1.0 * factor,
            metastability_window=0.01 * factor,
        )
        scaled = DeviceInstance("s", nl, scaled_params, 8, dev.delay_table * factor)
        assert np.array_equal(propagate_many(scaled, challenges, eval_seed=4), base)


def test_translation_invariance_per_stage():
    params = DelayParams(sigma_noise=0.8)
    nl = Netlist(Design.PA_PUF, 10)
    dev = synthesize_device(params, nl, 9)
    rng = np.random.default_rng(2)
    challenges = rng.integers(0, 2, size=(200, 10), dtype=np.uint8)
    base = propagate_many(dev, challenges, eval_seed=5)
    shifted_table = dev.delay_table.copy()
    shifted_table[4] += 17.5  # every (select, line) entry of one stage
    shifted = DeviceInstance("t", nl, params, 9, shifted_table)
    assert np.array_equal(propagate_many(shifted, challenges, eval_seed=5), base)


def test_ff_without_taps_equals_plain_pa():
    params = DelayParams(sigma_noise=1.2)
    pa = synthesize_device(params, Netlist(Design.PA_PUF, 24), 77)
    ff = synthesize_device(params, Netlist(Design.FF_PA_PUF, 24, ()), 77)
    rng = np.random.default_rng(3)
    challenges = rng.integers(0, 2, size=(500, 24), dtype=np.uint8)
    assert np.array_equal(
        propagate_many(pa, challenges, eval_seed=6), propagate_many(ff, challenges, eval_seed=6)
    )


def test_symmetric_device_resolves_through_tie_policy():
    # sigma_process = 0 keeps all lines tied at every point
    params = DelayParams(sigma_process=0.0, metastability_window=0.5)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 4), 1)
    challenge = np.zeros(4, dtype=np.uint8)
    bits = [propagate_one(dev, challenge, eval_seed=s) for s in range(2000)]
    assert 0.45 < np.mean(bits) < 0.55
    for eval_seed in range(20):
        assert propagate_one(dev, challenge, eval_seed) == exhaustive_propagate(dev, challenge, eval_seed)


def test_oracle_equivalence_small_netlists():
    params = DelayParams(sigma_noise=0.7)
    cases = [
        (Design.APUF, 2, ()),
        (Design.APUF, 4, ()),
        (Design.PA_PUF, 1, ()),
        (Design.PA_PUF, 4, ()),
        (Design.FF_PA_PUF, 4, ((0, 2),)),
        (Design.FF_PA_PUF, 4, ((1, 2), (0, 3))),
    ]
    for design, stages, taps in cases:
        nl = Netlist(design, stages, taps)
        for seed in range(5):
            dev = synthesize_device(params, nl, seed)
            for value in range(2 ** stages):
                challenge = [(value >> i) & 1 for i in range(stages)]
                eval_seed = seed * 1000 + value
                assert propagate_one(dev, challenge, eval_seed) == exhaustive_propagate(
                    dev, challenge, eval_seed
                ), (design, stages, taps, seed, challenge)


def test_oracle_equivalence_with_metastability_window():
    # window comparable to the process spread makes ties frequent, so this
    # exercises the random tie-break path of both implementations
    params = DelayParams(mean_delay=20.0, sigma_process=1.0, sigma_noise=0.5, metastability_window=0.6)
    for design, stages, taps in [
        (Design.PA_PUF, 3, ()),
        (Design.FF_PA_PUF, 4, ((0, 2), (1, 3))),
        (Design.APUF, 3, ()),
    ]:
        nl = Netlist(design, stages, taps)
        for seed in range(10):
            dev = synthesize_device(params, nl, seed)
            for value in range(2 ** stages):
                challenge = [(value >> i) & 1 for i in range(stages)]
                eval_seed = seed * 997 + value
                assert propagate_one(dev, challenge, eval_seed) == exhaustive_propagate(
                    dev, challenge, eval_seed
                )


def test_oracle_refuses_large_netlists(pa64):
    with pytest.raises(ValueError):
        exhaustive_propagate(pa64, np.zeros(64, dtype=np.uint8))


def _closed_form_reads(dev, challenges, repetitions, eval_seed):
    """Read r of cell n is 1 when word r*N + n of the noise stream, shifted
    right by one, is below floor(p * 2^63), in Python integers."""
    thresholds = [math.floor(math.ldexp(p, 63)) for p in read_probabilities(dev, challenges)]
    words = _noise_rng(eval_seed).bit_generator.random_raw(repetitions * len(thresholds)).tolist()
    bits = [word >> 1 < thresholds[i % len(thresholds)] for i, word in enumerate(words)]
    return np.array(bits, dtype=np.uint8).reshape(repetitions, len(thresholds))


def test_repeated_reads_matches_distribution_and_chunking(monkeypatch):
    challenges = np.random.default_rng(5).integers(0, 2, size=(37, 16), dtype=np.uint8)
    for design, window in product((Design.APUF, Design.PA_PUF), (0.0, 3.0)):
        params = DelayParams(sigma_noise=2.0, metastability_window=window)
        dev = synthesize_device(params, Netlist(design, 16), 21)
        monkeypatch.undo()
        expected = _closed_form_reads(dev, challenges, 10, 12)
        assert (expected != expected[0]).sum() >= 20, design  # cells that flip
        # blocks of 1 repetition, of 3, or all 10 in one
        for values in (1, 3 * 37, 1 << 40):
            monkeypatch.setattr(circuit, "BLOCK_VALUES", values)
            assert np.array_equal(repeated_reads(dev, challenges, 10, eval_seed=12), expected), (design, window)


@pytest.mark.parametrize(
    "netlist", [Netlist(Design.APUF, 8), Netlist(Design.PA_PUF, 8), Netlist(Design.FF_PA_PUF, 8, ((2, 5),))]
)
def test_repeated_reads_rejects_bad_counts_and_allows_zero(netlist):
    dev = synthesize_device(DelayParams(sigma_noise=1.0), netlist, 3)
    challenges = np.random.default_rng(1).integers(0, 2, size=(5, 8), dtype=np.uint8)
    empty = repeated_reads(dev, challenges, 0, eval_seed=2)
    assert empty.shape == (0, 5) and empty.dtype == np.uint8
    with pytest.raises(ValueError, match="repetition count"):
        repeated_reads(dev, challenges, -1)


@pytest.mark.parametrize("design", [Design.APUF, Design.PA_PUF])
@pytest.mark.parametrize("stages", [1, 5, 64])
def test_clean_times_equal_stage_by_stage_reference(design, stages):
    # the reference adds exact Fractions stage by stage and rounds once, so
    # the kernel's clean times are the correctly rounded exact sums
    dev = synthesize_device(DelayParams(), Netlist(design, stages), 100 + stages)
    # more rows than one kernel block, and not a multiple of it
    challenges = np.random.default_rng(stages).integers(0, 2, size=(2500, stages), dtype=np.uint8)
    assert np.array_equal(clean_arrival_times(dev, challenges), reference_clean_times(dev, challenges))


@pytest.mark.parametrize("design", [Design.APUF, Design.PA_PUF])
@pytest.mark.parametrize("stages", [1, 5, 7, 64])
def test_clean_times_do_not_depend_on_stage_groups_or_blocks(monkeypatch, design, stages):
    # group sizes that do and do not divide the chain, blocks of 1 row to all rows
    dev = synthesize_device(DelayParams(), Netlist(design, stages), 200 + stages)
    challenges = np.random.default_rng(stages).integers(0, 2, size=(300, stages), dtype=np.uint8)
    expected = reference_clean_times(dev, challenges)
    for group in range(1, 7):
        monkeypatch.setattr(circuit, "GROUP_STAGES", group)
        for block_values in (1, 7 * 64, 1 << 16, 1 << 40):
            monkeypatch.setattr(circuit, "BLOCK_VALUES", block_values)
            assert np.array_equal(clean_arrival_times(dev, challenges), expected), (group, block_values)


def test_lines_with_equal_exact_sums_tie_whatever_the_stage_order():
    # Every select is 0, so each line adds its own column.  In stage order
    # the top line sums to 1 (each 2^-53 rounds away) and the bottom line to
    # 1 + 2^-52, but both exact sums are 1 + 2^-52: an exact tie at window 0.
    tiny = 2.0**-53
    table = np.ones((3, 2, 2))
    table[:, 0, 0] = (1.0, tiny, tiny)
    table[:, 0, 1] = (tiny, tiny, 1.0)
    dev = DeviceInstance("tie", Netlist(Design.APUF, 3), DelayParams(), 0, table)
    challenges = np.zeros((64, 3), dtype=np.uint8)
    assert np.array_equal(clean_arrival_times(dev, challenges), np.full((64, 2), 1.0 + 2.0**-52))
    tie = _tie_bits(_tie_key(9, 0), 0, 64, 1)[:, 0]
    assert 0 < tie.mean() < 1
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=9), tie)
    assert exhaustive_propagate(dev, challenges[0], eval_seed=9) == tie[0]


def _block_reads(devices, challenges, eval_seeds):
    """(D, R, N) bits of ``circuit.propagate_blocks``."""
    out = np.empty((len(devices), len(eval_seeds[0]), challenges.shape[0]), dtype=np.uint8)
    for rows, bits in circuit.propagate_blocks(devices, challenges, eval_seeds):
        out[:, :, rows] = bits
    return out


def _reference_reads(devices, challenges, eval_seeds):
    """(D, R, N) bits of ``oracle.reference_propagate``, one call per job."""
    return np.array([[reference_propagate(dev, challenges, s) for s in seeds] for dev, seeds in zip(devices, eval_seeds)])


def test_block_reader_names_each_mismatch_of_its_population():
    netlist = Netlist(Design.PA_PUF, 16)
    devices = synthesize_population(DelayParams(sigma_noise=1.0), netlist, 2, 1)
    noisier = [devices[0], devices[1].with_params(DelayParams(sigma_noise=2.0))]
    other = [devices[0], synthesize_device(DelayParams(sigma_noise=1.0), Netlist(Design.APUF, 16), 2)]
    challenges = np.zeros((50, 16), dtype=np.uint8)
    rows, lengths = "1 rows of eval seeds for 2 devices", r"unequal lengths \[1, 2\]"
    params, netlists = f"{devices[1].device_id} differ from {devices[0].device_id} in params", "in netlist"
    for population, seeds, messages in [
        (devices, [[1]], [rows]),  # both devices would read one stream
        (noisier, [[1], [2]], [params]),  # device 1 would be read with device 0's noise
        (devices, [[1, 2], [3]], [lengths]),
        (noisier, [[1, 2], [3], [4]], ["3 rows", lengths, params]),
        (other, [[1], [2]], [netlists]),
        (devices[:1], [[]], [r"empty rows of eval seeds \[0\]"]),  # no repetition to read
        (devices, [[], [1]], [r"unequal lengths \[0, 1\]", r"empty rows of eval seeds \[0\]"]),
    ]:
        with pytest.raises(ValueError) as error:
            next(circuit.propagate_blocks(population, challenges, seeds))
        for message in messages:
            assert error.match(message), (seeds, message)
    # collect_crps reads through the same rule
    with pytest.raises(ValueError, match=params):
        collect_crps(noisier, 2, 1, 8, 0)


FEED_FORWARD_LAYOUTS = [
    Netlist(Design.FF_PA_PUF, stages, default_ff_taps(stages, count))
    for stages in (8, 16, 64)
    for count in range(1, stages - 1)
]


def test_noiseless_feed_forward_reads_equal_the_exact_reference(monkeypatch):
    # At sigma 0 and window 0 a read is the race of exact sums, or a tie bit
    # where two of them are equal.  Every default tap count that fits on 8,
    # 16 and 64 stages; on 16 stages with 6 taps, a tap stage is another
    # tap's target.
    assert {4, 6} <= {tap for tap, _ in default_ff_taps(16, 6)} & {target for _, target in default_ff_taps(16, 6)}
    rng = np.random.default_rng(40)
    for netlist in FEED_FORWARD_LAYOUTS:
        devices = synthesize_population(DelayParams(), netlist, 2, netlist.stages * 100 + len(netlist.ff_taps))
        challenges = rng.integers(0, 2, size=(16, netlist.stages), dtype=np.uint8)
        expected = _reference_reads(devices, challenges, [[3, 4], [5, 6]])
        assert np.array_equal(_block_reads(devices, challenges, [[3, 4], [5, 6]]), expected), netlist.describe()
        # one job a device: row blocks of 5 rows, and stage groups of 1 to 6 stages
        for name, value in [("BLOCK_VALUES", 30)] + [("GROUP_STAGES", g) for g in range(1, 7)]:
            with monkeypatch.context() as patch:
                patch.setattr(circuit, name, value)
                reads = _block_reads(devices, challenges, [[3], [5]])
            assert np.array_equal(reads, expected[:, :1]), (netlist.describe(), name, value)


def test_feed_forward_lines_with_equal_exact_sums_tie_at_the_tap_arbiter():
    # Every challenge bit is 0, so up to the tap after stage 2 each line adds
    # its own column.  In stage order T sums to 1 (each 2^-53 rounds away)
    # and C to 1 + 2^-52, but both exact sums are 1 + 2^-52: the tap's T-C
    # flip-flop latches its tie bit.  The target stage 3 sends T to about 3
    # (select 0) or 35 (select 1), so with C near 2 and B at 31 the response
    # is that tie bit.
    tiny = 2.0**-53
    table = np.ones((4, 2, 3))
    table[:3, 0, 0] = (1.0, tiny, tiny)
    table[:3, 0, 1] = (tiny, tiny, 1.0)
    table[:3, 0, 2] = 10.0
    table[3, :, 0] = (2.0, 5.0)
    dev = DeviceInstance("tie", Netlist(Design.FF_PA_PUF, 4, ((2, 3),)), DelayParams(), 0, table)
    challenges = np.zeros((64, 4), dtype=np.uint8)
    tie = _tie_bits(_tie_key(9, 1), 0, 64, 3)[:, 0]
    assert 0 < tie.mean() < 1
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=9), tie)
    assert np.array_equal(reference_propagate(dev, challenges, eval_seed=9), tie)
    assert exhaustive_propagate(dev, challenges[0], eval_seed=9) == tie[0]


def _near_tie_table(stages: int, lines: int) -> np.ndarray:
    """A delay table whose first two lines, read with every select 0, sum to
    1025 + 3*2^-50 and 1025 + 2^-49 over stages 0..2: exact sums 2^-50 apart
    that round to the same double (its ulp at 1025 is 2^-42).  The third
    line adds 1000 per stage; every other delay is 1.  The per-stage maxima
    sum to under 2^12, so the device's unit is at most 2^-50 and the table
    is exact."""
    table = np.ones((stages, 2, lines))
    table[:3, 0, 0] = (1024.0, 1.0, 3 * 2.0**-50)
    table[:3, 0, 1] = (1024.0, 1.0, 2.0**-49)
    if lines == 3:
        table[:3, 0, 2] = 1000.0
    return table


@pytest.mark.parametrize("design", [Design.PA_PUF, Design.APUF, Design.FF_PA_PUF])
def test_exact_sums_that_round_to_one_double_read_their_strict_race(design):
    # Every challenge bit is 0.  The first line is 2^-50 later than the second
    # in exact arithmetic, while the two rounded times are equal, so a gap
    # taken as a difference of rounded times is 0: a tie at window 0.  The
    # arbiter must read the strict race (first < second is 0) instead.
    #   PA-PUF: (qT, qC, qB) = (0, 1, 0), so the response is 0.
    #   APUF: the response is top < bottom, 0.
    #   FF-PA-PUF, tap after stage 2 onto stage 3: the tap's qT selects T's
    #   input at stage 3, about 1027 (select 0) or 3005 (select 1) against
    #   C at 1026 and B at 3001, so the response is qT, 0.
    taps = ((2, 3),) if design is Design.FF_PA_PUF else ()
    netlist = Netlist(design, 4, taps)
    table = _near_tie_table(4, netlist.lines)
    if taps:
        table[3, :, 0] = (2.0, 5.0)
    dev = DeviceInstance("near-tie", netlist, DelayParams(), 0, table)
    scaled, e = circuit._scaled_table(table)
    assert e <= -50 and np.array_equal(np.ldexp(scaled, e), table)
    challenges = np.zeros((64, 4), dtype=np.uint8)
    point, pairs = (1 if taps else 0), (1 if design is Design.APUF else 3)
    tie = _tie_bits(_tie_key(9, point), 0, 64, pairs)[:, 0]
    assert 0 < tie.mean() < 1  # a reader of rounded times would answer these
    strict = np.zeros(64, dtype=np.uint8)
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=9), strict)
    assert np.array_equal(reference_propagate(dev, challenges, eval_seed=9), strict)
    # the exhaustive oracle reads one evaluation per seed: some of these
    # seeds have a first tie bit of 1
    assert 0 < sum(_tie_bits(_tie_key(s, point), 0, 1, pairs)[0, 0] for s in range(8)) < 8
    assert all(exhaustive_propagate(dev, challenges[0], eval_seed=s) == 0 for s in range(8))
    if not taps:
        # the closed form and the reads drawn from it take the same exact gaps
        assert np.array_equal(read_probabilities(dev, challenges), np.zeros(64))
        assert not repeated_reads(dev, challenges, 200, eval_seed=9).any()


@st.composite
def tap_layouts(draw):
    """A valid FF-PA-PUF netlist on 5 to 24 stages with up to 6 taps."""
    stages = draw(st.integers(5, 24))
    targets = draw(st.lists(st.integers(1, stages - 1), unique=True, max_size=6))
    return Netlist(Design.FF_PA_PUF, stages, tuple((draw(st.integers(0, target - 1)), target) for target in targets))


@given(
    netlist=tap_layouts(),
    block_values=st.sampled_from([7, 100, 1 << 16]),
    seed=st.integers(0, 2**16),
)
@example(Netlist(Design.FF_PA_PUF, 8, ((2, 3), (3, 4))), 100, 1)  # adjacent targets, a tap just before its target
@example(Netlist(Design.FF_PA_PUF, 8, ((0, 2), (1, 3), (2, 5))), 7, 2)  # runs of length 0 and 1
@example(Netlist(Design.FF_PA_PUF, 6, ((4, 5), (0, 1))), 1 << 16, 3)  # a one-stage first run, a last-stage target
@settings(max_examples=30, deadline=None)
def test_feed_forward_block_reads_equal_the_reference_on_any_tap_layout(netlist, block_values, seed):
    params = DelayParams(sigma_noise=2.0, metastability_window=0.3)
    devices = synthesize_population(params, netlist, 2, seed)
    challenges = np.random.default_rng(seed).integers(0, 2, size=(40, netlist.stages), dtype=np.uint8)
    eval_seeds = [[seed, seed + 1], [seed + 2, seed + 3]]
    original = circuit.BLOCK_VALUES
    circuit.BLOCK_VALUES = block_values
    try:
        reads = _block_reads(devices, challenges, eval_seeds)
    finally:
        circuit.BLOCK_VALUES = original
    assert np.array_equal(reads, _reference_reads(devices, challenges, eval_seeds))


def test_target_stage_in_gap_space_equals_the_per_line_rule():
    # int64 times near 2^61 and delays below 2^60, as deep in a chain whose sums reach 2^62 units; every
    # one of the 8 select patterns, including the cyclic contradictions 000 and 111, in every row block
    rng = np.random.default_rng(21)
    n_dev, n_rep, n_rows = 2, 3, 64

    def per_line(times, selects, low, high):  # new[l] = s_l ? t[l-1] + high_l : t[l] + low_l
        return [np.where(selects[line] == 1, times[line - 1] + high[line], times[line] + low[line]) for line in range(3)]

    times = list(2**61 - rng.integers(0, 2**40, size=(3, n_dev, 1, n_rows)))
    times[1][0, 0, :4] = times[0][0, 0, :4]  # lines that tie exactly
    gaps = [times[0] - times[1], times[1] - times[2]]
    for _ in range(2):  # from the (D, 1, B) prefix, then on (D, R, B) gaps
        patterns = rng.integers(0, 8, size=(n_dev, n_rep, n_rows))
        patterns[..., :8] = np.arange(8)
        selects = [((patterns >> (2 - line)) & 1).astype(np.uint8) for line in range(3)]
        low, high = (list(rng.integers(0, 2**60, size=(3, n_dev, 1, 1))) for _ in range(2))
        times = per_line(times, selects, low, high)
        gaps = circuit._target_gaps(gaps, selects, low, high)
        assert [g.shape for g in gaps] == [(n_dev, n_rep, n_rows)] * 2
        assert np.array_equal(gaps[0], times[0] - times[1]) and np.array_equal(gaps[1], times[1] - times[2])


def test_tie_keys_are_derived_only_where_a_gap_is_within_the_window(monkeypatch):
    real, derived = circuit._tie_key, []
    monkeypatch.setattr(circuit, "_tie_key", lambda seed, point: derived.append((seed, point)) or real(seed, point))
    netlist = Netlist(Design.FF_PA_PUF, 16, default_ff_taps(16, 3))
    challenges = np.random.default_rng(4).integers(0, 2, size=(300, 16), dtype=np.uint8)
    eval_seeds = [[1, 2], [3, 4], [5, 6]]
    # noisy gaps at window 0 never tie exactly here, so no decision reads a tie bit
    _block_reads(synthesize_population(DelayParams(sigma_noise=2.0), netlist, 3, 7), challenges, eval_seeds)
    assert derived == []
    devices = synthesize_population(DelayParams(sigma_noise=2.0, metastability_window=0.3), netlist, 3, 7)
    assert np.array_equal(_block_reads(devices, challenges, eval_seeds), _reference_reads(devices, challenges, eval_seeds))
    assert {point for _, point in derived} == {0, 1, 2, 3}


def test_a_device_scales_its_delays_by_its_own_unit():
    # The unit is chosen per device, so the delays of a device with small
    # delays (mean 1, sigma 1) or large ones (mean 10^4) never change the
    # exact clean gaps of a default device read in the same population.
    netlist = Netlist(Design.PA_PUF, 64)
    default = synthesize_device(DelayParams(), netlist, 31)
    small = synthesize_device(DelayParams(mean_delay=1.0, sigma_process=1.0), netlist, 32)
    large = synthesize_device(DelayParams(mean_delay=1e4, sigma_process=1e3), netlist, 33)
    challenges = np.random.default_rng(34).integers(0, 2, size=(500, 64), dtype=np.uint8)
    steps, units = circuit._chain_steps([small, default, large])
    population = np.stack(circuit._chain_gaps(steps, units, challenges, None), axis=-1)[:, 0]  # (3, 500, 2)
    for gaps, device in zip(population, (small, default, large)):
        assert np.array_equal(gaps, circuit.clean_gaps(device, challenges))
    assert np.array_equal(population[1], _rounded_gaps(*_reference_times(default, challenges.tolist()), 3))
    assert np.array_equal(clean_arrival_times(default, challenges), reference_clean_times(default, challenges))
    # the small device spans too many binades to be exact in int64: its
    # delays round to its unit, and its clean times stay within one ulp
    exact = reference_clean_times(small, challenges)
    assert np.all(np.abs(clean_arrival_times(small, challenges) - exact) <= np.spacing(exact))


@pytest.mark.parametrize("design", [Design.APUF, Design.PA_PUF])
@pytest.mark.parametrize("stages", [1, 5, 64])
def test_clean_gaps_equal_the_exact_gaps_rounded_once(monkeypatch, design, stages):
    # blocks of 256 // max(stages, lines) rows: 300 rows span 3 to 75 blocks
    monkeypatch.setattr(circuit, "BLOCK_VALUES", 256)
    netlist = Netlist(design, stages)
    device = synthesize_device(DelayParams(), netlist, 40 + stages)
    rows = np.random.default_rng(stages).integers(0, 2, size=(300, stages), dtype=np.uint8)
    expected = _rounded_gaps(*_reference_times(device, rows.tolist()), netlist.lines)
    assert np.array_equal(circuit.clean_gaps(device, rows), expected)


def _one_pass_over_the_stream(device, challenges, eval_seed):
    """Response bits restated from the stream definition: the job's one stream gives the whole batch's
    (N, P, lines - 1) normals at once, row-major over the P observation points (0 the terminal arbiter,
    1.. the taps), and point p adds row n's normals [n, p] to the exact clean gaps rounded once."""
    sigma, window = device.params.sigma_noise, device.params.metastability_window
    lines, points = device.netlist.lines, len(device.netlist.ff_taps) + 1
    n_eval = challenges.shape[0]
    normals = _noise_rng(eval_seed).standard_normal((n_eval, points, lines - 1))

    def flip_flops(point, clean):
        u = normals[:, point, 0]
        a = sigma * math.sqrt(2.0)
        gaps = [clean[:, 0] + a * u]
        if lines == 3:
            v = normals[:, point, 1]
            gaps.append(clean[:, 1] + (sigma * math.sqrt(1.5) * v - a / 2 * u))
            gaps.append(-(gaps[0] + gaps[1]))
        tie = _tie_bits(_tie_key(eval_seed, point), 0, n_eval, len(gaps))
        return np.stack([np.where(np.abs(g) <= window, tie[:, k], g < 0) for k, g in enumerate(gaps)], axis=1)

    q = flip_flops(0, _rounded_gaps(*_reference_times(device, challenges.tolist(), flip_flops), lines))
    return q[:, 0] if lines == 2 else 1 ^ q[:, 0] ^ q[:, 1] ^ q[:, 2]


def test_block_propagation_equals_one_pass_over_the_streams():
    params = DelayParams(sigma_noise=1.5, metastability_window=0.2)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 64), 5)
    challenges = np.random.default_rng(6).integers(0, 2, size=(3000, 64), dtype=np.uint8)
    # two normals (u, v) per row: g_TC = dT-C + a*u, g_CB = dC-B + b*v - (a/2)*u, g_BT = -(g_TC + g_CB)
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=8), _one_pass_over_the_stream(dev, challenges, 8))


def test_apuf_block_propagation_reads_one_normal_per_row():
    params = DelayParams(sigma_noise=1.5, metastability_window=0.2)
    dev = synthesize_device(params, Netlist(Design.APUF, 64), 5)
    challenges = np.random.default_rng(6).integers(0, 2, size=(3000, 64), dtype=np.uint8)
    # one normal u per row: g = (t_top - t_bot) + sigma*sqrt(2)*u
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=8), _one_pass_over_the_stream(dev, challenges, 8))


@pytest.mark.parametrize("taps", [1, 2, 6])
@pytest.mark.parametrize("window", [0.0, 0.3])
def test_feed_forward_propagation_equals_one_pass_over_the_stream(taps, window):
    # one stream per job, (N, P, 2) normals read row-major over the points; on 16 stages with 6 taps a
    # tap stage is another tap's target
    params = DelayParams(sigma_noise=2.0, metastability_window=window)
    dev = synthesize_device(params, Netlist(Design.FF_PA_PUF, 16, default_ff_taps(16, taps)), 9)
    challenges = np.random.default_rng(taps).integers(0, 2, size=(700, 16), dtype=np.uint8)
    assert np.array_equal(propagate_many(dev, challenges, eval_seed=8), _one_pass_over_the_stream(dev, challenges, 8))


@pytest.mark.parametrize(
    "netlist",
    [Netlist(Design.APUF, 16), Netlist(Design.PA_PUF, 16), Netlist(Design.FF_PA_PUF, 16, ((2, 5), (5, 9)))],
)
def test_each_stream_draws_lines_minus_one_normals_per_row(monkeypatch, netlist):
    # one stream per eval seed, whatever the taps: P * (lines - 1) normals per row, P observation points
    real, opened = circuit._noise_rng, []

    def recording(eval_seed):
        opened.append((eval_seed, real(eval_seed)))
        return opened[-1][1]

    monkeypatch.setattr(circuit, "_noise_rng", recording)
    monkeypatch.setattr(circuit, "BLOCK_VALUES", 96)  # several row blocks
    devices = synthesize_population(DelayParams(sigma_noise=1.0), netlist, 2, 2)
    n_eval, seeds = 101, [[4, 5], [6, 7]]
    _block_reads(devices, np.random.default_rng(3).integers(0, 2, size=(n_eval, 16), dtype=np.uint8), seeds)
    assert [seed for seed, _ in opened] == [4, 5, 6, 7]
    for seed, rng in opened:
        fresh = real(seed)
        fresh.standard_normal((len(netlist.ff_taps) + 1) * (netlist.lines - 1) * n_eval)
        assert rng.standard_normal() == fresh.standard_normal()


def test_normal_cdfs_equal_math_erfc_and_scipy():
    # a dense grid, both ends of Cody's middle range (|x| / sqrt 2 = 0.46875 and 4) and the tails
    edges = math.sqrt(2.0) * np.array([0.46875, 4.0])
    x = np.concatenate([np.linspace(-40.0, 40.0, 400_001), edges, -edges, np.nextafter(edges, 0), [-1e300, 1e300]])
    expected = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    assert np.abs(normal.cdf(x) - expected).max() <= 2.3e-16
    rng = np.random.default_rng(8)
    h, k = rng.normal(0.0, 3.0, (2, 300))
    h[:4], k[:4] = [0.0, 9.0, -9.0, 1e300], [0.0, -9.0, 9.0, -1e300]
    cov = [[1.0, -0.5], [-0.5, 1.0]]
    expected = [multivariate_normal.cdf([a, b], cov=cov) for a, b in zip(np.clip(h, -40, 40), np.clip(k, -40, 40))]
    assert np.abs(normal.orthant(h, k) - expected).max() <= 1e-15


def test_read_probabilities_equal_the_normal_cdf():
    # p = P(no flip-flop within the window and a cyclic order) + P(some flip-flop within it) / 2
    rng = np.random.default_rng(21)
    for case in range(80):
        sigma = float(rng.uniform(0.3, 8.0))
        window = float(rng.uniform(0.05, 2.0) * sigma) if case % 2 else 0.0
        params = DelayParams(sigma_noise=sigma, metastability_window=window)
        challenges = rng.integers(0, 2, size=(8, 8), dtype=np.uint8)
        pa = synthesize_device(params, Netlist(Design.PA_PUF, 8), case)
        times = clean_arrival_times(pa, challenges)
        # (T-C, C-B, B-T) have variance 2 sigma^2 and pairwise covariance -sigma^2; each strict
        # order has two adjacent gaps below -window, the cyclic ones (T-C, C-B), (C-B, B-T),
        # (B-T, T-C), and the anticyclic ones those gaps negated
        cov = sigma**2 * np.array([[2.0, -1.0], [-1.0, 2.0]])
        gaps = times - times[:, [1, 2, 0]]
        corner = [-window, -window]
        expected = []
        for gap in gaps:
            cyclic = sum(multivariate_normal.cdf(corner, mean=gap[[k, (k + 1) % 3]], cov=cov) for k in range(3))
            anti = sum(multivariate_normal.cdf(corner, mean=-gap[[k, (k + 1) % 3]], cov=cov) for k in range(3))
            expected.append(cyclic + (1.0 - cyclic - anti) / 2)
        assert np.abs(read_probabilities(pa, challenges) - expected).max() <= 1e-12
        apuf = synthesize_device(params, Netlist(Design.APUF, 8), case)
        times = clean_arrival_times(apuf, challenges)
        gap, s = times[:, 0] - times[:, 1], sigma * math.sqrt(2.0)
        below, above = norm.cdf(-window, loc=gap, scale=s), norm.cdf(window, loc=gap, scale=s)
        expected = below + (above - below) / 2
        assert np.abs(read_probabilities(apuf, challenges) - expected).max() <= 1e-12


@pytest.mark.parametrize("design", [Design.APUF, Design.PA_PUF])
def test_flip_rates_match_read_probabilities(design):
    # the sampler's reads, through propagate_many, against the closed form that repeated_reads draws from
    challenges = np.random.default_rng(12).integers(0, 2, size=(1024, 64), dtype=np.uint8)
    reads, parts = 4000, 8
    tiled = np.tile(challenges, (reads // parts, 1))
    for sigma, window in ((1.953125, 0.0), (2.0, 3.0)):
        dev = synthesize_device(DelayParams(sigma_noise=sigma, metastability_window=window), Netlist(design, 64), 3)
        p = read_probabilities(dev, challenges)
        assert ((p > 0.01) & (p < 0.99)).sum() >= 50, window  # enough cells that flip
        ones = sum(propagate_many(dev, tiled, eval_seed=13 + part).reshape(-1, 1024).sum(axis=0) for part in range(parts))
        # each cell's count of ones lies in the central 4-sigma interval of Binomial(reads, p),
        # taken exactly, so that cells with p*reads << 1 are judged fairly
        low, high = binom.interval(1.0 - 2.0 * norm.sf(4.0), reads, p)
        assert np.all((low <= ones) & (ones <= high)), window


def test_read_probabilities_without_noise_and_their_domain(pa64):
    challenges = np.random.default_rng(14).integers(0, 2, size=(200, 64), dtype=np.uint8)
    assert np.array_equal(read_probabilities(pa64, challenges), propagate_many(pa64, challenges))
    tied = synthesize_device(DelayParams(sigma_process=0.0), Netlist(Design.PA_PUF, 4), 1)
    assert np.array_equal(read_probabilities(tied, challenges[:, :4]), np.full(200, 0.5))
    # at sigma_noise 0 with a window: the clean race, or 1/2 where a gap is within the window
    times = clean_arrival_times(pa64, challenges)
    gaps = np.abs(times - times[:, [1, 2, 0]])
    window = float(np.median(gaps.min(axis=1)))
    windowed = pa64.with_params(DelayParams(metastability_window=window))
    expected = np.where((gaps <= window).any(axis=1), 0.5, propagate_many(pa64, challenges))
    assert 0 < (expected == 0.5).sum() < 200
    assert np.array_equal(read_probabilities(windowed, challenges), expected)
    ff = synthesize_device(DelayParams(sigma_noise=1.0), Netlist(Design.FF_PA_PUF, 4, ((0, 2),)), 1)
    with pytest.raises(ValueError, match="tapless"):
        read_probabilities(ff, challenges[:, :4])


def test_repeated_reads_noiseless_is_constant(pa64):
    # p = 0 never reads 1 and p = 1 always reads 1, whose threshold 2^63 lies above every shifted word:
    # the noiseless device, and a noisy one whose gaps are far beyond its noise
    challenges = np.random.default_rng(4).integers(0, 2, size=(32, 64), dtype=np.uint8)
    for sigma in (0.0, 1e-3):
        dev = pa64.with_params(DelayParams(sigma_noise=sigma))
        p = read_probabilities(dev, challenges)
        assert set(p.tolist()) == {0.0, 1.0}
        reads = repeated_reads(dev, challenges, 2000, eval_seed=3)
        assert np.array_equal(reads, np.broadcast_to(p.astype(np.uint8), reads.shape))


def test_netlist_describe_parse_round_trip():
    for netlist in (
        Netlist(Design.APUF, 64),
        Netlist(Design.PA_PUF, 16),
        Netlist(Design.FF_PA_PUF, 64, ((16, 32), (32, 48))),
    ):
        assert Netlist.parse(netlist.describe()) == netlist


def test_default_ff_taps_placement():
    from papuf import default_ff_taps

    assert default_ff_taps(64, 2) == ((16, 32), (32, 48))
    assert default_ff_taps(16, 0) == ()
    for count in range(7):
        taps = default_ff_taps(16, count)
        assert len(taps) == count
        targets = [t for _, t in taps]
        assert len(set(targets)) == len(targets)
        for tap, target in taps:
            assert 0 <= tap < target < 16
    with pytest.raises(ValueError):
        default_ff_taps(4, 3)
    with pytest.raises(ValueError, match="tap count must be >= 0"):
        default_ff_taps(16, -1)


def test_netlist_validation():
    with pytest.raises(ValueError):
        Netlist(Design.PA_PUF, 0)
    with pytest.raises(ValueError):
        Netlist(Design.PA_PUF, 16, ((1, 2),))  # taps only on the FF design
    with pytest.raises(ValueError):
        Netlist(Design.FF_PA_PUF, 16, ((5, 3),))  # tap must precede target
    with pytest.raises(ValueError):
        Netlist(Design.FF_PA_PUF, 16, ((1, 4), (2, 4)))  # duplicate target
    with pytest.raises(ValueError):
        Netlist(Design.FF_PA_PUF, 16, ((1, 16),))  # target out of range
    assert Netlist(Design.APUF, 4).lines == 2
    assert Netlist(Design.PA_PUF, 4).lines == 3
