import hashlib
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papuf import (
    DelayParams,
    Design,
    Netlist,
    clean_arrival_times,
    propagate_many,
    repeated_reads,
    synthesize_device,
    synthesize_population,
)
from papuf import circuit
from papuf.circuit import _arbitrate, _flip_flops, _noise_rng, _tie_bits, _tie_key
from papuf.device import DeviceInstance
from papuf.oracle import exhaustive_propagate, gate_level_priority, reference_clean_times, reference_propagate


def arrivals_for(order):
    rank = {name: pos for pos, name in enumerate(order)}
    return [float(rank["T"]), float(rank["C"]), float(rank["B"])]


def arbitrate_orderings(orders, window=0.0):
    """Terminal decisions for strict orderings, with all tie bits 0."""
    final = np.array([arrivals_for(order) for order in orders])
    return _arbitrate(final, window, np.zeros((len(orders), 3), dtype=np.uint8))


def propagate_one(device, challenge, eval_seed=0):
    return int(propagate_many(device, np.asarray(challenge)[None, :], eval_seed)[0])


def test_simple_arbiter_race_semantics():
    final = np.array([[5.0, 9.0], [9.0, 5.0]])
    tie = np.ones((2, 1), dtype=np.uint8)
    # top edge first -> 1, bottom edge first -> 0; the tie bits are unused
    assert _arbitrate(final, 0.0, tie).tolist() == [1, 0]


def test_simple_arbiter_tie_is_fair():
    window = 0.1
    final = np.full((10_000, 2), 5.0)
    tie = _tie_bits(_tie_key(0, 0), 0, 10_000, 1)
    bits = _arbitrate(final, window, tie)
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
    bits = _arbitrate(final, np.inf, patterns)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [1 ^ q0 ^ q1 ^ q2 for q0, q1, q2 in patterns.tolist()]


def test_feed_forward_arbiter_pairwise_contract():
    # F0 = (T before C), F1 = (C before B), F2 = (B before T)
    orders = [("T", "C", "B"), ("B", "C", "T"), ("C", "T", "B")]
    sampled = np.array([arrivals_for(order) for order in orders])
    flops = np.stack(_flip_flops(sampled, 0.0, np.ones((3, 3), dtype=np.uint8)), axis=1)
    assert flops.tolist() == [[1, 1, 0], [0, 0, 1], [0, 1, 0]]


def test_feed_forward_arbiter_tie_determinism():
    # tied lines latch the tie bits of the tap's own stream, so equal seeds agree
    tie = _tie_bits(_tie_key(9, 1), 0, 64, 3)
    flops = np.stack(_flip_flops(np.ones((64, 3)), 0.5, tie), axis=1)
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


def test_repeated_reads_matches_distribution_and_chunking(pa64, monkeypatch):
    def reads_per_block_size(dev, challenges, repetitions, eval_seed, block_values):
        reads = []
        for values in block_values:
            monkeypatch.setattr(circuit, "BLOCK_VALUES", values)
            reads.append(repeated_reads(dev, challenges, repetitions, eval_seed=eval_seed))
        return reads

    noisy = pa64.with_params(pa64.params.with_noise(2.0))
    challenges = np.random.default_rng(4).integers(0, 2, size=(64, 64), dtype=np.uint8)
    # 64 rows x 3 lines per repetition: blocks of 7 repetitions, or all 30 in one
    a, b = reads_per_block_size(noisy, challenges, 30, 11, (7 * 64 * 3, 1 << 40))
    assert np.array_equal(a, b)
    assert a.shape == (30, 64)
    # A window wide enough for frequent random tie breaks: the tie stream
    # must not depend on how repetitions are grouped either.
    params = DelayParams(sigma_noise=2.0, metastability_window=3.0)
    challenges = np.random.default_rng(5).integers(0, 2, size=(37, 16), dtype=np.uint8)
    for design in (Design.APUF, Design.PA_PUF):
        dev = synthesize_device(params, Netlist(design, 16), 21)
        # blocks of 1 repetition, of 3, or all 10 in one
        one, three, whole = reads_per_block_size(dev, challenges, 10, 12, (1, 3 * 37 * dev.netlist.lines, 1 << 40))
        assert np.array_equal(one, whole) and np.array_equal(three, whole), design
        # and each row equals an independent full read of the same streams
        row = propagate_many(dev, np.tile(challenges, (10, 1)), eval_seed=12).reshape(10, 37)
        assert np.array_equal(whole, row), design


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


def test_a_device_scales_its_delays_by_its_own_unit():
    # The unit is chosen per device, so the delays of a device with small
    # delays (mean 1, sigma 1) or large ones (mean 10^4) never change the
    # exact clean times of a default device read in the same population.
    netlist = Netlist(Design.PA_PUF, 64)
    default = synthesize_device(DelayParams(), netlist, 31)
    small = synthesize_device(DelayParams(mean_delay=1.0, sigma_process=1.0), netlist, 32)
    large = synthesize_device(DelayParams(mean_delay=1e4, sigma_process=1e3), netlist, 33)
    challenges = np.random.default_rng(34).integers(0, 2, size=(500, 64), dtype=np.uint8)
    alone = clean_arrival_times(default, challenges)
    assert np.array_equal(alone, reference_clean_times(default, challenges))
    population = np.empty((500, 9))
    for rows, times in circuit.arrival_time_blocks([small, default, large], challenges, 128):
        population[rows] = times
    assert np.array_equal(population[:, 3:6], alone)
    # the small device spans too many binades to be exact in int64: its
    # delays round to its unit, and its clean times stay within one ulp
    exact = reference_clean_times(small, challenges)
    assert np.all(np.abs(population[:, :3] - exact) <= np.spacing(exact))
    assert np.array_equal(population[:, :3], clean_arrival_times(small, challenges))


def test_block_propagation_equals_one_pass_over_the_streams():
    params = DelayParams(sigma_noise=1.5, metastability_window=0.2)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 64), 5)
    challenges = np.random.default_rng(6).integers(0, 2, size=(3000, 64), dtype=np.uint8)
    bits = propagate_many(dev, challenges, eval_seed=8)
    # the terminal streams read row by row, over the whole batch at once
    final = clean_arrival_times(dev, challenges) + 1.5 * _noise_rng(8, 0).standard_normal((3000, 3))
    tie = _tie_bits(_tie_key(8, 0), 0, 3000, 3)
    assert np.array_equal(bits, _arbitrate(final, 0.2, tie))


def test_repeated_reads_noiseless_is_constant(pa64):
    challenges = np.random.default_rng(4).integers(0, 2, size=(32, 64), dtype=np.uint8)
    reads = repeated_reads(pa64, challenges, 10, eval_seed=3)
    assert (reads == reads[0]).all()


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
