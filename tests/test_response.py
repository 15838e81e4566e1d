import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from papuf import (
    CrpSet,
    DelayParams,
    propagate_many,
    Design,
    Netlist,
    collect_crps,
    expand_challenge,
    load_crps,
    majority_vote,
    save_crps,
    synthesize_device,
    synthesize_population,
)
from papuf import circuit, kvfile
from papuf.netlist import default_ff_taps
from papuf.oracle import reference_expand, reference_load_crps, reference_propagate
from papuf.response import (
    _CHALLENGE_TAG,
    CRP_COLUMNS,
    LFSR_TAPS,
    _expand_block_rows,
    bits_to_hex,
    expand_many,
    hex_to_bits,
    lfsr_stride,
    neighbor_seed_challenges,
    random_seed_challenges,
)
from papuf.seeds import SEED_MASK, derive_seed


def lfsr_reference_cycle(width):
    """Independent single-clock reference LFSR; returns the visited states."""
    taps = [t - 1 for t in LFSR_TAPS[width]]
    state = [0] * width
    state[0] = 1
    seen = set()
    for _ in range((1 << width) - 1):
        seen.add(tuple(state))
        feedback = 0
        for t in taps:
            feedback ^= state[t]
        state = [feedback] + state[:-1]
    return seen


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 16])
def test_lfsr_full_period(width):
    # the single-clock recurrence visits every nonzero state exactly once
    seen = lfsr_reference_cycle(width)
    assert len(seen) == (1 << width) - 1


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8])
def test_expansion_exhaustively_distinct(width):
    seed = np.zeros(width, dtype=np.uint8)
    seed[0] = 1
    count = (1 << width) - 1
    seq = expand_many(seed[None, :], count)[0]
    as_tuples = {tuple(row) for row in seq.tolist()}
    assert len(as_tuples) == count


def test_stride_coprime_to_period():
    import math

    for width in LFSR_TAPS:
        assert math.gcd(lfsr_stride(width), (1 << width) - 1) == 1
        assert lfsr_stride(width) >= width


def _poly_mulmod_gf2(a, b, modulus):
    result = 0
    deg = modulus.bit_length() - 1
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        while a.bit_length() - 1 >= deg:
            a ^= modulus << (a.bit_length() - 1 - deg)
    return result


def _poly_pow_x_gf2(exponent, modulus):
    result, base = 1, 2
    while exponent:
        if exponent & 1:
            result = _poly_mulmod_gf2(result, base, modulus)
        base = _poly_mulmod_gf2(base, base, modulus)
        exponent >>= 1
    return result


# known prime factorizations of 2^w - 1 for the wide registers
_PERIOD_FACTORS = {
    32: (3, 5, 17, 257, 65537),
    64: (3, 5, 17, 257, 641, 65537, 6700417),
    128: (3, 5, 17, 257, 641, 65537, 274177, 6700417, 67280421310721),
}


@pytest.mark.parametrize("width", [32, 64, 128])
def test_wide_lfsr_polynomials_are_primitive(width):
    # recurrence a_n = sum a_{n-t} over the tap set has characteristic
    # polynomial x^w + sum x^(w-t) + 1; maximal length iff it is primitive
    poly = (1 << width) | 1
    for t in LFSR_TAPS[width]:
        if t != width:
            poly |= 1 << (width - t)
    order = (1 << width) - 1
    assert _poly_pow_x_gf2(order, poly) == 1
    for q in _PERIOD_FACTORS[width]:
        assert order % q == 0
        assert _poly_pow_x_gf2(order // q, poly) != 1


def test_expand_identity_prefix_and_determinism():
    seed = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 8, dtype=np.uint8)
    out = expand_challenge(seed, 1)
    assert np.array_equal(out[0], seed)
    a = expand_challenge(seed, 40)
    b = expand_challenge(seed, 40)
    assert np.array_equal(a, b)
    assert np.array_equal(a[:10], expand_challenge(seed, 10))


def _nonzero_seeds(rows, width, seed):
    seeds = np.random.default_rng(seed).integers(0, 2, size=(rows, width), dtype=np.uint8)
    seeds[~seeds.any(axis=1), 0] = 1
    return seeds


@pytest.mark.parametrize("width", sorted(LFSR_TAPS))
@pytest.mark.parametrize("count", [1, 2, 3, 5, 100, 128])
def test_expand_many_equals_clocked_reference(width, count):
    seeds = _nonzero_seeds(3, width, width * 1000 + count)
    out = expand_many(seeds, count)
    assert out.dtype == np.uint8 and out.shape == (3, count, width)
    assert np.array_equal(out, reference_expand(seeds, count))


@pytest.mark.parametrize("width", [w for w in LFSR_TAPS if w <= 8])
def test_expand_many_equals_clocked_reference_over_full_period(width):
    seeds = _nonzero_seeds(4, width, width)
    count = (1 << width) - 1
    assert np.array_equal(expand_many(seeds, count), reference_expand(seeds, count))


@pytest.mark.parametrize("width, count", [(16, 5), (64, 128), (128, 128)])
def test_expand_many_equals_clocked_reference_across_row_blocks(width, count):
    block = _expand_block_rows(count, width)
    rows = 2 * block + block // 2 + 1  # two full blocks and a short last one
    assert block > 1 and rows % block not in (0, 1)
    seeds = _nonzero_seeds(rows, width, count)
    assert np.array_equal(expand_many(seeds, count), reference_expand(seeds, count))


@pytest.mark.parametrize("bad", [2, 255, 256, 257])
def test_expand_rejects_non_binary_seed(bad):
    # 256 and 257 need a wider array, which a uint8 cast would read as 0 and 1
    seeds = _nonzero_seeds(3, 16, 0).astype(np.uint8 if bad < 256 else np.int64)
    seeds[1, 4] = bad
    with pytest.raises(ValueError, match="0 and 1"):
        expand_many(seeds, 4)


def test_expand_rejects_zero_seed():
    with pytest.raises(ValueError):
        expand_challenge(np.zeros(16, dtype=np.uint8), 4)


def test_expand_rejects_unknown_width():
    with pytest.raises(ValueError):
        expand_challenge(np.ones(9, dtype=np.uint8), 4)


def test_noisy_read_flip_fractions_at_calibrated_noise():
    # at the calibrated noise level the per-read bit-error rate against the
    # majority-vote golden response is about 1 - reliability (~4.6%), so two
    # independent noisy reads disagree at about twice that rate
    from papuf.circuit import repeated_reads
    from papuf.response import expand_many

    sigma = 1.953125  # calibrated for ~95.37% reliability at 64 stages
    params = DelayParams(sigma_noise=sigma)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 64), 42)
    seeds = random_seed_challenges(64, 100, 12)
    expanded = expand_many(seeds, 128).reshape(-1, 64)
    reads = repeated_reads(dev, expanded, 13, eval_seed=90)
    golden = majority_vote(reads[:11])
    q = float((reads != golden[None, :]).mean())
    assert q == pytest.approx(0.0463, abs=0.01)
    # per-cell flip rates are heterogeneous, so two fresh reads disagree at
    # a rate between q (all mass at q_cell=0.5) and 2q(1-q) (homogeneous)
    read_vs_read = float((reads[11] != reads[12]).mean())
    assert q - 0.01 <= read_vs_read <= 2 * q * (1 - q) + 0.01


def test_majority_vote_hand_example():
    responses = [
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 0, 0, 1],
    ]
    assert np.array_equal(majority_vote(responses), np.array([1, 0, 0, 0], dtype=np.uint8))


@pytest.mark.parametrize("value", [2, 256, 257])
def test_majority_vote_checks_bits_before_the_uint8_cast(value):
    # the cast would vote 2 and 257 as a 1 bit and 256 as a 0 bit
    reads = np.zeros((3, 4), dtype=np.int64)
    reads[:, 1] = value
    with pytest.raises(ValueError, match="only 0 and 1"):
        majority_vote(reads)


def test_majority_vote_single_and_even():
    single = np.array([[0, 1, 1, 0]], dtype=np.uint8)
    assert np.array_equal(majority_vote(single), single[0])
    with pytest.raises(ValueError):
        majority_vote(np.zeros((4, 8), dtype=np.uint8))


def test_majority_vote_reduces_error_rate_binomial():
    # P(majority of 11 wrong) < p for any per-read flip probability p < 0.5
    for p in (0.05, 0.1, 0.3, 0.45):
        voted_error = 1.0 - binom.cdf(5, 11, p)
        assert voted_error < p


def test_collect_crps_cardinality_and_shapes():
    params = DelayParams(sigma_noise=1.0)
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 3, 12)
    crps = collect_crps(pop, 100, 11, 8, 900)
    assert crps.responses.shape == (3, 100, 11, 8)
    assert crps.n_devices * crps.n_challenges * crps.repetitions == 3300


def test_paper_scale_bit_budget_arithmetic():
    # 8e6 evaluated bits per board at 128-bit responses
    # = 62500 (challenge, repetition) response evaluations
    assert 8_000_000 // 128 == 62_500
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 1, 1)
    crps = collect_crps(pop, 25, 4, 8, 4)
    evaluations = crps.n_challenges * crps.repetitions
    assert evaluations == 100
    assert crps.responses.size == evaluations * 8


def test_collect_crps_noiseless_repetitions_identical():
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 1, 3)
    crps = collect_crps(pop, 4, 5, 8, 21)
    for r in range(1, 5):
        assert np.array_equal(crps.responses[:, :, r, :], crps.responses[:, :, 0, :])


def test_collect_crps_deterministic():
    params = DelayParams(sigma_noise=2.0)
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 2, 8)
    a = collect_crps(pop, 6, 3, 16, 77)
    b = collect_crps(pop, 6, 3, 16, 77)
    assert np.array_equal(a.responses, b.responses)
    assert np.array_equal(a.challenges, b.challenges)


def test_flat_crps_expands_the_challenges_once(monkeypatch, tmp_path):
    # a collected set reads the expansion collect_crps made; a loaded one expands once
    from papuf import response

    pop = synthesize_population(DelayParams(sigma_noise=1.0), Netlist(Design.PA_PUF, 16), 2, 5)
    crps = collect_crps(pop, 6, 2, 8, 31)
    save_crps(crps, tmp_path / "crps.csv")
    loaded = load_crps(tmp_path / "crps.csv")
    calls = []
    real = response.expand_many
    monkeypatch.setattr(response, "expand_many", lambda *args: calls.append(args) or real(*args))
    x0, y0 = crps.flat_crps()
    x1, y1 = crps.flat_crps()
    assert not calls and np.array_equal(x0, x1) and x0.dtype == np.uint8
    assert np.array_equal(x0, real(crps.challenges, 8).reshape(-1, 16))
    assert np.array_equal(y0, crps.responses[0, :, 0, :].reshape(-1)) and np.array_equal(y0, y1)
    x2, y2 = loaded.flat_crps()
    x3, _ = loaded.flat_crps()
    assert len(calls) == 1 and np.array_equal(x2, x0) and np.array_equal(x3, x0) and np.array_equal(y2, y0)


def test_collect_crps_validates_inputs():
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 1, 3)
    with pytest.raises(ValueError):
        collect_crps([], 5, 1, 8, 0)
    with pytest.raises(ValueError):
        collect_crps(pop, 0, 1, 8, 0)
    with pytest.raises(ValueError):
        collect_crps(pop, 5, 1, 9, 0)


def test_neighbor_chain_differs_by_one_bit():
    seeds = neighbor_seed_challenges(64, 200, 5)
    diffs = (seeds[:-1] != seeds[1:]).sum(axis=1)
    assert (diffs == 1).all()
    assert seeds.any(axis=1).all()
    assert len({row.tobytes() for row in seeds}) == 200


def test_random_seed_challenges_distinct():
    seeds = random_seed_challenges(16, 400, 9)
    assert len({row.tobytes() for row in seeds}) == 400
    assert seeds.any(axis=1).all()
    with pytest.raises(ValueError):
        random_seed_challenges(4, 16, 0)  # only 15 non-zero states exist


def _seed_challenges_row_by_row(width, count, seed):
    """One ``integers`` call per candidate row, skipping zero and repeated rows."""
    rng = np.random.default_rng([seed & SEED_MASK, _CHALLENGE_TAG])
    rows, seen = [], set()
    while len(rows) < count:
        row = rng.integers(0, 2, size=width, dtype=np.uint8)
        if row.any() and row.tobytes() not in seen:
            seen.add(row.tobytes())
            rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(count, width)


@settings(max_examples=150, deadline=None)
@given(
    width=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 65]),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_random_seed_challenges_read_the_stream_one_row_per_call(width, fill, seed):
    # narrow widths skip most candidates (at width 2 only three rows exist), so several batches are drawn
    count = round(fill * min(200, (1 << width) - 1))
    seeds = random_seed_challenges(width, count, seed)
    assert seeds.dtype == np.uint8 and seeds.flags.c_contiguous
    assert np.array_equal(seeds, _seed_challenges_row_by_row(width, count, seed))


def test_hex_packing_msb_first():
    bits = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    assert bits_to_hex(bits) == "81"
    assert np.array_equal(hex_to_bits("81", 8), bits)
    bits12 = np.array([1] + [0] * 11, dtype=np.uint8)
    assert bits_to_hex(bits12) == "8000"
    assert np.array_equal(hex_to_bits("8000", 12), bits12)


@pytest.mark.parametrize("text", ["800f", "8008", "8001"])
def test_hex_to_bits_rejects_nonzero_padding(text):
    # 12 bits take two bytes; the 4 low bits of the second are padding
    with pytest.raises(ValueError, match="nonzero padding bits after bit 12"):
        hex_to_bits(text, 12)
    assert np.array_equal(hex_to_bits(text[:3] + "0", 12), hex_to_bits("8000", 12))


@pytest.mark.parametrize("text", ["8", "810", "zz", "8 1"])
def test_hex_to_bits_rejects_wrong_length_and_non_hex(text):
    with pytest.raises(ValueError, match="2 hex digits for 8 bits"):
        hex_to_bits(text, 8)


def test_crp_file_round_trip(tmp_path):
    params = DelayParams(sigma_noise=1.5)
    pop = synthesize_population(params, Netlist(Design.FF_PA_PUF, 16, ((3, 8),)), 3, 4)
    crps = collect_crps(pop, 7, 3, 16, 55, challenge_mode="neighbor")
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    loaded = load_crps(path)
    assert loaded.device_ids == crps.device_ids
    assert np.array_equal(loaded.challenges, crps.challenges)
    assert np.array_equal(loaded.responses, crps.responses)
    assert loaded.netlist == crps.netlist
    assert loaded.params == crps.params
    assert loaded.challenge_mode == "neighbor"


def test_crp_file_round_trip_apuf(tmp_path):
    params = DelayParams(sigma_noise=0.8)
    pop = synthesize_population(params, Netlist(Design.APUF, 32), 2, 9)
    crps = collect_crps(pop, 5, 2, 8, 77)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    loaded = load_crps(path)
    assert loaded.netlist == crps.netlist
    assert np.array_equal(loaded.responses, crps.responses)
    assert np.array_equal(loaded.challenges, crps.challenges)


@pytest.mark.parametrize("bad", ["a,b", "", "a\rb", "a\nb", "dev\r\n"])
def test_crp_set_rejects_a_device_id_that_cannot_be_a_record_field(tmp_path, bad):
    challenges = random_seed_challenges(16, 2, 1)
    responses = np.zeros((2, 2, 1, 8), dtype=np.uint8)
    with pytest.raises(ValueError) as error:
        CrpSet(["dev-0", bad], challenges, responses, Netlist(Design.PA_PUF, 16), DelayParams(), 1)
    assert str(error.value) == f"device id {bad!r} must be non-empty and hold no comma, CR or LF"
    # the ids save_crps writes load back as they were
    crps = CrpSet(["dev-0", "a b;c"], challenges, responses, Netlist(Design.PA_PUF, 16), DelayParams(), 1)
    save_crps(crps, tmp_path / "crps.csv")
    assert load_crps(tmp_path / "crps.csv").device_ids == ["a b;c", "dev-0"]


def test_an_empty_device_id_names_its_line_in_record_order(tmp_path):
    crps = CrpSet(["dev-0"], random_seed_challenges(16, 3, 1), np.zeros((1, 3, 1, 8), dtype=np.uint8),
                  Netlist(Design.PA_PUF, 16), DelayParams(), 1)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    lines = path.read_text().splitlines()
    empty_id = ",".join(["", *lines[-2].split(",")[1:]])
    bad_size = lines[-1].removesuffix(",8") + ",x"
    # the last two records are lines len - 1 and len: whichever bad record comes first is named
    for records, error in (([empty_id, bad_size], "device id '' must be non-empty and hold no comma, CR or LF"),
                           ([bad_size, empty_id], "response_bits_len")):
        path.write_text("\n".join(lines[:-2] + records) + "\n")
        for parse in (load_crps, reference_load_crps):
            with pytest.raises(ValueError) as exc:
                parse(path)
            assert str(exc.value).startswith(f"{path}, line {len(lines) - 1}: ") and error in str(exc.value), parse


@pytest.mark.parametrize("devices,challenges,repetitions", [(0, 3, 1), (2, 0, 1), (2, 3, 0)])
def test_saving_a_set_with_no_records_is_an_error(tmp_path, devices, challenges, repetitions):
    crps = CrpSet([f"dev-{d}" for d in range(devices)], random_seed_challenges(16, 3, 1)[:challenges],
                  np.zeros((devices, challenges, repetitions, 8), dtype=np.uint8), Netlist(Design.PA_PUF, 16),
                  DelayParams(), 1)
    path = tmp_path / "crps.csv"
    with pytest.raises(ValueError) as error:
        save_crps(crps, path)
    assert str(error.value) == (f"no CRP records to save: responses have shape "
                                f"{(devices, challenges, repetitions, 8)}")
    assert not path.exists()


def test_crp_round_trip_transient_memory_is_bounded_by_the_file_size(tmp_path):
    # the population workload's shape: 50 devices x 500 challenges x 1 read x 128 bits
    rng = np.random.default_rng(5)
    crps = CrpSet([f"dev-{d:03d}" for d in range(50)], random_seed_challenges(64, 500, 5),
                  rng.integers(0, 2, size=(50, 500, 1, 128), dtype=np.uint8), Netlist(Design.PA_PUF, 64),
                  DelayParams(), 5)
    path = tmp_path / "crps.csv"
    tracemalloc.start()
    try:
        save_crps(crps, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_crps(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before  # what it returns included
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert save_peak <= 1.25 * size, save_peak / size
    assert load_peak <= 5 * size, load_peak / size
    assert loaded.device_ids == crps.device_ids and np.array_equal(loaded.responses, crps.responses)


def test_an_id_window_past_the_end_of_the_file_reads_zero_padding(tmp_path):
    # ids are compared in windows as wide as the longest id, so the short
    # ids of the last records have windows that run past the end of the file
    long_id = "x" * 300
    crps = CrpSet([long_id, "s", "t"], random_seed_challenges(16, 3, 3),
                  np.random.default_rng(3).integers(0, 2, size=(3, 3, 2, 8), dtype=np.uint8),
                  Netlist(Design.PA_PUF, 16), DelayParams(), 3)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    text = path.read_bytes()
    assert text.rindex(b"\nt,") > len(text) - len(long_id)
    loaded = _parsed(load_crps, path)
    assert loaded == _parsed(reference_load_crps, path)
    assert loaded[0] == ["s", "t", long_id] and loaded[4] == crps.responses[[1, 2, 0]].tobytes()


def test_crp_loader_rejects_duplicates(tmp_path):
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 1, 4)
    crps = collect_crps(pop, 2, 1, 8, 55)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    text = path.read_text()
    last_record = text.rstrip().splitlines()[-1]
    path.write_text(text + last_record + "\n")
    with pytest.raises(ValueError):
        load_crps(path)


@pytest.mark.parametrize(
    "design,taps",
    [(Design.PA_PUF, ()), (Design.APUF, ()), (Design.FF_PA_PUF, ()), (Design.FF_PA_PUF, ((16, 32), (32, 48)))],
)
def test_collect_crps_equals_per_device_propagation(design, taps):
    params = DelayParams(sigma_noise=2.0, metastability_window=0.3)
    pop = synthesize_population(params, Netlist(design, 64, taps), 3, 12)
    # 13 challenges x 128 bits: row blocks of whole challenges, the last one short
    crps = collect_crps(pop, 13, 3, 128, 99)
    expanded = expand_many(crps.challenges, 128).reshape(-1, 64)
    for d, dev in enumerate(pop):
        for r in range(3):
            seed = derive_seed(99, "crp-eval", dev.device_id, r)
            expected = propagate_many(dev, expanded, seed).reshape(13, 128)
            assert np.array_equal(crps.responses[d, :, r], expected), (design, taps, d, r)


@pytest.mark.parametrize(
    "netlist,group_stages",
    [
        pytest.param(Netlist(Design.FF_PA_PUF, 64, ((16, 32), (32, 48))), 4, id="netlist0"),
        pytest.param(Netlist(Design.FF_PA_PUF, 16, default_ff_taps(16, 6)), 4, id="netlist1"),
        pytest.param(Netlist(Design.APUF, 16), 4, id="netlist2"),
        pytest.param(Netlist(Design.PA_PUF, 16), 4, id="netlist3"),
        # the tapless gap table at other group sizes, 3 and 6 not dividing 16
        *(pytest.param(Netlist(Design.APUF, 16), g, id=f"netlist2-group{g}") for g in (1, 3, 6)),
    ],
)
@pytest.mark.parametrize("window", [0.0, 0.3])
def test_block_reader_equals_the_per_job_reference(monkeypatch, netlist, group_stages, window):
    # feed-forward propagate_many reads blocks of 200 rows, which split the
    # 128-row challenges; collect_crps reads one challenge a block
    monkeypatch.setattr(circuit, "BLOCK_VALUES", 600)
    monkeypatch.setattr(circuit, "GROUP_STAGES", group_stages)
    params = DelayParams(sigma_noise=2.0, metastability_window=window)
    pop = synthesize_population(params, netlist, 3, 21)
    crps = collect_crps(pop, 13, 3, 128, 77)
    expanded = expand_many(crps.challenges, 128).reshape(-1, netlist.stages)
    for d, dev in enumerate(pop):
        for r in range(3):
            seed = derive_seed(77, "crp-eval", dev.device_id, r)
            expected = reference_propagate(dev, expanded, seed)
            assert np.array_equal(propagate_many(dev, expanded, seed), expected), (d, r)
            assert np.array_equal(crps.responses[d, :, r].reshape(-1), expected), (d, r)


def test_crp_loader_accepts_any_record_order_and_rejects_gaps(tmp_path):
    pop = synthesize_population(DelayParams(sigma_noise=1.0), Netlist(Design.PA_PUF, 16), 3, 4)
    crps = collect_crps(pop, 4, 2, 16, 55)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    lines = path.read_text().splitlines()
    records = [l for l in lines if not l.startswith("#") and not l.startswith("device_id,")]
    head = lines[: len(lines) - len(records)]
    shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
    path.write_text("\n".join(head + shuffled) + "\n")
    loaded = load_crps(path)
    assert loaded.device_ids == crps.device_ids
    loaded_hex = [bits_to_hex(c) for c in loaded.challenges]
    order = [loaded_hex.index(bits_to_hex(c)) for c in crps.challenges]
    assert np.array_equal(loaded.responses[:, order], crps.responses)
    path.write_text("\n".join(head + records[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing"):
        load_crps(path)


def _one_record_file(tmp_path, response_hex):
    """A 1-record CRP file of 12-bit responses whose response field is ``response_hex``."""
    crps = CrpSet(["dev-0"], np.ones((1, 16), dtype=np.uint8), np.ones((1, 1, 1, 12), dtype=np.uint8),
                  Netlist(Design.PA_PUF, 16), DelayParams(), 0)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    text = path.read_text()
    assert text.endswith(",fff0,12\n")
    path.write_text(text.replace(",fff0,12\n", f",{response_hex},12\n"))
    return path, len(text.splitlines())


@pytest.mark.parametrize(
    "response_hex,message",
    [
        ("ffff", "nonzero padding bits after bit 12 in 'ffff'"),
        ("fff1", "nonzero padding bits after bit 12 in 'fff1'"),
        (" fff0", "expected 4 hex digits for 12 bits, got ' fff0'"),
        ("ff f0", "expected 4 hex digits for 12 bits, got 'ff f0'"),
        ("fff", "expected 4 hex digits for 12 bits, got 'fff'"),
    ],
)
def test_response_hex_follows_the_challenge_rule(tmp_path, response_hex, message):
    # zero padding bits and no stray whitespace, so that save, load and save
    # again stays byte-identical
    path, line = _one_record_file(tmp_path, response_hex)
    for parse in (load_crps, reference_load_crps):
        with pytest.raises(ValueError) as exc:
            parse(path)
        assert str(exc.value) == f"{path}, line {line}: {message}"
    path, _ = _one_record_file(tmp_path, "FFF0")
    assert load_crps(path).responses.all()


def _crp_file(data, path) -> bytes:
    """A valid CRP file: records shuffled, blank lines, whitespace around
    some lines and mixed LF/CRLF line ends, each kind drawn per file."""
    stages = data.draw(st.sampled_from([6, 16, 64]), label="stages")
    n_bits = data.draw(st.integers(8, 128), label="n_bits")
    reps = data.draw(st.sampled_from([1, 2, 10, 12]), label="repetitions")
    ids = data.draw(st.lists(st.text("ab-_019", min_size=1, max_size=9), min_size=1, max_size=3, unique=True))
    blank, lead, trail = (data.draw(st.sampled_from(["", " ", "\t", "\x0b\x1c"]), label=label)
                          for label in ("blank line", "leading space", "trailing space"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    challenges = random_seed_challenges(stages, data.draw(st.integers(1, 4), label="challenges"), seed)
    responses = rng.integers(0, 2, size=(len(ids), challenges.shape[0], reps, n_bits), dtype=np.uint8)
    save_crps(CrpSet(ids, challenges, responses, Netlist(Design.PA_PUF, stages), DelayParams(), seed), path)
    lines = path.read_text().splitlines()
    start = lines.index("device_id,challenge_hex,repetition,response_hex,response_bits_len") + 1
    records = [lines[start + i] for i in rng.permutation(len(lines) - start)]
    records = [lead * rng.integers(0, 2) + line + trail * rng.integers(0, 2) for line in records]
    for _ in range(rng.integers(0, 4)):
        records.insert(int(rng.integers(0, len(records) + 1)), blank)
    ends = rng.choice(["\n", "\r\n"], size=start + len(records))
    return "".join(line + end for line, end in zip(lines[:start] + records, ends)).encode()


def _parsed(parse, path):
    """What ``parse`` makes of a file: its CrpSet's contents, or its error."""
    try:
        crps = parse(path)
    except ValueError as exc:
        return str(exc)
    return (crps.device_ids, crps.challenges.shape, crps.challenges.tobytes(), crps.responses.shape,
            crps.responses.tobytes(), crps.netlist, crps.params, crps.master_eval_seed, crps.challenge_mode,
            crps.extra_header)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_crps_equals_the_line_by_line_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("crp") / "crps.csv"
    path.write_bytes(_crp_file(data, path))
    loaded = _parsed(load_crps, path)
    assert not isinstance(loaded, str), loaded
    assert loaded == _parsed(reference_load_crps, path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_crps_equals_the_reference_on_mutations(tmp_path_factory, data):
    # one byte replaced, inserted or deleted, or one line repeated elsewhere
    # or dropped: both parsers return the same set, or raise the same error
    # on the same line
    path = tmp_path_factory.mktemp("crp") / "crps.csv"
    text = bytearray(_crp_file(data, path))
    table = text.index(b"\n", text.index(b"response_bits_len")) + 1  # the header is kvfile's
    pick = data.draw(st.randoms())
    at = pick.randrange(table, len(text))
    byte = data.draw(st.sampled_from([*(bytes([b]) for b in b"019afAFgz,- \t\r\n\x00\x1c\xff"),
                                      b"\xc3\xa9", b"\xc2\xa0", b"\xe2\x80\xa8"]), label="byte")
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "repeat line", "drop line"]), label="edit")
    if edit == "replace":
        text[at : at + 1] = byte
    elif edit == "insert":
        text[at:at] = byte
    elif edit == "delete":
        del text[at]
    else:
        lines = text[table:].splitlines(keepends=True)
        line = lines.pop(pick.randrange(len(lines)))
        for _ in range(2 if edit == "repeat line" else 0):
            lines.insert(pick.randrange(len(lines) + 1), line)
        text[table:] = b"".join(lines)
    path.write_bytes(bytes(text))
    assert _parsed(load_crps, path) == _parsed(reference_load_crps, path)


@pytest.mark.parametrize(
    "edit,as_text",
    [
        pytest.param(lambda t: t.replace("dev-1,", "d\u00e9v-1,"), True, id="e-acute-in-an-id"),
        pytest.param(lambda t: t.replace(f"{CRP_COLUMNS}\n", f"{CRP_COLUMNS}\n\u00a0"), True, id="nbsp-before"),
        pytest.param(lambda t: t[:-1] + "\u0085\n", True, id="nel-after"),
        pytest.param(lambda t: t.replace("dev-1,", "dev\u2028-1,"), True, id="line-separator-in-an-id"),
        pytest.param(lambda t: t.replace("\n", "\r"), True, id="cr-line-ends"),
        pytest.param(lambda t: t.replace("dev-1,", "dev\x00-1,"), False, id="nul-in-an-id"),
        pytest.param(lambda t: t.replace("\ndev-1,", "\n\t dev-1,").replace(",8\n", ",8 \x0b\x1c\n"), False,
                     id="ascii-space-around"),
    ],
)
def test_load_crps_keeps_the_text_contract(tmp_path, monkeypatch, edit, as_text):
    # a file with a CR or a non-ASCII byte is read as text, as every papuf
    # file is, and an ASCII one is parsed from its bytes; either way both
    # loaders make the same set of it
    crps = CrpSet(["dev-0", "dev-1"], random_seed_challenges(16, 3, 2),
                  np.random.default_rng(2).integers(0, 2, size=(2, 3, 2, 8), dtype=np.uint8),
                  Netlist(Design.PA_PUF, 16), DelayParams(), 2)
    path = tmp_path / "crps.csv"
    save_crps(crps, path)
    path.write_bytes(edit(path.read_text()).encode())
    opened, real = [], kvfile.open_text
    monkeypatch.setattr(kvfile, "open_text", lambda p: opened.append(p) or real(p))
    loaded = _parsed(load_crps, path)
    monkeypatch.undo()
    assert not isinstance(loaded, str), loaded
    assert loaded == _parsed(reference_load_crps, path)
    assert bool(opened) == as_text
