import dataclasses

import numpy as np
import pytest

from papuf import (
    CalibrationError,
    CalibrationResult,
    CrpSet,
    DelayParams,
    Design,
    Netlist,
    calibrate_noise,
    collect_crps,
    compute_report,
    inter_hd,
    intra_hd,
    measure_reliability,
    reliability,
    robustness,
    synthesize_device,
    synthesize_population,
    uniformity,
    uniqueness,
)
from papuf import circuit, metrics
from papuf.circuit import repeated_reads
from papuf.metrics import (
    CALIBRATION_MAX_ITERATIONS,
    CALIBRATION_TOLERANCE,
    RELIABILITY_CHALLENGES,
    RELIABILITY_REPETITIONS,
    RELIABILITY_RESPONSE_SIZE,
    SIGMA_SEARCH_BOUNDS,
    _population_metrics,
    bit_aliasing,
    sweep_feed_forward,
    sweep_response_size,
)
from papuf.oracle import naive_inter_hd, naive_intra_hd
from papuf.response import expand_many, random_seed_challenges
from papuf.seeds import derive_seed


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def make_crps(responses, netlist=None, params=None, mode="random"):
    responses = np.asarray(responses, dtype=np.uint8)
    d, c, _, n = responses.shape
    netlist = netlist or Netlist(Design.PA_PUF, 16)
    challenges = random_seed_challenges(netlist.stages, c, 1)
    return CrpSet(
        device_ids=[f"dev-{i:03d}" for i in range(d)],
        challenges=challenges,
        responses=responses,
        netlist=netlist,
        params=params or DelayParams(),
        master_eval_seed=0,
        challenge_mode=mode,
    )


# ---------------------------------------------------------------------------
# intra / inter Hamming distance


def test_intra_hd_identical_and_complement():
    r = bits("10110100")
    pct, hist = intra_hd([r, r])
    assert pct == 0.0
    assert hist[0] == 1 and hist.sum() == 1
    pct, hist = intra_hd([r, 1 - r])
    assert pct == 100.0
    assert hist[8] == 1


def test_intra_hd_hand_chain():
    chain = [bits("00001111"), bits("00000111"), bits("10000111")]
    pct, hist = intra_hd(chain)
    assert pct == pytest.approx(12.5)
    assert hist[1] == 2 and hist.sum() == 2


def test_inter_hd_hand_examples():
    pct, _ = inter_hd([bits("0101"), bits("0101")])
    assert pct == 0.0
    pct, hist = inter_hd([bits("0000"), bits("1111"), bits("0011")])
    assert pct == pytest.approx(200.0 / 3.0)
    assert hist.sum() == 3  # one entry per device pair


def test_inter_hd_symmetric_under_permutation():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2, size=(5, 16), dtype=np.uint8)
    base, _ = inter_hd(rows)
    shuffled, _ = inter_hd(rows[rng.permutation(5)])
    assert base == pytest.approx(shuffled)


def _brute_force_hd_histogram(rows, pairs) -> np.ndarray:
    """Counts of each Hamming distance 0..n over the given (i, j) row pairs, bit by bit."""
    n = len(rows[0])
    histogram = np.zeros(n + 1, dtype=np.int64)
    for i, j in pairs:
        histogram[sum(int(a) != int(b) for a, b in zip(rows[i], rows[j]))] += 1
    return histogram


def test_hd_implementations_match_naive_oracles():
    # widths up to 130 bits pack into 1..17 bytes, so the popcount reads
    # uint8, uint16, uint32 and uint64 words
    rng = np.random.default_rng(7)
    widths = [int(rng.integers(1, 131)) for _ in range(200)] + [8, 16, 32, 64, 128, 130]
    for n in widths:
        k = int(rng.integers(2, 7))
        rows = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        intra_mean, intra_histogram = intra_hd(rows)
        inter_mean, inter_histogram = inter_hd(rows)
        assert intra_mean == pytest.approx(naive_intra_hd(rows))
        assert inter_mean == pytest.approx(naive_inter_hd(rows))
        consecutive = [(i, i + 1) for i in range(k - 1)]
        every = [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert np.array_equal(intra_histogram, _brute_force_hd_histogram(rows, consecutive)), n
        assert np.array_equal(inter_histogram, _brute_force_hd_histogram(rows, every)), n


def test_hd_input_validation():
    with pytest.raises(ValueError):
        intra_hd([bits("0101")])
    with pytest.raises(ValueError):
        inter_hd([bits("0101")])
    for hd in (intra_hd, inter_hd):
        # a packed popcount would read the 2 as a 1; a uint8 cast, 256 as 0 and 257 as 1
        for value in (2, 256, 257):
            with pytest.raises(ValueError, match="only 0 and 1"):
                hd(np.array([[0, value], [0, 1]]))


# ---------------------------------------------------------------------------
# uniformity / bit aliasing


def test_uniformity_extremes_and_alternating():
    ones = np.ones((1, 1, 1, 8), dtype=np.uint8)
    zeros = np.zeros((1, 1, 1, 8), dtype=np.uint8)
    assert uniformity(make_crps(ones))[2] == 100.0
    assert uniformity(make_crps(zeros))[2] == 0.0
    alternating = np.tile(np.array([0, 1], dtype=np.uint8), 8)[None, None, None, :]
    lo, hi, avg = uniformity(make_crps(alternating))
    assert lo == hi == avg == 50.0


def test_uniformity_complement_property():
    rng = np.random.default_rng(3)
    resp = rng.integers(0, 2, size=(2, 5, 1, 32), dtype=np.uint8)
    avg = uniformity(make_crps(resp))[2]
    avg_complement = uniformity(make_crps(1 - resp))[2]
    assert avg + avg_complement == pytest.approx(100.0)


def test_bit_aliasing_trivial_cases():
    zeros = np.zeros((3, 4, 1, 8), dtype=np.uint8)
    assert bit_aliasing(make_crps(zeros)) == (0.0, 0.0, 0.0)
    rng = np.random.default_rng(5)
    resp = rng.integers(0, 2, size=(1, 4, 1, 8), dtype=np.uint8)
    paired = np.concatenate([resp, 1 - resp], axis=0)
    lo, hi, avg = bit_aliasing(make_crps(paired))
    assert lo == hi == avg == 50.0
    with pytest.raises(ValueError):
        bit_aliasing(make_crps(zeros[:1]))


# ---------------------------------------------------------------------------
# robustness / reliability


def test_robustness_noiseless_and_coin():
    rng = np.random.default_rng(11)
    stable = np.repeat(rng.integers(0, 2, size=(1, 10, 1, 16), dtype=np.uint8), 7, axis=2)
    s0, s1, unstable = robustness(make_crps(stable))
    assert unstable == 0.0
    assert s0 + s1 == pytest.approx(100.0)
    coin = rng.integers(0, 2, size=(1, 50, 20, 64), dtype=np.uint8)
    _, _, unstable = robustness(make_crps(coin))
    assert unstable > 99.5  # 100 - 2*100*0.5^20 is essentially 100


def test_robustness_requires_repetitions():
    resp = np.zeros((1, 3, 1, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        robustness(make_crps(resp))


def test_reliability_noiseless_is_exactly_100():
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 2, 5)
    crps = collect_crps(pop, 10, 5, 16, 50)
    assert reliability(crps) == 100.0


def test_reliability_synthetic_flip_rate():
    rng = np.random.default_rng(13)
    golden = rng.integers(0, 2, size=(1, 100, 128), dtype=np.uint8)
    reads = np.repeat(golden[:, :, None, :], 9, axis=2)
    flips = rng.random(reads.shape) < 0.05
    noisy = reads ^ flips.astype(np.uint8)
    assert noisy.size >= 100_000
    # a majority of 9 reads at a 5% flip rate is the golden bit in all but ~1e-4 of the cells
    assert reliability(make_crps(noisy)) == pytest.approx(95.0, abs=0.5)


def test_reliability_100_iff_all_reads_equal_reference():
    rng = np.random.default_rng(17)
    golden = rng.integers(0, 2, size=(2, 6, 32), dtype=np.uint8)
    reads = np.repeat(golden[:, :, None, :], 5, axis=2)
    assert reliability(make_crps(reads)) == 100.0
    reads[1, 2, 3, 7] ^= 1  # one read of five disagrees with the unchanged majority
    assert reliability(make_crps(reads)) == pytest.approx(100.0 - 100.0 / reads.size)


def test_enrollment_majority_window_is_odd():
    # Only the first 11 reads vote, and each column below votes 1.  Of 12
    # reads, 4 of the first 9 read 1, so a 9-read window would vote 0; of
    # 13 reads, 6 of the first 11 read 1, where all 13 would vote 0.
    for column in ([1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1], [1] * 6 + [0] * 7):
        reads = np.broadcast_to(np.array(column, dtype=np.uint8)[None, None, :, None], (1, 4, len(column), 8))
        assert reliability(make_crps(reads)) == pytest.approx(100.0 * sum(column) / len(column))


# ---------------------------------------------------------------------------
# uniqueness


def test_uniqueness_identical_clones_is_zero():
    params = DelayParams()
    template = synthesize_device(params, Netlist(Design.PA_PUF, 16), 200)
    clones = [dataclasses.replace(template, device_id=f"dev-{i:03d}") for i in range(4)]
    crps = collect_crps(clones, 20, 1, 16, 60)
    assert uniqueness(crps) == 0.0


def test_uniqueness_fair_coins_near_50():
    rng = np.random.default_rng(23)
    resp = rng.integers(0, 2, size=(4, 20, 1, 128), dtype=np.uint8)
    assert resp.size >= 10_000
    assert uniqueness(make_crps(resp)) == pytest.approx(50.0, abs=1.0)


def test_uniqueness_requires_two_devices():
    resp = np.zeros((1, 3, 1, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        uniqueness(make_crps(resp))


def test_uniqueness_matches_pairwise_inter_hd():
    rng = np.random.default_rng(29)
    resp = rng.integers(0, 2, size=(4, 6, 1, 16), dtype=np.uint8)
    crps = make_crps(resp)
    per_challenge = [inter_hd(resp[:, c, 0, :])[0] for c in range(6)]
    assert uniqueness(crps) == pytest.approx(np.mean(per_challenge))


# ---------------------------------------------------------------------------
# report assembly


def test_compute_report_invariants():
    params = DelayParams(sigma_noise=1.5)
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 3, 31)
    crps = collect_crps(pop, 12, 5, 32, 70)
    report = compute_report(crps)
    assert report.stable0 + report.stable1 + report.unstable == pytest.approx(100.0, abs=0.01)
    for value in (
        report.uniformity_min,
        report.uniformity_max,
        report.uniformity_avg,
        report.bit_aliasing_min,
        report.bit_aliasing_max,
        report.bit_aliasing_avg,
        report.uniqueness,
        report.reliability,
    ):
        assert 0.0 <= value <= 100.0
    # intra histogram: consecutive pairs per device; inter: pairs per challenge
    assert report.intra_hd_histogram.sum() == 3 * 11
    assert report.inter_hd_histogram.sum() == 3 * 12
    fields = report.fields()
    assert list(fields) == sorted(fields)
    assert fields["uniqueness"] == f"{report.uniqueness:.4f}" and fields["challenge_mode"] == "random"


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_target_100_returns_zero_noise(pa64):
    result = calibrate_noise(100.0, pa64)
    assert result.sigma_noise == 0.0
    assert result.achieved_reliability == 100.0


def test_calibrate_validates_target(pa64):
    with pytest.raises(CalibrationError):
        calibrate_noise(40.0, pa64)
    with pytest.raises(CalibrationError):
        calibrate_noise(101.0, pa64)


def test_calibrate_unreachable_target(pa64):
    # the most noise searched still reads above 61%
    with pytest.raises(CalibrationError, match="at sigma=50.0 is still"):
        calibrate_noise(50.01, pa64)
    # every gap inside a 1e9 window resolves to a fair coin, so sigma=0 reads about 60%
    coin_flips = pa64.with_params(dataclasses.replace(pa64.params, metastability_window=1e9))
    with pytest.raises(CalibrationError, match="at sigma=0.0 is 60"):
        calibrate_noise(99.9, coin_flips)


def test_calibrate_hits_target_and_monotone(pa64):
    result = calibrate_noise(95.37, pa64, eval_seed=1)
    assert abs(result.achieved_reliability - 95.37) <= 0.25
    assert result.sigma_noise > 0
    calibrated = pa64.with_params(pa64.params.with_noise(result.sigma_noise))
    doubled = pa64.with_params(pa64.params.with_noise(2 * result.sigma_noise))
    assert measure_reliability(doubled, eval_seed=1) < measure_reliability(calibrated, eval_seed=1)


@pytest.mark.parametrize("netlist", [Netlist(Design.APUF, 64), Netlist(Design.PA_PUF, 64)])
def test_tapless_calibration_draws_its_noise_words_once(monkeypatch, netlist):
    device = synthesize_device(DelayParams(), netlist, 8)
    opened, real = [], circuit._noise_rng

    def counted(eval_seed):
        opened.append(eval_seed)
        return real(eval_seed)

    monkeypatch.setattr(circuit, "_noise_rng", counted)
    result = calibrate_noise(95.37, device, eval_seed=6)
    assert result.iterations >= 1 and opened == [derive_seed(6, "rel-reads")]


@pytest.mark.parametrize(
    "netlist",
    [Netlist(Design.APUF, 64), Netlist(Design.PA_PUF, 64), Netlist(Design.FF_PA_PUF, 16, ((4, 8), (8, 12)))],
)
def test_calibration_equals_a_bisection_over_measure_reliability(monkeypatch, netlist):
    # calibrate_noise shares the challenges and clean gaps between its
    # probes; the bisection here measures every probe on its own
    device = synthesize_device(DelayParams(), netlist, 8)
    calls = []

    def counted(*args):
        calls.append(args)
        return circuit.clean_gaps(*args)

    monkeypatch.setattr(metrics, "clean_gaps", counted)
    result = calibrate_noise(95.37, device, eval_seed=6)
    assert len(calls) == (0 if netlist.ff_taps else 1)

    def at(sigma):
        return measure_reliability(device.with_params(device.params.with_noise(sigma)), eval_seed=6)

    assert result.achieved_reliability == at(result.sigma_noise)
    lo, hi = SIGMA_SEARCH_BOUNDS
    assert at(lo) + CALIBRATION_TOLERANCE >= 95.37 >= at(hi) - CALIBRATION_TOLERANCE
    for iteration in range(1, CALIBRATION_MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        rel = at(mid)
        if abs(rel - 95.37) <= CALIBRATION_TOLERANCE:
            break
        lo, hi = (mid, hi) if rel > 95.37 else (lo, mid)
    assert (result.sigma_noise, result.achieved_reliability, result.iterations) == (mid, rel, iteration)


@pytest.mark.parametrize(
    "netlist, at_half, at_two, calibrated",
    [
        (Netlist(Design.APUF, 64), 99.55679086538461, 98.4149639423077,
         CalibrationResult(5.46875, 95.61298076923077, 95.37, 6)),
        (Netlist(Design.PA_PUF, 64), 98.92327724358974, 95.95978565705128,
         CalibrationResult(2.34375, 95.34880809294872, 95.37, 6)),
        (Netlist(Design.FF_PA_PUF, 16, ((4, 8), (8, 12))), 91.84194711538461, 75.55088141025641,
         CalibrationResult(0.3662109375, 95.30123197115384, 95.37, 11)),
    ],
)
def test_reliability_and_calibration_values_are_pinned(netlist, at_half, at_two, calibrated):
    # exact floats, so that a change moving both measure_reliability and
    # calibrate_noise the same way still fails; the feed-forward case is
    # the only pin of that path
    device = synthesize_device(DelayParams(), netlist, 8)

    def at(sigma):
        return measure_reliability(device.with_params(device.params.with_noise(sigma)), eval_seed=6)

    assert (at(0.5), at(2.0)) == (at_half, at_two)
    assert calibrate_noise(95.37, device, eval_seed=6) == calibrated


def test_measure_reliability_consistent_with_crp_reliability(pa64):
    sigma = 1.953125
    dev = pa64.with_params(pa64.params.with_noise(sigma))
    direct = measure_reliability(dev, eval_seed=4)
    crps = collect_crps([dev], RELIABILITY_CHALLENGES, RELIABILITY_REPETITIONS, RELIABILITY_RESPONSE_SIZE, 400)
    via_crps = reliability(crps)
    assert direct == pytest.approx(via_crps, abs=0.6)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_zero_taps_equals_plain_pa():
    params = DelayParams(sigma_noise=2.0)
    a = _population_metrics(params, Netlist(Design.FF_PA_PUF, 16, ()), 3, 8, 3, 16, 42)
    b = _population_metrics(params, Netlist(Design.PA_PUF, 16), 3, 8, 3, 16, 42)
    assert a == b


def test_sweep_response_size_values():
    netlist, seeds, challenges = Netlist(Design.PA_PUF, 32), (0, 1, 2), 16
    sweep = dict(population_size=4, params=DelayParams(sigma_noise=0.0), num_challenges=challenges,
                 repetitions=3, seeds=seeds)
    rows = sweep_response_size(netlist, sizes=(8, 16, 32, 64), **sweep)
    assert [row.label for row in rows] == ["8", "16", "32", "64"]
    for row in rows:
        # noiseless reads all equal their enrolment
        assert row.reliability == 100.0 and row.reliability_by_seed == (100.0,) * len(seeds)
        # 4 sigma of the mean of fair coins, one per (seed, challenge, bit) cell
        cells = len(seeds) * challenges * int(row.label)
        assert abs(row.uniqueness - 50.0) <= 4 * 50.0 / np.sqrt(cells)
    # each size draws from its own seeds, so the other sizes never change its row
    assert sweep_response_size(netlist, sizes=(16,), **sweep) == [rows[1]]


def test_a_sweep_checks_its_points_before_the_work_and_still_runs_each():
    sweep = dict(population_size=2, params=DelayParams(), num_challenges=2, repetitions=2, seeds=(0,))
    netlist = Netlist(Design.PA_PUF, 16)
    with pytest.raises(ValueError, match="got 7"):
        sweep_response_size(netlist, sizes=(8, 7), **sweep)
    # points given as an iterator are checked and then swept, not used up by the check
    assert [row.label for row in sweep_response_size(netlist, sizes=iter([8, 16]), **sweep)] == ["8", "16"]
    rows = sweep_feed_forward(netlist, iter([0, 1]), response_size=8, **sweep)
    assert [row.label for row in rows] == ["0", "1"]


# ---------------------------------------------------------------------------
# stability partition at full sampling depth


def test_robustness_band_at_million_read_depth(pa64):
    # With a million reads per challenge, the unstable fraction of a
    # calibrated 128-bit device settles near half of all cells (48.7 +/- 5,
    # the level hardware reports at this depth).  At small repetition
    # counts the same device looks far more stable, which is why the
    # shallow-depth robustness numbers are not comparable.
    dev = pa64.with_params(pa64.params.with_noise(1.953125))
    seeds = random_seed_challenges(64, 4, derive_seed("rob", "chal"))
    cells = expand_many(seeds, 128).reshape(-1, 64)
    total = 1_000_000
    never = np.ones(cells.shape[0], dtype=bool)
    always = np.ones(cells.shape[0], dtype=bool)
    done = 0
    part = 0
    while done < total:
        n = min(125_000, total - done)
        reads = repeated_reads(dev, cells, n, derive_seed("rob", "deep", part))
        counts = reads.sum(axis=0, dtype=np.int64)
        never &= counts == 0
        always &= counts == n
        done += n
        part += 1
    unstable = 100.0 - float(never.mean() * 100) - float(always.mean() * 100)
    assert unstable == pytest.approx(48.67, abs=5.0)
