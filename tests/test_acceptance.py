"""Acceptance suite: one test per release criterion.

Each test prints a single pass line with the measured values; the collected
lines are echoed (and written to acceptance_report.txt) at session end so a
plain ``pytest -v`` run leaves a readable record.
"""

import sys
import time
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.stats import spearmanr

from papuf import (
    CrpSet,
    DelayParams,
    Design,
    Netlist,
    calibrate_noise,
    collect_crps,
    compute_report,
    default_ff_taps,
    enroll,
    measure_reliability,
    propagate_many,
    reproduce,
    synthesize_device,
    synthesize_population,
    uniformity,
    uniqueness,
)
from papuf.attack import FeatureMap, evaluate_attack, fit_logistic, train
from papuf.bch import BchCode, bch_decode, bch_encode, default_code
from papuf.circuit import repeated_reads
from papuf.oracle import _oracle_systematic_codewords, _reference_flip_flops, exhaustive_propagate
from papuf.response import expand_many, majority_vote, neighbor_seed_challenges, random_seed_challenges
from papuf.seeds import derive_seed

BASE_PARAMS = DelayParams()
PA64 = Netlist(Design.PA_PUF, 64)
FF64 = Netlist(Design.FF_PA_PUF, 64, default_ff_taps(64, 2))


@pytest.fixture(scope="module")
def reporter():
    lines = []
    yield lines
    text = "\n".join(lines)
    sys.__stdout__.write("\n==== acceptance criteria ====\n" + text + "\n")
    with open("acceptance_report.txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="module")
def calibration():
    device = synthesize_device(BASE_PARAMS, PA64, 42)
    return device, calibrate_noise(95.37, device)


@pytest.fixture(scope="module")
def population_crps(calibration):
    _, result = calibration
    params = BASE_PARAMS.with_noise(result.sigma_noise)
    population = synthesize_population(params, PA64, 50, derive_seed("c34", "pop"))
    return collect_crps(population, 500, 1, 128, derive_seed("c34", "crps"))


def test_c01_priority_arbiter_balance(reporter):
    start = time.perf_counter()
    outputs = {}
    for order in permutations("TCB"):
        rank = {name: pos for pos, name in enumerate(order)}
        # gaps T - C, C - B and B - T; each flip-flop latches gap < 0
        gaps = np.array([[rank["T"] - rank["C"], rank["C"] - rank["B"], rank["B"] - rank["T"]]], dtype=np.float64)
        q = _reference_flip_flops(gaps, 0.0, np.zeros((1, 3), dtype=np.uint8))[0]
        outputs[order] = int(1 ^ q[0] ^ q[1] ^ q[2])
    elapsed = time.perf_counter() - start
    assert sum(outputs.values()) == 3
    assert outputs[("T", "C", "B")] == 1
    assert elapsed < 1.0
    reporter.append(
        f"C01 priority-arbiter-balance: PASS (three 1s over six strict orderings,"
        f" TCB->1, {elapsed * 1000:.1f} ms)"
    )


def _one_read_set(responses, challenges, netlist, params=BASE_PARAMS):
    """A CrpSet of one read per (device, challenge): ``responses`` is (D, C, n)."""
    ids = [f"dev-{d}" for d in range(responses.shape[0])]
    return CrpSet(ids, challenges, responses[:, :, None, :], netlist, params, 0)


def test_c02_hd_formulas_match_naive_oracles(reporter):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    netlist = Netlist(Design.PA_PUF, 16)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        k = int(rng.integers(2, 7))
        rows = rng.integers(0, 2, size=(k, n), dtype=np.uint8)

        # one device answering k challenges: the intra-chip histogram
        intra = compute_report(_one_read_set(rows[None], np.zeros((k, 16), np.uint8), netlist))
        naive_dists = [sum(int(a != b) for a, b in zip(rows[i], rows[i + 1])) for i in range(k - 1)]
        assert np.array_equal(intra.intra_hd_histogram, np.bincount(naive_dists, minlength=n + 1))

        # k devices answering one challenge: the inter-chip histogram and uniqueness
        inter = compute_report(_one_read_set(rows[:, None], np.zeros((1, 16), np.uint8), netlist))
        pair_dists = [
            sum(int(a != b) for a, b in zip(rows[i], rows[j])) for i, j in combinations(range(k), 2)
        ]
        assert np.array_equal(inter.inter_hd_histogram, np.bincount(pair_dists, minlength=n + 1))
        naive_pct = 2.0 / (k * (k - 1)) * sum(d / n for d in pair_dists) * 100.0
        assert abs(inter.uniqueness - naive_pct) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    reporter.append(
        f"C02 hd-formula-oracle-equivalence: PASS (1000 random instances through compute_report, n<=16, k<=6,"
        f" {elapsed:.2f} s)"
    )


def test_c03_uniformity_band(reporter, population_crps):
    lo, hi, avg = uniformity(population_crps)
    assert 47.5 <= avg <= 52.5
    reporter.append(
        f"C03 uniformity-band: PASS (avg={avg:.3f}% in 50+-2.5, min={lo:.1f}, max={hi:.1f},"
        f" 50 devices x 500 challenges x 128 bits)"
    )


def test_c04_uniqueness_band(reporter, population_crps):
    value = uniqueness(population_crps)
    assert 47.5 <= value <= 52.5
    reporter.append(f"C04 uniqueness-band: PASS (uniqueness={value:.3f}% in 50+-2.5)")


def test_c05_reliability_calibration(reporter, calibration):
    device, result = calibration
    assert abs(result.achieved_reliability - 95.37) <= 0.25
    noiseless = measure_reliability(device, eval_seed=3)
    assert noiseless == 100.0
    reporter.append(
        f"C05 reliability-calibration: PASS (sigma_noise={result.sigma_noise:.4f} ->"
        f" {result.achieved_reliability:.3f}% vs target 95.37+-0.25; sigma=0 -> exactly 100%)"
    )


def test_c06_bch_reliability_lift(reporter, calibration):
    device, result = calibration
    device = device.with_params(BASE_PARAMS.with_noise(result.sigma_noise))
    code = default_code()
    seed_challenge = random_seed_challenges(64, 1, derive_seed("c6", "chal"))[0]
    expanded = expand_many(seed_challenge[None, :], 128).reshape(-1, 64)

    enroll_reads = repeated_reads(device, expanded, 11, derive_seed("c6", "enroll"))
    enrolled = majority_vote(enroll_reads)
    helper, key = enroll(enrolled, code, key_seed=derive_seed("c6", "key"))

    trials = 10_000
    reads = repeated_reads(device, expanded, 11 * trials, derive_seed("c6", "reads"))
    raw_reliability = 100.0 - float((reads[:, :127] != enrolled[None, :127]).mean() * 100.0)
    voted = (reads.reshape(trials, 11, 128).sum(axis=1) * 2 > 11).astype(np.uint8)
    outcomes = {"ok": 0, "fail": 0, "wrong": 0}
    for t in range(trials):
        out = reproduce(voted[t], helper)
        if out is None:
            outcomes["fail"] += 1
        elif out == key:
            outcomes["ok"] += 1
        else:
            outcomes["wrong"] += 1
    success = outcomes["ok"] / trials * 100.0
    assert success >= 99.9
    assert outcomes["wrong"] == 0

    # adversarial reads: weight t+5 errors must fail explicitly, never
    # decode to some other key
    rng = np.random.default_rng(derive_seed("c6", "adversarial"))
    codeword = helper.offset ^ enrolled[:127]
    explicit = 0
    for _ in range(1000):
        received = codeword.copy()
        received[rng.choice(code.n, code.t + 5, replace=False)] ^= 1
        if bch_decode(received, code) is None:
            explicit += 1
    assert explicit == 1000
    reporter.append(
        f"C06 bch-reliability-lift: PASS (raw={raw_reliability:.2f}% -> post-ECC"
        f" {success:.2f}% over 10^4 voted reads; 1000/1000 weight-15 decodes failed explicitly)"
    )


def test_c07_feed_forward_trends(reporter):
    from papuf.metrics import sweep_feed_forward

    rows = sweep_feed_forward(
        Netlist(Design.PA_PUF, 16),
        tap_counts=range(7),
        population_size=6,
        params=DelayParams(sigma_noise=2.0),
        num_challenges=16,
        repetitions=5,
        seeds=(0, 1, 2, 3, 4),
    )
    taps = [int(r.label) for r in rows]
    rel = [r.reliability for r in rows]
    uniq = [r.uniqueness for r in rows]
    rel_rho = spearmanr(taps, rel).statistic
    uniq_rho = spearmanr(taps, uniq).statistic
    assert rel_rho < 0, f"reliability trend not decreasing: {rel}"
    assert uniq_rho > 0, f"uniqueness trend not increasing: {uniq}"
    reporter.append(
        f"C07 feed-forward-trends: PASS (spearman reliability={rel_rho:+.3f},"
        f" uniqueness={uniq_rho:+.3f}; rel {rel[0]:.1f}->{rel[-1]:.1f}%,"
        f" uniq {uniq[0]:.2f}->{uniq[-1]:.2f}% over 0..6 taps x 5 seeds)"
    )


def test_c08_ff_without_taps_is_bit_identical(reporter):
    params = DelayParams(sigma_noise=1.9)
    rng = np.random.default_rng(8)
    pairs = 0
    for seed in range(20):
        pa = synthesize_device(params, PA64, seed)
        ff = synthesize_device(params, Netlist(Design.FF_PA_PUF, 64, ()), seed)
        challenges = rng.integers(0, 2, size=(500, 64), dtype=np.uint8)
        eval_seed = derive_seed("c8", seed)
        assert np.array_equal(
            propagate_many(pa, challenges, eval_seed), propagate_many(ff, challenges, eval_seed)
        )
        pairs += 500
    assert pairs == 10_000
    reporter.append(f"C08 ff-no-taps-equivalence: PASS ({pairs} (device, challenge) pairs bit-identical)")


def test_c09_intra_hd_histogram_mode(reporter):
    device = synthesize_device(BASE_PARAMS, FF64, 7)
    result = calibrate_noise(95.37, device)
    device = device.with_params(BASE_PARAMS.with_noise(result.sigma_noise))
    seeds = neighbor_seed_challenges(64, 401, 99)
    expanded = expand_many(seeds, 128).reshape(-1, 64)
    bits = propagate_many(device, expanded, derive_seed(7, "c9")).reshape(1, 401, 128)
    hist = compute_report(_one_read_set(bits, seeds, FF64, device.params)).intra_hd_histogram
    pct = (np.arange(129) @ hist) / hist.sum() / 128 * 100.0
    mode = int(np.argmax(hist))
    assert 57 <= mode <= 71
    reporter.append(
        f"C09 intra-hd-histogram-mode: PASS (mode={mode} in 64+-7, mean={pct:.2f}%,"
        f" 400 one-bit-neighbor pairs on the calibrated feed-forward design)"
    )


def test_c10_attack_sanity(reporter):
    apuf = synthesize_device(BASE_PARAMS, Netlist(Design.APUF, 64), 11)
    train_set = collect_crps([apuf], 80, 1, 128, derive_seed("atk", "train"))
    holdout = collect_crps([apuf], 20, 1, 128, derive_seed("atk", "holdout"))
    model = train(train_set, FeatureMap("parity", 64), seed=0)
    accuracy = evaluate_attack(model, holdout)
    assert accuracy >= 95.0

    x, y = train_set.flat_crps()
    shuffled = np.random.default_rng(3).permutation(y)
    control = fit_logistic(x, shuffled, FeatureMap("parity", 64), seed=0)
    control_accuracy = control.metadata["validation_accuracy"]
    assert 47.0 <= control_accuracy <= 53.0

    # the 3-line design is reported with a confidence interval, no threshold
    pa_accs = []
    for seed in range(5):
        pa = synthesize_device(BASE_PARAMS, PA64, 100 + seed)
        pa_train = collect_crps([pa], 80, 1, 128, derive_seed("atk-pa", seed, "t"))
        pa_hold = collect_crps([pa], 20, 1, 128, derive_seed("atk-pa", seed, "h"))
        pa_accs.append(evaluate_attack(train(pa_train, seed=seed), pa_hold))
    mean = float(np.mean(pa_accs))
    half_width = 1.96 * float(np.std(pa_accs, ddof=1)) / np.sqrt(len(pa_accs))
    reporter.append(
        f"C10 attack-sanity: PASS (apuf={accuracy:.2f}% >= 95, shuffled control"
        f" {control_accuracy:.2f}% in 50+-3; pa-puf reported {mean:.2f}+-{half_width:.2f}%"
        f" over 5 seeds, no threshold)"
    )


def test_c11_oracle_equivalence(reporter):
    # circuit vs exhaustive path enumeration on every challenge of small netlists
    params = DelayParams(sigma_noise=0.7)
    checked = 0
    for design, stages, taps in [
        (Design.APUF, 2, ()),
        (Design.APUF, 4, ()),
        (Design.PA_PUF, 3, ()),
        (Design.PA_PUF, 4, ()),
        (Design.FF_PA_PUF, 4, ((1, 3),)),
    ]:
        netlist = Netlist(design, stages, taps)
        for seed in range(20):
            device = synthesize_device(params, netlist, seed)
            for value in range(2 ** stages):
                challenge = [(value >> i) & 1 for i in range(stages)]
                eval_seed = derive_seed("c11", design.value, seed, value)
                assert propagate_many(device, np.array([challenge]), eval_seed)[0] == exhaustive_propagate(
                    device, challenge, eval_seed
                )
                checked += 1

    # bch_decode vs minimum-distance search over the full (15, 7, 2) space
    code = BchCode.construct(4, 2)
    table = _oracle_systematic_codewords(code)
    codewords = np.array([cw for _, cw in table], dtype=np.uint8)
    messages = np.array([msg for msg, _ in table], dtype=np.uint8)
    for msg, cw in table[:16]:
        assert np.array_equal(bch_encode(np.array(msg, dtype=np.uint8), code), np.array(cw))
    for word in range(2 ** 15):
        received = np.array([(word >> (14 - i)) & 1 for i in range(15)], dtype=np.uint8)
        dists = (codewords != received[None, :]).sum(axis=1)
        nearest = int(dists.min())
        out = bch_decode(received, code)
        if nearest <= code.t:
            assert out is not None
            decoded, corrected = out
            assert np.array_equal(decoded, messages[int(dists.argmin())])
            assert corrected == nearest
        else:
            assert out is None
    reporter.append(
        f"C11 oracle-equivalence: PASS ({checked} propagate cases exact;"
        f" all 32768 words of bch(15,7,2) agree with nearest-codeword search)"
    )
