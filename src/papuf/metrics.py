"""Statistical evaluation of CRP datasets.

All percentages use fractional Hamming distances scaled by 100.  The
intra-chip statistic averages HD(R_i, R_{i+1})/n over consecutive responses
to challenges that differ in one bit; the inter-chip statistic averages
HD(R_i, R_j)/n over all device pairs for a shared challenge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import as_bits
from .circuit import _noise_words, _threshold_reads, clean_gaps, repeated_reads
from .device import DelayParams, DeviceInstance, synthesize_population
from .netlist import Design, Netlist, default_ff_taps
from .response import CrpSet, check_response_size, collect_crps, expand_many, random_seed_challenges
from .seeds import derive_seed


@dataclass
class MetricsReport:
    """All headline statistics of one CRP dataset, percentages in [0, 100]."""

    uniformity_min: float
    uniformity_max: float
    uniformity_avg: float
    bit_aliasing_min: float
    bit_aliasing_max: float
    bit_aliasing_avg: float
    uniqueness: float
    reliability: float
    stable0: float
    stable1: float
    unstable: float
    intra_hd_histogram: np.ndarray
    inter_hd_histogram: np.ndarray
    challenge_mode: str = "random"

    def fields(self) -> dict[str, str]:
        """The ``metrics.kv`` fields in key order, percentages to four decimals."""
        pairs = {
            "bit_aliasing_avg": self.bit_aliasing_avg,
            "bit_aliasing_max": self.bit_aliasing_max,
            "bit_aliasing_min": self.bit_aliasing_min,
            "challenge_mode": self.challenge_mode,
            "reliability": self.reliability,
            "robustness_stable0": self.stable0,
            "robustness_stable1": self.stable1,
            "robustness_unstable": self.unstable,
            "uniformity_avg": self.uniformity_avg,
            "uniformity_max": self.uniformity_max,
            "uniformity_min": self.uniformity_min,
            "uniqueness": self.uniqueness,
        }
        return {key: value if isinstance(value, str) else f"{value:.4f}" for key, value in pairs.items()}


def _as_response_matrix(responses) -> np.ndarray:
    mat = as_bits(responses, "responses")
    if mat.ndim != 2:
        raise ValueError("expected a 2-D array of equal-length responses")
    return mat


def _hd_histogram(bits: np.ndarray, all_pairs: bool = False) -> np.ndarray:
    """Counts of each Hamming distance 0..n between the rows of a (K, ..., n)
    bit array: row i against row i + 1, or with ``all_pairs`` against every
    row j > i.  Distances are popcounts of XORed ``np.packbits`` bytes, read
    as the widest unsigned words that divide their count (uint64 for 128
    bits); the pairs of one row i are compared at once."""
    n = bits.shape[-1]
    packed = np.packbits(bits, axis=-1)
    word = next(size for size in (8, 4, 2, 1) if packed.shape[-1] % size == 0)
    packed = packed.view(f"u{word}")
    histogram = np.zeros(n + 1, dtype=np.int64)
    if all_pairs:
        pairs = ((packed[i], packed[i + 1 :]) for i in range(packed.shape[0] - 1))
    else:
        pairs = [(packed[:-1], packed[1:])]
    for first, second in pairs:
        diff = first ^ second
        dists = np.bitwise_count(diff, out=diff).sum(axis=-1, dtype=np.intp)
        histogram += np.bincount(dists.ravel(), minlength=n + 1)
    return histogram


def _mean_percent(histogram: np.ndarray) -> float:
    """Mean of the distances binned in ``histogram``, as a percent of n."""
    n = histogram.size - 1
    return float((np.arange(n + 1) @ histogram) / histogram.sum() / n * 100.0)


def intra_hd(responses) -> tuple[float, np.ndarray]:
    """Mean percent HD over consecutive response pairs, plus the histogram.

    The input must be ordered so that consecutive entries answer challenges
    differing in a single bit.  The histogram counts raw HD values, one
    entry per compared pair.
    """
    mat = _as_response_matrix(responses)
    if mat.shape[0] < 2:
        raise ValueError("need at least two responses for the intra-chip HD")
    histogram = _hd_histogram(mat)
    return _mean_percent(histogram), histogram


def inter_hd(responses) -> tuple[float, np.ndarray]:
    """Mean percent HD over all device pairs for one shared challenge."""
    mat = _as_response_matrix(responses)
    if mat.shape[0] < 2:
        raise ValueError("need at least two devices for the inter-chip HD")
    histogram = _hd_histogram(mat, all_pairs=True)
    return _mean_percent(histogram), histogram


def uniformity(crps: CrpSet) -> tuple[float, float, float]:
    """Per-response percentage of 1 bits; (min, max, avg) over all records."""
    fractions = crps.responses.mean(axis=3) * 100.0
    return float(fractions.min()), float(fractions.max()), float(fractions.mean())


def bit_aliasing(crps: CrpSet) -> tuple[float, float, float]:
    """Per bit position, percentage of (device, challenge) records reading 1.

    (min, max, avg) over bit positions, computed on the first repetition.
    """
    if crps.n_devices < 2:
        raise ValueError("bit aliasing needs at least two devices")
    per_position = crps.responses[:, :, 0, :].mean(axis=(0, 1)) * 100.0
    return float(per_position.min()), float(per_position.max()), float(per_position.mean())


def robustness(crps: CrpSet) -> tuple[float, float, float]:
    """(stable0, stable1, unstable) percentages over (device, challenge, bit)
    cells; a cell is stable only if every repetition agrees."""
    if crps.repetitions < 2:
        raise ValueError("robustness needs at least two repetitions")
    ones = crps.responses.sum(axis=2)
    total = ones.size
    n_stable0 = int((ones == 0).sum())
    n_stable1 = int((ones == crps.repetitions).sum())
    n_unstable = total - n_stable0 - n_stable1
    return (
        n_stable0 / total * 100.0,
        n_stable1 / total * 100.0,
        n_unstable / total * 100.0,
    )


def _self_agreement(reads: np.ndarray, axis: int) -> float:
    """Percent of the bits of ``reads`` equal to their enrollment response.

    ``axis`` holds R repeated reads; the enrollment response is the bitwise
    majority of the first min(11, R) of them, one fewer if that is even.
    """
    reads = np.moveaxis(reads, axis, 0)
    votes = min(11, reads.shape[0])
    votes -= 1 - votes % 2
    golden = (reads[:votes].sum(axis=0) * 2 > votes).astype(np.uint8)
    return float(100.0 - (reads != golden).mean() * 100.0)


def reliability(crps: CrpSet) -> float:
    """100 minus the mean percent HD between each repeated read and its
    (device, challenge) enrollment response (``_self_agreement``)."""
    if crps.repetitions < 2:
        raise ValueError("reliability needs at least two repetitions")
    return _self_agreement(crps.responses, axis=2)


def uniqueness(crps: CrpSet) -> float:
    """Inter-chip HD averaged over every shared challenge, in percent."""
    d = crps.n_devices
    if d < 2:
        raise ValueError("uniqueness needs at least two devices")
    first_reads = crps.responses[:, :, 0, :]
    ones = first_reads.sum(axis=0)  # (C, n) count of devices reading 1
    diff_pairs = (ones * (d - ones)).sum()
    total_pairs = d * (d - 1) / 2 * first_reads.shape[1] * first_reads.shape[2]
    return float(diff_pairs / total_pairs * 100.0)


def compute_report(crps: CrpSet) -> MetricsReport:
    """Evaluate every statistic the dataset supports; single-repetition sets
    report NaN for reliability and robustness."""
    uni = uniformity(crps)
    alias = bit_aliasing(crps) if crps.n_devices >= 2 else (float("nan"),) * 3
    uniq = uniqueness(crps) if crps.n_devices >= 2 else float("nan")
    if crps.repetitions >= 2:
        rel = reliability(crps)
        rob = robustness(crps)
    else:
        rel = float("nan")
        rob = (float("nan"),) * 3
    first_reads = crps.responses[:, :, 0, :]
    return MetricsReport(
        uniformity_min=uni[0],
        uniformity_max=uni[1],
        uniformity_avg=uni[2],
        bit_aliasing_min=alias[0],
        bit_aliasing_max=alias[1],
        bit_aliasing_avg=alias[2],
        uniqueness=uniq,
        reliability=rel,
        stable0=rob[0],
        stable1=rob[1],
        unstable=rob[2],
        intra_hd_histogram=_hd_histogram(first_reads.swapaxes(0, 1)),
        inter_hd_histogram=_hd_histogram(first_reads, all_pairs=True),
        challenge_mode=crps.challenge_mode,
    )


# ---------------------------------------------------------------------------
# noise calibration


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CalibrationResult:
    sigma_noise: float
    achieved_reliability: float
    target: float
    iterations: int


# Monte-Carlo size of one reliability measurement: seed challenges, response
# bits per challenge and reads per bit.
RELIABILITY_CHALLENGES = 48
RELIABILITY_RESPONSE_SIZE = 128
RELIABILITY_REPETITIONS = 13
# Calibration bisects sigma_noise over this range until the measured
# reliability is within CALIBRATION_TOLERANCE percentage points of the target.
SIGMA_SEARCH_BOUNDS = (0.0, 50.0)
CALIBRATION_TOLERANCE = 0.25
CALIBRATION_MAX_ITERATIONS = 60


def _reliability_probe(device: DeviceInstance, eval_seed: int):
    """``probe(sigma)``: the reliability of ``device`` at sigma_noise sigma,
    the ``_self_agreement`` of RELIABILITY_REPETITIONS reads of the
    expanded challenges of ``eval_seed``: the statistic of ``reliability``.

    What does not depend on sigma is computed once: the challenges and, for
    a tapless device, their clean gaps and the noise words of its reads,
    which a probe compares with its read probabilities
    (``circuit._threshold_reads``).  A feed-forward probe is
    ``repeated_reads`` at sigma.  Every probe reads the same words, or the
    same jitter draws scaled by sigma: common random numbers.
    """
    stages, reps = device.netlist.stages, RELIABILITY_REPETITIONS
    seeds = random_seed_challenges(stages, RELIABILITY_CHALLENGES, derive_seed(eval_seed, "rel-chal"))
    challenges = expand_many(seeds, RELIABILITY_RESPONSE_SIZE).reshape(-1, stages)
    read_seed = derive_seed(eval_seed, "rel-reads")
    if device.netlist.ff_taps:
        def reads(sigma: float) -> np.ndarray:
            return repeated_reads(device.with_params(device.params.with_noise(sigma)), challenges, reps, read_seed)
    else:
        clean = clean_gaps(device, challenges)
        blocks = list(_noise_words(read_seed, reps, clean.shape[0]))

        def reads(sigma: float) -> np.ndarray:
            return _threshold_reads(clean, device.params.with_noise(sigma), blocks, reps)

    def probe(sigma: float) -> float:
        return _self_agreement(reads(sigma), axis=0)

    return probe


def measure_reliability(device: DeviceInstance, eval_seed: int = 0) -> float:
    """Monte-Carlo reliability of one device: percent agreement of repeated
    reads of the expanded challenges of ``eval_seed`` with their
    majority-vote enrollment response (``_reliability_probe`` at the
    device's own sigma_noise)."""
    return _reliability_probe(device, eval_seed)(device.params.sigma_noise)


def calibrate_noise(target_reliability: float, device: DeviceInstance, eval_seed: int = 0) -> CalibrationResult:
    """Bisect sigma_noise until the device's simulated reliability is within
    ``CALIBRATION_TOLERANCE`` of the target.

    Every probe is one call of the same ``_reliability_probe`` that
    ``measure_reliability`` makes, so it gives what ``measure_reliability``
    gives at the probed sigma, and what does not depend on sigma is
    computed once for the whole bisection.  The probe function is monotone
    in practice.  A target of 100 is satisfied exactly by sigma_noise = 0.
    """
    if not 50.0 < target_reliability <= 100.0:
        raise CalibrationError(f"target reliability must be in (50, 100], got {target_reliability}")
    if target_reliability == 100.0:
        return CalibrationResult(0.0, 100.0, 100.0, 0)
    probe = _reliability_probe(device, eval_seed)
    lo, hi = SIGMA_SEARCH_BOUNDS
    rel_lo = probe(lo)
    if rel_lo + CALIBRATION_TOLERANCE < target_reliability:
        raise CalibrationError(
            f"target {target_reliability}% unreachable: reliability at sigma={lo} is {rel_lo:.2f}%"
        )
    rel_hi = probe(hi)
    if rel_hi - CALIBRATION_TOLERANCE > target_reliability:
        raise CalibrationError(
            f"target {target_reliability}% unreachable: reliability at sigma={hi} is still {rel_hi:.2f}%"
        )
    for iteration in range(1, CALIBRATION_MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        rel_mid = probe(mid)
        if abs(rel_mid - target_reliability) <= CALIBRATION_TOLERANCE:
            return CalibrationResult(mid, rel_mid, target_reliability, iteration)
        if rel_mid > target_reliability:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach {target_reliability}% within {CALIBRATION_MAX_ITERATIONS} iterations"
    )


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass
class SweepRow:
    label: str
    uniqueness: float
    reliability: float
    uniqueness_by_seed: tuple[float, ...]
    reliability_by_seed: tuple[float, ...]


def _population_metrics(params, netlist, population_size, num_challenges, repetitions, response_size, seed):
    population = synthesize_population(params, netlist, population_size, derive_seed(seed, "pop"))
    crps = collect_crps(
        population,
        num_challenges,
        repetitions,
        response_size,
        derive_seed(seed, "crps"),
    )
    return uniqueness(crps), reliability(crps)


def _sweep(tag, points, configure, seeds, params, population_size, num_challenges, repetitions) -> list[SweepRow]:
    """One row per point: uniqueness and reliability over fresh populations,
    one per seed, seeded ``derive_seed(tag, point, seed)``.  ``configure(point)``
    gives the point's (netlist, response size)."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a sweep needs at least one seed")
    rows = []
    for point in points:
        netlist, response_size = configure(point)
        per_seed = [
            _population_metrics(
                params, netlist, population_size, num_challenges, repetitions, response_size,
                derive_seed(tag, point, seed),
            )
            for seed in seeds
        ]
        uniq, rel = (tuple(values) for values in zip(*per_seed))
        rows.append(SweepRow(str(int(point)), float(np.mean(uniq)), float(np.mean(rel)), uniq, rel))
    return rows


def sweep_feed_forward(
    base_netlist: Netlist,
    tap_counts,
    population_size: int = 6,
    *,
    params: DelayParams,
    num_challenges: int = 16,
    repetitions: int = 5,
    response_size: int = 128,
    seeds=(0, 1, 2, 3, 4),
) -> list[SweepRow]:
    """Uniqueness and reliability as a function of the feed-forward tap count.

    Each tap count is measured on fresh populations for every seed; taps are
    spread evenly over the chain via ``default_ff_taps``.  Before any work,
    a base design without 3 lines, a response size outside RESPONSE_SIZES
    or a tap count that does not fit the chain is a ``ValueError``.
    """
    if base_netlist.design is Design.APUF:
        raise ValueError("the feed-forward sweep applies to the 3-line designs")
    check_response_size(response_size)
    stages, tap_counts = base_netlist.stages, tuple(tap_counts)
    for count in tap_counts:
        default_ff_taps(stages, int(count))

    def configure(count):
        return Netlist(Design.FF_PA_PUF, stages, default_ff_taps(stages, int(count))), response_size

    return _sweep("ff-sweep", tap_counts, configure, seeds, params, population_size, num_challenges, repetitions)


def sweep_response_size(
    netlist: Netlist,
    sizes=(8, 16, 32, 64, 128),
    population_size: int = 4,
    *,
    params: DelayParams,
    num_challenges: int = 32,
    repetitions: int = 5,
    seeds=(0, 1, 2),
) -> list[SweepRow]:
    """Uniqueness and reliability per response size (one row per size).

    A size outside RESPONSE_SIZES is a ``ValueError`` before any work.
    """
    sizes = tuple(sizes)
    for size in sizes:
        check_response_size(int(size))
    return _sweep(
        "size-sweep", sizes, lambda size: (netlist, int(size)),
        seeds, params, population_size, num_challenges, repetitions,
    )
