"""Arrival-time propagation and arbiter decisions for all three designs.

Line order is (T, C, B) for the 3-line designs and (top, bottom) for the
classical 2-line arbiter PUF.  A mux select of 0 keeps each line on itself;
a select of 1 applies the cyclic rotation T->C->B->T (a plain swap for the
2-line chain), i.e. with select 1 output T reads line B, C reads T and B
reads C.

Every arbiter decision goes through ``_latch``.  Three flip-flops race the
pairs (T, C), (C, B) and (B, T) and latch (qT, qC, qB) = (T<C, C<B, B<T);
a gap within the metastability window (including an exact tie at window 0)
latches a fair tie bit instead.  ``_latch`` takes the race and the window
test from one gap per pair: the free gaps T - C and C - B, and the closing
gap B - T = -(g_TC + g_CB), so only tie bits can make the three flip-flops
contradict each other.  ``_response`` turns the bits
into the arbiter output: the priority arbiter of the 3-line designs outputs
NOT(qT ^ qC ^ qB), 1 exactly on the cyclic rotations of (T, C, B), so 3 of
the 6 strict orderings, and the 2-line arbiter outputs top<bottom.  A
feed-forward tap arbiter passes (qT, qC, qB) on as the per-line mux selects
of its target stage.  ``_flip_flops`` and ``_arbitrate`` apply the rule to
given tie bits.  The gate-level reference is ``oracle.gate_level_priority``.

Without feed-forward taps the chain has a closed form.  A delay added on
line m at stage i moves one line on at every later select-1 stage, so with
L lines and S_{i+1} the number of 1 bits after stage i,

    times[l] = sum_i delay[i, c_i, (l - S_{i+1}) mod L].

The sum is exact.  Every finite double is an integer times a power of two,
so a device's table is scaled by its own unit 2^e into int64, which no
other device of its population changes: e is the last bit of its smallest
delay, raised where needed so that every clean time stays below 2^62 units.
A table that spans a few binades, such as every table at the CLI defaults,
is then exact.  A wider one (mean_delay 1, sigma_process 1) has its delays
rounded to the unit, which moves a clean time by at most stages/2 units
before its final rounding: within one ulp of the exact sum on a 64-stage
chain.  Integer sums do not depend on order or grouping, and one int64 ->
float64 cast and an exact multiplication by 2^e give the correctly rounded
sum.  So lines whose sums are equal tie exactly, whatever the stage order.

The kernel adds GROUP_STAGES stages per gather.  Stage group g with bits b
(stage g*G + j is bit j) and r ones after the group has the code
g*2^G*L + b*L + (r mod L), which depends only on the challenge; a device
enters only through its group table, whose row holds the group's summed
delays per line.  The tables of several devices sit side by side as
columns, so one set of codes serves a whole population.

``arrival_time_blocks`` is that kernel.  It works through row blocks of
about BLOCK_VALUES values, so nothing of size devices x rows x lines, and
no one-hot encoding of the codes, is ever allocated.
``clean_arrival_times`` and tapless ``repeated_reads`` go through it.

``_sample`` draws every jitter value and tie bit: those of one
observation point over a row block.  An arbiter reads only gaps, so the
jitter is drawn in gap space, lines - 1 standard normals per evaluation
(u, v for three lines) whose law equals that of the differences of
independent per-line Normal(0, sigma_noise) jitters.  They come from an
ordered list of SFC64 noise streams consumed row by row, so block
boundaries never change a bit.  ``read_probabilities`` gives the
analytic P(bit = 1) of a tapless chain under the same law at window 0.
A tie bit is a pure function of its position: ``_tie_bits`` mixes a key,
derived once per (eval_seed, point), with the counter of its evaluation
and flip-flop, only when some gap of the block is within the window.
``propagate_blocks`` is the block reader for every netlist: a whole
population of (device, repetition) jobs, one row block at a time, one
noise stream and tie key per job and point.  Tapless blocks take their
clean times from the kernel; feed-forward blocks step the chain on three
per-line (devices, repetitions, rows) arrays, whose repetition axis stays
1 until the first target stage, so the repetitions of a device share the
clean prefix.  ``propagate_many`` is its one-job case.  Tapless
``repeated_reads`` caches the clean times and reads its repetition-major
rows from one noise stream and tie key, whole repetitions per block.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bch import as_bits
from .device import NOISE_TAG, TIE_TAG, DelayParams, DeviceInstance
from .netlist import Netlist
from .seeds import SEED_MASK, derive_seed

# Source line per output line under the select=1 permutation of the 3-line
# chain; only the feed-forward stage loop applies it explicitly.
ROT3 = (2, 0, 1)

# Target size of one row block, in float64 values (512 KiB): it bounds the
# stage codes, the arrival times and the jitter of one block alike.
BLOCK_VALUES = 1 << 16

# Consecutive stages summed by one gather of the closed-form kernel; each
# group's table has 2^GROUP_STAGES * lines rows per device column.
GROUP_STAGES = 4


def _noise_rng(eval_seed: int, point: int) -> np.random.Generator:
    seed = np.random.SeedSequence([eval_seed & SEED_MASK, NOISE_TAG, point])
    return np.random.Generator(np.random.SFC64(seed))


def _tie_key(eval_seed: int, point: int) -> int:
    return derive_seed(eval_seed & SEED_MASK, TIE_TAG, point)


def _tie_bits(key: int, start: int, n_eval: int, pairs: int) -> np.ndarray:
    """(n_eval, pairs) fair tie bits of evaluations start .. start+n_eval-1.

    The bit of flip-flop k at evaluation i is the top bit of SplitMix64
    (Steele et al., OOPSLA 2014) at counter i*pairs + k: its finaliser of
    key + counter*0x9E3779B97F4A7C15 in wrapping uint64 array arithmetic.
    A pure function of (key, i, k), so any split into calls gives the same bits.
    """
    z = np.arange(start * pairs, (start + n_eval) * pairs, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z += np.uint64(key)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= multiplier
    z ^= z >> 31
    return (z >> 63).astype(np.uint8).reshape(n_eval, pairs)


def _validate_challenges(netlist: Netlist, challenges: np.ndarray) -> np.ndarray:
    """A (N, stages) contiguous uint8 batch; a bit other than 0 or 1 is a ``ValueError``."""
    challenges = np.asarray(challenges)
    if challenges.ndim != 2 or challenges.shape[1] != netlist.stages:
        raise ValueError(
            f"challenge shape {challenges.shape} does not match {netlist.stages} stages"
        )
    return np.ascontiguousarray(as_bits(challenges, "challenge"))


def _pairs(lines: int) -> int:
    """Flip-flops of the terminal arbiter: one pair for 2 lines, three for 3."""
    return 1 if lines == 2 else 3


def _latch(free: list[np.ndarray], window: float, tie) -> list[np.ndarray]:
    """Flip-flop bits of the lines - 1 free gaps first - second, which it overwrites.

    2 lines: the one gap top - bottom.  3 lines: (T - C, C - B), and the
    closing gap B - T is -(g_TC + g_CB), so the three flip-flops can never
    all win or all lose a strict race.  A flip-flop latches its race,
    gap < 0, unless |gap| <= window, where it latches its tie bit from
    ``tie()``, a (..., pairs) array that is computed only when some gap is
    within the window.
    """
    wins = [gap < 0 for gap in free]
    if len(free) == 2:
        closing = free[0] + free[1]  # -g_BT, so B wins where it is positive
        wins.append(closing > 0)
        free = [*free, closing]
    for gap in free:
        np.abs(gap, out=gap)
    if all(gap.min(initial=np.inf) > window for gap in free):
        return [w.view(np.uint8) for w in wins]
    tie = tie()
    return [np.where(gap <= window, tie[..., k], w) for k, (gap, w) in enumerate(zip(free, wins))]


def _response(flops: list[np.ndarray]) -> np.ndarray:
    """Arbiter output of its flip-flop bits.

    2 lines: top<bottom.  3 lines: NOT(qT ^ qC ^ qB), the gate-level rule
    of ``oracle.gate_level_priority``.  The patterns 000 and 111 are cyclic
    contradictions that only tie bits can produce; they give 1, as the XOR
    gate does.
    """
    if len(flops) == 1:
        return flops[0]
    q0, q1, q2 = flops
    return 1 ^ q0 ^ q1 ^ q2


def _flip_flops(sampled: np.ndarray, window: float, tie: np.ndarray) -> list[np.ndarray]:
    """(qT, qC, qB) = (T<C, C<B, B<T) of (..., 3) sampled times, given (..., 3) tie bits."""
    free = [sampled[..., k] - sampled[..., k + 1] for k in range(sampled.shape[-1] - 1)]
    return _latch(free, window, lambda: tie)


def _arbitrate(final: np.ndarray, window: float, tie: np.ndarray) -> np.ndarray:
    """Response bits of (..., lines) sampled arrival times, given (..., pairs) tie bits."""
    return _response(_flip_flops(final, window, tie))


# ---------------------------------------------------------------------------
# the closed-form kernel for tapless netlists


def _scaled_table(delay_table: np.ndarray) -> tuple[np.ndarray, int]:
    """The delay table as int64 multiples of the unit 2^e, and e.

    e = max(exponent of the smallest delay - 53, exponent of the sum of the
    per-stage maxima - 62, -1022): the smallest delay's last bit, unless
    that would let a clean time reach 2^62 units or make the unit subnormal.
    A delay that is not a multiple of the unit is rounded to one.
    """
    _, e_min = np.frexp(delay_table.min())
    _, e_sum = np.frexp(delay_table.max(axis=(1, 2)).sum())
    e = max(int(e_min) - 53, int(e_sum) - 62, -1022)
    return np.rint(np.ldexp(delay_table, -e)).astype(np.int64), e


def _group_table(scaled: np.ndarray) -> np.ndarray:
    """(groups*2^G*L, L) int64 table of GROUP_STAGES-stage sums.

    Row g*2^G*L + b*L + r, for the bits b of the group's stages (stage
    g*G + j is bit j) and r ones after the group, holds per line the sum of
    the group's delays.  Stages past the chain's end add 0 with bit 0.
    """
    stages, _, lines = scaled.shape
    group = GROUP_STAGES
    n_groups = -(-stages // group)
    padded = np.zeros((n_groups * group, 2, lines), dtype=np.int64)
    padded[:stages] = scaled
    line = np.arange(lines)
    rolled = padded[:, :, (line[None, :] - line[:, None]) % lines]  # [i, c, r, l] = delay[i, c, l - r]
    bits = (np.arange(1 << group)[:, None] >> np.arange(group)) & 1  # (2^G, G)
    after = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits  # ones of the group after stage j
    stage = np.arange(n_groups)[:, None, None, None] * group + np.arange(group)[:, None]
    summed = rolled[stage, bits[:, :, None], (after[:, :, None] + line) % lines].sum(axis=2)
    return summed.reshape(-1, lines)


def _group_codes(challenges: np.ndarray, lines: int) -> np.ndarray:
    """(groups, N) ``_group_table`` row of every stage group of a (N, stages) batch."""
    group = GROUP_STAGES
    n_rows, stages = challenges.shape
    n_groups = -(-stages // group)
    bits = np.zeros((n_groups * group, n_rows), dtype=np.intp)
    bits[:stages] = challenges.T
    bits = bits.reshape(n_groups, group, n_rows)
    ones = bits.sum(axis=1)
    ones_after = np.cumsum(ones[::-1], axis=0)[::-1] - ones
    value = np.tensordot(1 << np.arange(group), bits, axes=(0, 1))
    base = np.arange(n_groups, dtype=np.intp)[:, None] * ((1 << group) * lines)
    return base + value * lines + ones_after % lines


def _block_rows(values_per_row: int, multiple: int = 1) -> int:
    """Rows per kernel block: about BLOCK_VALUES values, a multiple of ``multiple``."""
    return max(1, BLOCK_VALUES // (values_per_row * multiple)) * multiple


def _row_blocks(n_rows: int, block_rows: int):
    """Consecutive slices of ``block_rows`` rows covering ``n_rows``."""
    for start in range(0, n_rows, block_rows):
        yield slice(start, min(start + block_rows, n_rows))


def arrival_time_blocks(devices: Sequence[DeviceInstance], challenges: np.ndarray, block_rows: int):
    """Clean arrival times of tapless devices, one row block at a time.

    Each block gathers and adds one group-table row per stage group in
    int64, then casts and scales each device's columns by its unit once.
    ``challenges`` is a validated (N, stages) uint8 batch and the devices
    share its netlist.  Yields (rows, times) per block of ``block_rows``
    rows; times is (B, D*lines) with device d in columns d*lines to
    (d+1)*lines.
    """
    lines = devices[0].netlist.lines
    scaled = [_scaled_table(device.delay_table) for device in devices]
    tables = np.hstack([_group_table(table) for table, _ in scaled])
    units = np.repeat([np.ldexp(1.0, e) for _, e in scaled], lines)
    for rows in _row_blocks(challenges.shape[0], block_rows):
        codes = _group_codes(challenges[rows], lines)
        sums = np.take(tables, codes[0], axis=0)
        gathered = np.empty_like(sums)
        for code in codes[1:]:
            np.take(tables, code, axis=0, out=gathered, mode="clip")
            sums += gathered
        times = sums.astype(np.float64)
        times *= units
        yield rows, times


def _sample(
    streams: list, start: int, params: DelayParams, times: Sequence[np.ndarray], shape: tuple[int, ...]
) -> list[np.ndarray]:
    """Flip-flop bits of one observation point, one ``shape`` array per pair.

    ``times`` holds one clean-time array per line, broadcast to ``shape``.
    An arbiter reads only gaps, so each evaluation draws lines - 1 standard
    normals: u for 2 lines, (u, v) for 3.  With a = sigma*sqrt(2) and
    b = sigma*sqrt(1.5) the noisy gaps are

        g = (t_top - t_bot) + a*u                        (2 lines)
        g_TC = (t_T - t_C) + a*u
        g_CB = (t_C - t_B) + (b*v - (a/2)*u)             (3 lines)
        g_BT = -(g_TC + g_CB),

    which is the law of the differences of independent Normal(0, sigma)
    line jitters: variance 2 sigma^2 per gap, covariance -sigma^2 between
    g_TC and g_CB (Delvaux and Verbauwhede, HOST 2013).  The C-ordered
    positions of ``shape`` are split into equal runs, one per (noise
    stream, tie key) pair in order: the stream fills its run row by row,
    (u, v) per evaluation, and the run holds tie evaluations start,
    start+1, ... of the key.  Tie bits are computed only when some gap is
    within the metastability window, since no other decision reads them;
    being a pure function of their position, no window or block split
    moves them.  This is the one place where noise and tie bits are drawn.
    """
    free = len(times) - 1
    size = math.prod(shape) // len(streams)
    normals = np.empty((len(streams), size, free))
    for j, (noise_rng, _) in enumerate(streams):
        noise_rng.standard_normal(out=normals[j])
    normals = normals.reshape(*shape, free)
    u = normals[..., 0]
    a = params.sigma_noise * math.sqrt(2.0)
    gaps = [u * a]
    if free == 2:
        g_cb = normals[..., 1] * (params.sigma_noise * math.sqrt(1.5))
        g_cb -= u * (a / 2)
        gaps.append(g_cb)
    for k, gap in enumerate(gaps):
        gap += times[k] - times[k + 1]

    def tie() -> np.ndarray:
        return np.stack([_tie_bits(key, start, size, _pairs(free + 1)) for _, key in streams]).reshape(*shape, -1)

    return _latch(gaps, params.metastability_window, tie)


def _feed_forward_times(
    taps, delay: np.ndarray, challenges: np.ndarray, streams: list, start: int, params: DelayParams
):
    """Clean terminal times of one feed-forward row block, as three per-line arrays.

    ``delay`` stacks the devices' delay tables, (D, stages, 2, 3),
    ``streams[point]`` holds the (noise stream, tie key) pairs of every
    (device, repetition) job at an observation point, and the block's first
    row is evaluation ``start``.  The chain is stepped on three arrays, one
    per line (T, C, B), of shape (D, R, B); until the first target stage the
    repetition axis has length 1 and broadcasts, so every repetition of a
    device shares the clean prefix.  A tap arbiter samples its point and
    turns the flip-flop bits into the (D, R, B) per-line selects of its
    target stage.  Each line computes ``where(sel, rotated, times) +
    delay[i][sel]`` as one (N, 3) batch would.
    """
    n_dev = delay.shape[0]
    shape = (n_dev, len(streams[0]) // n_dev, challenges.shape[0])
    taps_at_stage: dict[int, list[tuple[int, int]]] = {}
    for point, (tap, target) in enumerate(taps, start=1):
        taps_at_stage.setdefault(tap, []).append((point, target))
    pending: dict[int, list[np.ndarray]] = {}
    times = [np.zeros((n_dev, 1, challenges.shape[0]))] * 3
    for i in range(delay.shape[1]):
        if i in pending:
            sel = pending.pop(i)  # per-line selects from a feed-forward arbiter
            low, high = delay[:, i, 0, :, None, None], delay[:, i, 1, :, None, None]
            times = [
                np.where(sel[l].astype(bool), times[ROT3[l]], times[l])
                + np.where(sel[l], high[:, l], low[:, l])
                for l in range(3)
            ]
        else:
            bits = challenges[:, i]
            flip = bits == 1
            added = delay[:, i][:, bits]  # (D, B, 3)
            times = [np.where(flip, times[ROT3[l]], times[l]) + added[:, None, :, l] for l in range(3)]
        for point, target in taps_at_stage.get(i, ()):
            pending[target] = _sample(streams[point], start, params, times, shape)
    return times


def propagate_blocks(
    devices: Sequence[DeviceInstance],
    challenges: np.ndarray,
    eval_seeds: Sequence[Sequence[int]],
    block_multiple: int = 1,
):
    """Noisy reads of a population, one row block at a time.

    ``eval_seeds[d][r]`` seeds repetition r of device d; every device gets
    the same number of repetitions R, and all share one netlist and
    parameter set.  Yields (rows, bits) with bits of shape (D, R, B); block
    starts are multiples of ``block_multiple``, and a block holds about
    BLOCK_VALUES values over jobs x rows x lines.  Tapless netlists take
    their clean times from the closed-form kernel; feed-forward netlists
    step the chain in ``_feed_forward_times``.  Each (device, repetition)
    keeps the noise stream of every observation point open across blocks,
    and row n is tie evaluation n, so the bits equal
    ``propagate_many(devices[d], challenges, eval_seeds[d][r])[rows]``.
    """
    netlist = devices[0].netlist
    challenges = _validate_challenges(netlist, challenges)
    lines, params = netlist.lines, devices[0].params
    n_dev, n_rep = len(devices), len(eval_seeds[0])
    streams = [
        [(_noise_rng(s, point), _tie_key(s, point)) for seeds in eval_seeds for s in seeds]
        for point in range(len(netlist.ff_taps) + 1)
    ]
    if netlist.ff_taps:
        # the stage loop holds a few (jobs, rows) arrays per line, never stage codes
        delay = np.stack([device.delay_table for device in devices])
        for rows in _row_blocks(challenges.shape[0], _block_rows(n_dev * n_rep * lines, block_multiple)):
            times = _feed_forward_times(netlist.ff_taps, delay, challenges[rows], streams, rows.start, params)
            flops = _sample(streams[0], rows.start, params, times, (n_dev, n_rep, rows.stop - rows.start))
            yield rows, _response(flops)
    else:
        block_rows = _block_rows(max(netlist.stages, n_dev * n_rep * lines), block_multiple)
        for rows, times in arrival_time_blocks(devices, challenges, block_rows):
            per_device = times.reshape(-1, n_dev, 1, lines).transpose(1, 2, 0, 3)
            per_line = [per_device[..., line] for line in range(lines)]
            flops = _sample(streams[0], rows.start, params, per_line, (n_dev, n_rep, times.shape[0]))
            yield rows, _response(flops)


def propagate_many(device: DeviceInstance, challenges: np.ndarray, eval_seed: int = 0) -> np.ndarray:
    """Evaluate a batch of challenges in one pass; returns (N,) response bits.

    Each row is one independent evaluation: its jitter is drawn row-wise
    from a noise stream and its tie bits are mixed from a tie key, both
    derived from eval_seed per observation point (every feed-forward tap
    plus the terminal arbiter).  The whole batch is deterministic under
    (device, challenges, eval_seed); standard-normal draws are scaled by
    sigma_noise, so rescaling delays, noise and window together never
    changes a response bit.  This is the one-job case of
    ``propagate_blocks``, for every netlist.
    """
    challenges = _validate_challenges(device.netlist, challenges)
    out = np.empty(challenges.shape[0], dtype=np.uint8)
    for rows, bits in propagate_blocks([device], challenges, [[eval_seed]]):
        out[rows] = bits[0, 0]
    return out


def clean_arrival_times(device: DeviceInstance, challenges: np.ndarray) -> np.ndarray:
    """Noise-free terminal arrival times, (N, lines).

    Only valid for netlists without feed-forward taps, where the data path
    is a pure function of the challenge.
    """
    netlist = device.netlist
    if netlist.ff_taps:
        raise ValueError("clean arrival times are undefined for feed-forward netlists")
    challenges = _validate_challenges(netlist, challenges)
    out = np.empty((challenges.shape[0], netlist.lines))
    block_rows = _block_rows(max(netlist.stages, netlist.lines))
    for rows, times in arrival_time_blocks([device], challenges, block_rows):
        out[rows] = times
    return out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5*erfc(-x/sqrt(2)), elementwise."""
    return 0.5 * _erfc(x * -math.sqrt(0.5)).astype(np.float64)


def read_probabilities(device: DeviceInstance, challenges: np.ndarray) -> np.ndarray:
    """P(response bit = 1) of each challenge of a tapless device at window 0, (N,).

    A read is 1 when the jittered gaps fall in the arbiter's 1 region.  For
    2 lines that is Phi((t_bot - t_top) / (sigma*sqrt(2))).  For 3 lines it
    is the sum over the cyclic orderings (a, b, c) of (T, C, B) of
    P(a < b < c); given the middle line's jitter sigma*z the other two races
    are independent, so P(a < b < c) = E_z[Phi((t_b - t_a)/sigma + z) *
    Phi((t_c - t_b)/sigma - z)], taken with 48-node Gauss-Hermite
    quadrature (the tests hold it to the bivariate normal CDF within
    1e-12).  At sigma_noise 0 a read is its clean race, or 1/2 where two
    lines tie exactly and a fair tie bit decides.  Feed-forward netlists and
    a positive metastability window are a ``ValueError``.
    """
    if device.netlist.ff_taps:
        raise ValueError("read probabilities are defined for tapless netlists only")
    sigma, window = device.params.sigma_noise, device.params.metastability_window
    if window > 0:
        raise ValueError(f"read probabilities are defined at metastability window 0 only, got {window}")
    times = clean_arrival_times(device, challenges)
    lines = times.shape[1]
    if sigma == 0:
        # a tie flips the output with its tie bit, so the mean over both values is 1/2
        ties = np.zeros((times.shape[0], _pairs(lines)), dtype=np.uint8)
        return (_arbitrate(times, 0.0, ties) + _arbitrate(times, 0.0, ties + 1)) / 2
    if lines == 2:
        return _phi((times[:, 1] - times[:, 0]) / (sigma * math.sqrt(2.0)))
    nodes, weights = np.polynomial.hermite_e.hermegauss(48)
    weights /= math.sqrt(2.0 * math.pi)
    p = np.zeros(times.shape[0])
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        first = _phi(((times[:, b] - times[:, a]) / sigma)[:, None] + nodes)
        second = _phi(((times[:, c] - times[:, b]) / sigma)[:, None] - nodes)
        p += (first * second) @ weights
    return np.clip(p, 0.0, 1.0)


def repeated_reads(
    device: DeviceInstance,
    challenges: np.ndarray,
    repetitions: int,
    eval_seed: int = 0,
    clean: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the same challenge batch ``repetitions`` times; (R, N) bits.

    Tapless designs compute the clean arrival times once, through
    ``clean_arrival_times``, or take them as ``clean`` from a caller that
    already has them, and read the R*N repetition-major rows through
    the shared sampler from the noise stream and tie key of ``eval_seed``.
    Each block holds whole repetitions, about BLOCK_VALUES values, so the
    bits equal ``propagate_many(device, np.tile(challenges, (R, 1)),
    eval_seed)`` reshaped to (R, N).  Feed-forward designs make one full
    propagation per repetition, seeded ``derive_seed(eval_seed, "rep", r)``.
    Deterministic under (device, challenges, repetitions, eval_seed).  Zero
    repetitions give a (0, N) array; a negative count is a ``ValueError``.
    """
    if repetitions < 0:
        raise ValueError(f"repetition count must be >= 0, got {repetitions}")
    netlist = device.netlist
    if netlist.ff_taps:
        challenges = _validate_challenges(netlist, challenges)
        reads = np.empty((repetitions, challenges.shape[0]), dtype=np.uint8)
        for r in range(repetitions):
            reads[r] = propagate_many(device, challenges, derive_seed(eval_seed, "rep", r))
        return reads
    if clean is None:
        clean = clean_arrival_times(device, challenges)
    n_eval, lines = clean.shape
    per_line = list(np.ascontiguousarray(clean.T))
    streams = [(_noise_rng(eval_seed, 0), _tie_key(eval_seed, 0))]
    out = np.empty((repetitions, n_eval), dtype=np.uint8)
    for reps in _row_blocks(repetitions, _block_rows(max(1, n_eval * lines))):
        flops = _sample(streams, reps.start * n_eval, device.params, per_line, (reps.stop - reps.start, n_eval))
        out[reps] = _response(flops)
    return out
