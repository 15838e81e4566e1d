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
of its target stage.  The references are ``oracle.gate_level_priority``
(the gates) and ``oracle._reference_flip_flops`` (the rule on gaps).

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
sum.

An arbiter reads only gaps, so the kernel sums them directly: a gap
t_l - t_{l+1} is the sum of the per-stage differences of the two lines'
delays, so the table of a population keeps lines - 1 free gap columns per
device, each the exact difference of two line columns.  Every flip-flop
then reads the exact gap, rounded once.  Lines whose exact sums are equal
tie exactly, whatever the stage order; lines whose exact sums differ never
tie, even where their times round to the same double.

The kernel adds GROUP_STAGES stages per gather.  Stage group g with bits b
(stage g*G + j is bit j) and r ones after the group has the code
g*2^G*L + b*L + (r mod L), which depends only on the challenge; a device
enters only through its group table, whose row holds the group's summed
delays per line.  The tables of several devices sit side by side as
columns, so one set of codes serves a whole population.

Every clean gap comes from one step list (``_chain_steps``), read one
row block at a time by ``_chain_gaps``: in ``propagate_blocks``, and in
``clean_gaps``, through which ``read_probabilities`` and tapless
``repeated_reads`` read the gaps that the sampler reads.  Blocks hold
about BLOCK_VALUES clean values, so nothing of size devices x rows x
lines, and no one-hot encoding of the codes, is ever allocated.
``clean_arrival_times`` sums the group table's line columns instead.

The step list carries a chain in gap space: its state is its exact int64
free gaps, (g_TC, g_CB) for three lines, and g_BT = -(g_TC + g_CB).  A run
[a, b) of stages driven by the challenge alone maps line l to
in[(l - n1) mod 3] + off[l], with n1 the run's ones, so it rotates the
gaps (n1 = 1 gives (g_BT, g_TC), n1 = 2 gives (g_CB, g_BT)) and adds the
run's offsets, the gap table's closed form on stages a..b-1.  Runs are
cut at every target stage, whose per-line selects come from a tap
arbiter, and after every tap stage, so a tapless chain, on either line
count, is one run whose gaps are its offsets.  A target stage takes B as
reference (T = g_TC + g_CB, C = g_CB, B = 0).  Every value is a
difference of partial sums below 2^62 units, so nothing overflows, and a
tap arbiter, like the terminal one, reads each int64 gap rounded once.

``_sample`` turns jitter values into the flip-flop bits of one
observation point over a row block, and computes its tie bits.  An
arbiter reads only gaps, so the jitter is drawn in gap space, lines - 1
standard normals per evaluation (u, v for three lines) whose law equals
that of the differences of independent per-line Normal(0, sigma_noise)
jitters.  Each (device, repetition) job has one SFC64 noise stream, read
row-major over its P observation points (point 0 the terminal arbiter,
points 1..P-1 the feed-forward taps): the normals of row n at point p sit
at stream position (n*P + p)*(lines - 1), so block boundaries never
change a bit, and a tapless chain (P = 1) reads its rows in order.
``read_probabilities`` gives the closed-form P(bit = 1) of a tapless
chain under the same law, at every metastability window.  A tie bit is a
pure function of its position: ``_tie_bits`` mixes the key of its
(eval_seed, point) with the counter of its evaluation and flip-flop.
Keys and bits are derived only when some gap of the block is within the
window.  ``propagate_blocks`` is the block reader for every netlist: a
whole population of (device, repetition) jobs, one row block at a time,
one noise stream per job.  Each block fills every job's normals of all
its points with one draw and takes its clean gaps from ``_chain_gaps``,
as (devices, repetitions, rows) arrays whose repetition axis stays 1
until the first target stage, so the repetitions of a device share the
clean prefix.  ``propagate_many`` is its one-job case.

Tapless ``repeated_reads`` draws no jitter.  Given the clean gaps, the
reads of a challenge are independent Bernoulli(p) bits, p its read
probability, so it computes p once per challenge, as a threshold
floor(p * 2^63), and compares one word of the SFC64 noise stream of its
eval_seed, shifted right by one, per read: repetition-major, whole
repetitions per block.  Feed-forward ``repeated_reads`` propagates each
repetition through ``propagate_many``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from . import normal
from .bch import as_bits
from .device import NOISE_TAG, TIE_TAG, DelayParams, DeviceInstance
from .netlist import Netlist
from .seeds import SEED_MASK, derive_seed

# Target size of one row block, in clean values (512 KiB of float64): it
# bounds jobs x rows x lines of a block; its jitter scales with its rows and
# observation points (see propagate_blocks), and its stage codes, groups x
# rows intp, are not bounded: a one-job 64-stage block of about 21,800 rows
# holds about 2.8 MB of codes.
BLOCK_VALUES = 1 << 16

# Consecutive stages summed by one gather of the closed-form kernel, at most
# 8 (a group's bits are one byte); each group's table has 2^GROUP_STAGES *
# lines rows per device column.
GROUP_STAGES = 4


def _noise_rng(eval_seed: int) -> np.random.Generator:
    """The one SFC64 noise stream of an evaluation seed.  Its third seed word,
    0, is part of the stream's definition: every stored noisy read depends on it."""
    seed = np.random.SeedSequence([eval_seed & SEED_MASK, NOISE_TAG, 0])
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
    """(groups*2^G*L, D*L) int64 table of GROUP_STAGES-stage sums of D devices.

    ``scaled`` stacks the devices' scaled tables, (D, stages, 2, L).  Row
    g*2^G*L + b*L + r, for the bits b of the group's stages (stage g*G + j
    is bit j) and r ones after the group, holds the sum of the group's
    delays per line, device d in columns d*L to (d+1)*L.  Stages past the
    chain's end add 0 with bit 0.
    """
    n_dev, stages, _, lines = scaled.shape
    group = GROUP_STAGES
    n_groups = -(-stages // group)
    padded = np.zeros((n_groups * group, 2, n_dev, lines), dtype=np.int64)
    padded[:stages] = scaled.transpose(1, 2, 0, 3)
    line = np.arange(lines)
    rolled = padded[..., (line[None, :] - line[:, None]) % lines]  # [i, c, d, r, l] = delay[d, i, c, l - r]
    bits = (np.arange(1 << group)[:, None] >> np.arange(group)) & 1  # (2^G, G)
    after = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits  # ones of the group after stage j
    first = np.arange(n_groups)[:, None, None] * group
    summed = np.zeros((n_groups, 1 << group, lines, n_dev, lines), dtype=np.int64)
    for j in range(group):
        summed += rolled[first + j, bits[:, j, None], :, (after[:, j, None] + line) % lines]
    return summed.reshape(-1, n_dev * lines)


def _scaled_tables(devices: Sequence[DeviceInstance]) -> tuple[np.ndarray, np.ndarray]:
    """The devices' ``_scaled_table``s stacked, (D, stages, 2, L), and their units 2^e, (D,)."""
    scaled = [_scaled_table(device.delay_table) for device in devices]
    return np.stack([table for table, _ in scaled]), np.array([np.ldexp(1.0, e) for _, e in scaled])


def _group_codes(challenges: np.ndarray, lines: int) -> tuple[np.ndarray, np.ndarray]:
    """(groups, N) ``_group_table`` row of every stage group of a (N, stages) batch,
    and the (N,) count of ones of each challenge, mod ``lines``."""
    group = GROUP_STAGES
    n_rows, stages = challenges.shape
    n_groups = -(-stages // group)
    bits = np.zeros((n_groups * group, n_rows), dtype=np.uint8)
    bits[:stages] = challenges.T
    bits = bits.reshape(n_groups, group, n_rows)
    value = bits[:, 0].copy()
    for j in range(1, group):
        value |= bits[:, j] << j
    ones = np.bitwise_count(value)
    codes = np.empty((n_groups, n_rows), dtype=np.intp)
    after = np.zeros(n_rows, dtype=np.uint8)  # ones after group g, mod lines
    for g in range(n_groups - 1, -1, -1):
        codes[g] = after
        after += ones[g]
        after %= lines
    codes += value * np.intp(lines)
    codes += np.arange(n_groups)[:, None] * ((1 << group) * lines)
    return codes, after


def _group_sums(table: np.ndarray, challenges: np.ndarray, lines: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, D*L) int64 sums of a (N, stages) batch's ``_group_table`` rows,
    one row per stage group, and the (N,) ones of each challenge, mod ``lines``."""
    codes, ones = _group_codes(challenges, lines)
    sums = np.take(table, codes[0], axis=0)
    gathered = np.empty_like(sums)
    for code in codes[1:]:
        np.take(table, code, axis=0, out=gathered, mode="clip")
        sums += gathered
    return sums, ones


def _block_rows(values_per_row: int, multiple: int = 1) -> int:
    """Rows per kernel block: about BLOCK_VALUES values, a multiple of ``multiple``.

    ``values_per_row`` counts what the caller sizes its blocks by; in
    ``propagate_blocks`` that is the clean values of a row, and a block
    also holds the row's normals (see there).
    """
    return max(1, BLOCK_VALUES // (values_per_row * multiple)) * multiple


def _row_blocks(n_rows: int, block_rows: int):
    """Consecutive slices of ``block_rows`` rows covering ``n_rows``."""
    for start in range(0, n_rows, block_rows):
        yield slice(start, min(start + block_rows, n_rows))


def _gap_table(table: np.ndarray, n_dev: int) -> np.ndarray:
    """The lines - 1 free gap columns of a ``_group_table`` of ``n_dev`` devices,
    device d in columns d*(L-1) to (d+1)*(L-1): row by row the exact
    differences t_l - t_{l+1} of its line columns.  A difference of sums is
    the sum of the differences, so the gap rows of a challenge add up to its
    exact gaps, all below 2^62 units in magnitude."""
    per_line = table.reshape(table.shape[0], n_dev, -1)
    return (per_line[..., :-1] - per_line[..., 1:]).reshape(table.shape[0], -1)


def _sample(normals: np.ndarray, seeds: Sequence[int], start: int, params: DelayParams, shape: tuple[int, ...],
            point: int, clean: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Flip-flop bits of observation point ``point``, one ``shape`` array per pair.

    ``clean`` holds the lines - 1 free clean gaps m, each the exact gap
    rounded once and broadcast to ``shape``, (devices, repetitions, rows).
    ``normals`` is the block's noise, (jobs, rows, points, lines - 1) with
    the jobs in the C order of ``shape``, and ``seeds`` holds each job's
    eval seed.  It draws nothing and writes nothing into ``normals``: it
    reads u and v from the point's strided slice once each, into new
    contiguous gaps, since the flip-flops read each gap several times.
    An arbiter reads only gaps, so each evaluation reads lines - 1 standard
    normals: u for 2 lines, (u, v) for 3.  With a = sigma*sqrt(2) and
    b = sigma*sqrt(1.5) the noisy gaps are

        g = m_top,bot + a*u                              (2 lines)
        g_TC = m_TC + a*u
        g_CB = m_CB + (b*v - (a*u)*0.5)                  (3 lines)
        g_BT = -(g_TC + g_CB),

    which is the law of the differences of independent Normal(0, sigma)
    line jitters: variance 2 sigma^2 per gap, covariance -sigma^2 between
    g_TC and g_CB (Delvaux and Verbauwhede, HOST 2013).  The rows of a
    job are its tie evaluations start, start+1, ... of the key of its
    (seed, point).  Keys and tie bits are derived only when some gap is
    within the metastability window, since no other decision reads them;
    being a pure function of their position, no window or block split
    moves them.  Every propagation reads its noise and tie bits here;
    tapless ``repeated_reads`` reads words against ``_read_probabilities``.
    """
    free = len(clean)
    normals = normals[:, :, point].reshape(*shape, free)
    au = normals[..., 0] * (params.sigma_noise * math.sqrt(2.0))
    gaps = [au]
    if free == 2:
        g_cb = normals[..., 1] * (params.sigma_noise * math.sqrt(1.5))
        g_cb -= au * 0.5
        gaps.append(g_cb)
    for gap, clean_gap in zip(gaps, clean):
        gap += clean_gap

    def tie() -> np.ndarray:
        pairs = _pairs(free + 1)
        bits = [_tie_bits(_tie_key(seed, point), start, shape[-1], pairs) for seed in seeds]
        return np.stack(bits).reshape(*shape, -1)

    return _latch(gaps, params.metastability_window, tie)


def _chain_steps(devices: Sequence[DeviceInstance]) -> tuple[list[tuple], np.ndarray]:
    """The steps of a population's chain, in stage order, and the units.

    Between the taps' reads and their target stages the chain is driven by
    the challenge alone.  Such a run of stages [a, b) is ``("run", a, b,
    table)``, with ``table`` the ``_gap_table`` of every device's scaled
    delays a..b-1.  Runs are cut at every target stage and after every tap
    stage, so a tapless chain is the one run [0, stages).  ``("tap",
    point)`` reads observation point ``point`` after its tap stage.
    ``("target", point, low, high)`` applies the selects of ``point``:
    ``low`` and ``high`` are the target stage's scaled delays at select 0
    and 1, three (D, 1, 1) arrays each, one per line.  The units 2^e of the
    devices come as a (D, 1, 1) array.
    """
    netlist = devices[0].netlist
    scaled, units = _scaled_tables(devices)
    targets, tapped = {}, {}
    for point, (tap, target) in enumerate(netlist.ff_taps, start=1):
        targets[target] = point
        tapped.setdefault(tap, []).append(("tap", point))
    steps: list[tuple] = []
    start = 0

    def run(stop: int) -> None:
        if stop > start:
            steps.append(("run", start, stop, _gap_table(_group_table(scaled[:, start:stop]), len(devices))))

    for i in range(netlist.stages):
        if i in targets:
            run(i)
            low, high = (list(scaled[:, i, select].T[:, :, None, None]) for select in (0, 1))
            steps.append(("target", targets[i], low, high))
            start = i + 1
        if i in tapped:
            run(i + 1)
            steps += tapped[i]
            start = i + 1
    run(netlist.stages)
    return steps, units[:, None, None]


def _run_gaps(gaps: list[np.ndarray], table: np.ndarray, bits: np.ndarray, n_dev: int) -> list[np.ndarray]:
    """The free gaps after a run of stages driven by its (B, stages) ``bits``.

    The run's offsets o are its ``table`` rows summed at (D, 1, B), with
    ``table.shape[1] // n_dev`` free gaps per device: one for 2 lines,
    (g_TC, g_CB) for 3.  ``gaps`` is empty at the chain's start, where
    g = o, as on every tapless chain.  Later, line l leaves the run as
    in[(l - n1) mod 3] + off[l], n1 the run's ones, so the gaps rotate and
    gain o: n1 = 0 gives (g_TC + o1, g_CB + o2), n1 = 1 (g_BT + o1,
    g_TC + o2) and n1 = 2 (g_CB + o1, g_BT + o2).  A run of one stage
    rotates with one ``where`` on its bits, a longer one with two.
    """
    free = table.shape[1] // n_dev
    sums, ones = _group_sums(table, bits, free + 1)
    offsets = np.ascontiguousarray(sums.T).reshape(n_dev, free, 1, bits.shape[0]).transpose(1, 0, 2, 3)
    if not gaps:
        return list(offsets)
    o_tc, o_cb = offsets
    g_tc, g_cb = gaps
    g_bt = -(g_tc + g_cb)
    if bits.shape[1] == 1:
        flip = bits[:, 0].view(bool)
        return [np.where(flip, g_bt, g_tc) + o_tc, np.where(flip, g_tc, g_cb) + o_cb]
    one, two = ones == 1, ones == 2
    return [np.where(one, g_bt, np.where(two, g_cb, g_tc)) + o_tc,
            np.where(one, g_tc, np.where(two, g_bt, g_cb)) + o_cb]


def _target_gaps(gaps: list[np.ndarray], selects: list[np.ndarray], low: list, high: list) -> list[np.ndarray]:
    """The free gaps after a target stage whose line l reads t[l-1] + high[l] where
    its select is 1 and t[l] + low[l] where it is 0.

    Times are taken relative to line B: T = g_TC + g_CB, C = g_CB, B = 0,
    so T' = sT ? high_T : T + low_T, C' = sC ? T + high_C : C + low_C and
    B' = sB ? C + high_B : low_B, and the new gaps are (T' - C', C' - B').
    """
    g_tc, g_cb = gaps
    s_t, s_c, s_b = (np.negative(s, dtype=np.int64) for s in selects)
    t = g_tc + g_cb
    new_t = _pick(s_t, high[0], t + low[0])
    new_c = _pick(s_c, t + high[1], g_cb + low[1])
    new_t -= new_c
    new_c -= _pick(s_b, g_cb + high[2], low[2])
    return [new_t, new_c]


def _pick(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a where the int64 ``mask`` is -1 and b where it is 0, blended bitwise:
    ``np.where`` branches on every value, which random selects make slow."""
    out = np.bitwise_and(a ^ b, mask)
    out ^= b
    return out


def _chain_gaps(steps: list[tuple], units: np.ndarray, challenges: np.ndarray, read_tap) -> list[np.ndarray]:
    """Clean terminal free gaps of one row block, carried in exact int64.

    ``steps`` and ``units`` come from ``_chain_steps``.  A run goes
    through ``_run_gaps``, whose offsets are gathered at (D, 1, B), so the
    repetitions of a device share them; the gaps stay (D, 1, B) until the
    first target stage (``_target_gaps``), where the tap arbiter's
    per-line selects make them (D, R, B).  ``read_tap(point, clean)``
    returns the flip-flop bits of tap ``point`` (``_sample``); it is never
    called on a tapless chain.  A tap and the terminal arbiter read
    ``g * units``, each exact gap cast to float64 and scaled by its unit
    once; the terminal ones are returned.
    """
    n_dev = units.shape[0]
    gaps: list[np.ndarray] = []
    selects: dict[int, list[np.ndarray]] = {}
    for kind, *step in steps:
        if kind == "run":
            a, b, table = step
            gaps = _run_gaps(gaps, table, challenges[:, a:b], n_dev)
        elif kind == "tap":
            (point,) = step
            selects[point] = read_tap(point, [g * units for g in gaps])
        else:
            point, low, high = step
            gaps = _target_gaps(gaps, selects.pop(point), low, high)
    return [g * units for g in gaps]


def _check_population(devices: Sequence[DeviceInstance], eval_seeds: Sequence[Sequence[int]]) -> None:
    """One ``ValueError`` naming each way in which ``devices`` and ``eval_seeds``
    are not one population: one row of seeds per device, rows of one
    non-zero length, and one netlist and parameter set."""
    if not devices:
        raise ValueError("population must not be empty")
    problems = []
    if len(eval_seeds) != len(devices):
        problems.append(f"{len(eval_seeds)} rows of eval seeds for {len(devices)} devices")
    lengths = sorted({len(seeds) for seeds in eval_seeds})
    if len(lengths) > 1:
        problems.append(f"rows of eval seeds of unequal lengths {lengths}")
    if 0 in lengths:
        problems.append(f"empty rows of eval seeds {[row for row, seeds in enumerate(eval_seeds) if len(seeds) == 0]}")
    first = devices[0]
    for field in ("netlist", "params"):
        others = [dev.device_id for dev in devices if getattr(dev, field) != getattr(first, field)]
        if others:
            problems.append(f"device(s) {', '.join(others)} differ from {first.device_id} in {field}")
    if problems:
        raise ValueError("population devices must share one netlist and parameter set: " + "; ".join(problems))


def propagate_blocks(
    devices: Sequence[DeviceInstance],
    challenges: np.ndarray,
    eval_seeds: Sequence[Sequence[int]],
    block_multiple: int = 1,
):
    """Noisy reads of a population, one row block at a time.

    ``eval_seeds[d][r]`` seeds repetition r of device d; every device gets
    the same number of repetitions R, and all share one netlist and
    parameter set (a ``ValueError`` names each mismatch).  Yields (rows,
    bits) with bits of shape (D, R, B); block starts are multiples of
    ``block_multiple``.  Every netlist takes its clean gaps from
    ``_chain_gaps`` on the steps of ``_chain_steps``, built once per call.

    Each (device, repetition) job keeps one noise stream open across
    blocks and reads it row-major over its P observation points: a block
    of B rows fills the job's B x P x (lines - 1) normals with one draw,
    and point p of row n reads positions (n*P + p)*(lines - 1) onwards.
    Row n is tie evaluation n of each point's key, so the bits equal
    ``propagate_many(devices[d], challenges, eval_seeds[d][r])[rows]``.
    Block rows are sized to about BLOCK_VALUES values over jobs x rows x
    lines.  A block also holds its noise,
    jobs x rows x P x (lines - 1) normals, in one buffer allocated once
    per call: a block of P points holds about (lines - 1)P/lines times
    BLOCK_VALUES normals beside its clean values.
    """
    _check_population(devices, eval_seeds)
    netlist = devices[0].netlist
    challenges = _validate_challenges(netlist, challenges)
    lines, params = netlist.lines, devices[0].params
    n_dev, n_rep = len(devices), len(eval_seeds[0])
    seeds = [s for row in eval_seeds for s in row]
    rngs = [_noise_rng(s) for s in seeds]

    steps, units = _chain_steps(devices)
    block_rows = _block_rows(n_dev * n_rep * lines, block_multiple)
    noise = np.empty((len(seeds), min(block_rows, challenges.shape[0]), len(netlist.ff_taps) + 1, lines - 1))
    for rows in _row_blocks(challenges.shape[0], block_rows):
        n_rows = rows.stop - rows.start
        normals = noise[:, :n_rows]
        for rng, out in zip(rngs, normals):
            rng.standard_normal(out=out)
        read_tap = partial(_sample, normals, seeds, rows.start, params, (n_dev, n_rep, n_rows))
        yield rows, _response(read_tap(0, _chain_gaps(steps, units, challenges[rows], read_tap)))


def propagate_many(device: DeviceInstance, challenges: np.ndarray, eval_seed: int = 0) -> np.ndarray:
    """Evaluate a batch of challenges in one pass; returns (N,) response bits.

    Each row is one independent evaluation: its jitter is drawn row-wise
    from the one noise stream of eval_seed, row-major over the observation
    points (the terminal arbiter, then every feed-forward tap), and its tie
    bits are mixed from a tie key derived from eval_seed per point.  The
    whole batch is deterministic under (device, challenges, eval_seed);
    standard-normal draws are scaled by sigma_noise, so rescaling delays,
    noise and window together never changes a response bit.  This is the
    one-job case of ``propagate_blocks``, for every netlist.
    """
    challenges = _validate_challenges(device.netlist, challenges)
    out = np.empty(challenges.shape[0], dtype=np.uint8)
    for rows, bits in propagate_blocks([device], challenges, [[eval_seed]]):
        out[rows] = bits[0, 0]
    return out


def _tapless(device: DeviceInstance, challenges: np.ndarray) -> tuple[np.ndarray, int]:
    """A validated batch of a tapless device, and its rows per block."""
    netlist = device.netlist
    if netlist.ff_taps:
        raise ValueError("clean arrival times, gaps and read probabilities are defined for tapless netlists only")
    return _validate_challenges(netlist, challenges), _block_rows(max(netlist.stages, netlist.lines))


def clean_arrival_times(device: DeviceInstance, challenges: np.ndarray) -> np.ndarray:
    """Noise-free terminal arrival times, (N, lines).

    Only valid for netlists without feed-forward taps, where the data path
    is a pure function of the challenge.  Each block sums the device's
    line table in int64, then casts once and scales by the unit, so every
    time is the exact sum rounded once.
    """
    challenges, block_rows = _tapless(device, challenges)
    scaled, units = _scaled_tables([device])
    table, lines = _group_table(scaled), device.netlist.lines
    out = np.empty((challenges.shape[0], lines))
    for rows in _row_blocks(challenges.shape[0], block_rows):
        sums, _ = _group_sums(table, challenges[rows], lines)
        out[rows] = sums
        out[rows] *= units[0]
    return out


def clean_gaps(device: DeviceInstance, challenges: np.ndarray) -> np.ndarray:
    """Noise-free free gaps t_l - t_{l+1} of a tapless netlist, (N, lines - 1).

    Each is the exact gap rounded once, read through the same steps as
    ``propagate_blocks``: the clean gaps that ``propagate_many`` adds its
    jitter to.
    """
    challenges, block_rows = _tapless(device, challenges)
    steps, units = _chain_steps([device])
    out = np.empty((challenges.shape[0], device.netlist.lines - 1))
    for rows in _row_blocks(challenges.shape[0], block_rows):
        for k, gap in enumerate(_chain_gaps(steps, units, challenges[rows], None)):
            out[rows, k] = gap[0, 0]
    return out


def _read_probabilities(gaps: np.ndarray, params: DelayParams) -> np.ndarray:
    """P(response bit = 1) of each row of (N, lines - 1) clean free gaps, (N,).

    Let m_k be the clean gaps of the flip-flops, as the sampler forms them
    from the free gaps (``clean_gaps``): m_top,bot for 2 lines, and for 3
    (m_TC, m_CB, m_BT) with the closing gap m_BT = -(m_TC + m_CB).  Let
    s = sigma*sqrt(2) be the spread of a jittered gap,
    w the metastability window, u_k = (w - m_k)/s and h_k = (-w - m_k)/s.
    A flip-flop inside the window latches a fair tie bit that no other draw
    sees, and the arbiter XORs it into its output, so a read with any
    flip-flop inside the window is 1 with probability 1/2; otherwise it is
    the strict race.

    2 lines: p = Phi(h) + (Phi(u) - Phi(h))/2.  3 lines: the six strict
    orderings, each two adjacent gaps below -w, are disjoint and cover
    every read with no flip-flop inside the window, so p = sum of the three
    cyclic orthants + (1 - sum of all six)/2.  Adjacent gaps have
    correlation -1/2; with P(X > a, Y > b) = 1 - Phi(a) - Phi(b) + L(a, b)
    the anticyclic orthants fold into the cyclic ones at the other edge of
    the window, and

        p = sum_k Phi(u_k) - 1 - sum_k [L(u_k, u_k+1) - L(h_k, h_k+1)] / 2

    with Phi = ``normal.cdf`` and L = ``normal.orthant``.  At window 0 the
    bracket vanishes: a read is 1 exactly when two of the three flip-flops
    latch 1, so p is the expected count of ones, three values of Phi, minus
    1.  At sigma_noise 0 a read is its clean race, or 1/2 where a gap is
    within the window.  Rows are taken in blocks of about BLOCK_VALUES
    values.
    """
    sigma, window = params.sigma_noise, params.metastability_window
    n_rows, free = gaps.shape
    pairs = _pairs(free + 1)
    # values per row held at once: about 8 arrays of the argument's size in
    # normal.cdf, and two of ORTHANT_NODES values per argument in normal.orthant
    per_row = 2 * 3 * normal.ORTHANT_NODES if pairs == 3 and window > 0 else 8 * (free + 1)
    p = np.empty(n_rows)
    for rows in _row_blocks(n_rows, _block_rows(per_row)):
        m = gaps[rows]
        if pairs == 3:
            m = np.column_stack([m, -(m[:, 0] + m[:, 1])])
        s = sigma * math.sqrt(2.0)
        if sigma == 0:
            race = _response([(m[:, k] < 0).view(np.uint8) for k in range(pairs)])
            p[rows] = np.where((np.abs(m) <= window).any(axis=1), 0.5, race)
        elif pairs == 1:
            p[rows] = normal.cdf((window - m[:, 0]) / s)
            if window > 0:
                p[rows] = (p[rows] + normal.cdf((-window - m[:, 0]) / s)) / 2
        else:
            u, h = (window - m) / s, (-window - m) / s
            p[rows] = normal.cdf(u).sum(axis=1) - 1.0
            if window > 0:
                step = [1, 2, 0]
                p[rows] -= (normal.orthant(u, u[:, step]) - normal.orthant(h, h[:, step])).sum(axis=1) / 2
    return np.clip(p, 0.0, 1.0, out=p)


def read_probabilities(device: DeviceInstance, challenges: np.ndarray) -> np.ndarray:
    """P(response bit = 1) of each challenge of a tapless device, (N,).

    The closed form of ``_read_probabilities`` on the clean gaps that the
    sampler reads (``clean_gaps``), exact at every metastability window up
    to the rounding of its normal CDFs: at window 0 three values of Phi per
    3-line challenge, beyond it six orthants of the bivariate normal at
    correlation -1/2 by Genz's 12-node rule.  Feed-forward netlists are a ``ValueError``.
    """
    return _read_probabilities(clean_gaps(device, challenges), device.params)


def repeated_reads(
    device: DeviceInstance,
    challenges: np.ndarray,
    repetitions: int,
    eval_seed: int = 0,
) -> np.ndarray:
    """Evaluate the same challenge batch ``repetitions`` times; (R, N) bits.

    Tapless designs compute the clean gaps once, through ``clean_gaps``.
    Given them, the reads of a challenge are independent Bernoulli(p)
    bits, p its ``_read_probabilities`` value, which is the law of the
    sampler's jitter and tie bits.  So p becomes a threshold
    floor(p * 2^63), and read r of challenge n is 1 when word r*N + n of
    the SFC64 noise stream of ``eval_seed``, shifted right by one, is below
    it: one word per read, drawn repetition-major in blocks of whole
    repetitions, so block boundaries never move a bit, p = 1 always reads
    1 and p = 0 never does.  Feed-forward designs make one full propagation
    per repetition, seeded ``derive_seed(eval_seed, "rep", r)``.
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
    clean = clean_gaps(device, challenges)
    return _threshold_reads(clean, device.params, _noise_words(eval_seed, repetitions, clean.shape[0]), repetitions)


def _noise_words(eval_seed: int, repetitions: int, n_eval: int):
    """The words that tapless reads compare with their thresholds, as
    (rows, block) pairs: word r*N + n of the SFC64 noise stream of
    ``eval_seed``, shifted right by one, for read r of evaluation n, drawn
    repetition-major in blocks of whole repetitions."""
    words = _noise_rng(eval_seed).bit_generator
    for reps in _row_blocks(repetitions, _block_rows(max(1, n_eval))):
        block = words.random_raw((reps.stop - reps.start, n_eval))
        block >>= 1
        yield reps, block
        del block  # one block alive at a time


def _threshold_reads(clean: np.ndarray, params: DelayParams, blocks, repetitions: int) -> np.ndarray:
    """(R, N) reads of a tapless device given its clean gaps: read r of
    evaluation n is 1 when its word in ``blocks`` (``_noise_words``) is
    below floor(p * 2^63), p the evaluation's ``_read_probabilities`` value."""
    thresholds = np.floor(np.ldexp(_read_probabilities(clean, params), 63)).astype(np.uint64)
    out = np.empty((repetitions, clean.shape[0]), dtype=bool)
    for reps, block in blocks:
        np.less(block, thresholds, out=out[reps])
        del block  # so that ``_noise_words`` holds the only reference to it
    return out.view(np.uint8)
