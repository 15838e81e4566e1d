"""Brute-force reference implementations, used only by the test suite.

Everything here recomputes results through deliberately naive arithmetic
(plain Python lists, explicit permutation composition, exact
``fractions.Fraction`` sums, exhaustive codeword search) so the fast numpy
paths can be checked against an independent derivation.  The only shared
pieces are the noise streams and the tie bits (``circuit._noise_rng``,
``_tie_key``, ``_tie_bits``), which must match bit for bit so that random
tie breaks are comparable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .bch import BchCode
from .circuit import _noise_rng, _tie_bits, _tie_key
from .device import DeviceInstance
from .response import LFSR_TAPS, lfsr_stride

MAX_ORACLE_STAGES = 4
MAX_ORACLE_CODE_LENGTH = 15

# Gate-level reference for the 3-input arbiter: three flip-flops race the
# pairs (T,C), (C,B), (B,T) and the mux/XOR stage emits NOT(qT ^ qC ^ qB).
def gate_level_priority(order: tuple[str, str, str]) -> int:
    rank = {name: pos for pos, name in enumerate(order)}
    q_t = int(rank["T"] < rank["C"])
    q_c = int(rank["C"] < rank["B"])
    q_b = int(rank["B"] < rank["T"])
    return 1 ^ (q_t ^ q_c ^ q_b)


def exhaustive_propagate(device: DeviceInstance, challenge, eval_seed: int = 0) -> int:
    """Reference evaluation by explicit per-stage permutation composition.

    A tapless chain sums its delays exactly and rounds once, as the
    closed-form kernel does; a feed-forward chain steps in floats, as its
    stage loop does.  Refuses netlists beyond MAX_ORACLE_STAGES; the point
    is exhaustive checking of small instances, not speed.
    """
    netlist = device.netlist
    if netlist.stages > MAX_ORACLE_STAGES:
        raise ValueError(f"oracle refuses netlists over {MAX_ORACLE_STAGES} stages")
    challenge = [int(b) for b in challenge]
    if len(challenge) != netlist.stages:
        raise ValueError("challenge length does not match the netlist")
    lines = netlist.lines
    sigma = device.params.sigma_noise
    window = device.params.metastability_window

    tap_points = {}
    for point, (tap, target) in enumerate(netlist.ff_taps, start=1):
        tap_points.setdefault(tap, []).append((point, target))
    pending: dict[int, list[int]] = {}

    delay = device.delay_table.tolist() if netlist.ff_taps else _fraction_table(device)
    times = [0] * lines  # an int, so that the sums stay Fractions or floats
    for stage in range(netlist.stages):
        if stage in pending:
            selects = pending.pop(stage)
        else:
            selects = [challenge[stage]] * lines
        times = _oracle_stage(delay, stage, times, selects)
        for point, target in tap_points.get(stage, ()):
            jitter = sigma * _noise_rng(eval_seed, point).standard_normal((1, lines))[0]
            tie = _tie_bits(_tie_key(eval_seed, point), 0, 1, 3)[0]
            sampled = [times[l] + float(jitter[l]) for l in range(lines)]
            pending[target] = [
                _oracle_compare(sampled[0], sampled[1], window, int(tie[0])),
                _oracle_compare(sampled[1], sampled[2], window, int(tie[1])),
                _oracle_compare(sampled[2], sampled[0], window, int(tie[2])),
            ]

    jitter = sigma * _noise_rng(eval_seed, 0).standard_normal((1, lines))[0]
    final = [float(times[l]) + float(jitter[l]) for l in range(lines)]
    if lines == 2:
        tie = _tie_bits(_tie_key(eval_seed, 0), 0, 1, 1)[0]
        return _oracle_compare(final[0], final[1], window, int(tie[0]))
    tie = _tie_bits(_tie_key(eval_seed, 0), 0, 1, 3)[0]
    q_t = _oracle_compare(final[0], final[1], window, int(tie[0]))
    q_c = _oracle_compare(final[1], final[2], window, int(tie[1]))
    q_b = _oracle_compare(final[2], final[0], window, int(tie[2]))
    return 1 ^ (q_t ^ q_c ^ q_b)


def _fraction_table(device: DeviceInstance) -> list:
    """The delay table as nested lists of exact ``Fraction`` values."""
    return [[[Fraction(v) for v in select] for select in stage] for stage in device.delay_table.tolist()]


def _oracle_stage(delay: list, stage: int, times: list, selects: list[int]) -> list:
    """One mux stage by explicit permutation: select 1 makes line l read line l-1."""
    lines = len(times)
    rotation = [2, 0, 1] if lines == 3 else [1, 0]  # source line per output line
    return [
        times[rotation[line] if selects[line] == 1 else line] + delay[stage][selects[line]][line]
        for line in range(lines)
    ]


def reference_clean_times(device: DeviceInstance, challenges) -> np.ndarray:
    """Noise-free terminal arrival times of a tapless netlist, (N, lines).

    Steps every challenge through the chain one stage at a time, adding
    each delay as an exact ``Fraction``, and rounds each sum once with
    ``float``.  No stage limit, so it serves as the reference for the
    closed-form kernel at full chain length.
    """
    if device.netlist.ff_taps:
        raise ValueError("clean arrival times are undefined for feed-forward netlists")
    delay = _fraction_table(device)
    rows = []
    for challenge in challenges:
        times = [Fraction(0)] * device.netlist.lines
        for stage, bit in enumerate(int(b) for b in challenge):
            times = _oracle_stage(delay, stage, times, [bit] * len(times))
        rows.append([float(t) for t in times])
    return np.array(rows, dtype=np.float64).reshape(-1, device.netlist.lines)


def reference_propagate(device: DeviceInstance, challenges, eval_seed: int = 0) -> np.ndarray:
    """Noisy response bits of one (device, eval_seed) job, (N,) uint8.

    A tapless chain takes its exact clean times from
    ``reference_clean_times``.  A feed-forward chain steps the whole
    (N, lines) batch one stage at a time in floats: every stage gathers the
    rotated times and adds ``delay[i][sel]``; a feed-forward tap draws its
    own noise stream and tie bits over the whole batch, and its (N, 3)
    flip-flop bits select its target stage per line.
    No stage limit, so it serves as the reference for the block reader of
    ``circuit.propagate_blocks`` at full chain length.
    """
    netlist = device.netlist
    challenges = np.asarray(challenges, dtype=np.uint8)
    n_eval, lines = challenges.shape[0], netlist.lines
    sigma = device.params.sigma_noise
    window = device.params.metastability_window
    delay = device.delay_table
    rotation = [2, 0, 1] if lines == 3 else [1, 0]  # source line per output line
    taps_at_stage: dict[int, list[tuple[int, int]]] = {}
    for point, (tap, target) in enumerate(netlist.ff_taps, start=1):
        taps_at_stage.setdefault(tap, []).append((point, target))
    pending: dict[int, np.ndarray] = {}

    if not netlist.ff_taps:
        times = reference_clean_times(device, challenges)
    else:
        times = np.zeros((n_eval, lines))
        line_idx = np.arange(lines)
        for i in range(netlist.stages):
            rotated = times[:, rotation]
            if i in pending:
                sel = pending.pop(i)  # (N, 3) per-line selects from a feed-forward arbiter
                times = np.where(sel.astype(bool), rotated, times) + delay[i][sel, line_idx]
            else:
                sel = challenges[:, i]
                times = np.where((sel == 1)[:, None], rotated, times) + delay[i][sel]
            for point, target in taps_at_stage.get(i, ()):
                sampled = times + sigma * _noise_rng(eval_seed, point).standard_normal((n_eval, 3))
                tie = _tie_bits(_tie_key(eval_seed, point), 0, n_eval, 3)
                pending[target] = _reference_flip_flops(sampled, window, tie)

    final = times + sigma * _noise_rng(eval_seed, 0).standard_normal((n_eval, lines))
    if lines == 2:
        tie = _tie_bits(_tie_key(eval_seed, 0), 0, n_eval, 1)
        wins = (final[:, 0] < final[:, 1]).astype(np.uint8)
        return np.where(np.abs(final[:, 0] - final[:, 1]) <= window, tie[:, 0], wins)
    q = _reference_flip_flops(final, window, _tie_bits(_tie_key(eval_seed, 0), 0, n_eval, 3))
    return 1 ^ q[:, 0] ^ q[:, 1] ^ q[:, 2]


def _reference_flip_flops(sampled: np.ndarray, window: float, tie: np.ndarray) -> np.ndarray:
    """(N, 3) bits (T<C, C<B, B<T) of sampled times; a gap within the window latches the tie bit."""
    following = sampled[:, [1, 2, 0]]
    return np.where(np.abs(sampled - following) <= window, tie, (sampled < following).astype(np.uint8))


def _oracle_compare(first: float, second: float, window: float, tie_bit: int) -> int:
    if abs(first - second) <= window:
        return tie_bit
    return 1 if first < second else 0


# ---------------------------------------------------------------------------
# nearest-codeword search for small BCH codes


def _oracle_systematic_codewords(code: BchCode) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (message, codeword) pairs via list-based long division."""
    gen_bits = [(code.generator >> d) & 1 for d in range(code.generator.bit_length())][::-1]
    deg = len(gen_bits) - 1
    words = []
    for message in product((0, 1), repeat=code.k):
        padded = list(message) + [0] * deg
        remainder = padded.copy()
        for i in range(code.k):
            if remainder[i]:
                for j, g in enumerate(gen_bits):
                    remainder[i + j] ^= g
        codeword = tuple(list(message) + remainder[code.k :])
        words.append((message, codeword))
    return words


def naive_nearest_codeword(received, code: BchCode) -> tuple[np.ndarray, int]:
    """Minimum-distance decoding by scanning every codeword.

    Returns (message, distance to the nearest codeword); refuses codes
    longer than MAX_ORACLE_CODE_LENGTH bits.
    """
    if code.n > MAX_ORACLE_CODE_LENGTH:
        raise ValueError(f"oracle refuses codes over {MAX_ORACLE_CODE_LENGTH} bits")
    received = [int(b) for b in received]
    best_message = None
    best_distance = code.n + 1
    for message, codeword in _oracle_systematic_codewords(code):
        distance = sum(r != c for r, c in zip(received, codeword))
        if distance < best_distance:
            best_distance = distance
            best_message = message
    return np.array(best_message, dtype=np.uint8), int(best_distance)


# ---------------------------------------------------------------------------
# naive Hamming-distance statistics


def naive_intra_hd(responses) -> float:
    rows = [[int(b) for b in row] for row in responses]
    n = len(rows[0])
    total = 0.0
    for i in range(len(rows) - 1):
        hd = sum(a != b for a, b in zip(rows[i], rows[i + 1]))
        total += hd / n
    return total / (len(rows) - 1) * 100.0


def naive_inter_hd(responses) -> float:
    rows = [[int(b) for b in row] for row in responses]
    k = len(rows)
    n = len(rows[0])
    total = 0.0
    for i in range(k - 1):
        for j in range(i + 1, k):
            hd = sum(a != b for a, b in zip(rows[i], rows[j]))
            total += hd / n
    return 2.0 / (k * (k - 1)) * total * 100.0


# ---------------------------------------------------------------------------
# LFSR expansion by clocking the register


def reference_expand(seeds, count: int) -> np.ndarray:
    """LFSR challenge sequences by clocking the register one step at a time.

    Plain Python lists: each clock XORs the tapped bits into a new bit 0
    and shifts the rest up by one; ``lfsr_stride(width)`` clocks separate
    emitted challenges.  Returns (C, count, width) uint8 like ``expand_many``.
    """
    out = []
    for seed in np.atleast_2d(seeds):
        state = [int(b) for b in seed]
        taps = [t - 1 for t in LFSR_TAPS[len(state)]]
        stride = lfsr_stride(len(state))
        sequence = [state]
        for _ in range(count - 1):
            for _ in range(stride):
                feedback = 0
                for t in taps:
                    feedback ^= state[t]
                state = [feedback] + state[:-1]
            sequence.append(state)
        out.append(sequence)
    return np.array(out, dtype=np.uint8).reshape(len(out), count, -1)
