"""Brute-force reference implementations, used only by the test suite.

Everything here recomputes results through deliberately naive arithmetic
(plain Python lists, explicit permutation composition, exact
``fractions.Fraction`` sums, exhaustive codeword search) so the fast numpy
paths can be checked against an independent derivation.  The only shared
pieces are the noise streams and the tie bits (``circuit._noise_rng``,
``_tie_key``, ``_tie_bits``), which must match bit for bit so that random
tie breaks are comparable.  The noisy gaps are restated from the stream
definition (one stream per evaluation seed, read row-major over the P
observation points: lines - 1 normals per evaluation and point, in gap
space) with the floating-point operations of ``circuit._sample``, on
clean gaps that are each the exact difference of two sums, rounded once.
Where the sampler halves a*u the oracle multiplies u by a/2; halving is
exact outside the subnormal range, so both give the same double.
The parity features of the attack are float products of the signs.
The CRP-file reader shares the header schema and the field rules
(``hex_to_bits``, ``response._decimal_to_int``) with ``load_crps`` and
restates the record table: its lines, their order, the cells and their
checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from . import kvfile
from .bch import BchCode
from .circuit import _noise_rng, _tie_bits, _tie_key
from .device import DeviceInstance
from .response import (
    _CRP_HEADER,
    CRP_COLUMNS,
    LFSR_TAPS,
    CrpSet,
    _check_device_id,
    _crp_set,
    _decimal_to_int,
    hex_to_bits,
    lfsr_stride,
)

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

    Every chain sums its delays as exact ``Fraction``s, and an arbiter reads
    each gap as the exact difference of two sums rounded once, as the
    kernel gives it.  Refuses netlists beyond MAX_ORACLE_STAGES; the point
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
    # one evaluation's normals of every observation point, from its one stream
    normals = _noise_rng(eval_seed).standard_normal((1, len(netlist.ff_taps) + 1, lines - 1))

    tap_points = {}
    for point, (tap, target) in enumerate(netlist.ff_taps, start=1):
        tap_points.setdefault(tap, []).append((point, target))
    pending: dict[int, list[int]] = {}

    delay = _fraction_table(device)
    times = [Fraction(0)] * lines
    for stage in range(netlist.stages):
        if stage in pending:
            selects = pending.pop(stage)
        else:
            selects = [challenge[stage]] * lines
        times = _oracle_stage(delay, stage, times, selects)
        for point, target in tap_points.get(stage, ()):
            gaps = _reference_gaps(_fraction_gaps(times), sigma, normals[:, point])[0]
            tie = _tie_bits(_tie_key(eval_seed, point), 0, 1, 3)[0]
            pending[target] = [_oracle_compare(gaps[k], window, int(tie[k])) for k in range(3)]

    gaps = _reference_gaps(_fraction_gaps(times), sigma, normals[:, 0])[0]
    tie = _tie_bits(_tie_key(eval_seed, 0), 0, 1, len(gaps))[0]
    q = [_oracle_compare(gaps[k], window, int(tie[k])) for k in range(len(gaps))]
    if lines == 2:
        return q[0]
    return 1 ^ (q[0] ^ q[1] ^ q[2])


def _fraction_table(device: DeviceInstance) -> list:
    """The delay table as nested lists of exact ``Fraction`` values."""
    return [[[Fraction(v) for v in select] for select in stage] for stage in device.delay_table.tolist()]


def _fraction_gaps(times: list) -> np.ndarray:
    """(1, lines - 1) free gaps t_l - t_{l+1} of ``Fraction`` times, each exact
    difference rounded once (``float`` of a ``Fraction`` is correctly rounded)."""
    return np.array([[float(upper - lower) for upper, lower in zip(times, times[1:])]])


def _oracle_stage(delay: list, stage: int, times: list, selects: list[int]) -> list:
    """One mux stage by explicit permutation: select 1 makes line l read line l-1."""
    lines = len(times)
    rotation = [2, 0, 1] if lines == 3 else [1, 0]  # source line per output line
    return [
        times[rotation[line] if selects[line] == 1 else line] + delay[stage][selects[line]][line]
        for line in range(lines)
    ]


def _reference_times(device: DeviceInstance, challenges, read_tap=None) -> tuple[list, int]:
    """Exact terminal arrival times of a batch: per-row numerators, and their denominator.

    Steps every challenge through the chain one stage at a time, adding
    each delay as an exact ``Fraction``.  The fractions share the table's
    common denominator, so only their numerators are added, as Python
    integers.  After a feed-forward tap stage, ``read_tap(point, gaps)``
    gets the (N, 2) clean gaps of the batch (``_rounded_gaps``) and returns
    the (N, 3) selects of the tap's target stage.
    """
    netlist = device.netlist
    table = _fraction_table(device)
    denominator = math.lcm(*(f.denominator for stage in table for select in stage for f in select))
    delay = [[[f.numerator * (denominator // f.denominator) for f in select] for select in stage] for stage in table]
    taps_at_stage: dict[int, list[tuple[int, int]]] = {}
    for point, (tap, target) in enumerate(netlist.ff_taps, start=1):
        taps_at_stage.setdefault(tap, []).append((point, target))
    pending: dict[int, list] = {}
    rows = [[0] * netlist.lines for _ in range(len(challenges))]
    for stage in range(netlist.stages):
        if stage in pending:
            selects = pending.pop(stage)
        else:
            selects = [[int(challenge[stage])] * netlist.lines for challenge in challenges]
        rows = [_oracle_stage(delay, stage, times, sel) for times, sel in zip(rows, selects)]
        for point, target in taps_at_stage.get(stage, ()):
            pending[target] = read_tap(point, _rounded_gaps(rows, denominator, netlist.lines)).tolist()
    return rows, denominator


def _rounded(rows: list, denominator: int, width: int) -> np.ndarray:
    """(N, width) float64 of the numerators / denominator; an int / int
    division is correctly rounded."""
    return np.array([[t / denominator for t in row] for row in rows], dtype=np.float64).reshape(-1, width)


def _rounded_gaps(rows: list, denominator: int, lines: int) -> np.ndarray:
    """(N, lines - 1) free gaps t_l - t_{l+1} of per-row time numerators:
    each exact difference over the denominator, rounded once."""
    return _rounded([[upper - lower for upper, lower in zip(row, row[1:])] for row in rows], denominator, lines - 1)


def reference_clean_times(device: DeviceInstance, challenges) -> np.ndarray:
    """Noise-free terminal arrival times of a tapless netlist, (N, lines).

    Exact ``Fraction`` sums, each rounded once.  No stage limit, so it
    serves as the reference for the closed-form kernel at full chain length.
    """
    if device.netlist.ff_taps:
        raise ValueError("clean arrival times are undefined for feed-forward netlists")
    return _rounded(*_reference_times(device, challenges), device.netlist.lines)


def reference_propagate(device: DeviceInstance, challenges, eval_seed: int = 0) -> np.ndarray:
    """Noisy response bits of one (device, eval_seed) job, (N,) uint8.

    The chain sums exact ``Fraction``s stage by stage (``_reference_times``),
    and every arbiter reads the exact differences of the sums, each rounded
    once (``_rounded_gaps``).  The job's one noise stream gives all its
    normals at once, (N, P, lines - 1) for P observation points, and point
    p (0 the terminal arbiter, 1.. the feed-forward taps) reads
    ``[:, p]``.  A tap's tie bits cover the whole batch, and its (N, 3)
    flip-flop bits select its target stage per line.  No stage limit, so it
    serves as the reference for the block reader of
    ``circuit.propagate_blocks`` at full chain length.
    """
    sigma = device.params.sigma_noise
    window = device.params.metastability_window
    challenges = np.asarray(challenges, dtype=np.uint8)
    n_eval = challenges.shape[0]
    netlist = device.netlist
    normals = _noise_rng(eval_seed).standard_normal((n_eval, len(netlist.ff_taps) + 1, netlist.lines - 1))

    def read(point: int, clean: np.ndarray) -> np.ndarray:
        gaps = _reference_gaps(clean, sigma, normals[:, point])
        return _reference_flip_flops(gaps, window, _tie_bits(_tie_key(eval_seed, point), 0, n_eval, gaps.shape[1]))

    q = read(0, _rounded_gaps(*_reference_times(device, challenges.tolist(), read), netlist.lines))
    if netlist.lines == 2:
        return q[:, 0]
    return 1 ^ q[:, 0] ^ q[:, 1] ^ q[:, 2]


def _reference_gaps(clean: np.ndarray, sigma: float, normals: np.ndarray) -> np.ndarray:
    """(N, pairs) noisy gaps first - second of (N, lines - 1) clean free gaps.

    (T - C, C - B, B - T) for 3 lines, closed as -(g_TC + g_CB), and
    (top - bottom) for 2.  Row n reads the (N, lines - 1) ``normals`` u
    (and v) of evaluation n, and each gap's jitter is the difference of
    two Normal(0, sigma) line jitters written in them.
    """
    free = clean.shape[1]
    a = sigma * math.sqrt(2.0)
    g_tc = clean[:, 0] + a * normals[:, 0]
    if free == 1:
        return g_tc[:, None]
    g_cb = clean[:, 1] + (sigma * math.sqrt(1.5) * normals[:, 1] - a / 2 * normals[:, 0])
    return np.stack([g_tc, g_cb, -(g_tc + g_cb)], axis=1)


def _reference_flip_flops(gaps: np.ndarray, window: float, tie: np.ndarray) -> np.ndarray:
    """(N, pairs) bits gap < 0 of (N, pairs) gaps; a gap within the window latches the tie bit."""
    return np.where(np.abs(gaps) <= window, tie, (gaps < 0).astype(np.uint8))


def _oracle_compare(gap: float, window: float, tie_bit: int) -> int:
    if abs(gap) <= window:
        return tie_bit
    return 1 if gap < 0 else 0


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


# ---------------------------------------------------------------------------
# attack features as float products


def reference_parity_features(challenges) -> np.ndarray:
    """Parity features as running float products: feature i = prod_{j >= i} (1 - 2 c_j).

    A cumulative product of the signs over the reversed challenge, then a
    column of ones (the empty product); the parity columns of
    ``attack._design``, all but its bias column, must equal it exactly.
    """
    signs = 1.0 - 2.0 * np.atleast_2d(np.asarray(challenges, dtype=np.float64))
    n = signs.shape[1]
    out = np.ones((signs.shape[0], n + 1))
    out[:, :n] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return out


# ---------------------------------------------------------------------------
# CRP files read one line at a time


def reference_load_crps(path) -> CrpSet:
    """``response.load_crps`` as a line-by-line reader over Python dicts.

    Each stripped, non-blank line is split and checked field by field in
    record order (columns, device id, repetition, response_bits_len,
    response hex, challenge hex, then the cell), so the first bad line
    raises, as in ``load_crps``.  The field rules are ``_check_device_id``,
    ``_decimal_to_int`` and ``hex_to_bits``; records are kept per (device
    id, challenge bits, repetition) cell and arranged at the end.
    """
    cells: dict[tuple[str, bytes, int], np.ndarray] = {}
    challenges: dict[bytes, np.ndarray] = {}  # first-seen order
    n_bits = None
    with kvfile.open_text(path) as handle:
        lines = enumerate(handle, 1)
        header = kvfile.read(handle, _CRP_HEADER, marker=CRP_COLUMNS, lines=lines)
        stages = header["# netlist"].stages
        for number, raw in lines:
            line = raw.strip()
            if not line:
                continue
            try:
                fields = line.split(",")
                if len(fields) != 5:
                    raise ValueError(f"expected {CRP_COLUMNS}, got {line!r}")
                device_id, chal_hex, rep_text, resp_hex, length = fields
                _check_device_id(device_id)
                rep = _decimal_to_int(rep_text, "repetition")
                bits = _decimal_to_int(length, "response_bits_len")
                if bits == 0:
                    raise ValueError("response_bits_len must be positive")
                n_bits = bits if n_bits is None else n_bits
                if bits != n_bits:
                    raise ValueError(f"record is not {n_bits} bits long")
                response = hex_to_bits(resp_hex, n_bits)
                challenge = hex_to_bits(chal_hex, stages)
                cell = (device_id, challenge.tobytes(), rep)
                if cell in cells:
                    raise ValueError(f"duplicate record for ({device_id}, {chal_hex}, {rep})")
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
            cells[cell] = response
            challenges.setdefault(challenge.tobytes(), challenge)
    if not cells:
        raise ValueError(f"no CRP records in {path}")
    device_ids = sorted({device_id for device_id, _, _ in cells})
    repetitions = max(rep for _, _, rep in cells) + 1
    if len(cells) != len(device_ids) * len(challenges) * repetitions:
        raise ValueError(f"{path}: missing (device, challenge, repetition) records")
    responses = [
        [[cells[device_id, key, rep] for rep in range(repetitions)] for key in challenges]
        for device_id in device_ids
    ]
    return _crp_set(header, device_ids, np.stack(list(challenges.values())), np.array(responses, dtype=np.uint8))
