"""Challenge expansion, response evaluation and CRP dataset handling.

A single chain evaluation yields one response bit, so multi-bit responses
are built by expanding a seed challenge through a maximal-length Fibonacci
LFSR and concatenating the bits of the expanded sequence.
"""

from __future__ import annotations

import functools
import io
import math
import string
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kvfile
from .bch import as_bits
from .circuit import propagate_blocks
from .device import DelayParams, DeviceInstance
from .netlist import Netlist
from .seeds import SEED_MASK, derive_seed

RESPONSE_SIZES = (8, 16, 32, 64, 128)

# Maximal-length Fibonacci tap sets (1-based positions into the state
# vector; feedback = XOR of the tapped bits, shifted in at index 0).  The
# small widths use the classic minimal-tap sets.  The experiment widths
# (16/32/64/128) use dense primitive feedback polynomials of weight about
# w/2: a dense recurrence diffuses a single-bit seed difference across the
# whole register within a few steps, so responses to neighboring seed
# challenges decorrelate quickly along the expansion.  Sparse feedback
# keeps the expanded sequences nearly identical for tens of steps, which
# visibly skews the neighbor-challenge Hamming-distance statistics.
# Primitivity (hence the full 2^w - 1 cycle) is verified by the test
# suite: exhaustively for widths <= 16, by polynomial order checks beyond.
LFSR_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    16: (16, 14, 12, 11, 7, 6, 4, 3),
    32: (32, 31, 30, 29, 28, 26, 25, 22, 21, 19, 18, 12, 11, 8, 4, 3),
    64: (64, 62, 61, 59, 51, 50, 49, 48, 46, 45, 43, 37, 35, 34, 31, 30,
         29, 28, 27, 26, 23, 22, 20, 17, 16, 15, 14, 10, 9, 8, 4, 1),
    128: (128, 124, 123, 120, 117, 116, 115, 114, 113, 111, 110, 108, 106,
          104, 99, 93, 90, 87, 85, 84, 83, 81, 80, 79, 78, 75, 74, 72, 71,
          68, 67, 65, 64, 63, 62, 61, 58, 54, 49, 48, 42, 41, 39, 38, 37,
          35, 33, 30, 29, 28, 27, 26, 24, 20, 18, 17, 16, 15, 13, 11, 7,
          6, 2, 1),
}

_CHALLENGE_TAG = 0x6368616C  # "chal"


def lfsr_taps(width: int) -> tuple[int, ...]:
    if width not in LFSR_TAPS:
        raise ValueError(f"no registered LFSR tap set for width {width}")
    return LFSR_TAPS[width]


def lfsr_stride(width: int) -> int:
    """Clocks between emitted challenges: the register is refreshed in full.

    The smallest stride >= width that is coprime to the period 2^w - 1, so
    the emitted states stay pairwise distinct for a full period.
    """
    period = (1 << width) - 1
    stride = width
    while math.gcd(stride, period) != 1:
        stride += 1
    return stride


# Target size of one row block of the expansion, in challenge bits.  From
# 8 stages up it bounds the block's buffers: its unpacked bits, (rows,
# count, width) uint8, to 256 KB; its packed states to 32 KB; and a
# doubling round's table indices to 128 KB and gathered table rows to
# 128 KB per 64-bit word of state (256 KB at 128 stages).
EXPAND_BLOCK_VALUES = 1 << 18


def _expand_block_rows(count: int, width: int) -> int:
    """Seeds in one row block of ``expand_many``: at least one."""
    return max(1, EXPAND_BLOCK_VALUES // (count * width))


@functools.lru_cache(maxsize=128)
def _jump_matrix(width: int, doublings: int) -> np.ndarray:
    """J^(2^doublings) over GF(2), read-only uint8 (width, width) of 0/1.

    J = M^stride, where M is the companion matrix of one clock acting on a
    row state (``state @ M`` shifts the register and feeds the XOR of the
    taps into bit 0), so ``seed @ J^j (mod 2)`` is emitted challenge j.
    Products are uint8 and keep only their low bit: a sum that wraps
    modulo 256 keeps its parity, so every product is exact.
    """
    if doublings:
        half = _jump_matrix(width, doublings - 1)
        jump = (half @ half) & 1
    else:
        power = np.eye(width, k=1, dtype=np.uint8)  # column i + 1 copies bit i
        power[np.array(lfsr_taps(width)) - 1, 0] = 1  # column 0 is the feedback
        jump = np.eye(width, dtype=np.uint8)
        exponent = lfsr_stride(width)
        while exponent:
            if exponent & 1:
                jump = (jump @ power) & 1
            power = (power @ power) & 1
            exponent >>= 1
    jump.setflags(write=False)
    return jump


@functools.lru_cache(maxsize=128)
def _jump_table(width: int, doublings: int) -> np.ndarray:
    """``_jump_matrix(width, doublings)`` as byte tables, read-only
    (ceil(width / 8) * 256, ceil(width / 64)) little-endian uint64.

    A state is packed little-endian, bit i at bit i % 8 of byte i // 8, in
    64-bit words.  Row 256 * k + v is the packed image of the state whose
    byte k is v and whose other bytes are 0, so the image of any state is
    the XOR of one row per byte.
    """
    n_bytes, words = -(-width // 8), -(-width // 64)
    rows = np.zeros((8 * n_bytes, 64 * words), dtype=np.uint8)
    rows[:width, :width] = _jump_matrix(width, doublings)
    images = np.packbits(rows, axis=1, bitorder="little").view("<u8")  # image of bit i, (8 * n_bytes, words)
    table = np.zeros((n_bytes, 256, words), dtype="<u8")
    for bit in range(8):  # values with top bit `bit` add its image to the values below
        table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ images[bit::8, None]
    table = table.reshape(-1, words)
    table.setflags(write=False)
    return table


def expand_many(seed_challenges: np.ndarray, count: int) -> np.ndarray:
    """Expand each seed row into its LFSR challenge sequence; (C, count, width).

    Element 0 of every sequence is the seed itself; consecutive elements are
    ``lfsr_stride(width)`` clocks apart, so even neighboring seeds yield
    well-mixed sequences.  All elements of one sequence are pairwise
    distinct while count <= 2^width - 1.

    Expansion is linear over GF(2): element j is ``seed @ J^j (mod 2)`` with
    J the stride-clock jump matrix.  Row blocks of ``_expand_block_rows``
    seeds are filled by doubling: elements [k, 2k) are elements [0, k) times
    J^k, so a block takes ceil(log2 count) rounds and no register clocks.
    States stay packed in 64-bit words through the rounds; a round maps
    every state through ``_jump_table`` with one gather of a row per state
    byte and one XOR reduction, and each block is unpacked into the result
    once.  The result is bit-identical to clocking the register.  Seeds
    must hold only 0 and 1 and must not be all zero; anything else is a
    ``ValueError``.
    """
    if count < 1:
        raise ValueError(f"expansion count must be >= 1, got {count}")
    states = np.atleast_2d(as_bits(seed_challenges, "seed challenges"))
    width = states.shape[1]
    lfsr_taps(width)  # rejects widths without a tap set
    if not states.any(axis=1).all():
        raise ValueError("all-zero seed challenge is a fixed point of the LFSR expansion")
    n_bytes, words = -(-width // 8), -(-width // 64)
    byte_rows = np.arange(0, 256 * n_bytes, 256, dtype=np.intp)[:, None]  # first table row of each state byte
    out = np.empty((states.shape[0], count, width), dtype=np.uint8)
    block_rows = _expand_block_rows(count, width)
    for start in range(0, states.shape[0], block_rows):
        block = states[start : start + block_rows]
        rows = block.shape[0]
        # Element j of seed r sits in row j * rows + r, so each doubling
        # round reads and writes one contiguous slab.
        buf = np.zeros((count * rows, words), dtype="<u8")
        buf[:rows].view(np.uint8)[:, :n_bytes] = np.packbits(block, axis=1, bitorder="little")
        done, doublings = 1, 0
        while done < count:
            size = min(done, count - done) * rows
            state_bytes = buf[:size].view(np.uint8)[:, :n_bytes].T
            images = _jump_table(width, doublings).take(state_bytes + byte_rows, axis=0)
            np.bitwise_xor.reduce(images, axis=0, out=buf[done * rows : done * rows + size])
            done, doublings = 2 * done, doublings + 1
        packed = buf.view(np.uint8).reshape(count, rows, 8 * words)[:, :, :n_bytes].transpose(1, 0, 2)
        out[start : start + rows] = np.unpackbits(packed, axis=-1, count=width, bitorder="little")
    return out


def expand_challenge(seed_challenge: np.ndarray, count: int) -> np.ndarray:
    """Expand one seed challenge into ``count`` challenges, (count, width)."""
    return expand_many(np.asarray(seed_challenge)[None, :], count)[0]


def majority_vote(responses) -> np.ndarray:
    """Bitwise majority over an odd number of equal-length responses.

    A response holding anything but 0 and 1 is a ``ValueError``.
    """
    votes = as_bits(responses, "responses")
    if votes.ndim != 2:
        raise ValueError("expected a list of equal-length responses")
    if votes.shape[0] % 2 == 0:
        raise ValueError(f"majority vote needs an odd count, got {votes.shape[0]}")
    return (votes.sum(axis=0) * 2 > votes.shape[0]).astype(np.uint8)


def random_seed_challenges(width: int, count: int, seed: int) -> np.ndarray:
    """Uniform non-zero, pairwise-distinct seed challenges, (count, width).

    Distinctness keeps (device, seed challenge, repetition) a unique record
    key, which the CRP file format relies on.  Candidate rows are drawn in
    batches, and zero and repeated rows are skipped in stream order.  Each
    bit takes one byte of a 32-bit word, and a call drops its last word's
    leftover bytes, so rows padded to 4*ceil(width/4) bytes read the stream
    as one ``integers`` call per row of ``width`` bits would.
    """
    if count > (1 << width) - 1:
        raise ValueError(f"cannot draw {count} distinct non-zero seeds of width {width}")
    rng = np.random.default_rng([seed & SEED_MASK, _CHALLENGE_TAG])
    zero = bytes(width)
    seen: set[bytes] = set()
    out = np.empty((count, width), dtype=np.uint8)
    filled = 0
    while filled < count:
        for row in rng.integers(0, 2, size=(count - filled, -(-width // 4) * 4), dtype=np.uint8)[:, :width]:
            key = row.tobytes()
            if key != zero and key not in seen:
                seen.add(key)
                out[filled] = row
                filled += 1
    return out


def neighbor_seed_challenges(width: int, count: int, seed: int) -> np.ndarray:
    """A self-avoiding chain of seed challenges, consecutive rows one bit apart.

    Revisits are rejected (a plain random flip walk returns to an earlier
    state every ~width steps), so rows stay pairwise distinct and usable as
    record keys.
    """
    rng = np.random.default_rng([seed & SEED_MASK, _CHALLENGE_TAG])
    out = np.empty((count, width), dtype=np.uint8)
    state = rng.integers(0, 2, size=width, dtype=np.uint8)
    if not state.any():
        state[int(rng.integers(width))] = 1
    out[0] = state
    seen = {state.tobytes()}
    for i in range(1, count):
        for _ in range(64 * width):
            flip = int(rng.integers(width))
            candidate = out[i - 1].copy()
            candidate[flip] ^= 1
            if candidate.any() and candidate.tobytes() not in seen:
                break
        else:
            raise ValueError(f"self-avoiding neighbor chain stuck after {i} of {count} steps")
        seen.add(candidate.tobytes())
        out[i] = candidate
    return out


def _check_device_id(device_id: str) -> None:
    """A device id is one field of a CRP record: an empty id, or one that
    holds a comma, a CR or an LF, is a ``ValueError``."""
    if not device_id or any(mark in device_id for mark in ",\r\n"):
        raise ValueError(f"device id {device_id!r} must be non-empty and hold no comma, CR or LF")


@dataclass
class CrpSet:
    """Challenge-response records for a device population.

    ``responses`` has shape (devices, challenges, repetitions, bits); row
    (d, c, r) is the response of device d to seed challenge c on repeated
    evaluation r.  A set is a pure function of (population seeds, params,
    master_eval_seed, challenge_mode).  A device id is one field of a CRP
    record, so an empty id, or one that holds a comma, a CR or an LF, is a
    ``ValueError``.
    """

    device_ids: list[str]
    challenges: np.ndarray  # (C, stages) seed challenges
    responses: np.ndarray  # (D, C, R, n)
    netlist: Netlist
    params: DelayParams
    master_eval_seed: int
    challenge_mode: str = "random"
    extra_header: dict = field(default_factory=dict)

    def __post_init__(self):
        for device_id in self.device_ids:
            _check_device_id(device_id)
        d, c, _, _ = self.responses.shape
        if d != len(self.device_ids):
            raise ValueError("device_ids do not match response array")
        if c != self.challenges.shape[0]:
            raise ValueError("challenges do not match response array")

    @property
    def n_devices(self) -> int:
        return self.responses.shape[0]

    @property
    def n_challenges(self) -> int:
        return self.responses.shape[1]

    @property
    def repetitions(self) -> int:
        return self.responses.shape[2]

    @property
    def response_size(self) -> int:
        return self.responses.shape[3]

    @functools.cached_property
    def _packed_expanded_challenges(self) -> np.ndarray:
        """Every seed challenge expanded, (C*n, stages) bits packed 8 to a byte."""
        expanded = expand_many(self.challenges, self.response_size).reshape(-1, self.netlist.stages)
        return np.packbits(expanded, axis=-1)

    def flat_crps(self) -> tuple[np.ndarray, np.ndarray]:
        """Single-bit (challenge, response) pairs of the first device's first read.

        Pairs expanded challenge i with response bit i; shapes
        ((C*n, stages), (C*n,)).  The expansion is kept packed, an eighth
        of its unpacked size: ``collect_crps`` hands over the one it read
        the responses with, and any other set expands its challenges once,
        on the first call.
        """
        x = np.unpackbits(self._packed_expanded_challenges, axis=-1, count=self.netlist.stages)
        y = self.responses[0, :, 0, :].reshape(-1)
        return x, y


def check_response_size(size: int) -> None:
    """A size outside RESPONSE_SIZES is a ``ValueError``."""
    if size not in RESPONSE_SIZES:
        raise ValueError(f"response size must be one of {RESPONSE_SIZES}, got {size}")


def collect_crps(
    population: list[DeviceInstance],
    num_challenges: int,
    repetitions: int,
    response_size: int,
    master_eval_seed: int,
    challenge_mode: str = "random",
) -> CrpSet:
    """Evaluate every (device, seed challenge, repetition) combination.

    Seed challenges are drawn from master_eval_seed; each (device,
    repetition) pair evaluates under its own derived seed, so the full
    record set is reproducible bit for bit.  The whole population is read
    in one pass of ``circuit.propagate_blocks`` over row blocks of whole
    seed challenges, whatever its netlist: the closed-form kernel for
    tapless chains, its segments between taps for feed-forward ones.  The
    devices must share one netlist and parameter set, which
    ``propagate_blocks`` checks.
    """
    if not population:
        raise ValueError("population must not be empty")
    if num_challenges < 1 or repetitions < 1:
        raise ValueError("challenge and repetition counts must be >= 1")
    check_response_size(response_size)
    netlist = population[0].netlist
    params = population[0].params

    width = netlist.stages
    if challenge_mode == "random":
        seeds = random_seed_challenges(width, num_challenges, master_eval_seed)
    elif challenge_mode == "neighbor":
        seeds = neighbor_seed_challenges(width, num_challenges, master_eval_seed)
    else:
        raise ValueError(f"unknown challenge mode {challenge_mode!r}")

    expanded = expand_many(seeds, response_size).reshape(-1, width)
    responses = np.empty(
        (len(population), num_challenges, repetitions, response_size), dtype=np.uint8
    )
    eval_seeds = [
        [derive_seed(master_eval_seed, "crp-eval", device.device_id, r) for r in range(repetitions)]
        for device in population
    ]
    # One pass over whole seed challenges for every netlist: the devices and
    # repetitions of a block share its challenge bits.
    for rows, bits in propagate_blocks(population, expanded, eval_seeds, block_multiple=response_size):
        block = slice(rows.start // response_size, rows.stop // response_size)
        responses[:, block] = bits.reshape(
            len(population), repetitions, -1, response_size
        ).transpose(0, 2, 1, 3)
    crps = CrpSet(
        device_ids=[dev.device_id for dev in population],
        challenges=seeds,
        responses=responses,
        netlist=netlist,
        params=params,
        master_eval_seed=int(master_eval_seed),
        challenge_mode=challenge_mode,
    )
    # flat_crps reads this expansion instead of running expand_many again.
    crps._packed_expanded_challenges = np.packbits(expanded, axis=-1)
    return crps


# ---------------------------------------------------------------------------
# bit packing and the CRP file format (shared with hardware dumps)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit vector MSB first: bit 0 is the top bit of the first nibble."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes().hex()

def hex_to_bits(text: str, n_bits: int) -> np.ndarray:
    """Inverse of ``bits_to_hex``: exactly the hex digits of ceil(n_bits / 8) bytes.

    The padding bits after the first ``n_bits`` must be 0, as ``bits_to_hex``
    writes them.
    """
    digits = 2 * ((n_bits + 7) // 8)
    if len(text) != digits or not all(c in string.hexdigits for c in text):
        raise ValueError(f"expected {digits} hex digits for {n_bits} bits, got {text!r}")
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))
    if bits[n_bits:].any():
        raise ValueError(f"nonzero padding bits after bit {n_bits} in {text!r}")
    return bits[:n_bits]


# Longest repetition or response_bits_len field; every such number fits int64.
MAX_DECIMAL_DIGITS = 18


def _decimal_to_int(text: str, name: str) -> int:
    """A count written as 1 to MAX_DECIMAL_DIGITS ASCII decimal digits."""
    if not (0 < len(text) <= MAX_DECIMAL_DIGITS and text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be 1 to {MAX_DECIMAL_DIGITS} decimal digits, got {text!r}")
    return int(text)


CRP_COLUMNS = "device_id,challenge_hex,repetition,response_hex,response_bits_len"

_CRP_HEADER = {
    "# netlist": Netlist.parse,
    "# params": DelayParams.parse,
    "# master_eval_seed": (int, 0),
    "# challenge_mode": (str, "random"),
    "# config": (str, None),
}


def _crp_set(header: dict, device_ids: list[str], challenges: np.ndarray, responses: np.ndarray) -> CrpSet:
    """The CrpSet of a checked CRP-file header and its parsed records."""
    return CrpSet(
        device_ids=device_ids,
        challenges=challenges,
        responses=responses,
        netlist=header["# netlist"],
        params=header["# params"],
        master_eval_seed=header["# master_eval_seed"],
        challenge_mode=header["# challenge_mode"],
        extra_header={} if header["# config"] is None else {"config": header["# config"]},
    )


def _hex_digits(bits: np.ndarray) -> np.ndarray:
    """ASCII hex digits of every row of a bit array, (..., 2 * ceil(n / 8)) uint8,
    as ``bits_to_hex`` writes them: one ``np.packbits`` and one ``.hex()``."""
    text = np.packbits(bits, axis=-1).tobytes().hex().encode()
    return np.frombuffer(text, dtype=np.uint8).reshape(*bits.shape[:-1], -1)


def save_crps(crps: CrpSet, path) -> None:
    """Write one record per (device, challenge, repetition), in that order.

    The header goes through ``kvfile.write``, which then writes each
    device's records as soon as they are built: a byte matrix with one row
    per challenge holding its R records side by side, the hex columns of
    ``_hex_digits`` between constant columns (device id, repetition, size,
    separators).  So the text held at once is one device's, not the
    file's.  A set with no records is a ``ValueError``, and nothing is
    written.
    """
    if not crps.responses.size:
        raise ValueError(f"no CRP records to save: responses have shape {crps.responses.shape}")
    header = {
        **crps.extra_header,
        "netlist": crps.netlist.describe(),
        "params": ";".join(f"{key}={value}" for key, value in crps.params.fields().items()),
        "lfsr": f"width={crps.netlist.stages};taps={','.join(map(str, lfsr_taps(crps.netlist.stages)))}",
        "bitorder": "msb-first (bit 0 = top bit of the first hex nibble)",
        "challenge_mode": crps.challenge_mode,
        "master_eval_seed": crps.master_eval_seed,
    }
    chal_hex = _hex_digits(crps.challenges)

    def constant(text: str) -> np.ndarray:
        encoded = np.frombuffer(text.encode(), dtype=np.uint8)
        return np.broadcast_to(encoded, (crps.n_challenges, encoded.size))

    def device_blocks():
        for device_id, responses in zip(crps.device_ids, crps.responses):
            resp_hex = _hex_digits(responses)
            columns = []
            for r in range(crps.repetitions):
                columns += [constant(f"{device_id},"), chal_hex, constant(f",{r},"), resp_hex[:, r],
                            constant(f",{crps.response_size}\n")]
            yield np.hstack(columns).ravel()[:-1].tobytes().decode()  # kvfile ends the block's last line

    kvfile.write(path, "crp", {}, header, marker=CRP_COLUMNS, table=device_blocks())


# Value of every byte as a hex digit; 16 marks a byte that is not one.
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789abcdefABCDEF", dtype=np.uint8)] = [*range(16), *range(10, 16)]


# The ASCII characters that ``str.strip`` removes.
_SPACE = np.array([chr(byte).isspace() for byte in range(256)]) & (np.arange(256) < 128)


def _decimal_columns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Values of the fields buf[starts:ends] and which of them ``_decimal_to_int`` accepts.

    One pass per digit position, at most MAX_DECIMAL_DIGITS, over all fields.
    """
    widths = ends - starts
    ok = (widths > 0) & (widths <= MAX_DECIMAL_DIGITS)
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(widths[ok].max(initial=0))):
        inside = k < widths
        digit = buf[np.minimum(starts + k, buf.size - 1)] - np.uint8(ord("0"))  # wraps above 9
        ok &= ~inside | (digit <= 9)
        values = np.where(inside, values * 10 + digit, values)
    return values, ok


def _hex_columns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, n_bits: int):
    """Bytes of the fields buf[starts:ends], (N, ceil(n_bits / 8)), and which of
    them ``hex_to_bits`` accepts; the bytes are None when it accepts none."""
    n_bytes = (n_bits + 7) // 8
    ok = ends - starts == 2 * n_bytes
    if not ok.any():
        return None, ok
    digits = _HEX_VALUE[sliding_window_view(buf, 2 * n_bytes)[np.where(ok, starts, 0)]]
    if digits.max() > 15:
        ok &= digits.max(axis=1) < 16
    packed = digits[:, 0::2] << 4 | digits[:, 1::2]
    ok &= (packed[:, -1] & ((1 << (8 * n_bytes - n_bits)) - 1)) == 0
    return packed, ok


def _first_seen_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of a (N, k) uint8 array, in
    first-seen order, and each row's index among them."""
    _, first, group = np.unique(rows.view(f"S{rows.shape[1]}").ravel(), return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty(seen.size, dtype=np.intp)
    rank[seen] = np.arange(seen.size)
    return first[seen], rank[group]


def _device_groups(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct device ids buf[starts:ends], sorted, and each field's index among them.

    Fields are compared as their zero-padded bytes followed by their length,
    so an id ending in NUL stays apart from the same id without it.  A
    window that runs past the end of ``buf`` is cut from a zero-padded copy
    of its last ``width`` bytes only.
    """
    widths = ends - starts
    width = int(widths.max())
    last = buf.size - width
    past = starts > last
    rows = sliding_window_view(buf, width)[np.minimum(starts, last)]
    rows[past] = sliding_window_view(np.append(buf[last:], np.zeros(width, np.uint8)), width)[starts[past] - last]
    rows[np.arange(width) >= widths[:, None]] = 0
    first, group = _first_seen_groups(np.hstack([rows, widths.astype(">u4").view(np.uint8).reshape(-1, 4)]))
    names = [buf[starts[j] : ends[j]].tobytes().decode() for j in first]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    return [names[i] for i in order], rank[group]


def _rule_error(rule, *args) -> str:
    """The message of the ``ValueError`` that ``rule(*args)`` raises."""
    try:
        rule(*args)
    except ValueError as exc:
        return str(exc)
    raise RuntimeError(f"a column check and {rule.__name__}{args!r} disagree")


def _stripped(text: str) -> bytes:
    """``text`` with every line stripped as ``str.strip`` does, as UTF-8."""
    return "\n".join(map(str.strip, text.split("\n"))).encode()


def _parse_records(path, table, first_line: int, stages: int):
    """Device ids, challenges and (D, C, R, n) responses of a CRP record table.

    ``table`` is the table's bytes, lines ending in LF, whose first line is
    line ``first_line`` of the file.  Lines are stripped as ``str.strip``
    does: a table whose lines start or end in ASCII whitespace goes through
    ``_stripped`` first, and other text is the caller's to strip.  Line and
    comma positions come from ``np.flatnonzero`` over the byte buffer, and
    every field is checked and decoded as a column; a column's positions
    are dropped once it is read.  The checks run in the order a record is
    read; each looks only at the records before the first failure so far,
    so the failure reported is that of the first bad record, as a
    line-by-line reader finds it.
    """

    def lines(table):
        buf = np.frombuffer(table, dtype=np.uint8)
        breaks = np.flatnonzero(buf == ord("\n"))
        return buf, np.append(0, breaks + 1), np.append(breaks, buf.size)

    buf, starts, ends = lines(table)
    nonblank = np.flatnonzero(ends > starts)
    if _SPACE[buf[starts[nonblank]]].any() or _SPACE[buf[ends[nonblank] - 1]].any():
        buf, starts, ends = lines(_stripped(bytes(table).decode()))
        nonblank = np.flatnonzero(ends > starts)
    if not nonblank.size:
        raise ValueError(f"no CRP records in {path}")
    starts, ends = starts[nonblank], ends[nonblank]
    del nonblank
    commas = np.flatnonzero(buf == ord(","))
    first_comma = np.searchsorted(commas, starts)
    n, failure = starts.size, ""  # records before the first failing one, and its error

    def check(bad: np.ndarray, describe) -> None:
        nonlocal n, failure
        hit = np.flatnonzero(bad[:n])
        if hit.size:
            n, failure = int(hit[0]), describe(int(hit[0]))
        if failure and n == 0:
            raise ValueError(f"{path}, line {line_of(0)}: {failure}")

    def line_of(j: int) -> int:
        return first_line + int(np.count_nonzero(buf[: seps[0][j] + 1] == ord("\n")))

    seps = [starts - 1, ends]  # record j is buf[seps[0][j] + 1 : seps[-1][j]]
    check(np.searchsorted(commas, ends) - first_comma != 4,
          lambda j: f"expected {CRP_COLUMNS}, got {buf[starts[j] : ends[j]].tobytes().decode()!r}")
    # Field k of record j is buf[seps[k][j] + 1 : seps[k + 1][j]].
    seps[1:1] = [commas[first_comma[:n] + k] for k in range(4)]
    del starts, ends, commas, first_comma

    def field(j: int, k: int) -> str:
        return buf[seps[k][j] + 1 : seps[k + 1][j]].tobytes().decode()

    def column(k: int) -> tuple[np.ndarray, np.ndarray]:
        return seps[k][:n] + 1, seps[k + 1][:n]

    # a field holds no comma or line break, so only an empty id is bad here
    check(np.equal(*column(0)), lambda j: _rule_error(_check_device_id, field(j, 0)))
    reps, ok = _decimal_columns(buf, *column(2))
    check(~ok, lambda j: _rule_error(_decimal_to_int, field(j, 2), "repetition"))
    sizes, ok = _decimal_columns(buf, *column(4))
    check(~ok, lambda j: _rule_error(_decimal_to_int, field(j, 4), "response_bits_len"))
    check(sizes == 0, lambda j: "response_bits_len must be positive")
    n_bits = int(sizes[0])
    check(sizes != n_bits, lambda j: f"record is not {n_bits} bits long")
    del sizes
    packed, ok = _hex_columns(buf, *column(3), n_bits)
    check(~ok, lambda j: _rule_error(hex_to_bits, field(j, 3), n_bits))
    del seps[3:]
    chal_bytes, ok = _hex_columns(buf, *column(1), stages)
    check(~ok, lambda j: _rule_error(hex_to_bits, field(j, 1), stages))

    device_ids, device = _device_groups(buf, *column(0))
    first, chal = _first_seen_groups(chal_bytes[:n])
    pair = device * first.size + chal
    del device, chal
    reps = reps[:n]
    # Cell order; a stable sort keeps an earlier record ahead of its duplicates.
    order = np.lexsort((reps, pair))
    duplicate = np.zeros(n, dtype=bool)
    duplicate[order[1:][(np.diff(pair[order]) == 0) & (np.diff(reps[order]) == 0)]] = True
    check(duplicate, lambda j: f"duplicate record for ({field(j, 0)}, {field(j, 1)}, {reps[j]})")
    if failure:
        raise ValueError(f"{path}, line {line_of(n)}: {failure}")
    del seps, pair, duplicate
    shape = (len(device_ids), first.size, int(reps.max()) + 1)
    if math.prod(shape) != n:
        raise ValueError(f"{path}: missing (device, challenge, repetition) records")
    challenges = np.unpackbits(chal_bytes[first], axis=1, count=stages)
    packed = packed[order]
    del order
    responses = np.unpackbits(packed, axis=1, count=n_bits).reshape(*shape, n_bits)
    return device_ids, challenges, responses


def load_crps(path) -> CrpSet:
    """Read a CRP file written by ``save_crps`` (or a hardware dump in its format).

    Lines are stripped and blank ones skipped; records may come in any
    order.  A record is device_id,challenge_hex,repetition,response_hex,
    response_bits_len: both hex fields hold exactly the hex digits of their
    bytes with zero padding bits, as ``hex_to_bits`` requires, and both
    counts are 1 to MAX_DECIMAL_DIGITS ASCII decimal digits.  Device ids
    come out sorted and challenges in first-seen order.  Every (device,
    challenge, repetition) cell must appear exactly once.  A bad record is a
    ``ValueError`` naming the file and its line, counting blank lines.

    The file is read as bytes.  An ASCII file with LF line ends, as
    ``save_crps`` writes, has its header read by ``kvfile.read`` and its
    table parsed from those bytes as whole columns (``_parse_records``),
    with no copy as text.  Any other file, one with a CR or a byte above
    0x7f, is read again as text through ``kvfile.open_text``, as the other
    papuf files are, and its lines are stripped before parsing.
    ``oracle.reference_load_crps`` is the line-by-line reference.
    """
    with open(path, "rb") as handle:
        data = handle.read()
        if data.isascii() and b"\r" not in data:
            stream = io.BytesIO(data)
            numbered = ((number, line.decode()) for number, line in enumerate(stream, 1))
            header = kvfile.read(handle, _CRP_HEADER, marker=CRP_COLUMNS, lines=numbered)
            start = stream.tell()
            table, first_line = memoryview(data)[start:], 1 + data.count(b"\n", 0, start)
            return _crp_set(header, *_parse_records(path, table, first_line, header["# netlist"].stages))
    with kvfile.open_text(path) as handle:
        numbered = enumerate(handle, 1)
        header = kvfile.read(handle, _CRP_HEADER, marker=CRP_COLUMNS, lines=numbered)
        first_line, text = next(numbered, (0, ""))
        text += handle.read()
    return _crp_set(header, *_parse_records(path, _stripped(text), first_line, header["# netlist"].stages))
