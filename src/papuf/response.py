"""Challenge expansion, response evaluation and CRP dataset handling.

A single chain evaluation yields one response bit, so multi-bit responses
are built by expanding a seed challenge through a maximal-length Fibonacci
LFSR and concatenating the bits of the expanded sequence.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import kvfile
from .circuit import propagate_blocks, propagate_many
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


def expand_many(seed_challenges: np.ndarray, count: int) -> np.ndarray:
    """Expand each seed row into its LFSR challenge sequence; (C, count, width).

    Element 0 of every sequence is the seed itself; the register is then
    clocked ``lfsr_stride(width)`` times per emitted challenge, so even
    neighboring seeds yield well-mixed sequences.  All elements of one
    sequence are pairwise distinct while count <= 2^width - 1.
    """
    if count < 1:
        raise ValueError(f"expansion count must be >= 1, got {count}")
    states = np.ascontiguousarray(np.atleast_2d(seed_challenges), dtype=np.uint8)
    width = states.shape[1]
    taps = np.array(lfsr_taps(width)) - 1
    if not states.any(axis=1).all():
        raise ValueError("all-zero seed challenge is a fixed point of the LFSR expansion")
    stride = lfsr_stride(width)
    out = np.empty((states.shape[0], count, width), dtype=np.uint8)
    out[:, 0] = states
    state = states.copy()
    for j in range(1, count):
        for _ in range(stride):
            feedback = np.bitwise_xor.reduce(state[:, taps], axis=1)
            state[:, 1:] = state[:, :-1]
            state[:, 0] = feedback
        out[:, j] = state
    return out


def expand_challenge(seed_challenge: np.ndarray, count: int) -> np.ndarray:
    """Expand one seed challenge into ``count`` challenges, (count, width)."""
    return expand_many(np.asarray(seed_challenge)[None, :], count)[0]


def evaluate_response(
    device: DeviceInstance,
    seed_challenge: np.ndarray,
    response_size: int,
    eval_seed: int = 0,
) -> np.ndarray:
    """One multi-bit response: bit i answers the i-th expanded challenge."""
    if response_size not in RESPONSE_SIZES:
        raise ValueError(f"response size must be one of {RESPONSE_SIZES}, got {response_size}")
    expanded = expand_challenge(seed_challenge, response_size)
    return propagate_many(device, expanded, eval_seed)


def majority_vote(responses) -> np.ndarray:
    """Bitwise majority over an odd number of equal-length responses."""
    votes = np.asarray(responses, dtype=np.uint8)
    if votes.ndim != 2:
        raise ValueError("expected a list of equal-length responses")
    if votes.shape[0] % 2 == 0:
        raise ValueError(f"majority vote needs an odd count, got {votes.shape[0]}")
    return (votes.sum(axis=0) * 2 > votes.shape[0]).astype(np.uint8)


def random_seed_challenges(width: int, count: int, seed: int) -> np.ndarray:
    """Uniform non-zero, pairwise-distinct seed challenges, (count, width).

    Distinctness keeps (device, seed challenge, repetition) a unique record
    key, which the CRP file format relies on.
    """
    if count > (1 << width) - 1:
        raise ValueError(f"cannot draw {count} distinct non-zero seeds of width {width}")
    rng = np.random.default_rng([seed & SEED_MASK, _CHALLENGE_TAG])
    seen: set[bytes] = set()
    out = np.empty((count, width), dtype=np.uint8)
    filled = 0
    while filled < count:
        row = rng.integers(0, 2, size=width, dtype=np.uint8)
        key = row.tobytes()
        if not row.any() or key in seen:
            continue
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


@dataclass
class CrpSet:
    """Challenge-response records for a device population.

    ``responses`` has shape (devices, challenges, repetitions, bits); row
    (d, c, r) is the response of device d to seed challenge c on repeated
    evaluation r.  A set is a pure function of (population seeds, params,
    master_eval_seed, challenge_mode).
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

    def flat_crps(self, device_index: int = 0, repetition: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Single-bit (challenge, response) pairs for one device.

        Expands every seed challenge and pairs expanded challenge i with
        response bit i; shapes ((C*n, stages), (C*n,)).
        """
        expanded = expand_many(self.challenges, self.response_size)
        x = expanded.reshape(-1, self.netlist.stages)
        y = self.responses[device_index, :, repetition, :].reshape(-1)
        return x, y


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
    record set is reproducible bit for bit.  Tapless populations are read
    in one pass over row blocks of the closed-form kernel; feed-forward
    ones make one ``propagate_many`` call per (device, repetition).
    """
    if not population:
        raise ValueError("population must not be empty")
    if num_challenges < 1 or repetitions < 1:
        raise ValueError("challenge and repetition counts must be >= 1")
    if response_size not in RESPONSE_SIZES:
        raise ValueError(f"response size must be one of {RESPONSE_SIZES}, got {response_size}")
    netlist = population[0].netlist
    params = population[0].params
    for dev in population[1:]:
        if dev.netlist != netlist or dev.params != params:
            raise ValueError("population devices must share one netlist and parameter set")

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
    if netlist.ff_taps:
        for d, device in enumerate(population):
            for r in range(repetitions):
                bits = propagate_many(device, expanded, eval_seeds[d][r])
                responses[d, :, r, :] = bits.reshape(num_challenges, response_size)
    else:
        # One pass over whole seed challenges: every device and repetition
        # shares the stage codes of a block.
        for rows, bits in propagate_blocks(population, expanded, eval_seeds, block_multiple=response_size):
            block = slice(rows.start // response_size, rows.stop // response_size)
            responses[:, block] = bits.reshape(
                len(population), repetitions, -1, response_size
            ).transpose(0, 2, 1, 3)
    return CrpSet(
        device_ids=[dev.device_id for dev in population],
        challenges=seeds,
        responses=responses,
        netlist=netlist,
        params=params,
        master_eval_seed=int(master_eval_seed),
        challenge_mode=challenge_mode,
    )


# ---------------------------------------------------------------------------
# bit packing and the CRP file format (shared with hardware dumps)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit vector MSB first: bit 0 is the top bit of the first nibble."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes().hex()

def hex_to_bits(text: str, n_bits: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw)[:n_bits]


CRP_COLUMNS = "device_id,challenge_hex,repetition,response_hex,response_bits_len"


def save_crps(crps: CrpSet, path) -> None:
    header = {
        **crps.extra_header,
        "netlist": crps.netlist.describe(),
        "params": ";".join(f"{key}={value}" for key, value in crps.params.fields().items()),
        "lfsr": f"width={crps.netlist.stages};taps={','.join(map(str, lfsr_taps(crps.netlist.stages)))}",
        "bitorder": "msb-first (bit 0 = top bit of the first hex nibble)",
        "challenge_mode": crps.challenge_mode,
        "master_eval_seed": crps.master_eval_seed,
    }
    chal_hexes = [bits_to_hex(challenge) for challenge in crps.challenges]
    records = (
        f"{device_id},{chal_hex},{r},{bits_to_hex(crps.responses[d, c, r])},{crps.response_size}"
        for d, device_id in enumerate(crps.device_ids)
        for c, chal_hex in enumerate(chal_hexes)
        for r in range(crps.repetitions)
    )
    kvfile.write(path, "crp", {}, header, marker=CRP_COLUMNS, table=records)


def load_crps(path) -> CrpSet:
    """Read a CRP file written by ``save_crps`` (or a hardware dump in its format).

    Records are parsed straight into packed response bytes plus their
    (device, challenge, repetition) cell; device ids come out sorted and
    challenges in first-seen order.  Every cell must appear exactly once.
    """
    schema = {
        "# netlist": Netlist.parse,
        "# params": DelayParams.parse,
        "# master_eval_seed": (int, 0),
        "# challenge_mode": (str, "random"),
        "# config": (str, None),
    }
    device_first: dict[str, int] = {}  # first-seen index per device id
    chal_first: dict[str, int] = {}  # first-seen index per challenge hex
    cells = array("q")  # device, challenge, repetition of each record, in file order
    packed = bytearray()
    n_bits = n_bytes = 0
    with open(path, encoding="utf-8") as handle:
        header = kvfile.read(handle, schema, marker=CRP_COLUMNS)
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            device_id, chal_hex, rep_text, resp_hex, length = line.split(",")
            if not cells:
                n_bits = int(length)
                n_bytes = (n_bits + 7) // 8
            response = bytes.fromhex(resp_hex)
            if int(length) != n_bits or len(response) != n_bytes:
                raise ValueError(f"record ({device_id}, {chal_hex}, {rep_text}) is not {n_bits} bits long")
            if int(rep_text) < 0:
                raise ValueError(f"negative repetition in record ({device_id}, {chal_hex}, {rep_text})")
            device = device_first.setdefault(device_id, len(device_first))
            cells.extend((device, chal_first.setdefault(chal_hex, len(chal_first)), int(rep_text)))
            packed += response
    if not cells:
        raise ValueError(f"no CRP records in {path}")
    device_ids = sorted(device_first)
    chal_hexes = list(chal_first)
    sorted_rank = np.empty(len(device_ids), dtype=np.int64)
    sorted_rank[[device_first[v] for v in device_ids]] = np.arange(len(device_ids))
    dev, chal, rep = np.frombuffer(cells, dtype=np.int64).reshape(-1, 3).T
    dev = sorted_rank[dev]
    repetitions = int(rep.max()) + 1
    shape = (len(device_ids), len(chal_hexes), repetitions)
    flat = np.ravel_multi_index((dev, chal, rep), shape)
    # First record of every cell present, in cell order.
    _, first = np.unique(flat, return_index=True)
    if first.size < flat.size:
        i = np.setdiff1d(np.arange(flat.size), first)[0]
        raise ValueError(f"duplicate record for ({device_ids[dev[i]]}, {chal_hexes[chal[i]]}, {rep[i]})")
    if first.size < math.prod(shape):
        raise ValueError("missing (device, challenge, repetition) records")
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, n_bytes)[first]
    responses = np.unpackbits(rows, axis=1, count=n_bits).reshape(*shape, n_bits)
    challenges = np.stack([hex_to_bits(h, header["# netlist"].stages) for h in chal_hexes])
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
