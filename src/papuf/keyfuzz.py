"""Code-offset fuzzy extractor: noisy PUF responses to stable keys.

Enrollment draws a random message, encodes it and publishes
helper = codeword XOR response[0:n] as non-secret helper data.  Any later
read within t bit flips of the enrollment response reproduces the same
key; anything further away yields an explicit failure, never a silently
different key for in-ball reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kvfile
from .bch import BchCode, bch_decode, bch_encode
from .response import bits_to_hex, hex_to_bits
from .seeds import SEED_MASK


@dataclass(frozen=True)
class HelperData:
    """Public enrollment output: the code offset plus code parameters."""

    offset: np.ndarray  # (n,) bits, codeword XOR response slice
    m: int
    n: int
    k: int
    t: int
    primitive_poly: int

    def code(self) -> BchCode:
        return BchCode.construct(self.m, self.t, self.primitive_poly)


@dataclass(frozen=True)
class SecretKey:
    bits: np.ndarray  # (k,) message bits

    def hex(self) -> str:
        return bits_to_hex(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, SecretKey) and np.array_equal(self.bits, other.bits)


def enroll(response: np.ndarray, code: BchCode, key_seed: int) -> tuple[HelperData, SecretKey]:
    """Bind a fresh random key to a response; responses longer than n are
    truncated to the first n bits (a 128-bit response drops its last bit)."""
    response = np.asarray(response, dtype=np.uint8)
    if response.shape[0] < code.n:
        raise ValueError(f"response of {response.shape[0]} bits is shorter than n={code.n}")
    rng = np.random.default_rng(key_seed & SEED_MASK)
    message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    codeword = bch_encode(message, code)
    offset = codeword ^ response[: code.n]
    helper = HelperData(
        offset=offset, m=code.m, n=code.n, k=code.k, t=code.t, primitive_poly=code.primitive_poly
    )
    return helper, SecretKey(message)


def reproduce(noisy_response: np.ndarray, helper: HelperData) -> SecretKey | None:
    """Recover the enrolled key from a noisy read, or None on decode failure."""
    noisy_response = np.asarray(noisy_response, dtype=np.uint8)
    if noisy_response.shape[0] < helper.n:
        raise ValueError(f"response of {noisy_response.shape[0]} bits is shorter than n={helper.n}")
    received = helper.offset ^ noisy_response[: helper.n]
    decoded = bch_decode(received, helper.code())
    if decoded is None:
        return None
    message, _ = decoded
    return SecretKey(message)


def save_helper(helper: HelperData, path, extra_header: dict | None = None) -> None:
    fields = {"m": helper.m, "n": helper.n, "k": helper.k, "t": helper.t,
              "primitive_poly": f"{helper.primitive_poly:#x}", "offset_hex": bits_to_hex(helper.offset)}
    kvfile.write(path, "helper", fields, extra_header)


def load_helper(path) -> HelperData:
    # Keys outside the schema, such as the retired slice_start, are ignored.
    code = {"m": int, "n": int, "k": int, "t": int, "primitive_poly": lambda text: int(text, 0)}
    with open(path, encoding="utf-8") as handle:
        fields = kvfile.read(handle, {**code, "offset_hex": str})
    n, offset_hex = fields["n"], fields["offset_hex"]
    if len(offset_hex) != 2 * ((n + 7) // 8):
        raise ValueError(f"{path}: offset_hex does not hold n={n} bits")
    return HelperData(offset=hex_to_bits(offset_hex, n), **{key: fields[key] for key in code})
