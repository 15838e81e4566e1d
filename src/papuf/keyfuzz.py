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
from .bch import BchCode, _decode, as_bits, bch_encode
from .response import bits_to_hex, hex_to_bits
from .seeds import SEED_MASK


@dataclass(frozen=True)
class HelperData:
    """Public enrollment output: the code offset and the code it was made with.

    The offset is checked once, here: anything but a vector of n 0/1 bits
    is a ``ValueError``, and it is kept as uint8.
    """

    offset: np.ndarray  # (n,) bits, codeword XOR response slice
    code: BchCode

    def __post_init__(self):
        offset = as_bits(self.offset, "helper offset")
        if offset.shape != (self.code.n,):
            raise ValueError(f"helper offset must have {self.code.n} bits, got shape {offset.shape}")
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other) -> bool:
        same_code = isinstance(other, HelperData) and self.code == other.code
        return same_code and self.offset.tobytes() == other.offset.tobytes()


@dataclass(frozen=True)
class SecretKey:
    bits: np.ndarray  # (k,) uint8 message bits, as enroll and reproduce make them

    def hex(self) -> str:
        return bits_to_hex(self.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SecretKey)
            and self.bits.shape == other.bits.shape
            and self.bits.tobytes() == other.bits.tobytes()
        )


def _response_bits(response: np.ndarray, code: BchCode) -> np.ndarray:
    """The first n bits of a checked response: a vector of 0/1 bits, at least n long."""
    response = as_bits(response, "response")
    if response.ndim != 1 or response.shape[0] < code.n:
        raise ValueError(f"response of shape {response.shape} is not a vector of at least n={code.n} bits")
    return response[: code.n]


def enroll(response: np.ndarray, code: BchCode, key_seed: int) -> tuple[HelperData, SecretKey]:
    """Bind a fresh random key to a response; responses longer than n are
    truncated to the first n bits (a 128-bit response drops its last bit).
    A response holding anything but 0 and 1 is a ``ValueError``."""
    response = _response_bits(response, code)
    rng = np.random.default_rng(key_seed & SEED_MASK)
    message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    codeword = bch_encode(message, code)
    offset = codeword ^ response
    return HelperData(offset, code), SecretKey(message)


def reproduce(noisy_response: np.ndarray, helper: HelperData) -> SecretKey | None:
    """Recover the enrolled key from a noisy read, or None on decode failure.

    A read holding anything but 0 and 1 is a ``ValueError``.  The read is
    the only array checked here: the helper's offset was checked when the
    helper was made.
    """
    code = helper.code
    decoded = _decode(helper.offset ^ _response_bits(noisy_response, code), code)
    if decoded is None:
        return None
    message, _ = decoded
    return SecretKey(message)


def save_helper(helper: HelperData, path, extra_header: dict | None = None) -> None:
    code = helper.code
    fields = {"m": code.m, "n": code.n, "k": code.k, "t": code.t,
              "primitive_poly": f"{code.primitive_poly:#x}", "offset_hex": bits_to_hex(helper.offset)}
    kvfile.write(path, "helper", fields, extra_header)


def load_helper(path) -> HelperData:
    """Helper data from a file; the code is built from ``m``, ``t`` and
    ``primitive_poly``, and a file whose ``n`` or ``k`` disagrees with it,
    or whose code parameters are invalid, is a ``ValueError``."""
    # Keys outside the schema, such as the retired slice_start, are ignored.
    schema = {"m": int, "n": int, "k": int, "t": int,
              "primitive_poly": lambda text: int(text, 0), "offset_hex": str}
    with kvfile.open_text(path) as handle:
        fields = kvfile.read(handle, schema)
    try:
        code = BchCode.construct(fields["m"], fields["t"], fields["primitive_poly"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (fields["n"], fields["k"]) != (code.n, code.k):
        raise ValueError(
            f"{path}: n={fields['n']}, k={fields['k']} do not match bch({code.n},{code.k},{code.t})"
            f" of m={code.m}, t={code.t}"
        )
    try:
        offset = hex_to_bits(fields["offset_hex"], code.n)
    except ValueError as exc:
        raise ValueError(f"{path}: bad 'offset_hex': {exc}") from None
    return HelperData(offset, code)
