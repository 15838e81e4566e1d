"""Binary BCH codes over GF(2^m) with syndrome decoding.

Codewords are bit vectors of length n = 2^m - 1, MSB first: bit i of a
word is the coefficient of x^(n-1-i).  Encoding is systematic, so the
first k bits of a codeword are the message.

Decoding runs on Python ints from tables that a code object builds on its
first decode and keeps (``BchCode._tables``).  Every syndrome S_j is linear
in the word and, with m <= 8, fits a byte, so the column of bit i is one
int packing all 2t syndromes of the word with only bit i set, S_j in byte
j - 1.  The table int of a byte position and byte value is the XOR of the
columns of that byte's set bits, so S_1..S_2t of a word are an XOR of one
int per byte, and ``int.to_bytes`` unpacks them; a zero syndrome returns at
once.  Otherwise binary Berlekamp-Massey runs in ``_decode`` for at most
t steps, and each step with zero discrepancy, and the last, tries its
locator with ``_correct``.  The Chien search (R. T. Chien, "Cyclic
decoding procedures for BCH codes", IEEE Trans. IT 1964) evaluates it at all n points at once: for each
locator degree d and field value v, one int holds v*alpha^(-d(n-1-i)) in
lane i, so the evaluation is an XOR of at most t + 1 ints, the zero lanes
are found with one add and two masks, and the root count is a popcount.
The residual check XORs the columns of the flipped bits into the received
syndromes.  A try passes when the locator degree is at most t, the root
count equals the degree and no residual syndrome is left.

The first try that passes is the result, and it is exactly the full run's:
it names the unique codeword within t, whose locator the full run also
finds (see ``_decode``).  When the last try fails too, the word is
reported as an explicit failure rather than a guessed codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Primitive polynomials for the extension fields, bit i = coefficient x^i.
PRIMITIVE_POLYS = {
    3: 0b1011,  # x^3 + x + 1
    4: 0b10011,  # x^4 + x + 1
    5: 0b100101,  # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
    7: 0b10001001,  # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


class GF2m:
    """GF(2^m) arithmetic through exp/log tables for the generator alpha = x.

    ``products[a][b]`` is a*b, one list per field element, for the decoder's
    inner loops.  A polynomial that is not primitive, so that the powers of
    x return to 1 before 2^m - 1 or never do, is a ``ValueError``.
    """

    def __init__(self, m: int, primitive_poly: int):
        if primitive_poly.bit_length() != m + 1:
            raise ValueError(f"primitive polynomial degree must be {m}")
        self.m = m
        self.order = (1 << m) - 1
        self.exp = [0] * (2 * self.order)
        self.log = [0] * (1 << m)
        value = 1
        for power in range(self.order):
            self.exp[power] = value
            self.log[value] = power
            value <<= 1
            if value >> m:
                value ^= primitive_poly
        # x^order must be 1 and no earlier power may be: log[1] stays 0 only then.
        if value != 1 or self.log[1]:
            raise ValueError(f"polynomial {primitive_poly:#x} is not primitive over GF(2^{m})")
        for power in range(self.order, 2 * self.order):
            self.exp[power] = self.exp[power - self.order]
        self.products = [[0] * (1 << m)] + [
            [0] + [self.exp[self.log[a] + self.log[b]] for b in range(1, 1 << m)] for a in range(1, 1 << m)
        ]


def _poly_mod_gf2(value: int, modulus: int) -> int:
    mod_deg = modulus.bit_length() - 1
    while value.bit_length() - 1 >= mod_deg and value:
        value ^= modulus << (value.bit_length() - 1 - mod_deg)
    return value


def _generator(field: GF2m, t: int) -> int:
    """g(x) = prod (x + alpha^e) over the union of the cyclotomic cosets of
    1 .. 2t, the lcm of the minimal polynomials of alpha .. alpha^2t, as a
    GF(2) bit-poly.  The union is closed under e -> 2e, so every
    coefficient of the product lies in GF(2)."""
    exponents: set[int] = set()
    for i in range(1, 2 * t + 1):
        e = i % field.order
        while e not in exponents:
            exponents.add(e)
            e = 2 * e % field.order
    poly = [1]  # coefficients in GF(2^m), index = degree
    for e in exponents:
        scale = field.products[field.exp[e]]
        poly = [low ^ scale[high] for low, high in zip([0] + poly, poly + [0])]
    return sum(coef << degree for degree, coef in enumerate(poly))


@dataclass(frozen=True)
class BchCode:
    """BCH(n, k, t): n = 2^m - 1, correcting any error of weight <= t."""

    m: int
    n: int
    k: int
    t: int
    primitive_poly: int
    generator: int

    @classmethod
    def construct(cls, m: int, t: int, primitive_poly: int | None = None) -> "BchCode":
        """The code of field size 2^m, m in 3..8, correcting t >= 1 errors.

        Parameters outside these ranges, a polynomial that is not
        primitive, or a t too large for any message bits are a ``ValueError``.
        """
        if m not in PRIMITIVE_POLYS:
            known = ", ".join(str(key) for key in sorted(PRIMITIVE_POLYS))
            raise ValueError(f"unsupported code parameter m={m}; expected m in {known}")
        if t < 1:
            raise ValueError(f"code parameter t={t} must be at least 1")
        if primitive_poly is None:
            primitive_poly = PRIMITIVE_POLYS[m]
        return _construct_cached(cls, m, t, primitive_poly)

    @cached_property
    def field(self) -> GF2m:
        return _field_cache(self.m, self.primitive_poly)

    @cached_property
    def _tables(self) -> "_DecodeTables":
        """The decode tables, built on this code object's first decode and
        then read as a plain attribute: no hashing of the code per word."""
        return _decode_tables(self)


@lru_cache(maxsize=None)
def _field_cache(m: int, primitive_poly: int) -> GF2m:
    return GF2m(m, primitive_poly)


@lru_cache(maxsize=None)
def _construct_cached(cls, m: int, t: int, primitive_poly: int) -> "BchCode":
    field = _field_cache(m, primitive_poly)
    generator = _generator(field, t)
    n = field.order
    k = n - (generator.bit_length() - 1)
    if k <= 0:
        raise ValueError(f"no BCH code of length {n} corrects {t} errors")
    return cls(m=m, n=n, k=k, t=t, primitive_poly=primitive_poly, generator=generator)


def default_code() -> BchCode:
    """BCH(127, 64, t=10), the key-extraction default for 128-bit responses."""
    return BchCode.construct(m=7, t=10)


def _bits_to_int(bits: np.ndarray) -> int:
    """A 0/1 bit vector as an int, first bit most significant."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """The low ``width`` bits of ``value`` as a uint8 vector, most significant first."""
    pad = -width % 8
    packed = np.frombuffer((value << pad).to_bytes((width + pad) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(packed, count=width)


def bch_encode(message: np.ndarray, code: BchCode) -> np.ndarray:
    """Systematic encoding: codeword = message bits followed by parity bits.

    A message holding anything but 0 and 1 is a ``ValueError``.
    """
    message = as_bits(message, "message")
    if message.shape != (code.k,):
        raise ValueError(f"message must have {code.k} bits, got shape {message.shape}")
    shifted = _bits_to_int(message) << (code.n - code.k)
    remainder = _poly_mod_gf2(shifted, code.generator)
    return _int_to_bits(shifted ^ remainder, code.n)


@dataclass(frozen=True)
class _DecodeTables:
    """Read-only lookup tables of one code, built on its first decode.

    ``syndromes[b][v]`` packs the 2t syndromes S_1, ..., S_2t, one byte
    each with S_j at bit 8(j - 1), of the word whose ``np.packbits`` byte b
    is v and all other bits are 0: the XOR of the columns of the set bits
    of v, where the column of bit i holds alpha^(j(n-1-i)) in byte j - 1.
    ``chien[d - 1][v]`` holds v*alpha^(-d(n-1-i)) in lane i, for locator
    degree d = 1..t; lanes are m + 1 bits wide, one per bit position.
    """

    syndromes: tuple[tuple[int, ...], ...]
    chien: tuple[tuple[int, ...], ...]
    ones: int  # 1 in every lane: the locator's constant coefficient
    below: int  # 2^m - 1 in every lane
    high: int  # 2^m in every lane, the top bit of each lane


def _pack(values: np.ndarray, width: int) -> list[int]:
    """Each row of a 2-D array of values below 2^width as one int, column c at bit width*c."""
    bits = ((values.astype(np.uint32)[..., None] >> np.arange(width, dtype=np.uint32)) & 1).astype(np.uint8)
    packed = np.packbits(bits.reshape(values.shape[0], -1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _decode_tables(code: BchCode) -> _DecodeTables:
    field, m, n, t = code.field, code.m, code.n, code.t
    exp = np.array(field.exp[: field.order], dtype=np.int64)
    log = np.array(field.log, dtype=np.int64)
    powers = np.arange(n - 1, -1, -1)  # the exponent of bit i is n-1-i
    columns = _pack(exp[(powers[:, None] * np.arange(1, 2 * t + 1)[None, :]) % field.order], 8)
    columns += [0] * (-n % 8)  # the pad bits of the last byte
    syndromes = []
    for byte in range(len(columns) // 8):
        row = [0]
        for column in reversed(columns[8 * byte : 8 * byte + 8]):  # byte-value bits 0x01, 0x02, ..., 0x80
            row += [s ^ column for s in row]
        syndromes.append(tuple(row))
    chien = []
    for d in range(1, t + 1):
        values = exp[(log[:, None] - d * powers[None, :]) % field.order]
        values[0] = 0
        chien.append(tuple(_pack(values, m + 1)))
    lanes = _pack(np.array([[1] * n, [(1 << m) - 1] * n, [1 << m] * n]), m + 1)
    return _DecodeTables(tuple(syndromes), tuple(chien), *lanes)


def _packed_syndromes(received: np.ndarray, byte_syndromes) -> int:
    """S_1..S_2t of a 0/1 word, S_j in byte j - 1: one table int per byte, XORed."""
    packed = 0
    for byte, value in enumerate(np.packbits(received).tobytes()):
        packed ^= byte_syndromes[byte][value]
    return packed


# Size in bytes above which ``as_bits`` checks a uint8 array with one
# ``max`` reduction instead of a ``bytes.translate`` copy.  Measured on a
# 2-vCPU Xeon host, best of 9: 1.23 against 1.58 us at 2,048 bytes, 1.52
# against 1.29 us at 2,560 bytes, 919 against 14 us at 9,984 x 64.
AS_BITS_REDUCE_BYTES = 2048


def as_bits(values, what: str) -> np.ndarray:
    """``values`` as a uint8 array of 0/1 bits.

    Anything other than 0 and 1 is a ``ValueError`` naming ``what``,
    checked before the cast, so 256 or 0.7 is never read as a 0 bit.  A
    uint8 array comes back as itself, a bool one as its uint8 view.  A
    uint8 array of more than AS_BITS_REDUCE_BYTES is checked by one ``max``
    reduction, which copies nothing, whatever its strides; a shorter one by
    deleting its 0 and 1 bytes from a ``tobytes`` copy, which costs less
    than starting a reduction.
    """
    array = np.asarray(values)
    if array.dtype == np.bool_:
        return array.view(np.uint8)
    if array.dtype == np.uint8:
        if array.size > AS_BITS_REDUCE_BYTES:
            valid = array.max() <= 1
        else:
            valid = not array.tobytes().translate(None, b"\x00\x01")  # bytes other than 0 and 1 remain
    else:
        valid = bool(np.all((array == 0) | (array == 1)))
    if not valid:
        raise ValueError(f"{what} must hold only 0 and 1 bits")
    return array.astype(np.uint8, copy=False)


def bch_decode(received: np.ndarray, code: BchCode) -> tuple[np.ndarray, int] | None:
    """Correct up to t bit errors; returns (message, corrected_errors).

    Returns None when the received word is provably outside every t-ball
    the decoder can resolve (uncorrectable), never a silently wrong guess
    for in-ball words.  A word holding anything but 0 and 1, or of another
    length than n, is a ``ValueError``.
    """
    received = as_bits(received, "received word")
    if received.shape != (code.n,):
        raise ValueError(f"received word must have {code.n} bits, got shape {received.shape}")
    return _decode(received, code)


def _decode(received: np.ndarray, code: BchCode) -> tuple[np.ndarray, int] | None:
    """``bch_decode`` of a checked word: a (n,) uint8 array of 0/1 bits.

    A zero syndrome returns at once.  Otherwise binary Berlekamp-Massey
    runs: S_2j = S_j^2 for a binary word, so every odd-step discrepancy is
    zero and only the t even steps run, each advancing the shift by 2.  The
    discrepancy reads the field's product-table row of each locator
    coefficient, and the locator lives in a fixed list of 2t + 1
    coefficients (index = degree), which its degree never outgrows.  Each
    step with zero discrepancy, and the last, tries the locator it has,
    trimmed to its degree, with ``_correct``.  The first that passes is the
    result; a failed try steps on from the same state, so the last try is
    the full run's, that of all 2t syndromes.

    Stopping at the first locator that passes is exact.  A passing locator
    of degree L <= t names L bits whose flip cancels all 2t syndromes: a
    codeword within t, which is unique, since the code's distance is at
    least 2t + 1.  Berlekamp-Massey over all 2t syndromes returns the
    locator of that same pattern (the shortest LFSR is unique when
    2L <= 2t; Massey, "Shift-register synthesis and BCH decoding", IEEE
    Trans. IT 1969), so the message and count are the full run's.  A word
    with no codeword within t fails every try, as it fails the full run.
    The degree guard is needed: an early locator can be longer than t, and
    without it the try could name a codeword beyond t that the full run
    rejects.  The locator of a weight-w word is final after w steps, so a
    word of weight w <= t - 2 stops at step w + 1 or before.
    """
    tables = code._tables
    packed = _packed_syndromes(received, tables.syndromes)
    if not packed:
        return received[: code.k].copy(), 0
    field = code.field
    products, exp, log, order = field.products, field.exp, field.log, field.order
    syndromes = packed.to_bytes(2 * code.t, "little")
    locator = [1] + [0] * len(syndromes)
    prev = [1]  # the locator's coefficients when the length last grew
    prev_log = 0  # log of the discrepancy then
    length = 0
    shift = 1
    last = len(syndromes) - 2
    for step in range(0, len(syndromes), 2):
        discrepancy = syndromes[step]
        for i in range(1, length + 1):
            discrepancy ^= products[locator[i]][syndromes[step - i]]
        if discrepancy:
            scale = products[exp[log[discrepancy] - prev_log + order]]  # exp is 2*order long
            grows = 2 * length <= step
            if grows:
                saved = locator[: length + 1]
            for i, coef in enumerate(prev, start=shift):
                locator[i] ^= scale[coef]
            if grows:
                prev, prev_log = saved, log[discrepancy]
                length = step + 1 - length
                shift = 0
        shift += 2
        if not discrepancy or step == last:
            degree = length
            while not locator[degree]:
                degree -= 1
            decoded = _correct(received, code, tables, packed, locator[: degree + 1])
            if decoded is not None:
                return decoded
    return None


def _correct(
    received: np.ndarray, code: BchCode, tables: _DecodeTables, packed: int, locator: list[int]
) -> tuple[np.ndarray, int] | None:
    """(message, degree) of ``received`` with the bits of ``locator`` flipped,
    or None unless the locator checks out: degree at most t, as many roots
    as its degree, and no residual syndrome.

    The Chien search evaluates the locator at all n points as an XOR of at
    most t + 1 table ints, one lane per bit: lane i is zero iff bit i is in
    error.  ``~(x + below) & high`` marks the zero lanes without carries
    between them, since every lane value is below 2^m.  The residual check
    XORs the columns of the error bits into ``packed``, the received
    syndromes.  All of them must cancel; since S_2j = S_j^2, that is the
    same test as the odd ones cancelling.
    """
    degree = len(locator) - 1
    if degree > code.t:
        return None
    values = tables.ones
    for row, coef in zip(tables.chien, locator[1:]):
        values ^= row[coef]
    zero_lanes = ~(values + tables.below) & tables.high
    if zero_lanes.bit_count() != degree:
        return None
    byte_syndromes = tables.syndromes
    message = received[: code.k].copy()
    lane = code.m + 1
    while zero_lanes:
        low = zero_lanes & -zero_lanes
        zero_lanes ^= low
        bit = low.bit_length() // lane - 1
        packed ^= byte_syndromes[bit >> 3][0x80 >> (bit & 7)]  # the residual check, by linearity
        if bit < code.k:
            message[bit] ^= 1
    if packed:
        return None
    return message, degree
