"""Binary BCH codes over GF(2^m) with syndrome decoding.

Codewords are bit vectors of length n = 2^m - 1, MSB first: bit i of a
word is the coefficient of x^(n-1-i).  Encoding is systematic, so the
first k bits of a codeword are the message.

Decoding is table-driven.  Each code caches, once and read-only, a
(2t, n) table of alpha^(j(n-1-i)) and numpy exp/log arrays of its field.
The 2t syndromes are one gather of the table columns at the set bits plus
an XOR reduce; a zero syndrome returns at once.  Otherwise binary
Berlekamp-Massey (t iterations) gives the error locator, and a Chien search
evaluates it at all n points in one vectorised pass, one exp/log gather per
locator coefficient.  The residual check XORs the table columns of the
flipped bits into the received syndromes.  Anything inconsistent (locator
degree above t, root count not equal to the degree, residual syndromes) is
reported as an explicit failure rather than a guessed codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """GF(2^m) arithmetic through exp/log tables for the generator alpha = x."""

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
        for power in range(self.order, 2 * self.order):
            self.exp[power] = self.exp[power - self.order]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def pow_alpha(self, exponent: int) -> int:
        return self.exp[exponent % self.order]


def _poly_mod_gf2(value: int, modulus: int) -> int:
    mod_deg = modulus.bit_length() - 1
    while value.bit_length() - 1 >= mod_deg and value:
        value ^= modulus << (value.bit_length() - 1 - mod_deg)
    return value


def _minimal_poly(field: GF2m, exponent: int) -> int:
    """Minimal polynomial over GF(2) of alpha^exponent, as a GF(2) bit-poly."""
    conjugates = []
    e = exponent % field.order
    while e not in conjugates:
        conjugates.append(e)
        e = (e * 2) % field.order
    poly = [1]  # coefficients in GF(2^m), index = degree
    for conj in conjugates:
        root = field.pow_alpha(conj)
        shifted = [0] + poly
        scaled = [field.mul(coef, root) for coef in poly] + [0]
        poly = [a ^ b for a, b in zip(shifted, scaled)]
    out = 0
    for degree, coef in enumerate(poly):
        if coef not in (0, 1):
            raise ArithmeticError("minimal polynomial has coefficients outside GF(2)")
        out |= coef << degree
    return out


def _cyclotomic_generator(field: GF2m, t: int) -> int:
    """lcm of the minimal polynomials of alpha^1 .. alpha^2t."""
    generator = 1
    seen: set[int] = set()
    for i in range(1, 2 * t + 1):
        e = i % field.order
        coset = set()
        while e not in coset:
            coset.add(e)
            e = (e * 2) % field.order
        rep = min(coset)
        if rep in seen:
            continue
        seen.add(rep)
        minimal = _minimal_poly(field, rep)
        product = 0
        for degree in range(minimal.bit_length()):
            if (minimal >> degree) & 1:
                product ^= generator << degree
        generator = product
    return generator


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
        if primitive_poly is None:
            if m not in PRIMITIVE_POLYS:
                known = ", ".join(str(key) for key in sorted(PRIMITIVE_POLYS))
                raise ValueError(f"no built-in primitive polynomial for m={m}; expected m in {known}")
            primitive_poly = PRIMITIVE_POLYS[m]
        return _construct_cached(cls, m, t, primitive_poly)

    @property
    def field(self) -> GF2m:
        return _field_cache(self.m, self.primitive_poly)


@lru_cache(maxsize=None)
def _field_cache(m: int, primitive_poly: int) -> GF2m:
    return GF2m(m, primitive_poly)


@lru_cache(maxsize=None)
def _construct_cached(cls, m: int, t: int, primitive_poly: int) -> "BchCode":
    field = _field_cache(m, primitive_poly)
    generator = _cyclotomic_generator(field, t)
    n = field.order
    k = n - (generator.bit_length() - 1)
    if k <= 0:
        raise ValueError(f"no BCH code of length {n} corrects {t} errors")
    return cls(m=m, n=n, k=k, t=t, primitive_poly=primitive_poly, generator=generator)


def default_code() -> BchCode:
    """BCH(127, 64, t=10), the key-extraction default for 128-bit responses."""
    return BchCode.construct(m=7, t=10)


def _bits_to_int(bits: np.ndarray) -> int:
    value = 0
    for bit in np.asarray(bits, dtype=np.uint8):
        value = (value << 1) | int(bit)
    return value


def _int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bch_encode(message: np.ndarray, code: BchCode) -> np.ndarray:
    """Systematic encoding: codeword = message bits followed by parity bits."""
    message = np.asarray(message, dtype=np.uint8)
    if message.shape != (code.k,):
        raise ValueError(f"message must have {code.k} bits, got shape {message.shape}")
    shifted = _bits_to_int(message) << (code.n - code.k)
    remainder = _poly_mod_gf2(shifted, code.generator)
    return _int_to_bits(shifted ^ remainder, code.n)


@dataclass(frozen=True)
class _DecodeTables:
    """Read-only lookup tables of one code, built on its first decode."""

    syndrome: np.ndarray  # (2t, n): row j-1, column i holds alpha^(j(n-1-i))
    exp: np.ndarray  # (order,): exp[e] = alpha^e
    log: np.ndarray  # (2^m,): log[alpha^e] = e; log[0] is unused


@lru_cache(maxsize=None)
def _decode_tables(code: BchCode) -> _DecodeTables:
    field = code.field
    exp = np.array(field.exp[: field.order], dtype=np.int64)
    log = np.array(field.log, dtype=np.int64)
    powers = np.arange(1, 2 * code.t + 1)[:, None] * np.arange(code.n - 1, -1, -1)[None, :]
    syndrome = exp[powers % field.order]
    for table in (syndrome, exp, log):
        table.setflags(write=False)
    return _DecodeTables(syndrome=syndrome, exp=exp, log=log)


def _berlekamp_massey(field: GF2m, syndromes: list[int]) -> list[int]:
    """Error locator polynomial (coefficient list, index = degree).

    Binary form: the syndromes of a binary word satisfy S_2j = S_j^2, so
    every odd-step discrepancy is zero and only the t even steps are run,
    each advancing the shift by 2.  Field products go through the exp/log
    lists directly.
    """
    exp, log, order = field.exp, field.log, field.order
    locator = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_discrepancy = 1
    for step in range(0, len(syndromes), 2):
        discrepancy = syndromes[step]
        for i in range(1, min(length + 1, len(locator))):
            if locator[i] and syndromes[step - i]:
                discrepancy ^= exp[log[locator[i]] + log[syndromes[step - i]]]
        if discrepancy:
            log_factor = (log[discrepancy] - log[prev_discrepancy]) % order
            update = [0] * shift + [exp[log_factor + log[c]] if c else 0 for c in prev]
            combined = [a ^ b for a, b in zip(locator + [0] * len(update), update + [0] * len(locator))]
            while combined and combined[-1] == 0:
                combined.pop()
            if 2 * length <= step:
                prev = locator
                prev_discrepancy = discrepancy
                length = step + 1 - length
                shift = 0
            locator = combined
        shift += 2
    return locator


def bch_decode(received: np.ndarray, code: BchCode) -> tuple[np.ndarray, int] | None:
    """Correct up to t bit errors; returns (message, corrected_errors).

    Returns None when the received word is provably outside every t-ball
    the decoder can resolve (uncorrectable), never a silently wrong guess
    for in-ball words.
    """
    received = np.asarray(received, dtype=np.uint8)
    if received.shape != (code.n,):
        raise ValueError(f"received word must have {code.n} bits, got shape {received.shape}")
    if received.max() > 1:
        raise ValueError("received word must hold only 0 and 1 bits")
    tables = _decode_tables(code)
    syndromes = np.bitwise_xor.reduce(tables.syndrome[:, received.astype(bool)], axis=1)
    if not syndromes.any():
        return received[: code.k].copy(), 0
    field = code.field
    locator = _berlekamp_massey(field, syndromes.tolist())
    degree = len(locator) - 1
    if degree > code.t:
        return None
    # Chien search: bit i is in error iff locator(alpha^-(n-1-i)) == 0.
    neg_exponents = (field.order - np.arange(code.n)) % field.order
    values = np.zeros(code.n, dtype=np.int64)
    for d, coef in enumerate(locator):
        if coef:
            values ^= tables.exp[(tables.log[coef] + neg_exponents * d) % field.order]
    error_bits = code.n - 1 - np.flatnonzero(values == 0)
    if error_bits.size != degree:
        return None
    # Residual check: the corrected word's syndromes, by linearity.
    if (syndromes ^ np.bitwise_xor.reduce(tables.syndrome[:, error_bits], axis=1)).any():
        return None
    corrected = received.copy()
    corrected[error_bits] ^= 1
    return corrected[: code.k].copy(), degree
