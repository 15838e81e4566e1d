import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papuf import bch
from papuf.bch import (
    AS_BITS_REDUCE_BYTES,
    BchCode,
    _bits_to_int,
    _correct,
    _decode,
    _int_to_bits,
    _packed_syndromes,
    as_bits,
    bch_decode,
    bch_encode,
    default_code,
)
from papuf.oracle import _oracle_systematic_codewords, naive_nearest_codeword


@pytest.fixture(scope="module")
def code127():
    return default_code()


@pytest.fixture(scope="module")
def code15():
    return BchCode.construct(4, 2)


# One code per field size, each with t + 5 <= 15.
CODES_PER_M = [(3, 1), (4, 3), (5, 5), (6, 7), (7, 10), (8, 10)]


def test_code_parameters(code127, code15):
    assert (code127.n, code127.k, code127.t) == (127, 64, 10)
    assert code127.generator.bit_length() - 1 == 63
    assert (code15.n, code15.k, code15.t) == (15, 7, 2)
    assert code15.generator.bit_length() - 1 == 8


@pytest.mark.parametrize(
    "m, t, n, k, generator",
    [(4, 2, 15, 7, 0x1D1), (4, 3, 15, 5, 0x537), (5, 3, 31, 16, 0x8FAF), (7, 10, 127, 64, 0xA1AB815BC7EC8025)],
)
def test_generator_polynomials_are_pinned(m, t, n, k, generator):
    code = BchCode.construct(m, t)
    assert (code.n, code.k, code.generator) == (n, k, generator)


@pytest.mark.parametrize(
    "m, t, poly, message",
    [
        (7, 0, None, "t=0 must be at least 1"),
        (7, -3, 0x89, "t=-3 must be at least 1"),
        (2, 1, None, "m=2"),
        (9, 1, None, "m=9"),
        (20, 1, (1 << 20) | 0b1001, "m=20"),  # checked before a 2^40-entry product table is built
        (7, 10, 0x81, "0x81 is not primitive"),  # x^7 = 1
        (7, 10, 0xFF, "0xff is not primitive"),  # (x + 1)^7: x^8 = 1
        (4, 2, 0b11111, "0x1f is not primitive"),  # irreducible, but x^5 = 1
        (4, 2, 0b10000, "0x10 is not primitive"),  # x^4 = 0, never 1
    ],
)
def test_construct_rejects_invalid_parameters(m, t, poly, message):
    with pytest.raises(ValueError, match=message):
        BchCode.construct(m, t, poly)


def test_zero_message_zero_codeword(code127):
    assert not bch_encode(np.zeros(64, dtype=np.uint8), code127).any()


def test_codewords_closed_under_xor(code127):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, size=64, dtype=np.uint8)
        b = rng.integers(0, 2, size=64, dtype=np.uint8)
        combined = bch_encode(a, code127) ^ bch_encode(b, code127)
        assert np.array_equal(combined, bch_encode(a ^ b, code127))


def test_encoding_is_systematic(code127):
    rng = np.random.default_rng(1)
    message = rng.integers(0, 2, size=64, dtype=np.uint8)
    codeword = bch_encode(message, code127)
    assert np.array_equal(codeword[:64], message)


def test_clean_codeword_decodes_with_zero_corrections(code127):
    rng = np.random.default_rng(2)
    message = rng.integers(0, 2, size=64, dtype=np.uint8)
    out = bch_decode(bch_encode(message, code127), code127)
    assert out is not None
    decoded, corrected = out
    assert np.array_equal(decoded, message)
    assert corrected == 0


def test_exactly_t_errors_always_corrected(code127):
    rng = np.random.default_rng(3)
    for _ in range(200):
        message = rng.integers(0, 2, size=64, dtype=np.uint8)
        received = bch_encode(message, code127)
        positions = rng.choice(code127.n, size=code127.t, replace=False)
        received[positions] ^= 1
        out = bch_decode(received, code127)
        assert out is not None
        decoded, corrected = out
        assert np.array_equal(decoded, message)
        assert corrected == code127.t


def test_single_bit_flips_exhaustive(code127):
    rng = np.random.default_rng(4)
    message = rng.integers(0, 2, size=64, dtype=np.uint8)
    codeword = bch_encode(message, code127)
    for position in range(code127.n):
        received = codeword.copy()
        received[position] ^= 1
        out = bch_decode(received, code127)
        assert out is not None
        decoded, corrected = out
        assert np.array_equal(decoded, message)
        assert corrected == 1


def test_beyond_capability_reported_not_asserted(code127):
    # t+5 random flips: measure how often decoding fails explicitly versus
    # lands on some other codeword; this documents behavior, pass/fail for
    # the no-wrong-key guarantee lives in the acceptance suite.
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, size=64, dtype=np.uint8)
    codeword = bch_encode(message, code127)
    failures = 0
    trials = 300
    for _ in range(trials):
        received = codeword.copy()
        positions = rng.choice(code127.n, size=code127.t + 5, replace=False)
        received[positions] ^= 1
        if bch_decode(received, code127) is None:
            failures += 1
    assert failures > trials * 0.9
    print(f"weight-{code127.t + 5} explicit-failure rate: {failures}/{trials}")


def test_decode_validates_length(code127):
    with pytest.raises(ValueError):
        bch_decode(np.zeros(126, dtype=np.uint8), code127)
    with pytest.raises(ValueError):
        bch_encode(np.zeros(63, dtype=np.uint8), code127)


def test_decode_rejects_non_binary_input(code127):
    received = bch_encode(np.zeros(64, dtype=np.uint8), code127)
    received[5] = 2
    with pytest.raises(ValueError, match="0 and 1"):
        bch_decode(received, code127)


@pytest.mark.parametrize("value,dtype", [(256, np.int64), (257, np.int64), (0.7, np.float64), (-1, np.int64)])
def test_decode_checks_bits_before_the_uint8_cast(code127, value, dtype):
    # the cast would read 256 and 0.7 as 0, and 257 as 1
    received = bch_encode(np.zeros(64, dtype=np.uint8), code127).astype(dtype)
    received[5] = value
    with pytest.raises(ValueError, match="0 and 1"):
        bch_decode(received, code127)


@pytest.mark.parametrize("value", [2, 256, 257])
def test_encode_checks_bits_before_the_uint8_cast(code127, value):
    # the cast would read 2 and 257 as a 1 bit and 256 as a 0 bit
    message = np.zeros(64, dtype=np.int64)
    message[7] = value
    with pytest.raises(ValueError, match="message must hold only 0 and 1"):
        bch_encode(message, code127)


def test_decode_accepts_bool_and_integer_words(code127):
    received = bch_encode(np.ones(64, dtype=np.uint8), code127)
    received[[3, 90]] ^= 1
    for word in (received, received.astype(bool), received.astype(np.int64), received.tolist()):
        out = bch_decode(word, code127)
        assert out is not None and out[0].all() and out[1] == 2


def test_every_15_7_word_decodes_to_the_oracle_nearest_codeword(code15):
    # All 2^15 words against the oracle's 2^7 codewords, packed as ints.
    pairs = _oracle_systematic_codewords(code15)
    weights = 1 << np.arange(14, -1, -1)
    codewords = np.array([c for _, c in pairs]) @ weights
    words = np.arange(1 << 15)
    distances = np.bitwise_count(words[:, None] ^ codewords[None, :])
    nearest = distances.argmin(axis=1)
    for word, index in zip(words.tolist(), nearest.tolist()):
        out = bch_decode(((word >> np.arange(14, -1, -1)) & 1).astype(np.uint8), code15)
        distance = int(distances[word, index])
        if distance <= code15.t:
            assert out is not None and out[0].tolist() == list(pairs[index][0]) and out[1] == distance
        else:
            assert out is None


def _outcome_digest(code, per_weight, seed):
    """SHA-256 over the (message, corrections) outcome, or the failure, of
    codewords with 0..24 flipped bits."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for weight in range(min(24, code.n) + 1):
        for _ in range(per_weight):
            received = bch_encode(rng.integers(0, 2, size=code.k, dtype=np.uint8), code)
            received[rng.choice(code.n, size=weight, replace=False)] ^= 1
            out = bch_decode(received, code)
            digest.update(b"-" if out is None else np.packbits(out[0]).tobytes() + bytes([out[1]]))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "m,t,per_weight,seed,expected",
    [
        (7, 10, 40, 1, "c92dbf76d7dda40a6bd21a1e5e2b3944b46b399ba4b0c021f649dabd1695ddf3"),
        (8, 16, 20, 2, "b366b5ef636370c32e3ff2b35175ea8c80d9b815fa157b61518cab4d74844b3e"),
        (3, 1, 50, 3, "24b13135cf423a453df985871f193d6cd038327e9e26a95d307a372491320560"),
    ],
)
def test_decode_outcomes_equal_the_pinned_digest(m, t, per_weight, seed, expected):
    # The digests were computed with the numpy-gather decoder that this one replaced.
    assert _outcome_digest(BchCode.construct(m, t), per_weight, seed) == expected


def _syndromes(word, code):
    """S_1..S_2t of a word, summed term by term over its set bits."""
    field = code.field
    positions = [code.n - 1 - i for i in np.flatnonzero(word).tolist()]
    out = []
    for j in range(1, 2 * code.t + 1):
        s = 0
        for p in positions:
            s ^= field.exp[(j * p) % field.order]
        out.append(s)
    return out


class _Tries:
    """Stands in for ``bch._correct`` and records each locator that
    ``_decode`` tries.  A full run fails every try, so the decoder runs all
    t Berlekamp-Massey steps and the last locator recorded is the full
    run's; an early run passes each try on to the real ``_correct``."""

    def __init__(self, monkeypatch):
        self.full, self.locators = False, []
        monkeypatch.setattr(bch, "_correct", self)

    def __call__(self, received, code, tables, packed, locator):
        self.locators.append(locator)
        return None if self.full else _correct(received, code, tables, packed, locator)

    def run(self, word, code, full):
        """``_decode(word, code)`` and the locators it tried: [[1]] for a zero syndrome."""
        self.full, self.locators = full, []
        return _decode(word, code), self.locators or [[1]]


def _final_locator(tries, word, code):
    """The locator of all 2t syndromes: the last one a full run tries."""
    return tries.run(word, code, full=True)[1][-1]


def test_berlekamp_massey_locators_equal_the_pinned_digest(code127, monkeypatch):
    # 11,000 random words, mostly far beyond t; the digest was computed with
    # the variable-length Berlekamp-Massey that this one replaced.
    tries = _Tries(monkeypatch)
    rng = np.random.default_rng(4)
    digest = hashlib.sha256()
    for _ in range(11_000):
        word = rng.integers(0, 2, size=code127.n, dtype=np.uint8)
        digest.update(bytes(_final_locator(tries, word, code127)) + b"|")
    assert digest.hexdigest() == "2e9ee538546bcede9028c6ed85faa0dd8861a887ca202a7d53895f36604af13b"


@pytest.mark.parametrize("m,t", [(3, 1), (4, 3), (5, 5), (6, 7), (7, 10), (8, 16)])
def test_byte_lane_syndromes_equal_the_term_by_term_sums(m, t):
    code = BchCode.construct(m, t)
    rows = code._tables.syndromes
    rng = np.random.default_rng(m)
    largest = 0
    for _ in range(100):
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        lanes = list(_packed_syndromes(word, rows).to_bytes(2 * t, "little"))
        assert lanes == _syndromes(word, code)
        largest = max(largest, *lanes)
    assert largest == code.n  # the lanes reach 2^m - 1: 255 at m = 8


@pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 64, 127])
def test_bit_vectors_and_ints_convert_most_significant_bit_first(width):
    rng = np.random.default_rng(width)
    for bits in [np.zeros(width, np.uint8), np.ones(width, np.uint8), rng.integers(0, 2, width, dtype=np.uint8)]:
        value = sum(int(bit) << (width - 1 - i) for i, bit in enumerate(bits))
        assert _bits_to_int(bits) == value
        out = _int_to_bits(value, width)
        assert out.dtype == np.uint8 and out.tolist() == bits.tolist()


@pytest.mark.parametrize("weight", range(16))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decode_properties(weight, seed):
    # On one code per m = 3..8 with at least ``weight`` bits.  Within t: the
    # message, with corrected == weight.  Any result at all: a codeword
    # within t of the received word, corrected == that distance.
    rng = np.random.default_rng(seed)
    for m, t in CODES_PER_M:
        code = BchCode.construct(m, t)
        if weight > code.n:
            continue
        message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        received = bch_encode(message, code)
        received[rng.choice(code.n, size=weight, replace=False)] ^= 1
        out = bch_decode(received, code)
        if weight <= code.t:
            assert out is not None
            assert np.array_equal(out[0], message) and out[1] == weight
        if out is not None:
            distance = int((bch_encode(out[0], code) != received).sum())
            assert distance <= code.t and out[1] == distance


def _full_decode(tries, received, code):
    """``_decode`` with the early stop taken out: all t Berlekamp-Massey
    steps, then the real ``_correct`` on the last locator."""
    tables = code._tables
    packed = _packed_syndromes(received, tables.syndromes)
    return _correct(received, code, tables, packed, _final_locator(tries, received, code))


def _codewords(code, rng, count):
    """``count`` random messages and their codewords, through the generator matrix."""
    generator = np.stack([bch_encode(row, code) for row in np.eye(code.k, dtype=np.uint8)])
    messages = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
    codewords = (messages.astype(np.float32) @ generator.astype(np.float32)) % 2  # sums <= k are exact
    return messages, codewords.astype(np.uint8)


def _errors(code, rng, weights):
    """One row per weight, with that many random bits set."""
    ranks = rng.random((len(weights), code.n)).argsort(axis=1).argsort(axis=1)
    return (ranks < np.asarray(weights)[:, None]).astype(np.uint8)


EQUIVALENCE_WORDS = 17_000  # per code: 102,000 words over the six codes


@pytest.mark.parametrize("m,t", CODES_PER_M)
def test_early_stop_equals_the_full_berlekamp_massey_run(m, t, monkeypatch):
    # Three kinds of words, each decoded with and without the early stop:
    # codewords with 0..t + 7 flipped bits, uniform random words, and reads
    # that lie within t of another codeword than the enrolled one, the
    # offset c XOR r of a response r and a read r XOR c XOR c' XOR e.
    code = BchCode.construct(m, t)
    rng = np.random.default_rng(100 + m)
    third = EQUIVALENCE_WORDS // 3
    weights = np.arange(third) % (min(t + 7, code.n) + 1)
    near = _codewords(code, rng, third)[1] ^ _errors(code, rng, weights)
    uniform = rng.integers(0, 2, size=(third, code.n), dtype=np.uint8)
    count = EQUIVALENCE_WORDS - 2 * third
    other_messages, others = _codewords(code, rng, count)
    enrolled = _codewords(code, rng, count)[1]
    responses = rng.integers(0, 2, size=(count, code.n), dtype=np.uint8)
    offsets = enrolled ^ responses
    reads = responses ^ enrolled ^ others ^ _errors(code, rng, np.arange(count) % (t + 1))
    elsewhere = offsets ^ reads
    words = np.concatenate([near, uniform, elsewhere])
    tries = _Tries(monkeypatch)
    for index, word in enumerate(words):
        early, full = tries.run(word, code, full=False)[0], _full_decode(tries, word, code)
        if full is None:
            assert early is None
            continue
        assert early is not None and early[1] == full[1] and np.array_equal(early[0], full[0])
        if index >= 2 * third:
            assert np.array_equal(early[0], other_messages[index - 2 * third])
    assert len(words) == EQUIVALENCE_WORDS


def test_weight_w_words_stop_by_step_w_plus_one(monkeypatch):
    # A locator of weight w is final after w steps, so steps w + 1 .. t all
    # have zero discrepancy, and a full run tries at each of them.  The early
    # run tries the same locators until one passes, so it stopped by step
    # w + 1 exactly when the full run tried at least t - w - 1 more.
    # w <= t - 2 leaves steps unrun.
    tries = _Tries(monkeypatch)
    rng = np.random.default_rng(11)
    for m, t in CODES_PER_M:
        code = BchCode.construct(m, t)
        for weight in range(1, t - 1):
            messages, codewords = _codewords(code, rng, 20)
            for message, word in zip(messages, codewords ^ _errors(code, rng, [weight] * 20)):
                out, early = tries.run(word, code, full=False)
                assert out is not None and out[1] == weight and np.array_equal(out[0], message)
                _, full = tries.run(word, code, full=True)
                assert full[: len(early)] == early
                assert len(full) - len(early) >= t - weight - 1


def test_decode_on_a_second_code_matches_nearest_codeword():
    # BCH(31, 16, 3): the decode tables are built per code, not for m=7 only.
    # Brute force over all 2^16 codewords, packed as ints, gives the nearest one.
    code = BchCode.construct(5, 3)
    assert (code.n, code.k, code.t) == (31, 16, 3)
    weights = 1 << np.arange(code.n - 1, -1, -1, dtype=np.int64)
    rows = [int(bch_encode(np.eye(code.k, dtype=np.uint8)[i], code) @ weights) for i in range(code.k)]
    messages = np.arange(1 << code.k, dtype=np.int64)
    codewords = np.zeros_like(messages)
    for i, row in enumerate(rows):
        codewords ^= np.where((messages >> (code.k - 1 - i)) & 1, row, 0)
    rng = np.random.default_rng(7)
    for weight in range(code.t + 4):
        for _ in range(40):
            received = bch_encode(rng.integers(0, 2, size=code.k, dtype=np.uint8), code)
            received[rng.choice(code.n, size=weight, replace=False)] ^= 1
            distances = np.bitwise_count(codewords ^ int(received @ weights))
            nearest = int(distances.min())
            out = bch_decode(received, code)
            if nearest <= code.t:
                assert out is not None and out[1] == nearest
                expected = messages[int(distances.argmin())]
                assert int(out[0] @ weights[code.n - code.k :]) == expected
            else:
                assert out is None


def test_oracle_nearest_codeword_small_cases(code15):
    zero = np.zeros(15, dtype=np.uint8)
    message, distance = naive_nearest_codeword(zero, code15)
    assert not message.any()
    assert distance == 0
    rng = np.random.default_rng(6)
    for _ in range(50):
        msg = rng.integers(0, 2, size=7, dtype=np.uint8)
        received = bch_encode(msg, code15)
        received[int(rng.integers(15))] ^= 1
        oracle_msg, oracle_dist = naive_nearest_codeword(received, code15)
        assert np.array_equal(oracle_msg, msg)
        assert oracle_dist == 1


def test_oracle_refuses_large_codes(code127):
    with pytest.raises(ValueError):
        naive_nearest_codeword(np.zeros(127, dtype=np.uint8), code127)


def _batch_with_bad_last_byte(shape):
    batch = np.random.default_rng(sum(shape)).integers(0, 2, size=shape, dtype=np.uint8)
    batch.reshape(-1)[-1] = 2
    return batch


@pytest.mark.parametrize(
    "bad",
    [
        lambda: _batch_with_bad_last_byte((64_000, 64)),
        lambda: _batch_with_bad_last_byte((64_000, 64)).T,
        lambda: _batch_with_bad_last_byte((64_000, 64))[:, 1::2],
        lambda: _batch_with_bad_last_byte((AS_BITS_REDUCE_BYTES - 1,)),
        lambda: _batch_with_bad_last_byte((AS_BITS_REDUCE_BYTES,)),
        lambda: _batch_with_bad_last_byte((AS_BITS_REDUCE_BYTES + 1,)),
        lambda: _batch_with_bad_last_byte((AS_BITS_REDUCE_BYTES + 1,))[::-1],
    ],
    ids=["batch", "transposed", "strided", "threshold-1", "threshold", "threshold+1", "threshold+1-reversed"],
)
def test_as_bits_rejects_a_bad_byte_on_both_sides_of_the_crossover(bad):
    bad = bad()  # built per case, so the 4 MB batches are not held for the session
    assert bad.dtype == np.uint8 and int(bad.max()) == 2
    with pytest.raises(ValueError, match="^the batch must hold only 0 and 1 bits$"):
        as_bits(bad, "the batch")


@pytest.mark.parametrize(
    "shape", [(64_000, 64), (AS_BITS_REDUCE_BYTES - 1,), (AS_BITS_REDUCE_BYTES,), (AS_BITS_REDUCE_BYTES + 1,)]
)
def test_as_bits_returns_a_valid_uint8_batch_itself(shape):
    batch = np.random.default_rng(len(shape)).integers(0, 2, size=shape, dtype=np.uint8)
    for view in (batch, batch.T, batch[..., ::2]):
        checked = as_bits(view, "the batch")
        assert checked is view and np.shares_memory(checked, batch)
    empty = np.empty((0, 64), dtype=np.uint8)
    assert as_bits(empty, "the batch") is empty
