import numpy as np
import pytest

from papuf import enroll, load_helper, reproduce, save_helper
from papuf.bch import BchCode, bch_decode, default_code
from papuf.keyfuzz import HelperData, SecretKey


@pytest.fixture(scope="module")
def code():
    return default_code()


@pytest.fixture(scope="module")
def response():
    return np.random.default_rng(10).integers(0, 2, size=128, dtype=np.uint8)


def test_enroll_rejects_short_response(code):
    with pytest.raises(ValueError):
        enroll(np.zeros(100, dtype=np.uint8), code, 1)


def test_offset_xor_response_is_codeword(code, response):
    helper, _ = enroll(response, code, key_seed=3)
    codeword = helper.offset ^ response[: code.n]
    out = bch_decode(codeword, code)
    assert out is not None and out[1] == 0


def test_distinct_key_seeds_give_distinct_keys(code, response):
    helper_a, key_a = enroll(response, code, key_seed=1)
    helper_b, key_b = enroll(response, code, key_seed=2)
    assert key_a != key_b
    assert not np.array_equal(helper_a.offset, helper_b.offset)


def test_noiseless_reproduction_recovers_key(code, response):
    helper, key = enroll(response, code, key_seed=5)
    assert reproduce(response, helper) == key


def test_reproduction_up_to_t_flips(code, response):
    helper, key = enroll(response, code, key_seed=6)
    rng = np.random.default_rng(7)
    for weight in (1, 3, code.t):
        for _ in range(30):
            noisy = response.copy()
            noisy[rng.choice(128, size=weight, replace=False)] ^= 1
            flips_in_slice = int((noisy[: code.n] != response[: code.n]).sum())
            out = reproduce(noisy, helper)
            if flips_in_slice <= code.t:
                assert out == key
    # the discarded 128th bit never matters
    noisy = response.copy()
    noisy[127] ^= 1
    assert reproduce(noisy, helper) == key


@pytest.mark.parametrize("value,dtype", [(256, np.int64), (257, np.int64), (0.7, np.float64), (-1, np.int64)])
def test_enrollment_and_reproduction_reject_non_binary_reads(code, response, value, dtype):
    helper, _ = enroll(response, code, key_seed=6)
    noisy = response.astype(dtype)
    noisy[9] = value
    with pytest.raises(ValueError, match="0 and 1"):
        reproduce(noisy, helper)
    with pytest.raises(ValueError, match="0 and 1"):
        enroll(noisy, code, key_seed=6)
    # bool reads take the fast path
    assert reproduce(response.astype(bool), helper) == reproduce(response, helper)


def test_half_flipped_response_fails(code, response):
    helper, key = enroll(response, code, key_seed=8)
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(50):
        noisy = response.copy()
        noisy[rng.choice(128, size=64, replace=False)] ^= 1
        out = reproduce(noisy, helper)
        if out is None:
            failures += 1
        else:
            assert out != key  # never the enrolled key at this distance
    assert failures >= 45


def test_unrelated_response_never_yields_enrolled_key(code, response):
    helper, key = enroll(response, code, key_seed=11)
    rng = np.random.default_rng(12)
    for _ in range(50):
        other = rng.integers(0, 2, size=128, dtype=np.uint8)
        out = reproduce(other, helper)
        if out is not None:
            assert out != key


def test_helper_file_round_trip(tmp_path, code, response):
    helper, key = enroll(response, code, key_seed=13)
    path = tmp_path / "helper.txt"
    save_helper(helper, path, extra_header={"note": "x"})
    loaded = load_helper(path)
    assert loaded == helper
    assert reproduce(response, loaded) == key


def test_helper_equality(code, response):
    helper, key = enroll(response, code, key_seed=13)
    same, _ = enroll(response, code, key_seed=13)
    assert helper == same and not helper != same
    flipped = HelperData(helper.offset ^ np.eye(1, code.n, 5, dtype=np.uint8)[0], code)
    assert helper != flipped
    other_code = BchCode.construct(code.m, code.t - 1)
    assert helper != HelperData(helper.offset, other_code)
    assert helper != helper.offset and helper != key


@pytest.mark.parametrize("change", ["non-binary", "short", "long", "matrix"])
def test_helper_offset_is_checked_once_when_made(code, response, change):
    helper, _ = enroll(response, code, key_seed=15)
    offset = {
        "non-binary": np.where(np.arange(code.n) == 4, 2, helper.offset),
        "short": helper.offset[:-1],
        "long": np.append(helper.offset, 0),
        "matrix": helper.offset[None, :],
    }[change]
    with pytest.raises(ValueError, match="helper offset"):
        HelperData(offset, code)
    loaded = HelperData(helper.offset.astype(bool), code)
    assert loaded.offset.dtype == np.uint8 and loaded == helper


def test_secret_key_equality(code, response):
    _, key = enroll(response, code, key_seed=16)
    assert key == SecretKey(key.bits.copy()) and not key != SecretKey(key.bits.copy())
    flipped = key.bits.copy()
    flipped[3] ^= 1
    assert key != SecretKey(flipped)
    assert key != SecretKey(key.bits[:-1]) and key != SecretKey(key.bits.reshape(8, -1))
    assert SecretKey(np.zeros(8, np.uint8)) != SecretKey(np.zeros(16, np.uint8))
    assert key != key.bits and key != key.hex()


def test_reproduction_rejects_a_read_that_is_not_a_vector(code, response):
    helper, _ = enroll(response, code, key_seed=17)
    with pytest.raises(ValueError, match="vector"):
        reproduce(np.stack([response, response]), helper)


def test_helper_file_without_slice_start_and_older_files_load(tmp_path, code, response):
    helper, key = enroll(response, code, key_seed=14)
    path = tmp_path / "helper.txt"
    save_helper(helper, path)
    text = path.read_text()
    assert "slice_start" not in text
    # Files written before the field was dropped carry slice_start=0.
    path.write_text(text.replace("offset_hex=", "slice_start=0\noffset_hex="))
    assert reproduce(response, load_helper(path)) == key


def test_helper_loader_names_missing_key_and_bad_offset(tmp_path, code, response):
    helper, _ = enroll(response, code, key_seed=15)
    path = tmp_path / "helper.txt"
    save_helper(helper, path)
    lines = path.read_text().splitlines()
    for key in ("m", "n", "k", "t", "primitive_poly", "offset_hex"):
        path.write_text("\n".join(l for l in lines if not l.startswith(key + "=")) + "\n")
        with pytest.raises(ValueError, match=repr(key)):
            load_helper(path)
    for bad in ("00" * 15, "00" * 17):
        path.write_text("\n".join(f"offset_hex={bad}" if l.startswith("offset_hex=") else l for l in lines))
        with pytest.raises(ValueError, match="offset_hex"):
            load_helper(path)


def test_secret_key_hex_round_trip():
    bits = np.array([1, 0, 1, 1] * 16, dtype=np.uint8)
    key = SecretKey(bits)
    assert len(key.hex()) == 16
