"""Property tests: every papuf file survives save -> load -> save byte for byte.

Random netlists, taps, parameters, offsets and weights go through the one
``key=value`` reader and writer; ``effective-config.kv`` read back through
``--config`` must give the same configuration and config hash.
"""

import argparse
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papuf import (
    BchCode,
    DelayParams,
    Design,
    FeatureMap,
    HelperData,
    Netlist,
    collect_crps,
    load_crps,
    load_device,
    load_helper,
    save_crps,
    save_device,
    save_helper,
    synthesize_device,
    synthesize_population,
)
from papuf import kvfile
from papuf.attack import AttackModel, load_model, save_model
from papuf.cli import DESIGN_NAMES, ExperimentConfig, _build_config, _echo_config
from papuf.netlist import format_taps

round_trips = settings(max_examples=30, deadline=None)

names = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
params = st.builds(
    DelayParams,
    mean_delay=st.floats(1.0, 1000.0),
    sigma_process=st.floats(0.0, 20.0),
    sigma_noise=st.floats(0.0, 20.0),
    metastability_window=st.floats(0.0, 5.0),
)


@st.composite
def netlists(draw, stages=st.integers(1, 24)):
    design = draw(st.sampled_from(Design))
    count = draw(stages)
    taps = ()
    if design is Design.FF_PA_PUF and count > 1:
        targets = draw(st.lists(st.integers(1, count - 1), unique=True, max_size=4))
        taps = tuple((draw(st.integers(0, target - 1)), target) for target in targets)
    return Netlist(design, count, taps)


def _resaved_bytes(save, load, obj, **kwargs):
    """Bytes of save(obj) and of save(load(save(obj)))."""
    with TemporaryDirectory() as directory:
        first, second = Path(directory) / "first", Path(directory) / "second"
        save(obj, first, **kwargs)
        loaded = load(first)
        save(loaded, second, **kwargs)
        return loaded, first.read_bytes(), second.read_bytes()


@round_trips
@given(netlists(), params, st.integers(-(2**63), 2**64), names)
def test_device_file_round_trip_is_byte_identical(netlist, params, seed, device_id):
    device = synthesize_device(params, netlist, seed, device_id)
    loaded, first, second = _resaved_bytes(save_device, load_device, device, extra_header={"config": "c0ffee"})
    assert first == second
    assert (loaded.device_id, loaded.netlist, loaded.seed) == (device_id, netlist, seed)
    assert np.array_equal(loaded.delay_table, device.delay_table)


@st.composite
def helpers(draw):
    # t <= 2^(m-1) - 1 keeps 2t below n, so the code has k >= 1 message bits
    m = draw(st.integers(3, 8))
    code = BchCode.construct(m, draw(st.integers(1, (1 << (m - 1)) - 1)))
    raw = draw(st.binary(min_size=(code.n + 7) // 8, max_size=(code.n + 7) // 8))
    return HelperData(np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: code.n], code)


@round_trips
@given(helpers(), names)
def test_helper_file_round_trip_is_byte_identical(helper, challenge_hex):
    loaded, first, second = _resaved_bytes(save_helper, load_helper, helper, extra_header={"challenge_hex": challenge_hex})
    assert first == second
    assert loaded == helper


@round_trips
@given(st.sampled_from(["parity", "raw_bits"]), st.integers(1, 64), st.data())
def test_model_file_round_trip_is_byte_identical(kind, stages, data):
    feature_map = FeatureMap(kind, stages)
    size = feature_map.dimension + 1
    weights = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    metadata = {
        "seed": data.draw(st.integers(0, 2**32)),
        "epochs": data.draw(st.integers(0, 10**4)),
        "train_fraction": data.draw(st.floats(0.0, 1.0)),
    }
    model = AttackModel(weights, feature_map, metadata)
    loaded, first, second = _resaved_bytes(save_model, load_model, model)
    assert first == second
    assert np.array_equal(loaded.weights, weights) and loaded.feature_map == feature_map
    assert loaded.metadata == metadata


@round_trips
@given(
    netlists(st.sampled_from([4, 5, 8, 16])),
    params,
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([8, 16, 32]),
    st.integers(0, 2**32),
    st.sampled_from(["random", "neighbor"]),
)
def test_crp_file_round_trip_is_byte_identical(netlist, params, devices, challenges, repetitions, size, seed, mode):
    population = synthesize_population(params, netlist, devices, seed)
    crps = collect_crps(population, challenges, repetitions, size, seed, challenge_mode=mode)
    crps.extra_header["config"] = f"{seed:012x}"
    loaded, first, second = _resaved_bytes(save_crps, load_crps, crps)
    assert first == second
    assert np.array_equal(loaded.responses, crps.responses)
    assert loaded.extra_header == crps.extra_header


configs = st.builds(
    ExperimentConfig,
    design=st.sampled_from(sorted(DESIGN_NAMES)),
    stages=st.integers(1, 128),
    ff_taps=st.one_of(st.sampled_from(["default", "none"]), netlists().map(lambda n: format_taps(n.ff_taps))),
    mean_delay=finite,
    sigma_process=finite,
    sigma_noise=finite,
    metastability_window=finite,
    population=st.integers(1, 100),
    challenges=st.integers(1, 10**4),
    repetitions=st.integers(1, 100),
    response_size=st.sampled_from([8, 16, 32, 64, 128]),
    challenge_mode=st.sampled_from(["random", "neighbor"]),
    seed=st.integers(0, 2**63),
    challenge_seed=st.integers(-1, 2**63),
)


@round_trips
@given(configs)
def test_effective_config_read_back_reproduces_the_config_hash(config):
    with TemporaryDirectory() as directory:
        chash = _echo_config(config, Path(directory))
        again = _build_config(argparse.Namespace(config=str(Path(directory) / "effective-config.kv")))
    assert again == config
    assert again.config_hash() == chash


def test_open_text_names_the_line_of_the_first_byte_that_is_not_utf8(tmp_path):
    # lines end in LF, CR LF or CR, as text mode reads them; the bad byte is on line 4
    path = tmp_path / "f.kv"
    path.write_bytes(b"# papuf-x v1\r\na=1\rb=2\nc=\xff\xfe\nd=4\n")
    with pytest.raises(ValueError) as error, kvfile.open_text(path) as handle:
        kvfile.read(handle, {})
    assert str(error.value) == f"{path}, line 4: not UTF-8 text (byte 0xff)"
