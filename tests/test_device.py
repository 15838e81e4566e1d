import numpy as np
import pytest

from papuf import (
    DelayParams,
    Design,
    Netlist,
    load_device,
    save_device,
    synthesize_device,
    synthesize_population,
)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DelayParams(mean_delay=0.0)
    with pytest.raises(ValueError):
        DelayParams(mean_delay=-5.0)
    with pytest.raises(ValueError):
        DelayParams(sigma_process=-1.0)
    with pytest.raises(ValueError):
        DelayParams(sigma_noise=-0.1)
    with pytest.raises(ValueError):
        DelayParams(metastability_window=-0.1)


def test_non_finite_params_rejected():
    for name in ("mean_delay", "sigma_process", "sigma_noise", "metastability_window"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                DelayParams(**{name: value})


def test_zero_variance_gives_mean_everywhere():
    params = DelayParams(mean_delay=80.0, sigma_process=0.0)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 8), 3)
    assert np.all(dev.delay_table == 80.0)


def test_synthesis_deterministic():
    params = DelayParams()
    nl = Netlist(Design.PA_PUF, 32)
    a = synthesize_device(params, nl, 123)
    b = synthesize_device(params, nl, 123)
    assert np.array_equal(a.delay_table, b.delay_table)
    c = synthesize_device(params, nl, 124)
    assert not np.array_equal(a.delay_table, c.delay_table)


def test_sample_mean_within_standard_error_bound():
    # 64 stages x 2 selects x 3 lines = 384 i.i.d. Normal(100, 5) draws
    params = DelayParams(mean_delay=100.0, sigma_process=5.0)
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 64), 1)
    assert dev.delay_table.size == 384
    bound = 3 * 5.0 / np.sqrt(384)
    assert abs(dev.delay_table.mean() - 100.0) < bound


def test_delay_table_immutable_and_positive(pa64):
    assert np.all(pa64.delay_table > 0)
    with pytest.raises(ValueError):
        pa64.delay_table[0, 0, 0] = -1.0


def test_population_pairwise_distinct():
    params = DelayParams()
    pop = synthesize_population(params, Netlist(Design.PA_PUF, 16), 50, 7)
    assert len(pop) == 50
    tables = [d.delay_table.tobytes() for d in pop]
    assert len(set(tables)) == 50


def test_population_count_validated():
    with pytest.raises(ValueError):
        synthesize_population(DelayParams(), Netlist(Design.PA_PUF, 8), 0, 1)


def test_population_extension_preserves_existing_devices():
    params = DelayParams()
    nl = Netlist(Design.PA_PUF, 16)
    small = synthesize_population(params, nl, 3, 99)
    large = synthesize_population(params, nl, 6, 99)
    for a, b in zip(small, large):
        assert a.device_id == b.device_id
        assert np.array_equal(a.delay_table, b.delay_table)


def test_device_file_round_trip(tmp_path):
    params = DelayParams(sigma_noise=1.25, metastability_window=0.5)
    nl = Netlist(Design.FF_PA_PUF, 16, ((2, 5), (5, 9)))
    dev = synthesize_device(params, nl, 2026)
    path = tmp_path / "device.txt"
    save_device(dev, path)
    loaded = load_device(path)
    assert loaded.device_id == dev.device_id
    assert loaded.netlist == dev.netlist
    assert loaded.params == dev.params
    assert loaded.seed == dev.seed
    assert np.array_equal(loaded.delay_table, dev.delay_table)
    # the file itself is stable: save(load(file)) is byte-identical
    path2 = tmp_path / "device2.txt"
    save_device(loaded, path2)
    assert path.read_text() == path2.read_text()
