"""Golden bytes: every file papuf writes, pinned by SHA-256 for fixed seeds.

The file formats are a contract with stored artefacts (device tables, CRP
dumps, helper data, attack models, effective configs), so a refactor of the
readers and writers must leave every byte and the config hash unchanged.
The model file is written from fixed weights, not from training, so its
digest does not depend on the floating-point library.
"""

import hashlib

import numpy as np

from papuf import (
    AttackModel,
    BchCode,
    DelayParams,
    Design,
    FeatureMap,
    Netlist,
    collect_crps,
    enroll,
    save_crps,
    save_device,
    save_helper,
    synthesize_device,
    synthesize_population,
)
from papuf.attack import save_model
from papuf.cli import ExperimentConfig, main

MODULE_FILES = {
    "device.txt": "437e2bc5b6fa05f01d8f3b80c36d6da0ac7396bb710f3baa37933784c54f553b",
    "helper.txt": "a99e7f3b31a29523267f09c6a4e07c27844f01de8b1164ad13b33795d2826c32",
    "model.txt": "c284590e8ddef19252aeec6b387b4950a5bddd15dfe8684c7e24e84daceb2663",
    "crps.csv": "73d6af92c750a7b65e2e700ca0e29ce464393d7647433ba2b3b67463d3a01698",
}

CLI_FILES = {
    "effective-config.kv": "ffd8621dc1a0a55c360e9ab50d02a95c3534f20d6305e7a2e5cef6b3504cec1c",
    "crps.csv": "5b354a29ef30dc5e06858f348085584f84ed17ee6f571bb47dceb7fc12afc8a9",
    "metrics.kv": "79991817b66ea5a5dcfd9ead5dce506a2e7d8dbdcf2d1607737bba05f42f1f13",
    "device.txt": "f56cd651501a0976e21e7ed3b78d12e9eab49830d72ea144b509a1058c22ddc6",
    "helper.txt": "6082f45a99e9d74fc0ef32cce9653dd6c23905bb220503e24044b31ff51ef78c",
    "key.txt": "9e18002added07db62f244fa75cd77000df743cbe2fac2dfe2368a457034ca24",
}

DEFAULT_CONFIG_HASH = "b67ff8ef3ee1"


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_module_writers_are_byte_stable(tmp_path):
    params = DelayParams(sigma_noise=1.25, metastability_window=0.5)
    device = synthesize_device(params, Netlist(Design.FF_PA_PUF, 16, ((2, 5), (5, 9))), 2026)
    save_device(device, tmp_path / "device.txt", extra_header={"config": "0123456789ab"})

    code = BchCode.construct(5, 3)
    response = np.random.default_rng(3).integers(0, 2, size=40, dtype=np.uint8)
    helper, _ = enroll(response, code, key_seed=13)
    save_helper(helper, tmp_path / "helper.txt", extra_header={"challenge_hex": "beef"})

    weights = np.random.default_rng(5).normal(size=18)
    metadata = {"seed": 4, "epochs": 30, "learning_rate": 0.25, "train_fraction": 0.75}
    model = AttackModel(weights, FeatureMap("parity", 16), metadata)
    save_model(model, tmp_path / "model.txt", extra_header={"config": "0123456789ab"})

    population = synthesize_population(DelayParams(sigma_noise=1.5), Netlist(Design.PA_PUF, 16), 3, 4)
    crps = collect_crps(population, 7, 3, 16, 55, challenge_mode="neighbor")
    crps.extra_header["config"] = "0123456789ab"
    save_crps(crps, tmp_path / "crps.csv")

    assert _digests(tmp_path, MODULE_FILES) == MODULE_FILES


def test_cli_files_are_byte_stable(tmp_path):
    out = str(tmp_path)
    assert main(["crp", "gen", "--design", "ff-pa-puf", "--stages", "16", "--ff-taps", "3:8",
                 "--population", "3", "--challenges", "6", "--repetitions", "3",
                 "--response-size", "16", "--sigma-noise", "1.5", "--seed", "9", "--out-dir", out]) == 0
    assert main(["metrics", "--crps", str(tmp_path / "crps.csv"), "--out-dir", out]) == 0
    assert main(["device", "new", "--stages", "64", "--sigma-noise", "1.9", "--seed", "7",
                 "--out-dir", str(tmp_path / "device-run"), "--out", str(tmp_path / "device.txt")]) == 0
    assert main(["keygen", "enroll", "--device", str(tmp_path / "device.txt"), "--seed", "4",
                 "--out-dir", out, "--helper-out", str(tmp_path / "helper.txt")]) == 0
    assert _digests(tmp_path, CLI_FILES) == CLI_FILES


def test_default_config_hash_is_pinned():
    assert ExperimentConfig().config_hash() == DEFAULT_CONFIG_HASH
