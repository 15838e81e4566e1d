"""Golden bytes: every file papuf writes, pinned by SHA-256 for fixed seeds.

The file formats are a contract with stored artefacts (device tables, CRP
dumps, helper data, attack models, effective configs), so a refactor of the
readers and writers must leave every byte and the config hash unchanged.
The model file is written from fixed weights, not from training, so its
digest does not depend on the floating-point library.
"""

import hashlib

import numpy as np
import pytest

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
    "model.txt": "68abe603b07a3d957e1b544f3023d71ba906c1f0a6a4ee8f25b38fc95a807d9a",
    "crps.csv": "99e45f8a0f11b7b0e499aeabc08d32144db0061bcb7eb441a1d1bc0bf2e3db68",
}

CLI_FILES = {
    "effective-config.kv": "ffd8621dc1a0a55c360e9ab50d02a95c3534f20d6305e7a2e5cef6b3504cec1c",
    "crps.csv": "51cd0c0697b5530a8e6e8d49dcb08d5c05f9730e692f0ec905f4e0b164c138b1",
    "metrics.kv": "92662bf660999bf50859e77174be791ecae17950dddc13173c87335971d830dc",
    "device.txt": "f56cd651501a0976e21e7ed3b78d12e9eab49830d72ea144b509a1058c22ddc6",
    "helper.txt": "51b40dbed671545a225600a99a017c71d094e8fd52fa1f15ed258156bacb2b48",
    "key.txt": "9e18002added07db62f244fa75cd77000df743cbe2fac2dfe2368a457034ca24",
}

DEFAULT_CONFIG_HASH = "b67ff8ef3ee1"

# CRP files without noise: every bit is a clean race or, within the 0.5
# window, a tie bit, so no change of the noise streams may move them.
NOISELESS_CRPS = {
    "apuf": ("965cf8e9a6d3be9dd53d40bfd57bb2ccf4f2f3b593bb82ef9223a20662eda4fe", Netlist(Design.APUF, 16)),
    "pa-puf": ("1b39a5790b8691750e2d96a30c44428110929de7ea3921a1b570f1ed76533d1b", Netlist(Design.PA_PUF, 16)),
    "ff-pa-puf": (
        "e0b31d7076d6f10dc966ff13bab7c7e40098197795fadaa2d2b19779f594df55",
        Netlist(Design.FF_PA_PUF, 16, ((2, 5), (5, 9))),
    ),
}


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
    metadata = {"seed": 4, "epochs": 30, "train_fraction": 0.75}
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


@pytest.mark.parametrize("design", sorted(NOISELESS_CRPS))
def test_noiseless_crp_files_are_byte_stable(tmp_path, design):
    digest, netlist = NOISELESS_CRPS[design]
    population = synthesize_population(DelayParams(sigma_noise=0.0, metastability_window=0.5), netlist, 3, 21)
    save_crps(collect_crps(population, 12, 3, 16, 23), tmp_path / "crps.csv")
    assert _digests(tmp_path, ["crps.csv"]) == {"crps.csv": digest}


def test_default_config_hash_is_pinned():
    assert ExperimentConfig().config_hash() == DEFAULT_CONFIG_HASH
