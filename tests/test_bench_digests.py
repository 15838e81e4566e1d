"""The benchmark workloads' output digests at seed 5, pinned in tier 1.

A change that moves any output bit of ``population``, ``keygen`` or
``ff_sweep`` fails here, not only in a benchmark run.  ``attack``'s digest
is left out: its fits go through BLAS dot products, whose rounding can
depend on the thread count that ``perfbench/run.py`` pins to 1.  The
training and holdout sets it fits are pinned instead, which no BLAS call
reaches.
"""

import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench")]

import workloads  # noqa: E402
from papuf import attack  # noqa: E402
from papuf.seeds import derive_seed  # noqa: E402

DIGESTS = {
    "population": "c3b4835ffaa1366aadf4e6933b48b058665a6dd76396c098871e2b46e7fb74b3",
    "keygen": "f0f41fd09b57d1202147e0da096c4038c67c3d70a0b9aceba4f5f97eacff0de4",
    "ff_sweep": "0322023ac5f41f51c84b34e7c4d32fdc8fd5260d9c834045dcf86537827d62e9",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest_at_seed_5(name, tmp_path):
    setup, run = workloads.WORKLOADS[name]
    rep = run(setup(5), tmp_path)
    assert [check for check, ok in rep.checks if not ok] == []
    assert rep.digest == DIGESTS[name]


ATTACK_DATA_DIGEST = "a2aef98166749fb34885cb18ab46f0756755bdc179c1b1a1721e5a5313de80ac"


def test_attack_data_at_seed_5():
    """The 15 (train, holdout) sets of ``attack`` at seed 5, built as
    ``attack.compare_designs`` builds them, hashed through ``flat_crps``."""
    inputs = workloads.attack_setup(5)
    digest = hashlib.sha256()
    for netlist in inputs["designs"]:
        for seed in inputs["seeds"]:
            sets = attack._attack_dataset(
                netlist, inputs["params"], workloads.ATTACK["budget"], derive_seed(netlist.describe(), seed)
            )
            for crps in sets:
                for bits in crps.flat_crps():
                    digest.update(bits.tobytes())
    assert digest.hexdigest() == ATTACK_DATA_DIGEST
