"""Seed purity: equal seeds give equal response bytes, whatever the kernel
block size and whatever else ran before in the same process."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papuf import (
    DelayParams,
    Design,
    Netlist,
    collect_crps,
    propagate_many,
    repeated_reads,
    synthesize_population,
)
from papuf import circuit

NETLISTS = [
    Netlist(Design.APUF, 16),
    Netlist(Design.PA_PUF, 8),
    Netlist(Design.PA_PUF, 16),
    Netlist(Design.FF_PA_PUF, 16, ((2, 9), (5, 12))),
]
SINGLE_BLOCK = 1 << 40


def _jobs(netlist, params, seed):
    """Named calls on three populations of one netlist; each returns bytes."""
    target, other, third = (
        synthesize_population(params, netlist, 3, seed + k) for k in range(3)
    )
    challenges = np.random.default_rng(seed).integers(0, 2, size=(37, netlist.stages), dtype=np.uint8)
    return {
        "crps": lambda: collect_crps(target, 5, 2, 16, seed).responses.tobytes(),
        "many": lambda: propagate_many(target[1], challenges, seed + 1).tobytes(),
        "reads": lambda: repeated_reads(target[2], challenges, 5, seed + 2).tobytes(),
        "other-crps": lambda: collect_crps(other, 4, 3, 8, seed + 3).responses.tobytes(),
        "other-many": lambda: propagate_many(third[0], challenges[::-1], seed + 4).tobytes(),
    }


@settings(max_examples=25, deadline=None)
@given(
    netlist=st.sampled_from(NETLISTS),
    window=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**31),
    block_values=st.integers(1, 400),
    order=st.permutations(["crps", "many", "reads", "other-crps", "other-many"]),
)
def test_equal_seeds_give_equal_bytes_for_any_block_size_and_call_order(netlist, window, seed, block_values, order):
    params = DelayParams(sigma_noise=1.5, metastability_window=window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit, "BLOCK_VALUES", SINGLE_BLOCK)
        # every call in a fixed order, each in one kernel block
        reference = {name: job() for name, job in _jobs(netlist, params, seed).items()}
        patch.setattr(circuit, "BLOCK_VALUES", block_values)
        jobs = _jobs(netlist, params, seed)
        interleaved = {name: jobs[name]() for name in order}
    assert interleaved == reference
