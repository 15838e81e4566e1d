"""The first draws of every NumPy stream the package reads.

NumPy does not promise its random streams across versions (NEP 19), and
every golden pin and digest depends on them.  If an upgrade moves a
stream, this test names it, where the pins would only show moved bits.
"""

import numpy as np

from papuf.circuit import _noise_rng


def test_noise_stream_draws_are_pinned():
    normals = np.empty(4)
    _noise_rng(7).standard_normal(out=normals)  # feed-forward jitter
    assert normals.tolist() == [0.39849627604716303, -0.5817342524020725, -0.27340510875017315, 0.36054870465642197]
    # the words that tapless reads compare with their thresholds
    assert _noise_rng(7).bit_generator.random_raw(4).tolist() == [
        15288799889561701392, 18021670488934884630, 15024749872801282314, 9666017840163036847,
    ]


def test_default_rng_draws_are_pinned():
    # device synthesis
    assert np.random.default_rng(7).normal(100.0, 5.0, 4).tolist() == [
        100.00615076678741, 101.49372768754235, 98.62931072318891, 95.54704080621363,
    ]
    # random challenges and the enrolment message
    bits = np.random.default_rng([7, 3]).integers(0, 2, size=(2, 6), dtype=np.uint8)
    assert bits.tolist() == [[1, 1, 0, 1, 1, 1], [1, 1, 0, 0, 1, 1]]
    # the bit flips of neighbour challenges
    rng = np.random.default_rng(7)
    assert [int(rng.integers(64)) for _ in range(6)] == [60, 40, 43, 57, 37, 49]
    # the attack's train/test split
    assert np.random.default_rng(7).permutation(10).tolist() == [8, 0, 7, 1, 3, 6, 2, 4, 5, 9]
