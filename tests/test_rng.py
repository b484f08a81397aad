"""The stdlib sampler against ``numpy.random.default_rng``, bit for bit."""

import random

import numpy as np
import pytest

from ghzgen import _rng

MEAN = 632.4239  # 2 alpha cos(theta), the default branch-A homodyne mean


class _Recording(_rng.Generator):
    """Keeps the raw 64-bit words each draw consumes."""

    __slots__ = ("words",)

    def __init__(self, seed):
        super().__init__(seed)
        self.words = []

    def _next64(self):
        word = super()._next64()
        self.words.append(word)
        return word


def _path(words: list[int]) -> str:
    """The ziggurat path of one ``normal`` draw, from the words it used."""
    ki = _rng._ziggurat()[0]
    first = words[0]
    idx = first & 0xFF
    if (first >> 9) & 0x000FFFFFFFFFFFFF < ki[idx]:
        return "fast"
    if idx == 0:
        return "tail"
    # a wedge accept uses one uniform; a reject starts over
    return "wedge" if len(words) == 2 else "wedge-reject"


def _normal_seeds():
    rng = random.Random(20121)
    return list(range(2000)) + [rng.getrandbits(64) for _ in range(1000)]


def test_normal_and_random_match_numpy_bit_for_bit():
    seeds = _normal_seeds()
    assert len(seeds) >= 3000
    paths = {"fast": 0, "wedge": 0, "wedge-reject": 0, "tail": 0}
    for seed in seeds:
        ours = _Recording(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(20):
            ours.words.clear()
            got = ours.normal(MEAN, 1.0)
            assert got.hex() == float(theirs.normal(MEAN, 1.0)).hex(), seed
            paths[_path(ours.words)] += 1
        assert ours.random().hex() == float(theirs.random()).hex(), seed
    assert paths["fast"] and paths["wedge"] and paths["tail"], paths


def test_standard_normal_matches_numpy_in_every_bit():
    # adding MEAN rounds away the low bits of z; at loc 0 a wrong wi entry
    # shows in the last bit
    for seed in range(1000):
        ours = _rng.Generator(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(20):
            assert ours.normal(0.0, 1.0).hex() == float(theirs.normal(0.0, 1.0)).hex(), seed


def test_random_matches_numpy_over_wide_seeds():
    edge = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**97 - 12345, 2**200 + 7]
    rng = random.Random(20122)
    seeds = edge + [rng.getrandbits(96) for _ in range(300 - len(edge))]
    for seed in seeds:
        ours = _rng.Generator(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(5):
            assert ours.random().hex() == float(theirs.random()).hex(), seed


def test_seed_types_are_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        _rng.Generator(-1)
    with pytest.raises(TypeError):
        np.random.default_rng(1.5)
    with pytest.raises(TypeError):
        _rng.Generator(1.5)
